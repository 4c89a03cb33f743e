"""Import structure: every module imports at its top level.

An import inside a function body or under ``if TYPE_CHECKING:`` is how a
circular dependency between modules gets papered over; keeping all imports
at module level keeps the module graph acyclic and visible.  Every import
is from the standard library, numpy or the package itself: numpy is the only
dependency.
"""

import ast
import os
import sys

import poslab

SOURCE_DIR = os.path.dirname(poslab.__file__)
# numpy is the only dependency; scipy may be installed but must not be used
ALLOWED_TOP_LEVEL = sys.stdlib_module_names | {"numpy"}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _hidden_imports(tree: ast.Module):
    """Line numbers of imports inside a function or a TYPE_CHECKING block."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    for node in ast.walk(tree):
        hidden = isinstance(node, scopes) or (
            isinstance(node, ast.If) and _is_type_checking(node.test)
        )
        if hidden:
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield inner.lineno


def test_no_deferred_or_type_checking_imports():
    names = sorted(f for f in os.listdir(SOURCE_DIR) if f.endswith(".py"))
    assert "sos.py" in names
    found = []
    for name in names:
        with open(os.path.join(SOURCE_DIR, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [f"{name}:{line}" for line in sorted(set(_hidden_imports(tree)))]
    assert found == []


def test_imports_are_stdlib_numpy_or_relative():
    found = []
    for name in sorted(f for f in os.listdir(SOURCE_DIR) if f.endswith(".py")):
        with open(os.path.join(SOURCE_DIR, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [
                f"{name}:{node.lineno} {module}"
                for module in modules
                if module.split(".")[0] not in ALLOWED_TOP_LEVEL
            ]
    assert found == []
