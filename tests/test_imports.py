"""Import structure: every module imports at its top level.

An import inside a function body or under ``if TYPE_CHECKING:`` is how a
circular dependency between modules gets papered over; keeping all imports
at module level keeps the module graph acyclic and visible.  Every import
is from the standard library, numpy or the package itself: numpy is the only
dependency.
"""

import ast
import importlib
import inspect
import os
import sys

import poslab
from poslab import semialg
from poslab.problemio import ProblemDocument
from poslab.semialg import DEFAULT_FEASIBILITY_TOL

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


# Every binding the benchmark harness (perfbench/) wraps to time a layer or
# imports to run and check its cases, by the module that holds it.  A
# refactor that drops or moves one breaks a traced benchmark run; the list
# is kept here by hand, so this test does not import the harness.
BENCHMARK_BINDINGS = {
    "cli": ("main", "load_problem", "verify", "certificate_to_dict",
            "certificate_from_dict", "grid_min"),
    "sos": ("lasserre_bound", "module_membership", "preordering_membership", "verify"),
    "sdp": ("solve",),
    "bounds": ("grid_min", "lifting_parameters", "find_lifting_k", "lojasiewicz_estimate"),
    "semialg": ("grid_min", "default_points_per_axis"),
    "problemio": ("load_problem",),
}


def test_benchmark_bindings_exist():
    missing = [
        f"{module}.{name}"
        for module, names in BENCHMARK_BINDINGS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"poslab.{module}"), name, None))
    ]
    if not callable(getattr(poslab.Polynomial, "evaluate_many", None)):
        missing.append("poly.Polynomial.evaluate_many")
    if not callable(getattr(ProblemDocument, "grid_spec", None)):
        missing.append("problemio.ProblemDocument.grid_spec")
    # the harness takes each hierarchy problem's grid minimum as
    # grid_min(doc.objective, doc.system, doc.grid_spec(), doc.feasibility_tol)
    if getattr(ProblemDocument, "feasibility_tol", None) != DEFAULT_FEASIBILITY_TOL:
        missing.append("problemio.ProblemDocument.feasibility_tol")
    try:
        inspect.signature(semialg.grid_min).bind("f", "system", "spec", DEFAULT_FEASIBILITY_TOL)
    except TypeError:
        missing.append("semialg.grid_min(f, system, spec, tol)")
    assert missing == []
