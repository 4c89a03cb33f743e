"""Problem documents: the JSON input format shared by all CLI commands.

Schema:
    {
      "n": int,                       # number of variables, >= 1
      "objective": "x1 + 2",          # polynomial string
      "constraints": ["1 - x1^2"],    # g_1..g_m, may be empty
      "box": [[lo, hi], ...]          # optional, default [-1,1]^n
    }

Any other key is a ParseError, and so is a box interval that is not finite
with lo < hi (``GridSpec``'s rule), whatever the command: ``solve``,
``certify`` and ``verify`` never grid the box, but they refuse the same
files as the grid commands.  The grid oracle's settings are not part of the
document: ``--grid`` sets the points per axis (default
``default_points_per_axis(n)``); the refinement rounds (3) and the
feasibility tolerance (``DEFAULT_FEASIBILITY_TOL``) are fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar

from .errors import ParseError
from .poly import Polynomial, parse_polynomial
from .semialg import (
    DEFAULT_FEASIBILITY_TOL,
    GridSpec,
    SemialgebraicSystem,
    box_intervals,
    default_points_per_axis,
)

_KEYS = ("n", "objective", "constraints", "box")


@dataclass(frozen=True)
class ProblemDocument:
    dimension: int
    objective: Polynomial
    system: SemialgebraicSystem
    box: tuple[tuple[float, float], ...]
    feasibility_tol: ClassVar[float] = DEFAULT_FEASIBILITY_TOL

    def grid_spec(self, points_per_axis: int | None = None) -> GridSpec:
        if points_per_axis is None:
            points_per_axis = default_points_per_axis(self.dimension)
        return GridSpec(points_per_axis=points_per_axis, box=self.box)


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer (not a bool), else ParseError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def problem_from_dict(data: dict) -> ProblemDocument:
    unknown = sorted(set(data) - set(_KEYS))
    if unknown:
        raise ParseError(
            f"unknown problem document key(s) {', '.join(map(repr, unknown))}; "
            f"expected {', '.join(_KEYS)}"
        )
    try:
        n = json_int(data["n"], '"n"')
        objective = parse_polynomial(str(data["objective"]), n)
        raw_constraints = data.get("constraints", [])
        if not isinstance(raw_constraints, list):
            raise ParseError(f'"constraints" must be a list, got {raw_constraints!r}')
        constraints = tuple(parse_polynomial(str(s), n) for s in raw_constraints)
        raw_box = data.get("box")
        if raw_box is None:
            box = ((-1.0, 1.0),) * n
        else:
            box = box_intervals(raw_box, ParseError)
            if len(box) != n:
                raise ParseError(f"box has {len(box)} axes, expected {n}")
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed problem document: {exc}") from exc
    return ProblemDocument(
        dimension=n,
        objective=objective,
        system=SemialgebraicSystem(n, constraints),
        box=box,
    )


def load_json(path: str, what: str):
    """The JSON document in the file ``path``; ParseError, naming it a
    ``what`` file, when the file is missing, cannot be read or is not JSON
    in UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"{what} file not found: {path}") from exc
    except OSError as exc:
        raise ParseError(f"{what} file cannot be read: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{what} file is not valid JSON: {exc}") from exc


def load_problem(path: str) -> ProblemDocument:
    data = load_json(path, "problem")
    if not isinstance(data, dict):
        raise ParseError("problem document must be a JSON object")
    return problem_from_dict(data)
