"""Problem documents: the JSON input format shared by all CLI commands.

Schema:
    {
      "n": int,                       # number of variables, >= 1
      "objective": "x1 + 2",          # polynomial string
      "constraints": ["1 - x1^2"],    # g_1..g_m, may be empty
      "box": [[lo, hi], ...],         # optional, default [-1,1]^n
      "options": {                    # optional, all entries optional
        "points_per_axis": int,
        "refinement_rounds": int,
        "feasibility_tol": float
      }
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ParseError
from .poly import Polynomial, parse_polynomial
from .semialg import DEFAULT_FEASIBILITY_TOL, GridSpec, SemialgebraicSystem, default_points_per_axis

_OPTION_TYPES = {"points_per_axis": int, "refinement_rounds": int, "feasibility_tol": float}


@dataclass(frozen=True)
class ProblemDocument:
    dimension: int
    objective: Polynomial
    system: SemialgebraicSystem
    box: tuple[tuple[float, float], ...]
    options: dict = field(default_factory=dict)

    @property
    def feasibility_tol(self) -> float:
        return self.options.get("feasibility_tol", DEFAULT_FEASIBILITY_TOL)

    def grid_spec(self, points_per_axis: int | None = None) -> GridSpec:
        ppa = points_per_axis
        if ppa is None:
            ppa = self.options.get("points_per_axis", default_points_per_axis(self.dimension))
        rounds = self.options.get("refinement_rounds", 3)
        return GridSpec(points_per_axis=ppa, box=self.box, refinement_rounds=rounds)


def problem_from_dict(data: dict) -> ProblemDocument:
    try:
        n = int(data["n"])
        objective = parse_polynomial(str(data["objective"]), n)
        constraints = tuple(
            parse_polynomial(str(s), n) for s in data.get("constraints", [])
        )
        raw_box = data.get("box")
        if raw_box is None:
            box = ((-1.0, 1.0),) * n
        else:
            box = tuple((float(lo), float(hi)) for lo, hi in raw_box)
            if len(box) != n:
                raise ParseError(f"box has {len(box)} axes, expected {n}")
        options = dict(data.get("options", {}))
        for key, kind in _OPTION_TYPES.items():
            if key in options:
                options[key] = kind(options[key])
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed problem document: {exc}") from exc
    return ProblemDocument(
        dimension=n,
        objective=objective,
        system=SemialgebraicSystem(n, constraints),
        box=box,
        options=options,
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
