"""Command-line interface.

Commands operate on the JSON problem document (see ``problemio``) and write
JSON or CSV results.  Exit codes are a total function of the outcome class:

    0  success
    1  input error (bad flags, malformed files, capacity, unusable problem)
    2  inconclusive (membership not found, bound -inf, infeasible at grid
       resolution)
    3  verification failure
    4  solver failure

All randomness (the estimate command's sampling) flows from --seed; repeated
runs with identical inputs and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import sos
from .certificate import (
    certificate_from_dict,
    certificate_to_dict,
    verify,
    verify_disproof,
)
from .errors import InfeasibleAtResolutionError, InputError, PoslabError, SolverError
from .poly import weighted_norm
from .problemio import ProblemDocument, json_list, json_number, load_json, load_problem
from .semialg import (
    DEFAULT_FEASIBILITY_TOL,
    feasible_extent,
    grid_axes,
    grid_feasible_mask,
    grid_min,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2
EXIT_VERIFICATION = 3
EXIT_SOLVER = 4


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload: dict, path: str | None) -> None:
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def _json_float(value: float) -> float | None:
    """JSON has no infinities; map them to null (callers add a flag)."""
    return value if math.isfinite(value) else None


def _report_fields(report) -> dict:
    """A verification or disproof report's fields, nonfinite floats as null."""
    return {k: _json_float(v) if isinstance(v, float) else v
            for k, v in report.to_dict().items()}


def _level(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"level {token!r} is not an integer") from None


def _parse_levels(spec: str) -> list[int]:
    """Accept '2,4,6' or 'start:stop[:step]' (inclusive stop, default step 2)."""
    spec = spec.strip()
    if not spec:
        return []
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise InputError(f"bad level range {spec!r}")
        start, stop = _level(parts[0]), _level(parts[1])
        step = _level(parts[2]) if len(parts) == 3 else 2
        if step <= 0:
            raise InputError("level range step must be positive")
        return list(range(start, stop + 1, step))
    return [_level(tok) for tok in spec.split(",") if tok]


def _load(args) -> ProblemDocument:
    if args.input is None:
        raise InputError("--input is required for this command")
    return load_problem(args.input)


def _result_fields(result: sos.LasserreResult | sos.MembershipResult) -> dict:
    """The payload fields that ``solve`` and ``certify`` share."""
    return {
        "level": result.level,
        "reason": result.reason,
        "status": result.status,
        "certificate": (
            certificate_to_dict(result.certificate) if result.certificate else None
        ),
        "verification": (
            _report_fields(result.verification) if result.verification else None
        ),
        "solver": result.solver,
    }


# ----------------------------------------------------------------------
# commands


def cmd_solve(args) -> int:
    problem = _load(args)
    result = sos.lasserre_bound(problem.objective, problem.system, args.level)
    payload = {
        "command": "solve",
        "lower_bound": _json_float(result.lower_bound),
        "finite": result.is_finite,
        **_result_fields(result),
    }
    _emit_json(payload, args.output)
    return EXIT_OK if result.is_finite else EXIT_INCONCLUSIVE


def cmd_certify(args) -> int:
    problem = _load(args)
    mp = sos.MembershipProblem(
        target=problem.objective,
        system=problem.system,
        level=args.level,
        mode=args.mode,
    )
    if args.mode == sos.QUADRATIC_MODULE:
        result = sos.module_membership(mp)
    else:
        result = sos.preordering_membership(mp)
    disproof = result.disproof
    payload = {
        "command": "certify",
        "mode": args.mode,
        "found": result.found,
        "disproof": (
            {"point": list(disproof.point), "value": disproof.value}
            if disproof else None
        ),
        **_result_fields(result),
    }
    _emit_json(payload, args.output)
    return EXIT_OK if result.found else EXIT_INCONCLUSIVE


def _disproof_point(path: str) -> list[float]:
    """The point of a disproof file: the ``disproof`` object of a
    ``certify`` output."""
    data = load_json(path, "disproof")
    point = data.get("point") if isinstance(data, dict) else None
    return [json_number(v, "malformed disproof: a coordinate")
            for v in json_list(point, 'malformed disproof: "point"')]


def cmd_verify(args) -> int:
    problem = _load(args)
    if args.disproof is not None:
        # re-checked from the problem alone; the value in the file is ignored
        report = verify_disproof(
            problem.objective, problem.system, _disproof_point(args.disproof)
        )
        _emit_json({"command": "verify", "disproof": _report_fields(report)}, args.output)
        return EXIT_OK if report.passed else EXIT_VERIFICATION
    cert = certificate_from_dict(load_json(args.certificate, "certificate"))
    if cert.system != problem.system:
        raise InputError(
            "certificate generators do not match the problem constraints"
        )
    report = verify(cert, problem.objective)
    payload = {"command": "verify", "report": _report_fields(report)}
    _emit_json(payload, args.output)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_converge(args) -> int:
    problem = _load(args)
    levels = _parse_levels(args.levels)
    if not levels:
        raise InputError("empty level range")
    grid = problem.grid_spec(args.grid)
    reference = grid_min(problem.objective, problem.system, grid)
    f_star = reference.minimum_value
    d = max(problem.objective.degree, 1)
    norm_f = weighted_norm(problem.objective)
    rows = []
    failures = 0
    for level in levels:
        try:
            result = sos.lasserre_bound(problem.objective, problem.system, level)
            bound = result.lower_bound
        except SolverError:
            rows.append((level, "ERROR", repr(f_star), "ERROR", "NA"))
            failures += 1
            continue
        if norm_f > 0:
            gb = bounds_mod.gap_bound(
                bounds_mod.BoundInputs(
                    c=args.c, d=d, n=problem.dimension, norm_f=norm_f,
                    f_star=max(f_star, np.finfo(float).tiny), k=level,
                )
            )
            gap_bound_txt = repr(gb.value) if gb.applicable else "NA"
        else:
            gap_bound_txt = "NA"
        rows.append(
            (
                level,
                repr(bound),
                repr(f_star),
                repr(f_star - bound),
                gap_bound_txt,
            )
        )
    header = ("k", "f_k_star", "grid_f_star", "gap", "gap_bound")
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        _write_text(buf.getvalue(), args.output)
    else:
        payload = {
            "command": "converge",
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _emit_json(payload, args.output)
    return EXIT_SOLVER if failures == len(rows) else EXIT_OK


def cmd_bounds(args) -> int:
    assumptions = None
    if args.input is not None:
        problem = load_problem(args.input)
        grid = problem.grid_spec(args.grid)
        reference = grid_min(problem.objective, problem.system, grid)
        d = args.d if args.d is not None else max(problem.objective.degree, 1)
        n = args.n if args.n is not None else problem.dimension
        norm_f = (
            args.norm_f
            if args.norm_f is not None
            else weighted_norm(problem.objective)
        )
        f_star = args.f_star if args.f_star is not None else reference.minimum_value
        axes = grid_axes(grid.resolved_box(problem.dimension), grid.points_per_axis)
        mask = grid_feasible_mask(problem.system, axes, DEFAULT_FEASIBILITY_TOL)
        inside = bool(mask.any() and feasible_extent(axes, mask) < 1.0)
        assumptions = {"feasible_grid_inside_unit_box": inside}
    else:
        flags = {"--d": args.d, "--n": args.n, "--norm-f": args.norm_f, "--f-star": args.f_star}
        missing = [name for name, val in flags.items() if val is None]
        if missing:
            raise InputError(
                "without --input, bounds requires " + ", ".join(missing)
            )
        d, n, norm_f, f_star = args.d, args.n, args.norm_f, args.f_star
    inputs = bounds_mod.BoundInputs(
        c=args.c, d=d, n=n, norm_f=norm_f, f_star=f_star, k=args.level
    )
    putinar = bounds_mod.putinar_degree_bound(inputs)
    payload: dict = {
        "command": "bounds",
        "inputs": dataclasses.asdict(inputs),
        "schmuedgen_degree_bound": _json_float(
            bounds_mod.schmuedgen_degree_bound(inputs)
        ),
        "putinar_degree_bound": {
            "value": _json_float(putinar.value),
            "saturated": putinar.saturated,
        },
    }
    if args.level is not None:
        payload["gap_bound"] = bounds_mod.gap_bound(inputs).to_dict()
    if assumptions is not None:
        payload["assumptions"] = assumptions
    _emit_json(payload, args.output)
    return EXIT_OK


def cmd_lift(args) -> int:
    problem = _load(args)
    grid = problem.grid_spec(args.grid)
    params = bounds_mod.lifting_parameters(
        problem.objective,
        problem.system,
        c0=args.c0,
        c1=args.c1,
        c2=args.c2,
        grid=grid,
    )
    payload = {"command": "lift", "parameters": params.to_dict()}
    if args.lam is not None:
        # the k actually searched: --k-max cut to the lifting degree cap
        k_max = bounds_mod.lifting_k_max(
            problem.objective, problem.system, args.lam, args.k_max
        )
        # the oracle sweep of lifting_parameters, not a second one
        found = bounds_mod.find_lifting_k(
            problem.objective,
            problem.system,
            args.lam,
            grid=grid,
            k_max=k_max,
            lift_grid=params.lift_grid,
        )
        payload["search"] = {
            "lambda": args.lam,
            "k_max": k_max,
            "empirical_k": found,
            "found": found is not None,
        }
        _emit_json(payload, args.output)
        return EXIT_OK if found is not None else EXIT_INCONCLUSIVE
    _emit_json(payload, args.output)
    return EXIT_OK


def cmd_estimate(args) -> int:
    problem = _load(args)
    grid = problem.grid_spec(args.grid)
    fit = bounds_mod.lojasiewicz_estimate(
        problem.system,
        grid=grid,
        samples=args.samples,
        seed=args.seed,
    )
    payload = {
        "command": "estimate",
        "seed": args.seed,
        "samples_requested": args.samples,
        "fit": fit.to_dict(),
    }
    _emit_json(payload, args.output)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poslab",
        description=(
            "Polynomial optimization laboratory: sums-of-squares certificates, "
            "hierarchy lower bounds, and degree/gap bound calculators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=True):
        p.add_argument("--input", help="problem JSON file")
        p.add_argument("--output", help="output file (default stdout)")
        if grid:
            p.add_argument(
                "--grid", type=int, default=None, metavar="N",
                help="grid points per axis for the oracle",
            )

    p = sub.add_parser("solve", help="hierarchy lower bound f_k* at one level")
    common(p, grid=False)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="membership certificate search at one level")
    common(p, grid=False)
    p.add_argument("--level", type=int, required=True)
    p.add_argument(
        "--mode",
        choices=[sos.QUADRATIC_MODULE, sos.PREORDERING],
        default=sos.QUADRATIC_MODULE,
    )
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "verify", help="check a certificate or a disproof against a problem"
    )
    common(p, grid=False)
    evidence = p.add_mutually_exclusive_group(required=True)
    evidence.add_argument("--certificate", help="certificate JSON file")
    evidence.add_argument(
        "--disproof", help="disproof JSON file (the disproof of a certify output)"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("converge", help="f_k* sweep over a level range (CSV)")
    common(p)
    p.add_argument(
        "--levels", required=True,
        help="comma list '2,4,6' or range 'start:stop[:step]'",
    )
    p.add_argument("--c", type=float, default=1.0, help="gap bound constant")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("bounds", help="degree and gap bound calculators")
    common(p)
    p.add_argument("--c", type=float, default=1.0, help="existential constant")
    p.add_argument("--d", type=int, default=None, help="degree of f")
    p.add_argument("--n", type=int, default=None, help="number of variables")
    p.add_argument("--norm-f", type=float, default=None, dest="norm_f")
    p.add_argument("--f-star", type=float, default=None, dest="f_star")
    p.add_argument("--level", type=int, default=None, help="k for the gap bound")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("lift", help="lifting transform parameters and k search")
    common(p)
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument(
        "--lambda", type=float, default=None, dest="lam",
        help="run the empirical smallest-k search with this coefficient",
    )
    p.add_argument("--k-max", type=int, default=20, dest="k_max")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("estimate", help="constraint-violation exponent fit")
    common(p)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_estimate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state
    between calls and returns a fresh namespace each time."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; normalize to the input-error class
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InfeasibleAtResolutionError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except PoslabError as exc:  # input, capacity, rounding and fit errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
