"""Ground-truth outcome checker behind ``failed_frac``.

A case fails when any of these holds (the failure kinds):

    raised            poslab raised out of ``cli.main``
    exit_code         the exit code differs from the one the ground truth implies
    verify            a returned certificate or finite bound fails independent
                      verification (residual <= 1e-6, Gram eigenvalues >= -1e-8)
    non_monotone      a hierarchy sweep drops by more than 1e-6 as the level rises
    member_not_found  a member by construction is reported not found
    non_member_found  a known non-member is reported found
    overshoot         a lower bound exceeds the grid minimum by more than 1e-4
    wrong_value       an oracle output disagrees with the known minimum or with
                      the closed forms it reports
    nondeterministic  a repeated call printed a different payload

Overshoots up to 1e-4 are not failures; they are collected into
``bound_overshoot_max`` so that 1e-7-scale solver noise cannot flip the
failure share.  Verification here is the benchmark's own: certificates are
re-expanded with the dict arithmetic of ``cases`` and measured in the weighted
norm, independently of ``poslab.certificate.verify``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

import cases as gen

RESIDUAL_TOL = 1e-6
PSD_TOL = 1e-8
MONOTONE_TOL = 1e-6
OVERSHOOT_TOL = 1e-4
# The grid oracle's minimum may sit above the true one by the grid error; on
# the oracle problems (smooth, minimizer inside the set) it stays far below
# this relative slack.
F_STAR_RTOL = 1e-3
EXPONENT_RANGE_1D = (0.9, 1.1)
EXP_SATURATION = 700.0  # exp arguments above this are reported saturated

FAILURE_KINDS = (
    "raised", "exit_code", "verify", "non_monotone", "member_not_found",
    "non_member_found", "overshoot", "wrong_value", "nondeterministic",
)
# Inconclusive outcomes the README allows ("not found", a non-monotone sweep
# of numerical bounds): they count as failed cases but leave ``correct`` true.
# An exit_code failure is soft when the exit is 2 (inconclusive) or 4 (solver).
SOFT_KINDS = {"member_not_found", "non_monotone"}
SOFT_EXITS = (2, 4)

_VAR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_poly(text: str, n: int) -> dict:
    """Parse the problem-document polynomial syntax into a term dict."""
    compact = "".join(text.split())
    terms: dict = {}
    for sign, body in re.findall(r"([+-]?)((?:[^+-]|(?<=[eE])[+-])+)", compact):
        coef = -1.0 if sign == "-" else 1.0
        alpha = [0] * n
        for factor in body.split("*"):
            m = _VAR.match(factor)
            if m:
                alpha[int(m.group(1)) - 1] += int(m.group(2) or 1)
            else:
                coef *= float(factor)
        key = tuple(alpha)
        terms[key] = terms.get(key, 0.0) + coef
    return {a: c for a, c in terms.items() if c != 0.0}


@dataclass
class Outcome:
    case_id: str
    failures: list[str] = field(default_factory=list)
    details: list[str] = field(default_factory=list)
    iterations: int = 0
    lower_bound: float | None = None
    overshoot: float | None = None
    hard: bool = False

    def fail(self, kind: str, detail: str, hard: bool | None = None) -> None:
        """Record a failure; a hard one is a wrong answer the program asserted,
        as opposed to an inconclusive one its contract allows."""
        if kind not in self.failures:
            self.failures.append(kind)
        self.details.append(f"{kind}: {detail}")
        self.hard |= kind not in SOFT_KINDS if hard is None else hard

    @property
    def failed(self) -> bool:
        return bool(self.failures)


@dataclass
class CallResult:
    """What one ``cli.main`` call produced."""

    exit: int | None
    payload: dict | None
    raised: str | None = None


def certificate_residual(cert: dict, target: dict, constraints: list[dict]) -> tuple[float, float]:
    """(weighted-norm residual of target - sum sigma_i gen_i, min Gram eigenvalue)."""
    n = int(cert["n"])
    total: dict = {}
    min_eig = 0.0
    for entry in cert["entries"]:
        basis = [tuple(int(e) for e in a) for a in entry["basis"]]
        gram = np.asarray(entry["gram"], dtype=float)
        if gram.size:
            min_eig = min(min_eig, float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[0]))
        if "delta" in entry:
            gen_poly = gen.poly_const(n, 1.0)
            for d, g in zip(entry["delta"], constraints):
                if d:
                    gen_poly = gen.poly_mul(gen_poly, g)
        else:
            i = int(entry["index"])
            gen_poly = gen.poly_const(n, 1.0) if i == 0 else constraints[i - 1]
        total = gen.poly_add(total, gen.poly_mul(gen.gram_poly(basis, gram), gen_poly))
    return gen.weighted_norm(gen.poly_add(target, total, -1.0)), min_eig


def _verify_certificate(out: Outcome, cert: dict | None, target: dict,
                        constraints: list[dict], what: str) -> None:
    if cert is None:
        out.fail("verify", f"{what} came without a certificate")
        return
    residual, min_eig = certificate_residual(cert, target, constraints)
    if not (residual <= RESIDUAL_TOL and min_eig >= -PSD_TOL):
        out.fail("verify", f"{what}: residual {residual:.3e}, min eigenvalue {min_eig:.3e}")


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


class Problem:
    """A problem document with its polynomials parsed back from the text the
    program reads."""

    def __init__(self, doc: dict):
        self.n = int(doc["n"])
        self.objective = parse_poly(doc["objective"], self.n)
        self.constraints = [parse_poly(g, self.n) for g in doc.get("constraints", [])]
        box = doc.get("box")
        self.box = [tuple(b) for b in box] if box else [(-1.0, 1.0)] * self.n

    def grid(self, points_per_axis: int) -> np.ndarray:
        axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in self.box]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


# ----------------------------------------------------------------------
# per command


def check_solve(case, call: CallResult, problem: Problem, reference: float | None) -> Outcome:
    out = Outcome(case.id)
    if call.raised:
        out.fail("raised", call.raised)
        return out
    payload = call.payload or {}
    solver = payload.get("solver") or {}
    out.iterations = int(solver.get("iterations") or 0)
    if call.exit != 0:
        out.fail("exit_code", f"exit {call.exit}, a finite bound exists at level {case.truth['level']}",
                 hard=call.exit not in SOFT_EXITS)
        return out
    lb = payload.get("lower_bound")
    if lb is None:
        out.fail("exit_code", "exit 0 without a finite bound")
        return out
    out.lower_bound = float(lb)
    shifted = gen.poly_add(problem.objective, gen.poly_const(problem.n, out.lower_bound), -1.0)
    _verify_certificate(out, payload.get("certificate"), shifted, problem.constraints,
                        f"bound {out.lower_bound!r}")
    if reference is not None:
        out.overshoot = out.lower_bound - reference
        if out.overshoot > OVERSHOOT_TOL:
            out.fail("overshoot", f"bound {out.lower_bound!r} > grid minimum {reference!r}")
    return out


def check_sweeps(case_list, outcomes: dict) -> None:
    """Mark each level whose bound drops below an earlier level's bound."""
    best: dict = {}
    for case in case_list:
        if case.group is None:
            continue
        out = outcomes[case.id]
        if out.lower_bound is None:
            continue
        prev = best.get(case.group)
        if prev is not None and out.lower_bound < prev[1] - MONOTONE_TOL:
            out.fail("non_monotone", f"bound {out.lower_bound!r} below {prev[1]!r} at {prev[0]}")
        if prev is None or out.lower_bound > prev[1]:
            best[case.group] = (case.id, out.lower_bound)


def check_repeats(case_list, outcomes: dict, repeats: list[list[bool]]) -> None:
    """``repeats`` holds, per repeated pass, whether each case printed exactly
    what it printed in the first pass."""
    for same in repeats:
        for case, ok in zip(case_list, same):
            if not ok:
                outcomes[case.id].fail("nondeterministic", "a repeated call printed another payload")


def check_certify(case, call: CallResult, verify_call: CallResult | None, problem: Problem) -> Outcome:
    out = Outcome(case.id)
    if call.raised:
        out.fail("raised", call.raised)
        return out
    payload = call.payload or {}
    solver = payload.get("solver") or {}
    out.iterations = int(solver.get("iterations") or 0)
    found = bool(payload.get("found"))
    member = bool(case.truth["member"])
    expected_exit = 0 if member else 2
    if call.exit != expected_exit:
        out.fail("exit_code", f"exit {call.exit}, expected {expected_exit}",
                 hard=call.exit not in SOFT_EXITS)
    if member and not found:
        out.fail("member_not_found", f"status {payload.get('status')}: {payload.get('reason')}")
    if not member and found:
        out.fail("non_member_found", "a certificate was reported for a non-member")
    if found:
        _verify_certificate(out, payload.get("certificate"), problem.objective,
                            problem.constraints, "certificate")
        if verify_call is None:
            out.fail("verify", "the certificate was not passed to `poslab verify`")
        elif verify_call.raised:
            out.fail("raised", f"verify: {verify_call.raised}")
        elif verify_call.exit != 0 or not (verify_call.payload or {}).get("report", {}).get("pass"):
            out.fail("verify", f"`poslab verify` exit {verify_call.exit}")
    return out


def check_bounds(case, call: CallResult, problem: Problem, ppa: int) -> Outcome:
    out = Outcome(case.id)
    if call.raised:
        out.fail("raised", call.raised)
        return out
    if call.exit != 0:
        out.fail("exit_code", f"exit {call.exit}, expected 0")
        return out
    payload = call.payload or {}
    inp = payload.get("inputs", {})
    f_min = case.truth["f_min"]
    f_star = float(inp.get("f_star", math.nan))
    if not (f_min - 1e-12 * max(1.0, f_min) <= f_star <= f_min * (1.0 + F_STAR_RTOL)):
        out.fail("wrong_value", f"f_star {f_star!r}, true minimum {f_min!r}")
    d = gen.poly_degree(problem.objective)
    norm_f = gen.weighted_norm(problem.objective)
    if inp.get("d") != d or inp.get("n") != problem.n or not _close(inp.get("norm_f", 0.0), norm_f, 1e-12):
        out.fail("wrong_value", f"inputs {inp} vs d={d}, n={problem.n}, norm_f={norm_f!r}")
    c = float(inp.get("c", 1.0))
    ratio = d**2 * float(problem.n) ** d * norm_f / f_star
    if not _close(payload.get("schmuedgen_degree_bound") or math.inf, c * d**2 * (1 + ratio**c), 1e-9):
        out.fail("wrong_value", f"schmuedgen bound {payload.get('schmuedgen_degree_bound')!r}")
    put = payload.get("putinar_degree_bound", {})
    if ratio**c > EXP_SATURATION:
        ok = put.get("saturated") is True and put.get("value") is None
    else:
        ok = put.get("saturated") is False and _close(put.get("value") or 0.0, c * math.exp(ratio**c), 1e-9)
    if not ok:
        out.fail("wrong_value", f"putinar bound {put}")
    if "--level" in case.argv:
        level = int(case.argv[case.argv.index("--level") + 1])
        arg = (2.0 * d**2 * float(problem.n) ** d) ** c
        gap = payload.get("gap_bound", {})
        if arg > EXP_SATURATION:
            ok = gap.get("threshold_saturated") is True and gap.get("applicable") is False
        else:
            threshold = c * math.exp(arg)
            ok = (_close(gap.get("threshold") or 0.0, threshold, 1e-9)
                  and gap.get("applicable") is (level > threshold))
        if not ok:
            out.fail("wrong_value", f"gap bound {gap}")
    pts = problem.grid(ppa)
    mask = np.ones(pts.shape[0], dtype=bool)
    for g in problem.constraints:
        mask &= gen.poly_eval(g, pts) >= -1e-9
    inside = bool(mask.any() and float(np.max(np.abs(pts[mask]))) < 1.0)
    if payload.get("assumptions", {}).get("feasible_grid_inside_unit_box") is not inside:
        out.fail("wrong_value", f"feasible_grid_inside_unit_box should be {inside}")
    return out


def lifted_minimum(problem: Problem, pts: np.ndarray, lam: float, k: int) -> float:
    """min over the points of f - lam * sum_i (g_i - 1)^(2k) g_i, evaluated
    directly rather than from the expanded polynomial."""
    h = gen.poly_eval(problem.objective, pts)
    for g in problem.constraints:
        gv = gen.poly_eval(g, pts)
        h = h - lam * (gv - 1.0) ** (2 * k) * gv
    return float(np.min(h))


def check_lift(case, call: CallResult, problem: Problem, ppa: int) -> Outcome:
    out = Outcome(case.id)
    if call.raised:
        out.fail("raised", call.raised)
        return out
    payload = call.payload or {}
    pts = problem.grid(ppa)
    f_min = case.truth["f_min"]
    lam, k_max = case.truth["lambda"], case.truth["k_max"]
    # find_lifting_k's target is half the grid minimum, which lies within
    # [f_min, f_min (1 + F_STAR_RTOL)]
    lo, hi = 0.5 * f_min * (1 - 1e-6), 0.5 * f_min * (1 + F_STAR_RTOL)
    mins = [lifted_minimum(problem, pts, lam, k) for k in range(1, k_max + 1)]
    # some k must pass when a lifted minimum clears `hi`, none may when none clears `lo`
    allowed = (0,) if any(m >= hi for m in mins) else (0, 2) if any(m >= lo for m in mins) else (2,)
    if call.exit not in allowed:
        out.fail("exit_code", f"exit {call.exit}, expected one of {allowed}")
        return out
    k = payload.get("search", {}).get("empirical_k")
    if k is not None and (mins[k - 1] < lo or (k > 1 and mins[k - 2] >= hi)):
        out.fail("wrong_value", f"empirical k {k}, lifted minima {mins[:k]}")
    params = payload.get("parameters", {})
    d = gen.poly_degree(problem.objective)
    scale = d**2 * float(problem.n) ** (d - 1) * gen.weighted_norm(problem.objective)
    big_l = float(params.get("L", math.nan))
    implied_f_star = scale / big_l
    if not (f_min * (1 - 1e-9) <= implied_f_star <= f_min * (1 + F_STAR_RTOL)):
        out.fail("wrong_value", f"L {big_l!r} implies f* {implied_f_star!r}, true {f_min!r}")
    c0, c1, c2 = (float(params.get(key, 1.0)) for key in ("c0", "c1", "c2"))
    if not _close(params.get("lambda", math.nan), c1 * scale * big_l**c2, 1e-9):
        out.fail("wrong_value", f"lambda {params.get('lambda')!r} vs L {big_l!r}")
    k_analytic = max(1, math.ceil((c0 * (1.0 + big_l**c0) - 1.0) / 2.0 - 1e-9))
    if params.get("k") != k_analytic:
        out.fail("wrong_value", f"analytic k {params.get('k')}, expected {k_analytic}")
    else:
        h_min = lifted_minimum(problem, pts, float(params["lambda"]), k_analytic)
        if not _close(params.get("empirical_min_h", math.nan), h_min, 1e-6):
            out.fail("wrong_value", f"empirical_min_h {params.get('empirical_min_h')!r} vs {h_min!r}")
    return out


def check_estimate(case, call: CallResult, problem: Problem, ppa: int, samples: int) -> Outcome:
    out = Outcome(case.id)
    if call.raised:
        out.fail("raised", call.raised)
        return out
    if call.exit != 0:
        out.fail("exit_code", f"exit {call.exit}, expected 0")
        return out
    fit = (call.payload or {}).get("fit", {})
    widths = np.array([hi - lo for lo, hi in problem.box])
    dist_error = 0.5 * float(np.linalg.norm(widths / (ppa - 1)))
    if not _close(fit.get("dist_error_bound", math.nan), dist_error, 1e-12):
        out.fail("wrong_value", f"dist_error_bound {fit.get('dist_error_bound')!r} vs {dist_error!r}")
    if not (2 <= fit.get("sample_count", 0) <= samples):
        out.fail("wrong_value", f"sample_count {fit.get('sample_count')}")
    if not (fit.get("c2_exponent", 0.0) > 0.0 and fit.get("c3_scale", 0.0) > 0.0):
        out.fail("wrong_value", f"fit {fit}")
    if not 0.0 <= fit.get("max_violation", -1.0) <= 1e-9:
        out.fail("wrong_value", f"max_violation {fit.get('max_violation')!r}")
    # one variable: the violation of 1 - x^2 grows linearly with the distance
    if problem.n == 1 and not EXPONENT_RANGE_1D[0] <= fit.get("c2_exponent", 0.0) <= EXPONENT_RANGE_1D[1]:
        out.fail("wrong_value", f"exponent {fit.get('c2_exponent')!r} outside {EXPONENT_RANGE_1D}")
    return out
