#!/usr/bin/env python3
"""Self-tests of the benchmark's generator and ground-truth checker.

    python3 perfbench/selftest.py

The checker is exercised on synthetic payloads, one per failure kind, plus a
payload that must pass.  The generator is checked for determinism, for
round-tripping through the problem syntax, for independence from the test
suite, and for containing every input class on two seeds.  Needs numpy and
no program code: the checker is pure.
"""

from __future__ import annotations

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cases as gen  # noqa: E402
import check  # noqa: E402
from check import CallResult  # noqa: E402

INTERVAL = {"n": 1, "objective": "1.0*x1", "constraints": ["-1.0*x1^2 + 1.0"]}
# x1 + 1 = 1/2 (1 + x1)^2 + 1/2 (1 - x1^2): the level-2 bound -1 with its certificate
GOOD_CERT = {
    "mode": "quadratic_module", "n": 1, "generators": ["-x1^2 + 1.0"],
    "entries": [
        {"index": 0, "basis": [[0], [1]], "gram": [[0.5, 0.5], [0.5, 0.5]]},
        {"index": 1, "basis": [[0]], "gram": [[0.5]]},
    ],
}


def solve_case(level=2, group="p"):
    return gen.Case(f"p-k{level}", "solve", "box", "p", ["solve", "--level", str(level)],
                    {"level": level}, group=group)


def solve_payload(bound, cert=GOOD_CERT, iterations=100):
    return {"command": "solve", "lower_bound": bound, "finite": True, "certificate": cert,
            "solver": {"iterations": iterations, "status": "optimal"}}


def certify_case(member):
    return gen.Case("c-qm", "certify", "member" if member else "non-member", "c",
                    ["certify", "--level", "2", "--mode", "quadratic_module"], {"member": member})


def certify_payload(found, cert=GOOD_CERT):
    return {"command": "certify", "found": found, "status": "feasible" if found else
            "infeasible-detected", "certificate": cert if found else None,
            "solver": {"iterations": 50, "status": "feasible"}}


PASSED_VERIFY = CallResult(0, {"command": "verify", "report": {"pass": True}})
TARGET = check.Problem({"n": 1, "objective": "1.0*x1 + 1.0", "constraints": ["-1.0*x1^2 + 1.0"]})


# ----------------------------------------------------------------------
# checker: one synthetic payload per failure kind


def test_good_payloads_pass():
    out = check.check_solve(solve_case(), CallResult(0, solve_payload(-1.0)),
                            check.Problem(INTERVAL), reference=-1.0)
    assert not out.failed, out.details
    assert out.iterations == 100 and out.overshoot == 0.0
    out = check.check_certify(certify_case(True), CallResult(0, certify_payload(True)),
                              PASSED_VERIFY, TARGET)
    assert not out.failed, out.details


def test_raised():
    out = check.check_solve(solve_case(), CallResult(None, None, "RuntimeError: boom"),
                            check.Problem(INTERVAL), -1.0)
    assert out.failures == ["raised"] and out.hard


def test_exit_code():
    out = check.check_solve(solve_case(), CallResult(4, {"solver": {"iterations": 150000}}),
                            check.Problem(INTERVAL), -1.0)
    assert out.failures == ["exit_code"] and not out.hard  # solver failure: inconclusive
    out = check.check_solve(solve_case(), CallResult(1, None), check.Problem(INTERVAL), -1.0)
    assert out.failures == ["exit_code"] and out.hard


def test_verify():
    bad = {**GOOD_CERT, "entries": [{**GOOD_CERT["entries"][0], "gram": [[0.5, 0.4], [0.4, 0.5]]},
                                    GOOD_CERT["entries"][1]]}
    out = check.check_solve(solve_case(), CallResult(0, solve_payload(-1.0, bad)),
                            check.Problem(INTERVAL), -1.0)
    assert out.failures == ["verify"] and out.hard
    indefinite = {**GOOD_CERT, "entries": [GOOD_CERT["entries"][0],
                                           {**GOOD_CERT["entries"][1], "gram": [[-1e-6]]}]}
    out = check.check_certify(certify_case(True), CallResult(0, certify_payload(True, indefinite)),
                              PASSED_VERIFY, TARGET)
    assert "verify" in out.failures
    out = check.check_certify(certify_case(True), CallResult(0, certify_payload(True)),
                              CallResult(3, {"report": {"pass": False}}), TARGET)
    assert out.failures == ["verify"]


def test_non_monotone():
    low, high = solve_case(2), solve_case(4)
    outcomes = {low.id: check.Outcome(low.id, lower_bound=-1.0),
                high.id: check.Outcome(high.id, lower_bound=-1.0 - 2e-6)}
    check.check_sweeps([low, high], outcomes)
    assert outcomes[high.id].failures == ["non_monotone"] and not outcomes[high.id].hard
    outcomes[high.id] = check.Outcome(high.id, lower_bound=-1.0 - 5e-7)
    check.check_sweeps([low, high], outcomes)
    assert not outcomes[high.id].failed


def test_member_not_found():
    out = check.check_certify(certify_case(True), CallResult(2, certify_payload(False)), None, TARGET)
    assert set(out.failures) == {"member_not_found", "exit_code"} and not out.hard


def test_non_member_found():
    out = check.check_certify(certify_case(False), CallResult(0, certify_payload(True)),
                              PASSED_VERIFY, TARGET)
    assert "non_member_found" in out.failures and out.hard


def test_overshoot():
    out = check.check_solve(solve_case(), CallResult(0, solve_payload(-1.0)),
                            check.Problem(INTERVAL), reference=-1.0 - 2e-7)
    assert not out.failed and abs(out.overshoot - 2e-7) < 1e-12  # noise: recorded only
    out = check.check_solve(solve_case(), CallResult(0, solve_payload(-1.0)),
                            check.Problem(INTERVAL), reference=-1.01)
    assert out.failures == ["overshoot"] and out.hard


def test_wrong_value():
    case = gen.Case("o-bounds", "bounds", "box", "o", ["bounds"], {"f_min": 1.0})
    problem = check.Problem({"n": 1, "objective": "1.0*x1^2 + 1.0",
                             "constraints": ["-1.0*x1^2 + 1.0"], "box": [[-1.25, 1.25]]})
    payload = {"inputs": {"c": 1.0, "d": 2, "n": 1, "norm_f": 1.0, "f_star": 2.0},
               "schmuedgen_degree_bound": 12.0,
               "putinar_degree_bound": {"value": 7.38905609893065, "saturated": False},
               "assumptions": {"feasible_grid_inside_unit_box": False}}
    out = check.check_bounds(case, CallResult(0, payload), problem, 101)
    assert "wrong_value" in out.failures and out.hard


def test_nondeterministic():
    case = solve_case()
    outcomes = {case.id: check.Outcome(case.id)}
    check.check_repeats([case], outcomes, [[True], [False]])
    assert outcomes[case.id].failures == ["nondeterministic"]


def test_every_failure_kind_is_tested():
    tested = {"raised", "exit_code", "verify", "non_monotone", "member_not_found",
              "non_member_found", "overshoot", "wrong_value", "nondeterministic"}
    assert tested == set(check.FAILURE_KINDS)


# ----------------------------------------------------------------------
# generator


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in gen.WORKLOADS:
        a, b, c = gen.generate(workload, 7), gen.generate(workload, 7), gen.generate(workload, 8)
        assert a[0] == b[0] and [x.argv for x in a[1]] == [x.argv for x in b[1]]
        assert a[0] != c[0]


def test_every_input_class_on_two_seeds():
    for seed in (1, 2):
        for workload in gen.WORKLOADS:
            problems, case_list = gen.generate(workload, seed)
            classes = {c.klass for c in case_list}
            missing = gen.REQUIRED_CLASSES[workload] - classes
            assert not missing, (workload, seed, missing)
            assert all(c.problem in problems for c in case_list)
        _, certify = gen.generate("certify", seed)
        assert any(c.truth["member"] for c in certify)
        assert any(not c.truth["member"] for c in certify)
        assert {c.argv[-1] for c in certify} == {"quadratic_module", "preordering"}
        defects = {c.truth.get("defect") for c in certify} - {None}
        assert defects == set(gen.KNOWN_DEFECTS)


def test_generator_does_not_use_the_test_suite():
    assert "conftest" not in sys.modules
    assert not any(name.startswith("tests") for name in sys.modules)


def test_problem_text_round_trips():
    for workload in gen.WORKLOADS:
        problems, _ = gen.generate(workload, 3)
        for doc in problems.values():
            n = doc["n"]
            for text in [doc["objective"]] + doc["constraints"]:
                assert gen.poly_str(check.parse_poly(text, n)) == text


def test_negative_targets_are_negative_on_the_set():
    problems, case_list = gen.generate("certify", 5)
    for case in case_list:
        problem = check.Problem(problems[case.problem])
        if case.problem.startswith("negative"):
            # the target is negative somewhere feasible: outside every level
            pts = problem.grid({1: 2001, 2: 201, 3: 41}[problem.n])
            ok = np.ones(len(pts), dtype=bool)
            for g in problem.constraints:
                ok &= gen.poly_eval(g, pts) >= 0
            assert gen.poly_eval(problem.objective, pts[ok]).min() < 0


# ----------------------------------------------------------------------
# declaration


def test_benchmark_json_matches_the_runner():
    import json

    import run
    import spans

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.GUARDED)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in spans.LAYER_METRICS.items()]


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL  {name}: {exc!r}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
