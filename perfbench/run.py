#!/usr/bin/env python3
"""poslab benchmark: one workload, one seed, a closed loop of CLI cases.

    python3 perfbench/run.py --workload hierarchy --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/poslab`` next to this
directory).  The seed fixes every input.  Set-up writes the generated problem
files under ``.perfbench-work/`` in the checkout; then one caller runs the
fixed case list, each case an in-process ``poslab.cli.main`` call started
after the previous one returned, in whole passes until ``--seconds`` is
spent.  The outputs of the first pass are checked against the generator's
ground truth; every later pass must print exactly the same.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Lines before it give every metric by name and
unit, the failures, and the environment.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("hierarchy", "certify", "oracle")
# One BLAS thread (nproc is 2 on the reference machine): the SDP blocks are at
# most 35x35, too small to gain from threads, and one thread is steadier.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One set-up takes about 0.3 s and swings by up to 25% with the shared host
# from one interpreter to the next; the median of 15 moves by about 3%.
SETUP_REPEATS = 15
TAIL_CASES = 10  # the tail percentile keeps this many cases above it
# End-to-end metrics in the final JSON line: the ones that are never zero on
# any workload.  failed_frac, sdp_iterations and bound_overshoot_max are
# printed above it (they are 0 or undefined on some workloads).
GUARDED = ("setup_s", "cases_per_s", "case_p50_s", "case_tail_s", "peak_rss_mb")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def setup(workload: str, seed: int, directory: str):
    """Import poslab, generate the seeded inputs and write the problem files."""
    import poslab.cli  # noqa: F401  (the import is part of set-up)
    import cases

    problems, case_list = cases.generate(workload, seed)
    os.makedirs(directory, exist_ok=True)
    for name, doc in problems.items():
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return problems, case_list


def measure_setup(args, directory: str) -> list[float]:
    """Wall time of SETUP_REPEATS fresh interpreters that only set up."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", os.path.join(directory, f"setup{i}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(), timeout=120,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return times


# ----------------------------------------------------------------------
# the closed loop


class Runner:
    def __init__(self, directory: str, problems: dict, case_list):
        from poslab import cli

        self.cli = cli
        self.dir = directory
        self.problems = problems
        self.cases = case_list
        self.tracer = None  # a spans.Tracer during traced passes
        self.out_path = os.path.join(directory, "out.json")
        self.cert_path = os.path.join(directory, "cert.json")

    def call(self, argv: list[str]):
        """One cli.main call: (exit code, exception line or None, output text).

        Outputs stay text until checked: parsed payloads are many small
        objects, and keeping them would slow the collector the program's own
        allocations run into."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        err = io.StringIO()
        span = self.tracer.begin("cli") if self.tracer else None
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.main(argv + ["--output", self.out_path])
            raised = None
        except Exception:  # a crash is a failed case, not a failed benchmark
            code, raised = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        finally:
            if span is not None:
                self.tracer.end(span)
        text = ""
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
        return code, raised, text

    def run_case(self, case):
        """The case's calls: (main call, verify call or None, all output text)."""
        problem_path = os.path.join(self.dir, f"{case.problem}.json")
        main_call = self.call(case.argv + ["--input", problem_path])
        verify_call = None
        if case.command == "certify":
            payload = _payload(main_call[2]) or {}
            if payload.get("found") and payload.get("certificate"):
                with open(self.cert_path, "w", encoding="utf-8") as fh:
                    json.dump(payload["certificate"], fh)
                verify_call = self.call(
                    ["verify", "--input", problem_path, "--certificate", self.cert_path])
        return main_call, verify_call, main_call[2] + (verify_call[2] if verify_call else "")

    def run_pass(self, first=None):
        """All cases once, in order: (wall time, latencies, outputs).

        With the outputs of an earlier pass as ``first``, each case's output is
        compared with it as soon as the case ends and only the verdict is kept
        (True: printed the same), so memory does not grow with the passes.
        """
        latencies, outputs = [], []
        t_pass = time.perf_counter()
        for i, case in enumerate(self.cases):
            latency, out = self.timed_case(case)
            latencies.append(latency)
            outputs.append(out if first is None else out[2] == first[i][2])
        return time.perf_counter() - t_pass, latencies, outputs

    def timed_case(self, case):
        if self.tracer:
            self.tracer.case = case.id
            span = self.tracer.begin("case")
        t0 = time.perf_counter()
        out = self.run_case(case)
        latency = time.perf_counter() - t0
        if self.tracer:
            self.tracer.end(span)
        return latency, out


def _payload(text: str):
    try:
        return json.loads(text) if text else None
    except json.JSONDecodeError:
        return None


def _result(call):
    from check import CallResult

    if call is None:
        return None
    code, raised, text = call
    return CallResult(exit=code, payload=_payload(text), raised=raised)


def warm_up(runner: Runner) -> None:
    """Run the first case of each command once, untimed, so that lazy library
    set-up on each code path is not charged to the timed passes."""
    seen = set()
    for case in runner.cases:
        if case.command not in seen:
            seen.add(case.command)
            runner.run_case(case)


# ----------------------------------------------------------------------
# checking


def check_all(runner: Runner, outputs, repeats, references: dict):
    """Outcome of every case from its first-pass output; ``repeats`` are the
    verdicts of the later passes."""
    import check
    from poslab.semialg import default_points_per_axis

    problems = {name: check.Problem(doc) for name, doc in runner.problems.items()}
    outcomes = {}
    for case, (main_call, verify_call, _) in zip(runner.cases, outputs):
        result, verify = _result(main_call), _result(verify_call)
        problem = problems[case.problem]
        ppa = _flag(case.argv, "--grid") or default_points_per_axis(problem.n)
        if case.command == "solve":
            out = check.check_solve(case, result, problem, references.get(case.problem))
        elif case.command == "certify":
            out = check.check_certify(case, result, verify, problem)
        elif case.command == "bounds":
            out = check.check_bounds(case, result, problem, ppa)
        elif case.command == "lift":
            out = check.check_lift(case, result, problem, ppa)
        else:
            out = check.check_estimate(case, result, problem, ppa, _flag(case.argv, "--samples"))
        outcomes[case.id] = out
    check.check_sweeps(runner.cases, outcomes)
    check.check_repeats(runner.cases, outcomes, repeats)
    return outcomes


def _flag(argv: list[str], name: str) -> int | None:
    return int(argv[argv.index(name) + 1]) if name in argv else None


def hierarchy_references(runner: Runner) -> dict:
    """Grid-oracle minimum of each hierarchy problem, computed once."""
    from poslab import semialg
    from poslab.problemio import load_problem

    refs = {}
    for name in sorted({c.problem for c in runner.cases if c.command == "solve"}):
        doc = load_problem(os.path.join(runner.dir, f"{name}.json"))
        refs[name] = semialg.grid_min(doc.objective, doc.system, doc.grid_spec(),
                                      doc.feasibility_tol).minimum_value
    return refs


# ----------------------------------------------------------------------
# reporting


def pass_shares(runner: Runner, first, per_case: list[float]) -> str:
    """Share of the pass time (sum of per-case medians) taken by each pinned
    known-defect case and by all cases that ran into the iteration cap."""
    total = sum(per_case)
    parts = [f"{case.id} {per_case[i] / total:.3f}"
             for i, case in enumerate(runner.cases) if case.truth.get("defect")]
    capped = [i for i, (main_call, _, _) in enumerate(first)
              if ((_payload(main_call[2]) or {}).get("solver") or {}).get("status")
              == "max-iterations"]
    parts.append(f"{len(capped)} cases at the iteration cap "
                 f"{sum(per_case[i] for i in capped) / total:.3f}")
    return "share of pass time: " + ", ".join(parts)


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_CASES above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_CASES:
        return ordered[-1], 100.0
    return ordered[n - TAIL_CASES - 1], 100.0 * (n - TAIL_CASES) / n


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "poslab", "__init__.py")):
        print(f"error: no poslab sources under {SRC}; run from a poslab checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    # numpy reads the thread count at import: the modules of this directory
    # that import numpy are imported only from here on
    sys.path.insert(0, SRC)
    if args.setup_only:
        setup(args.workload, args.seed, args.setup_only)
        return 0

    os.makedirs(WORK, exist_ok=True)
    directory = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return run(args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def run(args, directory: str) -> int:
    setup_times = measure_setup(args, directory)
    t0 = time.perf_counter()
    import poslab.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    problems, case_list = setup(args.workload, args.seed, directory)
    runner = Runner(directory, problems, case_list)
    warm_up(runner)

    import spans as tracing

    tracer = tracing.Tracer() if args.trace else None
    walls, traced_walls, latencies, repeats, layer_runs = [], [], [], [], []
    first = None
    t_start = time.perf_counter()
    while True:
        runner.tracer = None
        wall, lat, out = runner.run_pass(first)
        walls.append(wall)
        latencies.append(lat)
        if first is None:
            first = out
        else:
            repeats.append(out)
        if tracer is not None:
            tracer.install()
            runner.tracer = tracer
            try:
                wall, _, out = runner.run_pass(first)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            repeats.append(out)
            layer_runs.append(tracer.take())
        elapsed = time.perf_counter() - t_start
        if elapsed + (elapsed / len(walls)) / 2 > args.seconds:
            break
    # before the reference oracle and the checker add their own arrays
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the hierarchy's grid-oracle references are traced too; their spans
    # count in every traced pass's layer metrics
    if tracer is not None:
        tracer.install()
    try:
        references = hierarchy_references(runner)
    finally:
        if tracer is not None:
            tracer.uninstall()
    extra_spans = tracer.take() if tracer is not None else []
    outcomes = check_all(runner, first, repeats, references)

    n = len(case_list)
    failed = [o for o in outcomes.values() if o.failed]
    hard = [o for o in failed if o.hard]
    per_case = [statistics.median(lat[i] for lat in latencies) for i in range(n)]
    tail_value, tail_pct = tail(per_case)
    overshoots = [o.overshoot for o in outcomes.values() if o.overshoot is not None]
    env = environment(args.seed)

    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cases_per_s": (n * len(walls) / sum(walls), "1/s"),
        "case_p50_s": (statistics.median(per_case), "s"),
        "case_tail_s": (tail_value, "s"),
        "failed_frac": (len(failed) / n, "frac"),
        "sdp_iterations": (sum(o.iterations for o in outcomes.values()), "count"),
        "bound_overshoot_max": (max(overshoots) if overshoots else None, "value"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {n} cases x {len(walls)} timed passes "
          f"in {sum(walls):.2f} s, closed loop, 1 caller")
    for name, (value, unit) in e2e.items():
        shown = "n/a (no hierarchy bounds)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:22s} {shown}")
    print(f"  case_tail_s is the p{tail_pct:.1f} of {n} per-case medians "
          f"({TAIL_CASES} cases above it)")
    print("  " + pass_shares(runner, first, per_case))
    for o in failed:
        print(f"  FAILED {o.case_id} [{'hard' if o.hard else 'inconclusive'}]: {'; '.join(o.details)}")
    print("environment " + json.dumps(env, sort_keys=True))

    if args.trace:
        per_pass = [tracing.layer_metrics(spans + extra_spans) for spans in layer_runs]
        layers = tracing.median_metrics(per_pass)
        layers["import.busy_s"] = import_s
        layers["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        metrics = {k: {"value": layers[k], "unit": unit}
                   for k, (unit, _) in tracing.LAYER_METRICS.items()}
        for k, m in metrics.items():
            print(f"  {k:38s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in GUARDED}
    print(json.dumps({"correct": not hard, "attempted": n, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
