"""Spans around the calls into each poslab layer, recorded from the outside.

``install`` replaces each public entry point with a timing wrapper on the name
the caller actually resolves: ``cli`` imports ``load_problem``, ``verify``,
``grid_min`` and the certificate codecs by name, ``sos`` imports ``verify`` by
name, and ``bounds`` imports ``grid_min`` by name, so those bindings are
wrapped in the calling modules; calls made through a module attribute
(``sos.lasserre_bound``, ``sdp.solve``, ``bounds_mod.lojasiewicz_estimate``)
are wrapped on the defining module.  ``uninstall`` restores every original.

Spans live in memory as (name, start, end, parent, case, attrs) records and
are aggregated into the per-layer metrics when a pass ends.  A span's self
time is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field

SDP_STATUSES = ("optimal", "feasible", "infeasible-detected", "max-iterations")

# Every per-layer metric: (unit, which direction is better).
LAYER_METRICS = {
    "import.busy_s": ("s", "lower"),
    "problemio.calls": ("count", "lower"),
    "problemio.busy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "sos.calls": ("count", "lower"),
    "sos.self_s": ("s", "lower"),
    "sos.sdp_rows": ("count", "lower"),
    "sos.sdp_svec_dim": ("count", "lower"),
    "sos.dense_a_bytes": ("B", "lower"),
    "sdp.calls": ("count", "lower"),
    "sdp.busy_s": ("s", "lower"),
    "sdp.iterations": ("count", "lower"),
    "sdp.us_per_iteration": ("us", "lower"),
    "sdp.share": ("frac", "lower"),
    "sdp.ok_frac": ("frac", "higher"),
    "sdp.status.optimal": ("count", "higher"),
    "sdp.status.feasible": ("count", "higher"),
    "sdp.status.infeasible-detected": ("count", "lower"),
    "sdp.status.max-iterations": ("count", "lower"),
    "certificate.verify.calls": ("count", "lower"),
    "certificate.verify.busy_s": ("s", "lower"),
    "certificate.verify.pass_frac": ("frac", "higher"),
    "certificate.json.busy_s": ("s", "lower"),
    "semialg.grid_min.calls": ("count", "lower"),
    "semialg.grid_min.busy_s": ("s", "lower"),
    "semialg.grid_min.points": ("count", "lower"),
    "poly.evaluate_many.calls": ("count", "lower"),
    "poly.evaluate_many.busy_s": ("s", "lower"),
    "poly.evaluate_many.point_terms": ("count", "lower"),
    "bounds.lift.busy_s": ("s", "lower"),
    "bounds.estimate.busy_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    case: str | None = None
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.case: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, case=self.case))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, owner, attr: str, name: str, on_call=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            attrs: dict = {}
            try:
                result = original(*args, **kwargs)
                if on_call is not None:
                    attrs = on_call(args, kwargs, result)
                return result
            finally:
                self.end(index, **attrs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        from poslab import bounds, cli, poly, sdp, semialg, sos

        def sdp_attrs(args, kwargs, sol):
            problem = args[0]
            svec = sum(s * (s + 1) // 2 for s in problem.block_sizes)
            rows = len(problem.constraints)
            return {"iterations": sol.iterations, "status": sol.status, "rows": rows,
                    "svec": svec, "dense_a_bytes": rows * svec * 8}

        def grid_attrs(args, kwargs, result):
            system = args[1]
            grid = args[2] if len(args) > 2 else kwargs.get("grid")
            spec = grid or semialg.GridSpec.default_for(system.dimension)
            return {"points": (spec.refinement_rounds + 1) * spec.points_per_axis ** system.dimension}

        def eval_attrs(args, kwargs, result):
            return {"point_terms": len(args[1]) * len(args[0])}

        self._wrap(cli, "load_problem", "problemio")
        for attr in ("lasserre_bound", "module_membership", "preordering_membership"):
            self._wrap(sos, attr, "sos")
        self._wrap(sdp, "solve", "sdp", sdp_attrs)
        for owner in (sos, cli):
            self._wrap(owner, "verify", "certificate.verify",
                       lambda a, k, report: {"passed": bool(report.passed)})
        for attr in ("certificate_to_dict", "certificate_from_dict"):
            self._wrap(cli, attr, "certificate.json")
        for owner in (cli, bounds, semialg):
            self._wrap(owner, "grid_min", "semialg.grid_min", grid_attrs)
        self._wrap(poly.Polynomial, "evaluate_many", "poly.evaluate_many", eval_attrs)
        for attr in ("lifting_parameters", "find_lifting_k"):
            self._wrap(bounds, attr, "bounds.lift")
        self._wrap(bounds, "lojasiewicz_estimate", "bounds.estimate")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# aggregation


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer numbers of one pass (cases plus any reference spans)."""

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.duration for s in named(name))

    case_time = busy("case")
    sdp_spans = named("sdp")
    sdp_busy = busy("sdp")
    iterations = sum(s.attrs.get("iterations", 0) for s in sdp_spans)
    verify_spans = named("certificate.verify")
    out = {
        "problemio.calls": len(named("problemio")),
        "problemio.busy_s": busy("problemio"),
        "cli.self_s": sum(s.self_time for s in named("cli")),
        "sos.calls": len(named("sos")),
        "sos.self_s": sum(s.self_time for s in named("sos")),
        "sos.sdp_rows": max((s.attrs.get("rows", 0) for s in sdp_spans), default=0),
        "sos.sdp_svec_dim": max((s.attrs.get("svec", 0) for s in sdp_spans), default=0),
        "sos.dense_a_bytes": max((s.attrs.get("dense_a_bytes", 0) for s in sdp_spans), default=0),
        "sdp.calls": len(sdp_spans),
        "sdp.busy_s": sdp_busy,
        "sdp.iterations": iterations,
        "sdp.us_per_iteration": 1e6 * sdp_busy / iterations if iterations else 0.0,
        "sdp.share": sdp_busy / case_time if case_time else 0.0,
        "sdp.ok_frac": (sum(s.attrs.get("status") in ("optimal", "feasible") for s in sdp_spans)
                        / len(sdp_spans)) if sdp_spans else 0.0,
    }
    for status in SDP_STATUSES:
        out[f"sdp.status.{status}"] = sum(s.attrs.get("status") == status for s in sdp_spans)
    out.update({
        "certificate.verify.calls": len(verify_spans),
        "certificate.verify.busy_s": busy("certificate.verify"),
        "certificate.verify.pass_frac": (sum(s.attrs.get("passed", False) for s in verify_spans)
                                         / len(verify_spans)) if verify_spans else 0.0,
        "certificate.json.busy_s": busy("certificate.json"),
        "semialg.grid_min.calls": len(named("semialg.grid_min")),
        "semialg.grid_min.busy_s": busy("semialg.grid_min"),
        "semialg.grid_min.points": sum(s.attrs.get("points", 0) for s in named("semialg.grid_min")),
        "poly.evaluate_many.calls": len(named("poly.evaluate_many")),
        "poly.evaluate_many.busy_s": busy("poly.evaluate_many"),
        "poly.evaluate_many.point_terms": sum(s.attrs.get("point_terms", 0)
                                              for s in named("poly.evaluate_many")),
        "bounds.lift.busy_s": busy("bounds.lift"),
        "bounds.estimate.busy_s": busy("bounds.estimate"),
    })
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over the traced passes (counts repeat exactly)."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
