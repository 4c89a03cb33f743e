"""Basic closed semialgebraic sets and the brute-force grid oracles.

A system is a tuple of constraint polynomials (g_1, ..., g_m) in a common
number of variables; the set it carves out is
{x : g_1(x) >= 0, ..., g_m(x) >= 0} (the constant g_0 = 1 is implicit and
never stored).  The grid minimizer below is the independent oracle used
everywhere a "true" minimum is needed; it is exhaustive over feasible grid
points, optionally refined by re-gridding a shrunken box around the
incumbent, and fully deterministic (ties broken by graded order of the grid
index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    DimensionMismatchError,
    InfeasibleAtResolutionError,
    InputError,
)
from .poly import Polynomial, rescale

DEFAULT_FEASIBILITY_TOL = 1e-9
MAX_GRID_POINTS = 1_000_000  # desk scale: the (N, n) point array takes at most 8n MB
MAX_SAMPLES = 1_000_000  # the same for estimate's (samples, n) array of drawn points


@dataclass(frozen=True)
class SemialgebraicSystem:
    dimension: int
    constraints: tuple[Polynomial, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise InputError(f"dimension must be >= 1, got {self.dimension}")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for g in self.constraints:
            if g.dimension != self.dimension:
                raise DimensionMismatchError(
                    f"constraint {g} has dimension {g.dimension}, "
                    f"expected {self.dimension}"
                )

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)


def box_intervals(
    box, error: type[InputError] = InputError
) -> tuple[tuple[float, float], ...]:
    """``box`` as (lo, hi) float pairs; ``error`` naming the first pair that
    is not a finite interval with lo < hi."""
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    for lo, hi in box:
        if not -np.inf < lo < hi < np.inf:  # NaN fails it too
            raise error(f"invalid box interval [{lo}, {hi}]")
    return box


def default_points_per_axis(dimension: int) -> int:
    """Desk-scale default: ~10^4..10^6 evaluations per sweep."""
    if dimension <= 2:
        return 101
    if dimension == 3:
        return 21
    return 7


@dataclass(frozen=True)
class GridSpec:
    """Regular grid over a box, with optional refinement rounds.

    Each refinement round re-grids a box shrunk by factor
    2 / points_per_axis around the incumbent (clipped to the original box),
    i.e. roughly two grid cells wide.
    """

    points_per_axis: int
    box: tuple[tuple[float, float], ...] | None = None
    refinement_rounds: int = 3

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise InputError("points_per_axis must be >= 2")
        if self.refinement_rounds < 0:
            raise InputError("refinement_rounds must be >= 0")
        if self.box is not None:
            object.__setattr__(self, "box", box_intervals(self.box))

    @classmethod
    def default_for(cls, dimension: int) -> "GridSpec":
        return cls(points_per_axis=default_points_per_axis(dimension))

    def resolved_box(self, dimension: int) -> tuple[tuple[float, float], ...]:
        if self.box is None:
            return ((-1.0, 1.0),) * dimension
        if len(self.box) != dimension:
            raise DimensionMismatchError(
                f"box has {len(self.box)} axes, expected {dimension}"
            )
        return self.box


@dataclass(frozen=True)
class MinimizationResult:
    minimum_value: float
    argmin: tuple[float, ...]
    feasible_count: int


def contains(
    system: SemialgebraicSystem,
    point,
    tol: float = DEFAULT_FEASIBILITY_TOL,
) -> bool:
    """True iff every constraint satisfies g_i(point) >= -tol."""
    if tol < 0:
        raise InputError("tolerance must be nonnegative")
    x = [float(v) for v in point]
    if len(x) != system.dimension:
        raise DimensionMismatchError(
            f"point has length {len(x)}, expected {system.dimension}"
        )
    return all(g.evaluate(x) >= -tol for g in system.constraints)


def grid_axes(
    box: tuple[tuple[float, float], ...], points_per_axis: int
) -> tuple[np.ndarray, ...]:
    """The coordinates of the grid along each axis, ``points_per_axis``
    evenly spaced values from lo to hi.

    Raises CapacityError, before anything is allocated, when the grid has
    more than ``MAX_GRID_POINTS`` points."""
    count = int(points_per_axis) ** len(box)
    if count > MAX_GRID_POINTS:
        raise CapacityError(
            f"a grid of {points_per_axis}^{len(box)} points exceeds the cap of "
            f"{MAX_GRID_POINTS} points"
        )
    return tuple(np.linspace(lo, hi, points_per_axis) for lo, hi in box)


def grid_points(
    box: tuple[tuple[float, float], ...], points_per_axis: int
) -> np.ndarray:
    """All grid points as an (N, n) array, rows in lexicographic index order.

    Raises CapacityError like ``grid_axes``."""
    mesh = np.meshgrid(*grid_axes(box, points_per_axis), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def feasible_mask(
    system: SemialgebraicSystem, pts: np.ndarray, tol: float
) -> np.ndarray:
    mask = np.ones(pts.shape[0], dtype=bool)
    for g in system.constraints:
        mask &= g.evaluate_many(pts) >= -tol
    return mask


def grid_feasible_mask(
    system: SemialgebraicSystem, axes: tuple[np.ndarray, ...], tol: float
) -> np.ndarray:
    """``feasible_mask`` on the points of the grid of ``axes``, evaluated
    per axis (``Polynomial.evaluate_grid``): the same flat mask, in the same
    row order, without the point array."""
    mask = np.ones(math.prod(len(axis) for axis in axes), dtype=bool)
    for g in system.constraints:
        mask &= g.evaluate_grid(axes) >= -tol
    return mask


def feasible_extent(axes: tuple[np.ndarray, ...], mask: np.ndarray) -> float:
    """The largest |x_i| over the grid points of ``axes`` that ``mask``
    flags, and over every i: ``max(abs(grid_points(...)[mask]))`` from the
    axes.  ``mask`` must flag at least one point."""
    index = np.unravel_index(np.flatnonzero(mask), tuple(len(axis) for axis in axes))
    return max(float(np.max(np.abs(axis[i]))) for axis, i in zip(axes, index))


def _best_on_grid(
    values: np.ndarray, mask: np.ndarray, shape: tuple[int, ...]
) -> tuple[float, tuple[int, ...]]:
    """Minimum over masked entries (``mask`` flags at least one); exact-value
    ties resolved by the graded order (sum of index coordinates, then the
    index tuple, which orders as the flat index does)."""
    idx = np.flatnonzero(mask)
    vals = values[idx]
    vmin = float(vals.min())
    ties = idx[vals == vmin]  # ascending, so argmin keeps the least index tuple
    best = ties[np.argmin(np.sum(np.unravel_index(ties, shape), axis=0))]
    return vmin, tuple(int(v) for v in np.unravel_index(best, shape))


def grid_min(
    f: Polynomial,
    system: SemialgebraicSystem,
    grid: GridSpec | None = None,
    feasibility_tol: float = DEFAULT_FEASIBILITY_TOL,
) -> MinimizationResult:
    """Exhaustive minimization of f over the feasible grid points.

    Each round evaluates the constraints and f per axis
    (``Polynomial.evaluate_grid``): powers on the ``points_per_axis`` axis
    values, terms by broadcasting, bit-identical to ``evaluate_many`` on
    the grid's points, which are never built.

    Raises InfeasibleAtResolutionError when the initial sweep finds no
    feasible point; that outcome says nothing about the set being empty.
    Raises InputError when the minimum over a round's feasible points is
    not finite (f overflows the float range there).  Refinement never loses
    the incumbent, so the reported minimum is monotone in the number of
    rounds.  ``feasible_count`` totals the feasible grid points seen across
    all rounds.
    """
    if f.dimension != system.dimension:
        raise DimensionMismatchError(
            f"objective dimension {f.dimension} != system dimension "
            f"{system.dimension}"
        )
    spec = grid or GridSpec.default_for(system.dimension)
    box = spec.resolved_box(system.dimension)
    ppa = spec.points_per_axis
    shape = (ppa,) * system.dimension

    best_value = np.inf
    best_point: tuple[float, ...] | None = None
    feasible_count = 0
    outer_box = box

    for _ in range(spec.refinement_rounds + 1):
        axes = grid_axes(box, ppa)
        mask = grid_feasible_mask(system, axes, feasibility_tol)
        feasible_count += int(mask.sum())
        if mask.any():
            vmin, multi = _best_on_grid(f.evaluate_grid(axes), mask, shape)
            if not math.isfinite(vmin):
                raise InputError(
                    f"the objective's minimum over the feasible grid points is "
                    f"{vmin}: it overflows the float range on the box"
                )
            if vmin < best_value:
                best_value = vmin
                best_point = tuple(float(axes[i][multi[i]]) for i in range(len(axes)))
        elif best_point is None:
            raise InfeasibleAtResolutionError(
                f"no feasible grid point at {ppa} points per axis "
                "(not a proof of emptiness)"
            )
        # shrink around the incumbent, clipped to the original box
        new_box = []
        for i, (lo, hi) in enumerate(box):
            width = (hi - lo) * (2.0 / ppa)
            ctr = best_point[i]
            nlo = max(outer_box[i][0], ctr - width / 2.0)
            nhi = min(outer_box[i][1], ctr + width / 2.0)
            if not nlo < nhi:
                nlo, nhi = outer_box[i]
            new_box.append((nlo, nhi))
        box = tuple(new_box)

    return MinimizationResult(
        minimum_value=best_value,
        argmin=best_point,
        feasible_count=feasible_count,
    )


def rescale_system(system: SemialgebraicSystem, r: float) -> SemialgebraicSystem:
    """Substitute x -> r x in every constraint: x in S(g(rX)) iff r x in S(g)."""
    if r <= 0:
        raise InputError(f"rescale factor must be positive, got {r}")
    return SemialgebraicSystem(
        system.dimension, tuple(rescale(g, r) for g in system.constraints)
    )


def ball_gap_polynomial(dimension: int, bound: float) -> Polynomial:
    """bound - (x1^2 + ... + xn^2), the target of the archimedean search."""
    terms = {(0,) * dimension: float(bound)}
    for i in range(dimension):
        alpha = [0] * dimension
        alpha[i] = 2
        terms[tuple(alpha)] = -1.0
    return Polynomial(dimension, terms)

