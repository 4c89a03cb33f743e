"""Closed-form degree/gap bounds, the lifting transform, and empirical fits.

The degree bounds for preordering and quadratic-module representations of a
polynomial f positive on a set inside the open unit box both depend on an
existential constant c that no formula pins down; it is therefore a user
input here (default 1.0) and every report echoes it.  With degree d,
dimension n, coefficient norm ``norm_f`` and minimum ``f_star`` > 0:

    preordering (Schmuedgen-type):      c d^2 (1 + (d^2 n^d norm_f/f_star)^c)
    quadratic module (Putinar-type):    c exp((d^2 n^d norm_f/f_star)^c)

and the hierarchy gap at level k > c exp((2 d^2 n^d)^c) is at most

    6 d^3 n^(2d) norm_f / log(k/c)^(1/c).

The lifting transform h = f - lam * sum_i (g_i - 1)^(2k) g_i dominates f
nowhere above it on the feasible set (each subtracted term is nonnegative
where 0 <= g_i <= 1) yet is uniformly positive on the whole box once k is
large enough; this module computes the analytic parameters (L, lam, k) and
probes the smallest working k on a grid.  Both evaluate h pointwise: f and
each g_i are evaluated once on the grid and h is formed from those values,
never expanded; ``lifting_transform`` gives the expanded h for other uses.
The parameters carry that grid data (``LiftGrid``) so that the search on
the same problem and grid does not sweep again.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    DegenerateFitError,
    InfeasibleAtResolutionError,
    InputError,
)
from .poly import Polynomial, weighted_norm
from .semialg import (
    DEFAULT_FEASIBILITY_TOL,
    MAX_SAMPLES,
    GridSpec,
    SemialgebraicSystem,
    feasible_extent,
    grid_axes,
    grid_feasible_mask,
    grid_min,
    grid_points,
)

EXP_SATURATION = 700.0  # exp argument beyond which float64 overflows
LIFT_DEGREE_CAP = 60
LIFT_TERM_CAP = 200_000
ENVELOPE_BINS = 12  # log-distance bins of the Lojasiewicz lower envelope
CONTAINMENT_MARGIN = 1e-9  # how far inside the unit box a rounded cube needs S
DISTANCE_CHUNK_ENTRIES = 1 << 18  # entries of one chunk's sample-by-point matrices
CONSTRAINT_ONE_SLACK = 1e-12  # how far above 1 find_lifting_k lets a g_i reach


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the degree/gap bound formulas.

    ``c`` is the existential constant of the bound theorems (user supplied);
    ``k`` is only consulted by the gap bound.
    """

    c: float
    d: int
    n: int
    norm_f: float
    f_star: float
    k: int | None = None

    def __post_init__(self):
        # each check is negated ("not x > 0") so that NaN fails it too
        if not self.c > 0:
            raise InputError(f"constant c must be positive, got {self.c}")
        if not self.d >= 1:
            raise InputError(f"degree must be >= 1, got {self.d}")
        if not self.n >= 1:
            raise InputError(f"dimension must be >= 1, got {self.n}")
        if not self.norm_f > 0:
            raise InputError(f"norm must be positive, got {self.norm_f}")
        if not self.f_star > 0:
            raise InputError(f"minimum must be positive, got {self.f_star}")

    def ratio(self) -> float:
        """d^2 n^d ||f|| / f*, the closeness-to-a-zero measure."""
        return self.d**2 * float(self.n) ** self.d * self.norm_f / self.f_star


@dataclass(frozen=True)
class DegreeBound:
    value: float
    saturated: bool = False


@dataclass(frozen=True)
class GapBound:
    """Gap bound value, or not-applicable below the validity threshold."""

    value: float | None
    applicable: bool
    threshold: float
    threshold_saturated: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def schmuedgen_degree_bound(inputs: BoundInputs) -> float:
    """c d^2 (1 + ratio^c); the preordering-side degree bound."""
    try:
        inner = inputs.ratio() ** inputs.c
    except OverflowError:
        return math.inf
    return inputs.c * inputs.d**2 * (1.0 + inner)


def putinar_degree_bound(inputs: BoundInputs) -> DegreeBound:
    """c exp(ratio^c); saturates to +inf when the exponent exceeds ~700."""
    try:
        arg = inputs.ratio() ** inputs.c
    except OverflowError:
        return DegreeBound(math.inf, saturated=True)
    if arg > EXP_SATURATION:
        return DegreeBound(math.inf, saturated=True)
    return DegreeBound(inputs.c * math.exp(arg), saturated=False)


def gap_bound(inputs: BoundInputs) -> GapBound:
    """6 d^3 n^(2d) ||f|| / log(k/c)^(1/c) for k above the validity threshold.

    Below the threshold k <= c exp((2 d^2 n^d)^c) nothing is asserted and a
    tagged not-applicable result is returned instead of an extrapolation.
    """
    if inputs.k is None:
        raise InputError("gap_bound requires the level k")
    try:
        arg = (2.0 * inputs.d**2 * float(inputs.n) ** inputs.d) ** inputs.c
    except OverflowError:
        return GapBound(None, False, math.inf, threshold_saturated=True)
    if arg > EXP_SATURATION:
        return GapBound(None, False, math.inf, threshold_saturated=True)
    threshold = inputs.c * math.exp(arg)
    if not inputs.k > threshold:
        return GapBound(None, False, threshold)
    numerator = 6.0 * inputs.d**3 * float(inputs.n) ** (2 * inputs.d) * inputs.norm_f
    value = numerator / math.log(inputs.k / inputs.c) ** (1.0 / inputs.c)
    return GapBound(value, True, threshold)


# ----------------------------------------------------------------------
# lifting transform


@dataclass(frozen=True, eq=False)
class LiftGrid:
    """What the lifting functions read from the grid oracle: its minimum
    f* > 0 and the values of f and of each g_i on the grid, each in its own
    shape from ``Polynomial.evaluate_grid`` (length 1 on the axes of the
    variables it does not use; they broadcast to the grid), with the grid's
    axes."""

    f_star: float
    f_values: np.ndarray
    g_values: tuple[np.ndarray, ...]
    axes: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class LiftingParameters:
    """Analytic lifting data L, lam, k plus the observed grid minimum of h.

    ``lift_grid`` is the oracle sweep they were computed from, for
    ``find_lifting_k`` on the same problem and grid; it is not part of the
    reported data."""

    L: float
    lam: float
    k: int
    c0: float
    c1: float
    c2: float
    empirical_min_h: float
    lift_grid: LiftGrid | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "L": self.L,
            "lambda": self.lam,
            "k": self.k,
            "c0": self.c0,
            "c1": self.c1,
            "c2": self.c2,
            "empirical_min_h": self.empirical_min_h,
        }


def _lifted_degree(f: Polynomial, system: SemialgebraicSystem, k: int) -> int:
    """Degree that lifting_transform(f, system, lam, k) expands to, lam != 0."""
    return max([f.degree] + [(2 * k + 1) * g.degree for g in system.constraints])


def lifting_k_max(
    f: Polynomial, system: SemialgebraicSystem, lam: float, k_max: int
) -> int:
    """The largest k <= k_max whose lifted degree fits ``LIFT_DEGREE_CAP``.

    k_max itself when lam == 0 (nothing is expanded), every k fits or k_max
    <= 1; a cut never goes below 1, so a problem that does not fit even at
    k = 1 still reaches lifting_transform's CapacityError."""
    while (
        lam != 0.0
        and k_max > 1
        and _lifted_degree(f, system, k_max) > LIFT_DEGREE_CAP
    ):
        k_max -= 1
    return k_max


def _check_lift(
    f: Polynomial, system: SemialgebraicSystem, lam: float, k: int
) -> None:
    """The argument checks and the degree cap of lifting h at (lam, k)."""
    if not 0 <= lam < math.inf:  # NaN fails it too
        raise InputError(f"lam must be finite and >= 0, got {lam}")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if f.dimension != system.dimension:
        raise InputError("objective and system dimensions differ")
    if lam != 0.0:
        degree = _lifted_degree(f, system, k)
        if degree > LIFT_DEGREE_CAP:
            raise CapacityError(
                f"lifted polynomial would have degree {degree} > cap {LIFT_DEGREE_CAP}"
            )


def lifting_transform(
    f: Polynomial, system: SemialgebraicSystem, lam: float, k: int
) -> Polynomial:
    """h = f - lam * sum_i (g_i - 1)^(2k) g_i, expanded exactly."""
    _check_lift(f, system, lam, k)
    h = f
    if lam == 0.0:
        return h  # nothing gets expanded
    one = Polynomial.constant(f.dimension, 1.0)
    for g in system.constraints:
        term = (g - one).power(2 * k) * g
        h = h - term.scale(lam)
        if len(h) > LIFT_TERM_CAP:
            raise CapacityError(f"lifted polynomial exceeds {LIFT_TERM_CAP} terms")
    return h


def _lifted_minimum(
    f: Polynomial,
    system: SemialgebraicSystem,
    lam: float,
    k: int,
    f_vals: np.ndarray,
    g_vals: list[np.ndarray],
) -> float:
    """min of h = f - lam * sum_i (g_i - 1)^(2k) g_i over the grid points at
    which f and the g_i took the values ``f_vals`` and ``g_vals``, each in
    its ``evaluate_grid`` shape.

    h is evaluated pointwise, never expanded, after the checks of
    ``lifting_transform`` (all but its term cap).  Each penalty is computed
    in its g_i's own shape (on ``points_per_axis`` values for a constraint
    in one variable), and h is formed by broadcasting: every grid value
    goes through the same operations as on the full grid."""
    _check_lift(f, system, lam, k)
    h = f_vals
    if lam != 0.0:
        # a huge lam overflows the penalty to +-inf, the limit h tends to
        with np.errstate(over="ignore"):
            for gv in g_vals:
                h = h - lam * ((gv - 1.0) ** (2 * k) * gv)
    return float(np.min(h))


def _check_constraints_at_most_one(
    system: SemialgebraicSystem,
    axes: tuple[np.ndarray, ...],
    g_vals: tuple[np.ndarray, ...],
) -> None:
    # the first maximum in the row order of g_i's own shape; index 0 on an
    # axis it does not use, so the first maximal grid point in row order
    for i, (g, vals) in enumerate(zip(system.constraints, g_vals)):
        worst = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[worst] > 1.0 + CONSTRAINT_ONE_SLACK:
            point = tuple(float(axis[j]) for axis, j in zip(axes, worst))
            raise InputError(
                f"constraint g{i + 1} = {g} exceeds 1 on the box: "
                f"value {vals[worst]} at {point}"
            )


def _lift_grid(
    f: Polynomial,
    system: SemialgebraicSystem,
    grid: GridSpec | None,
    at_most_one: bool,
) -> LiftGrid:
    """One grid-oracle sweep for the lifting functions: f* and the values of
    f and of each g_i, evaluated per axis.

    InputError when f* is not positive.  With ``at_most_one``, each g_i is
    first checked to stay <= 1 on the grid, before the oracle runs.
    """
    spec = grid or GridSpec.default_for(system.dimension)
    axes = grid_axes(spec.resolved_box(system.dimension), spec.points_per_axis)
    g_vals = tuple(g.evaluate_grid(axes) for g in system.constraints)
    if at_most_one:
        _check_constraints_at_most_one(system, axes, g_vals)
    f_star = grid_min(f, system, spec).minimum_value
    if f_star <= 0:
        raise InputError(
            f"grid minimum {f_star} is not positive; the lifting lemma "
            "needs f > 0 on the feasible set"
        )
    return LiftGrid(f_star, f.evaluate_grid(axes), g_vals, axes)


def find_lifting_k(
    f: Polynomial,
    system: SemialgebraicSystem,
    lam: float,
    grid: GridSpec | None = None,
    k_max: int = 20,
    lift_grid: LiftGrid | None = None,
) -> int | None:
    """Smallest k <= k_max with min h >= f*/2 (1 - 1e-6) over the grid box.

    f* comes from the grid oracle and must be positive; each g_i must stay
    <= 1 on the box (checked on the grid).  ``lift_grid``, the
    ``LiftingParameters.lift_grid`` of the same f, system and grid, stands
    in for the oracle sweep, so a caller that needs both runs it once.  The
    search stops early at ``lifting_k_max``, the largest k whose lifted
    degree fits ``LIFT_DEGREE_CAP``.  None when no k tried works; InputError
    when k_max < 1, as no k would be tried.
    """
    if k_max < 1:
        raise InputError(f"k_max must be >= 1, got {k_max}")
    if lift_grid is None:
        lift_grid = _lift_grid(f, system, grid, at_most_one=True)
    else:
        _check_constraints_at_most_one(system, lift_grid.axes, lift_grid.g_values)
    target = 0.5 * lift_grid.f_star * (1.0 - 1e-6)
    f_vals, g_vals = lift_grid.f_values, lift_grid.g_values
    for k in range(1, lifting_k_max(f, system, lam, k_max) + 1):
        if _lifted_minimum(f, system, lam, k, f_vals, g_vals) >= target:
            return k
    return None


def lifting_parameters(
    f: Polynomial,
    system: SemialgebraicSystem,
    c0: float = 1.0,
    c1: float = 1.0,
    c2: float = 1.0,
    grid: GridSpec | None = None,
) -> LiftingParameters:
    """L = d^2 n^(d-1) ||f||/f*, lam = c1 d^2 n^(d-1) ||f|| L^c2, and the
    smallest k with 2k+1 >= c0 (1 + L^c0), plus the observed min of h."""
    for name, value in (("c0", c0), ("c1", c1), ("c2", c2)):
        if not 0 < value < math.inf:  # NaN fails it too
            raise InputError(
                f"lifting constant {name} must be finite and positive, got {value}"
            )
    d = f.degree
    if d < 1:
        raise InputError("lifting parameters need a nonconstant objective")
    lift_grid = _lift_grid(f, system, grid, at_most_one=False)
    f_star, f_vals, g_vals = lift_grid.f_star, lift_grid.f_values, lift_grid.g_values
    n = float(f.dimension)
    norm_f = weighted_norm(f)
    big_l = d**2 * n ** (d - 1) * norm_f / f_star
    try:
        lam = c1 * d**2 * n ** (d - 1) * norm_f * big_l**c2
    except OverflowError:
        lam = math.inf
    if not math.isfinite(lam):
        raise InputError(
            f"lambda = c1 d^2 n^(d-1) ||f|| L^c2 overflows at L = {big_l}, "
            f"c1 = {c1}, c2 = {c2}"
        )
    try:
        k_real = (c0 * (1.0 + big_l**c0) - 1.0) / 2.0 - 1e-9
    except OverflowError:
        k_real = math.inf
    if not math.isfinite(k_real):
        raise CapacityError(
            f"the lifting level k from c0 (1 + L^c0) overflows at c0 = {c0}"
        )
    k = max(1, math.ceil(k_real))
    empirical = _lifted_minimum(f, system, lam, k, f_vals, g_vals)
    if not math.isfinite(empirical):
        raise InputError(
            f"the lifted polynomial overflows on the grid (min h = {empirical}) "
            f"at lambda = {lam}"
        )
    return LiftingParameters(
        L=big_l, lam=lam, k=k, c0=c0, c1=c1, c2=c2, empirical_min_h=empirical,
        lift_grid=lift_grid,
    )


# ----------------------------------------------------------------------
# constraint-violation exponent (Lojasiewicz-type fit)


@dataclass(frozen=True)
class LojasiewiczFit:
    """Fitted exponent/scale for dist(x, S)^c2 <= -c3 min{g_i(x), 0}.

    ``c3_scale`` is inflated so the inequality holds with max_violation = 0
    on the sample set; ``dist_error_bound`` records the grid approximation
    error of the distance (half a cell diagonal).
    """

    c2_exponent: float
    c3_scale: float
    sample_count: int
    max_violation: float
    dist_error_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


def _feasible_distances(
    xs: np.ndarray,
    pts: np.ndarray,
    mask: np.ndarray,
    points_per_axis: int,
    box: tuple[tuple[float, float], ...],
) -> np.ndarray:
    """Distance from each row of ``xs`` to the nearest feasible grid point.

    ``pts`` is ``grid_points(box, points_per_axis)`` and ``mask`` flags its
    feasible rows.  A sample is compared with two sets of feasible points
    only: the boundary ones (with an infeasible neighbour along some axis)
    and those among the 3^n grid points around the sample's rounded grid
    index.  Nothing nearer is missed.  Suppose a nearest feasible point p is
    in neither set.  Then every axis neighbour of p is feasible, and on some
    axis i the index of p is two or more steps from the rounded index, so
    x_i lies more than a cell beyond p_i.  The neighbour q of p toward x on
    that axis has |x_i - q_i| < |x_i - p_i| and the same other coordinates;
    rounding is monotone, so its computed distance is no larger and q is a
    nearest point too.  Such steps approach the sample's cell and end in one
    of the two sets.

    The near set only ever adds interior feasible points: a boundary one is
    in the other set already.  So a sample needs it only when its rounded
    index lies within one step on every axis (Chebyshev distance 1) of an
    interior feasible point; that region is the interior mask dilated by one
    step along each axis in turn.  Any other sample gets its nearest point
    from the boundary set alone, and skips the 3^n near points.

    Every distance that counts is computed with the reference expression
    D(x, p) = sum((x - p) ** 2), the same as a sweep over all feasible
    points, and a minimum of floats is exact, so the result is bit-identical
    to that sweep.  The 3^n near points are few and all get D.  The
    boundary points are first screened, one matrix product per chunk of
    samples, and D is computed only for the pairs the screen keeps:

    - Screen.  With c the box centre, x~ = x - c and b~ = b - c in floating
      point, and R = max |b~| over the boundary, the screen value is
      E = [x~, 1] . [-2 b~, |b~|^2], which is |x~ - b~|^2 - |x~|^2; the
      |x~|^2 it leaves out is the same for every pair of a row.  Let
      S = (|x~| + R)^2, u = eps / 2 and g_k = k u / (1 - k u).  Against the
      exact |x~ - b~|^2 - |x~|^2, E errs by at most g_(2n+1) S (an (n+1)-term
      dot product, one of whose inputs carries g_n from |b~|^2); the
      rounding of the shift by c moves x~ - b~ off x - b by at most
      u (|x~| + |b~|) and so the square by about 2u S; and D errs from
      |x - b|^2 by at most g_(n+2) S (a rounded difference, its square, and
      a sum of n terms).  So for two boundary points of one row the
      difference of E and the difference of D differ by at most
      2 (g_(2n+1) + g_(n+2) + 2u) S, about (3n + 5) eps S.  A point that
      minimises D therefore has E within that of the row's least E, and the
      screen keeps every pair with E <= min E + 4 (n + 3) eps S, which is
      1.3 to 2 times as much.
    - Confirm.  The kept pairs get D, reduced into the row minima with
      ``np.minimum.at``.  A row whose screen is NaN keeps every pair.

    Both searches go in chunks of samples: as many rows as keep the near
    search's four rows x 3^n x n temporaries together, or the screen's
    rows x boundary matrix, within ``DISTANCE_CHUNK_ENTRIES``, so the
    temporaries do not grow with the boundary.  Off exact ties a row
    keeps one or a few pairs; in the worst case, when the slack admits every
    pair, the confirm does the sweep's work and no more.
    """
    n = pts.shape[1]
    shape = (points_per_axis,) * n
    # per axis, the grid without its last and without its first layer
    heads = [tuple(slice(None, -1 if j == i else None) for j in range(n))
             for i in range(n)]
    tails = [tuple(slice(1 if j == i else None, None) for j in range(n))
             for i in range(n)]
    grid_mask = mask.reshape(shape)
    interior = grid_mask.copy()
    for head, tail in zip(heads, tails):
        interior[tail] &= grid_mask[head]
        interior[head] &= grid_mask[tail]
    beside_interior = interior.copy()
    for head, tail in zip(heads, tails):
        # in place: the second pass reads the first's result, which makes
        # the two a dilation by one step in both directions
        beside_interior[tail] |= beside_interior[head]
        beside_interior[head] |= beside_interior[tail]
    boundary = pts[(grid_mask & ~interior).reshape(-1)]

    lo = np.array([b[0] for b in box])
    cell = np.array([hi - lo for lo, hi in box]) / (points_per_axis - 1)
    nearest = np.clip(np.rint((xs - lo) / cell), 0, points_per_axis - 1).astype(np.intp)
    nearest_flat = np.ravel_multi_index(tuple(nearest.T), shape, mode="clip")
    offsets = np.indices((3,) * n).reshape(n, -1).T - 1  # (3^n, n)

    d2 = np.full(xs.shape[0], np.inf)
    near_rows = np.flatnonzero(beside_interior.reshape(-1)[nearest_flat])
    chunk = max(1, DISTANCE_CHUNK_ENTRIES // (4 * offsets.size))  # 4 arrays live at once
    for start in range(0, len(near_rows), chunk):
        rows = near_rows[start : start + chunk]
        idx = nearest[rows, None, :] + offsets[None, :, :]
        on_grid = np.all((idx >= 0) & (idx < points_per_axis), axis=2)
        flat = np.ravel_multi_index(tuple(np.moveaxis(idx, 2, 0)), shape, mode="clip")
        d2_near = np.sum((xs[rows, None, :] - pts[flat]) ** 2, axis=2)
        d2_near[~(on_grid & mask[flat])] = np.inf
        d2[rows] = d2_near.min(axis=1)

    if len(boundary):
        centre = np.array([0.5 * (lo + hi) for lo, hi in box])
        edge = boundary - centre
        edge_sq = np.sum(edge**2, axis=1)
        weights = np.vstack([-2.0 * edge.T, edge_sq])  # (n + 1, boundary)
        shifted = xs - centre
        augmented = np.column_stack([shifted, np.ones(xs.shape[0])])
        scale = (np.linalg.norm(shifted, axis=1) + math.sqrt(edge_sq.max())) ** 2
        slack = 4 * (n + 3) * np.finfo(float).eps * scale
        chunk = max(1, DISTANCE_CHUNK_ENTRIES // len(boundary))
        for start in range(0, xs.shape[0], chunk):
            stop = start + chunk
            screen = augmented[start:stop] @ weights
            limit = screen.min(axis=1) + slack[start:stop]
            # "not above" rather than "at most": a NaN row confirms every pair
            kept = np.flatnonzero(~(screen > limit[:, None]))
            rows, cols = np.divmod(kept, len(boundary))
            rows += start
            np.minimum.at(d2, rows, np.sum((xs[rows] - boundary[cols]) ** 2, axis=1))
    return np.sqrt(d2)


def lojasiewicz_estimate(
    system: SemialgebraicSystem,
    grid: GridSpec | None = None,
    samples: int = 2000,
    seed: int = 42,
) -> LojasiewiczFit:
    """Estimate the exponent relating constraint violation to distance.

    Draws infeasible points uniformly from the box (``samples`` >= 1 of
    them, from ``seed`` >= 0), approximates dist(x, S) by the distance to
    the nearest feasible grid point, and fits
    log(-min g_i) >= c2 log dist - log c3 by least squares on the lower
    envelope of the log-log cloud (per-bin minima of the violation).  c3 is
    then inflated so every sample satisfies the inequality exactly.

    The feasibility of the grid points is evaluated per axis
    (``grid_feasible_mask``); their coordinates are built for the distance
    search only.  The nearest feasible grid point is searched among the
    boundary feasible points (those with an infeasible axis neighbour) and
    the 3^n grid points around the sample only: a nearest point that is in
    neither set has a feasible neighbour at least as close, and stepping so
    ends in one of them.  The 3^n near points are searched only for samples
    within one step of an interior feasible point, as the others find none
    there that the boundary lacks.  The boundary points are screened by one
    matrix product per chunk of samples, |b - c|^2 - 2 (x - c).(b - c)
    around the box centre c, and only the pairs within a rounding-error
    slack of each row's least screen value get the exact distance (see
    ``_feasible_distances`` for the bound).  The distances, and so every
    output, are bit-identical to comparing each sample with every feasible
    grid point, while the work scales with the boundary and the temporaries
    stay bounded.  More than ``MAX_SAMPLES`` samples raise ``CapacityError``
    before any is drawn.
    """
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise CapacityError(f"samples {samples} exceeds the cap {MAX_SAMPLES}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    spec = grid or GridSpec.default_for(system.dimension)
    box = spec.resolved_box(system.dimension)
    mask = grid_feasible_mask(
        system, grid_axes(box, spec.points_per_axis), DEFAULT_FEASIBILITY_TOL
    )
    if not mask.any():
        raise InfeasibleAtResolutionError(
            "no feasible grid point; cannot anchor distances"
        )
    if mask.all():
        raise DegenerateFitError(
            "every grid point is feasible: no infeasible region to sample"
        )
    widths = np.array([hi - lo for lo, hi in box])
    cell = widths / (spec.points_per_axis - 1)
    dist_error = 0.5 * float(np.linalg.norm(cell))

    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    collected_x: list[np.ndarray] = []
    collected_v: list[np.ndarray] = []
    total = 0
    attempts = 0
    while total < samples and attempts < 50 * samples:
        batch = rng.uniform(lo, hi, size=(min(1024, 50 * samples - attempts), len(box)))
        attempts += batch.shape[0]
        worst = np.full(batch.shape[0], np.inf)
        for g in system.constraints:
            worst = np.minimum(worst, g.evaluate_many(batch))
        infeasible = worst < 0.0
        if infeasible.any():
            collected_x.append(batch[infeasible])
            collected_v.append(-worst[infeasible])
            total += int(infeasible.sum())
    if total == 0:
        raise DegenerateFitError(
            "sampling found no infeasible points; the set fills the box "
            "at this tolerance"
        )
    xs = np.concatenate(collected_x)[:samples]
    violation = np.concatenate(collected_v)[:samples]

    pts = grid_points(box, spec.points_per_axis)  # the distances need coordinates
    dist = _feasible_distances(xs, pts, mask, spec.points_per_axis, box)
    keep = dist > 0.0
    dist = dist[keep]
    violation = violation[keep]
    if dist.size < 2:
        raise DegenerateFitError("not enough usable samples for the fit")

    log_d = np.log(dist)
    log_v = np.log(violation)
    edges = np.linspace(log_d.min(), log_d.max(), ENVELOPE_BINS + 1)
    env_d: list[float] = []
    env_v: list[float] = []
    for bi in range(ENVELOPE_BINS):
        if bi < ENVELOPE_BINS - 1:
            in_bin = (log_d >= edges[bi]) & (log_d < edges[bi + 1])
        else:
            in_bin = (log_d >= edges[bi]) & (log_d <= edges[bi + 1])
        if not in_bin.any():
            continue
        sub = np.flatnonzero(in_bin)
        pick = sub[int(np.argmin(log_v[sub]))]
        env_d.append(float(log_d[pick]))
        env_v.append(float(log_v[pick]))
    if len(env_d) < 2:
        raise DegenerateFitError("log-log envelope has fewer than two points")

    slope, _intercept = np.polyfit(np.array(env_d), np.array(env_v), 1)
    c2 = float(slope)
    if c2 <= 0:
        raise DegenerateFitError(f"fitted exponent {c2} is not positive")
    # inflate c3 so dist^c2 <= c3 * violation holds on every sample
    c3 = float(np.max(dist**c2 / violation)) * (1.0 + 1e-12)
    max_violation = float(np.max(dist**c2 - c3 * violation))
    return LojasiewiczFit(
        c2_exponent=c2,
        c3_scale=c3,
        sample_count=int(dist.size),
        max_violation=max(0.0, max_violation),
        dist_error_bound=dist_error,
    )


# ----------------------------------------------------------------------
# rounded hypercube


@dataclass(frozen=True)
class RoundedCube:
    """Degree d and the witness 1 - 1/d - sum_i x_i^(2d), positive on S."""

    degree: int
    polynomial: Polynomial


def _cube_gap_polynomial(dimension: int, d: int) -> Polynomial:
    terms = {(0,) * dimension: 1.0 - 1.0 / d}
    for i in range(dimension):
        alpha = [0] * dimension
        alpha[i] = 2 * d
        terms[tuple(alpha)] = -1.0
    return Polynomial(dimension, terms)


def round_hypercube_degree(
    system: SemialgebraicSystem,
    grid: GridSpec | None = None,
    d_max: int = 30,
) -> RoundedCube | None:
    """Smallest d <= d_max with 1 - 1/d - sum x_i^(2d) > 0 at every feasible
    grid point; None when none works.

    Requires the feasible grid points to lie strictly inside the open unit
    box (checked with ``CONTAINMENT_MARGIN``).
    """
    spec = grid or GridSpec.default_for(system.dimension)
    box = spec.resolved_box(system.dimension)
    axes = grid_axes(box, spec.points_per_axis)
    mask = grid_feasible_mask(system, axes, DEFAULT_FEASIBILITY_TOL)
    if not mask.any():
        raise InfeasibleAtResolutionError(
            "no feasible grid point at this resolution"
        )
    worst = feasible_extent(axes, mask)
    if worst > 1.0 - CONTAINMENT_MARGIN:
        raise InputError(
            f"feasible grid point with |x_i| = {worst} is not strictly "
            "inside the open unit box; rescale the system first"
        )
    # the feasible points' index along each axis, in grid row order
    index = np.unravel_index(np.flatnonzero(mask), (spec.points_per_axis,) * len(axes))
    for d in range(1, d_max + 1):
        # x_i^(2d) per axis value, laid out as the (feasible, n) points are
        powers = np.stack([(a ** (2 * d))[i] for a, i in zip(axes, index)], axis=1)
        values = (1.0 - 1.0 / d) - np.sum(powers, axis=1)
        if float(values.min()) > 0.0:
            return RoundedCube(degree=d, polynomial=_cube_gap_polynomial(system.dimension, d))
    return None
