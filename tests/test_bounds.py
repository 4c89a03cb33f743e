"""Degree/gap bound calculators, lifting transform, fits, rounded cube."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from poslab import (
    BoundInputs,
    CapacityError,
    DegenerateFitError,
    GridSpec,
    InputError,
    SemialgebraicSystem,
    find_lifting_k,
    gap_bound,
    lifting_parameters,
    lifting_transform,
    lojasiewicz_estimate,
    parse_polynomial,
    putinar_degree_bound,
    round_hypercube_degree,
    schmuedgen_degree_bound,
)
from poslab.bounds import (
    LIFT_DEGREE_CAP,
    _feasible_distances,
    _lifted_minimum,
    lifting_k_max,
)
from poslab.semialg import MAX_SAMPLES, feasible_mask, grid_points

P = parse_polynomial


def interval_system():
    return SemialgebraicSystem(1, (P("1 - x1^2"),))


# ----------------------------------------------------------------------
# degree bound calculators


def test_schmuedgen_bound_values():
    assert schmuedgen_degree_bound(BoundInputs(1.0, 1, 1, 1.0, 1.0)) == 2.0
    assert schmuedgen_degree_bound(BoundInputs(1.0, 2, 1, 1.0, 1.0)) == 20.0
    assert schmuedgen_degree_bound(BoundInputs(2.0, 1, 2, 1.0, 2.0)) == 4.0


def test_putinar_bound_values():
    assert putinar_degree_bound(BoundInputs(1.0, 1, 1, 1.0, 1.0)).value == (
        pytest.approx(math.e, abs=1e-12)
    )
    assert putinar_degree_bound(BoundInputs(1.0, 1, 1, 1.0, 2.0)).value == (
        pytest.approx(math.exp(0.5), abs=1e-12)
    )


def test_putinar_bound_saturates():
    res = putinar_degree_bound(BoundInputs(1.0, 10, 3, 1.0, 1.0))
    assert res.saturated
    assert res.value == math.inf


def test_bound_inputs_validated():
    for bad in (
        dict(c=0.0, d=1, n=1, norm_f=1.0, f_star=1.0),
        dict(c=1.0, d=0, n=1, norm_f=1.0, f_star=1.0),
        dict(c=1.0, d=1, n=0, norm_f=1.0, f_star=1.0),
        dict(c=1.0, d=1, n=1, norm_f=0.0, f_star=1.0),
        dict(c=1.0, d=1, n=1, norm_f=1.0, f_star=0.0),
        dict(c=math.nan, d=1, n=1, norm_f=1.0, f_star=1.0),
        dict(c=1.0, d=1, n=1, norm_f=math.nan, f_star=1.0),
        dict(c=1.0, d=1, n=1, norm_f=1.0, f_star=math.nan),
    ):
        with pytest.raises(InputError):
            BoundInputs(**bad)


def test_gap_bound_values_and_threshold():
    res = gap_bound(BoundInputs(1.0, 1, 1, 1.0, 1.0, k=8))
    assert res.applicable
    assert res.value == pytest.approx(6.0 / math.log(8.0), abs=1e-12)
    assert res.threshold == pytest.approx(math.exp(2.0), abs=1e-12)

    below = gap_bound(BoundInputs(1.0, 1, 1, 1.0, 1.0, k=7))
    assert not below.applicable
    assert below.value is None

    doubled = gap_bound(BoundInputs(1.0, 1, 1, 2.0, 1.0, k=8))
    assert doubled.value == pytest.approx(12.0 / math.log(8.0), abs=1e-12)


def test_gap_bound_requires_level():
    with pytest.raises(InputError):
        gap_bound(BoundInputs(1.0, 1, 1, 1.0, 1.0))


def test_gap_bound_threshold_saturates():
    res = gap_bound(BoundInputs(1.0, 10, 3, 1.0, 1.0, k=10**9))
    assert not res.applicable
    assert res.threshold_saturated


def test_gap_bound_decreasing_to_zero_in_k():
    inputs = [BoundInputs(1.0, 1, 1, 1.0, 1.0, k=8 * 2**j) for j in range(12)]
    values = [gap_bound(b).value for b in inputs]
    assert all(v is not None for v in values)
    for a, b in zip(values, values[1:]):
        assert b < a
    assert values[-1] < 0.7


def test_putinar_dominates_schmuedgen_on_grid():
    # exp dominates the polynomial bound on the fixture grid (c >= 1 and
    # norm_f >= f_star, which forces the inner ratio above d^2)
    for c in (1.0, 1.5, 2.0):
        for d in (1, 2, 3):
            for n in (1, 2):
                for norm_f in (1.0, 2.0):
                    b = BoundInputs(c, d, n, norm_f, 1.0)
                    put = putinar_degree_bound(b)
                    schm = schmuedgen_degree_bound(b)
                    if put.saturated:
                        assert put.value == math.inf
                        continue
                    assert put.value >= schm


# ----------------------------------------------------------------------
# lifting transform


def test_lifting_zero_coefficient_is_identity():
    f = P("x1 + 2")
    assert lifting_transform(f, interval_system(), 0.0, 3) == f


def test_lifting_hand_expansion():
    # (g-1)^2 g = x^4 (1 - x^2) for g = 1 - x^2
    h = lifting_transform(P("x1 + 2"), interval_system(), 1.0, 1)
    assert h == P("x1 + 2 - x1^4 + x1^6")


def test_lifting_empty_system_is_identity():
    f = P("x1 + 2")
    assert lifting_transform(f, SemialgebraicSystem(1, ()), 5.0, 2) == f


def test_lifting_validates_arguments():
    with pytest.raises(InputError):
        lifting_transform(P("x1"), interval_system(), -1.0, 1)
    with pytest.raises(InputError):
        lifting_transform(P("x1"), interval_system(), 1.0, 0)
    for lam in (math.nan, math.inf):
        with pytest.raises(InputError):
            lifting_transform(P("x1"), interval_system(), lam, 1)


def test_lifting_degree_capacity():
    with pytest.raises(CapacityError):
        lifting_transform(P("x1"), interval_system(), 1.0, 16)  # (2k+1)*2 = 66


def test_lifting_pointwise_domination_on_feasible_grid():
    f = P("x1 + 2")
    s = interval_system()
    pts = grid_points(((-1.0, 1.0),), 501)
    mask = feasible_mask(s, pts, 1e-9)
    feas = pts[mask]
    for k in (1, 2, 3):
        h = lifting_transform(f, s, 0.7, k)
        assert np.all(h.evaluate_many(feas) <= f.evaluate_many(feas) + 1e-9)


# ----------------------------------------------------------------------
# find_lifting_k / lifting_parameters


def test_find_lifting_k_small_lambda():
    spec = GridSpec(10_001, refinement_rounds=0)
    assert find_lifting_k(P("x1 + 2"), interval_system(), 0.1, spec) == 1


def test_find_lifting_k_zero_lambda():
    spec = GridSpec(1001, refinement_rounds=0)
    # f >= f*/2 on the whole box already
    assert find_lifting_k(P("x1 + 2"), interval_system(), 0.0, spec) == 1


def test_find_lifting_k_huge_lambda_not_found():
    spec = GridSpec(10_001, refinement_rounds=0)
    assert find_lifting_k(P("x1 + 2"), interval_system(), 1e6, spec, k_max=3) is None


@pytest.mark.parametrize("k_max", [0, -4])
def test_find_lifting_k_rejects_k_max_below_one(k_max):
    # no k would be tried: that is an input error, not a search that failed
    spec = GridSpec(101, refinement_rounds=0)
    with pytest.raises(InputError, match="k_max"):
        find_lifting_k(P("x1 + 2"), interval_system(), 1.0, spec, k_max=k_max)


def test_find_lifting_k_stops_at_the_degree_cap(monkeypatch):
    # k = 15 would lift the quadratic constraint to degree 62 > 60, so the
    # default k_max = 20 search ends at k = 14, not found, without raising
    tried = []
    lifted_minimum = _lifted_minimum

    def recording(f, system, lam, k, f_vals, g_vals):
        tried.append(k)
        return lifted_minimum(f, system, lam, k, f_vals, g_vals)

    monkeypatch.setattr("poslab.bounds._lifted_minimum", recording)
    spec = GridSpec(10_001, refinement_rounds=0)
    f = P("x1 + 2")
    assert lifting_k_max(f, interval_system(), 1e6, 20) == 14
    assert find_lifting_k(f, interval_system(), 1e6, spec) is None
    assert tried == list(range(1, 15))
    # a cubic constraint fits up to k = 9: (2*9 + 1) * 3 = 57
    tried.clear()
    cubic = SemialgebraicSystem(1, (P("1 - x1^2"), P("0.5 - 0.5*x1^3")))
    assert lifting_k_max(f, cubic, 1e6, 20) == 9
    assert find_lifting_k(f, cubic, 1e6, spec) is None
    assert tried == list(range(1, 10))


def test_lifting_k_max_matches_the_transform_cap():
    # the bound is exactly where lifting_transform starts to raise
    f = P("x1 + 2")
    for system in (interval_system(), SemialgebraicSystem(1, (P("0.5 - 0.5*x1^3"),))):
        k = lifting_k_max(f, system, 1.0, 100)
        assert (2 * k + 1) * system.constraints[-1].degree <= LIFT_DEGREE_CAP
        lifting_transform(f, system, 1.0, k)
        with pytest.raises(CapacityError):
            lifting_transform(f, system, 1.0, k + 1)
    # no cut: lam = 0 expands nothing, a small k_max already fits, and a
    # problem over the cap even at k = 1 is left to raise
    assert lifting_k_max(f, interval_system(), 0.0, 100) == 100
    assert lifting_k_max(f, interval_system(), 1.0, 3) == 3
    assert lifting_k_max(P("x1^61"), interval_system(), 1.0, 20) == 1


def test_lifted_minimum_matches_the_expanded_transform():
    ball = SemialgebraicSystem(2, (P("1 - x1^2 - x2^2"),))
    cases = (
        (P("x1 + 2"), interval_system(), ((-1.0, 1.0),), 201),
        (P("x1^2 + x1*x2 - x2 + 1", 2), ball, ((-1.0, 1.0),) * 2, 31),
    )
    for f, system, box, per_axis in cases:
        pts = grid_points(box, per_axis)
        f_vals = f.evaluate_many(pts)
        g_vals = [g.evaluate_many(pts) for g in system.constraints]
        for k in range(1, 6):
            expanded = lifting_transform(f, system, 3.0, k).evaluate_many(pts).min()
            pointwise = _lifted_minimum(f, system, 3.0, k, f_vals, g_vals)
            assert pointwise == pytest.approx(expanded, rel=1e-12)


def test_lift_search_and_parameters_never_expand_h(monkeypatch):
    def expanding(*args):
        raise AssertionError("lifting_transform called")

    monkeypatch.setattr("poslab.bounds.lifting_transform", expanding)
    spec = GridSpec(1001, refinement_rounds=0)
    f = P("x1 + 2")
    assert find_lifting_k(f, interval_system(), 5.0, spec, k_max=14) is not None
    params = lifting_parameters(f, interval_system(), 1.0, 1.0, 1.0, spec)
    assert math.isfinite(params.empirical_min_h)


def test_pointwise_lift_keeps_the_checks():
    spec = GridSpec(101, refinement_rounds=0)
    f = P("x1 + 2")
    # L = 2 and c0 = 4: 2k+1 >= 4 (1 + 16) gives k = 34, degree 69 * 2 = 138
    with pytest.raises(CapacityError) as err:
        lifting_parameters(f, interval_system(), 4.0, 1.0, 1.0, spec)
    assert str(err.value) == "lifted polynomial would have degree 138 > cap 60"
    for lam, text in ((math.nan, "nan"), (-1.0, "-1.0")):
        with pytest.raises(InputError) as err:
            find_lifting_k(f, interval_system(), lam, spec)
        assert str(err.value) == f"lam must be finite and >= 0, got {text}"


def test_find_lifting_k_monotone_in_lambda():
    spec = GridSpec(2001, refinement_rounds=0)
    f = P("x1 + 2")
    s = interval_system()
    ks = []
    for lam in (0.1, 5.0, 20.0, 40.0):
        k = find_lifting_k(f, s, lam, spec, k_max=14)
        assert k is not None
        ks.append(k)
    assert ks == sorted(ks)


def test_find_lifting_k_rejects_constraint_above_one():
    sys_bad = SemialgebraicSystem(1, (P("2 - x1^2"),))
    with pytest.raises(InputError) as err:
        find_lifting_k(P("x1 + 2"), sys_bad, 0.1, GridSpec(101, refinement_rounds=0))
    assert "g1" in str(err.value)


def test_find_lifting_k_requires_positive_minimum():
    with pytest.raises(InputError):
        find_lifting_k(P("x1"), interval_system(), 0.1, GridSpec(101))


def test_lifting_parameters_formulas():
    # f = x1 + 2 on [-1,1]: d=1, n=1, ||f|| = 2, f* = 1 -> L = 2, lam = c1*2*L^c2
    spec = GridSpec(1001, refinement_rounds=0)
    params = lifting_parameters(P("x1 + 2"), interval_system(), 1.0, 1.0, 1.0, spec)
    assert params.L == pytest.approx(2.0, abs=1e-12)
    assert params.lam == pytest.approx(4.0, abs=1e-12)
    assert params.k == 1
    assert params.empirical_min_h <= 3.0


def test_lifting_parameters_unit_case():
    # f = x1 + 1 on S = {0}: d=1, n=1, ||f|| = 1, f* = 1 -> L = 1, lam = 1, k = 1
    singleton = SemialgebraicSystem(1, (P("x1"), P("0 - x1")))
    spec = GridSpec(101, refinement_rounds=0)
    params = lifting_parameters(P("x1 + 1"), singleton, 1.0, 1.0, 1.0, spec)
    assert params.L == pytest.approx(1.0, abs=1e-12)
    assert params.lam == pytest.approx(1.0, abs=1e-12)
    assert params.k == 1


def test_lifting_parameters_k_arithmetic():
    # smallest integer k with 2k+1 >= c0 (1 + L^c0)
    spec = GridSpec(101, refinement_rounds=0)
    base = lifting_parameters(P("x1 + 2"), interval_system(), 3.0, 1.0, 1.0, spec)
    # here L = 2 and c0 = 3: 2k+1 >= 3(1+8) = 27 -> k = 13
    assert base.k == 13


def test_lifting_parameters_validate_constants():
    with pytest.raises(InputError):
        lifting_parameters(P("x1 + 2"), interval_system(), 0.0, 1.0, 1.0)
    for bad in (math.nan, math.inf, -1.0):
        for position in range(3):
            constants = [1.0, 1.0, 1.0]
            constants[position] = bad
            with pytest.raises(InputError, match=f"c{position}"):
                lifting_parameters(P("x1 + 2"), interval_system(), *constants)


def test_lifting_parameters_reject_overflow():
    spec = GridSpec(101, refinement_rounds=0)
    f, s = P("x1 + 2"), interval_system()
    with pytest.raises(InputError, match="lambda"):
        lifting_parameters(f, s, 1.0, 1e308, 1.0, spec)  # lambda = inf
    with pytest.raises(InputError, match="lambda"):
        lifting_parameters(f, s, 1.0, 1.0, 1e308, spec)  # L^c2 overflows
    with pytest.raises(CapacityError):
        lifting_parameters(f, s, 1e308, 1.0, 1.0, spec)  # k overflows


# ----------------------------------------------------------------------
# violation-exponent fit


def test_lojasiewicz_linear_constraint():
    fit = lojasiewicz_estimate(
        SemialgebraicSystem(1, (P("x1"),)), GridSpec(101), samples=2000, seed=42
    )
    assert abs(fit.c2_exponent - 1.0) <= 0.05
    assert fit.max_violation == 0.0
    assert fit.sample_count > 0


def test_lojasiewicz_cubic_constraint():
    fit = lojasiewicz_estimate(
        SemialgebraicSystem(1, (P("x1^3"),)), GridSpec(101), samples=2000, seed=42
    )
    assert abs(fit.c2_exponent - 3.0) <= 0.1
    assert fit.max_violation == 0.0


def test_lojasiewicz_widened_box_slope_near_one():
    spec = GridSpec(101, box=((-2.0, 2.0),))
    fit = lojasiewicz_estimate(
        SemialgebraicSystem(1, (P("1 - x1^2"),)), spec, samples=2000, seed=42
    )
    assert 0.85 <= fit.c2_exponent <= 1.4


def test_lojasiewicz_own_samples_satisfy_inequality():
    fit = lojasiewicz_estimate(
        SemialgebraicSystem(1, (P("x1^3"),)), GridSpec(101), samples=500, seed=7
    )
    assert fit.max_violation <= 1e-12


def test_lojasiewicz_two_dimensional_quadrant():
    # g = (x1, x2): for x outside the quadrant near a face, the violation
    # is the (linear) distance to the face, so the exponent is near 1
    quadrant = SemialgebraicSystem(2, (P("x1", 2), P("x2", 2)))
    fit = lojasiewicz_estimate(quadrant, GridSpec(41), samples=1500, seed=42)
    assert 0.8 <= fit.c2_exponent <= 1.2
    assert fit.max_violation <= 1e-12
    assert fit.dist_error_bound > 0


def test_lojasiewicz_degenerate_when_set_fills_box():
    full = SemialgebraicSystem(1, (P("2 - x1^2"),))
    with pytest.raises(DegenerateFitError):
        lojasiewicz_estimate(full, GridSpec(101), samples=100, seed=1)


def test_lojasiewicz_deterministic_given_seed():
    sys1 = SemialgebraicSystem(1, (P("x1"),))
    a = lojasiewicz_estimate(sys1, GridSpec(101), samples=500, seed=9)
    b = lojasiewicz_estimate(sys1, GridSpec(101), samples=500, seed=9)
    assert a == b


def _distances_by_sweep(xs, feasible_points):
    # the reference: every sample against every feasible grid point
    d2 = np.sum((xs[:, None, :] - feasible_points[None, :, :]) ** 2, axis=2)
    return np.sqrt(d2.min(axis=1))


def _single_point(pts):
    mask = np.zeros(len(pts), dtype=bool)
    mask[len(pts) // 3] = True
    return mask


NEAREST_FEASIBLE_SETS = {
    "box": lambda p: np.all(np.abs(p - 0.1) <= 0.45, axis=1),
    "ball": lambda p: np.sum(p**2, axis=1) <= 0.6,
    "annulus": lambda p: (np.sum(p**2, axis=1) <= 0.8)
    & (np.sum(p**2, axis=1) >= 0.3),
    "two disjoint boxes": lambda p: np.all(np.abs(p - 0.55) <= 0.3, axis=1)
    | np.all(np.abs(p + 0.6) <= 0.25, axis=1),
    "single point": _single_point,
}


@pytest.mark.parametrize("name", sorted(NEAREST_FEASIBLE_SETS))
@pytest.mark.parametrize(
    "box, ppa",
    [
        (((-1.0, 1.0),), 41),
        (((-1.0, 1.0), (-1.3, 0.9)), 23),
        (((-1.1, 1.0), (-1.0, 1.2), (-0.9, 1.0)), 11),
        (((-1.0, 1.0), (-1.2, 0.9), (-0.9, 1.1), (-1.0, 1.0)), 6),
    ],
)
def test_feasible_distances_bit_identical_to_sweep(name, box, ppa):
    from poslab.bounds import _feasible_distances

    pts = grid_points(box, ppa)
    mask = NEAREST_FEASIBLE_SETS[name](pts)
    assert mask.any() and not mask.all()
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    cell = (hi - lo) / (ppa - 1)
    rng = np.random.default_rng(ppa)
    corner = rng.integers(0, ppa - 1, size=(300, len(box)))
    xs = np.concatenate([
        rng.uniform(lo, hi, size=(700, len(box))),
        pts[rng.integers(0, len(pts), size=200)],  # on grid points
        lo + (corner + 0.5) * cell,  # on half-cell midpoints
        np.array([lo, hi]),  # box corners
    ])
    got = _feasible_distances(xs, pts, mask, ppa, box)
    assert np.array_equal(got, _distances_by_sweep(xs, pts[mask]))


def _near_ties(box, ppa, rng):
    # uniform draws, grid points, half-cell midpoints, the centre and points
    # a few ulps around it
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    centre = 0.5 * (lo + hi)
    corner = rng.integers(0, ppa - 1, size=(200, len(box)))
    ulp = np.spacing(np.maximum(np.abs(centre), hi - lo))
    jitter = rng.integers(-4, 5, size=(100, len(box))) * ulp
    return np.concatenate([
        rng.uniform(lo, hi, size=(300, len(box))),
        grid_points(box, ppa)[rng.integers(0, ppa ** len(box), size=100)],
        lo + (corner + 0.5) * (hi - lo) / (ppa - 1),
        centre[None, :],
        centre + jitter,
    ])


@pytest.mark.parametrize(
    "box, ppa, feasible",
    [
        # narrow and far from the origin: |x|^2 + |b|^2 - 2 x.b on uncentred
        # points would cancel nearly every digit
        (((1e4 - 5e-3, 1e4 + 5e-3),) * 3, 15,
         lambda p: np.sum((p - 1e4) ** 2, axis=1) <= 1.2e-5),
        (((-1e4 - 5e-3, -1e4 + 4e-3), (1e4 - 3e-3, 1e4 + 5e-3)), 41,
         lambda p: np.abs(p[:, 0] + 1e4) + np.abs(p[:, 1] - 1e4) >= 2e-3),
        # integer lattices outside the sphere |p|^2 = 9: the lattice points on
        # it (104 in 4-D, 30 in 3-D) are all at distance exactly 3 from the
        # centre, so for samples at or near it every one passes the screen
        (((-3.0, 3.0),) * 4, 7, lambda p: np.sum(p**2, axis=1) >= 9.0),
        (((-4.0, 4.0),) * 3, 9, lambda p: np.sum(p**2, axis=1) >= 9.0),
    ],
)
def test_feasible_distances_bit_identical_to_sweep_on_hard_grids(box, ppa, feasible):
    pts = grid_points(box, ppa)
    mask = feasible(pts)
    assert mask.any() and not mask.all()
    rng = np.random.default_rng(ppa)
    xs = _near_ties(box, ppa, rng)
    got = _feasible_distances(xs, pts, mask, ppa, box)
    want = np.concatenate([  # in slices, to keep the sweep's tensor small
        _distances_by_sweep(xs[s : s + 100], pts[mask]) for s in range(0, len(xs), 100)
    ])
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "box, ppa",
    [
        (((-1.0, 1.0),), 21),
        (((-1.0, 1.0), (-1.3, 0.9)), 15),
        (((-1.1, 1.0), (-1.0, 1.2), (-0.9, 1.0)), 9),
    ],
)
def test_feasible_distances_keep_the_near_set_beside_interior_points(box, ppa):
    # every grid point feasible but a pinhole at the centre: the boundary is
    # the pinhole's 2n axis neighbours, and nearly every sample's nearest
    # feasible point is an interior one that only the near set holds
    pts = grid_points(box, ppa)
    mask = np.ones(len(pts), dtype=bool)
    mask[len(pts) // 2] = False
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    rng = np.random.default_rng(ppa)
    xs = np.concatenate([
        rng.uniform(lo, hi, size=(500, len(box))),
        pts[len(pts) // 2][None, :] + rng.uniform(-1.5, 1.5, size=(200, len(box)))
        * (hi - lo) / (ppa - 1),  # around the pinhole
        pts[rng.integers(0, len(pts), size=100)],
    ])
    got = _feasible_distances(xs, pts, mask, ppa, box)
    assert np.array_equal(got, _distances_by_sweep(xs, pts[mask]))
    centre = np.unravel_index(len(pts) // 2, (ppa,) * len(box))
    steps = np.vstack([np.eye(len(box), dtype=int), -np.eye(len(box), dtype=int)])
    boundary = pts[np.ravel_multi_index(tuple((centre + steps).T), (ppa,) * len(box))]
    assert np.sum(got < _distances_by_sweep(xs, boundary)) > 500


def test_feasible_distances_memory_does_not_grow_with_the_boundary():
    # n = 4 at 11 points per axis: 4,160 boundary points; the full sweep's
    # (chunk, boundary, n) temporaries peaked near 50 MB here
    box = ((-1.25, 1.25),) * 4
    pts = grid_points(box, 11)
    mask = np.all(np.abs(pts) <= 1.0, axis=1)
    xs = np.random.default_rng(1).uniform(-1.25, 1.25, size=(1000, 4))
    tracemalloc.start()
    try:
        _feasible_distances(xs, pts, mask, 11, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_lojasiewicz_estimate_rejects_bad_sample_count_and_seed():
    disk = SemialgebraicSystem(2, (P("0.5 - x1^2 - x2^2"),))
    with pytest.raises(InputError, match="samples"):
        lojasiewicz_estimate(disk, GridSpec(21), samples=0, seed=1)
    with pytest.raises(InputError, match="seed"):
        lojasiewicz_estimate(disk, GridSpec(21), samples=10, seed=-1)


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**12])
def test_lojasiewicz_estimate_caps_sample_count(samples, monkeypatch):
    # refused before any point is drawn: 10^12 samples would otherwise run
    # for hours and end in a MemoryError
    def no_draws(*args, **kwargs):
        raise AssertionError("points drawn before the cap was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    disk = SemialgebraicSystem(2, (P("0.5 - x1^2 - x2^2"),))
    with pytest.raises(CapacityError, match="samples"):
        lojasiewicz_estimate(disk, GridSpec(21), samples=samples, seed=1)


# ----------------------------------------------------------------------
# rounded hypercube


def test_round_hypercube_singleton_origin():
    origin = SemialgebraicSystem(1, (P("x1"), P("0 - x1")))
    res = round_hypercube_degree(origin, GridSpec(101))
    assert res.degree == 2
    assert res.polynomial.evaluate([0.0]) == pytest.approx(0.5)


def test_round_hypercube_half_interval():
    half = SemialgebraicSystem(1, (P("0.25 - x1^2"),))
    res = round_hypercube_degree(half, GridSpec(101))
    assert res.degree == 2
    # worst point x = 1/2: 1 - 1/2 - (1/2)^4
    assert res.polynomial.evaluate([0.5]) == pytest.approx(0.4375)


def test_round_hypercube_near_corner_needs_large_degree():
    corner = SemialgebraicSystem(1, (P("0.0001 - x1^2 + 1.98*x1 - 0.9801"),))
    # feasible interval is [0.98, 1.0]; clipped to grid points < 1 it still
    # sits next to the corner, so small degrees fail
    spec = GridSpec(1001, box=((-0.999, 0.999),))
    res = round_hypercube_degree(corner, spec, d_max=3)
    assert res is None


def test_round_hypercube_rejects_boundary_contact():
    touching = SemialgebraicSystem(1, (P("1 - x1^2"),))
    with pytest.raises(InputError):
        round_hypercube_degree(touching, GridSpec(101))


@pytest.mark.parametrize(
    "fn", [find_lifting_k, lifting_parameters, lojasiewicz_estimate, round_hypercube_degree]
)
def test_grid_functions_use_the_fixed_feasibility_tolerance(fn):
    assert "feasibility_tol" not in inspect.signature(fn).parameters
