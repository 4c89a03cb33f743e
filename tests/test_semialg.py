"""Semialgebraic systems, grid oracles, rescaling, archimedean search."""

import numpy as np
import pytest

from conftest import box_system, random_positive_degree_polynomial
from poslab import (
    CapacityError,
    DimensionMismatchError,
    GridSpec,
    InfeasibleAtResolutionError,
    InputError,
    SemialgebraicSystem,
    archimedean_witness,
    contains,
    grid_min,
    lipschitz_bound,
    parse_polynomial,
    rescale_system,
    verify,
)

P = parse_polynomial


def interval_system():
    return SemialgebraicSystem(1, (P("1 - x1^2"),))


# ----------------------------------------------------------------------
# contains


def test_contains_interior():
    assert contains(interval_system(), [0.0], 0.0)


def test_contains_outside():
    assert not contains(interval_system(), [2.0], 0.0)


def test_contains_singleton_boundary():
    origin = SemialgebraicSystem(1, (P("x1"), P("0 - x1")))
    assert contains(origin, [0.0], 0.0)
    assert not contains(origin, [0.1], 0.0)


def test_contains_dimension_check():
    with pytest.raises(DimensionMismatchError):
        contains(interval_system(), [0.0, 0.0], 0.0)


# ----------------------------------------------------------------------
# grid_min


def test_grid_min_parabola():
    res = grid_min(P("x1^2"), interval_system(), GridSpec(101))
    assert res.minimum_value == 0.0
    assert res.argmin == (0.0,)


def test_grid_min_boundary():
    res = grid_min(P("x1"), interval_system(), GridSpec(101))
    assert res.minimum_value == -1.0
    assert res.argmin == (-1.0,)


def test_grid_min_two_dim_scan():
    res = grid_min(P("x1 + x2 + 2"), box_system(2), GridSpec(51))
    assert res.minimum_value == pytest.approx(0.0, abs=1e-12)
    assert res.argmin == (-1.0, -1.0)


def test_grid_min_monotone_under_refinement():
    f = P("x1^4 - 0.3*x1")
    s = interval_system()
    values = [
        grid_min(f, s, GridSpec(41, refinement_rounds=r)).minimum_value
        for r in range(4)
    ]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-15


def test_grid_min_is_upper_bound_with_lipschitz_slack():
    # known minima; cell-resolution error is bounded by the Lipschitz
    # constant times the cell diameter
    fixtures = [
        (P("x1^2"), interval_system(), 0.0),
        (P("x1^2 - 0.6*x1"), interval_system(), -0.09),
        (P("x1 + x2 + 2", 2), box_system(2), 0.0),
        (P("x1^2 + x2^2", 2), box_system(2), 0.0),
    ]
    for f, s, true_min in fixtures:
        spec = GridSpec(11, refinement_rounds=0)
        res = grid_min(f, s, spec)
        n = s.dimension
        cell_diag = (2.0 / (spec.points_per_axis - 1)) * (n**0.5)
        assert res.minimum_value >= true_min - 1e-12
        assert res.minimum_value - true_min <= lipschitz_bound(f) * cell_diag


def test_grid_min_argmin_feasible():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        f = random_positive_degree_polynomial(rng, n, 3)
        s = box_system(n)
        res = grid_min(f, s, GridSpec(31))
        assert contains(s, res.argmin, 1e-9)
        assert res.minimum_value == pytest.approx(f.evaluate(res.argmin), abs=1e-12)


def test_grid_min_infeasible_at_resolution():
    # thin slab around x = 0.5 that a coarse even grid misses entirely
    thin = SemialgebraicSystem(
        1, (P("0.0001 - x1^2 + x1 - 0.25"),)
    )  # 0.0001 - (x-0.5)^2 >= 0
    with pytest.raises(InfeasibleAtResolutionError):
        grid_min(P("x1"), thin, GridSpec(11, refinement_rounds=0))


def test_grid_size_cap():
    from poslab.semialg import MAX_GRID_POINTS, grid_points

    # the cap is checked with exact integers, before anything is allocated
    with pytest.raises(CapacityError):
        grid_points(((-1.0, 1.0),) * 3, 101)
    with pytest.raises(CapacityError):
        grid_points(((-1.0, 1.0),), 10**30)
    with pytest.raises(CapacityError):
        grid_min(P("x1"), interval_system(), GridSpec(MAX_GRID_POINTS + 1))
    assert grid_points(((-1.0, 1.0),) * 2, 1000).shape == (MAX_GRID_POINTS, 2)


@pytest.mark.parametrize("n, ppa", [(1, 201), (2, 31), (3, 11)])
def test_per_axis_grid_sweep_matches_the_point_array(n, ppa):
    # grid_min's rounds and the grid callers never build the point array;
    # what they compute from the axes is what the points give, exactly
    from poslab.semialg import (
        feasible_extent,
        feasible_mask,
        grid_axes,
        grid_feasible_mask,
        grid_points,
    )

    rng = np.random.default_rng(300 + n)
    for _ in range(10):
        f = random_positive_degree_polynomial(rng, n, 4)
        g = random_positive_degree_polynomial(rng, n, 2)
        ball = SemialgebraicSystem(n, (g, box_system(n).constraints[0]))
        box = tuple(tuple(sorted(rng.uniform(-1.5, 1.5, size=2))) for _ in range(n))
        pts = grid_points(box, ppa)
        axes = grid_axes(box, ppa)
        mask = feasible_mask(ball, pts, 1e-9)
        assert np.array_equal(grid_feasible_mask(ball, axes, 1e-9), mask)
        if not mask.any():
            continue
        assert feasible_extent(axes, mask) == float(np.max(np.abs(pts[mask])))
        result = grid_min(f, ball, GridSpec(ppa, box, refinement_rounds=0))
        assert result.minimum_value == float(np.min(f.evaluate_many(pts)[mask]))
        assert result.feasible_count == int(mask.sum())


@pytest.mark.parametrize(
    "box", [((-1.0, 1.0), (0.0, np.inf)), ((-np.inf, 1.0),), ((np.nan, 1.0),), ((1.0, 1.0),)]
)
def test_grid_spec_rejects_a_box_that_is_not_a_finite_interval(box):
    with pytest.raises(InputError, match="invalid box interval"):
        GridSpec(11, box)


def test_grid_min_deterministic_tie_break():
    # f constant: every feasible point ties; graded order of the grid index
    # picks the lexicographically first corner
    res = grid_min(P("0*x1 + 1", 2), box_system(2), GridSpec(5, refinement_rounds=0))
    assert res.minimum_value == 1.0
    assert res.argmin == (-1.0, -1.0)


# ----------------------------------------------------------------------
# rescale_system


def test_rescale_system_identity():
    s = rescale_system(interval_system(), 1.0)
    assert s.constraints[0] == P("1 - x1^2")


def test_rescale_system_halves_interval():
    s = rescale_system(interval_system(), 2.0)
    assert s.constraints[0] == P("1 - 4*x1^2")
    assert contains(s, [0.49], 0.0)
    assert not contains(s, [0.51], 0.0)


def test_rescale_system_containment_example():
    s = rescale_system(SemialgebraicSystem(1, (P("4 - x1^2"),)), 4.0)
    assert s.constraints[0] == P("4 - 16*x1^2")
    assert contains(s, [0.5], 0.0)
    assert not contains(s, [0.75], 0.0)


def test_rescale_system_pointwise_equivalence():
    rng = np.random.default_rng(6)
    base = SemialgebraicSystem(2, (P("1 - x1^2 - x2^2", 2), P("x1 + 0.5", 2)))
    for r in (0.5, 2.0, 3.7):
        scaled = rescale_system(base, r)
        for _ in range(50):
            x = rng.uniform(-1.5, 1.5, size=2)
            assert contains(scaled, x, 1e-12) == contains(base, r * x, 1e-12)


def test_rescale_system_rejects_nonpositive():
    with pytest.raises(InputError):
        rescale_system(interval_system(), 0.0)


# ----------------------------------------------------------------------
# archimedean witness


def test_archimedean_interval_witness():
    res = archimedean_witness(interval_system(), 1.0, 2)
    assert res.found
    # the returned certificate really reconstructs 1 - x1^2
    report = verify(res.certificate, P("1 - x1^2"))
    assert report.passed


def test_archimedean_disc_witness():
    disc = SemialgebraicSystem(2, (P("1 - x1^2 - x2^2"),))
    res = archimedean_witness(disc, 1.0, 2)
    assert res.found


def test_archimedean_unbounded_not_found():
    half_line = SemialgebraicSystem(1, (P("x1"),))
    for level in (2, 4, 6, 8):
        res = archimedean_witness(half_line, 1.0, level)
        assert not res.found
        assert "inconclusive" in res.reason


def test_archimedean_validates_level():
    with pytest.raises(InputError):
        archimedean_witness(interval_system(), 1.0, 3)
    with pytest.raises(InputError):
        archimedean_witness(interval_system(), 1.0, 0)
    with pytest.raises(InputError):
        archimedean_witness(interval_system(), -1.0, 2)
