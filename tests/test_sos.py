"""Membership compilation, SOS decomposition, and the hierarchy bound."""

import numpy as np
import pytest

from conftest import box_system, random_positive_degree_polynomial
from poslab import (
    CapacityError,
    GridSpec,
    InputError,
    MembershipProblem,
    PREORDERING,
    SemialgebraicSystem,
    grid_min,
    lasserre_bound,
    module_membership,
    monomial_basis,
    parse_polynomial,
    preordering_membership,
    sos_decompose,
    verify,
)

P = parse_polynomial


def interval_system():
    return SemialgebraicSystem(1, (P("1 - x1^2"),))


# ----------------------------------------------------------------------
# monomial basis


def test_basis_univariate():
    b = monomial_basis(1, 2)
    assert b.monomials == ((0,), (1,), (2,))


def test_basis_two_vars_degree_one():
    b = monomial_basis(2, 1)
    assert b.monomials == ((0, 0), (1, 0), (0, 1))


def test_basis_two_vars_degree_two_size():
    b = monomial_basis(2, 2)
    assert len(b) == 6
    assert b.monomials == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_basis_graded_lex_strictly_increasing():
    from poslab.poly import grlex_key

    b = monomial_basis(3, 3)
    keys = [grlex_key(m) for m in b.monomials]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_basis_capacity_cap():
    with pytest.raises(CapacityError):
        monomial_basis(6, 12)  # binom(18,6) = 18564 > 2000


# ----------------------------------------------------------------------
# sos_decompose


def test_sos_square_binomial():
    res = sos_decompose(P("x1^2 + 2*x1 + 1"))
    assert res.found
    assert res.verification.residual_norm <= 1e-6
    # the 2x2 Gram over (1, x) is the all-ones matrix up to solver noise
    gram = res.certificate.entries[0].gram
    assert gram == pytest.approx(np.ones((2, 2)), abs=1e-5)


def test_sos_negative_somewhere_not_found():
    res = sos_decompose(P("x1^2 - 2*x1"))
    assert not res.found
    assert res.status == "infeasible-detected"


def test_sos_zero_polynomial():
    res = sos_decompose(P("x1") - P("x1"))
    assert res.found
    assert res.certificate.entries[0].gram == pytest.approx(np.zeros((1, 1)))


def test_sos_odd_degree_immediate():
    res = sos_decompose(P("x1^3 + 1"))
    assert not res.found
    assert res.status == "precondition"


# ----------------------------------------------------------------------
# module membership


def test_module_membership_affine_over_interval():
    res = module_membership(MembershipProblem(P("2 + x1"), interval_system(), 2))
    assert res.found
    report = verify(res.certificate, P("2 + x1"), 1e-6)
    assert report.passed


def test_module_membership_sign_obstruction():
    for level in (2, 4, 10):
        res = module_membership(
            MembershipProblem(P("0 - 1"), interval_system(), level)
        )
        assert not res.found
        assert "inconclusive" in res.reason


def test_module_membership_pure_sos_case():
    s = SemialgebraicSystem(2, ())
    res = module_membership(MembershipProblem(P("x1^2 + x2^2"), s, 2))
    assert res.found
    assert len(res.certificate.entries) == 1


def test_module_membership_level_below_degree():
    res = module_membership(MembershipProblem(P("x1^4", 1), interval_system(), 2))
    assert not res.found
    assert res.status == "precondition"


def test_module_membership_mode_guard():
    with pytest.raises(InputError):
        module_membership(
            MembershipProblem(P("x1"), interval_system(), 2, mode=PREORDERING)
        )


# ----------------------------------------------------------------------
# preordering membership


def test_preordering_empty_system_is_sos():
    s = SemialgebraicSystem(1, ())
    res = preordering_membership(
        MembershipProblem(P("x1^2 + 1"), s, 2, mode=PREORDERING)
    )
    assert res.found
    assert len(res.certificate.entries) == 1
    assert res.certificate.entries[0].index == ()


def test_preordering_reuses_module_case():
    res = preordering_membership(
        MembershipProblem(P("2 + x1"), interval_system(), 2, mode=PREORDERING)
    )
    assert res.found


def test_preordering_product_generator():
    quadrant = SemialgebraicSystem(2, (P("x1", 2), P("x2", 2)))
    res = preordering_membership(
        MembershipProblem(P("x1*x2"), quadrant, 2, mode=PREORDERING)
    )
    assert res.found
    report = verify(res.certificate, P("x1*x2"), 1e-6)
    assert report.passed
    # the quadratic module alone cannot reach x1*x2 at level 2
    mod = module_membership(MembershipProblem(P("x1*x2"), quadrant, 2))
    assert not mod.found


def test_preordering_dominates_module_on_fixtures():
    fixtures = [
        (P("2 + x1"), interval_system(), 2),
        (P("x1 + x2 + 2.5", 2), box_system(2), 2),
        (P("x1^2 + x2^2", 2), SemialgebraicSystem(2, ()), 2),
    ]
    for target, system, level in fixtures:
        mod = module_membership(MembershipProblem(target, system, level))
        assert mod.found
        pre = preordering_membership(
            MembershipProblem(target, system, level, mode=PREORDERING)
        )
        assert pre.found


def test_preordering_constraint_cap():
    many = SemialgebraicSystem(1, tuple(P("1 - x1^2") for _ in range(13)))
    with pytest.raises(CapacityError):
        MembershipProblem(P("1"), many, 2, mode=PREORDERING)


# ----------------------------------------------------------------------
# hierarchy bound


def test_lasserre_linear_objective_interval():
    res = lasserre_bound(P("x1"), interval_system(), 2)
    assert res.lower_bound == pytest.approx(-1.0, abs=1e-5)
    assert res.verification.passed


def test_lasserre_constant_objective():
    res = lasserre_bound(P("1", 1), interval_system(), 2)
    assert res.lower_bound == pytest.approx(1.0, abs=1e-6)


def test_lasserre_plane_over_box():
    res = lasserre_bound(P("x1 + x2 + 2"), box_system(2), 2)
    assert res.lower_bound == pytest.approx(0.0, abs=1e-5)
    assert res.verification.passed


def test_lasserre_level_below_degree_is_minus_inf():
    res = lasserre_bound(P("x1^4", 1), interval_system(), 2)
    assert res.lower_bound == float("-inf")
    assert not res.is_finite
    assert res.status == "precondition"


def test_lasserre_certificate_matches_shifted_objective():
    res = lasserre_bound(P("x1"), interval_system(), 4)
    assert res.verification.passed
    assert res.verification.residual_norm <= 1e-6
    assert res.verification.min_gram_eigenvalue >= -1e-8


def test_hierarchy_monotone_on_fixtures():
    f = P("x1^4 - 0.5*x1 - 0.2")
    s = interval_system()
    values = [lasserre_bound(f, s, k).lower_bound for k in (4, 6, 8)]
    for a, b in zip(values, values[1:]):
        assert a <= b + 1e-6


def test_hierarchy_below_grid_oracle():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(1, 3))
        f = random_positive_degree_polynomial(rng, n, 3)
        s = box_system(n)
        k = f.degree + (f.degree % 2)
        res = lasserre_bound(f, s, k)
        oracle = grid_min(f, s, GridSpec(41))
        assert res.lower_bound <= oracle.minimum_value + 1e-6


def test_lasserre_iteration_cap_raises_solver_error():
    from poslab import SdpOptions, SolverError

    tiny_cap = SdpOptions(max_iterations=3, stall_window=10**9)
    with pytest.raises(SolverError):
        lasserre_bound(P("x1"), interval_system(), 2, options=tiny_cap)


def test_lasserre_failed_verification_gives_no_bound():
    # a weighted-norm residual is never negative, so no certificate passes
    res = lasserre_bound(P("x1"), interval_system(), 2, residual_tol=-1.0)
    assert res.lower_bound == float("-inf")
    assert not res.is_finite
    assert "residual" in res.reason
    assert res.certificate is not None
    assert res.verification is not None and not res.verification.passed
    assert res.solver["status"] == "optimal"


def test_membership_iteration_cap_is_inconclusive():
    from poslab import SdpOptions

    tiny_cap = SdpOptions(max_iterations=3, stall_window=10**9)
    res = module_membership(
        MembershipProblem(P("2 + x1"), interval_system(), 2), options=tiny_cap
    )
    assert not res.found
    assert res.status == "max-iterations"
    assert "inconclusive" in res.reason


def test_positive_minimum_membership_at_low_level():
    # archimedean fixtures with strictly positive minimum: membership of f
    # itself appears at some level <= 10
    fixtures = [
        (P("2 + x1"), interval_system()),
        (P("x1 + x2 + 2.5", 2), box_system(2)),
        (P("x1^2 - x1 + 0.5"), interval_system()),
    ]
    for target, system in fixtures:
        found_level = None
        for level in range(2, 11, 2):
            res = module_membership(MembershipProblem(target, system, level))
            if res.found:
                found_level = level
                break
        assert found_level is not None
