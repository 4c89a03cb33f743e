"""Polynomial arithmetic, the weighted norm, and its analytic bound lemmas."""

import math
import re

import numpy as np
import pytest

from conftest import (
    random_homogeneous_polynomial,
    random_nonzero_polynomial,
    random_polynomial,
    random_positive_degree_polynomial,
)
from poslab import (
    CapacityError,
    DimensionMismatchError,
    InputError,
    ParseError,
    Polynomial,
    format_polynomial,
    lipschitz_bound,
    multinomial,
    parse_polynomial,
    product_norm_bound,
    rescale,
    sup_bound,
    weighted_norm,
)
from poslab.poly import evaluate_exact

P = parse_polynomial


# ----------------------------------------------------------------------
# construction and arithmetic


def test_zero_polynomial_basics():
    z = Polynomial.zero(2)
    assert z.is_zero
    assert z.degree == 0
    assert weighted_norm(z) == 0.0


def test_stored_terms_never_zero():
    p = Polynomial(1, {(1,): 1.0, (2,): 0.0})
    assert list(p.terms()) == [((1,), 1.0)]


def test_mul_single_terms():
    x = P("x1")
    assert x * x == P("x1^2")


def test_add_cancellation_prunes():
    assert (P("x1") + P("-x1")).is_zero


def test_mul_hand_expansion():
    assert P("1 + x1") * P("1 - x1") == P("1 - x1^2")


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        P("x1") + P("x2")
    with pytest.raises(DimensionMismatchError):
        P("x1").evaluate([1.0, 2.0])


def test_power_matches_repeated_mul():
    g = P("1 - x1^2")
    assert g.power(3) == g * g * g
    assert g.power(0) == P("1")


# ----------------------------------------------------------------------
# evaluation


def test_evaluate_constant():
    assert P("1", 2).evaluate([0.3, -0.7]) == 1.0


def test_evaluate_two_terms():
    assert P("x1^2 + 2*x1*x2").evaluate([1.0, 1.0]) == 3.0


def test_evaluate_hand_arithmetic():
    # 2^3 - 5 = 3
    assert P("x1^3 - x2").evaluate([2.0, 5.0]) == 3.0


def test_evaluate_many_matches_scalar():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = random_polynomial(rng, 2, 4)
        pts = rng.uniform(-1, 1, size=(13, 2))
        vec = f.evaluate_many(pts)
        for i in range(pts.shape[0]):
            assert vec[i] == pytest.approx(f.evaluate(pts[i]), abs=1e-12)


def test_evaluate_is_bit_identical_to_its_row_of_evaluate_many():
    # one evaluator: a point alone gives exactly the float it gets in a batch
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(20):
            terms = {
                tuple(int(a) for a in rng.integers(0, 7, size=n)): float(rng.normal())
                for _ in range(int(rng.integers(1, 10)))
            }
            f = Polynomial(n, terms)
            pts = rng.normal(size=(50, n)) * rng.choice([1e-3, 1.0, 10.0, 1e3])
            vec = f.evaluate_many(pts)
            assert [f.evaluate(x) for x in pts] == vec.tolist()


def _evaluate_term_by_term(f: Polynomial, pts: np.ndarray) -> np.ndarray:
    # the reference: every term recomputes its powers
    total = np.zeros(pts.shape[0])
    for alpha, coef in f.terms():
        term = np.full(pts.shape[0], coef)
        for i, a in enumerate(alpha):
            if a:
                term *= pts[:, i] ** a
        total += term
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluate_many_bit_identical_to_term_by_term(n):
    rng = np.random.default_rng(100 + n)
    for degree in range(13):
        f = random_polynomial(rng, n, degree, max_terms=40)
        # zeros and negative zeros show a wrong sign or a missed term
        pts = rng.uniform(-1.3, 1.3, size=(257, n))
        pts[:3] = 0.0
        pts[3:6] = -0.0
        # row-major, as grid points are (strided columns), and column-major
        for layout in (pts, np.asfortranarray(pts)):
            got = f.evaluate_many(layout)
            want = _evaluate_term_by_term(f, layout)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _assert_grid_values_match_the_points(f, box, ppa):
    # the shape has length-1 axes exactly at the variables f does not use,
    # and broadcast to the grid it is evaluate_many on the points, bit for bit
    from poslab.semialg import grid_axes, grid_points

    got = f.evaluate_grid(grid_axes(box, ppa))
    used = [any(alpha[i] for alpha, _ in f.terms()) for i in range(f.dimension)]
    assert got.shape == tuple(ppa if u else 1 for u in used)
    flat = np.broadcast_to(got, (ppa,) * f.dimension).reshape(-1)
    want = f.evaluate_many(grid_points(box, ppa))
    assert np.array_equal(flat.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evaluate_grid_bit_identical_to_evaluate_many_on_the_grid_points(n):
    # per-axis powers and broadcast products against the (N, n) point array
    from poslab.semialg import grid_axes

    rng = np.random.default_rng(200 + n)
    per_axis = {1: 301, 2: 41, 3: 13, 4: 7}[n]
    for _ in range(100):
        terms = {
            tuple(int(a) for a in rng.integers(0, 9, size=n)): float(rng.normal())
            for _ in range(int(rng.integers(1, 12)))
        }
        box = tuple(tuple(sorted(rng.uniform(-2.0, 2.0, size=2))) for _ in range(n))
        ppa = int(rng.integers(2, per_axis + 1))
        _assert_grid_values_match_the_points(Polynomial(n, terms), box, ppa)
        # the same terms with a random set of variables dropped
        keep = rng.integers(0, 2, size=n)
        some = {tuple(int(a * b) for a, b in zip(alpha, keep)): c for alpha, c in terms.items()}
        _assert_grid_values_match_the_points(Polynomial(n, some), box, ppa)
    # a grid through 0 and a constant term: signed zeros and the bare scalar
    box = ((-1.0, 1.0),) * 2
    _assert_grid_values_match_the_points(
        Polynomial(2, {(0, 0): 0.5, (3, 0): -1.0, (1, 2): 2.0}), box, 5
    )
    # polynomials that omit variables: one-variable terms, a constant, zero
    box = ((-1.0, 1.0), (-0.5, 2.0), (0.0, 3.0))
    for f in (
        P("x2^3 - 2*x2 + 0.25", 3),
        P("x1^2 + x3^5 - x1*x3", 3),
        P("1 - x3^2", 3),
        P("-1.5", 3),
        Polynomial.zero(3),
    ):
        _assert_grid_values_match_the_points(f, box, 7)
    assert Polynomial.zero(3).evaluate_grid(grid_axes(box, 7)).shape == (1, 1, 1)
    assert P("1 - x3^2", 3).evaluate_grid(grid_axes(box, 7)).shape == (1, 1, 7)


def test_evaluate_grid_overflows_to_inf_without_a_warning():
    # pyproject turns a RuntimeWarning into an error
    assert P("x1^2").evaluate_grid([np.array([-1e200])])[0] == math.inf
    assert P("x1^2 - x1^3").evaluate_grid([np.array([1e103])])[0] == -math.inf
    # inf - inf has no value: NaN is refused
    with pytest.raises(InputError, match="is NaN on the grid"):
        P("x1^2 - x1^3").evaluate_grid([np.array([1.0, 1e200])])


def test_evaluate_grid_checks_its_axes():
    f = P("x1 + x2")
    with pytest.raises(DimensionMismatchError):
        f.evaluate_grid([np.linspace(0, 1, 3)])
    with pytest.raises(DimensionMismatchError):
        f.evaluate_grid([np.zeros((2, 2)), np.zeros(2)])


# ----------------------------------------------------------------------
# weighted norm


def test_multinomial_values():
    assert multinomial((2, 0)) == 1.0
    assert multinomial((1, 1)) == 2.0
    assert multinomial((1, 1, 1)) == 6.0
    with pytest.raises(CapacityError):
        multinomial((61,))


def test_weighted_norm_zero():
    assert weighted_norm(Polynomial.zero(3)) == 0.0


def test_weighted_norm_enumerated():
    # binom(2,(2,0)) = 1 gives 1/1; binom(2,(1,1)) = 2 gives 2/2; max = 1
    assert weighted_norm(P("x1^2 + 2*x1*x2")) == 1.0


def test_weighted_norm_six_xyz():
    assert weighted_norm(P("6*x1*x2*x3")) == 1.0


def test_weighted_norm_of_a_nan_coefficient_is_nan():
    # a residual with a NaN coefficient must not pass for a small one
    for terms in ({(0,): 1.0, (1,): math.nan}, {(0,): math.nan, (1,): 1.0}):
        assert math.isnan(weighted_norm(Polynomial(1, terms)))


# ----------------------------------------------------------------------
# sup bound


def test_sup_bound_formula():
    assert sup_bound(P("x1")) == 2.0
    assert sup_bound(P("x1^2 + 2*x1*x2")) == 16.0
    assert sup_bound(P("3*x1")) == 6.0


def test_sup_bound_rejects_constants():
    with pytest.raises(InputError):
        sup_bound(P("5"))


# ----------------------------------------------------------------------
# Lipschitz bound


def test_lipschitz_formula():
    assert lipschitz_bound(P("x1")) == 1.0
    assert lipschitz_bound(P("x1^2")) == 4.0
    # d^2 n^(d-1) sqrt(n) ||f||: ||x1*x2|| = 1/2, so 4 * 2 * sqrt(2) * 1/2
    assert lipschitz_bound(P("x1*x2")) == pytest.approx(4.0 * math.sqrt(2.0))
    assert lipschitz_bound(P("2*x1*x2")) == pytest.approx(8.0 * math.sqrt(2.0))


def test_lipschitz_rejects_zero():
    with pytest.raises(InputError):
        lipschitz_bound(Polynomial.zero(1))


# ----------------------------------------------------------------------
# rescale


def test_rescale_identity():
    assert rescale(P("x1^2"), 1.0) == P("x1^2")


def test_rescale_single_term():
    assert rescale(P("x1^2"), 2.0) == P("4*x1^2")


def test_rescale_per_term():
    assert rescale(P("x1 + x2^2"), 3.0) == P("3*x1 + 9*x2^2")


def test_rescale_rejects_nonpositive():
    with pytest.raises(InputError):
        rescale(P("x1"), 0.0)
    with pytest.raises(InputError):
        rescale(P("x1"), -1.0)


# ----------------------------------------------------------------------
# product norm bound


def test_product_norm_bound_values():
    assert product_norm_bound([P("x1")]) == 2.0
    assert product_norm_bound([P("x1"), P("x1")]) == 4.0
    assert weighted_norm(P("x1^2")) <= 4.0
    assert product_norm_bound([P("1 + x1"), P("1 - x1")]) == 4.0
    assert weighted_norm(P("1 - x1^2")) <= 4.0


def test_product_norm_bound_rejects_zero_factor():
    with pytest.raises(InputError):
        product_norm_bound([P("x1"), Polynomial.zero(1)])


# ----------------------------------------------------------------------
# parsing and printing


def test_parse_spec_example():
    p = P("2*x1^2*x2 - 3*x2 + 1")
    assert p.dimension == 2
    assert p.coefficient((2, 1)) == 2.0
    assert p.coefficient((0, 1)) == -3.0
    assert p.coefficient((0, 0)) == 1.0


def test_parse_whitespace_insensitive():
    assert P(" 2*x1 ^1+ 1 ".replace("^1", "")) == P("2*x1+1")


def test_parse_scientific_coefficients():
    p = P("1e-3*x1 - 2.5E+1")
    assert p.coefficient((1,)) == 1e-3
    assert p.coefficient((0,)) == -25.0


def test_parse_declared_dimension():
    p = P("x1", 3)
    assert p.dimension == 3


def test_parse_rejects_garbage():
    for bad in ("", "x0", "2**x1", "x1^", "y1", "1 + + 2"):
        with pytest.raises(ParseError):
            P(bad)
    with pytest.raises(ParseError):
        P("x3", 2)


@pytest.mark.parametrize(
    "text, named",
    [("nan*x1 + 2", "'nan*x1'"), ("inf + x1", "'inf'"), ("Infinity", "'Infinity'"),
     ("1e400*x1", "'1e400*x1'"), ("1e200*1e200", "'1e200*1e200'"),
     ("0*inf", "'0*inf'"), ("1e308*x1 + 1e308*x1", "exponent [1] sum to inf")],
)
def test_parse_refuses_coefficients_that_are_not_finite(text, named):
    with pytest.raises(ParseError, match=re.escape(named)):
        P(text)
    assert P("1e-400*x1 + 1e308").coefficient((0,)) == 1e308  # an underflow is 0


def test_format_parse_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        f = random_polynomial(rng, n, 4)
        if f.is_zero:
            continue
        assert P(format_polynomial(f), n) == f


def test_format_zero():
    assert format_polynomial(Polynomial.zero(2)) == "0"


# ----------------------------------------------------------------------
# randomized property suites (the analytic lemmas; zero violations)

CASES = 1000


def test_norm_scaling_homogeneity():
    rng = np.random.default_rng(101)
    for _ in range(CASES):
        n = int(rng.integers(1, 4))
        f = random_nonzero_polynomial(rng, n, 4)
        lam = float(rng.uniform(-3.0, 3.0))
        lhs = weighted_norm(f.scale(lam))
        rhs = abs(lam) * weighted_norm(f)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_norm_triangle_inequality():
    rng = np.random.default_rng(102)
    for _ in range(CASES):
        n = int(rng.integers(1, 4))
        f = random_polynomial(rng, n, 4)
        g = random_polynomial(rng, n, 4)
        assert weighted_norm(f + g) <= weighted_norm(f) + weighted_norm(g) + 1e-12


def test_homogeneous_submultiplicativity():
    rng = np.random.default_rng(103)
    for _ in range(CASES):
        n = int(rng.integers(1, 4))
        p = random_homogeneous_polynomial(rng, n, int(rng.integers(0, 4)))
        q = random_homogeneous_polynomial(rng, n, int(rng.integers(0, 4)))
        if p.is_zero or q.is_zero:
            continue
        assert weighted_norm(p * q) <= weighted_norm(p) * weighted_norm(q) * (
            1.0 + 1e-12
        )


def test_general_product_norm_bound():
    rng = np.random.default_rng(104)
    for _ in range(CASES):
        n = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        factors = [random_nonzero_polynomial(rng, n, 3) for _ in range(s)]
        prod = factors[0]
        for p in factors[1:]:
            prod = prod * p
        assert weighted_norm(prod) <= product_norm_bound(factors) * (1.0 + 1e-12)


def test_sup_bound_on_box_samples():
    rng = np.random.default_rng(105)
    for _ in range(CASES):
        n = int(rng.integers(1, 4))
        f = random_positive_degree_polynomial(rng, n, 4)
        x = rng.uniform(-1.0, 1.0, size=n)
        assert abs(f.evaluate(x)) <= sup_bound(f)


def test_lipschitz_bound_on_box_samples():
    rng = np.random.default_rng(106)
    for _ in range(CASES):
        n = int(rng.integers(1, 4))
        f = random_nonzero_polynomial(rng, n, 4)
        x = rng.uniform(-1.0, 1.0, size=n)
        y = rng.uniform(-1.0, 1.0, size=n)
        lhs = abs(f.evaluate(x) - f.evaluate(y))
        rhs = float(np.linalg.norm(x - y)) * lipschitz_bound(f) + 1e-9
        assert lhs <= rhs


def test_shifted_power_calculus_inequality():
    # (y-1)^(2k) * y <= 1/(2k+1) on [0,1]
    rng = np.random.default_rng(107)
    ys = rng.uniform(0.0, 1.0, size=CASES)
    for k in range(0, 51):
        vals = (ys - 1.0) ** (2 * k) * ys
        assert float(np.max(vals)) <= 1.0 / (2 * k + 1) + 1e-12


# ----------------------------------------------------------------------
# exact evaluation


def test_evaluate_exact_matches_rational_arithmetic():
    from fractions import Fraction

    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        f = random_polynomial(rng, n, 6)
        point = [float(v) for v in rng.uniform(-3.0, 3.0, n)]
        num, den = evaluate_exact(f, point)
        exact = sum(
            Fraction(c) * math.prod(Fraction(x) ** a for x, a in zip(point, alpha))
            for alpha, c in f.terms()
        )
        assert den > 0
        assert Fraction(num, den) == exact
        assert num / den == float(exact)


def test_evaluate_exact_sees_what_rounding_hides():
    # the float 0.1 is a little above a tenth: 10 * 0.1 - 1 rounds to 0.0,
    # but its exact value is 2^-54 > 0
    f = P("10*x1 - 1")
    assert f.evaluate([0.1]) == 0.0
    num, den = evaluate_exact(f, [0.1])
    assert num > 0 and num / den == 2.0**-54
    assert evaluate_exact(P("x1 - 0.1"), [0.1])[0] == 0
    assert evaluate_exact(Polynomial.zero(2), [1.5, 2.0])[0] == 0


def test_evaluate_exact_rejects_bad_points():
    with pytest.raises(DimensionMismatchError):
        evaluate_exact(P("x1 + x2"), [1.0])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InputError):
            evaluate_exact(P("x1"), [bad])
