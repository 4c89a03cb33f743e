"""Membership compilation, SOS decomposition, and the hierarchy bound."""

import numpy as np
import pytest

from conftest import box_system, random_positive_degree_polynomial
from poslab import (
    QUADRATIC_MODULE,
    CapacityError,
    Certificate,
    CertificateEntry,
    GridSpec,
    InputError,
    MembershipProblem,
    PREORDERING,
    Polynomial,
    SemialgebraicSystem,
    SolverError,
    grid_min,
    lasserre_bound,
    module_membership,
    monomial_basis,
    parse_polynomial,
    preordering_membership,
    reconstruct,
    sdp,
    sos_decompose,
    verify,
)
from poslab import certificate
from poslab.certificate import verify_disproof
from poslab.poly import evaluate_exact

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
# compilation


def _captured_sdp(monkeypatch, call):
    """The SdpProblem that ``call()`` hands to ``sdp.solve``, solved as usual."""
    seen = []
    solve = sdp.solve

    def recording(problem, *args):
        seen.append(problem)
        return solve(problem, *args)

    monkeypatch.setattr(sdp, "solve", recording)
    result = call()
    assert len(seen) == 1
    return seen[0], result


@pytest.mark.parametrize(
    "mode, bound_form",
    [(QUADRATIC_MODULE, False), (QUADRATIC_MODULE, True), (PREORDERING, False)],
)
def test_compiled_rows_match_reconstructed_coefficients(mode, bound_form, monkeypatch):
    # The constraint matrix is written in svec coordinates, the certificate
    # module expands Gram matrices in sparse arithmetic: both must agree on
    # the coefficients of sum_i sigma_i g_i for any point of the svec space.
    from poslab.sdp import _BlockLayout
    from poslab.sos import _compile, _generator_blocks

    system = SemialgebraicSystem(
        2, (P("1 - x1^2 - 0.5*x2^2 + 0.3*x1*x2"), P("x1 + 0.25*x2^3 - 0.7", 2))
    )
    level = 6
    target = P("x1^3*x2 - 2*x2^2 + 0.5", 2)
    blocks = _generator_blocks(system, level, mode)
    problem = _compile(target, system, level, blocks)
    layout = _BlockLayout(problem.block_sizes)
    assert max(b.generator.degree for b in blocks) >= 2
    assert problem.constraints.shape == (28, layout.total)  # C(2 + 6, 2) rows
    assert problem.block_sizes == tuple(len(b.basis) for b in blocks)
    assert problem.objective is None

    rows = monomial_basis(2, level).monomials
    assert rows[0] == (0, 0)  # the constant row comes first
    assert np.array_equal(problem.rhs, [target.coefficient(alpha) for alpha in rows])
    rng = np.random.default_rng(5)
    for _ in range(3):
        v = rng.normal(size=layout.total)
        grams = layout.unpack(v)
        cert = Certificate(
            mode,
            system,
            tuple(
                CertificateEntry(block.label, block.basis, grams[j])
                for j, block in enumerate(blocks)
            ),
        )
        poly = reconstruct(cert)
        expected = np.array([poly.coefficient(alpha) for alpha in rows])
        assert np.max(np.abs(problem.constraints @ v - expected)) <= 1e-12
    if bound_form:
        # the bound SDP is this SDP with the constant row split off as the
        # objective (sum_i sigma_i g_i)_0; the free scalar has no block
        bound_sdp, _ = _captured_sdp(
            monkeypatch, lambda: lasserre_bound(target, system, level)
        )
        assert bound_sdp.block_sizes == problem.block_sizes
        assert np.array_equal(bound_sdp.constraints, problem.constraints[1:])
        assert np.array_equal(bound_sdp.rhs, problem.rhs[1:])
        assert np.array_equal(bound_sdp.objective, problem.constraints[0])


def _reference_compile(target, system, level, blocks):
    """The constraint matrix and right-hand side as a dict-of-tuples triple
    loop over Gram pairs and generator terms writes them."""
    rows = monomial_basis(system.dimension, level).monomials
    row_of = {alpha: i for i, alpha in enumerate(rows)}
    sizes = [len(b.basis) for b in blocks]
    constraints = np.zeros((len(rows), sum(s * (s + 1) // 2 for s in sizes)))
    col = 0
    for block in blocks:
        monos = block.basis.monomials
        for r in range(len(monos)):
            for s in range(r, len(monos)):
                weight = 1.0 if r == s else np.sqrt(2.0)
                for alpha, coef in block.generator.terms():
                    gamma = tuple(a + b + c for a, b, c in zip(monos[r], monos[s], alpha))
                    constraints[row_of[gamma], col] = coef * weight
                col += 1
    return constraints, np.array([target.coefficient(alpha) for alpha in rows])


class _Captured(Exception):
    pass


@pytest.mark.parametrize(
    "n, level, mode",
    [(1, 7, QUADRATIC_MODULE), (1, 6, PREORDERING), (2, 6, QUADRATIC_MODULE),
     (2, 5, PREORDERING), (3, 4, QUADRATIC_MODULE), (3, 4, PREORDERING),
     (4, 4, QUADRATIC_MODULE), (4, 3, PREORDERING),
     (40, 2, QUADRATIC_MODULE)],  # keys past int64: 3^41 > 2^63
)
def test_compile_is_bit_identical_to_the_reference_loop(n, level, mode, monkeypatch):
    from poslab.sos import _compile, _generator_blocks

    rng = np.random.default_rng(n * 100 + level)
    system = SemialgebraicSystem(n, tuple(
        random_positive_degree_polynomial(rng, n, 3, max_terms=5) for _ in range(2)
    ))
    target = random_positive_degree_polynomial(rng, n, level, max_terms=8)
    blocks = _generator_blocks(system, level, mode)
    constraints, rhs = _reference_compile(target, system, level, blocks)
    problem = _compile(target, system, level, blocks)
    assert problem.constraints.tobytes() == constraints.tobytes()
    assert problem.rhs.tobytes() == rhs.tobytes()
    if mode == QUADRATIC_MODULE:
        # the bound form: the constant row split off as the objective
        def capture(problem, *args):
            raise _Captured(problem)

        monkeypatch.setattr(sdp, "solve", capture)
        with pytest.raises(_Captured) as caught:
            lasserre_bound(target, system, level)
        bound_sdp = caught.value.args[0]
        assert bound_sdp.constraints.tobytes() == constraints[1:].tobytes()
        assert bound_sdp.rhs.tobytes() == rhs[1:].tobytes()
        assert bound_sdp.objective.tobytes() == constraints[0].tobytes()


def test_packed_keys_increase_in_graded_lex_order_and_add():
    from poslab.poly import key_monomials, monomial_keys

    for n, level in ((1, 5), (3, 4), (5, 3), (40, 2)):
        monos = monomial_basis(n, level).monomials
        keys = monomial_keys(monos, n, level)
        assert np.all(np.diff(keys) > 0)
        assert key_monomials(keys, n, level) == list(monos)
        low = [alpha for alpha in monos if 2 * sum(alpha) <= level]
        low_keys = monomial_keys(low, n, level)
        sums = [tuple(a + b for a, b in zip(x, y)) for x in low for y in low]
        assert np.array_equal(
            (low_keys[:, None] + low_keys).ravel(), monomial_keys(sums, n, level)
        )


def test_bound_sdp_has_one_block_per_generator(monkeypatch):
    f = P("x1^3 - x1")
    system = interval_system()
    bound_sdp, res = _captured_sdp(monkeypatch, lambda: lasserre_bound(f, system, 4))
    assert res.status == "optimal"
    # sigma_0 over (1, x1, x1^2), sigma_1 over (1, x1)
    assert bound_sdp.block_sizes == (3, 2)
    assert len(res.certificate.entries) == 2
    # the objective value is (sum_i sigma_i g_i)_0, so a = f_0 minus it
    assert res.lower_bound == f.coefficient((0,)) - res.solver["objective_value"]
    assert res.lower_bound == pytest.approx(-2 / 3**1.5, abs=1e-6)


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
    report = verify(res.certificate, P("2 + x1"))
    assert report.passed


def test_module_membership_sign_obstruction():
    # -1 is negative at every point of [-1, 1]: a disproof at every level,
    # where it was an inconclusive not-found before disproofs existed
    for level in (2, 4, 10):
        res = module_membership(
            MembershipProblem(P("0 - 1"), interval_system(), level)
        )
        assert not res.found
        assert res.disproof is not None and res.disproof.value == -1.0
        assert "no level of the cone" in res.reason


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


def test_stengle_member_is_found_at_a_high_level():
    # Stengle's family: 1 - x1^2 + eps over (1 - x1^2)^3 >= 0.  At eps = 1/16
    # a certificate exists at level 12, so at level 14 too; a stall test
    # that once ended this slow solve after 2,386 iterations reported it
    # infeasible-detected.
    target = P("1 - x1^2 + 0.0625")
    system = SemialgebraicSystem(1, (P("1 - 3*x1^2 + 3*x1^4 - x1^6"),))
    res = module_membership(MembershipProblem(target, system, 14))
    assert res.found
    assert res.status == "feasible"
    assert verify(res.certificate, target).passed


@pytest.mark.parametrize("level, closed_form", [(6, -1 / 3), (8, -1 / 8)])
def test_stengle_bound_sdp(level, closed_form):
    # The hierarchy bound of 1 - x1^2 over (1 - x1^2)^3 >= 0, whose true
    # minimum is 0: -1/3 at level 6 and -1/8 at level 8, the first two
    # values of the conjectured -1/(j^2 - 1) with j = k/2 - 1.  Level 10 is
    # left out: its solve still ends at the iteration cap.
    system = SemialgebraicSystem(1, (P("1 - 3*x1^2 + 3*x1^4 - x1^6"),))
    res = lasserre_bound(P("1 - x1^2"), system, level)
    assert res.status == "optimal"
    assert res.verification is not None and res.verification.passed
    assert res.lower_bound == pytest.approx(closed_form, abs=1e-7)


# Sums of two sparse squares in two variables (exponents (a, b) stand for
# x1^a x2^b).  Each one's Gram matrix over the degree-2 basis must vanish on
# two basis monomials, so its SDP has no interior point.  Without the
# presolve the first ended in a false infeasible-detected and the second in
# the 150,000-iteration cap.
SPARSE_SQUARE_SUMS = {
    "false-infeasible": (
        {(0, 2): 0.429, (1, 1): -0.494, (0, 1): -1.677},
        {(0, 2): 1.487, (1, 1): 1.609, (2, 0): 0.176},
    ),
    "iteration-cap": (
        {(2, 0): 0.914, (1, 0): -1.632, (0, 0): 0.4},
        {(1, 1): -0.9, (2, 0): 0.63, (1, 0): 0.249},
    ),
}


@pytest.mark.parametrize("name", sorted(SPARSE_SQUARE_SUMS))
def test_sparse_square_sums_found_after_facial_reduction(name):
    squares = [Polynomial(2, terms) for terms in SPARSE_SQUARE_SUMS[name]]
    f = squares[0] * squares[0] + squares[1] * squares[1]
    res = module_membership(MembershipProblem(f, SemialgebraicSystem(2, ()), 4))
    assert res.found
    assert res.status == "feasible"
    assert verify(res.certificate, f).passed
    assert res.solver["facial_reduction_dim"] == 2
    assert res.solver["facial_reduction_rows"] == 6
    assert res.solver["iterations"] < 1_000


def test_linear_form_is_exactly_not_a_sum_of_squares():
    # the rows of 1 and x1^2 force the whole Gram matrix to zero, which
    # leaves the row of x1 reading 0 = 1: an exact verdict, no iteration
    res = module_membership(MembershipProblem(P("x1"), SemialgebraicSystem(1, ()), 2))
    assert not res.found
    assert res.status == "infeasible-detected"
    assert res.solver["iterations"] == 0
    assert res.solver["message"] == "constraint 1 reads 0 = 1.0"
    assert res.solver["facial_reduction_dim"] == 2


# Known non-members: 1 - x1^2 is negative on x1 >= 0 beyond 1, and the
# Motzkin polynomial is nonnegative but not a sum of squares.
NON_MEMBERS = {
    "arch": (P("1 - x1^2"), SemialgebraicSystem(1, (P("x1"),)), 2),
    "motzkin": (
        P("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1", 2), SemialgebraicSystem(2, ()), 6
    ),
}


@pytest.mark.parametrize("name", sorted(NON_MEMBERS))
def test_non_members_end_on_a_farkas_certificate(name):
    target, system, level = NON_MEMBERS[name]
    res = module_membership(MembershipProblem(target, system, level))
    assert not res.found
    assert res.status == "infeasible-detected"
    assert res.solver["iterations"] <= 100
    assert res.solver["farkas_rhs"] < 0
    assert res.solver["farkas_min_eigenvalue"] >= -1e-9
    assert f"Farkas certificate for level {level}" in res.reason
    assert "untruncated cone" in res.reason
    # Motzkin is nonnegative, and the arch's candidates average to a point
    # where it is not negative: neither gives a disproof
    assert res.disproof is None


# A dense quartic negative at a feasible point of the unit box, so outside
# every level of its quadratic module.
NEGATIVE_ON_BOX = P(
    "0.10715585400292066*x1^4 - 0.8149669837463638*x1^3*x2"
    " - 2.4266612578357254*x1^2*x2^2 + 1.2576421243732154*x1*x2^3"
    " + 0.008069298866344443*x2^4 - 0.15465239106204018*x1^3"
    " - 1.3823542886501363*x1^2*x2 + 0.20723323175964448*x1*x2^2"
    " + 0.5014709760140081*x2^3 + 1.1594081886073033*x1^2"
    " - 0.5437424507119801*x1*x2 + 3.712530746428579*x2^2"
    " - 2.449313203315182*x1 + 2.805202686989838*x2 - 1.2342012221198266",
    2,
)


def test_farkas_certificate_checks_against_the_compiled_problem():
    from poslab.sdp import _BlockLayout
    from poslab.sos import _compile, _generator_blocks

    system = box_system(2)
    assert grid_min(NEGATIVE_ON_BOX, system, GridSpec(41)).minimum_value < 0
    blocks = _generator_blocks(system, 4, QUADRATIC_MODULE)
    problem = _compile(NEGATIVE_ON_BOX, system, 4, blocks)
    sol = sdp.solve(problem)
    assert sol.status == "infeasible-detected"
    assert sol.facial_reduction_dim == 0
    # y is a pseudo-moment functional: checked from y and (A, b) alone
    y = sol.farkas_y
    aty = problem.constraints.T @ y
    assert problem.rhs @ y < 0
    floor = -1e-9 * np.linalg.norm(aty)
    for block in _BlockLayout(problem.block_sizes).unpack(aty):
        assert np.linalg.eigvalsh(block)[0] >= floor


def test_negative_on_box_ends_on_an_exact_disproof():
    system = box_system(2)
    res = module_membership(MembershipProblem(NEGATIVE_ON_BOX, system, 4))
    assert not res.found
    assert res.status == "infeasible-detected"
    # the first Farkas candidate already names the point
    assert res.solver["iterations"] == sdp.CERT_CHECK_EVERY
    assert "disproof" in res.solver["message"]
    assert res.solver["farkas_rhs"] is None
    assert "no level of the cone" in res.reason
    point = res.disproof.point
    # re-checked from the point alone, in exact arithmetic
    again = verify_disproof(NEGATIVE_ON_BOX, system, point)
    assert again.passed
    assert again.value == res.disproof.value < 0
    assert all(evaluate_exact(g, point)[0] >= 0 for g in system.constraints)
    assert evaluate_exact(NEGATIVE_ON_BOX, point)[0] < 0


# The certify case negative1-po of the benchmark's seed 6: a quartic negative
# at a point of the unit disc, in its level-4 preordering.  Before disproofs
# it was the one case of seeds 1-10 that the stall heuristic decided, after
# 2,006 iterations.
NEGATIVE_ON_DISC = P(
    "-0.5117219920774422*x1^4 + 0.0950180734778594*x1^3*x2"
    " - 0.9519916308661054*x1^2*x2^2 + 2.5635647388270684*x1*x2^3"
    " - 0.4734005189300632*x2^4 + 2.698992304994874*x1^3"
    " - 0.16525696260974576*x1^2*x2 + 2.281410653938864*x1*x2^2"
    " - 1.7673877979828385*x2^3 + 0.15587508865966893*x1^2"
    " - 2.210737229451663*x1*x2 - 0.5764984126794197*x2^2"
    " - 3.429248628289805*x1 + 2.7305661702758277*x2 + 0.28537609901815664",
    2,
)


def test_stall_case_ends_on_a_disproof_at_the_first_check():
    disc = SemialgebraicSystem(2, (P("1 - x1^2 - x2^2"),))
    res = preordering_membership(
        MembershipProblem(NEGATIVE_ON_DISC, disc, 4, PREORDERING)
    )
    assert res.status == "infeasible-detected"
    assert res.solver["iterations"] == sdp.CERT_CHECK_EVERY
    assert "stall" not in res.reason
    assert verify_disproof(NEGATIVE_ON_DISC, disc, res.disproof.point).passed


# A member with a positive definite Gram matrix: the benchmark's certify case
# member3-qm of seed 1 (cubic ball in three variables, level 4).
PD_MEMBER = P(
    "-0.8997409668815266*x1^4 - 1.53612371770116*x1^3*x2"
    " + 0.8616479585388641*x1^3*x3 - 1.320773849822252*x1^2*x2^2"
    " + 2.68892664982921*x1^2*x2*x3 - 2.587446855819493*x1^2*x3^2"
    " - 1.1557460613771486*x1*x2^3 + 0.8106159796674964*x1*x2^2*x3"
    " - 1.0828446829068332*x1*x2*x3^2 + 0.5032456321740058*x1*x3^3"
    " - 0.41502917342678347*x2^4 + 2.181769943057057*x2^3*x3"
    " - 1.792054229688248*x2^2*x3^2 + 1.7406909257510315*x2*x3^3"
    " - 1.0964252731537651*x3^4 + 4.720012431907373*x1^3"
    " + 3.9253830661388522*x1^2*x2 - 7.372766357727398*x1^2*x3"
    " + 3.103815374994835*x1*x2^2 - 0.19551383107983455*x1*x2*x3"
    " + 5.8865185222531435*x1*x3^2 + 3.3826047994036985*x2^3"
    " - 6.064964842155756*x2^2*x3 + 4.404823640555068*x2*x3^2"
    " - 7.56478796487108*x3^3 - 3.079894257264778*x1^2"
    " + 0.7549909992049321*x1*x2 - 2.780145023984061*x1*x3"
    " - 6.061960538402443*x2^2 - 1.8175422392876623*x2*x3"
    " - 3.63033125021058*x3^2 - 3.311378886101245*x1"
    " - 3.3426486653209304*x2 + 5.189360542122235*x3 + 8.295012107900456",
    3,
)


def test_members_never_get_a_disproof(monkeypatch):
    # A member is nonnegative on S, so no exact check can accept a point.
    # Count the candidates each solve hands the witness.
    solve = sdp.solve
    consulted = []

    def counting(problem, witness=None):
        def wrapped(y):
            consulted[-1] += 1
            return witness(y)

        consulted.append(0)
        return solve(problem, None if witness is None else wrapped)

    monkeypatch.setattr(sdp, "solve", counting)
    sparse = [
        Polynomial(2, a) * Polynomial(2, a) + Polynomial(2, b) * Polynomial(2, b)
        for a, b in (SPARSE_SQUARE_SUMS[name] for name in sorted(SPARSE_SQUARE_SUMS))
    ]
    members = [
        (PD_MEMBER, SemialgebraicSystem(3, (P("1 - x1^2 - x2^2 - x3^2"),)), 4),
        (P("x1 + 1.02"), interval_system(), 8),  # minimum 0.02, at the boundary
        (sparse[0], SemialgebraicSystem(2, ()), 4),
        (sparse[1], SemialgebraicSystem(2, ()), 4),
        (DENSE_RANK_TWO, SemialgebraicSystem(3, ()), 4),
    ]
    for target, system, level in members:
        res = module_membership(MembershipProblem(target, system, level))
        assert res.found
        assert res.disproof is None
    # the long solves did consult it: every CERT_CHECK_EVERY iterations
    assert consulted[1] >= 1 and consulted[4] >= 40


def test_infeasible_reason_names_its_evidence(monkeypatch):
    target, system, level = NON_MEMBERS["arch"]
    exact = lasserre_bound(P("x1"), SemialgebraicSystem(1, ()), 2)
    assert exact.status == "infeasible-detected"
    assert "(exact: the level-2 SDP is infeasible" in exact.reason
    assert "untruncated cone" in exact.reason
    # a solve cut before its first Farkas check has no evidence: it ends at
    # the iteration cap, which is inconclusive
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", sdp.CERT_CHECK_EVERY - 1)
    capped = module_membership(MembershipProblem(target, system, level))
    assert capped.status == "max-iterations"
    assert capped.solver["farkas_rhs"] is None
    assert capped.solver["message"].startswith("iteration cap reached")
    assert "inconclusive" in capped.reason


@pytest.mark.parametrize("objective,level", [("-x1", 2), ("-x1^3", 4)])
def test_unbounded_objective_ends_on_a_farkas_certificate(objective, level):
    # f is unbounded below on x1 >= 0, so no shift of it is in the cone.  The
    # presolve cannot see it (b_i != 0); the Farkas check of the
    # optimization form does, at its first check.
    res = lasserre_bound(P(objective), SemialgebraicSystem(1, (P("x1"),)), level)
    assert res.status == "infeasible-detected"
    assert res.lower_bound == float("-inf")
    assert res.solver["iterations"] == sdp.CERT_CHECK_EVERY
    assert res.solver["farkas_rhs"] is not None
    assert (
        f"Farkas certificate for level {level}: no Gram certificate exists"
        in res.reason
    )


def test_every_infeasible_verdict_carries_evidence(monkeypatch):
    # exact (0 iterations), a Farkas certificate, or an accepted witness:
    # no other kind of infeasible-detected exists
    solve = sdp.solve
    verdicts = []

    def recording(problem, witness=None):
        sol = solve(problem, witness)
        if sol.status == "infeasible-detected":
            verdicts.append(sol)
        return sol

    monkeypatch.setattr(sdp, "solve", recording)
    for target, system, level in NON_MEMBERS.values():
        module_membership(MembershipProblem(target, system, level))
    module_membership(MembershipProblem(NEGATIVE_ON_BOX, box_system(2), 4))
    disc = SemialgebraicSystem(2, (P("1 - x1^2 - x2^2"),))
    preordering_membership(MembershipProblem(NEGATIVE_ON_DISC, disc, 4, PREORDERING))
    for level in (2, 4, 10):
        module_membership(MembershipProblem(P("0 - 1"), interval_system(), level))
    sos_decompose(P("x1^2 - 2*x1"))
    sos_decompose(P("x1^2 - x1^4"))
    module_membership(MembershipProblem(P("x1"), SemialgebraicSystem(1, ()), 2))
    lasserre_bound(P("x1"), SemialgebraicSystem(1, ()), 2)
    for objective, level in (("-x1", 2), ("-x1^3", 4)):
        lasserre_bound(P(objective), SemialgebraicSystem(1, (P("x1"),)), level)
    kinds = set()
    for sol in verdicts:
        if sol.iterations == 0:
            kinds.add("exact")
        elif sol.farkas_rhs is not None:
            kinds.add("farkas")
        elif sol.witness is not None:
            kinds.add("witness")
        else:
            pytest.fail(f"infeasible-detected without evidence: {sol.message}")
    assert kinds == {"exact", "farkas", "witness"}


# A sum of two squares of dense quadratics in three variables, so its Gram
# matrix over the degree-2 basis has rank 2 of 10.  The plain feasibility
# iteration ended it in a false infeasible-detected.
DENSE_RANK_TWO = P(
    "4.133005000000001*x1^4 - 6.2080459999999995*x1^3*x2 - 5.254708*x1^3*x3"
    " + 10.914785*x1^2*x2^2 + 3.7634399999999997*x1^2*x2*x3"
    " + 3.646367999999999*x1^2*x3^2 - 7.21516*x1*x2^3"
    " - 8.489215999999999*x1*x2^2*x3 - 5.498659999999999*x1*x2*x3^2"
    " - 0.5897120000000002*x1*x3^3 + 2.422432*x2^4 + 2.985848*x2^3*x3"
    " + 5.206848999999999*x2^2*x3^2 + 3.369792*x2*x3^3 + 1.5613599999999999*x3^4"
    " - 3.640918*x1^3 + 3.7191019999999995*x1^2*x2 - 3.6158*x1^2*x3"
    " - 0.5267399999999997*x1*x2^2 + 1.3164120000000001*x1*x2*x3"
    " + 1.8801960000000004*x1*x3^2 - 1.4700800000000003*x2^3 - 4.389572*x2^2*x3"
    " - 0.8971539999999996*x2*x3^2 - 0.3792319999999998*x3^3 + 2.007701*x1^2"
    " - 1.096596*x1*x2 + 1.672812*x1*x3 + 1.5409520000000003*x2^2"
    " + 1.1019040000000002*x2*x3 + 3.0996810000000004*x3^2 - 0.745928*x1"
    " - 0.45244000000000006*x2 - 0.4074440000000001*x3 + 0.16714",
    3,
)


def test_dense_rank_deficient_sum_of_squares_is_found():
    res = module_membership(
        MembershipProblem(DENSE_RANK_TWO, SemialgebraicSystem(3, ()), 4)
    )
    assert res.found
    assert res.status == "feasible"
    assert verify(res.certificate, DENSE_RANK_TWO).passed


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
    report = verify(res.certificate, P("x1*x2"))
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


def test_lasserre_long_flat_residual_is_not_a_stall():
    # A random hierarchy case (n=2 on the box, level 4) whose SDP sits on a
    # flat residual for most of its run: the solver that ran the stop tests
    # on the plain step of every iteration took 2,340 iterations here, 2,140
    # of them on a flat residual of about 7.5e-4.  A slow feasible problem
    # must run on to its optimum; only a certificate may end it early.
    f = P(
        "-0.249*x1^2 + 0.436*x1*x2 - 0.336*x2^2 - 1.741*x1 - 0.439*x2 - 1.985", 2
    )
    res = lasserre_bound(f, box_system(2), 4)
    assert res.status == "optimal"
    assert res.is_finite
    assert res.verification is not None and res.verification.passed
    # the minimum, -4.314, sits at the corner (1, 1) and level 4 is exact
    assert res.lower_bound <= -4.314 + 1e-7
    assert res.lower_bound == pytest.approx(-4.314, abs=1e-6)
    # the solver's exact path: any change to the compiled arithmetic or to
    # the solver's summation order moves these
    assert res.lower_bound == -4.314000000974289
    assert (
        res.solver["iterations"],
        res.solver["anderson_accepted"],
        res.solver["anderson_rejected"],
    ) == (1938, 210, 191)
    # the box generators mix signs: nothing is reduced
    assert res.solver["facial_reduction_dim"] == 0
    assert res.solver["facial_reduction_rows"] == 0


def test_lasserre_iteration_cap_raises_solver_error(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 3)
    with pytest.raises(SolverError):
        lasserre_bound(P("x1"), interval_system(), 2)


def test_lasserre_failed_verification_gives_no_bound(monkeypatch):
    # a weighted-norm residual is never negative, so no certificate passes
    monkeypatch.setattr(certificate, "DEFAULT_RESIDUAL_TOL", -1.0)
    res = lasserre_bound(P("x1"), interval_system(), 2)
    assert res.lower_bound == float("-inf")
    assert not res.is_finite
    assert "residual" in res.reason
    assert res.certificate is not None
    assert res.verification is not None and not res.verification.passed
    assert res.solver["status"] == "optimal"


def test_membership_iteration_cap_is_inconclusive(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 3)
    res = module_membership(MembershipProblem(P("2 + x1"), interval_system(), 2))
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
