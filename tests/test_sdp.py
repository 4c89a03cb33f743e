"""The splitting SDP solver: contracts, statuses, determinism, caps."""

import numpy as np
import pytest

from poslab import CapacityError, InputError, SdpProblem, sdp, solve
from poslab.certificate import DEFAULT_PSD_TOL
from poslab.sdp import CERT_CHECK_EVERY, EQ_TOL


def _svec(mats, sizes):
    """svec of a tuple of block matrices (None, or missing at the end, for
    a zero block): upper triangles row by row, off-diagonal times sqrt(2)."""
    parts = []
    for j, size in enumerate(sizes):
        rows, cols = np.triu_indices(size)
        mat = mats[j] if j < len(mats) else None
        if mat is None:
            parts.append(np.zeros(rows.size))
        else:
            weight = np.where(rows != cols, np.sqrt(2.0), 1.0)
            parts.append(np.asarray(mat, dtype=float)[rows, cols] * weight)
    return np.concatenate(parts)


def _problem(sizes, rows, objective=None):
    """SdpProblem from (block matrices, rhs) rows and block objective matrices."""
    width = sum(s * (s + 1) // 2 for s in sizes)
    constraints = np.array([_svec(mats, sizes) for mats, _ in rows]).reshape(len(rows), width)
    rhs = np.array([rhs for _, rhs in rows], dtype=float)
    return SdpProblem(
        sizes, constraints, rhs, None if objective is None else _svec(objective, sizes)
    )


E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])
E12 = np.array([[0.0, 0.5], [0.5, 0.0]])


def test_fully_constrained_trace_min():
    problem = _problem(
        (1,),
        (((np.array([[1.0]]),), 1.0),),
        (np.array([[1.0]]),),
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
    assert sol.block_values[0][0, 0] == pytest.approx(1.0, abs=1e-6)


def test_psd_2x2_determinant_infeasible():
    problem = _problem(
        (2,),
        (
            ((E11,), 1.0),
            ((E22,), 1.0),
            ((E12,), 2.0),
        ),
    )
    sol = solve(problem)
    assert sol.status == "infeasible-detected"


def test_min_corner_entry_rank_one_optimum():
    problem = _problem(
        (2,),
        (((E11,), 1.0), ((E12,), 1.0)),
        (E22,),
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
    assert sol.block_values[0] == pytest.approx(np.ones((2, 2)), abs=1e-6)


def test_solution_meets_residual_contract():
    problem = _problem(
        (2, 1),
        (
            ((E11, None), 1.0),
            ((E12, np.array([[1.0]])), 0.75),
        ),
        (E22, None),
    )
    sol = solve(problem)
    assert sol.ok
    assert sol.primal_residual <= EQ_TOL
    assert sol.min_eigenvalue >= -DEFAULT_PSD_TOL


def test_trace_constrained_matches_min_eigenvalue():
    # min <C, Q> s.t. tr Q = 1, Q PSD has optimum lambda_min(C); the oracle
    # (dense eigendecomposition) is independent of the solver path.
    rng = np.random.default_rng(0)
    for _ in range(8):
        k = int(rng.integers(2, 7))
        c = rng.normal(size=(k, k))
        c = 0.5 * (c + c.T)
        # make it diagonally dominant so the instance is well conditioned
        c = c + np.diag(np.abs(c).sum(axis=1))
        problem = _problem(
            (k,), (((np.eye(k),), 1.0),), (c,)
        )
        sol = solve(problem)
        assert sol.ok
        expected = float(np.linalg.eigvalsh(c)[0])
        assert sol.objective_value == pytest.approx(expected, abs=1e-6)


def test_feasibility_status_label():
    problem = _problem(
        (2,),
        (((E11,), 1.0), ((E12,), 0.5)),
    )
    sol = solve(problem)
    assert sol.status == "feasible"
    assert sol.min_eigenvalue >= -1e-12


def test_zero_row_contradiction_detected_immediately():
    zero = np.zeros((2, 2))
    problem = _problem((2,), (((zero,), 1.0),))
    sol = solve(problem)
    assert sol.status == "infeasible-detected"
    assert sol.iterations == 0


def test_bitwise_determinism():
    problem = _problem(
        (2,),
        (((E11,), 1.0), ((E12,), 1.0)),
        (E22,),
    )
    a = solve(problem)
    b = solve(problem)
    assert a.status == b.status
    assert a.objective_value == b.objective_value
    assert a.iterations == b.iterations
    for qa, qb in zip(a.block_values, b.block_values):
        assert np.array_equal(qa, qb)


def test_dimension_cap():
    problem = _problem((401,), ())
    with pytest.raises(CapacityError):
        solve(problem)


def test_dimension_cap_follows_the_constant(monkeypatch):
    # the cap is read from the module constant at each call
    problem = _problem((401,), ())
    monkeypatch.setattr(sdp, "MAX_TOTAL_DIM", 450)
    assert solve(problem).ok
    monkeypatch.setattr(sdp, "MAX_TOTAL_DIM", 100)
    with pytest.raises(CapacityError):
        solve(problem)


def test_problem_rejects_misshapen_arrays():
    # blocks (2, 1): svec length 3 + 1 = 4
    good = np.zeros((2, 4))
    SdpProblem((2, 1), good, np.zeros(2), np.zeros(4))
    for constraints, rhs, objective in (
        (np.zeros((2, 3)), np.zeros(2), None),   # a column short
        (np.zeros((2, 5)), np.zeros(2), None),   # a column over
        (np.zeros(4), np.zeros(1), None),        # one row, not a matrix
        (good, np.zeros(3), None),               # rhs longer than m
        (good, np.zeros((2, 1)), None),          # rhs not a vector
        (good, np.zeros(2), np.zeros(3)),        # objective a column short
        (good, np.zeros(2), np.zeros((1, 4))),   # objective not a vector
    ):
        with pytest.raises(InputError):
            SdpProblem((2, 1), constraints, rhs, objective)


def _diagonal_constrained_problem(k: int, seed: int) -> SdpProblem:
    # min <C, X> s.t. diag(X) = 1, X PSD (the max-cut relaxation)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(k, k))
    c = 0.5 * (c + c.T)
    constraints = []
    for i in range(k):
        e = np.zeros((k, k))
        e[i, i] = 1.0
        constraints.append(((e,), 1.0))
    return _problem((k,), tuple(constraints), (c,))


def test_acceleration_iteration_guard():
    # The plain over-relaxed iteration needs 350 iterations on this instance
    # (measured before acceleration was added); the accelerated solver must
    # need at most half of that and land on the same optimum.
    sol = solve(_diagonal_constrained_problem(6, seed=6))
    assert sol.status == "optimal"
    assert sol.iterations <= 350 // 2
    assert sol.objective_value == pytest.approx(-12.345918745, abs=1e-6)


def test_anderson_counters_on_optimization_form():
    sol = solve(_diagonal_constrained_problem(6, seed=6))
    diag = sol.diagnostics()
    # the safeguard keeps most extrapolated points and undoes a few
    assert diag["anderson_accepted"] > 0
    assert diag["anderson_rejected"] > 0
    assert diag["anderson_accepted"] + diag["anderson_rejected"] < sol.iterations


def _count_projections(monkeypatch):
    from poslab.sdp import _BlockLayout

    calls = []
    project = _BlockLayout.project_psd

    def counting(self, vec):
        calls.append(1)
        return project(self, vec)

    monkeypatch.setattr(_BlockLayout, "project_psd", counting)
    return calls


def _rank_two_feasibility_problem(k: int, m: int, seed: int) -> SdpProblem:
    # m random equalities satisfied by a rank-2 PSD matrix; no objective
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(k, 2))
    x0 = w @ w.T
    constraints = []
    for _ in range(m):
        a = rng.normal(size=(k, k))
        a = 0.5 * (a + a.T)
        constraints.append(((a,), float(np.sum(a * x0))))
    return _problem((k,), tuple(constraints))


def test_one_projection_per_iteration_plus_one_per_undone_point(monkeypatch):
    calls = _count_projections(monkeypatch)
    sol = solve(_diagonal_constrained_problem(6, seed=6))
    assert sol.status == "optimal"
    assert sol.anderson_accepted > 0
    assert len(calls) == sol.iterations + sol.anderson_rejected


def test_feasibility_form_projects_once_per_iteration(monkeypatch):
    calls = _count_projections(monkeypatch)
    sol = solve(_rank_two_feasibility_problem(6, 12, seed=4))
    assert sol.status == "feasible"
    # The plain iteration took 52 iterations here; the accelerated one,
    # which feasibility problems run too, takes 21.  Any change to the
    # iteration shows up here.
    assert sol.iterations == 21
    assert len(calls) == sol.iterations + sol.anderson_rejected


def test_anderson_counters_on_feasibility_form(monkeypatch):
    # Feasibility problems run the same accelerated loop.  This solve is
    # long enough (239 iterations) to fill the memory of 8 steps, extrapolate
    # and have the safeguard both keep and undo points.
    from poslab.sdp import _Anderson

    made = []
    extrapolate = _Anderson.extrapolate

    def recording(self, s, t):
        point = extrapolate(self, s, t)
        made.append(point is not None)
        return point

    monkeypatch.setattr(_Anderson, "extrapolate", recording)
    sol = solve(_rank_two_feasibility_problem(5, 8, seed=3))
    assert sol.status == "feasible"
    diag = sol.diagnostics()
    assert diag["anderson_accepted"] > 0
    assert diag["anderson_rejected"] > 0
    # each extrapolated point is judged by the next iteration, except the
    # one the run stopped on
    assert len(made) == sol.iterations
    assert diag["anderson_accepted"] + diag["anderson_rejected"] == sum(made[:-1])


def _box_bound_sdp(objective, level):
    """The hierarchy bound SDP of ``objective`` over the unit box in two
    variables: the membership SDP with its constant row as the objective."""
    from conftest import box_system
    from poslab import QUADRATIC_MODULE, parse_polynomial
    from poslab.sos import _compile, _generator_blocks

    system = box_system(2)
    blocks = _generator_blocks(system, level, QUADRATIC_MODULE)
    member = _compile(parse_polynomial(objective, 2), system, level, blocks)
    return SdpProblem(
        member.block_sizes, member.constraints[1:], member.rhs[1:],
        member.constraints[0],
    )


def test_breakdown_guard_never_acts_on_undone_points(monkeypatch):
    # The hierarchy SDP of a box case (n=2, level 4) with a long flat
    # residual.  Every other extrapolated point is moved 1e200 along -c, so
    # its fixed-point residual ||T(s) - s|| overflows to inf; the safeguard
    # undoes each of them.  Had the breakdown guard looked at one, the run
    # would raise SolverError; it must end optimal.
    from poslab.sdp import OVER_RELAXATION, _Anderson, _layout

    problem = _box_bound_sdp(
        "-0.249*x1^2 + 0.436*x1*x2 - 0.336*x2^2 - 1.741*x1 - 0.439*x2 - 1.985", 4
    )
    a, b, c = problem.constraints, problem.rhs, problem.objective
    layout = _layout(problem.block_sizes)
    a_pinv = np.linalg.pinv(a)
    drift = c / max(1.0, float(np.linalg.norm(c)))

    def residual(s):
        """||T(s) - s|| of one ADMM step from s, computed independently."""
        z = layout.project_psd(s)
        u = s - z
        w = z - u - drift
        x = w - a_pinv @ (a @ w - b)
        t = OVER_RELAXATION * x + (1.0 - OVER_RELAXATION) * z + u
        return float(np.linalg.norm(t - s))

    extrapolate = _Anderson.extrapolate
    moved = []

    def far_off(self, s, t):
        point = extrapolate(self, s, t)
        if point is None:
            return None
        moved.append(len(moved) % 2 == 0)
        if not moved[-1]:
            return point
        point = point - 1e200 * c
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(residual(point))
        return point

    monkeypatch.setattr(_Anderson, "extrapolate", far_off)
    with np.errstate(over="ignore"):  # the residual of each moved point
        sol = solve(problem)
    assert sol.status == "optimal"
    assert sum(moved) > 0
    assert sol.anderson_rejected >= sum(moved) - 1  # the last may be unjudged
    assert sol.iterations == 1939
    assert sol.anderson_rejected == 208
    # (sum_i sigma_i g_i)_0 = f_0 - (-4.314), the minimum over the box
    assert sol.objective_value == pytest.approx(-1.985 + 4.314, abs=1e-6)


def test_solve_keeps_no_second_copy_of_the_constraints(monkeypatch):
    # The row scaling lives in the pseudo-inverse, so one iteration
    # allocates far less than A itself; a row-scaled copy of A would take
    # the peak past A's size.
    import tracemalloc

    problem = _box_bound_sdp("x1*x2 + x1", 16)
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 1)
    solve(problem)  # the cached block layout is built outside the trace
    tracemalloc.start()
    try:
        sol = solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.iterations == 1
    assert sol.facial_reduction_dim == 0
    assert peak < 0.5 * problem.constraints.nbytes


def _svec_blocks(sizes, vec):
    """The symmetric block matrices of a svec vector."""
    mats = []
    offset = 0
    for s in sizes:
        rows, cols = np.triu_indices(s)
        weight = np.where(rows == cols, 1.0, np.sqrt(2.0))
        seg = vec[offset : offset + rows.size] / weight
        mat = np.zeros((s, s))
        mat[rows, cols] = seg
        mat[cols, rows] = seg
        mats.append(mat)
        offset += rows.size
    return mats


def test_farkas_certificate_holds_for_the_problem_as_given():
    # the 2x2 determinant problem: Q11 = Q22 = 1 and Q12 = 2 is not PSD
    problem = _problem(
        (2,),
        (
            ((E11,), 1.0),
            ((E22,), 1.0),
            ((E12,), 2.0),
        ),
    )
    sol = solve(problem)
    assert sol.status == "infeasible-detected"
    assert "Farkas certificate" in sol.message
    assert sol.farkas_rhs < 0
    assert sol.farkas_min_eigenvalue >= -1e-9
    assert sol.farkas_trace_bound > 0
    diag = sol.diagnostics()
    assert diag["farkas_rhs"] == sol.farkas_rhs
    assert diag["farkas_min_eigenvalue"] == sol.farkas_min_eigenvalue
    assert "farkas_y" not in diag
    # checked from y and the original (A, b) alone
    y = sol.farkas_y
    aty = problem.constraints.T @ y
    assert problem.rhs @ y < 0
    floor = -1e-9 * np.linalg.norm(aty)
    for block in _svec_blocks(problem.block_sizes, aty):
        assert np.linalg.eigvalsh(block)[0] >= floor


def test_no_farkas_fields_without_a_certificate():
    sol = solve(_rank_two_feasibility_problem(6, 12, seed=4))
    assert sol.status == "feasible"
    assert (sol.farkas_rhs, sol.farkas_min_eigenvalue, sol.farkas_y) == (None, None, None)
    assert sol.farkas_trace_bound is None
    opt = solve(_diagonal_constrained_problem(6, seed=6)).diagnostics()
    assert (opt["farkas_rhs"], opt["farkas_min_eigenvalue"]) == (None, None)


def test_accepting_witness_ends_the_run_at_the_first_check():
    problem = _rank_two_feasibility_problem(5, 8, seed=3)  # 239 iterations
    seen = []

    def accept(y):
        seen.append(y)
        return "accepted"

    sol = solve(problem, accept)
    assert sol.status == "infeasible-detected"
    assert sol.iterations == CERT_CHECK_EVERY
    assert sol.witness == "accepted"
    assert "disproof" in sol.message
    assert (sol.farkas_rhs, sol.farkas_y) == (None, None)
    assert len(seen) == 1 and seen[0].shape == problem.rhs.shape


def test_declining_witness_changes_nothing():
    problem = _rank_two_feasibility_problem(5, 8, seed=3)
    calls = []
    plain = solve(problem)
    declined = solve(problem, lambda y: calls.append(1))
    assert len(calls) == plain.iterations // CERT_CHECK_EVERY
    assert (declined.status, declined.iterations, declined.witness) == (
        plain.status, plain.iterations, None
    )
    assert np.array_equal(declined.block_values[0], plain.block_values[0])
    # the pinned run of test_feasibility_form_projects_once_per_iteration
    pinned = solve(_rank_two_feasibility_problem(6, 12, seed=4), witness=None)
    assert pinned.iterations == 21


def test_witness_sees_the_farkas_candidate_as_given():
    # the 2x2 determinant problem ends on a Farkas certificate; the witness
    # saw the same y, in the form of farkas_y before its scaling
    problem = _problem(
        (2,),
        (
            ((E11,), 1.0),
            ((E22,), 1.0),
            ((E12,), 2.0),
        ),
    )
    seen = []
    sol = solve(problem, seen.append)
    assert sol.farkas_rhs is not None
    last = seen[-1]
    scaled = last / np.linalg.norm(problem.constraints.T @ last)
    assert scaled == pytest.approx(sol.farkas_y, rel=1e-12, abs=1e-15)


def test_optimization_solve_never_calls_the_witness():
    problem = _diagonal_constrained_problem(6, seed=6)
    calls = []
    sol = solve(problem, lambda y: calls.append(1) or "accepted")
    assert calls == []
    assert sol.status == "optimal"
    assert sol.iterations == solve(problem).iterations


def test_layouts_are_cached_and_read_only():
    from poslab.sdp import _layout

    layout = _layout((3, 1, 3))
    assert _layout((3, 1, 3)) is layout
    arrays = [layout.diagonal] + [
        a for c in layout.classes for a in vars(c).values() if isinstance(a, np.ndarray)
    ]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = 0


def _per_block_projection(sizes, vec):
    """Reference PSD projection: one eigendecomposition per block."""
    out = []
    offset = 0
    for s in sizes:
        rows, cols = np.triu_indices(s)
        weight = np.where(rows == cols, 1.0, np.sqrt(2.0))
        seg = vec[offset : offset + rows.size] / weight
        mat = np.zeros((s, s))
        mat[rows, cols] = seg
        mat[cols, rows] = seg
        w, v = np.linalg.eigh(mat)
        proj = (v * np.clip(w, 0.0, None)) @ v.T
        out.append(proj[rows, cols] * weight)
        offset += rows.size
    return np.concatenate(out)


def test_batched_projection_matches_per_block_reference():
    from poslab.sdp import _BlockLayout

    # repeated sizes, several 1x1 blocks, sizes out of order
    sizes = (4, 1, 3, 4, 1, 2, 3, 1, 4, 5)
    layout = _BlockLayout(sizes)
    rng = np.random.default_rng(7)
    for _ in range(25):
        vec = rng.normal(size=layout.total) * rng.uniform(0.1, 10.0)
        proj = layout.project_psd(vec)
        assert np.max(np.abs(proj - _per_block_projection(sizes, vec))) <= 1e-12
        assert layout.min_eigenvalue(proj) >= -1e-12
        assert np.max(np.abs(layout.project_psd(proj) - proj)) <= 1e-12
        for block, s in zip(layout.unpack(proj), sizes):
            assert block.shape == (s, s)
            assert np.linalg.eigvalsh(block)[0] >= -1e-12


# ----------------------------------------------------------------------
# presolve: facial reduction by diagonal consistency


def _unit(size, i, j):
    """The symmetric matrix with <E, Q> = Q_ij (i == j) or 2 Q_ij (i != j)."""
    e = np.zeros((size, size))
    e[i, j] = e[j, i] = 1.0
    return e


def test_presolve_two_rounds_pads_exact_zeros():
    # Round 1: row 0 forces Q00 = 0, which removes Q01 and Q02.  Only then
    # is row 1 a one-signed diagonal row; round 2 forces Q11 = 0 and so
    # removes Q12.  Rows 0 and 1 end up all zero with rhs 0 and are dropped.
    problem = _problem(
        (3, 2),
        (
            ((_unit(3, 0, 0), None), 0.0),
            ((_unit(3, 1, 1) + 0.5 * _unit(3, 0, 1), None), 0.0),
            ((_unit(3, 2, 2), E11), 1.0),
            ((0.5 * _unit(3, 1, 2), E12), 0.5),
            ((None, E22), 2.0),
        ),
    )
    sol = solve(problem)
    assert sol.status == "feasible"
    assert (sol.facial_reduction_dim, sol.facial_reduction_rows) == (2, 2)
    q, r = sol.block_values
    assert q.shape == (3, 3) and r.shape == (2, 2)
    assert np.all(q[:2, :] == 0.0) and np.all(q[:, :2] == 0.0)
    # the residual is taken over every row of the original problem
    z = _svec(sol.block_values, (3, 2))
    expected = float(np.abs(problem.constraints @ z - problem.rhs).max())
    assert sol.primal_residual == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert sol.primal_residual <= EQ_TOL


def test_presolve_fixing_every_variable_is_feasible():
    problem = _problem(
        (2, 1),
        (
            ((E11, None), 0.0),
            ((E22, -np.eye(1)), 0.0),
            ((None, -np.eye(1)), 0.0),
        ),
    )
    sol = solve(problem)
    assert sol.status == "feasible"
    assert (sol.facial_reduction_dim, sol.facial_reduction_rows) == (3, 3)
    assert [b.shape for b in sol.block_values] == [(2, 2), (1, 1)]
    assert all(np.all(b == 0.0) for b in sol.block_values)
    assert sol.primal_residual == 0.0


def test_presolve_contradiction_names_the_original_row():
    # row 0 forces Q00 = 0 and is dropped; what is left of row 2 reads
    # 0 = 1, and the message counts rows of the problem as given
    problem = _problem(
        (2,),
        (((E11,), 0.0), ((E22,), 1.0), ((E12,), 1.0)),
    )
    sol = solve(problem)
    assert sol.status == "infeasible-detected"
    assert sol.iterations == 0
    assert sol.message == "constraint 2 reads 0 = 1.0"
    assert (sol.facial_reduction_dim, sol.facial_reduction_rows) == (1, 1)
    assert np.all(sol.block_values[0] == 0.0)


def test_presolve_leaves_mixed_sign_and_nonzero_rhs_rows_alone():
    # a diagonal row with both signs, and a one-signed one with rhs != 0,
    # force nothing: the problem reaches the loop unchanged
    problem = _problem(
        (2,),
        (((E11 - E22,), 0.0), ((E11 + E22,), 2.0)),
    )
    sol = solve(problem)
    assert sol.status == "feasible"
    assert (sol.facial_reduction_dim, sol.facial_reduction_rows) == (0, 0)
    assert sol.block_values[0][0, 0] == pytest.approx(1.0, abs=1e-8)


def test_zero_row_scan_reports_the_first_contradiction():
    zero = np.zeros((2, 2))
    problem = _problem(
        (2,),
        (((E11,), 1.0), ((zero,), 2.0), ((zero,), 3.0)),
    )
    sol = solve(problem)
    assert sol.status == "infeasible-detected"
    assert sol.iterations == 0
    assert sol.message == "constraint 1 reads 0 = 2.0"


@pytest.mark.parametrize(
    "sizes, rows, objective, residual",
    [
        # Q = 1 and Q = 2: mutually inconsistent
        ((1,), (((np.eye(1),), 1.0), ((np.eye(1),), 2.0)), (3.0 * np.eye(1),), 2.0),
        # Q = 5, then a zero row reading 0 = 2
        ((1,), (((np.eye(1),), 5.0), ((np.zeros((1, 1)),), 2.0)), None, 5.0),
        # the presolve fixes Q00 = 0, and what is left of row 2 reads 0 = 1
        ((2,), (((E11,), 0.0), ((E22,), 1.0), ((E12,), 1.0)), (-E22,), 1.0),
    ],
    ids=["inconsistent", "zero-row", "zero-row-on-a-face"],
)
def test_zero_iteration_verdicts_measure_their_blocks(sizes, rows, objective, residual):
    # A verdict at 0 iterations returns zero blocks; its residual, eigenvalue
    # and objective are those of these blocks on the problem as given.
    problem = _problem(sizes, rows, objective)
    sol = solve(problem)
    assert (sol.status, sol.iterations) == ("infeasible-detected", 0)
    z = _svec(sol.block_values, sizes)
    assert not z.any()
    assert sol.primal_residual == float(np.abs(problem.constraints @ z - problem.rhs).max())
    assert sol.primal_residual == residual
    assert sol.min_eigenvalue == min(np.linalg.eigvalsh(q).min() for q in sol.block_values)
    c = np.zeros_like(z) if problem.objective is None else problem.objective
    assert sol.objective_value == float(c @ z) == 0.0
