"""The splitting SDP solver: contracts, statuses, determinism, caps."""

import numpy as np
import pytest

from poslab import CapacityError, SdpConstraint, SdpOptions, SdpProblem, solve
from poslab.sdp import SDP_DIM_ENV_VAR

E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])
E12 = np.array([[0.0, 0.5], [0.5, 0.0]])


def test_fully_constrained_trace_min():
    problem = SdpProblem(
        (1,),
        (SdpConstraint((np.array([[1.0]]),), 1.0),),
        (np.array([[1.0]]),),
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
    assert sol.block_values[0][0, 0] == pytest.approx(1.0, abs=1e-6)


def test_psd_2x2_determinant_infeasible():
    problem = SdpProblem(
        (2,),
        (
            SdpConstraint((E11,), 1.0),
            SdpConstraint((E22,), 1.0),
            SdpConstraint((E12,), 2.0),
        ),
    )
    sol = solve(problem)
    assert sol.status == "infeasible-detected"


def test_min_corner_entry_rank_one_optimum():
    problem = SdpProblem(
        (2,),
        (SdpConstraint((E11,), 1.0), SdpConstraint((E12,), 1.0)),
        (E22,),
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
    assert sol.block_values[0] == pytest.approx(np.ones((2, 2)), abs=1e-6)


def test_solution_meets_residual_contract():
    problem = SdpProblem(
        (2, 1),
        (
            SdpConstraint((E11, None), 1.0),
            SdpConstraint((E12, np.array([[1.0]])), 0.75),
        ),
        (E22, None),
    )
    opts = SdpOptions()
    sol = solve(problem, opts)
    assert sol.ok
    assert sol.primal_residual <= opts.eq_tol
    assert sol.min_eigenvalue >= -opts.psd_tol


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
        problem = SdpProblem(
            (k,), (SdpConstraint((np.eye(k),), 1.0),), (c,)
        )
        sol = solve(problem)
        assert sol.ok
        expected = float(np.linalg.eigvalsh(c)[0])
        assert sol.objective_value == pytest.approx(expected, abs=1e-6)


def test_feasibility_status_label():
    problem = SdpProblem(
        (2,),
        (SdpConstraint((E11,), 1.0), SdpConstraint((E12,), 0.5)),
    )
    sol = solve(problem)
    assert sol.status == "feasible"
    assert sol.min_eigenvalue >= -1e-12


def test_zero_row_contradiction_detected_immediately():
    zero = np.zeros((2, 2))
    problem = SdpProblem((2,), (SdpConstraint((zero,), 1.0),))
    sol = solve(problem)
    assert sol.status == "infeasible-detected"
    assert sol.iterations == 0


def test_bitwise_determinism():
    problem = SdpProblem(
        (2,),
        (SdpConstraint((E11,), 1.0), SdpConstraint((E12,), 1.0)),
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
    problem = SdpProblem((401,), ())
    with pytest.raises(CapacityError):
        solve(problem)
    assert solve(problem, SdpOptions(max_total_dim=500)).ok


def test_dimension_cap_env_override(monkeypatch):
    problem = SdpProblem((401,), ())
    monkeypatch.setenv(SDP_DIM_ENV_VAR, "450")
    assert solve(problem).ok
    monkeypatch.setenv(SDP_DIM_ENV_VAR, "100")
    with pytest.raises(CapacityError):
        solve(problem)


def test_rejects_asymmetric_matrices():
    from poslab import InputError

    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    problem = SdpProblem((2,), (SdpConstraint((bad,), 0.0),))
    with pytest.raises(InputError):
        solve(problem)


def _diagonal_constrained_problem(k: int, seed: int) -> SdpProblem:
    # min <C, X> s.t. diag(X) = 1, X PSD (the max-cut relaxation)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(k, k))
    c = 0.5 * (c + c.T)
    constraints = []
    for i in range(k):
        e = np.zeros((k, k))
        e[i, i] = 1.0
        constraints.append(SdpConstraint((e,), 1.0))
    return SdpProblem((k,), tuple(constraints), (c,))


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


def test_anderson_counters_zero_on_feasibility_form():
    problem = SdpProblem(
        (3, 1),
        (
            SdpConstraint((np.eye(3), None), 2.0),
            SdpConstraint((np.diag([1.0, -1.0, 0.0]), np.array([[1.0]])), 0.5),
        ),
    )
    sol = solve(problem)
    assert sol.status == "feasible"
    diag = sol.diagnostics()
    assert diag["anderson_accepted"] == 0
    assert diag["anderson_rejected"] == 0


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
