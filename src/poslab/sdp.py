"""Dense small-scale semidefinite programming by operator splitting.

Solves

    minimize    sum_j <C_j, Q_j>
    subject to  sum_j <A_ij, Q_j> = b_i     (i = 1..m)
                Q_j PSD                      (j = 1..blocks)

with an over-relaxed ADMM scheme that alternates projection onto the affine
subspace (one dense pseudo-inverse, precomputed) and projection onto the PSD
cone (eigendecomposition with negative eigenvalues clipped), the linear
objective entering the affine step as a constant drift.  Simple,
dependency-free, deterministic, and adequate for Gram matrices of side up to
a few tens.

How an iteration runs
---------------------
Blocks live in one stacked svec vector.  The cone projection gathers all
blocks of one size into a ``(k, s, s)`` stack through index maps built once
per problem, makes one batched ``eigh`` call per distinct size, scatters the
clipped reconstructions back, and clips every 1x1 block in one vectorized
``maximum``.

The iterate (z, u) is a function of the single point s = z + u: by the
Moreau decomposition z is the cone projection of s and u = s - z.  One ADMM
step is therefore a fixed-point map s -> T(s).  When the problem has a
nonzero objective, safeguarded type-II Anderson acceleration extrapolates s
from the last ``ANDERSON_MEMORY`` steps once that many are stored.  An
extrapolated point is kept only if its own residual ||T(s) - s|| is lower
than that of the point it came from; otherwise the iteration steps from the
stored plain point instead and clears the memory.  Feasibility problems
(zero objective) run the plain map: there acceleration delays the stall
signature below (the growth of |u| over a window) and flips some
``infeasible-detected`` verdicts, so it costs more than it saves.  Every
iteration's stop and stall tests run on a plain step taken from a kept
point, so the returned blocks always come from a cone projection and are
exactly PSD, and ``iterations`` counts plain steps.

The PSD-side iterate is exactly PSD at every step, so a run can stop as soon
as that iterate satisfies the equalities:

* feasibility problems (zero objective) stop when the equality residual of
  the PSD iterate reaches ``stop_tol``;
* optimization problems stop on the classic fixed-point test, or earlier on
  a certified primal-dual gap: the affine projection multiplier doubles as a
  dual candidate y, and once ``|<c,z> - <b,y>|`` and the dual slack spectrum
  of ``c - A^T y`` are small the objective cannot move further (degenerate
  instances reach this certificate long before the consensus gap dies).

Statuses
--------
``optimal`` / ``feasible``
    residual contract met (``feasible`` when the objective is zero).
``infeasible-detected``
    the projection residual stalled above ``stall_residual`` for
    ``stall_window`` consecutive iterations while the dual iterate kept
    growing (bounded duals mean a feasible problem that is merely slow, so
    the run continues).  Splitting methods produce no infeasibility
    certificates, so this is a documented heuristic, never a proof; an
    inconsistent equality system, however, is detected exactly up front.
``max-iterations``
    neither of the above within ``max_iterations``.

Returned block values always come from the cone projection (exactly PSD);
``primal_residual`` reports how well they satisfy the equality constraints.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, SolverError

DEFAULT_MAX_TOTAL_DIM = 400
SDP_DIM_ENV_VAR = "POSLAB_MAX_SDP_DIM"
ANDERSON_MEMORY = 8
ANDERSON_REGULARIZATION = 1e-10  # relative Tikhonov weight of the least-squares fit
_PACK_CHUNK = 32  # matrices per symmetry check in _BlockLayout.pack


@dataclass(frozen=True)
class SdpConstraint:
    """One linear equality: sum over blocks of <matrices[j], Q_j> = rhs.

    ``matrices[j]`` may be None when block j does not appear.
    """

    matrices: tuple[np.ndarray | None, ...]
    rhs: float


@dataclass(frozen=True)
class SdpProblem:
    block_sizes: tuple[int, ...]
    constraints: tuple[SdpConstraint, ...]
    objective: tuple[np.ndarray | None, ...] | None = None

    @property
    def total_dim(self) -> int:
        return sum(self.block_sizes)


@dataclass(frozen=True)
class SdpOptions:
    eq_tol: float = 1e-8          # contract: ||A(Q) - b||_inf for ok output
    psd_tol: float = 1e-8         # contract: min eigenvalue of ok output
    stop_tol: float = 5e-10       # high-precision exit for all residuals
    cert_gap_tol: float = 3e-7    # certified exit: relative primal-dual gap
    cert_eig_tol: float = 5e-7    # certified exit: dual slack eigenvalue floor
    cert_check_every: int = 25
    max_iterations: int = 150_000
    over_relaxation: float = 1.6
    stall_window: int = 2_000
    stall_residual: float = 1e-5
    stall_improvement: float = 1e-3   # relative improvement that resets the window
    stall_dual_growth: float = 0.01   # required |u| growth per window, in units
                                      # of stall_window * residual
    unbounded_threshold: float = 1e12
    max_total_dim: int | None = None  # None: POSLAB_MAX_SDP_DIM env var, else 400

    def resolved_max_dim(self) -> int:
        if self.max_total_dim is not None:
            return self.max_total_dim
        env = os.environ.get(SDP_DIM_ENV_VAR)
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise InputError(f"{SDP_DIM_ENV_VAR} must be an integer, got {env!r}")
        return DEFAULT_MAX_TOTAL_DIM


@dataclass(frozen=True)
class SdpSolution:
    status: str  # optimal | feasible | infeasible-detected | max-iterations
    block_values: tuple[np.ndarray, ...]
    objective_value: float
    primal_residual: float
    min_eigenvalue: float
    iterations: int
    consensus_gap: float = 0.0
    dual_gap: float | None = None
    message: str = ""
    anderson_accepted: int = 0  # extrapolated points kept by the safeguard
    anderson_rejected: int = 0  # extrapolated points undone by the safeguard

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "feasible")

    def diagnostics(self) -> dict:
        return {
            "status": self.status,
            "objective_value": self.objective_value,
            "primal_residual": self.primal_residual,
            "min_eigenvalue": self.min_eigenvalue,
            "iterations": self.iterations,
            "consensus_gap": self.consensus_gap,
            "dual_gap": self.dual_gap,
            "message": self.message,
            "anderson_accepted": self.anderson_accepted,
            "anderson_rejected": self.anderson_rejected,
        }


# ----------------------------------------------------------------------
# symmetric vectorization: <A, B>_F == svec(A) . svec(B), with the upper
# triangle of each block stored row by row and off-diagonal entries scaled
# by sqrt(2)


@dataclass(frozen=True)
class _SizeClass:
    """Index maps between the svec segments of all blocks of one size and
    their stacked ``(k, size, size)`` matrix form."""

    size: int
    blocks: tuple[int, ...]  # block indices, in order
    segments: np.ndarray     # (k, p): svec position of each block's entries
    gather: np.ndarray       # (k, size, size): svec position of each matrix entry
    unscale: np.ndarray      # (size, size): sqrt(2) off the diagonal, 1 on it
    upper: np.ndarray        # (p,): flat position of the svec entries in size*size
    lower: np.ndarray        # (p,): flat position of their mirror images
    scale: np.ndarray        # (p,): sqrt(2) off the diagonal, 1 on it


class _BlockLayout:
    """Where each block sits in the stacked svec coordinate vector: one set
    of svec <-> stacked-matrix maps per distinct block size."""

    def __init__(self, block_sizes: tuple[int, ...]):
        self.sizes = block_sizes
        lengths = [s * (s + 1) // 2 for s in block_sizes]
        offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))[:-1]
        self.total = int(sum(lengths))
        self.classes: list[_SizeClass] = []
        for size in sorted(set(block_sizes)):
            blocks = tuple(j for j, s in enumerate(block_sizes) if s == size)
            rows, cols = np.triu_indices(size)
            local = np.zeros((size, size), dtype=np.intp)
            local[rows, cols] = np.arange(rows.size)
            local[cols, rows] = np.arange(rows.size)
            starts = offsets[list(blocks)]
            scale = np.where(rows != cols, np.sqrt(2.0), 1.0)
            self.classes.append(
                _SizeClass(
                    size=size,
                    blocks=blocks,
                    segments=starts[:, None] + np.arange(rows.size),
                    gather=starts[:, None, None] + local,
                    unscale=scale[local],
                    upper=rows * size + cols,
                    lower=cols * size + rows,
                    scale=scale,
                )
            )

    def _stack(self, vec: np.ndarray, cls: _SizeClass) -> np.ndarray:
        return vec[cls.gather] / cls.unscale

    def pack(self, rows) -> np.ndarray:
        """svec each row's block matrices (a tuple, None for an absent block)
        into one row of the returned ``(len(rows), total)`` array."""
        out = np.zeros((len(rows), self.total))
        for row in rows:
            if len(row) > len(self.sizes):
                raise InputError(
                    f"{len(row)} block matrices given for {len(self.sizes)} blocks"
                )
        for cls in self.classes:
            s = cls.size
            for seg, j in zip(cls.segments, cls.blocks):
                ids = [i for i, row in enumerate(rows) if j < len(row) and row[j] is not None]
                # a bounded number of matrices at a time keeps the temporaries
                # small next to ``out``
                for lo in range(0, len(ids), _PACK_CHUNK):
                    chunk = ids[lo : lo + _PACK_CHUNK]
                    mats = [np.asarray(rows[i][j], dtype=float) for i in chunk]
                    for arr in mats:
                        if arr.shape != (s, s):
                            raise InputError(
                                f"block {j} matrix has shape {arr.shape}, expected {(s, s)}"
                            )
                    stack = np.stack(mats)
                    flat = stack.reshape(len(chunk), s * s)
                    upper = flat[:, cls.upper]
                    if not np.array_equal(upper, flat[:, cls.lower]) and not np.isclose(
                        stack, stack.transpose(0, 2, 1), atol=1e-12
                    ).all():
                        raise InputError(f"block {j} matrix is not symmetric")
                    out[np.array(chunk)[:, None], seg] = upper * cls.scale
        return out

    def unpack(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        mats: list[np.ndarray | None] = [None] * len(self.sizes)
        for cls in self.classes:
            stack = self._stack(vec, cls)
            for j, mat in zip(cls.blocks, stack):
                mats[j] = mat
        return tuple(mats)

    def project_psd(self, vec: np.ndarray) -> np.ndarray:
        out = np.empty_like(vec)
        for cls in self.classes:
            if cls.size == 1:
                out[cls.segments] = np.maximum(vec[cls.segments], 0.0)
                continue
            w, v = np.linalg.eigh(self._stack(vec, cls))
            proj = (v * np.maximum(w, 0.0)[:, None, :]) @ v.transpose(0, 2, 1)
            flat = proj.reshape(len(cls.blocks), -1)
            out[cls.segments] = 0.5 * (flat[:, cls.upper] + flat[:, cls.lower]) * cls.scale
        return out

    def min_eigenvalue(self, vec: np.ndarray) -> float:
        worst = np.inf
        for cls in self.classes:
            if cls.size == 1:
                worst = min(worst, float(vec[cls.segments].min()))
            else:
                worst = min(worst, float(np.linalg.eigvalsh(self._stack(vec, cls)).min()))
        return worst if np.isfinite(worst) else 0.0


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map s -> T(s) (Walker &
    Ni 2011), memory ``ANDERSON_MEMORY``; the caller owns the safeguard."""

    def __init__(self, n: int):
        self._dt = np.zeros((ANDERSON_MEMORY, n))  # differences of T(s)
        self._dg = np.zeros((ANDERSON_MEMORY, n))  # differences of T(s) - s
        self.reset()

    def reset(self) -> None:
        self._count = 0
        self._last: tuple[np.ndarray, np.ndarray] | None = None

    def extrapolate(self, s: np.ndarray, t: np.ndarray) -> np.ndarray | None:
        """Record the step from s to t = T(s) and return the extrapolated
        next point, or None until the memory is full.

        Extrapolating from a partly filled memory, right after a start or a
        reset, mostly yields points the safeguard undoes again."""
        g = t - s
        if self._last is not None:
            last_t, last_g = self._last
            slot = self._count % ANDERSON_MEMORY
            self._dt[slot] = t - last_t
            self._dg[slot] = g - last_g
            self._count += 1
        self._last = (t, g)
        if self._count < ANDERSON_MEMORY:
            return None
        gram = self._dg @ self._dg.T
        # Tikhonov weight relative to the size of the differences and of the
        # residual: where the residual barely changes from step to step (the
        # map acts as a translation), the weights stay small instead of
        # blowing up to fit rounding noise.
        scale = float(gram.trace()) + float(g @ g)
        if not scale > 0.0:
            return None
        gram.flat[:: ANDERSON_MEMORY + 1] += ANDERSON_REGULARIZATION * scale
        gamma = np.linalg.solve(gram, self._dg @ g)
        return t - gamma @ self._dt


def solve(problem: SdpProblem, options: SdpOptions | None = None) -> SdpSolution:
    """Solve the block SDP; see module docstring for the status contract."""
    opts = options or SdpOptions()
    if problem.total_dim > opts.resolved_max_dim():
        raise CapacityError(
            f"total SDP dimension {problem.total_dim} exceeds cap "
            f"{opts.resolved_max_dim()} (override via {SDP_DIM_ENV_VAR})"
        )
    layout = _BlockLayout(problem.block_sizes)
    n = layout.total
    m = len(problem.constraints)

    a_mat = layout.pack([con.matrices for con in problem.constraints])
    b = np.array([float(con.rhs) for con in problem.constraints], dtype=float)

    c_vec = np.zeros(n)
    has_objective = False
    if problem.objective is not None:
        c_vec = layout.pack([problem.objective])[0]
        has_objective = bool(np.any(c_vec))

    # Row scaling; a zero row with nonzero rhs is an immediate contradiction.
    row_scale = np.linalg.norm(a_mat, axis=1) if m else np.zeros(0)
    for i in range(m):
        if row_scale[i] < 1e-12:
            if abs(b[i]) > 1e-12:
                zeros = layout.unpack(np.zeros(n))
                return SdpSolution(
                    status="infeasible-detected",
                    block_values=zeros,
                    objective_value=0.0,
                    primal_residual=abs(b[i]),
                    min_eigenvalue=0.0,
                    iterations=0,
                    message=f"constraint {i} reads 0 = {b[i]}",
                )
            row_scale[i] = 1.0
    a_hat = a_mat / row_scale[:, None] if m else a_mat
    b_hat = b / row_scale if m else b
    gram_pinv = (
        np.linalg.pinv(a_hat @ a_hat.T, rcond=1e-12, hermitian=True) if m else None
    )
    if m:
        # an inconsistent equality system is exactly detectable: the
        # least-squares point cannot satisfy the constraints
        ls_point = a_hat.T @ (gram_pinv @ b_hat)
        ls_residual = float(np.abs(a_hat @ ls_point - b_hat).max())
        if ls_residual > 1e-8 * max(1.0, float(np.abs(b_hat).max())):
            return SdpSolution(
                status="infeasible-detected",
                block_values=layout.unpack(np.zeros(n)),
                objective_value=0.0,
                primal_residual=float(np.abs(a_mat @ ls_point - b).max()),
                min_eigenvalue=0.0,
                iterations=0,
                message="equality constraints are mutually inconsistent",
            )

    rho_eff = max(1.0, float(np.linalg.norm(c_vec)))
    drift = c_vec / rho_eff
    c_scale = 1.0 + float(np.abs(c_vec).max()) if has_objective else 1.0
    alpha = opts.over_relaxation

    def plain_step(z, u):
        """One ADMM step from (z, u) up to the cone projection: the affine
        multiplier, the affine projection x and the point T(s)."""
        w = z - u - drift
        if m:
            mu = gram_pinv @ (a_hat @ w - b_hat)
            x = w - a_hat.T @ mu
        else:
            mu, x = np.zeros(0), w
        return mu, x, alpha * x + (1.0 - alpha) * z + u

    z = np.zeros(n)
    u = np.zeros(n)
    best_res = np.inf
    last_improvement = 0
    status = "max-iterations"
    message = ""
    iterations = opts.max_iterations
    gap = 0.0
    aff = 0.0
    dual_gap: float | None = None
    u_norm_hist = np.zeros(opts.stall_window)  # trailing |u| ring buffer

    # Acceleration state: the current point s = z + u, whether it was
    # extrapolated, the residual it must beat if so, and the plain step
    # (z, u, s) to return to when it does not.
    anderson = _Anderson(n) if has_objective else None
    s = np.zeros(n)
    extrapolated = False
    safe_norm = np.inf
    fallback = (z, u, s)
    accepted = rejected = 0

    for it in range(1, opts.max_iterations + 1):
        mu, x, t = plain_step(z, u)
        if anderson is not None:
            # Keep an extrapolated point only if its fixed-point residual
            # beat the one of the point it came from; otherwise step from
            # the stored plain point instead, so every iteration's stop and
            # stall tests see a plain step.
            res_norm = float(np.linalg.norm(t - s))
            if extrapolated and not res_norm < safe_norm:
                rejected += 1
                z, u, s = fallback
                anderson.reset()
                mu, x, t = plain_step(z, u)
                res_norm = float(np.linalg.norm(t - s))
            elif extrapolated:
                accepted += 1
            safe_norm = res_norm
        z_new = layout.project_psd(t)
        u = t - z_new

        gap = float(np.abs(x - z_new).max()) if n else 0.0
        step = float(np.abs(z_new - z).max()) if n else 0.0
        z = z_new
        if m:
            aff = float(np.abs((a_hat @ z - b_hat) * row_scale).max())
        else:
            aff = 0.0

        if not has_objective:
            # z is exactly PSD; meeting the equalities makes it a certificate.
            if aff <= opts.stop_tol:
                status = "feasible"
                iterations = it
                break
        else:
            if aff <= opts.stop_tol and gap <= opts.stop_tol and step <= opts.stop_tol:
                status = "optimal"
                iterations = it
                break
            if (
                m
                and aff <= opts.eq_tol
                and it % opts.cert_check_every == 0
            ):
                # The affine multiplier yields a dual candidate: at a fixed
                # point c - A^T y equals the (PSD) normal-cone element.
                # With the equality contract already met, a certified
                # primal-dual gap ends the slow tail that degenerate optimal
                # faces otherwise impose on the consensus residual.
                y = -rho_eff * mu
                primal = float(c_vec @ z)
                dual_val = float(b_hat @ y)
                pd_gap = abs(primal - dual_val)
                if pd_gap <= opts.cert_gap_tol * (1.0 + abs(primal) + abs(dual_val)):
                    slack_eig = layout.min_eigenvalue(c_vec - a_hat.T @ y)
                    if slack_eig >= -opts.cert_eig_tol * c_scale:
                        status = "optimal"
                        iterations = it
                        dual_gap = pd_gap
                        break

        res = max(gap, aff)
        if res < best_res * (1.0 - opts.stall_improvement):
            last_improvement = it
        if res < best_res:
            best_res = res
        u_norm = float(np.abs(u).max()) if n else 0.0
        window_ago = u_norm_hist[it % opts.stall_window]
        u_norm_hist[it % opts.stall_window] = u_norm
        if (
            it - last_improvement >= opts.stall_window
            and best_res > opts.stall_residual
            and it > opts.stall_window
            and u_norm - window_ago
            >= opts.stall_dual_growth * opts.stall_window * best_res
        ):
            # diverging duals over a stalled window are the splitting
            # method's infeasibility signature; bounded duals just mean slow
            status = "infeasible-detected"
            iterations = it
            message = (
                f"residual stalled at {best_res:.3e} for {opts.stall_window} "
                f"iterations with diverging duals"
            )
            break
        if not np.isfinite(res):
            raise SolverError(
                "numerical breakdown: nonfinite residual",
                {"iteration": it, "residual": res},
            )
        if has_objective and abs(float(c_vec @ z)) > opts.unbounded_threshold:
            status = "max-iterations"
            iterations = it
            message = "objective diverged; problem may be unbounded"
            break

        if anderson is None:
            continue
        s_next = anderson.extrapolate(s, t)
        if s_next is None:
            s = t
            extrapolated = False
        else:
            fallback = (z, u, t)
            s = s_next
            z = layout.project_psd(s)
            u = s - z
            extrapolated = True
    else:
        iterations = opts.max_iterations
        message = f"iteration cap reached with residual {best_res:.3e}"

    blocks = layout.unpack(z)
    min_eig = layout.min_eigenvalue(z)
    primal_residual = float(np.abs(a_mat @ z - b).max()) if m else 0.0
    objective_value = float(c_vec @ z)

    return SdpSolution(
        status=status,
        block_values=blocks,
        objective_value=objective_value,
        primal_residual=primal_residual,
        min_eigenvalue=min_eig,
        iterations=iterations,
        consensus_gap=gap,
        dual_gap=dual_gap,
        message=message,
        anderson_accepted=accepted,
        anderson_rejected=rejected,
    )
