"""Dense small-scale semidefinite programming by operator splitting.

Solves

    minimize    sum_j <C_j, Q_j>
    subject to  sum_j <A_ij, Q_j> = b_i     (i = 1..m)
                Q_j PSD                      (j = 1..blocks)

with an over-relaxed ADMM scheme that alternates projection onto the affine
subspace (one dense pseudo-inverse of A A^T, taken with the rows scaled to
unit norm and scaled back, so that the steps use A as given) and projection
onto the PSD cone (eigendecomposition with negative eigenvalues clipped), the
linear objective entering the affine step as a constant drift.  Simple,
dependency-free, deterministic, and adequate for Gram matrices of side up to
a few tens.

Input format
------------
An ``SdpProblem`` gives A, b and C in svec coordinates, the only form the
solver uses.  The svec vector of the blocks (Q_1, ..., Q_blocks) is the
concatenation, in block order, of each block's upper triangle read row by
row, with the off-diagonal entries scaled by sqrt(2), so that
<A, Q>_F = svec(A) . svec(Q) for symmetric A and Q.  A is a dense
(m, svec length) array with one row per equality; symmetry of the A_ij is
built into the format, so there is nothing to check.

How an iteration runs
---------------------
Blocks live in one stacked svec vector.  The cone projection gathers all
blocks of one size into a ``(k, s, s)`` stack through index maps built once
per tuple of block sizes and shared, read-only, between solves, makes one
batched ``eigh`` call per distinct size, scatters the clipped
reconstructions back, and clips every 1x1 block in one vectorized
``maximum``.

The iterate (z, u) is a function of the single point s = z + u: by the
Moreau decomposition z is the cone projection of s and u = s - z.  One ADMM
step is therefore a fixed-point map s -> T(s), and an iteration makes one
cone projection, at the point it moves to.  It takes the affine step from
(z, u), which gives t = T(s), then picks the next point s': t itself, or,
once the last ``ANDERSON_MEMORY`` steps are stored, the safeguarded type-II
Anderson extrapolation of the stored steps.  Then it projects once,
z = P(s'), u = s' - z, and runs the stop tests on that z (exactly PSD) with
the affine step just taken.  Feasibility problems (zero objective) and
optimization problems run this same loop; only their stop tests differ.

The safeguard judges an extrapolated s' in the next iteration: s' is kept
only if its own residual ||T(s') - s'|| is lower than that of the point it
came from.  Otherwise the iteration projects the stored plain point t
instead, steps from there and clears the memory.  So a solve makes
``iterations + anderson_rejected`` projections, and ``iterations`` counts
affine steps from kept points.

The breakdown guard (a nonfinite residual raises ``SolverError``) runs
once per iteration, on the point the loop continues from, after the
safeguard's verdict on it: it never acts on a point the safeguard undoes.

The PSD-side iterate is exactly PSD at every step, so a run can stop as soon
as that iterate satisfies the equalities:

* feasibility problems (zero objective) stop when the equality residual of
  the PSD iterate reaches ``STOP_TOL``;
* optimization problems stop on the classic fixed-point test, or earlier on
  a certified primal-dual gap: the affine projection multiplier doubles as a
  dual candidate y, and once ``|<c,z> - <b,y>|`` and the dual slack spectrum
  of ``c - A^T y`` are small the objective cannot move further (degenerate
  instances reach this certificate long before the consensus gap dies);
* both stop, checked every ``CERT_CHECK_EVERY`` iterations, when the last
  dual step yields a Farkas certificate (below).

Farkas certificates
-------------------
On an infeasible problem the dual steps u - u_prev converge to x* - z*, the
shortest vector from the PSD cone to the affine set (Banjac, Goulart,
Stellato & Boyd 2019), whatever the objective.  Its negative z* - x* is PSD
and normal to the affine set, so it is A^T y for a Farkas certificate y.
Every ``CERT_CHECK_EVERY`` iterations a solve of either form takes the last
step d = u_prev - u, fits y = (A A^T)^+ A d by least squares and scales it
to |A^T y| = 1.  It accepts y when b^T y < -``FARKAS_RHS_TOL`` and
lambda_min(A^T y) >= -``FARKAS_EIG_TOL``.
The test is plain algebra on y, whatever point the step came from (one the
safeguard later undoes is as good a source as any).

What y proves: for every PSD Q with A(Q) = b, b^T y = <A^T y, Q> >=
lambda_min(A^T y) trace(Q).  With lambda_min = -delta < 0, every PSD
solution of the reduced system has trace(Q) >= |b^T y| / delta; with
lambda_min >= 0, none exists.  The presolve below is exact, so a
certificate for the reduced problem proves the same of the problem as
given.  For a membership SDP, y is a truncated
pseudo-moment functional (Lasserre's dual): PSD moment and localizing
matrices, negative on the target.

A caller that can read more from y passes ``solve`` a witness predicate.
At each check, before the Farkas test, the loop computes y once and hands it
to the predicate in the original row order, with 0 on the rows the presolve
dropped (the form of ``farkas_y``); the Farkas test then uses the same y.
A return value other than None ends the run as ``infeasible-detected``
with a "disproof" message, and ``SdpSolution.witness`` holds it.  The
predicate alone vouches for what it accepts: ``sos`` uses it to read a point
of the feasible set where the target is negative from y's first moments,
and checks that point exactly.  Optimization solves never call it.

Presolve
--------
Before the loop, ``solve`` runs an exact partial facial reduction by
diagonal consistency (Loefberg 2009; Permenter & Parrilo 2018).  A row with
b_i == 0 whose nonzeros, among the surviving svec entries, all sit on the
diagonal and share one sign forces those diagonal entries to zero, and since
the blocks are PSD, the whole Gram row and column of each.  Their svec
entries are removed and the rule is applied again until nothing changes;
then rows that are all zero with b_i == 0 are dropped.  A row that is all
zero with b_i != 0 stays, and the up-front zero-row check turns it into an
exact ``infeasible-detected`` at 0 iterations, naming the row by its index
in the problem as given.  It uses exact comparisons only (``== 0`` and
signs), so it needs no tolerance.

Sums of a few sparse squares are the typical case: a monomial whose
coefficient is 0 and that only a square of a basis monomial can produce
forces that Gram diagonal entry to zero.  Such a feasible set has no
interior point, and there the iteration stalls or crawls.  The loop solves
the smaller problem; blocks reduced to size 0 leave it.  The returned blocks
are zero-padded back to the original sizes, and ``primal_residual``,
``min_eigenvalue`` and ``objective_value`` are measured on the original
problem.  When the presolve removes nothing, the loop gets the original
arrays, so it runs exactly as without it.  ``facial_reduction_dim`` counts
the Gram rows and columns fixed at zero (summed over blocks) and
``facial_reduction_rows`` the rows dropped.

Statuses
--------
``optimal`` / ``feasible``
    residual contract met (``feasible`` when the objective is zero): the
    equality residual is at most ``EQ_TOL``.
``infeasible-detected``
    one of three kinds of evidence, which the message names:

    * exact, at 0 iterations: a row the presolve leaves reading
      0 = b_i != 0, or an inconsistent equality system;
    * a Farkas certificate: ``farkas_rhs`` and ``farkas_min_eigenvalue``
      hold b^T y and lambda_min(A^T y) at |A^T y| = 1, ``farkas_y`` holds
      y, and the message gives the trace bound above;
    * a value the caller's witness predicate accepted (feasibility problems
      only, "disproof" in the message, ``witness`` holds the value).
``max-iterations``
    neither of the above within ``MAX_ITERATIONS``: the iteration cap is the
    only fallback stop.  An unbounded optimization problem ends here too;
    the solver proves no unboundedness.

Every setting above is a module constant, and so is the cap on the total
dimension, ``MAX_TOTAL_DIM``; nothing is read at run time.

Every verdict returns the same way.  Block values come from the cone
projection (exactly PSD; all zero for a verdict at 0 iterations), zero-padded
to the original sizes, and ``primal_residual``, ``min_eigenvalue`` and
``objective_value`` are measured on those blocks and the problem as given.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, SolverError

MAX_TOTAL_DIM = 400             # cap on the sum of the block sizes
EQ_TOL = 1e-8                   # contract: ||A(Q) - b||_inf for ok output
STOP_TOL = 5e-10                # high-precision exit for all residuals
CERT_GAP_TOL = 3e-7             # certified exit: relative primal-dual gap
CERT_EIG_TOL = 5e-7             # certified exit: dual slack eigenvalue floor
CERT_CHECK_EVERY = 25
MAX_ITERATIONS = 150_000
OVER_RELAXATION = 1.6
ANDERSON_MEMORY = 8
ANDERSON_REGULARIZATION = 1e-10  # relative Tikhonov weight of the least-squares fit
FARKAS_EIG_TOL = 1e-9           # Farkas test: lambda_min(A^T y) floor at |A^T y| = 1
FARKAS_RHS_TOL = 1e-6           # Farkas test: b^T y ceiling -FARKAS_RHS_TOL


@dataclass(frozen=True)
class SdpProblem:
    """The block SDP in svec coordinates, the solver's one input format.

    A svec vector concatenates the blocks in order, each block's upper
    triangle row by row with off-diagonal entries scaled by sqrt(2).
    ``constraints`` is the (m, svec length) matrix A whose row i is the svec
    vector of (A_i1, ..., A_i,blocks); ``rhs`` is the m-vector b;
    ``objective`` is the svec vector of (C_1, ..., C_blocks), or None for a
    feasibility problem."""

    block_sizes: tuple[int, ...]
    constraints: np.ndarray
    rhs: np.ndarray
    objective: np.ndarray | None = None

    def __post_init__(self):
        n = sum(s * (s + 1) // 2 for s in self.block_sizes)
        a = np.asarray(self.constraints, dtype=float)
        b = np.asarray(self.rhs, dtype=float)
        if a.ndim != 2 or a.shape[1] != n:
            raise InputError(
                f"constraints have shape {a.shape}, expected (m, {n}) for "
                f"blocks {self.block_sizes}"
            )
        if b.shape != (a.shape[0],):
            raise InputError(f"rhs has shape {b.shape}, expected ({a.shape[0]},)")
        object.__setattr__(self, "constraints", a)
        object.__setattr__(self, "rhs", b)
        if self.objective is not None:
            c = np.asarray(self.objective, dtype=float)
            if c.shape != (n,):
                raise InputError(f"objective has shape {c.shape}, expected ({n},)")
            object.__setattr__(self, "objective", c)

    @property
    def total_dim(self) -> int:
        return sum(self.block_sizes)


def _trace_bound(rhs: float, lam: float) -> float:
    """For y with b^T y = rhs < 0 and A^T y >= lam * I: every PSD Q with
    A(Q) = b has b^T y = <A^T y, Q> >= lam * trace(Q), so trace(Q) >= rhs /
    lam when lam < 0, and no such Q exists when lam >= 0."""
    return float("inf") if lam >= 0.0 else rhs / lam


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
    facial_reduction_dim: int = 0   # Gram rows/columns the presolve fixed at zero
    facial_reduction_rows: int = 0  # equality rows the presolve dropped
    # A Farkas certificate y of the reduced system, scaled to |A^T y| = 1:
    # b^T y and lambda_min(A^T y); None without one.
    farkas_rhs: float | None = None
    farkas_min_eigenvalue: float | None = None
    # y in the original row order, 0 on the rows the presolve dropped: with
    # the original A, A^T y restricted to the Gram rows and columns the
    # presolve kept is the certificate
    farkas_y: np.ndarray | None = None
    # what the caller's witness predicate returned when it ended the run
    witness: object | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "feasible")

    @property
    def farkas_trace_bound(self) -> float | None:
        """The trace that every PSD solution of the reduced system would need,
        by the Farkas certificate: inf when A^T y is exactly PSD, None without
        a certificate."""
        if self.farkas_rhs is None:
            return None
        return _trace_bound(self.farkas_rhs, self.farkas_min_eigenvalue)

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
            "facial_reduction_dim": self.facial_reduction_dim,
            "facial_reduction_rows": self.facial_reduction_rows,
            "farkas_rhs": self.farkas_rhs,
            "farkas_min_eigenvalue": self.farkas_min_eigenvalue,
        }


# ----------------------------------------------------------------------
# block layout


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
    diagonal: np.ndarray     # (p,): True on the svec entries of the diagonal


class _BlockLayout:
    """Where each block sits in the stacked svec coordinate vector: one set
    of svec <-> stacked-matrix maps per distinct block size."""

    def __init__(self, block_sizes: tuple[int, ...]):
        self.sizes = block_sizes
        lengths = [s * (s + 1) // 2 for s in block_sizes]
        offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))[:-1]
        self.total = int(sum(lengths))
        self.diagonal = np.zeros(self.total, dtype=bool)  # svec diagonal entries
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
                    diagonal=rows == cols,
                )
            )
            cls = self.classes[-1]
            self.diagonal[cls.segments[:, cls.diagonal]] = True
        # layouts are shared through ``_layout``: nothing may write to them
        self.diagonal.flags.writeable = False
        for cls in self.classes:
            for arr in vars(cls).values():
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False

    def _stack(self, vec: np.ndarray, cls: _SizeClass) -> np.ndarray:
        return vec[cls.gather] / cls.unscale

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

    def gram_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """The Gram row and column of each svec entry, numbering the rows of
        all blocks consecutively in block order."""
        firsts = np.concatenate(([0], np.cumsum(self.sizes, dtype=np.intp)))[:-1]
        row = np.empty(self.total, dtype=np.intp)
        col = np.empty(self.total, dtype=np.intp)
        for cls in self.classes:
            first = firsts[list(cls.blocks)][:, None]
            row[cls.segments] = first + cls.upper // cls.size
            col[cls.segments] = first + cls.upper % cls.size
        return row, col

    def min_eigenvalue(self, vec: np.ndarray) -> float:
        worst = np.inf
        for cls in self.classes:
            if cls.size == 1:
                worst = min(worst, float(vec[cls.segments].min()))
            else:
                worst = min(worst, float(np.linalg.eigvalsh(self._stack(vec, cls)).min()))
        return worst if np.isfinite(worst) else 0.0


@functools.lru_cache(maxsize=64)
def _layout(block_sizes: tuple[int, ...]) -> _BlockLayout:
    """The layout of ``block_sizes``, built once per distinct tuple: a
    hierarchy solves many SDPs with the same blocks, and building the index
    maps costs more than a hundred microseconds."""
    return _BlockLayout(block_sizes)


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


@dataclass(frozen=True)
class _Face:
    """The problem restricted to the face of the PSD cone that the presolve
    found: the surviving blocks, svec entries and equality rows."""

    block_sizes: tuple[int, ...]  # nonempty blocks, at their reduced sizes
    columns: np.ndarray           # surviving svec entries, in order
    rows: np.ndarray              # surviving equality rows, in order
    dim: int                      # Gram rows/columns fixed at zero


def _facial_reduction(
    layout: _BlockLayout, a_mat: np.ndarray, b: np.ndarray
) -> _Face | None:
    """Partial facial reduction by diagonal consistency; None when it removes
    nothing.

    A row with b_i == 0 whose nonzeros on the surviving svec entries all sit
    on the diagonal and share one sign forces those diagonal entries to zero,
    and with each of them its whole Gram row and column.  Rounds repeat until
    no row forces anything new; rows left all zero with b_i == 0 are dropped.
    Every comparison is exact."""
    zero_rhs = np.flatnonzero(b == 0)
    pattern = (a_mat != 0)[zero_rhs]
    off_diagonal = ~layout.diagonal
    fixed = np.zeros(sum(layout.sizes), dtype=bool)
    alive = gram = None
    while True:
        # boolean matmul: does the row have a nonzero on a live off-diagonal?
        live = off_diagonal if alive is None else off_diagonal & alive
        candidates = zero_rhs[~(pattern @ live)]
        entries = a_mat[candidates]
        if alive is not None:
            entries = np.where(alive, entries, 0.0)
        positive = (entries > 0).any(axis=1)
        negative = (entries < 0).any(axis=1)
        forcing = positive != negative
        if not forcing.any():
            break
        if gram is None:
            gram = layout.gram_indices()
        row, col = gram
        fixed[row[(entries[forcing] != 0).any(axis=0)]] = True
        alive = ~(fixed[row] | fixed[col])
    dropped = candidates[~(positive | negative)]
    if alive is None and not dropped.size:
        return None
    kept = np.split(~fixed, np.cumsum(layout.sizes)[:-1])  # per block
    rows = np.ones(len(b), dtype=bool)
    rows[dropped] = False
    return _Face(
        block_sizes=tuple(int(k.sum()) for k in kept if k.any()),
        columns=np.arange(layout.total) if alive is None else np.flatnonzero(alive),
        rows=np.flatnonzero(rows),
        dim=int(fixed.sum()),
    )


def solve(problem: SdpProblem, witness=None) -> SdpSolution:
    """Solve the block SDP; see module docstring for the status contract.

    ``witness``, if given, is called on each Farkas candidate of a
    feasibility solve, before the Farkas test, with y in the original row
    order and 0 on the rows the presolve dropped.  A return value other
    than None ends the run as ``infeasible-detected`` and is kept in
    ``SdpSolution.witness``; see *Farkas certificates*."""
    if problem.total_dim > MAX_TOTAL_DIM:
        raise CapacityError(
            f"total SDP dimension {problem.total_dim} exceeds cap {MAX_TOTAL_DIM}"
        )
    full = _layout(tuple(problem.block_sizes))
    c_full = np.zeros(full.total) if problem.objective is None else problem.objective
    face = _facial_reduction(full, problem.constraints, problem.rhs)
    if face is None:
        layout, a_mat, b, c_vec = full, problem.constraints, problem.rhs, c_full
        rows = np.arange(len(b))
    else:
        layout = _layout(face.block_sizes)
        a_mat = problem.constraints[np.ix_(face.rows, face.columns)]
        b = problem.rhs[face.rows]
        c_vec = c_full[face.columns]
        rows = face.rows
    n = layout.total
    has_objective = bool(np.any(c_vec))

    # The row scaling lives in the pseudo-inverse alone: (A A^T)^+ taken of
    # the row-scaled Gram matrix, so A itself is used as given.
    row_scale = np.sqrt(np.einsum("ij,ij->i", a_mat, a_mat))
    zero_rows = row_scale < 1e-12
    contradictions = np.flatnonzero(zero_rows & (np.abs(b) > 1e-12))
    row_scale[zero_rows] = 1.0
    outer = np.outer(row_scale, row_scale)
    gram_pinv = (
        np.linalg.pinv((a_mat @ a_mat.T) / outer, rcond=1e-12, hermitian=True) / outer
    )
    # an inconsistent equality system is exactly detectable: the
    # least-squares point cannot satisfy the constraints (residual and
    # threshold per unit row norm)
    ls_point = a_mat.T @ (gram_pinv @ b)
    ls_residual = float(np.abs((a_mat @ ls_point - b) / row_scale).max(initial=0.0))

    status: str | None = None  # set by the verdict that ends the run
    message = ""
    if contradictions.size:
        i = contradictions[0]
        status = "infeasible-detected"
        message = f"constraint {rows[i]} reads 0 = {b[i]}"
    elif ls_residual > 1e-8 * max(1.0, float(np.abs(b / row_scale).max(initial=0.0))):
        status = "infeasible-detected"
        message = "equality constraints are mutually inconsistent"

    rho_eff = max(1.0, float(np.linalg.norm(c_vec)))
    drift = c_vec / rho_eff
    c_scale = 1.0 + float(np.abs(c_vec).max()) if has_objective else 1.0

    def plain_step(z, u):
        """One ADMM step from (z, u) up to the cone projection: the affine
        multiplier, the affine projection x and the point T(s)."""
        w = z - u - drift
        mu = gram_pinv @ (a_mat @ w - b)
        x = w - a_mat.T @ mu
        return mu, x, OVER_RELAXATION * x + (1.0 - OVER_RELAXATION) * z + u

    def measure(x, z):
        """The consensus gap |x - z| and the equality residual of z at the
        projected point z = P(s) reached from the affine projection x."""
        gap = float(np.abs(x - z).max(initial=0.0))
        aff = float(np.abs(a_mat @ z - b).max(initial=0.0))
        return gap, aff

    def as_given(y):
        """y of the reduced system in the original row order, with 0 on the
        rows the presolve dropped."""
        y_full = np.zeros(len(problem.rhs))
        y_full[rows] = y
        return y_full

    def farkas_certificate(y):
        """The Farkas candidate y checked: y, b^T y and lambda_min(A^T y) of
        the reduced system at |A^T y| = 1, or None when y fails the test."""
        aty = a_mat.T @ y
        norm = float(np.linalg.norm(aty))
        if not norm > 0.0:
            return None
        rhs = float(b @ y) / norm
        if not rhs < -FARKAS_RHS_TOL:
            return None
        lam = layout.min_eigenvalue(aty / norm)
        if lam < -FARKAS_EIG_TOL:
            return None
        return y / norm, rhs, lam

    z = np.zeros(n)
    u = np.zeros(n)
    gap = aff = 0.0
    dual_gap: float | None = None

    # Acceleration state: the current point s = z + u, the fixed-point
    # residual it must beat if it was extrapolated (``pending``), and in
    # ``fallback`` the plain point T(s_prev) to return to if s is undone.
    anderson = _Anderson(n)
    s = np.zeros(n)
    safe_norm = np.inf
    pending = False
    accepted = rejected = 0
    farkas_y = farkas_rhs = farkas_lam = found = None

    it = 0
    while status is None and it < MAX_ITERATIONS:
        it += 1
        mu, x, t = plain_step(z, u)
        res_norm = float(np.linalg.norm(t - s))
        if pending:
            # Keep an extrapolated point only if its fixed-point residual
            # beat the one of the point it came from.  Otherwise project the
            # stored plain point and step from there.
            if res_norm < safe_norm:
                accepted += 1
            else:
                rejected += 1
                anderson.reset()
                s = fallback
                z = layout.project_psd(s)
                u = s - z
                mu, x, t = plain_step(z, u)
                res_norm = float(np.linalg.norm(t - s))
        # The guard judges the point the loop continues from, iteration
        # it - 1's, never one the safeguard undid.
        if not np.isfinite(res_norm):
            raise SolverError(
                "numerical breakdown: nonfinite residual",
                {"iteration": it - 1, "residual": res_norm},
            )
        safe_norm = res_norm
        s_next = anderson.extrapolate(s, t)
        pending = s_next is not None

        # The next point is chosen before the one cone projection of the
        # iteration: the extrapolation if there is one, else the plain step.
        fallback = t
        s = t if s_next is None else s_next
        z_new = layout.project_psd(s)
        u_prev, u = u, s - z_new
        gap, aff = measure(x, z_new)
        step = float(np.abs(z_new - z).max(initial=0.0))
        z = z_new

        if has_objective:
            if aff <= STOP_TOL and gap <= STOP_TOL and step <= STOP_TOL:
                status = "optimal"
                break
            if aff <= EQ_TOL and it % CERT_CHECK_EVERY == 0:
                # The affine multiplier yields a dual candidate: at a fixed
                # point c - A^T y equals the (PSD) normal-cone element.
                # With the equality contract already met, a certified
                # primal-dual gap ends the slow tail that degenerate optimal
                # faces otherwise impose on the consensus residual.
                y = -rho_eff * mu
                primal = float(c_vec @ z)
                dual_val = float(b @ y)
                pd_gap = abs(primal - dual_val)
                if pd_gap <= CERT_GAP_TOL * (1.0 + abs(primal) + abs(dual_val)):
                    slack_eig = layout.min_eigenvalue(c_vec - a_mat.T @ y)
                    if slack_eig >= -CERT_EIG_TOL * c_scale:
                        status = "optimal"
                        dual_gap = pd_gap
                        break
        elif aff <= STOP_TOL:
            # z is exactly PSD; meeting the equalities makes it a certificate.
            status = "feasible"
            break

        if it % CERT_CHECK_EVERY == 0:
            # On an infeasible problem the dual step u_prev - u tends to a
            # PSD vector normal to the affine set, whatever the objective,
            # and its least-squares multiplier is then a Farkas certificate.
            # Whatever point the step came from, the tests are on y alone.
            y = gram_pinv @ (a_mat @ (u_prev - u))
            if witness is not None and not has_objective:
                found = witness(as_given(y))
                if found is not None:
                    status = "infeasible-detected"
                    message = (
                        "disproof: the witness accepted the Farkas "
                        f"candidate of iteration {it}"
                    )
                    break
            farkas = farkas_certificate(y)
            if farkas is not None:
                y, farkas_rhs, farkas_lam = farkas
                farkas_y = as_given(y)
                shows = (
                    "no PSD solution exists" if farkas_lam >= 0.0
                    else "every PSD solution has trace >= "
                    f"{_trace_bound(farkas_rhs, farkas_lam):.3e}"
                )
                status = "infeasible-detected"
                message = (
                    f"Farkas certificate: b^T y = {farkas_rhs:.3e} with "
                    f"lambda_min(A^T y) = {farkas_lam:.3e} at |A^T y| = 1, so {shows}"
                )
                break
    if status is None:
        status = "max-iterations"
        message = f"iteration cap reached with residual {max(gap, aff):.3e}"

    # One result for every verdict: the blocks zero-padded back to the
    # original sizes (the fixed Gram rows and columns are exactly zero) and
    # measured on the problem as given.
    if face is not None:
        z_face, z = z, np.zeros(full.total)
        z[face.columns] = z_face
    return SdpSolution(
        status=status,
        block_values=full.unpack(z),
        objective_value=float(c_full @ z),
        primal_residual=float(
            np.abs(problem.constraints @ z - problem.rhs).max(initial=0.0)
        ),
        min_eigenvalue=full.min_eigenvalue(z),
        iterations=it,
        consensus_gap=gap,
        dual_gap=dual_gap,
        message=message,
        anderson_accepted=accepted,
        anderson_rejected=rejected,
        facial_reduction_dim=0 if face is None else face.dim,
        facial_reduction_rows=len(problem.rhs) - len(rows),
        farkas_rhs=farkas_rhs,
        farkas_min_eigenvalue=farkas_lam,
        farkas_y=farkas_y,
        witness=found,
    )
