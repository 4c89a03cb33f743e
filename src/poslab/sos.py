"""Truncated quadratic-module / preordering membership and the hierarchy bound.

Membership of f in the level-k cone generated by (g_1, ..., g_m) is compiled
to SDP feasibility: one Gram block per generator (per product g^delta in
preordering mode), the block for generator g over the monomial basis of
degree floor((k - deg g)/2) so every summand sigma*g stays within degree k,
and one linear equality per monomial of degree <= k matching coefficients of
sum_i z_i^T Q_i z_i * g_i against f.  Redundant rows (monomials no product
can reach) are kept; the splitting solver tolerates them and a zero row with
a nonzero target coefficient is an instant sign of infeasibility.

The hierarchy lower bound at level k maximizes a subject to f - a lying in
the level-k cone; the scalar a enters the constant-coefficient row as the
difference of two 1x1 PSD blocks (a = a_plus - a_minus), keeping the solver's
problem class pure PSD-block form.

A not-found outcome is always inconclusive: failure at level k never
disproves membership in the untruncated cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import sdp
from .certificate import (
    DEFAULT_PSD_TOL,
    DEFAULT_RESIDUAL_TOL,
    PREORDERING,
    QUADRATIC_MODULE,
    Certificate,
    CertificateEntry,
    VerificationReport,
    round_psd,
    verify,
)
from .errors import CapacityError, DimensionMismatchError, InputError, SolverError
from .poly import Monomial, Polynomial, grlex_key
from .semialg import SemialgebraicSystem

DEFAULT_BASIS_CAP = 2_000
MAX_PREORDERING_CONSTRAINTS = 12


@dataclass(frozen=True)
class MonomialBasis:
    """All monomials of total degree <= max_degree, graded lex ordered."""

    dimension: int
    max_degree: int
    monomials: tuple[Monomial, ...]

    def __len__(self) -> int:
        return len(self.monomials)


def _degree_compositions(total: int, parts: int):
    """All exponent vectors of given total degree (lexicographic descending
    in the first coordinate, matching graded lex with x1 > x2 > ...)."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _degree_compositions(total - head, parts - 1):
            yield (head,) + tail


def monomial_basis(
    dimension: int, max_degree: int, cap: int = DEFAULT_BASIS_CAP
) -> MonomialBasis:
    """Graded-lex basis of the polynomials of degree <= max_degree."""
    if dimension < 1:
        raise InputError(f"dimension must be >= 1, got {dimension}")
    if max_degree < 0:
        raise InputError(f"max_degree must be >= 0, got {max_degree}")
    size = comb(dimension + max_degree, dimension)
    if size > cap:
        raise CapacityError(
            f"monomial basis of size {size} exceeds the cap {cap} "
            f"(n={dimension}, d={max_degree})"
        )
    monos: list[Monomial] = []
    for d in range(max_degree + 1):
        monos.extend(_degree_compositions(d, dimension))
    monos.sort(key=grlex_key)
    return MonomialBasis(dimension=dimension, max_degree=max_degree, monomials=tuple(monos))


@dataclass(frozen=True)
class MembershipProblem:
    target: Polynomial
    system: SemialgebraicSystem
    level: int
    mode: str = QUADRATIC_MODULE

    def __post_init__(self):
        if self.target.dimension != self.system.dimension:
            raise DimensionMismatchError(
                f"target dimension {self.target.dimension} != system "
                f"dimension {self.system.dimension}"
            )
        if self.level < 0:
            raise InputError(f"level must be >= 0, got {self.level}")
        if self.mode not in (QUADRATIC_MODULE, PREORDERING):
            raise InputError(f"unknown mode {self.mode!r}")
        if (
            self.mode == PREORDERING
            and self.system.num_constraints > MAX_PREORDERING_CONSTRAINTS
        ):
            raise CapacityError(
                f"preordering mode handles at most "
                f"{MAX_PREORDERING_CONSTRAINTS} constraints "
                f"(2^m products), got {self.system.num_constraints}"
            )


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of a membership search; not-found is never a disproof."""

    found: bool
    certificate: Certificate | None
    reason: str
    level: int
    status: str
    verification: VerificationReport | None = None
    solver: dict | None = None


@dataclass(frozen=True)
class LasserreResult:
    """Level-k hierarchy lower bound; -inf when no bound exists at this level."""

    level: int
    lower_bound: float
    certificate: Certificate | None
    reason: str
    status: str
    verification: VerificationReport | None = None
    solver: dict | None = None

    @property
    def is_finite(self) -> bool:
        return bool(np.isfinite(self.lower_bound))


# ----------------------------------------------------------------------
# compilation


@dataclass(frozen=True)
class _Block:
    label: int | tuple[int, ...]
    generator: Polynomial
    basis: MonomialBasis


def _generator_blocks(
    system: SemialgebraicSystem, level: int, mode: str
) -> list[_Block]:
    n = system.dimension
    blocks: list[_Block] = []
    if mode == QUADRATIC_MODULE:
        gens: list[tuple[int | tuple[int, ...], Polynomial]] = [
            (0, Polynomial.constant(n, 1.0))
        ]
        gens += [(i + 1, g) for i, g in enumerate(system.constraints)]
    else:
        gens = []
        m = system.num_constraints
        for bits in range(2**m):
            delta = tuple((bits >> j) & 1 for j in range(m))
            prod = Polynomial.constant(n, 1.0)
            for d, g in zip(delta, system.constraints):
                if d:
                    prod = prod * g
            gens.append((delta, prod))
    for label, gen in gens:
        if gen.is_zero:
            continue  # a zero generator contributes nothing
        basis_degree = (level - gen.degree) // 2
        if basis_degree < 0:
            continue  # sigma would have to vanish at this level
        blocks.append(
            _Block(label=label, generator=gen, basis=monomial_basis(n, basis_degree))
        )
    return blocks


def _compile(
    target: Polynomial,
    system: SemialgebraicSystem,
    level: int,
    blocks: list[_Block],
    bound_scalar: bool,
) -> sdp.SdpProblem:
    """Coefficient-matching constraints over the degree-<=level monomials."""
    n = system.dimension
    index_monos = monomial_basis(n, level).monomials
    row_of = {alpha: i for i, alpha in enumerate(index_monos)}
    nb = len(blocks)
    block_sizes = tuple(len(b.basis) for b in blocks) + ((1, 1) if bound_scalar else ())

    per_row: list[dict[int, np.ndarray]] = [{} for _ in index_monos]
    for j, block in enumerate(blocks):
        monos = block.basis.monomials
        size = len(monos)
        gen_terms = list(block.generator.terms())
        for r in range(size):
            for s in range(size):
                base = tuple(a + b for a, b in zip(monos[r], monos[s]))
                for alpha, coef in gen_terms:
                    gamma = tuple(a + b for a, b in zip(base, alpha))
                    row = row_of[gamma]
                    mat = per_row[row].get(j)
                    if mat is None:
                        mat = np.zeros((size, size))
                        per_row[row][j] = mat
                    mat[r, s] += coef

    one = np.array([[1.0]])
    constraints = []
    nb_total = nb + (2 if bound_scalar else 0)
    for row, alpha in enumerate(index_monos):
        mats: list[np.ndarray | None] = [None] * nb_total
        for j, mat in per_row[row].items():
            mats[j] = mat
        if bound_scalar and sum(alpha) == 0:
            mats[nb] = one
            mats[nb + 1] = -one
        constraints.append(
            sdp.SdpConstraint(tuple(mats), target.coefficient(alpha))
        )

    objective = None
    if bound_scalar:
        obj: list[np.ndarray | None] = [None] * nb_total
        obj[nb] = -one  # maximize a = a_plus - a_minus
        obj[nb + 1] = one
        objective = tuple(obj)

    return sdp.SdpProblem(
        block_sizes=block_sizes,
        constraints=tuple(constraints),
        objective=objective,
    )


def _certificate_from_blocks(
    mode: str,
    system: SemialgebraicSystem,
    blocks: list[_Block],
    grams: tuple[np.ndarray, ...],
    psd_tol: float,
) -> Certificate:
    entries = tuple(
        CertificateEntry(
            index=block.label,
            basis=block.basis,
            gram=round_psd(grams[j], psd_tol),
        )
        for j, block in enumerate(blocks)
    )
    return Certificate(mode=mode, system=system, entries=entries)


# ----------------------------------------------------------------------
# public operations


def _membership_search(
    problem: MembershipProblem,
    residual_tol: float,
    psd_tol: float,
    options: sdp.SdpOptions | None,
) -> MembershipResult:
    target, system, level = problem.target, problem.system, problem.level
    if target.degree > level:
        return MembershipResult(
            found=False,
            certificate=None,
            reason=(
                f"target degree {target.degree} exceeds level {level}; "
                "no representation can exist"
            ),
            level=level,
            status="precondition",
        )
    blocks = _generator_blocks(system, level, problem.mode)
    sdp_problem = _compile(target, system, level, blocks, bound_scalar=False)
    solution = sdp.solve(sdp_problem, options)
    if solution.ok:
        cert = _certificate_from_blocks(
            problem.mode, system, blocks, solution.block_values, psd_tol
        )
        report = verify(cert, target, residual_tol, psd_tol)
        if report.passed:
            return MembershipResult(
                found=True,
                certificate=cert,
                reason="",
                level=level,
                status=solution.status,
                verification=report,
                solver=solution.diagnostics(),
            )
        return MembershipResult(
            found=False,
            certificate=cert,
            reason=(
                f"solver output failed independent verification "
                f"(residual {report.residual_norm:.3e})"
            ),
            level=level,
            status=solution.status,
            verification=report,
            solver=solution.diagnostics(),
        )
    if solution.status == "infeasible-detected":
        reason = (
            "no representation found at this level; inconclusive "
            "(SDP infeasible-detected, not a disproof)"
        )
    else:
        reason = (
            "solver iteration cap reached; membership at this level is "
            "inconclusive"
        )
    return MembershipResult(
        found=False,
        certificate=None,
        reason=reason,
        level=level,
        status=solution.status,
        solver=solution.diagnostics(),
    )


def module_membership(
    problem: MembershipProblem,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    psd_tol: float = DEFAULT_PSD_TOL,
    options: sdp.SdpOptions | None = None,
) -> MembershipResult:
    """Search the level-k quadratic module for the target polynomial."""
    if problem.mode != QUADRATIC_MODULE:
        raise InputError("module_membership requires quadratic_module mode")
    return _membership_search(problem, residual_tol, psd_tol, options)


def preordering_membership(
    problem: MembershipProblem,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    psd_tol: float = DEFAULT_PSD_TOL,
    options: sdp.SdpOptions | None = None,
) -> MembershipResult:
    """Search the level-k preordering (2^m product generators)."""
    if problem.mode != PREORDERING:
        raise InputError("preordering_membership requires preordering mode")
    return _membership_search(problem, residual_tol, psd_tol, options)


def sos_decompose(
    f: Polynomial,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    psd_tol: float = DEFAULT_PSD_TOL,
    options: sdp.SdpOptions | None = None,
) -> MembershipResult:
    """Plain sum-of-squares decomposition (no constraints).

    Odd degree is an immediate not-found; otherwise this is membership in
    the quadratic module of the empty system at level deg f.
    """
    if f.degree % 2 == 1:
        return MembershipResult(
            found=False,
            certificate=None,
            reason="odd degree polynomials are never sums of squares",
            level=f.degree,
            status="precondition",
        )
    problem = MembershipProblem(
        target=f,
        system=SemialgebraicSystem(f.dimension, ()),
        level=f.degree,
        mode=QUADRATIC_MODULE,
    )
    return module_membership(problem, residual_tol, psd_tol, options)


def lasserre_bound(
    f: Polynomial,
    system: SemialgebraicSystem,
    level: int,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    psd_tol: float = DEFAULT_PSD_TOL,
    options: sdp.SdpOptions | None = None,
) -> LasserreResult:
    """Largest a with f - a in the level-`level` quadratic module.

    Returns -inf (with a reason) when no finite bound exists at this level:
    the level is below deg f, the compiled SDP is detected infeasible for
    every a, or the solver's certificate fails independent verification (it
    stays in the result, with its report, for diagnostics).  Solver stalls
    raise SolverError.
    """
    if f.dimension != system.dimension:
        raise DimensionMismatchError(
            f"objective dimension {f.dimension} != system dimension "
            f"{system.dimension}"
        )
    if level < 0:
        raise InputError(f"level must be >= 0, got {level}")
    if f.degree > level:
        return LasserreResult(
            level=level,
            lower_bound=float("-inf"),
            certificate=None,
            reason=(
                f"level {level} is below the objective degree {f.degree}; "
                "the truncated cone contains no shift of the objective"
            ),
            status="precondition",
        )
    blocks = _generator_blocks(system, level, QUADRATIC_MODULE)
    sdp_problem = _compile(f, system, level, blocks, bound_scalar=True)
    solution = sdp.solve(sdp_problem, options)
    if solution.ok:
        nb = len(blocks)
        bound = float(
            solution.block_values[nb][0, 0] - solution.block_values[nb + 1][0, 0]
        )
        cert = _certificate_from_blocks(
            QUADRATIC_MODULE,
            system,
            blocks,
            solution.block_values[:nb],
            psd_tol,
        )
        shifted = f - Polynomial.constant(f.dimension, bound)
        report = verify(cert, shifted, residual_tol, psd_tol)
        if not report.passed:
            return LasserreResult(
                level=level,
                lower_bound=float("-inf"),
                certificate=cert,
                reason=(
                    f"solver output failed independent verification "
                    f"(residual {report.residual_norm:.3e}, min Gram eigenvalue "
                    f"{report.min_gram_eigenvalue:.3e}); no bound is certified"
                ),
                status=solution.status,
                verification=report,
                solver=solution.diagnostics(),
            )
        return LasserreResult(
            level=level,
            lower_bound=bound,
            certificate=cert,
            reason="",
            status=solution.status,
            verification=report,
            solver=solution.diagnostics(),
        )
    if solution.status == "infeasible-detected":
        return LasserreResult(
            level=level,
            lower_bound=float("-inf"),
            certificate=None,
            reason=(
                "no shift of the objective lies in the level-k cone "
                "(SDP infeasible-detected)"
            ),
            status=solution.status,
            solver=solution.diagnostics(),
        )
    raise SolverError(
        "hierarchy SDP did not converge within the iteration cap",
        solution.diagnostics(),
    )
