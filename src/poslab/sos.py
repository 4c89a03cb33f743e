"""Truncated quadratic-module / preordering membership and the hierarchy bound.

Membership of f in the level-k cone generated by (g_1, ..., g_m) is compiled
to SDP feasibility: one Gram block per generator (per product g^delta in
preordering mode), the block for generator g over the monomial basis of
degree floor((k - deg g)/2) so every summand sigma*g stays within degree k,
and one linear equality per monomial of degree <= k matching coefficients of
sum_i z_i^T Q_i z_i * g_i against f.  Every monomial gets its row, even one
no product can reach; the solver's presolve drops the rows that end up all
zero with a zero target coefficient, and reports one with a nonzero target
coefficient as exactly infeasible.  That presolve also fixes at zero the
Gram rows and columns that a zero coefficient forces to vanish, which is
what makes sums of a few sparse squares solvable.

The hierarchy lower bound at level k maximizes a subject to f - a lying in
the level-k cone.  The constant row of the membership SDP of f fixes a, as
a = f_0 - (sum_i sigma_i g_i)_0, so the bound SDP is that SDP with its
constant row (row 0 in graded lex order) taken out as the objective:
minimizing (sum_i sigma_i g_i)_0 subject to the other rows maximizes a, and
the bound is f_0 minus the optimal value.  The free scalar needs no block.

Either way the solver's answer counts only when ``certificate.verify``
passes its Gram certificate, at that module's fixed thresholds (residual
<= ``DEFAULT_RESIDUAL_TOL``); no parameter here changes them.

Failure at level k never disproves membership in the untruncated cone, so
a not-found outcome is inconclusive, with one exception: a disproof, a point
x0 of the feasible set with f(x0) < 0.  Every member of every level is
nonnegative on the feasible set, so such a point rules f out at all levels.
The membership search looks for one in each Farkas candidate y of the
solver, a truncated pseudo-moment functional: when y_0 > 0, its first
moments x0_j = y_{e_j} / y_0 are the mean of the measure it would be if y
were one.  Only ``certificate.verify_disproof``, which evaluates f(x0) and
g_i(x0) exactly, accepts one (in integer arithmetic, which costs less here
than a float evaluation through ``Polynomial``).  So a disproof depends on
neither y nor the solver's tolerances nor the presolve, and it ends the
solve at once.

An ``infeasible-detected`` reason without a disproof names its evidence
about level k: exact (presolve or an inconsistent system) or a Farkas
certificate (a pseudo-moment functional that bounds the trace of every Gram
certificate from below, or rules them all out).  A solve that finds neither
a certificate nor such evidence ends at the solver's iteration cap, which is
inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .certificate import (
    PREORDERING,
    QUADRATIC_MODULE,
    Certificate,
    CertificateEntry,
    DisproofReport,
    VerificationReport,
    generator_polynomial,
    round_psd,
    verify,
    verify_disproof,
)
from .errors import CapacityError, DimensionMismatchError, InputError, SolverError
from .poly import (
    MonomialBasis, Polynomial, gram_product_keys, monomial_basis, monomial_keys
)
from .semialg import SemialgebraicSystem, ball_gap_polynomial

MAX_PREORDERING_CONSTRAINTS = 12


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
    """Outcome of a membership search.  Not-found is inconclusive unless
    ``disproof`` holds a point of the feasible set where the target is
    negative, checked exactly: then the target is in no level of the cone."""

    found: bool
    certificate: Certificate | None
    reason: str
    level: int
    status: str
    verification: VerificationReport | None = None
    solver: dict | None = None
    disproof: DisproofReport | None = None


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
    n, m = system.dimension, system.num_constraints
    if mode == QUADRATIC_MODULE:
        labels: list[int | tuple[int, ...]] = list(range(m + 1))
    else:
        labels = [tuple((bits >> j) & 1 for j in range(m)) for bits in range(2**m)]
    blocks: list[_Block] = []
    for label in labels:
        gen = generator_polynomial(system, mode, label)
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
) -> sdp.SdpProblem:
    """The membership SDP of ``target``: coefficient-matching constraints
    over the degree-<=level monomials in graded lex order (the constant
    first), written straight into the svec columns of the constraint matrix.

    Gram entry (r, s) of a block meets row gamma through the one generator
    term alpha with z_r z_s x^alpha = x^gamma, so each matrix entry is one
    generator coefficient, times sqrt(2) off the diagonal.  The rows of
    those products are found among the packed keys of the row monomials,
    which increase in graded lex order (``poly.gram_product_keys``)."""
    n = system.dimension
    index_monos = monomial_basis(n, level).monomials
    row_keys = monomial_keys(index_monos, n, level)
    block_sizes = tuple(len(b.basis) for b in blocks)
    constraints = np.zeros((len(index_monos), sum(s * (s + 1) // 2 for s in block_sizes)))

    col = 0
    for block in blocks:
        r, s, keys, coefs = gram_product_keys(block.basis, block.generator, level)
        cols = col + np.arange(r.size)
        weights = np.where(r == s, 1.0, np.sqrt(2.0))
        constraints[np.searchsorted(row_keys, keys), cols[:, None]] = (
            coefs * weights[:, None]
        )
        col += r.size

    rhs = np.array([target.coefficient(alpha) for alpha in index_monos])
    return sdp.SdpProblem(block_sizes, constraints, rhs)


def _certificate_from_blocks(
    mode: str,
    system: SemialgebraicSystem,
    blocks: list[_Block],
    grams: tuple[np.ndarray, ...],
) -> Certificate:
    entries = tuple(
        CertificateEntry(
            index=block.label,
            basis=block.basis,
            gram=round_psd(grams[j]),
        )
        for j, block in enumerate(blocks)
    )
    return Certificate(mode=mode, system=system, entries=entries)


def _disproof_witness(target: Polynomial, system: SemialgebraicSystem, level: int):
    """The solver's witness predicate for a level-``level`` membership SDP:
    the exact disproof at the first moments of a Farkas candidate y, or
    None.  Rows of y follow ``monomial_basis(n, level)``, in graded lex
    order: the constant first, then x1, ..., xn.  Below level 1 there are no
    first moments."""
    if level < 1:
        return None
    n = system.dimension

    def witness(y: np.ndarray) -> DisproofReport | None:
        if not y[0] > 0:
            return None
        x0 = y[1 : n + 1] / y[0]
        if not np.isfinite(x0).all():
            return None
        report = verify_disproof(target, system, x0)
        # a value past the float range would have no JSON form
        return report if report.passed and np.isfinite(report.value) else None

    return witness


# ----------------------------------------------------------------------
# public operations


def _infeasibility_evidence(solution: sdp.SdpSolution, level: int) -> str:
    """What an ``infeasible-detected`` solve without a disproof shows about
    the level-``level`` cone: an exact verdict at 0 iterations, else its
    Farkas certificate."""
    if solution.iterations == 0:
        return f"exact: the level-{level} SDP is infeasible, {solution.message}"
    bound = solution.farkas_trace_bound
    shows = (
        "no Gram certificate exists" if bound == float("inf")
        else f"every Gram certificate has total trace >= {bound:.3e}"
    )
    return f"Farkas certificate for level {level}: {shows}"


def _membership_search(problem: MembershipProblem) -> MembershipResult:
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
    sdp_problem = _compile(target, system, level, blocks)
    solution = sdp.solve(sdp_problem, _disproof_witness(target, system, level))

    def result(found: bool, reason: str, **evidence) -> MembershipResult:
        return MembershipResult(
            found=found, reason=reason, level=level, status=solution.status,
            solver=solution.diagnostics(), **evidence,
        )

    if solution.ok:
        cert = _certificate_from_blocks(
            problem.mode, system, blocks, solution.block_values
        )
        report = verify(cert, target)
        reason = "" if report.passed else (
            f"solver output failed independent verification "
            f"(residual {report.residual_norm:.3e})"
        )
        return result(report.passed, reason, certificate=cert, verification=report)
    if solution.witness is not None:
        reason = (
            "disproof: the target is in no level of the cone, since it is "
            f"{solution.witness.value!r} < 0 at a feasible point (checked "
            "exactly; see disproof)"
        )
    elif solution.status == "infeasible-detected":
        reason = (
            f"no representation found at level {level} "
            f"({_infeasibility_evidence(solution, level)}); inconclusive: "
            "nothing is proved about the untruncated cone"
        )
    else:
        reason = (
            "solver iteration cap reached; membership at this level is "
            "inconclusive"
        )
    return result(False, reason, certificate=None, disproof=solution.witness)


def module_membership(problem: MembershipProblem) -> MembershipResult:
    """Search the level-k quadratic module for the target polynomial."""
    if problem.mode != QUADRATIC_MODULE:
        raise InputError("module_membership requires quadratic_module mode")
    return _membership_search(problem)


def preordering_membership(problem: MembershipProblem) -> MembershipResult:
    """Search the level-k preordering (2^m product generators)."""
    if problem.mode != PREORDERING:
        raise InputError("preordering_membership requires preordering mode")
    return _membership_search(problem)


def sos_decompose(f: Polynomial) -> MembershipResult:
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
    return module_membership(problem)


def archimedean_witness(
    system: SemialgebraicSystem, bound: float, level: int
) -> MembershipResult:
    """Search for a level-`level` quadratic-module certificate of
    bound - ||x||^2 >= 0, witnessing that the module is archimedean.

    This is the SDP-checkable normal form of the archimedean property.
    Equivalent characterizations exist but are not searched here: membership
    of some polynomial p with {p >= 0} compact, containment of the
    preordering of a tuple with compact feasible set, and the property that
    every polynomial is bounded above within the module.

    A not-found outcome is inconclusive: the witness may exist at a higher
    level.  Returns the MembershipResult of the underlying search.
    """
    if bound <= 0:
        raise InputError(f"bound must be positive, got {bound}")
    if level < 2 or level % 2 != 0:
        raise InputError(f"level must be an even integer >= 2, got {level}")
    problem = MembershipProblem(
        target=ball_gap_polynomial(system.dimension, bound),
        system=system,
        level=level,
        mode=QUADRATIC_MODULE,
    )
    return module_membership(problem)


def lasserre_bound(
    f: Polynomial, system: SemialgebraicSystem, level: int
) -> LasserreResult:
    """Largest a with f - a in the level-`level` quadratic module.

    Returns -inf (with a reason) when no finite bound exists at this level:
    the level is below deg f, the compiled SDP is reported
    ``infeasible-detected`` (exactly or by a Farkas certificate; the reason
    says which), or the solver's certificate fails independent verification
    (it stays in the result, with its report, for diagnostics).  Only a
    solve that ends with ``max-iterations`` (the iteration cap) raises
    SolverError.
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
    member = _compile(f, system, level, blocks)
    # row 0, the constant, becomes the objective (sum_i sigma_i g_i)_0
    solution = sdp.solve(sdp.SdpProblem(
        member.block_sizes, member.constraints[1:], member.rhs[1:],
        member.constraints[0],
    ))

    def result(bound: float, reason: str, **evidence) -> LasserreResult:
        return LasserreResult(
            level=level, lower_bound=bound, reason=reason, status=solution.status,
            solver=solution.diagnostics(), **evidence,
        )

    if solution.ok:
        bound = f.coefficient((0,) * f.dimension) - solution.objective_value
        cert = _certificate_from_blocks(
            QUADRATIC_MODULE, system, blocks, solution.block_values
        )
        shifted = f - Polynomial.constant(f.dimension, bound)
        report = verify(cert, shifted)
        if report.passed:
            return result(bound, "", certificate=cert, verification=report)
        return result(float("-inf"), (
            f"solver output failed independent verification "
            f"(residual {report.residual_norm:.3e}, min Gram eigenvalue "
            f"{report.min_gram_eigenvalue:.3e}); no bound is certified"
        ), certificate=cert, verification=report)
    if solution.status == "infeasible-detected":
        return result(float("-inf"), (
            f"no shift of the objective found in the level-{level} cone "
            f"({_infeasibility_evidence(solution, level)}); nothing is "
            "proved about the untruncated cone"
        ), certificate=None)
    raise SolverError(
        "hierarchy SDP did not converge within the iteration cap",
        solution.diagnostics(),
    )
