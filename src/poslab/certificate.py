"""Nonnegativity certificates: Gram-matrix form, verification, re-expression.

A certificate asserts f = sum_i sigma_i * generator_i with every sigma_i a
sum of squares, written as sigma_i = z_i^T Q_i z_i for a monomial vector z_i
and a PSD Gram matrix Q_i.  For quadratic-module certificates the generators
are 1, g_1, ..., g_m indexed by i; for preordering certificates they are the
products g^delta indexed by delta in {0,1}^m.

Verification is independent of how a certificate was found: reconstruct the
right-hand side from the certificate alone (float sums per packed monomial
key, see ``reconstruct``), measure the residual against f in the weighted
coefficient norm (``Polynomial`` subtraction prunes |c| <= 1e-14), and check
the Gram spectra.  A certificate
passes at residual <= ``DEFAULT_RESIDUAL_TOL`` and Gram eigenvalues >=
-``DEFAULT_PSD_TOL``; both are module constants that no caller can loosen.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParseError, RoundingError
from .poly import (
    MonomialBasis,
    Polynomial,
    evaluate_exact,
    format_polynomial,
    gram_product_keys,
    key_monomials,
    parse_polynomial,
    weighted_norm,
)
from .problemio import json_int, load_json
from .semialg import SemialgebraicSystem

QUADRATIC_MODULE = "quadratic_module"
PREORDERING = "preordering"

DEFAULT_RESIDUAL_TOL = 1e-6
DEFAULT_PSD_TOL = 1e-8


def generator_polynomial(
    system: SemialgebraicSystem, mode: str, index: int | tuple[int, ...]
) -> Polynomial:
    """The generator with this index: 1 for index 0 and g_i for index i in
    the quadratic module; in the preordering, the product g^delta of the
    constraints g_j with delta_j = 1, multiplied left to right."""
    m = system.num_constraints
    if mode == QUADRATIC_MODULE:
        if not isinstance(index, int) or not 0 <= index <= m:
            raise InputError(f"generator index {index!r} out of range for m={m}")
        if index == 0:
            return Polynomial.constant(system.dimension, 1.0)
        return system.constraints[index - 1]
    if not isinstance(index, tuple) or len(index) != m:
        raise InputError(f"delta {index!r} must be a 0/1 tuple of length {m}")
    if any(d not in (0, 1) for d in index):
        raise InputError(f"delta {index!r} must be a 0/1 tuple")
    prod = Polynomial.constant(system.dimension, 1.0)
    for d, g in zip(index, system.constraints):
        if d:
            prod = prod * g
    return prod


@dataclass(frozen=True)
class CertificateEntry:
    """One summand sigma * generator.

    ``index`` is the generator index i (quadratic module, 0 = the implicit 1)
    or the exponent tuple delta (preordering).
    """

    index: int | tuple[int, ...]
    basis: MonomialBasis
    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        size = len(self.basis.monomials)
        if g.shape != (size, size):
            raise InputError(
                f"Gram matrix has shape {g.shape}, basis has {size} monomials"
            )
        if not np.allclose(g, g.T, atol=1e-10):
            raise InputError("Gram matrix is not symmetric")
        n, top = self.basis.dimension, self.basis.max_degree
        for alpha in self.basis.monomials:
            if len(alpha) != n or min(alpha, default=0) < 0 or sum(alpha) > top:
                raise InputError(
                    f"basis monomial {list(alpha)} is not an exponent vector of "
                    f"length {n} with entries >= 0 and degree <= {top}"
                )
        object.__setattr__(self, "gram", 0.5 * (g + g.T))

    def min_eigenvalue(self) -> float:
        if self.gram.shape[0] == 0:
            return 0.0
        return float(np.linalg.eigvalsh(self.gram)[0])


@dataclass(frozen=True)
class Certificate:
    mode: str
    system: SemialgebraicSystem
    entries: tuple[CertificateEntry, ...]

    def __post_init__(self):
        if self.mode not in (QUADRATIC_MODULE, PREORDERING):
            raise InputError(f"unknown certificate mode {self.mode!r}")
        object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            self.generator(e)  # validates the index against the system

    def generator(self, entry: CertificateEntry) -> Polynomial:
        """The generator polynomial this entry multiplies."""
        return generator_polynomial(self.system, self.mode, entry.index)

    @property
    def level(self) -> int:
        """Largest degree of any summand sigma * generator."""
        level = 0
        for e in self.entries:
            level = max(level, 2 * e.basis.max_degree + self.generator(e).degree)
        return level


@dataclass(frozen=True)
class VerificationReport:
    residual_norm: float
    min_gram_eigenvalue: float
    level: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "residual_norm": self.residual_norm,
            "min_gram_eigenvalue": self.min_gram_eigenvalue,
            "level": self.level,
            "pass": self.passed,
        }


def reconstruct(cert: Certificate) -> Polynomial:
    """sum_i (z_i^T Q_i z_i) * generator_i as an explicit polynomial.

    Q[r, s] of each upper-triangle Gram pair (doubled off the diagonal) times
    each generator coefficient is summed on the packed key of z_r z_s x^alpha
    (``poly.gram_product_keys``), in float arithmetic, in entry, pair and
    term order; no sum is pruned."""
    n, gens = cert.system.dimension, [cert.generator(e) for e in cert.entries]
    top = max([0] + [2 * e.basis.max_degree + g.degree for e, g in zip(cert.entries, gens)])
    keys, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for entry, gen in zip(cert.entries, gens):
        r, s, entry_keys, coefs = gram_product_keys(entry.basis, gen, top)
        keys.append(entry_keys.ravel())
        q = np.where(r == s, 1.0, 2.0) * entry.gram[r, s]
        values.append(np.outer(q, coefs).ravel())
    unique, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(inverse, weights=np.concatenate(values), minlength=unique.size)
    return Polynomial(n, dict(zip(key_monomials(unique, n, top), sums)))


def verify(cert: Certificate, f: Polynomial) -> VerificationReport:
    """Residual in the weighted norm plus the worst Gram eigenvalue.

    Always returns a report; ``passed`` is residual <= DEFAULT_RESIDUAL_TOL
    and min eigenvalue >= -DEFAULT_PSD_TOL.
    """
    if f.dimension != cert.system.dimension:
        raise InputError(
            f"target dimension {f.dimension} != certificate dimension "
            f"{cert.system.dimension}"
        )
    residual = weighted_norm(f - reconstruct(cert))
    min_eig = 0.0
    for entry in cert.entries:
        min_eig = min(min_eig, entry.min_eigenvalue())
    return VerificationReport(
        residual_norm=residual,
        min_gram_eigenvalue=min_eig,
        level=cert.level,
        passed=(residual <= DEFAULT_RESIDUAL_TOL and min_eig >= -DEFAULT_PSD_TOL),
    )


@dataclass(frozen=True)
class DisproofReport:
    """The exact check of a disproof: a point of S where the target is
    negative.  ``value`` is the target there, the correctly rounded float of
    its exact value (+-inf beyond the float range); ``reason`` names the
    first failed condition ("" when the disproof holds)."""

    point: tuple[float, ...]
    value: float
    passed: bool
    reason: str

    def to_dict(self) -> dict:
        return {
            "point": list(self.point),
            "value": self.value,
            "pass": self.passed,
            "reason": self.reason,
        }


def _rounded(num: int, den: int) -> float:
    """num / den correctly rounded, and +-inf beyond the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def verify_disproof(
    f: Polynomial, system: SemialgebraicSystem, point
) -> DisproofReport:
    """Check that ``point`` lies in S = {g_i >= 0} and that f(point) < 0.

    Every member of every level of the quadratic module or the preordering
    of the g_i is nonnegative on S, so a passed report proves that f is in
    none of them.  The float coordinates and coefficients are exact dyadic
    rationals and are evaluated as such (``poly.evaluate_exact``), so the
    verdict has no tolerance."""
    x = tuple(float(v) for v in point)
    num, den = evaluate_exact(f, x)
    value = _rounded(num, den)

    def report(passed: bool, reason: str) -> DisproofReport:
        return DisproofReport(point=x, value=value, passed=passed, reason=reason)

    if num >= 0:
        return report(False, f"the target is {value!r} >= 0 at the point")
    for i, g in enumerate(system.constraints):
        g_num, g_den = evaluate_exact(g, x)
        if g_num < 0:
            return report(
                False,
                f"g{i + 1} is {_rounded(g_num, g_den)!r} < 0 at the point, "
                "which lies outside the feasible set",
            )
    return report(True, "")


def round_psd(gram: np.ndarray) -> np.ndarray:
    """Clip eigenvalues in [-DEFAULT_PSD_TOL, 0) to zero; error below it.

    The repaired matrix is exactly PSD up to eigendecomposition rounding.
    """
    g = np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InputError(f"expected a square matrix, got shape {g.shape}")
    g = 0.5 * (g + g.T)
    w, v = np.linalg.eigh(g)
    if w[0] < -DEFAULT_PSD_TOL:
        raise RoundingError(
            f"eigenvalue {w[0]:.3e} below -{DEFAULT_PSD_TOL:.1e}: too indefinite "
            "to repair"
        )
    w = np.clip(w, 0.0, None)
    out = (v * w) @ v.T
    return 0.5 * (out + out.T)


def extract_squares(cert: Certificate) -> list[tuple[Polynomial, list[Polynomial]]]:
    """Factor each sigma_i into an explicit sum of squares.

    Each Gram matrix is repaired by ``round_psd`` and eigendecomposed as
    Q = sum_j lambda_j v_j v_j^T; the squares are p_j = sqrt(lambda_j) v_j^T z.
    Returns one (generator, [p_j, ...]) pair per entry.
    """
    out: list[tuple[Polynomial, list[Polynomial]]] = []
    for entry in cert.entries:
        w, v = np.linalg.eigh(round_psd(entry.gram))
        squares: list[Polynomial] = []
        for j in range(w.size - 1, -1, -1):  # largest eigenvalue first
            if w[j] > 0.0:
                terms = zip(entry.basis.monomials, np.sqrt(w[j]) * v[:, j])
                p = Polynomial(entry.basis.dimension, dict(terms))
                if not p.is_zero:
                    squares.append(p)
        out.append((cert.generator(entry), squares))
    return out


# ----------------------------------------------------------------------
# JSON schema (documented in the README):
# {
#   "mode": "quadratic_module" | "preordering",
#   "n": int,
#   "generators": [poly-string, ...],          # g_1..g_m, g_0 = 1 implicit
#   "entries": [
#     {"index": i} or {"delta": [0/1, ...]},
#     "basis": [[exponents], ...],
#     "gram": [[row], ...]                     # row-major, full precision
#   ]
# }


def certificate_to_dict(cert: Certificate) -> dict:
    entries = []
    for e in cert.entries:
        rec: dict = {
            "basis": [list(alpha) for alpha in e.basis.monomials],
            "gram": [[float(x) for x in row] for row in e.gram],
        }
        if cert.mode == QUADRATIC_MODULE:
            rec["index"] = int(e.index)
        else:
            rec["delta"] = [int(d) for d in e.index]
        entries.append(rec)
    return {
        "mode": cert.mode,
        "n": cert.system.dimension,
        "generators": [format_polynomial(g) for g in cert.system.constraints],
        "entries": entries,
    }


def certificate_from_dict(data: dict) -> Certificate:
    try:
        mode = data["mode"]
        n = json_int(data["n"], '"n"')
        generators = [parse_polynomial(s, n) for s in data["generators"]]
        system = SemialgebraicSystem(n, tuple(generators))
        entries = []
        for rec in data["entries"]:
            monos = tuple(
                tuple(json_int(a, "a basis exponent") for a in alpha)
                for alpha in rec["basis"]
            )
            max_degree = max((sum(a) for a in monos), default=0)
            basis = MonomialBasis(dimension=n, max_degree=max_degree, monomials=monos)
            gram = np.asarray(rec["gram"], dtype=float)
            if "index" in rec:
                index: int | tuple[int, ...] = json_int(rec["index"], '"index"')
            elif "delta" in rec:
                index = tuple(json_int(d, 'a "delta" entry') for d in rec["delta"])
            else:
                raise KeyError("entry needs 'index' or 'delta'")
            entries.append(CertificateEntry(index=index, basis=basis, gram=gram))
        return Certificate(mode=mode, system=system, entries=tuple(entries))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise ParseError(f"malformed certificate document: {exc}") from exc


def save_certificate(cert: Certificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificate_to_dict(cert), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_certificate(path: str) -> Certificate:
    return certificate_from_dict(load_json(path, "certificate"))
