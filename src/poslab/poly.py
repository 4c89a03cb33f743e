"""Sparse multivariate polynomial arithmetic and the weighted coefficient norm.

A polynomial in n variables is a finite map from exponent vectors
``alpha = (a_1, ..., a_n)`` to float coefficients.  The zero polynomial is the
empty map.  All iteration that can affect numerical results runs in graded
lexicographic order (ascending total degree, then x1 before x2 before ...),
so sums and downstream SDP constraint indexing are reproducible.

The size measure used throughout the package is the weighted coefficient norm

    ||f|| = max_alpha |a_alpha| / multinomial(|alpha|, alpha),

the natural norm for the sup/Lipschitz estimates on [-1,1]^n implemented
below (``sup_bound``, ``lipschitz_bound``, ``product_norm_bound``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import CapacityError, DimensionMismatchError, InputError, ParseError

Monomial = tuple[int, ...]

# Terms with |coefficient| <= DEFAULT_PRUNE_TOL are dropped after arithmetic,
# keeping the sparse maps free of float dust.
DEFAULT_PRUNE_TOL = 1e-14

DEFAULT_BASIS_CAP = 2_000

# Multinomial coefficients are computed in exact integer arithmetic up to this
# total degree; beyond it the problem is out of desk scale.
MAX_NORM_DEGREE = 60


def grlex_key(alpha: Monomial) -> tuple:
    """Sort key realizing graded lex order with x1 > x2 > ... > xn."""
    return (sum(alpha), tuple(-a for a in alpha))


def multinomial(alpha: Monomial) -> float:
    """Multinomial coefficient |alpha|! / (a_1! ... a_n!) as a float.

    Computed exactly in integer arithmetic, then converted.  Degrees above
    MAX_NORM_DEGREE raise CapacityError.
    """
    total = sum(alpha)
    if total > MAX_NORM_DEGREE:
        raise CapacityError(
            f"multinomial coefficient of degree {total} exceeds the cap "
            f"{MAX_NORM_DEGREE}"
        )
    value = math.factorial(total)
    for a in alpha:
        value //= math.factorial(a)
    return float(value)


class Polynomial:
    """Immutable sparse polynomial over n >= 1 real variables.

    Construct directly from a term map, via the classmethods (``zero``,
    ``constant``, ``variable``), with ``parse_polynomial``, or by arithmetic
    on existing polynomials.
    Stored coefficients are never zero; keys all have length ``dimension``.
    """

    __slots__ = ("dimension", "_terms")

    def __init__(self, dimension: int, terms: Mapping[Monomial, float]):
        if dimension < 1:
            raise InputError(f"dimension must be >= 1, got {dimension}")
        clean: dict[Monomial, float] = {}
        for alpha, coef in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dimension:
                raise DimensionMismatchError(
                    f"exponent vector {alpha} has length {len(alpha)}, "
                    f"expected {dimension}"
                )
            if any(a < 0 for a in alpha):
                raise InputError(f"negative exponent in {alpha}")
            coef = float(coef)
            if coef != 0.0:
                clean[alpha] = coef
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension: int, value: float) -> "Polynomial":
        return cls(dimension, {(0,) * dimension: float(value)})

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(sum(alpha) for alpha in self._terms)

    def terms(self) -> Iterator[tuple[Monomial, float]]:
        """Terms in graded lex order."""
        for alpha in sorted(self._terms, key=grlex_key):
            yield alpha, self._terms[alpha]

    def coefficient(self, alpha: Monomial) -> float:
        return self._terms.get(tuple(alpha), 0.0)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dimension == other.dimension and self._terms == other._terms

    def __hash__(self):
        return hash((self.dimension, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"Polynomial({self.dimension}, {format_polynomial(self)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)

    # ------------------------------------------------------------------
    # arithmetic (exact sparse dict operations, pruned)

    def _check_same_dimension(self, other: "Polynomial") -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_dimension(other)
        out = dict(self._terms)
        for alpha, coef in other._terms.items():
            out[alpha] = out.get(alpha, 0.0) + coef
        return Polynomial(self.dimension, _pruned(out))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_dimension(other)
        out = dict(self._terms)
        for alpha, coef in other._terms.items():
            out[alpha] = out.get(alpha, 0.0) - coef
        return Polynomial(self.dimension, _pruned(out))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.dimension, {a: -c for a, c in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_dimension(other)
        out: dict[Monomial, float] = {}
        for a, ca in self._terms.items():
            for b, cb in other._terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0.0) + ca * cb
        return Polynomial(self.dimension, _pruned(out))

    def scale(self, factor: float) -> "Polynomial":
        factor = float(factor)
        return Polynomial(
            self.dimension, _pruned({a: factor * c for a, c in self._terms.items()})
        )

    def power(self, exponent: int) -> "Polynomial":
        """Integer power by repeated multiplication."""
        if exponent < 0:
            raise InputError("negative polynomial power")
        result = Polynomial.constant(self.dimension, 1.0)
        for _ in range(exponent):
            result = result * self
        return result

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, point: Iterable[float]) -> float:
        """The value at one point: ``evaluate_many`` on a one-row array."""
        x = [float(v) for v in point]
        if len(x) != self.dimension:
            raise DimensionMismatchError(
                f"point has length {len(x)}, expected {self.dimension}"
            )
        return float(self.evaluate_many(np.array([x]))[0])

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (N, n) array of points.

        Each power ``pts[:, i] ** a`` is computed once per call, when the
        first term needs it, and reused by every later term.  A term is its
        coefficient times its powers, multiplied left to right over the
        variables, and the terms accumulate in graded lex order.  Every
        operation is elementwise, so a point's value does not depend on the
        other rows: ``evaluate`` gives the same float for it alone, and the
        result is bit-reproducible for identical inputs.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"points must have shape (N, {self.dimension}), got {pts.shape}"
            )
        return self._sum_terms(lambda i, a: pts[:, i] ** a, (pts.shape[0],))

    def evaluate_grid(self, axes) -> np.ndarray:
        """The values on the tensor grid of ``axes`` (one 1-D array of
        coordinates per variable), flat, in the row order of the grid's
        points (the first axis slowest, as ``np.meshgrid(..., indexing="ij")``).

        Bit-identical to ``evaluate_many`` on the (N, n) array of those
        points, at the cost of the axes rather than the points: each power
        ``axis ** a`` is computed on the axis values only, and a term's
        factors are multiplied left to right by broadcasting, so every value
        goes through the same floating-point operations in the same order.
        A value past the float range is +-inf, without a warning (the grid
        oracles judge it); InputError where such values cancel (a NaN).
        """
        axes = [np.asarray(axis, dtype=float) for axis in axes]
        if len(axes) != self.dimension or any(axis.ndim != 1 for axis in axes):
            raise DimensionMismatchError(
                f"need {self.dimension} one-dimensional axes, got "
                f"{[axis.shape for axis in axes]}"
            )
        shape = tuple(len(axis) for axis in axes)

        def power(i: int, a: int) -> np.ndarray:
            # the axis along dimension i, length 1 along every other
            shape_i = [-1 if j == i else 1 for j in range(len(shape))]
            return (axes[i] ** a).reshape(shape_i)

        try:
            with np.errstate(over="ignore", invalid="raise"):
                return self._sum_terms(power, shape).reshape(-1)
        except FloatingPointError:
            raise InputError(
                f"{self} is NaN on the grid: terms past the float range cancel"
            ) from None

    def _sum_terms(self, power, shape: tuple[int, ...]) -> np.ndarray:
        """sum over the terms, in graded lex order, of the coefficient times
        ``power(i, a)`` for each variable i with exponent a > 0, multiplied
        left to right; each power is asked for once and reused.  The powers
        broadcast to ``shape``, the shape of the result."""
        powers: dict[tuple[int, int], np.ndarray] = {}
        total = np.zeros(shape)
        for alpha, coef in self.terms():
            term = coef
            for i, a in enumerate(alpha):
                if a:
                    p = powers.get((i, a))
                    if p is None:
                        p = powers[(i, a)] = power(i, a)
                    term = term * p
            total += term
        return total


def evaluate_exact(f: Polynomial, point: Iterable[float]) -> tuple[int, int]:
    """f(point) exactly, as integers (numerator, denominator) with a
    positive denominator.

    A finite float is a dyadic rational, p / 2^e, and so is every product
    and sum of them.  So the float coefficients and coordinates, read with
    ``float.as_integer_ratio``, give the value with no rounding at all: its
    sign is the sign of the numerator, and numerator / denominator (integer
    true division) is the correctly rounded float.  Raises InputError on a
    nonfinite coordinate."""
    x = [float(v) for v in point]
    if len(x) != f.dimension:
        raise DimensionMismatchError(
            f"point has length {len(x)}, expected {f.dimension}"
        )
    if not all(math.isfinite(v) for v in x):
        raise InputError(f"point {x} is not finite")
    # one power-of-two denominator for the point, one for the coefficients;
    # the sum is exact, so the order of the terms does not matter
    ratios = [v.as_integer_ratio() for v in x]
    point_den = max((q for _, q in ratios), default=1)
    nums = [p * (point_den // q) for p, q in ratios]
    coefs = [(alpha, coef.as_integer_ratio()) for alpha, coef in f._terms.items()]
    coef_den = max((q for _, (_, q) in coefs), default=1)
    degree = f.degree
    den_powers = [point_den**e for e in range(degree + 1)]
    total = 0
    for alpha, (p, q) in coefs:
        term = p * (coef_den // q) * den_powers[degree - sum(alpha)]
        for num, a in zip(nums, alpha):
            if a:
                term *= num**a
        total += term
    return total, coef_den * den_powers[degree]


def _pruned(terms: dict[Monomial, float]) -> dict[Monomial, float]:
    return {a: c for a, c in terms.items() if abs(c) > DEFAULT_PRUNE_TOL}


# ----------------------------------------------------------------------
# monomial bases


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


def monomial_basis(dimension: int, max_degree: int) -> MonomialBasis:
    """Graded-lex basis of the polynomials of degree <= max_degree."""
    if dimension < 1:
        raise InputError(f"dimension must be >= 1, got {dimension}")
    if max_degree < 0:
        raise InputError(f"max_degree must be >= 0, got {max_degree}")
    size = math.comb(dimension + max_degree, dimension)
    if size > DEFAULT_BASIS_CAP:
        raise CapacityError(
            f"monomial basis of size {size} exceeds the cap {DEFAULT_BASIS_CAP} "
            f"(n={dimension}, d={max_degree})"
        )
    monos: list[Monomial] = []
    for d in range(max_degree + 1):
        monos.extend(_degree_compositions(d, dimension))  # already graded lex
    return MonomialBasis(dimension=dimension, max_degree=max_degree, monomials=tuple(monos))


# ----------------------------------------------------------------------
# packed monomial keys: with radix R = top_degree + 1, above every exponent,
# key(alpha) = |alpha| R^n - sum_i a_i R^(n-1-i) = sum_i a_i (R^n - R^(n-1-i)).
# A key is additive, key(beta + gamma) = key(beta) + key(gamma), and keys
# increase in graded lex order; int64 when top_degree R^n fits, else Python ints.


def monomial_keys(monomials, dimension: int, top_degree: int) -> np.ndarray:
    """The packed keys of exponent vectors of total degree <= top_degree."""
    radix = top_degree + 1
    weights = [radix**dimension - radix ** (dimension - 1 - i) for i in range(dimension)]
    fits = top_degree * radix**dimension < 2**63
    exps = np.array(monomials, dtype=np.int64).reshape(-1, dimension)
    return exps @ np.array(weights, dtype=np.int64 if fits else object)


def key_monomials(keys: np.ndarray, dimension: int, top_degree: int) -> list[Monomial]:
    """The exponent vectors of packed keys: ``monomial_keys`` inverted."""
    radix, power = top_degree + 1, (top_degree + 1) ** dimension
    rest = -(-keys // power) * power - keys  # |alpha| R^n - key
    digits = [(rest // radix ** (dimension - 1 - i)) % radix for i in range(dimension)]
    return list(zip(*(d.tolist() for d in digits)))


def gram_product_keys(
    basis: MonomialBasis, generator: Polynomial, top_degree: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where the Gram entries of ``basis`` land once multiplied by
    ``generator``, as (r, s, keys, coefs): the upper-triangle pairs
    r[p] <= s[p] in row-major order, and keys[p, t], the packed key of
    z_r z_s x^alpha_t for the t-th term of the generator in graded lex order,
    whose coefficient is coefs[t].  Every product must have degree <=
    top_degree."""
    terms = list(generator.terms())
    monos = [*basis.monomials, *(alpha for alpha, _ in terms)]
    keys = monomial_keys(monos, generator.dimension, top_degree)
    size = len(basis.monomials)
    index = np.arange(size)
    r, s = np.nonzero(index[:, None] <= index)  # np.triu_indices, at less cost
    coefs = np.array([coef for _, coef in terms])
    return r, s, (keys[r] + keys[s])[:, None] + keys[size:], coefs


# ----------------------------------------------------------------------
# norm and analytic bounds


def weighted_norm(f: Polynomial) -> float:
    """max over terms of |coefficient| / multinomial(|alpha|, alpha); 0 for f = 0."""
    # np.max, unlike max, keeps a NaN coefficient: its norm is NaN
    ratios = [abs(coef) / multinomial(alpha) for alpha, coef in f._terms.items()]
    return float(np.max(ratios, initial=0.0))


def sup_bound(f: Polynomial) -> float:
    """Upper bound 2 d n^d ||f|| for |f| on [-1,1]^n; requires deg f >= 1."""
    d = f.degree
    if d < 1:
        raise InputError("sup_bound requires degree >= 1")
    return 2.0 * d * float(f.dimension) ** d * weighted_norm(f)


def lipschitz_bound(f: Polynomial) -> float:
    """Lipschitz constant d^2 n^(d-1) sqrt(n) ||f|| for f on [-1,1]^n.

    Valid for any nonzero f; the zero polynomial is rejected.
    """
    if f.is_zero:
        raise InputError("lipschitz_bound requires a nonzero polynomial")
    d = f.degree
    n = f.dimension
    return d**2 * float(n) ** (d - 1) * math.sqrt(n) * weighted_norm(f)


def product_norm_bound(factors: list[Polynomial]) -> float:
    """Certified upper bound prod(1 + deg p_i) * prod ||p_i|| on ||p_1 ... p_s||."""
    bound = 1.0
    for p in factors:
        if p.is_zero:
            raise InputError("product_norm_bound requires nonzero factors")
        bound *= (1.0 + p.degree) * weighted_norm(p)
    return bound


def rescale(f: Polynomial, r: float) -> Polynomial:
    """Substitute x -> r x: coefficient a_alpha becomes a_alpha * r^|alpha|."""
    r = float(r)
    if r <= 0.0:
        raise InputError(f"rescale factor must be positive, got {r}")
    return Polynomial(
        f.dimension,
        _pruned({a: c * r ** sum(a) for a, c in f._terms.items()}),
    )


# ----------------------------------------------------------------------
# text grammar: terms joined by +/-, term = [coefficient *] x<i>[^<e>] factors

_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _split_signed_terms(text: str) -> list[tuple[float, str]]:
    """Split at top-level +/-, keeping signs; exponent signs of scientific
    notation (1e-3) are not separators."""
    terms: list[tuple[float, str]] = []
    sign = 1.0
    buf: list[str] = []
    prev = ""
    for ch in text:
        if ch in "+-" and prev not in ("e", "E"):
            if buf:
                terms.append((sign, "".join(buf)))
                buf = []
                sign = 1.0
            elif terms:
                raise ParseError(f"dangling sign in {text!r}")
            if ch == "-":
                sign = -sign
        else:
            buf.append(ch)
        prev = ch
    if not buf:
        raise ParseError(f"empty term in {text!r}")
    terms.append((sign, "".join(buf)))
    return terms


def parse_polynomial(text: str, dimension: int | None = None) -> Polynomial:
    """Parse strings like ``2*x1^2*x2 - 3*x2 + 1`` (whitespace insensitive).

    The dimension is inferred from the highest variable index unless given.
    """
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty polynomial string")
    raw_terms: list[tuple[float, dict[int, int]]] = []
    max_index = 0
    for sign, body in _split_signed_terms(compact):
        coef = sign
        exps: dict[int, int] = {}
        for factor in body.split("*"):
            if not factor:
                raise ParseError(f"empty factor in term {body!r}")
            m = _VAR_RE.match(factor)
            if m:
                idx = int(m.group(1))
                if idx < 1:
                    raise ParseError(f"variable indices start at x1, got {factor!r}")
                exp = int(m.group(2)) if m.group(2) else 1
                exps[idx - 1] = exps.get(idx - 1, 0) + exp
                max_index = max(max_index, idx)
            else:
                try:
                    coef *= float(factor)
                except ValueError:
                    raise ParseError(f"cannot parse factor {factor!r}") from None
        if not math.isfinite(coef):  # inf, nan, 1e400 or 1e200*1e200
            raise ParseError(f"term {body!r} has a coefficient that is not finite: {coef}")
        raw_terms.append((coef, exps))
    n = dimension if dimension is not None else max(max_index, 1)
    if n < max_index:
        raise ParseError(
            f"polynomial uses x{max_index} but declared dimension is {n}"
        )
    terms: dict[Monomial, float] = {}
    for coef, exps in raw_terms:
        alpha = tuple(exps.get(i, 0) for i in range(n))
        terms[alpha] = terms.get(alpha, 0.0) + coef
        if not math.isfinite(terms[alpha]):
            raise ParseError(f"terms of exponent {list(alpha)} sum to {terms[alpha]}")
    return Polynomial(n, {a: c for a, c in terms.items() if c != 0.0})


def format_polynomial(f: Polynomial) -> str:
    """Deterministic rendering, highest graded-lex terms first.

    Coefficients print via ``repr`` so parse(format(f)) round-trips exactly.
    """
    if f.is_zero:
        return "0"
    parts: list[str] = []
    for alpha, coef in sorted(f._terms.items(), key=lambda t: grlex_key(t[0]), reverse=True):
        factors = [
            f"x{i + 1}^{a}" if a > 1 else f"x{i + 1}"
            for i, a in enumerate(alpha)
            if a > 0
        ]
        mag = abs(coef)
        if factors and mag == 1.0:
            body = "*".join(factors)
        elif factors:
            body = "*".join([repr(mag)] + factors)
        else:
            body = repr(mag)
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts)
