"""Exact arithmetic substrate: rationals, dense integer polynomials in q,
rational functions, derivatives at q = 1, and exact linear solving.

Everything here is immutable and pure; values are safe to share, hash, and
cache.  No floating point anywhere.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "Rat",
    "rat_reduce",
    "rat_to_str",
    "rat_from_str",
    "IntPoly",
    "RatFunc",
    "derivative_at_one",
    "jets_at_one",
    "solve_linear_exact",
    "ZeroDenominatorError",
    "PoleAtOneError",
    "SingularMatrixError",
]

# Arbitrary-precision rational in canonical reduced form.  The stdlib type
# already maintains both invariants (positive denominator, reduced), so the
# alias is the whole implementation.
Rat = Fraction


class ZeroDenominatorError(ValueError):
    """Raised when a rational is constructed with denominator zero."""


class PoleAtOneError(ZeroDivisionError):
    """Raised when an operation needs to evaluate at q = 1 but den(1) = 0."""


class SingularMatrixError(ValueError):
    """Raised by the exact solver on a rank-deficient system.

    Attributes:
        rank: the matrix's rank.
    """

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        super().__init__(f"singular matrix: rank {rank} < {size}")


def rat_reduce(num: int, den: int) -> Rat:
    """Canonical reduced rational with positive denominator.

    >>> rat_reduce(2, 4)
    Fraction(1, 2)
    """
    if den == 0:
        raise ZeroDenominatorError("denominator must be nonzero")
    return Fraction(num, den)


def rat_to_str(r: Rat) -> str:
    """Serialize a rational as "p/q", or just "p" when the denominator is 1."""
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def rat_from_str(s: str) -> Rat:
    """Parse "p/q" or "p" (integers only; no decimals)."""
    s = s.strip()
    if "/" in s:
        p, _, q = s.partition("/")
        return rat_reduce(int(p), int(q))
    return Fraction(int(s))


# --------------------------------------------------------------------------
# Dense integer polynomials in q
# --------------------------------------------------------------------------

def _strip(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _primitive(coeffs: list[int]) -> list[int]:
    """coeffs divided by their content (unchanged when it is 0 or 1)."""
    g = math.gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else coeffs


@dataclass(frozen=True)
class IntPoly:
    """Dense polynomial over arbitrary-precision integers; coeffs[i] is the
    coefficient of q^i.  The zero polynomial has an empty coefficient tuple;
    otherwise the leading coefficient is nonzero.  A coefficient that is not
    an integer raises TypeError."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _strip(map(operator.index, coeffs)))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _from_stripped(coeffs: tuple[int, ...]) -> "IntPoly":
        """Trusted constructor: coeffs is already a tuple of ints that is
        empty or ends in a nonzero entry, so neither check runs again."""
        p = object.__new__(IntPoly)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly((c,))

    @staticmethod
    def monomial(k: int, c: int = 1) -> "IntPoly":
        """c * q^k"""
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return IntPoly((0,) * k + (c,))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the polynomial; −1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def content(self) -> int:
        """gcd of all coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def trailing_order(self) -> int:
        """Index of the lowest nonzero coefficient (0 for the zero poly)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return 0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        return IntPoly(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        return IntPoly(x - y for x, y in itertools.zip_longest(a, b, fillvalue=0))

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPoly":
        """Multiply by q^k (k ≥ 0)."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def unshift(self, k: int) -> "IntPoly":
        """Exact division by q^k; requires the low k coefficients to vanish."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError("polynomial not divisible by q^k")
        return IntPoly(self.coeffs[k:])

    # -- evaluation / calculus --------------------------------------------

    def __call__(self, x):
        """Evaluate at x (int or Fraction) by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "q" if i == 1 else f"q^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def poly_to_json_list(p: IntPoly) -> list[str]:
    """Serialize coefficients as decimal strings, lowest degree first."""
    return [str(c) for c in p.coeffs]


# --------------------------------------------------------------------------
# Rational functions num/den over IntPoly
# --------------------------------------------------------------------------

def _pseudo_remainder(p: list[int], d: Sequence[int]) -> list[int]:
    """Primitive part of a remainder of p by d in ℤ[q] (coefficient lists,
    lowest degree first, no trailing zeros): each step scales p by
    lc(d)/gcd(lc(p), lc(d)) so that its leading term cancels over ℤ."""
    while len(p) >= len(d):
        g = math.gcd(p[-1], d[-1])
        scale, f, off = d[-1] // g, p[-1] // g, len(p) - len(d)
        p = [scale * c for c in p]
        for i, c in enumerate(d):
            p[off + i] -= f * c
        p = _primitive(list(_strip(p)))
    return p


def _poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd over ℤ[q] with a positive leading coefficient: Euclid on
    primitive pseudo-remainders (Brown–Collins), integers throughout."""
    x, y = list(a.coeffs), list(b.coeffs)
    while y:
        x, y = y, _pseudo_remainder(x, y)
    x = _primitive(x)
    return IntPoly(c if x[-1] > 0 else -c for c in x)


@dataclass(frozen=True)
class RatFunc:
    """num(q)/den(q) in canonical form: den nonzero, no common polynomial
    factor or integer content, and den(1) > 0 (falling back to a positive
    leading denominator coefficient when den(1) = 0)."""

    num: IntPoly
    den: IntPoly

    def __init__(self, num: IntPoly, den: IntPoly):
        if den.is_zero:
            raise ZeroDenominatorError("denominator polynomial is zero")
        if not num.is_zero:
            g = _poly_gcd(num, den)
            if g.degree() > 0:
                num = _poly_divexact(num, g)
                den = _poly_divexact(den, g)
        num, den = _clear_pair(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _from_clean(num: IntPoly, den: IntPoly) -> "RatFunc":
        """Fast constructor for pairs already free of nonconstant common
        factors (e.g. outputs of the deformation tower, whose steps are 2×2
        polynomial moves of determinant ±q^k).  Only clears a common q-power,
        integer content, and the sign."""
        if den.is_zero:
            raise ZeroDenominatorError("denominator polynomial is zero")
        num, den = _clear_pair(num, den)
        rf = object.__new__(RatFunc)
        object.__setattr__(rf, "num", num)
        object.__setattr__(rf, "den", den)
        return rf

    def value_at_one(self) -> Rat:
        d = self.den(1)
        if d == 0:
            raise PoleAtOneError("denominator vanishes at q = 1")
        return Fraction(self.num(1), d)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


def _poly_divexact(p: IntPoly, d: IntPoly) -> IntPoly:
    """Exact polynomial division by integer long division (raises if not
    exact); a primitive d that divides p over ℚ leaves an integer quotient
    (Gauss's lemma)."""
    if d.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    rem, dd = list(p.coeffs), d.coeffs
    out = [0] * max(len(rem) - len(dd) + 1, 0)
    while len(rem) >= len(dd):
        f, r = divmod(rem[-1], dd[-1])
        if r:
            raise ValueError("quotient not integral")
        off = len(rem) - len(dd)
        out[off] = f
        for i, c in enumerate(dd):
            rem[i + off] -= f * c
        rem = list(_strip(rem))
    if rem:
        raise ValueError("inexact polynomial division")
    return IntPoly(out)


def _clear_pair(num: IntPoly, den: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Common q-power, integer content, and sign normalization."""
    if num.is_zero:
        return IntPoly(), IntPoly.const(1)
    k = min(num.trailing_order(), den.trailing_order())
    if k:
        num, den = num.unshift(k), den.unshift(k)
    g = math.gcd(num.content(), den.content())
    if g > 1:
        num = IntPoly(c // g for c in num.coeffs)
        den = IntPoly(c // g for c in den.coeffs)
    d1 = den(1)
    negative = d1 < 0 or (d1 == 0 and den.leading() < 0)
    if negative:
        num, den = -num, -den
    return num, den


# --------------------------------------------------------------------------
# Derivatives at q = 1
# --------------------------------------------------------------------------

def _taylor_at_one(p: IntPoly, k: int) -> list[int]:
    """Coefficients s_0..s_k of h^0..h^k in p(1 + h): the Taylor shift by
    Horner's scheme at q = 1, stopped after k + 1 synthetic divisions by
    q − 1.  Division j's remainder is s_j; its quotient, the running sums of
    the coefficients from the top, is one `accumulate` pass."""
    sums = p.coeffs[::-1]
    s = []
    for _ in range(k + 1):
        sums = list(itertools.accumulate(sums))
        s.append(sums.pop() if sums else 0)
    return s


def jets_at_one(rf: RatFunc, k: int) -> list[Rat]:
    """Exact derivatives f(1), f′(1), ..., f^(k)(1) of f = num/den.

    Shifts to h = q − 1 and divides truncated power series: one Taylor pass
    per polynomial gives the first k+1 shifted coefficients, so the cost is
    O(k · degree) regardless of polynomial size.
    """
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    d = _taylor_at_one(rf.den, k)
    if d[0] == 0:
        raise PoleAtOneError("denominator vanishes at q = 1")
    n = _taylor_at_one(rf.num, k)
    # t = n/d as a truncated series in h; the j-th derivative is j!·t_j
    t: list[Fraction] = []
    for j in range(k + 1):
        acc = n[j] - sum(d[j - i] * t[i] for i in range(j))
        t.append(Fraction(acc) / d[0])
    return [tj * math.factorial(j) for j, tj in enumerate(t)]


def derivative_at_one(rf: RatFunc, k: int) -> Rat:
    """Exact k-th derivative of num/den at q = 1 (see jets_at_one)."""
    return jets_at_one(rf, k)[k]


# --------------------------------------------------------------------------
# Exact linear algebra
# --------------------------------------------------------------------------

def _echelon(rows: Iterable[Sequence[Rat]], width: int) -> list[tuple[int, list[int]]]:
    """Fraction-free Gauss–Jordan reduction, one row at a time.

    Each row is cleared to integers and reduced against the rows kept so far
    (r ← k_p·r − r_p·k, then divided by its content).  It is kept when a
    nonzero entry remains among its first `width` columns; later columns ride
    along.  So the kept rows are the first rank-increasing rows in input
    order, each with its pivot column, and each kept row is zero in every
    other kept row's pivot column.  Returns (pivot column, primitive integer
    row) per kept row.
    """
    kept: list[tuple[int, list[int]]] = []
    for row in rows:
        row = [Fraction(c) for c in row]
        den = math.lcm(*(c.denominator for c in row))
        r = [c.numerator * (den // c.denominator) for c in row]
        for p, k in kept:
            if r[p]:
                r = _primitive([k[p] * x - r[p] * y for x, y in zip(r, k)])
        col = next((j for j in range(width) if r[j]), None)
        if col is None:
            continue
        for i, (p, k) in enumerate(kept):
            if k[col]:
                kept[i] = p, _primitive([r[col] * y - k[col] * x for x, y in zip(r, k)])
        kept.append((col, r))
    return kept


def solve_linear_exact(A: Sequence[Sequence[Rat]], y: Sequence[Rat]) -> list[Rat]:
    """Solve A·x = y exactly over the rationals: the fraction-free reduction
    of [A | y], then one division per unknown."""
    n = len(A)
    if any(len(row) != n for row in A) or len(y) != n:
        raise ValueError("matrix must be square and match the vector length")
    kept = _echelon([[*row, v] for row, v in zip(A, y)], n)
    if len(kept) < n:
        raise SingularMatrixError(rank=len(kept), size=n)
    return [Fraction(r[n], r[p]) for p, r in sorted(kept)]


def matrix_rank_exact(rows: Sequence[Sequence[Rat]]) -> int:
    """Rank of a rational matrix by exact elimination (any shape)."""
    return len(_echelon(rows, len(rows[0]) if rows else 0))
