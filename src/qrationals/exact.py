"""Exact arithmetic substrate: rationals, dense integer polynomials in q,
rational functions, derivatives at q = 1, and the fraction-free row
reduction behind the fit's solver (fit._solve_system).

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
    "rat_to_str",
    "IntPoly",
    "RatFunc",
    "derivative_at_one",
    "jets_at_one",
    "ZeroDenominatorError",
    "PoleAtOneError",
]

# Arbitrary-precision rational in canonical reduced form.  The stdlib type
# already maintains both invariants (positive denominator, reduced), so the
# alias is the whole implementation.
Rat = Fraction


class ZeroDenominatorError(ValueError):
    """Raised when a rational is constructed with denominator zero."""


class PoleAtOneError(ZeroDivisionError):
    """Raised when an operation needs to evaluate at q = 1 but den(1) = 0."""


def rat_to_str(r: Rat) -> str:
    """Serialize a rational as "p/q", or just "p" when the denominator is 1."""
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


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
    an integer raises TypeError.  It negates, divides by q^k and evaluates;
    polynomials are built on packed integers (qrationals.packed)."""

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

    def __neg__(self) -> "IntPoly":
        return IntPoly._from_stripped(tuple(map(operator.neg, self.coeffs)))

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

@dataclass(frozen=True)
class RatFunc:
    """num(q)/den(q) in canonical form: den nonzero, no common q-power or
    integer content, and den(1) > 0 (falling back to a positive leading
    denominator coefficient when den(1) = 0).

    The constructor clears exactly those and nothing else, so num and den
    must have no common factor but a monomial c·q^k.  Every pair the package
    builds meets this: each continued-fraction step and each weighted mediant
    is a 2×2 polynomial move of determinant ±q^k, so, by induction from a
    coprime start, a common factor of what it builds divides a power of q.
    tests/test_crosscheck_cas.py checks with sympy that deformations and
    tree nodes come out coprime."""

    num: IntPoly
    den: IntPoly

    def __init__(self, num: IntPoly, den: IntPoly):
        if den.is_zero:
            raise ZeroDenominatorError("denominator polynomial is zero")
        if num.is_zero:
            num, den = IntPoly(), IntPoly.const(1)
        else:
            k = min(num.trailing_order(), den.trailing_order())
            if k:
                num, den = num.unshift(k), den.unshift(k)
            g = math.gcd(num.content(), den.content())
            if g > 1:
                num = IntPoly(c // g for c in num.coeffs)
                den = IntPoly(c // g for c in den.coeffs)
            d1 = sum(den.coeffs)  # den(1)
            if d1 < 0 or (d1 == 0 and den.leading() < 0):
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


# --------------------------------------------------------------------------
# Derivatives at q = 1
# --------------------------------------------------------------------------

def _taylor_at_one(p: IntPoly, k: int) -> list[int]:
    """Coefficients s_0..s_k of h^0..h^k in p(1 + h): the Taylor shift by
    Horner's scheme at q = 1, stopped after k + 1 synthetic divisions by
    q − 1.  Division j is one `accumulate` pass, the running sums of the
    coefficients from the top: the last is the remainder s_j and the others
    are the quotient.  The last division needs only its remainder, so s_k
    is the sum of the quotient before it."""
    sums = p.coeffs[::-1]
    s = []
    for _ in range(k):
        sums = list(itertools.accumulate(sums))
        s.append(sums.pop() if sums else 0)
    s.append(sum(sums))
    return s


def _cleared_jets(rf: RatFunc, k: int) -> tuple[int, list[int]]:
    """(b, [J_0, ..., J_k]) with b = den(1) and J_j = b^{j+1}·f⁽ʲ⁾(1), all
    integers, for f = num/den: one Taylor pass per polynomial (O(k · degree)
    whatever the polynomial size), then _series_quotient."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    return _series_quotient(_taylor_at_one(rf.num, k), _taylor_at_one(rf.den, k))


def _series_quotient(n: Sequence[int], d: Sequence[int]) -> tuple[int, list[int]]:
    """(b, [J_0, ..., J_k]) with b = d_0 and J_j = b^{j+1}·f⁽ʲ⁾(1), for the
    f whose numerator and denominator have the h^j coefficients n_j, d_j at
    q = 1 + h, j ≤ k.

    Divides the truncated power series without leaving the integers: the
    cleared quotient T_j = b^j·n_j − Σ_{i<j} d_{j−i}·b^{j−1−i}·T_i is
    b^{j+1} times the h^j coefficient of f, so J_j = j!·T_j.
    """
    b = d[0]
    if b == 0:
        raise PoleAtOneError("denominator vanishes at q = 1")
    T: list[int] = []
    for j, acc in enumerate(n):
        for i, Ti in enumerate(T):  # T_j by Horner's rule in b
            acc = acc * b - d[j - i] * Ti
        T.append(acc)
    return b, [math.factorial(j) * Tj for j, Tj in enumerate(T)]


def jets_at_one(rf: RatFunc, k: int) -> list[Rat]:
    """Exact derivatives f(1), f′(1), ..., f^(k)(1) of f = num/den: the
    cleared jets of _cleared_jets, each divided once by b^{j+1}."""
    b, J = _cleared_jets(rf, k)
    return [Fraction(Jj, b ** (j + 1)) for j, Jj in enumerate(J)]


def derivative_at_one(rf: RatFunc, k: int) -> Rat:
    """Exact k-th derivative of num/den at q = 1: the cleared jet J_k of
    _cleared_jets divided by b^{k+1}, the one Fraction built."""
    b, J = _cleared_jets(rf, k)
    return Fraction(J[k], b ** (k + 1))


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

