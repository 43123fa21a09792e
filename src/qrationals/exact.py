"""Exact arithmetic substrate: rationals, dense integer polynomials in q,
rational functions, derivatives at q = 1, and exact linear solving.

Everything here is immutable and pure; values are safe to share, hash, and
cache.  No floating point anywhere.
"""
from __future__ import annotations

import itertools
import math
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
        rank: the rank found before elimination stalled.
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


@dataclass(frozen=True)
class IntPoly:
    """Dense polynomial over arbitrary-precision integers; coeffs[i] is the
    coefficient of q^i.  The zero polynomial has an empty coefficient tuple;
    otherwise the leading coefficient is nonzero."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _strip(int(c) for c in coeffs))

    # -- constructors ------------------------------------------------------

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

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power")
        result = IntPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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

    def derivative(self, k: int = 1) -> "IntPoly":
        p = self
        for _ in range(k):
            p = IntPoly(i * c for i, c in enumerate(p.coeffs) if i > 0)
        return p

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


def poly_from_json_list(items: Sequence) -> IntPoly:
    return IntPoly(int(c) for c in items)


# --------------------------------------------------------------------------
# Rational functions num/den over IntPoly
# --------------------------------------------------------------------------

def _poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd over ℤ[q] via monic Euclid over ℚ, then content clearing."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]

    def deg(p):
        return len(p) - 1

    def rem(p, d):
        p = p[:]
        while deg(p) >= deg(d) and p:
            if p[-1] == 0:
                p.pop()
                continue
            f = p[-1] / d[-1]
            off = deg(p) - deg(d)
            for i, c in enumerate(d):
                p[i + off] -= f * c
            while p and p[-1] == 0:
                p.pop()
        return p

    while fb:
        fa, fb = fb, rem(fa, fb)
    if not fa:
        return IntPoly()
    lcm_den = 1
    for c in fa:
        lcm_den = lcm_den * c.denominator // math.gcd(lcm_den, c.denominator)
    ints = [int(c * lcm_den) for c in fa]
    g = math.gcd(*ints)
    return IntPoly(c // g for c in ints)


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

    # -- arithmetic (enough for tower/mediant work and tests) -------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def value_at_one(self) -> Rat:
        d = self.den(1)
        if d == 0:
            raise PoleAtOneError("denominator vanishes at q = 1")
        return Fraction(self.num(1), d)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


def _poly_divexact(p: IntPoly, d: IntPoly) -> IntPoly:
    """Exact polynomial division (raises if not exact)."""
    if d.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    out = [Fraction(0)] * max(len(p.coeffs) - len(d.coeffs) + 1, 0)
    rem = [Fraction(c) for c in p.coeffs]
    dd = [Fraction(c) for c in d.coeffs]
    while len(rem) >= len(dd) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(dd):
            break
        f = rem[-1] / dd[-1]
        off = len(rem) - len(dd)
        out[off] = f
        for i, c in enumerate(dd):
            rem[i + off] -= f * c
    if any(rem):
        raise ValueError("inexact polynomial division")
    if any(c.denominator != 1 for c in out):
        raise ValueError("quotient not integral")
    return IntPoly(int(c) for c in out)


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

def solve_linear_exact(A: Sequence[Sequence[Rat]], y: Sequence[Rat]) -> list[Rat]:
    """Solve A·x = y exactly over the rationals.

    Gaussian elimination with full pivoting on nonzero entries: the pivot is
    the first nonzero entry of the remaining submatrix in row-major order —
    deterministic, and exact arithmetic needs no magnitude heuristics.
    """
    n = len(A)
    if any(len(row) != n for row in A) or len(y) != n:
        raise ValueError("matrix must be square and match the vector length")
    M = [[Fraction(c) for c in row] + [Fraction(v)] for row, v in zip(A, y)]
    col_perm = list(range(n))
    for step in range(n):
        pr = pc = -1
        for i in range(step, n):
            for j in range(step, n):
                if M[i][j] != 0:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            raise SingularMatrixError(rank=step, size=n)
        M[step], M[pr] = M[pr], M[step]
        if pc != step:
            for row in M:
                row[step], row[pc] = row[pc], row[step]
            col_perm[step], col_perm[pc] = col_perm[pc], col_perm[step]
        piv = M[step][step]
        for i in range(n):
            if i == step or M[i][step] == 0:
                continue
            f = M[i][step] / piv
            for j in range(step, n + 1):
                M[i][j] -= f * M[step][j]
    x = [Fraction(0)] * n
    for i in range(n):
        x[col_perm[i]] = M[i][n] / M[i][i]
    return x


def matrix_rank_exact(rows: Sequence[Sequence[Rat]]) -> int:
    """Rank of a rational matrix by exact elimination (any shape)."""
    M = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(M[0]) if M else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(M)) if M[i][j] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        pv = M[rank][j]
        for i in range(len(M)):
            if i != rank and M[i][j] != 0:
                f = M[i][j] / pv
                for jj in range(j, cols):
                    M[i][jj] -= f * M[rank][jj]
        rank += 1
        if rank == len(M):
            break
    return rank
