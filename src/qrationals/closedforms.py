"""Closed-form expressions for the first and second derivatives of the
deformation at q = 1, modular inverses, the bracket lattice-sum bridges, and
the depth-based numerator/denominator derivative formulas with their
calibration report.

Both closed forms are computed on the reduced a/b in integers, with one
division.  The first-derivative form (x² − x + 1 − f(x)²)/2, with f Thomae's
function (f(a/b) = 1/b), is (a² − a·b + b² − 1)/(2b²).  The second-derivative
form F(x) + f(x)²·G(x) − 20·s_{1,3}(a, b) has a cubic part F(x) = x³/3 − x²
+ 5x/3 − 1 = (a³ − 3a²b + 5ab² − 3b³)/(3b³), a Thomae part f²·G = (b − a)/b³
with G(x) = 1 − x, and the term −20·s_{1,3} = −u/(6b⁴) with u =
120·b⁴·s_{1,3}(a, b); over the common denominator 6b⁴ it is

    (2b·(a³ − 3a²b + 5ab² − 3b³) + T) / (6b⁴),   T = 6b·(b − a) − u.

T (_term), the non-cubic part, is also the order-5 lineage correction's
term (sbtree._cleared_correction), so both read this one definition.

The s_{1,3} term is the paper's ⟨n/a⟩_b-weighted lattice sum
+20·Σ_{n<b} ⟨n/a⟩_b·H(n/b), H(x) = x²(1 − x), equal to −20·s_{1,3} by the
bridges here.  u comes from dedekind._s13_cleared, the integer kernel behind
s_sum's (1, 3) path: O(log b) steps of Apostol's reciprocity law, u(a, b) =
(a·b·(5a²b² − a⁴ − b⁴ − 3) − b²·u(b mod a, a))/a², folded bottom-up over the
Euclid chain of (a, b); the bridges check it against the bracket sums, one
integer pass and one division each, and against the O(b) loop through
s_{3,1}(a^{−1}, b).  The literal Fraction forms of F, G and the bracket sums
are test oracles.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Literal

from .exact import Rat, _taylor_at_one
from .qdeform import _depth_and_path, deform, to_cfrac
from .dedekind import _s13_cleared, s_sum

__all__ = [
    "mod_inverse",
    "bracket",
    "d1_closed",
    "d2_closed",
    "bracket_weight_sum",
    "bridge_mismatches",
    "numerator_d1_closed",
    "denominator_d1_closed",
    "lemma_calibration",
    "NoInverseError",
]

DepthConvention = Literal["depth", "mediants"]


class NoInverseError(ValueError):
    """Raised when a modular inverse is requested for non-coprime arguments."""


def mod_inverse(a: int, b: int) -> int:
    """Representative in [0, b−1] of a^{−1} mod b (0 when b = 1)."""
    if b < 1:
        raise ValueError("modulus must be >= 1")
    try:
        return pow(a % b, -1, b)
    except ValueError as exc:
        raise NoInverseError(f"{a} has no inverse modulo {b}") from exc


def bracket(n: int, a: int, b: int) -> Rat:
    """⟨n/a⟩_b = (a^{−1}·n mod b)/b − 1/2 = (2r − b)/(2b), r = a^{−1}·n mod b."""
    return Fraction(2 * (mod_inverse(a, b) * n % b) - b, 2 * b)


def d1_closed(x: Rat) -> Rat:
    """(x² − x + 1 − f(x)²)/2 — the first derivative of the deformation at
    q = 1, in closed form: (a² − a·b + b² − 1)/(2b²) on the reduced a/b."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    return Fraction(a * a - a * b + b * b - 1, 2 * b * b)


def _term(a: int, b: int, memo: dict | None = None) -> int:
    """T = 6b(b − a) − u, u = 120·b⁴·s_{1,3}(a, b) (dedekind._s13_cleared,
    folding through memo if given): 6b⁴ times the non-cubic part
    f²·G − 20·s_{1,3} of d2_closed, which is also 6b times the term
    (b − a) − 20·b³·s_{1,3} of a/b in the order-5 lineage correction
    (sbtree._cleared_correction)."""
    return 6 * b * (b - a) - _s13_cleared(a, b, memo)


def d2_closed(a: int, b: int) -> Rat:
    """F(a/b) + f(a/b)²·G(a/b) − 20·s_{1,3}(a, b) — the second derivative of
    the deformation at q = 1, in closed form; the substitution bridge turns
    the paper's lattice term +20·Σ_{n<b} ⟨n/a⟩_b·H(n/b) into the s_{1,3} term.
    Over 6b⁴ it is 2b·(a³ − 3a²b + 5ab² − 3b³) plus the term T (_term)."""
    if b < 1:
        raise ValueError("denominator must be >= 1")
    if math.gcd(a, b) != 1:
        raise ValueError(f"{a}/{b} is not reduced")
    cubic = a ** 3 - 3 * a * a * b + 5 * a * b * b - 3 * b ** 3
    return Fraction(2 * b * cubic + _term(a, b), 6 * b ** 4)


def bracket_weight_sum(a: int, b: int) -> Rat:
    """Σ_{n=1}^{b−1} ⟨n/a⟩_b·H(n/b) with H(x) = x²(1 − x); equals
    −s_{1,3}(a, b).  With r = a^{−1}·n mod b, ⟨n/a⟩_b = (2r − b)/(2b) and
    H(n/b) = n²(b − n)/b³, so it is Σ (2r − b)·n²·(b − n) over 2b⁴: one
    integer pass and one division."""
    inv = mod_inverse(a, b)
    return Fraction(sum((2 * (inv * n % b) - b) * n * n * (b - n) for n in range(1, b)),
                    2 * b ** 4)


def bridge_mismatches(max_b: int) -> dict[str, list[tuple[int, int, Rat, Rat]]]:
    """Check the bridges between the bracket lattice sums and the generalized
    Dedekind sums over all reduced a/b with 1 ≤ a ≤ b ≤ max_b:
      substitution: Σ ⟨n/a⟩_b·H(n/b) = −s_{1,3}(a, b)
      symmetry:     s_{3,1}(a^{−1}, b) = s_{1,3}(a, b)
      zero_sum:     Σ ⟨n/a⟩_b·(n/b)(1 − n/b) = 0
    The bracket sides read ⟨n/a⟩_b and the weights in integers, never a
    Bernoulli polynomial or the s_{1,3} descent; the zero-sum side is
    Σ (2r − b)·n·(b − n) over 2b³, r = a^{−1}·n mod b.  Each failure is
    recorded as (a, b, lhs, rhs); empty lists = all hold.
    """
    out = {"substitution": [], "symmetry": [], "zero_sum": []}
    for b in range(1, max_b + 1):
        for a in range(1, b + 1):
            if math.gcd(a, b) != 1:
                continue
            inv = mod_inverse(a, b)
            s13 = s_sum(1, 3, a, b)
            zero = sum((2 * (inv * n % b) - b) * n * (b - n) for n in range(1, b))
            sides = {
                "substitution": (bracket_weight_sum(a, b), -s13),
                "symmetry": (s_sum(3, 1, inv, b), s13),
                "zero_sum": (Fraction(zero, 2 * b ** 3), 0),
            }
            for name, (lhs, rhs) in sides.items():
                if lhs != rhs:
                    out[name].append((a, b, lhs, rhs))
    return out


# --------------------------------------------------------------------------
# Depth-based derivative formulas (calibration targets, not hard claims)
# --------------------------------------------------------------------------

def _depth_value(a: int, b: int, convention: DepthConvention) -> int:
    """The depth D of the reduced a/b under the convention (ValueError if
    a/b is not reduced), for both depth-based formulas."""
    if math.gcd(a, b) != 1:
        raise ValueError(f"{a}/{b} is not reduced")
    depth = _depth_and_path(to_cfrac(Fraction(a, b)))[0]
    return depth if convention == "depth" else depth + 1


def numerator_d1_closed(a: int, b: int, convention: DepthConvention = "mediants") -> Rat:
    """(D·b + a^{−1} − a)/2 with D the depth of a/b under the chosen
    convention ("depth" = tree depth; "mediants" = depth + 1 = number of
    mediant steps).

    This formula does NOT reproduce the exact numerator derivative on all
    inputs under either convention; see lemma_calibration for the mismatch
    sets.  The quotient-rule combination of numerator and denominator
    derivatives is the convention-independent invariant.
    """
    D = _depth_value(a, b, convention)
    return Fraction(D * b + mod_inverse(a, b) - a, 2)


def denominator_d1_closed(a: int, b: int, convention: DepthConvention = "mediants") -> Rat:
    """(1 − a² + b·a^{−1} + b²(1 − D))/(2a) under the chosen depth
    convention; same calibration caveat as numerator_d1_closed."""
    if a == 0:
        raise ValueError("undefined at a = 0")
    D = _depth_value(a, b, convention)
    return Fraction(1 - a * a + b * mod_inverse(a, b) + b * b * (1 - D), 2 * a)


def numerator_derivative(a: int, b: int) -> Rat:
    """Exact derivative at q = 1 of the canonical numerator polynomial."""
    return Fraction(_taylor_at_one(deform(Fraction(a, b)).deform.num, 1)[1])


def denominator_derivative(a: int, b: int) -> Rat:
    """Exact derivative at q = 1 of the canonical denominator polynomial."""
    return Fraction(_taylor_at_one(deform(Fraction(a, b)).deform.den, 1)[1])


def lemma_calibration(max_b: int) -> dict:
    """Per-convention mismatch sets of the depth-based formulas against the
    exact polynomial derivatives, over reduced a/b with 1 ≤ a ≤ b ≤ max_b.

    Returns {"numerator": {convention: [(a, b), ...]},
             "denominator": {convention: [(a, b), ...]}}.
    """
    out = {"numerator": {}, "denominator": {}}
    pairs = [(a, b) for b in range(1, max_b + 1) for a in range(1, b + 1)
             if math.gcd(a, b) == 1]
    for conv in ("depth", "mediants"):
        num_mism = []
        den_mism = []
        for a, b in pairs:
            if numerator_d1_closed(a, b, conv) != numerator_derivative(a, b):
                num_mism.append((a, b))
            if denominator_d1_closed(a, b, conv) != denominator_derivative(a, b):
                den_mism.append((a, b))
        out["numerator"][conv] = num_mism
        out["denominator"][conv] = den_mism
    return out
