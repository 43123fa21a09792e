"""Closed-form expressions for the first and second derivatives of the
deformation at q = 1, modular inverses, Thomae's function, and the
depth-based numerator/denominator derivative formulas with their calibration
report.

The first-derivative form is (x² − x + 1 − f(x)²)/2 with f Thomae's function.
The second-derivative form combines a cubic polynomial part, a Thomae part,
and a ⟨n/a⟩_b-weighted lattice sum, equal to −s_{1,3} by the bridges here.
d2_closed takes s_{1,3} from dedekind.s_sum, which computes it in O(log b)
integer steps of Apostol's reciprocity law, u(a, b) = (a·b·(5a²b² − a⁴ −
b⁴ − 3) − b²·u(b mod a, a))/a² with u = 120·b⁴·s_{1,3}, folded bottom-up
over the Euclid chain of (a, b); the bridges check it against the literal
bracket sums and against the O(b) loop through s_{3,1}(a^{−1}, b).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Literal

from .exact import Rat, _taylor_at_one
from .qdeform import deform
from .dedekind import s_sum

__all__ = [
    "mod_inverse",
    "thomae",
    "bracket",
    "F",
    "G",
    "H",
    "d1_closed",
    "d2_closed",
    "bracket_weight_sum",
    "bridge_mismatches",
    "numerator_d1_closed",
    "denominator_d1_closed",
    "numerator_derivative",
    "denominator_derivative",
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


def thomae(x: Rat) -> Rat:
    """1/b on reduced a/b (so 1 on integers); sign is ignored by reduction."""
    return Fraction(1, Fraction(x).denominator)


def bracket(n: int, a: int, b: int) -> Rat:
    """⟨n/a⟩_b = (a^{−1}·n mod b)/b − 1/2."""
    return Fraction(mod_inverse(a, b) * n % b, b) - Fraction(1, 2)


def F(x: Rat) -> Rat:
    """Cubic polynomial part of the second-derivative closed form."""
    x = Fraction(x)
    return x ** 3 / 3 - x * x + Fraction(5, 3) * x - 1


def G(x: Rat) -> Rat:
    """Thomae-part multiplier of the second-derivative closed form."""
    return 1 - Fraction(x)


def H(x: Rat) -> Rat:
    """Lattice-sum weight x²(1 − x) of the second-derivative closed form."""
    x = Fraction(x)
    return x * x * (1 - x)


def d1_closed(x: Rat) -> Rat:
    """(x² − x + 1 − f(x)²)/2 — the first derivative of the deformation at
    q = 1, in closed form."""
    x = Fraction(x)
    return (x * x - x + 1 - thomae(x) ** 2) / 2


def d2_closed(a: int, b: int) -> Rat:
    """F(a/b) + f(a/b)²·G(a/b) − 20·s_{1,3}(a, b) — the second derivative of
    the deformation at q = 1, in closed form; the substitution bridge turns
    the paper's lattice term +20·Σ_{n<b} ⟨n/a⟩_b·H(n/b) into the s_{1,3} term."""
    if b < 1:
        raise ValueError("denominator must be >= 1")
    if math.gcd(a, b) != 1:
        raise ValueError(f"{a}/{b} is not reduced")
    x = Fraction(a, b)
    return F(x) + thomae(x) ** 2 * G(x) - 20 * s_sum(1, 3, a, b)


def bracket_weight_sum(a: int, b: int) -> Rat:
    """Σ_{n=1}^{b−1} ⟨n/a⟩_b·H(n/b), literally; equals −s_{1,3}(a, b)."""
    return sum(bracket(n, a, b) * H(Fraction(n, b)) for n in range(1, b))


def bridge_mismatches(max_b: int) -> dict[str, list[tuple[int, int, Rat, Rat]]]:
    """Check the bridges between the bracket lattice sums and the generalized
    Dedekind sums over all reduced a/b with 1 ≤ a ≤ b ≤ max_b:
      substitution: Σ ⟨n/a⟩_b·H(n/b) = −s_{1,3}(a, b)
      symmetry:     s_{3,1}(a^{−1}, b) = s_{1,3}(a, b)
      zero_sum:     Σ ⟨n/a⟩_b·(n/b)(1 − n/b) = 0
    Each failure is recorded as (a, b, lhs, rhs); empty lists = all hold.
    """
    out = {"substitution": [], "symmetry": [], "zero_sum": []}
    for b in range(1, max_b + 1):
        for a in range(1, b + 1):
            if math.gcd(a, b) != 1:
                continue
            s13 = s_sum(1, 3, a, b)
            sides = {
                "substitution": (bracket_weight_sum(a, b), -s13),
                "symmetry": (s_sum(3, 1, mod_inverse(a, b), b), s13),
                "zero_sum": (sum(bracket(n, a, b) * Fraction(n, b) * (1 - Fraction(n, b))
                                 for n in range(1, b)), 0),
            }
            for name, (lhs, rhs) in sides.items():
                if lhs != rhs:
                    out[name].append((a, b, lhs, rhs))
    return out


# --------------------------------------------------------------------------
# Depth-based derivative formulas (calibration targets, not hard claims)
# --------------------------------------------------------------------------

def _depth_value(a: int, b: int, convention: DepthConvention) -> int:
    depth = deform(Fraction(a, b)).depth
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
    if math.gcd(a, b) != 1:
        raise ValueError(f"{a}/{b} is not reduced")
    D = _depth_value(a, b, convention)
    return Fraction(D * b + mod_inverse(a, b) - a, 2)


def denominator_d1_closed(a: int, b: int, convention: DepthConvention = "mediants") -> Rat:
    """(1 − a² + b·a^{−1} + b²(1 − D))/(2a) under the chosen depth
    convention; same calibration caveat as numerator_d1_closed."""
    if a == 0:
        raise ValueError("undefined at a = 0")
    if math.gcd(a, b) != 1:
        raise ValueError(f"{a}/{b} is not reduced")
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
