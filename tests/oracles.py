"""Test-side oracles: the adjacency-checked Farey mediant and the ℤ[q]
product.

The package's descents take Farey sums of pairs adjacent by construction,
so they skip the check; mediant() here makes it.  The package's IntPoly
adds, subtracts, shifts and evaluates, but does not multiply: its only
products run on packed integers inside the continued-fraction tower.  The
oracles that multiply polynomials out term by term (the literal tower, the
product form of the lineage weights, the quotient rule and the Taylor
shift) use this schoolbook convolution, which shares no code with the tower
it checks.
"""
from fractions import Fraction

from qrationals.exact import IntPoly


class NonUnimodularError(ValueError):
    """Mediant requested for a pair that is not a tree edge (|αδ − βγ| ≠ 1)."""


def mediant(x, y) -> Fraction:
    """Farey sum (α+γ)/(β+δ) of a unimodular pair."""
    x, y = Fraction(x), Fraction(y)
    a, b = x.numerator, x.denominator
    c, d = y.numerator, y.denominator
    if abs(a * d - b * c) != 1:
        raise NonUnimodularError(f"{x} and {y} are not adjacent on the tree")
    return Fraction(a + c, b + d)


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """a·b, coefficient by coefficient."""
    if a.is_zero or b.is_zero:
        return IntPoly()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPoly(out)
