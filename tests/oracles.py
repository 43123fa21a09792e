"""Test-side ℤ[q] product.

The package's IntPoly adds, subtracts, shifts and evaluates, but does not
multiply: its only products run on packed integers inside the
continued-fraction tower.  The oracles that multiply polynomials out term
by term (the literal tower, the product form of the lineage weights, the
quotient rule and the Taylor shift) use this schoolbook convolution, which
shares no code with the tower it checks.
"""
from qrationals.exact import IntPoly


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """a·b, coefficient by coefficient."""
    if a.is_zero or b.is_zero:
        return IntPoly()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPoly(out)
