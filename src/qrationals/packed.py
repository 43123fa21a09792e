"""The packed-integer carrier: a polynomial P held as the integer P(2^W).

Every polynomial the package builds is built on this carrier (Kronecker
substitution): q^k·P is a shift by k·W bits, a sum is an integer sum, and
x·[n]_q is O(log n) shifts and adds (_times_qint).  Each W-bit word is one
coefficient; one that reaches 2^W carries into the next.

Convention.  Every coefficient is nonnegative: a pair (N, D) of a value
below 0 stores its numerator negated, which _unpacked negates back.

Coefficient bounds.  The builders only add and shift such words (the
tower's negative head subtracts without a borrow, qdeform._packed_pair),
so a coefficient of P is at most P(1).  Each caller bounds P(1) before it
starts: the tower by its continuant (qdeform.deform_from_cfrac), the tree
by max(−m, m + 1)·b in window m (sbtree._packed_walk), the lineage weights
by f_m and g_m.

Byte-width rule.  _packed_width(bound) holds coefficients up to 2·bound in
whole bytes with a spare bit, rounded up to 1, 2, 4 or 8 bytes, which
_unpack reads by one memoryview cast; a wider word takes int.from_bytes.

Taylor digits.  With h = 2^W − 1, P(2^W) = P(1 + h) = Σ s_j·h^j, where
s_j = P⁽ʲ⁾(1)/j!.  Shifts and sums commute with reduction modulo h³, so a
walk may keep P(2^W) mod h³ (3·W bits at any depth) and read s_0, s_1, s_2
off as its base-h digits (_taylor_digits) while each is below h.
Nonnegative coefficients give s_j ≤ C(deg P, j)·P(1), which fixes W
(sbtree._jet_width); these words are never unpacked, so W need not be
whole bytes.
"""
from __future__ import annotations

import struct
import sys
from itertools import repeat
from operator import itemgetter

from .exact import IntPoly, RatFunc


def _times_qint(x: int, n: int, width: int) -> int:
    """x·[n]_q for a packed x (q = 2^width), n ≥ 0, by binary doubling:
    [2m] = [m]·(1 + q^m) and [m + 1] = 1 + q·[m], one shift and one add each."""
    if n == 0:
        return 0
    s, m = x, 1
    for bit in bin(n)[3:]:
        s += s << (m * width)
        m *= 2
        if bit == "1":
            s = x + (s << width)
            m += 1
    return s


# memoryview formats that unpack 1-, 2-, 4- and 8-byte words at C speed
_WORD_FORMATS = {struct.calcsize(f): f for f in "BHIQ"}


def _packed_width(bound: int) -> int:
    """Bit width W for coefficients in [0, 2·bound] (the byte-width rule)."""
    nbytes = (bound.bit_length() + 8) // 8
    if nbytes <= 8:
        nbytes = 1 << (nbytes - 1).bit_length()
    return 8 * nbytes


def _unpack(x: int, width: int) -> IntPoly:
    """The polynomial whose packed form at q = 2^width is x ≥ 0, split by
    the byte-width rule; the top word holds x's top bit, so nothing is
    stripped.  The bytes are little-endian, so only a little-endian host
    casts them, and repeat passes from_bytes the order (3.10 needs it)."""
    w = width // 8
    buf = x.to_bytes(-(-x.bit_length() // width) * w, "little")
    fmt = _WORD_FORMATS.get(w) if sys.byteorder == "little" else None
    if fmt is None:
        words = map(itemgetter(0), struct.iter_unpack(f"{w}s", buf))
        coeffs = map(int.from_bytes, words, repeat("little"))
    else:
        coeffs = memoryview(buf).cast(fmt).tolist()
    return IntPoly._from_stripped(tuple(coeffs))


def _unpacked(N: int, D: int, width: int, negated: bool) -> RatFunc:
    """The RatFunc of a canonical packed pair at q = 2^width, its numerator
    negated back when negated (a value below 0)."""
    num = _unpack(N, width)
    return RatFunc(-num if negated else num, _unpack(D, width))


def _taylor_digits(x: int, h: int) -> list[int]:
    """[s_0, s_1, s_2] of P(1 + h) = Σ s_j·h^j for x = P(1 + h) mod h³, P
    with nonnegative coefficients and s_0, s_1, s_2 < h: x's base-h digits."""
    x, s0 = divmod(x, h)
    return [s0, x % h, x // h]


def _jet_modulus(width: int) -> tuple[int, int, int]:
    """(W, h, h³) with W = width and h = 2^W − 1: the constants of a walk
    modulo h³, bound once per walk."""
    h = (1 << width) - 1
    return width, h, h ** 3
