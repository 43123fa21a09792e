"""Canonical q-deformation [a/b]_q of a rational number.

The deformation is defined through the alternating continued fraction

    [a_0]_q + q^{a_0} / ( [a_1]_{1/q} + q^{-a_1} / ( [a_2]_q + ... ) )

evaluated bottom-up over integer-polynomial pairs, with reciprocal-variable
factors cleared to ordinary polynomials at every step.  Each step is a 2×2
polynomial move of determinant ±q^k, so the final pair needs only q-power /
content / sign normalization to be canonical.

The tower runs on packed integers (Kronecker substitution): a polynomial P
with nonnegative coefficients below 2^B is held as the integer P(2^B), so
q^k·P is a left shift by k·B bits, a sum of polynomials is an integer sum,
and the product by [a]_q is O(log a) shifts and adds by binary doubling.
The coefficients are bounded by the continued fraction's continuant, which
fixes B before the tower starts (see deform_from_cfrac); unpacking is one
to_bytes and a split into B-bit words.
"""
from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import (
    IntPoly,
    Rat,
    RatFunc,
    poly_to_json_list,
    rat_to_str,
)

__all__ = [
    "CFrac",
    "QRational",
    "to_cfrac",
    "deform",
    "deform_from_cfrac",
    "qrational_to_json",
    "qrational_from_json",
]


@dataclass(frozen=True)
class CFrac:
    """Continued-fraction expansion a_0; a_1, ..., a_m with a_i ≥ 1 for i ≥ 1.

    Both terminal conventions (..., a_m) and (..., a_m − 1, 1) are valid
    instances and evaluate to the same rational.
    """

    terms: tuple[int, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("expansion needs at least one term")
        if any(t < 1 for t in self.terms[1:]):
            raise ValueError("partial quotients after the first must be >= 1")

    def value(self) -> Rat:
        v = Fraction(self.terms[-1])
        for t in reversed(self.terms[:-1]):
            v = t + 1 / v
        return v


def to_cfrac(x: Rat) -> CFrac:
    """Expand x by the Euclidean algorithm (floor-based, so negatives work).

    The canonical expansion never ends in a partial quotient of 1 except for
    integers.
    """
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    terms = []
    while q:
        t, r = divmod(p, q)
        terms.append(t)
        p, q = q, r
    return CFrac(tuple(terms))


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
    """Bit width B for coefficients in [0, 2·bound]: whole bytes with a spare
    bit, rounded up to a machine word size when that is at most 8 bytes."""
    nbytes = (bound.bit_length() + 8) // 8
    if nbytes <= 8:
        nbytes = 1 << (nbytes - 1).bit_length()
    return 8 * nbytes


def _unpack(x: int, width: int) -> IntPoly:
    """The polynomial whose packed form at q = 2^width is x ≥ 0.  The words
    are ints, and the top one holds x's top bit, so nothing is stripped."""
    w = width // 8
    size = -(-x.bit_length() // width) * w
    buf = x.to_bytes(size, "little")
    fmt = _WORD_FORMATS.get(w) if sys.byteorder == "little" else None
    if fmt is None:
        coeffs = [int.from_bytes(buf[i:i + w], "little") for i in range(0, size, w)]
    else:
        coeffs = memoryview(buf).cast(fmt).tolist()
    return IntPoly._from_stripped(tuple(coeffs))


def deform_from_cfrac(cf: CFrac) -> RatFunc:
    """Evaluate the alternating continued-fraction tower for any valid
    expansion of a rational (either terminal form) and canonicalize.

    Levels are counted from a_0: even levels contribute [a_i]_q + q^{a_i}/rest,
    odd levels [a_i]_{1/q} + q^{-a_i}/rest.  Bottom-up on cleared pairs:

        even step:  (N, D) -> ([a_i]_q·N + q^{a_i}·D,  N)
        odd step:   (N, D) -> (q·[a_i]_q·N + D,        q^{a_i}·N)

    starting from the empty tower (N, D) = (1, 0), where 1/tower = 0, so an
    integer is its head alone and an odd tail carries one common factor q,
    which canonicalization strips.  The head term a_0 may be any integer;
    a_0 ≥ 0 is one more even step, and a_0 = −k uses the backwards
    recurrence, contributing (D − [k]_q·N) / (q^k·N) to the final pair.

    The steps run on packed integers at q = 2^B (see the module docstring).
    The tail levels (i ≥ 1) only add and shift, so every coefficient is
    nonnegative and at most the tail's final continuant p = N(1).  A
    coefficient of [a]_q·N sums at most a consecutive ones of N, so it too is
    at most p, and the head adds one of D, at most r = D(1) ≤ p: B holds
    p.bit_length() + 1 bits, rounded up to whole bytes.  Only the signed
    head step (a_0 < 0) subtracts, on unpacked polynomials.
    """
    terms = cf.terms
    a0 = terms[0]
    p, r = 1, 0
    for a in reversed(terms[1:]):
        p, r = a * p + r, p
    width = _packed_width(p)
    N, D = 1, 0
    for i in range(len(terms) - 1, -1 if a0 >= 0 else 0, -1):
        a = terms[i]
        aN = _times_qint(N, a, width)
        if i % 2 == 0:
            N, D = aN + (D << a * width), N
        else:
            N, D = (aN << width) + D, N << a * width
    if a0 >= 0:  # the head was level 0 of the loop
        return RatFunc(_unpack(N, width), _unpack(D, width))
    # value = a0 + 1/(tower of levels >= 1) with 1/tower = D/N
    k = -a0
    num = _unpack(D, width) - _unpack(_times_qint(N, k, width), width)
    return RatFunc(num, _unpack(N, width).shift(k))


@dataclass(frozen=True)
class QRational:
    """A rational together with its canonical deformation, tree depth, and
    branch word."""

    value: Rat
    deform: RatFunc
    depth: int
    path: str


@lru_cache(maxsize=None)
def deform(x: Rat) -> QRational:
    """Canonical q-deformation of x with depth and branch word attached.

    The canonical tail (a_1, ..., a_m) maps to the run-length branch word
    L^{u_1} R^{u_2} L^{u_3} ... with u = (a_1, ..., a_{m-1}, a_m − 1);
    depth is Σu − 1 (integers: empty word, depth −1).
    """
    x = Fraction(x)
    cf = to_cfrac(x)
    tail = cf.terms[1:]
    u = [*tail[:-1], tail[-1] - 1] if tail else []
    path = "".join(("L" if i % 2 == 0 else "R") * v for i, v in enumerate(u))
    return QRational(value=x, deform=deform_from_cfrac(cf), depth=sum(u) - 1, path=path)


def qrational_to_json(qr: QRational) -> dict:
    return {
        "a": str(qr.value.numerator),
        "b": str(qr.value.denominator),
        "depth": qr.depth,
        "path": qr.path,
        "num": poly_to_json_list(qr.deform.num),
        "den": poly_to_json_list(qr.deform.den),
    }


def qrational_from_json(obj: dict) -> QRational:
    """The QRational of a record written by qrational_to_json: deform(a/b),
    after checking every field of the record against that deformation's own
    record (ValueError naming the first field that differs)."""
    qr = deform(Fraction(int(obj["a"]), int(obj["b"])))
    for key, want in qrational_to_json(qr).items():
        if obj.get(key) != want:
            raise ValueError(f"field {key!r} of the record does not match the "
                             f"deformation of {rat_to_str(qr.value)}")
    return qr
