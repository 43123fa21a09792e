"""Canonical q-deformation [a/b]_q of a rational number.

The deformation is defined through the alternating continued fraction

    [a_0]_q + q^{a_0} / ( [a_1]_{1/q} + q^{-a_1} / ( [a_2]_q + ... ) )

evaluated bottom-up over integer-polynomial pairs, with reciprocal-variable
factors cleared to ordinary polynomials at every step.  Each step is a 2×2
polynomial move of determinant ±q^k, so the final pair needs only its
common q-power stripped to be canonical (_packed_pair).

The tower runs on packed integers (Kronecker substitution): a polynomial P
with nonnegative coefficients below 2^B is held as the integer P(2^B), so
q^k·P is a left shift by k·B bits and a sum of polynomials is an integer
sum.  A level of the tower by a partial quotient a ≤ 3 costs one shift and
one add per unit of a (_step), and beyond, the product by [a − 1]_q is
O(log a) shifts and adds by binary doubling.  The coefficients are bounded
by the continued fraction's continuant, which fixes B before the tower
starts (see deform_from_cfrac); unpacking is one to_bytes and a split into
B-bit words, read at C speed (_unpack).
"""
from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import itemgetter

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


def to_cfrac(x: Rat) -> CFrac:
    """Expand x by the Euclidean algorithm (floor-based, so negatives work).

    The canonical expansion never ends in a partial quotient of 1 except for
    integers.
    """
    x = Fraction(x)
    return CFrac(_expansion(x.numerator, x.denominator))


def _expansion(p: int, q: int) -> tuple[int, ...]:
    """The terms of p/q's canonical expansion (q > 0), by integer divmod."""
    terms = []
    while q:
        t, r = divmod(p, q)
        terms.append(t)
        p, q = q, r
    return tuple(terms)


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
    are ints, and the top one holds x's top bit, so nothing is stripped.
    One little-endian to_bytes splits x into words: on a little-endian host
    a memoryview cast reads words of 1, 2, 4 or 8 bytes; any others, or any
    word on a big-endian host, struct.iter_unpack cuts into w-byte strings
    and one map of int.from_bytes reads (the byte order passed by repeat:
    Python 3.10's from_bytes has no default)."""
    w = width // 8
    buf = x.to_bytes(-(-x.bit_length() // width) * w, "little")
    fmt = _WORD_FORMATS.get(w) if sys.byteorder == "little" else None
    if fmt is None:
        words = map(itemgetter(0), struct.iter_unpack(f"{w}s", buf))
        coeffs = map(int.from_bytes, words, repeat("little"))
    else:
        coeffs = memoryview(buf).cast(fmt).tolist()
    return IntPoly._from_stripped(tuple(coeffs))


def _step(a: int, N: int, D: int, width: int, odd: bool) -> tuple[int, int]:
    """One level of the tower on a packed pair (N, D) at q = 2^width:

        even step:  (N, D) -> ([a]_q·N + q^a·D,  N)
        odd step:   (N, D) -> (q·[a]_q·N + D,    q^a·N)

    by [a]_q = [a − 1]_q + q^{a−1}, so that each shift serves twice.  The
    odd step shifts t = q·N on by a − 1 words to top = q^a·N, its new
    denominator, and its numerator is [a − 1]_q·t + top + D; the even
    step's numerator is [a − 1]_q·N + q^{a−1}·(N + q·D).  A level with
    a ≤ 3 costs 2a full-length shifts and adds: [a − 1]_q is written out
    for a ≤ 2 and is _times_qint beyond.  a = 0 gives (D, N).  No shift is
    by 0 bits: CPython copies the whole int for x << 0."""
    if a == 0:
        return D, N
    if odd:
        t = N << width
        top = t << (a - 1) * width if a > 1 else t
        new = top + D
    else:
        t = top = N
        new = N + (D << width)
        if a > 1:
            new <<= (a - 1) * width
    if a == 2:
        new += t
    elif a > 2:
        new += _times_qint(t, a - 1, width)
    return new, top


def _tower(terms: tuple[int, ...], width: int) -> tuple[int, int]:
    """The cleared pair (N, D) of the tower of terms, a_0 ≥ 0, packed at
    q = 2^width and not canonicalized: _step on each term bottom-up from the
    empty tower (N, D) = (1, 0), where 1/tower = 0, the step's parity that
    of the term's index.

    Each step is a 2×2 move of determinant ±q^k, so the only common factor
    of N and D is a power of q, and every coefficient is nonnegative.  The
    width must hold the largest coefficient (see deform_from_cfrac); a
    coefficient past it carries into the next word."""
    N, D = 1, 0
    for i in range(len(terms) - 1, -1, -1):
        N, D = _step(terms[i], N, D, width, i % 2)
    return N, D


def _packed_pair(terms: tuple[int, ...], width: int) -> tuple[int, int]:
    """The canonical pair (N, D) of the tower of terms, for any head a_0,
    packed at q = 2^width in the one packed convention (sbtree's tree keeps
    it too): both words have nonnegative coefficients, the numerator stored
    negated when a_0 < 0.

    A head a_0 = −k takes the backwards recurrence: with (D, N) the tower
    of (0; a_1, ...), the pair is (D − [k]_q·N)/(q^k·N), stored as
    ([k]_q·N − D, q^k·N).  The level-1 odd step makes N = q·[a_1]_q·N_2 +
    D_2 ≥ q^{a_1}·N_2 = D coefficientwise (an integer's D is 0), so the
    subtraction borrows nothing.  Each step is a 2×2 move of determinant
    ±q^j, so the pair's one common factor is a power of q: q after an odd
    tail and 1 after an even one, more only where the subtraction cancels,
    as in (−k; 1).  It is stripped one word at a time while both q⁰ words
    are 0, a test on the low words alone, and a zero pair, which no tower
    makes, stops at once; content 1 and D(1) > 0 follow.  The width must be
    at least deform_from_cfrac's for these terms, and a width of 0, which
    has no q⁰ word to test, raises ValueError."""
    if width <= 0:
        raise ValueError("the packing width must be positive")
    if terms[0] >= 0:
        N, D = _tower(terms, width)
    else:
        k = -terms[0]
        D, N = _tower((0, *terms[1:]), width)
        N, D = _times_qint(N, k, width) - D, N << k * width
    word = (1 << width) - 1
    while not (N & word or D & word) and (N or D):
        N, D = N >> width, D >> width
    return N, D


def _unpacked(N: int, D: int, width: int, negated: bool) -> RatFunc:
    """The RatFunc of a canonical packed pair (_packed_pair) at q = 2^width,
    its numerator negated back when negated (a value below 0)."""
    num = _unpack(N, width)
    return RatFunc(-num if negated else num, _unpack(D, width))


def deform_from_cfrac(cf: CFrac) -> RatFunc:
    """Evaluate the alternating continued-fraction tower for any valid
    expansion of a rational (either terminal form), canonical as built.

    Levels are counted from a_0: even levels contribute [a_i]_q + q^{a_i}/rest,
    odd levels [a_i]_{1/q} + q^{-a_i}/rest, evaluated bottom-up on cleared
    pairs by _tower.  An integer is its head alone, and an odd tail carries
    one common factor q, which _packed_pair strips.  The head term a_0 may
    be any integer (see _packed_pair for a_0 < 0).

    The steps run on packed integers at q = 2^B (see the module docstring).
    The tail levels (i ≥ 1) only add and shift, so every coefficient is
    nonnegative and at most the tail's final continuant p = N(1).  A
    coefficient of [a]_q·N sums at most a consecutive ones of N, so it too is
    at most p, and the head adds one of D, at most r = D(1) ≤ p (a negative
    head subtracts it): B holds p.bit_length() + 1 bits, rounded up to whole
    bytes.
    """
    terms = cf.terms
    p, r = 1, 0
    for a in reversed(terms[1:]):
        p, r = a * p + r, p
    width = _packed_width(p)
    return _unpacked(*_packed_pair(terms, width), width, terms[0] < 0)


@dataclass(frozen=True)
class QRational:
    """A rational together with its canonical deformation, tree depth, and
    branch word."""

    value: Rat
    deform: RatFunc
    depth: int
    path: str


def _branch_runs(cf: CFrac) -> list[int]:
    """Run lengths u of the branch word L^{u_1} R^{u_2} L^{u_3} ... of the
    rational with canonical expansion cf: the tail (a_1, ..., a_m) gives
    u = (a_1, ..., a_{m-1}, a_m − 1), an integer none."""
    tail = cf.terms[1:]
    return [*tail[:-1], tail[-1] - 1] if tail else []


def _depth_and_path(cf: CFrac) -> tuple[int, str]:
    """Tree depth and branch word of the rational with canonical expansion
    cf: the word spells out _branch_runs, and depth is Σu − 1 (integers:
    empty word, depth −1)."""
    u = _branch_runs(cf)
    path = "".join(("L" if i % 2 == 0 else "R") * v for i, v in enumerate(u))
    return sum(u) - 1, path


# `deform`'s reuse is short-range: thm2 re-reads thm1's 3933 deformations at
# `qrat check --scale 2`, and appendixA's packed walk deforms nothing.
DEFORM_CACHE_SIZE = 4096


@lru_cache(maxsize=DEFORM_CACHE_SIZE)
def deform(x: Rat) -> QRational:
    """Canonical q-deformation of x with depth and branch word attached
    (_depth_and_path)."""
    x = Fraction(x)
    cf = to_cfrac(x)
    return QRational(x, deform_from_cfrac(cf), *_depth_and_path(cf))


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
    record (ValueError naming the first field that is malformed or differs)."""
    if not isinstance(obj, dict):
        raise ValueError(f"a q-rational record is a JSON object, not {type(obj).__name__}")
    ab = []
    for key in ("a", "b"):
        try:
            ab.append(int(obj[key]))
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"field {key!r} of the record is missing or not an integer") from None
    if ab[1] == 0:
        raise ValueError("field 'b' of the record is zero")
    qr = deform(Fraction(*ab))
    for key, want in qrational_to_json(qr).items():
        if obj.get(key) != want:
            raise ValueError(f"field {key!r} of the record does not match the "
                             f"deformation of {rat_to_str(qr.value)}")
    return qr
