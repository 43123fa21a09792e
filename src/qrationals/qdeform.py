"""Canonical q-deformation [a/b]_q of a rational number.

The deformation is defined through the alternating continued fraction

    [a_0]_q + q^{a_0} / ( [a_1]_{1/q} + q^{-a_1} / ( [a_2]_q + ... ) )

evaluated bottom-up over integer-polynomial pairs, with reciprocal-variable
factors cleared to ordinary polynomials at every step.  Each step is a 2×2
polynomial move of determinant ±q^k, so the final pair needs only its
common q-power stripped to be canonical (_packed_pair).

The tower runs on packed integers (qrationals.packed), one step per level
(_step), at a width that the continuant fixes before it starts
(deform_from_cfrac).
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import Rat, RatFunc, poly_to_json_list
from .packed import _packed_width, _times_qint, _unpacked

__all__ = [
    "CFrac",
    "QRational",
    "to_cfrac",
    "deform",
    "deform_from_cfrac",
    "qrational_to_json",
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
    of the term's index.  The width must hold every coefficient
    (deform_from_cfrac)."""
    N, D = 1, 0
    for i in range(len(terms) - 1, -1, -1):
        N, D = _step(terms[i], N, D, width, i % 2)
    return N, D


def _packed_pair(terms: tuple[int, ...], width: int) -> tuple[int, int]:
    """The canonical pair (N, D) of the tower of terms, for any head a_0,
    packed at q = 2^width in qrationals.packed's convention.

    A head a_0 = −k takes the backwards recurrence: with (D, N) the tower
    of (0; a_1, ...), the pair is (D − [k]_q·N)/(q^k·N), stored as
    ([k]_q·N − D, q^k·N).  The level-1 odd step makes N = q·[a_1]_q·N_2 +
    D_2 ≥ q^{a_1}·N_2 = D coefficientwise (an integer's D is 0), so the
    subtraction borrows nothing.  The pair's one common factor is a power
    of q (the module docstring): q after an odd tail and 1 after an even
    one, more only where the subtraction cancels, as in (−k; 1).  It is
    stripped one word at a time while both q⁰ words are 0, a test on the
    low words alone, and a zero pair, which no tower makes, stops at once;
    content 1 and D(1) > 0 follow.  The width must be at least
    deform_from_cfrac's for these terms, and a width of 0, which has no q⁰
    word to test, raises ValueError."""
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


def deform_from_cfrac(cf: CFrac) -> RatFunc:
    """Evaluate the alternating continued-fraction tower for any valid
    expansion of a rational (either terminal form), canonical as built.

    Levels are counted from a_0: even levels contribute [a_i]_q + q^{a_i}/rest,
    odd levels [a_i]_{1/q} + q^{-a_i}/rest, evaluated bottom-up on cleared
    pairs by _tower and made canonical by _packed_pair, for any head a_0.

    The width is _packed_width(p), for coefficients up to 2p, p = N(1) the
    tail's final continuant (qrationals.packed): a tail coefficient is at
    most p, one of [a]_q·N sums at most a consecutive ones of N, so it too
    is at most p, and the head adds one of D, at most r = D(1) ≤ p (a
    negative head subtracts it).
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
    return sum(u) - 1, "".join(map(operator.mul, itertools.cycle("LR"), u))


# `deform`'s reuse is short-range: thm2 re-reads thm1's 3933 deformations at
# `qrat check --scale 2`, and appendixA's packed walk deforms nothing.
DEFORM_CACHE_SIZE = 4096


@lru_cache(maxsize=DEFORM_CACHE_SIZE)
def deform(x: Rat) -> QRational:
    """Canonical q-deformation of x with depth and branch word attached
    (_depth_and_path)."""
    x = Fraction(x)
    cf = CFrac(_expansion(x.numerator, x.denominator))
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

