"""Continued fractions, q-integers, and the canonical deformation.

Pinned coefficient tables come from hand-evaluated tower steps; the
hypothesis properties check the structural identities the construction must
satisfy (either terminal form, value recovery, modular recurrences).
"""
import struct
import sys
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings, strategies as st

from qrationals import qdeform
from qrationals.exact import IntPoly, RatFunc, derivative_at_one
from qrationals.packed import _packed_width, _times_qint, _unpack
from qrationals.qdeform import (
    DEFORM_CACHE_SIZE,
    CFrac,
    _packed_pair,
    _step,
    _tower,
    deform,
    deform_from_cfrac,
    qrational_to_json,
    to_cfrac,
)
from qrationals.dedekind import S_SUM_CACHE_SIZE, s_sum
from oracles import cfrac_value, poly_add, poly_mul, poly_shift

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=21)
nonintegers = rationals.filter(lambda x: x.denominator > 1)


def _split(cf):
    """The other terminal form of a canonical expansion: (..., a_m) ->
    (..., a_m − 1, 1)."""
    return CFrac((*cf.terms[:-1], cf.terms[-1] - 1, 1))


def _q_integer(n):
    """[n]_q written out: (1 + q + ... + q^{n−1}, 1) for n ≥ 0, and
    (−[k]_q, q^k) for n = −k."""
    if n >= 0:
        return RatFunc(IntPoly([1] * n), IntPoly([1]))
    return RatFunc(-IntPoly([1] * -n), IntPoly([0] * -n + [1]))


def _pair(x):
    rf = deform(x).deform
    return list(rf.num.coeffs), list(rf.den.coeffs)


# -- continued fractions ---------------------------------------------------

def test_cfrac_canonical_fixtures():
    assert to_cfrac(Fr(2, 5)).terms == (0, 2, 2)
    assert to_cfrac(Fr(1, 2)).terms == (0, 2)
    assert to_cfrac(Fr(7, 5)).terms == (1, 2, 2)
    assert to_cfrac(Fr(-5, 2)).terms == (-3, 2)
    assert to_cfrac(Fr(3)).terms == (3,)


@given(rationals)
def test_cfrac_value_round_trip(x):
    cf = to_cfrac(x)
    assert cfrac_value(cf.terms) == x
    assert cfrac_value(_split(cf).terms) == x


@given(rationals)
def test_cfrac_canonical_never_ends_in_one(x):
    terms = to_cfrac(x).terms
    if len(terms) > 1:
        assert terms[-1] >= 2


def test_cfrac_validates_terms():
    with pytest.raises(ValueError):
        CFrac(())
    with pytest.raises(ValueError):
        CFrac((1, 0, 2))
    CFrac((-3, 2))  # negative head is fine


# -- q-integers ------------------------------------------------------------

def test_q_integer_table():
    cases = {
        0: ([], [1]),
        1: ([1], [1]),
        3: ([1, 1, 1], [1]),
        -1: ([-1], [0, 1]),
        -2: ([-1, -1], [0, 0, 1]),
    }
    for n, want in cases.items():
        assert _pair(Fr(n)) == want, n


def test_q_integer_recurrence():
    """[n+1]_q = q·[n]_q + 1, across zero in both directions."""
    for n in range(-6, 6):
        rf = deform(Fr(n)).deform
        assert deform(Fr(n + 1)).deform == RatFunc(poly_add(poly_shift(rf.num, 1), rf.den), rf.den)


@given(st.integers(-8, 8))
def test_q_integer_values(n):
    assert derivative_at_one(deform(Fr(n)).deform, 0) == n


# -- the deformation -------------------------------------------------------

def test_deform_pinned_pairs():
    table = {
        Fr(1, 2): ([0, 1], [1, 1]),
        Fr(2, 5): ([0, 0, 1, 1], [1, 1, 2, 1]),
        Fr(3): ([1, 1, 1], [1]),
        Fr(7, 5): ([1, 1, 2, 2, 1], [1, 1, 2, 1]),
        Fr(5, 2): ([1, 2, 1, 1], [1, 1]),
        Fr(-1, 2): ([-1], [0, 1, 1]),
        Fr(-1, 3): ([-1], [0, 1, 1, 1]),
    }
    for x, want in table.items():
        assert _pair(x) == want, x


# -- packed tower against the literal IntPoly tower ------------------------

def _qint_poly(n):
    """[n]_q for n ≥ 0 as a bare polynomial."""
    return IntPoly([1] * n)


def _intpoly_tower(cf):
    """The continued-fraction tower step by step on IntPoly pairs: the
    literal form of deform_from_cfrac, kept here as its oracle."""
    terms = cf.terms
    a0, tail = terms[0], terms[1:]
    if not tail:
        return _q_integer(a0)
    N = D = None
    for i in range(len(terms) - 1, 0, -1):
        ai = terms[i]
        if N is None:
            if i % 2 == 0:
                N, D = _qint_poly(ai), IntPoly.const(1)
            else:
                N, D = _qint_poly(ai), poly_shift(IntPoly.const(1), ai - 1)
        else:
            if i % 2 == 0:
                N, D = poly_add(poly_mul(_qint_poly(ai), N), poly_shift(D, ai)), N
            else:
                N, D = (poly_add(poly_shift(poly_mul(_qint_poly(ai), N), 1), D),
                        poly_shift(N, ai))
    if a0 >= 0:
        num, den = poly_add(poly_mul(_qint_poly(a0), N), poly_shift(D, a0)), N
    else:
        k = -a0
        num, den = poly_add(D, poly_mul(_qint_poly(k), N), -1), poly_shift(N, k)
    return RatFunc(num, den)


def _assert_same_tower(terms):
    cf = CFrac(terms)
    got, want = deform_from_cfrac(cf), _intpoly_tower(cf)
    assert got.num.coeffs == want.num.coeffs, terms
    assert got.den.coeffs == want.den.coeffs, terms


@settings(max_examples=300, deadline=None)
@given(st.integers(-6, 6), st.lists(st.integers(1, 60), min_size=0, max_size=40),
       st.booleans())
def test_packed_tower_matches_intpoly_tower(a0, tail, split_last):
    """Both terminal forms: the rewrite a_m -> (a_m - 1, 1) flips the
    parity of the tail length.  An empty tail checks integers against the
    written-out [a_0]_q."""
    if split_last and tail and tail[-1] > 1:
        tail = tail[:-1] + [tail[-1] - 1, 1]
    _assert_same_tower((a0, *tail))


@pytest.mark.parametrize("terms", [
    (0, 20000),
    (0, 2, 20000, 3),
    (1, 1, 1, 20000, 1, 2),
    (-3, 2, 5000, 7),
    (1,) * 800,  # F_801 / F_800
    (2, 3, 4, 9, 12),  # coefficients within a byte of the width bound
    (0, 17, 18, 21),
], ids=["0;20000", "0;2,20000,3", "1;1,1,20000,1,2", "-3;2,5000,7", "F801/F800",
        "2;3,4,9,12", "0;17,18,21"])
def test_packed_tower_pinned_wide_cases(terms):
    _assert_same_tower(terms)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.lists(st.integers(1, 60), min_size=0, max_size=30),
       st.booleans(), st.integers(0, 4))
def test_tower_at_any_wide_enough_width_is_the_canonical_pair(a0, tail, split_last, extra):
    """For a_0 ≥ 0, _tower at the width deform_from_cfrac picks or any
    whole number of bytes wider, stripped of the common q-power at the
    lowest set bit of N | D and unpacked, is deform_from_cfrac's canonical
    pair as it stands: no content or sign is left to clear."""
    if split_last and tail and tail[-1] > 1:
        tail = tail[:-1] + [tail[-1] - 1, 1]
    cf = CFrac((a0, *tail))
    width = _packed_width(cfrac_value(cf.terms).denominator) + 8 * extra
    N, D = _tower(cf.terms, width)
    low = ((N | D) & -(N | D)).bit_length() - 1
    low -= low % width
    want = deform_from_cfrac(cf)
    assert (_unpack(N >> low, width), _unpack(D >> low, width)) == (want.num, want.den)


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.lists(st.integers(1, 60), min_size=0, max_size=30),
       st.booleans(), st.integers(0, 4))
@example(-1, [1], False, 0)
@example(-3, [1], False, 2)
def test_packed_pair_is_the_canonical_pair_for_either_head_sign(a0, tail, split_last, extra):
    """_packed_pair at the width deform_from_cfrac picks or any whole
    number of bytes wider, unpacked as it stands (the numerator negated
    back for a_0 < 0), is deform_from_cfrac's pair and the literal IntPoly
    tower's canonical pair: one packed convention for either head sign.
    (−1; 1) = 0 and (−3; 1) = −2 each carry the common factor q², the
    head's subtraction having cancelled the q term."""
    if split_last and tail and tail[-1] > 1:
        tail = tail[:-1] + [tail[-1] - 1, 1]
    cf = CFrac((a0, *tail))
    width = _packed_width(cfrac_value(cf.terms).denominator) + 8 * extra
    N, D = _packed_pair(cf.terms, width)
    num = _unpack(N, width)
    got = (-num if a0 < 0 else num).coeffs, _unpack(D, width).coeffs
    for want in (deform_from_cfrac(cf), _intpoly_tower(cf)):
        assert got == (want.num.coeffs, want.den.coeffs), cf.terms


def test_packed_pair_strip_stops_on_a_zero_pair(monkeypatch):
    """No tower makes the zero pair, but the q-power strip, which shifts
    while both q⁰ words are 0, returns it rather than loop; a width of 0,
    whose words are empty, raises."""
    monkeypatch.setattr(qdeform, "_tower", lambda terms, width: (0, 0))
    assert _packed_pair((0, 2), 16) == (0, 0)
    with pytest.raises(ValueError, match="width"):
        _packed_pair((0, 2), 0)


@pytest.mark.parametrize("width", [8, 16, 24, 64])
def test_step_writes_out_small_q_integers_as_times_qint(width):
    """The tower step's [a]_q·N, written out for a ≤ 2, is _times_qint's
    binary doubling for a = 0..6, in both parities, on packed N whose
    coefficients leave the product room in the width."""
    top = (1 << (width - 3)) - 1
    for coeffs in ([1], [top], [3, 0, 1, top], [top, 5, 0, 0, 2, 1]):
        N = sum(c << (i * width) for i, c in enumerate(coeffs))
        D = N + 1
        for a in range(7):
            aN = _times_qint(N, a, width)
            assert _step(a, N, D, width, False) == (aN + (D << a * width), N), (a, coeffs)
            assert _step(a, N, D, width, True) == ((aN << width) + D, N << a * width), (a, coeffs)


@st.composite
def _wide_words(draw):
    """(width, words): a width of 9–200 bytes and the words, low first,
    of a packed int whose top word is nonzero; zero words are drawn often,
    at the bottom and in the middle, and full words (2^width − 1) too."""
    width = 8 * draw(st.integers(9, 200))
    full = (1 << width) - 1
    word = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    return width, draw(st.lists(word, max_size=8)) + [draw(st.integers(1, full))]


@settings(max_examples=200, deadline=None)
@given(_wide_words())
@example((72, [0, 0, 1]))
@example((8 * 200, [(1 << 1600) - 1, 0, 0, 5]))
def test_unpack_splits_wide_words_literally(case):
    """_unpack on words wider than 8 bytes is the literal split of the
    packed int into its width-bit words, (x >> i·width) & (2^width − 1)."""
    width, words = case
    x = sum(c << (i * width) for i, c in enumerate(words))
    mask = (1 << width) - 1
    split = [(x >> (i * width)) & mask for i in range(-(-x.bit_length() // width))]
    assert split == words
    assert _unpack(x, width).coeffs == tuple(split)


@pytest.mark.parametrize("nbytes", [1, 2, 4, 8, 9, 16])
def test_unpack_on_a_big_endian_host_splits_words_literally(monkeypatch, nbytes):
    """With sys.byteorder "big", _unpack skips the memoryview cast for every
    word size, 1, 2, 4 and 8 bytes included, and reads each word by
    struct.iter_unpack and int.from_bytes: the literal split of the packed
    int, (x >> i·width) & (2^width − 1)."""
    width = 8 * nbytes
    full = (1 << width) - 1
    cuts, real = [], struct.iter_unpack

    def iter_unpack(fmt, buf):
        cuts.append(fmt)
        return real(fmt, buf)

    monkeypatch.setattr(sys, "byteorder", "big")
    monkeypatch.setattr(struct, "iter_unpack", iter_unpack)
    for words in ([1], [full], [0, 0, 1], [full, 0, 5, 0, full], [0x5A, 1, full - 1]):
        x = sum(c << (i * width) for i, c in enumerate(words))
        split = [(x >> (i * width)) & full for i in range(-(-x.bit_length() // width))]
        assert split == words
        assert _unpack(x, width).coeffs == tuple(split), words
    assert cuts == [f"{nbytes}s"] * 5


def test_deform_integer_is_q_integer():
    for n in range(-6, 7):
        assert deform(Fr(n)).deform == _q_integer(n), n


@given(rationals)
def test_deform_value_at_one_recovers_x(x):
    assert derivative_at_one(deform(x).deform, 0) == x


@given(rationals)
def test_deform_is_parity_insensitive(x):
    """deform_from_cfrac accepts either terminal form, (..., a_m) or
    (..., a_m − 1, 1), and canonicalizes both to the same pair."""
    cf = to_cfrac(x)
    assert deform_from_cfrac(cf) == deform(x).deform
    assert deform_from_cfrac(_split(cf)) == deform(x).deform


@given(st.fractions(min_value=0, max_value=1, max_denominator=34))
def test_unit_interval_coefficients_are_nonnegative(x):
    rf = deform(x).deform
    assert all(c >= 0 for c in rf.num.coeffs)
    assert all(c >= 0 for c in rf.den.coeffs)


@given(rationals)
def test_translation_recurrence(x):
    """[x+1]_q = q·[x]_q + 1 at the polynomial level."""
    rf = deform(x).deform
    shifted = RatFunc(poly_add(poly_shift(rf.num, 1), rf.den), rf.den)
    assert shifted == deform(x + 1).deform


@given(rationals.filter(lambda x: x != 0))
def test_negation_reciprocal_recurrence(x):
    """[-1/x]_q = -1/(q·[x]_q) at the polynomial level."""
    rf = deform(x).deform
    assert RatFunc(-rf.den, poly_shift(rf.num, 1)) == deform(Fr(-1) / x).deform


def test_depth_and_path_fixtures():
    table = {
        Fr(1, 2): ("L", 0),
        Fr(2, 5): ("LLR", 2),
        Fr(3, 5): ("LRL", 2),
        Fr(3, 2): ("L", 0),
        Fr(5, 13): ("LLRLR", 4),
        Fr(4): ("", -1),
    }
    for x, (path, depth) in table.items():
        qr = deform(x)
        assert (qr.path, qr.depth) == (path, depth), x


@given(nonintegers)
def test_path_length_is_depth_plus_one(x):
    qr = deform(x)
    assert len(qr.path) == qr.depth + 1
    assert qr.path[0] == "L"
    assert set(qr.path) <= {"L", "R"}


@given(rationals)
def test_qrational_json_round_trip(x):
    qr = deform(x)
    obj = qrational_to_json(qr)
    assert set(obj) == {"a", "b", "depth", "path", "num", "den"}
    assert isinstance(obj["a"], str) and isinstance(obj["b"], str)


def test_deform_memoizes():
    assert deform(Fr(2, 5)) is deform(Fr(2, 5))


def test_caches_are_bounded():
    """deform and s_sum keep a finite LRU cache, so no input stream grows
    them without limit."""
    assert deform.cache_parameters()["maxsize"] == DEFORM_CACHE_SIZE == 4096
    assert s_sum.cache_parameters()["maxsize"] == S_SUM_CACHE_SIZE == 65536
