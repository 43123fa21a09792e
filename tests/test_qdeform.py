"""Continued fractions, q-integers, and the canonical deformation.

Pinned coefficient tables come from hand-evaluated tower steps; the
hypothesis properties check the structural identities the construction must
satisfy (either terminal form, value recovery, modular recurrences).
"""
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from qrationals.exact import IntPoly, RatFunc
from qrationals.qdeform import (
    CFrac,
    deform,
    deform_from_cfrac,
    qrational_from_json,
    qrational_to_json,
    to_cfrac,
)
from oracles import poly_mul

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
    assert cf.value() == x
    assert _split(cf).value() == x


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
        assert deform(Fr(n + 1)).deform == RatFunc(rf.num.shift(1) + rf.den, rf.den)


@given(st.integers(-8, 8))
def test_q_integer_values(n):
    assert deform(Fr(n)).deform.value_at_one() == n


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
                N, D = _qint_poly(ai), IntPoly.const(1).shift(ai - 1)
        else:
            if i % 2 == 0:
                N, D = poly_mul(_qint_poly(ai), N) + D.shift(ai), N
            else:
                N, D = poly_mul(_qint_poly(ai), N).shift(1) + D, N.shift(ai)
    if a0 >= 0:
        num, den = poly_mul(_qint_poly(a0), N) + D.shift(a0), N
    else:
        k = -a0
        num, den = D - poly_mul(_qint_poly(k), N), N.shift(k)
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


def test_deform_integer_is_q_integer():
    for n in range(-6, 7):
        assert deform(Fr(n)).deform == _q_integer(n), n


@given(rationals)
def test_deform_value_at_one_recovers_x(x):
    assert deform(x).deform.value_at_one() == x


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
    shifted = RatFunc(rf.num.shift(1) + rf.den, rf.den)
    assert shifted == deform(x + 1).deform


@given(rationals.filter(lambda x: x != 0))
def test_negation_reciprocal_recurrence(x):
    """[-1/x]_q = -1/(q·[x]_q) at the polynomial level."""
    rf = deform(x).deform
    assert RatFunc(-rf.den, rf.num.shift(1)) == deform(Fr(-1) / x).deform


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
    assert qrational_from_json(obj) == qr


def test_qrational_from_json_rejects_inconsistent_records():
    good = qrational_to_json(deform(Fr(1, 2)))
    assert qrational_from_json(good) is deform(Fr(1, 2))
    bad = {"a": "1", "b": "2", "depth": 5, "path": "RRR", "num": ["1"], "den": ["1"]}
    with pytest.raises(ValueError, match="'depth'"):
        qrational_from_json(bad)
    for key, value in (("a", "2"), ("depth", "0"), ("path", "R"),
                       ("num", ["0", "2"]), ("den", ["1", "1", "0"])):
        record = dict(good, **{key: value})
        if key == "a":
            record["b"] = "4"  # 2/4 is 1/2, but not its record
        with pytest.raises(ValueError, match=f"'{key}'"):
            qrational_from_json(record)


def test_deform_memoizes():
    assert deform(Fr(2, 5)) is deform(Fr(2, 5))
