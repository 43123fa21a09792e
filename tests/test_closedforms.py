"""Closed-form derivative expressions against the exact engine, plus the
depth-based numerator/denominator formulas and their calibration report.

The calibration mismatch sets are pinned exactly: the depth-based formulas
are NOT correct on all inputs under either depth convention, and the tests
document precisely where they fail.  The convention-independent quotient-rule
combination is the hard gate.
"""
import csv
import io
import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from qrationals.exact import derivative_at_one, jets_at_one
from qrationals.qdeform import CFrac, deform
from qrationals.closedforms import (
    F,
    G,
    H,
    NoInverseError,
    bracket,
    d1_closed,
    d2_closed,
    denominator_d1_closed,
    derivative_report,
    derivative_report_csv,
    lemma_calibration,
    mod_inverse,
    numerator_d1_closed,
    numerator_derivative,
    denominator_derivative,
    thomae,
)

reduced_pairs = st.integers(1, 16).flatmap(
    lambda b: st.tuples(
        st.integers(0, 2 * b).filter(lambda a: math.gcd(a, b) == 1),
        st.just(b)))


# -- building blocks -------------------------------------------------------

def test_mod_inverse_fixtures():
    assert mod_inverse(2, 5) == 3
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(1, 1) == 0
    assert mod_inverse(7, 1) == 0
    assert mod_inverse(-1, 5) == 4
    with pytest.raises(NoInverseError):
        mod_inverse(2, 4)
    with pytest.raises(ValueError):
        mod_inverse(1, 0)


@given(st.integers(1, 40).flatmap(
    lambda b: st.tuples(st.integers(1, 40).filter(lambda a: math.gcd(a, b) == 1),
                        st.just(b))))
def test_mod_inverse_is_an_inverse(ab):
    a, b = ab
    inv = mod_inverse(a, b)
    assert 0 <= inv < b
    assert (a * inv) % b == 1 % b


def test_thomae_fixtures():
    assert thomae(Fr(1, 2)) == Fr(1, 2)
    assert thomae(Fr(2, 5)) == Fr(1, 5)
    assert thomae(Fr(3)) == 1
    assert thomae(Fr(-1, 2)) == Fr(1, 2)


def test_bracket_fixtures():
    # <1/1>_2 = (1 mod 2)/2 - 1/2 = 0
    assert bracket(1, 1, 2) == 0
    # <1/2>_5: 2^{-1} = 3 mod 5, so (3 mod 5)/5 - 1/2 = 1/10
    assert bracket(1, 2, 5) == Fr(1, 10)
    assert bracket(2, 2, 5) == Fr(-3, 10)


@given(reduced_pairs.filter(lambda ab: ab[0] > 0), st.data())
def test_bracket_antisymmetry(ab, data):
    """<(b-n)/a>_b = -<n/a>_b on the interior lattice."""
    a, b = ab
    if b < 2:
        return
    n = data.draw(st.integers(1, b - 1))
    assert bracket(b - n, a, b) == -bracket(n, a, b)


def test_polynomial_pieces():
    assert F(Fr(1, 2)) == Fr(-3, 8)
    assert F(1) == 0
    assert G(Fr(1, 2)) == Fr(1, 2)
    assert H(Fr(1, 2)) == Fr(1, 8)
    assert H(0) == H(1) == 0


# -- first and second derivative closed forms ------------------------------

def test_d1_closed_fixtures():
    assert d1_closed(Fr(1, 2)) == Fr(1, 4)
    assert d1_closed(Fr(2, 5)) == Fr(9, 25)
    assert d1_closed(Fr(0)) == 0
    assert d1_closed(Fr(1)) == 0
    assert d1_closed(Fr(3)) == 3


def test_d2_closed_fixtures():
    assert d2_closed(1, 2) == Fr(-1, 4)
    assert d2_closed(1, 3) == Fr(-2, 9)
    assert d2_closed(2, 5) == Fr(-44, 125)
    assert d2_closed(3, 2) == Fr(1, 4)
    assert d2_closed(2, 1) == 0  # [2]_q = 1+q is affine; second derivative vanishes


def test_d2_closed_validates_input():
    with pytest.raises(ValueError):
        d2_closed(2, 4)
    with pytest.raises(ValueError):
        d2_closed(1, 0)


@settings(max_examples=60, deadline=None)
@given(reduced_pairs)
def test_closed_forms_match_exact_engine(ab):
    a, b = ab
    x = Fr(a, b)
    rf = deform(x).deform
    assert d1_closed(x) == derivative_at_one(rf, 1)
    assert d2_closed(a, b) == derivative_at_one(rf, 2)


def test_closed_forms_match_exact_jets_on_the_accepted_domain():
    """Every reduced a/b with b ≤ 24 and −3b ≤ a < 5b, negative a included."""
    count = 0
    for b in range(1, 25):
        for a in range(-3 * b, 5 * b):
            if math.gcd(a, b) != 1:
                continue
            count += 1
            rf = deform(Fr(a, b)).deform
            assert d1_closed(Fr(a, b)) == derivative_at_one(rf, 1), (a, b)
            assert d2_closed(a, b) == derivative_at_one(rf, 2), (a, b)
    assert count == 1440


def fibonacci_ratio(n):
    """F_{n+1}/F_n, whose partial quotients are all 1."""
    lo, hi = 0, 1
    for _ in range(n):
        lo, hi = hi, lo + hi
    return Fr(hi, lo)


def test_second_derivative_at_wide_denominators():
    """The second-derivative closed form where no lattice loop reaches:
    F₃₀₁/F₃₀₀ and small-quotient expansions with 50–100-digit denominators,
    against the exact jets of the deformation."""
    rng = random.Random(2)
    xs = [fibonacci_ratio(300)]
    for digits in (50, 64, 80, 100):
        terms = [rng.randint(-2, 2)]
        while len(str(CFrac(tuple(terms)).value().denominator)) < digits:
            terms.append(rng.choice((1, 1, 2, 3)))
        xs.append(CFrac(tuple(terms)).value())
    for x in xs:
        assert 50 <= len(str(x.denominator)) <= 100
        assert d2_closed(x.numerator, x.denominator) == jets_at_one(deform(x).deform, 2)[2], x


@given(reduced_pairs)
def test_b_cubed_clears_second_derivative(ab):
    a, b = ab
    assert (b ** 3 * d2_closed(a, b)).denominator == 1


# -- depth-based formulas and calibration ----------------------------------

def test_polynomial_derivative_anchors():
    assert numerator_derivative(1, 2) == 1
    assert numerator_derivative(2, 3) == 3
    assert numerator_derivative(1, 3) == 2
    assert numerator_derivative(1, 1) == 0
    assert denominator_derivative(1, 2) == 1
    assert denominator_derivative(2, 3) == 3


def test_depth_formula_spot_values():
    # under the mediant-count convention the formula works at 1/2 and 2/3 ...
    assert numerator_d1_closed(1, 2, "mediants") == 1 == numerator_derivative(1, 2)
    assert numerator_d1_closed(2, 3, "mediants") == 3 == numerator_derivative(2, 3)
    assert denominator_d1_closed(1, 2, "mediants") == 1 == denominator_derivative(1, 2)
    # ... but not at 1/3, and the tree-depth convention fails immediately
    assert numerator_d1_closed(1, 3, "mediants") != numerator_derivative(1, 3)
    assert numerator_d1_closed(1, 2, "depth") != numerator_derivative(1, 2)


def test_depth_formula_validates_input():
    with pytest.raises(ValueError):
        numerator_d1_closed(2, 4)
    with pytest.raises(ValueError):
        denominator_d1_closed(0, 1)


def test_calibration_mismatch_sets_are_pinned():
    cal = lemma_calibration(8)
    all_pairs = [(a, b) for b in range(1, 9) for a in range(1, b + 1)
                 if math.gcd(a, b) == 1]
    # tree-depth convention: numerator formula wrong everywhere
    assert cal["numerator"]["depth"] == all_pairs
    # mediant-count convention: wrong except at 1/2 and 2/3
    assert cal["numerator"]["mediants"] == [
        (1, 1), (1, 3), (1, 4), (1, 5), (2, 5), (3, 5), (1, 6),
        (1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (1, 8), (3, 8), (5, 8)]
    assert cal["denominator"]["mediants"][:3] == [(1, 1), (1, 3), (2, 3)]
    assert (1, 2) not in cal["denominator"]["mediants"]


def test_quotient_rule_combination_is_convention_free():
    """a'(1)·b - a·b'(1) = b²·d1(a/b): exact for every reduced pair, with no
    depth convention anywhere in sight."""
    for b in range(1, 13):
        for a in range(1, b + 1):
            if math.gcd(a, b) != 1:
                continue
            lhs = numerator_derivative(a, b) * b - a * denominator_derivative(a, b)
            assert lhs == b * b * d1_closed(Fr(a, b)), (a, b)


# -- reports ---------------------------------------------------------------

def test_derivative_report_rows():
    rows = list(derivative_report(3))
    assert all(r["d1_match"] and r["d2_match"] for r in rows)
    pairs = [(r["a"], r["b"]) for r in rows]
    assert pairs[0] == (0, 1)
    assert (2, 3) in pairs and (6, 3) not in pairs
    assert all(0 <= a <= 2 * b and math.gcd(a, b) == 1 for a, b in pairs)


def test_derivative_report_csv_shape():
    text = derivative_report_csv(2)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["a", "b", "exact_d1", "closed_d1",
                       "exact_d2", "closed_d2", "d1_match", "d2_match"]
    assert rows[1] == ["0", "1", "0", "0", "0", "0", "1", "1"]
    assert rows[2] == ["1", "1", "0", "0", "0", "0", "1", "1"]
    assert all(r[-2:] == ["1", "1"] for r in rows[1:])
