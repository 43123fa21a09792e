"""Closed-form derivative expressions against the exact engine, plus the
depth-based numerator/denominator formulas and their calibration report.

The calibration mismatch sets are pinned exactly: the depth-based formulas
are NOT correct on all inputs under either depth convention, and the tests
document precisely where they fail.  The convention-independent quotient-rule
combination is the hard gate.
"""
import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import F, G, H, cfrac_value, d1_literal, d2_literal, literal_s_sum
from qrationals.dedekind import s_sum
from qrationals.exact import derivative_at_one, jets_at_one
from qrationals.qdeform import deform
from qrationals.closedforms import (
    NoInverseError,
    bracket,
    d1_closed,
    d2_closed,
    denominator_d1_closed,
    lemma_calibration,
    mod_inverse,
    numerator_d1_closed,
    numerator_derivative,
    denominator_derivative,
)
from qrationals.sweeps import SWEEPS, _sweep

SWEEPS_BY_NAME = {s.name: s for s in SWEEPS}

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
    assert d1_closed(Fr(-2, 5)) == Fr(19, 25)
    # a plain int is read as n/1, as its Fraction is
    for n, want in ((0, 0), (1, 0), (3, 3), (-2, 3)):
        assert d1_closed(n) == want == d1_closed(Fr(n)), n


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


# b = 1, the O(b) oracle's range, and up to 10³⁰; a anywhere in [−5b, 5b]
wide_reduced_pairs = st.one_of(st.just(1), st.integers(2, 200), st.integers(201, 10 ** 30)).flatmap(
    lambda b: st.tuples(st.integers(-5 * b, 5 * b), st.just(b))).filter(
    lambda ab: math.gcd(*ab) == 1)


@settings(max_examples=150, deadline=None)
@given(wide_reduced_pairs)
@example((-7, 5))
@example((11, 4))
@example((-4, 1))
@example((-3 * 10 ** 30 - 170, 10 ** 30 + 57))
def test_closed_forms_equal_their_literal_form(ab):
    """The cleared numerators over one denominator equal the Fraction form
    (x² − x + 1 − f²)/2 and F + f²·G − 20·s₁,₃, with s₁,₃ from the O(b)
    defining sum wherever it is affordable (b ≤ 200)."""
    a, b = ab
    s13 = literal_s_sum(1, 3, a, b) if b <= 200 else s_sum(1, 3, a, b)
    assert d1_closed(Fr(a, b)) == d1_literal(Fr(a, b))
    assert d2_closed(a, b) == d2_literal(a, b, s13)


expansions = st.tuples(st.integers(-50, 50),
                       st.lists(st.integers(1, 200), min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(expansions)
def test_closed_forms_match_exact_jets_on_long_expansions(terms):
    """Over the whole domain the API accepts: heads in [−50, 50] and 1–12
    partial quotients up to 200, against the jets of the deformation's own
    polynomials."""
    head, tail = terms
    x = cfrac_value((head, *tail))
    rf = deform(x).deform
    assert d1_closed(x) == derivative_at_one(rf, 1), x
    assert d2_closed(x.numerator, x.denominator) == derivative_at_one(rf, 2), x


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
        while len(str(cfrac_value(terms).denominator)) < digits:
            terms.append(rng.choice((1, 1, 2, 3)))
        xs.append(cfrac_value(terms))
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


def test_depth_formulas_deform_nothing():
    """The depth comes from the continued fraction alone: 1/20000 has depth
    19998, and deform's cache is left as it was."""
    before = deform.cache_info()
    assert numerator_d1_closed(1, 20000, "depth") == 19998 * 20000 // 2
    assert numerator_d1_closed(1, 20000) == 19999 * 20000 // 2
    assert denominator_d1_closed(1, 20000) == Fr(20000 - 19998 * 20000 ** 2, 2)
    assert deform.cache_info() == before


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


# -- the closed-form sweeps ------------------------------------------------

def test_closed_form_sweep_rows():
    pairs = list(_sweep(3))
    assert pairs[0] == (0, 1)
    assert (2, 3) in pairs and (6, 3) not in pairs
    assert all(0 <= a <= 2 * b and math.gcd(a, b) == 1 for a, b in pairs)
    for name in ("thm1", "thm2", "integrality"):
        assert SWEEPS_BY_NAME[name].run(3).line.endswith(
            f"on all {len(pairs)} reduced a/b with b <= 3, 0 <= a <= 2b"), name
