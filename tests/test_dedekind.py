"""Bernoulli machinery, generalized Dedekind sums, reciprocity, the identity
battery, and the bridges back to the second-derivative lattice sum.

All numeric fixtures are exact rational pins; sweeps assert emptiness of the
failure lists.
"""
import csv
import io
import math
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    literal_bracket_weight_sum,
    literal_periodic_bernoulli,
    literal_s_sum,
    literal_zero_sum,
)
from qrationals import closedforms
from qrationals.closedforms import bracket_weight_sum, bridge_mismatches
from qrationals.dedekind import (
    _s13_cleared,
    battery_report_csv,
    battery_sweep,
    bernoulli_number,
    bernoulli_poly,
    check_identities,
    h_val,
    periodic_bernoulli,
    reciprocity_residual,
    reciprocity_sweep,
    s_sum,
)

coprime_pairs = st.integers(1, 12).flatmap(
    lambda b: st.tuples(
        st.integers(1, 24).filter(lambda a: math.gcd(a, b) == 1),
        st.just(b)))

# any a in [−3b, 3b], coprime to b or not
lattice_args = st.integers(1, 60).flatmap(
    lambda b: st.tuples(st.integers(-3 * b, 3 * b), st.just(b)))
wide_lattice_args = st.integers(1, 500).flatmap(
    lambda b: st.tuples(st.integers(-3 * b, 3 * b), st.just(b)))


# -- Bernoulli numbers and polynomials -------------------------------------

def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fr(-1, 2)
    assert bernoulli_number(2) == Fr(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(4) == Fr(-1, 30)
    assert bernoulli_number(12) == Fr(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_odd_bernoulli_numbers_vanish():
    assert all(bernoulli_number(i) == 0 for i in (3, 5, 7, 9, 11))


def test_bernoulli_poly_fixtures():
    assert bernoulli_poly(1, Fr(1, 3)) == Fr(-1, 6)
    assert bernoulli_poly(3, Fr(1, 3)) == Fr(1, 27)
    assert bernoulli_poly(4, Fr(1, 2)) == Fr(7, 240)
    assert bernoulli_poly(0, Fr(9, 7)) == 1
    with pytest.raises(ValueError):
        bernoulli_poly(13, 0)


def test_negative_bernoulli_indices_raise():
    """A negative index raises like bernoulli_number(−1) instead of
    evaluating to 0, also where the sum is empty (b = 1)."""
    for call in (lambda: bernoulli_poly(-2, 3), lambda: s_sum(-1, 3, 1, 5),
                 lambda: s_sum(1, -3, 1, 2), lambda: h_val(-1, 2, 1, 5),
                 lambda: s_sum(-1, 3, 1, 1), lambda: h_val(1, -3, 0, 1)):
        with pytest.raises(ValueError, match="index must be nonnegative"):
            call()


@given(st.integers(0, 8), st.fractions(min_value=-4, max_value=4, max_denominator=9))
def test_bernoulli_poly_difference_equation(i, x):
    """B_i(x+1) − B_i(x) = i·x^{i−1}."""
    if i == 0:
        assert bernoulli_poly(0, x + 1) == bernoulli_poly(0, x)
    else:
        assert bernoulli_poly(i, x + 1) - bernoulli_poly(i, x) == i * Fr(x) ** (i - 1)


def test_periodic_bernoulli_fixtures():
    assert periodic_bernoulli(1, Fr(5, 3)) == Fr(1, 6)
    assert periodic_bernoulli(1, Fr(-1, 3)) == Fr(1, 6)
    assert periodic_bernoulli(3, Fr(2)) == 0
    assert periodic_bernoulli(2, Fr(7)) == Fr(1, 6)  # B̄_i(integer) = B_i
    assert periodic_bernoulli(1, Fr(0)) == Fr(-1, 2)


@given(st.integers(0, 6), st.fractions(min_value=-4, max_value=4, max_denominator=9),
       st.integers(-3, 3))
def test_periodic_bernoulli_is_periodic(i, x, k):
    assert periodic_bernoulli(i, Fr(x) + k) == periodic_bernoulli(i, Fr(x))


def test_bernoulli_poly_is_the_literal_polynomial():
    """B_i(r/b) from the cleared row, C(i, k)·D·B_k scaled by b^k over D·b^i,
    equals Σ_k C(i, k)·B_k·x^{i−k} term by term at every index up to the
    bound and every r/b in [0, 1) with b ≤ 30."""
    for i in range(13):
        for b in range(1, 31):
            for r in range(b):
                x = Fr(r, b)
                assert bernoulli_poly(i, x) == literal_periodic_bernoulli(i, x), (i, x)


# -- the double lattice sum ------------------------------------------------

def test_s_sum_fixtures():
    assert s_sum(1, 3, 1, 3) == Fr(-1, 81)
    assert s_sum(1, 3, 2, 3) == Fr(1, 81)
    assert s_sum(1, 3, 1, 5) == Fr(-21, 625)
    assert s_sum(1, 3, 2, 5) == Fr(-3, 625)
    assert s_sum(1, 3, 3, 8) == Fr(-9, 1024)
    assert s_sum(1, 3, 5, 13) == Fr(-15, 2197)


def test_s_sum_trivial_modulus_and_errors():
    assert s_sum(1, 3, 4, 1) == 0
    assert s_sum(2, 2, 0, 1) == 0
    with pytest.raises(ValueError):
        s_sum(1, 3, 1, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), lattice_args)
def test_s_sum_matches_literal_sum(i, j, ab):
    a, b = ab
    assert s_sum(i, j, a, b) == literal_s_sum(i, j, a, b)


def test_s_sum_literal_pins():
    """Index 12 (the bound) against the literal sum, and the index-13 error,
    also at b = 1, where the sum is empty."""
    for i, j, a, b in ((12, 1, 3, 7), (1, 12, -5, 11), (12, 12, 4, 9),
                       (0, 12, 6, 8), (12, 3, -17, 13)):
        assert s_sum(i, j, a, b) == literal_s_sum(i, j, a, b)
    for i, j, b in ((13, 1, 2), (1, 13, 2), (13, 13, 2), (13, 13, 1), (1, 13, 1)):
        with pytest.raises(ValueError, match="index 13 exceeds the configured bound 12"):
            s_sum(i, j, 1, b)


@settings(max_examples=150, deadline=None)
@given(wide_lattice_args)
def test_s13_descent_matches_literal_sum(ab):
    """s_{1,3}, the one pair that takes the reciprocity descent instead of
    the lattice loop, against its defining sum, non-coprime a included."""
    a, b = ab
    assert s_sum(1, 3, a, b) == literal_s_sum(1, 3, a, b)


@settings(max_examples=60, deadline=None)
@given(wide_lattice_args)
@example((6, 16))
@example((-3, 8))
@example((7, 1))
def test_s13_cleared_is_the_literal_sum(ab):
    """The integer kernel behind s_sum's (1, 3) path and d2_closed is
    120·b⁴·s_{1,3}, non-coprime and negative a included."""
    a, b = ab
    assert _s13_cleared(a, b) == 120 * b ** 4 * literal_s_sum(1, 3, a, b)


@given(st.integers(0, 4), st.integers(0, 4), coprime_pairs)
def test_s_sum_shift_periodicity(i, j, ab):
    a, b = ab
    assert s_sum(i, j, a + b, b) == s_sum(i, j, a, b)


@given(st.integers(0, 4), st.integers(0, 4), coprime_pairs)
def test_s_sum_parity_law(i, j, ab):
    a, b = ab
    assert s_sum(i, j, -a, b) == Fr(-1) ** j * s_sum(i, j, a, b)


# -- h normalization -------------------------------------------------------

def test_h_fixtures():
    assert h_val(1, 3, 1, 3) == Fr(-1, 486)
    assert h_val(4, 0, 1, 2) == Fr(-1, 5760)
    assert h_val(2, 2, 1, 1) == Fr(1, 144)
    assert h_val(4, 0, 1, 1) == Fr(-1, 720)


def test_h_even_boundary_values():
    """h_{i,0}(p, q) = (B_i/i!)·q^{1−i} for even i, any coprime p."""
    for i in (2, 4):
        for p, q in ((1, 2), (2, 3), (3, 7), (1, 1)):
            want = bernoulli_number(i) / math.factorial(i) * Fr(q) ** (1 - i)
            assert h_val(i, 0, p, q) == want
            assert h_val(0, i, p, q) == want


# -- reciprocity -----------------------------------------------------------

def test_reciprocity_fixtures():
    assert reciprocity_residual(4, 1, 2, 3) == 0
    assert reciprocity_residual(4, 1, 3, 5) == 0
    assert reciprocity_residual(4, 1, 1, 1) == 0
    assert reciprocity_residual(2, 3, 2, 5) == 0


def test_reciprocity_validates_input():
    with pytest.raises(ValueError):
        reciprocity_residual(4, 1, 2, 4)
    with pytest.raises(ValueError):
        reciprocity_residual(0, 1, 1, 2)


def test_reciprocity_sweep_is_empty():
    assert reciprocity_sweep(10) == []


# -- identity battery ------------------------------------------------------

def duplication_literal_residual(i: int, j: int, p: int, q: int) -> Fr:
    """s_{i,j}(2p, q) − 2^i·s_{i,j}(p, q) for odd q.

    This two-term scaling is NOT an identity (the battery gates the correct
    three-term duplication law instead); the residual is computed here so
    that its failure can be pinned rather than hidden.
    """
    if q % 2 == 0:
        raise ValueError("literal scaling is only stated for odd moduli")
    return s_sum(i, j, 2 * p, q) - Fr(2) ** i * s_sum(i, j, p, q)


def test_duplication_literal_scaling_fails():
    """The naive two-term scaling s(2p,q) = 2^i·s(p,q) is false; the residual
    at (1,3,1,5) is pinned so the failure stays visible."""
    assert duplication_literal_residual(1, 3, 1, 5) == Fr(39, 625)
    with pytest.raises(ValueError):
        duplication_literal_residual(1, 3, 1, 2)


def test_check_identities_shape_and_success():
    rows = check_identities(1, 3)
    assert len(rows) == 39
    by_name = {}
    for r in rows:
        by_name.setdefault(r["identity"], []).append(r)
    assert len(by_name["even_boundary"]) == 4
    assert len(by_name["parity"]) == 15
    assert len(by_name["shift"]) == 15
    assert len(by_name["duplication"]) == 5
    assert all(r["ok"] and r["residual"] == 0 for r in rows)


def test_check_identities_requires_coprime():
    with pytest.raises(ValueError):
        check_identities(2, 4)


def test_battery_sweep_is_empty():
    assert battery_sweep(8) == []


def test_battery_report_csv():
    text = battery_report_csv(1, 3)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["identity", "params", "residual", "pass"]
    assert rows[1] == ["even_boundary", "2 0 1 3", "0", "1"]
    assert len(rows) == 40
    assert all(r[2] == "0" and r[3] == "1" for r in rows[1:])


# -- bridges to the second-derivative lattice sum --------------------------

def test_bracket_weight_sum_fixture():
    assert bracket_weight_sum(3, 8) == Fr(9, 1024)
    assert bracket_weight_sum(3, 8) == -s_sum(1, 3, 3, 8)
    assert bracket_weight_sum(5, 13) == -s_sum(1, 3, 5, 13)


def test_bridge_mismatches_all_empty():
    out = bridge_mismatches(15)
    assert out == {"substitution": [], "symmetry": [], "zero_sum": []}


@settings(max_examples=40, deadline=None)
@given(coprime_pairs)
def test_substitution_bridge_property(ab):
    a, b = ab
    assert bracket_weight_sum(a, b) == -s_sum(1, 3, a, b)


def test_bracket_weight_sum_is_the_literal_sum():
    """The one integer pass, Σ(2r − b)·n²·(b − n) over 2b⁴, equals the
    literal Σ⟨n/a⟩_b·H(n/b) on every reduced a/b with 1 ≤ b ≤ 60 and
    −b ≤ a ≤ 2b."""
    count = 0
    for b in range(1, 61):
        for a in range(-b, 2 * b + 1):
            if math.gcd(a, b) == 1:
                count += 1
                want = literal_bracket_weight_sum(pow(a, -1, b), b)
                assert bracket_weight_sum(a, b) == want, (a, b)
    assert count == 3307


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400).flatmap(
    lambda b: st.tuples(st.integers(-b, 2 * b), st.just(b))).filter(lambda ab: math.gcd(*ab) == 1))
@example((-399, 400))
@example((797, 399))
def test_bracket_weight_sum_is_the_literal_sum_at_wider_moduli(ab):
    a, b = ab
    assert bracket_weight_sum(a, b) == literal_bracket_weight_sum(pow(a, -1, b), b)


def test_zero_sum_bridge_reports_a_multiplier_that_is_not_a_unit(monkeypatch):
    """The zero-sum vanishes for every unit multiplier (n → b − n flips the
    sign of each term), so it can fail only where the multiplier is not a
    unit mod b.  With a^{−1} off by one, every reduced a/b with
    1 ≤ a ≤ b ≤ 60 at which the literal sum at that multiplier is nonzero
    is reported, with that sum as its lhs, and no other."""
    inverse = closedforms.mod_inverse
    monkeypatch.setattr(closedforms, "mod_inverse", lambda a, b: inverse(a, b) + 1)
    want = [(a, b, lhs, 0) for b in range(1, 61) for a in range(1, b + 1)
            if math.gcd(a, b) == 1
            for lhs in [literal_zero_sum(inverse(a, b) + 1, b)] if lhs]
    assert len([r for r in want if r[1] <= 12]) == 24
    assert bridge_mismatches(60)["zero_sum"] == want
