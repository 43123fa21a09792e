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
from hypothesis import given, settings, strategies as st

from qrationals.closedforms import bracket_weight_sum, bridge_mismatches
from qrationals.dedekind import (
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


def literal_s_sum(i, j, a, b):
    """The defining sum of s_{i,j}, term by term: the oracle for the kernel."""
    return sum((periodic_bernoulli(i, Fr(n, b)) * periodic_bernoulli(j, Fr(a * n, b))
                for n in range(1, b)), Fr(0))


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
    evaluating to 0 (at b = 1 the sum is empty and evaluates nothing)."""
    for call in (lambda: bernoulli_poly(-2, 3), lambda: s_sum(-1, 3, 1, 5),
                 lambda: s_sum(1, -3, 1, 2), lambda: h_val(-1, 2, 1, 5)):
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
    """Index 12 (the bound) against the literal sum, the index-13 error, and
    the empty sum at b = 1."""
    for i, j, a, b in ((12, 1, 3, 7), (1, 12, -5, 11), (12, 12, 4, 9),
                       (0, 12, 6, 8), (12, 3, -17, 13)):
        assert s_sum(i, j, a, b) == literal_s_sum(i, j, a, b)
    for i, j in ((13, 1), (1, 13), (13, 13)):
        with pytest.raises(ValueError, match="index 13 exceeds the configured bound 12"):
            s_sum(i, j, 1, 2)
    assert s_sum(13, 13, 1, 1) == 0  # the sum is empty, so nothing is evaluated


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
