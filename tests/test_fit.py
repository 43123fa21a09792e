"""Exact coefficient recovery for the derivative ansatzes, the lattice-sum
feature column, and the plot-data export."""
import csv
import hashlib
import io
import math
from fractions import Fraction as Fr

import pytest

from qrationals.closedforms import bracket, bracket_weight_sum, d1_closed, d2_closed
from qrationals.dedekind import bernoulli_poly, s_sum
from qrationals.fit import (
    D1_FEATURE_NAMES,
    D2_FEATURE_NAMES,
    RankDeficientError,
    _d2_features,
    _dec,
    _solve_system,
    default_d1_samples,
    default_d2_samples,
    emit_plot_data,
    fit_d1,
    fit_d2,
    plot_data_csv,
)

D1_EXPECTED = (Fr(1, 2), Fr(-1, 2), Fr(1, 2), Fr(-1, 2))
D2_EXPECTED = (Fr(0), Fr(-1), Fr(0), Fr(1, 3), Fr(1), Fr(0), Fr(-1),
               Fr(0), Fr(5, 3), Fr(-1), Fr(-20))


# -- first-derivative ansatz -----------------------------------------------

def test_fit_d1_recovers_coefficients():
    assert fit_d1(default_d1_samples()) == D1_EXPECTED
    # a different full-rank sample set recovers the same coefficients
    assert fit_d1([Fr(1, 2), Fr(1, 3), Fr(1, 4), Fr(2, 5)]) == D1_EXPECTED
    assert fit_d1([Fr(1, 2), Fr(2, 5), Fr(3, 7), Fr(5, 8), Fr(1, 4)]) == D1_EXPECTED


def test_fit_d1_feature_names():
    assert D1_FEATURE_NAMES == ("x^2", "x", "1", "f^2")
    assert len(D1_EXPECTED) == len(D1_FEATURE_NAMES)


def test_fit_d1_integer_samples_are_rank_deficient():
    """On integers f(x) = 1, so the f² column collides with the constant
    column and the system cannot be solved."""
    with pytest.raises(RankDeficientError):
        fit_d1([1, 2, 3, 4, 5])


def test_solver_keeps_first_rank_increasing_rows_and_checks_every_row():
    # the second row adds no rank and is consistent; the fourth contradicts
    rows = [((Fr(1), Fr(0)), Fr(1)), ((Fr(2), Fr(0)), Fr(2)), ((Fr(0), Fr(1)), Fr(3))]
    assert _solve_system(rows, 2) == (1, 3)
    with pytest.raises(ValueError, match="inconsistent"):
        _solve_system(rows + [((Fr(1), Fr(1)), Fr(5))], 2)


def test_default_d1_samples():
    assert default_d1_samples() == [Fr(1, 2), Fr(1, 3), Fr(2, 3), Fr(2, 5)]


# -- second-derivative ansatz ----------------------------------------------

def test_fit_d2_recovers_coefficients():
    assert fit_d2(default_d2_samples()) == D2_EXPECTED


def test_fit_d2_is_sample_order_independent():
    assert fit_d2(list(reversed(default_d2_samples()))) == D2_EXPECTED


def test_fit_d2_feature_names():
    assert D2_FEATURE_NAMES == ("1/b^3", "a/b^3", "a^2/b^3", "a^3/b^3",
                                "1/b^2", "a/b^2", "a^2/b^2",
                                "1/b", "a/b", "1", "lambda")
    assert len(D2_EXPECTED) == len(D2_FEATURE_NAMES)


def test_fit_d2_too_few_samples():
    with pytest.raises(RankDeficientError):
        fit_d2(default_d2_samples()[:8])


def test_default_d2_samples_pool():
    pool = default_d2_samples()
    assert len(pool) == 17
    assert pool == [Fr(a, b) for b in range(2, 8) for a in range(1, b)
                    if math.gcd(a, b) == 1]
    assert all(0 < x < 1 for x in pool)


# -- lattice-sum feature column --------------------------------------------

def lattice_column(a, b):
    """The fit's λ column: the last feature of the second-derivative row."""
    assert D2_FEATURE_NAMES[-1] == "lambda"
    return _d2_features(Fr(a, b))[-1]


def literal_b3_sum(a, b):
    """Σ_{n<b} ⟨n/a⟩_b·B_3(n/b), term by term (n/b lies in (0, 1))."""
    return sum((bracket(n, a, b) * bernoulli_poly(3, Fr(n, b)) for n in range(1, b)),
               Fr(0))


def test_lattice_column_fixtures():
    assert lattice_column(1, 2) == 0
    assert lattice_column(3, 8) == Fr(-9, 1024)
    assert literal_b3_sum(1, 2) == 0
    assert literal_b3_sum(3, 8) == Fr(-9, 1024)


def test_lattice_column_bridges():
    """The fit's λ column is the literal sum Σ⟨n/a⟩_b·B_3(n/b), exactly the
    generalized Dedekind sum s_{1,3}, and the negative of the second-derivative
    lattice weight — which is why the recovered λ coefficient is −20 while
    the closed form carries +20."""
    for b in range(1, 13):
        for a in range(1, b + 1):
            if math.gcd(a, b) != 1:
                continue
            assert lattice_column(a, b) == literal_b3_sum(a, b)
            assert lattice_column(a, b) == s_sum(1, 3, a, b)
            assert lattice_column(a, b) == -bracket_weight_sum(a, b)


# -- plot data -------------------------------------------------------------

def test_emit_plot_data_depth1():
    assert emit_plot_data(1, 1) == [
        (Fr(1, 3), Fr(1, 3), 3, 1),
        (Fr(1, 2), Fr(1, 4), 2, 0),
        (Fr(2, 3), Fr(1, 3), 3, 1),
    ]


def test_emit_plot_data_order0_and_windows():
    rows = emit_plot_data(2, 0)
    assert all(val == x for x, val, _, _ in rows)
    xs = [r[0] for r in rows]
    assert xs == sorted(xs)
    assert emit_plot_data(0, 0, start=1) == [(Fr(3, 2), Fr(3, 2), 2, 0)]


def test_emit_plot_data_derivatives_match_closed_forms():
    """The plot's values are the exact jets; the closed forms are the other side."""
    for x, val, _, _ in emit_plot_data(4, 1):
        assert val == d1_closed(x)
    for x, val, b, _ in emit_plot_data(4, 2):
        assert val == d2_closed(x.numerator, b)
    assert len(emit_plot_data(4, 2)) == 2 ** 5 - 1


def test_emit_plot_data_validates_order():
    with pytest.raises(ValueError):
        emit_plot_data(1, 3)


def test_decimal_rendering():
    assert _dec(Fr(1, 3)) == "0.333333333333"
    assert _dec(Fr(2, 3)) == "0.666666666667"
    assert _dec(Fr(-1, 8)) == "-0.125000000000"
    assert _dec(Fr(2)) == "2.000000000000"
    # a half in the last place rounds away from zero
    assert _dec(Fr(1, 2 * 10 ** 12)) == "0.000000000001"
    assert _dec(Fr(-1, 2 * 10 ** 12)) == "-0.000000000001"


def test_plot_data_csv_depth1():
    assert plot_data_csv(1, 1).splitlines() == [
        "x,value,b,depth",
        "0.333333333333,0.333333333333,3,1",
        "0.500000000000,0.250000000000,2,0",
        "0.666666666667,0.333333333333,3,1",
    ]


@pytest.mark.parametrize("start, digest", [
    (-1999, "c994cafe94affec2912a621a62a4aae534c7bfef7eaea22343ac0d45b1688c78"),
    (7, "e10c8f0e6e57d4dc6115c8195dc3eb6beaeaa3ade3b0c5e25f3454e24f061b37"),
])
def test_plot_data_csv_pinned_digests(start, digest):
    """The depth-12 order-2 CSV of the widest windows CI plots, pinned by
    SHA-256: a change to the walk or its width must not change the plot."""
    assert hashlib.sha256(plot_data_csv(12, 2, start).encode()).hexdigest() == digest
