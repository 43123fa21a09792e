"""Substrate tests: integer polynomials, rational functions, derivatives at
q = 1, and the fraction-free row reduction under the fit's solver.

Everything is compared with == on Fractions/IntPolys; there is no tolerance
anywhere in this file.
"""
import itertools
import math
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings, strategies as st

import qrationals
from qrationals import closedforms, dedekind, exact, fit, qdeform, sbtree
from qrationals.exact import (
    IntPoly,
    PoleAtOneError,
    RatFunc,
    ZeroDenominatorError,
    _cleared_jets,
    _echelon,
    _taylor_at_one,
    derivative_at_one,
    jets_at_one,
    poly_to_json_list,
    rat_to_str,
)
from qrationals.fit import RankDeficientError, _solve_system
from oracles import derivative_at_one_quotient, poly_add, poly_mul, poly_shift


polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=6))
nonzero_polys = polys.filter(lambda p: not p.is_zero)
rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def test_all_lists_what_the_package_reexports():
    """The package publishes exactly the union of its six modules' lists,
    each name as the module's own object, and no two modules list the same
    name (a later wildcard import would silently shadow the earlier one)."""
    modules = (exact, qdeform, sbtree, closedforms, dedekind, fit)
    listed = [name for m in modules for name in m.__all__]
    assert len(listed) == len(set(listed))
    assert set(qrationals.__all__) == {*listed, "__version__"}
    for m in modules:
        for name in m.__all__:
            assert getattr(qrationals, name) is getattr(m, name), (m.__name__, name)


# -- rationals -------------------------------------------------------------

def test_rat_str_forms():
    assert rat_to_str(Fr(9, 25)) == "9/25"
    assert rat_to_str(Fr(-1, 4)) == "-1/4"
    assert rat_to_str(Fr(3)) == "3"
    assert rat_to_str(Fr(0)) == "0"


@given(rationals)
def test_rat_str_round_trip(x):
    assert Fr(rat_to_str(x)) == x


# -- IntPoly ---------------------------------------------------------------

def test_poly_normalization():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).is_zero
    assert IntPoly().degree() == -1
    assert IntPoly().leading() == 0
    assert IntPoly([0, 0, 3]).trailing_order() == 2
    assert IntPoly().trailing_order() == 0
    assert IntPoly([4, 6]).content() == 2


def test_poly_rejects_non_integer_coefficients():
    for coeffs in ([0.5], [1.9, 3], [1, "3"], [Fr(1, 2)], [2.0]):
        with pytest.raises(TypeError):
            IntPoly(coeffs)
    assert IntPoly([True, 2]).coeffs == (1, 2)


def test_poly_constructors():
    assert IntPoly.const(5).coeffs == (5,)
    assert IntPoly.const(0).is_zero


@given(polys, polys, st.fractions(max_denominator=6, min_value=-3, max_value=3))
def test_poly_evaluation_is_a_homomorphism(a, b, x):
    """Evaluation respects the oracle's sums and differences."""
    assert poly_add(a, b)(x) == a(x) + b(x)
    assert poly_add(a, b, -1)(x) == a(x) - b(x)


@given(polys, st.integers(0, 4))
def test_poly_shift_unshift_round_trip(p, k):
    assert poly_shift(p, k).unshift(k) == p


def test_poly_unshift_requires_divisibility():
    with pytest.raises(ValueError):
        IntPoly([1, 1]).unshift(1)


@given(polys, st.integers(0, 5))
def test_shifted_coeff_is_taylor_coefficient_at_one(p, j):
    """_taylor_at_one(p, j) must end in the h^j coefficient of p(1 + h) and
    list the lower ones before it."""
    composed, power = IntPoly(), IntPoly.const(1)
    for c in p.coeffs:  # power = (1 + h)^i
        composed = poly_add(composed, poly_mul(IntPoly.const(c), power))
        power = poly_mul(power, IntPoly([1, 1]))
    expected = composed.coeffs[j] if j < len(composed.coeffs) else 0
    assert _taylor_at_one(p, j)[j] == expected
    padded = composed.coeffs + (0,) * (j + 1)
    assert _taylor_at_one(p, j) == list(padded[:j + 1])


def test_poly_str():
    assert str(IntPoly([1, 1, 2, 1])) == "1 + q + 2*q^2 + q^3"
    assert str(IntPoly([0, -1])) == "-q"
    assert str(IntPoly([-1])) == "-1"
    assert str(IntPoly()) == "0"


@given(polys)
def test_poly_json_round_trip(p):
    assert IntPoly(map(int, poly_to_json_list(p))) == p


def test_poly_json_is_decimal_strings_lowest_first():
    assert poly_to_json_list(IntPoly([0, 1, -2])) == ["0", "1", "-2"]


# -- RatFunc ---------------------------------------------------------------

def test_ratfunc_normalizes_sign_and_content():
    rf = RatFunc(IntPoly([0, 1]), IntPoly([-1, -1]))
    assert rf.num == IntPoly([0, -1])
    assert rf.den == IntPoly([1, 1])
    rf = RatFunc(IntPoly([2, 2]), IntPoly([4]))
    assert (rf.num, rf.den) == (IntPoly([1, 1]), IntPoly([2]))
    # only the monomial part of a common factor q(1 + q) goes
    rf = RatFunc(IntPoly([0, 1, 1]), IntPoly([0, 0, 1, 1]))
    assert (rf.num, rf.den) == (IntPoly([1, 1]), IntPoly([0, 1, 1]))


def test_ratfunc_str_shows_both_polynomials():
    assert str(RatFunc(IntPoly([0, 1]), IntPoly([1, 1]))) == "(q) / (1 + q)"


def test_ratfunc_zero_numerator_collapses():
    rf = RatFunc(IntPoly(), IntPoly([0, 0, 5]))
    assert rf.num.is_zero and rf.den == IntPoly([1])


def test_ratfunc_rejects_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        RatFunc(IntPoly([1]), IntPoly())


@given(nonzero_polys, nonzero_polys, st.integers(1, 5), st.integers(0, 3),
       st.booleans())
def test_ratfunc_clears_monomial_factors(n, d, scale, k, flip):
    """Scaling a canonical pair by ±c·q^k must normalize back to itself."""
    rf = RatFunc(n, d)
    m = poly_shift(IntPoly.const(-scale if flip else scale), k)
    assert RatFunc(poly_mul(rf.num, m), poly_mul(rf.den, m)) == rf


def test_pole_detection():
    rf = RatFunc(IntPoly([1]), IntPoly([-1, 1]))  # 1/(q-1)
    for k in (0, 1):
        with pytest.raises(PoleAtOneError):
            derivative_at_one(rf, k)


# -- derivatives at q = 1 --------------------------------------------------

def test_derivative_fixtures():
    half = RatFunc(IntPoly([0, 1]), IntPoly([1, 1]))  # q/(q+1)
    assert derivative_at_one(half, 0) == Fr(1, 2)
    assert derivative_at_one(half, 1) == Fr(1, 4)
    two_thirds = RatFunc(IntPoly([0, 0, 1]), IntPoly([1, 1, 1]))
    assert derivative_at_one(two_thirds, 1) == Fr(1, 3)
    assert derivative_at_one(two_thirds, 2) == Fr(-2, 9)


def test_derivative_rejects_negative_order():
    rf = RatFunc(IntPoly([1]), IntPoly([1]))
    with pytest.raises(ValueError):
        derivative_at_one(rf, -1)


@settings(max_examples=60)
@given(nonzero_polys, nonzero_polys, st.integers(0, 3))
def test_series_and_quotient_rule_derivatives_agree(n, d, k):
    rf = RatFunc(n, d)
    if rf.den(1) == 0:
        return
    assert derivative_at_one(rf, k) == derivative_at_one_quotient(rf, k)


@settings(max_examples=60)
@given(nonzero_polys, nonzero_polys, st.integers(0, 3))
@example(IntPoly([-5, 0, -1]), IntPoly([1, 2, 1]), 3)  # f(1) = −3/2
@example(IntPoly([2, -7]), IntPoly([0, 0, 1]), 3)  # negative jets, den(1) = 1
@example(IntPoly([1, 1]), IntPoly([1, 0, -1]), 2)  # pole at q = 1
def test_jets_match_quotient_rule_derivatives(n, d, k):
    """jets_at_one and the cleared jets it divides: b = den(1) and integers
    J_j = b^{j+1}·f⁽ʲ⁾(1), against the quotient rule; a pole raises."""
    rf = RatFunc(n, d)
    if rf.den(1) == 0:
        for jets in (jets_at_one, _cleared_jets):
            with pytest.raises(PoleAtOneError):
                jets(rf, k)
        return
    want = [derivative_at_one_quotient(rf, j) for j in range(k + 1)]
    b, J = _cleared_jets(rf, k)
    assert b == rf.den(1) and len(J) == k + 1
    assert all(type(Jj) is int and Jj == b ** (j + 1) * w for j, (Jj, w) in enumerate(zip(J, want)))
    jets = jets_at_one(rf, k)
    assert jets == want
    assert derivative_at_one(rf, k) == jets[k]


def test_jets_reject_negative_order():
    with pytest.raises(ValueError):
        jets_at_one(RatFunc(IntPoly([1]), IntPoly([1])), -1)


def test_derivative_matches_finite_difference_coarsely():
    """Sanity anchor: symmetric difference quotient with h = 10^-6 sits
    within 10^-3 of the exact derivative (evaluated in exact arithmetic)."""
    rf = RatFunc(IntPoly([0, 0, 1, 1]), IntPoly([1, 1, 2, 1]))  # [2/5]_q
    h = Fr(1, 10 ** 6)

    def at(x):
        return Fr(rf.num(x), rf.den(x))

    approx = (at(1 + h) - at(1 - h)) / (2 * h)
    assert abs(approx - derivative_at_one(rf, 1)) < Fr(1, 1000)


# -- the fraction-free row reduction and the fit's solver over it ---------

def _det(A):
    """Leibniz's determinant, one signed product per permutation."""
    total = Fr(0)
    for perm in itertools.permutations(range(len(A))):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(perm))
                           for j in range(i + 1, len(perm)))
        total += sign * math.prod(A[i][perm[i]] for i in range(len(A)))
    return total


@settings(max_examples=50)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.fractions(min_value=-5, max_value=5,
                                       max_denominator=6),
                          min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                 min_size=n, max_size=n))))
def test_solver_inverts_matrix_action(Ax):
    """_solve_system recovers x from A·x exactly, and raises
    RankDeficientError exactly when det A = 0."""
    A, x = Ax
    y = [sum(row[j] * x[j] for j in range(len(x))) for row in A]
    try:
        got = _solve_system([(tuple(row), v) for row, v in zip(A, y)], len(A))
    except RankDeficientError:
        assert _det(A) == 0
    else:
        assert got == tuple(x)


def test_solver_handles_zero_leading_pivots():
    # rows 1 and 2 start with zeros, and row 2's pivot column must be
    # cleared from row 1 after row 1 was kept
    rows = [((0, 1, 1), 2), ((0, 0, 2), 2), ((3, 0, 0), 3)]
    assert _solve_system(rows, 3) == (1, 1, 1)


def test_solver_reports_rank_on_singular_input():
    with pytest.raises(RankDeficientError, match="rank 1 < 2"):
        _solve_system([((1, 2), 1), ((2, 4), 2)], 2)
    # an inconsistent right-hand side raises rather than widening the rank
    with pytest.raises(RankDeficientError, match="rank 1 < 2"):
        _solve_system([((1, 2), 1), ((2, 4), 3)], 2)


def test_matrix_rank():
    """The rank is the number of rows _echelon keeps."""
    assert len(_echelon([], 0)) == 0
    assert len(_echelon([[0, 0]], 2)) == 0
    assert len(_echelon([[1, 2], [2, 4]], 2)) == 1
    assert len(_echelon([[1, 0], [0, 1], [1, 1]], 2)) == 2
    assert len(_echelon([[Fr(1, 2), 1], [0, Fr(1, 3)]], 2)) == 2
