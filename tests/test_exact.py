"""Substrate tests: integer polynomials, rational functions, derivatives at
q = 1, and the exact linear solver.

Everything is compared with == on Fractions/IntPolys; there is no tolerance
anywhere in this file.
"""
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

import qrationals
from qrationals import exact
from qrationals.exact import (
    IntPoly,
    PoleAtOneError,
    RatFunc,
    SingularMatrixError,
    ZeroDenominatorError,
    _taylor_at_one,
    derivative_at_one,
    jets_at_one,
    matrix_rank_exact,
    poly_to_json_list,
    rat_to_str,
    solve_linear_exact,
)
from oracles import poly_mul


def derivative(p: IntPoly) -> IntPoly:
    """p′, coefficient by coefficient."""
    return IntPoly(i * c for i, c in enumerate(p.coeffs) if i > 0)


def derivative_at_one_quotient(rf: RatFunc, k: int):
    """Oracle for derivative_at_one: differentiate n/d k times by the
    symbolic quotient rule, (n′d − nd′)/d², on exact polynomials, then
    evaluate at q = 1.  Quadratic in degree; independent of the series
    method it checks."""
    n, d = rf.num, rf.den
    for _ in range(k):
        n, d = (poly_mul(derivative(n), d) - poly_mul(n, derivative(d)),
                poly_mul(d, d))
    return Fr(n(1), d(1))


polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=6))
nonzero_polys = polys.filter(lambda p: not p.is_zero)
rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def test_all_lists_what_the_package_reexports():
    reexported = {name for name in qrationals.__all__
                  if getattr(exact, name, None) is getattr(qrationals, name)}
    assert reexported == set(exact.__all__)


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
    assert (a + b)(x) == a(x) + b(x)


@given(polys, st.integers(0, 4))
def test_poly_shift_unshift_round_trip(p, k):
    assert p.shift(k).unshift(k) == p


def test_poly_unshift_requires_divisibility():
    with pytest.raises(ValueError):
        IntPoly([1, 1]).unshift(1)


@given(polys, st.integers(0, 5))
def test_shifted_coeff_is_taylor_coefficient_at_one(p, j):
    """_taylor_at_one(p, j) must end in the h^j coefficient of p(1 + h) and
    list the lower ones before it."""
    composed, power = IntPoly(), IntPoly.const(1)
    for c in p.coeffs:  # power = (1 + h)^i
        composed = composed + poly_mul(IntPoly.const(c), power)
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
    m = IntPoly.const(-scale if flip else scale).shift(k)
    assert RatFunc(poly_mul(rf.num, m), poly_mul(rf.den, m)) == rf


def test_pole_detection():
    rf = RatFunc(IntPoly([1]), IntPoly([-1, 1]))  # 1/(q-1)
    with pytest.raises(PoleAtOneError):
        rf.value_at_one()
    with pytest.raises(PoleAtOneError):
        derivative_at_one(rf, 1)


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
def test_jets_match_quotient_rule_derivatives(n, d, k):
    rf = RatFunc(n, d)
    if rf.den(1) == 0:
        with pytest.raises(PoleAtOneError):
            jets_at_one(rf, k)
        return
    jets = jets_at_one(rf, k)
    assert jets == [derivative_at_one_quotient(rf, j) for j in range(k + 1)]
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


# -- exact linear algebra --------------------------------------------------

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
    A, x = Ax
    y = [sum(row[j] * x[j] for j in range(len(x))) for row in A]
    try:
        got = solve_linear_exact(A, y)
    except SingularMatrixError as exc:
        assert matrix_rank_exact(A) == exc.rank < len(A)
    else:
        assert got == list(x)


def test_solver_handles_zero_leading_pivots():
    # forces both a row swap and a column swap
    A = [[0, 0, 1], [0, 2, 0], [3, 0, 0]]
    assert solve_linear_exact(A, [1, 2, 3]) == [1, 1, 1]


def test_solver_reports_rank_on_singular_input():
    with pytest.raises(SingularMatrixError) as exc:
        solve_linear_exact([[1, 2], [2, 4]], [1, 2])
    assert exc.value.rank == 1 and exc.value.size == 2
    # an inconsistent right-hand side raises rather than widening the rank
    with pytest.raises(SingularMatrixError) as exc:
        solve_linear_exact([[1, 2], [2, 4]], [1, 3])
    assert exc.value.rank == 1


def test_solver_validates_shapes():
    with pytest.raises(ValueError):
        solve_linear_exact([[1, 2]], [1])
    with pytest.raises(ValueError):
        solve_linear_exact([[1]], [1, 2])


def test_matrix_rank():
    assert matrix_rank_exact([]) == 0
    assert matrix_rank_exact([[0, 0]]) == 0
    assert matrix_rank_exact([[1, 2], [2, 4]]) == 1
    assert matrix_rank_exact([[1, 0], [0, 1], [1, 1]]) == 2
    assert matrix_rank_exact([[Fr(1, 2), 1], [0, Fr(1, 3)]]) == 2
