"""Independent cross-checks against sympy.

Every core quantity — the canonical polynomial pairs, the derivatives at
q = 1, Bernoulli numbers and polynomials, the double lattice sums, the exact
linear solver and rank, and the coprimality of every built pair — is
recomputed here through a separate computer-algebra path and compared
exactly.  Nothing in this module
reuses the package's arithmetic beyond the objects under test.
"""
import math
import random
from fractions import Fraction as Fr

import sympy as sp
from hypothesis import given, settings, strategies as st

from oracles import poly_mul
from qrationals.dedekind import bernoulli_number, bernoulli_poly, s_sum
from qrationals.exact import (
    IntPoly,
    derivative_at_one,
    matrix_rank_exact,
    solve_linear_exact,
)
from qrationals.qdeform import deform
from qrationals.sbtree import walk_qtree

q = sp.Symbol("q")

PROBES = [Fr(1, 2), Fr(2, 5), Fr(3, 8), Fr(5, 13), Fr(7, 5), Fr(5, 2), Fr(3)]


def _qint(n: int):
    return sum(q ** k for k in range(n))


def _cf(x: Fr) -> list[int]:
    terms = []
    while True:
        f = math.floor(x)
        terms.append(f)
        x = x - f
        if x == 0:
            return terms
        x = 1 / x


def _cas_pair(x: Fr):
    """Canonical (num, den) through sympy: descend the continued fraction
    with alternating q- and q^{-1}-integer steps, then clear and normalize."""
    terms = _cf(Fr(x))
    N = D = None
    for i in reversed(range(len(terms))):
        ai = terms[i]
        if N is None:
            if i % 2 == 0:
                N, D = _qint(ai), sp.Integer(1)
            else:
                assert ai > 0
                N, D = _qint(ai), q ** (ai - 1)
        elif i % 2 == 0:
            N, D = sp.expand(_qint(ai) * N + q ** ai * D), N
        else:
            N, D = sp.expand(_qint(ai) * q * N + D), sp.expand(q ** ai * N)
    num, den = sp.fraction(sp.together(sp.cancel(N / D)))
    if den.subs(q, 1) < 0:
        num, den = -num, -den
    return sp.expand(num), sp.expand(den)


def _ascending_coeffs(expr) -> list[int]:
    return [int(c) for c in sp.Poly(expr, q).all_coeffs()[::-1]]


def test_polynomial_pairs_match_cas():
    for x in PROBES:
        num, den = _cas_pair(x)
        rf = deform(x).deform
        assert _ascending_coeffs(num) == list(rf.num.coeffs), x
        assert _ascending_coeffs(den) == list(rf.den.coeffs), x


def test_derivatives_match_cas():
    for x in PROBES:
        num, den = _cas_pair(x)
        expr = num / den
        rf = deform(x).deform
        for order in (1, 2):
            want = sp.diff(expr, q, order).subs(q, 1)
            assert want == sp.Rational(derivative_at_one(rf, order)), (x, order)


def test_known_derivative_values_via_cas_only():
    """Anchor the frozen 2/5 values without touching the package at all."""
    num, den = _cas_pair(Fr(2, 5))
    expr = num / den
    assert sp.diff(expr, q, 1).subs(q, 1) == sp.Rational(9, 25)
    assert sp.diff(expr, q, 2).subs(q, 1) == sp.Rational(-44, 125)


def test_bernoulli_numbers_match_cas():
    # evaluate the CAS polynomial at 0: sympy's bare bernoulli(1) follows the
    # +1/2 convention since 1.12, while B_n(0) always gives B_1 = -1/2
    for i in range(13):
        assert sp.bernoulli(i, 0) == sp.Rational(bernoulli_number(i))


def test_bernoulli_polynomials_match_cas():
    for i in (1, 2, 3, 4, 6):
        for x in (Fr(1, 3), Fr(1, 2), Fr(7, 5), Fr(-2, 7)):
            assert sp.bernoulli(i, sp.Rational(x)) == sp.Rational(bernoulli_poly(i, x))


def test_lattice_sums_match_cas():
    def cas_s(i, j, a, b):
        total = sp.Rational(0)
        for n in range(1, b):
            x1 = sp.Rational(n, b)
            x2 = sp.Rational(a * n, b)
            total += (sp.bernoulli(i, x1 - sp.floor(x1))
                      * sp.bernoulli(j, x2 - sp.floor(x2)))
        return total

    for (i, j, a, b) in ((1, 3, 2, 5), (1, 3, 5, 13), (2, 2, 3, 7), (3, 1, 4, 9)):
        assert cas_s(i, j, a, b) == sp.Rational(s_sum(i, j, a, b)), (i, j, a, b)
    assert cas_s(1, 3, 2, 5) == sp.Rational(-3, 625)
    assert cas_s(1, 3, 5, 13) == sp.Rational(-15, 2197)


def test_linear_solver_matches_cas():
    rng = random.Random(7)
    n = 5
    A = [[Fr(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
         for _ in range(n)]
    rhs = [Fr(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(n)]
    assert matrix_rank_exact(A) == n
    got = solve_linear_exact(A, rhs)
    M = sp.Matrix([[sp.Rational(entry) for entry in row] for row in A])
    want = M.solve(sp.Matrix([sp.Rational(v) for v in rhs]))
    assert [sp.Rational(v) for v in got] == list(want)


def _fractions(n: int):
    return st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                    min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5), st.data())
def test_matrix_rank_matches_cas(rows, cols, k, data):
    """A rows×k times k×cols product has rank at most k, so small k gives
    rank-deficient matrices of every shape."""
    L = [data.draw(_fractions(k)) for _ in range(rows)]
    R = [data.draw(_fractions(cols)) for _ in range(k)]
    A = [[sum((L[i][t] * R[t][j] for t in range(k)), Fr(0)) for j in range(cols)]
         for i in range(rows)]
    want = sp.Matrix(rows, cols, [sp.Rational(v) for row in A for v in row]).rank()
    assert matrix_rank_exact(A) == want


def _poly(p: IntPoly) -> sp.Poly:
    return sp.Poly.from_list(p.coeffs[::-1], q, domain=sp.ZZ)


int_polys = st.lists(st.integers(-6, 6), max_size=5).map(IntPoly)


@given(int_polys, int_polys)
def test_oracle_product_matches_cas(a, b):
    """The test-side product that the literal oracles multiply with."""
    assert _poly(poly_mul(a, b)) == _poly(a) * _poly(b)


def _assert_coprime(rf, x):
    """num and den coprime over ℤ[q] (sympy's gcd is ±1), integer content 1
    and den(1) > 0: RatFunc clears only monomial factors, so a pair built
    with any other common factor would keep it."""
    assert sp.gcd(_poly(rf.num), _poly(rf.den)).as_expr() in (1, -1), x
    assert math.gcd(*rf.num.coeffs, *rf.den.coeffs) == 1, x
    assert rf.den(1) > 0, x


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2000).flatmap(
    lambda b: st.tuples(st.integers(-3 * b, 3 * b), st.just(b))))
def test_deformations_are_coprime(ab):
    """Continued-fraction towers, negative heads and integers included."""
    x = Fr(*ab)
    _assert_coprime(deform(x).deform, x)


def test_tree_nodes_are_coprime():
    """Weighted mediants, every node of three windows to depth 7."""
    seen = 0
    for start in (-2, 0, 3):
        for stack in walk_qtree(start, 7):
            node = stack[-1].node
            _assert_coprime(node.deform, node.value)
            seen += 1
    assert seen == 3 * 255
