"""Bernoulli machinery, generalized Dedekind sums, reciprocity, the identity
battery, and the bridges back to the second-derivative lattice sum.

All numeric fixtures are exact rational pins; sweeps assert emptiness of the
failure lists.
"""
import csv
import io
import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    literal_battery,
    literal_bracket_weight_sum,
    literal_periodic_bernoulli,
    literal_reciprocity_residual,
    literal_s_sum,
    literal_zero_sum,
)
from qrationals import closedforms, dedekind
from qrationals.closedforms import bracket_weight_sum, bridge_mismatches
from qrationals.dedekind import (
    BERNOULLI_BOUND,
    _s13_cleared,
    _s_loop,
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


def test_bernoulli_number_takes_indices_0_to_the_bound():
    """Like bernoulli_poly and s_sum, bernoulli_number takes 0…BERNOULLI_BOUND
    and rejects an index past either end before any recurrence runs."""
    assert bernoulli_number(BERNOULLI_BOUND) == bernoulli_poly(BERNOULLI_BOUND, 0)
    with pytest.raises(ValueError, match=f"index {BERNOULLI_BOUND + 1} exceeds the "
                                         f"configured bound {BERNOULLI_BOUND}"):
        bernoulli_number(BERNOULLI_BOUND + 1)
    with pytest.raises(ValueError, match="index must be nonnegative"):
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


def test_periodic_bernoulli_cache_is_bounded():
    periodic_bernoulli.cache_clear()
    for n in range(1, 1001):
        periodic_bernoulli(1, Fr(1, n))
    info = periodic_bernoulli.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 1000


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


def test_s_loop_is_the_literal_sum():
    """s_sum's O(b) loop, on its own, is the defining sum for every index
    pair to 4, (1, 3) included, at every a in [−b, 2b] for b ≤ 12: coprime
    or not, and b = 1, where the sum is empty."""
    for b in range(1, 13):
        for a in range(-b, 2 * b + 1):
            for i in range(5):
                for j in range(5):
                    assert _s_loop(i, j, a, b) == literal_s_sum(i, j, a, b), (i, j, a, b)


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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 4).flatmap(lambda b: st.tuples(
    st.integers(-3 * b, 4 * b - 1).filter(lambda a: math.gcd(a, b) == 1), st.just(b))))
@example((1, 1))
@example((-23, 9))
@example((2, 5))
def test_s13_cleared_is_divisible_by_b(ab):
    """b divides u = 120·b⁴·s₁,₃(a, b) at coprime (a, b), b ≤ 10⁴ and
    −3b ≤ a < 4b: u ≡ 120·a³·Σ_{n<b} n⁴ = 4a³(b − 1)b(2b − 1)(3b² − 3b − 1)
    (mod b).  The identity sweep stores E₅/b on it (sbtree._identity_frame)."""
    a, b = ab
    assert _s13_cleared(a, b) % b == 0


def _euclid_chain(a: int, b: int) -> list[tuple[int, int]]:
    """The reduced pairs (a mod b, b), then each one's tail (b mod a, a),
    down to b = 1 exclusive, for coprime a, b: the pairs the descent folds."""
    a, chain = a % b, []
    while b > 1:
        chain.append((a, b))
        a, b = b % a, a
    return chain


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 10 ** 6).flatmap(lambda b: st.tuples(
           st.integers(-3 * b, 3 * b).filter(lambda a: math.gcd(a, b) == 1), st.just(b))),
           min_size=1, max_size=6),
       st.randoms(use_true_random=False))
@example([(5, 12), (2, 5), (7, 12)], random.Random(0))
def test_s13_cleared_with_a_memo_is_the_descent(pairs, rnd):
    """One memo shared across calls at coprime (a, b), b ≤ 10⁶, and their
    Euclid tails, in random order: each call returns the descent without a
    memo, and the memo ends holding exactly the pairs of their chains, each
    with its own u."""
    calls = [*pairs, *(pair for a, b in pairs for pair in _euclid_chain(a, b))]
    rnd.shuffle(calls)
    memo = {}
    for a, b in calls:
        assert _s13_cleared(a, b, memo) == _s13_cleared(a, b), (a, b)
    assert set(memo) == {pair for a, b in pairs for pair in _euclid_chain(a, b)}
    assert all(u == _s13_cleared(a, b) for (a, b), u in memo.items())


@given(st.integers(0, 4), st.integers(0, 4), coprime_pairs)
def test_s_sum_shift_periodicity(i, j, ab):
    """Both sides read the one cached sum at a mod b, so this checks s_sum's
    reduction of a, not a second loop."""
    a, b = ab
    assert s_sum(i, j, a + b, b) == s_sum(i, j, a, b)


def test_s_sum_runs_one_loop_per_residue(monkeypatch):
    """s_sum reads any a outside [0, b) from the sum at a mod b, so the 6b
    values of a in [−3b, 3b) run b loops in all, one per residue, and each
    value is the one at its residue."""
    loops = []
    monkeypatch.setattr(dedekind, "_s_loop", lambda *args: loops.append(args) or _s_loop(*args))
    s_sum.cache_clear()
    values = {a: s_sum(2, 2, a, 7) for a in range(-21, 21)}
    assert sorted(loops) == [(2, 2, r, 7) for r in range(7)]
    assert all(values[a] == values[a % 7] for a in values)


@given(st.integers(0, 4), st.integers(0, 4), coprime_pairs)
def test_s_sum_parity_law(i, j, ab):
    a, b = ab
    assert s_sum(i, j, -a, b) == Fr(-1) ** j * s_sum(i, j, a, b)


# -- h normalization -------------------------------------------------------

def test_h_fixtures():
    assert h_val(1, 1, 1, 3) == Fr(1, 18)  # the Dedekind sum s(1, 3)
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


def _off_at_2_2(s):
    """s with s_{2,2}(a, b) off by 1/b²: a seeded fault in the lattice sum."""
    return lambda i, j, a, b: s(i, j, a, b) + (Fr(1, b * b) if (i, j) == (2, 2) else 0)


def _lattice(monkeypatch, fault):
    """The s that the oracles read: the literal sum, with the fault seeded
    into it and into dedekind.s_sum when asked."""
    if not fault:
        return literal_s_sum
    monkeypatch.setattr(dedekind, "s_sum", _off_at_2_2(dedekind.s_sum))
    return _off_at_2_2(literal_s_sum)


@pytest.mark.parametrize("fault", [False, True])
def test_reciprocity_residual_is_the_literal_formula(monkeypatch, fault):
    """Every residual with 1 ≤ i, j ≤ 4 and coprime p, q ≤ 8 equals the
    formula written term by term over the literal h.  On this grid the
    formula fails, at every pair, exactly where i + j is even and an index
    is at most 2.  With s_sum and the oracle's s both off by 1/b² at
    (2, 2), the odd (i, j) whose sums read h_{2,2} fail too, with the
    oracle's residuals, and the sweep reports exactly the pairs where the
    oracle's (4, 1) residual is nonzero."""
    s = _lattice(monkeypatch, fault)
    pairs = [(p, q) for p in range(1, 9) for q in range(1, 9) if math.gcd(p, q) == 1]
    nonzero = set()
    for i in range(1, 5):
        for j in range(1, 5):
            for p, q in pairs:
                r = reciprocity_residual(i, j, p, q)
                assert r == literal_reciprocity_residual(i, j, p, q, s), (i, j, p, q)
                if r:
                    nonzero.add((i, j, p, q))
    failing = {(1, 1), (1, 3), (2, 2), (2, 4), (3, 1), (4, 2)}
    if fault:
        failing |= {(1, 4), (2, 3), (3, 2), (4, 1)}
    assert nonzero == {(i, j, p, q) for i, j in failing for p, q in pairs}
    assert reciprocity_sweep(8) == [pq for pq in pairs
                                    if literal_reciprocity_residual(4, 1, *pq, s)]


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


def test_check_identities_rejects_a_modulus_below_one():
    for q in (0, -3):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            check_identities(1, q)


def test_battery_sweep_is_empty():
    assert battery_sweep(8) == []


@pytest.mark.parametrize("fault", [False, True])
def test_battery_rows_are_the_literal_identities(monkeypatch, fault):
    """Every record of check_identities at coprime p, q with −6 ≤ p ≤ 6 and
    q ≤ 6 equals the identity written out over the literal h.  With s_sum
    and the oracle's s both off by 1/b² at (2, 2), the rows that read s_{2,2}
    fail with the oracle's residuals, and battery_sweep reports exactly the
    oracle's failing rows."""
    s = _lattice(monkeypatch, fault)
    failing = 0
    for p in range(-6, 7):
        for q in range(1, 7):
            if math.gcd(p, q) == 1:
                rows = check_identities(p, q)
                assert rows == literal_battery(p, q, s), (p, q)
                failing += sum(not r["ok"] for r in rows)
    assert failing == (0 if not fault else 47)
    assert battery_sweep(6) == [r for p in range(1, 7) for q in range(1, 7)
                                if math.gcd(p, q) == 1
                                for r in literal_battery(p, q, s) if not r["ok"]]


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
