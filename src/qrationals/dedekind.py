"""Bernoulli numbers and polynomials, periodic Bernoulli functions, the
integer-exact kernel s_sum for the generalized Dedekind sums s_{i,j}, their
h-normalization, the two-index reciprocity formula, and an identity battery.

s_sum has two paths.  s_{1,3}, the one sum that the closed forms, the fit
and the lineage corrections need, takes O(log b) steps of Apostol's
reciprocity law 4·(a·b³·s(a, b) + b·a³·s(b, a)) = (5a²b² − a⁴ − b⁴ − 3)/30,
as the integer recurrence u(a, b) = (a·b·(5a²b² − a⁴ − b⁴ − 3) −
b²·u(b mod a, a))/a² on u = 120·b⁴·s, folded bottom-up over the Euclid
chain of (a, b), in the one integer kernel _s13_cleared.  Every other
(i, j) is one O(b) lattice loop over cleared Bernoulli polynomials
(_s_loop).

Conventions (pinned by the test suite):
  - B_1 = −1/2 (so B̄_1(a n/b) matches the bracket's −1/2 offset).
  - Periodic functions take B_i of the fractional part, so B̄_i(integer) = B_i.
  - s_sum is the exclusive lattice sum Σ_{n=1}^{b−1}.
  - h uses the inclusive completion: h_{i,j} = (−1)^{i+j}/(i!j!) ·
    (s_{i,j} + (1−d_{i,j})·B_i·B_j) with d_{i,j} = 1 iff i = 1 or j = 1.
    Equivalently, the sum in h runs to n = b and the d-term subtracts the
    completion exactly when a first-order factor is present.  This is the
    unique normalization consistent with h_{i,0} = (B_i/i!)·b^{1−i} and with
    the reciprocity formula below.
"""
from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from functools import lru_cache

from .exact import Rat, rat_to_str

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "s_sum",
    "h_val",
    "reciprocity_residual",
    "check_identities",
    "reciprocity_sweep",
    "battery_sweep",
]

# Largest Bernoulli index accepted.  `qrat dedekind s|h i j a b` hands i and j
# straight to s_sum, and bernoulli_number's recurrence grows about cubically
# with the index (0.4 ms at 12, 21 ms at 100, 7.6 s at 1000, from an empty
# cache, on a 2-core host), before the lattice loop has i + 1 big-integer
# Horner steps per term.  No package sweep reads an index above 4 (the
# battery's weight, and h_{4,0} in the (4, 1) reciprocity sweep); 12 lets the
# CLI and the tests reach B_12 = −691/2730.
BERNOULLI_BOUND = 12
# total index weight i + j of the identity battery
BATTERY_WEIGHT = 4
# `s_sum`'s cache bound, above the 52 829 entries one `qrat check --scale 2`
# process leaves.  `bernoulli_number` needs none: it takes at most
# BERNOULLI_BOUND + 1 indices.
S_SUM_CACHE_SIZE = 65536


@lru_cache(maxsize=None)
def bernoulli_number(i: int) -> Rat:
    """B_i with the B_1 = −1/2 convention, by the defining recurrence, for
    0 ≤ i ≤ BERNOULLI_BOUND (_check_index)."""
    _check_index(i)
    if i == 0:
        return Fraction(1)
    # Σ_{k=0}^{m} C(m+1, k) B_k = 0 for m ≥ 1, solved for B_m
    total = sum(math.comb(i + 1, k) * bernoulli_number(k) for k in range(i))
    return -total / (i + 1)


def bernoulli_poly(i: int, x: Rat) -> Rat:
    """B_i(x) = Σ_k C(i,k)·B_k·x^{i−k}, exactly: the cleared coefficients of
    B_i(r/b) at x = r/b, one Horner pass and one division."""
    x = Fraction(x)
    c, d = _cleared_bernoulli(i, x.denominator)
    u = 0
    for ck in c:
        u = u * x.numerator + ck
    return Fraction(u, d)


@lru_cache
def periodic_bernoulli(i: int, x: Rat) -> Rat:
    """B_i of the fractional part of x.  No package code calls it: the tests
    pin it, and perfbench's cache reset still names it, so it keeps
    lru_cache's default bound of 128 entries."""
    x = Fraction(x)
    return bernoulli_poly(i, x - math.floor(x))


def _check_index(i: int) -> None:
    """Reject a Bernoulli index outside 0…BERNOULLI_BOUND."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    if i > BERNOULLI_BOUND:
        raise ValueError(f"index {i} exceeds the configured bound {BERNOULLI_BOUND}")


def _cleared_bernoulli(i: int, b: int) -> tuple[list[int], int]:
    """Integers c (highest power first) and d with Σ_k c_k·r^{i−k} = d·B_i(r/b):
    the integer row of B_i (_bernoulli_row) with entry k scaled by b^k, over
    d = D·b^i."""
    row, d = _bernoulli_row(i)
    return [c * b ** k for k, c in enumerate(row)], d * b ** i


@lru_cache(maxsize=None)
def _bernoulli_row(i: int) -> tuple[tuple[int, ...], int]:
    """(C(i, k)·D·B_k for k = 0…i, D), D the lcm of the denominators of
    B_0…B_i: the part of _cleared_bernoulli that depends on i alone, built
    once per index (at most BERNOULLI_BOUND + 1 entries)."""
    _check_index(i)
    row = [bernoulli_number(k) for k in range(i + 1)]
    d = math.lcm(*(t.denominator for t in row))
    return tuple(math.comb(i, k) * t.numerator * (d // t.denominator)
                 for k, t in enumerate(row)), d


@lru_cache(maxsize=S_SUM_CACHE_SIZE)
def s_sum(i: int, j: int, a: int, b: int) -> Rat:
    """Σ_{n=1}^{b−1} B̄_i(n/b)·B̄_j(a·n/b) (exclusive; 0 when b = 1).

    Both indices must lie in 0…BERNOULLI_BOUND and b ≥ 1, even when the sum
    is empty.  The sum depends on a only mod b, so an a outside [0, b) reads
    the cached sum at a mod b, and each (i, j, a mod b, b) is computed once.
    Every (i, j) but (1, 3) is one O(b) pass (_s_loop).

    s = s_{1,3}, the lattice term of the second derivative, takes O(log b)
    integer steps instead.  The distribution relation of B̄_1 gives
    s(a, b) = s(a/g, b/g) with g = gcd(a, b).  For coprime a, b ≥ 1,
    Apostol's reciprocity law for odd p = 3 (Duke Math. J. 17, 1950, Thm 1)
    reads

        4·(a·b³·s(a, b) + b·a³·s(b, a)) = (5a²b² − a⁴ − b⁴ − 3)/30.

    On the integers u(a, b) = 120·b⁴·s(a, b) (4b⁴·s is already one: the
    factors have denominators 2b and 2b³) it becomes the exact division

        u(a, b) = (a·b·(5a²b² − a⁴ − b⁴ − 3) − b²·u(b mod a, a)) / a²,

    with u(·, 1) = 0 at the bottom of the Euclid chain of (a, b).  The chain
    is recorded and folded bottom-up, so every intermediate u is the value
    at its own pair, O(digits of b) in size.  That descent is one integer
    kernel, _s13_cleared(a, b) = 120·b⁴·s(a, b); this path is the Fraction
    u/(120·b⁴) over it, and closedforms._term, the non-cubic part of
    d2_closed and of the order-5 lineage correction, reads u directly."""
    if b < 1:
        raise ValueError("modulus must be >= 1")
    _check_index(i)
    _check_index(j)
    if b == 1:
        return Fraction(0)
    if not 0 <= a < b:
        return s_sum(i, j, a % b, b)
    if (i, j) == (1, 3):
        return Fraction(_s13_cleared(a, b), 120 * b ** 4)
    return _s_loop(i, j, a, b)


def _s_loop(i: int, j: int, a: int, b: int) -> Rat:
    """s_sum's O(b) lattice loop, Σ_{n=1}^{b−1} B_i(n/b)·B_j(r/b) with
    r = a·n mod b, for b ≥ 1: the factors' cleared integer polynomials
    (_cleared_bernoulli), one Horner pass each per n, and one division at
    the end."""
    ci, di = _cleared_bernoulli(i, b)
    cj, dj = _cleared_bernoulli(j, b)
    total = 0
    for n in range(1, b):
        r = a * n % b
        u = v = 0
        for c in ci:
            u = u * n + c
        for c in cj:
            v = v * r + c
        total += u * v
    return Fraction(total, di * dj)


def _s13_cleared(a: int, b: int, memo: dict | None = None) -> int:
    """u = 120·b⁴·s_{1,3}(a, b), an integer, for any a and b ≥ 1, by the
    Euclid descent in s_sum's docstring: the one descent loop that s_sum's
    (1, 3) path, the closed forms and the lineage correction share.  A
    remainder in its exact division would be a bug, so it raises.

    memo, if given, maps reduced pairs (a, b), b > 1, to their u: the chain
    stops at the first pair in it, and the fold stores every pair it
    computes, so calls whose chains share tails (the identity sweep's tree
    nodes, each one's tail (b mod a)/a a shallower node) fold each pair
    once.  The caller owns it and its lifetime."""
    g = math.gcd(a, b)
    top = b // g
    a, b = a // g % top, top
    chain = []
    while b > 1 and (memo is None or (a, b) not in memo):
        chain.append((a, b))
        a, b = b % a, a
    u = memo[a, b] if b > 1 else 0
    for a, b in reversed(chain):
        u, rem = divmod(a * b * (5 * a * a * b * b - a ** 4 - b ** 4 - 3) - b * b * u, a * a)
        if rem:
            raise ArithmeticError(f"reciprocity left a remainder at ({a}, {b})")
        if memo is not None:
            memo[a, b] = u
    return u * g ** 4


def _s_inclusive(i: int, j: int, a: int, b: int) -> Rat:
    """Exclusive sum plus the n = b completion term B_i·B_j (the sum
    first, so that a bad index or modulus fails there)."""
    return s_sum(i, j, a, b) + bernoulli_number(i) * bernoulli_number(j)


def h_val(i: int, j: int, a: int, b: int) -> Rat:
    """(−1)^{i+j}/(i!j!) · (s_{i,j}(a,b) + (1 − d_{i,j})·B_i·B_j),
    d_{i,j} = 1 iff i = 1 or j = 1."""
    s = s_sum(i, j, a, b) if i == 1 or j == 1 else _s_inclusive(i, j, a, b)
    return (-1) ** (i + j) * s / (math.factorial(i) * math.factorial(j))


def reciprocity_residual(i: int, j: int, p: int, q: int) -> Rat:
    """Left minus right side of the two-index reciprocity formula; zero
    means the formula holds for (i, j, p, q).

        −q^{i−1} Σ_{u=0}^{j} C(i−1+u, i−1)·h_{i−1+u, j−u}(p, q)·(−p)^u
        + p^{j−1} Σ_{v=0}^{i} C(j−1+v, j−1)·h_{j−1+v, i−v}(q, p)·(−q)^v
        = (−1)^{j−1}·[ B_{i−1}B_j/((i−1)!·j!)·q + B_i·B_{j−1}/(i!·(j−1)!)·p ]

    As written it does not hold for every (i, j).  On the grid i, j ≤ 5,
    coprime p, q ≤ 8, the residual vanishes at every pair for every odd
    i + j, and for an even i + j only when both indices are at least 3:
    (1, 1), (1, 3), (1, 5), (2, 2), (2, 4), (3, 1), (4, 2) and (5, 1) are
    nonzero at every pair.  reciprocity_sweep reads (4, 1);
    test_reciprocity_residual_is_the_literal_formula pins the failing set
    for i, j ≤ 4 against the formula written term by term.
    """
    if math.gcd(p, q) != 1:
        raise ValueError(f"{p} and {q} must be coprime")
    if i < 1 or j < 1:
        raise ValueError("indices must be >= 1")

    def half(i, j, p, q):
        """q^{i−1}·Σ_{u=0}^{j} C(i−1+u, i−1)·h_{i−1+u, j−u}(p, q)·(−p)^u"""
        return q ** (i - 1) * sum(math.comb(i - 1 + u, i - 1) * h_val(i - 1 + u, j - u, p, q)
                                  * (-p) ** u for u in range(j + 1))

    def R(i, j):
        """B_{i−1}·B_j/((i−1)!·j!)"""
        return (bernoulli_number(i - 1) * bernoulli_number(j)
                / (math.factorial(i - 1) * math.factorial(j)))

    return half(j, i, q, p) - half(i, j, p, q) - (-1) ** (j - 1) * (R(i, j) * q + R(j, i) * p)


# --------------------------------------------------------------------------
# Identity battery
# --------------------------------------------------------------------------

def check_identities(p: int, q: int) -> list[dict]:
    """Verify the identity battery at coprime (p, q): even-index boundary
    values, the parity law, shift periodicity, and the three-term duplication
    law: parity and shift up to total index weight BATTERY_WEIGHT, the rest
    at it.  Returns one record per identity instance with its residual and a
    pass flag.

    The shift row reads h(p + q, q) and h(p, q) from one cached sum, since
    s_sum reduces a mod b first, so it checks that reduction, not a second
    loop.  The parity row (residues r and q − r) and the duplication row
    (moduli q and 2q) compare separate loops.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if math.gcd(p, q) != 1:
        raise ValueError(f"{p} and {q} must be coprime")
    rows = []

    def add(name, params, residual):
        rows.append({"identity": name, "params": params,
                     "residual": residual, "ok": residual == 0})

    # boundary values: h_{i,0} = h_{0,i} = (B_i/i!)·q^{1−i} for even i
    for i in range(2, BATTERY_WEIGHT + 1, 2):
        want = bernoulli_number(i) / math.factorial(i) * Fraction(q) ** (1 - i)
        add("even_boundary", (i, 0, p, q), h_val(i, 0, p, q) - want)
        add("even_boundary", (0, i, p, q), h_val(0, i, p, q) - want)

    # parity law h(−p, q) = (−1)^j h(p, q), uniform in (i, j)
    for i in range(0, BATTERY_WEIGHT + 1):
        for j in range(0, BATTERY_WEIGHT + 1 - i):
            h = h_val(i, j, p, q)
            add("parity", (i, j, p, q), h_val(i, j, -p, q) - (-1) ** j * h)
            add("shift", (i, j, p, q), h_val(i, j, p + q, q) - h)

    # three-term duplication law on inclusive sums
    for i in range(0, BATTERY_WEIGHT + 1):
        j = BATTERY_WEIGHT - i
        lhs = (_s_inclusive(i, j, p, 2 * q) + _s_inclusive(i, j, p + q, 2 * q)
               + Fraction(2) ** (1 - j) * _s_inclusive(i, j, 2 * p, q))
        rhs = (2 + Fraction(2) ** (2 - i - j)) * _s_inclusive(i, j, p, q)
        add("duplication", (i, j, p, q), lhs - rhs)

    return rows


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------

def reciprocity_sweep(bound: int) -> list[tuple[int, int]]:
    """Coprime pairs p, q ≤ bound where the (4,1) reciprocity residual is
    nonzero.  Empty list = formula verified."""
    return [(p, q) for p in range(1, bound + 1) for q in range(1, bound + 1)
            if math.gcd(p, q) == 1 and reciprocity_residual(4, 1, p, q) != 0]


def battery_sweep(bound: int) -> list[dict]:
    """Every failing identity-battery record over coprime p, q ≤ bound
    (empty = all identities hold)."""
    bad = []
    for p in range(1, bound + 1):
        for q in range(1, bound + 1):
            if math.gcd(p, q) != 1:
                continue
            bad.extend(row for row in check_identities(p, q) if not row["ok"])
    return bad


def battery_report_csv(p: int, q: int) -> str:
    """Identity battery at a single (p, q) as CSV rows
    (identity, params, residual, pass)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["identity", "params", "residual", "pass"])
    for row in check_identities(p, q):
        writer.writerow([row["identity"], " ".join(map(str, row["params"])),
                         rat_to_str(row["residual"]), int(row["ok"])])
    return buf.getvalue()
