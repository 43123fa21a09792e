"""Bernoulli numbers and polynomials, periodic Bernoulli functions, the
integer-exact kernel s_sum for the generalized Dedekind sums s_{i,j}, their
h-normalization, the two-index reciprocity formula, and an identity battery.

s_sum has two paths.  s_{1,3}, the one sum that the closed forms, the fit
and the lineage corrections need, takes O(log b) steps of Apostol's
reciprocity law 4·(a·b³·s(a, b) + b·a³·s(b, a)) = (5a²b² − a⁴ − b⁴ − 3)/30,
as the integer recurrence u(a, b) = (a·b·(5a²b² − a⁴ − b⁴ − 3) −
b²·u(b mod a, a))/a² on u = 120·b⁴·s, folded bottom-up over the Euclid
chain of (a, b), in the one integer kernel _s13_cleared.  Every other
(i, j) is one O(b) lattice loop over cleared Bernoulli polynomials.

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

BERNOULLI_BOUND = 12
# total index weight i + j of the identity battery
BATTERY_WEIGHT = 4
# `s_sum`'s cache bound, above the 52 824 entries one `qrat check --scale 2`
# process leaves.  `bernoulli_number` needs none: the package asks it for at
# most BERNOULLI_BOUND + 1 indices.
S_SUM_CACHE_SIZE = 65536


@lru_cache(maxsize=None)
def bernoulli_number(i: int) -> Rat:
    """B_i with the B_1 = −1/2 convention, by the defining recurrence."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    if i == 0:
        return Fraction(1)
    # Σ_{k=0}^{m} C(m+1, k) B_k = 0 for m ≥ 1, solved for B_m
    total = sum(Fraction(math.comb(i + 1, k)) * bernoulli_number(k) for k in range(i))
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


@lru_cache(maxsize=None)
def periodic_bernoulli(i: int, x: Rat) -> Rat:
    """B_i of the fractional part of x.  No package code calls it: the tests
    pin it, and perfbench's cache reset still names it."""
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
    the integer row C(i, k)·D·B_k, D the lcm of its denominators, scaled by
    b^k, over d = D·b^i."""
    _check_index(i)
    row = [math.comb(i, k) * bernoulli_number(k) for k in range(i + 1)]
    d = math.lcm(*(t.denominator for t in row))
    return [t.numerator * (d // t.denominator) * b ** k for k, t in enumerate(row)], d * b ** i


@lru_cache(maxsize=S_SUM_CACHE_SIZE)
def s_sum(i: int, j: int, a: int, b: int) -> Rat:
    """Σ_{n=1}^{b−1} B̄_i(n/b)·B̄_j(a·n/b) (exclusive; 0 when b = 1).

    Both indices must lie in 0…BERNOULLI_BOUND and b ≥ 1, even when the sum
    is empty.  Every (i, j) but (1, 3) is one O(b) pass: the factors are
    B_i(n/b) and B_j(r/b) with r = a·n mod b, so cleared integer polynomials
    and one division at the end give it.

    s = s_{1,3}, the lattice term of the second derivative, takes O(log b)
    integer steps instead.  It depends on a only mod b, and the distribution
    relation of B̄_1 gives s(a, b) = s(a/g, b/g) with g = gcd(a, b).  For
    coprime a, b ≥ 1, Apostol's reciprocity law for odd p = 3 (Duke Math. J.
    17, 1950, Thm 1) reads

        4·(a·b³·s(a, b) + b·a³·s(b, a)) = (5a²b² − a⁴ − b⁴ − 3)/30.

    On the integers u(a, b) = 120·b⁴·s(a, b) (4b⁴·s is already one: the
    factors have denominators 2b and 2b³) it becomes the exact division

        u(a, b) = (a·b·(5a²b² − a⁴ − b⁴ − 3) − b²·u(b mod a, a)) / a²,

    with u(·, 1) = 0 at the bottom of the Euclid chain of (a, b).  The chain
    is recorded and folded bottom-up, so every intermediate u is the value
    at its own pair, O(digits of b) in size.  That descent is one integer
    kernel, _s13_cleared(a, b) = 120·b⁴·s(a, b); this path is the Fraction
    u/(120·b⁴) over it, and closedforms.d2_closed and the order-5 lineage
    correction (sbtree._term) read u directly."""
    if b < 1:
        raise ValueError("modulus must be >= 1")
    _check_index(i)
    _check_index(j)
    if b == 1:
        return Fraction(0)
    if (i, j) == (1, 3):
        return Fraction(_s13_cleared(a, b), 120 * b ** 4)
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


def _s13_cleared(a: int, b: int) -> int:
    """u = 120·b⁴·s_{1,3}(a, b), an integer, for any a and b ≥ 1, by the
    Euclid descent in s_sum's docstring: the one descent loop that s_sum's
    (1, 3) path, the closed forms and the lineage correction share.  A
    remainder in its exact division would be a bug, so it raises."""
    g = math.gcd(a, b)
    top = b // g
    a, b = a // g % top, top
    chain = []
    while b > 1:
        chain.append((a, b))
        a, b = b % a, a
    u = 0
    for a, b in reversed(chain):
        u, rem = divmod(a * b * (5 * a * a * b * b - a ** 4 - b ** 4 - 3) - b * b * u, a * a)
        if rem:
            raise ArithmeticError(f"reciprocity left a remainder at ({a}, {b})")
    return u * g ** 4


def _s_inclusive(i: int, j: int, a: int, b: int) -> Rat:
    """Exclusive sum plus the n = b completion term B_i·B_j."""
    return s_sum(i, j, a, b) + bernoulli_number(i) * bernoulli_number(j)


def h_val(i: int, j: int, a: int, b: int) -> Rat:
    """(−1)^{i+j}/(i!j!) · (s_{i,j}(a,b) + (1 − d_{i,j})·B_i·B_j),
    d_{i,j} = 1 iff i = 1 or j = 1."""
    s = s_sum(i, j, a, b)  # first, so that a bad index fails there
    d = 1 if (i == 1 or j == 1) else 0
    return (Fraction((-1) ** (i + j), math.factorial(i) * math.factorial(j))
            * (s + (1 - d) * bernoulli_number(i) * bernoulli_number(j)))


def reciprocity_residual(i: int, j: int, p: int, q: int) -> Rat:
    """Left minus right side of the two-index reciprocity formula; zero
    means the formula holds for (i, j, p, q).

        −q^{i−1} Σ_{u=0}^{j} C(i−1+u, i−1)·h_{i−1+u, j−u}(p, q)·(−p)^u
        + p^{j−1} Σ_{v=0}^{i} C(j−1+v, j−1)·h_{j−1+v, i−v}(q, p)·(−q)^v
        = (−1)^{j−1}·[ B_{i−1}B_j/((i−1)!·j!)·q + B_i·B_{j−1}/(i!·(j−1)!)·p ]
    """
    if math.gcd(p, q) != 1:
        raise ValueError(f"{p} and {q} must be coprime")
    if i < 1 or j < 1:
        raise ValueError("indices must be >= 1")
    lhs = Fraction(0)
    for u in range(0, j + 1):
        lhs += (-q ** (i - 1) * math.comb(i - 1 + u, i - 1)
                * h_val(i - 1 + u, j - u, p, q) * (-p) ** u)
    for v in range(0, i + 1):
        lhs += (p ** (j - 1) * math.comb(j - 1 + v, j - 1)
                * h_val(j - 1 + v, i - v, q, p) * (-q) ** v)
    B = bernoulli_number
    rhs = (B(i - 1) * B(j) / (math.factorial(i - 1) * math.factorial(j))
           * q * (-1) ** (j - 1)
           + B(i) * B(j - 1) / (math.factorial(i) * math.factorial(j - 1))
           * p * (-1) ** (j - 1))
    return lhs - rhs


# --------------------------------------------------------------------------
# Identity battery
# --------------------------------------------------------------------------

def check_identities(p: int, q: int) -> list[dict]:
    """Verify the identity battery at coprime (p, q): even-index boundary
    values, the parity law, shift periodicity, and the three-term duplication
    law: parity and shift up to total index weight BATTERY_WEIGHT, the rest
    at it.  Returns one record per identity instance with its residual and a
    pass flag.
    """
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
            add("parity", (i, j, p, q),
                h_val(i, j, -p, q) - (-1) ** j * h_val(i, j, p, q))
            add("shift", (i, j, p, q),
                h_val(i, j, p + q, q) - h_val(i, j, p, q))

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
