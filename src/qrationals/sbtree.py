"""Stern–Brocot tree, its q-deformation via weighted mediants, lineage
extraction with polynomial weight tables, the Δ_i operator, and the Lagrange
coefficients of the order-m linear-dependence identity.

The weighted-mediant construction here never calls the continued-fraction
deformation; their bit-exact agreement is a verified equivalence, not a
dependency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    IntPoly,
    PoleAtOneError,
    Rat,
    RatFunc,
    derivative_at_one,
    poly_to_json_list,
)
from .qdeform import QRational, deform, to_cfrac, _path_from_terms, q_integer
from .dedekind import s_sum

__all__ = [
    "Lineage",
    "mediant",
    "weighted_mediant",
    "build_qtree",
    "lineage_extract",
    "delta",
    "lagrange_coefficients",
    "delta_identity_residual",
    "derivative_identity_residual",
    "identity_correction",
    "equivalence_mismatches",
    "identity_sweep",
    "lineage_to_json",
    "NonUnimodularError",
    "VanishingLineageError",
    "DegenerateWeightsError",
    "InsufficientDepthError",
]


class NonUnimodularError(ValueError):
    """Mediant requested for a pair that is not a tree edge (|αδ − βγ| ≠ 1)."""


class VanishingLineageError(ValueError):
    """Lagrange coefficients requested for a lineage whose first member is an
    integer (the linear-dependence identity requires a non-vanishing lineage)."""


class DegenerateWeightsError(ValueError):
    """A pairwise weight determinant f_i·g_n − f_n·g_i vanished, so a Lagrange
    denominator factor is zero."""


class InsufficientDepthError(ValueError):
    """Target is too shallow for the requested lineage order.

    Attributes:
        max_order: the largest order available at this node (depth + 2).
    """

    def __init__(self, requested: int, max_order: int):
        self.max_order = max_order
        super().__init__(
            f"order {requested} needs depth >= {requested - 2}; "
            f"maximum available order here is {max_order}"
        )


def mediant(x: Rat, y: Rat) -> Rat:
    """Farey sum (α+γ)/(β+δ) of a unimodular pair."""
    x, y = Fraction(x), Fraction(y)
    a, b = x.numerator, x.denominator
    c, d = y.numerator, y.denominator
    if abs(a * d - b * c) != 1:
        raise NonUnimodularError(f"{x} and {y} are not adjacent on the tree")
    return Fraction(a + c, b + d)


def weighted_mediant(left: RatFunc, right: RatFunc) -> RatFunc:
    """q-deformed mediant of two deformed neighbours (left value < right).

    The right pair is weighted by q^n with n = max(1, deg βL − deg δR + 1),
    the degree-gap rule that makes the tree reproduce the continued-fraction
    deformation exactly.
    """
    n = max(1, left.den.degree() - right.den.degree() + 1)
    return RatFunc._from_clean(left.num + right.num.shift(n),
                               left.den + right.den.shift(n))


def build_qtree(m: int, depth: int) -> list[QRational]:
    """All q-deformed tree nodes strictly between m and m+1, to the given
    depth, by the weighted-mediant recursion.  Nodes are returned sorted by
    (depth, value); polynomials are canonical pairs.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    out: list[QRational] = []

    def rec(lo_v: Fraction, lo_rf: RatFunc, hi_v: Fraction, hi_rf: RatFunc, d: int):
        if d > depth:
            return
        mid_v = Fraction(lo_v.numerator + hi_v.numerator,
                         lo_v.denominator + hi_v.denominator)
        mid_rf = weighted_mediant(lo_rf, hi_rf)
        path, _ = _path_from_terms(to_cfrac(mid_v).terms)
        out.append(QRational(value=mid_v, deform=mid_rf, depth=d, path=path))
        rec(lo_v, lo_rf, mid_v, mid_rf, d + 1)
        rec(mid_v, mid_rf, hi_v, hi_rf, d + 1)

    rec(Fraction(m), q_integer(m), Fraction(m + 1), q_integer(m + 1), 0)
    out.sort(key=lambda n: (n.depth, n.value))
    return out


# --------------------------------------------------------------------------
# Δ_i operator
# --------------------------------------------------------------------------

def delta(rf: RatFunc, i: int) -> Rat:
    """(α^{(i)}/β + (−1)^i · α·β^{(i)}/β^{i+1}) at q = 1.

    For i = 1 this equals the derivative of the quotient; for i ≥ 2 it is a
    representative-dependent combination (canonical pairs are used throughout
    this module).
    """
    if i < 1:
        raise ValueError("delta order must be >= 1")
    b1 = rf.den(1)
    if b1 == 0:
        raise PoleAtOneError("denominator vanishes at q = 1")
    a1 = rf.num(1)
    ai = rf.num.derivative(i)(1)
    bi = rf.den.derivative(i)(1)
    return Fraction(ai, b1) + Fraction((-1) ** i * a1 * bi, b1 ** (i + 1))


# --------------------------------------------------------------------------
# Lineages
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Lineage:
    """Ancestor chain a_1 ... a_m ending at the target, with polynomial
    weights 𝔉_n, 𝔊_n expressing each member in terms of members 1 and 2.

    zeta[k] / xi[k] hold ζ_n / ξ_n for n = k + 3 (empty for order 2).
    The reconstruction a_n = 𝔉_n·a_1 + 𝔊_n·a_2 holds exactly on the canonical
    polynomial pairs, numerators and denominators alike.
    """

    members: tuple[QRational, ...]
    zeta: tuple[int, ...]
    xi: tuple[int, ...]
    Fpoly: tuple[IntPoly, ...]
    Gpoly: tuple[IntPoly, ...]
    f: tuple[int, ...]
    g: tuple[int, ...]
    vanishing: bool

    @property
    def order(self) -> int:
        return len(self.members)


def _descent_chain(x: Fraction) -> list[dict]:
    """Mediant-descent walk to x from its integer window.

    Entry k holds the k-th mediant's value and the identities of its two
    parents: ("int", floor) / ("int", floor+1) for window endpoints, or
    ("m", j) for the j-th mediant.
    """
    path, _ = _path_from_terms(to_cfrac(x).terms)
    lo, hi = Fraction(math.floor(x)), Fraction(math.floor(x) + 1)
    lo_id, hi_id = ("int", lo), ("int", hi)
    chain: list[dict] = []
    cur = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
    chain.append({"value": cur, "parents": (lo_id, hi_id)})
    for ch in path[1:]:
        k = len(chain) - 1
        if ch == "L":
            hi, hi_id = chain[k]["value"], ("m", k)
        else:
            lo, lo_id = chain[k]["value"], ("m", k)
        cur = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        chain.append({"value": cur, "parents": (lo_id, hi_id)})
    return chain


def _id_value(pid, chain) -> Fraction:
    return pid[1] if pid[0] == "int" else chain[pid[1]]["value"]


def lineage_extract(x: Rat, m: int) -> Lineage:
    """Extract the order-m lineage of x.

    Members 2..m are the last m−1 mediants of the descent to x (each the
    deeper parent of the next); member 1 is the shallow parent of member 3.
    Weight recurrence: 𝔉_n = 𝔉_small + q^{ξ_n}·𝔉_big where {small, big} are
    the two parents {n−1, ζ_n} ordered by value (the q-power attaches to the
    greater), and ξ_n = max(1, deg b_small − deg b_big + 1) on the members'
    canonical denominator polynomials.
    """
    x = Fraction(x)
    if m < 2:
        raise ValueError("lineage order must be >= 2")
    node = deform(x)
    if node.depth < m - 2:
        raise InsufficientDepthError(requested=m, max_order=node.depth + 2)

    if m == 2:
        chain = _descent_chain(x) if node.depth >= 0 else []
        if len(chain) >= 2:
            parent = chain[-2]["value"]
        else:
            parent = Fraction(math.floor(x))  # depth-0 target: tie to the left
        members = (deform(parent), node)
        return Lineage(members=members, zeta=(), xi=(),
                       Fpoly=(IntPoly.const(1), IntPoly()),
                       Gpoly=(IntPoly(), IntPoly.const(1)),
                       f=(1, 0), g=(0, 1),
                       vanishing=parent.denominator == 1)

    chain = _descent_chain(x)
    d = len(chain) - 1
    k0 = d - m + 2  # chain index of member 2

    ent3 = chain[k0 + 1]
    loid, hiid = ent3["parents"]
    sh_id = hiid if loid == ("m", k0) else loid
    a1 = _id_value(sh_id, chain)

    values = [a1] + [chain[k0 + i]["value"] for i in range(m - 1)]

    zetas: dict[int, int] = {3: 1}
    for n in range(4, m + 1):
        ent = chain[k0 + n - 2]
        loid, hiid = ent["parents"]
        sh = hiid if loid == ("m", k0 + n - 3) else loid
        if sh[0] == "m" and sh[1] >= k0:
            zetas[n] = sh[1] - k0 + 2
        elif sh == sh_id:
            zetas[n] = 1
        else:
            raise ValueError(f"shallow parent of member {n} left the chain at {x}")

    members = tuple(deform(v) for v in values)
    F = {1: IntPoly.const(1), 2: IntPoly()}
    G = {1: IntPoly(), 2: IntPoly.const(1)}
    xis: dict[int, int] = {}
    for n in range(3, m + 1):
        i_deep, i_sh = n - 1, zetas[n]
        if values[i_deep - 1] > values[i_sh - 1]:
            big, small = i_deep, i_sh
        else:
            big, small = i_sh, i_deep
        gap = (members[small - 1].deform.den.degree()
               - members[big - 1].deform.den.degree() + 1)
        xis[n] = max(1, gap)
        F[n] = F[small] + F[big].shift(xis[n])
        G[n] = G[small] + G[big].shift(xis[n])
        # the weights must rebuild member n from members 1 and 2 exactly
        rn = F[n] * members[0].deform.num + G[n] * members[1].deform.num
        rd = F[n] * members[0].deform.den + G[n] * members[1].deform.den
        if rn != members[n - 1].deform.num or rd != members[n - 1].deform.den:
            raise ValueError(f"weight reconstruction failed for member {n} of {x}")

    return Lineage(
        members=members,
        zeta=tuple(zetas[n] for n in range(3, m + 1)),
        xi=tuple(xis[n] for n in range(3, m + 1)),
        Fpoly=tuple(F[n] for n in range(1, m + 1)),
        Gpoly=tuple(G[n] for n in range(1, m + 1)),
        f=tuple(F[n](1) for n in range(1, m + 1)),
        g=tuple(G[n](1) for n in range(1, m + 1)),
        vanishing=a1.denominator == 1,
    )


def lagrange_coefficients(lin: Lineage) -> tuple[Rat, ...]:
    """C_i = Π_{n<m, n≠i} (f_m·g_n − f_n·g_m)/(f_i·g_n − f_n·g_i), i < m.

    Only defined for non-vanishing lineages with pairwise independent weights.
    """
    if lin.vanishing:
        raise VanishingLineageError("lineage starts at an integer")
    m = lin.order
    f, g = lin.f, lin.g

    def w(i: int, n: int) -> int:
        return f[i - 1] * g[n - 1] - f[n - 1] * g[i - 1]

    out = []
    for i in range(1, m):
        num = den = 1
        for n in range(1, m):
            if n == i:
                continue
            num *= w(m, n)
            dn = w(i, n)
            if dn == 0:
                raise DegenerateWeightsError(f"members {i} and {n} have dependent weights")
            den *= dn
        out.append(Fraction(num, den))
    return tuple(out)


# --------------------------------------------------------------------------
# Order-m identity residuals
# --------------------------------------------------------------------------

def _scaled_sum(lin: Lineage, values: list[Fraction]) -> Fraction:
    """target value − Σ C_i (b_i/b_m)^{m−2} · member value."""
    m = lin.order
    C = lagrange_coefficients(lin)
    bm = lin.members[-1].value.denominator
    total = Fraction(0)
    for i in range(1, m):
        bi = lin.members[i - 1].value.denominator
        total += C[i - 1] * Fraction(bi, bm) ** (m - 2) * values[i - 1]
    return values[m - 1] - total


def delta_identity_residual(lin: Lineage) -> Rat:
    """Residual of the Δ_{m−3} linear-dependence form (orders 4 and 5).

    Zero is NOT expected in general: the true identity carries a correction
    term (see identity_correction); for order 4 the Δ and plain-derivative
    forms coincide, for order 5 they differ because Δ_2 is representative-
    dependent.
    """
    m = lin.order
    if m not in (4, 5):
        raise ValueError("identity instances exist for orders 4 and 5")
    vals = [delta(mem.deform, m - 3) for mem in lin.members]
    return _scaled_sum(lin, vals)


def derivative_identity_residual(lin: Lineage) -> Rat:
    """Residual of the plain d^{m−3}/dq^{m−3} linear-dependence form."""
    m = lin.order
    if m not in (4, 5):
        raise ValueError("identity instances exist for orders 4 and 5")
    vals = [derivative_at_one(mem.deform, m - 3) for mem in lin.members]
    return _scaled_sum(lin, vals)


def identity_correction(lin: Lineage) -> Rat:
    """Predicted value of derivative_identity_residual, in closed form.

    Order 4: (ΣC − 1)/(2·b_m²) — and ΣC is always 3, so the correction is
    1/b_m².  Order 5: [Λ(b−a) − 20·Λ(b³·s)]/b_m³, where Λ(h) = h(member m) −
    Σ C_i·h(member i) on the reduced members and s is the (1,3) generalized
    Dedekind sum.  Both forms hold exactly on every non-vanishing lineage.
    """
    m = lin.order
    if m not in (4, 5):
        raise ValueError("identity instances exist for orders 4 and 5")
    C = lagrange_coefficients(lin)
    nums = [mem.value.numerator for mem in lin.members]
    dens = [mem.value.denominator for mem in lin.members]
    bm = dens[-1]
    if m == 4:
        return Fraction(sum(C) - 1, 2 * bm * bm)

    def lam(h):
        return h(m - 1) - sum(C[i] * h(i) for i in range(m - 1))

    l_ba = lam(lambda i: Fraction(dens[i] - nums[i]))
    l_s = lam(lambda i: dens[i] ** 3 * s_sum(1, 3, nums[i], dens[i]))
    return (l_ba - 20 * l_s) / bm ** 3


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------

def equivalence_mismatches(depth: int, start: int = 0) -> list[Fraction]:
    """Nodes (by value) where the weighted-mediant polynomials differ from the
    continued-fraction deformation.  Empty list = bit-exact equivalence."""
    return [node.value for node in build_qtree(start, depth)
            if node.deform != deform(node.value).deform]


def identity_sweep(depth: int) -> dict:
    """Verify, for every non-vanishing lineage of orders 4 and 5 rooted at
    tree nodes to the given depth:  the derivative linear-dependence residual
    equals its closed-form correction, and the coefficient moment identities
    Σ C_i·f_i^j·g_i^{m−2−j} = f_m^j·g_m^{m−2−j} hold for j = 0..m−2.

    Returns {"checked": {4: n4, 5: n5}, "failures": [...]} with one failure
    tuple (m, value, identity, lhs, rhs) per violation (empty = pass).
    """
    checked = {4: 0, 5: 0}
    failures: list[tuple] = []
    for node in build_qtree(0, depth):
        for m in (4, 5):
            if node.depth < m - 2:
                continue
            lin = lineage_extract(node.value, m)
            if lin.vanishing:
                continue
            checked[m] += 1
            resid = derivative_identity_residual(lin)
            corr = identity_correction(lin)
            if resid != corr:
                failures.append((m, node.value, "residual", resid, corr))
                continue
            C = lagrange_coefficients(lin)
            f, g = lin.f, lin.g
            for j in range(m - 1):
                lhs = sum(C[i] * f[i] ** j * g[i] ** (m - 2 - j) for i in range(m - 1))
                rhs = f[m - 1] ** j * g[m - 1] ** (m - 2 - j)
                if lhs != rhs:
                    failures.append((m, node.value, f"moment {j}", lhs, rhs))
                    break
    return {"checked": checked, "failures": failures}


# --------------------------------------------------------------------------
# Export
# --------------------------------------------------------------------------

def lineage_to_json(lin: Lineage) -> dict:
    from .qdeform import qrational_to_json

    return {
        "members": [qrational_to_json(mem) for mem in lin.members],
        "zeta": list(lin.zeta),
        "xi": list(lin.xi),
        "F": [poly_to_json_list(p) for p in lin.Fpoly],
        "G": [poly_to_json_list(p) for p in lin.Gpoly],
        "f": list(lin.f),
        "g": list(lin.g),
        "vanishing": lin.vanishing,
    }
