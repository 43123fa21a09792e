"""Stern–Brocot tree, its q-deformation via weighted mediants, lineage
extraction with polynomial weight tables, the Δ_i operator, and the Lagrange
coefficients of the order-m linear-dependence identity.

One depth-first walker, walk_qtree, yields the tree's ancestor stack, and
lineages are read off such stacks.  The weighted-mediant construction calls
the continued-fraction deformation only at the window endpoints; their
bit-exact agreement is a verified equivalence, not a dependency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .exact import (
    IntPoly,
    PoleAtOneError,
    Rat,
    RatFunc,
    _taylor_at_one,
    derivative_at_one,
    jets_at_one,
    poly_to_json_list,
)
from .qdeform import QRational, _depth_and_path, deform, qrational_to_json, to_cfrac
from .dedekind import s_sum

__all__ = [
    "Lineage",
    "weighted_mediant",
    "walk_qtree",
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
    "VanishingLineageError",
    "DegenerateWeightsError",
    "InsufficientDepthError",
]


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


def _degree_gap(left: RatFunc, right: RatFunc) -> int:
    """n = max(1, deg βL − deg δR + 1) on the canonical denominators of two
    neighbours (left value < right): the degree-gap rule that makes the tree
    reproduce the continued-fraction deformation exactly."""
    return max(1, left.den.degree() - right.den.degree() + 1)


def _qmediant(left: tuple[IntPoly, IntPoly], right: tuple[IntPoly, IntPoly],
              xi: int) -> tuple[IntPoly, IntPoly]:
    """(L₀, L₁), (R₀, R₁), ξ ↦ (L₀ + R₀·q^ξ, L₁ + R₁·q^ξ): the weighted-mediant
    recurrence, shared by tree nodes, lineage weights and the lineage check."""
    return left[0] + right[0].shift(xi), left[1] + right[1].shift(xi)


def weighted_mediant(left: RatFunc, right: RatFunc) -> RatFunc:
    """q-deformed mediant of two deformed neighbours (left value < right),
    the right pair weighted by q^n with n the degree gap (_degree_gap)."""
    num, den = _qmediant((left.num, left.den), (right.num, right.den),
                         _degree_gap(left, right))
    return RatFunc(num, den)


def _farey(x: Fraction, y: Fraction) -> Fraction:
    """Farey sum (α+γ)/(β+δ) of two tree neighbours."""
    return Fraction(x.numerator + y.numerator, x.denominator + y.denominator)


class Frame:
    """A descent-stack entry: a tree value, the stack indices of its left
    (smaller) parent lo and right (greater) parent hi (None at the window
    endpoints), and its node (value, canonical pair, depth, path) and jets
    at q = 1, each computed on first use unless assigned before."""

    def __init__(self, value: Fraction, lo: int | None = None, hi: int | None = None):
        self.value, self.lo, self.hi = value, lo, hi

    @cached_property
    def node(self) -> QRational:
        return deform(self.value)

    @cached_property
    def jets(self) -> list[Rat]:
        """f(1), f′(1), f″(1) of the node's deformation f."""
        return jets_at_one(self.node.deform, 2)


def walk_qtree(m: int, depth: int) -> Iterator[list[Frame]]:
    """Depth-first walk, in increasing value, of the q-deformed tree nodes
    strictly between m and m+1 to the given depth, by weighted mediants.

    Yields the ancestor stack at each node, one list reused from step to
    step: frames 0 and 1 hold deform(m) and deform(m + 1), frame 2 + d the
    depth-d ancestor, and the last frame the node itself.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    stack = [Frame(Fraction(m)), Frame(Fraction(m + 1))]

    def visit(lo: int, hi: int, d: int, path: str):
        left, right = stack[lo].node, stack[hi].node
        frame = Frame(_farey(left.value, right.value), lo, hi)
        frame.node = QRational(frame.value, weighted_mediant(left.deform, right.deform), d, path)
        k = d + 2
        stack[k:] = [frame]
        if d < depth:
            yield from visit(lo, k, d + 1, path + "L")
            del stack[k + 1:]
        yield stack
        if d < depth:
            yield from visit(k, hi, d + 1, path + "R")

    return visit(0, 1, 0, "L")


def build_qtree(m: int, depth: int) -> list[QRational]:
    """All q-deformed tree nodes strictly between m and m+1, to the given
    depth, by the weighted-mediant recursion.  Nodes are returned sorted by
    (depth, value); polynomials are canonical pairs.
    """
    return sorted((stack[-1].node for stack in walk_qtree(m, depth)),
                  key=lambda n: (n.depth, n.value))


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
    # p^{(i)}(1) = i!·s_i, with s_i the h^i coefficient of p(1 + h)
    beta = _taylor_at_one(rf.den, i)
    if beta[0] == 0:
        raise PoleAtOneError("denominator vanishes at q = 1")
    alpha = _taylor_at_one(rf.num, i)
    return math.factorial(i) * (Fraction(alpha[i], beta[0])
                                + Fraction((-1) ** i * alpha[0] * beta[i], beta[0] ** (i + 1)))


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


def _lineage_from_stack(stack: list[Frame], m: int) -> tuple[Lineage, list[Frame]]:
    """The order-m lineage of a descent stack's last frame, and its members'
    frames; the caller ensures the target's depth is at least m − 2.

    Members 2..m are the last m−1 frames (each the deeper parent of the
    next); member 1 is the shallow parent of member 3, or for m = 2 the
    target's deeper parent (the left endpoint at depth 0).  ζ_n is the
    member index of member n's shallow parent.  Weight recurrence:
    𝔉_n = 𝔉_small + q^{ξ_n}·𝔉_big where small and big are member n's left
    and right parents, {n−1, ζ_n}, read off its frame (the q-power attaches
    to the greater), and ξ_n is their mediant's degree gap (_degree_gap).
    Member n's canonical pair must be the same recurrence of its parents'
    pairs (ValueError otherwise), so no weight is multiplied out.
    """
    t = len(stack) - 1
    if m == 2:
        idx = [t - 1 if t > 2 else 0, t]
    else:
        first = t - m + 2  # stack index of member 2
        third = stack[first + 1]
        idx = [third.hi if third.lo == first else third.lo, *range(first, t + 1)]
    frames = [stack[j] for j in idx]
    member_of = {j: n for n, j in enumerate(idx, start=1)}
    members = tuple(fr.node for fr in frames)
    pairs = [(mem.deform.num, mem.deform.den) for mem in members]
    weights = [(IntPoly.const(1), IntPoly()), (IntPoly(), IntPoly.const(1))]
    zeta, xi = [], []
    for n in range(3, m + 1):
        # both parents are members: n − 1 and ζ_n, which is n − 2 or ζ_{n−1}
        small, big = member_of[frames[n - 1].lo], member_of[frames[n - 1].hi]
        zeta.append(big if small == n - 1 else small)
        xi.append(_degree_gap(members[small - 1].deform, members[big - 1].deform))
        weights.append(_qmediant(weights[small - 1], weights[big - 1], xi[-1]))
        # member n must be its parents' weighted mediant, unnormalized; by
        # induction on n the weights then rebuild it from members 1 and 2
        if _qmediant(pairs[small - 1], pairs[big - 1], xi[-1]) != pairs[n - 1]:
            raise ValueError(f"weight reconstruction failed for member {n} of {stack[t].value}")
    F, G = zip(*weights)

    lin = Lineage(members=members, zeta=tuple(zeta), xi=tuple(xi),
                  Fpoly=F, Gpoly=G,
                  f=tuple(p(1) for p in F), g=tuple(p(1) for p in G),
                  vanishing=frames[0].value.denominator == 1)
    return lin, frames


def lineage_extract(x: Rat, m: int) -> Lineage:
    """Extract the order-m lineage of x (see _lineage_from_stack) off the
    Fraction-level Stern–Brocot search for x from ⌊x⌋ and ⌊x⌋ + 1.  Only
    members 1 and 2 are deformed; members 3..m, the last m − 2 frames, are
    weighted mediants of their two parents, which are earlier members, with
    the depth and path that deform attaches."""
    x = Fraction(x)
    if m < 2:
        raise ValueError("lineage order must be >= 2")
    stack = [Frame(Fraction(v)) for v in (math.floor(x), math.floor(x) + 1)]
    lo, hi = 0, 1
    while stack[lo].value != x:  # invariant: stack[lo] <= x < stack[hi]
        k = len(stack)
        stack.append(Frame(_farey(stack[lo].value, stack[hi].value), lo, hi))
        lo, hi = (lo, k) if x < stack[k].value else (k, hi)
    depth = len(stack) - 3  # an integer stops at once, at depth −1
    if depth < m - 2:
        raise InsufficientDepthError(requested=m, max_order=depth + 2)
    for frame in stack[len(stack) - m + 2:]:
        left, right = stack[frame.lo].node, stack[frame.hi].node
        frame.node = QRational(frame.value, weighted_mediant(left.deform, right.deform),
                               *_depth_and_path(to_cfrac(frame.value)))
    return _lineage_from_stack(stack, m)[0]


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

def _identity_order(lin: Lineage) -> int:
    if lin.order not in (4, 5):
        raise ValueError("identity instances exist for orders 4 and 5")
    return lin.order


def _scaled_sum(lin: Lineage, C: tuple[Rat, ...], values: list[Rat]) -> Rat:
    """target value − Σ C_i (b_i/b_m)^{m−2} · member value."""
    m, bm = lin.order, lin.members[-1].value.denominator
    return values[-1] - sum(C[i] * Fraction(lin.members[i].value.denominator, bm) ** (m - 2)
                            * values[i] for i in range(m - 1))


def delta_identity_residual(lin: Lineage) -> Rat:
    """Residual of the Δ_{m−3} linear-dependence form (orders 4 and 5).

    Zero is NOT expected in general: the true identity carries a correction
    term (see identity_correction); for order 4 the Δ and plain-derivative
    forms coincide, for order 5 they differ because Δ_2 is representative-
    dependent.
    """
    m = _identity_order(lin)
    vals = [delta(mem.deform, m - 3) for mem in lin.members]
    return _scaled_sum(lin, lagrange_coefficients(lin), vals)


def derivative_identity_residual(lin: Lineage) -> Rat:
    """Residual of the plain d^{m−3}/dq^{m−3} linear-dependence form."""
    m = _identity_order(lin)
    vals = [derivative_at_one(mem.deform, m - 3) for mem in lin.members]
    return _scaled_sum(lin, lagrange_coefficients(lin), vals)


def identity_correction(lin: Lineage) -> Rat:
    """Predicted value of derivative_identity_residual, in closed form.

    Order 4: (ΣC − 1)/(2·b_m²) — and ΣC is always 3, so the correction is
    1/b_m².  Order 5: [Λ(b−a) − 20·Λ(b³·s)]/b_m³, where Λ(h) = h(member m) −
    Σ C_i·h(member i) on the reduced members and s is the (1,3) generalized
    Dedekind sum.  Both forms hold exactly on every non-vanishing lineage.
    """
    _identity_order(lin)
    return _correction(lin, lagrange_coefficients(lin))


def _correction(lin: Lineage, C: tuple[Rat, ...]) -> Rat:
    m = lin.order
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

def equivalence_mismatches(depth: int) -> list[Fraction]:
    """Nodes (by value) between 0 and 1 where the weighted-mediant polynomials
    differ from the continued-fraction deformation.  Empty list = bit-exact
    equivalence."""
    return [stack[-1].value for stack in walk_qtree(0, depth)
            if stack[-1].node.deform != deform(stack[-1].value).deform]


def identity_sweep(depth: int) -> dict:
    """Verify, for every non-vanishing lineage of orders 4 and 5 rooted at
    tree nodes to the given depth:  the derivative linear-dependence residual
    equals its closed-form correction, and the coefficient moment identities
    Σ C_i·f_i^j·g_i^{m−2−j} = f_m^j·g_m^{m−2−j} hold for j = 0..m−2.
    Lineages are read off the walker's stack; each node's jets are computed
    once, however many lineages it belongs to.

    Returns {"checked": {4: n4, 5: n5}, "failures": [...]} with one failure
    tuple (m, value, identity, lhs, rhs) per violation (empty = pass).
    """
    checked = {4: 0, 5: 0}
    failures: list[tuple] = []
    for stack in walk_qtree(0, depth):
        for m in (4, 5):
            if stack[-1].node.depth < m - 2:
                continue
            lin, frames = _lineage_from_stack(stack, m)
            if lin.vanishing:
                continue
            checked[m] += 1
            C = lagrange_coefficients(lin)
            resid = _scaled_sum(lin, C, [fr.jets[m - 3] for fr in frames])
            corr = _correction(lin, C)
            if resid != corr:
                failures.append((m, stack[-1].value, "residual", resid, corr))
                continue
            f, g = lin.f, lin.g
            for j in range(m - 1):
                lhs = sum(C[i] * f[i] ** j * g[i] ** (m - 2 - j) for i in range(m - 1))
                rhs = f[m - 1] ** j * g[m - 1] ** (m - 2 - j)
                if lhs != rhs:
                    failures.append((m, stack[-1].value, f"moment {j}", lhs, rhs))
                    break
    return {"checked": checked, "failures": failures}


# --------------------------------------------------------------------------
# Export
# --------------------------------------------------------------------------

def lineage_to_json(lin: Lineage) -> dict:
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
