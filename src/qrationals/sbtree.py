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
    _cleared_jets,
    _taylor_at_one,
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
    recurrence, shared by tree nodes and lineage weights."""
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
    endpoints), the degree gap xi of their weighted mediant (None unless
    _mediant_frame built the frame), and its node (value, canonical pair,
    depth, path) and cleared jets at q = 1, each computed on first use
    unless assigned before."""

    def __init__(self, value: Fraction, lo: int | None = None, hi: int | None = None):
        self.value, self.lo, self.hi = value, lo, hi
        self.xi: int | None = None

    @cached_property
    def node(self) -> QRational:
        return deform(self.value)

    @cached_property
    def cleared_jets(self) -> list[int]:
        """J_0, J_1, J_2 with J_j = b^{j+1}·f⁽ʲ⁾(1), for the node's
        deformation f with denominator b (see exact._cleared_jets)."""
        return _cleared_jets(self.node.deform, 2)[1]


def _mediant_frame(stack: list[Frame], lo: int, hi: int, depth: int, path: str) -> Frame:
    """The frame of the tree node at the given depth and path whose parents
    are stack[lo] (left) and stack[hi] (right): its pair is their pairs'
    weighted mediant with ξ = _degree_gap, kept on the frame.  Lineage
    weights rebuild a member from its parents by this same recurrence, so
    the pair must be canonical exactly as built (ValueError naming the node
    otherwise)."""
    left, right = stack[lo].node.deform, stack[hi].node.deform
    frame = Frame(_farey(stack[lo].value, stack[hi].value), lo, hi)
    frame.xi = _degree_gap(left, right)
    raw = _qmediant((left.num, left.den), (right.num, right.den), frame.xi)
    pair = RatFunc(*raw)
    if (pair.num, pair.den) != raw:
        raise ValueError(f"weight reconstruction failed at node {frame.value}: "
                         f"not the weighted mediant of its parents")
    frame.node = QRational(frame.value, pair, depth, path)
    return frame


def walk_qtree(m: int, depth: int) -> Iterator[list[Frame]]:
    """Depth-first walk, in increasing value, of the q-deformed tree nodes
    strictly between m and m+1 to the given depth, by weighted mediants,
    each node checked where it is built (_mediant_frame).

    Yields the ancestor stack at each node, one list reused from step to
    step: frames 0 and 1 hold deform(m) and deform(m + 1), frame 2 + d the
    depth-d ancestor, and the last frame the node itself.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    stack = [Frame(Fraction(m)), Frame(Fraction(m + 1))]

    def visit(lo: int, hi: int, d: int, path: str):
        k = d + 2
        stack[k:] = [_mediant_frame(stack, lo, hi, d, path)]
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


def _lineage_members(stack: list[Frame], m: int) -> tuple[list[Frame], list[tuple[int, int]]]:
    """The frames of the order-m lineage of a descent stack's last frame,
    and for each member n = 3..m the member indices (small, big) of its left
    and right parents; the caller ensures the target's depth is at least
    m − 2.

    Members 2..m are the last m−1 frames (each the deeper parent of the
    next); member 1 is the shallow parent of member 3, or for m = 2 the
    target's deeper parent (the left endpoint at depth 0).  Member n's
    parents are members n − 1 and ζ_n, which is n − 2 or ζ_{n−1}.
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
    return frames, [(member_of[fr.lo], member_of[fr.hi]) for fr in frames[2:]]


def _weights_at_one(parents: list[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(f, g): the weights 𝔉_n(1), 𝔊_n(1) of members 1..m, by the integer
    recurrence f_n = f_small + f_big (at q = 1, q^ξ is 1)."""
    f, g = [1, 0], [0, 1]
    for small, big in parents:
        f.append(f[small - 1] + f[big - 1])
        g.append(g[small - 1] + g[big - 1])
    return tuple(f), tuple(g)


def _lineage_from_stack(stack: list[Frame], m: int) -> tuple[Lineage, list[Frame]]:
    """The order-m lineage of a descent stack's last frame, and its members'
    frames (as in _lineage_members).  ζ_n is the member index of member n's
    shallow parent.  Weight recurrence: 𝔉_n = 𝔉_small + q^{ξ_n}·𝔉_big where
    small and big are member n's left and right parents (the q-power
    attaches to the greater), and ξ_n is their mediant's degree gap, read
    off member n's frame.  Each member n ≥ 3 was built as the same
    recurrence of its parents' canonical pairs and checked canonical as
    built (_mediant_frame), so by induction on n the weights rebuild every
    member from members 1 and 2, and no weight is multiplied out.
    """
    frames, parents = _lineage_members(stack, m)
    weights = [(IntPoly.const(1), IntPoly()), (IntPoly(), IntPoly.const(1))]
    zeta = []
    for n, (small, big) in enumerate(parents, start=3):
        zeta.append(big if small == n - 1 else small)
        weights.append(_qmediant(weights[small - 1], weights[big - 1], frames[n - 1].xi))
    F, G = zip(*weights)
    f, g = _weights_at_one(parents)
    lin = Lineage(members=tuple(fr.node for fr in frames), zeta=tuple(zeta),
                  xi=tuple(fr.xi for fr in frames[2:]), Fpoly=F, Gpoly=G, f=f, g=g,
                  vanishing=frames[0].value.denominator == 1)
    return lin, frames


def lineage_extract(x: Rat, m: int) -> Lineage:
    """Extract the order-m lineage of x (see _lineage_from_stack) off the
    Fraction-level Stern–Brocot search for x from ⌊x⌋ and ⌊x⌋ + 1.  Only
    members 1 and 2 are deformed; members 3..m, the last m − 2 frames, are
    built from their two parents, which are earlier members, as the walker
    builds them (_mediant_frame), with depth and path sliced from x's."""
    x = Fraction(x)
    if m < 2:
        raise ValueError("lineage order must be >= 2")
    depth, path = _depth_and_path(to_cfrac(x))  # an integer has depth −1
    if depth < m - 2:
        raise InsufficientDepthError(requested=m, max_order=depth + 2)
    stack = [Frame(Fraction(v)) for v in (math.floor(x), math.floor(x) + 1)]
    lo, hi = 0, 1
    while stack[lo].value != x:  # invariant: stack[lo] <= x < stack[hi]
        k = len(stack)
        stack.append(Frame(_farey(stack[lo].value, stack[hi].value), lo, hi))
        lo, hi = (lo, k) if x < stack[k].value else (k, hi)
    for k in range(len(stack) - m + 2, len(stack)):  # frame k has depth k − 2
        stack[k] = _mediant_frame(stack, stack[k].lo, stack[k].hi, k - 2, path[:k - 1])
    return _lineage_from_stack(stack, m)[0]


def _lagrange(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, list[int]]:
    """(L, [c_1, ..., c_{m−1}]) with C_i = c_i/L, for the weights f, g of
    members 1..m: L is the lcm of the reduced denominators of
    C_i = Π_{n<m, n≠i} (f_m·g_n − f_n·g_m)/(f_i·g_n − f_n·g_i)."""
    m = len(f)
    nums, dens = [], []
    for i in range(m - 1):
        num = den = 1
        for n in range(m - 1):
            if n == i:
                continue
            num *= f[m - 1] * g[n] - f[n] * g[m - 1]
            dn = f[i] * g[n] - f[n] * g[i]
            if dn == 0:
                raise DegenerateWeightsError(f"members {i + 1} and {n + 1} have dependent weights")
            den *= dn
        r = math.gcd(num, den)
        nums.append(num // r)
        dens.append(den // r)
    L = math.lcm(*dens)
    return L, [num * (L // den) for num, den in zip(nums, dens)]


def _lineage_lagrange(lin: Lineage) -> tuple[int, list[int]]:
    if lin.vanishing:
        raise VanishingLineageError("lineage starts at an integer")
    return _lagrange(lin.f, lin.g)


def lagrange_coefficients(lin: Lineage) -> tuple[Rat, ...]:
    """C_i = Π_{n<m, n≠i} (f_m·g_n − f_n·g_m)/(f_i·g_n − f_n·g_i), i < m.

    Only defined for non-vanishing lineages with pairwise independent weights.
    """
    L, c = _lineage_lagrange(lin)
    return tuple(Fraction(ci, L) for ci in c)


# --------------------------------------------------------------------------
# Order-m identity residuals
# --------------------------------------------------------------------------
#
# With C_i = c_i/L and member values a_i/b_i, every residual and correction
# below is computed times L·b_m^{m−2}, which makes the derivative residual
# an integer (_cleared_jets), and divided once at the end.

def _identity_order(lin: Lineage) -> int:
    if lin.order not in (4, 5):
        raise ValueError("identity instances exist for orders 4 and 5")
    return lin.order


def _lam(L: int, c: list[int], h: list) -> Rat:
    """L·Λ(h) = L·h_m − Σ_{i<m} c_i·h_i for values h_1..h_m of the members."""
    return L * h[-1] - sum(ci * hi for ci, hi in zip(c, h))


def _scale(L: int, values: list[Fraction]) -> int:
    """L·b_m^{m−2} for member values a_1/b_1 ... a_m/b_m."""
    return L * values[-1].denominator ** (len(values) - 2)


def _values(lin: Lineage) -> list[Fraction]:
    return [mem.value for mem in lin.members]


def delta_identity_residual(lin: Lineage) -> Rat:
    """Residual of the Δ_{m−3} linear-dependence form (orders 4 and 5):
    Δ(member m) − Σ C_i·(b_i/b_m)^{m−2}·Δ(member i).

    Zero is NOT expected in general: the true identity carries a correction
    term (see identity_correction); for order 4 the Δ and plain-derivative
    forms coincide, for order 5 they differ because Δ_2 is representative-
    dependent.
    """
    m = _identity_order(lin)
    h = [mem.value.denominator ** (m - 2) * delta(mem.deform, m - 3) for mem in lin.members]
    L, c = _lineage_lagrange(lin)
    return _lam(L, c, h) / _scale(L, _values(lin))


def derivative_identity_residual(lin: Lineage) -> Rat:
    """Residual of the plain d^{m−3}/dq^{m−3} linear-dependence form; times
    L·b_m^{m−2} it is L·J_m − Σ c_i·J_i on the cleared jets J_i =
    b_i^{m−2}·f_i^{(m−3)}(1)."""
    m = _identity_order(lin)
    J = [_cleared_jets(mem.deform, m - 3)[1][m - 3] for mem in lin.members]
    L, c = _lineage_lagrange(lin)
    return Fraction(_lam(L, c, J), _scale(L, _values(lin)))


def identity_correction(lin: Lineage) -> Rat:
    """Predicted value of derivative_identity_residual, in closed form.

    Order 4: (ΣC − 1)/(2·b_m²) — and ΣC is always 3, so the correction is
    1/b_m².  Order 5: [Λ(b−a) − 20·Λ(b³·s)]/b_m³, where Λ(h) = h(member m) −
    Σ C_i·h(member i) on the reduced members and s is the (1,3) generalized
    Dedekind sum.  Both forms hold exactly on every non-vanishing lineage.
    """
    _identity_order(lin)
    L, c = _lineage_lagrange(lin)
    values = _values(lin)
    return _cleared_correction(values, L, c) / _scale(L, values)


def _cleared_correction(values: list[Fraction], L: int, c: list[int]) -> Rat:
    """L·b_m^{m−2} times the correction: (Σc − L)/2 at order 4,
    L·Λ(b − a) − 20·L·Λ(b³·s₁,₃) at order 5."""
    if len(values) == 4:
        return Fraction(sum(c) - L, 2)
    l_ba = _lam(L, c, [x.denominator - x.numerator for x in values])
    s = [s_sum(1, 3, x.numerator, x.denominator) for x in values]
    D = math.lcm(*(si.denominator for si in s))  # D·L·Λ(b³·s₁,₃) is an integer
    l_s = _lam(L, c, [x.denominator ** 3 * si.numerator * (D // si.denominator)
                      for x, si in zip(values, s)])
    return Fraction(D * l_ba - 20 * l_s, D)


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

    Lineages are read off the walker's stack, in integers: weights at
    q = 1, the Lagrange numerators c_i over their common denominator L, and
    each node's cleared jets, computed once however many lineages it
    belongs to.  The lineage weights rely on each node being the
    unnormalized weighted mediant of its parents, which the walker checks
    where it builds the node (ValueError naming it otherwise).

    Returns {"checked": {4: n4, 5: n5}, "failures": [...]} with one failure
    tuple (m, value, identity, lhs, rhs) per violation (empty = pass); lhs
    and rhs are the unscaled residual and correction, or moment and target.
    """
    checked = {4: 0, 5: 0}
    failures: list[tuple] = []
    for stack in walk_qtree(0, depth):
        node = stack[-1]
        for m in (4, 5):
            if node.node.depth < m - 2:
                continue
            frames, parents = _lineage_members(stack, m)
            if frames[0].value.denominator == 1:  # vanishing
                continue
            checked[m] += 1
            f, g = _weights_at_one(parents)
            L, c = _lagrange(f, g)
            values = [fr.value for fr in frames]
            resid = _lam(L, c, [fr.cleared_jets[m - 3] for fr in frames])
            corr = _cleared_correction(values, L, c)
            if resid != corr:
                scale = _scale(L, values)
                failures.append((m, node.value, "residual", Fraction(resid, scale), corr / scale))
                continue
            for j in range(m - 1):
                lhs = sum(ci * f[i] ** j * g[i] ** (m - 2 - j) for i, ci in enumerate(c))
                rhs = f[m - 1] ** j * g[m - 1] ** (m - 2 - j)
                if lhs != L * rhs:
                    failures.append((m, node.value, f"moment {j}", Fraction(lhs, L), rhs))
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
