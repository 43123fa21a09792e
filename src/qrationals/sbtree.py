"""Stern–Brocot tree, its q-deformation via weighted mediants, lineage
extraction with polynomial weight tables, the Δ_i operator, and the Lagrange
coefficients of the order-m linear-dependence identity.

One depth-first walk yields the tree's ancestor stack, and lineages are
read off such stacks.  Every node is built by one step (_mediant), its
parents' weighted mediant on packed integers (qrationals.packed).  The
packed walk keeps the pairs, canonical as built (_packed_frame), for
walk_qtree, build_qtree, lineage_extract's short stack from member 2's
parent and appendixA, which compares them with the packed
continued-fraction towers at the same width (_cfrac_table); the lineage
weights 𝔉, 𝔊 run the step's recurrence too (_weights).  The identity
sweep and the plot data walk it modulo (2^W − 1)³ and take each node's
cleared jets from its Taylor digits (_jet_frame); the identity sweep also
folds every node's s₁,₃ descent through one memo per walk and keys
lineage shapes by the last letters of the target's path (identity_sweep).
The tree takes the continued-fraction tower only for pairs it does not
build (the window endpoints, and the two interval ends lineage_extract's
stack starts from); their bit-exact agreement elsewhere is a verified
equivalence, not a dependency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import itemgetter, mul
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
from .packed import _jet_modulus, _packed_width, _taylor_digits, _unpack, _unpacked
from .qdeform import (
    QRational,
    _branch_runs,
    _depth_and_path,
    _expansion,
    _packed_pair,
    _step,
    qrational_to_json,
    to_cfrac,
)
from .closedforms import _term

__all__ = [
    "Lineage",
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


def _degree_gap(left_degree: int, right_degree: int) -> int:
    """n = max(1, deg βL − deg δR + 1) from the degrees of the canonical
    denominators of two neighbours (left value < right): the degree-gap rule
    that makes the tree reproduce the continued-fraction deformation
    exactly."""
    return max(1, left_degree - right_degree + 1)


class Frame:
    """A descent-stack entry: a tree value a/b as its reduced ints a and
    b > 0, the stack indices of its left (smaller) parent lo and right
    (greater) parent hi and the degree gap xi of their weighted mediant
    (None where no step built it: at the window endpoints and
    lineage_extract's two interval ends), and, computed on first use, the
    value a/b as a Fraction and the node (value, canonical pair, depth,
    path).

    The packed builder keeps the node's pair as packed = (N, D, deg D) at
    q = 2^width (qrationals.packed), with the walk's depth and path, and
    packs a parent it did not build on first use (_pack); the node is that
    pair unpacked, and a frame with no packed pair has none.  The jet
    builder keeps residues = (N, D, deg D) modulo (2^width − 1)³, which are
    not a pair, and the cleared jets; the identity sweep's builder adds the
    node's path and its identity values e = (E₄, E₅/b), indexed by the
    order less 4 (_identity_frame; b divides E₅ at every node).
    Depth −1 and the empty path are the window endpoints'; lineage_extract
    sets its two interval ends' own."""

    xi: int | None = None
    packed: tuple[int, int, int] | None = None
    residues: tuple[int, int, int] | None = None
    width: int | None = None
    depth, path = -1, ""

    def __init__(self, a: int, b: int, lo: int | None = None, hi: int | None = None):
        self.a, self.b, self.lo, self.hi = a, b, lo, hi

    @cached_property
    def value(self) -> Fraction:
        return Fraction(self.a, self.b)

    @cached_property
    def node(self) -> QRational:
        num, den, _ = self.packed
        return QRational(self.value, _unpacked(num, den, self.width, self.a < 0),
                         self.depth, self.path)


def _not_mediant(value: Fraction) -> ValueError:
    return ValueError(f"weight reconstruction failed at node {value}: "
                      f"not the weighted mediant of its parents")


def _mediant(stack: list[Frame], lo: int, hi: int, left: tuple[int, int, int],
             right: tuple[int, int, int], width: int) -> tuple[Frame, int, int, int]:
    """The one step of every tree walk: (frame, N, D, deg D) for the node
    whose parents stack[lo] (left) and stack[hi] (right) have the pairs
    left and right, (N, D, deg D) at q = 2^width.  The frame is their Farey
    sum, on the ints, and keeps ξ = _degree_gap; (N, D) = L + R·q^ξ, one
    shift and one add per word, and deg D = deg R + ξ (ξ > deg L − deg R,
    so no leading term cancels).  Pairs modulo M give the node's modulo M."""
    (nl, dl, deg_l), (nr, dr, deg_r) = left, right
    frame = Frame(stack[lo].a + stack[hi].a, stack[lo].b + stack[hi].b, lo, hi)
    frame.xi = xi = _degree_gap(deg_l, deg_r)
    shift = xi * width
    return frame, nl + (nr << shift), dl + (dr << shift), deg_r + xi


def _jet_frame(modulus: tuple[int, int, int], stack: list[Frame], lo: int, hi: int,
               depth: int, path: str) -> Frame:
    """The frame of the tree node whose parents are stack[lo] (left) and
    stack[hi] (right) by the one step (_mediant) at q = 2^W, its pair kept
    as residues modulo h³, (W, h, h³) = modulus (a window endpoint enters
    by its packed pair).  Their base-h digits are the stored words' Taylor
    data at q = 1 (qrationals.packed; _jet_width keeps each below h), the
    numerator's negated back below 0.  Digit 0 must be the node's (a, b),
    since the jets scale with D(1) (ValueError naming the node otherwise);
    a common q-power would change no jet.

    The cleared jets J_0..J_2 are exact._series_quotient's Horner
    recurrence at order 2, written out: with digits (n₀, n₁, n₂) and
    (d₀, d₁, d₂), J_0 = a, J_1 = T₁ = n₁·b − d₁·a and J_2 = 2·((n₂·b −
    d₂·a)·b − d₁·T₁).  The recurrence reads n₀ and d₀; putting a and b in
    their place is exact, since the guard has just checked n₀ = a and
    d₀ = b."""
    width, h, cube = modulus
    frame, num, den, deg = _mediant(
        stack, lo, hi, stack[lo].residues or stack[lo].packed or _pack(stack[lo], width),
        stack[hi].residues or stack[hi].packed or _pack(stack[hi], width), width)
    num, den = num % cube, den % cube
    frame.residues = num, den, deg
    (n0, n1, n2), (b, d1, d2) = _taylor_digits(num, h), _taylor_digits(den, h)
    a = frame.a
    if a < 0:
        n0, n1, n2 = -n0, -n1, -n2
    if n0 != a or b != frame.b:
        raise _not_mediant(frame.value)
    t1 = n1 * b - d1 * a
    frame.cleared_jets = [a, t1, 2 * ((n2 * b - d2 * a) * b - d1 * t1)]
    return frame


def _identity_frame(modulus: tuple[int, int, int], memo: dict, stack: list[Frame], lo: int,
                    hi: int, depth: int, path: str) -> Frame:
    """The jet frame (_jet_frame) with the node's path and its identity
    values e = (E₄, E₅/b), E₄ = 2·J₁ + 1 and E₅ = 6b·J₂ − T, from its
    cleared jets J and its correction term T (closedforms._term, its
    descent folded through the walk's memo), two separate computations met
    only here.  By the closed forms (J₁ = b²·d1_closed, J₂ = b³·d2_closed)
    e = (a² − ab + b², 2·(a³ − 3a²b + 5ab² − 3b³)).

    b divides E₅ at every node a/b: T ≡ −u (mod b) for u = 120·b⁴·s₁,₃,
    and 4b⁴·s₁,₃ = Σ (2n − b)(2r³ − 3r²b + rb²) over n < b, r = a·n mod b,
    is 4a³·Σ n⁴ modulo b, so u ≡ 120·a³·Σ n⁴ = 4a³(b − 1)b(2b − 1)(3b² −
    3b − 1) ≡ 0.  A remainder would be a bug, so it raises ArithmeticError
    naming the node and both sides.  As Λ is linear and Λ(1) = L − Σc, a
    lineage's residual equals its correction exactly when Λ(E₄) = 0 at
    order 4 and Λ(E₅·B/b) = B·Λ(E₅/b) = 0 at order 5, B = lcm(b_i), so
    both orders check Λ(e[m − 4]) = 0 (identity_sweep)."""
    frame = _jet_frame(modulus, stack, lo, hi, depth, path)
    frame.path = path
    _, j1, j2 = frame.cleared_jets
    jets, term = 6 * frame.b * j2, _term(frame.a, frame.b, memo)
    e5, rem = divmod(jets - term, frame.b)
    if rem:
        raise ArithmeticError(f"E₅ mod b ≠ 0 at node {frame.value}: 6b·J₂ = {jets}, T = {term}")
    frame.e = 2 * j1 + 1, e5
    return frame


def _pack(frame: Frame, width: int) -> tuple[int, int, int]:
    """packed for a frame that no build step made (a window endpoint, or
    one of the two interval ends lineage_extract's stack starts from): the
    packed pair of its value's continued-fraction tower at q = 2^width
    (qdeform._packed_pair), and deg D read off D's top word."""
    N, D = _packed_pair(_expansion(frame.a, frame.b), width)
    frame.packed, frame.width = (N, D, (D.bit_length() - 1) // width), width
    return frame.packed


def _packed_frame(width: int, stack: list[Frame], lo: int, hi: int, depth: int,
                  path: str) -> Frame:
    """The frame of the tree node at the given depth and path whose parents
    are stack[lo] (left) and stack[hi] (right), on packed integers at
    q = 2^width: packed = (N, D, deg D), the parents' weighted mediant by
    the one step (_mediant).  Lineage weights rebuild a member from its
    parents by this same recurrence, so the pair must be canonical exactly
    as built.

    The check is one test on the q⁰ words.  ξ ≥ 1 keeps the left parent's,
    so every node keeps its window's: (0, 1) in window 0, (1, 1) in a
    window m > 0 and, the numerator negated, (1, 0) in a window m < 0.
    Each holds a 1, so the pair has content 1 and no common q-power, and
    its nonnegative words give D(1) > 0: it is canonical.  A node whose q⁰
    words are not its left parent's raises ValueError naming it."""
    nl, dl, _ = left = stack[lo].packed or _pack(stack[lo], width)
    frame, num, den, deg = _mediant(stack, lo, hi, left,
                                    stack[hi].packed or _pack(stack[hi], width), width)
    word = (1 << width) - 1
    if (num ^ nl) & word or (den ^ dl) & word:
        raise _not_mediant(frame.value)
    frame.packed = num, den, deg
    frame.width, frame.depth, frame.path = width, depth, path
    return frame


def _walk(m: int, depth: int, build) -> Iterator[list[Frame]]:
    """The depth-first walk of walk_qtree, each node's frame made by
    build(stack, lo, hi, depth, path): _packed_frame (packed integers),
    bound to a width, or _jet_frame (their residues), bound to its walk's
    constants (_jet_modulus).  A negative depth raises here, not on the
    first step.

    One loop, no recursion: it builds a node's frame, then its left
    child's, down to the walk's depth, keeping each built node's right
    child on a pending list; at the bottom it yields the node, then pops
    the last pending entry, cuts the stack back to that node, yields it
    and descends from its right child.  So each node is built before its
    descendants and yielded once, after its left subtree.  When it builds
    a depth-d node, the stack holds exactly the node's 2 + d ancestors
    (the endpoints and one frame per depth), so the new frame is
    appended."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return _descend(m, depth, build)


def _descend(m: int, depth: int, build) -> Iterator[list[Frame]]:
    stack = [Frame(m, 1), Frame(m + 1, 1)]
    pending = []  # (k, lo, hi, path): node k, to yield before its child (lo, hi)
    lo, hi, d, path = 0, 1, 0, "L"
    while True:
        k = d + 2
        stack.append(build(stack, lo, hi, d, path))
        if d < depth:
            pending.append((k, k, hi, path + "R"))
            hi, d, path = k, d + 1, path + "L"
            continue
        yield stack
        if not pending:
            return
        k, lo, hi, path = pending.pop()
        del stack[k + 1:]
        yield stack
        d = k - 1


def walk_qtree(m: int, depth: int) -> Iterator[list[Frame]]:
    """Depth-first walk, in increasing value, of the q-deformed tree nodes
    strictly between m and m+1 to the given depth, by weighted mediants on
    packed integers (_packed_walk), each node's pair checked canonical where
    it is built (_packed_frame) and unpacked on first use of its node.

    Yields the ancestor stack at each node, one list reused from step to
    step: frames 0 and 1 hold the endpoints m and m + 1, frame 2 + d the
    depth-d ancestor, and the last frame the node itself.  identity_sweep
    and fit.emit_plot_data run the same walk modulo (2^W − 1)³ (_jet_walk).
    """
    return _packed_walk(m, depth)[1]


def _window_width(m: int, b: int) -> int:
    """The packing width of every pair between m and m + 1 whose value has
    denominator at most b (see _packed_walk)."""
    return _packed_width(max(-m, m + 1) * b)


def _largest_denominator(depth: int) -> int:
    """F_{depth+3} (Fibonacci, F_3 = 2 at depth 0): the largest denominator
    of a tree node at the given depth, reached by the zigzag L R L R ..."""
    fib, bound = 1, 2  # F_2, F_3
    for _ in range(depth):
        fib, bound = bound, fib + bound
    return bound


def _packed_walk(m: int, depth: int) -> tuple[int, Iterator[list[Frame]]]:
    """(B, walk): the walk of walk_qtree on packed integers at q = 2^B
    (_packed_frame), and the one width B that serves every node of it.

    Every coefficient is at most its word's value at 1
    (qrationals.packed), |a| or b at a node a/b, and m < a/b < m + 1
    bounds |a| by max(−m, m + 1)·b.  So B = _window_width(m, F_{depth+3})
    (_largest_denominator) holds every coefficient."""
    width = _window_width(m, _largest_denominator(depth))
    return width, _walk(m, depth, partial(_packed_frame, width))


def _jet_width(m: int, depth: int) -> int:
    """The width W of the walk modulo (2^W − 1)³ in window m to the given
    depth: 2^W − 1 exceeds every stored word P's Taylor digits s_j ≤
    C(deg P, j)·P(1), j ≤ 2 (qrationals.packed), with P(1) ≤
    max(−m, m + 1)·F_{depth+3} as in _packed_walk and deg P ≤
    |m| + depth + 2, the |a_0| + a_1 + ... of a node's expansion.  W is the
    bound's bit length with one spare bit."""
    deg = abs(m) + depth + 2
    bound = max(deg, math.comb(deg, 2)) * max(-m, m + 1) * _largest_denominator(depth)
    return bound.bit_length() + 1


def _jet_walk(m: int, depth: int, build=_jet_frame, *extra) -> Iterator[list[Frame]]:
    """The walk of walk_qtree modulo (2^W − 1)³, W = _jet_width(m, depth),
    each node's frame made by build (_jet_frame, or identity_sweep's
    _identity_frame) bound to the walk's constants (_jet_modulus) and then
    to the extra arguments."""
    return _walk(m, depth, partial(build, _jet_modulus(_jet_width(m, depth)), *extra))


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
    polynomial pairs, numerators and denominators alike.  f, g hold the
    weights' values at q = 1 (see _lineage_from_stack).
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


def _member_one(stack: list[Frame], m: int) -> tuple[int, int]:
    """The stack indices of members 1 and 2 of the order-m lineage of a
    descent stack's last frame (see _lineage_members), the one rule that
    _lineage_members and identity_sweep read member 1 by."""
    first = len(stack) - m + 1  # stack index of member 2
    if m == 2:
        return (first - 1 if first > 2 else 0), first
    third = stack[first + 1]
    return (third.hi if third.lo == first else third.lo), first


def _lineage_members(stack: list[Frame], m: int) -> tuple[list[Frame], tuple[tuple[int, int], ...]]:
    """The frames of the order-m lineage of a descent stack's last frame,
    and for each member n = 3..m the member indices (small, big) of its left
    and right parents; the caller ensures the target's depth is at least
    m − 2.

    Members 2..m are the last m−1 frames (each the deeper parent of the
    next), so member n ≥ 2 sits at stack index first + n − 2; member 1 is
    the shallow parent of member 3, or for m = 2 the target's deeper parent
    (the left endpoint at depth 0).  Member n's parents are members n − 1
    and ζ_n, which is n − 2 or ζ_{n−1}, so a parent below first is member
    1.  The same rules read lineage_extract's shorter stack: below member
    2 it holds member 2's parent and that parent's two interval ends
    (member 2's own at depth 0), among which is member 1.
    """
    one, first = _member_one(stack, m)
    frames = [stack[one], *stack[first:]]
    shift = first - 2  # member n ≥ 2 is stack index n + shift
    return frames, tuple([(fr.lo - shift if fr.lo > shift else 1,
                           fr.hi - shift if fr.hi > shift else 1) for fr in frames[2:]])


def _weights(parents: list[tuple[int, int]], shifts: list[int]) -> tuple[list[int], list[int]]:
    """(𝔉, 𝔊): the weights of members 1..m as ints, by the weight
    recurrence 𝔉_n = 𝔉_small + q^{ξ_n}·𝔉_big (the same for 𝔊) over member
    n's left and right parents (small, big; the q-power attaches to the
    greater), with q^{ξ_n} a left shift by shifts[n − 3] bits.  With every
    shift 0 (q = 1) these are the weights at one, f and g; with shifts
    ξ_n·W, the weights packed at q = 2^W."""
    F, G = [1, 0], [0, 1]
    for (small, big), shift in zip(parents, shifts):
        for w in (F, G):
            w.append(w[small - 1] + (w[big - 1] << shift))
    return F, G


def _lineage_from_stack(stack: list[Frame], m: int) -> tuple[Lineage, list[Frame]]:
    """The order-m lineage of a descent stack's last frame, and its members'
    frames (as in _lineage_members).  ζ_n is the member index of member n's
    shallow parent.  The weights 𝔉_n, 𝔊_n run the weight recurrence
    (_weights) once at q = 1, giving f and g, and once packed at q = 2^W,
    unpacked once, with ξ_n read off member n's frame.  Each member n ≥ 3
    was built as the same recurrence of its parents' canonical pairs and
    checked canonical as built (_packed_frame), so by induction on n the
    weights rebuild every member from members 1 and 2, and no weight is
    multiplied out.

    W = _packed_width(max(f_m, g_m)) holds every coefficient, at most
    f_n or g_n (qrationals.packed), which never decrease from member 3 on
    (f_n = f_{n−1} + f_{ζ_n}, from f_1 = f_3 = 1 and g_2 = g_3 = 1).
    """
    frames, parents = _lineage_members(stack, m)
    zeta = tuple(big if small == n - 1 else small
                 for n, (small, big) in enumerate(parents, start=3))
    f, g = _weights(parents, [0] * (m - 2))
    width = _packed_width(max(f[-1], g[-1]))
    F, G = _weights(parents, [fr.xi * width for fr in frames[2:]])
    lin = Lineage(members=tuple(fr.node for fr in frames), zeta=zeta,
                  xi=tuple(fr.xi for fr in frames[2:]),
                  Fpoly=tuple(_unpack(p, width) for p in F),
                  Gpoly=tuple(_unpack(p, width) for p in G),
                  f=tuple(f), g=tuple(g), vanishing=frames[0].b == 1)
    return lin, frames


def lineage_extract(x: Rat, m: int) -> Lineage:
    """Extract the order-m lineage of x (see _lineage_from_stack) from a
    short descent stack built as the walk builds its own.

    The descent from ⌊x⌋ and ⌊x⌋ + 1 to depth s = max(depth − m + 1, 0),
    member 2's parent (member 2 itself at depth 0), runs along x's branch
    word (qdeform._branch_runs) one run at a time, on (numerator,
    denominator, depth) triples: k equal moves from the interval (l, r),
    whose node l + r is at depth d, reach (l, k·l + r) going left and
    (l + k·r, r) going right, the new end at depth d + k − 1, so the
    search takes one step per partial quotient and keeps no frame per
    level.  The stack starts with the depth-s node's two interval ends, as
    the walk's starts with its window's endpoints: packed on first use from
    their continued-fraction towers (_pack).  Every node from depth s to x
    is then built from its two parents by the walker's packed step
    (_packed_frame), all at one width for x's window (_window_width), with
    depth and path sliced from x's, and the lineage is read off the stack
    as off the walk's (_lineage_members, member 1 by _member_one)."""
    x = Fraction(x)
    if m < 2:
        raise ValueError("lineage order must be >= 2")
    cf = to_cfrac(x)
    depth, path = _depth_and_path(cf)  # an integer has depth −1
    if depth < m - 2:
        raise InsufficientDepthError(requested=m, max_order=depth + 2)
    top = max(depth - m + 1, 0)  # the first node built
    # (a, b, depth): the node left + right is at depth d
    left, right = (cf.terms[0], 1, -1), (cf.terms[0] + 1, 1, -1)
    d = 0
    for i, u in enumerate(_branch_runs(cf)):
        if d == top:
            break
        k = min(u - (i == 0), top - d)  # the depth-0 node spells the word's first L
        if i % 2 == 0:
            right = (right[0] + k * left[0], right[1] + k * left[1], d + k - 1)
        else:
            left = (left[0] + k * right[0], left[1] + k * right[1], d + k - 1)
        d += k
    width = _window_width(cf.terms[0], x.denominator)
    stack = []
    for a, b, d in (left, right):
        stack.append(Frame(a, b))
        stack[-1].depth, stack[-1].path = d, path[:d + 1]
    lo, hi = 0, 1
    for d in range(top, depth + 1):
        stack.append(_packed_frame(width, stack, lo, hi, d, path[:d + 1]))
        if path[d + 1:d + 2] == "L":
            hi = len(stack) - 1
        else:
            lo = len(stack) - 1
    return _lineage_from_stack(stack, m)[0]


def _lagrange(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, list[int]]:
    """(L, [c_1, ..., c_{m−1}]) with C_i = c_i/L, for the weights f, g of
    members 1..m: L is the lcm of the reduced denominators of
    C_i = Π_{n<m, n≠i} (f_m·g_n − f_n·g_m)/(f_i·g_n − f_n·g_i)."""
    m = len(f)
    C = []
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
        C.append(Fraction(num, den))
    L = math.lcm(*(ci.denominator for ci in C))
    return L, [ci.numerator * (L // ci.denominator) for ci in C]


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

def _lam(L: int, c: list[int], h: list) -> Rat:
    """L·Λ(h) = L·h_m − Σ_{i<m} c_i·h_i for values h_1..h_m of the members."""
    return L * h[-1] - sum(map(mul, c, h))


def _scale(L: int, values: list[Fraction]) -> int:
    """L·b_m^{m−2} for member values a_1/b_1 ... a_m/b_m."""
    return L * values[-1].denominator ** (len(values) - 2)


def _identity_head(lin: Lineage) -> tuple[int, int, list[int], int]:
    """(m, L, c, L·b_m^{m−2}) for an order-4 or order-5 lineage: its order,
    its Lagrange numerators c_i over L (_lagrange) and the scale every
    residual and correction is computed times."""
    m = lin.order
    if m not in (4, 5):
        raise ValueError("identity instances exist for orders 4 and 5")
    L, c = _lineage_lagrange(lin)
    return m, L, c, _scale(L, [mem.value for mem in lin.members])


def delta_identity_residual(lin: Lineage) -> Rat:
    """Residual of the Δ_{m−3} linear-dependence form (orders 4 and 5):
    Δ(member m) − Σ C_i·(b_i/b_m)^{m−2}·Δ(member i).

    Zero is NOT expected in general: the true identity carries a correction
    term (see identity_correction); for order 4 the Δ and plain-derivative
    forms coincide, for order 5 they differ because Δ_2 is representative-
    dependent.
    """
    m, L, c, scale = _identity_head(lin)
    h = [mem.value.denominator ** (m - 2) * delta(mem.deform, m - 3) for mem in lin.members]
    return _lam(L, c, h) / scale


def derivative_identity_residual(lin: Lineage) -> Rat:
    """Residual of the plain d^{m−3}/dq^{m−3} linear-dependence form; times
    L·b_m^{m−2} it is L·J_m − Σ c_i·J_i on the cleared jets J_i =
    b_i^{m−2}·f_i^{(m−3)}(1)."""
    m, L, c, scale = _identity_head(lin)
    J = [_cleared_jets(mem.deform, m - 3)[1][m - 3] for mem in lin.members]
    return Fraction(_lam(L, c, J), scale)


def identity_correction(lin: Lineage) -> Rat:
    """Predicted value of derivative_identity_residual, in closed form.

    Order 4: (ΣC − 1)/(2·b_m²) — and ΣC is always 3, so the correction is
    1/b_m².  Order 5: [Λ(b−a) − 20·Λ(b³·s)]/b_m³, where Λ(h) = h(member m) −
    Σ C_i·h(member i) on the reduced members and s is the (1,3) generalized
    Dedekind sum.  Both forms hold exactly on every non-vanishing lineage.
    Computed in integers (_cleared_correction), which identity_sweep, as it
    checks Λ(E) = 0, builds only for a failing record.
    """
    _, L, c, scale = _identity_head(lin)
    num, den = _cleared_correction([mem.value for mem in lin.members], L, c)
    return Fraction(num, den * scale)


def _cleared_correction(values: list[Fraction], L: int, c: list[int]) -> tuple[int, int]:
    """L·b_m^{m−2} times the correction, for the members' values, as
    (numerator, denominator): (Σc − L)/2 at order 4, which depends on the
    lineage's weights alone.  At order 5, L·Λ(b − a) − 20·L·Λ(b³·s₁,₃) is
    L·Λ(T/(6b)) on the members' integer terms T (closedforms._term), so over
    B = lcm(b_i) it is one integer sum, L·Λ(T·(B/b)), over 6B.
    identity_sweep checks Λ(E) = 0 and builds this for a failing record."""
    if len(values) == 4:
        return sum(c) - L, 2
    B = math.lcm(*(x.denominator for x in values))
    return _lam(L, c, [_term(x.numerator, x.denominator) * (B // x.denominator)
                       for x in values]), 6 * B


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------

def _cfrac_table(depth: int, width: int) -> dict[tuple[int, int], tuple[int, int]]:
    """{(a, b): canonical packed pair of the continued-fraction tower of
    a/b at q = 2^width} for every tree node a/b strictly between 0 and 1 to
    the given depth, built from shared tails.

    A node's expansion is (0; a_1, ..., a_m) with a_m ≥ 2, at depth
    Σa_i − 2, and its tower is the bottom-up tower of its tail
    (a_1, ..., a_m) followed by the a_0 = 0 step, which swaps the pair.
    Nodes whose tails share (a_k, ..., a_m) share the bottom of their
    towers, so one depth-first pass over the tails prepends one term at a
    time from the empty tail (1, 0), keeping both parity states of each
    tail it extends: even(a, S) is the even step (qdeform._step) by a on
    odd(S), and odd(a, S) the odd step on even(S).  A node's pair is its
    tail's odd state swapped, less the common factor q that an odd tail
    carries (qdeform.deform_from_cfrac), one word off each entry of a tail
    of odd length, so a leaf tail's even state, never read, is not built;
    its value a/b is 1 over the tail's, from the tail's continuants.  At
    q = 1 both steps map (N, D) to (a·N + D, N), so each state's N(1) is
    its tail's continuant, at most the node's b, and so is every
    coefficient (qrationals.packed): the walk's width holds every state."""
    top = depth + 2
    table = {}
    # (Σ, p, r, even state, odd state, the shift that strips a child) of the empty tail
    tails = [(0, 1, 0, 1, 0, 1, 0, width)]
    while tails:
        s, p, r, ne, de, no, do, strip = tails.pop()
        for a in range(1 if s else 2, top - s + 1):
            odd = _step(a, ne, de, width, True)
            table[p, a * p + r] = odd[1] >> strip, odd[0] >> strip
            if s + a < top:
                even = _step(a, no, do, width, False)
                tails.append((s + a, a * p + r, p, *even, *odd, width - strip))
    return table


def equivalence_mismatches(depth: int) -> list[Fraction]:
    """Values between 0 and 1, in increasing order, where the weighted-
    mediant tree and the continued-fraction deformation disagree to the
    given depth: a tree node whose pair differs from its continued
    fraction's, a tree node that the continued-fraction side lacks, or a
    continued-fraction node that the walk never reaches.  Empty list =
    bit-exact equivalence.

    Both constructions run on packed integers at the walk's one width
    (_packed_walk), and both are canonical as built: the tree's pair,
    checked where it is built, against the node's entry in _cfrac_table,
    keyed by the node's ints (a, b), at a width that holds both
    (_cfrac_table).  So the two pairs compare as ints, and a table entry
    that kept a common q-power is a mismatch."""
    return [value for value, _, _ in _equivalence_records(depth)]


def _equivalence_records(depth: int) -> list[tuple[Fraction, tuple | None, tuple | None]]:
    """equivalence_mismatches' pass, one record (value, tree, cfrac) per
    mismatch in increasing value: the two packed pairs it compared there,
    the tree node's and the continued-fraction table's, each unpacked as it
    stands to (N, D), or None where the walk has no such node or the table
    no such entry."""
    width, walk = _packed_walk(0, depth)
    table = _cfrac_table(depth, width)

    def unpack(pair):
        return None if pair is None else (_unpack(pair[0], width), _unpack(pair[1], width))
    bad = []
    for stack in walk:
        frame = stack[-1]
        num, den, _ = frame.packed
        cfrac = table.pop((frame.a, frame.b), None)
        if cfrac != (num, den):
            bad.append((frame.value, unpack((num, den)), unpack(cfrac)))
    bad.extend((Fraction(a, b), None, unpack(pair)) for (a, b), pair in table.items())
    return sorted(bad, key=itemgetter(0))


def _shape_checks(m: int, parents: list[tuple[int, int]]) -> tuple:
    """What an order-m lineage's identities need of its shape (its parent
    pattern) alone: (L, c) and the first failing moment identity as the
    tail of a failure record (None if all hold).

    The moment identities hold for any weights whose points (f_i, g_i) are
    pairwise independent: C_i is the Lagrange weight ℓ_i(f_m, g_m),
    ℓ_i(x, y) = Π_{n≠i} (x·g_n − f_n·y)/(f_i·g_n − f_n·g_i), the form of
    degree m − 2 that is 1 at member i's point and 0 at the other m − 2,
    so Σ C_i·P(f_i, g_i) = P(f_m, g_m) for every form P of degree m − 2,
    the moments f^j·g^{m−2−j} among them.  So they check _lagrange, not
    the lineage, and identity_sweep reads them only where L·Λ(e) = 0: a
    moment record names a wrong _lagrange whose c still passes it."""
    f, g = _weights(parents, [0] * (m - 2))
    L, c = _lagrange(f, g)
    moment = None
    for j in range(m - 1):
        lhs = sum(ci * f[i] ** j * g[i] ** (m - 2 - j) for i, ci in enumerate(c))
        rhs = f[m - 1] ** j * g[m - 1] ** (m - 2 - j)
        if lhs != L * rhs:
            moment = (f"moment {j}", Fraction(lhs, L), rhs)
            break
    return L, c, moment


def identity_sweep(depth: int) -> dict:
    """Verify, for every non-vanishing lineage of orders 4 and 5 rooted at
    tree nodes to the given depth:  the derivative linear-dependence residual
    equals its closed-form correction, and the coefficient moment identities
    Σ C_i·f_i^j·g_i^{m−2−j} = f_m^j·g_m^{m−2−j} hold for j = 0..m−2.

    The walk is _jet_walk's, the packed walk modulo (2^W − 1)³, which checks
    at each node that the built N(1), D(1) are its reduced a, b (ValueError
    naming it otherwise); appendixA's walk checks the full canonical pairs.
    Per lineage shape, computed once: the weights at q = 1, the Lagrange
    numerators c_i over their common denominator L, and the moment
    identities, which hold for any weights because the C_i are Lagrange
    weights by construction (_shape_checks): they check _lagrange alone,
    so only a wrong c that still passes the residual check reaches one.
    An order-m lineage's parent pattern is fixed by the last m − 2 letters
    of its target's path, the letters into members 3..m: ζ₃ = 1,
    ζ_n = n − 2 where the letters into members n − 1 and n differ
    and ζ_{n−1} otherwise, and the letter into member n says whether
    member n − 1 is its greater or smaller parent.  So the key is (m,
    path[2 − m:]), 2^{m−2} keys per order, and _lineage_members, which
    defines the pattern, runs on each key's first lineage only.

    Per node, where the walk builds it: its path and its identity values
    e = (E₄, E₅/b), with why b divides E₅ and why Λ(e[m − 4]) = 0 is the
    identity (_identity_frame).  T's s₁,₃ descent folds through one memo
    per call: a node's Euclid tail (b mod a)/a is a shallower tree node,
    so the nodes' chains share their tails and the call folds one
    reciprocity step per node.  Per lineage: member 1 by _member_one,
    members 2..m the stack's last frames, and one integer sum,
    L·Λ(e[m − 4]), so no lcm is taken.  Only a failing lineage builds its
    two sides, the residual from the members' cleared jets and the
    correction (_cleared_correction), for its record.

    Returns {"checked": {4: n4, 5: n5}, "failures": [...]} with one failure
    tuple (m, value, identity, lhs, rhs) per failing lineage (empty = pass),
    the residual checked first; lhs and rhs are the unscaled residual and
    correction, or moment and target.
    """
    checked = {4: 0, 5: 0}
    failures: list[tuple] = []
    shapes: dict = {}
    for stack in _jet_walk(0, depth, _identity_frame, {}):
        node = stack[-1]
        for m in (4, 5):
            if len(stack) < m + 1:  # the node's depth is below m − 2
                continue
            one, first = _member_one(stack, m)
            if stack[one].b == 1:  # vanishing
                continue
            checked[m] += 1
            key = m, node.path[2 - m:]
            shape = shapes.get(key)
            if shape is None:
                shape = shapes[key] = _shape_checks(m, _lineage_members(stack, m)[1])
            L, c, moment = shape
            frames = [stack[one], *stack[first:]]
            if _lam(L, c, [fr.e[m - 4] for fr in frames]):
                resid = _lam(L, c, [fr.cleared_jets[m - 3] for fr in frames])
                values = [fr.value for fr in frames]
                num, den = _cleared_correction(values, L, c)
                scale = _scale(L, values)
                failures.append((m, node.value, "residual", Fraction(resid, scale),
                                 Fraction(num, den * scale)))
            elif moment:
                failures.append((m, node.value, *moment))
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
