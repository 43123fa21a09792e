"""Weighted-mediant tree, lineages, Δ_i, and the linear-dependence identity.

The lineage weight tables and residual values here were computed by hand
from the mediant-descent chains; the identity tests pin both the failing
literal zero-residual form and the corrected closed-form residual.
"""
import math
from fractions import Fraction as Fr
from functools import partial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from qrationals import closedforms, sbtree
from qrationals.exact import (
    IntPoly,
    PoleAtOneError,
    RatFunc,
    _cleared_jets,
    _series_quotient,
    _taylor_at_one,
    derivative_at_one,
)
from qrationals.packed import _jet_modulus, _taylor_digits, _unpack
from qrationals.qdeform import QRational, _expansion, _tower, deform
from qrationals.sbtree import (
    DegenerateWeightsError,
    InsufficientDepthError,
    VanishingLineageError,
    _degree_gap,
    _identity_frame,
    _jet_frame,
    _jet_walk,
    _jet_width,
    _lineage_from_stack,
    _lineage_members,
    _walk,
    build_qtree,
    delta,
    delta_identity_residual,
    derivative_identity_residual,
    equivalence_mismatches,
    identity_correction,
    identity_sweep,
    lagrange_coefficients,
    lineage_extract,
    lineage_to_json,
    walk_qtree,
)
from oracles import (
    NonUnimodularError,
    derivative_at_one_quotient,
    mediant,
    poly_add,
    poly_mul,
    poly_shift,
    weighted_mediant,
)


def _values(lin):
    return [mem.value for mem in lin.members]


# -- mediants --------------------------------------------------------------

def test_mediant_fixtures():
    assert mediant(Fr(0), Fr(1)) == Fr(1, 2)
    assert mediant(Fr(1, 3), Fr(1, 2)) == Fr(2, 5)
    assert mediant(Fr(1), Fr(3, 2)) == Fr(4, 3)
    assert mediant(Fr(-1), Fr(0)) == Fr(-1, 2)


def test_mediant_requires_unimodular_pair():
    with pytest.raises(NonUnimodularError):
        mediant(Fr(1, 3), Fr(2, 3))


def test_weighted_mediant_reproduces_deformation():
    """The oracle's weighted mediant of canonical pairs."""
    got = weighted_mediant(deform(Fr(1, 3)).deform, deform(Fr(1, 2)).deform)
    assert got == deform(Fr(2, 5)).deform
    got = weighted_mediant(deform(Fr(0)).deform, deform(Fr(1)).deform)
    assert got == deform(Fr(1, 2)).deform


# -- tree ------------------------------------------------------------------

def test_tree_figure_row():
    nodes = {n.value: n for n in build_qtree(0, 2)}
    assert list(nodes[Fr(2, 5)].deform.num.coeffs) == [0, 0, 1, 1]
    assert list(nodes[Fr(2, 5)].deform.den.coeffs) == [1, 1, 2, 1]
    assert list(nodes[Fr(3, 5)].deform.num.coeffs) == [0, 1, 1, 1]
    assert list(nodes[Fr(3, 5)].deform.den.coeffs) == [1, 2, 1, 1]


def test_tree_shifted_window():
    node = build_qtree(1, 0)[0]
    assert node.value == Fr(3, 2)
    assert list(node.deform.num.coeffs) == [1, 1, 1]
    assert list(node.deform.den.coeffs) == [1, 1]


def test_tree_shape_and_ordering():
    nodes = build_qtree(0, 4)
    assert len(nodes) == 2 ** 5 - 1
    assert all(0 < n.value < 1 for n in nodes)
    keys = [(n.depth, n.value) for n in nodes]
    assert keys == sorted(keys)
    assert len({n.value for n in nodes}) == len(nodes)
    with pytest.raises(ValueError):
        build_qtree(0, -1)


def test_tree_depth_matches_deformation_depth():
    for n in build_qtree(0, 5):
        assert n.depth == deform(n.value).depth
        assert n.path == deform(n.value).path


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3), st.integers(0, 7))
def test_walker_matches_deform_and_build_qtree(start, depth):
    """Every walker node equals the continued-fraction deformation of its
    value (pair, depth and path), the stack holds the endpoints and one
    ancestor per depth, each frame is the mediant of its two parent frames
    and keeps their degree gap, and the walk visits each node once, in
    increasing value; sorted, it is build_qtree."""
    nodes = []
    for stack in walk_qtree(start, depth):
        node = stack[-1].node
        want = deform(node.value)
        assert (node.value, node.deform, node.depth, node.path) == \
            (want.value, want.deform, want.depth, want.path)
        assert len(stack) == node.depth + 3
        assert [fr.node for fr in stack[:2]] == [deform(start), deform(start + 1)]
        for k, frame in enumerate(stack[2:], start=2):
            assert frame.lo < k and frame.hi < k
            assert frame.value == mediant(stack[frame.lo].value, stack[frame.hi].value)
            assert frame.xi == _degree_gap(stack[frame.lo].node.deform.den.degree(),
                                           stack[frame.hi].node.deform.den.degree())
        nodes.append(node)
    assert len(nodes) == 2 ** (depth + 1) - 1
    assert all(u.value < v.value for u, v in zip(nodes, nodes[1:]))
    assert sorted(nodes, key=lambda n: (n.depth, n.value)) == build_qtree(start, depth)


def _path(stack):
    """The branch word of a descent stack's last node: L for the depth-0
    node, then L or R as each deeper frame is the left or right child of
    the frame before it."""
    return "L" + "".join("L" if fr.hi == k else "R" for k, fr in enumerate(stack[3:], start=2))


@pytest.mark.parametrize("start, depth, top", [(0, 8, 11), (3, 8, 53), (3, 12, 318),
                                               (-1, 8, 11), (-3, 12, 238)])
def test_packed_walker_matches_deform(start, depth, top):
    """Unpacked at the walk's one width, every node of the packed walk is
    the continued-fraction deformation of its value: the pair as built
    (the numerator stored negated below 0), its denominator degree, depth
    and path, and the frame's node, unpacked on first use.  The largest
    |numerator coefficient| is top; in window 3 at depth 12 it is 318,
    past a width one byte short."""
    width, walk = sbtree._packed_walk(start, depth)
    count = biggest = 0
    for stack in walk:
        frame = stack[-1]
        num, den, deg = frame.packed
        want = deform(frame.value)
        stored = -want.deform.num if start < 0 else want.deform.num
        assert (_unpack(num, width), _unpack(den, width), deg, len(stack) - 3, _path(stack)) == \
            (stored, want.deform.den, want.deform.den.degree(), want.depth, want.path)
        assert frame.node == want
        biggest = max(biggest, *stored.coeffs)
        count += 1
    assert count == 2 ** (depth + 1) - 1
    assert biggest == top


def _stripped(pair, width):
    """A packed pair less its common q-power, at the lowest set bit of N | D."""
    N, D = pair
    low = ((N | D) & -(N | D)).bit_length() - 1
    low -= low % width
    return N >> low, D >> low


@pytest.mark.parametrize("depth", [*range(10), 12])
def test_cfrac_table_is_the_tower_on_every_node(depth):
    """The continued-fraction table built from shared tails holds exactly
    the walk's nodes, and each entry is qdeform._tower on the node's
    expansion at the walk's width, stripped of its common q-power."""
    width, walk = sbtree._packed_walk(0, depth)
    table = sbtree._cfrac_table(depth, width)
    assert sorted(table) == sorted((stack[-1].a, stack[-1].b) for stack in walk)
    for (a, b), pair in table.items():
        assert pair == _stripped(_tower(_expansion(a, b), width), width), (a, b)


@pytest.mark.parametrize("build", [partial(sbtree._packed_frame, 16),
                                   partial(_jet_frame, _jet_modulus(16))],
                         ids=["packed", "jet"])
def test_walk_yields_each_node_once_in_increasing_value(build):
    """With each node builder, the walk yields one reused ancestor stack
    per node, every node to depth 6 once and in increasing value: frame
    2 + d is the depth-d ancestor, between its two parents.  A negative
    depth raises at the call, before any step."""
    with pytest.raises(ValueError, match="depth must be >= 0"):
        _walk(1, -1, build)
    seen, stacks = [], set()
    for stack in _walk(1, 6, build):
        stacks.add(id(stack))
        for k, frame in enumerate(stack[2:], start=2):
            lo, hi = stack[frame.lo], stack[frame.hi]
            assert frame.lo < k and frame.hi < k
            assert lo.a * frame.b < frame.a * lo.b and frame.a * hi.b < hi.a * frame.b
        seen.append(stack[-1].value)
        assert len(stack) == deform(seen[-1]).depth + 3
    assert len(seen) == 2 ** 7 - 1 and len(stacks) == 1
    assert all(x < y for x, y in zip(seen, seen[1:]))


@pytest.mark.parametrize("start", [-3, 0, 5])
def test_walk_appends_each_built_frame_to_its_ancestors(start):
    """When the walk builds a depth-d node, its stack holds exactly the two
    window endpoints and the node's d ancestors, so the built frame is
    appended: a builder wrapping _packed_frame sees 2 + d frames at each
    of the 2^9 − 1 builds to depth 8, and the walk yields the nodes of
    walk_qtree, pair for pair, in the same order."""
    width, walk = sbtree._packed_walk(start, 8)
    built = []

    def build(stack, lo, hi, depth, path):
        assert len(stack) == depth + 2, path
        built.append(path)
        return sbtree._packed_frame(width, stack, lo, hi, depth, path)
    got = [(stack[-1].value, stack[-1].packed, len(stack)) for stack in _walk(start, 8, build)]
    assert got == [(stack[-1].value, stack[-1].packed, len(stack)) for stack in walk]
    assert len(built) == len(set(built)) == 2 ** 9 - 1


@pytest.mark.parametrize("start", [0, -2, 3])
def test_lineages_off_the_walker_match_lineage_extract(start):
    """The walker's stack and the Fraction-level descent give the same
    lineage (members, ζ, ξ, weight tables) at every node to depth 8."""
    read = 0
    for stack in walk_qtree(start, 8):
        node = stack[-1].node
        for m in range(2, min(5, node.depth + 2) + 1):
            lin, frames = _lineage_from_stack(stack, m)
            assert lin == lineage_extract(node.value, m), (node.value, m)
            assert tuple(fr.node for fr in frames) == lin.members
            read += 1
    assert read == 511 + 510 + 508 + 504


@pytest.mark.parametrize("start", [-3, 0, 2])
def test_member_1_is_member_3s_other_stern_brocot_parent(start):
    """Members 1 and 2 of an order-m lineage, from the target's value
    alone (oracles.stern_brocot_parents, by continued-fraction
    convergents): member 3 is the target's deep parent taken m − 3 times,
    member 2 its deep parent and member 1 its shallow one.  They are the
    walker's (_lineage_members on its stack) and lineage_extract's, for
    orders 3 to 6 at every node to depth 8."""
    read = 0
    for stack in walk_qtree(start, 8):
        x = stack[-1].value
        for m in range(3, min(6, len(stack) - 1) + 1):  # depth len(stack) − 3 ≥ m − 2
            third = x
            for _ in range(m - 3):
                third = oracles.stern_brocot_parents(third)[1]
            want = oracles.stern_brocot_parents(third)
            frames = _lineage_members(stack, m)[0]
            assert (frames[0].value, frames[1].value) == want, (x, m)
            members = lineage_extract(x, m).members
            assert (members[0].value, members[1].value) == want, (x, m)
            read += 1
    assert read == 510 + 508 + 504 + 496


@pytest.mark.parametrize("start", [-1, 0, 1, 3])
def test_tree_equals_cfrac_construction_on_shifted_windows(start):
    nodes = [stack[-1].node for stack in walk_qtree(start, 6)]
    assert len(nodes) == 127
    for node in nodes:
        assert node.deform == deform(node.value).deform, node.value


@pytest.mark.parametrize("start, depth, top, width",
                         [(-2, 8, 1820, 15), (0, 8, 909, 13), (3, 8, 5364, 16),
                          (-7, 12, 190856, 21), (7, 12, 223456, 21)],
                         ids=["-2", "0", "3", "-7-depth12", "7-depth12"])
def test_jet_walker_matches_polynomial_walker(start, depth, top, width):
    """The walk modulo (2^W − 1)³ builds, node by node, what the polynomial
    walk builds: value, parents, ξ, the denominator degree and the cleared
    jets, which _cleared_jets derives from the polynomial frame's pair.
    The largest h² coefficient at q = 1 + h of a stored word is top, past
    the polynomial walk's width (8 bits in window 0 at depth 8, 16 bits
    elsewhere here).  W is the jet bound's bit length plus a spare bit,
    not rounded to bytes.  A jet frame has no node."""
    assert _jet_width(start, depth) == width
    walked = biggest = 0
    for poly, jets in zip(walk_qtree(start, depth), _jet_walk(start, depth)):
        assert len(poly) == len(jets)
        p, j = poly[-1], jets[-1]
        assert (j.value, j.lo, j.hi, j.xi, j.residues[2]) == \
            (p.value, p.lo, p.hi, p.xi, p.packed[2])
        rf = p.node.deform
        assert j.cleared_jets == _cleared_jets(rf, 2)[1]
        biggest = max(biggest, abs(_taylor_at_one(rf.num, 2)[2]), _taylor_at_one(rf.den, 2)[2])
        walked += 1
    assert walked == 2 ** (depth + 1) - 1
    assert biggest == top
    with pytest.raises(TypeError):  # residues are not a pair: no node
        jets[-1].node


@pytest.mark.parametrize("start", [-1999, -3, 0, 7])
def test_jet_frames_are_the_series_quotient_of_their_digits(start):
    """_jet_frame writes out the order-2 case of exact._series_quotient: at
    every node to depth 10, its cleared jets are the general quotient of
    its residues' base-h digits (_taylor_digits), the numerator's negated
    in a window below 0, and the quotient's b is the node's."""
    h = _jet_modulus(_jet_width(start, 10))[1]
    walked = 0
    for stack in _jet_walk(start, 10):
        frame = stack[-1]
        num, den, _ = frame.residues
        n = _taylor_digits(num, h)
        n = [-s for s in n] if start < 0 else n
        assert _series_quotient(n, _taylor_digits(den, h)) == \
            (frame.b, frame.cleared_jets), frame.value
        walked += 1
    assert walked == 2 ** 11 - 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([8, 16, 32, 64]).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (2 ** w - 2) // 20), max_size=6))))
@example((8, [254]))
@example((8, [0, 254]))
@example((8, [0, 0, 0, 0, 39, 2]))
def test_taylor_digits_are_the_taylor_data_at_one(case):
    """For a polynomial P with nonnegative coefficients whose h^0..h^2
    coefficients s_j at q = 1 + h (_taylor_at_one) are at most
    h − 1 = 2^W − 2, the base-h digits of P(2^W) mod h³ are s_0, s_1, s_2;
    the examples reach h − 1 in s_0, s_1 and s_2."""
    width, coeffs = case
    h = (1 << width) - 1
    s = _taylor_at_one(IntPoly(coeffs), 2)
    assert max(s) <= h - 1
    packed = sum(c << i * width for i, c in enumerate(coeffs))
    assert _taylor_digits(packed % h ** 3, h) == s


# -- Δ_i -------------------------------------------------------------------

def test_delta_fixtures():
    half = RatFunc(IntPoly([0, 1]), IntPoly([1, 1]))
    assert delta(half, 1) == Fr(1, 4)
    assert delta(RatFunc(IntPoly([1, 1, 1]), IntPoly([1])), 1) == 3
    rep = RatFunc(IntPoly([0, 0, 1]), IntPoly([1, 1, 1]))  # q^2/(q^2+q+1)
    assert delta(rep, 1) == Fr(1, 3)
    assert delta(rep, 2) == Fr(20, 27)


def test_delta2_is_representative_dependent():
    """Equivalent pairs may give different Δ_2; canonical pairs are the
    convention everywhere in this module."""
    canonical = deform(Fr(2, 3)).deform  # (q+q^2)/(1+q+q^2)
    assert delta(canonical, 2) == Fr(22, 27)
    assert delta(RatFunc(IntPoly([0, 0, 1]), IntPoly([1, 1, 1])), 2) == Fr(20, 27)


def test_delta2_canonical_fixtures():
    table = {
        Fr(1, 2): Fr(0),
        Fr(1, 4): Fr(13, 8),
        Fr(1, 5): Fr(64, 25),
        Fr(3, 8): Fr(341, 128),
        Fr(5, 13): Fr(9188, 2197),
    }
    for x, want in table.items():
        assert delta(deform(x).deform, 2) == want, x


def test_delta_errors():
    rf = RatFunc(IntPoly([0, 1]), IntPoly([1, 1]))
    with pytest.raises(ValueError):
        delta(rf, 0)
    with pytest.raises(PoleAtOneError):
        delta(RatFunc(IntPoly([1]), IntPoly([-1, 1])), 1)


@given(st.fractions(min_value=-3, max_value=3, max_denominator=13))
def test_delta1_equals_first_derivative(x):
    rf = deform(x).deform
    assert delta(rf, 1) == derivative_at_one(rf, 1)


# -- lineages --------------------------------------------------------------

def test_lineage_order3_fixture():
    lin = lineage_extract(Fr(2, 5), 3)
    assert _values(lin) == [Fr(1, 2), Fr(1, 3), Fr(2, 5)]
    assert lin.zeta == (1,)
    assert (lin.f, lin.g) == ((1, 0, 1), (0, 1, 1))
    assert not lin.vanishing
    assert lagrange_coefficients(lin) == (Fr(1), Fr(1))


def test_lineage_order4_fixtures():
    lin = lineage_extract(Fr(2, 5), 4)
    assert _values(lin) == [Fr(0), Fr(1, 2), Fr(1, 3), Fr(2, 5)]
    assert lin.zeta == (1, 2)
    assert (lin.f, lin.g) == ((1, 0, 1, 1), (0, 1, 1, 2))
    assert lin.vanishing

    lin = lineage_extract(Fr(1, 4), 4)
    assert _values(lin) == [Fr(0), Fr(1, 2), Fr(1, 3), Fr(1, 4)]
    assert (lin.f, lin.g) == ((1, 0, 1, 2), (0, 1, 1, 1))
    assert lin.vanishing

    lin = lineage_extract(Fr(5, 13), 4)
    assert _values(lin) == [Fr(1, 3), Fr(2, 5), Fr(3, 8), Fr(5, 13)]
    assert lin.zeta == (1, 2)
    assert (lin.f, lin.g) == ((1, 0, 1, 1), (0, 1, 1, 2))
    assert not lin.vanishing
    assert lagrange_coefficients(lin) == (Fr(-1), Fr(2), Fr(2))

    lin = lineage_extract(Fr(3, 7), 4)
    assert _values(lin) == [Fr(1, 2), Fr(1, 3), Fr(2, 5), Fr(3, 7)]
    assert lin.zeta == (1, 1)
    assert (lin.f, lin.g) == ((1, 0, 1, 2), (0, 1, 1, 1))
    assert lagrange_coefficients(lin) == (Fr(2), Fr(-1), Fr(2))

    lin = lineage_extract(Fr(5, 8), 4)
    assert _values(lin) == [Fr(1, 2), Fr(2, 3), Fr(3, 5), Fr(5, 8)]
    assert lagrange_coefficients(lin) == (Fr(-1), Fr(2), Fr(2))

    assert lineage_extract(Fr(5, 7), 4).vanishing
    assert _values(lineage_extract(Fr(5, 7), 4)) == [Fr(1), Fr(2, 3), Fr(3, 4), Fr(5, 7)]


def test_lineage_order5_fixtures():
    lin = lineage_extract(Fr(1, 5), 5)
    assert (lin.f, lin.g) == ((1, 0, 1, 2, 3), (0, 1, 1, 1, 1))
    assert lin.vanishing

    lin = lineage_extract(Fr(5, 13), 5)
    assert _values(lin) == [Fr(1, 2), Fr(1, 3), Fr(2, 5), Fr(3, 8), Fr(5, 13)]
    assert lin.zeta == (1, 2, 3)
    assert lin.xi == (2, 1, 2)
    assert (lin.f, lin.g) == ((1, 0, 1, 1, 2), (0, 1, 1, 2, 3))
    assert lagrange_coefficients(lin) == (Fr(-1), Fr(-3), Fr(6), Fr(3))

    lin = lineage_extract(Fr(4, 11), 5)
    assert _values(lin) == [Fr(1, 2), Fr(1, 3), Fr(2, 5), Fr(3, 8), Fr(4, 11)]
    assert lin.zeta == (1, 2, 2)
    assert (lin.f, lin.g) == ((1, 0, 1, 1, 1), (0, 1, 1, 2, 3))
    assert lagrange_coefficients(lin) == (Fr(1), Fr(6), Fr(-3), Fr(3))


def test_lineage_weight_polynomials():
    """𝔉, 𝔊 are genuine q-polynomials: for 5/13 at order 5 the last pair is
    (q^3 + q^4, 1 + q + q^2)."""
    lin = lineage_extract(Fr(5, 13), 5)
    assert list(lin.Fpoly[-1].coeffs) == [0, 0, 0, 1, 1]
    assert list(lin.Gpoly[-1].coeffs) == [1, 1, 1]
    assert lin.Fpoly[0] == IntPoly([1]) and lin.Gpoly[0] == IntPoly()
    assert lin.Fpoly[1] == IntPoly() and lin.Gpoly[1] == IntPoly([1])


def test_lineage_order2():
    lin = lineage_extract(Fr(2, 5), 2)
    assert _values(lin) == [Fr(1, 3), Fr(2, 5)]
    assert (lin.f, lin.g) == ((1, 0), (0, 1))
    assert lin.zeta == () and lin.xi == ()
    assert not lin.vanishing

    lin = lineage_extract(Fr(1, 2), 2)  # depth-0 target ties to the left
    assert _values(lin) == [Fr(0), Fr(1, 2)]
    assert lin.vanishing


def test_lineage_depth_errors():
    with pytest.raises(InsufficientDepthError) as exc:
        lineage_extract(Fr(1, 2), 4)
    assert exc.value.max_order == 2
    with pytest.raises(InsufficientDepthError) as exc:
        lineage_extract(Fr(3), 2)
    assert exc.value.max_order == 1
    with pytest.raises(ValueError):
        lineage_extract(Fr(2, 5), 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 6 - 2), st.integers(2, 5))
def test_lineage_members_chain_structure(idx, m):
    """Members are consecutive tree ancestors: each consecutive pair is
    unimodular, values interleave toward the target, and the q = 1 weights
    rebuild every member from the first two."""
    node = build_qtree(0, 5)[idx]
    if node.depth < m - 2:
        return
    lin = lineage_extract(node.value, m)
    vals = _values(lin)
    assert vals[-1] == node.value
    for u, v in zip(vals, vals[1:]):
        a, b = u.numerator, u.denominator
        c, d = v.numerator, v.denominator
        assert abs(a * d - b * c) == 1
    for i in range(m):
        ai, bi = vals[i].numerator, vals[i].denominator
        assert lin.f[i] * vals[0].numerator + lin.g[i] * vals[1].numerator == ai
        assert lin.f[i] * vals[0].denominator + lin.g[i] * vals[1].denominator == bi


# -- the lineage check against the literal product form -----------------------

def _combine(F, G, a1, a2):
    """(𝔉·num₁ + 𝔊·num₂, 𝔉·den₁ + 𝔊·den₂), multiplied out."""
    return (poly_add(poly_mul(F, a1.num), poly_mul(G, a2.num)),
            poly_add(poly_mul(F, a1.den), poly_mul(G, a2.den)))


def _rebuilt_by_products(lin):
    """𝔉_n·a₁ + 𝔊_n·a₂ = a_n multiplied out, numerators and denominators,
    and (f_n, g_n) = (𝔉_n(1), 𝔊_n(1)), for every member n."""
    a1, a2 = lin.members[0].deform, lin.members[1].deform
    return all(_combine(F, G, a1, a2) == (mem.deform.num, mem.deform.den)
               and (F(1), G(1)) == (f, g)
               for F, G, f, g, mem in zip(lin.Fpoly, lin.Gpoly, lin.f, lin.g, lin.members))


def _first_member_not_rebuilt(members, zeta):
    """The literal check: build 𝔉_n, 𝔊_n by the weight recurrence over the
    parents n − 1 and ζ_n (the smaller value on the left) and compare
    𝔉_n·a₁ + 𝔊_n·a₂ with member n; the first member that differs, or None."""
    a1, a2 = members[0].deform, members[1].deform
    F, G = [IntPoly([1]), IntPoly()], [IntPoly(), IntPoly([1])]
    for n in range(3, len(members) + 1):
        small, big = sorted((n - 1, zeta[n - 3]), key=lambda k: members[k - 1].value)
        xi = _degree_gap(members[small - 1].deform.den.degree(), members[big - 1].deform.den.degree())
        F.append(poly_add(F[small - 1], poly_shift(F[big - 1], xi)))
        G.append(poly_add(G[small - 1], poly_shift(G[big - 1], xi)))
        an = members[n - 1].deform
        if _combine(F[-1], G[-1], a1, a2) != (an.num, an.den):
            return n
    return None


@pytest.mark.parametrize("start", [-2, 0, 3])
def test_walker_lineage_weights_rebuild_members_by_products(start):
    read = 0
    for stack in walk_qtree(start, 8):
        for m in range(2, min(5, stack[-1].node.depth + 2) + 1):
            lin, _ = _lineage_from_stack(stack, m)
            assert _rebuilt_by_products(lin), (stack[-1].value, m)
            read += 1
    assert read == 511 + 510 + 508 + 504


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=80), st.integers(2, 7))
@example(Fr(832040, 514229), 25)  # F₃₀/F₂₉: weights packed at 32 bits, top coefficient 5794
@example(Fr(-832040, 514229), 25)
def test_lineage_extract_weights_rebuild_members_by_products(x, m):
    assume(deform(x).depth >= m - 2)
    assert _rebuilt_by_products(lineage_extract(x, m))


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=200))
@example(Fr(1346269, 832040))  # F₃₁/F₃₀, depth 27
def test_lineage_extract_members_equal_their_deformations(x):
    """lineage_extract builds members 3..m as weighted mediants of earlier
    members; at every order the depth allows, each member must be the
    continued-fraction deformation of its value: pair, depth and path."""
    for m in range(2, deform(x).depth + 3):
        for mem in lineage_extract(x, m).members:
            want = deform(mem.value)
            assert (mem.deform, mem.depth, mem.path) == \
                (want.deform, want.depth, want.path), (x, m, mem.value)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5000).flatmap(lambda b: st.tuples(st.integers(-3 * b, 3 * b), st.just(b))),
       st.integers(2, 14))
@example((1, 5000), 14)
@example((4999, 5000), 3)
@example((-14999, 5000), 2)
@example((2, 5), 4)
@example((1, 2), 2)
def test_lineage_extract_matches_the_farey_step_search(ab, m):
    """The run-length descent gives the lineage the one-step Stern–Brocot
    search gives, in every field, at the largest order the depth allows up
    to m."""
    x = Fr(*ab)
    depth = deform(x).depth
    assume(depth >= 0)
    m = min(m, depth + 2)
    assert lineage_extract(x, m) == oracles.lineage_extract_by_search(x, m)


def _build_as(monkeypatch, value):
    """Make the build step take the degree gap ξ = 0 at the node of the
    given value, as a wrong gap there would: its pair is then the plain
    sum of its parents' pairs.  The one step (_mediant) takes the gap once
    per node, so the patched gap asks whether that step's parents sum to
    the value."""
    real, here = sbtree._mediant, []

    def mediant(stack, lo, hi, *pairs):
        here[:] = [Fr(stack[lo].a + stack[hi].a, stack[lo].b + stack[hi].b) == value]
        return real(stack, lo, hi, *pairs)
    monkeypatch.setattr(sbtree, "_mediant", mediant)
    monkeypatch.setattr(sbtree, "_degree_gap",
                        lambda left, right: 0 if here[0] else _degree_gap(left, right))


def test_corrupted_member_is_rejected_where_the_products_reject_it(monkeypatch):
    """Replace one member's pair by another node's: the literal product
    check rejects at member max(k, 3), the first one rebuilt from the
    replaced member k (nothing is rebuilt at order 2).  Build member k with
    the degree gap 0 where the walker builds it: the build step rejects
    member k itself, naming it.  Members at the window endpoints are not
    built, so they are not replaced."""
    stacks = [list(stack) for stack in walk_qtree(0, 5)]
    rejected = 0
    for i, stack in enumerate(stacks):
        for m in range(2, min(5, stack[-1].node.depth + 2) + 1):
            lin, frames = _lineage_from_stack(stack, m)
            for k, old in enumerate(frames, start=1):
                other = stacks[(i + 5 * k + 1) % len(stacks)][-1].node.deform
                if old.lo is None or other == old.node.deform:
                    continue
                new = QRational(old.value, other, old.node.depth, old.node.path)
                members = [*lin.members[:k - 1], new, *lin.members[k:]]
                assert _first_member_not_rebuilt(members, lin.zeta) == \
                    (max(k, 3) if m > 2 else None)
                with monkeypatch.context() as patch:  # one patch at a time, not nested
                    _build_as(patch, old.value)
                    with pytest.raises(ValueError, match=f"at node {old.value}: "):
                        list(walk_qtree(0, old.node.depth))
                rejected += 1
    assert rejected == 777


def test_lagrange_rejects_vanishing_lineage():
    with pytest.raises(VanishingLineageError):
        lagrange_coefficients(lineage_extract(Fr(1, 4), 4))


def test_lagrange_rejects_degenerate_weights():
    import dataclasses

    lin = dataclasses.replace(lineage_extract(Fr(2, 5), 3),
                              f=(1, 1, 2), g=(1, 1, 2))
    with pytest.raises(DegenerateWeightsError):
        lagrange_coefficients(lin)


# -- the order-m identity --------------------------------------------------

def test_identity_literal_form_fails_but_correction_holds_order4():
    """The zero-residual Δ identity is false as stated: at 3/8 the order-4
    residual is 1/64, exactly the closed-form correction (Σ C_i − 1)/(2 b²)."""
    lin = lineage_extract(Fr(3, 8), 4)
    assert delta_identity_residual(lin) == Fr(1, 64)
    assert derivative_identity_residual(lin) == Fr(1, 64)
    assert identity_correction(lin) == Fr(1, 64)
    assert sum(lagrange_coefficients(lin)) == 3


def test_identity_delta_and_derivative_forms_differ_at_order5():
    """Δ_2 is representative-dependent, so at order 5 only the plain second
    derivative admits a closed-form residual."""
    lin = lineage_extract(Fr(5, 13), 5)
    assert delta_identity_residual(lin) == Fr(3836, 2197)
    assert derivative_identity_residual(lin) == Fr(-40, 2197)
    assert identity_correction(lin) == Fr(-40, 2197)
    assert sum(lagrange_coefficients(lin)) == 5
    assert sum(lagrange_coefficients(lineage_extract(Fr(4, 11), 5))) == 7


def test_identity_residual_requires_order_4_or_5():
    lin = lineage_extract(Fr(2, 5), 3)
    with pytest.raises(ValueError):
        derivative_identity_residual(lin)
    with pytest.raises(ValueError):
        identity_correction(lin)


def test_coefficient_moments():
    """Σ C_i f_i^j g_i^{m-2-j} = f_m^j g_m^{m-2-j} for j = 0..m-2."""
    for x, m in [(Fr(3, 8), 4), (Fr(5, 13), 5), (Fr(4, 11), 5), (Fr(3, 7), 4)]:
        lin = lineage_extract(x, m)
        C = lagrange_coefficients(lin)
        f, g = lin.f, lin.g
        for j in range(m - 1):
            lhs = sum(C[i] * f[i] ** j * g[i] ** (m - 2 - j) for i in range(m - 1))
            assert lhs == f[m - 1] ** j * g[m - 1] ** (m - 2 - j), (x, m, j)


def test_identity_sweep_small_depth():
    res = identity_sweep(4)
    assert res["failures"] == []
    assert res["checked"] == {4: 16, 5: 8}


@pytest.mark.parametrize("start", [-2, 0, 3])
def test_identity_functions_match_literal_forms_off_the_walker(start):
    """On every non-vanishing order-4/5 lineage to depth 7, the integer
    forms behind lagrange_coefficients, the residuals and identity_correction
    equal the literal Fraction forms (jets by the quotient rule), and the
    residual equals the correction."""
    read = 0
    for stack in walk_qtree(start, 7):
        for m in (4, 5):
            if stack[-1].node.depth < m - 2:
                continue
            lin, _ = _lineage_from_stack(stack, m)
            if lin.vanishing:
                continue
            C = oracles.lagrange_coefficients(lin)
            assert lagrange_coefficients(lin) == C
            jets = [derivative_at_one_quotient(mem.deform, m - 3) for mem in lin.members]
            deltas = [delta(mem.deform, m - 3) for mem in lin.members]
            resid = derivative_identity_residual(lin)
            assert resid == oracles.scaled_sum(lin, C, jets) == identity_correction(lin)
            assert identity_correction(lin) == oracles.correction(lin, C)
            assert delta_identity_residual(lin) == oracles.scaled_sum(lin, C, deltas)
            read += 1
    assert read == 436


def _non_vanishing_order5(head):
    """The targets head + k/b, b ≤ 500, of every non-vanishing order-5
    lineage in window head.  Its member 1 is an integer exactly when the
    branch word's first depth − 2 letters after the root's L are one letter
    repeated, which for reduced k/b is min(k, b − k) ≤ 3 (k/b = 1/n,
    2/(2n+1), 3/(3n±1) and their mirrors 1 − k/b); min(k, b − k) ≥ 4 also
    gives depth ≥ 3, and every b from 9 to 500 but 10 has such a k."""
    return st.integers(9, 500).filter(lambda b: b != 10).flatmap(
        lambda b: st.sampled_from([k for k in range(4, b - 3) if math.gcd(k, b) == 1]).map(
            lambda k: (head + Fr(k, b), 5)))


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3).flatmap(_non_vanishing_order5))
@example((Fr(3, 8), 4))
@example((Fr(5, 13), 5))
@example((Fr(-23, 9), 5))
def test_identity_correction_equals_the_literal_form(lineage):
    """The integer correction, one term per member over the lcm of the
    members' denominators, equals the literal Fraction form on the O(b)
    lattice sum of s₁,₃, on non-vanishing order-5 lineages of windows
    −3…3 with b ≤ 500."""
    x, m = lineage
    lin = lineage_extract(x, m)
    assert not lin.vanishing
    got = identity_correction(lin)
    assert got == oracles.correction(lin, oracles.lagrange_coefficients(lin),
                                     oracles.literal_s_sum)
    pinned = {Fr(3, 8): Fr(1, 64), Fr(5, 13): Fr(-40, 2197)}
    if x in pinned:
        assert got == pinned[x]


def _s13_wrong_at_2_5(monkeypatch):
    """Make s₁,₃(2, 5) one too large where the sweep reads 2/5's own term,
    the cleared kernel 120·b⁴·s₁,₃ that the call returns, and where the
    literal correction reads it, s_sum.  The memo the call folds through
    keeps the true value, which the nodes whose Euclid chains pass
    through 2/5 (5/7, 5/12, 7/12, ...) read, as they did without it."""
    s13, s = closedforms._s13_cleared, oracles.s_sum
    monkeypatch.setattr(closedforms, "_s13_cleared", lambda a, b, memo=None:
                        s13(a, b, memo) + 120 * b ** 4 * ((a, b) == (2, 5)))
    monkeypatch.setattr(oracles, "s_sum", lambda i, j, a, b: s(i, j, a, b) + ((a, b) == (2, 5)))


def test_identity_sweep_reports_unscaled_failures(monkeypatch):
    """With s₁,₃ wrong at 2/5, every failure is an order-5 residual whose
    lineage has 2/5 as a member, reported as the literal residual and the
    literal correction of the wrong s₁,₃."""
    _s13_wrong_at_2_5(monkeypatch)
    res = identity_sweep(5)
    assert res["checked"] == {4: 44, 5: 32} and res["failures"]
    for m, value, identity, lhs, rhs in res["failures"]:
        lin = lineage_extract(value, m)
        assert (m, identity) == (5, "residual") and Fr(2, 5) in _values(lin)
        C = oracles.lagrange_coefficients(lin)
        jets = [derivative_at_one_quotient(mem.deform, 2) for mem in lin.members]
        assert (lhs, rhs) == (oracles.scaled_sum(lin, C, jets), oracles.correction(lin, C))
        assert lhs != rhs


@pytest.mark.parametrize("start", [-2, 0, 3])
def test_identity_values_are_the_literal_sides(start):
    """Each node's identity values to depth 6 are its two sides, each by
    another route: e = (E₄, E₅/b), E₄ = 2·J₁ + 1 and E₅ = 6b·J₂ − T, with
    J₁, J₂ the cleared jets of the node's polynomial pair (_cleared_jets
    of deform) and T = 6b(b − a) − 120·b⁴·s₁,₃ from the O(b) defining sum
    of s₁,₃."""
    built = 0
    for stack in _jet_walk(start, 6, _identity_frame, {}):
        node = stack[-1]
        a, b = node.a, node.b
        _, j1, j2 = _cleared_jets(deform(node.value).deform, 2)[1]
        term = 6 * b * (b - a) - 120 * b ** 4 * oracles.literal_s_sum(1, 3, a, b)
        e4, e5 = node.e
        assert (e4, b * e5) == (2 * j1 + 1, 6 * b * j2 - term), node.value
        built += 1
    assert built == 2 ** 7 - 1


@pytest.mark.parametrize("start", [-3, -1, 0, 2, 7])
def test_b_divides_e5_on_every_node(start):
    """b divides E₅ = 6b·J₂ − T at every node a/b of the jet walk to depth
    9, so the identity sweep stores E₅/b: T = 6b(b − a) − u, and
    u = 120·b⁴·s₁,₃ ≡ 120·a³·Σ_{n<b} n⁴ ≡ 0 (mod b)."""
    nodes = 0
    for stack in _jet_walk(start, 9):
        node = stack[-1]
        a, b = node.a, node.b
        assert (6 * b * node.cleared_jets[2] - sbtree._term(a, b)) % b == 0, node.value
        nodes += 1
    assert nodes == 2 ** 10 - 1


@pytest.mark.parametrize("start", [-3, -1, 0, 2, 7])
def test_identity_values_are_the_closed_forms_polynomial_parts(start):
    """At every node a/b of the identity walk to depth 9, e = (E₄, E₅/b)
    is the polynomial part of the closed forms: with J₁ = b²·d1_closed
    and J₂ = b³·d2_closed = (2b·(a³ − 3a²b + 5ab² − 3b³) + T)/(6b),
    E₄ = 2·J₁ + 1 = a² − ab + b² and E₅/b = (6b·J₂ − T)/b =
    2·(a³ − 3a²b + 5ab² − 3b³): thm1 and thm2 read through J₁, J₂ and T."""
    nodes = 0
    for stack in _jet_walk(start, 9, _identity_frame, {}):
        node = stack[-1]
        a, b = node.a, node.b
        assert node.e == (a * a - a * b + b * b,
                          2 * (a ** 3 - 3 * a * a * b + 5 * a * b * b - 3 * b ** 3)), node.value
        nodes += 1
    assert nodes == 2 ** 10 - 1


def test_identity_frames_fold_one_reciprocity_step_per_node():
    """The sweep's node builder folds each node's s₁,₃ descent through one
    memo per walk: in window 0 to depth 12, every node's term T equals the
    descent without a memo, and the memo ends holding exactly the 8191
    nodes, each with its own u.  A node's Euclid tail (b mod a)/a is a
    shallower node, so each pair is folded once."""
    memo, nodes = {}, set()
    for stack in _jet_walk(0, 12, _identity_frame, memo):
        node = stack[-1]
        a, b = node.a, node.b
        assert 6 * b * node.cleared_jets[2] - b * node.e[1] == sbtree._term(a, b), node.value
        nodes.add((a, b))
    assert len(nodes) == 2 ** 13 - 1 and set(memo) == nodes
    assert all(u == closedforms._s13_cleared(a, b) for (a, b), u in memo.items())


def _parents_from_letters(letters):
    """The parent pattern, (small, big) for each member n = 3..m, that the
    letters into members 3..m give: ζ₃ = 1, ζ_n = n − 2 where the letters
    into members n − 1 and n differ and ζ_{n−1} otherwise, and member
    n − 1 the greater parent of a member entered by L."""
    parents, zeta = [], 1
    for n, letter in enumerate(letters, start=3):
        if n > 3 and letter != letters[n - 4]:
            zeta = n - 2
        parents.append((zeta, n - 1) if letter == "L" else (n - 1, zeta))
    return tuple(parents)


@pytest.mark.parametrize("start", [-3, -1, 0, 2, 5])
def test_shape_key_gives_the_parent_pattern(start):
    """The identity sweep keys a lineage's shape by its order m and the
    last m − 2 letters of its target's path: on every order-4 and order-5
    lineage to depth 9, those letters give _lineage_members's parent
    pattern by the ζ rule (_parents_from_letters), so one key never has
    two patterns, and all 4 + 8 keys occur."""
    keys = set()
    for stack in walk_qtree(start, 9):
        path = stack[-1].path
        for m in (4, 5):
            if len(stack) - m + 1 < 2:  # depth below m − 2
                continue
            letters = path[2 - m:]
            assert _lineage_members(stack, m)[1] == _parents_from_letters(letters), (path, m)
            keys.add((m, letters))
    assert len(keys) == 12


def test_identity_sweep_fails_where_a_nodes_jets_are_wrong(monkeypatch):
    """With 3/8's cleared jets J₁ and J₂ each one too large on the sweep's
    side only (its jet frame, sbtree._jet_frame), exactly the non-vanishing
    order-4 and order-5 lineages with 3/8 as a member fail, each reported
    as the residual of the wrong jets against the unchanged correction."""
    jet_frame = sbtree._jet_frame

    def wrong_at_3_8(*args):
        frame = jet_frame(*args)
        if (frame.a, frame.b) == (3, 8):
            j0, j1, j2 = frame.cleared_jets
            frame.cleared_jets = [j0, j1 + 1, j2 + 1]
        return frame
    monkeypatch.setattr(sbtree, "_jet_frame", wrong_at_3_8)
    expected = []
    for stack in walk_qtree(0, 6):
        for m in (4, 5):
            if stack[-1].node.depth < m - 2:
                continue
            lin, _ = _lineage_from_stack(stack, m)
            if lin.vanishing or Fr(3, 8) not in _values(lin):
                continue
            C = oracles.lagrange_coefficients(lin)
            jets = [derivative_at_one_quotient(mem.deform, m - 3)
                    + (mem.value == Fr(3, 8)) * Fr(1, 8 ** (m - 2)) for mem in lin.members]
            expected.append((m, stack[-1].value, "residual", oracles.scaled_sum(lin, C, jets),
                             oracles.correction(lin, C)))
    res = identity_sweep(6)
    assert {m for m, *_ in expected} == {4, 5}
    assert res == {"checked": {4: 104, 5: 88}, "failures": expected}


def test_identity_sweep_raises_where_b_does_not_divide_e5(monkeypatch):
    """The sweep divides E₅ by b where it builds the node and raises on a
    remainder, naming the node and both sides, 6b·J₂ and T: with 3/8's T
    one too large, identity_sweep(4) raises at 3/8."""
    term = sbtree._term
    monkeypatch.setattr(sbtree, "_term", lambda a, b, memo=None:
                        term(a, b, memo) + ((a, b) == (3, 8)))
    j2 = _cleared_jets(deform(Fr(3, 8)).deform, 2)[1][2]
    with pytest.raises(ArithmeticError) as err:
        identity_sweep(4)
    assert str(err.value) == ("E₅ mod b ≠ 0 at node 3/8: "
                              f"6b·J₂ = {48 * j2}, T = {sbtree._term(3, 8)}")


def _pair_as(monkeypatch, value, other):
    """Make the one step (_mediant) build value's node with other's packed
    pair, as a wrong mediant would."""
    real = sbtree._mediant

    def mediant(stack, lo, hi, left, right, width):
        frame, *pair = real(stack, lo, hi, left, right, width)
        if frame.value == value:
            pair = sbtree._pack(sbtree.Frame(other.numerator, other.denominator), width)
        return frame, *pair
    monkeypatch.setattr(sbtree, "_mediant", mediant)


def test_identity_sweep_rejects_a_node_that_is_not_its_parents_mediant(monkeypatch):
    """Each node is checked where it is built to be its parents' weighted
    mediant: with 3/8 built with the degree gap 0, lineage_extract and the
    packed walk raise naming 3/8, and with 3/8 built as 2/5's pair, whose
    q⁰ words are its window's but whose N(1), D(1) are not 3/8's, so does
    the identity sweep."""
    with monkeypatch.context() as patch:
        _pair_as(patch, Fr(3, 8), Fr(2, 5))
        with pytest.raises(ValueError, match="at node 3/8: not the weighted mediant"):
            identity_sweep(4)
    _build_as(monkeypatch, Fr(3, 8))
    for run in (lambda: list(walk_qtree(0, 4)), lambda: lineage_extract(Fr(3, 8), 3)):
        with pytest.raises(ValueError, match="at node 3/8: not the weighted mediant"):
            run()


def test_equivalence_sweep_rejects_a_pair_that_is_not_canonical_as_built(monkeypatch):
    """With the degree gap floored at 0, a node whose parents' denominator
    degrees leave no gap is built as their plain sum, and its q⁰ words are
    not its window's.  In window 0, 1/3 is 0/1 plus 1/(1 + q): denominator
    2 + q.  In window −1, −2/3 is −1/q plus −1/(q + q²): numerator −2, and
    the denominators' q⁰ terms are both 0, so only the numerator's word
    shows it; in window −2 every denominator's q⁰ term is 0.  The packed
    build step rejects each, naming the node, in the equivalence sweep,
    the walk and lineage_extract."""
    monkeypatch.setattr(sbtree, "_degree_gap", lambda left, right: max(0, left - right + 1))
    for run, node in ((lambda: equivalence_mismatches(4), "1/3"),
                      (lambda: list(walk_qtree(0, 4)), "1/3"),
                      (lambda: list(walk_qtree(-1, 4)), "-2/3"),
                      (lambda: lineage_extract(Fr(3, 8), 3), "3/8"),
                      (lambda: lineage_extract(Fr(-7, 5), 3), "-7/5")):
        with pytest.raises(ValueError, match=f"at node {node}: not the weighted mediant"):
            run()


def test_equivalence_sweep_rejects_a_table_entry_that_keeps_a_common_q_power(monkeypatch):
    """Both sides are canonical as built, so the sweep compares them as
    ints: a continued-fraction entry times q, equal as a rational function,
    is a mismatch."""
    real = sbtree._cfrac_table

    def times_q(depth, width):
        table = real(depth, width)
        table[2, 5] = tuple(x << width for x in table[2, 5])
        return table
    monkeypatch.setattr(sbtree, "_cfrac_table", times_q)
    assert equivalence_mismatches(4) == [Fr(2, 5)]


def test_identity_sweep_matches_the_per_lineage_sweep():
    """Per-shape checks on the jet walk, per-lineage checks on the
    polynomial walk: the same counts and no failures."""
    for depth in range(7):
        assert identity_sweep(depth) == oracles.identity_sweep(depth), depth


def test_identity_sweep_matches_the_per_lineage_sweep_under_faults(monkeypatch):
    """The per-shape checks fail exactly where the per-lineage checks fail:
    with s₁,₃ wrong at 2/5, and with the Lagrange numerators of one order-4
    shape perturbed (with its mirror image, which has the same weights at
    q = 1), where every lineage of those shapes fails."""
    with monkeypatch.context() as patch:
        _s13_wrong_at_2_5(patch)
        res = identity_sweep(6)
        assert res["failures"] and res == oracles.identity_sweep(6)

    shape = [(1, 2), (1, 3)]  # member 3 = a_1 ⊕ a_2, member 4 = a_1 ⊕ a_3
    weights = sbtree._weights(shape, [0, 0])
    lagrange = sbtree._lagrange

    def perturbed(f, g):
        L, c = lagrange(f, g)
        return (L, [c[0] + 1, *c[1:]]) if (f, g) == weights else (L, c)
    monkeypatch.setattr(sbtree, "_lagrange", perturbed)
    res = identity_sweep(6)
    assert res == oracles.identity_sweep(6)
    of_shape = [stack[-1].value for stack in walk_qtree(0, 6) if len(stack) >= 5
                for frames, parents in [_lineage_members(stack, 4)]
                if sbtree._weights(parents, [0, 0]) == weights
                and frames[0].value.denominator != 1]
    assert of_shape and [(m, v) for m, v, *_ in res["failures"]] == [(4, v) for v in of_shape]


# -- export ----------------------------------------------------------------

def test_lineage_json_shape():
    obj = lineage_to_json(lineage_extract(Fr(2, 5), 3))
    assert [m["a"] + "/" + m["b"] for m in obj["members"]] == ["1/2", "1/3", "2/5"]
    assert obj["f"] == [1, 0, 1] and obj["g"] == [0, 1, 1]
    assert obj["zeta"] == [1] and obj["vanishing"] is False
    assert obj["F"] == [["1"], [], ["0", "0", "1"]]
    assert obj["G"] == [[], ["1"], ["1"]]
