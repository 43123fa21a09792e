"""Weighted-mediant tree, lineages, Δ_i, and the linear-dependence identity.

The lineage weight tables and residual values here were computed by hand
from the mediant-descent chains; the identity tests pin both the failing
literal zero-residual form and the corrected closed-form residual.
"""
from fractions import Fraction as Fr

import pytest
from hypothesis import assume, given, settings, strategies as st

from qrationals.exact import IntPoly, PoleAtOneError, RatFunc, derivative_at_one, jets_at_one
from qrationals.qdeform import QRational, deform
from qrationals.sbtree import (
    DegenerateWeightsError,
    InsufficientDepthError,
    NonUnimodularError,
    VanishingLineageError,
    Frame,
    _degree_gap,
    _lineage_from_stack,
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
    mediant,
    walk_qtree,
    weighted_mediant,
)
from oracles import poly_mul


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
    ancestor per depth, each frame is the mediant of its two parent frames,
    and the walk visits each node once, in increasing value; sorted, it is
    build_qtree."""
    nodes = []
    for stack in walk_qtree(start, depth):
        node = stack[-1].node
        want = deform(node.value)
        assert (node.value, node.deform, node.depth, node.path) == \
            (want.value, want.deform, want.depth, want.path)
        assert stack[-1].jets == jets_at_one(want.deform, 2)
        assert len(stack) == node.depth + 3
        assert [fr.node for fr in stack[:2]] == [deform(start), deform(start + 1)]
        for k, frame in enumerate(stack[2:], start=2):
            assert frame.lo < k and frame.hi < k
            assert frame.value == mediant(stack[frame.lo].value, stack[frame.hi].value)
        nodes.append(node)
    assert len(nodes) == 2 ** (depth + 1) - 1
    assert all(u.value < v.value for u, v in zip(nodes, nodes[1:]))
    assert sorted(nodes, key=lambda n: (n.depth, n.value)) == build_qtree(start, depth)


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


@pytest.mark.parametrize("start", [-1, 0, 1, 3])
def test_tree_equals_cfrac_construction_on_shifted_windows(start):
    assert equivalence_mismatches(6, start=start) == []


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
    return (poly_mul(F, a1.num) + poly_mul(G, a2.num),
            poly_mul(F, a1.den) + poly_mul(G, a2.den))


def _rebuilt_by_products(lin):
    """𝔉_n·a₁ + 𝔊_n·a₂ = a_n multiplied out, numerators and denominators,
    for every member n."""
    a1, a2 = lin.members[0].deform, lin.members[1].deform
    return all(_combine(F, G, a1, a2) == (mem.deform.num, mem.deform.den)
               for F, G, mem in zip(lin.Fpoly, lin.Gpoly, lin.members))


def _first_member_not_rebuilt(members, zeta):
    """The literal check: build 𝔉_n, 𝔊_n by the weight recurrence over the
    parents n − 1 and ζ_n (the smaller value on the left) and compare
    𝔉_n·a₁ + 𝔊_n·a₂ with member n; the first member that differs, or None."""
    a1, a2 = members[0].deform, members[1].deform
    F, G = [IntPoly([1]), IntPoly()], [IntPoly(), IntPoly([1])]
    for n in range(3, len(members) + 1):
        small, big = sorted((n - 1, zeta[n - 3]), key=lambda k: members[k - 1].value)
        xi = _degree_gap(members[small - 1].deform, members[big - 1].deform)
        F.append(F[small - 1] + F[big - 1].shift(xi))
        G.append(G[small - 1] + G[big - 1].shift(xi))
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
def test_lineage_extract_weights_rebuild_members_by_products(x, m):
    assume(deform(x).depth >= m - 2)
    assert _rebuilt_by_products(lineage_extract(x, m))


def test_corrupted_member_is_rejected_where_the_products_reject_it():
    """Replace one member's pair by another node's: the recurrence check and
    the literal product check reject at the same member, or both accept."""
    stacks = [list(stack) for stack in walk_qtree(0, 5)]
    rejected = accepted = 0
    for i, stack in enumerate(stacks):
        for m in range(2, min(5, stack[-1].node.depth + 2) + 1):
            lin, frames = _lineage_from_stack(stack, m)
            for k in range(1, m + 1):
                other = stacks[(i + 5 * k + 1) % len(stacks)][-1].node
                old = frames[k - 1]
                new = Frame(old.value, old.lo, old.hi)
                new.node = QRational(old.value, other.deform, old.node.depth, old.node.path)
                bad = [new if fr is old else fr for fr in stack]
                members = [*lin.members[:k - 1], new.node, *lin.members[k:]]
                want = _first_member_not_rebuilt(members, lin.zeta)
                if want is None:
                    _lineage_from_stack(bad, m)
                    accepted += 1
                else:
                    with pytest.raises(ValueError, match=f"failed for member {want} of "):
                        _lineage_from_stack(bad, m)
                    rejected += 1
    assert rejected > 3 * accepted


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


# -- export ----------------------------------------------------------------

def test_lineage_json_shape():
    obj = lineage_to_json(lineage_extract(Fr(2, 5), 3))
    assert [m["a"] + "/" + m["b"] for m in obj["members"]] == ["1/2", "1/3", "2/5"]
    assert obj["f"] == [1, 0, 1] and obj["g"] == [0, 1, 1]
    assert obj["zeta"] == [1] and obj["vanishing"] is False
    assert obj["F"] == [["1"], [], ["0", "0", "1"]]
    assert obj["G"] == [[], ["1"], ["1"]]
