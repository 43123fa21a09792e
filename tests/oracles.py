"""Test-side oracles: the adjacency-checked Farey mediant, the weighted
mediant of two canonical pairs, ℤ[q] sums, shifts and products, the
quotient-rule derivative, the value of a continued fraction, Thomae's
function, the literal lattice sum and closed forms, and the literal Fraction
forms of the lineage identity (Lagrange coefficients, residual and
correction).

The package's descents take Farey sums of pairs adjacent by construction,
so they skip the check; mediant() here makes it.  The package's IntPoly
negates, divides by q^k and evaluates, but does not add, shift or multiply:
its sums, shifts and products run on packed integers (the
continued-fraction tower, the tree's nodes and the lineage weights).  The
oracles that build polynomials term by term (the literal tower, the weight
recurrence and the product form of the lineage weights, the weighted
mediant, the quotient rule and the Taylor shift) use poly_add, poly_shift
and this schoolbook convolution, which share no code with the packed
integers they check.

The package computes the lineage identity in integers, over the common
denominator L of the Lagrange coefficients and with cleared jets; the
literal forms here take one Fraction per coefficient and per term.

The package's closed forms are one integer numerator over one denominator
each, with s₁,₃ from the Euclid descent; d1_literal and d2_literal here
assemble them from their Fraction parts, (x² − x + 1 − f(x)²)/2 and
F + f²·G − 20·s₁,₃, and literal_s_sum is the O(b) defining sum of s_{i,j}.

The package's identity sweep walks the tree's pairs modulo (2^W − 1)³,
checks each lineage shape once and sums one integer term per member for
the order-5 correction; identity_sweep here walks polynomials, repeats
every check per lineage and takes the correction in its literal Fraction
form (correction, with s₁,₃ from s_sum as imported here).  The package's
lineage_extract jumps along the branch word one run at a time;
lineage_extract_by_search here takes one checked Farey step and keeps one
frame per level, then rebuilds members 3..m by the package's packed build
step.  Both call the package's other helpers through the sbtree module,
so a test that patches one patches both sides.
"""
import math
from fractions import Fraction
from itertools import zip_longest

from qrationals import sbtree
from qrationals.dedekind import periodic_bernoulli, s_sum
from qrationals.exact import IntPoly, RatFunc, _cleared_jets
from qrationals.qdeform import _depth_and_path, to_cfrac


class NonUnimodularError(ValueError):
    """Mediant requested for a pair that is not a tree edge (|αδ − βγ| ≠ 1)."""


def mediant(x, y) -> Fraction:
    """Farey sum (α+γ)/(β+δ) of a unimodular pair."""
    x, y = Fraction(x), Fraction(y)
    a, b = x.numerator, x.denominator
    c, d = y.numerator, y.denominator
    if abs(a * d - b * c) != 1:
        raise NonUnimodularError(f"{x} and {y} are not adjacent on the tree")
    return Fraction(a + c, b + d)


def weighted_mediant(left: RatFunc, right: RatFunc) -> RatFunc:
    """q-deformed mediant of two deformed neighbours (left value < right),
    the right pair weighted by q^n with n the degree gap (sbtree._degree_gap),
    canonicalized."""
    xi = sbtree._degree_gap(left.den.degree(), right.den.degree())
    return RatFunc(poly_add(left.num, poly_shift(right.num, xi)),
                   poly_add(left.den, poly_shift(right.den, xi)))


def poly_add(a: IntPoly, b: IntPoly, sign: int = 1) -> IntPoly:
    """a + sign·b, coefficient by coefficient."""
    return IntPoly(x + sign * y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0))


def poly_shift(p: IntPoly, k: int) -> IntPoly:
    """q^k·p (k ≥ 0)."""
    return IntPoly((0,) * k + p.coeffs)


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """a·b, coefficient by coefficient."""
    if a.is_zero or b.is_zero:
        return IntPoly()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPoly(out)


def derivative(p: IntPoly) -> IntPoly:
    """p′, coefficient by coefficient."""
    return IntPoly(i * c for i, c in enumerate(p.coeffs) if i > 0)


def derivative_at_one_quotient(rf: RatFunc, k: int) -> Fraction:
    """Oracle for derivative_at_one: differentiate n/d k times by the
    symbolic quotient rule, (n′d − nd′)/d², on exact polynomials, then
    evaluate at q = 1.  Quadratic in degree; independent of the series
    method it checks."""
    n, d = rf.num, rf.den
    for _ in range(k):
        n, d = (poly_add(poly_mul(derivative(n), d), poly_mul(n, derivative(d)), -1),
                poly_mul(d, d))
    return Fraction(n(1), d(1))


def cfrac_value(terms) -> Fraction:
    """a_0 + 1/(a_1 + 1/(... + 1/a_m)), bottom-up in Fractions."""
    v = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        v = t + 1 / v
    return v


def thomae(x) -> Fraction:
    """Thomae's function f(a/b) = 1/b on the reduced a/b (1 on integers)."""
    return Fraction(1, Fraction(x).denominator)


def literal_s_sum(i, j, a, b) -> Fraction:
    """The defining sum Σ_{n=1}^{b−1} B̄_i(n/b)·B̄_j(a·n/b) of s_{i,j}, term
    by term: the O(b) oracle for the Dedekind kernel."""
    return sum((periodic_bernoulli(i, Fraction(n, b)) * periodic_bernoulli(j, Fraction(a * n, b))
                for n in range(1, b)), Fraction(0))


def F(x) -> Fraction:
    """Cubic polynomial part x³/3 − x² + 5x/3 − 1 of the second-derivative
    closed form."""
    x = Fraction(x)
    return x ** 3 / 3 - x * x + Fraction(5, 3) * x - 1


def G(x) -> Fraction:
    """Thomae-part multiplier 1 − x of the second-derivative closed form."""
    return 1 - Fraction(x)


def d1_literal(x) -> Fraction:
    """(x² − x + 1 − f(x)²)/2 in Fraction steps."""
    x = Fraction(x)
    return (x * x - x + 1 - thomae(x) ** 2) / 2


def d2_literal(a: int, b: int, s13: Fraction) -> Fraction:
    """F(a/b) + f(a/b)²·G(a/b) − 20·s₁,₃ in Fraction steps, with s₁,₃ given."""
    x = Fraction(a, b)
    return F(x) + thomae(x) ** 2 * G(x) - 20 * s13


def lagrange_coefficients(lin) -> tuple[Fraction, ...]:
    """C_i = Π_{n<m, n≠i} (f_m·g_n − f_n·g_m)/(f_i·g_n − f_n·g_i), i < m, one
    Fraction each."""
    f, g, m = lin.f, lin.g, lin.order

    def w(i: int, n: int) -> int:
        return f[i - 1] * g[n - 1] - f[n - 1] * g[i - 1]

    out = []
    for i in range(1, m):
        num = den = 1
        for n in range(1, m):
            if n != i:
                num *= w(m, n)
                den *= w(i, n)
        out.append(Fraction(num, den))
    return tuple(out)


def scaled_sum(lin, C: tuple[Fraction, ...], values: list[Fraction]) -> Fraction:
    """target value − Σ C_i (b_i/b_m)^{m−2} · member value."""
    m, bm = lin.order, lin.members[-1].value.denominator
    return values[-1] - sum(C[i] * Fraction(lin.members[i].value.denominator, bm) ** (m - 2)
                            * values[i] for i in range(m - 1))


def correction(lin, C: tuple[Fraction, ...], lattice=None) -> Fraction:
    """(ΣC − 1)/(2·b_m²) at order 4, [Λ(b−a) − 20·Λ(b³·s₁,₃)]/b_m³ at order
    5, with Λ(h) = h(member m) − Σ C_i·h(member i) and s₁,₃ = lattice(1, 3,
    a, b), s_sum unless given."""
    lattice = lattice or s_sum
    m = lin.order
    nums = [mem.value.numerator for mem in lin.members]
    dens = [mem.value.denominator for mem in lin.members]
    bm = dens[-1]
    if m == 4:
        return Fraction(sum(C) - 1, 2 * bm * bm)

    def lam(h):
        return h(m - 1) - sum(C[i] * h(i) for i in range(m - 1))

    l_ba = lam(lambda i: Fraction(dens[i] - nums[i]))
    l_s = lam(lambda i: dens[i] ** 3 * lattice(1, 3, nums[i], dens[i]))
    return (l_ba - 20 * l_s) / bm ** 3


def lineage_extract_by_search(x, m: int):
    """sbtree.lineage_extract by the Fraction-level Stern–Brocot search for
    x from ⌊x⌋ and ⌊x⌋ + 1, one checked Farey step and one frame per level
    of depth, each given its depth and path; members 1 and 2 are packed
    from their continued fractions (sbtree._pack), and members 3..m, the
    last m − 2 frames, rebuilt by the package's packed build step.  The
    caller ensures x's depth is at least m − 2."""
    x = Fraction(x)
    path = _depth_and_path(to_cfrac(x))[1]
    stack = [sbtree.Frame(v, 1) for v in (math.floor(x), math.floor(x) + 1)]
    lo, hi = 0, 1
    while stack[lo].value != x:  # invariant: stack[lo] <= x < stack[hi]
        k = len(stack)
        mid = mediant(stack[lo].value, stack[hi].value)
        stack.append(sbtree.Frame(mid.numerator, mid.denominator, lo, hi))
        stack[k].depth, stack[k].path = k - 2, path[:k - 1]
        lo, hi = (lo, k) if x < stack[k].value else (k, hi)
    width = sbtree._window_width(math.floor(x), x.denominator)
    for fr in sbtree._lineage_members(stack, m)[0][:2]:
        sbtree._pack(fr, width)
    for k in range(len(stack) - m + 2, len(stack)):
        fr = stack[k]
        stack[k] = sbtree._packed_frame(width, stack, fr.lo, fr.hi, fr.depth, fr.path)
    return sbtree._lineage_from_stack(stack, m)[0]


def identity_sweep(depth: int) -> dict:
    """sbtree.identity_sweep lineage by lineage on the polynomial walker:
    each lineage's weights, Lagrange numerators and moment identities
    computed anew, and its residual compared as a Fraction with the literal
    correction."""
    checked = {4: 0, 5: 0}
    failures: list[tuple] = []
    for stack in sbtree.walk_qtree(0, depth):
        node = stack[-1]
        for m in (4, 5):
            if node.node.depth < m - 2:
                continue
            frames, parents = sbtree._lineage_members(stack, m)
            if frames[0].value.denominator == 1:  # vanishing
                continue
            checked[m] += 1
            f, g = sbtree._weights(parents, [0] * (m - 2))
            L, c = sbtree._lagrange(f, g)
            scale = sbtree._scale(L, [fr.value for fr in frames])
            resid = Fraction(sbtree._lam(L, c, [_cleared_jets(fr.node.deform, 2)[1][m - 3]
                                                for fr in frames]), scale)
            corr = correction(sbtree._lineage_from_stack(stack, m)[0],
                              tuple(Fraction(ci, L) for ci in c))
            if resid != corr:
                failures.append((m, node.value, "residual", resid, corr))
                continue
            for j in range(m - 1):
                lhs = sum(ci * f[i] ** j * g[i] ** (m - 2 - j) for i, ci in enumerate(c))
                rhs = f[m - 1] ** j * g[m - 1] ** (m - 2 - j)
                if lhs != L * rhs:
                    failures.append((m, node.value, f"moment {j}", Fraction(lhs, L), rhs))
                    break
    return {"checked": checked, "failures": failures}
