"""Test-side oracles: the adjacency-checked Farey mediant, the weighted
mediant of two canonical pairs, ℤ[q] sums, shifts and products, the
quotient-rule derivative, the value of a continued fraction, a node's
Stern–Brocot parents by its convergents, Thomae's function, the literal
lattice and bracket sums and closed forms, the literal h, reciprocity
residual and identity-battery rows, and the literal Fraction forms of the
lineage identity (Lagrange coefficients, residual and correction).

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
F + f²·G − 20·s₁,₃.  literal_s_sum is the O(b) defining sum of s_{i,j},
with its own periodic Bernoulli factor (literal_periodic_bernoulli, from
bernoulli_number alone), so it shares no cleared Bernoulli row with the
s_sum loop it checks.  The package's h_val adds the completion B_i·B_j
under a branch and divides once, and its reciprocity residual writes the
formula's two halves as one function of (i, j, p, q); literal_h,
literal_reciprocity_residual and literal_battery here take h as the
documented normalization over a given s (literal_s_sum unless given), both
halves written out, and every battery row from its identity as stated, so a
test can feed both sides the same faulty s.  The package's bracket sums are
one integer pass each; literal_bracket_weight_sum and literal_zero_sum here
take one Fraction per term, with ⟨n/a⟩_b from a given multiplier in place
of a^{−1}.

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
from functools import lru_cache
from itertools import zip_longest

from qrationals import sbtree
from qrationals.dedekind import BATTERY_WEIGHT, bernoulli_number, s_sum
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


def stern_brocot_parents(x) -> tuple[Fraction, Fraction]:
    """(shallow, deep): the two Stern–Brocot parents of a non-integer x,
    from its value alone by the convergents p_k/q_k of its continued
    fraction [a_0; a_1, ..., a_n] (Euclid's algorithm, a_n ≥ 2).  The
    shallow parent is p_{n−1}/q_{n−1} = [a_0; ..., a_{n−1}], a_n levels
    up; the deep one, the node's ancestor one level up, is
    (p_n − p_{n−1})/(q_n − q_{n−1}) = [a_0; ..., a_n − 1]."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    p, q, p_prev, q_prev = 1, 0, 0, 1  # p_{−1}/q_{−1} and p_{−2}/q_{−2}
    while b:
        t, a, b = a // b, b, a % b
        p, q, p_prev, q_prev = t * p + p_prev, t * q + q_prev, p, q
    return Fraction(p_prev, q_prev), Fraction(p - p_prev, q - q_prev)


def thomae(x) -> Fraction:
    """Thomae's function f(a/b) = 1/b on the reduced a/b (1 on integers)."""
    return Fraction(1, Fraction(x).denominator)


@lru_cache(maxsize=None)
def literal_periodic_bernoulli(i, x) -> Fraction:
    """B̄_i(x) = Σ_k C(i, k)·B_k·{x}^{i−k} with {x} the fractional part of
    x, one Fraction per term (memoized, as the literal sums revisit the same
    points)."""
    x = Fraction(x)
    x -= math.floor(x)
    return sum((math.comb(i, k) * bernoulli_number(k) * x ** (i - k) for k in range(i + 1)),
               Fraction(0))


def literal_s_sum(i, j, a, b) -> Fraction:
    """The defining sum Σ_{n=1}^{b−1} B̄_i(n/b)·B̄_j(a·n/b) of s_{i,j}, term
    by term: the O(b) oracle for the Dedekind kernel."""
    return sum((literal_periodic_bernoulli(i, Fraction(n, b))
                * literal_periodic_bernoulli(j, Fraction(a * n, b))
                for n in range(1, b)), Fraction(0))


def literal_h(i, j, a, b, s=literal_s_sum) -> Fraction:
    """h_{i,j}(a, b) = (−1)^{i+j}/(i!·j!)·(s_{i,j}(a, b) + (1 − d_{i,j})·B_i·B_j),
    d_{i,j} = 1 iff i = 1 or j = 1, with s_{i,j} = s(i, j, a, b)."""
    d = 1 if i == 1 or j == 1 else 0
    return (Fraction((-1) ** (i + j), math.factorial(i) * math.factorial(j))
            * (s(i, j, a, b) + (1 - d) * bernoulli_number(i) * bernoulli_number(j)))


def literal_reciprocity_residual(i, j, p, q, s=literal_s_sum) -> Fraction:
    """Left minus right side of the two-index reciprocity formula (Apostol,
    Duke Math. J. 17, 1950), term by term, over literal_h with the given s:

        −q^{i−1} Σ_{u=0}^{j} C(i−1+u, i−1)·h_{i−1+u, j−u}(p, q)·(−p)^u
        + p^{j−1} Σ_{v=0}^{i} C(j−1+v, j−1)·h_{j−1+v, i−v}(q, p)·(−q)^v
        = (−1)^{j−1}·[B_{i−1}B_j/((i−1)!·j!)·q + B_i·B_{j−1}/(i!·(j−1)!)·p]
    """
    B, fact = bernoulli_number, math.factorial
    lhs = Fraction(0)
    for u in range(j + 1):
        lhs -= (q ** (i - 1) * math.comb(i - 1 + u, i - 1)
                * literal_h(i - 1 + u, j - u, p, q, s) * (-p) ** u)
    for v in range(i + 1):
        lhs += (p ** (j - 1) * math.comb(j - 1 + v, j - 1)
                * literal_h(j - 1 + v, i - v, q, p, s) * (-q) ** v)
    rhs = (-1) ** (j - 1) * (B(i - 1) * B(j) / (fact(i - 1) * fact(j)) * q
                             + B(i) * B(j - 1) / (fact(i) * fact(j - 1)) * p)
    return lhs - rhs


def literal_battery(p, q, s=literal_s_sum) -> list[dict]:
    """check_identities(p, q)'s records, in its order, over literal_h with
    the given s, W = BATTERY_WEIGHT and S = s + B_i·B_j the inclusive sum:

        even_boundary  h_{i,0}(p, q) − (B_i/i!)·q^{1−i}, then h_{0,i}, even i ≤ W
        parity         h_{i,j}(−p, q) − (−1)^j·h_{i,j}(p, q),  i + j ≤ W
        shift          h_{i,j}(p + q, q) − h_{i,j}(p, q),      i + j ≤ W
        duplication    S(p, 2q) + S(p + q, 2q) + 2^{1−j}·S(2p, q)
                       − (2 + 2^{2−i−j})·S(p, q),             i + j = W
    """
    W, B = BATTERY_WEIGHT, bernoulli_number
    rows = []

    def add(name, params, residual):
        rows.append({"identity": name, "params": params,
                     "residual": residual, "ok": residual == 0})

    def h(i, j, a):
        return literal_h(i, j, a, q, s)

    for i in range(2, W + 1, 2):
        want = B(i) / math.factorial(i) * Fraction(q) ** (1 - i)
        add("even_boundary", (i, 0, p, q), h(i, 0, p) - want)
        add("even_boundary", (0, i, p, q), h(0, i, p) - want)
    for i in range(W + 1):
        for j in range(W + 1 - i):
            add("parity", (i, j, p, q), h(i, j, -p) - (-1) ** j * h(i, j, p))
            add("shift", (i, j, p, q), h(i, j, p + q) - h(i, j, p))
    for i in range(W + 1):
        j = W - i

        def S(a, b):
            return s(i, j, a, b) + B(i) * B(j)

        add("duplication", (i, j, p, q),
            S(p, 2 * q) + S(p + q, 2 * q) + Fraction(2) ** (1 - j) * S(2 * p, q)
            - (2 + Fraction(2) ** (2 - i - j)) * S(p, q))
    return rows


def H(x) -> Fraction:
    """Lattice-sum weight x²(1 − x) of the second-derivative closed form."""
    x = Fraction(x)
    return x * x * (1 - x)


def literal_bracket(n, inv, b) -> Fraction:
    """⟨n/a⟩_b = (a^{−1}·n mod b)/b − 1/2, with inv in place of a^{−1}."""
    return Fraction(inv * n % b, b) - Fraction(1, 2)


def literal_bracket_weight_sum(inv, b) -> Fraction:
    """Σ_{n=1}^{b−1} ⟨n/a⟩_b·H(n/b), term by term, with inv in place of
    a^{−1}."""
    return sum((literal_bracket(n, inv, b) * H(Fraction(n, b)) for n in range(1, b)),
               Fraction(0))


def literal_zero_sum(inv, b) -> Fraction:
    """Σ_{n=1}^{b−1} ⟨n/a⟩_b·(n/b)(1 − n/b), term by term, with inv in place
    of a^{−1}: 0 whenever inv is a unit mod b, since n → b − n flips the
    sign of every term."""
    return sum((literal_bracket(n, inv, b) * Fraction(n, b) * (1 - Fraction(n, b))
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
