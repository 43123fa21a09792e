"""Acceptance gate: the nine headline verification sweeps, every comparison
exact (Fraction / integer-polynomial arithmetic, no tolerances anywhere).

Each test prints one PASS/FAIL summary line; run pytest with -s to see the
lines for passing tests, or read them from the captured output on failure.
Tests 01, 02 and 09 run the registry's thm1, thm2 and integrality sweeps,
the code behind `qrat check` and scripts/verify_all.py, and pin their lines.
"""
import math
from fractions import Fraction as Fr

from qrationals.closedforms import (
    bridge_mismatches,
    d1_closed,
    d2_closed,
    denominator_derivative,
    lemma_calibration,
    numerator_derivative,
)
from qrationals.dedekind import battery_sweep, reciprocity_sweep
from qrationals.fit import default_d1_samples, default_d2_samples, fit_d1, fit_d2
from qrationals.sbtree import (
    build_qtree,
    delta_identity_residual,
    derivative_identity_residual,
    equivalence_mismatches,
    identity_correction,
    identity_sweep,
    lagrange_coefficients,
    lineage_extract,
)
from qrationals.sweeps import SWEEPS

SWEEP_MAX_B = 40
SWEEP = {s.name: s for s in SWEEPS}
DOMAIN = f"on all 981 reduced a/b with b <= {SWEEP_MAX_B}, 0 <= a <= 2b"

# canonical polynomial table of the tree between 0 and 1, down to depth 3,
# cross-checked against an independent CAS construction (see the crosscheck
# test module); coefficient lists are ascending in q
TREE_TABLE = {
    Fr(1, 2): ([0, 1], [1, 1]),
    Fr(1, 3): ([0, 0, 1], [1, 1, 1]),
    Fr(2, 3): ([0, 1, 1], [1, 1, 1]),
    Fr(1, 4): ([0, 0, 0, 1], [1, 1, 1, 1]),
    Fr(2, 5): ([0, 0, 1, 1], [1, 1, 2, 1]),
    Fr(3, 5): ([0, 1, 1, 1], [1, 2, 1, 1]),
    Fr(3, 4): ([0, 1, 1, 1], [1, 1, 1, 1]),
    Fr(1, 5): ([0, 0, 0, 0, 1], [1, 1, 1, 1, 1]),
    Fr(2, 7): ([0, 0, 0, 1, 1], [1, 1, 2, 2, 1]),
    Fr(3, 8): ([0, 0, 1, 1, 1], [1, 2, 2, 2, 1]),
    Fr(3, 7): ([0, 0, 1, 1, 1], [1, 1, 2, 2, 1]),
    Fr(4, 7): ([0, 1, 1, 1, 1], [1, 2, 2, 1, 1]),
    Fr(5, 8): ([0, 1, 1, 2, 1], [1, 2, 2, 2, 1]),
    Fr(5, 7): ([0, 1, 2, 1, 1], [1, 2, 2, 1, 1]),
    Fr(4, 5): ([0, 1, 1, 1, 1], [1, 1, 1, 1, 1]),
}


def _verdict(ok: bool, label: str) -> None:
    print(("PASS " if ok else "FAIL ") + label)
    assert ok, label


def _registry_verdict(name: str, want: str, extra_ok: bool = True, extra: str = "") -> None:
    """Run registry sweep `name` at the acceptance bound and pin its line."""
    line = SWEEP[name].run(SWEEP_MAX_B).line
    _verdict(line == f"PASS {name}: {want}" and extra_ok, line.split(" ", 1)[1] + extra)


def test_01_first_derivative_closed_form():
    _registry_verdict("thm1", f"order-1 closed form matches the exact derivative {DOMAIN}")


def test_02_second_derivative_closed_form():
    anchors = (
        d2_closed(1, 2) == Fr(-1, 4)
        and d2_closed(1, 3) == Fr(-2, 9)
        and d2_closed(2, 5) == Fr(-44, 125)
        and d2_closed(3, 8) == Fr(-5, 16)
        and d2_closed(5, 13) == Fr(-764, 2197)
        and d2_closed(3, 2) == Fr(1, 4))
    _registry_verdict("thm2", f"order-2 closed form matches the exact derivative {DOMAIN}",
                      anchors, "; plus six pinned anchor values")


def test_03_tree_reproduces_polynomial_table():
    nodes = build_qtree(0, 3)
    got = {n.value: (list(n.deform.num.coeffs), list(n.deform.den.coeffs))
           for n in nodes}
    deep = [n for n in nodes if n.depth == 3]
    shape_ok = all(
        n.deform.num.degree() == 4 and n.deform.num.leading() == 1
        and n.deform.den.degree() == 4 and n.deform.den.leading() == 1
        for n in deep)
    _verdict(
        got == TREE_TABLE and len(nodes) == 15 and len(deep) == 8 and shape_ok,
        "depth-3 tree reproduces the 15-entry polynomial table bit-exactly; "
        "all 8 depth-3 entries have degree-4, monic numerator and denominator")


def test_04_constructions_agree():
    depth = 12
    bad = equivalence_mismatches(depth)
    _verdict(
        bad == [],
        f"weighted-mediant and continued-fraction constructions are "
        f"polynomial-identical on all {2 ** (depth + 1) - 1} tree nodes to "
        f"depth {depth} ({len(bad)} mismatches)")


def test_05_exact_coefficient_recovery():
    got1 = fit_d1(default_d1_samples())
    got2 = fit_d2(default_d2_samples())
    want1 = (Fr(1, 2), Fr(-1, 2), Fr(1, 2), Fr(-1, 2))
    want2 = (Fr(0), Fr(-1), Fr(0), Fr(1, 3), Fr(1), Fr(0), Fr(-1),
             Fr(0), Fr(5, 3), Fr(-1), Fr(-20))
    _verdict(
        got1 == want1 and got2 == want2,
        "exact coefficient recovery: first-derivative ansatz gives "
        "(1/2, -1/2, 1/2, -1/2); second-derivative ansatz gives the 11-term "
        "vector with lattice-sum weight -20")


def test_06_corrected_linear_dependence_identities():
    res = identity_sweep(10)
    sweep_ok = res["failures"] == [] and res["checked"] == {4: 2008, 5: 1976}

    c4 = lagrange_coefficients(lineage_extract(Fr(3, 7), 4))
    c5 = lagrange_coefficients(lineage_extract(Fr(4, 11), 5))
    multisets_ok = sorted(c4) == [-1, 2, 2] and sorted(c5) == [-3, 1, 3, 6]

    # pinned counterexamples: without the correction term the dependence
    # fails, and the correction predicts the residual exactly
    lin4 = lineage_extract(Fr(3, 8), 4)
    pin4 = (delta_identity_residual(lin4) == Fr(1, 64)
            and derivative_identity_residual(lin4) == Fr(1, 64)
            and identity_correction(lin4) == Fr(1, 64))
    lin5 = lineage_extract(Fr(5, 13), 5)
    pin5 = (delta_identity_residual(lin5) == Fr(3836, 2197)
            and derivative_identity_residual(lin5) == Fr(-40, 2197)
            and identity_correction(lin5) == Fr(-40, 2197))

    _verdict(
        sweep_ok and multisets_ok and pin4 and pin5,
        f"corrected linear-dependence identities hold on all "
        f"{res['checked'][4]} order-4 and {res['checked'][5]} order-5 "
        f"non-vanishing lineages to depth 10; coefficient multisets and both "
        f"literal counterexample residuals are pinned")


def test_07_reciprocity_bridges_battery():
    bad_r = reciprocity_sweep(30)
    bridges = bridge_mismatches(60)
    bad_b = battery_sweep(20)
    _verdict(
        bad_r == [] and bad_b == []
        and bridges == {"substitution": [], "symmetry": [], "zero_sum": []},
        "generalized Dedekind sums: (4,1)-reciprocity holds on all coprime "
        "pairs <= 30, all three lattice-sum bridges hold for b <= 60, and "
        "the identity battery passes for all coprime pairs <= 20")


def test_08_calibration_stable_and_quotient_gate():
    cal1 = lemma_calibration(20)
    cal2 = lemma_calibration(20)
    small = [(a, b) for b in range(1, 9) for a in range(1, b + 1)
             if math.gcd(a, b) == 1]
    frozen_ok = (
        cal1["numerator"]["mediants"][:15] == [
            (1, 1), (1, 3), (1, 4), (1, 5), (2, 5), (3, 5), (1, 6),
            (1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (1, 8), (3, 8), (5, 8)]
        and [p for p in cal1["numerator"]["depth"] if p[1] <= 8] == small)
    gate_ok = all(
        numerator_derivative(a, b) * b - a * denominator_derivative(a, b)
        == b * b * d1_closed(Fr(a, b))
        for a, b in ((a, b) for b in range(1, 21) for a in range(1, b + 1)
                     if math.gcd(a, b) == 1))
    _verdict(
        cal1 == cal2 and frozen_ok and gate_ok,
        "depth-formula calibration is deterministic with the pinned mismatch "
        "sets, and the quotient-rule combination a'(1)b - ab'(1) = b^2 d1 "
        "holds for every reduced a/b with b <= 20")


def test_09_cleared_second_derivative_is_integral():
    _registry_verdict("integrality", f"b^3 times the order-2 closed form is an integer {DOMAIN}")
