"""The verification sweeps, each defined once.

`qrat check [SWEEP ...] [--scale S]` runs the records below;
tests/test_acceptance.py pins the thm1, thm2 and integrality lines and keeps
its own pinned gates for the rest.  A sweep's run(bound) returns a Verdict:
its PASS line with the case counts, or its FAIL line naming the first
counterexample and both sides; thm1's and thm2's FAIL lines also end with the
`qrat derive` command that re-runs just that case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .exact import derivative_at_one, rat_to_str
from . import closedforms
from .closedforms import _unit_pairs, bridge_mismatches
from .dedekind import battery_sweep, reciprocity_residual, reciprocity_sweep
from .fit import (
    RankDeficientError,
    _d1_features,
    _d2_features,
    default_d1_samples,
    default_d2_samples,
    fit_d1,
    fit_d2,
)
from .qdeform import deform
from .sbtree import _equivalence_records, identity_sweep

__all__ = ["Verdict", "Sweep", "SWEEPS"]

D1_WANT = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2))
D2_WANT = tuple(map(Fraction, ("0", "-1", "0", "1/3", "1", "0", "-1", "0", "5/3", "-1", "-20")))


class Verdict(NamedTuple):
    """A sweep's PASS/FAIL line; a failure also carries its first
    counterexample as (case, one side, the other side)."""

    line: str
    counterexample: tuple[str, str, str] | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _pass(name: str, summary: str) -> Verdict:
    return Verdict(f"PASS {name}: {summary}")


def _fail(name: str, case: str, lhs: str, rhs: str, rerun: str = "") -> Verdict:
    line = f"FAIL {name}: counterexample {case}: {lhs}, {rhs}"
    return Verdict(f"{line}; rerun: {rerun}" if rerun else line, (case, lhs, rhs))


def _sweep(max_b: int, min_b: int = 1) -> Iterator[tuple[int, int]]:
    """Reduced pairs (a, b) with min_b ≤ b ≤ max_b, 0 ≤ a ≤ 2b."""
    for b in range(min_b, max_b + 1):
        for a in range(0, 2 * b + 1):
            if math.gcd(a, b) == 1:
                yield a, b


def _closed_form(order: int) -> Callable[[int], Verdict]:
    name = f"thm{order}"

    def run(max_b: int) -> Verdict:
        count = 0
        for a, b in _sweep(max_b):
            x = Fraction(a, b)
            exact = derivative_at_one(deform(x).deform, order)
            closed = closedforms.d1_closed(x) if order == 1 else closedforms.d2_closed(a, b)
            if exact != closed:
                return _fail(name, f"{a}/{b}", f"exact {rat_to_str(exact)}",
                             f"closed {rat_to_str(closed)}",
                             f"qrat derive {a}/{b} --order {order}")
            count += 1
        return _pass(name, f"order-{order} closed form matches the exact derivative on all "
                           f"{count} reduced a/b with b <= {max_b}, 0 <= a <= 2b")
    return run


def _integrality(max_b: int) -> Verdict:
    count = 0
    for a, b in _sweep(max_b):
        cleared = b ** 3 * closedforms.d2_closed(a, b)
        if cleared.denominator != 1:
            return _fail("integrality", f"{a}/{b}", f"b^3 * closed {rat_to_str(cleared)}",
                         "want an integer")
        count += 1
    return _pass("integrality", f"b^3 times the order-2 closed form is an integer on all "
                                f"{count} reduced a/b with b <= {max_b}, 0 <= a <= 2b")


def _equivalence(depth: int) -> Verdict:
    bad = _equivalence_records(depth)
    if bad:
        value, tree, cfrac = bad[0]

        def side(name, pair):
            return f"no {name} node" if pair is None else f"{name} ({pair[0]}) / ({pair[1]})"
        return _fail("appendixA", rat_to_str(value), side("weighted-mediant", tree),
                     side("continued-fraction", cfrac))
    return _pass("appendixA", f"weighted-mediant and continued-fraction constructions "
                              f"agree on all {2 ** (depth + 1) - 1} nodes to depth {depth}")


def _delta(depth: int) -> Verdict:
    res = identity_sweep(depth)
    if res["failures"]:
        m, value, identity, lhs, rhs = res["failures"][0]
        return _fail("delta", f"order-{m} lineage of {rat_to_str(value)}, {identity}",
                     f"lhs {rat_to_str(lhs)}", f"rhs {rat_to_str(rhs)}")
    c = res["checked"]
    return _pass("delta", f"corrected linear-dependence identities hold on {c[4]} "
                          f"order-4 and {c[5]} order-5 lineages to depth {depth}")


def _fits(_bound: None) -> Verdict:
    """The fitted vectors, then the same formulas on the denominators
    8 ≤ b < 30 that no sample has, and the rank deficiency of integer
    samples (f(n) = 1 makes the x² and f² columns collide)."""
    def vector(v):
        return "(" + ", ".join(map(rat_to_str, v)) + ")"

    d1, d2 = fit_d1(default_d1_samples()), fit_d2(default_d2_samples())
    for which, got, want in (("d1", d1, D1_WANT), ("d2", d2, D2_WANT)):
        if got != want:
            return _fail("fits", which, f"fitted {vector(got)}", f"want {vector(want)}")
    try:
        fit_d1([1, 2, 3, 4, 5])
    except RankDeficientError:
        pass
    else:
        return _fail("fits", "d1 on the integers 1..5", "solvable", "want rank-deficient")
    count = 0
    for a, b in _sweep(29, min_b=8):
        x = Fraction(a, b)
        for which, coeffs, feats, closed in (
                ("d1", d1, _d1_features(x), closedforms.d1_closed(x)),
                ("d2", d2, _d2_features(x), closedforms.d2_closed(a, b))):
            fitted = sum(c * f for c, f in zip(coeffs, feats))
            if fitted != closed:
                return _fail("fits", f"{which} at {a}/{b}", f"fitted {rat_to_str(fitted)}",
                             f"closed {rat_to_str(closed)}")
        count += 1
    return _pass("fits", f"both ansatzes recover their coefficients exactly: "
                         f"d1 {vector(D1_WANT)}, d2 {vector(D2_WANT)}; both match the "
                         f"closed forms on all {count} reduced a/b with 8 <= b < 30, "
                         f"0 <= a <= 2b, and integer samples leave d1 rank-deficient")


def _reciprocity(bound: int) -> Verdict:
    bad = reciprocity_sweep(bound)
    if bad:
        residual = rat_to_str(reciprocity_residual(4, 1, *bad[0]))
        return _fail("reciprocity", f"(p, q) = {bad[0]}", f"(4,1) residual {residual}", "want 0")
    return _pass("reciprocity", f"(4,1) reciprocity holds on coprime pairs p, q <= {bound}")


def _bridges(max_b: int) -> Verdict:
    for bridge, cases in bridge_mismatches(max_b).items():
        if cases:
            a, b, lhs, rhs = cases[0]
            return _fail("bridges", f"{bridge} at {a}/{b}", f"lhs {rat_to_str(lhs)}",
                         f"rhs {rat_to_str(rhs)}")
    return _pass("bridges", f"substitution, symmetry and zero-sum bridges hold on "
                            f"reduced a/b with 1 <= a <= b <= {max_b}")


def _battery(bound: int) -> Verdict:
    bad = battery_sweep(bound)
    if bad:
        row = bad[0]
        return _fail("battery", f"{row['identity']} {' '.join(map(str, row['params']))}",
                     f"residual {rat_to_str(row['residual'])}", "want 0")
    return _pass("battery", f"the identity battery holds on coprime pairs p, q <= {bound}")


def _calibration(max_b: int) -> Verdict:
    count = 0
    for a, b in _unit_pairs(max_b):
        lhs = (closedforms.numerator_derivative(a, b) * b
               - a * closedforms.denominator_derivative(a, b))
        rhs = b * b * closedforms.d1_closed(Fraction(a, b))
        if lhs != rhs:
            return _fail("calibration", f"{a}/{b}", f"a'(1)b - ab'(1) {rat_to_str(lhs)}",
                         f"b^2 d1 {rat_to_str(rhs)}")
        count += 1
    return _pass("calibration", f"the quotient-rule combination a'(1)b - ab'(1) = b^2 d1 "
                                f"holds on all {count} reduced a/b with 1 <= a <= b <= {max_b}")


@dataclass(frozen=True)
class Sweep:
    """One verification sweep.  `bound` is its scale-1 bound, the acceptance
    gate's (None: it takes none); at scale s a tree depth grows by s − 1 and
    any other bound by a factor s."""

    name: str
    run: Callable[[int | None], Verdict]
    bound: int | None
    by_depth: bool = False

    def at_scale(self, s: int) -> int | None:
        if self.bound is None:
            return None
        return self.bound + s - 1 if self.by_depth else self.bound * s


# the acceptance sweeps, in the order `qrat check` runs them
SWEEPS = (
    Sweep("thm1", _closed_form(1), 40),
    Sweep("thm2", _closed_form(2), 40),
    Sweep("integrality", _integrality, 40),
    Sweep("appendixA", _equivalence, 12, by_depth=True),
    Sweep("delta", _delta, 10, by_depth=True),
    Sweep("fits", _fits, None),
    Sweep("reciprocity", _reciprocity, 30),
    Sweep("bridges", _bridges, 60),
    Sweep("battery", _battery, 20),
    Sweep("calibration", _calibration, 20),
)
