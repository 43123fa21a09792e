#!/usr/bin/env python3
"""Recover the derivative-formula coefficients from sample data and show that
the recovered formulas reproduce the exact engine on a fresh sweep.

The first-derivative ansatz is  d1 = α·x² + β·x + γ + δ·f(x)²  with f
Thomae's function; the second-derivative ansatz has ten polynomial features
in (a, b) plus one lattice-sum column.  Both systems are solved exactly over
the rationals — the coefficients below are not rounded.
"""
import math
import sys
from fractions import Fraction

from qrationals.closedforms import d1_closed, d2_closed
from qrationals.exact import rat_to_str
from qrationals.fit import (
    D1_FEATURE_NAMES,
    D2_FEATURE_NAMES,
    RankDeficientError,
    _d1_features,
    _d2_features,
    default_d1_samples,
    default_d2_samples,
    fit_d1,
    fit_d2,
)


def show(names, coeffs):
    for n, c in zip(names, coeffs):
        print(f"    {n:<8} {rat_to_str(c)}")


def main() -> int:
    print("first-derivative ansatz")
    d1 = fit_d1(default_d1_samples())
    show(D1_FEATURE_NAMES, d1)

    print("\n  integer samples alone are rank-deficient "
          "(f(x) = 1 collapses two columns):")
    try:
        fit_d1([1, 2, 3, 4, 5])
        print("    unexpectedly solvable!")
        return 1
    except RankDeficientError as exc:
        print(f"    RankDeficientError: {exc}")

    print("\nsecond-derivative ansatz")
    d2 = fit_d2(default_d2_samples())
    show(D2_FEATURE_NAMES, d2)

    # reassemble both formulas and compare with the library closed forms on
    # denominators the fit never saw
    bad = 0
    checked = 0
    for b in range(8, 30):
        for a in range(0, 2 * b + 1):
            if math.gcd(a, b) != 1:
                continue
            checked += 1
            x = Fraction(a, b)
            v1 = sum(c * f for c, f in zip(d1, _d1_features(x)))
            v2 = sum(c * f for c, f in zip(d2, _d2_features(a, b)))
            if v1 != d1_closed(x) or v2 != d2_closed(a, b):
                bad += 1
    print(f"\nout-of-sample agreement with the closed forms: "
          f"{checked - bad}/{checked} fractions (8 <= b < 30)")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
