#!/usr/bin/env python3
"""One-shot reproduction of every headline verification sweep.

Runs the same checks as the acceptance test suite, at the same bounds, and
prints one timed line per claim.  Pass --scale to multiply the sweep bounds
(e.g. --scale 2 doubles every bound; expect roughly cubic growth in runtime).

Everything is exact rational / integer-polynomial arithmetic; a single
counterexample anywhere exits nonzero.
"""
import argparse
import sys
import time
from fractions import Fraction

from qrationals.closedforms import bridge_mismatches, derivative_report, lemma_calibration
from qrationals.dedekind import battery_sweep, reciprocity_sweep
from qrationals.fit import default_d1_samples, default_d2_samples, fit_d1, fit_d2
from qrationals.sbtree import equivalence_mismatches, identity_sweep

D1_WANT = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2))
D2_WANT = (Fraction(0), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1),
           Fraction(0), Fraction(-1), Fraction(0), Fraction(5, 3), Fraction(-1),
           Fraction(-20))


def timed(label):
    def wrap(fn):
        def run():
            t0 = time.perf_counter()
            ok, detail = fn()
            dt = time.perf_counter() - t0
            print(f"{'PASS' if ok else 'FAIL'}  {label:<44} {detail:<28} {dt:6.2f}s")
            return ok
        return run
    return wrap


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=1,
                    help="multiply every sweep bound (default 1)")
    args = ap.parse_args()
    s = args.scale

    @timed("derivative closed forms (orders 1 and 2)")
    def derivatives():
        rows = list(derivative_report(40 * s))
        bad = [r for r in rows if not (r["d1_match"] and r["d2_match"])]
        intl = [r for r in rows if (r["b"] ** 3 * r["closed_d2"]).denominator != 1]
        return not bad and not intl, f"{len(rows)} fractions, b <= {40 * s}"

    @timed("construction equivalence on the tree")
    def equivalence():
        depth = 12 + (s - 1)
        return equivalence_mismatches(depth) == [], \
            f"{2 ** (depth + 1) - 1} nodes, depth {depth}"

    @timed("corrected linear-dependence identities")
    def identities():
        res = identity_sweep(10 + (s - 1))
        n4, n5 = res["checked"][4], res["checked"][5]
        return res["failures"] == [], f"{n4} order-4, {n5} order-5"

    @timed("coefficient recovery (both ansatzes)")
    def fits():
        ok = (fit_d1(default_d1_samples()) == D1_WANT
              and fit_d2(default_d2_samples()) == D2_WANT)
        return ok, "4-term and 11-term systems"

    @timed("two-index reciprocity")
    def reciprocity():
        bound = 30 * s
        return reciprocity_sweep(bound) == [], f"coprime pairs <= {bound}"

    @timed("lattice-sum bridges")
    def bridges():
        bound = 60 * s
        out = bridge_mismatches(bound)
        return all(v == [] for v in out.values()), f"b <= {bound}, 3 bridges"

    @timed("identity battery")
    def battery():
        bound = 20 * s
        return battery_sweep(bound) == [], f"coprime pairs <= {bound}"

    @timed("depth-formula calibration determinism")
    def calibration():
        bound = 20 * s
        return lemma_calibration(bound) == lemma_calibration(bound), f"b <= {bound}"

    checks = (derivatives, equivalence, identities, fits,
              reciprocity, bridges, battery, calibration)
    results = [chk() for chk in checks]
    print(f"\n{sum(results)}/{len(results)} sweeps clean")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
