#!/usr/bin/env python3
"""One-shot reproduction of every headline verification sweep.

Runs each sweep of the qrationals.sweeps registry at its acceptance bound and
prints its time and PASS/FAIL line; a FAIL line names the first counterexample
and both sides, and exits nonzero.  --scale N multiplies every denominator
bound by N and adds N − 1 to every tree depth (runtime grows roughly cubically).
"""
import argparse
import sys
import time

from qrationals.sweeps import SWEEPS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=int, default=1,
                    help="grow every sweep bound (default 1)")
    args = ap.parse_args(argv)

    clean = 0
    for sweep in SWEEPS:
        t0 = time.perf_counter()
        verdict = sweep.run(sweep.at_scale(args.scale))
        print(f"{time.perf_counter() - t0:6.2f}s  {verdict.line}")
        clean += verdict.ok
    print(f"\n{clean}/{len(SWEEPS)} sweeps clean")
    return 0 if clean == len(SWEEPS) else 1


if __name__ == "__main__":
    sys.exit(main())
