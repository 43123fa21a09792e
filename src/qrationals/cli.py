"""Command-line surface for the qrationals library.

Every verb maps onto one library operation set; no numeric logic lives here.
Exit status: 0 = success / every requested check passed, 1 = a verification
failed, 2 = usage error (malformed fraction, out-of-range order, non-coprime
input).  Fractions are accepted only as "a/b" or a bare integer — never
decimals — so no precision is lost at the boundary.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from .exact import IntPoly, derivative_at_one, rat_to_str
from .qdeform import deform, qrational_to_json
from .sbtree import (
    build_qtree,
    equivalence_mismatches,
    identity_sweep,
    lagrange_coefficients,
    lineage_extract,
    lineage_to_json,
)
from .closedforms import bridge_mismatches, d1_closed, d2_closed, derivative_report
from .dedekind import (
    battery_report_csv,
    battery_sweep,
    h_val,
    reciprocity_sweep,
    s_sum,
)
from .fit import (
    D1_FEATURE_NAMES,
    D2_FEATURE_NAMES,
    default_d1_samples,
    default_d2_samples,
    fit_d1,
    fit_d2,
    plot_data_csv,
)

__all__ = ["main", "SWEEP_DEPTH_ENV"]

# Default depth for the depth-driven check sweeps; --depth always wins.
SWEEP_DEPTH_ENV = "QRAT_SWEEP_DEPTH"

_FRACTION_RE = re.compile(r"[+-]?\d+(/\d+)?")


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with "-" and a digit, such as -1/2, as a
    value; plain argparse takes only negative integers and decimals so."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _fraction(text: str) -> Fraction:
    """argparse type for exact fraction arguments."""
    if not _FRACTION_RE.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a fraction; write a/b or an integer (no decimals)")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError("denominator must be nonzero") from None


def _coeffs(p: IntPoly) -> str:
    return "[" + ",".join(map(str, p.coeffs)) + "]"


def _sweep_depth(args, fallback: int) -> int:
    if args.depth is not None:
        return args.depth
    raw = os.environ.get(SWEEP_DEPTH_ENV)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SWEEP_DEPTH_ENV} must be an integer, got {raw!r}") from None


# --------------------------------------------------------------------------
# Verbs
# --------------------------------------------------------------------------

def _cmd_deform(args) -> int:
    qr = deform(args.x)
    if args.json:
        print(json.dumps(qrational_to_json(qr)))
    else:
        print(f"num {_coeffs(qr.deform.num)}, den {_coeffs(qr.deform.den)}")
    return 0


def _cmd_derive(args) -> int:
    x = args.x
    rf = deform(x).deform
    if args.order == 0:
        exact, closed = rf.value_at_one(), x
    elif args.order == 1:
        exact, closed = derivative_at_one(rf, 1), d1_closed(x)
    else:
        exact, closed = (derivative_at_one(rf, 2),
                         d2_closed(x.numerator, x.denominator))
    ok = exact == closed
    print(f"exact {rat_to_str(exact)}, closed {rat_to_str(closed)}, "
          + ("match" if ok else "MISMATCH"))
    return 0 if ok else 1


def _cmd_tree(args) -> int:
    nodes = build_qtree(args.start, args.depth)
    if args.json:
        print(json.dumps([qrational_to_json(n) for n in nodes]))
    else:
        for n in nodes:
            print(f"{rat_to_str(n.value)}\tdepth={n.depth}\tpath={n.path}\t"
                  f"num {_coeffs(n.deform.num)}, den {_coeffs(n.deform.den)}")
    return 0


def _cmd_lineage(args) -> int:
    if args.order < 2:
        raise ValueError("lineage order must be >= 2")
    lin = lineage_extract(args.x, args.order)
    C = None if lin.vanishing else lagrange_coefficients(lin)
    if args.json:
        obj = lineage_to_json(lin)
        obj["C"] = None if C is None else [rat_to_str(c) for c in C]
        print(json.dumps(obj))
        return 0
    print("members:", " ".join(rat_to_str(mem.value) for mem in lin.members))
    print("F:", " | ".join(str(p) for p in lin.Fpoly))
    print("G:", " | ".join(str(p) for p in lin.Gpoly))
    print("f:", " ".join(map(str, lin.f)))
    print("g:", " ".join(map(str, lin.g)))
    print("zeta:", " ".join(map(str, lin.zeta)) if lin.zeta else "-")
    print("xi:", " ".join(map(str, lin.xi)) if lin.xi else "-")
    print("vanishing:", "yes" if lin.vanishing else "no")
    print("C:", "undefined (vanishing lineage)" if C is None
          else " ".join(rat_to_str(c) for c in C))
    return 0


def _check_derivatives(order: int, max_b: int) -> int:
    name = f"thm{order}"
    mkey, ekey, ckey = f"d{order}_match", f"exact_d{order}", f"closed_d{order}"
    count = 0
    for row in derivative_report(max_b):
        count += 1
        if not row[mkey]:
            print(f"FAIL {name}: counterexample {row['a']}/{row['b']}: "
                  f"exact {rat_to_str(row[ekey])}, closed {rat_to_str(row[ckey])}")
            return 1
    print(f"PASS {name}: order-{order} closed form matches the exact derivative "
          f"on all {count} reduced a/b with b <= {max_b}, 0 <= a <= 2b")
    return 0


def _check_equivalence(depth: int) -> int:
    bad = equivalence_mismatches(depth)
    if bad:
        print(f"FAIL appendixA: constructions disagree at {rat_to_str(bad[0])} "
              f"(depth <= {depth})")
        return 1
    total = 2 ** (depth + 1) - 1
    print(f"PASS appendixA: weighted-mediant and continued-fraction "
          f"constructions agree on all {total} nodes to depth {depth}")
    return 0


def _check_delta(depth: int) -> int:
    res = identity_sweep(depth)
    if res["failures"]:
        print(f"FAIL delta: first violation {res['failures'][0]}")
        return 1
    c = res["checked"]
    print(f"PASS delta: residual and moment identities hold on {c[4]} order-4 "
          f"and {c[5]} order-5 lineages to depth {depth}")
    return 0


def _check_dedekind(max_b: int) -> int:
    bad_r = reciprocity_sweep(max_b)
    if bad_r:
        print(f"FAIL dedekind: reciprocity residual nonzero at (p, q) = {bad_r[0]}")
        return 1
    for name, pairs in bridge_mismatches(max_b).items():
        if pairs:
            print(f"FAIL dedekind: {name} bridge fails at (a, b) = {pairs[0]}")
            return 1
    bad_b = battery_sweep(max_b)
    if bad_b:
        row = bad_b[0]
        print(f"FAIL dedekind: identity {row['identity']} {row['params']} "
              f"has residual {rat_to_str(row['residual'])}")
        return 1
    print(f"PASS dedekind: reciprocity, lattice-sum bridges, and the identity "
          f"battery all hold up to {max_b}")
    return 0


def _cmd_check(args) -> int:
    target = args.target
    if target in ("thm1", "thm2"):
        max_b = 30 if args.max_denominator is None else args.max_denominator
        return _check_derivatives(1 if target == "thm1" else 2, max_b)
    if target == "appendixA":
        return _check_equivalence(_sweep_depth(args, fallback=8))
    if target == "delta":
        return _check_delta(_sweep_depth(args, fallback=6))
    max_b = 10 if args.max_denominator is None else args.max_denominator
    return _check_dedekind(max_b)


def _cmd_dedekind(args) -> int:
    if args.kind == "battery":
        if math.gcd(args.p, args.q) != 1:
            raise ValueError(f"{args.p} and {args.q} must be coprime")
        sys.stdout.write(battery_report_csv(args.p, args.q))
        return 0
    if args.i < 0 or args.j < 0:
        raise ValueError("indices must be nonnegative")
    if args.b < 1:
        raise ValueError("modulus must be >= 1")
    if math.gcd(args.a, args.b) != 1:
        raise ValueError(f"{args.a} and {args.b} must be coprime")
    fn = s_sum if args.kind == "s" else h_val
    print(rat_to_str(fn(args.i, args.j, args.a, args.b)))
    return 0


def _cmd_fit(args) -> int:
    if args.which == "d1":
        names, coeffs = D1_FEATURE_NAMES, fit_d1(default_d1_samples())
    else:
        names, coeffs = D2_FEATURE_NAMES, fit_d2(default_d2_samples())
    if args.json:
        print(json.dumps({n: rat_to_str(c) for n, c in zip(names, coeffs)}))
    else:
        for n, c in zip(names, coeffs):
            print(f"{n}: {rat_to_str(c)}")
    return 0


def _cmd_plot(args) -> int:
    sys.stdout.write(plot_data_csv(args.depth, args.order, args.start))
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qrat",
        description="Exact q-deformed rationals: deformations, derivatives at "
                    "q = 1, identity verification sweeps, Dedekind sums, "
                    "coefficient fits, and plot-data export.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("deform", help="canonical polynomial pair of [a/b]_q")
    p.add_argument("x", type=_fraction, help="rational, as a/b or an integer")
    p.add_argument("--json", action="store_true", help="emit the full record")
    p.set_defaults(func=_cmd_deform)

    p = sub.add_parser("derive", help="exact vs closed-form derivative at q = 1")
    p.add_argument("x", type=_fraction)
    p.add_argument("--order", type=int, choices=(0, 1, 2), default=1)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("tree", help="q-deformed tree nodes between start and start+1")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("lineage", help="ancestor chain with weight tables and C_i")
    p.add_argument("x", type=_fraction)
    p.add_argument("--order", type=int, default=4, help="chain length m >= 2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lineage)

    p = sub.add_parser("check", help="run a verification sweep")
    p.add_argument("target", choices=("thm1", "thm2", "appendixA", "dedekind", "delta"))
    p.add_argument("--max-denominator", type=int, default=None,
                   help="sweep bound for thm1/thm2/dedekind (defaults 30/30/10)")
    p.add_argument("--depth", type=int, default=None,
                   help=f"tree depth for appendixA/delta (defaults 8/6, "
                        f"or ${SWEEP_DEPTH_ENV})")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dedekind", help="evaluate generalized Dedekind sums")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, blurb in (("s", "lattice sum s_{i,j}(a, b)"),
                        ("h", "normalized sum h_{i,j}(a, b)")):
        k = kinds.add_parser(kind, help=blurb)
        k.add_argument("i", type=int)
        k.add_argument("j", type=int)
        k.add_argument("a", type=int)
        k.add_argument("b", type=int)
    k = kinds.add_parser("battery", help="identity battery at (p, q) as CSV")
    k.add_argument("p", type=int)
    k.add_argument("q", type=int)
    p.set_defaults(func=_cmd_dedekind)

    p = sub.add_parser("fit", help="recover derivative-formula coefficients exactly")
    p.add_argument("which", choices=("d1", "d2"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("plot", help="CSV of (x, value, b, depth) over tree nodes")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--order", type=int, choices=(0, 1, 2), default=1)
    p.add_argument("--start", type=int, default=0)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
