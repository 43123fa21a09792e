"""Command-line surface for the qrationals library.

Every verb maps onto one library operation set; no numeric logic lives here.
Exit status: 0 = success / every requested check passed, 1 = a verification
failed (a sweep that raises counts as failed; the others still run), 2 =
usage error (malformed fraction, out-of-range order or scale, unknown sweep,
non-coprime input, or an input past one of the size limits below).
Fractions are accepted only as "a/b" or a bare integer — never decimals — so
no precision is lost at the boundary.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction

from .exact import IntPoly, derivative_at_one, rat_to_str
from .qdeform import deform, qrational_to_json, to_cfrac
from .sbtree import build_qtree, lagrange_coefficients, lineage_extract, lineage_to_json
from .closedforms import d1_closed, d2_closed
from .dedekind import battery_report_csv, h_val, s_sum
from .fit import (
    D1_FEATURE_NAMES,
    D2_FEATURE_NAMES,
    default_d1_samples,
    default_d2_samples,
    fit_d1,
    fit_d2,
    plot_data_csv,
)
from .sweeps import SWEEPS

__all__ = ["main", "MAX_DEFORM_DEGREE", "MAX_TREE_DEPTH", "MAX_CHECK_SCALE",
           "MAX_LATTICE_MODULUS"]

# Largest inputs the verbs build; larger ones exit 2 before any polynomial is
# made.  The sum of |partial quotients| of x bounds the degree of [x]_q; at a
# given sum the all-ones expansion F_{n+1}/F_n costs the most.
MAX_DEFORM_DEGREE = 2000
# bounds tree, plot and lineage; `qrat check` sets its depths by --scale
MAX_TREE_DEPTH = 12
# the sweeps grow roughly cubically with the scale; the README's "Check
# targets" section gives their dated times at scales 1 and 2.
MAX_CHECK_SCALE = 2
# dedekind s|h|battery reach the O(b) lattice sum, which serves every index
# pair but (1, 3): about 0.25 s at b = 10^5 on a 2-core host, start-up
# included, and 4-5 s for a battery at q = 10^5, which sums over q and 2q many
# times.  derive --order 2 needs only s_{1,3}, an O(log b) descent, so
# MAX_DEFORM_DEGREE bounds it.
MAX_LATTICE_MODULUS = 10 ** 5

_FRACTION_RE = re.compile(r"[+-]?\d+(/\d+)?")


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with "-" and a digit, such as -1/2, as a
    value; plain argparse takes only negative integers and decimals so."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _fraction(text: str) -> Fraction:
    """argparse type for the exact fraction a verb deforms."""
    if not _FRACTION_RE.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a fraction; write a/b or an integer (no decimals)")
    try:
        x = Fraction(text.strip())
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError("denominator must be nonzero") from None
    degree = sum(abs(t) for t in to_cfrac(x).terms)
    if degree > MAX_DEFORM_DEGREE:
        raise argparse.ArgumentTypeError(
            f"the partial quotients of {text.strip()} sum to {degree}, the degree "
            f"bound of its deformation; the limit is {MAX_DEFORM_DEGREE}")
    return x


def _check_window(args) -> None:
    """Refuse a tree window (--start, --depth) too large to build (a negative
    depth fails in the walker)."""
    if args.depth > MAX_TREE_DEPTH:
        raise ValueError(f"tree depth {args.depth} is above the limit "
                         f"{MAX_TREE_DEPTH} (depth d has 2^(d+1) - 1 nodes)")
    degree = max(abs(args.start), abs(args.start + 1))
    if degree > MAX_DEFORM_DEGREE:
        raise ValueError(f"the window endpoints of --start {args.start} deform to "
                         f"degree {degree}; the limit is {MAX_DEFORM_DEGREE}")


def _check_modulus(b: int) -> None:
    """Refuse a lattice sum too long to run."""
    if b > MAX_LATTICE_MODULUS:
        raise ValueError(f"modulus {b} is above the limit {MAX_LATTICE_MODULUS} "
                         f"(the lattice sum has b - 1 terms)")


def _coeffs(p: IntPoly) -> str:
    return "[" + ",".join(map(str, p.coeffs)) + "]"


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
        exact, closed = derivative_at_one(rf, 0), x
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
    _check_window(args)
    nodes = build_qtree(args.start, args.depth)
    if args.json:
        print(json.dumps([qrational_to_json(n) for n in nodes]))
    else:
        for n in nodes:
            print(f"{rat_to_str(n.value)}\tdepth={n.depth}\tpath={n.path}\t"
                  f"num {_coeffs(n.deform.num)}, den {_coeffs(n.deform.den)}")
    return 0


def _cmd_lineage(args) -> int:
    if args.order > MAX_TREE_DEPTH + 2:
        raise ValueError(f"lineage order {args.order} is above the limit {MAX_TREE_DEPTH + 2}, "
                         f"the deepest lineage in a tree of depth {MAX_TREE_DEPTH}")
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


def _cmd_check(args) -> int:
    if not 1 <= args.scale <= MAX_CHECK_SCALE:
        raise ValueError(f"--scale {args.scale} is outside 1..{MAX_CHECK_SCALE}")
    by_name = {s.name: s for s in SWEEPS}
    for name in args.sweeps:
        if name not in by_name:
            raise ValueError(f"no sweep named {name!r}; choose from {', '.join(by_name)}")
    chosen = [by_name[name] for name in args.sweeps] or SWEEPS
    clean = 0
    for sweep in chosen:
        t0 = time.perf_counter()
        try:
            verdict = sweep.run(sweep.at_scale(args.scale))
            line, ok = verdict.line, verdict.ok
        except Exception as exc:  # a sweep that raises fails; the rest still run
            line, ok = f"FAIL {sweep.name}: raised {type(exc).__name__}: {exc}", False
        print(f"{time.perf_counter() - t0:6.2f}s  {line}", flush=True)
        clean += ok
    print(f"{clean}/{len(chosen)} sweeps clean")
    return 0 if clean == len(chosen) else 1


def _cmd_dedekind(args) -> int:
    if args.kind == "battery":
        _check_modulus(args.q)
        sys.stdout.write(battery_report_csv(args.p, args.q))
        return 0
    if math.gcd(args.a, args.b) != 1:
        raise ValueError(f"{args.a} and {args.b} must be coprime")
    _check_modulus(args.b)
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
    _check_window(args)
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
    p.add_argument("--order", type=int, default=4,
                   help=f"chain length m, 2..{MAX_TREE_DEPTH + 2}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lineage)

    p = sub.add_parser("check", help="run verification sweeps, timed, one PASS/FAIL line each")
    p.add_argument("sweeps", nargs="*", metavar="SWEEP",
                   help=f"any of {', '.join(s.name for s in SWEEPS)} (default: all, in that order)")
    p.add_argument("--scale", type=int, default=1,
                   help=f"1..{MAX_CHECK_SCALE}: multiply denominator bounds by it and add "
                        f"it minus 1 to tree depths (default 1, the acceptance bounds)")
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
