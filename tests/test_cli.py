"""End-to-end CLI behavior: output strings, exit codes, JSON modes, the
FAIL path, input size limits and usage-error handling.

Everything goes through main(argv) so the tests see exactly what a shell
user sees (modulo argparse writing usage errors to stderr).
"""
import dataclasses
import doctest
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import qrationals
from qrationals import cli, closedforms, dedekind, fit, sbtree, sweeps
from qrationals.cli import (
    MAX_CHECK_SCALE,
    MAX_DEFORM_DEGREE,
    MAX_LATTICE_MODULUS,
    MAX_TREE_DEPTH,
    main,
)
from qrationals.exact import rat_to_str
from qrationals.sweeps import SWEEPS


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- deform ----------------------------------------------------------------

def test_deform_plain(capsys):
    rc, out, _ = run(capsys, "deform", "1/2")
    assert rc == 0
    assert out == "num [0,1], den [1,1]\n"
    rc, out, _ = run(capsys, "deform", "2/5")
    assert rc == 0
    assert out == "num [0,0,1,1], den [1,1,2,1]\n"


def test_deform_negative_arguments(capsys):
    rc, out, _ = run(capsys, "deform", "-1")
    assert rc == 0
    assert out == "num [-1], den [0,1]\n"
    rc, out, _ = run(capsys, "deform", "-1/2")
    assert rc == 0
    assert out == "num [-1], den [0,1,1]\n"
    # the "--" separator still works
    rc, out, _ = run(capsys, "deform", "--", "-1/2")
    assert rc == 0
    assert out == "num [-1], den [0,1,1]\n"


def test_deform_json(capsys):
    rc, out, _ = run(capsys, "deform", "1/2", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj == {"a": "1", "b": "2", "depth": 0, "path": "L",
                   "num": ["0", "1"], "den": ["1", "1"]}


# -- derive ----------------------------------------------------------------

def test_derive_orders(capsys):
    rc, out, _ = run(capsys, "derive", "2/5", "--order", "1")
    assert (rc, out) == (0, "exact 9/25, closed 9/25, match\n")
    rc, out, _ = run(capsys, "derive", "2/5", "--order", "2")
    assert (rc, out) == (0, "exact -44/125, closed -44/125, match\n")
    rc, out, _ = run(capsys, "derive", "2/5", "--order", "0")
    assert (rc, out) == (0, "exact 2/5, closed 2/5, match\n")
    rc, out, _ = run(capsys, "derive", "2/5")  # order defaults to 1
    assert (rc, out) == (0, "exact 9/25, closed 9/25, match\n")


def test_module_entry_point_runs_main():
    """`python -m qrationals.cli` runs main and exits with its status."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-m", "qrationals.cli", "derive", "2/5", "--order", "1"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "exact 9/25, closed 9/25, match\n")


def test_derive_negative_fraction(capsys):
    rc, out, _ = run(capsys, "derive", "-1/2", "--order", "2")
    assert (rc, out) == (0, "exact -7/4, closed -7/4, match\n")
    rc, out, _ = run(capsys, "derive", "-3/7")
    assert (rc, out) == (0, "exact 39/49, closed 39/49, match\n")


def test_derive_second_order_at_a_wide_denominator(capsys):
    """F₃₀₁/F₃₀₀ has a 63-digit denominator; its lattice term takes the
    O(log b) descent, so no modulus limit applies."""
    lo, hi = 0, 1
    for _ in range(300):
        lo, hi = hi, lo + hi
    rc, out, _ = run(capsys, "derive", f"{hi}/{lo}", "--order", "2")
    assert rc == 0 and out.endswith(", match\n")


def test_derive_usage_errors(capsys):
    assert run(capsys, "derive", "0.5")[0] == 2       # decimals are rejected
    rc, _, err = run(capsys, "derive", "-0.5")
    assert rc == 2 and "'-0.5' is not a fraction" in err
    assert run(capsys, "derive", "1/0")[0] == 2       # zero denominator
    assert run(capsys, "derive", "2/5", "--order", "3")[0] == 2


# -- tree ------------------------------------------------------------------

def test_tree_plain(capsys):
    rc, out, _ = run(capsys, "tree", "--depth", "1")
    assert rc == 0
    assert out.splitlines() == [
        "1/2\tdepth=0\tpath=L\tnum [0,1], den [1,1]",
        "1/3\tdepth=1\tpath=LL\tnum [0,0,1], den [1,1,1]",
        "2/3\tdepth=1\tpath=LR\tnum [0,1,1], den [1,1,1]",
    ]


def test_tree_json(capsys):
    rc, out, _ = run(capsys, "tree", "--depth", "2", "--json")
    assert rc == 0
    nodes = json.loads(out)
    assert len(nodes) == 7
    assert nodes[0] == {"a": "1", "b": "2", "depth": 0, "path": "L",
                        "num": ["0", "1"], "den": ["1", "1"]}
    assert [n["a"] + "/" + n["b"] for n in nodes[1:3]] == ["1/3", "2/3"]


def test_tree_shifted_window(capsys):
    rc, out, _ = run(capsys, "tree", "--start", "1", "--depth", "0")
    assert rc == 0
    assert out == "3/2\tdepth=0\tpath=L\tnum [1,1,1], den [1,1]\n"


# -- lineage ---------------------------------------------------------------

def test_lineage_plain(capsys):
    rc, out, _ = run(capsys, "lineage", "3/7", "--order", "4")
    assert rc == 0
    assert out.splitlines() == [
        "members: 1/2 1/3 2/5 3/7",
        "F: 1 | 0 | q^2 | q^2 + q^3",
        "G: 0 | 1 | 1 | 1",
        "f: 1 0 1 2",
        "g: 0 1 1 1",
        "zeta: 1 1",
        "xi: 2 3",
        "vanishing: no",
        "C: 2 -1 2",
    ]


def test_lineage_negative_fraction(capsys):
    rc, out, _ = run(capsys, "lineage", "-3/7", "--order", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "members: -1/2 -1/3 -2/5 -3/7"
    assert lines[-1] == "C: 2 -1 2"


def test_lineage_vanishing_plain(capsys):
    rc, out, _ = run(capsys, "lineage", "1/4", "--order", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "members: 0 1/2 1/3 1/4"
    assert "vanishing: yes" in lines
    assert lines[-1] == "C: undefined (vanishing lineage)"


def test_lineage_json(capsys):
    rc, out, _ = run(capsys, "lineage", "3/7", "--order", "4", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["C"] == ["2", "-1", "2"]
    assert obj["zeta"] == [1, 1] and obj["xi"] == [2, 3]
    assert obj["f"] == [1, 0, 1, 2] and obj["g"] == [0, 1, 1, 1]
    assert obj["vanishing"] is False
    assert [m["path"] for m in obj["members"]] == ["L", "LL", "LLR", "LLRR"]
    assert obj["F"] == [["1"], [], ["0", "0", "1"], ["0", "0", "1", "1"]]
    assert obj["G"] == [[], ["1"], ["1"], ["1"]]
    rc, out, _ = run(capsys, "lineage", "1/4", "--order", "4", "--json")
    assert rc == 0
    assert json.loads(out)["C"] is None


def test_lineage_errors(capsys):
    rc, _, err = run(capsys, "lineage", "2/5", "--order", "1")
    assert rc == 2 and "order must be >= 2" in err
    rc, _, err = run(capsys, "lineage", "1/2", "--order", "4")
    assert rc == 2 and "maximum available order" in err


# -- check -----------------------------------------------------------------

_TIMED = re.compile(r" *\d+\.\d\ds  (.*)")


def _bounds(monkeypatch, **bounds):
    """Give the named registry sweeps these scale-1 bounds for `qrat check`."""
    monkeypatch.setattr(cli, "SWEEPS", tuple(
        dataclasses.replace(s, bound=bounds[s.name]) if s.name in bounds else s
        for s in SWEEPS))


def check(capsys, *argv):
    """`qrat check` exit code, verdict lines less their time prefix, summary."""
    rc, out, _ = run(capsys, "check", *argv)
    *timed, summary = out.splitlines()
    return rc, [_TIMED.fullmatch(line).group(1) for line in timed], summary


def test_check_thm1(capsys, monkeypatch):
    _bounds(monkeypatch, thm1=6)
    assert check(capsys, "thm1") == (0, [
        "PASS thm1: order-1 closed form matches the exact derivative on all 25 "
        "reduced a/b with b <= 6, 0 <= a <= 2b"], "1/1 sweeps clean")


def test_check_thm2(capsys, monkeypatch):
    _bounds(monkeypatch, thm2=4)
    assert check(capsys, "thm2") == (0, [
        "PASS thm2: order-2 closed form matches the exact derivative on all 13 "
        "reduced a/b with b <= 4, 0 <= a <= 2b"], "1/1 sweeps clean")


def test_check_equivalence(capsys, monkeypatch):
    _bounds(monkeypatch, appendixA=3)  # scale 2 adds one level
    assert check(capsys, "appendixA", "--scale", "2") == (0, [
        "PASS appendixA: weighted-mediant and continued-fraction constructions "
        "agree on all 31 nodes to depth 4"], "1/1 sweeps clean")


def test_check_delta(capsys, monkeypatch):
    _bounds(monkeypatch, delta=4)
    assert check(capsys, "delta") == (0, [
        "PASS delta: corrected linear-dependence identities hold on 16 order-4 "
        "and 8 order-5 lineages to depth 4"], "1/1 sweeps clean")


def test_check_dedekind(capsys, monkeypatch):
    """The three Dedekind-sum sweeps in one run, bounds doubled by --scale."""
    _bounds(monkeypatch, reciprocity=3, bridges=3, battery=3)
    assert check(capsys, "reciprocity", "bridges", "battery", "--scale", "2") == (0, [
        "PASS reciprocity: (4,1) reciprocity holds on coprime pairs p, q <= 6",
        "PASS bridges: substitution, symmetry and zero-sum bridges hold on "
        "reduced a/b with 1 <= a <= b <= 6",
        "PASS battery: the identity battery holds on coprime pairs p, q <= 6",
    ], "3/3 sweeps clean")


def test_check_fail_names_the_counterexample(capsys, monkeypatch):
    """The FAIL line ends with the command that re-runs the case, and that
    command shows the same two sides; the Verdict's counterexample is the
    case and both sides alone."""
    real = closedforms.d1_closed

    def wrong(x):
        return real(x) + (x == Fraction(2, 5))
    monkeypatch.setattr(closedforms, "d1_closed", wrong)
    monkeypatch.setattr(cli, "d1_closed", wrong)
    _bounds(monkeypatch, thm1=6)
    assert check(capsys, "thm1") == (1, [
        "FAIL thm1: counterexample 2/5: exact 9/25, closed 34/25; "
        "rerun: qrat derive 2/5 --order 1"], "0/1 sweeps clean")
    thm1 = next(s for s in SWEEPS if s.name == "thm1")
    assert thm1.run(6).counterexample == ("2/5", "exact 9/25", "closed 34/25")
    assert run(capsys, "derive", "2/5", "--order", "1")[:2] == (
        1, "exact 9/25, closed 34/25, MISMATCH\n")


def test_check_thm2_fail_reruns_at_order_2(capsys, monkeypatch):
    real = closedforms.d2_closed
    monkeypatch.setattr(closedforms, "d2_closed",
                        lambda a, b: real(a, b) + ((a, b) == (3, 4)))
    _bounds(monkeypatch, thm2=4)
    assert check(capsys, "thm2") == (1, [
        "FAIL thm2: counterexample 3/4: exact -5/8, closed 3/8; "
        "rerun: qrat derive 3/4 --order 2"], "0/1 sweeps clean")


def test_check_equivalence_fail_names_the_node_and_both_polynomials(capsys, monkeypatch):
    """With every degree gap one too large, the tree builds wrong but
    canonical pairs, which the packed comparison rejects; the first in
    increasing value is 1/5."""
    real = sbtree._degree_gap
    monkeypatch.setattr(sbtree, "_degree_gap", lambda left, right: real(left, right) + 1)
    _bounds(monkeypatch, appendixA=3)
    assert check(capsys, "appendixA") == (1, [
        "FAIL appendixA: counterexample 1/5: weighted-mediant (q^8) / "
        "(1 + q^2 + q^4 + q^6 + q^8), continued-fraction (q^4) / (1 + q + q^2 + q^3 + q^4)"],
        "0/1 sweeps clean")


def _drop_one_third(real, depth, width):
    table = real(depth, width)
    del table[1, 3]
    return table


def _add_one_sixth(real, depth, width):
    """The table with 1/6's entry from one level deeper, past the walk."""
    table = real(depth, width)
    table[1, 6] = real(depth + 1, width)[1, 6]
    return table


@pytest.mark.parametrize("edit, line", [
    (_drop_one_third, "counterexample 1/3: weighted-mediant (q^2) / (1 + q + q^2), "
                      "no continued-fraction node"),
    (_add_one_sixth, "counterexample 1/6: no weighted-mediant node, "
                     "continued-fraction (q^5) / (1 + q + q^2 + q^3 + q^4 + q^5)"),
], ids=["dropped", "added"])
def test_check_equivalence_fail_names_a_node_that_one_side_lacks(capsys, monkeypatch, edit,
                                                                 line):
    """A tree node missing from the continued-fraction table, and a table
    entry that the walk never reaches, each fail the sweep, naming the
    value and the side that lacks it."""
    monkeypatch.setattr(sbtree, "_cfrac_table", partial(edit, sbtree._cfrac_table))
    _bounds(monkeypatch, appendixA=3)
    assert check(capsys, "appendixA") == (1, [f"FAIL appendixA: {line}"], "0/1 sweeps clean")


def test_check_fits_reproduces_the_closed_forms_out_of_sample(capsys, monkeypatch):
    rc, lines, _ = check(capsys, "fits")
    assert rc == 0 and lines[0].endswith(
        "both match the closed forms on all 504 reduced a/b with 8 <= b < 30, "
        "0 <= a <= 2b, and integer samples leave d1 rank-deficient")
    real = closedforms.d2_closed
    monkeypatch.setattr(closedforms, "d2_closed",
                        lambda a, b: real(a, b) + ((a, b) == (13, 17)))
    fitted, closed = rat_to_str(real(13, 17)), rat_to_str(real(13, 17) + 1)
    assert check(capsys, "fits") == (1, [
        f"FAIL fits: counterexample d2 at 13/17: fitted {fitted}, closed {closed}"],
        "0/1 sweeps clean")


def test_check_sweep_that_raises_fails_and_the_rest_run(capsys, monkeypatch):
    def broken(modulus, stack, lo, hi, depth, path):
        raise ValueError("weight reconstruction failed")
    monkeypatch.setattr(sbtree, "_jet_frame", broken)
    _bounds(monkeypatch, thm1=3, delta=3, calibration=3)
    rc, lines, summary = check(capsys, "thm1", "delta", "calibration")
    assert rc == 1 and summary == "2/3 sweeps clean"
    assert lines[0].startswith("PASS thm1:") and lines[2].startswith("PASS calibration:")
    assert lines[1] == "FAIL delta: raised ValueError: weight reconstruction failed"


def test_check_delta_fails_where_b_does_not_divide_e5(capsys, monkeypatch):
    """A node whose E₅ = 6b·J₂ − T is not divisible by b (here 3/8, its T
    one too large) makes the identity sweep raise where it builds the
    node, and `qrat check delta` prints a FAIL line naming the node and
    both sides."""
    term = sbtree._term
    monkeypatch.setattr(sbtree, "_term", lambda a, b, memo=None:
                        term(a, b, memo) + ((a, b) == (3, 8)))
    _bounds(monkeypatch, delta=4)
    rc, lines, summary = check(capsys, "delta")
    assert rc == 1 and summary == "0/1 sweeps clean"
    assert lines == ["FAIL delta: raised ArithmeticError: E₅ mod b ≠ 0 at node 3/8: "
                     "6b·J₂ = -7680, T = 4561"]


def test_check_integrality_fail_names_the_counterexample(capsys, monkeypatch):
    real = closedforms.d2_closed
    monkeypatch.setattr(closedforms, "d2_closed",
                        lambda a, b: real(a, b) + Fraction((a, b) == (1, 3), 54))
    _bounds(monkeypatch, integrality=4)
    assert check(capsys, "integrality") == (1, [
        "FAIL integrality: counterexample 1/3: b^3 * closed -11/2, want an integer"],
        "0/1 sweeps clean")


def test_check_delta_fail_names_the_lineage_and_both_sides(capsys, monkeypatch):
    """With s₁,₃(2, 5) one too large in the term T of the sweep's side, b
    still divides E₅ at 2/5, and the first order-5 lineage through 2/5
    fails its residual, unscaled."""
    s13 = closedforms._s13_cleared
    monkeypatch.setattr(closedforms, "_s13_cleared", lambda a, b, memo=None:
                        s13(a, b, memo) + 120 * b ** 4 * ((a, b) == (2, 5)))
    _bounds(monkeypatch, delta=4)
    assert check(capsys, "delta") == (1, [
        "FAIL delta: counterexample order-5 lineage of 4/11, residual: "
        "lhs 14/1331, rhs -7486/1331"], "0/1 sweeps clean")


def test_check_delta_fail_names_a_wrong_lagrange_coefficient(capsys, monkeypatch):
    """With every lineage's C₁ one too large, the first order-4 lineage,
    3/11's, fails its residual: Λ(J₁) drops by member 1's J₁ = 3 (1/3's)
    and the correction (ΣC − 1)/(2b²) rises by 1/(2b²), both unscaled."""
    real = sbtree._lagrange

    def lagrange(f, g):
        C = real(f, g)
        return [C[0] + 1, *C[1:]]
    monkeypatch.setattr(sbtree, "_lagrange", lagrange)
    _bounds(monkeypatch, delta=4)
    assert check(capsys, "delta") == (1, [
        "FAIL delta: counterexample order-4 lineage of 3/11, residual: lhs -2/121, rhs 3/242"],
        "0/1 sweeps clean")


def test_check_fits_fail_names_the_fitted_vector(capsys, monkeypatch):
    """A d1 row with its x² feature doubled halves the fitted α."""
    real = fit._d1_features
    monkeypatch.setattr(fit, "_d1_features", lambda x: (2 * x * x, *real(x)[1:]))
    assert check(capsys, "fits") == (1, [
        "FAIL fits: counterexample d1: fitted (1/4, -1/2, 1/2, -1/2), "
        "want (1/2, -1/2, 1/2, -1/2)"], "0/1 sweeps clean")


def test_check_fits_fail_names_integer_samples_that_solve(capsys, monkeypatch):
    """A d1 fit that returns a vector on the integer samples, where the
    x² and f² columns collide, instead of raising RankDeficientError."""
    real = sweeps.fit_d1
    monkeypatch.setattr(sweeps, "fit_d1", lambda samples: sweeps.D1_WANT
                        if samples == [1, 2, 3, 4, 5] else real(samples))
    assert check(capsys, "fits") == (1, [
        "FAIL fits: counterexample d1 on the integers 1..5: solvable, want rank-deficient"],
        "0/1 sweeps clean")


def _h_wrong_at_3_1_2_3(monkeypatch):
    """h_{3,1}(2, 3) one too large where reciprocity_residual and the
    battery read h.  The FAIL line recomputes the residual through
    sweeps' own import of reciprocity_residual, so the fault sits below
    it, in dedekind.h_val."""
    real = dedekind.h_val
    monkeypatch.setattr(dedekind, "h_val", lambda i, j, a, b:
                        real(i, j, a, b) + ((i, j, a, b) == (3, 1, 2, 3)))


def test_check_reciprocity_fail_names_the_pair_and_its_residual(capsys, monkeypatch):
    _h_wrong_at_3_1_2_3(monkeypatch)
    _bounds(monkeypatch, reciprocity=3)
    assert check(capsys, "reciprocity") == (1, [
        "FAIL reciprocity: counterexample (p, q) = (2, 3): (4,1) residual -27, want 0"],
        "0/1 sweeps clean")


def test_check_battery_fail_names_the_identity_and_its_residual(capsys, monkeypatch):
    _h_wrong_at_3_1_2_3(monkeypatch)
    _bounds(monkeypatch, battery=3)
    assert check(capsys, "battery") == (1, [
        "FAIL battery: counterexample parity 3 1 2 3: residual 1, want 0"],
        "0/1 sweeps clean")


def test_check_bridges_fail_names_the_bridge_and_both_sides(capsys, monkeypatch):
    real = closedforms.bracket_weight_sum
    monkeypatch.setattr(closedforms, "bracket_weight_sum",
                        lambda a, b: real(a, b) + ((a, b) == (2, 5)))
    _bounds(monkeypatch, bridges=6)
    assert check(capsys, "bridges") == (1, [
        "FAIL bridges: counterexample substitution at 2/5: lhs 628/625, rhs 3/625"],
        "0/1 sweeps clean")


def test_check_usage_errors(capsys):
    for scale in ("0", str(MAX_CHECK_SCALE + 1)):
        rc, out, err = run(capsys, "check", "thm1", "--scale", scale)
        assert rc == 2 and not out
        assert f"--scale {scale} is outside 1..{MAX_CHECK_SCALE}" in err
    rc, out, err = run(capsys, "check", "thm1", "dedekind")
    assert rc == 2 and not out and "no sweep named 'dedekind'" in err


_DENOMINATOR_SWEEPS = {"dedekind": ("reciprocity", "bridges", "battery"),
                       "thm1": ("thm1",), "thm2": ("thm2",)}


@pytest.mark.parametrize("target", ["dedekind", "thm1", "thm2"])
def test_check_denominator_limits(capsys, monkeypatch, target):
    """--scale S multiplies a denominator bound by S, for S in 1..MAX_CHECK_SCALE."""
    names = _DENOMINATOR_SWEEPS[target]
    for scale in ("-5", "0", str(MAX_CHECK_SCALE + 1)):
        rc, out, err = run(capsys, "check", *names, "--scale", scale)
        assert rc == 2 and not out
        assert f"--scale {scale} is outside 1..{MAX_CHECK_SCALE}" in err
    _bounds(monkeypatch, **dict.fromkeys(names, 2))
    # at and just above a limit small enough to run every sweep
    monkeypatch.setattr(cli, "MAX_CHECK_SCALE", 3)
    for scale in (1, 2, 3):
        rc, lines, summary = check(capsys, *names, "--scale", str(scale))
        assert rc == 0 and summary == f"{len(names)}/{len(names)} sweeps clean"
        assert all(line.startswith("PASS") and f"<= {2 * scale}" in line for line in lines)
    assert run(capsys, "check", *names, "--scale", "4")[0] == 2


@pytest.mark.parametrize("target", ["appendixA", "delta"])
def test_check_depth_limits(capsys, monkeypatch, target):
    """--scale S adds S - 1 to a tree depth, for S in 1..MAX_CHECK_SCALE."""
    for scale in ("-1", "0", str(MAX_CHECK_SCALE + 1)):
        rc, out, err = run(capsys, "check", target, "--scale", scale)
        assert rc == 2 and not out
        assert f"--scale {scale} is outside 1..{MAX_CHECK_SCALE}" in err
    _bounds(monkeypatch, **{target: 2})
    monkeypatch.setattr(cli, "MAX_CHECK_SCALE", 3)
    for scale in (1, 2, 3):
        rc, lines, _ = check(capsys, target, "--scale", str(scale))
        assert rc == 0 and lines[0].startswith("PASS")
        assert lines[0].endswith(f"to depth {scale + 1}")
    assert run(capsys, "check", target, "--scale", "4")[0] == 2


def test_check_runs_at_the_scale_limit(capsys):
    thm1 = next(s for s in SWEEPS if s.name == "thm1")
    rc, lines, _ = check(capsys, "thm1", "--scale", str(MAX_CHECK_SCALE))
    assert rc == 0 and f"b <= {thm1.at_scale(MAX_CHECK_SCALE)}," in lines[0]


def test_calibration_sweep_fails_on_a_wrong_numerator_derivative(monkeypatch):
    calibration = next(s for s in SWEEPS if s.name == "calibration")
    assert calibration.run(20).ok
    real = closedforms.numerator_derivative
    monkeypatch.setattr(closedforms, "numerator_derivative",
                        lambda a, b: real(a, b) + ((a, b) == (2, 5)))
    verdict = calibration.run(20)
    assert verdict.line == "FAIL calibration: counterexample 2/5: a'(1)b - ab'(1) 14, b^2 d1 9"
    assert verdict.counterexample == ("2/5", "a'(1)b - ab'(1) 14", "b^2 d1 9")


# -- size limits -----------------------------------------------------------

@pytest.mark.parametrize("verb", [["deform"], ["derive"], ["lineage", "--order", "2"]])
def test_deform_degree_limit(capsys, verb):
    rc, _, err = run(capsys, verb[0], f"1/{MAX_DEFORM_DEGREE + 1}", *verb[1:])
    assert rc == 2
    assert f"sum to {MAX_DEFORM_DEGREE + 1}" in err
    assert f"limit is {MAX_DEFORM_DEGREE}" in err
    rc, out, _ = run(capsys, verb[0], f"1/{MAX_DEFORM_DEGREE}", *verb[1:])
    assert rc == 0 and out


@pytest.mark.parametrize("verb", ["tree", "plot"])
def test_tree_window_limits(capsys, verb):
    rc, _, err = run(capsys, verb, "--depth", str(MAX_TREE_DEPTH + 1))
    assert rc == 2 and f"above the limit {MAX_TREE_DEPTH}" in err
    rc, out, _ = run(capsys, verb, "--depth", str(MAX_TREE_DEPTH))
    assert rc == 0 and len(out.splitlines()) >= 2 ** (MAX_TREE_DEPTH + 1) - 1
    rc, _, err = run(capsys, verb, "--start", str(MAX_DEFORM_DEGREE), "--depth", "0")
    assert rc == 2 and f"limit is {MAX_DEFORM_DEGREE}" in err
    rc, out, _ = run(capsys, verb, "--start", str(MAX_DEFORM_DEGREE - 1), "--depth", "0")
    assert rc == 0 and out


def test_lineage_order_limit(capsys):
    top = MAX_TREE_DEPTH + 2  # the deepest lineage in a tree at the depth limit
    rc, out, _ = run(capsys, "lineage", f"1/{top}", "--order", str(top))
    assert rc == 0 and out.startswith("members: 0 1/2 1/3 ")
    rc, out, err = run(capsys, "lineage", f"1/{top + 6}", "--order", str(top + 1))
    assert rc == 2 and not out
    assert f"lineage order {top + 1} is above the limit {top}" in err


def _coprime_golden(b):
    """A fraction a/b near 0.618 with small partial quotients."""
    a = b * 618 // 1000
    while math.gcd(a, b) != 1:
        a += 1
    return a, b


def test_lattice_modulus_limit(capsys, monkeypatch):
    a, b = _coprime_golden(MAX_LATTICE_MODULUS + 1)
    for argv in (["dedekind", "s", "1", "3", str(a), str(b)],
                 ["dedekind", "h", "2", "2", str(a), str(b)],
                 ["dedekind", "battery", str(a), str(b)]):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and not out
        assert f"modulus {b} is above the limit {MAX_LATTICE_MODULUS}" in err
    # derive needs at most s_{1,3}, which takes the O(log b) descent
    for order in ("0", "1", "2"):
        rc, out, _ = run(capsys, "derive", f"{a}/{b}", "--order", order)
        assert rc == 0 and out.endswith("match\n")
    a, b = _coprime_golden(MAX_LATTICE_MODULUS)
    rc, out, _ = run(capsys, "derive", f"{a}/{b}", "--order", "2")
    assert rc == 0 and out.endswith(", match\n")
    assert run(capsys, "dedekind", "s", "1", "3", str(a), str(b))[0] == 0
    # a battery at the real limit takes seconds; check the same rule lower down
    monkeypatch.setattr(cli, "MAX_LATTICE_MODULUS", 7)
    assert run(capsys, "dedekind", "battery", "1", "7")[0] == 0
    assert run(capsys, "dedekind", "battery", "1", "8")[0] == 2


# -- dedekind --------------------------------------------------------------

def test_dedekind_values(capsys):
    assert run(capsys, "dedekind", "s", "1", "3", "2", "5")[:2] == (0, "-3/625\n")
    assert run(capsys, "dedekind", "s", "1", "3", "5", "13")[:2] == (0, "-15/2197\n")
    assert run(capsys, "dedekind", "h", "2", "2", "1", "1")[:2] == (0, "1/144\n")
    assert run(capsys, "dedekind", "h", "4", "0", "1", "2")[:2] == (0, "-1/5760\n")


def test_dedekind_usage_errors(capsys):
    rc, _, err = run(capsys, "dedekind", "s", "1", "3", "2", "4")
    assert rc == 2 and "coprime" in err
    rc, _, err = run(capsys, "dedekind", "s", "1", "3", "1", "0")
    assert rc == 2 and "modulus must be >= 1" in err
    for kind in ("s", "h"):
        for b in ("5", "1"):
            rc, _, err = run(capsys, "dedekind", kind, "-1", "3", "1", b)
            assert rc == 2 and "index must be nonnegative" in err
    assert run(capsys, "dedekind", "battery", "2", "4")[0] == 2
    rc, out, err = run(capsys, "dedekind", "battery", "1", "0")
    assert rc == 2 and not out and "modulus must be >= 1" in err


def test_dedekind_battery_csv(capsys):
    rc, out, _ = run(capsys, "dedekind", "battery", "1", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "identity,params,residual,pass"
    assert lines[1] == "even_boundary,2 0 1 3,0,1"
    assert len(lines) == 40
    assert all(line.endswith(",0,1") for line in lines[1:])


# -- fit -------------------------------------------------------------------

def test_fit_d1_plain(capsys):
    rc, out, _ = run(capsys, "fit", "d1")
    assert rc == 0
    assert out.splitlines() == ["x^2: 1/2", "x: -1/2", "1: 1/2", "f^2: -1/2"]


def test_fit_d2_json(capsys):
    rc, out, _ = run(capsys, "fit", "d2", "--json")
    assert rc == 0
    assert json.loads(out) == {
        "1/b^3": "0", "a/b^3": "-1", "a^2/b^3": "0", "a^3/b^3": "1/3",
        "1/b^2": "1", "a/b^2": "0", "a^2/b^2": "-1",
        "1/b": "0", "a/b": "5/3", "1": "-1", "lambda": "-20",
    }


# -- plot ------------------------------------------------------------------

def test_plot_csv(capsys):
    rc, out, _ = run(capsys, "plot", "--depth", "1", "--order", "1")
    assert rc == 0
    assert out.splitlines() == [
        "x,value,b,depth",
        "0.333333333333,0.333333333333,3,1",
        "0.500000000000,0.250000000000,2,0",
        "0.666666666667,0.333333333333,3,1",
    ]


# -- top level -------------------------------------------------------------

def test_no_verb_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# -- README ----------------------------------------------------------------

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _readme_section(title: str) -> str:
    return README.split(f"{title}\n", 1)[1].split("\n#", 1)[0]


def _readme_examples() -> list[tuple[str, str]]:
    """(command, expected output) for each `$ qrat ...` line of the CLI block."""
    block = _readme_section("## CLI").split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *expected = chunk.splitlines()
        assert command.startswith("$ qrat "), chunk
        examples.append((command[2:], "\n".join(expected)))
    return examples


def _normalize(text: str) -> str:
    """Nonblank lines less any sweep-time prefix, runs of whitespace collapsed."""
    lines = (" ".join(re.sub(r"^ *\d+\.\d\ds ", "", line).split())
             for line in text.splitlines())
    return "\n".join(line for line in lines if line)


_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("command, expected", _EXAMPLES, ids=[c for c, _ in _EXAMPLES])
def test_readme_cli_examples(capsys, command, expected):
    """Each README example prints what the README shows; `...` elides."""
    argv = command.split()[1:]
    if ">" in argv:
        assert run(capsys, *argv[:argv.index(">")])[0] == 0
        return
    keep = None
    if "|" in argv:
        argv, pipe = argv[:argv.index("|")], argv[argv.index("|") + 1:]
        assert pipe[0] == "head" and pipe[1].startswith("-")
        keep = int(pipe[1][1:])
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    got = "\n".join(_normalize(out).splitlines()[:keep])
    pattern = ".*?".join(re.escape(part) for part in _normalize(expected).split("..."))
    assert re.fullmatch(pattern, got, re.DOTALL), (got, expected)


def test_readme_reproduction_api():
    """The Reproduction API block runs as a doctest: each `>>>` example
    prints what the README shows."""
    block = _readme_section("### Reproduction API").split("```pycon\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README", "README.md", 0)
    assert len(test.examples) == 8
    assert doctest.DocTestRunner().run(test).failed == 0


def test_readme_check_targets_table():
    """The Check targets table lists the registry's sweeps in order, each with
    its scale-1 bound."""
    rows = [line.split("|")[1:-1] for line in _readme_section("### Check targets").splitlines()
            if line.startswith("| `")]
    listed = [(name.strip().strip("`"), bound.strip()) for name, _, bound in rows]
    assert [name for name, _ in listed] == [s.name for s in SWEEPS]
    for (name, bound), sweep in zip(listed, SWEEPS):
        want = "none" if sweep.bound is None else str(sweep.bound)
        assert bound.split()[-1] == want, (name, bound)


def _readme_names() -> list[str]:
    """The backticked package names of README, a call's arguments dropped:
    `qrationals.x...`, `x.name` with x a module or a public name of the
    package, and a bare `_private` name."""
    prefixes = {m.name for m in pkgutil.iter_modules(qrationals.__path__)} | set(qrationals.__all__)
    names = []
    for span in re.findall(r"`([^`\n]+)`", README):
        name = span.split("(", 1)[0]
        if (re.fullmatch(r"qrationals(\.\w+)+|_\w+", name)
                or re.fullmatch(r"\w+\.\w+", name) and name.split(".")[0] in prefixes):
            names.append(name)
    return names


def _layout_names() -> list[tuple[str, str]]:
    """(module, name) for every bare backticked identifier of two or more
    characters in a Library layout row, the row's module named in its
    first cell; the console script `qrat` is not a name."""
    names = []
    for row in _readme_section("## Library layout").splitlines():
        first = re.match(r"\| `(qrationals\.\w+)` *\|", row)
        if first:
            names.extend((first.group(1), span)
                         for span in re.findall(r"`(\w{2,})`", row[first.end():])
                         if span != "qrat")
    return names


def test_readme_names_resolve():
    """Every package name README backticks is an attribute of the package:
    `qrationals.x.y` and `x.y` by import and attribute lookup, a bare
    `_private` name in some module of the package, and a bare name in a
    Library layout row in that row's module.  A renamed or deleted
    function fails here."""
    modules = [pkgutil.resolve_name(f"qrationals.{m.name}")
               for m in pkgutil.iter_modules(qrationals.__path__)]
    names = _readme_names()
    assert len(names) >= 30
    for name in names:
        if name.startswith("_"):
            assert any(hasattr(mod, name) for mod in modules), name
        else:
            pkgutil.resolve_name(name if name.startswith("qrationals.") else f"qrationals.{name}")
    layout = _layout_names()
    assert len(layout) >= 60
    for module, name in layout:
        assert hasattr(pkgutil.resolve_name(module), name), (module, name)
