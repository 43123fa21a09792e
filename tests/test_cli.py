"""End-to-end CLI behavior: output strings, exit codes, JSON modes, the
sweep-depth environment variable, the FAIL path, input size limits, usage-error
handling, and smoke runs of the scripts.

Everything goes through main(argv) so the tests see exactly what a shell
user sees (modulo argparse writing usage errors to stderr).
"""
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from qrationals import cli, closedforms
from qrationals.cli import (
    MAX_CHECK_DENOMINATOR,
    MAX_DEFORM_DEGREE,
    MAX_LATTICE_MODULUS,
    MAX_TREE_DEPTH,
    SWEEP_DEPTH_ENV,
    main,
)
from qrationals.sweeps import SWEEPS

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


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

def test_check_thm1(capsys):
    rc, out, _ = run(capsys, "check", "thm1", "--max-denominator", "6")
    assert rc == 0
    assert out == ("PASS thm1: order-1 closed form matches the exact "
                   "derivative on all 25 reduced a/b with b <= 6, "
                   "0 <= a <= 2b\n")


def test_check_thm2(capsys):
    rc, out, _ = run(capsys, "check", "thm2", "--max-denominator", "4")
    assert rc == 0
    assert out == ("PASS thm2: order-2 closed form matches the exact "
                   "derivative on all 13 reduced a/b with b <= 4, "
                   "0 <= a <= 2b\n")


def test_check_equivalence(capsys):
    rc, out, _ = run(capsys, "check", "appendixA", "--depth", "4")
    assert rc == 0
    assert out == ("PASS appendixA: weighted-mediant and continued-fraction "
                   "constructions agree on all 31 nodes to depth 4\n")


def test_check_delta(capsys):
    rc, out, _ = run(capsys, "check", "delta", "--depth", "4")
    assert rc == 0
    assert out == ("PASS delta: residual and moment identities hold on "
                   "16 order-4 and 8 order-5 lineages to depth 4\n")


def test_check_dedekind(capsys):
    rc, out, _ = run(capsys, "check", "dedekind", "--max-denominator", "5")
    assert rc == 0
    assert out == ("PASS dedekind: reciprocity, lattice-sum bridges, and the "
                   "identity battery all hold up to 5\n")


def test_sweep_depth_env_is_honored(capsys, monkeypatch):
    monkeypatch.setenv(SWEEP_DEPTH_ENV, "3")
    rc, out, _ = run(capsys, "check", "appendixA")
    assert rc == 0
    assert "15 nodes to depth 3" in out


def test_sweep_depth_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv(SWEEP_DEPTH_ENV, "3")
    rc, out, _ = run(capsys, "check", "appendixA", "--depth", "2")
    assert rc == 0
    assert "7 nodes to depth 2" in out


def test_sweep_depth_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv(SWEEP_DEPTH_ENV, "deep")
    rc, _, err = run(capsys, "check", "appendixA")
    assert rc == 2
    assert SWEEP_DEPTH_ENV in err


def test_check_fail_names_the_counterexample(capsys, monkeypatch):
    real = closedforms.d1_closed
    monkeypatch.setattr(closedforms, "d1_closed",
                        lambda x: real(x) + (x == Fraction(2, 5)))
    rc, out, _ = run(capsys, "check", "thm1", "--max-denominator", "6")
    assert rc == 1
    line = "FAIL thm1: counterexample 2/5: exact 9/25, closed 34/25"
    assert out == line + "\n"

    # scripts/verify_all.py prints the same registry verdict
    spec = importlib.util.spec_from_file_location("verify_all", SCRIPTS / "verify_all.py")
    verify_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(verify_all)
    monkeypatch.setattr(verify_all, "SWEEPS",
                        tuple(s for s in verify_all.SWEEPS if s.name == "thm1"))
    assert verify_all.main([]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith("s  " + line)
    assert out.splitlines()[-1] == "0/1 sweeps clean"


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


@pytest.mark.parametrize("target, flag", [
    ("thm1", "--depth"), ("thm2", "--depth"), ("dedekind", "--depth"),
    ("appendixA", "--max-denominator"), ("delta", "--max-denominator")])
def test_check_rejects_a_flag_its_target_does_not_take(capsys, target, flag):
    rc, out, err = run(capsys, "check", target, flag, "3")
    assert rc == 2 and not out
    assert f"{flag} does not apply to {target}" in err


@pytest.mark.parametrize("target", ["thm1", "thm2", "dedekind"])
def test_check_denominator_limits(capsys, monkeypatch, target):
    for bound in ("-5", "0", str(MAX_CHECK_DENOMINATOR + 1)):
        rc, out, err = run(capsys, "check", target, "--max-denominator", bound)
        assert rc == 2 and not out
        assert f"--max-denominator {bound} is outside 1..{MAX_CHECK_DENOMINATOR}" in err
    rc, out, _ = run(capsys, "check", target, "--max-denominator", "1")
    assert rc == 0 and out.startswith("PASS")
    # at and just above a limit small enough to run every target
    monkeypatch.setattr(cli, "MAX_CHECK_DENOMINATOR", 3)
    assert run(capsys, "check", target, "--max-denominator", "3")[0] == 0
    assert run(capsys, "check", target, "--max-denominator", "4")[0] == 2


def test_check_runs_at_the_denominator_limit(capsys):
    rc, out, _ = run(capsys, "check", "thm1", "--max-denominator", str(MAX_CHECK_DENOMINATOR))
    assert rc == 0 and f"b <= {MAX_CHECK_DENOMINATOR}," in out


@pytest.mark.parametrize("target", ["appendixA", "delta"])
def test_check_depth_limits(capsys, monkeypatch, target):
    for depth, message in (("-1", "depth must be >= 0"),
                           (str(MAX_TREE_DEPTH + 1), f"above the limit {MAX_TREE_DEPTH}")):
        rc, out, err = run(capsys, "check", target, "--depth", depth)
        assert rc == 2 and not out and message in err
        monkeypatch.setenv(SWEEP_DEPTH_ENV, depth)
        rc, out, err = run(capsys, "check", target)
        assert rc == 2 and not out and message in err
    monkeypatch.delenv(SWEEP_DEPTH_ENV)
    rc, out, _ = run(capsys, "check", target, "--depth", "0")
    assert rc == 0 and out.startswith("PASS")
    monkeypatch.setattr(cli, "MAX_TREE_DEPTH", 3)
    for depth, rc in (("3", 0), ("4", 2)):
        assert run(capsys, "check", target, "--depth", depth)[0] == rc
        monkeypatch.setenv(SWEEP_DEPTH_ENV, depth)
        assert run(capsys, "check", target)[0] == rc
        monkeypatch.delenv(SWEEP_DEPTH_ENV)


def test_check_runs_at_the_depth_limit(capsys, monkeypatch):
    monkeypatch.setenv(SWEEP_DEPTH_ENV, str(MAX_TREE_DEPTH))
    rc, out, _ = run(capsys, "check", "appendixA")
    assert rc == 0 and f"{2 ** (MAX_TREE_DEPTH + 1) - 1} nodes" in out


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


# -- scripts ---------------------------------------------------------------

def test_reproduce_fits_script():
    src = str(SCRIPTS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(SCRIPTS / "reproduce_fits.py")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "504/504" in proc.stdout


# -- top level -------------------------------------------------------------

def test_no_verb_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
