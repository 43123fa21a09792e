"""Self-tests of the benchmark.

    python3 -m pytest perfbench

They check that every metric named in BENCHMARK.json is printed with its
unit, that a case whose two sides differ is counted as failed and makes the
exit status non-zero, and that the input generators are deterministic.
"""
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import qrationals  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*argv):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, key):
    rc, lines = bench("--workload", "tree-equivalence", "--seed", "0",
                      "--seconds", "1", "--trace", str(trace))
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workloads.TREE_NODES
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: unit for k, (unit, _) in run.PER_LAYER.items()}


def in_process(name, seed, mode, spans_path=None):
    """Runner that runs a pass in this process, with cold caches."""
    for mod, fn in worker.CACHES:
        getattr(sys.modules[f"qrationals.{mod}"], fn).cache_clear()
    return worker.run_pass(name, seed, worker.monotonic_ns(), mode, spans_path)


def test_mismatched_case_fails_the_run(monkeypatch, capsys):
    """d2_closed is replaced by the exact jet, off by one on one input."""
    a0, b0 = workloads.WORKLOADS["derive-wide"].inputs(3)[17]

    def fake_d2(a, b):
        exact = qrationals.derivative_at_one(qrationals.deform(Fraction(a, b)).deform, 2)
        return exact + 1 if (a, b) == (a0, b0) else exact

    monkeypatch.setattr(qrationals, "d2_closed", fake_d2)
    rc = run.main(["--workload", "derive-wide", "--seed", "3", "--seconds", "1"],
                  runner=in_process)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    passes = result["attempted"] // workloads.REQUESTS
    assert rc == 1
    assert not result["correct"]
    assert result["failed"] == passes >= 1


def test_changed_output_fails_its_digest(monkeypatch):
    """An order-3 jet has no closed form; only the stored digest catches it."""
    exact = qrationals.derivative_at_one

    def off(rf, k):
        return exact(rf, k) + (k == 3)

    monkeypatch.setattr(qrationals, "derivative_at_one", off)
    rec = in_process("deform-deep", 5, "pass")
    assert rec["attempted"] == workloads.REQUESTS
    assert rec["failed"] == workloads.REQUESTS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    w = workloads.WORKLOADS[name]
    assert w.inputs(7) == w.inputs(7)
    assert w.inputs(7) == w.inputs(7 + workloads.INPUT_SETS)
    if w.per_case:
        assert w.inputs(7) != w.inputs(8)
        assert len(set(w.inputs(7))) == workloads.REQUESTS


def test_derive_inputs_cover_the_stated_range():
    for a, b in workloads.WORKLOADS["derive-wide"].inputs(11):
        assert 500 <= b <= 5000 and -b <= a <= 2 * b
        assert Fraction(a, b).denominator == b
