"""Cold-cache benchmark of the qrationals package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in `workloads.py`, or `all` to run each in turn.
Every pass runs in a fresh process (`worker.py`), so the `deform`, `s_sum`,
`periodic_bernoulli` and `bernoulli_number` caches start empty; the worker
checks that they do.  Processes run one at a time.

With `--trace 0` the run starts a few set-up-only processes, then timed
passes while another pass still fits in S seconds (always at least one), and
reports the end-to-end metrics.  With `--trace 1` it runs one plain pass and
one traced pass and reports the per-layer metrics.  Times are scaled to a
reference host speed (see REF_S).  Each case is
checked against an independent computation and against the stored digests;
any failed case makes the exit status 1.  The last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  A record of the run, and the spans of a traced run, are written
to `perfbench/results/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("identities", "tree-equivalence", "derive-wide", "deform-deep")
SETUP_PROBES = 5
# Time of one reference-kernel call (worker.reference_s) on the host the
# figures in README.md come from.  Every time is scaled by REF_S / ref_s, the
# ratio of that to the kernel's time in the same process, so the metrics read
# as that host at that speed: the host's own speed drifts by up to 2x.
REF_S = 0.0133
DEADLINE_S = 170


class PassError(RuntimeError):
    """A worker process failed or did not finish."""


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Runner:
    """Starts one worker process per pass and waits for it to end."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def __call__(self, name: str, seed: int, mode: str, spans_path: str | None = None) -> dict:
        timeout = max(1.0, self.deadline - time.monotonic())
        env = dict(os.environ, PYTHONHASHSEED="0")  # one less source of variation
        spawn_ns = monotonic_ns()
        argv = [sys.executable, WORKER, name, str(seed), str(spawn_ns), mode]
        if spans_path:
            argv.append(spans_path)
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise PassError(f"{name} {mode} pass exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise PassError(f"{name} {mode} pass exited {proc.returncode}:\n"
                            f"{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def hit_ratio(info: dict | None) -> float:
    if not info or info["hits"] + info["misses"] == 0:
        return 0.0
    return info["hits"] / (info["hits"] + info["misses"])


# -- end-to-end ---------------------------------------------------------------

E2E_UNITS = {"cases_per_s": "1/s", "case_ms_p50": "ms", "case_ms_p90": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def scale(rec: dict) -> float:
    """Factor that turns a time measured in this worker process into a time
    at the reference speed."""
    return REF_S / rec["ref_s"]


def end_to_end(passes: list[dict], setups: list[dict]) -> dict[str, float]:
    """Medians over the passes of a run, each time scaled to the reference
    speed.  Case latency pools the requests of every pass; a sweep is one
    library call, so its case time is the pass time divided by its cases."""
    lat = [x * scale(p) for p in passes for x in p["latencies_ms"]]
    if not lat:
        lat = [1e3 * p["wall_s"] * scale(p) / p["attempted"] for p in passes]
    return {
        "cases_per_s": statistics.median(p["attempted"] / (p["wall_s"] * scale(p))
                                         for p in passes),
        "case_ms_p50": statistics.median(lat),
        "case_ms_p90": percentile(lat, 90) if len(lat) > 1 else lat[0],
        "setup_s": statistics.median(s["setup_s"] * scale(s) for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


# -- per layer ----------------------------------------------------------------

# Each getter takes the traced pass's record, the plain pass's record and
# every set-up sample of the run.

def _stat(name: str, field: str):
    return lambda traced, plain, setups: traced["trace"]["stats"][name][field]


def _cache(name: str, field: str):
    def get(traced, plain, setups):
        info = traced["caches"].get(name)
        if field == "hit_ratio":
            return hit_ratio(info)
        return info["currsize"] if info else 0
    return get


def _share(layer: str):
    return lambda traced, plain, setups: traced["trace"]["layer_self_s"][layer] / traced["wall_s"]


def _per_lineage(traced, plain, setups):
    lineages = traced["work"].get("lineages", 0)
    calls = traced["trace"]["stats"]["sbtree.lagrange_coefficients"]["calls"]
    return calls / lineages if lineages else 0.0


def _import_s(traced, plain, setups):
    return statistics.median(x["import_s"] for x in setups)


def _overhead(traced, plain, setups):
    return traced["wall_s"] * scale(traced) / (plain["wall_s"] * scale(plain))


PER_LAYER = {
    "dedekind.s_sum.self_s": ("s", _stat("dedekind.s_sum", "self_s")),
    "dedekind.s_sum.calls": ("count", _stat("dedekind.s_sum", "calls")),
    "dedekind.s_sum.terms": ("count", _stat("dedekind.s_sum", "terms")),
    "dedekind.s_sum.hit_ratio": ("ratio", _cache("dedekind.s_sum", "hit_ratio")),
    "dedekind.s_sum.entries": ("count", _cache("dedekind.s_sum", "entries")),
    "dedekind.periodic_bernoulli.hit_ratio":
        ("ratio", _cache("dedekind.periodic_bernoulli", "hit_ratio")),
    "dedekind.periodic_bernoulli.entries":
        ("count", _cache("dedekind.periodic_bernoulli", "entries")),
    "closedforms.d2_closed.self_s": ("s", _stat("closedforms.d2_closed", "self_s")),
    "closedforms.d2_closed.calls": ("count", _stat("closedforms.d2_closed", "calls")),
    "closedforms.d2_closed.terms": ("count", _stat("closedforms.d2_closed", "terms")),
    "qdeform.deform.calls": ("count", _stat("qdeform.deform", "calls")),
    "qdeform.deform.hit_ratio": ("ratio", _cache("qdeform.deform", "hit_ratio")),
    "qdeform.deform.entries": ("count", _cache("qdeform.deform", "entries")),
    "qdeform.deform_from_cfrac.self_s": ("s", _stat("qdeform.deform_from_cfrac", "self_s")),
    "qdeform.deform_from_cfrac.calls": ("count", _stat("qdeform.deform_from_cfrac", "calls")),
    "qdeform.to_cfrac.self_s": ("s", _stat("qdeform.to_cfrac", "self_s")),
    "qdeform.to_cfrac.calls": ("count", _stat("qdeform.to_cfrac", "calls")),
    "exact.IntPoly.calls":
        ("count", lambda traced, plain, setups: traced["trace"]["intpoly_constructions"]),
    "exact.IntPoly.mul.self_s": ("s", _stat("exact.IntPoly.mul", "self_s")),
    "exact.IntPoly.mul.calls": ("count", _stat("exact.IntPoly.mul", "calls")),
    "exact.derivative_at_one.self_s": ("s", _stat("exact.derivative_at_one", "self_s")),
    "exact.derivative_at_one.calls": ("count", _stat("exact.derivative_at_one", "calls")),
    "sbtree.build_qtree.self_s": ("s", _stat("sbtree.build_qtree", "self_s")),
    "sbtree.weighted_mediant.self_s": ("s", _stat("sbtree.weighted_mediant", "self_s")),
    "sbtree.weighted_mediant.calls": ("count", _stat("sbtree.weighted_mediant", "calls")),
    "sbtree.lineage_extract.self_s": ("s", _stat("sbtree.lineage_extract", "self_s")),
    "sbtree.lineage_extract.calls": ("count", _stat("sbtree.lineage_extract", "calls")),
    "sbtree.identity_correction.self_s": ("s", _stat("sbtree.identity_correction", "self_s")),
    "sbtree.derivative_identity_residual.self_s":
        ("s", _stat("sbtree.derivative_identity_residual", "self_s")),
    "sbtree.lagrange_coefficients.calls": ("count", _stat("sbtree.lagrange_coefficients", "calls")),
    "sbtree.lagrange_coefficients.per_lineage": ("ratio", _per_lineage),
    "cli.import_s": ("s", _import_s),
    **{f"{layer}.share": ("ratio", _share(layer)) for layer in LAYERS},
    "trace.overhead_ratio": ("ratio", _overhead),
}


# -- runs ---------------------------------------------------------------------

def bench(name: str, seed: int, seconds: int, trace: bool, runner) -> dict:
    """One run of one workload: its passes, metrics and failure counts."""
    probes = [runner(name, seed, "setup") for _ in range(SETUP_PROBES)]
    if trace:
        os.makedirs(RESULTS, exist_ok=True)
        untraced = runner(name, seed, "pass")
        traced = runner(name, seed, "trace",
                        os.path.join(RESULTS, f"{name}-seed{seed}-spans.csv.gz"))
        passes = [untraced, traced]
        samples = probes + passes
        metrics = {k: (unit, get(traced, untraced, samples))
                   for k, (unit, get) in PER_LAYER.items()}
    else:
        passes, longest = [], 0.0
        start = time.monotonic()
        while True:
            t = time.monotonic()
            passes.append(runner(name, seed, "pass"))
            longest = max(longest, time.monotonic() - t)
            if time.monotonic() - start + longest > seconds:
                break
        values = end_to_end(passes, probes + passes)
        metrics = {k: (E2E_UNITS[k], v) for k, v in values.items()}
    return {
        "workload": name,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "work": passes[0]["work"],
        "metrics": metrics,
        "probes": probes,
        "passes": passes,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def write_record(runs: list[dict], args) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": [{**r, "metrics": {k: {"value": v, "unit": u}
                                   for k, (u, v) in r["metrics"].items()}}
                 for r in runs],
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, runner=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qrationals", "__init__.py")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'qrationals')}",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for name in names:
            run_pass = runner or Runner(time.monotonic() + DEADLINE_S)
            runs.append(bench(name, args.seed, args.seconds, bool(args.trace), run_pass))
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    path = write_record(runs, args)

    metrics = {}
    for r in runs:
        prefix = f"{r['workload']}." if len(runs) > 1 else ""
        speed = statistics.median(scale(p) for p in r["passes"])
        print(f"# {r['workload']} seed {args.seed}: {len(r['passes'])} passes, "
              f"fail_ratio {r['failed'] / r['attempted']:.6g} "
              f"({r['failed']}/{r['attempted']} cases), work {json.dumps(r['work'])}, "
              f"host speed {speed:.3g}x reference")
        for k, (unit, value) in r["metrics"].items():
            print(f"{prefix}{k} {value:.6g} {unit}")
            metrics[prefix + k] = {"value": value, "unit": unit}
    print(f"# record: {os.path.relpath(path, ROOT)}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
