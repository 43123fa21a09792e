"""One cold pass of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED SPAWN_NS MODE [SPANS_PATH]

MODE is `setup` (import the package, generate the inputs, stop), `pass` (a
timed pass) or `trace` (a traced pass that writes its spans to SPANS_PATH).
SPAWN_NS is the CLOCK_MONOTONIC time at which the parent started this
process, so the set-up time includes interpreter start-up.  The pass prints
one JSON record on standard output.

Each process also times a fixed reference kernel (`ref_s`), after set-up and
on both sides of a pass, as a probe of the host's speed at that moment.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHES = (("qdeform", "deform"), ("dedekind", "s_sum"),
          ("dedekind", "periodic_bernoulli"), ("dedekind", "bernoulli_number"))
REFERENCE_CALLS = 10


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _reference_kernel():
    """Fixed exact arithmetic of the kinds the package does, written without
    it: a Fraction sum and an integer list convolution."""
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i % 97 + 1, 3 * i + 1)
    a = [(i * 7919) % 1000003 for i in range(150)]
    out = [0] * (2 * len(a))
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y
    return total, out


def reference_s() -> float:
    """Mean time of one reference-kernel call, measured now."""
    t = time.perf_counter()
    for _ in range(REFERENCE_CALLS):
        _reference_kernel()
    return (time.perf_counter() - t) / REFERENCE_CALLS


def cache_infos() -> dict:
    """cache_info() of each package cache that still has one."""
    out = {}
    for mod, name in CACHES:
        fn = getattr(sys.modules[f"qrationals.{mod}"], name, None)
        info = getattr(fn, "cache_info", None)
        if info is not None:
            out[f"{mod}.{name}"] = info()._asdict()
    return out


def load_digests() -> dict:
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")) as fh:
        return json.load(fh)


def run_pass(name: str, seed: int, spawn_ns: int, mode: str, spans_path: str | None = None) -> dict:
    """Set up and, unless MODE is `setup`, run one pass; return its record."""
    t = time.perf_counter()
    import qrationals.cli  # noqa: F401  (the CLI imports every layer)
    import_s = time.perf_counter() - t
    import workloads
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    setup_s = (monotonic_ns() - spawn_ns) / 1e9
    record = {"workload": name, "seed": seed, "mode": mode,
              "setup_s": setup_s, "import_s": import_s}
    ref_before = reference_s()
    if mode == "setup":
        record["ref_s"] = ref_before
        return record

    warm = {k: v["currsize"] for k, v in cache_infos().items() if v["currsize"]}
    if warm:
        raise RuntimeError(f"caches are not cold before the pass: {warm}")
    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    latencies: list[float] = []
    t0 = time.perf_counter()
    try:
        raw = workload.timed(inputs, latencies)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    caches = cache_infos()
    record["ref_s"] = (ref_before + reference_s()) / 2

    check = workload.check(inputs, raw)
    stored = load_digests()[name][workloads.digest_key(workload, seed)]
    ok = list(check.ok)
    for (got, cases), want in zip(check.units, stored):
        if got != want:
            for i in cases:
                ok[i] = False
    if len(check.units) != len(stored):
        ok += [False] * abs(len(check.units) - len(stored))
    record.update({
        "wall_s": wall,
        "attempted": len(ok),
        "failed": ok.count(False),
        "latencies_ms": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "caches": caches,
        "work": check.work,
    })
    if tracer is not None:
        record["trace"] = {
            "stats": {n: {"calls": s.calls, "self_s": s.self_s, "terms": s.terms}
                      for n, s in tracer.stats.items()},
            "layer_self_s": tracer.layer_self_s(),
            "intpoly_constructions": tracer.intpoly_constructions,
            "spans": len(tracer.spans),
        }
        if spans_path:
            tracer.write_spans(spans_path)
    return record


def main(argv: list[str]) -> int:
    name, seed, spawn_ns, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    spans_path = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(json.dumps(run_pass(name, seed, spawn_ns, mode, spans_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
