"""Regenerate `digests.json`, the stored hashes of every workload's exact
outputs, one list per input set.

    python3 perfbench/make_digests.py [WORKLOAD ...]

Refuses to write a digest for a case that fails its independent check.  Only
run it when the inputs of a workload change: the outputs are exact, so a
correct program never changes them.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from worker import CACHES  # noqa: E402


def clear_caches():
    for mod, name in CACHES:
        getattr(sys.modules[f"qrationals.{mod}"], name).cache_clear()


def digests_for(workload, seed: int) -> list[str]:
    clear_caches()
    inputs = workload.inputs(seed)
    check = workload.check(inputs, workload.timed(inputs, []))
    if not all(check.ok):
        raise SystemExit(f"{workload.name} seed {seed}: "
                         f"{check.ok.count(False)} cases fail their check")
    return [d for d, _ in check.units]


def main(names: list[str]) -> int:
    path = os.path.join(HERE, "digests.json")
    table = {}
    if os.path.isfile(path):
        with open(path) as fh:
            table = json.load(fh)
    for name in names or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        seeds = range(workloads.INPUT_SETS) if w.per_case else [0]
        table[name] = {workloads.digest_key(w, s): digests_for(w, s) for s in seeds}
        print(f"{name}: {len(table[name])} input sets", flush=True)
    write_table(path, table)
    return 0


def write_table(path: str, table: dict):
    """One line per input set, so a changed digest shows as one changed line."""
    blocks = []
    for name in sorted(table):
        rows = [f"  {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                for k, v in sorted(table[name].items(),
                                   key=lambda kv: (len(kv[0]), kv[0]))]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
