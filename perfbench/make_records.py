#!/usr/bin/env python3
"""Pin each workload's record count, once, into perfbench/records.json.

    python3 perfbench/make_records.py

Run from the repo root.  Entries already in records.json are kept; only
missing (workload, scale) pairs are counted.  events_per_s divides these pinned counts by
measured time, so a later change to what the program counts cannot
move the metric.  The counts come from the program's own ledger:
traced records of `iocov suite` (live), records read by `iocov analyze`
(replay, and the serve tenants' trace), and the sum over the 18 lattice
points of `iocov suite --configs all` (lattice).
"""

import json
import os
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def count(name, scale, seed, tmp):
    suite = bench.WORKLOADS[name]["suite"]
    led = os.path.join(tmp, f"led-{name}-{scale}-{seed}")
    if name == "live-xfstests":
        bench.iocov(["suite", suite, "--seed", str(seed), "--scale", repr(scale), "--ledger", bench.rel(led)], tmp)
        return bench.ledger(led)[-1]["events"]
    if name == "lattice-crashmonkey":
        bench.iocov(["suite", suite, "--configs", "all", "--seed", str(seed), "--scale", repr(scale),
                     "--ledger", bench.rel(led)], tmp)
        return sum(r["events"] for r in bench.ledger(led))
    trace = os.path.join(tmp, "t.v3")
    bench.write_trace(suite, seed, scale, trace, tmp)
    bench.analyze_digest(trace, bench.MOUNT[suite], tmp, led)
    return bench.ledger(led)[-1]["events"]


def main():
    bench.build(trace=False)
    path = os.path.join(bench.HERE, "records.json")
    table = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            table = json.load(f)
    wanted = [(name, spec["scale"]) for name, spec in bench.WORKLOADS.items()]
    table = {f"{name}@{scale!r}": table.get(f"{name}@{scale!r}") for name, scale in wanted}
    tmp = tempfile.mkdtemp(prefix="records-", dir=bench.BUILD)
    try:
        for name, scale in wanted:
            key = f"{name}@{scale!r}"
            if table[key] is None:  # pinned once; delete an entry to re-pin it
                table[key] = {str(seed): count(name, scale, seed, tmp) for seed in range(1, bench.INPUT_SEEDS + 1)}
                print(key, table[key], flush=True)
    finally:
        bench.shutil.rmtree(tmp, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
