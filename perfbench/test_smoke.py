#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/test_smoke.py

Run from the repo root.  Runs every BENCHMARK.json workload once with
--trace 0 and once with --trace 1 (the traced probe), at the benchmark's
own scales but for one second of passes, and asserts that
  - every run exits 0, reports correct and has no failed operation;
  - the lines for people name events_per_s, peak_rss_mb, setup_s and
    error_rate with their units;
  - the result's metrics are exactly BENCHMARK.json's end_to_end names
    (--trace 0) or per_layer names (--trace 1), with their units;
  - the tree is as clean afterwards as before: same `git status`, no
    .iocov/ ledger, no trace file outside .bench_build/;
  - in a directory that holds only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
RUN = ["python3", "perfbench/run.py"]
PEOPLE_LINES = {"events_per_s": "events/s", "peak_rss_mb": "MiB", "setup_s": "s", "error_rate": "ratio"}


def tree_state():
    """What a run could leave behind, apart from the ignored build dir."""
    try:
        status = subprocess.run(["git", "status", "--porcelain", "--ignored"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        status = None
    lines = [l for l in (status or "").splitlines() if ".bench_build/" not in l]
    return status is not None, sorted(lines), os.path.exists(os.path.join(ROOT, ".iocov"))


def run_once(workload, trace, bench):
    argv = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert p.returncode == 0, f"{' '.join(argv)} exited {p.returncode}:\n{p.stdout}\n{p.stderr}"
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    for name, unit in PEOPLE_LINES.items():
        assert any(re.match(rf"{re.escape(name)} -?[\d.]+ {re.escape(unit)}\b", l) for l in lines), \
            f"{workload}: no '{name} ... {unit}' line in\n{p.stdout}"
    wanted = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, f"{workload}: metric names {sorted(got)}"
    for m in wanted:
        v = got[m["name"]]
        assert v["unit"] == m["unit"] and isinstance(v["value"], (int, float)), (m, v)
        if trace == 0:
            assert v["value"] > 0, (m, v)
    return p.stdout


def bare_directory_fails():
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    d = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run(RUN + ["--workload", "live-xfstests", "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=d, capture_output=True, text=True, timeout=180)
        assert p.returncode != 0, "the benchmark succeeded without the program's source"
        assert '"correct"' not in p.stdout, f"a result was printed:\n{p.stdout}"
    finally:
        shutil.rmtree(d, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    before = tree_state()
    for w in bench["workloads"]:
        for trace in (0, 1):
            run_once(w["name"], trace, bench)
            print(f"ok {w['name']} --trace {trace}", flush=True)
    after = tree_state()
    assert after == before, f"the tree changed:\nbefore {before}\nafter  {after}"
    bare_directory_fails()
    print("ok bare directory exits non-zero without a result")
    print("smoke test passed")


if __name__ == "__main__":
    sys.exit(main())
