#!/usr/bin/env python3
"""IOCov benchmark: end-to-end cost of the live, replay, serve and lattice paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is built from source into
.bench_build/ (dune, profile `perfbench`).  With --trace 0 the run talks
only to the `iocov` CLI and reports the end-to-end metrics; with --trace 1
it also runs the traced probe (perfbench/probe, a separate executable
linking the libraries) and reports the per-layer metrics.  Every run
checks the program's outputs.
The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Lines before it are for people.  See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
DUNE_BUILD = os.path.join(BUILD, "dune")
IOCOV = os.path.join(DUNE_BUILD, "default", "bin", "iocov.exe")
PROBE = os.path.join(DUNE_BUILD, "default", "perfbench", "probe", "probe.exe")

# Inputs are drawn from a fixed set of suite seeds so that each one's
# record count can be pinned once, in records.json (make_records.py).
INPUT_SEEDS = 16
# A run is cut into SLICES slices, each a set-up then passes, so that host
# drift (below) hits the set-ups as it hits the passes.  In a slice, set-up is
# repeated for at least SETUP_SLICE_S seconds; the median of all is reported.
SLICES = 8
SETUP_SLICE_S = 1.0
CHECK_SCALE = 0.25   # cross-path equality check, once per run
# serve-ingest tails this many tenants at once, one daemon thread each, so
# the load stays within 2 threads.
SERVE_TENANTS = 2
PASS_TIMEOUT_S = 120.0

# The host's speed drifts by up to ~30% over tens of seconds, on both CPUs at
# once (no steal time; pinning does not help).  A fixed pure-Python loop runs
# after every timed interval, and each slice's times are scaled by
# REF_NOMINAL_S over the median loop time of the slice, so they read as if the
# host ran at the speed where the loop takes REF_NOMINAL_S.  One loop reading
# jitters by ~6%, hence the median.
REF_ITERATIONS = 300_000
REF_NOMINAL_S = 0.02

WORKLOADS = {
    "live-xfstests": {"suite": "xfstests", "home": "live", "scale": 0.25},
    "replay-v3": {"suite": "xfstests", "home": "replay", "scale": 1.0},
    "serve-ingest": {"suite": "xfstests", "home": "serve", "scale": 1.0},
    "lattice-crashmonkey": {"suite": "crashmonkey", "home": "lattice", "scale": 1.0},
}
SIDE_SCALE = {"xfstests": 0.1, "crashmonkey": 0.25}
MOUNT = {"xfstests": "/mnt/test", "crashmonkey": "/mnt/snapshot"}

END_TO_END_UNITS = {"events_per_s": "events/s", "peak_rss_mb": "MiB", "setup_s": "s"}


class CheckFailed(Exception):
    """A correctness check failed; carries the command and its stderr."""

    def __init__(self, what, command=None, stderr=""):
        super().__init__(what)
        self.what, self.command, self.stderr = what, command, stderr


class Tally:
    """Operations attempted, for error_rate.  A failed operation or check
    raises CheckFailed, which stops the run and is counted once in main."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self):
        self.attempted += 1


TALLY = Tally()
CHILDREN = set()


def say(msg):
    print(msg, flush=True)


def rel(path):
    """Paths handed to the program are relative to the checkout root, which
    keeps them short and the output free of the checkout's location."""
    return os.path.relpath(path, ROOT)


# --- processes -------------------------------------------------------------


class Done:
    def __init__(self, argv, code, out, err, wall_s, maxrss_mb):
        self.argv, self.code, self.out, self.err = argv, code, out, err
        self.wall_s, self.maxrss_mb = wall_s, maxrss_mb


def run(argv, tmp):
    """Run one program to completion; wall time and peak RSS from wait4."""
    out_path = os.path.join(tmp, "stdout.txt")
    err_path = os.path.join(tmp, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT)
        CHILDREN.add(proc)
        timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        CHILDREN.discard(proc)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    done = Done(argv, proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0)
    TALLY.op()
    if done.code != 0:
        raise CheckFailed(f"exit code {done.code}", argv, stderr)
    return done


def iocov(args, tmp):
    return run([IOCOV] + args, tmp)


def stop_children():
    for proc in list(CHILDREN):
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        CHILDREN.discard(proc)


def build(trace):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "bin"))):
        sys.stderr.write("perfbench: no IOCov source tree here (dune-project, bin/); run from the repo root\n")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    targets = ["./bin/iocov.exe"]
    if trace:
        targets.append("./perfbench/probe/probe.exe")
    env = dict(os.environ, DUNE_CACHE="disabled")
    for target in targets:
        cmd = ["dune", "build", "--root", ".", "--build-dir", DUNE_BUILD, "--profile", "perfbench", target]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(f"perfbench: build of {target} failed\n{proc.stdout}{proc.stderr}")
            sys.exit(2)


# --- the program's outputs -------------------------------------------------


def ledger(dir_):
    """Records of a run ledger directory, oldest first."""
    path = os.path.join(dir_, "runs.jsonl")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def last_record(done, dir_):
    records = ledger(dir_)
    if not records:
        raise CheckFailed("no ledger record written", done.argv, done.err)
    return records[-1]


def check_no_violations(done):
    if "oracle: no violations" not in done.out:
        raise CheckFailed("oracle violations reported", done.argv, done.out[-2000:] + done.err)


def check_complete(done):
    if not re.search(r"complete — [\d,]+ events read, nothing skipped", done.out):
        raise CheckFailed("replay did not report 'complete — ... nothing skipped'", done.argv, done.out[-2000:] + done.err)


def write_trace(suite, seed, scale, path, tmp):
    iocov(["trace", suite, "--binary", "--seed", str(seed), "--scale", repr(scale), "-o", rel(path)], tmp)


def analyze_digest(path, mount, tmp, led):
    done = iocov(["analyze", rel(path), "--mount", mount, "--ledger", rel(led)], tmp)
    check_complete(done)
    return last_record(done, led)["digest"]


# --- workloads -------------------------------------------------------------


def records_table(workload, scale):
    with open(os.path.join(HERE, "records.json"), encoding="utf-8") as f:
        table = json.load(f)
    key = f"{workload}@{scale!r}"
    if key not in table:
        sys.stderr.write(f"perfbench: records.json has no {key}; run perfbench/make_records.py\n")
        sys.exit(2)
    return {int(s): n for s, n in table[key].items()}


def host_ref_s():
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def repeat_for(seconds, f):
    """f() once, then again until `seconds` have passed; the results."""
    out = []
    deadline = time.monotonic() + seconds
    while not out or time.monotonic() < deadline:
        out.append(f())
    return out


def at_ref_speed(f):
    """Run f(); return its result and its wall time at the reference host speed."""
    before = host_ref_s()
    t0 = time.perf_counter()
    v = f()
    wall = time.perf_counter() - t0
    return v, wall * REF_NOMINAL_S / ((before + host_ref_s()) / 2)


class Workload:
    """Set-ups and passes of one CLI job each, every pass checked."""

    def __init__(self, name, seed, tmp):
        spec = WORKLOADS[name]
        self.name = name
        self.suite = spec["suite"]
        self.scale = spec["scale"]
        self.input_seed = 1 + seed % INPUT_SEEDS
        self.tmp = tmp
        self.records = records_table(name, self.scale)
        self.pass_records = self.records[self.input_seed]
        self.mount = MOUNT[self.suite]
        self.noted = False

    def fresh_dir(self, label):
        d = os.path.join(self.tmp, label)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d

    def note_count(self, got, pinned):
        if got != pinned and not self.noted:
            self.noted = True
            say(f"note: the program now reports {got} records where records.json pins {pinned}; "
                f"events_per_s keeps the pinned count")

    def measure(self, seconds, slices, setup_slice_s):
        """`slices` times: set up (at least once and for `setup_slice_s`), then
        run passes back to back for seconds / slices.  A slice that runs over
        its share takes it from the next.  Times are at reference host speed;
        a pass's time is its program's wall time."""
        setups, passes = [], []
        spent = {"setup": 0.0, "pass": 0.0}

        def repeat_within(share, kind, f):
            t0 = time.monotonic()
            out = repeat_for(share - spent[kind], f)
            spent[kind] += time.monotonic() - t0
            return out

        for k in range(1, slices + 1):
            loops = [host_ref_s()]

            def timed(f):
                t0 = time.perf_counter()
                v = f()
                wall = time.perf_counter() - t0
                loops.append(host_ref_s())
                return v, wall

            slice_setups = repeat_within(k * setup_slice_s, "setup", lambda: timed(self.setup)[1])
            slice_passes = repeat_within(k * seconds / slices, "pass", lambda: timed(self.one_pass)[0])
            to_ref = REF_NOMINAL_S / statistics.median(loops)
            setups += [wall * to_ref for wall in slice_setups]
            passes += [(done, done.wall_s * to_ref) for done in slice_passes]
        return {
            "setup_s": statistics.median(setups),
            "setups": len(setups),
            "events": self.pass_records,
            "wall_s": statistics.median(ref_wall_s for _, ref_wall_s in passes),
            "raw_wall_s": statistics.median(done.wall_s for done, _ in passes),
            "peak_rss_mb": statistics.median(done.maxrss_mb for done, _ in passes),
            "passes": len(passes),
        }


class Live(Workload):
    def setup(self):
        # the reference the live digests must match: same-seed trace, analyzed offline
        d = self.fresh_dir("setup")
        trace = os.path.join(d, "ref.v3")
        write_trace(self.suite, self.input_seed, self.scale, trace, self.tmp)
        self.ref_digest = analyze_digest(trace, self.mount, self.tmp, d)

    def one_pass(self):
        led = self.fresh_dir("led")
        done = iocov(["suite", self.suite, "--seed", str(self.input_seed), "--scale", repr(self.scale),
                      "--ledger", rel(led)], self.tmp)
        check_no_violations(done)
        rec = last_record(done, led)
        if rec["digest"] != self.ref_digest:
            raise CheckFailed(f"live digest {rec['digest']} != analyze digest {self.ref_digest} of the same-seed trace",
                              done.argv, done.err)
        self.note_count(rec["events"], self.records[self.input_seed])
        return done


class Replay(Workload):
    def setup(self):
        d = self.fresh_dir("setup")
        self.trace = os.path.join(d, "replay.v3")
        write_trace(self.suite, self.input_seed, self.scale, self.trace, self.tmp)
        self.ref_digest = analyze_digest(self.trace, self.mount, self.tmp, d)

    def one_pass(self):
        led = self.fresh_dir("led")
        done = iocov(["analyze", rel(self.trace), "--mount", self.mount, "--ledger", rel(led)], self.tmp)
        check_complete(done)
        rec = last_record(done, led)
        if rec["digest"] != self.ref_digest:
            raise CheckFailed(f"replay digest {rec['digest']} != setup digest {self.ref_digest}", done.argv, done.err)
        self.note_count(rec["events"], self.records[self.input_seed])
        return done


class Lattice(Workload):
    POINTS = 18

    def setup(self):
        d = self.fresh_dir("setup")
        done = iocov(["suite", self.suite, "--seed", str(self.input_seed), "--scale", repr(self.scale),
                      "--ledger", rel(d)], self.tmp)
        check_no_violations(done)
        self.ref_digest = last_record(done, d)["digest"]

    def one_pass(self):
        led = self.fresh_dir("led")
        done = iocov(["suite", self.suite, "--configs", "all", "--seed", str(self.input_seed),
                      "--scale", repr(self.scale), "--ledger", rel(led)], self.tmp)
        lines = [l for l in done.out.splitlines() if l.startswith("config ")]
        if len(lines) != self.POINTS or not all(", 0 oracle violations," in l for l in lines):
            raise CheckFailed(f"lattice run did not report {self.POINTS} clean points", done.argv, done.out[:3000])
        recs = ledger(led)
        names = {r.get("config", {}).get("name") for r in recs}
        if len(recs) != self.POINTS or len(names) != self.POINTS:
            raise CheckFailed(f"ledger holds {len(recs)} records for {len(names)} points", done.argv, done.err)
        default = [r for r in recs if r["config"]["name"] == "default"]
        if not default or default[0]["digest"] != self.ref_digest:
            raise CheckFailed(f"default point digest != plain `suite {self.suite}` digest {self.ref_digest}",
                              done.argv, done.err)
        self.note_count(sum(r["events"] for r in recs), self.records[self.input_seed])
        return done


class ServeIngest(Workload):
    """One `iocov serve` job in file-tail mode: SERVE_TENANTS tenants tail
    the same trace through the daemon's hub at once, one ledger record per
    tenant."""

    def setup(self):
        d = self.fresh_dir("setup")
        self.trace = os.path.join(d, "serve.v3")
        write_trace(self.suite, self.input_seed, self.scale, self.trace, self.tmp)
        self.ref_digest = analyze_digest(self.trace, self.mount, self.tmp, d)
        self.tenants = [f"t{k}" for k in range(SERVE_TENANTS)]
        self.pass_records = SERVE_TENANTS * self.records[self.input_seed]

    def one_pass(self):
        led = self.fresh_dir("led")
        args = ["serve", "--ledger", rel(led)]
        for tenant in self.tenants:
            args += ["--ingest", f"{tenant}={rel(self.trace)}"]
        done = iocov(args, self.tmp)
        recs = {r["tenant"]: r for r in ledger(led)}
        for tenant in self.tenants:
            r = recs.get(tenant)
            if r is None or r["digest"] != self.ref_digest or r["lost"] != 0:
                raise CheckFailed(f"tenant {tenant}: ledger {r and (r['digest'], r['lost'])} "
                                  f"!= offline analyze digest {self.ref_digest} with nothing lost",
                                  done.argv, done.err)
            self.note_count(r["events"], self.records[self.input_seed])
        return done


CLASSES = {"live-xfstests": Live, "replay-v3": Replay, "serve-ingest": ServeIngest,
           "lattice-crashmonkey": Lattice}


def cross_path_check(seed, tmp):
    """Once per run, at small scale: live suite digest == analyze digest of
    the same-seed trace == serve tenant digest; the default lattice point ==
    a plain CrashMonkey run."""
    d = os.path.join(tmp, "cross")
    os.makedirs(d)
    s, sc = str(seed), repr(CHECK_SCALE)
    led = os.path.join(d, "live")
    done = iocov(["suite", "xfstests", "--seed", s, "--scale", sc, "--ledger", rel(led)], tmp)
    check_no_violations(done)
    live = last_record(done, led)["digest"]
    trace = os.path.join(d, "x.v3")
    write_trace("xfstests", seed, CHECK_SCALE, trace, tmp)
    offline = analyze_digest(trace, MOUNT["xfstests"], tmp, os.path.join(d, "analyze"))
    led = os.path.join(d, "serve")
    done = iocov(["serve", "--ingest", f"xcheck={rel(trace)}", "--ledger", rel(led)], tmp)
    served = last_record(done, led)["digest"]
    if not live == offline == served:
        raise CheckFailed(f"cross-path digests differ: live {live}, analyze {offline}, serve {served}",
                          ["suite/trace/analyze/serve", "xfstests", "--seed", s])
    digests = []
    for extra, label in ((["--configs", "default"], "lattice"), ([], "plain")):
        led = os.path.join(d, label)
        done = iocov(["suite", "crashmonkey", "--seed", s, "--scale", sc, "--ledger", rel(led)] + extra, tmp)
        digests.append(last_record(done, led)["digest"])
    if digests[0] != digests[1]:
        raise CheckFailed(f"default lattice point {digests[0]} != plain crashmonkey {digests[1]}",
                          ["suite", "crashmonkey", "--configs", "default"])


# --- traced run ------------------------------------------------------------


PER_LAYER_UNITS = {
    "suites.gen_ns_per_event": "ns", "suites.gen_words_per_event": "words",
    "trace.filter_ns_per_event": "ns", "trace.filter_keep_ratio": "ratio",
    "core.observe_ns_per_event": "ns", "core.observe_words_per_event": "words",
    "pipe.driver_ns_per_event": "ns", "runtime.major_gcs": "count",
    "trace.decode_ns_per_event": "ns", "trace.decode_words_per_event": "words",
    "trace.bytes_per_event": "B", "setup.trace_write_ns_per_event": "ns",
    "core.fused_observe_ns_per_event": "ns", "par.replay_ns_per_event": "ns",
    "pipe.ledger_digest_us": "us", "core.report_us": "us",
    "serve.ingest_ns_per_event": "ns", "serve.query_clean_us": "us", "serve.query_dirty_us": "us",
    "serve.publishes": "count", "serve.generation": "count", "serve.cache_hit_ratio": "ratio",
    "core.matrix_observe_ns_per_event": "ns", "core.matrix_shards": "count",
    "suites.point_ms_p50": "ms", "suites.point_ms_max": "ms",
    "crash.scenario_us": "us", "crash.states": "count", "crash.images_per_state": "ratio",
    "bench.residual_pct": "%", "bench.tracing_overhead_pct": "%",
}


def side_scale(w):
    return min(SIDE_SCALE[w.suite], w.scale)


def traced_metrics(w, e2e, tmp):
    spec = WORKLOADS[w.name]
    probe_dir = os.path.join(tmp, "probe")
    os.makedirs(probe_dir)
    done, ref_wall = at_ref_speed(lambda: run(
        [PROBE, "--suite", w.suite, "--home", spec["home"], "--seed", str(w.input_seed),
         "--scale", repr(w.scale), "--side-scale", repr(side_scale(w)), "--dir", rel(probe_dir)], tmp))
    probe = json.loads(done.out.strip().splitlines()[-1])
    m = {k: v for k, v in probe.items() if not k.startswith("home_")}
    wall, rows = probe["home_wall_ns"], probe["home_rows_ns"]
    m["bench.residual_pct"] = 100.0 * (wall - rows) / wall
    # both sides at reference host speed: scale the probe's clock like its process
    traced_ns_per_event = probe["home_traced_ns"] * (ref_wall / done.wall_s) / probe["home_events"]
    untraced_ns_per_event = e2e["wall_s"] * 1e9 / e2e["events"]
    m["bench.tracing_overhead_pct"] = 100.0 * (traced_ns_per_event - untraced_ns_per_event) / untraced_ns_per_event
    missing = set(PER_LAYER_UNITS) - set(m)
    if missing:
        raise CheckFailed(f"probe did not report {sorted(missing)}", done.argv, done.err)
    return {k: {"value": float(m[k]), "unit": u} for k, u in PER_LAYER_UNITS.items()}


# --- main ------------------------------------------------------------------


def result(correct, metrics):
    print(json.dumps({"correct": correct, "attempted": max(1, TALLY.attempted), "failed": TALLY.failed,
                      "metrics": metrics}), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build(args.trace)
    tmp = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        w = CLASSES[args.workload](args.workload, args.seed, tmp)
        say(f"workload {w.name}: suite {w.suite}, scale {w.scale}, input seed {w.input_seed}")
        # the traced run needs only the untraced wall per event, for the overhead row
        e2e = w.measure(min(args.seconds, 3.0), 1, 0) if args.trace else w.measure(args.seconds, SLICES, SETUP_SLICE_S)
        cross_path_check(w.input_seed, tmp)
        events_per_s = e2e["events"] / e2e["wall_s"]
        say(f"events_per_s {events_per_s:.1f} events/s  (median of {e2e['passes']} passes of "
            f"{e2e['events']} pinned records, at reference host speed; as measured "
            f"{e2e['events'] / e2e['raw_wall_s']:.1f})")
        say(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MiB")
        say(f"setup_s {e2e['setup_s']:.4f} s  (median of {e2e['setups']} set-ups, at reference host speed)")
        if args.trace:
            metrics = traced_metrics(w, e2e, tmp)
            for k, v in metrics.items():
                say(f"{k} {v['value']:.6g} {v['unit']}")
        else:
            values = {"events_per_s": events_per_s, "peak_rss_mb": e2e["peak_rss_mb"], "setup_s": e2e["setup_s"]}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        say(f"error_rate {TALLY.failed / TALLY.attempted:.4f} ratio  ({TALLY.failed}/{TALLY.attempted})")
        result(True, metrics)
        return 0
    except CheckFailed as e:
        TALLY.failed += 1
        sys.stderr.write(f"FAIL {args.workload}: {e.what}\n")
        if e.command:
            sys.stderr.write(f"command: {' '.join(map(str, e.command))}\n")
        if e.stderr:
            sys.stderr.write(f"stderr:\n{e.stderr}\n")
        result(False, {})
        return 1
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
