#!/usr/bin/env python3
"""givebench: the benchmark of the givetake reproduction.

Run from the repository root:

    python3 givebench/run.py --workload monitor_cold --seed 1 --seconds 10 --trace 0
    python3 givebench/run.py --workload all --trace 0     # every workload, one table

The script builds the worker (`givebench/src`, a Cargo package of its
own) into `$CARGO_TARGET_DIR` (default `.bench_build`), prepares the
workload, then starts one worker process per timed run until
`--seconds` have passed. Every run's output digest is checked against
`givebench/pins.json`. The last line of stdout is one JSON object:

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json; with `--trace 1` they are its per-layer metrics, taken
from one extra traced run whose Chrome trace is written to
`.bench_work/<workload>.trace.json`. See givebench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
PINS = os.path.join(HERE, "pins.json")

WORKLOADS = ("monitor_cold", "monitor_chaos", "store_warm")
DEFAULT_WORLD_SEED = 0x61BE5CA1
DEFAULT_FAULT_SEED = 7

# Set-ups per run; `setup_s` is their median. One `store_warm` set-up is
# a cold scale-0.3 pipeline run (~20 s), so that workload sets up once.
SETUP_REPS = {"store_warm": 1}
DEFAULT_SETUP_REPS = 5

# No new timed run starts after this many seconds of one invocation, so
# an invocation ends within 180 s even on a slow machine.
BUDGET_S = 120
WORKER_TIMEOUT_S = 150

# End-to-end metrics: (name, unit). The first four are reported in the
# JSON result; `store_mb` and `failed_frac` are printed in the table
# only (they are 0 on some workloads, and failures are the result's
# `failed` count).
E2E = (("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
E2E_TABLE_ONLY = (("store_mb", "MB"), ("failed_frac", "ratio"))

# Per-layer metrics of the traced run: (name, unit).
PER_LAYER = (
    ("world.generate_s", "s"),
    ("world.snapshot_encode_s", "s"),
    ("world.snapshot_decode_s", "s"),
    ("world.snapshot_mb", "MB"),
    ("store.load_world_s", "s"),
    ("store.store_world_s", "s"),
    ("store.stage_load_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.mb", "MB"),
    ("pipeline.run_s", "s"),
    ("stage.main_monitor_ms", "ms"),
    ("stage.pilot_monitor_ms", "ms"),
    ("stage.twitch_pilot_ms", "ms"),
    ("stage.twitter_coins_ms", "ms"),
    ("stage.twitter_dataset_ms", "ms"),
    ("stage.chain_analysis_ms", "ms"),
    ("executor.busy_frac", "ratio"),
    ("executor.critical_share", "ratio"),
    ("monitor.samples", "count"),
    ("monitor.frames", "count"),
    ("monitor.us_per_sample", "us"),
    ("youtube.record_us", "us"),
    ("youtube.chat_us", "us"),
    ("youtube.search_us", "us"),
    ("youtube.details_us", "us"),
    ("youtube.calls.record", "count"),
    ("youtube.calls.chat", "count"),
    ("youtube.calls.search", "count"),
    ("youtube.calls.details", "count"),
    ("qr.scan_us", "us"),
    ("qr.encode_us", "us"),
    ("web.crawl_us", "us"),
    ("web.fetch.calls", "count"),
    ("web.fetch.bytes", "bytes"),
    ("chain.incoming_us", "us"),
    ("chain.rpc.calls", "count"),
    ("cluster.build_s", "s"),
    ("gate.injected", "count"),
    ("gate.retries", "count"),
    ("gate.lost", "count"),
    ("gate.lost_frac", "ratio"),
    ("alloc.count", "count"),
    ("alloc.bytes", "bytes"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def build():
    """Build the worker and return its path."""
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's own output goes to stderr so stdout stays the result.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("building the worker failed")
    return os.path.join(target, "release", "givebench")


def worker(binary, op, workload, directory, opts, *extra):
    """Run one worker process; return (result, wall seconds, error)."""
    cmd = [
        binary, op, "--workload", workload, "--dir", directory,
        "--world-seed", str(opts.world_seed), "--fault-seed", str(opts.fault_seed),
        *extra,
    ]
    env = dict(os.environ, TMPDIR=os.path.join(WORK, "tmp"))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, env=env
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, f"timed out after {WORKER_TIMEOUT_S} s"
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, wall, f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall, None
    except (ValueError, IndexError):
        return None, wall, "worker printed no JSON result"


def failure(result, error, expected_digest, workload):
    """Why one timed run counts as failed, or None if it passed."""
    if error is not None:
        return error
    if expected_digest is not None and result["digest"] != expected_digest:
        return f"output digest {result['digest'][:16]}… != expected {expected_digest[:16]}…"
    if workload == "store_warm" and (result["store_misses"] > 0 or result["store_hits"] == 0):
        return (
            f"warm run missed the stage cache "
            f"({result['store_hits']} hits, {result['store_misses']} misses)"
        )
    return None


def load_pins(opts):
    """Pinned (setup, output) digests for the run's seeds, or (None, None)
    when the seeds differ from the pinned ones; the run then checks that
    every process agrees with the first."""
    if opts.write_pins:
        return None, None
    with open(PINS) as f:
        pins = json.load(f)
    if (opts.world_seed, opts.fault_seed) != (pins["world_seed"], pins["fault_seed"]):
        return None, None
    entry = pins["workloads"].get(opts.workload)
    if entry is None:
        return None, None
    return entry["setup_sha256"], entry["output_sha256"]


def save_pins(opts, setup_digest, output_digest):
    with open(PINS) as f:
        pins = json.load(f)
    if (opts.world_seed, opts.fault_seed) != (pins["world_seed"], pins["fault_seed"]):
        raise BenchError("--write-pins needs the pinned world and fault seeds")
    pins["workloads"][opts.workload] = {
        "setup_sha256": setup_digest,
        "output_sha256": output_digest,
    }
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=2)
        f.write("\n")


def self_times(events):
    """Self time of each benchmark span: its duration minus the part of
    it that its direct children cover. Returns {name: (total_us, count)}.

    Only complete ("X") events of process 1 (the benchmark's own spans)
    count; process 2 holds the program's stage spans, shown for context.
    """
    spans = sorted(
        (e for e in events if e.get("ph") == "X" and e.get("pid") == 1),
        key=lambda e: (e["tid"], e["ts"], -e["dur"]),
    )
    covered = [[] for _ in spans]  # child intervals per span
    stack = []  # indices of open ancestors
    for i, span in enumerate(spans):
        end = span["ts"] + span["dur"]
        while stack and (
            spans[stack[-1]]["tid"] != span["tid"]
            or spans[stack[-1]]["ts"] + spans[stack[-1]]["dur"] <= span["ts"]
        ):
            stack.pop()
        if stack:
            parent = spans[stack[-1]]
            parent_end = parent["ts"] + parent["dur"]
            covered[stack[-1]].append((span["ts"], min(end, parent_end)))
        stack.append(i)
    totals = {}
    for span, intervals in zip(spans, covered):
        child = 0.0
        reach = float("-inf")
        for lo, hi in sorted(intervals):
            lo = max(lo, reach)
            if hi > lo:
                child += hi - lo
            reach = max(reach, hi)
        total, count = totals.get(span["name"], (0.0, 0))
        totals[span["name"]] = (total + span["dur"] - child, count + 1)
    return totals


def layer_metrics(events, traced, untraced_run_s):
    """The per-layer metrics from a traced run's spans and counters."""
    selfs = self_times(events)

    def total_s(name):
        return selfs.get(name, (0.0, 0))[0] / 1e6

    def mean_us(name):
        total, count = selfs.get(name, (0.0, 0))
        return total / count if count else 0.0

    program = traced["program"]
    counters = program["counters"]
    pipeline_s = total_s("pipeline.run")

    def share(seconds):
        return seconds / pipeline_s if pipeline_s > 0 else 0.0

    metrics = dict(counters)
    metrics.update({
        "world.generate_s": total_s("world.generate"),
        "world.snapshot_encode_s": total_s("world.snapshot_encode"),
        "world.snapshot_decode_s": total_s("world.snapshot_decode"),
        "world.snapshot_mb": traced["snapshot_mb"],
        "store.load_world_s": total_s("store.load_world"),
        "store.store_world_s": total_s("store.store_world"),
        "store.mb": traced["store_mb"],
        "pipeline.run_s": pipeline_s,
        "executor.busy_frac": share(program["stage_wall_sum_ms"] / 1e3 / program["threads"]),
        "executor.critical_share": share(counters["stage.main_monitor_ms"] / 1e3),
        "youtube.record_us": mean_us("youtube.record"),
        "youtube.chat_us": mean_us("youtube.chat"),
        "youtube.search_us": mean_us("youtube.search"),
        "youtube.details_us": mean_us("youtube.details"),
        "qr.scan_us": mean_us("qr.scan"),
        "qr.encode_us": mean_us("qr.encode"),
        "web.crawl_us": mean_us("web.crawl"),
        "chain.incoming_us": mean_us("chain.incoming"),
        "cluster.build_s": total_s("cluster.build"),
        "alloc.count": traced["alloc_count"],
        "alloc.bytes": traced["alloc_bytes"],
        "trace.run_s": traced["run_s"],
        "trace.overhead_s": traced["run_s"] - untraced_run_s,
    })
    return {name: metrics[name] for name, _ in PER_LAYER}


def run_workload(binary, opts):
    """Set up, run timed runs for `opts.seconds`, and return the result."""
    invoked = time.perf_counter()
    workload = opts.workload
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.makedirs(work)
    setup_digest, output_digest = load_pins(opts)
    checked = "pinned digests" if setup_digest else "self-consistency check"
    problems = []

    reps = 1 if opts.trace else SETUP_REPS.get(workload, DEFAULT_SETUP_REPS)
    setup_times = []
    store = None
    for rep in range(reps):
        directory = os.path.join(work, f"setup-{rep}")
        result, wall, error = worker(binary, "setup", workload, directory, opts)
        if error is not None:
            raise BenchError(f"{workload} set-up failed: {error}")
        if setup_digest is None:
            setup_digest = result["digest"]
        elif result["digest"] != setup_digest:
            problems.append(f"set-up digest {result['digest'][:16]}… != {setup_digest[:16]}…")
        setup_times.append(wall)
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
        store = directory
    if workload == "store_warm" and output_digest is None:
        # The warm replay must reproduce the cold run's report.
        output_digest = setup_digest

    runs = []
    attempted = failed = 0
    started = time.perf_counter()

    def timed_run(op, *extra):
        nonlocal attempted, failed, output_digest
        directory = store if workload == "store_warm" else work
        result, _, error = worker(binary, op, workload, directory, opts, *extra)
        attempted += 1
        reason = failure(result, error, output_digest, workload)
        if reason is not None:
            failed += 1
            problems.append(f"run {attempted}: {reason}")
            return None
        if output_digest is None:
            output_digest = result["digest"]
        return result

    while not attempted or (
        time.perf_counter() - started < opts.seconds
        and time.perf_counter() - invoked < BUDGET_S
    ):
        result = timed_run("run")
        if result is not None:
            runs.append(result)
    if not runs:
        raise BenchError(f"{workload}: every timed run failed: {'; '.join(problems)}")

    # Other tenants of a shared machine only ever slow a run down, and
    # here for periods longer than an invocation: the median run of an
    # invocation spread by 0.2-0.27 of itself between invocations, the
    # fastest by ~0.1. Times are therefore the fastest run, the least
    # disturbed measure of the program's own cost.
    values = {
        "setup_s": statistics.median(setup_times),
        "run_s": min(r["run_s"] for r in runs),
        "cpu_s": min(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "store_mb": statistics.median(r["store_mb"] for r in runs),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "run_s": f"fastest of {len(runs)} runs",
        "cpu_s": f"fastest of {len(runs)} runs",
        "peak_rss_mb": f"median of {len(runs)} runs",
    }
    trace_path = None
    if opts.trace:
        trace_path = os.path.join(WORK, f"{workload}.trace.json")
        traced = timed_run("trace", "--sample-seed", str(opts.seed), "--trace-out", trace_path)
        if traced is None:
            raise BenchError(f"{workload}: the traced run failed: {problems[-1]}")
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        metrics = layer_metrics(events, traced, values["run_s"])
        units = PER_LAYER
    else:
        values["failed_frac"] = failed / attempted
        metrics = {name: values[name] for name, _ in E2E}
        units = E2E + E2E_TABLE_ONLY

    if opts.write_pins and not problems:
        save_pins(opts, setup_digest, output_digest)
    shutil.rmtree(work, ignore_errors=True)

    print(
        f"givebench {workload}: {attempted} timed runs, {failed} failed "
        f"(world seed {opts.world_seed:#x}, fault seed {opts.fault_seed}, {checked})"
    )
    shown = dict(values, **metrics)
    for name, unit in units:
        note = notes.get(name, "") if not opts.trace else ""
        print(f"  {name:<26} {shown[name]:>14.6g} {unit:<6} {note}")
    if trace_path:
        print(f"  chrome trace: {os.path.relpath(trace_path)}")
    for problem in problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in (PER_LAYER if opts.trace else E2E)
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the traced run's substrate replay sample")
    parser.add_argument("--seconds", type=float, default=10,
                        help="how long timed runs are started for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed", type=lambda s: int(s, 0), default=DEFAULT_WORLD_SEED)
    parser.add_argument("--fault-seed", type=lambda s: int(s, 0), default=DEFAULT_FAULT_SEED)
    parser.add_argument("--write-pins", action="store_true",
                        help="record this run's digests in givebench/pins.json")
    return parser.parse_args(argv)


def main(argv):
    opts = parse_args(argv)
    try:
        binary = build()
        workloads = WORKLOADS if opts.workload == "all" else (opts.workload,)
        results = []
        for workload in workloads:
            opts.workload = workload
            results.append(run_workload(binary, opts))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
