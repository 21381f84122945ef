#!/usr/bin/env python3
"""Run-to-run spread of the givebench end-to-end metrics.

Run from the repository root:

    python3 givebench/spread.py --workload monitor_cold --runs 5
    python3 givebench/spread.py --workload all --runs 10 \\
        --baseline givebench/baseline.json --label "$(git rev-parse --short HEAD)"

Runs `run.py` once per seed (`--first-seed`, then +1 each run) for
BENCHMARK.json's `run_seconds`, and prints, per workload and metric, the
median, the quartiles of `statistics.quantiles(values, n=4)` and the
spread (q3 - q1) / median against the metric's bound. With `--baseline`
the figures (and every value) are recorded in that file, replacing the
entries of the workloads measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark itself: workload names)


def measure(workload, seed, seconds):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS + ("all",))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", help="JSON file to record the figures in")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    opts = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = run.WORKLOADS if opts.workload == "all" else (opts.workload,)
    figures = {}
    steady = True
    for workload in workloads:
        results = []
        for i in range(opts.runs):
            result = measure(workload, opts.first_seed + i, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload}: run {i} was not correct: {result}")
            results.append(result)
        figures[workload] = {}
        print(f"{workload}: {opts.runs} runs of {bench['run_seconds']} s")
        print(f"  {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            figures[workload][name] = stats
            flag = ""
            if stats["spread"] >= bound / 3 and name != "setup_s":
                flag = "  above a third of the bound"
                steady = False
            print(
                f"  {name:<14} {stats['median']:>10.4f} {stats['q1']:>10.4f} "
                f"{stats['q3']:>10.4f} {stats['spread']:>8.4f} {bound:>6}{flag}"
            )
    if opts.baseline:
        path = os.path.join(ROOT, opts.baseline)
        baseline = {"workloads": {}}
        if os.path.exists(path):
            with open(path) as f:
                baseline = json.load(f)
        baseline["label"] = opts.label
        baseline["runs"] = opts.runs
        baseline["run_seconds"] = bench["run_seconds"]
        baseline["machine"] = f"{os.cpu_count()} CPUs"
        baseline["workloads"].update(figures)
        with open(path, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
