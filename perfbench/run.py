#!/usr/bin/env python3
"""End-to-end tuning benchmark: builds the library and the benchmark from
source, runs one workload for about --seconds seconds, checks its outputs and
prints every metric BENCHMARK.json names.

    python3 perfbench/run.py --workload ht-flagship --seed 1 --seconds 30 \
        --trace 0

Each repetition is a fresh process (so peak RSS is per run) on a seed derived
from --seed and the repetition index; the reported value of every metric is
its median over the repetitions. --trace 0 reports the end-to-end metrics of
untraced runs, --trace 1 the per-layer metrics of traced runs. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build outputs and the journals of journal-resume live under .bench_build/ at
the checkout root; each run's journals go to a private temporary directory
that is removed when the run ends.
"""

import argparse
import array
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
MIN_REPS = 3
REP_TIMEOUT_S = 150


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die("no %s at the checkout root; the library sources are missing"
                % needed)
    # Compiler and benchmark scratch files stay inside the checkout.
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", "4"]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=800).returncode != 0:
                die("build failed: %s (log: %s)" % (" ".join(cmd), log_path))
    test = subprocess.run([os.path.join(BUILD, "perfbench_forwarding_test")],
                          capture_output=True, text=True, timeout=60)
    if test.returncode != 0:
        die("decorator forwarding test failed:\n" + test.stderr)


def read_gaps(tmp):
    """Takes the gaps one --trace 0 repetition wrote (int64 ns each)."""
    path = os.path.join(tmp, "gaps.bin")
    gaps = array.array("q")
    with open(path, "rb") as f:
        gaps.frombytes(f.read())
    os.remove(path)
    return gaps


def percentile(sorted_values, q):
    """Nearest-rank percentile, as the benchmark binary computes it."""
    rank = min(max(math.ceil(q * len(sorted_values)), 1), len(sorted_values))
    return sorted_values[rank - 1]


def run_rep(workload, seed, rep, trace, tmp):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--trace", str(trace),
           "--tmp", tmp]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("repetition %d exited %d without a result:\n%s"
            % (rep, proc.returncode, proc.stderr))
    if proc.returncode != 0 and result.get("ok"):
        die("repetition %d exited %d" % (rep, proc.returncode))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    build()

    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(WORK, "tmp"))
    reps = []
    gaps = array.array("q")
    try:
        start = time.monotonic()
        # Stop launching once another repetition of average length would
        # overrun the measuring time, after at least MIN_REPS.
        while len(reps) < MIN_REPS or (
                time.monotonic() - start) * (len(reps) + 1) / len(reps) \
                <= args.seconds:
            reps.append(run_rep(args.workload, args.seed, len(reps),
                                args.trace, tmp))
            if not args.trace:
                gaps.extend(read_gaps(tmp))
        elapsed = time.monotonic() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = all(r["ok"] for r in reps)
    for i, r in enumerate(reps):
        for error in r["errors"]:
            print("perfbench: seed %d repetition %d: check failed: %s"
                  % (args.seed, i, error), file=sys.stderr)
    values = {}
    for name in sorted(reps[0]["metrics"]):
        values[name] = statistics.median(r["metrics"][name] for r in reps)
    if gaps:
        # Tuner wall time between consecutive completions, pooled over the
        # repetitions.
        pooled = sorted(gaps)
        for q in (50, 99):
            values["trial_gap_p%d_us" % q] = percentile(pooled, q / 100) / 1e3
        print("%d trial gaps pooled" % len(pooled))
    units = {m["name"]: m["unit"] for m in wanted}
    print("%s trace=%d seed=%d (Release build): %d repetitions in %.1f s, "
          "medians:"
          % (args.workload, args.trace, args.seed, len(reps), elapsed))
    for name, value in values.items():
        print("  %-36s %14.6g %s" % (name, value, units.get(name, "")))

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            die("the benchmark did not measure %s" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["trials_attempted"] for r in reps),
        "failed": sum(r["trials_failed"] for r in reps),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
