#!/usr/bin/env python3
"""Polystore benchmark driver: builds the program and runs one workload.

  python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the program's libraries from src/) into
.bench_build/perfbench, then starts several fresh measurement processes one
after another, each measuring an equal share of --seconds. The first process
also runs every correctness check. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

How the figures are made steady on a shared VM: every round of a process
repeats the same work, so each read's latency is its fastest over the
process's timed rounds (noise only ever adds time), and throughput is the
fastest round's. A process can also land in a slow mode that lasts its
whole life (memory placement), which nothing inside it can remove; so each
latency and throughput figure, and the set-up time (one cold set-up per
process), is taken from the fastest of the processes. Peak memory is the
median over the processes that do not check (the checking process also
holds the reference copy of the data); store cost and the per-layer counts
repeat exactly and come from the checking process; per-layer times are
medians over the processes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "polybench")
PROCESSES = 8
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_per_s": "ops/s",
    "query_p50_us": "us",
    "query_p95_us": "us",
    "store_cost_per_query": "cost",
    "peak_rss_mb": "MB",
}

STORES = ["postgres", "redis", "mongodb", "spark", "solr"]
STORE_FIELDS = ["ops", "rows_scanned", "index_lookups", "rows_returned",
                "cost", "write_ops"]

# Per-layer metrics: name -> (unit, how the run aggregates its processes).
# "median" for times and setup figures, "count" for exactly repeating
# per-operation counts (taken from the checking process).
PER_LAYER = {
    "pivot.parse_us": ("us", "median"),
    "runtime.canonicalize_us": ("us", "median"),
    "runtime.plan_cache_hit_ratio": ("ratio", "count"),
    "runtime.plan_cache_evictions": ("count/op", "count"),
    "runtime.query_allocs": ("count/op", "count"),
    "runtime.query_alloc_bytes": ("B/op", "count"),
    "pacb.rewrite_us": ("us", "median"),
    "pacb.candidates_considered": ("count/op", "count"),
    "pacb.candidates_verified": ("count/op", "count"),
    "pacb.rewritings_found": ("count/op", "count"),
    "chase.forward_atoms": ("count/op", "count"),
    "chase.backchase_atoms": ("count/op", "count"),
    "pacb.rewrite_allocs": ("count/op", "count"),
    "rewriting.translate_us": ("us", "median"),
    "rewriting.plans_costed": ("count/op", "count"),
    "rewriting.translate_allocs": ("count/op", "count"),
    "rewriting.insert_us": ("us", "median"),
    "rewriting.fragments_maintained": ("count/op", "count"),
    "engine.execute_us": ("us", "median"),
    "engine.execute_allocs": ("count/op", "count"),
    "engine.execute_alloc_bytes": ("B/op", "count"),
    "engine.rows_from_stores": ("count/op", "count"),
    "engine.rows_out": ("count/op", "count"),
}
for _store in STORES:
    for _field in STORE_FIELDS:
        PER_LAYER["stores.%s.%s" % (_store, _field)] = (
            "cost/op" if _field == "cost" else "count/op", "count")
PER_LAYER.update({
    "setup.load_staging_s": ("s", "median"),
    "setup.define_fragments_s": ("s", "median"),
    "setup.prepare_rewriter_s": ("s", "median"),
    "setup.rss_mb": ("MB", "median"),
    "trace.overhead_pct": ("%", "median"),
})


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def run_child(args, seconds, check, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds)]
    if args.trace:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
        if args.fault:
            cmd += ["--fault", args.fault]
    if args.smoke:
        cmd.append("--smoke")
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("measurement process timed out")
        return None
    if done.returncode != 0:
        log("measurement process exited with %d" % done.returncode)
        return None
    lines = done.stdout.decode().strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("measurement process printed no result")
        return None


def aggregate(children, trace):
    checker = children[0]
    if trace:
        metrics = {}
        for name, (unit, how) in PER_LAYER.items():
            values = [c[name] for c in children]
            value = checker[name] if how == "count" else statistics.median(
                values)
            metrics[name] = {"value": value, "unit": unit}
        return metrics
    pick = {
        "setup_s": min,
        "throughput_ops_per_s": max,
        "query_p50_us": min,
        "query_p95_us": min,
        "store_cost_per_query": lambda v: v[0],
        # The checking process (the first) also holds the reference data.
        "peak_rss_mb": lambda v: statistics.median(v[1:] or v),
    }
    return {name: {"value": pick[name]([c[name] for c in children]),
                   "unit": unit}
            for name, unit in END_TO_END.items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["serve_mix", "adhoc_rewrite", "analytic_scan",
                            "serve_rw"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny data and one process (self-tests)")
    p.add_argument("--fault",
                   choices=["drop_row", "drop_charge", "drop_insert"],
                   help="inject a fault into the checks (self-tests)")
    args = p.parse_args()
    start = time.monotonic()
    if not build():
        return 1
    processes = 1 if args.smoke else PROCESSES
    deadline = time.monotonic() + 170 - min(20.0, time.monotonic() - start)
    children = []
    for i in range(processes):
        child = run_child(args, args.seconds / processes, i == 0, deadline)
        if child is None:
            return 1
        children.append(child)
    threads = max(c["threads"] for c in children)
    if threads > (os.cpu_count() or threads):
        log("warning: %d threads on %d CPUs" % (threads, os.cpu_count()))
    result = {
        "correct": all(c["correct"] for c in children),
        "attempted": int(sum(c["attempted"] for c in children)),
        "failed": int(sum(c["failed"] for c in children)),
        "metrics": aggregate(children, args.trace == 1),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
