#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds `perfbench` (a package of its
own that depends on the workspace crates by path) in release mode into
`$CARGO_TARGET_DIR`, `.bench_build` by default, then runs the binary. Build
output goes to stderr, so stdout holds only what the binary prints: a
metadata line, then the result object as the last line. A failed build or a
failed output check exits nonzero; a failed build prints no result.

An untraced run splits `--seconds` over a few processes of the binary and
merges their results. How fast this code runs depends on where a process's
memory happens to land, and that luck holds for the life of the process:
one process can run a workload 1.5x slower than the next, for its whole
run. Each process prints the best time of every unit of work it repeats
(round, block or point) in its metadata line. Taking each unit's best
over all processes, as each process already does over its passes, keeps
one unlucky process from setting a run's figures. A traced run is a single
process.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# A run measures for `--seconds` plus its set-ups and output checks; a hung
# run is killed well before it could hold up a caller that allows three
# minutes.
RUN_TIMEOUT_S = 170

# Processes an untraced run is split over.
PROCESSES = 4


def quantile(values, q):
    """The `q` quantile by linear interpolation between closest ranks, as
    the binary takes it."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def best_of(metas, key):
    """Each unit's best time over every process."""
    return [min(times) for times in zip(*(m[key] for m in metas))]


def merge(metas, results):
    """One result from several processes' results: outcomes add up, set-up
    time and memory take the median process, and the latencies and
    throughput are taken over each unit's best time in any process, so a
    unit needs one quiet moment in the whole run, not one in each process.
    Also returns the p90 latencies, which go to the metadata line: on a
    shared host they swing with other tenants' memory traffic by more than
    a regression bound could allow, so they are shown but not bounded."""
    rounds = best_of(metas, "round_us_best")
    points = best_of(metas, "point_ms_best")
    # Throughput is a fixed count of rounds over the summed round bests.
    rate = results[0]["metrics"]["rounds_per_s"]["value"]
    merged = {
        "rounds_per_s": rate * sum(metas[0]["round_us_best"]) / sum(rounds),
        "round_p50_us": quantile(rounds, 0.5),
        "point_p50_ms": quantile(points, 0.5),
    }
    tails = {"round_p90_us": quantile(rounds, 0.9), "point_p90_ms": quantile(points, 0.9)}
    metrics = {}
    for name, first in results[0]["metrics"].items():
        if name in merged:
            value = merged[name]
        else:
            value = statistics.median(r["metrics"][name]["value"] for r in results)
        metrics[name] = {"value": value, "unit": first["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }, tails


def main() -> int:
    started = time.monotonic()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    flags = dict(zip(args[::2], args[1::2]))
    processes = 1
    # Anything unexpected goes to the binary whole, which reports it.
    if flags.get("--trace") == "0" and len(args) == 2 * len(flags):
        try:
            flags["--seconds"] = str(float(flags["--seconds"]) / PROCESSES)
        except (KeyError, ValueError):
            pass
        else:
            processes = PROCESSES
            args = [part for flag in flags.items() for part in flag]
    split = processes > 1

    metas, results = [], []
    for _ in range(processes):
        remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
        try:
            run = subprocess.run([binary, *args], env=env, timeout=max(remaining, 1), stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if run.returncode != 0 or not split:
            sys.stdout.write(run.stdout)
            return run.returncode
        lines = run.stdout.strip().splitlines()
        metas.append(json.loads(lines[-2])["meta"])
        results.append(json.loads(lines[-1]))

    result, tails = merge(metas, results)
    meta = dict(
        {k: v for k, v in metas[0].items() if not k.endswith("_best")},
        processes=processes,
        tails=tails,
        error_rate=result["failed"] / result["attempted"],
        errors=[e for m in metas for e in m["errors"]],
    )
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
