#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--trace 0] [--seed0 1] [workload ...]

Run from the root of a bucketrank checkout. For every workload (default:
all of BENCHMARK.json) it runs the benchmark command once per seed and
prints, per metric, the median, the quartile distance as a share of the
median (Python's statistics.quantiles(values, n=4)), the metric's bound
and whether the spread is within a third of it, then the mean wall time
of a run and the worst spread-to-bound ratio over every metric, setup_s
included. Raw result lines go to .bench_out/spread-<workload>.jsonl.
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def option(argv, name, default):
    if name in argv:
        i = argv.index(name)
        value = argv[i + 1]
        del argv[i : i + 2]
        return value
    return default


def main():
    argv = sys.argv[1:]
    runs = int(option(argv, "--runs", "10"))
    trace = option(argv, "--trace", "0")
    seed0 = int(option(argv, "--seed0", "1"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if trace == "0" else bench["per_layer"]
    workloads = argv or [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        walls = []
        log_path = os.path.join(ROOT, ".bench_out", "spread-%s.jsonl" % workload)
        with open(log_path, "w") as log:
            for seed in range(seed0, seed0 + runs):
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", trace,
                ]
                t0 = time.monotonic()
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                walls.append(time.monotonic() - t0)
                last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
                log.write(last + "\n")
                result = json.loads(last)
                if done.returncode != 0 or not result.get("correct"):
                    print("%s seed %d failed (exit %d)" % (workload, seed, done.returncode))
                    return 1
                for name, v in result["metrics"].items():
                    values[name].append(v["value"])
        print("== %s (%d runs, %.1f s each)" % (workload, runs, statistics.mean(walls)))
        for m in metrics:
            vs = values[m["name"]]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            ok = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE")
            if bound is not None:
                worst = max(worst, spread / bound)
            print("  %-26s median %-14.6g spread %6.3f  bound %-5s %s"
                  % (m["name"], med, spread, bound, ok))
    if trace == "0":
        print("worst spread / bound: %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
