#!/usr/bin/env python3
"""Builds bucketrank and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a bucketrank checkout. Both builds go to
$CARGO_TARGET_DIR (default .bench_build); durable data directories and
span dumps go to .bench_out/<workload>. The benchmark's own output is
passed through unchanged: its last line is the result object. Without a
bucketrank workspace next to it, the script exits 2 and prints nothing
on standard output.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILDS = (
    # The served program: the `bucketrank` CLI of the workspace.
    [os.path.join(ROOT, "Cargo.toml"), "-p", "bucketrank-cli"],
    # The load generator and in-process workloads.
    [os.path.join(ROOT, "perfbench", "Cargo.toml")],
)


def arg(name):
    argv = sys.argv[1:]
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: no bucketrank workspace at " + ROOT, file=sys.stderr)
        return 2
    workload = arg("--workload")
    if workload is None or "/" in workload or workload.startswith("."):
        print("perfbench: --workload <name> is required", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, *rest in BUILDS:
        build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        # Build chatter goes to stderr so stdout stays the result stream.
        done = subprocess.run(build + rest, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + manifest, file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--server-bin",
        os.path.join(release, "bucketrank"),
        "--scratch",
        os.path.join(ROOT, ".bench_out", workload),
    ]
    return subprocess.run(bench, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
