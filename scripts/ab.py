#!/usr/bin/env python3
"""Compares two revisions on one benchmark workload in alternating pairs.

    python3 scripts/ab.py --base <rev> [--change <rev>] --workload <name> \\
        --pairs <n> --seed <s> [--trace 0|1] [--workdir <dir>]

Run from the root of a bucketrank checkout. Each revision is exported
(`git archive`) into its own tree under --workdir (default
<tmpdir>/bucketrank-ab) and built by the benchmark command itself, from
that tree's root and into its own target directory, so each side builds
under its own `.cargo/config.toml` and no other: cargo also reads the
config of every directory above the working directory, so the script
refuses a --workdir inside the checkout or below any directory holding
a `.cargo/config.toml`, and a checkout below one when the working tree
is a side (cargo's home config, read by every build, is the one
exception). The first run of each side pays its build, outside
the timed result.
Without --change the change side is this checkout's working tree. Pair
i runs the benchmark command of BENCHMARK.json once per side, for its
run_seconds, base first on even i and change first on odd i.

For every metric (the end-to-end list, or the per-layer list with
--trace 1) it prints both medians, the median of the per-pair
change/base ratios, the pairs the change won, and the base's quartile
distance, then a verdict against BENCHMARK.json: "worse" when the
change's median is worse than the base's by more than the metric's
bound, "gain" when at least 10 pairs ran, the change won at least 9 in
10 and its median is better by more than the base's quartile distance.
Raw result lines go to .bench_out/ab-<workload>-<seed>.jsonl
(-trace.jsonl with --trace 1).

It refuses to run when RUSTFLAGS or CARGO_ENCODED_RUSTFLAGS is set:
either replaces every side's committed target flags with the same value.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def option(argv, name, default=None):
    if name in argv[:-1]:
        return argv[argv.index(name) + 1]
    if default is None:
        sys.exit("ab.py: %s is required" % name)
    return default


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def checkout(rev, workdir):
    """Returns (label, tree, target dir) for a revision, or for the working tree."""
    if rev is None:
        return "worktree", ROOT, os.path.join(workdir, "target-worktree")
    sha = git("rev-parse", "--verify", rev + "^{commit}")[:12]
    tree = os.path.join(workdir, sha)
    if not os.path.isdir(tree):
        os.makedirs(tree + ".part", exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree + ".part"], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit("ab.py: git archive %s failed" % sha)
        os.rename(tree + ".part", tree)
    return sha, tree, os.path.join(workdir, "target-" + sha)


def stray_config(d):
    """The first cargo config in d or above it other than cargo's home config, or None."""
    home = os.path.realpath(os.environ.get("CARGO_HOME") or os.path.expanduser("~/.cargo"))
    while True:
        config = os.path.join(d, ".cargo")
        for name in ("config.toml", "config"):
            if os.path.realpath(config) != home and os.path.isfile(os.path.join(config, name)):
                return os.path.join(config, name)
        if os.path.dirname(d) == d:
            return None
        d = os.path.dirname(d)


def check_dirs(workdir, worktree_side):
    """Exits unless each side's build reads its own tree's cargo config and no other."""
    root = os.path.realpath(ROOT)
    if os.path.commonpath([workdir, root]) == root:
        sys.exit("ab.py: --workdir %s is inside the checkout, whose .cargo/config.toml "
                 "would apply to the base too; pick a directory outside it" % workdir)
    for d in [workdir] + ([os.path.dirname(root)] if worktree_side else []):
        config = stray_config(d)
        if config:
            sys.exit("ab.py: %s applies to every build under %s; move --workdir (or the "
                     "checkout) out from under it" % (config, d))


def run(bench, tree, target, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", trace]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        sys.exit("ab.py: run failed in %s (exit %d)" % (tree, done.returncode))
    return result


def main():
    for var in ("RUSTFLAGS", "CARGO_ENCODED_RUSTFLAGS"):
        if var in os.environ:
            sys.exit("ab.py: %s is set; it would replace both sides' committed target "
                     "flags with one value. Unset it." % var)
    argv = sys.argv[1:]
    base_rev = option(argv, "--base")
    change_rev = option(argv, "--change", "")
    workload = option(argv, "--workload")
    pairs = int(option(argv, "--pairs"))
    seed = int(option(argv, "--seed"))
    trace = option(argv, "--trace", "0")
    workdir = os.path.realpath(option(argv, "--workdir",
                                      os.path.join(tempfile.gettempdir(), "bucketrank-ab")))
    check_dirs(workdir, not change_rev)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if trace == "0" else bench["per_layer"]

    sides = [checkout(base_rev, workdir), checkout(change_rev or None, workdir)]
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "ab-%s-%d%s.jsonl"
                            % (workload, seed, "-trace" if trace == "1" else ""))
    values = ([], [])
    failed = ([], [])
    with open(log_path, "w") as log:
        for i in range(pairs):
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                label, tree, target = sides[k]
                result = run(bench, tree, target, workload, seed, trace)
                log.write(json.dumps({"pair": i, "side": ("base", "change")[k], "rev": label,
                                      "result": result}) + "\n")
                log.flush()
                values[k].append({n: v["value"] for n, v in result["metrics"].items()})
                failed[k].append(result["failed"] / max(result["attempted"], 1))
            print("pair %d/%d done" % (i + 1, pairs), file=sys.stderr)

    print("== %s, seed %d, %d pairs: base %s, change %s"
          % (workload, seed, pairs, sides[0][0], sides[1][0]))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        if any(name not in v for v in values[0] + values[1]):
            continue
        base = [v[name] for v in values[0]]
        change = [v[name] for v in values[1]]
        mb, mc = statistics.median(base), statistics.median(change)
        ratio = statistics.median(c / b if b else float(c == 0 or "inf")
                                  for b, c in zip(base, change))
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        q1, _, q3 = statistics.quantiles(base, n=4) if pairs > 1 else (mb, mb, mb)
        gap = (mb - mc) if lower else (mc - mb)
        bound = m.get("bound")
        verdict = ""
        if bound is not None and mb and -gap / abs(mb) > bound:
            verdict = "worse"
        elif pairs >= 10 and wins * 10 >= 9 * pairs and gap > q3 - q1:
            verdict = "gain"
        print("  %-26s base %-11.5g change %-11.5g ratio %6.3f  wins %2d/%d  base IQR %-10.4g %s"
              % (name, mb, mc, ratio, wins, pairs, q3 - q1, verdict))
    print("  failed-op share: base %.4f, change %.4f" % (max(failed[0]), max(failed[1])))
    print("raw lines: " + log_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
