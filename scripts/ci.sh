#!/usr/bin/env bash
# The CI gate: hermetic build + full test suite + dependency policy.
#
# The workspace has a zero-external-dependency policy (DESIGN.md §6):
# everything must build and test with --offline, and no manifest may
# declare a dependency that is not a `path` dependency on a sibling
# crate. Clippy runs as the final step with warnings denied: any lint
# fails the gate (it needs the clippy component; the gate skips it when
# the component is absent).
#
# The gate tests the committed build policy (.cargo/config.toml:
# x86-64-v3 on x86_64 hosts, DESIGN.md §6) and refuses to run when
# RUSTFLAGS or CARGO_ENCODED_RUSTFLAGS is set: either one, even empty,
# replaces the committed flags, and the gates would then measure a build
# nobody ships.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for var in RUSTFLAGS CARGO_ENCODED_RUSTFLAGS; do
  if [ -n "${!var+set}" ]; then
    echo "FAIL: $var is set ('${!var}'); it replaces the committed target flags in .cargo/config.toml."
    echo "Unset it to run the gate (an older host builds with it, but is not what the gate tests)."
    exit 1
  fi
done

echo "==> build target"
host=$(rustc -vV | sed -n 's/^host: //p')
case "$host" in
  x86_64-*)
    cpu=$(sed -n 's/.*"target-cpu=\([A-Za-z0-9_-]*\)".*/\1/p' .cargo/config.toml)
    features=$(rustc --print cfg -C target-cpu="$cpu" | sed -n 's/^target_feature="\(.*\)"$/\1/p' | tr '\n' ' ')
    echo "testing $host at target-cpu=$cpu: $features"
    ;;
  *) echo "testing $host at its default target-cpu" ;;
esac

echo "==> dependency policy: path-only manifests"
# Flag any dependency specification that is not a pure path dependency:
# a `version`/`git` key, or a bare `name = "x.y"` string, inside a
# [dependencies]/[dev-dependencies]/[build-dependencies] table of any
# manifest (the workspace.dependencies table is checked too).
violations=0
while IFS= read -r manifest; do
  bad=$(awk '
    /^\[/ { in_deps = ($0 ~ /dependencies\]$/) }
    in_deps && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=/ {
      if ($0 !~ /path[[:space:]]*=/ && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/) print
    }
  ' "$manifest")
  if [ -n "$bad" ]; then
    echo "non-path dependency in $manifest:"
    echo "$bad"
    violations=1
  fi
done < <(find . -name Cargo.toml -not -path "./target/*")
if [ "$violations" -ne 0 ]; then
  echo "FAIL: external dependencies are not allowed (see CONTRIBUTING.md)"
  exit 1
fi
echo "ok: all manifests are path-only"

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test -q --offline"
cargo test -q --workspace --offline

echo "==> perfbench build + tests (its own workspace)"
# perfbench has its own manifest and lockfile, so the workspace build
# above never compiles it: without this step a library API change could
# break the benchmark unseen.
CARGO_TARGET_DIR=target/perfbench cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
CARGO_TARGET_DIR=target/perfbench cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> rustdoc, warnings denied"
# A doc link to a deleted or private item, or a stray `[x]` read as a
# link, fails the gate here instead of lingering in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> public item count per library crate (report only)"
scripts/api_items.sh

echo "==> bucket-order layout suite (256 cases per property)"
# Every BucketOrder constructor and transform against a nested-Vec
# reference built in the test, over u32 / i64 / Pos keys on n = 0..64:
# bucket lists, bucket indices, positions, type, display and Hash
# equality across routes, the Buckets view, and from_buckets' error
# precedence on inputs with several faults.
BUCKETRANK_PT_CASES=256 cargo test -q --offline -p bucketrank --test bucket_order_layout

echo "==> prepared-kernel conformance suite (256 cases per property)"
BUCKETRANK_PT_CASES=256 cargo test -q --offline -p bucketrank --test prepared_vs_direct

echo "==> weighted metric family suite (256 cases per property)"
# The weighted-footrule / top-difference property suite: unit-weight
# collapse to fprof_x2 (bit-exact), Theorem-7-style bounds, metric
# axioms and monotonicity under degenerate weight classes, the F^(l)
# oracle on top-k embeddings, typed rejection, and the loopback
# byte-parity differential for the WeightedDist/TopDiff opcodes, whose
# replies are compared against bucketrank_bench::model::ModelService.
BUCKETRANK_PT_CASES=256 cargo test -q --offline -p bucketrank --test weighted_equivalence

echo "==> topk vs top-difference differential (256 cases per property)"
BUCKETRANK_PT_CASES=256 cargo test -q --offline -p bucketrank --test topk_vs_topdiff

echo "==> tally conformance suite (256 cases per property)"
# Every tally primitive against naive prefers() loops and kprof_x2
# sums, over u16 cells (profiles of at most u16::MAX voters). The
# cross-width lane is the promotion-boundary check: its profiles
# straddle CHUNK_VOTERS = u16::MAX voters, so they cross from u16 to
# u32 cells as well as into a second chunk, and one of
# 2 · CHUNK_VOTERS + 1 voters reaches a third chunk.
BUCKETRANK_PT_CASES=256 cargo test -q --offline -p bucketrank --test tally_conformance

echo "==> dynamic update-oracle suite (256 cases per property)"
# Random edit scripts, checked against a fresh build after every step,
# plus the cross-width lane: pushes past 65 536 voters and removes back
# below, where the tally changes cell width in place. At every crossing
# the tally, medians and snapshot must equal a fresh build, and a
# snapshot recycled from a spare of the other width a fresh snapshot.
BUCKETRANK_PT_CASES=256 cargo test -q --offline -p bucketrank --test dynamic_vs_rebuild

echo "==> wire-protocol fuzz suite, v1 + v2 batch frames (256 cases per property)"
BUCKETRANK_PT_CASES=256 cargo test -q --offline -p bucketrank --test proto_fuzz

echo "==> server loopback smoke (per-request-type round trips + graceful shutdown)"
# The loopback suite binds an ephemeral port, exercises every request
# type over a real socket (byte-compared against the naive reference
# model bucketrank_bench::model::ModelService) and requires a fully
# drained shutdown.
BUCKETRANK_PT_CASES=256 cargo test -q --offline -p bucketrank --test server_loopback

echo "==> protocol v2 pipelining conformance (256 cases per property)"
# Differential suite: pipelined and batched replays of the loopback
# edit scripts must be byte-identical to ModelService's replies, in
# order, at every tested depth.
BUCKETRANK_PT_CASES=256 cargo test -q --offline -p bucketrank --test server_pipeline

echo "==> minmax conformance suite (256 cases per property)"
# The minmax-objective differential suite: exact branch-and-bound vs
# brute-force enumeration (with and without class constraints),
# heuristic max-cost sandwiched between 1× and 2× exact, the banded
# local search against the naive bucketrank_bench::oracle climb, typed
# rejection of malformed/infeasible constraints, and the MinMaxAgg
# loopback byte-parity differential against ModelService.
BUCKETRANK_PT_CASES=256 cargo test -q --offline -p bucketrank --test minmax_conformance

echo "==> crash-recovery differential suite (128 cases per property)"
# Random edit scripts against a durable server, hard-dropped at random
# edit boundaries and torn mid-record WAL offsets, restarted from
# --data-dir: replies must be byte-identical to ModelService holding
# exactly the acknowledged prefix. (WAL-record fuzzing runs at
# 256 cases inside the proto_fuzz suite above.)
BUCKETRANK_PT_CASES=128 cargo test -q --offline -p bucketrank --test server_recovery

echo "==> session LRU + per-shard counter aggregation suite"
# The LRU property (cap never exceeded, exact-LRU victims, fault-back
# state byte-identical to the never-evicting ModelService) plus the
# concurrent counter regression test.
cargo test -q --offline -p bucketrank --test service_lru

# The soak (thousands of mostly-idle connections against the readiness
# loop, bounded-thread and clean-drain assertions) is ignored by
# default; opt in with BUCKETRANK_CI_HEAVY=1. Size it with
# BUCKETRANK_SOAK_CONNS (default 5000 — needs `ulimit -n` headroom).
if [ "${BUCKETRANK_CI_HEAVY:-0}" = "1" ]; then
  echo "==> readiness-loop soak (heavy lane, BUCKETRANK_SOAK_CONNS=${BUCKETRANK_SOAK_CONNS:-5000})"
  cargo test -q --release --offline -p bucketrank --test server_soak -- --ignored
  echo "==> crash-at-torn-offset matrix (heavy lane: every byte offset of every WAL)"
  cargo test -q --release --offline -p bucketrank --test server_recovery -- --ignored
else
  echo "==> readiness-loop soak + torn-offset matrix: skipped (set BUCKETRANK_CI_HEAVY=1 to run)"
fi

echo "==> bench_batch_prepared smoke gate"
# Fast pass proves the prepared batch engine runs end to end and writes
# its JSON report (with effective-bytes/s rows and a measured memcpy
# roofline). The smoke numbers land in target/ so they never clobber a
# committed full-size baseline; if no baseline exists yet, the smoke
# report seeds one. The pass ends with four gates: the dispatched
# Kprof matrix (counting lane) must hold ≥ 1.5× over the forced sweep
# lane, the prepared FHaus matrix must hold ≥ 20× over the
# direct one, the prepared weighted matrix must hold ≥ 1× over the
# naive per-pair weighted kernels, and the order layout gate: every
# order/from_keys and order/clone row must equal the nested-Vec
# bucketrank_bench::oracle::NestedOrder, and the flat
# BucketOrder::from_keys must hold ≥ 2× over the nested one at 512x16
# (the median of 36 alternating rounds, taken four at a time after each
# of the run's nine row sections); exiting nonzero otherwise.
smoke_out="target/BENCH_metrics.smoke.json"
BUCKETRANK_BENCH_FAST=1 BUCKETRANK_BENCH_OUT="$smoke_out" \
  cargo run --release --offline -p bucketrank-bench --bin bench_batch_prepared
if [ ! -f BENCH_metrics.json ]; then
  cp "$smoke_out" BENCH_metrics.json
  echo "seeded BENCH_metrics.json baseline from smoke run"
fi

echo "==> bench_aggregate_tally smoke gate"
# Same pattern for the aggregation tally engine: the fast pass proves
# the tally-vs-direct bench runs end to end (its worst-aggregator line
# is the regression canary, and it reports bytes/s + roofline like the
# batch bench) and seeds the aggregate baseline if absent. The pass
# ends with two hard gates. At 256×512 the tiled build must hold ≥ 4×
# over the naive scan (the anti-regression floor on the kernel, never
# below the seed's ratio). At 16×512 with a 16-level candidate,
# kemeny_cost_x2 must equal the two-matrix bucketrank_bench::oracle
# scan and run ≥ 3× faster than it. The tally's cells are u16 there;
# the oracle reads them widened to u32 through the strict_counts view.
agg_smoke_out="target/BENCH_aggregate.smoke.json"
BUCKETRANK_BENCH_FAST=1 BUCKETRANK_BENCH_OUT="$agg_smoke_out" \
  cargo run --release --offline -p bucketrank-bench --bin bench_aggregate_tally
if [ ! -f BENCH_aggregate.json ]; then
  cp "$agg_smoke_out" BENCH_aggregate.json
  echo "seeded BENCH_aggregate.json baseline from smoke run"
fi

echo "==> bench_dynamic smoke gate"
# Same pattern for the streaming engine: the fast pass proves the
# update-then-query-vs-rebuild bench runs end to end (its worst
# update+kemeny line is the regression canary) and seeds the dynamic
# baseline if absent.
dyn_smoke_out="target/BENCH_dynamic.smoke.json"
BUCKETRANK_BENCH_FAST=1 BUCKETRANK_BENCH_OUT="$dyn_smoke_out" \
  cargo run --release --offline -p bucketrank-bench --bin bench_dynamic
if [ ! -f BENCH_dynamic.json ]; then
  cp "$dyn_smoke_out" BENCH_dynamic.json
  echo "seeded BENCH_dynamic.json baseline from smoke run"
fi

echo "==> bench_server smoke gate"
# Same pattern for the TCP service: the fast pass proves the server,
# client and both request mixes run end to end over loopback (its
# read-heavy throughput line is the acceptance canary) and seeds the
# server baseline if absent. The fast pass also runs the protocol v2
# mixes and exits nonzero unless pipelined/batched read-heavy
# throughput is ≥ 2× the single-outstanding rate from the same run.
srv_smoke_out="target/BENCH_server.smoke.json"
BUCKETRANK_BENCH_FAST=1 BUCKETRANK_BENCH_OUT="$srv_smoke_out" \
  cargo run --release --offline -p bucketrank-bench --bin bench_server
if [ ! -f BENCH_server.json ]; then
  cp "$srv_smoke_out" BENCH_server.json
  echo "seeded BENCH_server.json baseline from smoke run"
fi

echo "==> exp_minmax smoke gate"
# Fast pass proves the minmax experiment runs end to end: the pinned
# outlier regression (sum-opt max 30 vs minmax 16 on 9×identity +
# 1×reversal at n=6) is hard-asserted, and the run exits nonzero
# unless the tally-delta scorer holds ≥ 1× over the naive per-swap
# rescan, and unless minmax_aggregate returns exactly what the naive
# bucketrank_bench::oracle pipeline returns on 64×64 typed-Mallows profiles
# while running ≥ 2× faster than it.
BUCKETRANK_BENCH_FAST=1 \
  cargo run --release --offline -p bucketrank-bench --bin exp_minmax

echo "==> cargo clippy, warnings denied"
if cargo clippy --version >/dev/null 2>&1; then
  cargo clippy --workspace --all-targets --offline -- -D warnings
else
  echo "skipped: clippy not installed"
fi

echo "CI gate passed."
