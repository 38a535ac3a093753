//! Update-then-query vs rebuild-then-query for the streaming profile
//! engine (`aggregate::dynamic`) — the measurement backing the dynamic
//! layer.
//!
//! Each shape `(m voters × n elements)` measures one single-voter edit
//! followed immediately by a query, both ways. The grid spans both
//! sides of the median state's size, `O(n·min(m, 2n))` runs: `m < 2n`
//! at 16 voters and at 256 × 512, `m ≈ 2n` at 256 × 128, and
//! `m ≫ 2n` at 4096 × 64.
//!
//! * **replace**: the dynamic edit alone — one fused `O(n²)` pass that
//!   retracts the old ranking and adds the new one (the server's
//!   replace path, before it republishes a snapshot).
//! * **kemeny**: replace one voter, then evaluate one candidate's
//!   Kemeny cost. Dynamic = `O(n²)` replace + `O(n²)` tally read;
//!   rebuild = mutate the input list, `ProfileTally::build` (`O(m·n²)`)
//!   + the same read.
//!
//!   Both are scored twice: with a full candidate (`update_kemeny`) and
//!   with a tied 16-level one (`update_kemeny_tied`), the shape of the
//!   served workloads' candidates, so the tied-pair cost of the scan is
//!   measured too.
//! * **medians**: replace one voter, then read the full median-rank
//!   vector. Dynamic = incremental maintenance of each element's
//!   position runs; rebuild = `median_positions` over all `m` voters.
//!   A dynamic replace pays the `O(n²)` pairwise-tally maintenance
//!   whether or not the query needs it, while the median-only rebuild
//!   is `O(m·n log m)`, so this is the cycle where the engine's margin
//!   is thinnest: 1.8–2.6× at 16 × 512 with `u16` tally cells and a
//!   replace pass that only moves counts (1.2–1.5× while the pass also
//!   kept a per-row changed-relation flag, below 1× while the cells
//!   were `u32`). The engine always
//!   wins when the workload also queries the tally, which is what it
//!   exists for. Reported as a scaling trajectory, separate from the
//!   regression check.
//! * **snapshot**: the cost of copying a consistent read view off the
//!   live engine (reported as a trajectory, not gated — it is the price
//!   of isolation, paid only by consumers that hold views across
//!   edits). `snapshot/clone` allocates a fresh view (`snapshot()`);
//!   `snapshot/recycle` copies into the view the previous iteration
//!   retired (`snapshot_reusing`), which is what the server's republish
//!   does. A view is one `n²` matrix of `u16` cells (every shape here
//!   has m ≤ u16::MAX) plus `n` medians: 512 KiB at n = 512, the same
//!   bytes at m = 16 and m = 256; with `u32` cells it was 1 MiB, and
//!   the figures below are from then. The clone row's
//!   cost depends on the allocator, not on `m`: when glibc hands the
//!   freed matrix back to the OS, the next clone faults in 256 fresh
//!   pages. That is why `clone/16x512` once read about 5× `256x512`
//!   (the two-matrix view freed 2 MiB per drop); with one matrix both
//!   read about 45–60 µs, and forcing every 1 MiB block through mmap
//!   (`MALLOC_MMAP_THRESHOLD_=131072`) puts both at about 500 µs. The
//!   recycle row reuses warm pages, so it reads about 43 µs, memcpy
//!   speed for 1 MiB, under either setting. With `u16` cells both rows
//!   read about 16 µs at n = 512. A view also carries the epoch's
//!   median order, built when the view is taken (one counting scatter
//!   over the medians, about 1 µs at n ≤ 128 and 3–5 µs at n = 512),
//!   so that every median read of the epoch cuts it instead of sorting.
//! * **replace_publish/cycled8/32x512** (one row, after the grid): the
//!   served shape. Eight engines of 32 voters × 512 elements take a
//!   replace plus a `snapshot_reusing` republish in turn, so each edit
//!   finds its engine's state out of the core's caches, as a server
//!   holding many sessions does. This is where the size of the median
//!   state shows; a hot single engine hides it.
//!
//! Every replacement comes from a ring of 17 rankings. Each voter is
//! revisited every `m` edits (every `8·m` in the cycled row) with `m`
//! a power of two, so an odd ring hands it a new ranking each time.
//!
//! The crossover: an update-then-query cycle saves a factor `Θ(m)`
//! over rebuild-then-query, so the dynamic path wins whenever more
//! than a handful of voters survive between queries and the batch
//! build wins only when most of the profile churns per query (tiny
//! `m`, or bulk reload — where `from_profile` is the same cost as
//! `build`). The acceptance gate is ≥5× on the kemeny cycle at
//! m=256 × n=512; measured headroom is far larger (≈ m/2).
//!
//! Run with `cargo run --release -p bucketrank-bench --bin
//! bench_dynamic`. Results go to the perf trajectory file
//! `BENCH_dynamic.json` (override with `BUCKETRANK_BENCH_OUT`);
//! `BUCKETRANK_BENCH_FAST=1` runs the smoke-gate pass on shrunken
//! shapes.

use bucketrank_aggregate::dynamic::{DynamicProfile, VoterId};
use bucketrank_aggregate::median::median_positions;
use bucketrank_aggregate::tally::ProfileTally;
use bucketrank_aggregate::MedianPolicy;
use bucketrank_bench::report::{fast_mode, out_path, BenchReport};
use bucketrank_bench::timing::{group, Measurement, Sampler};
use bucketrank_core::{BucketOrder, ElementId};
use bucketrank_workloads::random::random_few_valued;
use bucketrank_workloads::rng::{Pcg32, Rng, SeedableRng};

/// Replacement rankings per ring (see the module docs): odd, so a
/// voter revisited every power-of-two number of edits gets a different
/// ranking each time.
const RING: usize = 17;

/// Engines the served cycle rotates through.
const CYCLED_ENGINES: usize = 8;

fn random_full(rng: &mut Pcg32, n: usize) -> BucketOrder {
    let mut ids: Vec<ElementId> = (0..n as ElementId).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    BucketOrder::from_permutation(&ids).expect("shuffled permutation")
}

fn main() {
    let fast = fast_mode();
    // Acceptance shapes: m ∈ {16, 256} voters × n ∈ {128, 512}
    // elements (the gate reads m=256 × n=512). The smoke gate shrinks
    // them so CI stays quick; the committed baseline uses the full
    // grid.
    let shapes: &[(usize, usize)] = if fast {
        &[(8, 32), (16, 64), (256, 16)]
    } else {
        &[(16, 128), (16, 512), (256, 128), (256, 512), (4096, 64)]
    };

    let s = Sampler::default();
    let mut all: Vec<Measurement> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();

    for &(m, n) in shapes {
        let mut rng = Pcg32::seed_from_u64(2004);
        let mut profile: Vec<BucketOrder> =
            (0..m).map(|_| random_few_valued(&mut rng, n, 8)).collect();
        let candidate = random_full(&mut rng, n);
        let tied_candidate = random_few_valued(&mut rng, n, 16);
        // A ring of replacement rankings so every iteration applies a
        // genuinely different edit (no no-op replace fast paths).
        let ring: Vec<BucketOrder> = (0..RING)
            .map(|_| random_few_valued(&mut rng, n, 8))
            .collect();
        let (mut dp, ids) =
            DynamicProfile::from_profile(&profile, MedianPolicy::Lower).unwrap();

        group(&format!("dynamic ({m} voters × {n} elements)"));

        let mut i = 0usize;
        let replace = s.bench(&format!("replace/dynamic/{m}x{n}"), || {
            i += 1;
            dp.replace_voter(ids[i % m], ring[i % ring.len()].clone())
                .unwrap()
        });

        let mut kemeny_rows = Vec::new();
        let mut line = Vec::new();
        for (kind, cand) in [
            ("update_kemeny", &candidate),
            ("update_kemeny_tied", &tied_candidate),
        ] {
            let mut i = 0usize;
            let dynamic = s.bench(&format!("{kind}/dynamic/{m}x{n}"), || {
                i += 1;
                dp.replace_voter(ids[i % m], ring[i % ring.len()].clone())
                    .unwrap();
                dp.tally().kemeny_cost_x2(cand).unwrap()
            });
            let mut j = 0usize;
            let rebuild = s.bench(&format!("{kind}/rebuild/{m}x{n}"), || {
                j += 1;
                profile[j % m] = ring[j % ring.len()].clone();
                let tally = ProfileTally::build(&profile).unwrap();
                tally.kemeny_cost_x2(cand).unwrap()
            });
            let speedup = rebuild.min_ns / dynamic.min_ns;
            line.push(format!("{kind} {speedup:.2}x"));
            speedups.push((format!("{kind}/{m}x{n}"), speedup));
            kemeny_rows.extend([dynamic, rebuild]);
        }

        let mut i = 0usize;
        let upd_med_dyn = s.bench(&format!("update_medians/dynamic/{m}x{n}"), || {
            i += 1;
            dp.replace_voter(ids[i % m], ring[i % ring.len()].clone())
                .unwrap();
            dp.median_positions().unwrap()
        });
        let mut j = 0usize;
        let upd_med_rebuild = s.bench(&format!("update_medians/rebuild/{m}x{n}"), || {
            j += 1;
            profile[j % m] = ring[j % ring.len()].clone();
            median_positions(&profile, MedianPolicy::Lower).unwrap()
        });

        let snapshot = s.bench(&format!("snapshot/clone/{m}x{n}"), || {
            dp.snapshot().unwrap()
        });
        // The server's republish: each copy lands in the buffers of the
        // snapshot the previous iteration retired.
        let mut spare = dp.snapshot().ok();
        let recycle = s.bench(&format!("snapshot/recycle/{m}x{n}"), || {
            let snap = dp.snapshot_reusing(spare.take()).unwrap();
            spare = Some(std::hint::black_box(snap));
        });

        let medians_speedup = upd_med_rebuild.min_ns / upd_med_dyn.min_ns;
        println!(
            "  speedups: {}, update_medians {medians_speedup:.2}x",
            line.join(", ")
        );
        speedups.push((format!("update_medians/{m}x{n}"), medians_speedup));
        all.push(replace);
        all.extend(kemeny_rows);
        all.extend([upd_med_dyn, upd_med_rebuild, snapshot, recycle]);
    }

    // The served shape: several sessions' engines, each edit a replace
    // plus a republish, cycled so every edit finds its engine's state
    // out of cache, as a server holding many sessions does.
    let (cm, cn) = if fast { (16, 64) } else { (32, 512) };
    let mut rng = Pcg32::seed_from_u64(2025);
    let ring: Vec<BucketOrder> = (0..RING)
        .map(|_| random_few_valued(&mut rng, cn, 8))
        .collect();
    let mut engines: Vec<(DynamicProfile, Vec<VoterId>)> = (0..CYCLED_ENGINES)
        .map(|_| {
            let profile: Vec<BucketOrder> =
                (0..cm).map(|_| random_few_valued(&mut rng, cn, 8)).collect();
            DynamicProfile::from_profile(&profile, MedianPolicy::Lower).unwrap()
        })
        .collect();
    group(&format!(
        "served cycle ({CYCLED_ENGINES} engines of {cm} voters × {cn} elements)"
    ));
    let mut spare = None;
    let mut i = 0usize;
    let cycled = s.bench(
        &format!("replace_publish/cycled{CYCLED_ENGINES}/{cm}x{cn}"),
        || {
            i += 1;
            let (dp, ids) = &mut engines[i % CYCLED_ENGINES];
            dp.replace_voter(ids[(i / CYCLED_ENGINES) % cm], ring[i % ring.len()].clone())
                .unwrap();
            let snap = dp.snapshot_reusing(spare.take()).unwrap();
            spare = Some(std::hint::black_box(snap));
        },
    );
    all.push(cycled);

    BenchReport::new("bench_dynamic")
        .shapes(shapes)
        .field_bool("fast", fast)
        .measurements(&all)
        .ratios("dynamic_speedups", &speedups)
        .write(&out_path("BENCH_dynamic.json"));

    // The smoke gate doubles as a regression check: the kemeny cycles,
    // full and tied candidate (whose rebuild arm pays the same O(m·n²)
    // tally build the engine amortizes away), may not lose to
    // rebuild-then-query at any measured shape; the acceptance bar is
    // ≥5× at 256x512. The medians cycle is the primitive with the
    // deliberate m ≲ n crossover, so it is reported as a trajectory
    // rather than gated.
    let worst = speedups
        .iter()
        .filter(|(name, _)| name.starts_with("update_kemeny"))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("nonempty");
    println!("worst update+kemeny speedup: {:.2}x ({})", worst.1, worst.0);
    let medians: Vec<String> = speedups
        .iter()
        .filter(|(name, _)| name.starts_with("update_medians/"))
        .map(|(name, r)| format!("{}: {r:.2}x", &name["update_medians/".len()..]))
        .collect();
    println!(
        "update+medians speedup by shape (mxn): {}",
        medians.join(", ")
    );
    if let Some((name, r)) = speedups
        .iter()
        .find(|(name, _)| name == "update_kemeny/256x512")
    {
        let verdict = if *r >= 5.0 { "PASS" } else { "FAIL" };
        println!("acceptance gate {name} >= 5x: {r:.2}x [{verdict}]");
    }
}
