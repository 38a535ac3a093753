//! Prepared-kernel batch engine vs the per-pair direct path, on the
//! full pairwise `DistanceMatrix` workload — the measurement backing
//! the `PreparedRanking` layer.
//!
//! Matrix rows also report **effective bytes/s** — the irreducible
//! per-pair traffic (both rankings' 4-byte-per-element prepared maps
//! read once) ÷ time — and the report carries a `roofline` section
//! with the machine's measured memcpy bandwidth (see
//! `bucketrank_bench::roofline` for the byte-counting convention).
//!
//! Run with `cargo run --release -p bucketrank-bench --bin
//! bench_batch_prepared`. Results are written to the perf trajectory
//! file `BENCH_metrics.json` (override with `BUCKETRANK_BENCH_OUT`);
//! `BUCKETRANK_BENCH_M` / `BUCKETRANK_BENCH_N` override the workload
//! shape, and `BUCKETRANK_BENCH_FAST=1` runs the smoke-gate pass. A
//! `sweep` row times the forced sweep lane on full permutations
//! (16 × 4096, so the count tree is three levels deep) in both modes.
//! Hard gates run in both modes: the dispatched `Kprof` matrix (the
//! counting lane on this bucketed workload) must hold ≥1.5× over the
//! forced sweep-lane baseline, every prepared weighted matrix ≥1× over
//! its naive per-pair path, and the prepared `FHaus` matrix ≥20× over
//! the direct one. The lane and weighted gates read the median round
//! ratio of `bucketrank_bench::timing::ab`.
//!
//! `order/from_keys/…` and `order/clone/…` rows time building and
//! cloning one `BucketOrder` (`n`x`k`: `n` elements in `k` equal
//! buckets) against the nested one-`Vec`-per-bucket layout of
//! `bucketrank_bench::oracle::NestedOrder`; `order/from_u32_keys/…`
//! times the counting-scatter constructor the server decodes rankings
//! with. Every row's output must equal the oracle's, and the flat
//! `from_keys` must hold ≥2× over the nested one at 512x16 (the decode
//! shape of a served 512-element ranking), read as the median round
//! ratio of `bucketrank_bench::timing::AbRounds`: four rounds after each
//! of the run's nine row sections, so a slow phase of the machine that
//! lasts a fraction of the run moves a few rounds, not the median. The
//! report's `gates` section records each gate's ratio with its
//! quartiles.

use bucketrank_bench::oracle::{pairwise_matrix_with, NestedOrder};
use bucketrank_bench::report::{env_usize, fast_mode, out_path, BenchReport};
use bucketrank_bench::roofline::memcpy_bandwidth;
use bucketrank_bench::timing::{ab, group, AbRatio, AbRounds, Measurement, Sampler};
use bucketrank_core::BucketOrder;
use bucketrank_metrics::batch::{
    pairwise_matrix, prepare_all, weighted_pairwise_matrix, BatchMetric, WeightedMetric,
};
use bucketrank_metrics::prepared::pair_counts_sweep;
use bucketrank_metrics::{PreparedRanking, Weights};
use bucketrank_workloads::random::{random_few_valued, random_full_ranking};
use bucketrank_workloads::rng::{Pcg32, SeedableRng, SliceRandom};

/// The order-layout shapes, `(n, k)`: `n` elements in `k` equal buckets.
const ORDER_SHAPES: [(usize, usize); 3] = [(512, 16), (512, 512), (256, 128)];

/// Keys placing `n` elements in `k` equal buckets, in shuffled order.
fn bucket_keys(rng: &mut Pcg32, n: usize, k: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.shuffle(rng);
    ids.iter().map(|&r| (r as usize * k / n) as u32).collect()
}

/// Alternating rounds each `ab` gate reads its median ratio over.
const GATE_ROUNDS: usize = 31;

/// Rounds of the order layout gate run after each row section (nine
/// sections, so 36 rounds in all).
const ORDER_BLOCK_ROUNDS: usize = 4;

/// Mean seconds per call over a batch of 64 calls.
fn per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    const BATCH: u32 = 64;
    let t0 = std::time::Instant::now();
    for _ in 0..BATCH {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() / f64::from(BATCH)
}

/// Mean seconds per call over as many calls as fill a millisecond (one
/// call when a call takes longer): the matrix gates' per-side cost,
/// short enough that a full-shape round stays a few milliseconds.
fn per_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let t0 = std::time::Instant::now();
    let mut calls = 0u32;
    loop {
        std::hint::black_box(f());
        calls += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= 1e-3 {
            return elapsed / f64::from(calls);
        }
    }
}

/// `BucketOrder::from_keys` behind a call boundary: the layout rows
/// and gate time the same out-of-line code wherever `main` lands.
#[inline(never)]
fn flat_from_keys(keys: &[u32]) -> BucketOrder {
    BucketOrder::from_keys(keys)
}

/// `NestedOrder::from_keys` behind a call boundary, as
/// [`flat_from_keys`].
#[inline(never)]
fn nested_from_keys(keys: &[u32]) -> NestedOrder {
    NestedOrder::from_keys(keys)
}

/// One block of the order layout gate: the flat `from_keys` against the
/// nested one on `keys`. Both sides go through the out-of-line
/// wrappers, so edits to `main` cannot move the ratio.
fn order_gate_block(gate: &mut AbRounds, keys: &[u32]) {
    gate.run(
        || per_call(|| nested_from_keys(keys)),
        || per_call(|| flat_from_keys(keys)),
        ORDER_BLOCK_ROUNDS,
    );
}

/// The `Kprof` matrix with the pair-statistics lane pinned to the
/// sweep kernel — the baseline the lane gate measures against. Mirrors
/// `pairwise_matrix_prepared` shape-for-shape: the thread's scratch,
/// one dense upper-triangle pass.
fn kprof_matrix_sweep(prepared: &[PreparedRanking<'_>]) -> Vec<u64> {
    let m = prepared.len();
    let mut out = vec![0u64; m * m];
    for i in 0..m {
        for j in i + 1..m {
            let c = pair_counts_sweep(&prepared[i], &prepared[j]).unwrap();
            let d = 2 * c.discordant + c.tied_exactly_one();
            out[i * m + j] = d;
            out[j * m + i] = d;
        }
    }
    out
}

fn main() {
    let fast = fast_mode();
    // Acceptance workload: m ≥ 64 rankings over n ≥ 512 elements. The
    // smoke gate shrinks it so CI stays quick; the committed baseline
    // uses the full shape.
    let (def_m, def_n) = if fast { (24, 96) } else { (64, 512) };
    let m = env_usize("BUCKETRANK_BENCH_M", def_m);
    let n = env_usize("BUCKETRANK_BENCH_N", def_n);

    // Every input is drawn up front, in one fixed order, so the order
    // layout gate's keys exist before the first row section.
    let mut rng = Pcg32::seed_from_u64(45);
    let profile: Vec<BucketOrder> = (0..m).map(|_| random_few_valued(&mut rng, n, 8)).collect();
    let (sweep_m, sweep_n) = (16, 4096);
    let full: Vec<BucketOrder> = (0..sweep_m)
        .map(|_| random_full_ranking(&mut rng, sweep_n))
        .collect();
    let order_keys: Vec<Vec<u32>> = ORDER_SHAPES
        .iter()
        .map(|&(on, ok)| bucket_keys(&mut rng, on, ok))
        .collect();
    let gate_keys = bucket_keys(&mut rng, 512, 16);
    let mut order_gate = AbRounds::default();

    let s = Sampler::default();
    let mut all: Vec<Measurement> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    let mut bandwidths: Vec<(String, f64)> = Vec::new();
    // Irreducible traffic of one full matrix: every unordered pair must
    // read both rankings' 4-byte-per-element prepared maps at least
    // once. Effective bytes/s on this floor is comparable across
    // metrics and lanes.
    let matrix_bytes = (m * (m - 1) / 2 * 2 * n * 4) as f64;

    for metric in BatchMetric::ALL {
        group(&format!("batch/{} ({m} rankings × {n} elements)", metric.name()));
        let direct_seq = s.bench(&format!("batch/{}/direct/seq/{m}x{n}", metric.name()), || {
            pairwise_matrix_with(&profile, |a, b| metric.direct(a, b)).unwrap()
        });
        let prepared_seq = s.bench(
            &format!("batch/{}/prepared/seq/{m}x{n}", metric.name()),
            || pairwise_matrix(&profile, metric).unwrap(),
        );

        let seq_speedup = direct_seq.min_ns / prepared_seq.min_ns;
        println!("  prepared speedup: {seq_speedup:.2}x");
        speedups.push((format!("batch/{}/seq", metric.name()), seq_speedup));
        bandwidths.push((
            prepared_seq.name.clone(),
            matrix_bytes / (prepared_seq.min_ns * 1e-9),
        ));
        all.extend([direct_seq, prepared_seq]);
        order_gate_block(&mut order_gate, &gate_keys);
    }

    // Weighted family rows: the naive per-pair kernels (which rebuild
    // per-ranking score vectors for every pair) against the prepared
    // matrix drivers, under a top-heavy linear weight profile.
    let weights = Weights::from_units((0..n).map(|p| (n - p) as u64).collect()).unwrap();
    let mut weighted_speedups: Vec<(String, f64)> = Vec::new();
    for metric in WeightedMetric::ALL {
        group(&format!(
            "batch/{} ({m} rankings × {n} elements, linear weights)",
            metric.name()
        ));
        let naive_seq = s.bench(&format!("batch/{}/naive/seq/{m}x{n}", metric.name()), || {
            pairwise_matrix_with(&profile, |a, b| metric.naive(a, b, &weights)).unwrap()
        });
        let prepared_seq = s.bench(
            &format!("batch/{}/prepared/seq/{m}x{n}", metric.name()),
            || weighted_pairwise_matrix(&profile, metric, &weights).unwrap(),
        );
        let seq_speedup = naive_seq.min_ns / prepared_seq.min_ns;
        println!("  prepared speedup: {seq_speedup:.2}x");
        weighted_speedups.push((format!("batch/{}/seq", metric.name()), seq_speedup));
        bandwidths.push((
            prepared_seq.name.clone(),
            matrix_bytes / (prepared_seq.min_ns * 1e-9),
        ));
        all.extend([naive_seq, prepared_seq]);
        order_gate_block(&mut order_gate, &gate_keys);
    }

    // The sweep lane at large kτ: on full permutations the dispatcher
    // picks this lane too, and at 4096 buckets the count tree is three
    // levels deep. Same shape in both modes; the views are prepared
    // once, outside the timing, so the row is the lane alone.
    let full_prepared = prepare_all(&full).unwrap();
    group(&format!(
        "batch/kprof_x2 sweep lane ({sweep_m} full rankings × {sweep_n} elements)"
    ));
    let sweep = s.bench(
        &format!("batch/kprof_x2/sweep/seq/{sweep_m}x{sweep_n}"),
        || kprof_matrix_sweep(&full_prepared),
    );
    let sweep_bytes = (sweep_m * (sweep_m - 1) / 2 * 2 * sweep_n * 4) as f64;
    bandwidths.push((sweep.name.clone(), sweep_bytes / (sweep.min_ns * 1e-9)));
    all.push(sweep);
    order_gate_block(&mut order_gate, &gate_keys);

    // Order layout rows: build and clone, flat against the nested
    // oracle, outputs compared before timing.
    let mut order_speedups: Vec<(String, f64)> = Vec::new();
    let mut order_exact = true;
    for ((on, ok), keys) in ORDER_SHAPES.into_iter().zip(&order_keys) {
        let flat = BucketOrder::from_keys(keys);
        let nested = NestedOrder::from_keys(keys);
        order_exact &= flat.num_buckets() == ok
            && nested.same_as(&flat)
            && nested.clone().same_as(&flat.clone())
            && nested.same_as(&BucketOrder::from_u32_keys(keys));
        group(&format!("order layout ({on} elements × {ok} buckets)"));
        let build = s.bench(&format!("order/from_keys/{on}x{ok}"), || {
            flat_from_keys(keys)
        });
        let build_nested = s.bench(&format!("order/from_keys/nested/{on}x{ok}"), || {
            nested_from_keys(keys)
        });
        let build_u32 = s.bench(&format!("order/from_u32_keys/{on}x{ok}"), || {
            BucketOrder::from_u32_keys(keys)
        });
        let clone = s.bench(&format!("order/clone/{on}x{ok}"), || flat.clone());
        let clone_nested = s.bench(&format!("order/clone/nested/{on}x{ok}"), || nested.clone());
        order_speedups.push((
            format!("order/from_keys/{on}x{ok}"),
            build_nested.min_ns / build.min_ns,
        ));
        order_speedups.push((
            format!("order/clone/{on}x{ok}"),
            clone_nested.min_ns / clone.min_ns,
        ));
        all.extend([build, build_nested, build_u32, clone, clone_nested]);
    }

    // Order layout gate (checked at the end): the flat `from_keys` must
    // hold ≥2× over the nested one at 512x16, over every block's rounds.
    order_gate_block(&mut order_gate, &gate_keys);
    let order_gate = order_gate.ratio();

    // Kprof lane gate (checked at the end): the dispatched matrix
    // (counting lane on this ≤8-bucket workload) against the forced
    // sweep lane, both preparing the profile inside the timing.
    let lane_gate = ab(
        || per_ms(|| kprof_matrix_sweep(&prepare_all(&profile).unwrap())),
        || per_ms(|| pairwise_matrix(&profile, BatchMetric::KProfX2).unwrap()),
        GATE_ROUNDS,
    );

    // Weighted lane gate (checked at the end): each prepared weighted
    // matrix against its naive per-pair path.
    let weighted_gates: Vec<(String, AbRatio)> = WeightedMetric::ALL
        .into_iter()
        .map(|metric| {
            let naive = || pairwise_matrix_with(&profile, |a, b| metric.naive(a, b, &weights));
            let prepared = || weighted_pairwise_matrix(&profile, metric, &weights);
            let gate = ab(|| per_ms(naive), || per_ms(prepared), GATE_ROUNDS);
            (format!("batch/{}/{m}x{n}", metric.name()), gate)
        })
        .collect();

    let roofline = memcpy_bandwidth();
    println!(
        "roofline: memcpy {:.2} GiB/s ({} MiB buffer, best of {})",
        roofline.memcpy_bytes_per_sec / f64::from(1u32 << 30),
        roofline.buffer_bytes >> 20,
        roofline.reps
    );

    let kprof_gate_name = format!("batch/kprof_x2/dispatched_vs_sweep/{m}x{n}");
    let mut gate_rows = vec![
        order_gate.json("order/from_keys/512x16", 2.0),
        lane_gate.json(&kprof_gate_name, 1.5),
    ];
    gate_rows.extend(weighted_gates.iter().map(|(name, gate)| gate.json(name, 1.0)));

    BenchReport::new("bench_batch_prepared")
        .field_usize("m", m)
        .field_usize("n", n)
        .field_bool("fast", fast)
        .measurements(&all)
        .ratios("prepared_speedups", &speedups)
        .ratios("weighted_speedups", &weighted_speedups)
        .ratios("order_speedups", &order_speedups)
        .bandwidths("effective_bandwidth", &bandwidths)
        .array("gates", &gate_rows)
        .field_raw("roofline", roofline.json())
        .write(&out_path("BENCH_metrics.json"));

    // The smoke gate doubles as a regression check: the prepared path
    // must not lose to the direct path on the matrix workload.
    let worst = speedups
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("nonempty");
    println!(
        "worst prepared speedup: {:.2}x ({})",
        worst.1, worst.0
    );

    // Hard lane gate: the dispatched Kprof matrix must hold ≥1.5× over
    // the forced sweep-lane baseline, as the median round ratio.
    let verdict = if lane_gate.median >= 1.5 { "PASS" } else { "FAIL" };
    println!(
        "kprof lane gate ({m}x{n}, dispatched >= 1.5x sweep lane): median of {} rounds {:.2}x (IQR {:.2}-{:.2}) [{verdict}]",
        lane_gate.rounds, lane_gate.median, lane_gate.q1, lane_gate.q3
    );
    if lane_gate.median < 1.5 {
        std::process::exit(1);
    }

    // FHaus gate: the prepared matrix (witness rank arrays by counting
    // scatter) must hold ≥20× over the direct one (four
    // materialized `star_chain` witnesses per pair), from the rows
    // above.
    let fhaus = speedups
        .iter()
        .find(|(name, _)| name == "batch/fhaus/seq")
        .expect("fhaus row")
        .1;
    let verdict = if fhaus >= 20.0 { "PASS" } else { "FAIL" };
    println!("fhaus gate ({m}x{n}, prepared >= 20x direct): {fhaus:.2}x [{verdict}]");
    if fhaus < 20.0 {
        std::process::exit(1);
    }

    // Weighted family gate: every prepared weighted matrix must not
    // lose to its naive per-pair path on the same workload — the
    // precomputed cumulative-mass scores have to pay for themselves.
    let (worst_name, worst_weighted) = weighted_gates
        .iter()
        .min_by(|a, b| a.1.median.partial_cmp(&b.1.median).expect("finite"))
        .expect("nonempty");
    let verdict = if worst_weighted.median >= 1.0 { "PASS" } else { "FAIL" };
    println!(
        "weighted lane gate ({m}x{n}, prepared >= 1x naive): worst median of {} rounds {:.2}x (IQR {:.2}-{:.2}, {worst_name}) [{verdict}]",
        worst_weighted.rounds, worst_weighted.median, worst_weighted.q1, worst_weighted.q3
    );
    if worst_weighted.median < 1.0 {
        std::process::exit(1);
    }

    // Order layout gate: every layout row matched the nested oracle
    // above, and the median round ratio holds the bound.
    let order_pass = order_exact && order_gate.median >= 2.0;
    let verdict = if order_pass { "PASS" } else { "FAIL" };
    println!(
        "order layout gate (512x16, == nested oracle and from_keys >= 2x nested): \
         exact {order_exact}, median of {} rounds {:.2}x (IQR {:.2}-{:.2}) [{verdict}]",
        order_gate.rounds, order_gate.median, order_gate.q1, order_gate.q3
    );
    if !order_pass {
        std::process::exit(1);
    }
}
