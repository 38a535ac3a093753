//! Prepared-kernel batch engine vs the per-pair direct path, on the
//! full pairwise `DistanceMatrix` workload, sequential and parallel —
//! the measurement backing the `PreparedRanking` layer.
//!
//! Matrix rows also report **effective bytes/s** — the irreducible
//! per-pair traffic (both rankings' 4-byte-per-element prepared maps
//! read once) ÷ time — and the report carries a `roofline` section
//! with the machine's measured memcpy bandwidth (see
//! `bucketrank_bench::roofline` for the byte-counting convention).
//!
//! Run with `cargo run --release -p bucketrank-bench --bin
//! bench_batch_prepared`. Results are appended to the perf trajectory
//! file `BENCH_metrics.json` (override with `BUCKETRANK_BENCH_OUT`);
//! `BUCKETRANK_BENCH_M` / `BUCKETRANK_BENCH_N` override the workload
//! shape, and `BUCKETRANK_BENCH_FAST=1` runs the smoke-gate pass. A
//! `sweep` row times the forced sweep lane on full permutations
//! (16 × 4096, so the count tree is three levels deep) in both modes.
//! Hard gates run in both modes: the dispatched `Kprof` matrix (the
//! counting lane on this bucketed workload) must hold ≥1.5×
//! single-thread over the forced sweep-lane baseline, and the prepared
//! `FHaus` matrix ≥20× over the direct one.

use bucketrank_bench::report::{env_usize, fast_mode, out_path, BenchReport};
use bucketrank_bench::roofline::memcpy_bandwidth;
use bucketrank_bench::timing::{group, Measurement, Sampler};
use bucketrank_core::BucketOrder;
use bucketrank_metrics::batch::{
    pairwise_matrix, pairwise_matrix_parallel, pairwise_matrix_parallel_with,
    pairwise_matrix_with, prepare_all, weighted_pairwise_matrix,
    weighted_pairwise_matrix_parallel, BatchMetric, WeightedMetric,
};
use bucketrank_metrics::prepared::pair_counts_sweep;
use bucketrank_metrics::{PreparedRanking, Weights};
use bucketrank_workloads::random::{random_few_valued, random_full_ranking};
use bucketrank_workloads::rng::{Pcg32, SeedableRng};

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
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8);

    let mut rng = Pcg32::seed_from_u64(45);
    let profile: Vec<BucketOrder> = (0..m).map(|_| random_few_valued(&mut rng, n, 8)).collect();

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
        let direct_par = s.bench(
            &format!("batch/{}/direct/par{threads}/{m}x{n}", metric.name()),
            || pairwise_matrix_parallel_with(&profile, |a, b| metric.direct(a, b), threads)
                .unwrap(),
        );
        let prepared_par = s.bench(
            &format!("batch/{}/prepared/par{threads}/{m}x{n}", metric.name()),
            || pairwise_matrix_parallel(&profile, metric, threads).unwrap(),
        );

        let seq_speedup = direct_seq.min_ns / prepared_seq.min_ns;
        let par_speedup = direct_par.min_ns / prepared_par.min_ns;
        println!(
            "  prepared speedup: {seq_speedup:.2}x sequential, {par_speedup:.2}x parallel ({threads} threads)"
        );
        speedups.push((format!("batch/{}/seq", metric.name()), seq_speedup));
        speedups.push((format!("batch/{}/par{threads}", metric.name()), par_speedup));
        for meas in [&prepared_seq, &prepared_par] {
            bandwidths.push((meas.name.clone(), matrix_bytes / (meas.min_ns * 1e-9)));
        }
        all.extend([direct_seq, prepared_seq, direct_par, prepared_par]);
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
        let prepared_par = s.bench(
            &format!("batch/{}/prepared/par{threads}/{m}x{n}", metric.name()),
            || weighted_pairwise_matrix_parallel(&profile, metric, &weights, threads).unwrap(),
        );
        let seq_speedup = naive_seq.min_ns / prepared_seq.min_ns;
        let par_speedup = naive_seq.min_ns / prepared_par.min_ns;
        println!(
            "  prepared speedup: {seq_speedup:.2}x sequential, {par_speedup:.2}x parallel ({threads} threads)"
        );
        weighted_speedups.push((format!("batch/{}/seq", metric.name()), seq_speedup));
        weighted_speedups.push((format!("batch/{}/par{threads}", metric.name()), par_speedup));
        for meas in [&prepared_seq, &prepared_par] {
            bandwidths.push((meas.name.clone(), matrix_bytes / (meas.min_ns * 1e-9)));
        }
        all.extend([naive_seq, prepared_seq, prepared_par]);
    }

    // The sweep lane at large kτ: on full permutations the dispatcher
    // picks this lane too, and at 4096 buckets the count tree is three
    // levels deep. Same shape in both modes; the views are prepared
    // once, outside the timing, so the row is the lane alone.
    let (sweep_m, sweep_n) = (16, 4096);
    let full: Vec<BucketOrder> = (0..sweep_m)
        .map(|_| random_full_ranking(&mut rng, sweep_n))
        .collect();
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

    let roofline = memcpy_bandwidth();
    println!(
        "roofline: memcpy {:.2} GiB/s ({} MiB buffer, best of {})",
        roofline.memcpy_bytes_per_sec / f64::from(1u32 << 30),
        roofline.buffer_bytes >> 20,
        roofline.reps
    );

    BenchReport::new("bench_batch_prepared")
        .field_usize("m", m)
        .field_usize("n", n)
        .field_usize("threads", threads)
        .field_bool("fast", fast)
        .measurements(&all)
        .ratios("prepared_speedups", &speedups)
        .ratios("weighted_speedups", &weighted_speedups)
        .bandwidths("effective_bandwidth", &bandwidths)
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

    // Hard lane gate: the dispatched Kprof matrix (counting lane on
    // this ≤8-bucket workload) must hold ≥1.5× single-thread over the
    // forced sweep-lane baseline. Best-of-3 `Instant` timings; runs in
    // both modes on the same profile as the rows above.
    let mut sweep_s = f64::INFINITY;
    let mut table_s = f64::INFINITY;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(kprof_matrix_sweep(&prepare_all(&profile).unwrap()));
        sweep_s = sweep_s.min(t0.elapsed().as_secs_f64());
        let t0 = std::time::Instant::now();
        std::hint::black_box(pairwise_matrix(&profile, BatchMetric::KProfX2).unwrap());
        table_s = table_s.min(t0.elapsed().as_secs_f64());
    }
    let ratio = sweep_s / table_s;
    let verdict = if ratio >= 1.5 { "PASS" } else { "FAIL" };
    println!(
        "kprof lane gate ({m}x{n}, dispatched >= 1.5x sweep lane): sweep {:.2}ms vs dispatched {:.2}ms = {ratio:.2}x [{verdict}]",
        sweep_s * 1e3,
        table_s * 1e3
    );
    if ratio < 1.5 {
        std::process::exit(1);
    }

    // FHaus gate: the prepared matrix (witness rank arrays by counting
    // scatter) must hold ≥20× sequential over the direct one (four
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

    // Weighted family gate: the prepared weighted matrix (sequential)
    // must not lose to the naive per-pair path on the same workload —
    // the precomputed cumulative-mass scores have to pay for
    // themselves.
    let worst_weighted = weighted_speedups
        .iter()
        .filter(|(name, _)| name.ends_with("/seq"))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("nonempty");
    let verdict = if worst_weighted.1 >= 1.0 { "PASS" } else { "FAIL" };
    println!(
        "weighted lane gate ({m}x{n}, prepared >= 1x naive): worst {:.2}x ({}) [{verdict}]",
        worst_weighted.1, worst_weighted.0
    );
    if worst_weighted.1 < 1.0 {
        std::process::exit(1);
    }
}
