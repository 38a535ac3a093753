//! The shared pairwise-preference tally (`aggregate::tally`) vs the
//! direct per-voter paths it replaced, across profile shapes — the
//! measurement backing the tally layer.
//!
//! Four comparisons per shape `(m voters × n elements)`:
//!
//! * **build**: the old per-pair `prefers()`/`is_tied()` double loop
//!   (what kwiksort/Schulze/MC4/the majority digraph each used to pay
//!   privately) vs [`ProfileTally::build`];
//! * **mc4**: the MC4 transition-matrix build end to end — the old
//!   per-entry voter filter (`O(m·n²)`) vs tally build + `O(1)`
//!   strict-majority reads. The tally side is dominated by its build.
//!   At 16×512 it once read 0.77–0.94× naive because the build's
//!   fused `w2` derivation wrote the lower triangle with stride `n`;
//!   with one matrix the build is one sequential widen and the row
//!   reads about 3–4×. The transition rows walk `strict` column by
//!   column (stride `n`), and that walk is cheap next to the build at
//!   every shape measured, so no transposed copy is built;
//! * **local_kemenize**: the pre-tally per-swap voter scan vs the
//!   tally-backed `O(1)`-delta pass;
//! * **kemeny**: total `Kprof` cost of one candidate — the direct
//!   prepared-kernel path (`O(m·n log n)` per candidate) vs the
//!   tally-backed `O(n²)` evaluation (tally prebuilt, amortized). This
//!   primitive has a genuine crossover: the tally read wins once
//!   `m ≳ n / log n` and loses below it (the one-matrix branch-free
//!   scan moved that point below m = 16 at n = 512), which is why
//!   `cost::total_cost_x2_tally` is an opt-in fast path rather than a
//!   replacement. It is reported as a scaling trajectory, separate from
//!   the aggregator regression check.
//!
//! Build rows also report **effective bytes/s** — cells touched × cell
//! width ÷ time — next to the ns figures, and the report carries a
//! `roofline` section with the machine's measured memcpy bandwidth so
//! the distance to memory-bound is a number in the trajectory file
//! (see `bucketrank_bench::roofline` for the byte-counting convention).
//!
//! Run with `cargo run --release -p bucketrank-bench --bin
//! bench_aggregate_tally`. Results go to the perf trajectory file
//! `BENCH_aggregate.json` (override with `BUCKETRANK_BENCH_OUT`);
//! `BUCKETRANK_BENCH_FAST=1` runs the smoke-gate pass on shrunken
//! shapes. Two hard gates run in both modes. At the 256×512
//! acceptance shape the tiled build must hold ≥4× over the naive scan.
//! On the same profile cut to its first 16 voters, `kemeny_cost_x2` of
//! a 16-level tied candidate must equal
//! `bucketrank_bench::oracle::two_matrix_cost_x2` and run ≥3× faster
//! than it. The oracle's `w2` matrix is built once, before timing.

use bucketrank_aggregate::cost::{total_cost_x2, AggMetric};
use bucketrank_aggregate::local::local_kemenize_with_tally;
use bucketrank_aggregate::tally::{ProfileTally, CHUNK_VOTERS};
use bucketrank_bench::oracle;
use bucketrank_bench::report::{fast_mode, out_path, BenchReport};
use bucketrank_bench::roofline::memcpy_bandwidth;
use bucketrank_bench::timing::{group, Measurement, Sampler};
use bucketrank_core::{BucketOrder, ElementId};
use bucketrank_workloads::random::random_few_valued;
use bucketrank_workloads::rng::{Pcg32, Rng, SeedableRng};

/// The pre-tally MC4 transition rows: one voter filter-count per
/// `(u, v)` entry, `O(m·n²)` per chain build.
fn naive_mc4_matrix(inputs: &[BucketOrder], n: usize) -> Vec<f64> {
    let m = inputs.len() as f64;
    let mut p = vec![0.0f64; n * n];
    for u in 0..n as ElementId {
        let row = &mut p[u as usize * n..(u as usize + 1) * n];
        for v in 0..n as ElementId {
            if v != u {
                let pref = inputs.iter().filter(|s| s.prefers(v, u)).count();
                if pref as f64 > m / 2.0 {
                    row[v as usize] += 1.0 / n as f64;
                }
            }
        }
        let moved: f64 = row.iter().sum();
        row[u as usize] += 1.0 - moved;
    }
    p
}

/// The tally-backed MC4 transition rows as shipped in
/// `markov::transition_matrix`: build the tally, then one
/// `strict_majority` read per entry.
fn tally_mc4_matrix(inputs: &[BucketOrder], n: usize) -> Vec<f64> {
    let t = ProfileTally::build(inputs).unwrap();
    let mut p = vec![0.0f64; n * n];
    let inv = 1.0 / n as f64;
    for u in 0..n as ElementId {
        let row = &mut p[u as usize * n..(u as usize + 1) * n];
        let mut moved = 0usize;
        for (v, wins) in t.strict_majorities_against(u).enumerate() {
            let go = wins & (v != u as usize);
            row[v] = f64::from(go as u8) * inv;
            moved += go as usize;
        }
        row[u as usize] = 1.0 - moved as f64 * inv;
    }
    p
}

/// The pre-tally `local_kemenize`: per-swap pair costs summed over the
/// voters (hoisted bucket maps, as shipped before the tally layer).
fn naive_local_kemenize(candidate: &BucketOrder, inputs: &[BucketOrder]) -> BucketOrder {
    let mut perm = candidate.as_permutation().expect("full candidate");
    let input_buckets: Vec<&[u32]> = inputs.iter().map(|s| s.bucket_indices()).collect();
    let pair_cost = |a: ElementId, b: ElementId| -> i64 {
        let mut c = 0i64;
        for bo in &input_buckets {
            let (ba, bb) = (bo[a as usize], bo[b as usize]);
            if bb < ba {
                c += 2;
            } else if ba == bb {
                c += 1;
            }
        }
        c
    };
    for i in 1..perm.len() {
        let mut j = i;
        while j > 0 {
            let (ahead, here) = (perm[j - 1], perm[j]);
            if pair_cost(here, ahead) < pair_cost(ahead, here) {
                perm.swap(j - 1, j);
                j -= 1;
            } else {
                break;
            }
        }
    }
    BucketOrder::from_permutation(&perm).expect("permutation preserved")
}

/// Effective bytes one tiled tally build touches: the accumulate pass
/// writes `m·n²` `u16` cells. A profile of at most
/// [`CHUNK_VOTERS`] voters accumulates straight into its `u16` tally
/// and widens nothing; a wider one also touches the `n²` `u32`
/// `strict` matrix once.
fn tiled_build_bytes(m: usize, n: usize) -> f64 {
    let widen = if m <= CHUNK_VOTERS { 0 } else { n * n * 4 };
    (m * n * n * 2 + widen) as f64
}

/// Effective bytes the naive per-pair scan touches: one conditional
/// read-modify-write of an `n²` `u32` matrix per voter.
fn naive_build_bytes(m: usize, n: usize) -> f64 {
    (m * n * n * 4) as f64
}

/// Seconds per call of `f`, timed over a batch of 64 calls.
fn per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    const BATCH: u32 = 64;
    let t0 = std::time::Instant::now();
    for _ in 0..BATCH {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() / f64::from(BATCH)
}

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
    // elements. The smoke gate shrinks them so CI stays quick; the
    // committed baseline uses the full grid.
    let shapes: &[(usize, usize)] = if fast {
        &[(8, 32), (16, 64)]
    } else {
        &[(16, 128), (16, 512), (256, 128), (256, 512)]
    };

    let s = Sampler::default();
    let mut all: Vec<Measurement> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    let mut bandwidths: Vec<(String, f64)> = Vec::new();

    for &(m, n) in shapes {
        let mut rng = Pcg32::seed_from_u64(2004);
        let profile: Vec<BucketOrder> =
            (0..m).map(|_| random_few_valued(&mut rng, n, 8)).collect();
        let candidate = random_full(&mut rng, n);
        let start = candidate.reverse();
        let tally = ProfileTally::build(&profile).unwrap();

        group(&format!("tally ({m} voters × {n} elements)"));
        let build_naive = s.bench(&format!("tally/build/naive/{m}x{n}"), || {
            oracle::naive_weights_x2(&profile)
        });
        let build_seq = s.bench(&format!("tally/build/seq/{m}x{n}"), || {
            ProfileTally::build(&profile).unwrap()
        });

        bandwidths.push((
            build_naive.name.clone(),
            naive_build_bytes(m, n) / (build_naive.min_ns * 1e-9),
        ));
        bandwidths.push((
            build_seq.name.clone(),
            tiled_build_bytes(m, n) / (build_seq.min_ns * 1e-9),
        ));

        let mc4_naive = s.bench(&format!("mc4/naive/{m}x{n}"), || {
            naive_mc4_matrix(&profile, n)
        });
        let mc4_tally = s.bench(&format!("mc4/tally/{m}x{n}"), || {
            tally_mc4_matrix(&profile, n)
        });

        let lk_naive = s.bench(&format!("local_kemenize/naive/{m}x{n}"), || {
            naive_local_kemenize(&start, &profile)
        });
        let lk_tally = s.bench(&format!("local_kemenize/tally/{m}x{n}"), || {
            local_kemenize_with_tally(&start, &tally).unwrap()
        });

        let kemeny_direct = s.bench(&format!("kemeny/direct/{m}x{n}"), || {
            total_cost_x2(AggMetric::KProf, &candidate, &profile).unwrap()
        });
        let kemeny_tally = s.bench(&format!("kemeny/tally/{m}x{n}"), || {
            tally.kemeny_cost_x2(&candidate).unwrap()
        });

        let build_seq_speedup = build_naive.min_ns / build_seq.min_ns;
        let mc4_speedup = mc4_naive.min_ns / mc4_tally.min_ns;
        let lk_speedup = lk_naive.min_ns / lk_tally.min_ns;
        let kemeny_speedup = kemeny_direct.min_ns / kemeny_tally.min_ns;
        println!(
            "  speedups: build {build_seq_speedup:.2}x seq, \
             mc4 {mc4_speedup:.2}x, local_kemenize {lk_speedup:.2}x, \
             kemeny candidate scan {kemeny_speedup:.2}x"
        );
        speedups.push((format!("tally/build/seq/{m}x{n}"), build_seq_speedup));
        speedups.push((format!("mc4/{m}x{n}"), mc4_speedup));
        speedups.push((format!("local_kemenize/{m}x{n}"), lk_speedup));
        speedups.push((format!("kemeny/{m}x{n}"), kemeny_speedup));
        all.extend([
            build_naive,
            build_seq,
            mc4_naive,
            mc4_tally,
            lk_naive,
            lk_tally,
            kemeny_direct,
            kemeny_tally,
        ]);
    }

    let roofline = memcpy_bandwidth();
    println!(
        "roofline: memcpy {:.2} GiB/s ({} MiB buffer, best of {})",
        roofline.memcpy_bytes_per_sec / f64::from(1u32 << 30),
        roofline.buffer_bytes >> 20,
        roofline.reps
    );

    // The report is held until the hard gates below have run, so the
    // gate outcomes land in the trajectory file.
    let report = BenchReport::new("bench_aggregate_tally")
        .shapes(shapes)
        .field_bool("fast", fast)
        .measurements(&all)
        .ratios("tally_speedups", &speedups)
        .bandwidths("effective_bandwidth", &bandwidths)
        .field_raw("roofline", roofline.json());

    // The smoke gate doubles as a regression check: no rewired
    // aggregator stage (build / MC4 / local Kemenization) may lose to
    // the direct path it replaced. The kemeny candidate scan is the
    // opt-in primitive with a deliberate m ≳ n/log n crossover, so it
    // is reported as a trajectory rather than gated.
    let worst = speedups
        .iter()
        .filter(|(name, _)| !name.starts_with("kemeny/"))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("nonempty");
    println!("worst aggregator speedup: {:.2}x ({})", worst.1, worst.0);
    let kemeny: Vec<String> = speedups
        .iter()
        .filter(|(name, _)| name.starts_with("kemeny/"))
        .map(|(name, r)| format!("{}: {r:.2}x", &name["kemeny/".len()..]))
        .collect();
    println!(
        "kemeny candidate-scan speedup by shape (mxn): {}",
        kemeny.join(", ")
    );

    // Hard gates at the acceptance shape (256×512). Both run in both
    // modes — the fast grid omits the shape, so the profile is built
    // here — with best-of-3 `Instant` timings to keep them quick.
    let (gm, gn) = (256usize, 512usize);
    let mut rng = Pcg32::seed_from_u64(2004);
    let profile: Vec<BucketOrder> = (0..gm)
        .map(|_| random_few_valued(&mut rng, gn, 8))
        .collect();

    // Gate 1: the tiled build must hold ≥4× over the naive per-pair
    // scan — the anti-regression floor on the kernel itself.
    let mut naive_s = f64::INFINITY;
    let mut seq_s = f64::INFINITY;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        std::hint::black_box(oracle::naive_weights_x2(&profile));
        naive_s = naive_s.min(t0.elapsed().as_secs_f64());
        let t0 = std::time::Instant::now();
        std::hint::black_box(ProfileTally::build(&profile).unwrap());
        seq_s = seq_s.min(t0.elapsed().as_secs_f64());
    }
    let seq_ratio = naive_s / seq_s;
    let seq_pass = seq_ratio >= 4.0;
    let verdict = if seq_pass { "PASS" } else { "FAIL" };
    println!(
        "seq gate (256x512, seq >= 4x naive): naive {:.2}ms vs seq {:.2}ms = {seq_ratio:.2}x [{verdict}]",
        naive_s * 1e3,
        seq_s * 1e3
    );

    // Gate 2: the one-matrix Kemeny scan must return exactly
    // what the two-matrix oracle returns and hold ≥ 3× over it, at the
    // gate's 512-element shape with m = 16 voters and a 16-level tied
    // candidate — the shape the served `kemeny_cost` reads take.
    let tally16 = ProfileTally::build(&profile[..16]).unwrap();
    // The oracle's `w2` matrix is built once, outside the timed loop:
    // the tally derives it per call, which would time the derivation,
    // not the scan.
    let w2 = oracle::naive_weights_x2(&profile[..16]);
    // The oracle reads the strict counts widened to `u32`, as the
    // two-matrix scan always stored them.
    let strict_wide: Vec<u32> = tally16.strict_counts().iter().collect();
    let strict = &strict_wide[..];
    let tied = random_few_valued(&mut rng, gn, 16);
    let scan = tally16.kemeny_cost_x2(&tied).unwrap();
    let reference = oracle::two_matrix_cost_x2(&w2, strict, &tied);
    let kemeny_exact = scan == reference;
    // Interleaved best-of-7, 64 calls per timing, so both sides see the
    // same machine state.
    let (mut oracle_s, mut scan_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        oracle_s = oracle_s.min(per_call(|| oracle::two_matrix_cost_x2(&w2, strict, &tied)));
        scan_s = scan_s.min(per_call(|| tally16.kemeny_cost_x2(&tied).unwrap()));
    }
    let kemeny_ratio = oracle_s / scan_s;
    let kemeny_pass = kemeny_exact && kemeny_ratio >= 3.0;
    let verdict = if kemeny_pass { "PASS" } else { "FAIL" };
    println!(
        "kemeny gate (16x512, 16-level candidate, == oracle and >= 3x oracle): \
         {scan} vs oracle {reference}, oracle {:.1}us vs scan {:.1}us = {kemeny_ratio:.2}x [{verdict}]",
        oracle_s * 1e6,
        scan_s * 1e6
    );

    report
        .field_raw("seq_gate", format!("{{\"ratio\": {seq_ratio:.3}}}"))
        .field_raw(
            "kemeny_gate",
            format!("{{\"exact\": {kemeny_exact}, \"ratio\": {kemeny_ratio:.3}}}"),
        )
        .write(&out_path("BENCH_aggregate.json"));

    if !seq_pass || !kemeny_pass {
        std::process::exit(1);
    }
}
