//! Timing benches for the four partial-ranking metrics (experiment
//! E4's microbenchmark counterpart): fast vs naive pair statistics,
//! each metric across domain sizes, and a tie-density ablation.
//!
//! Run with `cargo run --release -p bucketrank-bench --bin bench_metrics`.

use bucketrank_bench::oracle::pair_counts_naive;
use bucketrank_bench::timing::{group, Sampler};
use bucketrank_metrics::pairs::pair_counts;
use bucketrank_metrics::{footrule, full, hausdorff, kendall};
use bucketrank_workloads::random::{random_few_valued, random_full_ranking};
use bucketrank_workloads::rng::{Pcg32, SeedableRng};

fn main() {
    let s = Sampler::default();

    group("pair_counts");
    let mut rng = Pcg32::seed_from_u64(41);
    for n in [64usize, 256, 1024, 4096] {
        let a = random_few_valued(&mut rng, n, 5);
        let b = random_few_valued(&mut rng, n, 5);
        s.bench(&format!("pair_counts/fast/{n}"), || {
            pair_counts(&a, &b).unwrap()
        });
        if n <= 1024 {
            s.bench(&format!("pair_counts/naive/{n}"), || {
                pair_counts_naive(&a, &b).unwrap()
            });
        }
    }

    group("metrics");
    let mut rng = Pcg32::seed_from_u64(42);
    for n in [256usize, 1024, 4096] {
        let a = random_few_valued(&mut rng, n, 5);
        let b = random_few_valued(&mut rng, n, 5);
        s.bench(&format!("metrics/kprof/{n}"), || {
            kendall::kprof_x2(&a, &b).unwrap()
        });
        s.bench(&format!("metrics/fprof/{n}"), || {
            footrule::fprof_x2(&a, &b).unwrap()
        });
        s.bench(&format!("metrics/khaus/{n}"), || {
            hausdorff::khaus(&a, &b).unwrap()
        });
        s.bench(&format!("metrics/fhaus/{n}"), || {
            hausdorff::fhaus(&a, &b).unwrap()
        });
    }

    group("full_rankings");
    let mut rng = Pcg32::seed_from_u64(43);
    for n in [1024usize, 8192] {
        let a = random_full_ranking(&mut rng, n);
        let b = random_full_ranking(&mut rng, n);
        s.bench(&format!("full_rankings/kendall/{n}"), || {
            full::kendall(&a, &b).unwrap()
        });
        s.bench(&format!("full_rankings/footrule/{n}"), || {
            full::footrule(&a, &b).unwrap()
        });
    }

    // Ablation: pair statistics cost vs tie structure at fixed n — from
    // two giant buckets (levels = 2) to a full permutation (levels ≫ n).
    group("tie_density (n = 4096)");
    let mut rng = Pcg32::seed_from_u64(44);
    let n = 4096;
    for levels in [2usize, 8, 64, 4096] {
        let a = random_few_valued(&mut rng, n, levels);
        let b = random_few_valued(&mut rng, n, levels);
        s.bench(&format!("tie_density/pair_counts/{levels}"), || {
            pair_counts(&a, &b).unwrap()
        });
        s.bench(&format!("tie_density/fhaus/{levels}"), || {
            hausdorff::fhaus(&a, &b).unwrap()
        });
    }
}
