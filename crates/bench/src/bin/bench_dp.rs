//! Timing benches for the optimal-bucketing dynamic program
//! (experiment E5's microbenchmark counterpart): the paper's Figure-1
//! linear-space algorithm vs the table and prefix-sum variants.
//!
//! Run with `cargo run --release -p bucketrank-bench --bin bench_dp`.

use bucketrank_aggregate::dp::optimal_bucketing;
use bucketrank_bench::oracle::{optimal_bucketing_prefix, optimal_bucketing_table};
use bucketrank_bench::timing::{group, Sampler};
use bucketrank_core::Pos;
use bucketrank_workloads::rng::{Pcg32, Rng, SeedableRng};

fn scores(rng: &mut Pcg32, n: usize) -> Vec<Pos> {
    (0..n)
        .map(|_| Pos::from_half_units(rng.gen_range(0..(4 * n as i64 + 2))))
        .collect()
}

fn main() {
    let s = Sampler::default();

    group("optimal_bucketing");
    let mut rng = Pcg32::seed_from_u64(51);
    for n in [128usize, 512, 2048] {
        let f = scores(&mut rng, n);
        s.bench(&format!("optimal_bucketing/figure1/{n}"), || {
            optimal_bucketing(&f)
        });
        s.bench(&format!("optimal_bucketing/table/{n}"), || {
            optimal_bucketing_table(&f)
        });
        s.bench(&format!("optimal_bucketing/prefix/{n}"), || {
            optimal_bucketing_prefix(&f)
        });
    }

    // Ablation: clustered scores (few natural buckets) vs spread scores.
    group("dp_score_structure (n = 1024)");
    let mut rng = Pcg32::seed_from_u64(52);
    let n = 1024;
    let clustered: Vec<Pos> = (0..n)
        .map(|_| Pos::from_half_units(rng.gen_range(0..5) * 400 + rng.gen_range(0..10)))
        .collect();
    let spread = scores(&mut rng, n);
    s.bench("dp_score_structure/clustered", || {
        optimal_bucketing(&clustered)
    });
    s.bench("dp_score_structure/spread", || optimal_bucketing(&spread));
}
