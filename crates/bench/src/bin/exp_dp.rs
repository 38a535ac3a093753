//! E5 — Appendix A.6.4 / Figure 1: the optimal-bucketing dynamic program
//! runs in `O(n²)` with linear space, and its three implementations plus
//! brute force agree.
//!
//! Predicted shape: quadrupling cost per doubling of n for all variants;
//! agreement of all variants on every instance; the linear-space Figure-1
//! variant fastest in memory terms and competitive in time.

use bucketrank_aggregate::dp::optimal_bucketing;
use bucketrank_bench::oracle::{
    optimal_bucketing_brute, optimal_bucketing_prefix, optimal_bucketing_table,
};
use bucketrank_bench::{timed, Table};
use bucketrank_core::Pos;
use bucketrank_workloads::rng::Pcg32;
use bucketrank_workloads::rng::{Rng, SeedableRng};

fn random_scores(rng: &mut Pcg32, n: usize) -> Vec<Pos> {
    (0..n)
        .map(|_| Pos::from_half_units(rng.gen_range(0..(4 * n as i64 + 2))))
        .collect()
}

fn main() {
    println!("E5 — optimal-bucketing DP (Figure 1): agreement and scaling\n");
    let mut rng = Pcg32::seed_from_u64(5);

    // Agreement: all variants vs brute force on small n.
    let mut checked = 0;
    for _ in 0..400 {
        let n = rng.gen_range(1..=11);
        let f = random_scores(&mut rng, n);
        let a = optimal_bucketing(&f);
        let b = optimal_bucketing_table(&f);
        let c = optimal_bucketing_prefix(&f);
        let d = optimal_bucketing_brute(&f);
        assert_eq!(a.cost_x2, d.cost_x2, "figure-1 vs brute on {f:?}");
        assert_eq!(b.cost_x2, d.cost_x2, "table vs brute on {f:?}");
        assert_eq!(c.cost_x2, d.cost_x2, "prefix vs brute on {f:?}");
        checked += 1;
    }
    println!("agreement: {checked} random instances, all four variants identical.\n");

    // Scaling.
    let mut t = Table::new(&[
        "n",
        "figure-1 (ms)",
        "table (ms)",
        "prefix (ms)",
        "fig1 ratio vs half-n",
    ]);
    let mut prev: Option<f64> = None;
    for &n in &[64usize, 128, 256, 512, 1024, 2048, 4096] {
        let f = random_scores(&mut rng, n);
        let reps = if n <= 512 { 10 } else { 3 };
        let (_, t1) = timed(|| {
            for _ in 0..reps {
                std::hint::black_box(optimal_bucketing(&f));
            }
        });
        let (_, t2) = timed(|| {
            for _ in 0..reps {
                std::hint::black_box(optimal_bucketing_table(&f));
            }
        });
        let (_, t3) = timed(|| {
            for _ in 0..reps {
                std::hint::black_box(optimal_bucketing_prefix(&f));
            }
        });
        let ms = |s: f64| s / reps as f64 * 1e3;
        let cur = ms(t1);
        let growth = prev.map_or("-".to_owned(), |p| format!("{:.2}", cur / p));
        prev = Some(cur);
        t.row(&[
            n.to_string(),
            format!("{:.3}", cur),
            format!("{:.3}", ms(t2)),
            format!("{:.3}", ms(t3)),
            growth,
        ]);
    }
    t.print();
    println!("\npredicted shape: growth ratio ≈ 4 per doubling (O(n²));");
    println!("prefix variant carries an extra log factor; the table variant");
    println!("pays O(n²) memory, visible as a slowdown at large n.");
}
