//! E4 — Section 4: all four metrics are computable in polynomial time.
//! Measures wall-clock scaling of the `O(n log n)` implementations vs the
//! naive `O(n²)` reference, locating the crossover.
//!
//! Predicted shape: the fast paths scale quasi-linearly; the naive
//! quadratic reference overtakes them in cost by one to two orders of
//! magnitude by n ≈ 8192.

use bucketrank_bench::oracle::pair_counts_naive;
use bucketrank_bench::{timed, Table};
use bucketrank_metrics::pairs::pair_counts;
use bucketrank_metrics::{footrule, hausdorff, kendall};
use bucketrank_workloads::random::random_few_valued;
use bucketrank_workloads::rng::Pcg32;
use bucketrank_workloads::rng::SeedableRng;

fn main() {
    println!("E4 — metric computation scaling (times in µs, mean of reps)\n");
    let mut rng = Pcg32::seed_from_u64(4);
    let mut t = Table::new(&[
        "n",
        "pairs fast",
        "pairs naive",
        "speedup",
        "Kprof",
        "Fprof",
        "KHaus",
        "FHaus",
    ]);

    for &n in &[16usize, 64, 256, 1024, 4096, 8192] {
        let reps = if n <= 256 { 50 } else { 5 };
        let a = random_few_valued(&mut rng, n, 5);
        let b = random_few_valued(&mut rng, n, 5);

        let us = |secs: f64, reps: usize| format!("{:.1}", secs / reps as f64 * 1e6);

        let (_, fast) = timed(|| {
            for _ in 0..reps {
                std::hint::black_box(pair_counts(&a, &b).unwrap());
            }
        });
        let naive_secs = if n <= 4096 {
            let (_, s) = timed(|| {
                for _ in 0..reps {
                    std::hint::black_box(pair_counts_naive(&a, &b).unwrap());
                }
            });
            Some(s)
        } else {
            let (_, s) = timed(|| {
                std::hint::black_box(pair_counts_naive(&a, &b).unwrap());
            });
            Some(s * reps as f64)
        };

        let (_, kp) = timed(|| {
            for _ in 0..reps {
                std::hint::black_box(kendall::kprof_x2(&a, &b).unwrap());
            }
        });
        let (_, fp) = timed(|| {
            for _ in 0..reps {
                std::hint::black_box(footrule::fprof_x2(&a, &b).unwrap());
            }
        });
        let (_, kh) = timed(|| {
            for _ in 0..reps {
                std::hint::black_box(hausdorff::khaus(&a, &b).unwrap());
            }
        });
        let (_, fh) = timed(|| {
            for _ in 0..reps {
                std::hint::black_box(hausdorff::fhaus(&a, &b).unwrap());
            }
        });

        let naive = naive_secs.unwrap();
        t.row(&[
            n.to_string(),
            us(fast, reps),
            us(naive, reps),
            format!("{:.1}x", naive / fast.max(1e-12)),
            us(kp, reps),
            us(fp, reps),
            us(kh, reps),
            us(fh, reps),
        ]);
    }
    t.print();
    println!("\nall four metrics computed at n = 8192 in well under a second —");
    println!("the paper's polynomial-time claim, with the expected n log n");
    println!("vs n² separation growing with n.");
}
