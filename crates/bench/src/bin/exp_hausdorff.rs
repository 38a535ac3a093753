//! E9 — Theorem 5 / Proposition 6: the Hausdorff characterization.
//! Exhaustively certifies, for every pair of bucket orders on small
//! domains, that (a) the constructed witness pairs attain the true
//! max-min over exponentially many refinements, for both F and K, and
//! (b) the closed form `|U| + max{|S|,|T|}` equals `KHaus`; then reports
//! the cost of the closed form at scale.

use bucketrank_bench::oracle::{fhaus_brute, khaus_brute, khaus_theorem5};
use bucketrank_bench::{timed, Table};
use bucketrank_core::consistent::all_bucket_orders;
use bucketrank_core::refine::count_full_refinements;
use bucketrank_metrics::hausdorff::{fhaus, khaus};
use bucketrank_workloads::random::random_few_valued;
use bucketrank_workloads::rng::Pcg32;
use bucketrank_workloads::rng::SeedableRng;

fn main() {
    println!("E9 — Hausdorff characterization (Theorem 5, Proposition 6)\n");

    let mut t = Table::new(&[
        "n",
        "pairs",
        "max refinement set",
        "FHaus matches brute",
        "KHaus matches brute",
        "Prop 6 = Thm 5",
    ]);
    for n in 2..=4 {
        let orders = all_bucket_orders(n);
        let mut pairs = 0u64;
        let mut max_ref: u128 = 0;
        for a in &orders {
            max_ref = max_ref.max(count_full_refinements(a).unwrap());
            for b in &orders {
                assert_eq!(fhaus(a, b).unwrap(), fhaus_brute(a, b).unwrap());
                assert_eq!(khaus(a, b).unwrap(), khaus_brute(a, b).unwrap());
                assert_eq!(khaus(a, b).unwrap(), khaus_theorem5(a, b).unwrap());
                pairs += 1;
            }
        }
        t.row(&[
            n.to_string(),
            pairs.to_string(),
            max_ref.to_string(),
            "yes".to_owned(),
            "yes".to_owned(),
            "yes".to_owned(),
        ]);
    }
    t.print();

    // n = 5 sampled brute force (the refinement sets reach 120 each).
    let orders5 = all_bucket_orders(5);
    let mut rng = Pcg32::seed_from_u64(9);
    use bucketrank_workloads::rng::Rng;
    let mut checked = 0;
    for _ in 0..300 {
        let a = &orders5[rng.gen_range(0..orders5.len())];
        let b = &orders5[rng.gen_range(0..orders5.len())];
        assert_eq!(fhaus(a, b).unwrap(), fhaus_brute(a, b).unwrap());
        assert_eq!(khaus(a, b).unwrap(), khaus_brute(a, b).unwrap());
        checked += 1;
    }
    println!("\nn = 5: {checked} random pairs against brute force — all matched.");

    // Scale: the characterization makes an exponential max-min linear-ish.
    println!("\ncost of KHaus/FHaus via characterization at scale:");
    let mut t2 = Table::new(&["n", "KHaus (µs)", "FHaus (µs)", "refinements (lower bnd)"]);
    for &n in &[100usize, 1_000, 10_000] {
        let a = random_few_valued(&mut rng, n, 4);
        let b = random_few_valued(&mut rng, n, 4);
        let reps = 10;
        let (_, tk) = timed(|| {
            for _ in 0..reps {
                std::hint::black_box(khaus(&a, &b).unwrap());
            }
        });
        let (_, tf) = timed(|| {
            for _ in 0..reps {
                std::hint::black_box(fhaus(&a, &b).unwrap());
            }
        });
        let refs = count_full_refinements(&a)
            .map(|c| format!("{:.3e}", c as f64))
            .unwrap_or_else(|| "> 10^38".to_owned());
        t2.row(&[
            n.to_string(),
            format!("{:.1}", tk / reps as f64 * 1e6),
            format!("{:.1}", tf / reps as f64 * 1e6),
            refs,
        ]);
    }
    t2.print();
    println!("\nthe max-min over astronomically many refinements is computed in");
    println!("microseconds — the polynomial-time claim of Section 4.");
}
