//! Heavy exhaustive sweeps, ignored by default. Run with:
//!
//! ```sh
//! cargo test --release --test exhaustive_heavy -- --ignored
//! ```
//!
//! These push the exhaustive verification one domain size beyond the
//! default suite (minutes, not seconds, in debug builds — hence opt-in).

use bucketrank::core::consistent::all_bucket_orders;
use bucketrank::metrics::hausdorff::{fhaus, khaus};
use bucketrank::metrics::{footrule, kendall};
use bucketrank::BucketOrder;
use bucketrank_bench::oracle::{fhaus_brute, khaus_brute, optimal_bucketing_brute};

#[test]
#[ignore = "exhaustive n = 5 sweep (541² pairs with brute-force Hausdorff)"]
fn hausdorff_brute_force_full_n5() {
    let orders = all_bucket_orders(5);
    assert_eq!(orders.len(), 541);
    for (i, a) in orders.iter().enumerate() {
        for b in &orders[i..] {
            assert_eq!(khaus(a, b).unwrap(), khaus_brute(a, b).unwrap());
            assert_eq!(fhaus(a, b).unwrap(), fhaus_brute(a, b).unwrap());
        }
    }
}

#[test]
#[ignore = "exhaustive n = 6 metric-equivalence sweep (4683² pairs)"]
fn equivalence_full_n6() {
    let orders = all_bucket_orders(6);
    assert_eq!(orders.len(), 4683);
    for a in &orders {
        for b in &orders {
            let kp2 = kendall::kprof_x2(a, b).unwrap();
            let fp2 = footrule::fprof_x2(a, b).unwrap();
            let kh = khaus(a, b).unwrap();
            let fh = fhaus(a, b).unwrap();
            assert!(kp2 <= fp2 && fp2 <= 2 * kp2);
            assert!(kh <= fh && fh <= 2 * kh);
            assert!(kp2 <= 2 * kh && kh <= kp2);
        }
    }
}

#[test]
#[ignore = "exhaustive n = 5 triangle-inequality sweep over 541³ triples"]
fn triangle_inequality_full_n5() {
    let orders = all_bucket_orders(5);
    // Precompute the Kprof matrix; triangle over all triples.
    let n = orders.len();
    let mut d = vec![0u64; n * n];
    for i in 0..n {
        for j in 0..n {
            d[i * n + j] = kendall::kprof_x2(&orders[i], &orders[j]).unwrap();
        }
    }
    for i in 0..n {
        for j in 0..n {
            let dij = d[i * n + j];
            for k in 0..n {
                assert!(d[i * n + k] <= dij + d[j * n + k]);
            }
        }
    }
}

#[test]
#[ignore = "exhaustive DP verification over every half-unit score vector, n = 5, values ≤ 12"]
fn dp_exhaustive_n5() {
    use bucketrank::aggregate::dp::optimal_bucketing;
    use bucketrank::Pos;
    let mut v = [0i64; 5];
    loop {
        let f: Vec<Pos> = v.iter().map(|&h| Pos::from_half_units(h)).collect();
        let a = optimal_bucketing(&f);
        let b = optimal_bucketing_brute(&f);
        assert_eq!(a.cost_x2, b.cost_x2, "f = {f:?}");
        let mut i = 0;
        loop {
            if i == v.len() {
                return;
            }
            v[i] += 1;
            if v[i] <= 12 {
                break;
            }
            v[i] = 0;
            i += 1;
        }
    }
}

#[test]
#[ignore = "exhaustive strong-optimality verification at n = 5 over all input triples of a pool"]
fn strong_optimality_pooled_n5() {
    use bucketrank::aggregate::strong::{aggregate_to_type_strong, is_projection_of};
    use bucketrank::{MedianPolicy, TypeSeq};
    // A pool of structurally diverse inputs; all triples.
    let pool: Vec<BucketOrder> = vec![
        BucketOrder::identity(5),
        BucketOrder::identity(5).reverse(),
        BucketOrder::trivial(5),
        BucketOrder::from_keys(&[1, 1, 2, 2, 3]),
        BucketOrder::from_keys(&[3, 2, 2, 1, 1]),
        BucketOrder::from_keys(&[2, 1, 3, 1, 2]),
        BucketOrder::top_k(5, &[4, 0]).unwrap(),
    ];
    let alpha = TypeSeq::top_k(5, 2).unwrap();
    for a in &pool {
        for b in &pool {
            for c in &pool {
                let inputs = vec![a.clone(), b.clone(), c.clone()];
                let s =
                    aggregate_to_type_strong(&inputs, &alpha, MedianPolicy::Lower).unwrap();
                assert!(is_projection_of(&s.output, &s.witness, &alpha).unwrap());
            }
        }
    }
}
