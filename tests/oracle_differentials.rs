//! The library's fast paths against the naive and brute-force
//! references in `bucketrank_bench::oracle`, exhaustively on small
//! domains: pair statistics, `Kprof`, `Kavg`, Kendall tau, the Hausdorff
//! metrics, the batch matrix builders, inversion counting, the
//! assignment solver and the optimal-bucketing DP.

use bucketrank::aggregate::dp::{optimal_bucketing, Bucketing};
use bucketrank::aggregate::hungarian::solve_assignment;
use bucketrank::core::alg::count_inversions;
use bucketrank::core::consistent::all_bucket_orders;
use bucketrank::metrics::batch::{
    pairwise_matrix, prepare_all, weighted_pairwise_matrix, BatchMetric, WeightedMetric,
};
use bucketrank::metrics::footrule::l1_x2;
use bucketrank::metrics::full::kendall;
use bucketrank::metrics::hausdorff::{fhaus, khaus};
use bucketrank::metrics::kendall::{kavg_x2, kprof_x2};
use bucketrank::metrics::pairs::pair_counts;
use bucketrank::metrics::weighted::{self, Weights};
use bucketrank::{BucketOrder, ElementId, Pos};
use bucketrank_bench::oracle::{
    count_inversions_naive, fhaus_brute, hausdorff_sets, kavg_x2_brute, kendall_naive, khaus_brute,
    khaus_theorem5, kprof_x2_naive, optimal_bucketing_brute, optimal_bucketing_prefix,
    optimal_bucketing_table, pair_counts_naive, pairwise_matrix_with, solve_assignment_brute,
};

#[test]
fn pair_counts_domain_mismatch() {
    let a = BucketOrder::trivial(2);
    let b = BucketOrder::trivial(3);
    assert!(pair_counts(&a, &b).is_err());
    assert!(pair_counts_naive(&a, &b).is_err());
}

#[test]
fn pair_counts_fast_equals_naive_exhaustive_n4() {
    let orders = all_bucket_orders(4);
    for a in &orders {
        for b in &orders {
            let fast = pair_counts(a, b).unwrap();
            let naive = pair_counts_naive(a, b).unwrap();
            assert_eq!(fast, naive, "a = {a:?}, b = {b:?}");
            assert_eq!(fast.total(), 6);
        }
    }
}

#[test]
fn kprof_x2_matches_naive_exhaustive() {
    let orders = all_bucket_orders(4);
    for a in &orders {
        for b in &orders {
            assert_eq!(kprof_x2(a, b).unwrap(), kprof_x2_naive(a, b).unwrap());
        }
    }
}

#[test]
fn kavg_formula_matches_brute_force() {
    let orders = all_bucket_orders(3);
    for a in &orders {
        for b in &orders {
            assert_eq!(
                kavg_x2(a, b).unwrap(),
                kavg_x2_brute(a, b).unwrap(),
                "a = {a:?}, b = {b:?}"
            );
        }
    }
}

#[test]
fn kendall_fast_equals_naive_and_pairs_exhaustive() {
    let perms: Vec<BucketOrder> = all_bucket_orders(4)
        .into_iter()
        .filter(|o| o.is_full())
        .collect();
    assert_eq!(perms.len(), 24);
    for a in &perms {
        for b in &perms {
            let k = kendall(a, b).unwrap();
            assert_eq!(k, kendall_naive(a, b).unwrap());
            assert_eq!(k, pair_counts(a, b).unwrap().discordant);
        }
    }
}

#[test]
fn khaus_closed_form_matches_theorem5_and_brute_exhaustive() {
    let orders = all_bucket_orders(4);
    for a in &orders {
        for b in &orders {
            let closed = khaus(a, b).unwrap();
            assert_eq!(closed, khaus_theorem5(a, b).unwrap(), "{a:?} {b:?}");
        }
    }
    // Brute force is heavier; restrict to n = 3 exhaustive.
    for a in all_bucket_orders(3) {
        for b in all_bucket_orders(3) {
            assert_eq!(khaus(&a, &b).unwrap(), khaus_brute(&a, &b).unwrap());
        }
    }
}

#[test]
fn fhaus_theorem5_matches_brute_exhaustive() {
    for a in all_bucket_orders(3) {
        for b in all_bucket_orders(3) {
            assert_eq!(
                fhaus(&a, &b).unwrap(),
                fhaus_brute(&a, &b).unwrap(),
                "{a:?} {b:?}"
            );
        }
    }
}

#[test]
fn fhaus_matches_brute_on_n4_spot() {
    // A non-exhaustive but tie-heavy slice of n = 4.
    let bo = |buckets: Vec<Vec<ElementId>>| BucketOrder::from_buckets(4, buckets).unwrap();
    let cases = [
        bo(vec![vec![0, 1, 2, 3]]),
        bo(vec![vec![0, 1], vec![2, 3]]),
        bo(vec![vec![3], vec![0, 1, 2]]),
        bo(vec![vec![1, 2], vec![0], vec![3]]),
        BucketOrder::identity(4),
        BucketOrder::identity(4).reverse(),
    ];
    for a in &cases {
        for b in &cases {
            assert_eq!(fhaus(a, b).unwrap(), fhaus_brute(a, b).unwrap());
            assert_eq!(khaus(a, b).unwrap(), khaus_brute(a, b).unwrap());
        }
    }
}

#[test]
fn generic_hausdorff() {
    let a = [0i64, 10];
    let b = [2i64, 3];
    let d = |x: &i64, y: &i64| x.abs_diff(*y);
    assert_eq!(hausdorff_sets(&a, &b, d), 7); // 10 is 7 from {2,3}
}

#[test]
#[should_panic(expected = "nonempty")]
fn generic_hausdorff_empty_panics() {
    hausdorff_sets::<i64, _>(&[], &[1], |x, y| x.abs_diff(*y));
}

fn profile() -> Vec<BucketOrder> {
    (0..9)
        .map(|i| {
            let keys: Vec<i64> = (0..12).map(|e| ((e * (i + 2) + i) % 5) as i64).collect();
            BucketOrder::from_keys(&keys)
        })
        .collect()
}

#[test]
fn prepared_engine_matches_naive_reference_for_all_metrics() {
    let p = profile();
    for metric in BatchMetric::ALL {
        let naive = pairwise_matrix_with(&p, |a, b| metric.direct(a, b)).unwrap();
        let seq = pairwise_matrix(&p, metric).unwrap();
        assert_eq!(naive, seq, "{}", metric.name());
    }
}

#[test]
fn weighted_matrix_matches_naive_and_prepared_paths() {
    let p = profile();
    let w = Weights::from_units((1..=12u64).rev().collect()).unwrap();
    for metric in WeightedMetric::ALL {
        let naive = pairwise_matrix_with(&p, |a, b| metric.naive(a, b, &w)).unwrap();
        let mx = weighted_pairwise_matrix(&p, metric, &w).unwrap();
        assert_eq!(naive, mx, "{}", metric.name());
        // The prepared pair kernel agrees with the matrix entries too.
        let prepared = prepare_all(&p).unwrap();
        let kernel = match metric {
            WeightedMetric::WeightedFootruleX2 => weighted::weighted_footrule_x2_prepared,
            WeightedMetric::TopDiff => weighted::top_diff_prepared,
        };
        assert_eq!(
            kernel(&prepared[0], &prepared[1], &w).unwrap(),
            mx.get(0, 1),
            "{} prepared kernel",
            metric.name()
        );
    }
}

#[test]
fn batch_domain_mismatch_detected() {
    let p = vec![BucketOrder::trivial(3), BucketOrder::trivial(4)];
    assert!(pairwise_matrix(&p, BatchMetric::KProfX2).is_err());
    assert!(pairwise_matrix_with(&p, kprof_x2).is_err());
}

#[test]
fn inversions_match_naive_exhaustive() {
    // All sequences over {0,1,2} of length 5.
    for code in 0..3u32.pow(5) {
        let seq: Vec<u8> = (0..5).map(|i| (code / 3u32.pow(i) % 3) as u8).collect();
        assert_eq!(
            count_inversions(&seq),
            count_inversions_naive(&seq),
            "seq = {seq:?}"
        );
    }
}

#[test]
fn assignment_matches_brute_force_fuzz() {
    let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 100) as i64 - 20
    };
    for n in 1..=6 {
        for _ in 0..60 {
            let cost: Vec<i64> = (0..n * n).map(|_| next()).collect();
            let (asg, total) = solve_assignment(n, &cost);
            // Assignment must be a permutation.
            let mut seen = vec![false; n];
            for &c in &asg {
                assert!(!seen[c]);
                seen[c] = true;
            }
            assert_eq!(total, solve_assignment_brute(n, &cost), "n = {n}");
        }
    }
}

fn pos_vec(vals: &[i64]) -> Vec<Pos> {
    vals.iter().map(|&h| Pos::from_half_units(h)).collect()
}

fn check_cost(f: &[Pos], b: &Bucketing) {
    // Reported cost must equal the actual L1 between f† and f.
    let actual = l1_x2(&b.order.positions(), f).unwrap();
    assert_eq!(actual, b.cost_x2, "cost mismatch for f = {f:?}");
}

#[test]
fn all_variants_agree_small_exhaustive() {
    // All score vectors with half-unit values in {2,...,8}, n = 4.
    for code in 0..7i64.pow(4) {
        let scores: Vec<Pos> = (0..4)
            .map(|i| Pos::from_half_units(2 + code / 7i64.pow(i) % 7))
            .collect();
        let a = optimal_bucketing(&scores);
        let b = optimal_bucketing_table(&scores);
        let c = optimal_bucketing_prefix(&scores);
        let d = optimal_bucketing_brute(&scores);
        check_cost(&scores, &a);
        check_cost(&scores, &b);
        check_cost(&scores, &c);
        check_cost(&scores, &d);
        assert_eq!(a.cost_x2, d.cost_x2, "figure-1 vs brute: f = {scores:?}");
        assert_eq!(b.cost_x2, d.cost_x2, "table vs brute: f = {scores:?}");
        assert_eq!(c.cost_x2, d.cost_x2, "prefix vs brute: f = {scores:?}");
    }
}

#[test]
fn constant_scores_collapse_to_one_bucket_cost() {
    // f ≡ c: the single-bucket candidate has position (n+1)/2; the
    // optimum depends on c but must match brute force (this is the
    // case where the unclamped paper formula would misfire).
    for c in 1..=9 {
        let f = pos_vec(&[c; 5]);
        let a = optimal_bucketing(&f);
        let d = optimal_bucketing_brute(&f);
        assert_eq!(a.cost_x2, d.cost_x2, "c = {c}");
        check_cost(&f, &a);
    }
}

#[test]
fn far_separated_scores_all_bucketings_tie() {
    // When every score exceeds every achievable position, the cost
    // Σ(v − σ(d)) is invariant (Σ σ(d) = n(n+1)/2 for every bucket
    // order), so all bucketings are optimal; the DP must still report
    // a cost matching brute force.
    let f = pos_vec(&[2, 100, 200, 300]);
    let b = optimal_bucketing(&f);
    let d = optimal_bucketing_brute(&f);
    assert_eq!(b.cost_x2, d.cost_x2);
    check_cost(&f, &b);
}

#[test]
fn equal_scores_order_respects_values() {
    let f = pos_vec(&[6, 2, 6, 2, 6]);
    let b = optimal_bucketing(&f);
    let d = optimal_bucketing_brute(&f);
    assert_eq!(b.cost_x2, d.cost_x2);
    check_cost(&f, &b);
    // Low scorers (1, 3) must precede or tie high scorers (0, 2, 4).
    for &lo in &[1u32, 3] {
        for &hi in &[0u32, 2, 4] {
            assert!(!b.order.prefers(hi, lo));
        }
    }
}

#[test]
fn random_fuzz_against_brute() {
    // Deterministic LCG fuzz over n ∈ {1..10}, values in 0..30.
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64
    };
    for trial in 0..300 {
        let n = (next() % 10 + 1) as usize;
        let f: Vec<Pos> = (0..n).map(|_| Pos::from_half_units(next() % 30)).collect();
        let a = optimal_bucketing(&f);
        let t = optimal_bucketing_table(&f);
        let p = optimal_bucketing_prefix(&f);
        let d = optimal_bucketing_brute(&f);
        check_cost(&f, &a);
        assert_eq!(a.cost_x2, d.cost_x2, "trial {trial}: f = {f:?}");
        assert_eq!(t.cost_x2, d.cost_x2, "trial {trial}: f = {f:?}");
        assert_eq!(p.cost_x2, d.cost_x2, "trial {trial}: f = {f:?}");
    }
}
