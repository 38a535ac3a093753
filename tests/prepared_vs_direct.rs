//! Differential conformance suite for the prepared-ranking kernels:
//! every `*_prepared` kernel must return **exactly** the same integer as
//! the direct metric function — no float tolerance, since every value is
//! exact — on random same-domain pairs with heavy degenerate coverage
//! (full rankings, single-bucket rankings, singleton domains), and must
//! report mismatched domains as a [`MetricsError`], never a panic.
//!
//! The pair-statistics dispatcher gets its own lane: the counting
//! (contingency-table) and sweep (suffix-count tree) lanes are held
//! bit-identical on every generated pair, the sweep lane is driven
//! across every level boundary of its 16-ary tree, and the thread's
//! kernel scratch is reused across pairs of shrinking and growing sizes
//! and tree depths to prove it carries no state between calls. The `fhaus` witness scatter is pinned on the shapes where a
//! counting scatter can go wrong: no ties, one bucket, a ranking
//! against its own reversal, and many-bucket pairs in both directions.

use bucketrank::metrics::batch::{
    pairwise_matrix, prepare_all, weighted_pairwise_matrix, BatchMetric, WeightedMetric,
};
use bucketrank::metrics::prepared::{
    fhaus_prepared, fhaus_x2_prepared, fprof_x2_prepared, kavg_x2_prepared, khaus_prepared,
    khaus_x2_prepared, kprof_x2_prepared, pair_counts_prepared, pair_counts_sweep,
    pair_counts_table, PreparedRanking,
};
use bucketrank::metrics::weighted::{top_diff_prepared, weighted_footrule_x2_prepared, Weights};
use bucketrank::metrics::{footrule, hausdorff, kendall, pairs, MetricsError};
use bucketrank::BucketOrder;
use bucketrank_bench::oracle::pairwise_matrix_with;
use bucketrank_testkit::prelude::*;

/// Assert exact prepared-vs-direct agreement on one pair, for every
/// kernel the prepared layer exposes.
fn assert_kernels_match(a: &BucketOrder, b: &BucketOrder) {
    let pa = PreparedRanking::new(a);
    let pb = PreparedRanking::new(b);
    assert_eq!(
        pair_counts_prepared(&pa, &pb).unwrap(),
        pairs::pair_counts(a, b).unwrap(),
        "pair_counts: {a:?} vs {b:?}"
    );
    assert_eq!(
        kprof_x2_prepared(&pa, &pb).unwrap(),
        kendall::kprof_x2(a, b).unwrap(),
        "kprof_x2: {a:?} vs {b:?}"
    );
    assert_eq!(
        kavg_x2_prepared(&pa, &pb).unwrap(),
        kendall::kavg_x2(a, b).unwrap(),
        "kavg_x2: {a:?} vs {b:?}"
    );
    assert_eq!(
        fprof_x2_prepared(&pa, &pb).unwrap(),
        footrule::fprof_x2(a, b).unwrap(),
        "fprof_x2: {a:?} vs {b:?}"
    );
    assert_eq!(
        khaus_prepared(&pa, &pb).unwrap(),
        hausdorff::khaus(a, b).unwrap(),
        "khaus: {a:?} vs {b:?}"
    );
    assert_eq!(
        khaus_x2_prepared(&pa, &pb).unwrap(),
        2 * hausdorff::khaus(a, b).unwrap(),
        "khaus_x2: {a:?} vs {b:?}"
    );
    assert_eq!(
        fhaus_prepared(&pa, &pb).unwrap(),
        hausdorff::fhaus(a, b).unwrap(),
        "fhaus: {a:?} vs {b:?}"
    );
    assert_eq!(
        fhaus_x2_prepared(&pa, &pb).unwrap(),
        2 * hausdorff::fhaus(a, b).unwrap(),
        "fhaus_x2: {a:?} vs {b:?}"
    );
}

#[test]
fn prepared_equals_direct_on_degenerate_heavy_pairs() {
    // The degenerate-weighted pair stream: singleton domains, all-tied
    // sides, full×full pairs, and generic pairs, all over one domain.
    check(
        "prepared_equals_direct_on_degenerate_heavy_pairs",
        gen::order_pair_with_degenerates(12, 4),
        |(a, b)| assert_kernels_match(a, b),
    );
}

#[test]
fn prepared_equals_direct_on_full_rankings() {
    check(
        "prepared_equals_direct_on_full_rankings",
        gen::full_pair(10),
        |(a, b)| assert_kernels_match(a, b),
    );
}

#[test]
fn prepared_equals_direct_on_near_tied_pairs() {
    // Two levels over eleven elements: huge buckets, maximal tie mass.
    check(
        "prepared_equals_direct_on_near_tied_pairs",
        gen::order_pair(11, 2),
        |(a, b)| assert_kernels_match(a, b),
    );
}

#[test]
fn prepared_equals_direct_on_singleton_and_single_bucket() {
    // Pinned smallest cases, independent of generator weighting.
    let singleton = BucketOrder::trivial(1);
    assert_kernels_match(&singleton, &singleton);
    let tied = BucketOrder::trivial(7);
    let full = BucketOrder::from_permutation(&[3, 0, 6, 2, 5, 1, 4]).unwrap();
    assert_kernels_match(&tied, &tied);
    assert_kernels_match(&tied, &full);
    assert_kernels_match(&full, &tied);
}

#[test]
fn batch_matrix_equals_direct_double_loop_sequential_and_parallel() {
    // The conformance requirement end to end: the prepared batch engine
    // agrees exactly with a per-pair direct evaluation, for every
    // metric, on random profiles.
    check(
        "batch_matrix_equals_direct_double_loop_sequential_and_parallel",
        gen::vec_of(gen::bucket_order(9, 3), 2..=7),
        |profile| {
            for metric in BatchMetric::ALL {
                let naive = pairwise_matrix_with(profile, |a, b| metric.direct(a, b)).unwrap();
                let prepared = pairwise_matrix(profile, metric).unwrap();
                assert_eq!(naive, prepared, "{}", metric.name());
            }
        },
    );
}

#[test]
fn counting_and_sort_lanes_agree_on_degenerate_heavy_pairs() {
    // Both forced lanes and the dispatcher, against the direct
    // reference, on the degenerate-weighted pair stream. The thread's
    // scratch serves the whole run — reuse across pairs (and across
    // lanes) must never leak state.
    check(
        "counting_and_sort_lanes_agree_on_degenerate_heavy_pairs",
        gen::order_pair_with_degenerates(12, 4),
        |(a, b)| {
            let expected = pairs::pair_counts(a, b).unwrap();
            let pa = PreparedRanking::new(a);
            let pb = PreparedRanking::new(b);
            assert_eq!(
                pair_counts_table(&pa, &pb).unwrap(),
                expected,
                "table lane: {a:?} vs {b:?}"
            );
            assert_eq!(
                pair_counts_sweep(&pa, &pb).unwrap(),
                expected,
                "sweep lane: {a:?} vs {b:?}"
            );
            assert_eq!(
                pair_counts_prepared(&pa, &pb).unwrap(),
                expected,
                "dispatcher: {a:?} vs {b:?}"
            );
        },
    );
}

#[test]
fn arena_reuse_across_shrinking_and_growing_sizes() {
    // Pin the stale-scratch hazard directly: the same scratch answers a
    // large fine-bucketed pair (sweep lane, big count tree), then a small
    // coarse pair (counting lane, table smaller than the previous
    // buffers), then a large pair again. Each answer must match the
    // direct kernel computed fresh.
    let big_a = BucketOrder::from_permutation(&[7, 2, 9, 0, 4, 6, 1, 8, 3, 5]).unwrap();
    let big_b = BucketOrder::from_permutation(&[3, 8, 0, 5, 9, 1, 7, 2, 6, 4]).unwrap();
    let small_a = BucketOrder::from_keys(&[1, 2, 1]);
    let small_b = BucketOrder::from_keys(&[2, 1, 1]);
    for _ in 0..3 {
        for (a, b) in [(&big_a, &big_b), (&small_a, &small_b), (&big_b, &big_a)] {
            let expected = pairs::pair_counts(a, b).unwrap();
            let pa = PreparedRanking::new(a);
            let pb = PreparedRanking::new(b);
            assert_eq!(pair_counts_prepared(&pa, &pb).unwrap(), expected);
            assert_eq!(pair_counts_table(&pa, &pb).unwrap(), expected);
            assert_eq!(pair_counts_sweep(&pa, &pb).unwrap(), expected);
        }
    }
}

/// A bucket order on `n ≥ k` elements with exactly `k` buckets: every
/// bucket gets one element, the rest land in random buckets.
fn order_with_buckets(rng: &mut Pcg32, n: usize, k: usize) -> BucketOrder {
    let mut keys: Vec<usize> = (0..n)
        .map(|i| if i < k { i } else { rng.gen_range(0..k) })
        .collect();
    keys.shuffle(rng);
    let order = BucketOrder::from_keys(&keys);
    assert_eq!(order.num_buckets(), k);
    order
}

/// The forced sweep lane and the dispatcher, both directions, against
/// the direct reference.
fn assert_sweep_matches(a: &BucketOrder, b: &BucketOrder) {
    for (x, y) in [(a, b), (b, a)] {
        let expected = pairs::pair_counts(x, y).unwrap();
        let (px, py) = (PreparedRanking::new(x), PreparedRanking::new(y));
        let (kx, ky) = (x.num_buckets(), y.num_buckets());
        assert_eq!(
            pair_counts_sweep(&px, &py).unwrap(),
            expected,
            "sweep lane, n = {}, buckets {kx} vs {ky}",
            x.len()
        );
        assert_eq!(
            pair_counts_prepared(&px, &py).unwrap(),
            expected,
            "dispatcher, n = {}, buckets {kx} vs {ky}",
            x.len()
        );
    }
}

#[test]
fn sweep_lane_across_count_tree_level_boundaries() {
    // The sweep lane's tree has one level per base-16 digit of kτ − 1:
    // these counts sit on both sides of the 1→2, 2→3 and 3→4 level
    // boundaries. τ has exactly kτ buckets; σ is a full permutation (the
    // lane's main customer) or fine-bucketed (segments of about three,
    // so queries and inserts interleave within a σ-bucket's run).
    let mut rng = Pcg32::seed_from_u64(0x5eed_7ee5);
    for kt in [1usize, 15, 16, 17, 255, 256, 257, 4097] {
        let n = kt + kt / 3 + 2;
        let tau = order_with_buckets(&mut rng, n, kt);
        let full = order_with_buckets(&mut rng, n, n);
        let fine = order_with_buckets(&mut rng, n, n.div_ceil(3));
        assert_sweep_matches(&full, &tau);
        assert_sweep_matches(&fine, &tau);
        // Full against full: kσ = kτ = n, the widest tree at this n.
        let other_full = order_with_buckets(&mut rng, kt, kt);
        let full_kt = order_with_buckets(&mut rng, kt, kt);
        assert_sweep_matches(&full_kt, &other_full);
    }
}

#[test]
fn sweep_arena_reuse_across_tree_depths() {
    // One scratch through a 3-level tree (kτ = 300), then a 1-level tree
    // (kτ = 5), then a 2-level tree (kτ = 40): a shallower tree must not
    // read the deeper tree's leftover cells or levels.
    let mut rng = Pcg32::seed_from_u64(0xa7e7_a000);
    for _ in 0..2 {
        for (n, kt) in [(400, 300), (12, 5), (90, 40)] {
            let tau = order_with_buckets(&mut rng, n, kt);
            let full = order_with_buckets(&mut rng, n, n);
            assert_sweep_matches(&full, &tau);
        }
    }
}

/// `fhaus` prepared against the direct witness construction.
fn assert_fhaus_matches(a: &BucketOrder, b: &BucketOrder) {
    let (pa, pb) = (PreparedRanking::new(a), PreparedRanking::new(b));
    let expected = hausdorff::fhaus(a, b).unwrap();
    assert_eq!(
        fhaus_prepared(&pa, &pb).unwrap(),
        expected,
        "fhaus: {a:?} vs {b:?}"
    );
}

#[test]
fn fhaus_scatter_on_full_single_bucket_and_reversed_orders() {
    let mut rng = Pcg32::seed_from_u64(0xf4a0_5ca7);
    for n in [1usize, 2, 5, 16, 63] {
        let full = order_with_buckets(&mut rng, n, n);
        let other_full = order_with_buckets(&mut rng, n, n);
        let tied = BucketOrder::trivial(n);
        let bucketed = order_with_buckets(&mut rng, n, n.div_ceil(4));
        // Full rankings: every witness is the ranking itself.
        assert_fhaus_matches(&full, &other_full);
        // A single bucket: the whole witness comes from the other side.
        assert_fhaus_matches(&tied, &tied);
        assert_fhaus_matches(&tied, &full);
        assert_fhaus_matches(&bucketed, &tied);
        // σ against its own reversal: the reversed walk meets the
        // buckets exactly mirrored.
        for o in [&full, &bucketed] {
            assert_fhaus_matches(o, &o.reverse());
            assert_fhaus_matches(&o.reverse(), o);
        }
    }
}

#[test]
fn fhaus_scatter_on_many_bucket_pairs() {
    // Forty levels over 64 elements: many buckets on both sides, small
    // ties everywhere, so both `reverse_other` walks place elements
    // into many base buckets out of order.
    check(
        "fhaus_scatter_on_many_bucket_pairs",
        gen::order_pair(64, 40),
        |(a, b)| assert_fhaus_matches(a, b),
    );
}

#[test]
fn weighted_prepared_equals_naive_on_degenerate_heavy_pairs() {
    // The weighted lane: both prepared weighted kernels against their
    // naive references, under every degenerate weight class, with the
    // thread's scratch shared across the whole run (stale weighted
    // scratch must never leak between calls, same hazard as the
    // pair-counts lanes).
    check(
        "weighted_prepared_equals_naive_on_degenerate_heavy_pairs",
        gen::pair(
            gen::order_pair_with_degenerates(12, 4),
            gen::weights_with_degenerates(12),
        ),
        |((a, b), units)| {
            // Independent shrinking can desync the two sides; mismatch
            // handling has its own test below.
            if units.len() != a.len() {
                return;
            }
            let w = Weights::from_units(units.clone()).unwrap();
            let pa = PreparedRanking::new(a);
            let pb = PreparedRanking::new(b);
            assert_eq!(
                weighted_footrule_x2_prepared(&pa, &pb, &w).unwrap(),
                WeightedMetric::WeightedFootruleX2.naive(a, b, &w).unwrap(),
                "weighted footrule: {a:?} vs {b:?} under {units:?}"
            );
            assert_eq!(
                top_diff_prepared(&pa, &pb, &w).unwrap(),
                WeightedMetric::TopDiff.naive(a, b, &w).unwrap(),
                "top diff: {a:?} vs {b:?} under {units:?}"
            );
        },
    );
}

#[test]
fn weighted_matrix_equals_naive_double_loop_sequential_and_parallel() {
    check(
        "weighted_matrix_equals_naive_double_loop_sequential_and_parallel",
        gen::pair(
            gen::vec_of(gen::bucket_order(9, 3), 2..=7),
            gen::weights_with_degenerates(9),
        ),
        |(profile, units)| {
            if units.len() != profile[0].len() {
                return;
            }
            let w = Weights::from_units(units.clone()).unwrap();
            for metric in WeightedMetric::ALL {
                let naive =
                    pairwise_matrix_with(profile, |a, b| metric.naive(a, b, &w)).unwrap();
                let prepared = weighted_pairwise_matrix(profile, metric, &w).unwrap();
                assert_eq!(naive, prepared, "{}", metric.name());
            }
        },
    );
}

#[test]
fn weighted_entry_points_reject_bad_shapes_not_panic() {
    let a = BucketOrder::from_keys(&[1, 2, 2]);
    let b = BucketOrder::from_keys(&[2, 1, 1, 2, 3]);
    let pa = PreparedRanking::new(&a);
    let pb = PreparedRanking::new(&b);
    let w3 = Weights::uniform(3);
    let w5 = Weights::uniform(5);
    // Mismatched domains, with matching weights on the left side.
    let expected = MetricsError::DomainMismatch { left: 3, right: 5 };
    assert_eq!(weighted_footrule_x2_prepared(&pa, &pb, &w3).unwrap_err(), expected);
    assert_eq!(top_diff_prepared(&pa, &pb, &w3).unwrap_err(), expected);
    // Wrong-length weights against a same-domain pair, from every entry
    // point: naive, prepared, and the matrix driver.
    let wrong = MetricsError::WeightsLengthMismatch { weights: 5, domain: 3 };
    for metric in WeightedMetric::ALL {
        assert_eq!(metric.naive(&a, &a, &w5).unwrap_err(), wrong);
    }
    assert_eq!(weighted_footrule_x2_prepared(&pa, &pa, &w5).unwrap_err(), wrong);
    assert_eq!(top_diff_prepared(&pa, &pa, &w5).unwrap_err(), wrong);
    let profile = vec![a.clone(), a.clone()];
    for metric in WeightedMetric::ALL {
        assert_eq!(
            weighted_pairwise_matrix(&profile, metric, &w5).unwrap_err(),
            wrong
        );
    }
    // Mixed-domain profiles are rejected up front, as in the unweighted
    // batch path, even when the mismatch is not in the first pair; a
    // same-domain profile longer than two is checked against the
    // weights too.
    let mixed = vec![a.clone(), b.clone()];
    let five = BucketOrder::trivial(5);
    let late = vec![five.clone(), five.clone(), five.clone(), BucketOrder::trivial(6)];
    let same = vec![five; 5];
    let late_domain = MetricsError::DomainMismatch { left: 5, right: 6 };
    let short = MetricsError::WeightsLengthMismatch { weights: 3, domain: 5 };
    for metric in WeightedMetric::ALL {
        assert_eq!(weighted_pairwise_matrix(&mixed, metric, &w3).unwrap_err(), expected);
        assert_eq!(weighted_pairwise_matrix(&late, metric, &w5).unwrap_err(), late_domain);
        assert_eq!(weighted_pairwise_matrix(&same, metric, &w3).unwrap_err(), short);
    }
}

#[test]
fn mismatched_domains_error_not_panic_from_every_entry_point() {
    let a = BucketOrder::from_keys(&[1, 2, 2]);
    let b = BucketOrder::from_keys(&[2, 1, 1, 2, 3]);
    let pa = PreparedRanking::new(&a);
    let pb = PreparedRanking::new(&b);
    let expected = MetricsError::DomainMismatch { left: 3, right: 5 };
    assert_eq!(pair_counts_prepared(&pa, &pb).unwrap_err(), expected);
    assert_eq!(kprof_x2_prepared(&pa, &pb).unwrap_err(), expected);
    assert_eq!(kavg_x2_prepared(&pa, &pb).unwrap_err(), expected);
    assert_eq!(fprof_x2_prepared(&pa, &pb).unwrap_err(), expected);
    assert_eq!(khaus_prepared(&pa, &pb).unwrap_err(), expected);
    assert_eq!(khaus_x2_prepared(&pa, &pb).unwrap_err(), expected);
    assert_eq!(fhaus_prepared(&pa, &pb).unwrap_err(), expected);
    assert_eq!(fhaus_x2_prepared(&pa, &pb).unwrap_err(), expected);
    // The reversed direction reports the sizes in call order.
    let flipped = MetricsError::DomainMismatch { left: 5, right: 3 };
    assert_eq!(kprof_x2_prepared(&pb, &pa).unwrap_err(), flipped);
    // Batch preparation rejects mixed-domain profiles up front…
    let profile = vec![a.clone(), b.clone()];
    assert!(prepare_all(&profile).is_err());
    for metric in BatchMetric::ALL {
        assert!(pairwise_matrix(&profile, metric).is_err());
    }
    // …even when the mismatch is not in the first pair, naming the
    // sizes of the first mismatched neighbours.
    let late = vec![
        BucketOrder::trivial(5),
        BucketOrder::trivial(5),
        BucketOrder::trivial(5),
        BucketOrder::trivial(6),
    ];
    assert_eq!(
        pairwise_matrix(&late, BatchMetric::KProfX2).unwrap_err(),
        MetricsError::DomainMismatch { left: 5, right: 6 }
    );
    // A custom distance failing on two pairs, (1, 4) and then (3, 5) in
    // pair order: the first by pair order is returned. Each failing
    // pair names itself in its error.
    let profile: Vec<BucketOrder> = (0..7)
        .map(|i| BucketOrder::from_keys(&[i, 3, i % 2, 1]))
        .collect();
    let index = |o: &BucketOrder| profile.iter().position(|p| std::ptr::eq(p, o)).unwrap();
    let d = |a: &BucketOrder, b: &BucketOrder| match (index(a), index(b)) {
        (i, j) if [(1, 4), (3, 5)].contains(&(i, j)) => {
            Err(MetricsError::DomainMismatch { left: i, right: j })
        }
        _ => Ok(0),
    };
    assert_eq!(
        pairwise_matrix_with(&profile, d).unwrap_err(),
        MetricsError::DomainMismatch { left: 1, right: 4 }
    );
}
