//! Regression tests for the prepared-kernel batch matrix: both the
//! sequential and the scoped-thread parallel engines must reproduce a
//! naive double loop over the **direct** metric functions bit-for-bit,
//! for every metric and every thread count, on random profiles.

use bucketrank::metrics::batch::{
    pairwise_matrix, pairwise_matrix_parallel, pairwise_matrix_parallel_with,
    pairwise_matrix_with, weighted_pairwise_matrix, weighted_pairwise_matrix_parallel,
    BatchMetric, WeightedMetric,
};
use bucketrank::metrics::{MetricsError, Weights};
use bucketrank::BucketOrder;
use bucketrank_testkit::prelude::*;

#[test]
fn prepared_matrix_matches_naive_double_loop_random_profiles() {
    check(
        "prepared_matrix_matches_naive_double_loop_random_profiles",
        gen::vec_of(gen::bucket_order(10, 4), 2..=9),
        |profile| {
            for metric in BatchMetric::ALL {
                let naive = pairwise_matrix_with(profile, |a, b| metric.direct(a, b)).unwrap();
                let seq = pairwise_matrix(profile, metric).unwrap();
                assert_eq!(naive, seq, "{} sequential", metric.name());
                for threads in [2usize, 3, 8] {
                    let par = pairwise_matrix_parallel(profile, metric, threads).unwrap();
                    assert_eq!(naive, par, "{}, threads = {threads}", metric.name());
                }
            }
        },
    );
}

#[test]
fn prepared_matrix_matches_naive_double_loop_wide_profile() {
    // More rankings than 8 threads can chunk evenly, and a thread count
    // exceeding the pair count — both chunking edge cases.
    let profile: Vec<BucketOrder> = (0..17)
        .map(|i| {
            let keys: Vec<i64> = (0..20).map(|e| ((e * (i + 3) + 2 * i) % 7) as i64).collect();
            BucketOrder::from_keys(&keys)
        })
        .collect();
    for metric in BatchMetric::ALL {
        let naive = pairwise_matrix_with(&profile, |a, b| metric.direct(a, b)).unwrap();
        let naive_par =
            pairwise_matrix_parallel_with(&profile, |a, b| metric.direct(a, b), 8).unwrap();
        assert_eq!(naive, naive_par, "{} naive parallel", metric.name());
        let seq = pairwise_matrix(&profile, metric).unwrap();
        assert_eq!(naive, seq, "{} sequential", metric.name());
        for threads in [2usize, 3, 8, 64] {
            let par = pairwise_matrix_parallel(&profile, metric, threads).unwrap();
            assert_eq!(naive, par, "{}, threads = {threads}", metric.name());
        }
    }
}

#[test]
fn parallel_matrix_error_matches_sequential() {
    // Every matrix entry point reports the sequential path's error,
    // equal in value, at every thread count.
    let threads = [2usize, 3, 8];

    // Mismatched domains in the prepared matrix (checked up front,
    // before spawning).
    let mixed = vec![
        BucketOrder::trivial(5),
        BucketOrder::trivial(5),
        BucketOrder::trivial(5),
        BucketOrder::trivial(6),
    ];
    let domain = MetricsError::DomainMismatch { left: 5, right: 6 };
    assert_eq!(pairwise_matrix(&mixed, BatchMetric::KProfX2).unwrap_err(), domain);
    for t in threads {
        assert_eq!(
            pairwise_matrix_parallel(&mixed, BatchMetric::KProfX2, t).unwrap_err(),
            domain,
            "threads = {t}"
        );
    }

    // A distance failing on two chosen pairs, (1, 4) and then (3, 5) in
    // pair order: whichever worker finishes first, the first error by
    // pair order wins. Each failing pair names itself in its error.
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
    let first = MetricsError::DomainMismatch { left: 1, right: 4 };
    assert_eq!(pairwise_matrix_with(&profile, d).unwrap_err(), first);
    for t in threads {
        assert_eq!(
            pairwise_matrix_parallel_with(&profile, d, t).unwrap_err(),
            first,
            "threads = {t}"
        );
    }

    // The weighted matrices: mixed domains, then weights that do not
    // cover the domain.
    let w5 = Weights::uniform(5);
    let short = Weights::uniform(3);
    let same: Vec<BucketOrder> = mixed[..3].iter().chain(&mixed[..2]).cloned().collect();
    let length = MetricsError::WeightsLengthMismatch { weights: 3, domain: 5 };
    for metric in WeightedMetric::ALL {
        for (orders, w, expected) in [(&mixed, &w5, &domain), (&same, &short, &length)] {
            assert_eq!(weighted_pairwise_matrix(orders, metric, w).unwrap_err(), *expected);
            for t in threads {
                assert_eq!(
                    weighted_pairwise_matrix_parallel(orders, metric, w, t).unwrap_err(),
                    *expected,
                    "{}, threads = {t}",
                    metric.name()
                );
            }
        }
    }
}
