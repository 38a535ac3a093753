//! Differential tests: each metric is cross-checked on random inputs
//! against its references in `bucketrank_bench::oracle`.
//!
//! * `kprof_x2` (O(n log n) merge counting) vs `kprof_x2_naive` (O(n²)
//!   pair scan);
//! * `khaus` (Proposition 6 closed form) vs `khaus_theorem5` (witness
//!   construction) vs `khaus_brute` (max-min over all full refinements);
//! * `fhaus` (Theorem 5 construction) vs `fhaus_brute`.
//!
//! The brute-force Hausdorff enumerations cost
//! `refinement_count(σ) · refinement_count(τ)` distance evaluations, so
//! those properties draw from [`gen::bounded_refinement_pair`], which
//! rejection-samples pairs whose joint refinement count stays under a
//! fixed budget (and shrinks without ever exceeding it).

use bucketrank::metrics::hausdorff::{fhaus, khaus};
use bucketrank::metrics::kendall::kprof_x2;
use bucketrank_bench::oracle::{fhaus_brute, khaus_brute, khaus_theorem5, kprof_x2_naive};
use bucketrank_testkit::prelude::*;

#[test]
fn kprof_fast_matches_naive_small() {
    check(
        "kprof_fast_matches_naive_small",
        gen::order_pair(12, 3),
        |(a, b)| {
            assert_eq!(kprof_x2(a, b).unwrap(), kprof_x2_naive(a, b).unwrap());
        },
    );
}

#[test]
fn kprof_fast_matches_naive_large() {
    check(
        "kprof_fast_matches_naive_large",
        gen::order_pair(60, 7),
        |(a, b)| {
            assert_eq!(kprof_x2(a, b).unwrap(), kprof_x2_naive(a, b).unwrap());
        },
    );
}

#[test]
fn khaus_three_ways_agree() {
    check(
        "khaus_three_ways_agree",
        gen::bounded_refinement_pair(9, 2, 20_000),
        |(a, b)| {
            let closed = khaus(a, b).unwrap();
            assert_eq!(closed, khaus_theorem5(a, b).unwrap());
            assert_eq!(closed, khaus_brute(a, b).unwrap());
        },
    );
}

#[test]
fn khaus_closed_form_vs_theorem5_large() {
    // The closed form and the witness construction are both polynomial,
    // so this pair can be checked far beyond brute-force reach.
    check(
        "khaus_closed_form_vs_theorem5_large",
        gen::order_pair(50, 6),
        |(a, b)| {
            assert_eq!(khaus(a, b).unwrap(), khaus_theorem5(a, b).unwrap());
        },
    );
}

#[test]
fn fhaus_matches_brute_force() {
    check(
        "fhaus_matches_brute_force",
        gen::bounded_refinement_pair(9, 2, 20_000),
        |(a, b)| {
            assert_eq!(fhaus(a, b).unwrap(), fhaus_brute(a, b).unwrap());
        },
    );
}
