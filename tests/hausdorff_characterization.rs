//! Section 4: the Hausdorff characterization machinery.
//!
//! * Lemma 3 — `min_{τ̄ ⪯ τ} d(σ̄, τ̄)` is attained at `τ̄ = σ̄∗τ`;
//! * Lemma 4 / Theorem 5 — the max-min is witnessed by the two
//!   constructible pairs `(ρ∗τᴿ∗σ, ρ∗σ∗τ)` and `(ρ∗τ∗σ, ρ∗σᴿ∗τ)`;
//! * Proposition 6 — `KHaus = |U| + max{|S|, |T|}`.
//!
//! Verified against brute-force enumeration of all full refinements.

use bucketrank::core::refine::{full_refinements, star};
use bucketrank::metrics::hausdorff::{fhaus, khaus, theorem5_witnesses};
use bucketrank::metrics::{full, pairs};
use bucketrank::BucketOrder;
use bucketrank_bench::oracle::{fhaus_brute, khaus_brute, khaus_theorem5};
use bucketrank_testkit::prelude::*;

/// Lemma 3: for a full σ̄ and partial τ, the nearest full refinement
/// of τ is σ̄∗τ — under both F and K.
#[test]
fn lemma3_nearest_refinement() {
    check(
        "lemma3_nearest_refinement",
        gen::order_pair(5, 5),
        |(sigma, tau)| {
            let sigma_full = sigma.arbitrary_full_refinement();
            let best = star(&sigma_full, tau).unwrap();
            let best_f = full::footrule(&sigma_full, &best).unwrap();
            let best_k = full::kendall(&sigma_full, &best).unwrap();
            for t in full_refinements(tau) {
                assert!(full::footrule(&sigma_full, &t).unwrap() >= best_f);
                assert!(full::kendall(&sigma_full, &t).unwrap() >= best_k);
            }
        },
    );
}

/// Theorem 5 witnesses are genuine refinements and reproduce both
/// Hausdorff distances computed by brute force.
#[test]
fn theorem5_matches_brute_force() {
    check(
        "theorem5_matches_brute_force",
        gen::order_pair(5, 3),
        |(sigma, tau)| {
            let ((s1, t1), (s2, t2)) = theorem5_witnesses(sigma, tau).unwrap();
            for (w, base) in [(&s1, sigma), (&s2, sigma)] {
                assert!(bucketrank::core::refine::is_refinement(w, base).unwrap());
                assert!(w.is_full());
            }
            for (w, base) in [(&t1, tau), (&t2, tau)] {
                assert!(bucketrank::core::refine::is_refinement(w, base).unwrap());
                assert!(w.is_full());
            }
            assert_eq!(fhaus(sigma, tau).unwrap(), fhaus_brute(sigma, tau).unwrap());
            assert_eq!(khaus(sigma, tau).unwrap(), khaus_brute(sigma, tau).unwrap());
        },
    );
}

/// Proposition 6 closed form vs the Theorem 5 construction.
#[test]
fn proposition6_closed_form() {
    check(
        "proposition6_closed_form",
        gen::order_pair(14, 4),
        |(sigma, tau)| {
            let c = pairs::pair_counts(sigma, tau).unwrap();
            let closed = c.discordant + c.tied_left_only.max(c.tied_right_only);
            assert_eq!(closed, khaus(sigma, tau).unwrap());
            assert_eq!(closed, khaus_theorem5(sigma, tau).unwrap());
        },
    );
}

/// The same witness pairs exhibit the Hausdorff distance for BOTH F
/// and K — the "interesting" remark after Theorem 5.
#[test]
fn same_pairs_witness_both_metrics() {
    check(
        "same_pairs_witness_both_metrics",
        gen::order_pair(5, 3),
        |(sigma, tau)| {
            let ((s1, t1), (s2, t2)) = theorem5_witnesses(sigma, tau).unwrap();
            let f = full::footrule(&s1, &t1)
                .unwrap()
                .max(full::footrule(&s2, &t2).unwrap());
            let k = full::kendall(&s1, &t1)
                .unwrap()
                .max(full::kendall(&s2, &t2).unwrap());
            assert_eq!(f, fhaus_brute(sigma, tau).unwrap());
            assert_eq!(k, khaus_brute(sigma, tau).unwrap());
        },
    );
}

#[test]
fn worked_example_from_definitions() {
    // σ = [0 1 | 2], τ = [2 | 0 1]: compute KHaus by hand.
    // Pairs: {0,1} tied in both; {0,2}, {1,2} discordant (σ has them
    // before 2, τ after). |U| = 2, |S| = |T| = 0 ⇒ KHaus = 2.
    let sigma = BucketOrder::from_buckets(3, vec![vec![0, 1], vec![2]]).unwrap();
    let tau = BucketOrder::from_buckets(3, vec![vec![2], vec![0, 1]]).unwrap();
    assert_eq!(khaus(&sigma, &tau).unwrap(), 2);
    // FHaus: refinements are {012, 102} and {201, 210}; the worst-case
    // best match: F(012, 201) = 4, F(012, 210)= 6, F(102, 201) = 6,
    // F(102, 210) = 4 ⇒ every refinement has a partner at distance 4.
    assert_eq!(fhaus(&sigma, &tau).unwrap(), 4);
}
