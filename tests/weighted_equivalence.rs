//! Property suite for the weighted metric family: the weighted
//! footrule (arXiv 1207.2541) and the top-difference distance
//! (arXiv 2403.15198) as implemented in `metrics::weighted`.
//!
//! The proof burden, in order:
//!
//! * **Exact collapse** — with `w ≡ 1` the weighted footrule equals
//!   `fprof_x2` bit-for-bit on every bucket-order pair, uniform
//!   `w ≡ c` equals `c · fprof_x2`, and on full rankings the
//!   top-difference is exactly `fprof_x2 / 2`.
//! * **Theorem-7-style bounded equivalence at unit weights** —
//!   `top_diff ≤ weighted_footrule_x2 ≤ 2·top_diff + n`. (The left
//!   bound is a *unit-weight* fact: a single heavy weight breaks it
//!   even on full rankings, so no general-weight analogue is
//!   asserted.)
//! * **Metric axioms for arbitrary weights** — identity, symmetry and
//!   the triangle inequality are structural (both distances are `L1`
//!   gaps between per-ranking score vectors), so they must hold for
//!   every weight vector, degenerate classes included.
//! * **Exact scaling and monotonicity** — `d(c·w) = c·d(w)` with no
//!   rounding; pointwise-larger weights never decrease `top_diff`
//!   (any pair), nor the weighted footrule on full rankings.
//! * **Head-domination on full rankings** — for *nonincreasing*
//!   weights, `weighted_footrule_x2 ≤ 2·top_diff` (the window-shift
//!   bound), tying the two generalizations together where both are
//!   top-heavy.
//! * **`F^(ℓ)` oracle** — on top-`k` embeddings with unit weights the
//!   weighted footrule reproduces the paper's location-parameter
//!   footrule at the canonical location `ℓ`.
//! * **Typed rejection** — every generated degenerate weight class
//!   validates; injected NaN / negative / oversized / wrong-length
//!   vectors fail with the typed error at the right index.
//! * **Wire parity** — `WeightedDist` / `TopDiff` replies off a live
//!   socket are byte-identical to the naive reference model
//!   `bucketrank_bench::model::ModelService` under random edit
//!   scripts, including every typed-error path.

use bucketrank::metrics::prepared::PreparedRanking;
use bucketrank::metrics::weighted::{
    location_identity_x2, top_diff, top_diff_prepared, weighted_footrule_x2,
    weighted_footrule_x2_prepared, Weights, MAX_WEIGHT,
};
use bucketrank::metrics::{footrule, MetricsError};
use bucketrank::server::proto::{Request, WirePolicy};
use bucketrank::server::{Client, Server, ServerConfig};
use bucketrank::BucketOrder;
use bucketrank_bench::model::{assert_reply, ModelService};
use bucketrank_testkit::gen::script_domain;
use bucketrank_testkit::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Orders-with-weights stream over one domain size. Shrinks on the two
/// sides are independent, so a shrink step can desync the lengths;
/// properties skip those cases (the typed-rejection test covers them).
fn pairs_with_weights(
    n: usize,
    levels: u8,
) -> impl Gen<Value = ((BucketOrder, BucketOrder), Vec<u64>)> {
    gen::pair(
        gen::order_pair_with_degenerates(n, levels),
        gen::weights_with_degenerates(n),
    )
}

fn fits((a, _): &(BucketOrder, BucketOrder), units: &[u64]) -> Option<Weights> {
    let w = Weights::from_units(units.to_vec()).expect("generated weights validate");
    (w.len() == a.len()).then_some(w)
}

#[test]
fn unit_weights_collapse_bit_exactly() {
    check(
        "unit_weights_collapse_bit_exactly",
        gen::order_pair_with_degenerates(12, 4),
        |(a, b)| {
            let n = a.len();
            let fprof = footrule::fprof_x2(a, b).unwrap();
            assert_eq!(
                weighted_footrule_x2(a, b, &Weights::uniform(n)).unwrap(),
                fprof,
                "w ≡ 1 did not collapse: {a:?} vs {b:?}"
            );
            // Uniform w ≡ c is the exact c-multiple.
            for c in [2u64, 7] {
                let wc = Weights::uniform(n).scale(c).unwrap();
                assert_eq!(weighted_footrule_x2(a, b, &wc).unwrap(), c * fprof);
                assert_eq!(top_diff(a, b, &wc).unwrap(), c * top_diff(a, b, &Weights::uniform(n)).unwrap());
            }
        },
    );
    // On full rankings the unit-weight top difference is half the
    // (always even) profile footrule.
    check(
        "unit_weights_collapse_bit_exactly_full",
        gen::full_pair(10),
        |(a, b)| {
            let w = Weights::uniform(a.len());
            assert_eq!(
                2 * top_diff(a, b, &w).unwrap(),
                footrule::fprof_x2(a, b).unwrap(),
                "{a:?} vs {b:?}"
            );
        },
    );
}

#[test]
fn theorem7_style_bounds_hold_at_unit_weights() {
    // Per element, the doubled position is 2A − δ with δ ∈ {0, 1} and A
    // the ceiling average rank, so |ΔA| ≤ |Δpos| ≤ 2|ΔA| + 1. Summed:
    // top_diff ≤ weighted_footrule_x2 ≤ 2·top_diff + n.
    check(
        "theorem7_style_bounds_hold_at_unit_weights",
        gen::order_pair_with_degenerates(12, 4),
        |(a, b)| {
            let w = Weights::uniform(a.len());
            let top = top_diff(a, b, &w).unwrap();
            let foot = weighted_footrule_x2(a, b, &w).unwrap();
            assert!(
                top <= foot && foot <= 2 * top + a.len() as u64,
                "bounds violated: top = {top}, foot_x2 = {foot}, n = {}: {a:?} vs {b:?}",
                a.len()
            );
        },
    );
}

#[test]
fn one_heavy_weight_breaks_the_lower_bound() {
    // The pinned counterexample that keeps the suite honest about why
    // the bounded equivalence is asserted at unit weights only: under
    // w = [100, 1], an adjacent swap has top_diff = 200 but weighted
    // footrule ×2 = 4 — top_diff ≰ weighted_footrule_x2 in general.
    let a = BucketOrder::from_permutation(&[0, 1]).unwrap();
    let b = BucketOrder::from_permutation(&[1, 0]).unwrap();
    let w = Weights::from_units(vec![100, 1]).unwrap();
    let top = top_diff(&a, &b, &w).unwrap();
    let foot = weighted_footrule_x2(&a, &b, &w).unwrap();
    assert_eq!((top, foot), (200, 4));
    assert!(top > foot);
}

#[test]
fn metric_axioms_hold_for_arbitrary_weights() {
    let orders = gen::triple(
        gen::bucket_order(8, 3),
        gen::bucket_order(8, 3),
        gen::bucket_order(8, 3),
    );
    check(
        "metric_axioms_hold_for_arbitrary_weights",
        gen::pair(orders, gen::weights_with_degenerates(8)),
        |((a, b, c), units)| {
            // Independent shrinking can desync domains; those cases are
            // covered by the typed-rejection property.
            if a.len() != b.len() || b.len() != c.len() || units.len() != a.len() {
                return;
            }
            let w = Weights::from_units(units.clone()).unwrap();
            for d in [weighted_footrule_x2, top_diff] {
                assert_eq!(d(a, a, &w).unwrap(), 0, "identity: {a:?}");
                assert_eq!(
                    d(a, b, &w).unwrap(),
                    d(b, a, &w).unwrap(),
                    "symmetry: {a:?} vs {b:?}"
                );
                assert!(
                    d(a, c, &w).unwrap() <= d(a, b, &w).unwrap() + d(b, c, &w).unwrap(),
                    "triangle: {a:?}, {b:?}, {c:?} under {units:?}"
                );
            }
        },
    );
}

#[test]
fn scaling_is_exact() {
    check(
        "scaling_is_exact",
        pairs_with_weights(10, 4),
        |(pair, units)| {
            let Some(w) = fits(pair, units) else { return };
            let (a, b) = pair;
            for c in [2u64, 5, 1000] {
                // Scaling can trip the overflow bound; that rejection
                // is itself typed and tested elsewhere.
                let Ok(wc) = w.scale(c) else { continue };
                assert_eq!(
                    weighted_footrule_x2(a, b, &wc).unwrap(),
                    c * weighted_footrule_x2(a, b, &w).unwrap(),
                    "footrule scaling by {c}"
                );
                assert_eq!(
                    top_diff(a, b, &wc).unwrap(),
                    c * top_diff(a, b, &w).unwrap(),
                    "top_diff scaling by {c}"
                );
            }
        },
    );
}

#[test]
fn top_diff_is_monotone_in_the_weights() {
    // Every per-element gap is the weight mass of a fixed rank window,
    // so adding weight anywhere can only grow the distance — on any
    // bucket-order pair.
    let two_weights = gen::pair(
        gen::weights_with_degenerates(10),
        gen::weights_with_degenerates(10),
    );
    check(
        "top_diff_is_monotone_in_the_weights",
        gen::pair(gen::order_pair_with_degenerates(10, 4), two_weights),
        |((a, b), (u, v))| {
            if u.len() != a.len() || v.len() != a.len() {
                return;
            }
            let sum: Vec<u64> = u.iter().zip(v).map(|(&x, &y)| x + y).collect();
            let Ok(whi) = Weights::from_units(sum) else { return };
            let hi = top_diff(a, b, &whi).unwrap();
            for lo_units in [u, v] {
                let wlo = Weights::from_units(lo_units.clone()).unwrap();
                assert!(
                    top_diff(a, b, &wlo).unwrap() <= hi,
                    "top_diff shrank when weights grew: {a:?} vs {b:?}, {lo_units:?}"
                );
            }
        },
    );
}

#[test]
fn weighted_footrule_is_monotone_on_full_rankings() {
    // On full rankings each element's gap is 2·(mass of a rank
    // interval), monotone in w. (Not true with ties: midpoints can
    // cross, so no general-weight claim is made off the full lane.)
    let two_weights = gen::pair(
        gen::weights_with_degenerates(9),
        gen::weights_with_degenerates(9),
    );
    check(
        "weighted_footrule_is_monotone_on_full_rankings",
        gen::pair(gen::full_pair(9), two_weights),
        |((a, b), (u, v))| {
            if u.len() != a.len() || v.len() != a.len() {
                return;
            }
            let sum: Vec<u64> = u.iter().zip(v).map(|(&x, &y)| x + y).collect();
            let Ok(whi) = Weights::from_units(sum) else { return };
            let hi = weighted_footrule_x2(a, b, &whi).unwrap();
            for lo_units in [u, v] {
                let wlo = Weights::from_units(lo_units.clone()).unwrap();
                assert!(weighted_footrule_x2(a, b, &wlo).unwrap() <= hi);
            }
        },
    );
}

#[test]
fn nonincreasing_weights_bound_footrule_by_top_diff_on_full_rankings() {
    // The window-shift bound: on full rankings an element moving from
    // rank r to rank s > r contributes 2·(W(s) − W(r)) to the footrule
    // and W(s−1) − W(r−1) to the top difference; for nonincreasing w
    // the left-shifted window dominates, so foot_x2 ≤ 2·top_diff.
    check(
        "nonincreasing_weights_bound_footrule_by_top_diff_on_full_rankings",
        gen::pair(gen::full_pair(9), gen::weights_with_degenerates(9)),
        |((a, b), units)| {
            if units.len() != a.len() || units.windows(2).any(|p| p[0] < p[1]) {
                return;
            }
            let w = Weights::from_units(units.clone()).unwrap();
            let foot = weighted_footrule_x2(a, b, &w).unwrap();
            let top = top_diff(a, b, &w).unwrap();
            assert!(
                foot <= 2 * top,
                "window-shift bound violated: foot_x2 = {foot}, top = {top} under {units:?}"
            );
        },
    );
}

#[test]
fn location_parameter_oracle_on_top_k_embeddings() {
    // Two random top-k lists embedded as bucket orders: the
    // unit-weight weighted footrule must reproduce both fprof_x2 and
    // the paper's F^(ℓ) at the canonical location.
    let topk_pairs = gen::from_fn(|rng| {
        let n = rng.gen_range(2..=10u32) as usize;
        let k = rng.gen_range(1..=n as u32) as usize;
        let mut elems: Vec<u32> = (0..n as u32).collect();
        // Partial Fisher–Yates: the first k entries are a uniform
        // ordered k-subset.
        for i in 0..k {
            let j = i + rng.gen_range(0..(n - i) as u32) as usize;
            elems.swap(i, j);
        }
        let sa = BucketOrder::top_k(n, &elems[..k]).expect("valid top-k");
        for i in 0..k {
            let j = i + rng.gen_range(0..(n - i) as u32) as usize;
            elems.swap(i, j);
        }
        let sb = BucketOrder::top_k(n, &elems[..k]).expect("valid top-k");
        (sa, sb, k)
    });
    check(
        "location_parameter_oracle_on_top_k_embeddings",
        topk_pairs,
        |(sa, sb, k)| {
            let w = Weights::uniform(sa.len());
            let weighted = weighted_footrule_x2(sa, sb, &w).unwrap();
            assert_eq!(weighted, footrule::fprof_x2(sa, sb).unwrap());
            assert_eq!(
                weighted,
                location_identity_x2(sa, sb, *k).unwrap(),
                "F^(ℓ) diverged at n = {}, k = {k}: {sa:?} vs {sb:?}",
                sa.len()
            );
        },
    );
}

#[test]
fn every_degenerate_class_validates_and_mutations_reject() {
    check(
        "every_degenerate_class_validates_and_mutations_reject",
        gen::weights_with_degenerates(8),
        |units| {
            // Every generated class is a valid weight vector.
            let w = Weights::from_units(units.clone()).unwrap();
            assert_eq!(w.cumulative().len(), units.len() + 1);

            // An oversized unit injected anywhere is rejected at its
            // index.
            let at = units.iter().sum::<u64>() as usize % units.len();
            let mut bad = units.clone();
            bad[at] = MAX_WEIGHT + 1;
            assert_eq!(
                Weights::from_units(bad),
                Err(MetricsError::InvalidWeight { index: at })
            );

            // The float door rejects NaN, negatives and fractions at
            // the same index.
            let floats: Vec<f64> = units.iter().map(|&u| u as f64).collect();
            for poison in [f64::NAN, -1.0, 0.5, f64::INFINITY] {
                let mut v = floats.clone();
                v[at] = poison;
                assert_eq!(
                    Weights::try_from_f64(&v),
                    Err(MetricsError::InvalidWeight { index: at }),
                    "accepted {poison}"
                );
            }
            // ...and accepts the clean vector with identical units.
            assert_eq!(Weights::try_from_f64(&floats).unwrap().units(), &units[..]);

            // A length mismatch is typed from every kernel entry point.
            let short = BucketOrder::trivial(units.len() - 1);
            let expected = MetricsError::WeightsLengthMismatch {
                weights: units.len(),
                domain: short.len(),
            };
            assert_eq!(weighted_footrule_x2(&short, &short, &w).unwrap_err(), expected);
            assert_eq!(top_diff(&short, &short, &w).unwrap_err(), expected);
            let ps = PreparedRanking::new(&short);
            assert_eq!(
                weighted_footrule_x2_prepared(&ps, &ps, &w).unwrap_err(),
                expected
            );
            assert_eq!(top_diff_prepared(&ps, &ps, &w).unwrap_err(), expected);
        },
    );
}

// ---------------------------------------------------------------------
// Wire parity: the server's weighted opcodes against the reference
// model, byte for byte.
// ---------------------------------------------------------------------

/// The deterministic per-step weight schedule: cycles the degenerate
/// classes and the two rejection shapes (wrong length, invalid value),
/// so every service-side branch crosses the wire.
fn step_weights(step: usize, n: usize) -> Vec<u64> {
    match step % 6 {
        0 => vec![1; n],
        1 => (0..n).map(|p| 1u64 << (8usize.saturating_sub(p))).collect(),
        2 => {
            let k = step % n + 1;
            (0..n).map(|p| u64::from(p < k)).collect()
        }
        3 => {
            let mut w = vec![0u64; n];
            w[step % n] = 512;
            w
        }
        4 => vec![1; n + 1],          // wrong length: typed DomainMismatch
        _ => {
            let mut w = vec![1; n];
            w[step % n] = MAX_WEIGHT + 1; // invalid value: typed BadRequest
            w
        }
    }
}

#[test]
fn weighted_replies_are_byte_identical_to_the_in_process_mirror() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let case = AtomicUsize::new(0);

    check(
        "weighted_replies_are_byte_identical_to_the_in_process_mirror",
        gen::edit_script_with_degenerates(3..=12, 6, 3),
        |script| {
            let seq = case.fetch_add(1, Ordering::Relaxed);
            let n = script_domain(script);
            let session = format!("wdiff-{seq}");
            let mut client = Client::connect(addr).expect("connect");
            let mut model = ModelService::new();
            let create = Request::CreateSession {
                name: session.clone(),
                n: n as u32,
                policy: WirePolicy::Lower,
            };
            assert_reply(&mut client, &create, &model.handle(&create));

            for (step, op) in script.iter().enumerate() {
                let edit = model.resolve(&session, op);
                assert_reply(&mut client, &edit, &model.handle(&edit));

                // Both weighted opcodes between the oldest and newest
                // live voters, under the scheduled weight vector.
                let weights = step_weights(step, n);
                let (voter_a, voter_b) = model.oldest_and_newest(&session);
                let reads = [
                    Request::WeightedDist {
                        session: session.clone(),
                        voter_a,
                        voter_b,
                        weights: weights.clone(),
                    },
                    Request::TopDiff {
                        session: session.clone(),
                        voter_a,
                        voter_b,
                        weights,
                    },
                ];
                for req in &reads {
                    assert_reply(&mut client, req, &model.handle(req));
                }
            }

            let drop = Request::DropSession { name: session };
            assert_reply(&mut client, &drop, &model.handle(&drop));
        },
    );

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    assert!(stats.requests > 0);
}

#[test]
fn typed_client_methods_round_trip_the_weighted_opcodes() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.create_session("wk", 4, WirePolicy::Lower).expect("create");
    let a = BucketOrder::from_keys(&[1, 2, 3, 4]);
    let b = BucketOrder::from_keys(&[4, 3, 2, 1]);
    let va = c.push_voter("wk", &a).expect("push");
    let vb = c.push_voter("wk", &b).expect("push");
    let units = [8u64, 4, 2, 1];
    let w = Weights::from_units(units.to_vec()).unwrap();
    assert_eq!(
        c.weighted_dist_x2("wk", va, vb, &units).expect("weighted dist"),
        weighted_footrule_x2(&a, &b, &w).unwrap()
    );
    assert_eq!(
        c.top_diff("wk", va, vb, &units).expect("top diff"),
        top_diff(&a, &b, &w).unwrap()
    );
    server.shutdown();
}
