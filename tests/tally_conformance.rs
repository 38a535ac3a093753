//! Differential conformance suite for the shared pairwise-preference
//! tally (`aggregate::tally::ProfileTally`): every tally-backed cost,
//! count and majority query must return **exactly** the same integer as
//! the naive per-pair `prefers()`/`is_tied()` loops it replaced, and the
//! total Kemeny objective must equal the `kendall::kprof_x2` sum over
//! the voters — on degenerate-heavy profiles (singleton domains,
//! all-tied voters, unanimous full profiles). The one-matrix Kemeny
//! scan is also pinned to the two-matrix scan it replaced
//! (`bucketrank_bench::oracle::kemeny_cost_x2`) on every candidate
//! shape its select distinguishes. The rewired aggregators (majority
//! digraph, local Kemenization) are pinned to in-test copies of their
//! pre-tally reference implementations.
//!
//! The tiled kernel gets its own differential lanes: domains straddling
//! the `TILE_ROWS` slab boundary, and a deterministic `u16`→`u32`
//! promotion check at profiles straddling `CHUNK_VOTERS` (= `u16::MAX`)
//! voters, where the narrow cells hit their ceiling exactly, and at
//! `2 · CHUNK_VOTERS + 1` voters, where the wide build widens a third
//! `u16` chunk partial.

use bucketrank::aggregate::condorcet::MajorityGraph;
use bucketrank::aggregate::cost::{self, AggMetric};
use bucketrank::aggregate::local::{local_kemenize, local_kemenize_with_tally};
use bucketrank::aggregate::tally::{ProfileTally, CHUNK_VOTERS, TILE_ROWS};
use bucketrank::aggregate::AggregateError;
use bucketrank::metrics::kendall;
use bucketrank::{BucketOrder, ElementId};
use bucketrank_bench::oracle;
use bucketrank_testkit::prelude::*;

/// The degenerate-heavy profile stream shared by every property.
fn profiles() -> impl Gen<Value = Vec<BucketOrder>> {
    gen::profile_with_degenerates(1..=7, 9, 3)
}

/// Naive strict-preference count, the loop the tally replaced.
fn naive_strict(inputs: &[BucketOrder], a: ElementId, b: ElementId) -> u32 {
    inputs.iter().filter(|s| s.prefers(a, b)).count() as u32
}

fn naive_ties(inputs: &[BucketOrder], a: ElementId, b: ElementId) -> u32 {
    inputs.iter().filter(|s| s.is_tied(a, b)).count() as u32
}

#[test]
fn tally_counts_match_naive_prefers_loops() {
    check(
        "tally_counts_match_naive_prefers_loops",
        profiles(),
        |profile| {
            let t = ProfileTally::build(profile).unwrap();
            let n = profile[0].len() as ElementId;
            assert_eq!(t.voters(), profile.len());
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let strict = naive_strict(profile, a, b);
                    let ties = naive_ties(profile, a, b);
                    assert_eq!(t.strict_count(a, b), strict, "strict({a},{b})");
                    assert_eq!(t.tie_count(a, b), ties, "ties({a},{b})");
                    assert_eq!(t.weight_x2(a, b), 2 * strict + ties, "w2({a},{b})");
                    assert_eq!(
                        t.majority_prefers(a, b),
                        strict > naive_strict(profile, b, a),
                        "majority({a},{b})"
                    );
                    assert_eq!(
                        t.strict_majority(a, b),
                        2 * strict as usize > profile.len(),
                        "strict_majority({a},{b})"
                    );
                    assert_eq!(
                        t.pair_cost_x2(a, b),
                        2 * naive_strict(profile, b, a) + ties,
                        "pair_cost({a},{b})"
                    );
                }
            }
        },
    );
}

#[test]
fn kemeny_cost_matches_kprof_sum_and_fast_path() {
    // The last voter doubles as the candidate: same domain guaranteed,
    // and it ranges over the full degenerate spectrum (all-tied, full,
    // generic) so the tied-candidate arm of the cost loop is exercised.
    check(
        "kemeny_cost_matches_kprof_sum_and_fast_path",
        gen::profile_with_degenerates(2..=7, 8, 3),
        |profile| {
            let (cand, voters) = profile.split_last().unwrap();
            let t = ProfileTally::build(voters).unwrap();
            let direct: u64 = voters
                .iter()
                .map(|s| kendall::kprof_x2(cand, s).unwrap())
                .sum();
            assert_eq!(t.kemeny_cost_x2(cand).unwrap(), direct, "{cand:?}");
            assert_eq!(
                cost::total_cost_x2(AggMetric::KProf, cand, voters).unwrap(),
                direct
            );
            // The tally fast path answers exactly for KProf and defers
            // for every metric that needs per-voter structure.
            assert_eq!(
                cost::total_cost_x2_tally(AggMetric::KProf, cand, &t),
                Some(Ok(direct))
            );
            for metric in [AggMetric::FProf, AggMetric::KHaus, AggMetric::FHaus] {
                assert!(!metric.tally_expressible());
                assert!(cost::total_cost_x2_tally(metric, cand, &t).is_none());
            }
        },
    );
}

/// The profile restricted to its first `k` elements (bucket indices
/// as keys keep every voter's order on them).
fn project(profile: &[BucketOrder], k: usize) -> Vec<BucketOrder> {
    profile
        .iter()
        .map(|s| BucketOrder::from_keys(&s.bucket_indices()[..k]))
        .collect()
}

#[test]
fn kemeny_cost_matches_the_two_matrix_oracle() {
    // The one-matrix scan against the branchy two-matrix scan it
    // replaced, on every candidate shape the select arms distinguish:
    // all tied (every cell on the `≤` arm), full (no tied pair), few
    // valued, two buckets, full but for one tied adjacent pair, and
    // each voter itself. Projections onto n ∈ {0, 1, 2} cover the
    // empty and single-cell domains.
    check(
        "kemeny_cost_matches_the_two_matrix_oracle",
        profiles(),
        |profile| {
            let n = profile[0].len();
            let assert_exact = |t: &ProfileTally, cand: &BucketOrder| {
                assert_eq!(
                    t.kemeny_cost_x2(cand).unwrap(),
                    oracle::kemeny_cost_x2(t, cand).unwrap(),
                    "{cand:?}"
                );
            };
            let t = ProfileTally::build(profile).unwrap();
            let full = profile[0].arbitrary_full_refinement();
            let mut cands = vec![
                BucketOrder::trivial(n),
                full.reverse(),
                BucketOrder::from_keys(&(0..n).map(|e| (e * 5) % 3).collect::<Vec<_>>()),
                BucketOrder::from_keys(&(0..n).map(|e| e % 2).collect::<Vec<_>>()),
                full.clone(),
            ];
            if n >= 2 {
                cands.push(gen::merge_adjacent(&full, n / 2 - 1));
            }
            cands.extend(profile.iter().cloned());
            for cand in &cands {
                assert_exact(&t, cand);
            }
            for k in 0..=n.min(2) {
                let small = project(profile, k);
                let t = ProfileTally::build(&small).unwrap();
                let mut cands = vec![BucketOrder::trivial(k)];
                if k == 2 {
                    cands.push(BucketOrder::from_keys(&[0, 1]));
                    cands.push(BucketOrder::from_keys(&[1, 0]));
                }
                for cand in &cands {
                    assert_exact(&t, cand);
                }
            }
        },
    );
}

#[test]
fn adjacent_swap_deltas_match_cost_differences() {
    check(
        "adjacent_swap_deltas_match_cost_differences",
        profiles(),
        |profile| {
            let t = ProfileTally::build(profile).unwrap();
            // A full candidate derived from the profile's first voter.
            let perm = profile[0]
                .arbitrary_full_refinement()
                .as_permutation()
                .unwrap();
            let base = t
                .kemeny_cost_x2(&BucketOrder::from_permutation(&perm).unwrap())
                .unwrap() as i64;
            for i in 0..perm.len().saturating_sub(1) {
                let mut sw = perm.clone();
                sw.swap(i, i + 1);
                let after = t
                    .kemeny_cost_x2(&BucketOrder::from_permutation(&sw).unwrap())
                    .unwrap() as i64;
                assert_eq!(
                    after - base,
                    t.swap_delta_x2(perm[i], perm[i + 1]),
                    "swap at {i}"
                );
            }
        },
    );
}

#[test]
fn tiled_build_matches_naive_across_tile_boundary() {
    // Domains straddling the TILE_ROWS slab boundary: the last tile is
    // partial (n not a multiple of TILE_ROWS), or the profile is a
    // single tile exactly. Degenerate voters (all-tied, singleton
    // buckets, unanimous full) ride along via the generator. The
    // reference is the naive per-pair scan — every strict and w2 cell
    // must match bit for bit.
    check(
        "tiled_build_matches_naive_across_tile_boundary",
        gen::profile_with_degenerates(1..=5, TILE_ROWS + 3, 4),
        |profile| {
            let t = ProfileTally::build(profile).unwrap();
            let n = profile[0].len() as ElementId;
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let strict = naive_strict(profile, a, b);
                    let ties = naive_ties(profile, a, b);
                    assert_eq!(t.strict_count(a, b), strict, "strict({a},{b})");
                    assert_eq!(t.weight_x2(a, b), 2 * strict + ties, "w2({a},{b})");
                }
            }
        },
    );
}

#[test]
fn promotion_boundary_is_exact_at_chunk_voters() {
    // Profiles straddling CHUNK_VOTERS (= u16::MAX) voters, where the
    // u16 cells hit their ceiling exactly and the build switches to u32
    // cells fed by u16 chunk partials, plus one that fills two partials
    // and starts a third. Voters cycle through a small pool, so every
    // expected count is analytic: full cycles × the pool's count plus
    // the partial prefix's. The unanimous pool entry drives cells to
    // the exact u16::MAX maximum at m = CHUNK_VOTERS.
    let pool = [
        BucketOrder::from_permutation(&[0, 1, 2, 3]).unwrap(),
        BucketOrder::from_keys(&[1, 1, 2, 2]),
        BucketOrder::from_permutation(&[0, 1, 2, 3]).unwrap(),
    ];
    for m in [
        CHUNK_VOTERS - 1,
        CHUNK_VOTERS,
        CHUNK_VOTERS + 1,
        CHUNK_VOTERS + 2,
        2 * CHUNK_VOTERS + 1,
    ] {
        let profile: Vec<BucketOrder> = (0..m).map(|i| pool[i % pool.len()].clone()).collect();
        let t = ProfileTally::build(&profile).unwrap();
        let (cycles, rem) = (m / pool.len(), m % pool.len());
        for a in 0..4 {
            for b in 0..4 {
                if a == b {
                    continue;
                }
                let strict = cycles as u32 * naive_strict(&pool, a, b)
                    + naive_strict(&pool[..rem], a, b);
                let ties =
                    cycles as u32 * naive_ties(&pool, a, b) + naive_ties(&pool[..rem], a, b);
                assert_eq!(t.strict_count(a, b), strict, "strict({a},{b}) at m = {m}");
                assert_eq!(t.weight_x2(a, b), 2 * strict + ties, "w2({a},{b}) at m = {m}");
            }
        }
        // Sanity on the ceiling itself: with the unanimous-majority
        // pool, element 0 beats element 3 in every voter, so the
        // single-chunk case peaks at exactly u16::MAX.
        assert_eq!(t.strict_count(0, 3), m as u32);
    }
}

#[test]
fn majority_graph_matches_naive_double_scan() {
    check(
        "majority_graph_matches_naive_double_scan",
        profiles(),
        |profile| {
            let g = MajorityGraph::build(profile).unwrap();
            let n = profile[0].len() as ElementId;
            // The pre-tally reference: an independent voter scan per
            // ordered pair (both directions recomputed).
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let mut pro = 0i64;
                    for s in profile.iter() {
                        if s.prefers(a, b) {
                            pro += 1;
                        } else if s.prefers(b, a) {
                            pro -= 1;
                        }
                    }
                    assert_eq!(g.beats(a, b), pro > 0, "beats({a},{b})");
                }
            }
        },
    );
}

/// The pre-tally `local_kemenize`: per-swap pair costs summed over the
/// voters. Kept verbatim as the reference implementation.
fn naive_local_kemenize(candidate: &BucketOrder, inputs: &[BucketOrder]) -> BucketOrder {
    let mut perm = candidate.as_permutation().expect("full candidate");
    let input_buckets: Vec<&[u32]> = inputs.iter().map(|s| s.bucket_indices()).collect();
    let pair_cost = |a: ElementId, b: ElementId| -> i64 {
        let mut c = 0i64;
        for bo in &input_buckets {
            let (ba, bb) = (bo[a as usize], bo[b as usize]);
            if bb < ba {
                c += 2;
            } else if ba == bb {
                c += 1;
            }
        }
        c
    };
    for i in 1..perm.len() {
        let mut j = i;
        while j > 0 {
            let (ahead, here) = (perm[j - 1], perm[j]);
            if pair_cost(here, ahead) < pair_cost(ahead, here) {
                perm.swap(j - 1, j);
                j -= 1;
            } else {
                break;
            }
        }
    }
    BucketOrder::from_permutation(&perm).expect("permutation preserved")
}

#[test]
fn local_kemenize_matches_naive_reference() {
    check(
        "local_kemenize_matches_naive_reference",
        profiles(),
        |profile| {
            let start = profile[0].arbitrary_full_refinement().reverse();
            let expected = naive_local_kemenize(&start, profile);
            assert_eq!(local_kemenize(&start, profile).unwrap(), expected);
            let t = ProfileTally::build(profile).unwrap();
            assert_eq!(local_kemenize_with_tally(&start, &t).unwrap(), expected);
        },
    );
}

#[test]
fn tally_errors_are_reported_not_panicked() {
    assert_eq!(
        ProfileTally::build(&[]).unwrap_err(),
        AggregateError::NoInputs
    );
    assert!(matches!(
        ProfileTally::build(&[BucketOrder::trivial(2), BucketOrder::trivial(5)]).unwrap_err(),
        AggregateError::DomainMismatch { .. }
    ));
    let t = ProfileTally::build(&[BucketOrder::trivial(4)]).unwrap();
    assert!(matches!(
        t.kemeny_cost_x2(&BucketOrder::trivial(5)).unwrap_err(),
        AggregateError::DomainMismatch { .. }
    ));
    assert!(matches!(
        local_kemenize_with_tally(&BucketOrder::trivial(5), &t).unwrap_err(),
        AggregateError::DomainMismatch { .. }
    ));
    // A tied candidate is rejected by local Kemenization but accepted
    // (and exactly costed) by the Kemeny objective.
    assert!(matches!(
        local_kemenize_with_tally(&BucketOrder::trivial(4), &t).unwrap_err(),
        AggregateError::NotFullRanking
    ));
    assert_eq!(t.kemeny_cost_x2(&BucketOrder::trivial(4)).unwrap(), 0);
}
