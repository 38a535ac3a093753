//! Differential update-oracle suite for the streaming profile engine
//! (`aggregate::dynamic`): random insert/remove/replace edit scripts
//! from `testkit::gen::edit_script_with_degenerates` (empty-profile,
//! single-voter, all-voters-removed and duplicate-voter trajectories),
//! asserting after **every step** that the dynamic tally, median-rank
//! vector and majority digraph are byte-identical to a from-scratch
//! rebuild over the live voters. Unknown-voter edits must be typed
//! errors that leave the engine byte-identical — never a panic or
//! underflow.
//!
//! A many-voters lane (`m ≫ 2n`: up to 300 voters over at most 6
//! elements) pushes until nearly every element holds a run at each of
//! its `2n − 1` possible positions, then drains the engine to empty and
//! refills it, so the per-element position runs grow to their cap and
//! shrink back. After every step the medians and the snapshot's
//! `median_order`, every `top_k`, and `full_ranking` must equal a
//! rebuild from the live voters.

use bucketrank::access::medrank::top_k_from_medians;
use bucketrank::aggregate::condorcet::MajorityGraph;
use bucketrank::aggregate::dynamic::{DynamicProfile, VoterId};
use bucketrank::aggregate::median::{
    aggregate_full, aggregate_top_k, aggregate_to_type, median_order, median_positions,
};
use bucketrank::aggregate::tally::ProfileTally;
use bucketrank::core::consistent::induced_ranking;
use bucketrank::aggregate::{AggregateError, MedianPolicy};
use bucketrank::{BucketOrder, Pos, TypeSeq};
use bucketrank_bench::oracle;
use bucketrank_testkit::gen::{script_domain, EditOp};
use bucketrank_testkit::prelude::*;

/// The degenerate-heavy edit-script stream shared by the properties.
fn scripts() -> impl Gen<Value = Vec<EditOp>> {
    gen::edit_script_with_degenerates(3..=12, 6, 3)
}

/// Applies one op to the engine and a mirrored live-voter list,
/// asserting the engine's per-edit contract (returned rankings, typed
/// errors on empty, untouched state on error).
fn apply_op(dp: &mut DynamicProfile, live: &mut Vec<(VoterId, BucketOrder)>, op: &EditOp) {
    match op {
        EditOp::Push(r) => {
            let id = dp.push_voter(r.clone()).unwrap();
            live.push((id, r.clone()));
        }
        EditOp::Remove(i) => {
            if live.is_empty() {
                let before = dp.clone();
                let ghost = VoterId::from_raw(u64::MAX);
                assert_eq!(
                    dp.remove_voter(ghost),
                    Err(AggregateError::UnknownVoter { id: u64::MAX })
                );
                assert_eq!(dp.generation(), before.generation());
                assert_eq!(dp.tally(), before.tally());
            } else {
                let k = i % live.len();
                let (id, expected) = live.remove(k);
                let returned = dp.remove_voter(id).unwrap();
                assert_eq!(returned, expected, "removal must return the stored ranking");
            }
        }
        EditOp::Replace(i, r) => {
            if live.is_empty() {
                let ghost = VoterId::from_raw(u64::MAX);
                assert_eq!(
                    dp.replace_voter(ghost, r.clone()),
                    Err(AggregateError::UnknownVoter { id: u64::MAX })
                );
            } else {
                let k = i % live.len();
                let old = dp.replace_voter(live[k].0, r.clone()).unwrap();
                assert_eq!(old, live[k].1, "replace must return the previous ranking");
                live[k].1 = r.clone();
            }
        }
    }
}

/// The full oracle: dynamic state must be byte-identical to a
/// from-scratch rebuild over the live voters.
fn assert_matches_rebuild(
    dp: &DynamicProfile,
    live: &[(VoterId, BucketOrder)],
    policy: MedianPolicy,
) {
    let inputs: Vec<BucketOrder> = live.iter().map(|(_, r)| r.clone()).collect();
    assert_eq!(dp.voters(), inputs.len());
    if inputs.is_empty() {
        assert!(dp.tally().weights_x2().iter().all(|&x| x == 0));
        assert!(dp.tally().strict_counts().iter().all(|x| x == 0));
        assert!(matches!(dp.snapshot(), Err(AggregateError::NoInputs)));
        assert!(matches!(
            dp.median_positions(),
            Err(AggregateError::NoInputs)
        ));
        return;
    }
    let rebuilt = ProfileTally::build(&inputs).unwrap();
    assert_eq!(dp.tally(), &rebuilt, "tally diverged from rebuild");
    let expected_medians = median_positions(&inputs, policy).unwrap();
    assert_eq!(
        dp.median_positions().unwrap(),
        expected_medians,
        "medians diverged from rebuild"
    );
    let snap = dp.snapshot().unwrap();
    assert_eq!(snap.tally(), &rebuilt);
    assert_eq!(snap.median_positions(), &expected_medians[..]);
    assert_eq!(
        MajorityGraph::from_tally(snap.tally()),
        MajorityGraph::from_tally(&rebuilt),
        "majority digraph diverged from rebuild"
    );
}

#[test]
fn dynamic_state_matches_rebuild_after_every_step() {
    check(
        "dynamic_state_matches_rebuild_after_every_step",
        scripts(),
        |script| {
            let n = script_domain(script);
            for policy in [MedianPolicy::Lower, MedianPolicy::Upper] {
                let mut dp = DynamicProfile::new(n, policy);
                let mut live: Vec<(VoterId, BucketOrder)> = Vec::new();
                for op in script {
                    apply_op(&mut dp, &mut live, op);
                    assert_matches_rebuild(&dp, &live, policy);
                }
            }
        },
    );
}

#[test]
fn snapshot_aggregates_match_the_batch_pipeline() {
    check(
        "snapshot_aggregates_match_the_batch_pipeline",
        gen::profile_with_degenerates(1..=7, 8, 3),
        |profile| {
            for policy in [MedianPolicy::Lower, MedianPolicy::Upper] {
                let (dp, ids) = DynamicProfile::from_profile(profile, policy).unwrap();
                assert_eq!(ids.len(), profile.len());
                let snap = dp.snapshot().unwrap();
                let n = profile[0].len();
                assert_eq!(snap.full_ranking(), aggregate_full(profile, policy).unwrap());
                assert_eq!(snap.median_order(), median_order(profile, policy).unwrap());
                for k in [0, 1, n / 2, n] {
                    assert_eq!(
                        snap.top_k(k).unwrap(),
                        aggregate_top_k(profile, k, policy).unwrap()
                    );
                    // The access-layer serving path agrees: the k ids
                    // with smallest medians, in top-k bucket order.
                    let served = top_k_from_medians(snap.median_positions(), k).unwrap();
                    let from_buckets: Vec<u32> = snap
                        .top_k(k)
                        .unwrap()
                        .buckets()
                        .iter()
                        .take(k)
                        .flat_map(|b| b.iter().copied())
                        .collect();
                    assert_eq!(served, from_buckets);
                }
                let alpha = TypeSeq::full(n);
                assert_eq!(
                    snap.to_type(&alpha).unwrap(),
                    aggregate_to_type(profile, &alpha, policy).unwrap()
                );
            }
        },
    );
}

/// A churn script over `n ≤ 6` elements: pushes (with a few replaces
/// and removes) up to `m ≫ 2n` voters, then a drain to empty (with a
/// few pushes), then a short refill.
fn many_voter_script() -> impl Gen<Value = Vec<EditOp>> {
    gen::from_fn(|rng: &mut Pcg32| {
        let n = rng.gen_range(1..=6usize);
        let target = rng.gen_range(4 * n + 1..=300usize);
        let ranking = |rng: &mut Pcg32| {
            if rng.gen_range(0..4u32) == 0 {
                BucketOrder::trivial(n)
            } else {
                let levels = rng.gen_range(1..=n as u32);
                let keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..levels)).collect();
                BucketOrder::from_keys(&keys)
            }
        };
        let mut script = Vec::new();
        let mut m = 0usize;
        while m < target {
            match rng.gen_range(0..20u32) {
                0 => script.push(EditOp::Replace(rng.gen_range(0..=m), ranking(rng))),
                1 if m > 0 => {
                    script.push(EditOp::Remove(rng.gen_range(0..m)));
                    m -= 1;
                }
                _ => {
                    script.push(EditOp::Push(ranking(rng)));
                    m += 1;
                }
            }
        }
        while m > 0 {
            if rng.gen_range(0..10u32) == 0 {
                script.push(EditOp::Push(ranking(rng)));
                m += 1;
            } else {
                script.push(EditOp::Remove(rng.gen_range(0..m)));
                m -= 1;
            }
        }
        for _ in 0..rng.gen_range(1..=2 * n) {
            script.push(EditOp::Push(ranking(rng)));
        }
        script
    })
}

/// Per-element medians of the live voters by counting over the
/// half-unit grid `2..=2n`, independent of the engine's runs.
fn counted_medians(live: &[(VoterId, BucketOrder)], n: usize, policy: MedianPolicy) -> Vec<Pos> {
    let m = live.len();
    let k = match policy {
        MedianPolicy::Lower => (m - 1) / 2,
        MedianPolicy::Upper => m / 2,
    };
    (0..n as u32)
        .map(|e| {
            let mut counts = vec![0usize; 2 * n + 1];
            for (_, r) in live {
                counts[r.position(e).half_units() as usize] += 1;
            }
            let mut seen = 0;
            let v = (0..counts.len())
                .find(|&v| {
                    seen += counts[v];
                    seen > k
                })
                .expect("m > k");
            Pos::from_half_units(v as i64)
        })
        .collect()
}

#[test]
fn many_voters_grow_and_drain_the_median_runs() {
    check(
        "many_voters_grow_and_drain_the_median_runs",
        many_voter_script(),
        |script| {
            let n = script_domain(script);
            for policy in [MedianPolicy::Lower, MedianPolicy::Upper] {
                let mut dp = DynamicProfile::new(n, policy);
                let mut live: Vec<(VoterId, BucketOrder)> = Vec::new();
                for op in script {
                    apply_op(&mut dp, &mut live, op);
                    if live.is_empty() {
                        assert!(matches!(dp.snapshot(), Err(AggregateError::NoInputs)));
                        continue;
                    }
                    let medians = counted_medians(&live, n, policy);
                    assert_eq!(dp.median_positions().unwrap(), medians, "medians after {op:?}");
                    let order = BucketOrder::from_keys(&medians);
                    assert_eq!(induced_ranking(&dp.median_positions().unwrap()), order);
                    let snap = dp.snapshot().unwrap();
                    assert_eq!(snap.median_positions(), &medians[..]);
                    assert_eq!(snap.median_order(), order);
                    for k in 0..=n {
                        let alpha = TypeSeq::top_k(n, k).unwrap();
                        assert_eq!(
                            snap.top_k(k).unwrap(),
                            oracle::project_to_type(&medians, &alpha).unwrap(),
                            "top_{k} after {op:?}"
                        );
                    }
                    assert_eq!(
                        snap.full_ranking(),
                        oracle::project_to_type(&medians, &TypeSeq::full(n)).unwrap()
                    );
                }
            }
        },
    );
}

#[test]
fn cell_width_crossings_match_rebuild() {
    // The tally stores u16 cells up to u16::MAX voters and u32 cells
    // beyond: pushes cross the boundary upward and removes back down,
    // with replaces on both sides. At every crossing the tally, the
    // medians and the snapshot must equal a fresh build, and a snapshot
    // recycled from a spare taken at the other width must equal a fresh
    // one. Voters cycle through a pool whose first pair is unanimous, so
    // that cell sits at exactly u16::MAX, then 65 536.
    const NARROW_MAX: usize = u16::MAX as usize;
    for (n, policy) in [(2usize, MedianPolicy::Lower), (5, MedianPolicy::Upper)] {
        let ids: Vec<u32> = (0..n as u32).collect();
        let rev: Vec<u32> = ids.iter().rev().copied().collect();
        let pool = [
            BucketOrder::from_permutation(&ids).unwrap(),
            BucketOrder::from_keys(&(0..n as i64).map(|e| (e + 1) / 2).collect::<Vec<_>>()),
            BucketOrder::from_permutation(&ids).unwrap(),
        ];
        let mut dp = DynamicProfile::new(n, policy);
        let mut live: Vec<(VoterId, BucketOrder)> = Vec::new();
        for i in 0..NARROW_MAX {
            apply_op(&mut dp, &mut live, &EditOp::Push(pool[i % pool.len()].clone()));
        }
        assert_matches_rebuild(&dp, &live, policy);
        assert_eq!(dp.tally().strict_count(0, n as u32 - 1), NARROW_MAX as u32);
        let mut spare = dp.snapshot().unwrap();
        let script = [
            EditOp::Push(pool[0].clone()),
            EditOp::Replace(7, BucketOrder::from_permutation(&rev).unwrap()),
            EditOp::Push(pool[1].clone()),
            EditOp::Remove(3),
            EditOp::Remove(NARROW_MAX),
            EditOp::Replace(11, BucketOrder::trivial(n)),
            EditOp::Remove(0),
            EditOp::Push(pool[2].clone()),
            EditOp::Push(pool[0].clone()),
            EditOp::Remove(5),
            EditOp::Remove(1),
        ];
        let mut crossings = 0;
        for op in &script {
            let before = dp.voters();
            apply_op(&mut dp, &mut live, op);
            assert_matches_rebuild(&dp, &live, policy);
            // After a crossing the spare is the other width's snapshot.
            let recycled = dp.snapshot_reusing(Some(spare)).unwrap();
            assert_eq!(recycled, dp.snapshot().unwrap(), "{op:?} at m = {before}");
            spare = recycled;
            crossings += usize::from((before <= NARROW_MAX) != (dp.voters() <= NARROW_MAX));
        }
        assert_eq!(crossings, 4, "two crossings each way");
    }
}

#[test]
fn unknown_voter_edits_never_underflow_or_mutate() {
    let keys = |k: &[i64]| BucketOrder::from_keys(k);
    let mut dp = DynamicProfile::new(4, MedianPolicy::Lower);
    let a = dp.push_voter(keys(&[1, 2, 3, 4])).unwrap();
    let b = dp.push_voter(keys(&[2, 1, 1, 2])).unwrap();
    dp.remove_voter(a).unwrap();
    let reference = dp.clone();
    // Stale handle, fabricated handle, and double-remove: all typed.
    for ghost in [a, VoterId::from_raw(999)] {
        assert_eq!(
            dp.remove_voter(ghost),
            Err(AggregateError::UnknownVoter { id: ghost.raw() })
        );
        assert_eq!(
            dp.replace_voter(ghost, keys(&[1, 1, 1, 1])),
            Err(AggregateError::UnknownVoter { id: ghost.raw() })
        );
    }
    assert_eq!(dp.generation(), reference.generation());
    assert_eq!(dp.tally(), reference.tally());
    assert_eq!(dp.voter_ids(), vec![b]);
    assert_eq!(
        dp.median_positions().unwrap(),
        reference.median_positions().unwrap()
    );
    // The engine still works after the failed edits.
    dp.remove_voter(b).unwrap();
    assert_eq!(dp.voters(), 0);
    assert!(dp.tally().weights_x2().iter().all(|&x| x == 0));
}
