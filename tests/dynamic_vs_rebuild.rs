//! Differential update-oracle suite for the streaming profile engine
//! (`aggregate::dynamic`): random insert/remove/replace edit scripts
//! from `testkit::gen::edit_script_with_degenerates` (empty-profile,
//! single-voter, all-voters-removed and duplicate-voter trajectories),
//! asserting after **every step** that the dynamic tally, median-rank
//! vector and majority digraph are byte-identical to a from-scratch
//! rebuild over the live voters. The dirty-row contract is pinned
//! exactly: a drained set must equal its definition (all rows after a
//! push or remove; after a replace, the endpoints of the pairs the old
//! and new ranking order differently, ascending), rows outside it must
//! be untouched in both matrix directions, and refreshing only the
//! drained rows must leave every row-local consumer (majority digraph,
//! MC4 transition matrix) equal to a full rebuild. Unknown-voter edits must be typed errors
//! that leave the engine byte-identical — never a panic or underflow.

use bucketrank::access::medrank::top_k_from_medians;
use bucketrank::aggregate::condorcet::MajorityGraph;
use bucketrank::aggregate::dynamic::{DynamicProfile, VoterId};
use bucketrank::aggregate::markov::{mc4_transition_matrix, refresh_mc4_rows};
use bucketrank::aggregate::median::{
    aggregate_full, aggregate_top_k, aggregate_to_type, median_order, median_positions,
};
use bucketrank::aggregate::tally::ProfileTally;
use bucketrank::aggregate::{AggregateError, MedianPolicy};
use bucketrank::{BucketOrder, TypeSeq};
use bucketrank_testkit::gen::EditOp;
use bucketrank_testkit::prelude::*;

/// The degenerate-heavy edit-script stream shared by the properties.
fn scripts() -> impl Gen<Value = Vec<EditOp>> {
    gen::edit_script_with_degenerates(3..=12, 6, 3)
}

/// Domain size of a script: read off its first pushed ranking (every
/// generated script contains at least one push).
fn script_domain(script: &[EditOp]) -> usize {
    script
        .iter()
        .find_map(|op| match op {
            EditOp::Push(r) | EditOp::Replace(_, r) => Some(r.len()),
            EditOp::Remove(_) => None,
        })
        .expect("scripts always embed a ranking")
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

/// The dirty set an op must leave, by definition: every row after a
/// push or a successful remove (the voter count enters every weight),
/// none after a failed edit, and after a replace the endpoints of the
/// pairs the old and new ranking order differently.
fn expected_dirty(live: &[(VoterId, BucketOrder)], op: &EditOp, n: usize) -> Vec<u32> {
    match op {
        EditOp::Push(_) => (0..n as u32).collect(),
        EditOp::Remove(_) if !live.is_empty() => (0..n as u32).collect(),
        EditOp::Replace(i, new) if !live.is_empty() => {
            let ob = live[i % live.len()].1.bucket_indices();
            let nb = new.bucket_indices();
            (0..n)
                .filter(|&a| (0..n).any(|b| ob[a].cmp(&ob[b]) != nb[a].cmp(&nb[b])))
                .map(|a| a as u32)
                .collect()
        }
        _ => Vec::new(),
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
        assert!(dp.tally().strict_counts().iter().all(|&x| x == 0));
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
fn dirty_rows_are_precise_and_refresh_consumers_to_a_full_rebuild() {
    check(
        "dirty_rows_are_precise_and_refresh_consumers_to_a_full_rebuild",
        scripts(),
        |script| {
            let n = script_domain(script);
            let mut dp = DynamicProfile::new(n, MedianPolicy::Lower);
            let mut live: Vec<(VoterId, BucketOrder)> = Vec::new();
            // Row-local consumers maintained purely through the
            // dirty-row hooks from here on (both are well-defined on
            // the zero-voter tally).
            let mut graph = MajorityGraph::from_tally(dp.tally());
            let mut mc4 = mc4_transition_matrix(dp.tally());
            dp.take_dirty();
            for op in script {
                let prev = dp.clone();
                let expected = expected_dirty(&live, op, n);
                apply_op(&mut dp, &mut live, op);
                let dirty = dp.take_dirty();
                // Exactness: the drained set is the naive definition,
                // in ascending row order.
                assert_eq!(dirty.rows(), &expected[..], "dirty rows after {op:?}");
                // Precision: a clean row is untouched in both matrix
                // directions and keeps its median.
                for a in 0..n as u32 {
                    if dirty.contains(a) {
                        continue;
                    }
                    for b in 0..n as u32 {
                        assert_eq!(dp.tally().strict_count(a, b), prev.tally().strict_count(a, b));
                        assert_eq!(dp.tally().strict_count(b, a), prev.tally().strict_count(b, a));
                        assert_eq!(dp.tally().weight_x2(a, b), prev.tally().weight_x2(a, b));
                        assert_eq!(dp.tally().weight_x2(b, a), prev.tally().weight_x2(b, a));
                    }
                    if dp.voters() > 0 && prev.voters() > 0 {
                        assert_eq!(
                            dp.median_positions().unwrap()[a as usize],
                            prev.median_positions().unwrap()[a as usize],
                            "clean row {a} moved its median"
                        );
                    }
                }
                // Sufficiency: refreshing exactly the drained rows
                // brings every consumer to a full rebuild.
                graph.refresh_rows(dp.tally(), dirty.rows()).unwrap();
                refresh_mc4_rows(dp.tally(), &mut mc4, dirty.rows()).unwrap();
                assert_eq!(graph, MajorityGraph::from_tally(dp.tally()));
                assert_eq!(mc4, mc4_transition_matrix(dp.tally()));
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
