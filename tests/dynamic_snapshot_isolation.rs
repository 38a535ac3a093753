//! Snapshot-isolation regression tests for the streaming engine: held
//! `DynamicProfile` snapshots are immutable owned views, so readers on
//! other threads must never observe a partial update while the owning
//! thread edits the engine — every invariant of a consistent epoch
//! (the tally equal to a fresh build over the voters live at the epoch,
//! no pair counted by more voters than exist, median vector frozen at
//! the epoch) must hold on the view throughout, and the view must compare
//! byte-identical to its capture before, during and after the churn.
//!
//! Recycled republishes (`DynamicProfile::snapshot_reusing`, the
//! server's publish path) get their own lanes: a reader holding a
//! published view keeps its generation and bytes across later
//! republishes, and a recycled snapshot equals a fresh one at every
//! step of random edit scripts, including spares from wider and
//! narrower domains.

use bucketrank::aggregate::dynamic::{DynamicProfile, DynamicSnapshot, VoterId};
use bucketrank::aggregate::tally::ProfileTally;
use bucketrank::aggregate::MedianPolicy;
use bucketrank::BucketOrder;
use bucketrank_testkit::gen::{script_domain, EditOp};
use bucketrank_testkit::prelude::*;
use std::sync::{Arc, RwLock};
use std::thread;

fn keys(k: &[i64]) -> BucketOrder {
    BucketOrder::from_keys(k)
}

/// Every invariant a consistent tally epoch satisfies; a torn read (a
/// snapshot observing half an update) would violate one. `live` is
/// the voters live at the snapshot's epoch.
fn assert_consistent_epoch(snap: &DynamicSnapshot, live: &[BucketOrder]) {
    let t = snap.tally();
    let n = t.len();
    assert_eq!(
        t,
        &ProfileTally::build(live).unwrap(),
        "tally differs from a fresh build"
    );
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            if a != b {
                assert!(t.strict_count(a, b) + t.strict_count(b, a) <= t.voters() as u32);
            }
        }
    }
    assert_eq!(snap.median_positions().len(), n);
}

/// The engine's live rankings (any order: a tally is a sum).
fn live_voters(dp: &DynamicProfile) -> Vec<BucketOrder> {
    dp.voter_ids()
        .into_iter()
        .map(|id| dp.get_voter(id).unwrap().clone())
        .collect()
}

#[test]
fn held_snapshots_never_observe_concurrent_edits() {
    let n = 6;
    let mut dp = DynamicProfile::new(n, MedianPolicy::Upper);
    let mut ids = Vec::new();
    for i in 0..4i64 {
        ids.push(dp.push_voter(keys(&[i, 2, 5 - i, 1, i % 3, 4])).unwrap());
    }
    let live = live_voters(&dp);
    let snap = dp.snapshot().unwrap();
    let reference = snap.clone();
    thread::scope(|s| {
        let snap_ref = &snap;
        let reference_ref = &reference;
        let live_ref = &live;
        let reader = s.spawn(move || {
            // DynamicSnapshot is Sync: this closure borrows it across
            // the thread boundary while the main thread keeps editing.
            for _ in 0..500 {
                assert_consistent_epoch(snap_ref, live_ref);
                assert_eq!(snap_ref, reference_ref, "held view changed under edits");
                assert_eq!(snap_ref.tally().voters(), 4);
            }
        });
        // Churn the engine hard while the reader holds the old epoch.
        for round in 0..200i64 {
            let id = dp.push_voter(keys(&[round % 5, 1, 2, 3, 4, round % 7])).unwrap();
            dp.replace_voter(ids[(round % 4) as usize], keys(&[round % 3, round % 4, 1, 2, 3, 4]))
                .unwrap();
            dp.remove_voter(id).unwrap();
        }
        reader.join().unwrap();
    });
    // The held view is still the captured epoch, bit for bit.
    assert_eq!(snap, reference);
    assert_eq!(snap.tally().voters(), 4);
    // The engine moved on: a fresh snapshot is a later generation.
    let fresh = dp.snapshot().unwrap();
    assert!(fresh.generation() > snap.generation());
    assert_consistent_epoch(&fresh, &live_voters(&dp));
}

#[test]
fn snapshots_can_move_to_other_threads() {
    let mut dp = DynamicProfile::new(3, MedianPolicy::Lower);
    dp.push_voter(keys(&[1, 2, 3])).unwrap();
    let snap = dp.snapshot().unwrap();
    let expected = snap.clone();
    // DynamicSnapshot is Send: hand the owned view to another thread
    // while the engine keeps editing here.
    let handle = std::thread::spawn(move || {
        assert_consistent_epoch(&snap, &[keys(&[1, 2, 3])]);
        snap
    });
    dp.push_voter(keys(&[3, 2, 1])).unwrap();
    let returned = handle.join().unwrap();
    assert_eq!(returned, expected);
    assert_eq!(dp.voters(), 2);
}

#[test]
fn generation_counts_every_successful_edit_exactly_once() {
    let mut dp = DynamicProfile::new(3, MedianPolicy::Lower);
    assert_eq!(dp.generation(), 0);
    let a = dp.push_voter(keys(&[1, 2, 3])).unwrap();
    let b = dp.push_voter(keys(&[2, 1, 3])).unwrap();
    assert_eq!(dp.generation(), 2);
    dp.replace_voter(a, keys(&[3, 2, 1])).unwrap();
    assert_eq!(dp.generation(), 3);
    dp.remove_voter(b).unwrap();
    assert_eq!(dp.generation(), 4);
    // Failed edits never advance the epoch.
    assert!(dp.remove_voter(b).is_err());
    assert!(dp.push_voter(BucketOrder::trivial(5)).is_err());
    assert_eq!(dp.generation(), 4);
    assert_eq!(dp.snapshot().unwrap().generation(), 4);
}

/// The server's publish protocol (`Session::publish`): copy the new
/// epoch into the spare, swap it in under the write lock, and keep the
/// retired snapshot as the next spare only if no reader still holds
/// it.
fn publish(
    slot: &RwLock<Option<Arc<DynamicSnapshot>>>,
    spare: &mut Option<DynamicSnapshot>,
    dp: &DynamicProfile,
) {
    let fresh = dp.snapshot_reusing(spare.take()).ok().map(Arc::new);
    let old = std::mem::replace(&mut *slot.write().unwrap(), fresh);
    *spare = old.and_then(|arc| Arc::try_unwrap(arc).ok());
}

#[test]
fn held_view_survives_recycled_republishes() {
    let mut dp = DynamicProfile::new(5, MedianPolicy::Lower);
    let a = dp.push_voter(keys(&[1, 2, 3, 4, 5])).unwrap();
    dp.push_voter(keys(&[2, 2, 1, 3, 3])).unwrap();
    let slot = RwLock::new(None);
    let mut spare = None;
    publish(&slot, &mut spare, &dp);
    // A reader takes the published view, as the server's reads do.
    let held = slot.read().unwrap().clone().unwrap();
    let (generation, bytes, live) = (held.generation(), (*held).clone(), live_voters(&dp));
    for round in 0..4i64 {
        dp.replace_voter(a, keys(&[round % 3, 1, 4 - round, 2, round]))
            .unwrap();
        publish(&slot, &mut spare, &dp);
        // Every republish after the first retires a view nobody holds,
        // so from the second on the spare is recycled.
        assert_eq!(spare.is_some(), round >= 1, "round {round}");
        let published = slot.read().unwrap().clone().unwrap();
        assert_eq!(*published, dp.snapshot().unwrap());
        assert_eq!(held.generation(), generation);
        assert_eq!(*held, bytes, "held view changed under a recycled republish");
        assert_consistent_epoch(&held, &live);
    }
}

/// A one-voter snapshot over a `k`-element domain: a spare whose
/// buffers are the wrong size for the engine under test.
fn foreign_spare(k: usize) -> DynamicSnapshot {
    let mut dp = DynamicProfile::new(k, MedianPolicy::Upper);
    dp.push_voter(BucketOrder::trivial(k)).unwrap();
    dp.snapshot().unwrap()
}

#[test]
fn recycled_snapshots_equal_fresh_ones_along_edit_scripts() {
    check(
        "recycled_snapshots_equal_fresh_ones_along_edit_scripts",
        gen::edit_script_with_degenerates(3..=12, 6, 3),
        |script| {
            let n = script_domain(script);
            let mut dp = DynamicProfile::new(n, MedianPolicy::Lower);
            let mut live: Vec<VoterId> = Vec::new();
            let mut last = None;
            for (step, op) in script.iter().enumerate() {
                match op {
                    EditOp::Push(r) => live.push(dp.push_voter(r.clone()).unwrap()),
                    EditOp::Remove(i) if !live.is_empty() => {
                        let id = live.remove(i % live.len());
                        dp.remove_voter(id).unwrap();
                    }
                    EditOp::Replace(i, r) if !live.is_empty() => {
                        dp.replace_voter(live[i % live.len()], r.clone()).unwrap();
                    }
                    _ => {}
                }
                // Rotate the spare: a wider domain's (the copy trims
                // it), a narrower one's (the copy grows it), and the
                // snapshot the previous step retired.
                let spare = match step % 3 {
                    0 => Some(foreign_spare(n + 5)),
                    1 => Some(foreign_spare(n / 2)),
                    _ => last.take(),
                };
                let recycled = dp.snapshot_reusing(spare);
                assert_eq!(recycled, dp.snapshot(), "step {step}");
                last = recycled.ok();
            }
        },
    );
}
