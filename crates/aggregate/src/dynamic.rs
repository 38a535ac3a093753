//! The streaming profile engine: a [`ProfileTally`] and the per-element
//! median ranks, maintained **incrementally** under voter churn.
//!
//! Every batch aggregation path in this crate rebuilds its substrate
//! from scratch: `ProfileTally::build` is `O(m·n²)` and
//! [`median_positions`](crate::median::median_positions) is
//! `O(m·n log m)` on any profile change. For continuously-arriving vote
//! traffic that is the wrong shape — a single-voter edit perturbs the
//! pairwise tally by exactly one voter's contribution and shifts each
//! element's rank multiset by one value. [`DynamicProfile`] exploits
//! that locality:
//!
//! * [`push_voter`](DynamicProfile::push_voter) /
//!   [`remove_voter`](DynamicProfile::remove_voter) /
//!   [`replace_voter`](DynamicProfile::replace_voter) update the tally
//!   and the median-rank vector in `O(n²)` — **independent of the
//!   number of voters** `m`;
//! * removal retracts the engine's **stored** copy of the voter's
//!   ranking, so tally cells can never underflow, and removing an id
//!   that is not present is a typed
//!   [`AggregateError::UnknownVoter`] with state untouched — never a
//!   panic;
//! * each edit method first runs its public check —
//!   [`check_push`](DynamicProfile::check_push) (domain size, voter cap,
//!   and the id the push will get),
//!   [`check_remove`](DynamicProfile::check_remove) (unknown voter),
//!   [`check_replace`](DynamicProfile::check_replace) (both) — and
//!   nothing else can fail. A durability layer runs the same check
//!   before it logs an edit, so every logged edit is one the engine
//!   applies, and the rules exist in one place;
//! * a generation counter and [`snapshot`](DynamicProfile::snapshot)
//!   give batch consumers (kwiksort seeding, Schulze supports, local
//!   Kemenization, the CLI) a consistent read view: a
//!   [`DynamicSnapshot`] owns its tally and median vector, so held
//!   snapshots never observe later edits, even from other threads.
//!   [`snapshot_reusing`](DynamicProfile::snapshot_reusing) copies the
//!   same view into a retired snapshot's buffers, so a republish after
//!   every edit need not allocate its `O(n²)` matrix.
//!
//! # Update algebra
//!
//! The tally stores one matrix, `strict(a, b)`; the ×2 weights are
//! derived from it on read (`w2(a, b) = m + strict(a, b) −
//! strict(b, a)`, see [`ProfileTally`]). One voter contributes `+1` to
//! `strict(a, b)` for each pair it orders `a` ahead of `b`, and nothing
//! for a pair it ties. Pushing applies that signed pass with `+1`,
//! removal with `−1` on the stored ranking — the same branchless
//! comparison kernel as the batch build (a strict win is
//! `bucket(b) > bucket(a)` over the contiguous bucket-index map), so
//! the maintained matrix stays **byte-identical** to
//! `ProfileTally::build` over the live voters (enforced by
//! `tests/dynamic_vs_rebuild.rs` at every step of random edit scripts).
//! The diagonal needs no special case: `bucket(a) > bucket(a)` is
//! false.
//!
//! The passes are the tally's own (crate-private) edit methods, which
//! also own its cell width (`u16` while `m ≤ u16::MAX`, see
//! [`ProfileTally`]): each pass narrows the voter's bucket indices to
//! the cell width once per edit into a reused buffer, and the width
//! follows the voter count — the push that takes `m` to 65 536 widens
//! the cells in place *before* adding, and the remove that brings it
//! back to 65 535 narrows them *after* retracting, each one `O(n²)`
//! conversion, the cost of the edit itself. So the maintained tally
//! always has the width `ProfileTally::build` picks for the same
//! voters.
//!
//! Replace is **one fused pass** over the rows: each cell moves by the
//! new contribution minus the old one (wrapping arithmetic at the cell
//! width; the final cell is a live-voter count, which fits that width,
//! so it is exact). It reads and writes the matrix once — half the
//! traffic of a retract pass plus an add pass.
//!
//! Median ranks keep, per element, the live voters' positions as
//! sorted runs of (half-unit position, multiplicity), plus a median
//! pointer (an index into the runs) and a count of positions in the
//! runs before it. All elements share one flat buffer with one
//! per-element capacity, which doubles when an element runs out of
//! room and is capped at the `2n − 1` distinct positions an
//! `n`-element order can produce; it halves again as voters leave. So
//! median state is `O(n·min(m, 2n))`: 256 KiB at 32 voters × 512
//! elements, where a counting array over the position grid `2..=2n`
//! held `n·(2n+1)` cells (2 MiB at n = 512, whatever `m`). An edit
//! finds a position's run by binary search within the window its value
//! allows (one run once the runs cover their range, as they do when
//! `m ≫ n`), and moves the pointer over runs, never over the position
//! grid. A run that empties stays in place until its element needs the
//! room, so a position that comes back costs no shift.
//!
//! A [`DynamicSnapshot`] builds the median order once, when it is
//! taken, with a counting scatter over the median positions; its
//! `median_order`, `top_k` and `full_ranking` copy or cut that order
//! in `O(n)`, and `to_type` projects the medians with
//! `project_to_type`, itself a counting pass.
//!
//! # Crossover
//!
//! An update-then-query cycle costs `O(n²)`; rebuild-then-query costs
//! `O(m·n²)`. The dynamic path therefore wins by a factor `Θ(m)` for
//! single-voter churn and the batch build wins only when most of the
//! profile changes between queries (fewer than a handful of surviving
//! voters per rebuild). A median-only query still pays the `O(n²)`
//! tally maintenance it never reads, against an `O(m·n log m)` median
//! rebuild; with `u16` tally cells the update is ahead of the rebuild
//! at every measured shape, closest at 16 × 512 (1.8–2.6×).
//! `BENCH_dynamic.json` (the `bench_dynamic` binary) records the
//! measured trajectory; see DESIGN.md §3.3c.

use crate::error::check_inputs;
use crate::median::MedianPolicy;
use crate::tally::{EditKeys, ProfileTally};
use crate::AggregateError;
use bucketrank_core::consistent::{induced_ranking, project_to_type};
use bucketrank_core::{BucketOrder, Pos, TypeSeq};
use std::collections::HashMap;

/// Opaque handle for one live voter in a [`DynamicProfile`]; returned
/// by [`DynamicProfile::push_voter`] and never reused after removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VoterId(u64);

impl VoterId {
    /// The raw id, for persistence or logging.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from [`VoterId::raw`] (e.g. after
    /// deserialization). Presenting an id the engine never issued, or
    /// one already removed, yields [`AggregateError::UnknownVoter`].
    pub fn from_raw(raw: u64) -> Self {
        VoterId(raw)
    }
}

impl std::fmt::Display for VoterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "voter#{}", self.0)
    }
}

/// 0-based rank of the policy's median among `m ≥ 1` sorted values.
fn target_rank(policy: MedianPolicy, m: usize) -> u32 {
    match policy {
        MedianPolicy::Lower => ((m - 1) / 2) as u32,
        MedianPolicy::Upper => (m / 2) as u32,
    }
}

/// One run of an element's position multiset: a half-unit position and
/// the number of live voters placing the element there. A run whose
/// count falls to zero stays in place until its element needs the room,
/// so a position that comes back costs no shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    pos: u32,
    count: u32,
}

/// The index of position `v` among an element's runs (sorted, distinct
/// positions), or the index it would be inserted at. Distinct integer
/// positions put `v` within `v − first` runs of the start and
/// `last − v` runs of the end; once the runs cover their range densely,
/// as they do when `m ≫ n`, that window is a single run.
fn find(row: &[Run], v: u32) -> Result<usize, usize> {
    let (Some(first), Some(last)) = (row.first(), row.last()) else {
        return Err(0);
    };
    if v < first.pos {
        return Err(0);
    }
    if v > last.pos {
        return Err(row.len());
    }
    let lo = (row.len() - 1).saturating_sub((last.pos - v) as usize);
    let hi = ((v - first.pos) as usize).min(row.len() - 1);
    row[lo..=hi]
        .binary_search_by_key(&v, |r| r.pos)
        .map(|i| lo + i)
        .map_err(|i| lo + i)
}

/// One element's place in [`MedianRuns`]: how many runs it has, the
/// index of the run holding its median, how many stored positions lie
/// in the runs before that one, and the median position itself (so a
/// snapshot reads the medians in one sequential pass).
#[derive(Debug, Clone, Copy, Default)]
struct Head {
    len: u32,
    med: u32,
    below: u32,
    median: u32,
}

impl Head {
    /// Restores the median-pointer invariant `below ≤ k < below +
    /// row[med].count` over the element's runs `row`, where `k` is the
    /// 0-based target rank of the policy's median among a nonempty
    /// multiset. The pointer steps over runs only, never over the
    /// position grid.
    fn rebalance(&mut self, row: &[Run], k: u32) {
        while self.below > k {
            self.med -= 1;
            self.below -= row[self.med as usize].count;
        }
        while self.below + row[self.med as usize].count <= k {
            self.below += row[self.med as usize].count;
            self.med += 1;
        }
        self.median = row[self.med as usize].pos;
    }
}

/// The per-element multisets of live voters' positions, as sorted runs
/// of (position, multiplicity) in one flat buffer: element `e`'s runs
/// are `runs[e·cap..][..len]`. When an element needs a run and its row
/// is full, its empty runs are dropped; if more than half the row is
/// still live, the shared capacity `cap` doubles, up to the `2n − 1`
/// distinct half-unit positions an `n`-element order can produce. It
/// halves once the voters fit in a quarter of it. So `cap` stays below
/// `4·min(m, 2n)`, and the buffer holds `O(n·min(m, 2n))` runs.
#[derive(Debug, Clone)]
struct MedianRuns {
    cap: usize,
    heads: Vec<Head>,
    runs: Vec<Run>,
}

impl MedianRuns {
    fn new(n: usize) -> Self {
        MedianRuns {
            cap: 0,
            heads: vec![Head::default(); n],
            runs: Vec::new(),
        }
    }

    /// Element `e`'s runs and head.
    fn row(&mut self, e: usize) -> (&mut [Run], &mut Head) {
        let h = &mut self.heads[e];
        let base = e * self.cap;
        (&mut self.runs[base..base + h.len as usize], h)
    }

    /// Moves every element's live runs into a buffer of capacity `cap`,
    /// dropping empty runs (the median's run is live, so the pointer
    /// only shifts down past the dropped ones).
    fn relayout(&mut self, cap: usize) {
        let mut runs = vec![Run { pos: 0, count: 0 }; self.heads.len() * cap];
        for (e, h) in self.heads.iter_mut().enumerate() {
            let old = &self.runs[e * self.cap..][..h.len as usize];
            let dropped_below = old[..h.med as usize].iter().filter(|r| r.count == 0).count();
            let mut len = 0;
            for &r in old.iter().filter(|r| r.count > 0) {
                runs[e * cap + len] = r;
                len += 1;
            }
            h.len = len as u32;
            h.med -= dropped_below as u32;
        }
        self.runs = runs;
        self.cap = cap;
    }

    /// The index of element `e`'s run at position `v`, inserting an
    /// empty run there first if there is none.
    fn slot(&mut self, e: usize, v: u32) -> usize {
        let len = self.heads[e].len as usize;
        let row = &self.runs[e * self.cap..][..len];
        let i = match find(row, v) {
            Ok(i) => return i,
            Err(i) => i,
        };
        if len == self.cap {
            // Make room: drop the empty runs, and double the capacity
            // unless that frees at least half the row.
            let live = row.iter().filter(|r| r.count > 0).count();
            let cap = if 2 * live > self.cap || self.cap == 0 {
                (2 * self.cap).clamp(1, 2 * self.heads.len() - 1)
            } else {
                self.cap
            };
            self.relayout(cap);
            return self.slot(e, v);
        }
        let base = e * self.cap;
        let row = &mut self.runs[base..base + len + 1];
        row.copy_within(i..len, i + 1);
        row[i] = Run { pos: v, count: 0 };
        let h = &mut self.heads[e];
        if len > 0 && i as u32 <= h.med {
            h.med += 1;
        }
        h.len += 1;
        i
    }

    /// Adds position `v` to element `e`'s multiset; `k` is the median's
    /// target rank after the insert.
    fn insert(&mut self, e: usize, v: u32, k: u32) {
        let j = self.slot(e, v);
        let (row, h) = self.row(e);
        row[j].count += 1;
        if (j as u32) < h.med {
            h.below += 1;
        }
        h.rebalance(row, k);
    }

    /// Deletes one stored position `v` from element `e`'s multiset,
    /// which stays nonempty; `k` is the median's target rank after the
    /// delete.
    fn remove(&mut self, e: usize, v: u32, k: u32) {
        let (row, h) = self.row(e);
        let i = find(row, v).expect("a stored position has a run");
        row[i].count -= 1;
        if (i as u32) < h.med {
            h.below -= 1;
        }
        h.rebalance(row, k);
    }

    /// Moves one stored position of element `e` from `old` to `new`;
    /// `k` is the median's target rank (the multiset size is unchanged).
    fn replace(&mut self, e: usize, old: u32, new: u32, k: u32) {
        let j = self.slot(e, new);
        let (row, h) = self.row(e);
        let i = find(row, old).expect("a stored position has a run");
        row[i].count -= 1;
        row[j].count += 1;
        h.below = h.below + u32::from(j < h.med as usize) - u32::from(i < h.med as usize);
        h.rebalance(row, k);
    }

    /// Empties every multiset and releases the buffer.
    fn clear(&mut self) {
        self.heads.fill(Head::default());
        self.runs = Vec::new();
        self.cap = 0;
    }

    /// Halves the capacity while `m ≥ 1` voters fit in a quarter of it:
    /// each element has at most `m` live runs, so `cap / 2 ≥ 2m` still
    /// holds them, and `m` must double again before the next growth.
    fn shrink_to_voters(&mut self, m: usize) {
        let mut cap = self.cap;
        while 4 * m <= cap {
            cap /= 2;
        }
        if cap != self.cap {
            self.relayout(cap);
        }
    }
}

/// A position of an `n`-element order as stored in the runs: half-units
/// in `2..=2n` (the tally's `n × n` matrix bounds `n` far below
/// `u32::MAX / 2`).
fn half_units(p: Pos) -> u32 {
    p.half_units() as u32
}

/// The streaming profile engine; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct DynamicProfile {
    /// Maintained in place by the signed voter pass; always consistent
    /// with `ProfileTally::build` over the live voters.
    tally: ProfileTally,
    policy: MedianPolicy,
    /// Stored rankings, keyed by raw voter id — removal retracts the
    /// stored copy, which is what makes underflow impossible.
    voters: HashMap<u64, BucketOrder>,
    next_id: u64,
    generation: u64,
    /// Per-element position multisets with their median pointers.
    medians: MedianRuns,
    /// Reused key buffers for the tally's edit passes.
    keys: EditKeys,
}

impl DynamicProfile {
    /// The most voters the `u32` tally cells can hold (same bound as
    /// [`ProfileTally::build`], enforced here as a typed error instead
    /// of a panic). Up to `u16::MAX` voters the cells are `u16`; the
    /// push past it widens them in place, and the remove back below it
    /// narrows them again.
    pub const MAX_VOTERS: usize = (u32::MAX / 2) as usize;

    /// An empty engine over a fixed `n`-element domain.
    pub fn new(n: usize, policy: MedianPolicy) -> Self {
        DynamicProfile {
            tally: ProfileTally::empty(n),
            policy,
            voters: HashMap::new(),
            next_id: 0,
            generation: 0,
            medians: MedianRuns::new(n),
            keys: EditKeys::default(),
        }
    }

    /// Seeds an engine from a batch profile (one push per input, in
    /// order); the returned ids parallel `inputs`.
    ///
    /// # Errors
    /// [`AggregateError::NoInputs`] /
    /// [`AggregateError::DomainMismatch`] /
    /// [`AggregateError::TooManyVoters`].
    pub fn from_profile(
        inputs: &[BucketOrder],
        policy: MedianPolicy,
    ) -> Result<(Self, Vec<VoterId>), AggregateError> {
        let n = check_inputs(inputs)?;
        let mut dp = DynamicProfile::new(n, policy);
        let mut ids = Vec::with_capacity(inputs.len());
        for r in inputs {
            ids.push(dp.push_voter(r.clone())?);
        }
        Ok((dp, ids))
    }

    /// Rebuilds an engine from stored `(raw id, ranking)` pairs plus
    /// the id counter to resume from — the restore path for durability
    /// layers that checkpoint a profile and fault it back in. Ids are
    /// preserved exactly (a voter keeps its pre-checkpoint handle) and
    /// the next push is assigned `next_id`, so a restored engine is
    /// indistinguishable from one that never left memory.
    ///
    /// The generation counter restarts at the number of restored
    /// voters, matching an engine built by pushing them in order.
    ///
    /// # Errors
    /// [`AggregateError::DomainMismatch`] /
    /// [`AggregateError::TooManyVoters`] as for pushes;
    /// [`AggregateError::InvalidVoterId`] on a duplicate id or an id
    /// not strictly below `next_id` (either means the stored state is
    /// corrupt — restoring it would double-count a voter or let a
    /// future push collide with a live id).
    pub fn from_voters<I>(
        n: usize,
        policy: MedianPolicy,
        voters: I,
        next_id: u64,
    ) -> Result<Self, AggregateError>
    where
        I: IntoIterator<Item = (u64, BucketOrder)>,
    {
        let mut dp = DynamicProfile::new(n, policy);
        for (id, ranking) in voters {
            if id >= next_id || dp.voters.contains_key(&id) {
                return Err(AggregateError::InvalidVoterId { id });
            }
            // push_voter assigns `next_id` and bumps it; steering the
            // counter per voter reuses the whole validated edit path
            // (domain check, capacity check, tally + median updates).
            dp.next_id = id;
            dp.push_voter(ranking)?;
        }
        dp.next_id = next_id;
        Ok(dp)
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.tally.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.tally.is_empty()
    }

    /// Number of live voters.
    pub fn voters(&self) -> usize {
        self.tally.voters()
    }

    /// The median policy the maintained median vector follows.
    pub fn policy(&self) -> MedianPolicy {
        self.policy
    }

    /// The edit counter: incremented by every successful push, remove
    /// or replace (failed edits leave it untouched). Snapshots carry
    /// the generation they were taken at, so consumers can detect
    /// staleness cheaply.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The stored ranking of a live voter.
    pub fn get_voter(&self, id: VoterId) -> Option<&BucketOrder> {
        self.voters.get(&id.0)
    }

    /// The raw id the next successful push will be assigned — the id
    /// counter a checkpoint stores for [`from_voters`](Self::from_voters).
    pub fn next_push_id(&self) -> u64 {
        self.next_id
    }

    /// The live voter ids, ascending (insertion order — ids are never
    /// reused).
    pub fn voter_ids(&self) -> Vec<VoterId> {
        let mut ids: Vec<VoterId> = self.voters.keys().map(|&k| VoterId(k)).collect();
        ids.sort_unstable();
        ids
    }

    /// The current-epoch tally — a zero-cost borrow, valid until the
    /// next `&mut self` edit. For a view that survives concurrent
    /// edits, take a [`snapshot`](DynamicProfile::snapshot).
    pub fn tally(&self) -> &ProfileTally {
        &self.tally
    }

    /// The maintained median vector as positions.
    fn medians(&self) -> impl Iterator<Item = Pos> + '_ {
        self.medians
            .heads
            .iter()
            .map(|h| Pos::from_half_units(i64::from(h.median)))
    }

    /// Checks a push without applying it and returns the id the push
    /// will be assigned; `O(1)`. [`push_voter`](Self::push_voter) runs
    /// this same check first, so `Ok` here guarantees the push succeeds
    /// with that id.
    ///
    /// # Errors
    /// [`AggregateError::DomainMismatch`] if the ranking's domain size
    /// differs; [`AggregateError::TooManyVoters`] at the `u32` tally
    /// capacity.
    pub fn check_push(&self, ranking: &BucketOrder) -> Result<VoterId, AggregateError> {
        self.check_domain(ranking)?;
        if self.tally.voters() >= Self::MAX_VOTERS {
            return Err(AggregateError::TooManyVoters {
                limit: Self::MAX_VOTERS,
            });
        }
        Ok(VoterId(self.next_id))
    }

    /// Checks a remove without applying it; `O(1)`.
    /// [`remove_voter`](Self::remove_voter) runs this same check first,
    /// so `Ok` here guarantees the remove succeeds.
    ///
    /// # Errors
    /// [`AggregateError::UnknownVoter`] if `id` is not live.
    pub fn check_remove(&self, id: VoterId) -> Result<(), AggregateError> {
        if self.voters.contains_key(&id.0) {
            Ok(())
        } else {
            Err(AggregateError::UnknownVoter { id: id.0 })
        }
    }

    /// Checks a replace without applying it; `O(1)`.
    /// [`replace_voter`](Self::replace_voter) runs this same check
    /// first, so `Ok` here guarantees the replace succeeds.
    ///
    /// # Errors
    /// [`AggregateError::DomainMismatch`], then
    /// [`AggregateError::UnknownVoter`].
    pub fn check_replace(&self, id: VoterId, ranking: &BucketOrder) -> Result<(), AggregateError> {
        self.check_domain(ranking)?;
        self.check_remove(id)
    }

    fn check_domain(&self, ranking: &BucketOrder) -> Result<(), AggregateError> {
        let n = self.tally.len();
        if ranking.len() == n {
            Ok(())
        } else {
            Err(AggregateError::DomainMismatch {
                expected: n,
                found: ranking.len(),
            })
        }
    }

    /// Pushes a new voter; `O(n²)`.
    ///
    /// # Errors
    /// As [`check_push`](Self::check_push); the engine is left
    /// untouched on error.
    pub fn push_voter(&mut self, ranking: BucketOrder) -> Result<VoterId, AggregateError> {
        let id = self.check_push(&ranking)?;
        let m = self.tally.voters();
        self.tally.push_voter(&ranking, &mut self.keys);
        let k = target_rank(self.policy, m + 1);
        for (e, p) in ranking.positions().iter().enumerate() {
            self.medians.insert(e, half_units(*p), k);
        }
        self.generation += 1;
        self.next_id += 1;
        self.voters.insert(id.0, ranking);
        Ok(id)
    }

    /// Removes a live voter and returns its stored ranking; `O(n²)`.
    ///
    /// # Errors
    /// As [`check_remove`](Self::check_remove) — typed, never a panic,
    /// with the engine untouched (in particular no tally cell is
    /// decremented).
    pub fn remove_voter(&mut self, id: VoterId) -> Result<BucketOrder, AggregateError> {
        self.check_remove(id)?;
        let ranking = self.voters.remove(&id.0).expect("checked live");
        let m = self.tally.voters();
        self.tally.remove_voter(&ranking, &mut self.keys);
        if m == 1 {
            self.medians.clear();
        } else {
            let k = target_rank(self.policy, m - 1);
            for (e, p) in ranking.positions().iter().enumerate() {
                self.medians.remove(e, half_units(*p), k);
            }
            self.medians.shrink_to_voters(m - 1);
        }
        self.generation += 1;
        Ok(ranking)
    }

    /// Replaces a live voter's ranking in place (the voter count is
    /// unchanged) and returns the previous ranking; `O(n²)` in one
    /// fused pass over the tally rows that retracts the old
    /// contribution and adds the new one.
    ///
    /// # Errors
    /// As [`check_replace`](Self::check_replace); the engine is
    /// untouched on error.
    pub fn replace_voter(
        &mut self,
        id: VoterId,
        ranking: BucketOrder,
    ) -> Result<BucketOrder, AggregateError> {
        self.check_replace(id, &ranking)?;
        let n = self.tally.len();
        let slot = self.voters.get_mut(&id.0).expect("checked live");
        let old = std::mem::replace(slot, ranking);
        let new = &*slot;
        let k = target_rank(self.policy, self.tally.voters());
        self.tally.replace_voter(&old, new, &mut self.keys);
        let old_pos = old.positions();
        let new_pos = new.positions();
        for e in 0..n {
            let (ov, nv) = (half_units(old_pos[e]), half_units(new_pos[e]));
            if ov != nv {
                self.medians.replace(e, ov, nv, k);
            }
        }
        self.generation += 1;
        Ok(old)
    }

    /// The maintained per-element median of the live voters' positions
    /// (equals [`median_positions`](crate::median::median_positions)
    /// over the live rankings under this engine's policy).
    ///
    /// # Errors
    /// [`AggregateError::NoInputs`] when no voter is live.
    pub fn median_positions(&self) -> Result<Vec<Pos>, AggregateError> {
        if self.tally.voters() == 0 {
            return Err(AggregateError::NoInputs);
        }
        Ok(self.medians().collect())
    }

    /// A consistent owned read view of the current epoch: the tally,
    /// the median vector, and the generation, cloned atomically (this
    /// method takes `&self`, so no edit can interleave), plus the
    /// median order built from them. Held snapshots never observe later
    /// edits.
    ///
    /// # Errors
    /// [`AggregateError::NoInputs`] when no voter is live (matching
    /// the batch builders' contract).
    pub fn snapshot(&self) -> Result<DynamicSnapshot, AggregateError> {
        self.snapshot_reusing(None)
    }

    /// [`snapshot`](DynamicProfile::snapshot), copied into the buffers
    /// of `spare` — a retired snapshot of this or any other engine —
    /// instead of freshly allocated ones. The result equals
    /// `snapshot()` exactly; only the allocations are saved. A spare of
    /// the same domain size takes the tally and medians at memcpy speed
    /// with no allocation (the `O(n)` median order is built afresh); a
    /// spare of another size is grown or trimmed to fit, so it never
    /// keeps a larger domain's memory alive. `None` is the plain
    /// `snapshot()` path.
    ///
    /// # Errors
    /// [`AggregateError::NoInputs`] when no voter is live; the spare is
    /// dropped.
    pub fn snapshot_reusing(
        &self,
        spare: Option<DynamicSnapshot>,
    ) -> Result<DynamicSnapshot, AggregateError> {
        if self.tally.voters() == 0 {
            return Err(AggregateError::NoInputs);
        }
        let mut snap = spare.unwrap_or_else(|| DynamicSnapshot {
            generation: 0,
            tally: ProfileTally::empty(0),
            medians: Vec::new(),
            order: BucketOrder::trivial(0),
        });
        snap.generation = self.generation;
        snap.tally.clone_from(&self.tally);
        snap.medians.clear();
        snap.medians.extend(self.medians());
        snap.medians.shrink_to_fit();
        snap.order = induced_ranking(&snap.medians);
        Ok(snap)
    }
}

/// An immutable consistent view of a [`DynamicProfile`] epoch: owns
/// the tally and median vector, so it is `Send + Sync` and unaffected
/// by later edits. Batch consumers run on it unchanged — the tally
/// feeds kwiksort, Schulze, the majority digraph and local
/// Kemenization exactly as a freshly built one would, and the shaping
/// methods mirror the batch aggregators in [`crate::median`].
///
/// The median order is built once, when the snapshot is taken. It ranks
/// the ids by (median, id), the order the batch projections cut, so
/// `median_order`, `top_k` and `full_ranking` copy or cut it in
/// `O(n)`; `to_type` projects the medians with `project_to_type`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicSnapshot {
    generation: u64,
    tally: ProfileTally,
    medians: Vec<Pos>,
    /// `induced_ranking(medians)`.
    order: BucketOrder,
}

impl DynamicSnapshot {
    /// The generation the snapshot was taken at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The pairwise tally at the snapshot epoch.
    pub fn tally(&self) -> &ProfileTally {
        &self.tally
    }

    /// The median-rank vector at the snapshot epoch.
    pub fn median_positions(&self) -> &[Pos] {
        &self.medians
    }

    /// The partial ranking induced by the medians (elements with equal
    /// medians tied) — [`median_order`](crate::median::median_order)
    /// of the live voters at the epoch.
    pub fn median_order(&self) -> BucketOrder {
        self.order.clone()
    }

    /// Median aggregation into a top-`k` list — [`aggregate_top_k`](
    /// crate::median::aggregate_top_k) of the live voters at the
    /// epoch, with the same Theorem 9 factor-3 guarantee.
    ///
    /// # Errors
    /// [`AggregateError::InvalidK`].
    pub fn top_k(&self, k: usize) -> Result<BucketOrder, AggregateError> {
        let n = self.medians.len();
        let top = self
            .order
            .by_rank()
            .get(..k)
            .ok_or(AggregateError::InvalidK { k, domain_size: n })?;
        Ok(BucketOrder::top_k(n, top)?)
    }

    /// Median aggregation into a full ranking — [`aggregate_full`](
    /// crate::median::aggregate_full) of the live voters at the epoch
    /// (Theorem 11): the median order with ties broken by id.
    pub fn full_ranking(&self) -> BucketOrder {
        self.order.arbitrary_full_refinement()
    }

    /// Median aggregation into a prescribed type — [`aggregate_to_type`](
    /// crate::median::aggregate_to_type) of the live voters at the
    /// epoch (Corollary 30).
    ///
    /// # Errors
    /// [`AggregateError::TypeSizeMismatch`].
    pub fn to_type(&self, alpha: &TypeSeq) -> Result<BucketOrder, AggregateError> {
        Ok(project_to_type(&self.medians, alpha)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::median::{aggregate_top_k, median_positions, median_order};
    use bucketrank_core::ElementId;

    fn keys(k: &[i64]) -> BucketOrder {
        BucketOrder::from_keys(k)
    }

    fn live_inputs(dp: &DynamicProfile) -> Vec<BucketOrder> {
        dp.voter_ids()
            .into_iter()
            .map(|id| dp.get_voter(id).unwrap().clone())
            .collect()
    }

    fn assert_matches_rebuild(dp: &DynamicProfile) {
        let inputs = live_inputs(dp);
        if inputs.is_empty() {
            assert_eq!(dp.voters(), 0);
            assert!(dp.tally().weights_x2().iter().all(|&x| x == 0));
            assert!(dp.tally().strict_counts().iter().all(|x| x == 0));
            assert!(matches!(dp.snapshot(), Err(AggregateError::NoInputs)));
            return;
        }
        let rebuilt = ProfileTally::build(&inputs).unwrap();
        assert_eq!(dp.tally(), &rebuilt);
        assert_eq!(
            dp.median_positions().unwrap(),
            median_positions(&inputs, dp.policy()).unwrap()
        );
    }

    #[test]
    fn push_remove_replace_track_the_batch_build() {
        for policy in [MedianPolicy::Lower, MedianPolicy::Upper] {
            let mut dp = DynamicProfile::new(4, policy);
            let a = dp.push_voter(keys(&[1, 2, 3, 4])).unwrap();
            assert_matches_rebuild(&dp);
            let b = dp.push_voter(keys(&[2, 2, 1, 1])).unwrap();
            assert_matches_rebuild(&dp);
            let _c = dp.push_voter(BucketOrder::trivial(4)).unwrap();
            assert_matches_rebuild(&dp);
            dp.replace_voter(b, keys(&[4, 3, 2, 1])).unwrap();
            assert_matches_rebuild(&dp);
            dp.remove_voter(a).unwrap();
            assert_matches_rebuild(&dp);
        }
    }

    #[test]
    fn drain_to_empty_and_refill() {
        let mut dp = DynamicProfile::new(3, MedianPolicy::Lower);
        let ids: Vec<VoterId> = (0..3)
            .map(|i| dp.push_voter(keys(&[i, 2, 1])).unwrap())
            .collect();
        for id in ids {
            dp.remove_voter(id).unwrap();
            assert_matches_rebuild(&dp);
        }
        assert_eq!(dp.voters(), 0);
        dp.push_voter(keys(&[1, 1, 2])).unwrap();
        assert_matches_rebuild(&dp);
    }

    #[test]
    fn unknown_voter_is_typed_and_leaves_state_untouched() {
        let mut dp = DynamicProfile::new(3, MedianPolicy::Lower);
        let id = dp.push_voter(keys(&[1, 2, 3])).unwrap();
        let before = dp.snapshot().unwrap();
        let gen = dp.generation();
        let ghost = VoterId::from_raw(id.raw() + 100);
        // The checks the edits run first answer the same, without
        // editing.
        let unknown = Err(AggregateError::UnknownVoter { id: ghost.raw() });
        assert_eq!(dp.check_remove(ghost), unknown);
        assert_eq!(dp.check_replace(ghost, &keys(&[3, 2, 1])), unknown);
        assert_eq!(dp.check_remove(id), Ok(()));
        assert_eq!(dp.check_push(&keys(&[1, 2, 3])), Ok(VoterId::from_raw(1)));
        assert_eq!(
            dp.remove_voter(ghost),
            Err(AggregateError::UnknownVoter { id: ghost.raw() })
        );
        assert_eq!(
            dp.replace_voter(ghost, keys(&[3, 2, 1])),
            Err(AggregateError::UnknownVoter { id: ghost.raw() })
        );
        // Double-remove: the second must be the typed error, not an
        // underflow.
        dp.remove_voter(id).unwrap();
        assert_eq!(
            dp.remove_voter(id),
            Err(AggregateError::UnknownVoter { id: id.raw() })
        );
        dp.push_voter(keys(&[1, 2, 3])).unwrap();
        let after = dp.snapshot().unwrap();
        assert_eq!(before.tally(), after.tally());
        assert!(dp.generation() > gen);
    }

    #[test]
    fn domain_mismatch_rejected_before_mutation() {
        let mut dp = DynamicProfile::new(3, MedianPolicy::Lower);
        let id = dp.push_voter(keys(&[1, 2, 3])).unwrap();
        let gen = dp.generation();
        assert!(matches!(
            dp.push_voter(BucketOrder::trivial(4)),
            Err(AggregateError::DomainMismatch { .. })
        ));
        assert!(matches!(
            dp.replace_voter(id, BucketOrder::trivial(2)),
            Err(AggregateError::DomainMismatch { .. })
        ));
        // Domain size is checked before liveness, by the edit and by
        // its check alike.
        let ghost = VoterId::from_raw(9);
        for checked in [
            dp.check_push(&BucketOrder::trivial(4)).map(|_| ()),
            dp.check_replace(id, &BucketOrder::trivial(2)),
            dp.check_replace(ghost, &BucketOrder::trivial(2)),
            dp.replace_voter(ghost, BucketOrder::trivial(2)).map(|_| ()),
        ] {
            assert!(matches!(
                checked,
                Err(AggregateError::DomainMismatch { .. })
            ));
        }
        assert_eq!(dp.generation(), gen);
    }

    #[test]
    fn replace_moves_exactly_the_changed_pairs() {
        let mut dp = DynamicProfile::new(4, MedianPolicy::Lower);
        let id = dp.push_voter(keys(&[1, 2, 3, 4])).unwrap();
        dp.push_voter(keys(&[1, 1, 2, 2])).unwrap();
        let cells = |dp: &DynamicProfile| dp.tally().strict_counts().iter().collect::<Vec<u32>>();
        // Identical replacement: the tally and the medians stay as they
        // were, and the edit still counts.
        let before = dp.tally().clone();
        let medians = dp.median_positions().unwrap();
        let gen = dp.generation();
        dp.replace_voter(id, keys(&[1, 2, 3, 4])).unwrap();
        assert_eq!(dp.tally(), &before);
        assert_eq!(dp.median_positions().unwrap(), medians);
        assert_eq!(dp.generation(), gen + 1);
        // Swap elements 2 and 3 only: strict(2, 3) loses the voter,
        // strict(3, 2) gains it, and no other cell moves.
        let mut expected = cells(&dp);
        expected[2 * 4 + 3] -= 1;
        expected[3 * 4 + 2] += 1;
        dp.replace_voter(id, keys(&[1, 2, 4, 3])).unwrap();
        assert_eq!(cells(&dp), expected);
        assert_matches_rebuild(&dp);
    }

    #[test]
    fn snapshot_is_isolated_and_generation_advances() {
        let mut dp = DynamicProfile::new(3, MedianPolicy::Upper);
        dp.push_voter(keys(&[1, 2, 3])).unwrap();
        let snap = dp.snapshot().unwrap();
        dp.push_voter(keys(&[3, 2, 1])).unwrap();
        assert_eq!(snap.tally().voters(), 1);
        assert_eq!(snap.median_positions(), &keys(&[1, 2, 3]).positions()[..]);
        let later = dp.snapshot().unwrap();
        assert!(later.generation() > snap.generation());
        assert_ne!(later, snap);
    }

    #[test]
    fn snapshot_shapes_match_batch_aggregators() {
        let inputs = vec![keys(&[1, 1, 2, 3]), keys(&[2, 1, 3, 3]), keys(&[1, 2, 2, 1])];
        for policy in [MedianPolicy::Lower, MedianPolicy::Upper] {
            let (dp, _) = DynamicProfile::from_profile(&inputs, policy).unwrap();
            let snap = dp.snapshot().unwrap();
            assert_eq!(snap.full_ranking(), crate::median::aggregate_full(&inputs, policy).unwrap());
            for k in 0..=4 {
                assert_eq!(snap.top_k(k).unwrap(), aggregate_top_k(&inputs, k, policy).unwrap());
            }
            assert!(snap.top_k(9).is_err());
            assert_eq!(snap.median_order(), median_order(&inputs, policy).unwrap());
            let alpha = TypeSeq::top_k(4, 2).unwrap();
            assert_eq!(
                snap.to_type(&alpha).unwrap(),
                crate::median::aggregate_to_type(&inputs, &alpha, policy).unwrap()
            );
        }
    }

    #[test]
    fn degenerate_domains() {
        // n = 0: edits succeed, matrices stay empty.
        let mut dp = DynamicProfile::new(0, MedianPolicy::Lower);
        let id = dp.push_voter(BucketOrder::trivial(0)).unwrap();
        assert_eq!(dp.median_positions().unwrap(), vec![]);
        assert_eq!(dp.snapshot().unwrap().median_positions(), &[]);
        dp.remove_voter(id).unwrap();
        // n = 1: the single element's median never moves.
        let mut dp = DynamicProfile::new(1, MedianPolicy::Upper);
        dp.push_voter(BucketOrder::trivial(1)).unwrap();
        dp.push_voter(BucketOrder::trivial(1)).unwrap();
        assert_eq!(dp.median_positions().unwrap(), vec![Pos::from_rank(1)]);
        assert_matches_rebuild(&dp);
    }

    #[test]
    fn from_profile_errors() {
        assert!(matches!(
            DynamicProfile::from_profile(&[], MedianPolicy::Lower),
            Err(AggregateError::NoInputs)
        ));
        let bad = [BucketOrder::trivial(2), BucketOrder::trivial(3)];
        assert!(matches!(
            DynamicProfile::from_profile(&bad, MedianPolicy::Lower),
            Err(AggregateError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn from_voters_restores_state_and_ids() {
        // Build an engine with a gap in the id space (remove the middle
        // voter), restore from its stored pairs, and demand the restored
        // engine is indistinguishable: same tally, medians, ids, and the
        // same id assigned to the next push.
        let mut dp = DynamicProfile::new(3, MedianPolicy::Upper);
        let _a = dp.push_voter(keys(&[1, 2, 3])).unwrap();
        let b = dp.push_voter(keys(&[3, 2, 1])).unwrap();
        let _c = dp.push_voter(keys(&[2, 2, 2])).unwrap();
        dp.remove_voter(b).unwrap();
        let pairs: Vec<(u64, BucketOrder)> = dp
            .voter_ids()
            .into_iter()
            .map(|id| (id.raw(), dp.get_voter(id).unwrap().clone()))
            .collect();
        let mut restored =
            DynamicProfile::from_voters(3, MedianPolicy::Upper, pairs.clone(), 3).unwrap();
        assert_eq!(restored.tally(), dp.tally());
        assert_eq!(
            restored.median_positions().unwrap(),
            dp.median_positions().unwrap()
        );
        assert_eq!(restored.voter_ids(), dp.voter_ids());
        assert_eq!(
            restored.push_voter(keys(&[1, 1, 1])).unwrap(),
            dp.push_voter(keys(&[1, 1, 1])).unwrap()
        );
        assert_matches_rebuild(&restored);

        // Duplicate id and id ≥ next_id are typed corruption.
        let dup = vec![pairs[0].clone(), pairs[0].clone()];
        assert!(matches!(
            DynamicProfile::from_voters(3, MedianPolicy::Upper, dup, 3),
            Err(AggregateError::InvalidVoterId { id: 0 })
        ));
        assert!(matches!(
            DynamicProfile::from_voters(3, MedianPolicy::Upper, pairs, 2),
            Err(AggregateError::InvalidVoterId { id: 2 })
        ));
    }

    #[test]
    fn median_state_is_sized_by_the_voters() {
        // 32 voters placing 512 elements on 8 levels: each element has
        // at most 32 live runs, and the capacity doubles only while
        // more than half a full row is live, so it stops at 64 slots
        // per element, where a counting array over the position grid
        // would hold 2n + 1 = 1025 cells per element.
        let n = 512;
        let mut state = 0x2004_u64;
        let mut level = || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 61) as u32
        };
        let inputs: Vec<BucketOrder> = (0..32)
            .map(|_| BucketOrder::from_u32_keys(&(0..n).map(|_| level()).collect::<Vec<_>>()))
            .collect();
        let (mut dp, ids) = DynamicProfile::from_profile(&inputs, MedianPolicy::Lower).unwrap();
        let slots = |dp: &DynamicProfile| dp.medians.runs.capacity();
        assert!(slots(&dp) <= n * 64, "{} run slots", slots(&dp));
        assert!(slots(&dp) < n * (2 * n + 1));
        assert_matches_rebuild(&dp);
        // Draining the voters releases the runs.
        for id in ids {
            dp.remove_voter(id).unwrap();
            assert!(slots(&dp) <= 4 * n * dp.voters().max(1));
        }
        assert_eq!(slots(&dp), 0);
    }

    #[test]
    fn replace_churn_compacts_the_runs_and_keeps_the_medians() {
        // Six voters over 48 elements replaced by shuffled full rankings:
        // each element sees far more distinct positions than it has live
        // runs, so its row keeps filling with emptied runs and must drop
        // them (with the median pointer shifted past them) instead of
        // growing.
        let n = 48;
        let mut state = 0x5eed_u64;
        let mut next = move |bound: usize| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 33) as usize % bound
        };
        let mut shuffled = || {
            let mut ids: Vec<ElementId> = (0..n as ElementId).collect();
            for i in (1..n).rev() {
                ids.swap(i, next(i + 1));
            }
            BucketOrder::from_permutation(&ids).unwrap()
        };
        for policy in [MedianPolicy::Lower, MedianPolicy::Upper] {
            let inputs: Vec<BucketOrder> = (0..6).map(|_| shuffled()).collect();
            let (mut dp, ids) = DynamicProfile::from_profile(&inputs, policy).unwrap();
            for step in 0..400 {
                dp.replace_voter(ids[step % ids.len()], shuffled()).unwrap();
                assert_matches_rebuild(&dp);
                assert!(dp.medians.cap < 4 * ids.len(), "capacity {}", dp.medians.cap);
            }
        }
    }

    #[test]
    fn voter_id_display_and_roundtrip() {
        let mut dp = DynamicProfile::new(2, MedianPolicy::Lower);
        let id = dp.push_voter(keys(&[1, 2])).unwrap();
        assert_eq!(VoterId::from_raw(id.raw()), id);
        assert!(id.to_string().contains(&id.raw().to_string()));
        assert_eq!(dp.voter_ids(), vec![id]);
        assert_eq!(dp.get_voter(id), Some(&keys(&[1, 2])));
    }
}
