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
//! * a generation counter and [`snapshot`](DynamicProfile::snapshot)
//!   give batch consumers (kwiksort seeding, Schulze supports, local
//!   Kemenization, the CLI) a consistent read view: a
//!   [`DynamicSnapshot`] owns its tally and median vector, so held
//!   snapshots never observe later edits, even from other threads.
//!   [`snapshot_reusing`](DynamicProfile::snapshot_reusing) copies the
//!   same view into a retired snapshot's buffers, so a republish after
//!   every edit need not allocate.
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
//! Replace is **one fused pass** over the rows: each cell moves by the
//! new contribution minus the old one (wrapping `u32` arithmetic; the
//! final cell is a live-voter count, so it is exact), and the same
//! sweep finds whether any pair in the row changed relation. It reads
//! and writes the matrix once — half the traffic of a retract pass
//! plus an add pass — and needs no separate dirty scan.
//!
//! Median ranks use one counting array per element over the half-unit
//! position grid `2..=2n` (positions of an `n`-element bucket order are
//! half-integers), plus a median pointer and a count of values strictly
//! below it. Inserting or deleting one position moves the pointer past
//! at most the populated values between the old and new median —
//! amortized `O(1)` per element per edit, `O(n)` per voter edit.
//!
//! # Dirty-row contract
//!
//! [`take_dirty`](DynamicProfile::take_dirty) drains the set of
//! elements whose tally **row**, majority relation, or median may have
//! changed since the last drain. Push and remove mark every row (the
//! voter count enters every weight and majority threshold); replace
//! marks exactly the endpoints of pairs the old and new ranking order
//! differently, in ascending row order ([`DirtyRows::rows`] lists rows
//! in the order they were first marked since the last drain) — rows
//! outside the drained set are guaranteed byte-identical, so row-local
//! consumers refresh only what an update touched:
//! [`MajorityGraph::refresh_rows`](
//! crate::condorcet::MajorityGraph::refresh_rows), [`refresh_mc4_rows`](
//! crate::markov::refresh_mc4_rows), and `medrank`'s
//! `top_k_from_medians` in the access crate re-serve from the
//! maintained median vector.
//!
//! # Crossover
//!
//! An update-then-query cycle costs `O(n²)`; rebuild-then-query costs
//! `O(m·n²)`. The dynamic path therefore wins by a factor `Θ(m)` for
//! single-voter churn and the batch build wins only when most of the
//! profile changes between queries (fewer than a handful of surviving
//! voters per rebuild). A median-only query is the exception: every
//! edit still pays the `O(n²)` tally maintenance that query never
//! reads, so at small `m` an `O(m·n log m)` median rebuild wins.
//! `BENCH_dynamic.json` (the `bench_dynamic` binary) records the
//! measured trajectory; see DESIGN.md §3.3c.

use crate::error::check_inputs;
use crate::median::MedianPolicy;
use crate::tally::ProfileTally;
use crate::AggregateError;
use bucketrank_core::consistent::{induced_ranking, project_to_type};
use bucketrank_core::{BucketOrder, ElementId, Pos, TypeSeq};
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

/// The set of elements whose tally row, majority relation, or median
/// may have changed since the last [`DynamicProfile::take_dirty`] — a
/// conservative over-approximation (see the [module docs](self) for
/// the exact contract). Rows **not** in the set are guaranteed
/// unchanged.
#[derive(Debug, Clone)]
pub struct DirtyRows {
    flags: Vec<bool>,
    rows: Vec<ElementId>,
}

impl DirtyRows {
    fn new(n: usize) -> Self {
        DirtyRows {
            flags: vec![false; n],
            rows: Vec::new(),
        }
    }

    fn mark(&mut self, e: ElementId) {
        if !self.flags[e as usize] {
            self.flags[e as usize] = true;
            self.rows.push(e);
        }
    }

    fn mark_all(&mut self) {
        for e in 0..self.flags.len() as ElementId {
            self.mark(e);
        }
    }

    /// Whether element `e`'s row is marked dirty.
    pub fn contains(&self, e: ElementId) -> bool {
        self.flags[e as usize]
    }

    /// The dirty rows, in first-marked order.
    pub fn rows(&self) -> &[ElementId] {
        &self.rows
    }

    /// Number of dirty rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row is dirty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Applies one voter's contribution to the strict-count matrix with
/// sign `+1` (`add`) or `−1`: row `a` moves by 1 at every `b` the voter
/// ranks strictly later than `a` (`bb > ba`) — the same branchless
/// compare-and-add over zipped slices as the batch build's kernel, so
/// the maintained matrix stays **byte-identical** to a fresh
/// [`ProfileTally::build`]. The self-pair is never touched, because
/// `ba > ba` is false. Subtraction cannot underflow when retracting a
/// stored contribution: every cell is a sum over live voters'
/// contributions.
fn apply_voter(strict: &mut [u32], n: usize, voter: &BucketOrder, add: bool) {
    let bof = voter.bucket_indices();
    // `max(1)`: an empty domain has no rows, but a chunk width must be
    // nonzero.
    for (row, &ba) in strict.chunks_exact_mut(n.max(1)).zip(bof) {
        if add {
            for (s, &bb) in row.iter_mut().zip(bof) {
                *s += u32::from(bb > ba);
            }
        } else {
            for (s, &bb) in row.iter_mut().zip(bof) {
                *s -= u32::from(bb > ba);
            }
        }
    }
}

/// One fused row pass of [`DynamicProfile::replace_voter`]: retracts
/// the old ranking's contribution to row `a` and adds the new one's in
/// the same sweep (`oa`/`na` = element `a`'s old/new bucket index), and
/// reports whether any pair in the row changed relation (order or tie).
/// `strict` moves by `win_new − win_old` in wrapping `u32` arithmetic —
/// the true cell after the edit is a live-voter count, so the wrapped
/// result is exact. The diagonal needs no split: an element ties itself
/// in both rankings, so its delta and its changed-relation bit are
/// zero.
#[inline]
fn replace_row(strict: &mut [u32], old: &[u32], new: &[u32], oa: u32, na: u32) -> bool {
    let mut changed = 0u32;
    for ((s, &ob), &nb) in strict.iter_mut().zip(old).zip(new) {
        let (win_old, tie_old) = (u32::from(ob > oa), u32::from(ob == oa));
        let (win_new, tie_new) = (u32::from(nb > na), u32::from(nb == na));
        *s = s.wrapping_add(win_new).wrapping_sub(win_old);
        changed |= (win_new ^ win_old) | (tie_new ^ tie_old);
    }
    changed != 0
}

/// 0-based rank of the policy's median among `m ≥ 1` sorted values.
fn target_rank(policy: MedianPolicy, m: usize) -> u32 {
    match policy {
        MedianPolicy::Lower => ((m - 1) / 2) as u32,
        MedianPolicy::Upper => (m / 2) as u32,
    }
}

/// Restores the median-pointer invariant `lt ≤ k < lt + counts[med]`
/// for one element's rank multiset, where `lt` counts stored values
/// strictly below the pointer's value and `k` is the 0-based target
/// rank of the policy's median among the `m` stored values.
fn ms_rebalance(counts: &[u32], med: &mut usize, lt: &mut u32, k: u32) {
    while *lt > k {
        // Step to the previous populated value; its occupants move
        // from "strictly below" to "at the median".
        let mut p = *med;
        loop {
            p -= 1;
            if counts[p] > 0 {
                break;
            }
        }
        *lt -= counts[p];
        *med = p;
    }
    while *lt + counts[*med] <= k {
        *lt += counts[*med];
        let mut q = *med;
        loop {
            q += 1;
            if counts[q] > 0 {
                break;
            }
        }
        *med = q;
    }
}

/// Inserts one position value `v` into an element's rank multiset
/// (`new_m` = multiset size after the insert).
fn ms_insert(counts: &mut [u32], med: &mut usize, lt: &mut u32, v: usize, new_m: usize, k: u32) {
    counts[v] += 1;
    if new_m == 1 {
        *med = v;
        *lt = 0;
        return;
    }
    if v < *med {
        *lt += 1;
    }
    ms_rebalance(counts, med, lt, k);
}

/// Deletes one position value `v` from an element's rank multiset
/// (`new_m` = multiset size after the delete; the pointer is parked
/// when the multiset empties).
fn ms_remove(counts: &mut [u32], med: &mut usize, lt: &mut u32, v: usize, new_m: usize, k: u32) {
    counts[v] -= 1;
    if new_m == 0 {
        *lt = 0;
        return;
    }
    if v < *med {
        *lt -= 1;
    } else if v == *med && counts[*med] == 0 {
        // The median's value emptied: snap to the nearest populated
        // value — above first (`lt` unchanged), else below.
        if let Some(q) = (*med + 1..counts.len()).find(|&i| counts[i] > 0) {
            *med = q;
        } else {
            let p = (0..*med)
                .rev()
                .find(|&i| counts[i] > 0)
                .expect("nonempty multiset has a populated value");
            *lt -= counts[p];
            *med = p;
        }
    }
    ms_rebalance(counts, med, lt, k);
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
    /// Counting-array width: half-unit positions of an `n`-element
    /// order lie in `2..=2n`, indexed directly.
    span: usize,
    /// `counts[e·span + v]` = live voters placing element `e` at
    /// half-unit position `v`.
    counts: Vec<u32>,
    /// Per-element median pointer (an index into the element's count
    /// row; meaningful only while voters are live).
    med: Vec<usize>,
    /// Per-element count of stored positions strictly below `med`.
    lt: Vec<u32>,
    dirty: DirtyRows,
}

impl DynamicProfile {
    /// The most voters the `u32` tally cells can hold (same bound as
    /// [`ProfileTally::build`], enforced here as a typed error instead
    /// of a panic).
    pub const MAX_VOTERS: usize = (u32::MAX / 2) as usize;

    /// An empty engine over a fixed `n`-element domain.
    pub fn new(n: usize, policy: MedianPolicy) -> Self {
        let span = 2 * n + 1;
        DynamicProfile {
            tally: ProfileTally::from_parts(n, 0, vec![0; n * n]),
            policy,
            voters: HashMap::new(),
            next_id: 0,
            generation: 0,
            span,
            counts: vec![0; n * span],
            med: vec![0; n],
            lt: vec![0; n],
            dirty: DirtyRows::new(n),
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

    /// The raw id the next successful push will be assigned. Durability
    /// layers use this to write the push's log record *before* applying
    /// it (write-ahead order) with the exact id the reply will carry.
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
        self.med.iter().map(|&v| Pos::from_half_units(v as i64))
    }

    /// Pushes a new voter; `O(n²)`.
    ///
    /// # Errors
    /// [`AggregateError::DomainMismatch`] if the ranking's domain size
    /// differs; [`AggregateError::TooManyVoters`] at the `u32` tally
    /// capacity. Either way the engine is left untouched.
    pub fn push_voter(&mut self, ranking: BucketOrder) -> Result<VoterId, AggregateError> {
        let n = self.tally.len();
        if ranking.len() != n {
            return Err(AggregateError::DomainMismatch {
                expected: n,
                found: ranking.len(),
            });
        }
        let m = self.tally.voters();
        if m >= Self::MAX_VOTERS {
            return Err(AggregateError::TooManyVoters {
                limit: Self::MAX_VOTERS,
            });
        }
        apply_voter(self.tally.parts_mut(), n, &ranking, true);
        self.tally.set_voters(m + 1);
        let k = target_rank(self.policy, m + 1);
        for (e, p) in ranking.positions().iter().enumerate() {
            let row = &mut self.counts[e * self.span..(e + 1) * self.span];
            ms_insert(
                row,
                &mut self.med[e],
                &mut self.lt[e],
                p.half_units() as usize,
                m + 1,
                k,
            );
        }
        self.generation += 1;
        self.dirty.mark_all();
        let id = self.next_id;
        self.next_id += 1;
        self.voters.insert(id, ranking);
        Ok(VoterId(id))
    }

    /// Removes a live voter and returns its stored ranking; `O(n²)`.
    ///
    /// # Errors
    /// [`AggregateError::UnknownVoter`] if `id` is not live — typed,
    /// never a panic, with the engine untouched (in particular no tally
    /// cell is decremented).
    pub fn remove_voter(&mut self, id: VoterId) -> Result<BucketOrder, AggregateError> {
        let ranking = self
            .voters
            .remove(&id.0)
            .ok_or(AggregateError::UnknownVoter { id: id.0 })?;
        let n = self.tally.len();
        let m = self.tally.voters();
        apply_voter(self.tally.parts_mut(), n, &ranking, false);
        self.tally.set_voters(m - 1);
        let k = if m > 1 {
            target_rank(self.policy, m - 1)
        } else {
            0
        };
        for (e, p) in ranking.positions().iter().enumerate() {
            let row = &mut self.counts[e * self.span..(e + 1) * self.span];
            ms_remove(
                row,
                &mut self.med[e],
                &mut self.lt[e],
                p.half_units() as usize,
                m - 1,
                k,
            );
        }
        self.generation += 1;
        self.dirty.mark_all();
        Ok(ranking)
    }

    /// Replaces a live voter's ranking in place (the voter count is
    /// unchanged) and returns the previous ranking; `O(n²)` in one
    /// fused pass over the tally rows that retracts the old
    /// contribution, adds the new one and finds the dirty rows. Marks
    /// dirty, in ascending row order, exactly the endpoints of pairs
    /// the old and new ranking order differently — an element whose
    /// median moved is always among them, because a position change
    /// implies a relation change.
    ///
    /// # Errors
    /// [`AggregateError::UnknownVoter`] /
    /// [`AggregateError::DomainMismatch`]; the engine is untouched on
    /// error.
    pub fn replace_voter(
        &mut self,
        id: VoterId,
        ranking: BucketOrder,
    ) -> Result<BucketOrder, AggregateError> {
        let n = self.tally.len();
        if ranking.len() != n {
            return Err(AggregateError::DomainMismatch {
                expected: n,
                found: ranking.len(),
            });
        }
        let slot = self
            .voters
            .get_mut(&id.0)
            .ok_or(AggregateError::UnknownVoter { id: id.0 })?;
        let old = std::mem::replace(slot, ranking);
        let new = &*slot;
        let m = self.tally.voters();
        let k_rm = if m > 1 {
            target_rank(self.policy, m - 1)
        } else {
            0
        };
        let k_ins = target_rank(self.policy, m);
        {
            let (ob, nb) = (old.bucket_indices(), new.bucket_indices());
            // `max(1)`: an empty domain has no rows, but a chunk width
            // must be nonzero.
            let rows = self.tally.parts_mut().chunks_exact_mut(n.max(1));
            for (a, row) in rows.enumerate() {
                if replace_row(row, ob, nb, ob[a], nb[a]) {
                    self.dirty.mark(a as ElementId);
                }
            }
        }
        let old_pos = old.positions();
        let new_pos = new.positions();
        for e in 0..n {
            let ov = old_pos[e].half_units() as usize;
            let nv = new_pos[e].half_units() as usize;
            if ov == nv {
                continue;
            }
            let row = &mut self.counts[e * self.span..(e + 1) * self.span];
            ms_remove(row, &mut self.med[e], &mut self.lt[e], ov, m - 1, k_rm);
            ms_insert(row, &mut self.med[e], &mut self.lt[e], nv, m, k_ins);
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

    /// The partial ranking induced by the maintained median vector
    /// (equals [`median_order`](crate::median::median_order)).
    ///
    /// # Errors
    /// [`AggregateError::NoInputs`].
    pub fn median_order(&self) -> Result<BucketOrder, AggregateError> {
        Ok(induced_ranking(&self.median_positions()?))
    }

    /// The rows dirtied since the last [`take_dirty`](Self::take_dirty)
    /// (without draining them).
    pub fn dirty_rows(&self) -> &DirtyRows {
        &self.dirty
    }

    /// Drains and returns the dirty-row set, leaving it empty; see the
    /// [module docs](self) for the contract. Taking a snapshot does
    /// **not** drain.
    pub fn take_dirty(&mut self) -> DirtyRows {
        std::mem::replace(&mut self.dirty, DirtyRows::new(self.tally.len()))
    }

    /// A consistent owned read view of the current epoch: the tally,
    /// the median vector, and the generation, cloned atomically (this
    /// method takes `&self`, so no edit can interleave). Held
    /// snapshots never observe later edits.
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
    /// `snapshot()` exactly; only the allocation is saved. A spare of
    /// the same domain size takes the copy at memcpy speed with no
    /// allocation; a spare of another size is grown or trimmed to fit,
    /// so it never keeps a larger domain's memory alive. `None` is the
    /// plain `snapshot()` path.
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
            tally: ProfileTally::from_parts(0, 0, Vec::new()),
            medians: Vec::new(),
        });
        snap.generation = self.generation;
        snap.tally.clone_from(&self.tally);
        snap.medians.clear();
        snap.medians.extend(self.medians());
        snap.medians.shrink_to_fit();
        Ok(snap)
    }
}

/// An immutable consistent view of a [`DynamicProfile`] epoch: owns
/// the tally and median vector, so it is `Send + Sync` and unaffected
/// by later edits. Batch consumers run on it unchanged — the tally
/// feeds kwiksort, Schulze, MC4 and local Kemenization exactly as a
/// freshly built one would, and the shaping methods mirror the batch
/// aggregators in [`crate::median`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicSnapshot {
    generation: u64,
    tally: ProfileTally,
    medians: Vec<Pos>,
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

    /// Consumes the snapshot, keeping only the tally.
    pub fn into_tally(self) -> ProfileTally {
        self.tally
    }

    /// The median-rank vector at the snapshot epoch.
    pub fn median_positions(&self) -> &[Pos] {
        &self.medians
    }

    /// The partial ranking induced by the medians (elements with equal
    /// medians tied) — [`median_order`](crate::median::median_order)
    /// of the live voters at the epoch.
    pub fn median_order(&self) -> BucketOrder {
        induced_ranking(&self.medians)
    }

    /// Median aggregation into a top-`k` list — [`aggregate_top_k`](
    /// crate::median::aggregate_top_k) of the live voters at the
    /// epoch, with the same Theorem 9 factor-3 guarantee.
    ///
    /// # Errors
    /// [`AggregateError::InvalidK`].
    pub fn top_k(&self, k: usize) -> Result<BucketOrder, AggregateError> {
        let alpha = TypeSeq::top_k(self.medians.len(), k)?;
        Ok(project_to_type(&self.medians, &alpha)?)
    }

    /// Median aggregation into a full ranking — [`aggregate_full`](
    /// crate::median::aggregate_full) of the live voters at the epoch
    /// (Theorem 11).
    pub fn full_ranking(&self) -> BucketOrder {
        let alpha = TypeSeq::full(self.medians.len());
        project_to_type(&self.medians, &alpha).expect("full type always matches the domain")
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
            assert!(dp.tally().strict_counts().iter().all(|&x| x == 0));
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
        assert_eq!(dp.generation(), gen);
    }

    #[test]
    fn replace_marks_exactly_the_changed_pairs() {
        let mut dp = DynamicProfile::new(4, MedianPolicy::Lower);
        let id = dp.push_voter(keys(&[1, 2, 3, 4])).unwrap();
        dp.push_voter(keys(&[1, 1, 2, 2])).unwrap();
        dp.take_dirty();
        // Identical replacement: nothing changes, nothing is dirty.
        dp.replace_voter(id, keys(&[1, 2, 3, 4])).unwrap();
        assert!(dp.dirty_rows().is_empty());
        // Swap elements 2 and 3 only: exactly that pair's endpoints.
        dp.replace_voter(id, keys(&[1, 2, 4, 3])).unwrap();
        let dirty = dp.take_dirty();
        let mut rows = dirty.rows().to_vec();
        rows.sort_unstable();
        assert_eq!(rows, vec![2, 3]);
        assert!(dirty.contains(2) && !dirty.contains(0));
        assert_eq!(dirty.len(), 2);
        // Push and remove dirty every row.
        dp.push_voter(BucketOrder::trivial(4)).unwrap();
        assert_eq!(dp.take_dirty().len(), 4);
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
    fn voter_id_display_and_roundtrip() {
        let mut dp = DynamicProfile::new(2, MedianPolicy::Lower);
        let id = dp.push_voter(keys(&[1, 2])).unwrap();
        assert_eq!(VoterId::from_raw(id.raw()), id);
        assert!(id.to_string().contains(&id.raw().to_string()));
        assert_eq!(dp.voter_ids(), vec![id]);
        assert_eq!(dp.get_voter(id), Some(&keys(&[1, 2])));
    }
}
