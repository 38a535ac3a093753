//! MinMax-objective and class-constrained rank aggregation.
//!
//! Every other aggregator in this crate minimizes the *sum* of
//! distances to the voters (the Kemeny-style objective of the source
//! paper). Fairness-style workloads instead ask for the *maximum*
//! minimized: no single voter should end up far from the consensus.
//! This module ships that objective end to end, grounded in
//! "Multiclass MinMax Rank Aggregation" (arXiv 1701.08305):
//!
//! * [`MinMaxObjective`] — the per-voter analogue of
//!   [`ProfileTally`]: an element-major
//!   bucket-index table giving O(1) pair costs, O(1)-per-voter
//!   adjacent-swap deltas, and one branch-free kernel scoring every
//!   voter against a whole candidate;
//! * [`minmax_optimal_bb`] — exact small-n solving on the crate's one
//!   exact search ([`crate::bb`]) with one lane per voter: a per-voter
//!   tied-pairs lower bound drives a max-distance prune;
//! * [`minmax_kwiksort_best_of`] / [`minmax_local_search`] /
//!   [`minmax_aggregate`] — heuristics: KwikSort restarts scored by
//!   max-cost, plus a minmax-aware local search that moves the current
//!   *argmax voter* closer instead of the sum;
//! * [`ClassConstraints`] — candidate → class labels with per-class
//!   min/max counts inside prefix windows ([`WindowRule`]), enforced by
//!   pruning in the exact search and by an EDF-style repair step in the
//!   heuristics.
//!
//! **Banded swap scoring.** An adjacent swap changes each voter's cost
//! by −2, 0 or +2. After a swap the voter at the max `M` still pays at
//! least `M − 2`, and a voter below `M − 4` pays at most `M − 3`, so it
//! cannot set the new max. The local search therefore scores each
//! candidate swap over the **band** of voters with cost ≥ `M − 4`
//! (collected once per accepted move; two or three voters on typical
//! profiles), takes the new total as the old one plus the tally's O(1)
//! sum delta, and runs the O(m) per-voter update only on the accepted
//! swap. It picks exactly the moves a full O(m) rescan per candidate
//! would.
//!
//! The per-voter distance is `Kprof ×2` (the tie-aware Kendall profile
//! metric of the source paper, doubled so ties cost an integral 1), so
//! minmax optima are directly comparable with every sum-objective
//! aggregator in the crate.

use crate::bb::{self, BbStats, Lanes};
use crate::error::check_inputs;
use crate::kwiksort::kwiksort_with_tally;
use crate::tally::ProfileTally;
use crate::AggregateError;
use bucketrank_core::{BucketOrder, ElementId};

/// Hard cap on the domain size the exact solver accepts (the minmax
/// bound is weaker than the Kemeny pairwise bound, so the searchable
/// range is smaller than [`crate::bb::MAX_BB_N`]).
pub const MAX_MINMAX_N: usize = 16;

/// The seed the server's `MinMaxAgg` opcode (and its test mirrors) use,
/// so replies are byte-predictable.
pub const DEFAULT_SEED: u64 = 0x4D4D_5831;

/// KwikSort restarts used by [`minmax_aggregate`].
pub const DEFAULT_RESTARTS: usize = 8;

// ---------------------------------------------------------------------
// Objective
// ---------------------------------------------------------------------

/// The minmax objective over a fixed profile: per-voter bucket-index
/// maps supporting O(1) pair costs, O(1)-per-voter adjacent-swap
/// deltas, and O(n²·m) full rescans of every voter at once.
///
/// Where [`ProfileTally`] sums all voters into one `n×n` weight matrix
/// (enough for any Σ-objective), the max objective needs every voter's
/// distance individually; this is the same precompute-once idea with
/// one lane per voter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinMaxObjective {
    n: usize,
    m: usize,
    /// Element-major `n × m`: `bof[e*m + v]` = voter `v`'s bucket index
    /// of element `e`, so one swap's per-voter deltas and one pair's
    /// per-voter costs read two contiguous rows.
    bof: Vec<u32>,
}

/// `sign(x − y)` as −1, 0 or 1, without a branch.
#[inline]
fn sign(x: u32, y: u32) -> i32 {
    i32::from(x > y) - i32::from(x < y)
}

/// `rank[e]` = position of `e` in `perm`.
fn ranks_of(perm: &[ElementId]) -> Vec<u32> {
    let mut rank = vec![0u32; perm.len()];
    for (i, &e) in perm.iter().enumerate() {
        rank[e as usize] = i as u32;
    }
    rank
}

impl MinMaxObjective {
    /// Builds the objective from a profile.
    ///
    /// # Errors
    /// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
    pub fn build(inputs: &[BucketOrder]) -> Result<Self, AggregateError> {
        let n = check_inputs(inputs)?;
        let m = inputs.len();
        let mut bof = vec![0u32; n * m];
        for (v, r) in inputs.iter().enumerate() {
            for (e, &b) in r.bucket_indices().iter().enumerate() {
                bof[e * m + v] = b;
            }
        }
        Ok(MinMaxObjective { n, m, bof })
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of voters.
    pub fn voters(&self) -> usize {
        self.m
    }

    /// Voter `voter`'s bucket index of element `e`.
    #[inline]
    pub fn bucket_of(&self, voter: usize, e: ElementId) -> u32 {
        self.bof[e as usize * self.m + voter]
    }

    /// Every voter's bucket index of element `e`.
    #[inline]
    fn row(&self, e: ElementId) -> &[u32] {
        let e = e as usize;
        &self.bof[e * self.m..(e + 1) * self.m]
    }

    /// Cost ×2 voter `voter` pays for ranking `ahead` strictly before
    /// `behind`: 2 if the voter prefers `behind`, 1 if tied, 0 if the
    /// voter agrees.
    #[inline]
    pub fn pair_cost_x2(&self, voter: usize, ahead: ElementId, behind: ElementId) -> u64 {
        (1 + sign(self.bucket_of(voter, ahead), self.bucket_of(voter, behind))) as u64
    }

    /// Change in voter `voter`'s cost ×2 when an adjacent pair currently
    /// ordered `ahead` before `behind` is swapped: +2 if the voter
    /// prefers `ahead`, 0 if tied, −2 if it prefers `behind`. O(1);
    /// heuristics use this instead of rescanning the profile.
    #[inline]
    pub fn swap_delta_x2(&self, voter: usize, ahead: ElementId, behind: ElementId) -> i64 {
        let (ahead, behind) = (self.bucket_of(voter, ahead), self.bucket_of(voter, behind));
        2 * i64::from(sign(behind, ahead))
    }

    /// The voter-cost kernel: every voter's `Kprof ×2` distance to the
    /// candidate that puts element `e` at rank `rank[e]` (equal ranks
    /// tie). A pair costs `|sign(rank_a − rank_b) − sign(voter_a −
    /// voter_b)|` — 0 when both order it alike, 1 when exactly one ties
    /// it, 2 when they disagree — summed without a branch over the two
    /// contiguous voter rows of each element pair.
    fn costs_of_ranks(&self, rank: &[u32]) -> Vec<u64> {
        let mut costs = vec![0u64; self.m];
        // Per-`a` u32 partials (≤ 2n each) keep the inner loop narrow.
        let mut part = vec![0u32; self.m];
        for a in 0..self.n {
            let ra = self.row(a as ElementId);
            for b in a + 1..self.n {
                let cs = sign(rank[a], rank[b]);
                let rb = self.row(b as ElementId);
                for ((p, &xa), &xb) in part.iter_mut().zip(ra).zip(rb) {
                    *p += (cs - sign(xa, xb)).unsigned_abs();
                }
            }
            for (c, p) in costs.iter_mut().zip(&mut part) {
                *c += u64::from(std::mem::take(p));
            }
        }
        costs
    }

    /// Every voter's `Kprof ×2` distance to `candidate`.
    ///
    /// # Errors
    /// [`AggregateError::DomainMismatch`] if `candidate` has a
    /// different domain size.
    pub fn costs_x2(&self, candidate: &BucketOrder) -> Result<Vec<u64>, AggregateError> {
        if candidate.len() != self.n {
            return Err(AggregateError::DomainMismatch {
                expected: self.n,
                found: candidate.len(),
            });
        }
        Ok(self.costs_of_ranks(candidate.bucket_indices()))
    }

    /// The objective value: the maximum voter distance to `candidate`.
    ///
    /// # Errors
    /// As [`MinMaxObjective::costs_x2`].
    pub fn max_cost_x2(&self, candidate: &BucketOrder) -> Result<u64, AggregateError> {
        Ok(self.costs_x2(candidate)?.into_iter().max().unwrap_or(0))
    }
}

// ---------------------------------------------------------------------
// Class constraints
// ---------------------------------------------------------------------

/// One prefix-window rule: among the first `window` positions of the
/// output, the number of candidates labeled `class` must lie in
/// `min..=max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowRule {
    /// Prefix length the rule applies to (`1..=n`).
    pub window: u32,
    /// The class label the rule counts.
    pub class: u32,
    /// Minimum occurrences of `class` within the window.
    pub min: u32,
    /// Maximum occurrences of `class` within the window.
    pub max: u32,
}

/// Candidate class labels plus a set of [`WindowRule`]s, validated at
/// construction and enforced by the constrained solvers.
///
/// Because every window is a prefix, feasibility and repair reduce to
/// scheduling unit jobs with release times (from `max` caps) and
/// deadlines (from `min` floors), where earliest-deadline-first is
/// exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassConstraints {
    labels: Vec<u32>,
    rules: Vec<WindowRule>,
    /// Sorted distinct labels; `dense[e]` indexes into it.
    classes: Vec<u32>,
    dense: Vec<u32>,
    totals: Vec<u32>,
    /// Per dense class, `(release, deadline)` of its k-th placement:
    /// the k-th candidate of the class must land at position
    /// `release ..= deadline-1`.
    jobs: Vec<Vec<(u32, u32)>>,
    /// A rule demands more of a class than exists, or some placement
    /// has `release ≥ deadline`: no permutation can satisfy the set.
    impossible: bool,
}

impl ClassConstraints {
    /// Validates labels + rules. The domain size is `labels.len()`.
    ///
    /// # Errors
    /// [`AggregateError::InvalidConstraintWindow`] /
    /// [`AggregateError::InvalidConstraintBounds`] /
    /// [`AggregateError::UnknownClass`] on a malformed rule.
    /// (Well-formed but unsatisfiable rule sets construct fine; the
    /// solvers report [`AggregateError::InfeasibleConstraints`].)
    pub fn new(labels: Vec<u32>, rules: Vec<WindowRule>) -> Result<Self, AggregateError> {
        let n = labels.len();
        let mut classes = labels.clone();
        classes.sort_unstable();
        classes.dedup();
        for (index, r) in rules.iter().enumerate() {
            if r.window == 0 || r.window as usize > n {
                return Err(AggregateError::InvalidConstraintWindow {
                    index,
                    window: r.window as usize,
                    domain_size: n,
                });
            }
            if r.min > r.max || r.max > r.window {
                return Err(AggregateError::InvalidConstraintBounds {
                    index,
                    min: r.min as usize,
                    max: r.max as usize,
                    window: r.window as usize,
                });
            }
            if classes.binary_search(&r.class).is_err() {
                return Err(AggregateError::UnknownClass {
                    index,
                    class: r.class,
                });
            }
        }
        let dense: Vec<u32> = labels
            .iter()
            .map(|l| classes.binary_search(l).expect("label present") as u32)
            .collect();
        let mut totals = vec![0u32; classes.len()];
        for &d in &dense {
            totals[d as usize] += 1;
        }
        let mut impossible = false;
        let mut jobs = Vec::with_capacity(classes.len());
        for (ci, &cls) in classes.iter().enumerate() {
            let t = totals[ci];
            let mut v = Vec::with_capacity(t as usize);
            for k in 1..=t {
                let mut release = 0u32;
                let mut deadline = n as u32;
                for r in &rules {
                    if r.class != cls {
                        continue;
                    }
                    if r.max < k {
                        release = release.max(r.window);
                    }
                    if r.min >= k {
                        deadline = deadline.min(r.window);
                    }
                }
                if release >= deadline {
                    impossible = true;
                }
                v.push((release, deadline));
            }
            // A floor demanding more of the class than exists.
            if rules.iter().any(|r| r.class == cls && r.min > t) {
                impossible = true;
            }
            jobs.push(v);
        }
        Ok(ClassConstraints {
            labels,
            rules,
            classes,
            dense,
            totals,
            jobs,
            impossible,
        })
    }

    /// The per-candidate class labels (length = domain size).
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The validated rules, in construction order.
    pub fn rules(&self) -> &[WindowRule] {
        &self.rules
    }

    /// Domain size the constraints describe.
    pub fn domain_size(&self) -> usize {
        self.labels.len()
    }

    /// `true` iff at least one permutation satisfies every rule
    /// (earliest-deadline-first simulation — exact for prefix windows).
    pub fn is_feasible(&self) -> bool {
        self.feasible_from(0, &vec![0u32; self.classes.len()])
    }

    fn dense_of_class(&self, class: u32) -> usize {
        self.classes.binary_search(&class).expect("validated class")
    }

    /// Does `order` (a full ranking) satisfy every rule?
    ///
    /// # Errors
    /// [`AggregateError::DomainMismatch`] on a size mismatch,
    /// [`AggregateError::NotFullRanking`] if `order` has ties.
    pub fn satisfied(&self, order: &BucketOrder) -> Result<bool, AggregateError> {
        if order.len() != self.labels.len() {
            return Err(AggregateError::DomainMismatch {
                expected: self.labels.len(),
                found: order.len(),
            });
        }
        let perm = order
            .as_permutation()
            .ok_or(AggregateError::NotFullRanking)?;
        Ok(self.check_perm(&perm))
    }

    fn check_perm(&self, perm: &[ElementId]) -> bool {
        let mut placed = vec![0u32; self.classes.len()];
        for (pos, &e) in perm.iter().enumerate() {
            placed[self.dense[e as usize] as usize] += 1;
            let w = (pos + 1) as u32;
            for r in &self.rules {
                if r.window == w {
                    let cnt = placed[self.dense_of_class(r.class)];
                    if cnt < r.min || cnt > r.max {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Earliest-deadline-first feasibility: can positions `t0..n` be
    /// filled given `placed` candidates of each class already sit in
    /// the prefix? Exact for unit jobs with release times + deadlines.
    fn feasible_from(&self, t0: usize, placed: &[u32]) -> bool {
        if self.impossible {
            return false;
        }
        let n = self.labels.len();
        let mut heads: Vec<u32> = placed.to_vec();
        for t in t0..n {
            let mut best: Option<(u32, usize)> = None;
            for (c, jobs) in self.jobs.iter().enumerate() {
                let h = heads[c] as usize;
                if h >= jobs.len() {
                    continue;
                }
                let (release, deadline) = jobs[h];
                if release as usize > t {
                    continue;
                }
                if best.is_none_or(|(bd, _)| deadline < bd) {
                    best = Some((deadline, c));
                }
            }
            match best {
                // Every candidate of every class with work left is
                // cap-blocked: this slot can never be filled.
                None => return false,
                Some((deadline, c)) => {
                    if deadline as usize <= t {
                        return false;
                    }
                    heads[c] += 1;
                }
            }
        }
        true
    }

    /// Number of distinct classes (the exact search's per-class
    /// prefix counts are this long).
    pub(crate) fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Dense class index of candidate `e`.
    pub(crate) fn class_index(&self, e: usize) -> usize {
        self.dense[e] as usize
    }

    /// Exact-search hook: would placing `e` at position `depth` bust a
    /// cap whose window is still open, given the prefix's per-class
    /// counts `placed`?
    pub(crate) fn cap_blocked(&self, placed: &[u32], e: usize, depth: usize) -> bool {
        let cls = self.labels[e];
        let placed = placed[self.dense[e] as usize];
        self.rules
            .iter()
            .any(|r| r.class == cls && r.window as usize > depth && placed + 1 > r.max)
    }

    /// Exact-search hook, after extending the prefix to length `w`:
    /// every rule whose window just closed must hold exactly, and every
    /// still-open floor must remain reachable in its remaining slots.
    pub(crate) fn windows_ok(&self, placed: &[u32], w: usize) -> bool {
        for r in &self.rules {
            let placed = placed[self.dense_of_class(r.class)];
            let rw = r.window as usize;
            if rw == w {
                if placed < r.min || placed > r.max {
                    return false;
                }
            } else if rw > w && (r.min.saturating_sub(placed)) as usize > rw - w {
                return false;
            }
        }
        true
    }

    /// Reorders `order` (a full ranking) into the feasible permutation
    /// closest to it in the greedy sense: positions are filled
    /// left-to-right with the earliest `order`-candidate whose
    /// placement keeps the remaining schedule feasible. Already-feasible
    /// inputs are returned unchanged.
    ///
    /// # Errors
    /// [`AggregateError::InfeasibleConstraints`] when no permutation
    /// satisfies the rules; also the errors of
    /// [`ClassConstraints::satisfied`].
    pub fn repair(&self, order: &BucketOrder) -> Result<BucketOrder, AggregateError> {
        let n = self.labels.len();
        if order.len() != n {
            return Err(AggregateError::DomainMismatch {
                expected: n,
                found: order.len(),
            });
        }
        let perm = order
            .as_permutation()
            .ok_or(AggregateError::NotFullRanking)?;
        if self.check_perm(&perm) {
            return Ok(order.clone());
        }
        let mut placed = vec![0u32; self.classes.len()];
        if !self.feasible_from(0, &placed) {
            return Err(AggregateError::InfeasibleConstraints);
        }
        let mut used = vec![false; n];
        let mut out: Vec<ElementId> = Vec::with_capacity(n);
        for t in 0..n {
            let mut chosen = None;
            for &e in &perm {
                if used[e as usize] {
                    continue;
                }
                let c = self.dense[e as usize] as usize;
                let (release, _) = self.jobs[c][placed[c] as usize];
                if release as usize > t {
                    continue;
                }
                placed[c] += 1;
                if self.feasible_from(t + 1, &placed) {
                    chosen = Some(e);
                    break;
                }
                placed[c] -= 1;
            }
            match chosen {
                Some(e) => {
                    used[e as usize] = true;
                    out.push(e);
                }
                // Unreachable when feasible_from(0) held, but keep the
                // typed escape rather than trusting the proof.
                None => return Err(AggregateError::InfeasibleConstraints),
            }
        }
        Ok(BucketOrder::from_permutation(&out).expect("repair emits a permutation"))
    }
}

// ---------------------------------------------------------------------
// Exact solver
// ---------------------------------------------------------------------

/// Exact minmax aggregation (optimal **full ranking** minimizing the
/// maximum per-voter `Kprof ×2` distance) by branch and bound, with
/// optional [`ClassConstraints`] pruned in-search. Returns
/// `(optimum, max_cost_x2, stats)`.
///
/// Runs the [`crate::bb`] prefix search with one lane per voter. Each
/// voter's distance is at least its cost on the fixed prefix plus the
/// number of still-unordered pairs it ties (a tied pair costs 1
/// whichever way the output orders it); a node dies when the max over
/// voters of that bound reaches the incumbent. Warm-started by
/// [`minmax_aggregate`].
///
/// # Errors
/// [`AggregateError::DomainTooLarge`] beyond [`MAX_MINMAX_N`];
/// [`AggregateError::InfeasibleConstraints`] when no permutation
/// satisfies the rules; [`AggregateError::DomainMismatch`] when the
/// constraint labels don't cover the profile's domain (the empty
/// domain included); plus the errors of [`MinMaxObjective::build`].
pub fn minmax_optimal_bb(
    inputs: &[BucketOrder],
    constraints: Option<&ClassConstraints>,
) -> Result<(BucketOrder, u64, BbStats), AggregateError> {
    bb::solve(inputs, MAX_MINMAX_N, constraints, |n| {
        let (warm, warm_cost) = minmax_aggregate(inputs, constraints, DEFAULT_SEED)?;
        let obj = MinMaxObjective::build(inputs)?;
        let lanes = Lanes::<u32>::new(n, obj.m, |v, x, y| obj.pair_cost_x2(v, x, y) as u32);
        Ok((warm, warm_cost, lanes))
    })
}

// ---------------------------------------------------------------------
// Heuristics
// ---------------------------------------------------------------------

/// KwikSort restarts scored by the **max**-cost objective (instead of
/// the Kemeny sum of [`crate::kwiksort::kwiksort_best_of`]), each
/// repaired to feasibility first when constraints are given. Returns
/// the best candidate and its max cost ×2.
///
/// # Errors
/// As [`minmax_aggregate`].
pub fn minmax_kwiksort_best_of(
    inputs: &[BucketOrder],
    seed: u64,
    restarts: usize,
    constraints: Option<&ClassConstraints>,
) -> Result<(BucketOrder, u64), AggregateError> {
    let n = check_inputs(inputs)?;
    check_constraints(n, constraints)?;
    let tally = ProfileTally::build(inputs)?;
    let obj = MinMaxObjective::build(inputs)?;
    let mut best: Option<(BucketOrder, u64)> = None;
    for i in 0..restarts.max(1) {
        let mut cand = kwiksort_with_tally(&tally, seed.wrapping_add(i as u64))?;
        if let Some(cc) = constraints {
            cand = cc.repair(&cand)?;
        }
        let c = obj.max_cost_x2(&cand)?;
        if best.as_ref().is_none_or(|&(_, bc)| c < bc) {
            best = Some((cand, c));
        }
    }
    Ok(best.expect("restarts ≥ 1"))
}

/// Minmax-aware local search: repeatedly finds the current **argmax
/// voter** and applies the adjacent swap that most reduces the
/// objective `(max cost, total cost)` lexicographically, preferring
/// swaps that move the argmax voter closer; falls back to any improving
/// swap when the argmax voter has none. Swaps that would violate a
/// constraint window are never taken, so feasibility is preserved.
/// Returns the local optimum and its max cost ×2.
///
/// # Errors
/// [`AggregateError::NotFullRanking`] if `candidate` has ties; plus the
/// errors of [`minmax_aggregate`]. An infeasible `candidate` is
/// repaired first.
pub fn minmax_local_search(
    candidate: &BucketOrder,
    inputs: &[BucketOrder],
    constraints: Option<&ClassConstraints>,
) -> Result<(BucketOrder, u64), AggregateError> {
    let n = check_inputs(inputs)?;
    check_constraints(n, constraints)?;
    if candidate.len() != n {
        return Err(AggregateError::DomainMismatch {
            expected: n,
            found: candidate.len(),
        });
    }
    let start = match constraints {
        Some(cc) => cc.repair(candidate)?,
        None => candidate.clone(),
    };
    let perm = start
        .as_permutation()
        .ok_or(AggregateError::NotFullRanking)?;
    let tally = ProfileTally::build(inputs)?;
    let obj = MinMaxObjective::build(inputs)?;
    let (out, cost) = local_search_perm(&obj, &tally, constraints, perm);
    Ok((
        BucketOrder::from_permutation(&out).expect("local search permutes"),
        cost,
    ))
}

/// The full heuristic pipeline the server's `MinMaxAgg` opcode runs:
/// [`DEFAULT_RESTARTS`] KwikSort restarts plus up to 16 refined-input
/// seeds (each voter's own ranking with ties broken by id — by the
/// triangle inequality the best of these is within 3× of the optimum),
/// every candidate repaired and locally searched, first best max-cost
/// wins. Deterministic given `seed` (the wire handler fixes
/// [`DEFAULT_SEED`]).
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`] on
/// a bad profile, [`AggregateError::DomainMismatch`] when constraint
/// labels don't cover the domain,
/// [`AggregateError::InfeasibleConstraints`] when no permutation
/// satisfies the rules.
pub fn minmax_aggregate(
    inputs: &[BucketOrder],
    constraints: Option<&ClassConstraints>,
    seed: u64,
) -> Result<(BucketOrder, u64), AggregateError> {
    let n = check_inputs(inputs)?;
    check_feasible(n, constraints)?;
    if n == 0 {
        return Ok((BucketOrder::trivial(0), 0));
    }
    let tally = ProfileTally::build(inputs)?;
    let obj = MinMaxObjective::build(inputs)?;
    let m = inputs.len();

    let mut seeds: Vec<Vec<ElementId>> = Vec::new();
    for i in 0..DEFAULT_RESTARTS {
        let cand = kwiksort_with_tally(&tally, seed.wrapping_add(i as u64))?;
        seeds.push(cand.as_permutation().expect("kwiksort emits full"));
    }
    // Refined inputs: up to 16 voters, evenly spaced so an outlier
    // anywhere in the profile stays represented.
    let take = m.min(16);
    for i in 0..take {
        let v = i * m / take;
        let mut perm: Vec<ElementId> = (0..n as ElementId).collect();
        perm.sort_by_key(|&e| (obj.bucket_of(v, e), e));
        seeds.push(perm);
    }

    let mut best: Option<(Vec<ElementId>, u64)> = None;
    for perm in seeds {
        let perm = match constraints {
            Some(cc) => {
                let order = BucketOrder::from_permutation(&perm).expect("seed permutes");
                cc.repair(&order)?
                    .as_permutation()
                    .expect("repair emits full")
            }
            None => perm,
        };
        let (out, cost) = local_search_perm(&obj, &tally, constraints, perm);
        if best.as_ref().is_none_or(|&(_, bc)| cost < bc) {
            best = Some((out, cost));
        }
    }
    let (perm, cost) = best.expect("at least one seed");
    Ok((
        BucketOrder::from_permutation(&perm).expect("best seed permutes"),
        cost,
    ))
}

fn check_constraints(
    n: usize,
    constraints: Option<&ClassConstraints>,
) -> Result<(), AggregateError> {
    if let Some(cc) = constraints {
        if cc.labels.len() != n {
            return Err(AggregateError::DomainMismatch {
                expected: n,
                found: cc.labels.len(),
            });
        }
    }
    Ok(())
}

/// [`check_constraints`], then feasibility: the gate of
/// [`minmax_aggregate`] and of both exact solvers, run before any
/// empty-domain shortcut.
pub(crate) fn check_feasible(
    n: usize,
    constraints: Option<&ClassConstraints>,
) -> Result<(), AggregateError> {
    check_constraints(n, constraints)?;
    if constraints.is_some_and(|cc| !cc.is_feasible()) {
        return Err(AggregateError::InfeasibleConstraints);
    }
    Ok(())
}

/// The hill climb shared by the public heuristics. `perm` must already
/// be feasible; `(max, total)` strictly decreases every accepted move,
/// so termination is immediate from well-ordering.
///
/// Each round finds the current argmax voter (the first at the max) and
/// takes the adjacent swap with the lexicographically smallest
/// `(new max, new total)` below `(max, total)`, ties to the leftmost:
/// pass 1 looks only at swaps that move the argmax voter closer, pass 2
/// at every swap when pass 1 finds none. A swap changes each voter's
/// cost by −2, 0 or +2, so the new max is at least `max − 2` (the
/// argmax voter's floor) and no voter below `max − 4` can reach it:
/// candidates are scored over that **band** only, the new total is the
/// tally's O(1) sum delta, and the O(m) cost update runs once, on the
/// accepted swap.
fn local_search_perm(
    obj: &MinMaxObjective,
    tally: &ProfileTally,
    cons: Option<&ClassConstraints>,
    mut perm: Vec<ElementId>,
) -> (Vec<ElementId>, u64) {
    let n = obj.n;
    let mut costs = obj.costs_of_ranks(&ranks_of(&perm));
    let mut cur_max = costs.iter().copied().max().unwrap_or(0);
    if n < 2 {
        return (perm, cur_max);
    }
    let mut cur_total: u64 = costs.iter().sum();
    let mut band: Vec<usize> = Vec::new();
    loop {
        band.clear();
        band.extend((0..obj.m).filter(|&v| costs[v] + 4 >= cur_max));
        let argmax = *band
            .iter()
            .find(|&&v| costs[v] == cur_max)
            .expect("the max sits in the band");
        // Score one adjacent swap: the band's new max and the tally's
        // new total.
        let eval = |p: usize| -> (u64, u64) {
            let (a, b) = (perm[p], perm[p + 1]);
            let (ra, rb) = (obj.row(a), obj.row(b));
            let new_max = band
                .iter()
                .map(|&v| costs[v].wrapping_add_signed(i64::from(2 * sign(rb[v], ra[v]))))
                .max()
                .unwrap_or(0);
            let new_total = cur_total.wrapping_add_signed(tally.swap_delta_x2(a, b));
            (new_max, new_total)
        };
        let mut best_move: Option<(u64, u64, usize)> = None;
        // Pass 1: only swaps that move the argmax voter closer.
        for p in 0..n - 1 {
            if obj.swap_delta_x2(argmax, perm[p], perm[p + 1]) >= 0 || !swap_allowed(cons, &perm, p)
            {
                continue;
            }
            let (nm, nt) = eval(p);
            if (nm, nt) < (cur_max, cur_total)
                && best_move.is_none_or(|(bm, bt, _)| (nm, nt) < (bm, bt))
            {
                best_move = Some((nm, nt, p));
            }
        }
        // Pass 2: any improving swap, when the argmax voter offers none.
        if best_move.is_none() {
            for p in 0..n - 1 {
                if !swap_allowed(cons, &perm, p) {
                    continue;
                }
                let (nm, nt) = eval(p);
                if (nm, nt) < (cur_max, cur_total)
                    && best_move.is_none_or(|(bm, bt, _)| (nm, nt) < (bm, bt))
                {
                    best_move = Some((nm, nt, p));
                }
            }
        }
        let Some((nm, nt, p)) = best_move else { break };
        let (a, b) = (perm[p], perm[p + 1]);
        for ((c, &xa), &xb) in costs.iter_mut().zip(obj.row(a)).zip(obj.row(b)) {
            *c = c.wrapping_add_signed(i64::from(2 * sign(xb, xa)));
        }
        perm.swap(p, p + 1);
        (cur_max, cur_total) = (nm, nt);
    }
    (perm, cur_max)
}

/// An adjacent swap at `(p, p+1)` only changes class counts in the
/// prefix of length `p+1`; check exactly the rules whose window closes
/// there.
fn swap_allowed(cons: Option<&ClassConstraints>, perm: &[ElementId], p: usize) -> bool {
    let Some(cc) = cons else { return true };
    let (a, b) = (perm[p], perm[p + 1]);
    if cc.dense[a as usize] == cc.dense[b as usize] {
        return true;
    }
    let w = (p + 1) as u32;
    for r in &cc.rules {
        if r.window != w {
            continue;
        }
        let cd = cc.dense_of_class(r.class) as u32;
        let mut cnt = perm[..p]
            .iter()
            .filter(|&&e| cc.dense[e as usize] == cd)
            .count() as u32;
        if cc.dense[b as usize] == cd {
            cnt += 1;
        }
        if cnt < r.min || cnt > r.max {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{total_cost_x2, AggMetric};

    fn keys(k: &[i64]) -> BucketOrder {
        BucketOrder::from_keys(k)
    }

    /// Brute-force minmax optimum by permutation enumeration.
    fn brute_force(
        inputs: &[BucketOrder],
        cons: Option<&ClassConstraints>,
    ) -> Option<(Vec<ElementId>, u64)> {
        let n = inputs[0].len();
        let obj = MinMaxObjective::build(inputs).unwrap();
        let mut best: Option<(Vec<ElementId>, u64)> = None;
        let mut perm: Vec<ElementId> = (0..n as ElementId).collect();
        permute(&mut perm, 0, &mut |p| {
            if let Some(cc) = cons {
                if !cc.check_perm(p) {
                    return;
                }
            }
            let c = obj.costs_of_ranks(&ranks_of(p)).into_iter().max();
            let c = c.unwrap_or(0);
            if best.as_ref().is_none_or(|&(_, bc)| c < bc) {
                best = Some((p.to_vec(), c));
            }
        });
        best
    }

    fn permute(perm: &mut Vec<ElementId>, k: usize, f: &mut impl FnMut(&[ElementId])) {
        if k == perm.len() {
            f(perm);
            return;
        }
        for i in k..perm.len() {
            perm.swap(k, i);
            permute(perm, k + 1, f);
            perm.swap(k, i);
        }
    }

    fn lcg_profile(seed: u64, n: usize, m: usize, levels: u64) -> Vec<BucketOrder> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(5);
        let mut next = move |md: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % md
        };
        (0..m)
            .map(|_| {
                let ks: Vec<i64> = (0..n).map(|_| next(levels) as i64).collect();
                BucketOrder::from_keys(&ks)
            })
            .collect()
    }

    #[test]
    fn objective_matches_cost_module_per_voter() {
        let inputs = lcg_profile(1, 6, 5, 4);
        let obj = MinMaxObjective::build(&inputs).unwrap();
        let cand = keys(&[2, 0, 1, 3, 5, 4]);
        let costs = obj.costs_x2(&cand).unwrap();
        for (v, s) in inputs.iter().enumerate() {
            let direct =
                total_cost_x2(AggMetric::KProf, &cand, std::slice::from_ref(s)).unwrap();
            assert_eq!(costs[v], direct, "voter {v}");
        }
    }

    #[test]
    fn swap_delta_agrees_with_rescan() {
        let inputs = lcg_profile(2, 7, 4, 3);
        let obj = MinMaxObjective::build(&inputs).unwrap();
        let mut perm: Vec<ElementId> = vec![3, 1, 6, 0, 2, 5, 4];
        for p in 0..perm.len() - 1 {
            let before = obj.costs_of_ranks(&ranks_of(&perm));
            let (a, b) = (perm[p], perm[p + 1]);
            perm.swap(p, p + 1);
            let after = obj.costs_of_ranks(&ranks_of(&perm));
            for (v, (&prior, &after)) in before.iter().zip(&after).enumerate() {
                assert_eq!(
                    after as i64 - prior as i64,
                    obj.swap_delta_x2(v, a, b),
                    "voter {v} swap {p}"
                );
            }
        }
    }

    #[test]
    fn exact_matches_brute_force_unconstrained() {
        for seed in 0..8u64 {
            let n = 4 + (seed % 3) as usize;
            let inputs = lcg_profile(seed, n, 4, 3);
            let (_, bf) = brute_force(&inputs, None).unwrap();
            let (order, cost, _) = minmax_optimal_bb(&inputs, None).unwrap();
            assert_eq!(cost, bf, "seed {seed}");
            let obj = MinMaxObjective::build(&inputs).unwrap();
            assert_eq!(obj.max_cost_x2(&order).unwrap(), cost);
        }
    }

    #[test]
    fn unanimous_profile_has_zero_minmax() {
        let s = BucketOrder::from_permutation(&[2, 0, 3, 1]).unwrap();
        let inputs = vec![s.clone(); 5];
        let (order, cost, _) = minmax_optimal_bb(&inputs, None).unwrap();
        assert_eq!(cost, 0);
        assert_eq!(order, s);
    }

    #[test]
    fn constraint_validation_is_typed() {
        let labels = vec![0u32, 0, 1, 1];
        let rule = |window, class, min, max| WindowRule {
            window,
            class,
            min,
            max,
        };
        assert!(matches!(
            ClassConstraints::new(labels.clone(), vec![rule(0, 0, 0, 0)]),
            Err(AggregateError::InvalidConstraintWindow { index: 0, .. })
        ));
        assert!(matches!(
            ClassConstraints::new(labels.clone(), vec![rule(5, 0, 0, 1)]),
            Err(AggregateError::InvalidConstraintWindow { .. })
        ));
        assert!(matches!(
            ClassConstraints::new(labels.clone(), vec![rule(2, 0, 2, 1)]),
            Err(AggregateError::InvalidConstraintBounds { .. })
        ));
        assert!(matches!(
            ClassConstraints::new(labels.clone(), vec![rule(2, 0, 1, 3)]),
            Err(AggregateError::InvalidConstraintBounds { .. })
        ));
        assert!(matches!(
            ClassConstraints::new(labels, vec![rule(2, 9, 0, 1)]),
            Err(AggregateError::UnknownClass { index: 0, class: 9 })
        ));
    }

    #[test]
    fn repair_fast_path_and_feasibility() {
        // Two classes interleaved; first two slots must hold one of each.
        let labels = vec![0u32, 0, 1, 1];
        let cc = ClassConstraints::new(
            labels,
            vec![WindowRule {
                window: 2,
                class: 0,
                min: 1,
                max: 1,
            }],
        )
        .unwrap();
        assert!(cc.is_feasible());
        let good = BucketOrder::from_permutation(&[0, 2, 1, 3]).unwrap();
        assert!(cc.satisfied(&good).unwrap());
        assert_eq!(cc.repair(&good).unwrap(), good);
        let bad = BucketOrder::from_permutation(&[0, 1, 2, 3]).unwrap();
        assert!(!cc.satisfied(&bad).unwrap());
        let fixed = cc.repair(&bad).unwrap();
        assert!(cc.satisfied(&fixed).unwrap());
        // Greedy keeps the earliest legal prefix of the input order.
        assert_eq!(fixed.as_permutation().unwrap(), vec![0, 2, 1, 3]);
    }

    #[test]
    fn infeasible_rule_sets_are_detected() {
        // Every candidate is class 0 but the first slot may hold none.
        let cc = ClassConstraints::new(
            vec![0u32; 3],
            vec![WindowRule {
                window: 1,
                class: 0,
                min: 0,
                max: 0,
            }],
        )
        .unwrap();
        assert!(!cc.is_feasible());
        let id = BucketOrder::from_permutation(&[0, 1, 2]).unwrap();
        assert_eq!(
            cc.repair(&id),
            Err(AggregateError::InfeasibleConstraints)
        );
        let inputs = vec![id.clone(), id];
        assert_eq!(
            minmax_aggregate(&inputs, Some(&cc), 1).unwrap_err(),
            AggregateError::InfeasibleConstraints
        );
        assert_eq!(
            minmax_optimal_bb(&inputs, Some(&cc)).unwrap_err(),
            AggregateError::InfeasibleConstraints
        );
    }

    #[test]
    fn constrained_exact_matches_constrained_brute_force() {
        for seed in 0..6u64 {
            let n = 5;
            let inputs = lcg_profile(seed + 20, n, 4, 3);
            let labels: Vec<u32> = (0..n as u32).map(|e| e % 2).collect();
            let cc = ClassConstraints::new(
                labels,
                vec![
                    WindowRule {
                        window: 2,
                        class: 1,
                        min: 1,
                        max: 2,
                    },
                    WindowRule {
                        window: 4,
                        class: 0,
                        min: 1,
                        max: 3,
                    },
                ],
            )
            .unwrap();
            let (_, bf) = brute_force(&inputs, Some(&cc)).unwrap();
            let (order, cost, _) = minmax_optimal_bb(&inputs, Some(&cc)).unwrap();
            assert_eq!(cost, bf, "seed {seed}");
            assert!(cc.satisfied(&order).unwrap());
        }
    }

    #[test]
    fn heuristics_bound_the_exact_optimum() {
        for seed in 0..6u64 {
            let inputs = lcg_profile(seed + 40, 6, 5, 4);
            let (_, exact, _) = minmax_optimal_bb(&inputs, None).unwrap();
            let (order, heur) = minmax_aggregate(&inputs, None, 7).unwrap();
            assert!(heur >= exact, "seed {seed}: heuristic beat exact?");
            assert!(heur <= 2 * exact.max(1), "seed {seed}: {heur} > 2·{exact}");
            let obj = MinMaxObjective::build(&inputs).unwrap();
            assert_eq!(obj.max_cost_x2(&order).unwrap(), heur);
        }
    }

    #[test]
    fn local_search_never_worsens_and_kwiksort_scores_by_max() {
        let inputs = lcg_profile(9, 8, 6, 5);
        let obj = MinMaxObjective::build(&inputs).unwrap();
        let (kw, kw_cost) = minmax_kwiksort_best_of(&inputs, 3, 8, None).unwrap();
        assert_eq!(obj.max_cost_x2(&kw).unwrap(), kw_cost);
        let (ls, ls_cost) = minmax_local_search(&kw, &inputs, None).unwrap();
        assert!(ls_cost <= kw_cost);
        assert_eq!(obj.max_cost_x2(&ls).unwrap(), ls_cost);
    }

    #[test]
    fn outlier_voter_drops_the_max_below_the_sum_optimum() {
        // Nine agreeing voters + one full reversal: the Kemeny (sum)
        // optimum is the majority ranking, whose max cost is the full
        // 2·C(6,2) = 30 paid by the outlier; the minmax optimum meets
        // the outlier halfway.
        let majority = BucketOrder::from_permutation(&[0, 1, 2, 3, 4, 5]).unwrap();
        let outlier = BucketOrder::from_permutation(&[5, 4, 3, 2, 1, 0]).unwrap();
        let mut inputs = vec![majority.clone(); 9];
        inputs.push(outlier);
        let obj = MinMaxObjective::build(&inputs).unwrap();
        let sum_opt_max = obj.max_cost_x2(&majority).unwrap();
        assert_eq!(sum_opt_max, 30);
        let (_, minmax_cost, _) = minmax_optimal_bb(&inputs, None).unwrap();
        assert!(minmax_cost < sum_opt_max);
        assert_eq!(minmax_cost, 16, "balance point of a 6-element reversal");
    }

    #[test]
    fn errors() {
        assert!(minmax_aggregate(&[], None, 0).is_err());
        let huge = BucketOrder::trivial(MAX_MINMAX_N + 1);
        assert!(matches!(
            minmax_optimal_bb(std::slice::from_ref(&huge), None),
            Err(AggregateError::DomainTooLarge { .. })
        ));
        let cc = ClassConstraints::new(vec![0, 0], vec![]).unwrap();
        let inputs = [BucketOrder::trivial(3)];
        assert!(matches!(
            minmax_aggregate(&inputs, Some(&cc), 0),
            Err(AggregateError::DomainMismatch {
                expected: 3,
                found: 2
            })
        ));
        let empty = BucketOrder::trivial(0);
        let (o, c, _) = minmax_optimal_bb(std::slice::from_ref(&empty), None).unwrap();
        assert!(o.is_empty());
        assert_eq!(c, 0);
    }
}
