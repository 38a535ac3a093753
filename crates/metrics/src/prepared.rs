//! Prepared-ranking kernels: precompute per-ranking state once, then
//! evaluate any number of pairwise metrics without per-call setup.
//!
//! The direct metric functions ([`kendall::kprof_x2`](crate::kendall),
//! [`footrule::fprof_x2`](crate::footrule), …) rebuild the same
//! per-ranking structures on every call: the element→bucket map is read
//! through method calls, the `(σ-bucket, τ-bucket)` cell list is
//! allocated and sorted from scratch, and `fhaus` materializes four
//! witness [`BucketOrder`]s. A batch of `m` rankings evaluated pairwise
//! therefore pays `O(m²·n)` preparation for `O(m·n)` worth of
//! information.
//!
//! [`PreparedRanking`] hoists everything that depends on **one** ranking
//! out of the pair loop:
//!
//! * the element→bucket index map (borrowed contiguously from the order);
//! * the half-unit position vector `⟨pos(B(e))⟩` (reusing
//!   [`core::pos::Pos`](bucketrank_core::Pos));
//! * bucket sizes as prefix sums over the rank-sorted domain;
//! * the domain sorted by rank (`by_rank`);
//! * the number of within-ranking tied pairs.
//!
//! The `*_prepared` kernels consume two `&PreparedRanking`s and skip all
//! per-call setup. Domain agreement is validated in `O(1)` per pair (the
//! sizes were computed at preparation) and reported as
//! [`MetricsError::DomainMismatch`] — never a panic.
//!
//! # Scratch
//!
//! Per-pair working memory (the τ-bucket run array, the suffix-count
//! tree, the contingency table, the witness rank arrays) is per-thread:
//! every kernel borrows its thread's workspace once per call, so a whole
//! `m×m` matrix on one thread, or one worker of a parallel matrix,
//! reuses the same few buffers and allocates nothing in steady state.
//!
//! # Pair-statistics lanes
//!
//! The pair-counts engine picks between two exact lanes on bucket
//! structure: a **counting lane** ([`pair_counts_table`]) that
//! builds the `kσ × kτ` bucket contingency table in `O(n)` and reads
//! every statistic off it in `O(kσ·kτ)` — the winner whenever ties
//! compress the rankings into few buckets — and the **sweep lane**
//! ([`pair_counts_sweep`]), one pass over the domain in σ-rank
//! order against a branch-free 16-ary suffix-count tree over the
//! τ-buckets, `O(n log₁₆ kτ)` with no sort, which handles full rankings
//! (`kσ·kτ = n²` would blow the table up). Both lanes are public and
//! the conformance suite holds them bit-identical to each other and to
//! the direct algorithm.
//!
//! `fhaus` builds each Theorem 5 witness refinement as a rank array
//! with one counting scatter, `O(n + k)`: no sort and no
//! [`BucketOrder`] (see [`fhaus_prepared`]).
//!
//! Every kernel returns **exactly** the same integer as its direct
//! counterpart; `tests/prepared_vs_direct.rs` enforces this
//! differentially with no float tolerance.

use crate::pairs::PairCounts;
use crate::MetricsError;
use bucketrank_core::{BucketOrder, Pos};
use std::cell::RefCell;

/// A ranking with every reusable per-ranking structure precomputed, for
/// repeated pairwise metric evaluation. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct PreparedRanking<'a> {
    order: &'a BucketOrder,
    /// Element id → bucket index (borrowed from the order, contiguous).
    bucket_of: &'a [u32],
    /// Element id → position, in half-units.
    positions: Vec<Pos>,
    /// The domain in rank order: bucket 0's elements, then bucket 1's, …
    by_rank: Vec<u32>,
    /// Prefix sums of bucket sizes over `by_rank`; bucket `i` occupies
    /// `by_rank[bucket_starts[i]..bucket_starts[i + 1]]`.
    bucket_starts: Vec<u32>,
    /// Number of pairs tied within this ranking, `Σ_B |B|(|B|−1)/2`.
    tied_pairs: u64,
}

impl<'a> PreparedRanking<'a> {
    /// Prepares `order` for repeated pairwise evaluation. `O(n)`.
    pub fn new(order: &'a BucketOrder) -> Self {
        let n = order.len();
        let mut by_rank = Vec::with_capacity(n);
        let mut bucket_starts = Vec::with_capacity(order.num_buckets() + 1);
        let mut tied_pairs = 0u64;
        bucket_starts.push(0);
        for b in order.buckets() {
            by_rank.extend_from_slice(b);
            let s = b.len() as u64;
            tied_pairs += s * (s - 1) / 2;
            bucket_starts.push(by_rank.len() as u32);
        }
        let bucket_of = order.bucket_indices();
        let positions = bucket_of
            .iter()
            .map(|&b| order.bucket_position(b as usize))
            .collect();
        PreparedRanking {
            order,
            bucket_of,
            positions,
            by_rank,
            bucket_starts,
            tied_pairs,
        }
    }

    /// The underlying order.
    pub fn order(&self) -> &'a BucketOrder {
        self.order
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.order.num_buckets()
    }

    /// Element id → bucket index, contiguous.
    pub fn bucket_of(&self) -> &[u32] {
        self.bucket_of
    }

    /// The F-profile `⟨pos(B(e))⟩` as a slice, in half-units.
    pub fn positions(&self) -> &[Pos] {
        &self.positions
    }

    /// The domain in rank order (concatenated buckets).
    pub fn by_rank(&self) -> &[u32] {
        &self.by_rank
    }

    /// Bucket-size prefix sums over [`Self::by_rank`] (length
    /// `num_buckets() + 1`).
    pub fn bucket_starts(&self) -> &[u32] {
        &self.bucket_starts
    }

    /// Number of pairs tied within this ranking.
    pub fn tied_pairs(&self) -> u64 {
        self.tied_pairs
    }
}

/// `O(1)` domain check for a prepared pair.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] if the prepared rankings differ in
/// domain size.
pub fn check_prepared_domain(
    a: &PreparedRanking<'_>,
    b: &PreparedRanking<'_>,
) -> Result<(), MetricsError> {
    if a.len() != b.len() {
        return Err(MetricsError::DomainMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(())
}

/// The kernel workspace: cleared-and-refilled buffers so the prepared
/// kernels allocate nothing in steady state. Each thread owns one (see
/// [`with_arena`]); it serves any number of pairs and any mix of
/// kernels.
#[derive(Debug)]
pub(crate) struct PairArena {
    /// τ-bucket of each element, laid out in σ-rank order (sweep lane).
    tb: Vec<u32>,
    /// Counts of the τ-buckets of strictly earlier σ-buckets (sweep
    /// lane).
    tree: SuffixCounts,
    /// Per-τ-bucket count of the current σ-bucket's elements seen so
    /// far; all zero between segments (sweep lane).
    run: Vec<u32>,
    /// The `kσ × kτ` bucket contingency table, row-major (counting
    /// lane).
    table: Vec<u32>,
    /// Per-τ-bucket totals over the σ-rows already swept (counting
    /// lane).
    above: Vec<u64>,
    /// Next free witness rank of each base bucket, and the two witness
    /// rank arrays, for `fhaus`.
    cursor: Vec<u32>,
    rank_a: Vec<u32>,
    rank_b: Vec<u32>,
    /// Per-bucket weighted score tables (weighted kernels, one per
    /// side; see [`crate::weighted`]).
    pub(crate) wbucket_a: Vec<u64>,
    pub(crate) wbucket_b: Vec<u64>,
}

impl PairArena {
    /// The empty arena. Buffers grow on first use and are reused by
    /// every later call, whatever the domain sizes.
    const EMPTY: PairArena = PairArena {
        tb: Vec::new(),
        tree: SuffixCounts::EMPTY,
        run: Vec::new(),
        table: Vec::new(),
        above: Vec::new(),
        cursor: Vec::new(),
        rank_a: Vec::new(),
        rank_b: Vec::new(),
        wbucket_a: Vec::new(),
        wbucket_b: Vec::new(),
    };
}

/// log₂ of the fan-out of a [`SuffixCounts`] level.
const FANOUT_BITS: u32 = 4;
/// Cells per node group of a [`SuffixCounts`] level.
const FANOUT: usize = 1 << FANOUT_BITS;
/// Levels enough for any `u32` value: `16⁸ = 2³²`.
const MAX_LEVELS: usize = 8;

/// `BELOW[d]` has a 1 in each lane `< d`: the add an insert of digit
/// `d` makes to its group, as one table row so the add is a plain
/// 16-lane vector add.
const BELOW: [[u32; FANOUT]; FANOUT] = {
    let mut t = [[0u32; FANOUT]; FANOUT];
    let mut d = 0;
    while d < FANOUT {
        let mut lane = 0;
        while lane < d {
            t[d][lane] = 1;
            lane += 1;
        }
        d += 1;
    }
    t
};

/// A 16-ary suffix-count tree over the values `0..k`, with a
/// branch-free insert and query.
///
/// Level `l` has one cell per prefix `x >> 4l`, grouped sixteen to a
/// parent prefix `x >> 4(l+1)`. Cell `x >> 4l` counts the inserted
/// values that share `x`'s parent prefix and whose level-`l` digit is
/// strictly greater than `x`'s. An inserted `y > x` first differs from
/// `x` at exactly one digit, and is counted at exactly that level, so
/// [`count_above`](Self::count_above) reads one cell per level. An
/// insert adds 1 to the lanes below its digit in one 16-wide group per
/// level, a fixed masked add. Both walk every level whatever the value,
/// so neither has a data-dependent exit.
#[derive(Debug)]
struct SuffixCounts {
    cells: Vec<u32>,
    /// Offset of each level in `cells`, leaf level first; the first
    /// `levels` are live.
    level_start: [usize; MAX_LEVELS],
    levels: usize,
}

impl SuffixCounts {
    const EMPTY: SuffixCounts = SuffixCounts {
        cells: Vec::new(),
        level_start: [0; MAX_LEVELS],
        levels: 0,
    };

    /// Empties the tree and sizes it for the values `0..k`: one level
    /// per base-16 digit of `k − 1`, at least one.
    fn reset(&mut self, k: usize) {
        let mut len = 0;
        let mut span = k.max(1);
        self.levels = 0;
        loop {
            self.level_start[self.levels] = len;
            self.levels += 1;
            let groups = span.div_ceil(FANOUT);
            len += groups * FANOUT;
            if groups == 1 {
                break;
            }
            span = groups;
        }
        self.cells.clear();
        self.cells.resize(len, 0);
    }

    /// Inserts the value `x`.
    #[inline(always)]
    fn insert(&mut self, x: u32) {
        let mut v = x as usize;
        for &start in &self.level_start[..self.levels] {
            let digit = v % FANOUT;
            let base = start + v - digit;
            let group = &mut self.cells[base..base + FANOUT];
            for (c, &add) in group.iter_mut().zip(&BELOW[digit]) {
                *c += add;
            }
            v >>= FANOUT_BITS;
        }
    }

    /// Number of inserted values strictly greater than `x`.
    #[inline(always)]
    fn count_above(&self, x: u32) -> u64 {
        let mut v = x as usize;
        let mut sum = 0u64;
        for &start in &self.level_start[..self.levels] {
            sum += u64::from(self.cells[start + v]);
            v >>= FANOUT_BITS;
        }
        sum
    }
}

thread_local! {
    // `const`: no lazy-init check on the per-pair path.
    static ARENA: RefCell<PairArena> = const { RefCell::new(PairArena::EMPTY) };
}

/// Runs `f` against this thread's [`PairArena`]. Every kernel enters it
/// once, after its domain checks, and never calls another arena-using
/// kernel inside `f` (the `RefCell` would panic on the second borrow).
pub(crate) fn with_arena<T>(f: impl FnOnce(&mut PairArena) -> T) -> T {
    ARENA.with(|s| f(&mut s.borrow_mut()))
}

/// Assembles the five statistics from the two lane-computed quantities
/// plus the prepared per-ranking tie counts.
fn finish_counts(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
    total: u64,
    discordant: u64,
    tied_both: u64,
) -> PairCounts {
    let tied_left_only = s.tied_pairs - tied_both;
    let tied_right_only = t.tied_pairs - tied_both;
    let concordant = total - discordant - tied_both - tied_left_only - tied_right_only;
    PairCounts {
        concordant,
        discordant,
        tied_both,
        tied_left_only,
        tied_right_only,
    }
}

/// Counting-lane admission bound: the contingency table is used when
/// its `kσ·kτ` cells number at most this many per element. At the
/// bound the lane's `O(n + kσ·kτ)` table pass is a small constant
/// number of sequential passes — still under the sweep lane's
/// per-element tree walk — while the table memory stays `O(n)`.
const TABLE_CELLS_PER_ELEMENT: usize = 4;

/// The dispatching pair-statistics engine: counting lane when the
/// bucket structure is coarse enough, sweep lane otherwise.
fn pair_counts_into(
    arena: &mut PairArena,
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
) -> PairCounts {
    if s.num_buckets() * t.num_buckets() <= TABLE_CELLS_PER_ELEMENT * s.len() {
        table_lane(arena, s, t)
    } else {
        sweep_lane(arena, s, t)
    }
}

/// The sweep lane. Identical output to
/// [`pairs::pair_counts`](crate::pairs::pair_counts), without its
/// global `(σ-bucket, τ-bucket)` sort: the domain is already grouped by
/// σ-bucket (`by_rank`), so one pass over it in that order sees every
/// strictly earlier σ-bucket before the current one. Each σ-bucket's
/// elements first query the [`SuffixCounts`] tree — the earlier
/// elements in a strictly later τ-bucket are exactly their discordant
/// partners — and count their tied-both partners in `run`; then they
/// are inserted and `run` is cleared behind them.
fn sweep_lane(
    arena: &mut PairArena,
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
) -> PairCounts {
    let n = s.len();
    if n < 2 {
        return PairCounts::default();
    }
    let total = (n as u64) * (n as u64 - 1) / 2;

    let PairArena { tb, tree, run, .. } = arena;
    tb.clear();
    tb.extend(s.by_rank.iter().map(|&e| t.bucket_of[e as usize]));
    tree.reset(t.num_buckets());
    run.clear();
    run.resize(t.num_buckets(), 0);

    let mut discordant = 0u64;
    let mut tied_both = 0u64;
    for w in s.bucket_starts.windows(2) {
        let seg = &tb[w[0] as usize..w[1] as usize];
        for &x in seg {
            discordant += tree.count_above(x);
            let r = &mut run[x as usize];
            tied_both += u64::from(*r);
            *r += 1;
        }
        for &x in seg {
            tree.insert(x);
            run[x as usize] = 0;
        }
    }

    finish_counts(s, t, total, discordant, tied_both)
}

/// The counting lane: build the `kσ × kτ` contingency table
/// `C[i][j] = |σ-bucket i ∩ τ-bucket j|` in one `O(n)` pass, then read
/// every statistic off the table in `O(kσ·kτ)`. Tied-both pairs live
/// inside single cells (`Σ C(C−1)/2`); a pair is discordant exactly
/// when the element in the strictly later σ-bucket sits in a strictly
/// earlier τ-bucket, so sweeping σ-rows top to bottom with a running
/// per-column `above[j] = Σ_{i′<i} C[i′][j]` and a right-to-left
/// suffix scalar accumulates `Σ_{i,j} C[i][j] · Σ_{i′<i, j′>j}
/// C[i′][j′]` — no sorting and no per-element `log` factor.
fn table_lane(
    arena: &mut PairArena,
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
) -> PairCounts {
    let n = s.len();
    if n < 2 {
        return PairCounts::default();
    }
    let total = (n as u64) * (n as u64 - 1) / 2;
    let kt = t.num_buckets();

    let PairArena { table, above, .. } = arena;
    table.clear();
    table.resize(s.num_buckets() * kt, 0);
    for (i, w) in s.bucket_starts.windows(2).enumerate() {
        let row = &mut table[i * kt..(i + 1) * kt];
        for &e in &s.by_rank[w[0] as usize..w[1] as usize] {
            row[t.bucket_of[e as usize] as usize] += 1;
        }
    }

    above.clear();
    above.resize(kt, 0);
    let mut discordant = 0u64;
    let mut tied_both = 0u64;
    for row in table.chunks_exact(kt) {
        // `suffix` holds Σ_{j′>j} above[j′] as j walks right to left;
        // `above` is only folded in after the row is consumed, so it
        // covers exactly the strictly earlier σ-buckets.
        let mut suffix = 0u64;
        for j in (0..kt).rev() {
            let c = u64::from(row[j]);
            discordant += c * suffix;
            // Empty cells are common (the table is usually sparse), so
            // the pairs-within-a-cell count must not underflow at c = 0.
            tied_both += c * c.saturating_sub(1) / 2;
            suffix += above[j];
        }
        for (al, &c) in above.iter_mut().zip(row) {
            *al += u64::from(c);
        }
    }

    finish_counts(s, t, total, discordant, tied_both)
}

/// The five pair statistics over prepared inputs; equals
/// [`pairs::pair_counts`](crate::pairs::pair_counts) exactly.
/// Dispatches between the counting and sweep lanes; see the [module
/// docs](self).
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn pair_counts_prepared(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
) -> Result<PairCounts, MetricsError> {
    check_prepared_domain(s, t)?;
    Ok(with_arena(|a| pair_counts_into(a, s, t)))
}

/// The sweep lane, forced — always applicable, never builds the table.
/// The bench gate measures the counting lane's win against it and the
/// conformance suite holds the two lanes bit-identical.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn pair_counts_sweep(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
) -> Result<PairCounts, MetricsError> {
    check_prepared_domain(s, t)?;
    Ok(with_arena(|a| sweep_lane(a, s, t)))
}

/// The counting lane, forced. Allocates (and reuses) `kσ·kτ` table
/// cells in the thread's scratch — callers forcing this lane on
/// fine-bucketed pairs pay that memory; the dispatcher only picks it
/// under the `O(n)` admission bound.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn pair_counts_table(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
) -> Result<PairCounts, MetricsError> {
    check_prepared_domain(s, t)?;
    Ok(with_arena(|a| table_lane(a, s, t)))
}

/// Prepared `2·Kprof`; equals [`kendall::kprof_x2`](crate::kendall::kprof_x2)
/// exactly.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn kprof_x2_prepared(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
) -> Result<u64, MetricsError> {
    let c = pair_counts_prepared(s, t)?;
    Ok(2 * c.discordant + c.tied_exactly_one())
}

/// Prepared `2·Kavg`; equals [`kendall::kavg_x2`](crate::kendall::kavg_x2)
/// exactly.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn kavg_x2_prepared(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
) -> Result<u64, MetricsError> {
    let c = pair_counts_prepared(s, t)?;
    Ok(2 * c.discordant + c.tied_exactly_one() + c.tied_both)
}

/// Prepared `2·Fprof`; equals [`footrule::fprof_x2`](crate::footrule::fprof_x2)
/// exactly. One linear pass over the precomputed position vectors.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn fprof_x2_prepared(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
) -> Result<u64, MetricsError> {
    check_prepared_domain(s, t)?;
    Ok(s.positions
        .iter()
        .zip(&t.positions)
        .map(|(a, b)| a.abs_diff(*b))
        .sum())
}

/// Prepared `KHaus` (unscaled, like [`hausdorff::khaus`](crate::hausdorff::khaus)):
/// Proposition 6's `|U| + max{|S|, |T|}` over the prepared pair
/// statistics.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn khaus_prepared(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
) -> Result<u64, MetricsError> {
    let c = pair_counts_prepared(s, t)?;
    Ok(c.discordant + c.tied_left_only.max(c.tied_right_only))
}

/// Prepared `2·KHaus`, on the common `_x2` integer scale used by the
/// aggregation objectives.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn khaus_x2_prepared(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
) -> Result<u64, MetricsError> {
    Ok(2 * khaus_prepared(s, t)?)
}

/// Fill `rank` with the position of each element in the Theorem 5
/// witness refinement sorted by the key `(base-bucket, other-bucket, e)`
/// — or `(base-bucket, reversed-other-bucket, e)` when `reverse_other`.
///
/// With `ρ = identity`, `star_chain(&[ρ, other], base)` sorts the domain
/// by exactly that key (the trailing element id makes the order strict,
/// so the witness is a full ranking). A counting scatter builds it
/// without sorting: walking `other`'s buckets in order (reversed when
/// `reverse_other`) visits the domain in `(other-bucket, e)` key order,
/// because every [`BucketOrder`] bucket lists its elements ascending.
/// Each element takes the next free rank of its base bucket, whose
/// ranks start at `base.bucket_starts`, so every base bucket fills in
/// key order. `O(n + k)`.
fn witness_ranks(
    cursor: &mut Vec<u32>,
    rank: &mut Vec<u32>,
    base: &PreparedRanking<'_>,
    other: &PreparedRanking<'_>,
    reverse_other: bool,
) {
    cursor.clear();
    cursor.extend_from_slice(&base.bucket_starts[..base.num_buckets()]);
    rank.clear();
    rank.resize(base.len(), 0);
    let place = |bucket: &[u32]| {
        for &e in bucket {
            let next = &mut cursor[base.bucket_of[e as usize] as usize];
            rank[e as usize] = *next;
            *next += 1;
        }
    };
    let buckets = other
        .bucket_starts
        .windows(2)
        .map(|w| &other.by_rank[w[0] as usize..w[1] as usize]);
    if reverse_other {
        buckets.rev().for_each(place);
    } else {
        buckets.for_each(place);
    }
}

/// Prepared `FHaus` (unscaled, like [`hausdorff::fhaus`](crate::hausdorff::fhaus)).
///
/// The Theorem 5 witness pairs `(σ1, τ1) = (ρ∗τᴿ∗σ, ρ∗σ∗τ)` and
/// `(σ2, τ2) = (ρ∗τ∗σ, ρ∗σᴿ∗τ)` are computed as rank arrays directly,
/// each with one counting scatter; the footrule of two full rankings is
/// then the `L1` distance of their rank arrays.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn fhaus_prepared(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
) -> Result<u64, MetricsError> {
    check_prepared_domain(s, t)?;
    Ok(with_arena(|arena| {
        let PairArena {
            cursor,
            rank_a,
            rank_b,
            ..
        } = arena;
        // F(σ1, τ1): σ ties broken by τᴿ, τ ties broken by σ.
        witness_ranks(cursor, rank_a, s, t, true);
        witness_ranks(cursor, rank_b, t, s, false);
        let f1: u64 = rank_a
            .iter()
            .zip(rank_b.iter())
            .map(|(x, y)| u64::from(x.abs_diff(*y)))
            .sum();
        // F(σ2, τ2): σ ties broken by τ, τ ties broken by σᴿ.
        witness_ranks(cursor, rank_a, s, t, false);
        witness_ranks(cursor, rank_b, t, s, true);
        let f2: u64 = rank_a
            .iter()
            .zip(rank_b.iter())
            .map(|(x, y)| u64::from(x.abs_diff(*y)))
            .sum();
        f1.max(f2)
    }))
}

/// Prepared `2·FHaus`, on the common `_x2` integer scale used by the
/// aggregation objectives.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn fhaus_x2_prepared(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
) -> Result<u64, MetricsError> {
    Ok(2 * fhaus_prepared(s, t)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{footrule, hausdorff, kendall, pairs};
    use bucketrank_core::consistent::all_bucket_orders;

    #[test]
    fn prepared_state_is_consistent() {
        let o = BucketOrder::from_buckets(5, vec![vec![1, 3], vec![0], vec![2, 4]]).unwrap();
        let p = PreparedRanking::new(&o);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.num_buckets(), 3);
        assert_eq!(p.by_rank(), &[1, 3, 0, 2, 4]);
        assert_eq!(p.bucket_starts(), &[0, 2, 3, 5]);
        assert_eq!(p.tied_pairs(), 2);
        assert_eq!(p.bucket_of(), &[1, 0, 2, 0, 2]);
        for e in 0..5u32 {
            assert_eq!(p.positions()[e as usize], o.position(e));
        }
        assert!(std::ptr::eq(p.order(), &o));
    }

    #[test]
    fn prepared_equals_direct_exhaustive_n4() {
        let orders = all_bucket_orders(4);
        let prepared: Vec<PreparedRanking<'_>> =
            orders.iter().map(PreparedRanking::new).collect();
        for (a, pa) in orders.iter().zip(&prepared) {
            for (b, pb) in orders.iter().zip(&prepared) {
                assert_eq!(
                    pair_counts_prepared(pa, pb).unwrap(),
                    pairs::pair_counts(a, b).unwrap(),
                    "pair_counts: {a:?} {b:?}"
                );
                assert_eq!(
                    kprof_x2_prepared(pa, pb).unwrap(),
                    kendall::kprof_x2(a, b).unwrap()
                );
                assert_eq!(
                    kavg_x2_prepared(pa, pb).unwrap(),
                    kendall::kavg_x2(a, b).unwrap()
                );
                assert_eq!(
                    fprof_x2_prepared(pa, pb).unwrap(),
                    footrule::fprof_x2(a, b).unwrap()
                );
                assert_eq!(
                    khaus_prepared(pa, pb).unwrap(),
                    hausdorff::khaus(a, b).unwrap()
                );
                assert_eq!(
                    fhaus_prepared(pa, pb).unwrap(),
                    hausdorff::fhaus(a, b).unwrap(),
                    "fhaus: {a:?} {b:?}"
                );
            }
        }
    }

    #[test]
    fn x2_wrappers_double() {
        let a = BucketOrder::from_keys(&[1, 1, 2, 3]);
        let b = BucketOrder::from_keys(&[3, 1, 2, 2]);
        let (pa, pb) = (PreparedRanking::new(&a), PreparedRanking::new(&b));
        assert_eq!(
            khaus_x2_prepared(&pa, &pb).unwrap(),
            2 * khaus_prepared(&pa, &pb).unwrap()
        );
        assert_eq!(
            fhaus_x2_prepared(&pa, &pb).unwrap(),
            2 * fhaus_prepared(&pa, &pb).unwrap()
        );
    }

    #[test]
    fn degenerate_domains() {
        for n in [0usize, 1] {
            let o = BucketOrder::trivial(n);
            let p = PreparedRanking::new(&o);
            assert_eq!(pair_counts_prepared(&p, &p).unwrap(), PairCounts::default());
            assert_eq!(kprof_x2_prepared(&p, &p).unwrap(), 0);
            assert_eq!(fprof_x2_prepared(&p, &p).unwrap(), 0);
            assert_eq!(khaus_prepared(&p, &p).unwrap(), 0);
            assert_eq!(fhaus_prepared(&p, &p).unwrap(), 0);
        }
    }

    #[test]
    fn mismatched_domains_error_from_every_kernel() {
        let a = BucketOrder::trivial(3);
        let b = BucketOrder::trivial(4);
        let (pa, pb) = (PreparedRanking::new(&a), PreparedRanking::new(&b));
        let expected = MetricsError::DomainMismatch { left: 3, right: 4 };
        assert_eq!(pair_counts_prepared(&pa, &pb).unwrap_err(), expected);
        assert_eq!(kprof_x2_prepared(&pa, &pb).unwrap_err(), expected);
        assert_eq!(kavg_x2_prepared(&pa, &pb).unwrap_err(), expected);
        assert_eq!(fprof_x2_prepared(&pa, &pb).unwrap_err(), expected);
        assert_eq!(khaus_prepared(&pa, &pb).unwrap_err(), expected);
        assert_eq!(khaus_x2_prepared(&pa, &pb).unwrap_err(), expected);
        assert_eq!(fhaus_prepared(&pa, &pb).unwrap_err(), expected);
        assert_eq!(fhaus_x2_prepared(&pa, &pb).unwrap_err(), expected);
    }

    #[test]
    fn counting_and_sweep_lanes_agree_exhaustively_n4() {
        let orders = all_bucket_orders(4);
        let prepared: Vec<PreparedRanking<'_>> =
            orders.iter().map(PreparedRanking::new).collect();
        for pa in &prepared {
            for pb in &prepared {
                let dispatched = pair_counts_prepared(pa, pb).unwrap();
                let table = pair_counts_table(pa, pb).unwrap();
                let sweep = pair_counts_sweep(pa, pb).unwrap();
                assert_eq!(table, sweep, "{:?} {:?}", pa.order(), pb.order());
                assert_eq!(dispatched, table);
            }
        }
    }

    #[test]
    fn scratch_reuse_is_sound_across_shrinking_sizes() {
        // A big pair first (grows the thread-local buffers), then small
        // ones: stale scratch contents must not leak into the results.
        let big_a = BucketOrder::from_keys(&(0..200).map(|i| i % 7).collect::<Vec<_>>());
        let big_b = BucketOrder::from_keys(&(0..200).map(|i| (i * 3) % 5).collect::<Vec<_>>());
        let (pa, pb) = (PreparedRanking::new(&big_a), PreparedRanking::new(&big_b));
        let _ = kprof_x2_prepared(&pa, &pb).unwrap();
        let _ = fhaus_prepared(&pa, &pb).unwrap();
        for a in all_bucket_orders(3) {
            for b in all_bucket_orders(3) {
                let (qa, qb) = (PreparedRanking::new(&a), PreparedRanking::new(&b));
                assert_eq!(
                    kprof_x2_prepared(&qa, &qb).unwrap(),
                    kendall::kprof_x2(&a, &b).unwrap()
                );
                assert_eq!(
                    fhaus_prepared(&qa, &qb).unwrap(),
                    hausdorff::fhaus(&a, &b).unwrap()
                );
            }
        }
    }
}
