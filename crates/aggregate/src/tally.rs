//! The shared pairwise-preference tally of a profile — the substrate
//! every Kemeny-style aggregator in this crate consumes.
//!
//! Kemeny aggregation, the majority digraph, Schulze, MC4 and local
//! Kemenization are all functions of the same `O(n²)` statistic: for
//! each ordered pair `(a, b)`, how many voters strictly prefer `a` and
//! how many tie the pair. Before this module each consumer rebuilt that
//! statistic privately with per-pair `prefers()` loops — `O(m·n²)`
//! method calls apiece, repeated per algorithm. [`ProfileTally`] builds
//! it **once** per profile and hands every consumer `O(1)` reads:
//!
//! * [`kwiksort`](crate::kwiksort::kwiksort_with_tally) pivots on
//!   strict-count comparisons;
//! * [`MajorityGraph`](crate::condorcet::MajorityGraph::from_tally)
//!   reads majority margins;
//! * [`schulze`](crate::schulze::schulze_with_tally) reads strict
//!   support counts;
//! * MC4 ([`crate::markov`]) reads strict-majority bits;
//! * [`local_kemenize`](crate::local::local_kemenize_with_tally) reads
//!   adjacent-swap deltas;
//! * [`kemeny_cost_x2`](ProfileTally::kemeny_cost_x2) evaluates the
//!   total `Kprof` objective of any candidate in `O(n²)` —
//!   **independent of the number of voters** — where the direct path
//!   pays `O(m·n log n)` per candidate.
//!
//! # Scaling convention
//!
//! The tally stores one `n × n` matrix, `strict(a, b)` = the number of
//! voters strictly preferring `a` over `b`. The `Kprof` weights are ×2
//! scaled so ties stay exact in integers:
//! `weight_x2(a, b) = 2·#{voters strictly preferring a over b} +
//! #{voters tying the pair}`. Every voter either orders a pair or ties
//! it, so `ties(a, b) = m − strict(a, b) − strict(b, a)` and the weight
//! is a function of the two strict cells alone:
//! `weight_x2(a, b) = m + strict(a, b) − strict(b, a)`. The accessors
//! read each cell widened to `u32` and derive the weight on read,
//! adding before subtracting so no `u32` intermediate underflows, and
//! `m + strict(a, b) ≤ 2m` fits at
//! [`DynamicProfile::MAX_VOTERS`](crate::dynamic::DynamicProfile::MAX_VOTERS).
//! For every pair, `weight_x2(a, b) + weight_x2(b, a) = 2m`. Placing
//! `a` strictly ahead of `b` in a candidate costs `weight_x2(b, a)` on
//! the `Kprof` ×2 scale (2 per voter preferring `b`, 1 per tying voter
//! — the `p = ½` penalty of Section 3.1).
//!
//! # Cell width
//!
//! A cell counts at most `m` voters, so `strict` is stored as `u16`
//! cells while `m ≤ u16::MAX` and `n ≤ 2^16` (the second bound keeps
//! every bucket index within `u16` too), and as `u32` cells otherwise.
//! The width is a function of `(n, m)` alone: two tallies of the same
//! profile always share it, and a maintained tally
//! ([`crate::dynamic`]) changes width in place on the edit that crosses
//! the bound: the tally's own edit methods widen before a push adds and
//! narrow after a remove retracts, so no cell ever overflows its
//! width. The `O(n²)` kernels (the build, the dynamic edit passes,
//! [`ProfileTally::kemeny_cost_x2`], the snapshot copy) are written
//! once over a private two-impl cell trait and narrow the bucket indices
//! they compare to the cell width once per call, so a narrow tally
//! streams half the bytes of a wide one. No accessor exposes the width:
//! every read returns the count as `u32`, and
//! [`strict_counts`](ProfileTally::strict_counts) is a widening view.
//!
//! # Build
//!
//! The build streams voters through a tiled, branchless comparison
//! kernel. A voter's contiguous bucket-index map `bof` (element →
//! bucket index, [`BucketOrder::bucket_indices`]) turns every strict
//! preference into a comparison — the voter strictly prefers `a` over
//! `b` exactly when `bof[b] > bof[a]` — so each matrix row is one
//! `zip` pass of compare-and-add over two slices: sequential reads,
//! sequential writes, no data-dependent branches, no bounds checks,
//! and the compiler autovectorizes the inner loop.
//!
//! Rows are blocked into [`TILE_ROWS`]-row slabs with the voter loop
//! *inside* the tile loop, so the slab being written stays
//! cache-resident while the voters stream past. A profile of at most
//! `u16::MAX` voters accumulates straight into its narrow `strict` in
//! one pass, safe from overflow by the voter bound (see
//! [`CHUNK_VOTERS`]). A wider one is split into chunks of at most
//! [`CHUNK_VOTERS`] voters: each chunk fills a `u16` partial, which is
//! widened into the `u32` `strict` in one sequential pass. There is no
//! second matrix to derive. DESIGN.md §3.3b documents the
//! microarchitecture; `tests/tally_conformance.rs` proves the tiled,
//! narrow-cell build bit-identical to the naive `prefers()` reference,
//! including the chunk-promotion boundaries.
//!
//! # Kemeny scan
//!
//! [`ProfileTally::kemeny_cost_x2`] reads `strict` alone, one
//! branch-free mask-and-add per cell at the cell width, summed in runs
//! short enough that the width cannot overflow (the identity is on the
//! method). It is pinned to the former
//! two-matrix branchy scan, kept as `bucketrank_bench::oracle`, by
//! `tests/tally_conformance.rs` and the `bench_aggregate_tally` gate.

use crate::error::check_inputs;
use crate::AggregateError;
use bucketrank_core::{BucketOrder, ElementId};
use std::ops::{AddAssign, BitAnd, BitXor, SubAssign};

/// Rows per accumulation tile: the write slab kept cache-hot while a
/// chunk's voters stream past it. `TILE_ROWS × n` `u16` cells is 16 KB
/// at `n = 512` — L1-resident alongside one voter's 4·n-byte
/// bucket-index row on any contemporary core, and still comfortably
/// L2-resident for domains an order of magnitude wider.
pub const TILE_ROWS: usize = 16;

/// Most voters accumulated into one `u16` chunk partial.
///
/// **Overflow proof for the narrow cells:** a voter increments
/// `partial[a·n + b]` at most once (the kernel adds
/// `(bof[b] > bof[a]) as u16`, which is 0 or 1, exactly once per
/// `(a, b)` per voter), so after `c ≤ CHUNK_VOTERS = u16::MAX` voters
/// every cell is at most `c ≤ u16::MAX`. A profile of at most
/// `u16::MAX` voters is one such matrix, and its `u16` cells are the
/// tally itself; a wider profile's partials are promoted to the `u32`
/// accumulator once per chunk, never read back, so no wider value ever
/// lands in a `u16` cell.
pub const CHUNK_VOTERS: usize = u16::MAX as usize;

/// Whether a tally over `n` elements and `m` voters stores `u16`
/// cells: every cell counts at most `m` voters, and every bucket index
/// of an `n`-element order is below `n`, so both fit the narrow width.
/// The width is a function of `(n, m)` alone.
fn fits_narrow(n: usize, m: usize) -> bool {
    m <= usize::from(u16::MAX) && n <= 1 << 16
}

/// One strict-count cell width, `u16` or `u32`. Each `O(n²)` kernel is
/// written once over it, with the bucket keys narrowed to the same
/// width ([`Cell::keys`]) so the compare-and-add runs at one lane width
/// and vectorizes.
trait Cell:
    Copy
    + Default
    + Ord
    + From<bool>
    + Into<u32>
    + AddAssign
    + SubAssign
    + BitAnd<Output = Self>
    + BitXor<Output = Self>
{
    /// The largest cell value.
    const MAX: u32;
    /// The low bits of `x` at this width.
    fn wrap(x: u32) -> Self;
    /// Wrapping addition at this width.
    fn wrapping_add(self, rhs: Self) -> Self;
    /// Wrapping subtraction at this width.
    fn wrapping_sub(self, rhs: Self) -> Self;
    /// A bucket-index map at this width: `bof` itself for `u32`, else
    /// narrowed into `scratch` in `O(n)`.
    fn keys<'a>(bof: &'a [u32], scratch: &'a mut Vec<u16>) -> &'a [Self];
}

impl Cell for u16 {
    const MAX: u32 = u16::MAX as u32;
    fn wrap(x: u32) -> Self {
        x as u16
    }
    fn wrapping_add(self, rhs: Self) -> Self {
        u16::wrapping_add(self, rhs)
    }
    fn wrapping_sub(self, rhs: Self) -> Self {
        u16::wrapping_sub(self, rhs)
    }
    fn keys<'a>(bof: &'a [u32], scratch: &'a mut Vec<u16>) -> &'a [Self] {
        scratch.clear();
        scratch.extend(
            bof.iter()
                .map(|&b| u16::try_from(b).expect("narrow cells imply bucket indices below 2^16")),
        );
        scratch
    }
}

impl Cell for u32 {
    const MAX: u32 = u32::MAX;
    fn wrap(x: u32) -> Self {
        x
    }
    fn wrapping_add(self, rhs: Self) -> Self {
        u32::wrapping_add(self, rhs)
    }
    fn wrapping_sub(self, rhs: Self) -> Self {
        u32::wrapping_sub(self, rhs)
    }
    fn keys<'a>(bof: &'a [u32], _: &'a mut Vec<u16>) -> &'a [Self] {
        bof
    }
}

/// The strict-count matrix at the width [`fits_narrow`] selects.
#[derive(Debug, PartialEq, Eq)]
enum Cells {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

/// Runs `$body` with `$s` bound to the matrix of a `Cells` at its
/// stored width: one dispatch per call, the body compiled once per
/// width.
macro_rules! with_cells {
    ($cells:expr, $s:ident => $body:expr) => {
        match $cells {
            Cells::Narrow($s) => $body,
            Cells::Wide($s) => $body,
        }
    };
}

impl Cells {
    fn zeros(n: usize, m: usize) -> Self {
        if fits_narrow(n, m) {
            Cells::Narrow(vec![0; n * n])
        } else {
            Cells::Wide(vec![0; n * n])
        }
    }

    /// Converts the cells in place to the width `(n, m)` selects — one
    /// `O(n²)` pass when the width changes, nothing otherwise. Every
    /// cell is at most `m`, so narrowing is exact.
    fn refit(&mut self, n: usize, m: usize) {
        let narrow = fits_narrow(n, m);
        match self {
            Cells::Narrow(s) if !narrow => {
                let wide = s.iter().map(|&c| u32::from(c)).collect();
                *self = Cells::Wide(wide);
            }
            Cells::Wide(s) if narrow => {
                let cells = s
                    .iter()
                    .map(|&c| u16::try_from(c).expect("a cell counts at most m ≤ u16::MAX voters"))
                    .collect();
                *self = Cells::Narrow(cells);
            }
            _ => {}
        }
    }

    fn len(&self) -> usize {
        with_cells!(self, s => s.len())
    }

    fn get(&self, i: usize) -> u32 {
        with_cells!(self, s => widen(s[i]))
    }
}

/// One cell as `u32`, at either width.
fn widen<C: Cell>(c: C) -> u32 {
    c.into()
}

impl Clone for Cells {
    fn clone(&self) -> Self {
        match self {
            Cells::Narrow(s) => Cells::Narrow(s.clone()),
            Cells::Wide(s) => Cells::Wide(s.clone()),
        }
    }

    /// Copies into `self`'s buffer when the widths match (no allocation
    /// when the capacity suffices) and trims it to the source's size; a
    /// buffer of the other width is replaced.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Cells::Narrow(d), Cells::Narrow(s)) => {
                d.clone_from(s);
                d.shrink_to_fit();
            }
            (Cells::Wide(d), Cells::Wide(s)) => {
                d.clone_from(s);
                d.shrink_to_fit();
            }
            (d, s) => *d = s.clone(),
        }
    }
}

/// Reused scratch for the incremental edit passes: the edited
/// rankings' bucket indices narrowed to `u16` cells (the old and the
/// new ranking of a replace), untouched while the cells are `u32`.
#[derive(Debug, Clone, Default)]
pub(crate) struct EditKeys([Vec<u16>; 2]);

/// A computation over the raw strict-count matrix (`n × n`, row-major)
/// at the tally's stored cell width, run by
/// [`ProfileTally::visit_strict`]; `visit` is generic over the width,
/// so the consumer's loop is compiled once per width and pays no
/// per-cell dispatch.
pub(crate) trait StrictVisitor {
    /// The computation's result.
    type Out;
    /// Runs the computation over `strict`.
    fn visit<C: Copy + Ord + Into<u64>>(self, strict: &[C]) -> Self::Out;
}

/// Applies one voter's contribution to the strict-count matrix with
/// sign `+1` (`add`) or `−1`: row `a` moves by 1 at every `b` the voter
/// ranks strictly later than `a` (`bb > ba`) — the same branchless
/// compare-and-add over zipped slices as the batch build's kernel, so
/// the maintained matrix stays **byte-identical** to a fresh
/// [`ProfileTally::build`]. The voter's bucket indices are narrowed to
/// the cell width once (into `scratch`), so the pass runs at one width.
/// The self-pair is never touched, because `ba > ba` is false.
/// Subtraction cannot underflow when retracting a stored contribution:
/// every cell is a sum over live voters' contributions.
fn apply_voter<C: Cell>(
    strict: &mut [C],
    n: usize,
    voter: &BucketOrder,
    scratch: &mut Vec<u16>,
    add: bool,
) {
    let bof = C::keys(voter.bucket_indices(), scratch);
    // `max(1)`: an empty domain has no rows, but a chunk width must be
    // nonzero.
    for (row, &ba) in strict.chunks_exact_mut(n.max(1)).zip(bof) {
        if add {
            for (s, &bb) in row.iter_mut().zip(bof) {
                *s += C::from(bb > ba);
            }
        } else {
            for (s, &bb) in row.iter_mut().zip(bof) {
                *s -= C::from(bb > ba);
            }
        }
    }
}

/// One fused row pass of [`ProfileTally::replace_voter`]: retracts
/// the old ranking's contribution to row `a` and adds the new one's in
/// the same sweep (`oa`/`na` = element `a`'s old/new bucket index).
/// Cells and bucket keys share one width. `strict` moves by
/// `[nb > na] − [ob > oa]` in wrapping arithmetic at that width — the
/// true cell after the edit is a live-voter count, which fits it, so
/// the wrapped result is exact. The diagonal needs no split: an element
/// ties itself in both rankings, so its delta is zero.
#[inline]
fn replace_row<C: Cell>(strict: &mut [C], old: &[C], new: &[C], oa: C, na: C) {
    for ((s, &ob), &nb) in strict.iter_mut().zip(old).zip(new) {
        *s = s.wrapping_add(C::from(nb > na)).wrapping_sub(C::from(ob > oa));
    }
}

/// A read-only view of a tally's strict-count matrix (`n × n`,
/// row-major) at whatever cell width the tally stores; every read is
/// widened to `u32`.
#[derive(Debug, Clone, Copy)]
pub struct StrictCounts<'a>(&'a Cells);

impl<'a> StrictCounts<'a> {
    /// Number of cells (`n²`).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the matrix has no cells (`n = 0`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell `i = a·n + b`: the number of voters strictly preferring `a`
    /// over `b`.
    ///
    /// # Panics
    /// If `i ≥ len()`.
    pub fn get(&self, i: usize) -> u32 {
        self.0.get(i)
    }

    /// Every cell in row-major order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u32> + 'a {
        let cells = self.0;
        (0..cells.len()).map(move |i| cells.get(i))
    }
}

/// The pairwise-preference tally of a profile; see the [module
/// docs](self).
#[derive(Debug, PartialEq, Eq)]
pub struct ProfileTally {
    n: usize,
    m: usize,
    /// `strict[a·n + b]` = number of voters strictly preferring `a`
    /// over `b` — the only matrix; every weight is derived from it. Its
    /// width is a function of `(n, m)`, so equal tallies compare equal
    /// cell for cell.
    strict: Cells,
}

impl Clone for ProfileTally {
    fn clone(&self) -> Self {
        ProfileTally {
            n: self.n,
            m: self.m,
            strict: self.strict.clone(),
        }
    }

    /// Copies `source` into `self`'s existing buffer — no allocation
    /// when the capacity suffices and the cell widths match, which is
    /// how a recycled snapshot
    /// ([`crate::dynamic::DynamicProfile::snapshot_reusing`]) avoids
    /// fresh pages. The buffer is then trimmed to the source's size, so
    /// a copy never keeps a larger profile's memory alive; a buffer of
    /// the other width is reallocated.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.m = source.m;
        self.strict.clone_from(&source.strict);
    }
}

/// Accumulates one chunk of voters into a `u16` strict-count matrix.
///
/// Branchless comparison kernel: `strict(a, b)` gains one exactly when
/// the voter puts `b` in a strictly later bucket than `a`, so row `a`
/// is a single zip of the row slab against the voter's contiguous
/// bucket-index map — the compare-and-add has no data-dependent
/// control flow and the `zip` elides every bounds check, so it
/// autovectorizes. The diagonal needs no special case: `bof[a] >
/// bof[a]` is false, so the cell stays zero.
///
/// Tiling: `a`-rows are blocked in [`TILE_ROWS`]-row slabs and the
/// voter loop runs *inside* the tile loop, so one `TILE_ROWS × n`
/// `u16` slab absorbs every voter's writes while cache-hot; cold write
/// traffic per chunk is one matrix, not one matrix per voter.
///
/// Overflow: each voter adds at most one per cell, and at most
/// `CHUNK_VOTERS` voters ever land in one matrix — see the proof on
/// [`CHUNK_VOTERS`].
fn accumulate_chunk(partial: &mut [u16], n: usize, chunk: &[BucketOrder]) {
    debug_assert!(chunk.len() <= CHUNK_VOTERS);
    let mut row0 = 0usize;
    while row0 < n {
        let row1 = (row0 + TILE_ROWS).min(n);
        for voter in chunk {
            let bof = voter.bucket_indices();
            for a in row0..row1 {
                let ba = bof[a];
                let row = &mut partial[a * n..(a + 1) * n];
                for (cell, &bb) in row.iter_mut().zip(bof) {
                    *cell += u16::from(bb > ba);
                }
            }
        }
        row0 = row1;
    }
}

/// Accumulates `voters` into a fresh `u32` strict-count matrix: each
/// chunk of at most [`CHUNK_VOTERS`] voters fills a reused `u16`
/// partial, which is then widened into the result — the promotion
/// path, exact because a partial never overflows.
fn accumulate_wide(n: usize, voters: &[BucketOrder]) -> Vec<u32> {
    let mut acc = vec![0u32; n * n];
    let mut partial = vec![0u16; n * n];
    for (i, chunk) in voters.chunks(CHUNK_VOTERS).enumerate() {
        if i > 0 {
            partial.fill(0);
        }
        accumulate_chunk(&mut partial, n, chunk);
        for (cell, &p) in acc.iter_mut().zip(&partial) {
            *cell += u32::from(p);
        }
    }
    acc
}

impl ProfileTally {
    /// Builds the tally: one tiled pass over the voters — straight into
    /// the `u16` cells of a narrow profile, through widened `u16` chunk
    /// partials otherwise.
    ///
    /// # Errors
    /// [`AggregateError::NoInputs`] /
    /// [`AggregateError::DomainMismatch`].
    ///
    /// # Panics
    /// Panics if the profile has more than `u32::MAX / 2` voters (the
    /// ×2-scaled weights would overflow the `u32` cells).
    pub fn build(inputs: &[BucketOrder]) -> Result<Self, AggregateError> {
        let n = check_inputs(inputs)?;
        let m = inputs.len();
        assert!(
            m <= (u32::MAX / 2) as usize,
            "profile too large for u32 tally cells ({m} voters)"
        );
        let strict = if fits_narrow(n, m) {
            let mut acc = vec![0u16; n * n];
            accumulate_chunk(&mut acc, n, inputs);
            Cells::Narrow(acc)
        } else {
            Cells::Wide(accumulate_wide(n, inputs))
        };
        Ok(ProfileTally { n, m, strict })
    }

    /// The tally of zero voters over `n` elements — the dynamic engine's
    /// ([`crate::dynamic`]) starting point.
    pub(crate) fn empty(n: usize) -> Self {
        ProfileTally {
            n,
            m: 0,
            strict: Cells::zeros(n, 0),
        }
    }

    /// Assembles a tally from an already-consistent strict-count
    /// matrix, stored at the width `(n, m)` selects. Callers must uphold
    /// the build invariants: `strict` is `n × n` row-major with a zero
    /// diagonal, and `strict(a, b) + strict(b, a) ≤ m` for every pair.
    #[cfg(test)]
    pub(crate) fn from_parts(n: usize, m: usize, strict: Vec<u32>) -> Self {
        debug_assert_eq!(strict.len(), n * n);
        let mut strict = Cells::Wide(strict);
        strict.refit(n, m);
        ProfileTally { n, m, strict }
    }

    /// Runs `visitor` over the stored matrix at its cell width: one
    /// width dispatch per call, the visitor's body compiled once per
    /// width.
    pub(crate) fn visit_strict<V: StrictVisitor>(&self, visitor: V) -> V::Out {
        with_cells!(&self.strict, s => visitor.visit(s))
    }

    /// Adds one voter's contribution in place — the incremental push of
    /// [`crate::dynamic`]; `O(n²)`, byte-identical to a fresh
    /// [`ProfileTally::build`] over the new profile. The cells take the
    /// width `m + 1` selects *before* the pass, so a cell that reaches
    /// 65 536 is already wide.
    pub(crate) fn push_voter(&mut self, voter: &BucketOrder, keys: &mut EditKeys) {
        debug_assert_eq!(voter.len(), self.n);
        self.set_voters(self.m + 1);
        let n = self.n;
        with_cells!(&mut self.strict, s => apply_voter(s, n, voter, &mut keys.0[0], true));
    }

    /// Retracts one voter's contribution in place; `voter` must be a
    /// ranking this tally counts (a live voter's stored copy), so no
    /// cell underflows. The cells take the width `m − 1` selects
    /// *after* the pass, once every cell fits it.
    pub(crate) fn remove_voter(&mut self, voter: &BucketOrder, keys: &mut EditKeys) {
        debug_assert!(voter.len() == self.n && self.m > 0);
        let n = self.n;
        with_cells!(&mut self.strict, s => apply_voter(s, n, voter, &mut keys.0[0], false));
        self.set_voters(self.m - 1);
    }

    /// Swaps a counted voter's `old` ranking for `new` in one fused
    /// pass over the rows (the voter count and so the width are
    /// unchanged).
    pub(crate) fn replace_voter(
        &mut self,
        old: &BucketOrder,
        new: &BucketOrder,
        keys: &mut EditKeys,
    ) {
        debug_assert!(old.len() == self.n && new.len() == self.n && self.m > 0);
        let n = self.n;
        let [ko, kn] = &mut keys.0;
        with_cells!(&mut self.strict, s => {
            let ob = Cell::keys(old.bucket_indices(), ko);
            let nb = Cell::keys(new.bucket_indices(), kn);
            // `max(1)`: an empty domain has no rows, but a chunk width
            // must be nonzero.
            for ((row, &oa), &na) in s.chunks_exact_mut(n.max(1)).zip(ob).zip(nb) {
                replace_row(row, ob, nb, oa, na);
            }
        })
    }

    /// Sets the voter count after an incremental edit and converts the
    /// cells to the width the new count selects.
    fn set_voters(&mut self, m: usize) {
        self.m = m;
        self.strict.refit(self.n, m);
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of voters tallied.
    pub fn voters(&self) -> usize {
        self.m
    }

    /// The ×2-scaled pairwise weight: `2·strict(a, b) + ties(a, b)`,
    /// derived as `m + strict(a, b) − strict(b, a)` (see the [module
    /// docs](self#scaling-convention)).
    pub fn weight_x2(&self, a: ElementId, b: ElementId) -> u32 {
        self.m as u32 + self.strict_count(a, b) - self.strict_count(b, a)
    }

    /// Number of voters strictly preferring `a` over `b`.
    pub fn strict_count(&self, a: ElementId, b: ElementId) -> u32 {
        self.strict.get(a as usize * self.n + b as usize)
    }

    /// Number of voters tying the pair (`a ≠ b`).
    pub fn tie_count(&self, a: ElementId, b: ElementId) -> u32 {
        self.m as u32 - self.strict_count(a, b) - self.strict_count(b, a)
    }

    /// Signed majority margin `strict(a, b) − strict(b, a)`.
    pub fn margin(&self, a: ElementId, b: ElementId) -> i64 {
        i64::from(self.strict_count(a, b)) - i64::from(self.strict_count(b, a))
    }

    /// Whether strictly more voters prefer `a` over `b` than the
    /// reverse (the majority-digraph edge; tying voters count for
    /// neither side).
    pub fn majority_prefers(&self, a: ElementId, b: ElementId) -> bool {
        self.margin(a, b) > 0
    }

    /// Whether a strict majority of **all** voters prefers `a` over `b`
    /// (`strict(a, b) > m/2`) — the MC4 transition condition, which is
    /// stronger than [`ProfileTally::majority_prefers`] when voters tie
    /// the pair.
    pub fn strict_majority(&self, a: ElementId, b: ElementId) -> bool {
        2 * u64::from(self.strict_count(a, b)) > self.m as u64
    }

    /// [`ProfileTally::strict_majority`]`(a, b)` for every `a` at once,
    /// yielded in element order — the whole column `b` of `strict`,
    /// walked with stride `n`. The MC4 transition rows are built from
    /// it.
    ///
    /// The diagonal entry (`a == b`) is meaningless (it reads the zero
    /// self-cell, so `false`); callers skip it.
    pub fn strict_majorities_against(&self, b: ElementId) -> impl Iterator<Item = bool> + '_ {
        let (m, cells) = (self.m as u64, &self.strict);
        (b as usize..cells.len())
            .step_by(self.n)
            .map(move |i| 2 * u64::from(cells.get(i)) > m)
    }

    /// The ×2 `Kprof` cost of placing `ahead` strictly ahead of
    /// `behind`: 2 per voter preferring `behind`, 1 per tying voter.
    pub fn pair_cost_x2(&self, ahead: ElementId, behind: ElementId) -> u32 {
        self.weight_x2(behind, ahead)
    }

    /// The ×2 objective change from swapping an adjacent pair currently
    /// ordered `(ahead, behind)` to `(behind, ahead)`; negative means
    /// the swap improves the candidate. Equals
    /// `pair_cost_x2(behind, ahead) − pair_cost_x2(ahead, behind)`,
    /// which the `m` terms cancel out of: `2·margin(ahead, behind)`.
    pub fn swap_delta_x2(&self, ahead: ElementId, behind: ElementId) -> i64 {
        2 * self.margin(ahead, behind)
    }

    /// The ×2 weight matrix (`n × n`, row-major, zero diagonal),
    /// derived from `strict` on every call — an `O(n²)` allocation for
    /// callers that want the whole matrix; queries should use
    /// [`ProfileTally::weight_x2`].
    pub fn weights_x2(&self) -> Vec<u32> {
        let n = self.n as ElementId;
        let mut w2 = Vec::with_capacity(self.n * self.n);
        for a in 0..n {
            for b in 0..n {
                w2.push(if a == b { 0 } else { self.weight_x2(a, b) });
            }
        }
        w2
    }

    /// The strict-count matrix (`n × n`, row-major), as a view that
    /// reads every cell as `u32` whatever width the tally stores.
    pub fn strict_counts(&self) -> StrictCounts<'_> {
        StrictCounts(&self.strict)
    }

    /// The total `Kprof` objective `2·Σ_i Kprof(candidate, σ_i)` of any
    /// candidate bucket order, in `O(n²)` — independent of the number
    /// of voters. Ties in the candidate are handled exactly: a pair the
    /// candidate ties costs 1 (×2 scale) per voter ordering it either
    /// way.
    ///
    /// One branch-free pass over `strict` alone. Writing the ordered
    /// pairs' cost `w2(l, w) = m + s(l, w) − s(w, l)` out, the total is
    /// `m·P + Σ_{l,w} s(l, w)·(b_w ≤ b_l ? +1 : −1)` with `P` the
    /// number of pairs the candidate orders strictly (`b` = candidate
    /// bucket index; the diagonal is zero). Each of those `P` pairs
    /// has exactly one cell with `b_w > b_l`, so folding its `m` into
    /// that cell makes every term a cell value in `0..=m`:
    /// `Σ_{l,w} (b_w ≤ b_l ? s(l, w) : m − s(l, w))`. The scan runs at
    /// the tally's cell width, over the candidate's bucket indices
    /// narrowed to it, and sums rows in runs of `MAX / max(m, 1)` cells
    /// (`MAX` of the cell width) — no run can overflow — each widened
    /// once into the `u64` total.
    ///
    /// Agrees exactly with summing
    /// [`kendall::kprof_x2`](bucketrank_metrics::kendall::kprof_x2)
    /// over the voters (enforced by `tests/tally_conformance.rs`).
    ///
    /// # Errors
    /// [`AggregateError::DomainMismatch`] if the candidate's domain
    /// size differs from the tally's.
    pub fn kemeny_cost_x2(&self, candidate: &BucketOrder) -> Result<u64, AggregateError> {
        let n = self.n;
        if candidate.len() != n {
            return Err(AggregateError::DomainMismatch {
                expected: n,
                found: candidate.len(),
            });
        }
        if n == 0 {
            return Ok(0);
        }
        let bof = candidate.bucket_indices();
        Ok(with_cells!(&self.strict, s => kemeny_scan(s, self.m, bof)))
    }
}

/// The scan behind [`ProfileTally::kemeny_cost_x2`] at one cell width;
/// `bof` is the candidate's bucket-index map (`n ≥ 1` entries).
fn kemeny_scan<C: Cell>(strict: &[C], m: usize, bof: &[u32]) -> u64 {
    let mut scratch = Vec::new();
    let buckets = C::keys(bof, &mut scratch);
    let n = buckets.len();
    let run = (C::MAX / (m as u32).max(1)) as usize;
    // `m + 1` wraps to 0 in `u16` at m = u16::MAX; the masked term below
    // is then still `m − s` modulo the width, and `m − s` fits it.
    let m1 = C::wrap(m as u32 + 1);
    let mut total = 0u64;
    for (row, &bl) in strict.chunks_exact(n).zip(buckets) {
        for (cells, bws) in row.chunks(run).zip(buckets.chunks(run)) {
            let mut sum = C::default();
            for (&s, &bw) in cells.iter().zip(bws) {
                // All ones when the candidate puts `w` after `l`: the
                // cell is then `(s ^ !0) + (m + 1) = m − s`.
                let later = C::default().wrapping_sub(C::from(bw > bl));
                sum += (s ^ later).wrapping_add(later & m1);
            }
            total += u64::from(widen(sum));
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use bucketrank_metrics::kendall;

    fn keys(k: &[i64]) -> BucketOrder {
        BucketOrder::from_keys(k)
    }

    fn naive_weights(inputs: &[BucketOrder]) -> Vec<u32> {
        let n = inputs[0].len();
        let mut w2 = vec![0u32; n * n];
        for s in inputs {
            for a in 0..n as ElementId {
                for b in 0..n as ElementId {
                    if a == b {
                        continue;
                    }
                    let cell = &mut w2[a as usize * n + b as usize];
                    if s.prefers(a, b) {
                        *cell += 2;
                    } else if s.is_tied(a, b) {
                        *cell += 1;
                    }
                }
            }
        }
        w2
    }

    #[test]
    fn weights_match_naive_prefers_loop() {
        let inputs = vec![
            keys(&[1, 1, 2, 3, 2]),
            keys(&[3, 2, 1, 1, 1]),
            keys(&[2, 2, 2, 2, 2]),
            BucketOrder::from_permutation(&[4, 2, 0, 3, 1]).unwrap(),
        ];
        let t = ProfileTally::build(&inputs).unwrap();
        assert_eq!(t.weights_x2(), naive_weights(&inputs));
        assert_eq!(t.voters(), 4);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn counts_and_queries_are_consistent() {
        let inputs = vec![keys(&[1, 2, 2]), keys(&[2, 1, 1]), keys(&[1, 1, 2])];
        let t = ProfileTally::build(&inputs).unwrap();
        for a in 0..3 {
            for b in 0..3 {
                if a == b {
                    continue;
                }
                let strict = inputs.iter().filter(|s| s.prefers(a, b)).count() as u32;
                let ties = inputs.iter().filter(|s| s.is_tied(a, b)).count() as u32;
                assert_eq!(t.strict_count(a, b), strict);
                assert_eq!(t.tie_count(a, b), ties);
                assert_eq!(t.weight_x2(a, b), 2 * strict + ties);
                assert_eq!(t.weight_x2(a, b) + t.weight_x2(b, a), 2 * 3);
                assert_eq!(
                    t.majority_prefers(a, b),
                    t.strict_count(a, b) > t.strict_count(b, a)
                );
                assert_eq!(t.strict_majority(a, b), strict as usize * 2 > inputs.len());
                assert_eq!(
                    t.margin(a, b),
                    t.strict_count(a, b) as i64 - t.strict_count(b, a) as i64
                );
            }
        }
    }

    #[test]
    fn strict_majorities_against_matches_pointwise_query() {
        let inputs = vec![
            keys(&[1, 2, 2, 3]),
            keys(&[2, 1, 1, 1]),
            keys(&[3, 3, 1, 2]),
            keys(&[1, 1, 2, 2]),
        ];
        let t = ProfileTally::build(&inputs).unwrap();
        for b in 0..4 {
            let col: Vec<bool> = t.strict_majorities_against(b).collect();
            assert_eq!(col.len(), 4);
            for a in 0..4 {
                if a != b {
                    assert_eq!(col[a as usize], t.strict_majority(a, b), "({a},{b})");
                }
            }
        }
    }

    #[test]
    fn kemeny_cost_equals_kprof_sum() {
        let inputs = vec![
            keys(&[1, 2, 3, 4]),
            keys(&[2, 1, 4, 3]),
            keys(&[1, 1, 2, 2]),
        ];
        let t = ProfileTally::build(&inputs).unwrap();
        for cand in [
            BucketOrder::from_permutation(&[3, 1, 0, 2]).unwrap(),
            keys(&[1, 2, 2, 1]),
            BucketOrder::trivial(4),
        ] {
            let direct: u64 = inputs
                .iter()
                .map(|s| kendall::kprof_x2(&cand, s).unwrap())
                .sum();
            assert_eq!(t.kemeny_cost_x2(&cand).unwrap(), direct, "{cand:?}");
        }
    }

    #[test]
    fn swap_delta_matches_cost_difference() {
        let inputs = vec![keys(&[1, 2, 3]), keys(&[3, 1, 2]), keys(&[2, 2, 1])];
        let t = ProfileTally::build(&inputs).unwrap();
        let perm = [2 as ElementId, 0, 1];
        let base = t
            .kemeny_cost_x2(&BucketOrder::from_permutation(&perm).unwrap())
            .unwrap() as i64;
        for i in 0..2 {
            let mut sw = perm;
            sw.swap(i, i + 1);
            let after = t
                .kemeny_cost_x2(&BucketOrder::from_permutation(&sw).unwrap())
                .unwrap() as i64;
            assert_eq!(after - base, t.swap_delta_x2(perm[i], perm[i + 1]));
        }
    }

    #[test]
    fn degenerate_domains_and_errors() {
        let t = ProfileTally::build(&[BucketOrder::trivial(0)]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.kemeny_cost_x2(&BucketOrder::trivial(0)).unwrap(), 0);
        let t = ProfileTally::build(&[BucketOrder::trivial(1)]).unwrap();
        assert_eq!(t.kemeny_cost_x2(&BucketOrder::trivial(1)).unwrap(), 0);
        assert!(ProfileTally::build(&[]).is_err());
        assert!(
            ProfileTally::build(&[BucketOrder::trivial(2), BucketOrder::trivial(3)]).is_err()
        );
        let t = ProfileTally::build(&[BucketOrder::trivial(2)]).unwrap();
        assert!(t.kemeny_cost_x2(&BucketOrder::trivial(3)).is_err());
    }

    /// The two-matrix formula in `u128`: ordered pairs cost
    /// `w2(loser, winner)`, candidate-tied pairs `strict` both ways.
    fn wide_two_matrix_cost(t: &ProfileTally, candidate: &BucketOrder) -> u128 {
        let (n, b) = (t.len(), candidate.bucket_indices());
        let mut total = 0u128;
        let s = |x: usize, y: usize| u128::from(t.strict_count(x as ElementId, y as ElementId));
        for l in 0..n {
            for w in 0..n {
                if b[w] < b[l] {
                    total += t.m as u128 + s(l, w) - s(w, l);
                } else if b[w] == b[l] && w != l {
                    total += s(l, w);
                }
            }
        }
        total
    }

    /// A consistent synthetic tally over `m` voters: per unordered
    /// pair, `s(a, b) + s(b, a) ≤ m`, with the extremes (unanimous
    /// either way, all tied) drawn often so cells sit at `m`.
    fn synthetic(n: usize, m: usize, seed: u64) -> ProfileTally {
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let m32 = m as u32;
        let mut strict = vec![0u32; n * n];
        for a in 0..n {
            for b in a + 1..n {
                let (sab, sba) = match next() % 4 {
                    0 => (m32, 0),
                    1 => (0, m32),
                    2 => (0, 0),
                    _ => {
                        let sab = (next() % (u64::from(m32) + 1)) as u32;
                        (sab, (next() % u64::from(m32 - sab + 1)) as u32)
                    }
                };
                strict[a * n + b] = sab;
                strict[b * n + a] = sba;
            }
        }
        ProfileTally::from_parts(n, m, strict)
    }

    #[test]
    fn kemeny_cost_is_exact_across_u32_run_boundaries() {
        use crate::dynamic::DynamicProfile;
        let max = DynamicProfile::MAX_VOTERS;
        // Near the voter cap a run is 2 cells (`max`, `max − 1`) or 6
        // (`max / 3`), so runs split rows: a row ends on a full run or
        // on a partial one depending on `n mod run`, and n < run keeps
        // one run per row. m = 0 gives the widest run.
        for m in [max, max - 1, max / 3, 0] {
            let run = (u32::MAX / (m as u32).max(1)) as usize;
            for n in [2usize, 3, 4, 5, 7, 13] {
                let t = synthetic(n, m, (m * 31 + n) as u64);
                let cands = [
                    BucketOrder::trivial(n),
                    BucketOrder::from_keys(&(0..n as i64).collect::<Vec<_>>()),
                    BucketOrder::from_keys(&(0..n as i64).map(|e| (e * 7) % 3).collect::<Vec<_>>()),
                    BucketOrder::from_keys(&(0..n as i64).map(|e| e / 2).rev().collect::<Vec<_>>()),
                ];
                for cand in &cands {
                    assert_eq!(
                        u128::from(t.kemeny_cost_x2(cand).unwrap()),
                        wide_two_matrix_cost(&t, cand),
                        "m = {m}, n = {n}, run = {run}, {cand:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cells_are_exact_on_both_sides_of_the_u16_boundary() {
        // m = u16::MAX is the widest narrow tally, with cells at exactly
        // u16::MAX and the scan's `m + 1` wrapping to 0; one more voter
        // stores u32 cells. Both must read the same as the u128 formula.
        let narrow_max = usize::from(u16::MAX);
        for m in [narrow_max - 1, narrow_max, narrow_max + 1] {
            for n in [1usize, 2, 3, 5, 8] {
                let t = synthetic(n, m, (m * 17 + n) as u64);
                assert_eq!(matches!(t.strict, Cells::Narrow(_)), m <= narrow_max, "m = {m}");
                let cands = [
                    BucketOrder::trivial(n),
                    BucketOrder::from_keys(&(0..n as i64).collect::<Vec<_>>()),
                    BucketOrder::from_keys(&(0..n as i64).map(|e| (e * 5) % 3).collect::<Vec<_>>()),
                ];
                for cand in &cands {
                    assert_eq!(
                        u128::from(t.kemeny_cost_x2(cand).unwrap()),
                        wide_two_matrix_cost(&t, cand),
                        "m = {m}, n = {n}, {cand:?}"
                    );
                }
                let m128 = m as u128;
                for a in 0..n as ElementId {
                    for b in (0..n as ElementId).filter(|&b| b != a) {
                        let (sab, sba) = (t.strict_count(a, b), t.strict_count(b, a));
                        let (sab, sba) = (u128::from(sab), u128::from(sba));
                        assert_eq!(u128::from(t.weight_x2(a, b)), m128 + sab - sba);
                        assert_eq!(i128::from(t.margin(a, b)), sab as i128 - sba as i128);
                        assert_eq!(u128::from(t.tie_count(a, b)), m128 - sab - sba);
                    }
                }
                // A zero-voter spare (narrow) takes either width's copy.
                let mut copy = ProfileTally::empty(n);
                copy.clone_from(&t);
                assert_eq!(copy, t);
            }
        }
    }

    #[test]
    fn clone_from_copies_across_widths_and_domain_sizes() {
        let narrow = synthetic(4, 9, 1);
        let wide = synthetic(4, usize::from(u16::MAX) + 1, 2);
        let other_n = synthetic(6, 3, 3);
        for (spare, source) in [(&narrow, &wide), (&wide, &narrow), (&other_n, &wide), (&wide, &other_n)] {
            let mut copy = spare.clone();
            copy.clone_from(source);
            assert_eq!(&copy, source);
            assert_eq!(copy.strict_counts().len(), source.len() * source.len());
        }
    }

    #[test]
    fn derived_accessors_are_exact_at_the_u32_boundary() {
        use crate::dynamic::DynamicProfile;
        // At m = MAX_VOTERS a unanimous pair has `s(b, a) = m`, so
        // subtracting before adding `m` would underflow the `u32`.
        for m in [0, 1, DynamicProfile::MAX_VOTERS] {
            for n in [1usize, 2, 5, 9] {
                let t = synthetic(n, m, (m + n) as u64);
                let m64 = m as u64;
                for a in 0..n as ElementId {
                    let col: Vec<bool> = t.strict_majorities_against(a).collect();
                    assert_eq!(col.len(), n);
                    for b in 0..n as ElementId {
                        let (sab, sba) = (t.strict_count(a, b), t.strict_count(b, a));
                        let w_ab = m64 + u64::from(sab) - u64::from(sba);
                        let w_ba = m64 + u64::from(sba) - u64::from(sab);
                        // Column `a`: does a strict majority prefer `b` over `a`?
                        assert_eq!(col[b as usize], 2 * u64::from(sba) > m64, "m = {m}");
                        if a == b {
                            continue;
                        }
                        assert_eq!(u64::from(t.weight_x2(a, b)), w_ab, "m = {m}, ({a},{b})");
                        assert_eq!(u64::from(t.pair_cost_x2(a, b)), w_ba, "m = {m}, ({a},{b})");
                        assert_eq!(t.margin(a, b), i64::from(sab) - i64::from(sba));
                        assert_eq!(t.swap_delta_x2(a, b), w_ab as i64 - w_ba as i64);
                        assert_eq!(w_ab + w_ba, 2 * m64);
                        assert_eq!(
                            u64::from(t.tie_count(a, b)),
                            m64 - u64::from(sab) - u64::from(sba)
                        );
                    }
                }
            }
        }
    }
}
