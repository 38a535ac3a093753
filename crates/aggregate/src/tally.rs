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
//! derive it on read, adding before subtracting so no `u32`
//! intermediate underflows, and `m + strict(a, b) ≤ 2m` fits at
//! [`DynamicProfile::MAX_VOTERS`](crate::dynamic::DynamicProfile::MAX_VOTERS).
//! For every pair, `weight_x2(a, b) + weight_x2(b, a) = 2m`. Placing
//! `a` strictly ahead of `b` in a candidate costs `weight_x2(b, a)` on
//! the `Kprof` ×2 scale (2 per voter preferring `b`, 1 per tying voter
//! — the `p = ½` penalty of Section 3.1).
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
//! Voters are split into chunks of at most [`CHUNK_VOTERS`] and each
//! chunk accumulates into a `u16` partial matrix — half the write
//! bandwidth of the final `u32` cells on the dominant pass, and safe
//! from overflow by the chunk bound (see [`CHUNK_VOTERS`]). Rows are
//! blocked into [`TILE_ROWS`]-row slabs with the voter loop *inside*
//! the tile loop, so the slab being written stays cache-resident
//! while a whole chunk streams past. Each partial, the last one
//! included, is then widened into `strict` in one sequential pass —
//! there is no second matrix to derive.
//!
//! The parallel path ([`ProfileTally::build_parallel`]) splits voters
//! across scoped threads (clamped to the machine's available
//! parallelism), each running the same chunked kernel into a private
//! partial, then merges. DESIGN.md §3.3b documents the
//! microarchitecture; `tests/tally_conformance.rs` proves the tiled,
//! narrow-cell build bit-identical to the naive `prefers()` reference,
//! including chunk-promotion boundaries.
//!
//! # Kemeny scan
//!
//! [`ProfileTally::kemeny_cost_x2`] reads `strict` alone, one
//! branch-free mask-and-add per cell summed in overflow-free `u32`
//! runs (the identity is on the method). It is pinned to the former
//! two-matrix branchy scan, kept as `bucketrank_bench::oracle`, by
//! `tests/tally_conformance.rs` and the `bench_aggregate_tally` gate.

use crate::error::check_inputs;
use crate::AggregateError;
use bucketrank_core::{BucketOrder, ElementId};

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
/// `(a, b)` per voter), so after a chunk of `c ≤ CHUNK_VOTERS =
/// u16::MAX` voters every cell is at most `c ≤ u16::MAX`. Partials are
/// promoted to the `u32` accumulator once per chunk, never read back,
/// so no wider value ever lands in a `u16` cell.
pub const CHUNK_VOTERS: usize = u16::MAX as usize;

/// The pairwise-preference tally of a profile; see the [module
/// docs](self).
#[derive(Debug, PartialEq, Eq)]
pub struct ProfileTally {
    n: usize,
    m: usize,
    /// `strict[a·n + b]` = number of voters strictly preferring `a`
    /// over `b` — the only matrix; every weight is derived from it.
    strict: Vec<u32>,
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
    /// when the capacity suffices, which is how a recycled snapshot
    /// ([`crate::dynamic::DynamicProfile::snapshot_reusing`]) avoids
    /// fresh pages. The buffer is then trimmed to the source's size, so
    /// a copy never keeps a larger profile's memory alive.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.m = source.m;
        self.strict.clone_from(&source.strict);
        self.strict.shrink_to_fit();
    }
}

/// Accumulates one chunk of voters into a `u16` strict-count partial.
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
/// Overflow: `chunk.len() ≤ CHUNK_VOTERS` and each voter adds at most
/// one per cell — see the proof on [`CHUNK_VOTERS`].
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

/// Widens one `u16` chunk partial into the `u32` accumulator — the
/// promotion path: narrow cells exist only within a chunk and are
/// summed here exactly, so chunked accumulation is bit-identical to a
/// single wide pass.
fn widen_into(acc: &mut [u32], partial: &[u16]) {
    for (cell, &p) in acc.iter_mut().zip(partial) {
        *cell += u32::from(p);
    }
}

/// Accumulates `voters` into a fresh `u32` strict-count matrix: each
/// chunk of at most `chunk_voters` voters fills a reused `u16` partial,
/// which is then widened into the result. The sequential build and
/// every parallel worker run this same pass.
fn accumulate(n: usize, voters: &[BucketOrder], chunk_voters: usize) -> Vec<u32> {
    let mut acc = vec![0u32; n * n];
    let mut partial = vec![0u16; n * n];
    for (i, chunk) in voters.chunks(chunk_voters).enumerate() {
        if i > 0 {
            partial.fill(0);
        }
        accumulate_chunk(&mut partial, n, chunk);
        widen_into(&mut acc, &partial);
    }
    acc
}

impl ProfileTally {
    /// Builds the tally sequentially: one pass per voter.
    ///
    /// # Errors
    /// [`AggregateError::NoInputs`] /
    /// [`AggregateError::DomainMismatch`].
    ///
    /// # Panics
    /// Panics if the profile has more than `u32::MAX / 2` voters (the
    /// ×2-scaled weights would overflow the `u32` cells).
    pub fn build(inputs: &[BucketOrder]) -> Result<Self, AggregateError> {
        Self::build_parallel(inputs, 1)
    }

    /// Builds the tally with up to `threads` scoped worker threads:
    /// voters are split into contiguous chunks, each thread runs the
    /// chunked `u16` kernel into a private partial, and the partials
    /// are summed into `strict`. `threads ≤ 1` (or a small profile)
    /// falls back to the sequential pass.
    ///
    /// `threads` is clamped to
    /// [`std::thread::available_parallelism`] before chunking — asking
    /// for more workers than the machine has cores used to *slow the
    /// build down* (the oversubscribed partials thrash one core and the
    /// merge pays for every extra matrix).
    ///
    /// # Errors
    /// [`AggregateError::NoInputs`] /
    /// [`AggregateError::DomainMismatch`].
    ///
    /// # Panics
    /// As [`ProfileTally::build`].
    pub fn build_parallel(inputs: &[BucketOrder], threads: usize) -> Result<Self, AggregateError> {
        let avail = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::build_split(inputs, threads.min(avail), CHUNK_VOTERS)
    }

    /// The splitter behind [`ProfileTally::build_parallel`] and
    /// [`ProfileTally::build_with_chunk`], without the core clamp: spawns
    /// exactly `min(threads, m)` workers even on a narrower machine, so
    /// the unit tests reach every split width. Each worker (or the
    /// sequential pass) accumulates `chunk_voters ≤ CHUNK_VOTERS` voters
    /// per `u16` partial.
    fn build_split(
        inputs: &[BucketOrder],
        threads: usize,
        chunk_voters: usize,
    ) -> Result<Self, AggregateError> {
        debug_assert!((1..=CHUNK_VOTERS).contains(&chunk_voters));
        let n = check_inputs(inputs)?;
        let m = inputs.len();
        assert!(
            m <= (u32::MAX / 2) as usize,
            "profile too large for u32 tally cells ({m} voters)"
        );
        let threads = threads.clamp(1, m);
        let strict = if threads <= 1 || m < 4 {
            accumulate(n, inputs, chunk_voters)
        } else {
            let per = m.div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = inputs
                    .chunks(per)
                    .map(|voters| scope.spawn(move || accumulate(n, voters, chunk_voters)))
                    .collect();
                let mut partials = handles
                    .into_iter()
                    .map(|h| h.join().expect("tally worker panicked"));
                let mut strict = partials.next().expect("at least one tally worker");
                for partial in partials {
                    for (cell, add) in strict.iter_mut().zip(partial) {
                        *cell += add;
                    }
                }
                strict
            })
        };
        Ok(ProfileTally { n, m, strict })
    }

    /// Sequential build with an explicit voter-chunk size — the
    /// conformance hook behind the chunk-boundary differential lane in
    /// `tests/tally_conformance.rs` (any `chunk_voters` must reproduce
    /// [`ProfileTally::build`] bit-for-bit). `chunk_voters` is clamped
    /// to `1..=CHUNK_VOTERS`; library callers want
    /// [`ProfileTally::build`].
    ///
    /// # Errors
    /// # Panics
    /// As [`ProfileTally::build`].
    pub fn build_with_chunk(
        inputs: &[BucketOrder],
        chunk_voters: usize,
    ) -> Result<Self, AggregateError> {
        Self::build_split(inputs, 1, chunk_voters.clamp(1, CHUNK_VOTERS))
    }

    /// Assembles a tally from an already-consistent strict-count
    /// matrix — the hook the dynamic engine ([`crate::dynamic`]) uses to
    /// start from an empty profile. Callers must uphold the build
    /// invariants: `strict` is `n × n` row-major with a zero diagonal,
    /// and `strict(a, b) + strict(b, a) ≤ m` for every pair.
    pub(crate) fn from_parts(n: usize, m: usize, strict: Vec<u32>) -> Self {
        debug_assert_eq!(strict.len(), n * n);
        ProfileTally { n, m, strict }
    }

    /// Mutable access to `strict` for in-place incremental maintenance
    /// by [`crate::dynamic`]; the caller must restore the build
    /// invariants before any query runs.
    pub(crate) fn parts_mut(&mut self) -> &mut [u32] {
        &mut self.strict
    }

    /// Sets the voter count after an incremental edit ([`crate::dynamic`]).
    pub(crate) fn set_voters(&mut self, m: usize) {
        self.m = m;
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
        self.strict[a as usize * self.n + b as usize]
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
        let m = self.m as u64;
        self.strict[b as usize..]
            .iter()
            .step_by(self.n)
            .map(move |&s_ab| 2 * u64::from(s_ab) > m)
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

    /// The flat strict-count matrix (`n × n`, row-major).
    pub fn strict_counts(&self) -> &[u32] {
        &self.strict
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
    /// `Σ_{l,w} (b_w ≤ b_l ? s(l, w) : m − s(l, w))`. Rows are summed
    /// in `u32` runs of `u32::MAX / max(m, 1)` cells — no run can
    /// overflow — each widened once into the `u64` total.
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
        let buckets = candidate.bucket_indices();
        let m = self.m as u32;
        let run = (u32::MAX / m.max(1)) as usize;
        let mut total = 0u64;
        for (row, &bl) in self.strict.chunks_exact(n).zip(buckets) {
            for (cells, bws) in row.chunks(run).zip(buckets.chunks(run)) {
                let mut sum = 0u32;
                for (&s, &bw) in cells.iter().zip(bws) {
                    // All ones when the candidate puts `w` after `l`:
                    // the cell is then `(s ^ !0) + (m + 1) = m − s`.
                    let later = 0u32.wrapping_sub(u32::from(bw > bl));
                    sum += (s ^ later).wrapping_add(later & (m + 1));
                }
                total += u64::from(sum);
            }
        }
        Ok(total)
    }
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
    fn parallel_build_matches_sequential() {
        let inputs: Vec<BucketOrder> = (0..13)
            .map(|i| {
                let k: Vec<i64> = (0..9).map(|e| ((e * (i + 2) + i) % 4) as i64).collect();
                keys(&k)
            })
            .collect();
        let seq = ProfileTally::build(&inputs).unwrap();
        for threads in [1usize, 2, 3, 8, 64] {
            assert_eq!(
                ProfileTally::build_parallel(&inputs, threads).unwrap(),
                seq,
                "threads = {threads}"
            );
            assert_eq!(
                ProfileTally::build_split(&inputs, threads, CHUNK_VOTERS).unwrap(),
                seq,
                "split threads = {threads}"
            );
        }
        for chunk in [1usize, 2, 3, 5, 13, 1000] {
            assert_eq!(
                ProfileTally::build_with_chunk(&inputs, chunk).unwrap(),
                seq,
                "chunk = {chunk}"
            );
        }
    }

    #[test]
    fn split_build_matches_sequential_across_the_promotion_boundary() {
        // Three workers at profile sizes straddling CHUNK_VOTERS, where
        // the sequential build's u16 partial hits its ceiling and rolls
        // into a second chunk: the merged worker partials must equal it.
        let pool = [
            BucketOrder::from_permutation(&[0, 1, 2, 3]).unwrap(),
            keys(&[1, 1, 2, 2]),
            BucketOrder::from_permutation(&[0, 1, 2, 3]).unwrap(),
        ];
        for m in [CHUNK_VOTERS - 1, CHUNK_VOTERS, CHUNK_VOTERS + 1, CHUNK_VOTERS + 2] {
            let profile: Vec<BucketOrder> = (0..m).map(|i| pool[i % pool.len()].clone()).collect();
            assert_eq!(
                ProfileTally::build_split(&profile, 3, CHUNK_VOTERS).unwrap(),
                ProfileTally::build(&profile).unwrap(),
                "m = {m}"
            );
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
        for l in 0..n {
            for w in 0..n {
                if b[w] < b[l] {
                    total += t.m as u128 + u128::from(t.strict[l * n + w])
                        - u128::from(t.strict[w * n + l]);
                } else if b[w] == b[l] && w != l {
                    total += u128::from(t.strict[l * n + w]);
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
