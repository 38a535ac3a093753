//! Batch distance computation: full pairwise matrices, optionally in
//! parallel, over [`PreparedRanking`] kernels.
//!
//! Applications of the paper's metrics (similarity search, clustering,
//! the experiment harness itself) routinely need all `m(m−1)/2` pairwise
//! distances of a profile. Calling the direct metric functions in a
//! double loop repeats every per-ranking setup `m−1` times; instead,
//! this module prepares each ranking **once** ([`prepare_all`]) and
//! evaluates every pair against the prepared views — the per-pair work
//! drops to the irreducible kernel (the bucket contingency-table pass,
//! one pass against a suffix-count tree, a counting scatter per `fhaus`
//! witness, or a position-vector scan). Every
//! matrix holds **one** [`PairArena`] per worker (one allocation set
//! per thread per matrix, not per pair) and threads it through the
//! `*_prepared_in` kernels. A cache-friendly single-threaded path and
//! a [`std::thread::scope`]d parallel path that splits the flattened
//! pair list into contiguous chunks are provided; the kernels are pure
//! functions of immutable prepared state (arena scratch only), so this
//! parallelizes embarrassingly.
//!
//! The batch entry points take a [`BatchMetric`] naming one of the
//! paper's metrics on its canonical integer scale. Custom distance
//! functions can still be batched with the `*_with` variants, which are
//! also the naive reference implementation the regression tests compare
//! against.

use crate::error::check_same_domain;
use crate::prepared::{
    fhaus_prepared, fhaus_prepared_in, fprof_x2_prepared, kavg_x2_prepared, kavg_x2_prepared_in,
    khaus_prepared, khaus_prepared_in, kprof_x2_prepared, kprof_x2_prepared_in, PairArena,
    PreparedRanking,
};
use crate::weighted::{self, Weights};
use crate::MetricsError;
use crate::{footrule, hausdorff, kendall};
use bucketrank_core::BucketOrder;

/// The pairwise metrics the batch engine can evaluate, each on its
/// canonical exact-integer scale (`_x2` = twice the paper's value; the
/// Hausdorff metrics are integers already and stay unscaled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchMetric {
    /// `2·Kprof` ([`kendall::kprof_x2`]).
    KProfX2,
    /// `2·Fprof` ([`footrule::fprof_x2`]).
    FProfX2,
    /// `2·Kavg` ([`kendall::kavg_x2`]).
    KAvgX2,
    /// `KHaus`, unscaled ([`hausdorff::khaus`]).
    KHaus,
    /// `FHaus`, unscaled ([`hausdorff::fhaus`]).
    FHaus,
}

impl BatchMetric {
    /// All batch metrics, in a fixed order (useful for sweeps).
    pub const ALL: [BatchMetric; 5] = [
        BatchMetric::KProfX2,
        BatchMetric::FProfX2,
        BatchMetric::KAvgX2,
        BatchMetric::KHaus,
        BatchMetric::FHaus,
    ];

    /// A short stable name (bench/report labels).
    pub fn name(self) -> &'static str {
        match self {
            BatchMetric::KProfX2 => "kprof_x2",
            BatchMetric::FProfX2 => "fprof_x2",
            BatchMetric::KAvgX2 => "kavg_x2",
            BatchMetric::KHaus => "khaus",
            BatchMetric::FHaus => "fhaus",
        }
    }

    /// The direct (unprepared) metric function — the reference the
    /// prepared kernel must agree with exactly.
    ///
    /// # Errors
    /// Whatever the underlying metric returns.
    pub fn direct(self, a: &BucketOrder, b: &BucketOrder) -> Result<u64, MetricsError> {
        match self {
            BatchMetric::KProfX2 => kendall::kprof_x2(a, b),
            BatchMetric::FProfX2 => footrule::fprof_x2(a, b),
            BatchMetric::KAvgX2 => kendall::kavg_x2(a, b),
            BatchMetric::KHaus => hausdorff::khaus(a, b),
            BatchMetric::FHaus => hausdorff::fhaus(a, b),
        }
    }

    /// The prepared kernel for this metric (thread-local arena).
    ///
    /// # Errors
    /// [`MetricsError::DomainMismatch`] on differing domains.
    pub fn prepared(
        self,
        a: &PreparedRanking<'_>,
        b: &PreparedRanking<'_>,
    ) -> Result<u64, MetricsError> {
        match self {
            BatchMetric::KProfX2 => kprof_x2_prepared(a, b),
            BatchMetric::FProfX2 => fprof_x2_prepared(a, b),
            BatchMetric::KAvgX2 => kavg_x2_prepared(a, b),
            BatchMetric::KHaus => khaus_prepared(a, b),
            BatchMetric::FHaus => fhaus_prepared(a, b),
        }
    }

    /// The prepared kernel for this metric against a caller-held
    /// [`PairArena`] — what the matrix loops use, one arena per worker.
    /// (`fprof_x2` needs no scratch; the arena is simply unused.)
    ///
    /// # Errors
    /// [`MetricsError::DomainMismatch`] on differing domains.
    pub fn prepared_in(
        self,
        arena: &mut PairArena,
        a: &PreparedRanking<'_>,
        b: &PreparedRanking<'_>,
    ) -> Result<u64, MetricsError> {
        match self {
            BatchMetric::KProfX2 => kprof_x2_prepared_in(arena, a, b),
            BatchMetric::FProfX2 => fprof_x2_prepared(a, b),
            BatchMetric::KAvgX2 => kavg_x2_prepared_in(arena, a, b),
            BatchMetric::KHaus => khaus_prepared_in(arena, a, b),
            BatchMetric::FHaus => fhaus_prepared_in(arena, a, b),
        }
    }
}

/// The weighted pairwise metrics the batch engine can evaluate
/// ([`crate::weighted`]), each parameterized by a [`Weights`] vector
/// carried alongside the profile. Kept separate from [`BatchMetric`]
/// (which stays `Copy` and weight-free) — the weighted matrix builders
/// take the weights once per matrix and precompute every ranking's
/// score vector a single time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightedMetric {
    /// `2·`weighted footrule ([`weighted::weighted_footrule_x2`]).
    WeightedFootruleX2,
    /// Top-difference distance ([`weighted::top_diff`]), unscaled.
    TopDiff,
}

impl WeightedMetric {
    /// Both weighted metrics, in a fixed order (useful for sweeps).
    pub const ALL: [WeightedMetric; 2] =
        [WeightedMetric::WeightedFootruleX2, WeightedMetric::TopDiff];

    /// A short stable name (bench/report labels).
    pub fn name(self) -> &'static str {
        match self {
            WeightedMetric::WeightedFootruleX2 => "weighted_footrule_x2",
            WeightedMetric::TopDiff => "top_diff",
        }
    }

    /// The naive reference implementation (recomputes both score
    /// vectors per call).
    ///
    /// # Errors
    /// Whatever the underlying metric returns.
    pub fn naive(self, a: &BucketOrder, b: &BucketOrder, w: &Weights) -> Result<u64, MetricsError> {
        match self {
            WeightedMetric::WeightedFootruleX2 => weighted::weighted_footrule_x2(a, b, w),
            WeightedMetric::TopDiff => weighted::top_diff(a, b, w),
        }
    }

    /// The prepared kernel against a caller-held [`PairArena`].
    ///
    /// # Errors
    /// [`MetricsError::DomainMismatch`] /
    /// [`MetricsError::WeightsLengthMismatch`].
    pub fn prepared_in(
        self,
        arena: &mut PairArena,
        a: &PreparedRanking<'_>,
        b: &PreparedRanking<'_>,
        w: &Weights,
    ) -> Result<u64, MetricsError> {
        match self {
            WeightedMetric::WeightedFootruleX2 => {
                weighted::weighted_footrule_x2_prepared_in(arena, a, b, w)
            }
            WeightedMetric::TopDiff => weighted::top_diff_prepared_in(arena, a, b, w),
        }
    }

    /// The per-element score vector whose pairwise `L1` gaps are this
    /// metric — the matrix builders compute it **once per ranking** and
    /// reduce every pair to a zip.
    ///
    /// # Errors
    /// [`MetricsError::WeightsLengthMismatch`].
    pub fn element_scores(self, o: &BucketOrder, w: &Weights) -> Result<Vec<u64>, MetricsError> {
        match self {
            WeightedMetric::WeightedFootruleX2 => weighted::weighted_positions_x2(o, w),
            WeightedMetric::TopDiff => weighted::top_mass(o, w),
        }
    }
}

/// A symmetric distance matrix over `m` rankings, stored densely
/// (`m × m`, diagonal zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    m: usize,
    values: Vec<u64>,
}

impl DistanceMatrix {
    /// Number of rankings.
    pub fn len(&self) -> usize {
        self.m
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// The distance between rankings `i` and `j`.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn get(&self, i: usize, j: usize) -> u64 {
        assert!(i < self.m && j < self.m, "index out of range");
        self.values[i * self.m + j]
    }

    /// Total over all unordered pairs (each pair counted once).
    pub fn total(&self) -> u64 {
        let mut t = 0;
        for i in 0..self.m {
            for j in i + 1..self.m {
                t += self.get(i, j);
            }
        }
        t
    }

    /// The index of the ranking minimizing the sum of distances to the
    /// others (the medoid / best-input of `aggregate::borda::best_input`,
    /// computed from the matrix), with its total. `None` when empty.
    pub fn medoid(&self) -> Option<(usize, u64)> {
        (0..self.m)
            .map(|i| {
                let s: u64 = (0..self.m).map(|j| self.get(i, j)).sum();
                (i, s)
            })
            .min_by_key(|&(i, s)| (s, i))
    }
}

/// Prepares every ranking of a profile for batch evaluation, validating
/// once that they share a domain.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] if any two rankings differ in domain.
pub fn prepare_all(orders: &[BucketOrder]) -> Result<Vec<PreparedRanking<'_>>, MetricsError> {
    for w in orders.windows(2) {
        check_same_domain(&w[0], &w[1])?;
    }
    Ok(orders.iter().map(PreparedRanking::new).collect())
}

/// Computes the pairwise matrix single-threaded via prepared kernels:
/// each ranking is prepared once, then all `m(m−1)/2` pairs are
/// evaluated with no per-call setup.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] if the rankings differ in domain.
pub fn pairwise_matrix(
    orders: &[BucketOrder],
    metric: BatchMetric,
) -> Result<DistanceMatrix, MetricsError> {
    let prepared = prepare_all(orders)?;
    pairwise_matrix_prepared(&prepared, metric)
}

/// [`pairwise_matrix`] over already-prepared views (reuse them across
/// several metrics without re-preparing).
///
/// # Errors
/// [`MetricsError::DomainMismatch`] if the prepared rankings differ in
/// domain.
pub fn pairwise_matrix_prepared(
    prepared: &[PreparedRanking<'_>],
    metric: BatchMetric,
) -> Result<DistanceMatrix, MetricsError> {
    let m = prepared.len();
    let mut values = vec![0u64; m * m];
    let mut arena = PairArena::new();
    for i in 0..m {
        for j in i + 1..m {
            let v = metric.prepared_in(&mut arena, &prepared[i], &prepared[j])?;
            values[i * m + j] = v;
            values[j * m + i] = v;
        }
    }
    Ok(DistanceMatrix { m, values })
}

/// Computes the pairwise matrix with `threads` worker threads over
/// prepared kernels (scoped std threads; `threads = 1` falls back to
/// the sequential path). Preparation is done once up front on the
/// calling thread — it is `O(m·n)`, negligible next to the
/// `O(m²·n log n)` pair work the threads split.
///
/// The flattened pair list is partitioned into contiguous chunks, one
/// per thread, which balances well because every pair costs roughly the
/// same. Each worker owns a private [`PairArena`] for the whole
/// matrix, so workers never contend and never allocate per pair.
///
/// # Errors
/// As [`pairwise_matrix`]. The first error encountered (by pair order)
/// is returned.
pub fn pairwise_matrix_parallel(
    orders: &[BucketOrder],
    metric: BatchMetric,
    threads: usize,
) -> Result<DistanceMatrix, MetricsError> {
    let prepared = prepare_all(orders)?;
    pairwise_matrix_prepared_parallel(&prepared, metric, threads)
}

/// [`pairwise_matrix_parallel`] over already-prepared views.
///
/// # Errors
/// As [`pairwise_matrix_parallel`].
pub fn pairwise_matrix_prepared_parallel(
    prepared: &[PreparedRanking<'_>],
    metric: BatchMetric,
    threads: usize,
) -> Result<DistanceMatrix, MetricsError> {
    let m = prepared.len();
    if threads <= 1 || m < 4 {
        return pairwise_matrix_prepared(prepared, metric);
    }
    // Flattened list of unordered pairs.
    let pairs: Vec<(usize, usize)> = (0..m)
        .flat_map(|i| (i + 1..m).map(move |j| (i, j)))
        .collect();
    let mut results: Vec<Result<u64, MetricsError>> = Vec::with_capacity(pairs.len());
    results.resize_with(pairs.len(), || Ok(0));

    std::thread::scope(|scope| {
        // Chunk the results buffer so each worker owns a disjoint slice.
        let chunk = pairs.len().div_ceil(threads);
        for (t, res_chunk) in results.chunks_mut(chunk).enumerate() {
            let pairs = &pairs;
            let prepared = &prepared;
            let start = t * chunk;
            scope.spawn(move || {
                let mut arena = PairArena::new();
                for (off, slot) in res_chunk.iter_mut().enumerate() {
                    let (i, j) = pairs[start + off];
                    *slot = metric.prepared_in(&mut arena, &prepared[i], &prepared[j]);
                }
            });
        }
    });

    let mut values = vec![0u64; m * m];
    for ((i, j), r) in pairs.into_iter().zip(results) {
        let v = r?;
        values[i * m + j] = v;
        values[j * m + i] = v;
    }
    Ok(DistanceMatrix { m, values })
}

/// Computes the pairwise matrix single-threaded with an arbitrary
/// distance function, calling it once per unordered pair. This is the
/// naive reference path — the prepared engine must match it exactly —
/// and the escape hatch for distances without a prepared kernel.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] if the rankings differ in domain, or
/// any error from the distance function.
pub fn pairwise_matrix_with<D>(orders: &[BucketOrder], d: D) -> Result<DistanceMatrix, MetricsError>
where
    D: Fn(&BucketOrder, &BucketOrder) -> Result<u64, MetricsError>,
{
    let m = orders.len();
    for w in orders.windows(2) {
        check_same_domain(&w[0], &w[1])?;
    }
    let mut values = vec![0u64; m * m];
    for i in 0..m {
        for j in i + 1..m {
            let v = d(&orders[i], &orders[j])?;
            values[i * m + j] = v;
            values[j * m + i] = v;
        }
    }
    Ok(DistanceMatrix { m, values })
}

/// [`pairwise_matrix_with`], parallelized over `threads` scoped worker
/// threads with the same chunked pair-list partitioning as
/// [`pairwise_matrix_parallel`].
///
/// # Errors
/// As [`pairwise_matrix_with`]. The first error encountered (by pair
/// order) is returned.
pub fn pairwise_matrix_parallel_with<D>(
    orders: &[BucketOrder],
    d: D,
    threads: usize,
) -> Result<DistanceMatrix, MetricsError>
where
    D: Fn(&BucketOrder, &BucketOrder) -> Result<u64, MetricsError> + Sync,
{
    let m = orders.len();
    if threads <= 1 || m < 4 {
        return pairwise_matrix_with(orders, d);
    }
    for w in orders.windows(2) {
        check_same_domain(&w[0], &w[1])?;
    }
    let pairs: Vec<(usize, usize)> = (0..m)
        .flat_map(|i| (i + 1..m).map(move |j| (i, j)))
        .collect();
    let mut results: Vec<Result<u64, MetricsError>> = Vec::with_capacity(pairs.len());
    results.resize_with(pairs.len(), || Ok(0));

    std::thread::scope(|scope| {
        let chunk = pairs.len().div_ceil(threads);
        for (t, res_chunk) in results.chunks_mut(chunk).enumerate() {
            let pairs = &pairs;
            let d = &d;
            let start = t * chunk;
            scope.spawn(move || {
                for (off, slot) in res_chunk.iter_mut().enumerate() {
                    let (i, j) = pairs[start + off];
                    *slot = d(&orders[i], &orders[j]);
                }
            });
        }
    });

    let mut values = vec![0u64; m * m];
    for ((i, j), r) in pairs.into_iter().zip(results) {
        let v = r?;
        values[i * m + j] = v;
        values[j * m + i] = v;
    }
    Ok(DistanceMatrix { m, values })
}

/// Per-ranking score vectors for a weighted matrix, after validating
/// the shared domain and the weights' length once.
fn weighted_scores_all(
    orders: &[BucketOrder],
    metric: WeightedMetric,
    w: &Weights,
) -> Result<Vec<Vec<u64>>, MetricsError> {
    for pair in orders.windows(2) {
        check_same_domain(&pair[0], &pair[1])?;
    }
    orders.iter().map(|o| metric.element_scores(o, w)).collect()
}

fn l1_gap(a: &[u64], b: &[u64]) -> u64 {
    a.iter().zip(b).map(|(&x, &y)| x.abs_diff(y)).sum()
}

/// Computes the weighted pairwise matrix single-threaded: each
/// ranking's score vector is computed **once**, then all `m(m−1)/2`
/// pairs are plain `L1` zips — the weighted analogue of
/// [`pairwise_matrix`].
///
/// # Errors
/// [`MetricsError::DomainMismatch`] /
/// [`MetricsError::WeightsLengthMismatch`].
pub fn weighted_pairwise_matrix(
    orders: &[BucketOrder],
    metric: WeightedMetric,
    w: &Weights,
) -> Result<DistanceMatrix, MetricsError> {
    let scores = weighted_scores_all(orders, metric, w)?;
    let m = orders.len();
    let mut values = vec![0u64; m * m];
    for i in 0..m {
        for j in i + 1..m {
            let v = l1_gap(&scores[i], &scores[j]);
            values[i * m + j] = v;
            values[j * m + i] = v;
        }
    }
    Ok(DistanceMatrix { m, values })
}

/// [`weighted_pairwise_matrix`] with `threads` scoped worker threads
/// over the same chunked pair-list partitioning as
/// [`pairwise_matrix_parallel`]. Score vectors are computed once up
/// front on the calling thread; the workers only read them.
///
/// # Errors
/// As [`weighted_pairwise_matrix`].
pub fn weighted_pairwise_matrix_parallel(
    orders: &[BucketOrder],
    metric: WeightedMetric,
    w: &Weights,
    threads: usize,
) -> Result<DistanceMatrix, MetricsError> {
    let m = orders.len();
    if threads <= 1 || m < 4 {
        return weighted_pairwise_matrix(orders, metric, w);
    }
    let scores = weighted_scores_all(orders, metric, w)?;
    let pairs: Vec<(usize, usize)> = (0..m)
        .flat_map(|i| (i + 1..m).map(move |j| (i, j)))
        .collect();
    let mut results = vec![0u64; pairs.len()];

    std::thread::scope(|scope| {
        let chunk = pairs.len().div_ceil(threads);
        for (t, res_chunk) in results.chunks_mut(chunk).enumerate() {
            let pairs = &pairs;
            let scores = &scores;
            let start = t * chunk;
            scope.spawn(move || {
                for (off, slot) in res_chunk.iter_mut().enumerate() {
                    let (i, j) = pairs[start + off];
                    *slot = l1_gap(&scores[i], &scores[j]);
                }
            });
        }
    });

    let mut values = vec![0u64; m * m];
    for ((i, j), v) in pairs.into_iter().zip(results) {
        values[i * m + j] = v;
        values[j * m + i] = v;
    }
    Ok(DistanceMatrix { m, values })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> Vec<BucketOrder> {
        (0..9)
            .map(|i| {
                let keys: Vec<i64> = (0..12).map(|e| ((e * (i + 2) + i) % 5) as i64).collect();
                BucketOrder::from_keys(&keys)
            })
            .collect()
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let p = profile();
        let mx = pairwise_matrix(&p, BatchMetric::KProfX2).unwrap();
        assert_eq!(mx.len(), 9);
        assert!(!mx.is_empty());
        for i in 0..9 {
            assert_eq!(mx.get(i, i), 0);
            for j in 0..9 {
                assert_eq!(mx.get(i, j), mx.get(j, i));
            }
        }
    }

    #[test]
    fn prepared_engine_matches_naive_reference_for_all_metrics() {
        let p = profile();
        for metric in BatchMetric::ALL {
            let naive = pairwise_matrix_with(&p, |a, b| metric.direct(a, b)).unwrap();
            let seq = pairwise_matrix(&p, metric).unwrap();
            assert_eq!(naive, seq, "{} sequential", metric.name());
            for threads in [1usize, 2, 3, 8] {
                let par = pairwise_matrix_parallel(&p, metric, threads).unwrap();
                assert_eq!(naive, par, "{} threads = {threads}", metric.name());
            }
        }
    }

    #[test]
    fn prepared_views_are_reusable_across_metrics() {
        let p = profile();
        let prepared = prepare_all(&p).unwrap();
        for metric in BatchMetric::ALL {
            let from_views = pairwise_matrix_prepared(&prepared, metric).unwrap();
            let from_orders = pairwise_matrix(&p, metric).unwrap();
            assert_eq!(from_views, from_orders, "{}", metric.name());
            let par = pairwise_matrix_prepared_parallel(&prepared, metric, 4).unwrap();
            assert_eq!(from_views, par, "{} parallel", metric.name());
        }
    }

    #[test]
    fn medoid_matches_best_input_semantics() {
        let p = profile();
        let mx = pairwise_matrix(&p, BatchMetric::FProfX2).unwrap();
        let (medoid, total) = mx.medoid().unwrap();
        // Recompute directly.
        let direct: Vec<u64> = (0..p.len())
            .map(|i| {
                p.iter()
                    .map(|s| crate::footrule::fprof_x2(&p[i], s).unwrap())
                    .sum()
            })
            .collect();
        assert_eq!(total, direct[medoid]);
        assert_eq!(total, *direct.iter().min().unwrap());
        assert!(mx.total() > 0);
    }

    #[test]
    fn weighted_matrix_matches_naive_and_prepared_paths() {
        let p = profile();
        let w = Weights::from_units((1..=12u64).rev().collect()).unwrap();
        for metric in WeightedMetric::ALL {
            let naive = pairwise_matrix_with(&p, |a, b| metric.naive(a, b, &w)).unwrap();
            let mx = weighted_pairwise_matrix(&p, metric, &w).unwrap();
            assert_eq!(naive, mx, "{} sequential", metric.name());
            for threads in [1usize, 2, 3, 8] {
                let par = weighted_pairwise_matrix_parallel(&p, metric, &w, threads).unwrap();
                assert_eq!(naive, par, "{} threads = {threads}", metric.name());
            }
            // The arena kernel agrees with the matrix entries too.
            let prepared = prepare_all(&p).unwrap();
            let mut arena = PairArena::new();
            assert_eq!(
                metric
                    .prepared_in(&mut arena, &prepared[0], &prepared[1], &w)
                    .unwrap(),
                mx.get(0, 1),
                "{} arena kernel",
                metric.name()
            );
        }
    }

    #[test]
    fn weighted_matrix_rejects_bad_shapes() {
        let p = profile();
        let short = Weights::uniform(3);
        for metric in WeightedMetric::ALL {
            assert!(matches!(
                weighted_pairwise_matrix(&p, metric, &short),
                Err(MetricsError::WeightsLengthMismatch { weights: 3, domain: 12 })
            ));
            let mixed = vec![BucketOrder::trivial(3), BucketOrder::trivial(4)];
            assert!(weighted_pairwise_matrix_parallel(&mixed, metric, &short, 4).is_err());
        }
    }

    #[test]
    fn domain_mismatch_detected() {
        let p = vec![BucketOrder::trivial(3), BucketOrder::trivial(4)];
        assert!(pairwise_matrix(&p, BatchMetric::KProfX2).is_err());
        assert!(pairwise_matrix_parallel(&p, BatchMetric::KProfX2, 4).is_err());
        assert!(pairwise_matrix_with(&p, crate::kendall::kprof_x2).is_err());
        assert!(pairwise_matrix_parallel_with(&p, crate::kendall::kprof_x2, 4).is_err());
    }

    #[test]
    fn degenerate_sizes() {
        let empty: Vec<BucketOrder> = vec![];
        let mx = pairwise_matrix(&empty, BatchMetric::KProfX2).unwrap();
        assert!(mx.is_empty());
        assert_eq!(mx.medoid(), None);
        let one = vec![BucketOrder::trivial(3)];
        let mx = pairwise_matrix_parallel(&one, BatchMetric::KProfX2, 4).unwrap();
        assert_eq!(mx.len(), 1);
        assert_eq!(mx.medoid(), Some((0, 0)));
    }
}
