//! Naive reference implementations kept out of the library, for
//! differential tests and bench gates.
//!
//! [`kemeny_cost_x2`] is the tally's Kemeny scan as first written: a
//! three-way branch per cell over both the `w2` and `strict` matrices.
//! The tally no longer stores `w2`, so the scan itself,
//! [`two_matrix_cost_x2`], takes a prebuilt `w2` matrix — from
//! [`naive_weights_x2`], the per-pair `prefers()` builder every tally
//! consumer used before the tally existed — and a timed caller builds
//! it once, outside its loop.
//!
//! [`minmax_aggregate`] and [`minmax_local_search`] are the minmax
//! heuristic pipeline as first written: every candidate swap rescans
//! all `m` voters, and every constrained swap recounts the prefix. They
//! use only the public surface of `aggregate::minmax`, so the library's
//! banded scoring and tally sum deltas share no code with them.
//!
//! [`NestedOrder`] is the bucket order as first stored: one `Vec` per
//! bucket, built by [`NestedOrder::from_keys`] exactly as the library's
//! `from_keys` once did (an id-tiebroken sort, a push per element into
//! its bucket's `Vec`, then validation). `BucketOrder` now stores the
//! rank-ordered domain and bucket boundaries as flat arrays; this type
//! is the baseline its construction and clone are timed against.
//!
//! [`project_to_type`] is `consistent::project_to_type` as first
//! written: a stable comparison sort of the ids by score, then a sort
//! of each cut bucket. The library now ranks small-span scores by
//! counting and lays the buckets out with a second scatter.
//!
//! The rest are the brute-force and naive references that tests, bench
//! gates and experiments hold the library against; they live here so
//! the library ships one implementation of each algorithm:
//!
//! * metrics: [`pair_counts_naive`], [`kprof_x2_naive`],
//!   [`kavg_x2_brute`], [`kendall_naive`], the Hausdorff distance of
//!   equation (2) over explicit sets ([`hausdorff_sets`]) with
//!   [`fhaus_brute`] and [`khaus_brute`] over all full refinements,
//!   [`khaus_theorem5`] over the Theorem 5 witnesses, and
//!   [`pairwise_matrix_with`], a per-pair double loop;
//! * core: [`count_inversions_naive`];
//! * aggregate: [`solve_assignment_brute`], and the bucketing DP's
//!   brute force [`optimal_bucketing_brute`] and two alternative DPs,
//!   [`optimal_bucketing_table`] and [`optimal_bucketing_prefix`], which
//!   experiment E5 times against the paper's Figure 1;
//! * access: [`medrank`], MEDRANK stated declaratively, per element,
//!   instead of as a round loop.

use bucketrank_aggregate::dp::Bucketing;
use bucketrank_aggregate::kwiksort::kwiksort_with_tally;
use bucketrank_aggregate::minmax::{ClassConstraints, MinMaxObjective, DEFAULT_RESTARTS};
use bucketrank_aggregate::{AggregateError, ProfileTally};
use bucketrank_core::refine::full_refinements;
use bucketrank_core::{BucketOrder, CoreError, ElementId, Pos, TypeSeq};
use bucketrank_metrics::batch::DistanceMatrix;
use bucketrank_metrics::full::{footrule, kendall};
use bucketrank_metrics::hausdorff::theorem5_witnesses;
use bucketrank_metrics::pairs::PairCounts;
use bucketrank_metrics::MetricsError;

/// A bucket order in the nested layout: buckets in rank order, one
/// `Vec` each, elements ascending within a bucket.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NestedOrder {
    n: usize,
    buckets: Vec<Vec<ElementId>>,
    bucket_of: Vec<u32>,
    bucket_pos: Vec<Pos>,
}

impl NestedOrder {
    /// The oracle for `BucketOrder::from_keys`: rank by key ascending,
    /// equal keys tied.
    pub fn from_keys<K: Ord>(keys: &[K]) -> NestedOrder {
        let n = keys.len();
        let mut ids: Vec<ElementId> = (0..n as ElementId).collect();
        ids.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]).then(a.cmp(&b)));
        let mut buckets: Vec<Vec<ElementId>> = Vec::new();
        for &e in &ids {
            match buckets.last() {
                Some(last) if keys[last[0] as usize] == keys[e as usize] => {
                    buckets.last_mut().expect("nonempty").push(e);
                }
                _ => buckets.push(vec![e]),
            }
        }
        NestedOrder::from_buckets(n, buckets)
    }

    /// Validates the buckets, sorts each and derives the positions.
    ///
    /// # Panics
    /// If the buckets do not partition `0..n` into nonempty buckets.
    fn from_buckets(n: usize, mut buckets: Vec<Vec<ElementId>>) -> NestedOrder {
        let mut bucket_of = vec![u32::MAX; n];
        for (bi, bucket) in buckets.iter().enumerate() {
            assert!(!bucket.is_empty(), "empty bucket {bi}");
            for &e in bucket {
                let slot = &mut bucket_of[e as usize];
                assert_eq!(*slot, u32::MAX, "duplicate element {e}");
                *slot = bi as u32;
            }
        }
        assert!(bucket_of.iter().all(|&b| b != u32::MAX), "missing element");
        for b in &mut buckets {
            b.sort_unstable();
        }
        let mut bucket_pos = Vec::with_capacity(buckets.len());
        let mut before = 0usize;
        for b in &buckets {
            bucket_pos.push(Pos::from_half_units((2 * before + b.len() + 1) as i64));
            before += b.len();
        }
        NestedOrder {
            n,
            buckets,
            bucket_of,
            bucket_pos,
        }
    }

    /// Whether `order` holds the same ranking in its flat layout: the
    /// same buckets, element→bucket map and bucket positions.
    pub fn same_as(&self, order: &BucketOrder) -> bool {
        order.len() == self.n
            && order.buckets().len() == self.buckets.len()
            && order
                .buckets()
                .iter()
                .zip(&self.buckets)
                .all(|(a, b)| a == &b[..])
            && order.bucket_indices() == &self.bucket_of[..]
            && (0..self.buckets.len()).all(|i| order.bucket_position(i) == self.bucket_pos[i])
    }
}

/// The oracle for `consistent::project_to_type`: sort the ids by `f`
/// (stable, so equal scores keep ascending ids), cut them into buckets
/// of `alpha`'s sizes, and sort each bucket.
///
/// # Errors
/// [`CoreError::TypeSizeMismatch`] if `alpha` does not sum to
/// `f.len()`.
pub fn project_to_type(f: &[Pos], alpha: &TypeSeq) -> Result<BucketOrder, CoreError> {
    let n = f.len();
    if alpha.domain_size() != n {
        return Err(CoreError::TypeSizeMismatch {
            type_total: alpha.domain_size(),
            domain_size: n,
        });
    }
    let mut ids: Vec<ElementId> = (0..n as ElementId).collect();
    ids.sort_by(|&a, &b| f[a as usize].cmp(&f[b as usize]));
    let mut rest = &ids[..];
    let mut buckets = Vec::with_capacity(alpha.num_buckets());
    for &size in alpha.sizes() {
        let (bucket, tail) = rest.split_at(size);
        let mut bucket = bucket.to_vec();
        bucket.sort_unstable();
        buckets.push(bucket);
        rest = tail;
    }
    BucketOrder::from_buckets(n, buckets)
}

/// The oracle for `aggregate::minmax::minmax_aggregate`: the same seeds,
/// repair and selection, over the naive climb.
///
/// # Errors
/// As the library function.
pub fn minmax_aggregate(
    inputs: &[BucketOrder],
    constraints: Option<&ClassConstraints>,
    seed: u64,
) -> Result<(BucketOrder, u64), AggregateError> {
    let obj = MinMaxObjective::build(inputs)?;
    let n = obj.len();
    check_constraints(n, constraints)?;
    if let Some(cc) = constraints {
        if !cc.is_feasible() {
            return Err(AggregateError::InfeasibleConstraints);
        }
    }
    if n == 0 {
        return Ok((BucketOrder::trivial(0), 0));
    }
    let tally = ProfileTally::build(inputs)?;
    let m = inputs.len();

    let mut seeds: Vec<Vec<ElementId>> = Vec::new();
    for i in 0..DEFAULT_RESTARTS {
        let cand = kwiksort_with_tally(&tally, seed.wrapping_add(i as u64))?;
        seeds.push(cand.as_permutation().expect("kwiksort emits full"));
    }
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
        let (out, cost) = local_search_perm(&obj, constraints, perm);
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

/// The oracle for `aggregate::minmax::minmax_local_search`.
///
/// # Errors
/// As the library function.
pub fn minmax_local_search(
    candidate: &BucketOrder,
    inputs: &[BucketOrder],
    constraints: Option<&ClassConstraints>,
) -> Result<(BucketOrder, u64), AggregateError> {
    let obj = MinMaxObjective::build(inputs)?;
    let n = obj.len();
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
    let (out, cost) = local_search_perm(&obj, constraints, perm);
    Ok((
        BucketOrder::from_permutation(&out).expect("local search permutes"),
        cost,
    ))
}

/// The pre-tally ×2 weight build: one `prefers`/`is_tied` scan per
/// ordered pair per voter (kwiksort's old private `w2` loop, and the
/// same access pattern the majority digraph, Schulze and MC4 each
/// repeated). `w2[a·n + b] = 2·strict(a, b) + ties(a, b)`, zero
/// diagonal.
///
/// # Panics
/// On an empty profile.
pub fn naive_weights_x2(inputs: &[BucketOrder]) -> Vec<u32> {
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

/// The oracle for `ProfileTally::kemeny_cost_x2`: the two-matrix scan
/// ([`two_matrix_cost_x2`]) over the tally's derived `w2` matrix and its
/// strict counts widened to `u32`, whatever width the tally stores.
///
/// # Errors
/// As the library method.
pub fn kemeny_cost_x2(
    tally: &ProfileTally,
    candidate: &BucketOrder,
) -> Result<u64, AggregateError> {
    let n = tally.len();
    if candidate.len() != n {
        return Err(AggregateError::DomainMismatch {
            expected: n,
            found: candidate.len(),
        });
    }
    let strict: Vec<u32> = tally.strict_counts().iter().collect();
    Ok(two_matrix_cost_x2(&tally.weights_x2(), &strict, candidate))
}

/// The two-matrix Kemeny scan: a candidate-ordered pair (winner `w`,
/// loser `l`) costs `w2[l][w]`, a candidate-tied pair costs `strict`
/// both ways, split across the two rows. `w2` and `strict` are the
/// candidate's `n × n` row-major matrices.
///
/// # Panics
/// If either matrix is shorter than `n × n` for the candidate's `n`.
pub fn two_matrix_cost_x2(w2: &[u32], strict: &[u32], candidate: &BucketOrder) -> u64 {
    let n = candidate.len();
    let buckets = candidate.bucket_indices();
    let mut total = 0u64;
    for l in 0..n {
        let bl = buckets[l];
        let row_w2 = &w2[l * n..(l + 1) * n];
        let row_s = &strict[l * n..(l + 1) * n];
        for w in 0..n {
            let bw = buckets[w];
            if bw < bl {
                total += u64::from(row_w2[w]);
            } else if bw == bl && w != l {
                total += u64::from(row_s[w]);
            }
        }
    }
    total
}

fn check_constraints(
    n: usize,
    constraints: Option<&ClassConstraints>,
) -> Result<(), AggregateError> {
    if let Some(cc) = constraints {
        if cc.domain_size() != n {
            return Err(AggregateError::DomainMismatch {
                expected: n,
                found: cc.domain_size(),
            });
        }
    }
    Ok(())
}

/// Voter cost of a full ranking given as a permutation slice.
fn voter_perm_cost_x2(obj: &MinMaxObjective, voter: usize, perm: &[ElementId]) -> u64 {
    let mut cost = 0u64;
    for i in 0..perm.len() {
        for j in i + 1..perm.len() {
            cost += obj.pair_cost_x2(voter, perm[i], perm[j]);
        }
    }
    cost
}

/// The hill climb, O(m) per candidate swap: `perm` must already be
/// feasible; `(max, total)` strictly decreases every accepted move.
fn local_search_perm(
    obj: &MinMaxObjective,
    cons: Option<&ClassConstraints>,
    mut perm: Vec<ElementId>,
) -> (Vec<ElementId>, u64) {
    let n = obj.len();
    let m = obj.voters();
    let mut costs: Vec<u64> = (0..m).map(|v| voter_perm_cost_x2(obj, v, &perm)).collect();
    if n < 2 {
        let maxc = costs.iter().copied().max().unwrap_or(0);
        return (perm, maxc);
    }
    loop {
        let mut cur_max = 0u64;
        let mut argmax = 0usize;
        let mut cur_total = 0u64;
        for (v, &c) in costs.iter().enumerate() {
            cur_total += c;
            if c > cur_max {
                cur_max = c;
                argmax = v;
            }
        }
        // Evaluate one adjacent swap in O(m) via the stored deltas.
        let eval = |p: usize| -> (u64, u64) {
            let (a, b) = (perm[p], perm[p + 1]);
            let mut new_max = 0u64;
            let mut new_total = 0u64;
            for (v, &c) in costs.iter().enumerate() {
                let nc = (c as i64 + obj.swap_delta_x2(v, a, b)) as u64;
                new_total += nc;
                new_max = new_max.max(nc);
            }
            (new_max, new_total)
        };
        let mut best_move: Option<(u64, u64, usize)> = None;
        // Pass 1: only swaps that move the argmax voter closer.
        for p in 0..n - 1 {
            if obj.swap_delta_x2(argmax, perm[p], perm[p + 1]) >= 0 {
                continue;
            }
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
        match best_move {
            Some((_, _, p)) => {
                let (a, b) = (perm[p], perm[p + 1]);
                for (v, c) in costs.iter_mut().enumerate() {
                    *c = (*c as i64 + obj.swap_delta_x2(v, a, b)) as u64;
                }
                perm.swap(p, p + 1);
            }
            None => break,
        }
    }
    let maxc = costs.iter().copied().max().unwrap_or(0);
    (perm, maxc)
}

/// An adjacent swap at `(p, p+1)` only changes class counts in the
/// prefix of length `p+1`; check exactly the rules whose window closes
/// there, recounting the prefix for each.
fn swap_allowed(cons: Option<&ClassConstraints>, perm: &[ElementId], p: usize) -> bool {
    let Some(cc) = cons else { return true };
    let labels = cc.labels();
    let (a, b) = (perm[p], perm[p + 1]);
    if labels[a as usize] == labels[b as usize] {
        return true;
    }
    let w = (p + 1) as u32;
    for r in cc.rules() {
        if r.window != w {
            continue;
        }
        let mut cnt = perm[..p]
            .iter()
            .filter(|&&e| labels[e as usize] == r.class)
            .count() as u32;
        if labels[b as usize] == r.class {
            cnt += 1;
        }
        if cnt < r.min || cnt > r.max {
            return false;
        }
    }
    true
}

fn check_same_domain(sigma: &BucketOrder, tau: &BucketOrder) -> Result<(), MetricsError> {
    let (left, right) = (sigma.len(), tau.len());
    let mismatch = MetricsError::DomainMismatch { left, right };
    (left == right).then_some(()).ok_or(mismatch)
}

/// The oracle for `metrics::pairs::pair_counts`: every pair classified
/// by `is_tied`/`prefers`, `O(n²)`.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn pair_counts_naive(
    sigma: &BucketOrder,
    tau: &BucketOrder,
) -> Result<PairCounts, MetricsError> {
    check_same_domain(sigma, tau)?;
    let n = sigma.len() as ElementId;
    let mut c = PairCounts::default();
    for i in 0..n {
        for j in i + 1..n {
            match (sigma.is_tied(i, j), tau.is_tied(i, j)) {
                (true, true) => c.tied_both += 1,
                (true, false) => c.tied_left_only += 1,
                (false, true) => c.tied_right_only += 1,
                (false, false) => {
                    if sigma.prefers(i, j) == tau.prefers(i, j) {
                        c.concordant += 1;
                    } else {
                        c.discordant += 1;
                    }
                }
            }
        }
    }
    Ok(c)
}

/// The oracle for `metrics::kendall::kprof_x2`, over
/// [`pair_counts_naive`].
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn kprof_x2_naive(sigma: &BucketOrder, tau: &BucketOrder) -> Result<u64, MetricsError> {
    let c = pair_counts_naive(sigma, tau)?;
    Ok(2 * c.discordant + c.tied_exactly_one())
}

/// `2·Kavg` by its definition (Appendix A.3): twice the mean Kendall
/// distance over all pairs of full refinements. Exponential; small
/// domains only.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn kavg_x2_brute(sigma: &BucketOrder, tau: &BucketOrder) -> Result<u64, MetricsError> {
    check_same_domain(sigma, tau)?;
    let mut total: u128 = 0;
    let mut count: u128 = 0;
    for s in full_refinements(sigma) {
        for t in full_refinements(tau) {
            total += kendall(&s, &t)? as u128;
            count += 1;
        }
    }
    // 2·Kavg is an integer, so the division is exact.
    let doubled = 2 * total;
    debug_assert_eq!(doubled % count, 0, "2·Kavg should be integral");
    Ok((doubled / count) as u64)
}

/// The oracle for `metrics::full::kendall`: the discordant pairs of
/// [`pair_counts_naive`], counted one by one, `O(n²)`.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains;
/// [`MetricsError::NotFullRanking`] if either input has ties.
pub fn kendall_naive(sigma: &BucketOrder, tau: &BucketOrder) -> Result<u64, MetricsError> {
    let c = pair_counts_naive(sigma, tau)?;
    if !sigma.is_full() || !tau.is_full() {
        return Err(MetricsError::NotFullRanking);
    }
    Ok(c.discordant)
}

/// The Hausdorff distance between two finite sets under a distance
/// function (equation (2) of the paper).
///
/// # Panics
/// If either set is empty.
pub fn hausdorff_sets<T, D: Fn(&T, &T) -> u64>(a: &[T], b: &[T], d: D) -> u64 {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "Hausdorff distance requires nonempty sets"
    );
    let one_sided = |xs: &[T], ys: &[T]| -> u64 {
        xs.iter()
            .map(|x| ys.iter().map(|y| d(x, y)).min().expect("nonempty"))
            .max()
            .expect("nonempty")
    };
    one_sided(a, b).max(one_sided(b, a))
}

/// `FHaus` by its definition: [`hausdorff_sets`] under the footrule over
/// all full refinements. Exponential; small domains only.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn fhaus_brute(sigma: &BucketOrder, tau: &BucketOrder) -> Result<u64, MetricsError> {
    hausdorff_refinements(sigma, tau, footrule)
}

/// `KHaus` by its definition: [`hausdorff_sets`] under Kendall tau over
/// all full refinements. Exponential; small domains only.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn khaus_brute(sigma: &BucketOrder, tau: &BucketOrder) -> Result<u64, MetricsError> {
    hausdorff_refinements(sigma, tau, kendall)
}

fn hausdorff_refinements(
    sigma: &BucketOrder,
    tau: &BucketOrder,
    d: fn(&BucketOrder, &BucketOrder) -> Result<u64, MetricsError>,
) -> Result<u64, MetricsError> {
    check_same_domain(sigma, tau)?;
    let refs_s: Vec<BucketOrder> = full_refinements(sigma).collect();
    let refs_t: Vec<BucketOrder> = full_refinements(tau).collect();
    Ok(hausdorff_sets(&refs_s, &refs_t, |a, b| {
        d(a, b).expect("full refinements share the domain")
    }))
}

/// `KHaus` through Theorem 5: Kendall tau at the two witness pairs of
/// `metrics::hausdorff::theorem5_witnesses`, the larger one. The library
/// computes it by Proposition 6's closed form instead.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn khaus_theorem5(sigma: &BucketOrder, tau: &BucketOrder) -> Result<u64, MetricsError> {
    let ((s1, t1), (s2, t2)) = theorem5_witnesses(sigma, tau)?;
    Ok(kendall(&s1, &t1)?.max(kendall(&s2, &t2)?))
}

/// A dense `m × m` distance matrix built by [`pairwise_matrix_with`]. It
/// compares equal to a library `DistanceMatrix` holding the same values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairwiseMatrix {
    m: usize,
    values: Vec<u64>,
}

impl PartialEq<DistanceMatrix> for PairwiseMatrix {
    fn eq(&self, other: &DistanceMatrix) -> bool {
        let m = self.m;
        m == other.len() && self.values.iter().enumerate().all(|(c, &v)| v == other.get(c / m, c % m))
    }
}

/// The oracle for the `metrics::batch` matrix builders: `d` called once
/// per unordered pair `i < j` in row-major order, mirrored.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] naming the first two neighbouring
/// rankings that differ in domain, else the first error (by pair order)
/// from `d`.
pub fn pairwise_matrix_with<D>(orders: &[BucketOrder], d: D) -> Result<PairwiseMatrix, MetricsError>
where
    D: Fn(&BucketOrder, &BucketOrder) -> Result<u64, MetricsError>,
{
    for w in orders.windows(2) {
        check_same_domain(&w[0], &w[1])?;
    }
    let m = orders.len();
    let mut values = vec![0u64; m * m];
    for i in 0..m {
        for j in i + 1..m {
            let v = d(&orders[i], &orders[j])?;
            values[i * m + j] = v;
            values[j * m + i] = v;
        }
    }
    Ok(PairwiseMatrix { m, values })
}

/// The oracle for `core::alg::count_inversions`: pairs `i < j` with
/// `keys[i] > keys[j]`, counted one by one.
pub fn count_inversions_naive<K: Ord>(keys: &[K]) -> u64 {
    let later_smaller = |i: usize| keys[i + 1..].iter().filter(|k| keys[i] > **k).count();
    (0..keys.len()).map(|i| later_smaller(i) as u64).sum()
}

/// The oracle for `aggregate::hungarian::solve_assignment`: the minimum
/// total cost over every permutation (the full refinements of the
/// all-tied order; `cost` is row-major `n × n`).
///
/// # Panics
/// If `n > 9` or `cost.len() != n * n`.
pub fn solve_assignment_brute(n: usize, cost: &[i64]) -> i64 {
    assert!(n <= 9, "brute-force assignment limited to n ≤ 9");
    assert_eq!(cost.len(), n * n);
    let total = |p: &BucketOrder| -> i64 {
        p.by_rank().iter().enumerate().map(|(r, &c)| cost[r * n + c as usize]).sum()
    };
    full_refinements(&BucketOrder::trivial(n)).map(|p| total(&p)).min().unwrap_or(0)
}

/// Elements sorted ascending by `(score, id)` and their half-unit
/// scores: the DP's shared preprocessing.
fn sort_scores(f: &[Pos]) -> (Vec<ElementId>, Vec<i64>) {
    let mut order: Vec<ElementId> = (0..f.len() as ElementId).collect();
    order.sort_by(|&a, &b| f[a as usize].cmp(&f[b as usize]).then(a.cmp(&b)));
    let v: Vec<i64> = order.iter().map(|&e| f[e as usize].half_units()).collect();
    (order, v)
}

/// The bucket order cut from the sorted elements at `bounds`
/// (`0 = b_0 < … < b_t = n`).
fn cut(order: &[ElementId], bounds: &[usize]) -> BucketOrder {
    let buckets: Vec<Vec<ElementId>> = bounds
        .windows(2)
        .map(|w| order[w[0]..w[1]].to_vec())
        .collect();
    BucketOrder::from_buckets(order.len(), buckets).expect("bounds partition the domain")
}

/// The boundary DP over the sorted elements, given the cost `c(i, j)` of
/// one bucket holding sorted elements `i..j`.
fn boundary_dp(order: &[ElementId], c: impl Fn(usize, usize) -> i64) -> Bucketing {
    let n = order.len();
    if n == 0 {
        return Bucketing {
            order: BucketOrder::trivial(0),
            cost_x2: 0,
        };
    }
    let mut best = vec![i64::MAX; n + 1];
    let mut parents = vec![0usize; n + 1];
    best[0] = 0;
    for j in 1..=n {
        for i in 0..j {
            if best[i] == i64::MAX {
                continue;
            }
            let cand = best[i] + c(i, j);
            if cand < best[j] {
                best[j] = cand;
                parents[j] = i;
            }
        }
    }
    let mut bounds = vec![n];
    let mut j = n;
    while j > 0 {
        j = parents[j];
        bounds.push(j);
    }
    bounds.reverse();
    Bucketing {
        order: cut(order, &bounds),
        cost_x2: best[n] as u64,
    }
}

/// Optimal bucketing (`aggregate::dp::optimal_bucketing`) by trying
/// every composition of `n`. `O(2^n)`.
///
/// # Panics
/// If `f.len() > 20`.
pub fn optimal_bucketing_brute(f: &[Pos]) -> Bucketing {
    let n = f.len();
    assert!(n <= 20, "brute-force bucketing limited to n ≤ 20");
    if n == 0 {
        return Bucketing {
            order: BucketOrder::trivial(0),
            cost_x2: 0,
        };
    }
    let (order, v) = sort_scores(f);
    let mut best_cost = i64::MAX;
    let mut best_bounds: Vec<usize> = vec![];
    for mask in 0u64..(1u64 << (n - 1)) {
        let mut bounds = vec![0usize];
        bounds.extend((0..n - 1).filter(|gap| mask >> gap & 1 == 1).map(|gap| gap + 1));
        bounds.push(n);
        let mut cost = 0i64;
        for w in bounds.windows(2) {
            let m = (w[0] + w[1] + 1) as i64;
            cost += v[w[0]..w[1]].iter().map(|&x| (x - m).abs()).sum::<i64>();
        }
        if cost < best_cost {
            best_cost = cost;
            best_bounds = bounds;
        }
    }
    Bucketing {
        order: cut(&order, &best_bounds),
        cost_x2: best_cost as u64,
    }
}

/// Optimal bucketing with the full `c(i, j)` table precomputed along
/// anti-diagonals (`c(i−1, j+1) = c(i, j) + |f(i) − m| + |f(j+1) − m|`,
/// with the center `m = (i+j+1)/2` shared along `i + j = const`).
/// `O(n²)` time and space.
pub fn optimal_bucketing_table(f: &[Pos]) -> Bucketing {
    let n = f.len();
    let (order, v) = sort_scores(f);
    // c[i][j] for 0 ≤ i < j ≤ n in a flat (n+1)×(n+1) table; v is
    // 0-indexed, so sorted element ℓ (1-based) is v[ℓ − 1].
    let idx = |i: usize, j: usize| i * (n + 1) + j;
    let mut c = vec![0i64; (n + 1) * (n + 1)];
    for i in 0..n {
        c[idx(i, i + 1)] = (v[i] - (2 * i as i64 + 2)).abs();
    }
    for w in 2..=n {
        for i in 0..=(n - w) {
            let j = i + w;
            let m = (i + j + 1) as i64;
            let inner = if w == 2 { 0 } else { c[idx(i + 1, j - 1)] };
            c[idx(i, j)] = inner + (v[i] - m).abs() + (v[j - 1] - m).abs();
        }
    }
    boundary_dp(&order, |i, j| c[idx(i, j)])
}

/// Optimal bucketing computing each `c(i, j)` on demand from prefix sums
/// with a binary search: `O(n² log n)` time, `O(n)` space, no
/// integrality assumption on the scores.
pub fn optimal_bucketing_prefix(f: &[Pos]) -> Bucketing {
    let (order, v) = sort_scores(f);
    let mut prefix = vec![0i64; v.len() + 1];
    for (r, &x) in v.iter().enumerate() {
        prefix[r + 1] = prefix[r] + x;
    }
    boundary_dp(&order, |i, j| {
        let m = (i + j + 1) as i64;
        let t = i + v[i..j].partition_point(|&x| x < m);
        let below = (t - i) as i64 * m - (prefix[t] - prefix[i]);
        let above = (prefix[j] - prefix[t]) - (j - t) as i64 * m;
        below + above
    })
}

/// MEDRANK (`access::medrank`) stated per element rather than as a
/// round loop. Source `s` delivers element `e` in round
/// `r_s(e)`: its 1-based place in `s`'s sorted-access order (ties by
/// ascending id), or with `by_bucket` its 1-based bucket index. Element
/// `e` wins in the first round `r` at which the units of the sources
/// with `r_s(e) ≤ r` exceed half of all units. The winners are the
/// first `k` elements by (round, id); each source's depth is the number
/// of elements it delivers in rounds up to the last winner's. Returns
/// `(top, sorted_depth)`.
///
/// # Panics
/// If the profile is empty, its domains differ, `units` does not give
/// one unit count per source, all units are zero, or `k > n`.
pub fn medrank(
    inputs: &[BucketOrder],
    units: &[u128],
    k: usize,
    by_bucket: bool,
) -> (Vec<ElementId>, Vec<u64>) {
    let n = inputs[0].len();
    assert!(inputs.iter().all(|s| s.len() == n) && units.len() == inputs.len() && k <= n);
    let total: u128 = units.iter().sum();
    let round = |s: &BucketOrder, e: ElementId| -> usize {
        if by_bucket {
            s.bucket_index(e) + 1
        } else {
            s.by_rank().iter().position(|&x| x == e).expect("in the domain") + 1
        }
    };
    let won = |e: ElementId| -> usize {
        let mut arrivals: Vec<(usize, u128)> =
            inputs.iter().zip(units).map(|(s, &w)| (round(s, e), w)).collect();
        arrivals.sort_unstable();
        let mut mass = 0;
        let majority = arrivals.into_iter().find(|&(_, w)| {
            mass += w;
            2 * mass > total
        });
        majority.expect("some source has weight").0
    };
    let mut wins: Vec<(usize, ElementId)> = (0..n as ElementId).map(|e| (won(e), e)).collect();
    wins.sort_unstable();
    wins.truncate(k);
    let last = wins.last().map_or(0, |&(r, _)| r);
    let depth = inputs
        .iter()
        .map(|s| match by_bucket {
            true => u64::from(s.bucket_starts()[last.min(s.num_buckets())]),
            false => last.min(n) as u64,
        })
        .collect();
    (wins.into_iter().map(|(_, e)| e).collect(), depth)
}
