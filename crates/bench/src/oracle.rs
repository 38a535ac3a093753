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

use bucketrank_aggregate::kwiksort::kwiksort_with_tally;
use bucketrank_aggregate::minmax::{ClassConstraints, MinMaxObjective, DEFAULT_RESTARTS};
use bucketrank_aggregate::{AggregateError, ProfileTally};
use bucketrank_core::{BucketOrder, CoreError, ElementId, Pos, TypeSeq};

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
