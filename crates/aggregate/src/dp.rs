//! Optimal bucketing of a score vector: the `O(n²)` dynamic program of
//! Appendix A.6.4 (the paper's Figure 1).
//!
//! Given a score vector `f`, the algorithms compute a partial ranking
//! `f†` minimizing `L1(f†, f)` over **all** partial rankings. Applied to a
//! median vector (Lemma 8), this yields the Theorem 10 guarantees: the
//! result is within factor 2 of any partial-ranking aggregation when the
//! inputs are partial rankings, and factor 3 in general.
//!
//! [`optimal_bucketing`] is the paper's Figure 1: `O(n²)` time, linear
//! space, exploiting that `2·f(i)` is integral (always true for our
//! [`Pos`] half-units). **Implementation note:** the paper's Lemma 37
//! update assumes the crossing index `k` satisfies `k ≥ i + 1`; for
//! score vectors with many equal values the `WHILE` loop can leave
//! `k ≤ i`, making the printed update formula overshoot. We clamp `k`
//! to `i + 1` before applying it, which restores the intended "count
//! below minus count above" semantics (verified exhaustively against
//! `bucketrank_bench::oracle::optimal_bucketing_brute` in the tests).
//! The oracle also keeps the two alternative DPs experiment E5 times
//! against it: a quadratic-space anti-diagonal table and a linear-space
//! prefix-sum variant.
//!
//! All costs are reported in half-units (`2 × L1`), consistent with the
//! rest of the workspace.

use crate::median::{median_positions, MedianPolicy};
use crate::AggregateError;
use bucketrank_core::{BucketOrder, ElementId, Pos};

/// Result of an optimal-bucketing computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucketing {
    /// The optimal partial ranking `f†`.
    pub order: BucketOrder,
    /// Its cost `2·L1(f†, f)` in half-units.
    pub cost_x2: u64,
}

/// Shared preprocessing: elements sorted ascending by `(score, id)` and
/// the sorted half-unit values.
fn sort_scores(f: &[Pos]) -> (Vec<ElementId>, Vec<i64>) {
    let mut order: Vec<ElementId> = (0..f.len() as ElementId).collect();
    order.sort_by(|&a, &b| f[a as usize].cmp(&f[b as usize]).then(a.cmp(&b)));
    let v: Vec<i64> = order.iter().map(|&e| f[e as usize].half_units()).collect();
    (order, v)
}

/// The bucketing that cuts the sorted elements at `bounds`, listed from
/// `n` down to 0 as the DPs' parent walks produce them.
fn cut(order: &[ElementId], mut bounds: Vec<usize>, cost_x2: i64) -> Bucketing {
    bounds.reverse();
    let buckets = bounds.windows(2).map(|w| order[w[0]..w[1]].to_vec()).collect();
    Bucketing {
        order: BucketOrder::from_buckets(order.len(), buckets).expect("bounds partition the domain"),
        cost_x2: cost_x2 as u64,
    }
}

/// The paper's Figure 1 algorithm: optimal bucketing in `O(n²)` time and
/// linear space. See the [module docs](self) for the `k`-clamping note.
pub fn optimal_bucketing(f: &[Pos]) -> Bucketing {
    let n = f.len();
    let (order, v) = sort_scores(f);
    // 1-indexed sorted values, v1[1..=n].
    let mut v1 = vec![0i64; n + 1];
    v1[1..].copy_from_slice(&v);

    let mut best = vec![i64::MAX; n + 1];
    let mut parents = vec![0usize; n + 1];
    best[0] = 0;
    for j in 1..=n {
        // c = C2(i, j) for the current i, starting at i = 0:
        // C2(0, j) = Σ_{ℓ=1..j} |v(ℓ) − (j+1)| (center in half-units).
        let mut c: i64 = (1..=j).map(|l| (v1[l] - (j as i64 + 1)).abs()).sum();
        let mut best_j = best[0] + c;
        let mut arg = 0usize;
        let mut k = 1usize;
        for i in 1..j {
            // Advance k to the first index with v(k) ≥ i + j + 1.
            while k <= j && v1[k] < (i + j + 1) as i64 {
                k += 1;
            }
            // Lemma 37 update, with k clamped to i+1 (see module docs):
            // C2(i, j) = C2(i−1, j) − |v(i) − (i+j)| + below − above.
            let ek = k.max(i + 1);
            let below = (ek - 1 - i) as i64;
            let above = (j + 1 - ek) as i64;
            c = c - (v1[i] - (i + j) as i64).abs() + below - above;
            debug_assert!(c >= 0, "bucket cost must be nonnegative");
            if best[i] != i64::MAX && best[i] + c < best_j {
                best_j = best[i] + c;
                arg = i;
            }
        }
        best[j] = best_j;
        parents[j] = arg;
    }
    let mut bounds = vec![n];
    while let Some(&j) = bounds.last().filter(|&&j| j > 0) {
        bounds.push(parents[j]);
    }
    cut(&order, bounds, best[n])
}

/// Optimal bucketing with **at most** `max_buckets` buckets: the best
/// `L1(f†, f)` over partial rankings whose type has `≤ max_buckets`
/// parts. `O(n²·max_buckets)` time via the layered boundary DP (no
/// integrality assumption; `c(i, j)` from prefix sums).
///
/// Useful when the output must fit a UI with a bounded number of tiers
/// (medal podiums, star ratings); with `max_buckets ≥ n` it coincides
/// with [`optimal_bucketing`].
///
/// # Panics
/// Panics if `max_buckets == 0` while `f` is nonempty.
pub fn optimal_bucketing_bounded(f: &[Pos], max_buckets: usize) -> Bucketing {
    let n = f.len();
    if n == 0 {
        return Bucketing {
            order: BucketOrder::trivial(0),
            cost_x2: 0,
        };
    }
    assert!(max_buckets > 0, "need at least one bucket");
    let t_max = max_buckets.min(n);
    let (order, v) = sort_scores(f);
    let mut prefix = vec![0i64; n + 1];
    for (r, &x) in v.iter().enumerate() {
        prefix[r + 1] = prefix[r] + x;
    }
    let cost = |i: usize, j: usize| -> i64 {
        let m = (i + j + 1) as i64;
        let t = i + v[i..j].partition_point(|&x| x < m);
        let below_cnt = (t - i) as i64;
        let below_sum = prefix[t] - prefix[i];
        let above_cnt = (j - t) as i64;
        let above_sum = prefix[j] - prefix[t];
        (below_cnt * m - below_sum) + (above_sum - above_cnt * m)
    };
    // best[t][j]: min cost covering the first j sorted elements with
    // exactly t buckets.
    const INF: i64 = i64::MAX / 2;
    let mut best = vec![vec![INF; n + 1]; t_max + 1];
    let mut parent = vec![vec![0usize; n + 1]; t_max + 1];
    best[0][0] = 0;
    for t in 1..=t_max {
        for j in t..=n {
            for i in t - 1..j {
                if best[t - 1][i] >= INF {
                    continue;
                }
                let cand = best[t - 1][i] + cost(i, j);
                if cand < best[t][j] {
                    best[t][j] = cand;
                    parent[t][j] = i;
                }
            }
        }
    }
    let (best_t, &best_cost) = (1..=t_max)
        .map(|t| (t, &best[t][n]))
        .min_by_key(|&(t, &c)| (c, t))
        .expect("t_max ≥ 1");
    let mut bounds = vec![n];
    for t in (1..=best_t).rev() {
        bounds.push(parent[t][bounds[bounds.len() - 1]]);
    }
    cut(&order, bounds, best_cost)
}

/// Median aggregation into an optimal partial ranking (Theorem 10): the
/// `f†` bucketing of the per-element median vector. Within factor **2** of
/// every partial ranking under the `Fprof` objective when the inputs are
/// partial rankings.
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn aggregate_optimal_bucketing(
    inputs: &[BucketOrder],
    policy: MedianPolicy,
) -> Result<Bucketing, AggregateError> {
    let f = median_positions(inputs, policy)?;
    Ok(optimal_bucketing(&f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bucketrank_metrics::footrule::l1_x2;

    fn pos_vec(vals: &[i64]) -> Vec<Pos> {
        vals.iter().map(|&h| Pos::from_half_units(h)).collect()
    }

    fn check_cost(f: &[Pos], b: &Bucketing) {
        // Reported cost must equal the actual L1 between f† and f.
        let actual = l1_x2(&b.order.positions(), f).unwrap();
        assert_eq!(actual, b.cost_x2, "cost mismatch for f = {f:?}");
    }

    #[test]
    fn exact_scores_of_a_bucket_order_cost_zero() {
        let s = BucketOrder::from_buckets(5, vec![vec![0, 3], vec![1], vec![2, 4]]).unwrap();
        let b = optimal_bucketing(&s.positions());
        assert_eq!(b.cost_x2, 0);
        assert_eq!(b.order, s);
    }

    #[test]
    fn optimal_beats_every_type_projection() {
        use bucketrank_core::consistent::project_to_type;
        use bucketrank_core::TypeSeq;
        let f = pos_vec(&[2, 3, 3, 9, 11, 12]);
        let b = optimal_bucketing(&f);
        check_cost(&f, &b);
        for alpha in TypeSeq::all_types(6) {
            let proj = project_to_type(&f, &alpha).unwrap();
            let cost = l1_x2(&proj.positions(), &f).unwrap();
            assert!(b.cost_x2 <= cost, "beaten by type {alpha}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let b = optimal_bucketing(&[]);
        assert_eq!(b.cost_x2, 0);
        assert!(b.order.is_empty());
        let f = pos_vec(&[7]);
        let b = optimal_bucketing(&f);
        assert_eq!(b.order, BucketOrder::trivial(1));
        // Single element sits at position 1 (half-units 2); score 3.5 → cost |7−2| = 5.
        assert_eq!(b.cost_x2, 5);
    }

    #[test]
    fn tight_cluster_groups_into_one_bucket() {
        // Two elements both scored 1.5 (half-units 3): the tie bucket at
        // position 1.5 costs 0, strictly better than any full ranking.
        let f = pos_vec(&[3, 3]);
        let b = optimal_bucketing(&f);
        assert_eq!(b.cost_x2, 0);
        assert_eq!(b.order, BucketOrder::trivial(2));
    }

    #[test]
    fn separated_scores_stay_singletons() {
        // Scores exactly at ranks 1 and 2: the full ranking costs 0.
        let f = pos_vec(&[4, 2]);
        let b = optimal_bucketing(&f);
        assert_eq!(b.cost_x2, 0);
        assert!(b.order.is_full());
        assert_eq!(b.order.as_permutation(), Some(vec![1, 0]));
    }

    #[test]
    fn aggregate_optimal_bucketing_runs() {
        let inputs = [
            BucketOrder::from_keys(&[1, 1, 2, 3]),
            BucketOrder::from_keys(&[1, 2, 2, 3]),
            BucketOrder::from_keys(&[2, 1, 3, 3]),
        ];
        let b = aggregate_optimal_bucketing(&inputs, MedianPolicy::Lower).unwrap();
        let f = median_positions(&inputs, MedianPolicy::Lower).unwrap();
        assert_eq!(b.cost_x2, l1_x2(&b.order.positions(), &f).unwrap());
        assert!(aggregate_optimal_bucketing(&[], MedianPolicy::Lower).is_err());
    }

    #[test]
    fn bounded_dp_monotone_and_matches_unbounded() {
        let f = pos_vec(&[2, 3, 3, 9, 11, 12, 20]);
        let unbounded = optimal_bucketing(&f);
        let mut prev = u64::MAX;
        for t in 1..=f.len() {
            let b = optimal_bucketing_bounded(&f, t);
            check_cost(&f, &b);
            assert!(b.order.num_buckets() <= t);
            assert!(b.cost_x2 <= prev, "more buckets should never cost more");
            prev = b.cost_x2;
        }
        assert_eq!(
            optimal_bucketing_bounded(&f, f.len()).cost_x2,
            unbounded.cost_x2
        );
        // t = 1 is the single bucket.
        let one = optimal_bucketing_bounded(&f, 1);
        assert_eq!(one.order, BucketOrder::trivial(f.len()));
    }

    #[test]
    fn bounded_dp_matches_type_enumeration() {
        use bucketrank_core::consistent::project_to_type;
        use bucketrank_core::TypeSeq;
        let f = pos_vec(&[1, 4, 4, 7, 13, 2]);
        for t in 1..=4 {
            let b = optimal_bucketing_bounded(&f, t);
            // Brute force over all types with ≤ t parts.
            let best = TypeSeq::all_types(6)
                .into_iter()
                .filter(|a| a.num_buckets() <= t)
                .map(|a| {
                    let proj = project_to_type(&f, &a).unwrap();
                    l1_x2(&proj.positions(), &f).unwrap()
                })
                .min()
                .unwrap();
            assert_eq!(b.cost_x2, best, "t = {t}");
        }
    }

    #[test]
    fn bounded_dp_edges() {
        assert_eq!(optimal_bucketing_bounded(&[], 1).cost_x2, 0);
        let f = pos_vec(&[5]);
        let b = optimal_bucketing_bounded(&f, 3);
        assert_eq!(b.order.num_buckets(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn bounded_dp_zero_buckets_panics() {
        let _ = optimal_bucketing_bounded(&[Pos::from_rank(1)], 0);
    }
}
