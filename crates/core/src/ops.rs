//! Lattice operations on bucket orders.
//!
//! Under the refinement relation `⪯` of Section 2, the bucket orders on a
//! fixed domain form a partial order whose structure these operations
//! expose:
//!
//! * [`common_refinement`] — the **coarsest common refinement** (meet-like
//!   operation): the bucket order refining both inputs with the fewest
//!   buckets. It exists iff the inputs never order a pair oppositely, and
//!   equals `τ∗σ` (= `σ∗τ`) in that case.
//! * [`finest_common_coarsening`] — the **finest common coarsening**
//!   (join): the bucket order with the most buckets that both inputs
//!   refine. Always exists (the trivial one-bucket order coarsens
//!   everything); computed from the common prefix sets in `O(n)`.
//! * [`coarsen_adjacent`] — merge runs of adjacent buckets (the generic
//!   coarsening step; every coarsening of `σ` arises this way).

use crate::refine::star;
use crate::{BucketOrder, CoreError};

/// The coarsest common refinement of `a` and `b`, or `None` when the two
/// orders conflict (some pair is ordered oppositely — then no common
/// refinement exists at all).
///
/// When it exists it equals both `a∗b` and `b∗a`, and every common
/// refinement of `a` and `b` refines it.
///
/// # Errors
/// [`CoreError::DomainMismatch`] on differing domains.
pub fn common_refinement(
    a: &BucketOrder,
    b: &BucketOrder,
) -> Result<Option<BucketOrder>, CoreError> {
    if a.len() != b.len() {
        return Err(CoreError::DomainMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    // A conflict is a pair ordered oppositely; detect in O(n log n) by
    // checking that sorting by (a-bucket, b-bucket) yields non-decreasing
    // b-buckets across a-bucket boundaries... equivalently: a∗b must also
    // refine a (star always refines its right operand, so check the left).
    let candidate = star(a, b)?;
    if crate::refine::is_refinement(&candidate, a)? {
        Ok(Some(candidate))
    } else {
        Ok(None)
    }
}

/// The finest common coarsening (join) of `a` and `b`: its bucket
/// boundaries are exactly the prefix sizes at which `a`'s and `b`'s
/// element prefixes coincide as sets. `O(n)`.
///
/// # Errors
/// [`CoreError::DomainMismatch`] on differing domains.
pub fn finest_common_coarsening(
    a: &BucketOrder,
    b: &BucketOrder,
) -> Result<BucketOrder, CoreError> {
    if a.len() != b.len() {
        return Err(CoreError::DomainMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    // Walk a's buckets in rank order. The a-prefix through a bucket is
    // also a b-prefix exactly when the furthest b-bucket end reached so
    // far equals its size; those sizes are the join's boundaries.
    let b_ends = &b.bucket_starts()[1..];
    let a_ends = &a.bucket_starts()[1..];
    let mut starts = vec![0u32];
    let mut running_max = 0u32;
    for (bucket, &end) in a.buckets().iter().zip(a_ends) {
        for &e in bucket {
            running_max = running_max.max(b_ends[b.bucket_index(e)]);
        }
        if running_max == end {
            starts.push(end);
        }
    }
    Ok(a.merge_runs(starts))
}

/// Coarsens `sigma` by merging runs of adjacent buckets: `runs[i]` is how
/// many consecutive buckets the `i`-th output bucket absorbs.
///
/// # Errors
/// [`CoreError::TypeSizeMismatch`] if the runs don't cover the buckets
/// exactly; [`CoreError::EmptyBucket`] on a zero run.
pub fn coarsen_adjacent(sigma: &BucketOrder, runs: &[usize]) -> Result<BucketOrder, CoreError> {
    if let Some(index) = runs.iter().position(|&r| r == 0) {
        return Err(CoreError::EmptyBucket { index });
    }
    let total: usize = runs.iter().sum();
    if total != sigma.num_buckets() {
        return Err(CoreError::TypeSizeMismatch {
            type_total: total,
            domain_size: sigma.num_buckets(),
        });
    }
    let mut starts = Vec::with_capacity(runs.len() + 1);
    starts.push(0u32);
    let mut cursor = 0usize;
    for &r in runs {
        cursor += r;
        starts.push(sigma.bucket_starts()[cursor]);
    }
    Ok(sigma.merge_runs(starts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistent::all_bucket_orders;
    use crate::refine::is_refinement;
    use crate::ElementId;

    fn bo(n: usize, buckets: Vec<Vec<ElementId>>) -> BucketOrder {
        BucketOrder::from_buckets(n, buckets).unwrap()
    }

    #[test]
    fn common_refinement_examples() {
        let a = bo(4, vec![vec![0, 1], vec![2, 3]]);
        let b = bo(4, vec![vec![0, 1, 2], vec![3]]);
        let r = common_refinement(&a, &b).unwrap().unwrap();
        assert_eq!(r.display(), "[0 1 | 2 | 3]");
        // Conflicting pair: 0 vs 1 ordered oppositely.
        let c = bo(4, vec![vec![0], vec![1], vec![2, 3]]);
        let d = bo(4, vec![vec![1], vec![0], vec![2, 3]]);
        assert_eq!(common_refinement(&c, &d).unwrap(), None);
    }

    #[test]
    fn common_refinement_laws_exhaustive() {
        let orders = all_bucket_orders(3);
        for a in &orders {
            for b in &orders {
                let r = common_refinement(a, b).unwrap();
                let r2 = common_refinement(b, a).unwrap();
                assert_eq!(r.is_some(), r2.is_some());
                if let (Some(r), Some(r2)) = (r, r2) {
                    assert_eq!(r, r2, "meet must be symmetric: {a:?} {b:?}");
                    assert!(is_refinement(&r, a).unwrap());
                    assert!(is_refinement(&r, b).unwrap());
                    // Coarsest: every common refinement refines r.
                    for c in &orders {
                        if is_refinement(c, a).unwrap() && is_refinement(c, b).unwrap() {
                            assert!(is_refinement(c, &r).unwrap());
                        }
                    }
                } else {
                    // No common refinement at all.
                    for c in &orders {
                        assert!(
                            !(is_refinement(c, a).unwrap() && is_refinement(c, b).unwrap()),
                            "{c:?} refines both {a:?} and {b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn join_examples() {
        let a = bo(4, vec![vec![0], vec![1], vec![2], vec![3]]);
        let b = bo(4, vec![vec![1], vec![0], vec![2, 3]]);
        // Common prefixes: {0,1} (after 2 in both) and the whole set.
        let j = finest_common_coarsening(&a, &b).unwrap();
        assert_eq!(j.display(), "[0 1 | 2 3]");
    }

    #[test]
    fn join_laws_exhaustive() {
        let orders = all_bucket_orders(3);
        for a in &orders {
            for b in &orders {
                let j = finest_common_coarsening(a, b).unwrap();
                assert_eq!(j, finest_common_coarsening(b, a).unwrap());
                assert!(is_refinement(a, &j).unwrap());
                assert!(is_refinement(b, &j).unwrap());
                // Finest: j refines every common coarsening.
                for c in &orders {
                    if is_refinement(a, c).unwrap() && is_refinement(b, c).unwrap() {
                        assert!(is_refinement(&j, c).unwrap(), "{a:?} {b:?} {c:?}");
                    }
                }
                // Idempotence / identity laws.
                assert_eq!(&finest_common_coarsening(a, a).unwrap(), a);
            }
        }
    }

    #[test]
    fn join_with_reverse_is_trivial() {
        let a = BucketOrder::identity(5);
        let j = finest_common_coarsening(&a, &a.reverse()).unwrap();
        assert_eq!(j, BucketOrder::trivial(5));
    }

    #[test]
    fn coarsen_adjacent_merges_runs() {
        let s = bo(5, vec![vec![0], vec![1, 2], vec![3], vec![4]]);
        let c = coarsen_adjacent(&s, &[2, 2]).unwrap();
        assert_eq!(c.display(), "[0 1 2 | 3 4]");
        assert!(is_refinement(&s, &c).unwrap());
        assert!(coarsen_adjacent(&s, &[2, 1]).is_err());
        assert!(coarsen_adjacent(&s, &[2, 0, 2]).is_err());
        // Identity coarsening.
        assert_eq!(coarsen_adjacent(&s, &[1, 1, 1, 1]).unwrap(), s);
    }

    #[test]
    fn domain_mismatch_errors() {
        let a = BucketOrder::trivial(2);
        let b = BucketOrder::trivial(3);
        assert!(common_refinement(&a, &b).is_err());
        assert!(finest_common_coarsening(&a, &b).is_err());
    }

    #[test]
    fn empty_domain() {
        let e = BucketOrder::trivial(0);
        assert_eq!(
            finest_common_coarsening(&e, &e).unwrap(),
            BucketOrder::trivial(0)
        );
        assert_eq!(common_refinement(&e, &e).unwrap(), Some(BucketOrder::trivial(0)));
    }
}
