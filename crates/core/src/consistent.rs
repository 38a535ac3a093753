//! Score functions vs partial rankings: consistency, the induced ranking
//! `f̄`, and the projection `⟨f⟩_α` onto a type (Appendix A.6.1).
//!
//! A function `f : D → ℝ` and a partial ranking `σ` are *consistent* when
//! no pair has `f(i) < f(j)` but `σ(i) > σ(j)`. `⟨f⟩` is the set of partial
//! rankings consistent with `f`, and `⟨f⟩_α` its subset with type `α`.
//! Lemma 27 shows any member of `⟨f⟩_α` minimizes `L1(·, f)` among partial
//! rankings of type `α` — the key step in turning a median score vector
//! into a near-optimal top-k list or bucket order.

use crate::{BucketOrder, CoreError, ElementId, Pos, TypeSeq};

/// Whether the score vector `f` (indexed by element id) is consistent with
/// `sigma`: there is no pair with `f(i) < f(j)` and `σ(i) > σ(j)`.
///
/// Runs in `O(n)`: a violation exists exactly when some earlier bucket's
/// maximum score exceeds a later bucket's minimum score.
///
/// # Errors
/// Returns [`CoreError::DomainMismatch`] if `f.len() != sigma.len()`.
pub fn consistent_with(f: &[Pos], sigma: &BucketOrder) -> Result<bool, CoreError> {
    if f.len() != sigma.len() {
        return Err(CoreError::DomainMismatch {
            left: f.len(),
            right: sigma.len(),
        });
    }
    // violation ⟺ ∃ buckets B_i before B_j with x ∈ B_i, y ∈ B_j and
    // f(x) > f(y) ⟺ max f(B_i) > min f(B_j) for some i < j.
    let mut running_max: Option<Pos> = None;
    for b in sigma.buckets() {
        let mut lo = f[b[0] as usize];
        let mut hi = lo;
        for &e in &b[1..] {
            let v = f[e as usize];
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        if let Some(m) = running_max {
            if m > lo {
                return Ok(false);
            }
        }
        running_max = Some(match running_max {
            Some(m) if m > hi => m,
            _ => hi,
        });
    }
    Ok(true)
}

/// The partial ranking `f̄` *induced* by a score vector (Section 6): rank
/// by `f` ascending, equal scores tied.
pub fn induced_ranking(f: &[Pos]) -> BucketOrder {
    BucketOrder::from_keys(f)
}

/// The canonical member of `⟨f⟩_α`: sort elements by `f` (ties by element
/// id, making the choice deterministic) and cut into buckets of the sizes
/// prescribed by `alpha`.
///
/// By Lemma 27 the result minimizes `L1(·, f)` over all partial rankings of
/// type `alpha`. With `alpha = TypeSeq::top_k(n, k)` this is exactly the
/// paper's "top k objects of `f`, ordered according to `f`, ties broken
/// arbitrarily" (Theorem 9).
///
/// # Errors
/// Returns [`CoreError::TypeSizeMismatch`] if `alpha` does not sum to
/// `f.len()`.
pub fn project_to_type(f: &[Pos], alpha: &TypeSeq) -> Result<BucketOrder, CoreError> {
    let n = f.len();
    if alpha.domain_size() != n {
        return Err(CoreError::TypeSizeMismatch {
            type_total: alpha.domain_size(),
            domain_size: n,
        });
    }
    // A stable sort over ascending ids breaks score ties by id.
    let mut ids: Vec<ElementId> = (0..n as ElementId).collect();
    ids.sort_by(|&a, &b| f[a as usize].cmp(&f[b as usize]));
    let mut starts = Vec::with_capacity(alpha.num_buckets() + 1);
    starts.push(0u32);
    let mut cursor = 0usize;
    for &s in alpha.sizes() {
        ids[cursor..cursor + s].sort_unstable();
        cursor += s;
        starts.push(cursor as u32);
    }
    Ok(BucketOrder::from_ranked(ids, starts))
}

/// Enumerates **every** bucket order on a domain of size `n` (all ordered
/// set partitions — the Fubini number of them). Brute-force verification
/// only; `n ≤ 7` is practical (47 293 orders at `n = 7`).
pub fn all_bucket_orders(n: usize) -> Vec<BucketOrder> {
    let mut out = Vec::new();
    let mut buckets: Vec<Vec<ElementId>> = Vec::new();
    place(0, n, &mut buckets, &mut out);
    out
}

fn place(
    e: usize,
    n: usize,
    buckets: &mut Vec<Vec<ElementId>>,
    out: &mut Vec<BucketOrder>,
) {
    if e == n {
        out.push(
            BucketOrder::from_buckets(n, buckets.clone()).expect("partition covers the domain"),
        );
        return;
    }
    let id = e as ElementId;
    // Join an existing bucket.
    for bi in 0..buckets.len() {
        buckets[bi].push(id);
        place(e + 1, n, buckets, out);
        buckets[bi].pop();
    }
    // Open a new bucket in any gap.
    for gap in 0..=buckets.len() {
        buckets.insert(gap, vec![id]);
        place(e + 1, n, buckets, out);
        buckets.remove(gap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fubini;
    use std::collections::HashSet;

    fn pos_vec(vals: &[i64]) -> Vec<Pos> {
        vals.iter().map(|&v| Pos::from_half_units(v)).collect()
    }

    /// Definition-level consistency check.
    fn consistent_naive(f: &[Pos], sigma: &BucketOrder) -> bool {
        let n = f.len() as ElementId;
        for i in 0..n {
            for j in 0..n {
                if f[i as usize] < f[j as usize] && sigma.prefers(j, i) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn consistency_examples() {
        let sigma = BucketOrder::from_buckets(3, vec![vec![0, 1], vec![2]]).unwrap();
        assert!(consistent_with(&pos_vec(&[2, 2, 10]), &sigma).unwrap());
        // The constant function is consistent with everything.
        assert!(consistent_with(&pos_vec(&[5, 5, 5]), &sigma).unwrap());
        // f puts 2 strictly below 0, but σ puts 0 ahead.
        assert!(!consistent_with(&pos_vec(&[4, 4, 2]), &sigma).unwrap());
        assert!(consistent_with(&pos_vec(&[1, 2]), &sigma).is_err());
    }

    #[test]
    fn consistency_fast_equals_naive_exhaustive() {
        let fs: Vec<Vec<Pos>> = vec![
            pos_vec(&[1, 1, 1]),
            pos_vec(&[1, 2, 3]),
            pos_vec(&[3, 2, 1]),
            pos_vec(&[1, 1, 2]),
            pos_vec(&[2, 1, 1]),
            pos_vec(&[1, 3, 1]),
        ];
        for sigma in all_bucket_orders(3) {
            for f in &fs {
                assert_eq!(
                    consistent_with(f, &sigma).unwrap(),
                    consistent_naive(f, &sigma),
                    "f = {f:?}, σ = {sigma:?}"
                );
            }
        }
    }

    #[test]
    fn induced_ranking_groups_equal_scores() {
        let f = pos_vec(&[4, 2, 4, 7]);
        let r = induced_ranking(&f);
        assert_eq!(r.display(), "[1 | 0 2 | 3]");
        assert!(consistent_with(&f, &r).unwrap());
    }

    #[test]
    fn project_to_type_is_consistent_and_typed() {
        let f = pos_vec(&[6, 2, 6, 1, 9]);
        let alpha = TypeSeq::new(vec![2, 3]).unwrap();
        let p = project_to_type(&f, &alpha).unwrap();
        assert_eq!(p.type_seq(), alpha);
        assert!(consistent_with(&f, &p).unwrap());
        // The two smallest scores (elements 3 and 1) form the first bucket.
        assert_eq!(p.buckets()[0], vec![1, 3]);
    }

    #[test]
    fn project_top_k_orders_by_score() {
        let f = pos_vec(&[6, 2, 8, 1, 9]);
        let alpha = TypeSeq::top_k(5, 2).unwrap();
        let p = project_to_type(&f, &alpha).unwrap();
        assert_eq!(p.display(), "[3 | 1 | 0 2 4]");
    }

    #[test]
    fn project_type_mismatch() {
        let f = pos_vec(&[1, 2]);
        let alpha = TypeSeq::new(vec![3]).unwrap();
        assert!(project_to_type(&f, &alpha).is_err());
    }

    #[test]
    fn all_bucket_orders_counts_match_fubini() {
        for n in 0..=5 {
            let orders = all_bucket_orders(n);
            assert_eq!(orders.len() as u128, fubini(n).unwrap(), "n = {n}");
            let distinct: HashSet<_> = orders.iter().map(|o| o.display()).collect();
            assert_eq!(distinct.len(), orders.len(), "duplicates at n = {n}");
        }
    }
}
