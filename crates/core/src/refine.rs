//! Refinements of partial rankings and the tie-breaking operator `τ∗σ`.
//!
//! Section 2 of the paper: `σ` is a *refinement* of `τ` (written `σ ⪯ τ`)
//! when `τ(i) < τ(j)` implies `σ(i) < σ(j)`; ties of `τ` may be broken
//! freely by `σ`. The `τ`-refinement of `σ`, written `τ∗σ`, refines `σ` by
//! breaking its ties according to `τ` (pairs tied in both stay tied). The
//! operator `∗` is associative, so `ρ∗τ∗σ` is well defined.

use crate::{BucketOrder, CoreError, ElementId};

/// Whether `sigma ⪯ tau`: `sigma` refines `tau`.
///
/// Runs in `O(n)`: each bucket of `sigma` must lie inside one bucket of
/// `tau`, and the induced map from `sigma`-buckets to `tau`-buckets must be
/// non-decreasing.
///
/// # Errors
/// Returns [`CoreError::DomainMismatch`] if the two orders have different
/// domain sizes.
pub fn is_refinement(sigma: &BucketOrder, tau: &BucketOrder) -> Result<bool, CoreError> {
    if sigma.len() != tau.len() {
        return Err(CoreError::DomainMismatch {
            left: sigma.len(),
            right: tau.len(),
        });
    }
    let mut prev_tau_bucket: Option<usize> = None;
    for bucket in sigma.buckets() {
        let tb = tau.bucket_index(bucket[0]);
        if bucket.iter().any(|&e| tau.bucket_index(e) != tb) {
            return Ok(false);
        }
        if let Some(prev) = prev_tau_bucket {
            if tb < prev {
                return Ok(false);
            }
        }
        prev_tau_bucket = Some(tb);
    }
    Ok(true)
}

/// The `τ`-refinement `τ∗σ` of `σ` (Section 2): refine `σ`, breaking each
/// tie by `τ`'s order; pairs tied in both remain tied.
///
/// When `τ` is a full ranking, the result is a full ranking.
///
/// # Errors
/// Returns [`CoreError::DomainMismatch`] on differing domains.
pub fn star(tau: &BucketOrder, sigma: &BucketOrder) -> Result<BucketOrder, CoreError> {
    star_chain(&[tau], sigma)
}

/// The iterated refinement `τ_1 ∗ τ_2 ∗ … ∗ τ_m ∗ σ` (associativity makes
/// the grouping irrelevant): ties of `σ` are broken by `τ_m` first, with
/// remaining ties broken by `τ_{m−1}`, and so on; `τ_1` has the final say
/// on pairs tied everywhere else.
///
/// Implemented as one stable sort by the lexicographic key
/// `(σ-bucket, τ_m-bucket, …, τ_1-bucket)`, which is `O(n·m + n log n)`.
///
/// # Errors
/// Returns [`CoreError::DomainMismatch`] on differing domains.
pub fn star_chain(taus: &[&BucketOrder], sigma: &BucketOrder) -> Result<BucketOrder, CoreError> {
    let n = sigma.len();
    for t in taus {
        if t.len() != n {
            return Err(CoreError::DomainMismatch {
                left: t.len(),
                right: n,
            });
        }
    }
    // Key for element e: σ-bucket, then τ buckets from innermost (last) out.
    let key = |e: ElementId| -> Vec<u32> {
        let mut k = Vec::with_capacity(1 + taus.len());
        k.push(sigma.bucket_index(e) as u32);
        for t in taus.iter().rev() {
            k.push(t.bucket_index(e) as u32);
        }
        k
    };
    let mut ids: Vec<ElementId> = (0..n as ElementId).collect();
    let keys: Vec<Vec<u32>> = ids.iter().map(|&e| key(e)).collect();
    ids.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
    let mut buckets: Vec<Vec<ElementId>> = Vec::new();
    let mut prev: Option<&[u32]> = None;
    for &e in &ids {
        let k = keys[e as usize].as_slice();
        if prev == Some(k) {
            buckets.last_mut().expect("nonempty").push(e);
        } else {
            buckets.push(vec![e]);
            prev = Some(k);
        }
    }
    BucketOrder::from_buckets(n, buckets)
}

/// The number of full refinements of `sigma`: the product of the
/// factorials of its bucket sizes. Returns `None` on overflow.
pub fn count_full_refinements(sigma: &BucketOrder) -> Option<u128> {
    let mut total: u128 = 1;
    for b in sigma.buckets() {
        for i in 2..=b.len() as u128 {
            total = total.checked_mul(i)?;
        }
    }
    Some(total)
}

/// Iterator over **all** full refinements of a bucket order, in a
/// deterministic order. Intended for brute-force verification on small
/// domains (the count grows as the product of bucket-size factorials).
///
/// ```
/// use bucketrank_core::BucketOrder;
/// use bucketrank_core::refine::{full_refinements, count_full_refinements};
///
/// let s = BucketOrder::from_buckets(3, vec![vec![0, 1], vec![2]]).unwrap();
/// let all: Vec<_> = full_refinements(&s).collect();
/// assert_eq!(all.len() as u128, count_full_refinements(&s).unwrap());
/// assert!(all.iter().all(|f| f.is_full()));
/// ```
pub fn full_refinements(sigma: &BucketOrder) -> FullRefinements {
    let per_bucket: Vec<Vec<Vec<ElementId>>> = sigma
        .buckets()
        .iter()
        .map(permutations)
        .collect();
    FullRefinements {
        n: sigma.len(),
        per_bucket,
        odometer: vec![0; sigma.num_buckets()],
        done: false,
    }
}

/// See [`full_refinements`].
#[derive(Debug)]
pub struct FullRefinements {
    n: usize,
    per_bucket: Vec<Vec<Vec<ElementId>>>,
    odometer: Vec<usize>,
    done: bool,
}

impl Iterator for FullRefinements {
    type Item = BucketOrder;

    fn next(&mut self) -> Option<BucketOrder> {
        if self.done {
            return None;
        }
        let mut perm = Vec::with_capacity(self.n);
        for (bi, &pi) in self.odometer.iter().enumerate() {
            perm.extend_from_slice(&self.per_bucket[bi][pi]);
        }
        // Advance the odometer.
        let mut i = self.odometer.len();
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            self.odometer[i] += 1;
            if self.odometer[i] < self.per_bucket[i].len() {
                break;
            }
            self.odometer[i] = 0;
        }
        Some(BucketOrder::from_permutation(&perm).expect("valid by construction"))
    }
}

fn permutations(items: &[ElementId]) -> Vec<Vec<ElementId>> {
    let mut out = Vec::new();
    let mut work = items.to_vec();
    heap_permute(&mut work, items.len(), &mut out);
    out
}

fn heap_permute(work: &mut Vec<ElementId>, k: usize, out: &mut Vec<Vec<ElementId>>) {
    if k <= 1 {
        out.push(work.clone());
        return;
    }
    for i in 0..k {
        heap_permute(work, k - 1, out);
        if k.is_multiple_of(2) {
            work.swap(i, k - 1);
        } else {
            work.swap(0, k - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn bo(n: usize, buckets: Vec<Vec<ElementId>>) -> BucketOrder {
        BucketOrder::from_buckets(n, buckets).unwrap()
    }

    /// Definition-level refinement check: `τ(i) < τ(j) ⇒ σ(i) < σ(j)`.
    fn is_refinement_naive(sigma: &BucketOrder, tau: &BucketOrder) -> bool {
        let n = sigma.len() as ElementId;
        for i in 0..n {
            for j in 0..n {
                if tau.prefers(i, j) && !sigma.prefers(i, j) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn refinement_examples() {
        let tau = bo(4, vec![vec![0, 1], vec![2, 3]]);
        let s1 = bo(4, vec![vec![0], vec![1], vec![2, 3]]);
        let s2 = bo(4, vec![vec![1], vec![0], vec![3], vec![2]]);
        let bad = bo(4, vec![vec![2], vec![0, 1], vec![3]]);
        assert!(is_refinement(&s1, &tau).unwrap());
        assert!(is_refinement(&s2, &tau).unwrap());
        assert!(!is_refinement(&bad, &tau).unwrap());
        // Every order refines the trivial order; reflexivity holds.
        assert!(is_refinement(&tau, &BucketOrder::trivial(4)).unwrap());
        assert!(is_refinement(&tau, &tau).unwrap());
        // Domain mismatch is an error.
        assert!(is_refinement(&tau, &BucketOrder::trivial(5)).is_err());
    }

    #[test]
    fn refinement_fast_equals_naive_exhaustive() {
        let orders = crate::consistent::all_bucket_orders(3);
        for a in &orders {
            for b in &orders {
                assert_eq!(
                    is_refinement(a, b).unwrap(),
                    is_refinement_naive(a, b),
                    "a = {a:?}, b = {b:?}"
                );
            }
        }
    }

    #[test]
    fn star_breaks_ties_by_tau() {
        // σ = [0 1 2 | 3], τ = [2 | 0 3 | 1]
        let sigma = bo(4, vec![vec![0, 1, 2], vec![3]]);
        let tau = bo(4, vec![vec![2], vec![0, 3], vec![1]]);
        let r = star(&tau, &sigma).unwrap();
        // Within σ's first bucket, τ orders 2 < 0 < 1; 3 unaffected.
        assert_eq!(r.display(), "[2 | 0 | 1 | 3]");
        assert!(is_refinement(&r, &sigma).unwrap());
    }

    #[test]
    fn star_keeps_double_ties() {
        let sigma = bo(3, vec![vec![0, 1, 2]]);
        let tau = bo(3, vec![vec![0, 1], vec![2]]);
        let r = star(&tau, &sigma).unwrap();
        assert_eq!(r.display(), "[0 1 | 2]");
        assert!(r.is_tied(0, 1));
    }

    #[test]
    fn star_with_full_tau_is_full() {
        let sigma = bo(4, vec![vec![0, 1], vec![2, 3]]);
        let tau = BucketOrder::from_permutation(&[3, 1, 2, 0]).unwrap();
        let r = star(&tau, &sigma).unwrap();
        assert!(r.is_full());
        assert_eq!(r.as_permutation(), Some(vec![1, 0, 3, 2]));
    }

    #[test]
    fn star_is_associative() {
        let rho = bo(4, vec![vec![3], vec![2], vec![1], vec![0]]);
        let tau = bo(4, vec![vec![0, 1], vec![2, 3]]);
        let sigma = bo(4, vec![vec![0, 1, 2, 3]]);
        // ρ∗(τ∗σ) == (ρ∗τ)∗σ — both equal star_chain([ρ, τ], σ).
        let a = star(&rho, &star(&tau, &sigma).unwrap()).unwrap();
        let b = star(&star(&rho, &tau).unwrap(), &sigma).unwrap();
        let c = star_chain(&[&rho, &tau], &sigma).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn star_domain_mismatch() {
        let sigma = BucketOrder::trivial(3);
        let tau = BucketOrder::trivial(4);
        assert!(star(&tau, &sigma).is_err());
    }

    #[test]
    fn full_refinements_enumeration() {
        let s = bo(4, vec![vec![0, 1], vec![2, 3]]);
        let all: HashSet<Vec<ElementId>> = full_refinements(&s)
            .map(|f| f.as_permutation().unwrap())
            .collect();
        assert_eq!(all.len(), 4);
        assert!(all.contains(&vec![0, 1, 2, 3]));
        assert!(all.contains(&vec![1, 0, 3, 2]));
        for f in full_refinements(&s) {
            assert!(is_refinement(&f, &s).unwrap());
        }
        assert_eq!(count_full_refinements(&s), Some(4));
    }

    #[test]
    fn full_refinements_of_full_ranking_is_itself() {
        let f = BucketOrder::from_permutation(&[1, 0, 2]).unwrap();
        let all: Vec<_> = full_refinements(&f).collect();
        assert_eq!(all, vec![f]);
    }

    #[test]
    fn full_refinements_of_trivial_is_all_permutations() {
        let t = BucketOrder::trivial(4);
        let all: HashSet<Vec<ElementId>> = full_refinements(&t)
            .map(|f| f.as_permutation().unwrap())
            .collect();
        assert_eq!(all.len(), 24);
        assert_eq!(count_full_refinements(&t), Some(24));
    }

    #[test]
    fn count_overflow_is_none() {
        // 30! ≈ 2.7e32 fits in u128; 40! ≈ 8.2e47 does not.
        assert!(count_full_refinements(&BucketOrder::trivial(30)).is_some());
        assert!(count_full_refinements(&BucketOrder::trivial(40)).is_none());
    }
}
