//! The classical metrics on full rankings (Section 2.2): Kendall tau `K`
//! and the Spearman footrule `F`, plus the Diaconis–Graham inequalities.

use crate::error::check_same_domain;
use crate::MetricsError;
use bucketrank_core::alg::count_inversions;
use bucketrank_core::{BucketOrder, ElementId};

/// Kendall tau distance `K(σ, τ)` between two **full** rankings: the
/// number of pairwise disagreements (equivalently, bubble-sort exchanges).
///
/// `O(n log n)` by inversion counting.
///
/// # Errors
/// [`MetricsError::NotFullRanking`] if either input has ties;
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn kendall(sigma: &BucketOrder, tau: &BucketOrder) -> Result<u64, MetricsError> {
    check_same_domain(sigma, tau)?;
    if !sigma.is_full() || !tau.is_full() {
        return Err(MetricsError::NotFullRanking);
    }
    // Walk σ in rank order; count inversions of the τ-rank sequence.
    let perm = sigma.as_permutation().expect("checked full");
    let tau_rank: Vec<u32> = perm
        .iter()
        .map(|&e| tau.bucket_index(e) as u32)
        .collect();
    Ok(count_inversions(&tau_rank))
}

/// Spearman footrule distance `F(σ, τ) = Σ_d |σ(d) − τ(d)|` between two
/// **full** rankings. Positions of full rankings are whole ranks, so the
/// value is an exact integer in the paper's units.
///
/// # Errors
/// [`MetricsError::NotFullRanking`] if either input has ties;
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn footrule(sigma: &BucketOrder, tau: &BucketOrder) -> Result<u64, MetricsError> {
    check_same_domain(sigma, tau)?;
    if !sigma.is_full() || !tau.is_full() {
        return Err(MetricsError::NotFullRanking);
    }
    let mut total_half_units = 0u64;
    for e in 0..sigma.len() as ElementId {
        total_half_units += sigma.position(e).abs_diff(tau.position(e));
    }
    debug_assert_eq!(total_half_units % 2, 0);
    Ok(total_half_units / 2)
}

/// Checks the Diaconis–Graham inequalities
/// `K(σ,τ) ≤ F(σ,τ) ≤ 2·K(σ,τ)` (inequality (1) of the paper) for a pair
/// of full rankings, returning `(K, F)`.
///
/// # Errors
/// As for [`kendall`] and [`footrule`].
pub fn diaconis_graham(sigma: &BucketOrder, tau: &BucketOrder) -> Result<(u64, u64), MetricsError> {
    let k = kendall(sigma, tau)?;
    let f = footrule(sigma, tau)?;
    debug_assert!(k <= f && f <= 2 * k || (k == 0 && f == 0));
    Ok((k, f))
}

/// Maximum possible Kendall distance on a domain of size `n`: `n(n−1)/2`
/// (also the `Kprof` and `KHaus` diameter, see [`crate::normalized`]).
pub fn kendall_diameter(n: usize) -> u64 {
    (n as u64) * (n.saturating_sub(1) as u64) / 2
}

/// Maximum possible footrule distance on a domain of size `n`: `⌊n²/2⌋`
/// (also the `Fprof` and `FHaus` diameter).
pub fn footrule_diameter(n: usize) -> u64 {
    (n as u64) * (n as u64) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perm(p: &[ElementId]) -> BucketOrder {
        BucketOrder::from_permutation(p).unwrap()
    }

    /// All permutations of 0..n.
    fn all_perms(n: usize) -> Vec<BucketOrder> {
        let mut out = Vec::new();
        let mut items: Vec<ElementId> = (0..n as ElementId).collect();
        permute(&mut items, 0, &mut out);
        out
    }

    fn permute(items: &mut Vec<ElementId>, k: usize, out: &mut Vec<BucketOrder>) {
        if k == items.len() {
            out.push(perm(items));
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, out);
            items.swap(k, i);
        }
    }

    #[test]
    fn kendall_simple() {
        let a = perm(&[0, 1, 2]);
        let b = perm(&[2, 1, 0]);
        assert_eq!(kendall(&a, &a).unwrap(), 0);
        assert_eq!(kendall(&a, &b).unwrap(), 3);
        // Swapping adjacent elements costs exactly 1.
        let c = perm(&[1, 0, 2]);
        assert_eq!(kendall(&a, &c).unwrap(), 1);
    }

    #[test]
    fn footrule_simple() {
        let a = perm(&[0, 1, 2]);
        let b = perm(&[2, 1, 0]);
        assert_eq!(footrule(&a, &a).unwrap(), 0);
        assert_eq!(footrule(&a, &b).unwrap(), 4); // |1-3| + |2-2| + |3-1|
    }

    #[test]
    fn rejects_partial_rankings() {
        let s = BucketOrder::from_buckets(3, vec![vec![0, 1], vec![2]]).unwrap();
        let f = BucketOrder::identity(3);
        assert_eq!(kendall(&s, &f), Err(MetricsError::NotFullRanking));
        assert_eq!(footrule(&f, &s), Err(MetricsError::NotFullRanking));
    }

    #[test]
    fn diaconis_graham_holds_exhaustively() {
        let perms = all_perms(4);
        for a in &perms {
            for b in &perms {
                let (k, f) = diaconis_graham(a, b).unwrap();
                assert!(k <= f, "K ≤ F failed: {a:?} {b:?}");
                assert!(f <= 2 * k || k == 0, "F ≤ 2K failed: {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn metric_axioms_exhaustive() {
        let perms = all_perms(4);
        for a in &perms {
            assert_eq!(kendall(a, a).unwrap(), 0);
            for b in &perms {
                let kab = kendall(a, b).unwrap();
                assert_eq!(kab, kendall(b, a).unwrap());
                if a != b {
                    assert!(kab > 0);
                }
                for c in &perms {
                    assert!(
                        kendall(a, c).unwrap() <= kab + kendall(b, c).unwrap(),
                        "triangle inequality failed"
                    );
                }
            }
        }
    }

    #[test]
    fn diameters() {
        let id = BucketOrder::identity(6);
        let rev = id.reverse();
        assert_eq!(kendall(&id, &rev).unwrap(), kendall_diameter(6));
        assert_eq!(footrule(&id, &rev).unwrap(), footrule_diameter(6));
        let id5 = BucketOrder::identity(5);
        let rev5 = id5.reverse();
        assert_eq!(footrule(&id5, &rev5).unwrap(), footrule_diameter(5));
        assert_eq!(footrule_diameter(5), 12);
    }

    #[test]
    fn domain_mismatch() {
        let a = BucketOrder::identity(3);
        let b = BucketOrder::identity(4);
        assert!(kendall(&a, &b).is_err());
        assert!(footrule(&a, &b).is_err());
    }
}
