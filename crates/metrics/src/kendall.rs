//! Kendall-tau generalizations to partial rankings: the penalty family
//! `K^(p)` (Section 3.1), the profile metric `Kprof = K^(1/2)`, and the
//! averaging variant `Kavg` (Appendix A.3).

use crate::pairs::pair_counts;
use crate::MetricsError;
use bucketrank_core::BucketOrder;

/// The Kendall distance with penalty parameter `p ∈ [0, 1]`:
/// a penalty of 1 for each discordant pair and `p` for each pair tied in
/// exactly one of the two rankings (pairs tied in both incur no penalty).
///
/// Per Proposition 13, `K^(p)` is a metric for `p ∈ [1/2, 1]`, a *near*
/// metric for `p ∈ (0, 1/2)`, and not even a distance measure at `p = 0`.
/// For the canonical `p = 1/2` prefer the exact [`kprof_x2`].
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn k_p(sigma: &BucketOrder, tau: &BucketOrder, p: f64) -> Result<f64, MetricsError> {
    let c = pair_counts(sigma, tau)?;
    Ok(c.discordant as f64 + p * c.tied_exactly_one() as f64)
}

/// **Twice** the profile Kendall metric: `2·Kprof(σ, τ)`, exactly.
///
/// `Kprof = K^(1/2)` charges `1` per discordant pair and `1/2` per pair
/// tied in exactly one ranking, so `2·Kprof` is always an integer:
/// `2·discordant + |S| + |T|`.
///
/// `O(n log n)`.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn kprof_x2(sigma: &BucketOrder, tau: &BucketOrder) -> Result<u64, MetricsError> {
    let c = pair_counts(sigma, tau)?;
    Ok(2 * c.discordant + c.tied_exactly_one())
}

/// The profile Kendall metric `Kprof(σ, τ)` as a float. Prefer
/// [`kprof_x2`] when exactness matters.
pub fn kprof(sigma: &BucketOrder, tau: &BucketOrder) -> Result<f64, MetricsError> {
    Ok(kprof_x2(sigma, tau)? as f64 / 2.0)
}

/// **Twice** `Kavg(σ, τ)`: the average Kendall distance `K(σ̄, τ̄)` over
/// all pairs of full refinements `σ̄ ⪯ σ`, `τ̄ ⪯ τ` (Appendix A.3).
///
/// A pair tied in both rankings lands in opposite orders in half of the
/// refinement pairs, so `Kavg = Kprof + tied_both/2`. In particular `Kavg`
/// is **not a distance measure** on general partial rankings —
/// `Kavg(σ, σ) > 0` whenever `σ` has a bucket of size ≥ 2, as the paper
/// notes in Appendix A.3 — and it coincides with `Kprof` exactly when no
/// pair is tied in both rankings (e.g. for top-k lists compared over their
/// active domain, the setting of Fagin–Kumar–Sivakumar 2003).
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn kavg_x2(sigma: &BucketOrder, tau: &BucketOrder) -> Result<u64, MetricsError> {
    let c = pair_counts(sigma, tau)?;
    Ok(2 * c.discordant + c.tied_exactly_one() + c.tied_both)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bucketrank_core::consistent::all_bucket_orders;
    use bucketrank_core::ElementId;

    fn bo(n: usize, buckets: Vec<Vec<ElementId>>) -> BucketOrder {
        BucketOrder::from_buckets(n, buckets).unwrap()
    }

    #[test]
    fn paper_proposition13_example() {
        // D = {a, b}: τ1 = a<b, τ2 = {a b}, τ3 = b<a.
        let t1 = bo(2, vec![vec![0], vec![1]]);
        let t2 = bo(2, vec![vec![0, 1]]);
        let t3 = bo(2, vec![vec![1], vec![0]]);
        // K^(0)(τ1, τ2) = 0 although τ1 ≠ τ2 — not a distance measure.
        assert_eq!(k_p(&t1, &t2, 0.0).unwrap(), 0.0);
        // K^(p)(τ1, τ2) = p, K^(p)(τ2, τ3) = p, K^(p)(τ1, τ3) = 1.
        for &p in &[0.1, 0.3, 0.5, 0.8, 1.0] {
            assert_eq!(k_p(&t1, &t2, p).unwrap(), p);
            assert_eq!(k_p(&t2, &t3, p).unwrap(), p);
            assert_eq!(k_p(&t1, &t3, p).unwrap(), 1.0);
        }
        // Triangle fails for p < 1/2 on this triple, holds at p = 1/2.
        assert!(k_p(&t1, &t3, 0.25).unwrap() > 2.0 * 0.25);
        assert!(k_p(&t1, &t3, 0.5).unwrap() <= 2.0 * 0.5);
    }

    #[test]
    fn kprof_is_metric_on_n3() {
        let orders = all_bucket_orders(3);
        for a in &orders {
            for b in &orders {
                let d = kprof_x2(a, b).unwrap();
                assert_eq!(d, kprof_x2(b, a).unwrap());
                assert_eq!(d == 0, a == b);
                for c in &orders {
                    assert!(
                        kprof_x2(a, c).unwrap() <= d + kprof_x2(b, c).unwrap(),
                        "triangle failed: {a:?} {b:?} {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn kprof_reduces_to_kendall_on_full_rankings() {
        let a = BucketOrder::from_permutation(&[2, 0, 1, 3]).unwrap();
        let b = BucketOrder::from_permutation(&[3, 1, 0, 2]).unwrap();
        assert_eq!(
            kprof_x2(&a, &b).unwrap(),
            2 * crate::full::kendall(&a, &b).unwrap()
        );
    }

    #[test]
    fn kavg_not_a_distance_measure() {
        let s = bo(3, vec![vec![0, 1], vec![2]]);
        assert!(kavg_x2(&s, &s).unwrap() > 0);
        // But on full rankings Kavg(σ, σ) = 0.
        let f = BucketOrder::identity(3);
        assert_eq!(kavg_x2(&f, &f).unwrap(), 0);
    }

    #[test]
    fn kavg_equals_kprof_when_no_double_ties() {
        let s = bo(4, vec![vec![0, 1], vec![2], vec![3]]);
        let t = bo(4, vec![vec![0], vec![1], vec![2, 3]]);
        assert_eq!(kavg_x2(&s, &t).unwrap(), kprof_x2(&s, &t).unwrap());
    }

    #[test]
    fn k_p_monotone_in_p() {
        let s = bo(4, vec![vec![0, 1, 2], vec![3]]);
        let t = bo(4, vec![vec![3], vec![0], vec![1, 2]]);
        let mut prev = -1.0;
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            let v = k_p(&s, &t, p).unwrap();
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn scaling_relation_between_kp_values() {
        // K^(p) ≤ K^(p') ≤ (p'/p)·K^(p) for 0 < p < p' ≤ 1 (Prop. 13 proof).
        let orders = all_bucket_orders(3);
        for a in &orders {
            for b in &orders {
                let k1 = k_p(a, b, 0.2).unwrap();
                let k2 = k_p(a, b, 0.7).unwrap();
                assert!(k1 <= k2 + 1e-12);
                assert!(k2 <= (0.7 / 0.2) * k1 + 1e-12);
            }
        }
    }
}
