//! The Hausdorff metrics `FHaus` and `KHaus` (Section 3.2).
//!
//! For partial rankings `σ`, `τ`, the Hausdorff distance under a base
//! metric `d` on full rankings is
//!
//! ```text
//! max { max_{σ̄⪯σ} min_{τ̄⪯τ} d(σ̄, τ̄),  max_{τ̄⪯τ} min_{σ̄⪯σ} d(σ̄, τ̄) }
//! ```
//!
//! — a max-min over exponentially many refinements. Theorem 5 shows both
//! sides are witnessed by two explicitly constructible refinement pairs:
//! with an arbitrary full ranking `ρ`,
//!
//! ```text
//! σ1 = ρ∗τᴿ∗σ,  τ1 = ρ∗σ∗τ,    σ2 = ρ∗τ∗σ,  τ2 = ρ∗σᴿ∗τ
//! dHaus(σ, τ) = max { d(σ1, τ1), d(σ2, τ2) }
//! ```
//!
//! Proposition 6 additionally gives the closed form
//! `KHaus(σ, τ) = |U| + max{|S|, |T|}` over the pair statistics, which we
//! use as the primary `O(n log n)` implementation.

use crate::error::check_same_domain;
use crate::pairs::pair_counts;
use crate::{full, MetricsError};
use bucketrank_core::refine::star_chain;
use bucketrank_core::BucketOrder;

/// `KHaus(σ, τ)` via Proposition 6: `|U| + max{|S|, |T|}`. `O(n log n)`.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn khaus(sigma: &BucketOrder, tau: &BucketOrder) -> Result<u64, MetricsError> {
    let c = pair_counts(sigma, tau)?;
    Ok(c.discordant + c.tied_left_only.max(c.tied_right_only))
}

/// The two candidate refinement pairs of Theorem 5, one of which exhibits
/// the Hausdorff distance for **both** `F` and `K`: `((σ1, τ1), (σ2, τ2))`.
///
/// Ties left by the chained refinements are broken by the identity ranking
/// (the theorem's arbitrary `ρ`), identically on both sides.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
#[allow(clippy::type_complexity)]
pub fn theorem5_witnesses(
    sigma: &BucketOrder,
    tau: &BucketOrder,
) -> Result<((BucketOrder, BucketOrder), (BucketOrder, BucketOrder)), MetricsError> {
    check_same_domain(sigma, tau)?;
    let rho = BucketOrder::identity(sigma.len());
    let sigma_r = sigma.reverse();
    let tau_r = tau.reverse();
    let s1 = star_chain(&[&rho, &tau_r], sigma)?;
    let t1 = star_chain(&[&rho, sigma], tau)?;
    let s2 = star_chain(&[&rho, tau], sigma)?;
    let t2 = star_chain(&[&rho, &sigma_r], tau)?;
    Ok(((s1, t1), (s2, t2)))
}

/// `FHaus(σ, τ)` via the Theorem 5 characterization. The witnesses are
/// full rankings, so the value is an exact integer in the paper's units.
/// `O(n log n)`.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn fhaus(sigma: &BucketOrder, tau: &BucketOrder) -> Result<u64, MetricsError> {
    let ((s1, t1), (s2, t2)) = theorem5_witnesses(sigma, tau)?;
    Ok(full::footrule(&s1, &t1)?.max(full::footrule(&s2, &t2)?))
}

/// Lemma 3 as a public API: the distance from a **full** ranking `sigma`
/// to the *nearest* full refinement of `tau`, for both metrics at once:
/// returns `(K(σ, σ∗τ), F(σ, σ∗τ))`. The minimizing refinement itself is
/// `star(σ, τ)`.
///
/// This is the natural "how far is my permutation from being a
/// refinement of this partial order" query (zero iff `σ ⪯ τ`).
///
/// # Errors
/// [`MetricsError::NotFullRanking`] if `sigma` has ties;
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn nearest_refinement_distance(
    sigma: &BucketOrder,
    tau: &BucketOrder,
) -> Result<(u64, u64), MetricsError> {
    check_same_domain(sigma, tau)?;
    if !sigma.is_full() {
        return Err(MetricsError::NotFullRanking);
    }
    let nearest = bucketrank_core::refine::star(sigma, tau)?;
    Ok((
        full::kendall(sigma, &nearest)?,
        full::footrule(sigma, &nearest)?,
    ))
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
    fn hausdorff_metrics_reduce_to_base_on_full_rankings() {
        let a = BucketOrder::from_permutation(&[2, 0, 3, 1]).unwrap();
        let b = BucketOrder::from_permutation(&[1, 3, 0, 2]).unwrap();
        assert_eq!(khaus(&a, &b).unwrap(), full::kendall(&a, &b).unwrap());
        assert_eq!(fhaus(&a, &b).unwrap(), full::footrule(&a, &b).unwrap());
    }

    #[test]
    fn distance_to_trivial_order() {
        // σ = identity, τ = everything tied: every pair is tied in τ only,
        // so KHaus = max{0, C(n,2)} = C(n,2).
        let n = 5;
        let id = BucketOrder::identity(n);
        let triv = BucketOrder::trivial(n);
        assert_eq!(khaus(&id, &triv).unwrap(), 10);
        assert_eq!(khaus(&triv, &id).unwrap(), 10);
    }

    #[test]
    fn hausdorff_metrics_are_metrics_on_n3() {
        let orders = all_bucket_orders(3);
        for a in &orders {
            for b in &orders {
                let kh = khaus(a, b).unwrap();
                let fh = fhaus(a, b).unwrap();
                assert_eq!(kh, khaus(b, a).unwrap());
                assert_eq!(fh, fhaus(b, a).unwrap());
                assert_eq!(kh == 0, a == b);
                assert_eq!(fh == 0, a == b);
                for c in &orders {
                    assert!(khaus(a, c).unwrap() <= kh + khaus(b, c).unwrap());
                    assert!(fhaus(a, c).unwrap() <= fh + fhaus(b, c).unwrap());
                }
            }
        }
    }

    #[test]
    fn nearest_refinement_is_minimal_and_detects_refinements() {
        use bucketrank_core::refine::{full_refinements, is_refinement};
        let tau = bo(5, vec![vec![0, 1], vec![2, 3, 4]]);
        let sigma = BucketOrder::from_permutation(&[2, 0, 1, 4, 3]).unwrap();
        let (k, f) = nearest_refinement_distance(&sigma, &tau).unwrap();
        // Brute-force minima over all refinements.
        let (mut bk, mut bf) = (u64::MAX, u64::MAX);
        for t in full_refinements(&tau) {
            bk = bk.min(full::kendall(&sigma, &t).unwrap());
            bf = bf.min(full::footrule(&sigma, &t).unwrap());
        }
        assert_eq!(k, bk);
        assert_eq!(f, bf);
        // Zero iff σ refines τ.
        let good = BucketOrder::from_permutation(&[1, 0, 4, 2, 3]).unwrap();
        assert!(is_refinement(&good, &tau).unwrap());
        assert_eq!(nearest_refinement_distance(&good, &tau).unwrap(), (0, 0));
        // Tied σ rejected.
        assert!(nearest_refinement_distance(&tau, &tau).is_err());
    }

    #[test]
    fn domain_mismatch() {
        let a = BucketOrder::trivial(2);
        let b = BucketOrder::trivial(3);
        assert!(khaus(&a, &b).is_err());
        assert!(fhaus(&a, &b).is_err());
    }
}
