//! Normalized variants of the four metrics, mapping into `[0, 1]` by
//! dividing by the exact domain diameter.
//!
//! Normalization is what downstream applications (similarity search,
//! classification — Section 1's application list) typically consume, and
//! is also how Kendall (1945) presented his tie-aware coefficient. The
//! diameters are exact:
//!
//! | metric | diameter on `n` elements | witness |
//! |---|---|---|
//! | `Kprof`, `KHaus` | `n(n−1)/2` | identity vs reversed identity |
//! | `Fprof`, `FHaus` | `⌊n²/2⌋` | identity vs reversed identity |
//!
//! (Both witnesses are full rankings: adding ties can only *reduce*
//! distances — every per-pair penalty and per-element displacement is
//! maximized by the reversal — which the tests verify exhaustively.)

use crate::full::{footrule_diameter, kendall_diameter};
use crate::{footrule, hausdorff, kendall, MetricsError};
use bucketrank_core::BucketOrder;

fn normalize(x2_value: u64, diameter: u64, scale: f64) -> f64 {
    if diameter == 0 {
        0.0
    } else {
        x2_value as f64 / (scale * diameter as f64)
    }
}

/// `Kprof(σ, τ) / (n(n−1)/2) ∈ [0, 1]`.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn kprof_normalized(sigma: &BucketOrder, tau: &BucketOrder) -> Result<f64, MetricsError> {
    Ok(normalize(
        kendall::kprof_x2(sigma, tau)?,
        kendall_diameter(sigma.len()),
        2.0,
    ))
}

/// `Fprof(σ, τ) / ⌊n²/2⌋ ∈ [0, 1]`.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn fprof_normalized(sigma: &BucketOrder, tau: &BucketOrder) -> Result<f64, MetricsError> {
    Ok(normalize(
        footrule::fprof_x2(sigma, tau)?,
        footrule_diameter(sigma.len()),
        2.0,
    ))
}

/// `KHaus(σ, τ) / (n(n−1)/2) ∈ [0, 1]`.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn khaus_normalized(sigma: &BucketOrder, tau: &BucketOrder) -> Result<f64, MetricsError> {
    Ok(normalize(
        hausdorff::khaus(sigma, tau)?,
        kendall_diameter(sigma.len()),
        1.0,
    ))
}

/// `FHaus(σ, τ) / ⌊n²/2⌋ ∈ [0, 1]`.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn fhaus_normalized(sigma: &BucketOrder, tau: &BucketOrder) -> Result<f64, MetricsError> {
    Ok(normalize(
        hausdorff::fhaus(sigma, tau)?,
        footrule_diameter(sigma.len()),
        1.0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bucketrank_core::consistent::all_bucket_orders;

    type NormFn = fn(&BucketOrder, &BucketOrder) -> Result<f64, MetricsError>;
    const ALL: [NormFn; 4] = [
        kprof_normalized,
        fprof_normalized,
        khaus_normalized,
        fhaus_normalized,
    ];

    #[test]
    fn diameters_attained_by_full_reversal() {
        for n in 2..=7 {
            let id = BucketOrder::identity(n);
            let rev = id.reverse();
            assert_eq!(kprof_normalized(&id, &rev).unwrap(), 1.0, "n = {n}");
            assert_eq!(fprof_normalized(&id, &rev).unwrap(), 1.0, "n = {n}");
            assert_eq!(khaus_normalized(&id, &rev).unwrap(), 1.0, "n = {n}");
            assert_eq!(fhaus_normalized(&id, &rev).unwrap(), 1.0, "n = {n}");
        }
    }

    #[test]
    fn never_exceeds_one_exhaustively() {
        for n in 0..=4 {
            let orders = all_bucket_orders(n);
            for a in &orders {
                for b in &orders {
                    for f in ALL {
                        let v = f(a, b).unwrap();
                        assert!((0.0..=1.0).contains(&v), "n={n} {a:?} {b:?} -> {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_iff_equal() {
        let orders = all_bucket_orders(3);
        for a in &orders {
            for b in &orders {
                for f in ALL {
                    assert_eq!(f(a, b).unwrap() == 0.0, a == b);
                }
            }
        }
    }

    #[test]
    fn degenerate_domains() {
        let e = BucketOrder::trivial(0);
        let one = BucketOrder::trivial(1);
        for f in ALL {
            assert_eq!(f(&e, &e).unwrap(), 0.0);
            assert_eq!(f(&one, &one).unwrap(), 0.0);
        }
    }

    #[test]
    fn consistent_with_raw_metrics() {
        let a = BucketOrder::from_keys(&[1, 1, 2, 3]);
        let b = BucketOrder::from_keys(&[3, 2, 1, 1]);
        let n = 4;
        assert_eq!(
            kprof_normalized(&a, &b).unwrap(),
            kendall::kprof(&a, &b).unwrap() / kendall_diameter(n) as f64
        );
        assert_eq!(
            fhaus_normalized(&a, &b).unwrap(),
            hausdorff::fhaus(&a, &b).unwrap() as f64 / footrule_diameter(n) as f64
        );
    }
}
