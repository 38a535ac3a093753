//! The Mallows noise model, with optional tie coarsening.
//!
//! The Mallows model `M(θ, π₀)` puts probability `∝ exp(−θ·K(π, π₀))` on
//! each permutation `π`, concentrating around the reference ranking `π₀`
//! as the dispersion `θ` grows. It is the standard "noisy voter" workload
//! for rank-aggregation experiments: each input is an independent Mallows
//! sample, and a good aggregator should recover (something close to) the
//! hidden reference.
//!
//! Sampling uses the *repeated insertion* construction (exact, `O(n²)`):
//! the element of reference-rank `i` (0-based) is inserted at displacement
//! `d` from the front of the prefix with probability
//! `∝ exp(−θ·(i − d))` — each unit of displacement from its reference
//! position costs one inversion.
//!
//! [`MallowsWithTies`] composes a Mallows sample with quantile bucketing,
//! producing noisy *partial* rankings of a prescribed type — the workload
//! for the aggregation-quality experiments on rankings with ties.

use crate::random::cut_into_type;
use bucketrank_core::{BucketOrder, ElementId, TypeSeq};
use bucketrank_testkit::rng::Rng;

/// A Mallows distribution over full rankings of `n` elements.
#[derive(Debug, Clone)]
pub struct Mallows {
    reference: Vec<ElementId>,
    theta: f64,
}

impl Mallows {
    /// A Mallows model centered on the identity ranking.
    ///
    /// # Panics
    /// Panics if `theta` is negative or not finite.
    pub fn new(n: usize, theta: f64) -> Self {
        Self::with_reference((0..n as ElementId).collect(), theta)
    }

    /// A Mallows model centered on an arbitrary reference permutation
    /// (`reference[r]` = element at rank `r + 1`).
    ///
    /// # Panics
    /// Panics if `theta` is negative or not finite.
    pub fn with_reference(reference: Vec<ElementId>, theta: f64) -> Self {
        assert!(theta.is_finite() && theta >= 0.0, "theta must be ≥ 0");
        Mallows { reference, theta }
    }

    /// The reference ranking.
    pub fn reference(&self) -> BucketOrder {
        BucketOrder::from_permutation(&self.reference).expect("reference is a permutation")
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.reference.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.reference.is_empty()
    }

    /// Draws one full ranking.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> BucketOrder {
        let n = self.reference.len();
        let mut perm: Vec<ElementId> = Vec::with_capacity(n);
        let q = (-self.theta).exp();
        for (i, &e) in self.reference.iter().enumerate() {
            // Insert e at displacement d ∈ {0..=i} *from the back* of the
            // current prefix; displacement d costs d inversions, weight qᵈ.
            let d = sample_truncated_geometric(rng, q, i);
            perm.insert(i - d, e);
        }
        BucketOrder::from_permutation(&perm).expect("insertion preserves the permutation")
    }

    /// Draws `m` independent rankings.
    pub fn sample_profile<R: Rng + ?Sized>(&self, rng: &mut R, m: usize) -> Vec<BucketOrder> {
        (0..m).map(|_| self.sample(rng)).collect()
    }
}

/// Samples `d ∈ {0..=max}` with `P(d) ∝ q^d` (uniform when `q = 1`).
fn sample_truncated_geometric<R: Rng + ?Sized>(rng: &mut R, q: f64, max: usize) -> usize {
    if max == 0 {
        return 0;
    }
    if (q - 1.0).abs() < 1e-12 {
        return rng.gen_range(0..=max);
    }
    // Total weight (1 − q^{max+1}) / (1 − q).
    let total = (1.0 - q.powi(max as i32 + 1)) / (1.0 - q);
    let mut x = rng.gen_range(0.0..total);
    let mut w = 1.0;
    for d in 0..=max {
        if x < w {
            return d;
        }
        x -= w;
        w *= q;
    }
    max
}

/// Mallows samples coarsened into partial rankings of a fixed type by
/// quantile bucketing: the sampled full ranking is cut into buckets of
/// the prescribed sizes.
#[derive(Debug, Clone)]
pub struct MallowsWithTies {
    inner: Mallows,
    alpha: TypeSeq,
}

impl MallowsWithTies {
    /// Composes a Mallows model with a bucketing type.
    ///
    /// # Panics
    /// Panics if `alpha` does not cover the model's domain.
    pub fn new(inner: Mallows, alpha: TypeSeq) -> Self {
        assert_eq!(
            alpha.domain_size(),
            inner.len(),
            "type must cover the domain"
        );
        MallowsWithTies { inner, alpha }
    }

    /// The reference ranking coarsened to the same type (useful as the
    /// ground truth for recovery experiments).
    pub fn reference(&self) -> BucketOrder {
        cut_into_type(&self.inner.reference, &self.alpha)
    }

    /// Draws one noisy partial ranking.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> BucketOrder {
        cut_into_type(self.inner.sample(rng).by_rank(), &self.alpha)
    }

    /// Draws `m` independent noisy partial rankings.
    pub fn sample_profile<R: Rng + ?Sized>(&self, rng: &mut R, m: usize) -> Vec<BucketOrder> {
        (0..m).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bucketrank_metrics::full::kendall;
    use bucketrank_testkit::rng::Pcg32;
    use bucketrank_testkit::rng::SeedableRng;

    #[test]
    fn zero_theta_is_uniformish() {
        // θ = 0: all permutations equally likely; the average Kendall
        // distance to the identity over samples should be close to the
        // mean n(n−1)/4.
        let m = Mallows::new(6, 0.0);
        let mut rng = Pcg32::seed_from_u64(42);
        let id = m.reference();
        let mut total = 0u64;
        let trials = 400;
        for _ in 0..trials {
            total += kendall(&m.sample(&mut rng), &id).unwrap();
        }
        let avg = total as f64 / trials as f64;
        let expect = 6.0 * 5.0 / 4.0;
        assert!((avg - expect).abs() < 0.8, "avg = {avg}, expect ≈ {expect}");
    }

    #[test]
    fn large_theta_concentrates_on_reference() {
        let m = Mallows::new(8, 6.0);
        let mut rng = Pcg32::seed_from_u64(1);
        let id = m.reference();
        for _ in 0..50 {
            let s = m.sample(&mut rng);
            assert!(kendall(&s, &id).unwrap() <= 1);
        }
    }

    #[test]
    fn monotone_in_theta() {
        let mut rng = Pcg32::seed_from_u64(7);
        let mut avg_for = |theta: f64| {
            let m = Mallows::new(7, theta);
            let id = m.reference();
            let mut t = 0u64;
            for _ in 0..300 {
                t += kendall(&m.sample(&mut rng), &id).unwrap();
            }
            t as f64 / 300.0
        };
        let a0 = avg_for(0.0);
        let a1 = avg_for(0.7);
        let a2 = avg_for(2.0);
        assert!(a0 > a1 && a1 > a2, "{a0} > {a1} > {a2} violated");
    }

    #[test]
    fn custom_reference_respected() {
        let m = Mallows::with_reference(vec![3, 1, 0, 2], 10.0);
        let mut rng = Pcg32::seed_from_u64(9);
        let s = m.sample(&mut rng);
        assert_eq!(s.as_permutation(), Some(vec![3, 1, 0, 2]));
        assert!(!m.is_empty());
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn ties_have_requested_type() {
        let alpha = TypeSeq::new(vec![2, 2, 4]).unwrap();
        let mt = MallowsWithTies::new(Mallows::new(8, 1.0), alpha.clone());
        let mut rng = Pcg32::seed_from_u64(5);
        for s in mt.sample_profile(&mut rng, 10) {
            assert_eq!(s.type_seq(), alpha);
        }
        assert_eq!(mt.reference().type_seq(), alpha);
    }

    #[test]
    fn high_theta_tied_samples_match_reference() {
        let alpha = TypeSeq::top_k(6, 2).unwrap();
        let mt = MallowsWithTies::new(Mallows::new(6, 8.0), alpha);
        let mut rng = Pcg32::seed_from_u64(11);
        let reference = mt.reference();
        let mut exact = 0;
        for _ in 0..30 {
            if mt.sample(&mut rng) == reference {
                exact += 1;
            }
        }
        assert!(exact >= 25, "only {exact}/30 samples matched");
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn negative_theta_rejected() {
        let _ = Mallows::new(3, -1.0);
    }

    #[test]
    fn truncated_geometric_bounds() {
        let mut rng = Pcg32::seed_from_u64(3);
        for max in [0usize, 1, 5] {
            for q in [0.1, 0.5, 1.0] {
                for _ in 0..50 {
                    assert!(sample_truncated_geometric(&mut rng, q, max) <= max);
                }
            }
        }
    }
}
