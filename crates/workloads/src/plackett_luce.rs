//! The Plackett–Luce ranking model: an alternative noisy-voter workload
//! with per-element *quality weights* rather than a reference permutation.
//!
//! Under PL(w), a full ranking is built top-down: the next element is
//! drawn from the remaining ones with probability proportional to its
//! weight. High-weight elements concentrate near the top, but — unlike
//! Mallows — the noise is heteroscedastic: the tail order is much noisier
//! than the head, which stresses top-k aggregation differently.
//! [`PlackettLuceWithTies`] coarsens samples into a fixed type, as the
//! Mallows wrapper does.

use crate::random::cut_into_type;
use bucketrank_core::{BucketOrder, ElementId, TypeSeq};
use bucketrank_testkit::rng::Rng;

/// A Plackett–Luce distribution over full rankings.
#[derive(Debug, Clone)]
pub struct PlackettLuce {
    weights: Vec<f64>,
}

impl PlackettLuce {
    /// Builds the model from positive, finite weights (element id =
    /// index).
    ///
    /// # Panics
    /// Panics if any weight is non-positive or non-finite.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be positive and finite"
        );
        PlackettLuce { weights }
    }

    /// A geometric weight profile `base^rank` (`base < 1` makes lower
    /// ids better; the identity is the modal ranking).
    ///
    /// # Panics
    /// Panics unless `0 < base` and `base` is finite.
    pub fn geometric(n: usize, base: f64) -> Self {
        assert!(base > 0.0 && base.is_finite(), "base must be positive");
        PlackettLuce::new((0..n).map(|i| base.powi(i as i32)).collect())
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The modal ranking (weights descending, ties by id).
    pub fn modal(&self) -> BucketOrder {
        let mut ids: Vec<ElementId> = (0..self.len() as ElementId).collect();
        ids.sort_by(|&a, &b| {
            self.weights[b as usize]
                .partial_cmp(&self.weights[a as usize])
                .expect("finite weights")
                .then(a.cmp(&b))
        });
        BucketOrder::from_permutation(&ids).expect("ids form a permutation")
    }

    /// Draws one full ranking.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> BucketOrder {
        let n = self.len();
        let mut remaining: Vec<ElementId> = (0..n as ElementId).collect();
        let mut total: f64 = self.weights.iter().sum();
        let mut perm = Vec::with_capacity(n);
        while !remaining.is_empty() {
            let mut x = rng.gen_range(0.0..total);
            let mut pick = remaining.len() - 1;
            for (i, &e) in remaining.iter().enumerate() {
                let w = self.weights[e as usize];
                if x < w {
                    pick = i;
                    break;
                }
                x -= w;
            }
            let e = remaining.swap_remove(pick);
            total -= self.weights[e as usize];
            perm.push(e);
        }
        BucketOrder::from_permutation(&perm).expect("selection covers the domain")
    }

    /// Draws `m` independent rankings.
    pub fn sample_profile<R: Rng + ?Sized>(&self, rng: &mut R, m: usize) -> Vec<BucketOrder> {
        (0..m).map(|_| self.sample(rng)).collect()
    }
}

/// Plackett–Luce samples coarsened into partial rankings of a fixed type.
#[derive(Debug, Clone)]
pub struct PlackettLuceWithTies {
    inner: PlackettLuce,
    alpha: TypeSeq,
}

impl PlackettLuceWithTies {
    /// Composes a PL model with a bucketing type.
    ///
    /// # Panics
    /// Panics if `alpha` does not cover the model's domain.
    pub fn new(inner: PlackettLuce, alpha: TypeSeq) -> Self {
        assert_eq!(
            alpha.domain_size(),
            inner.len(),
            "type must cover the domain"
        );
        PlackettLuceWithTies { inner, alpha }
    }

    /// The modal ranking coarsened to the type.
    pub fn modal(&self) -> BucketOrder {
        cut_into_type(self.inner.modal().by_rank(), &self.alpha)
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
    use bucketrank_testkit::rng::Pcg32;
    use bucketrank_testkit::rng::SeedableRng;

    #[test]
    fn geometric_modal_is_identity() {
        let pl = PlackettLuce::geometric(6, 0.5);
        assert_eq!(pl.modal(), BucketOrder::identity(6));
        assert_eq!(pl.len(), 6);
        assert!(!pl.is_empty());
    }

    #[test]
    fn extreme_weights_concentrate() {
        let pl = PlackettLuce::geometric(7, 0.01);
        let mut rng = Pcg32::seed_from_u64(1);
        let modal = pl.modal();
        let mut exact = 0;
        for _ in 0..30 {
            if pl.sample(&mut rng) == modal {
                exact += 1;
            }
        }
        assert!(exact >= 25, "only {exact}/30 samples matched the mode");
    }

    #[test]
    fn uniform_weights_are_uniformish() {
        // All weights 1: the top element is uniform over the domain.
        let pl = PlackettLuce::new(vec![1.0; 5]);
        let mut rng = Pcg32::seed_from_u64(2);
        let mut counts = [0u32; 5];
        let trials = 2000;
        for _ in 0..trials {
            let top = pl.sample(&mut rng).as_permutation().unwrap()[0];
            counts[top as usize] += 1;
        }
        for &c in &counts {
            let expected = trials as f64 / 5.0;
            assert!(
                (c as f64 - expected).abs() < 4.0 * expected.sqrt(),
                "counts {counts:?} deviate from uniform"
            );
        }
    }

    #[test]
    fn head_is_more_stable_than_tail() {
        // PL's heteroscedastic signature: with weights that separate the
        // head but flatten in the tail, the head pair keeps its modal
        // order far more often (P = w0/(w0+w1) = 2/3) than the tail pair
        // of equal weights (P = 1/2).
        let pl = PlackettLuce::new(vec![16.0, 8.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let mut rng = Pcg32::seed_from_u64(3);
        let mut head_stable = 0;
        let mut tail_stable = 0;
        let trials = 600;
        for _ in 0..trials {
            let s = pl.sample(&mut rng);
            let perm = s.as_permutation().unwrap();
            let pos = |e: ElementId| perm.iter().position(|&x| x == e).unwrap();
            if pos(0) < pos(1) {
                head_stable += 1;
            }
            if pos(6) < pos(7) {
                tail_stable += 1;
            }
        }
        // Head ≈ 2/3·trials, tail ≈ 1/2·trials; the gap is ~100 with
        // standard error ~17, so a >40 separation is a safe assertion.
        assert!(
            head_stable > tail_stable + 40,
            "head {head_stable} vs tail {tail_stable}"
        );
    }

    #[test]
    fn tied_samples_have_requested_type() {
        let alpha = TypeSeq::top_k(8, 3).unwrap();
        let m = PlackettLuceWithTies::new(PlackettLuce::geometric(8, 0.5), alpha.clone());
        let mut rng = Pcg32::seed_from_u64(4);
        for s in m.sample_profile(&mut rng, 10) {
            assert_eq!(s.type_seq(), alpha);
        }
        assert_eq!(m.modal().type_seq(), alpha);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_weights() {
        let _ = PlackettLuce::new(vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "cover the domain")]
    fn rejects_mismatched_type() {
        let _ = PlackettLuceWithTies::new(
            PlackettLuce::geometric(4, 0.5),
            TypeSeq::full(5),
        );
    }
}
