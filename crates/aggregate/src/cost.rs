//! Aggregation objectives: total distance from a candidate to the inputs.

use crate::error::check_inputs;
use crate::tally::ProfileTally;
use crate::AggregateError;
use bucketrank_core::{BucketOrder, ElementId, Pos};
use bucketrank_metrics::batch::{BatchMetric, WeightedMetric};
use bucketrank_metrics::{footrule, hausdorff, kendall, MetricsError, PreparedRanking, Weights};

/// Which of the paper's four partial-ranking metrics to aggregate under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggMetric {
    /// Profile Kendall `Kprof` (Section 3.1).
    KProf,
    /// Profile footrule `Fprof` — the metric the median algorithm directly
    /// approximates (Section 6).
    FProf,
    /// Hausdorff Kendall `KHaus` (Section 3.2).
    KHaus,
    /// Hausdorff footrule `FHaus` (Section 3.2).
    FHaus,
}

impl AggMetric {
    /// All four metrics, for sweeps.
    pub const ALL: [AggMetric; 4] = [
        AggMetric::KProf,
        AggMetric::FProf,
        AggMetric::KHaus,
        AggMetric::FHaus,
    ];

    /// Human-readable name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            AggMetric::KProf => "Kprof",
            AggMetric::FProf => "Fprof",
            AggMetric::KHaus => "KHaus",
            AggMetric::FHaus => "FHaus",
        }
    }

    /// The batch-engine metric computing this objective, with the factor
    /// turning the engine's canonical scale into the shared `_x2` scale
    /// (the Hausdorff metrics come back unscaled and need doubling).
    pub fn batch_metric(self) -> (BatchMetric, u64) {
        match self {
            AggMetric::KProf => (BatchMetric::KProfX2, 1),
            AggMetric::FProf => (BatchMetric::FProfX2, 1),
            AggMetric::KHaus => (BatchMetric::KHaus, 2),
            AggMetric::FHaus => (BatchMetric::FHaus, 2),
        }
    }

    /// Whether this objective is a pure function of the profile's
    /// pairwise tally (the Kendall profile family): if so,
    /// [`total_cost_x2_tally`] evaluates it in `O(n²)` independent of
    /// the number of voters. `Fprof` is position-based and the
    /// Hausdorff metrics need per-voter pair statistics, so they are
    /// not tally-expressible.
    pub fn tally_expressible(self) -> bool {
        matches!(self, AggMetric::KProf)
    }
}

/// Tally-backed fast path for [`total_cost_x2`]: evaluates the
/// objective from a prebuilt [`ProfileTally`] in `O(n²)`, independent
/// of the number of voters. Returns `None` for metrics that are not
/// [tally-expressible](AggMetric::tally_expressible) — callers fall
/// back to the prepared per-voter path.
///
/// # Errors
/// [`AggregateError::DomainMismatch`] if the candidate's domain differs
/// from the tally's.
pub fn total_cost_x2_tally(
    metric: AggMetric,
    candidate: &BucketOrder,
    tally: &ProfileTally,
) -> Option<Result<u64, AggregateError>> {
    match metric {
        AggMetric::KProf => Some(tally.kemeny_cost_x2(candidate)),
        _ => None,
    }
}

/// Distance between two partial rankings under `metric`, **doubled** so
/// all four metrics share one exact integer scale.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] on differing domains.
pub fn distance_x2(
    metric: AggMetric,
    a: &BucketOrder,
    b: &BucketOrder,
) -> Result<u64, MetricsError> {
    Ok(match metric {
        AggMetric::KProf => kendall::kprof_x2(a, b)?,
        AggMetric::FProf => footrule::fprof_x2(a, b)?,
        AggMetric::KHaus => 2 * hausdorff::khaus(a, b)?,
        AggMetric::FHaus => 2 * hausdorff::fhaus(a, b)?,
    })
}

/// The aggregation objective `2·Σ_i d(candidate, σ_i)` under `metric`.
///
/// The candidate is prepared once and scored against prepared input
/// views, so the per-input cost is the bare metric kernel.
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn total_cost_x2(
    metric: AggMetric,
    candidate: &BucketOrder,
    inputs: &[BucketOrder],
) -> Result<u64, AggregateError> {
    check_inputs(inputs)?;
    let (bm, scale) = metric.batch_metric();
    let cand = PreparedRanking::new(candidate);
    let mut total = 0u64;
    for s in inputs {
        total += scale * bm.prepared(&cand, &PreparedRanking::new(s))?;
    }
    Ok(total)
}

/// The weighted aggregation objective `Σ_i d_w(candidate, σ_i)` under
/// `metric`'s canonical scale (`weighted_footrule_x2` is doubled,
/// `top_diff` unscaled; see [`bucketrank_metrics::weighted`]).
///
/// The candidate's score vector is computed **once**, then each voter
/// costs one score-vector build plus an `O(n)` zip. The path is exact
/// for every weight vector; with uniform weights `w ≡ c` the weighted
/// footrule objective equals `c ×` the `Fprof` objective.
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`]
/// (also raised when `w` does not cover the shared domain).
pub fn weighted_total_cost(
    metric: WeightedMetric,
    candidate: &BucketOrder,
    inputs: &[BucketOrder],
    w: &Weights,
) -> Result<u64, AggregateError> {
    let n = check_inputs(inputs)?;
    if candidate.len() != n {
        return Err(AggregateError::DomainMismatch {
            expected: n,
            found: candidate.len(),
        });
    }
    let cand_scores = metric.element_scores(candidate, w)?;
    let mut total = 0u64;
    for s in inputs {
        let scores = metric.element_scores(s, w)?;
        total += cand_scores
            .iter()
            .zip(&scores)
            .map(|(&x, &y)| x.abs_diff(y))
            .sum::<u64>();
    }
    Ok(total)
}

/// The `L1` objective `2·Σ_i L1(f, σ_i)` for a raw score vector `f`
/// against the inputs' position vectors (half-units). This is the
/// quantity Lemma 8 says the median minimizes.
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`] if
/// `f` and the inputs do not share one domain.
pub fn total_l1_x2(f: &[Pos], inputs: &[BucketOrder]) -> Result<u64, AggregateError> {
    let n = check_inputs(inputs)?;
    if f.len() != n {
        return Err(AggregateError::DomainMismatch {
            expected: n,
            found: f.len(),
        });
    }
    let mut total = 0u64;
    for s in inputs {
        for e in 0..n as ElementId {
            total += f[e as usize].abs_diff(s.position(e));
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_all() {
        assert_eq!(AggMetric::ALL.len(), 4);
        assert_eq!(AggMetric::FProf.name(), "Fprof");
    }

    #[test]
    fn distances_share_scale() {
        // On full rankings: Kprof = K, Fprof = F, KHaus = K, FHaus = F,
        // so in _x2 scale the profile and Hausdorff variants coincide.
        let a = BucketOrder::from_permutation(&[0, 2, 1, 3]).unwrap();
        let b = BucketOrder::from_permutation(&[3, 2, 0, 1]).unwrap();
        assert_eq!(
            distance_x2(AggMetric::KProf, &a, &b).unwrap(),
            distance_x2(AggMetric::KHaus, &a, &b).unwrap()
        );
        assert_eq!(
            distance_x2(AggMetric::FProf, &a, &b).unwrap(),
            distance_x2(AggMetric::FHaus, &a, &b).unwrap()
        );
    }

    #[test]
    fn total_cost_sums() {
        let a = BucketOrder::identity(3);
        let r = a.reverse();
        let inputs = vec![a.clone(), r.clone()];
        let c = total_cost_x2(AggMetric::FProf, &a, &inputs).unwrap();
        // d(a, a) = 0; 2·Fprof(a, r) = 2·4 = 8.
        assert_eq!(c, 8);
    }

    #[test]
    fn total_l1_matches_fprof_for_profile_candidates() {
        let s1 = BucketOrder::from_keys(&[1, 2, 2]);
        let s2 = BucketOrder::from_keys(&[2, 1, 1]);
        let inputs = vec![s1.clone(), s2];
        let c1 = total_cost_x2(AggMetric::FProf, &s1, &inputs).unwrap();
        let c2 = total_l1_x2(&s1.positions(), &inputs).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn prepared_cost_matches_direct() {
        let inputs: Vec<BucketOrder> = vec![
            BucketOrder::from_keys(&[1, 2, 3, 4, 1]),
            BucketOrder::from_keys(&[4, 3, 2, 1, 1]),
            BucketOrder::from_keys(&[2, 2, 2, 1, 3]),
        ];
        let cand = BucketOrder::from_keys(&[1, 1, 2, 3, 2]);
        for metric in AggMetric::ALL {
            let direct: u64 = inputs
                .iter()
                .map(|s| {
                    match metric {
                        AggMetric::KProf => kendall::kprof_x2(&cand, s),
                        AggMetric::FProf => footrule::fprof_x2(&cand, s),
                        AggMetric::KHaus => hausdorff::khaus(&cand, s).map(|v| 2 * v),
                        AggMetric::FHaus => hausdorff::fhaus(&cand, s).map(|v| 2 * v),
                    }
                    .unwrap()
                })
                .sum();
            assert_eq!(
                total_cost_x2(metric, &cand, &inputs).unwrap(),
                direct,
                "{}",
                metric.name()
            );
        }
    }

    #[test]
    fn weighted_total_cost_matches_per_voter_kernels() {
        use bucketrank_metrics::weighted;
        let inputs: Vec<BucketOrder> = vec![
            BucketOrder::from_keys(&[1, 2, 3, 4, 1]),
            BucketOrder::from_keys(&[4, 3, 2, 1, 1]),
            BucketOrder::from_keys(&[2, 2, 2, 1, 3]),
        ];
        let cand = BucketOrder::from_keys(&[1, 1, 2, 3, 2]);
        for w in [
            Weights::uniform(5),
            Weights::from_units(vec![3; 5]).unwrap(),
            Weights::from_units(vec![16, 8, 4, 2, 1]).unwrap(),
            Weights::from_units(vec![1, 1, 0, 0, 0]).unwrap(),
        ] {
            for metric in WeightedMetric::ALL {
                let direct: u64 = inputs
                    .iter()
                    .map(|s| metric.naive(&cand, s, &w).unwrap())
                    .sum();
                assert_eq!(
                    weighted_total_cost(metric, &cand, &inputs, &w).unwrap(),
                    direct,
                    "{} under {:?}",
                    metric.name(),
                    w.units()
                );
            }
            // Uniform weights w ≡ c give exactly c·Fprof.
            if let Some(c) = w.is_uniform() {
                assert_eq!(
                    weighted_total_cost(
                        WeightedMetric::WeightedFootruleX2,
                        &cand,
                        &inputs,
                        &w
                    )
                    .unwrap(),
                    c * total_cost_x2(AggMetric::FProf, &cand, &inputs).unwrap()
                );
            }
            let _ = weighted::top_diff(&cand, &inputs[0], &w).unwrap();
        }
    }

    #[test]
    fn weighted_total_cost_rejects_bad_shapes() {
        let inputs = vec![BucketOrder::trivial(3)];
        let cand = BucketOrder::trivial(3);
        for metric in WeightedMetric::ALL {
            assert_eq!(
                weighted_total_cost(metric, &cand, &[], &Weights::uniform(3)),
                Err(AggregateError::NoInputs)
            );
            assert_eq!(
                weighted_total_cost(metric, &BucketOrder::trivial(4), &inputs, &Weights::uniform(3)),
                Err(AggregateError::DomainMismatch { expected: 3, found: 4 })
            );
            // A weights/domain length gap maps onto DomainMismatch,
            // uniform weights included.
            assert_eq!(
                weighted_total_cost(metric, &cand, &inputs, &Weights::uniform(5)),
                Err(AggregateError::DomainMismatch { expected: 3, found: 5 })
            );
        }
    }

    #[test]
    fn errors() {
        let a = BucketOrder::trivial(3);
        assert_eq!(
            total_cost_x2(AggMetric::KProf, &a, &[]),
            Err(AggregateError::NoInputs)
        );
        let b = BucketOrder::trivial(4);
        assert!(matches!(
            total_cost_x2(AggMetric::FHaus, &b, std::slice::from_ref(&a)),
            Err(AggregateError::DomainMismatch { .. })
        ));
        let f = vec![Pos::ZERO; 2];
        assert!(total_l1_x2(&f, std::slice::from_ref(&a)).is_err());
    }
}
