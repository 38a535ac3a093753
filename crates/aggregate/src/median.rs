//! Median-rank aggregation (Section 6).
//!
//! Lemma 8: for score vectors `f_1, …, f_m`, any per-element median `f`
//! minimizes `Σ_i L1(g, f_i)` over all functions `g`. The aggregation
//! algorithms here compute such an `f` from the inputs' position vectors
//! and then shape it into a top-k list (Theorem 9), a full ranking
//! (Theorem 11), or a partial ranking of prescribed type (Corollary 30).

use crate::error::check_inputs;
use crate::AggregateError;
use bucketrank_core::consistent::project_to_type;
use bucketrank_core::{BucketOrder, ElementId, Pos, TypeSeq};
use std::fmt;

/// Which representative of the median set to take when the number of
/// inputs is even (for odd `m` the median is unique).
///
/// The paper's `median(a_1, …, a_m)` is a *set* — for even `m` it contains
/// the two middle values and their average. We default to [`MedianPolicy::Lower`], which
/// keeps positions in exact half-units (the averaged variant can leave the
/// half-unit grid, violating the integrality assumption of the paper's
/// linear-space dynamic program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MedianPolicy {
    /// The lower middle value `a_{m/2}` (paper: `a_{⌊(m+1)/2⌋}`).
    #[default]
    Lower,
    /// The upper middle value `a_{m/2+1}`.
    Upper,
}

/// The median of a nonempty list of positions under the given policy.
///
/// # Panics
/// Panics if `values` is empty.
pub fn median_of(values: &mut [Pos], policy: MedianPolicy) -> Pos {
    assert!(!values.is_empty(), "median of empty list");
    values.sort_unstable();
    let m = values.len();
    match policy {
        MedianPolicy::Lower => values[(m - 1) / 2],
        MedianPolicy::Upper => values[m / 2],
    }
}

/// The median *set* `{lower, upper}` of a nonempty list of positions
/// (equal for odd length). Any value between them, inclusive, is a valid
/// median in the sense of Lemma 8.
///
/// # Panics
/// Panics if `values` is empty.
pub fn median_bounds(values: &mut [Pos]) -> (Pos, Pos) {
    assert!(!values.is_empty(), "median of empty list");
    values.sort_unstable();
    let m = values.len();
    (values[(m - 1) / 2], values[m / 2])
}

/// The per-element median score vector `f` of the input rankings'
/// positions: `f(d) ∈ median(σ_1(d), …, σ_m(d))`.
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn median_positions(
    inputs: &[BucketOrder],
    policy: MedianPolicy,
) -> Result<Vec<Pos>, AggregateError> {
    let n = check_inputs(inputs)?;
    let mut f = Vec::with_capacity(n);
    let mut scratch = vec![Pos::ZERO; inputs.len()];
    for e in 0..n as ElementId {
        for (slot, s) in scratch.iter_mut().zip(inputs) {
            *slot = s.position(e);
        }
        f.push(median_of(&mut scratch, policy));
    }
    Ok(f)
}

/// Why a voter-weight vector was rejected by [`weight_units`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightFault {
    /// There is not exactly one weight per input.
    Length {
        /// The number of inputs.
        expected: usize,
        /// The number of weights given.
        found: usize,
    },
    /// The entry at `index` is negative, NaN or infinite.
    Invalid {
        /// Index of the offending weight.
        index: usize,
    },
    /// Every weight is zero.
    AllZero,
    /// The weights span too many binary orders of magnitude for their
    /// sum to fit one `u128` scale with a bit to spare.
    Range,
}

impl fmt::Display for WeightFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WeightFault::Length { expected, found } => write!(f, "{found} weights for {expected} inputs"),
            WeightFault::Invalid { index } => write!(f, "weight {index} is negative or not finite"),
            WeightFault::AllZero => write!(f, "every weight is zero"),
            WeightFault::Range => write!(f, "the weights span too wide a range to sum exactly"),
        }
    }
}

/// The weights as exact integer units over one common power of two:
/// `units[i] = weights[i]·2^s`, with `s` the smallest shift that makes
/// every unit an integer. Every finite `f64` is a 53-bit integer times a
/// power of two, so nothing rounds, and majority tests read `2·mass >
/// total` in integers: equal weights give equal units and reproduce the
/// unweighted rule exactly, whatever the weight. The total is at most
/// `u128::MAX / 2`, so doubling any partial sum cannot overflow.
///
/// # Errors
/// A [`WeightFault`]: not `inputs` weights, a negative or non-finite
/// entry, all zeros, or a total that does not fit.
pub fn weight_units(weights: &[f64], inputs: usize) -> Result<Vec<u128>, WeightFault> {
    if weights.len() != inputs {
        return Err(WeightFault::Length {
            expected: inputs,
            found: weights.len(),
        });
    }
    // Each weight as odd mantissa · 2^exp (a zero as mantissa 0).
    let mut parts = Vec::with_capacity(inputs);
    for (index, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w < 0.0 {
            return Err(WeightFault::Invalid { index });
        }
        let bits = w.abs().to_bits(); // abs clears the sign of -0.0
        let frac = bits & ((1 << 52) - 1);
        let (mant, exp) = match (bits >> 52) as i32 {
            0 => (frac, -1074),
            field => (frac | 1 << 52, field - 1075),
        };
        let tz = mant.trailing_zeros().min(52);
        parts.push((mant >> tz, exp + tz as i32));
    }
    let nonzero = parts.iter().filter(|&&(mant, _)| mant != 0);
    let low = nonzero.map(|&(_, exp)| exp).min().ok_or(WeightFault::AllZero)?;
    let mut total = 0u128;
    let mut units = Vec::with_capacity(inputs);
    for (mant, exp) in parts {
        let (mant, shift) = (u128::from(mant), if mant == 0 { 0 } else { (exp - low) as u32 });
        // A unit reaching the top bit, or a total past half, is out of
        // range; below that the sum cannot overflow.
        if shift >= mant.leading_zeros() || total + (mant << shift) > u128::MAX / 2 {
            return Err(WeightFault::Range);
        }
        total += mant << shift;
        units.push(mant << shift);
    }
    Ok(units)
}

/// The per-element **weighted** median of the inputs' positions: voter
/// `i` counts with weight `weights[i]`. The (lower) weighted median of a
/// value multiset is the smallest value whose cumulative weight reaches
/// half the total; it minimizes the weighted `L1` objective
/// `Σ_i w_i·L1(g, σ_i)` exactly as Lemma 8 does in the unweighted case.
/// The weights are compared as exact [`weight_units`], so with all
/// weights equal this is [`median_positions`]`(…, MedianPolicy::Lower)`.
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`];
/// [`AggregateError::InvalidWeights`] for a weight vector
/// [`weight_units`] rejects.
pub fn weighted_median_positions(
    inputs: &[BucketOrder],
    weights: &[f64],
) -> Result<Vec<Pos>, AggregateError> {
    let n = check_inputs(inputs)?;
    let units = weight_units(weights, inputs.len()).map_err(AggregateError::InvalidWeights)?;
    let total: u128 = units.iter().sum();
    let mut f = Vec::with_capacity(n);
    let mut scratch: Vec<(Pos, u128)> = Vec::with_capacity(inputs.len());
    for e in 0..n as ElementId {
        scratch.clear();
        scratch.extend(inputs.iter().zip(&units).map(|(s, &w)| (s.position(e), w)));
        scratch.sort_by_key(|a| a.0);
        let mut acc = 0;
        let mut med = scratch.last().expect("inputs nonempty").0;
        for &(p, w) in &scratch {
            acc += w;
            if 2 * acc >= total {
                med = p;
                break;
            }
        }
        f.push(med);
    }
    Ok(f)
}

/// Weighted median aggregation into a partial ranking of the prescribed
/// type (weighted analogue of [`aggregate_to_type`]).
///
/// # Errors
/// As [`weighted_median_positions`] plus
/// [`AggregateError::TypeSizeMismatch`].
pub fn weighted_aggregate_to_type(
    inputs: &[BucketOrder],
    weights: &[f64],
    alpha: &TypeSeq,
) -> Result<BucketOrder, AggregateError> {
    let f = weighted_median_positions(inputs, weights)?;
    Ok(project_to_type(&f, alpha)?)
}

/// Median aggregation into a top-k list (Theorem 9): the `k` elements with
/// the smallest median positions, ordered by median (ties broken by
/// element id), with everything else in the bottom bucket.
///
/// Guarantee: `Σ_i L1(output, σ_i) ≤ 3 · Σ_i L1(τ, σ_i)` for **every**
/// top-k list `τ`, under the `Fprof` (`L1`) objective. The output is also
/// nearly optimal in the *strong* sense of Theorem 35.
///
/// # Errors
/// [`AggregateError::NoInputs`], [`AggregateError::DomainMismatch`], or
/// [`AggregateError::InvalidK`] if `k` exceeds the domain.
pub fn aggregate_top_k(
    inputs: &[BucketOrder],
    k: usize,
    policy: MedianPolicy,
) -> Result<BucketOrder, AggregateError> {
    let n = check_inputs(inputs)?;
    let alpha = TypeSeq::top_k(n, k)?;
    aggregate_to_type(inputs, &alpha, policy)
}

/// Median aggregation into a full ranking: order by median position, ties
/// broken by element id (any refinement of the induced median order —
/// Theorem 11).
///
/// When the inputs are themselves full rankings, the result satisfies
/// `Σ_i L1(output, σ_i) ≤ 2 · Σ_i L1(τ, σ_i)` for every partial ranking
/// `τ` — the paper's factor-2 footrule aggregation, answering the open
/// question of Dwork et al. / Fagin et al.
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn aggregate_full(
    inputs: &[BucketOrder],
    policy: MedianPolicy,
) -> Result<BucketOrder, AggregateError> {
    let n = check_inputs(inputs)?;
    let alpha = TypeSeq::full(n);
    aggregate_to_type(inputs, &alpha, policy)
}

/// Median aggregation into a partial ranking of the prescribed type
/// (Corollary 30): the canonical member of `⟨f⟩_α` for the median vector
/// `f`.
///
/// Guarantee: within factor 3 of every partial ranking of type `alpha`
/// under the `Fprof` objective — and factor 2 when every input has type
/// `alpha` too.
///
/// # Errors
/// [`AggregateError::NoInputs`], [`AggregateError::DomainMismatch`], or
/// [`AggregateError::TypeSizeMismatch`].
pub fn aggregate_to_type(
    inputs: &[BucketOrder],
    alpha: &TypeSeq,
    policy: MedianPolicy,
) -> Result<BucketOrder, AggregateError> {
    let f = median_positions(inputs, policy)?;
    Ok(project_to_type(&f, alpha)?)
}

/// The partial ranking induced by the median vector itself (`f̄` —
/// elements with equal medians tied). This is the "natural" median
/// aggregate before any type shaping; pair it with
/// [`crate::dp::optimal_bucketing`] for the Theorem 10 guarantee.
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn median_order(
    inputs: &[BucketOrder],
    policy: MedianPolicy,
) -> Result<BucketOrder, AggregateError> {
    let f = median_positions(inputs, policy)?;
    Ok(bucketrank_core::consistent::induced_ranking(&f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::total_l1_x2;

    fn keys(keys: &[i64]) -> BucketOrder {
        BucketOrder::from_keys(keys)
    }

    #[test]
    fn median_of_policies() {
        let mut v = [3, 1, 7]
            .map(Pos::from_rank)
            .to_vec();
        assert_eq!(median_of(&mut v, MedianPolicy::Lower), Pos::from_rank(3));
        assert_eq!(median_of(&mut v, MedianPolicy::Upper), Pos::from_rank(3));
        let mut v = [4, 1, 7, 2].map(Pos::from_rank).to_vec();
        assert_eq!(median_of(&mut v, MedianPolicy::Lower), Pos::from_rank(2));
        assert_eq!(median_of(&mut v, MedianPolicy::Upper), Pos::from_rank(4));
        let (lo, hi) = median_bounds(&mut v);
        assert_eq!((lo, hi), (Pos::from_rank(2), Pos::from_rank(4)));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_of_empty_panics() {
        median_of(&mut [], MedianPolicy::Lower);
    }

    #[test]
    fn median_positions_simple() {
        // Element 0 is ranked 1st, 1st, 3rd -> median rank 1.
        let s1 = BucketOrder::from_permutation(&[0, 1, 2]).unwrap();
        let s2 = BucketOrder::from_permutation(&[0, 2, 1]).unwrap();
        let s3 = BucketOrder::from_permutation(&[1, 2, 0]).unwrap();
        let f = median_positions(&[s1, s2, s3], MedianPolicy::Lower).unwrap();
        assert_eq!(f[0], Pos::from_rank(1));
        assert_eq!(f[1], Pos::from_rank(2));
        assert_eq!(f[2], Pos::from_rank(2));
    }

    #[test]
    fn lemma8_median_minimizes_l1() {
        // Σ L1(f, f_i) ≤ Σ L1(g, f_i) for any g — verify against a grid of
        // alternative g vectors.
        let inputs = [
            keys(&[1, 3, 2, 4]),
            keys(&[2, 1, 1, 3]),
            keys(&[1, 2, 3, 3]),
            keys(&[4, 3, 2, 1]),
            keys(&[1, 1, 2, 2]),
        ];
        let profiles: Vec<Vec<Pos>> = inputs.iter().map(|s| s.positions()).collect();
        for policy in [MedianPolicy::Lower, MedianPolicy::Upper] {
            let f = median_positions(&inputs, policy).unwrap();
            let med_cost = total_l1_x2(&f, &inputs).unwrap();
            // Alternatives: every input's own profile, and perturbations.
            for p in &profiles {
                assert!(med_cost <= total_l1_x2(p, &inputs).unwrap());
            }
            for delta in -3i64..=3 {
                let g: Vec<Pos> = f
                    .iter()
                    .map(|&x| x + Pos::from_half_units(delta))
                    .collect();
                assert!(med_cost <= total_l1_x2(&g, &inputs).unwrap());
            }
        }
    }

    #[test]
    fn aggregate_top_k_shape_and_content() {
        // Element 2 is everyone's favorite.
        let inputs = [
            keys(&[3, 2, 1, 4]),
            keys(&[2, 3, 1, 4]),
            keys(&[3, 4, 1, 2]),
        ];
        let top1 = aggregate_top_k(&inputs, 1, MedianPolicy::Lower).unwrap();
        assert_eq!(top1.buckets()[0], vec![2]);
        assert_eq!(top1.top_k_len(), Some(1));
        let top2 = aggregate_top_k(&inputs, 2, MedianPolicy::Lower).unwrap();
        assert_eq!(top2.buckets()[0], vec![2]);
        assert_eq!(top2.num_buckets(), 3);
        assert!(aggregate_top_k(&inputs, 9, MedianPolicy::Lower).is_err());
    }

    #[test]
    fn aggregate_full_is_full_and_consistent_with_median() {
        let inputs = [
            keys(&[1, 1, 2, 2]),
            keys(&[2, 1, 2, 1]),
            keys(&[1, 2, 1, 2]),
        ];
        let out = aggregate_full(&inputs, MedianPolicy::Lower).unwrap();
        assert!(out.is_full());
        let f = median_positions(&inputs, MedianPolicy::Lower).unwrap();
        assert!(bucketrank_core::consistent::consistent_with(&f, &out).unwrap());
    }

    #[test]
    fn median_order_groups_equal_medians() {
        let inputs = [keys(&[1, 1, 2]), keys(&[1, 1, 2]), keys(&[2, 1, 1])];
        let order = median_order(&inputs, MedianPolicy::Lower).unwrap();
        // Elements 0 and 1 share the median position 1.5.
        assert!(order.is_tied(0, 1));
    }

    #[test]
    fn errors() {
        assert!(matches!(
            aggregate_full(&[], MedianPolicy::Lower),
            Err(AggregateError::NoInputs)
        ));
        let bad = [BucketOrder::trivial(2), BucketOrder::trivial(3)];
        assert!(matches!(
            aggregate_full(&bad, MedianPolicy::Lower),
            Err(AggregateError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn weighted_median_reduces_to_unweighted() {
        let inputs = [
            keys(&[1, 3, 2, 4]),
            keys(&[2, 1, 1, 3]),
            keys(&[1, 2, 3, 3]),
        ];
        let unweighted = median_positions(&inputs, MedianPolicy::Lower).unwrap();
        let weighted = weighted_median_positions(&inputs, &[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(unweighted, weighted);
        // Scaling all weights changes nothing.
        let scaled = weighted_median_positions(&inputs, &[7.0, 7.0, 7.0]).unwrap();
        assert_eq!(unweighted, scaled);
    }

    #[test]
    fn weighted_median_minimizes_weighted_l1() {
        let inputs = [keys(&[1, 2, 3]), keys(&[3, 2, 1]), keys(&[2, 1, 3])];
        let weights = [5.0, 1.0, 2.0];
        let f = weighted_median_positions(&inputs, &weights).unwrap();
        let cost = |g: &[Pos]| -> f64 {
            inputs
                .iter()
                .zip(&weights)
                .map(|(s, &w)| {
                    w * g
                        .iter()
                        .enumerate()
                        .map(|(e, &p)| p.abs_diff(s.position(e as ElementId)) as f64)
                        .sum::<f64>()
                })
                .sum()
        };
        let base = cost(&f);
        for delta in -4i64..=4 {
            for e in 0..3usize {
                let mut g = f.clone();
                g[e] += Pos::from_half_units(delta);
                assert!(base <= cost(&g) + 1e-9, "beaten by perturbation");
            }
        }
        // A dominant voter pulls the median to itself.
        let heavy = weighted_median_positions(&inputs, &[100.0, 1.0, 1.0]).unwrap();
        assert_eq!(heavy, inputs[0].positions());
    }

    #[test]
    fn weighted_aggregate_shapes_output() {
        let inputs = [keys(&[1, 2, 3]), keys(&[3, 2, 1])];
        let alpha = TypeSeq::top_k(3, 1).unwrap();
        let out = weighted_aggregate_to_type(&inputs, &[3.0, 1.0], &alpha).unwrap();
        // The heavier first voter's favorite (element 0) wins.
        assert_eq!(out.buckets()[0], vec![0]);
    }

    #[test]
    fn weighted_median_rejects_bad_weights() {
        let inputs = [keys(&[1, 2]), keys(&[2, 1])];
        let fault = |w: &[f64], fault| {
            let err = weighted_median_positions(&inputs, w).unwrap_err();
            assert_eq!(err, AggregateError::InvalidWeights(fault), "weights {w:?}");
        };
        fault(&[1.0], WeightFault::Length { expected: 2, found: 1 });
        fault(&[1.0, -1.0], WeightFault::Invalid { index: 1 });
        fault(&[0.0, 0.0], WeightFault::AllZero);
        fault(&[f64::NAN, 1.0], WeightFault::Invalid { index: 0 });
        fault(&[1e300, 1e-300], WeightFault::Range);
    }

    #[test]
    fn equal_tenths_give_the_unweighted_lower_median() {
        // Fourteen voters ranking element 0 at 1, 2, …, 14: the lower
        // median is 7. Summed in f64, fourteen weights of 0.1 total
        // 1.4000000000000001 and the running sum first reaches half of
        // that at the 8th voter.
        let inputs: Vec<BucketOrder> = (0..14)
            .map(|r| {
                let mut perm: Vec<ElementId> = (1..14).collect();
                perm.insert(r, 0);
                BucketOrder::from_permutation(&perm).unwrap()
            })
            .collect();
        let plain = median_positions(&inputs, MedianPolicy::Lower).unwrap();
        assert_eq!(plain[0], Pos::from_rank(7));
        let tenths = weighted_median_positions(&inputs, &[0.1; 14]).unwrap();
        assert_eq!(tenths, plain);
    }

    #[test]
    fn weight_units_are_exact() {
        assert_eq!(weight_units(&[1.0, 1.0, 1.0], 3), Ok(vec![1, 1, 1]));
        assert_eq!(weight_units(&[0.5, 2.0, 0.0], 3), Ok(vec![1, 4, 0]));
        let tenths = weight_units(&[0.1; 6], 6).unwrap();
        assert!(tenths.iter().all(|&u| u == tenths[0] && u % 2 == 1));
        let mixed = weight_units(&[0.1, 0.2, 0.3], 3).unwrap();
        assert_eq!(mixed[1], 2 * mixed[0]);
        assert_eq!(weight_units(&[f64::INFINITY], 1), Err(WeightFault::Invalid { index: 0 }));
        assert_eq!(weight_units(&[5e-324, 1e-323], 2), Ok(vec![1, 2]));
        assert_eq!(weight_units(&[5e-324, 1.0], 2), Err(WeightFault::Range));
    }

    #[test]
    fn single_input_top_k_matches_input_prefix() {
        // With one input, the median is the input itself.
        let s = keys(&[2, 1, 3, 4, 5]);
        let out = aggregate_top_k(std::slice::from_ref(&s), 3, MedianPolicy::Lower).unwrap();
        assert_eq!(out.buckets()[0], vec![1]);
        assert_eq!(out.buckets()[1], vec![0]);
        assert_eq!(out.buckets()[2], vec![2]);
    }
}
