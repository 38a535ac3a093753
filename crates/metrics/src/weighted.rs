//! Position-weighted metrics: the weighted footrule and the
//! top-difference distance.
//!
//! The paper's four metrics treat every position equally; ranking
//! traffic usually cares most about the top of the list. Two principled
//! generalizations fix that:
//!
//! * **Weighted footrule** (after "A New Weighted Spearman's Footrule",
//!   arXiv 1207.2541): each rank `r` carries a nonnegative weight
//!   `w_r`, positions become cumulative weight masses
//!   `W(r) = w_1 + … + w_r`, and the distance is the `L1` gap between
//!   the weighted position vectors. A bucket spanning ranks `a..=b`
//!   sits at the endpoint midpoint `(W(a) + W(b)) / 2` — the exact
//!   analogue of the paper's average-rank convention, since with
//!   `w ≡ 1` the midpoint is `(a + b) / 2`, the bucket's average rank.
//! * **Top-difference distance** (after "On the Weighted Top-Difference
//!   Distance", arXiv 2403.15198): each element is scored by the weight
//!   mass **strictly above** it — `u(e) = W(A(e) − 1)` where `A(e)` is
//!   the element's ceiling average rank — and the distance is the `L1`
//!   gap between those scores. Moving inside the zero-weight tail is
//!   free, so this is a pseudometric that looks only at the weighted
//!   head.
//!
//! # Exact arithmetic
//!
//! Weights are **integer units** ([`Weights`]), so both distances are
//! exact `u64`s like every other kernel in this crate:
//!
//! * [`weighted_footrule_x2`] returns **twice** the weighted footrule
//!   (the doubling clears the midpoint's `/2`, exactly like the
//!   half-unit `Pos` scale). With `w ≡ 1` it collapses **bit-exactly**
//!   to [`footrule::fprof_x2`] — wired in as a debug assertion.
//! * [`top_diff`] is an integer already and is returned unscaled. With
//!   `w ≡ 1` on full rankings it equals `fprof_x2 / 2`.
//!
//! Both distances are `L1` gaps between per-ranking score vectors, so
//! symmetry and the triangle inequality are structural, and scaling the
//! weight vector scales the distance exactly:
//! `d(σ, τ; c·w) = c · d(σ, τ; w)`.
//!
//! [`Weights::from_units`] enforces an overflow-safety bound
//! (`2·n·W(n) ≤ u64::MAX`), so no kernel in this module can overflow.
//!
//! # Prepared kernels
//!
//! [`weighted_footrule_x2_prepared`] and [`top_diff_prepared`] build
//! their per-bucket score tables in the per-thread scratch of
//! [`crate::prepared`], like every other prepared kernel. The weighted
//! matrix builders in [`crate::batch`] compute each ranking's score
//! vector once and fill the matrix through the same loop as the
//! unweighted ones.

use crate::error::check_same_domain;
use crate::prepared::{check_prepared_domain, fprof_x2_prepared, with_arena, PreparedRanking};
use crate::{footrule, MetricsError};
use bucketrank_core::BucketOrder;

/// Largest accepted single weight unit (`2³²`). Together with the
/// cumulative bound checked by [`Weights::from_units`] this keeps every
/// kernel in `u64` with headroom.
pub const MAX_WEIGHT: u64 = 1 << 32;

/// A validated per-rank weight vector with its cumulative prefix sums.
///
/// `units[r]` is the weight of 1-based rank `r + 1`; `cumulative()[p]`
/// is `W(p) = w_1 + … + w_p` with `W(0) = 0`. Construction validates
/// every entry ([`MAX_WEIGHT`] cap, overflow-safety bound), so kernels
/// taking a `Weights` only ever check the length against the domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Weights {
    units: Vec<u64>,
    cum: Vec<u64>,
}

impl Weights {
    /// Builds a weight vector from integer units.
    ///
    /// # Errors
    /// [`MetricsError::InvalidWeight`] at the first entry exceeding
    /// [`MAX_WEIGHT`] or pushing `2·n·W(n)` past `u64::MAX` (the bound
    /// under which every kernel value provably fits in `u64`).
    pub fn from_units(units: Vec<u64>) -> Result<Self, MetricsError> {
        let n = units.len() as u128;
        let mut cum = Vec::with_capacity(units.len() + 1);
        cum.push(0u64);
        let mut total: u128 = 0;
        for (index, &w) in units.iter().enumerate() {
            if w > MAX_WEIGHT {
                return Err(MetricsError::InvalidWeight { index });
            }
            total += w as u128;
            if 2 * n * total > u64::MAX as u128 {
                return Err(MetricsError::InvalidWeight { index });
            }
            cum.push(total as u64);
        }
        Ok(Weights { units, cum })
    }

    /// Builds a weight vector from floats, accepting exactly the values
    /// representable as integer units: finite, nonnegative, integral,
    /// at most [`MAX_WEIGHT`].
    ///
    /// # Errors
    /// [`MetricsError::InvalidWeight`] at the first NaN, infinite,
    /// negative, fractional, or oversized entry (or one tripping the
    /// cumulative bound of [`Weights::from_units`]).
    pub fn try_from_f64(values: &[f64]) -> Result<Self, MetricsError> {
        let mut units = Vec::with_capacity(values.len());
        for (index, &v) in values.iter().enumerate() {
            if !v.is_finite() || v < 0.0 || v.fract() != 0.0 || v > MAX_WEIGHT as f64 {
                return Err(MetricsError::InvalidWeight { index });
            }
            units.push(v as u64);
        }
        Self::from_units(units)
    }

    /// The all-ones weight vector: the unweighted special case.
    ///
    /// # Panics
    /// Never — `2·n·n ≤ u64::MAX` for any addressable `n`.
    pub fn uniform(n: usize) -> Self {
        Self::from_units(vec![1; n]).expect("uniform weights satisfy the bound")
    }

    /// Number of ranks covered.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The per-rank units.
    pub fn units(&self) -> &[u64] {
        &self.units
    }

    /// Prefix sums `W(0..=n)` (length `len() + 1`, `W(0) = 0`).
    pub fn cumulative(&self) -> &[u64] {
        &self.cum
    }

    /// `Some(c)` when every entry equals `c` (the shape where
    /// `d(·; c·1) = c · d(·; 1)`), `None` otherwise or when empty.
    pub fn is_uniform(&self) -> Option<u64> {
        let (&first, rest) = self.units.split_first()?;
        rest.iter().all(|&w| w == first).then_some(first)
    }

    /// This vector scaled by `c`, revalidated.
    ///
    /// # Errors
    /// [`MetricsError::InvalidWeight`] at the first entry the scaling
    /// pushes past [`MAX_WEIGHT`] or the cumulative bound.
    pub fn scale(&self, c: u64) -> Result<Self, MetricsError> {
        let scaled = self
            .units
            .iter()
            .enumerate()
            .map(|(index, &w)| {
                w.checked_mul(c)
                    .ok_or(MetricsError::InvalidWeight { index })
            })
            .collect::<Result<Vec<u64>, _>>()?;
        Self::from_units(scaled)
    }

    /// Checks the vector covers exactly a domain of `n` ranks.
    pub(crate) fn check_len(&self, n: usize) -> Result<(), MetricsError> {
        if self.units.len() != n {
            return Err(MetricsError::WeightsLengthMismatch {
                weights: self.units.len(),
                domain: n,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Per-element score vectors (the naive reference path)
// ---------------------------------------------------------------------

/// The doubled weighted position of every element: a bucket spanning
/// 1-based ranks `a..=b` scores `W(a) + W(b)` (twice its endpoint
/// midpoint). With `w ≡ 1` this is exactly the half-unit position
/// `a + b` of [`BucketOrder::position`].
///
/// # Errors
/// [`MetricsError::WeightsLengthMismatch`] if `w` does not cover the
/// domain.
pub fn weighted_positions_x2(o: &BucketOrder, w: &Weights) -> Result<Vec<u64>, MetricsError> {
    w.check_len(o.len())?;
    let cum = w.cumulative();
    let mut out = vec![0u64; o.len()];
    let mut taken = 0usize;
    for bucket in o.buckets() {
        let a = taken + 1;
        let b = taken + bucket.len();
        let score = cum[a] + cum[b];
        for &e in bucket {
            out[e as usize] = score;
        }
        taken = b;
    }
    Ok(out)
}

/// The weight mass strictly above every element: `W(A(e) − 1)` where
/// `A(e) = ⌈(a + b) / 2⌉` is the ceiling average rank of the element's
/// bucket `a..=b`. With `w ≡ 1` this is `A(e) − 1`.
///
/// # Errors
/// [`MetricsError::WeightsLengthMismatch`] if `w` does not cover the
/// domain.
pub fn top_mass(o: &BucketOrder, w: &Weights) -> Result<Vec<u64>, MetricsError> {
    w.check_len(o.len())?;
    let cum = w.cumulative();
    let mut out = vec![0u64; o.len()];
    let mut taken = 0usize;
    for bucket in o.buckets() {
        let a = taken + 1;
        let b = taken + bucket.len();
        let score = cum[(a + b).div_ceil(2) - 1];
        for &e in bucket {
            out[e as usize] = score;
        }
        taken = b;
    }
    Ok(out)
}

/// Twice the weighted footrule: the `L1` gap between the doubled
/// weighted position vectors of the two rankings. The naive reference
/// implementation — `O(n)` but recomputing both score vectors per call.
///
/// With `w ≡ 1` this equals [`footrule::fprof_x2`] bit-exactly.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] /
/// [`MetricsError::WeightsLengthMismatch`].
pub fn weighted_footrule_x2(
    sigma: &BucketOrder,
    tau: &BucketOrder,
    w: &Weights,
) -> Result<u64, MetricsError> {
    check_same_domain(sigma, tau)?;
    let ws = weighted_positions_x2(sigma, w)?;
    let wt = weighted_positions_x2(tau, w)?;
    Ok(ws.iter().zip(&wt).map(|(&x, &y)| x.abs_diff(y)).sum())
}

/// The top-difference distance: the `L1` gap between the top-mass
/// vectors of the two rankings. A pseudometric — elements moving
/// entirely inside a zero-weight tail contribute nothing. The naive
/// reference implementation.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] /
/// [`MetricsError::WeightsLengthMismatch`].
pub fn top_diff(sigma: &BucketOrder, tau: &BucketOrder, w: &Weights) -> Result<u64, MetricsError> {
    check_same_domain(sigma, tau)?;
    let us = top_mass(sigma, w)?;
    let ut = top_mass(tau, w)?;
    Ok(us.iter().zip(&ut).map(|(&x, &y)| x.abs_diff(y)).sum())
}

// ---------------------------------------------------------------------
// Prepared fast path
// ---------------------------------------------------------------------

/// Fills `buf` with the per-**bucket** doubled weighted positions of
/// `p`: `num_buckets` values instead of `n`, read straight off the
/// bucket-start prefix sums.
fn fill_bucket_wpos_x2(buf: &mut Vec<u64>, p: &PreparedRanking<'_>, cum: &[u64]) {
    buf.clear();
    buf.extend(p.bucket_starts().windows(2).map(|span| {
        let a = span[0] as usize + 1;
        let b = span[1] as usize;
        cum[a] + cum[b]
    }));
}

/// Fills `buf` with the per-bucket top masses of `p`: bucket `i`
/// spanning ranks `s_i + 1 ..= s_{i+1}` has ceiling average rank
/// `(s_i + s_{i+1}) / 2 + 1`, so its mass-above is
/// `W((s_i + s_{i+1}) / 2)`.
fn fill_bucket_top_mass(buf: &mut Vec<u64>, p: &PreparedRanking<'_>, cum: &[u64]) {
    buf.clear();
    buf.extend(
        p.bucket_starts()
            .windows(2)
            .map(|span| cum[(span[0] as usize + span[1] as usize) / 2]),
    );
}

/// Shared body of the two prepared kernels: per-bucket score tables
/// into the thread's scratch, then one zip over the element → bucket
/// maps.
fn l1_of_bucket_scores(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
    cum: &[u64],
    fill: impl Fn(&mut Vec<u64>, &PreparedRanking<'_>, &[u64]),
) -> u64 {
    with_arena(|arena| {
        fill(&mut arena.wbucket_a, s, cum);
        fill(&mut arena.wbucket_b, t, cum);
        let (wa, wb) = (&arena.wbucket_a, &arena.wbucket_b);
        s.bucket_of()
            .iter()
            .zip(t.bucket_of())
            .map(|(&bs, &bt)| wa[bs as usize].abs_diff(wb[bt as usize]))
            .sum()
    })
}

/// [`weighted_footrule_x2`] over prepared views: per-bucket weighted
/// prefix sums (`O(k)` scratch), then a zero-alloc `O(n)` zip — the
/// matrix and aggregation loops' kernel.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] /
/// [`MetricsError::WeightsLengthMismatch`].
pub fn weighted_footrule_x2_prepared(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
    w: &Weights,
) -> Result<u64, MetricsError> {
    check_prepared_domain(s, t)?;
    w.check_len(s.len())?;
    let total = l1_of_bucket_scores(s, t, w.cumulative(), fill_bucket_wpos_x2);
    // The w ≡ 1 collapse is an exact identity; hold it on every debug
    // evaluation.
    debug_assert!(
        w.is_uniform() != Some(1) || total == fprof_x2_prepared(s, t)?,
        "w ≡ 1 weighted footrule diverged from fprof_x2"
    );
    Ok(total)
}

/// [`top_diff`] over prepared views.
///
/// # Errors
/// [`MetricsError::DomainMismatch`] /
/// [`MetricsError::WeightsLengthMismatch`].
pub fn top_diff_prepared(
    s: &PreparedRanking<'_>,
    t: &PreparedRanking<'_>,
    w: &Weights,
) -> Result<u64, MetricsError> {
    check_prepared_domain(s, t)?;
    w.check_len(s.len())?;
    let total = l1_of_bucket_scores(s, t, w.cumulative(), fill_bucket_top_mass);
    // On full rankings with w ≡ 1, the top difference is exactly half
    // the (even) profile footrule.
    debug_assert!(
        w.is_uniform() != Some(1)
            || !(s.order().is_full() && t.order().is_full())
            || 2 * total == fprof_x2_prepared(s, t)?,
        "w ≡ 1 full-ranking top_diff diverged from fprof_x2 / 2"
    );
    Ok(total)
}

/// The paper's `F^(ℓ)` identity, as a reusable test oracle: two top-`k`
/// lists embedded as bucket orders ([`BucketOrder::top_k`]) under
/// `w ≡ 1` have weighted footrule equal to the location-parameter
/// footrule at the canonical location `ℓ = (n + k + 1) / 2`.
///
/// # Errors
/// Whatever [`footrule::footrule_location_x2`] returns on non-top-`k`
/// inputs.
pub fn location_identity_x2(
    sigma: &BucketOrder,
    tau: &BucketOrder,
    k: usize,
) -> Result<u64, MetricsError> {
    footrule::footrule_location_x2(sigma, tau, k, footrule::canonical_location(sigma.len(), k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(k: &[i64]) -> BucketOrder {
        BucketOrder::from_keys(k)
    }

    #[test]
    fn rejects_oversized_and_overflowing_units() {
        assert_eq!(
            Weights::from_units(vec![1, MAX_WEIGHT + 1]),
            Err(MetricsError::InvalidWeight { index: 1 })
        );
        // Many max-weight entries trip the cumulative bound at the
        // crossing index, not before and not after.
        let n = 65536usize;
        let err = Weights::from_units(vec![MAX_WEIGHT; n]).unwrap_err();
        let MetricsError::InvalidWeight { index } = err else {
            panic!("wrong error: {err:?}");
        };
        assert!(index < n);
        assert!(Weights::from_units(vec![MAX_WEIGHT; index]).is_ok());
    }

    #[test]
    fn rejects_bad_floats() {
        for (i, bad) in [f64::NAN, -1.0, f64::INFINITY, 0.5].into_iter().enumerate() {
            let mut v = vec![1.0, 1.0, 1.0];
            v[i % 3] = bad;
            assert_eq!(
                Weights::try_from_f64(&v),
                Err(MetricsError::InvalidWeight { index: i % 3 }),
                "value {bad} accepted"
            );
        }
        let w = Weights::try_from_f64(&[3.0, 2.0, 0.0]).unwrap();
        assert_eq!(w.units(), &[3, 2, 0]);
        assert_eq!(w.cumulative(), &[0, 3, 5, 5]);
    }

    #[test]
    fn uniform_detection_and_scaling() {
        assert_eq!(Weights::uniform(4).is_uniform(), Some(1));
        assert_eq!(Weights::from_units(vec![2, 2, 2]).unwrap().is_uniform(), Some(2));
        assert_eq!(Weights::from_units(vec![2, 1]).unwrap().is_uniform(), None);
        assert_eq!(Weights::from_units(vec![]).unwrap().is_uniform(), None);
        let w = Weights::from_units(vec![3, 1, 0]).unwrap();
        assert_eq!(w.scale(5).unwrap().units(), &[15, 5, 0]);
    }

    #[test]
    fn length_mismatch_is_typed() {
        let a = keys(&[1, 2, 3]);
        let w = Weights::uniform(4);
        assert_eq!(
            weighted_footrule_x2(&a, &a, &w),
            Err(MetricsError::WeightsLengthMismatch { weights: 4, domain: 3 })
        );
        assert_eq!(
            top_diff(&a, &a, &w),
            Err(MetricsError::WeightsLengthMismatch { weights: 4, domain: 3 })
        );
        let pa = PreparedRanking::new(&a);
        assert!(weighted_footrule_x2_prepared(&pa, &pa, &w).is_err());
        assert!(top_diff_prepared(&pa, &pa, &w).is_err());
    }

    #[test]
    fn uniform_collapses_to_fprof() {
        let a = keys(&[1, 2, 2, 3, 1]);
        let b = keys(&[3, 1, 2, 1, 2]);
        let w = Weights::uniform(5);
        assert_eq!(
            weighted_footrule_x2(&a, &b, &w).unwrap(),
            footrule::fprof_x2(&a, &b).unwrap()
        );
    }

    #[test]
    fn full_ranking_uniform_top_diff_is_half_fprof() {
        let a = BucketOrder::from_permutation(&[2, 0, 3, 1]).unwrap();
        let b = BucketOrder::from_permutation(&[3, 1, 0, 2]).unwrap();
        let w = Weights::uniform(4);
        assert_eq!(
            2 * top_diff(&a, &b, &w).unwrap(),
            footrule::fprof_x2(&a, &b).unwrap()
        );
    }

    #[test]
    fn hand_computed_weighted_footrule() {
        // σ = [x, y], τ = [y, x] over weights [5, 1]:
        // W = [0, 5, 6]; positions ×2: rank 1 → 10, rank 2 → 12.
        // Each element moves between ranks 1 and 2: |10 − 12| = 2 each.
        let a = BucketOrder::from_permutation(&[0, 1]).unwrap();
        let b = BucketOrder::from_permutation(&[1, 0]).unwrap();
        let w = Weights::from_units(vec![5, 1]).unwrap();
        assert_eq!(weighted_footrule_x2(&a, &b, &w).unwrap(), 4);
        // Top diff: u(rank 1) = W(0) = 0, u(rank 2) = W(1) = 5.
        assert_eq!(top_diff(&a, &b, &w).unwrap(), 10);
    }

    #[test]
    fn zero_tail_moves_are_free_for_top_diff_only() {
        // Swapping the last two of four under a top-2 step weight: the
        // tail carries no mass, so top_diff is blind to it...
        let a = BucketOrder::from_permutation(&[0, 1, 2, 3]).unwrap();
        let b = BucketOrder::from_permutation(&[0, 1, 3, 2]).unwrap();
        let w = Weights::from_units(vec![1, 1, 0, 0]).unwrap();
        assert_eq!(top_diff(&a, &b, &w).unwrap(), 0);
        // ...and the weighted footrule is too (W is flat there), while
        // the unweighted footrule sees the swap.
        assert_eq!(weighted_footrule_x2(&a, &b, &w).unwrap(), 0);
        assert!(footrule::fprof_x2(&a, &b).unwrap() > 0);
    }

    #[test]
    fn prepared_matches_naive_on_ties() {
        let a = keys(&[1, 1, 2, 3, 2, 1]);
        let b = keys(&[2, 3, 1, 1, 2, 2]);
        let w = Weights::from_units(vec![8, 4, 2, 1, 0, 0]).unwrap();
        let (pa, pb) = (PreparedRanking::new(&a), PreparedRanking::new(&b));
        assert_eq!(
            weighted_footrule_x2_prepared(&pa, &pb, &w).unwrap(),
            weighted_footrule_x2(&a, &b, &w).unwrap()
        );
        assert_eq!(
            top_diff_prepared(&pa, &pb, &w).unwrap(),
            top_diff(&a, &b, &w).unwrap()
        );
    }

    #[test]
    fn location_identity_matches_uniform_weighted_footrule() {
        // Two top-2 lists over 5 elements, embedded as bucket orders:
        // uniform-weighted footrule = F^(ℓ) at the canonical location.
        let sa = BucketOrder::top_k(5, &[3, 0]).unwrap();
        let sb = BucketOrder::top_k(5, &[0, 4]).unwrap();
        let w = Weights::uniform(5);
        assert_eq!(
            weighted_footrule_x2(&sa, &sb, &w).unwrap(),
            location_identity_x2(&sa, &sb, 2).unwrap()
        );
    }
}
