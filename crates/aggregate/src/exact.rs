//! Exact optimal aggregations, for measuring the approximation quality of
//! the median algorithm (experiments E3/E8).
//!
//! * [`optimal_partial_ranking`] — global optimum over **all** bucket
//!   orders by enumeration (Fubini-many candidates; small domains only).
//! * [`optimal_of_type`] — optimum over bucket orders of one type.
//! * [`kemeny_optimal_full`] — optimal **full ranking** under the `Kprof`
//!   objective by Held–Karp dynamic programming over subsets
//!   (`O(2ⁿ·n²)`), the tie-aware generalization of Kemeny aggregation.
//! * [`footrule_optimal_full`] — optimal full ranking under the `Fprof`
//!   objective via minimum-cost perfect matching (the paper's footnote 4).

use crate::cost::{total_cost_x2, AggMetric};
use crate::error::check_inputs;
use crate::hungarian::solve_assignment;
use crate::tally::ProfileTally;
use crate::AggregateError;
use bucketrank_core::consistent::all_bucket_orders;
use bucketrank_core::{BucketOrder, ElementId, Pos, TypeSeq};

/// Maximum domain size accepted by the enumeration-based exact optimizers
/// (`fubini(8) = 545 835` candidates).
pub const MAX_EXACT_N: usize = 8;

/// Maximum domain size accepted by the Held–Karp Kemeny optimizer.
pub const MAX_KEMENY_N: usize = 18;

/// The optimal partial ranking: minimizes `Σ_i d(τ, σ_i)` over **all**
/// bucket orders `τ` on the domain. Returns `(optimum, cost_x2)`.
///
/// # Errors
/// [`AggregateError::DomainTooLarge`] beyond [`MAX_EXACT_N`];
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn optimal_partial_ranking(
    inputs: &[BucketOrder],
    metric: AggMetric,
) -> Result<(BucketOrder, u64), AggregateError> {
    let n = check_inputs(inputs)?;
    if n > MAX_EXACT_N {
        return Err(AggregateError::DomainTooLarge {
            n,
            max: MAX_EXACT_N,
        });
    }
    let mut best: Option<(BucketOrder, u64)> = None;
    for cand in all_bucket_orders(n) {
        let c = total_cost_x2(metric, &cand, inputs)?;
        if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
            best = Some((cand, c));
        }
    }
    Ok(best.expect("domain enumeration is nonempty"))
}

/// The optimal partial ranking among those of type `alpha`.
/// Returns `(optimum, cost_x2)`.
///
/// # Errors
/// As [`optimal_partial_ranking`], plus
/// [`AggregateError::TypeSizeMismatch`] if `alpha` does not fit the domain.
pub fn optimal_of_type(
    inputs: &[BucketOrder],
    alpha: &TypeSeq,
    metric: AggMetric,
) -> Result<(BucketOrder, u64), AggregateError> {
    let n = check_inputs(inputs)?;
    if alpha.domain_size() != n {
        return Err(AggregateError::TypeSizeMismatch {
            type_total: alpha.domain_size(),
            domain_size: n,
        });
    }
    if n > MAX_EXACT_N {
        return Err(AggregateError::DomainTooLarge {
            n,
            max: MAX_EXACT_N,
        });
    }
    let mut best: Option<(BucketOrder, u64)> = None;
    for cand in all_bucket_orders(n) {
        if &cand.type_seq() != alpha {
            continue;
        }
        let c = total_cost_x2(metric, &cand, inputs)?;
        if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
            best = Some((cand, c));
        }
    }
    Ok(best.expect("every type has at least one order"))
}

/// The optimal **full ranking** under the `Kprof` objective, by Held–Karp
/// dynamic programming over subsets. Accepts partial-ranking inputs (the
/// pairwise cost of putting `a` ahead of `b` is `2` per input preferring
/// `b`, `1` per input tying them). Returns `(optimum, cost_x2)`.
///
/// For full-ranking inputs this is exact Kemeny aggregation.
///
/// # Errors
/// [`AggregateError::DomainTooLarge`] beyond [`MAX_KEMENY_N`];
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn kemeny_optimal_full(
    inputs: &[BucketOrder],
) -> Result<(BucketOrder, u64), AggregateError> {
    let n = check_inputs(inputs)?;
    if n > MAX_KEMENY_N {
        return Err(AggregateError::DomainTooLarge {
            n,
            max: MAX_KEMENY_N,
        });
    }
    if n == 0 {
        return Ok((BucketOrder::trivial(0), 0));
    }
    // w[a][b] = cost (×2) of ranking a strictly ahead of b.
    let mut w = vec![0u64; n * n];
    for s in inputs {
        for a in 0..n as ElementId {
            for b in 0..n as ElementId {
                if a == b {
                    continue;
                }
                let cell = &mut w[a as usize * n + b as usize];
                if s.prefers(b, a) {
                    *cell += 2;
                } else if s.is_tied(a, b) {
                    *cell += 1;
                }
            }
        }
    }
    // dp[mask] = min cost of ordering the elements of mask as a prefix.
    let full = (1usize << n) - 1;
    let mut dp = vec![u64::MAX; full + 1];
    let mut parent = vec![usize::MAX; full + 1]; // element appended last
    dp[0] = 0;
    for mask in 0..=full {
        if dp[mask] == u64::MAX {
            continue;
        }
        for e in 0..n {
            if mask >> e & 1 == 1 {
                continue;
            }
            // Append e after the prefix: pay w[s][e] for every s in mask.
            let mut add = 0u64;
            let mut rem = mask;
            while rem != 0 {
                let s = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                add += w[s * n + e];
            }
            let next = mask | 1 << e;
            let cand = dp[mask] + add;
            if cand < dp[next] {
                dp[next] = cand;
                parent[next] = e;
            }
        }
    }
    let mut perm = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let e = parent[mask];
        perm.push(e as ElementId);
        mask &= !(1 << e);
    }
    perm.reverse();
    let order = BucketOrder::from_permutation(&perm).expect("permutation by construction");
    Ok((order, dp[full]))
}

/// The optimal **full ranking** under the `Fprof` objective via minimum-
/// cost perfect matching between elements and output ranks (the paper's
/// footnote 4). Returns `(optimum, cost_x2)`.
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn footrule_optimal_full(
    inputs: &[BucketOrder],
) -> Result<(BucketOrder, u64), AggregateError> {
    let n = check_inputs(inputs)?;
    if n == 0 {
        return Ok((BucketOrder::trivial(0), 0));
    }
    // cost[d][r] = Σ_i |pos(rank r+1) − σ_i(d)| in half-units.
    let mut cost = vec![0i64; n * n];
    for d in 0..n as ElementId {
        for r in 0..n {
            let rank_pos = Pos::from_rank(r as i64 + 1);
            let c: u64 = inputs
                .iter()
                .map(|s| rank_pos.abs_diff(s.position(d)))
                .sum();
            cost[d as usize * n + r] = c as i64;
        }
    }
    let (assignment, total) = solve_assignment(n, &cost);
    let mut perm = vec![0 as ElementId; n];
    for (d, &r) in assignment.iter().enumerate() {
        perm[r] = d as ElementId;
    }
    let order = BucketOrder::from_permutation(&perm).expect("assignment is a permutation");
    Ok((order, total as u64))
}

/// A lower bound on the `Kprof` cost of **any** aggregation (full or
/// partial): for each pair, every output must pay at least
/// `min(cost of a ahead, cost of b ahead, cost of tie)` summed over the
/// inputs. All three are read from the [`ProfileTally`]: a tie costs 1
/// per voter ordering the pair strictly. `O(m·n²)` for the tally build,
/// then `O(n²)`; sound at any domain size, which makes it the reference
/// point for quality experiments beyond the exact optimizers' reach.
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn kprof_lower_bound_x2(inputs: &[BucketOrder]) -> Result<u64, AggregateError> {
    let n = check_inputs(inputs)?;
    let tally = ProfileTally::build(inputs)?;
    let mut total = 0u64;
    for a in 0..n as ElementId {
        for b in a + 1..n as ElementId {
            let ahead_a = tally.pair_cost_x2(a, b);
            let ahead_b = tally.pair_cost_x2(b, a);
            let tie = tally.strict_count(a, b) + tally.strict_count(b, a);
            total += u64::from(ahead_a.min(ahead_b).min(tie));
        }
    }
    Ok(total)
}

/// The optimal partial ranking **of a prescribed type** under the `Fprof`
/// objective, in polynomial time: a minimum-cost perfect matching between
/// elements and the type's `n` *slots*, where every slot of bucket `B`
/// carries the bucket position `pos(B)`. Returns `(optimum, cost_x2)`.
///
/// Because `Fprof` is a per-element `L1` sum, the optimal type-α
/// aggregation is exactly this transportation problem — which makes the
/// Theorem 9 comparison (median top-k vs the *true* optimal top-k list)
/// computable at domain sizes far beyond the `fubini(n)` enumeration
/// limit. `O(n³)` via the Hungarian algorithm.
///
/// # Errors
/// [`AggregateError::NoInputs`], [`AggregateError::DomainMismatch`], or
/// [`AggregateError::TypeSizeMismatch`].
pub fn footrule_optimal_of_type(
    inputs: &[BucketOrder],
    alpha: &TypeSeq,
) -> Result<(BucketOrder, u64), AggregateError> {
    let n = check_inputs(inputs)?;
    if alpha.domain_size() != n {
        return Err(AggregateError::TypeSizeMismatch {
            type_total: alpha.domain_size(),
            domain_size: n,
        });
    }
    if n == 0 {
        return Ok((BucketOrder::trivial(0), 0));
    }
    // slot_pos[s] = position of the bucket that slot s belongs to;
    // slot_bucket[s] = that bucket's index.
    let mut slot_pos = Vec::with_capacity(n);
    let mut slot_bucket = Vec::with_capacity(n);
    for (bi, (&size, &p)) in alpha
        .sizes()
        .iter()
        .zip(alpha.positions().iter())
        .enumerate()
    {
        for _ in 0..size {
            slot_pos.push(p);
            slot_bucket.push(bi);
        }
    }
    let mut cost = vec![0i64; n * n];
    for d in 0..n as ElementId {
        for (s, &p) in slot_pos.iter().enumerate() {
            let c: u64 = inputs.iter().map(|sig| p.abs_diff(sig.position(d))).sum();
            cost[d as usize * n + s] = c as i64;
        }
    }
    let (assignment, total) = solve_assignment(n, &cost);
    let mut buckets: Vec<Vec<ElementId>> = vec![Vec::new(); alpha.num_buckets()];
    for (d, &s) in assignment.iter().enumerate() {
        buckets[slot_bucket[s]].push(d as ElementId);
    }
    let order = BucketOrder::from_buckets(n, buckets).expect("slots realize the type");
    Ok((order, total as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::median::{aggregate_full, MedianPolicy};

    fn keys(k: &[i64]) -> BucketOrder {
        BucketOrder::from_keys(k)
    }

    #[test]
    fn unanimous_inputs_are_optimal() {
        let s = keys(&[1, 2, 2, 3]);
        let inputs = vec![s.clone(), s.clone(), s.clone()];
        for metric in AggMetric::ALL {
            let (opt, c) = optimal_partial_ranking(&inputs, metric).unwrap();
            assert_eq!(c, 0);
            assert_eq!(opt, s);
        }
    }

    #[test]
    fn optimal_of_type_restricts_shape() {
        let inputs = vec![keys(&[1, 2, 3, 4]), keys(&[1, 3, 2, 4]), keys(&[2, 1, 3, 4])];
        let alpha = TypeSeq::top_k(4, 1).unwrap();
        let (opt, c) = optimal_of_type(&inputs, &alpha, AggMetric::FProf).unwrap();
        assert_eq!(opt.type_seq(), alpha);
        // Element 0 has median rank 1: the optimal top-1 puts it first.
        assert_eq!(opt.buckets()[0], vec![0]);
        // Unconstrained optimum can only be cheaper.
        let (_, c_free) = optimal_partial_ranking(&inputs, AggMetric::FProf).unwrap();
        assert!(c_free <= c);
    }

    #[test]
    fn kemeny_matches_enumeration_on_full_inputs() {
        let inputs = vec![
            BucketOrder::from_permutation(&[0, 1, 2, 3]).unwrap(),
            BucketOrder::from_permutation(&[1, 0, 3, 2]).unwrap(),
            BucketOrder::from_permutation(&[0, 2, 1, 3]).unwrap(),
        ];
        let (hk, c_hk) = kemeny_optimal_full(&inputs).unwrap();
        // Enumerate all full rankings via optimal_of_type with full type.
        let (en, c_en) =
            optimal_of_type(&inputs, &TypeSeq::full(4), AggMetric::KProf).unwrap();
        assert_eq!(c_hk, c_en);
        assert_eq!(
            total_cost_x2(AggMetric::KProf, &hk, &inputs).unwrap(),
            total_cost_x2(AggMetric::KProf, &en, &inputs).unwrap()
        );
        assert_eq!(total_cost_x2(AggMetric::KProf, &hk, &inputs).unwrap(), c_hk);
    }

    #[test]
    fn kemeny_handles_tied_inputs() {
        let inputs = vec![
            keys(&[1, 1, 2]),
            keys(&[2, 1, 1]),
            keys(&[1, 2, 1]),
        ];
        let (hk, c_hk) = kemeny_optimal_full(&inputs).unwrap();
        assert!(hk.is_full());
        let (_, c_en) = optimal_of_type(&inputs, &TypeSeq::full(3), AggMetric::KProf).unwrap();
        assert_eq!(c_hk, c_en);
    }

    #[test]
    fn footrule_matching_matches_enumeration() {
        let inputs = vec![keys(&[3, 1, 2, 4]), keys(&[1, 2, 3, 4]), keys(&[2, 3, 1, 4])];
        let (fm, c_fm) = footrule_optimal_full(&inputs).unwrap();
        assert!(fm.is_full());
        let (_, c_en) = optimal_of_type(&inputs, &TypeSeq::full(4), AggMetric::FProf).unwrap();
        assert_eq!(c_fm, c_en);
        assert_eq!(
            total_cost_x2(AggMetric::FProf, &fm, &inputs).unwrap(),
            c_fm
        );
    }

    #[test]
    fn theorem11_median_within_factor_two_of_footrule_optimum() {
        // Full-ranking inputs: median-full is a 2-approximation.
        let inputs = vec![
            BucketOrder::from_permutation(&[4, 0, 1, 2, 3]).unwrap(),
            BucketOrder::from_permutation(&[0, 1, 4, 3, 2]).unwrap(),
            BucketOrder::from_permutation(&[1, 0, 2, 4, 3]).unwrap(),
        ];
        let med = aggregate_full(&inputs, MedianPolicy::Lower).unwrap();
        let med_cost = total_cost_x2(AggMetric::FProf, &med, &inputs).unwrap();
        let (_, opt_cost) = footrule_optimal_full(&inputs).unwrap();
        assert!(med_cost <= 2 * opt_cost, "{med_cost} > 2·{opt_cost}");
    }

    #[test]
    fn too_large_domains_are_rejected() {
        let big = BucketOrder::trivial(MAX_EXACT_N + 1);
        assert!(matches!(
            optimal_partial_ranking(std::slice::from_ref(&big), AggMetric::FProf),
            Err(AggregateError::DomainTooLarge { .. })
        ));
        let huge = BucketOrder::trivial(MAX_KEMENY_N + 1);
        assert!(matches!(
            kemeny_optimal_full(std::slice::from_ref(&huge)),
            Err(AggregateError::DomainTooLarge { .. })
        ));
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(optimal_partial_ranking(&[], AggMetric::FProf).is_err());
        assert!(kemeny_optimal_full(&[]).is_err());
        assert!(footrule_optimal_full(&[]).is_err());
        assert!(footrule_optimal_of_type(&[], &TypeSeq::full(0)).is_err());
    }

    #[test]
    fn typed_matching_matches_enumeration_exhaustively() {
        // For every type of n = 5, the Hungarian slot matching equals the
        // brute-force optimum over all orders of that type.
        let inputs = vec![
            keys(&[2, 1, 3, 1, 2]),
            keys(&[1, 3, 2, 2, 1]),
            keys(&[3, 2, 1, 3, 1]),
        ];
        for alpha in TypeSeq::all_types(5) {
            let (m_order, m_cost) = footrule_optimal_of_type(&inputs, &alpha).unwrap();
            assert_eq!(m_order.type_seq(), alpha);
            assert_eq!(
                total_cost_x2(AggMetric::FProf, &m_order, &inputs).unwrap(),
                m_cost
            );
            let (_, e_cost) = optimal_of_type(&inputs, &alpha, AggMetric::FProf).unwrap();
            assert_eq!(m_cost, e_cost, "type {alpha}");
        }
    }

    #[test]
    fn typed_matching_full_type_equals_full_matching() {
        let inputs = vec![keys(&[1, 2, 3, 4]), keys(&[4, 3, 2, 1]), keys(&[2, 2, 1, 1])];
        let (_, via_typed) = footrule_optimal_of_type(&inputs, &TypeSeq::full(4)).unwrap();
        let (_, via_full) = footrule_optimal_full(&inputs).unwrap();
        assert_eq!(via_typed, via_full);
    }

    #[test]
    fn typed_matching_scales_past_enumeration() {
        // n = 40 would need fubini(40) enumeration; the matching runs fine
        // and the median top-k respects its factor-3 bound against it.
        use crate::median::aggregate_top_k;
        let mut keysets = Vec::new();
        let mut x = 7u64;
        for _ in 0..5 {
            let ks: Vec<i64> = (0..40)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((x >> 33) % 6) as i64
                })
                .collect();
            keysets.push(BucketOrder::from_keys(&ks));
        }
        let alpha = TypeSeq::top_k(40, 10).unwrap();
        let (opt_order, opt) = footrule_optimal_of_type(&keysets, &alpha).unwrap();
        assert_eq!(opt_order.type_seq(), alpha);
        let med = aggregate_top_k(&keysets, 10, MedianPolicy::Lower).unwrap();
        let med_cost = total_cost_x2(AggMetric::FProf, &med, &keysets).unwrap();
        assert!(med_cost <= 3 * opt, "{med_cost} > 3·{opt}");
        assert!(opt <= med_cost);
    }

    #[test]
    fn lower_bound_is_sound_and_often_tight() {
        use crate::median::MedianPolicy;
        let mut state = 99u64;
        let mut next = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % m
        };
        let mut tight = 0;
        for _ in 0..30 {
            let n = (next(4) + 3) as usize;
            let inputs: Vec<BucketOrder> = (0..5)
                .map(|_| {
                    let ks: Vec<i64> = (0..n).map(|_| next(3) as i64).collect();
                    keys(&ks)
                })
                .collect();
            let lb = kprof_lower_bound_x2(&inputs).unwrap();
            let (_, opt) = optimal_partial_ranking(&inputs, AggMetric::KProf).unwrap();
            assert!(lb <= opt, "lower bound {lb} exceeds optimum {opt}");
            if lb == opt {
                tight += 1;
            }
            // Also below every heuristic output, trivially.
            let med = crate::median::aggregate_full(&inputs, MedianPolicy::Lower).unwrap();
            assert!(lb <= total_cost_x2(AggMetric::KProf, &med, &inputs).unwrap());
        }
        // Tightness requires a transitive per-pair optimum, which random
        // tie-heavy profiles often lack — a handful of exact matches over
        // 30 trials is the expected regime.
        assert!(tight >= 3, "bound should sometimes be tight: {tight}/30");
    }

    /// The bound by a per-voter `prefers()` scan: an independent
    /// reference for the tally read.
    fn lower_bound_by_rescan(inputs: &[BucketOrder]) -> u64 {
        let n = inputs[0].len() as ElementId;
        let mut total = 0u64;
        for a in 0..n {
            for b in a + 1..n {
                let (mut ahead_a, mut ahead_b, mut tie) = (0u64, 0u64, 0u64);
                for s in inputs {
                    if s.prefers(a, b) {
                        ahead_b += 2;
                        tie += 1;
                    } else if s.prefers(b, a) {
                        ahead_a += 2;
                        tie += 1;
                    } else {
                        ahead_a += 1;
                        ahead_b += 1;
                    }
                }
                total += ahead_a.min(ahead_b).min(tie);
            }
        }
        total
    }

    #[test]
    fn lower_bound_matches_the_rescan_on_tied_profiles() {
        let mut state = 7u64;
        let mut next = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % m
        };
        for _ in 0..40 {
            let n = (next(12) + 1) as usize;
            let m = (next(9) + 1) as usize;
            // 1 level is all-tied; n levels is mostly full.
            let levels = next(n as u64) + 1;
            let inputs: Vec<BucketOrder> = (0..m)
                .map(|_| {
                    let ks: Vec<i64> = (0..n).map(|_| next(levels) as i64).collect();
                    keys(&ks)
                })
                .collect();
            assert_eq!(
                kprof_lower_bound_x2(&inputs).unwrap(),
                lower_bound_by_rescan(&inputs)
            );
        }
    }

    #[test]
    fn lower_bound_zero_for_unanimity() {
        let s = keys(&[1, 1, 2, 3]);
        let inputs = vec![s.clone(), s.clone()];
        assert_eq!(kprof_lower_bound_x2(&inputs).unwrap(), 0);
        assert!(kprof_lower_bound_x2(&[]).is_err());
    }

    #[test]
    fn typed_matching_type_mismatch_rejected() {
        let inputs = vec![keys(&[1, 2, 3])];
        let alpha = TypeSeq::full(4);
        assert!(matches!(
            footrule_optimal_of_type(&inputs, &alpha),
            Err(AggregateError::TypeSizeMismatch { .. })
        ));
    }
}
