//! KwikSort: pivot-based rank aggregation (Ailon, Charikar, Newman,
//! STOC 2005) adapted to partial-ranking inputs.
//!
//! **Extension beyond the paper** (documented in `DESIGN.md`): KwikSort
//! postdates PODS 2004 but is the canonical comparison point for
//! Kemeny-style aggregation — an expected 11/7-approximation for full
//! rankings when combined with picking the better of KwikSort and a
//! random input. We include it as a quality baseline for the experiments;
//! with tie-aware majority costs it aggregates partial rankings into a
//! full ranking.
//!
//! The algorithm: pick a random pivot, split the remaining elements into
//! "ahead of pivot" / "behind pivot" by the weighted majority of the
//! inputs (ties counted half each way), recurse on both sides.

use crate::error::check_inputs;
use crate::tally::ProfileTally;
use crate::AggregateError;
use bucketrank_core::{BucketOrder, ElementId};

/// Runs KwikSort with the given RNG seed, returning a full ranking.
///
/// Builds the shared [`ProfileTally`] internally; callers that already
/// hold one (or run several tally consumers over the same profile)
/// should use [`kwiksort_with_tally`].
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn kwiksort(inputs: &[BucketOrder], seed: u64) -> Result<BucketOrder, AggregateError> {
    check_inputs(inputs)?;
    let tally = ProfileTally::build(inputs)?;
    kwiksort_with_tally(&tally, seed)
}

/// [`kwiksort`] over a prebuilt pairwise tally: the `O(m·n²)` weight
/// build is amortized away and only the `O(n log n)` expected pivot
/// recursion remains.
///
/// # Errors
/// Infallible in practice; `Result` kept for signature symmetry with
/// [`kwiksort`].
pub fn kwiksort_with_tally(
    tally: &ProfileTally,
    seed: u64,
) -> Result<BucketOrder, AggregateError> {
    let n = tally.len();
    let mut rng = SplitMix64::new(seed);
    let mut items: Vec<ElementId> = (0..n as ElementId).collect();
    let mut out = Vec::with_capacity(n);
    quick(&mut items, tally.strict_counts(), n, &mut rng, &mut out);
    BucketOrder::from_permutation(&out).map_err(Into::into)
}

/// `strict` is the tally's strict-count matrix (`n × n`, row-major).
fn quick(
    items: &mut [ElementId],
    strict: &[u32],
    n: usize,
    rng: &mut SplitMix64,
    out: &mut Vec<ElementId>,
) {
    match items.len() {
        0 => return,
        1 => {
            out.push(items[0]);
            return;
        }
        _ => {}
    }
    let pivot = items[(rng.next() % items.len() as u64) as usize];
    let mut ahead = Vec::new();
    let mut behind = Vec::new();
    for &e in items.iter() {
        if e == pivot {
            continue;
        }
        // e goes ahead of the pivot iff the ×2 weight for (e before
        // pivot) is at least the weight for (pivot before e); ties
        // broken by id for determinism given the seed. The weights
        // differ by `2·(s(e, p) − s(p, e))`, so comparing the two
        // strict counts makes the same split.
        let ep = strict[e as usize * n + pivot as usize];
        let pe = strict[pivot as usize * n + e as usize];
        if ep > pe || (ep == pe && e < pivot) {
            ahead.push(e);
        } else {
            behind.push(e);
        }
    }
    quick(&mut ahead, strict, n, rng, out);
    out.push(pivot);
    quick(&mut behind, strict, n, rng, out);
}

/// Runs KwikSort `restarts` times with derived seeds and keeps the output
/// with the lowest `Kprof` objective.
///
/// # Errors
/// As [`kwiksort`].
pub fn kwiksort_best_of(
    inputs: &[BucketOrder],
    seed: u64,
    restarts: usize,
) -> Result<BucketOrder, AggregateError> {
    check_inputs(inputs)?;
    // One tally serves every restart: the pivot comparisons and the
    // O(n²) Kprof scoring of each candidate, with no per-restart pass
    // over the voters.
    let tally = ProfileTally::build(inputs)?;
    let mut best: Option<(BucketOrder, u64)> = None;
    for i in 0..restarts.max(1) {
        let cand = kwiksort_with_tally(&tally, seed.wrapping_add(i as u64))?;
        let c = tally.kemeny_cost_x2(&cand)?;
        if best.as_ref().is_none_or(|&(_, bc)| c < bc) {
            best = Some((cand, c));
        }
    }
    Ok(best.expect("restarts ≥ 1").0)
}

/// SplitMix64: tiny deterministic RNG, avoiding a `rand` dependency in
/// the library crate.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{total_cost_x2, AggMetric};
    use crate::exact::kemeny_optimal_full;

    fn keys(k: &[i64]) -> BucketOrder {
        BucketOrder::from_keys(k)
    }

    #[test]
    fn output_is_a_full_ranking() {
        let inputs = vec![keys(&[1, 1, 2, 3]), keys(&[3, 2, 1, 1])];
        let out = kwiksort(&inputs, 7).unwrap();
        assert!(out.is_full());
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn unanimous_inputs_recovered() {
        let s = BucketOrder::from_permutation(&[2, 0, 3, 1]).unwrap();
        let inputs = vec![s.clone(), s.clone(), s.clone()];
        for seed in 0..10 {
            let out = kwiksort(&inputs, seed).unwrap();
            assert_eq!(out, s, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let inputs = vec![keys(&[1, 2, 3, 4, 5]), keys(&[5, 4, 3, 2, 1]), keys(&[2, 1, 4, 3, 5])];
        assert_eq!(
            kwiksort(&inputs, 11).unwrap(),
            kwiksort(&inputs, 11).unwrap()
        );
    }

    #[test]
    fn cost_is_reasonable_vs_exact_kemeny() {
        let inputs = vec![
            keys(&[1, 2, 3, 4, 5, 6]),
            keys(&[2, 1, 3, 5, 4, 6]),
            keys(&[1, 3, 2, 4, 6, 5]),
            keys(&[6, 5, 4, 3, 2, 1]),
            keys(&[1, 2, 4, 3, 5, 6]),
        ];
        let (_, opt) = kemeny_optimal_full(&inputs).unwrap();
        let out = kwiksort_best_of(&inputs, 3, 8).unwrap();
        let c = total_cost_x2(AggMetric::KProf, &out, &inputs).unwrap();
        // Expected guarantee for full inputs is small-constant; assert a
        // loose 3× sanity bound on this fixed instance.
        assert!(c <= 3 * opt.max(1), "{c} > 3·{opt}");
    }

    #[test]
    fn handles_tied_inputs() {
        let inputs = vec![BucketOrder::trivial(5), keys(&[1, 2, 3, 4, 5])];
        let out = kwiksort(&inputs, 1).unwrap();
        assert!(out.is_full());
    }

    #[test]
    fn errors() {
        assert!(kwiksort(&[], 0).is_err());
        let a = BucketOrder::trivial(2);
        let b = BucketOrder::trivial(3);
        assert!(kwiksort(&[a, b], 0).is_err());
    }
}
