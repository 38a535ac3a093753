//! The Schulze method (beatpath winner), a classical Condorcet-consistent
//! aggregation baseline.
//!
//! For each ordered pair `(a, b)` let `w(a, b)` be the number of inputs
//! strictly preferring `a` (ties count for neither). The *beatpath
//! strength* `p(a, b)` is the widest-path value from `a` to `b` in the
//! digraph whose edge `a → b` exists when `w(a, b) > w(b, a)` with width
//! `w(a, b)`; `a` finishes ahead of `b` when `p(a, b) > p(b, a)`. That
//! relation is a strict partial order; peeling off its undominated
//! layers yields a bucket order — ties land in shared buckets, a pleasant
//! fit for this library.
//!
//! Complements [`crate::condorcet`]: Schulze always ranks a Condorcet
//! winner first and respects the Smith set.

use crate::error::check_inputs;
use crate::tally::{ProfileTally, StrictVisitor};
use crate::AggregateError;
use bucketrank_core::{BucketOrder, ElementId};

/// Runs the Schulze method; the output's buckets are the *undominated
/// layers* of the beatpath order (repeatedly extract everything no
/// remaining element beats), a canonical linear extension with ties.
///
/// Builds the shared [`ProfileTally`] internally; callers that already
/// hold one should use [`schulze_with_tally`].
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn schulze(inputs: &[BucketOrder]) -> Result<BucketOrder, AggregateError> {
    check_inputs(inputs)?;
    schulze_with_tally(&ProfileTally::build(inputs)?)
}

/// [`schulze`] over a prebuilt pairwise tally: the support counts
/// `w(a, b)` are the tally's strict-preference counts, so only the
/// `O(n³)` widest-path computation remains.
///
/// # Errors
/// Infallible in practice; `Result` kept for signature symmetry with
/// [`schulze`].
pub fn schulze_with_tally(tally: &ProfileTally) -> Result<BucketOrder, AggregateError> {
    let n = tally.len();
    if n == 0 {
        return Ok(BucketOrder::trivial(0));
    }
    // Pairwise support, read straight off the shared tally.
    let w = tally.visit_strict(Support);
    // Widest paths (Floyd–Warshall on max-min).
    let mut p = vec![0u64; n * n];
    for a in 0..n {
        for b in 0..n {
            if a != b && w[a * n + b] > w[b * n + a] {
                p[a * n + b] = w[a * n + b];
            }
        }
    }
    for k in 0..n {
        for a in 0..n {
            if a == k {
                continue;
            }
            let pak = p[a * n + k];
            if pak == 0 {
                continue;
            }
            for b in 0..n {
                if b == a || b == k {
                    continue;
                }
                let via = pak.min(p[k * n + b]);
                if via > p[a * n + b] {
                    p[a * n + b] = via;
                }
            }
        }
    }
    // a beats b ⟺ p(a,b) > p(b,a) — a strict partial order; peel off
    // undominated layers to get the output buckets.
    let beats = |a: usize, b: usize| p[a * n + b] > p[b * n + a];
    let mut remaining: Vec<ElementId> = (0..n as ElementId).collect();
    let mut buckets: Vec<Vec<ElementId>> = Vec::new();
    while !remaining.is_empty() {
        // Undominated within the remaining set.
        let layer: Vec<ElementId> = remaining
            .iter()
            .copied()
            .filter(|&a| {
                !remaining
                    .iter()
                    .any(|&b| b != a && beats(b as usize, a as usize))
            })
            .collect();
        debug_assert!(
            !layer.is_empty(),
            "strict partial orders always have maximal elements"
        );
        remaining.retain(|e| !layer.contains(e));
        buckets.push(layer);
    }
    Ok(BucketOrder::from_buckets(n, buckets)?)
}

/// The tally's strict counts widened to `u64` — Schulze's pairwise
/// support matrix — in one pass at the stored cell width.
struct Support;

impl StrictVisitor for Support {
    type Out = Vec<u64>;
    fn visit<C: Copy + Ord + Into<u64>>(self, strict: &[C]) -> Vec<u64> {
        strict.iter().map(|&c| c.into()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condorcet::MajorityGraph;

    fn keys(k: &[i64]) -> BucketOrder {
        BucketOrder::from_keys(k)
    }

    #[test]
    fn unanimous_recovered() {
        let s = BucketOrder::from_permutation(&[2, 0, 1]).unwrap();
        let out = schulze(&vec![s.clone(); 3]).unwrap();
        assert_eq!(out, s);
    }

    #[test]
    fn condorcet_winner_first() {
        let inputs = vec![
            keys(&[1, 2, 3, 4]),
            keys(&[1, 3, 4, 2]),
            keys(&[2, 1, 4, 3]),
        ];
        let g = MajorityGraph::build(&inputs).unwrap();
        let w = g.condorcet_winner().unwrap();
        let out = schulze(&inputs).unwrap();
        assert_eq!(out.bucket_index(w), 0);
        assert_eq!(out.buckets()[0], vec![w]);
    }

    #[test]
    fn pure_cycle_collapses_to_one_bucket() {
        let inputs = vec![
            BucketOrder::from_permutation(&[0, 1, 2]).unwrap(),
            BucketOrder::from_permutation(&[1, 2, 0]).unwrap(),
            BucketOrder::from_permutation(&[2, 0, 1]).unwrap(),
        ];
        let out = schulze(&inputs).unwrap();
        // Perfect symmetry: beatpaths tie everywhere.
        assert_eq!(out, BucketOrder::trivial(3));
    }

    #[test]
    fn smith_set_respected() {
        use crate::condorcet::respects_smith_set;
        let inputs = vec![
            BucketOrder::from_permutation(&[0, 1, 2, 3, 4]).unwrap(),
            BucketOrder::from_permutation(&[1, 2, 0, 4, 3]).unwrap(),
            BucketOrder::from_permutation(&[2, 0, 1, 3, 4]).unwrap(),
        ];
        let g = MajorityGraph::build(&inputs).unwrap();
        let out = schulze(&inputs).unwrap();
        // Refine ties arbitrarily for the check's strict-preference needs.
        assert!(respects_smith_set(&g, &out.arbitrary_full_refinement()).unwrap());
    }

    #[test]
    fn tied_inputs_handled() {
        let inputs = vec![BucketOrder::trivial(4), keys(&[1, 2, 3, 4])];
        let out = schulze(&inputs).unwrap();
        // The only information is the second voter's order.
        assert_eq!(out, keys(&[1, 2, 3, 4]));
    }

    #[test]
    fn errors_and_empty() {
        assert!(schulze(&[]).is_err());
        assert_eq!(
            schulze(&[BucketOrder::trivial(0)]).unwrap(),
            BucketOrder::trivial(0)
        );
    }
}
