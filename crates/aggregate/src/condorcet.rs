//! Condorcet analysis of a profile of partial rankings: the pairwise
//! majority digraph, Condorcet winners, the Smith set, and the extended
//! Condorcet criterion.
//!
//! Dwork et al. (WWW 2001) — the lineage this paper builds on — motivate
//! local Kemenization by the **extended Condorcet criterion**: if the
//! majority digraph partitions the candidates so that every member of one
//! side beats every member of the other, the aggregate should order the
//! sides accordingly. These tools quantify that property for our
//! aggregators (tested against [`crate::local::local_kemenize`]).

use crate::error::check_inputs;
use crate::tally::ProfileTally;
use crate::AggregateError;
use bucketrank_core::{BucketOrder, ElementId};

/// The pairwise majority digraph of a profile (ties in inputs count for
/// neither side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MajorityGraph {
    n: usize,
    /// `beats[a * n + b]` ⟺ strictly more inputs rank `a` ahead of `b`
    /// than the reverse.
    beats: Vec<bool>,
}

impl MajorityGraph {
    /// Builds the majority digraph of a profile.
    ///
    /// # Errors
    /// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
    pub fn build(inputs: &[BucketOrder]) -> Result<Self, AggregateError> {
        check_inputs(inputs)?;
        Ok(Self::from_tally(&ProfileTally::build(inputs)?))
    }

    /// Builds the majority digraph from a prebuilt pairwise tally: one
    /// pass over the upper triangle fills **both** directions of each
    /// pair from one margin (the pair's two strict cells; the voter
    /// scan was already paid by the tally build, once for all
    /// consumers).
    pub fn from_tally(tally: &ProfileTally) -> Self {
        let n = tally.len();
        let mut beats = vec![false; n * n];
        for a in 0..n as ElementId {
            for b in a + 1..n as ElementId {
                let margin = tally.margin(a, b);
                if margin > 0 {
                    beats[a as usize * n + b as usize] = true;
                } else if margin < 0 {
                    beats[b as usize * n + a as usize] = true;
                }
            }
        }
        MajorityGraph { n, beats }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether a strict majority prefers `a` to `b`.
    pub fn beats(&self, a: ElementId, b: ElementId) -> bool {
        self.beats[a as usize * self.n + b as usize]
    }

    /// The Condorcet winner — an element beating every other — if one
    /// exists.
    pub fn condorcet_winner(&self) -> Option<ElementId> {
        (0..self.n as ElementId).find(|&a| {
            (0..self.n as ElementId).all(|b| b == a || self.beats(a, b))
        })
    }

    /// The Smith set: the smallest nonempty set of elements each of which
    /// beats every element outside the set. Computed as the top strongly
    /// connected component(s) of the "beats-or-ties" closure: we take the
    /// SCC condensation of the digraph with an edge `a → b` whenever `b`
    /// does **not** beat `a`, and return the unique source component.
    pub fn smith_set(&self) -> Vec<ElementId> {
        if self.n == 0 {
            return vec![];
        }
        // Edge a → b when NOT beats(b, a): a is "at least as strong".
        // The Smith set is the set of elements from which every element is
        // reachable in the beats-or-ties digraph — equivalently the top
        // cycle. Iterative algorithm: start with the element with the most
        // wins; grow the set while someone outside is not beaten by
        // everyone inside.
        let wins = |a: ElementId| -> usize {
            (0..self.n as ElementId).filter(|&b| self.beats(a, b)).count()
        };
        let mut best = 0 as ElementId;
        for a in 1..self.n as ElementId {
            if wins(a) > wins(best) {
                best = a;
            }
        }
        let mut in_set = vec![false; self.n];
        in_set[best as usize] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..self.n as ElementId {
                if in_set[b as usize] {
                    continue;
                }
                // b joins if some member fails to beat b.
                let must_join = (0..self.n as ElementId)
                    .any(|a| in_set[a as usize] && !self.beats(a, b));
                if must_join {
                    in_set[b as usize] = true;
                    changed = true;
                }
            }
        }
        (0..self.n as ElementId)
            .filter(|&e| in_set[e as usize])
            .collect()
    }

    /// Checks the **extended Condorcet criterion** for a full ranking:
    /// whenever the majority digraph has `a` beating `b` *and* the pair is
    /// "partitioned" (no majority cycle involves them — we test the local
    /// form used by Dwork et al.: `a` and `b` adjacent in the candidate
    /// with the loser ahead), the candidate must not order `b` ahead of
    /// `a`. Returns the first adjacent violation, if any.
    pub fn adjacent_condorcet_violation(
        &self,
        candidate: &BucketOrder,
    ) -> Option<(ElementId, ElementId)> {
        let perm = candidate.as_permutation()?;
        for w in perm.windows(2) {
            let (x, y) = (w[0], w[1]);
            // x immediately ahead of y although a majority prefers y.
            if self.beats(y, x) {
                return Some((x, y));
            }
        }
        None
    }
}

/// Whether `candidate` ranks every Smith-set element ahead of every
/// non-Smith element — the global half of the extended Condorcet
/// criterion.
///
/// # Errors
/// [`AggregateError::DomainMismatch`].
pub fn respects_smith_set(
    graph: &MajorityGraph,
    candidate: &BucketOrder,
) -> Result<bool, AggregateError> {
    if candidate.len() != graph.len() {
        return Err(AggregateError::DomainMismatch {
            expected: graph.len(),
            found: candidate.len(),
        });
    }
    let smith = graph.smith_set();
    let in_smith = {
        let mut v = vec![false; graph.len()];
        for &e in &smith {
            v[e as usize] = true;
        }
        v
    };
    for &s in &smith {
        for e in 0..graph.len() as ElementId {
            if !in_smith[e as usize] && !candidate.prefers(s, e) {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::local_kemenize;

    fn keys(k: &[i64]) -> BucketOrder {
        BucketOrder::from_keys(k)
    }

    #[test]
    fn condorcet_winner_detection() {
        // Element 0 beats everyone in a majority of the 3 inputs.
        let inputs = vec![
            keys(&[1, 2, 3, 4]),
            keys(&[1, 3, 2, 4]),
            keys(&[4, 1, 2, 3]),
        ];
        let g = MajorityGraph::build(&inputs).unwrap();
        assert_eq!(g.condorcet_winner(), Some(0));
        assert!(g.beats(0, 1));
        assert!(!g.beats(1, 0));
        assert_eq!(g.smith_set(), vec![0]);
    }

    #[test]
    fn condorcet_cycle_has_no_winner_and_full_smith_set() {
        // Classic rock-paper-scissors profile.
        let inputs = vec![
            BucketOrder::from_permutation(&[0, 1, 2]).unwrap(),
            BucketOrder::from_permutation(&[1, 2, 0]).unwrap(),
            BucketOrder::from_permutation(&[2, 0, 1]).unwrap(),
        ];
        let g = MajorityGraph::build(&inputs).unwrap();
        assert_eq!(g.condorcet_winner(), None);
        assert_eq!(g.smith_set(), vec![0, 1, 2]);
    }

    #[test]
    fn ties_produce_no_edge() {
        let inputs = vec![keys(&[1, 1]), keys(&[1, 1])];
        let g = MajorityGraph::build(&inputs).unwrap();
        assert!(!g.beats(0, 1));
        assert!(!g.beats(1, 0));
        assert_eq!(g.condorcet_winner(), None);
        // Smith set is everything when nobody beats anybody.
        assert_eq!(g.smith_set(), vec![0, 1]);
    }

    #[test]
    fn smith_set_two_tiers() {
        // {0,1,2} cycle on top, {3,4} strictly below.
        let inputs = vec![
            BucketOrder::from_permutation(&[0, 1, 2, 3, 4]).unwrap(),
            BucketOrder::from_permutation(&[1, 2, 0, 4, 3]).unwrap(),
            BucketOrder::from_permutation(&[2, 0, 1, 3, 4]).unwrap(),
        ];
        let g = MajorityGraph::build(&inputs).unwrap();
        assert_eq!(g.condorcet_winner(), None);
        assert_eq!(g.smith_set(), vec![0, 1, 2]);
        // An order putting 3 above the Smith set violates the criterion.
        let bad = BucketOrder::from_permutation(&[3, 0, 1, 2, 4]).unwrap();
        assert!(!respects_smith_set(&g, &bad).unwrap());
        let good = BucketOrder::from_permutation(&[2, 0, 1, 3, 4]).unwrap();
        assert!(respects_smith_set(&g, &good).unwrap());
    }

    #[test]
    fn local_kemenization_removes_adjacent_violations() {
        let inputs = vec![
            keys(&[1, 2, 3, 4, 5]),
            keys(&[2, 1, 3, 5, 4]),
            keys(&[1, 3, 2, 4, 5]),
        ];
        let g = MajorityGraph::build(&inputs).unwrap();
        let start = BucketOrder::from_permutation(&[4, 3, 2, 1, 0]).unwrap();
        assert!(g.adjacent_condorcet_violation(&start).is_some());
        let fixed = local_kemenize(&start, &inputs).unwrap();
        assert_eq!(
            g.adjacent_condorcet_violation(&fixed),
            None,
            "locally Kemeny-optimal rankings satisfy the adjacent criterion"
        );
    }

    #[test]
    fn partial_candidates_have_no_adjacent_check() {
        let inputs = vec![keys(&[1, 1, 2])];
        let g = MajorityGraph::build(&inputs).unwrap();
        assert_eq!(
            g.adjacent_condorcet_violation(&BucketOrder::trivial(3)),
            None
        );
    }

    #[test]
    fn errors() {
        assert!(MajorityGraph::build(&[]).is_err());
        let g = MajorityGraph::build(&[keys(&[1, 2])]).unwrap();
        assert!(respects_smith_set(&g, &BucketOrder::trivial(3)).is_err());
        assert!(!g.is_empty());
        assert_eq!(g.len(), 2);
    }
}
