//! The Threshold Algorithm (TA) of Fagin, Lotem and Naor \[12\], as an
//! access-cost baseline for score-based top-k over sorted lists.
//!
//! MEDRANK needs only sorted access and no numeric scores; TA is the
//! classical alternative when attribute *scores* exist and random access
//! is available. Experiment E6 compares the two on access counts, and
//! both against the full-scan cost that average-rank (Borda) aggregation
//! necessarily pays.

use crate::error::{check_sources, AccessError};
use crate::model::AccessStats;
use bucketrank_core::ElementId;

/// One scored, descending-sorted list with random access.
#[derive(Debug, Clone)]
pub struct ScoreList {
    /// `(element, score)` pairs sorted by descending score.
    sorted: Vec<(ElementId, f64)>,
    /// `score_of[e]` for random access.
    score_of: Vec<f64>,
}

impl ScoreList {
    /// Builds a list from per-element scores (higher is better).
    ///
    /// # Errors
    /// [`AccessError::NonFiniteValue`] if any score is not finite.
    pub fn from_scores(scores: &[f64]) -> Result<Self, AccessError> {
        if scores.iter().any(|s| !s.is_finite()) {
            return Err(AccessError::NonFiniteValue {
                attribute: "<score list>".to_owned(),
            });
        }
        let mut sorted: Vec<(ElementId, f64)> = scores
            .iter()
            .enumerate()
            .map(|(e, &s)| (e as ElementId, s))
            .collect();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        Ok(ScoreList {
            sorted,
            score_of: scores.to_vec(),
        })
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.score_of.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.score_of.is_empty()
    }

    /// The `(element, score)` pair at sorted-access depth `d` (0-based).
    ///
    /// # Panics
    /// Panics if `d` is out of range.
    pub fn sorted_entry(&self, d: usize) -> (ElementId, f64) {
        self.sorted[d]
    }

    /// Random access: the score of element `e`.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    pub fn score(&self, e: ElementId) -> f64 {
        self.score_of[e as usize]
    }
}

/// Result of a TA run.
#[derive(Debug, Clone)]
pub struct TaResult {
    /// Top-k `(element, aggregate_score)`, best first.
    pub top: Vec<(ElementId, f64)>,
    /// Access accounting (sorted depths and random accesses per list).
    pub stats: AccessStats,
}

/// Runs TA for the top `k` elements under the **sum** aggregate (any
/// monotone aggregate works; sum = mean up to scaling).
///
/// # Errors
/// [`AccessError::NoSources`], [`AccessError::DomainMismatch`], or
/// [`AccessError::InvalidK`].
pub fn ta_top_k(lists: &[ScoreList], k: usize) -> Result<TaResult, AccessError> {
    let n = check_sources(lists.iter().map(ScoreList::len), k)?;

    let m = lists.len();
    let mut stats = AccessStats::new(m);
    let mut seen = vec![false; n];
    // Current top-k candidates: (score, element), kept sorted descending.
    let mut top: Vec<(ElementId, f64)> = Vec::with_capacity(k + 1);
    let mut last_seen_scores = vec![f64::INFINITY; m];

    for depth in 0..n {
        for (li, list) in lists.iter().enumerate() {
            let (e, s) = list.sorted[depth];
            stats.sorted_depth[li] = depth as u64 + 1;
            last_seen_scores[li] = s;
            if !seen[e as usize] {
                seen[e as usize] = true;
                // Random-access every *other* list for e's score.
                let mut agg = 0.0;
                for (lj, other) in lists.iter().enumerate() {
                    if lj == li {
                        agg += s;
                    } else {
                        stats.random_accesses[lj] += 1;
                        agg += other.score_of[e as usize];
                    }
                }
                insert_candidate(&mut top, (e, agg), k);
            }
        }
        // Threshold: aggregate of the cursor scores.
        let threshold: f64 = last_seen_scores.iter().sum();
        if top.len() == k && top[k - 1].1 >= threshold {
            break;
        }
    }
    Ok(TaResult { top, stats })
}

fn insert_candidate(top: &mut Vec<(ElementId, f64)>, cand: (ElementId, f64), k: usize) {
    let pos = top
        .iter()
        .position(|&(e, s)| (s, std::cmp::Reverse(e)) < (cand.1, std::cmp::Reverse(cand.0)))
        .unwrap_or(top.len());
    top.insert(pos, cand);
    top.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lists(scores: &[&[f64]]) -> Vec<ScoreList> {
        scores
            .iter()
            .map(|s| ScoreList::from_scores(s).unwrap())
            .collect()
    }

    #[test]
    fn finds_the_best_aggregate() {
        let ls = lists(&[
            &[0.9, 0.5, 0.1, 0.3],
            &[0.8, 0.6, 0.2, 0.4],
            &[0.7, 0.9, 0.3, 0.1],
        ]);
        let r = ta_top_k(&ls, 1).unwrap();
        assert_eq!(r.top[0].0, 0);
        assert!((r.top[0].1 - 2.4).abs() < 1e-12);
    }

    #[test]
    fn top_k_ordering_correct() {
        let ls = lists(&[&[1.0, 0.8, 0.6, 0.4], &[0.9, 1.0, 0.5, 0.6]]);
        let r = ta_top_k(&ls, 3).unwrap();
        let exact: Vec<ElementId> = {
            let mut v: Vec<(ElementId, f64)> = (0..4)
                .map(|e| {
                    (
                        e as ElementId,
                        ls.iter().map(|l| l.score_of[e]).sum::<f64>(),
                    )
                })
                .collect();
            v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            v.into_iter().take(3).map(|(e, _)| e).collect()
        };
        let got: Vec<ElementId> = r.top.iter().map(|&(e, _)| e).collect();
        assert_eq!(got, exact);
    }

    #[test]
    fn early_termination_on_clear_winner() {
        // A single dominant element: TA should stop far before n.
        let n = 100;
        let mut s1: Vec<f64> = (0..n).map(|i| 1.0 - i as f64 / n as f64).collect();
        let mut s2 = s1.clone();
        s1[7] = 5.0;
        s2[7] = 5.0;
        let ls = lists(&[&s1, &s2]);
        let r = ta_top_k(&ls, 1).unwrap();
        assert_eq!(r.top[0].0, 7);
        assert!(r.stats.max_depth() < 10, "depth = {}", r.stats.max_depth());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(ta_top_k(&[], 1), Err(AccessError::NoSources)));
        let a = ScoreList::from_scores(&[1.0, 2.0]).unwrap();
        let b = ScoreList::from_scores(&[1.0, 2.0, 3.0]).unwrap();
        assert!(matches!(
            ta_top_k(&[a.clone(), b], 1),
            Err(AccessError::DomainMismatch { .. })
        ));
        assert!(matches!(
            ta_top_k(std::slice::from_ref(&a), 5),
            Err(AccessError::InvalidK { .. })
        ));
        assert!(ScoreList::from_scores(&[f64::NAN]).is_err());
        assert!(!a.is_empty());
    }

    #[test]
    fn ties_and_duplicates() {
        let ls = lists(&[&[0.5, 0.5, 0.5], &[0.5, 0.5, 0.5]]);
        let r = ta_top_k(&ls, 2).unwrap();
        assert_eq!(r.top.len(), 2);
        // Deterministic id tie-break.
        assert_eq!(r.top[0].0, 0);
        assert_eq!(r.top[1].0, 1);
    }
}
