//! NRA — "No Random Access" top-k (Fagin, Lotem, Naor \[12\]), the second
//! classical algorithm of the instance-optimality framework the paper's
//! Section 6 builds on.
//!
//! NRA consumes the score lists by sorted access only (like MEDRANK, and
//! unlike TA) and maintains, for every element seen so far, a **lower
//! bound** (seen scores + 0 for unseen lists) and an **upper bound**
//! (seen scores + the current cursor score of each unseen list) on its
//! aggregate. It stops when `k` elements have lower bounds at least the
//! best upper bound of everything else. Output ranks are therefore
//! certified without a single random access — the same access discipline
//! MEDRANK uses, at the price of bound bookkeeping.

use crate::error::{check_sources, AccessError};
use crate::model::AccessStats;
use crate::ta::ScoreList;
use bucketrank_core::ElementId;

/// Result of an NRA run.
#[derive(Debug, Clone)]
pub struct NraResult {
    /// The top-k elements with their aggregate-score bounds
    /// `(element, lower, upper)`, best first by lower bound.
    pub top: Vec<(ElementId, f64, f64)>,
    /// Access accounting (sorted accesses only; `random_accesses` stays
    /// zero by construction).
    pub stats: AccessStats,
}

/// Runs NRA for the top `k` elements under the **sum** aggregate over
/// descending-sorted score lists, with sorted access only.
///
/// Scores must be non-negative (the missing-list lower bound is 0).
///
/// # Errors
/// [`AccessError::NoSources`], [`AccessError::DomainMismatch`],
/// [`AccessError::InvalidK`], or [`AccessError::NonFiniteValue`] if any
/// list contains a negative score.
pub fn nra_top_k(lists: &[ScoreList], k: usize) -> Result<NraResult, AccessError> {
    let n = check_sources(lists.iter().map(ScoreList::len), k)?;
    // Non-negativity is a precondition of the 0-lower-bound; the smallest
    // score is the last sorted entry, so this check is O(m).
    for l in lists {
        if n > 0 && l.sorted_entry(n - 1).1 < 0.0 {
            return Err(AccessError::NonFiniteValue {
                attribute: "<score list>".to_owned(),
            });
        }
    }
    let m = lists.len();
    let mut stats = AccessStats::new(m);

    // Per element: scores seen per list (NaN = unseen), count seen.
    let mut seen_score = vec![f64::NAN; n * m];
    let mut seen_any = vec![false; n];
    let mut cursor = vec![f64::INFINITY; m];

    for depth in 0..n {
        for (li, list) in lists.iter().enumerate() {
            let (e, s) = list.sorted_entry(depth);
            stats.sorted_depth[li] = depth as u64 + 1;
            cursor[li] = s;
            seen_score[e as usize * m + li] = s;
            seen_any[e as usize] = true;
        }

        // Bounds for all seen elements.
        let mut bounded: Vec<(ElementId, f64, f64)> = Vec::new();
        for e in 0..n {
            if !seen_any[e] {
                continue;
            }
            let mut lo = 0.0;
            let mut hi = 0.0;
            for li in 0..m {
                let s = seen_score[e * m + li];
                if s.is_nan() {
                    hi += cursor[li];
                } else {
                    lo += s;
                    hi += s;
                }
            }
            bounded.push((e as ElementId, lo, hi));
        }
        if bounded.len() < k {
            continue;
        }
        // Candidates: k largest lower bounds (ties by id for determinism).
        bounded.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite bounds")
                .then(a.0.cmp(&b.0))
        });
        let kth_lower = bounded[k - 1].1;
        // Threshold: the best upper bound among non-candidates, and the
        // upper bound of a completely unseen element (sum of cursors).
        let unseen_upper: f64 = cursor.iter().sum();
        let mut rival_upper = if (bounded.len() as u64) < n as u64 {
            unseen_upper
        } else {
            f64::NEG_INFINITY
        };
        for &(_, _, hi) in &bounded[k..] {
            rival_upper = rival_upper.max(hi);
        }
        if kth_lower >= rival_upper {
            bounded.truncate(k);
            return Ok(NraResult {
                top: bounded,
                stats,
            });
        }
    }
    // Exhausted all lists: bounds are exact.
    let mut bounded: Vec<(ElementId, f64, f64)> = (0..n)
        .map(|e| {
            let lo: f64 = (0..m).map(|li| seen_score[e * m + li]).sum();
            (e as ElementId, lo, lo)
        })
        .collect();
    bounded.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite bounds")
            .then(a.0.cmp(&b.0))
    });
    bounded.truncate(k);
    Ok(NraResult {
        top: bounded,
        stats,
    })
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

    fn exact_top(lists: &[ScoreList], k: usize) -> Vec<ElementId> {
        let n = lists[0].len();
        let mut v: Vec<(ElementId, f64)> = (0..n)
            .map(|e| {
                (
                    e as ElementId,
                    lists.iter().map(|l| l.score(e as ElementId)).sum(),
                )
            })
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        v.into_iter().take(k).map(|(e, _)| e).collect()
    }

    #[test]
    fn finds_exact_top_k_set() {
        let ls = lists(&[
            &[0.9, 0.5, 0.1, 0.3, 0.7],
            &[0.8, 0.6, 0.2, 0.4, 0.1],
            &[0.7, 0.9, 0.3, 0.1, 0.2],
        ]);
        for k in 1..=5 {
            let r = nra_top_k(&ls, k).unwrap();
            let got: Vec<ElementId> = r.top.iter().map(|&(e, _, _)| e).collect();
            assert_eq!(got, exact_top(&ls, k), "k = {k}");
            // Lower bounds never exceed upper bounds.
            for &(_, lo, hi) in &r.top {
                assert!(lo <= hi + 1e-12);
            }
        }
    }

    #[test]
    fn no_random_accesses_ever() {
        let ls = lists(&[&[0.5, 0.9, 0.1], &[0.4, 0.8, 0.2]]);
        let r = nra_top_k(&ls, 2).unwrap();
        assert!(r.stats.random_accesses.iter().all(|&x| x == 0));
    }

    #[test]
    fn early_termination_with_dominant_element() {
        let n = 500;
        let mut s1: Vec<f64> = (0..n).map(|i| 0.5 - i as f64 / (4 * n) as f64).collect();
        let mut s2 = s1.clone();
        s1[3] = 10.0;
        s2[3] = 10.0;
        let ls = lists(&[&s1, &s2]);
        let r = nra_top_k(&ls, 1).unwrap();
        assert_eq!(r.top[0].0, 3);
        assert!(
            r.stats.max_depth() < 20,
            "depth = {}",
            r.stats.max_depth()
        );
    }

    #[test]
    fn flat_scores_force_deep_reads_but_stay_correct() {
        let ls = lists(&[&[0.5; 6], &[0.5; 6]]);
        let r = nra_top_k(&ls, 2).unwrap();
        let got: Vec<ElementId> = r.top.iter().map(|&(e, _, _)| e).collect();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(nra_top_k(&[], 1), Err(AccessError::NoSources)));
        let a = ScoreList::from_scores(&[1.0, 2.0]).unwrap();
        let b = ScoreList::from_scores(&[1.0, 2.0, 3.0]).unwrap();
        assert!(nra_top_k(&[a.clone(), b], 1).is_err());
        assert!(nra_top_k(std::slice::from_ref(&a), 5).is_err());
        let neg = ScoreList::from_scores(&[-1.0, 0.0]).unwrap();
        assert!(nra_top_k(&[neg], 1).is_err());
    }
}
