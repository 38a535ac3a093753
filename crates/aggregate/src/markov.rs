//! The Markov-chain rank-aggregation heuristics MC1–MC4 of Dwork, Kumar,
//! Naor and Sivakumar (WWW 2001), adapted to partial rankings.
//!
//! These are the "more sophisticated heuristics … based on matchings and
//! Markov chains" the paper contrasts with the median algorithm
//! (Section 1): they can produce good aggregations but are not
//! database-friendly — they need the full pairwise preference structure up
//! front. We implement them as quality baselines for experiment E8.
//!
//! Each chain has state space `D`; transitions go from the current
//! element `u` toward elements that beat it in the inputs. With ties,
//! "`v` is ranked higher than `u` by `σ`" means `σ(v) < σ(u)` strictly.
//! The stationary distribution (computed by power iteration on an
//! ε-smoothed chain, which is ergodic) orders the elements: higher
//! stationary mass = better rank.

use crate::error::check_inputs;
use crate::tally::ProfileTally;
use crate::AggregateError;
use bucketrank_core::{BucketOrder, ElementId};

/// Which of the four chains of Dwork et al. to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarkovChain {
    /// MC1: from `u`, pick a uniformly random `(σ, v)` with `σ(v) ≤ σ(u)`
    /// … here: move to a uniformly random element among those ranked at
    /// least as high as `u` by a uniformly random input.
    Mc1,
    /// MC2: pick a random input `σ`, then a uniform `v` with
    /// `σ(v) ≤ σ(u)`.
    Mc2,
    /// MC3: pick a random input `σ` and a uniform `v`; move if
    /// `σ(v) < σ(u)`, else stay.
    Mc3,
    /// MC4: pick a uniform `v`; move if a strict majority of the inputs
    /// rank `v` higher than `u`, else stay.
    Mc4,
}

impl MarkovChain {
    /// All four chains, for sweeps.
    pub const ALL: [MarkovChain; 4] = [
        MarkovChain::Mc1,
        MarkovChain::Mc2,
        MarkovChain::Mc3,
        MarkovChain::Mc4,
    ];

    /// Printable name.
    pub fn name(self) -> &'static str {
        match self {
            MarkovChain::Mc1 => "MC1",
            MarkovChain::Mc2 => "MC2",
            MarkovChain::Mc3 => "MC3",
            MarkovChain::Mc4 => "MC4",
        }
    }
}

/// Options for the stationary-distribution computation.
#[derive(Debug, Clone, Copy)]
pub struct MarkovOptions {
    /// Teleportation weight mixed in to guarantee ergodicity (as in
    /// PageRank); `0.05` is a reasonable default.
    pub epsilon: f64,
    /// Maximum power-iteration steps.
    pub max_iters: usize,
    /// `L1` convergence tolerance.
    pub tolerance: f64,
}

impl Default for MarkovOptions {
    fn default() -> Self {
        MarkovOptions {
            epsilon: 0.05,
            max_iters: 200,
            tolerance: 1e-12,
        }
    }
}

/// Runs the chosen Markov chain and returns the aggregate ranking
/// (descending stationary probability; near-equal probabilities are *not*
/// tied — the output is a full ranking with id tie-breaks).
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn markov_aggregate(
    inputs: &[BucketOrder],
    chain: MarkovChain,
    opts: MarkovOptions,
) -> Result<BucketOrder, AggregateError> {
    let pi = stationary_distribution(inputs, chain, opts)?;
    // Rank by stationary mass, descending; quantize to avoid float-noise
    // ordering artifacts, then break residual ties by element id.
    let n = pi.len();
    let mut ids: Vec<ElementId> = (0..n as ElementId).collect();
    ids.sort_by(|&a, &b| {
        pi[b as usize]
            .partial_cmp(&pi[a as usize])
            .expect("stationary probabilities are finite")
            .then(a.cmp(&b))
    });
    Ok(BucketOrder::from_permutation(&ids).expect("ids form a permutation"))
}

/// The stationary distribution of the chosen chain (ε-smoothed), indexed
/// by element id.
///
/// # Errors
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn stationary_distribution(
    inputs: &[BucketOrder],
    chain: MarkovChain,
    opts: MarkovOptions,
) -> Result<Vec<f64>, AggregateError> {
    let n = check_inputs(inputs)?;
    if n == 0 {
        return Ok(vec![]);
    }
    let p = transition_matrix(inputs, chain, n);
    // Power iteration on π ← (1−ε)·πP + ε·uniform.
    let mut pi = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..opts.max_iters {
        next.fill(opts.epsilon / n as f64);
        for u in 0..n {
            let mass = (1.0 - opts.epsilon) * pi[u];
            for v in 0..n {
                next[v] += mass * p[u * n + v];
            }
        }
        let diff: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut next);
        if diff < opts.tolerance {
            break;
        }
    }
    Ok(pi)
}

/// Builds the row-stochastic transition matrix of the chain.
fn transition_matrix(inputs: &[BucketOrder], chain: MarkovChain, n: usize) -> Vec<f64> {
    let m = inputs.len() as f64;
    // MC4's transition condition is a pure function of the pairwise
    // tally; building it once replaces the O(m·n) `prefers()` scan the
    // old code repeated per transition-row entry (O(m·n²) per state).
    let tally = match chain {
        MarkovChain::Mc4 => {
            Some(ProfileTally::build(inputs).expect("inputs validated by caller"))
        }
        _ => None,
    };
    let mut p = vec![0.0f64; n * n];
    for u in 0..n as ElementId {
        let row = &mut p[u as usize * n..(u as usize + 1) * n];
        match chain {
            MarkovChain::Mc1 => {
                // Uniform over the multiset union of {v : σ(v) ≤ σ(u)}.
                let mut weights = vec![0.0f64; n];
                let mut total = 0.0;
                for s in inputs {
                    for v in 0..n as ElementId {
                        if s.position(v) <= s.position(u) {
                            weights[v as usize] += 1.0;
                            total += 1.0;
                        }
                    }
                }
                for v in 0..n {
                    row[v] = weights[v] / total;
                }
            }
            MarkovChain::Mc2 => {
                // Pick σ uniformly, then uniform v with σ(v) ≤ σ(u).
                for s in inputs {
                    let ahead: Vec<ElementId> = (0..n as ElementId)
                        .filter(|&v| s.position(v) <= s.position(u))
                        .collect();
                    let w = 1.0 / (m * ahead.len() as f64);
                    for v in ahead {
                        row[v as usize] += w;
                    }
                }
            }
            MarkovChain::Mc3 => {
                // Pick σ and v uniformly; move iff σ(v) < σ(u).
                for s in inputs {
                    for v in 0..n as ElementId {
                        if s.position(v) < s.position(u) {
                            row[v as usize] += 1.0 / (m * n as f64);
                        }
                    }
                }
                let moved: f64 = row.iter().sum();
                row[u as usize] += 1.0 - moved;
            }
            MarkovChain::Mc4 => {
                let t = tally.as_ref().expect("tally built for MC4");
                mc4_row_into(t, u, row);
            }
        }
    }
    p
}

/// Writes MC4's transition row for state `u` into `row` (length `n`):
/// pick `v` uniformly; move iff a strict majority prefers `v` — the
/// whole column `u` of majority tests comes from one stride-`n` walk
/// down the tally's strict matrix
/// ([`ProfileTally::strict_majorities_against`]). Written branchless:
/// the majority bit is data, not control, so the ~50% unpredictable
/// branch per entry disappears.
fn mc4_row_into(t: &ProfileTally, u: ElementId, row: &mut [f64]) {
    let n = t.len();
    let inv = 1.0 / n as f64;
    let mut moved = 0usize;
    for (v, wins) in t.strict_majorities_against(u).enumerate() {
        let go = wins & (v != u as usize);
        row[v] = f64::from(go as u8) * inv;
        moved += go as usize;
    }
    row[u as usize] = 1.0 - moved as f64 * inv;
}

/// The full MC4 transition matrix (row-major, row-stochastic) from a
/// prebuilt pairwise tally — e.g. a [`crate::dynamic::DynamicSnapshot`]'s.
/// MC4's row for state `u` is a pure function of the tally's row `u`,
/// which is what makes it maintainable under the dynamic engine's
/// dirty-row contract (see [`refresh_mc4_rows`]).
pub fn mc4_transition_matrix(tally: &ProfileTally) -> Vec<f64> {
    let n = tally.len();
    let mut p = vec![0.0f64; n * n];
    for u in 0..n as ElementId {
        mc4_row_into(tally, u, &mut p[u as usize * n..(u as usize + 1) * n]);
    }
    p
}

/// Recomputes in place only the MC4 transition rows named in `rows` —
/// the dirty-row consumer hook for [`crate::dynamic`]: refreshing the
/// rows drained by `DynamicProfile::take_dirty` after an edit leaves
/// `p` equal to a full [`mc4_transition_matrix`] rebuild.
///
/// # Errors
/// [`AggregateError::DomainMismatch`] if `p` is not an `n × n` matrix
/// for the tally's domain.
pub fn refresh_mc4_rows(
    tally: &ProfileTally,
    p: &mut [f64],
    rows: &[ElementId],
) -> Result<(), AggregateError> {
    let n = tally.len();
    if p.len() != n * n {
        return Err(AggregateError::DomainMismatch {
            expected: n * n,
            found: p.len(),
        });
    }
    for &u in rows {
        mc4_row_into(tally, u, &mut p[u as usize * n..(u as usize + 1) * n]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(k: &[i64]) -> BucketOrder {
        BucketOrder::from_keys(k)
    }

    #[test]
    fn mc4_matrix_from_tally_matches_batch_build() {
        let inputs = vec![keys(&[1, 1, 2, 3]), keys(&[3, 2, 2, 1]), keys(&[2, 1, 3, 1])];
        let tally = ProfileTally::build(&inputs).unwrap();
        assert_eq!(
            mc4_transition_matrix(&tally),
            transition_matrix(&inputs, MarkovChain::Mc4, 4)
        );
    }

    #[test]
    fn refresh_mc4_rows_matches_full_rebuild() {
        let before = vec![keys(&[1, 2, 3, 4]), keys(&[2, 1, 4, 3]), keys(&[1, 1, 2, 2])];
        let after = vec![keys(&[1, 2, 3, 4]), keys(&[2, 1, 4, 3]), keys(&[2, 1, 3, 2])];
        let old_tally = ProfileTally::build(&before).unwrap();
        let new_tally = ProfileTally::build(&after).unwrap();
        let mut p = mc4_transition_matrix(&old_tally);
        refresh_mc4_rows(&new_tally, &mut p, &[0, 1, 2, 3]).unwrap();
        assert_eq!(p, mc4_transition_matrix(&new_tally));
        let mut wrong = vec![0.0; 9];
        assert!(matches!(
            refresh_mc4_rows(&new_tally, &mut wrong, &[0]),
            Err(AggregateError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn unanimous_inputs_recovered_by_all_chains() {
        let s = BucketOrder::from_permutation(&[2, 0, 3, 1]).unwrap();
        let inputs = vec![s.clone(), s.clone(), s.clone()];
        for chain in MarkovChain::ALL {
            let out = markov_aggregate(&inputs, chain, MarkovOptions::default()).unwrap();
            assert_eq!(
                out.as_permutation(),
                s.as_permutation(),
                "{} failed",
                chain.name()
            );
        }
    }

    #[test]
    fn rows_are_stochastic() {
        let inputs = vec![keys(&[1, 1, 2, 3]), keys(&[3, 2, 2, 1]), keys(&[2, 1, 3, 1])];
        for chain in MarkovChain::ALL {
            let p = transition_matrix(&inputs, chain, 4);
            for u in 0..4 {
                let row_sum: f64 = p[u * 4..(u + 1) * 4].iter().sum();
                assert!(
                    (row_sum - 1.0).abs() < 1e-9,
                    "{} row {u} sums to {row_sum}",
                    chain.name()
                );
                assert!(p[u * 4..(u + 1) * 4].iter().all(|&x| x >= 0.0));
            }
        }
    }

    #[test]
    fn stationary_sums_to_one() {
        let inputs = vec![keys(&[1, 2, 3]), keys(&[2, 3, 1]), keys(&[3, 1, 2])];
        for chain in MarkovChain::ALL {
            let pi = stationary_distribution(&inputs, chain, MarkovOptions::default()).unwrap();
            let total: f64 = pi.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{}", chain.name());
        }
    }

    #[test]
    fn mc4_condorcet_winner_tops() {
        // Element 0 beats everyone pairwise in a majority of inputs.
        let inputs = vec![
            keys(&[1, 2, 3, 4]),
            keys(&[1, 3, 4, 2]),
            keys(&[2, 1, 4, 3]),
        ];
        let out = markov_aggregate(&inputs, MarkovChain::Mc4, MarkovOptions::default()).unwrap();
        assert_eq!(out.bucket_index(0), 0);
    }

    #[test]
    fn handles_ties_gracefully() {
        let inputs = vec![BucketOrder::trivial(3), keys(&[1, 2, 3])];
        for chain in MarkovChain::ALL {
            let out = markov_aggregate(&inputs, chain, MarkovOptions::default()).unwrap();
            assert!(out.is_full());
        }
    }

    #[test]
    fn errors() {
        assert!(markov_aggregate(&[], MarkovChain::Mc4, MarkovOptions::default()).is_err());
    }
}
