//! Branch-and-bound exact aggregation: the crate's one exact search.
//!
//! [`crate::exact::kemeny_optimal_full`] (Held–Karp) is exact but pays
//! `O(2ⁿ)` memory, capping out around `n = 18`. This module searches the
//! space of prefixes depth-first instead, and serves two objectives over
//! the same per-voter `Kprof ×2` pair costs: the sum (Kemeny,
//! [`kemeny_optimal_bb`]) and the max
//! ([`crate::minmax::minmax_optimal_bb`], optionally under
//! [`ClassConstraints`]). They differ only in how voters are combined,
//! so the search tracks a set of **lanes**, each with its own pair
//! costs `c(x, y)` (the cost of ranking `x` strictly ahead of `y`):
//!
//! * Kemeny is one lane read from the [`ProfileTally`]:
//!   `c(x, y) = pair_cost_x2(x, y)`, summed over all voters;
//! * minmax is one lane per voter, with that voter's own pair costs.
//!
//! A lane's final cost is at least its cost on the fixed prefix plus,
//! for every unplaced pair, the pair's floor `min(c(a, b), c(b, a))`
//! (for one voter: 1 for a tied pair, 0 otherwise). Placing `e` next
//! raises that by `e`'s **excess** over the floor against every
//! unplaced `u`, `c(e, u) − min(c(e, u), c(u, e))`. Each lane keeps its
//! bound in `lb` and each element's summed excess in `pending`, so a
//! candidate's bound is the max over lanes of `lb + pending` (O(1) for
//! Kemeny, O(m) for minmax) and a placement is one pass over the
//! placed element's excess row. A node dies when its bound reaches the
//! incumbent, and children expand cheapest bound first so the incumbent
//! tightens early. For Kemeny this is the pairwise lower bound of
//! [`crate::exact::kprof_lower_bound_x2`] restricted to full-ranking
//! outputs.
//!
//! Both solvers warm-start from a heuristic: KwikSort best-of-8 plus
//! local Kemenization for Kemeny, [`crate::minmax::minmax_aggregate`]
//! for minmax. On cohesive profiles (the realistic regime) the Kemeny
//! search solves `n = 25+` instances in milliseconds; on adversarial
//! profiles it degrades toward exponential like any exact Kemeny solver
//! (the problem is NP-hard).

use crate::error::check_inputs;
use crate::kwiksort::kwiksort_best_of;
use crate::local::local_kemenize_with_tally;
use crate::minmax::{check_feasible, ClassConstraints};
use crate::tally::ProfileTally;
use crate::AggregateError;
use bucketrank_core::{BucketOrder, ElementId};
use std::ops::{AddAssign, SubAssign};

/// Hard cap on the domain size accepted (beyond this even well-pruned
/// searches can blow up).
pub const MAX_BB_N: usize = 40;

/// Statistics from a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BbStats {
    /// Search nodes expanded.
    pub nodes: u64,
    /// Nodes pruned by the lower bound.
    pub pruned: u64,
}

/// Exact Kemeny (optimal **full ranking** under the `Kprof` objective)
/// by branch and bound. Returns `(optimum, cost_x2, stats)`.
///
/// # Errors
/// [`AggregateError::DomainTooLarge`] beyond [`MAX_BB_N`];
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn kemeny_optimal_bb(
    inputs: &[BucketOrder],
) -> Result<(BucketOrder, u64, BbStats), AggregateError> {
    solve(inputs, MAX_BB_N, None, |n| {
        let tally = ProfileTally::build(inputs)?;
        // Warm start: best of KwikSort restarts, locally Kemenized.
        let warm = local_kemenize_with_tally(&kwiksort_best_of(inputs, 0xBB, 8)?, &tally)?;
        let cost = tally.kemeny_cost_x2(&warm)?;
        let lanes = Lanes::<u64>::new(n, 1, |_, x, y| tally.pair_cost_x2(x, y));
        Ok((warm, cost, lanes))
    })
}

/// The shared entry of both exact solvers: validates the profile, the
/// size cap and the constraints (before the empty-domain shortcut, so
/// a bad rule set is rejected at any `n`), then runs the search from
/// the incumbent and lanes that `setup(n)` returns.
pub(crate) fn solve<P: LaneSum>(
    inputs: &[BucketOrder],
    max_n: usize,
    cons: Option<&ClassConstraints>,
    setup: impl FnOnce(usize) -> Result<(BucketOrder, u64, Lanes<P>), AggregateError>,
) -> Result<(BucketOrder, u64, BbStats), AggregateError> {
    let n = check_inputs(inputs)?;
    if n > max_n {
        return Err(AggregateError::DomainTooLarge { n, max: max_n });
    }
    check_feasible(n, cons)?;
    let stats = BbStats {
        nodes: 0,
        pruned: 0,
    };
    if n == 0 {
        return Ok((BucketOrder::trivial(0), 0, stats));
    }
    let (warm, best_cost, lanes) = setup(n)?;
    let mut search = Search {
        n,
        lanes,
        cons,
        prefix: Vec::with_capacity(n),
        in_prefix: vec![false; n],
        placed: vec![0u32; cons.map_or(0, ClassConstraints::class_count)],
        best_perm: warm.as_permutation().expect("warm starts are full rankings"),
        best_cost,
        stats,
    };
    search.dfs();
    let order = BucketOrder::from_permutation(&search.best_perm).expect("permutation preserved");
    Ok((order, search.best_cost, search.stats))
}

/// The integer a lane's excesses are kept in: `u32` where the sums are
/// small (one voter's is at most `2(n − 1)`), `u64` where they are not
/// (a Kemeny lane's reaches `2m(n − 1)`). Narrow cells halve the
/// placement pass's traffic.
pub(crate) trait LaneSum: Copy + From<u32> + Into<u64> + AddAssign + SubAssign {}
impl LaneSum for u32 {}
impl LaneSum for u64 {}

/// The search's bound state: `width` lanes over `n` elements.
pub(crate) struct Lanes<P> {
    width: usize,
    /// `beats[(a*n + u)*width + l]`: lane `l`'s excess of `u` over the
    /// pair floor against `a`, `c(u, a) − min(c(a, u), c(u, a))` — the
    /// share of `u`'s pending penalty that leaves when `a` is placed.
    beats: Vec<P>,
    /// Per-lane lower bound: the cost of the fixed prefix plus the
    /// floors of the pairs wholly inside the unplaced set. At a leaf it
    /// is the lane's cost.
    lb: Vec<u64>,
    /// `pending[e*width + l]`: lane `l`'s summed excess of `e` against
    /// the unplaced set (kept for placed `e` too, never read).
    pending: Vec<P>,
}

impl<P: LaneSum> Lanes<P> {
    /// Builds the lanes from `cost(l, x, y)`, lane `l`'s ×2 cost of
    /// ranking `x` strictly ahead of `y`. A pair's excess is at most
    /// `2m`, which fits `u32` under the tally's voter cap.
    pub(crate) fn new(
        n: usize,
        width: usize,
        cost: impl Fn(usize, ElementId, ElementId) -> u32,
    ) -> Self {
        let mut beats = vec![P::from(0); n * n * width];
        let mut lb = vec![0u64; width];
        let mut pending = vec![P::from(0); n * width];
        for a in 0..n {
            for u in (0..n).filter(|&u| u != a) {
                let (ae, ue) = (a as ElementId, u as ElementId);
                for l in 0..width {
                    let (au, ua) = (cost(l, ae, ue), cost(l, ue, ae));
                    let floor = au.min(ua);
                    let excess = ua - floor;
                    beats[(a * n + u) * width + l] = P::from(excess);
                    pending[u * width + l] += P::from(excess);
                    if a < u {
                        lb[l] += u64::from(floor);
                    }
                }
            }
        }
        Lanes {
            width,
            beats,
            lb,
            pending,
        }
    }

    /// The bound of placing `e` next: the max over lanes of `lb` plus
    /// `e`'s pending penalty.
    fn bound(&self, e: usize) -> u64 {
        let pending = &self.pending[e * self.width..(e + 1) * self.width];
        self.lb
            .iter()
            .zip(pending)
            .map(|(&l, &p)| l + p.into())
            .max()
            .unwrap_or(0)
    }

    /// Places `e` next: its pending penalty joins `lb`, and its `beats`
    /// row leaves every element's pending penalty. (Its own penalty is
    /// untouched by its own row, so [`Self::unplace`] reads the same.)
    fn place(&mut self, e: usize) {
        let w = self.width;
        let nw = self.pending.len();
        for (l, &p) in self.lb.iter_mut().zip(&self.pending[e * w..(e + 1) * w]) {
            *l += p.into();
        }
        let row = &self.beats[e * nw..(e + 1) * nw];
        for (p, &b) in self.pending.iter_mut().zip(row) {
            *p -= b;
        }
    }

    /// Undoes [`Self::place`].
    fn unplace(&mut self, e: usize) {
        let w = self.width;
        let nw = self.pending.len();
        let row = &self.beats[e * nw..(e + 1) * nw];
        for (p, &b) in self.pending.iter_mut().zip(row) {
            *p += b;
        }
        for (l, &p) in self.lb.iter_mut().zip(&self.pending[e * w..(e + 1) * w]) {
            *l -= p.into();
        }
    }
}

/// The prefix DFS: the lanes' bound plus the class-constraint hooks.
struct Search<'a, P> {
    n: usize,
    lanes: Lanes<P>,
    cons: Option<&'a ClassConstraints>,
    prefix: Vec<ElementId>,
    in_prefix: Vec<bool>,
    /// Per-dense-class prefix counts (empty when unconstrained).
    placed: Vec<u32>,
    best_perm: Vec<ElementId>,
    best_cost: u64,
    stats: BbStats,
}

impl<P: LaneSum> Search<'_, P> {
    fn dfs(&mut self) {
        self.stats.nodes += 1;
        let depth = self.prefix.len();
        if depth == self.n {
            let total = self.lanes.lb.iter().copied().max().unwrap_or(0);
            if total < self.best_cost {
                self.best_cost = total;
                self.best_perm = self.prefix.clone();
            }
            return;
        }
        // Candidate next elements, cheapest optimistic bound first.
        let mut cands = [(0u64, 0 as ElementId); MAX_BB_N];
        let mut k = 0;
        for e in 0..self.n {
            if self.in_prefix[e] {
                continue;
            }
            if let Some(cc) = self.cons {
                if cc.cap_blocked(&self.placed, e, depth) {
                    self.stats.pruned += 1;
                    continue;
                }
            }
            let bound = self.lanes.bound(e);
            if bound >= self.best_cost {
                self.stats.pruned += 1;
                continue;
            }
            cands[k] = (bound, e as ElementId);
            k += 1;
        }
        cands[..k].sort_unstable();
        for &(bound, e) in &cands[..k] {
            // Recheck: the incumbent may have improved since collection.
            if bound >= self.best_cost {
                self.stats.pruned += 1;
                continue;
            }
            self.lanes.place(e as usize);
            self.prefix.push(e);
            self.in_prefix[e as usize] = true;
            let mut ok = true;
            if let Some(cc) = self.cons {
                self.placed[cc.class_index(e as usize)] += 1;
                ok = cc.windows_ok(&self.placed, depth + 1);
            }
            if ok {
                self.dfs();
            } else {
                self.stats.pruned += 1;
            }
            if let Some(cc) = self.cons {
                self.placed[cc.class_index(e as usize)] -= 1;
            }
            self.in_prefix[e as usize] = false;
            self.prefix.pop();
            self.lanes.unplace(e as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{total_cost_x2, AggMetric};
    use crate::exact::kemeny_optimal_full;
    use bucketrank_core::BucketOrder;

    fn lcg_profile(seed: u64, n: usize, m: usize, levels: u64) -> Vec<BucketOrder> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut next = move |md: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % md
        };
        (0..m)
            .map(|_| {
                let ks: Vec<i64> = (0..n).map(|_| next(levels) as i64).collect();
                BucketOrder::from_keys(&ks)
            })
            .collect()
    }

    #[test]
    fn matches_held_karp_on_random_profiles() {
        for seed in 0..15u64 {
            let n = 4 + (seed % 6) as usize; // 4..=9
            let inputs = lcg_profile(seed, n, 5, 4);
            let (_, hk_cost) = kemeny_optimal_full(&inputs).unwrap();
            let (order, bb_cost, _) = kemeny_optimal_bb(&inputs).unwrap();
            assert_eq!(bb_cost, hk_cost, "seed {seed}");
            assert_eq!(
                total_cost_x2(AggMetric::KProf, &order, &inputs).unwrap(),
                bb_cost
            );
        }
    }

    #[test]
    fn scales_past_held_karp_on_cohesive_profiles() {
        // n = 24 with strongly correlated voters: pruning keeps this tiny.
        let reference: Vec<u32> = (0..24).collect();
        let mut inputs = Vec::new();
        for shift in 0..5usize {
            let mut perm = reference.clone();
            // A couple of local swaps per voter.
            perm.swap(shift, shift + 1);
            perm.swap(shift + 10, shift + 11);
            inputs.push(BucketOrder::from_permutation(&perm).unwrap());
        }
        let (order, cost, stats) = kemeny_optimal_bb(&inputs).unwrap();
        assert!(order.is_full());
        // Sanity: the reference itself is a candidate; optimum can't cost
        // more than the reference's cost.
        let ref_cost = total_cost_x2(
            AggMetric::KProf,
            &BucketOrder::from_permutation(&reference).unwrap(),
            &inputs,
        )
        .unwrap();
        assert!(cost <= ref_cost);
        assert!(stats.nodes < 2_000_000, "nodes = {}", stats.nodes);
    }

    #[test]
    fn warm_start_already_optimal_terminates_fast() {
        let s = BucketOrder::from_permutation(&[3, 1, 0, 2]).unwrap();
        let inputs = vec![s.clone(); 4];
        let (order, cost, _) = kemeny_optimal_bb(&inputs).unwrap();
        assert_eq!(order, s);
        assert_eq!(cost, 0);
    }

    #[test]
    fn errors() {
        assert!(kemeny_optimal_bb(&[]).is_err());
        let huge = BucketOrder::trivial(MAX_BB_N + 1);
        assert!(matches!(
            kemeny_optimal_bb(std::slice::from_ref(&huge)),
            Err(AggregateError::DomainTooLarge { .. })
        ));
        let empty = BucketOrder::trivial(0);
        let (o, c, _) = kemeny_optimal_bb(std::slice::from_ref(&empty)).unwrap();
        assert!(o.is_empty());
        assert_eq!(c, 0);
    }
}
