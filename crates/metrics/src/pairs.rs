//! The five pair statistics underlying every Kendall-flavored metric.
//!
//! For each unordered pair `{i, j}` of distinct elements and two bucket
//! orders `σ`, `τ`, exactly one of the following holds:
//!
//! * **concordant** — different buckets in both, same relative order;
//! * **discordant** — different buckets in both, opposite order (the
//!   paper's set `U` in Proposition 6);
//! * **tied in both** — same bucket in `σ` *and* in `τ`;
//! * **tied only in `σ`** — the paper's set `S`;
//! * **tied only in `τ`** — the paper's set `T`.
//!
//! Every metric in the `K` family is a linear functional of these counts:
//! `K = discordant` (full rankings), `K^(p) = discordant + p(|S|+|T|)`,
//! `Kprof = discordant + (|S|+|T|)/2`, `Kavg = Kprof + tied_both/2`,
//! `KHaus = discordant + max(|S|,|T|)`, and the classical association
//! coefficients (gamma, tau-b) are ratios of them.

use crate::error::check_same_domain;
use crate::MetricsError;
use bucketrank_core::alg::Fenwick;
use bucketrank_core::{BucketOrder, ElementId};

/// Counts of the five pair categories between two bucket orders. See the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairCounts {
    /// Pairs in different buckets in both orders, in the same order.
    pub concordant: u64,
    /// Pairs in different buckets in both orders, in opposite order (`|U|`).
    pub discordant: u64,
    /// Pairs tied (same bucket) in both orders.
    pub tied_both: u64,
    /// Pairs tied in the left order only (`|S|`).
    pub tied_left_only: u64,
    /// Pairs tied in the right order only (`|T|`).
    pub tied_right_only: u64,
}

impl PairCounts {
    /// Total number of unordered pairs, `n(n−1)/2`.
    pub fn total(&self) -> u64 {
        self.concordant
            + self.discordant
            + self.tied_both
            + self.tied_left_only
            + self.tied_right_only
    }

    /// Pairs tied in exactly one of the two orders, `|S| + |T|`.
    pub fn tied_exactly_one(&self) -> u64 {
        self.tied_left_only + self.tied_right_only
    }
}

/// Computes the pair statistics in `O(n log n)` (sort + Fenwick tree).
///
/// # Errors
/// [`MetricsError::DomainMismatch`] if the orders differ in domain size.
pub fn pair_counts(sigma: &BucketOrder, tau: &BucketOrder) -> Result<PairCounts, MetricsError> {
    check_same_domain(sigma, tau)?;
    let n = sigma.len();
    let total = (n as u64) * (n as u64 - if n == 0 { 0 } else { 1 }) / 2;
    if n < 2 {
        return Ok(PairCounts::default());
    }

    // Tied-pair counts within each order.
    let tied = |o: &BucketOrder| -> u64 {
        o.buckets()
            .iter()
            .map(|b| {
                let s = b.len() as u64;
                s * (s - 1) / 2
            })
            .sum()
    };
    let tied_left = tied(sigma);
    let tied_right = tied(tau);

    // Pairs tied in both: group elements by (σ-bucket, τ-bucket).
    let mut cells: Vec<(u32, u32)> = (0..n as ElementId)
        .map(|e| (sigma.bucket_index(e) as u32, tau.bucket_index(e) as u32))
        .collect();
    cells.sort_unstable();
    let mut tied_both = 0u64;
    let mut run = 1u64;
    for w in 1..cells.len() {
        if cells[w] == cells[w - 1] {
            run += 1;
        } else {
            tied_both += run * (run - 1) / 2;
            run = 1;
        }
    }
    tied_both += run * (run - 1) / 2;

    // Discordant pairs: sort by (σ-bucket, τ-bucket) ascending; strict
    // inversions in the τ-bucket sequence are exactly the pairs ordered
    // oppositely (σ-ties sort together in τ order, contributing none;
    // τ-ties never count as inversions).
    let mut fw = Fenwick::new(tau.num_buckets());
    let mut discordant = 0u64;
    for &(_, tb) in &cells {
        discordant += fw.suffix_sum(tb as usize + 1);
        fw.add(tb as usize, 1);
    }

    let tied_left_only = tied_left - tied_both;
    let tied_right_only = tied_right - tied_both;
    let concordant = total - discordant - tied_both - tied_left_only - tied_right_only;
    Ok(PairCounts {
        concordant,
        discordant,
        tied_both,
        tied_left_only,
        tied_right_only,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bucketrank_core::consistent::all_bucket_orders;

    fn bo(n: usize, buckets: Vec<Vec<ElementId>>) -> BucketOrder {
        BucketOrder::from_buckets(n, buckets).unwrap()
    }

    #[test]
    fn identical_orders() {
        let s = bo(4, vec![vec![0, 1], vec![2], vec![3]]);
        let c = pair_counts(&s, &s).unwrap();
        assert_eq!(c.discordant, 0);
        assert_eq!(c.tied_both, 1);
        assert_eq!(c.tied_exactly_one(), 0);
        assert_eq!(c.concordant, 5);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn reversed_full_rankings_all_discordant() {
        let s = BucketOrder::identity(5);
        let c = pair_counts(&s, &s.reverse()).unwrap();
        assert_eq!(c.discordant, 10);
        assert_eq!(c.concordant, 0);
    }

    #[test]
    fn paper_proposition6_sets() {
        // σ = [0 1 | 2 3], τ = [0 | 1 | 2 3]
        let s = bo(4, vec![vec![0, 1], vec![2, 3]]);
        let t = bo(4, vec![vec![0], vec![1], vec![2, 3]]);
        let c = pair_counts(&s, &t).unwrap();
        assert_eq!(c.tied_left_only, 1); // {0,1}
        assert_eq!(c.tied_right_only, 0);
        assert_eq!(c.tied_both, 1); // {2,3}
        assert_eq!(c.discordant, 0);
        assert_eq!(c.concordant, 4);
    }

    #[test]
    fn tiny_domains() {
        let e = BucketOrder::trivial(0);
        assert_eq!(pair_counts(&e, &e).unwrap(), PairCounts::default());
        let one = BucketOrder::trivial(1);
        assert_eq!(pair_counts(&one, &one).unwrap(), PairCounts::default());
    }

    #[test]
    fn asymmetry_swaps_s_and_t() {
        let orders = all_bucket_orders(4);
        for a in &orders {
            for b in &orders {
                let ab = pair_counts(a, b).unwrap();
                let ba = pair_counts(b, a).unwrap();
                assert_eq!(ab.tied_left_only, ba.tied_right_only);
                assert_eq!(ab.discordant, ba.discordant);
                assert_eq!(ab.concordant, ba.concordant);
                assert_eq!(ab.tied_both, ba.tied_both);
            }
        }
    }
}
