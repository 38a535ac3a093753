//! Sorted-access cursors and access accounting.
//!
//! The model of \[11\]/\[12\] as used in Section 6: each input partial
//! ranking is available only through *sorted access* — a cursor that
//! yields elements in rank order, one per access, without revealing
//! anything about elements not yet delivered. The cost of an algorithm is
//! the number of accesses it performs; an algorithm is instance-optimal
//! if on every instance its cost is within a constant factor of the best
//! possible for that instance.
//!
//! Ties are delivered bucket by bucket; within a bucket the delivery
//! order is ascending element id (an arbitrary-but-deterministic full
//! refinement, which is all a sequential-access client can observe).

use bucketrank_core::{BucketOrder, ElementId};

/// Access counters for a multi-source run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Sorted-access depth reached in each source.
    pub sorted_depth: Vec<u64>,
    /// Random accesses per source (zero for pure sorted-access
    /// algorithms like MEDRANK).
    pub random_accesses: Vec<u64>,
}

impl AccessStats {
    /// Creates zeroed counters for `m` sources.
    pub fn new(m: usize) -> Self {
        AccessStats {
            sorted_depth: vec![0; m],
            random_accesses: vec![0; m],
        }
    }

    /// Total accesses of both kinds across all sources.
    pub fn total_accesses(&self) -> u64 {
        self.sorted_depth.iter().sum::<u64>() + self.random_accesses.iter().sum::<u64>()
    }

    /// The maximum sorted depth over the sources — the number of
    /// round-robin rounds a synchronized algorithm performed.
    pub fn max_depth(&self) -> u64 {
        self.sorted_depth.iter().copied().max().unwrap_or(0)
    }
}

/// A sorted-access cursor over a [`BucketOrder`].
///
/// ```
/// use bucketrank_access::RankingCursor;
/// use bucketrank_core::BucketOrder;
///
/// let s = BucketOrder::from_buckets(4, vec![vec![2], vec![0, 3], vec![1]]).unwrap();
/// let mut c = RankingCursor::new(&s);
/// assert_eq!(c.next(), Some(2));
/// assert_eq!(c.next(), Some(0)); // tie delivered in id order
/// assert_eq!(c.depth(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RankingCursor<'a> {
    order: &'a BucketOrder,
    depth: u64,
}

impl<'a> RankingCursor<'a> {
    /// Opens a cursor at the top of the ranking.
    pub fn new(order: &'a BucketOrder) -> Self {
        RankingCursor { order, depth: 0 }
    }

    /// Delivers the next element in rank order (ties by ascending id),
    /// or `None` when the ranking is exhausted. Each delivery costs one
    /// sorted access.
    #[allow(clippy::should_implement_trait)] // deliberate: not an Iterator, accesses have cost
    pub fn next(&mut self) -> Option<ElementId> {
        // `by_rank` lists the buckets in rank order, each ascending.
        let e = *self.order.by_rank().get(self.depth as usize)?;
        self.depth += 1;
        Some(e)
    }

    /// Number of elements delivered so far.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Whether the cursor has delivered every element.
    pub fn is_exhausted(&self) -> bool {
        self.depth as usize >= self.order.len()
    }

    /// The index of the bucket the cursor is currently inside (the bucket
    /// of the most recently delivered element), if any delivery happened.
    pub fn current_bucket(&self) -> Option<usize> {
        let last = self.order.by_rank().get(self.depth.checked_sub(1)? as usize)?;
        Some(self.order.bucket_index(*last))
    }

    /// Rewinds to the top, resetting the depth counter.
    pub fn reset(&mut self) {
        self.depth = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_delivers_in_rank_then_id_order() {
        let s = BucketOrder::from_buckets(5, vec![vec![4, 1], vec![0], vec![3, 2]]).unwrap();
        let mut c = RankingCursor::new(&s);
        let mut seen = Vec::new();
        while let Some(e) = c.next() {
            seen.push(e);
        }
        assert_eq!(seen, vec![1, 4, 0, 2, 3]);
        assert_eq!(c.depth(), 5);
        assert!(c.is_exhausted());
        assert_eq!(c.next(), None);
        assert_eq!(c.depth(), 5, "exhausted next() costs nothing");
    }

    #[test]
    fn cursor_reset() {
        let s = BucketOrder::identity(3);
        let mut c = RankingCursor::new(&s);
        c.next();
        c.next();
        assert_eq!(c.depth(), 2);
        c.reset();
        assert_eq!(c.depth(), 0);
        assert_eq!(c.next(), Some(0));
    }

    #[test]
    fn current_bucket_tracking() {
        let s = BucketOrder::from_buckets(3, vec![vec![0, 1], vec![2]]).unwrap();
        let mut c = RankingCursor::new(&s);
        assert_eq!(c.current_bucket(), None);
        c.next();
        assert_eq!(c.current_bucket(), Some(0));
        c.next();
        assert_eq!(c.current_bucket(), Some(0));
        c.next();
        assert_eq!(c.current_bucket(), Some(1));
    }

    #[test]
    fn stats_totals() {
        let mut st = AccessStats::new(3);
        st.sorted_depth[0] = 5;
        st.sorted_depth[2] = 7;
        st.random_accesses[1] = 2;
        assert_eq!(st.total_accesses(), 14);
        assert_eq!(st.max_depth(), 7);
        assert_eq!(AccessStats::new(0).max_depth(), 0);
    }

    #[test]
    fn empty_ranking_cursor() {
        let s = BucketOrder::trivial(0);
        let mut c = RankingCursor::new(&s);
        assert!(c.is_exhausted());
        assert_eq!(c.next(), None);
    }
}
