//! Shared algorithmic substrate: Fenwick tree and inversion counting.
//!
//! These power the `O(n log n)` metric computations in the metrics crate
//! (Kendall tau, the five pair statistics) while keeping a single, well
//! tested implementation.

/// A Fenwick (binary indexed) tree over `u64` counts, supporting point
/// updates and prefix sums in `O(log n)`.
///
/// ```
/// use bucketrank_core::alg::Fenwick;
///
/// let mut fw = Fenwick::new(8);
/// fw.add(3, 2);
/// fw.add(5, 1);
/// assert_eq!(fw.prefix_sum(3), 0);  // strictly before index 3
/// assert_eq!(fw.prefix_sum(4), 2);
/// assert_eq!(fw.total(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    /// Creates a tree over indices `0..n`.
    pub fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Number of indexable slots.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Whether the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `delta` at index `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn add(&mut self, i: usize, delta: u64) {
        assert!(i < self.len(), "index {i} out of range {}", self.len());
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of counts at indices strictly below `i` (i.e. `0..i`).
    pub fn prefix_sum(&self, i: usize) -> u64 {
        let mut i = i.min(self.len());
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum of counts at indices `i..len()`.
    pub fn suffix_sum(&self, i: usize) -> u64 {
        self.total() - self.prefix_sum(i)
    }

    /// Total of all counts.
    pub fn total(&self) -> u64 {
        self.prefix_sum(self.len())
    }

    /// Resets all counts to zero, retaining capacity.
    pub fn clear(&mut self) {
        self.tree.fill(0);
    }
}

/// Counts inversions in a sequence of keys: pairs `i < j` with
/// `keys[i] > keys[j]`. Ties do **not** count as inversions.
///
/// `O(n log n)` via coordinate compression and a Fenwick tree. This is the
/// bubble-sort-distance characterization of the Kendall tau metric.
///
/// ```
/// use bucketrank_core::alg::count_inversions;
///
/// assert_eq!(count_inversions(&[1u32, 2, 3]), 0);
/// assert_eq!(count_inversions(&[3u32, 2, 1]), 3);
/// assert_eq!(count_inversions(&[2u32, 2, 1]), 2);
/// ```
pub fn count_inversions<K: Ord>(keys: &[K]) -> u64 {
    let n = keys.len();
    if n < 2 {
        return 0;
    }
    // Coordinate-compress to ranks 0..r.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
    let mut rank = vec![0usize; n];
    let mut r = 0usize;
    rank[idx[0]] = 0;
    for w in 1..n {
        if keys[idx[w]] != keys[idx[w - 1]] {
            r += 1;
        }
        rank[idx[w]] = r;
    }
    let mut fw = Fenwick::new(r + 1);
    let mut inversions = 0u64;
    for &r in &rank {
        // Elements already seen with strictly greater rank.
        inversions += fw.suffix_sum(r + 1);
        fw.add(r, 1);
    }
    inversions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fenwick_basics() {
        let mut fw = Fenwick::new(10);
        assert_eq!(fw.len(), 10);
        assert!(!fw.is_empty());
        fw.add(0, 5);
        fw.add(9, 7);
        fw.add(4, 1);
        assert_eq!(fw.prefix_sum(0), 0);
        assert_eq!(fw.prefix_sum(1), 5);
        assert_eq!(fw.prefix_sum(5), 6);
        assert_eq!(fw.prefix_sum(10), 13);
        assert_eq!(fw.prefix_sum(99), 13); // clamped
        assert_eq!(fw.suffix_sum(5), 7);
        assert_eq!(fw.total(), 13);
        fw.clear();
        assert_eq!(fw.total(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fenwick_add_out_of_range_panics() {
        let mut fw = Fenwick::new(3);
        fw.add(3, 1);
    }

    #[test]
    fn empty_fenwick() {
        let fw = Fenwick::new(0);
        assert!(fw.is_empty());
        assert_eq!(fw.total(), 0);
    }

    #[test]
    fn inversions_edge_cases() {
        assert_eq!(count_inversions::<u32>(&[]), 0);
        assert_eq!(count_inversions(&[7u32]), 0);
        assert_eq!(count_inversions(&[1u32, 1, 1]), 0);
    }

    #[test]
    fn inversions_of_reversed_identity() {
        let rev: Vec<u32> = (0..100).rev().collect();
        assert_eq!(count_inversions(&rev), 100 * 99 / 2);
    }
}
