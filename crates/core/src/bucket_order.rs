//! Bucket orders: linear orders with ties, the paper's central object.

use crate::{CoreError, ElementId, Pos, TypeSeq};
use std::cmp::Ordering;
use std::fmt;
use std::iter::FusedIterator;
use std::ops::Index;
use std::slice::Windows;

/// A *bucket order* over the domain `{0, 1, …, n−1}`: an ordered partition
/// of the domain into nonempty buckets. Elements in the same bucket are
/// tied; `x ◁ y` holds exactly when the bucket of `x` precedes the bucket
/// of `y`.
///
/// The associated *partial ranking* `σ` maps each element to the position
/// of its bucket, `σ(x) = pos(B) = Σ_{j<i}|B_j| + (|B_i|+1)/2`, available
/// exactly (in half-units) via [`BucketOrder::position`].
///
/// The order is stored flat: the domain in rank order
/// ([`BucketOrder::by_rank`]) plus the `k + 1` bucket boundaries
/// ([`BucketOrder::bucket_starts`]), so bucket `B_i` is
/// `by_rank[starts[i]..starts[i + 1]]` and `pos(B_i)` in half-units is
/// `starts[i] + starts[i + 1] + 1`. Each bucket's elements are sorted
/// ascending, so structural equality (`==`, `Hash`) coincides with
/// semantic equality of the ranking.
///
/// # Example
///
/// ```
/// use bucketrank_core::BucketOrder;
///
/// // Two ways to build the same ranking with a tie between 1 and 3.
/// let a = BucketOrder::from_buckets(4, vec![vec![2], vec![3, 1], vec![0]]).unwrap();
/// let b = BucketOrder::from_keys(&[3, 2, 1, 2]); // rank by key ascending
/// assert_eq!(a, b);
/// assert!(a.prefers(2, 3));
/// assert!(a.is_tied(1, 3));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BucketOrder {
    /// The domain in rank order; each bucket's run sorted ascending.
    by_rank: Vec<ElementId>,
    /// Bucket boundaries: bucket `i` is `by_rank[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    /// Element id → index of its bucket.
    bucket_of: Vec<u32>,
    /// Bucket index → position (half-units).
    bucket_pos: Vec<Pos>,
}

/// Records `value` for element `e` in `map`, which holds `u32::MAX` for
/// every element not yet seen.
fn claim(map: &mut [u32], e: ElementId, value: u32) -> Result<(), CoreError> {
    let domain_size = map.len();
    let slot = map
        .get_mut(e as usize)
        .ok_or(CoreError::ElementOutOfRange {
            element: e,
            domain_size,
        })?;
    if *slot != u32::MAX {
        return Err(CoreError::DuplicateElement { element: e });
    }
    *slot = value;
    Ok(())
}

impl BucketOrder {
    /// Builds a bucket order from an ordered list of buckets covering the
    /// domain `{0, …, n−1}` exactly once each.
    ///
    /// # Errors
    /// Buckets are checked in order, each element of a bucket in turn:
    /// the first empty bucket ([`CoreError::EmptyBucket`]), element
    /// outside the domain ([`CoreError::ElementOutOfRange`]) or repeated
    /// element ([`CoreError::DuplicateElement`]) is reported; then the
    /// smallest element no bucket holds ([`CoreError::MissingElement`]).
    pub fn from_buckets(
        n: usize,
        buckets: Vec<Vec<ElementId>>,
    ) -> Result<BucketOrder, CoreError> {
        let mut builder = BucketOrderBuilder::new(n);
        builder.by_rank.reserve(buckets.iter().map(Vec::len).sum());
        builder.starts.reserve(buckets.len());
        for bucket in buckets {
            builder.push_bucket(bucket);
        }
        builder.finish()
    }

    /// Builds a full ranking from a permutation: `perm[r]` is the element at
    /// rank `r + 1`.
    pub fn from_permutation(perm: &[ElementId]) -> Result<BucketOrder, CoreError> {
        let mut bucket_of = vec![u32::MAX; perm.len()];
        for (r, &e) in perm.iter().enumerate() {
            claim(&mut bucket_of, e, r as u32)?;
        }
        Ok(Self::assemble(
            perm.to_vec(),
            singleton_starts(perm.len()),
            bucket_of,
        ))
    }

    /// Ranks the domain by a key per element, ascending (smaller key is
    /// ranked ahead); equal keys tie. This is how a database sort on a
    /// few-valued attribute produces a partial ranking.
    pub fn from_keys<K: Ord>(keys: &[K]) -> BucketOrder {
        Self::group_by_key(keys, |a, b| a.cmp(b))
    }

    /// Ranks the domain by a key per element, descending (larger key is
    /// ranked ahead); equal keys tie.
    pub fn from_keys_desc<K: Ord>(keys: &[K]) -> BucketOrder {
        Self::group_by_key(keys, |a, b| b.cmp(a))
    }

    /// [`from_keys`](Self::from_keys) for `u32` keys, in `O(n + span)`
    /// when the keys span (max − min) at most `4n` values: bucket
    /// indices, ranks and half-unit positions all do. The ids are then
    /// placed by one stable counting scatter instead of a comparison
    /// sort; wider keys take the sort. Either way the result equals
    /// `from_keys(keys)`.
    ///
    /// ```
    /// use bucketrank_core::BucketOrder;
    ///
    /// let keys = [2u32, 0, 2, 1];
    /// assert_eq!(BucketOrder::from_u32_keys(&keys), BucketOrder::from_keys(&keys));
    /// ```
    pub fn from_u32_keys(keys: &[u32]) -> BucketOrder {
        Self::from_int_keys(keys, i64::from)
    }

    /// [`from_keys`](Self::from_keys) over keys with an integer `value`
    /// that orders them. When the values span at most `4n`, a counting
    /// pass numbers the distinct values in order (each is one bucket)
    /// and [`from_bucket_of`](Self::from_bucket_of) lays the buckets
    /// out; wider values take the comparison sort.
    pub(crate) fn from_int_keys<K: Copy + Ord>(keys: &[K], value: impl Fn(K) -> i64) -> BucketOrder {
        let n = keys.len();
        if n == 0 {
            return Self::from_keys(keys);
        }
        let (lo, hi) = keys.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &k| {
            let v = value(k);
            (lo.min(v), hi.max(v))
        });
        let span = match hi.checked_sub(lo) {
            Some(span) if span as u64 <= SCATTER_SPAN_PER_ELEMENT * n as u64 => span as usize,
            _ => return Self::from_keys(keys),
        };
        let slot = |k: K| (value(k) - lo) as usize;
        // Count each value; then each populated value, in order, opens
        // the next bucket, and its slot holds that bucket's index.
        let mut bucket = vec![0u32; span + 1];
        for &k in keys {
            bucket[slot(k)] += 1;
        }
        let mut starts = Vec::with_capacity(n.min(span + 1) + 1);
        starts.push(0u32);
        let mut end = 0u32;
        for b in bucket.iter_mut().filter(|b| **b > 0) {
            end += *b;
            *b = starts.len() as u32 - 1;
            starts.push(end);
        }
        let bucket_of = keys.iter().map(|&k| bucket[slot(k)]).collect();
        Self::from_bucket_of(bucket_of, starts)
    }

    /// One stable sort of the ids by `cmp` on their keys (so tied ids stay
    /// ascending), then one pass that opens a bucket wherever the key
    /// changes.
    fn group_by_key<K: Ord>(keys: &[K], cmp: impl Fn(&K, &K) -> Ordering) -> BucketOrder {
        let n = keys.len();
        let mut by_rank: Vec<ElementId> = (0..n as ElementId).collect();
        by_rank.sort_by(|&a, &b| cmp(&keys[a as usize], &keys[b as usize]));
        let mut starts = vec![0u32];
        let mut bucket_of = vec![0u32; n];
        for r in 1..n {
            if keys[by_rank[r - 1] as usize] != keys[by_rank[r] as usize] {
                starts.push(r as u32);
            }
            bucket_of[by_rank[r] as usize] = starts.len() as u32 - 1;
        }
        if n > 0 {
            starts.push(n as u32);
        }
        Self::assemble(by_rank, starts, bucket_of)
    }

    /// Builds a top-k list: the given elements as singleton buckets in
    /// order, followed by one bottom bucket holding the rest of the domain.
    pub fn top_k(n: usize, top: &[ElementId]) -> Result<BucketOrder, CoreError> {
        if top.len() > n {
            return Err(CoreError::InvalidK {
                k: top.len(),
                domain_size: n,
            });
        }
        let mut bucket_of = vec![u32::MAX; n];
        for (r, &e) in top.iter().enumerate() {
            claim(&mut bucket_of, e, r as u32)?;
        }
        let k = top.len();
        let mut by_rank = Vec::with_capacity(n);
        by_rank.extend_from_slice(top);
        for (e, b) in bucket_of.iter_mut().enumerate() {
            if *b == u32::MAX {
                *b = k as u32;
                by_rank.push(e as ElementId);
            }
        }
        let mut starts = singleton_starts(k);
        if k < n {
            starts.push(n as u32);
        }
        Ok(Self::assemble(by_rank, starts, bucket_of))
    }

    /// The bucket order with a single bucket: everything tied.
    pub fn trivial(n: usize) -> BucketOrder {
        let starts = if n == 0 { vec![0] } else { vec![0, n as u32] };
        Self::from_ranked((0..n as ElementId).collect(), starts)
    }

    /// The identity full ranking `0 ◁ 1 ◁ … ◁ n−1`.
    pub fn identity(n: usize) -> BucketOrder {
        Self::from_ranked((0..n as ElementId).collect(), singleton_starts(n))
    }

    /// Builds the order from its rank-ordered domain and bucket
    /// boundaries. The caller guarantees that `by_rank` is a permutation
    /// of the domain, that `starts` runs strictly upward from `0` to
    /// `by_rank.len()`, and that each bucket's run is ascending.
    pub(crate) fn from_ranked(by_rank: Vec<ElementId>, starts: Vec<u32>) -> BucketOrder {
        let mut bucket_of = vec![0u32; by_rank.len()];
        for (bi, w) in starts.windows(2).enumerate() {
            for &e in &by_rank[w[0] as usize..w[1] as usize] {
                bucket_of[e as usize] = bi as u32;
            }
        }
        Self::assemble(by_rank, starts, bucket_of)
    }

    /// Cuts `ranked`, the domain in some rank order, into consecutive
    /// buckets of `alpha`'s sizes, each bucket's ids ascending: every id
    /// takes its bucket index from its rank, and
    /// [`from_bucket_of`](Self::from_bucket_of) lays the buckets out,
    /// `O(n)`. The caller guarantees `alpha` sums to `ranked.len()`.
    pub(crate) fn cut_to_type(ranked: &[ElementId], alpha: &TypeSeq) -> BucketOrder {
        let mut starts = Vec::with_capacity(alpha.num_buckets() + 1);
        starts.push(0u32);
        let mut bucket_of = vec![0u32; ranked.len()];
        let mut rest = ranked;
        for (bi, &size) in alpha.sizes().iter().enumerate() {
            let (bucket, tail) = rest.split_at(size);
            for &e in bucket {
                bucket_of[e as usize] = bi as u32;
            }
            rest = tail;
            starts.push(starts[bi] + size as u32);
        }
        Self::from_bucket_of(bucket_of, starts)
    }

    /// Builds the order from each element's bucket index and the bucket
    /// boundaries (which the caller guarantees agree): one stable
    /// counting scatter of the ids by bucket index, `O(n + k)`, puts
    /// each bucket's ids in ascending order.
    fn from_bucket_of(bucket_of: Vec<u32>, starts: Vec<u32>) -> BucketOrder {
        let mut next = starts.clone();
        let mut by_rank = vec![0 as ElementId; bucket_of.len()];
        for (e, &b) in bucket_of.iter().enumerate() {
            let slot = &mut next[b as usize];
            by_rank[*slot as usize] = e as ElementId;
            *slot += 1;
        }
        Self::assemble(by_rank, starts, bucket_of)
    }

    /// Merges runs of adjacent buckets: `starts` keeps a subsequence of
    /// this order's bucket boundaries, from `0` to `len()`.
    pub(crate) fn merge_runs(&self, starts: Vec<u32>) -> BucketOrder {
        let mut by_rank = self.by_rank.clone();
        for w in starts.windows(2) {
            by_rank[w[0] as usize..w[1] as usize].sort_unstable();
        }
        Self::from_ranked(by_rank, starts)
    }

    /// Completes the order with the bucket positions.
    fn assemble(by_rank: Vec<ElementId>, starts: Vec<u32>, bucket_of: Vec<u32>) -> BucketOrder {
        let bucket_pos = starts
            .windows(2)
            .map(|w| Pos::from_half_units(i64::from(w[0]) + i64::from(w[1]) + 1))
            .collect();
        BucketOrder {
            by_rank,
            starts,
            bucket_of,
            bucket_pos,
        }
    }

    /// Domain size `|D|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.by_rank.len()
    }

    /// Whether the domain is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.by_rank.is_empty()
    }

    /// Number of buckets.
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.bucket_pos.len()
    }

    /// The buckets, in rank order, as a borrowed view: each bucket is a
    /// `&[ElementId]` slice of [`Self::by_rank`], its elements sorted
    /// ascending. The view indexes, iterates (both ways) and counts like
    /// a slice of buckets without materializing one.
    #[inline]
    pub fn buckets(&self) -> Buckets<'_> {
        Buckets {
            by_rank: &self.by_rank,
            starts: &self.starts,
        }
    }

    /// The domain in rank order: bucket 0's elements, then bucket 1's, …,
    /// each bucket ascending.
    #[inline]
    pub fn by_rank(&self) -> &[ElementId] {
        &self.by_rank
    }

    /// The `num_buckets() + 1` bucket boundaries over [`Self::by_rank`]:
    /// bucket `i` occupies `by_rank[starts[i]..starts[i + 1]]`.
    #[inline]
    pub fn bucket_starts(&self) -> &[u32] {
        &self.starts
    }

    /// The index of the bucket containing `x`.
    ///
    /// # Panics
    /// Panics if `x` is outside the domain.
    #[inline]
    pub fn bucket_index(&self, x: ElementId) -> usize {
        self.bucket_of[x as usize] as usize
    }

    /// Element id → bucket index, as one contiguous slice (entry `e` is
    /// `bucket_index(e)`). Hot loops — the prepared metric kernels in
    /// `bucketrank-metrics` — index this directly instead of paying a
    /// method call per element.
    #[inline]
    pub fn bucket_indices(&self) -> &[u32] {
        &self.bucket_of
    }

    /// The partial ranking value `σ(x) = pos(bucket of x)`, exactly.
    ///
    /// # Panics
    /// Panics if `x` is outside the domain.
    #[inline]
    pub fn position(&self, x: ElementId) -> Pos {
        self.bucket_pos[self.bucket_of[x as usize] as usize]
    }

    /// The position of bucket `i`.
    #[inline]
    pub fn bucket_position(&self, i: usize) -> Pos {
        self.bucket_pos[i]
    }

    /// The *F-profile*: the vector `⟨σ(x) : x ∈ D⟩` of element positions.
    pub fn positions(&self) -> Vec<Pos> {
        self.bucket_of
            .iter()
            .map(|&b| self.bucket_pos[b as usize])
            .collect()
    }

    /// Whether `x` is ahead of `y` (`σ(x) < σ(y)`).
    #[inline]
    pub fn prefers(&self, x: ElementId, y: ElementId) -> bool {
        self.bucket_of[x as usize] < self.bucket_of[y as usize]
    }

    /// Whether `x` and `y` are tied (same bucket).
    #[inline]
    pub fn is_tied(&self, x: ElementId, y: ElementId) -> bool {
        self.bucket_of[x as usize] == self.bucket_of[y as usize]
    }

    /// Compares two elements by rank: `Less` means `x` is ahead of `y`,
    /// `Equal` means tied.
    #[inline]
    pub fn cmp_elements(&self, x: ElementId, y: ElementId) -> Ordering {
        self.bucket_of[x as usize].cmp(&self.bucket_of[y as usize])
    }

    /// The type (sequence of bucket sizes) of this bucket order.
    pub fn type_seq(&self) -> TypeSeq {
        TypeSeq::new(self.buckets().iter().map(<[ElementId]>::len).collect())
            .expect("buckets are nonempty by construction")
    }

    /// Whether this is a full ranking (all buckets singletons).
    pub fn is_full(&self) -> bool {
        self.num_buckets() == self.len()
    }

    /// If this is a top-k list (`k` singleton buckets, then at most one
    /// bottom bucket), returns `k`. Full rankings return `Some(n)`.
    pub fn top_k_len(&self) -> Option<usize> {
        self.type_seq().is_top_k()
    }

    /// The reverse `σ^R` with `σ^R(d) = |D| + 1 − σ(d)`: the bucket
    /// sequence reversed.
    pub fn reverse(&self) -> BucketOrder {
        let n = self.len() as u32;
        let mut by_rank = Vec::with_capacity(self.len());
        for b in self.buckets().iter().rev() {
            by_rank.extend_from_slice(b);
        }
        let starts = self.starts.iter().rev().map(|&s| n - s).collect();
        Self::from_ranked(by_rank, starts)
    }

    /// If this is a full ranking, the permutation `rank → element`.
    pub fn as_permutation(&self) -> Option<Vec<ElementId>> {
        self.is_full().then(|| self.by_rank.clone())
    }

    /// A canonical full refinement: ties broken by ascending element id.
    pub fn arbitrary_full_refinement(&self) -> BucketOrder {
        // Buckets are stored sorted, so the rank order already breaks
        // ties by id.
        Self::from_ranked(self.by_rank.clone(), singleton_starts(self.len()))
    }

    /// Iterates over elements in rank order, yielding `(bucket_index, id)`.
    pub fn iter_ranked(&self) -> impl Iterator<Item = (usize, ElementId)> + '_ {
        self.by_rank
            .iter()
            .map(|&e| (self.bucket_of[e as usize] as usize, e))
    }

    /// Restricts the ranking to a sub-domain: `keep[i]` is the element
    /// (in this order's domain) that becomes element `i` of the result.
    /// Relative order and ties are preserved; empty buckets vanish.
    ///
    /// This is the "projection onto a subset" used when comparing
    /// rankings over different domains via their common elements.
    ///
    /// # Errors
    /// [`CoreError::ElementOutOfRange`] / [`CoreError::DuplicateElement`].
    pub fn restrict(&self, keep: &[ElementId]) -> Result<BucketOrder, CoreError> {
        let mut new_id = vec![u32::MAX; self.len()];
        for (i, &e) in keep.iter().enumerate() {
            claim(&mut new_id, e, i as u32)?;
        }
        let mut by_rank = Vec::with_capacity(keep.len());
        let mut starts = vec![0u32];
        for b in self.buckets() {
            let start = by_rank.len();
            by_rank.extend(
                b.iter()
                    .map(|&e| new_id[e as usize])
                    .filter(|&id| id != u32::MAX),
            );
            if by_rank.len() > start {
                by_rank[start..].sort_unstable();
                starts.push(by_rank.len() as u32);
            }
        }
        Ok(Self::from_ranked(by_rank, starts))
    }

    /// Renders the order as e.g. `[0 2 | 1 | 3]` (buckets separated by `|`).
    pub fn display(&self) -> String {
        let mut s = String::from("[");
        for (bi, b) in self.buckets().iter().enumerate() {
            if bi > 0 {
                s.push_str(" | ");
            }
            for (i, e) in b.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                s.push_str(&e.to_string());
            }
        }
        s.push(']');
        s
    }
}

/// The widest key span (max − min), per element, that
/// `from_int_keys` ranks by counting; wider keys take the comparison
/// sort.
const SCATTER_SPAN_PER_ELEMENT: u64 = 4;

/// The boundaries of `k` singleton buckets, `0, 1, …, k`.
fn singleton_starts(k: usize) -> Vec<u32> {
    (0..=k as u32).collect()
}

impl fmt::Debug for BucketOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BucketOrder{}", self.display())
    }
}

/// The buckets of a [`BucketOrder`] in rank order, borrowed from its flat
/// arrays (see [`BucketOrder::buckets`]). Each bucket is a
/// `&[ElementId]`, its elements sorted ascending.
///
/// ```
/// use bucketrank_core::BucketOrder;
///
/// let o = BucketOrder::from_buckets(4, vec![vec![3], vec![2, 0], vec![1]]).unwrap();
/// let b = o.buckets();
/// assert_eq!(b.len(), 3);
/// assert_eq!(&b[1], &[0, 2]);
/// assert_eq!(b.get(3), None);
/// assert_eq!(b.last(), Some(&[1][..]));
/// let sizes: Vec<usize> = b.iter().rev().map(<[u32]>::len).collect();
/// assert_eq!(sizes, [1, 2, 1]);
/// ```
#[derive(Clone, Copy)]
pub struct Buckets<'a> {
    by_rank: &'a [ElementId],
    starts: &'a [u32],
}

impl<'a> Buckets<'a> {
    /// Number of buckets.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether there are no buckets (the domain is empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bucket `i`, or `None` if `i ≥ len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&'a [ElementId]> {
        (i < self.len()).then(|| self.slice(i))
    }

    /// The last bucket, or `None` if there are none.
    #[inline]
    pub fn last(&self) -> Option<&'a [ElementId]> {
        self.len().checked_sub(1).map(|i| self.slice(i))
    }

    /// Iterates over the buckets in rank order.
    #[inline]
    pub fn iter(&self) -> BucketsIter<'a> {
        BucketsIter {
            by_rank: self.by_rank,
            starts: self.starts.windows(2),
        }
    }

    #[inline]
    fn slice(&self, i: usize) -> &'a [ElementId] {
        &self.by_rank[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

impl Index<usize> for Buckets<'_> {
    type Output = [ElementId];

    /// Bucket `i`.
    ///
    /// # Panics
    /// Panics if `i ≥ len()`.
    #[inline]
    fn index(&self, i: usize) -> &[ElementId] {
        self.slice(i)
    }
}

impl<'a> IntoIterator for Buckets<'a> {
    type Item = &'a [ElementId];
    type IntoIter = BucketsIter<'a>;

    #[inline]
    fn into_iter(self) -> BucketsIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Buckets<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over the buckets of a [`Buckets`] view, yielding each as a
/// `&[ElementId]`.
#[derive(Debug, Clone)]
pub struct BucketsIter<'a> {
    by_rank: &'a [ElementId],
    starts: Windows<'a, u32>,
}

impl<'a> BucketsIter<'a> {
    #[inline]
    fn bucket(&self, w: &[u32]) -> &'a [ElementId] {
        &self.by_rank[w[0] as usize..w[1] as usize]
    }
}

impl<'a> Iterator for BucketsIter<'a> {
    type Item = &'a [ElementId];

    #[inline]
    fn next(&mut self) -> Option<&'a [ElementId]> {
        let w = self.starts.next()?;
        Some(self.bucket(w))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.starts.size_hint()
    }

    #[inline]
    fn nth(&mut self, n: usize) -> Option<&'a [ElementId]> {
        let w = self.starts.nth(n)?;
        Some(self.bucket(w))
    }
}

impl DoubleEndedIterator for BucketsIter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        let w = self.starts.next_back()?;
        Some(self.bucket(w))
    }
}

impl ExactSizeIterator for BucketsIter<'_> {}

impl FusedIterator for BucketsIter<'_> {}

/// An incremental builder that appends buckets in rank order.
///
/// ```
/// use bucketrank_core::BucketOrderBuilder;
///
/// let mut b = BucketOrderBuilder::new(4);
/// b.push_bucket([3]);
/// b.push_bucket([0, 1]);
/// b.push_bucket([2]);
/// let order = b.finish().unwrap();
/// assert_eq!(order.display(), "[3 | 0 1 | 2]");
/// ```
#[derive(Debug, Clone)]
pub struct BucketOrderBuilder {
    n: usize,
    /// Every pushed element, bucket after bucket.
    by_rank: Vec<ElementId>,
    /// Boundaries of the pushed buckets over `by_rank`.
    starts: Vec<u32>,
}

impl BucketOrderBuilder {
    /// Starts a builder for a domain of size `n`.
    pub fn new(n: usize) -> Self {
        BucketOrderBuilder {
            n,
            by_rank: Vec::new(),
            starts: vec![0],
        }
    }

    /// Appends the next bucket (following all buckets pushed so far).
    pub fn push_bucket<I: IntoIterator<Item = ElementId>>(&mut self, bucket: I) -> &mut Self {
        self.by_rank.extend(bucket);
        self.starts.push(self.by_rank.len() as u32);
        self
    }

    /// Validates and produces the bucket order.
    ///
    /// # Errors
    /// As [`BucketOrder::from_buckets`].
    pub fn finish(self) -> Result<BucketOrder, CoreError> {
        let BucketOrderBuilder {
            n,
            mut by_rank,
            starts,
        } = self;
        let mut bucket_of = vec![u32::MAX; n];
        for (bi, w) in starts.windows(2).enumerate() {
            let bucket = &mut by_rank[w[0] as usize..w[1] as usize];
            if bucket.is_empty() {
                return Err(CoreError::EmptyBucket { index: bi });
            }
            for &e in bucket.iter() {
                claim(&mut bucket_of, e, bi as u32)?;
            }
            bucket.sort_unstable();
        }
        if let Some(e) = bucket_of.iter().position(|&b| b == u32::MAX) {
            return Err(CoreError::MissingElement { element: e as u32 });
        }
        Ok(BucketOrder::assemble(by_rank, starts, bucket_of))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bo(n: usize, buckets: Vec<Vec<ElementId>>) -> BucketOrder {
        BucketOrder::from_buckets(n, buckets).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            BucketOrder::from_buckets(3, vec![vec![0], vec![1]]),
            Err(CoreError::MissingElement { element: 2 })
        ));
        assert!(matches!(
            BucketOrder::from_buckets(2, vec![vec![0, 0], vec![1]]),
            Err(CoreError::DuplicateElement { element: 0 })
        ));
        assert!(matches!(
            BucketOrder::from_buckets(2, vec![vec![0, 5], vec![1]]),
            Err(CoreError::ElementOutOfRange { element: 5, .. })
        ));
        assert!(matches!(
            BucketOrder::from_buckets(2, vec![vec![0], vec![], vec![1]]),
            Err(CoreError::EmptyBucket { index: 1 })
        ));
    }

    #[test]
    fn positions_follow_paper() {
        // Example: B1 = {a, b}, B2 = {c}: pos(B1) = 1.5, pos(B2) = 3.
        let s = bo(3, vec![vec![0, 1], vec![2]]);
        assert_eq!(s.position(0), Pos::from_half_units(3));
        assert_eq!(s.position(1), Pos::from_half_units(3));
        assert_eq!(s.position(2), Pos::from_half_units(6));
    }

    #[test]
    fn equality_is_semantic() {
        let a = bo(3, vec![vec![1, 0], vec![2]]);
        let b = bo(3, vec![vec![0, 1], vec![2]]);
        assert_eq!(a, b);
        let c = bo(3, vec![vec![0], vec![1], vec![2]]);
        assert_ne!(a, c);
    }

    #[test]
    fn from_keys_groups_ties() {
        let s = BucketOrder::from_keys(&[30, 10, 30, 20]);
        assert_eq!(s.display(), "[1 | 3 | 0 2]");
        let d = BucketOrder::from_keys_desc(&[30, 10, 30, 20]);
        assert_eq!(d.display(), "[0 2 | 3 | 1]");
    }

    #[test]
    fn permutation_round_trip() {
        let s = BucketOrder::from_permutation(&[2, 0, 1]).unwrap();
        assert!(s.is_full());
        assert_eq!(s.as_permutation(), Some(vec![2, 0, 1]));
        assert_eq!(s.position(2), Pos::from_rank(1));
        assert_eq!(s.position(0), Pos::from_rank(2));
    }

    #[test]
    fn top_k_shape() {
        let s = BucketOrder::top_k(5, &[4, 1]).unwrap();
        assert_eq!(s.display(), "[4 | 1 | 0 2 3]");
        assert_eq!(s.top_k_len(), Some(2));
        assert!(BucketOrder::top_k(3, &[0, 0]).is_err());
        assert!(BucketOrder::top_k(2, &[0, 1, 1]).is_err());
        // top-n is a full ranking
        let f = BucketOrder::top_k(3, &[2, 1, 0]).unwrap();
        assert!(f.is_full());
    }

    #[test]
    fn reverse_matches_formula() {
        let s = bo(4, vec![vec![0], vec![1, 2], vec![3]]);
        let r = s.reverse();
        let n1 = Pos::from_half_units(2 * (s.len() as i64 + 1));
        for x in 0..4 {
            assert_eq!(r.position(x), n1 - s.position(x), "element {x}");
        }
        assert_eq!(s.reverse().reverse(), s);
    }

    #[test]
    fn trivial_and_identity() {
        let t = BucketOrder::trivial(4);
        assert_eq!(t.num_buckets(), 1);
        for x in 0..4 {
            for y in 0..4 {
                assert!(t.is_tied(x, y));
            }
        }
        let i = BucketOrder::identity(3);
        assert!(i.prefers(0, 1));
        assert!(i.prefers(1, 2));

        let e = BucketOrder::trivial(0);
        assert!(e.is_empty());
        assert_eq!(e.num_buckets(), 0);
    }

    #[test]
    fn arbitrary_full_refinement_is_refinement() {
        let s = bo(4, vec![vec![2, 3], vec![0, 1]]);
        let f = s.arbitrary_full_refinement();
        assert!(f.is_full());
        assert_eq!(f.as_permutation(), Some(vec![2, 3, 0, 1]));
    }

    #[test]
    fn iter_ranked_visits_in_order() {
        let s = bo(3, vec![vec![1, 2], vec![0]]);
        let got: Vec<_> = s.iter_ranked().collect();
        assert_eq!(got, vec![(0, 1), (0, 2), (1, 0)]);
    }

    #[test]
    fn builder() {
        let mut b = BucketOrderBuilder::new(3);
        b.push_bucket([2]).push_bucket([0, 1]);
        let s = b.finish().unwrap();
        assert_eq!(s.display(), "[2 | 0 1]");
    }

    #[test]
    fn restrict_preserves_order_and_ties() {
        let s = bo(6, vec![vec![0, 1], vec![2], vec![3, 4], vec![5]]);
        // Keep 1, 3, 4, 5 → renumbered 0, 1, 2, 3.
        let r = s.restrict(&[1, 3, 4, 5]).unwrap();
        assert_eq!(r.display(), "[0 | 1 2 | 3]");
        // Keep in a different order: renumbering follows `keep`.
        let r = s.restrict(&[5, 1]).unwrap();
        assert_eq!(r.display(), "[1 | 0]");
        // Empty restriction.
        let r = s.restrict(&[]).unwrap();
        assert!(r.is_empty());
        // Errors.
        assert!(s.restrict(&[9]).is_err());
        assert!(s.restrict(&[1, 1]).is_err());
    }

    #[test]
    fn restrict_full_stays_full() {
        let s = BucketOrder::from_permutation(&[3, 0, 2, 1]).unwrap();
        let r = s.restrict(&[0, 2, 3]).unwrap();
        assert!(r.is_full());
        // 3 first, then 0, then 2 → renumbered 2, 0, 1.
        assert_eq!(r.as_permutation(), Some(vec![2, 0, 1]));
    }

    #[test]
    fn type_seq_reflects_buckets() {
        let s = bo(5, vec![vec![0, 1], vec![2], vec![3, 4]]);
        assert_eq!(s.type_seq().sizes(), &[2, 1, 2]);
    }
}
