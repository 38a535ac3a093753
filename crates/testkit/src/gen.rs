//! Generator combinators for property tests.
//!
//! A [`Gen`] produces random values from a [`Pcg32`] stream and knows
//! how to *shrink* a failing value toward smaller counterexamples.
//! Shrinking lives on the generator — not the value — so that
//! generators with invariants (full rankings stay full, paired orders
//! stay on the same domain) only ever propose candidates inside their
//! own support.
//!
//! Domain generators for [`BucketOrder`] use two shrink moves:
//!
//! * **remove-item** — drop one element from the domain (coordinated
//!   across tuple components, so pairs keep comparable domains);
//! * **merge-bucket** — merge two adjacent buckets, increasing ties
//!   (skipped by the full-ranking generators, whose support has none).

use crate::rng::{Pcg32, Rng};
use bucketrank_core::BucketOrder;
use std::fmt::Debug;
use std::ops::RangeInclusive;

/// A reproducible random generator of test values with shrinking.
pub trait Gen {
    /// The generated type.
    type Value: Clone + Debug;

    /// Produce one value from the stream.
    fn generate(&self, rng: &mut Pcg32) -> Self::Value;

    /// Propose strictly "smaller" variants of a failing value. Every
    /// candidate must lie in this generator's support. Order matters:
    /// the runner tries candidates front to back and greedily recurses
    /// on the first that still fails.
    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let _ = v;
        Vec::new()
    }
}

impl<G: Gen + ?Sized> Gen for &G {
    type Value = G::Value;

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        (**self).generate(rng)
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(v)
    }
}

/// A generator from a closure, with no shrinking.
pub fn from_fn<T, F>(f: F) -> FromFn<F>
where
    T: Clone + Debug,
    F: Fn(&mut Pcg32) -> T,
{
    FromFn(f)
}

/// See [`from_fn`].
pub struct FromFn<F>(F);

impl<T, F> Gen for FromFn<F>
where
    T: Clone + Debug,
    F: Fn(&mut Pcg32) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut Pcg32) -> T {
        (self.0)(rng)
    }
}

/// Two independent generators; shrinks one component at a time.
pub fn pair<A: Gen, B: Gen>(a: A, b: B) -> Pair<A, B> {
    Pair(a, b)
}

/// See [`pair`].
pub struct Pair<A, B>(A, B);

impl<A: Gen, B: Gen> Gen for Pair<A, B> {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        for a in self.0.shrink(&v.0) {
            out.push((a, v.1.clone()));
        }
        for b in self.1.shrink(&v.1) {
            out.push((v.0.clone(), b));
        }
        out
    }
}

/// Three independent generators; shrinks one component at a time.
pub fn triple<A: Gen, B: Gen, C: Gen>(a: A, b: B, c: C) -> Triple<A, B, C> {
    Triple(a, b, c)
}

/// See [`triple`].
pub struct Triple<A, B, C>(A, B, C);

impl<A: Gen, B: Gen, C: Gen> Gen for Triple<A, B, C> {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        for a in self.0.shrink(&v.0) {
            out.push((a, v.1.clone(), v.2.clone()));
        }
        for b in self.1.shrink(&v.1) {
            out.push((v.0.clone(), b, v.2.clone()));
        }
        for c in self.2.shrink(&v.2) {
            out.push((v.0.clone(), v.1.clone(), c));
        }
        out
    }
}

/// A vector of values from `elem` with a length drawn from `len`.
/// Shrinks by removing one element, then by shrinking each element.
pub fn vec_of<G: Gen>(elem: G, len: RangeInclusive<usize>) -> VecOf<G> {
    VecOf { elem, len }
}

/// See [`vec_of`].
pub struct VecOf<G> {
    elem: G,
    len: RangeInclusive<usize>,
}

impl<G: Gen> Gen for VecOf<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        if v.len() > *self.len.start() {
            for i in 0..v.len() {
                let mut smaller = v.clone();
                smaller.remove(i);
                out.push(smaller);
            }
        }
        for (i, x) in v.iter().enumerate() {
            for sx in self.elem.shrink(x) {
                let mut copy = v.clone();
                copy[i] = sx;
                out.push(copy);
            }
        }
        out
    }
}

macro_rules! int_gen {
    ($fname:ident, $gname:ident, $t:ty) => {
        /// A uniform integer in the inclusive range, shrinking toward
        /// the lower bound by halving the distance.
        pub fn $fname(range: RangeInclusive<$t>) -> $gname {
            $gname(range)
        }

        #[doc = concat!("See [`", stringify!($fname), "`].")]
        pub struct $gname(RangeInclusive<$t>);

        impl Gen for $gname {
            type Value = $t;

            fn generate(&self, rng: &mut Pcg32) -> $t {
                rng.gen_range(self.0.clone())
            }

            fn shrink(&self, v: &$t) -> Vec<$t> {
                // Candidates `v - delta` for halving deltas: the greedy
                // runner recursing on the first failure binary-searches
                // onto the smallest failing value.
                let lo = *self.0.start();
                let mut out = Vec::new();
                let mut delta = *v - lo;
                while delta > 0 {
                    out.push(*v - delta);
                    delta /= 2;
                }
                out
            }
        }
    };
}

int_gen!(usize_in, UsizeIn, usize);
int_gen!(u32_in, U32In, u32);
int_gen!(i64_in, I64In, i64);

/// Any `i32`, shrinking toward zero by halving.
pub fn i32_any() -> I32Any {
    I32Any
}

/// See [`i32_any`].
pub struct I32Any;

impl Gen for I32Any {
    type Value = i32;

    fn generate(&self, rng: &mut Pcg32) -> i32 {
        rng.next_u32() as i32
    }

    fn shrink(&self, v: &i32) -> Vec<i32> {
        let mut out = Vec::new();
        let mut cur = *v;
        while cur != 0 {
            let mid = cur / 2;
            out.push(mid);
            cur = mid;
        }
        out.dedup();
        out
    }
}

/// A string of length in `len` over `charset`, shrinking by removing
/// one character at a time.
pub fn string_from(charset: &'static [char], len: RangeInclusive<usize>) -> StringFrom {
    StringFrom { charset, len }
}

/// Printable characters (ASCII printable plus a few multibyte
/// codepoints), standing in for proptest's `\PC` class.
pub fn printable_string(len: RangeInclusive<usize>) -> StringFrom {
    const PRINTABLE: &[char] = &[
        ' ', '!', '"', '#', '$', '%', '&', '\'', '(', ')', '*', '+', ',', '-', '.', '/', '0',
        '1', '5', '9', ':', ';', '<', '=', '>', '?', '@', 'A', 'B', 'M', 'Z', '[', '\\', ']',
        '^', '_', '`', 'a', 'b', 'k', 'z', '{', '|', '}', '~', 'é', 'ß', '中', '→', '🦀',
    ];
    StringFrom {
        charset: PRINTABLE,
        len,
    }
}

/// See [`string_from`].
pub struct StringFrom {
    charset: &'static [char],
    len: RangeInclusive<usize>,
}

impl Gen for StringFrom {
    type Value = String;

    fn generate(&self, rng: &mut Pcg32) -> String {
        let n = rng.gen_range(self.len.clone());
        (0..n)
            .map(|_| self.charset[rng.gen_range(0..self.charset.len())])
            .collect()
    }

    fn shrink(&self, v: &String) -> Vec<String> {
        if v.chars().count() <= *self.len.start() {
            return Vec::new();
        }
        let chars: Vec<char> = v.chars().collect();
        (0..chars.len())
            .map(|i| {
                chars
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &c)| c)
                    .collect()
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// BucketOrder shrink moves
// ---------------------------------------------------------------------

/// Drop element `e` from the domain of `o`, relabeling the survivors
/// to `0..n-1` while preserving their relative order and ties.
pub fn remove_element(o: &BucketOrder, e: u32) -> BucketOrder {
    let keep: Vec<u32> = (0..o.len() as u32).filter(|&x| x != e).collect();
    o.restrict(&keep).expect("keep is a valid sub-domain")
}

/// Merge buckets `i` and `i + 1` of `o` into one (coarsening the
/// order by adding ties).
pub fn merge_adjacent(o: &BucketOrder, i: usize) -> BucketOrder {
    let mut buckets: Vec<Vec<u32>> = o.buckets().iter().map(<[u32]>::to_vec).collect();
    let upper = buckets.remove(i + 1);
    buckets[i].extend(upper);
    BucketOrder::from_buckets(o.len(), buckets).expect("merging buckets keeps a valid order")
}

fn all_removals_coordinated(orders: &[&BucketOrder]) -> Vec<Vec<BucketOrder>> {
    let n = orders[0].len();
    if n <= 1 {
        return Vec::new();
    }
    (0..n as u32)
        .map(|e| orders.iter().map(|o| remove_element(o, e)).collect())
        .collect()
}

// ---------------------------------------------------------------------
// Domain generators
// ---------------------------------------------------------------------

fn random_keys_order(rng: &mut Pcg32, n: usize, levels: u8) -> BucketOrder {
    let keys: Vec<u8> = (0..n).map(|_| rng.gen_range(0..levels)).collect();
    BucketOrder::from_keys(&keys)
}

fn random_permutation(rng: &mut Pcg32, n: usize) -> BucketOrder {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    BucketOrder::from_permutation(&ids).expect("shuffled permutation")
}

/// A bucket order on `n` elements built by assigning each element a
/// uniform key in `0..levels` — the same distribution as the old
/// proptest `bucket_order_strategy`. `levels` controls tie density:
/// small `levels` relative to `n` forces large buckets.
///
/// Shrinks by removing an element and by merging adjacent buckets.
pub fn bucket_order(n: usize, levels: u8) -> BucketOrderGen {
    assert!(n >= 1 && levels >= 1);
    BucketOrderGen { n, levels }
}

/// See [`bucket_order`].
pub struct BucketOrderGen {
    n: usize,
    levels: u8,
}

impl Gen for BucketOrderGen {
    type Value = BucketOrder;

    fn generate(&self, rng: &mut Pcg32) -> BucketOrder {
        random_keys_order(rng, self.n, self.levels)
    }

    fn shrink(&self, v: &BucketOrder) -> Vec<BucketOrder> {
        let mut out = Vec::new();
        if v.len() > 1 {
            for e in 0..v.len() as u32 {
                out.push(remove_element(v, e));
            }
        }
        for i in 0..v.num_buckets().saturating_sub(1) {
            out.push(merge_adjacent(v, i));
        }
        out
    }
}

/// A pair of independent bucket orders over the **same** `n`-element
/// domain. Shrinks coordinate element removal across both sides (so
/// the domains stay equal) and merge buckets on either side alone.
pub fn order_pair(n: usize, levels: u8) -> OrderPairGen {
    assert!(n >= 1 && levels >= 1);
    OrderPairGen { n, levels }
}

/// See [`order_pair`].
pub struct OrderPairGen {
    n: usize,
    levels: u8,
}

impl Gen for OrderPairGen {
    type Value = (BucketOrder, BucketOrder);

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        (
            random_keys_order(rng, self.n, self.levels),
            random_keys_order(rng, self.n, self.levels),
        )
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let (a, b) = v;
        let mut out: Vec<Self::Value> = all_removals_coordinated(&[a, b])
            .into_iter()
            .map(|mut pair| {
                let second = pair.pop().expect("two orders");
                let first = pair.pop().expect("two orders");
                (first, second)
            })
            .collect();
        for i in 0..a.num_buckets().saturating_sub(1) {
            out.push((merge_adjacent(a, i), b.clone()));
        }
        for i in 0..b.num_buckets().saturating_sub(1) {
            out.push((a.clone(), merge_adjacent(b, i)));
        }
        out
    }
}

/// Like [`order_pair`], but with heavy weight on the degenerate cases
/// metric kernels must get right: singleton domains, all-tied (single
/// bucket) orders on one or both sides, and full rankings on both
/// sides. Roughly half the stream is degenerate; the rest is the plain
/// [`order_pair`] distribution.
///
/// Shrinking **preserves the degeneracy class of each side**: a side
/// that is all-tied stays all-tied, a side that is full stays full
/// (coordinated element removal preserves both; bucket merges are only
/// proposed on unconstrained sides). A counterexample found on, say, a
/// full×all-tied pair therefore shrinks to the *smallest* full×all-tied
/// pair that still fails, instead of drifting into a generic pair.
pub fn order_pair_with_degenerates(n: usize, levels: u8) -> OrderPairWithDegeneratesGen {
    assert!(n >= 1 && levels >= 1);
    OrderPairWithDegeneratesGen { n, levels }
}

/// See [`order_pair_with_degenerates`].
pub struct OrderPairWithDegeneratesGen {
    n: usize,
    levels: u8,
}

impl Gen for OrderPairWithDegeneratesGen {
    type Value = (BucketOrder, BucketOrder);

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        match rng.gen_range(0..8u32) {
            // Singleton domain: the smallest nonempty instance.
            0 => (BucketOrder::trivial(1), BucketOrder::trivial(1)),
            // Both sides one bucket: every pair tied in both.
            1 => (BucketOrder::trivial(self.n), BucketOrder::trivial(self.n)),
            // One side all-tied, the other in the generic distribution.
            2 => (
                BucketOrder::trivial(self.n),
                random_keys_order(rng, self.n, self.levels),
            ),
            3 => (
                random_keys_order(rng, self.n, self.levels),
                BucketOrder::trivial(self.n),
            ),
            // Both sides full rankings: no ties anywhere.
            4 => (
                random_permutation(rng, self.n),
                random_permutation(rng, self.n),
            ),
            _ => (
                random_keys_order(rng, self.n, self.levels),
                random_keys_order(rng, self.n, self.levels),
            ),
        }
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let (a, b) = v;
        let mut out: Vec<Self::Value> = all_removals_coordinated(&[a, b])
            .into_iter()
            .map(|mut pair| {
                let second = pair.pop().expect("two orders");
                let first = pair.pop().expect("two orders");
                (first, second)
            })
            .collect();
        // Merges would break a full side out of its class (and all-tied
        // sides have nothing to merge), so only unconstrained sides get
        // merge candidates.
        if !a.is_full() {
            for i in 0..a.num_buckets().saturating_sub(1) {
                out.push((merge_adjacent(a, i), b.clone()));
            }
        }
        if !b.is_full() {
            for i in 0..b.num_buckets().saturating_sub(1) {
                out.push((a.clone(), merge_adjacent(b, i)));
            }
        }
        out
    }
}

/// Per-position weight vectors (integer units, index `p` weighting
/// 1-based rank `p + 1`) with heavy weight on the degenerate classes
/// weighted metric kernels must get right: **uniform** (every position
/// the same), **geometric decay** (halving weights with a zero tail),
/// **top-k step** (a constant on the first `k` positions, zero after)
/// and a **single-position spike**. The rest of the stream is generic
/// small weights, zeros included.
///
/// Shrinking **preserves the class shape**: halving every nonzero
/// entry at once keeps uniform vectors uniform, steps steps, spikes
/// spikes and decays nonincreasing; zeroing the last nonzero entry
/// (proposed only when it cannot break a uniform vector or empty a
/// spike) shortens a step or decay tail. A counterexample found on a
/// spike therefore shrinks to the smallest-valued spike that still
/// fails instead of drifting into a generic vector.
pub fn weights_with_degenerates(n: usize) -> WeightsWithDegeneratesGen {
    assert!(n >= 1);
    WeightsWithDegeneratesGen { n }
}

/// See [`weights_with_degenerates`].
pub struct WeightsWithDegeneratesGen {
    n: usize,
}

impl Gen for WeightsWithDegeneratesGen {
    type Value = Vec<u64>;

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        let n = self.n;
        match rng.gen_range(0..8u32) {
            // Uniform: the class where the weighted kernels must
            // collapse to scaled unweighted ones.
            0 | 1 => vec![u64::from(rng.gen_range(1..=16u32)); n],
            // Geometric decay: halving weights, zero once the base
            // runs out of bits.
            2 | 3 => {
                let base: u64 = 1 << rng.gen_range(0..20u32);
                (0..n).map(|p| base >> p.min(63)).collect()
            }
            // Top-k step: a constant on the first k positions.
            4 | 5 => {
                let k = rng.gen_range(1..=n as u32) as usize;
                let c = u64::from(rng.gen_range(1..=4u32));
                (0..n).map(|p| if p < k { c } else { 0 }).collect()
            }
            // Single-position spike: all the mass on one rank.
            6 => {
                let mut w = vec![0u64; n];
                w[rng.gen_range(0..n as u32) as usize] = 1 << rng.gen_range(0..20u32);
                w
            }
            _ => (0..n).map(|_| u64::from(rng.gen_range(0..=16u32))).collect(),
        }
    }

    fn shrink(&self, w: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        // Halving every nonzero entry at once preserves every class
        // shape.
        if w.iter().any(|&x| x > 1) {
            out.push(w.iter().map(|&x| if x > 1 { x / 2 } else { x }).collect());
        }
        // Zeroing the last nonzero entry shortens a step or decay
        // tail. Skipped when the entries are all equal (it would break
        // a uniform vector) or only one is nonzero (it would empty a
        // spike).
        let nonzero = w.iter().filter(|&&x| x != 0).count();
        let all_equal = w.windows(2).all(|p| p[0] == p[1]);
        if nonzero >= 2 && !all_equal {
            let last = w.iter().rposition(|&x| x != 0).expect("nonzero >= 2");
            let mut z = w.clone();
            z[last] = 0;
            out.push(z);
        }
        out
    }
}

/// A multi-voter profile: `m` bucket orders (with `m` drawn from
/// `voters`) over one shared `n`-element domain, with heavy weight on
/// the degenerate profiles tally-style aggregation code must get
/// right: singleton domains, all-voters-tied profiles, unanimous full
/// profiles, and per-voter mixes of all-tied / full / generic voters.
/// Roughly a third of the stream is a profile-level degenerate class;
/// the rest draws each voter independently (with its own chance of
/// being all-tied or full).
///
/// Shrinking **preserves each voter's degeneracy class**: voter
/// removal (down to `voters.start()`), element removal coordinated
/// across all voters (both moves preserve every class), and bucket
/// merges only on voters that are neither full nor all-tied — so a
/// counterexample found on, say, a profile with an all-tied voter
/// shrinks to the smallest such profile instead of drifting into a
/// generic one.
pub fn profile_with_degenerates(
    voters: RangeInclusive<usize>,
    n: usize,
    levels: u8,
) -> ProfileWithDegeneratesGen {
    assert!(*voters.start() >= 1 && n >= 1 && levels >= 1);
    ProfileWithDegeneratesGen { voters, n, levels }
}

/// See [`profile_with_degenerates`].
pub struct ProfileWithDegeneratesGen {
    voters: RangeInclusive<usize>,
    n: usize,
    levels: u8,
}

impl Gen for ProfileWithDegeneratesGen {
    type Value = Vec<BucketOrder>;

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        let m = rng.gen_range(self.voters.clone());
        match rng.gen_range(0..9u32) {
            // Singleton domain: the smallest nonempty instance.
            0 => vec![BucketOrder::trivial(1); m],
            // Every voter all-tied: no pairwise information at all.
            1 => vec![BucketOrder::trivial(self.n); m],
            // Unanimous full profile: maximal agreement.
            2 => vec![random_permutation(rng, self.n); m],
            // Per-voter mix: each voter independently all-tied, full,
            // or generic.
            _ => (0..m)
                .map(|_| match rng.gen_range(0..6u32) {
                    0 => BucketOrder::trivial(self.n),
                    1 => random_permutation(rng, self.n),
                    _ => random_keys_order(rng, self.n, self.levels),
                })
                .collect(),
        }
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        // Drop one voter at a time (dropping never changes any
        // remaining voter's class).
        if v.len() > *self.voters.start() {
            for i in 0..v.len() {
                let mut smaller = v.clone();
                smaller.remove(i);
                out.push(smaller);
            }
        }
        // Coordinated element removal keeps the domains equal and
        // preserves all-tied and full classes on every voter.
        let refs: Vec<&BucketOrder> = v.iter().collect();
        out.extend(all_removals_coordinated(&refs));
        // Merges only on unconstrained voters: a full voter would
        // leave its class, an all-tied voter has nothing to merge.
        for (i, voter) in v.iter().enumerate() {
            if voter.is_full() {
                continue;
            }
            for b in 0..voter.num_buckets().saturating_sub(1) {
                let mut copy = v.clone();
                copy[i] = merge_adjacent(voter, b);
                out.push(copy);
            }
        }
        out
    }
}

/// A class-labeled profile: a [`profile_with_degenerates`] profile
/// paired with per-candidate class labels (`labels[e]` for element
/// `e`, always `labels.len() == domain size`), for property-testing
/// class-constrained aggregation. Heavy weight on the degenerate
/// labelings constraint code must get right: a **single class**
/// covering every candidate (any prefix-window rule is then a pure
/// cardinality check), **one candidate per class** (every rule pins
/// individual candidates), and **sparse non-contiguous class ids**
/// (classes a rule set may leave unconstrained, and a trap for code
/// assuming labels are dense `0..k`).
///
/// Shrinking preserves the profile's voter classes exactly as
/// [`profile_with_degenerates`] does **and** the labeling's class:
/// voter drop leaves labels untouched, element removal coordinates
/// across every voter *and* the label vector (single-class stays
/// single-class, one-candidate-per-class stays distinct), bucket
/// merges leave labels alone, and a relabel-to-dense move
/// canonicalizes sparse ids without ever merging two classes.
pub fn classed_profile_with_degenerates(
    voters: RangeInclusive<usize>,
    n: usize,
    levels: u8,
) -> ClassedProfileGen {
    ClassedProfileGen {
        profile: profile_with_degenerates(voters, n, levels),
    }
}

/// See [`classed_profile_with_degenerates`].
pub struct ClassedProfileGen {
    profile: ProfileWithDegeneratesGen,
}

impl Gen for ClassedProfileGen {
    type Value = (Vec<BucketOrder>, Vec<u32>);

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        let profile = self.profile.generate(rng);
        // The profile generator may pick a degenerate domain (e.g. the
        // singleton class), so the label length follows the profile,
        // not the requested `n`.
        let n = profile[0].len();
        let labels = match rng.gen_range(0..6u32) {
            // Single class covering every candidate.
            0 => vec![rng.gen_range(0..4u32); n],
            // One candidate per class, in shuffled order.
            1 => {
                let mut l: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    let j = rng.gen_range(0..=i);
                    l.swap(i, j);
                }
                l
            }
            // Sparse non-contiguous ids drawn from {2, 9, 16}.
            2 => (0..n).map(|_| 7 * rng.gen_range(0..3u32) + 2).collect(),
            // Generic: a few dense classes.
            _ => {
                let k = rng.gen_range(1..=4u32.min(n as u32));
                (0..n).map(|_| rng.gen_range(0..k)).collect()
            }
        };
        (profile, labels)
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let (profile, labels) = v;
        let mut out = Vec::new();
        // Voter drop never touches the labeling.
        if profile.len() > *self.profile.voters.start() {
            for i in 0..profile.len() {
                let mut smaller = profile.clone();
                smaller.remove(i);
                out.push((smaller, labels.clone()));
            }
        }
        // Element removal drops the same element's label, so a
        // single-class labeling stays single-class and a
        // one-candidate-per-class labeling stays pairwise distinct.
        let refs: Vec<&BucketOrder> = profile.iter().collect();
        for (e, smaller) in all_removals_coordinated(&refs).into_iter().enumerate() {
            let mut l = labels.clone();
            l.remove(e);
            out.push((smaller, l));
        }
        // Merges only on unconstrained voters, as on the unlabeled
        // profile generator.
        for (i, voter) in profile.iter().enumerate() {
            if voter.is_full() {
                continue;
            }
            for b in 0..voter.num_buckets().saturating_sub(1) {
                let mut copy = profile.clone();
                copy[i] = merge_adjacent(voter, b);
                out.push((copy, labels.clone()));
            }
        }
        // Relabel to dense 0..k: order-preserving on class ids, so no
        // two classes ever merge and the class structure is unchanged.
        let mut uniq = labels.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let dense: Vec<u32> = labels
            .iter()
            .map(|l| uniq.binary_search(l).expect("label is in uniq") as u32)
            .collect();
        if dense != *labels {
            out.push((profile.clone(), dense));
        }
        out
    }
}

/// One step of a streaming-profile edit script; see
/// [`edit_script_with_degenerates`]. The driver resolves the index of
/// `Remove` / `Replace` against its current live-voter list as
/// `live[i % live.len()]`, and when the list is empty the op instead
/// exercises the engine's typed unknown-voter error path — scripts
/// include that case on purpose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// Push a new voter with this ranking.
    Push(BucketOrder),
    /// Remove the live voter at this wrapped index.
    Remove(usize),
    /// Replace the live voter at this wrapped index with this ranking.
    Replace(usize, BucketOrder),
}

/// Domain size of an edit script: read off its first embedded ranking.
///
/// # Panics
/// If the script embeds no ranking ([`edit_script_with_degenerates`]
/// always pushes at least once).
pub fn script_domain(script: &[EditOp]) -> usize {
    script
        .iter()
        .find_map(|op| match op {
            EditOp::Push(r) | EditOp::Replace(_, r) => Some(r.len()),
            EditOp::Remove(_) => None,
        })
        .expect("scripts always embed a ranking")
}

/// A random insert/remove/replace edit script over one shared
/// `n`-element domain, for differential testing of incremental
/// engines against from-scratch rebuilds. Script length is guided by
/// `ops`; every script contains at least one `Push` (drivers read the
/// domain size off the first pushed ranking). Heavy weight on the
/// degenerate trajectories dynamic maintenance must get right:
/// edits against an **empty** profile (typed-error path), a
/// **single voter** churned in place by replaces, a profile drained to
/// **all voters removed** and refilled, and **duplicate voters**
/// (identical rankings pushed repeatedly, where a removal must retract
/// exactly one copy). Individual rankings carry the usual mix of
/// all-tied, full, and generic orders.
///
/// Shrinking **preserves the script's class**: dropping one op (never
/// the last `Push`), element removal coordinated across *every*
/// embedded ranking (domains stay equal, duplicates stay identical),
/// coarsening one distinct ranking *value* applied to all ops carrying
/// it (duplicates stay identical), and stepping target indices toward
/// zero.
pub fn edit_script_with_degenerates(
    ops: RangeInclusive<usize>,
    n: usize,
    levels: u8,
) -> EditScriptGen {
    assert!(*ops.start() >= 1 && n >= 1 && levels >= 1);
    EditScriptGen { ops, n, levels }
}

/// See [`edit_script_with_degenerates`].
pub struct EditScriptGen {
    ops: RangeInclusive<usize>,
    n: usize,
    levels: u8,
}

impl EditScriptGen {
    fn rand_ranking(&self, rng: &mut Pcg32) -> BucketOrder {
        match rng.gen_range(0..6u32) {
            0 => BucketOrder::trivial(self.n),
            1 => random_permutation(rng, self.n),
            _ => random_keys_order(rng, self.n, self.levels),
        }
    }
}

impl Gen for EditScriptGen {
    type Value = Vec<EditOp>;

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        let len = rng.gen_range(self.ops.clone());
        let mut script: Vec<EditOp> = Vec::new();
        match rng.gen_range(0..10u32) {
            // Empty-profile class: edits against an engine with no
            // voters first — the typed-error path — then a push so the
            // script grows state.
            0 => {
                script.push(EditOp::Remove(rng.gen_range(0..4)));
                script.push(EditOp::Push(self.rand_ranking(rng)));
            }
            // Single-voter class: one voter, churned in place.
            1 => {
                script.push(EditOp::Push(self.rand_ranking(rng)));
                for _ in 0..len {
                    script.push(EditOp::Replace(0, self.rand_ranking(rng)));
                }
            }
            // All-voters-removed class: fill, drain completely, remove
            // once more (typed error on empty), then repopulate.
            2 => {
                let k = rng.gen_range(1..=len.min(4));
                for _ in 0..k {
                    script.push(EditOp::Push(self.rand_ranking(rng)));
                }
                for _ in 0..k {
                    script.push(EditOp::Remove(rng.gen_range(0..4)));
                }
                script.push(EditOp::Remove(0));
                script.push(EditOp::Push(self.rand_ranking(rng)));
            }
            // Duplicate-voter class: identical rankings pushed
            // repeatedly — a removal must retract exactly one copy.
            3 => {
                let r = self.rand_ranking(rng);
                for _ in 0..rng.gen_range(2..=4u32) {
                    script.push(EditOp::Push(r.clone()));
                }
            }
            _ => {}
        }
        // Generic tail up to the drawn length, seeded with a push when
        // the class produced none.
        if script.is_empty() {
            script.push(EditOp::Push(self.rand_ranking(rng)));
        }
        while script.len() < len {
            script.push(match rng.gen_range(0..10u32) {
                0..=4 => EditOp::Push(self.rand_ranking(rng)),
                5..=7 => EditOp::Remove(rng.gen_range(0..8)),
                _ => EditOp::Replace(rng.gen_range(0..8), self.rand_ranking(rng)),
            });
        }
        script
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        // Drop one op at a time, keeping at least one push.
        let pushes = v
            .iter()
            .filter(|op| matches!(op, EditOp::Push(_)))
            .count();
        for i in 0..v.len() {
            if matches!(v[i], EditOp::Push(_)) && pushes <= 1 {
                continue;
            }
            let mut smaller = v.clone();
            smaller.remove(i);
            out.push(smaller);
        }
        // Coordinated element removal across every embedded ranking:
        // domains stay equal and duplicate rankings stay identical
        // (removal is deterministic). The current domain size is read
        // off the script itself — earlier shrinks may already have
        // reduced it below the generator's `n`.
        let n_cur = v.iter().find_map(|op| match op {
            EditOp::Push(r) | EditOp::Replace(_, r) => Some(r.len()),
            EditOp::Remove(_) => None,
        });
        if let Some(nc) = n_cur {
            if nc > 1 {
                for e in 0..nc as u32 {
                    out.push(
                        v.iter()
                            .map(|op| match op {
                                EditOp::Push(r) => EditOp::Push(remove_element(r, e)),
                                EditOp::Remove(i) => EditOp::Remove(*i),
                                EditOp::Replace(i, r) => {
                                    EditOp::Replace(*i, remove_element(r, e))
                                }
                            })
                            .collect(),
                    );
                }
            }
        }
        // Coarsen one distinct ranking VALUE, applied to every op that
        // carries it, so duplicate pushes stay identical (the
        // duplicate-voter class survives shrinking). Full rankings are
        // left alone, mirroring the class-preserving merge policy of
        // the other generators.
        let mut seen: Vec<&BucketOrder> = Vec::new();
        for op in v {
            let r = match op {
                EditOp::Push(r) | EditOp::Replace(_, r) => r,
                EditOp::Remove(_) => continue,
            };
            if seen.contains(&r) {
                continue;
            }
            seen.push(r);
            if r.is_full() {
                continue;
            }
            for b in 0..r.num_buckets().saturating_sub(1) {
                let merged = merge_adjacent(r, b);
                out.push(
                    v.iter()
                        .map(|op| match op {
                            EditOp::Push(x) if x == r => EditOp::Push(merged.clone()),
                            EditOp::Replace(i, x) if x == r => {
                                EditOp::Replace(*i, merged.clone())
                            }
                            other => other.clone(),
                        })
                        .collect(),
                );
            }
        }
        // Step target indices toward zero.
        for i in 0..v.len() {
            let stepped = match &v[i] {
                EditOp::Remove(k) if *k > 0 => Some(EditOp::Remove(k / 2)),
                EditOp::Replace(k, r) if *k > 0 => Some(EditOp::Replace(k / 2, r.clone())),
                _ => None,
            };
            if let Some(op) = stepped {
                let mut copy = v.clone();
                copy[i] = op;
                out.push(copy);
            }
        }
        out
    }
}

/// A triple of independent bucket orders over the same domain, with
/// the same coordinated shrinking as [`order_pair`].
pub fn order_triple(n: usize, levels: u8) -> OrderTripleGen {
    assert!(n >= 1 && levels >= 1);
    OrderTripleGen { n, levels }
}

/// See [`order_triple`].
pub struct OrderTripleGen {
    n: usize,
    levels: u8,
}

impl Gen for OrderTripleGen {
    type Value = (BucketOrder, BucketOrder, BucketOrder);

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        (
            random_keys_order(rng, self.n, self.levels),
            random_keys_order(rng, self.n, self.levels),
            random_keys_order(rng, self.n, self.levels),
        )
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let (a, b, c) = v;
        let mut out: Vec<Self::Value> = all_removals_coordinated(&[a, b, c])
            .into_iter()
            .map(|mut t| {
                let third = t.pop().expect("three orders");
                let second = t.pop().expect("three orders");
                let first = t.pop().expect("three orders");
                (first, second, third)
            })
            .collect();
        for i in 0..a.num_buckets().saturating_sub(1) {
            out.push((merge_adjacent(a, i), b.clone(), c.clone()));
        }
        for i in 0..b.num_buckets().saturating_sub(1) {
            out.push((a.clone(), merge_adjacent(b, i), c.clone()));
        }
        for i in 0..c.num_buckets().saturating_sub(1) {
            out.push((a.clone(), b.clone(), merge_adjacent(c, i)));
        }
        out
    }
}

/// A uniform full ranking (permutation) of `n` elements. Shrinks by
/// element removal only — merges would introduce ties and leave the
/// generator's support.
pub fn full_ranking(n: usize) -> FullRankingGen {
    assert!(n >= 1);
    FullRankingGen { n }
}

/// See [`full_ranking`].
pub struct FullRankingGen {
    n: usize,
}

impl Gen for FullRankingGen {
    type Value = BucketOrder;

    fn generate(&self, rng: &mut Pcg32) -> BucketOrder {
        random_permutation(rng, self.n)
    }

    fn shrink(&self, v: &BucketOrder) -> Vec<BucketOrder> {
        if v.len() <= 1 {
            return Vec::new();
        }
        (0..v.len() as u32).map(|e| remove_element(v, e)).collect()
    }
}

/// A pair of independent full rankings over the same domain, with
/// coordinated element-removal shrinking (no merges: both sides must
/// stay full).
pub fn full_pair(n: usize) -> FullPairGen {
    assert!(n >= 1);
    FullPairGen { n }
}

/// See [`full_pair`].
pub struct FullPairGen {
    n: usize,
}

impl Gen for FullPairGen {
    type Value = (BucketOrder, BucketOrder);

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        (
            random_permutation(rng, self.n),
            random_permutation(rng, self.n),
        )
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let (a, b) = v;
        all_removals_coordinated(&[a, b])
            .into_iter()
            .map(|mut pair| {
                let second = pair.pop().expect("two orders");
                let first = pair.pop().expect("two orders");
                (first, second)
            })
            .collect()
    }
}

/// Number of full refinements of `o`: the product of the factorials
/// of its bucket sizes (saturating).
pub fn refinement_count(o: &BucketOrder) -> u128 {
    let mut total: u128 = 1;
    for b in o.buckets() {
        for k in 2..=b.len() as u128 {
            total = total.saturating_mul(k);
        }
    }
    total
}

/// A pair of bucket orders on `n ≤ n_max` elements whose refinement
/// sets are small enough for brute-force Hausdorff enumeration:
/// `refinement_count(a) · refinement_count(b) ≤ cap`. Rejection-samples
/// (shrinking `levels` pressure upward, i.e. more buckets → fewer
/// refinements) until the budget holds, so generation always
/// terminates. Shrinks like [`order_pair`] — both moves shrink the
/// enumeration budget, never grow it past the cap... merges *grow*
/// refinement counts, so merge candidates violating `cap` are
/// filtered out.
pub fn bounded_refinement_pair(n: usize, levels: u8, cap: u128) -> BoundedRefinementPairGen {
    assert!(n >= 1 && levels >= 1 && cap >= 1);
    BoundedRefinementPairGen { n, levels, cap }
}

/// See [`bounded_refinement_pair`].
pub struct BoundedRefinementPairGen {
    n: usize,
    levels: u8,
    cap: u128,
}

impl BoundedRefinementPairGen {
    fn within_cap(&self, a: &BucketOrder, b: &BucketOrder) -> bool {
        refinement_count(a).saturating_mul(refinement_count(b)) <= self.cap
    }
}

impl Gen for BoundedRefinementPairGen {
    type Value = (BucketOrder, BucketOrder);

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        // More levels ⇒ smaller buckets ⇒ fewer refinements, so push
        // the level count up if rejection keeps failing. With levels
        // ≥ n every order is full (1 refinement), so this terminates.
        let mut levels = self.levels;
        loop {
            for _ in 0..32 {
                let a = random_keys_order(rng, self.n, levels);
                let b = random_keys_order(rng, self.n, levels);
                if self.within_cap(&a, &b) {
                    return (a, b);
                }
            }
            levels = levels.saturating_add(1);
        }
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let (a, b) = v;
        let mut out: Vec<Self::Value> = all_removals_coordinated(&[a, b])
            .into_iter()
            .map(|mut pair| {
                let second = pair.pop().expect("two orders");
                let first = pair.pop().expect("two orders");
                (first, second)
            })
            .collect();
        for i in 0..a.num_buckets().saturating_sub(1) {
            out.push((merge_adjacent(a, i), b.clone()));
        }
        for i in 0..b.num_buckets().saturating_sub(1) {
            out.push((a.clone(), merge_adjacent(b, i)));
        }
        out.retain(|(x, y)| self.within_cap(x, y));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedableRng;

    #[test]
    fn bucket_order_gen_is_valid_and_bounded() {
        let g = bucket_order(10, 4);
        let mut rng = Pcg32::seed_from_u64(1);
        for _ in 0..200 {
            let o = g.generate(&mut rng);
            assert_eq!(o.len(), 10);
            assert!(o.num_buckets() <= 4);
        }
    }

    #[test]
    fn full_ranking_gen_is_full() {
        let g = full_ranking(8);
        let mut rng = Pcg32::seed_from_u64(2);
        for _ in 0..100 {
            assert!(g.generate(&mut rng).is_full());
        }
    }

    #[test]
    fn shrinks_stay_in_support() {
        let g = full_pair(6);
        let mut rng = Pcg32::seed_from_u64(3);
        let v = g.generate(&mut rng);
        for (a, b) in g.shrink(&v) {
            assert!(a.is_full() && b.is_full());
            assert_eq!(a.len(), b.len());
            assert_eq!(a.len(), 5);
        }
    }

    #[test]
    fn order_pair_shrinks_are_coordinated() {
        let g = order_pair(7, 3);
        let mut rng = Pcg32::seed_from_u64(4);
        let v = g.generate(&mut rng);
        for (a, b) in g.shrink(&v) {
            assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn merge_adjacent_coarsens() {
        let o = BucketOrder::from_buckets(4, vec![vec![0], vec![1, 2], vec![3]]).unwrap();
        let m = merge_adjacent(&o, 1);
        assert_eq!(m.num_buckets(), 2);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn remove_element_relabels() {
        let o = BucketOrder::from_buckets(4, vec![vec![2], vec![0, 3], vec![1]]).unwrap();
        let r = remove_element(&o, 0);
        assert_eq!(r.len(), 3);
        // Old 2 → new 1, old 3 → new 2, old 1 → new 0.
        assert_eq!(r.display(), "[1 | 2 | 0]");
    }

    #[test]
    fn bounded_refinement_pair_respects_cap() {
        let g = bounded_refinement_pair(9, 2, 20_000);
        let mut rng = Pcg32::seed_from_u64(5);
        for _ in 0..50 {
            let (a, b) = g.generate(&mut rng);
            assert!(refinement_count(&a) * refinement_count(&b) <= 20_000);
        }
    }

    #[test]
    fn vec_of_shrink_removes_and_shrinks_elements() {
        let g = vec_of(u32_in(0..=100), 1..=5);
        let v = vec![10u32, 90];
        let shrinks = g.shrink(&v);
        assert!(shrinks.iter().any(|s| s.len() == 1));
        assert!(shrinks.iter().any(|s| s.len() == 2 && s[1] < 90));
    }

    #[test]
    fn refinement_count_is_product_of_factorials() {
        let o = BucketOrder::from_buckets(5, vec![vec![0, 1, 2], vec![3, 4]]).unwrap();
        assert_eq!(refinement_count(&o), 12);
    }

    #[test]
    fn degenerate_pair_gen_hits_every_class() {
        let g = order_pair_with_degenerates(8, 3);
        let mut rng = Pcg32::seed_from_u64(6);
        let (mut singleton, mut both_tied, mut one_tied, mut both_full, mut generic) =
            (0, 0, 0, 0, 0);
        for _ in 0..400 {
            let (a, b) = g.generate(&mut rng);
            assert_eq!(a.len(), b.len());
            if a.len() == 1 {
                singleton += 1;
            } else if a.num_buckets() == 1 && b.num_buckets() == 1 {
                both_tied += 1;
            } else if a.num_buckets() == 1 || b.num_buckets() == 1 {
                one_tied += 1;
            } else if a.is_full() && b.is_full() {
                both_full += 1;
            } else {
                generic += 1;
            }
        }
        assert!(
            singleton > 0 && both_tied > 0 && one_tied > 0 && both_full > 0 && generic > 0,
            "classes: {singleton} {both_tied} {one_tied} {both_full} {generic}"
        );
    }

    #[test]
    fn degenerate_pair_shrinks_preserve_class() {
        let g = order_pair_with_degenerates(6, 3);
        // All-tied × generic: the trivial side must stay one bucket.
        let v = (
            BucketOrder::trivial(6),
            BucketOrder::from_keys(&[2, 1, 3, 1, 2, 3]),
        );
        for (a, b) in g.shrink(&v) {
            assert_eq!(a.len(), b.len());
            assert_eq!(a.num_buckets(), 1, "all-tied side left its class");
        }
        // Full × full: both sides must stay full (no merge candidates).
        let v = (
            BucketOrder::from_permutation(&[2, 0, 1, 3]).unwrap(),
            BucketOrder::from_permutation(&[3, 1, 0, 2]).unwrap(),
        );
        let shrinks = g.shrink(&v);
        assert!(!shrinks.is_empty());
        for (a, b) in shrinks {
            assert!(a.is_full() && b.is_full(), "full side left its class");
        }
    }

    #[test]
    fn weights_gen_hits_every_class() {
        let g = weights_with_degenerates(8);
        let mut rng = Pcg32::seed_from_u64(9);
        let (mut uniform, mut decay, mut step, mut spike, mut generic) = (0, 0, 0, 0, 0);
        for _ in 0..400 {
            let w = g.generate(&mut rng);
            assert_eq!(w.len(), 8);
            let nonzero = w.iter().filter(|&&x| x != 0).count();
            let nonincreasing = w.windows(2).all(|p| p[0] >= p[1]);
            if w.windows(2).all(|p| p[0] == p[1]) {
                uniform += 1;
            } else if nonzero == 1 {
                spike += 1;
            } else if nonincreasing && w.iter().filter(|&&x| x != 0).all(|&x| x == w[0]) {
                step += 1;
            } else if nonincreasing {
                decay += 1;
            } else {
                generic += 1;
            }
        }
        assert!(
            uniform > 0 && decay > 0 && step > 0 && spike > 0 && generic > 0,
            "classes: {uniform} {decay} {step} {spike} {generic}"
        );
    }

    #[test]
    fn weights_shrinks_preserve_class() {
        let g = weights_with_degenerates(5);
        // Uniform stays uniform (no zero-last candidate).
        for s in g.shrink(&vec![8, 8, 8, 8, 8]) {
            assert!(s.windows(2).all(|p| p[0] == p[1]), "uniform left its class: {s:?}");
        }
        // A spike stays a spike — its single nonzero entry only halves.
        for s in g.shrink(&vec![0, 0, 16, 0, 0]) {
            assert_eq!(s.iter().filter(|&&x| x != 0).count(), 1, "spike emptied: {s:?}");
            assert_ne!(s[2], 0);
        }
        // A step stays a step: constant prefix, zero tail.
        for s in g.shrink(&vec![4, 4, 4, 0, 0]) {
            let k = s.iter().filter(|&&x| x != 0).count();
            assert!(s[..k].iter().all(|&x| x == s[0]) && s[k..].iter().all(|&x| x == 0));
        }
        // Nonincreasing (decay) vectors stay nonincreasing.
        for s in g.shrink(&vec![16, 8, 4, 2, 1]) {
            assert!(s.windows(2).all(|p| p[0] >= p[1]), "decay left its class: {s:?}");
        }
        // Every chain terminates: halving and zeroing strictly reduce.
        let mut cur = vec![1 << 19, 1 << 18, 7, 0, 3];
        let mut steps = 0;
        while let Some(next) = g.shrink(&cur).into_iter().next() {
            assert!(next.iter().sum::<u64>() < cur.iter().sum::<u64>());
            cur = next;
            steps += 1;
            assert!(steps < 200, "shrink chain did not terminate");
        }
    }

    #[test]
    fn profile_gen_hits_every_class_on_shared_domains() {
        let g = profile_with_degenerates(2..=5, 7, 3);
        let mut rng = Pcg32::seed_from_u64(7);
        let (mut singleton, mut all_tied, mut unanimous_full, mut mixed) = (0, 0, 0, 0);
        for _ in 0..400 {
            let profile = g.generate(&mut rng);
            assert!((2..=5).contains(&profile.len()));
            let n = profile[0].len();
            assert!(profile.iter().all(|v| v.len() == n), "domains must match");
            if n == 1 {
                singleton += 1;
            } else if profile.iter().all(|v| v.num_buckets() == 1) {
                all_tied += 1;
            } else if profile.iter().all(|v| v.is_full()) && profile.windows(2).all(|w| w[0] == w[1])
            {
                unanimous_full += 1;
            } else {
                mixed += 1;
            }
        }
        assert!(
            singleton > 0 && all_tied > 0 && unanimous_full > 0 && mixed > 0,
            "classes: {singleton} {all_tied} {unanimous_full} {mixed}"
        );
    }

    #[test]
    fn profile_shrinks_preserve_voter_classes_and_domains() {
        let g = profile_with_degenerates(2..=6, 6, 3);
        let v = vec![
            BucketOrder::trivial(6),
            BucketOrder::from_permutation(&[5, 0, 3, 1, 4, 2]).unwrap(),
            BucketOrder::from_keys(&[2, 1, 3, 1, 2, 3]),
        ];
        let shrinks = g.shrink(&v);
        assert!(!shrinks.is_empty());
        for s in shrinks {
            assert!(s.len() >= 2, "voter floor violated");
            let n = s[0].len();
            assert!(s.iter().all(|x| x.len() == n), "domains must stay equal");
            // Class preservation applies to surviving voters: whenever
            // the all-tied or full voter is still present (voter
            // removal keeps order), it must still be in its class.
            if s.len() == 3 {
                assert_eq!(s[0].num_buckets(), 1, "all-tied voter left its class");
                assert!(s[1].is_full(), "full voter left its class");
            }
        }
    }

    #[test]
    fn classed_profile_covers_degenerate_labelings() {
        let g = classed_profile_with_degenerates(2..=5, 6, 3);
        let mut rng = Pcg32::seed_from_u64(11);
        let (mut single, mut per_candidate, mut sparse, mut generic) = (0, 0, 0, 0);
        for _ in 0..400 {
            let (profile, labels) = g.generate(&mut rng);
            assert_eq!(labels.len(), profile[0].len(), "labels must cover the domain");
            assert!(profile.iter().all(|v| v.len() == labels.len()));
            let mut uniq = labels.clone();
            uniq.sort_unstable();
            uniq.dedup();
            if uniq.len() == 1 {
                single += 1;
            } else if uniq.len() == labels.len() {
                per_candidate += 1;
            } else if uniq.iter().any(|&c| c as usize >= labels.len()) {
                sparse += 1;
            } else {
                generic += 1;
            }
        }
        assert!(
            single > 0 && per_candidate > 0 && sparse > 0 && generic > 0,
            "classes: {single} {per_candidate} {sparse} {generic}"
        );
    }

    #[test]
    fn classed_profile_shrinks_preserve_label_classes() {
        let g = classed_profile_with_degenerates(2..=6, 5, 3);
        let profile = vec![
            BucketOrder::trivial(5),
            BucketOrder::from_keys(&[2, 1, 3, 1, 2]),
        ];
        // Single-class labeling: every shrink stays single-class, and
        // labels always track the (possibly smaller) domain.
        for (p, l) in g.shrink(&(profile.clone(), vec![3; 5])) {
            assert_eq!(l.len(), p[0].len());
            assert!(p.iter().all(|v| v.len() == l.len()));
            let first = l[0];
            assert!(l.iter().all(|&x| x == first), "single-class split: {l:?}");
        }
        // One-candidate-per-class: labels stay pairwise distinct.
        for (p, l) in g.shrink(&(profile.clone(), vec![4, 0, 3, 1, 2])) {
            assert_eq!(l.len(), p[0].len());
            let mut uniq = l.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), l.len(), "classes merged: {l:?}");
        }
        // Sparse ids offer the dense relabeling, which keeps the same
        // number of classes.
        let sparse = vec![9u32, 2, 9, 16, 2];
        let shrinks = g.shrink(&(profile, sparse.clone()));
        let relabeled = shrinks
            .iter()
            .find(|(_, l)| l.len() == 5 && l.iter().max() < sparse.iter().max())
            .expect("dense relabeling proposed");
        assert_eq!(relabeled.1, vec![1, 0, 1, 2, 0]);
    }

    /// Simulates an edit script's live-voter count, reporting the
    /// degenerate trajectories it exercises.
    fn script_trajectory(script: &[EditOp]) -> (bool, bool, bool) {
        let (mut live, mut peak) = (0usize, 0usize);
        let (mut hits_empty_edit, mut drains_after_life) = (false, false);
        for op in script {
            match op {
                EditOp::Push(_) => live += 1,
                EditOp::Remove(_) => {
                    if live == 0 {
                        hits_empty_edit = true;
                    } else {
                        live -= 1;
                        if live == 0 && peak > 0 {
                            drains_after_life = true;
                        }
                    }
                }
                EditOp::Replace(_, _) => {
                    if live == 0 {
                        hits_empty_edit = true;
                    }
                }
            }
            peak = peak.max(live);
        }
        let has_duplicate_push = script.iter().enumerate().any(|(i, op)| match op {
            EditOp::Push(r) => script[..i].iter().any(|p| p == &EditOp::Push(r.clone())),
            _ => false,
        });
        (hits_empty_edit, drains_after_life, has_duplicate_push)
    }

    #[test]
    fn edit_script_gen_hits_every_class() {
        let g = edit_script_with_degenerates(3..=10, 6, 3);
        let mut rng = Pcg32::seed_from_u64(8);
        let (mut empty_edit, mut drained, mut duplicates, mut single_churn) = (0, 0, 0, 0);
        for _ in 0..400 {
            let script = g.generate(&mut rng);
            assert!(
                script.iter().any(|op| matches!(op, EditOp::Push(_))),
                "every script must push at least once"
            );
            for op in &script {
                if let EditOp::Push(r) | EditOp::Replace(_, r) = op {
                    assert_eq!(r.len(), 6, "rankings must share the domain");
                }
            }
            let (e, d, dup) = script_trajectory(&script);
            empty_edit += e as u32;
            drained += d as u32;
            duplicates += dup as u32;
            let pushes = script
                .iter()
                .filter(|op| matches!(op, EditOp::Push(_)))
                .count();
            let replaces = script
                .iter()
                .filter(|op| matches!(op, EditOp::Replace(_, _)))
                .count();
            single_churn += (pushes == 1 && replaces >= 2) as u32;
        }
        assert!(
            empty_edit > 0 && drained > 0 && duplicates > 0 && single_churn > 0,
            "classes: {empty_edit} {drained} {duplicates} {single_churn}"
        );
    }

    #[test]
    fn edit_script_shrinks_stay_in_support() {
        let g = edit_script_with_degenerates(3..=10, 5, 3);
        let dup = BucketOrder::from_keys(&[2, 1, 3, 1, 2]);
        let v = vec![
            EditOp::Push(dup.clone()),
            EditOp::Push(dup.clone()),
            EditOp::Remove(5),
            EditOp::Replace(3, BucketOrder::from_keys(&[1, 2, 2, 1, 3])),
        ];
        let distinct = |s: &[EditOp]| {
            let mut vals: Vec<&BucketOrder> = Vec::new();
            for op in s {
                if let EditOp::Push(r) | EditOp::Replace(_, r) = op {
                    if !vals.contains(&r) {
                        vals.push(r);
                    }
                }
            }
            vals.len()
        };
        let shrinks = g.shrink(&v);
        assert!(!shrinks.is_empty());
        for s in &shrinks {
            assert!(
                s.iter().any(|op| matches!(op, EditOp::Push(_))),
                "shrinking must keep at least one push"
            );
            let mut domain = None;
            for op in s {
                if let EditOp::Push(r) | EditOp::Replace(_, r) = op {
                    assert_eq!(*domain.get_or_insert(r.len()), r.len());
                }
            }
            // Class preservation: coordinated removals and value-wide
            // merges never split a duplicate pair into distinct values.
            assert!(distinct(s) <= distinct(&v), "duplicate pushes diverged");
        }
        // A lone push never disappears.
        let lone = vec![EditOp::Push(dup), EditOp::Remove(0)];
        for s in g.shrink(&lone) {
            assert!(s.iter().any(|op| matches!(op, EditOp::Push(_))));
        }
    }

    #[test]
    #[should_panic]
    fn edit_script_gen_rejects_empty_op_range() {
        let _ = edit_script_with_degenerates(0..=4, 5, 3);
    }

    #[test]
    #[should_panic]
    fn profile_gen_rejects_empty_voter_range() {
        let _ = profile_with_degenerates(0..=3, 5, 3);
    }

    #[test]
    #[should_panic]
    fn bucket_order_rejects_empty_domain() {
        let _ = bucket_order(0, 3);
    }

    #[test]
    #[should_panic]
    fn order_pair_rejects_empty_domain() {
        let _ = order_pair(0, 3);
    }

    #[test]
    #[should_panic]
    fn degenerate_pair_rejects_empty_domain() {
        let _ = order_pair_with_degenerates(0, 3);
    }

    #[test]
    #[should_panic]
    fn weights_gen_rejects_empty_domain() {
        weights_with_degenerates(0);
    }

    #[test]
    #[should_panic]
    fn full_ranking_rejects_empty_domain() {
        let _ = full_ranking(0);
    }
}
