//! Uniform random ranking generators.

use bucketrank_core::{BucketOrder, BucketOrderBuilder, ElementId, TypeSeq};
use bucketrank_testkit::rng::SliceRandom;
use bucketrank_testkit::rng::Rng;

/// A uniformly random permutation of the domain, as a full ranking.
pub fn random_full_ranking<R: Rng + ?Sized>(rng: &mut R, n: usize) -> BucketOrder {
    let mut ids: Vec<ElementId> = (0..n as ElementId).collect();
    ids.shuffle(rng);
    BucketOrder::from_permutation(&ids).expect("shuffled ids form a permutation")
}

/// A random bucket order of the given type: a uniformly random assignment
/// of the domain into buckets of the prescribed sizes.
///
/// # Panics
/// Panics if the type does not sum to `n`.
pub fn random_of_type<R: Rng + ?Sized>(rng: &mut R, n: usize, alpha: &TypeSeq) -> BucketOrder {
    assert_eq!(
        alpha.domain_size(),
        n,
        "type must cover the domain exactly"
    );
    let mut ids: Vec<ElementId> = (0..n as ElementId).collect();
    ids.shuffle(rng);
    cut_into_type(&ids, alpha)
}

/// Cuts `ranked`, the domain in rank order, into consecutive buckets of
/// the sizes `alpha` prescribes.
pub(crate) fn cut_into_type(ranked: &[ElementId], alpha: &TypeSeq) -> BucketOrder {
    let mut order = BucketOrderBuilder::new(ranked.len());
    let mut rest = ranked;
    for &s in alpha.sizes() {
        let (bucket, tail) = rest.split_at(s);
        order.push_bucket(bucket.iter().copied());
        rest = tail;
    }
    order.finish().expect("type partitions the domain")
}

/// A random bucket order with approximately `buckets` buckets: each
/// element independently draws one of `buckets` levels, empty levels are
/// dropped. Models a few-valued attribute with uniform value frequencies.
///
/// # Panics
/// Panics if `buckets == 0` while `n > 0`.
pub fn random_few_valued<R: Rng + ?Sized>(rng: &mut R, n: usize, buckets: usize) -> BucketOrder {
    if n == 0 {
        return BucketOrder::trivial(0);
    }
    assert!(buckets > 0, "need at least one level");
    let keys: Vec<usize> = (0..n).map(|_| rng.gen_range(0..buckets)).collect();
    BucketOrder::from_keys(&keys)
}

/// A random bucket order with levels drawn from a Zipf-like distribution
/// (`P(level = i) ∝ 1/(i+1)^s`): models skewed attribute values such as
/// "number of connections", where most records share the few small
/// values.
///
/// # Panics
/// Panics if `buckets == 0` while `n > 0`.
pub fn random_zipf_valued<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    buckets: usize,
    s: f64,
) -> BucketOrder {
    if n == 0 {
        return BucketOrder::trivial(0);
    }
    assert!(buckets > 0, "need at least one level");
    let weights: Vec<f64> = (0..buckets).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let keys: Vec<usize> = (0..n)
        .map(|_| {
            let mut x = rng.gen_range(0.0..total);
            for (i, &w) in weights.iter().enumerate() {
                if x < w {
                    return i;
                }
                x -= w;
            }
            buckets - 1
        })
        .collect();
    BucketOrder::from_keys(&keys)
}

/// A precomputed Zipf sampler over indices `0..n`
/// (`P(i) ∝ 1/(i+1)^s`): built once in O(n), sampled in O(log n) by
/// binary search over the cumulative-weight table. Where
/// [`random_zipf_valued`] linearly scans a handful of bucket levels
/// per element, this is the shape for the server-bench hot loop —
/// thousands of sessions, one skewed index draw per request.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cum: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the cumulative table for `n` indices at exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one index");
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cum.push(acc);
        }
        ZipfSampler { cum }
    }

    /// Number of indices the sampler draws from.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// Always `false` (construction requires `n > 0`); provided for
    /// the conventional pairing with [`len`](ZipfSampler::len).
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// One index in `0..n`, Zipf-distributed: index 0 most likely.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cum.last().expect("table is nonempty");
        let x = rng.gen_range(0.0..total);
        // First index whose cumulative weight exceeds the draw; the
        // clamp guards the measure-zero x == total edge.
        self.cum.partition_point(|&c| c <= x).min(self.cum.len() - 1)
    }
}

/// A Zipf-distributed session name, `"u<index>"`: the server bench's
/// skewed "which user's session does this request touch" draw for the
/// million-user-day mix, where a small head of users produces most of
/// the traffic.
pub fn zipf_session_name<R: Rng + ?Sized>(sampler: &ZipfSampler, rng: &mut R) -> String {
    format!("u{}", sampler.sample(rng))
}

/// A uniformly random *type* (composition of `n`): each of the `n − 1`
/// gaps is independently a bucket boundary with probability `1/2`.
pub fn random_type<R: Rng + ?Sized>(rng: &mut R, n: usize) -> TypeSeq {
    if n == 0 {
        return TypeSeq::new(vec![]).expect("empty type is valid");
    }
    let mut sizes = Vec::new();
    let mut run = 1usize;
    for _ in 0..n - 1 {
        if rng.gen_bool(0.5) {
            sizes.push(run);
            run = 1;
        } else {
            run += 1;
        }
    }
    sizes.push(run);
    TypeSeq::new(sizes).expect("runs are nonempty")
}

/// A random bucket order on `n` elements: a uniformly random type
/// (composition), then a uniform assignment of elements into it.
///
/// Note this is uniform over `(type, assignment)` pairs, **not** over the
/// Fubini-many bucket orders (types with repeated sizes are mildly
/// underweighted relative to exact uniformity). That bias is irrelevant
/// for the fuzzing and sweep workloads here; use [`random_of_type`] with
/// an explicitly chosen type, or [`random_bucket_order_uniform`] for the
/// exactly uniform distribution (n ≤ 25), when the distribution matters.
pub fn random_bucket_order<R: Rng + ?Sized>(rng: &mut R, n: usize) -> BucketOrder {
    let t = random_type(rng, n);
    random_of_type(rng, n, &t)
}

/// An **exactly uniform** random bucket order on `n` elements (uniform
/// over all Fubini-many ordered set partitions), by sequential placement
/// with exact completion counts.
///
/// Let `f(i, t)` be the number of ways to place `i` further elements
/// given `t` existing buckets: `f(0, t) = 1` and
/// `f(i, t) = t·f(i−1, t) + (t+1)·f(i−1, t+1)` (join one of `t` buckets,
/// or open a new one in one of `t+1` gaps). Element `j` joins an existing
/// bucket with probability `t·f(remaining, t)/f(remaining+1, t)`, else
/// opens a new bucket in a uniform gap. Counts are exact in `u128`,
/// which bounds `n ≤ 25` (`fubini(25) < 2¹²⁸`).
///
/// # Panics
/// Panics if `n > 25`.
pub fn random_bucket_order_uniform<R: Rng + ?Sized>(rng: &mut R, n: usize) -> BucketOrder {
    assert!(n <= 25, "exact-uniform sampling limited to n ≤ 25");
    if n == 0 {
        return BucketOrder::trivial(0);
    }
    // f[i][t] for 0 ≤ i ≤ n−1, 1 ≤ t ≤ n (after the first element there
    // is always ≥ 1 bucket).
    let mut f = vec![vec![0u128; n + 2]; n];
    f[0].fill(1);
    for i in 1..n {
        for t in 1..=n + 1 - i {
            let join = (t as u128) * f[i - 1][t];
            let open = (t as u128 + 1) * f[i - 1][t + 1];
            f[i][t] = join + open;
        }
    }
    let mut buckets: Vec<Vec<ElementId>> = vec![vec![0]];
    for e in 1..n as ElementId {
        let remaining = n - 1 - e as usize; // elements after this one
        let t = buckets.len();
        let total = f[remaining + 1][t];
        let join_weight = (t as u128) * f[remaining][t];
        // Draw uniformly from 0..total via 64-bit halves (total < 2^128).
        let draw = {
            let hi = rng.gen::<u64>() as u128;
            let lo = rng.gen::<u64>() as u128;
            ((hi << 64) | lo) % total
        };
        if draw < join_weight {
            let bi = rng.gen_range(0..t);
            buckets[bi].push(e);
        } else {
            let gap = rng.gen_range(0..=t);
            buckets.insert(gap, vec![e]);
        }
    }
    BucketOrder::from_buckets(n, buckets).expect("placement covers the domain")
}

/// A random top-k list: a uniformly random `k`-subset in uniformly random
/// order, bottom bucket for the rest.
///
/// # Panics
/// Panics if `k > n`.
pub fn random_top_k<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> BucketOrder {
    assert!(k <= n, "k must not exceed n");
    let mut ids: Vec<ElementId> = (0..n as ElementId).collect();
    ids.shuffle(rng);
    BucketOrder::top_k(n, &ids[..k]).expect("shuffled prefix is distinct")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bucketrank_testkit::rng::Pcg32;
    use bucketrank_testkit::rng::SeedableRng;

    fn rng() -> Pcg32 {
        Pcg32::seed_from_u64(0xB0CA)
    }

    #[test]
    fn full_ranking_is_full() {
        let mut r = rng();
        for n in [0usize, 1, 2, 10, 50] {
            let s = random_full_ranking(&mut r, n);
            assert_eq!(s.len(), n);
            assert!(n == 0 || s.is_full());
        }
    }

    #[test]
    fn of_type_respects_type() {
        let mut r = rng();
        let alpha = TypeSeq::new(vec![2, 3, 1]).unwrap();
        for _ in 0..20 {
            let s = random_of_type(&mut r, 6, &alpha);
            assert_eq!(s.type_seq(), alpha);
        }
    }

    #[test]
    fn few_valued_bucket_count_bounded() {
        let mut r = rng();
        for _ in 0..20 {
            let s = random_few_valued(&mut r, 40, 4);
            assert!(s.num_buckets() <= 4);
            assert_eq!(s.len(), 40);
        }
    }

    #[test]
    fn zipf_skews_toward_top_levels() {
        let mut r = rng();
        let s = random_zipf_valued(&mut r, 2000, 10, 1.5);
        // The first bucket should hold the plurality of elements.
        let first = s.buckets()[0].len();
        assert!(
            first > 2000 / 10,
            "first bucket has {first} of 2000 — not skewed"
        );
    }

    #[test]
    fn zipf_sampler_matches_the_linear_scan_and_skews() {
        let sampler = ZipfSampler::new(1000, 1.1);
        assert_eq!(sampler.len(), 1000);
        assert!(!sampler.is_empty());
        // The binary search agrees with a by-hand linear scan of the
        // same cumulative table on a sweep of draws.
        let total = *sampler.cum.last().unwrap();
        for k in 0..500 {
            let x = total * (k as f64 + 0.5) / 500.0;
            let linear = sampler
                .cum
                .iter()
                .position(|&c| x < c)
                .unwrap_or(sampler.cum.len() - 1);
            let binary = sampler.cum.partition_point(|&c| c <= x).min(999);
            assert_eq!(binary, linear, "draw {x}");
        }
        // Skew: the head index dominates any single tail index.
        let mut r = rng();
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut r)] += 1;
        }
        assert!(counts[0] > 1000, "head index drew {} of 20000", counts[0]);
        assert!(counts[0] > 20 * counts[500].max(1));
        // Names are in range and deterministic under a fixed seed.
        let a = zipf_session_name(&sampler, &mut Pcg32::seed_from_u64(3));
        let b = zipf_session_name(&sampler, &mut Pcg32::seed_from_u64(3));
        assert_eq!(a, b);
        assert!(a.strip_prefix('u').unwrap().parse::<usize>().unwrap() < 1000);
    }

    #[test]
    #[should_panic(expected = "at least one index")]
    fn zipf_sampler_rejects_empty() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    fn random_type_covers_domain() {
        let mut r = rng();
        for _ in 0..50 {
            let t = random_type(&mut r, 12);
            assert_eq!(t.domain_size(), 12);
        }
        assert_eq!(random_type(&mut r, 0).num_buckets(), 0);
    }

    #[test]
    fn random_bucket_order_valid() {
        let mut r = rng();
        for n in [1usize, 2, 7, 30] {
            let s = random_bucket_order(&mut r, n);
            assert_eq!(s.len(), n);
        }
    }

    #[test]
    fn uniform_sampler_matches_fubini_distribution() {
        use bucketrank_core::fubini;
        use std::collections::HashMap;
        let mut r = rng();
        let n = 3;
        let total = fubini(n).unwrap() as usize; // 13 orders
        let trials = 13_000;
        let mut counts: HashMap<String, u32> = HashMap::new();
        for _ in 0..trials {
            let s = random_bucket_order_uniform(&mut r, n);
            *counts.entry(s.display()).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), total, "did not reach every order");
        let expected = trials as f64 / total as f64; // 1000
        let sigma = (expected * (1.0 - 1.0 / total as f64)).sqrt(); // ≈ 30.4
        for (order, &c) in &counts {
            assert!(
                (c as f64 - expected).abs() < 5.0 * sigma,
                "{order}: {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn uniform_sampler_valid_at_bounds() {
        let mut r = rng();
        assert!(random_bucket_order_uniform(&mut r, 0).is_empty());
        assert_eq!(random_bucket_order_uniform(&mut r, 1).len(), 1);
        let big = random_bucket_order_uniform(&mut r, 25);
        assert_eq!(big.len(), 25);
    }

    #[test]
    #[should_panic(expected = "n ≤ 25")]
    fn uniform_sampler_rejects_large_n() {
        let mut r = rng();
        let _ = random_bucket_order_uniform(&mut r, 26);
    }

    #[test]
    fn top_k_shape() {
        let mut r = rng();
        for _ in 0..20 {
            let s = random_top_k(&mut r, 9, 3);
            assert_eq!(s.top_k_len(), Some(3));
        }
        let f = random_top_k(&mut r, 4, 4);
        assert!(f.is_full());
    }

    #[test]
    fn determinism_under_seed() {
        let a = random_bucket_order(&mut Pcg32::seed_from_u64(7), 10);
        let b = random_bucket_order(&mut Pcg32::seed_from_u64(7), 10);
        assert_eq!(a, b);
    }
}
