//! Layout conformance for [`BucketOrder`]: every constructor and
//! transform is held against a nested-`Vec` reference built here from
//! the definitions alone (group elements by key, one `Vec` per bucket,
//! each bucket ascending), and every accessor is read against that
//! reference: the bucket list, `bucket_indices`, positions (the paper's
//! `pos(B_i) = Σ_{j<i}|B_j| + (|B_i|+1)/2`), `type_seq`, the flat
//! `by_rank`/`bucket_starts` arrays and `display`.
//!
//! Keys come in every type the constructors see in practice: dense,
//! sparse and near-`u32::MAX` `u32`s, `i64`s with negatives and
//! [`Pos`] half-units, over all-tied, all-distinct and random-level
//! profiles on every n in `0..=64`. Equal orders built by different
//! routes must compare equal and hash equal. The `Buckets` view and
//! `from_buckets`' error precedence on inputs with several faults are
//! pinned explicitly.
//!
//! `from_u32_keys` and `induced_ranking` rank keys spanning at most
//! `4n` values by a counting scatter and wider keys by the comparison
//! sort; both routes, and the boundary between them, must equal
//! `from_keys`. `project_to_type` (ranked by counting, cut buckets laid
//! out by a second scatter) must equal the sort-based
//! `bucketrank_bench::oracle::project_to_type`, on scores whose ties
//! straddle the cuts.

use bucketrank::core::consistent::{induced_ranking, project_to_type};
use bucketrank::core::CoreError;
use bucketrank::{BucketOrder, BucketOrderBuilder, ElementId, Pos, TypeSeq};
use bucketrank_bench::oracle;
use bucketrank_testkit::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// The reference layout: buckets in rank order, one `Vec` each.
type Nested = Vec<Vec<ElementId>>;

/// Reference `from_keys`: one bucket per distinct key, in key order
/// (reversed for `desc`), each holding its ids ascending.
fn nested_from_keys<K: Ord>(keys: &[K], desc: bool) -> Nested {
    let mut by_key: BTreeMap<&K, Vec<ElementId>> = BTreeMap::new();
    for (e, k) in keys.iter().enumerate() {
        by_key.entry(k).or_default().push(e as ElementId);
    }
    let buckets: Nested = by_key.into_values().collect();
    if desc {
        buckets.into_iter().rev().collect()
    } else {
        buckets
    }
}

/// Sorts every bucket ascending, the canonical stored form.
fn canonical(mut buckets: Nested) -> Nested {
    for b in &mut buckets {
        b.sort_unstable();
    }
    buckets
}

fn reference_display(buckets: &Nested) -> String {
    let inner: Vec<String> = buckets
        .iter()
        .map(|b| b.iter().map(u32::to_string).collect::<Vec<_>>().join(" "))
        .collect();
    format!("[{}]", inner.join(" | "))
}

fn hash_of(o: &BucketOrder) -> u64 {
    let mut h = DefaultHasher::new();
    o.hash(&mut h);
    h.finish()
}

/// Every accessor of `o` against the reference bucket list.
fn assert_layout(o: &BucketOrder, reference: &Nested, route: &str) {
    let n: usize = reference.iter().map(Vec::len).sum();
    assert_eq!(o.len(), n, "{route}: len");
    assert_eq!(o.is_empty(), n == 0, "{route}: is_empty");
    assert_eq!(o.num_buckets(), reference.len(), "{route}: num_buckets");
    let got: Nested = o.buckets().iter().map(<[u32]>::to_vec).collect();
    assert_eq!(&got, reference, "{route}: buckets");

    let mut bucket_of = vec![u32::MAX; n];
    let mut positions = vec![Pos::from_half_units(0); n];
    let mut by_rank = Vec::with_capacity(n);
    let mut starts = vec![0u32];
    let mut before = 0usize;
    for (bi, b) in reference.iter().enumerate() {
        // pos(B_i) in half-units: 2·Σ_{j<i}|B_j| + |B_i| + 1.
        let pos = Pos::from_half_units((2 * before + b.len() + 1) as i64);
        assert_eq!(o.bucket_position(bi), pos, "{route}: bucket_position({bi})");
        for &e in b {
            bucket_of[e as usize] = bi as u32;
            positions[e as usize] = pos;
        }
        by_rank.extend_from_slice(b);
        before += b.len();
        starts.push(before as u32);
    }
    assert_eq!(
        o.bucket_indices(),
        &bucket_of[..],
        "{route}: bucket_indices"
    );
    assert_eq!(o.positions(), positions, "{route}: positions");
    for e in 0..n as ElementId {
        assert_eq!(
            o.position(e),
            positions[e as usize],
            "{route}: position({e})"
        );
        assert_eq!(o.bucket_index(e), bucket_of[e as usize] as usize);
    }
    assert_eq!(o.by_rank(), &by_rank[..], "{route}: by_rank");
    assert_eq!(o.bucket_starts(), &starts[..], "{route}: bucket_starts");
    let sizes: Vec<usize> = reference.iter().map(Vec::len).collect();
    assert_eq!(o.type_seq().sizes(), &sizes[..], "{route}: type_seq");
    assert_eq!(
        o.display(),
        reference_display(reference),
        "{route}: display"
    );
    assert_eq!(o.is_full(), reference.len() == n, "{route}: is_full");
    let ranked: Vec<(usize, ElementId)> = reference
        .iter()
        .enumerate()
        .flat_map(|(bi, b)| b.iter().map(move |&e| (bi, e)))
        .collect();
    assert_eq!(
        o.iter_ranked().collect::<Vec<_>>(),
        ranked,
        "{route}: iter_ranked"
    );
    assert_eq!(
        o.as_permutation(),
        (reference.len() == n).then(|| by_rank.clone()),
        "{route}: as_permutation"
    );
}

/// Asserts `a == b` and equal hashes for two routes to one order.
fn assert_same(a: &BucketOrder, b: &BucketOrder, route: &str) {
    assert_eq!(a, b, "{route}");
    assert_eq!(hash_of(a), hash_of(b), "{route}: hash");
}

/// Every transform of `o` (whose reference is `reference`) against the
/// reference transform, plus the other routes to `o` itself.
fn assert_transforms(o: &BucketOrder, reference: &Nested, rng: &mut Pcg32) {
    let n = o.len();

    let rebuilt = BucketOrder::from_buckets(n, reference.clone()).unwrap();
    assert_layout(&rebuilt, reference, "from_buckets");
    assert_same(o, &rebuilt, "from_buckets route");

    // Buckets pushed in shuffled order inside each bucket come out
    // ascending.
    let mut builder = BucketOrderBuilder::new(n);
    for b in reference {
        let mut shuffled = b.clone();
        shuffled.shuffle(rng);
        builder.push_bucket(shuffled);
    }
    assert_same(o, &builder.finish().unwrap(), "builder route");

    let alpha = o.type_seq();
    let projected = project_to_type(&o.positions(), &alpha).unwrap();
    assert_layout(&projected, reference, "project_to_type of own positions");
    assert_same(o, &projected, "project_to_type route");

    let reversed: Nested = reference.iter().rev().cloned().collect();
    assert_layout(&o.reverse(), &reversed, "reverse");
    assert_same(o, &o.reverse().reverse(), "reverse twice");

    let full: Nested = reference.iter().flatten().map(|&e| vec![e]).collect();
    let refined = o.arbitrary_full_refinement();
    assert_layout(&refined, &full, "arbitrary_full_refinement");
    let perm: Vec<ElementId> = reference.iter().flatten().copied().collect();
    assert_same(
        &refined,
        &BucketOrder::from_permutation(&perm).unwrap(),
        "from_permutation route",
    );

    // A random subset, renumbered in shuffled order.
    let mut keep: Vec<ElementId> = (0..n as ElementId).collect();
    keep.shuffle(rng);
    keep.truncate(rng.gen_range(0..=n));
    let mut new_id = vec![None; n];
    for (i, &e) in keep.iter().enumerate() {
        new_id[e as usize] = Some(i as ElementId);
    }
    let restricted: Nested = canonical(
        reference
            .iter()
            .map(|b| {
                b.iter()
                    .filter_map(|&e| new_id[e as usize])
                    .collect::<Vec<_>>()
            })
            .filter(|b| !b.is_empty())
            .collect(),
    );
    assert_layout(&o.restrict(&keep).unwrap(), &restricted, "restrict");
    let all: Vec<ElementId> = (0..n as ElementId).collect();
    assert_same(
        o,
        &o.restrict(&all).unwrap(),
        "restrict to the whole domain",
    );
}

/// `from_keys`, or `from_keys_desc` when `desc`.
fn keyed<K: Ord>(keys: &[K], desc: bool) -> BucketOrder {
    if desc {
        BucketOrder::from_keys_desc(keys)
    } else {
        BucketOrder::from_keys(keys)
    }
}

/// Every key type over one level profile: each `from_keys` and
/// `from_keys_desc` against the reference, and every transform.
fn check_levels(levels: &[u32], rng: &mut Pcg32) {
    let dense = levels.to_vec();
    let sparse: Vec<u32> = levels
        .iter()
        .map(|&l| l.wrapping_mul(0x9E37_79B9))
        .collect();
    let near_max: Vec<u32> = levels.iter().map(|&l| u32::MAX - l).collect();
    let signed: Vec<i64> = levels
        .iter()
        .map(|&l| (i64::from(l) - 8) * 1_000_000_007)
        .collect();
    let pos: Vec<Pos> = levels
        .iter()
        .map(|&l| Pos::from_half_units(i64::from(l) - 5))
        .collect();

    let base = BucketOrder::from_keys(&dense);
    let reference = nested_from_keys(&dense, false);
    assert_layout(&base, &reference, "from_keys dense u32");
    assert_layout(
        &keyed(&dense, true),
        &nested_from_keys(&dense, true),
        "from_keys_desc dense u32",
    );
    for desc in [false, true] {
        let route = |kind: &str| format!("from_keys desc={desc} {kind}");
        assert_layout(
            &keyed(&sparse, desc),
            &nested_from_keys(&sparse, desc),
            &route("sparse u32"),
        );
        assert_layout(
            &keyed(&near_max, desc),
            &nested_from_keys(&near_max, desc),
            &route("near-max u32"),
        );
        assert_layout(
            &keyed(&signed, desc),
            &nested_from_keys(&signed, desc),
            &route("i64"),
        );
        assert_layout(
            &keyed(&pos, desc),
            &nested_from_keys(&pos, desc),
            &route("Pos"),
        );
    }
    // The counting routes agree with the sort whatever the span: dense
    // levels are ranked by counting, sparse and near-max keys by the
    // sort, and `Pos` half-units through `induced_ranking`.
    for (keys, kind) in [(&dense, "dense"), (&sparse, "sparse"), (&near_max, "near-max")] {
        let route = format!("from_u32_keys {kind}");
        assert_same(&BucketOrder::from_keys(keys), &BucketOrder::from_u32_keys(keys), &route);
    }
    assert_same(&base, &induced_ranking(&pos), "induced_ranking route");
    // `u32::MAX − l` descending, and `i64` keys descending, rank like
    // the dense keys ascending.
    assert_same(
        &base,
        &BucketOrder::from_keys_desc(&near_max),
        "near-max desc route",
    );
    assert_same(&base, &BucketOrder::from_keys(&signed), "i64 route");
    assert_same(&base, &BucketOrder::from_keys(&pos), "Pos route");
    assert_transforms(&base, &reference, rng);

    // Projection onto another type: the cuts fall inside runs of tied
    // scores, where the lower ids go first.
    let alpha = base.reverse().type_seq();
    let mut by_score: Vec<ElementId> = (0..levels.len() as ElementId).collect();
    by_score.sort_by_key(|&e| (pos[e as usize], e));
    let mut cut = Vec::new();
    let mut rest = &by_score[..];
    for &size in alpha.sizes() {
        let (bucket, tail) = rest.split_at(size);
        cut.push(bucket.to_vec());
        rest = tail;
    }
    assert_layout(
        &project_to_type(&pos, &alpha).unwrap(),
        &canonical(cut),
        "project_to_type onto the reversed type",
    );
}

/// Random level profiles: all-tied, all-distinct, or `1..=n+1` levels.
fn random_levels(rng: &mut Pcg32, n: usize) -> Vec<u32> {
    match rng.gen_range(0..4u32) {
        0 => vec![rng.gen_range(0..=16u32); n],
        1 => {
            let mut ids: Vec<u32> = (0..n as u32).collect();
            ids.shuffle(rng);
            ids
        }
        _ => {
            let levels = rng.gen_range(1..=n as u32 + 1);
            (0..n).map(|_| rng.gen_range(0..levels)).collect()
        }
    }
}

#[test]
fn every_constructor_matches_the_nested_reference_on_every_n() {
    let mut rng = Pcg32::seed_from_u64(0x1A70_u64);
    for n in 0..=64usize {
        check_levels(&vec![3; n], &mut rng);
        let distinct: Vec<u32> = (0..n as u32).rev().collect();
        check_levels(&distinct, &mut rng);
        let levels = random_levels(&mut rng, n);
        check_levels(&levels, &mut rng);
    }
}

#[test]
fn random_key_profiles_match_the_nested_reference() {
    let gen = gen::from_fn(|rng: &mut Pcg32| {
        let n = rng.gen_range(0..=64usize);
        random_levels(rng, n)
    });
    check("bucket_order_layout/random_keys", gen, |levels| {
        let mut rng = Pcg32::seed_from_u64(levels.len() as u64);
        check_levels(levels, &mut rng);
    });
}

#[test]
fn top_k_trivial_and_identity_match_the_reference() {
    let mut rng = Pcg32::seed_from_u64(0x70_4B);
    for n in 0..=64usize {
        let tied: Nested = if n == 0 {
            vec![]
        } else {
            vec![(0..n as u32).collect()]
        };
        assert_layout(&BucketOrder::trivial(n), &tied, "trivial");
        let singles: Nested = (0..n as u32).map(|e| vec![e]).collect();
        assert_layout(&BucketOrder::identity(n), &singles, "identity");
        assert_transforms(&BucketOrder::trivial(n), &tied, &mut rng);

        for k in [0, n / 2, n.saturating_sub(1), n] {
            let mut ids: Vec<u32> = (0..n as u32).collect();
            ids.shuffle(&mut rng);
            let top = &ids[..k];
            let mut reference: Nested = top.iter().map(|&e| vec![e]).collect();
            let mut rest = ids[k..].to_vec();
            rest.sort_unstable();
            if !rest.is_empty() {
                reference.push(rest);
            }
            let order = BucketOrder::top_k(n, top).unwrap();
            assert_layout(&order, &reference, "top_k");
            if n > 0 {
                // k = n − 1 leaves a singleton bottom bucket: a full ranking.
                let expected = if k + 1 == n { n } else { k };
                assert_eq!(order.top_k_len(), Some(expected), "top_k_len n={n} k={k}");
            }
            assert_transforms(&order, &reference, &mut rng);
        }
    }
}

/// `from_u32_keys` and the `Pos` route through `induced_ranking` must
/// equal `from_keys`, and the nested reference, on `keys`.
fn check_counting_route(keys: &[u32], route: &str) {
    let reference = nested_from_keys(keys, false);
    let sorted = BucketOrder::from_keys(keys);
    let counted = BucketOrder::from_u32_keys(keys);
    assert_layout(&counted, &reference, route);
    assert_same(&sorted, &counted, route);
    let pos: Vec<Pos> = keys.iter().map(|&k| Pos::from_half_units(i64::from(k))).collect();
    assert_same(&sorted, &induced_ranking(&pos), &format!("{route}, Pos"));
}

#[test]
fn counting_routes_match_from_keys_at_their_bounds() {
    let mut rng = Pcg32::seed_from_u64(0x5CA7);
    for n in 0..=64usize {
        let nn = n as u32;
        // A span of exactly 4n takes the scatter, 4n + 1 the sort: both
        // end keys present, random keys in between.
        for span in [4 * nn, 4 * nn + 1] {
            let mut keys: Vec<u32> = (0..nn).map(|_| 7 + rng.gen_range(0..=span)).collect();
            if n >= 2 {
                keys[0] = 7;
                keys[n - 1] = 7 + span;
            }
            keys.shuffle(&mut rng);
            check_counting_route(&keys, &format!("span {span} at n = {n}"));
        }
        // All keys equal: one bucket, span zero.
        check_counting_route(&vec![u32::MAX; n], &format!("all equal at n = {n}"));
        check_counting_route(&vec![0; n], &format!("all zero at n = {n}"));
        // Sparse keys near u32::MAX: the sort fallback.
        let sparse: Vec<u32> = (0..nn).map(|_| u32::MAX - rng.gen_range(0..8) * 0x0100_0000).collect();
        check_counting_route(&sparse, &format!("sparse near max at n = {n}"));
    }
    // n ∈ {0, 1} over the extreme keys.
    check_counting_route(&[], "n = 0");
    for k in [0, 1, u32::MAX] {
        check_counting_route(&[k], &format!("n = 1, key {k}"));
    }
    // Two keys at the ends of the u32 range: the widest span.
    check_counting_route(&[u32::MAX, 0], "0 and u32::MAX");
}

/// Cut points placed inside every run of tied scores (ranked by score,
/// ties by id), then the sizes between them: each cut splits a tie.
fn straddling_type(f: &[Pos]) -> TypeSeq {
    let mut sorted = f.to_vec();
    sorted.sort_unstable();
    let mut cuts = vec![0];
    for r in 1..sorted.len() {
        if sorted[r] == sorted[r - 1] && (r < 2 || sorted[r - 2] != sorted[r - 1]) {
            cuts.push(r);
        }
    }
    cuts.push(f.len());
    cuts.dedup();
    TypeSeq::new(cuts.windows(2).map(|w| w[1] - w[0]).filter(|&s| s > 0).collect()).unwrap()
}

#[test]
fn project_to_type_matches_the_sort_based_oracle() {
    let gen = gen::from_fn(|rng: &mut Pcg32| {
        let n = rng.gen_range(0..=64usize);
        // Few levels make ties; a wide multiplier forces the sort.
        let levels = rng.gen_range(1..=n as i64 + 1);
        let scale = if rng.gen_range(0..4u32) == 0 { 1_000_003 } else { 1 };
        let f: Vec<i64> = (0..n).map(|_| 2 + rng.gen_range(0..levels) * scale).collect();
        let mut sizes = Vec::new();
        let mut left = n;
        while left > 0 {
            let s = rng.gen_range(1..=left);
            sizes.push(s);
            left -= s;
        }
        (f, sizes)
    });
    check("bucket_order_layout/project_to_type", gen, |(f, sizes)| {
        let f: Vec<Pos> = f.iter().map(|&h| Pos::from_half_units(h)).collect();
        let n = f.len();
        let mut types = vec![
            TypeSeq::new(sizes.clone()).unwrap(),
            straddling_type(&f),
            TypeSeq::full(n),
        ];
        types.extend((0..=n).map(|k| TypeSeq::top_k(n, k).unwrap()));
        for alpha in &types {
            let got = project_to_type(&f, alpha).unwrap();
            let want = oracle::project_to_type(&f, alpha).unwrap();
            assert_same(&got, &want, &format!("project_to_type onto {:?}", alpha.sizes()));
        }
        let wrong = TypeSeq::full(n + 1);
        assert_eq!(
            project_to_type(&f, &wrong),
            oracle::project_to_type(&f, &wrong),
            "type size mismatch"
        );
    });
}

#[test]
fn buckets_view_indexes_and_iterates_like_a_slice() {
    let o = BucketOrder::from_buckets(6, vec![vec![4], vec![5, 0, 2], vec![1], vec![3]]).unwrap();
    let b = o.buckets();
    assert_eq!(b.len(), 4);
    assert!(!b.is_empty());
    assert_eq!(&b[0], &[4]);
    assert_eq!(&b[1], &[0, 2, 5]);
    assert_eq!(b.get(3), Some(&[3][..]));
    assert_eq!(b.get(4), None);
    assert_eq!(b.get(usize::MAX), None);
    assert_eq!(b.last(), Some(&[3][..]));
    let it = b.iter();
    assert_eq!(it.len(), 4);
    let back: Vec<&[u32]> = b.iter().rev().collect();
    assert_eq!(back, [&[3][..], &[1], &[0, 2, 5], &[4]]);
    let mut both = b.iter();
    assert_eq!(both.next(), Some(&[4][..]));
    assert_eq!(both.next_back(), Some(&[3][..]));
    assert_eq!(both.len(), 2);
    let skipped: Vec<&[u32]> = b.iter().skip(1).take(2).collect();
    assert_eq!(skipped, [&[0, 2, 5][..], &[1]]);
    assert_eq!(b.iter().nth(2), Some(&[1][..]));
    assert_eq!(b.iter().nth(4), None);
    let mut count = 0;
    for bucket in b {
        count += bucket.len();
    }
    assert_eq!(count, 6);
    assert_eq!(format!("{b:?}"), "[[4], [0, 2, 5], [1], [3]]");

    let empty = BucketOrder::trivial(0);
    let e = empty.buckets();
    assert_eq!(e.len(), 0);
    assert!(e.is_empty());
    assert_eq!(e.get(0), None);
    assert_eq!(e.last(), None);
    assert_eq!(e.iter().next(), None);
    assert_eq!(e.iter().next_back(), None);
}

#[test]
#[should_panic]
fn buckets_view_index_out_of_range_panics() {
    let o = BucketOrder::from_keys(&[1, 1, 2]);
    let _ = &o.buckets()[2];
}

#[test]
fn from_buckets_reports_the_first_fault_in_bucket_order() {
    let cases: Vec<(usize, Nested, CoreError)> = vec![
        // A duplicate inside bucket 0 comes before the empty bucket 1.
        (
            3,
            vec![vec![0, 0], vec![], vec![1, 2]],
            CoreError::DuplicateElement { element: 0 },
        ),
        // An empty bucket comes before a later duplicate.
        (
            2,
            vec![vec![0], vec![], vec![0]],
            CoreError::EmptyBucket { index: 1 },
        ),
        // Within a bucket, elements are checked left to right.
        (
            2,
            vec![vec![5, 0, 0]],
            CoreError::ElementOutOfRange {
                element: 5,
                domain_size: 2,
            },
        ),
        (
            2,
            vec![vec![0, 0, 5]],
            CoreError::DuplicateElement { element: 0 },
        ),
        // A duplicate across buckets, then an out-of-range element.
        (
            3,
            vec![vec![1], vec![1, 9]],
            CoreError::DuplicateElement { element: 1 },
        ),
        // An empty or out-of-range bucket wins over a missing element.
        (
            3,
            vec![vec![0], vec![]],
            CoreError::EmptyBucket { index: 1 },
        ),
        (
            4,
            vec![vec![0], vec![7]],
            CoreError::ElementOutOfRange {
                element: 7,
                domain_size: 4,
            },
        ),
        // The smallest missing element is reported.
        (
            5,
            vec![vec![4], vec![1]],
            CoreError::MissingElement { element: 0 },
        ),
        (
            5,
            vec![vec![0, 4], vec![1]],
            CoreError::MissingElement { element: 2 },
        ),
        // An empty first bucket on an empty domain.
        (0, vec![vec![]], CoreError::EmptyBucket { index: 0 }),
    ];
    for (n, buckets, expected) in cases {
        let mut builder = BucketOrderBuilder::new(n);
        for b in &buckets {
            builder.push_bucket(b.iter().copied());
        }
        assert_eq!(
            builder.finish(),
            Err(expected.clone()),
            "builder {buckets:?}"
        );
        assert_eq!(
            BucketOrder::from_buckets(n, buckets.clone()),
            Err(expected),
            "from_buckets {buckets:?}"
        );
    }
}

#[test]
fn other_constructors_keep_their_error_precedence() {
    assert_eq!(
        BucketOrder::from_permutation(&[1, 1, 7]),
        Err(CoreError::DuplicateElement { element: 1 })
    );
    assert_eq!(
        BucketOrder::from_permutation(&[7, 1, 1]),
        Err(CoreError::ElementOutOfRange {
            element: 7,
            domain_size: 3
        })
    );
    assert_eq!(
        BucketOrder::top_k(2, &[5, 0, 0]),
        Err(CoreError::InvalidK {
            k: 3,
            domain_size: 2
        })
    );
    assert_eq!(
        BucketOrder::top_k(3, &[0, 9, 0]),
        Err(CoreError::ElementOutOfRange {
            element: 9,
            domain_size: 3
        })
    );
    assert_eq!(
        BucketOrder::top_k(3, &[0, 0, 9]),
        Err(CoreError::DuplicateElement { element: 0 })
    );
    let o = BucketOrder::from_keys(&[2, 1, 2, 0]);
    assert_eq!(
        o.restrict(&[3, 3, 8]),
        Err(CoreError::DuplicateElement { element: 3 })
    );
    assert_eq!(
        o.restrict(&[8, 3, 3]),
        Err(CoreError::ElementOutOfRange {
            element: 8,
            domain_size: 4
        })
    );
}
