//! End-to-end consistency of the access layer: MEDRANK (online, sorted
//! access) against offline median aggregation, access-cost bounds, and
//! the full fielded-search flow.

use bucketrank::access::medrank::{
    medrank_top_k, medrank_top_k_buckets, medrank_top_k_weighted, medrank_winner,
    top_k_from_medians,
};
use bucketrank::access::query::PreferenceQuery;
use bucketrank::access::RankingCursor;
use bucketrank::aggregate::dynamic::DynamicProfile;
use bucketrank::aggregate::median::{median_positions, MedianPolicy};
use bucketrank::workloads::datasets::{flight_query_specs, flights, restaurant_query_specs, restaurants};
use bucketrank::workloads::random::{random_few_valued, random_full_ranking};
use bucketrank::{BucketOrder, Pos};
use bucketrank_bench::oracle;
use bucketrank_testkit::prelude::{check, gen};
use bucketrank_testkit::rng::Pcg32;
use bucketrank_testkit::rng::{Rng, SeedableRng};

/// MEDRANK sees inputs through cursors that refine ties by element id;
/// its guarantees are therefore stated against the medians of those
/// *refined* positions. A strict majority (`count > m/2`) corresponds to
/// the **upper** median (for odd `m` the two medians coincide).
/// Every property in this suite is simultaneously flushed through the
/// streaming engine: the medians are computed both by the batch
/// rebuild and by a `DynamicProfile` built from incremental pushes,
/// and the two must agree exactly before either is used.
fn refined_median_positions(inputs: &[BucketOrder]) -> Vec<Pos> {
    let refined: Vec<BucketOrder> = inputs
        .iter()
        .map(BucketOrder::arbitrary_full_refinement)
        .collect();
    let batch = median_positions(&refined, MedianPolicy::Upper).unwrap();
    let (dp, _) = DynamicProfile::from_profile(&refined, MedianPolicy::Upper).unwrap();
    assert_eq!(
        dp.median_positions().unwrap(),
        batch,
        "incrementally maintained medians diverged from the batch rebuild"
    );
    batch
}

#[test]
fn winner_has_minimal_refined_median() {
    let mut rng = Pcg32::seed_from_u64(21);
    for _ in 0..200 {
        let n = rng.gen_range(2..=12);
        let m = rng.gen_range(1..=7usize) | 1; // odd for unique medians
        let inputs: Vec<BucketOrder> = (0..m)
            .map(|_| {
                let levels = rng.gen_range(1..=4);
                random_few_valued(&mut rng, n, levels)
            })
            .collect();
        let (w, _) = medrank_winner(&inputs).unwrap();
        let f = refined_median_positions(&inputs);
        let min = f.iter().min().copied().unwrap();
        assert_eq!(
            f[w as usize], min,
            "winner {w} lacks the minimal refined median: {f:?} inputs {inputs:?}"
        );
    }
}

#[test]
fn access_depth_matches_winner_median() {
    // MEDRANK's stopping round for the winner is exactly its median
    // refined position: a majority of cursors must descend that far, and
    // no further reading is performed after the k-th winner emerges.
    let mut rng = Pcg32::seed_from_u64(22);
    for _ in 0..100 {
        let n = rng.gen_range(2..=10);
        let m = rng.gen_range(1..=5usize) | 1;
        let inputs: Vec<BucketOrder> =
            (0..m).map(|_| random_full_ranking(&mut rng, n)).collect();
        let (w, stats) = medrank_winner(&inputs).unwrap();
        let f = refined_median_positions(&inputs);
        let med_rank = (f[w as usize].half_units() / 2) as u64;
        assert_eq!(
            stats.max_depth(),
            med_rank,
            "depth {} ≠ median rank {med_rank}",
            stats.max_depth()
        );
    }
}

#[test]
fn top_k_winners_match_offline_median_set() {
    // The *set* of top-k winners agrees with the k smallest refined
    // medians whenever those are strictly separated from the rest.
    let mut rng = Pcg32::seed_from_u64(23);
    let mut checked = 0;
    for _ in 0..300 {
        let n = rng.gen_range(3..=9);
        let m = rng.gen_range(1..=5usize) | 1;
        let k = rng.gen_range(1..=n);
        let inputs: Vec<BucketOrder> =
            (0..m).map(|_| random_full_ranking(&mut rng, n)).collect();
        let f = refined_median_positions(&inputs);
        let mut sorted = f.clone();
        sorted.sort();
        if k < n && sorted[k - 1] == sorted[k] {
            continue; // boundary tie: either resolution is valid
        }
        checked += 1;
        let r = medrank_top_k(&inputs, k).unwrap();
        let mut expected: Vec<u32> = (0..n as u32).collect();
        expected.sort_by_key(|&e| f[e as usize]);
        let mut got = r.top.clone();
        got.sort_unstable();
        let mut want = expected[..k].to_vec();
        want.sort_unstable();
        assert_eq!(got, want, "inputs {inputs:?} k {k}");
    }
    assert!(checked > 150, "too few unambiguous instances: {checked}");
}

#[test]
fn dynamic_engine_serves_medrank_top_k_without_access() {
    // A streaming engine that maintains medians under voter churn can
    // answer MEDRANK's query with zero sorted accesses: wherever the
    // k-th median is strictly separated, `top_k_from_medians` over the
    // dynamic medians selects the same winner set as the online
    // algorithm — including after in-place replace edits.
    let mut rng = Pcg32::seed_from_u64(28);
    let mut checked = 0;
    for round in 0..200 {
        let n = rng.gen_range(3..=9);
        let m = rng.gen_range(1..=5usize) | 1;
        let k = rng.gen_range(1..=n);
        let mut inputs: Vec<BucketOrder> =
            (0..m).map(|_| random_full_ranking(&mut rng, n)).collect();
        let (mut dp, ids) =
            DynamicProfile::from_profile(&inputs, MedianPolicy::Upper).unwrap();
        // Churn: replace one voter in place every other round, so the
        // served medians come from the incremental maintenance path.
        if round % 2 == 0 {
            let fresh = random_full_ranking(&mut rng, n);
            dp.replace_voter(ids[round % m], fresh.clone()).unwrap();
            inputs[round % m] = fresh;
        }
        let f = dp.median_positions().unwrap();
        assert_eq!(f, refined_median_positions(&inputs));
        let mut sorted = f.clone();
        sorted.sort();
        if k < n && sorted[k - 1] == sorted[k] {
            continue; // boundary tie: either winner set is valid
        }
        checked += 1;
        let mut served = top_k_from_medians(&f, k).unwrap();
        served.sort_unstable();
        let mut online = medrank_top_k(&inputs, k).unwrap().top;
        online.sort_unstable();
        assert_eq!(served, online, "inputs {inputs:?} k {k}");
    }
    assert!(checked > 100, "too few unambiguous instances: {checked}");
}

#[test]
fn medrank_never_reads_more_than_needed_sequentially() {
    // Depth is bounded by the round after the last winner emerged; in
    // particular never beyond n, and all sources advance in lockstep
    // (max spread 0 before exhaustion).
    let mut rng = Pcg32::seed_from_u64(24);
    for _ in 0..100 {
        let n = rng.gen_range(2..=15);
        let m = rng.gen_range(2..=6);
        let inputs: Vec<BucketOrder> = (0..m)
            .map(|_| random_few_valued(&mut rng, n, 3))
            .collect();
        let r = medrank_top_k(&inputs, 1).unwrap();
        let max = r.stats.max_depth();
        for &d in &r.stats.sorted_depth {
            assert!(d <= n as u64);
            assert_eq!(d, max, "cursors must move in lockstep");
        }
    }
}

#[test]
fn cursor_enumerates_refinement_positions() {
    // The cursor's delivery order is exactly the arbitrary full
    // refinement used by the offline comparison.
    let mut rng = Pcg32::seed_from_u64(25);
    for _ in 0..50 {
        let s = random_few_valued(&mut rng, 12, 4);
        let mut c = RankingCursor::new(&s);
        let refined = s.arbitrary_full_refinement();
        let perm = refined.as_permutation().unwrap();
        for &expect in &perm {
            assert_eq!(c.next(), Some(expect));
        }
        assert_eq!(c.next(), None);
    }
}

#[test]
fn restaurant_query_agrees_with_offline_median_on_winner() {
    let mut rng = Pcg32::seed_from_u64(26);
    let table = restaurants(&mut rng, 400);
    let q = PreferenceQuery::new(restaurant_query_specs()).with_k(1);
    let r = q.run(&table).unwrap();
    let f = refined_median_positions(&r.rankings);
    let min = f.iter().min().copied().unwrap();
    assert_eq!(f[r.top[0] as usize], min);
}

#[test]
fn flight_query_access_is_sublinear_on_average() {
    let mut rng = Pcg32::seed_from_u64(27);
    let n = 2000;
    let table = flights(&mut rng, n);
    let q = PreferenceQuery::new(flight_query_specs()).with_k(3);
    let r = q.run(&table).unwrap();
    let full_scan = (q.specs().len() * n) as u64;
    assert!(
        r.stats.total_accesses() * 2 < full_scan,
        "accesses {} not sublinear vs {}",
        r.stats.total_accesses(),
        full_scan
    );
}

#[test]
fn medrank_matches_the_declarative_oracle() {
    // The round loop against `oracle::medrank`, which states the rule per
    // element: the first round in which an element's delivered units
    // exceed half the total, winners by (round, id). Unit masses under
    // element and bucket delivery, and integer weights 1..=4 under
    // weighted MEDRANK; even profile sizes put masses at exactly half.
    check(
        "medrank_matches_the_declarative_oracle",
        gen::triple(
            gen::vec_of(gen::bucket_order(8, 4), 1..=7),
            gen::vec_of(gen::u32_in(1..=4), 7..=7),
            gen::usize_in(0..=8),
        ),
        |(inputs, weights, k)| {
            let n = inputs[0].len();
            let m = inputs.len();
            // Shrinking can split the domains or shorten the weights.
            if inputs.iter().any(|s| s.len() != n) || weights.len() < m {
                return;
            }
            let k = (*k).min(n);
            let ones = vec![1u128; m];
            let units: Vec<u128> = weights[..m].iter().map(|&w| u128::from(w)).collect();
            let floats: Vec<f64> = weights[..m].iter().map(|&w| f64::from(w)).collect();
            let lanes = [
                ("element", medrank_top_k(inputs, k), oracle::medrank(inputs, &ones, k, false)),
                ("bucket", medrank_top_k_buckets(inputs, k), oracle::medrank(inputs, &ones, k, true)),
                (
                    "weighted",
                    medrank_top_k_weighted(inputs, &floats, k),
                    oracle::medrank(inputs, &units, k, false),
                ),
            ];
            for (lane, got, (top, depth)) in lanes {
                let got = got.unwrap();
                assert_eq!(got.top, top, "{lane}: top");
                assert_eq!(got.stats.sorted_depth, depth, "{lane}: sorted_depth");
            }
        },
    );
}
