//! E12 — sum-objective vs minmax-objective aggregation: how far apart
//! the two optima sit across profile shapes, plus the scorer speed
//! gate the minmax heuristics rely on.
//!
//! The sum (Kemeny) optimum minimizes total voter distance and is free
//! to sacrifice one voter entirely; the minmax optimum bounds the
//! worst-off voter. On consensus-shaped profiles the two coincide; an
//! **outlier voter** (one reversal among many identical rankings) pulls
//! them maximally apart — the sum optimum ignores the outlier (its max
//! cost is the full `2·C(n,2)` reversal distance) while the minmax
//! optimum meets it halfway. The canonical 9×identity + 1×reversal
//! profile at n = 6 is pinned as a regression case: sum-optimal max
//! cost 30, minmax-optimal max cost 16.
//!
//! The run ends with two hard acceptance gates, which CI drives with
//! `BUCKETRANK_BENCH_FAST=1`:
//!
//! * scoring a sweep of adjacent transpositions via
//!   `MinMaxObjective::swap_delta_x2` (O(m) per swap) must be at least
//!   as fast as the naive rescan that re-sums every pair for every voter
//!   (O(m·n²) per swap);
//! * `minmax_aggregate` must return exactly what the naive
//!   [`bucketrank_bench::oracle`] pipeline returns (every candidate swap
//!   rescanning all `m` voters) on 64×64 typed-Mallows profiles, and run
//!   at least 2× faster.

use bucketrank_aggregate::minmax::{self, ClassConstraints, MinMaxObjective};
use bucketrank_aggregate::AggregateError;
use bucketrank_bench::report::fast_mode;
use bucketrank_bench::timing::{group, Sampler};
use bucketrank_bench::{oracle, Table};
use bucketrank_core::{BucketOrder, ElementId};
use bucketrank_metrics::kendall;
use bucketrank_workloads::mallows::{Mallows, MallowsWithTies};
use bucketrank_workloads::random::{random_few_valued, random_full_ranking, random_type};
use bucketrank_workloads::rng::{Pcg32, SeedableRng};
use bucketrank_workloads::stats::summarize;

/// A minmax heuristic pipeline (the library's or the oracle's).
type Pipeline = fn(
    &[BucketOrder],
    Option<&ClassConstraints>,
    u64,
) -> Result<(BucketOrder, u64), AggregateError>;

/// One profile-shape generator for the gap table.
type ShapeGen = Box<dyn FnMut(&mut Pcg32) -> Vec<BucketOrder>>;

/// All permutations of `0..n` (for the brute-force sum optimum).
fn permutations(n: usize) -> Vec<Vec<ElementId>> {
    fn rec(prefix: &mut Vec<ElementId>, rest: &mut Vec<ElementId>, out: &mut Vec<Vec<ElementId>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let e = rest.remove(i);
            prefix.push(e);
            rec(prefix, rest, out);
            prefix.pop();
            rest.insert(i, e);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..n as ElementId).collect(), &mut out);
    out
}

/// Brute-force sum (Kemeny) optimum over full rankings: returns the
/// best permutation's `(sum_cost_x2, max_voter_cost_x2)`.
fn sum_opt_brute(inputs: &[BucketOrder]) -> (u64, u64) {
    let n = inputs[0].len();
    let mut best = (u64::MAX, u64::MAX);
    for p in permutations(n) {
        let o = BucketOrder::from_permutation(&p).expect("valid permutation");
        let costs: Vec<u64> = inputs
            .iter()
            .map(|v| kendall::kprof_x2(&o, v).expect("shared domain"))
            .collect();
        let sum: u64 = costs.iter().sum();
        let max = costs.iter().copied().max().unwrap_or(0);
        if sum < best.0 {
            best = (sum, max);
        }
    }
    best
}

fn main() {
    let fast = fast_mode();
    println!("E12 — sum-optimal vs minmax-optimal cost gaps\n");
    let mut rng = Pcg32::seed_from_u64(12);
    let trials = if fast { 4 } else { 30 };
    let n = 6;
    let m = 8;

    // Profile shapes: how the two optima relate as consensus erodes.
    // "max gap" is (sum-optimum's max voter cost) / (minmax optimal max
    // cost) — how badly the sum objective treats its worst-off voter;
    // "sum penalty" is (minmax optimum's sum cost) / (optimal sum) —
    // what the fairness costs in total distance.
    let shapes: Vec<(&str, ShapeGen)> = vec![
        (
            "uniform full",
            Box::new(move |r| (0..m).map(|_| random_full_ranking(r, n)).collect()),
        ),
        (
            "mallows θ=1.0",
            Box::new(move |r| {
                let model = Mallows::new(n, 1.0);
                (0..m).map(|_| model.sample(r)).collect()
            }),
        ),
        (
            "few-valued ties",
            Box::new(move |r| (0..m).map(|_| random_few_valued(r, n, 3)).collect()),
        ),
        (
            "outlier voter",
            Box::new(move |r| {
                let base = random_full_ranking(r, n);
                let mut rev: Vec<ElementId> = base.as_permutation().expect("full");
                rev.reverse();
                let mut prof = vec![base; m - 1];
                prof.push(BucketOrder::from_permutation(&rev).expect("valid"));
                prof
            }),
        ),
    ];

    let mut t = Table::new(&[
        "shape",
        "n",
        "m",
        "trials",
        "mean max gap",
        "max max gap",
        "mean sum penalty",
    ]);
    for (name, mut gen) in shapes {
        let mut max_gaps = Vec::new();
        let mut sum_penalties = Vec::new();
        for _ in 0..trials {
            let inputs = gen(&mut rng);
            let (opt_sum, opt_sum_max) = sum_opt_brute(&inputs);
            let (mm_order, mm_max, _) =
                minmax::minmax_optimal_bb(&inputs, None).expect("exact minmax");
            let mm_sum: u64 = inputs
                .iter()
                .map(|v| kendall::kprof_x2(&mm_order, v).expect("shared domain"))
                .collect::<Vec<u64>>()
                .iter()
                .sum();
            assert!(
                opt_sum_max >= mm_max,
                "minmax optimum must bound the sum optimum's max \
                 ({opt_sum_max} < {mm_max} on {name})"
            );
            assert!(mm_sum >= opt_sum, "sum optimum must bound any sum");
            if mm_max > 0 {
                max_gaps.push(opt_sum_max as f64 / mm_max as f64);
            }
            if opt_sum > 0 {
                sum_penalties.push(mm_sum as f64 / opt_sum as f64);
            }
        }
        let g = summarize(&max_gaps);
        let s = summarize(&sum_penalties);
        t.row(&[
            name.to_owned(),
            n.to_string(),
            m.to_string(),
            trials.to_string(),
            format!("{:.3}", g.mean),
            format!("{:.3}", g.max),
            format!("{:.3}", s.mean),
        ]);
    }
    t.print();

    // Pinned regression: the maximal-disagreement profile. Nine voters
    // hold the identity, one holds its reversal. The sum optimum is the
    // identity itself — the outlier sits at the full reversal distance
    // 2·C(6,2) = 30 — while the minmax optimum splits the difference
    // at max cost 16. These exact values are the regression contract.
    let identity: Vec<ElementId> = (0..6).collect();
    let reversal: Vec<ElementId> = (0..6).rev().collect();
    let mut prof = vec![BucketOrder::from_permutation(&identity).expect("valid"); 9];
    prof.push(BucketOrder::from_permutation(&reversal).expect("valid"));
    let (opt_sum, opt_sum_max) = sum_opt_brute(&prof);
    let (_, mm_max, _) = minmax::minmax_optimal_bb(&prof, None).expect("exact minmax");
    println!(
        "\noutlier regression (9×identity + 1×reversal, n=6): \
         sum-opt sum {opt_sum}, sum-opt max {opt_sum_max}, minmax opt {mm_max}"
    );
    assert_eq!(opt_sum_max, 30, "sum optimum abandons the outlier at 2·C(6,2)");
    assert_eq!(mm_max, 16, "minmax optimum meets the outlier partway");

    // Scorer gate: the tally-delta scorer the heuristics run on vs a
    // naive per-swap rescan, over the same sweep of n−1 adjacent
    // transpositions on the same profile.
    group("scorers (one sweep of adjacent transpositions)");
    let sampler = Sampler::default();
    let (sn, sm) = (24usize, 16usize);
    let mut srng = Pcg32::seed_from_u64(0x5c0e);
    let inputs: Vec<BucketOrder> = (0..sm).map(|_| random_full_ranking(&mut srng, sn)).collect();
    let obj = MinMaxObjective::build(&inputs).expect("objective");

    let mut perm: Vec<ElementId> = (0..sn as ElementId).collect();
    let mut costs = obj
        .costs_x2(&BucketOrder::from_permutation(&perm).expect("valid"))
        .expect("costs");
    let delta = sampler.bench("minmax_scorer/tally_delta", || {
        let mut worst = 0u64;
        for p in 0..sn - 1 {
            let (a, b) = (perm[p], perm[p + 1]);
            for (v, c) in costs.iter_mut().enumerate() {
                *c = (*c as i64 + obj.swap_delta_x2(v, a, b)) as u64;
            }
            perm.swap(p, p + 1);
            worst = worst.max(costs.iter().copied().max().unwrap_or(0));
        }
        worst
    });
    // The maintained costs must still agree with a fresh evaluation —
    // the delta scorer is only a valid baseline if it is exact.
    let fresh = obj
        .costs_x2(&BucketOrder::from_permutation(&perm).expect("valid"))
        .expect("costs");
    assert_eq!(costs, fresh, "delta-maintained costs drifted");

    let mut nperm: Vec<ElementId> = (0..sn as ElementId).collect();
    let naive = sampler.bench("minmax_scorer/naive_rescan", || {
        let mut worst = 0u64;
        for p in 0..sn - 1 {
            nperm.swap(p, p + 1);
            let mut mx = 0u64;
            for v in 0..sm {
                let mut c = 0u64;
                for i in 0..sn {
                    for j in i + 1..sn {
                        c += obj.pair_cost_x2(v, nperm[i], nperm[j]);
                    }
                }
                mx = mx.max(c);
            }
            worst = worst.max(mx);
        }
        worst
    });

    let ratio = naive.median_ns / delta.median_ns;
    let verdict = if ratio >= 1.0 { "PASS" } else { "FAIL" };
    println!(
        "\nacceptance gate minmax tally-delta scorer >= 1x naive rescan: \
         {ratio:.1}x [{verdict}]"
    );
    if ratio < 1.0 {
        std::process::exit(1);
    }

    // Pipeline gate: what the heuristics actually run. The library's
    // banded climb against the naive oracle on the offline benchmark's
    // profile shape (m = 64 typed-Mallows voters, θ = 0.2, restricted
    // to the 64 elements its minmax stage sees).
    group("minmax_aggregate vs the naive oracle pipeline (64×64 typed Mallows)");
    let (pn, pm) = (64usize, 64usize);
    let mut prng = Pcg32::seed_from_u64(0x6d6d);
    let profiles: Vec<Vec<BucketOrder>> = (0..4)
        .map(|_| {
            let alpha = random_type(&mut prng, pn);
            MallowsWithTies::new(Mallows::new(pn, 0.2), alpha).sample_profile(&mut prng, pm)
        })
        .collect();
    let run = |agg: Pipeline| {
        profiles
            .iter()
            .map(|p| agg(p, None, minmax::DEFAULT_SEED).expect("minmax pipeline"))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(minmax::minmax_aggregate),
        run(oracle::minmax_aggregate),
        "minmax_aggregate diverged from the naive oracle pipeline"
    );
    let pipe_sampler = Sampler {
        samples: sampler.samples.max(5),
        ..sampler
    };
    let banded = pipe_sampler.bench("minmax_pipeline/banded", || {
        run(minmax::minmax_aggregate)
    });
    let naive = pipe_sampler.bench("minmax_pipeline/naive_oracle", || {
        run(oracle::minmax_aggregate)
    });
    let ratio = naive.median_ns / banded.median_ns;
    let verdict = if ratio >= 2.0 { "PASS" } else { "FAIL" };
    println!(
        "\nacceptance gate minmax_aggregate >= 2x naive oracle pipeline \
         (identical output): {ratio:.1}x [{verdict}]"
    );
    if ratio < 2.0 {
        std::process::exit(1);
    }
    println!("\nsum and minmax optima coincide on consensus profiles and split");
    println!("on outlier profiles exactly as the objective definitions predict.");
}
