//! Metasearch: aggregating noisy top-k lists from several simulated
//! search engines, comparing the paper's median algorithm against
//! classical baselines (Borda, Markov chain MC4, best-input) and — on a
//! small instance — the exact optimum.
//!
//! Run with: `cargo run --example metasearch`

use bucketrank::aggregate::borda::{average_rank_full, best_input};
use bucketrank::aggregate::cost::{total_cost_x2, AggMetric};
use bucketrank::aggregate::dp::aggregate_optimal_bucketing;
use bucketrank::aggregate::exact::optimal_partial_ranking;
use bucketrank::aggregate::markov::{markov_aggregate, MarkovChain, MarkovOptions};
use bucketrank::aggregate::median::aggregate_top_k;
use bucketrank::workloads::mallows::{Mallows, MallowsWithTies};
use bucketrank::{BucketOrder, ElementId, MedianPolicy, TypeSeq};
use bucketrank::workloads::rng::Pcg32;
use bucketrank::workloads::rng::SeedableRng;
use std::collections::HashSet;

/// Fraction of `truth`'s top-k that `cand`'s top-k recovers.
fn precision_at_k(cand: &BucketOrder, truth: &BucketOrder, k: usize) -> f64 {
    let tops = |o: &BucketOrder| -> HashSet<ElementId> {
        o.buckets().iter().take(k).flatten().copied().collect()
    };
    let c = tops(cand);
    let t = tops(truth);
    c.intersection(&t).count() as f64 / k as f64
}

/// The top-k prefix of a full ranking, as a top-k list.
fn take_top_k(full: &BucketOrder, k: usize) -> BucketOrder {
    let perm = full.as_permutation().expect("needs a full ranking");
    BucketOrder::top_k(full.len(), &perm[..k]).expect("prefix is distinct")
}

fn main() {
    let mut rng = Pcg32::seed_from_u64(47);

    // --- large instance: 60 URLs, 7 engines returning top-10 lists ----
    let n = 60;
    let k = 10;
    let m = 7;
    let model = MallowsWithTies::new(Mallows::new(n, 0.25), TypeSeq::top_k(n, k).unwrap());
    let engines: Vec<BucketOrder> = model.sample_profile(&mut rng, m);
    let truth = model.reference();

    println!("metasearch: {m} engines, {n} urls, top-{k} lists, Mallows θ = 0.25");
    println!("\nall methods emit a top-{k} list; Σ Fprof is the aggregation");
    println!("objective, precision@{k} measures recovery of the hidden truth:");
    println!("  {:>12} {:>12} {:>14}", "method", "Σ Fprof", "precision@10");

    let report = |name: &str, cand: &BucketOrder| {
        let cost = total_cost_x2(AggMetric::FProf, cand, &engines).unwrap() as f64 / 2.0;
        let prec = precision_at_k(cand, &truth, k);
        println!("  {name:>12} {cost:>12.1} {prec:>14.2}");
    };

    let median = aggregate_top_k(&engines, k, MedianPolicy::Lower).unwrap();
    report("median", &median);

    let borda = take_top_k(&average_rank_full(&engines).unwrap(), k);
    report("borda", &borda);

    let mc4 = take_top_k(
        &markov_aggregate(&engines, MarkovChain::Mc4, MarkovOptions::default()).unwrap(),
        k,
    );
    report("MC4", &mc4);

    let (best_idx, best_cost) = best_input(&engines, AggMetric::FProf).unwrap();
    println!(
        "  {:>12} {:>12.1} {:>14.2}   (engine #{best_idx})",
        "best input",
        best_cost as f64 / 2.0,
        precision_at_k(&engines[best_idx], &truth, k)
    );

    // The DP bucketing discovers the "everything else" bottom bucket on
    // its own — no k needs to be supplied.
    let fdagger = aggregate_optimal_bucketing(&engines, MedianPolicy::Lower).unwrap();
    report("f† (DP)", &fdagger.order);
    println!(
        "  (f† found {} buckets; bottom bucket holds {} urls)",
        fdagger.order.num_buckets(),
        fdagger.order.buckets().last().map_or(0, <[u32]>::len)
    );

    // --- small instance: verify the factor-2 guarantee exactly --------
    let n2 = 7;
    let model2 = MallowsWithTies::new(Mallows::new(n2, 0.4), TypeSeq::top_k(n2, 3).unwrap());
    let small: Vec<BucketOrder> = model2.sample_profile(&mut rng, 5);
    let fd2 = aggregate_optimal_bucketing(&small, MedianPolicy::Lower).unwrap();
    let fd2_cost = total_cost_x2(AggMetric::FProf, &fd2.order, &small).unwrap();
    let (opt, opt_cost) = optimal_partial_ranking(&small, AggMetric::FProf).unwrap();

    println!("\nsmall instance (n = {n2}): exact check of the Theorem 10 bound");
    println!("  f† aggregation : Σ Fprof = {:.1}  ({})", fd2_cost as f64 / 2.0, fd2.order.display());
    println!("  exact optimum  : Σ Fprof = {:.1}  ({})", opt_cost as f64 / 2.0, opt.display());
    println!(
        "  ratio = {:.3} (guarantee for partial-ranking inputs: ≤ 2)",
        fd2_cost as f64 / opt_cost.max(1) as f64
    );
}
