//! `offline_aggregate`: the library in-process, a stream of tie-bearing
//! typed-Mallows profiles, each run through the batch metrics, the
//! tally, the median and heuristic aggregators and the exact
//! branch-and-bound solvers — the sequential entry points only, so the
//! figures do not depend on the scheduler. Two threads each take every
//! other profile: a lone thread stays on one processor for the whole
//! run and reads that processor's speed, which on a shared VM varies
//! with its neighbours from run to run.

use crate::gen::{offline_profile, rng_for, OFFLINE_EXACT_N, OFFLINE_MINMAX_N, OFFLINE_POOL};
use crate::trace::Tracer;
use bucketrank_aggregate::cost::{total_cost_x2_tally, AggMetric};
use bucketrank_aggregate::kwiksort::kwiksort_best_of;
use bucketrank_aggregate::local::local_kemenize_with_tally;
use bucketrank_aggregate::median::aggregate_full;
use bucketrank_aggregate::minmax::{minmax_aggregate, minmax_optimal_bb, DEFAULT_SEED};
use bucketrank_aggregate::{bb::kemeny_optimal_bb, MedianPolicy, ProfileTally};
use bucketrank_core::{BucketOrder, ElementId};
use bucketrank_metrics::batch::{
    pairwise_matrix_prepared, prepare_all, weighted_pairwise_matrix, BatchMetric, DistanceMatrix,
    WeightedMetric,
};
use bucketrank_metrics::kendall::kprof_x2;
use bucketrank_metrics::Weights;
use bucketrank_workloads::rng::Rng;
use std::time::Instant;

/// The four paper metrics the matrices are built for.
const MATRIX_METRICS: [BatchMetric; 4] = [
    BatchMetric::KProfX2,
    BatchMetric::FProfX2,
    BatchMetric::KHaus,
    BatchMetric::FHaus,
];

/// Kwiksort restarts per profile.
const RESTARTS: usize = 4;

/// What one profile's pipeline produced, kept for the output checks.
pub struct Produced {
    matrices: Vec<DistanceMatrix>,
    weighted: DistanceMatrix,
    tally: ProfileTally,
    median: BucketOrder,
    kwiksort: BucketOrder,
    local_cost: u64,
}

fn traced<R>(tr: &mut Option<&mut Tracer>, name: &'static str, id: u32, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, id, f),
        None => f(),
    }
}

/// Every voter restricted to the elements `0..k`.
fn restrict(profile: &[BucketOrder], k: usize) -> Result<Vec<BucketOrder>, String> {
    let keep: Vec<ElementId> = (0..k as ElementId).collect();
    profile
        .iter()
        .map(|r| r.restrict(&keep).map_err(|e| e.to_string()))
        .collect()
}

/// The per-profile pipeline. With a tracer, each stage call gets a span
/// under a root `profile` span.
pub fn pipeline(
    profile: &[BucketOrder],
    w: &Weights,
    id: u32,
    mut tr: Option<&mut Tracer>,
) -> Result<Produced, String> {
    let e = |e: &dyn std::fmt::Display| e.to_string();
    if let Some(t) = tr.as_deref_mut() {
        t.enter("profile", id);
    }
    let prepared = traced(&mut tr, "metrics.matrix", id, || prepare_all(profile)).map_err(|x| e(&x))?;
    let mut matrices = Vec::with_capacity(MATRIX_METRICS.len());
    for metric in MATRIX_METRICS {
        let m = traced(&mut tr, "metrics.matrix", id, || pairwise_matrix_prepared(&prepared, metric));
        matrices.push(m.map_err(|x| e(&x))?);
    }
    let weighted = traced(&mut tr, "metrics.matrix", id, || {
        weighted_pairwise_matrix(profile, WeightedMetric::WeightedFootruleX2, w)
    })
    .map_err(|x| e(&x))?;
    let tally = traced(&mut tr, "tally.build", id, || ProfileTally::build(profile)).map_err(|x| e(&x))?;
    let median = traced(&mut tr, "aggregate.median", id, || aggregate_full(profile, MedianPolicy::Lower))
        .map_err(|x| e(&x))?;
    let ks = traced(&mut tr, "aggregate.kwiksort", id, || kwiksort_best_of(profile, id as u64, RESTARTS))
        .map_err(|x| e(&x))?;
    let local = traced(&mut tr, "aggregate.local", id, || local_kemenize_with_tally(&ks, &tally))
        .map_err(|x| e(&x))?;
    let local_cost = traced(&mut tr, "tally.kemeny", id, || {
        total_cost_x2_tally(AggMetric::KProf, &local, &tally).expect("Kprof is tally-expressible")
    })
    .map_err(|x| e(&x))?;
    traced(&mut tr, "aggregate.minmax", id, || {
        minmax_aggregate(&restrict(profile, OFFLINE_MINMAX_N)?, None, DEFAULT_SEED).map_err(|x| e(&x))
    })?;
    traced(&mut tr, "aggregate.exact_bb", id, || {
        let small = restrict(profile, OFFLINE_EXACT_N)?;
        kemeny_optimal_bb(&small).map_err(|x| e(&x))?;
        minmax_optimal_bb(&small, None).map_err(|x| e(&x))
    })?;
    if let Some(t) = tr {
        t.exit();
    }
    Ok(Produced {
        matrices,
        weighted,
        tally,
        median,
        kwiksort: ks,
        local_cost,
    })
}

/// Output checks: sampled matrix cells against the direct metric
/// functions, the median aggregate's tally cost against the sum of its
/// `kprof_x2` distances, and local Kemenization never raising the cost
/// of the kwiksort ranking it starts from.
pub fn check(profile: &[BucketOrder], w: &Weights, out: &Produced, seed: u64, id: u32) -> Result<(), String> {
    let mut rng = rng_for(seed, 0xc4ec_0000 + id as u64);
    let m = profile.len();
    for _ in 0..4 {
        let (i, j) = (rng.gen_range(0..m), rng.gen_range(0..m));
        for (metric, mat) in MATRIX_METRICS.iter().zip(&out.matrices) {
            let want = metric.direct(&profile[i], &profile[j]).map_err(|e| e.to_string())?;
            if mat.get(i, j) != want {
                return Err(format!("{} cell ({i},{j}) {} != direct {want}", metric.name(), mat.get(i, j)));
            }
        }
        let want = WeightedMetric::WeightedFootruleX2
            .naive(&profile[i], &profile[j], w)
            .map_err(|e| e.to_string())?;
        if out.weighted.get(i, j) != want {
            return Err(format!("weighted cell ({i},{j}) {} != naive {want}", out.weighted.get(i, j)));
        }
    }
    let tally_cost = out.tally.kemeny_cost_x2(&out.median).map_err(|e| e.to_string())?;
    let direct: u64 = profile
        .iter()
        .map(|r| kprof_x2(&out.median, r))
        .sum::<Result<u64, _>>()
        .map_err(|e| e.to_string())?;
    if tally_cost != direct {
        return Err(format!("median aggregate: tally cost {tally_cost} != Σ kprof_x2 {direct}"));
    }
    let start_cost = out.tally.kemeny_cost_x2(&out.kwiksort).map_err(|e| e.to_string())?;
    if out.local_cost > start_cost {
        return Err(format!("local Kemenization raised the cost {start_cost} to {}", out.local_cost));
    }
    Ok(())
}

/// One thread's share of the profile stream.
#[derive(Default)]
pub struct Streamed {
    /// `(seconds from the window's opening to completion, latency µs)`
    /// of every profile, in order.
    pub done: Vec<(f64, f64)>,
    /// Seconds spent in the traced repeat of each profile.
    pub traced_s: f64,
    /// The first failed output check; the thread stops there.
    pub failed: Option<String>,
}

/// Runs profiles `first`, `first + step`, … of the cycled `pool` until
/// `deadline` has passed and at least `min` are done, checking each.
/// With a tracer, each profile is run a second time under spans.
#[allow(clippy::too_many_arguments)]
pub fn stream(
    pool: &[Vec<BucketOrder>],
    w: &Weights,
    seed: u64,
    (first, step): (usize, usize),
    (start, deadline): (Instant, Instant),
    min: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Streamed, String> {
    let mut out = Streamed::default();
    let mut i = first;
    while Instant::now() < deadline || out.done.len() < min {
        let profile = &pool[i % pool.len()];
        let t0 = Instant::now();
        let produced = pipeline(profile, w, i as u32, None)?;
        let t1 = Instant::now();
        out.done.push(((t1 - start).as_secs_f64(), (t1 - t0).as_secs_f64() * 1e6));
        if let Err(e) = check(profile, w, &produced, seed, i as u32) {
            out.failed = Some(e);
            break;
        }
        if let Some(t) = tracer.as_deref_mut() {
            let t0 = Instant::now();
            pipeline(profile, w, i as u32, Some(t))?;
            out.traced_s += t0.elapsed().as_secs_f64();
        }
        i += step;
    }
    Ok(out)
}

/// Generates the profile pool, the "set-up" of this workload.
pub fn generate(seed: u64) -> Vec<Vec<BucketOrder>> {
    (0..OFFLINE_POOL).map(|i| offline_profile(seed, i)).collect()
}

/// The DCG-like weights of the weighted matrix.
pub fn weights(n: usize) -> Weights {
    Weights::from_units((0..n).map(|p| 1 + 4096 / (p as u64 + 1)).collect()).expect("valid weights")
}
