//! The bucketrank benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--server-bin <path>] [--scratch <dir>]
//! ```
//!
//! Workloads: `ingest_durable`, `point_reads` and `wide_profiles` drive
//! a child `bucketrank serve --workers 2`; `offline_aggregate` runs the
//! library in-process. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer metrics of a traced run. The last line of
//! standard output is the result object; the line before it carries
//! the run's detail (seed, `nproc`, filesystem, sample counts). A run
//! that fails an output or durability check prints `"correct": false`
//! with no metrics and exits 1; a run that cannot run exits 2.

mod child;
mod gen;
mod offline;
mod probe;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;

use crate::gen::{Inputs, Kind, Shape, INGEST, OFFLINE_N, POINT, WIDE};
use crate::probe::{Edge, Pid};
use crate::report::{Json, Outcome};
use crate::serve::stat_sum;
use crate::stats::{percentile, quartiles, sorted};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// An untraced run sets up at least `MIN_SETUPS` times and until
/// `SETUP_BUDGET` has passed, at most `MAX_SETUPS` times; `setup_s` is
/// the median, so no single spawn or scheduling hiccup sets it. The
/// durable set-up (~1.7 s of fsync-per-edit seeding) stops at three:
/// each one adds to the disk writes that slow later runs.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 40;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Runs `set_up` as the untraced run asks (once when traced) and returns
/// its last result with every set-up's seconds. Each result but the last
/// is dropped before the next set-up starts.
fn set_up_repeatedly<T>(
    trace: bool,
    mut set_up: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, Vec<f64>), String> {
    let t0 = Instant::now();
    let mut times = Vec::new();
    loop {
        let (made, s) = set_up()?;
        times.push(s);
        let enough = times.len() >= MIN_SETUPS && t0.elapsed() >= SETUP_BUDGET;
        if trace || enough || times.len() >= MAX_SETUPS {
            return Ok((made, times));
        }
    }
}

/// Profiles the offline window runs at least, past `--seconds` if need
/// be, so its p90 has ten samples beyond it.
const MIN_PROFILES: usize = 110;

/// Equal parts of the offline window, as [`stats::SERVED_WINDOWS`] for
/// the served workloads (fewer: a profile takes ~0.1 s).
const OFFLINE_WINDOWS: usize = 5;

/// Threads of the untraced offline stream; see `offline.rs`.
const OFFLINE_THREADS: usize = 2;

/// Untimed warm-up before a served window opens.
const WARM: Duration = Duration::from_millis(2000);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    Ok(Args {
        seed: need("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: need("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        server_bin: get("--server-bin").map_or_else(
            || Path::new(&target).join("release").join("bucketrank"),
            PathBuf::from,
        ),
        scratch: get("--scratch")
            .map_or_else(|| Path::new(".bench_out").join(&workload), PathBuf::from),
        workload,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        std::process::exit(2);
    }
    let result = match args.workload.as_str() {
        "ingest_durable" => served(&INGEST, &args),
        "point_reads" => served(&POINT, &args),
        "wide_profiles" => served(&WIDE, &args),
        "offline_aggregate" => offline(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(mut out) => {
            out.detail("seed", Json::Int(args.seed));
            out.detail("nproc", Json::Int(probe::nproc() as u64));
            let fs = probe::fs_type(&args.scratch).unwrap_or("unavailable".into());
            out.detail("fs_type", Json::Str(fs));
            out.detail("workload", Json::Str(args.workload.clone()));
            out.detail("trace", Json::Bool(args.trace));
            out.print();
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    }
}

/// p50 / p-tail pair with the sample count, for the detail line.
fn latency_detail(samples: &[f64], tail: f64) -> Json {
    let s = sorted(samples.to_vec());
    let (q1, q3) = quartiles(&s).unwrap_or((f64::NAN, f64::NAN));
    Json::Obj(vec![
        ("samples".into(), Json::Int(s.len() as u64)),
        ("p50_us".into(), Json::Num(stats::median(&s).unwrap_or(f64::NAN))),
        (format!("p{tail}_us"), Json::Num(percentile(&s, tail).unwrap_or(f64::NAN))),
        ("q1_us".into(), Json::Num(q1)),
        ("q3_us".into(), Json::Num(q3)),
    ])
}

/// Every set-up time of the run, in order.
fn setups_detail(times: &[f64]) -> Json {
    Json::Arr(times.iter().map(|&t| Json::Num(t)).collect())
}

fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

/// A served workload, end to end (`--trace 0`) or traced (`--trace 1`).
fn served(shape: &Shape, args: &Args) -> Result<Outcome, String> {
    let inputs = Inputs::new(shape, args.seed);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let data = serve::data_dir(&args.scratch);
    out.detail(
        "shape",
        Json::Str(format!(
            "{} sessions n={} seeded {} voters, {} conn(s), window {} x batch {}, {}, --max-sessions {}",
            shape.sessions,
            shape.n,
            shape.seed_voters,
            shape.conns,
            shape.window,
            shape.batch,
            if shape.durable { "durable" } else { "memory-only" },
            shape.max_sessions
        )),
    );

    // Set-up, repeated so its median is steady; the last one serves.
    let (served, setup_s) = set_up_repeatedly(args.trace, || {
        serve::set_up(shape, &inputs, args.seed, &args.server_bin, &args.scratch)
    })?;
    let pid = served.pid();

    let load = serve::drive(&served, shape, &inputs, args.seed, WARM, args.seconds)?;
    let peak_rss = serve::peak_rss(pid);
    let run = &load.run;
    out.attempted = run.attempted;
    out.failed = run.failed;
    if let Some(w) = &run.wrong {
        out.correct = false;
        out.detail("check_failed", Json::Str(w.clone()));
    }
    let edits_acked = run.acked.iter().filter(|o| o.kind != Kind::Create).count() as u64;

    // A memory-only server is checked live. A durable one is SIGKILLed
    // right after the window, restarted over the same directory and
    // timed until it serves; then every acknowledged edit must be
    // visible again.
    let mut recovery_s = None;
    let mut scan_ms = None;
    let checked = if shape.durable {
        drop(served);
        if args.trace {
            let t0 = Instant::now();
            for i in 0..bucketrank_server::DEFAULT_SHARDS {
                let wal = data.join(format!("shard-{i}")).join("wal.log");
                bucketrank_server::wal::scan_file(&wal).map_err(|e| format!("scan: {e}"))?;
            }
            scan_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
        }
        let restarted = child::Served::spawn(
            &args.server_bin,
            &args.scratch,
            &serve::serve_flags(shape, &data),
        )?;
        recovery_s = Some(restarted.ready_s);
        serve::verify(restarted.addr, shape, &inputs, args.seed, &run.acked)
            .map_err(|e| format!("after restart: {e}"))
    } else {
        serve::verify(served.addr, shape, &inputs, args.seed, &run.acked)
    };
    match &checked {
        Ok(sessions) => out.detail("sessions_verified", Json::Int(*sessions as u64)),
        Err(e) => {
            out.correct = false;
            out.detail("check_failed", Json::Str(e.clone()));
        }
    }

    let all: Vec<f64> = run.samples.iter().map(|s| s.1).collect();
    let timed: Vec<(f64, f64)> = run.samples.iter().map(|s| (s.2, s.1)).collect();
    let windows = stats::windows(&timed, args.seconds, stats::SERVED_WINDOWS);
    let edits: Vec<f64> = run.samples.iter().filter(|s| s.0.is_edit()).map(|s| s.1).collect();
    let reads: Vec<f64> = run.samples.iter().filter(|s| !s.0.is_edit()).map(|s| s.1).collect();
    let server_cpu = load.start.server.cpu_between(&load.end_server);
    let own_cpu = load.start.own.cpu_between(&load.end_own);
    let disk = load.start.server.bytes_between(&load.end_server);
    let ops = run.attempted as f64;
    let delta = |f: fn(&bucketrank_server::ShardStats) -> u64| {
        stat_sum(&load.end_stats, f).saturating_sub(stat_sum(&load.start.stats, f))
    };
    let fault_ins = delta(|s| s.recoveries);
    let disk_per_edit = disk.map(|d| d as f64 / edits.len().max(1) as f64);

    out.detail("setup_s", setups_detail(&setup_s));
    out.detail("window_s", Json::Num(load.window_s));
    out.detail("ops", Json::Int(run.attempted));
    out.detail("failed_frac", Json::Num(run.failed as f64 / ops.max(1.0)));
    out.detail("busy_replies", Json::Int(run.busy));
    if let Some(f) = &run.first_failure {
        out.detail("first_failure", Json::Str(f.clone()));
    }
    out.detail("latency", latency_detail(&all, 99.0));
    if !run.late_us.is_empty() {
        out.detail("loadgen_late", latency_detail(&run.late_us, 99.0));
    }
    out.detail("edit_latency", latency_detail(&edits, 99.0));
    out.detail("read_latency", latency_detail(&reads, 99.0));
    out.detail("steal_s", opt_num(load.start.own.steal_between(&load.end_own)));
    out.detail("edits_acked", Json::Int(edits_acked));
    out.detail("disk_bytes_per_edit", opt_num(disk_per_edit));
    out.detail("recovery_s", opt_num(recovery_s));
    out.detail("data_dir", Json::Str(data.display().to_string()));
    out.detail(
        "durability",
        Json::Str(
            "SIGKILL keeps the OS page cache: this proves process-crash durability, not power loss"
                .into(),
        ),
    );

    if !args.trace {
        let width = args.seconds / stats::SERVED_WINDOWS as f64;
        let rate = stats::median_over(&windows, |w| Some(w.len() as f64 / width));
        let per_window = windows.iter().map(|w| Json::Num(w.len() as f64 / width)).collect();
        out.detail("window_ops_per_s", Json::Arr(per_window));
        for (name, p) in [("window_p50_us", 50.0), ("window_p90_us", 90.0), ("window_p99_us", 99.0)] {
            let per_window = windows.iter().map(|w| opt_num(percentile(w, p))).collect();
            out.detail(name, Json::Arr(per_window));
        }
        // Server CPU per op of each part, from the marks at its edges.
        let marks: Option<Vec<f64>> = std::iter::once(load.start.server.cpu_s)
            .chain(load.start.cpu_marks.iter().copied())
            .chain(std::iter::once(load.end_server.cpu_s))
            .collect();
        let cpu_per_op: Option<Vec<f64>> = marks.filter(|m| m.len() == windows.len() + 1).map(|m| {
            m.windows(2)
                .zip(&windows)
                .map(|(c, w)| (c[1] - c[0]) * 1e6 / w.len().max(1) as f64)
                .collect()
        });
        if let Some(per) = &cpu_per_op {
            out.detail("window_cpu_us_per_op", Json::Arr(per.iter().map(|&c| Json::Num(c)).collect()));
        }
        out.detail("cpu_us_per_op_whole", opt_num(server_cpu.map(|c| c * 1e6 / ops)));
        let p50 = stats::median_over(&windows, stats::median).ok_or("no measured ops")?;
        let p90 = stats::median_over(&windows, |w| percentile(w, 90.0))
            .ok_or(format!("{} samples are too few for a p90 in each window", all.len()))?;
        out.metric("setup_s", "s", stats::median(&sorted(setup_s)));
        out.metric("ops_per_s", "ops/s", rate);
        out.metric("latency_p50_us", "us", Some(p50));
        out.metric("latency_p90_us", "us", Some(p90));
        out.metric("peak_rss_mib", "MiB", peak_rss);
        out.metric("cpu_us_per_op", "us", cpu_per_op.and_then(|per| stats::median(&sorted(per))));
        return Ok(out);
    }

    // Traced run: the in-process replay splits the layers.
    let spans = args.scratch.join(format!("spans-{}-{}.tsv", shape.name, args.seed));
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let rep = replay::replay(shape, &inputs, args.seed, &load.consumed, &args.scratch, budget, &spans)?;
    out.detail("replayed_ops", Json::Int(rep.ops as u64));
    out.detail("spans", Json::Str(spans.display().to_string()));
    let handle_p50: std::collections::HashMap<&str, f64> = rep
        .handle_us
        .iter()
        .filter_map(|(k, v)| Some((*k, stats::median(&sorted(v.clone()))?)))
        .collect();
    // Ops of a kind the replay's budget never reached have no in-process
    // figure to subtract and are left out.
    let residual = sorted(
        run.samples
            .iter()
            .filter_map(|(k, us, _)| Some(us - handle_p50.get(k.label())?))
            .collect(),
    );
    // A layer the workload never reaches reads 0 (flat there); a probe
    // that could not be read, or a percentile without ten samples beyond
    // it, is `None` and prints as unavailable.
    let layer = |name: &str| Some(rep.layers.get(name).map_or(0.0, |l| l.mean_us()));
    let per_op = |name: &str| {
        Some(rep.layers.get(name).map_or(0.0, |l| l.self_ns as f64 / rep.ops.max(1) as f64))
    };
    let pct = |v: &[f64], p: f64| percentile(&sorted(v.to_vec()), p);
    let p50 = |v: &[f64]| stats::median(&sorted(v.to_vec()));
    let lookups = ops.max(1.0);
    let late_p99 = if shape.rate.is_some() { pct(&run.late_us, 99.0) } else { Some(0.0) };
    let values: Vec<(&str, Option<f64>)> = vec![
        ("server.residual_p50_us", p50(&residual)),
        ("server.residual_p99_us", pct(&residual, 99.0)),
        ("server.busy_replies", Some(run.busy as f64)),
        ("server.disk_bytes_per_edit", disk_per_edit),
        ("server.recovery_s", if shape.durable { recovery_s } else { Some(0.0) }),
        ("client.edit_p50_us", p50(&edits)),
        ("client.edit_p99_us", pct(&edits, 99.0)),
        ("client.read_p50_us", p50(&reads)),
        ("client.read_p99_us", pct(&reads, 99.0)),
        ("proto.encode_ns", per_op("proto.encode")),
        ("proto.decode_ns", per_op("proto.decode")),
        ("proto.bytes_per_op", Some(rep.bytes_per_op)),
        ("service.edit_us", layer("service.edit")),
        ("service.read_us", layer("service.read")),
        ("shard.evictions", Some(delta(|s| s.evictions) as f64)),
        ("shard.fault_ins", Some(fault_ins as f64)),
        ("shard.hit_ratio", Some(1.0 - fault_ins as f64 / lookups)),
        ("shard.checkpoints", Some(delta(|s| s.checkpoints) as f64)),
        ("wal.append_us", layer("wal.append")),
        ("wal.bytes_per_edit", Some(rep.wal_bytes)),
        ("wal.checkpoint_write_us", layer("wal.checkpoint_write")),
        ("wal.scan_ms", if shape.durable { scan_ms } else { Some(0.0) }),
        ("dynamic.apply_us", layer("dynamic.apply")),
        ("dynamic.snapshot_us", layer("dynamic.snapshot")),
        ("dynamic.snapshot_bytes", Some(rep.snapshot_bytes)),
        ("dynamic.median_order_us", layer("dynamic.median_order")),
        ("dynamic.top_k_us", layer("dynamic.top_k")),
        ("tally.kemeny_us", layer("tally.kemeny")),
        ("metrics.prepare_us", layer("metrics.prepare")),
        ("metrics.pair_us", layer("metrics.pair")),
        ("metrics.weighted_us", layer("metrics.weighted")),
        ("loadgen.late_p99_us", late_p99),
        ("loadgen.cpu_us_per_op", own_cpu.map(|c| c * 1e6 / lookups)),
        ("trace.overhead_frac", Some(rep.overhead)),
    ];
    emit_layers(&mut out, &values);
    Ok(out)
}

/// Per-profile layers of the offline workload, in ms per profile.
const OFFLINE_LAYERS: [&str; 7] = [
    "metrics.matrix_ms",
    "tally.build_ms",
    "aggregate.median_ms",
    "aggregate.kwiksort_ms",
    "aggregate.local_ms",
    "aggregate.minmax_ms",
    "aggregate.exact_bb_ms",
];

/// `offline_aggregate`, end to end or traced.
fn offline(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.detail(
        "shape",
        Json::Str(format!(
            "typed Mallows m={} x n={}, exact solvers on {} elements, {} distinct profiles cycled",
            gen::OFFLINE_M,
            OFFLINE_N,
            gen::OFFLINE_EXACT_N,
            gen::OFFLINE_POOL
        )),
    );
    let (pool, setup_s) = set_up_repeatedly(args.trace, || {
        let t0 = Instant::now();
        let pool = offline::generate(args.seed);
        Ok((pool, t0.elapsed().as_secs_f64()))
    })?;
    let w = offline::weights(OFFLINE_N);
    // Warm-up: one untimed pass over the first profile.
    offline::pipeline(&pool[0], &w, 0, None)?;

    // The untraced run streams on two threads; the traced run on one,
    // so its spans nest and its overhead compares like with like.
    let mut tracer = Tracer::new(1 << 16);
    let start = Edge::sample(Pid::Own);
    let opened = Instant::now();
    let clock = (opened, opened + Duration::from_secs_f64(args.seconds));
    let streams: Vec<offline::Streamed> = if args.trace {
        vec![offline::stream(&pool, &w, args.seed, (0, 1), clock, MIN_PROFILES, Some(&mut tracer))?]
    } else {
        let min = MIN_PROFILES.div_ceil(OFFLINE_THREADS);
        let (pool, w) = (&pool, &w);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..OFFLINE_THREADS)
                .map(|t| {
                    scope.spawn(move || {
                        offline::stream(pool, w, args.seed, (t, OFFLINE_THREADS), clock, min, None)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "offline thread panicked".to_string())?)
                .collect::<Result<Vec<_>, String>>()
        })?
    };
    let end = Edge::sample(Pid::Own);
    if let Some(e) = streams.iter().find_map(|s| s.failed.clone()) {
        out.correct = false;
        out.detail("check_failed", Json::Str(e));
    }
    let timed: Vec<(f64, f64)> = streams.iter().flat_map(|s| s.done.iter().copied()).collect();
    let lat_us: Vec<f64> = timed.iter().map(|t| t.1).collect();
    let traced_s: f64 = streams.iter().map(|s| s.traced_s).sum();
    let profiles = lat_us.len();
    out.attempted = profiles as u64;
    out.detail("profiles", Json::Int(profiles as u64));
    out.detail("threads", Json::Int(streams.len() as u64));
    out.detail("failed_frac", Json::Num(0.0));
    out.detail("latency", latency_detail(&lat_us, 90.0));
    out.detail("setup_s", setups_detail(&setup_s));
    let busy_s: f64 = lat_us.iter().sum::<f64>() / 1e6;

    if !args.trace {
        let s = sorted(lat_us.clone());
        let p90 = percentile(&s, 90.0)
            .ok_or(format!("{} profiles are too few for a p90", s.len()))?;
        // Equal parts of the window by completion time; profiles done
        // past the deadline (to reach MIN_PROFILES) join the last part.
        // A part's rate is its profiles over their busy time per thread
        // (every thread is busy throughout), which does not round to
        // whole profiles as a count over the part's width would.
        let windows = stats::windows(&timed, args.seconds, OFFLINE_WINDOWS);
        let threads = streams.len() as f64;
        let rate_of = |w: &[f64]| w.len() as f64 * threads * 1e6 / w.iter().sum::<f64>();
        let per_window = windows.iter().map(|w| Json::Num(rate_of(w))).collect();
        out.detail("window_ops_per_s", Json::Arr(per_window));
        let rate = stats::median_over(&windows, |w| Some(rate_of(w)));
        out.metric("setup_s", "s", stats::median(&sorted(setup_s)));
        out.metric("ops_per_s", "ops/s", rate);
        out.metric("latency_p50_us", "us", stats::median_over(&windows, stats::median));
        out.metric("latency_p90_us", "us", Some(p90));
        out.metric("peak_rss_mib", "MiB", probe::peak_rss_mib(Pid::Own));
        out.metric("cpu_us_per_op", "us", start.cpu_between(&end).map(|c| c * 1e6 / profiles as f64));
        return Ok(out);
    }

    let spans = args.scratch.join(format!("spans-offline_aggregate-{}.tsv", args.seed));
    let _ = tracer.dump(&spans);
    out.detail("spans", Json::Str(spans.display().to_string()));
    let layers = tracer.layers();
    let per_profile_ms = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6 / profiles.max(1) as f64)
    };
    let mut values: Vec<(&str, Option<f64>)> = OFFLINE_LAYERS
        .iter()
        .map(|name| (*name, Some(per_profile_ms(name.trim_end_matches("_ms")))))
        .collect();
    values.push(("tally.kemeny_us", Some(layers.get("tally.kemeny").map_or(0.0, |l| l.mean_us()))));
    values.push(("trace.overhead_frac", Some(traced_s / busy_s.max(1e-9))));
    emit_layers(&mut out, &values);
    Ok(out)
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// layer a workload does not reach reads 0 (it is flat there); a value
/// given as `None` prints as unavailable.
const PER_LAYER: [(&str, &str); 41] = [
    ("server.residual_p50_us", "us"),
    ("server.residual_p99_us", "us"),
    ("server.busy_replies", "count"),
    ("server.disk_bytes_per_edit", "B"),
    ("server.recovery_s", "s"),
    ("client.edit_p50_us", "us"),
    ("client.edit_p99_us", "us"),
    ("client.read_p50_us", "us"),
    ("client.read_p99_us", "us"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("proto.bytes_per_op", "B"),
    ("service.edit_us", "us"),
    ("service.read_us", "us"),
    ("shard.evictions", "count"),
    ("shard.fault_ins", "count"),
    ("shard.hit_ratio", "ratio"),
    ("shard.checkpoints", "count"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_edit", "B"),
    ("wal.checkpoint_write_us", "us"),
    ("wal.scan_ms", "ms"),
    ("dynamic.apply_us", "us"),
    ("dynamic.snapshot_us", "us"),
    ("dynamic.snapshot_bytes", "B"),
    ("dynamic.median_order_us", "us"),
    ("dynamic.top_k_us", "us"),
    ("tally.kemeny_us", "us"),
    ("metrics.prepare_us", "us"),
    ("metrics.pair_us", "us"),
    ("metrics.weighted_us", "us"),
    ("metrics.matrix_ms", "ms"),
    ("tally.build_ms", "ms"),
    ("aggregate.median_ms", "ms"),
    ("aggregate.kwiksort_ms", "ms"),
    ("aggregate.local_ms", "ms"),
    ("aggregate.minmax_ms", "ms"),
    ("aggregate.exact_bb_ms", "ms"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.cpu_us_per_op", "us"),
    ("trace.overhead_frac", "ratio"),
];

fn emit_layers(out: &mut Outcome, values: &[(&str, Option<f64>)]) {
    for (name, unit) in PER_LAYER {
        let v = values.iter().find(|(n, _)| *n == name).map_or(Some(0.0), |p| p.1);
        out.metric(name, unit, v);
    }
}
