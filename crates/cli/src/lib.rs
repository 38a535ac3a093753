//! Library backing the `bucketrank` command-line tool.
//!
//! The CLI works on *ranking files*: UTF-8 text, one partial ranking per
//! line in the bracket syntax of [`bucketrank_core::parse`]
//! (`[thai | sushi pizza | dim-sum]`), blank lines and `#` comments
//! ignored. All lines share one domain — the union of the labels — and
//! every line must mention every label (rank everything, with ties).
//!
//! Subcommands: `compare`, `aggregate`, `medrank`, `generate`; see
//! [`run`] and the per-command functions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use bucketrank_access::medrank::medrank_top_k;
use bucketrank_aggregate::borda::average_rank_full;
use bucketrank_aggregate::cost::{total_cost_x2, AggMetric};
use bucketrank_aggregate::dp::aggregate_optimal_bucketing;
use bucketrank_aggregate::kwiksort::kwiksort_best_of;
use bucketrank_aggregate::markov::{markov_aggregate, MarkovChain, MarkovOptions};
use bucketrank_aggregate::schulze::schulze;
use bucketrank_aggregate::median::{aggregate_full, aggregate_top_k, MedianPolicy};
use bucketrank_core::parse::{display_labeled, parse_labeled_ranking_strict};
use bucketrank_core::{BucketOrder, Domain, TypeSeq};
use bucketrank_metrics::batch::pairwise_matrix;
use bucketrank_workloads::mallows::{Mallows, MallowsWithTies};
use bucketrank_workloads::random::random_bucket_order;
use bucketrank_workloads::rng::Pcg32;
use bucketrank_workloads::rng::SeedableRng;
use std::fmt::Write as _;

/// A CLI failure: human-readable message, nonzero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// A parsed ranking file: the shared domain and the rankings.
#[derive(Debug)]
pub struct RankingFile {
    /// Interned labels.
    pub domain: Domain,
    /// One bucket order per non-comment line.
    pub rankings: Vec<BucketOrder>,
}

/// Parses ranking-file *content* (see the module docs for the format).
///
/// # Errors
/// [`CliError`] describing the offending line.
pub fn parse_ranking_file(content: &str) -> Result<RankingFile, CliError> {
    let lines: Vec<(usize, &str)> = content
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if lines.is_empty() {
        return err("no rankings found in input");
    }
    // Pass 1: intern every label so all lines share the final domain.
    let mut domain = Domain::new();
    for &(lineno, line) in &lines {
        let inner = line
            .strip_prefix('[')
            .and_then(|r| r.strip_suffix(']'))
            .ok_or_else(|| CliError(format!("line {lineno}: rankings look like [a b | c]")))?;
        for tok in inner.split(|c: char| c == '|' || c.is_whitespace()) {
            if !tok.is_empty() {
                domain.intern(tok);
            }
        }
    }
    // Pass 2: strict parse against the full domain.
    let mut rankings = Vec::with_capacity(lines.len());
    for &(lineno, line) in &lines {
        let r = parse_labeled_ranking_strict(line, &domain)
            .map_err(|e| CliError(format!("line {lineno}: {e}")))?;
        rankings.push(r);
    }
    Ok(RankingFile { domain, rankings })
}

/// `compare`: pairwise distance table under one or all metrics.
///
/// # Errors
/// [`CliError`] on unknown metrics or malformed input.
pub fn cmd_compare(content: &str, metric: &str) -> Result<String, CliError> {
    let file = parse_ranking_file(content)?;
    let metrics: Vec<AggMetric> = match metric {
        "all" => AggMetric::ALL.to_vec(),
        "kprof" => vec![AggMetric::KProf],
        "fprof" => vec![AggMetric::FProf],
        "khaus" => vec![AggMetric::KHaus],
        "fhaus" => vec![AggMetric::FHaus],
        other => return err(format!("unknown metric {other:?} (kprof|fprof|khaus|fhaus|all)")),
    };
    let mut out = String::new();
    let m = file.rankings.len();
    for metric in metrics {
        // The batch matrix is on the engine's scale; `scale` lifts it to
        // the shared ×2 scale, which halves to the paper's value.
        let (batch, scale) = metric.batch_metric();
        let d = pairwise_matrix(&file.rankings, batch).map_err(|e| CliError(e.to_string()))?;
        let _ = writeln!(out, "{}:", metric.name());
        for i in 0..m {
            let mut row = String::new();
            for j in 0..m {
                let _ = write!(row, "{:>8.1}", (d.get(i, j) * scale) as f64 / 2.0);
            }
            let _ = writeln!(out, "  #{i:<3}{row}");
        }
    }
    Ok(out)
}

/// `aggregate`: combine the rankings with the chosen method.
///
/// # Errors
/// [`CliError`] on unknown methods, on `top` with any method but
/// `median` (the others always return a full ranking), or on malformed
/// input.
pub fn cmd_aggregate(content: &str, method: &str, top: Option<usize>) -> Result<String, CliError> {
    if top.is_some() && method != "median" {
        return err(format!("--top applies only to --method median, not {method:?}"));
    }
    let file = parse_ranking_file(content)?;
    let inputs = &file.rankings;
    let output = match method {
        "median" => match top {
            Some(k) => aggregate_top_k(inputs, k, MedianPolicy::Lower),
            None => aggregate_full(inputs, MedianPolicy::Lower),
        },
        "fdagger" => aggregate_optimal_bucketing(inputs, MedianPolicy::Lower).map(|b| b.order),
        "borda" => average_rank_full(inputs),
        "mc4" => markov_aggregate(inputs, MarkovChain::Mc4, MarkovOptions::default()),
        "kwiksort" => kwiksort_best_of(inputs, 42, 8),
        "schulze" => schulze(inputs),
        other => {
            return err(format!(
                "unknown method {other:?} (median|fdagger|borda|mc4|kwiksort|schulze)"
            ))
        }
    }
    .map_err(|e| CliError(e.to_string()))?;

    let mut out = String::new();
    let _ = writeln!(out, "{}", display_labeled(&output, &file.domain));
    let cost = total_cost_x2(AggMetric::FProf, &output, inputs)
        .map_err(|e| CliError(e.to_string()))?;
    let _ = writeln!(out, "# aggregate Fprof cost: {:.1}", cost as f64 / 2.0);
    Ok(out)
}

/// `medrank`: sorted-access top-k with access statistics.
///
/// # Errors
/// [`CliError`] on malformed input or `k` out of range.
pub fn cmd_medrank(content: &str, k: usize) -> Result<String, CliError> {
    let file = parse_ranking_file(content)?;
    let r = medrank_top_k(&file.rankings, k).map_err(|e| CliError(e.to_string()))?;
    let mut out = String::new();
    for (rank, &e) in r.top.iter().enumerate() {
        let label = file.domain.label(e).unwrap_or("?");
        let _ = writeln!(out, "{:>3}. {label}", rank + 1);
    }
    let n = file.rankings[0].len();
    let _ = writeln!(
        out,
        "# accesses: {} of a {}-entry full scan (depths: {:?})",
        r.stats.total_accesses(),
        n * file.rankings.len(),
        r.stats.sorted_depth
    );
    Ok(out)
}

/// `generate`: emit a random ranking file (for demos and testing).
///
/// # Errors
/// [`CliError`] on nonsensical parameters, including a Mallows `θ`
/// that is negative or not finite.
pub fn cmd_generate(
    n: usize,
    m: usize,
    seed: u64,
    mallows_theta: Option<f64>,
    top: Option<usize>,
) -> Result<String, CliError> {
    if n == 0 || m == 0 {
        return err("need n ≥ 1 and m ≥ 1");
    }
    if let Some(theta) = mallows_theta {
        if !(theta.is_finite() && theta >= 0.0) {
            return err(format!("--mallows θ must be finite and ≥ 0, got {theta}"));
        }
    }
    // Checked before either branch, so both reject k > n the same way.
    let alpha = match top {
        Some(k) => TypeSeq::top_k(n, k).map_err(|e| CliError(e.to_string()))?,
        None => TypeSeq::full(n),
    };
    let mut rng = Pcg32::seed_from_u64(seed);
    let rankings: Vec<BucketOrder> = match (mallows_theta, top) {
        (Some(theta), _) => {
            let model = MallowsWithTies::new(Mallows::new(n, theta), alpha);
            model.sample_profile(&mut rng, m)
        }
        (None, Some(k)) => (0..m)
            .map(|_| bucketrank_workloads::random::random_top_k(&mut rng, n, k))
            .collect(),
        (None, None) => (0..m).map(|_| random_bucket_order(&mut rng, n)).collect(),
    };
    // Brackets and e<N> labels make a self-contained file.
    let mut labeled = String::new();
    for r in &rankings {
        let mut line = String::from("[");
        for (bi, b) in r.buckets().iter().enumerate() {
            if bi > 0 {
                line.push_str(" | ");
            }
            for (i, e) in b.iter().enumerate() {
                if i > 0 {
                    line.push(' ');
                }
                let _ = write!(line, "e{e}");
            }
        }
        line.push(']');
        let _ = writeln!(labeled, "{line}");
    }
    Ok(labeled)
}

/// `analyze`: structural report on a ranking file — tie structure,
/// pairwise distances, Condorcet analysis, and (for full rankings) a
/// fitted Mallows dispersion.
///
/// # Errors
/// [`CliError`] on malformed input.
pub fn cmd_analyze(content: &str) -> Result<String, CliError> {
    use bucketrank_aggregate::condorcet::MajorityGraph;
    use bucketrank_metrics::normalized::kprof_normalized;
    use bucketrank_workloads::fit::fit_mallows;

    let file = parse_ranking_file(content)?;
    let inputs = &file.rankings;
    let n = inputs[0].len();
    let m = inputs.len();
    let mut out = String::new();
    let _ = writeln!(out, "{m} rankings over {n} elements");

    // Tie structure.
    let full_count = inputs.iter().filter(|s| s.is_full()).count();
    let avg_buckets: f64 =
        inputs.iter().map(|s| s.num_buckets() as f64).sum::<f64>() / m as f64;
    let _ = writeln!(
        out,
        "tie structure: {full_count}/{m} full rankings; mean bucket count {avg_buckets:.1}"
    );

    // Pairwise dispersion under the normalized Kprof.
    let mut total = 0.0;
    let mut pairs = 0u32;
    let mut max_pair = (0.0f64, 0usize, 0usize);
    for i in 0..m {
        for j in i + 1..m {
            let d = kprof_normalized(&inputs[i], &inputs[j])
                .map_err(|e| CliError(e.to_string()))?;
            total += d;
            pairs += 1;
            if d > max_pair.0 {
                max_pair = (d, i, j);
            }
        }
    }
    if pairs > 0 {
        let _ = writeln!(
            out,
            "dispersion: mean normalized Kprof {:.3}; farthest pair #{} / #{} at {:.3}",
            total / pairs as f64,
            max_pair.1,
            max_pair.2,
            max_pair.0
        );
    }

    // Condorcet analysis.
    let g = MajorityGraph::build(inputs).map_err(|e| CliError(e.to_string()))?;
    match g.condorcet_winner() {
        Some(w) => {
            let _ = writeln!(
                out,
                "condorcet winner: {}",
                file.domain.label(w).unwrap_or("?")
            );
        }
        None => {
            let smith: Vec<&str> = g
                .smith_set()
                .into_iter()
                .map(|e| file.domain.label(e).unwrap_or("?"))
                .collect();
            let _ = writeln!(out, "no condorcet winner; smith set: {}", smith.join(", "));
        }
    }

    // Mallows fit for full-ranking profiles.
    if full_count == m {
        if let Some((reference, theta)) = fit_mallows(inputs) {
            let _ = writeln!(
                out,
                "mallows fit: θ ≈ {theta:.2} around {}",
                display_labeled(&reference, &file.domain)
            );
        }
    } else {
        let _ = writeln!(out, "mallows fit: skipped (profile has ties)");
    }
    Ok(out)
}

/// `query`: load a CSV catalog and run a preference query with MEDRANK.
///
/// Preference specs use a compact grammar, one `--prefer` each:
/// `attr:asc`, `attr:desc`, `attr:asc:bin=10`, `attr:in=thai;sushi`.
///
/// # Errors
/// [`CliError`] on malformed schema/preference specs or CSV.
pub fn cmd_query(
    csv_content: &str,
    schema_spec: &str,
    prefer_specs: &[String],
    k: usize,
    has_header: bool,
) -> Result<String, CliError> {
    use bucketrank_access::csv::{parse_schema, table_from_csv, CsvOptions};
    use bucketrank_access::db::{Binning, Direction, OrderSpec};
    use bucketrank_access::query::PreferenceQuery;

    let (names, kinds) = parse_schema(schema_spec).map_err(|e| CliError(e.to_string()))?;
    let table = table_from_csv(csv_content, &kinds, CsvOptions { has_header })
        .map_err(|e| CliError(e.to_string()))?;
    // Without a header, rename columns per the schema spec by rebuilding
    // the specs against c0.. names is not possible; instead we require
    // the header names to match the schema names when a header exists.
    if has_header {
        for n in &names {
            if table.schema().column(n).is_none() {
                return err(format!("schema column {n:?} not found in the CSV header"));
            }
        }
    }
    let name_for = |requested: &str| -> Result<String, CliError> {
        if has_header {
            Ok(requested.to_owned())
        } else {
            // Map schema-spec names onto positional c<i> columns.
            names
                .iter()
                .position(|n| n == requested)
                .map(|i| format!("c{i}"))
                .ok_or_else(|| CliError(format!("unknown attribute {requested:?}")))
        }
    };

    if prefer_specs.is_empty() {
        return err("query requires at least one --prefer");
    }
    let mut specs = Vec::with_capacity(prefer_specs.len());
    for p in prefer_specs {
        let parts: Vec<&str> = p.split(':').collect();
        let attr = name_for(parts[0].trim())?;
        let spec = match parts.get(1).map(|s| s.trim()) {
            Some("asc") | Some("desc") => {
                let dir = if parts[1].trim() == "asc" {
                    Direction::Asc
                } else {
                    Direction::Desc
                };
                let mut s = OrderSpec::numeric(attr, dir);
                if let Some(binpart) = parts.get(2) {
                    let w = binpart
                        .trim()
                        .strip_prefix("bin=")
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|w| *w > 0.0)
                        .ok_or_else(|| CliError(format!("bad binning in {p:?}")))?;
                    s = s
                        .with_binning(Binning::Width(w))
                        .map_err(|e| CliError(e.to_string()))?;
                }
                s
            }
            Some(rest) if rest.starts_with("in=") => {
                let values = rest["in=".len()..].split(';').map(str::trim);
                OrderSpec::text_preference(attr, values)
            }
            _ => {
                return err(format!(
                    "bad preference {p:?} (use attr:asc, attr:desc[:bin=W], or attr:in=a;b)"
                ))
            }
        };
        specs.push(spec);
    }

    let query = PreferenceQuery::new(specs).with_k(k);
    let result = query.run(&table).map_err(|e| CliError(e.to_string()))?;
    let mut out = String::new();
    for (rank, &row) in result.top.iter().enumerate() {
        let mut cells = Vec::new();
        for (name, _) in table.schema().iter() {
            if let Some(v) = table.value(row as usize, name) {
                cells.push(match v {
                    bucketrank_access::db::AttrValue::Int(x) => x.to_string(),
                    bucketrank_access::db::AttrValue::Float(x) => format!("{x:.2}"),
                    bucketrank_access::db::AttrValue::Text(s) => s.clone(),
                });
            }
        }
        let _ = writeln!(out, "{:>3}. row {:<6} {}", rank + 1, row, cells.join(", "));
    }
    let _ = writeln!(
        out,
        "# accesses: {} of a {}-entry full scan",
        result.stats.total_accesses(),
        table.len() * query.specs().len()
    );
    Ok(out)
}

/// `serve`: host ranking sessions over TCP until a client sends the
/// wire `Shutdown` request, then drain and report traffic counters.
///
/// `addr_file`, when given, receives the bound address once listening —
/// the handshake scripts and tests use it with `--addr 127.0.0.1:0` to
/// discover the ephemeral port.
///
/// # Errors
/// [`CliError`] on nonsensical parameters or bind/write failures.
#[allow(clippy::too_many_arguments)]
pub fn cmd_serve(
    addr: &str,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    max_conns: Option<usize>,
    max_frame: Option<usize>,
    pipeline_depth: Option<usize>,
    addr_file: Option<&str>,
    shards: Option<usize>,
    max_sessions: Option<usize>,
    data_dir: Option<&str>,
    checkpoint_every: Option<u64>,
) -> Result<String, CliError> {
    use bucketrank_server::{Server, ServerConfig, MAX_SHARDS};

    let mut config = ServerConfig::default();
    if let Some(w) = workers {
        config.workers = w;
    }
    if let Some(d) = queue_depth {
        config.queue_depth = d;
    }
    if let Some(c) = max_conns {
        config.max_connections = c;
    }
    if let Some(f) = max_frame {
        config.max_frame = f;
    }
    if let Some(p) = pipeline_depth {
        config.pipeline_depth = p;
    }
    if let Some(s) = shards {
        config.shards = s;
    }
    if let Some(m) = max_sessions {
        config.max_sessions = m;
    }
    if let Some(c) = checkpoint_every {
        config.checkpoint_every = c;
    }
    config.data_dir = data_dir.map(std::path::PathBuf::from);
    if config.workers == 0 || config.queue_depth == 0 || config.max_connections == 0 {
        return err("serve needs --workers, --queue-depth, and --max-conns ≥ 1");
    }
    // A frame smaller than the length prefix + version/opcode header,
    // or a connection that may never have an op in flight, can serve
    // no request at all.
    if config.max_frame < 16 || config.pipeline_depth == 0 {
        return err("serve needs --max-frame ≥ 16 and --pipeline-depth ≥ 1");
    }
    if config.shards == 0 || config.shards > MAX_SHARDS {
        return err(format!("serve needs --shards in 1..={MAX_SHARDS}"));
    }
    if config.max_sessions == 0 || config.checkpoint_every == 0 {
        return err("serve needs --max-sessions and --checkpoint-every ≥ 1");
    }
    let server =
        Server::bind(addr, config).map_err(|e| CliError(format!("cannot bind {addr}: {e}")))?;
    let local = server.local_addr();
    eprintln!("bucketrank serving on {local}");
    if let Some(path) = addr_file {
        std::fs::write(path, local.to_string())
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
    }
    server.wait_shutdown_requested();
    let stats = server.shutdown();
    Ok(format!(
        "served {} requests over {} connections ({} busy rejections, {} protocol errors)\n",
        stats.requests, stats.connections, stats.rejected_busy, stats.protocol_errors
    ))
}

/// The x86-64-v3 features the host check covers; bit `i` of a feature
/// set stands for `V3_FEATURES[i]`.
pub const V3_FEATURES: [&str; 8] = [
    "avx", "avx2", "bmi1", "bmi2", "fma", "lzcnt", "movbe", "f16c",
];

/// The features of [`V3_FEATURES`] this binary was compiled to use: all
/// of them under the workspace's build policy (`.cargo/config.toml`
/// sets `-C target-cpu=x86-64-v3` on x86_64), none in a baseline build.
pub const COMPILED_V3: u32 = cfg!(target_feature = "avx") as u32
    | (cfg!(target_feature = "avx2") as u32) << 1
    | (cfg!(target_feature = "bmi1") as u32) << 2
    | (cfg!(target_feature = "bmi2") as u32) << 3
    | (cfg!(target_feature = "fma") as u32) << 4
    | (cfg!(target_feature = "lzcnt") as u32) << 5
    | (cfg!(target_feature = "movbe") as u32) << 6
    | (cfg!(target_feature = "f16c") as u32) << 7;

/// The features of [`V3_FEATURES`] this host's CPU has, read from CPUID.
///
/// `is_x86_feature_detected!` cannot answer this: it folds to `true` for
/// every feature the calling crate was compiled with, so under the build
/// policy it would accept any host. AVX and the features that use its
/// registers (AVX2, FMA, F16C) also need CPUID's OSXSAVE bit, set when
/// the OS saves the extended register state. (XCR0 itself is read by
/// `_xgetbv`, which is `unsafe`, so it is not checked.)
#[cfg(target_arch = "x86_64")]
pub fn detected_v3() -> u32 {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    let leaf1 = __cpuid(1).ecx;
    let leaf7 = if __cpuid(0).eax >= 7 {
        __cpuid_count(7, 0).ebx
    } else {
        0
    };
    let ext1 = if __cpuid(0x8000_0000).eax >= 0x8000_0001 {
        __cpuid(0x8000_0001).ecx
    } else {
        0
    };
    let bit = |reg: u32, i: u32| reg >> i & 1;
    let ymm = bit(leaf1, 27);
    (ymm & bit(leaf1, 28))
        | (ymm & bit(leaf7, 5)) << 1
        | bit(leaf7, 3) << 2
        | bit(leaf7, 8) << 3
        | (ymm & bit(leaf1, 12)) << 4
        | bit(ext1, 5) << 5
        | bit(leaf1, 22) << 6
        | (ymm & bit(leaf1, 29)) << 7
}

/// The features of [`V3_FEATURES`] this host's CPU has: none off x86_64,
/// where [`COMPILED_V3`] is empty too.
#[cfg(not(target_arch = "x86_64"))]
pub fn detected_v3() -> u32 {
    0
}

/// The host check `main` runs before anything else: every feature the
/// binary was compiled with must be in the host's `detected` set. A
/// baseline build (`compiled` = 0) accepts any host.
///
/// # Errors
/// A [`HostRefusal`] naming the missing features, instead of a SIGILL
/// later.
pub fn host_verdict(compiled: u32, detected: u32) -> Result<(), HostRefusal> {
    match compiled & !detected {
        0 => Ok(()),
        missing => Err(HostRefusal(missing)),
    }
}

/// The features of [`V3_FEATURES`] a host lacks. Its message names them
/// and the override that builds for an older host.
///
/// It holds a bit set and writes only static strings, so reporting it
/// moves no value wider than a register: on a host without AVX the
/// refusal must not itself run an AVX instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRefusal(pub u32);

impl std::fmt::Display for HostRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("this binary was built for x86-64-v3 and this CPU lacks")?;
        let mut sep = " ";
        for (i, name) in V3_FEATURES.iter().enumerate() {
            if self.0 >> i & 1 == 1 {
                f.write_str(sep)?;
                f.write_str(name)?;
                sep = ", ";
            }
        }
        f.write_str(
            "; build it for an older host with RUSTFLAGS=\"-C target-cpu=x86-64\" cargo build --release \
             (see README, Install)",
        )
    }
}

/// Entry point shared by `main` and the tests: parses the argument list
/// (without the program name) and returns the command's stdout text.
///
/// # Errors
/// [`CliError`] with a usage or failure message.
pub fn run(args: &[String], read_file: impl Fn(&str) -> Result<String, CliError>) -> Result<String, CliError> {
    let usage = "usage:\n  bucketrank compare <file> [--metric kprof|fprof|khaus|fhaus|all]\n  bucketrank aggregate <file> [--method median|fdagger|borda|mc4|kwiksort|schulze] [--top K (median only)]\n  bucketrank medrank <file> --top K\n  bucketrank analyze <file>\n  bucketrank query <data.csv> --schema a:int,b:text,… --prefer attr:asc[:bin=W] [--prefer attr:in=x;y]… [--top K] [--no-header]\n  bucketrank generate --n N --m M [--seed S] [--mallows THETA] [--top K]\n  bucketrank serve [--addr HOST:PORT] [--workers N] [--queue-depth N] [--max-conns N] [--max-frame BYTES] [--pipeline-depth N] [--addr-file PATH] [--shards N] [--max-sessions N] [--data-dir PATH] [--checkpoint-every N]\n    (--max-sessions is a resident-session budget split ceil(N/shards) per shard by the session-name hash)";
    let mut it = args.iter();
    let cmd = match it.next() {
        Some(c) => c.as_str(),
        None => return err(usage),
    };
    let rest: Vec<&String> = it.collect();
    let flag = |name: &str| -> Option<&str> {
        rest.iter()
            .position(|a| a.as_str() == name)
            .and_then(|i| rest.get(i + 1))
            .map(|s| s.as_str())
    };
    let positional = || -> Option<&String> {
        // First argument that isn't a flag and isn't a flag's value.
        rest.iter().enumerate().find_map(|(i, a)| {
            let is_flag_value = i > 0 && rest[i - 1].starts_with("--");
            if !a.starts_with("--") && !is_flag_value {
                Some(*a)
            } else {
                None
            }
        })
    };

    match cmd {
        "compare" => {
            let path = positional().ok_or_else(|| CliError(usage.to_owned()))?;
            let content = read_file(path)?;
            cmd_compare(&content, flag("--metric").unwrap_or("all"))
        }
        "aggregate" => {
            let path = positional().ok_or_else(|| CliError(usage.to_owned()))?;
            let content = read_file(path)?;
            let top = match flag("--top") {
                Some(t) => Some(t.parse().map_err(|_| CliError("bad --top".into()))?),
                None => None,
            };
            cmd_aggregate(&content, flag("--method").unwrap_or("median"), top)
        }
        "medrank" => {
            let path = positional().ok_or_else(|| CliError(usage.to_owned()))?;
            let content = read_file(path)?;
            let k = flag("--top")
                .ok_or_else(|| CliError("medrank requires --top K".into()))?
                .parse()
                .map_err(|_| CliError("bad --top".into()))?;
            cmd_medrank(&content, k)
        }
        "analyze" => {
            let path = positional().ok_or_else(|| CliError(usage.to_owned()))?;
            let content = read_file(path)?;
            cmd_analyze(&content)
        }
        "query" => {
            let path = positional().ok_or_else(|| CliError(usage.to_owned()))?;
            let content = read_file(path)?;
            let schema = flag("--schema")
                .ok_or_else(|| CliError("query requires --schema".into()))?;
            // --prefer is repeatable: collect every occurrence.
            let prefers: Vec<String> = rest
                .iter()
                .enumerate()
                .filter(|(_, a)| a.as_str() == "--prefer")
                .filter_map(|(i, _)| rest.get(i + 1).map(|s| s.to_string()))
                .collect();
            let k = match flag("--top") {
                Some(t) => t.parse().map_err(|_| CliError("bad --top".into()))?,
                None => 1,
            };
            let has_header = !rest.iter().any(|a| a.as_str() == "--no-header");
            cmd_query(&content, schema, &prefers, k, has_header)
        }
        "generate" => {
            let n = flag("--n")
                .ok_or_else(|| CliError("generate requires --n".into()))?
                .parse()
                .map_err(|_| CliError("bad --n".into()))?;
            let m = flag("--m")
                .ok_or_else(|| CliError("generate requires --m".into()))?
                .parse()
                .map_err(|_| CliError("bad --m".into()))?;
            let seed = match flag("--seed") {
                Some(s) => s.parse().map_err(|_| CliError("bad --seed".into()))?,
                None => 42,
            };
            let theta = match flag("--mallows") {
                Some(t) => Some(t.parse().map_err(|_| CliError("bad --mallows".into()))?),
                None => None,
            };
            let top = match flag("--top") {
                Some(t) => Some(t.parse().map_err(|_| CliError("bad --top".into()))?),
                None => None,
            };
            cmd_generate(n, m, seed, theta, top)
        }
        "serve" => {
            let parse_opt = |name: &str| -> Result<Option<usize>, CliError> {
                match flag(name) {
                    Some(v) => v
                        .parse()
                        .map(Some)
                        .map_err(|_| CliError(format!("bad {name}"))),
                    None => Ok(None),
                }
            };
            let checkpoint_every = match flag("--checkpoint-every") {
                Some(v) => Some(
                    v.parse::<u64>()
                        .map_err(|_| CliError("bad --checkpoint-every".into()))?,
                ),
                None => None,
            };
            cmd_serve(
                flag("--addr").unwrap_or("127.0.0.1:7131"),
                parse_opt("--workers")?,
                parse_opt("--queue-depth")?,
                parse_opt("--max-conns")?,
                parse_opt("--max-frame")?,
                parse_opt("--pipeline-depth")?,
                flag("--addr-file"),
                parse_opt("--shards")?,
                parse_opt("--max-sessions")?,
                flag("--data-dir"),
                checkpoint_every,
            )
        }
        "--help" | "-h" | "help" => Ok(usage.to_owned()),
        other => err(format!("unknown command {other:?}\n{usage}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bucketrank_metrics::{footrule, hausdorff, kendall};

    const SAMPLE: &str = "\n# three diners\n[thai | sushi pizza]\n[sushi | thai pizza]\n[thai sushi | pizza]\n";

    fn no_fs(_: &str) -> Result<String, CliError> {
        err("no filesystem in tests")
    }

    const ALL_V3: u32 = (1 << V3_FEATURES.len()) - 1;

    #[test]
    fn host_check_accepts_a_full_v3_host() {
        assert!(host_verdict(ALL_V3, ALL_V3).is_ok());
        // This process runs code built with COMPILED_V3, so its host has
        // those features: the CPUID decode must find every one of them.
        assert!(host_verdict(COMPILED_V3, detected_v3()).is_ok());
    }

    #[test]
    fn host_check_names_the_missing_feature_and_the_override() {
        let avx2 = 1 << V3_FEATURES.iter().position(|&f| f == "avx2").unwrap();
        let msg = host_verdict(ALL_V3, ALL_V3 & !avx2)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("lacks avx2;"), "{msg}");
        assert!(msg.contains("RUSTFLAGS=\"-C target-cpu=x86-64\""), "{msg}");
        let msg = host_verdict(ALL_V3, 0).unwrap_err().to_string();
        assert!(
            msg.contains(&format!("lacks {};", V3_FEATURES.join(", "))),
            "{msg}"
        );
    }

    #[test]
    fn host_check_of_a_baseline_build_accepts_any_host() {
        for detected in [0, 0b1010_0101, ALL_V3] {
            assert!(host_verdict(0, detected).is_ok());
        }
    }

    #[test]
    fn parse_file_shares_domain() {
        let f = parse_ranking_file(SAMPLE).unwrap();
        assert_eq!(f.domain.len(), 3);
        assert_eq!(f.rankings.len(), 3);
        for r in &f.rankings {
            assert_eq!(r.len(), 3);
        }
    }

    #[test]
    fn parse_file_errors_mention_line() {
        let bad = "[a | b]\n[a b c]\n"; // line 2 mentions c, so line 1 misses it
        let e = parse_ranking_file(bad).unwrap_err();
        assert!(e.0.contains("line 1"), "{}", e.0);
        assert!(parse_ranking_file("\n# only comments\n").is_err());
        assert!(parse_ranking_file("not brackets").is_err());
    }

    #[test]
    fn compare_outputs_square_tables() {
        let out = cmd_compare(SAMPLE, "all").unwrap();
        for name in ["Kprof", "Fprof", "KHaus", "FHaus"] {
            assert!(out.contains(name), "{out}");
        }
        assert!(cmd_compare(SAMPLE, "nope").is_err());
        let single = cmd_compare(SAMPLE, "kprof").unwrap();
        assert!(single.contains("Kprof") && !single.contains("FHaus"));
    }

    #[test]
    fn compare_all_matches_the_direct_metrics_cell_by_cell() {
        let rankings = parse_ranking_file(SAMPLE).unwrap().rankings;
        let direct = |name: &str, a: &BucketOrder, b: &BucketOrder| match name {
            "Kprof" => kendall::kprof(a, b).unwrap(),
            "Fprof" => footrule::fprof(a, b).unwrap(),
            "KHaus" => hausdorff::khaus(a, b).unwrap() as f64,
            _ => hausdorff::fhaus(a, b).unwrap() as f64,
        };
        let mut expected = String::new();
        for name in ["Kprof", "Fprof", "KHaus", "FHaus"] {
            let _ = writeln!(expected, "{name}:");
            for (i, a) in rankings.iter().enumerate() {
                let row: String =
                    rankings.iter().map(|b| format!("{:>8.1}", direct(name, a, b))).collect();
                let _ = writeln!(expected, "  #{i:<3}{row}");
            }
        }
        assert_eq!(cmd_compare(SAMPLE, "all").unwrap(), expected);
    }

    #[test]
    fn aggregate_methods_run() {
        for method in ["median", "fdagger", "borda", "mc4", "kwiksort", "schulze"] {
            let out = cmd_aggregate(SAMPLE, method, None).unwrap();
            assert!(out.contains("Fprof cost"), "{method}: {out}");
            assert!(out.starts_with('['), "{method}: {out}");
        }
        let top = cmd_aggregate(SAMPLE, "median", Some(1)).unwrap();
        assert!(top.contains('|'));
        assert!(cmd_aggregate(SAMPLE, "zzz", None).is_err());
    }

    #[test]
    fn aggregate_top_is_median_only() {
        for method in ["fdagger", "borda", "mc4", "kwiksort", "schulze"] {
            for k in [1, 99] {
                let e = cmd_aggregate(SAMPLE, method, Some(k)).expect_err(method);
                assert!(e.0.contains("--top") && e.0.contains(method), "{method}: {e:?}");
            }
            let line = format!("aggregate rankings.txt --method {method} --top 2");
            let args: Vec<String> = line.split(' ').map(str::to_owned).collect();
            let e = run(&args, |_| Ok(SAMPLE.to_owned())).expect_err(method);
            assert!(e.0.contains("median"), "{method}: {e:?}");
        }
        let args: Vec<String> = "aggregate rankings.txt --method median --top 2"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let out = run(&args, |_| Ok(SAMPLE.to_owned())).unwrap();
        assert_eq!(out, cmd_aggregate(SAMPLE, "median", Some(2)).unwrap());
        assert!(out.contains('|'), "{out}");
    }

    #[test]
    fn medrank_reports_access_stats() {
        let out = cmd_medrank(SAMPLE, 2).unwrap();
        assert!(out.contains("1. "), "{out}");
        assert!(out.contains("accesses"), "{out}");
        assert!(cmd_medrank(SAMPLE, 9).is_err());
    }

    #[test]
    fn generate_round_trips_through_parser() {
        let text = cmd_generate(6, 4, 7, None, None).unwrap();
        let f = parse_ranking_file(&text).unwrap();
        assert_eq!(f.rankings.len(), 4);
        assert_eq!(f.domain.len(), 6);
        // Mallows + top-k mode.
        let text = cmd_generate(8, 3, 7, Some(1.0), Some(3)).unwrap();
        let f = parse_ranking_file(&text).unwrap();
        assert!(f.rankings.iter().all(|r| r.top_k_len() == Some(3)));
        assert!(cmd_generate(0, 3, 7, None, None).is_err());
    }

    #[test]
    fn generate_rejects_top_k_above_n_on_both_branches() {
        for extra in ["", " --mallows 0.5"] {
            let line = format!("generate --n 3 --m 2 --top 5{extra}");
            let args: Vec<String> = line.split(' ').map(str::to_owned).collect();
            let e = run(&args, no_fs).expect_err(&line);
            assert!(e.0.contains("k = 5 exceeds the domain size 3"), "{line}: {e:?}");
        }
        // k = n is still a valid top-k on both branches.
        assert!(cmd_generate(3, 2, 7, None, Some(3)).is_ok());
        assert!(cmd_generate(3, 2, 7, Some(0.5), Some(3)).is_ok());
    }

    #[test]
    fn generate_rejects_negative_and_non_finite_mallows_theta() {
        for theta in ["-3", "nan", "inf"] {
            let line = format!("generate --n 5 --m 2 --mallows {theta}");
            let args: Vec<String> = line.split(' ').map(str::to_owned).collect();
            let e = run(&args, no_fs).expect_err(theta);
            assert!(e.0.contains("--mallows"), "{theta}: {e:?}");
        }
    }

    const CSV: &str = "\
cuisine,distance,stars
thai,2.0,4
sushi,9.5,5
thai,14.0,3
pizza,3.5,4
";

    #[test]
    fn query_over_csv() {
        let prefers = vec![
            "cuisine:in=thai;sushi".to_owned(),
            "distance:asc:bin=10".to_owned(),
            "stars:desc".to_owned(),
        ];
        let out = cmd_query(CSV, "cuisine:text,distance:float,stars:int", &prefers, 2, true)
            .unwrap();
        assert!(out.contains("1. row"), "{out}");
        assert!(out.contains("accesses"), "{out}");
        // The close thai place should win.
        assert!(out.lines().next().unwrap().contains("thai"), "{out}");
    }

    #[test]
    fn query_without_header_maps_schema_names() {
        let data = "thai,2.0,4\nsushi,9.5,5\n";
        let prefers = vec!["stars:desc".to_owned()];
        let out = cmd_query(data, "cuisine:text,distance:float,stars:int", &prefers, 1, false)
            .unwrap();
        assert!(out.contains("sushi"), "{out}");
    }

    #[test]
    fn query_errors() {
        assert!(cmd_query(CSV, "bad schema", &["x:asc".into()], 1, true).is_err());
        assert!(cmd_query(CSV, "cuisine:text,distance:float,stars:int", &[], 1, true).is_err());
        assert!(cmd_query(
            CSV,
            "cuisine:text,distance:float,stars:int",
            &["stars:sideways".to_owned()],
            1,
            true
        )
        .is_err());
        assert!(cmd_query(
            CSV,
            "cuisine:text,distance:float,stars:int",
            &["distance:asc:bin=-4".to_owned()],
            1,
            true
        )
        .is_err());
        // Schema column missing from the header.
        assert!(cmd_query(CSV, "zip:int,distance:float,stars:int", &["zip:asc".into()], 1, true)
            .is_err());
    }

    #[test]
    fn analyze_reports_structure() {
        let out = cmd_analyze(SAMPLE).unwrap();
        assert!(out.contains("3 rankings over 3 elements"), "{out}");
        assert!(out.contains("dispersion"), "{out}");
        assert!(out.contains("condorcet") || out.contains("smith"), "{out}");
        assert!(out.contains("skipped (profile has ties)"), "{out}");
        // Full-ranking profile gets a Mallows fit.
        let full = "[a | b | c]\n[a | c | b]\n[b | a | c]\n[a | b | c]\n";
        let out = cmd_analyze(full).unwrap();
        assert!(out.contains("mallows fit: θ"), "{out}");
    }

    #[test]
    fn run_dispatches_analyze() {
        let reader = |_: &str| Ok(SAMPLE.to_owned());
        let args: Vec<String> = vec!["analyze".into(), "f.txt".into()];
        assert!(run(&args, reader).unwrap().contains("rankings over"));
    }

    #[test]
    fn run_dispatches_query() {
        let args: Vec<String> =
            "query data.csv --schema cuisine:text,distance:float,stars:int --prefer stars:desc --prefer distance:asc:bin=10 --top 2"
                .split(' ')
                .map(String::from)
                .collect();
        let reader = |_: &str| Ok(CSV.to_owned());
        let out = run(&args, reader).unwrap();
        assert!(out.contains("1. row"), "{out}");
        assert!(out.lines().count() >= 3);
    }

    #[test]
    fn serve_runs_until_wire_shutdown() {
        use bucketrank_server::Client;
        use std::time::Duration;

        let addr_file = std::env::temp_dir().join(format!(
            "bucketrank-cli-serve-{}.addr",
            std::process::id()
        ));
        let addr_file_str = addr_file.to_string_lossy().into_owned();
        let args: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--addr-file",
            &addr_file_str,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let handle = std::thread::spawn(move || run(&args, no_fs));

        // Wait for the addr file to appear, then drive a round trip.
        let mut addr = None;
        for _ in 0..200 {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(a) = text.trim().parse() {
                    addr = Some(a);
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let addr = addr.expect("server never published its address");
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        client.shutdown_server().unwrap();

        let out = handle.join().unwrap().unwrap();
        assert!(out.contains("served"), "{out}");
        let _ = std::fs::remove_file(&addr_file);

        // Parameter validation is immediate, not deferred to bind.
        let serve = |workers, max_frame, pipeline, shards, sessions, ckpt| {
            cmd_serve(
                "127.0.0.1:0",
                workers,
                None,
                None,
                max_frame,
                pipeline,
                None,
                shards,
                sessions,
                None,
                ckpt,
            )
        };
        assert!(serve(Some(0), None, None, None, None, None).is_err());
        assert!(serve(None, Some(4), None, None, None, None).is_err());
        assert!(serve(None, None, Some(0), None, None, None).is_err());
        assert!(serve(None, None, None, Some(0), None, None).is_err());
        assert!(serve(None, None, None, Some(100_000), None, None).is_err());
        assert!(serve(None, None, None, None, Some(0), None).is_err());
        assert!(serve(None, None, None, None, None, Some(0)).is_err());
    }

    #[test]
    fn run_dispatches_and_reports_usage() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        assert!(run(&[], no_fs).is_err());
        assert!(run(&args("help"), no_fs).unwrap().contains("usage"));
        assert!(run(&args("frobnicate"), no_fs).is_err());
        // generate needs no file access.
        let out = run(&args("generate --n 4 --m 2 --seed 1"), no_fs).unwrap();
        assert_eq!(out.lines().count(), 2);
        // compare via injected file reader.
        let reader = |_: &str| Ok(SAMPLE.to_owned());
        let out = run(&args("compare rankings.txt --metric fprof"), reader).unwrap();
        assert!(out.contains("Fprof"));
        let out = run(&args("medrank rankings.txt --top 1"), reader).unwrap();
        assert!(out.contains("1. "));
        let out = run(&args("aggregate rankings.txt --method fdagger"), reader).unwrap();
        assert!(out.contains("Fprof cost"));
    }
}
