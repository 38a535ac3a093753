//! The traced replay of a served workload: the same seeded op stream,
//! in-process, in three passes over the same frames.
//!
//! * **A** runs each frame through `proto` and [`Service::handle`] on a
//!   service configured like the served one, untraced: the baseline of
//!   the tracing overhead.
//! * **B** does the same with a span around every call, splitting
//!   `proto` encode/decode from `service` edits and reads.
//! * **C** feeds the same edits and reads to shadow objects —
//!   [`DynamicProfile`], its snapshots, a [`WalWriter`] per shard with
//!   checkpoints, the prepared kernels — whose spans split `service`
//!   into its layers.

use crate::gen::{setup_ops, Inputs, Kind, Op, OpGen, Shape};
use crate::trace::{Layer, Tracer};
use bucketrank_aggregate::{DynamicProfile, DynamicSnapshot, MedianPolicy, VoterId};
use bucketrank_metrics::prepared::{
    fhaus_x2_prepared, fprof_x2_prepared, khaus_x2_prepared, kprof_x2_prepared,
};
use bucketrank_metrics::weighted::{top_diff_prepared, weighted_footrule_x2_prepared};
use bucketrank_metrics::{PreparedRanking, Weights};
use bucketrank_server::proto::{decode_batch, decode_batch_reply, encode_batch, encode_batch_reply};
use bucketrank_server::wal::{write_atomic, Checkpoint, WalWriter};
use bucketrank_server::{
    MetricKind, Request, Response, Service, ServiceConfig, WalOp, WalRecord, WirePolicy,
    DEFAULT_CHECKPOINT_EVERY, DEFAULT_SHARDS,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// The frames of the replay: connection streams interleaved frame by
/// frame, each cut at the length the served run consumed.
struct Frames {
    gens: Vec<OpGen>,
    left: Vec<usize>,
    batch: usize,
    turn: usize,
}

impl Frames {
    fn new(shape: &Shape, inputs: &Inputs, seed: u64, consumed: &[usize]) -> Frames {
        Frames {
            gens: (0..shape.conns)
                .map(|c| OpGen::new(shape, inputs, seed, c))
                .collect(),
            left: consumed.to_vec(),
            batch: shape.batch,
            turn: 0,
        }
    }
}

impl Iterator for Frames {
    type Item = Vec<Op>;

    fn next(&mut self) -> Option<Vec<Op>> {
        for _ in 0..self.gens.len() {
            let c = self.turn % self.gens.len();
            self.turn += 1;
            let take = self.batch.min(self.left[c]);
            if take > 0 {
                self.left[c] -= take;
                return Some((0..take).map(|_| self.gens[c].next_op()).collect());
            }
        }
        None
    }
}

fn service(shape: &Shape, dir: &Path) -> Result<Service, String> {
    let _ = std::fs::remove_dir_all(dir);
    Service::with_config(ServiceConfig {
        shards: DEFAULT_SHARDS,
        max_sessions: shape.max_sessions,
        data_dir: shape.durable.then(|| dir.to_path_buf()),
        checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
    })
    .map_err(|e| format!("in-process service: {e}"))
}

fn set_up(svc: &Service, shape: &Shape, inputs: &Inputs, seed: u64) {
    for conn in 0..shape.conns {
        for op in setup_ops(shape, inputs, seed, conn) {
            svc.handle(op.req);
        }
    }
}

/// One frame through encode → decode → handle → encode → decode.
/// With a tracer, every call gets a span under a root span per frame.
fn run_frame(svc: &Service, frame: &[Op], id: u32, mut tr: Option<&mut Tracer>) -> (usize, bool) {
    let reqs: Vec<Request> = frame.iter().map(|o| o.req.clone()).collect();
    let single = reqs.len() == 1;
    macro_rules! traced {
        ($name:expr, $e:expr) => {
            match tr.as_deref_mut() {
                Some(t) => t.span($name, id, || $e),
                None => $e,
            }
        };
    }
    if let Some(t) = tr.as_deref_mut() {
        t.enter("frame", id);
    }
    let body = traced!("proto.encode", if single { reqs[0].encode() } else { encode_batch(&reqs) });
    let decoded: Vec<Request> = traced!("proto.decode", if single {
        vec![Request::decode(&body).expect("own encoding decodes")]
    } else {
        decode_batch(&body).expect("own encoding decodes")
    });
    let resps: Vec<Response> = decoded
        .into_iter()
        .zip(frame)
        .map(|(req, op)| {
            let name = if op.kind.is_edit() { "service.edit" } else { "service.read" };
            traced!(name, svc.handle(req))
        })
        .collect();
    let reply = traced!("proto.encode", if single { resps[0].encode() } else { encode_batch_reply(&resps) });
    let ok = traced!("proto.decode", if single {
        Response::decode(&reply).is_ok()
    } else {
        decode_batch_reply(&reply)
            .map(|bodies| bodies.iter().all(|b| Response::decode(b).is_ok()))
            .unwrap_or(false)
    });
    if let Some(t) = tr {
        t.exit();
    }
    (body.len() + reply.len(), ok)
}

/// Per-session shadow state of pass C.
struct Shadow {
    dp: HashMap<usize, DynamicProfile>,
    snap: HashMap<usize, DynamicSnapshot>,
    wal: Vec<WalWriter>,
    since: Vec<u64>,
    dirty: Vec<HashSet<usize>>,
    seq: u64,
    ckpt_id: u64,
    snapshot_bytes: Vec<f64>,
    wal_bytes: Vec<f64>,
}

impl Shadow {
    fn new(shape: &Shape, inputs: &Inputs, seed: u64, dir: &Path) -> Result<Shadow, String> {
        let _ = std::fs::remove_dir_all(dir);
        let mut wal = Vec::new();
        if shape.durable {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            for i in 0..DEFAULT_SHARDS {
                let path = dir.join(format!("wal-{i}.log"));
                wal.push(WalWriter::open(&path).map_err(|e| format!("shadow wal: {e}"))?);
            }
        }
        let mut sh = Shadow {
            dp: HashMap::new(),
            snap: HashMap::new(),
            since: vec![0; wal.len()],
            dirty: vec![HashSet::new(); wal.len()],
            wal,
            seq: 0,
            ckpt_id: 0,
            snapshot_bytes: Vec::new(),
            wal_bytes: Vec::new(),
        };
        for conn in 0..shape.conns {
            for op in setup_ops(shape, inputs, seed, conn) {
                match op.req {
                    Request::CreateSession { n, .. } => {
                        sh.dp
                            .insert(op.session, DynamicProfile::new(n as usize, MedianPolicy::Lower));
                    }
                    Request::PushVoter { ranking, .. } => {
                        let dp = sh.dp.get_mut(&op.session).expect("created");
                        dp.push_voter(ranking).map_err(|e| e.to_string())?;
                    }
                    _ => {}
                }
            }
        }
        for (&s, dp) in &sh.dp {
            sh.snap.insert(s, dp.snapshot().map_err(|e| e.to_string())?);
        }
        Ok(sh)
    }

    fn wal_op(op: &Op) -> Option<WalOp> {
        let name = |s: &str| s.to_owned();
        Some(match (&op.kind, &op.req) {
            (Kind::Push(id), Request::PushVoter { session, ranking }) => WalOp::Push {
                name: name(session),
                voter: *id,
                ranking: ranking.clone(),
            },
            (_, Request::RemoveVoter { session, voter }) => WalOp::Remove {
                name: name(session),
                voter: *voter,
            },
            (_, Request::ReplaceVoter { session, voter, ranking }) => WalOp::Replace {
                name: name(session),
                voter: *voter,
                ranking: ranking.clone(),
            },
            _ => return None,
        })
    }

    fn edit(&mut self, op: &Op, id: u32, t: &mut Tracer, dir: &Path) -> Result<(), String> {
        let s = op.session;
        if !self.wal.is_empty() {
            let shard = s % self.wal.len();
            self.seq += 1;
            let rec = WalRecord {
                seq: self.seq,
                op: Shadow::wal_op(op).expect("an edit"),
            };
            let w = &mut self.wal[shard];
            let bytes = t.span("wal.append", id, || w.append(&rec)).map_err(|e| e.to_string())?;
            self.wal_bytes.push(bytes as f64);
            self.since[shard] += 1;
            self.dirty[shard].insert(s);
        }
        let dp = self.dp.get_mut(&s).expect("seeded");
        let applied = t.span("dynamic.apply", id, || match &op.req {
            Request::PushVoter { ranking, .. } => dp.push_voter(ranking.clone()).map(|_| ()),
            Request::RemoveVoter { voter, .. } => dp.remove_voter(VoterId::from_raw(*voter)).map(|_| ()),
            Request::ReplaceVoter { voter, ranking, .. } => dp
                .replace_voter(VoterId::from_raw(*voter), ranking.clone())
                .map(|_| ()),
            _ => Ok(()),
        });
        applied.map_err(|e| format!("shadow apply: {e}"))?;
        let snap = t.span("dynamic.snapshot", id, || dp.snapshot()).map_err(|e| e.to_string())?;
        let tally = snap.tally();
        let bytes = 4 * (tally.weights_x2().len() + tally.strict_counts().len())
            + std::mem::size_of_val(snap.median_positions());
        self.snapshot_bytes.push(bytes as f64);
        self.snap.insert(s, snap);
        if !self.wal.is_empty() {
            let shard = s % self.wal.len();
            if self.since[shard] >= DEFAULT_CHECKPOINT_EVERY {
                self.compact(shard, id, t, dir)?;
            }
        }
        Ok(())
    }

    /// Checkpoints every session edited since the last compaction of
    /// `shard`, then truncates its log, as a shard compaction does.
    fn compact(&mut self, shard: usize, id: u32, t: &mut Tracer, dir: &Path) -> Result<(), String> {
        let mut dirty: Vec<usize> = self.dirty[shard].drain().collect();
        dirty.sort_unstable();
        for s in dirty {
            let dp = &self.dp[&s];
            let bytes = Checkpoint {
                name: crate::gen::session_name(s),
                n: dp.len() as u32,
                policy: WirePolicy::Lower,
                next_id: dp.next_push_id(),
                last_seq: self.seq,
                voters: dp
                    .voter_ids()
                    .into_iter()
                    .map(|v| (v.raw(), dp.get_voter(v).expect("live").clone()))
                    .collect(),
            }
            .encode();
            self.ckpt_id += 1;
            let path = dir.join(format!("ckpt-{}.bin", self.ckpt_id % 64));
            t.span("wal.checkpoint_write", id, || write_atomic(&path, &bytes))
                .map_err(|e| e.to_string())?;
        }
        self.wal[shard].truncate_to(0).map_err(|e| e.to_string())?;
        self.since[shard] = 0;
        Ok(())
    }

    fn read(&self, op: &Op, id: u32, t: &mut Tracer) -> Result<(), String> {
        let snap = &self.snap[&op.session];
        let dp = &self.dp[&op.session];
        let voter = |v: u64| dp.get_voter(VoterId::from_raw(v)).ok_or("unknown voter");
        match &op.req {
            Request::MedianOrder { .. } => {
                t.span("dynamic.median_order", id, || snap.median_order());
            }
            Request::TopK { k, .. } => {
                t.span("dynamic.top_k", id, || snap.top_k(*k as usize))
                    .map_err(|e| e.to_string())?;
            }
            Request::KemenyCost { candidate, .. } => {
                t.span("tally.kemeny", id, || snap.tally().kemeny_cost_x2(candidate))
                    .map_err(|e| e.to_string())?;
            }
            Request::PairMetric {
                metric,
                voter_a,
                voter_b,
                ..
            } => {
                let (a, b) = (voter(*voter_a)?, voter(*voter_b)?);
                let pa = t.span("metrics.prepare", id, || PreparedRanking::new(a));
                let pb = t.span("metrics.prepare", id, || PreparedRanking::new(b));
                t.span("metrics.pair", id, || match metric {
                    MetricKind::KprofX2 => kprof_x2_prepared(&pa, &pb),
                    MetricKind::FprofX2 => fprof_x2_prepared(&pa, &pb),
                    MetricKind::KhausX2 => khaus_x2_prepared(&pa, &pb),
                    MetricKind::FhausX2 => fhaus_x2_prepared(&pa, &pb),
                })
                .map_err(|e| e.to_string())?;
            }
            Request::WeightedDist {
                voter_a,
                voter_b,
                weights,
                ..
            }
            | Request::TopDiff {
                voter_a,
                voter_b,
                weights,
                ..
            } => {
                let top = matches!(op.req, Request::TopDiff { .. });
                let (a, b) = (voter(*voter_a)?, voter(*voter_b)?);
                let pa = t.span("metrics.prepare", id, || PreparedRanking::new(a));
                let pb = t.span("metrics.prepare", id, || PreparedRanking::new(b));
                t.span("metrics.weighted", id, || {
                    let w = Weights::from_units(weights.clone())?;
                    if top {
                        top_diff_prepared(&pa, &pb, &w)
                    } else {
                        weighted_footrule_x2_prepared(&pa, &pb, &w)
                    }
                })
                .map_err(|e| e.to_string())?;
            }
            _ => {}
        }
        Ok(())
    }
}

/// What the replay measured.
pub struct Replayed {
    /// Ops replayed in each pass.
    pub ops: usize,
    /// Pass B seconds ÷ pass A seconds over the same frames.
    pub overhead: f64,
    /// Per span name: calls and self time (passes B and C).
    pub layers: BTreeMap<&'static str, Layer>,
    /// Mean request plus reply bytes per op.
    pub bytes_per_op: f64,
    /// Mean computed snapshot bytes per republish.
    pub snapshot_bytes: f64,
    /// Mean WAL record bytes per edit (0 when memory-only).
    pub wal_bytes: f64,
    /// Pass B `Service::handle` durations (µs) by op kind label.
    pub handle_us: HashMap<&'static str, Vec<f64>>,
}

/// Replays up to `consumed[c]` ops of each connection's stream; pass A
/// stops early after `budget`, and B and C replay exactly what A did.
pub fn replay(
    shape: &Shape,
    inputs: &Inputs,
    seed: u64,
    consumed: &[usize],
    scratch: &Path,
    budget: Duration,
    spans_out: &Path,
) -> Result<Replayed, String> {
    // Pass A.
    let dir = scratch.join("replay");
    let svc = service(shape, &dir)?;
    set_up(&svc, shape, inputs, seed);
    let t0 = Instant::now();
    let mut frames = 0usize;
    let mut ops = 0usize;
    for frame in Frames::new(shape, inputs, seed, consumed) {
        run_frame(&svc, &frame, frames as u32, None);
        frames += 1;
        ops += frame.len();
        if t0.elapsed() >= budget {
            break;
        }
    }
    let untraced = t0.elapsed().as_secs_f64();
    drop(svc);

    // Pass B.
    let svc = service(shape, &dir)?;
    set_up(&svc, shape, inputs, seed);
    let mut tracer = Tracer::new(frames * 8 + ops * 10);
    let mut bytes = 0usize;
    let mut kinds: Vec<(&'static str, bool)> = Vec::with_capacity(ops);
    let t0 = Instant::now();
    for (id, frame) in Frames::new(shape, inputs, seed, consumed).take(frames).enumerate() {
        let (b, ok) = run_frame(&svc, &frame, id as u32, Some(&mut tracer));
        if !ok {
            return Err("in-process reply failed to decode".into());
        }
        bytes += b;
        kinds.extend(frame.iter().map(|o| (o.kind.label(), o.kind.is_edit())));
    }
    let traced = t0.elapsed().as_secs_f64();
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    // Each name's spans are recorded in op order, and `kinds` lists the
    // ops in that same order, so edit and read spans pair up with their
    // ops by walking both.
    let mut handle_us: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut edits = tracer.durations_us("service.edit").into_iter();
    let mut reads = tracer.durations_us("service.read").into_iter();
    for (kind, is_edit) in kinds {
        let span = if is_edit { edits.next() } else { reads.next() };
        let (_, us) = span.ok_or("missing service span")?;
        handle_us.entry(kind).or_default().push(us);
    }

    // Pass C.
    let shadow_dir = scratch.join("shadow");
    let mut shadow = Shadow::new(shape, inputs, seed, &shadow_dir)?;
    for (id, frame) in Frames::new(shape, inputs, seed, consumed).take(frames).enumerate() {
        tracer.enter("shadow", id as u32);
        for op in &frame {
            if op.kind.is_edit() {
                shadow.edit(op, id as u32, &mut tracer, &shadow_dir)?;
            } else {
                shadow.read(op, id as u32, &mut tracer)?;
            }
        }
        tracer.exit();
    }
    let snapshot_bytes = crate::stats::mean(&shadow.snapshot_bytes);
    let wal_bytes = crate::stats::mean(&shadow.wal_bytes);
    drop(shadow);
    let _ = std::fs::remove_dir_all(&shadow_dir);
    let _ = tracer.dump(spans_out);
    Ok(Replayed {
        ops,
        overhead: traced / untraced.max(1e-9),
        layers: tracer.layers(),
        bytes_per_op: bytes as f64 / ops.max(1) as f64,
        snapshot_bytes,
        wal_bytes,
        handle_us,
    })
}
