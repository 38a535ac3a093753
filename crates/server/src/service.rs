//! Request handlers over named
//! [`DynamicProfile`](bucketrank_aggregate::dynamic::DynamicProfile)
//! sessions.
//!
//! A [`Service`] routes every request to one of N shards by a
//! stable hash of the session name; each shard owns its sessions'
//! edit locks, WAL and checkpoint files, so edits on different shards
//! never contend (DESIGN.md §3.3e). Within a session the shape is
//! unchanged from the unsharded service:
//!
//! * edits (`push_voter` / `remove_voter` / `replace_voter`) take the
//!   shard mutex to resolve the session, log a write-ahead record when
//!   durability is on, apply the `O(n²)` incremental update under the
//!   session's edit mutex, and publish a new [`DynamicSnapshot`] —
//!   copied into the worker thread's spare (the last retired snapshot
//!   no reader held) rather than into fresh allocations, so a steady
//!   edit stream republishes at memcpy speed;
//! * snapshot reads (`median_order`, `top_k`, `kemeny_cost`) clone
//!   the published `Arc` and compute entirely on the owned snapshot —
//!   they **never hold the edit mutex**, so a slow or numerous read
//!   mix cannot block writers (DESIGN.md §3.3d);
//! * pairwise metrics between stored voter rankings (`pair_metric`,
//!   `weighted_dist`, `top_diff`) clone the two `O(n)` rankings under
//!   the edit mutex, then run the zero-alloc [`PreparedRanking`]
//!   kernels outside it, and `minmax_agg` clones every live voter
//!   under it; so these reads wait behind an edit in progress.
//!
//! Every handler is total: each failure maps to a typed
//! [`ErrorCode`]-carrying [`Response::Error`] — a malformed or
//! unlucky request can never poison a session or the process. With a
//! data directory configured ([`ServiceConfig::data_dir`]), every
//! acknowledged lifecycle or edit op is on disk before its reply is
//! produced, and [`Service::with_config`] replays whatever a prior
//! process left behind.

use crate::proto::{
    ErrorCode, MetricKind, Request, Response, ShardStats, WirePolicy, WireRule, MAX_ELEMENTS,
    MAX_NAME, MAX_SHARDS,
};
use crate::shard::{agg_error, error, shard_index, Edit, Session, Shard};
use bucketrank_aggregate::dynamic::{DynamicSnapshot, VoterId};
use bucketrank_aggregate::minmax::{self, ClassConstraints, WindowRule};
use bucketrank_aggregate::AggregateError;
use bucketrank_core::BucketOrder;
use bucketrank_metrics::prepared::{
    fhaus_x2_prepared, fprof_x2_prepared, khaus_x2_prepared, kprof_x2_prepared, PreparedRanking,
};
use bucketrank_metrics::weighted::{top_diff_prepared, weighted_footrule_x2_prepared};
use bucketrank_metrics::{MetricsError, Weights};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Default shard count when none is configured.
pub const DEFAULT_SHARDS: usize = 4;

/// Default compaction threshold: WAL records appended to a shard
/// before it checkpoints its sessions and truncates the log.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 1024;

/// Construction-time configuration for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards (`1..=`[`MAX_SHARDS`]). The session-name →
    /// shard map is a stable hash, so a durable data directory must be
    /// reopened with the shard count it was created with.
    pub shards: usize,
    /// Global resident-session budget, distributed evenly: each shard
    /// admits at most `ceil(max_sessions / shards)` resident sessions.
    /// Memory-only services refuse creates beyond the cap; durable
    /// services evict the least-recently-used session to disk instead.
    pub max_sessions: usize,
    /// Root of the durable state (one `shard-<i>/` subdirectory per
    /// shard). `None` runs memory-only: no WAL, no checkpoints, no
    /// eviction.
    pub data_dir: Option<PathBuf>,
    /// Per-shard compaction threshold: WAL records appended before the
    /// shard checkpoints and truncates its log (at least 1).
    pub checkpoint_every: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: DEFAULT_SHARDS,
            max_sessions: 1024,
            data_dir: None,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }
}

/// The shared, thread-safe handler state; see the [module docs](self).
pub struct Service {
    shards: Vec<Shard>,
}

/// The one-slot session cache shared by one v1 request or by the ops of
/// one v2 batch (it never outlives the call): name, the owning shard's
/// lifecycle epoch at fill time, and the resolved session. A hit is
/// honored only while the epoch is unchanged, so a cached entry can
/// never outlive an eviction, fault-in, create or drop of any session
/// on that shard.
pub(crate) type SessionCache = Option<(String, u64, Arc<Session>)>;

fn metrics_error(e: &MetricsError) -> Response {
    let code = match e {
        MetricsError::DomainMismatch { .. } | MetricsError::WeightsLengthMismatch { .. } => {
            ErrorCode::DomainMismatch
        }
        _ => ErrorCode::BadRequest,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

impl Service {
    /// An empty memory-only registry holding at most `max_sessions`
    /// sessions across [`DEFAULT_SHARDS`] shards.
    pub fn new(max_sessions: usize) -> Self {
        Service::with_config(ServiceConfig {
            max_sessions,
            ..ServiceConfig::default()
        })
        .expect("memory-only service construction is infallible")
    }

    /// Builds a service from `cfg`, recovering durable state from
    /// `cfg.data_dir` when set: checkpoints load, each shard's WAL
    /// valid prefix replays, corruption is truncated at the first
    /// fault, and the logs restart compacted — every edit acknowledged
    /// by the prior process is visible, and nothing past a fault is.
    ///
    /// # Errors
    /// Invalid configuration (shard count out of `1..=`[`MAX_SHARDS`],
    /// zero `max_sessions` or `checkpoint_every`, reopening a data
    /// directory with a different shard count) and real I/O failures.
    /// Corrupt durable *records* are never errors — they are typed,
    /// logged and truncated.
    pub fn with_config(cfg: ServiceConfig) -> io::Result<Self> {
        if cfg.shards == 0 || cfg.shards > MAX_SHARDS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard count must be 1..={MAX_SHARDS}, got {}", cfg.shards),
            ));
        }
        if cfg.max_sessions == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "max_sessions must be at least 1",
            ));
        }
        if cfg.checkpoint_every == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "checkpoint_every must be at least 1",
            ));
        }
        let cap = cfg.max_sessions.div_ceil(cfg.shards);
        let mut shards = Vec::with_capacity(cfg.shards);
        match &cfg.data_dir {
            None => {
                for _ in 0..cfg.shards {
                    shards.push(Shard::new(cap, cfg.max_sessions));
                }
            }
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                check_meta(dir, cfg.shards)?;
                for i in 0..cfg.shards {
                    shards.push(Shard::open(
                        cap,
                        cfg.max_sessions,
                        dir.join(format!("shard-{i}")),
                        cfg.checkpoint_every,
                    )?);
                }
            }
        }
        Ok(Service { shards })
    }

    /// Number of resident sessions across all shards.
    pub fn sessions(&self) -> usize {
        self.shards.iter().map(Shard::resident).sum()
    }

    /// One stats row per shard.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    fn shard_for(&self, name: &str) -> &Shard {
        &self.shards[shard_index(name, self.shards.len())]
    }

    /// Handles one request to completion. Total: every outcome is a
    /// [`Response`], including [`Request::Shutdown`] (acknowledged
    /// here; the transport layer performs the actual drain).
    pub fn handle(&self, req: Request) -> Response {
        let mut cache = None;
        self.handle_cached(req, &mut cache)
    }

    /// Handles a batch of requests in order, answering each with its
    /// own typed [`Response`] — one sub-reply per sub-request, a
    /// failure mid-batch never aborts the ops after it. The session
    /// lookup is amortized across consecutive reads of the same
    /// session (the common case for pipelined streams), so a batch of
    /// K reads pays one registry resolve, not K.
    ///
    /// [`Request::Shutdown`] is **not** a batch operation: inside a
    /// batch it answers a typed [`ErrorCode::BadRequest`] error and
    /// does not trigger a drain — shutdown must arrive as a v1 frame
    /// where the transport can sequence the acknowledgement against
    /// the connection's remaining traffic.
    pub fn handle_batch(&self, reqs: Vec<Request>) -> Vec<Response> {
        let mut cache = None;
        reqs.into_iter()
            .map(|req| match req {
                Request::Shutdown => error(
                    ErrorCode::BadRequest,
                    "shutdown is not valid inside a batch; send it as a v1 frame",
                ),
                req => self.handle_cached(req, &mut cache),
            })
            .collect()
    }

    /// One request against a one-slot session cache (reads and
    /// pairwise metrics only — edits and lifecycle ops always resolve
    /// under the shard mutex, because the durable path must observe
    /// evictions). Hits are epoch-validated; see [`SessionCache`].
    fn handle_cached(&self, req: Request, cache: &mut SessionCache) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats {
                shards: self.stats(),
            },
            Request::Shutdown => Response::ShutdownAck,
            Request::CreateSession { name, n, policy } => {
                *cache = None;
                self.create(&name, n as usize, policy)
            }
            Request::DropSession { name } => {
                *cache = None;
                self.shard_for(&name).drop_session(&name)
            }
            Request::PushVoter { session, ranking } => self
                .shard_for(&session)
                .edit(&session, Edit::Push { ranking }),
            Request::RemoveVoter { session, voter } => self
                .shard_for(&session)
                .edit(&session, Edit::Remove { voter }),
            Request::ReplaceVoter {
                session,
                voter,
                ranking,
            } => self
                .shard_for(&session)
                .edit(&session, Edit::Replace { voter, ranking }),
            Request::MedianOrder { session } => {
                self.read(&session, cache, |snap| Ok(Response::Ranking {
                    order: snap.median_order(),
                }))
            }
            Request::TopK { session, k } => self.read(&session, cache, |snap| {
                snap.top_k(k as usize)
                    .map(|order| Response::Ranking { order })
            }),
            Request::KemenyCost { session, candidate } => self.read(&session, cache, |snap| {
                snap.tally()
                    .kemeny_cost_x2(&candidate)
                    .map(|value| Response::CostX2 { value })
            }),
            Request::PairMetric {
                session,
                metric,
                voter_a,
                voter_b,
            } => self.pair_metric(&session, cache, metric, voter_a, voter_b),
            Request::WeightedDist {
                session,
                voter_a,
                voter_b,
                weights,
            } => self.weighted_pair(&session, cache, voter_a, voter_b, weights, false),
            Request::TopDiff {
                session,
                voter_a,
                voter_b,
                weights,
            } => self.weighted_pair(&session, cache, voter_a, voter_b, weights, true),
            Request::MinMaxAgg {
                session,
                labels,
                rules,
            } => self.minmax_agg(&session, cache, labels, rules),
        }
    }

    /// Resolves a session through the one-slot cache, filling it on
    /// miss or on a stale epoch. The epoch is sampled **before** the
    /// registry resolve, so a lifecycle change racing the fill leaves
    /// the cached entry already-stale rather than wrongly fresh.
    fn resolve(&self, name: &str, cache: &mut SessionCache) -> Result<Arc<Session>, Response> {
        let shard = self.shard_for(name);
        if let Some((cached, epoch, session)) = cache {
            if cached == name && *epoch == shard.epoch() {
                shard.touch(session);
                return Ok(Arc::clone(session));
            }
        }
        let epoch = shard.epoch();
        let session = shard.resolve(name)?;
        *cache = Some((name.to_owned(), epoch, Arc::clone(&session)));
        Ok(session)
    }

    fn create(&self, name: &str, n: usize, policy: WirePolicy) -> Response {
        if name.is_empty() || name.len() > MAX_NAME {
            return error(
                ErrorCode::BadRequest,
                format!("session names must be 1..={MAX_NAME} bytes"),
            );
        }
        if n > MAX_ELEMENTS {
            return error(
                ErrorCode::BadRequest,
                format!("domain of {n} elements exceeds {MAX_ELEMENTS}"),
            );
        }
        self.shard_for(name).create(name, n, policy)
    }

    /// Serves one snapshot read (median order, top-k, Kemeny cost) from
    /// the published snapshot — the edit mutex is never taken, so these
    /// reads cannot block writers.
    fn read(
        &self,
        name: &str,
        cache: &mut SessionCache,
        op: impl FnOnce(&DynamicSnapshot) -> Result<Response, AggregateError>,
    ) -> Response {
        let session = match self.resolve(name, cache) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        match session.read_view() {
            Some(snap) => match op(&snap) {
                Ok(resp) => resp,
                Err(e) => agg_error(&e),
            },
            None => error(
                ErrorCode::NoVoters,
                format!("session {name:?} has no live voters"),
            ),
        }
    }

    /// Clones two stored voter rankings under the edit mutex (O(n)),
    /// so the prepared kernels can run outside it.
    fn fetch_pair(
        &self,
        name: &str,
        cache: &mut SessionCache,
        voter_a: u64,
        voter_b: u64,
    ) -> Result<(BucketOrder, BucketOrder), Response> {
        let session = self.resolve(name, cache)?;
        let dp = session.profile.lock().expect("edit lock");
        let fetch = |raw: u64| -> Result<BucketOrder, Response> {
            dp.get_voter(VoterId::from_raw(raw)).cloned().ok_or_else(|| {
                agg_error(&AggregateError::UnknownVoter { id: raw })
            })
        };
        Ok((fetch(voter_a)?, fetch(voter_b)?))
    }

    fn pair_metric(
        &self,
        name: &str,
        cache: &mut SessionCache,
        metric: MetricKind,
        voter_a: u64,
        voter_b: u64,
    ) -> Response {
        let (a, b) = match self.fetch_pair(name, cache, voter_a, voter_b) {
            Ok(pair) => pair,
            Err(resp) => return resp,
        };
        let pa = PreparedRanking::new(&a);
        let pb = PreparedRanking::new(&b);
        let value = match metric {
            MetricKind::KprofX2 => kprof_x2_prepared(&pa, &pb),
            MetricKind::FprofX2 => fprof_x2_prepared(&pa, &pb),
            MetricKind::KhausX2 => khaus_x2_prepared(&pa, &pb),
            MetricKind::FhausX2 => fhaus_x2_prepared(&pa, &pb),
        };
        match value {
            Ok(value) => Response::CostX2 { value },
            Err(e) => metrics_error(&e),
        }
    }

    /// The two weighted kernels share one handler: the weight vector
    /// travels in the frame and is validated here by
    /// [`Weights::from_units`], so a negative-free but overflowing or
    /// wrong-length vector is a typed error, never a panic.
    fn weighted_pair(
        &self,
        name: &str,
        cache: &mut SessionCache,
        voter_a: u64,
        voter_b: u64,
        weights: Vec<u64>,
        top: bool,
    ) -> Response {
        let (a, b) = match self.fetch_pair(name, cache, voter_a, voter_b) {
            Ok(pair) => pair,
            Err(resp) => return resp,
        };
        let w = match Weights::from_units(weights) {
            Ok(w) => w,
            Err(e) => return metrics_error(&e),
        };
        let pa = PreparedRanking::new(&a);
        let pb = PreparedRanking::new(&b);
        let value = if top {
            top_diff_prepared(&pa, &pb, &w)
        } else {
            weighted_footrule_x2_prepared(&pa, &pb, &w)
        };
        match value {
            Ok(value) => Response::CostX2 { value },
            Err(e) => metrics_error(&e),
        }
    }

    /// Minmax aggregation over the session's live voters. The stored
    /// rankings are cloned under the edit mutex (O(m·n)) in ascending
    /// voter-id order, then the deterministic heuristic pipeline runs
    /// outside it at the fixed wire seed — the reply for a given voter
    /// set, label vector and rule set is byte-reproducible across
    /// processes. Constraint faults (bad window, unknown class,
    /// infeasible rule set) come back typed through [`agg_error`].
    fn minmax_agg(
        &self,
        name: &str,
        cache: &mut SessionCache,
        labels: Vec<u32>,
        rules: Vec<WireRule>,
    ) -> Response {
        let session = match self.resolve(name, cache) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        let rankings: Vec<BucketOrder> = {
            let dp = session.profile.lock().expect("edit lock");
            dp.voter_ids()
                .into_iter()
                .filter_map(|id| dp.get_voter(id).cloned())
                .collect()
        };
        if rankings.is_empty() {
            return error(
                ErrorCode::NoVoters,
                format!("session {name:?} has no live voters"),
            );
        }
        let cons = if labels.is_empty() && rules.is_empty() {
            None
        } else {
            let rules = rules
                .into_iter()
                .map(|r| WindowRule {
                    window: r.window,
                    class: r.class,
                    min: r.min,
                    max: r.max,
                })
                .collect();
            match ClassConstraints::new(labels, rules) {
                Ok(c) => Some(c),
                Err(e) => return agg_error(&e),
            }
        };
        match minmax::minmax_aggregate(&rankings, cons.as_ref(), minmax::DEFAULT_SEED) {
            Ok((order, cost_x2)) => Response::RankingCost { order, cost_x2 },
            Err(e) => agg_error(&e),
        }
    }
}

/// Refuses to reopen a data directory with a different shard count
/// than it was created with (the name→shard hash would scatter the
/// durable records); records the count on first open.
fn check_meta(dir: &std::path::Path, shards: usize) -> io::Result<()> {
    let meta = dir.join("meta");
    match std::fs::read_to_string(&meta) {
        Ok(text) => {
            let recorded: usize = text
                .trim()
                .strip_prefix("shards=")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unreadable shard meta file {}", meta.display()),
                    )
                })?;
            if recorded != shards {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "data dir was created with {recorded} shards but was opened with {shards}"
                    ),
                ));
            }
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            crate::wal::write_atomic(&meta, format!("shards={shards}\n").as_bytes())
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bucketrank_aggregate::dynamic::DynamicProfile;
    use bucketrank_aggregate::MedianPolicy;

    fn keys(k: &[i64]) -> BucketOrder {
        BucketOrder::from_keys(k)
    }

    fn with_session(n: u32) -> Service {
        let svc = Service::new(8);
        assert_eq!(
            svc.handle(Request::CreateSession {
                name: "s".into(),
                n,
                policy: WirePolicy::Lower,
            }),
            Response::SessionCreated
        );
        svc
    }

    fn push(svc: &Service, r: BucketOrder) -> u64 {
        match svc.handle(Request::PushVoter {
            session: "s".into(),
            ranking: r,
        }) {
            Response::VoterPushed { voter } => voter,
            other => panic!("push failed: {other:?}"),
        }
    }

    #[test]
    fn lifecycle_and_reads_match_in_process() {
        let svc = with_session(4);
        let v0 = push(&svc, keys(&[1, 2, 3, 4]));
        let v1 = push(&svc, keys(&[2, 2, 1, 1]));
        assert_ne!(v0, v1);

        let inputs = [keys(&[1, 2, 3, 4]), keys(&[2, 2, 1, 1])];
        let (dp, _) = DynamicProfile::from_profile(&inputs, MedianPolicy::Lower).unwrap();
        let snap = dp.snapshot().unwrap();

        assert_eq!(
            svc.handle(Request::MedianOrder { session: "s".into() }),
            Response::Ranking {
                order: snap.median_order()
            }
        );
        assert_eq!(
            svc.handle(Request::TopK {
                session: "s".into(),
                k: 2
            }),
            Response::Ranking {
                order: snap.top_k(2).unwrap()
            }
        );
        let cand = keys(&[4, 3, 2, 1]);
        assert_eq!(
            svc.handle(Request::KemenyCost {
                session: "s".into(),
                candidate: cand.clone()
            }),
            Response::CostX2 {
                value: snap.tally().kemeny_cost_x2(&cand).unwrap()
            }
        );

        // Pairwise metrics between the stored rankings.
        let pa = PreparedRanking::new(&inputs[0]);
        let pb = PreparedRanking::new(&inputs[1]);
        for metric in MetricKind::ALL {
            let expect = match metric {
                MetricKind::KprofX2 => kprof_x2_prepared(&pa, &pb),
                MetricKind::FprofX2 => fprof_x2_prepared(&pa, &pb),
                MetricKind::KhausX2 => khaus_x2_prepared(&pa, &pb),
                MetricKind::FhausX2 => fhaus_x2_prepared(&pa, &pb),
            }
            .unwrap();
            assert_eq!(
                svc.handle(Request::PairMetric {
                    session: "s".into(),
                    metric,
                    voter_a: v0,
                    voter_b: v1,
                }),
                Response::CostX2 { value: expect },
                "{metric:?}"
            );
        }

        // Weighted kernels with the weight vector carried in the frame.
        let w = Weights::from_units(vec![7, 3, 1, 1]).unwrap();
        assert_eq!(
            svc.handle(Request::WeightedDist {
                session: "s".into(),
                voter_a: v0,
                voter_b: v1,
                weights: w.units().to_vec(),
            }),
            Response::CostX2 {
                value: weighted_footrule_x2_prepared(&pa, &pb, &w).unwrap()
            }
        );
        assert_eq!(
            svc.handle(Request::TopDiff {
                session: "s".into(),
                voter_a: v0,
                voter_b: v1,
                weights: w.units().to_vec(),
            }),
            Response::CostX2 {
                value: top_diff_prepared(&pa, &pb, &w).unwrap()
            }
        );

        assert_eq!(
            svc.handle(Request::RemoveVoter {
                session: "s".into(),
                voter: v0
            }),
            Response::VoterRemoved
        );
        assert_eq!(
            svc.handle(Request::ReplaceVoter {
                session: "s".into(),
                voter: v1,
                ranking: keys(&[1, 1, 1, 2]),
            }),
            Response::VoterReplaced
        );
        assert_eq!(
            svc.handle(Request::DropSession { name: "s".into() }),
            Response::SessionDropped
        );
        assert_eq!(svc.sessions(), 0);
    }

    #[test]
    fn typed_errors_cover_every_failure() {
        let svc = with_session(3);
        let err_code = |resp: Response| match resp {
            Response::Error { code, .. } => code,
            other => panic!("expected error, got {other:?}"),
        };
        // Duplicate create, unknown session, capacity.
        assert_eq!(
            err_code(svc.handle(Request::CreateSession {
                name: "s".into(),
                n: 3,
                policy: WirePolicy::Upper,
            })),
            ErrorCode::SessionExists
        );
        assert_eq!(
            err_code(svc.handle(Request::MedianOrder { session: "nope".into() })),
            ErrorCode::UnknownSession
        );
        assert_eq!(
            err_code(svc.handle(Request::DropSession { name: "nope".into() })),
            ErrorCode::UnknownSession
        );
        assert_eq!(
            err_code(svc.handle(Request::CreateSession {
                name: "".into(),
                n: 3,
                policy: WirePolicy::Lower,
            })),
            ErrorCode::BadRequest
        );
        // Reads on an empty session.
        assert_eq!(
            err_code(svc.handle(Request::MedianOrder { session: "s".into() })),
            ErrorCode::NoVoters
        );
        // Domain mismatch on push; unknown voter on remove/pair.
        assert_eq!(
            err_code(svc.handle(Request::PushVoter {
                session: "s".into(),
                ranking: keys(&[1, 2]),
            })),
            ErrorCode::DomainMismatch
        );
        let v = push(&svc, keys(&[1, 2, 3]));
        assert_eq!(
            err_code(svc.handle(Request::RemoveVoter {
                session: "s".into(),
                voter: v + 100,
            })),
            ErrorCode::UnknownVoter
        );
        assert_eq!(
            err_code(svc.handle(Request::PairMetric {
                session: "s".into(),
                metric: MetricKind::KprofX2,
                voter_a: v,
                voter_b: v + 100,
            })),
            ErrorCode::UnknownVoter
        );
        // Invalid k.
        assert_eq!(
            err_code(svc.handle(Request::TopK {
                session: "s".into(),
                k: 99,
            })),
            ErrorCode::InvalidK
        );
        // Weighted requests: unknown voter, wrong-length weights,
        // overflowing weights — all typed, session stays serving.
        assert_eq!(
            err_code(svc.handle(Request::WeightedDist {
                session: "s".into(),
                voter_a: v,
                voter_b: v + 100,
                weights: vec![1, 1, 1],
            })),
            ErrorCode::UnknownVoter
        );
        assert_eq!(
            err_code(svc.handle(Request::TopDiff {
                session: "s".into(),
                voter_a: v,
                voter_b: v,
                weights: vec![1, 1], // two weights, three elements
            })),
            ErrorCode::DomainMismatch
        );
        assert_eq!(
            err_code(svc.handle(Request::WeightedDist {
                session: "s".into(),
                voter_a: v,
                voter_b: v,
                weights: vec![u64::MAX, 1, 1],
            })),
            ErrorCode::BadRequest
        );
        // The failed edits left the session serving.
        assert!(matches!(
            svc.handle(Request::MedianOrder { session: "s".into() }),
            Response::Ranking { .. }
        ));
    }

    #[test]
    fn session_capacity_is_enforced() {
        // One shard so the global budget is exact; memory-only, so the
        // cap refuses (durable services would evict instead).
        let svc = Service::with_config(ServiceConfig {
            shards: 1,
            max_sessions: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        assert_eq!(
            svc.handle(Request::CreateSession {
                name: "a".into(),
                n: 2,
                policy: WirePolicy::Lower,
            }),
            Response::SessionCreated
        );
        assert!(matches!(
            svc.handle(Request::CreateSession {
                name: "b".into(),
                n: 2,
                policy: WirePolicy::Lower,
            }),
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn invalid_configs_are_refused() {
        for cfg in [
            ServiceConfig {
                shards: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                shards: MAX_SHARDS + 1,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                max_sessions: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                checkpoint_every: 0,
                ..ServiceConfig::default()
            },
        ] {
            assert!(Service::with_config(cfg).is_err());
        }
    }

    #[test]
    fn stats_report_one_row_per_shard() {
        let svc = with_session(3);
        let rows = match svc.handle(Request::Stats) {
            Response::Stats { shards } => shards,
            other => panic!("expected stats, got {other:?}"),
        };
        assert_eq!(rows.len(), DEFAULT_SHARDS);
        assert_eq!(rows.iter().map(|r| r.sessions).sum::<u64>(), 1);
        // Memory-only: no durability activity at all.
        assert!(rows.iter().all(|r| r.wal_records == 0
            && r.wal_bytes == 0
            && r.checkpoints == 0
            && r.evictions == 0
            && r.recoveries == 0));
    }

    /// End-to-end durability smoke at the service layer: acknowledged
    /// edits survive a drop-and-reopen (no checkpoint ever fires —
    /// recovery is pure WAL replay), and reopening with a different
    /// shard count is refused.
    #[test]
    fn durable_sessions_survive_reopen() {
        let dir = std::env::temp_dir().join(format!("brsvc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || ServiceConfig {
            shards: 2,
            max_sessions: 8,
            data_dir: Some(dir.clone()),
            checkpoint_every: 1_000_000,
        };
        let expected;
        {
            let svc = Service::with_config(cfg()).unwrap();
            assert_eq!(
                svc.handle(Request::CreateSession {
                    name: "s".into(),
                    n: 3,
                    policy: WirePolicy::Lower,
                }),
                Response::SessionCreated
            );
            for r in [keys(&[1, 2, 3]), keys(&[3, 2, 1]), keys(&[2, 1, 3])] {
                assert!(matches!(
                    svc.handle(Request::PushVoter {
                        session: "s".into(),
                        ranking: r,
                    }),
                    Response::VoterPushed { .. }
                ));
            }
            expected = svc.handle(Request::MedianOrder { session: "s".into() });
            assert!(matches!(expected, Response::Ranking { .. }));
        }
        {
            let svc = Service::with_config(cfg()).unwrap();
            assert_eq!(svc.handle(Request::MedianOrder { session: "s".into() }), expected);
            // Voter ids continue from the recovered next_id.
            assert!(matches!(
                svc.handle(Request::PushVoter {
                    session: "s".into(),
                    ranking: keys(&[1, 1, 2]),
                }),
                Response::VoterPushed { voter: 3 }
            ));
            assert!(Service::with_config(ServiceConfig {
                shards: 3,
                ..cfg()
            })
            .is_err());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reads_track_the_latest_edit() {
        let svc = with_session(3);
        let v = push(&svc, keys(&[1, 2, 3]));
        let before = svc.handle(Request::MedianOrder { session: "s".into() });
        svc.handle(Request::ReplaceVoter {
            session: "s".into(),
            voter: v,
            ranking: keys(&[3, 2, 1]),
        });
        let after = svc.handle(Request::MedianOrder { session: "s".into() });
        assert_ne!(before, after);
        assert_eq!(
            after,
            Response::Ranking {
                order: keys(&[3, 2, 1])
            }
        );
        // Draining the last voter returns reads to the typed empty
        // state.
        svc.handle(Request::RemoveVoter {
            session: "s".into(),
            voter: v,
        });
        assert!(matches!(
            svc.handle(Request::MedianOrder { session: "s".into() }),
            Response::Error {
                code: ErrorCode::NoVoters,
                ..
            }
        ));
    }

    #[test]
    fn ping_and_shutdown_are_pure_acks() {
        let svc = Service::new(1);
        assert_eq!(svc.handle(Request::Ping), Response::Pong);
        assert_eq!(svc.handle(Request::Shutdown), Response::ShutdownAck);
    }

    /// A mixed batch (with the session cache hot and invalidated
    /// mid-stream by create/drop) must answer exactly what a fresh
    /// `Service` replaying the same ops one `handle` at a time would.
    #[test]
    fn handle_batch_matches_per_op_handle() {
        let script = vec![
            Request::Ping,
            Request::CreateSession {
                name: "a".into(),
                n: 3,
                policy: WirePolicy::Lower,
            },
            Request::PushVoter {
                session: "a".into(),
                ranking: keys(&[1, 2, 3]),
            },
            Request::PushVoter {
                session: "a".into(),
                ranking: keys(&[3, 1, 2]),
            },
            Request::MedianOrder { session: "a".into() },
            Request::PushVoter {
                session: "a".into(),
                ranking: keys(&[1, 2]), // domain mismatch mid-batch
            },
            Request::TopK {
                session: "a".into(),
                k: 2,
            },
            Request::DropSession { name: "a".into() },
            Request::MedianOrder { session: "a".into() }, // now unknown
            Request::CreateSession {
                name: "a".into(),
                n: 2,
                policy: WirePolicy::Upper,
            },
            Request::PushVoter {
                session: "a".into(),
                ranking: keys(&[2, 1]),
            },
            Request::MedianOrder { session: "a".into() },
        ];
        let batched = Service::new(4).handle_batch(script.clone());
        let mirror = Service::new(4);
        let sequential: Vec<Response> = script.into_iter().map(|r| mirror.handle(r)).collect();
        assert_eq!(batched, sequential);
        // Errors mid-batch did not abort the ops after them.
        assert!(matches!(batched.last(), Some(Response::Ranking { .. })));
    }

    #[test]
    fn shutdown_inside_a_batch_is_a_typed_error() {
        let svc = Service::new(1);
        let replies = svc.handle_batch(vec![Request::Ping, Request::Shutdown, Request::Ping]);
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[0], Response::Pong);
        assert!(matches!(
            &replies[1],
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        assert_eq!(replies[2], Response::Pong);
    }
}
