//! A deliberately naive reference model of the session service, for the
//! served differential suites.
//!
//! Every value the service returns is a plain function of the live
//! voters' bucket orders, so [`ModelService`] keeps exactly those: per
//! session its `n`, median policy, next voter id and a `BTreeMap` from
//! id to ranking. Each reply is computed straight from the paper-level
//! functions over that map, never through an incremental engine, a
//! tally, a published view or the batch kernels the server runs:
//!
//! * `MedianOrder` / `TopK` — [`median::median_order`] /
//!   [`median::aggregate_top_k`] (Thm. 9) over the live voters;
//! * `KemenyCost` — `Σ` [`kendall::kprof_x2`] over the live voters;
//! * `PairMetric` — [`kendall::kprof_x2`], [`footrule::fprof_x2`] and
//!   twice [`hausdorff::khaus`] / [`hausdorff::fhaus`];
//! * `WeightedDist` / `TopDiff` — [`weighted_footrule_x2`] /
//!   [`top_diff`];
//! * `MinMaxAgg` — [`minmax::minmax_aggregate`] over the live voters in
//!   ascending id order at the wire seed.
//!
//! # What a read observes
//!
//! The server answers `MedianOrder`, `TopK` and `KemenyCost` from the
//! session's published snapshot, without the edit mutex. `PairMetric`,
//! `WeightedDist`, `TopDiff` and `MinMaxAgg` clone the voters they need
//! under the session's edit mutex and compute outside it. An edit
//! applies and republishes under that mutex before it replies, so both
//! kinds of read observe every edit acknowledged before the read was
//! sent, and an edit still in flight is either wholly visible or not at
//! all. The model applies each request atomically in arrival order,
//! which is that rule for one client at a time; a concurrent-client
//! check must admit either outcome for an edit in flight.
//!
//! Each reply's error precedence and message is written once here, in
//! the order the server's request handlers apply them. The model keeps
//! no shard counters and no resident-session cap: `Stats` is outside
//! it, and every create that passes the name and domain checks
//! succeeds.

use bucketrank_aggregate::minmax::{self, ClassConstraints, WindowRule};
use bucketrank_aggregate::{median, AggregateError, MedianPolicy};
use bucketrank_core::BucketOrder;
use bucketrank_metrics::weighted::{top_diff, weighted_footrule_x2, Weights};
use bucketrank_metrics::{footrule, hausdorff, kendall, MetricsError};
use bucketrank_server::proto::{MAX_ELEMENTS, MAX_NAME};
use bucketrank_server::{Client, ErrorCode, MetricKind, Request, Response, WirePolicy};
use bucketrank_testkit::gen::EditOp;
use std::collections::BTreeMap;

/// The voter id an edit or pair read targets when no voter is live:
/// ids count up from 0, so it is never issued.
const GHOST: u64 = u64::MAX;

/// The most live voters a session holds: the bound of the `u32` pair
/// counts the server keeps per session.
const MAX_VOTERS: usize = (u32::MAX / 2) as usize;

/// One session: its domain, policy, id counter and live voters.
#[derive(Debug)]
struct Session {
    n: usize,
    policy: MedianPolicy,
    next_id: u64,
    voters: BTreeMap<u64, BucketOrder>,
}

/// The reference model; see the [module docs](self).
#[derive(Debug, Default)]
pub struct ModelService {
    sessions: BTreeMap<String, Session>,
}

fn error(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

/// The wire mapping of an aggregation failure.
fn agg_error(e: AggregateError) -> Response {
    let code = match e {
        AggregateError::NoInputs => ErrorCode::NoVoters,
        AggregateError::DomainMismatch { .. } => ErrorCode::DomainMismatch,
        AggregateError::InvalidK { .. } => ErrorCode::InvalidK,
        AggregateError::UnknownVoter { .. } => ErrorCode::UnknownVoter,
        AggregateError::TooManyVoters { .. } => ErrorCode::TooManyVoters,
        _ => ErrorCode::BadRequest,
    };
    error(code, e.to_string())
}

/// The wire mapping of a metric failure.
fn metrics_error(e: MetricsError) -> Response {
    let code = match e {
        MetricsError::DomainMismatch { .. } | MetricsError::WeightsLengthMismatch { .. } => {
            ErrorCode::DomainMismatch
        }
        _ => ErrorCode::BadRequest,
    };
    error(code, e.to_string())
}

impl Session {
    fn check_domain(&self, ranking: &BucketOrder) -> Result<(), Response> {
        if ranking.len() == self.n {
            Ok(())
        } else {
            Err(agg_error(AggregateError::DomainMismatch {
                expected: self.n,
                found: ranking.len(),
            }))
        }
    }

    fn voter(&self, id: u64) -> Result<&BucketOrder, Response> {
        self.voters
            .get(&id)
            .ok_or_else(|| agg_error(AggregateError::UnknownVoter { id }))
    }
}

impl ModelService {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// The reply the service gives `req` as a v1 frame.
    ///
    /// # Panics
    /// On [`Request::Stats`], which reports shard counters the model
    /// does not keep.
    pub fn handle(&mut self, req: &Request) -> Response {
        let reply = match req {
            Request::Ping => Ok(Response::Pong),
            Request::Shutdown => Ok(Response::ShutdownAck),
            Request::CreateSession { name, n, policy } => self.create(name, *n as usize, *policy),
            Request::DropSession { name } => self
                .sessions
                .remove(name)
                .map(|_| Response::SessionDropped)
                .ok_or_else(|| unknown_session(name)),
            Request::PushVoter { session, ranking } => self.session(session).and_then(|s| {
                s.check_domain(ranking)?;
                if s.voters.len() >= MAX_VOTERS {
                    return Err(agg_error(AggregateError::TooManyVoters {
                        limit: MAX_VOTERS,
                    }));
                }
                let voter = s.next_id;
                s.next_id += 1;
                s.voters.insert(voter, ranking.clone());
                Ok(Response::VoterPushed { voter })
            }),
            Request::RemoveVoter { session, voter } => self.session(session).and_then(|s| {
                s.voter(*voter)?;
                s.voters.remove(voter);
                Ok(Response::VoterRemoved)
            }),
            Request::ReplaceVoter {
                session,
                voter,
                ranking,
            } => self.session(session).and_then(|s| {
                s.check_domain(ranking)?;
                s.voter(*voter)?;
                s.voters.insert(*voter, ranking.clone());
                Ok(Response::VoterReplaced)
            }),
            Request::MedianOrder { session } => self.profile(session).map(|(s, voters)| {
                let order = median::median_order(&voters, s.policy).expect("live voters");
                Response::Ranking { order }
            }),
            Request::TopK { session, k } => self.profile(session).and_then(|(s, voters)| {
                median::aggregate_top_k(&voters, *k as usize, s.policy)
                    .map(|order| Response::Ranking { order })
                    .map_err(agg_error)
            }),
            Request::KemenyCost { session, candidate } => {
                self.profile(session).and_then(|(s, voters)| {
                    s.check_domain(candidate)?;
                    let value = voters
                        .iter()
                        .map(|v| kendall::kprof_x2(candidate, v).expect("checked domain"))
                        .sum();
                    Ok(Response::CostX2 { value })
                })
            }
            Request::PairMetric {
                session,
                metric,
                voter_a,
                voter_b,
            } => self.pair(session, *voter_a, *voter_b).and_then(|(a, b)| {
                let value = match metric {
                    MetricKind::KprofX2 => kendall::kprof_x2(a, b),
                    MetricKind::FprofX2 => footrule::fprof_x2(a, b),
                    MetricKind::KhausX2 => hausdorff::khaus(a, b).map(|d| 2 * d),
                    MetricKind::FhausX2 => hausdorff::fhaus(a, b).map(|d| 2 * d),
                };
                value
                    .map(|value| Response::CostX2 { value })
                    .map_err(metrics_error)
            }),
            Request::WeightedDist {
                session,
                voter_a,
                voter_b,
                weights,
            }
            | Request::TopDiff {
                session,
                voter_a,
                voter_b,
                weights,
            } => self.pair(session, *voter_a, *voter_b).and_then(|(a, b)| {
                let w = Weights::from_units(weights.clone()).map_err(metrics_error)?;
                let value = if matches!(req, Request::TopDiff { .. }) {
                    top_diff(a, b, &w)
                } else {
                    weighted_footrule_x2(a, b, &w)
                };
                value
                    .map(|value| Response::CostX2 { value })
                    .map_err(metrics_error)
            }),
            Request::MinMaxAgg {
                session,
                labels,
                rules,
            } => self.profile(session).and_then(|(_, voters)| {
                let cons = if labels.is_empty() && rules.is_empty() {
                    None
                } else {
                    let rules = rules
                        .iter()
                        .map(|r| WindowRule {
                            window: r.window,
                            class: r.class,
                            min: r.min,
                            max: r.max,
                        })
                        .collect();
                    Some(ClassConstraints::new(labels.clone(), rules).map_err(agg_error)?)
                };
                minmax::minmax_aggregate(&voters, cons.as_ref(), minmax::DEFAULT_SEED)
                    .map(|(order, cost_x2)| Response::RankingCost { order, cost_x2 })
                    .map_err(agg_error)
            }),
            other => panic!("the model does not answer {other:?}"),
        };
        reply.unwrap_or_else(|e| e)
    }

    /// The replies the service gives `reqs` as one v2 batch frame: each
    /// op answered in order, except that `Shutdown` is refused typed.
    pub fn handle_batch(&mut self, reqs: &[Request]) -> Vec<Response> {
        reqs.iter()
            .map(|req| match req {
                Request::Shutdown => error(
                    ErrorCode::BadRequest,
                    "shutdown is not valid inside a batch; send it as a v1 frame",
                ),
                req => self.handle(req),
            })
            .collect()
    }

    /// The request one script op stands for in `session`: `Remove` and
    /// `Replace` target `live[i % live.len()]` over the live ids in
    /// ascending order, or the ghost id `u64::MAX` when none is live.
    pub fn resolve(&self, session: &str, op: &EditOp) -> Request {
        let live = self.live(session);
        let target = |i: usize| {
            if live.is_empty() {
                GHOST
            } else {
                live[i % live.len()]
            }
        };
        let session = session.to_owned();
        match op {
            EditOp::Push(ranking) => Request::PushVoter {
                session,
                ranking: ranking.clone(),
            },
            EditOp::Remove(i) => Request::RemoveVoter {
                session,
                voter: target(*i),
            },
            EditOp::Replace(i, ranking) => Request::ReplaceVoter {
                session,
                voter: target(*i),
                ranking: ranking.clone(),
            },
        }
    }

    /// The live voter ids of `session`, ascending (empty for an unknown
    /// session).
    fn live(&self, session: &str) -> Vec<u64> {
        self.sessions
            .get(session)
            .map(|s| s.voters.keys().copied().collect())
            .unwrap_or_default()
    }

    /// The oldest and newest live voter of `session`, or the ghost id
    /// `u64::MAX` twice when none is live.
    pub fn oldest_and_newest(&self, session: &str) -> (u64, u64) {
        let live = self.live(session);
        match (live.first(), live.last()) {
            (Some(&a), Some(&b)) => (a, b),
            _ => (GHOST, GHOST),
        }
    }

    fn create(&mut self, name: &str, n: usize, policy: WirePolicy) -> Result<Response, Response> {
        if name.is_empty() || name.len() > MAX_NAME {
            return Err(error(
                ErrorCode::BadRequest,
                format!("session names must be 1..={MAX_NAME} bytes"),
            ));
        }
        if n > MAX_ELEMENTS {
            return Err(error(
                ErrorCode::BadRequest,
                format!("domain of {n} elements exceeds {MAX_ELEMENTS}"),
            ));
        }
        if self.sessions.contains_key(name) {
            return Err(error(
                ErrorCode::SessionExists,
                format!("session {name:?} already exists"),
            ));
        }
        let session = Session {
            n,
            policy: policy.into(),
            next_id: 0,
            voters: BTreeMap::new(),
        };
        self.sessions.insert(name.to_owned(), session);
        Ok(Response::SessionCreated)
    }

    fn session(&mut self, name: &str) -> Result<&mut Session, Response> {
        self.sessions
            .get_mut(name)
            .ok_or_else(|| unknown_session(name))
    }

    /// A session and its live voters in ascending id order, refused
    /// typed when none is live.
    fn profile(&mut self, name: &str) -> Result<(&Session, Vec<BucketOrder>), Response> {
        let s = self.session(name)?;
        if s.voters.is_empty() {
            return Err(error(
                ErrorCode::NoVoters,
                format!("session {name:?} has no live voters"),
            ));
        }
        let voters = s.voters.values().cloned().collect();
        Ok((s, voters))
    }

    /// Two stored voters, the first one's absence reported first.
    fn pair(
        &mut self,
        name: &str,
        a: u64,
        b: u64,
    ) -> Result<(&BucketOrder, &BucketOrder), Response> {
        let s = self.session(name)?;
        Ok((s.voter(a)?, s.voter(b)?))
    }
}

fn unknown_session(name: &str) -> Response {
    error(
        ErrorCode::UnknownSession,
        format!("no session named {name:?}"),
    )
}

/// Sends `req` over `client` and asserts the raw reply bytes equal the
/// encoding of `expected`.
///
/// # Panics
/// On a transport failure or a differing reply.
pub fn assert_reply(client: &mut Client, req: &Request, expected: &Response) {
    let raw = client.call_raw(req).expect("transport");
    assert_eq!(
        raw,
        expected.encode(),
        "reply to {req:?} diverged from the model ({expected:?})"
    );
}
