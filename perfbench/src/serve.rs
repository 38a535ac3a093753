//! The served workloads: load from at most two threads over at most two
//! connections against a child `bucketrank serve --workers 2`, every
//! reply checked, the final state of every session compared with an
//! in-process replay of its acknowledged edits.

use crate::child::Served;
use crate::gen::{session_name, setup_ops, Inputs, Kind, Op, OpGen, Shape};
use crate::probe::{self, Edge, Pid};
use bucketrank_aggregate::{DynamicProfile, MedianPolicy, VoterId};
use bucketrank_core::BucketOrder;
use bucketrank_metrics::prepared::kprof_x2_prepared;
use bucketrank_metrics::PreparedRanking;
use bucketrank_server::proto::{decode_batch_reply, encode_batch, read_frame, write_frame};
use bucketrank_server::{
    Client, MetricKind, Request, Response, ShardStats, DEFAULT_MAX_FRAME,
};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use bucketrank_workloads::rng::Rng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A reply slower than this fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Ops per frame and frames outstanding while seeding and verifying.
const BULK_BATCH: usize = 32;
const BULK_WINDOW: usize = 4;

/// One framed connection speaking v1 for single ops and v2 `Batch`
/// frames for several.
pub struct Wire {
    stream: TcpStream,
}

impl Wire {
    /// Connects with Nagle off.
    pub fn connect(addr: SocketAddr) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Wire { stream })
    }

    fn try_clone(&self) -> Result<Wire, String> {
        Ok(Wire {
            stream: self.stream.try_clone().map_err(|e| e.to_string())?,
        })
    }

    /// Sends `reqs` as one frame.
    pub fn send(&mut self, reqs: &[&Request]) -> Result<(), String> {
        let body = match reqs {
            [one] => one.encode(),
            many => encode_batch(&many.iter().map(|r| (*r).clone()).collect::<Vec<_>>()),
        };
        write_frame(&mut self.stream, &body, DEFAULT_MAX_FRAME).map_err(|e| format!("send: {e}"))
    }

    /// Receives the reply frame to a frame of `count` requests. A
    /// whole-frame `Busy` or `Error` answers every op in it.
    pub fn recv(&mut self, count: usize) -> Result<Vec<Response>, String> {
        let body = read_frame(&mut self.stream, DEFAULT_MAX_FRAME)
            .map_err(|e| format!("disconnected: {e:?}"))?;
        let decode = |b: &[u8]| Response::decode(b).map_err(|e| format!("bad reply: {e}"));
        if count == 1 {
            return Ok(vec![decode(&body)?]);
        }
        match decode_batch_reply(&body) {
            Ok(bodies) if bodies.len() == count => bodies.iter().map(|b| decode(b)).collect(),
            Ok(bodies) => Err(format!("{} replies for {count} ops", bodies.len())),
            Err(_) => Ok(vec![decode(&body)?; count]),
        }
    }
}

/// How one reply compares with what its op expects.
enum Verdict {
    Ok,
    /// Refused or failed by the server (`Busy`, typed `Error`).
    Failed(String),
    /// A reply of the wrong kind or shape: the run is incorrect.
    Wrong(String),
}

fn judge(op: &Op, resp: &Response, n: usize) -> Verdict {
    let ok = match (op.kind, resp) {
        (_, Response::Busy) => return Verdict::Failed("busy".into()),
        (_, Response::Error { code, message }) => {
            return Verdict::Failed(format!("{} failed: {code:?} {message}", op.kind.label()))
        }
        (Kind::Create, Response::SessionCreated) => true,
        (Kind::Push(id), Response::VoterPushed { voter }) => {
            if *voter != id {
                return Verdict::Wrong(format!("push issued id {voter}, expected {id}"));
            }
            true
        }
        (Kind::Remove, Response::VoterRemoved) | (Kind::Replace, Response::VoterReplaced) => true,
        (Kind::Median | Kind::TopK, Response::Ranking { order }) => order.len() == n,
        (Kind::Kemeny | Kind::Pair | Kind::Weighted, Response::CostX2 { .. }) => true,
        _ => false,
    };
    if ok {
        Verdict::Ok
    } else {
        Verdict::Wrong(format!("{} answered {resp:?}", op.kind.label()))
    }
}

/// Per-connection tallies of a load phase.
#[derive(Default)]
pub struct ConnRun {
    /// `(kind, latency µs, completion s)` of every measured op, the
    /// completion (due time for the open loop) counted from the
    /// window's opening.
    pub samples: Vec<(Kind, f64, f64)>,
    /// How late the open-loop sender ran, µs, per measured op.
    pub late_us: Vec<f64>,
    /// Acknowledged edits, in send order.
    pub acked: Vec<Op>,
    /// Ops drawn from the generator (warm-up included).
    pub consumed: usize,
    /// Ops sent in the measured window.
    pub attempted: u64,
    /// Of those, failed or refused.
    pub failed: u64,
    /// `Busy` replies seen.
    pub busy: u64,
    /// First failure, for the detail line.
    pub first_failure: Option<String>,
    /// First wrong reply; any makes the run incorrect.
    pub wrong: Option<String>,
    /// When the last measured reply arrived.
    pub last_reply: Option<Instant>,
}

impl ConnRun {
    fn settle(&mut self, op: Op, resp: &Response, n: usize, measured: Option<(f64, f64)>) {
        let verdict = judge(&op, resp, n);
        if measured.is_some() {
            self.attempted += 1;
        }
        match verdict {
            Verdict::Ok => {
                if let Some((us, at)) = measured {
                    self.samples.push((op.kind, us, at));
                }
                if op.kind.is_edit() {
                    self.acked.push(op);
                }
            }
            Verdict::Failed(why) => {
                if matches!(resp, Response::Busy) {
                    self.busy += 1;
                }
                if measured.is_some() {
                    self.failed += 1;
                }
                self.first_failure.get_or_insert(why);
            }
            Verdict::Wrong(why) => {
                self.wrong.get_or_insert(why);
            }
        }
    }

    fn merge(&mut self, other: ConnRun) {
        self.samples.extend(other.samples);
        self.late_us.extend(other.late_us);
        self.acked.extend(other.acked);
        self.consumed += other.consumed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        if self.wrong.is_none() {
            self.wrong = other.wrong;
        }
        self.last_reply = self.last_reply.max(other.last_reply);
    }
}

/// Sends `ops` in frames of `batch` with `window` frames outstanding and
/// settles every reply (nothing is measured).
fn bulk(wire: &mut Wire, ops: Vec<Op>, n: usize, run: &mut ConnRun) -> Result<(), String> {
    let mut frames: VecDeque<Vec<Op>> = VecDeque::new();
    let mut pending = ops.into_iter().peekable();
    while pending.peek().is_some() || !frames.is_empty() {
        while frames.len() < BULK_WINDOW && pending.peek().is_some() {
            let frame: Vec<Op> = pending.by_ref().take(BULK_BATCH).collect();
            wire.send(&frame.iter().map(|o| &o.req).collect::<Vec<_>>())?;
            frames.push_back(frame);
        }
        let frame = frames.pop_front().expect("a frame is outstanding");
        let resps = wire.recv(frame.len())?;
        for (op, resp) in frame.into_iter().zip(&resps) {
            run.settle(op, resp, n, None);
        }
    }
    Ok(())
}

/// Creates and seeds every session, each connection its own half.
fn seed_sessions(addr: SocketAddr, shape: &Shape, inputs: &Inputs, seed: u64) -> Result<(), String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shape.conns)
            .map(|conn| {
                scope.spawn(move || -> Result<(), String> {
                    let mut wire = Wire::connect(addr)?;
                    let mut run = ConnRun::default();
                    bulk(&mut wire, setup_ops(shape, inputs, seed, conn), shape.n, &mut run)?;
                    match (run.wrong, run.first_failure) {
                        (Some(w), _) | (None, Some(w)) => Err(format!("set-up: {w}")),
                        _ => Ok(()),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "set-up thread panicked".to_string())?)
    })
}

/// Counters read at the start edge of the measured window.
pub struct StartEdge {
    /// When the window opened.
    pub at: Instant,
    /// Server child counters.
    pub server: Edge,
    /// Load generator counters.
    pub own: Edge,
    /// Server `Stats` rows.
    pub stats: Vec<ShardStats>,
    /// Server CPU seconds at each inner boundary of the
    /// [`crate::stats::SERVED_WINDOWS`] equal parts of the window.
    pub cpu_marks: Vec<Option<f64>>,
}

/// Timeline of a load phase.
#[derive(Clone, Copy)]
struct Clock {
    warm_end: Instant,
    end: Instant,
}

/// Reads the window's edges from inside the one load thread that holds
/// it: the start edge when the window opens, then the server's CPU time
/// at each inner part boundary, so no probe thread adds to the load.
pub struct Sampler<'a> {
    pid: u32,
    stats: &'a mut Client,
    slot: &'a mut Option<StartEdge>,
}

impl Sampler<'_> {
    /// Samples whatever edge `now` has passed.
    fn tick(&mut self, now: Instant, clock: Clock) -> Result<(), String> {
        if now < clock.warm_end {
            return Ok(());
        }
        let Some(edge) = self.slot.as_mut() else {
            *self.slot = Some(StartEdge {
                at: now,
                server: Edge::sample(Pid::Of(self.pid)),
                own: Edge::sample(Pid::Own),
                stats: self.stats.stats().map_err(|e| format!("stats: {e}"))?,
                cpu_marks: Vec::new(),
            });
            return Ok(());
        };
        let parts = crate::stats::SERVED_WINDOWS;
        let width = (clock.end - clock.warm_end) / parts as u32;
        let marks = &mut edge.cpu_marks;
        while marks.len() + 1 < parts && now >= clock.warm_end + width * (marks.len() as u32 + 1) {
            marks.push(probe::cpu_s(Pid::Of(self.pid)));
        }
        Ok(())
    }
}

/// One closed-loop connection: keeps `window` frames of `batch` ops
/// outstanding until the clock ends, then drains. Connection 0 also
/// holds the window's sampler.
fn closed_loop(
    mut wire: Wire,
    mut gen: OpGen,
    shape: &Shape,
    clock: Clock,
    mut sampler: Option<Sampler>,
) -> Result<ConnRun, String> {
    let mut run = ConnRun::default();
    let mut frames: VecDeque<(Instant, bool, Vec<Op>)> = VecDeque::new();
    loop {
        while frames.len() < shape.window {
            let now = Instant::now();
            if now >= clock.end {
                break;
            }
            let measured = now >= clock.warm_end;
            if let Some(s) = sampler.as_mut() {
                s.tick(now, clock)?;
            }
            let frame: Vec<Op> = (0..shape.batch).map(|_| gen.next_op()).collect();
            run.consumed += frame.len();
            wire.send(&frame.iter().map(|o| &o.req).collect::<Vec<_>>())?;
            frames.push_back((Instant::now(), measured, frame));
        }
        let Some((sent, measured, frame)) = frames.pop_front() else {
            break;
        };
        let resps = wire.recv(frame.len())?;
        let done = Instant::now();
        let us = (done - sent).as_secs_f64() * 1e6;
        let at = done.saturating_duration_since(clock.warm_end).as_secs_f64();
        if measured {
            run.last_reply = Some(done);
        }
        for (op, resp) in frame.into_iter().zip(&resps) {
            run.settle(op, resp, shape.n, measured.then_some((us, at)));
        }
    }
    Ok(run)
}

/// Typical overshoot of `thread::sleep` on Linux (the default timer
/// slack plus wakeup).
const TIMER_SLACK: Duration = Duration::from_micros(55);

/// The open loop: one sender thread sends single v1 frames at Poisson
/// arrival times of mean rate `rate`, one receiver thread times each
/// reply from its request's due time.
fn open_loop(
    wire: Wire,
    mut gen: OpGen,
    shape: &Shape,
    (rate, seed): (f64, u64),
    clock: Clock,
    mut sampler: Sampler,
) -> Result<ConnRun, String> {
    let mut rx_wire = wire.try_clone()?;
    let mut tx_wire = wire;
    let (tx, rx) = mpsc::channel::<(Instant, Instant, Op)>();
    let n = shape.n;
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Result<usize, String> {
            let mut arrivals = crate::gen::rng_for(seed, 0xa77e);
            let mut due = Instant::now();
            let mut i = 0usize;
            loop {
                // Poisson arrivals: exponential gaps at the offered
                // rate, so request times never phase-lock with the
                // server's poll cadence.
                let u = arrivals.gen_f64();
                due += Duration::from_secs_f64(-(1.0 - u).ln() / rate);
                if due >= clock.end {
                    return Ok(i);
                }
                let op = gen.next_op();
                sampler.tick(due, clock)?;
                // A sleep overshoots by about the timer slack: wake that
                // much early and send as soon as it ends.
                let now = Instant::now();
                if due > now + TIMER_SLACK {
                    std::thread::sleep(due - now - TIMER_SLACK);
                }
                let sent = Instant::now();
                tx_wire.send(&[&op.req])?;
                if tx.send((due, sent, op)).is_err() {
                    return Err("receiver stopped".into());
                }
                i += 1;
            }
        });
        let receiver = scope.spawn(move || -> Result<ConnRun, String> {
            let mut run = ConnRun::default();
            for (due, sent, op) in rx {
                let resp = rx_wire.recv(1)?;
                let done = Instant::now();
                let measured = due >= clock.warm_end;
                if measured {
                    let late = sent.saturating_duration_since(due).as_secs_f64();
                    run.late_us.push(late * 1e6);
                    run.last_reply = Some(done);
                }
                // Timed from the due time, or from the send if it left
                // early.
                let us = (done - due.max(sent)).as_secs_f64() * 1e6;
                let at = due.saturating_duration_since(clock.warm_end).as_secs_f64();
                run.settle(op, &resp[0], n, measured.then_some((us, at)));
            }
            Ok(run)
        });
        let consumed = sender.join().map_err(|_| "sender panicked".to_string())??;
        let mut run = receiver.join().map_err(|_| "receiver panicked".to_string())??;
        run.consumed = consumed;
        Ok(run)
    })
}

/// Everything the load phase of a served workload produced.
pub struct LoadRun {
    /// Merged connection tallies.
    pub run: ConnRun,
    /// Ops consumed per connection (the replay length).
    pub consumed: Vec<usize>,
    /// Start-edge counters.
    pub start: StartEdge,
    /// Server counters after the drain.
    pub end_server: Edge,
    /// Load generator counters after the drain.
    pub end_own: Edge,
    /// `Stats` after the drain.
    pub end_stats: Vec<ShardStats>,
    /// Seconds from the window opening to the last measured reply.
    pub window_s: f64,
}

/// A `Client` for reading `Stats`.
fn connect_stats(addr: SocketAddr) -> Result<Client, String> {
    let mut stats = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stats.set_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
    Ok(stats)
}

/// Drives the measured window: a warm-up of `warm`, then `seconds` of
/// load, then a drain.
pub fn drive(
    served: &Served,
    shape: &Shape,
    inputs: &Inputs,
    seed: u64,
    warm: Duration,
    seconds: f64,
) -> Result<LoadRun, String> {
    let mut stats = connect_stats(served.addr)?;
    let wires: Vec<Wire> = (0..shape.conns)
        .map(|_| Wire::connect(served.addr))
        .collect::<Result<_, _>>()?;
    let gens: Vec<OpGen> = (0..shape.conns)
        .map(|c| OpGen::new(shape, inputs, seed, c))
        .collect();
    let now = Instant::now();
    let clock = Clock {
        warm_end: now + warm,
        end: now + warm + Duration::from_secs_f64(seconds),
    };
    let mut slot: Option<StartEdge> = None;
    let pid = served.pid();
    let sampler = Sampler {
        pid,
        stats: &mut stats,
        slot: &mut slot,
    };
    let runs: Vec<ConnRun> = match shape.rate {
        Some(rate) => {
            let (wire, gen) = (wires.into_iter().next(), gens.into_iter().next());
            let (wire, gen) = (wire.expect("one wire"), gen.expect("one gen"));
            vec![open_loop(wire, gen, shape, (rate, seed), clock, sampler)?]
        }
        None => std::thread::scope(|scope| {
            let mut sampler = Some(sampler);
            let handles: Vec<_> = wires
                .into_iter()
                .zip(gens)
                .map(|(wire, gen)| {
                    let sampler = sampler.take();
                    scope.spawn(move || closed_loop(wire, gen, shape, clock, sampler))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "load thread panicked".to_string())?)
                .collect::<Result<Vec<_>, String>>()
        })?,
    };
    let end_server = Edge::sample(Pid::Of(pid));
    let end_own = Edge::sample(Pid::Own);
    // A fresh connection: the server closes one idle for its read
    // timeout (30 s), which a window that long outlasts.
    let end_stats = connect_stats(served.addr)?
        .stats()
        .map_err(|e| format!("stats: {e}"))?;
    let start = slot.ok_or("the measured window never opened")?;
    let consumed = runs.iter().map(|r| r.consumed).collect();
    let mut run = ConnRun::default();
    for r in runs {
        run.merge(r);
    }
    let window_s = run
        .last_reply
        .map_or(0.0, |t| t.saturating_duration_since(start.at).as_secs_f64());
    Ok(LoadRun {
        run,
        consumed,
        start,
        end_server,
        end_own,
        end_stats,
        window_s,
    })
}

/// Sets up a fresh server: spawn over an empty data directory (when
/// durable), wait for it to serve, create and seed every session.
/// Returns the server and the seconds it took.
pub fn set_up(
    shape: &Shape,
    inputs: &Inputs,
    seed: u64,
    bin: &Path,
    scratch: &Path,
) -> Result<(Served, f64), String> {
    let data = data_dir(scratch);
    let _ = std::fs::remove_dir_all(&data);
    let t0 = Instant::now();
    let served = Served::spawn(bin, scratch, &serve_flags(shape, &data))?;
    seed_sessions(served.addr, shape, inputs, seed)?;
    Ok((served, t0.elapsed().as_secs_f64()))
}

/// The durable data directory of a run.
pub fn data_dir(scratch: &Path) -> PathBuf {
    scratch.join("data")
}

/// `serve` flags for `shape`.
pub fn serve_flags(shape: &Shape, data: &Path) -> Vec<String> {
    let mut flags = vec!["--max-sessions".to_owned(), shape.max_sessions.to_string()];
    if shape.durable {
        flags.push("--data-dir".into());
        flags.push(data.display().to_string());
    }
    flags
}

/// Expected observable state of one session after its acknowledged
/// edits, from an in-process [`DynamicProfile`] replay.
struct Expected {
    median: BucketOrder,
    kemeny: u64,
    live: Vec<u64>,
    pairs: Vec<u64>,
}

fn expected(
    shape: &Shape,
    inputs: &Inputs,
    seed: u64,
    s: usize,
    edits: &[&Op],
) -> Result<Expected, String> {
    let mut dp = DynamicProfile::new(shape.n, MedianPolicy::Lower);
    let err = |e: bucketrank_aggregate::AggregateError| format!("replay of {}: {e}", session_name(s));
    for i in 0..shape.seed_voters {
        dp.push_voter(inputs.seed_voter(seed, s, i).clone()).map_err(err)?;
    }
    for op in edits {
        match (&op.kind, &op.req) {
            (Kind::Push(id), Request::PushVoter { ranking, .. }) => {
                let got = dp.push_voter(ranking.clone()).map_err(err)?;
                if got.raw() != *id {
                    return Err(format!("replay issued {} for {id}", got.raw()));
                }
            }
            (Kind::Remove, Request::RemoveVoter { voter, .. }) => {
                dp.remove_voter(VoterId::from_raw(*voter)).map_err(err)?;
            }
            (Kind::Replace, Request::ReplaceVoter { voter, ranking, .. }) => {
                dp.replace_voter(VoterId::from_raw(*voter), ranking.clone())
                    .map_err(err)?;
            }
            _ => {}
        }
    }
    let snap = dp.snapshot().map_err(err)?;
    let live: Vec<u64> = dp.voter_ids().into_iter().map(VoterId::raw).collect();
    let first = PreparedRanking::new(dp.get_voter(VoterId::from_raw(live[0])).expect("live"));
    let pairs = live
        .iter()
        .map(|&v| {
            let pv = PreparedRanking::new(dp.get_voter(VoterId::from_raw(v)).expect("live"));
            kprof_x2_prepared(&pv, &first).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Expected {
        median: snap.median_order(),
        kemeny: snap.tally().kemeny_cost_x2(&inputs.pool[0]).map_err(err)?,
        live,
        pairs,
    })
}

fn probe_reqs(s: usize, e: &Expected, candidate: &BucketOrder) -> Vec<Request> {
    let session = session_name(s);
    let mut reqs = vec![
        Request::MedianOrder {
            session: session.clone(),
        },
        Request::KemenyCost {
            session: session.clone(),
            candidate: candidate.clone(),
        },
    ];
    reqs.extend(e.live.iter().map(|&v| Request::PairMetric {
        session: session.clone(),
        metric: MetricKind::KprofX2,
        voter_a: v,
        voter_b: e.live[0],
    }));
    reqs
}

fn compare(s: usize, e: &Expected, resps: &[Response]) -> Result<(), String> {
    let name = session_name(s);
    match &resps[0] {
        Response::Ranking { order } if *order == e.median => {}
        other => return Err(format!("{name}: median order {other:?} differs from replay")),
    }
    match resps[1] {
        Response::CostX2 { value } if value == e.kemeny => {}
        ref other => return Err(format!("{name}: kemeny cost {other:?}, replay {}", e.kemeny)),
    }
    for (i, want) in e.pairs.iter().enumerate() {
        match resps[2 + i] {
            Response::CostX2 { value } if value == *want => {}
            ref other => {
                return Err(format!("{name}: voter {} answered {other:?}", e.live[i]))
            }
        }
    }
    Ok(())
}

/// Compares every session's median order, Kemeny cost of a fixed
/// candidate and live voter set with an in-process replay of its
/// acknowledged edits. Returns the sessions checked.
pub fn verify(
    addr: SocketAddr,
    shape: &Shape,
    inputs: &Inputs,
    seed: u64,
    acked: &[Op],
) -> Result<usize, String> {
    let mut by_session: HashMap<usize, Vec<&Op>> = HashMap::new();
    for op in acked {
        by_session.entry(op.session).or_default().push(op);
    }
    let mut wire = Wire::connect(addr)?;
    let mut frames: VecDeque<(usize, Expected, usize)> = VecDeque::new();
    let candidate = &inputs.pool[0];
    let mut next = 0usize;
    while next < shape.sessions || !frames.is_empty() {
        while frames.len() < BULK_WINDOW && next < shape.sessions {
            let edits = by_session.get(&next).map_or(&[][..], Vec::as_slice);
            let e = expected(shape, inputs, seed, next, edits)?;
            let reqs = probe_reqs(next, &e, candidate);
            wire.send(&reqs.iter().collect::<Vec<_>>())?;
            frames.push_back((next, e, reqs.len()));
            next += 1;
        }
        let (s, e, count) = frames.pop_front().expect("a frame is outstanding");
        compare(s, &e, &wire.recv(count)?)?;
    }
    Ok(shape.sessions)
}

/// Sums one `Stats` column over shards.
pub fn stat_sum(rows: &[ShardStats], f: impl Fn(&ShardStats) -> u64) -> u64 {
    rows.iter().map(f).sum()
}

/// Own and server probes that are always read the same way.
pub fn peak_rss(pid: u32) -> Option<f64> {
    probe::peak_rss_mib(Pid::Of(pid))
}
