//! The TCP transport: a readiness-based connection loop, worker pool,
//! backpressure, and graceful shutdown.
//!
//! # Threading model (protocol v2)
//!
//! One **event thread** owns a nonblocking listener and every
//! connection. It accepts, reads, parses, dispatches, and writes —
//! no thread is ever spawned per connection, so thousands of idle
//! connections cost a socket and a small state machine each, not a
//! stack. A fixed pool of **worker threads** (the only threads that
//! touch [`Service`] state) drains a **bounded queue** of jobs and
//! hands finished reply bytes back through a completion queue that
//! doubles as the event thread's wakeup.
//!
//! Readiness without `epoll` (std-only, no `libc`): sockets are
//! nonblocking, and each loop iteration drains completions, accepts,
//! then takes every connection once through one step — read, dispatch,
//! flush, reap. The step reads a connection while it is *hot* (bytes
//! seen recently, or work queued, running or unflushed) and otherwise
//! only when the coarse cold sweep is due, so an idle connection costs
//! a few field checks per iteration: no lock, no allocation. A
//! [`FrameReader`] per connection carries partial frames across
//! iterations, so a frame that trickles in over many poll intervals is
//! reassembled, never desynced. The loop's sleep is adaptive: it
//! spins near 50µs under load (and is woken instantly by completions)
//! and backs off to a few milliseconds when every connection is idle.
//!
//! # Pipelining and ordering
//!
//! A connection may have many frames outstanding (`pipeline_depth`
//! bounds the parsed-but-unanswered ops; beyond it the loop simply
//! stops reading that socket, turning the bound into TCP
//! backpressure). At most **one job per connection** is in flight at
//! a time, and a job takes the connection's entire pending frame
//! queue and executes it in order — so replies are written in exactly
//! the order the requests arrived, byte-identical to serving them one
//! at a time (`tests/server_pipeline.rs`), and a batch of edits pays
//! one session lookup, not N.
//!
//! # Backpressure, caps and timeouts
//!
//! * Job queue full → every pending frame on that connection is
//!   answered [`Response::Busy`] (a `Batch` frame gets a `BatchReply`
//!   of per-op Busy); nothing queues unboundedly.
//! * Connection table full → the acceptor writes one `Busy` frame and
//!   closes the socket without registering anything.
//! * Idle connections are closed after `read_timeout` (measured from
//!   the last complete frame); a peer that stalls our writes longer
//!   than `write_timeout` is dropped.
//!
//! # Failure posture
//!
//! A malformed, oversized, or truncated frame kills **that
//! connection** — after every already-parsed frame is answered and a
//! best-effort typed error reply is flushed — and nothing else.
//! Workers never see raw bytes, so a hostile peer cannot reach a
//! panic path (`tests/proto_fuzz.rs`).
//!
//! # Graceful shutdown
//!
//! [`Server::shutdown`] (or a wire [`Request::Shutdown`], which is
//! acknowledged in-order like any reply and then triggers the same
//! path) stops accepting, stops reading, serves every already-parsed
//! frame, flushes every write buffer, closes every connection, and
//! joins every thread before returning the final [`ServerStats`].

use crate::proto::{
    encode_batch_reply, write_frame, FrameError, FrameReader, ProtoError, Request, Response,
    WireRequest, DEFAULT_MAX_FRAME,
};
use crate::service::{Service, ServiceConfig};
use crate::ErrorCode;
use std::collections::VecDeque;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::bind`]; `Default` suits tests and small
/// deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing requests (at least 1).
    pub workers: usize,
    /// Bounded job-queue depth (at least 1); a full queue answers
    /// `Busy`.
    pub queue_depth: usize,
    /// Maximum simultaneously served connections (at least 1); excess
    /// connections receive one `Busy` frame and are closed.
    pub max_connections: usize,
    /// Idle time after which a connection is closed.
    pub read_timeout: Duration,
    /// How long a peer may stall our reply writes before the
    /// connection is dropped.
    pub write_timeout: Duration,
    /// Maximum frame-body size accepted or produced (at least 16
    /// bytes).
    pub max_frame: usize,
    /// Per-connection bound on parsed-but-unanswered ops (at least 1);
    /// past it the event loop stops reading that socket (TCP
    /// backpressure) until replies drain.
    pub pipeline_depth: usize,
    /// The session service the server runs: shards, resident-session
    /// budget, durable data directory and compaction threshold.
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame: DEFAULT_MAX_FRAME,
            pipeline_depth: 128,
            service: ServiceConfig::default(),
        }
    }
}

/// The smallest `max_frame` [`Server::bind`] accepts: a smaller bound
/// could not carry even a short request.
const MIN_FRAME: usize = 16;

impl ServerConfig {
    /// Refuses a configuration under which the server could serve no
    /// request at all.
    fn validate(&self) -> io::Result<()> {
        let at_least_one = [
            ("workers", self.workers),
            ("queue_depth", self.queue_depth),
            ("max_connections", self.max_connections),
            ("pipeline_depth", self.pipeline_depth),
        ];
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        for (field, value) in at_least_one {
            if value == 0 {
                return invalid(format!("{field} must be at least 1"));
            }
        }
        if self.max_frame < MIN_FRAME {
            return invalid(format!(
                "max_frame must be at least {MIN_FRAME} bytes, got {}",
                self.max_frame
            ));
        }
        Ok(())
    }
}

/// Counters accumulated over a server's lifetime, returned by
/// [`Server::shutdown`] and readable live via [`Server::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and served.
    pub connections: u64,
    /// Requests executed to completion (any response, including typed
    /// errors); each op inside a `Batch` frame counts once.
    pub requests: u64,
    /// Requests or connections rejected with `Busy` for backpressure.
    pub rejected_busy: u64,
    /// Connections dropped for a protocol violation.
    pub protocol_errors: u64,
}

/// Shortest event-loop sleep: the poll cadence under active load.
const SLEEP_MIN: Duration = Duration::from_micros(50);
/// Sleep cap while any connection is hot (recently produced bytes).
const SLEEP_HOT_CAP: Duration = Duration::from_micros(500);
/// Sleep cap when every connection is cold.
const SLEEP_COLD_CAP: Duration = Duration::from_millis(10);
/// Cold connections are swept for readability at this interval; a
/// request on a long-idle connection waits at most about this long
/// before the loop notices it.
const COLD_SWEEP_INTERVAL: Duration = Duration::from_millis(20);
/// A hot connection with no bytes for this long goes cold.
const HOT_IDLE: Duration = Duration::from_millis(100);

type Job = Box<dyn FnOnce() + Send>;

/// The bounded MPMC job queue: `try_push` refuses instead of waiting,
/// which is what turns overload into `Busy` replies.
struct JobQueue {
    inner: Mutex<JobQueueInner>,
    ready: Condvar,
    capacity: usize,
}

struct JobQueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(JobQueueInner {
                jobs: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// True while a `try_push` would be accepted. The event thread is
    /// the only producer, so space observed here cannot be stolen
    /// before its push (workers only ever free space).
    fn has_capacity(&self) -> bool {
        self.inner.lock().expect("queue lock").jobs.len() < self.capacity
    }

    /// Enqueues `job`, or hands it back when the queue is full.
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.jobs.len() >= self.capacity {
            return Err(job);
        }
        inner.jobs.push_back(job);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained, so closing still lets every accepted job run.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue lock");
        }
    }

    /// Lets the workers exit once the queue drains; called only after
    /// the event thread, the only producer, has exited.
    fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

/// A finished job's reply bytes, addressed by slab token. Stale
/// generations (the connection died while the job ran) are dropped.
struct Done {
    idx: usize,
    gen: u64,
    bytes: Vec<u8>,
    shutdown: bool,
}

/// Worker → event-thread channel; the condvar doubles as the event
/// loop's wakeup, so a completed job never waits on a poll tick.
#[derive(Default)]
struct Completions {
    inner: Mutex<Vec<Done>>,
    cv: Condvar,
}

impl Completions {
    fn push(&self, done: Done) {
        self.inner.lock().expect("completion lock").push(done);
        self.cv.notify_one();
    }

    fn drain(&self) -> Vec<Done> {
        std::mem::take(&mut *self.inner.lock().expect("completion lock"))
    }

    /// Wakes the event loop without delivering anything (shutdown).
    fn notify(&self) {
        self.cv.notify_all();
    }

    /// Sleeps until a completion lands, `notify` is called, or
    /// `timeout` passes — the event loop's only blocking point.
    fn wait(&self, timeout: Duration) {
        let guard = self.inner.lock().expect("completion lock");
        if guard.is_empty() {
            let _ = self.cv.wait_timeout(guard, timeout).expect("completion lock");
        }
    }
}

/// State shared by every thread of one server.
struct Shared {
    service: Service,
    queue: JobQueue,
    completions: Completions,
    config: ServerConfig,
    /// The stop flag, read by the event loop once per iteration and
    /// waited on (through `shutdown_cv`) by `wait_shutdown_requested`.
    shutdown_signal: Mutex<bool>,
    shutdown_cv: Condvar,
    connections: AtomicU64,
    requests: AtomicU64,
    rejected_busy: AtomicU64,
    protocol_errors: AtomicU64,
}

impl Shared {
    fn request_shutdown(&self) {
        *self.shutdown_signal.lock().expect("shutdown lock") = true;
        self.shutdown_cv.notify_all();
        // The event loop may be mid-sleep; kick it.
        self.completions.notify();
    }

    fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// A running server; dropping it shuts it down. See the
/// [module docs](self).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    finished: bool,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// event loop and worker pool.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`], before binding, when
    /// `workers`, `queue_depth`, `max_connections` or `pipeline_depth`
    /// is 0 or `max_frame` is below 16 bytes; the underlying
    /// [`io::Error`] from bind; or a service construction failure
    /// (invalid shard/session configuration, or an I/O failure
    /// opening/recovering the data directory).
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
        config.validate()?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let service = Service::with_config(config.service.clone())?;
        let shared = Arc::new(Shared {
            service,
            queue: JobQueue::new(config.queue_depth),
            completions: Completions::default(),
            config: config.clone(),
            shutdown_signal: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        });

        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bucketrank-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = shared.queue.pop() {
                            job();
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();

        let event_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("bucketrank-event".to_owned())
                .spawn(move || EventLoop::new(listener, shared).run())
                .expect("spawn event loop")
        };

        Ok(Server {
            addr,
            shared,
            event_thread: Some(event_thread),
            workers,
            finished: false,
        })
    }

    /// The bound address (the OS-chosen port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Flags the server for shutdown without blocking (also triggered
    /// by a wire [`Request::Shutdown`]). Pair with
    /// [`wait_shutdown_requested`](Server::wait_shutdown_requested) /
    /// [`shutdown`](Server::shutdown).
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until someone — a wire request or
    /// [`request_shutdown`](Server::request_shutdown) — asks the
    /// server to stop.
    pub fn wait_shutdown_requested(&self) {
        let mut flagged = self.shared.shutdown_signal.lock().expect("shutdown lock");
        while !*flagged {
            flagged = self.shared.shutdown_cv.wait(flagged).expect("shutdown lock");
        }
    }

    /// Graceful shutdown: stop accepting, drain every parsed and
    /// in-flight request, flush and close every connection, join every
    /// thread, and return the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.finish()
    }

    fn finish(&mut self) -> ServerStats {
        if self.finished {
            return self.shared.stats();
        }
        self.finished = true;
        self.shared.request_shutdown();
        // The event loop drains in-flight work (the workers are still
        // alive to finish it), flushes, closes, and exits.
        if let Some(t) = self.event_thread.take() {
            let _ = t.join();
        }
        // Close the queue only after the producer is gone: every
        // accepted job still runs before the workers exit.
        self.shared.queue.close();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        self.shared.stats()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Per-connection state machine owned by the event thread.
struct Conn {
    stream: TcpStream,
    /// Carries partial frames across iterations.
    reader: FrameReader,
    /// Parsed frames not yet handed to a worker.
    pending: VecDeque<WireRequest>,
    /// Ops represented by `pending` (a batch counts its sub-requests).
    pending_ops: usize,
    /// At most one worker job per connection keeps replies in order.
    in_flight: bool,
    /// Unwritten reply bytes (`wpos` marks the flushed prefix).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Set when a write would block with bytes still unflushed.
    write_stalled: Option<Instant>,
    /// Last complete frame (the idle-timeout clock).
    idle_since: Instant,
    /// Last byte seen (the hot/cold clock).
    last_data: Instant,
    /// Peer closed its write side; serve what we have, then drop.
    read_closed: bool,
    /// Close once `wbuf` flushes (shutdown ack or protocol error sent).
    closing: bool,
    /// First protocol violation; reported after pending work drains.
    broken: Option<ProtoError>,
    /// Unrecoverable socket error; reaped immediately.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        let now = Instant::now();
        Conn {
            stream,
            reader: FrameReader::new(),
            pending: VecDeque::new(),
            pending_ops: 0,
            in_flight: false,
            wbuf: Vec::new(),
            wpos: 0,
            write_stalled: None,
            idle_since: now,
            last_data: now,
            read_closed: false,
            closing: false,
            broken: None,
            dead: false,
        }
    }

    /// Nothing queued, running, or unflushed.
    fn drained(&self) -> bool {
        !self.in_flight && self.pending.is_empty() && self.wpos >= self.wbuf.len()
    }

    /// Read every iteration: bytes arrived within [`HOT_IDLE`], a frame
    /// is half read, or work is queued, running or unflushed.
    fn hot(&self, now: Instant) -> bool {
        now.duration_since(self.last_data) < HOT_IDLE || self.reader.mid_frame() || !self.drained()
    }

    /// Drains the socket: parses complete frames into `pending` until
    /// the socket would block or the pipeline bound is hit.
    fn read(&mut self, max_frame: usize, depth: usize) -> bool {
        if self.read_closed || self.dead || self.broken.is_some() {
            return false;
        }
        let mut got = false;
        // Past the pipeline bound the socket is left unread, so TCP
        // pushes back on the peer.
        while self.pending_ops < depth {
            match self.reader.read_frame(&mut self.stream, max_frame) {
                Ok(body) => {
                    got = true;
                    let now = Instant::now();
                    self.idle_since = now;
                    self.last_data = now;
                    match WireRequest::decode(&body) {
                        Ok(w) => {
                            self.pending_ops += w.ops();
                            self.pending.push_back(w);
                        }
                        Err(e) => {
                            self.broken = Some(e);
                            break;
                        }
                    }
                }
                Err(FrameError::Io(e))
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.reader.mid_frame() {
                        // A partial frame is trickling in; keep the
                        // connection hot so it is re-polled promptly.
                        self.last_data = Instant::now();
                    }
                    break;
                }
                Err(FrameError::Closed) => {
                    self.read_closed = true;
                    break;
                }
                Err(FrameError::Io(_)) => {
                    self.dead = true;
                    break;
                }
                Err(FrameError::Proto(e)) => {
                    self.broken = Some(e);
                    break;
                }
            }
        }
        got
    }

    /// Hands the pending frames to a worker as one job that executes
    /// them in order, or answers them Busy when the queue is full;
    /// reports a protocol violation once all prior work has drained.
    /// Only a connection with frames to hand off touches the queue.
    fn dispatch(&mut self, shared: &Arc<Shared>, idx: usize, gen: u64) -> bool {
        if self.dead || self.in_flight {
            return false;
        }
        let max_frame = shared.config.max_frame;
        if self.pending.is_empty() {
            if self.wpos < self.wbuf.len() {
                return false;
            }
            let Some(e) = self.broken.take() else {
                return false;
            };
            // Every earlier reply has flushed: now the typed error,
            // then close (the stream cannot resync).
            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let resp = Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("protocol error: {e}"),
            };
            append_frame(&mut self.wbuf, &resp.encode(), max_frame);
            self.closing = true;
            return true;
        }
        if shared.queue.has_capacity() {
            let frames: Vec<WireRequest> = self.pending.drain(..).collect();
            self.pending_ops = 0;
            self.in_flight = true;
            let worker_shared = Arc::clone(shared);
            let job: Job = Box::new(move || run_frames(&worker_shared, idx, gen, frames));
            // The room just seen is still there: see `has_capacity`.
            let pushed = shared.queue.try_push(job);
            debug_assert!(pushed.is_ok(), "only the event thread pushes jobs");
            return true;
        }
        // Queue full: answer Busy per wire frame, in order. A batch
        // frame still gets its shape-preserving reply so a pipelined
        // client never desyncs.
        let refused = self.pending.len() as u64;
        for w in self.pending.drain(..) {
            let body = match w {
                WireRequest::Single(_) => Response::Busy.encode(),
                WireRequest::Batch(reqs) => encode_batch_reply(&vec![Response::Busy; reqs.len()]),
            };
            append_frame(&mut self.wbuf, &body, max_frame);
        }
        self.pending_ops = 0;
        shared.rejected_busy.fetch_add(refused, Ordering::Relaxed);
        true
    }

    /// Writes the reply buffer as far as the socket will take it.
    fn flush(&mut self) -> bool {
        if self.dead {
            return false;
        }
        let mut worked = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(k) => {
                    worked = true;
                    self.wpos += k;
                    self.write_stalled = None;
                    if self.wpos >= self.wbuf.len() {
                        self.wbuf.clear();
                        self.wpos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.write_stalled.is_none() {
                        self.write_stalled = Some(Instant::now());
                    }
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        worked
    }

    /// Finished, idle past the read timeout, stalled past the write
    /// timeout, or drained during shutdown: close it.
    fn expired(&self, now: Instant, stopping: bool, config: &ServerConfig) -> bool {
        let drained = self.drained();
        self.dead
            || (drained && (self.closing || self.read_closed || stopping))
            || (drained
                && self.broken.is_none()
                && now.duration_since(self.idle_since) >= config.read_timeout)
            || self
                .write_stalled
                .is_some_and(|t| now.duration_since(t) >= config.write_timeout)
    }
}

/// Generation-tagged connection slab: indices are reused, tokens are
/// not, so a completion for a dead connection can never reach its
/// replacement.
#[derive(Default)]
struct Slab {
    slots: Vec<(u64, Option<Conn>)>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn insert(&mut self, conn: Conn) -> usize {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            self.slots[idx].1 = Some(conn);
            idx
        } else {
            self.slots.push((0, Some(conn)));
            self.slots.len() - 1
        }
    }

    fn generation(&self, idx: usize) -> u64 {
        self.slots[idx].0
    }

    fn get_mut(&mut self, idx: usize, gen: u64) -> Option<&mut Conn> {
        match self.slots.get_mut(idx) {
            Some((g, conn)) if *g == gen => conn.as_mut(),
            _ => None,
        }
    }

    fn conn_mut(&mut self, idx: usize) -> Option<&mut Conn> {
        self.slots.get_mut(idx).and_then(|(_, c)| c.as_mut())
    }

    fn remove(&mut self, idx: usize) {
        if self.slots[idx].1.take().is_some() {
            self.slots[idx].0 += 1;
            self.free.push(idx);
            self.live -= 1;
        }
    }
}

/// Appends one framed reply to `out`; a body that exceeds `max_frame`
/// degrades to a typed error frame instead of a torn stream.
fn append_frame(out: &mut Vec<u8>, body: &[u8], max_frame: usize) {
    if write_frame(out, body, max_frame).is_err() {
        let fallback = Response::Error {
            code: ErrorCode::BadRequest,
            message: "reply exceeds the maximum frame size".to_owned(),
        }
        .encode();
        let _ = write_frame(out, &fallback, max_frame);
    }
}

/// Executes one connection's pending frames **in order** on a worker
/// and posts the concatenated reply frames back to the event thread.
fn run_frames(shared: &Arc<Shared>, idx: usize, gen: u64, frames: Vec<WireRequest>) {
    let max_frame = shared.config.max_frame;
    let mut bytes = Vec::new();
    let mut shutdown = false;
    let mut ops = 0u64;
    for frame in frames {
        match frame {
            WireRequest::Single(req) => {
                let is_shutdown = matches!(req, Request::Shutdown);
                let resp = shared.service.handle(req);
                ops += 1;
                if is_shutdown && matches!(resp, Response::ShutdownAck) {
                    shutdown = true;
                }
                append_frame(&mut bytes, &resp.encode(), max_frame);
            }
            WireRequest::Batch(reqs) => {
                ops += reqs.len() as u64;
                let replies = shared.service.handle_batch(reqs);
                append_frame(&mut bytes, &encode_batch_reply(&replies), max_frame);
            }
        }
    }
    shared.requests.fetch_add(ops, Ordering::Relaxed);
    if shutdown {
        // Unblock `wait_shutdown_requested` immediately; the event
        // loop flushes the in-order ack before closing the connection.
        shared.request_shutdown();
    }
    shared.completions.push(Done {
        idx,
        gen,
        bytes,
        shutdown,
    });
}

/// The event thread: owns the listener and every connection.
struct EventLoop {
    listener: TcpListener,
    shared: Arc<Shared>,
    slab: Slab,
    last_cold_sweep: Instant,
    sleep: Duration,
}

impl EventLoop {
    fn new(listener: TcpListener, shared: Arc<Shared>) -> Self {
        EventLoop {
            listener,
            shared,
            slab: Slab::default(),
            last_cold_sweep: Instant::now(),
            sleep: SLEEP_MIN,
        }
    }

    fn run(mut self) {
        let max_frame = self.shared.config.max_frame;
        let depth = self.shared.config.pipeline_depth;
        loop {
            let mut worked = self.drain_completions();
            let stopping = *self.shared.shutdown_signal.lock().expect("shutdown lock");
            if !stopping {
                worked |= self.accept_new();
            }
            let now = Instant::now();
            let cold_sweep =
                !stopping && now.duration_since(self.last_cold_sweep) >= COLD_SWEEP_INTERVAL;
            if cold_sweep {
                self.last_cold_sweep = now;
            }
            // One pass: each connection is read (if hot or swept),
            // dispatched, flushed and reaped before the next.
            let mut any_hot = false;
            for idx in 0..self.slab.slots.len() {
                let gen = self.slab.generation(idx);
                let Some(conn) = self.slab.conn_mut(idx) else {
                    continue;
                };
                let hot = conn.hot(now);
                any_hot |= hot;
                if !stopping && (hot || cold_sweep) {
                    worked |= conn.read(max_frame, depth);
                }
                worked |= conn.dispatch(&self.shared, idx, gen);
                worked |= conn.flush();
                if conn.expired(now, stopping, &self.shared.config) {
                    self.slab.remove(idx);
                }
            }
            if stopping && self.slab.live == 0 {
                return;
            }
            if worked {
                self.sleep = SLEEP_MIN;
                continue;
            }
            let cap = if any_hot {
                SLEEP_HOT_CAP
            } else {
                SLEEP_COLD_CAP
            };
            self.shared.completions.wait(self.sleep.min(cap));
            self.sleep = (self.sleep * 2).min(cap);
        }
    }

    /// Moves finished reply bytes into their connections' write
    /// buffers; stale tokens (connection already reaped) are dropped.
    fn drain_completions(&mut self) -> bool {
        let done = self.shared.completions.drain();
        let worked = !done.is_empty();
        for d in done {
            if let Some(conn) = self.slab.get_mut(d.idx, d.gen) {
                conn.in_flight = false;
                // `flush` empties the buffer once it is fully written,
                // so `wpos` never points past unflushed bytes.
                conn.wbuf.extend_from_slice(&d.bytes);
                if d.shutdown {
                    conn.closing = true;
                }
            }
        }
        worked
    }

    fn accept_new(&mut self) -> bool {
        let mut worked = false;
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    worked = true;
                    if self.slab.live >= self.shared.config.max_connections {
                        // Over the cap: one best-effort Busy frame,
                        // then close. Nothing is registered, so a
                        // connection flood cannot exhaust the slab.
                        self.shared.rejected_busy.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.set_write_timeout(Some(self.shared.config.write_timeout));
                        let _ = write_frame(
                            &mut stream,
                            &Response::Busy.encode(),
                            self.shared.config.max_frame,
                        );
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.shared.connections.fetch_add(1, Ordering::Relaxed);
                    self.slab.insert(Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Accept errors can persist (EMFILE under connection
                // pressure); the adaptive sleep bounds the retry rate.
                Err(_) => break,
            }
        }
        worked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_batch_reply, encode_batch, read_frame};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn job_queue_bounds_and_drains() {
        let q = JobQueue::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let mk = |ran: &Arc<AtomicUsize>| -> Job {
            let ran = Arc::clone(ran);
            Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            })
        };
        assert!(q.has_capacity());
        assert!(q.try_push(mk(&ran)).is_ok());
        assert!(q.try_push(mk(&ran)).is_ok());
        assert!(!q.has_capacity());
        assert!(q.try_push(mk(&ran)).is_err());
        q.close();
        // Closed but not drained: both accepted jobs still pop and run.
        while let Some(job) = q.pop() {
            job();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn queue_pop_blocks_until_push() {
        let q = Arc::new(JobQueue::new(1));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop().is_some());
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(Box::new(|| {})).map_err(|_| "full").unwrap();
        assert!(t.join().unwrap());
    }

    #[test]
    fn slab_tokens_do_not_alias_across_reuse() {
        let mut slab = Slab::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let s1 = TcpStream::connect(addr).unwrap();
        let s2 = TcpStream::connect(addr).unwrap();
        let idx = slab.insert(Conn::new(s1));
        let gen = slab.generation(idx);
        assert!(slab.get_mut(idx, gen).is_some());
        slab.remove(idx);
        assert!(slab.get_mut(idx, gen).is_none());
        let idx2 = slab.insert(Conn::new(s2));
        assert_eq!(idx2, idx, "slot is reused");
        assert!(
            slab.get_mut(idx, gen).is_none(),
            "a stale token must not reach the new connection"
        );
        assert!(slab.get_mut(idx2, slab.generation(idx2)).is_some());
        assert_eq!(slab.live, 1);
    }

    fn send_frames(stream: &mut TcpStream, bodies: &[Vec<u8>]) {
        let mut out = Vec::new();
        for body in bodies {
            write_frame(&mut out, body, DEFAULT_MAX_FRAME).unwrap();
        }
        stream.write_all(&out).unwrap();
    }

    fn recv_response(stream: &mut TcpStream) -> Response {
        Response::decode(&read_frame(stream, DEFAULT_MAX_FRAME).unwrap()).unwrap()
    }

    fn raw_connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
    }

    #[test]
    fn full_queue_answers_busy_per_wire_frame_in_order() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // Park the only worker on one job, then fill the queue's single
        // slot with a second.
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (drained_tx, drained_rx) = mpsc::channel();
        let park: Job = Box::new(move || {
            parked_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        let filler: Job = Box::new(move || drained_tx.send(()).unwrap());
        assert!(server.shared.queue.try_push(park).is_ok());
        parked_rx.recv().unwrap();
        assert!(server.shared.queue.try_push(filler).is_ok());

        let mut stream = raw_connect(server.local_addr());
        let batch = vec![Request::Ping, Request::Ping, Request::Ping];
        send_frames(&mut stream, &[Request::Ping.encode(), encode_batch(&batch)]);
        assert_eq!(recv_response(&mut stream), Response::Busy);
        let subs = decode_batch_reply(&read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap()).unwrap();
        assert_eq!(subs.len(), 3);
        for sub in subs {
            assert_eq!(Response::decode(&sub).unwrap(), Response::Busy);
        }
        // One per wire frame, not per op.
        assert_eq!(server.stats().rejected_busy, 2);

        release_tx.send(()).unwrap();
        drained_rx.recv().unwrap();
        send_frames(&mut stream, &[Request::Ping.encode()]);
        assert_eq!(recv_response(&mut stream), Response::Pong);
        let stats = server.shutdown();
        assert_eq!(stats.rejected_busy, 2);
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn connection_over_the_cap_gets_one_busy_then_close() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                max_connections: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let mut first = raw_connect(addr);
        send_frames(&mut first, &[Request::Ping.encode()]);
        assert_eq!(recv_response(&mut first), Response::Pong);

        let mut second = raw_connect(addr);
        assert_eq!(recv_response(&mut second), Response::Busy);
        assert!(matches!(
            read_frame(&mut second, DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        ));
        assert_eq!(server.stats().rejected_busy, 1);

        send_frames(&mut first, &[Request::Ping.encode()]);
        assert_eq!(recv_response(&mut first), Response::Pong);
        let stats = server.shutdown();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.rejected_busy, 1);
    }

    #[test]
    fn idle_connections_time_out_and_active_ones_stay_open() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                read_timeout: Duration::from_millis(200),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let mut idle = raw_connect(addr);
        let mut active = raw_connect(addr);
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(1) {
            send_frames(&mut active, &[Request::Ping.encode()]);
            assert_eq!(recv_response(&mut active), Response::Pong);
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(matches!(
            read_frame(&mut idle, DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        ));
        send_frames(&mut active, &[Request::Ping.encode()]);
        assert_eq!(recv_response(&mut active), Response::Pong);
        server.shutdown();
    }

    #[test]
    fn bind_on_ephemeral_port_and_idle_shutdown() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);
        let stats = server.shutdown();
        assert_eq!(stats.requests, 0);

        // A knob under which nothing could be served is refused before
        // anything binds.
        let refused: [fn(&mut ServerConfig); 5] = [
            |c| c.workers = 0,
            |c| c.queue_depth = 0,
            |c| c.max_connections = 0,
            |c| c.pipeline_depth = 0,
            |c| c.max_frame = MIN_FRAME - 1,
        ];
        for set in refused {
            let mut config = ServerConfig::default();
            set(&mut config);
            let err = Server::bind("127.0.0.1:0", config).err().expect("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }
}
