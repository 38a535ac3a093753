//! The length-prefixed binary wire protocol.
//!
//! # Framing
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! ┌────────────────┬───────────────────────────────────────────┐
//! │ u32 BE length  │ body (`length` bytes)                     │
//! └────────────────┴───────────────────────────────────────────┘
//! body = [ u8 version | u8 opcode | payload… ]
//! ```
//!
//! Two versions share the framing. A **v1** body carries one request
//! (or one response). A **v2** body is a *batch*: `[2 | 0x20 |
//! u16 count | count × (u32 len | v1 request body)]`, answered by
//! exactly one batch reply `[2 | 0xa0 | u16 count | count × (u32 len |
//! v1 response body)]` whose sub-replies preserve request order —
//! per-op failures travel as typed `Error` sub-replies, not connection
//! faults. v1 and v2 frames interleave freely on one connection
//! ([`WireRequest::decode`] dispatches on the version byte), and the
//! batch count is bounded by [`MAX_BATCH`] before any per-request
//! allocation, mirroring the frame-length bound.
//!
//! The length counts the body only and is bounded by the transport's
//! `max_frame` (default [`DEFAULT_MAX_FRAME`]); a declared length above
//! the bound is a typed [`ProtoError::FrameTooLarge`] **before** any
//! allocation, so a hostile peer cannot make the server reserve memory
//! it never sends. Integers are big-endian throughout. Strings are
//! `u8 length + UTF-8 bytes` (session names are short); rankings are
//! `u32 n + n × u32` bucket indices (the element→bucket map of a
//! [`BucketOrder`], decoded with [`BucketOrder::from_keys`], which
//! accepts any key vector). A body that decodes but has bytes left
//! over is [`ProtoError::TrailingBytes`] — lengths are exact, never
//! advisory.
//!
//! # Error posture
//!
//! Decoding **never panics**. Every malformed input — truncated
//! payload, unknown opcode, bad UTF-8, oversized declared length —
//! returns a typed [`ProtoError`]. The server's connection loop treats
//! any such error as fatal *for that connection only*: it fails the
//! connection cleanly and keeps serving others (`tests/proto_fuzz.rs`
//! drives random, truncated and oversized byte streams through both
//! the decoder and a live socket to pin this down).

use bucketrank_aggregate::MedianPolicy;
use bucketrank_core::BucketOrder;
use std::io::{self, Read, Write};

/// Protocol version carried in every single-request frame body.
pub const PROTO_VERSION: u8 = 1;

/// Protocol version of the multi-op batch frames ([`encode_batch`] /
/// [`decode_batch`]). A v2 frame carries N complete v1 request bodies
/// and is answered by exactly one batch-reply frame carrying N v1
/// response bodies in the same order; v1 and v2 frames may be freely
/// interleaved on one connection.
pub const PROTO_VERSION_2: u8 = 2;

/// Default upper bound on a frame body, requests and responses alike.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Upper bound on the number of sub-requests in one batch frame. The
/// count is validated against this bound **before** any per-request
/// allocation, like the frame length itself.
pub const MAX_BATCH: usize = 1024;

/// Upper bound on a session-name length (encoded with a `u8` length).
pub const MAX_NAME: usize = 255;

/// Upper bound on a ranking's domain size accepted off the wire; keeps
/// a single decoded request's allocation proportional to the frame
/// bound.
pub const MAX_ELEMENTS: usize = 1 << 20;

/// Upper bound on the shard count a service may be configured with,
/// and on the per-shard rows a [`Response::Stats`] decoder accepts
/// before allocating.
pub const MAX_SHARDS: usize = 1024;

/// Upper bound on the number of class-constraint rules a
/// [`Request::MinMaxAgg`] may carry; bounded before allocation like
/// every other count on the wire.
pub const MAX_RULES: usize = 4096;

/// A typed wire-protocol failure. Fatal for the connection that
/// produced it, harmless for the server.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtoError {
    /// The body ended before the announced structure was complete.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// A frame declared a body longer than the negotiated bound.
    FrameTooLarge {
        /// The declared body length.
        len: usize,
        /// The enforced bound.
        max: usize,
    },
    /// The version byte is not [`PROTO_VERSION`].
    UnsupportedVersion {
        /// The version byte received.
        found: u8,
    },
    /// The opcode byte names no known message.
    UnknownOpcode {
        /// The opcode received.
        opcode: u8,
    },
    /// The body decoded completely but bytes were left over.
    TrailingBytes {
        /// How many bytes remained.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A session name exceeded [`MAX_NAME`].
    NameTooLong {
        /// The declared length.
        len: usize,
    },
    /// A ranking declared more elements than [`MAX_ELEMENTS`].
    RankingTooLarge {
        /// The declared element count.
        len: usize,
    },
    /// A weight vector declared more entries than [`MAX_ELEMENTS`].
    WeightsTooLarge {
        /// The declared entry count.
        len: usize,
    },
    /// A class-label vector declared more entries than
    /// [`MAX_ELEMENTS`].
    LabelsTooLarge {
        /// The declared entry count.
        len: usize,
    },
    /// A constraint-rule vector declared more entries than
    /// [`MAX_RULES`].
    RulesTooLarge {
        /// The declared entry count.
        len: usize,
    },
    /// A field carried a value outside its enumeration (metric code,
    /// median policy, error code).
    BadValue {
        /// Which field was out of range.
        what: &'static str,
    },
    /// A batch frame declared zero sub-requests.
    EmptyBatch,
    /// A batch frame declared more sub-requests than [`MAX_BATCH`].
    BatchTooLarge {
        /// The declared sub-request count.
        len: usize,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ProtoError::Truncated { needed, have } => {
                write!(f, "truncated body: needed {needed} more bytes, had {have}")
            }
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte bound")
            }
            ProtoError::UnsupportedVersion { found } => {
                write!(f, "unsupported protocol version {found} (expected {PROTO_VERSION})")
            }
            ProtoError::UnknownOpcode { opcode } => write!(f, "unknown opcode {opcode:#04x}"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete body")
            }
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::NameTooLong { len } => {
                write!(f, "session name of {len} bytes exceeds {MAX_NAME}")
            }
            ProtoError::RankingTooLarge { len } => {
                write!(f, "ranking of {len} elements exceeds {MAX_ELEMENTS}")
            }
            ProtoError::WeightsTooLarge { len } => {
                write!(f, "weight vector of {len} entries exceeds {MAX_ELEMENTS}")
            }
            ProtoError::LabelsTooLarge { len } => {
                write!(f, "label vector of {len} entries exceeds {MAX_ELEMENTS}")
            }
            ProtoError::RulesTooLarge { len } => {
                write!(f, "rule vector of {len} entries exceeds {MAX_RULES}")
            }
            ProtoError::BadValue { what } => write!(f, "out-of-range value for {what}"),
            ProtoError::EmptyBatch => write!(f, "batch frame with zero sub-requests"),
            ProtoError::BatchTooLarge { len } => {
                write!(f, "batch of {len} sub-requests exceeds {MAX_BATCH}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// Which pairwise metric a [`Request::PairMetric`] asks for, on the
/// exact `_x2` integer scale of the prepared kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// `2·Kprof` — [`bucketrank_metrics::prepared::kprof_x2_prepared`].
    KprofX2,
    /// `2·Fprof` — [`bucketrank_metrics::prepared::fprof_x2_prepared`].
    FprofX2,
    /// `2·KHaus` — [`bucketrank_metrics::prepared::khaus_x2_prepared`].
    KhausX2,
    /// `2·FHaus` — [`bucketrank_metrics::prepared::fhaus_x2_prepared`].
    FhausX2,
}

impl MetricKind {
    /// All metric kinds, in wire-code order.
    pub const ALL: [MetricKind; 4] = [
        MetricKind::KprofX2,
        MetricKind::FprofX2,
        MetricKind::KhausX2,
        MetricKind::FhausX2,
    ];

    fn code(self) -> u8 {
        match self {
            MetricKind::KprofX2 => 0,
            MetricKind::FprofX2 => 1,
            MetricKind::KhausX2 => 2,
            MetricKind::FhausX2 => 3,
        }
    }

    fn from_code(c: u8) -> Result<Self, ProtoError> {
        match c {
            0 => Ok(MetricKind::KprofX2),
            1 => Ok(MetricKind::FprofX2),
            2 => Ok(MetricKind::KhausX2),
            3 => Ok(MetricKind::FhausX2),
            _ => Err(ProtoError::BadValue { what: "metric kind" }),
        }
    }
}

/// One class-constraint rule on the wire (mirrors
/// [`bucketrank_aggregate::minmax::WindowRule`] without a dependency
/// edge in the encoding layer): among the first `window` positions of
/// the aggregate, candidates labeled `class` must number `min..=max`.
/// Semantic validation (window bounds, class existence, feasibility)
/// happens server-side in the aggregation layer and comes back as a
/// typed [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireRule {
    /// Prefix length the rule applies to.
    pub window: u32,
    /// The class label the rule counts.
    pub class: u32,
    /// Minimum occurrences of `class` within the window.
    pub min: u32,
    /// Maximum occurrences of `class` within the window.
    pub max: u32,
}

/// Median policy on the wire: the one-byte code of
/// [`bucketrank_aggregate::MedianPolicy`], with one `From` conversion
/// each way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WirePolicy {
    /// Lower median.
    Lower,
    /// Upper median.
    Upper,
}

impl WirePolicy {
    pub(crate) fn code(self) -> u8 {
        match self {
            WirePolicy::Lower => 0,
            WirePolicy::Upper => 1,
        }
    }

    pub(crate) fn from_code(c: u8) -> Result<Self, ProtoError> {
        match c {
            0 => Ok(WirePolicy::Lower),
            1 => Ok(WirePolicy::Upper),
            _ => Err(ProtoError::BadValue { what: "median policy" }),
        }
    }
}

impl From<WirePolicy> for MedianPolicy {
    fn from(p: WirePolicy) -> Self {
        match p {
            WirePolicy::Lower => MedianPolicy::Lower,
            WirePolicy::Upper => MedianPolicy::Upper,
        }
    }
}

impl From<MedianPolicy> for WirePolicy {
    fn from(p: MedianPolicy) -> Self {
        match p {
            MedianPolicy::Lower => WirePolicy::Lower,
            MedianPolicy::Upper => WirePolicy::Upper,
        }
    }
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Create a named empty session over an `n`-element domain.
    CreateSession {
        /// Session name (≤ [`MAX_NAME`] bytes).
        name: String,
        /// Domain size.
        n: u32,
        /// Median policy of the maintained median vector.
        policy: WirePolicy,
    },
    /// Drop a session and every voter in it.
    DropSession {
        /// Session name.
        name: String,
    },
    /// Push a voter into a session; answered with the issued id.
    PushVoter {
        /// Session name.
        session: String,
        /// The voter's ranking as bucket indices.
        ranking: BucketOrder,
    },
    /// Remove a live voter.
    RemoveVoter {
        /// Session name.
        session: String,
        /// The raw voter id issued at push.
        voter: u64,
    },
    /// Replace a live voter's ranking in place.
    ReplaceVoter {
        /// Session name.
        session: String,
        /// The raw voter id issued at push.
        voter: u64,
        /// The replacement ranking.
        ranking: BucketOrder,
    },
    /// Read the session's median order (served from a snapshot).
    MedianOrder {
        /// Session name.
        session: String,
    },
    /// Read the session's median top-`k` (served from a snapshot).
    TopK {
        /// Session name.
        session: String,
        /// How many leading elements to keep.
        k: u32,
    },
    /// Kemeny cost (×2) of a candidate against the session's live
    /// profile (served from a snapshot's tally).
    KemenyCost {
        /// Session name.
        session: String,
        /// The candidate ranking.
        candidate: BucketOrder,
    },
    /// A pairwise metric between two **stored** voter rankings,
    /// evaluated with the prepared kernels.
    PairMetric {
        /// Session name.
        session: String,
        /// Which metric.
        metric: MetricKind,
        /// First stored voter.
        voter_a: u64,
        /// Second stored voter.
        voter_b: u64,
    },
    /// Weighted footrule (×2) between two **stored** voter rankings
    /// under a per-position weight vector carried in the frame,
    /// evaluated with the prepared weighted kernel.
    WeightedDist {
        /// Session name.
        session: String,
        /// First stored voter.
        voter_a: u64,
        /// Second stored voter.
        voter_b: u64,
        /// Per-position weights in integer units, `weights[p]` for
        /// 1-based rank `p + 1`; validated server-side by
        /// [`bucketrank_metrics::weighted::Weights::from_units`].
        weights: Vec<u64>,
    },
    /// Top-difference distance between two **stored** voter rankings
    /// under a per-position weight vector carried in the frame.
    TopDiff {
        /// Session name.
        session: String,
        /// First stored voter.
        voter_a: u64,
        /// Second stored voter.
        voter_b: u64,
        /// Per-position weights, as on
        /// [`WeightedDist`](Request::WeightedDist).
        weights: Vec<u64>,
    },
    /// Minmax aggregation over the session's live voters: the full
    /// ranking minimizing the **maximum** per-voter `Kprof ×2`
    /// distance, optionally under class constraints (candidate labels
    /// plus prefix-window rules). Runs the deterministic heuristic
    /// pipeline (`bucketrank_aggregate::minmax::minmax_aggregate` at
    /// its fixed wire seed); answered with [`Response::RankingCost`].
    MinMaxAgg {
        /// Session name.
        session: String,
        /// Per-candidate class labels (`labels[e]` for element `e`);
        /// empty means unconstrained, otherwise the length must equal
        /// the session's domain size.
        labels: Vec<u32>,
        /// Prefix-window rules over the labels.
        rules: Vec<WireRule>,
    },
    /// Read the per-shard durability and occupancy counters; answered
    /// with [`Response::Stats`].
    Stats,
    /// Ask the server to shut down gracefully (drain in-flight
    /// requests, then stop). Answered with [`Response::ShutdownAck`]
    /// before the drain begins.
    Shutdown,
}

/// One shard's counters, as carried in [`Response::Stats`]. All values
/// are monotonic except the two occupancy gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Sessions resident in memory right now (gauge).
    pub sessions: u64,
    /// Sessions evicted to disk, faultable on next touch (gauge).
    pub evicted: u64,
    /// WAL records appended since startup.
    pub wal_records: u64,
    /// WAL bytes appended since startup.
    pub wal_bytes: u64,
    /// Checkpoints written (compaction, eviction and recovery).
    pub checkpoints: u64,
    /// Sessions evicted by the LRU cap.
    pub evictions: u64,
    /// Sessions recovered — replayed at startup or faulted back in.
    pub recoveries: u64,
}

/// The server's typed failure codes, carried in [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// No session has the requested name.
    UnknownSession,
    /// A session with the requested name already exists.
    SessionExists,
    /// The voter id is not live in the session.
    UnknownVoter,
    /// A ranking's domain size differs from the session's.
    DomainMismatch,
    /// `k` exceeds the domain size.
    InvalidK,
    /// The session is at its voter-capacity limit.
    TooManyVoters,
    /// A read was issued against a session with no live voters.
    NoVoters,
    /// The request was structurally valid but semantically rejected
    /// (bad name, domain bound, server at session capacity).
    BadRequest,
}

impl ErrorCode {
    fn code(self) -> u8 {
        match self {
            ErrorCode::UnknownSession => 1,
            ErrorCode::SessionExists => 2,
            ErrorCode::UnknownVoter => 3,
            ErrorCode::DomainMismatch => 4,
            ErrorCode::InvalidK => 5,
            ErrorCode::TooManyVoters => 6,
            ErrorCode::NoVoters => 7,
            ErrorCode::BadRequest => 8,
        }
    }

    fn from_code(c: u8) -> Result<Self, ProtoError> {
        Ok(match c {
            1 => ErrorCode::UnknownSession,
            2 => ErrorCode::SessionExists,
            3 => ErrorCode::UnknownVoter,
            4 => ErrorCode::DomainMismatch,
            5 => ErrorCode::InvalidK,
            6 => ErrorCode::TooManyVoters,
            7 => ErrorCode::NoVoters,
            8 => ErrorCode::BadRequest,
            _ => return Err(ProtoError::BadValue { what: "error code" }),
        })
    }
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// The session was created.
    SessionCreated,
    /// The session was dropped.
    SessionDropped,
    /// The voter was pushed; carries the issued raw id.
    VoterPushed {
        /// The issued raw voter id.
        voter: u64,
    },
    /// The voter was removed.
    VoterRemoved,
    /// The voter was replaced.
    VoterReplaced,
    /// A ranking result (median order, top-`k`).
    Ranking {
        /// The ranking as bucket indices.
        order: BucketOrder,
    },
    /// An exact integer cost on the `_x2` scale.
    CostX2 {
        /// The cost value.
        value: u64,
    },
    /// A ranking plus its objective value, as answered to
    /// [`Request::MinMaxAgg`].
    RankingCost {
        /// The aggregated ranking.
        order: BucketOrder,
        /// Its objective value (maximum per-voter `Kprof ×2`).
        cost_x2: u64,
    },
    /// The request was rejected for backpressure: the job queue or the
    /// connection table is full. Retry later.
    Busy,
    /// A typed failure.
    Error {
        /// The failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Per-shard counters, one row per shard in shard order.
    Stats {
        /// One row per shard.
        shards: Vec<ShardStats>,
    },
    /// Graceful-shutdown acknowledgement.
    ShutdownAck,
}

// ---------------------------------------------------------------------
// Opcodes.

const OP_PING: u8 = 0x01;
const OP_CREATE: u8 = 0x02;
const OP_DROP: u8 = 0x03;
const OP_PUSH: u8 = 0x04;
const OP_REMOVE: u8 = 0x05;
const OP_REPLACE: u8 = 0x06;
const OP_MEDIAN: u8 = 0x07;
const OP_TOPK: u8 = 0x08;
const OP_KEMENY: u8 = 0x09;
const OP_PAIR: u8 = 0x0a;
const OP_SHUTDOWN: u8 = 0x0b;
const OP_STATS: u8 = 0x0c;
const OP_WEIGHTED: u8 = 0x0d;
const OP_TOPDIFF: u8 = 0x0e;
const OP_MINMAX: u8 = 0x0f;

// v2 opcodes: one request kind (a batch of v1 sub-requests) and its
// one reply kind (the matching sub-replies, in order).
const OP_BATCH: u8 = 0x20;
const OP_BATCH_REPLY: u8 = 0xa0;

const OP_PONG: u8 = 0x81;
const OP_CREATED: u8 = 0x82;
const OP_DROPPED: u8 = 0x83;
const OP_PUSHED: u8 = 0x84;
const OP_REMOVED: u8 = 0x85;
const OP_REPLACED: u8 = 0x86;
const OP_RANKING: u8 = 0x87;
const OP_COST: u8 = 0x88;
const OP_BUSY: u8 = 0x89;
const OP_ERROR: u8 = 0x8a;
const OP_SHUTDOWN_ACK: u8 = 0x8b;
const OP_STATS_REPLY: u8 = 0x8c;
const OP_RANKING_COST: u8 = 0x8d;

// ---------------------------------------------------------------------
// Primitive encoding.

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

pub(crate) fn put_name(out: &mut Vec<u8>, s: &str) {
    // Encoding is infallible, so a name beyond MAX_NAME is truncated at
    // a char boundary: the length prefix always matches the bytes
    // written and the frame stays well-formed. Callers that want a
    // typed rejection instead check `Request::validate` first (the
    // in-crate `Client` does).
    let mut len = s.len().min(MAX_NAME);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    out.push(len as u8);
    out.extend_from_slice(&s.as_bytes()[..len]);
}

pub(crate) fn put_text(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    put_u16(out, len as u16);
    out.extend_from_slice(&bytes[..len]);
}

pub(crate) fn put_weights(out: &mut Vec<u8>, units: &[u64]) {
    put_u32(out, units.len() as u32);
    for &w in units {
        put_u64(out, w);
    }
}

pub(crate) fn put_labels(out: &mut Vec<u8>, labels: &[u32]) {
    put_u32(out, labels.len() as u32);
    for &l in labels {
        put_u32(out, l);
    }
}

pub(crate) fn put_rules(out: &mut Vec<u8>, rules: &[WireRule]) {
    put_u32(out, rules.len() as u32);
    for r in rules {
        put_u32(out, r.window);
        put_u32(out, r.class);
        put_u32(out, r.min);
        put_u32(out, r.max);
    }
}

pub(crate) fn put_ranking(out: &mut Vec<u8>, r: &BucketOrder) {
    put_u32(out, r.len() as u32);
    for &b in r.bucket_indices() {
        put_u32(out, b);
    }
}

/// A bounds-checked read cursor over one frame body.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let have = self.buf.len() - self.at;
        if have < n {
            return Err(ProtoError::Truncated { needed: n, have });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn name(&mut self) -> Result<String, ProtoError> {
        let len = self.u8()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| ProtoError::BadUtf8)
    }

    pub(crate) fn text(&mut self) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| ProtoError::BadUtf8)
    }

    pub(crate) fn weights(&mut self) -> Result<Vec<u64>, ProtoError> {
        let n = self.u32()? as usize;
        if n > MAX_ELEMENTS {
            return Err(ProtoError::WeightsTooLarge { len: n });
        }
        // Bound the reservation by what the body can actually hold.
        let have = (self.buf.len() - self.at) / 8;
        let mut units = Vec::with_capacity(n.min(have));
        for _ in 0..n {
            units.push(self.u64()?);
        }
        Ok(units)
    }

    pub(crate) fn labels(&mut self) -> Result<Vec<u32>, ProtoError> {
        let n = self.u32()? as usize;
        if n > MAX_ELEMENTS {
            return Err(ProtoError::LabelsTooLarge { len: n });
        }
        // Bound the reservation by what the body can actually hold.
        let have = (self.buf.len() - self.at) / 4;
        let mut labels = Vec::with_capacity(n.min(have));
        for _ in 0..n {
            labels.push(self.u32()?);
        }
        Ok(labels)
    }

    pub(crate) fn rules(&mut self) -> Result<Vec<WireRule>, ProtoError> {
        let n = self.u32()? as usize;
        if n > MAX_RULES {
            return Err(ProtoError::RulesTooLarge { len: n });
        }
        // Bound the reservation by what the body can actually hold:
        // each rule is 4 × 4 bytes.
        let have = (self.buf.len() - self.at) / 16;
        let mut rules = Vec::with_capacity(n.min(have));
        for _ in 0..n {
            rules.push(WireRule {
                window: self.u32()?,
                class: self.u32()?,
                min: self.u32()?,
                max: self.u32()?,
            });
        }
        Ok(rules)
    }

    pub(crate) fn ranking(&mut self) -> Result<BucketOrder, ProtoError> {
        let n = self.u32()? as usize;
        if n > MAX_ELEMENTS {
            return Err(ProtoError::RankingTooLarge { len: n });
        }
        // Bound the reservation by what the body can actually hold.
        let have = (self.buf.len() - self.at) / 4;
        let mut keys = Vec::with_capacity(n.min(have));
        for _ in 0..n {
            keys.push(self.u32()?);
        }
        Ok(BucketOrder::from_u32_keys(&keys))
    }

    pub(crate) fn finish(self) -> Result<(), ProtoError> {
        let extra = self.buf.len() - self.at;
        if extra != 0 {
            return Err(ProtoError::TrailingBytes { extra });
        }
        Ok(())
    }
}

fn header(opcode: u8) -> Vec<u8> {
    vec![PROTO_VERSION, opcode]
}

fn check_header(c: &mut Cursor<'_>) -> Result<u8, ProtoError> {
    let version = c.u8()?;
    if version != PROTO_VERSION {
        return Err(ProtoError::UnsupportedVersion { found: version });
    }
    c.u8()
}

impl Request {
    /// Checks the bounds that [`encode`](Request::encode) cannot carry
    /// exactly — a session name beyond [`MAX_NAME`] (which `encode`
    /// would truncate) or a ranking beyond [`MAX_ELEMENTS`] (which the
    /// server would reject at decode). The in-crate
    /// [`Client`](crate::Client) runs this before every send so an
    /// over-long name fails with a typed error instead of silently
    /// naming a different session.
    ///
    /// # Errors
    /// [`ProtoError::NameTooLong`] / [`ProtoError::RankingTooLarge`].
    pub fn validate(&self) -> Result<(), ProtoError> {
        let (name, ranking) = match self {
            Request::Ping | Request::Stats | Request::Shutdown => return Ok(()),
            Request::CreateSession { name, .. } | Request::DropSession { name } => (name, None),
            Request::PushVoter { session, ranking }
            | Request::ReplaceVoter { session, ranking, .. } => (session, Some(ranking)),
            Request::KemenyCost { session, candidate } => (session, Some(candidate)),
            Request::RemoveVoter { session, .. }
            | Request::MedianOrder { session }
            | Request::TopK { session, .. }
            | Request::PairMetric { session, .. } => (session, None),
            Request::WeightedDist { session, weights, .. }
            | Request::TopDiff { session, weights, .. } => {
                if weights.len() > MAX_ELEMENTS {
                    return Err(ProtoError::WeightsTooLarge { len: weights.len() });
                }
                (session, None)
            }
            Request::MinMaxAgg {
                session,
                labels,
                rules,
            } => {
                if labels.len() > MAX_ELEMENTS {
                    return Err(ProtoError::LabelsTooLarge { len: labels.len() });
                }
                if rules.len() > MAX_RULES {
                    return Err(ProtoError::RulesTooLarge { len: rules.len() });
                }
                (session, None)
            }
        };
        if name.len() > MAX_NAME {
            return Err(ProtoError::NameTooLong { len: name.len() });
        }
        if let Some(r) = ranking {
            if r.len() > MAX_ELEMENTS {
                return Err(ProtoError::RankingTooLarge { len: r.len() });
            }
        }
        Ok(())
    }

    /// Encodes the request into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Ping => header(OP_PING),
            Request::CreateSession { name, n, policy } => {
                let mut out = header(OP_CREATE);
                put_name(&mut out, name);
                put_u32(&mut out, *n);
                out.push(policy.code());
                out
            }
            Request::DropSession { name } => {
                let mut out = header(OP_DROP);
                put_name(&mut out, name);
                out
            }
            Request::PushVoter { session, ranking } => {
                let mut out = header(OP_PUSH);
                put_name(&mut out, session);
                put_ranking(&mut out, ranking);
                out
            }
            Request::RemoveVoter { session, voter } => {
                let mut out = header(OP_REMOVE);
                put_name(&mut out, session);
                put_u64(&mut out, *voter);
                out
            }
            Request::ReplaceVoter {
                session,
                voter,
                ranking,
            } => {
                let mut out = header(OP_REPLACE);
                put_name(&mut out, session);
                put_u64(&mut out, *voter);
                put_ranking(&mut out, ranking);
                out
            }
            Request::MedianOrder { session } => {
                let mut out = header(OP_MEDIAN);
                put_name(&mut out, session);
                out
            }
            Request::TopK { session, k } => {
                let mut out = header(OP_TOPK);
                put_name(&mut out, session);
                put_u32(&mut out, *k);
                out
            }
            Request::KemenyCost { session, candidate } => {
                let mut out = header(OP_KEMENY);
                put_name(&mut out, session);
                put_ranking(&mut out, candidate);
                out
            }
            Request::PairMetric {
                session,
                metric,
                voter_a,
                voter_b,
            } => {
                let mut out = header(OP_PAIR);
                put_name(&mut out, session);
                out.push(metric.code());
                put_u64(&mut out, *voter_a);
                put_u64(&mut out, *voter_b);
                out
            }
            Request::WeightedDist {
                session,
                voter_a,
                voter_b,
                weights,
            } => {
                let mut out = header(OP_WEIGHTED);
                put_name(&mut out, session);
                put_u64(&mut out, *voter_a);
                put_u64(&mut out, *voter_b);
                put_weights(&mut out, weights);
                out
            }
            Request::TopDiff {
                session,
                voter_a,
                voter_b,
                weights,
            } => {
                let mut out = header(OP_TOPDIFF);
                put_name(&mut out, session);
                put_u64(&mut out, *voter_a);
                put_u64(&mut out, *voter_b);
                put_weights(&mut out, weights);
                out
            }
            Request::MinMaxAgg {
                session,
                labels,
                rules,
            } => {
                let mut out = header(OP_MINMAX);
                put_name(&mut out, session);
                put_labels(&mut out, labels);
                put_rules(&mut out, rules);
                out
            }
            Request::Stats => header(OP_STATS),
            Request::Shutdown => header(OP_SHUTDOWN),
        }
    }

    /// Decodes a frame body into a request. Never panics.
    ///
    /// # Errors
    /// A typed [`ProtoError`] on any malformed input.
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        let mut c = Cursor::new(body);
        let opcode = check_header(&mut c)?;
        let req = match opcode {
            OP_PING => Request::Ping,
            OP_CREATE => {
                let name = c.name()?;
                let n = c.u32()?;
                let policy = WirePolicy::from_code(c.u8()?)?;
                Request::CreateSession { name, n, policy }
            }
            OP_DROP => Request::DropSession { name: c.name()? },
            OP_PUSH => {
                let session = c.name()?;
                let ranking = c.ranking()?;
                Request::PushVoter { session, ranking }
            }
            OP_REMOVE => {
                let session = c.name()?;
                let voter = c.u64()?;
                Request::RemoveVoter { session, voter }
            }
            OP_REPLACE => {
                let session = c.name()?;
                let voter = c.u64()?;
                let ranking = c.ranking()?;
                Request::ReplaceVoter {
                    session,
                    voter,
                    ranking,
                }
            }
            OP_MEDIAN => Request::MedianOrder { session: c.name()? },
            OP_TOPK => {
                let session = c.name()?;
                let k = c.u32()?;
                Request::TopK { session, k }
            }
            OP_KEMENY => {
                let session = c.name()?;
                let candidate = c.ranking()?;
                Request::KemenyCost { session, candidate }
            }
            OP_PAIR => {
                let session = c.name()?;
                let metric = MetricKind::from_code(c.u8()?)?;
                let voter_a = c.u64()?;
                let voter_b = c.u64()?;
                Request::PairMetric {
                    session,
                    metric,
                    voter_a,
                    voter_b,
                }
            }
            OP_WEIGHTED => {
                let session = c.name()?;
                let voter_a = c.u64()?;
                let voter_b = c.u64()?;
                let weights = c.weights()?;
                Request::WeightedDist {
                    session,
                    voter_a,
                    voter_b,
                    weights,
                }
            }
            OP_TOPDIFF => {
                let session = c.name()?;
                let voter_a = c.u64()?;
                let voter_b = c.u64()?;
                let weights = c.weights()?;
                Request::TopDiff {
                    session,
                    voter_a,
                    voter_b,
                    weights,
                }
            }
            OP_MINMAX => {
                let session = c.name()?;
                let labels = c.labels()?;
                let rules = c.rules()?;
                Request::MinMaxAgg {
                    session,
                    labels,
                    rules,
                }
            }
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtoError::UnknownOpcode { opcode: other }),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Pong => header(OP_PONG),
            Response::SessionCreated => header(OP_CREATED),
            Response::SessionDropped => header(OP_DROPPED),
            Response::VoterPushed { voter } => {
                let mut out = header(OP_PUSHED);
                put_u64(&mut out, *voter);
                out
            }
            Response::VoterRemoved => header(OP_REMOVED),
            Response::VoterReplaced => header(OP_REPLACED),
            Response::Ranking { order } => {
                let mut out = header(OP_RANKING);
                put_ranking(&mut out, order);
                out
            }
            Response::CostX2 { value } => {
                let mut out = header(OP_COST);
                put_u64(&mut out, *value);
                out
            }
            Response::RankingCost { order, cost_x2 } => {
                let mut out = header(OP_RANKING_COST);
                put_ranking(&mut out, order);
                put_u64(&mut out, *cost_x2);
                out
            }
            Response::Busy => header(OP_BUSY),
            Response::Error { code, message } => {
                let mut out = header(OP_ERROR);
                out.push(code.code());
                put_text(&mut out, message);
                out
            }
            Response::Stats { shards } => {
                // Encoding is infallible, so a row vector beyond
                // MAX_SHARDS is truncated to the bound (a live service
                // can never produce one — ServiceConfig validates the
                // shard count at construction).
                let shards = &shards[..shards.len().min(MAX_SHARDS)];
                let mut out = header(OP_STATS_REPLY);
                put_u16(&mut out, shards.len() as u16);
                for s in shards {
                    put_u64(&mut out, s.sessions);
                    put_u64(&mut out, s.evicted);
                    put_u64(&mut out, s.wal_records);
                    put_u64(&mut out, s.wal_bytes);
                    put_u64(&mut out, s.checkpoints);
                    put_u64(&mut out, s.evictions);
                    put_u64(&mut out, s.recoveries);
                }
                out
            }
            Response::ShutdownAck => header(OP_SHUTDOWN_ACK),
        }
    }

    /// Decodes a frame body into a response. Never panics.
    ///
    /// # Errors
    /// A typed [`ProtoError`] on any malformed input.
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        let mut c = Cursor::new(body);
        let opcode = check_header(&mut c)?;
        let resp = match opcode {
            OP_PONG => Response::Pong,
            OP_CREATED => Response::SessionCreated,
            OP_DROPPED => Response::SessionDropped,
            OP_PUSHED => Response::VoterPushed { voter: c.u64()? },
            OP_REMOVED => Response::VoterRemoved,
            OP_REPLACED => Response::VoterReplaced,
            OP_RANKING => Response::Ranking { order: c.ranking()? },
            OP_COST => Response::CostX2 { value: c.u64()? },
            OP_RANKING_COST => {
                let order = c.ranking()?;
                let cost_x2 = c.u64()?;
                Response::RankingCost { order, cost_x2 }
            }
            OP_BUSY => Response::Busy,
            OP_ERROR => {
                let code = ErrorCode::from_code(c.u8()?)?;
                let message = c.text()?;
                Response::Error { code, message }
            }
            OP_STATS_REPLY => {
                let count = c.u16()? as usize;
                if count > MAX_SHARDS {
                    return Err(ProtoError::BadValue { what: "shard count" });
                }
                // Bound the reservation by what the body can hold: each
                // row is 7 × 8 bytes.
                let have = (body.len() - 2) / 56;
                let mut shards = Vec::with_capacity(count.min(have));
                for _ in 0..count {
                    shards.push(ShardStats {
                        sessions: c.u64()?,
                        evicted: c.u64()?,
                        wal_records: c.u64()?,
                        wal_bytes: c.u64()?,
                        checkpoints: c.u64()?,
                        evictions: c.u64()?,
                        recoveries: c.u64()?,
                    });
                }
                Response::Stats { shards }
            }
            OP_SHUTDOWN_ACK => Response::ShutdownAck,
            other => return Err(ProtoError::UnknownOpcode { opcode: other }),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Protocol v2: batch frames.

/// Encodes up to [`MAX_BATCH`] requests into one v2 batch-frame body:
/// `[2 | 0x20 | u16 count | count × (u32 len | v1 request body)]`.
///
/// Encoding is infallible, so a slice beyond [`MAX_BATCH`] is truncated
/// to the bound (the frame stays well-formed); callers that want a
/// typed rejection instead check [`validate_batch`] first (the in-crate
/// [`Client`](crate::Client) does).
pub fn encode_batch(reqs: &[Request]) -> Vec<u8> {
    let reqs = &reqs[..reqs.len().min(MAX_BATCH)];
    let mut out = vec![PROTO_VERSION_2, OP_BATCH];
    put_u16(&mut out, reqs.len() as u16);
    for req in reqs {
        let sub = req.encode();
        put_u32(&mut out, sub.len() as u32);
        out.extend_from_slice(&sub);
    }
    out
}

/// The bounds [`encode_batch`] cannot carry exactly: a non-empty batch
/// within [`MAX_BATCH`], every sub-request passing
/// [`Request::validate`].
///
/// # Errors
/// [`ProtoError::EmptyBatch`] / [`ProtoError::BatchTooLarge`] /
/// whatever a sub-request's `validate` reports.
pub fn validate_batch(reqs: &[Request]) -> Result<(), ProtoError> {
    if reqs.is_empty() {
        return Err(ProtoError::EmptyBatch);
    }
    if reqs.len() > MAX_BATCH {
        return Err(ProtoError::BatchTooLarge { len: reqs.len() });
    }
    reqs.iter().try_for_each(Request::validate)
}

/// Decodes a v2 batch-frame body into its sub-requests. Total, like
/// every decoder here: the count is bounded **before** any
/// per-request allocation, each sub-request must be a complete v1
/// request body (a nested v2 frame is a typed
/// [`ProtoError::UnsupportedVersion`]), and the outer body must be
/// exact to the byte.
///
/// # Errors
/// A typed [`ProtoError`] on any malformed input.
pub fn decode_batch(body: &[u8]) -> Result<Vec<Request>, ProtoError> {
    let mut c = Cursor::new(body);
    let version = c.u8()?;
    if version != PROTO_VERSION_2 {
        return Err(ProtoError::UnsupportedVersion { found: version });
    }
    let opcode = c.u8()?;
    if opcode != OP_BATCH {
        return Err(ProtoError::UnknownOpcode { opcode });
    }
    let count = c.u16()? as usize;
    if count == 0 {
        return Err(ProtoError::EmptyBatch);
    }
    if count > MAX_BATCH {
        return Err(ProtoError::BatchTooLarge { len: count });
    }
    // Bound the reservation by what the body can actually hold: each
    // sub-request costs at least 4 length bytes + a 2-byte header.
    let have = (body.len() - 4) / 6;
    let mut reqs = Vec::with_capacity(count.min(have));
    for _ in 0..count {
        let len = c.u32()? as usize;
        let sub = c.take(len)?;
        reqs.push(Request::decode(sub)?);
    }
    c.finish()?;
    Ok(reqs)
}

/// Encodes already-encoded v1 response bodies into one v2 batch-reply
/// body: `[2 | 0xa0 | u16 count | count × (u32 len | v1 response
/// body)]`. The server's workers call this with the per-op replies
/// they just produced, in request order.
pub fn encode_batch_reply_bodies(bodies: &[Vec<u8>]) -> Vec<u8> {
    let bodies = &bodies[..bodies.len().min(MAX_BATCH)];
    let total: usize = 4 + bodies.iter().map(|b| 4 + b.len()).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.push(PROTO_VERSION_2);
    out.push(OP_BATCH_REPLY);
    put_u16(&mut out, bodies.len() as u16);
    for body in bodies {
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(body);
    }
    out
}

/// [`encode_batch_reply_bodies`] over typed responses.
pub fn encode_batch_reply(resps: &[Response]) -> Vec<u8> {
    let bodies: Vec<Vec<u8>> = resps.iter().map(Response::encode).collect();
    encode_batch_reply_bodies(&bodies)
}

/// Decodes a v2 batch-reply body into the **raw sub-reply bodies**, in
/// order. Raw so the differential suites can compare the exact bytes;
/// decode each with [`Response::decode`] for the typed view.
///
/// # Errors
/// A typed [`ProtoError`] on any malformed input.
pub fn decode_batch_reply(body: &[u8]) -> Result<Vec<Vec<u8>>, ProtoError> {
    let mut c = Cursor::new(body);
    let version = c.u8()?;
    if version != PROTO_VERSION_2 {
        return Err(ProtoError::UnsupportedVersion { found: version });
    }
    let opcode = c.u8()?;
    if opcode != OP_BATCH_REPLY {
        return Err(ProtoError::UnknownOpcode { opcode });
    }
    let count = c.u16()? as usize;
    if count == 0 {
        return Err(ProtoError::EmptyBatch);
    }
    if count > MAX_BATCH {
        return Err(ProtoError::BatchTooLarge { len: count });
    }
    let have = (body.len() - 4) / 6;
    let mut bodies = Vec::with_capacity(count.min(have));
    for _ in 0..count {
        let len = c.u32()? as usize;
        bodies.push(c.take(len)?.to_vec());
    }
    c.finish()?;
    Ok(bodies)
}

/// One decoded request frame of either protocol version — what the
/// server's connection loop dispatches on after reading a frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// A v1 frame: one request, answered by one response frame.
    Single(Request),
    /// A v2 batch frame: N sub-requests, answered by one batch-reply
    /// frame carrying N sub-replies in the same order.
    Batch(Vec<Request>),
}

impl WireRequest {
    /// Version-dispatched decode of one frame body. Never panics.
    ///
    /// # Errors
    /// A typed [`ProtoError`] on any malformed input of either version,
    /// or [`ProtoError::UnsupportedVersion`] for versions this build
    /// does not speak.
    pub fn decode(body: &[u8]) -> Result<WireRequest, ProtoError> {
        match body.first() {
            None => Err(ProtoError::Truncated { needed: 2, have: 0 }),
            Some(&PROTO_VERSION) => Request::decode(body).map(WireRequest::Single),
            Some(&PROTO_VERSION_2) => decode_batch(body).map(WireRequest::Batch),
            Some(&found) => Err(ProtoError::UnsupportedVersion { found }),
        }
    }

    /// Number of operations this frame carries.
    pub fn ops(&self) -> usize {
        match self {
            WireRequest::Single(_) => 1,
            WireRequest::Batch(reqs) => reqs.len(),
        }
    }
}

// ---------------------------------------------------------------------
// Framed transport.

/// Why reading a frame off a stream stopped.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// A transport failure (includes read timeouts).
    Io(io::Error),
    /// The frame header violated the protocol (declared length beyond
    /// the bound).
    Proto(ProtoError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "peer closed the connection"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// A resumable frame reader: bytes already consumed from the current
/// frame survive a transient read failure (`WouldBlock` / `TimedOut`
/// from a socket read timeout), so a frame that spans several poll
/// intervals is reassembled instead of silently desyncing the stream.
///
/// Call [`read_frame`](FrameReader::read_frame) repeatedly with the
/// same reader; each successful call yields one body and resets the
/// state for the next frame. [`mid_frame`](FrameReader::mid_frame)
/// tells a caller whether a transient error interrupted a frame in
/// progress (not idle) or landed between frames (idle).
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; 4],
    header_got: usize,
    body: Option<Vec<u8>>,
    body_got: usize,
}

impl FrameReader {
    /// A reader positioned between frames.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// True when part of the current frame (header or body) has been
    /// consumed but the frame is not yet complete.
    pub fn mid_frame(&self) -> bool {
        self.header_got > 0 || self.body.is_some()
    }

    /// Reads (or resumes reading) one length-prefixed frame body. A
    /// declared length above `max_frame` is rejected **before**
    /// allocating; EOF exactly between frames is the clean
    /// [`FrameError::Closed`], EOF mid-frame is an
    /// [`io::ErrorKind::UnexpectedEof`] transport error. On a
    /// transient [`FrameError::Io`] (e.g. a read timeout) the partial
    /// frame stays buffered and the next call picks up where this one
    /// stopped.
    ///
    /// # Errors
    /// [`FrameError`] as described above.
    pub fn read_frame(&mut self, r: &mut impl Read, max_frame: usize) -> Result<Vec<u8>, FrameError> {
        while self.body.is_none() {
            match r.read(&mut self.header[self.header_got..]) {
                Ok(0) => {
                    if self.header_got == 0 {
                        return Err(FrameError::Closed);
                    }
                    return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into()));
                }
                Ok(k) => {
                    self.header_got += k;
                    if self.header_got == 4 {
                        let len = u32::from_be_bytes(self.header) as usize;
                        if len > max_frame {
                            return Err(FrameError::Proto(ProtoError::FrameTooLarge {
                                len,
                                max: max_frame,
                            }));
                        }
                        self.body = Some(vec![0u8; len]);
                        self.body_got = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        loop {
            let body = self.body.as_mut().expect("body allocated above");
            if self.body_got == body.len() {
                break;
            }
            match r.read(&mut body[self.body_got..]) {
                Ok(0) => return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into())),
                Ok(k) => self.body_got += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        self.header_got = 0;
        self.body_got = 0;
        Ok(self.body.take().expect("body allocated above"))
    }
}

/// One-shot [`FrameReader::read_frame`] for blocking streams where a
/// transient failure mid-frame is fatal anyway (the client, tests).
/// Transports that poll with a read timeout must hold a [`FrameReader`]
/// across calls instead, or a timeout mid-frame loses the bytes already
/// consumed.
///
/// # Errors
/// [`FrameError`] as on [`FrameReader::read_frame`].
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Vec<u8>, FrameError> {
    FrameReader::new().read_frame(r, max_frame)
}

/// Writes one length-prefixed frame.
///
/// # Errors
/// The underlying [`io::Error`]; [`io::ErrorKind::InvalidInput`] if the
/// body exceeds `max_frame` (the writer refuses to emit a frame its
/// peer must reject).
pub fn write_frame(w: &mut impl Write, body: &[u8], max_frame: usize) -> io::Result<()> {
    if body.len() > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds the {max_frame}-byte bound", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        let r = BucketOrder::from_keys(&[1, 2, 2, 3]);
        vec![
            Request::Ping,
            Request::CreateSession {
                name: "s".into(),
                n: 4,
                policy: WirePolicy::Lower,
            },
            Request::CreateSession {
                name: "t".into(),
                n: 9,
                policy: WirePolicy::Upper,
            },
            Request::DropSession { name: "s".into() },
            Request::PushVoter {
                session: "s".into(),
                ranking: r.clone(),
            },
            Request::RemoveVoter {
                session: "s".into(),
                voter: 7,
            },
            Request::ReplaceVoter {
                session: "s".into(),
                voter: 7,
                ranking: r.clone(),
            },
            Request::MedianOrder { session: "s".into() },
            Request::TopK {
                session: "s".into(),
                k: 2,
            },
            Request::KemenyCost {
                session: "s".into(),
                candidate: r.clone(),
            },
            Request::PairMetric {
                session: "s".into(),
                metric: MetricKind::FhausX2,
                voter_a: 0,
                voter_b: 1,
            },
            Request::WeightedDist {
                session: "s".into(),
                voter_a: 0,
                voter_b: 1,
                weights: vec![4, 3, 2, 1],
            },
            Request::TopDiff {
                session: "s".into(),
                voter_a: 2,
                voter_b: 5,
                weights: vec![1, 1, 0, 0],
            },
            Request::MinMaxAgg {
                session: "s".into(),
                labels: vec![],
                rules: vec![],
            },
            Request::MinMaxAgg {
                session: "s".into(),
                labels: vec![0, 1, 1, 0],
                rules: vec![
                    WireRule {
                        window: 2,
                        class: 0,
                        min: 1,
                        max: 2,
                    },
                    WireRule {
                        window: 4,
                        class: 1,
                        min: 0,
                        max: 2,
                    },
                ],
            },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::SessionCreated,
            Response::SessionDropped,
            Response::VoterPushed { voter: u64::MAX },
            Response::VoterRemoved,
            Response::VoterReplaced,
            Response::Ranking {
                order: BucketOrder::from_keys(&[3, 1, 1]),
            },
            Response::CostX2 { value: 12345 },
            Response::RankingCost {
                order: BucketOrder::from_keys(&[2, 1, 3]),
                cost_x2: 42,
            },
            Response::Busy,
            Response::Error {
                code: ErrorCode::UnknownVoter,
                message: "voter#9 is not live".into(),
            },
            Response::Stats { shards: vec![] },
            Response::Stats {
                shards: vec![
                    ShardStats {
                        sessions: 3,
                        evicted: 1,
                        wal_records: 40,
                        wal_bytes: 2048,
                        checkpoints: 2,
                        evictions: 1,
                        recoveries: 4,
                    },
                    ShardStats::default(),
                ],
            },
            Response::ShutdownAck,
        ]
    }

    #[test]
    fn request_roundtrip() {
        for req in sample_requests() {
            let body = req.encode();
            assert_eq!(Request::decode(&body).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in sample_responses() {
            let body = resp.encode();
            assert_eq!(Response::decode(&body).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn every_strict_prefix_is_truncated() {
        for req in sample_requests() {
            let body = req.encode();
            for cut in 0..body.len() {
                assert!(
                    Request::decode(&body[..cut]).is_err(),
                    "{req:?} prefix {cut} decoded"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        for req in sample_requests() {
            let mut body = req.encode();
            body.push(0);
            assert_eq!(
                Request::decode(&body),
                Err(ProtoError::TrailingBytes { extra: 1 }),
                "{req:?}"
            );
        }
    }

    #[test]
    fn bad_version_and_opcode() {
        assert_eq!(
            Request::decode(&[9, OP_PING]),
            Err(ProtoError::UnsupportedVersion { found: 9 })
        );
        assert_eq!(
            Request::decode(&[PROTO_VERSION, 0x7f]),
            Err(ProtoError::UnknownOpcode { opcode: 0x7f })
        );
        assert_eq!(
            Response::decode(&[PROTO_VERSION, 0x02]),
            Err(ProtoError::UnknownOpcode { opcode: 0x02 })
        );
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn bad_values_are_typed() {
        // Policy code 7.
        let mut body = header(OP_CREATE);
        put_name(&mut body, "s");
        put_u32(&mut body, 3);
        body.push(7);
        assert_eq!(
            Request::decode(&body),
            Err(ProtoError::BadValue { what: "median policy" })
        );
        // Metric code 9.
        let mut body = header(OP_PAIR);
        put_name(&mut body, "s");
        body.push(9);
        put_u64(&mut body, 0);
        put_u64(&mut body, 1);
        assert_eq!(
            Request::decode(&body),
            Err(ProtoError::BadValue { what: "metric kind" })
        );
        // Error codes past BadRequest (8).
        for code in [9, 10] {
            let mut body = header(OP_ERROR);
            body.push(code);
            put_text(&mut body, "x");
            assert_eq!(
                Response::decode(&body),
                Err(ProtoError::BadValue { what: "error code" })
            );
        }
        // Bad UTF-8 name.
        let body = vec![PROTO_VERSION, OP_DROP, 2, 0xff, 0xfe];
        assert_eq!(Request::decode(&body), Err(ProtoError::BadUtf8));
        // Oversized ranking claim cannot force an allocation.
        let mut body = header(OP_PUSH);
        put_name(&mut body, "s");
        put_u32(&mut body, u32::MAX);
        assert_eq!(
            Request::decode(&body),
            Err(ProtoError::RankingTooLarge { len: u32::MAX as usize })
        );
        // Same for an oversized weight-count claim.
        for op in [OP_WEIGHTED, OP_TOPDIFF] {
            let mut body = header(op);
            put_name(&mut body, "s");
            put_u64(&mut body, 0);
            put_u64(&mut body, 1);
            put_u32(&mut body, u32::MAX);
            assert_eq!(
                Request::decode(&body),
                Err(ProtoError::WeightsTooLarge { len: u32::MAX as usize })
            );
        }
        // Same for oversized label- and rule-count claims.
        let mut body = header(OP_MINMAX);
        put_name(&mut body, "s");
        put_u32(&mut body, u32::MAX);
        assert_eq!(
            Request::decode(&body),
            Err(ProtoError::LabelsTooLarge { len: u32::MAX as usize })
        );
        let mut body = header(OP_MINMAX);
        put_name(&mut body, "s");
        put_u32(&mut body, 0);
        put_u32(&mut body, u32::MAX);
        assert_eq!(
            Request::decode(&body),
            Err(ProtoError::RulesTooLarge { len: u32::MAX as usize })
        );
        // validate() mirrors the decoder's weight-count bound.
        let req = Request::TopDiff {
            session: "s".into(),
            voter_a: 0,
            voter_b: 1,
            weights: vec![0; MAX_ELEMENTS + 1],
        };
        assert_eq!(
            req.validate(),
            Err(ProtoError::WeightsTooLarge { len: MAX_ELEMENTS + 1 })
        );
        // ... and the label-/rule-count bounds.
        let req = Request::MinMaxAgg {
            session: "s".into(),
            labels: vec![0; MAX_ELEMENTS + 1],
            rules: vec![],
        };
        assert_eq!(
            req.validate(),
            Err(ProtoError::LabelsTooLarge { len: MAX_ELEMENTS + 1 })
        );
        let rule = WireRule {
            window: 1,
            class: 0,
            min: 0,
            max: 1,
        };
        let req = Request::MinMaxAgg {
            session: "s".into(),
            labels: vec![],
            rules: vec![rule; MAX_RULES + 1],
        };
        assert_eq!(
            req.validate(),
            Err(ProtoError::RulesTooLarge { len: MAX_RULES + 1 })
        );
    }

    #[test]
    fn ranking_wire_form_is_canonical() {
        // Non-contiguous keys decode to the same order as their
        // canonical bucket indices, so encode∘decode is idempotent.
        let mut body = header(OP_PUSH);
        put_name(&mut body, "s");
        put_u32(&mut body, 3);
        for k in [7u32, 1000, 7] {
            put_u32(&mut body, k);
        }
        let Request::PushVoter { ranking, .. } = Request::decode(&body).unwrap() else {
            panic!("wrong request")
        };
        assert_eq!(ranking, BucketOrder::from_keys(&[0, 1, 0]));
        let re = Request::PushVoter {
            session: "s".into(),
            ranking,
        }
        .encode();
        assert_eq!(Request::decode(&re).unwrap(), Request::decode(&re).unwrap());
    }

    /// A `Read` that replays a script of chunks and transient errors,
    /// standing in for a socket whose read timeout fires mid-frame.
    struct ScriptedRead {
        script: std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>>,
    }

    impl Read for ScriptedRead {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.script.pop_front() {
                Some(Ok(chunk)) => {
                    assert!(chunk.len() <= buf.len(), "scripted chunk too large");
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
                Some(Err(kind)) => Err(kind.into()),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn frame_reader_resumes_across_timeouts() {
        // One frame delivered as: 2 header bytes, timeout, 2 header
        // bytes, timeout, half the body, timeout, the rest. Every
        // consumed byte must survive each timeout.
        let mut frame = Vec::new();
        write_frame(&mut frame, b"resumable", 64).unwrap();
        let mut r = ScriptedRead {
            script: [
                Ok(frame[..2].to_vec()),
                Err(io::ErrorKind::WouldBlock),
                Ok(frame[2..4].to_vec()),
                Err(io::ErrorKind::TimedOut),
                Ok(frame[4..8].to_vec()),
                Err(io::ErrorKind::WouldBlock),
                Ok(frame[8..].to_vec()),
            ]
            .into_iter()
            .collect(),
        };
        let mut reader = FrameReader::new();
        assert!(!reader.mid_frame());
        let mut timeouts = 0;
        let body = loop {
            match reader.read_frame(&mut r, 64) {
                Ok(body) => break body,
                Err(FrameError::Io(e))
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    assert!(reader.mid_frame());
                    timeouts += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(body, b"resumable");
        assert_eq!(timeouts, 3);
        assert!(!reader.mid_frame(), "state resets after a full frame");
    }

    #[test]
    fn long_names_validate_and_encode_well_formed() {
        // 'é' is 2 bytes; 130 of them exceed MAX_NAME by 5 bytes and
        // put a char boundary astride the 255-byte cut.
        let long: String = "é".repeat(130);
        assert_eq!(long.len(), 260);
        let req = Request::DropSession { name: long.clone() };
        assert_eq!(req.validate(), Err(ProtoError::NameTooLong { len: 260 }));
        // Unvalidated encode still yields a well-formed frame: the
        // length prefix matches the bytes written, truncated at a char
        // boundary, so the stream cannot desync.
        let decoded = Request::decode(&req.encode()).unwrap();
        let Request::DropSession { name } = decoded else {
            panic!("wrong request")
        };
        assert_eq!(name.len(), 254);
        assert!(long.starts_with(&name));
        // In-bounds names pass and round-trip untouched.
        let ok = Request::DropSession { name: "x".repeat(MAX_NAME) };
        assert_eq!(ok.validate(), Ok(()));
        assert_eq!(Request::decode(&ok.encode()).unwrap(), ok);
    }

    #[test]
    fn batch_roundtrip_and_dispatch() {
        let reqs = sample_requests();
        let body = encode_batch(&reqs);
        assert_eq!(decode_batch(&body).unwrap(), reqs);
        match WireRequest::decode(&body).unwrap() {
            WireRequest::Batch(got) => assert_eq!(got, reqs),
            other => panic!("batch dispatched as {other:?}"),
        }
        assert_eq!(WireRequest::decode(&body).unwrap().ops(), reqs.len());
        // v1 bodies dispatch to Single through the same entry point.
        for req in &reqs {
            assert_eq!(
                WireRequest::decode(&req.encode()).unwrap(),
                WireRequest::Single(req.clone())
            );
        }
        // Unknown versions are typed.
        assert_eq!(
            WireRequest::decode(&[7, OP_PING]),
            Err(ProtoError::UnsupportedVersion { found: 7 })
        );
        assert_eq!(
            WireRequest::decode(&[]),
            Err(ProtoError::Truncated { needed: 2, have: 0 })
        );
    }

    #[test]
    fn batch_reply_roundtrip_is_byte_exact() {
        let resps = sample_responses();
        let body = encode_batch_reply(&resps);
        let bodies = decode_batch_reply(&body).unwrap();
        assert_eq!(bodies.len(), resps.len());
        for (raw, resp) in bodies.iter().zip(&resps) {
            assert_eq!(raw, &resp.encode());
            assert_eq!(&Response::decode(raw).unwrap(), resp);
        }
    }

    #[test]
    fn batch_bounds_are_typed_and_checked_before_allocation() {
        // Empty batches are rejected.
        assert_eq!(
            decode_batch(&[PROTO_VERSION_2, OP_BATCH, 0, 0]),
            Err(ProtoError::EmptyBatch)
        );
        assert_eq!(validate_batch(&[]), Err(ProtoError::EmptyBatch));
        // A count beyond MAX_BATCH is rejected from the 4-byte prefix
        // alone — no sub-request is parsed or allocated.
        let mut huge = vec![PROTO_VERSION_2, OP_BATCH];
        put_u16(&mut huge, u16::MAX);
        assert_eq!(
            decode_batch(&huge),
            Err(ProtoError::BatchTooLarge { len: u16::MAX as usize })
        );
        let many = vec![Request::Ping; MAX_BATCH + 1];
        assert_eq!(
            validate_batch(&many),
            Err(ProtoError::BatchTooLarge { len: MAX_BATCH + 1 })
        );
        // Encode stays well-formed even unvalidated: truncated to the
        // bound, the count prefix matching the bodies written.
        let wire = encode_batch(&many);
        assert_eq!(decode_batch(&wire).unwrap().len(), MAX_BATCH);
        // A sub-length pointing past the body is a typed truncation.
        let mut torn = vec![PROTO_VERSION_2, OP_BATCH];
        put_u16(&mut torn, 1);
        put_u32(&mut torn, 99);
        torn.extend_from_slice(&Request::Ping.encode());
        assert!(matches!(
            decode_batch(&torn),
            Err(ProtoError::Truncated { .. })
        ));
        // Every strict prefix of a valid batch is a typed error.
        let body = encode_batch(&sample_requests());
        for cut in 0..body.len() {
            assert!(decode_batch(&body[..cut]).is_err(), "prefix {cut} decoded");
        }
        // Trailing bytes are rejected.
        let mut extra = body.clone();
        extra.push(0);
        assert_eq!(
            decode_batch(&extra),
            Err(ProtoError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn nested_batches_are_rejected() {
        // A batch whose sub-body is itself a v2 batch: the sub-decoder
        // speaks v1 only, so the version byte is a typed error — there
        // is no recursive descent for an attacker to wind up.
        let inner = encode_batch(&[Request::Ping]);
        let mut outer = vec![PROTO_VERSION_2, OP_BATCH];
        put_u16(&mut outer, 1);
        put_u32(&mut outer, inner.len() as u32);
        outer.extend_from_slice(&inner);
        assert_eq!(
            decode_batch(&outer),
            Err(ProtoError::UnsupportedVersion { found: PROTO_VERSION_2 })
        );
    }

    #[test]
    fn frame_roundtrip_and_bounds() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", 64).unwrap();
        let mut cur = &buf[..];
        assert_eq!(read_frame(&mut cur, 64).unwrap(), b"hello");
        assert!(matches!(read_frame(&mut cur, 64), Err(FrameError::Closed)));

        // Oversized declared length: typed, no allocation attempted.
        let huge = (u32::MAX).to_be_bytes();
        assert!(matches!(
            read_frame(&mut &huge[..], 1024),
            Err(FrameError::Proto(ProtoError::FrameTooLarge { .. }))
        ));
        // Torn header and torn body are transport errors, not panics.
        assert!(matches!(
            read_frame(&mut &buf[..2], 64),
            Err(FrameError::Io(_))
        ));
        assert!(matches!(
            read_frame(&mut &buf[..6], 64),
            Err(FrameError::Io(_))
        ));
        // The writer refuses bodies beyond the bound.
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &[0u8; 100], 64).is_err());
    }
}
