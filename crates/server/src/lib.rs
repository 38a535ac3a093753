//! A dependency-free TCP service for rankings with ties.
//!
//! This crate hosts named [`DynamicProfile`](bucketrank_aggregate::DynamicProfile)
//! sessions behind a small length-prefixed binary protocol, so the
//! streaming aggregation engine and the prepared metric kernels can be
//! driven over a socket instead of in-process. It is built entirely on
//! `std` — no async runtime, no serialization framework — in keeping
//! with the workspace's hermetic, path-only dependency policy.
//!
//! The layers, bottom to top:
//!
//! - [`proto`] — the wire format: framed, versioned, bounded requests
//!   and responses with typed decode errors, including the protocol v2
//!   `Batch`/`BatchReply` frames that carry many ops per round trip.
//!   Malformed or oversized input fails the *connection*, never the
//!   process.
//! - [`wal`] — the durability substrate: an append-only write-ahead
//!   log of CRC-framed edit records plus atomic session checkpoints,
//!   with total decoders in the [`proto`] style (torn tails and
//!   corrupt records are typed errors that truncate, never panics).
//! - [`service`] — transport-agnostic request handling: sessions
//!   sharded by a stable name hash, where edits go through a
//!   per-session `DynamicProfile` under the owning shard's lock (and
//!   onto its WAL before acknowledgement when a data directory is
//!   configured). The median, top-k and Kemeny-cost reads go through
//!   immutable published
//!   [`DynamicSnapshot`](bucketrank_aggregate::DynamicSnapshot)s, so
//!   they never block writers; the pair reads and `MinMaxAgg` clone
//!   the voters they need under the session's edit mutex and compute
//!   outside it. Batches dispatch through
//!   [`Service::handle_batch`], which amortizes the session lookup.
//!   Restarting over the same data directory replays every
//!   acknowledged edit; sessions beyond the resident cap park on disk
//!   and fault back in on touch.
//! - [`server`] — the TCP front: a single readiness-based event thread
//!   owning every nonblocking connection (no thread per connection)
//!   and a fixed worker pool behind a bounded job queue with explicit
//!   backpressure ([`Response::Busy`]), per-connection pipelining with
//!   in-order replies, and graceful, drain-the-in-flight shutdown.
//! - [`client`] — a blocking loopback client used by the integration
//!   tests, the CI smoke gate, and `bench_server`; supports batch
//!   calls and K-outstanding pipelining ([`Client::pipeline`]).
//!
//! # Quickstart (loopback)
//!
//! ```
//! use bucketrank_server::{Client, Server, ServerConfig, WirePolicy};
//! use bucketrank_core::BucketOrder;
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! client.create_session("demo", 3, WirePolicy::Lower).unwrap();
//! client.push_voter("demo", &BucketOrder::from_keys(&[0, 1, 1])).unwrap();
//! client.push_voter("demo", &BucketOrder::from_keys(&[0, 1, 2])).unwrap();
//! let median = client.median_order("demo").unwrap();
//! assert_eq!(median.len(), 3);
//!
//! let stats = server.shutdown();
//! assert!(stats.requests >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod service;
mod shard;
pub mod wal;

pub use client::{Client, ClientError, Pipeline, PipelineReply};
pub use proto::{
    ErrorCode, FrameError, MetricKind, ProtoError, Request, Response, ShardStats, WirePolicy,
    WireRequest, WireRule, DEFAULT_MAX_FRAME, MAX_BATCH, MAX_RULES, MAX_SHARDS, PROTO_VERSION,
    PROTO_VERSION_2,
};
pub use server::{Server, ServerConfig, ServerStats};
pub use service::{Service, ServiceConfig, DEFAULT_CHECKPOINT_EVERY, DEFAULT_SHARDS};
pub use wal::{WalError, WalOp, WalRecord};
