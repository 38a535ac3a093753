//! Differential conformance for protocol v2 pipelining and batching:
//! the same degenerate-heavy edit scripts that drive the v1 loopback
//! suite are replayed over a real socket with K∈{1,4,32} outstanding
//! frames — as v1 singles, as v2 `Batch` frames, and as random-ish
//! interleavings of both — and **every** reply must arrive in order
//! and be byte-identical to the reply of the naive reference model
//! [`ModelService`] for the same op, including typed per-op errors
//! mid-batch.

use bucketrank::server::proto::{ErrorCode, MetricKind, Request, Response, WirePolicy};
use bucketrank::server::{Client, PipelineReply, Server, ServerConfig};
use bucketrank::BucketOrder;
use bucketrank_bench::model::ModelService;
use bucketrank_testkit::gen::{script_domain, EditOp};
use bucketrank_testkit::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The degenerate-heavy edit-script stream shared with the v1
/// differential suite (`tests/server_loopback.rs`).
fn scripts() -> impl Gen<Value = Vec<EditOp>> {
    gen::edit_script_with_degenerates(3..=12, 6, 3)
}

/// Expands one edit script into a full request stream — session
/// lifecycle, edits, every read type, and deliberate typed errors —
/// with the byte-exact expected reply for each, computed from a fresh
/// [`ModelService`]. The remote server starts the same session from the
/// same empty state, so voter ids and every derived value align
/// op-for-op.
fn model_script(session: &str, policy: WirePolicy, script: &[EditOp]) -> Vec<(Request, Vec<u8>)> {
    let n = script_domain(script);
    let mut model = ModelService::new();
    let mut pairs: Vec<(Request, Vec<u8>)> = Vec::new();
    let mut record = |model: &mut ModelService, req: Request| {
        let reply = model.handle(&req).encode();
        pairs.push((req, reply));
    };
    let candidate = BucketOrder::from_keys(&(0..n as i64).collect::<Vec<i64>>());

    record(
        &mut model,
        Request::CreateSession {
            name: session.to_owned(),
            n: n as u32,
            policy,
        },
    );

    for (step, op) in script.iter().enumerate() {
        let edit = model.resolve(session, op);
        record(&mut model, edit);

        // Every read type after every edit; the k sweep crosses
        // InvalidK, ghost voter ids cross UnknownVoter, and empty
        // profiles cross NoVoters — typed errors mid-stream.
        let (voter_a, voter_b) = model.oldest_and_newest(session);
        for req in [
            Request::MedianOrder {
                session: session.to_owned(),
            },
            Request::TopK {
                session: session.to_owned(),
                k: ((step * 3) % (n + 2)) as u32,
            },
            Request::KemenyCost {
                session: session.to_owned(),
                candidate: candidate.clone(),
            },
            Request::PairMetric {
                session: session.to_owned(),
                metric: MetricKind::ALL[step % 4],
                voter_a,
                voter_b,
            },
        ] {
            record(&mut model, req);
        }
    }

    // A guaranteed mid-stream typed error, then teardown.
    record(
        &mut model,
        Request::PushVoter {
            session: session.to_owned(),
            ranking: BucketOrder::trivial(n + 1),
        },
    );
    record(
        &mut model,
        Request::DropSession {
            name: session.to_owned(),
        },
    );
    pairs
}

/// Replays a modelled request stream over a real socket with `k`
/// outstanding frames, packing requests into wire frames according to
/// `chunk_cycle` (1 → a v1 single frame, m>1 → a v2 batch of m), and
/// asserts the replies arrive in order, byte-identical to the model.
fn replay(addr: std::net::SocketAddr, k: usize, chunk_cycle: &[usize], pairs: &[(Request, Vec<u8>)]) {
    let mut client = Client::connect(addr).expect("connect");
    let mut pipe = client.pipeline(k);
    let mut got: Vec<PipelineReply> = Vec::new();
    let mut expected: Vec<PipelineReply> = Vec::new();
    let mut i = 0;
    let mut chunk = 0;
    while i < pairs.len() {
        let size = chunk_cycle[chunk % chunk_cycle.len()]
            .clamp(1, pairs.len() - i);
        chunk += 1;
        let window = &pairs[i..i + size];
        let evicted = if size == 1 {
            expected.push(PipelineReply::Single(window[0].1.clone()));
            pipe.send(&window[0].0).expect("pipelined send")
        } else {
            let reqs: Vec<Request> = window.iter().map(|(r, _)| r.clone()).collect();
            expected.push(PipelineReply::Batch(
                window.iter().map(|(_, b)| b.clone()).collect(),
            ));
            pipe.send_batch(&reqs).expect("pipelined batch send")
        };
        if let Some(reply) = evicted {
            got.push(reply);
        }
        assert!(pipe.outstanding() <= k, "pipeline depth bound violated");
        i += size;
    }
    got.extend(pipe.drain().expect("drain replies"));
    assert_eq!(
        got.len(),
        expected.len(),
        "every sent frame must be answered exactly once"
    );
    for (at, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(
            g, e,
            "reply {at} of {} (depth {k}) diverged from the model",
            expected.len()
        );
    }
}

#[test]
fn pipelined_and_batched_replies_match_the_in_process_mirror() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let case = AtomicUsize::new(0);

    // Per depth: pure v1 singles, pure v2 batches, and a v1/v2
    // interleaving on the same connection.
    let shapes: [(usize, &[usize]); 3] = [
        (1, &[1]),
        (4, &[4, 7, 2, 1]),
        (32, &[1, 3, 1, 6, 2]),
    ];

    check(
        "pipelined_and_batched_replies_match_the_in_process_mirror",
        scripts(),
        |script| {
            let seq = case.fetch_add(1, Ordering::Relaxed);
            let policy = if seq.is_multiple_of(2) {
                WirePolicy::Lower
            } else {
                WirePolicy::Upper
            };
            for (k, cycle) in shapes {
                let session = format!("pipe-{seq}-{k}");
                let pairs = model_script(&session, policy, script);
                replay(addr, k, cycle, &pairs);
            }
        },
    );

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    assert_eq!(stats.rejected_busy, 0, "{stats:?}");
    assert!(stats.requests > 0);
}

/// Typed per-op errors mid-batch: the whole reply shape is preserved
/// (one sub-reply per sub-request) and byte-matches
/// [`ModelService::handle_batch`] on the same ops.
#[test]
fn typed_errors_mid_batch_preserve_shape_and_bytes() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    let reqs = vec![
        Request::CreateSession {
            name: "mid".into(),
            n: 3,
            policy: WirePolicy::Lower,
        },
        Request::PushVoter {
            session: "mid".into(),
            ranking: BucketOrder::from_keys(&[1, 2, 3]),
        },
        Request::PushVoter {
            session: "mid".into(),
            ranking: BucketOrder::from_keys(&[1, 2]), // domain mismatch
        },
        Request::MedianOrder {
            session: "nope".into(), // unknown session
        },
        Request::TopK {
            session: "mid".into(),
            k: 99, // invalid k
        },
        Request::MedianOrder { session: "mid".into() },
        Request::DropSession { name: "mid".into() },
    ];
    let expected: Vec<Vec<u8>> = ModelService::new()
        .handle_batch(&reqs)
        .iter()
        .map(Response::encode)
        .collect();

    let got = client.call_batch_raw(&reqs).expect("batch round trip");
    assert_eq!(got, expected, "per-op replies diverged from the model");
    // The failures really are typed errors, not truncation.
    assert!(matches!(
        Response::decode(&got[2]).unwrap(),
        Response::Error { code: ErrorCode::DomainMismatch, .. }
    ));
    assert!(matches!(
        Response::decode(&got[3]).unwrap(),
        Response::Error { code: ErrorCode::UnknownSession, .. }
    ));
    assert!(matches!(
        Response::decode(&got[5]).unwrap(),
        Response::Ranking { .. }
    ));

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
}

/// `Shutdown` inside a batch answers a typed `BadRequest` and must not
/// drain the server; a v1 `Shutdown` frame afterwards still does.
#[test]
fn shutdown_inside_a_batch_is_rejected_without_draining() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    let reqs = vec![Request::Ping, Request::Shutdown, Request::Ping];
    let expected: Vec<Vec<u8>> = ModelService::new()
        .handle_batch(&reqs)
        .iter()
        .map(Response::encode)
        .collect();
    let got = client.call_batch_raw(&reqs).expect("batch round trip");
    assert_eq!(got, expected);
    assert!(matches!(
        Response::decode(&got[1]).unwrap(),
        Response::Error { code: ErrorCode::BadRequest, .. }
    ));

    // Not draining: the same connection keeps being served, and so do
    // fresh ones.
    client.ping().expect("connection survives the rejected shutdown");
    let mut fresh = Client::connect(addr).expect("connect");
    fresh.ping().expect("server did not drain");

    // The real thing still works as a v1 frame.
    client.shutdown_server().expect("v1 shutdown");
    server.wait_shutdown_requested();
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
}
