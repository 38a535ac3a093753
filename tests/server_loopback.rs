//! Loopback differential suite for the TCP service: random edit
//! scripts (`testkit::gen::edit_script_with_degenerates`, the same
//! stream that drives the in-process engine's update oracle) are
//! replayed over a real socket, and every reply — edits, reads, and
//! typed errors — must be **byte-identical** to the reply of the naive
//! reference model `bucketrank_bench::model::ModelService`.
//! Plus the CI smoke pass: one round trip per request type and a
//! graceful, fully-drained shutdown.

use bucketrank::aggregate::minmax;
use bucketrank::metrics::kendall;
use bucketrank::server::proto::{MetricKind, Request, Response, WirePolicy, WireRule};
use bucketrank::server::{Client, Server, ServerConfig};
use bucketrank::BucketOrder;
use bucketrank_bench::model::{assert_reply, ModelService};
use bucketrank_testkit::gen::{script_domain, EditOp};
use bucketrank_testkit::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The degenerate-heavy edit-script stream shared with the in-process
/// differential suite (`tests/dynamic_vs_rebuild.rs`).
fn scripts() -> impl Gen<Value = Vec<EditOp>> {
    gen::edit_script_with_degenerates(3..=12, 6, 3)
}

#[test]
fn replies_are_byte_identical_to_the_in_process_mirror() {
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

    check(
        "replies_are_byte_identical_to_the_in_process_mirror",
        scripts(),
        |script| {
            let seq = case.fetch_add(1, Ordering::Relaxed);
            let n = script_domain(script);
            let session = format!("diff-{seq}");
            let policy = if seq.is_multiple_of(2) {
                WirePolicy::Lower
            } else {
                WirePolicy::Upper
            };
            let mut client = Client::connect(addr).expect("connect");
            let mut model = ModelService::new();
            let create = Request::CreateSession {
                name: session.clone(),
                n: n as u32,
                policy,
            };
            assert_reply(&mut client, &create, &model.handle(&create));
            let candidate =
                BucketOrder::from_keys(&(0..n as i64).collect::<Vec<i64>>());

            for (step, op) in script.iter().enumerate() {
                // The edit, byte-compared including typed errors.
                let edit = model.resolve(&session, op);
                assert_reply(&mut client, &edit, &model.handle(&edit));

                // Minmax alternates unconstrained and class-constrained
                // calls.
                let (labels, rules) = if step % 3 == 0 {
                    (Vec::new(), Vec::new())
                } else {
                    (
                        (0..n as u32).map(|e| e % 2).collect::<Vec<u32>>(),
                        vec![WireRule {
                            window: n as u32,
                            class: 0,
                            min: 0,
                            max: n as u32,
                        }],
                    )
                };
                // Pairwise metric between the oldest and newest live
                // voters; ghost ids on an empty profile stay typed.
                let (voter_a, voter_b) = model.oldest_and_newest(&session);
                // Every read type; k sweeps 0..=n+1, so InvalidK
                // crosses the wire too.
                let reads = [
                    Request::MedianOrder {
                        session: session.clone(),
                    },
                    Request::TopK {
                        session: session.clone(),
                        k: ((step * 3) % (n + 2)) as u32,
                    },
                    Request::KemenyCost {
                        session: session.clone(),
                        candidate: candidate.clone(),
                    },
                    Request::PairMetric {
                        session: session.clone(),
                        metric: MetricKind::ALL[step % 4],
                        voter_a,
                        voter_b,
                    },
                    Request::MinMaxAgg {
                        session: session.clone(),
                        labels,
                        rules,
                    },
                ];
                for req in &reads {
                    assert_reply(&mut client, req, &model.handle(req));
                }
            }

            // A domain-mismatched push and a malformed constraint (the
            // constraint error, unless the session drained first and
            // the empty-session check wins) cross the wire typed.
            let tail = [
                Request::PushVoter {
                    session: session.clone(),
                    ranking: BucketOrder::trivial(n + 1),
                },
                Request::MinMaxAgg {
                    session: session.clone(),
                    labels: vec![0; n],
                    rules: vec![WireRule {
                        window: 0,
                        class: 0,
                        min: 0,
                        max: 0,
                    }],
                },
                Request::DropSession {
                    name: session.clone(),
                },
            ];
            for req in &tail {
                let want = model.handle(req);
                assert_reply(&mut client, req, &want);
                assert!(
                    matches!(want, Response::Error { .. } | Response::SessionDropped),
                    "{req:?} must be refused typed, got {want:?}"
                );
            }
        },
    );

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    assert!(stats.requests > 0);
}

/// A legitimate client whose frame bytes straddle a network gap longer
/// than the server's internal read-poll interval must still be served:
/// the connection loop's resumable reader may not drop the bytes read
/// before the poll timeout fired (that desync would parse the frame's
/// tail as a fresh header).
#[test]
fn slow_frames_spanning_poll_timeouts_are_reassembled() {
    use std::io::Write;

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Three pings, each dribbled in three writes with pauses well past
    // the server's 50ms poll interval: mid-header, then mid-body.
    let body = Request::Ping.encode();
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&body);
    for _ in 0..3 {
        for chunk in [&frame[..2], &frame[2..5], &frame[5..]] {
            stream.write_all(chunk).expect("write chunk");
            stream.flush().expect("flush");
            std::thread::sleep(std::time::Duration::from_millis(120));
        }
        let reply = bucketrank::server::proto::read_frame(
            &mut stream,
            bucketrank::server::proto::DEFAULT_MAX_FRAME,
        )
        .expect("read reply");
        assert_eq!(Response::decode(&reply).expect("decode"), Response::Pong);
    }
    drop(stream);

    let stats = server.shutdown();
    assert_eq!(stats.requests, 3, "{stats:?}");
    assert_eq!(stats.protocol_errors, 0, "every dribbled frame reassembled: {stats:?}");
}

#[test]
fn smoke_every_request_type_and_graceful_shutdown() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let mut c = Client::connect(addr).expect("connect");

    c.ping().expect("ping");
    c.create_session("smoke", 4, WirePolicy::Lower).expect("create");
    let keys = |k: &[i64]| BucketOrder::from_keys(k);
    let a = c.push_voter("smoke", &keys(&[1, 2, 3, 4])).expect("push");
    let b = c.push_voter("smoke", &keys(&[2, 2, 1, 1])).expect("push");
    c.replace_voter("smoke", a, &keys(&[4, 3, 2, 1])).expect("replace");
    let median = c.median_order("smoke").expect("median");
    assert_eq!(median.len(), 4);
    let top = c.top_k("smoke", 2).expect("top_k");
    assert_eq!(top.top_k_len(), Some(2));
    let cost = c.kemeny_cost_x2("smoke", &keys(&[1, 2, 3, 4])).expect("kemeny");
    // Against the definition, not just "some number".
    let voters = [keys(&[4, 3, 2, 1]), keys(&[2, 2, 1, 1])];
    let kemeny: u64 = voters
        .iter()
        .map(|v| kendall::kprof_x2(&keys(&[1, 2, 3, 4]), v).unwrap())
        .sum();
    assert_eq!(cost, kemeny);
    for metric in MetricKind::ALL {
        c.pair_metric_x2("smoke", metric, a, b).expect("pair metric");
    }
    // Minmax aggregation, unconstrained and constrained, against the
    // in-process pipeline at the same wire seed.
    let (mm, mm_cost) = c.minmax_agg("smoke", &[], &[]).expect("minmax");
    let expected = minmax::minmax_aggregate(&voters, None, minmax::DEFAULT_SEED).unwrap();
    assert_eq!((mm, mm_cost), expected);
    let rule = WireRule {
        window: 2,
        class: 1,
        min: 1,
        max: 2,
    };
    let (mmc, _) = c
        .minmax_agg("smoke", &[0, 0, 1, 1], &[rule])
        .expect("constrained minmax");
    // The constraint holds on the reply: at least one of elements 2, 3
    // inside the top-2 prefix.
    let perm = mmc.as_permutation().expect("constrained output is full");
    assert!(perm[..2].iter().any(|&e| e == 2 || e == 3));
    c.remove_voter("smoke", b).expect("remove");
    c.drop_session("smoke").expect("drop");

    // Wire shutdown: ack arrives, the drain completes, and the stats
    // cover everything this test sent.
    c.shutdown_server().expect("wire shutdown");
    server.wait_shutdown_requested();
    let stats = server.shutdown();
    assert!(stats.requests >= 15, "{stats:?}");
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    assert_eq!(stats.rejected_busy, 0, "{stats:?}");
}
