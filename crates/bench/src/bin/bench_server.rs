//! Loopback throughput and latency for the TCP ranking service
//! (`bucketrank-server`) — the measurement backing the server layer.
//!
//! One in-process server on an ephemeral port, then two request mixes
//! driven by concurrent blocking clients (one connection each):
//!
//! * **edit_heavy**: 80% voter edits (replace), 20% snapshot reads —
//!   the streaming-ingest regime, serialized per session by the edit
//!   mutex;
//! * **read_heavy**: 5% edits, 95% reads (median order, top-k, Kemeny
//!   cost, pairwise prepared metrics) — the query-fanout regime the
//!   snapshot-publish read path exists for;
//! * **million_user_day**: thousands of sessions with Zipf-skewed
//!   popularity, 10% edits / 90% reads — the wide-session-table
//!   regime, recording p99 and throughput per core.
//!
//! Each client works its own session so the mixes measure service
//! throughput rather than single-mutex contention. Per-request wall
//! latencies feed p50/p99; the acceptance gate is ≥10k requests/s on
//! the read-heavy mix.
//!
//! A **read_heavy_1shard** pass then reruns the read-heavy mix against
//! a single-shard server bound in the same run, alternating rounds
//! with the sharded server that served the mixes above
//! (`bucketrank_bench::timing::ab`): the median round ratio of sharded
//! to single-shard throughput must hold ≥0.95× (the sharding gate;
//! pairing adjacent rounds keeps scheduler noise on loaded one-core
//! boxes out of each quotient, and the median drops the rounds a burst
//! split). The report's `gates` section records the ratio with its
//! quartiles.
//!
//! Protocol v2 regimes then rerun the read-heavy op distribution:
//! **read_heavy_pipelined** (32 outstanding v1 frames per connection),
//! **read_heavy_batched** (8 outstanding `Batch` frames of 16 ops), and
//! **read_heavy_batched_idleflood** (the batched mix with hundreds of
//! idle connections parked in the readiness loop). The hard v2 gate:
//! the best no-flood pipelined/batched throughput must be ≥ 2× the
//! single-outstanding read-heavy throughput from the *same run*.
//!
//! Before the mixes, one client exercises every request type once
//! (the same round-trip set the CI smoke gate drives), and the run
//! ends with a wire `Shutdown` followed by a drained `Server::shutdown`
//! — so a hung drain fails the benchmark rather than the test suite.
//!
//! Run with `cargo run --release -p bucketrank-bench --bin
//! bench_server`. Results go to the perf trajectory file
//! `BENCH_server.json` (override with `BUCKETRANK_BENCH_OUT`);
//! `BUCKETRANK_BENCH_FAST=1` runs the smoke-gate pass on a shrunken
//! request budget.

use bucketrank_bench::report::{fast_mode, out_path, BenchReport};
use bucketrank_bench::timing::ab;
use bucketrank_server::{
    Client, MetricKind, Request, Server, ServerConfig, ServiceConfig, WirePolicy,
};
use bucketrank_workloads::random::{random_few_valued, ZipfSampler};
use bucketrank_workloads::rng::{Pcg32, Rng, SeedableRng};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Alternating rounds of the sharding gate.
const SHARD_GATE_ROUNDS: usize = 31;

/// p-th percentile (0..=100) of an unsorted latency sample, in ns.
fn percentile_ns(latencies: &mut [u64], p: f64) -> u64 {
    assert!(!latencies.is_empty());
    latencies.sort_unstable();
    let rank = ((p / 100.0) * (latencies.len() - 1) as f64).round() as usize;
    latencies[rank]
}

/// One round trip of every request type — the smoke pass. Returns the
/// number of requests issued.
fn smoke_all_request_types(addr: SocketAddr, n: usize) -> u64 {
    let mut rng = Pcg32::seed_from_u64(7);
    let mut c = Client::connect(addr).expect("connect");
    let r1 = random_few_valued(&mut rng, n, 4);
    let r2 = random_few_valued(&mut rng, n, 4);
    let mut count = 0u64;

    c.ping().expect("ping");
    c.create_session("smoke", n, WirePolicy::Lower).expect("create");
    let a = c.push_voter("smoke", &r1).expect("push");
    let b = c.push_voter("smoke", &r2).expect("push");
    c.replace_voter("smoke", a, &r2).expect("replace");
    c.median_order("smoke").expect("median");
    c.top_k("smoke", 2.min(n)).expect("top_k");
    c.kemeny_cost_x2("smoke", &r1).expect("kemeny");
    count += 8;
    for metric in MetricKind::ALL {
        c.pair_metric_x2("smoke", metric, a, b).expect("pair metric");
        count += 1;
    }
    c.remove_voter("smoke", b).expect("remove");
    c.drop_session("smoke").expect("drop");
    count + 2
}

/// Drives one mix and returns `(elapsed_seconds, latencies_ns)`.
fn run_mix(
    addr: SocketAddr,
    name: &str,
    clients: usize,
    per_client: usize,
    edit_pct: u32,
    n: usize,
) -> (f64, Vec<u64>) {
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|ci| {
            let session = format!("{name}-{ci}");
            std::thread::spawn(move || -> Vec<u64> {
                let mut rng = Pcg32::seed_from_u64(0x5e7 + ci as u64);
                let mut c = Client::connect(addr).expect("connect");
                c.create_session(&session, n, WirePolicy::Lower)
                    .expect("create");
                // Seed a handful of voters so reads have a profile.
                let voters: Vec<u64> = (0..4)
                    .map(|_| {
                        let r = random_few_valued(&mut rng, n, 4);
                        c.push_voter(&session, &r).expect("seed push")
                    })
                    .collect();
                let candidate = random_few_valued(&mut rng, n, 4);

                let mut latencies = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let t0 = Instant::now();
                    if rng.gen_range(0..100) < edit_pct {
                        let v = voters[i % voters.len()];
                        let r = random_few_valued(&mut rng, n, 4);
                        c.replace_voter(&session, v, &r)
                            .unwrap_or_else(|e| panic!("replace: {e}"));
                    } else {
                        match i % 4 {
                            0 => {
                                c.median_order(&session).expect("median");
                            }
                            1 => {
                                c.top_k(&session, 1 + i % n).expect("top_k");
                            }
                            2 => {
                                c.kemeny_cost_x2(&session, &candidate).expect("kemeny");
                            }
                            _ => {
                                let m = MetricKind::ALL[i % 4];
                                c.pair_metric_x2(&session, m, voters[0], voters[1])
                                    .expect("pair");
                            }
                        }
                    }
                    latencies.push(t0.elapsed().as_nanos() as u64);
                }
                c.drop_session(&session).expect("drop");
                latencies
            })
        })
        .collect();

    let mut latencies = Vec::with_capacity(clients * per_client);
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    (start.elapsed().as_secs_f64(), latencies)
}

/// The **million_user_day** mix: a session table thousands of entries
/// deep with Zipf-skewed popularity — a small head of hot sessions
/// takes most of the traffic while the long tail sits cold. Each
/// client draws a session per request from its own [`ZipfSampler`]
/// (10% edits as push+remove pairs, 90% reads). Setup pre-creates and
/// seeds every session and teardown drops them, both partitioned
/// across the client pool and excluded from the timed window.
///
/// Returns `(elapsed_seconds, latencies_ns, setup_teardown_requests)`;
/// timed request count is `latencies.len()`.
fn run_million_user_day(
    addr: SocketAddr,
    clients: usize,
    per_client: usize,
    sessions: usize,
    n: usize,
) -> (f64, Vec<u64>, u64) {
    let setup: Vec<_> = (0..clients)
        .map(|ci| {
            std::thread::spawn(move || -> u64 {
                let mut rng = Pcg32::seed_from_u64(0xda7 + ci as u64);
                let mut c = Client::connect(addr).expect("connect");
                let mut count = 0u64;
                let mut idx = ci;
                while idx < sessions {
                    let session = format!("mud-{idx}");
                    c.create_session(&session, n, WirePolicy::Lower)
                        .expect("create");
                    for _ in 0..2 {
                        let r = random_few_valued(&mut rng, n, 4);
                        c.push_voter(&session, &r).expect("seed push");
                    }
                    count += 3;
                    idx += clients;
                }
                count
            })
        })
        .collect();
    let mut untimed = 0u64;
    for h in setup {
        untimed += h.join().expect("setup thread");
    }

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|ci| {
            std::thread::spawn(move || -> Vec<u64> {
                let mut rng = Pcg32::seed_from_u64(0x10ad + ci as u64);
                let zipf = ZipfSampler::new(sessions, 1.1);
                let mut c = Client::connect(addr).expect("connect");
                let candidate = random_few_valued(&mut rng, n, 4);
                let mut latencies = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let session = format!("mud-{}", zipf.sample(&mut rng));
                    if rng.gen_range(0..100) < 10 {
                        let r = random_few_valued(&mut rng, n, 4);
                        let t0 = Instant::now();
                        let v = c.push_voter(&session, &r).expect("push");
                        latencies.push(t0.elapsed().as_nanos() as u64);
                        let t0 = Instant::now();
                        c.remove_voter(&session, v).expect("remove");
                        latencies.push(t0.elapsed().as_nanos() as u64);
                    } else {
                        let t0 = Instant::now();
                        match i % 3 {
                            0 => {
                                c.median_order(&session).expect("median");
                            }
                            1 => {
                                c.top_k(&session, 1 + i % n).expect("top_k");
                            }
                            _ => {
                                c.kemeny_cost_x2(&session, &candidate).expect("kemeny");
                            }
                        }
                        latencies.push(t0.elapsed().as_nanos() as u64);
                    }
                }
                latencies
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(clients * per_client);
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let elapsed = start.elapsed().as_secs_f64();

    let teardown: Vec<_> = (0..clients)
        .map(|ci| {
            std::thread::spawn(move || -> u64 {
                let mut c = Client::connect(addr).expect("connect");
                let mut count = 0u64;
                let mut idx = ci;
                while idx < sessions {
                    c.drop_session(&format!("mud-{idx}")).expect("drop");
                    count += 1;
                    idx += clients;
                }
                count
            })
        })
        .collect();
    for h in teardown {
        untimed += h.join().expect("teardown thread");
    }
    (elapsed, latencies, untimed)
}

/// Builds the i-th request of the read-heavy mix — the same op
/// distribution `run_mix` drives synchronously, as a value so it can
/// be pipelined or batched.
fn mix_request(
    rng: &mut Pcg32,
    session: &str,
    voters: &[u64],
    candidate: &bucketrank_core::BucketOrder,
    edit_pct: u32,
    n: usize,
    i: usize,
) -> Request {
    if rng.gen_range(0..100) < edit_pct {
        Request::ReplaceVoter {
            session: session.to_owned(),
            voter: voters[i % voters.len()],
            ranking: random_few_valued(rng, n, 4),
        }
    } else {
        match i % 4 {
            0 => Request::MedianOrder {
                session: session.to_owned(),
            },
            1 => Request::TopK {
                session: session.to_owned(),
                k: (1 + i % n) as u32,
            },
            2 => Request::KemenyCost {
                session: session.to_owned(),
                candidate: candidate.clone(),
            },
            _ => Request::PairMetric {
                session: session.to_owned(),
                metric: MetricKind::ALL[i % 4],
                voter_a: voters[0],
                voter_b: voters[1],
            },
        }
    }
}

/// Drives one **pipelined** mix: `depth` outstanding frames per
/// connection, each frame carrying `batch` ops (1 → v1 single frames).
/// Returns `(elapsed_seconds, total_ops)`.
fn run_pipelined_mix(
    addr: SocketAddr,
    name: &str,
    clients: usize,
    per_client: usize,
    edit_pct: u32,
    n: usize,
    (depth, batch): (usize, usize),
) -> (f64, u64) {
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|ci| {
            let session = format!("{name}-{ci}");
            std::thread::spawn(move || -> u64 {
                let mut rng = Pcg32::seed_from_u64(0x9e77 + ci as u64);
                let mut c = Client::connect(addr).expect("connect");
                c.create_session(&session, n, WirePolicy::Lower)
                    .expect("create");
                let voters: Vec<u64> = (0..4)
                    .map(|_| {
                        let r = random_few_valued(&mut rng, n, 4);
                        c.push_voter(&session, &r).expect("seed push")
                    })
                    .collect();
                let candidate = random_few_valued(&mut rng, n, 4);

                let mut pipe = c.pipeline(depth);
                let mut sent_frames = 0u64;
                let mut answered = 0u64;
                let mut i = 0usize;
                while i < per_client {
                    let take = batch.min(per_client - i);
                    let reply = if take == 1 {
                        let req =
                            mix_request(&mut rng, &session, &voters, &candidate, edit_pct, n, i);
                        pipe.send(&req).expect("pipelined send")
                    } else {
                        let reqs: Vec<Request> = (0..take)
                            .map(|j| {
                                mix_request(
                                    &mut rng, &session, &voters, &candidate, edit_pct, n,
                                    i + j,
                                )
                            })
                            .collect();
                        pipe.send_batch(&reqs).expect("pipelined batch send")
                    };
                    sent_frames += 1;
                    if reply.is_some() {
                        answered += 1;
                    }
                    i += take;
                }
                answered += pipe.drain().expect("drain").len() as u64;
                assert_eq!(answered, sent_frames, "every frame answered in order");
                drop(pipe);
                c.drop_session(&session).expect("drop");
                per_client as u64
            })
        })
        .collect();

    let mut ops = 0u64;
    for h in handles {
        ops += h.join().expect("client thread");
    }
    (start.elapsed().as_secs_f64(), ops)
}

fn main() {
    let fast = fast_mode();
    // Acceptance shape: 32-element sessions, 4 clients, 4000 requests
    // each per mix. The smoke gate shrinks the budget so CI stays
    // quick.
    let n = 32;
    let clients = if fast { 2 } else { 4 };
    let per_client = if fast { 400 } else { 4000 };

    // Pipelined mixes run a larger budget: per-op cost is far lower, so
    // more ops are needed for a stable elapsed time.
    let per_client_pipelined = if fast { per_client } else { per_client * 4 };
    let idle_conns = if fast { 64 } else { 512 };
    let mud_sessions = if fast { 256 } else { 4096 };

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: clients.max(2),
            // Room for the idle-flood mix on top of the working clients.
            max_connections: idle_conns + 64,
            // Room for the million-user-day session table; doubled so
            // an uneven shard hash can't trip the per-shard cap.
            service: ServiceConfig {
                max_sessions: mud_sessions * 2,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    println!("bench_server on {addr} ({clients} clients × {per_client} requests per mix)");

    let smoke_requests = smoke_all_request_types(addr, n);
    println!("  smoke: every request type round-tripped ({smoke_requests} requests)");

    let mut mix_rows: Vec<String> = Vec::new();
    let mixes = [("edit_heavy", 80u32), ("read_heavy", 5u32)];
    let mut read_heavy_rps = 0.0f64;
    for (name, edit_pct) in mixes {
        let (elapsed, mut latencies) = run_mix(addr, name, clients, per_client, edit_pct, n);
        let requests = latencies.len() as u64;
        let rps = requests as f64 / elapsed;
        let p50_us = percentile_ns(&mut latencies, 50.0) as f64 / 1e3;
        let p99_us = percentile_ns(&mut latencies, 99.0) as f64 / 1e3;
        println!(
            "  {name}: {rps:.0} req/s over {requests} requests \
             (p50 {p50_us:.1}µs, p99 {p99_us:.1}µs)"
        );
        mix_rows.push(format!(
            "{{\"name\":\"{name}\",\"edit_pct\":{edit_pct},\"clients\":{clients},\
             \"requests\":{requests},\"elapsed_s\":{elapsed:.4},\
             \"throughput_rps\":{rps:.1},\"p50_us\":{p50_us:.2},\"p99_us\":{p99_us:.2}}}"
        ));
        if name == "read_heavy" {
            read_heavy_rps = rps;
        }
    }

    // Million-user-day slice (ROADMAP item 1): Zipf-skewed traffic over
    // a session table thousands of entries deep — most sessions cold,
    // a hot head taking the bulk of the requests. Recorded, not gated:
    // the number to watch is throughput per core as the table grows.
    let mud_per_client = if fast { per_client } else { per_client / 2 };
    let (elapsed, mut latencies, mud_untimed) =
        run_million_user_day(addr, clients, mud_per_client, mud_sessions, n);
    let mud_timed = latencies.len() as u64;
    let mud_requests = mud_untimed + mud_timed;
    let rps = mud_timed as f64 / elapsed;
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let rps_per_core = rps / cores as f64;
    let p50_us = percentile_ns(&mut latencies, 50.0) as f64 / 1e3;
    let p99_us = percentile_ns(&mut latencies, 99.0) as f64 / 1e3;
    println!(
        "  million_user_day: {rps:.0} req/s over {mud_timed} requests across \
         {mud_sessions} sessions (p50 {p50_us:.1}µs, p99 {p99_us:.1}µs, \
         {rps_per_core:.0} req/s/core on {cores} cores)"
    );
    mix_rows.push(format!(
        "{{\"name\":\"million_user_day\",\"edit_pct\":10,\"clients\":{clients},\
         \"sessions\":{mud_sessions},\"requests\":{mud_timed},\"elapsed_s\":{elapsed:.4},\
         \"throughput_rps\":{rps:.1},\"throughput_rps_per_core\":{rps_per_core:.1},\
         \"cores\":{cores},\"p50_us\":{p50_us:.2},\"p99_us\":{p99_us:.2}}}"
    ));

    // Sharding gate: the same read-heavy mix against a single-shard
    // server bound in the same run. On a noisy (especially one-core)
    // box a single short measurement of each side swings by ±10% or
    // more, so the two sides are measured in alternating rounds and
    // the gate reads the median round ratio — scheduler noise drops
    // out while a real routing-layer regression depresses every
    // sharded round alike. The sharded side is the server above, which
    // has served every mix so far, so the gate also sees a server that
    // slows as its session table fills.
    let single = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: clients.max(2),
            service: ServiceConfig {
                shards: 1,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind single-shard loopback");
    let single_addr = single.local_addr();
    // Short fast-mode mixes are too noisy to gate on; give the gate
    // rounds a full-size budget even in fast mode.
    let gate_per_client = if fast { per_client * 4 } else { per_client };
    let mut single_shard_rps = 0.0f64;
    let mut single_row: Option<(f64, u64, f64, f64)> = None;
    // Each round works fresh sessions on both servers.
    let (mut single_round, mut sharded_round) = (0usize, 0usize);
    let shard_gate = ab(
        || {
            let (elapsed, mut latencies) = run_mix(
                single_addr,
                &format!("read_heavy_1shard_r{single_round}"),
                clients,
                gate_per_client,
                5,
                n,
            );
            single_round += 1;
            let single_rps = latencies.len() as f64 / elapsed;
            if single_rps > single_shard_rps {
                single_shard_rps = single_rps;
                let p50_us = percentile_ns(&mut latencies, 50.0) as f64 / 1e3;
                let p99_us = percentile_ns(&mut latencies, 99.0) as f64 / 1e3;
                single_row = Some((elapsed, latencies.len() as u64, p50_us, p99_us));
            }
            elapsed / latencies.len() as f64
        },
        || {
            let (elapsed, latencies) = run_mix(
                addr,
                &format!("read_heavy_4shard_r{sharded_round}"),
                clients,
                gate_per_client,
                5,
                n,
            );
            sharded_round += 1;
            elapsed / latencies.len() as f64
        },
        SHARD_GATE_ROUNDS,
    );
    let rounds = SHARD_GATE_ROUNDS;
    let (elapsed, single_requests, p50_us, p99_us) =
        single_row.expect("at least one single-shard round");
    println!(
        "  read_heavy_1shard: {single_shard_rps:.0} req/s over {single_requests} requests, \
         best of {rounds} (p50 {p50_us:.1}µs, p99 {p99_us:.1}µs)"
    );
    mix_rows.push(format!(
        "{{\"name\":\"read_heavy_1shard\",\"edit_pct\":5,\"clients\":{clients},\"shards\":1,\
         \"rounds\":{rounds},\"requests\":{single_requests},\"elapsed_s\":{elapsed:.4},\
         \"throughput_rps\":{single_shard_rps:.1},\"p50_us\":{p50_us:.2},\"p99_us\":{p99_us:.2}}}"
    ));
    let mut c = Client::connect(single_addr).expect("connect for shutdown");
    c.shutdown_server().expect("wire shutdown");
    single.shutdown();

    // Protocol v2 regimes over the same read-heavy op distribution:
    // K-outstanding pipelining of v1 singles, batch frames, and the
    // batched mix again while hundreds of idle connections sit in the
    // readiness loop's cold tier.
    let mut idle_flood: Vec<TcpStream> = Vec::new();
    let pipelined_mixes: [(&str, usize, usize, usize); 3] = [
        ("read_heavy_pipelined", 32, 1, 0),
        ("read_heavy_batched", 8, 16, 0),
        ("read_heavy_batched_idleflood", 8, 16, idle_conns),
    ];
    let mut pipelined_best = 0.0f64;
    for (name, depth, batch, idle) in pipelined_mixes {
        while idle_flood.len() < idle {
            let stream = TcpStream::connect(addr).expect("idle connect");
            stream.set_nodelay(true).expect("nodelay");
            idle_flood.push(stream);
        }
        let (elapsed, ops) =
            run_pipelined_mix(addr, name, clients, per_client_pipelined, 5, n, (depth, batch));
        let rps = ops as f64 / elapsed;
        println!(
            "  {name}: {rps:.0} op/s over {ops} ops \
             (depth {depth}, batch {batch}, {idle} idle conns)"
        );
        mix_rows.push(format!(
            "{{\"name\":\"{name}\",\"edit_pct\":5,\"clients\":{clients},\
             \"depth\":{depth},\"batch\":{batch},\"idle_conns\":{idle},\
             \"requests\":{ops},\"elapsed_s\":{elapsed:.4},\
             \"throughput_rps\":{rps:.1}}}"
        ));
        if idle == 0 {
            pipelined_best = pipelined_best.max(rps);
        }
    }
    drop(idle_flood);

    // Graceful shutdown: wire request, then a drained join. A hang
    // here (leaked connection thread, stuck worker) blocks the
    // benchmark and fails CI by timeout rather than hiding.
    let mut c = Client::connect(addr).expect("connect for shutdown");
    c.shutdown_server().expect("wire shutdown");
    let stats = server.shutdown();
    assert!(
        stats.requests
            >= smoke_requests
                + mud_requests
                + 2 * (clients * per_client) as u64
                + 3 * (clients * per_client_pipelined) as u64,
        "drained stats undercount: {stats:?}"
    );
    println!(
        "  shutdown drained: {} requests over {} connections \
         ({} busy rejections, {} protocol errors)",
        stats.requests, stats.connections, stats.rejected_busy, stats.protocol_errors
    );

    BenchReport::new("bench_server")
        .field_usize("n", n)
        .field_usize("shards", bucketrank_server::DEFAULT_SHARDS)
        .field_usize("clients", clients)
        .field_usize("per_client", per_client)
        .field_usize("per_client_pipelined", per_client_pipelined)
        .field_bool("fast", fast)
        .field_usize("total_requests", stats.requests as usize)
        .array("mixes", &mix_rows)
        .array("gates", &[shard_gate.json("read_heavy/shards_vs_single", 0.95)])
        .write(&out_path("BENCH_server.json"));

    let verdict = if read_heavy_rps >= 10_000.0 { "PASS" } else { "FAIL" };
    println!("acceptance gate read_heavy >= 10000 req/s: {read_heavy_rps:.0} [{verdict}]");

    // Protocol v2 acceptance: pipelining/batching must at least double
    // the single-outstanding read-heavy throughput measured in the
    // *same run* (not against a stale baseline). This one is a hard
    // gate — CI runs the fast pass under `set -e`.
    let speedup = pipelined_best / read_heavy_rps;
    let v2_verdict = if speedup >= 2.0 { "PASS" } else { "FAIL" };
    println!(
        "acceptance gate pipelined/batched read_heavy >= 2x single-outstanding: \
         {pipelined_best:.0} vs {read_heavy_rps:.0} ({speedup:.2}x) [{v2_verdict}]"
    );
    // Sharding acceptance: routing every request through the shard map
    // must not cost read-heavy throughput against the single-shard
    // build measured in the same run — median round ratio, 0.95×
    // noise floor.
    let shard_ratio = shard_gate.median;
    let shard_verdict = if shard_ratio >= 0.95 { "PASS" } else { "FAIL" };
    println!(
        "acceptance gate {}-shard read_heavy >= 0.95x single-shard (median of {} rounds): \
         {shard_ratio:.2}x (IQR {:.2}-{:.2}, single-shard best {single_shard_rps:.0} req/s) [{shard_verdict}]",
        bucketrank_server::DEFAULT_SHARDS,
        shard_gate.rounds,
        shard_gate.q1,
        shard_gate.q3
    );
    if speedup < 2.0 || shard_ratio < 0.95 {
        std::process::exit(1);
    }
}
