//! Property tests for the session LRU and the per-shard counters.
//!
//! Under a small `--max-sessions` cap, a durable [`Service`] must never
//! hold more residents than the cap, must evict exactly the
//! least-recently-touched session, and a faulted-back session must
//! serve state byte-identical to the naive reference model
//! `bucketrank_bench::model::ModelService`, which never evicts. The counter test hammers a shared service from
//! several threads and requires the per-shard atomics to aggregate to
//! exact totals — the regression guard for moving stats off a single
//! locked struct.

use bucketrank::server::proto::{Request, Response, WirePolicy};
use bucketrank::server::service::{Service, ServiceConfig};
use bucketrank_bench::model::ModelService;
use bucketrank_core::BucketOrder;
use bucketrank_testkit::prelude::*;
use bucketrank_testkit::TempDir;

/// The resident cap under test. Small enough that every script
/// overflows it, large enough that recency order is non-trivial.
const CAP: usize = 3;

/// `(n, per-session rankings, touches)` where each touch is
/// `(session index, kind)` — kind 0 reads, kind 1 pushes.
fn touch_scripts() -> impl Gen<Value = (usize, Vec<BucketOrder>, Vec<(usize, u8)>)> {
    gen::from_fn(|rng| {
        let n = rng.gen_range(2..=6usize);
        let sessions = rng.gen_range(CAP + 1..=CAP + 3);
        let rankings: Vec<BucketOrder> = (0..sessions)
            .map(|_| gen::bucket_order(n, 3).generate(rng))
            .collect();
        let touches: Vec<(usize, u8)> = (0..rng.gen_range(4..=24usize))
            .map(|_| {
                (
                    rng.gen_range(0..sessions as u32) as usize,
                    rng.gen_range(0..2u32) as u8,
                )
            })
            .collect();
        (n, rankings, touches)
    })
}

#[test]
fn lru_eviction_respects_the_cap_and_evicts_exactly_the_lru() {
    check(
        "lru_eviction_respects_the_cap_and_evicts_exactly_the_lru",
        touch_scripts(),
        |(n, rankings, touches)| {
            let sessions = rankings.len();
            let dir = TempDir::new("lru");
            let svc = Service::with_config(ServiceConfig {
                shards: 1,
                max_sessions: CAP,
                data_dir: Some(dir.path().to_path_buf()),
                checkpoint_every: u64::MAX,
            })
            .expect("durable service");
            // The model never evicts: state divergence after a
            // fault-in is exactly what this test exists to catch.
            let mut model = ModelService::new();
            let name = |i: usize| format!("s{i}");

            // The model: resident sessions in recency order, LRU
            // first, plus the counter totals the real service must
            // report after every step.
            let mut recency: Vec<usize> = Vec::new();
            let mut evictions = 0u64;
            let mut recoveries = 0u64;

            for (i, ranking) in rankings.iter().enumerate() {
                if recency.len() == CAP {
                    recency.remove(0);
                    evictions += 1;
                }
                recency.push(i);
                let create = Request::CreateSession {
                    name: name(i),
                    n: *n as u32,
                    policy: WirePolicy::Lower,
                };
                let push = Request::PushVoter {
                    session: name(i),
                    ranking: ranking.clone(),
                };
                for (req, want) in [
                    (create, Response::SessionCreated),
                    (push, Response::VoterPushed { voter: 0 }),
                ] {
                    assert_eq!(model.handle(&req), want);
                    assert_eq!(svc.handle(req), want);
                }
            }

            for &(i, kind) in touches {
                if let Some(pos) = recency.iter().position(|&x| x == i) {
                    recency.remove(pos);
                } else {
                    if recency.len() == CAP {
                        recency.remove(0);
                        evictions += 1;
                    }
                    recoveries += 1;
                }
                recency.push(i);

                let req = match kind {
                    0 => Request::MedianOrder { session: name(i) },
                    _ => Request::PushVoter {
                        session: name(i),
                        ranking: rankings[i].clone(),
                    },
                };
                assert_eq!(
                    svc.handle(req.clone()).encode(),
                    model.handle(&req).encode(),
                    "touch of {} diverged from the never-evicting model",
                    name(i)
                );

                let stats = &svc.stats()[0];
                assert!(stats.sessions as usize <= CAP, "cap exceeded: {stats:?}");
                assert_eq!(stats.sessions as usize, recency.len());
                assert_eq!(stats.evicted as usize, sessions - recency.len());
                assert_eq!(
                    stats.evictions, evictions,
                    "a non-LRU victim was evicted (model {recency:?})"
                );
                assert_eq!(
                    stats.recoveries, recoveries,
                    "a session the model holds resident was faulted in (model {recency:?})"
                );
            }

            // Every session — resident or faulting back in right now —
            // must serve bytes identical to the model's.
            for i in 0..sessions {
                for req in [
                    Request::MedianOrder { session: name(i) },
                    Request::TopK {
                        session: name(i),
                        k: 1,
                    },
                ] {
                    assert_eq!(
                        svc.handle(req.clone()).encode(),
                        model.handle(&req).encode(),
                        "faulted-back {} diverged from its pre-eviction state",
                        name(i)
                    );
                }
            }
        },
    );
}

#[test]
fn per_shard_counters_aggregate_exactly_under_concurrency() {
    const SESSIONS: usize = 8;
    const WRITERS: usize = 4;
    const READERS: usize = 2;
    const PUSHES: usize = 64;
    const READS: usize = 128;

    let dir = TempDir::new("lru");
    let svc = Service::with_config(ServiceConfig {
        shards: 4,
        max_sessions: 64,
        data_dir: Some(dir.path().to_path_buf()),
        checkpoint_every: u64::MAX,
    })
    .expect("durable service");
    let ranking = BucketOrder::from_keys(&[2, 1, 1, 3]);
    for i in 0..SESSIONS {
        assert_eq!(
            svc.handle(Request::CreateSession {
                name: format!("t{i}"),
                n: 4,
                policy: WirePolicy::Upper,
            }),
            Response::SessionCreated
        );
    }

    let svc = &svc;
    let ranking = &ranking;
    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            scope.spawn(move || {
                for j in 0..PUSHES {
                    let i = (t * PUSHES + j) % SESSIONS;
                    let resp = svc.handle(Request::PushVoter {
                        session: format!("t{i}"),
                        ranking: ranking.clone(),
                    });
                    assert!(matches!(resp, Response::VoterPushed { .. }), "{resp:?}");
                }
            });
        }
        for t in 0..READERS {
            scope.spawn(move || {
                for j in 0..READS {
                    let i = (t * READS + j) % SESSIONS;
                    // Reads race the pushes: either outcome is fine,
                    // they just must not disturb the write counters.
                    let _ = svc.handle(Request::MedianOrder {
                        session: format!("t{i}"),
                    });
                }
            });
        }
    });

    let stats = svc.stats();
    assert_eq!(stats.len(), 4, "one stats row per shard");
    assert_eq!(
        stats.iter().map(|s| s.wal_records).sum::<u64>(),
        (SESSIONS + WRITERS * PUSHES) as u64,
        "every acknowledged create and push logs exactly one record: {stats:?}"
    );
    let on_disk: u64 = (0..4)
        .map(|i| {
            std::fs::metadata(dir.path().join(format!("shard-{i}")).join("wal.log"))
                .map(|m| m.len())
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(
        stats.iter().map(|s| s.wal_bytes).sum::<u64>(),
        on_disk,
        "wal_bytes must agree with the files on disk"
    );
    assert_eq!(stats.iter().map(|s| s.sessions).sum::<u64>(), SESSIONS as u64);
    for s in &stats {
        assert_eq!(s.evicted, 0);
        assert_eq!(s.evictions, 0, "no shard is over its cap: {s:?}");
        assert_eq!(s.recoveries, 0, "nothing was evicted, so nothing faults in");
        assert_eq!(s.checkpoints, 0, "checkpoint_every is effectively off");
    }

    // The memory-only service shares the counter plumbing but must
    // report zero durability work.
    let mem = Service::new(16);
    mem.handle(Request::CreateSession {
        name: "m".into(),
        n: 4,
        policy: WirePolicy::Upper,
    });
    mem.handle(Request::PushVoter {
        session: "m".into(),
        ranking: ranking.clone(),
    });
    for s in mem.stats() {
        assert_eq!(
            (s.wal_records, s.wal_bytes, s.checkpoints, s.evictions, s.recoveries),
            (0, 0, 0, 0, 0),
            "memory-only service logged durability work: {s:?}"
        );
    }
}
