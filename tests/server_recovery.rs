//! Differential crash-recovery suite for the durable, sharded session
//! service (DESIGN.md §3.3e).
//!
//! Two crash models, both driven by random edit scripts from
//! `testkit::gen::edit_script_with_degenerates` and both compared
//! **byte-for-byte** against the naive reference model
//! `bucketrank_bench::model::ModelService` holding exactly the
//! acknowledged prefix:
//!
//! * **Edit-boundary crashes** (over real TCP): run a prefix of the
//!   script against a served instance, hard-stop the process state
//!   (shutdown never checkpoints — at the WAL level it is
//!   indistinguishable from a kill), rebind over the same
//!   `--data-dir`, and require every tally/median/snapshot reply —
//!   and the entire remainder of the script — byte-identical to the
//!   model.
//! * **Torn mid-record WAL tails** (in-process service): run the whole
//!   script, then truncate the shard's WAL at a byte offset strictly
//!   inside a record. Recovery must survive the torn tail, keep every
//!   record before it, and serve exactly the model of that prefix —
//!   the recovery invariant "acknowledged ⇒ replayed" on the
//!   surviving records, and nothing past the tear.
//!
//! The CI heavy lane (`BUCKETRANK_CI_HEAVY=1`) upgrades the sampled
//! tear to an exhaustive **every-byte-offset** matrix over fixed
//! scripts.

use bucketrank::server::proto::{ErrorCode, MetricKind, Request, Response, WirePolicy};
use bucketrank::server::service::{Service, ServiceConfig};
use bucketrank::server::wal::{WalOp, WalRecord, WalWriter};
use bucketrank::server::{Client, Server, ServerConfig};
use bucketrank::BucketOrder;
use bucketrank_bench::model::{assert_reply, ModelService};
use bucketrank_testkit::gen::{script_domain, EditOp};
use bucketrank_testkit::prelude::*;
use bucketrank_testkit::runner::case_rng;
use bucketrank_testkit::TempDir;
use std::path::{Path, PathBuf};

fn scripts() -> impl Gen<Value = Vec<EditOp>> {
    gen::edit_script_with_degenerates(3..=14, 6, 3)
}

/// Deterministic per-script entropy (the property only receives the
/// value, so crash points are derived from the script itself).
fn script_hash(script: &[EditOp]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for op in script {
        match op {
            EditOp::Push(r) => {
                eat(1);
                for e in 0..r.len() {
                    eat(r.bucket_index(e as u32) as u64);
                }
            }
            EditOp::Remove(i) => {
                eat(2);
                eat(*i as u64);
            }
            EditOp::Replace(i, r) => {
                eat(3);
                eat(*i as u64);
                for e in 0..r.len() {
                    eat(r.bucket_index(e as u32) as u64);
                }
            }
        }
    }
    h
}

/// The read battery compared byte-for-byte after every crash: the
/// median order, both top-k extremes, and a Kemeny cost.
fn read_battery(name: &str, n: usize) -> [Request; 4] {
    [
        Request::MedianOrder {
            session: name.to_owned(),
        },
        Request::TopK {
            session: name.to_owned(),
            k: 1,
        },
        Request::TopK {
            session: name.to_owned(),
            k: n as u32,
        },
        Request::KemenyCost {
            session: name.to_owned(),
            candidate: BucketOrder::trivial(n),
        },
    ]
}

/// Crash at a random edit boundary over real TCP: acknowledged prefix
/// applied, server shut down (no checkpoint — crash-equivalent),
/// rebound over the same data dir on a fresh port. The recovered
/// instance must answer the read battery, the script's remainder, and
/// a final pair-metric probe byte-identically to the model.
#[test]
fn crash_at_edit_boundary_recovers_acknowledged_prefix() {
    check("crash_at_edit_boundary", scripts(), |script| {
        let n = script_domain(script);
        let h = script_hash(script);
        let cut = (h % (script.len() as u64 + 1)) as usize;
        // Session name varies per case so both shards see traffic.
        let name = format!("s{}", h % 7);
        let tmp = TempDir::new("recovery-tcp");
        let config = || ServerConfig {
            workers: 2,
            service: ServiceConfig {
                shards: 2,
                data_dir: Some(tmp.path().to_path_buf()),
                // Small enough that longer scripts compact mid-run, so
                // recovery mixes checkpoints with a WAL suffix.
                checkpoint_every: 5,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        };

        let mut model = ModelService::new();
        let server = Server::bind("127.0.0.1:0", config()).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let create = Request::CreateSession {
            name: name.clone(),
            n: n as u32,
            policy: WirePolicy::Lower,
        };
        assert_reply(&mut client, &create, &model.handle(&create));
        for op in &script[..cut] {
            let req = model.resolve(&name, op);
            assert_reply(&mut client, &req, &model.handle(&req));
        }
        drop(client);
        // Graceful drain without checkpointing: everything past the
        // synced WAL is process state, and it dies here.
        server.shutdown();

        let server = Server::bind("127.0.0.1:0", config()).expect("rebind");
        let mut client = Client::connect(server.local_addr()).expect("reconnect");
        for req in &read_battery(&name, n) {
            assert_reply(&mut client, req, &model.handle(req));
        }
        // The remainder of the script must play out exactly as if the
        // crash never happened — including the ids of fresh pushes.
        for op in &script[cut..] {
            let req = model.resolve(&name, op);
            assert_reply(&mut client, &req, &model.handle(&req));
        }
        let (voter_a, voter_b) = model.oldest_and_newest(&name);
        let req = Request::PairMetric {
            session: name.clone(),
            metric: MetricKind::ALL[(h % 4) as usize],
            voter_a,
            voter_b,
        };
        assert_reply(&mut client, &req, &model.handle(&req));
        drop(client);
        server.shutdown();
    });
}

/// Byte offsets of record boundaries in a WAL: `bounds[i]` is where
/// record `i` starts; the final entry is the file length.
fn record_bounds(wal: &[u8]) -> Vec<usize> {
    let mut bounds = vec![0];
    let mut at = 0;
    while at + 8 <= wal.len() {
        let len = u32::from_be_bytes(wal[at..at + 4].try_into().unwrap()) as usize;
        if at + 8 + len > wal.len() {
            break;
        }
        at += 8 + len;
        bounds.push(at);
    }
    bounds
}

/// Runs `script` against a fresh single-shard durable service with
/// compaction disabled, so the WAL holds exactly one record per
/// acknowledged create/edit. Returns the resolved requests that were
/// acknowledged with success, in WAL-record order (create first).
fn run_durable(dir: &Path, name: &str, n: usize, script: &[EditOp]) -> Vec<Request> {
    let svc = Service::with_config(ServiceConfig {
        shards: 1,
        max_sessions: 64,
        data_dir: Some(dir.to_path_buf()),
        checkpoint_every: u64::MAX,
    })
    .expect("open service");
    let mut model = ModelService::new();
    let create = Request::CreateSession {
        name: name.to_owned(),
        n: n as u32,
        policy: WirePolicy::Lower,
    };
    assert_eq!(svc.handle(create.clone()), model.handle(&create));
    let mut acked = vec![create];
    for op in script {
        let req = model.resolve(name, op);
        let got = svc.handle(req.clone());
        assert_eq!(got, model.handle(&req), "live ack diverged on {req:?}");
        if !matches!(got, Response::Error { .. }) {
            acked.push(req);
        }
    }
    acked
}

/// Asserts a recovered single-shard service serves exactly the model of
/// the surviving `acked` records (a model that knows nothing of the
/// session when the create itself was torn away); returns both.
fn assert_recovers_prefix(
    dir: &Path,
    name: &str,
    n: usize,
    acked: &[Request],
) -> (Service, ModelService) {
    let mut model = ModelService::new();
    for req in acked {
        let resp = model.handle(req);
        assert!(
            !matches!(resp, Response::Error { .. }),
            "acknowledged record must replay clean"
        );
    }
    let svc = Service::with_config(ServiceConfig {
        shards: 1,
        max_sessions: 64,
        data_dir: Some(dir.to_path_buf()),
        checkpoint_every: u64::MAX,
    })
    .expect("recovery must not fail on torn/corrupt records");
    for req in read_battery(name, n) {
        assert_eq!(
            svc.handle(req.clone()).encode(),
            model.handle(&req).encode(),
            "torn-tail recovery diverged on {req:?}"
        );
    }
    (svc, model)
}

/// Torn mid-record tails at a sampled offset: truncating the WAL
/// strictly inside record `j` must recover exactly records `0..j`.
#[test]
fn torn_wal_tail_recovers_exactly_the_surviving_records() {
    check("torn_wal_tail", scripts(), |script| {
        let n = script_domain(script);
        let h = script_hash(script);
        let name = "torn";
        let tmp = TempDir::new("recovery-torn");
        let acked = run_durable(tmp.path(), name, n, script);

        let wal_path = tmp.path().join("shard-0").join("wal.log");
        let wal = std::fs::read(&wal_path).expect("read wal");
        let bounds = record_bounds(&wal);
        assert_eq!(
            bounds.len(),
            acked.len() + 1,
            "one WAL record per acknowledged op"
        );
        // Tear strictly inside record j: any offset in
        // (bounds[j], bounds[j+1]) leaves records 0..j intact and
        // truncates j away as a torn tail.
        let j = (h % acked.len() as u64) as usize;
        let span = bounds[j + 1] - bounds[j];
        let tear = bounds[j] + 1 + (h >> 8) as usize % (span - 1);
        std::fs::write(&wal_path, &wal[..tear]).expect("tear wal");

        assert_recovers_prefix(tmp.path(), name, n, &acked[..j]);
    });
}

/// Bit-flips inside a record body must truncate recovery at that
/// record (CRC catches them), never panic, and never leak anything
/// past the corrupt record into the recovered state.
#[test]
fn corrupt_wal_record_truncates_recovery_at_the_fault() {
    check("corrupt_wal_record", scripts(), |script| {
        let n = script_domain(script);
        let h = script_hash(script);
        let name = "torn";
        let tmp = TempDir::new("recovery-flip");
        let acked = run_durable(tmp.path(), name, n, script);

        let wal_path = tmp.path().join("shard-0").join("wal.log");
        let mut wal = std::fs::read(&wal_path).expect("read wal");
        let bounds = record_bounds(&wal);
        let j = (h % acked.len() as u64) as usize;
        // Flip one bit somewhere in record j (header or body alike).
        let span = bounds[j + 1] - bounds[j];
        let at = bounds[j] + (h >> 8) as usize % span;
        wal[at] ^= 1 << ((h >> 16) % 8);
        std::fs::write(&wal_path, &wal).expect("corrupt wal");

        assert_recovers_prefix(tmp.path(), name, n, &acked[..j]);
    });
}

/// The reviewer-found drop-anchor regression: after a compaction, edit
/// a session, drop it (which deletes its checkpoint — the only anchor
/// the pre-drop edit record had), then create and edit a *different*
/// session and crash. Replay must skip the unanchorable pre-drop edit
/// (its later Drop record proves it unobservable) instead of faulting
/// and discarding the second session's acknowledged records.
#[test]
fn drop_after_compaction_edit_does_not_fault_later_sessions() {
    let tmp = TempDir::new("recovery-drop-anchor");
    let cfg = || ServiceConfig {
        shards: 1,
        max_sessions: 64,
        data_dir: Some(tmp.path().to_path_buf()),
        checkpoint_every: 5,
    };
    let keys = |k: &[i64]| BucketOrder::from_keys(k);
    let t_ranking = keys(&[2, 1, 3]);
    {
        let svc = Service::with_config(cfg()).expect("open");
        assert_eq!(
            svc.handle(Request::CreateSession {
                name: "s".into(),
                n: 3,
                policy: WirePolicy::Lower,
            }),
            Response::SessionCreated
        );
        // Records 2..=5: the 4th push makes since_compact hit 5, so the
        // shard compacts — checkpoint for "s" current, WAL empty.
        for _ in 0..4 {
            assert!(matches!(
                svc.handle(Request::PushVoter {
                    session: "s".into(),
                    ranking: keys(&[1, 2, 3]),
                }),
                Response::VoterPushed { .. }
            ));
        }
        // Post-compaction: edit "s" (in the WAL, anchored only by the
        // checkpoint), drop "s" (checkpoint deleted), then create and
        // edit "t" — all acknowledged, none compacted.
        assert!(matches!(
            svc.handle(Request::PushVoter {
                session: "s".into(),
                ranking: keys(&[3, 2, 1]),
            }),
            Response::VoterPushed { .. }
        ));
        assert_eq!(
            svc.handle(Request::DropSession { name: "s".into() }),
            Response::SessionDropped
        );
        assert_eq!(
            svc.handle(Request::CreateSession {
                name: "t".into(),
                n: 3,
                policy: WirePolicy::Lower,
            }),
            Response::SessionCreated
        );
        assert_eq!(
            svc.handle(Request::PushVoter {
                session: "t".into(),
                ranking: t_ranking.clone(),
            }),
            Response::VoterPushed { voter: 0 }
        );
        // Hard drop: no checkpoint fires for "t" before the crash.
    }
    let svc = Service::with_config(cfg()).expect("recovery must survive the dropped anchor");
    // "t" and its acknowledged edit survived the crash.
    assert_eq!(
        svc.handle(Request::MedianOrder { session: "t".into() }),
        Response::Ranking {
            order: t_ranking.clone()
        }
    );
    // Voter ids continue exactly where the pre-crash process stopped.
    assert_eq!(
        svc.handle(Request::PushVoter {
            session: "t".into(),
            ranking: t_ranking,
        }),
        Response::VoterPushed { voter: 1 }
    );
    // The dropped session stayed dropped (no resurrection from any
    // leftover checkpoint or skipped record).
    assert!(matches!(
        svc.handle(Request::MedianOrder { session: "s".into() }),
        Response::Error {
            code: ErrorCode::UnknownSession,
            ..
        }
    ));
}

/// Files named `wal.log.corrupt-*` in a shard directory.
fn preserved_logs(shard_dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(shard_dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|s| s.to_str())
                        .is_some_and(|s| s.starts_with("wal.log.corrupt-"))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// A mid-log corruption (here a CRC flip) discards everything after
/// the fault, so recovery must set the log aside as
/// `wal.log.corrupt-*` for post-mortem before compaction truncates it;
/// a pure torn tail — the normal residue of a crash mid-append — must
/// *not* litter the directory with preserved copies.
#[test]
fn corrupt_wal_suffix_is_preserved_for_post_mortem() {
    let keys = |k: &[i64]| BucketOrder::from_keys(k);
    let script: Vec<EditOp> = vec![
        EditOp::Push(keys(&[1, 2, 3])),
        EditOp::Push(keys(&[3, 2, 1])),
        EditOp::Push(keys(&[2, 1, 3])),
    ];
    let name = "torn";

    // CRC flip in record 1: records 2.. are silently unreachable, so
    // the log must be preserved.
    let tmp = TempDir::new("recovery-preserve");
    let acked = run_durable(tmp.path(), name, 3, &script);
    let shard_dir = tmp.path().join("shard-0");
    let wal_path = shard_dir.join("wal.log");
    let mut wal = std::fs::read(&wal_path).expect("read wal");
    let bounds = record_bounds(&wal);
    wal[bounds[1] + 4] ^= 1; // CRC byte of record 1: guaranteed BadCrc
    std::fs::write(&wal_path, &wal).expect("corrupt wal");
    assert_recovers_prefix(tmp.path(), name, 3, &acked[..1]);
    let kept = preserved_logs(&shard_dir);
    assert_eq!(
        kept.len(),
        1,
        "a mid-log corruption must preserve the log: {kept:?}"
    );
    // The preserved copy holds the full pre-corruption byte stream.
    assert_eq!(std::fs::read(&kept[0]).expect("read preserved"), wal);

    // Torn tail: same script, truncate strictly inside the last
    // record. Recovery keeps the prefix and preserves nothing.
    let tmp = TempDir::new("recovery-tear-clean");
    let acked = run_durable(tmp.path(), name, 3, &script);
    let shard_dir = tmp.path().join("shard-0");
    let wal_path = shard_dir.join("wal.log");
    let wal = std::fs::read(&wal_path).expect("read wal");
    let bounds = record_bounds(&wal);
    let last = bounds.len() - 2;
    std::fs::write(&wal_path, &wal[..bounds[last] + 3]).expect("tear wal");
    assert_recovers_prefix(tmp.path(), name, 3, &acked[..last]);
    assert!(
        preserved_logs(&shard_dir).is_empty(),
        "a plain torn tail must not be preserved"
    );
}

/// A log whose acknowledged prefix (a 3-element session holding
/// voters 0 and 1) is followed by `bad`, a CRC-valid record the engine
/// refuses, and then a well-formed push that replay would accept
/// without the refusal. Recovery must serve exactly the model of the
/// prefix — nothing of `bad` or of the push after it — keep the log
/// for post-mortem, and give the next push id 2.
fn assert_replay_refuses(bad: WalOp) {
    let keys = |k: &[i64]| BucketOrder::from_keys(k);
    let name = "torn";
    let script = [
        EditOp::Push(keys(&[1, 2, 3])),
        EditOp::Push(keys(&[1, 1, 2])),
    ];
    let tmp = TempDir::new("recovery-refused");
    let acked = run_durable(tmp.path(), name, 3, &script);
    let shard_dir = tmp.path().join("shard-0");
    let mut wal = WalWriter::open(&shard_dir.join("wal.log")).expect("open wal");
    let after = WalOp::Push {
        name: name.into(),
        voter: 2,
        ranking: keys(&[3, 2, 1]),
    };
    for (seq, op) in (acked.len() as u64 + 1..).zip([bad.clone(), after]) {
        wal.append(&WalRecord { seq, op }).expect("append");
    }
    let written = std::fs::read(wal.path()).expect("read wal");

    let (svc, mut model) = assert_recovers_prefix(tmp.path(), name, 3, &acked);
    let kept = preserved_logs(&shard_dir);
    assert_eq!(kept.len(), 1, "{bad:?}: the log must be kept: {kept:?}");
    assert_eq!(std::fs::read(&kept[0]).expect("read kept"), written);
    // Every id the refused record, the push after it, or a replay that
    // let either through would hold is still unknown.
    for voter in 2..=7 {
        let req = Request::RemoveVoter {
            session: name.into(),
            voter,
        };
        assert_eq!(
            svc.handle(req.clone()),
            model.handle(&req),
            "{bad:?}: voter {voter}"
        );
    }
    let push = Request::PushVoter {
        session: name.into(),
        ranking: keys(&[2, 2, 1]),
    };
    let reply = svc.handle(push.clone());
    assert_eq!(
        reply,
        Response::VoterPushed { voter: 2 },
        "{bad:?}: next id"
    );
    assert_eq!(reply, model.handle(&push));
}

/// A push whose logged voter id is not the one the engine assigns
/// (`WalError::IdMismatch`; the engine's next id is 2).
#[test]
fn push_with_a_foreign_voter_id_stops_replay_before_it() {
    assert_replay_refuses(WalOp::Push {
        name: "torn".into(),
        voter: 5,
        ranking: BucketOrder::from_keys(&[3, 3, 1]),
    });
}

/// A remove or replace of a voter that is not live (`WalError::Edit`
/// carrying the engine's `UnknownVoter`).
#[test]
fn edit_of_a_dead_voter_stops_replay_before_it() {
    assert_replay_refuses(WalOp::Remove {
        name: "torn".into(),
        voter: 7,
    });
    assert_replay_refuses(WalOp::Replace {
        name: "torn".into(),
        voter: 7,
        ranking: BucketOrder::from_keys(&[3, 3, 1]),
    });
}

/// The CI heavy lane's exhaustive matrix: for a handful of fixed
/// scripts, every byte offset of the WAL is used as a truncation
/// point. `truncate at offset t` keeps exactly the records that fit
/// entirely below `t` — recovery must serve precisely their model,
/// for every single `t`.
#[test]
#[ignore = "exhaustive torn-offset matrix; run in the CI heavy lane"]
fn every_torn_offset_recovers_its_exact_prefix() {
    let cfg = Config::from_env();
    for case in 0..4usize {
        let mut rng = case_rng(cfg.seed, "torn_offset_matrix", case);
        let script = scripts().generate(&mut rng);
        let n = script_domain(&script);
        let name = "torn";
        let master = TempDir::new("recovery-matrix-master");
        let acked = run_durable(master.path(), name, n, &script);
        let wal_path = master.path().join("shard-0").join("wal.log");
        let wal = std::fs::read(&wal_path).expect("read wal");
        let bounds = record_bounds(&wal);

        let shard_dir = master.path().join("shard-0");
        for tear in 0..=wal.len() {
            // Recovery compacts (checkpoints + truncation), so rebuild
            // the shard directory from the saved WAL copy every time.
            let _ = std::fs::remove_dir_all(&shard_dir);
            std::fs::create_dir_all(&shard_dir).expect("recreate shard dir");
            std::fs::write(&wal_path, &wal[..tear]).expect("tear wal");
            // Records surviving a tear at `tear`: those ending ≤ tear.
            let survivors = bounds[1..].iter().filter(|&&b| b <= tear).count();
            assert_recovers_prefix(master.path(), name, n, &acked[..survivors]);
        }
    }
}
