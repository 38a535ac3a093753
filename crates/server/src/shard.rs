//! The sharded session registry: per-shard edit locks, durability and
//! LRU eviction.
//!
//! A [`crate::Service`] owns N [`Shard`]s; a session lives on the
//! shard named by a stable FNV-1a hash of its name ([`shard_index`] —
//! stable across processes, so a restart finds each session's records
//! in the same shard directory). Each shard owns, behind **one**
//! mutex:
//!
//! * its slice of the session map (resident engines and evicted
//!   checkpoint references),
//! * its monotonic edit sequence number,
//! * its durability state (WAL writer, checkpoint file ids,
//!   compaction countdown).
//!
//! Edits on different shards therefore never contend, while edits on
//! one shard serialize — which is also what makes the WAL order equal
//! the acknowledgement order. Reads never take the shard mutex beyond
//! name resolution (and not even that when the caller's session cache
//! is hot): they clone the session's published
//! `Arc<DynamicSnapshot>` and compute on it outside every lock.
//!
//! # Lock order
//!
//! `Shard::state` → `Session::profile` → `Session::snap`, always.
//! Eviction and compaction hold the shard mutex and take session
//! profile mutexes inside it; the pair-metric path takes a profile
//! mutex alone and never touches the shard mutex afterwards.
//!
//! # Durability
//!
//! With a data directory configured, every acknowledged lifecycle or
//! edit operation appends one [`WalRecord`] — synced before the
//! acknowledgement — and every `checkpoint_every` records the shard
//! compacts: stale sessions are checkpointed (atomic tmp+rename),
//! superseded checkpoint files deleted, and the WAL truncated to
//! empty. Recovery ([`Shard::open`]) loads the checkpoints, replays
//! the WAL's valid prefix seq-gated per session (a record is applied
//! only if its `seq` exceeds the session's checkpointed `last_seq`,
//! so eviction checkpoints never double-apply), truncates corruption
//! at the first fault, and ends with a full compaction — after a
//! restart the log is empty and every session's checkpoint is
//! current.

use crate::proto::{ErrorCode, Response, ShardStats, WirePolicy};
use crate::wal::{self, Checkpoint, WalError, WalOp, WalRecord, WalWriter};
use bucketrank_aggregate::dynamic::{DynamicProfile, DynamicSnapshot, VoterId};
use bucketrank_aggregate::{AggregateError, MedianPolicy};
use bucketrank_core::BucketOrder;
use std::cell::Cell;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Stable shard map: FNV-1a over the session name, reduced mod the
/// shard count. Deliberately **not** the std hasher — the mapping must
/// survive process restarts and toolchain upgrades, because it names
/// the directory a session's durable records live in.
pub(crate) fn shard_index(name: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

thread_local! {
    /// This thread's retired snapshot, recycled by the next
    /// [`Session::publish`] it runs (`const`: no lazy-init check on the
    /// publish path).
    static SPARE: Cell<Option<DynamicSnapshot>> = const { Cell::new(None) };
}

/// One named session: the live engine plus its published read view.
pub(crate) struct Session {
    /// Edit path: owned exclusively by one writer at a time.
    pub(crate) profile: Mutex<DynamicProfile>,
    /// Read path: the snapshot at the last successful edit (`None`
    /// while the session has no live voters).
    snap: RwLock<Option<Arc<DynamicSnapshot>>>,
    /// LRU clock value of the last touch (shard-issued, strictly
    /// increasing per touch).
    touched: AtomicU64,
}

impl Session {
    fn new(dp: DynamicProfile) -> Self {
        let snap = dp.snapshot().ok().map(Arc::new);
        Session {
            profile: Mutex::new(dp),
            snap: RwLock::new(snap),
            touched: AtomicU64::new(0),
        }
    }

    /// Republishes the snapshot after an edit (called with the edit
    /// mutex held, so publications are ordered with the edits).
    ///
    /// The new snapshot is copied into this thread's spare — a retired
    /// snapshot of any session — so a steady edit stream allocates no
    /// fresh matrix per edit. The new `Arc` is swapped in under the
    /// write lock; after the lock is released the old one is unwrapped,
    /// and if no reader still holds it, it becomes the thread's next
    /// spare. A snapshot a reader holds is left to that reader, who
    /// drops it when done, so a held view is never overwritten. Each
    /// thread keeps at most one spare, so the retained copies are
    /// bounded by the worker count, not the session count.
    pub(crate) fn publish(&self, dp: &DynamicProfile) {
        let fresh = SPARE
            .with(|spare| dp.snapshot_reusing(spare.take()))
            .ok()
            .map(Arc::new);
        let old = std::mem::replace(&mut *self.snap.write().expect("snapshot lock"), fresh);
        if let Some(retired) = old.and_then(|arc| Arc::try_unwrap(arc).ok()) {
            SPARE.with(|spare| spare.set(Some(retired)));
        }
    }

    /// The published read view, if any voter is live.
    pub(crate) fn read_view(&self) -> Option<Arc<DynamicSnapshot>> {
        self.snap.read().expect("snapshot lock").clone()
    }
}

/// Maps an engine failure to its typed wire error.
pub(crate) fn agg_error(e: &AggregateError) -> Response {
    let code = match e {
        AggregateError::NoInputs => ErrorCode::NoVoters,
        AggregateError::DomainMismatch { .. } => ErrorCode::DomainMismatch,
        AggregateError::InvalidK { .. } => ErrorCode::InvalidK,
        AggregateError::UnknownVoter { .. } => ErrorCode::UnknownVoter,
        AggregateError::TooManyVoters { .. } => ErrorCode::TooManyVoters,
        _ => ErrorCode::BadRequest,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// A typed wire error.
pub(crate) fn error(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

fn unknown_session(name: &str) -> Response {
    error(ErrorCode::UnknownSession, format!("no session named {name:?}"))
}

fn io_response(what: &str, e: &io::Error) -> Response {
    error(ErrorCode::BadRequest, format!("{what}: {e}"))
}

/// An edit against a named session, as the shard applies and logs it.
pub(crate) enum Edit {
    /// Push a voter.
    Push {
        /// The pushed ranking.
        ranking: BucketOrder,
    },
    /// Remove a live voter.
    Remove {
        /// The raw voter id.
        voter: u64,
    },
    /// Replace a live voter's ranking.
    Replace {
        /// The raw voter id.
        voter: u64,
        /// The replacement ranking.
        ranking: BucketOrder,
    },
}

/// A checkpoint file reference: its monotonic file id and the shard
/// sequence number its contents are current through.
#[derive(Clone, Copy)]
struct CkptRef {
    id: u64,
    seq: u64,
}

fn ckpt_file(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("ckpt-{id}.bin"))
}

/// A session slot: in memory, or evicted to its checkpoint file.
enum Slot {
    Resident {
        session: Arc<Session>,
        /// Shard sequence number of the session's last applied record
        /// (0 for memory-only shards, which write no records).
        last_seq: u64,
        /// The on-disk checkpoint covering this session, if any.
        ckpt: Option<CkptRef>,
    },
    Evicted {
        ckpt: CkptRef,
    },
}

struct Durability {
    dir: PathBuf,
    wal: WalWriter,
    next_file_id: u64,
    checkpoint_every: u64,
    since_compact: u64,
}

struct ShardState {
    slots: HashMap<String, Slot>,
    /// The shard's monotonic edit sequence number (last issued).
    seq: u64,
    dur: Option<Durability>,
}

/// Per-shard monotonic counters, updated with atomics so paths that do
/// not hold the shard mutex (LRU touches) and the aggregating stats
/// reader never contend with the edit path.
#[derive(Default)]
pub(crate) struct ShardCounters {
    pub(crate) wal_records: AtomicU64,
    pub(crate) checkpoints: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) recoveries: AtomicU64,
}

/// One shard; see the [module docs](self).
pub(crate) struct Shard {
    /// Resident-session cap for this shard.
    cap: usize,
    /// The service-wide cap, quoted in capacity error messages.
    global_cap: usize,
    /// LRU clock: bumped on every touch, never under the mutex.
    tick: AtomicU64,
    /// Bumped on every create/drop/evict/fault-in; callers holding a
    /// cached `Arc<Session>` revalidate against it so a cached read
    /// can never see a session object the registry has replaced.
    epoch: AtomicU64,
    counters: ShardCounters,
    state: Mutex<ShardState>,
}

impl Shard {
    /// A memory-only shard (no WAL, no checkpoints, no eviction — at
    /// capacity, creates are refused exactly as before sharding).
    pub(crate) fn new(cap: usize, global_cap: usize) -> Shard {
        Shard {
            cap,
            global_cap,
            tick: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            counters: ShardCounters::default(),
            state: Mutex::new(ShardState {
                slots: HashMap::new(),
                seq: 0,
                dur: None,
            }),
        }
    }

    /// Opens a durable shard over `dir`, recovering whatever a prior
    /// process left there: checkpoints are loaded, the WAL's valid
    /// prefix replayed seq-gated, corruption truncated at the first
    /// fault, and the shard fully compacted before serving.
    ///
    /// # Errors
    /// Real I/O failures only — corrupt records and checkpoints are
    /// typed, truncated and survived, never fatal.
    pub(crate) fn open(
        cap: usize,
        global_cap: usize,
        dir: PathBuf,
        checkpoint_every: u64,
    ) -> io::Result<Shard> {
        fs::create_dir_all(&dir)?;
        // Make the shard directory's own entry durable; the files
        // inside sync their entries as they are created/renamed.
        wal::sync_dir(&dir)?;
        // A tmp file is a checkpoint whose rename never happened —
        // dead by construction.
        let mut ckpts: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(&path);
            } else if let Some(id) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".bin"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                ckpts.push((id, path));
            }
        }
        let next_file_id = ckpts.iter().map(|&(id, _)| id + 1).max().unwrap_or(0);

        // Load checkpoints; on duplicate session names (a crash between
        // writing a fresh checkpoint and deleting the superseded one)
        // the higher last_seq wins. Corrupt checkpoint files are
        // skipped — the orphan cleanup below removes them.
        let mut by_name: HashMap<String, (u64, Checkpoint)> = HashMap::new();
        for (id, path) in ckpts {
            let ck = match Checkpoint::read(&path)? {
                Ok(ck) => ck,
                Err(_) => continue,
            };
            match by_name.get(&ck.name) {
                Some((_, held)) if held.last_seq >= ck.last_seq => {}
                _ => {
                    by_name.insert(ck.name.clone(), (id, ck));
                }
            }
        }

        struct Rebuilt {
            dp: DynamicProfile,
            last_seq: u64,
            ckpt: Option<CkptRef>,
        }
        let mut sessions: HashMap<String, Rebuilt> = HashMap::new();
        let mut seq = 0u64;
        for (name, (id, ck)) in by_name {
            let policy = match ck.policy {
                WirePolicy::Lower => MedianPolicy::Lower,
                WirePolicy::Upper => MedianPolicy::Upper,
            };
            let Ok(dp) = DynamicProfile::from_voters(ck.n as usize, policy, ck.voters, ck.next_id)
            else {
                // The file framed and decoded but its contents are
                // inconsistent (duplicate ids, id ≥ next_id): typed
                // corruption, skipped like a CRC failure.
                continue;
            };
            seq = seq.max(ck.last_seq);
            sessions.insert(
                name,
                Rebuilt {
                    dp,
                    last_seq: ck.last_seq,
                    ckpt: Some(CkptRef {
                        id,
                        seq: ck.last_seq,
                    }),
                },
            );
        }

        // Replay the WAL's valid prefix; stop — without panicking and
        // without applying anything further — at the first record that
        // is torn, corrupt, or inconsistent with the rebuilt state.
        let wal_path = dir.join("wal.log");
        let wal_len = fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
        let scan = wal::scan_file(&wal_path)?;
        // A dropped session's checkpoint file is deleted the moment its
        // Drop record is acknowledged, so the log can hold edit records
        // for a session with no surviving anchor (compact, edit, drop:
        // the edits are in the log, the checkpoint is gone). The Drop
        // record that follows them proves their effects are
        // unobservable — map each name to its last drop seq so replay
        // skips those records instead of faulting and discarding every
        // acknowledged record after them.
        let mut drop_horizon: HashMap<String, u64> = HashMap::new();
        for rec in &scan.records {
            if let WalOp::Drop { name } = &rec.op {
                drop_horizon.insert(name.clone(), rec.seq);
            }
        }
        let total_records = scan.records.len();
        let mut fault_at: Option<usize> = None;
        let mut replay_fault: Option<WalError> = None;
        'replay: for (idx, rec) in scan.records.into_iter().enumerate() {
            seq = seq.max(rec.seq);
            let name = rec.op.session().to_owned();
            match rec.op {
                WalOp::Create { name, n, policy } => match sessions.get(&name) {
                    Some(r) if rec.seq <= r.last_seq => {}
                    Some(_) => {
                        replay_fault = Some(WalError::DuplicateCreate { seq: rec.seq, name });
                        fault_at = Some(idx);
                        break 'replay;
                    }
                    None => {
                        let policy = match policy {
                            WirePolicy::Lower => MedianPolicy::Lower,
                            WirePolicy::Upper => MedianPolicy::Upper,
                        };
                        sessions.insert(
                            name,
                            Rebuilt {
                                dp: DynamicProfile::new(n as usize, policy),
                                last_seq: rec.seq,
                                ckpt: None,
                            },
                        );
                    }
                },
                WalOp::Drop { name } => {
                    if let Some(r) = sessions.get(&name) {
                        if rec.seq > r.last_seq {
                            sessions.remove(&name);
                        }
                    }
                }
                op => {
                    let Some(r) = sessions.get_mut(&name) else {
                        if drop_horizon.get(&name).is_some_and(|&d| rec.seq < d) {
                            // The session these edits built was dropped
                            // later in this same log (which is why its
                            // checkpoint anchor is gone): every effect
                            // is unobservable, skipping is exact.
                            continue;
                        }
                        replay_fault = Some(WalError::UnknownSession { seq: rec.seq, name });
                        fault_at = Some(idx);
                        break 'replay;
                    };
                    if rec.seq <= r.last_seq {
                        continue;
                    }
                    let applied: Result<(), WalError> = match op {
                        WalOp::Push { voter, ranking, .. } => {
                            match r.dp.push_voter(ranking) {
                                Ok(id) if id.raw() == voter => Ok(()),
                                Ok(id) => {
                                    // The log says this push was issued
                                    // a different id than the engine
                                    // reproduces: retract it so the
                                    // surviving state is exactly the
                                    // record's predecessors.
                                    let _ = r.dp.remove_voter(id);
                                    Err(WalError::IdMismatch {
                                        seq: rec.seq,
                                        expected: voter,
                                        found: id.raw(),
                                    })
                                }
                                Err(e) => Err(WalError::Edit {
                                    seq: rec.seq,
                                    error: e,
                                }),
                            }
                        }
                        WalOp::Remove { voter, .. } => r
                            .dp
                            .remove_voter(VoterId::from_raw(voter))
                            .map(|_| ())
                            .map_err(|e| WalError::Edit {
                                seq: rec.seq,
                                error: e,
                            }),
                        WalOp::Replace { voter, ranking, .. } => r
                            .dp
                            .replace_voter(VoterId::from_raw(voter), ranking)
                            .map(|_| ())
                            .map_err(|e| WalError::Edit {
                                seq: rec.seq,
                                error: e,
                            }),
                        WalOp::Create { .. } | WalOp::Drop { .. } => unreachable!("handled above"),
                    };
                    match applied {
                        Ok(()) => r.last_seq = rec.seq,
                        Err(e) => {
                            replay_fault = Some(e);
                            fault_at = Some(idx);
                            break 'replay;
                        }
                    }
                }
            }
        }
        if replay_fault.is_none() {
            replay_fault = scan.corruption;
        }
        // Surface the fault for operators without failing startup: the
        // valid prefix stands, and the compaction below resets the log.
        // A torn tail is the expected residue of a crash mid-append (the
        // partial record was never acknowledged, nothing is lost); any
        // other fault discards a suffix that may hold acknowledged
        // records, so the whole log is preserved for post-mortem before
        // compaction truncates it.
        if let Some(fault) = &replay_fault {
            let unapplied = fault_at.map_or(0, |i| total_records - i);
            let tail_bytes = wal_len.saturating_sub(scan.valid_len);
            let benign_tear = matches!(fault, WalError::TornTail { .. }) && unapplied == 0;
            let preserved = if benign_tear {
                None
            } else {
                wal::preserve_corrupt(&wal_path)
            };
            let kept = match &preserved {
                Some(p) => format!("; log preserved at {}", p.display()),
                None if benign_tear => String::new(),
                None => "; log could NOT be preserved".to_owned(),
            };
            eprintln!(
                "bucketrank-server: WAL recovery truncated at a fault: {fault} \
                 ({unapplied} decoded records and {tail_bytes} trailing bytes discarded{kept})"
            );
        }

        let shard = Shard {
            cap,
            global_cap,
            tick: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            counters: ShardCounters::default(),
            state: Mutex::new(ShardState {
                slots: HashMap::new(),
                seq,
                dur: Some(Durability {
                    dir,
                    wal: WalWriter::open(&wal_path)?,
                    next_file_id,
                    checkpoint_every: checkpoint_every.max(1),
                    since_compact: 0,
                }),
            }),
        };
        let recovered = sessions.len() as u64;
        {
            let mut st = shard.state.lock().expect("shard lock");
            // Materialize every recovered session, then compact so the
            // WAL restarts empty with every checkpoint current — only
            // after that can sessions beyond the cap be evicted without
            // further writes.
            let mut names: Vec<String> = sessions.keys().cloned().collect();
            names.sort_unstable();
            for (name, r) in sessions {
                st.slots.insert(
                    name,
                    Slot::Resident {
                        session: Arc::new(Session::new(r.dp)),
                        last_seq: r.last_seq,
                        ckpt: r.ckpt,
                    },
                );
            }
            shard.compact_locked(&mut st)?;
            // Evict down to the cap, deterministically (reverse name
            // order goes to disk first); checkpoints are current, so
            // eviction here writes nothing.
            let mut resident = st
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Resident { .. }))
                .count();
            for name in names.iter().rev() {
                if resident <= shard.cap {
                    break;
                }
                if shard.evict_one(&mut st, name).is_ok() {
                    resident -= 1;
                }
            }
        }
        shard.counters.recoveries.store(recovered, Ordering::Relaxed);
        Ok(shard)
    }

    /// The capacity rejection. The budget is enforced per shard — the
    /// global `max_sessions` is split `ceil(max_sessions / shards)`
    /// ways by the stable name hash — so the message quotes both the
    /// shard's share and the configured budget rather than implying a
    /// single global counter.
    fn capacity_message(&self) -> String {
        if self.cap == self.global_cap {
            format!("server is at its {}-session capacity", self.global_cap)
        } else {
            format!(
                "session shard is at its {}-session share of the {}-session budget \
                 (the budget is split per shard by the session-name hash)",
                self.cap, self.global_cap
            )
        }
    }

    /// The lifecycle epoch; cached `Arc<Session>`s are valid while it
    /// is unchanged.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Marks a session as just-used for LRU purposes. Lock-free.
    pub(crate) fn touch(&self, session: &Session) {
        let t = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        session.touched.store(t, Ordering::Relaxed);
    }

    /// Number of resident sessions.
    pub(crate) fn resident(&self) -> usize {
        self.state
            .lock()
            .expect("shard lock")
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Resident { .. }))
            .count()
    }

    /// This shard's stats row.
    pub(crate) fn stats(&self) -> ShardStats {
        let st = self.state.lock().expect("shard lock");
        let (mut sessions, mut evicted) = (0u64, 0u64);
        for slot in st.slots.values() {
            match slot {
                Slot::Resident { .. } => sessions += 1,
                Slot::Evicted { .. } => evicted += 1,
            }
        }
        ShardStats {
            sessions,
            evicted,
            wal_records: self.counters.wal_records.load(Ordering::Relaxed),
            wal_bytes: st.dur.as_ref().map_or(0, |d| d.wal.bytes()),
            checkpoints: self.counters.checkpoints.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            recoveries: self.counters.recoveries.load(Ordering::Relaxed),
        }
    }

    /// Creates a session (name/domain bounds are the caller's job).
    pub(crate) fn create(&self, name: &str, n: usize, policy: WirePolicy) -> Response {
        let mut st = self.state.lock().expect("shard lock");
        if st.slots.contains_key(name) {
            return error(
                ErrorCode::SessionExists,
                format!("session {name:?} already exists"),
            );
        }
        let resident = st
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Resident { .. }))
            .count();
        if resident >= self.cap {
            if st.dur.is_some() {
                if let Some(victim) = self.lru_victim(&st) {
                    if let Err(e) = self.evict_one(&mut st, &victim) {
                        return io_response("eviction checkpoint failed", &e);
                    }
                } else {
                    return error(ErrorCode::BadRequest, self.capacity_message());
                }
            } else {
                return error(ErrorCode::BadRequest, self.capacity_message());
            }
        }
        let mut last_seq = 0;
        if st.dur.is_some() {
            let rec = WalRecord {
                seq: st.seq + 1,
                op: WalOp::Create {
                    name: name.to_owned(),
                    n: n as u32,
                    policy,
                },
            };
            if let Err(e) = self.append_locked(&mut st, &rec) {
                return io_response("write-ahead log append failed", &e);
            }
            last_seq = st.seq;
        }
        let mp = match policy {
            WirePolicy::Lower => MedianPolicy::Lower,
            WirePolicy::Upper => MedianPolicy::Upper,
        };
        let session = Arc::new(Session::new(DynamicProfile::new(n, mp)));
        self.touch(&session);
        st.slots.insert(
            name.to_owned(),
            Slot::Resident {
                session,
                last_seq,
                ckpt: None,
            },
        );
        self.epoch.fetch_add(1, Ordering::Release);
        self.maybe_compact(&mut st);
        Response::SessionCreated
    }

    /// Drops a session, resident or evicted.
    pub(crate) fn drop_session(&self, name: &str) -> Response {
        let mut st = self.state.lock().expect("shard lock");
        let Some(slot) = st.slots.remove(name) else {
            return unknown_session(name);
        };
        if st.dur.is_some() {
            let rec = WalRecord {
                seq: st.seq + 1,
                op: WalOp::Drop {
                    name: name.to_owned(),
                },
            };
            if let Err(e) = self.append_locked(&mut st, &rec) {
                // Not acknowledged: the session stays.
                st.slots.insert(name.to_owned(), slot);
                return io_response("write-ahead log append failed", &e);
            }
            let ckpt = match &slot {
                Slot::Resident { ckpt, .. } => *ckpt,
                Slot::Evicted { ckpt } => Some(*ckpt),
            };
            if let (Some(ck), Some(dur)) = (ckpt, st.dur.as_ref()) {
                // Safe to delete eagerly: the synced Drop record above
                // both supersedes the checkpoint (a crash before this
                // delete replays the checkpoint, then drops it) and
                // anchors any pre-drop edit records still in the log
                // (replay skips edits that precede a later Drop, so
                // losing the checkpoint cannot fault the recovery of
                // sessions logged after this one). Deleting here — not
                // in compaction's orphan sweep — also closes the window
                // where a crash between WAL truncation and the sweep
                // would resurrect the dropped session from its
                // leftover checkpoint. Best effort regardless: a
                // survivor is superseded by the Drop record until the
                // sweep removes it.
                let _ = fs::remove_file(ckpt_file(&dur.dir, ck.id));
            }
        }
        self.epoch.fetch_add(1, Ordering::Release);
        self.maybe_compact(&mut st);
        Response::SessionDropped
    }

    /// Applies one edit: resolve (faulting an evicted session back
    /// in), log the record ahead of the state change, apply, publish.
    /// Failed edits log nothing and leave every layer untouched.
    pub(crate) fn edit(&self, name: &str, edit: Edit) -> Response {
        let mut st = self.state.lock().expect("shard lock");
        let session = match self.resolve_locked(&mut st, name) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        self.touch(&session);
        let mut dp = session.profile.lock().expect("edit lock");
        if st.dur.is_some() {
            // Write-ahead order: validate exactly as the engine will,
            // log the record, then apply. The validations mirror the
            // engine's own checks (and their order), so the subsequent
            // apply cannot fail and the error bytes on the reject path
            // are identical to the memory-only service's.
            let checked: Result<(WalOp, Response), AggregateError> = match &edit {
                Edit::Push { ranking } => {
                    let n = dp.len();
                    if ranking.len() != n {
                        Err(AggregateError::DomainMismatch {
                            expected: n,
                            found: ranking.len(),
                        })
                    } else if dp.voters() >= DynamicProfile::MAX_VOTERS {
                        Err(AggregateError::TooManyVoters {
                            limit: DynamicProfile::MAX_VOTERS,
                        })
                    } else {
                        let voter = dp.next_push_id();
                        Ok((
                            WalOp::Push {
                                name: name.to_owned(),
                                voter,
                                ranking: ranking.clone(),
                            },
                            Response::VoterPushed { voter },
                        ))
                    }
                }
                Edit::Remove { voter } => {
                    if dp.get_voter(VoterId::from_raw(*voter)).is_none() {
                        Err(AggregateError::UnknownVoter { id: *voter })
                    } else {
                        Ok((
                            WalOp::Remove {
                                name: name.to_owned(),
                                voter: *voter,
                            },
                            Response::VoterRemoved,
                        ))
                    }
                }
                Edit::Replace { voter, ranking } => {
                    let n = dp.len();
                    if ranking.len() != n {
                        Err(AggregateError::DomainMismatch {
                            expected: n,
                            found: ranking.len(),
                        })
                    } else if dp.get_voter(VoterId::from_raw(*voter)).is_none() {
                        Err(AggregateError::UnknownVoter { id: *voter })
                    } else {
                        Ok((
                            WalOp::Replace {
                                name: name.to_owned(),
                                voter: *voter,
                                ranking: ranking.clone(),
                            },
                            Response::VoterReplaced,
                        ))
                    }
                }
            };
            let (op, ok_resp) = match checked {
                Ok(v) => v,
                Err(e) => return agg_error(&e),
            };
            let rec = WalRecord {
                seq: st.seq + 1,
                op,
            };
            if let Err(e) = self.append_locked(&mut st, &rec) {
                return io_response("write-ahead log append failed", &e);
            }
            let seq = st.seq;
            if let Some(Slot::Resident { last_seq, .. }) = st.slots.get_mut(name) {
                *last_seq = seq;
            }
            match apply_edit(&mut dp, edit) {
                Ok(_) => {
                    session.publish(&dp);
                    drop(dp);
                    self.maybe_compact(&mut st);
                    ok_resp
                }
                // Unreachable by the pre-validation above; answered
                // typed regardless (the stray record will fail replay
                // the same way and be truncated there).
                Err(e) => agg_error(&e),
            }
        } else {
            match apply_edit(&mut dp, edit) {
                Ok(resp) => {
                    session.publish(&dp);
                    resp
                }
                Err(e) => agg_error(&e),
            }
        }
    }

    /// Resolves a session for a read or pair-metric, faulting an
    /// evicted one back in.
    pub(crate) fn resolve(&self, name: &str) -> Result<Arc<Session>, Response> {
        let mut st = self.state.lock().expect("shard lock");
        let session = self.resolve_locked(&mut st, name)?;
        self.touch(&session);
        Ok(session)
    }

    fn resolve_locked(
        &self,
        st: &mut ShardState,
        name: &str,
    ) -> Result<Arc<Session>, Response> {
        match st.slots.get(name) {
            None => Err(unknown_session(name)),
            Some(Slot::Resident { session, .. }) => Ok(Arc::clone(session)),
            Some(Slot::Evicted { ckpt }) => {
                let ck = *ckpt;
                let resident = st
                    .slots
                    .values()
                    .filter(|s| matches!(s, Slot::Resident { .. }))
                    .count();
                if resident >= self.cap {
                    if let Some(victim) = self.lru_victim(st) {
                        self.evict_one(st, &victim)
                            .map_err(|e| io_response("eviction checkpoint failed", &e))?;
                    }
                }
                let dur = st.dur.as_ref().expect("evicted slots require durability");
                let path = ckpt_file(&dur.dir, ck.id);
                let loaded = Checkpoint::read(&path)
                    .map_err(|e| io_response("checkpoint read failed", &e))?
                    .map_err(|e| {
                        error(
                            ErrorCode::BadRequest,
                            format!("session {name:?} failed to restore: {e}"),
                        )
                    })?;
                let policy = match loaded.policy {
                    WirePolicy::Lower => MedianPolicy::Lower,
                    WirePolicy::Upper => MedianPolicy::Upper,
                };
                let dp = DynamicProfile::from_voters(
                    loaded.n as usize,
                    policy,
                    loaded.voters,
                    loaded.next_id,
                )
                .map_err(|e| {
                    error(
                        ErrorCode::BadRequest,
                        format!("session {name:?} failed to restore: {e}"),
                    )
                })?;
                let session = Arc::new(Session::new(dp));
                st.slots.insert(
                    name.to_owned(),
                    Slot::Resident {
                        session: Arc::clone(&session),
                        last_seq: ck.seq,
                        ckpt: Some(ck),
                    },
                );
                self.counters.recoveries.fetch_add(1, Ordering::Relaxed);
                self.epoch.fetch_add(1, Ordering::Release);
                Ok(session)
            }
        }
    }

    /// The resident session least recently touched.
    fn lru_victim(&self, st: &ShardState) -> Option<String> {
        st.slots
            .iter()
            .filter_map(|(name, slot)| match slot {
                Slot::Resident { session, .. } => {
                    Some((session.touched.load(Ordering::Relaxed), name))
                }
                Slot::Evicted { .. } => None,
            })
            .min()
            .map(|(_, name)| name.clone())
    }

    /// Evicts one resident session: checkpoint (unless the on-disk one
    /// is already current), then flip the slot to `Evicted`.
    fn evict_one(&self, st: &mut ShardState, name: &str) -> io::Result<()> {
        let Some(Slot::Resident {
            session,
            last_seq,
            ckpt,
        }) = st.slots.get(name)
        else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "evict target is not resident",
            ));
        };
        let (session, last_seq, old) = (Arc::clone(session), *last_seq, *ckpt);
        let fresh = match old {
            Some(ck) if ck.seq == last_seq => ck,
            _ => {
                let ck = self.write_checkpoint(st, name, &session, last_seq)?;
                if let (Some(prev), Some(dur)) = (old, st.dur.as_ref()) {
                    let _ = fs::remove_file(ckpt_file(&dur.dir, prev.id));
                }
                ck
            }
        };
        st.slots
            .insert(name.to_owned(), Slot::Evicted { ckpt: fresh });
        self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Writes a fresh checkpoint file for `session` and returns its
    /// reference. Takes the profile mutex (inner lock).
    fn write_checkpoint(
        &self,
        st: &mut ShardState,
        name: &str,
        session: &Session,
        last_seq: u64,
    ) -> io::Result<CkptRef> {
        let dur = st.dur.as_mut().expect("checkpoint requires durability");
        let id = dur.next_file_id;
        let path = ckpt_file(&dur.dir, id);
        let bytes = {
            let dp = session.profile.lock().expect("edit lock");
            let policy = match dp.policy() {
                MedianPolicy::Lower => WirePolicy::Lower,
                MedianPolicy::Upper => WirePolicy::Upper,
            };
            Checkpoint {
                name: name.to_owned(),
                n: dp.len() as u32,
                policy,
                next_id: dp.next_push_id(),
                last_seq,
                voters: dp
                    .voter_ids()
                    .into_iter()
                    .map(|vid| (vid.raw(), dp.get_voter(vid).expect("live voter").clone()))
                    .collect(),
            }
            .encode()
        };
        wal::write_atomic(&path, &bytes)?;
        dur.next_file_id += 1;
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(CkptRef { id, seq: last_seq })
    }

    /// Appends one record, syncing before return; bumps the counters
    /// and the compaction countdown.
    fn append_locked(&self, st: &mut ShardState, rec: &WalRecord) -> io::Result<()> {
        let dur = st.dur.as_mut().expect("append requires durability");
        dur.wal.append(rec)?;
        dur.since_compact += 1;
        st.seq = rec.seq;
        self.counters.wal_records.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Compacts when the countdown says so. Compaction failures are
    /// swallowed (the WAL simply keeps growing — correctness never
    /// depends on compaction happening).
    fn maybe_compact(&self, st: &mut ShardState) {
        let due = match st.dur.as_ref() {
            Some(d) => d.since_compact >= d.checkpoint_every,
            None => false,
        };
        if due {
            let _ = self.compact_locked(st);
        }
    }

    /// Checkpoints every stale session, truncates the WAL to empty,
    /// and sweeps checkpoint files no slot references.
    fn compact_locked(&self, st: &mut ShardState) -> io::Result<()> {
        if st.dur.is_none() {
            return Ok(());
        }
        // Checkpoint sessions whose on-disk state lags their last
        // applied record; everything else is already current.
        let stale: Vec<(String, Arc<Session>, u64, Option<CkptRef>)> = st
            .slots
            .iter()
            .filter_map(|(name, slot)| match slot {
                Slot::Resident {
                    session,
                    last_seq,
                    ckpt,
                } if ckpt.is_none_or(|c| c.seq < *last_seq) => {
                    Some((name.clone(), Arc::clone(session), *last_seq, *ckpt))
                }
                _ => None,
            })
            .collect();
        for (name, session, last_seq, old) in stale {
            let fresh = self.write_checkpoint(st, &name, &session, last_seq)?;
            if let (Some(prev), Some(dur)) = (old, st.dur.as_ref()) {
                let _ = fs::remove_file(ckpt_file(&dur.dir, prev.id));
            }
            if let Some(Slot::Resident { ckpt, .. }) = st.slots.get_mut(&name) {
                *ckpt = Some(fresh);
            }
        }
        // Every slot now has a current checkpoint (or no edits at all
        // — impossible for durable slots past this point), so the log
        // is redundant.
        let dur = st.dur.as_mut().expect("checked above");
        dur.wal.truncate_to(0)?;
        dur.since_compact = 0;
        // Orphan sweep: files superseded by crashes or failed deletes.
        let referenced: std::collections::HashSet<u64> = st
            .slots
            .values()
            .filter_map(|slot| match slot {
                Slot::Resident { ckpt, .. } => ckpt.map(|c| c.id),
                Slot::Evicted { ckpt } => Some(ckpt.id),
            })
            .collect();
        let dur = st.dur.as_ref().expect("checked above");
        if let Ok(entries) = fs::read_dir(&dur.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
                if let Some(id) = name
                    .strip_prefix("ckpt-")
                    .and_then(|s| s.strip_suffix(".bin"))
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    if !referenced.contains(&id) {
                        let _ = fs::remove_file(&path);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Runs one edit against the engine, mapping success to its reply.
fn apply_edit(dp: &mut DynamicProfile, edit: Edit) -> Result<Response, AggregateError> {
    match edit {
        Edit::Push { ranking } => dp
            .push_voter(ranking)
            .map(|id| Response::VoterPushed { voter: id.raw() }),
        Edit::Remove { voter } => dp
            .remove_voter(VoterId::from_raw(voter))
            .map(|_| Response::VoterRemoved),
        Edit::Replace { voter, ranking } => dp
            .replace_voter(VoterId::from_raw(voter), ranking)
            .map(|_| Response::VoterReplaced),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_recycles_only_views_no_reader_holds() {
        let mut dp = DynamicProfile::new(4, MedianPolicy::Lower);
        let id = dp
            .push_voter(BucketOrder::from_keys(&[1, 2, 3, 4]))
            .unwrap();
        let session = Session::new(dp);
        let held = session.read_view().unwrap();
        let bytes = (*held).clone();
        for round in 0..3i64 {
            let mut dp = session.profile.lock().unwrap();
            dp.replace_voter(id, BucketOrder::from_keys(&[round, 2, 1, 0]))
                .unwrap();
            session.publish(&dp);
            assert_eq!(*session.read_view().unwrap(), dp.snapshot().unwrap());
            assert_eq!(*held, bytes, "held view changed under a republish");
            // The first republish retires the held view, which stays
            // with its reader; later ones retire unheld views.
            let spare = SPARE.with(Cell::take);
            assert_eq!(spare.is_some(), round >= 1, "round {round}");
            SPARE.with(|s| s.set(spare));
        }
    }
}
