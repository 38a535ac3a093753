//! Per-shard durability: the write-ahead log and checkpoint codecs.
//!
//! # WAL record grammar
//!
//! A shard's WAL is an append-only file of framed records:
//!
//! ```text
//! ┌────────────────┬────────────────┬───────────────────────────┐
//! │ u32 BE length  │ u32 BE CRC-32  │ body (`length` bytes)     │
//! └────────────────┴────────────────┴───────────────────────────┘
//! body = [ u64 seq | u8 op | u8 name-len + name | payload… ]
//! ```
//!
//! `seq` is the shard's monotonic edit sequence number; the CRC (IEEE
//! 802.3, the zlib polynomial) covers the body only. One record is
//! appended — and the file flushed — per **acknowledged** edit, before
//! the reply is sent, so the recovery invariant is *acknowledged ⇒
//! replayed*. Failed edits write nothing. The claim covers **system**
//! crashes, not just process kills: record appends `fdatasync` the log
//! before the reply, and every create/rename on the durability path
//! (log creation, checkpoint renames, the shard meta file) syncs its
//! parent directory, so neither file contents nor the directory
//! entries naming them can be lost to power failure once acknowledged.
//!
//! Ops mirror the canonical edit set of the service:
//!
//! | op | payload |
//! |----|---------|
//! | `1` create  | `u32 n` + `u8 policy` |
//! | `2` push    | `u64 voter id` + ranking |
//! | `3` remove  | `u64 voter id` |
//! | `4` replace | `u64 voter id` + ranking |
//! | `5` drop    | — |
//!
//! Rankings and names use the wire encodings of [`crate::proto`]; the
//! decoders here are total in the same way — every malformed input is
//! a typed [`WalError`], never a panic. A scan
//! ([`scan_bytes`]/[`scan_file`]) stops at the **first** bad record
//! (torn tail, lying length, CRC mismatch, undecodable body) and
//! reports the prefix length that was valid; recovery truncates the
//! file there and never replays past it.
//!
//! # Checkpoints
//!
//! A session checkpoint is one framed record (same `[len | crc |
//! body]` shape) in its own file, carrying the session's full state:
//! name, domain size, policy, id counter, the shard sequence number it
//! was taken at, and every live voter `(id, ranking)` pair. Checkpoint
//! files are written atomically (tmp + rename) so a crash mid-write
//! leaves the old state intact. Replay applies only WAL records with
//! `seq >` the checkpoint's `last_seq`, which is what makes
//! eviction-then-replay apply each edit exactly once.

use crate::proto::{self, Cursor, ProtoError, WirePolicy, MAX_NAME};
use bucketrank_core::BucketOrder;
use bucketrank_aggregate::AggregateError;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Upper bound on one WAL record body. Sized for the largest edit the
/// service can accept (a push/replace of a [`proto::MAX_ELEMENTS`]
/// ranking plus name and header bytes); a declared length above it is
/// typed corruption **before** any allocation.
pub const MAX_WAL_RECORD: usize = 4 * proto::MAX_ELEMENTS + MAX_NAME + 64;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3 / zlib polynomial), table-driven, no deps.

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 of `bytes` (IEEE 802.3, as used by zlib and PNG).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Errors.

/// A typed durability failure. Scan-level variants carry the byte
/// offset of the offending record; replay-level variants carry the
/// sequence number. Recovery treats any of them as "stop here":
/// the valid prefix stands, nothing past the fault is replayed, and
/// the process never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WalError {
    /// The file ended inside a record's frame (torn tail, or a length
    /// prefix lying past EOF).
    TornTail {
        /// Byte offset of the record's length prefix.
        at: u64,
        /// Bytes the frame still needed.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// A record's body does not match its CRC.
    BadCrc {
        /// Byte offset of the record's length prefix.
        at: u64,
    },
    /// A record declared a body longer than [`MAX_WAL_RECORD`].
    RecordTooLarge {
        /// Byte offset of the record's length prefix.
        at: u64,
        /// The declared body length.
        len: usize,
    },
    /// A record's CRC matched but its body failed to decode.
    Malformed {
        /// Byte offset of the record's length prefix.
        at: u64,
        /// The decode failure.
        error: ProtoError,
    },
    /// Replay saw a create for a session that already exists (a
    /// duplicate create record — the log is self-inconsistent).
    DuplicateCreate {
        /// The record's sequence number.
        seq: u64,
        /// The session name.
        name: String,
    },
    /// Replay saw an edit for a session no surviving record created.
    UnknownSession {
        /// The record's sequence number.
        seq: u64,
        /// The session name.
        name: String,
    },
    /// A logged push carries a different voter id than the one the
    /// engine's check assigns — the log and engine disagree on id
    /// assignment. Replay refuses the record before applying it.
    IdMismatch {
        /// The record's sequence number.
        seq: u64,
        /// The id the record carries.
        expected: u64,
        /// The id the engine's check assigns.
        found: u64,
    },
    /// A logged edit fails the engine's check (e.g. a remove of an id
    /// the reconstructed profile does not hold); nothing of it is
    /// applied.
    Edit {
        /// The record's sequence number.
        seq: u64,
        /// The engine's typed rejection.
        error: AggregateError,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::TornTail { at, needed, have } => write!(
                f,
                "torn WAL tail at byte {at}: frame needed {needed} more bytes, had {have}"
            ),
            WalError::BadCrc { at } => write!(f, "WAL record at byte {at} fails its CRC"),
            WalError::RecordTooLarge { at, len } => write!(
                f,
                "WAL record at byte {at} declares {len} bytes (bound {MAX_WAL_RECORD})"
            ),
            WalError::Malformed { at, error } => {
                write!(f, "WAL record at byte {at} is malformed: {error}")
            }
            WalError::DuplicateCreate { seq, name } => {
                write!(f, "WAL record {seq} re-creates existing session {name:?}")
            }
            WalError::UnknownSession { seq, name } => {
                write!(f, "WAL record {seq} edits unknown session {name:?}")
            }
            WalError::IdMismatch { seq, expected, found } => write!(
                f,
                "WAL record {seq} expected voter id {expected}, the engine assigns {found}"
            ),
            WalError::Edit { seq, error } => {
                write!(f, "WAL record {seq} failed to replay: {error}")
            }
        }
    }
}

impl std::error::Error for WalError {}

// ---------------------------------------------------------------------
// Records.

const WOP_CREATE: u8 = 1;
const WOP_PUSH: u8 = 2;
const WOP_REMOVE: u8 = 3;
const WOP_REPLACE: u8 = 4;
const WOP_DROP: u8 = 5;

/// The edit a WAL record describes. Every variant names its session —
/// a shard's log interleaves records from all the sessions it hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Session creation.
    Create {
        /// Session name.
        name: String,
        /// Domain size.
        n: u32,
        /// Median policy.
        policy: WirePolicy,
    },
    /// An acknowledged push, with the voter id it was issued.
    Push {
        /// Session name.
        name: String,
        /// The id the push was acknowledged with; replay verifies the
        /// reconstructed engine assigns the same one.
        voter: u64,
        /// The pushed ranking.
        ranking: BucketOrder,
    },
    /// An acknowledged removal.
    Remove {
        /// Session name.
        name: String,
        /// The removed voter id.
        voter: u64,
    },
    /// An acknowledged in-place replacement.
    Replace {
        /// Session name.
        name: String,
        /// The replaced voter id.
        voter: u64,
        /// The replacement ranking.
        ranking: BucketOrder,
    },
    /// Session drop.
    Drop {
        /// Session name.
        name: String,
    },
}

impl WalOp {
    /// The session this op addresses.
    pub fn session(&self) -> &str {
        match self {
            WalOp::Create { name, .. }
            | WalOp::Push { name, .. }
            | WalOp::Remove { name, .. }
            | WalOp::Replace { name, .. }
            | WalOp::Drop { name } => name,
        }
    }
}

/// One WAL record: a shard sequence number plus the edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The shard's monotonic edit sequence number.
    pub seq: u64,
    /// The edit.
    pub op: WalOp,
}

impl WalRecord {
    /// Encodes the record as framed file bytes (`len | crc | body`).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64);
        proto::put_u64(&mut body, self.seq);
        match &self.op {
            WalOp::Create { name, n, policy } => {
                body.push(WOP_CREATE);
                proto::put_name(&mut body, name);
                proto::put_u32(&mut body, *n);
                body.push(policy.code());
            }
            WalOp::Push { name, voter, ranking } => {
                body.push(WOP_PUSH);
                proto::put_name(&mut body, name);
                proto::put_u64(&mut body, *voter);
                proto::put_ranking(&mut body, ranking);
            }
            WalOp::Remove { name, voter } => {
                body.push(WOP_REMOVE);
                proto::put_name(&mut body, name);
                proto::put_u64(&mut body, *voter);
            }
            WalOp::Replace { name, voter, ranking } => {
                body.push(WOP_REPLACE);
                proto::put_name(&mut body, name);
                proto::put_u64(&mut body, *voter);
                proto::put_ranking(&mut body, ranking);
            }
            WalOp::Drop { name } => {
                body.push(WOP_DROP);
                proto::put_name(&mut body, name);
            }
        }
        frame(&body)
    }

    /// Decodes one record **body** (the bytes the CRC covers). Never
    /// panics.
    ///
    /// # Errors
    /// A typed [`ProtoError`] on any malformed input.
    pub fn decode_body(body: &[u8]) -> Result<WalRecord, ProtoError> {
        let mut c = Cursor::new(body);
        let seq = c.u64()?;
        let opb = c.u8()?;
        let name = c.name()?;
        let op = match opb {
            WOP_CREATE => {
                let n = c.u32()?;
                let policy = WirePolicy::from_code(c.u8()?)?;
                WalOp::Create { name, n, policy }
            }
            WOP_PUSH => {
                let voter = c.u64()?;
                let ranking = c.ranking()?;
                WalOp::Push { name, voter, ranking }
            }
            WOP_REMOVE => {
                let voter = c.u64()?;
                WalOp::Remove { name, voter }
            }
            WOP_REPLACE => {
                let voter = c.u64()?;
                let ranking = c.ranking()?;
                WalOp::Replace { name, voter, ranking }
            }
            WOP_DROP => WalOp::Drop { name },
            other => return Err(ProtoError::UnknownOpcode { opcode: other }),
        };
        c.finish()?;
        Ok(WalRecord { seq, op })
    }
}

/// Frames a body as `[u32 len | u32 crc | body]`.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len());
    proto::put_u32(&mut out, body.len() as u32);
    proto::put_u32(&mut out, crc32(body));
    out.extend_from_slice(body);
    out
}

/// Unframes `[u32 len | u32 crc | body]` at offset `at` of `buf`;
/// returns the body slice and the total frame length.
fn unframe(buf: &[u8], at: usize, max_body: usize) -> Result<(&[u8], usize), WalError> {
    let rest = &buf[at..];
    if rest.len() < 8 {
        return Err(WalError::TornTail {
            at: at as u64,
            needed: 8 - rest.len(),
            have: rest.len(),
        });
    }
    let len = u32::from_be_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
    if len > max_body {
        return Err(WalError::RecordTooLarge { at: at as u64, len });
    }
    let crc = u32::from_be_bytes(rest[4..8].try_into().expect("4 bytes"));
    let have = rest.len() - 8;
    if have < len {
        return Err(WalError::TornTail {
            at: at as u64,
            needed: len - have,
            have,
        });
    }
    let body = &rest[8..8 + len];
    if crc32(body) != crc {
        return Err(WalError::BadCrc { at: at as u64 });
    }
    Ok((body, 8 + len))
}

// ---------------------------------------------------------------------
// Scanning.

/// The result of scanning a WAL: every record in the valid prefix, the
/// prefix's byte length, and the typed fault that ended the scan (if
/// any). Scanning is total — corrupt input shortens the prefix, it
/// never errors the scan itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// The records of the valid prefix, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix; recovery truncates the file to
    /// this length.
    pub valid_len: u64,
    /// Why the scan stopped early, if it did. `None` means the file
    /// ended exactly on a record boundary.
    pub corruption: Option<WalError>,
}

/// Scans WAL bytes into the valid record prefix. Total: stops at the
/// first torn/oversized/corrupt/undecodable record and reports it,
/// never panics, never reads past the fault.
pub fn scan_bytes(buf: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < buf.len() {
        match unframe(buf, at, MAX_WAL_RECORD) {
            Err(e) => {
                return WalScan {
                    records,
                    valid_len: at as u64,
                    corruption: Some(e),
                }
            }
            Ok((body, frame_len)) => match WalRecord::decode_body(body) {
                Err(error) => {
                    return WalScan {
                        records,
                        valid_len: at as u64,
                        corruption: Some(WalError::Malformed {
                            at: at as u64,
                            error,
                        }),
                    }
                }
                Ok(rec) => {
                    records.push(rec);
                    at += frame_len;
                }
            },
        }
    }
    WalScan {
        records,
        valid_len: at as u64,
        corruption: None,
    }
}

/// [`scan_bytes`] over a file; a missing file is an empty (clean) scan.
///
/// # Errors
/// Only real I/O failures — corruption is reported *inside* the scan.
pub fn scan_file(path: &Path) -> io::Result<WalScan> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(scan_bytes(&buf))
}

// ---------------------------------------------------------------------
// Appending.

/// An append handle on one shard's WAL file. Every append flushes to
/// the OS and syncs file data before returning, so a record that was
/// acknowledged is on disk — the recovery invariant's write half.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    bytes: u64,
}

impl WalWriter {
    /// Opens (creating if absent) the WAL at `path` for appending. The
    /// parent directory is synced so a just-created log's directory
    /// entry is durable before any record is acknowledged against it.
    ///
    /// # Errors
    /// Any I/O failure.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.metadata()?.len();
        sync_dir(path)?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            bytes,
        })
    }

    /// Appends one record and syncs it to disk; returns the framed
    /// size in bytes.
    ///
    /// # Errors
    /// Any I/O failure (the caller must fail the edit, not ack it).
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<u64> {
        let bytes = rec.encode();
        self.file.write_all(&bytes)?;
        self.file.sync_data()?;
        self.bytes += bytes.len() as u64;
        Ok(bytes.len() as u64)
    }

    /// Current file length in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Truncates the file to `len` bytes (recovery discarding a
    /// corrupt suffix, or compaction resetting to empty).
    ///
    /// # Errors
    /// Any I/O failure.
    pub fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.sync_data()?;
        self.bytes = len;
        Ok(())
    }

    /// The path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------
// Checkpoints.

/// A session's full state at a point in the shard's edit sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Session name.
    pub name: String,
    /// Domain size.
    pub n: u32,
    /// Median policy.
    pub policy: WirePolicy,
    /// The id the session's next push will be assigned.
    pub next_id: u64,
    /// The shard sequence number this state is current through; replay
    /// applies only records with `seq >` this.
    pub last_seq: u64,
    /// Every live voter, as `(raw id, ranking)` pairs.
    pub voters: Vec<(u64, BucketOrder)>,
}

impl Checkpoint {
    /// Encodes the checkpoint as framed file bytes (`len | crc |
    /// body`).
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + self.voters.len() * (12 + 4 * self.n as usize));
        proto::put_name(&mut body, &self.name);
        proto::put_u32(&mut body, self.n);
        body.push(self.policy.code());
        proto::put_u64(&mut body, self.next_id);
        proto::put_u64(&mut body, self.last_seq);
        proto::put_u32(&mut body, self.voters.len() as u32);
        for (id, ranking) in &self.voters {
            proto::put_u64(&mut body, *id);
            proto::put_ranking(&mut body, ranking);
        }
        frame(&body)
    }

    /// Decodes framed checkpoint file bytes. Total — torn, oversized,
    /// CRC-failing and undecodable input are all typed [`WalError`]s,
    /// and a trailing-bytes suffix after the frame is rejected too
    /// (checkpoint files hold exactly one frame).
    ///
    /// # Errors
    /// A typed [`WalError`] on any malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, WalError> {
        // A checkpoint body is bounded by its own file, not
        // MAX_WAL_RECORD — a big session legitimately outgrows one edit
        // record. `unframe` still bounds the declared length by what
        // the file really holds.
        let (body, frame_len) = unframe(bytes, 0, bytes.len().saturating_sub(8))?;
        if frame_len != bytes.len() {
            return Err(WalError::Malformed {
                at: 0,
                error: ProtoError::TrailingBytes {
                    extra: bytes.len() - frame_len,
                },
            });
        }
        let mut c = Cursor::new(body);
        let inner = (|| -> Result<Checkpoint, ProtoError> {
            let name = c.name()?;
            let n = c.u32()?;
            let policy = WirePolicy::from_code(c.u8()?)?;
            let next_id = c.u64()?;
            let last_seq = c.u64()?;
            let count = c.u32()? as usize;
            // Bound the reservation by what the body can hold: each
            // voter costs at least 8 id bytes + a 4-byte ranking header.
            let have = body.len() / 12;
            let mut voters = Vec::with_capacity(count.min(have));
            for _ in 0..count {
                let id = c.u64()?;
                let ranking = c.ranking()?;
                voters.push((id, ranking));
            }
            Ok(Checkpoint {
                name,
                n,
                policy,
                next_id,
                last_seq,
                voters,
            })
        })();
        let ck = inner.map_err(|error| WalError::Malformed { at: 0, error })?;
        c.finish().map_err(|error| WalError::Malformed { at: 0, error })?;
        Ok(ck)
    }

    /// Reads and decodes a checkpoint file.
    ///
    /// # Errors
    /// `Ok(Err(..))` for typed corruption, `Err(..)` for real I/O
    /// failures — callers treat the two differently (corrupt
    /// checkpoints are skipped, I/O faults abort startup).
    pub fn read(path: &Path) -> io::Result<Result<Checkpoint, WalError>> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Ok(Checkpoint::decode(&buf))
    }
}

/// Syncs the directory containing `path`. Fsyncing a file persists its
/// contents, not the directory entry naming it: after a rename or a
/// file creation the entry itself must be synced, or an OS crash or
/// power loss can forget the file existed even though its data was
/// durable. Every rename/create on the durability path goes through
/// this, which is what extends the "acknowledged ⇒ on disk" guarantee
/// from process crashes to system crashes.
///
/// # Errors
/// Any I/O failure.
pub(crate) fn sync_dir(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => File::open(parent)?.sync_all(),
        _ => File::open(".")?.sync_all(),
    }
}

/// Writes `bytes` to `path` atomically: tmp file in the same
/// directory, data sync, rename over the target, directory sync. A
/// crash at any point — including an OS crash after the rename —
/// leaves either the old file or the new one, never a torn mix and
/// never a forgotten rename.
///
/// # Errors
/// Any I/O failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    sync_dir(path)
}

/// Sets a faulted WAL aside as `<name>.corrupt-<secs>-<k>` in the same
/// directory so the discarded suffix stays available for post-mortem
/// (recovery would otherwise truncate it permanently); the caller
/// reopens a fresh, empty log afterwards. Best effort: returns the
/// preserved path, or `None` when the rename failed — recovery
/// proceeds either way.
pub fn preserve_corrupt(path: &Path) -> Option<PathBuf> {
    let name = path.file_name()?.to_str()?;
    let parent = path.parent()?;
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    for k in 0..16u32 {
        let dst = parent.join(format!("{name}.corrupt-{secs}-{k}"));
        if dst.exists() {
            continue;
        }
        if fs::rename(path, &dst).is_ok() {
            let _ = sync_dir(path);
            return Some(dst);
        }
        return None;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        let r = BucketOrder::from_keys(&[2, 1, 1, 3]);
        vec![
            WalRecord {
                seq: 0,
                op: WalOp::Create {
                    name: "s".into(),
                    n: 4,
                    policy: WirePolicy::Lower,
                },
            },
            WalRecord {
                seq: 1,
                op: WalOp::Push {
                    name: "s".into(),
                    voter: 0,
                    ranking: r.clone(),
                },
            },
            WalRecord {
                seq: 2,
                op: WalOp::Replace {
                    name: "s".into(),
                    voter: 0,
                    ranking: r,
                },
            },
            WalRecord {
                seq: 3,
                op: WalOp::Remove {
                    name: "s".into(),
                    voter: 0,
                },
            },
            WalRecord {
                seq: 4,
                op: WalOp::Drop { name: "s".into() },
            },
        ]
    }

    #[test]
    fn crc_reference_values() {
        // Standard test vectors for the IEEE polynomial.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn records_roundtrip_through_a_scan() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            buf.extend_from_slice(&r.encode());
        }
        let scan = scan_bytes(&buf);
        assert_eq!(scan.records, recs);
        assert_eq!(scan.valid_len, buf.len() as u64);
        assert_eq!(scan.corruption, None);
    }

    #[test]
    fn every_torn_tail_truncates_to_the_last_boundary() {
        let recs = sample_records();
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &recs {
            buf.extend_from_slice(&r.encode());
            boundaries.push(buf.len());
        }
        for cut in 0..buf.len() {
            let scan = scan_bytes(&buf[..cut]);
            let keep = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.records, recs[..keep], "cut {cut}");
            assert_eq!(scan.valid_len, boundaries[keep] as u64, "cut {cut}");
            // A cut exactly on a boundary is clean; anything else is
            // a typed torn tail.
            if boundaries.contains(&cut) {
                assert_eq!(scan.corruption, None, "cut {cut}");
            } else {
                assert!(
                    matches!(scan.corruption, Some(WalError::TornTail { .. })),
                    "cut {cut}: {:?}",
                    scan.corruption
                );
            }
        }
    }

    #[test]
    fn bit_flips_are_caught() {
        let rec = &sample_records()[1];
        let good = rec.encode();
        for bit in 0..good.len() * 8 {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let scan = scan_bytes(&bad);
            assert!(
                scan.records.is_empty() && scan.corruption.is_some(),
                "bit {bit} survived: {scan:?}"
            );
        }
    }

    #[test]
    fn oversized_length_is_typed_before_allocation() {
        let mut buf = Vec::new();
        proto::put_u32(&mut buf, u32::MAX);
        proto::put_u32(&mut buf, 0);
        buf.extend_from_slice(&[0; 32]);
        let scan = scan_bytes(&buf);
        assert_eq!(
            scan.corruption,
            Some(WalError::RecordTooLarge {
                at: 0,
                len: u32::MAX as usize
            })
        );
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption() {
        let ck = Checkpoint {
            name: "a session".into(),
            n: 3,
            policy: WirePolicy::Upper,
            next_id: 17,
            last_seq: 120,
            voters: vec![
                (3, BucketOrder::from_keys(&[1, 2, 3])),
                (16, BucketOrder::from_keys(&[2, 2, 2])),
            ],
        };
        let bytes = ck.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), ck);
        // Every strict prefix and every bit flip is typed corruption.
        for cut in 0..bytes.len() {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(Checkpoint::decode(&bad).is_err(), "bit {bit}");
        }
        // Trailing bytes after the frame are rejected.
        let mut padded = bytes;
        padded.push(0);
        assert!(matches!(
            Checkpoint::decode(&padded),
            Err(WalError::Malformed { .. })
        ));
    }

    #[test]
    fn writer_appends_and_truncates() {
        let dir = std::env::temp_dir().join(format!("brwal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let recs = sample_records();
        {
            let mut w = WalWriter::open(&path).unwrap();
            for r in &recs {
                w.append(r).unwrap();
            }
            assert_eq!(w.bytes(), std::fs::metadata(&path).unwrap().len());
        }
        let scan = scan_file(&path).unwrap();
        assert_eq!(scan.records, recs);
        // Truncating into the middle of the last record leaves the
        // prefix intact.
        let mut w = WalWriter::open(&path).unwrap();
        w.truncate_to(scan.valid_len - 1).unwrap();
        let scan2 = scan_file(&path).unwrap();
        assert_eq!(scan2.records, recs[..recs.len() - 1]);
        assert!(scan2.corruption.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_wal_is_a_clean_empty_scan() {
        let scan = scan_file(Path::new("/nonexistent/brwal/wal.log")).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(scan.corruption.is_none());
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let dir = std::env::temp_dir().join(format!("brck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-0.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
