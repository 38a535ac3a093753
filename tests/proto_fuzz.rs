//! Testkit-driven fuzz suite for the wire protocol (`server::proto`)
//! and its transport: random byte bodies must decode to typed errors
//! or valid values — never a panic — every strict prefix of a valid
//! encoding must be a typed error, trailing bytes must be rejected,
//! and over a live socket a malformed stream must kill only the
//! offending **connection** while the server keeps serving.

use bucketrank::server::proto::{
    decode_batch, decode_batch_reply, encode_batch, read_frame, write_frame, FrameError,
    ProtoError, Request, Response, WirePolicy, WireRequest, WireRule, DEFAULT_MAX_FRAME,
    MAX_BATCH,
};
use bucketrank::server::{Client, ErrorCode, Server, ServerConfig};
use bucketrank_testkit::prelude::*;
use std::io::Write as _;
use std::net::TcpStream;

/// Random request-ish bodies: raw bytes, plus mutations that keep a
/// valid opcode so decoding reaches the payload readers. A third of
/// the steered bodies wear the v2 batch header so the batch decoder's
/// count and sub-length readers get fuzzed too.
fn bodies() -> impl Gen<Value = Vec<u8>> {
    gen::from_fn(|rng| {
        let len = rng.gen_range(0..=96usize);
        let mut body: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        // Half the time, steer onto the parsers behind valid headers.
        if rng.gen_range(0..2u32) == 0 && body.len() >= 2 {
            if rng.gen_range(0..3u32) == 0 {
                body[0] = 2; // PROTO_VERSION_2
                body[1] = 0x20; // OP_BATCH
            } else {
                body[0] = 1; // PROTO_VERSION
                body[1] = rng.gen_range(0x01..=0x10u32) as u8; // opcodes + one invalid
            }
        }
        body
    })
}

#[test]
fn decoders_are_total_and_reencoding_is_stable() {
    check("decoders_are_total_and_reencoding_is_stable", bodies(), |body| {
        // Decoding random bytes must return, not panic. Anything that
        // decodes must re-encode to a stable canonical form.
        if let Ok(req) = Request::decode(body) {
            let wire = req.encode();
            let again = Request::decode(&wire).expect("canonical encoding must decode");
            assert_eq!(again, req);
            assert_eq!(again.encode(), wire);
        }
        if let Ok(resp) = Response::decode(body) {
            let wire = resp.encode();
            let again = Response::decode(&wire).expect("canonical encoding must decode");
            assert_eq!(again, resp);
            assert_eq!(again.encode(), wire);
        }
        // The v2 surfaces are total too, and anything that decodes as
        // a batch is already in canonical form (length-prefixed
        // canonical v1 sub-bodies), so re-encoding is the identity.
        let _ = WireRequest::decode(body);
        let _ = decode_batch_reply(body);
        if let Ok(reqs) = decode_batch(body) {
            assert_eq!(&encode_batch(&reqs), body);
            match WireRequest::decode(body).expect("batch dispatches") {
                WireRequest::Batch(again) => assert_eq!(again, reqs),
                WireRequest::Single(_) => panic!("v2 body dispatched as v1"),
            }
        }
    });
}

/// A grab-bag of requests covering every payload reader, built from a
/// generated ranking and name.
fn sample_requests() -> impl Gen<Value = Vec<Request>> {
    gen::from_fn(|rng| {
        let n = rng.gen_range(1..=9usize);
        let ranking = gen::bucket_order(n, 3).generate(rng);
        let name = gen::printable_string(1..=12).generate(rng);
        vec![
            Request::Ping,
            Request::CreateSession {
                name: name.clone(),
                n: n as u32,
                policy: WirePolicy::Upper,
            },
            Request::PushVoter {
                session: name.clone(),
                ranking: ranking.clone(),
            },
            Request::ReplaceVoter {
                session: name.clone(),
                voter: rng.gen_range(0..u64::MAX),
                ranking,
            },
            Request::TopK {
                session: name.clone(),
                k: rng.gen_range(0..=64u32),
            },
            Request::WeightedDist {
                session: name.clone(),
                voter_a: rng.gen_range(0..u64::MAX),
                voter_b: rng.gen_range(0..u64::MAX),
                weights: (0..n).map(|_| rng.gen_range(0..=16u32) as u64).collect(),
            },
            Request::TopDiff {
                session: name.clone(),
                voter_a: rng.gen_range(0..u64::MAX),
                voter_b: rng.gen_range(0..u64::MAX),
                weights: (0..n).map(|_| rng.gen_range(0..=16u32) as u64).collect(),
            },
            Request::MinMaxAgg {
                session: name,
                labels: (0..n).map(|_| rng.gen_range(0..3u32)).collect(),
                rules: (0..rng.gen_range(0..=3usize))
                    .map(|_| WireRule {
                        window: rng.gen_range(1..=n as u32),
                        class: rng.gen_range(0..3u32),
                        min: 0,
                        max: rng.gen_range(0..=n as u32),
                    })
                    .collect(),
            },
            Request::Shutdown,
        ]
    })
}

#[test]
fn every_strict_prefix_and_trailing_byte_is_a_typed_error() {
    check(
        "every_strict_prefix_and_trailing_byte_is_a_typed_error",
        sample_requests(),
        |reqs| {
            for req in reqs {
                let wire = req.encode();
                assert_eq!(&Request::decode(&wire).unwrap(), req);
                for cut in 0..wire.len() {
                    assert!(
                        Request::decode(&wire[..cut]).is_err(),
                        "prefix of {req:?} at {cut} decoded"
                    );
                }
                let mut extra = wire.clone();
                extra.push(0);
                assert!(
                    matches!(
                        Request::decode(&extra),
                        Err(ProtoError::TrailingBytes { .. })
                    ),
                    "trailing byte after {req:?} accepted"
                );
            }
        },
    );
}

#[test]
fn frames_reject_oversized_and_torn_input_without_allocating() {
    check(
        "frames_reject_oversized_and_torn_input_without_allocating",
        sample_requests(),
        |reqs| {
            for req in reqs {
                let body = req.encode();
                // Round trip through a full frame.
                let mut wire = Vec::new();
                write_frame(&mut wire, &body, DEFAULT_MAX_FRAME).unwrap();
                let mut r = &wire[..];
                assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), body);
                // A torn frame (header promises more than the stream
                // holds) is an I/O error, not a hang or panic.
                for cut in 5..wire.len() {
                    let mut torn = &wire[..cut];
                    assert!(matches!(
                        read_frame(&mut torn, DEFAULT_MAX_FRAME),
                        Err(FrameError::Io(_))
                    ));
                }
                // An oversized declared length is rejected from the
                // 4-byte header alone — even when the declared size
                // (here 4 GiB) could never be allocated.
                let mut huge = u32::MAX.to_be_bytes().to_vec();
                huge.extend_from_slice(&body);
                let mut r = &huge[..];
                assert!(matches!(
                    read_frame(&mut r, DEFAULT_MAX_FRAME),
                    Err(FrameError::Proto(ProtoError::FrameTooLarge { .. }))
                ));
            }
        },
    );
}

/// Structured batch abuse: every strict prefix of a valid batch, every
/// degenerate shape (empty, oversized count, nested v2 sub-body,
/// lying sub-lengths), must be a **typed** error — and the count is
/// checked before any allocation sized from it.
#[test]
fn batch_bounds_are_typed_and_torn_batches_never_decode() {
    check(
        "batch_bounds_are_typed_and_torn_batches_never_decode",
        sample_requests(),
        |reqs| {
            let wire = encode_batch(reqs);
            assert_eq!(&decode_batch(&wire).unwrap(), reqs);
            // Torn batches: every strict prefix fails typed.
            for cut in 0..wire.len() {
                assert!(
                    decode_batch(&wire[..cut]).is_err(),
                    "batch prefix at {cut} decoded"
                );
            }
            // Trailing garbage is rejected.
            let mut extra = wire.clone();
            extra.push(0);
            assert!(decode_batch(&extra).is_err(), "trailing byte accepted");

            // Empty batch: typed.
            assert!(matches!(
                decode_batch(&[2, 0x20, 0, 0]),
                Err(ProtoError::EmptyBatch)
            ));

            // A count beyond MAX_BATCH is refused from the 4-byte
            // header alone — before any count-sized allocation.
            let huge = [2u8, 0x20, 0xff, 0xff];
            match decode_batch(&huge) {
                Err(ProtoError::BatchTooLarge { len }) => assert_eq!(len, 0xffff),
                other => panic!("oversized count not typed: {other:?}"),
            }

            // A sub-length lying past the body is a typed truncation,
            // not an allocation or a panic.
            let mut lying = vec![2, 0x20, 0, 1];
            lying.extend_from_slice(&u32::MAX.to_be_bytes());
            assert!(decode_batch(&lying).is_err());

            // Nested batches are rejected: a v2 sub-body inside a
            // batch is an unsupported version at the sub-decode.
            let inner = encode_batch(&[Request::Ping]);
            let mut nested = vec![2, 0x20, 0, 1];
            nested.extend_from_slice(&(inner.len() as u32).to_be_bytes());
            nested.extend_from_slice(&inner);
            match decode_batch(&nested) {
                Err(ProtoError::UnsupportedVersion { found }) => assert_eq!(found, 2),
                other => panic!("nested batch not rejected: {other:?}"),
            }

            // Oversize-by-construction: more than MAX_BATCH valid
            // sub-requests refuse to decode even though each sub-body
            // is individually fine.
            if reqs.len() > 1 {
                let mut many = vec![2, 0x20];
                let count = MAX_BATCH + 1;
                many.extend_from_slice(&(count as u16).to_be_bytes());
                let ping = Request::Ping.encode();
                for _ in 0..count {
                    many.extend_from_slice(&(ping.len() as u32).to_be_bytes());
                    many.extend_from_slice(&ping);
                }
                assert!(matches!(
                    decode_batch(&many),
                    Err(ProtoError::BatchTooLarge { .. })
                ));
            }
        },
    );
}

/// Random v1/v2 frame interleavings on one live connection: every
/// well-formed frame is answered with a reply of the matching shape
/// (v1 response / batch reply with one sub-reply per op), and a
/// malformed tail kills **only that connection** with a typed error —
/// never a desync or a panic — while the server keeps serving.
#[test]
fn v1_and_v2_interleavings_share_a_connection_and_die_typed() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    /// One fuzzed exchange: frames to send and the per-frame op count
    /// (0 marks a v1 single frame), plus a malformed tail body.
    fn exchanges() -> impl Gen<Value = (Vec<(Vec<u8>, usize)>, Vec<u8>)> {
        gen::from_fn(|rng| {
            let n = rng.gen_range(1..=6usize);
            let ranking = gen::bucket_order(n, 3).generate(rng);
            let name = gen::printable_string(1..=8).generate(rng);
            let pool = [
                Request::Ping,
                Request::CreateSession {
                    name: name.clone(),
                    n: n as u32,
                    policy: WirePolicy::Lower,
                },
                Request::PushVoter {
                    session: name.clone(),
                    ranking,
                },
                Request::MedianOrder {
                    session: name.clone(),
                },
                Request::TopK {
                    session: name,
                    k: rng.gen_range(0..=8u32),
                },
            ];
            let mut frames = Vec::new();
            for _ in 0..rng.gen_range(1..=8usize) {
                if rng.gen_range(0..2u32) == 0 {
                    let req = &pool[rng.gen_range(0..pool.len() as u32) as usize];
                    frames.push((req.encode(), 0));
                } else {
                    let count = rng.gen_range(1..=5usize);
                    let batch: Vec<Request> = (0..count)
                        .map(|_| pool[rng.gen_range(0..pool.len() as u32) as usize].clone())
                        .collect();
                    frames.push((encode_batch(&batch), count));
                }
            }
            // The malformed tail: rotate through the batch-specific
            // poison shapes plus plain junk.
            let tail = match rng.gen_range(0..4u32) {
                0 => vec![2, 0x20, 0, 0],          // empty batch
                1 => vec![2, 0x20, 0xff, 0xff],    // count over MAX_BATCH
                2 => {
                    let inner = encode_batch(&[Request::Ping]);
                    let mut nested = vec![2, 0x20, 0, 1];
                    nested.extend_from_slice(&(inner.len() as u32).to_be_bytes());
                    nested.extend_from_slice(&inner);
                    nested                          // nested batch
                }
                _ => vec![rng.gen_range(3..=255u32) as u8, 0x20, 9], // junk version
            };
            (frames, tail)
        })
    }

    check(
        "v1_and_v2_interleavings_share_a_connection_and_die_typed",
        exchanges(),
        |(frames, tail)| {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.set_nodelay(true).expect("nodelay");
            // Pipeline the whole interleaving, then the poison tail.
            for (body, _) in frames {
                write_frame(&mut s, body, DEFAULT_MAX_FRAME).expect("write frame");
            }
            write_frame(&mut s, tail, DEFAULT_MAX_FRAME).expect("write tail");

            // Every well-formed frame is answered in order with the
            // matching reply shape.
            for (at, (_, ops)) in frames.iter().enumerate() {
                let reply = read_frame(&mut s, DEFAULT_MAX_FRAME)
                    .unwrap_or_else(|e| panic!("reply {at} missing: {e:?}"));
                if *ops == 0 {
                    Response::decode(&reply).expect("well-formed v1 reply");
                } else {
                    let bodies = decode_batch_reply(&reply).expect("well-formed batch reply");
                    assert_eq!(bodies.len(), *ops, "reply shape mismatch at {at}");
                    for body in &bodies {
                        Response::decode(body).expect("well-formed sub-reply");
                    }
                }
            }
            // Then the typed error (best-effort) and the close.
            match read_frame(&mut s, DEFAULT_MAX_FRAME) {
                Ok(reply) => {
                    let resp = Response::decode(&reply).expect("server replies are well-formed");
                    assert!(
                        matches!(
                            resp,
                            Response::Error {
                                code: ErrorCode::BadRequest,
                                ..
                            }
                        ),
                        "malformed tail answered with {resp:?}"
                    );
                    assert!(matches!(
                        read_frame(&mut s, DEFAULT_MAX_FRAME),
                        Err(FrameError::Closed)
                    ));
                }
                Err(FrameError::Closed) => {}
                Err(e) => panic!("unexpected transport failure: {e:?}"),
            }

            // The server is still serving fresh connections.
            let mut probe = Client::connect(addr).unwrap();
            probe.ping().expect("server must survive poisoned pipelines");
        },
    );

    let stats = server.shutdown();
    assert!(
        stats.protocol_errors > 0,
        "every poison tail trips the protocol-error counter: {stats:?}"
    );
}

#[test]
fn malformed_streams_fail_the_connection_not_the_server() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    check(
        "malformed_streams_fail_the_connection_not_the_server",
        bodies(),
        |body| {
            // A random body inside a well-formed frame: the server
            // either answers a decoded request, or replies with one
            // typed protocol error and closes this connection.
            match Request::decode(body) {
                Ok(Request::Shutdown) => {} // don't stop the shared server
                Ok(_) => {
                    let mut s = TcpStream::connect(addr).unwrap();
                    write_frame(&mut s, body, DEFAULT_MAX_FRAME).unwrap();
                    let reply = read_frame(&mut s, DEFAULT_MAX_FRAME).expect("reply");
                    Response::decode(&reply).expect("server replies are well-formed");
                }
                Err(_) => {
                    let mut s = TcpStream::connect(addr).unwrap();
                    write_frame(&mut s, body, DEFAULT_MAX_FRAME).unwrap();
                    match read_frame(&mut s, DEFAULT_MAX_FRAME) {
                        Ok(reply) => {
                            let resp =
                                Response::decode(&reply).expect("server replies are well-formed");
                            assert!(
                                matches!(
                                    resp,
                                    Response::Error {
                                        code: ErrorCode::BadRequest,
                                        ..
                                    }
                                ),
                                "undecodable body answered with {resp:?}"
                            );
                            // ... and then the connection dies.
                            assert!(matches!(
                                read_frame(&mut s, DEFAULT_MAX_FRAME),
                                Err(FrameError::Closed)
                            ));
                        }
                        // Best-effort error reply may be skipped; the
                        // close itself is the contract.
                        Err(FrameError::Closed) => {}
                        Err(e) => panic!("unexpected transport failure: {e:?}"),
                    }
                }
            }

            // Raw unframed garbage, then a hangup: the server must
            // shrug the connection off.
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(body).unwrap();
            drop(s);

            // The server is still serving fresh connections.
            let mut probe = Client::connect(addr).unwrap();
            probe.ping().expect("server must survive malformed peers");
        },
    );

    // An oversized declared frame length kills that connection too.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&u32::MAX.to_be_bytes()).unwrap();
    s.flush().unwrap();
    match read_frame(&mut s, DEFAULT_MAX_FRAME) {
        Ok(reply) => {
            assert!(matches!(
                Response::decode(&reply).expect("well-formed reply"),
                Response::Error { .. }
            ));
        }
        Err(FrameError::Closed) => {}
        Err(e) => panic!("unexpected transport failure: {e:?}"),
    }

    let mut probe = Client::connect(addr).unwrap();
    probe.ping().expect("server must survive an oversized frame");
    let stats = server.shutdown();
    assert!(
        stats.protocol_errors > 0,
        "the fuzz run should have tripped the protocol-error counter: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// WAL-record fuzzing: the durability codecs (`server::wal`) get the
// same treatment as the wire protocol — random bytes must scan and
// decode to typed errors or valid values, never a panic; lying length
// prefixes, bit-flipped CRCs and truncated tails must truncate the
// scan at the fault; and recovery through a real `Service` must never
// replay past a duplicate-create or otherwise faulty record.


use bucketrank::server::service::{Service, ServiceConfig};
use bucketrank::server::wal::{self, Checkpoint, WalRecord, WalWriter};
use bucketrank::server::{WalError, WalOp};
use bucketrank_bench::model::ModelService;
use bucketrank_core::BucketOrder;
use bucketrank_testkit::TempDir;

/// Random WAL-body-ish bytes. Half the time the bytes are wrapped in a
/// valid `len | crc | body` frame so the scanner's CRC gate passes and
/// the record *body* decoder gets exercised; within those, the opcode
/// byte is often steered onto the real WAL opcodes (plus one invalid).
fn wal_bodies() -> impl Gen<Value = Vec<u8>> {
    gen::from_fn(|rng| {
        let len = rng.gen_range(0..=96usize);
        let mut body: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        if body.len() >= 9 && rng.gen_range(0..2u32) == 0 {
            body[8] = rng.gen_range(1..=6u32) as u8; // WAL opcodes + one invalid
        }
        if rng.gen_range(0..2u32) == 0 {
            let mut framed = Vec::with_capacity(8 + body.len());
            framed.extend_from_slice(&(body.len() as u32).to_be_bytes());
            framed.extend_from_slice(&wal::crc32(&body).to_be_bytes());
            framed.extend_from_slice(&body);
            return framed;
        }
        body
    })
}

/// A short, internally consistent WAL: one session, sequential seqs,
/// a mix of every op kind.
fn wal_record_logs() -> impl Gen<Value = Vec<WalRecord>> {
    gen::from_fn(|rng| {
        let n = rng.gen_range(1..=8usize);
        let name = gen::printable_string(1..=12).generate(rng);
        let count = rng.gen_range(1..=6usize);
        let mut records = Vec::with_capacity(count);
        for seq in 0..count as u64 {
            let op = match rng.gen_range(0..5u32) {
                0 => WalOp::Create {
                    name: name.clone(),
                    n: n as u32,
                    policy: WirePolicy::Lower,
                },
                1 => WalOp::Push {
                    name: name.clone(),
                    voter: rng.gen_range(0..1u64 << 48),
                    ranking: gen::bucket_order(n, 3).generate(rng),
                },
                2 => WalOp::Remove {
                    name: name.clone(),
                    voter: rng.gen_range(0..1u64 << 48),
                },
                3 => WalOp::Replace {
                    name: name.clone(),
                    voter: rng.gen_range(0..1u64 << 48),
                    ranking: gen::bucket_order(n, 3).generate(rng),
                },
                _ => WalOp::Drop { name: name.clone() },
            };
            records.push(WalRecord { seq, op });
        }
        records
    })
}

#[test]
fn wal_decoders_are_total_and_scans_are_stable() {
    check(
        "wal_decoders_are_total_and_scans_are_stable",
        wal_bodies(),
        |body| {
            // Every WAL decoder must return on arbitrary bytes, never
            // panic.
            let _ = WalRecord::decode_body(body);
            let _ = Checkpoint::decode(body);
            let scan = wal::scan_bytes(body);
            assert!(scan.valid_len <= body.len() as u64);
            // Whatever scanned is real: re-encoding the scanned prefix
            // and re-scanning it reproduces the same records, cleanly.
            let again: Vec<u8> = scan.records.iter().flat_map(|r| r.encode()).collect();
            let rescan = wal::scan_bytes(&again);
            assert_eq!(rescan.records, scan.records);
            assert_eq!(rescan.valid_len, again.len() as u64);
            assert!(rescan.corruption.is_none());
        },
    );
}

#[test]
fn wal_scans_stop_typed_at_the_first_fault() {
    check(
        "wal_scans_stop_typed_at_the_first_fault",
        wal_record_logs(),
        |records| {
            let mut clean = Vec::new();
            let mut bounds = vec![0usize];
            for rec in records {
                clean.extend_from_slice(&rec.encode());
                bounds.push(clean.len());
            }
            // The untouched log scans completely and cleanly.
            let full = wal::scan_bytes(&clean);
            assert_eq!(&full.records, records);
            assert_eq!(full.valid_len, clean.len() as u64);
            assert!(full.corruption.is_none());

            // Truncated tails: every strict cut keeps exactly the
            // records whose frames still fit, and a cut inside a frame
            // is a typed fault at that frame's offset.
            for cut in 0..clean.len() {
                let scan = wal::scan_bytes(&clean[..cut]);
                let survivors = bounds[1..].iter().filter(|&&b| b <= cut).count();
                assert_eq!(scan.records, records[..survivors]);
                assert_eq!(scan.valid_len, bounds[survivors] as u64);
                if cut == bounds[survivors] {
                    assert!(scan.corruption.is_none());
                } else {
                    assert!(
                        matches!(
                            scan.corruption,
                            Some(WalError::TornTail { at, .. }) if at == bounds[survivors] as u64
                        ),
                        "cut {cut} gave {:?}",
                        scan.corruption
                    );
                }
            }

            // Bit flips: flipping any single bit of record `j` — length
            // prefix, CRC, or body — truncates the scan to exactly the
            // first `j` records with a typed fault at `j`'s offset.
            for (j, window) in bounds.windows(2).enumerate() {
                for at in window[0]..window[1] {
                    for bit in 0..8u8 {
                        let mut bent = clean.clone();
                        bent[at] ^= 1 << bit;
                        let scan = wal::scan_bytes(&bent);
                        assert_eq!(
                            scan.records,
                            records[..j],
                            "flip at byte {at} bit {bit} changed the surviving prefix"
                        );
                        assert_eq!(scan.valid_len, bounds[j] as u64);
                        assert!(scan.corruption.is_some());
                    }
                }
            }

            // A lying length prefix: claiming more than the bound is
            // typed as oversized; claiming one byte past the file is a
            // torn tail. Neither panics, both keep the earlier records.
            let last = bounds.len() - 2;
            for (lie, want_oversize) in [
                ((wal::MAX_WAL_RECORD + 1) as u32, true),
                ((clean.len() - bounds[last]) as u32, false),
            ] {
                let mut bent = clean.clone();
                bent[bounds[last]..bounds[last] + 4].copy_from_slice(&lie.to_be_bytes());
                let scan = wal::scan_bytes(&bent);
                assert_eq!(scan.records, records[..last]);
                match (want_oversize, scan.corruption) {
                    (true, Some(WalError::RecordTooLarge { at, .. }))
                    | (false, Some(WalError::TornTail { at, .. })) => {
                        assert_eq!(at, bounds[last] as u64);
                    }
                    (_, other) => panic!("lying length gave {other:?}"),
                }
            }
        },
    );
}

/// A checkpoint with a handful of voters over a small domain.
fn checkpoints() -> impl Gen<Value = Checkpoint> {
    gen::from_fn(|rng| {
        let n = rng.gen_range(1..=8usize);
        let count = rng.gen_range(0..=5usize);
        let voters: Vec<(u64, BucketOrder)> = (0..count)
            .map(|i| (i as u64 * 3, gen::bucket_order(n, 3).generate(rng)))
            .collect();
        Checkpoint {
            name: gen::printable_string(1..=12).generate(rng),
            n: n as u32,
            policy: if rng.gen_range(0..2u32) == 0 {
                WirePolicy::Lower
            } else {
                WirePolicy::Upper
            },
            next_id: rng.gen_range(0..u64::MAX >> 16),
            last_seq: rng.gen_range(0..u64::MAX >> 16),
            voters,
        }
    })
}

#[test]
fn checkpoint_codec_roundtrips_and_rejects_every_mutation_typed() {
    check(
        "checkpoint_codec_roundtrips_and_rejects_every_mutation_typed",
        checkpoints(),
        |ck| {
            let bytes = ck.encode();
            assert_eq!(&Checkpoint::decode(&bytes).expect("roundtrip"), ck);

            // Every strict prefix is typed (a torn checkpoint file).
            for cut in 0..bytes.len() {
                Checkpoint::decode(&bytes[..cut]).expect_err("prefix decoded");
            }

            // Trailing bytes are rejected — a checkpoint file holds
            // exactly one frame.
            let mut extra = bytes.clone();
            extra.push(0);
            assert!(matches!(
                Checkpoint::decode(&extra),
                Err(WalError::Malformed { .. })
            ));

            // Any single-bit flip anywhere in the file is caught: the
            // CRC covers the body, and the frame header is validated
            // against the file's real length.
            for at in 0..bytes.len() {
                for bit in 0..8u8 {
                    let mut bent = bytes.clone();
                    bent[at] ^= 1 << bit;
                    Checkpoint::decode(&bent)
                        .expect_err("bit-flipped checkpoint decoded");
                }
            }
        },
    );
}

/// Writes `records` as shard 0's WAL under a fresh data dir and
/// recovers a single-shard durable [`Service`] from it.
fn recover(dir: &TempDir, records: &[WalRecord]) -> Service {
    let shard = dir.path().join("shard-0");
    std::fs::create_dir_all(&shard).expect("create shard dir");
    let mut w = WalWriter::open(&shard.join("wal.log")).expect("open wal");
    for rec in records {
        w.append(rec).expect("append");
    }
    drop(w);
    Service::with_config(ServiceConfig {
        shards: 1,
        max_sessions: 64,
        data_dir: Some(dir.path().to_path_buf()),
        checkpoint_every: u64::MAX,
    })
    .expect("recovery must not fail on a faulty log, only truncate")
}

#[test]
fn recovery_never_replays_past_a_faulty_record() {
    check(
        "recovery_never_replays_past_a_faulty_record",
        gen::from_fn(|rng| {
            let n = rng.gen_range(2..=6usize);
            let rankings: Vec<BucketOrder> = (0..rng.gen_range(2..=4usize))
                .map(|_| gen::bucket_order(n, 3).generate(rng))
                .collect();
            (n, rankings)
        }),
        |(n, rankings)| {
            let name = "dup".to_string();
            let k = rankings.len() - 1;

            // A log whose record `k + 1` re-creates the live session:
            // replay must stop there, typed — the pushes before the
            // fault survive, the push after it must NOT be applied.
            let mut records = vec![WalRecord {
                seq: 0,
                op: WalOp::Create {
                    name: name.clone(),
                    n: *n as u32,
                    policy: WirePolicy::Lower,
                },
            }];
            for (i, r) in rankings[..k].iter().enumerate() {
                records.push(WalRecord {
                    seq: 1 + i as u64,
                    op: WalOp::Push {
                        name: name.clone(),
                        voter: i as u64,
                        ranking: r.clone(),
                    },
                });
            }
            records.push(WalRecord {
                seq: 1 + k as u64,
                op: WalOp::Create {
                    name: name.clone(),
                    n: *n as u32,
                    policy: WirePolicy::Lower,
                },
            });
            records.push(WalRecord {
                seq: 2 + k as u64,
                op: WalOp::Push {
                    name: name.clone(),
                    voter: 1000, // a lie; must never be replayed
                    ranking: rankings[k].clone(),
                },
            });

            let dir = TempDir::new("walfuzz");
            let recovered = recover(&dir, &records);

            // The reference model of exactly the pre-fault prefix.
            let mut model = ModelService::new();
            model.handle(&Request::CreateSession {
                name: name.clone(),
                n: *n as u32,
                policy: WirePolicy::Lower,
            });
            for r in &rankings[..k] {
                model.handle(&Request::PushVoter {
                    session: name.clone(),
                    ranking: r.clone(),
                });
            }
            for probe in [
                Request::MedianOrder { session: name.clone() },
                Request::TopK {
                    session: name.clone(),
                    k: 1,
                },
            ] {
                assert_eq!(
                    recovered.handle(probe.clone()).encode(),
                    model.handle(&probe).encode(),
                    "recovered state diverges from the pre-fault prefix"
                );
            }
            // The next push id proves the post-fault push never
            // happened: ids are issued sequentially per session.
            assert_eq!(
                recovered.handle(Request::PushVoter {
                    session: name.clone(),
                    ranking: rankings[k].clone(),
                }),
                Response::VoterPushed { voter: k as u64 },
            );

            // A log editing a session no record created: replay stops
            // typed at the unknown name, the earlier session survives.
            let records = vec![
                WalRecord {
                    seq: 0,
                    op: WalOp::Create {
                        name: name.clone(),
                        n: *n as u32,
                        policy: WirePolicy::Lower,
                    },
                },
                WalRecord {
                    seq: 1,
                    op: WalOp::Push {
                        name: "ghost".to_string(),
                        voter: 0,
                        ranking: rankings[0].clone(),
                    },
                },
            ];
            let dir = TempDir::new("walfuzz");
            let recovered = recover(&dir, &records);
            assert_eq!(recovered.sessions(), 1);
            assert!(matches!(
                recovered.handle(Request::MedianOrder {
                    session: "ghost".to_string()
                }),
                Response::Error {
                    code: ErrorCode::UnknownSession,
                    ..
                }
            ));
            // The created session exists (and is empty: NoVoters).
            assert!(matches!(
                recovered.handle(Request::MedianOrder { session: name.clone() }),
                Response::Error {
                    code: ErrorCode::NoVoters,
                    ..
                }
            ));
        },
    );
}
