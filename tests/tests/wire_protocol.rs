//! Wire-protocol properties and deterministic server conversations.
//!
//! The codec half mirrors the WAL record suite in `durability_recovery.rs`:
//! arbitrary requests and responses — including result rows over shapes
//! past the 64-attribute inline `AttrSet` words, same-shape runs whose
//! columns mix value kinds, and rows of the empty shape — round trip
//! bit-identically through the CRC-checked framing, byte-dribbled reads
//! reassemble, and truncation, single-byte corruption, malformed shape
//! blocks or forged counts yield a typed [`WireError`], never a panic and
//! never silently the original message.  One golden fixture pins the bytes
//! of protocol version 2.
//!
//! The server half pins down the conversation rules that make client-side
//! pipelining sound: in-order responses, deterministic `Busy` under a zero
//! in-flight cap, deterministic `Timeout` under an expired deadline, the
//! Hello gate, and the drain sequence (buffered statements answered, then
//! `Bye`) — and what a `DeleteEq` write means: who its victims are, through
//! the index and through the scan fallback, inside a batch and beside a
//! reader.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use flexrel_client::Connection;
use flexrel_core::attr::AttrSet;
use flexrel_core::attrs;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::{run_statement, ExecOptions, StatementOutcome};
use flexrel_server::proto::{
    decode_request, decode_response, encode_request, encode_response, write_frame, ErrorCode,
    FrameReader, FrameWriter, Recv, Request, Response, WireError, WriteOp, PROTOCOL_VERSION,
};
use flexrel_server::{seed_wide, Server, ServerConfig};
use flexrel_storage::codec::{crc32, put_attrs, put_u32, put_value};
use flexrel_storage::Database;
use flexrel_tests::partial_key_db;

// ---------------------------------------------------------------------------
// Generators (deterministic, driven by the proptest seed stream).
// ---------------------------------------------------------------------------

/// A tuple with up to `max_attrs` attributes from a 90-name pool — shapes
/// regularly exceed the 64-attribute inline `AttrSet` limit — holding every
/// wire value kind except exotic floats (those get a dedicated bit-exact
/// test, since `Value`'s derived `PartialEq` follows IEEE `NaN != NaN`).
fn arb_row(rng: &mut TestRng, max_attrs: usize) -> Tuple {
    let n = 1 + (rng.next_u64() as usize) % max_attrs;
    let mut t = Tuple::new();
    for _ in 0..n {
        let a = format!("a{:02}", rng.next_u64() % 90);
        t.insert(a, arb_value(rng));
    }
    t
}

fn arb_value(rng: &mut TestRng) -> Value {
    match rng.next_u64() % 6 {
        0 => Value::from(rng.next_u64() as i64 % 10_000),
        1 => Value::from((rng.next_u64() % 1000) as f64 / 8.0),
        2 => Value::from(format!("s{}", rng.next_u64() % 50)),
        3 => Value::tag(format!("t{}", rng.next_u64() % 20)),
        4 => Value::from(rng.next_u64().is_multiple_of(2)),
        _ => Value::Null,
    }
}

/// A tuple guaranteed to spill past the 64-attribute inline representation.
fn big_row() -> Tuple {
    let mut t = Tuple::new();
    for i in 0..70 {
        t.insert(format!("a{:02}", i), i as i64);
    }
    assert!(t.attrs().len() > 64);
    t
}

/// A run of 1–300 rows over one shape, each column mixing value kinds its
/// own way: all integers, all floats, a palette of three values of three
/// kinds (an integer beside a string beside a null) that often repeat from
/// row to row, or fresh values of every kind.  Between them these exercise
/// every column kind of a block and the run-length dictionary pool.
fn arb_run(rng: &mut TestRng) -> Vec<Tuple> {
    let width = 1 + (rng.next_u64() as usize) % 6;
    let columns: Vec<(String, u64)> = (0..width)
        .map(|_| (format!("a{:02}", rng.next_u64() % 90), rng.next_u64() % 4))
        .collect();
    let palette = [Value::from(7i64), Value::from("seven"), Value::Null];
    let len = 1 + (rng.next_u64() as usize) % 300;
    (0..len)
        .map(|_| {
            let mut t = Tuple::new();
            for (name, mix) in &columns {
                let v = match mix {
                    0 => Value::from(rng.next_u64() as i64 % 1_000),
                    1 => Value::from((rng.next_u64() % 1_000) as f64 / 8.0),
                    2 => palette[(rng.next_u64() as usize) % 3].clone(),
                    _ => arb_value(rng),
                };
                t.insert(name.as_str(), v);
            }
            t
        })
        .collect()
}

fn arb_request(rng: &mut TestRng) -> Request {
    match rng.next_u64() % 5 {
        0 => Request::Hello {
            version: rng.next_u64() as u32,
        },
        1 => Request::Query {
            frql: format!(
                "SELECT * FROM r{} WHERE id = {}",
                rng.next_u64() % 3,
                rng.next_u64() % 1000
            ),
        },
        2 => {
            let n = 1 + (rng.next_u64() as usize) % 4;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                if rng.next_u64().is_multiple_of(2) {
                    ops.push(WriteOp::Insert(arb_row(rng, 80)));
                } else {
                    let key_value = arb_row(rng, 6);
                    ops.push(WriteOp::DeleteEq {
                        key: key_value.attrs(),
                        key_value,
                    });
                }
            }
            Request::Transact {
                relation: format!("r{}", rng.next_u64() % 3),
                ops,
            }
        }
        3 => Request::Ping {
            token: rng.next_u64(),
        },
        _ => Request::Goodbye,
    }
}

fn arb_response(rng: &mut TestRng) -> Response {
    const CODES: [ErrorCode; 8] = [
        ErrorCode::Plan,
        ErrorCode::Exec,
        ErrorCode::Constraint,
        ErrorCode::NotFound,
        ErrorCode::Busy,
        ErrorCode::Timeout,
        ErrorCode::Protocol,
        ErrorCode::ShuttingDown,
    ];
    match rng.next_u64() % 7 {
        0 => Response::HelloOk {
            version: rng.next_u64() as u32,
            session: rng.next_u64(),
        },
        1 => {
            let mut rows = Vec::new();
            if rng.next_u64().is_multiple_of(2) {
                // Up to 7 lone rows of fresh shapes, then perhaps a spilled
                // one; often empty.
                for _ in 0..rng.next_u64() % 8 {
                    rows.push(arb_row(rng, 80));
                }
                if rng.next_u64().is_multiple_of(2) {
                    rows.push(big_row());
                }
            } else {
                // Same-shape runs between lone rows.
                for _ in 0..1 + rng.next_u64() % 4 {
                    match rng.next_u64() % 3 {
                        0 => rows.push(arb_row(rng, 80)),
                        _ => rows.extend(arb_run(rng)),
                    }
                }
            }
            // Rows of the empty shape: zero-arity blocks of one row each.
            for _ in 0..rng.next_u64() % 3 {
                let at = (rng.next_u64() as usize) % (rows.len() + 1);
                rows.insert(at, Tuple::empty());
            }
            Response::Rows(rows)
        }
        2 => Response::Explain(format!("Scan(r{})", rng.next_u64() % 3)),
        3 => Response::TxnOk {
            inserted: rng.next_u64() % 100,
            deleted: rng.next_u64() % 100,
        },
        4 => Response::Error {
            code: CODES[(rng.next_u64() as usize) % CODES.len()],
            message: format!("e{}", rng.next_u64() % 50),
        },
        5 => Response::Pong {
            token: rng.next_u64(),
        },
        _ => Response::Bye,
    }
}

/// A `Read` that hands out at most `chunk` bytes per call — simulates the
/// fragmented TCP reads a [`FrameReader`] must reassemble across.
struct TrickleReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for TrickleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Drains every frame from `bytes` through a [`FrameReader`] fed `chunk`
/// bytes per read.  Returns the payloads up to the first error.
fn drain_frames(bytes: &[u8], chunk: usize) -> (Vec<Vec<u8>>, Option<WireError>) {
    let mut r = TrickleReader {
        bytes,
        pos: 0,
        chunk: chunk.max(1),
    };
    let mut reader = FrameReader::new();
    let mut payloads = Vec::new();
    loop {
        match reader.recv(&mut r) {
            Ok(Recv::Message(p)) => payloads.push(p.to_vec()),
            Ok(Recv::Closed) => return (payloads, None),
            Ok(Recv::Idle) => unreachable!("TrickleReader never blocks"),
            Err(e) => return (payloads, Some(e)),
        }
    }
}

/// A `Read` like a non-blocking socket under load: each call either
/// reports `WouldBlock` or hands out a random short prefix of what is
/// left, anywhere from one byte to 40 KiB.
struct ChoppyReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    rng: TestRng,
}

impl Read for ChoppyReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.rng.next_u64().is_multiple_of(4) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let max = 1 + (self.rng.next_u64() as usize) % (40 * 1024);
        let n = max.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Drains `bytes` through one [`FrameReader`] fed by a [`ChoppyReader`],
/// polling again on every `Idle`.  Returns the payloads up to the stream's
/// end and how it ended.
fn drain_choppy(bytes: &[u8], seed: u64) -> (Vec<Vec<u8>>, Result<(), WireError>) {
    let mut r = ChoppyReader {
        bytes,
        pos: 0,
        rng: TestRng::new(seed),
    };
    let mut reader = FrameReader::new();
    let mut payloads = Vec::new();
    loop {
        match reader.recv(&mut r) {
            Ok(Recv::Message(p)) => payloads.push(p.to_vec()),
            Ok(Recv::Idle) => continue,
            Ok(Recv::Closed) => return (payloads, Ok(())),
            Err(e) => return (payloads, Err(e)),
        }
    }
}

/// Random payloads, about half of them larger than a 16 KiB read window.
fn arb_payloads(rng: &mut TestRng) -> Vec<Vec<u8>> {
    let n = 1 + (rng.next_u64() as usize) % 8;
    (0..n)
        .map(|_| {
            let len = match rng.next_u64() % 3 {
                0 => (rng.next_u64() as usize) % 64,
                _ => 16 * 1024 + (rng.next_u64() as usize) % (56 * 1024),
            };
            (0..len).map(|_| rng.next_u64() as u8).collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Codec properties.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary requests survive encode → frame → byte-dribbled reassembly
    /// → decode bit-identically, whatever the read fragmentation.
    #[test]
    fn requests_round_trip_through_fragmented_frames(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let n = 1 + (rng.next_u64() as usize) % 12;
        let requests: Vec<Request> = (0..n).map(|_| arb_request(&mut rng)).collect();
        let mut bytes = Vec::new();
        for req in &requests {
            write_frame(&mut bytes, &encode_request(req)).unwrap();
        }
        let chunk = 1 + (rng.next_u64() as usize) % 9;
        let (payloads, err) = drain_frames(&bytes, chunk);
        prop_assert!(err.is_none(), "clean stream errored: {:?}", err);
        prop_assert_eq!(payloads.len(), requests.len());
        for (payload, req) in payloads.iter().zip(&requests) {
            let decoded = decode_request(payload).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&decoded, req);
        }
    }

    /// Arbitrary responses — including result sets over spilled >64-attr
    /// shapes and dictionary strings — round trip the same way.
    #[test]
    fn responses_round_trip_through_fragmented_frames(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let n = 1 + (rng.next_u64() as usize) % 10;
        let mut responses: Vec<Response> = (0..n).map(|_| arb_response(&mut rng)).collect();
        // At least one multi-shape result set with a spilled shape per case.
        responses.push(Response::Rows(vec![big_row(), arb_row(&mut rng, 5), big_row()]));
        let mut bytes = Vec::new();
        for rsp in &responses {
            write_frame(&mut bytes, &encode_response(rsp)).unwrap();
        }
        let chunk = 1 + (rng.next_u64() as usize) % 9;
        let (payloads, err) = drain_frames(&bytes, chunk);
        prop_assert!(err.is_none(), "clean stream errored: {:?}", err);
        prop_assert_eq!(payloads.len(), responses.len());
        for (payload, rsp) in payloads.iter().zip(&responses) {
            let decoded = decode_response(payload).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&decoded, rsp);
        }
    }

    /// Truncating the byte stream anywhere yields complete prefix messages
    /// followed by a typed outcome: a clean `Closed` exactly on a frame
    /// boundary, a `Corrupt` error otherwise.  Never a panic, never a
    /// partial message.
    #[test]
    fn truncation_yields_typed_errors_never_panics(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let requests: Vec<Request> = (0..3).map(|_| arb_request(&mut rng)).collect();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for req in &requests {
            write_frame(&mut bytes, &encode_request(req)).unwrap();
            boundaries.push(bytes.len());
        }
        for _ in 0..16 {
            let cut = (rng.next_u64() as usize) % (bytes.len() + 1);
            let (payloads, err) = drain_frames(&bytes[..cut], 7);
            let whole = boundaries.iter().filter(|&&b| b <= cut && b > 0).count();
            prop_assert_eq!(payloads.len(), whole, "cut at {}", cut);
            for (payload, req) in payloads.iter().zip(&requests) {
                let decoded =
                    decode_request(payload).map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(&decoded, req);
            }
            if boundaries.contains(&cut) {
                prop_assert!(err.is_none(), "clean boundary cut at {} errored", cut);
            } else {
                prop_assert!(
                    matches!(err, Some(WireError::Corrupt(_))),
                    "mid-frame cut at {} gave {:?}",
                    cut,
                    err
                );
            }
        }
    }

    /// Any single-byte corruption of a framed message is caught by the
    /// frame CRC (or the length sanity check): the reader reports a typed
    /// `Corrupt` error — it never panics and never silently yields the
    /// original message.
    #[test]
    fn single_byte_corruption_is_detected(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let req = arb_request(&mut rng);
        let mut clean = Vec::new();
        write_frame(&mut clean, &encode_request(&req)).unwrap();
        for _ in 0..16 {
            let victim = (rng.next_u64() as usize) % clean.len();
            let flip = 1u8 << (rng.next_u64() % 8);
            let mut bytes = clean.clone();
            bytes[victim] ^= flip;
            let (payloads, err) = drain_frames(&bytes, 16 * 1024);
            let silently_ok = err.is_none()
                && payloads.len() == 1
                && decode_request(&payloads[0]).map(|d| d == req).unwrap_or(false);
            prop_assert!(
                !silently_ok,
                "flip of bit {:#04x} at byte {} went undetected",
                flip,
                victim
            );
            if let Some(e) = err {
                prop_assert!(
                    matches!(e, WireError::Corrupt(_)),
                    "corruption surfaced as {:?}, not Corrupt",
                    e
                );
            }
        }
    }

    /// Multi-frame streams with frames past the 16 KiB read window,
    /// framed by one reused [`FrameWriter`] (which must write exactly the
    /// WAL's `[len][crc][payload]` frames), reassemble to the same payloads through
    /// random short reads and `WouldBlock`s.  Truncating the stream
    /// anywhere keeps the whole frames before the cut and ends in `Closed`
    /// exactly on a frame boundary, `Corrupt` anywhere else.
    #[test]
    fn multi_frame_streams_reassemble_through_short_reads(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let payloads = arb_payloads(&mut rng);
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        let mut frame = FrameWriter::new();
        for p in &payloads {
            let mut one = Vec::new();
            put_u32(&mut one, p.len() as u32);
            put_u32(&mut one, crc32(p));
            one.extend_from_slice(p);
            frame.begin().extend_from_slice(p);
            frame.send(&mut bytes).unwrap();
            prop_assert_eq!(&bytes[*boundaries.last().unwrap()..], &one[..]);
            boundaries.push(bytes.len());
        }
        let (got, end) = drain_choppy(&bytes, rng.next_u64());
        prop_assert!(end.is_ok(), "clean stream ended in {:?}", end);
        prop_assert_eq!(&got, &payloads);

        for _ in 0..8 {
            let cut = match rng.next_u64() % 3 {
                0 => boundaries[(rng.next_u64() as usize) % boundaries.len()],
                _ => (rng.next_u64() as usize) % (bytes.len() + 1),
            };
            let (got, end) = drain_choppy(&bytes[..cut], rng.next_u64());
            let whole = boundaries.iter().filter(|&&b| b <= cut && b > 0).count();
            prop_assert_eq!(&got[..], &payloads[..whole], "cut at {}", cut);
            if boundaries.contains(&cut) {
                prop_assert!(end.is_ok(), "boundary cut at {} ended in {:?}", cut, end);
            } else {
                prop_assert!(
                    matches!(end, Err(WireError::Corrupt(_))),
                    "mid-frame cut at {} ended in {:?}",
                    cut,
                    end
                );
            }
        }
    }

    /// Decoding any strict prefix of a valid payload (framing already
    /// stripped) is a typed error, and trailing garbage is rejected too —
    /// the payload decoders are total.
    #[test]
    fn payload_decoders_are_total(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let req = arb_request(&mut rng);
        let payload = encode_request(&req);
        for cut in 0..payload.len() {
            prop_assert!(decode_request(&payload[..cut]).is_err(), "prefix {} decoded", cut);
        }
        let mut padded = payload.clone();
        padded.push(0xFF);
        prop_assert!(decode_request(&padded).is_err(), "trailing byte accepted");

        // Every prefix of a response up to 16 KiB — which covers every
        // reply of lone rows (at most 7 × 80 attributes of ≤ 24 bytes each,
        // shape table included, plus a spilled row's 70 × 16) — and a
        // sample of a larger one's, where several long runs would make the
        // exhaustive check quadratic in tens of kilobytes.
        let rsp = arb_response(&mut rng);
        let payload = encode_response(&rsp);
        let cuts: Vec<usize> = if payload.len() <= 16 * 1024 {
            (0..payload.len()).collect()
        } else {
            (0..512).map(|_| (rng.next_u64() as usize) % payload.len()).collect()
        };
        for cut in cuts {
            prop_assert!(decode_response(&payload[..cut]).is_err(), "prefix {} decoded", cut);
        }
        let mut padded = payload.clone();
        padded.push(0xFF);
        prop_assert!(decode_response(&padded).is_err(), "trailing byte accepted");
    }
}

/// IEEE-special floats cross the wire bit-exactly: NaN payloads, signed
/// zeros and infinities survive because the codec moves `f64::to_bits`,
/// not a lossy representation.  (Checked via `to_bits` — `Value`'s derived
/// `PartialEq` would call `NaN != NaN` and `-0.0 == 0.0`.)
#[test]
fn special_floats_round_trip_bit_exact() {
    let specials = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MAX,
        1.0 + f64::EPSILON,
    ];
    let rows: Vec<Tuple> = specials
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let mut t = Tuple::new();
            t.insert("id", i as i64);
            t.insert("x", f);
            t
        })
        .collect();
    let payload = encode_response(&Response::Rows(rows.clone()));
    let Response::Rows(decoded) = decode_response(&payload).unwrap() else {
        panic!("Rows decoded as a different message");
    };
    assert_eq!(decoded.len(), rows.len());
    for (orig, dec) in rows.iter().zip(&decoded) {
        let (Some(Value::Float(a)), Some(Value::Float(b))) =
            (orig.get_name("x"), dec.get_name("x"))
        else {
            panic!("float attribute lost on the wire");
        };
        assert_eq!(a.to_bits(), b.to_bits(), "float bits changed on the wire");
    }

    // A column mixing kinds is dictionary-coded with one pool entry per
    // change from the row above; `0.0` beside `-0.0` and a NaN beside
    // itself must not be merged by IEEE `==` (which calls them equal and
    // unequal respectively).
    let mixed = [
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Float(f64::NAN),
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::str("not a float"),
        Value::Float(-0.0),
    ];
    let rows: Vec<Tuple> = mixed
        .iter()
        .map(|v| Tuple::new().with("x", v.clone()))
        .collect();
    let Response::Rows(decoded) =
        decode_response(&encode_response(&Response::Rows(rows.clone()))).unwrap()
    else {
        panic!("Rows decoded as a different message");
    };
    let bits = |rows: &[Tuple]| -> Vec<Option<u64>> {
        rows.iter()
            .map(|t| match t.get_name("x") {
                Some(Value::Float(f)) => Some(f.to_bits()),
                _ => None,
            })
            .collect()
    };
    assert_eq!(
        bits(&decoded),
        bits(&rows),
        "a mixed column lost float bits"
    );
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Protocol version 2, pinned: a four-row reply over two shapes whose
/// first shape's run is broken by the second, with one column of each
/// kind — `f` FLOAT, `n` INT, `s` DICT (two equal neighbours share a pool
/// entry) and the tag column `t` DICT.  Any change to the format fails
/// here.
#[test]
fn a_small_reply_encodes_to_the_pinned_bytes() {
    let rows = vec![
        Tuple::new().with("n", 1).with("f", 0.5).with("s", "a"),
        Tuple::new().with("n", 2).with("f", 1.5).with("s", "a"),
        Tuple::new().with("t", Value::tag("x")),
        Tuple::new().with("n", 3).with("f", 2.5).with("s", "b"),
    ];
    const GOLDEN: &str = concat!(
        "82",                                           // Rows
        "02000000",                                     // two shapes
        "03000000 01000000 66 01000000 6e 01000000 73", // {f, n, s}
        "01000000 01000000 74",                         // {t}
        "04000000",                                     // four rows
        "03000000",                                     // in three blocks
        "00000000 02000000",                            // block: shape 0, two rows
        "01 000000000000e03f 000000000000f83f",         // f FLOAT 0.5, 1.5
        "00 0100000000000000 0200000000000000",         // n INT 1, 2
        "02 01000000 02 01000000 61 00000000 00000000", // s DICT ["a"], codes 0 0
        "01000000 01000000",                            // block: shape 1, one row
        "02 01000000 04 01000000 78 00000000",          // t DICT ['x'], code 0
        "00000000 01000000",                            // block: shape 0, one row
        "01 0000000000000440",                          // f FLOAT 2.5
        "00 0300000000000000",                          // n INT 3
        "02 01000000 02 01000000 62 00000000",          // s DICT ["b"], code 0
    );
    let payload = encode_response(&Response::Rows(rows.clone()));
    assert_eq!(hex(&payload), GOLDEN.replace(' ', ""));
    assert_eq!(decode_response(&payload).unwrap(), Response::Rows(rows));
}

/// Counts the bytes each thread allocates, so a test can bound what a
/// decoder allocates for a forged payload.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; `count` only bumps a
// thread-local counter (`try_with` never panics, and a `Cell<usize>` needs
// no allocation), so the allocator is never re-entered.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A hand-built `Rows` payload: the shape table of `shapes`, `n_rows`,
/// `n_blocks`, then `blocks` verbatim.
fn rows_payload(shapes: &[AttrSet], n_rows: u32, n_blocks: u32, blocks: &[Vec<u8>]) -> Vec<u8> {
    let mut p = vec![0x82];
    put_u32(&mut p, shapes.len() as u32);
    for s in shapes {
        put_attrs(&mut p, s);
    }
    put_u32(&mut p, n_rows);
    put_u32(&mut p, n_blocks);
    blocks.iter().for_each(|b| p.extend_from_slice(b));
    p
}

/// A block: `[slot][len]`, then the columns' bytes.
fn block(slot: u32, len: u32, cols: &[Vec<u8>]) -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, slot);
    put_u32(&mut b, len);
    cols.iter().for_each(|c| b.extend_from_slice(c));
    b
}

fn int_col(xs: &[i64]) -> Vec<u8> {
    let mut c = vec![0];
    xs.iter()
        .for_each(|x| c.extend_from_slice(&x.to_le_bytes()));
    c
}

fn dict_col(pool: &[Value], codes: &[u32]) -> Vec<u8> {
    let mut c = vec![2];
    put_u32(&mut c, pool.len() as u32);
    pool.iter().for_each(|v| put_value(&mut c, v));
    codes.iter().for_each(|k| put_u32(&mut c, *k));
    c
}

/// Malformed blocks are typed `Corrupt` errors, never panics: a code past
/// its pool, a pool longer than its block, an unknown column kind, a
/// column cut short, a shape slot out of range, block lengths that do not
/// add up to the row count, and a zero-arity block of more than one row
/// (such a block costs no bytes per row).  A forged 64-byte payload that
/// declares 2³²−1 rows fails before allocating for them.
#[test]
fn malformed_blocks_are_typed_errors() {
    let a = [attrs!["a"]];
    let five = [Value::from(5i64)];
    let decode = |p: &[u8]| decode_response(p);
    let ok = rows_payload(&a, 2, 1, &[block(0, 2, &[int_col(&[1, 2])])]);
    assert_eq!(
        decode(&ok).unwrap(),
        Response::Rows(vec![Tuple::new().with("a", 1), Tuple::new().with("a", 2)])
    );
    let two_empty = rows_payload(
        &[AttrSet::empty()],
        2,
        2,
        &[block(0, 1, &[]), block(0, 1, &[])],
    );
    assert_eq!(
        decode(&two_empty).unwrap(),
        Response::Rows(vec![Tuple::empty(), Tuple::empty()])
    );

    let cases = [
        (
            "code past the pool",
            rows_payload(&a, 2, 1, &[block(0, 2, &[dict_col(&five, &[0, 1])])]),
        ),
        (
            "pool longer than the block",
            rows_payload(
                &a,
                1,
                1,
                &[block(0, 1, &[dict_col(&[Value::Null, Value::Null], &[0])])],
            ),
        ),
        (
            "unknown column kind",
            rows_payload(&a, 1, 1, &[block(0, 1, &[vec![9; 9]])]),
        ),
        (
            "INT column cut short",
            rows_payload(&a, 3, 1, &[block(0, 3, &[int_col(&[1, 2])])]),
        ),
        (
            "codes cut short",
            rows_payload(&a, 2, 1, &[block(0, 2, &[dict_col(&five, &[0])])]),
        ),
        (
            "shape slot out of range",
            rows_payload(&a, 1, 1, &[block(1, 1, &[int_col(&[1])])]),
        ),
        (
            "blocks short of n_rows",
            rows_payload(&a, 3, 1, &[block(0, 2, &[int_col(&[1, 2])])]),
        ),
        (
            "block past n_rows",
            rows_payload(&a, 1, 1, &[block(0, 2, &[int_col(&[1, 2])])]),
        ),
        (
            "no block for a row",
            rows_payload(&a, 1, 0, &[int_col(&[1])]),
        ),
        (
            "zero-arity block of two rows",
            rows_payload(&[AttrSet::empty()], 2, 1, &[block(0, 2, &[]), vec![0; 8]]),
        ),
    ];
    for (label, payload) in cases {
        assert!(
            matches!(decode(&payload), Err(WireError::Corrupt(_))),
            "{label}: {:?}",
            decode(&payload)
        );
    }

    let mut forged = rows_payload(&a, u32::MAX, 1, &[block(0, u32::MAX, &[vec![0]])]);
    forged.resize(64, 0);
    let before = ALLOCATED.with(Cell::get);
    let result = decode(&forged);
    let allocated = ALLOCATED.with(Cell::get) - before;
    assert!(matches!(result, Err(WireError::Corrupt(_))), "{result:?}");
    assert!(
        allocated <= 16 * forged.len(),
        "{allocated} bytes allocated decoding a {}-byte payload",
        forged.len()
    );
}

// ---------------------------------------------------------------------------
// Deterministic server conversations.
// ---------------------------------------------------------------------------

/// Boots a server over a freshly seeded wide database on an OS-assigned
/// loopback port.
fn boot(cfg: ServerConfig, n: usize) -> Server {
    let db = Database::new();
    seed_wide(&db, n, 4, 0.5).unwrap();
    Server::start(db, "127.0.0.1:0", cfg).unwrap()
}

/// Pipelined statements are answered strictly in request order — each
/// response carries its request's key echo, so any reordering is visible.
#[test]
fn pipelined_statements_are_answered_in_order() {
    let server = boot(ServerConfig::default(), 64);
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    for i in 0..10i64 {
        conn.send(&Request::Query {
            frql: format!("SELECT * FROM wide WHERE id = {}", i),
        })
        .unwrap();
    }
    assert_eq!(conn.pending(), 10);
    for i in 0..10i64 {
        match conn.recv().unwrap() {
            Response::Rows(rows) => {
                assert_eq!(rows.len(), 1, "point lookup of id {} fanned out", i);
                assert_eq!(rows[0].get_name("id"), Some(&Value::from(i)));
            }
            other => panic!("statement {} answered out of order: {:?}", i, other),
        }
    }
    conn.close().unwrap();
    server.shutdown();
}

/// Every value crosses the codec round trip: a catalogue of statements —
/// point, range, guard, join, aggregate, group-by — answers over the wire
/// with exactly the sorted rows `run_statement` gives in process on the
/// same seeded data, and an `EXPLAIN` crosses the wire as the same text.
#[test]
fn wire_answers_match_in_process_statements() {
    const N: usize = 300;
    let server = boot(ServerConfig::default(), N);
    // `seed_wide` is deterministic: this is the database `boot` serves.
    let db = Database::new();
    seed_wide(&db, N, 4, 0.5).unwrap();
    let local = |frql: &str| run_statement(&db, frql, &ExecOptions::serial()).unwrap();
    let catalogue = [
        format!("SELECT * FROM wide WHERE id = {}", N / 2),
        format!(
            "SELECT * FROM wide WHERE id >= {} AND id < {}",
            N / 4,
            N / 4 + 50
        ),
        "SELECT id, kind FROM wide WHERE kind = 'k0'".to_string(),
        "SELECT * FROM wide GUARD v1".to_string(),
        "SELECT id, v0 FROM wide WHERE kind = 'k0' GUARD v0".to_string(),
        format!(
            "SELECT kind, label FROM wide JOIN kinds WHERE id = {}",
            N / 3
        ),
        "SELECT label FROM wide JOIN kinds WHERE kind = 'k2'".to_string(),
        "SELECT COUNT(*), SUM(v0) FROM wide WHERE kind = 'k0'".to_string(),
        "SELECT kind, COUNT(*) FROM wide GROUP BY kind".to_string(),
        "SELECT COUNT(*) FROM wide".to_string(),
    ];
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    for frql in &catalogue {
        let mut wire = conn.query(frql).unwrap();
        let mut expect = match local(frql) {
            StatementOutcome::Rows(rows) => rows,
            other => panic!("{:?} gave {:?}", frql, other),
        };
        assert!(!expect.is_empty(), "{:?} selects nothing", frql);
        wire.sort();
        expect.sort();
        assert_eq!(wire, expect, "{:?} differs over the wire", frql);
    }
    let explain = "EXPLAIN SELECT * FROM wide WHERE kind = 'k1'";
    match local(explain) {
        StatementOutcome::Explain(text) => assert_eq!(conn.explain(explain).unwrap(), text),
        other => panic!("{:?} gave {:?}", explain, other),
    }
    conn.close().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.statements_ok, catalogue.len() as u64 + 1);
    assert_eq!(stats.protocol_errors, 0);
}

/// With a zero in-flight cap every statement is refused `Busy` — the
/// deterministic backpressure case — while permit-free requests (ping)
/// still flow, and the rejection count is exact.
#[test]
fn zero_inflight_cap_rejects_every_statement_as_busy() {
    let cfg = ServerConfig {
        max_inflight: 0,
        ..ServerConfig::default()
    };
    let server = boot(cfg, 32);
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    for _ in 0..5 {
        let err = conn.query("SELECT * FROM wide WHERE id = 0").unwrap_err();
        assert!(err.is_busy(), "expected Busy, got {}", err);
    }
    conn.ping(7).unwrap();
    conn.close().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.busy_rejections, 5);
    assert_eq!(stats.statements_ok, 0);
}

/// An already-expired statement deadline surfaces as a typed `Timeout`
/// error and no partial rows — the cancellation path, made deterministic
/// with a zero timeout.
#[test]
fn expired_statement_deadline_surfaces_as_timeout() {
    let cfg = ServerConfig {
        statement_timeout: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    let server = boot(cfg, 256);
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let err = conn.query("SELECT * FROM wide").unwrap_err();
    assert!(err.is_timeout(), "expected Timeout, got {}", err);
    conn.close().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.statements_err, 0, "timeout double-counted as error");
}

/// Graceful drain: statements pipelined before shutdown are all answered,
/// then the server says `Bye` — no acked request is dropped.
#[test]
fn drain_answers_pipelined_statements_before_bye() {
    let server = boot(ServerConfig::default(), 64);
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    for _ in 0..5 {
        conn.send(&Request::Query {
            frql: "SELECT COUNT(*) FROM wide".into(),
        })
        .unwrap();
    }
    server.request_shutdown();
    for i in 0..5 {
        match conn.recv().unwrap() {
            Response::Rows(rows) => {
                assert_eq!(rows[0].get_name("count"), Some(&Value::from(64i64)));
            }
            other => panic!("pipelined statement {} lost in drain: {:?}", i, other),
        }
    }
    assert!(
        matches!(conn.recv().unwrap(), Response::Bye),
        "drain did not end with Bye"
    );
    server.shutdown();
}

/// The Hello gate: a duplicate Hello is a protocol error, and a version the
/// server does not speak is refused at the handshake.
#[test]
fn hello_violations_are_protocol_errors() {
    let server = boot(ServerConfig::default(), 16);

    // Duplicate Hello on an established session.
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    conn.send(&Request::Hello {
        version: PROTOCOL_VERSION,
    })
    .unwrap();
    match conn.recv().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("duplicate Hello accepted: {:?}", other),
    }

    // Wrong version at the handshake.
    assert_handshake_refused(&server, 999);

    server.shutdown();
}

/// Opens a raw socket, says Hello with `version`, and asserts the server
/// answers with a typed `Protocol` error.
fn assert_handshake_refused(server: &Server, version: u32) {
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    flexrel_server::write_request(&mut stream, &Request::Hello { version }).unwrap();
    let mut reader = FrameReader::new();
    let payload = match reader.recv(&mut stream).unwrap() {
        Recv::Message(p) => p,
        other => panic!("no handshake answer: {:?}", other),
    };
    match decode_response(payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("version {} accepted: {:?}", version, other),
    }
}

/// A client of the row-major version 1 format cannot read shape blocks, so
/// its Hello is refused at the handshake rather than its first reply
/// misread.
#[test]
fn a_version_1_client_is_refused_at_the_handshake() {
    assert_eq!(PROTOCOL_VERSION, 2);
    let server = boot(ServerConfig::default(), 16);
    assert_handshake_refused(&server, 1);
    server.shutdown();
}

/// A peer that pipelines scans and never reads a reply cannot pin its
/// session: once the socket buffers fill, a reply write stalls past the
/// statement timeout, the session closes on the torn write, and shutdown
/// completes.  A watchdog thread bounds the wait, so a regression fails
/// here instead of hanging the suite.
#[test]
fn a_peer_that_never_reads_cannot_pin_its_session() {
    let cfg = ServerConfig {
        statement_timeout: Some(Duration::from_secs(1)),
        ..ServerConfig::default()
    };
    let server = boot(cfg, 4_000);
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    flexrel_server::write_request(
        &mut stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    // ~200 replies of ~100 KiB each: far more than the two socket buffers
    // between the server and this never-reading client hold.
    let scan = encode_request(&Request::Query {
        frql: "SELECT * FROM wide".into(),
    });
    let mut pipelined = Vec::new();
    for _ in 0..200 {
        write_frame(&mut pipelined, &scan).unwrap();
    }
    stream.write_all(&pipelined).unwrap();
    // Shut down only once the session runs: a drain refuses a connection
    // the accept loop has not picked up yet, which would leave nothing to
    // pin.
    let started = Instant::now();
    while server.stats().statements_ok.load(Ordering::Relaxed) == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the session never answered a scan"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        done_tx.send(server.shutdown()).ok();
    });
    let stats = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown hung behind a session whose peer never reads");
    assert!(stats.statements_ok >= 1, "{:?}", stats);
    drop(stream);
}

// ---------------------------------------------------------------------------
// DeleteEq semantics.
// ---------------------------------------------------------------------------

/// A server over the partial-key fixture, with a handle on its database so
/// the tests can look behind the wire.
fn boot_partial_key() -> (Server, Database) {
    let db = partial_key_db();
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    (server, db)
}

fn delete_eq(key_value: Tuple) -> WriteOp {
    WriteOp::DeleteEq {
        key: key_value.attrs(),
        key_value,
    }
}

/// How many stored tuples are defined on all of `key` and agree with
/// `key_value` there — the victims a `DeleteEq` may have, by definition.
fn victims(db: &Database, relation: &str, key: &AttrSet, key_value: &Tuple) -> u64 {
    let rows = db.scan(relation).unwrap();
    rows.iter()
        .filter(|(_, t)| t.defined_on(key) && t.project(key) == *key_value)
        .count() as u64
}

/// `DeleteEq` removes exactly the tuples defined on the whole key that
/// agree with it: through the stored index on the key, through the scan
/// fallback when the relation has none, and on a key that no index is on.
/// A tuple lacking part of the key is never a victim.
#[test]
fn delete_eq_removes_the_same_victims_through_the_index_and_the_scan() {
    let (server, db) = boot_partial_key();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let ab = Tuple::new().with("a", 1).with("b", 1);
    let key = attrs!["a", "b"];
    assert!(db.has_index("inner", &key) && !db.has_index("inner_nx", &key));
    let with_a_alone = |rel: &str| {
        let rows = db.scan(rel).unwrap();
        rows.iter()
            .filter(|(_, t)| t.get_name("a") == Some(&Value::Int(1)) && !t.has_name("b"))
            .count()
    };

    for relation in ["inner", "inner_nx"] {
        let (expected, before) = (
            victims(&db, relation, &key, &ab),
            db.count(relation).unwrap(),
        );
        let spared = with_a_alone(relation);
        assert!(expected > 0 && spared > 0, "the fixture holds both kinds");
        let acked = conn
            .transact(relation, vec![delete_eq(ab.clone())])
            .unwrap();
        assert_eq!(acked, (0, expected), "{}", relation);
        assert_eq!(victims(&db, relation, &key, &ab), 0);
        assert_eq!(db.count(relation).unwrap() as u64, before as u64 - expected);
        assert_eq!(
            with_a_alone(relation),
            spared,
            "a tuple without b was deleted"
        );
        db.verify_invariants().unwrap();
        // Nothing left to delete: an empty victim set is an acked no-op.
        let again = conn
            .transact(relation, vec![delete_eq(ab.clone())])
            .unwrap();
        assert_eq!(again, (0, 0));
    }

    // A key with no index on exactly it (`inner` indexes {a, b}, not {a}):
    // the scan fallback, which here also takes the tuples without `b`.
    let a2 = Tuple::new().with("a", 2);
    let expected = victims(&db, "inner", &attrs!["a"], &a2);
    assert_eq!(expected, 6);
    assert_eq!(conn.transact("inner", vec![delete_eq(a2)]).unwrap(), (0, 6));
    db.verify_invariants().unwrap();

    conn.close().unwrap();
    server.shutdown();
}

/// Inside one batch a `DeleteEq` sees the batch's own earlier insert, and a
/// batch that fails after its delete leaves the victims where they were.
#[test]
fn delete_eq_sees_its_batch_and_rolls_back_with_it() {
    let (server, db) = boot_partial_key();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let fresh = Tuple::new().with("a", 500).with("b", 7).with("v", 1);
    let key_value = fresh.project(&attrs!["a", "b"]);
    let before = db.count("inner").unwrap();

    let acked = conn
        .transact(
            "inner",
            vec![WriteOp::Insert(fresh.clone()), delete_eq(key_value.clone())],
        )
        .unwrap();
    assert_eq!(acked, (1, 1), "the delete must find the batch's own insert");
    assert_eq!(db.count("inner").unwrap(), before);
    db.verify_invariants().unwrap();

    // Delete existing tuples, then violate the scheme (`a` is mandatory):
    // the batch fails as a whole and the delete is undone.
    let ab = Tuple::new().with("a", 1).with("b", 1);
    let expected = victims(&db, "inner", &attrs!["a", "b"], &ab);
    assert!(expected > 0);
    let err = conn
        .transact(
            "inner",
            vec![
                delete_eq(ab.clone()),
                WriteOp::Insert(Tuple::new().with("b", 1)),
            ],
        )
        .unwrap_err();
    assert!(!err.is_busy() && !err.is_timeout(), "{}", err);
    assert_eq!(victims(&db, "inner", &attrs!["a", "b"], &ab), expected);
    assert_eq!(db.count("inner").unwrap(), before);
    db.verify_invariants().unwrap();

    conn.close().unwrap();
    let stats = server.shutdown();
    assert_eq!((stats.statements_ok, stats.statements_err), (1, 1));
}

/// A reader that holds a relation snapshot — the partitions and the index
/// the delete must update, which an index-nested-loop join owns for as
/// long as it runs — changes nothing about the delete, and the delete
/// changes nothing about what the reader goes on to see.
#[test]
fn delete_eq_beside_a_reader_holding_a_result() {
    let (server, db) = boot_partial_key();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let key = attrs!["a", "b"];
    let (parts, indexes) = db.relation_snapshot("inner").unwrap();
    let index = indexes
        .iter()
        .find(|idx| idx.key() == &key)
        .expect("inner carries an index on {a, b}");
    let held_rows = parts.len();

    let ab = Tuple::new().with("a", 1).with("b", 1);
    let expected = victims(&db, "inner", &key, &ab);
    assert!(expected > 0);
    let acked = conn.transact("inner", vec![delete_eq(ab.clone())]).unwrap();
    assert_eq!(acked, (0, expected));
    assert_eq!(victims(&db, "inner", &key, &ab), 0);
    db.verify_invariants().unwrap();

    // The held index still resolves every victim in the held partitions.
    assert_eq!(parts.len(), held_rows, "the reader kept its snapshot");
    let found = index
        .lookup(&ab)
        .iter()
        .filter_map(|rid| parts.get(*rid))
        .filter(|t| t.project(&key) == ab)
        .count() as u64;
    assert_eq!(found, expected, "the held index kept its entries");
    let now = db.partition_snapshot("inner").unwrap().len();
    assert_eq!(
        now as u64,
        held_rows as u64 - expected,
        "a new reader sees the delete"
    );

    conn.close().unwrap();
    server.shutdown();
}
