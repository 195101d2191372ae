//! The flexrel wire protocol: length-prefixed, CRC-framed binary messages
//! over a byte stream.
//!
//! Every message travels as one [`flexrel_storage::codec`] frame —
//! `[len u32][crc32 u32][payload]`, little-endian, the exact discipline the
//! WAL uses on disk — whose payload starts with a one-byte message tag.
//! Result sets reuse the columnar row format's shape-table idea
//! ([`flexrel_storage::RowBlock`]): the distinct attribute sets of the
//! result are written once, then each row is a shape-slot reference plus
//! its values in the shape's canonical order.  The server writes that
//! layout straight from the executor's column chunks
//! ([`put_rows_from_chunks`]), byte for byte what [`put_rows`] writes for
//! the materialized tuples.  Floats round-trip bit-exactly (NaN and `-0.0`
//! included), and any truncated or bit-flipped input surfaces as a typed
//! [`WireError`] — never a panic.
//!
//! A message is copied once on each side: the sender encodes into a reused
//! [`FrameWriter`] behind a reserved header that is patched in place, and
//! the receiver's [`FrameReader`] reads into its own buffer and lends the
//! payload out of it.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;

use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::error::CoreError;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::{Chunk, ColChunk, ExecStats};
use flexrel_storage::codec::{
    self, crc32, put_str, put_u32, put_u64, put_u8, Cursor, MAX_FRAME_LEN,
};
use flexrel_storage::{ColKind, StorageError};

/// The protocol version spoken by this build.  A [`Request::Hello`] carrying
/// a different version is rejected with [`ErrorCode::Protocol`].
pub const PROTOCOL_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Errors raised on the wire: transport failures, corrupted frames, and
/// protocol violations.  Malformed input is always one of these — the
/// decoders never panic.
#[derive(Debug)]
pub enum WireError {
    /// An operating-system I/O failure on the socket.
    Io(std::io::Error),
    /// Bytes failed validation: truncated frame, CRC mismatch, an
    /// impossible length, or a payload that does not decode.
    Corrupt(String),
    /// A structurally valid message that is illegal at this point of the
    /// conversation (unknown tag, wrong version, Hello twice, …).
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {}", e),
            WireError::Corrupt(msg) => write!(f, "corrupt wire frame: {}", msg),
            WireError::Protocol(msg) => write!(f, "protocol violation: {}", msg),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<StorageError> for WireError {
    fn from(e: StorageError) -> Self {
        WireError::Corrupt(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Error codes.
// ---------------------------------------------------------------------------

/// The typed error classes a server can attach to an error response.  The
/// client surfaces these verbatim; the load driver keys its backpressure
/// and timeout accounting off [`ErrorCode::Busy`] and
/// [`ErrorCode::Timeout`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The statement failed to parse or bind (unknown relation/attribute,
    /// malformed FRQL).
    Plan = 1,
    /// The statement failed during execution.
    Exec = 2,
    /// A write violated a scheme, domain or dependency constraint.
    Constraint = 3,
    /// A named object was not found.
    NotFound = 4,
    /// Admission control rejected the statement: the server is at its
    /// in-flight capacity.  Retryable.
    Busy = 5,
    /// The statement exceeded the server's per-statement deadline and was
    /// cancelled; no partial results were sent.
    Timeout = 6,
    /// The peer broke the wire protocol.
    Protocol = 7,
    /// The server is draining for shutdown and no longer admits work.
    ShuttingDown = 8,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<ErrorCode, WireError> {
        Ok(match v {
            1 => ErrorCode::Plan,
            2 => ErrorCode::Exec,
            3 => ErrorCode::Constraint,
            4 => ErrorCode::NotFound,
            5 => ErrorCode::Busy,
            6 => ErrorCode::Timeout,
            7 => ErrorCode::Protocol,
            8 => ErrorCode::ShuttingDown,
            other => return Err(WireError::Corrupt(format!("unknown error code {}", other))),
        })
    }

    /// Classifies a [`CoreError`] from the statement pipeline into the wire
    /// error class the client should see.
    pub fn classify(e: &CoreError) -> ErrorCode {
        match e {
            CoreError::Timeout(_) => ErrorCode::Timeout,
            CoreError::NotFound(_) => ErrorCode::NotFound,
            CoreError::Invalid(_) | CoreError::UnknownAttribute(_) => ErrorCode::Plan,
            CoreError::InvalidScheme(_)
            | CoreError::InvalidDependency(_)
            | CoreError::SchemeViolation { .. }
            | CoreError::AdViolation { .. }
            | CoreError::FdViolation { .. }
            | CoreError::DomainViolation { .. } => ErrorCode::Constraint,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Plan => "plan",
            ErrorCode::Exec => "exec",
            ErrorCode::Constraint => "constraint",
            ErrorCode::NotFound => "not-found",
            ErrorCode::Busy => "busy",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Protocol => "protocol",
            ErrorCode::ShuttingDown => "shutting-down",
        };
        f.write_str(s)
    }
}

// ---------------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------------

/// One write operation inside a [`Request::Transact`] batch.
#[derive(Clone, Debug, PartialEq)]
pub enum WriteOp {
    /// Insert a tuple (full scheme/domain/dependency checking server-side).
    Insert(Tuple),
    /// Delete every tuple equal to `key_value` on the attributes of `key`.
    /// Sees the batch's own earlier writes.
    DeleteEq {
        /// The key attribute set.
        key: AttrSet,
        /// The key value, a tuple over exactly the attributes of `key`.
        key_value: Tuple,
    },
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Opens the conversation; must be the first message on a connection.
    Hello {
        /// The protocol version the client speaks.
        version: u32,
    },
    /// Executes one FRQL statement (a leading `EXPLAIN` returns the plan).
    Query {
        /// The statement text.
        frql: String,
    },
    /// Applies a batch of writes to one relation as a single atomic
    /// transaction: all-or-nothing, fully isolated.
    Transact {
        /// The target relation.
        relation: String,
        /// The write operations, applied in order.
        ops: Vec<WriteOp>,
    },
    /// Liveness probe; the server echoes the token in a [`Response::Pong`].
    Ping {
        /// An arbitrary token echoed back.
        token: u64,
    },
    /// Ends the conversation; the server answers [`Response::Bye`] and
    /// closes.
    Goodbye,
}

/// A server-to-client message.  The server answers every request with
/// exactly one response, in request order — this is what makes client-side
/// pipelining sound.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// The protocol version the server speaks.
        version: u32,
        /// This connection's server-assigned session id.
        session: u64,
    },
    /// A query's result tuples.
    Rows(Vec<Tuple>),
    /// The rendered plan of an `EXPLAIN` statement.
    Explain(String),
    /// A transaction committed.
    TxnOk {
        /// Tuples inserted by the batch.
        inserted: u64,
        /// Tuples deleted by the batch.
        deleted: u64,
    },
    /// The request failed; the statement had no effect.
    Error {
        /// The typed error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Echo of a [`Request::Ping`].
    Pong {
        /// The echoed token.
        token: u64,
    },
    /// The server is closing this connection (answer to
    /// [`Request::Goodbye`], or sent unprompted when draining for
    /// shutdown after all in-flight responses).
    Bye,
}

// Request tags.
const REQ_HELLO: u8 = 0x01;
const REQ_QUERY: u8 = 0x02;
const REQ_TRANSACT: u8 = 0x03;
const REQ_PING: u8 = 0x04;
const REQ_GOODBYE: u8 = 0x05;
// Response tags (high bit set).
const RSP_HELLO_OK: u8 = 0x81;
const RSP_ROWS: u8 = 0x82;
const RSP_TXN_OK: u8 = 0x83;
const RSP_ERROR: u8 = 0x84;
const RSP_PONG: u8 = 0x85;
const RSP_BYE: u8 = 0x86;
const RSP_EXPLAIN: u8 = 0x87;
// WriteOp tags.
const OP_INSERT: u8 = 0x01;
const OP_DELETE_EQ: u8 = 0x02;

// ---------------------------------------------------------------------------
// Result-set encoding: shape table + rows in canonical value order.
// ---------------------------------------------------------------------------

/// The shape table of a result set: each distinct attribute set gets the
/// next slot on first sight.
#[derive(Default)]
struct ShapeTable<'a> {
    slots: HashMap<&'a AttrSet, u32>,
    shapes: Vec<&'a AttrSet>,
}

impl<'a> ShapeTable<'a> {
    fn slot(&mut self, shape: &'a AttrSet) -> u32 {
        let next = self.shapes.len() as u32;
        *self.slots.entry(shape).or_insert_with(|| {
            self.shapes.push(shape);
            next
        })
    }

    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, self.shapes.len() as u32);
        for s in &self.shapes {
            codec::put_attrs(out, s);
        }
    }
}

/// Encodes a result set: `[n_shapes][attrs…] [n_rows]([slot][values…])…`,
/// with each distinct attribute set written once and every row referencing
/// its shape by slot — the wire twin of the columnar
/// [`RowBlock`](flexrel_storage::RowBlock) layout.
pub fn put_rows(out: &mut Vec<u8>, rows: &[Tuple]) {
    let mut table = ShapeTable::default();
    for t in rows {
        table.slot(t.shape());
    }
    table.put(out);
    put_u32(out, rows.len() as u32);
    for t in rows {
        put_u32(out, table.slot(t.shape()));
        codec::put_shaped_values(out, t);
    }
}

/// Appends a [`Response::Rows`] payload (tag included) encoded straight
/// from a statement's result chunks: byte for byte what
/// [`encode_response`] writes for the same rows materialized with
/// [`Chunk::collect_tuples`], without building a tuple.  A columnar
/// chunk's rows are read in place — integer and float columns as slices,
/// dictionary columns through their value pools — and row chunks go
/// through [`codec::put_shaped_values`].
///
/// The statement's deadline is checked between chunks; once it has
/// passed the result is [`CoreError::Timeout`] and `out` holds a partial
/// payload the caller must discard, so no truncated reply is ever sent.
pub fn put_rows_from_chunks(
    out: &mut Vec<u8>,
    chunks: &[Chunk],
    stats: &ExecStats,
) -> Result<(), CoreError> {
    let mut table = ShapeTable::default();
    let mut n_rows = 0;
    for chunk in chunks {
        match chunk {
            Chunk::Cols(c) if !c.is_empty() => {
                table.slot(c.part.shape());
                n_rows += c.len();
            }
            Chunk::Cols(_) => {}
            Chunk::Rows(rows) => {
                for t in rows {
                    table.slot(t.shape());
                }
                n_rows += rows.len();
            }
        }
    }
    put_u8(out, RSP_ROWS);
    table.put(out);
    put_u32(out, n_rows as u32);
    for chunk in chunks {
        stats.check_deadline()?;
        match chunk {
            Chunk::Cols(c) if !c.is_empty() => put_col_rows(out, c, table.slot(c.part.shape())),
            Chunk::Cols(_) => {}
            Chunk::Rows(rows) => {
                for t in rows {
                    put_u32(out, table.slot(t.shape()));
                    codec::put_shaped_values(out, t);
                }
            }
        }
    }
    Ok(())
}

/// One column of a segment, borrowed in its stored representation.
enum ColRef<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Dict(&'a [u32], &'a [Value]),
}

/// Writes the selected rows of a columnar chunk, each as `[slot][values…]`
/// in the partition's canonical column order — the order a materialized
/// tuple iterates in.
fn put_col_rows(out: &mut Vec<u8>, c: &ColChunk, slot: u32) {
    let heap = c.part.columns();
    let seg = heap.segment(c.seg).expect("segment index in range");
    let cols: Vec<ColRef<'_>> = (0..heap.attrs().len())
        .map(|ci| match seg.col_kind(ci) {
            ColKind::Int => ColRef::Int(seg.int_slice(ci).expect("int column")),
            ColKind::Float => ColRef::Float(seg.float_slice(ci).expect("float column")),
            ColKind::Dict => {
                let (codes, pool) = seg.dict_parts(ci).expect("dictionary column");
                ColRef::Dict(codes, pool)
            }
        })
        .collect();
    for row in c.sel.iter() {
        put_u32(out, slot);
        for col in &cols {
            match col {
                ColRef::Int(xs) => codec::put_value(out, &Value::Int(xs[row])),
                ColRef::Float(xs) => codec::put_value(out, &Value::Float(xs[row])),
                ColRef::Dict(codes, pool) => codec::put_value(out, &pool[codes[row] as usize]),
            }
        }
    }
}

/// Decodes a result set written by [`put_rows`].
pub fn get_rows(cur: &mut Cursor<'_>) -> Result<Vec<Tuple>, WireError> {
    let n_shapes = cur.u32()? as usize;
    let mut shapes: Vec<(AttrSet, Arc<[Attr]>)> = Vec::with_capacity(n_shapes.min(1024));
    for _ in 0..n_shapes {
        let shape = codec::get_attrs(cur)?;
        let attrs: Arc<[Attr]> = shape.to_vec().into();
        shapes.push((shape, attrs));
    }
    let n_rows = cur.u32()? as usize;
    let mut rows = Vec::with_capacity(n_rows.min(1 << 20));
    for _ in 0..n_rows {
        let slot = cur.u32()? as usize;
        let (shape, attrs) = shapes
            .get(slot)
            .ok_or_else(|| WireError::Corrupt(format!("shape slot {} out of range", slot)))?;
        rows.push(codec::get_shaped_values(cur, shape, attrs)?);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Message encode / decode.
// ---------------------------------------------------------------------------

/// Encodes a request payload (tag + body, no framing).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    put_request(&mut out, req);
    out
}

/// Appends a request payload (tag + body, no framing) to `out`.
pub fn put_request(out: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Hello { version } => {
            put_u8(out, REQ_HELLO);
            put_u32(out, *version);
        }
        Request::Query { frql } => {
            put_u8(out, REQ_QUERY);
            put_str(out, frql);
        }
        Request::Transact { relation, ops } => {
            put_u8(out, REQ_TRANSACT);
            put_str(out, relation);
            put_u32(out, ops.len() as u32);
            for op in ops {
                match op {
                    WriteOp::Insert(t) => {
                        put_u8(out, OP_INSERT);
                        codec::put_named_tuple(out, t);
                    }
                    WriteOp::DeleteEq { key, key_value } => {
                        put_u8(out, OP_DELETE_EQ);
                        codec::put_attrs(out, key);
                        codec::put_named_tuple(out, key_value);
                    }
                }
            }
        }
        Request::Ping { token } => {
            put_u8(out, REQ_PING);
            put_u64(out, *token);
        }
        Request::Goodbye => put_u8(out, REQ_GOODBYE),
    }
}

/// Decodes a request payload.  Trailing garbage after a well-formed body is
/// a [`WireError::Corrupt`].
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut cur = Cursor::new(payload);
    let tag = cur.u8()?;
    let req = match tag {
        REQ_HELLO => Request::Hello {
            version: cur.u32()?,
        },
        REQ_QUERY => Request::Query {
            frql: cur.str()?.to_string(),
        },
        REQ_TRANSACT => {
            let relation = cur.str()?.to_string();
            let n = cur.u32()? as usize;
            let mut ops = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let op = match cur.u8()? {
                    OP_INSERT => WriteOp::Insert(codec::get_named_tuple(&mut cur)?),
                    OP_DELETE_EQ => WriteOp::DeleteEq {
                        key: codec::get_attrs(&mut cur)?,
                        key_value: codec::get_named_tuple(&mut cur)?,
                    },
                    other => {
                        return Err(WireError::Corrupt(format!(
                            "unknown write-op tag {}",
                            other
                        )))
                    }
                };
                ops.push(op);
            }
            Request::Transact { relation, ops }
        }
        REQ_PING => Request::Ping { token: cur.u64()? },
        REQ_GOODBYE => Request::Goodbye,
        other => {
            return Err(WireError::Protocol(format!(
                "unknown request tag {}",
                other
            )))
        }
    };
    if !cur.is_empty() {
        return Err(WireError::Corrupt(format!(
            "{} trailing bytes after request",
            cur.remaining()
        )));
    }
    Ok(req)
}

/// Encodes a response payload (tag + body, no framing).
pub fn encode_response(rsp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    put_response(&mut out, rsp);
    out
}

/// Appends a response payload (tag + body, no framing) to `out`.
pub fn put_response(out: &mut Vec<u8>, rsp: &Response) {
    match rsp {
        Response::HelloOk { version, session } => {
            put_u8(out, RSP_HELLO_OK);
            put_u32(out, *version);
            put_u64(out, *session);
        }
        Response::Rows(rows) => {
            put_u8(out, RSP_ROWS);
            put_rows(out, rows);
        }
        Response::Explain(text) => {
            put_u8(out, RSP_EXPLAIN);
            put_str(out, text);
        }
        Response::TxnOk { inserted, deleted } => {
            put_u8(out, RSP_TXN_OK);
            put_u64(out, *inserted);
            put_u64(out, *deleted);
        }
        Response::Error { code, message } => {
            put_u8(out, RSP_ERROR);
            put_u8(out, *code as u8);
            put_str(out, message);
        }
        Response::Pong { token } => {
            put_u8(out, RSP_PONG);
            put_u64(out, *token);
        }
        Response::Bye => put_u8(out, RSP_BYE),
    }
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut cur = Cursor::new(payload);
    let tag = cur.u8()?;
    let rsp = match tag {
        RSP_HELLO_OK => Response::HelloOk {
            version: cur.u32()?,
            session: cur.u64()?,
        },
        RSP_ROWS => Response::Rows(get_rows(&mut cur)?),
        RSP_EXPLAIN => Response::Explain(cur.str()?.to_string()),
        RSP_TXN_OK => Response::TxnOk {
            inserted: cur.u64()?,
            deleted: cur.u64()?,
        },
        RSP_ERROR => Response::Error {
            code: ErrorCode::from_u8(cur.u8()?)?,
            message: cur.str()?.to_string(),
        },
        RSP_PONG => Response::Pong { token: cur.u64()? },
        RSP_BYE => Response::Bye,
        other => {
            return Err(WireError::Protocol(format!(
                "unknown response tag {}",
                other
            )))
        }
    };
    if !cur.is_empty() {
        return Err(WireError::Corrupt(format!(
            "{} trailing bytes after response",
            cur.remaining()
        )));
    }
    Ok(rsp)
}

// ---------------------------------------------------------------------------
// Stream framing.
// ---------------------------------------------------------------------------

/// Writes one framed message to a stream (header + CRC + payload in a
/// single `write_all`, so small messages stay one syscall).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    let mut frame = FrameWriter::new();
    frame.begin().extend_from_slice(payload);
    frame.send(w)
}

/// Writes a framed request.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> Result<(), WireError> {
    let mut frame = FrameWriter::new();
    put_request(frame.begin(), req);
    frame.send(w)
}

/// Writes a framed response.
pub fn write_response<W: Write>(w: &mut W, rsp: &Response) -> Result<(), WireError> {
    let mut frame = FrameWriter::new();
    put_response(frame.begin(), rsp);
    frame.send(w)
}

/// A reusable outgoing frame.  [`FrameWriter::begin`] reserves the 8-byte
/// `[len][crc]` header and hands out the buffer for the payload to be
/// encoded into; [`FrameWriter::send`] patches the header in place and
/// writes header and payload with one `write_all`.  The payload is encoded
/// once and never copied, and the buffer's capacity carries over from one
/// message to the next.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// An empty writer.
    pub fn new() -> Self {
        FrameWriter::default()
    }

    /// Starts a new message, discarding any unsent one, and returns the
    /// buffer to append its payload to.
    pub fn begin(&mut self) -> &mut Vec<u8> {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 8]);
        &mut self.buf
    }

    /// Seals the message begun last — length and CRC of everything after
    /// the header — and writes it.
    pub fn send<W: Write>(&mut self, w: &mut W) -> Result<(), WireError> {
        let (head, payload) = self.buf.split_at_mut(8);
        head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        w.write_all(&self.buf)?;
        Ok(())
    }
}

/// What one poll of a [`FrameReader`] produced.
#[derive(Debug)]
pub enum Recv<'a> {
    /// A complete, CRC-valid message payload, lent from the reader's
    /// buffer until its next `recv`.
    Message(&'a [u8]),
    /// No complete frame yet and the read would block (the stream has a
    /// read timeout, or is non-blocking).  Poll again.
    Idle,
    /// The peer closed the stream cleanly on a frame boundary.
    Closed,
}

/// The reader's smallest read window, and its first buffer size.
const READ_CHUNK: usize = 16 * 1024;

/// Incremental frame reader over a byte stream.
///
/// Bytes are read straight into the reader's own buffer and a complete
/// payload is lent out of it ([`Recv::Message`]), so a message is copied
/// once, by the kernel.  Bytes are kept across reads, so a read timeout in
/// the middle of a frame loses nothing — the server leans on this to poll
/// its shutdown flag between messages.  A close in the middle of a frame
/// is reported as [`WireError::Corrupt`], a close on a frame boundary as
/// [`Recv::Closed`].
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Received, unconsumed bytes are `buf[pos..end]`; `buf[end..]` is
    /// space for the next read.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Reads until one complete frame is available, the stream closes, or a
    /// read would block.  The payload of a complete frame stays valid until
    /// the next call.
    pub fn recv<R: Read>(&mut self, r: &mut R) -> Result<Recv<'_>, WireError> {
        loop {
            let avail = self.end - self.pos;
            // Bytes the next frame needs from `pos` on: its header, then
            // header and payload once the length is known.
            let mut want = 8;
            if avail >= 8 {
                let head = &self.buf[self.pos..self.pos + 8];
                let len = u32::from_le_bytes(head[..4].try_into().unwrap());
                if len > MAX_FRAME_LEN {
                    return Err(WireError::Corrupt(format!(
                        "frame length {} exceeds maximum {}",
                        len, MAX_FRAME_LEN
                    )));
                }
                want = 8 + len as usize;
                if avail >= want {
                    let crc = u32::from_le_bytes(head[4..].try_into().unwrap());
                    let start = self.pos + 8;
                    self.pos += want;
                    let payload = &self.buf[start..self.pos];
                    if crc32(payload) != crc {
                        return Err(WireError::Corrupt("frame CRC mismatch".into()));
                    }
                    return Ok(Recv::Message(payload));
                }
            }
            self.make_room(want);
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return if avail == 0 {
                        Ok(Recv::Closed)
                    } else {
                        Err(WireError::Corrupt(
                            "stream closed mid-frame (truncated message)".into(),
                        ))
                    };
                }
                Ok(n) => self.end += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(Recv::Idle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }

    /// Leaves read space after `end` for a frame that needs `want` bytes
    /// from `pos` on.  Unconsumed bytes move to the front only when the
    /// frame would not fit behind them.  The buffer grows toward the frame's
    /// size only when it is full, at most doubling each time, so a forged
    /// length makes the reader hold at most twice what actually arrived.
    fn make_room(&mut self, want: usize) {
        if self.pos == self.end {
            (self.pos, self.end) = (0, 0);
        } else if self.pos + want > self.buf.len() {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        // A full buffer is smaller than `want` (else the frame would be
        // complete), so this always makes room.
        if self.end == self.buf.len() {
            let grown = (2 * self.buf.len()).clamp(READ_CHUNK, want.max(READ_CHUNK));
            self.buf.resize(grown, 0);
        }
    }

    /// Whether any partially buffered bytes are pending (frames started but
    /// not complete).
    pub fn has_partial(&self) -> bool {
        self.pos < self.end
    }
}
