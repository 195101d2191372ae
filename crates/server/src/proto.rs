//! The flexrel wire protocol: length-prefixed, CRC-framed binary messages
//! over a byte stream.
//!
//! Every message travels as one [`flexrel_storage::codec`] frame —
//! `[len u32][crc32 u32][payload]`, little-endian, the exact discipline the
//! WAL uses on disk — whose payload starts with a one-byte message tag.
//! A result set travels as **shape blocks**.  Its distinct attribute sets
//! are written once, as a shape table; then come the row count, the block
//! count and the blocks.  A block is a run of rows of one shape — in the
//! paper's terms one subtype, an ordinary relation over a fixed attribute
//! set — so it needs no null bitmap and no per-value type tag: it is
//! `[slot][len]` followed by one column per attribute, in canonical order,
//! in the block format checkpoints use too ([`flexrel_storage::column`]):
//! each `INT` (`len` × i64), `FLOAT` (`len` × f64 bit patterns) or `DICT`
//! (a value pool, then `len` × u32 codes).  The server writes a columnar
//! result chunk as one block straight from its segment
//! ([`put_rows_from_chunks`]); tuples are written one block per same-shape
//! run ([`put_rows`]).  Block boundaries therefore depend on the input, and
//! the two writers agree on the decoded rows, not on the bytes.  The
//! client reads each column with [`BlockColumn::get`] (one bounds check)
//! and builds each row straight from the columns ([`get_rows`]).  Floats
//! round-trip bit-exactly (NaN and `-0.0` included), and any truncated,
//! forged or bit-flipped input surfaces as a typed [`WireError`] — never a
//! panic, and never an allocation the payload's size does not justify.
//!
//! A message is copied once on each side: the sender encodes into a reused
//! [`FrameWriter`] behind a reserved header that is patched in place, and
//! the receiver's [`FrameReader`] reads into its own buffer and lends the
//! payload out of it.  Neither keeps a buffer that a message over 1 MiB
//! grew.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;

use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::error::CoreError;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::{Chunk, ColChunk, ExecStats};
use flexrel_storage::codec::{
    self, crc32, put_f64, put_i64, put_str, put_u32, put_u64, put_u8, Cursor,
};
use flexrel_storage::column::{BlockColumn, COL_DICT, COL_FLOAT, COL_INT};
use flexrel_storage::StorageError;

/// The protocol version spoken by this build.  A [`Request::Hello`] carrying
/// a different version is rejected with [`ErrorCode::Protocol`].
pub const PROTOCOL_VERSION: u32 = 2;

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
// Result-set encoding: shape table + one columnar block per shape run.
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

/// Splits a row list into the runs it is written as, one block each: the
/// maximal runs of one shape, except that a row of the empty shape is a
/// run of its own (a zero-arity block has no bytes per row, so the decoder
/// caps it at one row).
fn shape_runs(rows: &[Tuple]) -> impl Iterator<Item = &[Tuple]> {
    rows.chunk_by(|a, b| !a.is_empty() && a.shape() == b.shape())
}

/// A decode failure: the payload is not a well-formed result set.
fn corrupt<T>(msg: String) -> Result<T, WireError> {
    Err(WireError::Corrupt(msg))
}

/// Encodes a result set: the shape table `[n_shapes][attrs…]`, then
/// `[n_rows][n_blocks]` and the blocks — here one per maximal run of
/// same-shape rows, and one per row of the empty shape.  A block is
/// `[slot][len]` followed by one column per attribute of its shape, in
/// canonical order: `INT` or `FLOAT` when every value has that kind,
/// otherwise `DICT` (see the module documentation).
pub fn put_rows(out: &mut Vec<u8>, rows: &[Tuple]) {
    let mut table = ShapeTable::default();
    for run in shape_runs(rows) {
        table.slot(run[0].shape());
    }
    table.put(out);
    put_u32(out, rows.len() as u32);
    let at = out.len();
    put_u32(out, 0);
    let blocks = put_tuple_blocks(out, &mut table, rows);
    out[at..at + 4].copy_from_slice(&blocks.to_le_bytes());
}

/// Appends a [`Response::Rows`] payload (tag included) encoded straight
/// from a statement's result chunks, without building a tuple: a columnar
/// chunk is one block written from its segment, a row chunk is written by
/// the same block writer as [`put_rows`].  Block
/// boundaries follow the chunks, so the bytes may differ from
/// [`encode_response`] over the same rows materialized with
/// [`Chunk::collect_tuples`]; the decoded rows do not.
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
    for chunk in chunks {
        match chunk {
            Chunk::Cols(c) => {
                table.slot(c.part.shape());
            }
            Chunk::Rows(rows) => {
                for run in shape_runs(rows) {
                    table.slot(run[0].shape());
                }
            }
        }
    }
    put_u8(out, RSP_ROWS);
    table.put(out);
    put_u32(out, chunks.iter().map(Chunk::len).sum::<usize>() as u32);
    let at = out.len();
    put_u32(out, 0);
    let mut blocks = 0u32;
    for chunk in chunks {
        stats.check_deadline()?;
        blocks += match chunk {
            Chunk::Cols(c) => put_col_block(out, c, table.slot(c.part.shape())),
            Chunk::Rows(rows) => put_tuple_blocks(out, &mut table, rows),
        };
    }
    out[at..at + 4].copy_from_slice(&blocks.to_le_bytes());
    Ok(())
}

/// Writes the selected rows of a columnar chunk straight from its segment
/// ([`ColumnSegment::put_block`](flexrel_storage::ColumnSegment::put_block))
/// and returns the number of blocks written: one, or one per row at arity
/// zero.
fn put_col_block(out: &mut Vec<u8>, c: &ColChunk, slot: u32) -> u32 {
    let heap = c.part.columns();
    let seg = heap.segment(c.seg).expect("segment index in range");
    let len = c.len() as u32;
    let (blocks, rows) = if heap.attrs().is_empty() {
        (len, 1)
    } else {
        (1, len)
    };
    for _ in 0..blocks {
        put_u32(out, slot);
        put_u32(out, rows);
    }
    seg.put_block(&c.sel, out);
    blocks
}

/// Writes a row list as one block per run of [`shape_runs`] and returns
/// the number of blocks written.  `table` already holds every run's shape.
fn put_tuple_blocks<'a>(out: &mut Vec<u8>, table: &mut ShapeTable<'a>, rows: &'a [Tuple]) -> u32 {
    let mut blocks = 0;
    let mut col: Vec<&Value> = Vec::new();
    for run in shape_runs(rows) {
        put_u32(out, table.slot(run[0].shape()));
        put_u32(out, run.len() as u32);
        let mut values: Vec<_> = run.iter().map(|t| t.iter().map(|(_, v)| v)).collect();
        for _ in 0..run[0].arity() {
            col.clear();
            col.extend(values.iter_mut().filter_map(Iterator::next));
            put_value_column(out, &col);
        }
        blocks += 1;
    }
    blocks
}

/// Writes one column of a run.  It is `INT` (`len` × i64) or `FLOAT`
/// (`len` × f64 bit patterns) when every value has that kind; otherwise
/// `DICT`: `[pool_len][pool values]` then `len` × u32 codes.  The pool gets
/// a new entry wherever a value differs from the one in the row above —
/// bit for bit ([`Value::same_bits`]), so `-0.0` is not `0.0`, and without
/// hashing — so it may hold a value twice.
fn put_value_column(out: &mut Vec<u8>, col: &[&Value]) {
    let ints = col.iter().all(|v| matches!(v, Value::Int(_)));
    if ints || col.iter().all(|v| matches!(v, Value::Float(_))) {
        put_u8(out, if ints { COL_INT } else { COL_FLOAT });
        for v in col {
            match v {
                Value::Int(i) => put_i64(out, *i),
                Value::Float(f) => put_f64(out, *f),
                _ => unreachable!("the column holds one numeric kind"),
            }
        }
        return;
    }
    let changes = || col.windows(2).map(|w| !w[0].same_bits(w[1]));
    put_u8(out, COL_DICT);
    put_u32(out, 1 + changes().filter(|&c| c).count() as u32);
    codec::put_value(out, col[0]);
    for (w, changed) in col.windows(2).zip(changes()) {
        if changed {
            codec::put_value(out, w[1]);
        }
    }
    put_u32(out, 0);
    let mut code = 0;
    for changed in changes() {
        code += changed as u32;
        put_u32(out, code);
    }
}

/// Decodes a result set written by [`put_rows`] or
/// [`put_rows_from_chunks`], a column at a time: each row is then built
/// without a heap allocation up to three attributes (one beyond), its
/// short strings copied from the block's pool and its long ones shared
/// with it.
pub fn get_rows(cur: &mut Cursor<'_>) -> Result<Vec<Tuple>, WireError> {
    let n_shapes = cur.u32()? as usize;
    let mut shapes: Vec<(AttrSet, Arc<[Attr]>)> = Vec::with_capacity(n_shapes.min(1024));
    for _ in 0..n_shapes {
        let shape = codec::get_attrs(cur)?;
        let attrs: Arc<[Attr]> = shape.to_vec().into();
        shapes.push((shape, attrs));
    }
    let n_rows = cur.u32()? as usize;
    let n_blocks = cur.u32()?;
    // A row costs at least four bytes: a code or a value in each column,
    // or at arity zero a block header of its own.  A count the rest of the
    // payload cannot hold is refused before anything is allocated for it.
    if n_rows > cur.remaining() / 4 {
        return corrupt(format!("{n_rows} rows in {} bytes", cur.remaining()));
    }
    let mut rows = Vec::with_capacity(n_rows);
    let mut cols = Vec::new();
    for _ in 0..n_blocks {
        let slot = cur.u32()? as usize;
        let len = cur.u32()? as usize;
        let Some((shape, attrs)) = shapes.get(slot) else {
            return corrupt(format!("shape slot {slot} out of range"));
        };
        if len > n_rows - rows.len() || (attrs.is_empty() && len > 1) {
            return corrupt(format!("a block of {len} rows past the reply's {n_rows}"));
        }
        cols.clear();
        for _ in 0..attrs.len() {
            cols.push(BlockColumn::get(cur, len)?);
        }
        rows.extend((0..len).map(|i| {
            Tuple::from_shape_values(shape.clone(), attrs, cols.iter().map(|c| c.value(i)))
        }));
    }
    if rows.len() != n_rows {
        return corrupt(format!("blocks hold {} of {n_rows} rows", rows.len()));
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
/// message to the next.  A buffer grown past 1 MiB is kept while messages
/// stay large and given back after the first small one, as the reader does.
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
        codec::begin_frame(&mut self.buf);
        &mut self.buf
    }

    /// Seals the message begun last — length and CRC of everything after
    /// the header — and writes it.  A payload too long for the length
    /// prefix is not sent.
    pub fn send<W: Write>(&mut self, w: &mut W) -> Result<(), WireError> {
        codec::seal_frame(&mut self.buf, 0).map_err(|e| WireError::Io(std::io::Error::other(e)))?;
        let sent = w.write_all(&self.buf);
        if self.buf.capacity() > LARGE_MESSAGE && self.buf.len() <= READ_CHUNK {
            self.buf.clear();
            self.buf.shrink_to(READ_CHUNK);
        }
        sent.map_err(WireError::Io)
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

/// A message larger than this does not leave its buffer behind: the frame
/// writer and reader shrink back to [`READ_CHUNK`] at the first small
/// message after it, so one large reply does not pin its size for the rest
/// of a session, and a series of large ones does not regrow it each time.
const LARGE_MESSAGE: usize = 1 << 20;

/// Upper bound on a message's payload.  The [`FrameReader`] allocates by a
/// frame's length prefix before its CRC can be checked, so a larger prefix
/// is refused as corrupt: a flipped bit in it must not allocate gigabytes.
/// (Storage frames need no such bound: a WAL segment or checkpoint image is
/// read whole before its frames are parsed.)
pub const MAX_FRAME_LEN: u32 = 1 << 28;

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
    /// A buffer grown past [`LARGE_MESSAGE`] shrinks back to [`READ_CHUNK`]
    /// as soon as the frame it is waiting for is a small one.
    fn make_room(&mut self, want: usize) {
        let shrink = self.buf.len() > LARGE_MESSAGE && want <= READ_CHUNK;
        if self.pos == self.end {
            (self.pos, self.end) = (0, 0);
        } else if shrink || self.pos + want > self.buf.len() {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if shrink {
            // The pending bytes are less than one small frame.
            self.buf.truncate(READ_CHUNK);
            self.buf.shrink_to_fit();
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Large messages do not pin their buffer for the rest of a session:
    /// writer and reader keep it while messages stay large and give it back
    /// at the first small one.
    #[test]
    fn frame_buffers_shrink_back_after_a_large_message() {
        let big = vec![7u8; 4 << 20];
        let mut frame = FrameWriter::new();
        let mut stream = Vec::new();
        for _ in 0..2 {
            frame.begin().extend_from_slice(&big);
            frame.send(&mut stream).unwrap();
            assert!(
                frame.buf.capacity() > big.len(),
                "writer gave its buffer back between large messages"
            );
        }
        frame.begin().extend_from_slice(b"small");
        frame.send(&mut stream).unwrap();
        assert!(
            frame.buf.capacity() <= LARGE_MESSAGE,
            "writer kept {} bytes",
            frame.buf.capacity()
        );

        let mut reader = FrameReader::new();
        let mut bytes = &stream[..];
        for _ in 0..2 {
            match reader.recv(&mut bytes).unwrap() {
                Recv::Message(p) => assert_eq!(p, &big[..]),
                other => panic!("large frame not received: {:?}", other),
            }
        }
        match reader.recv(&mut bytes).unwrap() {
            Recv::Message(p) => assert_eq!(p, b"small"),
            other => panic!("small frame not received: {:?}", other),
        }
        assert!(
            reader.buf.capacity() <= LARGE_MESSAGE,
            "reader kept {} bytes",
            reader.buf.capacity()
        );
        assert!(matches!(reader.recv(&mut bytes).unwrap(), Recv::Closed));
    }

    /// Strings of every byte length around the inline limit, multi-byte
    /// characters straddling it included, decode to the rows encoded.
    #[test]
    fn rows_round_trip_strings_across_the_inline_limit() {
        let mut rows = Vec::new();
        for n in 0..=16 {
            for c in ['a', 'é', '€', '😀'] {
                for p in (0..=n).filter(|p| p + c.len_utf8() <= n) {
                    let s = format!("{}{}{}", "x".repeat(p), c, "y".repeat(n - p - c.len_utf8()));
                    assert_eq!(s.len(), n);
                    rows.push(
                        Tuple::new()
                            .with("t", Value::str(&s))
                            .with("g", Value::tag(&s)),
                    );
                }
            }
        }
        rows.push(Tuple::new().with("t", Value::str("")));
        let mut out = Vec::new();
        put_rows(&mut out, &rows);
        let back = get_rows(&mut Cursor::new(&out)).unwrap();
        assert_eq!(back, rows);
        for (b, r) in back.iter().zip(&rows) {
            assert_eq!(
                b.get_name("t").unwrap().as_str(),
                r.get_name("t").unwrap().as_str()
            );
        }
    }
}
