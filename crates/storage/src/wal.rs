//! The write-ahead log: redo logging with group commit.
//!
//! # Record format
//!
//! The log is a sequence of segment files `wal-<base>.log`, where `<base>`
//! is the global byte offset (**LSN**) of the segment's first byte.  Each
//! segment is a sequence of frames `[len: u32][crc32: u32][payload]` (see
//! [`crate::codec`]); each payload is one record:
//!
//! ```text
//! DefineShape { local: u32, attrs: [name] }   -- segment-local shape table
//! Begin       { txn }                          Commit { txn }   Abort { txn }
//! Insert      { txn, relation, shape: u32, values (canonical order) }
//! Delete      { txn, relation, shape: u32, values }
//! Update      { txn, relation, old shape+values, new shape+values }
//! Checkpoint  { lsn }                          -- rotation marker
//! ```
//!
//! Tuples are encoded as a segment-local shape id plus their values in the
//! canonical attribute-name order — the same order the column heaps store.
//! The shape table maps the local id to the attribute *names* (interned
//! [`ShapeId`]s are process-local and not stable across runs) and resets at
//! every segment boundary, so each segment is self-describing.
//!
//! Deletes and updates identify tuples **by value**, never by
//! [`Rid`](crate::partition::Rid): slot assignment depends on free-list
//! history, which recovery does not reproduce.  Equal tuples are
//! interchangeable (the instance is a multiset), so replay deletes *a*
//! matching tuple — recovery and transaction rollback run the same replay.
//!
//! # Group commit
//!
//! Every write is a transaction (an auto-committed statement is a
//! one-statement transaction).  On commit it appends its operation log —
//! one `txn 0` record for a single op, a `Begin … Commit` bracket for
//! several — to an in-memory tail buffer under the writer's lock (while
//! still holding its relation write locks, so WAL order equals apply
//! order per relation), then waits for its LSN to become durable.  The
//! first waiter becomes the **leader**: it takes the
//! whole buffer, writes it, issues **one** `fdatasync`, and wakes every
//! commit the sync covered — concurrent `transact` closures on different
//! relations amortize a single fsync.  With `group_commit` off every
//! commit pays its own fsync (the baseline experiment E15 measures the
//! difference).
//!
//! A commit is acknowledged only after its sync boundary proceeded; see
//! [`crate::fault`] for the crash model this guarantees under.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::tuple::{ShapeId, Tuple};

use crate::codec::{
    get_attrs, get_shaped_values, put_attrs, put_frame, put_shaped_values, put_str, put_u32,
    put_u64, put_u8, read_frame, Cursor, FrameRead,
};
use crate::errors::StorageError;
use crate::fault::{FaultAction, IoEvent, IoFault};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One logical operation, as applied in order.  A transaction records each
/// one it applies; the same log is appended to the WAL on commit, replayed
/// inverted on rollback, and replayed from the WAL on recovery (see
/// `db::replay`).
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// A tuple was inserted into `relation`.
    Insert {
        /// Target relation.
        relation: String,
        /// The inserted tuple.
        tuple: Tuple,
    },
    /// A tuple was deleted from `relation`, identified by value.
    Delete {
        /// Target relation.
        relation: String,
        /// The deleted tuple.
        tuple: Tuple,
    },
    /// A tuple was replaced in `relation` (possibly changing shape).
    Update {
        /// Target relation.
        relation: String,
        /// The previous tuple, identified by value.
        old: Tuple,
        /// The replacement tuple.
        new: Tuple,
    },
}

impl WalOp {
    /// The relation the operation changes.
    pub fn relation(&self) -> &str {
        match self {
            WalOp::Insert { relation, .. }
            | WalOp::Delete { relation, .. }
            | WalOp::Update { relation, .. } => relation,
        }
    }

    /// The operation that undoes this one: an insert becomes a delete of
    /// the same tuple and vice versa, an update swaps `old` and `new`.
    pub fn inverse(self) -> WalOp {
        match self {
            WalOp::Insert { relation, tuple } => WalOp::Delete { relation, tuple },
            WalOp::Delete { relation, tuple } => WalOp::Insert { relation, tuple },
            WalOp::Update { relation, old, new } => WalOp::Update {
                relation,
                old: new,
                new: old,
            },
        }
    }
}

/// One decoded WAL record.  `txn = 0` marks an auto-committed single
/// statement; any other id groups records between its `Begin` and `Commit`.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Opens transaction `txn`.
    Begin(u64),
    /// Commits transaction `txn` — the redo ops logged under it apply.
    Commit(u64),
    /// Abandons transaction `txn` — its ops are discarded on replay.
    Abort(u64),
    /// A redo operation belonging to `txn` (0 = auto-commit).
    Op {
        /// The owning transaction (0 = auto-commit).
        txn: u64,
        /// The logged operation.
        op: WalOp,
    },
    /// A rotation marker: the segment starting here begins at `lsn`.
    Checkpoint(u64),
}

const REC_DEFINE_SHAPE: u8 = 1;
const REC_BEGIN: u8 = 2;
const REC_COMMIT: u8 = 3;
const REC_ABORT: u8 = 4;
const REC_INSERT: u8 = 5;
const REC_DELETE: u8 = 6;
const REC_UPDATE: u8 = 7;
const REC_CHECKPOINT: u8 = 8;

/// Encodes [`WalRecord`]s into framed bytes, maintaining the segment-local
/// shape table (a `DefineShape` frame is emitted the first time a shape
/// appears after a reset).
#[derive(Debug, Default)]
pub struct RecordEncoder {
    shapes: HashMap<ShapeId, u32>,
}

impl RecordEncoder {
    /// A fresh encoder with an empty shape table.
    pub fn new() -> Self {
        RecordEncoder::default()
    }

    /// Forgets the shape table — called at segment rotation, so every
    /// segment is self-describing.
    pub fn reset(&mut self) {
        self.shapes.clear();
    }

    fn shape_local(&mut self, t: &Tuple, out: &mut Vec<u8>) -> u32 {
        let sid = t.shape_id();
        if let Some(local) = self.shapes.get(&sid) {
            return *local;
        }
        let local = self.shapes.len() as u32;
        self.shapes.insert(sid, local);
        let mut payload = Vec::new();
        put_u8(&mut payload, REC_DEFINE_SHAPE);
        put_u32(&mut payload, local);
        put_attrs(&mut payload, t.shape());
        put_frame(out, &payload);
        local
    }

    fn put_tuple(&mut self, t: &Tuple, out: &mut Vec<u8>, payload: &mut Vec<u8>) {
        let local = self.shape_local(t, out);
        put_u32(payload, local);
        put_shaped_values(payload, t);
    }

    /// Appends `rec` to `out` as one or more frames (shape definitions
    /// precede the record that needs them).
    pub fn encode(&mut self, rec: &WalRecord, out: &mut Vec<u8>) {
        let (tag, n) = match rec {
            WalRecord::Begin(txn) => (REC_BEGIN, *txn),
            WalRecord::Commit(txn) => (REC_COMMIT, *txn),
            WalRecord::Abort(txn) => (REC_ABORT, *txn),
            WalRecord::Checkpoint(lsn) => (REC_CHECKPOINT, *lsn),
            WalRecord::Op { txn, op } => return self.encode_op(*txn, op, out),
        };
        let mut payload = Vec::new();
        put_u8(&mut payload, tag);
        put_u64(&mut payload, n);
        put_frame(out, &payload);
    }

    /// Appends the record of `op` under transaction `txn` (0 = auto-commit)
    /// — [`RecordEncoder::encode`] of a [`WalRecord::Op`] without building
    /// one, so a commit encodes its log in place.
    fn encode_op(&mut self, txn: u64, op: &WalOp, out: &mut Vec<u8>) {
        let (tag, first, second) = match op {
            WalOp::Insert { tuple, .. } => (REC_INSERT, tuple, None),
            WalOp::Delete { tuple, .. } => (REC_DELETE, tuple, None),
            WalOp::Update { old, new, .. } => (REC_UPDATE, old, Some(new)),
        };
        let mut payload = Vec::new();
        put_u8(&mut payload, tag);
        put_u64(&mut payload, txn);
        put_str(&mut payload, op.relation());
        self.put_tuple(first, out, &mut payload);
        if let Some(new) = second {
            self.put_tuple(new, out, &mut payload);
        }
        put_frame(out, &payload);
    }
}

/// Decodes framed record payloads, maintaining the segment-local shape
/// table.  `DefineShape` frames are absorbed into the table and yield
/// `None`.
#[derive(Debug, Default)]
pub struct RecordDecoder {
    shapes: Vec<(AttrSet, Arc<[Attr]>)>,
}

impl RecordDecoder {
    /// A fresh decoder with an empty shape table.
    pub fn new() -> Self {
        RecordDecoder::default()
    }

    fn get_tuple(&self, cur: &mut Cursor<'_>) -> Result<Tuple, StorageError> {
        let local = cur.u32()? as usize;
        let (shape, attrs) = self
            .shapes
            .get(local)
            .ok_or_else(|| StorageError::Corruption(format!("undefined shape id {}", local)))?;
        get_shaped_values(cur, shape, attrs)
    }

    /// Decodes one frame payload.  Returns `None` for shape-table frames.
    pub fn decode(&mut self, payload: &[u8]) -> Result<Option<WalRecord>, StorageError> {
        let mut cur = Cursor::new(payload);
        let rec = match cur.u8()? {
            REC_DEFINE_SHAPE => {
                let local = cur.u32()? as usize;
                if local != self.shapes.len() {
                    return Err(StorageError::Corruption(format!(
                        "shape table defines id {} but {} are known",
                        local,
                        self.shapes.len()
                    )));
                }
                let shape = get_attrs(&mut cur)?;
                let attrs: Arc<[Attr]> = shape.to_vec().into();
                self.shapes.push((shape, attrs));
                None
            }
            REC_BEGIN => Some(WalRecord::Begin(cur.u64()?)),
            REC_COMMIT => Some(WalRecord::Commit(cur.u64()?)),
            REC_ABORT => Some(WalRecord::Abort(cur.u64()?)),
            REC_CHECKPOINT => Some(WalRecord::Checkpoint(cur.u64()?)),
            REC_INSERT => {
                let txn = cur.u64()?;
                let relation = cur.str()?.to_string();
                let tuple = self.get_tuple(&mut cur)?;
                Some(WalRecord::Op {
                    txn,
                    op: WalOp::Insert { relation, tuple },
                })
            }
            REC_DELETE => {
                let txn = cur.u64()?;
                let relation = cur.str()?.to_string();
                let tuple = self.get_tuple(&mut cur)?;
                Some(WalRecord::Op {
                    txn,
                    op: WalOp::Delete { relation, tuple },
                })
            }
            REC_UPDATE => {
                let txn = cur.u64()?;
                let relation = cur.str()?.to_string();
                let old = self.get_tuple(&mut cur)?;
                let new = self.get_tuple(&mut cur)?;
                Some(WalRecord::Op {
                    txn,
                    op: WalOp::Update { relation, old, new },
                })
            }
            t => {
                return Err(StorageError::Corruption(format!(
                    "unknown wal record tag {}",
                    t
                )))
            }
        };
        if rec.is_some() && !cur.is_empty() {
            return Err(StorageError::Corruption(
                "trailing bytes after wal record".into(),
            ));
        }
        Ok(rec)
    }
}

/// The segment file name for a given base LSN (zero-padded so
/// lexicographic order is LSN order).
pub fn segment_file_name(base: u64) -> String {
    format!("wal-{:020}.log", base)
}

/// Parses a segment file name back to its base LSN.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

struct WalState {
    /// Bytes appended but not yet handed to a leader.
    buf: Vec<u8>,
    /// Global byte offset at the start of the current segment file.
    seg_base: u64,
    /// LSN after the last appended byte.
    appended: u64,
    /// LSN up to which the log is durable.
    synced: u64,
    /// Whether a leader is currently performing I/O.
    syncing: bool,
    /// Set after an I/O failure or injected crash; every later operation
    /// fails with [`StorageError::Io`].
    poisoned: bool,
    enc: RecordEncoder,
    next_txn: u64,
    since_checkpoint: u64,
}

struct WalIo {
    file: File,
}

/// The write-ahead-log writer: segment files, group commit, fault
/// injection.  Shared behind the database's inner `Arc`; all methods take
/// `&self`.
pub struct WalWriter {
    dir: PathBuf,
    group_commit: bool,
    fault: Arc<dyn IoFault>,
    state: Mutex<WalState>,
    cond: Condvar,
    io: Mutex<WalIo>,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.state);
        f.debug_struct("WalWriter")
            .field("dir", &self.dir)
            .field("group_commit", &self.group_commit)
            .field("appended", &st.appended)
            .field("synced", &st.synced)
            .field("poisoned", &st.poisoned)
            .finish()
    }
}

impl WalWriter {
    /// Resumes logging after recovery at `end`, the LSN after the last
    /// valid byte on disk (recovery has already truncated any torn tail).
    /// The writer always starts a **fresh** segment at `end` rather than
    /// appending to the previous one — each segment's shape table is
    /// self-describing and starts at local id 0, so appending records
    /// encoded against an empty table into a segment that already defines
    /// shapes would corrupt the stream.  The previous segment stays on
    /// disk and sorts before the new one at replay.
    pub fn resume(
        dir: &Path,
        end: u64,
        group_commit: bool,
        fault: Arc<dyn IoFault>,
    ) -> Result<Self, StorageError> {
        let seg_base = end;
        let path = dir.join(segment_file_name(seg_base));
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| StorageError::Io(format!("open {}: {}", path.display(), e)))?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            group_commit,
            fault,
            state: Mutex::new(WalState {
                buf: Vec::new(),
                seg_base,
                appended: end,
                synced: end,
                syncing: false,
                poisoned: false,
                enc: RecordEncoder::new(),
                next_txn: 0,
                since_checkpoint: 0,
            }),
            cond: Condvar::new(),
            io: Mutex::new(WalIo { file }),
        })
    }

    /// LSN after the last appended byte.
    pub fn appended_lsn(&self) -> u64 {
        lock(&self.state).appended
    }

    /// LSN up to which the log is durable.
    pub fn synced_lsn(&self) -> u64 {
        lock(&self.state).synced
    }

    /// Bytes appended since the last rotation — the background
    /// checkpointer's trigger signal.
    pub fn bytes_since_checkpoint(&self) -> u64 {
        lock(&self.state).since_checkpoint
    }

    /// Whether the log has been poisoned by an I/O failure or injected
    /// crash.
    pub fn is_poisoned(&self) -> bool {
        lock(&self.state).poisoned
    }

    /// Poisons the log: every later append or sync fails.  Called by the
    /// checkpointer when a fault is injected on *its* I/O path, so the
    /// simulated crash covers the whole process.
    pub fn poison(&self) {
        lock(&self.state).poisoned = true;
        self.cond.notify_all();
    }

    /// Appends one committed transaction's ops to the log tail — one
    /// auto-commit record (`txn` 0) for a single op, a `Begin … Commit`
    /// bracket for several — and returns the LSN the caller must
    /// [`WalWriter::sync_to`] before acknowledging.  The ops are encoded
    /// in place, never cloned.  Must be called while the write locks of
    /// every touched relation are held, so log order equals apply order.
    pub fn append_commit<'o, I>(&self, ops: I) -> Result<u64, StorageError>
    where
        I: IntoIterator<Item = &'o WalOp>,
        I::IntoIter: ExactSizeIterator,
    {
        let ops = ops.into_iter();
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        if st.poisoned {
            return Err(StorageError::Io("wal is poisoned after a crash".into()));
        }
        let mut bytes = Vec::new();
        let txn = if ops.len() == 1 {
            0
        } else {
            st.next_txn += 1;
            st.enc.encode(&WalRecord::Begin(st.next_txn), &mut bytes);
            st.next_txn
        };
        for op in ops {
            st.enc.encode_op(txn, op, &mut bytes);
        }
        if txn != 0 {
            st.enc.encode(&WalRecord::Commit(txn), &mut bytes);
        }
        st.appended += bytes.len() as u64;
        st.since_checkpoint += bytes.len() as u64;
        st.buf.extend_from_slice(&bytes);
        Ok(st.appended)
    }

    /// One leader round: takes the pending buffer, writes and syncs it
    /// (through the fault hook), and publishes the new durable LSN.
    /// Returns the reacquired state guard.
    fn leader_round<'a>(
        &'a self,
        mut st: MutexGuard<'a, WalState>,
    ) -> Result<MutexGuard<'a, WalState>, StorageError> {
        st.syncing = true;
        let batch = std::mem::take(&mut st.buf);
        let target = st.appended;
        let synced_off = st.synced - st.seg_base;
        drop(st);

        let outcome = self.leader_io(&batch, synced_off);

        let mut st = lock(&self.state);
        st.syncing = false;
        match outcome {
            Ok(()) => st.synced = target,
            Err(_) => st.poisoned = true,
        }
        self.cond.notify_all();
        outcome.map(|()| st)
    }

    fn leader_io(&self, batch: &[u8], synced_off: u64) -> Result<(), StorageError> {
        let mut io = lock(&self.io);
        if !batch.is_empty() {
            match self.fault.intercept(IoEvent::WalWrite { len: batch.len() }) {
                FaultAction::Proceed => io
                    .file
                    .write_all(batch)
                    .map_err(|e| StorageError::Io(format!("wal write: {}", e)))?,
                FaultAction::Crash => {
                    return Err(StorageError::Io("injected crash at wal write".into()))
                }
                FaultAction::Torn { keep } => {
                    let keep = keep.min(batch.len());
                    let _ = io.file.write_all(&batch[..keep]);
                    return Err(StorageError::Io("injected torn wal write".into()));
                }
                FaultAction::FlipBit { offset } => {
                    let mut bytes = batch.to_vec();
                    let byte = (offset / 8) % bytes.len();
                    bytes[byte] ^= 1 << (offset % 8);
                    io.file
                        .write_all(&bytes)
                        .map_err(|e| StorageError::Io(format!("wal write: {}", e)))?;
                }
            }
        }
        match self.fault.intercept(IoEvent::WalSync) {
            FaultAction::Proceed => io
                .file
                .sync_data()
                .map_err(|e| StorageError::Io(format!("wal sync: {}", e))),
            // Any fault at the sync boundary is a crash before durability:
            // the pessimistic model discards everything unsynced.
            _ => {
                let _ = io.file.set_len(synced_off);
                Err(StorageError::Io("injected crash at wal sync".into()))
            }
        }
    }

    /// Blocks until the log is durable up to `lsn` (group commit: the
    /// caller may ride on another commit's fsync) or the log is poisoned.
    /// With `group_commit` off, every call pays its own fsync.
    pub fn sync_to(&self, lsn: u64) -> Result<(), StorageError> {
        let mut st = lock(&self.state);
        loop {
            if st.poisoned {
                return Err(StorageError::Io("wal is poisoned after a crash".into()));
            }
            if self.group_commit && st.synced >= lsn {
                return Ok(());
            }
            if !st.syncing {
                let st2 = self.leader_round(st)?;
                if !self.group_commit {
                    // Per-commit fsync mode: this round *was* our fsync.
                    return Ok(());
                }
                st = st2;
                continue;
            }
            st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Rotates to a fresh segment at the current append position and
    /// returns its base LSN — the checkpoint cut.  Must be called while
    /// every relation's read guards are held (the checkpointer's consistent
    /// cut): writers append under their write locks, so no append can
    /// interleave.  Any pending bytes are flushed to the old segment first.
    pub fn rotate(&self) -> Result<u64, StorageError> {
        let mut st = lock(&self.state);
        loop {
            if st.poisoned {
                return Err(StorageError::Io("wal is poisoned after a crash".into()));
            }
            if !st.syncing {
                break;
            }
            st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.synced < st.appended || !st.buf.is_empty() {
            st = self.leader_round(st)?;
        }
        let cut = st.appended;
        let path = self.dir.join(segment_file_name(cut));
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| StorageError::Io(format!("open {}: {}", path.display(), e)))?;
        {
            let mut io = lock(&self.io);
            io.file = file;
        }
        st.seg_base = cut;
        st.enc.reset();
        st.since_checkpoint = 0;
        // A rotation marker: replay ignores it, humans (and tests) can see
        // where the cut happened.
        let mut bytes = Vec::new();
        st.enc.encode(&WalRecord::Checkpoint(cut), &mut bytes);
        st.appended += bytes.len() as u64;
        st.buf.extend_from_slice(&bytes);
        Ok(cut)
    }

    /// Deletes every segment file whose base is below `cut` — called after
    /// the checkpoint covering them is durably in place.
    pub fn delete_segments_below(&self, cut: u64) -> Result<(), StorageError> {
        for entry in std::fs::read_dir(&self.dir)
            .map_err(|e| StorageError::Io(format!("read wal dir: {}", e)))?
        {
            let entry = entry.map_err(|e| StorageError::Io(e.to_string()))?;
            let name = entry.file_name();
            let Some(base) = name.to_str().and_then(parse_segment_name) else {
                continue;
            };
            if base < cut {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Replay.
// ---------------------------------------------------------------------------

/// The result of replaying (and repairing) the log tail.
#[derive(Debug)]
pub struct WalReplayOutcome {
    /// Committed units, in log order: each inner vector applies atomically.
    pub commits: Vec<Vec<WalOp>>,
    /// Base LSN of the segment the writer should resume in.
    pub resume_base: u64,
    /// LSN after the last valid byte (the resume append position).
    pub resume_end: u64,
    /// Whether a torn or corrupted tail was truncated away.
    pub truncated: bool,
}

/// Reads every segment with base ≥ `from_lsn`, decoding committed units in
/// order.  A torn or CRC-invalid frame truncates the log there — the file
/// is cut back to the last valid frame and any later segment is deleted —
/// and replay stops: this is the expected shape of a crash, not an error.
/// Transactions without a `Commit` are discarded.
pub fn replay_dir(dir: &Path, from_lsn: u64) -> Result<WalReplayOutcome, StorageError> {
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    for entry in
        std::fs::read_dir(dir).map_err(|e| StorageError::Io(format!("read wal dir: {}", e)))?
    {
        let entry = entry.map_err(|e| StorageError::Io(e.to_string()))?;
        let name = entry.file_name();
        let Some(base) = name.to_str().and_then(parse_segment_name) else {
            continue;
        };
        if base >= from_lsn {
            segments.push((base, entry.path()));
        }
    }
    segments.sort();

    let mut commits: Vec<Vec<WalOp>> = Vec::new();
    let mut pending: HashMap<u64, Vec<WalOp>> = HashMap::new();
    let mut resume_base = from_lsn;
    let mut resume_end = from_lsn;
    let mut truncated = false;

    'segments: for (i, (base, path)) in segments.iter().enumerate() {
        let bytes = std::fs::read(path)
            .map_err(|e| StorageError::Io(format!("read wal segment: {}", e)))?;
        let mut dec = RecordDecoder::new();
        let mut offset = 0usize;
        resume_base = *base;
        resume_end = base + bytes.len() as u64;
        loop {
            match read_frame(&bytes, offset) {
                FrameRead::Eof => break,
                FrameRead::Corrupt => {
                    // The expected crash shape: truncate the tail here and
                    // drop anything after it.
                    truncated = true;
                    resume_end = base + offset as u64;
                    let f = OpenOptions::new()
                        .write(true)
                        .open(path)
                        .map_err(|e| StorageError::Io(format!("repair wal: {}", e)))?;
                    f.set_len(offset as u64)
                        .map_err(|e| StorageError::Io(format!("repair wal: {}", e)))?;
                    f.sync_data()
                        .map_err(|e| StorageError::Io(format!("repair wal: {}", e)))?;
                    for (_, later) in &segments[i + 1..] {
                        let _ = std::fs::remove_file(later);
                    }
                    break 'segments;
                }
                FrameRead::Frame { payload, next } => {
                    offset = next;
                    match dec.decode(payload)? {
                        None | Some(WalRecord::Checkpoint(_)) => {}
                        Some(WalRecord::Begin(txn)) => {
                            pending.insert(txn, Vec::new());
                        }
                        Some(WalRecord::Commit(txn)) => {
                            let ops = pending.remove(&txn).ok_or_else(|| {
                                StorageError::Corruption(format!(
                                    "commit of unknown transaction {}",
                                    txn
                                ))
                            })?;
                            commits.push(ops);
                        }
                        Some(WalRecord::Abort(txn)) => {
                            pending.remove(&txn);
                        }
                        Some(WalRecord::Op { txn: 0, op }) => commits.push(vec![op]),
                        Some(WalRecord::Op { txn, op }) => {
                            pending
                                .get_mut(&txn)
                                .ok_or_else(|| {
                                    StorageError::Corruption(format!(
                                        "op for unknown transaction {}",
                                        txn
                                    ))
                                })?
                                .push(op);
                        }
                    }
                }
            }
        }
    }

    Ok(WalReplayOutcome {
        commits,
        resume_base,
        resume_end,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::NoFault;
    use flexrel_core::tuple;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "flexrel-wal-{}-{}-{:?}",
            tag,
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn op(i: i64) -> WalOp {
        WalOp::Insert {
            relation: "r".into(),
            tuple: tuple! {"x" => i},
        }
    }

    #[test]
    fn records_round_trip_through_the_stream_codec() {
        let recs = vec![
            WalRecord::Begin(7),
            WalRecord::Op {
                txn: 7,
                op: WalOp::Insert {
                    relation: "emp".into(),
                    tuple: tuple! {"a" => 1, "b" => 2.5},
                },
            },
            WalRecord::Op {
                txn: 7,
                op: WalOp::Update {
                    relation: "emp".into(),
                    old: tuple! {"a" => 1, "b" => 2.5},
                    new: tuple! {"a" => 1, "c" => flexrel_core::value::Value::str("s")},
                },
            },
            WalRecord::Commit(7),
            WalRecord::Op {
                txn: 0,
                op: WalOp::Delete {
                    relation: "emp".into(),
                    tuple: tuple! {"a" => 1, "c" => flexrel_core::value::Value::str("s")},
                },
            },
            WalRecord::Abort(9),
            WalRecord::Checkpoint(1234),
        ];
        let mut enc = RecordEncoder::new();
        let mut bytes = Vec::new();
        for r in &recs {
            enc.encode(r, &mut bytes);
        }
        let mut dec = RecordDecoder::new();
        let mut offset = 0;
        let mut back = Vec::new();
        loop {
            match read_frame(&bytes, offset) {
                FrameRead::Eof => break,
                FrameRead::Corrupt => panic!("clean stream must not read corrupt"),
                FrameRead::Frame { payload, next } => {
                    offset = next;
                    if let Some(r) = dec.decode(payload).unwrap() {
                        back.push(r);
                    }
                }
            }
        }
        assert_eq!(back, recs);
    }

    #[test]
    fn group_commit_amortizes_syncs_across_threads() {
        let dir = tmp_dir("group");
        let counting = Arc::new(crate::fault::CountingFault::new());
        let wal = Arc::new(WalWriter::resume(&dir, 0, true, Arc::clone(&counting) as _).unwrap());
        let threads = 8;
        let per = 16;
        std::thread::scope(|s| {
            for t in 0..threads {
                let wal = Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..per {
                        let lsn = wal.append_commit(&[op((t * per + i) as i64)]).unwrap();
                        wal.sync_to(lsn).unwrap();
                    }
                });
            }
        });
        let out = replay_dir(&dir, 0).unwrap();
        assert_eq!(out.commits.len(), threads * per);
        assert!(!out.truncated);
        // The whole point: far fewer fsyncs than commits would be ideal,
        // but at minimum the writer must never sync more than once per
        // commit plus the trailing flush.
        assert!(counting.wal_syncs() <= threads * per + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_starts_a_fresh_self_describing_segment() {
        let dir = tmp_dir("rotate");
        let wal = WalWriter::resume(&dir, 0, true, Arc::new(NoFault)).unwrap();
        let lsn = wal.append_commit(&[op(1), op(2)]).unwrap();
        wal.sync_to(lsn).unwrap();
        let cut = wal.rotate().unwrap();
        assert_eq!(cut, lsn);
        assert_eq!(wal.bytes_since_checkpoint(), 0);
        let lsn2 = wal.append_commit(&[op(3)]).unwrap();
        wal.sync_to(lsn2).unwrap();
        // Replaying only from the cut sees only the post-rotation commit —
        // with its own shape table.
        let out = replay_dir(&dir, cut).unwrap();
        assert_eq!(out.commits, vec![vec![op(3)]]);
        // Replaying everything sees all three ops.
        let all = replay_dir(&dir, 0).unwrap();
        assert_eq!(all.commits.len(), 2);
        wal.delete_segments_below(cut).unwrap();
        let after = replay_dir(&dir, 0).unwrap();
        assert_eq!(after.commits, vec![vec![op(3)]]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_uncommitted_txns_discarded() {
        let dir = tmp_dir("torn");
        let wal = WalWriter::resume(&dir, 0, true, Arc::new(NoFault)).unwrap();
        let lsn = wal.append_commit(&[op(1)]).unwrap();
        wal.sync_to(lsn).unwrap();
        // Hand-append a torn frame: a valid header claiming more bytes
        // than exist.
        let path = dir.join(segment_file_name(0));
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[200, 0, 0, 0, 1, 2, 3, 4, 9, 9]).unwrap();
        let out = replay_dir(&dir, 0).unwrap();
        assert!(out.truncated);
        assert_eq!(out.commits, vec![vec![op(1)]]);
        assert_eq!(out.resume_end, lsn);
        // The repair really truncated the file: a second replay is clean.
        let again = replay_dir(&dir, 0).unwrap();
        assert!(!again.truncated);
        assert_eq!(again.commits, vec![vec![op(1)]]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_at_sync_discards_unsynced_bytes_and_poisons() {
        let dir = tmp_dir("crash");
        // Event order per leader round: WalWrite, WalSync.  Crash at the
        // second round's sync (events: w0 s0 w1 s1 → index 3).
        let fault = Arc::new(crate::fault::NthEventFault::new(3, FaultAction::Crash));
        let wal = WalWriter::resume(&dir, 0, true, fault).unwrap();
        let l1 = wal.append_commit(&[op(1)]).unwrap();
        wal.sync_to(l1).unwrap();
        let l2 = wal.append_commit(&[op(2)]).unwrap();
        let err = wal.sync_to(l2).unwrap_err();
        assert!(err.is_io());
        assert!(wal.is_poisoned());
        assert!(
            wal.append_commit(&[op(3)]).is_err(),
            "poisoned wal rejects writes"
        );
        let out = replay_dir(&dir, 0).unwrap();
        assert_eq!(out.commits, vec![vec![op(1)]], "unsynced commit is gone");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
