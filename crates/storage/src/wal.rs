//! The write-ahead log: redo logging with group commit.
//!
//! # Record format
//!
//! The log is a sequence of segment files `wal-<base>.log`, where `<base>`
//! is the global byte offset (**LSN**) of the segment's first byte.  Each
//! segment is a sequence of frames `[len: u32][crc32: u32][payload]` (see
//! [`crate::codec`]).  A frame is one committed transaction or a rotation
//! marker:
//!
//! ```text
//! Commit      { entry* }      -- entries run to the end of the payload
//! Checkpoint  { lsn }         -- rotation marker
//!
//! entry:
//!   DefineShape { local: u32, attrs: [name] }   -- segment-local shape table
//!   Insert      { relation, shape: u32, values (canonical order) }
//!   Delete      { relation, shape: u32, values }
//!   Update      { relation, old shape+values, new shape+values }
//! ```
//!
//! The frame's CRC covers the whole commit, so a commit is atomic on disk:
//! a torn or damaged commit frame is dropped whole, and there is no
//! transaction bracket to match up.
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
//! one-statement transaction).  On commit it encodes its operation log as
//! one commit frame straight into an in-memory tail buffer under the
//! writer's lock (while still holding its relation write locks, so WAL
//! order equals apply order per relation), then waits for its LSN to
//! become durable.  A waiter whose bytes no round has taken yet becomes a
//! **leader**: under the `io` lock it takes the whole buffer and writes it
//! at the segment's write offset, then — outside that lock — runs **one**
//! `fdatasync` and wakes every commit the sync covered.  Up to two rounds are in
//! flight at once: while one leader's `fdatasync` runs, the next can
//! already take and write the commits that arrived meanwhile, so a
//! committer waits for about one sync, not for the tail of the previous
//! one plus its own.  Batches are taken and written in LSN order, and a
//! sync covers every byte written before it started, so a finishing round
//! publishes `synced = max(synced, its target)`; once the log is poisoned
//! a finishing round publishes nothing.  With `group_commit` off every
//! commit pays its own fsync, one round at a time (the baseline
//! experiment E15 measures the difference).
//!
//! A commit is acknowledged only after its sync boundary proceeded; see
//! [`crate::fault`] for the crash model this guarantees under.
//!
//! # Preallocated segments
//!
//! An append that grows a file makes `fdatasync` journal the new size as
//! well as the data.  The writer therefore keeps the segment allocated
//! ([`PREALLOC_STEP`] ahead of the write offset, by `fallocate`) and writes
//! each batch at its offset, so most syncs flush data only.  The file is
//! longer than the log: past the last frame it reads as zeros.  Replay
//! takes a zero-length frame header as the end of a segment when no later
//! segment exists or the next one starts exactly at the LSN reached;
//! anywhere else it is corruption (see [`replay_dir`]).  Rotation and a
//! clean close trim the segment back to its written length, so a cleanly
//! closed directory holds no zero tail.  Where `fallocate` is unavailable
//! the segment simply grows with each write.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::tuple::{ShapeId, Tuple};

use crate::codec::{
    begin_frame, get_attrs, get_shaped_values, put_attrs, put_shaped_values, put_str, put_u32,
    put_u64, put_u8, read_frame, seal_frame, Cursor, FrameRead, FRAME_HEADER,
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

/// One decoded WAL frame.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// One committed transaction: its ops, in apply order.  The frame's CRC
    /// covers them all, so they replay together or not at all.
    Commit(Vec<WalOp>),
    /// A rotation marker: the segment starting here begins at `lsn`.
    Checkpoint(u64),
}

/// Frame tags.  `FRAME_COMMIT` is a value no record of the earlier
/// one-record-per-frame format used, so a segment in that format fails
/// replay with the tag named.
const FRAME_CHECKPOINT: u8 = 8;
const FRAME_COMMIT: u8 = 9;

/// Entry tags inside a commit frame.
const ENTRY_DEFINE_SHAPE: u8 = 1;
const ENTRY_INSERT: u8 = 2;
const ENTRY_DELETE: u8 = 3;
const ENTRY_UPDATE: u8 = 4;

/// Encodes [`WalRecord`]s into frames, maintaining the segment-local shape
/// table (a commit defines each shape it is the first to use since the
/// last reset, ahead of the entry that needs it).
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

    /// The local id of `t`'s shape, defining it in `out` first if the
    /// table does not know it yet.
    fn shape_local(&mut self, t: &Tuple, out: &mut Vec<u8>) -> u32 {
        let sid = t.shape_id();
        if let Some(local) = self.shapes.get(&sid) {
            return *local;
        }
        let local = self.shapes.len() as u32;
        self.shapes.insert(sid, local);
        put_u8(out, ENTRY_DEFINE_SHAPE);
        put_u32(out, local);
        put_attrs(out, t.shape());
        local
    }

    /// Appends `rec` to `out` as one frame.  A frame too long for its
    /// length prefix is refused, and `out` and the shape table are left as
    /// they were.
    pub fn encode(&mut self, rec: &WalRecord, out: &mut Vec<u8>) -> Result<(), StorageError> {
        match rec {
            WalRecord::Commit(ops) => self.encode_commit(ops, out),
            WalRecord::Checkpoint(lsn) => {
                let frame = begin_frame(out);
                put_u8(out, FRAME_CHECKPOINT);
                put_u64(out, *lsn);
                seal_frame(out, frame)
            }
        }
    }

    /// Appends the commit frame of `ops`, encoded in place behind its
    /// header — [`RecordEncoder::encode`] of a [`WalRecord::Commit`]
    /// without building one.
    fn encode_commit<'o>(
        &mut self,
        ops: impl IntoIterator<Item = &'o WalOp>,
        out: &mut Vec<u8>,
    ) -> Result<(), StorageError> {
        let known = self.shapes.len() as u32;
        let frame = begin_frame(out);
        put_u8(out, FRAME_COMMIT);
        for op in ops {
            let (tag, first, second) = match op {
                WalOp::Insert { tuple, .. } => (ENTRY_INSERT, tuple, None),
                WalOp::Delete { tuple, .. } => (ENTRY_DELETE, tuple, None),
                WalOp::Update { old, new, .. } => (ENTRY_UPDATE, old, Some(new)),
            };
            // Shapes are defined ahead of the entry that names them.
            let first = (self.shape_local(first, out), first);
            let second = second.map(|t| (self.shape_local(t, out), t));
            put_u8(out, tag);
            put_str(out, op.relation());
            for (local, t) in std::iter::once(first).chain(second) {
                put_u32(out, local);
                put_shaped_values(out, t);
            }
        }
        seal_frame(out, frame).inspect_err(|_| {
            // The frame was cut off: so were the shapes it defined.
            self.shapes.retain(|_, local| *local < known);
        })
    }
}

/// Decodes frame payloads, maintaining the segment-local shape table.
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

    /// Decodes one frame payload.
    pub fn decode(&mut self, payload: &[u8]) -> Result<WalRecord, StorageError> {
        let mut cur = Cursor::new(payload);
        match cur.u8()? {
            FRAME_CHECKPOINT => {
                let lsn = cur.u64()?;
                if !cur.is_empty() {
                    return Err(StorageError::Corruption(
                        "trailing bytes after wal checkpoint marker".into(),
                    ));
                }
                Ok(WalRecord::Checkpoint(lsn))
            }
            FRAME_COMMIT => {
                let mut ops = Vec::new();
                while !cur.is_empty() {
                    if let Some(op) = self.decode_entry(&mut cur)? {
                        ops.push(op);
                    }
                }
                Ok(WalRecord::Commit(ops))
            }
            t => Err(StorageError::Corruption(format!(
                "unknown wal frame tag {}",
                t
            ))),
        }
    }

    /// Decodes one entry of a commit frame: an op, or a shape definition
    /// (absorbed into the table, `None`).
    fn decode_entry(&mut self, cur: &mut Cursor<'_>) -> Result<Option<WalOp>, StorageError> {
        match cur.u8()? {
            ENTRY_DEFINE_SHAPE => {
                let local = cur.u32()? as usize;
                if local != self.shapes.len() {
                    return Err(StorageError::Corruption(format!(
                        "shape table defines id {} but {} are known",
                        local,
                        self.shapes.len()
                    )));
                }
                let shape = get_attrs(cur)?;
                let attrs: Arc<[Attr]> = shape.to_vec().into();
                self.shapes.push((shape, attrs));
                Ok(None)
            }
            ENTRY_INSERT => {
                let relation = cur.str()?.to_string();
                let tuple = self.get_tuple(cur)?;
                Ok(Some(WalOp::Insert { relation, tuple }))
            }
            ENTRY_DELETE => {
                let relation = cur.str()?.to_string();
                let tuple = self.get_tuple(cur)?;
                Ok(Some(WalOp::Delete { relation, tuple }))
            }
            ENTRY_UPDATE => {
                let relation = cur.str()?.to_string();
                let old = self.get_tuple(cur)?;
                let new = self.get_tuple(cur)?;
                Ok(Some(WalOp::Update { relation, old, new }))
            }
            t => Err(StorageError::Corruption(format!(
                "unknown wal entry tag {}",
                t
            ))),
        }
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

/// How far past the write offset a segment is kept allocated.  One
/// `fallocate` per step (a mebibyte is some 19 000 single-insert commits)
/// keeps the file size out of nearly every `fdatasync`.
pub const PREALLOC_STEP: u64 = 1 << 20;

/// Leader rounds that may be in flight at once under group commit: one
/// syncing while the next takes and writes the commits that queued up
/// behind it.
const MAX_ROUNDS: usize = 2;

struct WalState {
    /// Bytes appended but not yet handed to a leader.
    buf: Vec<u8>,
    /// Global byte offset at the start of the current segment file.
    seg_base: u64,
    /// LSN after the last appended byte.
    appended: u64,
    /// LSN up to which leaders have taken bytes: a commit at or below it
    /// is covered by a round already in flight (or finished).
    taken: u64,
    /// LSN up to which the log is durable.
    synced: u64,
    /// Leader rounds in flight; [`WalWriter::rotate`] holds every slot
    /// while it switches segments.
    rounds: usize,
    /// Set after an I/O failure or injected crash; every later operation
    /// fails with [`StorageError::Io`].
    poisoned: bool,
    enc: RecordEncoder,
    since_checkpoint: u64,
}

/// The open segment.  Guarded by the writer's `io` lock, which orders
/// batch writes; syncs run on a clone of `file` outside it.
struct WalIo {
    file: Arc<File>,
    /// Bytes written to the segment: the next batch's offset.
    written: u64,
    /// Bytes allocated with `fallocate`; `None` once it failed, after
    /// which the segment grows with each write.
    allocated: Option<u64>,
}

impl WalIo {
    /// Creates (or empties) the segment file starting at `base`.  A file
    /// already there holds no valid frame — recovery resumes only at the
    /// end of the last one — so emptying it loses nothing.
    fn create(dir: &Path, base: u64) -> Result<WalIo, StorageError> {
        let path = dir.join(segment_file_name(base));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| StorageError::Io(format!("open {}: {}", path.display(), e)))?;
        Ok(WalIo {
            file: Arc::new(file),
            written: 0,
            allocated: Some(0),
        })
    }

    /// Makes sure a write ending at `end` lands in allocated space with a
    /// whole zero frame header after it, extending the allocation a
    /// [`PREALLOC_STEP`] past `end` when it does not.
    fn reserve(&mut self, end: u64) {
        if let Some(allocated) = self.allocated {
            // At least a frame header's worth of preallocated zeros stays
            // past the last write, so a zero tail always starts with a
            // whole zero-length header.
            if end + FRAME_HEADER as u64 > allocated {
                let target = end + PREALLOC_STEP;
                self.allocated =
                    preallocate(&self.file, allocated, target - allocated).then_some(target);
            }
        }
    }

    /// Cuts the preallocated tail off: the file ends at its last frame.
    fn trim(&self) {
        let _ = self.file.set_len(self.written);
    }
}

/// Allocates `len` bytes of `file` from `offset` on (extending its size),
/// so later writes there change no file metadata.  Returns whether the
/// filesystem did it.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn preallocate(file: &File, offset: u64, len: u64) -> bool {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn fallocate(fd: i32, mode: i32, offset: i64, len: i64) -> i32;
    }
    let (Ok(offset), Ok(len)) = (i64::try_from(offset), i64::try_from(len)) else {
        return false;
    };
    // SAFETY: on 64-bit Linux `off_t` is `i64`, so the declaration matches
    // the C signature.  The descriptor belongs to `file`, which the borrow
    // keeps open for the whole call; mode 0 only allocates blocks in the
    // given range and never touches memory of this process.
    unsafe { fallocate(file.as_raw_fd(), 0, offset, len) == 0 }
}

/// Elsewhere the segment grows with each write.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn preallocate(_file: &File, _offset: u64, _len: u64) -> bool {
    false
}

fn poisoned_error() -> StorageError {
    StorageError::Io("wal is poisoned after a crash".into())
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
        let io = WalIo::create(dir, end)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            group_commit,
            fault,
            state: Mutex::new(WalState {
                buf: Vec::new(),
                seg_base: end,
                appended: end,
                taken: end,
                synced: end,
                rounds: 0,
                poisoned: false,
                enc: RecordEncoder::new(),
                since_checkpoint: 0,
            }),
            cond: Condvar::new(),
            io: Mutex::new(io),
        })
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

    /// Appends one committed transaction's ops to the log tail as one
    /// commit frame and returns the LSN the caller must
    /// [`WalWriter::sync_to`] before acknowledging.  The ops are encoded
    /// straight into the tail, never cloned.  A commit too large for one
    /// frame is refused with nothing appended (the caller rolls it back).
    /// Must be called while the write locks of every touched relation are
    /// held, so log order equals apply order.
    pub fn append_commit<'o>(
        &self,
        ops: impl IntoIterator<Item = &'o WalOp>,
    ) -> Result<u64, StorageError> {
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        if st.poisoned {
            return Err(poisoned_error());
        }
        let before = st.buf.len();
        st.enc.encode_commit(ops, &mut st.buf)?;
        let len = (st.buf.len() - before) as u64;
        st.appended += len;
        st.since_checkpoint += len;
        Ok(st.appended)
    }

    /// One leader round, run in a slot the caller reserved in `rounds`:
    /// writes the pending buffer, syncs, and publishes what the sync made
    /// durable.  Returns the reacquired state guard (still counting the
    /// slot, which the caller releases) and the round's outcome.
    fn leader_round(&self) -> (MutexGuard<'_, WalState>, Result<(), StorageError>) {
        let outcome = self
            .write_batch()
            .and_then(|(file, target)| self.sync_batch(&file).map(|()| target));
        let mut st = lock(&self.state);
        let result = match outcome {
            Err(e) => {
                st.poisoned = true;
                Err(e)
            }
            // A crash elsewhere may already have cut the file back to the
            // durable prefix: this round's bytes are not durable after all.
            Ok(_) if st.poisoned => Err(poisoned_error()),
            // The sync started after every byte up to `target` was written.
            Ok(target) => {
                st.synced = st.synced.max(target);
                Ok(())
            }
        };
        self.cond.notify_all();
        (st, result)
    }

    /// Takes the pending buffer and writes it at the segment's write
    /// offset (through the fault hook).  Taking and writing both happen
    /// under the `io` lock, so batches reach the file in LSN order.
    /// Returns the segment to sync and the LSN that sync makes durable.
    fn write_batch(&self) -> Result<(Arc<File>, u64), StorageError> {
        let mut io = lock(&self.io);
        let (batch, target) = {
            let mut st = lock(&self.state);
            if st.poisoned {
                return Err(poisoned_error());
            }
            st.taken = st.appended;
            (std::mem::take(&mut st.buf), st.appended)
        };
        if !batch.is_empty() {
            let (at, end) = (io.written, io.written + batch.len() as u64);
            io.reserve(end);
            if let Err(e) = self.write_at(&io.file, batch, at) {
                // Poison before the `io` lock drops: no later batch may
                // land past bytes that never reached the file (it could
                // name shapes only this batch defined).
                self.poison_now();
                return Err(e);
            }
            io.written = end;
        }
        Ok((Arc::clone(&io.file), target))
    }

    fn write_at(&self, file: &File, mut batch: Vec<u8>, at: u64) -> Result<(), StorageError> {
        let write = |bytes: &[u8]| {
            file.write_all_at(bytes, at)
                .map_err(|e| StorageError::Io(format!("wal write: {}", e)))
        };
        match self.fault.intercept(IoEvent::WalWrite { len: batch.len() }) {
            FaultAction::Proceed => write(&batch),
            FaultAction::Crash => Err(StorageError::Io("injected crash at wal write".into())),
            FaultAction::Torn { keep } => {
                let _ = write(&batch[..keep.min(batch.len())]);
                Err(StorageError::Io("injected torn wal write".into()))
            }
            FaultAction::FlipBit { offset } => {
                let byte = (offset / 8) % batch.len();
                batch[byte] ^= 1 << (offset % 8);
                write(&batch)
            }
        }
    }

    /// Marks the log poisoned and returns the segment offset it is durable
    /// up to, which no round can move past from now on.
    fn poison_now(&self) -> u64 {
        let mut st = lock(&self.state);
        st.poisoned = true;
        st.synced - st.seg_base
    }

    /// `fdatasync`s the segment (through the fault hook), outside the `io`
    /// lock so the next round can write meanwhile.
    fn sync_batch(&self, file: &File) -> Result<(), StorageError> {
        match self.fault.intercept(IoEvent::WalSync) {
            FaultAction::Proceed => file.sync_data().map_err(|e| {
                self.poison_now();
                StorageError::Io(format!("wal sync: {}", e))
            }),
            // Any fault at the sync boundary is a crash before durability:
            // the pessimistic model discards everything unsynced.  Poison
            // first, so no round publishes past the prefix kept, and cut
            // under the `io` lock, so no write lands after the cut.
            _ => {
                let io = lock(&self.io);
                let _ = io.file.set_len(self.poison_now());
                Err(StorageError::Io("injected crash at wal sync".into()))
            }
        }
    }

    /// Blocks until the log is durable up to `lsn` (group commit: the
    /// caller may ride on another commit's fsync) or the log is poisoned.
    /// With `group_commit` off, every call pays its own fsync, one round
    /// at a time.
    pub fn sync_to(&self, lsn: u64) -> Result<(), StorageError> {
        let max_rounds = if self.group_commit { MAX_ROUNDS } else { 1 };
        let mut st = lock(&self.state);
        loop {
            if self.group_commit && st.synced >= lsn {
                return Ok(());
            }
            if st.poisoned {
                return Err(poisoned_error());
            }
            // Under group commit a round that already took `lsn` will
            // publish it: wait for that round rather than start another.
            let covered = self.group_commit && st.taken >= lsn;
            if !covered && st.rounds < max_rounds {
                st.rounds += 1;
                drop(st);
                let (mut reacquired, result) = self.leader_round();
                reacquired.rounds -= 1;
                result?;
                if !self.group_commit {
                    // Per-commit fsync mode: this round *was* our fsync.
                    return Ok(());
                }
                st = reacquired;
                continue;
            }
            st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Rotates to a fresh segment at the current append position and
    /// returns its base LSN — the checkpoint cut.  Must be called while
    /// every relation's read guards are held (the checkpointer's consistent
    /// cut): writers append under their write locks, so no append can
    /// interleave.  Waits until no leader round is in flight and holds
    /// every slot meanwhile; pending bytes are flushed to the old segment,
    /// which is then trimmed to its written length.
    pub fn rotate(&self) -> Result<u64, StorageError> {
        let mut st = lock(&self.state);
        loop {
            if st.poisoned {
                return Err(poisoned_error());
            }
            if st.rounds == 0 {
                break;
            }
            st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.rounds = MAX_ROUNDS;
        let pending = st.synced < st.appended || !st.buf.is_empty();
        drop(st);
        let result = self.switch_segment(pending);
        let mut st = lock(&self.state);
        st.rounds = 0;
        self.cond.notify_all();
        result
    }

    /// [`WalWriter::rotate`]'s work, run while it holds every round slot.
    fn switch_segment(&self, pending: bool) -> Result<u64, StorageError> {
        if pending {
            self.leader_round().1?;
        }
        let mut io = lock(&self.io);
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        let cut = st.appended;
        let next = WalIo::create(&self.dir, cut)?;
        std::mem::replace(&mut *io, next).trim();
        st.seg_base = cut;
        st.enc.reset();
        st.since_checkpoint = 0;
        // A rotation marker: replay ignores it, humans (and tests) can see
        // where the cut happened.
        let before = st.buf.len();
        st.enc.encode(&WalRecord::Checkpoint(cut), &mut st.buf)?;
        st.appended += (st.buf.len() - before) as u64;
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

impl Drop for WalWriter {
    /// A clean close trims the open segment to its written length.  A
    /// poisoned log models a dead process and keeps what the crash left.
    fn drop(&mut self) {
        let poisoned = self
            .state
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .poisoned;
        if !poisoned {
            self.io
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .trim();
        }
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
    /// LSN after the last valid frame (the resume append position) — not
    /// the file length, which a preallocated zero tail may exceed.
    pub resume_end: u64,
    /// Whether a torn or corrupted tail was truncated away.
    pub truncated: bool,
}

/// Reads every segment with base ≥ `from_lsn`, decoding committed units in
/// order.  A torn or CRC-invalid frame truncates the log there — the file
/// is cut back to the last valid frame and any later segment is deleted —
/// and replay stops: this is the expected shape of a crash, not an error.
/// A commit is one frame, so a torn commit is dropped whole.  A CRC-valid
/// frame that does not decode (an unknown tag, say) is
/// [`StorageError::Corruption`], and nothing is repaired.
///
/// A zero-length frame header (eight zero bytes — no frame encodes to an
/// empty payload) is the preallocated tail of a segment.  It ends the
/// segment only when no later segment exists or the next one starts at
/// exactly the LSN reached; anywhere else it is handled as corruption,
/// never skipped.
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
    let mut resume_base = from_lsn;
    let mut resume_end = from_lsn;
    let mut truncated = false;

    'segments: for (i, (base, path)) in segments.iter().enumerate() {
        let bytes = std::fs::read(path)
            .map_err(|e| StorageError::Io(format!("read wal segment: {}", e)))?;
        let mut dec = RecordDecoder::new();
        let mut offset = 0usize;
        resume_base = *base;
        loop {
            resume_end = base + offset as u64;
            let zero_tail_ends_log = || {
                segments
                    .get(i + 1)
                    .is_none_or(|(next, _)| *next == resume_end)
            };
            match read_frame(&bytes, offset) {
                FrameRead::Eof => break,
                FrameRead::Frame { payload: [], .. } if zero_tail_ends_log() => break,
                FrameRead::Frame { payload: [], .. } | FrameRead::Corrupt => {
                    // The expected crash shape: truncate the tail here and
                    // drop anything after it.
                    truncated = true;
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
                    if let WalRecord::Commit(ops) = dec.decode(payload)? {
                        commits.push(ops);
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
            WalRecord::Commit(vec![
                WalOp::Insert {
                    relation: "emp".into(),
                    tuple: tuple! {"a" => 1, "b" => 2.5},
                },
                WalOp::Update {
                    relation: "emp".into(),
                    old: tuple! {"a" => 1, "b" => 2.5},
                    new: tuple! {"a" => 1, "c" => flexrel_core::value::Value::str("s")},
                },
            ]),
            WalRecord::Commit(vec![WalOp::Delete {
                relation: "emp".into(),
                tuple: tuple! {"a" => 1, "c" => flexrel_core::value::Value::str("s")},
            }]),
            WalRecord::Commit(Vec::new()),
            WalRecord::Checkpoint(1234),
        ];
        let mut enc = RecordEncoder::new();
        let mut bytes = Vec::new();
        for r in &recs {
            enc.encode(r, &mut bytes).unwrap();
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
                    back.push(dec.decode(payload).unwrap());
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
        // Hand-write a torn frame: a valid header claiming more bytes than
        // exist.  It goes at the log's end (LSN `lsn`), not at the file's:
        // the open segment is preallocated, so past the last frame lie
        // zeros, and a frame appended after them would sit beyond the zero
        // header that ends the log — replay would never reach it.
        let path = dir.join(segment_file_name(0));
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(&[200, 0, 0, 0, 1, 2, 3, 4, 9, 9], lsn)
            .unwrap();
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

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    #[test]
    fn a_crash_leaves_a_zero_tail_that_ends_the_log() {
        let dir = tmp_dir("zero-tail");
        let wal = WalWriter::resume(&dir, 0, true, Arc::new(NoFault)).unwrap();
        let lsn = wal.append_commit(&[op(1), op(2)]).unwrap();
        wal.sync_to(lsn).unwrap();
        // A dead process never trims: the poisoned writer keeps its
        // preallocated tail on drop.
        wal.poison();
        drop(wal);
        let path = dir.join(segment_file_name(0));
        assert!(file_len(&path) >= lsn);
        let out = replay_dir(&dir, 0).unwrap();
        assert!(!out.truncated, "a zero tail is the log's end, not damage");
        assert_eq!(out.commits, vec![vec![op(1), op(2)]]);
        assert_eq!(
            out.resume_end, lsn,
            "resume at the last frame, not the file end"
        );
        // Resuming there starts the next segment at exactly the LSN the
        // zero tail begins at, so the tail stays acceptable.
        let wal = WalWriter::resume(&dir, out.resume_end, true, Arc::new(NoFault)).unwrap();
        let lsn2 = wal.append_commit(&[op(3)]).unwrap();
        wal.sync_to(lsn2).unwrap();
        drop(wal);
        let again = replay_dir(&dir, 0).unwrap();
        assert!(!again.truncated);
        assert_eq!(again.commits.len(), 2);
        assert_eq!(again.resume_end, lsn2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_zero_header_inside_the_log_is_corruption() {
        let dir = tmp_dir("zero-mid");
        let wal = WalWriter::resume(&dir, 0, true, Arc::new(NoFault)).unwrap();
        let l1 = wal.append_commit(&[op(1)]).unwrap();
        wal.sync_to(l1).unwrap();
        let l2 = wal.append_commit(&[op(2)]).unwrap();
        wal.sync_to(l2).unwrap();
        let cut = wal.rotate().unwrap();
        let l3 = wal.append_commit(&[op(3)]).unwrap();
        wal.sync_to(l3).unwrap();
        drop(wal);
        // Zero the second commit's frame header: the first segment now
        // "ends" at `l1`, but the next segment starts at `cut` ≠ `l1`.
        let first = dir.join(segment_file_name(0));
        let f = OpenOptions::new().write(true).open(&first).unwrap();
        f.write_all_at(&[0; 8], l1).unwrap();
        let out = replay_dir(&dir, 0).unwrap();
        assert!(
            out.truncated,
            "a zero header before the next segment is damage"
        );
        assert_eq!(out.commits, vec![vec![op(1)]]);
        assert_eq!(out.resume_end, l1);
        assert_eq!(file_len(&first), l1, "cut back to the last valid frame");
        assert!(
            !dir.join(segment_file_name(cut)).exists(),
            "segments past the damage are dropped"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_clean_close_trims_every_segment_to_its_bytes() {
        let dir = tmp_dir("trim");
        let wal = WalWriter::resume(&dir, 0, true, Arc::new(NoFault)).unwrap();
        let l1 = wal.append_commit(&[op(1), op(2)]).unwrap();
        wal.sync_to(l1).unwrap();
        let cut = wal.rotate().unwrap();
        assert_eq!(file_len(&dir.join(segment_file_name(0))), cut);
        let l2 = wal.append_commit(&[op(3)]).unwrap();
        wal.sync_to(l2).unwrap();
        drop(wal);
        assert_eq!(file_len(&dir.join(segment_file_name(cut))), l2 - cut);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_directory_without_preallocation_reopens_unchanged() {
        // Two segments as an appending writer leaves them: each file ends
        // at its last frame, the second opens with its rotation marker.
        let dir = tmp_dir("legacy");
        let mut first = Vec::new();
        let mut enc = RecordEncoder::new();
        for rec in [
            WalRecord::Commit(vec![op(1)]),
            WalRecord::Commit(vec![op(2), op(4)]),
        ] {
            enc.encode(&rec, &mut first).unwrap();
        }
        let cut = first.len() as u64;
        let mut second = Vec::new();
        let mut enc = RecordEncoder::new();
        for rec in [WalRecord::Checkpoint(cut), WalRecord::Commit(vec![op(3)])] {
            enc.encode(&rec, &mut second).unwrap();
        }
        let end = cut + second.len() as u64;
        std::fs::write(dir.join(segment_file_name(0)), &first).unwrap();
        std::fs::write(dir.join(segment_file_name(cut)), &second).unwrap();

        let out = replay_dir(&dir, 0).unwrap();
        assert!(!out.truncated);
        assert_eq!(
            out.commits,
            vec![vec![op(1)], vec![op(2), op(4)], vec![op(3)]]
        );
        assert_eq!((out.resume_base, out.resume_end), (cut, end));
        // Resuming and closing cleanly leaves the old files byte-identical.
        let wal = WalWriter::resume(&dir, end, true, Arc::new(NoFault)).unwrap();
        drop(wal);
        assert_eq!(
            std::fs::read(dir.join(segment_file_name(0))).unwrap(),
            first
        );
        assert_eq!(
            std::fs::read(dir.join(segment_file_name(cut))).unwrap(),
            second
        );
        assert_eq!(replay_dir(&dir, 0).unwrap().commits.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipelined_rounds_publish_nothing_after_a_crash() {
        // Crash at the first sync while other writers keep committing:
        // every commit that was acknowledged survives, and the poisoned log
        // acknowledges nothing else.
        let dir = tmp_dir("pipeline-crash");
        let fault = Arc::new(crate::fault::NthEventFault::new(5, FaultAction::Crash));
        let wal = Arc::new(WalWriter::resume(&dir, 0, true, fault).unwrap());
        let acked = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let (wal, acked) = (Arc::clone(&wal), &acked);
                s.spawn(move || {
                    for i in 0..16 {
                        let op = op(t * 100 + i);
                        let Ok(lsn) = wal.append_commit(std::slice::from_ref(&op)) else {
                            return;
                        };
                        match wal.sync_to(lsn) {
                            Ok(()) => lock(acked).push(op),
                            Err(_) => return,
                        }
                    }
                });
            }
        });
        assert!(wal.is_poisoned());
        let out = replay_dir(&dir, 0).unwrap();
        let recovered: Vec<WalOp> = out.commits.into_iter().flatten().collect();
        for op in lock(&acked).iter() {
            assert!(recovered.contains(op), "acked {:?} was lost", op);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
