//! Checkpoint images: the live partition state at a consistent cut.
//!
//! A checkpoint is one file, `checkpoint.ckpt`, holding a consistent cut of
//! the whole database: for every relation its [`RelationDef`], its index
//! definitions (key + auto flag; index *contents* are rebuilt by backfill on
//! recovery), and every partition as its shape plus its live rows as
//! blocks — one per segment with a live row, in the column format a `Rows`
//! reply uses ([`ColumnHeap::write_blocks`]; see *Blocks* in
//! [`crate::column`]).  A checkpoint is written straight out of
//! [`PartitionSnapshot`]s without materializing a single tuple, and stores
//! no tombstone: recovery reads each block into a dense segment
//! ([`ColumnHeap::read_blocks`]), so tuple identifiers are not stable
//! across a reopen (the WAL names its delete targets by value).
//!
//! The file layout is `magic ‖ version ‖ frame`, where the frame is the
//! standard `[len][crc32][payload]` envelope of [`crate::codec`] over the
//! whole body, and the body starts with the **WAL cut LSN**: recovery
//! replays exactly the segments at or after that LSN.  The writer goes
//! through `checkpoint.tmp` + fsync + atomic rename, so the live image is
//! always complete — a crash mid-checkpoint leaves the *previous* image
//! (and, because WAL segments are only deleted after the rename, every
//! segment that image needs).
//!
//! All three I/O boundaries (write, sync, rename) route through the
//! database's [`IoFault`] hook, so the crash-point sweep covers the
//! checkpointer too.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use flexrel_core::attr::AttrSet;

use crate::catalog::RelationDef;
use crate::codec::{
    begin_frame, get_attrs, get_relation_def, put_attrs, put_relation_def, put_u32, put_u64,
    put_u8, read_frame, seal_frame, Cursor, FrameRead,
};
use crate::column::ColumnHeap;
use crate::errors::StorageError;
use crate::fault::{FaultAction, IoEvent, IoFault};
use crate::partition::PartitionSnapshot;

const MAGIC: &[u8; 8] = b"FLEXCKPT";
const VERSION: u32 = 2;

/// File name of the live checkpoint image.
pub const CHECKPOINT_FILE: &str = "checkpoint.ckpt";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// One relation as decoded from a checkpoint image.
#[derive(Debug)]
pub(crate) struct RelationImage {
    /// The full relation definition (scheme, dependencies, domains).
    pub def: RelationDef,
    /// Index definitions: `(key, auto)`.  Contents are rebuilt by backfill.
    pub indexes: Vec<(AttrSet, bool)>,
    /// One rebuilt column heap per partition.
    pub partitions: Vec<ColumnHeap>,
}

/// A decoded checkpoint image.
#[derive(Debug)]
pub(crate) struct CheckpointImage {
    /// The WAL cut: replay starts at the segment whose base is this LSN.
    pub wal_lsn: u64,
    /// Every relation of the database at the cut.
    pub relations: Vec<RelationImage>,
}

/// The data a checkpoint writes, captured under the consistent cut.
pub(crate) struct CheckpointSource {
    /// The relation definition.
    pub def: RelationDef,
    /// Index definitions: `(key, auto)`.
    pub indexes: Vec<(AttrSet, bool)>,
    /// The partition snapshot (immutable, shared with the live heap).
    pub snapshot: PartitionSnapshot,
}

/// Appends the image body — the WAL cut, then every relation — to `body`.
fn put_body(body: &mut Vec<u8>, wal_lsn: u64, rels: &[CheckpointSource]) {
    put_u64(body, wal_lsn);
    put_u32(body, rels.len() as u32);
    for rel in rels {
        put_relation_def(body, &rel.def);
        put_u32(body, rel.indexes.len() as u32);
        for (key, auto) in &rel.indexes {
            put_attrs(body, key);
            put_u8(body, *auto as u8);
        }
        put_u32(body, rel.snapshot.partition_count() as u32);
        for (_, part) in rel.snapshot.partitions() {
            put_attrs(body, part.shape());
            part.columns().write_blocks(body);
        }
    }
}

fn decode_body(payload: &[u8]) -> Result<CheckpointImage, StorageError> {
    let mut cur = Cursor::new(payload);
    let wal_lsn = cur.u64()?;
    let n_rels = cur.u32()?;
    let mut relations = Vec::new();
    for _ in 0..n_rels {
        let def = get_relation_def(&mut cur)?;
        let n_idx = cur.u32()?;
        let mut indexes = Vec::new();
        for _ in 0..n_idx {
            let key = get_attrs(&mut cur)?;
            let auto = cur.u8()? != 0;
            indexes.push((key, auto));
        }
        let n_parts = cur.u32()?;
        let mut partitions = Vec::new();
        for _ in 0..n_parts {
            let shape = get_attrs(&mut cur)?;
            partitions.push(ColumnHeap::read_blocks(shape, &mut cur)?);
        }
        relations.push(RelationImage {
            def,
            indexes,
            partitions,
        });
    }
    if !cur.is_empty() {
        return Err(StorageError::Corruption(
            "trailing bytes after checkpoint body".into(),
        ));
    }
    Ok(CheckpointImage { wal_lsn, relations })
}

/// Writes a checkpoint image atomically (`checkpoint.tmp` → fsync → rename
/// over [`CHECKPOINT_FILE`]), routing every boundary through `fault`.  On
/// any error — injected or real — the live image is the previous one and
/// the caller must treat the process as crashed (poison the WAL).
pub(crate) fn write_checkpoint(
    dir: &Path,
    wal_lsn: u64,
    rels: &[CheckpointSource],
    fault: &Arc<dyn IoFault>,
) -> Result<(), StorageError> {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(MAGIC);
    put_u32(&mut bytes, VERSION);
    // The body is encoded in place behind its frame header; an image too
    // large for the header fails here, before any I/O.
    let frame = begin_frame(&mut bytes);
    put_body(&mut bytes, wal_lsn, rels);
    seal_frame(&mut bytes, frame)?;

    let tmp: PathBuf = dir.join(CHECKPOINT_TMP);
    let mut file = std::fs::File::create(&tmp)
        .map_err(|e| StorageError::Io(format!("create {}: {}", tmp.display(), e)))?;
    match fault.intercept(IoEvent::CheckpointWrite { len: bytes.len() }) {
        FaultAction::Proceed => file
            .write_all(&bytes)
            .map_err(|e| StorageError::Io(format!("checkpoint write: {}", e)))?,
        FaultAction::Crash => {
            return Err(StorageError::Io(
                "injected crash at checkpoint write".into(),
            ))
        }
        FaultAction::Torn { keep } => {
            let keep = keep.min(bytes.len());
            let _ = file.write_all(&bytes[..keep]);
            return Err(StorageError::Io("injected torn checkpoint write".into()));
        }
        FaultAction::FlipBit { offset } => {
            let byte = (offset / 8) % bytes.len();
            bytes[byte] ^= 1 << (offset % 8);
            file.write_all(&bytes)
                .map_err(|e| StorageError::Io(format!("checkpoint write: {}", e)))?;
        }
    }
    match fault.intercept(IoEvent::CheckpointSync) {
        FaultAction::Proceed => file
            .sync_all()
            .map_err(|e| StorageError::Io(format!("checkpoint sync: {}", e)))?,
        _ => return Err(StorageError::Io("injected crash at checkpoint sync".into())),
    }
    drop(file);
    match fault.intercept(IoEvent::CheckpointRename) {
        FaultAction::Proceed => std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))
            .map_err(|e| StorageError::Io(format!("checkpoint rename: {}", e)))?,
        _ => {
            return Err(StorageError::Io(
                "injected crash at checkpoint rename".into(),
            ))
        }
    }
    // Make the rename itself durable (best effort on platforms where
    // directories cannot be fsynced).
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Reads the live checkpoint image, if one exists.  A missing file means a
/// fresh database (recovery starts at LSN 0); structural damage is reported
/// as [`StorageError::Corruption`], never panicked on.
pub(crate) fn read_checkpoint(dir: &Path) -> Result<Option<CheckpointImage>, StorageError> {
    let path = dir.join(CHECKPOINT_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StorageError::Io(format!("read {}: {}", path.display(), e))),
    };
    if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(StorageError::Corruption(
            "checkpoint file has no FLEXCKPT magic".into(),
        ));
    }
    let mut hdr = Cursor::new(&bytes[MAGIC.len()..MAGIC.len() + 4]);
    let version = hdr.u32()?;
    if version != VERSION {
        return Err(StorageError::Corruption(format!(
            "unsupported checkpoint version {}",
            version
        )));
    }
    match read_frame(&bytes, MAGIC.len() + 4) {
        FrameRead::Frame { payload, next } => {
            if next != bytes.len() {
                return Err(StorageError::Corruption(
                    "trailing bytes after checkpoint frame".into(),
                ));
            }
            decode_body(payload).map(Some)
        }
        FrameRead::Eof | FrameRead::Corrupt => Err(StorageError::Corruption(
            "checkpoint frame failed its CRC or is truncated".into(),
        )),
    }
}
