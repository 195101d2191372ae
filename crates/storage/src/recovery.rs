//! Crash recovery: checkpoint load + WAL replay.
//!
//! `recover` rebuilds the database state a crashed process had made
//! durable: the latest checkpoint image is decoded into partitioned heaps
//! (secondary indexes are rebuilt by backfill — index *contents* are never
//! persisted), then the WAL segments at or past the checkpoint's cut LSN
//! are replayed in commit order.  A commit is one WAL frame, so a torn or
//! damaged final commit is dropped whole inside
//! [`crate::wal::replay_dir`], which truncates the log there; the replay
//! here only ever sees complete commits.
//!
//! Each op is re-applied by `db::replay`, the routine transaction rollback
//! runs too.  Without a rid hint it identifies delete and update targets
//! **by value**: slot numbers are an artifact of insert order and segment
//! reuse, so they are not stable across a rebuild — but equal tuples are
//! interchangeable in a multiset, so deleting *any* equal tuple reproduces
//! the committed state; a target that is not there is
//! [`StorageError::Corruption`].  So is a checkpoint partition whose shape
//! the relation's scheme does not admit: an insert into a live partition
//! skips the scheme test, so only admitted shapes may be loaded.
//! Operations on relations the checkpoint does not know are skipped: DDL
//! is not WAL-logged, and the window between an in-memory DDL statement
//! and its synchronous checkpoint is the documented DDL durability window.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use crate::catalog::Catalog;
use crate::checkpoint::read_checkpoint;
use crate::db::{replay, IndexSet, RelStore, StoredIndex};
use crate::errors::StorageError;
use crate::index::HashIndex;
use crate::partition::{Partition, PartitionedHeap};
use crate::wal::replay_dir;

/// Everything [`recover`] rebuilds from disk, handed to
/// [`Database::open_with`](crate::db::Database::open_with).
#[derive(Debug)]
pub(crate) struct RecoveredState {
    /// The recovered catalog of relation definitions.
    pub catalog: Catalog,
    /// The recovered per-relation storage (heaps + rebuilt indexes).
    pub storage: BTreeMap<String, Arc<RelStore>>,
    /// End LSN (= appended = synced) the writer resumes at; the writer
    /// cuts a fresh segment there (see [`crate::wal::WalWriter::resume`]).
    pub resume_end: u64,
    /// Number of committed transactions replayed from the WAL tail.
    pub replayed_commits: usize,
    /// Whether a torn/corrupt WAL tail was truncated during replay.
    pub truncated: bool,
}

/// Rebuilds the durable database state from `dir`: checkpoint + WAL tail.
pub(crate) fn recover(dir: &Path) -> Result<RecoveredState, StorageError> {
    let mut catalog = Catalog::default();
    let mut rels: BTreeMap<String, (PartitionedHeap, IndexSet)> = BTreeMap::new();
    let ckpt_lsn = match read_checkpoint(dir)? {
        Some(image) => {
            for rel in image.relations {
                let name = rel.def.name.clone();
                // Inserts skip the scheme test for a shape with a live
                // partition, so an image must not bring in one the scheme
                // does not admit.
                if let Some(heap) = rel
                    .partitions
                    .iter()
                    .find(|heap| !rel.def.scheme.admits(heap.shape()))
                {
                    return Err(StorageError::Corruption(format!(
                        "checkpoint holds a partition of {} whose shape {} its scheme does not admit",
                        name,
                        heap.shape()
                    )));
                }
                let parts = PartitionedHeap::from_parts(
                    rel.partitions.into_iter().map(Partition::from_heap),
                );
                let indexes: IndexSet = rel
                    .indexes
                    .into_iter()
                    .map(|(key, auto)| StoredIndex {
                        idx: Arc::new(HashIndex::build(key, &parts)),
                        auto,
                    })
                    .collect();
                catalog.register(rel.def).map_err(|e| {
                    StorageError::Corruption(format!(
                        "checkpoint defines relation {} twice: {}",
                        name, e
                    ))
                })?;
                rels.insert(name, (parts, indexes));
            }
            image.wal_lsn
        }
        None => 0,
    };

    let outcome = replay_dir(dir, ckpt_lsn)?;
    for op in outcome.commits.iter().flatten() {
        let Some((parts, indexes)) = rels.get_mut(op.relation()) else {
            continue;
        };
        replay(parts, indexes, op, None, StorageError::Corruption)?;
    }

    let storage = rels
        .into_iter()
        .map(|(name, (parts, indexes))| (name, Arc::new(RelStore::new(parts, indexes))))
        .collect();
    Ok(RecoveredState {
        catalog,
        storage,
        resume_end: outcome.resume_end,
        replayed_commits: outcome.commits.len(),
        truncated: outcome.truncated,
    })
}
