//! The database facade: catalog + partitioned heaps + indexes + constraint
//! enforcement, shared across threads.
//!
//! Every relation's instance is stored shape-partitioned (see
//! [`crate::partition`]): one segment heap per distinct `attr(t)`.  Every
//! write checks its tuple one way: the scheme test `attr(t) ∈ dnf(FS)` only
//! when the tuple's shape has no live partition (a live partition stands
//! for its shape's admission), then domains and every declared dependency
//! (each EAD on the tuple alone, each AD/FD against its index peers).
//!
//! # Concurrency
//!
//! A [`Database`] is a cheap, cloneable **handle** to shared state
//! (`Clone` produces another handle onto the *same* database).  It is
//! `Send + Sync`; any
//! number of sessions may read and write concurrently.  The locking is
//! sharded per relation: the **partition catalog**
//! (`RwLock<PartitionedHeap>`) and the **index set** (`RwLock<Vec<_>>`)
//! each sit under their own reader/writer lock.
//!
//! There is one write path.  Every write is a transaction
//! ([`Database::transact`]); the auto-committed [`Database::insert`],
//! [`Database::delete`] and [`Database::update`] are one-statement
//! transactions.  A writer holds its relations' partition *and* index write
//! locks from the constraint check through the WAL append, which totally
//! orders the writes of a relation — the pairwise AD/FD checks of
//! Defs. 4.1/4.2 are only sound under such an order — and means a reader
//! holding the partition read lock always observes tuple and index state
//! in sync.
//!
//! The lock hierarchy is `catalog → storage map → partitions → indexes`;
//! every code path acquires in that order, which makes deadlock impossible
//! (transactions over several relations additionally order the relations
//! by name).
//!
//! Scans never hold a lock while streaming: they take a
//! [`PartitionSnapshot`] (a few refcount bumps under the partition read
//! lock) and iterate the immutable snapshot afterwards — a query observes a
//! single point in time per relation, never a torn catalog.  Copy-on-write
//! granularity differs by structure: heap writes that land while a
//! snapshot is alive copy only the touched ≤1024-slot segment, but index
//! maintenance copies a *whole* [`HashIndex`] while an index snapshot
//! (from [`Database::index`]/[`Database::relation_snapshot`]) is
//! outstanding — which is why the executor only captures index snapshots
//! for plans that can probe them.
//!
//! [`Database::transact`] holds the declared relations' write locks for the
//! whole transaction: concurrent scanners see either none or all of its
//! effects.  Each transaction keeps **one** operation log
//! (`Vec<(Rid, WalOp)>`): commit appends it to the WAL, rollback (error
//! return) replays its inverse newest-first — restoring tuples, the
//! partition catalog and every index exactly before the locks are released
//! — and recovery replays the WAL's ops oldest-first, both through the one
//! `replay` routine.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak,
};
use std::time::Duration;

use flexrel_core::attr::AttrSet;
use flexrel_core::dep::Dependency;
use flexrel_core::error::{CoreError, Result};
use flexrel_core::relation::{check_domains, FlexRelation};
use flexrel_core::tuple::Tuple;

use crate::catalog::{Catalog, RelationDef};
use crate::checkpoint::{write_checkpoint, CheckpointSource};
use crate::errors::StorageError;
use crate::fault::{IoFault, NoFault};
use crate::index::HashIndex;
use crate::partition::{PartitionSnapshot, PartitionedHeap, Rid};
use crate::wal::{WalOp, WalWriter};

// Lock acquisition helpers.  Poisoning is deliberately not propagated
// (parking-lot-style semantics): the storage layer runs all fallible checks
// *before* mutating, so a poisoned lock can only result from a caller panic
// inside `transact` — which rolls back before unwinding — or from a panic
// in a reader, which does not poison at all.
pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn lock<T>(l: &Mutex<T>) -> MutexGuard<'_, T> {
    l.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One stored index: the hash index plus whether it was created
/// automatically for a dependency determinant.  Auto indexes cannot be
/// dropped — the insert-time AD/FD checks probe them.  The index itself is
/// behind an [`Arc`] so readers can snapshot it (one refcount bump) and
/// probe lock-free while writers copy-on-write.
#[derive(Clone, Debug)]
pub(crate) struct StoredIndex {
    pub(crate) idx: Arc<HashIndex>,
    pub(crate) auto: bool,
}

impl StoredIndex {
    /// The index's catalog metadata; every figure is a maintained counter,
    /// so this costs the same whatever the index holds.
    fn info(&self) -> IndexInfo {
        IndexInfo {
            key: self.idx.key().clone(),
            distinct_keys: self.idx.distinct_keys(),
            len: self.idx.len(),
            partial_tuples: self.idx.partial_tuples().len(),
            auto: self.auto,
        }
    }
}

/// The index set of one relation.
pub(crate) type IndexSet = Vec<StoredIndex>;

/// Shared per-relation storage: partition catalog and index set, each under
/// its own lock (see the module docs for the hierarchy).
#[derive(Debug)]
pub(crate) struct RelStore {
    parts: RwLock<PartitionedHeap>,
    indexes: RwLock<IndexSet>,
}

impl RelStore {
    /// Builds a store around existing state (a new relation or recovered
    /// state).
    pub(crate) fn new(parts: PartitionedHeap, indexes: IndexSet) -> Self {
        RelStore {
            parts: RwLock::new(parts),
            indexes: RwLock::new(indexes),
        }
    }
}

/// Per-index catalog metadata: the key, cardinality statistics and whether
/// the index was auto-created for a dependency determinant.  Returned by
/// [`Database::indexes`] / [`Database::index_info`]; the optimizer's
/// cost model (index probe versus scan, the join-method gate, row
/// estimates) reads these statistics instead of touching the index itself.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexInfo {
    /// The indexed attribute set.
    pub key: AttrSet,
    /// Number of distinct key values currently indexed.
    pub distinct_keys: usize,
    /// Total number of indexed tuples (including partial ones).
    pub len: usize,
    /// Number of tuples not defined on the full key (reachable only through
    /// the partial-tuple list, never through an equality probe).
    pub partial_tuples: usize,
    /// Whether the index was auto-created for a dependency determinant.
    pub auto: bool,
}

impl IndexInfo {
    /// The expected number of matches of one equality probe: the average
    /// chain length over the key-bearing tuples,
    /// `(len − partial_tuples) / distinct_keys` (at least 1) — partial
    /// tuples are excluded because a probe can never return them.  This is
    /// the selectivity figure the index-nested-loop gate uses.
    pub fn avg_matches(&self) -> usize {
        let reachable = self.len - self.partial_tuples;
        reachable
            .checked_div(self.distinct_keys)
            .unwrap_or(1)
            .max(1)
    }
}

/// The shared state behind every [`Database`] handle.
#[derive(Debug, Default)]
struct DbInner {
    /// Copy-on-write catalog: readers grab the `Arc` (one refcount bump)
    /// and keep a consistent set of definitions for as long as they like.
    catalog: RwLock<Arc<Catalog>>,
    storage: RwLock<BTreeMap<String, Arc<RelStore>>>,
    /// The durability layer, when the database was opened from a directory
    /// ([`Database::open`]).  `None` keeps every pre-durability path — an
    /// in-memory database — entirely unchanged.
    dur: Option<Arc<Durability>>,
    /// Lazily-built per-partition column statistics, validated against
    /// partition mutation counts on every read (see [`crate::stats`]).
    stats: crate::stats::StatsCache,
}

/// Shared by the user's [`Database`] handles only — never by the
/// background checkpointer, which holds a [`Weak`] to [`DbInner`] and, for
/// the length of one checkpoint, a strong one.  Dropping the last handle
/// therefore drops this guard, which stops and joins the checkpointer: a
/// checkpoint in flight finishes before `drop` returns, so a reopen of the
/// directory never races its rename and segment deletion.
#[derive(Debug, Default)]
struct Checkpointer(Option<Arc<Durability>>);

impl Drop for Checkpointer {
    fn drop(&mut self) {
        if let Some(dur) = &self.0 {
            dur.shutdown();
        }
    }
}

/// What the last [`Database::open`] recovered — the replayed WAL tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Number of committed transactions replayed from the WAL tail.
    pub replayed_commits: usize,
    /// Whether a torn or corrupt WAL tail was truncated during replay.
    pub truncated: bool,
}

/// The durability side of an opened database: the WAL writer, the data
/// directory, and the background checkpoint thread's plumbing.
#[derive(Debug)]
struct Durability {
    dir: PathBuf,
    wal: WalWriter,
    fault: Arc<dyn IoFault>,
    checkpoint_bytes: u64,
    recovery: RecoveryInfo,
    /// Serializes checkpoints (the background thread vs. explicit
    /// [`Database::checkpoint_now`] vs. DDL barriers).
    ckpt_gate: Mutex<()>,
    stop: Mutex<bool>,
    stop_cond: Condvar,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Durability {
    /// Stops the background checkpoint thread and joins it, waiting out a
    /// checkpoint it is running.  Only [`Checkpointer`]'s drop calls this,
    /// never the checkpoint thread itself.
    fn shutdown(&self) {
        *lock(&self.stop) = true;
        self.stop_cond.notify_all();
        if let Some(h) = lock(&self.thread).take() {
            let _ = h.join();
        }
    }
}

/// Tuning knobs for [`Database::open_with`].
#[derive(Clone, Debug)]
pub struct DurabilityOptions {
    /// Batch concurrent commits into one `fdatasync` (the default).  When
    /// `false` every commit pays its own fsync — the baseline the benchmark
    /// suite compares group commit against.
    pub group_commit: bool,
    /// Rotate the WAL and write a checkpoint once this many bytes have been
    /// logged since the last one.
    pub checkpoint_bytes: u64,
    /// Run the background checkpoint thread.  Disable in tests that want
    /// full control over when checkpoints happen.
    pub background_checkpoint: bool,
    /// The I/O fault hook threaded through the WAL and checkpoint writers
    /// (see [`crate::fault`]); [`NoFault`] in production.
    pub fault: Arc<dyn IoFault>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            group_commit: true,
            checkpoint_bytes: 4 << 20,
            background_checkpoint: true,
            fault: Arc::new(NoFault),
        }
    }
}

/// The background checkpointer: wakes periodically, and once the WAL has
/// grown past the threshold takes a checkpoint.  Holds only a [`Weak`]
/// reference between checkpoints; the last user handle's drop stops and
/// joins it (see [`Checkpointer`]).
fn background_checkpoint_loop(weak: Weak<DbInner>, dur: Arc<Durability>) {
    loop {
        {
            let stop = lock(&dur.stop);
            let (stop, _) = dur
                .stop_cond
                .wait_timeout(stop, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner);
            if *stop {
                return;
            }
        }
        let Some(inner) = weak.upgrade() else { return };
        if !dur.wal.is_poisoned() && dur.wal.bytes_since_checkpoint() >= dur.checkpoint_bytes {
            // A failed checkpoint poisons the WAL; the next iteration's
            // check sees that and the loop idles until shutdown.
            let _ = inner.checkpoint();
        }
    }
}

/// An in-memory flexible-relation database, shareable across threads.
///
/// `Clone` is a cheap handle clone: all handles address the same shared
/// state.  See the [module docs](self) for the concurrency model.
#[derive(Clone, Debug, Default)]
pub struct Database {
    /// Declared first so it drops first: the checkpointer is joined before
    /// this handle lets go of the shared state.
    _checkpointer: Arc<Checkpointer>,
    inner: Arc<DbInner>,
}

/// The stored index on exactly `key`, if any.
fn index_on<'a>(indexes: &'a IndexSet, key: &AttrSet) -> Option<&'a Arc<HashIndex>> {
    indexes
        .iter()
        .find(|si| si.idx.key() == key)
        .map(|si| &si.idx)
}

/// Equality lookup on `key` under already-held locks: a probe of the stored
/// index on exactly `key` when there is one, otherwise a scan of the
/// partitions whose shape carries the whole key.  Tuples not defined on all
/// of `key` are never returned on either path.  Insert checking finds a
/// tuple's dependency peers the same way.
fn lookup_eq_in(
    parts: &PartitionedHeap,
    indexes: &IndexSet,
    key: &AttrSet,
    key_value: &Tuple,
) -> Vec<(Rid, Tuple)> {
    match index_on(indexes, key) {
        Some(idx) => idx
            .lookup(key_value)
            .iter()
            .filter_map(|rid| parts.get(*rid).map(|t| (*rid, t)))
            .collect(),
        None => parts
            .scan_where(|shape| key.is_subset(shape))
            .filter(|(_, t)| t.project(key) == *key_value)
            .collect(),
    }
}

/// Runs every check an insert of `t` must pass, mutating nothing — the
/// one check behind insert, update and [`Database::check_insert`].  Scheme
/// membership `attr(t) ∈ dnf(FS)` runs only when `t`'s shape has no live
/// partition: a partition opens only for an admitted shape and is dropped
/// with its last tuple.  Then come the domains and each dependency's own
/// check: an EAD on `t` alone, an AD or FD against the stored tuples that
/// agree with `t` on its determinant, except `skip`, the tuple an update
/// replaces.  A `t` not defined on the determinant has no such peers: the
/// pairwise premise of Defs. 4.1/4.2 requires `X ⊆ attr(u)` on both sides.
fn check_tuple(
    def: &RelationDef,
    parts: &PartitionedHeap,
    indexes: &IndexSet,
    t: &Tuple,
    skip: Option<Rid>,
) -> Result<()> {
    if parts.partition(t.shape_id()).is_none() && !def.scheme.admits(t.shape()) {
        return Err(CoreError::SchemeViolation {
            tuple_attrs: t.attrs().to_string(),
            scheme: def.scheme.to_string(),
        });
    }
    check_domains(&def.domains, t)?;
    let peers = |lhs: &AttrSet| -> Vec<Tuple> {
        if !t.defined_on(lhs) {
            return Vec::new();
        }
        lookup_eq_in(parts, indexes, lhs, &t.project(lhs))
            .into_iter()
            .filter(|(rid, _)| Some(*rid) != skip)
            .map(|(_, u)| u)
            .collect()
    };
    for dep in def.deps.iter() {
        match dep {
            Dependency::Ead(ead) => ead.check_tuple(t)?,
            Dependency::Ad(ad) => ad.check_insert_among(&peers(ad.lhs()), t)?,
            Dependency::Fd(fd) => fd.check_insert_among(&peers(fd.lhs()), t)?,
        }
    }
    Ok(())
}

/// Publishes a checked (or already committed) tuple: heap insert plus every
/// maintained index, opening the shape's partition when it has none.  Must
/// run with the partition and index write locks held together so readers
/// never observe the two out of sync.
fn apply_insert(parts: &mut PartitionedHeap, indexes: &mut IndexSet, t: &Tuple) -> Rid {
    let rid = parts.insert(t.shape_id(), t);
    for si in indexes.iter_mut() {
        Arc::make_mut(&mut si.idx).insert(rid, t);
    }
    rid
}

/// Removes a tuple from the heap and every maintained index.
fn apply_delete(parts: &mut PartitionedHeap, indexes: &mut IndexSet, rid: Rid) -> Option<Tuple> {
    let old = parts.delete(rid)?;
    for si in indexes.iter_mut() {
        Arc::make_mut(&mut si.idx).remove(rid, &old);
    }
    Some(old)
}

fn not_found(rid: Rid, relation: &str) -> CoreError {
    CoreError::NotFound(format!("tuple {} in {}", rid, relation))
}

/// Checks and inserts under already-held write locks.
fn checked_insert_in(
    def: &RelationDef,
    parts: &mut PartitionedHeap,
    indexes: &mut IndexSet,
    t: &Tuple,
) -> Result<Rid> {
    check_tuple(def, parts, indexes, t, None)?;
    Ok(apply_insert(parts, indexes, t))
}

/// Replaces the tuple under `rid` under already-held write locks.  The
/// replacement is checked *before* anything changes — against the instance
/// without the tuple it replaces — so a failing update changes nothing,
/// not even the rid of the tuple it leaves in place.
fn update_in(
    def: &RelationDef,
    parts: &mut PartitionedHeap,
    indexes: &mut IndexSet,
    rid: Rid,
    new: &Tuple,
    relation: &str,
) -> Result<(Rid, Tuple)> {
    if parts.get_ref(rid).is_none() {
        return Err(not_found(rid, relation));
    }
    check_tuple(def, parts, indexes, new, Some(rid))?;
    let old = apply_delete(parts, indexes, rid).ok_or_else(|| not_found(rid, relation))?;
    // Deleting `old` may drop the partition `new` is checked against; that
    // shape was admitted all the same, and `apply_insert` reopens it.
    Ok((apply_insert(parts, indexes, new), old))
}

/// Re-applies one logged operation under already-held write locks — the
/// one routine behind rollback (each logged op's [`WalOp::inverse`],
/// newest first) and recovery (the WAL's ops, oldest first).  Nothing is
/// re-checked: the op passed every check when it was first applied.
///
/// A delete or update target is located by `hint` when that rid still
/// holds an equal tuple, otherwise by value in its shape's partition: rids
/// drift when a partition is emptied and re-created, and are not stable
/// across a rebuild, but equal tuples are interchangeable in a multiset.
/// A target that cannot be found is reported through `missing`
/// ([`StorageError::Corruption`] in recovery, [`StorageError::Bug`] in
/// rollback).
pub(crate) fn replay(
    parts: &mut PartitionedHeap,
    indexes: &mut IndexSet,
    op: &WalOp,
    hint: Option<Rid>,
    missing: fn(String) -> StorageError,
) -> std::result::Result<(), StorageError> {
    let (target, new) = match op {
        WalOp::Insert { tuple, .. } => {
            apply_insert(parts, indexes, tuple);
            return Ok(());
        }
        WalOp::Delete { tuple, .. } => (tuple, None),
        WalOp::Update { old, new, .. } => (old, Some(new)),
    };
    let sid = target.shape_id();
    let rid = hint
        .filter(|rid| parts.get_ref(*rid).is_some_and(|r| r.eq_tuple(target)))
        .or_else(|| {
            let part = parts.partition(sid)?;
            let (loc, _) = part.tuple_refs().find(|(_, r)| r.eq_tuple(target))?;
            Some(Rid::new(sid, loc))
        })
        .ok_or_else(|| {
            missing(format!(
                "a logged op on {} names the tuple {}, which the relation does not hold",
                op.relation(),
                target
            ))
        })?;
    apply_delete(parts, indexes, rid);
    if let Some(new) = new {
        apply_insert(parts, indexes, new);
    }
    Ok(())
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Opens (or creates) a durable database in `dir` with the default
    /// [`DurabilityOptions`]: loads the latest checkpoint, replays the WAL
    /// tail, and resumes logging where the last process stopped.
    pub fn open(dir: impl AsRef<Path>) -> std::result::Result<Database, StorageError> {
        Database::open_with(dir, DurabilityOptions::default())
    }

    /// Opens (or creates) a durable database in `dir` with explicit
    /// durability options.  Recovery tolerates a torn final WAL record by
    /// truncating at the corruption point; structural damage beyond that is
    /// reported as [`StorageError::Corruption`], never panicked on.
    ///
    /// Dropping the last handle stops and joins the background
    /// checkpointer, waiting out a checkpoint it is running, and trims the
    /// open WAL segment to its written length: once `drop` returns, the
    /// directory can be reopened.
    pub fn open_with(
        dir: impl AsRef<Path>,
        opts: DurabilityOptions,
    ) -> std::result::Result<Database, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StorageError::Io(format!("create {}: {}", dir.display(), e)))?;
        let rec = crate::recovery::recover(&dir)?;
        let wal = WalWriter::resume(
            &dir,
            rec.resume_end,
            opts.group_commit,
            Arc::clone(&opts.fault),
        )?;
        let dur = Arc::new(Durability {
            dir,
            wal,
            fault: opts.fault,
            checkpoint_bytes: opts.checkpoint_bytes,
            recovery: RecoveryInfo {
                replayed_commits: rec.replayed_commits,
                truncated: rec.truncated,
            },
            ckpt_gate: Mutex::new(()),
            stop: Mutex::new(false),
            stop_cond: Condvar::new(),
            thread: Mutex::new(None),
        });
        let inner = Arc::new(DbInner {
            catalog: RwLock::new(Arc::new(rec.catalog)),
            storage: RwLock::new(rec.storage),
            dur: Some(Arc::clone(&dur)),
            stats: Default::default(),
        });
        if opts.background_checkpoint {
            let weak = Arc::downgrade(&inner);
            let dur2 = Arc::clone(&dur);
            let handle = std::thread::Builder::new()
                .name("flexrel-checkpoint".into())
                .spawn(move || background_checkpoint_loop(weak, dur2))
                .map_err(|e| StorageError::Io(format!("spawn checkpoint thread: {}", e)))?;
            *lock(&dur.thread) = Some(handle);
        }
        Ok(Database {
            _checkpointer: Arc::new(Checkpointer(Some(dur))),
            inner,
        })
    }

    /// Appends a committing transaction's log to the WAL, when the database
    /// is durable.  Buffers only — no I/O — so it can run under write
    /// locks; the matching [`Database::wal_sync`] call makes it durable
    /// after the locks drop.  Returns `None` when there is nothing to log
    /// (in-memory database, or an empty log).
    fn wal_append(&self, log: &[(Rid, WalOp)]) -> Result<Option<u64>> {
        match &self.inner.dur {
            Some(dur) if !log.is_empty() => dur
                .wal
                .append_commit(log.iter().map(|(_, op)| op))
                .map(Some)
                .map_err(StorageError::into_core),
            _ => Ok(None),
        }
    }

    /// What the open that produced this handle recovered from the WAL
    /// tail; `None` for in-memory databases.
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.inner.dur.as_ref().map(|d| d.recovery)
    }

    /// Waits until the WAL is durable up to `lsn` (group commit batches
    /// concurrent callers into one `fdatasync`).  No-op for `None`.
    fn wal_sync(&self, lsn: Option<u64>) -> Result<()> {
        match (&self.inner.dur, lsn) {
            (Some(dur), Some(lsn)) => dur.wal.sync_to(lsn).map_err(StorageError::into_core),
            _ => Ok(()),
        }
    }

    /// Takes a checkpoint now: captures a consistent cut of every relation,
    /// rotates the WAL, writes the image atomically, and deletes the WAL
    /// segments the new image supersedes.  Returns the cut LSN.
    ///
    /// Any failure (including injected faults) poisons the WAL — a failed
    /// checkpoint leaves the on-disk state ambiguous, so the database goes
    /// read-only until reopened.
    pub fn checkpoint_now(&self) -> std::result::Result<u64, StorageError> {
        self.inner.checkpoint()
    }
}

impl DbInner {
    /// [`Database::checkpoint_now`]; the background checkpointer calls it
    /// without a user handle.
    fn checkpoint(&self) -> std::result::Result<u64, StorageError> {
        let dur = self
            .dur
            .as_ref()
            .ok_or_else(|| StorageError::Bug("checkpoint_now on a non-durable database".into()))?;
        let _ckpt = lock(&dur.ckpt_gate);
        let (sources, cut) = self.with_cut(|catalog, rels| {
            let sources: Vec<CheckpointSource> = rels
                .into_iter()
                .filter_map(|(name, parts, indexes)| {
                    Some(CheckpointSource {
                        def: catalog.get(name).ok()?.clone(),
                        indexes: indexes
                            .iter()
                            .map(|si| (si.idx.key().clone(), si.auto))
                            .collect(),
                        snapshot: parts.snapshot(),
                    })
                })
                .collect();
            // Rotating inside the cut guarantees no transaction spans the
            // segment boundary, and the cut LSN covers exactly the state
            // just captured.
            dur.wal.rotate().map(|cut| (sources, cut))
        })?;
        match write_checkpoint(&dur.dir, cut, &sources, &dur.fault) {
            Ok(()) => {
                // Best effort: a segment that survives deletion is re-read
                // on the next open and its records skipped (all below the
                // checkpoint cut).
                let _ = dur.wal.delete_segments_below(cut);
                Ok(cut)
            }
            Err(e) => {
                dur.wal.poison();
                Err(e)
            }
        }
    }

    /// Runs `f` on a consistent cut of the whole database: the catalog and
    /// every relation's partitions and indexes, read-locked together in
    /// name order (the order [`Database::transact`] write-locks in) and
    /// held until `f` returns.  Writers hold their write locks for the
    /// whole transaction, so a concurrent multi-relation transaction is
    /// captured fully or not at all, and no relation can hold a tuple its
    /// indexes disagree with; the catalog guard keeps relations from being
    /// created or dropped meanwhile.  [`Database::checkpoint_now`] takes
    /// this cut.
    fn with_cut<R>(
        &self,
        f: impl FnOnce(&Arc<Catalog>, Vec<(&str, &PartitionedHeap, &IndexSet)>) -> R,
    ) -> R {
        let catalog = read(&self.catalog);
        let storage_map = read(&self.storage);
        let guards: Vec<_> = storage_map
            .iter()
            .map(|(name, store)| (name.as_str(), read(&store.parts), read(&store.indexes)))
            .collect();
        let rels = guards.iter().map(|(name, p, i)| (*name, &**p, &**i));
        f(&catalog, rels.collect())
    }
}

impl Database {
    /// DDL is not WAL-logged; a synchronous checkpoint right after each DDL
    /// statement makes it durable instead.  (The window between the DDL
    /// taking effect in memory and the checkpoint landing is the documented
    /// DDL durability window: replay skips operations on relations the
    /// checkpoint does not know.)
    fn ddl_barrier(&self) -> Result<()> {
        if self.inner.dur.is_some() {
            self.checkpoint_now().map_err(StorageError::into_core)?;
        }
        Ok(())
    }

    /// Revalidates every invariant the storage layer maintains: scheme
    /// admission per partition shape, the heap bookkeeping `replay` must
    /// keep (no live partition is empty; each partition's live count and
    /// the heap's total equal the tuples a scan finds), attribute domains
    /// per tuple, dependency satisfaction over the whole instance, and
    /// index consistency (every stored index equals a canonical rebuild).
    /// Used by the crash-recovery tests; cheap enough for assertions in
    /// small databases, O(instance) in general.
    pub fn verify_invariants(&self) -> std::result::Result<(), StorageError> {
        type Canonical = (BTreeMap<Tuple, Vec<Rid>>, Vec<Rid>);
        let canonical = |idx: &HashIndex| -> Canonical {
            let entries = idx.entries().map(|(k, rids)| {
                let mut rids = rids.to_vec();
                rids.sort_unstable();
                (k.clone(), rids)
            });
            let mut partial = idx.partial_tuples().to_vec();
            partial.sort_unstable();
            (entries.collect(), partial)
        };
        let catalog = self.catalog();
        let storage_map = read(&self.inner.storage);
        for (name, store) in storage_map.iter() {
            let bug = |what: String| StorageError::Bug(format!("relation {}: {}", name, what));
            let def = catalog.get(name).map_err(|_| bug("no definition".into()))?;
            let parts = read(&store.parts);
            let indexes = read(&store.indexes);
            let mut scanned = 0;
            for (_, part) in parts.partitions() {
                if !def.scheme.admits(part.shape()) {
                    return Err(bug(format!(
                        "partition shape {} not admitted",
                        part.shape()
                    )));
                }
                let live = part.tuple_refs().count();
                if live == 0 || part.len() != live {
                    return Err(bug(format!(
                        "partition {} counts {} live tuples but scans {}",
                        part.shape(),
                        part.len(),
                        live
                    )));
                }
                scanned += live;
            }
            if parts.len() != scanned {
                return Err(bug(format!(
                    "heap counts {} live tuples but scans {}",
                    parts.len(),
                    scanned
                )));
            }
            let tuples = parts.all_tuples();
            for t in &tuples {
                check_domains(&def.domains, t).map_err(StorageError::Constraint)?;
            }
            if let Some(dep) = def.deps.first_violation(&tuples) {
                return Err(bug(format!("dependency {:?} violated", dep)));
            }
            for si in indexes.iter() {
                let mut rebuilt = HashIndex::new(si.idx.key().clone());
                for (rid, t) in parts.scan() {
                    rebuilt.insert(rid, &t);
                }
                let (entries, partial) = canonical(&si.idx);
                let walked = entries.values().map(Vec::len).sum::<usize>() + partial.len();
                if si.idx.len() != walked {
                    return Err(bug(format!(
                        "index on {} counts {} entries but holds {}",
                        si.idx.key(),
                        si.idx.len(),
                        walked
                    )));
                }
                if (entries, partial) != canonical(&rebuilt) {
                    return Err(bug(format!(
                        "index on {} disagrees with a canonical rebuild",
                        si.idx.key()
                    )));
                }
            }
        }
        Ok(())
    }

    /// A consistent snapshot of the catalog of relation definitions (one
    /// refcount bump; the snapshot stays valid while relations are created
    /// or dropped concurrently).
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&read(&self.inner.catalog))
    }

    fn store(&self, relation: &str) -> Result<Arc<RelStore>> {
        read(&self.inner.storage)
            .get(relation)
            .cloned()
            .ok_or_else(|| CoreError::NotFound(format!("relation {}", relation)))
    }

    /// Creates a relation from a definition, building one hash index per
    /// distinct dependency determinant.
    pub fn create_relation(&self, def: RelationDef) -> Result<()> {
        let mut keys: Vec<AttrSet> = Vec::new();
        for dep in def.deps.iter() {
            let key = dep.lhs().clone();
            if !key.is_empty() && !keys.contains(&key) {
                keys.push(key);
            }
        }
        let indexes: IndexSet = keys
            .into_iter()
            .map(|k| StoredIndex {
                idx: Arc::new(HashIndex::new(k)),
                auto: true,
            })
            .collect();
        let name = def.name.clone();
        {
            // Catalog lock held across the registration *and* the storage-map
            // insert so concurrent create/drop of the same name serialize.
            let mut cat = write(&self.inner.catalog);
            let mut next = (**cat).clone();
            next.register(def)?;
            let store = RelStore::new(PartitionedHeap::new(), indexes);
            write(&self.inner.storage).insert(name, Arc::new(store));
            *cat = Arc::new(next);
        }
        self.ddl_barrier()
    }

    /// Drops a relation and its storage.
    pub fn drop_relation(&self, name: &str) -> Result<()> {
        {
            let mut cat = write(&self.inner.catalog);
            let mut next = (**cat).clone();
            next.drop(name)?;
            write(&self.inner.storage).remove(name);
            *cat = Arc::new(next);
            self.inner.stats.invalidate_relation(name);
        }
        self.ddl_barrier()
    }

    /// Creates a user-defined secondary hash index on `key`, backfilling it
    /// from the live instance.  Fails if an index on exactly this key (auto
    /// or secondary) already exists or if `key` is empty.
    pub fn create_index(&self, relation: &str, key: impl Into<AttrSet>) -> Result<()> {
        let key = key.into();
        if key.is_empty() {
            return Err(CoreError::Invalid(
                "cannot index the empty attribute set".into(),
            ));
        }
        let store = self.store(relation)?;
        {
            // The partition read lock keeps writers out (they write-lock it
            // for their whole transaction), so the backfill is complete;
            // readers continue against it.
            let parts = read(&store.parts);
            let mut indexes = write(&store.indexes);
            if indexes.iter().any(|si| si.idx.key() == &key) {
                return Err(CoreError::Invalid(format!(
                    "index on {} already exists for {}",
                    key, relation
                )));
            }
            indexes.push(StoredIndex {
                idx: Arc::new(HashIndex::build(key, &parts)),
                auto: false,
            });
        }
        self.ddl_barrier()
    }

    /// Drops the user-defined secondary index on exactly `key`.  Auto-created
    /// determinant indexes cannot be dropped — dependency checking probes
    /// them on every insert.
    pub fn drop_index(&self, relation: &str, key: &AttrSet) -> Result<()> {
        let store = self.store(relation)?;
        {
            let mut indexes = write(&store.indexes);
            let pos = indexes
                .iter()
                .position(|si| si.idx.key() == key)
                .ok_or_else(|| CoreError::NotFound(format!("index on {} for {}", key, relation)))?;
            if indexes[pos].auto {
                return Err(CoreError::Invalid(format!(
                    "index on {} for {} is a determinant index and cannot be dropped",
                    key, relation
                )));
            }
            indexes.remove(pos);
        }
        self.ddl_barrier()
    }

    /// Per-index metadata for a relation, in index-creation order (the
    /// auto-created determinant indexes first).
    pub fn indexes(&self, relation: &str) -> Result<Vec<IndexInfo>> {
        let store = self.store(relation)?;
        let indexes = read(&store.indexes);
        Ok(indexes.iter().map(StoredIndex::info).collect())
    }

    /// The most selective stored index an equality on all of `pinned` can
    /// probe: among the indexes whose key lies inside `pinned`, the one
    /// with the most distinct keys (ties to the longer key).  Only keys are
    /// compared; metadata is built for the winner alone.
    pub fn covering_index(&self, relation: &str, pinned: &AttrSet) -> Result<Option<IndexInfo>> {
        let store = self.store(relation)?;
        let indexes = read(&store.indexes);
        Ok(indexes
            .iter()
            .filter(|si| !si.idx.key().is_empty() && si.idx.key().is_subset(pinned))
            .max_by_key(|si| (si.idx.distinct_keys(), si.idx.key().len()))
            .map(StoredIndex::info))
    }

    /// Metadata of the index on exactly `key`, if one exists.
    pub fn index_info(&self, relation: &str, key: &AttrSet) -> Result<Option<IndexInfo>> {
        let store = self.store(relation)?;
        let indexes = read(&store.indexes);
        Ok(indexes
            .iter()
            .find(|si| si.idx.key() == key)
            .map(StoredIndex::info))
    }

    /// Number of live tuples in a relation.
    pub fn count(&self, relation: &str) -> Result<usize> {
        let store = self.store(relation)?;
        let n = read(&store.parts).len();
        Ok(n)
    }

    /// Validates a tuple against the relation's scheme, domains and
    /// dependencies (using the determinant indexes for the pairwise checks)
    /// without inserting it — the very check [`Database::insert`] runs, so
    /// the scheme test is skipped for a shape with a live partition.
    /// Purely advisory under concurrency: the verdict reflects the state at
    /// the moment of the check.
    pub fn check_insert(&self, relation: &str, t: &Tuple) -> Result<()> {
        let catalog = self.catalog();
        let def = catalog.get(relation)?;
        let store = self.store(relation)?;
        let parts = read(&store.parts);
        let indexes = read(&store.indexes);
        check_tuple(def, &parts, &indexes, t, None)
    }

    /// Inserts a tuple with full type checking (the scheme test runs for a
    /// shape without a live partition; see [`Database::check_insert`]): a
    /// one-statement [`Database::transact`].
    pub fn insert(&self, relation: &str, t: Tuple) -> Result<Rid> {
        self.transact(&[relation], |tx| tx.insert(relation, t))
    }

    /// Deletes a tuple by identifier, returning it: a one-statement
    /// [`Database::transact`].  Deleting the last tuple of a partition
    /// drops the partition.
    pub fn delete(&self, relation: &str, rid: Rid) -> Result<Tuple> {
        self.transact(&[relation], |tx| tx.delete(relation, rid))
    }

    /// Replaces the tuple under `rid` after re-checking all constraints
    /// against the rest of the instance: a one-statement
    /// [`Database::transact`].  The replacement may change the tuple's
    /// shape, in which case it moves to another partition (a *type change*
    /// in the sense of §3.1 footnote 3) under a *new* [`Rid`].
    ///
    /// Returns the replacement's identifier together with the previous
    /// tuple, so callers can still locate the tuple after a shape-changing
    /// update.  The replacement is checked before anything changes, so a
    /// failing update leaves the tuple, its rid and every index as they
    /// were.  Concurrent readers observe either the old or the new tuple,
    /// never neither.
    pub fn update(&self, relation: &str, rid: Rid, new: Tuple) -> Result<(Rid, Tuple)> {
        self.transact(&[relation], |tx| tx.update(relation, rid, new))
    }

    /// Reads the tuple stored under `rid`, if it is live.
    pub fn get(&self, relation: &str, rid: Rid) -> Result<Option<Tuple>> {
        let store = self.store(relation)?;
        let parts = read(&store.parts);
        Ok(parts.get(rid))
    }

    /// Scans all tuples of a relation, partition by partition, from one
    /// point-in-time snapshot.
    pub fn scan(&self, relation: &str) -> Result<Vec<(Rid, Tuple)>> {
        Ok(self.partition_snapshot(relation)?.scan().collect())
    }

    /// A point-in-time snapshot of the relation's partition catalog — the
    /// single source scans, metadata reads and pruning decisions of one
    /// query should share (see [`PartitionSnapshot`]).
    pub fn partition_snapshot(&self, relation: &str) -> Result<PartitionSnapshot> {
        let store = self.store(relation)?;
        let parts = read(&store.parts);
        Ok(parts.snapshot())
    }

    /// Per-partition metadata for a relation, in `ShapeId` order.
    pub fn partitions(&self, relation: &str) -> Result<Vec<crate::partition::PartitionInfo>> {
        Ok(self.partition_snapshot(relation)?.infos())
    }

    /// Per-partition column statistics for a relation (distinct counts and
    /// equi-depth histograms, see [`crate::stats`]), built lazily from the
    /// current partition snapshot and cached per partition.  A partition
    /// that has changed since its entry was built keeps serving it until
    /// the changed rows pass [`crate::stats::STATS_DRIFT`] of the rows the
    /// entry describes, so a write does not cost the next planned statement
    /// a rebuild.  The statistics are advisory — they feed the query
    /// layer's cost model and can never affect result correctness.
    pub fn table_stats(&self, relation: &str) -> Result<crate::stats::TableStats> {
        let snap = self.partition_snapshot(relation)?;
        Ok(self.inner.stats.table_stats(relation, &snap))
    }

    /// Equality lookup on an attribute set: uses the matching index (auto or
    /// secondary) when one exists, otherwise falls back to a shape-pruned
    /// scan.  `key_value` must be a tuple over exactly the attributes of
    /// `key`.  The index probe and the tuple fetches happen under one
    /// consistent lock acquisition.
    pub fn lookup_eq(
        &self,
        relation: &str,
        key: &AttrSet,
        key_value: &Tuple,
    ) -> Result<Vec<(Rid, Tuple)>> {
        let store = self.store(relation)?;
        let parts = read(&store.parts);
        let indexes = read(&store.indexes);
        Ok(lookup_eq_in(&parts, &indexes, key, key_value))
    }

    /// A snapshot of the stored hash index on exactly `key`, if one exists
    /// (one refcount bump).  Lets per-tuple probe loops (the
    /// index-nested-loop join) resolve the index once and then call
    /// [`HashIndex::lookup`] per probe without re-locking.
    pub fn index(&self, relation: &str, key: &AttrSet) -> Result<Option<Arc<HashIndex>>> {
        let store = self.store(relation)?;
        let indexes = read(&store.indexes);
        Ok(index_on(&indexes, key).cloned())
    }

    /// One atomic capture of a relation's partition snapshot *and* its
    /// index snapshots, taken under a single lock acquisition: every
    /// identifier an index yields resolves in the paired partition
    /// snapshot, and vice versa — never half of a statement.  The executor
    /// routes **all** reads of one query (scans, metadata for pruning and
    /// join bounds, index probes) through this capture, so a concurrent
    /// shape-creating insert can neither tear a stream nor desynchronize
    /// the plan's pruning decisions from the tuples read.
    ///
    /// Cost note: while the returned `Arc<HashIndex>` handles are alive,
    /// concurrent index maintenance copies at whole-index granularity
    /// (unlike the heap's per-segment copy-on-write).  Prefer
    /// [`Database::partition_snapshot`] when the reader will not probe
    /// indexes.
    pub fn relation_snapshot(
        &self,
        relation: &str,
    ) -> Result<(PartitionSnapshot, Vec<Arc<HashIndex>>)> {
        let store = self.store(relation)?;
        let parts = read(&store.parts);
        let indexes = read(&store.indexes);
        Ok((
            parts.snapshot(),
            indexes.iter().map(|si| Arc::clone(&si.idx)).collect(),
        ))
    }

    /// Whether an index on exactly this key exists for the relation.
    pub fn has_index(&self, relation: &str, key: &AttrSet) -> bool {
        self.index(relation, key)
            .map(|i| i.is_some())
            .unwrap_or(false)
    }

    /// Materializes a relation as a [`FlexRelation`] snapshot for the
    /// algebra and the query executor.
    pub fn snapshot(&self, relation: &str) -> Result<FlexRelation> {
        let catalog = self.catalog();
        let def = catalog.get(relation)?;
        let store = self.store(relation)?;
        let tuples = read(&store.parts).all_tuples();
        Ok(FlexRelation::from_parts(
            def.name.clone(),
            def.scheme.clone(),
            def.domains.clone(),
            def.deps.clone(),
            tuples,
        ))
    }

    /// Runs `f` as one atomic transaction over the declared `relations` —
    /// the one write path: [`Database::insert`], [`Database::delete`] and
    /// [`Database::update`] are one-statement transactions.
    ///
    /// The partition and index write locks of every declared relation are
    /// held for the whole call — acquired in name order, so concurrent
    /// transactions cannot deadlock — from the first constraint check
    /// through the WAL append.  That totally orders each relation's writes
    /// (the pairwise AD/FD checks need it) and gives full isolation:
    /// concurrent scanners observe either none or all of the transaction's
    /// effects.  If `f` returns an error (or panics), the operation log is
    /// replayed inverted, newest first, *before* the locks are released,
    /// restoring tuples, the partition catalog and all index contents
    /// exactly; on success the log is appended to the WAL and the effects
    /// become visible atomically when the locks drop.
    ///
    /// Operations inside the scope see the transaction's own uncommitted
    /// writes.  Accessing a relation that was not declared returns an
    /// error.
    pub fn transact<T, F>(&self, relations: &[&str], f: F) -> Result<T>
    where
        F: FnOnce(&mut TxnScope<'_>) -> Result<T>,
    {
        let catalog = self.catalog();
        // Resolve every declared relation — failing before locking anything
        // if one is unknown or has no definition (dropped concurrently) —
        // then lock them in name order.
        let mut stores: Vec<(&RelationDef, Arc<RelStore>)> = relations
            .iter()
            .map(|name| {
                let store = self.store(name)?;
                Ok((catalog.get(name)?, store))
            })
            .collect::<Result<_>>()?;
        stores.sort_unstable_by(|(a, _), (b, _)| a.name.cmp(&b.name));
        stores.dedup_by(|(a, _), (b, _)| a.name == b.name);
        let rels = stores.iter().map(|(def, s)| TxnRel {
            def,
            parts: write(&s.parts),
            indexes: write(&s.indexes),
        });
        let mut scope = TxnScope {
            rels: rels.collect(),
            log: Vec::new(),
        };
        match catch_unwind(AssertUnwindSafe(|| f(&mut scope))) {
            Ok(Ok(v)) => {
                // Log the whole transaction as one atomic WAL unit while
                // the write locks are still held (log order = apply order).
                // An append fails when the WAL was already poisoned or the
                // commit does not fit in one frame: nothing was logged, so
                // rolling back in memory keeps log and heap agreeing.
                let lsn = match self.wal_append(&scope.log) {
                    Ok(lsn) => lsn,
                    Err(e) => {
                        scope.rollback()?;
                        return Err(e);
                    }
                };
                drop(scope);
                // The fsync happens after every lock is released, so
                // concurrent transactions batch into one group commit.
                self.wal_sync(lsn)?;
                Ok(v)
            }
            Ok(Err(e)) => {
                scope.rollback()?;
                Err(e)
            }
            Err(payload) => {
                let _ = scope.rollback();
                resume_unwind(payload)
            }
        }
    }
}

/// The handle a [`Database::transact`] closure operates through: every
/// change is applied against write locks held for the whole transaction and
/// recorded in one operation log, so the outside world sees all-or-nothing.
pub struct TxnScope<'a> {
    /// The declared relations, in name order.
    rels: Vec<TxnRel<'a>>,
    /// The operation log: each applied op with the rid its result landed
    /// under (for a delete, the rid it emptied) — only a fast-path hint for
    /// rollback.  Commit appends the ops to the WAL; rollback replays their
    /// inverses newest-first.
    log: Vec<(Rid, WalOp)>,
}

/// One declared relation of a transaction: its definition and write guards.
struct TxnRel<'a> {
    def: &'a RelationDef,
    parts: RwLockWriteGuard<'a, PartitionedHeap>,
    indexes: RwLockWriteGuard<'a, IndexSet>,
}

impl TxnScope<'_> {
    fn slot(&self, relation: &str) -> Result<usize> {
        let found = self.rels.iter().position(|r| r.def.name == relation);
        found.ok_or_else(|| {
            CoreError::Invalid(format!(
                "relation {} was not declared by this transaction",
                relation
            ))
        })
    }

    /// Number of operations logged so far.
    pub fn pending_actions(&self) -> usize {
        self.log.len()
    }

    /// Inserts a tuple with full type checking (the transaction sees its
    /// own prior writes) and logs it.
    pub fn insert(&mut self, relation: &str, t: Tuple) -> Result<Rid> {
        let i = self.slot(relation)?;
        let rel = &mut self.rels[i];
        let rid = checked_insert_in(rel.def, &mut rel.parts, &mut rel.indexes, &t)?;
        let relation = relation.to_string();
        self.log.push((rid, WalOp::Insert { relation, tuple: t }));
        Ok(rid)
    }

    /// Deletes a tuple by identifier and logs it.
    pub fn delete(&mut self, relation: &str, rid: Rid) -> Result<Tuple> {
        let i = self.slot(relation)?;
        let rel = &mut self.rels[i];
        let old = apply_delete(&mut rel.parts, &mut rel.indexes, rid)
            .ok_or_else(|| not_found(rid, relation))?;
        let (relation, tuple) = (relation.to_string(), old.clone());
        self.log.push((rid, WalOp::Delete { relation, tuple }));
        Ok(old)
    }

    /// Replaces the tuple under `rid` (constraints re-checked first, shape
    /// changes move partitions) and logs it.  A failing update changes
    /// nothing.
    pub fn update(&mut self, relation: &str, rid: Rid, new: Tuple) -> Result<(Rid, Tuple)> {
        let i = self.slot(relation)?;
        let rel = &mut self.rels[i];
        let (new_rid, old) = update_in(
            rel.def,
            &mut rel.parts,
            &mut rel.indexes,
            rid,
            &new,
            relation,
        )?;
        let (relation, previous) = (relation.to_string(), old.clone());
        let op = WalOp::Update {
            relation,
            old: previous,
            new,
        };
        self.log.push((new_rid, op));
        Ok((new_rid, old))
    }

    /// Number of live tuples of a declared relation, *including* the
    /// transaction's own uncommitted writes.
    pub fn count(&self, relation: &str) -> Result<usize> {
        Ok(self.rels[self.slot(relation)?].parts.len())
    }

    /// Scans a declared relation, including the transaction's own
    /// uncommitted writes.
    pub fn scan(&self, relation: &str) -> Result<Vec<(Rid, Tuple)>> {
        Ok(self.rels[self.slot(relation)?].parts.scan().collect())
    }

    /// [`Database::lookup_eq`] inside the transaction: index first, pruned
    /// scan otherwise, under the write locks the scope already holds — so
    /// it sees the transaction's own uncommitted writes and nothing can
    /// change between the lookup and what the caller does with the rids.
    pub fn lookup_eq(
        &self,
        relation: &str,
        key: &AttrSet,
        key_value: &Tuple,
    ) -> Result<Vec<(Rid, Tuple)>> {
        let rel = &self.rels[self.slot(relation)?];
        Ok(lookup_eq_in(&rel.parts, &rel.indexes, key, key_value))
    }

    /// Undoes the transaction: replays every logged op's inverse, newest
    /// first.  Every op must find its target — the log says it is there —
    /// so a miss is reported as [`StorageError::Bug`] (after the rest of
    /// the log has still been undone).
    fn rollback(&mut self) -> Result<()> {
        let mut first_err = None;
        while let Some((hint, op)) = self.log.pop() {
            let op = op.inverse();
            let res = match self.rels.iter_mut().find(|r| r.def.name == op.relation()) {
                Some(r) => replay(
                    &mut r.parts,
                    &mut r.indexes,
                    &op,
                    Some(hint),
                    StorageError::Bug,
                ),
                None => Err(StorageError::Bug(format!("logged op on {}", op.relation()))),
            };
            first_err = first_err.or(res.err());
        }
        first_err.map_or(Ok(()), |e| Err(e.into_core()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::attrs;
    use flexrel_core::tuple::ShapeId;
    use flexrel_core::value::Value;
    use flexrel_workload::{
        employee_domains, employee_relation, generate_employees, EmployeeConfig,
    };

    fn employee_def() -> RelationDef {
        let rel = employee_relation();
        let mut def = RelationDef::new("employee", rel.scheme().clone());
        for (a, d) in employee_domains() {
            def = def.with_domain(a, d);
        }
        for dep in rel.deps().iter() {
            def = def.with_dep(dep.clone());
        }
        def
    }

    fn db_with_employees(n: usize) -> Database {
        let db = Database::new();
        db.create_relation(employee_def()).unwrap();
        for t in generate_employees(&EmployeeConfig::clean(n)) {
            db.insert("employee", t).unwrap();
        }
        db
    }

    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<PartitionSnapshot>();
        assert_send_sync::<crate::partition::SnapshotScan>();
        assert_send_sync::<Tuple>();
    }

    #[test]
    fn create_insert_count_scan() {
        let db = db_with_employees(50);
        assert_eq!(db.count("employee").unwrap(), 50);
        assert_eq!(db.scan("employee").unwrap().len(), 50);
        assert!(db.catalog().contains("employee"));
        assert!(db.count("nope").is_err());
    }

    #[test]
    fn storage_is_partitioned_by_shape() {
        let db = db_with_employees(120);
        let parts = db.partitions("employee").unwrap();
        assert_eq!(
            parts.len(),
            3,
            "three job types, three variant shapes: {:?}",
            parts
        );
        assert_eq!(
            parts.iter().map(|p| p.tuples).sum::<usize>(),
            120,
            "partitions cover the instance"
        );
        for p in &parts {
            assert!(p.shape.is_superset(&attrs!["empno", "jobtype"]));
            assert_eq!(p.shape_id.attrs(), p.shape);
        }
        // The live attribute union comes from partition metadata.
        let union = parts
            .iter()
            .fold(AttrSet::empty(), |acc, p| acc.union(&p.shape));
        assert!(union.is_superset(&attrs!["typing-speed", "sales-commission"]));
    }

    #[test]
    fn scan_where_prunes_by_shape() {
        let db = db_with_employees(90);
        let need = attrs!["typing-speed"];
        let secretaries: Vec<_> = db
            .partition_snapshot("employee")
            .unwrap()
            .retain_shapes(|s| need.is_subset(s))
            .scan()
            .map(|(_, t)| t)
            .collect();
        assert!(!secretaries.is_empty());
        assert!(secretaries
            .iter()
            .all(|t| t.get_name("jobtype") == Some(&Value::tag("secretary"))));
        let full = db.scan("employee").unwrap().len();
        assert!(secretaries.len() < full);
    }

    #[test]
    fn determinant_indexes_are_created_and_used() {
        let db = db_with_employees(100);
        assert!(db.has_index("employee", &attrs!["jobtype"]));
        assert!(db.has_index("employee", &attrs!["empno"]));
        assert!(!db.has_index("employee", &attrs!["salary"]));
        let secretaries = db
            .lookup_eq(
                "employee",
                &attrs!["jobtype"],
                &Tuple::new().with("jobtype", Value::tag("secretary")),
            )
            .unwrap();
        assert!(!secretaries.is_empty());
        assert!(secretaries
            .iter()
            .all(|(_, t)| t.get_name("jobtype") == Some(&Value::tag("secretary"))));
        // The returned rids locate the tuples.
        for (rid, t) in &secretaries {
            assert_eq!(db.get("employee", *rid).unwrap().as_ref(), Some(t));
        }
    }

    #[test]
    fn lookup_without_index_falls_back_to_scan() {
        let db = db_with_employees(30);
        let hits = db
            .lookup_eq(
                "employee",
                &attrs!["name"],
                &Tuple::new().with("name", "emp3"),
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn type_checking_is_enforced_on_insert() {
        let db = Database::new();
        db.create_relation(employee_def()).unwrap();
        let bad_variant = Tuple::new()
            .with("empno", 1)
            .with("name", "x")
            .with("salary", 1000.0)
            .with("jobtype", Value::tag("salesman"))
            .with("typing-speed", 200);
        assert!(matches!(
            db.insert("employee", bad_variant).unwrap_err(),
            CoreError::AdViolation { .. }
        ));
        let bad_key = generate_employees(&EmployeeConfig::clean(1)).pop().unwrap();
        db.insert("employee", bad_key.clone()).unwrap();
        let mut dup = bad_key;
        dup.insert("salary", Value::Float(1.0));
        assert!(matches!(
            db.insert("employee", dup).unwrap_err(),
            CoreError::FdViolation { .. }
        ));
    }

    /// Offers `t` to the database — [`Database::check_insert`], then
    /// [`Database::insert`] — and to the paper-level reference
    /// [`FlexRelation::insert`] (`CheckLevel::Full`, a plain tuple list
    /// checked in full).  All three must give the same verdict and the same
    /// [`CoreError`] variant.  Returns whether `t` was accepted.
    fn insert_like_reference(db: &Database, reference: &mut FlexRelation, t: Tuple) -> bool {
        let name = reference.name().to_string();
        let variant = |e: CoreError| std::mem::discriminant(&e);
        let want = reference.insert(t.clone()).map_err(variant);
        let checked = db.check_insert(&name, &t).map_err(variant);
        assert_eq!(checked, want, "check_insert disagrees on {}", t);
        let got = db.insert(&name, t.clone()).map(drop).map_err(variant);
        assert_eq!(got, want, "insert disagrees on {}", t);
        want.is_ok()
    }

    /// The database holds exactly the reference's tuples, one partition per
    /// distinct shape.
    fn assert_holds_the_reference(db: &Database, reference: &FlexRelation) {
        use std::collections::BTreeSet;
        let scan = db.scan(reference.name()).unwrap();
        let mut held: Vec<Tuple> = scan.into_iter().map(|(_, t)| t).collect();
        let mut want = reference.tuples().to_vec();
        held.sort();
        want.sort();
        assert_eq!(held, want);
        let shapes: BTreeSet<AttrSet> = want.iter().map(Tuple::attrs).collect();
        let parts = db.partitions(reference.name()).unwrap();
        let live: BTreeSet<AttrSet> = parts.into_iter().map(|p| p.shape).collect();
        assert_eq!(live, shapes);
        db.verify_invariants().unwrap();
    }

    #[test]
    fn employee_inserts_are_checked_like_the_paper_reference() {
        let db = Database::new();
        let def = employee_def();
        db.create_relation(def.clone()).unwrap();
        let mut reference =
            FlexRelation::from_parts("employee", def.scheme, def.domains, def.deps, Vec::new());
        let tuples = generate_employees(&EmployeeConfig::with_violations(400, 0.2));
        let accepted = tuples
            .into_iter()
            .filter(|t| insert_like_reference(&db, &mut reference, t.clone()))
            .count();
        assert!(accepted < 400, "the workload injected violations");
        assert_eq!(db.count("employee").unwrap(), accepted);
        assert_holds_the_reference(&db, &reference);
    }

    #[test]
    fn wide_inserts_are_checked_like_the_paper_reference() {
        use flexrel_workload::{generate_wide, wide_relation, WideConfig};
        // The relation has nine variants; the generated stream uses eight,
        // so shape {id, kind, v8} first appears inside a transaction that
        // rolls back.
        let mut reference = wide_relation(9);
        let db = Database::new();
        db.create_relation(RelationDef::from_relation(&reference))
            .unwrap();
        let wide = |id: i64, kind: &str, attrs: &[&str]| {
            attrs.iter().fold(
                Tuple::new().with("id", id).with("kind", Value::tag(kind)),
                |t, a| t.with(*a, id),
            )
        };
        let res = db.transact(&["wide"], |tx| {
            let mut inner = reference.clone();
            for t in [
                wide(9_000, "k8", &["v8"]),
                wide(9_001, "k0", &["v8"]),
                wide(9_002, "k8", &["v8", "v7"]),
                wide(9_000, "k7", &["v7"]),
            ] {
                let want = inner
                    .insert(t.clone())
                    .map_err(|e| std::mem::discriminant(&e));
                let got = tx.insert("wide", t.clone());
                assert_eq!(got.map(drop).map_err(|e| std::mem::discriminant(&e)), want);
            }
            assert_eq!(tx.count("wide")?, 1, "only the first tuple was admitted");
            Err::<(), _>(CoreError::Invalid("abort".into()))
        });
        assert!(res.is_err());
        assert_holds_the_reference(&db, &reference);
        let mut rejected = 0;
        for (i, t) in generate_wide(&WideConfig::new(600, 8))
            .into_iter()
            .enumerate()
        {
            let id = i as i64;
            let mixed_in = match i % 10 {
                // Scheme: two variant attributes, none, no kind.
                1 => Some(wide(id + 10_000, "k1", &["v1", "v2"])),
                3 => Some(wide(id + 10_000, "k3", &[])),
                5 => Some(Tuple::new().with("id", id + 10_000).with("v5", 5)),
                // EAD: a live shape carrying another kind's attribute.
                7 => Some(wide(id + 10_000, "k7", &["v0"])),
                // FD id → kind: a stored id under another kind.
                9 if i > 10 => Some(wide(id - 10, "k8", &["v8"])),
                // Domain: a kind outside the enumeration.
                4 => Some(wide(id + 10_000, "k99", &["v4"])),
                _ => None,
            };
            for t in std::iter::once(t).chain(mixed_in) {
                rejected += !insert_like_reference(&db, &mut reference, t) as usize;
            }
        }
        assert_eq!(rejected, 60 * 6 - 1, "every mixed-in tuple is rejected");
        assert_holds_the_reference(&db, &reference);
    }

    #[test]
    fn delete_and_update() {
        let db = db_with_employees(10);
        let (rid, t) = db.scan("employee").unwrap()[0].clone();
        let removed = db.delete("employee", rid).unwrap();
        assert_eq!(removed, t);
        assert_eq!(db.count("employee").unwrap(), 9);
        assert!(db.delete("employee", rid).is_err());

        // Update: change a salesman's jobtype without fixing the variant
        // attributes → rejected, original restored.
        let (rid, original) = db
            .scan("employee")
            .unwrap()
            .into_iter()
            .find(|(_, t)| t.get_name("jobtype") == Some(&Value::tag("salesman")))
            .unwrap();
        let mut broken = original.clone();
        broken.insert("jobtype", Value::tag("secretary"));
        assert!(db.update("employee", rid, broken).is_err());
        assert_eq!(db.count("employee").unwrap(), 9);
        let still_there = db
            .lookup_eq(
                "employee",
                &attrs!["empno"],
                &original.project(&attrs!["empno"]),
            )
            .unwrap();
        assert_eq!(still_there.len(), 1);
        assert_eq!(still_there[0].1, original);
    }

    #[test]
    fn update_can_change_shape_and_partition() {
        let db = db_with_employees(30);
        let before = db.partitions("employee").unwrap();
        let (rid, original) = db
            .scan("employee")
            .unwrap()
            .into_iter()
            .find(|(_, t)| t.get_name("jobtype") == Some(&Value::tag("secretary")))
            .unwrap();
        // A proper type change: secretary → salesman with adapted variant
        // attributes moves the tuple to the salesman partition.
        let mut changed = original.clone();
        changed.insert("jobtype", Value::tag("salesman"));
        changed.remove(&"typing-speed".into());
        changed.remove(&"foreign-languages".into());
        changed.insert("products", "crm");
        changed.insert("sales-commission", 5);
        let (new_rid, previous) = db.update("employee", rid, changed.clone()).unwrap();
        assert_eq!(previous, original, "the old tuple is returned");
        assert_ne!(new_rid, rid, "a shape change moves the tuple");
        assert_eq!(
            db.get("employee", new_rid).unwrap(),
            Some(changed.clone()),
            "the returned rid locates the moved tuple"
        );
        assert_eq!(db.get("employee", rid).unwrap(), None);
        let after = db.partitions("employee").unwrap();
        assert_eq!(before.len(), after.len());
        let count_for = |parts: &[crate::partition::PartitionInfo], shape: &AttrSet| {
            parts
                .iter()
                .find(|p| p.shape == *shape)
                .map(|p| p.tuples)
                .unwrap_or(0)
        };
        assert_eq!(
            count_for(&after, changed.shape()),
            count_for(&before, changed.shape()) + 1
        );
        assert_eq!(
            count_for(&after, original.shape()),
            count_for(&before, original.shape()) - 1
        );
    }

    #[test]
    fn snapshot_matches_storage() {
        let db = db_with_employees(25);
        let snap = db.snapshot("employee").unwrap();
        assert_eq!(snap.len(), 25);
        assert_eq!(snap.deps().len(), 2);
        assert!(snap.validate_instance().is_ok());
    }

    #[test]
    fn transact_rollback_restores_state() {
        let db = db_with_employees(5);
        let before = db.count("employee").unwrap();
        let (rid, _) = db.scan("employee").unwrap()[0].clone();
        let extra = generate_employees(&EmployeeConfig {
            n: 8,
            violation_rate: 0.0,
            seed: 99,
        });
        let res = db.transact(&["employee"], |tx| {
            for (i, mut t) in extra.into_iter().enumerate() {
                // Give fresh keys so the FD does not fire against existing rows.
                t.insert("empno", 1000 + i as i64);
                tx.insert("employee", t)?;
            }
            tx.delete("employee", rid)?;
            assert_eq!(tx.count("employee")?, before + 8 - 1);
            Err::<(), _>(CoreError::Invalid("abort".into()))
        });
        assert!(res.is_err());
        assert_eq!(db.count("employee").unwrap(), before);
    }

    #[test]
    fn transact_rollback_across_partitions_restores_heaps_and_shapes() {
        use std::collections::BTreeSet;
        // Start from a single-shape instance: two secretaries.
        let db = Database::new();
        db.create_relation(employee_def()).unwrap();
        let secretary = |empno: i64| {
            Tuple::new()
                .with("empno", empno)
                .with("name", format!("sec{}", empno))
                .with("salary", 4000.0 + empno as f64)
                .with("jobtype", Value::tag("secretary"))
                .with("typing-speed", 300)
                .with("foreign-languages", "french")
        };
        db.insert("employee", secretary(1)).unwrap();
        db.insert("employee", secretary(2)).unwrap();
        let parts_before = db.partitions("employee").unwrap();
        let tuples_before: BTreeSet<Tuple> = db
            .scan("employee")
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        assert_eq!(parts_before.len(), 1, "one shape before the load");

        // An aborted multi-tuple load spanning two *new* shapes (salesman
        // and software engineer) plus one more tuple of the existing shape.
        // Abort: both new partitions must vanish, and the surviving
        // partition must be byte-for-byte as before.
        let res = db.transact(&["employee"], |tx| {
            tx.insert(
                "employee",
                Tuple::new()
                    .with("empno", 10)
                    .with("name", "sal")
                    .with("salary", 5000.0)
                    .with("jobtype", Value::tag("salesman"))
                    .with("products", "crm")
                    .with("sales-commission", 7),
            )?;
            tx.insert(
                "employee",
                Tuple::new()
                    .with("empno", 11)
                    .with("name", "eng")
                    .with("salary", 6000.0)
                    .with("jobtype", Value::tag("software engineer"))
                    .with("products", "db")
                    .with("programming-languages", "rust"),
            )?;
            tx.insert("employee", secretary(12))?;
            let shapes: BTreeSet<ShapeId> = tx
                .scan("employee")?
                .iter()
                .map(|(rid, _)| rid.shape())
                .collect();
            assert_eq!(shapes.len(), 3, "the load opened two new partitions");
            Err::<(), _>(CoreError::Invalid("abort".into()))
        });
        assert!(res.is_err());
        let parts_after = db.partitions("employee").unwrap();
        assert_eq!(
            parts_after, parts_before,
            "partition catalog (shapes, counts) restored exactly"
        );
        let tuples_after: BTreeSet<Tuple> = db
            .scan("employee")
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        assert_eq!(tuples_after, tuples_before);

        // The next insert of a rolled-back shape reopens its partition.
        db.insert(
            "employee",
            Tuple::new()
                .with("empno", 20)
                .with("name", "sal2")
                .with("salary", 5100.0)
                .with("jobtype", Value::tag("salesman"))
                .with("products", "erp")
                .with("sales-commission", 9),
        )
        .unwrap();
        assert_eq!(db.partitions("employee").unwrap().len(), 2);
    }

    /// One canonicalized index: key, entry map with sorted rid sets, sorted
    /// partial list, auto flag.
    type CanonicalIndex = (
        AttrSet,
        std::collections::BTreeMap<Tuple, std::collections::BTreeSet<Rid>>,
        std::collections::BTreeSet<Rid>,
        bool,
    );

    /// A canonical, order-insensitive snapshot of every index of a relation.
    fn index_snapshot(db: &Database, relation: &str) -> Vec<CanonicalIndex> {
        let store = db.store(relation).unwrap();
        let indexes = read(&store.indexes);
        indexes
            .iter()
            .map(|si| {
                (
                    si.idx.key().clone(),
                    si.idx
                        .entries()
                        .map(|(k, v)| (k.clone(), v.iter().copied().collect()))
                        .collect(),
                    si.idx.partial_tuples().iter().copied().collect(),
                    si.auto,
                )
            })
            .collect()
    }

    #[test]
    fn secondary_index_lifecycle_and_stats() {
        let db = db_with_employees(60);
        // Auto indexes exist for the two determinants; none on name yet.
        let infos = db.indexes("employee").unwrap();
        assert_eq!(infos.len(), 2);
        assert!(infos.iter().all(|i| i.auto));
        assert!(!db.has_index("employee", &attrs!["name"]));

        // A secondary index is backfilled from the live instance.
        db.create_index("employee", attrs!["name"]).unwrap();
        assert!(db.has_index("employee", &attrs!["name"]));
        let info = db
            .index_info("employee", &attrs!["name"])
            .unwrap()
            .expect("just created");
        assert!(!info.auto);
        assert_eq!(info.len, 60, "backfill covered the instance");
        assert_eq!(info.distinct_keys, 60, "names are unique in the workload");
        assert_eq!(info.partial_tuples, 0, "every employee has a name");
        assert_eq!(info.avg_matches(), 1);

        // Lookups through the new index agree with the scan fallback result.
        let probe = Tuple::new().with("name", "emp7");
        let hits = db.lookup_eq("employee", &attrs!["name"], &probe).unwrap();
        assert_eq!(hits.len(), 1);

        // Inserts maintain the secondary index.
        let mut extra = generate_employees(&EmployeeConfig::clean(1)).pop().unwrap();
        extra.insert("empno", 777);
        extra.insert("name", "emp7");
        db.insert("employee", extra).unwrap();
        let hits = db.lookup_eq("employee", &attrs!["name"], &probe).unwrap();
        assert_eq!(hits.len(), 2, "duplicate names share one index entry");

        // Duplicate creation and dropping auto indexes are rejected.
        assert!(db.create_index("employee", attrs!["name"]).is_err());
        assert!(db.create_index("employee", AttrSet::empty()).is_err());
        assert!(db.drop_index("employee", &attrs!["empno"]).is_err());
        db.drop_index("employee", &attrs!["name"]).unwrap();
        assert!(!db.has_index("employee", &attrs!["name"]));
        assert!(db.drop_index("employee", &attrs!["name"]).is_err());
    }

    #[test]
    fn index_info_tracks_partial_tuples() {
        let db = db_with_employees(90);
        // typing-speed exists only on secretary-shaped tuples: the others are
        // reachable solely through the partial list.
        db.create_index("employee", attrs!["typing-speed"]).unwrap();
        let info = db
            .index_info("employee", &attrs!["typing-speed"])
            .unwrap()
            .unwrap();
        assert_eq!(info.len, 90);
        assert!(info.partial_tuples > 0);
        let (parts, indexes) = db.relation_snapshot("employee").unwrap();
        let key = attrs!["typing-speed"];
        let index = indexes.iter().find(|idx| idx.key() == &key).unwrap();
        let partial: Vec<Tuple> = index
            .partial_tuples()
            .iter()
            .filter_map(|rid| parts.get(*rid))
            .collect();
        assert_eq!(partial.len(), info.partial_tuples);
        assert!(partial.iter().all(|t| !t.has_name("typing-speed")));
        // A scan finds the same set on a wider key: name and salary are
        // universal, so only typing-speed decides.
        let wider = attrs!["name", "salary", "typing-speed"];
        let by_scan = parts.scan().filter(|(_, t)| !t.defined_on(&wider)).count();
        assert_eq!(by_scan, info.partial_tuples);
    }

    #[test]
    fn transact_update_rollback_restores_tuples_partitions_and_indexes() {
        let db = db_with_employees(30);
        // A secondary index participates in the restore as well.
        db.create_index("employee", attrs!["name"]).unwrap();
        let parts_before = db.partitions("employee").unwrap();
        let idx_before = index_snapshot(&db, "employee");
        let (rid, original) = db
            .scan("employee")
            .unwrap()
            .into_iter()
            .find(|(_, t)| t.get_name("jobtype") == Some(&Value::tag("secretary")))
            .unwrap();

        // A mid-transaction shape-changing update, then abort.
        let mut changed = original.clone();
        changed.insert("jobtype", Value::tag("salesman"));
        changed.remove(&"typing-speed".into());
        changed.remove(&"foreign-languages".into());
        changed.insert("products", "crm");
        changed.insert("sales-commission", 5);
        let mut new_rid = rid;
        let res = db.transact(&["employee"], |tx| {
            new_rid = tx.update("employee", rid, changed.clone())?.0;
            assert!(tx.scan("employee")?.contains(&(new_rid, changed)));
            assert_eq!(tx.pending_actions(), 1, "the update recorded its undo");
            Err::<(), _>(CoreError::Invalid("abort".into()))
        });
        assert!(res.is_err());
        assert_ne!(new_rid, rid, "the shape change moved the tuple");
        assert_eq!(
            db.partitions("employee").unwrap(),
            parts_before,
            "partition catalog restored"
        );
        assert_eq!(
            index_snapshot(&db, "employee"),
            idx_before,
            "index contents restored"
        );
        assert_eq!(db.get("employee", new_rid).unwrap(), None);
        let found = db
            .lookup_eq(
                "employee",
                &attrs!["empno"],
                &original.project(&attrs!["empno"]),
            )
            .unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1, original);
    }

    #[test]
    fn failed_update_restores_every_index_exactly() {
        let db = db_with_employees(40);
        db.create_index("employee", attrs!["name"]).unwrap();
        db.create_index("employee", attrs!["typing-speed"]).unwrap();
        let parts_before = db.partitions("employee").unwrap();
        let idx_before = index_snapshot(&db, "employee");
        let tuples_before: std::collections::BTreeSet<Tuple> = db
            .scan("employee")
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();

        // A shape-changing update that fails the EAD check: jobtype flips but
        // the variant attributes stay, so the replacement is rejected — and
        // nothing may have changed.
        let (rid, original) = db
            .scan("employee")
            .unwrap()
            .into_iter()
            .find(|(_, t)| t.get_name("jobtype") == Some(&Value::tag("secretary")))
            .unwrap();
        let mut broken = original.clone();
        broken.insert("jobtype", Value::tag("salesman"));
        assert!(db.update("employee", rid, broken).is_err());

        assert_eq!(db.partitions("employee").unwrap(), parts_before);
        assert_eq!(
            index_snapshot(&db, "employee"),
            idx_before,
            "every index (entries and partial lists) is byte-identical after the failure"
        );
        let tuples_after: std::collections::BTreeSet<Tuple> = db
            .scan("employee")
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        assert_eq!(tuples_after, tuples_before);
        // The tuple is still live under its original identifier.
        assert_eq!(db.get("employee", rid).unwrap(), Some(original));
    }

    /// `r(k, v)` with `k → v`, holding one tuple in slot 5 of its partition
    /// (slots 0–4 inserted and deleted): updating it empties the partition.
    fn lone_tuple_in_slot_five() -> (Database, Rid, Tuple) {
        use flexrel_core::dep::Fd;
        use flexrel_core::scheme::FlexScheme;
        use flexrel_core::tuple;
        use flexrel_core::value::Domain;
        let def = RelationDef::new("r", FlexScheme::relational(attrs!["k", "v"]))
            .with_domain("v", Domain::Int)
            .with_dep(Fd::new(attrs!["k"], attrs!["v"]));
        let db = Database::new();
        db.create_relation(def).unwrap();
        let rids: Vec<Rid> = (0..6)
            .map(|i| db.insert("r", tuple! {"k" => i, "v" => i}).unwrap())
            .collect();
        for rid in &rids[..5] {
            db.delete("r", *rid).unwrap();
        }
        (db, rids[5], tuple! {"k" => 5, "v" => 5})
    }

    /// A failed update changes nothing — not even the rid of the tuple it
    /// leaves in place, when removing it would empty its partition (a
    /// delete-then-restore re-creates the partition with fresh slots and
    /// moves the tuple to slot 0).  Both write surfaces.
    #[test]
    fn transact_and_autocommit_failed_update_changes_nothing() {
        use flexrel_core::tuple;
        let bad = tuple! {"k" => 5, "v" => "not an int"};
        let (db, rid, kept) = lone_tuple_in_slot_five();
        let err = db.update("r", rid, bad.clone()).unwrap_err();
        assert!(matches!(err, CoreError::DomainViolation { .. }), "{}", err);
        assert_eq!(db.get("r", rid).unwrap(), Some(kept.clone()));
        db.verify_invariants().unwrap();

        let (db, rid, kept) = lone_tuple_in_slot_five();
        let fixed = tuple! {"k" => 5, "v" => 6};
        let new_rid = db
            .transact(&["r"], |tx| {
                let err = tx.update("r", rid, bad).unwrap_err();
                assert!(matches!(err, CoreError::DomainViolation { .. }), "{}", err);
                let found = tx.lookup_eq("r", &attrs!["k"], &tuple! {"k" => 5})?;
                assert_eq!(found, vec![(rid, kept)]);
                assert_eq!(tx.pending_actions(), 0, "a failed update logs nothing");
                // A retry with the caller's rid finds the tuple.
                Ok(tx.update("r", rid, fixed.clone())?.0)
            })
            .unwrap();
        assert_eq!(db.get("r", new_rid).unwrap(), Some(fixed));
        db.verify_invariants().unwrap();
    }

    #[test]
    fn drop_relation_removes_storage() {
        let db = db_with_employees(3);
        db.drop_relation("employee").unwrap();
        assert!(db.scan("employee").is_err());
        assert!(db.drop_relation("employee").is_err());
    }

    #[test]
    fn clone_is_a_shared_handle() {
        let db = db_with_employees(5);
        let handle = db.clone();
        let mut extra = generate_employees(&EmployeeConfig::clean(1)).pop().unwrap();
        extra.insert("empno", 999);
        db.insert("employee", extra).unwrap();
        assert_eq!(handle.count("employee").unwrap(), 6, "handles share state");
        let (rid, _) = handle.scan("employee").unwrap()[0].clone();
        handle.delete("employee", rid).unwrap();
        assert_eq!(db.count("employee").unwrap(), 5);
    }

    #[test]
    fn snapshot_scans_are_isolated_from_concurrent_writes() {
        let db = db_with_employees(20);
        // Take the snapshot-backed iterator, then mutate heavily.
        let mut stream = db.partition_snapshot("employee").unwrap().scan();
        let first = stream.next().expect("non-empty");
        let rids: Vec<Rid> = db
            .scan("employee")
            .unwrap()
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        for rid in rids {
            db.delete("employee", rid).unwrap();
        }
        assert_eq!(db.count("employee").unwrap(), 0);
        // The open snapshot still yields all remaining original tuples.
        let rest: Vec<_> = stream.collect();
        assert_eq!(rest.len(), 19, "snapshot unaffected by deletes");
        let _ = first;
        // A fresh scan sees the empty state.
        assert!(db.scan("employee").unwrap().is_empty());
    }

    #[test]
    fn concurrent_inserts_from_many_threads_all_land() {
        let db = Database::new();
        db.create_relation(employee_def()).unwrap();
        const THREADS: usize = 4;
        const PER_THREAD: usize = 50;
        std::thread::scope(|s| {
            for w in 0..THREADS {
                let db = db.clone();
                s.spawn(move || {
                    let base = generate_employees(&EmployeeConfig::clean(PER_THREAD));
                    for (i, mut t) in base.into_iter().enumerate() {
                        t.insert("empno", (w * PER_THREAD + i) as i64 + 10_000);
                        t.insert("name", format!("w{}-{}", w, i));
                        db.insert("employee", t).unwrap();
                    }
                });
            }
        });
        assert_eq!(db.count("employee").unwrap(), THREADS * PER_THREAD);
        // Every rid is unique and resolvable, and the FD index is complete.
        let rows = db.scan("employee").unwrap();
        let rids: std::collections::BTreeSet<Rid> = rows.iter().map(|(r, _)| *r).collect();
        assert_eq!(rids.len(), THREADS * PER_THREAD);
        let info = db
            .index_info("employee", &attrs!["empno"])
            .unwrap()
            .unwrap();
        assert_eq!(info.len, THREADS * PER_THREAD);
        assert_eq!(info.distinct_keys, THREADS * PER_THREAD);
    }

    #[test]
    fn transact_commits_atomically_and_rolls_back_exactly() {
        let db = db_with_employees(10);
        let parts_before = db.partitions("employee").unwrap();
        let idx_before = index_snapshot(&db, "employee");
        let count_before = db.count("employee").unwrap();

        // A failing transaction: all inserted tuples vanish, partition
        // catalog and index contents are byte-identical.
        let err = db.transact(&["employee"], |tx| {
            let extra = generate_employees(&EmployeeConfig {
                n: 6,
                violation_rate: 0.0,
                seed: 7,
            });
            for (i, mut t) in extra.into_iter().enumerate() {
                t.insert("empno", 5000 + i as i64);
                t.insert("name", format!("tx{}", i));
                tx.insert("employee", t)?;
            }
            assert_eq!(tx.count("employee")?, count_before + 6);
            Err::<(), _>(CoreError::Invalid("abort".into()))
        });
        assert!(err.is_err());
        assert_eq!(db.count("employee").unwrap(), count_before);
        assert_eq!(db.partitions("employee").unwrap(), parts_before);
        assert_eq!(index_snapshot(&db, "employee"), idx_before);

        // A committing transaction: effects visible afterwards.
        let inserted = db
            .transact(&["employee"], |tx| {
                let mut t = generate_employees(&EmployeeConfig::clean(1)).pop().unwrap();
                t.insert("empno", 7777);
                t.insert("name", "committed");
                tx.insert("employee", t)
            })
            .unwrap();
        assert_eq!(
            db.get("employee", inserted)
                .unwrap()
                .unwrap()
                .get_name("name"),
            Some(&Value::from("committed"))
        );

        // Undeclared relations are rejected inside the scope.
        let res = db.transact(&["employee"], |tx| {
            tx.insert("nope", Tuple::new().with("x", 1))
        });
        assert!(res.is_err());
    }

    /// Emptying a partition mid-transaction discards its heap and free
    /// list; the rollback replay then re-creates it with fresh slot
    /// assignments, so the rids recorded for undone inserts and updates can
    /// name *different* tuples by the time their undo runs.  Rollback must
    /// locate the tuples by value, not trust the drifted rids.
    #[test]
    fn transact_update_and_delete_roll_back_with_rid_drift() {
        let db = Database::new();
        db.create_relation(employee_def()).unwrap();
        let secretary = |empno: i64| {
            Tuple::new()
                .with("empno", empno)
                .with("name", format!("sec{}", empno))
                .with("salary", 4000.0 + empno as f64)
                .with("jobtype", Value::tag("secretary"))
                .with("typing-speed", 300)
                .with("foreign-languages", "french")
        };
        let r1 = db.insert("employee", secretary(1)).unwrap();
        let r2 = db.insert("employee", secretary(2)).unwrap();
        let tuples = || -> std::collections::BTreeSet<Tuple> {
            let rows = db.scan("employee").unwrap();
            rows.into_iter().map(|(_, t)| t).collect()
        };
        let before = tuples();
        let parts_before = db.partitions("employee").unwrap();
        // Update then empty the partition inside the transaction, then fail.
        let res = db.transact(&["employee"], |tx| {
            let mut changed = secretary(1);
            changed.insert("salary", 1.0);
            let (new_rid, _) = tx.update("employee", r1, changed)?;
            tx.delete("employee", new_rid)?;
            tx.delete("employee", r2)?;
            assert_eq!(tx.count("employee")?, 0);
            Err::<(), _>(CoreError::Invalid("abort".into()))
        });
        assert!(res.is_err());
        assert_eq!(tuples(), before);
        assert_eq!(db.partitions("employee").unwrap(), parts_before);

        // Insert drift: insert t3, then delete everything (partition drops).
        // Rollback re-inserts t3, q2 and q1 into fresh slots, so the
        // insert's recorded rid points at q1 — deleting by rid would
        // destroy it.
        let res = db.transact(&["employee"], |tx| {
            let r3 = tx.insert("employee", secretary(3))?;
            tx.delete("employee", r1)?;
            tx.delete("employee", r2)?;
            tx.delete("employee", r3)?;
            assert_eq!(tx.count("employee")?, 0, "partition dropped");
            Err::<(), _>(CoreError::Invalid("abort".into()))
        });
        assert!(res.is_err());
        assert_eq!(tuples(), before, "the committed tuples survive the abort");
    }

    /// A unique scratch directory under the system temp dir; removed on
    /// drop so crash-looping tests do not accumulate state.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "flexrel-db-{}-{}-{:?}",
                tag,
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn quiet_options() -> DurabilityOptions {
        DurabilityOptions {
            background_checkpoint: false,
            ..DurabilityOptions::default()
        }
    }

    /// An auto-committed insert writes one commit frame, and a one-op
    /// `transact` writes the very same bytes — both checked against frames
    /// assembled here by hand.
    #[test]
    fn autocommit_and_one_op_transact_write_identical_wal_frames() {
        use flexrel_core::scheme::FlexScheme;
        use flexrel_core::tuple;
        // `[len u32][crc32 u32][payload]`, little-endian.
        let frame = |parts: &[&[u8]]| {
            let payload = parts.concat();
            let len = (payload.len() as u32).to_le_bytes();
            [
                &len[..],
                &crate::codec::crc32(&payload).to_le_bytes(),
                &payload,
            ]
            .concat()
        };
        let text = |s: &str| [&(s.len() as u32).to_le_bytes()[..], s.as_bytes()].concat();
        for through_txn in [false, true] {
            let tmp = TempDir::new(&format!("wal-bytes-{}", through_txn));
            let db = Database::open_with(&tmp.0, quiet_options()).unwrap();
            let def = RelationDef::new("r", FlexScheme::relational(attrs!["k", "v"]));
            db.create_relation(def).unwrap();
            let t = tuple! {"k" => 1, "v" => 2};
            if through_txn {
                db.transact(&["r"], |tx| tx.insert("r", t)).unwrap();
            } else {
                db.insert("r", t).unwrap();
            }
            drop(db);
            // The segment the DDL checkpoint rotated to, named by its cut.
            let (cut, path) = std::fs::read_dir(&tmp.0)
                .unwrap()
                .filter_map(|e| {
                    let path = e.unwrap().path();
                    let name = path.file_name()?.to_str()?;
                    Some((crate::wal::parse_segment_name(name)?, path))
                })
                .max()
                .unwrap();
            let expected = [
                // Checkpoint { lsn: cut } — the rotation marker.
                frame(&[&[8], &cut.to_le_bytes()]),
                // Commit, whose entries are
                frame(&[
                    &[9],
                    // DefineShape { local: 0, attrs: [k, v] } and
                    &[1],
                    &0u32.to_le_bytes(),
                    &2u32.to_le_bytes(),
                    &text("k"),
                    &text("v"),
                    // Insert { relation: r, shape 0, Int 1, Int 2 }.
                    &[2],
                    &text("r"),
                    &0u32.to_le_bytes(),
                    &[0],
                    &1i64.to_le_bytes(),
                    &[0],
                    &2i64.to_le_bytes(),
                ]),
            ]
            .concat();
            assert_eq!(
                std::fs::read(path).unwrap(),
                expected,
                "txn: {}",
                through_txn
            );
        }
    }

    #[test]
    fn durable_database_survives_reopen() {
        let tmp = TempDir::new("reopen");
        let rows = generate_employees(&EmployeeConfig::clean(40));
        {
            let db = Database::open_with(&tmp.0, quiet_options()).unwrap();
            db.create_relation(employee_def()).unwrap();
            for t in rows.clone() {
                db.insert("employee", t).unwrap();
            }
            let (rid, _) = db.scan("employee").unwrap()[0].clone();
            db.delete("employee", rid).unwrap();
        }
        let db = Database::open_with(&tmp.0, quiet_options()).unwrap();
        assert_eq!(db.count("employee").unwrap(), 39);
        assert!(db.recovery_info().unwrap().replayed_commits >= 40);
        db.verify_invariants().unwrap();
        // Determinant indexes are rebuilt and serve lookups.
        assert!(db.has_index("employee", &attrs!["empno"]));
        // The reopened database keeps accepting durable writes.
        let mut extra = generate_employees(&EmployeeConfig::clean(1)).pop().unwrap();
        extra.insert("empno", 424242);
        db.insert("employee", extra).unwrap();
        drop(db);
        let db = Database::open_with(&tmp.0, quiet_options()).unwrap();
        assert_eq!(db.count("employee").unwrap(), 40);
    }

    #[test]
    fn checkpoint_then_reopen_does_not_replay_old_wal() {
        let tmp = TempDir::new("ckpt");
        {
            let db = Database::open_with(&tmp.0, quiet_options()).unwrap();
            db.create_relation(employee_def()).unwrap();
            for t in generate_employees(&EmployeeConfig::clean(25)) {
                db.insert("employee", t).unwrap();
            }
            db.checkpoint_now().unwrap();
            // A couple of post-checkpoint commits form the WAL tail.
            for (i, mut t) in generate_employees(&EmployeeConfig::clean(2))
                .into_iter()
                .enumerate()
            {
                t.insert("empno", 77_000 + i as i64);
                db.insert("employee", t).unwrap();
            }
        }
        let db = Database::open_with(&tmp.0, quiet_options()).unwrap();
        assert_eq!(db.count("employee").unwrap(), 27);
        assert_eq!(db.recovery_info().unwrap().replayed_commits, 2);
        db.verify_invariants().unwrap();
    }

    #[test]
    fn transactions_recover_all_or_nothing() {
        let tmp = TempDir::new("txn");
        {
            let db = Database::open_with(&tmp.0, quiet_options()).unwrap();
            db.create_relation(employee_def()).unwrap();
            let rows = generate_employees(&EmployeeConfig::clean(6));
            db.transact(&["employee"], |tx| {
                for t in rows.clone() {
                    tx.insert("employee", t)?;
                }
                Ok(())
            })
            .unwrap();
            // An aborted transaction must leave no trace in the WAL.
            let more = generate_employees(&EmployeeConfig::clean(1));
            let res = db.transact(&["employee"], |tx| {
                for mut t in more.clone() {
                    t.insert("empno", 88_888);
                    tx.insert("employee", t)?;
                }
                Err::<(), _>(CoreError::Invalid("abort".into()))
            });
            assert!(res.is_err());
        }
        let db = Database::open_with(&tmp.0, quiet_options()).unwrap();
        assert_eq!(db.count("employee").unwrap(), 6);
        assert_eq!(db.recovery_info().unwrap().replayed_commits, 1);
        db.verify_invariants().unwrap();
    }

    #[test]
    fn a_panicked_transaction_does_not_wedge_the_database() {
        let db = db_with_employees(5);
        let before = db.count("employee").unwrap();
        let boom = catch_unwind(AssertUnwindSafe(|| {
            db.transact(&["employee"], |tx| {
                let extra = generate_employees(&EmployeeConfig::clean(1)).pop().unwrap();
                tx.insert("employee", extra)?;
                panic!("mid-transaction panic");
                #[allow(unreachable_code)]
                Ok(())
            })
        }));
        assert!(boom.is_err(), "the panic propagates to the caller");
        assert_eq!(
            db.count("employee").unwrap(),
            before,
            "the panicked transaction rolled back"
        );
        // The poisoned write locks recover: both a follow-up
        // transaction and a plain insert succeed.
        db.transact(&["employee"], |tx| {
            let mut t = generate_employees(&EmployeeConfig::clean(1)).pop().unwrap();
            t.insert("empno", 55_001);
            tx.insert("employee", t)?;
            Ok(())
        })
        .unwrap();
        let mut t = generate_employees(&EmployeeConfig::clean(1)).pop().unwrap();
        t.insert("empno", 55_002);
        db.insert("employee", t).unwrap();
        assert_eq!(db.count("employee").unwrap(), before + 2);
        db.verify_invariants().unwrap();
    }

    /// A checkpoint stores live rows only, as column blocks.  A reopen from
    /// the image alone gives back the same multiset, bit for bit: deleted
    /// rows stay deleted, an `Int` column that a later string promoted to a
    /// dictionary keeps both kinds, and `-0.0`, NaN, short and long strings
    /// and tuples of the empty shape all survive.
    #[test]
    fn checkpoint_blocks_round_trip_through_a_reopen() {
        use flexrel_core::scheme::FlexScheme;
        use flexrel_core::tuple;
        let tmp = TempDir::new("ckpt-blocks");
        // Every subset of {f, n, s} is a shape, the empty one included.
        let scheme = FlexScheme::new(0, 3, ["f", "n", "s"]).unwrap();
        let bag = |db: &Database| {
            let mut rows: Vec<String> = db
                .scan("r")
                .unwrap()
                .iter()
                .map(|(_, t)| format!("{t:?}"))
                .collect();
            rows.sort();
            rows
        };
        let before = {
            let db = Database::open_with(&tmp.0, quiet_options()).unwrap();
            db.create_relation(RelationDef::new("r", scheme)).unwrap();
            db.transact(&["r"], |tx| {
                for i in 0..1500i64 {
                    let f = [-0.0, f64::NAN, 0.0, i as f64 / 7.0][i as usize % 4];
                    let s = match i % 3 {
                        0 => Value::str(format!("s{}", i % 5)),
                        _ => Value::str(format!("a string too long to inline {}", i % 13)),
                    };
                    tx.insert(
                        "r",
                        match i % 4 {
                            0 => tuple! {"n" => i, "f" => f, "s" => s},
                            1 => tuple! {"n" => i, "f" => f},
                            2 => tuple! {"s" => s},
                            _ => Tuple::empty(),
                        },
                    )?;
                }
                // A later string promotes the segment's `n` to a dictionary.
                tx.insert("r", tuple! {"n" => Value::str("n"), "f" => 1.5})?;
                Ok(())
            })
            .unwrap();
            let doomed: Vec<Rid> = db
                .scan("r")
                .unwrap()
                .iter()
                .step_by(3)
                .map(|(rid, _)| *rid)
                .collect();
            db.transact(&["r"], |tx| {
                doomed
                    .iter()
                    .try_for_each(|rid| tx.delete("r", *rid).map(drop))
            })
            .unwrap();
            db.checkpoint_now().unwrap();
            bag(&db)
        };
        assert_eq!(before.len(), 1501 - 501);
        let db = Database::open_with(&tmp.0, quiet_options()).unwrap();
        assert_eq!(db.recovery_info().unwrap().replayed_commits, 0);
        assert_eq!(bag(&db), before);
        db.verify_invariants().unwrap();
    }

    /// A checkpoint partition whose shape the relation's scheme does not
    /// admit — a forged image, re-sealed under a valid CRC — is refused as
    /// `Corruption`: an insert into a live partition skips the scheme
    /// test, so a shape from disk is checked when it is loaded.
    #[test]
    fn a_checkpoint_partition_of_an_unadmitted_shape_is_corruption() {
        use flexrel_core::scheme::FlexScheme;
        use flexrel_core::tuple;
        let tmp = TempDir::new("ckpt-shape");
        {
            let db = Database::open_with(&tmp.0, quiet_options()).unwrap();
            // Exactly one of the two attributes.
            let scheme = FlexScheme::new(1, 1, ["pmember", "qmember"]).unwrap();
            db.create_relation(RelationDef::new("r", scheme)).unwrap();
            db.insert("r", tuple! {"pmember" => 1}).unwrap();
            db.checkpoint_now().unwrap();
        }
        let path = tmp.0.join(crate::checkpoint::CHECKPOINT_FILE);
        let image = std::fs::read(&path).unwrap();
        // The scheme names `pmember` first; its last mention is the shape.
        let at = image.windows(7).rposition(|w| w == b"pmember").unwrap();
        let mut forged = image.clone();
        forged[at..at + 7].copy_from_slice(b"zmember");
        let crc = crate::codec::crc32(&forged[20..]);
        forged[16..20].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &forged).unwrap();
        let err = Database::open_with(&tmp.0, quiet_options()).expect_err("shape {zmember}");
        assert!(err.is_corruption(), "{err}");
        assert!(err.to_string().contains("{zmember}"), "{err}");
        // The image as written still opens.
        std::fs::write(&path, &image).unwrap();
        let db = Database::open_with(&tmp.0, quiet_options()).unwrap();
        assert_eq!(db.count("r").unwrap(), 1);
        db.verify_invariants().unwrap();
    }

    /// A checkpoint image with forged blocks, re-sealed under a valid CRC
    /// so that the bytes reach the block decoder, is refused by `open_with`
    /// as `Corruption`, never a panic.
    #[test]
    fn forged_checkpoint_blocks_are_corruption() {
        use crate::column::ColumnHeap;
        use flexrel_core::scheme::FlexScheme;
        use flexrel_core::tuple;
        let tmp = TempDir::new("ckpt-forged");
        let rows = ["a", "b", "c"].map(|s| tuple! {"s" => Value::str(s)});
        {
            let db = Database::open_with(&tmp.0, quiet_options()).unwrap();
            db.create_relation(RelationDef::new("r", FlexScheme::relational(attrs!["s"])))
                .unwrap();
            db.transact(&["r"], |tx| {
                rows.iter()
                    .try_for_each(|t| tx.insert("r", t.clone()).map(drop))
            })
            .unwrap();
            db.checkpoint_now().unwrap();
        }
        let path = tmp.0.join(crate::checkpoint::CHECKPOINT_FILE);
        let image = std::fs::read(&path).unwrap();
        // The image ends with the one partition's blocks.
        let mut heap = ColumnHeap::new(attrs!["s"]);
        for t in &rows {
            heap.insert(t);
        }
        let mut blocks = Vec::new();
        heap.write_blocks(&mut blocks);
        assert!(image.ends_with(&blocks));
        // `[n_blocks][len][DICT][pool_len]`, the pool, then three codes.
        let at = image.len() - blocks.len();
        for (label, offset, word) in [
            ("an empty block", at + 4, 0u32),
            (
                "a block past a segment",
                at + 4,
                crate::heap::SEGMENT_SIZE as u32 + 1,
            ),
            ("a pool longer than its block", at + 9, 4),
            ("a code past its pool", image.len() - 4, 3),
        ] {
            let mut forged = image.clone();
            forged[offset..offset + 4].copy_from_slice(&word.to_le_bytes());
            // `magic(8) ‖ version(4) ‖ [len][crc] ‖ body`: re-seal the CRC.
            let crc = crate::codec::crc32(&forged[20..]);
            forged[16..20].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, &forged).unwrap();
            let err = Database::open_with(&tmp.0, quiet_options()).expect_err(label);
            assert!(err.is_corruption(), "{label}: {err}");
        }
    }
}
