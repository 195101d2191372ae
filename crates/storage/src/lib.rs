//! # flexrel-storage
//!
//! An in-memory storage substrate for flexible relations: a catalog of
//! relation definitions, **shape-partitioned** heap tuple storage (one
//! segment heap per distinct `attr(t)`, keyed by the interned
//! [`ShapeId`](flexrel_core::tuple::ShapeId)), hash indexes over attribute
//! sets (notably the determining attributes of the declared ADs) and a
//! [`Database`] facade that enforces
//! scheme, domain and dependency constraints on every write — the
//! operational side of §3.1's "they can now be exploited operationally".
//!
//! Within each partition, storage is **column-major** ([`mod@column`]): one
//! typed column vector per attribute of the shape (dictionary-encoded for
//! strings/tags), in canonical `AttrSet` order, chunked into copy-on-write
//! `Arc` segments with per-segment selection-vector scan kernels.  Because
//! a partition holds exactly one shape, its columns are dense — the
//! paper's no-nulls argument made physical: shape membership carries all
//! presence information, so the kernels have no null bitmap.
//!
//! Partitioning by shape makes the DNF structure of the scheme
//! (`dnf(FS)`, [`FlexScheme::dnf`](flexrel_core::scheme::FlexScheme::dnf))
//! physical: each partition is a homogeneous fragment satisfying exactly one
//! disjunct, a live partition stands for its shape's admission (an insert
//! into it skips the scheme test; its dependency checks still run), and
//! scans can skip partitions whose shape cannot satisfy a query
//! ([`PartitionSnapshot::retain_shapes`](partition::PartitionSnapshot::retain_shapes)).
//!
//! The query engine (`flexrel-query`) plans and executes against this crate;
//! the algebra (`flexrel-algebra`) operates on materialized
//! [`FlexRelation`](flexrel_core::relation::FlexRelation) snapshots obtained
//! via [`Database::snapshot`].
//!
//! The [`Database`] is **concurrent**: it is a cheap cloneable handle onto
//! `Send + Sync` shared state with per-relation reader/writer lock sharding
//! (partition-catalog lock, index-set lock), point-in-time
//! [`PartitionSnapshot`] scans that never hold a lock while streaming, and
//! one write path: the atomic transaction scope
//! ([`Database::transact`]/[`TxnScope`], of which the auto-committed
//! writes are one-statement instances) whose rollback restores tuples,
//! partition catalog and indexes exactly.  See the [`db`] module docs for
//! the lock hierarchy.
//!
//! The storage is optionally **durable**: [`Database::open`] attaches a
//! write-ahead log with group commit ([`mod@wal`]), periodic checkpoints
//! that store each partition's live rows as column blocks
//! ([`mod@checkpoint`]) and crash recovery ([`mod@recovery`]) that loads the latest checkpoint
//! and replays the WAL tail, tolerating a torn final record.  Every I/O
//! boundary routes through the [`fault::IoFault`] hook, so the test suite
//! can run a deterministic crash-point sweep over the whole write path.

#![deny(missing_docs)]

pub mod catalog;
pub mod checkpoint;
pub mod codec;
pub mod column;
pub mod db;
pub mod errors;
pub mod fault;
pub mod heap;
pub mod index;
pub mod partition;
pub mod recovery;
pub mod stats;
pub mod wal;

pub use catalog::{Catalog, RelationDef};
pub use column::{ColCmp, ColKind, ColumnHeap, ColumnSegment, SelVec, TupleRef};
pub use db::{Database, DurabilityOptions, IndexInfo, RecoveryInfo, TxnScope};
pub use errors::StorageError;
pub use fault::{CountingFault, FaultAction, IoEvent, IoFault, NoFault, NthEventFault};
pub use heap::TupleId;
pub use index::HashIndex;
pub use partition::{
    Partition, PartitionInfo, PartitionSnapshot, PartitionedHeap, Rid, SnapshotScan,
};
pub use stats::{ColumnStats, Histogram, PartitionStats, TableStats, STATS_DRIFT};
pub use wal::{RecordDecoder, RecordEncoder, WalOp, WalRecord, WalWriter};
