//! Shape-partitioned heap storage.
//!
//! A flexible relation's instance is the union of homogeneous *fragments*:
//! every tuple's attribute set `attr(t)` is one disjunct of the scheme's DNF
//! (`attr(t) ∈ dnf(FS)`, §2.1), and the attribute dependencies constrain
//! which disjuncts can carry which determining values.  This module stores
//! each relation physically in that shape: one column-major segment heap
//! ([`ColumnHeap`]) per distinct tuple shape, keyed by the interned
//! [`ShapeId`] that
//! [`Tuple::shape_id`](flexrel_core::tuple::Tuple::shape_id) yields.
//!
//! Partitioning buys four things:
//!
//! * **Partition pruning** — a scan that needs attributes `X` present (a
//!   type guard, or a selection whose predicate requires them) visits only
//!   the partitions whose shape contains `X`; the query optimizer pushes
//!   such shape predicates into `Scan` nodes (`flexrel-query`).
//! * **Admission by partition** — a partition opens only for a tuple whose
//!   shape passed the scheme-membership test `attr(t) ∈ dnf(FS)`, and it is
//!   dropped with its last tuple, so a live partition proves its shape was
//!   admitted: an insert into it skips that test.  The dependency checks
//!   run for every tuple (see [`crate::db`]).
//! * **Cheap shape metadata** — the set of live shapes (and their union) is
//!   maintained incrementally, so the executor can derive join/projection
//!   attribute sets from partition metadata instead of folding over tuples.
//! * **Columnar layout** — every tuple of a partition is defined on exactly
//!   the partition's shape, so the heap stores one typed column per
//!   attribute with no per-row null handling and evaluates predicates
//!   vectorized (see [`crate::column`]).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use flexrel_core::attr::AttrSet;
use flexrel_core::tuple::{ShapeId, Tuple};

use crate::column::{ColumnHeap, TupleRef};
use crate::heap::TupleId;

/// A stable identifier of a tuple stored in a shape-partitioned relation:
/// the partition's [`ShapeId`] plus the tuple's [`TupleId`] inside that
/// partition's segment heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rid {
    shape: ShapeId,
    loc: TupleId,
}

impl Rid {
    /// Builds a record identifier from its parts.
    pub fn new(shape: ShapeId, loc: TupleId) -> Self {
        Rid { shape, loc }
    }

    /// The partition (shape) this tuple lives in.
    pub fn shape(&self) -> ShapeId {
        self.shape
    }

    /// The position inside the partition's segment heap.
    pub fn loc(&self) -> TupleId {
        self.loc
    }
}

impl fmt::Display for Rid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.shape, self.loc)
    }
}

/// One heap partition: all live tuples of a single shape.
#[derive(Clone, Debug)]
pub struct Partition {
    heap: ColumnHeap,
    mutations: u64,
}

impl Partition {
    /// Wraps a heap — a fresh one, or one decoded from a checkpoint image —
    /// as a partition of the heap's shape.
    pub(crate) fn from_heap(heap: ColumnHeap) -> Self {
        Partition { heap, mutations: 0 }
    }

    /// Records one insert or delete.
    fn touch(&mut self) {
        self.mutations += 1;
    }

    /// The shape (`attr(t)`) shared by every tuple of the partition.
    pub fn shape(&self) -> &AttrSet {
        self.heap.shape()
    }

    /// How many inserts and deletes the partition has absorbed since it was
    /// opened (updates and rollbacks go through those).  The difference of
    /// two readings counts *this* partition's changed rows, which is what
    /// the statistics cache measures drift in; pointer identity of the
    /// enclosing `Arc` is no substitute, because copy-on-write mutates in
    /// place at refcount one.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }

    /// Number of live tuples in the partition.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the partition holds no live tuple.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The partition's column-major tuple storage — the entry point for
    /// vectorized scans ([`ColumnHeap::segments`],
    /// [`ColumnSegment::cmp_bitmap`](crate::column::ColumnSegment::cmp_bitmap)).
    pub fn columns(&self) -> &ColumnHeap {
        &self.heap
    }

    /// Iterates over the partition's live tuples as zero-copy views.
    pub fn tuple_refs(&self) -> impl Iterator<Item = (TupleId, TupleRef<'_>)> + '_ {
        self.heap.scan()
    }

    /// Iterates over the partition's live tuples, materialized.
    pub fn tuples(&self) -> impl Iterator<Item = (TupleId, Tuple)> + '_ {
        self.heap.scan().map(|(tid, r)| (tid, r.to_tuple()))
    }
}

/// Per-partition catalog metadata: the shape and its live tuple count.
/// Returned by [`Database::partitions`](crate::db::Database::partitions) and
/// [`PartitionSnapshot::infos`]; the optimizer's pruning pass and the
/// executor's cost gates consume these instead of touching tuples.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionInfo {
    /// The interned shape id (the partition key).
    pub shape_id: ShapeId,
    /// The shape `attr(t)` shared by every tuple of the partition.
    pub shape: AttrSet,
    /// Number of live tuples in the partition.
    pub tuples: usize,
}

/// A shape-partitioned heap: one segment [`ColumnHeap`] per distinct live tuple
/// shape, keyed by [`ShapeId`].
///
/// Partitions are created lazily on the first insert of a shape and dropped
/// as soon as their last tuple is deleted — so the partition set always
/// reflects exactly the live shapes, and a live partition proves that its
/// shape passed the scheme check when the partition opened.  Rolling back a
/// transaction therefore restores not only the tuples but the partition
/// structure as well.
///
/// Each partition sits behind an [`Arc`]: taking a [`PartitionSnapshot`] is
/// a handful of refcount bumps, and a write that lands while a snapshot is
/// alive copies (via [`Arc::make_mut`] down to the segment level, see
/// [`crate::heap`]) only what it touches — snapshots are immutable.
#[derive(Clone, Debug, Default)]
pub struct PartitionedHeap {
    parts: BTreeMap<ShapeId, Arc<Partition>>,
    live: usize,
}

impl PartitionedHeap {
    /// Creates an empty partitioned heap.
    pub fn new() -> Self {
        PartitionedHeap::default()
    }

    /// Total number of live tuples across all partitions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no partition holds a live tuple.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of live partitions (distinct shapes).
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// The partition for a shape, if any tuple of that shape is live.
    pub fn partition(&self, shape: ShapeId) -> Option<&Partition> {
        self.parts.get(&shape).map(|p| &**p)
    }

    /// Iterates over the live partitions in `ShapeId` order.
    pub fn partitions(&self) -> impl Iterator<Item = (ShapeId, &Partition)> + '_ {
        self.parts.iter().map(|(sid, p)| (*sid, &**p))
    }

    /// An immutable point-in-time view of every live partition (cheap: one
    /// refcount bump per partition).  The snapshot never changes, no matter
    /// what writers do afterwards — the foundation of torn-read-free scans.
    pub fn snapshot(&self) -> PartitionSnapshot {
        PartitionSnapshot {
            parts: self
                .parts
                .iter()
                .map(|(sid, p)| (*sid, Arc::clone(p)))
                .collect(),
        }
    }

    /// Rebuilds a partitioned heap from recovered partitions (checkpoint
    /// load).  The live total is recomputed; empty partitions are dropped,
    /// preserving the live-shapes-only invariant.
    pub(crate) fn from_parts(parts: impl IntoIterator<Item = Partition>) -> Self {
        let mut h = PartitionedHeap::new();
        for p in parts {
            if p.is_empty() {
                continue;
            }
            let sid = ShapeId::intern(p.shape());
            h.live += p.len();
            h.parts.insert(sid, Arc::new(p));
        }
        h
    }

    /// Inserts a tuple into its shape's partition, opening the partition
    /// when the shape has none.  Nothing is checked here: the caller has
    /// admitted the tuple (see [`PartitionedHeap`] for why a live partition
    /// stands for its shape's admission).  The tuple is borrowed: the
    /// column heap copies its values out.
    pub fn insert(&mut self, shape: ShapeId, t: &Tuple) -> Rid {
        let part = self
            .parts
            .entry(shape)
            .or_insert_with(|| Arc::new(Partition::from_heap(ColumnHeap::new(t.attrs()))));
        let part = Arc::make_mut(part);
        debug_assert_eq!(part.shape(), t.shape(), "tuple routed to wrong partition");
        let loc = part.heap.insert(t);
        part.touch();
        self.live += 1;
        Rid { shape, loc }
    }

    /// Materializes the tuple stored under `rid`, if it is live.
    pub fn get(&self, rid: Rid) -> Option<Tuple> {
        self.parts.get(&rid.shape)?.heap.get(rid.loc)
    }

    /// A zero-copy view of the tuple stored under `rid`, if it is live.
    pub fn get_ref(&self, rid: Rid) -> Option<TupleRef<'_>> {
        self.parts.get(&rid.shape)?.heap.get_ref(rid.loc)
    }

    /// Deletes the tuple under `rid`, returning it if it was live.  Dropping
    /// the last tuple of a partition drops the partition.
    pub fn delete(&mut self, rid: Rid) -> Option<Tuple> {
        let part = self.parts.get_mut(&rid.shape)?;
        // Probe before copy-on-write: deleting a dead rid must not clone.
        part.heap.get_ref(rid.loc)?;
        let part = Arc::make_mut(part);
        let old = part.heap.delete(rid.loc)?;
        part.touch();
        self.live -= 1;
        if part.heap.is_empty() {
            self.parts.remove(&rid.shape);
        }
        Some(old)
    }

    /// Iterates over all live tuples, materialized, partition by partition.
    pub fn scan(&self) -> impl Iterator<Item = (Rid, Tuple)> + '_ {
        self.parts.iter().flat_map(|(sid, p)| {
            p.heap
                .scan()
                .map(move |(loc, r)| (Rid { shape: *sid, loc }, r.to_tuple()))
        })
    }

    /// Iterates over the live tuples of the partitions admitted by the shape
    /// predicate — the pruned scan behind the streaming executor.
    pub fn scan_where<'a, F>(&'a self, mut admits: F) -> impl Iterator<Item = (Rid, Tuple)> + 'a
    where
        F: FnMut(&AttrSet) -> bool + 'a,
    {
        self.parts
            .iter()
            .filter(move |(_, p)| admits(p.shape()))
            .flat_map(|(sid, p)| {
                p.heap
                    .scan()
                    .map(move |(loc, r)| (Rid { shape: *sid, loc }, r.to_tuple()))
            })
    }

    /// Materializes all live tuples.
    pub fn all_tuples(&self) -> Vec<Tuple> {
        self.scan().map(|(_, t)| t).collect()
    }
}

/// An immutable point-in-time view of a relation's partition catalog: the
/// live partitions (shared via [`Arc`]) as of the moment the snapshot was
/// taken under the partition-catalog lock.
///
/// Everything a query derives about a relation — the partitions a pruned
/// scan visits, the attribute bounds that size joins (the union of the
/// shapes a scan visits, `flexrel_query::exec::snap_plan_attrs`), the
/// [`PartitionInfo`] metadata behind cost decisions —
/// comes from **one** snapshot, so a concurrent shape-creating insert can
/// neither tear a streaming scan nor desynchronize the optimizer's pruning
/// decisions from the tuples actually read.
#[derive(Clone, Debug, Default)]
pub struct PartitionSnapshot {
    parts: Vec<(ShapeId, Arc<Partition>)>,
}

impl PartitionSnapshot {
    /// Total number of live tuples across the snapshotted partitions.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|(_, p)| p.len()).sum()
    }

    /// Whether the snapshot holds no tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of partitions in the snapshot.
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Iterates over the snapshotted partitions in `ShapeId` order.
    pub fn partitions(&self) -> impl Iterator<Item = (ShapeId, &Partition)> + '_ {
        self.parts.iter().map(|(sid, p)| (*sid, &**p))
    }

    /// Per-partition catalog metadata, in `ShapeId` order.
    pub fn infos(&self) -> Vec<PartitionInfo> {
        self.parts
            .iter()
            .map(|(sid, p)| PartitionInfo {
                shape_id: *sid,
                shape: p.shape().clone(),
                tuples: p.len(),
            })
            .collect()
    }

    /// The tuple stored under `rid` in the snapshot, materialized, if it
    /// was live when the snapshot was taken.
    pub fn get(&self, rid: Rid) -> Option<Tuple> {
        let i = self
            .parts
            .binary_search_by_key(&rid.shape, |(sid, _)| *sid)
            .ok()?;
        self.parts[i].1.heap.get(rid.loc)
    }

    /// Keeps only the partitions whose shape the predicate admits — the
    /// pruning step, evaluated once per partition.
    pub fn retain_shapes<F>(mut self, mut admits: F) -> Self
    where
        F: FnMut(&AttrSet) -> bool,
    {
        self.parts.retain(|(_, p)| admits(p.shape()));
        self
    }

    /// Consumes the snapshot into its partition list, e.g. to distribute
    /// the partitions over parallel scan workers.
    pub fn into_parts(self) -> Vec<(ShapeId, Arc<Partition>)> {
        self.parts
    }

    /// Consumes the snapshot into an owned iterator over its live tuples.
    /// The iterator is self-contained (it keeps the partitions alive), so
    /// it can outlive every lock and stream across threads.
    pub fn scan(self) -> SnapshotScan {
        SnapshotScan {
            parts: self.parts,
            part: 0,
            segment: 0,
            slot: 0,
        }
    }
}

/// An owned streaming iterator over the live tuples of a
/// [`PartitionSnapshot`], yielding `(Rid, Tuple)` pairs partition by
/// partition.  Tuples are materialized out of the snapshot's columns (cheap:
/// values are refcounted); the underlying partitions are immutable, so the
/// iterator is unaffected by concurrent writes.
#[derive(Clone, Debug)]
pub struct SnapshotScan {
    parts: Vec<(ShapeId, Arc<Partition>)>,
    part: usize,
    segment: usize,
    slot: usize,
}

impl Iterator for SnapshotScan {
    type Item = (Rid, Tuple);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (sid, part) = self.parts.get(self.part)?;
            if self.segment >= part.heap.segment_count() {
                self.part += 1;
                self.segment = 0;
                self.slot = 0;
                continue;
            }
            if self.slot >= part.heap.segment_len(self.segment) {
                self.segment += 1;
                self.slot = 0;
                continue;
            }
            let slot = self.slot;
            self.slot += 1;
            if let Some(t) = part.heap.slot_get(self.segment, slot) {
                let rid = Rid::new(*sid, TupleId::new(self.segment as u32, slot as u32));
                return Some((rid, t));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::{attrs, tuple};

    fn insert(h: &mut PartitionedHeap, t: Tuple) -> Rid {
        h.insert(t.shape_id(), &t)
    }

    #[test]
    fn tuples_are_routed_by_shape() {
        let mut h = PartitionedHeap::new();
        let a = insert(&mut h, tuple! {"x" => 1});
        let b = insert(&mut h, tuple! {"x" => 2});
        let c = insert(&mut h, tuple! {"x" => 3, "y" => 4});
        assert_eq!(h.len(), 3);
        assert_eq!(h.partition_count(), 2);
        assert_eq!(a.shape(), b.shape());
        assert_ne!(a.shape(), c.shape());
        assert_eq!(h.get(a), Some(tuple! {"x" => 1}));
        assert_eq!(h.get(c), Some(tuple! {"x" => 3, "y" => 4}));
    }

    #[test]
    fn empty_partitions_are_dropped() {
        let mut h = PartitionedHeap::new();
        let a = insert(&mut h, tuple! {"x" => 1});
        let _b = insert(&mut h, tuple! {"x" => 2, "y" => 3});
        assert_eq!(h.partition_count(), 2);
        assert_eq!(h.delete(a), Some(tuple! {"x" => 1}));
        assert_eq!(h.partition_count(), 1, "emptied partition is dropped");
        let shapes: Vec<_> = h.partitions().map(|(_, p)| p.shape().clone()).collect();
        assert_eq!(shapes, vec![attrs!["x", "y"]]);
        assert_eq!(h.delete(a), None, "double delete is a no-op");
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn scan_where_prunes_partitions() {
        let mut h = PartitionedHeap::new();
        for i in 0..5 {
            insert(&mut h, tuple! {"x" => i});
            insert(&mut h, tuple! {"x" => i, "y" => i});
        }
        let required = attrs!["y"];
        let pruned: Vec<_> = h.scan_where(|s| required.is_subset(s)).collect();
        assert_eq!(pruned.len(), 5);
        assert!(pruned.iter().all(|(_, t)| t.has_name("y")));
        assert_eq!(h.scan().count(), 10);
        assert_eq!(h.all_tuples().len(), 10);
    }

    #[test]
    fn a_partition_lives_exactly_as_long_as_its_tuples() {
        let mut h = PartitionedHeap::new();
        let a = insert(&mut h, tuple! {"x" => 1});
        let sid = a.shape();
        let b = insert(&mut h, tuple! {"x" => 2});
        let p = h
            .partition(sid)
            .expect("the first insert opened the partition");
        assert_eq!(p.shape(), &attrs!["x"]);
        assert_eq!((p.len(), p.tuples().count(), p.mutations()), (2, 2, 2));
        h.delete(a);
        assert_eq!(h.partition(sid).map(Partition::len), Some(1));
        h.delete(b);
        assert!(h.partition(sid).is_none(), "the last delete drops it");
        assert_eq!((h.len(), h.partition_count()), (0, 0));
        let c = insert(&mut h, tuple! {"x" => 3});
        let p = h.partition(c.shape()).expect("a later insert reopens it");
        assert_eq!((p.len(), p.mutations()), (1, 1), "reopened fresh");
    }

    #[test]
    fn rid_display_and_accessors() {
        let mut h = PartitionedHeap::new();
        let a = insert(&mut h, tuple! {"x" => 1});
        assert_eq!(a.loc().segment(), 0);
        assert_eq!(a.loc().slot(), 0);
        assert!(a.to_string().contains("(0, 0)"));
    }
}
