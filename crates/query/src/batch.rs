//! The chunk pipeline — the one executor.
//!
//! Operators exchange [`Chunk`]s: a columnar chunk is one 1024-slot column
//! segment of a shape-homogeneous partition plus a [`SelVec`] selection
//! bitmap — a zero-copy view (`Arc<Partition>` + segment index + bitmap)
//! that flows through filters, guards and join probes without constructing
//! a single tuple.  Owned tuples are built only at the points that
//! genuinely need them:
//!
//! * the **result boundary** ([`execute_chunks`](crate::execute_chunks)
//!   hands the surviving chunks to one of two consumers: the wire encoder
//!   reads them in place, [`Chunk::collect_tuples`] materializes them);
//! * **projection**, which materializes *narrow* tuples carrying only the
//!   projected columns (duplicate elimination needs owned keys anyway);
//! * the **build side of a hash join**, held as owned tuples and bucketed
//!   by row index — probe-side rows are materialized only on a match;
//! * operators that change shape or leave the columnar world
//!   (`Extend`, `UnionAll` dedup, index probes).
//!
//! An `Aggregate` node never materializes input at all: its chunks fold
//! straight into [`GroupedAggs`] through the columnar kernels in
//! [`crate::colscan`].
//!
//! [`ExecStats`] counts every tuple built from column data, which is how
//! the test suite pins the pipeline down: a `COUNT(*)` must report zero
//! materializations, and a full scan exactly its result size.
//!
//! Operator semantics are the paper's (§4, `flexrel-algebra`); the
//! differential suite in `tests/` checks every operator against
//! `flexrel_tests::reference_eval`, a naive evaluator that shares no code
//! with this module.  Serial chunk order is partition order, then segment
//! order, then slot order, so order-sensitive state (dedup
//! first-occurrence, float summation) is deterministic.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use flexrel_algebra::predicate::Predicate;
use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::error::{CoreError, Result};
use flexrel_core::tuple::{ShapeId, Tuple};
use flexrel_storage::{Partition, Rid, SelVec};

use crate::agg::GroupedAggs;
use crate::colscan;
use crate::exec::{snap_plan_attrs, ExecContext, RelSnap};
use crate::logical::{AggExpr, JoinStrategy, LogicalPlan, ShapePredicate};

/// Counters the pipeline maintains while executing; cheaply cloneable
/// (shared atomics), readable after the result stream is drained.
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    inner: Arc<StatsInner>,
}

#[derive(Debug, Default)]
struct StatsInner {
    materialized: AtomicU64,
    chunks: AtomicU64,
    /// Execution deadline copied from [`ExecOptions::deadline`]; checked
    /// (and [`StatsInner::timed_out`] recorded) at every chunk source.
    deadline: Option<std::time::Instant>,
    timed_out: AtomicBool,
}

impl ExecStats {
    /// Stats carrying an execution deadline: the chunk sources stop
    /// producing once it passes and flag the run as timed out.  `None`
    /// behaves exactly like [`ExecStats::default`].
    pub fn with_deadline(deadline: Option<std::time::Instant>) -> Self {
        ExecStats {
            inner: Arc::new(StatsInner {
                deadline,
                ..StatsInner::default()
            }),
        }
    }

    /// Whether the deadline tripped anywhere in the pipeline.  A timed-out
    /// stream ends early, so its drained rows are *truncated* — callers
    /// must discard them and surface a timeout error instead.
    pub fn timed_out(&self) -> bool {
        self.inner.timed_out.load(Ordering::Relaxed)
    }

    /// The deadline as an error: [`CoreError::Timeout`] once it has
    /// passed.  Consumers of a finished chunk list call it between chunks,
    /// so a statement that runs out of time while its result is being
    /// encoded still ends in a timeout rather than a truncated reply.
    pub fn check_deadline(&self) -> Result<()> {
        if self.deadline_expired() {
            return Err(CoreError::Timeout(
                "statement deadline passed while its result was being produced".into(),
            ));
        }
        Ok(())
    }

    /// Checks the deadline, recording and reporting expiry.  Called once
    /// per chunk (≤1024 rows of work) at each source, so the `Instant`
    /// read is off the per-row fast path.
    pub(crate) fn deadline_expired(&self) -> bool {
        match self.inner.deadline {
            Some(d) if std::time::Instant::now() >= d => {
                self.inner.timed_out.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
    /// How many owned tuples were built from column segments anywhere in
    /// the pipeline (scan boundary, narrow projections, join sides, rids
    /// fetched through an index).  An aggregate over a scan reports 0 — its
    /// inputs never leave the columns; a bare scan or an index lookup
    /// reports exactly its result size.
    pub fn materialized(&self) -> u64 {
        self.inner.materialized.load(Ordering::Relaxed)
    }

    /// How many chunks entered the pipeline at its sources: one per
    /// surviving column segment of a scan, one per index probe that found
    /// anything.
    pub fn chunks(&self) -> u64 {
        self.inner.chunks.load(Ordering::Relaxed)
    }

    fn note_materialized(&self, n: u64) {
        self.inner.materialized.fetch_add(n, Ordering::Relaxed);
    }

    fn note_chunk(&self) {
        self.inner.chunks.fetch_add(1, Ordering::Relaxed);
    }
}

/// A columnar chunk: the selected rows of one segment of one partition.
/// Cloning is cheap (an `Arc` bump plus a fixed-size bitmap); the column
/// data itself is shared with the storage snapshot.
#[derive(Clone, Debug)]
pub struct ColChunk {
    /// The (shape-homogeneous) partition the segment belongs to.
    pub part: Arc<Partition>,
    /// Segment index within the partition's column heap.
    pub seg: usize,
    /// Selected rows, already masked by the segment's live bitmap.
    pub sel: SelVec,
}

impl ColChunk {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.sel.count()
    }

    /// Whether no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// Materializes the selected rows as owned tuples, in slot order.
    pub fn materialize_into(&self, out: &mut Vec<Tuple>) {
        self.part
            .columns()
            .materialize_selected(self.seg, &self.sel, out);
    }
}

/// One unit of dataflow between late-pipeline operators.
#[derive(Clone, Debug)]
pub enum Chunk {
    /// Rows still in columnar form: a selection over a shared segment.
    Cols(ColChunk),
    /// Rows that had to leave the columns (join output, projections,
    /// shape-changing operators).
    Rows(Vec<Tuple>),
}

impl Chunk {
    /// Number of rows the chunk carries.
    pub fn len(&self) -> usize {
        match self {
            Chunk::Cols(c) => c.len(),
            Chunk::Rows(v) => v.len(),
        }
    }

    /// Whether the chunk carries no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The chunk's rows as owned tuples, materializing (and counting into
    /// `stats`) if still columnar.
    pub fn into_tuples(self, stats: &ExecStats) -> Vec<Tuple> {
        match self {
            Chunk::Cols(c) => {
                let mut out = Vec::with_capacity(c.len());
                c.materialize_into(&mut out);
                stats.note_materialized(out.len() as u64);
                out
            }
            Chunk::Rows(v) => v,
        }
    }

    /// The rows of a whole chunk list as owned tuples, in chunk order —
    /// the result boundary's materializing consumer.  Columnar chunks are
    /// built straight into one output vector and counted into `stats`.
    pub fn collect_tuples(chunks: Vec<Chunk>, stats: &ExecStats) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(chunks.iter().map(Chunk::len).sum());
        for chunk in chunks {
            match chunk {
                Chunk::Cols(c) => {
                    let before = out.len();
                    c.materialize_into(&mut out);
                    stats.note_materialized((out.len() - before) as u64);
                }
                Chunk::Rows(v) => out.extend(v),
            }
        }
        out
    }
}

/// A stream of chunks between operators.
pub type ChunkStream<'a> = Box<dyn Iterator<Item = Chunk> + 'a>;

/// A chunk scan over snapshotted partitions: the predicate
/// conjunction compiles once per partition, each segment yields one
/// [`ColChunk`] of qualifying rows.  Chunk order is partition, segment,
/// slot order.
struct ChunkScan {
    parts: Vec<Arc<Partition>>,
    preds: Vec<Predicate>,
    part: usize,
    seg: usize,
    compiled: Option<colscan::Compiled>,
    stats: ExecStats,
}

impl Iterator for ChunkScan {
    type Item = Chunk;

    fn next(&mut self) -> Option<Chunk> {
        loop {
            if self.stats.deadline_expired() {
                return None;
            }
            let part = self.parts.get(self.part)?;
            let heap = part.columns();
            let compiled = self
                .compiled
                .get_or_insert_with(|| colscan::compile(&self.preds, heap));
            if compiled.is_never() || self.seg >= heap.segment_count() {
                self.part += 1;
                self.seg = 0;
                self.compiled = None;
                continue;
            }
            let si = self.seg;
            self.seg += 1;
            let seg = heap.segment(si).expect("segment index in range");
            let sel = compiled.select(seg);
            if sel.is_empty() {
                continue;
            }
            self.stats.note_chunk();
            return Some(Chunk::Cols(ColChunk {
                part: Arc::clone(part),
                seg: si,
                sel,
            }));
        }
    }
}

/// The chunk scan for one base scan: shape pruning per partition, the
/// qualification (plus any fused filter) compiled per partition, one chunk
/// per surviving segment.  The qualification is *known* to hold on
/// consistent data; applying it is a no-op there but keeps hand-built
/// fragment plans honest when they scan a broader base relation.
fn scan_chunks<'a>(
    snap: RelSnap,
    qualification: &'a Option<Predicate>,
    shape: &'a Option<ShapePredicate>,
    extra_filter: Option<&'a Predicate>,
    stats: ExecStats,
) -> ChunkStream<'a> {
    let parts = snap
        .parts
        .retain_shapes(|s| shape.as_ref().map(|p| p.admits(s)).unwrap_or(true));
    let preds: Vec<Predicate> = qualification.iter().chain(extra_filter).cloned().collect();
    let parts = parts.into_parts().into_iter().map(|(_, p)| p).collect();
    Box::new(ChunkScan {
        parts,
        preds,
        part: 0,
        seg: 0,
        compiled: None,
        stats,
    })
}

/// A non-fused filter: compiled once per partition (chunks of one partition
/// arrive consecutively, so a one-entry cache suffices) and
/// intersected with the chunk's selection; row chunks fall back to
/// per-tuple evaluation.
fn filter_chunks<'a>(input: ChunkStream<'a>, predicate: &'a Predicate) -> ChunkStream<'a> {
    let mut cache: Option<(*const Partition, colscan::Compiled)> = None;
    Box::new(input.filter_map(move |chunk| match chunk {
        Chunk::Cols(c) => {
            let key = Arc::as_ptr(&c.part);
            if cache.as_ref().map(|(k, _)| *k != key).unwrap_or(true) {
                let compiled = colscan::compile(std::slice::from_ref(predicate), c.part.columns());
                cache = Some((key, compiled));
            }
            let compiled = &cache.as_ref().expect("cache just filled").1;
            match compiled {
                colscan::Compiled::Never => None,
                colscan::Compiled::All => Some(Chunk::Cols(c)),
                _ => {
                    let heap = c.part.columns();
                    let seg = heap.segment(c.seg).expect("segment index in range");
                    let mut sel = compiled.select(seg);
                    sel.and(&c.sel);
                    if sel.is_empty() {
                        None
                    } else {
                        Some(Chunk::Cols(ColChunk { sel, ..c }))
                    }
                }
            }
        }
        Chunk::Rows(mut v) => {
            v.retain(|t| predicate.eval(t));
            if v.is_empty() {
                None
            } else {
                Some(Chunk::Rows(v))
            }
        }
    }))
}

/// A type guard over chunks.  For a columnar chunk the verdict is a
/// shape-level constant — the whole chunk passes or drops without touching
/// a row, the paper's "presence is shape membership" made operational.
fn guard_chunks<'a>(input: ChunkStream<'a>, attrs: &'a AttrSet) -> ChunkStream<'a> {
    Box::new(input.filter_map(move |chunk| match chunk {
        Chunk::Cols(c) => attrs.is_subset(c.part.shape()).then_some(Chunk::Cols(c)),
        Chunk::Rows(mut v) => {
            v.retain(|t| t.defined_on(attrs));
            if v.is_empty() {
                None
            } else {
                Some(Chunk::Rows(v))
            }
        }
    }))
}

/// Duplicate-eliminating projection.  Columnar chunks materialize *narrow*
/// tuples — only the projected columns are ever touched; the dropped
/// columns of the partition are never read.  First occurrence wins.
fn project_chunks<'a>(
    input: ChunkStream<'a>,
    attrs: &'a AttrSet,
    stats: ExecStats,
) -> ChunkStream<'a> {
    let mut seen: BTreeSet<Tuple> = BTreeSet::new();
    Box::new(input.filter_map(move |chunk| {
        let mut out = Vec::new();
        match chunk {
            Chunk::Cols(c) => {
                let heap = c.part.columns();
                let proj_shape = heap.shape().intersection(attrs);
                let proj_attrs: Vec<Attr> = heap
                    .attrs()
                    .iter()
                    .filter(|a| attrs.contains(a))
                    .cloned()
                    .collect();
                let cols: Vec<usize> = proj_attrs
                    .iter()
                    .map(|a| heap.col_index(a.name()).expect("attr in shape"))
                    .collect();
                let seg = heap.segment(c.seg).expect("segment index in range");
                for row in c.sel.iter() {
                    let t = Tuple::from_shape_values(
                        proj_shape.clone(),
                        &proj_attrs,
                        cols.iter().map(|&ci| seg.value_at(ci, row)),
                    );
                    stats.note_materialized(1);
                    if seen.insert(t.clone()) {
                        out.push(t);
                    }
                }
            }
            Chunk::Rows(v) => {
                for t in v {
                    let p = t.project(attrs);
                    if seen.insert(p.clone()) {
                        out.push(p);
                    }
                }
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(Chunk::Rows(out))
        }
    }))
}

/// Hash join over chunks.  The build side is drained into owned tuples
/// with hash buckets holding row *indices*; the probe side stays columnar:
/// per probe row only the join-key columns are read to form the lookup
/// key, and the full row is materialized only when it actually has
/// partners.
fn hash_join_chunks<'a>(
    probe: ChunkStream<'a>,
    build: ChunkStream<'a>,
    common: AttrSet,
    stats: ExecStats,
) -> ChunkStream<'a> {
    let build: Vec<Tuple> = build.flat_map(|c| c.into_tuples(&stats)).collect();
    let mut hashed: HashMap<Tuple, Vec<u32>> = HashMap::new();
    let mut scan_side: Vec<u32> = Vec::new();
    for (idx, t) in build.iter().enumerate() {
        let idx = u32::try_from(idx).expect("hash join build side exceeds u32 rows");
        if t.defined_on(&common) {
            hashed.entry(t.project(&common)).or_default().push(idx);
        } else {
            scan_side.push(idx);
        }
    }
    // Per-partition probe-side key plan: the common attributes' column
    // indices in canonical order, or None when the shape lacks part of the
    // key (those rows take the pairwise path).
    type KeyPlan = Option<(Vec<Attr>, Vec<usize>)>;
    let mut key_plan: Option<(*const Partition, KeyPlan)> = None;
    Box::new(probe.filter_map(move |chunk| {
        let mut out = Vec::new();
        match chunk {
            Chunk::Cols(c) => {
                let heap = c.part.columns();
                let ptr = Arc::as_ptr(&c.part);
                if key_plan.as_ref().map(|(k, _)| *k != ptr).unwrap_or(true) {
                    let plan = common.is_subset(heap.shape()).then(|| {
                        let key_attrs: Vec<Attr> = heap
                            .attrs()
                            .iter()
                            .filter(|a| common.contains(a))
                            .cloned()
                            .collect();
                        let cols = key_attrs
                            .iter()
                            .map(|a| heap.col_index(a.name()).expect("attr in shape"))
                            .collect();
                        (key_attrs, cols)
                    });
                    key_plan = Some((ptr, plan));
                }
                let seg = heap.segment(c.seg).expect("segment index in range");
                match &key_plan.as_ref().expect("plan just filled").1 {
                    Some((key_attrs, cols)) => {
                        for row in c.sel.iter() {
                            let key = Tuple::from_shape_values(
                                common.clone(),
                                key_attrs,
                                cols.iter().map(|&ci| seg.value_at(ci, row)),
                            );
                            let partners = hashed.get(&key);
                            if partners.is_none() && scan_side.is_empty() {
                                continue; // never materialized
                            }
                            let l = heap.materialize(seg, row);
                            stats.note_materialized(1);
                            for &idx in partners.into_iter().flatten() {
                                out.push(l.merged_with(&build[idx as usize]));
                            }
                            for &idx in &scan_side {
                                let r = &build[idx as usize];
                                if l.joinable_with(r) {
                                    out.push(l.merged_with(r));
                                }
                            }
                        }
                    }
                    None => {
                        // The probe shape lacks part of the key: pair
                        // against the whole build side.
                        let mut probe_rows = Vec::with_capacity(c.len());
                        c.materialize_into(&mut probe_rows);
                        stats.note_materialized(probe_rows.len() as u64);
                        for l in probe_rows {
                            for r in &build {
                                if l.joinable_with(r) {
                                    out.push(l.merged_with(r));
                                }
                            }
                        }
                    }
                }
            }
            Chunk::Rows(v) => {
                for l in v {
                    if l.defined_on(&common) {
                        if let Some(partners) = hashed.get(&l.project(&common)) {
                            for &idx in partners {
                                out.push(l.merged_with(&build[idx as usize]));
                            }
                        }
                        for &idx in &scan_side {
                            let r = &build[idx as usize];
                            if l.joinable_with(r) {
                                out.push(l.merged_with(r));
                            }
                        }
                    } else {
                        for r in &build {
                            if l.joinable_with(r) {
                                out.push(l.merged_with(r));
                            }
                        }
                    }
                }
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(Chunk::Rows(out))
        }
    }))
}

/// Duplicate-eliminating union over chunk streams (tuple identity needs
/// owned rows, so inputs materialize here).
fn union_chunks<'a>(inputs: Vec<ChunkStream<'a>>, stats: ExecStats) -> ChunkStream<'a> {
    let mut seen: BTreeSet<Tuple> = BTreeSet::new();
    Box::new(inputs.into_iter().flatten().filter_map(move |chunk| {
        let mut out = Vec::new();
        for t in chunk.into_tuples(&stats) {
            if seen.insert(t.clone()) {
                out.push(t);
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(Chunk::Rows(out))
        }
    }))
}

/// Memoized shape-predicate verdicts for rid-level checks: one interner
/// resolution (`ShapeId` → `AttrSet`) per partition, not per matched tuple.
/// Shared by the index probe and the index-nested-loop join.
struct ShapeAdmitMemo {
    shapes: Option<ShapePredicate>,
    verdicts: HashMap<ShapeId, bool>,
}

impl ShapeAdmitMemo {
    fn new(shapes: Option<ShapePredicate>) -> Self {
        ShapeAdmitMemo {
            shapes,
            verdicts: HashMap::new(),
        }
    }

    fn admits(&mut self, rid: Rid) -> bool {
        match &self.shapes {
            None => true,
            Some(s) => *self
                .verdicts
                .entry(rid.shape())
                .or_insert_with(|| s.admits(&rid.shape().attrs())),
        }
    }
}

/// An indexed equality probe: a point lookup resolves a handful of rids
/// against the same capture the index came from, so it runs eagerly and
/// enters the pipeline as one row chunk.  The shape predicate is
/// re-applied per rid (its `ShapeId` names the partition), so shape
/// pruning composes with index access.  Without an index on `key` the
/// probe degrades to a shape-pruned snapshot scan.  Every tuple fetched
/// counts as materialized — on the scan fallback that includes the ones
/// the key comparison then rejects.
fn index_lookup_chunks(
    snap: &RelSnap,
    key: &AttrSet,
    key_value: &Tuple,
    shapes: &Option<ShapePredicate>,
    stats: &ExecStats,
) -> ChunkStream<'static> {
    let mut admitted = ShapeAdmitMemo::new(shapes.clone());
    let (rows, fetched): (Vec<Tuple>, usize) = match snap.index_on(key) {
        Some(idx) => {
            let rows: Vec<Tuple> = idx
                .lookup(key_value)
                .iter()
                .filter(|rid| admitted.admits(**rid))
                .filter_map(|rid| snap.parts.get(*rid))
                .collect();
            let fetched = rows.len();
            (rows, fetched)
        }
        None => {
            let scanned = snap.parts.clone().retain_shapes(|s| key.is_subset(s));
            let fetched = scanned.len();
            let rows = scanned
                .scan()
                .filter(|(rid, t)| admitted.admits(*rid) && t.project(key) == *key_value)
                .map(|(_, t)| t)
                .collect();
            (rows, fetched)
        }
    };
    stats.note_materialized(fetched as u64);
    if rows.is_empty() {
        return Box::new(std::iter::empty());
    }
    stats.note_chunk();
    Box::new(std::iter::once(Chunk::Rows(rows)))
}

/// A side an index-nested-loop join can probe: a base scan, possibly under
/// residual filters.  The scan's qualification and every filter predicate
/// are borrowed from the plan as conjuncts that the probe re-applies per
/// tuple; the shape predicate is re-applied per rid.
pub(crate) struct InnerSide<'a> {
    pub(crate) relation: &'a str,
    pub(crate) conjuncts: Vec<&'a Predicate>,
    pub(crate) shapes: &'a Option<ShapePredicate>,
}

/// The side an index-nested-loop join probes, when `plan` has the
/// structure of one; `None` for any other plan.
pub(crate) fn inl_inner_side(plan: &LogicalPlan) -> Option<InnerSide<'_>> {
    match plan {
        LogicalPlan::Scan {
            relation,
            qualification,
            shape,
        } => Some(InnerSide {
            relation,
            conjuncts: qualification.iter().collect(),
            shapes: shape,
        }),
        LogicalPlan::Filter { input, predicate } => {
            let mut side = inl_inner_side(input)?;
            side.conjuncts.push(predicate);
            Some(side)
        }
        _ => None,
    }
}

/// Index-nested-loop join: streams the probe side and, per probe tuple,
/// looks the matching inner tuples up through the inner relation's index
/// snapshot on `common` — the inner side is never materialized as a whole.
/// Index and partitions come from the same atomic capture, so every probed
/// rid resolves consistently.  Inner tuples not defined on the full key
/// (the index's partial list) are checked pairwise, mirroring the hash
/// join's scan side; probe tuples not defined on `common` fall back to a
/// pairwise pass over the admitted inner side, which is materialized once
/// on first need and reused.  Inner tuples fetched by rid count as
/// materialized like any other tuple built from column data.
fn index_nested_loop_chunks<'a>(
    probe: ChunkStream<'a>,
    inner: RelSnap,
    side: InnerSide<'a>,
    common: AttrSet,
    stats: ExecStats,
) -> ChunkStream<'a> {
    let conjuncts = side.conjuncts;
    let inner_shapes = side.shapes.clone();
    let mut shape_memo = ShapeAdmitMemo::new(inner_shapes.clone());
    let qualifies = move |t: &Tuple| conjuncts.iter().all(|p| p.eval(t));
    // The index snapshot is resolved once for the whole stream; each probe
    // is then one projection and one hash lookup yielding a borrowed rid
    // slice — no per-probe catalog walk or locking.
    let index = inner.index_on(&common).cloned();
    let partials: Vec<Tuple> = index
        .as_ref()
        .map(|idx| {
            idx.partial_tuples()
                .iter()
                .filter(|rid| shape_memo.admits(**rid))
                .filter_map(|rid| inner.parts.get(*rid))
                .inspect(|_| stats.note_materialized(1))
                .filter(|t| qualifies(t))
                .collect()
        })
        .unwrap_or_default();
    let mut fallback: Option<Vec<Tuple>> = None;
    Box::new(probe.filter_map(move |chunk| {
        let mut out = Vec::new();
        for l in chunk.into_tuples(&stats) {
            if let (true, Some(idx)) = (l.defined_on(&common), &index) {
                for rid in idx.lookup(&l.project(&common)) {
                    let Some(r) = inner.parts.get(*rid) else {
                        continue;
                    };
                    stats.note_materialized(1);
                    if shape_memo.admits(*rid) && qualifies(&r) {
                        out.push(l.merged_with(&r));
                    }
                }
                out.extend(
                    partials
                        .iter()
                        .filter(|r| l.joinable_with(r))
                        .map(|r| l.merged_with(r)),
                );
                continue;
            }
            // Rare paths: the probe tuple lacks part of the key (the index
            // cannot answer), or no index on `common` was captured (it was
            // dropped, or a new shape widened `common`, after the plan was
            // priced); pair against the (pruned, qualified) inner side,
            // materialized once across all such probes.
            let rows = fallback.get_or_insert_with(|| {
                inner
                    .parts
                    .clone()
                    .retain_shapes(|s| inner_shapes.as_ref().map(|p| p.admits(s)).unwrap_or(true))
                    .scan()
                    .map(|(_, r)| r)
                    .inspect(|_| stats.note_materialized(1))
                    .filter(|r| qualifies(r))
                    .collect()
            });
            out.extend(
                rows.iter()
                    .filter(|r| l.joinable_with(r))
                    .map(|r| l.merged_with(r)),
            );
        }
        (!out.is_empty()).then_some(Chunk::Rows(out))
    }))
}

/// The aggregation operator: columnar chunks fold through the kernels in
/// [`crate::colscan`] without materializing a tuple; row chunks (join
/// outputs etc.) fold through the reference row-wise path.  Blocking, like
/// every aggregation.
fn aggregate_chunks<'a>(
    input: ChunkStream<'a>,
    group_by: &AttrSet,
    aggs: &[AggExpr],
) -> ChunkStream<'a> {
    let mut state = GroupedAggs::new(group_by.clone(), aggs.to_vec());
    for chunk in input {
        match chunk {
            Chunk::Cols(c) => {
                colscan::aggregate_selected(c.part.columns(), c.seg, &c.sel, &mut state);
            }
            Chunk::Rows(v) => {
                for t in &v {
                    state.add_tuple(t);
                }
            }
        }
    }
    let rows = state.finish();
    if rows.is_empty() {
        Box::new(std::iter::empty())
    } else {
        Box::new(std::iter::once(Chunk::Rows(rows)))
    }
}

/// Builds the chunk pipeline for a plan, one arm per logical operator.
pub(crate) fn exec_chunks<'a>(
    plan: &'a LogicalPlan,
    ctx: &ExecContext,
    stats: &ExecStats,
) -> Result<ChunkStream<'a>> {
    Ok(match plan {
        LogicalPlan::Empty => Box::new(std::iter::empty()),
        LogicalPlan::Scan {
            relation,
            qualification,
            shape,
        } => scan_chunks(
            ctx.snap(relation).clone(),
            qualification,
            shape,
            None,
            stats.clone(),
        ),
        LogicalPlan::Filter { input, predicate } => {
            // Fuse the filter onto a base scan: the predicate joins the
            // qualification in the per-partition compile.
            if let LogicalPlan::Scan {
                relation,
                qualification,
                shape,
            } = &**input
            {
                scan_chunks(
                    ctx.snap(relation).clone(),
                    qualification,
                    shape,
                    Some(predicate),
                    stats.clone(),
                )
            } else {
                filter_chunks(exec_chunks(input, ctx, stats)?, predicate)
            }
        }
        LogicalPlan::Project { input, attrs } => {
            project_chunks(exec_chunks(input, ctx, stats)?, attrs, stats.clone())
        }
        LogicalPlan::Guard { input, attrs } => guard_chunks(exec_chunks(input, ctx, stats)?, attrs),
        LogicalPlan::IndexLookup {
            relation,
            key,
            key_value,
            shapes,
        } => index_lookup_chunks(ctx.snap(relation), key, key_value, shapes, stats),
        LogicalPlan::Join {
            left,
            right,
            strategy,
        } => {
            let common = snap_plan_attrs(left, ctx).intersection(&snap_plan_attrs(right, ctx));
            // Index-nested-loop: `outer` streams, `inner` is the (possibly
            // filtered) base scan whose index is probed.  A hand-built
            // plan that names the method over any other inner side
            // hash-joins.
            let inl = match strategy {
                JoinStrategy::Hash => None,
                JoinStrategy::IndexNestedLoopRight => Some((left, right)),
                JoinStrategy::IndexNestedLoopLeft => Some((right, left)),
            }
            .and_then(|(outer, inner)| Some((outer, inl_inner_side(inner)?)));
            match inl {
                Some((outer, side)) => index_nested_loop_chunks(
                    exec_chunks(outer, ctx, stats)?,
                    ctx.snap(side.relation).clone(),
                    side,
                    common,
                    stats.clone(),
                ),
                None => {
                    let probe = exec_chunks(left, ctx, stats)?;
                    let build = exec_chunks(right, ctx, stats)?;
                    hash_join_chunks(probe, build, common, stats.clone())
                }
            }
        }
        LogicalPlan::UnionAll { inputs } => {
            let streams: Vec<ChunkStream<'a>> = inputs
                .iter()
                .map(|i| exec_chunks(i, ctx, stats))
                .collect::<Result<_>>()?;
            union_chunks(streams, stats.clone())
        }
        LogicalPlan::Extend { input, attr, value } => {
            let inner = exec_chunks(input, ctx, stats)?;
            let stats = stats.clone();
            Box::new(inner.map(move |chunk| {
                let mut rows = chunk.into_tuples(&stats);
                for t in rows.iter_mut() {
                    t.insert(attr.as_str(), value.clone());
                }
                Chunk::Rows(rows)
            }))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => aggregate_chunks(exec_chunks(input, ctx, stats)?, group_by, aggs),
    })
}
