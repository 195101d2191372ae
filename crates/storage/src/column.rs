//! Column-major partition storage.
//!
//! A heap partition holds tuples of exactly one shape (see
//! [`crate::partition`]), so the paper's central observation — the shape
//! *is* the null bitmap — becomes a layout guarantee: within a partition
//! every tuple is defined on exactly the same attributes, and the per-tuple
//! attribute→value maps of the row store carry no information beyond the
//! values themselves.  A [`ColumnHeap`] therefore stores a partition
//! column-major: one typed column vector per attribute, in the shape's
//! canonical (attribute-name) order, with **no** per-row null handling at
//! all.
//!
//! # Layout
//!
//! Rows live in fixed-size [`SEGMENT_SIZE`]-slot chunks ([`ColumnSegment`]),
//! each an arena of one `Vec` per attribute plus a live-slot bitmap.  A
//! [`TupleId`] names `(segment, slot)`, tombstoned slots are reused from a
//! free list, and segments sit behind [`Arc`]s and are copied on write, so
//! a [`PartitionSnapshot`](crate::partition::PartitionSnapshot) shares
//! every segment a writer has not touched since it was taken.
//!
//! Columns are typed per segment: integers and floats are plain vectors;
//! everything else (strings, tags, booleans, nulls — and any column that
//! turns out to mix kinds) is dictionary-encoded, storing one `u32` code per
//! row against a per-segment pool of distinct [`Value`]s.  A long string
//! of a pool is shared (its `Arc<str>`) with the values handed out, so
//! dictionary encoding is also the string-interning layer; a short one is
//! stored inline in each value and copied.
//!
//! # Vectorized selection
//!
//! Predicates evaluate column-at-a-time into [`SelVec`] selection bitmaps
//! (one bit per slot): [`ColumnSegment::cmp_bitmap`] runs one comparison
//! kernel over a column — a tight `i64`/`f64` loop for numeric columns, a
//! pool-sized pass table followed by a code loop for dictionary columns,
//! skipped when the pool decides the whole segment — and the caller
//! combines bitmaps with word-parallel `AND`/`OR`/`NOT`.  Kernels that
//! consume a selection walk its words: [`SelVec::count`] is a popcount and
//! [`SelVec::runs`] yields the maximal runs of selected rows as slice
//! ranges.
//! Only the rows that survive selection are materialized into [`Tuple`]s
//! (via the canonical-order fast path
//! [`Tuple::from_shape_values`]); a [`TupleRef`] offers a zero-copy view
//! for row-at-a-time fallbacks.
//!
//! # Blocks
//!
//! The selected rows of one segment travel as a **block**, the one column
//! format flexrel writes to disk and to the wire: one column per attribute,
//! in canonical order, each [`COL_INT`], [`COL_FLOAT`] or [`COL_DICT`]
//! ([`ColumnSegment::put_block`]; read back with [`BlockColumn::get`]).  A
//! checkpoint stores each partition as one block per segment with a live
//! row ([`ColumnHeap::write_blocks`], [`ColumnHeap::read_blocks`]); a
//! `Rows` reply writes each columnar result chunk as one block.

use std::collections::HashMap;
use std::sync::Arc;

use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::tuple::Tuple;
use flexrel_core::value::{BitExact, Value};

use crate::codec::{get_value, put_u32, put_u8, put_value, Cursor};
use crate::errors::StorageError;
use crate::heap::{TupleId, SEGMENT_SIZE};

/// Number of `u64` words in a per-segment selection or live bitmap.
pub const SEGMENT_WORDS: usize = SEGMENT_SIZE / 64;

/// Comparison operators for vectorized column predicates.  Semantics are
/// exactly those of [`Value`]'s `PartialEq`/`Ord` instances (equality is
/// kind-strict, ordering compares `Int`/`Float` numerically), so column
/// kernels agree bit-for-bit with row-at-a-time predicate evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColCmp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl ColCmp {
    /// Row-at-a-time reference semantics of the operator.
    pub fn pass(self, lhs: &Value, rhs: &Value) -> bool {
        match self {
            ColCmp::Eq => lhs == rhs,
            ColCmp::Ne => lhs != rhs,
            ColCmp::Lt => lhs < rhs,
            ColCmp::Le => lhs <= rhs,
            ColCmp::Gt => lhs > rhs,
            ColCmp::Ge => lhs >= rhs,
        }
    }

    fn pass_i64(self, lhs: i64, rhs: i64) -> bool {
        match self {
            ColCmp::Eq => lhs == rhs,
            ColCmp::Ne => lhs != rhs,
            ColCmp::Lt => lhs < rhs,
            ColCmp::Le => lhs <= rhs,
            ColCmp::Gt => lhs > rhs,
            ColCmp::Ge => lhs >= rhs,
        }
    }

    fn pass_f64(self, lhs: f64, rhs: f64) -> bool {
        // Mirror Value::cmp, which orders floats via total_cmp.
        let o = lhs.total_cmp(&rhs);
        match self {
            ColCmp::Eq => o.is_eq(),
            ColCmp::Ne => o.is_ne(),
            ColCmp::Lt => o.is_lt(),
            ColCmp::Le => o.is_le(),
            ColCmp::Gt => o.is_gt(),
            ColCmp::Ge => o.is_ge(),
        }
    }
}

/// A per-segment selection vector: one bit per slot, combined word-at-a-time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelVec {
    words: [u64; SEGMENT_WORDS],
}

impl SelVec {
    /// The empty selection.
    pub fn none() -> Self {
        SelVec {
            words: [0; SEGMENT_WORDS],
        }
    }

    /// The full selection (every slot, live or not; callers mask with the
    /// segment's live bitmap before materializing).
    pub fn all() -> Self {
        SelVec {
            words: [!0; SEGMENT_WORDS],
        }
    }

    /// Sets the bit for `row`.
    #[inline]
    pub fn set(&mut self, row: usize) {
        self.words[row / 64] |= 1u64 << (row % 64);
    }

    /// Whether the bit for `row` is set.
    #[inline]
    pub fn contains(&self, row: usize) -> bool {
        self.words[row / 64] & (1u64 << (row % 64)) != 0
    }

    /// Word-parallel intersection.
    pub fn and(&mut self, other: &SelVec) {
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= o;
        }
    }

    /// Word-parallel union.
    pub fn or(&mut self, other: &SelVec) {
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
    }

    /// Word-parallel complement (over all slots; mask with the live bitmap
    /// before use).
    pub fn not(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no row is selected.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// The selection of every slot where `pass` holds for `xs[slot]`, built
    /// one 64-bit word at a time (slots past `xs.len()` stay unselected).
    pub fn matching<T: Copy>(xs: &[T], pass: impl Fn(T) -> bool) -> Self {
        let mut out = SelVec::none();
        for (w, chunk) in out.words.iter_mut().zip(xs.chunks(64)) {
            *w = chunk
                .iter()
                .enumerate()
                .fold(0, |bits, (i, x)| bits | (pass(*x) as u64) << i);
        }
        out
    }

    /// The selected rows as maximal runs of consecutive slots, in ascending
    /// order.  A run may span words: a fully selected segment is one run, so
    /// a kernel over a dense selection works on whole column slices.
    pub fn runs(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let mut wi = 0;
        let mut bits = self.words[0];
        std::iter::from_fn(move || {
            while bits == 0 {
                wi += 1;
                bits = *self.words.get(wi)?;
            }
            let tz = bits.trailing_zeros() as usize;
            let start = wi * 64 + tz;
            let ones = (bits >> tz).trailing_ones() as usize;
            if tz + ones < 64 {
                bits &= !(((1u64 << ones) - 1) << tz);
                return Some(start..start + ones);
            }
            // The run reaches the end of its word: follow it into the next.
            let mut end = (wi + 1) * 64;
            loop {
                wi += 1;
                let Some(&w) = self.words.get(wi) else {
                    bits = 0;
                    return Some(start..end);
                };
                let lead = w.trailing_ones() as usize;
                end += lead;
                if lead < 64 {
                    bits = w & !((1u64 << lead) - 1);
                    return Some(start..end);
                }
            }
        })
    }

    /// Iterates over the selected row numbers in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut bits = *w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + tz)
            })
        })
    }
}

/// A dictionary-encoded column: one `u32` code per row against a pool of
/// distinct values.  The pool is per segment (≤ [`SEGMENT_SIZE`] distinct
/// live values plus tombstoned churn), so copy-on-write of a segment clones
/// a bounded pool, and a predicate probes the pool once per segment rather
/// than comparing per row.
#[derive(Clone, Debug, Default)]
struct DictColumn {
    codes: Vec<u32>,
    pool: Vec<Value>,
    index: HashMap<BitExact, u32>,
}

impl DictColumn {
    /// The code of `v`, appending it to the pool if it is new.  Keyed bit
    /// for bit, so each NaN pattern is one entry and `-0.0` is kept apart
    /// from `0.0`.
    fn intern(&mut self, v: Value) -> u32 {
        let key = BitExact(v);
        if let Some(c) = self.index.get(&key) {
            return *c;
        }
        let c = u32::try_from(self.pool.len()).expect("dictionary pool exhausted u32 codes");
        self.pool.push(key.0.clone());
        self.index.insert(key, c);
        c
    }

    fn value(&self, row: usize) -> Value {
        self.pool[self.codes[row] as usize].clone()
    }
}

/// One typed column of a segment.  The representation is chosen per segment
/// from the first value stored and promoted to dictionary encoding if a
/// later value does not fit (mixed-kind columns are legal: domains are
/// per-attribute advice, not per-partition guarantees).
#[derive(Clone, Debug)]
enum Column {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Dict(DictColumn),
}

impl Column {
    fn new_for(v: &Value) -> Column {
        match v {
            Value::Int(_) => Column::Int(Vec::new()),
            Value::Float(_) => Column::Float(Vec::new()),
            _ => Column::Dict(DictColumn::default()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Column::Int(xs) => xs.len(),
            Column::Float(xs) => xs.len(),
            Column::Dict(d) => d.codes.len(),
        }
    }

    /// Re-encodes the column as a dictionary (the mixed-kind fallback).
    fn promote_to_dict(&mut self) {
        let mut d = DictColumn::default();
        match self {
            Column::Int(xs) => {
                for x in xs.iter() {
                    let c = d.intern(Value::Int(*x));
                    d.codes.push(c);
                }
            }
            Column::Float(xs) => {
                for x in xs.iter() {
                    let c = d.intern(Value::Float(*x));
                    d.codes.push(c);
                }
            }
            Column::Dict(_) => return,
        }
        *self = Column::Dict(d);
    }

    /// Ensures the representation can hold `v` exactly (no coercion: an
    /// `Int` stays an `Int` through a round trip even in a `Float` column's
    /// segment — the column promotes instead).
    fn ensure_fits(&mut self, v: &Value) {
        let fits = matches!(
            (&*self, v),
            (Column::Int(_), Value::Int(_))
                | (Column::Float(_), Value::Float(_))
                | (Column::Dict(_), _)
        );
        if !fits {
            if self.len() == 0 {
                *self = Column::new_for(v);
            } else {
                self.promote_to_dict();
            }
        }
    }

    fn push(&mut self, v: Value) {
        self.ensure_fits(&v);
        match (self, v) {
            (Column::Int(xs), Value::Int(i)) => xs.push(i),
            (Column::Float(xs), Value::Float(f)) => xs.push(f),
            (Column::Dict(d), v) => {
                let c = d.intern(v);
                d.codes.push(c);
            }
            _ => unreachable!("ensure_fits guarantees the representation"),
        }
    }

    fn set(&mut self, row: usize, v: Value) {
        self.ensure_fits(&v);
        match (self, v) {
            (Column::Int(xs), Value::Int(i)) => xs[row] = i,
            (Column::Float(xs), Value::Float(f)) => xs[row] = f,
            (Column::Dict(d), v) => {
                let c = d.intern(v);
                d.codes[row] = c;
            }
            _ => unreachable!("ensure_fits guarantees the representation"),
        }
    }

    fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(xs) => Value::Int(xs[row]),
            Column::Float(xs) => Value::Float(xs[row]),
            Column::Dict(d) => d.value(row),
        }
    }
}

/// One [`SEGMENT_SIZE`]-slot column chunk: one column per attribute of the
/// partition's shape (in canonical order) plus the live-slot bitmap.
/// Segments are immutable once shared (copy-on-write via
/// [`Arc::make_mut`]), exactly like the row heap's segments.
#[derive(Clone, Debug)]
pub struct ColumnSegment {
    cols: Vec<Column>,
    rows: usize,
    live: [u64; SEGMENT_WORDS],
    live_count: usize,
}

impl ColumnSegment {
    fn new(width: usize) -> Self {
        ColumnSegment {
            // Until the first value arrives a column's representation is a
            // placeholder; `ensure_fits` swaps an empty column for free.
            cols: (0..width).map(|_| Column::Int(Vec::new())).collect(),
            rows: 0,
            live: [0; SEGMENT_WORDS],
            live_count: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.rows >= SEGMENT_SIZE
    }

    /// Number of slots appended so far (live or tombstoned), ≤
    /// [`SEGMENT_SIZE`].
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of live slots.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Whether slot `row` holds a live tuple.
    #[inline]
    pub fn is_live(&self, row: usize) -> bool {
        row < self.rows && self.live[row / 64] & (1u64 << (row % 64)) != 0
    }

    /// The live-slot bitmap as a selection vector — the starting point (and
    /// final mask) of vectorized predicate evaluation.
    pub fn live_sel(&self) -> SelVec {
        SelVec { words: self.live }
    }

    #[inline]
    fn set_live(&mut self, row: usize, live: bool) {
        let (w, b) = (row / 64, 1u64 << (row % 64));
        if live {
            self.live[w] |= b;
        } else {
            self.live[w] &= !b;
        }
    }

    /// Evaluates `column <cmp> rhs` over every slot of the segment into a
    /// selection vector (tombstoned slots and slots past the row count may
    /// carry garbage bits; callers mask with [`ColumnSegment::live_sel`]).
    /// Numeric columns build the selection 64 rows to a word; dictionary
    /// columns evaluate the operator once per *distinct pool value*, and a
    /// pool that passes or fails as a whole — a one-entry dictionary always
    /// does — decides the segment without reading a code.
    pub fn cmp_bitmap(&self, col: usize, cmp: ColCmp, rhs: &Value) -> SelVec {
        match (&self.cols[col], rhs) {
            (Column::Int(xs), Value::Int(c)) => SelVec::matching(xs, |x| cmp.pass_i64(x, *c)),
            (Column::Float(xs), Value::Float(c)) => SelVec::matching(xs, |x| cmp.pass_f64(x, *c)),
            (Column::Dict(d), rhs) => {
                // For equality the pass table has at most one `true` entry
                // (the pool is deduplicated), so the code loop *is* code
                // equality.
                let pass: Vec<bool> = d.pool.iter().map(|p| cmp.pass(p, rhs)).collect();
                if pass.iter().all(|p| *p) {
                    SelVec::all()
                } else if !pass.iter().any(|p| *p) {
                    SelVec::none()
                } else {
                    SelVec::matching(&d.codes, |code| pass[code as usize])
                }
            }
            // Cross-kind comparisons against a numeric column (e.g. an Int
            // column vs. a Float constant, or vs. a Str): fall back to the
            // row-at-a-time reference semantics per element.
            (col_ref, rhs) => {
                let mut out = SelVec::none();
                for i in 0..col_ref.len() {
                    if cmp.pass(&col_ref.value(i), rhs) {
                        out.set(i);
                    }
                }
                out
            }
        }
    }

    fn value(&self, col: usize, row: usize) -> Value {
        self.cols[col].value(row)
    }

    /// The physical representation of column `col` in this segment.
    pub fn col_kind(&self, col: usize) -> ColKind {
        match &self.cols[col] {
            Column::Int(_) => ColKind::Int,
            Column::Float(_) => ColKind::Float,
            Column::Dict(_) => ColKind::Dict,
        }
    }

    /// The raw `i64` vector of column `col`, if it is integer-typed in this
    /// segment (one entry per appended slot, tombstones included — mask with
    /// a live-anded [`SelVec`]).
    pub fn int_slice(&self, col: usize) -> Option<&[i64]> {
        match &self.cols[col] {
            Column::Int(xs) => Some(xs),
            _ => None,
        }
    }

    /// The raw `f64` vector of column `col`, if it is float-typed in this
    /// segment.
    pub fn float_slice(&self, col: usize) -> Option<&[f64]> {
        match &self.cols[col] {
            Column::Float(xs) => Some(xs),
            _ => None,
        }
    }

    /// The `(codes, pool)` pair of column `col`, if it is
    /// dictionary-encoded in this segment: one `u32` code per slot against
    /// a pool of distinct values.  GROUP BY kernels bucket by code and
    /// decode each group key once per segment.
    pub fn dict_parts(&self, col: usize) -> Option<(&[u32], &[Value])> {
        match &self.cols[col] {
            Column::Dict(d) => Some((&d.codes, &d.pool)),
            _ => None,
        }
    }

    /// The value stored in `(col, row)`, regardless of representation.  The
    /// row-at-a-time fallback for kernels that lack a typed fast path;
    /// callers are responsible for liveness masking.
    pub fn value_at(&self, col: usize, row: usize) -> Value {
        self.value(col, row)
    }
}

/// The physical representation a segment chose for one of its columns —
/// what [`ColumnSegment::int_slice`]/[`ColumnSegment::float_slice`]/
/// [`ColumnSegment::dict_parts`] will return `Some` for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColKind {
    /// Dense `i64` vector.
    Int,
    /// Dense `f64` vector.
    Float,
    /// Dictionary codes against a per-segment value pool.
    Dict,
}

/// Block column kind: `len` × i64, little-endian.
pub const COL_INT: u8 = 0;
/// Block column kind: `len` × f64 bit patterns, little-endian (NaN and
/// `-0.0` survive).
pub const COL_FLOAT: u8 = 1;
/// Block column kind: `[pool_len u32]`, the pool's values in the
/// type-tagged value codec, then `len` × u32 codes into the pool.
pub const COL_DICT: u8 = 2;

impl ColumnSegment {
    /// Appends the rows `sel` selects as a block's columns, one per
    /// attribute in canonical order (the caller writes the row count).
    /// `sel` must already be masked with the segment's live bitmap.  Integer
    /// and float columns are copied run by run of the selection; dictionary
    /// codes are renumbered in order of first use, so the pool holds only
    /// the values a selected row uses, and then copied the same way.
    pub fn put_block(&self, sel: &SelVec, out: &mut Vec<u8>) {
        let rows = sel.count();
        let (mut renumber, mut used) = (Vec::new(), Vec::new());
        for col in &self.cols {
            match col {
                Column::Int(xs) => {
                    put_u8(out, COL_INT);
                    put_selected(out, sel, rows, xs, i64::to_le_bytes);
                }
                Column::Float(xs) => {
                    put_u8(out, COL_FLOAT);
                    put_selected(out, sel, rows, xs, |x| x.to_bits().to_le_bytes());
                }
                Column::Dict(d) => {
                    renumber.clear();
                    renumber.resize(d.pool.len(), u32::MAX);
                    used.clear();
                    for run in sel.runs() {
                        for &code in &d.codes[run] {
                            let code = code as usize;
                            if renumber[code] == u32::MAX {
                                renumber[code] = used.len() as u32;
                                used.push(code);
                            }
                        }
                    }
                    put_u8(out, COL_DICT);
                    put_u32(out, used.len() as u32);
                    used.iter().for_each(|&code| put_value(out, &d.pool[code]));
                    put_selected(out, sel, rows, &d.codes, |code| {
                        renumber[code as usize].to_le_bytes()
                    });
                }
            }
        }
    }
}

/// Appends the `rows` values of `xs` that `sel` selects, as `W` bytes each:
/// the space is grown once, then filled one selection run at a time.
fn put_selected<T: Copy, const W: usize>(
    out: &mut Vec<u8>,
    sel: &SelVec,
    rows: usize,
    xs: &[T],
    bytes: impl Fn(T) -> [u8; W],
) {
    let at = out.len();
    out.resize(at + rows * W, 0);
    let mut dst = out[at..].chunks_exact_mut(W);
    for run in sel.runs() {
        // The run first: `zip` stops when its first iterator ends, so a
        // slot is taken only for a value that fills it.
        for (&x, slot) in xs[run].iter().zip(dst.by_ref()) {
            slot.copy_from_slice(&bytes(x));
        }
    }
}

/// One column of a block as it lies in its buffer, read by
/// [`BlockColumn::get`]: fixed-width values in place, or a decoded pool
/// with codes that are all checked against it.
pub struct BlockColumn<'a>(Block<'a>);

enum Block<'a> {
    Int(&'a [u8]),
    Float(&'a [u8]),
    Dict(Vec<Value>, &'a [u8]),
}

/// The `i`-th `N`-byte word of `bytes`.
fn word<const N: usize>(bytes: &[u8], i: usize) -> [u8; N] {
    bytes[i * N..(i + 1) * N]
        .try_into()
        .expect("a range of N bytes")
}

impl<'a> BlockColumn<'a> {
    /// Reads a column of `len` rows with one bounds check, decoding each
    /// pool value once and checking every code against the pool once.  A
    /// pool longer than the block, a code past its pool, an unknown kind or
    /// a column cut short is [`StorageError::Corruption`].
    pub fn get(cur: &mut Cursor<'a>, len: usize) -> Result<Self, StorageError> {
        let corrupt = |msg: String| Err(StorageError::Corruption(msg));
        Ok(BlockColumn(match cur.u8()? {
            COL_INT => Block::Int(cur.bytes(8 * len)?),
            COL_FLOAT => Block::Float(cur.bytes(8 * len)?),
            COL_DICT => {
                let pool_len = cur.u32()? as usize;
                if pool_len > len {
                    return corrupt(format!("a pool of {pool_len} values for {len} rows"));
                }
                let pool = (0..pool_len)
                    .map(|_| get_value(cur))
                    .collect::<Result<Vec<_>, _>>()?;
                let codes = cur.bytes(4 * len)?;
                if (0..len).any(|i| u32::from_le_bytes(word(codes, i)) as usize >= pool_len) {
                    return corrupt(format!("a code past its pool of {pool_len}"));
                }
                Block::Dict(pool, codes)
            }
            kind => return corrupt(format!("unknown column kind {kind}")),
        }))
    }

    /// The value in row `row` of the column.
    pub fn value(&self, row: usize) -> Value {
        match &self.0 {
            Block::Int(bytes) => Value::Int(i64::from_le_bytes(word(bytes, row))),
            Block::Float(bytes) => Value::Float(f64::from_le_bytes(word(bytes, row))),
            Block::Dict(pool, codes) => pool[u32::from_le_bytes(word(codes, row)) as usize].clone(),
        }
    }
}

impl From<BlockColumn<'_>> for Column {
    fn from(b: BlockColumn<'_>) -> Column {
        match b.0 {
            Block::Int(bytes) => Column::Int(
                (0..bytes.len() / 8)
                    .map(|i| i64::from_le_bytes(word(bytes, i)))
                    .collect(),
            ),
            Block::Float(bytes) => Column::Float(
                (0..bytes.len() / 8)
                    .map(|i| f64::from_le_bytes(word(bytes, i)))
                    .collect(),
            ),
            Block::Dict(pool, codes) => Column::Dict(DictColumn {
                codes: (0..codes.len() / 4)
                    .map(|i| u32::from_le_bytes(word(codes, i)))
                    .collect(),
                index: pool.iter().cloned().map(BitExact).zip(0..).collect(),
                pool,
            }),
        }
    }
}

/// Column-major tuple storage for one partition (one shape): stable
/// [`TupleId`]s, free-list slot reuse, per-segment copy-on-write.  Reads
/// materialize owned [`Tuple`]s (or hand out [`TupleRef`] views).
#[derive(Clone, Debug)]
pub struct ColumnHeap {
    shape: AttrSet,
    attrs: Arc<[Attr]>,
    segments: Vec<Arc<ColumnSegment>>,
    free: Vec<TupleId>,
    live: usize,
}

impl ColumnHeap {
    /// Creates an empty column heap for tuples of exactly `shape`.
    pub fn new(shape: AttrSet) -> Self {
        let attrs: Arc<[Attr]> = shape.to_vec().into();
        ColumnHeap {
            shape,
            attrs,
            segments: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Writes the heap's live rows as blocks (checkpoint image body):
    /// `[n_blocks]`, then for each segment with a live row `[len]` and
    /// [`ColumnSegment::put_block`] over its live slots.  Tombstones are not
    /// written.
    pub fn write_blocks(&self, out: &mut Vec<u8>) {
        let live = || self.segments.iter().filter(|s| s.live_count > 0);
        put_u32(out, live().count() as u32);
        for seg in live() {
            put_u32(out, seg.live_count as u32);
            seg.put_block(&seg.live_sel(), out);
        }
    }

    /// Reads a heap of `shape` written by [`ColumnHeap::write_blocks`]: one
    /// dense, all-live segment per block, with no free list.  A block of 0
    /// or more than [`SEGMENT_SIZE`] rows, or a column
    /// [`BlockColumn::get`] refuses, is [`StorageError::Corruption`].
    pub fn read_blocks(shape: AttrSet, cur: &mut Cursor<'_>) -> Result<Self, StorageError> {
        let mut heap = ColumnHeap::new(shape);
        for _ in 0..cur.u32()? {
            let len = cur.u32()? as usize;
            if !(1..=SEGMENT_SIZE).contains(&len) {
                return Err(StorageError::Corruption(format!(
                    "a block of {len} rows (1 to {SEGMENT_SIZE})"
                )));
            }
            let cols = (0..heap.attrs.len())
                .map(|_| BlockColumn::get(cur, len).map(Column::from))
                .collect::<Result<_, _>>()?;
            let mut seg = ColumnSegment {
                cols,
                rows: len,
                live: [0; SEGMENT_WORDS],
                live_count: len,
            };
            (0..len).for_each(|row| seg.set_live(row, true));
            heap.segments.push(Arc::new(seg));
            heap.live += len;
        }
        Ok(heap)
    }

    /// The shape every stored tuple is defined on.
    pub fn shape(&self) -> &AttrSet {
        &self.shape
    }

    /// The canonical column order: the shape's attributes in name order.
    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
    }

    /// The column index of `name`, if the shape contains it.  Columns are
    /// name-ordered, so this is a binary search.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.attrs.binary_search_by(|a| a.name().cmp(name)).ok()
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the heap holds no live tuple.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of segments (live or not) the heap has grown to.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The segment at index `si`, if it exists.
    pub fn segment(&self, si: usize) -> Option<&ColumnSegment> {
        self.segments.get(si).map(|s| &**s)
    }

    /// Iterates over the segments in order.
    pub fn segments(&self) -> impl Iterator<Item = &ColumnSegment> + '_ {
        self.segments.iter().map(|s| &**s)
    }

    fn check_shape(&self, t: &Tuple) {
        debug_assert_eq!(
            *t.shape(),
            self.shape,
            "tuple routed to a partition of another shape"
        );
    }

    /// Inserts a tuple and returns its identifier.  The values are copied
    /// into the columns, so the tuple is only borrowed.
    pub fn insert(&mut self, t: &Tuple) -> TupleId {
        self.check_shape(t);
        self.live += 1;
        // Tuple iteration is attribute-name order = the canonical column
        // order, so values line up with columns 1:1.
        if let Some(tid) = self.free.pop() {
            let seg = Arc::make_mut(&mut self.segments[tid.segment() as usize]);
            let row = tid.slot() as usize;
            for (col, (_, v)) in t.iter().enumerate() {
                seg.cols[col].set(row, v.clone());
            }
            seg.set_live(row, true);
            seg.live_count += 1;
            return tid;
        }
        if self.segments.last().map(|s| s.is_full()).unwrap_or(true) {
            self.segments
                .push(Arc::new(ColumnSegment::new(self.attrs.len())));
        }
        let segment = (self.segments.len() - 1) as u32;
        let seg = Arc::make_mut(
            self.segments
                .last_mut()
                .expect("just ensured a segment exists"),
        );
        let row = seg.rows;
        for (col, (_, v)) in t.iter().enumerate() {
            seg.cols[col].push(v.clone());
        }
        seg.rows += 1;
        seg.set_live(row, true);
        seg.live_count += 1;
        TupleId::new(segment, row as u32)
    }

    /// Materializes the tuple stored under `tid`, if it is live.
    pub fn get(&self, tid: TupleId) -> Option<Tuple> {
        self.get_ref(tid).map(|r| r.to_tuple())
    }

    /// A zero-copy view of the tuple under `tid`, if it is live.
    pub fn get_ref(&self, tid: TupleId) -> Option<TupleRef<'_>> {
        let seg = self.segments.get(tid.segment() as usize)?;
        let row = tid.slot() as usize;
        if !seg.is_live(row) {
            return None;
        }
        Some(TupleRef {
            heap: self,
            seg,
            row,
        })
    }

    /// Deletes the tuple under `tid`, returning it if it was live.
    pub fn delete(&mut self, tid: TupleId) -> Option<Tuple> {
        // Probe before copy-on-write: deleting a dead slot must not clone
        // the segment.
        let old = self.get(tid)?;
        let seg = Arc::make_mut(self.segments.get_mut(tid.segment() as usize)?);
        seg.set_live(tid.slot() as usize, false);
        seg.live_count -= 1;
        self.live -= 1;
        self.free.push(tid);
        Some(old)
    }

    /// Replaces the tuple under `tid`, returning the previous value.
    pub fn replace(&mut self, tid: TupleId, t: Tuple) -> Option<Tuple> {
        self.check_shape(&t);
        let old = self.get(tid)?;
        let seg = Arc::make_mut(self.segments.get_mut(tid.segment() as usize)?);
        let row = tid.slot() as usize;
        for (col, (_, v)) in t.iter().enumerate() {
            seg.cols[col].set(row, v.clone());
        }
        Some(old)
    }

    /// Number of slots segment `si` currently holds (≤ [`SEGMENT_SIZE`]).
    pub fn segment_len(&self, si: usize) -> usize {
        self.segments.get(si).map(|s| s.rows).unwrap_or(0)
    }

    /// Materializes the tuple in slot `(si, slot)`, if that slot is live.
    /// Used by snapshot iterators that walk a heap positionally (see
    /// [`crate::partition::SnapshotScan`]).
    pub fn slot_get(&self, si: usize, slot: usize) -> Option<Tuple> {
        self.get(TupleId::new(si as u32, slot as u32))
    }

    /// Materializes the row `row` of segment `seg` (which must belong to
    /// this heap) without a liveness check — the fast path under a selection
    /// vector already masked by [`ColumnSegment::live_sel`].
    pub fn materialize(&self, seg: &ColumnSegment, row: usize) -> Tuple {
        Tuple::from_shape_values(
            self.shape.clone(),
            &self.attrs,
            (0..self.attrs.len()).map(|c| seg.value(c, row)),
        )
    }

    /// Materializes every selected row of segment `si` into `out`.  `sel`
    /// must already be masked with the segment's live bitmap.
    pub fn materialize_selected(&self, si: usize, sel: &SelVec, out: &mut Vec<Tuple>) {
        if let Some(seg) = self.segments.get(si) {
            for row in sel.iter() {
                out.push(self.materialize(seg, row));
            }
        }
    }

    /// Iterates over all live tuples as zero-copy views with their
    /// identifiers.
    pub fn scan(&self) -> impl Iterator<Item = (TupleId, TupleRef<'_>)> + '_ {
        self.segments.iter().enumerate().flat_map(move |(si, seg)| {
            (0..seg.rows).filter_map(move |row| {
                if seg.is_live(row) {
                    Some((
                        TupleId::new(si as u32, row as u32),
                        TupleRef {
                            heap: self,
                            seg,
                            row,
                        },
                    ))
                } else {
                    None
                }
            })
        })
    }

    /// Materializes all live tuples.
    pub fn all_tuples(&self) -> Vec<Tuple> {
        self.scan().map(|(_, r)| r.to_tuple()).collect()
    }
}

/// A zero-copy view of one stored row: shape and attribute order come from
/// the owning [`ColumnHeap`], values are read straight out of the columns.
/// Materialize with [`TupleRef::to_tuple`] only when an owned [`Tuple`] is
/// actually needed (operator boundaries, client results).
#[derive(Clone, Copy, Debug)]
pub struct TupleRef<'a> {
    heap: &'a ColumnHeap,
    seg: &'a ColumnSegment,
    row: usize,
}

impl TupleRef<'_> {
    /// The shape (`attr(t)`) of the viewed tuple — the partition's shape.
    pub fn shape(&self) -> &AttrSet {
        &self.heap.shape
    }

    /// Whether the viewed tuple is defined on all of `x` (a shape-level
    /// fact: every tuple of the partition answers alike).
    pub fn defined_on(&self, x: &AttrSet) -> bool {
        x.is_subset(&self.heap.shape)
    }

    /// The value under attribute `name`, if the shape contains it.
    pub fn get_name(&self, name: &str) -> Option<Value> {
        let col = self.heap.col_index(name)?;
        Some(self.seg.value(col, self.row))
    }

    /// The value under `a`, if the shape contains it.
    pub fn get(&self, a: &Attr) -> Option<Value> {
        self.get_name(a.name())
    }

    /// Whether the viewed row equals `t` (same shape, same values).
    pub fn eq_tuple(&self, t: &Tuple) -> bool {
        if *t.shape() != self.heap.shape {
            return false;
        }
        t.iter()
            .enumerate()
            .all(|(col, (_, v))| self.seg.value(col, self.row) == *v)
    }

    /// Materializes the view as an owned [`Tuple`].
    pub fn to_tuple(&self) -> Tuple {
        self.heap.materialize(self.seg, self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::tuple;

    fn heap_of(shape: &Tuple) -> ColumnHeap {
        ColumnHeap::new(shape.attrs())
    }

    #[test]
    fn insert_get_delete_and_slot_reuse() {
        let proto = tuple! {"x" => 1};
        let mut h = heap_of(&proto);
        assert!(h.is_empty());
        let a = h.insert(&tuple! {"x" => 1});
        let b = h.insert(&tuple! {"x" => 2});
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(a), Some(tuple! {"x" => 1}));
        assert_eq!(h.get(b), Some(tuple! {"x" => 2}));
        assert_eq!(h.delete(a), Some(tuple! {"x" => 1}));
        assert_eq!(h.get(a), None);
        assert_eq!(h.delete(a), None, "double delete is a no-op");
        let c = h.insert(&tuple! {"x" => 3});
        assert_eq!(c, a, "tombstoned slot is reused");
        assert_eq!(h.get(c), Some(tuple! {"x" => 3}));
    }

    #[test]
    fn mixed_kinds_promote_to_dictionary_and_round_trip() {
        let proto = tuple! {"v" => 1};
        let mut h = heap_of(&proto);
        let a = h.insert(&tuple! {"v" => 1});
        let b = h.insert(&tuple! {"v" => 2.5});
        let c = h.insert(&tuple! {"v" => Value::str("s")});
        let d = h.insert(&tuple! {"v" => Value::tag("s")});
        let e = h.insert(&tuple! {"v" => true});
        assert_eq!(h.get(a), Some(tuple! {"v" => 1}), "Int survives promotion");
        assert_eq!(h.get(b), Some(tuple! {"v" => 2.5}));
        assert_eq!(h.get(c), Some(tuple! {"v" => Value::str("s")}));
        assert_eq!(
            h.get(d),
            Some(tuple! {"v" => Value::tag("s")}),
            "Str and Tag stay distinct in the pool"
        );
        assert_eq!(h.get(e), Some(tuple! {"v" => true}));
    }

    #[test]
    fn replace_keeps_identity_and_reencodes() {
        let proto = tuple! {"x" => 1, "y" => 2};
        let mut h = heap_of(&proto);
        let a = h.insert(&tuple! {"x" => 1, "y" => 2});
        let old = h.replace(a, tuple! {"x" => 10, "y" => 2.5});
        assert_eq!(old, Some(tuple! {"x" => 1, "y" => 2}));
        assert_eq!(h.get(a), Some(tuple! {"x" => 10, "y" => 2.5}));
        h.delete(a);
        assert_eq!(h.replace(a, tuple! {"x" => 0, "y" => 0}), None);
    }

    #[test]
    fn cmp_bitmap_matches_row_semantics() {
        let proto = tuple! {"n" => 0, "s" => Value::str("")};
        let mut h = heap_of(&proto);
        for i in 0..200i64 {
            h.insert(&tuple! {"n" => i, "s" => Value::str(format!("s{}", i % 7))});
        }
        let seg = h.segment(0).unwrap();
        let n = h.col_index("n").unwrap();
        let s = h.col_index("s").unwrap();
        for (cmp, expect) in [
            (ColCmp::Eq, (0..200).filter(|i| *i == 42).count()),
            (ColCmp::Ne, (0..200).filter(|i| *i != 42).count()),
            (ColCmp::Lt, (0..200).filter(|i| *i < 42).count()),
            (ColCmp::Le, (0..200).filter(|i| *i <= 42).count()),
            (ColCmp::Gt, (0..200).filter(|i| *i > 42).count()),
            (ColCmp::Ge, (0..200).filter(|i| *i >= 42).count()),
        ] {
            let mut sel = seg.cmp_bitmap(n, cmp, &Value::Int(42));
            sel.and(&seg.live_sel());
            assert_eq!(sel.count(), expect, "{:?}", cmp);
        }
        let mut sel = seg.cmp_bitmap(s, ColCmp::Eq, &Value::str("s3"));
        sel.and(&seg.live_sel());
        assert_eq!(sel.count(), (0..200).filter(|i| i % 7 == 3).count());
        // Equality is kind-strict: an Int column never equals a Float.
        let sel = seg.cmp_bitmap(n, ColCmp::Eq, &Value::Float(42.0));
        assert_eq!(sel.count(), 0);
        // But ordering compares numerically, like Value::cmp.
        let mut sel = seg.cmp_bitmap(n, ColCmp::Lt, &Value::Float(2.5));
        sel.and(&seg.live_sel());
        assert_eq!(sel.count(), 3);
        // A Tag constant never matches a Str pool entry.
        let sel = seg.cmp_bitmap(s, ColCmp::Eq, &Value::tag("s3"));
        assert_eq!(sel.count(), 0);
    }

    #[test]
    fn selection_iterates_set_bits_in_order() {
        let mut sel = SelVec::none();
        assert!(sel.is_empty());
        for row in [0, 1, 63, 64, 700, 1023] {
            sel.set(row);
        }
        assert_eq!(
            sel.iter().collect::<Vec<_>>(),
            vec![0, 1, 63, 64, 700, 1023]
        );
        assert_eq!(sel.count(), 6);
        assert!(sel.contains(700) && !sel.contains(2));
        let mut inv = sel;
        inv.not();
        assert_eq!(inv.count(), SEGMENT_SIZE - 6);
        inv.and(&sel);
        assert!(inv.is_empty());
        let mut all = SelVec::all();
        all.and(&sel);
        assert_eq!(all, sel);
        let mut o = SelVec::none();
        o.or(&sel);
        assert_eq!(o.count(), 6);
    }

    #[test]
    fn selection_runs_are_the_maximal_runs_of_set_bits() {
        let runs = |sel: &SelVec| sel.runs().collect::<Vec<_>>();
        assert!(runs(&SelVec::none()).is_empty());
        assert_eq!(runs(&SelVec::all()), vec![0..SEGMENT_SIZE]);
        let mut sel = SelVec::none();
        for row in [0, 2, 3, 63, 64, 65, 127, 128, 1023] {
            sel.set(row);
        }
        (200..700).for_each(|r| sel.set(r));
        assert_eq!(
            runs(&sel),
            vec![0..1, 2..4, 63..66, 127..129, 200..700, 1023..1024]
        );
        // Random patterns of every density: the runs cover exactly the set
        // bits, in order, and no two of them touch.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for density in 0..=8u64 {
            let mut sel = SelVec::none();
            for row in 0..SEGMENT_SIZE {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state % 8 < density {
                    sel.set(row);
                }
            }
            let runs = runs(&sel);
            let rows: Vec<usize> = runs.iter().cloned().flatten().collect();
            assert_eq!(rows, sel.iter().collect::<Vec<_>>());
            assert!(runs.iter().all(|r| !r.is_empty()));
            assert!(runs.windows(2).all(|w| w[0].end < w[1].start));
        }
    }

    #[test]
    fn a_pool_that_passes_or_fails_whole_decides_the_segment() {
        let mut h = heap_of(&tuple! {"k" => Value::tag("k0"), "n" => 0});
        for i in 0..100i64 {
            h.insert(&tuple! {"k" => Value::tag("k0"), "n" => i});
        }
        let seg = h.segment(0).unwrap();
        let k = h.col_index("k").unwrap();
        // A one-entry pool: every slot, past the row count too, is decided
        // at once; the live mask brings the selection back to the rows.
        let sel = seg.cmp_bitmap(k, ColCmp::Eq, &Value::tag("k0"));
        assert_eq!(sel.count(), SEGMENT_SIZE);
        let mut live = sel;
        live.and(&seg.live_sel());
        assert_eq!(live.count(), 100);
        assert!(seg.cmp_bitmap(k, ColCmp::Ne, &Value::tag("k0")).is_empty());
        assert!(seg.cmp_bitmap(k, ColCmp::Eq, &Value::str("k0")).is_empty());
        // A multi-entry pool that passes as a whole is decided the same way.
        let mut h = heap_of(&tuple! {"s" => Value::str("")});
        for i in 0..100 {
            h.insert(&tuple! {"s" => Value::str(format!("s{}", i % 3))});
        }
        let seg = h.segment(0).unwrap();
        let sel = seg.cmp_bitmap(0, ColCmp::Lt, &Value::str("t"));
        assert_eq!(sel.count(), SEGMENT_SIZE);
        let sel = seg.cmp_bitmap(0, ColCmp::Lt, &Value::str("s1"));
        assert_eq!(sel.count(), 34, "a split pool reads the codes");
    }

    #[test]
    fn tuple_ref_views_without_materializing() {
        let proto = tuple! {"a" => 1, "b" => Value::tag("t")};
        let mut h = heap_of(&proto);
        let id = h.insert(&tuple! {"a" => 7, "b" => Value::tag("t")});
        let r = h.get_ref(id).unwrap();
        assert_eq!(r.get_name("a"), Some(Value::Int(7)));
        assert_eq!(r.get_name("missing"), None);
        assert!(r.defined_on(&proto.attrs()));
        assert!(r.eq_tuple(&tuple! {"a" => 7, "b" => Value::tag("t")}));
        assert!(!r.eq_tuple(&tuple! {"a" => 8, "b" => Value::tag("t")}));
        assert!(!r.eq_tuple(&tuple! {"a" => 7}));
        assert_eq!(r.to_tuple(), tuple! {"a" => 7, "b" => Value::tag("t")});
    }

    #[test]
    fn identifiers_are_stable_across_growth() {
        let proto = tuple! {"x" => 0};
        let mut h = heap_of(&proto);
        let ids: Vec<TupleId> = (0..3000)
            .map(|i| h.insert(&tuple! {"x" => i as i64}))
            .collect();
        assert_eq!(h.len(), 3000);
        assert!(h.segment_count() > 1, "spans several segments");
        for (i, tid) in ids.iter().enumerate() {
            assert_eq!(
                h.get(*tid).and_then(|t| t.get_name("x").cloned()),
                Some(Value::Int(i as i64))
            );
        }
        assert_eq!(h.all_tuples().len(), 3000);
        assert_eq!(h.scan().count(), 3000);
    }

    #[test]
    fn scan_yields_only_live_tuples() {
        let mut h = heap_of(&tuple! {"x" => 0});
        let a = h.insert(&tuple! {"x" => 1});
        let _b = h.insert(&tuple! {"x" => 2});
        let c = h.insert(&tuple! {"x" => 3});
        h.delete(a);
        h.delete(c);
        let live: Vec<Tuple> = h.scan().map(|(_, r)| r.to_tuple()).collect();
        assert_eq!(live, vec![tuple! {"x" => 2}]);
        assert_eq!(h.all_tuples(), live);
    }

    #[test]
    fn segments_round_trip_through_the_checkpoint_codec() {
        let proto = tuple! {"n" => 0, "f" => 0.0, "s" => Value::str("")};
        let mut h = heap_of(&proto);
        let ids: Vec<TupleId> = (0..2100i64)
            .map(|i| {
                // Row 5 promotes segment 0's `n` to a dictionary.
                let n = if i == 5 {
                    Value::str("five")
                } else {
                    Value::Int(i)
                };
                let f = [-0.0, f64::NAN, i as f64 / 3.0][i as usize % 3];
                h.insert(&tuple! {"n" => n, "f" => f, "s" => Value::str(format!("s{}", i % 11))})
            })
            .collect();
        // Punch holes, and empty the middle segment entirely.
        for tid in ids
            .iter()
            .step_by(7)
            .chain(&ids[SEGMENT_SIZE..2 * SEGMENT_SIZE])
        {
            h.delete(*tid);
        }
        assert_eq!(
            h.segment(0).unwrap().col_kind(h.col_index("n").unwrap()),
            ColKind::Dict
        );
        let mut bytes = Vec::new();
        h.write_blocks(&mut bytes);
        let mut cur = Cursor::new(&bytes);
        let mut back = ColumnHeap::read_blocks(h.shape().clone(), &mut cur).unwrap();
        assert!(cur.is_empty());
        assert_eq!(back.len(), h.len());
        // Bit-identical contents (`-0.0` and NaN included), in scan order.
        assert_eq!(
            format!("{:?}", back.all_tuples()),
            format!("{:?}", h.all_tuples())
        );
        // Only live rows are stored: the empty segment is gone and every
        // read segment is dense, so the reread heap writes the same bytes.
        assert_eq!(back.segment_count(), 2);
        assert!(back.segments().all(|s| s.rows() == s.live_count()));
        let mut again = Vec::new();
        back.write_blocks(&mut again);
        assert_eq!(again, bytes);
        // With no free list, the next insert appends.
        let id = back.insert(&tuple! {"n" => -1, "f" => -1.0, "s" => Value::str("new")});
        assert_eq!(id.segment(), 1);
        assert_eq!(id.slot() as usize, back.segment_len(1) - 1);
        assert_eq!(back.len(), h.len() + 1);
    }

    #[test]
    fn dictionary_pools_are_bit_exact_through_replies_and_checkpoints() {
        let mut h = heap_of(&tuple! {"v" => Value::str("")});
        h.insert(&tuple! {"v" => Value::str("one")});
        // 1 000 NaN and 1 000 × 1.5 churn through two slots of one segment.
        for i in 0..1000 {
            let nan = h.insert(&tuple! {"v" => f64::NAN});
            let x = h.insert(&tuple! {"v" => 1.5});
            if i < 999 {
                h.delete(nan);
                h.delete(x);
            }
        }
        assert_eq!(h.segment_count(), 1);
        let pool_len = |h: &ColumnHeap| h.segment(0).unwrap().dict_parts(0).unwrap().1.len();
        assert_eq!(pool_len(&h), 3, "one string, one NaN, one 1.5");
        h.insert(&tuple! {"v" => 0.0});
        h.insert(&tuple! {"v" => -0.0});
        assert_eq!(pool_len(&h), 5, "0.0 and -0.0 are two entries");
        let bits = |v: Value| match v {
            Value::Float(f) => Some(f.to_bits()),
            _ => None,
        };
        let held: Vec<_> = h
            .all_tuples()
            .iter()
            .map(|t| bits(t.get_name("v").unwrap().clone()))
            .collect();
        for zero in [0.0f64, -0.0] {
            assert!(held.contains(&Some(zero.to_bits())));
        }
        // A reply block carries the live rows in slot order.
        let seg = h.segment(0).unwrap();
        let mut block = Vec::new();
        seg.put_block(&seg.live_sel(), &mut block);
        let mut cur = Cursor::new(&block);
        let col = BlockColumn::get(&mut cur, seg.live_count()).unwrap();
        let replied: Vec<_> = (0..seg.live_count()).map(|r| bits(col.value(r))).collect();
        assert_eq!(replied, held);
        // So does a checkpoint image.
        let mut image = Vec::new();
        h.write_blocks(&mut image);
        let back = ColumnHeap::read_blocks(h.shape().clone(), &mut Cursor::new(&image)).unwrap();
        let reread: Vec<_> = back
            .all_tuples()
            .iter()
            .map(|t| bits(t.get_name("v").unwrap().clone()))
            .collect();
        assert_eq!(reread, held);
        assert_eq!(pool_len(&back), 5);
    }

    #[test]
    fn checkpoint_blocks_reject_structural_corruption() {
        let proto = tuple! {"n" => 0, "s" => Value::str("")};
        let mut h = heap_of(&proto);
        for i in 0..10i64 {
            h.insert(&tuple! {"n" => i, "s" => Value::str("x")});
        }
        let mut bytes = Vec::new();
        h.write_blocks(&mut bytes);
        let read = |b: &[u8]| ColumnHeap::read_blocks(h.shape().clone(), &mut Cursor::new(b));
        assert_eq!(read(&bytes).unwrap().all_tuples(), h.all_tuples());
        // `[n_blocks][len]`, then `n` (kind + 10 × i64), then `s` (kind,
        // pool of one, 10 codes).
        let dict = 8 + 1 + 8 * 10;
        let forged = |at: usize, word: &[u8]| {
            let mut bad = bytes.clone();
            bad[at..at + word.len()].copy_from_slice(word);
            bad
        };
        for (label, bad) in [
            ("an empty block", forged(4, &0u32.to_le_bytes())),
            (
                "a block past a segment",
                forged(4, &(SEGMENT_SIZE as u32 + 1).to_le_bytes()),
            ),
            ("an unknown column kind", forged(8, &[9])),
            (
                "a pool longer than its block",
                forged(dict + 1, &11u32.to_le_bytes()),
            ),
            (
                "a code past its pool",
                forged(bytes.len() - 4, &1u32.to_le_bytes()),
            ),
            ("a truncated block", bytes[..bytes.len() - 1].to_vec()),
        ] {
            let err = read(&bad).map(|_| ()).unwrap_err();
            assert!(err.is_corruption(), "{label}: {err}");
        }
    }

    #[test]
    fn cow_segments_preserve_snapshots() {
        let proto = tuple! {"x" => 0};
        let mut h = heap_of(&proto);
        let a = h.insert(&tuple! {"x" => 1});
        let snapshot = h.clone();
        h.delete(a);
        h.insert(&tuple! {"x" => 99});
        assert_eq!(snapshot.get(a), Some(tuple! {"x" => 1}), "snapshot frozen");
        assert_eq!(h.get(a), Some(tuple! {"x" => 99}), "slot reused in head");
    }
}
