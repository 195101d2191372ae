//! Binary codecs shared by the WAL and checkpoint formats.
//!
//! Everything durable is encoded with these helpers: little-endian
//! fixed-width integers, length-prefixed UTF-8 strings, and a hand-rolled
//! CRC-32 (IEEE 802.3 polynomial — the build environment has no registry
//! access, so no external crate).  Two framing rules hold everywhere:
//!
//! * **Attribute identity is by name.**  The process-local interners
//!   ([`AttrUniverse`](flexrel_core::attr::AttrUniverse),
//!   [`ShapeId`](flexrel_core::tuple::ShapeId)) hand out ids in first-come
//!   order, so ids are *not* stable across runs; every persisted attribute
//!   set is a list of names in the canonical (lexicographic) order, and is
//!   re-interned on decode.
//! * **Tuples are value lists in canonical order.**  Given a shape, a
//!   tuple's values are stored in the shape's attribute-name order — the
//!   same order [`ColumnHeap`](crate::column::ColumnHeap) stores columns in
//!   and [`Tuple::iter`] yields, so encode and decode are zip loops.
//!
//! Decoding is total: every reader returns
//! [`StorageError::Corruption`] instead of panicking on truncated or
//! malformed input, which is what lets recovery treat a torn WAL tail as
//! data (truncate and continue) rather than as a crash.

use std::collections::BTreeMap;
use std::sync::Arc;

use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::dep::{Dependency, DependencySet, Ead, EadVariant};
use flexrel_core::scheme::{Component, FlexScheme};
use flexrel_core::tuple::Tuple;
use flexrel_core::value::{Domain, Value};

use crate::catalog::RelationDef;
use crate::errors::StorageError;

/// A decode error with positional context.
fn corrupt(what: &str) -> StorageError {
    StorageError::Corruption(format!("decode: {}", what))
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slice-by-8.
// ---------------------------------------------------------------------------

/// The eight lookup tables of slice-by-8: `T[0]` is the classic bytewise
/// table, and `T[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight input bytes fold into the register with eight independent
/// lookups instead of eight dependent ones.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// The CRC-32 (IEEE) checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for b in words.remainder() {
        c = t[0][((c ^ *b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Primitive writers (on Vec<u8>) and the bounds-checked reader.
// ---------------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its exact bit pattern (NaN-preserving).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over a byte slice.  Every accessor fails with
/// [`StorageError::Corruption`] instead of panicking when the input is
/// truncated — torn frames are data, not crashes.
#[derive(Clone, Copy, Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads the next `n` bytes as one slice, so a whole fixed-width column
    /// costs one bounds check.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return Err(corrupt("truncated input"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, StorageError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, StorageError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(corrupt("string length past end of input"));
        }
        std::str::from_utf8(self.bytes(n)?).map_err(|_| corrupt("invalid utf-8 in string"))
    }
}

// ---------------------------------------------------------------------------
// Frames: [len: u32][crc: u32][payload; len bytes], crc over the payload.
// ---------------------------------------------------------------------------

/// Upper bound on a single frame's payload — anything larger is treated as
/// corruption (a flipped bit in the length prefix must not allocate gigabytes).
pub const MAX_FRAME_LEN: u32 = 1 << 28;

/// Appends one `[len][crc][payload]` frame.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

/// The outcome of reading one frame at a byte offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameRead<'a> {
    /// A complete, CRC-valid frame; `next` is the offset just past it.
    Frame {
        /// The frame payload (the bytes the CRC covered).
        payload: &'a [u8],
        /// The byte offset of the next frame.
        next: usize,
    },
    /// A clean end of input: `offset` points exactly at the end.
    Eof,
    /// A torn or corrupted frame (truncated header/payload, impossible
    /// length, or CRC mismatch).  Everything from `offset` on is garbage;
    /// recovery truncates here.
    Corrupt,
}

/// Reads the frame starting at `offset`, distinguishing clean EOF from a
/// torn or corrupted tail.
pub fn read_frame(buf: &[u8], offset: usize) -> FrameRead<'_> {
    if offset == buf.len() {
        return FrameRead::Eof;
    }
    if buf.len() - offset < 8 {
        return FrameRead::Corrupt;
    }
    let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap());
    let crc = u32::from_le_bytes(buf[offset + 4..offset + 8].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return FrameRead::Corrupt;
    }
    let start = offset + 8;
    let end = match start.checked_add(len as usize) {
        Some(e) if e <= buf.len() => e,
        _ => return FrameRead::Corrupt,
    };
    let payload = &buf[start..end];
    if crc32(payload) != crc {
        return FrameRead::Corrupt;
    }
    FrameRead::Frame { payload, next: end }
}

// ---------------------------------------------------------------------------
// Values.
// ---------------------------------------------------------------------------

const VAL_INT: u8 = 0;
const VAL_FLOAT: u8 = 1;
const VAL_STR: u8 = 2;
const VAL_BOOL: u8 = 3;
const VAL_TAG: u8 = 4;
const VAL_NULL: u8 = 5;

/// Appends one [`Value`].
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            put_u8(out, VAL_INT);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            put_u8(out, VAL_FLOAT);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            put_u8(out, VAL_STR);
            put_str(out, s);
        }
        Value::Bool(b) => {
            put_u8(out, VAL_BOOL);
            put_u8(out, *b as u8);
        }
        Value::Tag(s) => {
            put_u8(out, VAL_TAG);
            put_str(out, s);
        }
        Value::Null => put_u8(out, VAL_NULL),
    }
}

/// Reads one [`Value`].
pub fn get_value(cur: &mut Cursor<'_>) -> Result<Value, StorageError> {
    match cur.u8()? {
        VAL_INT => Ok(Value::Int(cur.i64()?)),
        VAL_FLOAT => Ok(Value::Float(cur.f64()?)),
        VAL_STR => Ok(Value::Str(Arc::from(cur.str()?))),
        VAL_BOOL => Ok(Value::Bool(match cur.u8()? {
            0 => false,
            1 => true,
            _ => return Err(corrupt("bool out of range")),
        })),
        VAL_TAG => Ok(Value::Tag(Arc::from(cur.str()?))),
        VAL_NULL => Ok(Value::Null),
        t => Err(corrupt(&format!("unknown value tag {}", t))),
    }
}

// ---------------------------------------------------------------------------
// Attribute sets (as name lists, canonical order) and tuples.
// ---------------------------------------------------------------------------

/// Appends an [`AttrSet`] as its attribute names in canonical order.
pub fn put_attrs(out: &mut Vec<u8>, attrs: &AttrSet) {
    put_u32(out, attrs.len() as u32);
    for a in attrs.iter() {
        put_str(out, a.name());
    }
}

/// Reads an [`AttrSet`], re-interning each name in this process's universe.
pub fn get_attrs(cur: &mut Cursor<'_>) -> Result<AttrSet, StorageError> {
    let n = cur.u32()? as usize;
    let mut set = AttrSet::empty();
    for _ in 0..n {
        set.insert(Attr::new(cur.str()?));
    }
    Ok(set)
}

/// Appends a tuple as `(name, value)` pairs in canonical order —
/// self-describing, used where no shape table is in scope (EAD variant
/// values inside a [`RelationDef`]).
pub fn put_named_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_u32(out, t.shape().len() as u32);
    for (a, v) in t.iter() {
        put_str(out, a.name());
        put_value(out, v);
    }
}

/// Reads a self-describing tuple.
pub fn get_named_tuple(cur: &mut Cursor<'_>) -> Result<Tuple, StorageError> {
    let n = cur.u32()? as usize;
    let mut t = Tuple::new();
    for _ in 0..n {
        let name = cur.str()?.to_string();
        let v = get_value(cur)?;
        t.insert(name.as_str(), v);
    }
    Ok(t)
}

/// Appends a tuple's values in the canonical order of its shape (the
/// caller has persisted the shape separately).  [`Tuple::iter`] yields
/// attribute-name order, which *is* the canonical column order.
pub fn put_shaped_values(out: &mut Vec<u8>, t: &Tuple) {
    for (_, v) in t.iter() {
        put_value(out, v);
    }
}

/// Reads the values of a tuple of the given shape (canonical order) and
/// rebuilds the tuple via the canonical-order fast path, one allocation.
pub fn get_shaped_values(
    cur: &mut Cursor<'_>,
    shape: &AttrSet,
    attrs: &Arc<[Attr]>,
) -> Result<Tuple, StorageError> {
    Tuple::try_from_shape_values(shape.clone(), attrs, || get_value(cur))
}

// ---------------------------------------------------------------------------
// Domains.
// ---------------------------------------------------------------------------

const DOM_INT: u8 = 0;
const DOM_INT_RANGE: u8 = 1;
const DOM_FLOAT: u8 = 2;
const DOM_TEXT: u8 = 3;
const DOM_BOOL: u8 = 4;
const DOM_ENUM: u8 = 5;
const DOM_FINITE: u8 = 6;
const DOM_ANY: u8 = 7;

/// Appends one [`Domain`].
pub fn put_domain(out: &mut Vec<u8>, d: &Domain) {
    match d {
        Domain::Int => put_u8(out, DOM_INT),
        Domain::IntRange(lo, hi) => {
            put_u8(out, DOM_INT_RANGE);
            put_i64(out, *lo);
            put_i64(out, *hi);
        }
        Domain::Float => put_u8(out, DOM_FLOAT),
        Domain::Text => put_u8(out, DOM_TEXT),
        Domain::Bool => put_u8(out, DOM_BOOL),
        Domain::Enum(tags) => {
            put_u8(out, DOM_ENUM);
            put_u32(out, tags.len() as u32);
            for t in tags {
                put_str(out, t);
            }
        }
        Domain::Finite(vals) => {
            put_u8(out, DOM_FINITE);
            put_u32(out, vals.len() as u32);
            for v in vals {
                put_value(out, v);
            }
        }
        Domain::Any => put_u8(out, DOM_ANY),
    }
}

/// Reads one [`Domain`].
pub fn get_domain(cur: &mut Cursor<'_>) -> Result<Domain, StorageError> {
    match cur.u8()? {
        DOM_INT => Ok(Domain::Int),
        DOM_INT_RANGE => Ok(Domain::IntRange(cur.i64()?, cur.i64()?)),
        DOM_FLOAT => Ok(Domain::Float),
        DOM_TEXT => Ok(Domain::Text),
        DOM_BOOL => Ok(Domain::Bool),
        DOM_ENUM => {
            let n = cur.u32()? as usize;
            let mut tags = std::collections::BTreeSet::new();
            for _ in 0..n {
                tags.insert(cur.str()?.to_string());
            }
            Ok(Domain::Enum(tags))
        }
        DOM_FINITE => {
            let n = cur.u32()? as usize;
            let mut vals = std::collections::BTreeSet::new();
            for _ in 0..n {
                vals.insert(get_value(cur)?);
            }
            Ok(Domain::Finite(vals))
        }
        DOM_ANY => Ok(Domain::Any),
        t => Err(corrupt(&format!("unknown domain tag {}", t))),
    }
}

// ---------------------------------------------------------------------------
// Schemes, dependencies, relation definitions (the checkpoint catalog).
// ---------------------------------------------------------------------------

const COMP_ATTR: u8 = 0;
const COMP_SCHEME: u8 = 1;

fn put_component(out: &mut Vec<u8>, c: &Component) {
    match c {
        Component::Attr(a) => {
            put_u8(out, COMP_ATTR);
            put_str(out, a.name());
        }
        Component::Scheme(s) => {
            put_u8(out, COMP_SCHEME);
            put_scheme(out, s);
        }
    }
}

fn get_component(cur: &mut Cursor<'_>) -> Result<Component, StorageError> {
    match cur.u8()? {
        COMP_ATTR => Ok(Component::Attr(Attr::new(cur.str()?))),
        COMP_SCHEME => Ok(Component::Scheme(get_scheme(cur)?)),
        t => Err(corrupt(&format!("unknown component tag {}", t))),
    }
}

/// Appends one [`FlexScheme`] (cardinalities + components, recursively).
pub fn put_scheme(out: &mut Vec<u8>, s: &FlexScheme) {
    put_u32(out, s.at_least() as u32);
    put_u32(out, s.at_most() as u32);
    put_u32(out, s.components().len() as u32);
    for c in s.components() {
        put_component(out, c);
    }
}

/// Reads one [`FlexScheme`]; the stored scheme was valid when written, so a
/// failing revalidation is corruption, not a user error.
pub fn get_scheme(cur: &mut Cursor<'_>) -> Result<FlexScheme, StorageError> {
    let at_least = cur.u32()? as usize;
    let at_most = cur.u32()? as usize;
    let n = cur.u32()? as usize;
    let mut comps = Vec::with_capacity(n);
    for _ in 0..n {
        comps.push(get_component(cur)?);
    }
    FlexScheme::new(at_least, at_most, comps)
        .map_err(|e| corrupt(&format!("stored scheme failed revalidation: {}", e)))
}

const DEP_AD: u8 = 0;
const DEP_FD: u8 = 1;
const DEP_EAD: u8 = 2;

/// Appends one [`Dependency`].
pub fn put_dependency(out: &mut Vec<u8>, d: &Dependency) {
    match d {
        Dependency::Ad(ad) => {
            put_u8(out, DEP_AD);
            put_attrs(out, ad.lhs());
            put_attrs(out, ad.rhs());
        }
        Dependency::Fd(fd) => {
            put_u8(out, DEP_FD);
            put_attrs(out, fd.lhs());
            put_attrs(out, fd.rhs());
        }
        Dependency::Ead(ead) => {
            put_u8(out, DEP_EAD);
            put_attrs(out, ead.lhs());
            put_attrs(out, ead.rhs());
            put_u32(out, ead.variants().len() as u32);
            for v in ead.variants() {
                put_attrs(out, &v.attrs);
                put_u32(out, v.values.len() as u32);
                for val in &v.values {
                    put_named_tuple(out, val);
                }
            }
        }
    }
}

/// Reads one [`Dependency`].
pub fn get_dependency(cur: &mut Cursor<'_>) -> Result<Dependency, StorageError> {
    match cur.u8()? {
        DEP_AD => {
            let lhs = get_attrs(cur)?;
            let rhs = get_attrs(cur)?;
            Ok(Dependency::Ad(flexrel_core::dep::Ad::new(lhs, rhs)))
        }
        DEP_FD => {
            let lhs = get_attrs(cur)?;
            let rhs = get_attrs(cur)?;
            Ok(Dependency::Fd(flexrel_core::dep::Fd::new(lhs, rhs)))
        }
        DEP_EAD => {
            let lhs = get_attrs(cur)?;
            let rhs = get_attrs(cur)?;
            let n = cur.u32()? as usize;
            let mut variants = Vec::with_capacity(n);
            for _ in 0..n {
                let attrs = get_attrs(cur)?;
                let m = cur.u32()? as usize;
                let mut values = Vec::with_capacity(m);
                for _ in 0..m {
                    values.push(get_named_tuple(cur)?);
                }
                variants.push(EadVariant::new(values, attrs));
            }
            let ead = Ead::new(lhs, rhs, variants)
                .map_err(|e| corrupt(&format!("stored EAD failed revalidation: {}", e)))?;
            Ok(Dependency::Ead(ead))
        }
        t => Err(corrupt(&format!("unknown dependency tag {}", t))),
    }
}

/// Appends one [`RelationDef`] (name, scheme, dependencies, domains).
pub fn put_relation_def(out: &mut Vec<u8>, def: &RelationDef) {
    put_str(out, &def.name);
    put_scheme(out, &def.scheme);
    put_u32(out, def.deps.len() as u32);
    for d in def.deps.iter() {
        put_dependency(out, d);
    }
    put_u32(out, def.domains.len() as u32);
    for (a, d) in &def.domains {
        put_str(out, a.name());
        put_domain(out, d);
    }
}

/// Reads one [`RelationDef`].
pub fn get_relation_def(cur: &mut Cursor<'_>) -> Result<RelationDef, StorageError> {
    let name = cur.str()?.to_string();
    let scheme = get_scheme(cur)?;
    let n_deps = cur.u32()? as usize;
    let mut deps = DependencySet::new();
    for _ in 0..n_deps {
        deps.add(get_dependency(cur)?);
    }
    let n_doms = cur.u32()? as usize;
    let mut domains = BTreeMap::new();
    for _ in 0..n_doms {
        let a = Attr::new(cur.str()?);
        domains.insert(a, get_domain(cur)?);
    }
    Ok(RelationDef {
        name,
        scheme,
        deps,
        domains,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::scheme::SchemeBuilder;
    use flexrel_core::{attrs, tuple};

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The bytewise table-driven CRC, one dependent lookup per byte: the
    /// oracle slice-by-8 must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for b in bytes {
            c = CRC_TABLES[0][((c ^ *b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Slice-by-8 equals the bytewise CRC on random inputs of every length
    /// up to 4 KiB, starting at every alignment of the 8-byte stride.
    #[test]
    fn slice_by_8_matches_the_bytewise_crc() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let buf: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        for len in 0..=4096 {
            let offset = (next() % 8) as usize;
            let bytes = &buf[offset..offset + len];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len} at {offset}");
        }
        for offset in 0..8 {
            let bytes = &buf[offset..offset + 4096];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "offset {offset}");
        }
    }

    #[test]
    fn values_round_trip_bit_identically() {
        let vals = vec![
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::str("héllo"),
            Value::str(""),
            Value::Bool(true),
            Value::tag("secretary"),
            Value::Null,
        ];
        let mut buf = Vec::new();
        for v in &vals {
            put_value(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for v in &vals {
            let back = get_value(&mut cur).unwrap();
            // Bit-identical, not merely ==: NaN and -0.0 must survive.
            match (v, &back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(*v, back),
            }
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn tuples_and_attr_sets_round_trip() {
        let t = tuple! {"b" => 2, "a" => Value::str("x"), "c" => 3.5};
        let mut buf = Vec::new();
        put_named_tuple(&mut buf, &t);
        put_attrs(&mut buf, t.shape());
        let mut cur = Cursor::new(&buf);
        assert_eq!(get_named_tuple(&mut cur).unwrap(), t);
        assert_eq!(get_attrs(&mut cur).unwrap(), t.attrs());

        // Shaped (values-only) form against the canonical order.
        let shape = t.attrs();
        let attrs: Arc<[Attr]> = shape.to_vec().into();
        let mut buf = Vec::new();
        put_shaped_values(&mut buf, &t);
        let mut cur = Cursor::new(&buf);
        assert_eq!(get_shaped_values(&mut cur, &shape, &attrs).unwrap(), t);
    }

    #[test]
    fn frames_detect_corruption_and_clean_eof() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"hello");
        put_frame(&mut buf, b"");
        let FrameRead::Frame { payload, next } = read_frame(&buf, 0) else {
            panic!("first frame should parse");
        };
        assert_eq!(payload, b"hello");
        let FrameRead::Frame { payload, next } = read_frame(&buf, next) else {
            panic!("empty frame should parse");
        };
        assert_eq!(payload, b"");
        assert_eq!(read_frame(&buf, next), FrameRead::Eof);
        // Flip every byte in turn: never a panic, always detected.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            let r = read_frame(&bad, 0);
            if i < 13 {
                // Inside the first frame (8-byte header + 5-byte payload):
                // must not parse as the original frame.
                match r {
                    FrameRead::Frame { payload, .. } => assert_ne!(payload, b"hello"),
                    FrameRead::Corrupt => {}
                    FrameRead::Eof => panic!("offset 0 of a non-empty buffer is never EOF"),
                }
            }
        }
        // Truncation mid-frame is corrupt, not EOF.
        assert_eq!(read_frame(&buf[..buf.len() - 1], 8 + 5), FrameRead::Corrupt);
    }

    #[test]
    fn relation_defs_round_trip() {
        let scheme = SchemeBuilder::all_of(["empno", "name"])
            .optional("salary")
            .build()
            .unwrap();
        let ead = Ead::new(
            attrs!["jobtype"],
            attrs!["speed", "langs"],
            vec![EadVariant::new(
                vec![tuple! {"jobtype" => Value::tag("secretary")}],
                attrs!["speed"],
            )],
        )
        .unwrap();
        let def = RelationDef::new("emp", scheme)
            .with_dep(flexrel_core::dep::Fd::new(attrs!["empno"], attrs!["name"]))
            .with_dep(flexrel_core::dep::Ad::new(
                attrs!["empno"],
                attrs!["salary"],
            ))
            .with_dep(ead)
            .with_domain("empno", Domain::IntRange(0, 1 << 30))
            .with_domain("name", Domain::Text)
            .with_domain("jobtype", Domain::enumeration(["secretary", "salesman"]));
        let mut buf = Vec::new();
        put_relation_def(&mut buf, &def);
        let mut cur = Cursor::new(&buf);
        let back = get_relation_def(&mut cur).unwrap();
        assert!(cur.is_empty());
        assert_eq!(back.name, def.name);
        assert_eq!(back.scheme, def.scheme);
        assert_eq!(back.domains, def.domains);
        assert_eq!(back.deps.len(), def.deps.len());
        for (a, b) in back.deps.iter().zip(def.deps.iter()) {
            assert_eq!(format!("{:?}", a), format!("{:?}", b));
        }
    }

    #[test]
    fn truncated_reads_report_corruption_not_panic() {
        let mut buf = Vec::new();
        put_named_tuple(&mut buf, &tuple! {"x" => 1, "y" => Value::str("abc")});
        for cut in 0..buf.len() {
            let mut cur = Cursor::new(&buf[..cut]);
            let r = get_named_tuple(&mut cur);
            assert!(
                r.is_err() || cut == buf.len(),
                "truncation at {} must error",
                cut
            );
            if let Err(e) = r {
                assert!(e.is_corruption());
            }
        }
    }
}
