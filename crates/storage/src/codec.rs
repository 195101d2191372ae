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
//! Every WAL commit and every checkpoint image is one **frame**,
//! `[len: u32][crc32: u32][payload]`.  The writer refuses a payload longer
//! than the `u32` prefix can say ([`StorageError::FrameTooLarge`]) rather
//! than truncate its length; the reader ([`read_frame`]) runs over a whole
//! segment or image already in memory, so a frame is bounded by the bytes
//! after its header and by its CRC, never by a size limit.
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
// CRC-32 (IEEE 802.3, reflected): carry-less multiply folding on x86_64 for
// long inputs, slice-by-8 for everything else.
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

/// The CRC-32 (IEEE) checksum of `bytes` — the checksum of every frame, WAL
/// record and checkpoint image, and of every wire message.
///
/// On x86_64 CPUs with `pclmulqdq` and `sse4.1`, an input of at least
/// 128 bytes (`CLMUL_MIN_LEN`) is folded 64 bytes at a time by carry-less
/// multiplication (about fifteen times faster than slice-by-8 on a 90 KB
/// scan reply); shorter inputs, the last `len % 16` bytes, and other
/// targets use slice-by-8.  The result is the same either way.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CLMUL_MIN_LEN
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        let folded = bytes.len() & !15;
        // SAFETY: both target features were just detected on this CPU.
        // `folded` is a multiple of 16 and at least `CLMUL_MIN_LEN` ≥ 64.
        let c = unsafe { clmul::fold(!0, &bytes[..folded]) };
        return !slice_by_8(c, &bytes[folded..]);
    }
    !slice_by_8(!0, bytes)
}

/// The shortest input [`crc32`] hands to the carry-less multiply kernel:
/// below it the kernel's fixed cost (four 16-byte loads, two reduction
/// steps) is no cheaper than slice-by-8, and every WAL commit frame and
/// point-lookup reply is shorter.
const CLMUL_MIN_LEN: usize = 128;

/// Advances the (pre-inverted) CRC register `c` over `bytes`, eight bytes
/// per step.
fn slice_by_8(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    c
}

/// CRC-32 folding by carry-less multiplication (`PCLMULQDQ`), after Intel's
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Gopal et al., 2009), for the bit-reflected polynomial
/// `0xEDB88320`.  Four 128-bit lanes each absorb 16 bytes per step; the
/// lanes are folded into one, which absorbs any remaining 16-byte blocks,
/// and a Barrett reduction brings the 64-bit remainder to the 32-bit CRC.
/// Each folding constant is `x^k mod P(x)` for the distance `k` it folds
/// across, bit-reflected and shifted left one bit.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Fold a lane 512 bits forward: `x^(4·128+32)` and `x^(4·128−32)`.
    const K1_K2: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// Fold a lane 128 bits forward: `x^(128+32)` and `x^(128−32)`.
    const K3_K4: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    /// Fold 64 bits into the low 32: `x^64`.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: the 33-bit `P(x)` and `μ = ⌊x^64 / P(x)⌋`, each
    /// bit-reflected.
    const P_MU: (i64, i64) = (0x1_db71_0641, 0x1_f701_1641);

    /// Advances the (pre-inverted) CRC register `crc` over `bytes`.
    ///
    /// `bytes.len()` must be a multiple of 16 (a shorter tail would be
    /// left out) and at least 64 (checked).
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= 64);
        debug_assert!(bytes.len().is_multiple_of(16));
        let load = |i: usize| {
            debug_assert!(i + 16 <= bytes.len());
            // SAFETY: the reads stay inside `bytes`: the first four loads
            // end at 64 ≤ `bytes.len()` (asserted above), and each loop
            // below checks that its loads end at or before `bytes.len()`.
            // `_mm_loadu_si128` needs no alignment.
            unsafe { _mm_loadu_si128(bytes.as_ptr().add(i) as *const __m128i) }
        };
        // Multiplies the low and high halves of `x` by the two constants of
        // `k` and adds (xors) both products into `next`.
        let fold_into = |x: __m128i, k: __m128i, next: __m128i| {
            let lo = _mm_clmulepi64_si128(x, k, 0x00);
            let hi = _mm_clmulepi64_si128(x, k, 0x11);
            _mm_xor_si128(_mm_xor_si128(lo, hi), next)
        };

        let mut x0 = _mm_xor_si128(load(0), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = load(16);
        let mut x2 = load(32);
        let mut x3 = load(48);
        let mut at = 64;

        let k = _mm_set_epi64x(K1_K2.1, K1_K2.0);
        while at + 64 <= bytes.len() {
            x0 = fold_into(x0, k, load(at));
            x1 = fold_into(x1, k, load(at + 16));
            x2 = fold_into(x2, k, load(at + 32));
            x3 = fold_into(x3, k, load(at + 48));
            at += 64;
        }

        let k = _mm_set_epi64x(K3_K4.1, K3_K4.0);
        let mut x = fold_into(x0, k, x1);
        x = fold_into(x, k, x2);
        x = fold_into(x, k, x3);
        while at + 16 <= bytes.len() {
            x = fold_into(x, k, load(at));
            at += 16;
        }

        // 128 → 64 bits: the low half times x^(128−32), into the high half
        // (this also appends the 32 zero bits the CRC definition implies).
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x10), _mm_srli_si128(x, 8));
        // 64 → 32 bits: the low word times x^64, into the upper words.
        let mask32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction of the 64-bit remainder to 32 bits.
        let pm = _mm_set_epi64x(P_MU.1, P_MU.0);
        let t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), pm, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), pm, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t), 1) as u32
    }
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

/// Bytes of a frame header: the payload length and its CRC.
pub const FRAME_HEADER: usize = 8;

/// The length prefix for a payload of `n` bytes.  A payload the `u32`
/// prefix cannot describe is refused: writing its length truncated would
/// leave a frame no reader can find the end of.
pub fn frame_len(n: usize) -> Result<u32, StorageError> {
    u32::try_from(n).map_err(|_| StorageError::FrameTooLarge(n))
}

/// Starts a `[len][crc][payload]` frame, encoded in place: reserves its
/// header in `out` and returns the header's offset, which [`seal_frame`]
/// takes once the payload has been appended after it.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    start
}

/// Finishes the frame [`begin_frame`] started at `start`: the payload is
/// every byte after its header, and the header gets the payload's length
/// and CRC.  A payload too long for the length prefix is refused and cut
/// off, header included, so `out` ends where it did before the frame.
pub fn seal_frame(out: &mut Vec<u8>, start: usize) -> Result<(), StorageError> {
    let len = match frame_len(out.len() - start - FRAME_HEADER) {
        Ok(len) => len,
        Err(e) => {
            out.truncate(start);
            return Err(e);
        }
    };
    let (head, payload) = out[start..].split_at_mut(FRAME_HEADER);
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
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
    /// A torn or corrupted frame (truncated header or payload, or CRC
    /// mismatch).  Everything from `offset` on is garbage; recovery
    /// truncates here.
    Corrupt,
}

/// Reads the frame starting at `offset`, distinguishing clean EOF from a
/// torn or corrupted tail.
///
/// `buf` is a whole WAL segment or checkpoint image, already in memory, so
/// a frame is bounded by the bytes that follow its header and by its CRC —
/// a length prefix that points past the end of `buf` is a torn frame, and
/// no length allocates anything.  (A reader that allocates by the prefix,
/// like the wire protocol's, needs a bound of its own.)
pub fn read_frame(buf: &[u8], offset: usize) -> FrameRead<'_> {
    if offset == buf.len() {
        return FrameRead::Eof;
    }
    if buf.len() - offset < FRAME_HEADER {
        return FrameRead::Corrupt;
    }
    let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap());
    let crc = u32::from_le_bytes(buf[offset + 4..offset + 8].try_into().unwrap());
    let start = offset + FRAME_HEADER;
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
        VAL_STR => Ok(Value::Str(cur.str()?.into())),
        VAL_BOOL => Ok(Value::Bool(match cur.u8()? {
            0 => false,
            1 => true,
            _ => return Err(corrupt("bool out of range")),
        })),
        VAL_TAG => Ok(Value::Tag(cur.str()?.into())),
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

    /// Slice-by-8 on its own: the oracle every other CRC path is held to.
    fn crc32_slice_by_8(bytes: &[u8]) -> u32 {
        !slice_by_8(!0, bytes)
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    /// `payload` sealed as one frame.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let at = begin_frame(&mut out);
        out.extend_from_slice(payload);
        seal_frame(&mut out, at).unwrap();
        out
    }

    fn unhex(parts: &[&str]) -> Vec<u8> {
        let hex: String = parts.concat();
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Slice-by-8 equals the bytewise CRC on random inputs of every length
    /// up to 4 KiB, starting at every alignment of the 8-byte stride.
    #[test]
    fn slice_by_8_matches_the_bytewise_crc() {
        let buf = noise(4096 + 8);
        for len in 0..=4096 {
            let offset = len % 8;
            let bytes = &buf[offset..offset + len];
            assert_eq!(
                crc32_slice_by_8(bytes),
                crc32_bytewise(bytes),
                "len {len} at {offset}"
            );
        }
        for offset in 0..8 {
            let bytes = &buf[offset..offset + 4096];
            assert_eq!(
                crc32_slice_by_8(bytes),
                crc32_bytewise(bytes),
                "offset {offset}"
            );
        }
    }

    /// Whichever kernel [`crc32`] picks, it equals slice-by-8 on every
    /// length up to 4 KiB at every start offset modulo 16 (so every tail
    /// length after the 16-byte folds, and every load alignment), and on a
    /// 1 MiB buffer.
    #[test]
    fn crc32_dispatch_matches_slice_by_8() {
        let buf = noise((1 << 20) + 16);
        for offset in 0..16 {
            for len in 0..=4096 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_slice_by_8(bytes),
                    "len {len} at {offset}"
                );
            }
        }
        for offset in [0, 1, 15] {
            let bytes = &buf[offset..offset + (1 << 20)];
            assert_eq!(crc32(bytes), crc32_slice_by_8(bytes), "1 MiB at {offset}");
        }
    }

    /// Frames whose bytes were recorded from a CRC-32 outside this crate:
    /// a round trip cannot catch a kernel that is wrong the same way on
    /// both ends, a pinned checksum can.  The WAL frame (a commit holding a
    /// shape definition and an insert) is short and takes the slice-by-8
    /// path; the 304-byte `Rows` reply payload (two shape blocks, of six
    /// rows and two) takes the carry-less multiply path where the CPU has
    /// one.
    #[test]
    fn crc32_golden_frames_are_unchanged() {
        let wal = unhex(&[
            "52000000a2df612909010000000003000000070000006a6f6274797065040000",
            "006e616d650600000073616c6172790203000000656d70000000000409000000",
            "7365637265746172790203000000416e6e006810000000000000",
        ]);
        let t = tuple! {"name" => "Ann", "salary" => 4200, "jobtype" => Value::tag("secretary")};
        let op = crate::wal::WalOp::Insert {
            relation: "emp".into(),
            tuple: t,
        };
        let mut out = Vec::new();
        crate::wal::RecordEncoder::new()
            .encode(&crate::wal::WalRecord::Commit(vec![op]), &mut out)
            .unwrap();
        assert_eq!(out, wal);
        assert_eq!(crc32(&wal[8..]), crc32_bytewise(&wal[8..]));

        let rows = unhex(&[
            "30010000c0afcdbe820200000003000000010000006b040000006e616d650600",
            "000073616c61727902000000010000006b040000006e616d6508000000020000",
            "0000000000060000000000000000000000000100000000000000020000000000",
            "0000030000000000000004000000000000000500000000000000020600000002",
            "05000000656d702d300205000000656d702d310205000000656d702d32020500",
            "0000656d702d330205000000656d702d340205000000656d702d350000000001",
            "00000002000000030000000400000005000000010000000000448f4000000000",
            "004c8f400000000000548f4000000000005c8f400000000000648f4000000000",
            "006c8f4001000000020000000006000000000000000700000000000000020200",
            "00000202000000426f020200000043790000000001000000",
        ]);
        assert_eq!(rows.len(), 312);
        assert_eq!(frame(&rows[8..]), rows);
        assert_eq!(crc32(&rows[8..]), 0xbecd_afc0);
        assert!(matches!(
            read_frame(&rows, 0),
            FrameRead::Frame { next: 312, .. }
        ));
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

    /// A string of every byte length from 0 to 16 — stored inline up to
    /// seven bytes, shared beyond — comes back with the same bytes, as a
    /// string and as a tag; the multi-byte characters straddle the limit.
    #[test]
    fn texts_round_trip_across_the_inline_limit() {
        let mut strings = Vec::new();
        for n in 0..=16 {
            for c in ['a', 'é', '€', '😀'] {
                for p in (0..=n).filter(|p| p + c.len_utf8() <= n) {
                    strings.push(format!(
                        "{}{}{}",
                        "x".repeat(p),
                        c,
                        "y".repeat(n - p - c.len_utf8())
                    ));
                }
            }
        }
        strings.push(String::new());
        let mut buf = Vec::new();
        for s in &strings {
            put_value(&mut buf, &Value::str(s));
            put_value(&mut buf, &Value::tag(s));
        }
        let mut cur = Cursor::new(&buf);
        for s in &strings {
            let (text, tag) = (get_value(&mut cur).unwrap(), get_value(&mut cur).unwrap());
            assert_eq!(text, Value::str(s));
            assert_eq!(tag, Value::tag(s));
            assert_eq!(text.as_str(), Some(s.as_str()));
            assert_eq!(tag.as_str(), Some(s.as_str()));
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
        buf.extend(frame(b"hello"));
        buf.extend(frame(b""));
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

    /// The length prefix is a `u32`: a longer payload is refused with a
    /// typed error instead of having its length truncated.
    #[test]
    fn a_payload_past_the_length_prefix_is_refused() {
        assert_eq!(frame_len(0), Ok(0));
        assert_eq!(frame_len(u32::MAX as usize), Ok(u32::MAX));
        let n = u32::MAX as usize + 1;
        assert_eq!(frame_len(n), Err(StorageError::FrameTooLarge(n)));
    }

    /// A storage frame is bounded by the buffer it is read from and by its
    /// CRC, not by a size limit: a payload one byte past the wire reader's
    /// 256 MiB bound reads back whole.
    #[test]
    fn read_frame_accepts_a_payload_past_the_wire_bound() {
        let n = (1 << 28) + 1;
        // A zeroed `vec!` is mapped lazily: only the header is written.
        let mut buf = vec![0u8; FRAME_HEADER + n];
        let crc = crc32(&buf[FRAME_HEADER..]);
        buf[..4].copy_from_slice(&(n as u32).to_le_bytes());
        buf[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        match read_frame(&buf, 0) {
            FrameRead::Frame { payload, next } => {
                assert_eq!(payload.len(), n);
                assert_eq!(next, buf.len());
            }
            other => panic!("a CRC-valid frame read as {:?}", other),
        }
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
