//! Tuples over attribute sets.
//!
//! A tuple is a mapping from a set of attributes to atomic values.  In the
//! flexible-relation model different tuples of the same relation may be
//! defined on *different* attribute sets; the function `attr(t)` (here
//! [`Tuple::attrs`]) yields the attribute set a tuple is defined on.

use std::collections::HashMap;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::{OnceLock, RwLock};

use crate::attr::{Attr, AttrSet};
use crate::value::Value;

/// A stable identifier of an interned tuple *shape* (an attribute set
/// `attr(t)`).
///
/// Shapes are interned process-wide, exactly like attribute names: the first
/// time a shape is seen it is assigned a dense `u32` id, and the same
/// attribute set always maps to the same id for the lifetime of the process.
/// The storage layer keys its heap partitions by `ShapeId`
/// (`flexrel-storage`), so that all tuples with the same `attr(t)` — the
/// same disjunct of the scheme's DNF — live together and a scan can skip
/// whole partitions whose shape cannot satisfy a query.
///
/// Like attribute ids, shape ids are dense but *not* stable across runs
/// (they depend on first-come interning order); anything order-sensitive
/// must go through the resolved [`AttrSet`], see [`ShapeId::attrs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShapeId(u32);

impl ShapeId {
    /// Resolves the shape back to its attribute set.
    ///
    /// # Panics
    /// Panics if the id was not produced by [`Tuple::shape_id`] (or
    /// [`ShapeId::intern`]) in this process.
    pub fn attrs(self) -> AttrSet {
        let inner = shape_universe().read().unwrap();
        inner.shapes[self.0 as usize].clone()
    }

    /// Interns an arbitrary attribute set as a shape.
    pub fn intern(shape: &AttrSet) -> ShapeId {
        {
            let inner = shape_universe().read().unwrap();
            if let Some(&id) = inner.ids.get(shape) {
                return ShapeId(id);
            }
        }
        let mut inner = shape_universe().write().unwrap();
        if let Some(&id) = inner.ids.get(shape) {
            return ShapeId(id);
        }
        let id = u32::try_from(inner.shapes.len()).expect("shape universe exhausted u32 ids");
        inner.shapes.push(shape.clone());
        inner.ids.insert(shape.clone(), id);
        ShapeId(id)
    }
}

impl fmt::Display for ShapeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[derive(Default)]
struct ShapeUniverseInner {
    shapes: Vec<AttrSet>,
    ids: HashMap<AttrSet, u32>,
}

fn shape_universe() -> &'static RwLock<ShapeUniverseInner> {
    static SHAPES: OnceLock<RwLock<ShapeUniverseInner>> = OnceLock::new();
    SHAPES.get_or_init(|| RwLock::new(ShapeUniverseInner::default()))
}

/// One attribute/value pair of a [`Tuple`].
type Pair = (Attr, Value);

/// The most pairs a tuple stores without a heap allocation: a record of
/// the benchmark relation (`id`, `kind` and the kind's one variant
/// attribute), a materialized lookup row and an `{id}` index key all fit.
const INLINE_PAIRS: usize = 3;

/// A tuple's pairs: up to [`INLINE_PAIRS`] stored in place, more on the
/// heap.  Once spilled the pairs stay on the heap until the tuple is
/// dropped or cloned (a clone of few pairs is built in place again).
///
/// This is the one type that handles uninitialized memory.  The invariant
/// every method keeps: in `Inline`, exactly the first `len` slots of `buf`
/// are initialized, and `len <= INLINE_PAIRS`.
enum Pairs {
    Inline {
        len: u8,
        buf: [MaybeUninit<Pair>; INLINE_PAIRS],
    },
    Spilled(Vec<Pair>),
}

impl Pairs {
    #[inline]
    fn new() -> Self {
        Pairs::Inline {
            len: 0,
            buf: [const { MaybeUninit::uninit() }; INLINE_PAIRS],
        }
    }

    /// Empty pairs with room for `n` without a further allocation.
    #[inline]
    fn with_capacity(n: usize) -> Self {
        if n <= INLINE_PAIRS {
            Pairs::new()
        } else {
            Pairs::Spilled(Vec::with_capacity(n))
        }
    }

    #[inline]
    fn push(&mut self, pair: Pair) {
        match self {
            Pairs::Inline { len, buf } if usize::from(*len) < INLINE_PAIRS => {
                buf[usize::from(*len)].write(pair);
                *len += 1;
            }
            Pairs::Inline { .. } => self.spill_and_push(pair),
            Pairs::Spilled(v) => v.push(pair),
        }
    }

    /// Moves full inline pairs to the heap, then pushes `pair`.
    #[cold]
    #[inline(never)]
    fn spill_and_push(&mut self, pair: Pair) {
        let mut spilled = Vec::with_capacity(2 * INLINE_PAIRS);
        spilled.extend(std::iter::from_fn(|| self.pop()));
        spilled.reverse();
        spilled.push(pair);
        *self = Pairs::Spilled(spilled);
    }

    #[inline]
    fn pop(&mut self) -> Option<Pair> {
        match self {
            Pairs::Inline { len, buf } => {
                *len = len.checked_sub(1)?;
                // SAFETY: slot `len` was the last initialized one; with
                // `len` lowered it counts as uninitialized, so it is read
                // out exactly once and never dropped in place.
                Some(unsafe { buf[usize::from(*len)].assume_init_read() })
            }
            Pairs::Spilled(v) => v.pop(),
        }
    }

    /// Inserts `pair` at index `i`, shifting the pairs after it.
    fn insert(&mut self, i: usize, pair: Pair) {
        self.push(pair);
        self[i..].rotate_right(1);
    }

    /// Removes and returns the pair at index `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    fn remove(&mut self, i: usize) -> Pair {
        self[i..].rotate_left(1);
        self.pop().expect("the rotation checked that a pair exists")
    }
}

impl std::ops::Deref for Pairs {
    type Target = [Pair];

    #[inline]
    fn deref(&self) -> &[Pair] {
        match self {
            // SAFETY: the first `len` slots are initialized, and
            // `MaybeUninit<Pair>` has the layout of `Pair`.
            Pairs::Inline { len, buf } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr().cast::<Pair>(), usize::from(*len))
            },
            Pairs::Spilled(v) => v,
        }
    }
}

impl std::ops::DerefMut for Pairs {
    #[inline]
    fn deref_mut(&mut self) -> &mut [Pair] {
        match self {
            // SAFETY: as in `deref`; the borrow of `buf` is unique.
            Pairs::Inline { len, buf } => unsafe {
                std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<Pair>(), usize::from(*len))
            },
            Pairs::Spilled(v) => v,
        }
    }
}

impl Drop for Pairs {
    #[inline]
    fn drop(&mut self) {
        if let Pairs::Inline { .. } = self {
            // SAFETY: the slice covers exactly the initialized slots, and
            // nothing reads them after the drop.
            unsafe { std::ptr::drop_in_place::<[Pair]>(&mut **self) }
        }
    }
}

impl Clone for Pairs {
    fn clone(&self) -> Self {
        self.iter().cloned().collect()
    }
}

impl FromIterator<Pair> for Pairs {
    fn from_iter<I: IntoIterator<Item = Pair>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut pairs = Pairs::with_capacity(iter.size_hint().0);
        pairs.extend(iter);
        pairs
    }
}

impl Extend<Pair> for Pairs {
    fn extend<I: IntoIterator<Item = Pair>>(&mut self, iter: I) {
        let mut iter = iter.into_iter();
        // Fill the free inline slots without re-checking the variant.
        if let Pairs::Inline { len, buf } = self {
            while usize::from(*len) < INLINE_PAIRS {
                let Some(pair) = iter.next() else { return };
                buf[usize::from(*len)].write(pair);
                *len += 1;
            }
        }
        for pair in iter {
            self.push(pair);
        }
    }
}

/// A tuple: a finite mapping from attributes to values.
///
/// The mapping is one sequence of `(attribute, value)` pairs sorted by
/// attribute name — the labelled tuple as a partial function from labels to
/// values, with nothing attached — so tuples have a canonical rendering.
/// Up to three pairs are stored in the tuple itself, so a record of small
/// arity is built, cloned and dropped without touching the allocator; a
/// wider tuple keeps its pairs in one heap allocation.  The tuple
/// additionally caches its shape `attr(t)` as a bitset so that the
/// ubiquitous type guard `X ⊆ attr(t)` (Def. 4.1/4.2) is a word-level
/// subset test instead of per-attribute lookups.
///
/// A pair is found by a front-to-back scan: [`Tuple::get`] and
/// [`Tuple::remove`] compare attributes by identity (one pointer compare per
/// pair), [`Tuple::get_name`] and [`Tuple::has_name`] compare names, which
/// checks the length before any byte.  At the arities of a record that
/// beats a binary search, every step of which compares names byte by byte.
/// The name order is kept for rendering, `Ord` and `Hash`; only
/// [`Tuple::insert`] searches it, for where a new pair goes.
#[derive(Clone)]
pub struct Tuple {
    /// Sorted by attribute name, one pair per attribute.
    pairs: Pairs,
    shape: AttrSet,
}

impl Default for Tuple {
    fn default() -> Self {
        Tuple {
            pairs: Pairs::new(),
            shape: AttrSet::empty(),
        }
    }
}

// Equality, ordering and hashing are over the pairs alone: the shape is
// derived state (it is exactly the attribute set of `pairs`).  Comparing
// the name-sorted pair sequences lexicographically is the order a map keyed
// by attribute name would give.
impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.pairs[..] == other.pairs[..]
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.pairs[..].cmp(&other.pairs[..])
    }
}

// Hashes the shape bitset followed by the values in canonical attribute
// order.  This is consistent with `Eq` (equal pair vectors have equal
// attribute sets, hence equal shape bitsets, and equal values) while
// avoiding re-hashing the attribute *names* — tuples are hash-map keys on
// several hot paths (hash joins, determinant indexes, dependency grouping)
// and the shape words already discriminate the attributes.
impl std::hash::Hash for Tuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.shape.hash(state);
        for (_, v) in self.pairs.iter() {
            v.hash(state);
        }
    }
}

impl Tuple {
    /// The empty tuple (defined on no attributes).
    pub fn empty() -> Self {
        Tuple::default()
    }

    /// Builds a tuple from pairs in any order; on a repeated attribute the
    /// later pair wins.
    fn from_unsorted(mut pairs: Pairs) -> Self {
        // Stable, so the pairs of a repeated attribute stay in input order
        // and the last of them is the one kept.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut i = 1;
        while i < pairs.len() {
            if pairs[i].0 == pairs[i - 1].0 {
                pairs[i - 1].1 = pairs.remove(i).1;
            } else {
                i += 1;
            }
        }
        let shape = pairs.iter().map(|(a, _)| a).collect();
        Tuple { pairs, shape }
    }

    /// Starts building a tuple: `Tuple::new().with("salary", 5000)…`.
    pub fn new() -> Self {
        Self::empty()
    }

    /// Builder-style insertion of an attribute/value pair.
    pub fn with(mut self, attr: impl Into<Attr>, value: impl Into<Value>) -> Self {
        self.insert(attr, value);
        self
    }

    /// Builds a tuple from a known shape and its values in the shape's
    /// canonical (attribute-name) order — the fast materialization path for
    /// columnar partition storage, where every stored row shares the
    /// partition's shape and the column order *is* the canonical order.
    /// No sort, and no allocation up to three attributes (one beyond).
    ///
    /// `attrs` must be exactly the members of `shape` in canonical order
    /// (as produced by [`AttrSet::to_vec`]), and `values` must yield one
    /// value per attribute.  Debug builds assert both.
    pub fn from_shape_values<I>(shape: AttrSet, attrs: &[Attr], values: I) -> Self
    where
        I: IntoIterator<Item = Value>,
    {
        let mut pairs = Pairs::with_capacity(attrs.len());
        pairs.extend(attrs.iter().cloned().zip(values));
        debug_assert_eq!(pairs.len(), attrs.len(), "one value per attribute");
        Tuple::from_canonical(shape, pairs)
    }

    /// [`Tuple::from_shape_values`] with a fallible value source: `value`
    /// is called once per attribute of `attrs`, in order, and the first
    /// error is returned.  The decoders use it to rebuild a tuple straight
    /// from a byte cursor.
    pub fn try_from_shape_values<E>(
        shape: AttrSet,
        attrs: &[Attr],
        mut value: impl FnMut() -> Result<Value, E>,
    ) -> Result<Self, E> {
        let mut pairs = Pairs::with_capacity(attrs.len());
        for a in attrs {
            pairs.push((a.clone(), value()?));
        }
        Ok(Tuple::from_canonical(shape, pairs))
    }

    fn from_canonical(shape: AttrSet, pairs: Pairs) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "attrs must be in canonical order"
        );
        debug_assert_eq!(
            shape,
            pairs.iter().map(|(a, _)| a).collect(),
            "attrs must spell out exactly the shape"
        );
        Tuple { pairs, shape }
    }

    /// Builds a tuple from `(attribute, value)` pairs.
    pub fn from_pairs<I, A, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (A, V)>,
        A: Into<Attr>,
        V: Into<Value>,
    {
        Tuple::from_unsorted(
            pairs
                .into_iter()
                .map(|(a, v)| (a.into(), v.into()))
                .collect(),
        )
    }

    /// Where `a` goes in the name-sorted pairs: `Ok` at its pair if the
    /// tuple is defined on it.
    fn insertion_point(&self, a: &Attr) -> Result<usize, usize> {
        self.pairs.binary_search_by(|(b, _)| b.cmp(a))
    }

    /// The index of `a`'s pair, found by identity.
    fn index_of(&self, a: &Attr) -> Option<usize> {
        self.pairs.iter().position(|(b, _)| b == a)
    }

    /// Inserts (or replaces) a value for an attribute.
    pub fn insert(&mut self, attr: impl Into<Attr>, value: impl Into<Value>) {
        let attr = attr.into();
        let value = value.into();
        match self.insertion_point(&attr) {
            Ok(i) => self.pairs[i].1 = value,
            Err(i) => {
                self.shape.insert(attr.clone());
                self.pairs.insert(i, (attr, value));
            }
        }
    }

    /// Removes an attribute from the tuple, returning its value if present.
    pub fn remove(&mut self, attr: &Attr) -> Option<Value> {
        let i = self.index_of(attr)?;
        self.shape.remove(attr);
        Some(self.pairs.remove(i).1)
    }

    /// `attr(t)`: the attribute set this tuple is defined on.
    pub fn attrs(&self) -> AttrSet {
        self.shape.clone()
    }

    /// `attr(t)` by reference (no clone); the cached shape bitset.
    pub fn shape(&self) -> &AttrSet {
        &self.shape
    }

    /// The interned [`ShapeId`] of `attr(t)`.
    ///
    /// Tuples of the same shape share the id; the storage layer uses it to
    /// route a tuple to its heap partition, whose presence spares an insert
    /// the scheme-membership test.
    pub fn shape_id(&self) -> ShapeId {
        ShapeId::intern(&self.shape)
    }

    /// Number of attributes the tuple is defined on.
    pub fn arity(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the tuple is defined on no attributes.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether the tuple is defined on attribute `a`.
    pub fn has(&self, a: &Attr) -> bool {
        self.shape.contains(a)
    }

    /// Whether the tuple is defined on an attribute with the given name.
    pub fn has_name(&self, name: &str) -> bool {
        self.get_name(name).is_some()
    }

    /// Whether the tuple is defined on *all* attributes of `x` (the type
    /// guard `X ⊆ attr(t)` used by Def. 4.1/4.2).
    pub fn defined_on(&self, x: &AttrSet) -> bool {
        x.is_subset(&self.shape)
    }

    /// The value of attribute `a`, if the tuple is defined on it.
    pub fn get(&self, a: &Attr) -> Option<&Value> {
        self.index_of(a).map(|i| &self.pairs[i].1)
    }

    /// The value of the attribute with the given name, if present.
    pub fn get_name(&self, name: &str) -> Option<&Value> {
        self.pairs
            .iter()
            .find(|(b, _)| b.name() == name)
            .map(|(_, v)| v)
    }

    /// `t[X]`: the restriction (projection) of the tuple to the attributes of
    /// `x`.  Attributes of `x` the tuple is not defined on are simply absent
    /// from the result, mirroring the model's treatment of projection on
    /// heterogeneous tuples.
    pub fn project(&self, x: &AttrSet) -> Tuple {
        Tuple {
            pairs: self
                .pairs
                .iter()
                .filter(|(a, _)| x.contains(a))
                .cloned()
                .collect(),
            shape: self.shape.intersection(x),
        }
    }

    /// Whether two tuples agree on `x`: both are defined on all of `x` and
    /// have equal values there (`X ⊆ attr(t1) ∧ X ⊆ attr(t2) ∧ t1[X] = t2[X]`).
    pub fn agrees_on(&self, other: &Tuple, x: &AttrSet) -> bool {
        if !x.is_subset(&self.shape) || !x.is_subset(&other.shape) {
            return false;
        }
        self.pairs
            .iter()
            .filter(|(a, _)| x.contains(a))
            .all(|(a, v)| other.get(a) == Some(v))
    }

    /// Extends the tuple with all attribute/value pairs of `other`.  On
    /// conflicts `other` wins.  This is the tuple-level operation behind the
    /// cartesian product, the extension operator `ε` and joins.
    pub fn merged_with(&self, other: &Tuple) -> Tuple {
        let (left, right) = (&self.pairs, &other.pairs);
        let shape = self.shape.union(&other.shape);
        let mut pairs = Pairs::with_capacity(shape.len());
        let (mut i, mut j) = (0, 0);
        while i < left.len() && j < right.len() {
            match left[i].0.cmp(&right[j].0) {
                std::cmp::Ordering::Less => {
                    pairs.push(left[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    pairs.push(right[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    pairs.push(right[j].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        pairs.extend(left[i..].iter().cloned());
        pairs.extend(right[j..].iter().cloned());
        Tuple { pairs, shape }
    }

    /// Whether the tuples are *join-compatible*: they agree on every attribute
    /// they are both defined on.
    pub fn joinable_with(&self, other: &Tuple) -> bool {
        let common = self.shape.intersection(&other.shape);
        self.agrees_on(other, &common)
    }

    /// Iterates over `(attribute, value)` pairs in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (&Attr, &Value)> + '_ {
        self.pairs.iter().map(|(a, v)| (a, v))
    }

    /// Renames attribute `from` to `to`, if present.
    pub fn rename(&self, from: &Attr, to: &Attr) -> Tuple {
        let mut t = self.clone();
        if let Some(v) = t.remove(from) {
            t.insert(to.clone(), v);
        }
        t
    }

    /// Strips all attributes whose value is [`Value::Null`].  Used when
    /// converting from the null-padded baseline representation back into a
    /// flexible tuple.
    pub fn without_nulls(&self) -> Tuple {
        let pairs: Pairs = self
            .pairs
            .iter()
            .filter(|(_, v)| !v.is_null())
            .cloned()
            .collect();
        let shape = pairs.iter().map(|(a, _)| a).collect();
        Tuple { pairs, shape }
    }

    /// Pads the tuple with [`Value::Null`] for every attribute of `universe`
    /// it is not defined on.  Used to build the flat baseline representation.
    pub fn null_padded(&self, universe: &AttrSet) -> Tuple {
        let padding = universe.difference(&self.shape);
        let mut pairs = self.pairs.clone();
        pairs.extend(padding.iter().map(|a| (a, Value::Null)));
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Tuple {
            pairs,
            shape: self.shape.union(universe),
        }
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, (a, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a, v)?;
        }
        write!(f, ">")
    }
}

impl FromIterator<(Attr, Value)> for Tuple {
    fn from_iter<T: IntoIterator<Item = (Attr, Value)>>(iter: T) -> Self {
        Tuple::from_unsorted(iter.into_iter().collect())
    }
}

/// Convenience macro for building tuples:
/// `tuple!{"jobtype" => Value::tag("secretary"), "salary" => 5000}`.
#[macro_export]
macro_rules! tuple {
    () => { $crate::tuple::Tuple::empty() };
    ($($attr:expr => $val:expr),+ $(,)?) => {{
        let mut t = $crate::tuple::Tuple::empty();
        $( t.insert($attr, $val); )+
        t
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;

    fn secretary() -> Tuple {
        tuple! {
            "name" => "Ann",
            "salary" => 4200,
            "jobtype" => Value::tag("secretary"),
            "typing-speed" => 320,
            "foreign-languages" => "french"
        }
    }

    #[test]
    fn attrs_returns_definition_set() {
        let t = secretary();
        assert_eq!(
            t.attrs(),
            attrs![
                "name",
                "salary",
                "jobtype",
                "typing-speed",
                "foreign-languages"
            ]
        );
        assert_eq!(t.arity(), 5);
    }

    #[test]
    fn builder_and_macro_agree() {
        let a = Tuple::new().with("x", 1).with("y", 2);
        let b = tuple! {"x" => 1, "y" => 2};
        assert_eq!(a, b);
        let c = Tuple::from_pairs([("x", Value::Int(1)), ("y", Value::Int(2))]);
        assert_eq!(a, c);
    }

    #[test]
    fn projection_restricts_to_present_attrs() {
        let t = secretary();
        let p = t.project(&attrs!["salary", "jobtype", "products"]);
        assert_eq!(p.attrs(), attrs!["salary", "jobtype"]);
        assert_eq!(p.get_name("salary"), Some(&Value::Int(4200)));
        assert_eq!(p.get_name("products"), None);
    }

    #[test]
    fn agreement_requires_definition_on_both_sides() {
        let t1 = secretary();
        let t2 = tuple! {"jobtype" => Value::tag("secretary"), "salary" => 9999};
        assert!(t1.agrees_on(&t2, &attrs!["jobtype"]));
        assert!(!t1.agrees_on(&t2, &attrs!["salary"]));
        // t2 is not defined on typing-speed, so no agreement there.
        assert!(!t1.agrees_on(&t2, &attrs!["typing-speed"]));
        // Agreement on the empty set is vacuous.
        assert!(t1.agrees_on(&t2, &AttrSet::empty()));
    }

    #[test]
    fn defined_on_is_the_type_guard() {
        let t = secretary();
        assert!(t.defined_on(&attrs!["jobtype", "salary"]));
        assert!(!t.defined_on(&attrs!["jobtype", "products"]));
        assert!(t.defined_on(&AttrSet::empty()));
    }

    #[test]
    fn merge_and_joinability() {
        let left = tuple! {"a" => 1, "b" => 2};
        let right = tuple! {"b" => 2, "c" => 3};
        assert!(left.joinable_with(&right));
        let joined = left.merged_with(&right);
        assert_eq!(joined.attrs(), attrs!["a", "b", "c"]);

        let conflicting = tuple! {"b" => 99};
        assert!(!left.joinable_with(&conflicting));
        // Disjoint tuples are trivially joinable.
        assert!(left.joinable_with(&tuple! {"z" => 0}));
    }

    #[test]
    fn rename_moves_value() {
        let t = tuple! {"a" => 1};
        let r = t.rename(&Attr::new("a"), &Attr::new("b"));
        assert_eq!(r, tuple! {"b" => 1});
        // Renaming an absent attribute is a no-op.
        let r2 = t.rename(&Attr::new("zz"), &Attr::new("b"));
        assert_eq!(r2, t);
    }

    #[test]
    fn null_padding_round_trip() {
        let t = tuple! {"a" => 1};
        let universe = attrs!["a", "b", "c"];
        let padded = t.null_padded(&universe);
        assert_eq!(padded.arity(), 3);
        assert_eq!(padded.get_name("b"), Some(&Value::Null));
        assert_eq!(padded.without_nulls(), t);
    }

    #[test]
    fn display_is_paper_like() {
        let t = tuple! {"jobtype" => Value::tag("salesman"), "salary" => 100};
        let s = t.to_string();
        assert!(s.starts_with('<') && s.ends_with('>'));
        assert!(s.contains("jobtype: 'salesman'"));
    }

    #[test]
    fn shape_ids_are_interned_per_attribute_set() {
        let a = tuple! {"x" => 1, "y" => 2};
        let b = tuple! {"x" => 9, "y" => 0};
        let c = tuple! {"x" => 1};
        assert_eq!(a.shape_id(), b.shape_id(), "same shape, same id");
        assert_ne!(a.shape_id(), c.shape_id());
        assert_eq!(a.shape_id().attrs(), attrs!["x", "y"]);
        assert_eq!(ShapeId::intern(&attrs!["x", "y"]), a.shape_id());
        assert!(a.shape_id().to_string().starts_with('#'));
        assert_eq!(a.shape(), &attrs!["x", "y"]);
    }

    #[test]
    fn shape_id_tracks_mutation() {
        let mut t = tuple! {"x" => 1};
        let before = t.shape_id();
        t.insert("y", 2);
        assert_ne!(t.shape_id(), before);
        t.remove(&Attr::new("y"));
        assert_eq!(t.shape_id(), before);
    }

    #[test]
    fn hash_is_consistent_with_equality() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |t: &Tuple| {
            let mut hasher = DefaultHasher::new();
            t.hash(&mut hasher);
            hasher.finish()
        };
        let a = tuple! {"x" => 1, "y" => "s"};
        let b = Tuple::new().with("y", "s").with("x", 1);
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn insert_remove_get() {
        let mut t = Tuple::empty();
        assert!(t.is_empty());
        t.insert("x", 1);
        assert!(t.has_name("x"));
        assert!(t.has(&Attr::new("x")));
        assert_eq!(t.remove(&Attr::new("x")), Some(Value::Int(1)));
        assert!(t.is_empty());
    }

    /// Shared-value soundness: the process-wide shape interner hands every
    /// thread the same dense id for the same attribute set, and resolved
    /// shapes round-trip — the invariant the concurrent storage layer
    /// (partition keys are `ShapeId`s) builds on.
    #[test]
    fn shape_interning_is_consistent_across_threads() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Tuple>();
        assert_send_sync::<ShapeId>();
        assert_send_sync::<Value>();
        assert_send_sync::<AttrSet>();

        let shapes: Vec<AttrSet> = (0..32)
            .map(|i| AttrSet::from_names((0..=(i % 5)).map(|k| format!("xthread-{}-{}", i % 7, k))))
            .collect();
        let mut per_thread: Vec<Vec<ShapeId>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let shapes = &shapes;
                    s.spawn(move || shapes.iter().map(ShapeId::intern).collect::<Vec<_>>())
                })
                .collect();
            for h in handles {
                per_thread.push(h.join().unwrap());
            }
        });
        for ids in &per_thread[1..] {
            assert_eq!(ids, &per_thread[0], "interning must agree across threads");
        }
        for (shape, id) in shapes.iter().zip(&per_thread[0]) {
            assert_eq!(&id.attrs(), shape, "ids resolve back to their shape");
        }
    }
}
