//! Attributes and attribute sets.
//!
//! The paper works over a universe of attributes `𝔘`; single attributes are
//! written `A, B, …` and attribute sets `V, …, Z`.  Attribute sets are treated
//! as ordinary mathematical sets: `XY` denotes the union of `X` and `Y`, and a
//! single attribute is silently promoted to the singleton set when a set is
//! expected.  This module provides both notions: [`Attr`], a cheaply clonable
//! interned attribute name, and [`AttrSet`], an attribute set with the usual
//! set algebra.
//!
//! # Representation
//!
//! Attribute names are interned once, process-wide, in the [`AttrUniverse`]:
//! every distinct name is assigned a dense `u32` id in first-come order.  The
//! interner never frees a name, so it leaks one entry per name holding the
//! id (for O(1) equality and set membership) and the name (for lock-free
//! display and ordering), and an [`Attr`] is one `&'static` pointer to that
//! entry: cloning or dropping an [`Attr`] copies one pointer and touches no
//! shared counter, and reading its id or name is one load.
//!
//! An [`AttrSet`] is a bitset over those ids.  Sets whose members all have
//! ids below 64 — the overwhelmingly common case — live in a single inline
//! `u64`; larger universes spill to a boxed slice of words.  Union,
//! intersection, difference, subset, superset and disjointness tests are all
//! word-parallel bit operations, never string comparisons.
//!
//! # Canonical order
//!
//! Interning ids are assigned in first-come order and are therefore *not*
//! stable across runs.  All observable orderings consequently go through the
//! attribute *names*: [`AttrSet::iter`], [`AttrSet::to_vec`], the `Display`
//! rendering and the `Ord` instances of both [`Attr`] and [`AttrSet`] use
//! lexicographic name order.  This is the canonical order the rest of the
//! system relies on (schemes, dependency sets and tuples render
//! deterministically regardless of interning order), and it is guaranteed to
//! match what the previous `BTreeSet`-based representation produced.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// The process-wide attribute interner: a bijection between attribute names
/// and dense `u32` ids.
///
/// Ids are handed out in first-come order, so they are dense (the first `n`
/// distinct names get ids `0..n`) but not lexicographically meaningful; see
/// the module docs for how canonical ordering is preserved on top of that.
pub struct AttrUniverse {
    inner: RwLock<UniverseInner>,
}

/// One interned attribute: its id and its name, leaked once per name so an
/// [`Attr`] can be a single pointer to it.
struct AttrEntry {
    id: u32,
    name: &'static str,
}

#[derive(Default)]
struct UniverseInner {
    /// The entry of every id, indexed by id.
    entries: Vec<&'static AttrEntry>,
    by_name: HashMap<&'static str, &'static AttrEntry>,
}

impl AttrUniverse {
    fn new() -> Self {
        AttrUniverse {
            inner: RwLock::new(UniverseInner::default()),
        }
    }

    /// The global universe every [`Attr`] is interned in.
    pub fn global() -> &'static AttrUniverse {
        static GLOBAL: OnceLock<AttrUniverse> = OnceLock::new();
        GLOBAL.get_or_init(AttrUniverse::new)
    }

    /// Interns `name`, returning its attribute.  Entries live as long as
    /// the process (the universe never forgets a name), so a name already
    /// interned costs one read lock and one hash lookup.
    pub fn intern(&self, name: &str) -> Attr {
        if let Some(&entry) = self.inner.read().unwrap().by_name.get(name) {
            return Attr { entry };
        }
        let mut inner = self.inner.write().unwrap();
        // Re-check under the write lock: another thread may have interned the
        // name between our read and write acquisitions.
        if let Some(&entry) = inner.by_name.get(name) {
            return Attr { entry };
        }
        let id = u32::try_from(inner.entries.len()).expect("attribute universe exhausted u32 ids");
        let name: &'static str = Box::leak(name.into());
        let entry: &'static AttrEntry = Box::leak(Box::new(AttrEntry { id, name }));
        inner.entries.push(entry);
        inner.by_name.insert(name, entry);
        Attr { entry }
    }

    /// Looks up the id of an already-interned name, without interning it.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.inner.read().unwrap().by_name.get(name).map(|e| e.id)
    }

    /// The name interned under `id`.
    ///
    /// # Panics
    /// Panics if `id` was never handed out by this universe.
    pub fn resolve(&self, id: u32) -> &'static str {
        self.entry(id).name
    }

    fn entry(&self, id: u32) -> &'static AttrEntry {
        self.inner.read().unwrap().entries[id as usize]
    }

    /// Resolves many ids under a single lock acquisition.
    pub fn resolve_all(&self, ids: impl IntoIterator<Item = u32>) -> Vec<Attr> {
        let inner = self.inner.read().unwrap();
        ids.into_iter()
            .map(|id| Attr {
                entry: inner.entries[id as usize],
            })
            .collect()
    }

    /// Number of distinct attribute names interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().entries.len()
    }

    /// Whether no name has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A single attribute name.
///
/// Attributes are interned in the global [`AttrUniverse`]: an `Attr` is one
/// pointer to its interned entry, equality compares the pointers (one entry
/// per id), cloning copies the pointer, and the name is available without
/// touching the interner.
/// Ordering is lexicographic on the name, which gives attribute sets,
/// schemes and dependency sets a canonical order independent of interning
/// order.
///
/// The single pointer is a layout decision: a tuple stores `(Attr, Value)`
/// pairs, which are 32 bytes with a one-word `Attr` against 48 bytes with an
/// inline id and name.  The three pairs a tuple keeps in place are then 96
/// bytes, and the whole tuple, shape bitset included, stays within 128.
#[derive(Clone)]
pub struct Attr {
    entry: &'static AttrEntry,
}

impl Attr {
    /// Creates (interning if necessary) an attribute from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        AttrUniverse::global().intern(name.as_ref())
    }

    /// Reconstructs an attribute from its interned id.
    ///
    /// # Panics
    /// Panics if `id` was never handed out by the global universe.
    pub fn from_id(id: u32) -> Self {
        Attr {
            entry: AttrUniverse::global().entry(id),
        }
    }

    /// The attribute's dense interned id.
    pub fn id(&self) -> u32 {
        self.entry.id
    }

    /// The attribute's name.
    pub fn name(&self) -> &'static str {
        self.entry.name
    }

    /// Promotes this attribute to a singleton [`AttrSet`] (the paper's
    /// convention of "treat attributes as singleton attribute sets when sets
    /// of attributes are expected").
    pub fn to_set(&self) -> AttrSet {
        AttrSet::singleton(self.clone())
    }
}

// Identity: the interner leaks exactly one entry per id, so two attributes
// are equal exactly when they point at the same entry.
impl PartialEq for Attr {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.entry, other.entry)
    }
}

impl Eq for Attr {}

// Ordering is by name so canonical order survives arbitrary interning order;
// this is consistent with equality because the interner is a bijection.
impl PartialOrd for Attr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Attr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self == other {
            std::cmp::Ordering::Equal
        } else {
            self.name().cmp(other.name())
        }
    }
}

// Hashes the *name* (not the id) so that `Borrow<str>` keeps the required
// `hash(attr) == hash(attr.name())` consistency for map lookups by name.
impl Hash for Attr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name().hash(state)
    }
}

impl fmt::Debug for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl From<&str> for Attr {
    fn from(s: &str) -> Self {
        Attr::new(s)
    }
}

impl From<String> for Attr {
    fn from(s: String) -> Self {
        Attr::new(s)
    }
}

impl From<&Attr> for Attr {
    fn from(a: &Attr) -> Self {
        a.clone()
    }
}

impl Borrow<str> for Attr {
    fn borrow(&self) -> &str {
        self.name()
    }
}

impl AsRef<str> for Attr {
    fn as_ref(&self) -> &str {
        self.name()
    }
}

const BITS: usize = 64;

/// The bit storage of an [`AttrSet`]: one inline word while every member id
/// fits below 64, a boxed slice of words otherwise.
#[derive(Clone)]
enum Bits {
    Inline(u64),
    Spilled(Box<[u64]>),
}

/// An attribute set.
///
/// `AttrSet` is the workhorse of the dependency theory: left- and right-hand
/// sides of ADs and FDs, scheme DNF entries, tuple shapes (`attr(t)`) and
/// closures are all attribute sets.  It is a bitset over interned attribute
/// ids (see the module docs), so the set algebra used throughout the paper —
/// union, intersection, difference, subset — runs as word-parallel bit
/// operations.  Iteration and display are in lexicographic name order.
#[derive(Clone)]
pub struct AttrSet {
    bits: Bits,
}

impl Default for AttrSet {
    fn default() -> Self {
        AttrSet::empty()
    }
}

impl AttrSet {
    /// The empty attribute set `∅`.
    pub fn empty() -> Self {
        AttrSet {
            bits: Bits::Inline(0),
        }
    }

    /// A singleton attribute set `{A}`.
    pub fn singleton(a: impl Into<Attr>) -> Self {
        let mut s = AttrSet::empty();
        s.insert(a.into());
        s
    }

    /// Builds an attribute set from anything yielding attribute names.
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut s = AttrSet::empty();
        for n in names {
            s.insert(Attr::new(n.as_ref()));
        }
        s
    }

    /// The raw words of the bitset (used internally by the set algebra).
    fn words(&self) -> &[u64] {
        match &self.bits {
            Bits::Inline(w) => std::slice::from_ref(w),
            Bits::Spilled(ws) => ws,
        }
    }

    /// Sets the bit for `id`, growing to the spilled representation if needed.
    /// Returns `true` if the bit was not set before.
    fn set_bit(&mut self, id: u32) -> bool {
        let (word, bit) = (id as usize / BITS, id as usize % BITS);
        let mask = 1u64 << bit;
        match &mut self.bits {
            Bits::Inline(w) if word == 0 => {
                let fresh = *w & mask == 0;
                *w |= mask;
                fresh
            }
            Bits::Inline(w) => {
                let mut ws = vec![0u64; word + 1];
                ws[0] = *w;
                ws[word] |= mask;
                self.bits = Bits::Spilled(ws.into_boxed_slice());
                true
            }
            Bits::Spilled(ws) => {
                if word >= ws.len() {
                    let mut grown = vec![0u64; word + 1];
                    grown[..ws.len()].copy_from_slice(ws);
                    grown[word] |= mask;
                    self.bits = Bits::Spilled(grown.into_boxed_slice());
                    true
                } else {
                    let fresh = ws[word] & mask == 0;
                    ws[word] |= mask;
                    fresh
                }
            }
        }
    }

    /// Clears the bit for `id`; returns `true` if it was set.
    fn clear_bit(&mut self, id: u32) -> bool {
        let (word, bit) = (id as usize / BITS, id as usize % BITS);
        let mask = 1u64 << bit;
        match &mut self.bits {
            Bits::Inline(w) => {
                if word == 0 && *w & mask != 0 {
                    *w &= !mask;
                    true
                } else {
                    false
                }
            }
            Bits::Spilled(ws) => {
                if word < ws.len() && ws[word] & mask != 0 {
                    ws[word] &= !mask;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn has_bit(&self, id: u32) -> bool {
        let (word, bit) = (id as usize / BITS, id as usize % BITS);
        self.words()
            .get(word)
            .is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Number of attributes in the set.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Whether `a` is a member of the set.
    pub fn contains(&self, a: &Attr) -> bool {
        self.has_bit(a.id())
    }

    /// Whether the attribute with the given interned id is a member.
    pub fn contains_id(&self, id: u32) -> bool {
        self.has_bit(id)
    }

    /// Whether an attribute with the given name is a member of the set.
    pub fn contains_name(&self, name: &str) -> bool {
        // A name that was never interned cannot be in any set.
        AttrUniverse::global()
            .lookup(name)
            .is_some_and(|id| self.has_bit(id))
    }

    /// Inserts an attribute; returns `true` if it was not present before.
    pub fn insert(&mut self, a: impl Into<Attr>) -> bool {
        self.set_bit(a.into().id())
    }

    /// Inserts the attribute with the given interned id; returns `true` if it
    /// was not present before.
    pub fn insert_id(&mut self, id: u32) -> bool {
        self.set_bit(id)
    }

    /// Removes an attribute; returns `true` if it was present.
    pub fn remove(&mut self, a: &Attr) -> bool {
        self.clear_bit(a.id())
    }

    fn zip_words<F: Fn(u64, u64) -> u64>(&self, other: &AttrSet, f: F) -> AttrSet {
        let (a, b) = (self.words(), other.words());
        let n = a.len().max(b.len());
        if n <= 1 {
            return AttrSet {
                bits: Bits::Inline(f(
                    a.first().copied().unwrap_or(0),
                    b.first().copied().unwrap_or(0),
                )),
            };
        }
        let mut out = vec![0u64; n];
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(
                a.get(i).copied().unwrap_or(0),
                b.get(i).copied().unwrap_or(0),
            );
        }
        AttrSet {
            bits: Bits::Spilled(out.into_boxed_slice()),
        }
    }

    /// Set union `X ∪ Y` (the paper's juxtaposition `XY`).
    pub fn union(&self, other: &AttrSet) -> AttrSet {
        self.zip_words(other, |a, b| a | b)
    }

    /// Set intersection `X ∩ Y`.
    pub fn intersection(&self, other: &AttrSet) -> AttrSet {
        self.zip_words(other, |a, b| a & b)
    }

    /// Set difference `X − Y`.
    pub fn difference(&self, other: &AttrSet) -> AttrSet {
        self.zip_words(other, |a, b| a & !b)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &AttrSet) -> bool {
        let (a, b) = (self.words(), other.words());
        a.iter()
            .enumerate()
            .all(|(i, &w)| w & !b.get(i).copied().unwrap_or(0) == 0)
    }

    /// Whether `self ⊇ other`.
    pub fn is_superset(&self, other: &AttrSet) -> bool {
        other.is_subset(self)
    }

    /// Whether the two sets have no attribute in common.
    pub fn is_disjoint(&self, other: &AttrSet) -> bool {
        let (a, b) = (self.words(), other.words());
        a.iter()
            .enumerate()
            .all(|(i, &w)| w & b.get(i).copied().unwrap_or(0) == 0)
    }

    /// Iterates over the member ids in ascending *id* order (no name
    /// resolution; the hot path for the closure algorithms).
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &w)| {
            let base = (wi * BITS) as u32;
            std::iter::successors(if w == 0 { None } else { Some(w) }, |&rest| {
                let next = rest & (rest - 1);
                if next == 0 {
                    None
                } else {
                    Some(next)
                }
            })
            .map(move |rest| base + rest.trailing_zeros())
        })
    }

    /// Iterates over the attributes in lexicographic name order (the
    /// canonical order; see the module docs).
    pub fn iter(&self) -> std::vec::IntoIter<Attr> {
        self.to_vec().into_iter()
    }

    /// Iterates over the attributes in unspecified (id) order, skipping the
    /// canonical sort.  Use this in hot paths where the visit order is
    /// unobservable (e.g. all/any-style scans); use [`AttrSet::iter`]
    /// anywhere order can leak into output.
    pub fn iter_unordered(&self) -> std::vec::IntoIter<Attr> {
        AttrUniverse::global().resolve_all(self.ids()).into_iter()
    }

    /// Returns the attributes as a vector in lexicographic name order.
    pub fn to_vec(&self) -> Vec<Attr> {
        let mut attrs = AttrUniverse::global().resolve_all(self.ids());
        attrs.sort_unstable_by_key(|a| a.name());
        attrs
    }

    /// Extends the set with the attributes of `other` in place.
    pub fn extend_with(&mut self, other: &AttrSet) {
        if other.is_subset(self) {
            return;
        }
        *self = self.union(other);
    }

    /// All subsets of this set (the power set).  Only intended for small sets
    /// (e.g. enumerating candidate dependency sides in tests and the witness
    /// construction); panics if the set has more than 20 attributes.
    pub fn power_set(&self) -> Vec<AttrSet> {
        assert!(
            self.len() <= 20,
            "power_set is only supported for sets of at most 20 attributes"
        );
        let attrs = self.to_vec();
        let n = attrs.len();
        let mut out = Vec::with_capacity(1 << n);
        for mask in 0u32..(1u32 << n) {
            let mut s = AttrSet::empty();
            for (i, a) in attrs.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s.insert(a.clone());
                }
            }
            out.push(s);
        }
        out
    }
}

// Equality must not distinguish inline from spilled storage or depend on
// trailing zero words, so it compares words with implicit zero padding.
impl PartialEq for AttrSet {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.words(), other.words());
        let n = a.len().max(b.len());
        (0..n).all(|i| a.get(i).copied().unwrap_or(0) == b.get(i).copied().unwrap_or(0))
    }
}

impl Eq for AttrSet {}

// Hashing skips trailing zero words for the same reason equality pads them.
impl Hash for AttrSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ws = self.words();
        let significant = ws.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        ws[..significant].hash(state)
    }
}

// Ordering is lexicographic over the canonical (name-ordered) attribute
// sequence, matching what the previous `BTreeSet<Attr>` representation
// produced and keeping ordered collections of attribute sets deterministic
// across runs despite unstable interning ids.
impl PartialOrd for AttrSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AttrSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        // Resolve both sides under a single interner lock and compare the
        // sorted name sequences — no `Attr` construction per comparison.
        let inner = AttrUniverse::global().inner.read().unwrap();
        let mut a: Vec<&str> = self
            .ids()
            .map(|id| inner.entries[id as usize].name)
            .collect();
        let mut b: Vec<&str> = other
            .ids()
            .map(|id| inner.entries[id as usize].name)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        a.cmp(&b)
    }
}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", a)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Attr> for AttrSet {
    fn from_iter<T: IntoIterator<Item = Attr>>(iter: T) -> Self {
        let mut s = AttrSet::empty();
        for a in iter {
            s.insert(a);
        }
        s
    }
}

impl<'a> FromIterator<&'a Attr> for AttrSet {
    fn from_iter<T: IntoIterator<Item = &'a Attr>>(iter: T) -> Self {
        let mut s = AttrSet::empty();
        for a in iter {
            s.insert(a.clone());
        }
        s
    }
}

impl IntoIterator for AttrSet {
    type Item = Attr;
    type IntoIter = std::vec::IntoIter<Attr>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for &AttrSet {
    type Item = Attr;
    type IntoIter = std::vec::IntoIter<Attr>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Attr> for AttrSet {
    fn from(a: Attr) -> Self {
        AttrSet::singleton(a)
    }
}

impl From<&str> for AttrSet {
    fn from(a: &str) -> Self {
        AttrSet::singleton(Attr::new(a))
    }
}

impl From<Vec<&str>> for AttrSet {
    fn from(names: Vec<&str>) -> Self {
        AttrSet::from_names(names)
    }
}

impl<const N: usize> From<[&str; N]> for AttrSet {
    fn from(names: [&str; N]) -> Self {
        AttrSet::from_names(names)
    }
}

/// Convenience macro for constructing an [`AttrSet`] from literal names:
/// `attrs!["salary", "jobtype"]`.
#[macro_export]
macro_rules! attrs {
    () => { $crate::attr::AttrSet::empty() };
    ($($name:expr),+ $(,)?) => {
        $crate::attr::AttrSet::from_names([$($name),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_equality_and_ordering() {
        let a = Attr::new("A");
        let b = Attr::new("B");
        let a2 = Attr::new("A");
        assert_eq!(a, a2);
        assert_eq!(a.id(), a2.id(), "interning is stable");
        assert_ne!(a, b);
        assert!(a < b);
        assert_eq!(a.name(), "A");
    }

    #[test]
    fn attr_display() {
        assert_eq!(format!("{}", Attr::new("salary")), "salary");
        assert_eq!(format!("{:?}", Attr::new("salary")), "salary");
    }

    #[test]
    fn attr_from_id_round_trips() {
        let a = Attr::new("round-trip-attr");
        assert_eq!(Attr::from_id(a.id()), a);
    }

    #[test]
    fn attrset_union_is_juxtaposition() {
        let x = attrs!["A", "B"];
        let y = attrs!["B", "C"];
        assert_eq!(x.union(&y), attrs!["A", "B", "C"]);
    }

    #[test]
    fn attrset_intersection_and_difference() {
        let x = attrs!["A", "B", "C"];
        let y = attrs!["B", "C", "D"];
        assert_eq!(x.intersection(&y), attrs!["B", "C"]);
        assert_eq!(x.difference(&y), attrs!["A"]);
        assert_eq!(y.difference(&x), attrs!["D"]);
    }

    #[test]
    fn attrset_subset_relations() {
        let x = attrs!["A", "B"];
        let y = attrs!["A", "B", "C"];
        assert!(x.is_subset(&y));
        assert!(y.is_superset(&x));
        assert!(!y.is_subset(&x));
        assert!(AttrSet::empty().is_subset(&x));
        assert!(x.is_subset(&x));
    }

    #[test]
    fn attrset_disjointness() {
        assert!(attrs!["A"].is_disjoint(&attrs!["B"]));
        assert!(!attrs!["A", "B"].is_disjoint(&attrs!["B", "C"]));
        assert!(AttrSet::empty().is_disjoint(&attrs!["A"]));
    }

    #[test]
    fn attrset_display_is_sorted() {
        let x = attrs!["C", "A", "B"];
        assert_eq!(format!("{}", x), "{A, B, C}");
    }

    #[test]
    fn attrset_insert_remove() {
        let mut x = AttrSet::empty();
        assert!(x.insert("A"));
        assert!(!x.insert("A"));
        assert!(x.contains(&Attr::new("A")));
        assert!(x.remove(&Attr::new("A")));
        assert!(!x.remove(&Attr::new("A")));
        assert!(x.is_empty());
    }

    #[test]
    fn attrset_singleton_promotion() {
        let a = Attr::new("A");
        assert_eq!(a.to_set(), attrs!["A"]);
        let s: AttrSet = a.into();
        assert_eq!(s, attrs!["A"]);
    }

    #[test]
    fn power_set_enumerates_all_subsets() {
        let x = attrs!["A", "B", "C"];
        let ps = x.power_set();
        assert_eq!(ps.len(), 8);
        assert!(ps.contains(&AttrSet::empty()));
        assert!(ps.contains(&attrs!["A", "B", "C"]));
        assert!(ps.contains(&attrs!["A", "C"]));
        // Every element is a subset.
        assert!(ps.iter().all(|s| s.is_subset(&x)));
    }

    #[test]
    fn contains_name_borrow() {
        let x = attrs!["salary", "jobtype"];
        assert!(x.contains_name("salary"));
        assert!(!x.contains_name("products"));
        assert!(!x.contains_name("never-interned-name-xyzzy"));
    }

    #[test]
    fn from_iterators() {
        let v = vec![Attr::new("A"), Attr::new("B")];
        let s: AttrSet = v.iter().collect();
        assert_eq!(s.len(), 2);
        let s2: AttrSet = v.into_iter().collect();
        assert_eq!(s, s2);
        let names: Vec<String> = s.iter().map(|a| a.name().to_string()).collect();
        assert_eq!(names, vec!["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn extend_with_unions_in_place() {
        let mut x = attrs!["A"];
        x.extend_with(&attrs!["B", "C"]);
        assert_eq!(x, attrs!["A", "B", "C"]);
    }

    #[test]
    fn spilled_sets_behave_like_inline_sets() {
        // Force ids ≥ 64 to exercise the spilled representation.  The global
        // universe is shared across tests, so generate enough fresh names to
        // guarantee at least some land beyond the first word.
        let names: Vec<String> = (0..96).map(|i| format!("spill-test-{:03}", i)).collect();
        let all = AttrSet::from_names(&names);
        assert_eq!(all.len(), 96);
        let half = AttrSet::from_names(&names[..48]);
        assert!(half.is_subset(&all));
        assert!(!all.is_subset(&half));
        assert_eq!(all.difference(&half).len(), 48);
        assert_eq!(all.intersection(&half), half);
        assert_eq!(half.union(&all), all);
        // Mixed inline/spilled equality and hashing: removing the spilled
        // members must make the set equal to its inline-only restriction.
        let mut shrunk = all.clone();
        for n in &names {
            if !half.contains_name(n) {
                assert!(shrunk.remove(&Attr::new(n)));
            }
        }
        assert_eq!(shrunk, half);
        use std::collections::hash_map::DefaultHasher;
        let h = |s: &AttrSet| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&shrunk), h(&half), "hash ignores trailing zero words");
    }

    #[test]
    fn ids_iterates_every_member() {
        let x = attrs!["A", "B", "C"];
        let ids: Vec<u32> = x.ids().collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending id order");
        for id in ids {
            assert!(x.contains_id(id));
            assert!(x.contains(&Attr::from_id(id)));
        }
    }

    #[test]
    fn canonical_order_is_name_order_not_id_order() {
        // Intern in reverse lexicographic order: ids are now anti-sorted
        // relative to names, yet iteration must stay lexicographic.
        let z = Attr::new("zzz-order-test");
        let m = Attr::new("mmm-order-test");
        let a = Attr::new("aaa-order-test");
        assert!(z.id() < m.id() && m.id() < a.id());
        let s: AttrSet = [&z, &m, &a].into_iter().collect();
        let names: Vec<&'static str> = vec!["aaa-order-test", "mmm-order-test", "zzz-order-test"];
        assert_eq!(
            s.iter().map(|x| x.name().to_string()).collect::<Vec<_>>(),
            names
        );
        assert_eq!(
            format!("{}", s),
            "{aaa-order-test, mmm-order-test, zzz-order-test}"
        );
        // `Ord` on `Attr` itself is name order too, against the id order.
        assert!(a < m && m < z);
        let mut sorted = vec![z.clone(), a.clone(), m.clone()];
        sorted.sort();
        assert_eq!(sorted, vec![a, m, z]);
    }

    /// The layout the type docs promise: one pointer per attribute, a
    /// 24-byte value whatever string it holds, and a tuple that holds its
    /// first three pairs in place within two cache lines.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn attr_is_one_pointer() {
        use crate::tuple::Tuple;
        use crate::value::Value;
        assert_eq!(std::mem::size_of::<Attr>(), 8);
        assert_eq!(std::mem::size_of::<Value>(), 24);
        let tuple = std::mem::size_of::<Tuple>();
        assert!(tuple <= 128, "a tuple is {tuple} bytes");
    }

    /// `Hash` follows the name, so the `Borrow<str>` contract holds and a
    /// map keyed by attribute answers lookups by name.
    #[test]
    fn attr_keyed_maps_answer_lookups_by_name() {
        let mut m: HashMap<Attr, u32> = HashMap::new();
        m.insert(Attr::new("salary"), 1);
        m.insert(Attr::new("jobtype"), 2);
        assert_eq!(m.get("salary"), Some(&1));
        assert_eq!(m.get("jobtype"), Some(&2));
        assert_eq!(m.get("never-interned-map-key"), None);
        assert_eq!(m.get(&Attr::new("salary")), Some(&1));
    }
}
