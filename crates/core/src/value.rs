//! Values and domains.
//!
//! Tuples map attributes to values of given (atomic) domains.  The value
//! space is a closed enum; domains constrain which values an attribute may
//! take and are used both for type checking at insert time and for deriving
//! the supertype/subtype domains of section 3.2 (where a subtype restricts
//! the domain of the determining attributes to the variant's value set `Vi`).
//!
//! `Value::Null` exists only so that the *baseline* translations the paper
//! argues against (flat, null-padded relations, §3.1.1) can be represented
//! and compared; flexible relations themselves never store nulls.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use crate::error::{CoreError, Result};

/// An atomic value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.  Ordered via total ordering (NaN sorts last) so values
    /// can live in ordered sets.
    Float(f64),
    /// UTF-8 string.  A short one is stored in the value itself and a long
    /// one behind a shared pointer (see [`Text`]), so cloning a tuple — the
    /// bread and butter of selections, joins and peer checks — neither
    /// allocates nor copies a long string's bytes.
    Str(Text),
    /// Boolean.
    Bool(bool),
    /// A tag from an enumerated domain (e.g. `jobtype : 'secretary'`).
    /// Distinguished from `Str` so that enumeration domains can be closed.
    Tag(Text),
    /// SQL-style null.  Only used by the null-padded baseline representation;
    /// never legal inside a flexible relation.
    Null,
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into().into())
    }

    /// Convenience constructor for enumeration tags.
    pub fn tag(s: impl Into<String>) -> Self {
        Value::Tag(s.into().into())
    }

    /// Whether this value is the SQL-style null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The kind of this value, for error messages and domain checks.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Str(_) => ValueKind::Str,
            Value::Bool(_) => ValueKind::Bool,
            Value::Tag(_) => ValueKind::Tag,
            Value::Null => ValueKind::Null,
        }
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view of the value, if it is textual (`Str` or `Tag`).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) | Value::Tag(s) => Some(s),
            _ => None,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order over all values.  Within a kind the natural order is used
    /// (floats via `total_cmp`); across kinds the order is by kind rank.
    /// Numeric comparisons across `Int`/`Float` compare numerically so that
    /// predicates like `salary > 5000` behave as expected regardless of the
    /// stored representation.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Tag(a), Tag(b)) => a.cmp(b),
            (Null, Null) => Ordering::Equal,
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.kind_rank().hash(state);
        match self {
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Tag(s) => s.hash(state),
            Value::Null => {}
        }
    }
}

impl Value {
    /// Equality bit for bit: like `==`, except that a float equals exactly
    /// the floats with its bit pattern, so `0.0` is not `-0.0` and a NaN
    /// equals itself.  This is the equality [`Value`]'s `Hash` agrees
    /// with; see [`BitExact`].
    pub fn same_bits(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => self == other,
        }
    }

    fn kind_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // same rank as Int: numerically comparable
            Value::Str(_) => 3,
            Value::Tag(_) => 4,
        }
    }
}

/// A value compared bit for bit ([`Value::same_bits`]): a hash key that
/// keeps every stored value, where `Value`'s own `==` would merge `0.0`
/// with `-0.0` and split a NaN from itself.
#[derive(Clone, Debug)]
pub struct BitExact(pub Value);

impl PartialEq for BitExact {
    fn eq(&self, other: &Self) -> bool {
        self.0.same_bits(&other.0)
    }
}

impl Eq for BitExact {}

impl Hash for BitExact {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{}", i),
            Value::Float(x) => write!(f, "{}", x),
            Value::Str(s) => write!(f, "\"{}\"", s),
            Value::Bool(b) => write!(f, "{}", b),
            Value::Tag(s) => write!(f, "'{}'", s),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Text::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

/// The longest string, in UTF-8 bytes, a [`Text`] stores inline.
const INLINE_TEXT: usize = 7;

/// The string payload of [`Value::Str`] and [`Value::Tag`].
///
/// A string of at most seven UTF-8 bytes — such as the `kind` tag of
/// every record of the benchmark's `wide` relation — is stored in the
/// `Text` itself, so building,
/// cloning and dropping it touches no allocator and no reference count.
/// A longer string is shared behind an `Arc<str>`, and cloning it bumps
/// the count.  Which of the two a string gets depends on its length alone,
/// so the representation is canonical.  A `Text` is 16 bytes and keeps
/// [`Value`] at 24.
///
/// `Text` dereferences to `str`, and it compares and orders by content,
/// exactly like the `str` it holds; equal texts hash alike.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `bytes` are the string, which is valid
    /// UTF-8; the rest are zero.
    Inline { len: u8, bytes: [u8; INLINE_TEXT] },
    /// A string longer than [`INLINE_TEXT`] bytes.
    Shared(Arc<str>),
}

impl Text {
    /// The string.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline bytes are copied from a str")
            }
            Repr::Shared(s) => s,
        }
    }

    /// The string's UTF-8 bytes, which order and hash a `Text` without
    /// checking them.
    #[inline]
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared(s) => s.as_bytes(),
        }
    }

    /// `s` stored inline, if it fits.
    #[inline]
    fn inline(s: &str) -> Option<Text> {
        let len = s.len();
        (len <= INLINE_TEXT).then(|| {
            let mut bytes = [0; INLINE_TEXT];
            bytes[..len].copy_from_slice(s.as_bytes());
            Text(Repr::Inline {
                len: len as u8,
                bytes,
            })
        })
    }
}

impl Deref for Text {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Text {
    #[inline]
    fn from(s: &str) -> Self {
        Text::inline(s).unwrap_or_else(|| Text(Repr::Shared(Arc::from(s))))
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text::inline(&s).unwrap_or_else(|| Text(Repr::Shared(Arc::from(s))))
    }
}

/// Shares `s` when it is too long to store inline.
impl From<Arc<str>> for Text {
    fn from(s: Arc<str>) -> Self {
        Text::inline(&s).unwrap_or(Text(Repr::Shared(s)))
    }
}

impl PartialEq for Text {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            // Zero-filled past `len`, so the fixed-size compare is exact.
            (Repr::Inline { len: a, bytes: x }, Repr::Inline { len: b, bytes: y }) => {
                a == b && x == y
            }
            (Repr::Shared(a), Repr::Shared(b)) => Arc::ptr_eq(a, b) || a == b,
            // The length alone picks the representation.
            _ => false,
        }
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// Byte order is `str` order.
impl Ord for Text {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The kind (runtime type) of a [`Value`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueKind {
    Int,
    Float,
    Str,
    Bool,
    Tag,
    Null,
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueKind::Int => "int",
            ValueKind::Float => "float",
            ValueKind::Str => "string",
            ValueKind::Bool => "bool",
            ValueKind::Tag => "tag",
            ValueKind::Null => "null",
        };
        write!(f, "{}", s)
    }
}

/// An attribute domain: the set of values an attribute may take.
///
/// Domains play two roles in the paper: they type-check atomic values, and
/// they are *restricted* when an AD induces subtypes (the subtype for variant
/// `i` restricts the determining attributes' domain to `Vi`, §3.2).
#[derive(Clone, Debug, PartialEq)]
pub enum Domain {
    /// Any integer.
    Int,
    /// Integers within an inclusive range.
    IntRange(i64, i64),
    /// Any float.
    Float,
    /// Any string.
    Text,
    /// Booleans.
    Bool,
    /// A closed enumeration of tags, e.g. `{ 'secretary', 'software engineer',
    /// 'salesman' }`.
    Enum(BTreeSet<String>),
    /// An explicit finite set of values (used for restricted subtype domains).
    Finite(BTreeSet<Value>),
    /// Unconstrained: any non-null value is accepted.
    Any,
}

impl Domain {
    /// Builds an enumeration domain from tag names.
    pub fn enumeration<I, S>(tags: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Domain::Enum(tags.into_iter().map(Into::into).collect())
    }

    /// Builds a finite domain from explicit values.
    pub fn finite<I>(values: I) -> Self
    where
        I: IntoIterator<Item = Value>,
    {
        Domain::Finite(values.into_iter().collect())
    }

    /// Whether `v` belongs to this domain.  Nulls never belong to any domain
    /// (flexible relations model missing information by *absence*, not null).
    pub fn contains(&self, v: &Value) -> bool {
        match (self, v) {
            (_, Value::Null) => false,
            (Domain::Any, _) => true,
            (Domain::Int, Value::Int(_)) => true,
            (Domain::IntRange(lo, hi), Value::Int(i)) => i >= lo && i <= hi,
            (Domain::Float, Value::Float(_)) | (Domain::Float, Value::Int(_)) => true,
            (Domain::Text, Value::Str(_)) => true,
            (Domain::Bool, Value::Bool(_)) => true,
            (Domain::Enum(tags), Value::Tag(t)) => tags.contains(&**t),
            (Domain::Enum(tags), Value::Str(t)) => tags.contains(&**t),
            (Domain::Finite(vals), v) => vals.contains(v),
            _ => false,
        }
    }

    /// Checks membership and produces a descriptive error on failure.
    pub fn check(&self, attr_name: &str, v: &Value) -> Result<()> {
        if self.contains(v) {
            Ok(())
        } else {
            Err(CoreError::DomainViolation {
                attr: attr_name.to_string(),
                value: v.to_string(),
                domain: format!("{:?}", self),
            })
        }
    }

    /// Restricts this domain to the given set of values (used when deriving
    /// the subtype for a variant, §3.2).  The result is the finite domain of
    /// those members of `values` that already belong to `self`.
    pub fn restrict_to<I>(&self, values: I) -> Domain
    where
        I: IntoIterator<Item = Value>,
    {
        Domain::Finite(values.into_iter().filter(|v| self.contains(v)).collect())
    }

    /// Whether this domain is a (weak) restriction of `other`: every value of
    /// `self` that we can enumerate lies in `other`.  For non-enumerable
    /// domains this falls back to structural comparison.
    pub fn is_restriction_of(&self, other: &Domain) -> bool {
        match (self, other) {
            (_, Domain::Any) => true,
            (Domain::Finite(vals), o) => vals.iter().all(|v| o.contains(v)),
            (Domain::Enum(a), Domain::Enum(b)) => a.is_subset(b),
            (Domain::IntRange(lo, hi), Domain::IntRange(lo2, hi2)) => lo >= lo2 && hi <= hi2,
            (Domain::IntRange(_, _), Domain::Int) => true,
            (Domain::Int, Domain::Float) => true,
            (a, b) => a == b,
        }
    }

    /// The number of values in the domain, if it is finite and enumerable.
    pub fn cardinality(&self) -> Option<usize> {
        match self {
            Domain::Enum(tags) => Some(tags.len()),
            Domain::Finite(vals) => Some(vals.len()),
            Domain::Bool => Some(2),
            Domain::IntRange(lo, hi) => usize::try_from(hi - lo + 1).ok(),
            _ => None,
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Int => write!(f, "int"),
            Domain::IntRange(lo, hi) => write!(f, "int[{}..{}]", lo, hi),
            Domain::Float => write!(f, "float"),
            Domain::Text => write!(f, "text"),
            Domain::Bool => write!(f, "bool"),
            Domain::Enum(tags) => {
                write!(f, "{{")?;
                for (i, t) in tags.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "'{}'", t)?;
                }
                write!(f, "}}")
            }
            Domain::Finite(vals) => {
                write!(f, "{{")?;
                for (i, v) in vals.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", v)?;
                }
                write!(f, "}}")
            }
            Domain::Any => write!(f, "any"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_ordering_numeric_across_kinds() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert!(Value::Int(2) > Value::Float(1.5));
        assert_eq!(Value::Int(3).cmp(&Value::Float(3.0)), Ordering::Equal);
    }

    #[test]
    fn value_ordering_strings_and_tags() {
        assert!(Value::str("abc") < Value::str("abd"));
        assert!(Value::tag("salesman") < Value::tag("secretary"));
        // Strings and tags are different kinds, ordered by kind rank.
        assert!(Value::str("z") < Value::tag("a"));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::str("x").to_string(), "\"x\"");
        assert_eq!(Value::tag("secretary").to_string(), "'secretary'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(5i32), Value::Int(5));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::Int(5).as_f64(), Some(5.0));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert_eq!(Value::tag("t").as_str(), Some("t"));
        assert_eq!(Value::Bool(true).as_f64(), None);
    }

    #[test]
    fn domain_int_range() {
        let d = Domain::IntRange(0, 10);
        assert!(d.contains(&Value::Int(0)));
        assert!(d.contains(&Value::Int(10)));
        assert!(!d.contains(&Value::Int(11)));
        assert!(!d.contains(&Value::Float(5.0)));
        assert_eq!(d.cardinality(), Some(11));
    }

    #[test]
    fn domain_enum_jobtype() {
        let d = Domain::enumeration(["secretary", "software engineer", "salesman"]);
        assert!(d.contains(&Value::tag("secretary")));
        assert!(d.contains(&Value::str("salesman")));
        assert!(!d.contains(&Value::tag("ceo")));
        assert_eq!(d.cardinality(), Some(3));
    }

    #[test]
    fn domain_null_never_belongs() {
        for d in [
            Domain::Any,
            Domain::Int,
            Domain::Text,
            Domain::enumeration(["x"]),
        ] {
            assert!(!d.contains(&Value::Null), "null must not belong to {:?}", d);
        }
    }

    #[test]
    fn domain_check_produces_error() {
        let d = Domain::Int;
        assert!(d.check("salary", &Value::Int(3)).is_ok());
        let err = d.check("salary", &Value::str("oops")).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("salary"),
            "message should name the attribute: {msg}"
        );
    }

    #[test]
    fn domain_restriction() {
        let job = Domain::enumeration(["secretary", "software engineer", "salesman"]);
        let sub = job.restrict_to([Value::tag("secretary")]);
        assert!(sub.contains(&Value::tag("secretary")));
        assert!(!sub.contains(&Value::tag("salesman")));
        assert!(sub.is_restriction_of(&job));
        assert!(!job.is_restriction_of(&sub));
        assert!(job.is_restriction_of(&Domain::Any));
    }

    #[test]
    fn domain_float_accepts_ints() {
        assert!(Domain::Float.contains(&Value::Int(3)));
        assert!(Domain::Float.contains(&Value::Float(3.5)));
    }

    #[test]
    fn domain_restriction_int_ranges() {
        assert!(Domain::IntRange(2, 5).is_restriction_of(&Domain::IntRange(0, 10)));
        assert!(!Domain::IntRange(2, 15).is_restriction_of(&Domain::IntRange(0, 10)));
        assert!(Domain::IntRange(2, 5).is_restriction_of(&Domain::Int));
    }

    #[test]
    fn value_hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(1));
        set.insert(Value::Int(1));
        set.insert(Value::Float(1.0));
        set.insert(Value::tag("a"));
        assert_eq!(set.len(), 3);
    }
}
