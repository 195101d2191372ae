//! Hash indexes over attribute sets.
//!
//! An index maps the projection of a tuple onto the index key (an attribute
//! set) to the tuple identifiers carrying that projection.  Indexes over the
//! determining attributes of the declared ADs/FDs make both dependency
//! checking at insert time and equality selections on the determinant cheap
//! — the access-path counterpart of the query-rewrite uses of ADs (§3.1.2).
//!
//! With shape-partitioned heaps the indexed identifiers are [`Rid`]s, so an
//! index probe lands directly in the right partition.

use std::collections::HashMap;

use flexrel_core::attr::AttrSet;
use flexrel_core::tuple::Tuple;

use crate::partition::Rid;

/// A hash index over a fixed attribute-set key.
#[derive(Clone, Debug)]
pub struct HashIndex {
    key: AttrSet,
    entries: HashMap<Tuple, Vec<Rid>>,
    /// Tuples not defined on the full key are unreachable through the index
    /// and tracked separately so scans can fall back to them.
    partial: Vec<Rid>,
}

impl HashIndex {
    /// Creates an empty index over `key`.
    pub fn new(key: impl Into<AttrSet>) -> Self {
        HashIndex {
            key: key.into(),
            entries: HashMap::new(),
            partial: Vec::new(),
        }
    }

    /// The indexed attribute set.
    pub fn key(&self) -> &AttrSet {
        &self.key
    }

    /// Indexes a tuple.
    pub fn insert(&mut self, rid: Rid, t: &Tuple) {
        if t.defined_on(&self.key) {
            self.entries
                .entry(t.project(&self.key))
                .or_default()
                .push(rid);
        } else {
            self.partial.push(rid);
        }
    }

    /// Removes a tuple from the index.
    pub fn remove(&mut self, rid: Rid, t: &Tuple) {
        if t.defined_on(&self.key) {
            let k = t.project(&self.key);
            if let Some(v) = self.entries.get_mut(&k) {
                v.retain(|x| *x != rid);
                if v.is_empty() {
                    self.entries.remove(&k);
                }
            }
        } else {
            self.partial.retain(|x| *x != rid);
        }
    }

    /// Tuple identifiers whose key projection equals `key_value` (a tuple
    /// over exactly the index key).
    pub fn lookup(&self, key_value: &Tuple) -> &[Rid] {
        self.entries
            .get(key_value)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Tuple identifiers of tuples not defined on the full index key.
    pub fn partial_tuples(&self) -> &[Rid] {
        &self.partial
    }

    /// Iterates over the index entries: each distinct key projection with the
    /// identifiers of the tuples carrying it.  Entry and identifier order are
    /// unspecified; canonicalize before comparing snapshots.
    pub fn entries(&self) -> impl Iterator<Item = (&Tuple, &[Rid])> + '_ {
        self.entries.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Number of distinct key values.
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }

    /// Total number of indexed tuples (including partial ones).
    pub fn len(&self) -> usize {
        self.entries.values().map(|v| v.len()).sum::<usize>() + self.partial.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::value::Value;
    use flexrel_core::{attrs, tuple};

    /// Distinct rids, all in one shape.
    fn rid(n: u32) -> Rid {
        Rid::new(
            tuple! {"x" => 0}.shape_id(),
            crate::heap::TupleId::new(0, n),
        )
    }

    #[test]
    fn insert_lookup_remove() {
        let mut idx = HashIndex::new(attrs!["jobtype"]);
        let t1 = tuple! {"jobtype" => Value::tag("secretary"), "empno" => 1};
        let t2 = tuple! {"jobtype" => Value::tag("secretary"), "empno" => 2};
        let t3 = tuple! {"jobtype" => Value::tag("salesman"), "empno" => 3};
        let (a, b, c) = (rid(0), rid(1), rid(2));
        idx.insert(a, &t1);
        idx.insert(b, &t2);
        idx.insert(c, &t3);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        let key = tuple! {"jobtype" => Value::tag("secretary")};
        assert_eq!(idx.lookup(&key).len(), 2);
        idx.remove(a, &t1);
        assert_eq!(idx.lookup(&key).len(), 1);
        idx.remove(b, &t2);
        assert!(idx.lookup(&key).is_empty());
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn tuples_without_key_go_to_partial_list() {
        let mut idx = HashIndex::new(attrs!["jobtype"]);
        let t = tuple! {"empno" => 1};
        let a = rid(0);
        idx.insert(a, &t);
        assert_eq!(idx.partial_tuples(), &[a]);
        assert_eq!(idx.len(), 1);
        idx.remove(a, &t);
        assert!(idx.is_empty());
    }

    #[test]
    fn key_accessor() {
        let idx = HashIndex::new(attrs!["a", "b"]);
        assert_eq!(idx.key(), &attrs!["a", "b"]);
    }
}
