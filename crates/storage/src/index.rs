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

use crate::partition::{PartitionedHeap, Rid};

/// A hash index over a fixed attribute-set key.
#[derive(Clone, Debug)]
pub struct HashIndex {
    key: AttrSet,
    entries: HashMap<Tuple, Vec<Rid>>,
    /// Tuples not defined on the full key are unreachable through the index
    /// and tracked separately so scans can fall back to them.
    partial: Vec<Rid>,
    /// Number of indexed tuples (chained and partial), maintained by
    /// insert/remove so [`HashIndex::len`] never walks the entries.
    len: usize,
}

impl HashIndex {
    /// Creates an empty index over `key`.
    pub fn new(key: impl Into<AttrSet>) -> Self {
        HashIndex {
            key: key.into(),
            entries: HashMap::new(),
            partial: Vec::new(),
            len: 0,
        }
    }

    /// Builds the index over `key` of every tuple in `parts` (the backfill
    /// of a new or recovered index).
    pub fn build(key: AttrSet, parts: &PartitionedHeap) -> Self {
        let mut idx = HashIndex::new(key);
        for (rid, t) in parts.scan() {
            idx.insert(rid, &t);
        }
        idx
    }

    /// The indexed attribute set.
    pub fn key(&self) -> &AttrSet {
        &self.key
    }

    /// The projection of `t` onto the index key, or `None` when `t` is not
    /// defined on the full key (it then belongs on the partial list).
    pub fn key_of(&self, t: &Tuple) -> Option<Tuple> {
        t.defined_on(&self.key).then(|| t.project(&self.key))
    }

    /// Indexes a tuple.
    pub fn insert(&mut self, rid: Rid, t: &Tuple) {
        match self.key_of(t) {
            Some(k) => self.entries.entry(k).or_default().push(rid),
            None => self.partial.push(rid),
        }
        self.len += 1;
    }

    /// Removes a tuple from the index.  A rid that is not indexed under
    /// `t`'s key is left alone (and the length with it).
    pub fn remove(&mut self, rid: Rid, t: &Tuple) {
        let removed = match self.key_of(t) {
            Some(k) => match self.entries.get_mut(&k) {
                Some(chain) => {
                    let before = chain.len();
                    chain.retain(|x| *x != rid);
                    let removed = before - chain.len();
                    if chain.is_empty() {
                        self.entries.remove(&k);
                    }
                    removed
                }
                None => 0,
            },
            None => {
                let before = self.partial.len();
                self.partial.retain(|x| *x != rid);
                before - self.partial.len()
            }
        };
        self.len -= removed;
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

    /// Total number of indexed tuples (including partial ones) — a
    /// maintained counter, O(1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// The maintained counter against a naive recount, under a random
    /// insert/remove stream that includes partial-key tuples, duplicate
    /// removes and removes of rids that were never (or no longer) indexed.
    #[test]
    fn len_counter_matches_a_recount_under_random_inserts_and_removes() {
        let recount = |idx: &HashIndex| {
            idx.entries().map(|(_, r)| r.len()).sum::<usize>() + idx.partial.len()
        };
        let tuple_for = |n: u32| {
            let t = tuple! {"a" => (n % 5) as i64};
            // Every third tuple lacks part of the key and goes to the
            // partial list.
            if n.is_multiple_of(3) {
                t
            } else {
                t.with("b", (n % 2) as i64)
            }
        };
        let mut idx = HashIndex::new(attrs!["a", "b"]);
        let mut live = std::collections::BTreeSet::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let n = (state >> 33) as u32 % 64;
            if (state >> 20) & 1 == 0 && !live.contains(&n) {
                idx.insert(rid(n), &tuple_for(n));
                live.insert(n);
            } else {
                // Dead rids are removed too: the counter must not move.
                idx.remove(rid(n), &tuple_for(n));
                live.remove(&n);
            }
            assert_eq!(idx.len(), live.len());
            assert_eq!(idx.len(), recount(&idx));
            assert_eq!(idx.is_empty(), live.is_empty());
        }
        // A live rid removed under the wrong key stays indexed.
        idx.insert(rid(100), &tuple_for(1));
        let n = idx.len();
        idx.remove(rid(100), &tuple_for(2));
        idx.remove(rid(100), &tuple_for(3));
        assert_eq!((idx.len(), recount(&idx)), (n, n));
    }

    #[test]
    fn key_accessor() {
        let idx = HashIndex::new(attrs!["a", "b"]);
        assert_eq!(idx.key(), &attrs!["a", "b"]);
    }
}
