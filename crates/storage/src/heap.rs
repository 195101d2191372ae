//! Stable tuple identifiers.
//!
//! Tuples live in fixed-size segments of a partition's column heap
//! ([`crate::column::ColumnHeap`]); a [`TupleId`] is the pair of segment
//! number and slot.  Deleted slots are tombstoned and reused by later
//! inserts, so identifiers of live tuples never move.  See
//! [`crate::partition`] for the [`Rid`](crate::partition::Rid) identifiers
//! that pair a partition with a `TupleId`.

/// Number of tuple slots per segment — also the worst-case number of rows
/// a single write deep-copies when copy-on-write hits a shared segment.
pub const SEGMENT_SIZE: usize = 1024;

/// A stable identifier of a stored tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId {
    segment: u32,
    slot: u32,
}

impl TupleId {
    /// Builds an identifier from its parts.  Only identifiers observed from
    /// an insert or a scan name live tuples; arbitrary pairs simply resolve
    /// to `None` on lookup.
    pub fn new(segment: u32, slot: u32) -> Self {
        TupleId { segment, slot }
    }

    /// The segment this tuple lives in.
    pub fn segment(&self) -> u32 {
        self.segment
    }

    /// The slot inside the segment.
    pub fn slot(&self) -> u32 {
        self.slot
    }
}

impl std::fmt::Display for TupleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.segment, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_id_display() {
        let a = TupleId::new(2, 7);
        assert_eq!(a.to_string(), "(2, 7)");
        assert_eq!(a.segment(), 2);
        assert_eq!(a.slot(), 7);
    }
}
