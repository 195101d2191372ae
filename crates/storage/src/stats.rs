//! Per-partition column statistics: distinct counts and equi-depth
//! histograms, built lazily from the columnar segments and cached per
//! partition.
//!
//! The statistics feed the query layer's cost model (selectivity estimates,
//! join ordering, the index-nested-loop gate).  They are *advisory*: every
//! plan the optimizer can emit returns the same rows regardless of what the
//! statistics say, so a stale histogram can only misprice a plan, never
//! corrupt a result.  Freshness is measured by the partition's mutation
//! count ([`Partition::mutations`]): because stale statistics are harmless,
//! a changed partition keeps serving its cached entry until the rows changed
//! since the build exceed [`STATS_DRIFT`] of the rows it was built from;
//! only then does a reader pay for a rebuild.
//!
//! Statistics are derived state and are never persisted: a reopened
//! database rebuilds them from the recovered partitions on first use.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use flexrel_core::attr::AttrSet;
use flexrel_core::tuple::ShapeId;

use crate::column::ColKind;
use crate::partition::{Partition, PartitionSnapshot};

/// Number of buckets an equi-depth histogram aims for.
const HISTOGRAM_BUCKETS: usize = 32;

/// The share of a partition's rows that may change (inserts + deletes since
/// the statistics were built) before the cached entry is rebuilt.  One tenth
/// moves an equi-depth fence by about three of the 32 buckets and a distinct
/// count by at most 10 % — well inside what the cost model's uniformity
/// assumptions already give away — while a rebuild walks every live row
/// (1.5 ms for the 20 000-row benchmark relation against 0.7 µs for a cache
/// hit), so at this threshold a write-heavy mix pays for one rebuild per
/// partition per `rows / 10` writes instead of one per write.
pub const STATS_DRIFT: f64 = 0.1;

/// An equi-depth histogram over a numeric column: `fences` holds the sorted
/// bucket boundaries (first = min, last = max), each bucket covering an
/// equal share of the rows.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    fences: Vec<f64>,
}

impl Histogram {
    /// Builds an equi-depth histogram from the column's live values.
    /// Returns `None` for an empty column.
    fn build(mut values: Vec<f64>) -> Option<Histogram> {
        if values.is_empty() {
            return None;
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = values.len();
        let buckets = HISTOGRAM_BUCKETS.min(n);
        let mut fences = Vec::with_capacity(buckets + 1);
        for i in 0..=buckets {
            fences.push(values[(i * (n - 1)) / buckets]);
        }
        Some(Histogram { fences })
    }

    /// The estimated fraction of rows with value `≤ x`, interpolating within
    /// the bucket that straddles `x`.
    pub fn fraction_le(&self, x: f64) -> f64 {
        let buckets = (self.fences.len() - 1).max(1);
        if x < self.fences[0] {
            return 0.0;
        }
        if x >= *self.fences.last().expect("non-empty fences") {
            return 1.0;
        }
        for (i, w) in self.fences.windows(2).enumerate() {
            let (lo, hi) = (w[0], w[1]);
            if x < hi {
                let within = if hi > lo { (x - lo) / (hi - lo) } else { 1.0 };
                return (i as f64 + within.clamp(0.0, 1.0)) / buckets as f64;
            }
        }
        1.0
    }

    /// The bucket boundaries (sorted, min first).
    pub fn fences(&self) -> &[f64] {
        &self.fences
    }
}

/// Statistics for one column of one partition.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// Exact number of distinct live values.
    pub distinct: u64,
    /// Equi-depth histogram over the live values (numeric columns only).
    pub histogram: Option<Histogram>,
}

/// Statistics for one partition: live row count plus per-column distinct
/// counts and histograms.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionStats {
    /// Live rows at build time.
    pub rows: u64,
    /// The partition's shape.
    pub shape: AttrSet,
    /// Per-column statistics, keyed by attribute name.
    pub cols: BTreeMap<String, ColumnStats>,
}

impl PartitionStats {
    /// Computes the statistics of a partition from its columnar segments,
    /// reading only live rows.
    pub fn build(part: &Partition) -> PartitionStats {
        let heap = part.columns();
        let attrs: Vec<String> = heap.attrs().iter().map(|a| a.name().to_string()).collect();
        let mut cols = BTreeMap::new();
        for (ci, name) in attrs.iter().enumerate() {
            let mut numeric: Vec<f64> = Vec::new();
            let mut is_numeric = true;
            let mut distinct_other: std::collections::BTreeSet<String> = Default::default();
            let mut distinct_num: std::collections::BTreeSet<u64> = Default::default();
            for seg in heap.segments() {
                match seg.col_kind(ci) {
                    ColKind::Int => {
                        let xs = seg.int_slice(ci).expect("kind says int");
                        for (row, &x) in xs.iter().enumerate() {
                            if seg.is_live(row) {
                                numeric.push(x as f64);
                                distinct_num.insert((x as f64).to_bits());
                            }
                        }
                    }
                    ColKind::Float => {
                        let xs = seg.float_slice(ci).expect("kind says float");
                        for (row, &x) in xs.iter().enumerate() {
                            if seg.is_live(row) {
                                numeric.push(x);
                                distinct_num.insert(x.to_bits());
                            }
                        }
                    }
                    _ => {
                        is_numeric = false;
                        for row in 0..seg.rows() {
                            if seg.is_live(row) {
                                distinct_other.insert(seg.value_at(ci, row).to_string());
                            }
                        }
                    }
                }
            }
            let (distinct, histogram) = if is_numeric {
                (distinct_num.len() as u64, Histogram::build(numeric))
            } else {
                (distinct_other.len() as u64, None)
            };
            cols.insert(
                name.clone(),
                ColumnStats {
                    distinct,
                    histogram,
                },
            );
        }
        PartitionStats {
            rows: part.len() as u64,
            shape: part.shape().clone(),
            cols,
        }
    }

    /// The statistics of one column, if the partition carries it.
    pub fn column(&self, attr: &str) -> Option<&ColumnStats> {
        self.cols.get(attr)
    }
}

/// Aggregated statistics for one relation: the per-partition statistics of
/// every live partition at the time of the snapshot.
#[derive(Clone, Debug, Default)]
pub struct TableStats {
    /// One entry per live partition.
    pub parts: Vec<Arc<PartitionStats>>,
}

impl TableStats {
    /// Total live rows across all partitions.
    pub fn rows(&self) -> u64 {
        self.parts.iter().map(|p| p.rows).sum()
    }

    /// The number of distinct values of `attr` across the partitions that
    /// carry it, estimated as the sum of per-partition distinct counts
    /// capped at the carrying partitions' total rows.  `None` when no
    /// partition carries the attribute (or none has statistics for it).
    pub fn distinct(&self, attr: &str) -> Option<u64> {
        let mut sum = 0u64;
        let mut rows = 0u64;
        let mut seen = false;
        for p in &self.parts {
            if let Some(c) = p.column(attr) {
                seen = true;
                sum += c.distinct;
                rows += p.rows;
            }
        }
        if seen {
            Some(sum.min(rows).max(1))
        } else {
            None
        }
    }

    /// The fraction of all rows that carry `attr` and have `attr = c` for a
    /// fixed constant `c`, estimated as `1 / distinct` within each carrying
    /// partition (the uniform-frequency assumption).
    pub fn fraction_eq(&self, attr: &str) -> Option<f64> {
        let total = self.rows();
        if total == 0 {
            return None;
        }
        let mut matched = 0f64;
        let mut seen = false;
        for p in &self.parts {
            if let Some(c) = p.column(attr) {
                seen = true;
                if c.distinct > 0 {
                    matched += p.rows as f64 / c.distinct as f64;
                }
            }
        }
        if seen {
            Some((matched / total as f64).clamp(0.0, 1.0))
        } else {
            None
        }
    }

    /// The fraction of all rows that carry `attr` and have `attr ≤ x`,
    /// from the per-partition equi-depth histograms.  `None` when no
    /// carrying partition has a histogram.
    pub fn fraction_le(&self, attr: &str, x: f64) -> Option<f64> {
        let total = self.rows();
        if total == 0 {
            return None;
        }
        let mut matched = 0f64;
        let mut seen = false;
        for p in &self.parts {
            if let Some(h) = p.column(attr).and_then(|c| c.histogram.as_ref()) {
                seen = true;
                matched += p.rows as f64 * h.fraction_le(x);
            }
        }
        if seen {
            Some((matched / total as f64).clamp(0.0, 1.0))
        } else {
            None
        }
    }
}

/// The database-level statistics cache: per (relation, shape) partition
/// statistics, checked against the live partition on every read — served
/// while the partition has drifted by no more than [`STATS_DRIFT`] since the
/// build, rebuilt beyond.
#[derive(Debug, Default)]
pub struct StatsCache {
    entries: Mutex<BTreeMap<(String, ShapeId), CacheEntry>>,
}

/// One partition's statistics with the partition's
/// [`Partition::mutations`] reading at build time — the base its drift is
/// measured from.
type CacheEntry = (Arc<PartitionStats>, u64);

impl StatsCache {
    /// The statistics of every partition in `snap`, reusing cached entries
    /// that are fresh or within the drift bound and (re)building the rest.
    pub fn table_stats(&self, relation: &str, snap: &PartitionSnapshot) -> TableStats {
        let mut out = TableStats::default();
        let mut entries = self.entries.lock().expect("stats cache poisoned");
        for (sid, part) in snap.partitions() {
            let key = (relation.to_string(), sid);
            let stats = match entries.get(&key) {
                Some((s, built_at)) if usable(s, *built_at, part) => Arc::clone(s),
                _ => {
                    let s = Arc::new(PartitionStats::build(part));
                    entries.insert(key, (Arc::clone(&s), part.mutations()));
                    s
                }
            };
            out.parts.push(stats);
        }
        out
    }

    /// Drops every cached entry for `relation` (the relation was dropped; a
    /// successor of the same name must not be served its statistics).
    pub(crate) fn invalidate_relation(&self, relation: &str) {
        let mut entries = self.entries.lock().expect("stats cache poisoned");
        entries.retain(|(r, _), _| r != relation);
    }
}

/// Whether a cached entry may be served for `part`: built from an earlier
/// (or the current) state of the same partition that has since changed by at
/// most [`STATS_DRIFT`] of the rows the entry describes.  (A partition
/// dropped and re-opened restarts its mutation count; a reading below the
/// entry's means exactly that, and the entry is rebuilt.)
fn usable(stats: &PartitionStats, built_at: u64, part: &Partition) -> bool {
    match part.mutations().checked_sub(built_at) {
        Some(changed) => changed as f64 <= STATS_DRIFT * stats.rows as f64,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_depth_histogram_fractions() {
        let h = Histogram::build((0..100).map(f64::from).collect()).unwrap();
        assert_eq!(h.fraction_le(-1.0), 0.0);
        assert_eq!(h.fraction_le(99.0), 1.0);
        let mid = h.fraction_le(49.0);
        assert!((mid - 0.5).abs() < 0.1, "median ≈ 0.5, got {mid}");
        let q1 = h.fraction_le(24.0);
        assert!((q1 - 0.25).abs() < 0.1, "q1 ≈ 0.25, got {q1}");
    }

    #[test]
    fn histogram_of_constant_column() {
        let h = Histogram::build(vec![7.0; 50]).unwrap();
        assert_eq!(h.fraction_le(6.9), 0.0);
        assert_eq!(h.fraction_le(7.0), 1.0);
    }
}
