//! The costed decisions: join ordering, and index probe versus pruned scan.
//!
//! # Join ordering
//!
//! For bushy/left-deep join trees of three or more inputs, the pass
//! flattens the tree into its leaves, estimates each leaf's cardinality
//! ([`crate::exec::estimate_rows`], which consults the per-partition
//! histograms and distinct counts of [`flexrel_storage::TableStats`]), and
//! rebuilds a left-deep tree greedily: start from the smallest leaf, then
//! repeatedly attach the **connected** leaf (one sharing an attribute with
//! the accumulated prefix) minimizing the estimated pair output
//! `|L| · |R| / max(distinct(a))` over the shared attributes `a` — the
//! textbook equi-join estimate, here justified because the flexible-tuple
//! compatibility merge on shared attributes behaves exactly like an
//! equi-join on them.  Leaves sharing no attribute (cross products) are
//! attached last.
//!
//! The pass is safe for *any* order: the compatibility merge is commutative
//! and associative, including genuine cross products, so reordering never
//! changes the result multiset — only how large the intermediates are.
//!
//! # Index probe versus pruned scan
//!
//! An index on a pinned key *can* answer an equality; whether it *should*
//! is a price comparison (`index_beats_scan`).  The probe pays per
//! matching rid — each is fetched from its partition and built into an
//! owned tuple before any operator sees it — while the shape-pruned
//! columnar scan pays per row visited but keeps rows in their columns, so
//! an aggregate above it materializes nothing.  A unique key (`id = n`)
//! probes one rid against a scan of every partition; a low-cardinality
//! determinant (`kind = 'k0'`: 8 keys, a 4 575-rid chain) names exactly the
//! rows of the one partition its EAD region already prunes the scan to, and
//! the column kernels win by two orders of magnitude.

use flexrel_core::attr::AttrSet;
use flexrel_storage::{Database, IndexInfo};

use crate::exec;
use crate::logical::LogicalPlan;

use super::Notes;

/// What fetching one matched rid through an index costs, in units of one
/// row visited by a filtering columnar scan.
///
/// Measured on the benchmark relation (`seed_wide`, n = 20 000, 8 variants,
/// release build, the 2-core host the benchmark runs on): `COUNT(*) WHERE
/// kind = 'k0'` over the 4 575-rid `kind` chain took 1 707 µs through a
/// hand-built `IndexLookup` — 373 ns per rid, nearly all of it
/// `PartitionSnapshot::get` building an owned tuple — and 17.4 µs as the
/// pruned scan of the same 4 575 rows through the column kernels — 3.8 ns
/// per row.  373 / 3.8 ≈ 98.
pub(super) const RID_FETCH_ROWS: usize = 100;

/// What opening one more partition costs a scan (compiling the predicate
/// against its columns, emitting its first chunk), in the same unit.
///
/// Measured on the same host: a filtered scan that matches nothing took
/// 2.01 µs over eight one-row partitions and 1.05 µs over one eight-row
/// partition — 137 ns per extra partition, some 36 rows' worth at 3.8 ns
/// each.  This is what keeps a point lookup on a ten-row relation spread
/// over eight partitions on its index (0.9 µs against the 2 µs scan).
pub(super) const PARTITION_OPEN_ROWS: usize = 32;

/// Whether probing `index` is cheaper than scanning `rows` rows spread over
/// `partitions` admitted partitions: `avg_matches × RID_FETCH_ROWS` against
/// `partitions × PARTITION_OPEN_ROWS + rows`.  Ties go to the scan, which
/// leaves the rows in their columns.
pub(super) fn index_beats_scan(index: &IndexInfo, partitions: usize, rows: usize) -> bool {
    let probe = index.avg_matches().saturating_mul(RID_FETCH_ROWS);
    let scan = partitions
        .saturating_mul(PARTITION_OPEN_ROWS)
        .saturating_add(rows);
    probe < scan
}

/// Reorders join trees of ≥ 3 inputs by estimated intermediate size.
/// Leaves the plan untouched (and emits no note) when fewer than three
/// inputs join, when some leaf has no estimate, or when the greedy order
/// coincides with the existing one.
pub(super) fn order_joins(plan: LogicalPlan, db: &Database, notes: &mut Notes) -> LogicalPlan {
    match plan {
        LogicalPlan::Join { left, right } => {
            let mut leaves = Vec::new();
            collect_join_leaves(LogicalPlan::Join { left, right }, &mut leaves);
            // Order the children's own sub-joins first (a leaf here is any
            // non-Join node; its subtree may still contain joins below a
            // projection or aggregate).
            let leaves: Vec<LogicalPlan> = leaves
                .into_iter()
                .map(|l| l.map_children(|p| order_joins(p, db, notes)))
                .collect();
            if leaves.len() < 3 {
                return rebuild_left_deep(leaves);
            }
            let ests: Vec<Option<usize>> =
                leaves.iter().map(|l| exec::estimate_rows(l, db)).collect();
            if ests.iter().any(|e| e.is_none()) {
                return rebuild_left_deep(leaves);
            }
            let order = greedy_order(&leaves, &ests, db);
            if order.iter().enumerate().all(|(i, &j)| i == j) {
                return rebuild_left_deep(leaves);
            }
            notes.push("join-ordering", || {
                format!(
                    "{} join inputs reordered by estimated intermediate size: {:?}",
                    order.len(),
                    order
                )
            });
            let mut by_index: Vec<Option<LogicalPlan>> = leaves.into_iter().map(Some).collect();
            rebuild_left_deep(
                order
                    .into_iter()
                    .map(|i| by_index[i].take().expect("each leaf used once"))
                    .collect(),
            )
        }
        other => other.map_children(|p| order_joins(p, db, notes)),
    }
}

/// Flattens a join tree into its non-join leaves, in left-to-right order.
fn collect_join_leaves(plan: LogicalPlan, out: &mut Vec<LogicalPlan>) {
    match plan {
        LogicalPlan::Join { left, right } => {
            collect_join_leaves(*left, out);
            collect_join_leaves(*right, out);
        }
        other => out.push(other),
    }
}

fn rebuild_left_deep(leaves: Vec<LogicalPlan>) -> LogicalPlan {
    let mut iter = leaves.into_iter();
    let first = iter.next().expect("a join has at least two leaves");
    iter.fold(first, |acc, leaf| acc.join(leaf))
}

/// The distinct count of an attribute in the relation a leaf reads, when
/// statistics are available.
fn leaf_distinct(plan: &LogicalPlan, attr: &str, db: &Database) -> Option<u64> {
    let rel = match plan {
        LogicalPlan::Scan { relation, .. } | LogicalPlan::IndexLookup { relation, .. } => relation,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Guard { input, .. }
        | LogicalPlan::Project { input, .. } => return leaf_distinct(input, attr, db),
        _ => return None,
    };
    db.table_stats(rel).ok()?.distinct(attr)
}

/// Greedy left-deep ordering: smallest leaf first, then always the
/// cheapest *connected* extension; disconnected leaves (cross products)
/// only when nothing connected remains.
fn greedy_order(leaves: &[LogicalPlan], ests: &[Option<usize>], db: &Database) -> Vec<usize> {
    let attrs: Vec<AttrSet> = leaves.iter().map(|l| exec::plan_attrs(l, db)).collect();

    // The estimated output of extending a prefix (whose leaves are
    // `members`) by leaf `i`: rows·rows / max(distinct(a)) over the shared
    // attributes, each attribute's distinct count taken as the max over
    // every participating leaf that has statistics for it (containment
    // assumption).
    let extend_estimate = |members: &[usize], acc_rows: u128, acc_attrs: &AttrSet, i: usize| {
        let cross = acc_rows.saturating_mul(ests[i].unwrap_or(1) as u128);
        let common = acc_attrs.intersection(&attrs[i]);
        if common.is_empty() {
            return cross;
        }
        let mut denom = 1u128;
        for a in common.iter() {
            let d = members
                .iter()
                .copied()
                .chain(std::iter::once(i))
                .filter_map(|j| leaf_distinct(&leaves[j], a.name(), db))
                .max()
                .unwrap_or(1);
            denom = denom.max(d as u128);
        }
        (cross / denom).max(1)
    };

    let mut remaining: Vec<usize> = (0..leaves.len()).collect();
    let start = *remaining
        .iter()
        .min_by_key(|&&i| ests[i].unwrap_or(usize::MAX))
        .expect("non-empty");
    remaining.retain(|&i| i != start);
    let mut order = vec![start];
    let mut acc_attrs = attrs[start].clone();
    let mut acc_rows = ests[start].unwrap_or(1) as u128;
    while !remaining.is_empty() {
        let next = remaining
            .iter()
            .map(|&i| {
                let cost = extend_estimate(&order, acc_rows, &acc_attrs, i);
                let connected = !acc_attrs.intersection(&attrs[i]).is_empty();
                (i, connected, cost)
            })
            // Connected extensions strictly before cross products, then by
            // estimated output.
            .min_by_key(|&(_, connected, cost)| (!connected, cost))
            .map(|(i, _, _)| i)
            .expect("non-empty");
        remaining.retain(|&i| i != next);
        acc_rows = extend_estimate(&order, acc_rows, &acc_attrs, next);
        acc_attrs = acc_attrs.union(&attrs[next]);
        order.push(next);
    }
    order
}
