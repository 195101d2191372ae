//! The cost model: row estimates, and the three decisions priced with
//! them — join order, join strategy, index probe versus pruned scan.
//!
//! # Row estimates
//!
//! [`estimate_rows`] derives a cardinality from partition metadata (exact
//! live counts for scans), index statistics (one hash chain for a probe)
//! and — for joins, filters and grouped aggregates — the per-partition
//! table statistics of the relation the rows come from
//! ([`PlanProps::source`](super::PlanProps::source)): equi-depth histograms
//! and distinct counts ([`flexrel_storage::TableStats`]).
//!
//! # Join ordering
//!
//! For bushy/left-deep join trees of three or more inputs, the pass
//! flattens the tree into its leaves, estimates each leaf's cardinality,
//! and rebuilds a left-deep tree greedily: start from the smallest leaf,
//! then repeatedly attach the **connected** leaf (one sharing an attribute
//! with the accumulated prefix) minimizing the estimated pair output
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
//! # Join strategy
//!
//! [`join_strategy`]: index-nested-loop when one side is a (possibly
//! filtered) base scan with a stored index on exactly the equi-join
//! attributes and probing it is estimated cheaper than building a hash
//! table over it; otherwise hash join.  The access-path pass
//! ([`choose_access_paths`](super::choose_access_paths)) asks it once per
//! join and records the answer on the [`LogicalPlan::Join`] node; the
//! executor follows that record and prices nothing.
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

use std::sync::Arc;

use flexrel_algebra::predicate::{CmpOp, Predicate};
use flexrel_core::attr::AttrSet;
use flexrel_core::value::Value;
use flexrel_storage::{Catalog, Database, IndexInfo, TableStats};

use crate::batch::inl_inner_side;
use crate::exec::{plan_attrs, snap_plan_attrs, ExecContext};
use crate::logical::{JoinStrategy, LogicalPlan};

use super::{plan_props, Notes};

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
        join @ LogicalPlan::Join { .. } => {
            let mut leaves = Vec::new();
            collect_join_leaves(join, &mut leaves);
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
            let ests: Vec<Option<usize>> = leaves.iter().map(|l| estimate_rows(l, db)).collect();
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
        LogicalPlan::Join { left, right, .. } => {
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

/// The distinct count of an attribute in the relation a leaf's rows come
/// from, when statistics are available.
fn source_distinct(
    plan: &LogicalPlan,
    attr: &str,
    db: &Database,
    catalog: &Catalog,
) -> Option<u64> {
    let source = plan_props(plan, catalog)?.source?;
    db.table_stats(source.relation).ok()?.distinct(attr)
}

/// Greedy left-deep ordering: smallest leaf first, then always the
/// cheapest *connected* extension; disconnected leaves (cross products)
/// only when nothing connected remains.
fn greedy_order(leaves: &[LogicalPlan], ests: &[Option<usize>], db: &Database) -> Vec<usize> {
    let attrs: Vec<AttrSet> = leaves.iter().map(|l| plan_attrs(l, db)).collect();
    let catalog = db.catalog();

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
                .filter_map(|j| source_distinct(&leaves[j], a.name(), db, &catalog))
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

/// A cardinality *estimate* for a plan, derived from partition metadata,
/// index statistics and — for filters, joins and grouped aggregates, read
/// when the estimate reaches one — the stored per-partition table
/// statistics (equi-depth histograms and distinct counts,
/// [`flexrel_storage::TableStats`]).
/// `None` when nothing can be derived (a join over relations with no
/// statistics).  For scans this is an exact live count; everything stacked
/// on one scales it by estimated selectivity — under skew an actual run
/// can return more.  The join-strategy gate and the cost-based join
/// ordering use it; do not rely on it as a hard bound.
pub fn estimate_rows(plan: &LogicalPlan, db: &Database) -> Option<usize> {
    let parts = ExecContext::partitions(&[plan], db).ok()?;
    Estimator::new(db, &parts).rows(plan)
}

/// What an estimate reads: the partitions of the relations the priced
/// plans scan, captured once by the caller, and — only when an estimate
/// asks — a relation's table statistics and index metadata, fetched from
/// the database.  It holds no index snapshot.
struct Estimator<'a> {
    db: &'a Database,
    catalog: Arc<Catalog>,
    parts: &'a ExecContext,
}

impl<'a> Estimator<'a> {
    fn new(db: &'a Database, parts: &'a ExecContext) -> Self {
        Estimator {
            db,
            catalog: db.catalog(),
            parts,
        }
    }

    /// The statistics of the stored relation `plan`'s rows come from.
    fn source_stats(&self, plan: &LogicalPlan) -> Option<TableStats> {
        let source = plan_props(plan, &self.catalog)?.source?;
        self.db.table_stats(source.relation).ok()
    }

    /// The metadata of `relation`'s index on exactly `key`.
    fn index(&self, relation: &str, key: &AttrSet) -> Option<IndexInfo> {
        self.db.index_info(relation, key).ok().flatten()
    }
}

/// The estimated fraction of rows satisfying a predicate, from the
/// relation's statistics.  Conservative by construction: any atom the
/// statistics cannot judge (missing column, non-numeric comparison,
/// `PRESENT`) contributes selectivity 1, so a context without statistics
/// reproduces the old passthrough estimate exactly.
fn predicate_selectivity(p: &Predicate, stats: Option<&TableStats>) -> f64 {
    let numeric = |v: &Value| match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    };
    let sel = match p {
        Predicate::True | Predicate::IsPresent(_) => 1.0,
        Predicate::False => 0.0,
        Predicate::Cmp { attr, op, value } => {
            let Some(stats) = stats else { return 1.0 };
            let eq = || stats.fraction_eq(attr.name());
            let le = || numeric(value).and_then(|x| stats.fraction_le(attr.name(), x));
            match op {
                CmpOp::Eq => eq().unwrap_or(1.0),
                CmpOp::Ne => eq().map(|s| 1.0 - s).unwrap_or(1.0),
                CmpOp::Lt | CmpOp::Le => le().unwrap_or(1.0),
                CmpOp::Gt | CmpOp::Ge => le().map(|s| 1.0 - s).unwrap_or(1.0),
            }
        }
        Predicate::And(a, b) => predicate_selectivity(a, stats) * predicate_selectivity(b, stats),
        Predicate::Or(a, b) => {
            let (sa, sb) = (
                predicate_selectivity(a, stats),
                predicate_selectivity(b, stats),
            );
            sa + sb - sa * sb
        }
        Predicate::Not(a) => 1.0 - predicate_selectivity(a, stats),
    };
    sel.clamp(0.0, 1.0)
}

impl Estimator<'_> {
    fn rows(&self, plan: &LogicalPlan) -> Option<usize> {
        match plan {
            LogicalPlan::Empty => Some(0),
            LogicalPlan::Scan {
                relation, shape, ..
            } => Some(
                self.parts
                    .snap(relation)
                    .parts
                    .partitions()
                    .filter(|(_, p)| shape.as_ref().map(|s| s.admits(p.shape())).unwrap_or(true))
                    .map(|(_, p)| p.len())
                    .sum(),
            ),
            LogicalPlan::IndexLookup { relation, key, .. } => match self.index(relation, key) {
                // One probe returns one hash chain: the average chain length is
                // the expected match count.
                Some(info) => Some(info.avg_matches()),
                None => Some(self.parts.snap(relation).parts.len()),
            },
            LogicalPlan::Filter { input, predicate } => {
                let base = self.rows(input)?;
                let stats = self.source_stats(input);
                let sel = predicate_selectivity(predicate, stats.as_ref());
                Some(((base as f64 * sel).ceil() as usize).min(base))
            }
            LogicalPlan::Guard { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Extend { input, .. } => self.rows(input),
            LogicalPlan::UnionAll { inputs } => inputs.iter().map(|p| self.rows(p)).sum(),
            LogicalPlan::Join { left, right, .. } => {
                let l = self.rows(left)?;
                let r = self.rows(right)?;
                let common = snap_plan_attrs(left, self.parts)
                    .intersection(&snap_plan_attrs(right, self.parts));
                if common.is_empty() {
                    // A compatibility merge over disjoint attribute sets is a
                    // cross product.
                    return Some(l.saturating_mul(r));
                }
                // The equi-join estimate |L|·|R| / max(distinct(a)): for each
                // shared attribute take the larger side's distinct count
                // (containment assumption), then divide by the most selective
                // one.  Without statistics the cardinality is not derivable.
                let sides = [self.source_stats(left), self.source_stats(right)];
                let mut denom: u64 = 0;
                for a in common.iter() {
                    for stats in sides.iter().flatten() {
                        if let Some(d) = stats.distinct(a.name()) {
                            denom = denom.max(d);
                        }
                    }
                }
                if denom == 0 {
                    return None;
                }
                let est = (l as u128).saturating_mul(r as u128) / denom as u128;
                let est = est.min(usize::MAX as u128) as usize;
                Some(if l == 0 || r == 0 { 0 } else { est.max(1) })
            }
            LogicalPlan::Aggregate {
                input, group_by, ..
            } => {
                let base = self.rows(input)?;
                if group_by.is_empty() {
                    // A global aggregate emits exactly one row.
                    return Some(1);
                }
                // Group count is bounded by the input rows and by the product
                // of the grouping attributes' distinct counts when statistics
                // carry them.
                let stats = self.source_stats(input);
                let mut bound: u128 = 1;
                let mut any = false;
                for g in group_by.iter() {
                    if let Some(d) = stats.as_ref().and_then(|s| s.distinct(g.name())) {
                        any = true;
                        bound = bound.saturating_mul(d as u128);
                    }
                }
                if any {
                    Some(bound.min(base as u128) as usize)
                } else {
                    Some(base)
                }
            }
        }
    }

    /// Whether probing the inner side's index on `common` beats building
    /// a hash table over it, as a cost comparison: the index-nested-loop
    /// side pays ~`outer_est` probes of ~`1 + avg_matches` work each (the
    /// probe plus its expected chain), the hash join pays for materializing
    /// the inner *plan*'s rows (its shape-pruned/filtered estimate, not the
    /// whole relation) **and** streaming the outer side through the table.
    /// The factor 2 keeps the switch conservative around the break-even
    /// point.  Returns `false` when no index on exactly `common` exists.
    fn inl_gate(
        &self,
        outer: &LogicalPlan,
        inner: &LogicalPlan,
        inner_relation: &str,
        common: &AttrSet,
    ) -> bool {
        let Some(info) = self.index(inner_relation, common) else {
            return false;
        };
        let Some(outer_est) = self.rows(outer) else {
            return false;
        };
        let inner_est = self.rows(inner).unwrap_or(info.len);
        let inl_cost = outer_est
            .saturating_mul(1 + info.avg_matches())
            .saturating_mul(2);
        let hash_cost = inner_est.saturating_add(outer_est);
        inl_cost <= hash_cost
    }
}

/// The join method for `left ⋈ right`: index-nested-loop when one side is
/// a (possibly filtered) base scan with a stored index on exactly the
/// equi-join attributes and the statistics gate passes, otherwise hash
/// join.  The access-path pass records its answer on the join node.
pub fn join_strategy(left: &LogicalPlan, right: &LogicalPlan, db: &Database) -> JoinStrategy {
    match ExecContext::partitions(&[left, right], db) {
        Ok(parts) => join_strategy_in(left, right, db, &parts),
        Err(_) => JoinStrategy::Hash,
    }
}

/// [`join_strategy`] over partitions the caller captured, which must
/// cover the relations `left` and `right` scan.
pub(crate) fn join_strategy_in(
    left: &LogicalPlan,
    right: &LogicalPlan,
    db: &Database,
    parts: &ExecContext,
) -> JoinStrategy {
    let est = Estimator::new(db, parts);
    let common = snap_plan_attrs(left, parts).intersection(&snap_plan_attrs(right, parts));
    if common.is_empty() {
        return JoinStrategy::Hash;
    }
    if inl_inner_side(right).is_some_and(|side| est.inl_gate(left, right, side.relation, &common)) {
        return JoinStrategy::IndexNestedLoopRight;
    }
    if inl_inner_side(left).is_some_and(|side| est.inl_gate(right, left, side.relation, &common)) {
        return JoinStrategy::IndexNestedLoopLeft;
    }
    JoinStrategy::Hash
}
