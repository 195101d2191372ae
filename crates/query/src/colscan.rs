//! Predicates compiled to vectorized column operations.
//!
//! A scan's qualification (plus any filter fused onto it) is row-oriented: a
//! [`Predicate`] evaluated tuple by tuple.  Over the column-major partitions
//! of [`flexrel_storage::ColumnHeap`] the same predicate can instead be
//! *compiled once per partition* and evaluated segment-at-a-time:
//!
//! 1. **Shape-level folding.**  Within a partition every tuple has the
//!    partition's shape, so the shape-dependent parts of the predicate are
//!    constants: a comparison on an attribute the shape lacks is `false`
//!    for every row, a type guard `IsPresent(X)` is `X ⊆ shape`.  The
//!    compiler folds these through `And`/`Or`/`Not`; whole partitions whose
//!    predicate folds to `false` are skipped without touching a segment —
//!    the same pruning the optimizer's [`ShapePredicate`] performs, now
//!    guaranteed for arbitrary residual predicates.
//! 2. **Vectorized comparison.**  What remains is a tree over column
//!    comparisons ([`flexrel_storage::ColCmp`]): each leaf evaluates one
//!    kernel over a 1024-slot segment into a [`SelVec`] selection bitmap,
//!    and the boolean structure combines bitmaps word-at-a-time.  A leaf on
//!    a dictionary column whose pool passes or fails as a whole (a
//!    one-entry pool) decides the segment without reading a row.
//! 3. **Late materialization.**  Only the rows whose selection bit survives
//!    (masked by the segment's live bitmap) are materialized into [`Tuple`]s,
//!    and an aggregate materializes none: [`aggregate_selected`] folds the
//!    selection words straight into [`GroupedAggs`].
//!
//! The result is bit-for-bit the row semantics: `compile` mirrors
//! [`Predicate::eval`] exactly (including the "comparison on a missing
//! attribute is `false`" rule and kind-strict equality), which the unit
//! tests below and the differential suite (`flexrel_tests::reference_eval`)
//! check against per-tuple evaluation.
//!
//! [`ShapePredicate`]: crate::logical::ShapePredicate

use std::collections::BTreeMap;

use flexrel_algebra::predicate::{CmpOp, Predicate};
use flexrel_core::attr::Attr;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_storage::{ColCmp, ColKind, ColumnHeap, ColumnSegment, SelVec};

use crate::agg::{Acc, GroupedAggs};
use crate::logical::{AggExpr, AggFunc};

fn col_cmp(op: CmpOp) -> ColCmp {
    match op {
        CmpOp::Eq => ColCmp::Eq,
        CmpOp::Ne => ColCmp::Ne,
        CmpOp::Lt => ColCmp::Lt,
        CmpOp::Le => ColCmp::Le,
        CmpOp::Gt => ColCmp::Gt,
        CmpOp::Ge => ColCmp::Ge,
    }
}

/// A predicate tree over column comparisons — the non-constant residue of
/// compiling a [`Predicate`] against one partition's shape.
#[derive(Clone, Debug)]
pub enum Node {
    /// `column <cmp> constant` — one kernel call per segment.
    Cmp {
        /// Index of the attribute's column in the partition's canonical
        /// order.
        col: usize,
        /// The comparison operator.
        cmp: ColCmp,
        /// The constant right-hand side.
        value: Value,
    },
    /// Word-parallel intersection of the operand selections.
    And(Box<Node>, Box<Node>),
    /// Word-parallel union of the operand selections.
    Or(Box<Node>, Box<Node>),
    /// Word-parallel complement of the operand selection (garbage bits past
    /// the segment's rows are masked off by the final live-bitmap `AND`).
    Not(Box<Node>),
}

impl Node {
    fn select(&self, seg: &ColumnSegment) -> SelVec {
        match self {
            Node::Cmp { col, cmp, value } => seg.cmp_bitmap(*col, *cmp, value),
            Node::And(a, b) => {
                let mut sel = a.select(seg);
                sel.and(&b.select(seg));
                sel
            }
            Node::Or(a, b) => {
                let mut sel = a.select(seg);
                sel.or(&b.select(seg));
                sel
            }
            Node::Not(a) => {
                let mut sel = a.select(seg);
                sel.not();
                sel
            }
        }
    }
}

/// A predicate compiled against one partition's shape.
#[derive(Clone, Debug)]
pub enum Compiled {
    /// The predicate folded to `false` for this shape: skip the partition.
    Never,
    /// The predicate folded to `true` for this shape: every live row
    /// qualifies.
    All,
    /// A residual tree of column comparisons.
    Ops(Node),
}

impl Compiled {
    /// Whether the whole partition can be skipped.
    pub fn is_never(&self) -> bool {
        matches!(self, Compiled::Never)
    }

    /// The selection of qualifying live rows of one segment.
    pub fn select(&self, seg: &ColumnSegment) -> SelVec {
        let mut sel = match self {
            Compiled::Never => return SelVec::none(),
            Compiled::All => SelVec::all(),
            Compiled::Ops(n) => n.select(seg),
        };
        sel.and(&seg.live_sel());
        sel
    }
}

/// The intermediate compile result: either a shape-level constant or a
/// residual tree.
enum CNode {
    Const(bool),
    Dyn(Node),
}

fn compile_node(p: &Predicate, heap: &ColumnHeap) -> CNode {
    match p {
        Predicate::True => CNode::Const(true),
        Predicate::False => CNode::Const(false),
        Predicate::Cmp { attr, op, value } => match heap.col_index(attr.name()) {
            Some(col) => CNode::Dyn(Node::Cmp {
                col,
                cmp: col_cmp(*op),
                value: value.clone(),
            }),
            // Every tuple of the partition lacks the attribute, and a
            // comparison on a missing attribute is false.
            None => CNode::Const(false),
        },
        Predicate::IsPresent(attrs) => CNode::Const(attrs.is_subset(heap.shape())),
        Predicate::And(a, b) => match (compile_node(a, heap), compile_node(b, heap)) {
            (CNode::Const(false), _) | (_, CNode::Const(false)) => CNode::Const(false),
            (CNode::Const(true), x) | (x, CNode::Const(true)) => x,
            (CNode::Dyn(a), CNode::Dyn(b)) => CNode::Dyn(Node::And(Box::new(a), Box::new(b))),
        },
        Predicate::Or(a, b) => match (compile_node(a, heap), compile_node(b, heap)) {
            (CNode::Const(true), _) | (_, CNode::Const(true)) => CNode::Const(true),
            (CNode::Const(false), x) | (x, CNode::Const(false)) => x,
            (CNode::Dyn(a), CNode::Dyn(b)) => CNode::Dyn(Node::Or(Box::new(a), Box::new(b))),
        },
        Predicate::Not(a) => match compile_node(a, heap) {
            CNode::Const(b) => CNode::Const(!b),
            CNode::Dyn(n) => CNode::Dyn(Node::Not(Box::new(n))),
        },
    }
}

/// Compiles the conjunction of `preds` against one partition's shape.  An
/// empty slice compiles to [`Compiled::All`].
pub fn compile(preds: &[Predicate], heap: &ColumnHeap) -> Compiled {
    let mut acc = CNode::Const(true);
    for p in preds {
        acc = match (acc, compile_node(p, heap)) {
            (CNode::Const(false), _) | (_, CNode::Const(false)) => return Compiled::Never,
            (CNode::Const(true), x) | (x, CNode::Const(true)) => x,
            (CNode::Dyn(a), CNode::Dyn(b)) => CNode::Dyn(Node::And(Box::new(a), Box::new(b))),
        };
    }
    match acc {
        CNode::Const(true) => Compiled::All,
        CNode::Const(false) => Compiled::Never,
        CNode::Dyn(n) => Compiled::Ops(n),
    }
}

/// One aggregate's columnar execution plan against one segment: resolved
/// once per segment (column representations are per segment), then applied
/// to every group's selection within it.
enum ColAgg {
    /// `COUNT(*)`, and `COUNT(x)` with `x` in the shape: columns are dense
    /// (shape membership *is* presence), so the count is a popcount.
    Count,
    /// The input attribute is outside this partition's shape — the
    /// aggregate sees nothing here (`COUNT(x)` contributes 0).
    Skip,
    /// `SUM` over a plain integer column: a wrapping sum per run of
    /// selected rows, straight over the column slice.
    SumInt(usize),
    /// `SUM` over a plain float column: the runs' elements added in row
    /// order (the order the row-wise reference fold would use).
    SumFloat(usize),
    /// `MIN`/`MAX` over any column, and `SUM` over a dictionary column
    /// (mixed-kind segments can hold numerics behind codes): per-row
    /// [`Value`] fold.
    FoldValues(usize),
}

fn col_agg_plan(aggs: &[AggExpr], heap: &ColumnHeap, seg: &ColumnSegment) -> Vec<ColAgg> {
    aggs.iter()
        .map(|a| {
            let Some(input) = &a.input else {
                return ColAgg::Count;
            };
            let Some(col) = heap.col_index(input.name()) else {
                return ColAgg::Skip;
            };
            match (a.func, seg.col_kind(col)) {
                (AggFunc::Count, _) => ColAgg::Count,
                (AggFunc::Sum, ColKind::Int) => ColAgg::SumInt(col),
                (AggFunc::Sum, ColKind::Float) => ColAgg::SumFloat(col),
                _ => ColAgg::FoldValues(col),
            }
        })
        .collect()
}

/// Folds one group's non-empty selection of a segment into its
/// accumulators, walking the selection's words: `COUNT` is a popcount and
/// the sums run over maximal runs of selected rows, so a dense selection
/// costs one slice pass per aggregate, not one step per row.
fn fold_selection(seg: &ColumnSegment, sel: &SelVec, plan: &[ColAgg], accs: &mut [Acc]) {
    for (op, acc) in plan.iter().zip(accs.iter_mut()) {
        match op {
            ColAgg::Count => acc.add_count(sel.count() as i64),
            ColAgg::Skip => {}
            ColAgg::SumInt(c) => {
                let xs = seg.int_slice(*c).expect("plan resolved an int column");
                let partial = sel.runs().fold(0i64, |s, run| {
                    xs[run].iter().fold(s, |s, x| s.wrapping_add(*x))
                });
                acc.add_int_sum(partial);
            }
            ColAgg::SumFloat(c) => {
                let xs = seg.float_slice(*c).expect("plan resolved a float column");
                for run in sel.runs() {
                    acc.add_floats(xs[run].iter().copied());
                }
            }
            ColAgg::FoldValues(c) => {
                for r in sel.iter() {
                    acc.add_value(&seg.value_at(*c, r));
                }
            }
        }
    }
}

/// The groups of one segment's selection: each group's key and the
/// selection of its rows, in first-row order.  Keys are merged under the
/// total order — the order [`GroupedAggs`] keys its groups by — so values
/// that tie under it (`Int 1` and `Float 1.0`) share one selection and
/// their rows fold in row order, exactly as the row-wise fold sees them.
struct SegmentGroups {
    slots: BTreeMap<Tuple, usize>,
    groups: Vec<(Tuple, SelVec)>,
}

impl SegmentGroups {
    fn new() -> Self {
        SegmentGroups {
            slots: BTreeMap::new(),
            groups: Vec::new(),
        }
    }

    /// The slot of `key`'s group, opened on first sight.
    fn slot(&mut self, key: Tuple) -> usize {
        if let Some(s) = self.slots.get(&key) {
            return *s;
        }
        self.groups.push((key.clone(), SelVec::none()));
        self.slots.insert(key, self.groups.len() - 1);
        self.groups.len() - 1
    }
}

/// Folds one segment's selected rows directly into grouped aggregation
/// state — the columnar aggregation kernel.  No input tuple is ever
/// materialized: rows are split into one selection per group, and each
/// group's selection folds through one word-walking kernel.  `GROUP BY` on a
/// dictionary-encoded column builds one key tuple per *distinct code*, not
/// per row, and a one-entry dictionary — a segment holding one group, as a
/// shape partition under an EAD determinant does — is decided once per
/// segment: the whole selection is that group, and no code is read.
///
/// `sel` must already be masked by the segment's live bitmap (as
/// [`Compiled::select`] guarantees).  Partitions whose shape lacks a
/// grouping attribute contribute no rows — grouping is a type guard — and
/// aggregates whose input attribute is outside the shape see no input from
/// this partition; both checks are shape-level constants here, never
/// per-row tests.  Each group's rows fold in storage order, so the result
/// is bit-for-bit the row-wise [`GroupedAggs::add_tuple`] fold.
pub fn aggregate_selected(heap: &ColumnHeap, si: usize, sel: &SelVec, state: &mut GroupedAggs) {
    if sel.is_empty() || !state.group_by().is_subset(heap.shape()) {
        return;
    }
    let seg = heap.segment(si).expect("segment index in range");
    let plan = col_agg_plan(state.aggs(), heap, seg);
    if state.group_by().is_empty() {
        fold_selection(seg, sel, &plan, state.group_accs(Tuple::empty()));
        return;
    }
    // Grouping columns in canonical attribute order (subset of the shape,
    // checked above).
    let group_cols: Vec<(Attr, usize)> = heap
        .attrs()
        .iter()
        .filter(|a| state.group_by().contains(a))
        .map(|a| (a.clone(), heap.col_index(a.name()).expect("attr in shape")))
        .collect();
    let mut groups = SegmentGroups::new();
    match (
        &group_cols[..],
        group_cols.first().and_then(|(_, c)| seg.dict_parts(*c)),
    ) {
        ([(attr, _)], Some((_, [only]))) => {
            groups
                .groups
                .push((Tuple::new().with(attr.clone(), only.clone()), *sel));
        }
        ([(attr, _)], Some((codes, vals))) => {
            // One key per distinct code, then one bit per row.
            let mut slot_of = vec![usize::MAX; vals.len()];
            for r in sel.iter() {
                let code = codes[r] as usize;
                if slot_of[code] == usize::MAX {
                    slot_of[code] =
                        groups.slot(Tuple::new().with(attr.clone(), vals[code].clone()));
                }
                groups.groups[slot_of[code]].1.set(r);
            }
        }
        // Multi-attribute or non-dictionary grouping: the key per row from
        // the grouping columns alone — still no full-row materialization.
        _ => {
            for r in sel.iter() {
                let mut key = Tuple::new();
                for (a, c) in &group_cols {
                    key.insert(a.clone(), seg.value_at(*c, r));
                }
                let s = groups.slot(key);
                groups.groups[s].1.set(r);
            }
        }
    }
    for (key, group_sel) in groups.groups {
        fold_selection(seg, &group_sel, &plan, state.group_accs(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::attrs;
    use flexrel_storage::{Database, Partition, RelationDef};
    use flexrel_workload::{employee_relation, generate_employees, EmployeeConfig};

    fn parts_of(db: &Database) -> Vec<std::sync::Arc<Partition>> {
        db.partition_snapshot("employee")
            .unwrap()
            .into_parts()
            .into_iter()
            .map(|(_, p)| p)
            .collect()
    }

    /// The qualifying tuples of `parts` under the compiled conjunction.
    fn select_tuples(parts: &[std::sync::Arc<Partition>], preds: &[Predicate]) -> Vec<Tuple> {
        let mut out = Vec::new();
        for p in parts {
            let heap = p.columns();
            let compiled = compile(preds, heap);
            for si in 0..heap.segment_count() {
                let sel = compiled.select(heap.segment(si).unwrap());
                heap.materialize_selected(si, &sel, &mut out);
            }
        }
        out
    }

    fn db(n: usize) -> Database {
        let db = Database::new();
        db.create_relation(RelationDef::from_relation(&employee_relation()))
            .unwrap();
        for t in generate_employees(&EmployeeConfig::clean(n)) {
            db.insert("employee", t).unwrap();
        }
        db
    }

    /// Every predicate shape agrees with per-tuple `Predicate::eval`.
    #[test]
    fn compiled_predicates_match_row_eval() {
        let db = db(500);
        let parts = parts_of(&db);
        let rows: Vec<Tuple> = db
            .scan("employee")
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let preds = [
            Predicate::True,
            Predicate::False,
            Predicate::gt("salary", 4000),
            Predicate::eq("jobtype", Value::tag("secretary")),
            Predicate::eq("salary", Value::Float(4000.0)),
            Predicate::present(attrs!["typing-speed"]),
            Predicate::present(attrs!["typing-speed"]).negate(),
            Predicate::gt("salary", 3000)
                .and(Predicate::eq("jobtype", Value::tag("software engineer"))),
            Predicate::eq("jobtype", Value::tag("secretary"))
                .or(Predicate::eq("jobtype", Value::tag("salesman"))),
            Predicate::gt("typing-speed", 0).negate(),
            Predicate::lt("empno", 100).and(Predicate::ge("empno", 50)),
            Predicate::ne("jobtype", Value::tag("secretary")),
            Predicate::le("salary", 2500).or(Predicate::present(attrs!["products"])),
        ];
        for p in &preds {
            let mut expect: Vec<Tuple> = rows.iter().filter(|t| p.eval(t)).cloned().collect();
            let mut got = select_tuples(&parts, std::slice::from_ref(p));
            expect.sort();
            got.sort();
            assert_eq!(expect, got, "predicate {:?}", p);
        }
    }

    #[test]
    fn folded_constants_skip_partitions() {
        let db = db(100);
        for (_, p) in db.partition_snapshot("employee").unwrap().into_parts() {
            let heap = p.columns();
            // A comparison on an attribute outside the shape folds away.
            let c = compile(&[Predicate::eq("no-such-attr", 1)], heap);
            assert!(c.is_never());
            // ... and folds through negation into all-rows.
            let c = compile(&[Predicate::eq("no-such-attr", 1).negate()], heap);
            assert!(matches!(c, Compiled::All));
            // IsPresent is a shape-level constant either way.
            let c = compile(&[Predicate::present(attrs!["empno"])], heap);
            assert!(matches!(c, Compiled::All));
            let selected: usize = (0..heap.segment_count())
                .map(|si| c.select(heap.segment(si).unwrap()).count())
                .sum();
            assert_eq!(selected, heap.len());
        }
    }

    #[test]
    fn empty_conjunction_selects_everything() {
        let db = db(60);
        assert_eq!(select_tuples(&parts_of(&db), &[]).len(), 60);
    }

    /// The columnar aggregation kernels agree with the row-wise reference
    /// fold, grouped and global, under every predicate shape.
    #[test]
    fn columnar_aggregation_matches_the_row_fold() {
        use crate::agg::GroupedAggs;
        use crate::logical::{AggExpr, AggFunc};
        use flexrel_core::attr::AttrSet;

        let db = db(700);
        let parts = parts_of(&db);
        let rows: Vec<Tuple> = db
            .scan("employee")
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let aggs = vec![
            AggExpr::new(AggFunc::Count, None),
            AggExpr::new(AggFunc::Count, Some("typing-speed".into())),
            AggExpr::new(AggFunc::Sum, Some("salary".into())),
            AggExpr::new(AggFunc::Min, Some("salary".into())),
            AggExpr::new(AggFunc::Max, Some("empno".into())),
            AggExpr::new(AggFunc::Min, Some("jobtype".into())),
        ];
        let groupings = [
            AttrSet::empty(),
            attrs!["jobtype"],
            attrs!["jobtype", "salary"],
        ];
        let preds = [
            Vec::new(),
            vec![Predicate::gt("salary", 4000)],
            vec![Predicate::eq("jobtype", Value::tag("secretary"))],
            vec![Predicate::gt("salary", 99999999)], // selects nothing
        ];
        for group_by in &groupings {
            for preds in &preds {
                let mut naive = GroupedAggs::new(group_by.clone(), aggs.clone());
                for t in rows.iter().filter(|t| preds.iter().all(|p| p.eval(t))) {
                    naive.add_tuple(t);
                }
                let mut fast = GroupedAggs::new(group_by.clone(), aggs.clone());
                for p in &parts {
                    let heap = p.columns();
                    let compiled = compile(preds, heap);
                    for si in 0..heap.segment_count() {
                        let sel = compiled.select(heap.segment(si).unwrap());
                        aggregate_selected(heap, si, &sel, &mut fast);
                    }
                }
                let mut expect = naive.finish();
                let mut got = fast.finish();
                expect.sort();
                got.sort();
                assert_eq!(expect, got, "group by {} under {:?}", group_by, preds);
            }
        }
    }
}
