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
//!    and the boolean structure combines bitmaps word-at-a-time.
//! 3. **Late materialization.**  Only the rows whose selection bit survives
//!    (masked by the segment's live bitmap) are materialized into [`Tuple`]s.
//!
//! The result is bit-for-bit the row semantics: `compile` mirrors
//! [`Predicate::eval`] exactly (including the "comparison on a missing
//! attribute is `false`" rule and kind-strict equality), which the unit
//! tests below and the differential suite (`flexrel_tests::reference_eval`)
//! check against per-tuple evaluation.
//!
//! [`ShapePredicate`]: crate::logical::ShapePredicate

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
/// to every row run of that segment.
enum ColAgg {
    /// `COUNT(*)`, and `COUNT(x)` with `x` in the shape: columns are dense
    /// (shape membership *is* presence), so the count is the run length.
    CountRun,
    /// The input attribute is outside this partition's shape — the
    /// aggregate sees nothing here (`COUNT(x)` contributes 0).
    Skip,
    /// `SUM` over a plain integer column: wrapping partial sums per run.
    SumInt(usize),
    /// `SUM` over a plain float column: element-wise adds in row order (the
    /// order the row-wise reference fold would use).
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
                return ColAgg::CountRun;
            };
            let Some(col) = heap.col_index(input.name()) else {
                return ColAgg::Skip;
            };
            match (a.func, seg.col_kind(col)) {
                (AggFunc::Count, _) => ColAgg::CountRun,
                (AggFunc::Sum, ColKind::Int) => ColAgg::SumInt(col),
                (AggFunc::Sum, ColKind::Float) => ColAgg::SumFloat(col),
                _ => ColAgg::FoldValues(col),
            }
        })
        .collect()
}

/// Folds one run of selected rows (ascending row order) of a segment into a
/// group's accumulators.
fn fold_run(seg: &ColumnSegment, rows: &[u32], plan: &[ColAgg], accs: &mut [Acc]) {
    if rows.is_empty() {
        return;
    }
    for (op, acc) in plan.iter().zip(accs.iter_mut()) {
        match op {
            ColAgg::CountRun => acc.add_count(rows.len() as i64),
            ColAgg::Skip => {}
            ColAgg::SumInt(c) => {
                let xs = seg.int_slice(*c).expect("plan resolved an int column");
                let partial = rows
                    .iter()
                    .fold(0i64, |s, &r| s.wrapping_add(xs[r as usize]));
                acc.add_int_sum(partial);
            }
            ColAgg::SumFloat(c) => {
                let xs = seg.float_slice(*c).expect("plan resolved a float column");
                for &r in rows {
                    acc.add_value(&Value::Float(xs[r as usize]));
                }
            }
            ColAgg::FoldValues(c) => {
                for &r in rows {
                    acc.add_value(&seg.value_at(*c, r as usize));
                }
            }
        }
    }
}

/// Folds one segment's selected rows directly into grouped aggregation
/// state — the columnar aggregation kernel.  No input tuple is ever
/// materialized: `COUNT` is a popcount, integer `SUM` runs over the raw
/// column slice, and `GROUP BY` on a dictionary-encoded column buckets rows
/// by dictionary code, building one key tuple per *distinct group* rather
/// than per row.
///
/// `sel` must already be masked by the segment's live bitmap (as
/// [`Compiled::select`] guarantees).  Partitions whose shape lacks a
/// grouping attribute contribute no rows — grouping is a type guard — and
/// aggregates whose input attribute is outside the shape see no input from
/// this partition; both checks are shape-level constants here, never
/// per-row tests.  The fold visits rows in storage order, so the result is
/// bit-for-bit the row-wise [`GroupedAggs::add_tuple`] fold.
pub fn aggregate_selected(heap: &ColumnHeap, si: usize, sel: &SelVec, state: &mut GroupedAggs) {
    if sel.is_empty() || !state.group_by().is_subset(heap.shape()) {
        return;
    }
    let seg = heap.segment(si).expect("segment index in range");
    let plan = col_agg_plan(state.aggs(), heap, seg);
    let rows: Vec<u32> = sel.iter().map(|r| r as u32).collect();
    if state.group_by().is_empty() {
        fold_run(seg, &rows, &plan, state.group_accs(Tuple::empty()));
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
    // Fast path: a single dictionary-encoded grouping column.  Bucket the
    // selected rows by code and touch each group once per segment.
    if let [(attr, gcol)] = &group_cols[..] {
        if let Some((codes, vals)) = seg.dict_parts(*gcol) {
            let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); vals.len()];
            for &r in &rows {
                buckets[codes[r as usize] as usize].push(r);
            }
            // Visit groups in first-row order so key ties under the total
            // order (e.g. Int 1 vs Float 1.0 in a mixed segment) resolve
            // exactly as the row-order fold would.
            let mut order: Vec<usize> = (0..buckets.len())
                .filter(|c| !buckets[*c].is_empty())
                .collect();
            order.sort_by_key(|c| buckets[*c][0]);
            for c in order {
                let key = Tuple::new().with(attr.clone(), vals[c].clone());
                fold_run(seg, &buckets[c], &plan, state.group_accs(key));
            }
            return;
        }
    }
    // General path (multi-attribute or non-dictionary grouping): build the
    // key per row from the grouping columns alone — still no full-row
    // materialization.
    for &r in &rows {
        let mut key = Tuple::new();
        for (a, c) in &group_cols {
            key.insert(a.clone(), seg.value_at(*c, r as usize));
        }
        fold_run(seg, &[r], &plan, state.group_accs(key));
    }
}

/// Runs a compiled predicate over every segment of a partition, folding the
/// qualifying rows into the aggregation state — the partition-level driver
/// of [`aggregate_selected`].
pub fn aggregate_partition(heap: &ColumnHeap, compiled: &Compiled, state: &mut GroupedAggs) {
    if compiled.is_never() || !state.group_by().is_subset(heap.shape()) {
        return;
    }
    for si in 0..heap.segment_count() {
        let seg = heap.segment(si).expect("segment index in range");
        let sel = compiled.select(seg);
        aggregate_selected(heap, si, &sel, state);
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
                    aggregate_partition(heap, &compiled, &mut fast);
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
