//! Logical query plans over flexible relations.

use std::fmt;

use flexrel_algebra::predicate::Predicate;
use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;

/// An aggregate function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(a)`: number of rows (rows defined on `a`).
    Count,
    /// `SUM(a)`: sum of the values of `a` over rows defined on it.  Integer
    /// sums wrap (two's complement), mirroring a plain `i64` fold.
    Sum,
    /// `MIN(a)` under [`Value`]'s total order.
    Min,
    /// `MAX(a)` under [`Value`]'s total order.
    Max,
}

impl AggFunc {
    /// The lowercase keyword (`count`, `sum`, …).
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// The physical method of a [`LogicalPlan::Join`], chosen at plan time and
/// followed by the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Materialize and hash the right input, stream the left input.
    Hash,
    /// Stream the left input, probe the right relation's stored index on
    /// the equi-join attributes per tuple.
    IndexNestedLoopRight,
    /// Stream the right input, probe the left relation's stored index on
    /// the equi-join attributes per tuple.
    IndexNestedLoopLeft,
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinStrategy::Hash => "hash",
            JoinStrategy::IndexNestedLoopRight => "index-nested-loop into right",
            JoinStrategy::IndexNestedLoopLeft => "index-nested-loop into left",
        })
    }
}

/// One aggregate expression of an [`LogicalPlan::Aggregate`] node.
///
/// Flexible-relation semantics: an aggregate over attribute `a` folds only
/// the input rows *defined on* `a` (presence is a shape-level fact, so no
/// per-row null checks are involved); `COUNT(*)` (`input: None`) counts
/// every row.  A group none of whose rows is defined on `a` simply omits
/// the output attribute — the result is a flexible tuple, like any other.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated attribute; `None` is `COUNT(*)`.
    pub input: Option<Attr>,
    /// The attribute the result is emitted under.
    pub output: Attr,
}

impl AggExpr {
    /// An aggregate with the conventional output name: `count` for
    /// `COUNT(*)`, otherwise `<func>-<attr>` (e.g. `sum-salary`).
    pub fn new(func: AggFunc, input: Option<Attr>) -> Self {
        let output = match &input {
            None => Attr::new("count"),
            Some(a) => Attr::new(format!("{}-{}", func.name(), a.name())),
        };
        AggExpr {
            func,
            input,
            output,
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.input {
            None => write!(f, "{}(*)", self.func.name()),
            Some(a) => write!(f, "{}({})", self.func.name(), a.name()),
        }
    }
}

/// A predicate over tuple *shapes* (`attr(t)`), attached to a
/// [`LogicalPlan::Scan`] by the optimizer's partition-pruning pass.
///
/// The executor evaluates it once per heap partition (not per tuple): a
/// partition whose shape is not admitted is skipped entirely.  Two kinds of
/// constraints are combined:
///
/// * `required ⊆ shape` — attributes every qualifying tuple must be defined
///   on (from [`Predicate::required_attrs`] of the selections above the
///   scan and the attribute sets of explicit type guards);
/// * `shape ∩ Y = Yi` *regions* — derived from an
///   [`Ead`](flexrel_core::dep::Ead) `<X --exp.attr--> Y, {Vi --exp.attr-->
///   Yi}>` whose determinant `X` is pinned to constants by the selection:
///   every stored tuple with that `X`-value carries exactly `Yi` of `Y`
///   (Def. 2.1, enforced at insert time), so partitions with any other
///   `Y`-overlap cannot contribute.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ShapePredicate {
    /// Attributes that must be present in the shape.
    pub required: AttrSet,
    /// Exact-overlap constraints `(Y, Yi)`: the shape must satisfy
    /// `shape ∩ Y = Yi`.
    pub regions: Vec<(AttrSet, AttrSet)>,
}

impl ShapePredicate {
    /// Whether a partition of the given shape can contain qualifying tuples.
    pub fn admits(&self, shape: &AttrSet) -> bool {
        self.required.is_subset(shape)
            && self
                .regions
                .iter()
                .all(|(y, yi)| shape.intersection(y) == *yi)
    }

    /// Whether the predicate admits every shape (nothing to prune).
    pub fn is_trivial(&self) -> bool {
        self.required.is_empty() && self.regions.is_empty()
    }
}

impl fmt::Display for ShapePredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        if !self.required.is_empty() {
            write!(f, "shape ⊇ {}", self.required)?;
            first = false;
        }
        for (y, yi) in &self.regions {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "shape ∩ {} = {}", y, yi)?;
            first = false;
        }
        Ok(())
    }
}

/// A logical plan node.
#[derive(Clone, Debug, PartialEq)]
pub enum LogicalPlan {
    /// A statically-known-empty result (produced by the optimizer when a
    /// branch is proven unsatisfiable).
    Empty,
    /// Scan of a stored relation.  `qualification` is a predicate known to
    /// hold for every tuple of the relation (a *qualified relation* in the
    /// sense of Ceri/Pelagatti); the optimizer uses it to prune branches.
    /// `shape` is an optional shape predicate the optimizer pushes down so
    /// the executor can skip whole heap partitions.
    Scan {
        /// The stored relation to scan.
        relation: String,
        /// A predicate known to hold for every tuple of the relation.
        qualification: Option<Predicate>,
        /// Partition-pruning predicate over tuple shapes.
        shape: Option<ShapePredicate>,
    },
    /// An indexed equality lookup — the access-path alternative to a scan,
    /// produced by the optimizer's access-path pass when a stored index
    /// covers the equality constraints of a selection.  Yields exactly the
    /// tuples whose projection onto `key` equals `key_value`.
    IndexLookup {
        /// The stored relation to probe.
        relation: String,
        /// The indexed attribute set (the probe key).
        key: AttrSet,
        /// The constant key value, a tuple over exactly `key`.
        key_value: Tuple,
        /// Partition-pruning predicate, applied per matching rid via its
        /// [`ShapeId`](flexrel_core::tuple::ShapeId) — shape pruning composes
        /// with the index probe instead of being lost to it.
        shapes: Option<ShapePredicate>,
    },
    /// Selection.
    Filter {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// The selection predicate.
        predicate: Predicate,
    },
    /// Projection onto an attribute set.
    Project {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// The attributes to project onto.
        attrs: AttrSet,
    },
    /// An explicit retrieval-side type guard: keep only tuples defined on
    /// all the listed attributes.
    Guard {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// The attributes whose presence is asserted.
        attrs: AttrSet,
    },
    /// Natural join of two inputs.
    Join {
        /// The left input.
        left: Box<LogicalPlan>,
        /// The right input.
        right: Box<LogicalPlan>,
        /// How the executor joins them.  Every join starts as
        /// [`JoinStrategy::Hash`]; only the access-path pass
        /// ([`choose_access_paths`](crate::optimizer::choose_access_paths))
        /// prices and records another method.
        strategy: JoinStrategy,
    },
    /// Outer union of several inputs (heterogeneous shapes allowed).
    UnionAll {
        /// The union branches.
        inputs: Vec<LogicalPlan>,
    },
    /// Extension by a constant attribute.
    Extend {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// The attribute to add.
        attr: String,
        /// The constant value of the added attribute.
        value: Value,
    },
    /// Grouped aggregation: partitions the input by the values of
    /// `group_by` (rows not defined on all of `group_by` are excluded —
    /// grouping is a type guard) and folds each `agg` over its group.
    /// With an empty `group_by` there is exactly one output row.
    Aggregate {
        /// The input plan.
        input: Box<LogicalPlan>,
        /// The grouping attributes (empty = one global group).
        group_by: AttrSet,
        /// The aggregates to compute.
        aggs: Vec<AggExpr>,
    },
}

impl LogicalPlan {
    /// Scan of a relation without qualification.
    pub fn scan(relation: impl Into<String>) -> Self {
        LogicalPlan::Scan {
            relation: relation.into(),
            qualification: None,
            shape: None,
        }
    }

    /// Scan of a qualified relation.
    pub fn qualified_scan(relation: impl Into<String>, qualification: Predicate) -> Self {
        LogicalPlan::Scan {
            relation: relation.into(),
            qualification: Some(qualification),
            shape: None,
        }
    }

    /// Number of scan nodes carrying a non-trivial shape predicate (used by
    /// tests and the experiment harness to show the optimizer pushed
    /// partition pruning down).
    pub fn pruned_scan_count(&self) -> usize {
        match self {
            LogicalPlan::Empty | LogicalPlan::IndexLookup { .. } => 0,
            LogicalPlan::Scan { shape, .. } => {
                shape.as_ref().map(|s| !s.is_trivial()).unwrap_or(false) as usize
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Guard { input, .. }
            | LogicalPlan::Extend { input, .. }
            | LogicalPlan::Aggregate { input, .. } => input.pruned_scan_count(),
            LogicalPlan::Join { left, right, .. } => {
                left.pruned_scan_count() + right.pruned_scan_count()
            }
            LogicalPlan::UnionAll { inputs } => inputs.iter().map(|p| p.pruned_scan_count()).sum(),
        }
    }

    /// Wraps the plan in a filter.
    pub fn filter(self, predicate: Predicate) -> Self {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Wraps the plan in a projection.
    pub fn project(self, attrs: impl Into<AttrSet>) -> Self {
        LogicalPlan::Project {
            input: Box::new(self),
            attrs: attrs.into(),
        }
    }

    /// Wraps the plan in a type guard.
    pub fn guard(self, attrs: impl Into<AttrSet>) -> Self {
        LogicalPlan::Guard {
            input: Box::new(self),
            attrs: attrs.into(),
        }
    }

    /// Joins the plan with another plan by hash join.
    pub fn join(self, right: LogicalPlan) -> Self {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            strategy: JoinStrategy::Hash,
        }
    }

    /// Wraps the plan in a grouped aggregation.
    pub fn aggregate(self, group_by: impl Into<AttrSet>, aggs: Vec<AggExpr>) -> Self {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by: group_by.into(),
            aggs,
        }
    }

    /// Rebuilds the node with `f` applied to each of its input plans; a leaf
    /// is returned as it is.  The traversal step of every optimizer pass
    /// that has nothing node-specific to do.
    pub fn map_children(self, mut f: impl FnMut(LogicalPlan) -> LogicalPlan) -> Self {
        let mut boxed = |p: Box<LogicalPlan>| Box::new(f(*p));
        match self {
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: boxed(input),
                predicate,
            },
            LogicalPlan::Project { input, attrs } => LogicalPlan::Project {
                input: boxed(input),
                attrs,
            },
            LogicalPlan::Guard { input, attrs } => LogicalPlan::Guard {
                input: boxed(input),
                attrs,
            },
            LogicalPlan::Extend { input, attr, value } => LogicalPlan::Extend {
                input: boxed(input),
                attr,
                value,
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => LogicalPlan::Aggregate {
                input: boxed(input),
                group_by,
                aggs,
            },
            LogicalPlan::Join {
                left,
                right,
                strategy,
            } => LogicalPlan::Join {
                left: boxed(left),
                right: boxed(right),
                strategy,
            },
            LogicalPlan::UnionAll { inputs } => LogicalPlan::UnionAll {
                inputs: inputs.into_iter().map(f).collect(),
            },
            leaf @ (LogicalPlan::Scan { .. }
            | LogicalPlan::IndexLookup { .. }
            | LogicalPlan::Empty) => leaf,
        }
    }

    /// The node's input plans, left to right; none for a leaf.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Guard { input, .. }
            | LogicalPlan::Extend { input, .. }
            | LogicalPlan::Aggregate { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::UnionAll { inputs } => inputs.iter().collect(),
            LogicalPlan::Scan { .. } | LogicalPlan::IndexLookup { .. } | LogicalPlan::Empty => {
                Vec::new()
            }
        }
    }

    /// Number of index-lookup nodes (used by tests and the experiment
    /// harness to show the optimizer chose an index access path).
    pub fn index_lookup_count(&self) -> usize {
        match self {
            LogicalPlan::Empty | LogicalPlan::Scan { .. } => 0,
            LogicalPlan::IndexLookup { .. } => 1,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Guard { input, .. }
            | LogicalPlan::Extend { input, .. }
            | LogicalPlan::Aggregate { input, .. } => input.index_lookup_count(),
            LogicalPlan::Join { left, right, .. } => {
                left.index_lookup_count() + right.index_lookup_count()
            }
            LogicalPlan::UnionAll { inputs } => inputs.iter().map(|p| p.index_lookup_count()).sum(),
        }
    }

    /// Number of nodes in the plan.
    pub fn node_count(&self) -> usize {
        match self {
            LogicalPlan::Empty | LogicalPlan::Scan { .. } | LogicalPlan::IndexLookup { .. } => 1,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Guard { input, .. }
            | LogicalPlan::Extend { input, .. }
            | LogicalPlan::Aggregate { input, .. } => 1 + input.node_count(),
            LogicalPlan::Join { left, right, .. } => 1 + left.node_count() + right.node_count(),
            LogicalPlan::UnionAll { inputs } => {
                1 + inputs.iter().map(|p| p.node_count()).sum::<usize>()
            }
        }
    }

    /// Number of guard nodes (used by tests and the experiment harness to
    /// show the optimizer removed them).
    pub fn guard_count(&self) -> usize {
        match self {
            LogicalPlan::Empty | LogicalPlan::Scan { .. } | LogicalPlan::IndexLookup { .. } => 0,
            LogicalPlan::Guard { input, .. } => 1 + input.guard_count(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Extend { input, .. }
            | LogicalPlan::Aggregate { input, .. } => input.guard_count(),
            LogicalPlan::Join { left, right, .. } => left.guard_count() + right.guard_count(),
            LogicalPlan::UnionAll { inputs } => inputs.iter().map(|p| p.guard_count()).sum(),
        }
    }

    /// Number of join nodes.
    pub fn join_count(&self) -> usize {
        match self {
            LogicalPlan::Empty | LogicalPlan::Scan { .. } | LogicalPlan::IndexLookup { .. } => 0,
            LogicalPlan::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Guard { input, .. }
            | LogicalPlan::Extend { input, .. }
            | LogicalPlan::Aggregate { input, .. } => input.join_count(),
            LogicalPlan::UnionAll { inputs } => inputs.iter().map(|p| p.join_count()).sum(),
        }
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::Empty => writeln!(f, "{}Empty", pad),
            LogicalPlan::Scan {
                relation,
                qualification,
                shape,
            } => {
                write!(f, "{}Scan {}", pad, relation)?;
                if let Some(q) = qualification {
                    write!(f, " [qualified by {}]", q)?;
                }
                match shape {
                    Some(s) if !s.is_trivial() => write!(f, " [partitions: {}]", s)?,
                    _ => {}
                }
                writeln!(f)
            }
            LogicalPlan::IndexLookup {
                relation,
                key,
                key_value,
                shapes,
            } => {
                write!(
                    f,
                    "{}IndexLookup {} [{} = {}]",
                    pad, relation, key, key_value
                )?;
                match shapes {
                    Some(s) if !s.is_trivial() => write!(f, " [partitions: {}]", s)?,
                    _ => {}
                }
                writeln!(f)
            }
            LogicalPlan::Filter { input, predicate } => {
                writeln!(f, "{}Filter {}", pad, predicate)?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Project { input, attrs } => {
                writeln!(f, "{}Project {}", pad, attrs)?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Guard { input, attrs } => {
                writeln!(f, "{}Guard {}", pad, attrs)?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Join {
                left,
                right,
                strategy,
            } => {
                match strategy {
                    JoinStrategy::Hash => writeln!(f, "{}Join", pad)?,
                    _ => writeln!(f, "{}Join [{}]", pad, strategy)?,
                }
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            LogicalPlan::UnionAll { inputs } => {
                writeln!(f, "{}UnionAll", pad)?;
                for i in inputs {
                    i.fmt_indent(f, indent + 1)?;
                }
                Ok(())
            }
            LogicalPlan::Extend { input, attr, value } => {
                writeln!(f, "{}Extend {} := {}", pad, attr, value)?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                write!(f, "{}Aggregate", pad)?;
                if !group_by.is_empty() {
                    write!(f, " group by {}", group_by)?;
                }
                for (i, a) in aggs.iter().enumerate() {
                    write!(f, "{}{}", if i == 0 { " " } else { ", " }, a)?;
                }
                writeln!(f)?;
                input.fmt_indent(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::attrs;

    fn sample() -> LogicalPlan {
        LogicalPlan::scan("employee")
            .filter(Predicate::gt("salary", 5000))
            .guard(attrs!["typing-speed"])
            .project(attrs!["empno", "typing-speed"])
    }

    #[test]
    fn builders_and_counters() {
        let p = sample();
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.guard_count(), 1);
        assert_eq!(p.join_count(), 0);
        let j = LogicalPlan::scan("a").join(LogicalPlan::scan("b"));
        assert_eq!(j.join_count(), 1);
        assert_eq!(j.node_count(), 3);
        let u = LogicalPlan::UnionAll {
            inputs: vec![sample(), LogicalPlan::Empty],
        };
        assert_eq!(u.node_count(), 6);
        assert_eq!(u.guard_count(), 1);
    }

    #[test]
    fn display_is_an_explain_tree() {
        let p = sample();
        let s = p.to_string();
        assert!(s.contains("Project {empno, typing-speed}"));
        assert!(s.contains("Guard {typing-speed}"));
        assert!(s.contains("Filter salary > 5000"));
        assert!(s.contains("  Scan employee") || s.contains("Scan employee"));
        let q = LogicalPlan::qualified_scan(
            "detail",
            Predicate::eq("jobtype", flexrel_core::value::Value::tag("salesman")),
        );
        assert!(q.to_string().contains("qualified by"));
    }
}
