//! Aggregation semantics for flexible relations.
//!
//! Aggregation over flexible relations differs from SQL in one important
//! way: there are no nulls.  Whether a tuple contributes to `SUM(x)` is a
//! matter of *shape* — the tuple either is or is not defined on `x` — and
//! within a shape-homogeneous partition that is a partition-level constant,
//! not a per-row check.  The rules implemented here:
//!
//! * `COUNT(*)` counts every tuple of the group.
//! * `COUNT(x)` counts the tuples defined on `x`; `SUM`/`MIN`/`MAX` fold
//!   only over tuples defined on their input attribute.
//! * A tuple not defined on **all** grouping attributes belongs to no group
//!   — grouping acts as a type guard (the optimizer pushes the grouping
//!   attributes into the scan's shape predicate for exactly this reason).
//! * A `SUM`/`MIN`/`MAX` whose group saw no input **omits** its output
//!   attribute: result tuples are flexible tuples, so "nothing to sum" is
//!   expressed by shape, not by a null.  `COUNT` always emits (possibly 0).
//! * Integer sums wrap (two's complement); mixed `Int`/`Float` input sums
//!   to `Float`.  `MIN`/`MAX` use [`Value`]'s total order.
//!
//! The row-wise fold ([`GroupedAggs::add_tuple`]) *defines* the semantics;
//! the columnar kernels ([`crate::colscan::aggregate_selected`]) must agree
//! with it bit-for-bit, which the proptest suite checks.  To keep float
//! sums reproducible, [`Acc`] accumulates integer and float contributions
//! separately: integer addition wraps (order-independent) and float
//! contributions are added in row order, so the kernels match the row fold
//! exactly as long as they fold each group's rows in storage order — with
//! "group" read under [`Value`]'s total order, which is how the groups are
//! keyed: `Int 1` and `Float 1.0` are one group, and their rows interleave.

use std::collections::BTreeMap;

use flexrel_core::attr::AttrSet;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;

use crate::logical::{AggExpr, AggFunc};

/// One aggregate accumulator: the running state of a single aggregate
/// function over one group.
#[derive(Clone, Debug)]
pub enum Acc {
    /// `COUNT` — tuples (or present inputs) seen so far.
    Count(i64),
    /// `SUM` — integer part (wrapping), float part (row order), and whether
    /// any numeric input arrived at all.
    Sum {
        /// Running wrapping sum of the `Int` inputs.
        int: i64,
        /// Running sum of the `Float` inputs, in arrival order.
        float: f64,
        /// Whether any `Float` input arrived (the result is then a `Float`).
        saw_float: bool,
        /// Whether any numeric input arrived (otherwise the output attribute
        /// is omitted).
        any: bool,
    },
    /// `MIN` under [`Value`]'s total order; `None` until an input arrives.
    Min(Option<Value>),
    /// `MAX` under [`Value`]'s total order; `None` until an input arrives.
    Max(Option<Value>),
}

impl Acc {
    /// A fresh accumulator for the given function.
    pub fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum {
                int: 0,
                float: 0.0,
                saw_float: false,
                any: false,
            },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    /// Folds one input value.  For `COUNT` this counts the value; for `SUM`
    /// non-numeric values are ignored (they contribute nothing, mirroring
    /// that arithmetic over tags is undefined); `MIN`/`MAX` accept any value
    /// and keep the first-seen value on ties of the total order.
    pub fn add_value(&mut self, v: &Value) {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum {
                int,
                float,
                saw_float,
                any,
            } => match v {
                Value::Int(i) => {
                    *int = int.wrapping_add(*i);
                    *any = true;
                }
                Value::Float(f) => {
                    *float += *f;
                    *saw_float = true;
                    *any = true;
                }
                _ => {}
            },
            Acc::Min(m) => {
                if m.as_ref().map(|m| v < m).unwrap_or(true) {
                    *m = Some(v.clone());
                }
            }
            Acc::Max(m) => {
                if m.as_ref().map(|m| v > m).unwrap_or(true) {
                    *m = Some(v.clone());
                }
            }
        }
    }

    /// Bulk `COUNT` update: `n` rows at once (the columnar kernels count a
    /// whole selection vector in one step).  Only valid on `COUNT`.
    pub fn add_count(&mut self, n: i64) {
        match self {
            Acc::Count(c) => *c += n,
            _ => unreachable!("add_count is a COUNT-only fast path"),
        }
    }

    /// Bulk integer-`SUM` update: a pre-folded wrapping partial sum over a
    /// non-empty run of rows.  Wrapping addition is associative, so this is
    /// exactly the element-wise fold.  Only valid on `SUM`.
    pub fn add_int_sum(&mut self, partial: i64) {
        match self {
            Acc::Sum { int, any, .. } => {
                *int = int.wrapping_add(partial);
                *any = true;
            }
            _ => unreachable!("add_int_sum is a SUM-only fast path"),
        }
    }

    /// Bulk float-`SUM` update over a non-empty run of rows, added one by
    /// one in the order given — the row order of the element-wise fold, so
    /// the result is bit-identical to it.  Only valid on `SUM`.
    pub fn add_floats(&mut self, xs: impl IntoIterator<Item = f64>) {
        match self {
            Acc::Sum {
                float,
                saw_float,
                any,
                ..
            } => {
                *float = xs.into_iter().fold(*float, |s, x| s + x);
                *saw_float = true;
                *any = true;
            }
            _ => unreachable!("add_floats is a SUM-only fast path"),
        }
    }

    /// The final value, or `None` when the output attribute is omitted
    /// (a `SUM`/`MIN`/`MAX` that saw no input).
    pub fn finish(&self) -> Option<Value> {
        match self {
            Acc::Count(n) => Some(Value::Int(*n)),
            Acc::Sum { any: false, .. } => None,
            Acc::Sum {
                int,
                float,
                saw_float,
                ..
            } => {
                if *saw_float {
                    Some(Value::Float(*int as f64 + *float))
                } else {
                    Some(Value::Int(*int))
                }
            }
            Acc::Min(m) | Acc::Max(m) => m.clone(),
        }
    }
}

/// The blocking state of an `Aggregate` node: one [`Acc`] row per aggregate
/// expression per group, keyed by the group's projection onto the grouping
/// attributes.  Groups live in a `BTreeMap` so the output order is the
/// total order over key tuples — deterministic regardless of input order.
///
/// Row chunks (join outputs) and the test oracle feed it through
/// [`add_tuple`](GroupedAggs::add_tuple) (the semantic reference); columnar
/// chunks go through the kernels in [`crate::colscan`], which reach a
/// group's accumulators via [`group_accs`](GroupedAggs::group_accs) without
/// materializing input tuples.
#[derive(Debug)]
pub struct GroupedAggs {
    group_by: AttrSet,
    aggs: Vec<AggExpr>,
    groups: BTreeMap<Tuple, Vec<Acc>>,
}

impl GroupedAggs {
    /// Fresh state for `GROUP BY group_by` over `aggs`.  An empty
    /// `group_by` is the global aggregate: one group keyed by the empty
    /// tuple, emitted even over empty input.
    pub fn new(group_by: AttrSet, aggs: Vec<AggExpr>) -> Self {
        GroupedAggs {
            group_by,
            aggs,
            groups: BTreeMap::new(),
        }
    }

    /// The grouping attributes.
    pub fn group_by(&self) -> &AttrSet {
        &self.group_by
    }

    /// The aggregate expressions, in output order.
    pub fn aggs(&self) -> &[AggExpr] {
        &self.aggs
    }

    /// Folds one materialized tuple — the reference semantics for the
    /// columnar kernels.
    pub fn add_tuple(&mut self, t: &Tuple) {
        if !t.defined_on(&self.group_by) {
            return;
        }
        let key = t.project(&self.group_by);
        let aggs = &self.aggs;
        let accs = self
            .groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|a| Acc::new(a.func)).collect());
        for (agg, acc) in aggs.iter().zip(accs.iter_mut()) {
            match &agg.input {
                None => acc.add_count(1),
                Some(a) => {
                    if let Some(v) = t.get(a) {
                        acc.add_value(v);
                    }
                }
            }
        }
    }

    /// The accumulators of the group keyed by `key` (created on first
    /// touch).  `key` must be a tuple over exactly the grouping attributes;
    /// the columnar kernels build it once per distinct group, not per row.
    pub fn group_accs(&mut self, key: Tuple) -> &mut [Acc] {
        debug_assert_eq!(key.attrs(), self.group_by);
        let aggs = &self.aggs;
        self.groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|a| Acc::new(a.func)).collect())
    }

    /// Finalizes into result tuples: each group's key merged with the
    /// aggregate outputs (omitting aggregates that saw no input).  A global
    /// aggregate over empty input still yields its single row — `COUNT(*)`
    /// of nothing is 0.
    pub fn finish(mut self) -> Vec<Tuple> {
        if self.groups.is_empty() && self.group_by.is_empty() {
            self.groups.insert(
                Tuple::empty(),
                self.aggs.iter().map(|a| Acc::new(a.func)).collect(),
            );
        }
        let aggs = self.aggs;
        self.groups
            .into_iter()
            .map(|(key, accs)| {
                let mut out = key;
                for (agg, acc) in aggs.iter().zip(accs.iter()) {
                    if let Some(v) = acc.finish() {
                        out.insert(agg.output.clone(), v);
                    }
                }
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::AggFunc;
    use flexrel_core::attrs;

    fn aggs() -> Vec<AggExpr> {
        vec![
            AggExpr::new(AggFunc::Count, None),
            AggExpr::new(AggFunc::Count, Some("x".into())),
            AggExpr::new(AggFunc::Sum, Some("x".into())),
            AggExpr::new(AggFunc::Min, Some("x".into())),
            AggExpr::new(AggFunc::Max, Some("x".into())),
        ]
    }

    #[test]
    fn global_aggregate_over_empty_input_emits_one_row() {
        let state = GroupedAggs::new(AttrSet::empty(), aggs());
        let rows = state.finish();
        assert_eq!(rows.len(), 1);
        let t = &rows[0];
        assert_eq!(t.get_name("count"), Some(&Value::Int(0)));
        assert_eq!(t.get_name("count-x"), Some(&Value::Int(0)));
        // No input: sum/min/max omit their output attributes.
        assert!(!t.has_name("sum-x"));
        assert!(!t.has_name("min-x"));
        assert!(!t.has_name("max-x"));
    }

    #[test]
    fn grouped_aggregate_over_empty_input_emits_nothing() {
        let state = GroupedAggs::new(attrs!["g"], aggs());
        assert!(state.finish().is_empty());
    }

    #[test]
    fn presence_gates_the_fold_and_grouping() {
        let mut state = GroupedAggs::new(attrs!["g"], aggs());
        state.add_tuple(&Tuple::new().with("g", Value::tag("a")).with("x", 3));
        state.add_tuple(&Tuple::new().with("g", Value::tag("a")).with("x", 4));
        state.add_tuple(&Tuple::new().with("g", Value::tag("a"))); // no x
        state.add_tuple(&Tuple::new().with("g", Value::tag("b"))); // no x
        state.add_tuple(&Tuple::new().with("x", 99)); // no g: in no group
        let rows = state.finish();
        assert_eq!(rows.len(), 2);
        let a = rows
            .iter()
            .find(|t| t.get_name("g") == Some(&Value::tag("a")))
            .unwrap();
        assert_eq!(a.get_name("count"), Some(&Value::Int(3)));
        assert_eq!(a.get_name("count-x"), Some(&Value::Int(2)));
        assert_eq!(a.get_name("sum-x"), Some(&Value::Int(7)));
        assert_eq!(a.get_name("min-x"), Some(&Value::Int(3)));
        assert_eq!(a.get_name("max-x"), Some(&Value::Int(4)));
        let b = rows
            .iter()
            .find(|t| t.get_name("g") == Some(&Value::tag("b")))
            .unwrap();
        assert_eq!(b.get_name("count"), Some(&Value::Int(1)));
        assert_eq!(b.get_name("count-x"), Some(&Value::Int(0)));
        assert!(!b.has_name("sum-x"));
    }

    #[test]
    fn integer_sums_wrap_and_mixed_sums_go_float() {
        let mut acc = Acc::new(AggFunc::Sum);
        acc.add_value(&Value::Int(i64::MAX));
        acc.add_value(&Value::Int(1));
        assert_eq!(acc.finish(), Some(Value::Int(i64::MIN)));

        let mut acc = Acc::new(AggFunc::Sum);
        acc.add_value(&Value::Int(2));
        acc.add_value(&Value::Float(0.5));
        assert_eq!(acc.finish(), Some(Value::Float(2.5)));

        // Non-numeric inputs are invisible to SUM.
        let mut acc = Acc::new(AggFunc::Sum);
        acc.add_value(&Value::tag("zed"));
        assert_eq!(acc.finish(), None);
    }

    #[test]
    fn min_max_follow_the_total_order() {
        let mut min = Acc::new(AggFunc::Min);
        let mut max = Acc::new(AggFunc::Max);
        for v in [Value::Int(4), Value::Float(2.5), Value::Int(7)] {
            min.add_value(&v);
            max.add_value(&v);
        }
        assert_eq!(min.finish(), Some(Value::Float(2.5)));
        assert_eq!(max.finish(), Some(Value::Int(7)));
    }
}
