//! Support code for the cross-crate integration suites in `tests/`: the
//! differential oracle [`reference_eval`], the check that a result
//! inhabits the properties the optimizer derives for its plan
//! ([`check_inhabits`]), and the [`partial_key_db`] fixture several suites
//! share.

use std::collections::{BTreeMap, BTreeSet};

use flexrel_core::attrs;
use flexrel_core::scheme::SchemeBuilder;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::{plan_props, AggExpr, AggFunc, LogicalPlan, PlanProps, ShapePredicate};
use flexrel_storage::{Database, RelationDef};

/// A fixture whose join key is only partially defined.  `inner` (indexed on
/// `{a, b}`) and its index-free twin `inner_nx` hold 240 tuples, a third
/// of them without `b` — those sit on the index's partial list — and half
/// without `v`; the four `outer` tuples include one without `b` (a probe
/// the index cannot answer) and one matching nothing.
pub fn partial_key_db() -> Database {
    let db = Database::new();
    let scheme = |extra: &str| {
        SchemeBuilder::all_of(["a"])
            .optional("b")
            .optional(extra)
            .build()
            .unwrap()
    };
    for rel in ["inner", "inner_nx"] {
        db.create_relation(RelationDef::new(rel, scheme("v")))
            .unwrap();
        for i in 0..240i64 {
            let mut t = Tuple::new().with("a", i % 40);
            if i % 3 != 0 {
                t.insert("b", (i / 40) % 3);
            }
            if (i / 40) % 2 == 0 {
                t.insert("v", i);
            }
            db.insert(rel, t).unwrap();
        }
    }
    db.create_index("inner", attrs!["a", "b"]).unwrap();
    db.create_relation(RelationDef::new("outer", scheme("w")))
        .unwrap();
    for t in [
        Tuple::new().with("a", 1).with("b", 1).with("w", 10),
        Tuple::new().with("a", 2).with("b", 2),
        Tuple::new().with("a", 3).with("w", 30),
        Tuple::new().with("a", 999).with("b", 0),
    ] {
        db.insert("outer", t).unwrap();
    }
    db
}

/// Evaluates `plan` by the operators' definitions (§4 of the paper,
/// `flexrel-algebra`): every relation is read whole through
/// [`Database::scan`], every operator is the textbook loop over
/// materialized tuples.  It shares no code with the executor — no
/// snapshots, indexes, chunks, column kernels or cost decisions — so it is
/// the specification the pipeline is checked against.  Returns the result
/// multiset in unspecified order; panics on an unknown relation.
pub fn reference_eval(plan: &LogicalPlan, db: &Database) -> Vec<Tuple> {
    let stored = |relation: &str, shape: &Option<ShapePredicate>| -> Vec<Tuple> {
        let rows = db.scan(relation).expect("relation exists");
        rows.into_iter()
            .map(|(_, t)| t)
            .filter(|t| shape.as_ref().is_none_or(|s| s.admits(t.shape())))
            .collect()
    };
    let dedup = |rows: Vec<Tuple>| -> Vec<Tuple> {
        rows.into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    };
    match plan {
        LogicalPlan::Empty => Vec::new(),
        LogicalPlan::Scan {
            relation,
            qualification,
            shape,
        } => stored(relation, shape)
            .into_iter()
            .filter(|t| qualification.as_ref().is_none_or(|q| q.eval(t)))
            .collect(),
        LogicalPlan::IndexLookup {
            relation,
            key,
            key_value,
            shapes,
        } => stored(relation, shapes)
            .into_iter()
            .filter(|t| t.defined_on(key) && t.project(key) == *key_value)
            .collect(),
        LogicalPlan::Filter { input, predicate } => reference_eval(input, db)
            .into_iter()
            .filter(|t| predicate.eval(t))
            .collect(),
        LogicalPlan::Guard { input, attrs } => reference_eval(input, db)
            .into_iter()
            .filter(|t| t.defined_on(attrs))
            .collect(),
        LogicalPlan::Project { input, attrs } => dedup(
            reference_eval(input, db)
                .iter()
                .map(|t| t.project(attrs))
                .collect(),
        ),
        LogicalPlan::UnionAll { inputs } => {
            dedup(inputs.iter().flat_map(|p| reference_eval(p, db)).collect())
        }
        LogicalPlan::Extend { input, attr, value } => reference_eval(input, db)
            .into_iter()
            .map(|mut t| {
                t.insert(attr.as_str(), value.clone());
                t
            })
            .collect(),
        LogicalPlan::Join { left, right, .. } => {
            let right = reference_eval(right, db);
            let mut out = Vec::new();
            for l in reference_eval(left, db) {
                for r in right.iter().filter(|r| l.joinable_with(r)) {
                    out.push(l.merged_with(r));
                }
            }
            out
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // Grouping is a type guard: only tuples defined on every
            // grouping attribute belong to a group.
            let mut groups: BTreeMap<Tuple, Vec<Tuple>> = BTreeMap::new();
            for t in reference_eval(input, db) {
                if t.defined_on(group_by) {
                    groups.entry(t.project(group_by)).or_default().push(t);
                }
            }
            if group_by.is_empty() {
                // The global aggregate emits its row even over no input.
                groups.entry(Tuple::empty()).or_default();
            }
            groups
                .into_iter()
                .map(|(mut out, members)| {
                    for agg in aggs {
                        if let Some(v) = fold_aggregate(agg, &members) {
                            out.insert(agg.output.clone(), v);
                        }
                    }
                    out
                })
                .collect()
        }
    }
}

/// Whether `rows` inhabit `props`: every tuple carries at least `present`
/// and at most `universe`, agrees with `pinned`, and is a stored tuple of
/// the `source` relation (or, for a restricted source, a restriction of
/// one, without duplicates); and the rows together satisfy `deps`.  The
/// first claim that fails is the error.
pub fn check_inhabits(props: &PlanProps<'_>, rows: &[Tuple], db: &Database) -> Result<(), String> {
    for t in rows {
        if !props.present.is_subset(t.shape()) {
            return Err(format!("{t} lacks part of present = {}", props.present));
        }
        if !t.shape().is_subset(&props.universe) {
            return Err(format!("{t} exceeds universe = {}", props.universe));
        }
        if let Some((a, v)) = props.pinned.iter().find(|(a, v)| t.get(a) != Some(v)) {
            return Err(format!("{t} is not pinned to {a} = {v}"));
        }
    }
    if let Some(source) = props.source {
        let stored: BTreeSet<Tuple> = db
            .scan(source.relation)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let from_store = |t: &Tuple| match source.whole {
            true => stored.contains(t),
            false => stored.iter().any(|s| s.project(t.shape()) == *t),
        };
        if let Some(t) = rows.iter().find(|t| !from_store(t)) {
            return Err(format!("{t} does not come from {}", source.relation));
        }
        if !source.whole && rows.iter().collect::<BTreeSet<_>>().len() != rows.len() {
            return Err(format!(
                "duplicates among restrictions of {}",
                source.relation
            ));
        }
    }
    match props.deps.first_violation(rows) {
        Some(dep) => Err(format!("the rows violate {dep}")),
        None => Ok(()),
    }
}

/// Asserts that `rows` — what executing `plan` against `db` returned —
/// inhabit [`plan_props`] of `plan`.
pub fn assert_inhabits_props(plan: &LogicalPlan, db: &Database, rows: &[Tuple]) {
    let catalog = db.catalog();
    let props = plan_props(plan, &catalog).expect("the plan's relations exist");
    if let Err(why) = check_inhabits(&props, rows, db) {
        panic!("execution left the derived properties: {why}\n{props:#?}\nplan:\n{plan}");
    }
}

/// One aggregate over one group's tuples, by the rules in
/// `flexrel_query::agg`: only tuples defined on the input attribute count;
/// integer sums wrap and float contributions add up in input order, apart
/// from the integers; `MIN`/`MAX` keep the first value seen among ties of
/// the total order; a `SUM`/`MIN`/`MAX` without input has no value.
fn fold_aggregate(agg: &AggExpr, members: &[Tuple]) -> Option<Value> {
    let Some(attr) = &agg.input else {
        return Some(Value::Int(members.len() as i64));
    };
    let inputs = members.iter().filter_map(|t| t.get(attr));
    match agg.func {
        AggFunc::Count => Some(Value::Int(inputs.count() as i64)),
        AggFunc::Min => inputs.reduce(|m, v| if v < m { v } else { m }).cloned(),
        AggFunc::Max => inputs.reduce(|m, v| if v > m { v } else { m }).cloned(),
        AggFunc::Sum => {
            let (mut int, mut float, mut floats, mut any) = (0i64, 0f64, false, false);
            for v in inputs {
                match v {
                    Value::Int(i) => int = int.wrapping_add(*i),
                    Value::Float(f) => {
                        float += *f;
                        floats = true;
                    }
                    _ => continue,
                }
                any = true;
            }
            match (any, floats) {
                (false, _) => None,
                (true, false) => Some(Value::Int(int)),
                (true, true) => Some(Value::Float(int as f64 + float)),
            }
        }
    }
}

/// The oracle checked against hand-computed results on a seven-tuple
/// database.
#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_algebra::predicate::Predicate;
    use flexrel_core::attr::AttrSet;
    use flexrel_core::scheme::SchemeBuilder;
    use flexrel_core::{attrs, tuple};
    use flexrel_storage::RelationDef;

    fn db() -> Database {
        let db = Database::new();
        let scheme = |opt: [&str; 2]| {
            let b = SchemeBuilder::all_of(["k"]).optional(opt[0]);
            b.optional(opt[1]).build().unwrap()
        };
        db.create_relation(RelationDef::new("r", scheme(["x", "g"])))
            .unwrap();
        db.create_relation(RelationDef::new("s", scheme(["y", "x"])))
            .unwrap();
        for t in [
            tuple! {"k" => 1, "x" => 10, "g" => "a"},
            tuple! {"k" => 2, "x" => 20, "g" => "a"},
            tuple! {"k" => 3, "g" => "b"},
            tuple! {"k" => 4, "x" => 5},
        ] {
            db.insert("r", t).unwrap();
        }
        for t in [
            tuple! {"k" => 1, "y" => 7},
            tuple! {"k" => 1, "y" => 8},
            tuple! {"k" => 9, "y" => 0},
        ] {
            db.insert("s", t).unwrap();
        }
        db
    }

    fn eval(plan: LogicalPlan) -> Vec<Tuple> {
        let mut rows = reference_eval(&plan, &db());
        rows.sort();
        rows
    }

    #[test]
    fn selections_guards_and_lookups_by_definition() {
        let r = || LogicalPlan::scan("r");
        // A comparison on a missing attribute is false: k=3 drops out.
        let rows = eval(r().filter(Predicate::ge("x", 10)));
        assert_eq!(rows.len(), 2);
        assert_eq!(eval(r().guard(attrs!["x", "g"])), rows);
        let lookup = LogicalPlan::IndexLookup {
            relation: "r".into(),
            key: attrs!["g"],
            key_value: tuple! {"g" => "a"},
            shapes: Some(ShapePredicate {
                required: attrs!["x"],
                regions: vec![(attrs!["g"], attrs!["g"])],
            }),
        };
        assert_eq!(eval(lookup), rows);
    }

    #[test]
    fn joins_projections_unions_and_extends_by_definition() {
        let (r, s) = (|| LogicalPlan::scan("r"), || LogicalPlan::scan("s"));
        assert_eq!(
            eval(r().join(s())),
            vec![
                tuple! {"k" => 1, "x" => 10, "g" => "a", "y" => 7},
                tuple! {"k" => 1, "x" => 10, "g" => "a", "y" => 8},
            ]
        );
        // Disjoint attribute sets: the join is the cross product.
        let cross = r().project(attrs!["g"]).join(s().project(attrs!["y"]));
        assert_eq!(eval(cross).len(), 3 * 3, "{{a}}, {{b}} and the empty tuple");
        assert_eq!(
            eval(s().project(attrs!["k"])),
            vec![tuple! {"k" => 1}, tuple! {"k" => 9}]
        );
        let union = LogicalPlan::UnionAll {
            inputs: vec![r(), r().filter(Predicate::lt("k", 3)), s()],
        };
        assert_eq!(eval(union).len(), 4 + 3);
        let extended = LogicalPlan::Extend {
            input: Box::new(s().project(attrs!["k"])),
            attr: "k".into(),
            value: Value::Int(0),
        };
        assert_eq!(eval(extended), vec![tuple! {"k" => 0}, tuple! {"k" => 0}]);
    }

    #[test]
    fn aggregates_by_definition() {
        let aggs = vec![
            AggExpr::new(AggFunc::Count, None),
            AggExpr::new(AggFunc::Sum, Some("x".into())),
            AggExpr::new(AggFunc::Max, Some("k".into())),
        ];
        // Grouping guards on `g`; group b has no `x`, so no `sum-x`.
        assert_eq!(
            eval(LogicalPlan::scan("r").aggregate(attrs!["g"], aggs.clone())),
            vec![
                tuple! {"g" => "b", "count" => 1, "max-k" => 3},
                tuple! {"g" => "a", "count" => 2, "sum-x" => 30, "max-k" => 2},
            ]
        );
        assert_eq!(
            eval(LogicalPlan::Empty.aggregate(AttrSet::empty(), aggs.clone())),
            vec![tuple! {"count" => 0}]
        );
        assert!(eval(LogicalPlan::Empty.aggregate(attrs!["g"], aggs)).is_empty());
    }
}
