//! Execution inhabits the derived properties: whatever `plan_props` says
//! holds of a plan's output — attribute bounds, pinned values, the
//! dependencies Theorem 4.3 lets through, the stored relation the rows come
//! from — holds of the rows `execute` returns, for generated plans (naive
//! and optimized, each also equal to `reference_eval`) over a fixture
//! without dependencies (`partial_key_db`) and one with them (`employee`
//! beside `perks`).  One negative control per operator row plants the
//! mistake that row could make and requires the check to catch it: the
//! reason to trust one table is that it is the one thing tested.

use std::borrow::Cow;

use proptest::prelude::*;

use flexrel_algebra::predicate::Predicate;
use flexrel_core::attr::AttrSet;
use flexrel_core::attrs;
use flexrel_core::scheme::FlexScheme;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::prelude::*;
use flexrel_query::{plan_props, PlanProps};
use flexrel_storage::{Database, RelationDef};
use flexrel_tests::{assert_inhabits_props, check_inhabits, partial_key_db, reference_eval};
use flexrel_workload::{employee_relation, generate_employees, EmployeeConfig};

/// `employee` (24 tuples, the jobtype AD and the key FD) beside
/// `perks(empno, sales-commission)`.
fn employee_perks_db() -> Database {
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&employee_relation()))
        .unwrap();
    for t in generate_employees(&EmployeeConfig::clean(24)) {
        db.insert("employee", t).unwrap();
    }
    db.create_relation(RelationDef::new(
        "perks",
        FlexScheme::relational(attrs!["empno", "sales-commission"]),
    ))
    .unwrap();
    for empno in (0..24i64).step_by(2) {
        db.insert(
            "perks",
            Tuple::new()
                .with("empno", empno)
                .with("sales-commission", empno % 5),
        )
        .unwrap();
    }
    db
}

/// What the generator draws from: relations, attributes with a constant
/// each that some tuple carries, and an integer attribute to aggregate.
struct Vocabulary {
    relations: &'static [&'static str],
    atoms: Vec<(&'static str, Value)>,
    summed: &'static str,
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[(rng.next_u64() % items.len() as u64) as usize]
}

fn gen_predicate(rng: &mut TestRng, v: &Vocabulary, depth: u32) -> Predicate {
    let (attr, value) = pick(rng, &v.atoms).clone();
    match rng.next_u64() % if depth == 0 { 4 } else { 7 } {
        0 | 1 => Predicate::eq(attr, value),
        2 => Predicate::ge(attr, value),
        3 => Predicate::present(AttrSet::singleton(attr)),
        4 => gen_predicate(rng, v, depth - 1).and(gen_predicate(rng, v, depth - 1)),
        5 => gen_predicate(rng, v, depth - 1).or(gen_predicate(rng, v, depth - 1)),
        _ => gen_predicate(rng, v, depth - 1).negate(),
    }
}

fn gen_attrs(rng: &mut TestRng, v: &Vocabulary, at_most: usize) -> AttrSet {
    let n = 1 + (rng.next_u64() as usize % at_most);
    AttrSet::from_names((0..n).map(|_| pick(rng, &v.atoms).0))
}

/// A random plan of at most `depth` operators above its deepest leaf and at
/// most `joins` joins (which keeps the reference evaluation small).
fn gen_plan(rng: &mut TestRng, v: &Vocabulary, depth: u32, joins: &mut u32) -> LogicalPlan {
    if depth == 0 {
        let relation = *pick(rng, v.relations);
        return match rng.next_u64() % 3 {
            0 => LogicalPlan::qualified_scan(relation, gen_predicate(rng, v, 0)),
            _ => LogicalPlan::scan(relation),
        };
    }
    let input = |rng: &mut TestRng, joins: &mut u32| gen_plan(rng, v, depth - 1, joins);
    match rng.next_u64() % 10 {
        0..=2 => input(rng, joins).filter(gen_predicate(rng, v, 1)),
        3 => input(rng, joins).guard(gen_attrs(rng, v, 1)),
        4 => input(rng, joins).project(gen_attrs(rng, v, 4)),
        5 => LogicalPlan::Extend {
            input: Box::new(input(rng, joins)),
            // A new attribute, or one the input may already carry.
            attr: (*pick(rng, &["tag", v.atoms[0].0])).into(),
            value: v.atoms[0].1.clone(),
        },
        6 | 7 if *joins > 0 => {
            *joins -= 1;
            input(rng, joins).join(input(rng, joins))
        }
        8 => LogicalPlan::UnionAll {
            inputs: vec![input(rng, joins), input(rng, joins)],
        },
        9 => {
            let group_by = match rng.next_u64() % 3 {
                0 => AttrSet::empty(),
                _ => gen_attrs(rng, v, 1),
            };
            let aggs = vec![
                AggExpr::new(AggFunc::Count, None),
                AggExpr::new(AggFunc::Sum, Some(v.summed.into())),
            ];
            input(rng, joins).aggregate(group_by, aggs)
        }
        _ => input(rng, joins),
    }
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// `plan` and its optimized form both return the reference rows of `plan`,
/// and both results inhabit the properties derived for the plan they came
/// from.
fn plan_is_inhabited(db: &Database, plan: &LogicalPlan) {
    let expect = sorted(reference_eval(plan, db));
    let (optimized, _) = optimize_with_db(plan.clone(), db);
    for p in [plan, &optimized] {
        let rows = sorted(execute_collect(p, db, &ExecOptions::serial()).unwrap().0);
        assert_eq!(rows, expect, "naive:\n{plan}optimized:\n{optimized}");
        assert_inhabits_props(p, db, &rows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_plans_inhabit_their_properties(seed in 0u64..1_000_000) {
        let mut rng = TestRng::new(seed);
        let partial = Vocabulary {
            relations: &["inner", "outer", "inner_nx"],
            atoms: vec![
                ("a", Value::Int(3)),
                ("b", Value::Int(1)),
                ("v", Value::Int(80)),
                ("w", Value::Int(10)),
            ],
            summed: "a",
        };
        let employee = Vocabulary {
            relations: &["employee", "employee", "perks"],
            atoms: vec![
                ("jobtype", Value::tag("secretary")),
                ("jobtype", Value::tag("salesman")),
                ("empno", Value::Int(4)),
                ("salary", Value::Float(3000.0)),
                ("typing-speed", Value::Int(100)),
                ("sales-commission", Value::Int(2)),
                ("products", Value::str("crm")),
            ],
            summed: "empno",
        };
        for (db, vocabulary) in [(partial_key_db(), partial), (employee_perks_db(), employee)] {
            for _ in 0..4 {
                let plan = gen_plan(&mut rng, &vocabulary, 3, &mut 2);
                plan_is_inhabited(&db, &plan);
            }
        }
    }
}

/// The properties of `plan` and the rows it returns, which inhabit them.
fn inhabited<'a>(
    plan: &LogicalPlan,
    db: &Database,
    catalog: &'a flexrel_storage::Catalog,
) -> (PlanProps<'a>, Vec<Tuple>) {
    let props = plan_props(plan, catalog).unwrap();
    let rows = execute_collect(plan, db, &ExecOptions::serial()).unwrap().0;
    assert!(!rows.is_empty(), "a control needs rows:\n{plan}");
    assert_eq!(check_inhabits(&props, &rows, db), Ok(()), "{plan}");
    (props, rows)
}

/// One planted mistake per row of the operator table; each must fail the
/// check, on rows that inhabit the properties as derived.
#[test]
fn each_operator_row_has_a_mistake_the_check_catches() {
    let db = employee_perks_db();
    let catalog = db.catalog();
    let secretary = || Predicate::eq("jobtype", Value::tag("secretary"));
    let employee = || LogicalPlan::scan("employee");
    let caught = |what: &str, props: &PlanProps<'_>, rows: &[Tuple]| {
        assert!(check_inhabits(props, rows, &db).is_err(), "{what}");
    };

    // Scan: an optional attribute taken for a mandatory one.
    let (mut props, rows) = inhabited(&employee(), &db, &catalog);
    props.present.insert("typing-speed");
    caught(
        "Scan: present beyond the mandatory attributes",
        &props,
        &rows,
    );

    // IndexLookup: the universe narrowed to the probed key.
    let lookup = LogicalPlan::IndexLookup {
        relation: "employee".into(),
        key: attrs!["empno"],
        key_value: Tuple::new().with("empno", 4),
        shapes: None,
    };
    let (mut props, rows) = inhabited(&lookup, &db, &catalog);
    props.universe = attrs!["empno"];
    caught("IndexLookup: universe = key", &props, &rows);

    // Filter: an equality inside a disjunction taken for a pinned value.
    let either = secretary().or(Predicate::gt("salary", 0));
    let (mut props, rows) = inhabited(&employee().filter(either), &db, &catalog);
    props.pinned.insert("jobtype", Value::tag("secretary"));
    caught("Filter: pinned from one disjunct", &props, &rows);

    // Guard: the guarded attributes pinned, not merely present.
    let guarded = employee().guard(attrs!["typing-speed"]);
    let (mut props, rows) = inhabited(&guarded, &db, &catalog);
    props.pinned.insert("typing-speed", Value::Int(0));
    caught(
        "Guard: a value claimed for a guarded attribute",
        &props,
        &rows,
    );

    // Project: a dependency kept although its determinant was projected
    // away (rule 2) — the jobtype AD over tuples that no longer say what
    // the jobtype is.
    let projected = employee().project(attrs!["salary", "typing-speed"]);
    let (mut props, rows) = inhabited(&projected, &db, &catalog);
    props.deps = Cow::Borrowed(&catalog.get("employee").unwrap().deps);
    caught(
        "Project: the input's dependencies kept whole",
        &props,
        &rows,
    );

    // Extend: the rows still taken for stored tuples.
    let extended = LogicalPlan::Extend {
        input: Box::new(employee()),
        attr: "tag".into(),
        value: Value::Int(1),
    };
    let stored = plan_props(&employee(), &catalog).unwrap().source;
    let (mut props, rows) = inhabited(&extended, &db, &catalog);
    props.source = stored;
    caught("Extend: source kept", &props, &rows);

    // Join: the plain union of both operands' dependencies — a secretary
    // with the sales-commission `perks` supplies.
    let joined = employee().join(LogicalPlan::scan("perks"));
    let (mut props, rows) = inhabited(&joined, &db, &catalog);
    props.deps = Cow::Borrowed(&catalog.get("employee").unwrap().deps);
    caught("Join: dependencies unioned", &props, &rows);

    // UnionAll: present as the union over the branches, not what all share.
    let union = LogicalPlan::UnionAll {
        inputs: vec![employee(), LogicalPlan::scan("perks")],
    };
    let (mut props, rows) = inhabited(&union, &db, &catalog);
    props.present = attrs!["empno", "sales-commission"];
    caught("UnionAll: present = ∪", &props, &rows);

    // Aggregate: the input's universe, without the aggregate outputs.
    let counted = employee().aggregate(attrs!["jobtype"], vec![AggExpr::new(AggFunc::Count, None)]);
    let (mut props, rows) = inhabited(&counted, &db, &catalog);
    props.universe = attrs!["jobtype"];
    caught("Aggregate: universe without the outputs", &props, &rows);
}
