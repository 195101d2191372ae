//! Semantic rewrites, end to end: the optimizer-v2 pipeline (dependency-
//! derived rewrites plus the statistics-backed cost pass) never changes
//! query results — naive and rewritten plans are both checked against
//! `flexrel_tests::reference_eval` — fires exactly when the
//! declared dependencies justify it (removing the FD must disable join
//! elimination), and produces the expected plan shapes on the E17
//! catalogue.  Selection pushdown through the natural join gets the same
//! treatment on a fixture with partially defined attributes: what may move
//! moves, the negative controls keep their filter above the join, and
//! every plan equals the reference.  The rewrites that returned wrong rows
//! while each rule derived its own facts — a dependency carried through a
//! join, a union or a projection that does not preserve it — are pinned
//! here as differential cases with their positive controls.  Every plan
//! executed in this suite is also checked to inhabit the properties
//! `plan_props` derives for it.

use proptest::prelude::*;

use flexrel_algebra::predicate::Predicate;
use flexrel_core::attr::AttrSet;
use flexrel_core::attrs;
use flexrel_core::scheme::{FlexScheme, SchemeBuilder};
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::prelude::*;
use flexrel_storage::{Database, RelationDef};
use flexrel_tests::{assert_inhabits_props, partial_key_db, reference_eval};
use flexrel_workload::{
    employee_relation, generate_employees, generate_wide, wide_relation, EmployeeConfig, WideConfig,
};

fn employee_db(n: usize, seed: u64) -> Database {
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&employee_relation()))
        .unwrap();
    for t in generate_employees(&EmployeeConfig {
        n,
        violation_rate: 0.0,
        seed,
    }) {
        db.insert("employee", t).unwrap();
    }
    db
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// The catalogue of plans E17 measures, each labelled with the rewrite it
/// must trigger on the `employee` relation.
fn catalogue() -> Vec<(&'static str, LogicalPlan)> {
    vec![
        (
            // empno → name, both mandatory: the bare fetch side is redundant.
            "join-elimination",
            LogicalPlan::scan("employee")
                .filter(Predicate::gt("salary", 5000))
                .project(attrs!["empno"])
                .join(LogicalPlan::scan("employee").project(attrs!["empno", "name"])),
        ),
        (
            // empno → name: every group is a singleton, COUNT(*) is 1.
            "groupby-elimination",
            LogicalPlan::scan("employee")
                .project(attrs!["empno", "name"])
                .aggregate(
                    AttrSet::singleton("empno"),
                    vec![AggExpr::new(AggFunc::Count, None)],
                ),
        ),
        (
            // name and salary sit in every DNF disjunct: the guard is vacuous.
            "guard-elimination",
            LogicalPlan::scan("employee").guard(attrs!["name", "salary"]),
        ),
        (
            // jobtype = secretary pins the EAD variant; sales-commission is
            // outside it, so its atom folds to false inside the disjunction.
            "ead-predicate-simplification",
            LogicalPlan::scan("employee")
                .filter(Predicate::eq_tag("jobtype", "secretary").and(
                    Predicate::gt("typing-speed", 0).or(Predicate::gt("sales-commission", 0)),
                )),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Optimized-v2 plans return exactly the naive plan's rows, which are
    /// the reference evaluator's rows, for every catalogue entry — executed
    /// and evaluated by definition — and each entry triggers its advertised
    /// rewrite.
    #[test]
    fn rewritten_plans_agree_with_naive_and_the_reference(seed in 0u64..500, n in 40usize..200) {
        let db = employee_db(n, seed);
        for (rule, naive) in catalogue() {
            let (_, rules) = optimized_equals_reference(&db, &naive);
            prop_assert!(rules.contains(&rule), "{} did not fire on {}", rule, naive);
        }
    }

    /// The cost pass may reorder a multi-way join any way it likes; the
    /// result multiset must not move.
    #[test]
    fn reordered_joins_agree_with_naive(seed in 0u64..500, links in 1usize..20) {
        let db = three_way_db(200, links, seed);
        let naive = LogicalPlan::scan("wide")
            .join(LogicalPlan::scan("employee"))
            .join(LogicalPlan::scan("assignment"));
        let (_, rules) = optimized_equals_reference(&db, &naive);
        prop_assert!(rules.contains(&"join-ordering"));
        prop_assert_eq!(reference_eval(&naive, &db).len(), links);
    }
}

/// The E17 fixture: small `assignment` bridging two larger relations that
/// share no attribute with each other.
fn three_way_db(n: usize, links: usize, seed: u64) -> Database {
    let wide_n = n / 2;
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&wide_relation(4)))
        .unwrap();
    for t in generate_wide(&WideConfig::new(wide_n, 4)) {
        db.insert("wide", t).unwrap();
    }
    db.create_relation(RelationDef::from_relation(&employee_relation()))
        .unwrap();
    for t in generate_employees(&EmployeeConfig {
        n,
        violation_rate: 0.0,
        seed,
    }) {
        db.insert("employee", t).unwrap();
    }
    db.create_relation(RelationDef::new(
        "assignment",
        FlexScheme::relational(attrs!["id", "empno"]),
    ))
    .unwrap();
    for k in 0..links {
        db.insert(
            "assignment",
            Tuple::new()
                .with("id", (k * (wide_n / links)) as i64)
                .with("empno", (k * (n / links)) as i64),
        )
        .unwrap();
    }
    db
}

/// Removing the FD removes the justification: on a dependency-free copy of
/// the employee scheme the very same plans must survive un-rewritten.
#[test]
fn without_the_fd_join_and_groupby_elimination_must_not_fire() {
    let db = Database::new();
    db.create_relation(RelationDef::new(
        "freeform",
        employee_relation().scheme().clone(),
    ))
    .unwrap();
    for t in generate_employees(&EmployeeConfig::clean(100)) {
        db.insert("freeform", t).unwrap();
    }

    let join = LogicalPlan::scan("freeform")
        .filter(Predicate::gt("salary", 5000))
        .project(attrs!["empno"])
        .join(LogicalPlan::scan("freeform").project(attrs!["empno", "name"]));
    let (optimized, notes) = optimize_with_db(join.clone(), &db);
    assert!(
        !notes.iter().any(|x| x.rule == "join-elimination"),
        "join elimination fired without the FD empno → name"
    );
    assert_eq!(optimized.join_count(), 1, "the join must survive");
    // Still the same rows, of course.
    assert_eq!(
        sorted(
            execute_collect(&join, &db, &ExecOptions::serial())
                .unwrap()
                .0
        ),
        sorted(
            execute_collect(&optimized, &db, &ExecOptions::serial())
                .unwrap()
                .0
        )
    );

    let agg = LogicalPlan::scan("freeform")
        .project(attrs!["empno", "name"])
        .aggregate(
            AttrSet::singleton("empno"),
            vec![AggExpr::new(AggFunc::Count, None)],
        );
    let (optimized, notes) = optimize_with_db(agg.clone(), &db);
    assert!(
        !notes.iter().any(|x| x.rule == "groupby-elimination"),
        "group-by elimination fired without the FD"
    );
    assert!(
        matches!(optimized, LogicalPlan::Aggregate { .. }),
        "the aggregate must survive: {}",
        optimized
    );
}

/// Plan snapshots for the E17 catalogue: the rewrites do not just fire,
/// they produce exactly the expected plan shapes.
#[test]
fn e17_catalogue_plan_snapshots() {
    let db = employee_db(120, 7);

    // Join elimination: the fetch side folds into a widened projection
    // over the probe's input.
    let (plan, _) = optimize_with_db(catalogue().remove(0).1, &db);
    assert_eq!(
        plan.to_string(),
        "Project {empno, name}\n  Filter salary > 5000\n    Scan employee [partitions: shape ⊇ {salary}]\n"
    );

    // Group-by elimination: singleton groups become a projection plus the
    // constant COUNT(*) column.
    let (plan, _) = optimize_with_db(catalogue().remove(1).1, &db);
    assert_eq!(
        plan.to_string(),
        "Extend count := 1\n  Project {empno}\n    Scan employee\n"
    );

    // Vacuous guard: gone without residue.
    let (plan, _) = optimize_with_db(catalogue().remove(2).1, &db);
    assert_eq!(plan.guard_count(), 0);
    assert_eq!(plan.to_string(), "Scan employee\n");

    // EAD simplification: the impossible disjunct disappears from the
    // predicate.  (The equality no longer takes the jobtype index: three
    // keys over 120 tuples is a chain as long as the partition the scan is
    // already pruned to, and the costed access-path pass keeps the scan.)
    let (plan, _) = optimize_with_db(catalogue().remove(3).1, &db);
    let rendered = plan.to_string();
    assert!(
        rendered
            .starts_with("Filter (jobtype = 'secretary' AND typing-speed > 0)\n  Scan employee")
            && !rendered.contains("sales-commission > 0"),
        "the absent-attribute atom must be folded away:\n{}",
        rendered
    );
    assert_eq!(plan.pruned_scan_count(), 1);

    // Cost-based ordering: the tiny bridge first, each large relation
    // joined after it.
    let db = three_way_db(300, 10, 7);
    let naive = LogicalPlan::scan("wide")
        .join(LogicalPlan::scan("employee"))
        .join(LogicalPlan::scan("assignment"));
    let (plan, _) = optimize_with_db(naive, &db);
    let rendered = plan.to_string();
    let pos = |rel: &str| {
        rendered
            .find(&format!("Scan {}", rel))
            .unwrap_or_else(|| panic!("{} missing from:\n{}", rel, rendered))
    };
    assert!(
        pos("assignment") < pos("wide") && pos("wide") < pos("employee"),
        "expected assignment ⋈ wide ⋈ employee, got:\n{}",
        rendered
    );
}

/// `partial_key_db` plus `strict`, where the shared attribute `b` is
/// mandatory: `inner` and `outer` carry `a` always and `b` sometimes, `v`
/// exists only in `inner`, `w` only in `outer`, `s` only in `strict`.
fn pushdown_db() -> Database {
    let db = partial_key_db();
    let scheme = SchemeBuilder::all_of(["a", "b"])
        .optional("s")
        .build()
        .unwrap();
    db.create_relation(RelationDef::new("strict", scheme))
        .unwrap();
    for i in 0..12i64 {
        let mut t = Tuple::new().with("a", i % 6).with("b", i % 3);
        if i % 2 == 0 {
            t.insert("s", i);
        }
        db.insert("strict", t).unwrap();
    }
    db
}

/// Optimizes `naive` against `db` and checks the optimized plan — executed,
/// and evaluated by definition — against the reference evaluation of the
/// naive plan, and both plans' rows against the properties derived for them.
/// Returns the optimized plan and the rules that fired.
fn optimized_equals_reference(
    db: &Database,
    naive: &LogicalPlan,
) -> (LogicalPlan, Vec<&'static str>) {
    let (optimized, notes) = optimize_with_db(naive.clone(), db);
    let expect = sorted(reference_eval(naive, db));
    for plan in [naive, &optimized] {
        let rows = sorted(execute_collect(plan, db, &ExecOptions::serial()).unwrap().0);
        assert_eq!(
            expect, rows,
            "a plan diverged from the reference\nnaive:\n{}optimized:\n{}",
            naive, optimized
        );
        assert_inhabits_props(plan, db, &rows);
    }
    assert_eq!(
        expect,
        sorted(reference_eval(&optimized, db)),
        "the rewrite changed the plan's meaning:\n{}",
        optimized
    );
    (optimized, notes.into_iter().map(|n| n.rule).collect())
}

/// [`optimized_equals_reference`], reduced to whether selection pushdown
/// fired.
fn pushed_and_equals_reference(db: &Database, naive: &LogicalPlan) -> (LogicalPlan, bool) {
    let (optimized, rules) = optimized_equals_reference(db, naive);
    (optimized, rules.contains(&"selection-pushdown"))
}

fn filter_sits_on_the_join(plan: &LogicalPlan) -> bool {
    matches!(plan, LogicalPlan::Filter { input, .. } if matches!(**input, LogicalPlan::Join { .. }))
}

/// Conjuncts on an attribute only one operand can carry move to it; one on
/// a shared attribute is copied to the operands where it is mandatory and
/// stays above the join.
#[test]
fn selections_are_pushed_to_the_operand_that_owns_the_attribute() {
    let db = pushdown_db();
    let (inner, outer, strict) = (
        || LogicalPlan::scan("inner"),
        || LogicalPlan::scan("outer"),
        || LogicalPlan::scan("strict"),
    );

    // Left-only attribute: the filter leaves the join for `inner`.
    let (plan, pushed) =
        pushed_and_equals_reference(&db, &inner().join(outer()).filter(Predicate::lt("v", 100)));
    assert!(
        pushed && matches!(plan, LogicalPlan::Join { .. }),
        "{}",
        plan
    );
    assert!(
        plan.to_string()
            .starts_with("Join [index-nested-loop into left]\n  Filter v < 100\n    Scan inner"),
        "{}",
        plan
    );

    // Right-only attribute, beside a conjunct that has to stay.
    let both = Predicate::eq("w", 10).and(Predicate::present(attrs!["b"]));
    let (plan, pushed) = pushed_and_equals_reference(&db, &inner().join(outer()).filter(both));
    assert!(pushed && filter_sits_on_the_join(&plan), "{}", plan);
    let rendered = plan.to_string();
    assert!(
        rendered.starts_with("Filter present({b})\n"),
        "{}",
        rendered
    );
    assert!(
        rendered.contains("Filter w = 10\n      Scan outer"),
        "{}",
        rendered
    );

    // Shared and mandatory on both sides: a copy to each, the original
    // stays.  (`a = 3` is the outer tuple without `b`, which pairs with
    // inner tuples by `a` alone.)
    let (plan, pushed) =
        pushed_and_equals_reference(&db, &inner().join(outer()).filter(Predicate::eq("a", 3)));
    assert!(pushed && filter_sits_on_the_join(&plan), "{}", plan);
    assert_eq!(plan.to_string().matches("a = 3").count(), 3, "{}", plan);

    // Shared, mandatory in `strict` only: one copy, to `strict`.
    let (plan, pushed) =
        pushed_and_equals_reference(&db, &inner().join(strict()).filter(Predicate::eq("b", 1)));
    assert!(pushed && filter_sits_on_the_join(&plan), "{}", plan);
    let rendered = plan.to_string();
    assert!(
        rendered.contains("Filter b = 1\n      Scan strict"),
        "{}",
        rendered
    );
    assert!(
        rendered.contains("\n    Scan inner"),
        "inner is left alone: {}",
        rendered
    );

    // Through a whole join tree: `s` sinks past the outer join to `strict`,
    // `v` to `inner`.
    let three = inner()
        .join(outer())
        .join(strict())
        .filter(Predicate::ge("s", 4).and(Predicate::lt("v", 100)));
    let (plan, pushed) = pushed_and_equals_reference(&db, &three);
    assert!(pushed && !filter_sits_on_the_join(&plan), "{}", plan);

    // Onto an extended operand: `ε` has attribute bounds like any operator,
    // so its own attribute and its input's move to it.
    let extended = LogicalPlan::Extend {
        input: Box::new(outer()),
        attr: "tag".into(),
        value: Value::tag("o"),
    };
    for pred in [
        Predicate::eq("tag", Value::tag("o")),
        Predicate::eq("w", 10),
    ] {
        let naive = extended.clone().join(inner()).filter(pred);
        let (plan, pushed) = pushed_and_equals_reference(&db, &naive);
        assert!(
            pushed
                && matches!(&plan, LogicalPlan::Join { left, .. }
                    if matches!(**left, LogicalPlan::Filter { .. })),
            "{}",
            plan
        );
    }
}

/// The negative controls: a conjunct either operand could satisfy and
/// predicates that are not plain comparisons stay above the join — and
/// still equal the reference.
#[test]
fn selections_either_operand_could_satisfy_are_not_pushed() {
    let db = pushdown_db();
    let join = || LogicalPlan::scan("inner").join(LogicalPlan::scan("outer"));

    // `b` is optional on both sides: the outer tuple (a = 3, w = 30) lacks
    // it and inner tuples with a = 3 supply b = 1.  Pushing `b = 1` to
    // `outer` would lose exactly those rows.
    let naive = join().filter(Predicate::eq("b", 1));
    let (plan, pushed) = pushed_and_equals_reference(&db, &naive);
    assert!(!pushed && filter_sits_on_the_join(&plan), "{}", plan);
    assert!(
        reference_eval(&naive, &db)
            .iter()
            .any(|t| t.get_name("w") == Some(&Value::Int(30))),
        "the control must contain a row whose b comes from the other operand"
    );

    // NOT, OR and PRESENT over attributes of one operand only.
    for pred in [
        Predicate::lt("v", 100).negate(),
        Predicate::lt("v", 100).or(Predicate::eq("w", 10)),
        Predicate::present(attrs!["v"]),
    ] {
        let (plan, pushed) = pushed_and_equals_reference(&db, &join().filter(pred));
        assert!(!pushed && filter_sits_on_the_join(&plan), "{}", plan);
    }
}

/// `eq_tag` helper is not on Predicate — keep the catalogue readable.
trait EqTag {
    fn eq_tag(attr: &str, tag: &str) -> Predicate;
}
impl EqTag for Predicate {
    fn eq_tag(attr: &str, tag: &str) -> Predicate {
        Predicate::eq(attr, Value::tag(tag))
    }
}

/// `employee` next to two relations that meet it where its dependencies do
/// not reach: `perks(empno, sales-commission)` supplies an attribute the
/// jobtype AD rules out for a secretary, and `temps` holds tuples of the
/// employee scheme under no dependency at all — secretaries without a
/// typing speed among them.
fn perks_db() -> Database {
    let db = employee_db(60, 3);
    db.create_relation(RelationDef::new(
        "perks",
        FlexScheme::relational(attrs!["empno", "sales-commission"]),
    ))
    .unwrap();
    for empno in 0..60i64 {
        db.insert(
            "perks",
            Tuple::new()
                .with("empno", empno)
                .with("sales-commission", empno % 7),
        )
        .unwrap();
    }
    db.create_relation(RelationDef::new(
        "temps",
        employee_relation().scheme().clone(),
    ))
    .unwrap();
    for empno in 1000..1010i64 {
        db.insert(
            "temps",
            Tuple::new()
                .with("empno", empno)
                .with("name", format!("temp{empno}"))
                .with("salary", 1000.0)
                .with("jobtype", Value::tag("secretary")),
        )
        .unwrap();
    }
    db
}

fn secretaries(db: &Database) -> usize {
    let secretary = Predicate::eq_tag("jobtype", "secretary");
    reference_eval(&LogicalPlan::scan("employee").filter(secretary), db).len()
}

/// A dependency of one join operand says nothing of an attribute the other
/// operand can supply: a secretary's merged tuple carries the
/// `sales-commission` of `perks`.  Asked as a guard and as a `PRESENT`
/// conjunct, through the statement path, the answer is every secretary —
/// not the empty result `guard-unsatisfiable` used to produce.
#[test]
fn a_guard_on_an_attribute_the_other_join_operand_supplies_is_kept() {
    let db = perks_db();
    for frql in [
        "SELECT * FROM employee JOIN perks WHERE jobtype = 'secretary' GUARD sales-commission",
        "SELECT * FROM employee JOIN perks \
         WHERE jobtype = 'secretary' AND PRESENT(sales-commission)",
    ] {
        let naive = plan_query(&parse(frql).unwrap(), &db.catalog()).unwrap();
        // Every tuple of `perks` carries the attribute, so every merged
        // tuple does: the guard is redundant by that, never unsatisfiable.
        let (optimized, rules) = optimized_equals_reference(&db, &naive);
        assert!(!rules.contains(&"guard-unsatisfiable"), "{frql}: {rules:?}");
        assert_ne!(optimized, LogicalPlan::Empty);
        let StatementOutcome::Rows(rows) =
            run_statement(&db, frql, &ExecOptions::serial()).unwrap()
        else {
            panic!("a query returns rows");
        };
        assert_eq!(sorted(rows), sorted(reference_eval(&naive, &db)), "{frql}");
        assert_eq!(reference_eval(&naive, &db).len(), secretaries(&db));
    }
}

/// The positive controls of the case above: where the guarded attribute is
/// in one operand's universe only, that operand's explicit AD still decides
/// the guard above the join — redundant for the secretary's own variant,
/// unsatisfiable for another's.
#[test]
fn a_guard_only_one_join_operand_can_answer_is_still_decided_by_its_ead() {
    let db = perks_db();
    let plan = |guard: &str| {
        let frql =
            format!("SELECT * FROM employee JOIN perks WHERE jobtype = 'secretary' GUARD {guard}");
        plan_query(&parse(&frql).unwrap(), &db.catalog()).unwrap()
    };
    let (optimized, rules) = optimized_equals_reference(&db, &plan("typing-speed"));
    assert!(rules.contains(&"guard-elimination"), "{rules:?}");
    assert_eq!(optimized.guard_count(), 0);
    let (optimized, rules) = optimized_equals_reference(&db, &plan("products"));
    assert!(rules.contains(&"guard-unsatisfiable"), "{rules:?}");
    assert_eq!(optimized, LogicalPlan::Empty);
    // And directly over the selection, Example 4 itself, with the derivation.
    let example4 = LogicalPlan::scan("employee")
        .filter(Predicate::eq_tag("jobtype", "secretary"))
        .guard(attrs!["typing-speed"]);
    let (optimized, rules) = optimized_equals_reference(&db, &example4);
    assert!(rules.contains(&"guard-elimination") && optimized.guard_count() == 0);
    let (_, notes) = optimize(example4, &db.catalog());
    let note = notes
        .iter()
        .find(|n| n.rule == "guard-elimination")
        .unwrap();
    assert!(note.detail.contains("justified by"), "{}", note.detail);
}

/// No dependency survives a union (rule 4) and a projection keeps only the
/// dependencies whose determinant it keeps (rule 2), restricted to what it
/// keeps: the jobtype AD licenses neither removing the guard above
/// `employee ∪ temps` (the temps lack a typing speed) nor removing it
/// above `π_{empno, jobtype}` (no projected tuple has one).
#[test]
fn a_guard_above_a_union_or_a_projection_is_not_decided_by_the_ad_below() {
    let db = perks_db();
    let secretary = || Predicate::eq_tag("jobtype", "secretary");
    let union = LogicalPlan::UnionAll {
        inputs: vec![LogicalPlan::scan("employee"), LogicalPlan::scan("temps")],
    }
    .filter(secretary())
    .guard(attrs!["typing-speed"]);
    let (_, rules) = optimized_equals_reference(&db, &union);
    assert!(!rules.iter().any(|r| r.starts_with("guard-")), "{rules:?}");
    assert_eq!(reference_eval(&union, &db).len(), secretaries(&db));

    let projected = LogicalPlan::scan("employee")
        .project(attrs!["empno", "jobtype"])
        .filter(secretary())
        .guard(attrs!["typing-speed"]);
    let (_, rules) = optimized_equals_reference(&db, &projected);
    assert!(!rules.contains(&"guard-elimination"), "{rules:?}");
    assert!(reference_eval(&projected, &db).is_empty());
    // The control: the projection that keeps the guarded attribute keeps
    // the AD for it, and the guard goes.
    let kept = LogicalPlan::scan("employee")
        .project(attrs!["empno", "jobtype", "typing-speed"])
        .filter(secretary())
        .guard(attrs!["typing-speed"]);
    let (optimized, rules) = optimized_equals_reference(&db, &kept);
    assert!(rules.contains(&"guard-elimination") && optimized.guard_count() == 0);
}

/// What a selection above a join requires may be supplied by *either*
/// operand, so it says nothing about one operand's tuples: the guard on
/// `outer` below must stay although the disjunction above asks for `b` —
/// `inner` supplies it to the `outer` tuple that lacks it.
#[test]
fn a_selection_above_a_join_does_not_decide_a_guard_inside_an_operand() {
    let db = partial_key_db();
    let needs_b = || Predicate::eq("b", 1).or(Predicate::eq("b", 2));
    let naive = LogicalPlan::scan("outer")
        .guard(attrs!["b"])
        .join(LogicalPlan::scan("inner"))
        .filter(needs_b());
    let (optimized, _) = optimized_equals_reference(&db, &naive);
    assert_eq!(optimized.guard_count(), 1, "{optimized}");
    let unguarded = LogicalPlan::scan("outer")
        .join(LogicalPlan::scan("inner"))
        .filter(needs_b());
    assert!(
        reference_eval(&unguarded, &db).len() > reference_eval(&naive, &db).len(),
        "the control must contain rows only the guard keeps out"
    );
    // At the join node itself the selection still meets what an operand
    // pins: a qualification every merged tuple carries.
    let qualified = LogicalPlan::qualified_scan("outer", Predicate::eq("a", 2))
        .join(LogicalPlan::scan("inner"))
        .filter(Predicate::eq("a", 1));
    let (optimized, rules) = optimized_equals_reference(&db, &qualified);
    assert_eq!(optimized, LogicalPlan::Empty);
    assert!(rules.contains(&"join-pruning") || rules.contains(&"variant-pruning"));
}
