//! Semantic rewrites, end to end: the optimizer-v2 pipeline (dependency-
//! derived rewrites plus the statistics-backed cost pass) never changes
//! query results — naive and rewritten plans are both checked against
//! `flexrel_tests::reference_eval` — fires exactly when the
//! declared dependencies justify it (removing the FD must disable join
//! elimination), and produces the expected plan shapes on the E17
//! catalogue.  Selection pushdown through the natural join gets the same
//! treatment on a fixture with partially defined attributes: what may move
//! moves, the negative controls keep their filter above the join, and
//! every plan equals the reference.

use proptest::prelude::*;

use flexrel_algebra::predicate::Predicate;
use flexrel_core::attr::AttrSet;
use flexrel_core::attrs;
use flexrel_core::scheme::{FlexScheme, SchemeBuilder};
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::prelude::*;
use flexrel_storage::{Database, RelationDef};
use flexrel_tests::{partial_key_db, reference_eval};
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
            let (optimized, notes) = optimize_with_db(naive.clone(), &db);
            prop_assert!(
                notes.iter().any(|x| x.rule == rule),
                "{} did not fire on {}", rule, naive
            );
            let expect = sorted(reference_eval(&naive, &db));
            prop_assert_eq!(
                &expect,
                &sorted(execute(&naive, &db).unwrap()),
                "the naive plan diverged from the reference for {}", rule
            );
            prop_assert_eq!(
                &expect,
                &sorted(execute(&optimized, &db).unwrap()),
                "{} changed results", rule
            );
            prop_assert_eq!(
                &expect,
                &sorted(reference_eval(&optimized, &db)),
                "{} changed the plan's meaning", rule
            );
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
        let (optimized, notes) = optimize_with_db(naive.clone(), &db);
        prop_assert!(notes.iter().any(|x| x.rule == "join-ordering"));
        let expect = sorted(reference_eval(&naive, &db));
        prop_assert_eq!(expect.len(), links);
        prop_assert_eq!(&expect, &sorted(execute(&naive, &db).unwrap()));
        prop_assert_eq!(expect, sorted(execute(&optimized, &db).unwrap()));
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
        sorted(execute(&join, &db).unwrap()),
        sorted(execute(&optimized, &db).unwrap())
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

/// Optimizes `naive` against `db` and checks the optimized plan — executed
/// serially and with every scan forced onto four workers, and evaluated by
/// definition — against the reference evaluation of the naive plan.
/// Returns the optimized plan and whether selection pushdown fired.
fn optimized_equals_reference(db: &Database, naive: &LogicalPlan) -> (LogicalPlan, bool) {
    let (optimized, notes) = optimize_with_db(naive.clone(), db);
    let expect = sorted(reference_eval(naive, db));
    let parallel = ExecOptions::parallel(4).with_min_parallel_rows(1);
    for opts in [ExecOptions::serial(), parallel] {
        assert_eq!(
            expect,
            sorted(execute_with(&optimized, db, &opts).unwrap()),
            "{} threads: optimized plan diverged from the reference\nnaive:\n{}optimized:\n{}",
            opts.threads,
            naive,
            optimized
        );
    }
    assert_eq!(
        expect,
        sorted(reference_eval(&optimized, db)),
        "the rewrite changed the plan's meaning:\n{}",
        optimized
    );
    let pushed = notes.iter().any(|n| n.rule == "selection-pushdown");
    (optimized, pushed)
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
        optimized_equals_reference(&db, &inner().join(outer()).filter(Predicate::lt("v", 100)));
    assert!(
        pushed && matches!(plan, LogicalPlan::Join { .. }),
        "{}",
        plan
    );
    assert!(
        plan.to_string()
            .starts_with("Join\n  Filter v < 100\n    Scan inner"),
        "{}",
        plan
    );

    // Right-only attribute, beside a conjunct that has to stay.
    let both = Predicate::eq("w", 10).and(Predicate::present(attrs!["b"]));
    let (plan, pushed) = optimized_equals_reference(&db, &inner().join(outer()).filter(both));
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
        optimized_equals_reference(&db, &inner().join(outer()).filter(Predicate::eq("a", 3)));
    assert!(pushed && filter_sits_on_the_join(&plan), "{}", plan);
    assert_eq!(plan.to_string().matches("a = 3").count(), 3, "{}", plan);

    // Shared, mandatory in `strict` only: one copy, to `strict`.
    let (plan, pushed) =
        optimized_equals_reference(&db, &inner().join(strict()).filter(Predicate::eq("b", 1)));
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
    let (plan, pushed) = optimized_equals_reference(&db, &three);
    assert!(pushed && !filter_sits_on_the_join(&plan), "{}", plan);
}

/// The negative controls: a conjunct either operand could satisfy, an
/// operand whose attributes no scheme types, and predicates that are not
/// plain comparisons all stay above the join — and still equal the
/// reference.
#[test]
fn selections_either_operand_could_satisfy_are_not_pushed() {
    let db = pushdown_db();
    let join = || LogicalPlan::scan("inner").join(LogicalPlan::scan("outer"));

    // `b` is optional on both sides: the outer tuple (a = 3, w = 30) lacks
    // it and inner tuples with a = 3 supply b = 1.  Pushing `b = 1` to
    // `outer` would lose exactly those rows.
    let naive = join().filter(Predicate::eq("b", 1));
    let (plan, pushed) = optimized_equals_reference(&db, &naive);
    assert!(!pushed && filter_sits_on_the_join(&plan), "{}", plan);
    assert!(
        reference_eval(&naive, &db)
            .iter()
            .any(|t| t.get_name("w") == Some(&Value::Int(30))),
        "the control must contain a row whose b comes from the other operand"
    );

    // An extended attribute (and anything else above an Extend): the
    // operand's attributes are not typed by a scheme.
    let extended = LogicalPlan::Extend {
        input: Box::new(LogicalPlan::scan("outer")),
        attr: "tag".into(),
        value: Value::tag("o"),
    };
    for pred in [
        Predicate::eq("tag", Value::tag("o")),
        Predicate::eq("w", 10),
    ] {
        let naive = extended
            .clone()
            .join(LogicalPlan::scan("inner"))
            .filter(pred);
        let (plan, pushed) = optimized_equals_reference(&db, &naive);
        assert!(!pushed && filter_sits_on_the_join(&plan), "{}", plan);
    }

    // NOT, OR and PRESENT over attributes of one operand only.
    for pred in [
        Predicate::lt("v", 100).negate(),
        Predicate::lt("v", 100).or(Predicate::eq("w", 10)),
        Predicate::present(attrs!["v"]),
    ] {
        let (plan, pushed) = optimized_equals_reference(&db, &join().filter(pred));
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
