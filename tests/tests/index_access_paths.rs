//! Index access paths, end to end: `lookup_eq` through an index agrees with
//! the scan fallback on randomized flexible instances (including tuples not
//! defined on the key), database-aware optimized plans (IndexLookup +
//! index-nested-loop joins) produce exactly the rows of the unoptimized
//! plans, transactional updates on indexed relations roll back cleanly, and
//! the statements of the end-to-end benchmark take the access paths the cost
//! model is meant to give them.

use std::collections::BTreeSet;

use proptest::prelude::*;

use flexrel_bench::experiments::wide_access_path_db;
use flexrel_core::attr::AttrSet;
use flexrel_core::attrs;
use flexrel_core::error::CoreError;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::choose_access_paths;
use flexrel_query::optimizer::Notes;
use flexrel_query::prelude::*;
use flexrel_server::seed_wide;
use flexrel_storage::{Database, RelationDef};
use flexrel_tests::{assert_inhabits_props, reference_eval};
use flexrel_workload::{
    employee_relation, generate_employees, generate_wide, wide_relation, EmployeeConfig, JobType,
    WideConfig,
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

/// The plan with its access paths and join methods chosen against `db`.
fn costed(plan: LogicalPlan, db: &Database) -> LogicalPlan {
    choose_access_paths(plan, db, &mut Notes::rules_only())
}

/// The scan-fallback semantics of an equality lookup, computed by hand.
fn lookup_by_scan(
    db: &Database,
    relation: &str,
    key: &AttrSet,
    key_value: &Tuple,
) -> BTreeSet<Tuple> {
    db.scan(relation)
        .unwrap()
        .into_iter()
        .map(|(_, t)| t)
        .filter(|t| t.defined_on(key) && &t.project(key) == key_value)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// An indexed `lookup_eq` returns exactly the tuples the scan fallback
    /// returns — for the determinant indexes, for a secondary index on a
    /// variant attribute most tuples are *not* defined on, and for an
    /// unindexed key (the fallback itself).
    #[test]
    fn lookup_eq_agrees_with_scan_fallback(seed in 0u64..500, n in 30usize..200, job_idx in 0usize..3) {
        let db = employee_db(n, seed);
        // Secondary index on a variant attribute: salesman/engineer tuples
        // land in the partial list.
        db.create_index("employee", attrs!["typing-speed"]).unwrap();

        // Determinant index probe (jobtype).
        let job = JobType::all()[job_idx];
        let key = attrs!["jobtype"];
        let key_value = Tuple::new().with("jobtype", Value::tag(job.tag()));
        prop_assert!(db.has_index("employee", &key));
        let via_index: BTreeSet<Tuple> = db
            .lookup_eq("employee", &key, &key_value).unwrap()
            .into_iter().map(|(_, t)| t.clone()).collect();
        prop_assert_eq!(via_index, lookup_by_scan(&db, "employee", &key, &key_value));

        // Secondary index probe on the sparse attribute.
        let key = attrs!["typing-speed"];
        let sample = db
            .scan("employee").unwrap().into_iter()
            .find_map(|(_, t)| t.get_name("typing-speed").cloned());
        if let Some(v) = sample {
            let key_value = Tuple::new().with("typing-speed", v);
            let via_index: BTreeSet<Tuple> = db
                .lookup_eq("employee", &key, &key_value).unwrap()
                .into_iter().map(|(_, t)| t.clone()).collect();
            prop_assert!(!via_index.is_empty());
            prop_assert_eq!(via_index, lookup_by_scan(&db, "employee", &key, &key_value));
        }
        // The partial list is exactly the complement of key coverage.
        let (parts, indexes) = db.relation_snapshot("employee").unwrap();
        let index = indexes.iter().find(|idx| idx.key() == &key).unwrap();
        let partial: Vec<Tuple> = index.partial_tuples().iter()
            .filter_map(|rid| parts.get(*rid)).collect();
        let not_defined = db.scan("employee").unwrap().into_iter()
            .filter(|(_, t)| !t.defined_on(&key)).count();
        prop_assert_eq!(partial.len(), not_defined);
        prop_assert!(partial.iter().all(|t| !t.defined_on(&key)));

        // Unindexed key: both sides take the scan path and still agree.
        let key = attrs!["name"];
        let key_value = Tuple::new().with("name", "emp3");
        prop_assert!(!db.has_index("employee", &key));
        let via_scan: BTreeSet<Tuple> = db
            .lookup_eq("employee", &key, &key_value).unwrap()
            .into_iter().map(|(_, t)| t.clone()).collect();
        prop_assert_eq!(via_scan, lookup_by_scan(&db, "employee", &key, &key_value));
    }

    /// Database-aware optimization (index lookups, index-nested-loop joins)
    /// never changes query results — the acceptance differential.
    #[test]
    fn indexed_plans_agree_with_unoptimized_plans(seed in 0u64..500, n in 50usize..250, job_idx in 0usize..3, key in 0i64..250) {
        let db = employee_db(n, seed);
        let job = JobType::all()[job_idx];
        let queries = [
            format!("SELECT * FROM employee WHERE empno = {}", key % n as i64),
            format!("SELECT * FROM employee WHERE jobtype = '{}'", job.tag()),
            format!("SELECT empno, salary FROM employee WHERE jobtype = '{}' AND salary > 4000", job.tag()),
            format!("SELECT * FROM employee WHERE empno = {} AND jobtype = '{}'", key % n as i64, job.tag()),
        ];
        for frql in queries {
            let q = parse(&frql).unwrap();
            let plan = plan_query(&q, &db.catalog()).unwrap();
            let naive_rows = execute_collect(&plan, &db, &ExecOptions::serial()).unwrap().0;
            assert_inhabits_props(&plan, &db, &naive_rows);
            let naive: BTreeSet<Tuple> = naive_rows.into_iter().collect();
            let (indexed, _) = optimize_with_db(plan, &db);
            prop_assert!(indexed.index_lookup_count() <= 1);
            let fast_rows = execute_collect(&indexed, &db, &ExecOptions::serial()).unwrap().0;
            assert_inhabits_props(&indexed, &db, &fast_rows);
            let fast: BTreeSet<Tuple> = fast_rows.into_iter().collect();
            prop_assert_eq!(&naive, &fast, "results diverged for {}", &frql);
        }
    }

    /// Both join strategies produce the same rows on the wide workload, for
    /// uniform and skewed key distributions.
    #[test]
    fn join_strategies_agree(n in 100usize..400, variants in 2usize..6, skew in 0u8..3) {
        // The shared fixture: `wide` (indexed), its dependency-free shadow
        // `wide_nx` (no indexes — always the hash path) and 8 probe keys.
        let db = wide_access_path_db(n, variants, skew as f64, 8);
        let inl_plan = costed(LogicalPlan::scan("ids").join(LogicalPlan::scan("wide")), &db);
        prop_assert!(
            matches!(inl_plan, LogicalPlan::Join { strategy: JoinStrategy::IndexNestedLoopRight, .. }),
            "{}", inl_plan
        );
        let hash_plan = costed(LogicalPlan::scan("ids").join(LogicalPlan::scan("wide_nx")), &db);
        prop_assert!(
            matches!(hash_plan, LogicalPlan::Join { strategy: JoinStrategy::Hash, .. }),
            "{}", hash_plan
        );
        let inl: BTreeSet<Tuple> = execute_collect(&inl_plan, &db, &ExecOptions::serial()).unwrap().0.into_iter().collect();
        let hash: BTreeSet<Tuple> = execute_collect(&hash_plan, &db, &ExecOptions::serial()).unwrap().0.into_iter().collect();
        prop_assert_eq!(inl, hash);
    }

    /// A transaction mixing inserts, updates (shape-changing and not) and
    /// deletes on an indexed relation aborts back to exactly the initial
    /// partition catalog, tuple set and index statistics.
    #[test]
    fn mixed_transaction_abort_restores_indexed_relation(seed in 0u64..500, n in 20usize..80) {
        let db = employee_db(n, seed);
        db.create_index("employee", attrs!["name"]).unwrap();
        let parts_before = db.partitions("employee").unwrap();
        let tuples_before: BTreeSet<Tuple> =
            db.scan("employee").unwrap().into_iter().map(|(_, t)| t).collect();
        let indexes_before = db.indexes("employee").unwrap();

        let aborted = db.transact(&["employee"], |tx| {
            // Insert a fresh secretary.
            let new_rid = tx.insert("employee", Tuple::new()
                .with("empno", 90_001)
                .with("name", "txn-sec")
                .with("salary", 4321.0)
                .with("jobtype", Value::tag("secretary"))
                .with("typing-speed", 250)
                .with("foreign-languages", "italian"))?;
            // Shape-changing update of that tuple (secretary → salesman).
            let moved = Tuple::new()
                .with("empno", 90_001)
                .with("name", "txn-sec")
                .with("salary", 4321.0)
                .with("jobtype", Value::tag("salesman"))
                .with("products", "crm")
                .with("sales-commission", 3);
            let (moved_rid, _) = tx.update("employee", new_rid, moved)?;
            // In-place (same-shape) update of an existing tuple.
            let (rid, t) = tx.scan("employee")?.into_iter()
                .find(|(_, t)| t.get_name("empno") != Some(&Value::Int(90_001)))
                .unwrap();
            let mut bumped = t.clone();
            bumped.insert("salary", 9999.0);
            tx.update("employee", rid, bumped)?;
            // Delete the moved tuple.
            tx.delete("employee", moved_rid)?;
            Err::<(), _>(CoreError::Invalid("abort".into()))
        });
        prop_assert!(matches!(aborted, Err(CoreError::Invalid(_))), "{:?}", aborted);
        prop_assert_eq!(db.partitions("employee").unwrap(), parts_before);
        let tuples_after: BTreeSet<Tuple> =
            db.scan("employee").unwrap().into_iter().map(|(_, t)| t).collect();
        prop_assert_eq!(tuples_after, tuples_before);
        prop_assert_eq!(db.indexes("employee").unwrap(), indexes_before);
    }
}

/// The full access-path pipeline on the wide workload: parse → plan →
/// optimize_with_db → stream, with the shape predicate surviving on the
/// lookup node.  The probe is on the unique key `id`; the equality on the
/// EAD determinant `kind` beside it pins the variant region.  (`kind` alone
/// no longer takes its index — eight keys, a chain as long as the partition
/// — see `the_e2e_statement_kinds_take_their_costed_access_paths`.)
#[test]
fn wide_point_lookup_takes_the_index_and_keeps_shape_pruning() {
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&wide_relation(8)))
        .unwrap();
    for t in generate_wide(&WideConfig::new(1600, 8)) {
        db.insert("wide", t).unwrap();
    }
    let q = parse("SELECT * FROM wide WHERE id = 403 AND kind = 'k3'").unwrap();
    let plan = plan_query(&q, &db.catalog()).unwrap();
    let (indexed, notes) = optimize_with_db(plan.clone(), &db);
    assert_eq!(indexed.index_lookup_count(), 1, "{}", indexed);
    assert!(notes.iter().any(|n| n.rule == "access-path"));
    assert!(notes.iter().any(|n| n.rule == "partition-pruning"));
    let LogicalPlan::Filter { input, .. } = &indexed else {
        panic!("expected the kind equality as residual: {}", indexed);
    };
    let LogicalPlan::IndexLookup {
        key,
        shapes: Some(sp),
        ..
    } = &**input
    else {
        panic!("expected an index lookup: {}", indexed);
    };
    assert_eq!(key, &attrs!["id"]);
    assert!(
        sp.regions.iter().any(|(_, yi)| yi == &attrs!["v3"]),
        "shape predicate survives on the lookup: {}",
        sp
    );
    let fast_rows = execute_collect(&indexed, &db, &ExecOptions::serial())
        .unwrap()
        .0;
    assert_inhabits_props(&indexed, &db, &fast_rows);
    let naive: BTreeSet<Tuple> = execute_collect(&plan, &db, &ExecOptions::serial())
        .unwrap()
        .0
        .into_iter()
        .collect();
    let fast: BTreeSet<Tuple> = fast_rows.into_iter().collect();
    assert_eq!(naive, fast);
    assert_eq!(fast.len(), 1, "id 403 is of kind k3");
}

/// The four statement kinds the end-to-end benchmark sends, on the database
/// it sends them to: each takes the access path the cost model prices
/// cheapest, does no more work than that path needs, and returns the naive
/// plan's rows.
#[test]
fn the_e2e_statement_kinds_take_their_costed_access_paths() {
    let db = Database::new();
    seed_wide(&db, 2_000, 8, 0.5).unwrap();
    let run = |frql: &str| {
        let naive = plan_query(&parse(frql).unwrap(), &db.catalog()).unwrap();
        let (plan, _) = optimize_with_db(naive.clone(), &db);
        let (rows, stats) = execute_collect(&plan, &db, &ExecOptions::serial()).unwrap();
        assert_inhabits_props(&plan, &db, &rows);
        assert_inhabits_props(
            &naive,
            &db,
            &execute_collect(&naive, &db, &ExecOptions::serial())
                .unwrap()
                .0,
        );
        let rows: BTreeSet<Tuple> = rows.into_iter().collect();
        let expect: BTreeSet<Tuple> = reference_eval(&naive, &db).into_iter().collect();
        assert_eq!(rows, expect, "{}", frql);
        (plan, rows.len(), stats)
    };

    // lookup: a probe of the unique key, one tuple fetched.
    let (plan, rows, stats) = run("SELECT * FROM wide WHERE id = 77");
    assert!(
        matches!(&plan, LogicalPlan::IndexLookup { key, .. } if key == &attrs!["id"]),
        "{}",
        plan
    );
    assert_eq!((rows, stats.materialized(), stats.chunks()), (1, 1, 1));

    // agg: the determinant's chain is its partition, so the scan — pruned
    // to the one partition the EAD region admits — feeds the column
    // kernels and nothing is materialized.
    let (plan, rows, stats) = run("SELECT COUNT(*), SUM(v0) FROM wide WHERE kind = 'k0'");
    let LogicalPlan::Aggregate { input, .. } = &plan else {
        panic!("{}", plan);
    };
    let LogicalPlan::Filter { input, .. } = &**input else {
        panic!("{}", plan);
    };
    let LogicalPlan::Scan {
        shape: Some(sp), ..
    } = &**input
    else {
        panic!("{}", plan);
    };
    assert!(
        sp.regions.iter().any(|(_, yi)| yi == &attrs!["v0"]),
        "{}",
        sp
    );
    assert_eq!((rows, stats.materialized()), (1, 0));
    assert!(stats.chunks() >= 1);

    // join: the selection reaches `wide`, takes its index, and the one-row
    // outer probes `kinds` — two tuples fetched in all.
    let (plan, rows, stats) = run("SELECT kind, label FROM wide JOIN kinds WHERE id = 77");
    let LogicalPlan::Project { input, .. } = &plan else {
        panic!("{}", plan);
    };
    let LogicalPlan::Join {
        left,
        right,
        strategy: JoinStrategy::IndexNestedLoopRight,
    } = &**input
    else {
        panic!("{}", plan);
    };
    assert!(
        matches!(&**left, LogicalPlan::IndexLookup { relation, key, .. }
            if relation == "wide" && key == &attrs!["id"]),
        "{}",
        plan
    );
    assert!(
        matches!(&**right, LogicalPlan::Scan { relation, .. } if relation == "kinds"),
        "{}",
        plan
    );
    assert_eq!((rows, stats.materialized()), (1, 2));
    let explain =
        explain_query("SELECT kind, label FROM wide JOIN kinds WHERE id = 77", &db).unwrap();
    assert!(
        explain.contains("Join [index-nested-loop into right]"),
        "EXPLAIN names the method the executor runs: {explain}"
    );

    // scan: the same predicate as agg, the same pruned scan; only the
    // result rows are materialized.
    let (plan, rows, stats) = run("SELECT * FROM wide WHERE kind = 'k0'");
    assert_eq!(plan.index_lookup_count(), 0, "{}", plan);
    assert_eq!(plan.pruned_scan_count(), 1, "{}", plan);
    assert!(matches!(plan, LogicalPlan::Filter { .. }), "{}", plan);
    assert_eq!(stats.materialized(), rows as u64);
}

/// The access paths are chosen at plan time, so an index can be dropped
/// between optimizing a statement and executing it.  The plan below names
/// an index-nested-loop join over one secondary index and an index lookup
/// over another; with both dropped, the executor's capture holds neither,
/// each operator falls back to a scan of its snapshot, and the rows are
/// still the reference's.
#[test]
fn plans_outlive_the_indexes_they_chose() {
    use flexrel_algebra::predicate::Predicate;
    use flexrel_core::scheme::FlexScheme;

    let db = Database::new();
    db.create_relation(RelationDef::new(
        "items",
        FlexScheme::relational(attrs!["id", "code", "tag"]),
    ))
    .unwrap();
    db.create_relation(RelationDef::new(
        "wanted",
        FlexScheme::relational(attrs!["code"]),
    ))
    .unwrap();
    for id in 0..200i64 {
        let t = Tuple::new()
            .with("id", id)
            .with("code", 1_000 + id)
            .with("tag", id % 100);
        db.insert("items", t).unwrap();
    }
    for code in [1_003i64, 1_050, 1_199] {
        db.insert("wanted", Tuple::new().with("code", code))
            .unwrap();
    }
    let (code, tag) = (attrs!["code"], attrs!["tag"]);
    db.create_index("items", code.clone()).unwrap();
    db.create_index("items", tag.clone()).unwrap();

    let join = LogicalPlan::scan("wanted").join(LogicalPlan::scan("items"));
    let (join_plan, _) = optimize_with_db(join.clone(), &db);
    assert!(
        matches!(
            join_plan,
            LogicalPlan::Join {
                strategy: JoinStrategy::IndexNestedLoopRight,
                ..
            }
        ),
        "{}",
        join_plan
    );
    let lookup = LogicalPlan::scan("items").filter(Predicate::eq("tag", 7i64));
    let (lookup_plan, _) = optimize_with_db(lookup.clone(), &db);
    assert!(
        matches!(&lookup_plan, LogicalPlan::IndexLookup { key, .. } if key == &tag),
        "{}",
        lookup_plan
    );

    db.drop_index("items", &code).unwrap();
    db.drop_index("items", &tag).unwrap();
    for (plan, naive) in [(&join_plan, &join), (&lookup_plan, &lookup)] {
        let rows: BTreeSet<Tuple> = execute_collect(plan, &db, &ExecOptions::serial())
            .unwrap()
            .0
            .into_iter()
            .collect();
        let expect: BTreeSet<Tuple> = reference_eval(naive, &db).into_iter().collect();
        assert!(!expect.is_empty());
        assert_eq!(rows, expect, "{}", plan);
    }
}
