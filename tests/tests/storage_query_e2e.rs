//! End-to-end storage + query integration: FRQL results computed through the
//! planner/optimizer/executor agree with straightforward in-memory filtering,
//! for randomized data and a family of query templates.

use std::collections::BTreeSet;

use proptest::prelude::*;

use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::prelude::*;
use flexrel_storage::{Database, RelationDef};
use flexrel_workload::{employee_relation, generate_employees, EmployeeConfig, JobType};

fn database(n: usize, seed: u64) -> Database {
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

fn reference_filter(
    db: &Database,
    jobtype: Option<&str>,
    min_salary: Option<f64>,
) -> BTreeSet<Tuple> {
    db.scan("employee")
        .unwrap()
        .into_iter()
        .map(|(_, t)| t)
        .filter(|t| {
            jobtype
                .map(|j| t.get_name("jobtype") == Some(&Value::tag(j)))
                .unwrap_or(true)
                && min_salary
                    .map(|s| {
                        t.get_name("salary")
                            .and_then(|v| v.as_f64())
                            .map(|v| v > s)
                            .unwrap_or(false)
                    })
                    .unwrap_or(true)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Optimized and unoptimized plans agree with each other and with a
    /// hand-rolled reference filter, for every jobtype and salary threshold.
    #[test]
    fn frql_agrees_with_reference(seed in 0u64..200, n in 50usize..300, job_idx in 0usize..3, min_salary in 2000i64..9000) {
        let db = database(n, seed);
        let job = JobType::all()[job_idx];
        let frql = format!(
            "SELECT * FROM employee WHERE jobtype = '{}' AND salary > {}",
            job.tag(),
            min_salary
        );
        let q = parse(&frql).unwrap();
        let plan = plan_query(&q, &db.catalog()).unwrap();
        let naive: BTreeSet<Tuple> = execute_collect(&plan, &db, &ExecOptions::serial()).unwrap().0.into_iter().collect();
        let (optimized, _) = optimize(plan, &db.catalog());
        let fast: BTreeSet<Tuple> = execute_collect(&optimized, &db, &ExecOptions::serial()).unwrap().0.into_iter().collect();
        let reference = reference_filter(&db, Some(job.tag()), Some(min_salary as f64));
        prop_assert_eq!(&naive, &reference);
        prop_assert_eq!(&fast, &reference);
    }

    /// A guard for the selected variant's own attributes never changes the
    /// result (it is redundant); a guard for another variant's attributes
    /// always empties it.
    #[test]
    fn guards_behave_as_the_ead_dictates(seed in 0u64..200, n in 50usize..200, job_idx in 0usize..3) {
        let db = database(n, seed);
        let job = JobType::all()[job_idx];
        let own_attr = job.variant_attrs().iter().next().unwrap().name().to_string();
        let other = JobType::all().into_iter().find(|j| *j != job).unwrap();
        let foreign_attr = other
            .variant_attrs()
            .difference(&job.variant_attrs())
            .iter()
            .next()
            .unwrap()
            .name()
            .to_string();

        let base = format!("SELECT * FROM employee WHERE jobtype = '{}'", job.tag());
        let with_own_guard = format!("{} GUARD {}", base, own_attr);
        let with_foreign_guard = format!("{} GUARD {}", base, foreign_attr);

        let run = |frql: &str| -> BTreeSet<Tuple> {
            let q = parse(frql).unwrap();
            let plan = plan_query(&q, &db.catalog()).unwrap();
            let (optimized, _) = optimize(plan, &db.catalog());
            execute_collect(&optimized, &db, &ExecOptions::serial()).unwrap().0.into_iter().collect()
        };
        prop_assert_eq!(run(&base), run(&with_own_guard));
        prop_assert!(run(&with_foreign_guard).is_empty());
    }

    /// Transactional bulk loads either commit completely or roll back
    /// completely when a violation is injected.
    #[test]
    fn transactional_loads_are_atomic(seed in 0u64..200, n in 10usize..60, inject in any::<bool>()) {
        let db = database(10, seed);
        let before = db.count("employee").unwrap();
        let mut batch = generate_employees(&EmployeeConfig { n, violation_rate: 0.0, seed: seed + 1 });
        for (i, t) in batch.iter_mut().enumerate() {
            t.insert("empno", 10_000 + i as i64);
        }
        if inject {
            // A tuple violating the jobtype EAD aborts the load.
            let mut bad = batch[n / 2].clone();
            bad.insert("empno", 99_999);
            bad.insert("jobtype", Value::tag("salesman"));
            bad.insert("typing-speed", 100);
            bad.remove(&"products".into());
            bad.remove(&"sales-commission".into());
            bad.remove(&"foreign-languages".into());
            batch.insert(n / 2, bad);
        }
        // The first violation's error aborts the whole closure.
        let loaded = db.transact(&["employee"], |tx| {
            batch.into_iter().try_for_each(|t| tx.insert("employee", t).map(drop))
        });
        let expected = if inject { before } else { before + n };
        prop_assert_eq!(db.count("employee").unwrap(), expected);
        prop_assert_eq!(loaded.is_err(), inject);
    }
}

/// Snapshots taken from the storage engine satisfy their own declared
/// dependencies and scheme — the engine never lets inconsistent data in.
#[test]
fn snapshots_are_always_consistent() {
    let db = database(400, 3);
    let snap = db.snapshot("employee").unwrap();
    assert!(snap.validate_instance().is_ok());
    assert_eq!(snap.len(), 400);
}
