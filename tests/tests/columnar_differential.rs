//! Columnar-vs-row differential suite: the column-major partition storage
//! and its vectorized scan path must be observationally identical to a
//! row-at-a-time model (an id → tuple map plus per-tuple
//! `Predicate::eval`) — under random mutation sequences, across the
//! paper-style workloads with partial tuples, and after transaction
//! rollback.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;

use flexrel_algebra::predicate::Predicate;
use flexrel_core::attr::AttrSet;
use flexrel_core::error::CoreError;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::prelude::*;
use flexrel_storage::{ColumnHeap, Database, RelationDef, TupleId};
use flexrel_workload::{
    employee_relation, generate_employees, generate_wide, wide_relation, EmployeeConfig, JobType,
    WideConfig,
};

fn shape_tuple(id: i64, kind: u8, score: i64) -> Tuple {
    Tuple::new()
        .with("id", id)
        .with("kind", Value::tag(format!("k{}", kind)))
        .with("score", score)
}

fn tuple_multiset(ts: impl IntoIterator<Item = Tuple>) -> Vec<Tuple> {
    let mut v: Vec<Tuple> = ts.into_iter().collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random insert/delete/replace sequences over one tuple shape leave
    /// the columnar heap and the id → tuple model with identical contents,
    /// identical lengths, and identical per-id reads — including slot
    /// reuse after deletes (an insert never hands out a live id).
    #[test]
    fn columnar_heap_matches_the_map_model_under_mutation(seed in 0u64..10_000, n_ops in 50usize..400) {
        let mut rng = TestRng::new(seed);
        let shape = AttrSet::from_names(["id", "kind", "score"]);
        let mut col = ColumnHeap::new(shape);
        let mut model: HashMap<TupleId, Tuple> = HashMap::new();
        let mut live: Vec<TupleId> = Vec::new();
        for _ in 0..n_ops {
            // 3:1:1 insert / delete / replace.
            match rng.next_u64() % 5 {
                0..=2 => {
                    let t = shape_tuple(
                        (rng.next_u64() % 10_000) as i64,
                        (rng.next_u64() % 4) as u8,
                        (rng.next_u64() % 1_000) as i64,
                    );
                    let tid = col.insert(&t);
                    prop_assert!(model.insert(tid, t).is_none(), "{} was live", tid);
                    live.push(tid);
                }
                3 if !live.is_empty() => {
                    let tid = live.swap_remove((rng.next_u64() as usize) % live.len());
                    prop_assert_eq!(col.delete(tid), model.remove(&tid));
                }
                4 if !live.is_empty() => {
                    let tid = live[(rng.next_u64() as usize) % live.len()];
                    let score = (rng.next_u64() % 1_000) as i64;
                    let t = shape_tuple(score * 3, (score % 4) as u8, score);
                    prop_assert_eq!(col.replace(tid, t.clone()), model.insert(tid, t));
                }
                _ => {}
            }
        }
        prop_assert_eq!(col.len(), model.len());
        prop_assert_eq!(
            tuple_multiset(col.all_tuples()),
            tuple_multiset(model.values().cloned())
        );
        for tid in &live {
            prop_assert_eq!(col.get(*tid), model.get(tid).cloned());
            prop_assert_eq!(col.get_ref(*tid).map(|r| r.to_tuple()), col.get(*tid));
        }
    }
}

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

/// The row-at-a-time oracle for a predicate: materialize every stored
/// tuple and apply `Predicate::eval` tuple-at-a-time.
fn oracle(db: &Database, rel: &str, pred: &Predicate) -> BTreeSet<Tuple> {
    db.scan(rel)
        .unwrap()
        .into_iter()
        .map(|(_, t)| t)
        .filter(|t| pred.eval(t))
        .collect()
}

/// Runs the plan through the (vectorized) executor, naive and optimized.
fn both_plans(db: &Database, rel: &str, pred: &Predicate) -> (BTreeSet<Tuple>, BTreeSet<Tuple>) {
    let plan = LogicalPlan::scan(rel).filter(pred.clone());
    let naive: BTreeSet<Tuple> = execute_collect(&plan, db, &ExecOptions::serial())
        .unwrap()
        .0
        .into_iter()
        .collect();
    let (optimized, _) = optimize(plan, &db.catalog());
    let fast: BTreeSet<Tuple> = execute_collect(&optimized, db, &ExecOptions::serial())
        .unwrap()
        .0
        .into_iter()
        .collect();
    (naive, fast)
}

/// A family of predicates exercising the vectorized comparison kernels on
/// every value kind plus the shape-level folding paths: comparisons on
/// unconditioned attributes, on *partial* (variant-only) attributes that
/// are absent from most shapes, presence guards, and boolean combinations
/// including `Not` (whose bitmap complement must mask dead slots).
fn predicate_family(job: JobType, salary: f64, speed: i64) -> Vec<Predicate> {
    let jobtag = Value::tag(job.tag());
    vec![
        Predicate::eq("jobtype", jobtag.clone()),
        Predicate::ne("jobtype", jobtag.clone()),
        Predicate::gt("salary", salary),
        Predicate::le("salary", salary),
        // Partial attribute: only secretary-shaped tuples carry it; every
        // other shape must fold the comparison to constant-false.
        Predicate::gt("typing-speed", speed),
        Predicate::present(AttrSet::singleton("typing-speed")),
        Predicate::present(AttrSet::from_names(["typing-speed", "salary"])),
        Predicate::eq("jobtype", jobtag.clone()).and(Predicate::gt("salary", salary)),
        Predicate::gt("typing-speed", speed).or(Predicate::gt("salary", salary)),
        Predicate::eq("jobtype", jobtag).negate(),
        Predicate::present(AttrSet::singleton("typing-speed")).negate(),
        Predicate::gt("salary", salary).negate(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Vectorized execution over the columnar partitions agrees with the
    /// row-at-a-time oracle for the whole predicate family, on the employee
    /// workload (three shapes, partial variant attributes).
    #[test]
    fn columnar_execute_matches_row_oracle_on_employees(
        seed in 0u64..200,
        n in 50usize..250,
        job_idx in 0usize..3,
        salary in 2_000f64..9_000f64,
        speed in 150i64..400,
    ) {
        let db = employee_db(n, seed);
        let job = JobType::all()[job_idx];
        for pred in predicate_family(job, salary, speed) {
            let reference = oracle(&db, "employee", &pred);
            let (naive, fast) = both_plans(&db, "employee", &pred);
            prop_assert_eq!(&naive, &reference, "naive vs oracle for {:?}", pred);
            prop_assert_eq!(&fast, &reference, "optimized vs oracle for {:?}", pred);
        }
    }

    /// The same agreement on the k-variant wide workload (many shapes,
    /// every tuple partial on all but one variant attribute), including
    /// the partition-pruned scan path.
    #[test]
    fn columnar_execute_matches_row_oracle_on_wide(
        n in 50usize..250,
        variants in 2usize..9,
        kind in 0usize..4,
        threshold in 0i64..1_000,
    ) {
        let db = Database::new();
        db.create_relation(RelationDef::from_relation(&wide_relation(variants)))
            .unwrap();
        for t in generate_wide(&WideConfig::new(n, variants).with_skew(0.7)) {
            db.insert("wide", t).unwrap();
        }
        let kind = kind % variants;
        let preds = [
            Predicate::eq("kind", Value::tag(format!("k{}", kind))),
            Predicate::gt(format!("v{}", kind), threshold),
            Predicate::present(AttrSet::singleton(format!("v{}", kind))).negate(),
            Predicate::ge("id", (n / 2) as i64)
                .and(Predicate::eq("kind", Value::tag(format!("k{}", kind))).negate()),
        ];
        for pred in preds {
            let reference = oracle(&db, "wide", &pred);
            let (naive, fast) = both_plans(&db, "wide", &pred);
            prop_assert_eq!(&naive, &reference, "naive vs oracle for {:?}", pred);
            prop_assert_eq!(&fast, &reference, "optimized vs oracle for {:?}", pred);
        }
    }
}

/// After a rolled-back transaction the columnar partitions must read back
/// exactly the pre-transaction state — the COW segments undone, freed
/// slots reusable, and the vectorized scan path in agreement with the
/// oracle again (this is the path where a stale selection bitmap or a
/// missed segment copy would show up).
#[test]
fn post_rollback_scans_match_the_row_oracle() {
    let db = employee_db(120, 7);
    let pred = Predicate::gt("salary", 4_000.0);
    let before_oracle = oracle(&db, "employee", &pred);
    let before_all: BTreeSet<Tuple> = db
        .scan("employee")
        .unwrap()
        .into_iter()
        .map(|(_, t)| t)
        .collect();

    // A transactional batch that grows two partitions and then aborts.
    let batch = generate_employees(&EmployeeConfig {
        n: 40,
        violation_rate: 0.0,
        seed: 8,
    });
    let aborted = db.transact(&["employee"], |tx| {
        for (i, mut t) in batch.into_iter().enumerate() {
            t.insert("empno", 50_000 + i as i64);
            tx.insert("employee", t)?;
        }
        Err::<(), _>(CoreError::Invalid("abort".into()))
    });
    assert!(aborted.is_err());

    let after_all: BTreeSet<Tuple> = db
        .scan("employee")
        .unwrap()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    assert_eq!(
        before_all, after_all,
        "rollback restores the exact contents"
    );
    assert_eq!(oracle(&db, "employee", &pred), before_oracle);
    let (naive, fast) = both_plans(&db, "employee", &pred);
    assert_eq!(naive, before_oracle);
    assert_eq!(fast, before_oracle);

    // The freed columnar slots are live again: a fresh batch inserts
    // cleanly and the differential still holds.
    for (i, mut t) in generate_employees(&EmployeeConfig {
        n: 30,
        violation_rate: 0.0,
        seed: 9,
    })
    .into_iter()
    .enumerate()
    {
        t.insert("empno", 60_000 + i as i64);
        db.insert("employee", t).unwrap();
    }
    assert_eq!(db.count("employee").unwrap(), 150);
    let reference = oracle(&db, "employee", &pred);
    let (naive, fast) = both_plans(&db, "employee", &pred);
    assert_eq!(naive, reference);
    assert_eq!(fast, reference);

    // And the snapshot view stays internally consistent.
    let snap = db.snapshot("employee").unwrap();
    assert!(snap.validate_instance().is_ok());
    assert_eq!(snap.len(), 150);
}
