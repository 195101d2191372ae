//! Statistics hygiene: the per-partition histograms and distinct counts
//! behind the cost optimizer are cached per partition and follow inserts,
//! deletes and transaction rollbacks with a bounded lag — an entry is
//! served until its partition has drifted by `STATS_DRIFT` of its rows,
//! then rebuilt — and even *arbitrarily stale* statistics can only mis-cost
//! a plan, never change its results.

use std::collections::BTreeSet;

use flexrel_algebra::predicate::Predicate;
use flexrel_core::attrs;
use flexrel_core::error::CoreError;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::prelude::*;
use flexrel_storage::{Database, RelationDef, STATS_DRIFT};
use flexrel_workload::{employee_relation, generate_employees, EmployeeConfig};

fn employee_db(n: usize) -> Database {
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&employee_relation()))
        .unwrap();
    for t in generate_employees(&EmployeeConfig::clean(n)) {
        db.insert("employee", t).unwrap();
    }
    db
}

fn secretary(empno: i64) -> Tuple {
    Tuple::new()
        .with("empno", empno)
        .with("name", format!("late{}", empno))
        .with("salary", 12_345.0)
        .with("jobtype", Value::tag("secretary"))
        .with("typing-speed", 240)
        .with("foreign-languages", "french")
}

#[test]
fn stats_track_inserts_deletes_and_rollbacks() {
    const N: usize = 300;
    let db = employee_db(N);

    let before = db.table_stats("employee").unwrap();
    assert_eq!(before.rows(), N as u64);
    assert_eq!(before.distinct("empno"), Some(N as u64));

    // One insert is inside the drift bound of the ~100-row secretary
    // partition: the next reader is served the cached entry, not a rebuild.
    let rid = db.insert("employee", secretary(10_000)).unwrap();
    let stale = db.table_stats("employee").unwrap();
    assert_eq!(stale.rows(), N as u64);
    for (a, b) in before.parts.iter().zip(&stale.parts) {
        assert!(std::sync::Arc::ptr_eq(a, b), "a write forced a rebuild");
    }
    db.delete("employee", rid).unwrap();

    // Past the bound the partition is rebuilt and the statistics are exact
    // again: the rows, the new keys, the outlier salary in the histogram.
    let secretaries = before
        .parts
        .iter()
        .find(|p| p.shape.contains_name("typing-speed"))
        .unwrap()
        .rows;
    let burst = (STATS_DRIFT * secretaries as f64) as i64 + 1;
    let rids: Vec<_> = (0..burst)
        .map(|i| db.insert("employee", secretary(10_000 + i)).unwrap())
        .collect();
    let stats = db.table_stats("employee").unwrap();
    assert_eq!(stats.rows(), N as u64 + burst as u64);
    assert_eq!(stats.distinct("empno"), Some(N as u64 + burst as u64));
    assert_eq!(stats.fraction_le("salary", 12_345.0), Some(1.0));

    // Deleting the burst, and as many again inserted and deleted, drifts
    // the (now larger) partition past its bound once more: back to the
    // original counts.
    for rid in rids {
        db.delete("employee", rid).unwrap();
    }
    for i in 0..burst {
        let rid = db.insert("employee", secretary(30_000 + i)).unwrap();
        db.delete("employee", rid).unwrap();
    }
    let stats = db.table_stats("employee").unwrap();
    assert_eq!(stats.rows(), N as u64);
    assert_eq!(stats.distinct("empno"), Some(N as u64));

    // A rolled-back transaction inserts and removes, so it drifts the
    // partition too (40 mutations) — and the rebuild it causes finds no
    // residue of the aborted rows.
    let aborted = db.transact(&["employee"], |tx| {
        for i in 0..20 {
            tx.insert("employee", secretary(20_000 + i))?;
        }
        assert_eq!(tx.count("employee")?, N + 20);
        Err::<(), _>(CoreError::Invalid("abort".into()))
    });
    assert!(aborted.is_err());
    let after = db.table_stats("employee").unwrap();
    assert!(
        !after
            .parts
            .iter()
            .zip(&stats.parts)
            .all(|(a, b)| std::sync::Arc::ptr_eq(a, b)),
        "forty mutations of a hundred rows must rebuild"
    );
    assert_eq!(after.rows(), N as u64);
    assert_eq!(after.distinct("empno"), Some(N as u64));

    // Deleting every secretary drops the partition; the one re-created by
    // five inserts restarts its mutation count below the cached entry's, so
    // it must be rebuilt rather than served the dead partition's entry.
    let partitions = db.partitions("employee").unwrap().len();
    for (rid, t) in db.scan("employee").unwrap() {
        if t.attrs().contains_name("typing-speed") {
            db.delete("employee", rid).unwrap();
        }
    }
    assert_eq!(db.partitions("employee").unwrap().len(), partitions - 1);
    for i in 0..5 {
        db.insert("employee", secretary(40_000 + i)).unwrap();
    }
    let recreated = db.table_stats("employee").unwrap();
    let secretaries = recreated
        .parts
        .iter()
        .find(|p| p.shape.contains_name("typing-speed"))
        .unwrap();
    assert_eq!(secretaries.rows, 5);
}

/// A plan optimized against yesterday's statistics still returns exactly
/// the right rows today: cardinality estimates pick strategies and join
/// orders, never filter results.
#[test]
fn stale_stats_never_change_results() {
    const N: usize = 200;
    let db = employee_db(N);

    // Optimize while the table is small and uniform...
    let naive = LogicalPlan::scan("employee")
        .filter(Predicate::gt("salary", 5000))
        .join(LogicalPlan::scan("employee").project(attrs!["empno", "jobtype"]));
    let (optimized, _) = optimize_with_db(naive.clone(), &db);

    // ...then mutate the instance far away from what the optimizer saw:
    // triple the rows with a skewed tail and delete a third of the
    // original ones.
    for i in 0..(2 * N) {
        db.insert("employee", secretary(50_000 + i as i64)).unwrap();
    }
    let victims: Vec<_> = db
        .scan("employee")
        .unwrap()
        .into_iter()
        .filter(|(_, t)| matches!(t.get_name("empno"), Some(Value::Int(e)) if e % 3 == 0 && *e < N as i64))
        .map(|(rid, _)| rid)
        .collect();
    for rid in victims {
        db.delete("employee", rid).unwrap();
    }

    let expect: BTreeSet<Tuple> = execute_collect(&naive, &db, &ExecOptions::serial())
        .unwrap()
        .0
        .into_iter()
        .collect();
    let got: BTreeSet<Tuple> = execute_collect(&optimized, &db, &ExecOptions::serial())
        .unwrap()
        .0
        .into_iter()
        .collect();
    assert_eq!(
        expect, got,
        "a stale-cost plan diverged from the naive plan"
    );

    // Re-optimizing now sees the new reality (fresh row counts), and the
    // fresh plan agrees too.
    assert_eq!(
        db.table_stats("employee").unwrap().rows() as usize,
        3 * N - victims_count(N)
    );
    let (fresh, _) = optimize_with_db(naive.clone(), &db);
    let again: BTreeSet<Tuple> = execute_collect(&fresh, &db, &ExecOptions::serial())
        .unwrap()
        .0
        .into_iter()
        .collect();
    assert_eq!(expect, again);
}

/// How many of the original `n` empnos are divisible by three (the rows
/// `stale_stats_never_change_results` deletes).
fn victims_count(n: usize) -> usize {
    (0..n).filter(|e| e % 3 == 0).count()
}
