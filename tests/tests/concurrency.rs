//! Concurrency end to end: the shared `Database` under writer/reader
//! contention, transactional atomicity as observed by concurrent scanners,
//! and rollback exactness under contention.
//!
//! Dial the load up in CI with `RUST_TEST_THREADS` (test-level parallelism
//! on top of the in-test thread fan-out) and `PROPTEST_CASES`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use proptest::prelude::*;

use flexrel_core::attr::AttrSet;
use flexrel_core::error::CoreError;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::prelude::*;
use flexrel_storage::{Database, PartitionInfo, RelationDef};
use flexrel_workload::{
    employee_relation, generate_employees, generate_wide, wide_kind_tag, wide_relation,
    wide_variant_attr, EmployeeConfig, WideConfig,
};

const VARIANTS: usize = 8;

fn wide_db(n: usize) -> Database {
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&wide_relation(VARIANTS)))
        .unwrap();
    for t in generate_wide(&WideConfig::new(n, VARIANTS)) {
        db.insert("wide", t).unwrap();
    }
    db
}

fn wide_tuple(id: usize) -> Tuple {
    let v = id % VARIANTS;
    Tuple::new()
        .with("id", id as i64)
        .with("kind", Value::tag(wide_kind_tag(v)))
        .with(wide_variant_attr(v), (id * 7 % 1000) as i64)
}

/// An order-insensitive fingerprint of a relation: tuple multiset,
/// partition infos, and index statistics (key, distinct, len, partials).
type Fingerprint = (
    BTreeMap<Tuple, usize>,
    Vec<PartitionInfo>,
    Vec<(AttrSet, usize, usize, usize)>,
);

fn fingerprint(db: &Database, relation: &str) -> Fingerprint {
    let mut tuples: BTreeMap<Tuple, usize> = BTreeMap::new();
    for (_, t) in db.scan(relation).unwrap() {
        *tuples.entry(t).or_default() += 1;
    }
    let indexes = db
        .indexes(relation)
        .unwrap()
        .into_iter()
        .map(|i| (i.key, i.distinct_keys, i.len, i.partial_tuples))
        .collect();
    (tuples, db.partitions(relation).unwrap(), indexes)
}

/// Result chunks held across a burst of concurrent writes — the server's
/// window between execute and encode — keep their snapshot; an execution
/// after the writes sees the new state.
#[test]
fn streaming_queries_never_observe_a_torn_catalog() {
    let db = wide_db(2_000);
    let plan = LogicalPlan::scan("wide").filter(flexrel_algebra::predicate::Predicate::ge("id", 0));
    let (chunks, stats) = execute_chunks(&plan, &db, &ExecOptions::serial()).unwrap();
    // Concurrent shape-churning writes: delete a whole partition (shape
    // drops out of the catalog) and insert a brand-new shape.
    let k0: Vec<_> = db
        .lookup_eq(
            "wide",
            &AttrSet::singleton("kind"),
            &Tuple::new().with("kind", Value::tag(wide_kind_tag(0))),
        )
        .unwrap();
    for (rid, _) in &k0 {
        db.delete("wide", *rid).unwrap();
    }
    assert_eq!(
        db.partitions("wide").unwrap().len(),
        VARIANTS - 1,
        "the k0 partition dropped out of the live catalog"
    );
    let rows = flexrel_query::Chunk::collect_tuples(chunks, &stats);
    assert_eq!(rows.len(), 2_000, "the held chunks kept their snapshot");
    // A fresh execution sees the mutated catalog.
    assert_eq!(
        execute_collect(&plan, &db, &ExecOptions::serial())
            .unwrap()
            .0
            .len(),
        2_000 - k0.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N writer threads committing (and aborting) atomic batches + M
    /// scanning threads over the same relation: no scan ever observes a
    /// half-applied transaction, and the final state is exactly the
    /// committed batches.
    #[test]
    fn writers_and_scanners_never_observe_half_a_transaction(
        seed in 0u64..1000,
        writers in 2usize..4,
        readers in 1usize..3,
        batches in 4usize..10,
        batch_size in 2usize..6,
    ) {
        let base = 64;
        let db = wide_db(base);
        let stop = AtomicBool::new(false);
        let torn = AtomicUsize::new(0);
        let committed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for w in 0..writers {
                let db = db.clone();
                let committed = &committed;
                handles.push(s.spawn(move || {
                    for b in 0..batches {
                        // A seed-dependent mix of committed and aborted
                        // transactions.
                        let abort = (seed as usize + w + b).is_multiple_of(3);
                        let start_id = base + (w * batches + b) * batch_size;
                        let res = db.transact(&["wide"], |tx| {
                            for k in 0..batch_size {
                                tx.insert("wide", wide_tuple(start_id + k))?;
                            }
                            if abort {
                                Err(CoreError::Invalid("abort".into()))
                            } else {
                                Ok(())
                            }
                        });
                        if res.is_ok() {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }));
            }
            for _ in 0..readers {
                let db = db.clone();
                let (stop, torn) = (&stop, &torn);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let n = db.scan("wide").unwrap().len();
                        if !(n - base).is_multiple_of(batch_size) {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            for h in handles {
                h.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        prop_assert_eq!(torn.into_inner(), 0, "a scan observed a torn transaction");
        let committed = committed.into_inner();
        prop_assert_eq!(
            db.count("wide").unwrap(),
            base + committed * batch_size,
            "final state is exactly the committed batches"
        );
    }

    /// Rollback under contention restores the partition catalog and every
    /// index exactly: aborted transactions racing committed ones (and
    /// concurrent scanners) leave the database equal to the committed
    /// writes alone — checked against a single-threaded replay.
    #[test]
    fn rollback_under_contention_restores_partitions_and_indexes_exactly(
        seed in 0u64..1000,
        writers in 2usize..4,
        batches in 3usize..8,
    ) {
        let base = 48;
        let batch_size = 4;
        let db = wide_db(base);
        db.create_index("wide", AttrSet::singleton("v0")).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for w in 0..writers {
                let db = db.clone();
                handles.push(s.spawn(move || {
                    for b in 0..batches {
                        let abort = (seed as usize + w + b).is_multiple_of(2);
                        let start_id = base + (w * batches + b) * batch_size;
                        let _ = db.transact(&["wide"], |tx| {
                            for k in 0..batch_size {
                                tx.insert("wide", wide_tuple(start_id + k))?;
                            }
                            // Exercise delete/update undo under contention
                            // as well: mutate the batch, then maybe abort.
                            let (rid, t) = tx.scan("wide")?.pop().expect("just inserted");
                            tx.delete("wide", rid)?;
                            tx.insert("wide", t)?;
                            if abort {
                                Err(CoreError::Invalid("abort".into()))
                            } else {
                                Ok(())
                            }
                        });
                    }
                }));
            }
            {
                let db = db.clone();
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = db.scan("wide").unwrap().len();
                        let _ = db.partitions("wide").unwrap();
                    }
                });
            }
            for h in handles {
                h.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });

        // Single-threaded replay of exactly the committed transactions.
        let replay = wide_db(base);
        replay.create_index("wide", AttrSet::singleton("v0")).unwrap();
        for w in 0..writers {
            for b in 0..batches {
                if !(seed as usize + w + b).is_multiple_of(2) {
                    let start_id = base + (w * batches + b) * batch_size;
                    for k in 0..batch_size {
                        replay.insert("wide", wide_tuple(start_id + k)).unwrap();
                    }
                }
            }
        }
        prop_assert_eq!(
            fingerprint(&db, "wide"),
            fingerprint(&replay, "wide"),
            "tuples, partition catalog and index statistics must equal the committed replay"
        );
    }

    /// Statement-level concurrency: raw inserts from several threads with
    /// occasional rejected (constraint-violating) tuples — every accepted
    /// tuple lands, every rejected one leaves no trace, and the FD index
    /// stays exact.
    #[test]
    fn concurrent_inserts_with_rejections_keep_indexes_exact(
        threads in 2usize..5,
        per_thread in 5usize..20,
    ) {
        let db = wide_db(0);
        let accepted = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for w in 0..threads {
                let db = db.clone();
                let accepted = &accepted;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let id = w * per_thread + i;
                        let ok = db.insert("wide", wide_tuple(id)).is_ok();
                        assert!(ok, "unique ids are always admissible");
                        accepted.fetch_add(1, Ordering::Relaxed);
                        // A kind/variant mismatch violates the EAD and must
                        // be rejected without side effects.
                        let bad = Tuple::new()
                            .with("id", (100_000 + id) as i64)
                            .with("kind", Value::tag(wide_kind_tag(0)))
                            .with(wide_variant_attr(1), 1);
                        assert!(db.insert("wide", bad).is_err());
                        // A duplicate id with a different kind violates the
                        // FD against a concurrently inserted peer.
                        let dup = {
                            let v = (id + 1) % VARIANTS;
                            Tuple::new()
                                .with("id", id as i64)
                                .with("kind", Value::tag(wide_kind_tag(v)))
                                .with(wide_variant_attr(v), 0)
                        };
                        assert!(db.insert("wide", dup).is_err());
                    }
                });
            }
        });
        let total = accepted.into_inner();
        prop_assert_eq!(total, threads * per_thread);
        prop_assert_eq!(db.count("wide").unwrap(), total);
        let info = db
            .index_info("wide", &AttrSet::singleton("id"))
            .unwrap()
            .unwrap();
        prop_assert_eq!(info.len, total);
        prop_assert_eq!(info.distinct_keys, total);
        // The instance still satisfies every declared dependency.
        prop_assert!(db.snapshot("wide").unwrap().validate_instance().is_ok());
    }
}

/// Sessions on different relations do not contend: writers on `wide` and
/// `employee` plus cross-relation transactions all commit.
#[test]
fn concurrent_sessions_on_distinct_relations_make_progress() {
    let db = wide_db(100);
    db.create_relation(RelationDef::from_relation(&employee_relation()))
        .unwrap();
    for t in generate_employees(&EmployeeConfig::clean(50)) {
        db.insert("employee", t).unwrap();
    }
    std::thread::scope(|s| {
        {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..100usize {
                    db.insert("wide", wide_tuple(1_000 + i)).unwrap();
                }
            });
        }
        {
            let db = db.clone();
            s.spawn(move || {
                for (i, mut t) in generate_employees(&EmployeeConfig::clean(100))
                    .into_iter()
                    .enumerate()
                {
                    t.insert("empno", 10_000 + i as i64);
                    t.insert("name", format!("x{}", i));
                    db.insert("employee", t).unwrap();
                }
            });
        }
        {
            // A cross-relation transaction declares both (name order avoids
            // deadlock by construction) and commits atomically.
            let db = db.clone();
            s.spawn(move || {
                for i in 0..20usize {
                    db.transact(&["wide", "employee"], |tx| {
                        tx.insert("wide", wide_tuple(5_000 + i))?;
                        let mut e = generate_employees(&EmployeeConfig::clean(1)).pop().unwrap();
                        e.insert("empno", 50_000 + i as i64);
                        e.insert("name", format!("tx{}", i));
                        tx.insert("employee", e)?;
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });
    assert_eq!(db.count("wide").unwrap(), 100 + 100 + 20);
    assert_eq!(db.count("employee").unwrap(), 50 + 100 + 20);
}
