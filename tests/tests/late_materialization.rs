//! Executor differential suite: every plan the chunk/`SelVec` pipeline
//! runs must return the tuple multiset `flexrel_tests::reference_eval`
//! computes from the operators' definitions — across the experiment-style
//! workloads (partial attributes, negated presence, compound predicates,
//! aggregates), every join strategy and index access path including keys
//! only partially defined, under mid-query concurrent writers (snapshot
//! semantics), and after rollback.  The aggregation kernels are
//! additionally property-tested against a naive fold over materialized
//! tuples, including wrapping `i64` sums, all-filtered selections, and
//! shapes wide enough to spill the attribute bitset past one word.  The
//! network server's reply encoder, which reads the result chunks in place,
//! must write a reply that decodes to the materialized rows.

use proptest::prelude::*;

use flexrel_algebra::predicate::Predicate;
use flexrel_bench::experiments::wide_access_path_db;
use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::attrs;
use flexrel_core::error::CoreError;
use flexrel_core::scheme::FlexScheme;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::optimizer::Notes;
use flexrel_query::prelude::*;
use flexrel_query::{
    aggregate_selected, choose_access_paths, run_statement_chunks, Chunk, ExecStats, GroupedAggs,
    StatementOutcome,
};
use flexrel_server::{decode_response, encode_response, put_rows_from_chunks, seed_wide, Response};
use flexrel_storage::codec::{crc32, get_attrs, get_value, Cursor};
use flexrel_storage::heap::SEGMENT_SIZE;
use flexrel_storage::{ColumnHeap, Database, RelationDef, SelVec};
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

/// Runs `plan` through the pipeline and asserts it returns
/// `reference_eval`'s multiset — which is handed back sorted — and that
/// the rows inhabit the properties the optimizer derives for the plan.
fn assert_matches_reference(db: &Database, plan: &LogicalPlan, label: &str) -> Vec<Tuple> {
    let expect = sorted(reference_eval(plan, db));
    let got = sorted(execute_collect(plan, db, &ExecOptions::serial()).unwrap().0);
    assert_eq!(got, expect, "pipeline vs reference on {label}");
    assert_inhabits_props(plan, db, &got);
    expect
}

/// The plan with its access paths and join methods chosen against `db`.
fn costed(plan: LogicalPlan, db: &Database) -> LogicalPlan {
    choose_access_paths(plan, db, &mut Notes::rules_only())
}

/// The method recorded on a join plan's root.
fn join_method(plan: &LogicalPlan) -> JoinStrategy {
    match plan {
        LogicalPlan::Join { strategy, .. } => *strategy,
        other => panic!("not a join: {other}"),
    }
}

/// [`assert_matches_reference`] on the plan as given and on its
/// database-aware optimized form, which must not change the result.
fn assert_naive_and_optimized_match(db: &Database, plan: LogicalPlan, label: &str) {
    let naive_rows = assert_matches_reference(db, &plan, label);
    let (optimized, _) = optimize_with_db(plan, db);
    let optimized_rows = assert_matches_reference(db, &optimized, label);
    assert_eq!(naive_rows, optimized_rows, "optimizer changed {label}");
}

/// The FRQL catalogue, in both its naive and database-aware optimized plan
/// forms.
#[test]
fn pipeline_matches_the_reference_on_the_frql_catalogue() {
    let db = employee_db(600, 11);
    for frql in [
        "SELECT * FROM employee",
        "SELECT * FROM employee WHERE salary > 4000",
        "SELECT * FROM employee WHERE salary > 3000 AND jobtype = 'secretary'",
        "SELECT * FROM employee WHERE typing-speed > 200 OR salary <= 2500",
        "SELECT * FROM employee WHERE NOT PRESENT(typing-speed)",
        "SELECT * FROM employee WHERE NOT (jobtype = 'secretary' AND salary > 3000)",
        "SELECT empno, name FROM employee WHERE salary >= 2000",
        "SELECT empno, typing-speed FROM employee GUARD typing-speed",
        "SELECT * FROM employee WHERE jobtype = 'secretary' GUARD typing-speed",
        "SELECT COUNT(*) FROM employee",
        "SELECT COUNT(typing-speed), SUM(salary), MIN(salary), MAX(salary) FROM employee",
        "SELECT COUNT(*), SUM(salary) FROM employee WHERE salary > 9999999",
        "SELECT jobtype, COUNT(*), SUM(salary), MAX(empno) FROM employee GROUP BY jobtype",
        "SELECT jobtype, salary, COUNT(*) FROM employee \
         WHERE salary > 2000 GROUP BY jobtype, salary",
    ] {
        let plan = plan_query(&parse(frql).unwrap(), &db.catalog()).unwrap();
        assert_naive_and_optimized_match(&db, plan, frql);
    }
}

/// Joins on every access path the planner can choose: hash joins (against
/// the index-free shadow relation), index-nested-loop joins driven by the
/// small key list, and a three-way join — from both the catalog-only and
/// the database-aware plans.
#[test]
fn pipeline_matches_the_reference_on_joins_and_index_paths() {
    let db = wide_access_path_db(800, 4, 0.5, 16);
    let plans = vec![
        (
            "wide JOIN ids",
            LogicalPlan::scan("wide").join(LogicalPlan::scan("ids")),
        ),
        (
            "ids JOIN wide_nx (hash only)",
            LogicalPlan::scan("ids").join(LogicalPlan::scan("wide_nx")),
        ),
        (
            "wide JOIN wide_nx (full key overlap)",
            LogicalPlan::scan("wide")
                .filter(Predicate::lt("id", 200i64))
                .join(LogicalPlan::scan("wide_nx")),
        ),
        (
            "ids JOIN wide JOIN wide_nx",
            LogicalPlan::scan("ids")
                .join(LogicalPlan::scan("wide"))
                .join(LogicalPlan::scan("wide_nx")),
        ),
        (
            "indexed point lookup + residual",
            LogicalPlan::scan("wide")
                .filter(Predicate::eq("kind", Value::tag("k1")))
                .filter(Predicate::ge("id", 100i64)),
        ),
    ];
    for (label, plan) in plans {
        assert_naive_and_optimized_match(&db, plan, label);
    }
}

fn extend(input: LogicalPlan, attr: &str, value: impl Into<Value>) -> LogicalPlan {
    LogicalPlan::Extend {
        input: Box::new(input),
        attr: attr.into(),
        value: value.into(),
    }
}

fn requires(attrs: AttrSet) -> Option<ShapePredicate> {
    Some(ShapePredicate {
        required: attrs,
        regions: Vec::new(),
    })
}

/// `IndexLookup` through the stored index and through the scan fallback
/// (no index on the key), each with and without a shape predicate, on
/// present and absent keys.
#[test]
fn index_lookups_match_the_reference_with_and_without_a_stored_index() {
    let db = partial_key_db();
    let ab = |a: i64, b: i64| Tuple::new().with("a", a).with("b", b);
    let probes = [
        ("inner", attrs!["a", "b"], ab(1, 1)),
        ("inner", attrs!["a", "b"], ab(1, 4)), // no such pair
        ("inner", attrs!["a"], Tuple::new().with("a", 6)),
        ("inner_nx", attrs!["a", "b"], ab(2, 2)),
    ];
    for (relation, key, key_value) in probes {
        assert_eq!(
            db.has_index(relation, &key),
            relation == "inner" && key.len() == 2
        );
        for shapes in [None, requires(attrs!["v"]), requires(attrs!["b"])] {
            let plan = LogicalPlan::IndexLookup {
                relation: relation.into(),
                key: key.clone(),
                key_value: key_value.clone(),
                shapes,
            };
            assert_matches_reference(&db, &plan, &plan.to_string());
        }
    }
    let hit = LogicalPlan::IndexLookup {
        relation: "inner".into(),
        key: attrs!["a", "b"],
        key_value: ab(1, 1),
        shapes: requires(attrs!["v"]),
    };
    let rows = execute_collect(&hit, &db, &ExecOptions::serial())
        .unwrap()
        .0;
    assert!(!rows.is_empty() && rows.iter().all(|t| t.has_name("v")));
}

/// Index-nested-loop joins with the indexed relation on either side: probe
/// tuples not defined on the whole key, inner tuples on the index's
/// partial list, a residual filter and a shape predicate folded into the
/// probe.
#[test]
fn index_nested_loop_joins_match_the_reference_on_partial_keys() {
    let db = partial_key_db();
    let outer = LogicalPlan::scan("outer");
    let inners = [
        LogicalPlan::scan("inner"),
        LogicalPlan::scan("inner").filter(Predicate::lt("v", 100i64)),
        LogicalPlan::Scan {
            relation: "inner".into(),
            qualification: Some(Predicate::ge("a", 2i64)),
            shape: requires(attrs!["v"]),
        },
    ];
    for inner in inners {
        let probe_right = costed(outer.clone().join(inner.clone()), &db);
        let probe_left = costed(inner.clone().join(outer.clone()), &db);
        assert_eq!(
            join_method(&probe_right),
            JoinStrategy::IndexNestedLoopRight
        );
        assert_eq!(join_method(&probe_left), JoinStrategy::IndexNestedLoopLeft);
        let label = inner.to_string();
        let rows = assert_matches_reference(&db, &probe_right, &label);
        assert_eq!(rows, assert_matches_reference(&db, &probe_left, &label));
        // The probe without `b` pairs with inner tuples by `a` alone, and
        // the partial list contributes tuples that have no `b` themselves.
        assert!(rows.iter().any(|t| t.has_name("w") && !t.has_name("b")));
        assert!(rows
            .iter()
            .any(|t| t.get_name("a") == Some(&Value::Int(3)) && t.has_name("b")));
    }
}

/// Hash joins whose inputs hold tuples not defined on the common
/// attributes: columnar and row probes, both orientations, and a cross
/// product (no common attribute at all).
#[test]
fn hash_joins_match_the_reference_when_tuples_lack_common_attributes() {
    let db = partial_key_db();
    let nx = LogicalPlan::scan("inner_nx");
    let outer = LogicalPlan::scan("outer");
    assert_eq!(
        join_method(&costed(nx.clone().join(outer.clone()), &db)),
        JoinStrategy::Hash
    );
    let plans = [
        nx.clone().join(outer.clone()),
        outer.clone().join(nx.clone()),
        extend(outer.clone(), "tag", Value::tag("o")).join(nx.clone()),
        nx.clone()
            .filter(Predicate::lt("a", 4i64))
            .join(nx.clone().project(attrs!["a", "b"])),
        outer.project(attrs!["w"]).join(nx.project(attrs!["v"])),
    ];
    for plan in plans {
        assert_naive_and_optimized_match(&db, plan.clone(), &plan.to_string());
    }
}

/// Duplicate elimination in `Project` and `UnionAll`, `Extend` (adding and
/// overwriting), and aggregates — global and grouped — over empty,
/// all-filtered, partially grouped and join-produced inputs.
#[test]
fn dedup_extend_and_degenerate_aggregates_match_the_reference() {
    let db = partial_key_db();
    let inner = LogicalPlan::scan("inner");
    let aggs = || {
        vec![
            AggExpr::new(AggFunc::Count, None),
            AggExpr::new(AggFunc::Count, Some(Attr::new("v"))),
            AggExpr::new(AggFunc::Sum, Some(Attr::new("v"))),
            AggExpr::new(AggFunc::Min, Some(Attr::new("b"))),
            AggExpr::new(AggFunc::Max, Some(Attr::new("a"))),
        ]
    };
    let nothing = inner.clone().filter(Predicate::gt("a", 10_000i64));
    let mut plans = vec![
        inner.clone().project(attrs!["a"]),
        inner.clone().project(attrs!["b", "v"]),
        LogicalPlan::UnionAll {
            inputs: vec![
                inner.clone().filter(Predicate::lt("a", 10i64)),
                inner.clone().filter(Predicate::lt("a", 20i64)),
                LogicalPlan::scan("inner_nx"),
                LogicalPlan::scan("outer"),
            ],
        },
        extend(inner.clone(), "src", Value::tag("inner")),
        extend(inner.clone(), "a", 7i64).project(attrs!["a", "b"]),
    ];
    for group_by in [AttrSet::empty(), attrs!["b"], attrs!["a", "b"]] {
        for input in [
            LogicalPlan::Empty,
            nothing.clone(),
            inner.clone(),
            LogicalPlan::scan("outer").join(inner.clone()),
        ] {
            plans.push(input.aggregate(group_by.clone(), aggs()));
        }
    }
    for plan in plans {
        assert_naive_and_optimized_match(&db, plan.clone(), &plan.to_string());
    }
    // The global aggregate over nothing still emits its one row.
    let plan = nothing.aggregate(AttrSet::empty(), aggs());
    let rows = execute_collect(&plan, &db, &ExecOptions::serial())
        .unwrap()
        .0;
    assert_eq!(rows, vec![Tuple::new().with("count", 0).with("count-v", 0)]);
}

/// Snapshot semantics under mid-query writers: result chunks held across a
/// burst of concurrent inserts/deletes — the server's window between
/// execute and encode — still yield the pre-write multiset the reference
/// computed; fresh executions then agree with the reference on the
/// post-write state.
#[test]
fn mid_query_writers_leave_an_open_stream_on_its_snapshot() {
    const VARIANTS: usize = 4;
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&wide_relation(VARIANTS)))
        .unwrap();
    for t in generate_wide(&WideConfig::new(1_000, VARIANTS)) {
        db.insert("wide", t).unwrap();
    }
    let plan = LogicalPlan::scan("wide").filter(Predicate::ge("id", 0i64));
    let snapshot = sorted(reference_eval(&plan, &db));
    assert_eq!(snapshot.len(), 1_000);

    // The chunks are selections over the captured column segments; they
    // are materialized only after the writes.
    let (chunks, stats) = execute_chunks(&plan, &db, &ExecOptions::serial()).unwrap();

    // The concurrent writer: new tuples and a deletion burst.
    for t in generate_wide(&WideConfig::new(200, VARIANTS)) {
        let mut t = t;
        let id = t.get(&Attr::new("id")).cloned().unwrap();
        if let Value::Int(i) = id {
            t.insert("id", i + 1_000_000);
        }
        db.insert("wide", t).unwrap();
    }
    let victims: Vec<_> = db
        .lookup_eq(
            "wide",
            &AttrSet::singleton("kind"),
            &Tuple::new().with("kind", Value::tag("k0")),
        )
        .unwrap();
    for (rid, _) in victims.iter().take(100) {
        db.delete("wide", *rid).unwrap();
    }

    let rows = Chunk::collect_tuples(chunks, &stats);
    assert_eq!(
        sorted(rows),
        snapshot,
        "the held chunks kept their snapshot"
    );

    // Fresh executions agree on the mutated state too, for scans and for
    // a grouped aggregate over the churned dictionary column.
    assert_eq!(
        assert_matches_reference(&db, &plan, "post-write scan").len(),
        1_100
    );
    let agg = plan_query(
        &parse("SELECT kind, COUNT(*), SUM(id) FROM wide GROUP BY kind").unwrap(),
        &db.catalog(),
    )
    .unwrap();
    assert_matches_reference(&db, &agg, "post-write aggregate");
}

/// After a rolled-back transaction the pipeline reads back exactly the
/// pre-transaction state — for scans and for the columnar aggregation
/// path over the partitions the aborted batch had touched.
#[test]
fn post_rollback_state_matches_the_reference() {
    let db = employee_db(150, 3);
    let scan = plan_query(
        &parse("SELECT * FROM employee WHERE salary > 3000").unwrap(),
        &db.catalog(),
    )
    .unwrap();
    let agg = plan_query(
        &parse("SELECT jobtype, COUNT(*), SUM(salary) FROM employee GROUP BY jobtype").unwrap(),
        &db.catalog(),
    )
    .unwrap();
    let scan_before = assert_matches_reference(&db, &scan, "pre-txn scan");
    let agg_before = assert_matches_reference(&db, &agg, "pre-txn aggregate");

    let batch = generate_employees(&EmployeeConfig {
        n: 60,
        violation_rate: 0.0,
        seed: 4,
    });
    let aborted = db.transact(&["employee"], |tx| {
        for (i, mut t) in batch.into_iter().enumerate() {
            t.insert("empno", 70_000 + i as i64);
            tx.insert("employee", t)?;
        }
        Err::<(), _>(CoreError::Invalid("abort".into()))
    });
    assert!(aborted.is_err());

    assert_eq!(
        assert_matches_reference(&db, &scan, "post-rollback scan"),
        scan_before,
        "rollback must restore the scanned state"
    );
    assert_eq!(
        assert_matches_reference(&db, &agg, "post-rollback aggregate"),
        agg_before,
        "rollback must restore the aggregated state"
    );
}

/// The block layout of a `Rows` payload, walked independently of the
/// decoder: the number of blocks, and `(rows, pool length)` for every
/// `DICT` column.
fn block_layout(payload: &[u8]) -> (u32, Vec<(usize, usize)>) {
    let mut cur = Cursor::new(&payload[1..]);
    let n_shapes = cur.u32().unwrap();
    let arities: Vec<usize> = (0..n_shapes)
        .map(|_| get_attrs(&mut cur).unwrap().len())
        .collect();
    let _n_rows = cur.u32().unwrap();
    let n_blocks = cur.u32().unwrap();
    let mut pools = Vec::new();
    for _ in 0..n_blocks {
        let arity = arities[cur.u32().unwrap() as usize];
        let len = cur.u32().unwrap() as usize;
        for _ in 0..arity {
            match cur.u8().unwrap() {
                0 | 1 => {
                    cur.bytes(8 * len).unwrap();
                }
                2 => {
                    let pool_len = cur.u32().unwrap() as usize;
                    for _ in 0..pool_len {
                        get_value(&mut cur).unwrap();
                    }
                    cur.bytes(4 * len).unwrap();
                    pools.push((len, pool_len));
                }
                kind => panic!("unknown column kind {kind}"),
            }
        }
    }
    assert!(cur.is_empty(), "bytes after the last block");
    (n_blocks, pools)
}

/// The server's chunk encoder and the tuple encoder agree on the rows:
/// the reply written from the chunks decodes to exactly `execute_collect`'s
/// rows, in order, and the encoder materializes nothing writing it.  The
/// bytes may differ — block boundaries follow the chunks — but every
/// dictionary pool holds at most one value per row of its block.
fn assert_chunk_encoding_matches(db: &Database, plan: &LogicalPlan, label: &str) {
    let (rows, _) = execute_collect(plan, db, &ExecOptions::serial()).unwrap();
    let (chunks, stats) = execute_chunks(plan, db, &ExecOptions::serial()).unwrap();
    let built = stats.materialized();
    let mut got = Vec::new();
    put_rows_from_chunks(&mut got, &chunks, &stats).unwrap();
    assert_eq!(
        stats.materialized(),
        built,
        "the encoder built tuples on {label}"
    );
    assert_eq!(
        decode_response(&got).unwrap(),
        Response::Rows(rows),
        "chunk encoding decodes to other rows on {label}"
    );
    let (_, pools) = block_layout(&got);
    assert!(pools.iter().all(|(len, pool)| pool <= len), "{label}");
}

/// Every statement of the FRQL catalogue, naive and optimized, and every
/// producer of row chunks — joins, `Extend`, aggregates, a union of two
/// shapes, an empty result, partitions of partial shapes and index
/// lookups — decodes to the same rows from chunks and from tuples.
#[test]
fn chunk_encoder_and_tuple_encoder_agree_on_rows() {
    let db = employee_db(600, 11);
    for frql in [
        "SELECT * FROM employee",
        "SELECT * FROM employee WHERE salary > 4000",
        "SELECT * FROM employee WHERE salary > 3000 AND jobtype = 'secretary'",
        "SELECT * FROM employee WHERE typing-speed > 200 OR salary <= 2500",
        "SELECT * FROM employee WHERE NOT PRESENT(typing-speed)",
        "SELECT * FROM employee WHERE NOT (jobtype = 'secretary' AND salary > 3000)",
        "SELECT empno, name FROM employee WHERE salary >= 2000",
        "SELECT empno, typing-speed FROM employee GUARD typing-speed",
        "SELECT * FROM employee WHERE jobtype = 'secretary' GUARD typing-speed",
        "SELECT COUNT(*) FROM employee",
        "SELECT COUNT(typing-speed), SUM(salary), MIN(salary), MAX(salary) FROM employee",
        "SELECT COUNT(*), SUM(salary) FROM employee WHERE salary > 9999999",
        "SELECT jobtype, COUNT(*), SUM(salary), MAX(empno) FROM employee GROUP BY jobtype",
        "SELECT jobtype, salary, COUNT(*) FROM employee \
         WHERE salary > 2000 GROUP BY jobtype, salary",
        "SELECT * FROM employee WHERE empno = 17",
        "SELECT * FROM employee WHERE salary > 9999999",
    ] {
        let plan = plan_query(&parse(frql).unwrap(), &db.catalog()).unwrap();
        assert_chunk_encoding_matches(&db, &plan, frql);
        let (optimized, _) = optimize_with_db(plan, &db);
        assert_chunk_encoding_matches(&db, &optimized, frql);
    }

    let db = partial_key_db();
    let inner = LogicalPlan::scan("inner");
    let outer = LogicalPlan::scan("outer");
    let plans = [
        inner.clone(),
        outer.clone().join(inner.clone()),
        LogicalPlan::scan("inner_nx").join(outer.clone()),
        extend(inner.clone(), "src", Value::tag("inner")),
        inner.clone().aggregate(
            attrs!["b"],
            vec![
                AggExpr::new(AggFunc::Count, None),
                AggExpr::new(AggFunc::Sum, Some(Attr::new("v"))),
            ],
        ),
        LogicalPlan::UnionAll {
            inputs: vec![inner.clone().filter(Predicate::lt("a", 3i64)), outer],
        },
        inner.clone().filter(Predicate::gt("a", 10_000i64)),
        LogicalPlan::Empty,
        LogicalPlan::IndexLookup {
            relation: "inner".into(),
            key: attrs!["a", "b"],
            key_value: Tuple::new().with("a", 1).with("b", 1),
            shapes: None,
        },
        LogicalPlan::IndexLookup {
            relation: "inner_nx".into(),
            key: attrs!["a"],
            key_value: Tuple::new().with("a", 2),
            shapes: None,
        },
    ];
    for plan in plans {
        assert_chunk_encoding_matches(&db, &plan, &plan.to_string());
    }

    // Storage holds multisets, so a result can repeat the empty tuple: a
    // zero-arity block carries one row, and a partition of the empty shape
    // is written as one block per row.
    let db = Database::new();
    db.create_relation(RelationDef::new("opt", FlexScheme::optional("a")))
        .unwrap();
    for t in [Tuple::empty(), Tuple::new().with("a", 1), Tuple::empty()] {
        db.insert("opt", t).unwrap();
    }
    let scan = LogicalPlan::scan("opt");
    let (rows, _) = execute_collect(&scan, &db, &ExecOptions::serial()).unwrap();
    assert_eq!(rows.iter().filter(|t| t.is_empty()).count(), 2);
    assert_chunk_encoding_matches(&db, &scan, "two empty tuples");
}

/// A selective filter over a many-valued string column (`name`, one value
/// per employee): each block's pool holds the selected rows' names only,
/// not every name stored in the segment.
#[test]
fn a_selective_filter_sends_only_the_selected_strings() {
    let db = employee_db(600, 11);
    let plan = plan_query(
        &parse("SELECT * FROM employee WHERE salary > 9000").unwrap(),
        &db.catalog(),
    )
    .unwrap();
    let (chunks, stats) = execute_chunks(&plan, &db, &ExecOptions::serial()).unwrap();
    let mut payload = Vec::new();
    put_rows_from_chunks(&mut payload, &chunks, &stats).unwrap();
    let Response::Rows(rows) = decode_response(&payload).unwrap() else {
        panic!("a query answered with something else");
    };
    assert!(
        !rows.is_empty() && rows.len() < 600 / 4,
        "{} rows",
        rows.len()
    );
    let (blocks, pools) = block_layout(&payload);
    assert_eq!(blocks as usize, chunks.len());
    assert!(pools.iter().all(|(len, pool)| pool <= len), "{pools:?}");
    // `name` is unique, so its pool is exactly its block's rows.
    assert!(pools.iter().any(|(len, pool)| pool == len && *len > 1));
}

/// The server's path for the benchmark's scan — statement to chunks to
/// reply bytes — builds no tuple at all, writes one block per chunk where
/// the tuple encoder writes one for the whole run, and decodes to the
/// tuple encoder's rows.
#[test]
fn the_wire_scan_path_materializes_nothing() {
    let db = Database::new();
    seed_wide(&db, 8_000, 8, 0.8).unwrap();
    let frql = "SELECT * FROM wide WHERE kind = 'k0'";
    let StatementOutcome::Rows((chunks, stats)) =
        run_statement_chunks(&db, frql, &ExecOptions::serial()).unwrap()
    else {
        panic!("a query answered with a plan");
    };
    let mut got = Vec::new();
    put_rows_from_chunks(&mut got, &chunks, &stats).unwrap();
    assert_eq!(stats.materialized(), 0);
    assert!(stats.chunks() > 1);
    let StatementOutcome::Rows(rows) = run_statement(&db, frql, &ExecOptions::serial()).unwrap()
    else {
        panic!("a query answered with a plan");
    };
    assert!(!rows.is_empty());
    let tuple_encoded = encode_response(&Response::Rows(rows.clone()));
    assert_eq!(block_layout(&got).0 as u64, stats.chunks());
    assert_eq!(block_layout(&tuple_encoded).0, 1);
    assert_eq!(decode_response(&got).unwrap(), Response::Rows(rows));
}

/// The chunk encoder's bytes are pinned: payload length and CRC-32 of the
/// reply to each statement, recorded from the encoder that wrote every
/// selected value one slot at a time.  The selections cover whole segments
/// (`k0`), runs of one row and runs across 64-bit selection words
/// (`v3 > 500`), a projection, a `FLOAT` column beside dictionary columns
/// whose segment pools hold values no selected row uses, and an empty
/// result.  A run-wise copy that drops or shifts a slot changes the bytes
/// here even where the values it copies are plausible.
#[test]
fn the_chunk_encoder_writes_the_golden_bytes() {
    let wide = Database::new();
    seed_wide(&wide, 20_000, 8, 0.5).unwrap();
    let employee = employee_db(600, 11);
    let golden: [(&Database, &str, usize, u32); 5] = [
        (
            &wide,
            "SELECT * FROM wide WHERE kind = 'k0'",
            91_647,
            0x933a_6a6a,
        ),
        (
            &wide,
            "SELECT * FROM wide WHERE v3 > 500",
            23_043,
            0xafc7_b05c,
        ),
        (
            &wide,
            "SELECT id, v1 FROM wide WHERE v1 < 10",
            533,
            0x6077_4524,
        ),
        (
            &employee,
            "SELECT * FROM employee WHERE salary > 9000",
            3_829,
            0x416e_d39d,
        ),
        (&wide, "SELECT * FROM wide WHERE v3 > 5000", 13, 0xcf42_d6de),
    ];
    let (mut singles, mut straddles) = (0, 0);
    for (db, frql, len, crc) in golden {
        let StatementOutcome::Rows((mut chunks, stats)) =
            run_statement_chunks(db, frql, &ExecOptions::serial()).unwrap()
        else {
            panic!("a query answered with a plan");
        };
        // Partitions are visited in shape-id order, which is first-come
        // across the tests of this process; put the columnar chunks in
        // attribute-name order so the bytes do not depend on it.
        chunks.sort_by_key(|chunk| match chunk {
            Chunk::Cols(c) => Some((c.part.shape().clone(), c.seg)),
            Chunk::Rows(_) => None,
        });
        for chunk in &chunks {
            if let Chunk::Cols(c) = chunk {
                for run in c.sel.runs() {
                    singles += (run.len() == 1) as usize;
                    straddles += (run.start / 64 != (run.end - 1) / 64) as usize;
                }
            }
        }
        let mut payload = Vec::new();
        put_rows_from_chunks(&mut payload, &chunks, &stats).unwrap();
        assert_eq!(
            (payload.len(), crc32(&payload)),
            (len, crc),
            "reply bytes of {frql}"
        );
    }
    assert!(singles > 0 && straddles > 0, "{singles} {straddles}");
}

/// A deadline that has passed by the time the reply is encoded ends the
/// encoding in a timeout, so no truncated reply can be sent.
#[test]
fn the_chunk_encoder_checks_the_deadline_between_chunks() {
    let db = employee_db(300, 5);
    let (chunks, _) =
        execute_chunks(&LogicalPlan::scan("employee"), &db, &ExecOptions::serial()).unwrap();
    assert!(!chunks.is_empty());
    let expired = ExecStats::with_deadline(Some(std::time::Instant::now()));
    let err = put_rows_from_chunks(&mut Vec::new(), &chunks, &expired).unwrap_err();
    assert!(matches!(err, CoreError::Timeout(_)), "{err:?}");
}

fn finished_sorted(state: GroupedAggs) -> Vec<Tuple> {
    let mut v = state.finish();
    v.sort();
    v
}

fn standard_aggs() -> Vec<AggExpr> {
    vec![
        AggExpr::new(AggFunc::Count, None),
        AggExpr::new(AggFunc::Count, Some(Attr::new("x"))),
        AggExpr::new(AggFunc::Sum, Some(Attr::new("x"))),
        AggExpr::new(AggFunc::Sum, Some(Attr::new("y"))),
        AggExpr::new(AggFunc::Min, Some(Attr::new("y"))),
        AggExpr::new(AggFunc::Max, Some(Attr::new("x"))),
        AggExpr::new(AggFunc::Min, Some(Attr::new("g"))),
    ]
}

/// Rows with their value kinds and float bits spelled out, so two results
/// compare bit-exactly (`Value`'s `==` equates `0.0` and `-0.0`).
fn exact(rows: &[Tuple]) -> Vec<String> {
    rows.iter()
        .map(|t| format!("{:?}", t.iter().collect::<Vec<_>>()))
        .collect()
}

/// Folds every segment of `heap` under one selection per segment, through
/// the kernels and through the row-wise fold, and returns both results.
fn kernel_and_row_fold(
    heap: &ColumnHeap,
    group_by: &AttrSet,
    aggs: &[AggExpr],
    mut select: impl FnMut() -> SelVec,
) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut kernel = GroupedAggs::new(group_by.clone(), aggs.to_vec());
    let mut naive = GroupedAggs::new(group_by.clone(), aggs.to_vec());
    for si in 0..heap.segment_count() {
        let seg = heap.segment(si).unwrap();
        let mut sel = select();
        sel.and(&seg.live_sel());
        for row in sel.iter() {
            naive.add_tuple(&heap.materialize(seg, row));
        }
        aggregate_selected(heap, si, &sel, &mut kernel);
    }
    (finished_sorted(kernel), finished_sorted(naive))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The columnar aggregation kernels against the naive fold, compared
    /// bit-exactly: random typed columns (ints seeded with near-`i64::MAX`
    /// values so sums wrap, floats) with tombstoned slots, under random
    /// per-segment selections — empty, per-row random, every live row, and
    /// long runs crossing word boundaries — grouped globally, by the
    /// dictionary column, by an int column and by both.  The group keys are
    /// many tags, one tag (a one-entry dictionary in every segment), or
    /// `Int`/`Float` values that tie under the total order, beside float
    /// inputs whose sum depends on the order they are added in and a
    /// mixed-kind `MIN` input whose ties depend on which row came first.
    /// Both sides share the `Acc` semantics; what this pins down is the bulk
    /// kernels (popcount counts, run-wise slice sums, per-group selections,
    /// the one-entry dictionary) against the row-at-a-time fold.
    #[test]
    fn aggregation_kernels_match_the_tuple_fold(
        seed in 0u64..5_000,
        n in 0usize..2_400,
        density in 0u64..7,
        keys in 0u64..4,
    ) {
        let mut rng = TestRng::new(seed);
        let mut heap = ColumnHeap::new(AttrSet::from_names(["g", "x", "y"]));
        let mut ids = Vec::new();
        for _ in 0..n {
            let x = if rng.next_u64().is_multiple_of(16) {
                i64::MAX - (rng.next_u64() % 3) as i64
            } else {
                (rng.next_u64() % 1_000) as i64
            };
            let k = (rng.next_u64() % 5) as i64;
            // `Int k` or `Float k`: the two tie under the total order.
            let tie = |k: i64, float: bool| {
                if float {
                    Value::Float(k as f64)
                } else {
                    Value::Int(k)
                }
            };
            let as_float = rng.next_u64().is_multiple_of(2);
            let eighths = Value::Float((rng.next_u64() % 1_000) as f64 / 8.0);
            let order_sensitive = Value::Float([1e17, -1e17, 1.0, 0.5][(rng.next_u64() % 4) as usize]);
            let (g, y) = match keys {
                0 => (Value::tag(format!("g{k}")), eighths),
                1 => (Value::tag("g"), eighths),
                2 => (tie(k % 3, as_float), order_sensitive),
                _ => (tie(k % 3, as_float), tie(2 + k % 2, rng.next_u64().is_multiple_of(2))),
            };
            ids.push(heap.insert(&Tuple::new().with("g", g).with("x", x).with("y", y)));
        }
        for id in ids {
            if rng.next_u64().is_multiple_of(10) {
                heap.delete(id);
            }
        }
        for group_by in [
            AttrSet::empty(),
            AttrSet::singleton("g"),
            AttrSet::singleton("x"),
            AttrSet::from_names(["g", "x"]),
        ] {
            let (kernel, naive) = kernel_and_row_fold(&heap, &group_by, &standard_aggs(), || {
                let mut sel = SelVec::none();
                match density {
                    // 0 keeps every mask empty — the all-filtered segment
                    // the kernels must skip without touching accumulators.
                    5 => sel = SelVec::all(),
                    6 => {
                        for _ in 0..4 {
                            let start = (rng.next_u64() % SEGMENT_SIZE as u64) as usize;
                            let len = (rng.next_u64() % 300) as usize;
                            (start..(start + len).min(SEGMENT_SIZE)).for_each(|r| sel.set(r));
                        }
                    }
                    d => (0..SEGMENT_SIZE)
                        .filter(|_| rng.next_u64() % 5 < d)
                        .for_each(|r| sel.set(r)),
                }
                sel
            });
            prop_assert_eq!(exact(&kernel), exact(&naive), "group by {}", group_by);
        }
    }
}

/// Keys that tie under the total order (`Int 1`, `Float 1.0`) are one
/// group, and that group's rows must fold in row order even when they
/// interleave: a float sum depends on the order of its additions, and
/// `MIN` keeps the first of two tying values.  Folding the rows of one key
/// kind before those of the other gives `1.0` for the sum (not `0.0`) and
/// `Float(2.0)` for the minimum (not `Int(2)`).
#[test]
fn grouping_keys_that_tie_under_the_total_order_fold_in_row_order() {
    let mut heap = ColumnHeap::new(AttrSet::from_names(["g", "x", "y"]));
    for (g, x, y) in [
        (Value::Int(1), 1e17, Value::Int(5)),
        (Value::Float(1.0), 1.0, Value::Int(2)),
        (Value::Int(1), -1e17, Value::Float(2.0)),
    ] {
        heap.insert(&Tuple::new().with("g", g).with("x", x).with("y", y));
    }
    let aggs = vec![
        AggExpr::new(AggFunc::Sum, Some(Attr::new("x"))),
        AggExpr::new(AggFunc::Min, Some(Attr::new("y"))),
    ];
    let (kernel, naive) = kernel_and_row_fold(&heap, &AttrSet::singleton("g"), &aggs, SelVec::all);
    assert_eq!(exact(&kernel), exact(&naive));
    assert_eq!(naive.len(), 1);
    assert_eq!(
        naive[0].get_name("g"),
        Some(&Value::Int(1)),
        "the first row's key"
    );
    assert_eq!(naive[0].get_name("sum-x"), Some(&Value::Float(0.0)));
    assert_eq!(naive[0].get_name("min-y"), Some(&Value::Int(2)));
}

/// A shape wide enough that its attribute set spills past one 64-bit
/// word: the kernels must still line the aggregate inputs up with the
/// right columns, and grouping by the trailing attributes must work.
#[test]
fn aggregation_over_a_spilled_wide_shape_matches_the_tuple_fold() {
    const ATTRS: usize = 70;
    let names: Vec<String> = (0..ATTRS).map(|i| format!("a{i:02}")).collect();
    let shape = AttrSet::from_names(names.iter().map(|s| s.as_str()));
    let mut heap = ColumnHeap::new(shape);
    for i in 0..1_500i64 {
        let mut t = Tuple::new();
        for (j, name) in names.iter().enumerate() {
            t.insert(name.as_str(), i.wrapping_mul(71) + j as i64);
        }
        t.insert("a69", i % 7); // a small group domain on the spilled word
        heap.insert(&t);
    }
    let aggs = vec![
        AggExpr::new(AggFunc::Count, None),
        AggExpr::new(AggFunc::Sum, Some(Attr::new("a00"))),
        AggExpr::new(AggFunc::Min, Some(Attr::new("a68"))),
        AggExpr::new(AggFunc::Max, Some(Attr::new("a01"))),
    ];
    for group_by in [AttrSet::empty(), AttrSet::singleton("a69")] {
        let mut kernel = GroupedAggs::new(group_by.clone(), aggs.clone());
        let mut naive = GroupedAggs::new(group_by, aggs.clone());
        for si in 0..heap.segment_count() {
            let seg = heap.segment(si).unwrap();
            let sel = seg.live_sel();
            for row in sel.iter() {
                naive.add_tuple(&heap.materialize(seg, row));
            }
            aggregate_selected(&heap, si, &sel, &mut kernel);
        }
        assert_eq!(finished_sorted(kernel), finished_sorted(naive));
    }
}
