//! Fault-injected crash recovery, end to end: a deterministic crash-point
//! sweep kills the durability layer at **every** write/fsync boundary of a
//! mixed DDL + DML workload and asserts that recovery reproduces exactly
//! the acknowledged operations (the multiset of tuples, the partition
//! catalog, the rebuilt indexes, and every AD/FD — revalidated by
//! `Database::verify_invariants`).  Torn writes and flipped bits on the WAL
//! recover by truncation; a corrupt checkpoint is a clean error.  The WAL
//! record codec itself is property-tested, including shapes past the
//! 64-attribute inline `AttrSet` limit and dictionary-encoded strings.
//!
//! Crash model (see `flexrel_storage::fault`): an operation is durable iff
//! its sync boundary proceeded — which is the moment the database
//! acknowledged it — so the sweep's oracle is simply "replay the acked
//! ops".

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use flexrel_core::attr::AttrSet;
use flexrel_core::error::CoreError;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::{run_statement, ExecOptions, StatementOutcome};
use flexrel_storage::codec::{read_frame, FrameRead};
use flexrel_storage::wal::{parse_segment_name, segment_file_name};
use flexrel_storage::{
    CountingFault, Database, DurabilityOptions, FaultAction, IoEvent, IoFault, NoFault,
    NthEventFault, PartitionInfo, RecordDecoder, RecordEncoder, RelationDef, Rid, TxnScope, WalOp,
    WalRecord,
};
use flexrel_workload::{
    employee_relation, generate_employees, wide_kind_tag, wide_relation, wide_variant_attr,
    EmployeeConfig,
};

/// A unique scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "flexrel-durability-{}-{}-{:?}",
            tag,
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn options_with(fault: Arc<dyn IoFault>) -> DurabilityOptions {
    DurabilityOptions {
        background_checkpoint: false,
        fault,
        ..DurabilityOptions::default()
    }
}

fn tuple_multiset(ts: impl IntoIterator<Item = Tuple>) -> Vec<Tuple> {
    let mut v: Vec<Tuple> = ts.into_iter().collect();
    v.sort();
    v
}

/// Runs the sweep workload against `dir` under `fault`, acknowledging ops
/// as the database does, and returns `(relation_created, oracle)` where
/// `oracle` is the tuple multiset exactly the acked operations produce.
/// Ops failing after an injected crash are simply not acked — the oracle
/// never sees them.
fn run_workload(dir: &Path, fault: Arc<dyn IoFault>) -> (bool, Vec<Tuple>) {
    let db = match Database::open_with(dir, options_with(fault)) {
        Ok(db) => db,
        Err(_) => return (false, Vec::new()),
    };
    let created = db
        .create_relation(RelationDef::from_relation(&employee_relation()))
        .is_ok();
    // Tracks (rid, tuple) for every acked op; the tuples are the oracle.
    let mut live: Vec<(flexrel_storage::Rid, Tuple)> = Vec::new();

    // Phase 1: plain inserts.
    for t in generate_employees(&EmployeeConfig::clean(8)) {
        if let Ok(rid) = db.insert("employee", t.clone()) {
            live.push((rid, t));
        }
    }
    // Phase 2: a delete and a (shape-preserving) update.
    if let Some((rid, _)) = live.first().cloned() {
        if db.delete("employee", rid).is_ok() {
            live.remove(0);
        }
    }
    if let Some((rid, t)) = live.first().cloned() {
        let mut new = t.clone();
        new.insert("salary", 4321.0);
        if let Ok((new_rid, _)) = db.update("employee", rid, new.clone()) {
            live[0] = (new_rid, new);
        }
    }
    // Phase 3: one committed multi-statement transaction...
    let batch: Vec<Tuple> = generate_employees(&EmployeeConfig::clean(3))
        .into_iter()
        .enumerate()
        .map(|(i, mut t)| {
            t.insert("empno", 60_000 + i as i64);
            t.insert("name", format!("txn-{}", i));
            t
        })
        .collect();
    if let Ok(rids) = db.transact(&["employee"], |tx| {
        let mut rids = Vec::new();
        for t in batch.clone() {
            rids.push(tx.insert("employee", t)?);
        }
        Ok(rids)
    }) {
        live.extend(rids.into_iter().zip(batch));
    }
    // ...and one aborted transaction, which must leave no durable trace.
    let _ = db.transact(&["employee"], |tx| {
        let mut t = generate_employees(&EmployeeConfig::clean(1)).pop().unwrap();
        t.insert("empno", 61_000);
        tx.insert("employee", t)?;
        Err::<(), _>(flexrel_core::error::CoreError::Invalid("abort".into()))
    });
    // Phase 4: an explicit checkpoint, then a post-checkpoint WAL tail.
    let _ = db.checkpoint_now();
    for (i, mut t) in generate_employees(&EmployeeConfig::clean(3))
        .into_iter()
        .enumerate()
    {
        t.insert("empno", 62_000 + i as i64);
        if let Ok(rid) = db.insert("employee", t.clone()) {
            live.push((rid, t));
        }
    }
    (created, live.into_iter().map(|(_, t)| t).collect())
}

/// Reopens `dir` fault-free and checks the recovered state against the
/// oracle: same tuple multiset, all invariants (scheme, domains, AD/FD,
/// index consistency), and the database must accept new durable writes.
fn assert_recovers(dir: &Path, created: bool, oracle: &[Tuple], ctx: &str) {
    let db = Database::open_with(dir, options_with(Arc::new(NoFault)))
        .unwrap_or_else(|e| panic!("{}: recovery must not fail: {}", ctx, e));
    if !created {
        assert!(
            db.scan("employee").is_err(),
            "{}: unacked DDL must not be durable",
            ctx
        );
        return;
    }
    let recovered = tuple_multiset(db.scan("employee").unwrap().into_iter().map(|(_, t)| t));
    assert_eq!(
        recovered,
        tuple_multiset(oracle.iter().cloned()),
        "{}: recovered instance must equal the acked-op oracle",
        ctx
    );
    db.verify_invariants()
        .unwrap_or_else(|e| panic!("{}: recovered invariants violated: {}", ctx, e));
    // The recovered database stays writable and durable.
    let mut extra = generate_employees(&EmployeeConfig::clean(1)).pop().unwrap();
    extra.insert("empno", 99_999);
    db.insert("employee", extra)
        .unwrap_or_else(|e| panic!("{}: recovered database rejects writes: {}", ctx, e));
    assert_eq!(db.count("employee").unwrap(), oracle.len() + 1);
}

/// The tentpole test: crash at **every** I/O boundary the workload
/// crosses, and prove recovery is exact each time.
#[test]
fn crash_point_sweep_recovers_exactly_the_acked_operations() {
    // Pass 1: count the boundaries of the fault-free workload.
    let total = {
        let tmp = TempDir::new("sweep-count");
        let counting = Arc::new(CountingFault::new());
        let (created, _) = run_workload(&tmp.0, Arc::clone(&counting) as Arc<dyn IoFault>);
        assert!(created);
        counting.total()
    };
    // Pinned, not bounded, so a change to the durable I/O sequence shows:
    // 3 per checkpoint image (write, sync, rename) × 2, plus one WAL write
    // + sync per acked commit × 14 (8 inserts, a delete, an update, the
    // batch, 3 tail inserts).
    assert_eq!(total, 34, "the workload's I/O boundaries moved");
    // Pass 2: the sweep. Crash at boundary n for every n, recover, verify.
    for n in 0..total {
        let tmp = TempDir::new(&format!("sweep-{}", n));
        let fault = Arc::new(NthEventFault::new(n, FaultAction::Crash));
        let (created, oracle) = run_workload(&tmp.0, Arc::clone(&fault) as Arc<dyn IoFault>);
        assert!(fault.fired(), "crash point {} never reached", n);
        assert_recovers(
            &tmp.0,
            created,
            &oracle,
            &format!("crash at boundary {}", n),
        );
    }
}

#[test]
fn torn_wal_write_recovers_by_truncation() {
    // Tear a WAL write mid-workload: keep a few bytes of the frame header
    // so the tail is structurally incomplete.  (Boundary 13 is a WalWrite:
    // the workload's create-relation checkpoint crosses boundaries 0-2 and
    // each insert then costs a write+sync pair, so writes sit on odd
    // indices.)
    for keep in [0, 3, 5, 9, 17] {
        let tmp = TempDir::new(&format!("torn-{}", keep));
        let fault = Arc::new(NthEventFault::new(13, FaultAction::Torn { keep }));
        let (created, oracle) = run_workload(&tmp.0, Arc::clone(&fault) as Arc<dyn IoFault>);
        assert!(fault.fired());
        assert_recovers(
            &tmp.0,
            created,
            &oracle,
            &format!("torn write keep={}", keep),
        );
    }
}

#[test]
fn flipped_bit_in_the_wal_is_detected_and_truncated() {
    let tmp = TempDir::new("flip");
    // A dedicated workload with NO checkpoint after the flip — a later
    // checkpoint would rewrite clean state from memory and legitimately
    // mask the corrupt WAL record.  Boundary 9 is the WalWrite of the 4th
    // insert (create-relation's checkpoint crosses boundaries 0-2, each
    // insert then costs a write+sync pair).  Bit 40 lands in byte 5 of
    // the written batch — inside the first frame's CRC, so the record is
    // structurally complete but fails its checksum: the corruption is
    // *silent* until recovery reads it.
    let fault = Arc::new(NthEventFault::new(9, FaultAction::FlipBit { offset: 40 }));
    let oracle: Vec<Tuple> = {
        let db = Database::open_with(&tmp.0, options_with(Arc::clone(&fault) as _)).unwrap();
        db.create_relation(RelationDef::from_relation(&employee_relation()))
            .unwrap();
        let rows = generate_employees(&EmployeeConfig::clean(8));
        for t in rows.clone() {
            // FlipBit proceeds: every insert is acknowledged.
            db.insert("employee", t).unwrap();
        }
        rows
    };
    assert!(fault.fired());
    // The flipped op WAS acked, so recovery loses it and everything
    // logged after it: the recovered instance is a strict subset of the
    // oracle.  What recovery must still guarantee: no panic, corruption
    // detected (truncated tail), invariants intact.
    let db = Database::open_with(&tmp.0, options_with(Arc::new(NoFault))).unwrap();
    assert!(
        db.recovery_info().unwrap().truncated,
        "the CRC mismatch must be detected and truncated"
    );
    let recovered = tuple_multiset(db.scan("employee").unwrap().into_iter().map(|(_, t)| t));
    let oracle = tuple_multiset(oracle);
    assert!(recovered.len() < oracle.len());
    let mut counts: BTreeMap<&Tuple, isize> = BTreeMap::new();
    for t in &oracle {
        *counts.entry(t).or_default() += 1;
    }
    for t in &recovered {
        let c = counts.entry(t).or_default();
        *c -= 1;
        assert!(*c >= 0, "recovered a tuple the oracle never acked: {}", t);
    }
    db.verify_invariants().unwrap();
}

/// The three tuples of the multi-op commit the byte-level sweeps damage.
fn three_insert_batch() -> Vec<Tuple> {
    generate_employees(&EmployeeConfig::clean(3))
        .into_iter()
        .enumerate()
        .map(|(i, mut t)| {
            t.insert("empno", 70_000 + i as i64);
            t
        })
        .collect()
}

/// Creates the employee relation and commits [`three_insert_batch`] in one
/// `transact` under `fault`.  The relation's checkpoint crosses boundaries
/// 0-2, so the commit's WAL write is boundary 3.  Returns whether the
/// commit was acknowledged.
fn run_three_insert_commit(dir: &Path, fault: Arc<dyn IoFault>) -> bool {
    let db = Database::open_with(dir, options_with(fault)).unwrap();
    db.create_relation(RelationDef::from_relation(&employee_relation()))
        .unwrap();
    db.transact(&["employee"], |tx| {
        for t in three_insert_batch() {
            tx.insert("employee", t)?;
        }
        Ok(())
    })
    .is_ok()
}

/// The bytes of the newest WAL segment in `dir`.
fn last_segment(dir: &Path) -> Vec<u8> {
    let (_, path) = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            let base = parse_segment_name(path.file_name()?.to_str()?)?;
            Some((base, path))
        })
        .max()
        .unwrap();
    std::fs::read(path).unwrap()
}

/// Reopens `dir` fault-free and checks that the commit came back whole
/// (`all`) or not at all, with every invariant intact.
fn assert_all_or_none(dir: &Path, all: bool, ctx: &str) -> Database {
    let db = Database::open_with(dir, options_with(Arc::new(NoFault)))
        .unwrap_or_else(|e| panic!("{}: recovery must not fail: {}", ctx, e));
    let recovered = tuple_multiset(db.scan("employee").unwrap().into_iter().map(|(_, t)| t));
    let expected = if all {
        tuple_multiset(three_insert_batch())
    } else {
        Vec::new()
    };
    assert_eq!(recovered, expected, "{}: all or none", ctx);
    db.verify_invariants()
        .unwrap_or_else(|e| panic!("{}: recovered invariants violated: {}", ctx, e));
    db
}

/// Tears the WAL write of a three-insert commit at every byte offset.  The
/// commit is one frame, so its tuples come back only when the whole frame
/// reached the file, and otherwise none does.
#[test]
fn a_commit_torn_at_any_byte_recovers_all_or_nothing() {
    // What the commit's WAL write carries — the DDL checkpoint's rotation
    // marker, then the commit frame — is the segment a fault-free run
    // leaves behind.
    let batch = {
        let tmp = TempDir::new("torn-sweep-clean");
        assert!(run_three_insert_commit(&tmp.0, Arc::new(NoFault)));
        last_segment(&tmp.0)
    };
    for keep in 0..=batch.len() {
        let tmp = TempDir::new(&format!("torn-sweep-{}", keep));
        let fault = Arc::new(NthEventFault::new(3, FaultAction::Torn { keep }));
        let acked = run_three_insert_commit(&tmp.0, Arc::clone(&fault) as Arc<dyn IoFault>);
        assert!(
            fault.fired() && !acked,
            "keep={}: the write must tear",
            keep
        );
        // The segment is preallocated, so past the bytes written it reads
        // as zeros: a tear that drops only zero bytes still leaves the
        // whole frame in the file.
        let whole = last_segment(&tmp.0).starts_with(&batch);
        assert!(whole || keep < batch.len());
        assert_all_or_none(&tmp.0, whole, &format!("torn write keep={}", keep));
    }
}

/// Flips one bit in each byte of a three-insert commit's WAL write.  The
/// flip is silent, so the commit is acknowledged; recovery finds the CRC
/// mismatch, truncates, and brings back none of its tuples.
#[test]
fn a_bit_flipped_in_any_byte_of_a_commit_drops_it_whole() {
    let len = {
        let tmp = TempDir::new("flip-sweep-clean");
        assert!(run_three_insert_commit(&tmp.0, Arc::new(NoFault)));
        last_segment(&tmp.0).len()
    };
    for byte in 0..len {
        let tmp = TempDir::new(&format!("flip-sweep-{}", byte));
        let offset = byte * 8 + byte % 8;
        let fault = Arc::new(NthEventFault::new(3, FaultAction::FlipBit { offset }));
        let acked = run_three_insert_commit(&tmp.0, Arc::clone(&fault) as Arc<dyn IoFault>);
        assert!(fault.fired() && acked, "byte {}: a flip is silent", byte);
        let ctx = format!("bit {} of byte {} flipped", byte % 8, byte);
        let db = assert_all_or_none(&tmp.0, false, &ctx);
        assert!(db.recovery_info().unwrap().truncated, "{}", ctx);
    }
}

/// A segment in the earlier one-record-per-frame format — one auto-commit
/// insert frame, CRC-valid, record tag 5 — fails the open with the tag
/// named, and its bytes stay as they were: that format has no reader.
#[test]
fn a_segment_in_the_old_record_format_is_refused_untouched() {
    let tmp = TempDir::new("old-format");
    #[rustfmt::skip]
    let frame: &[u8] = &[
        0x33, 0, 0, 0, 0xce, 0xb8, 0xcb, 0x5e, // len 51, crc
        5, 0, 0, 0, 0, 0, 0, 0, 0,              // Insert, txn 0
        3, 0, 0, 0, b'e', b'm', b'p',           // relation "emp"
        0, 0, 0, 0,                             // shape 0
        4, 9, 0, 0, 0, b's', b'e', b'c', b'r', b'e', b't', b'a', b'r', b'y',
        2, 3, 0, 0, 0, b'A', b'n', b'n',
        0, 0x68, 0x10, 0, 0, 0, 0, 0, 0,        // Int 4200
    ];
    assert_eq!(
        read_frame(frame, 0),
        FrameRead::Frame {
            payload: &frame[8..],
            next: frame.len()
        },
        "the frame itself is intact"
    );
    let path = tmp.0.join(segment_file_name(0));
    std::fs::write(&path, frame).unwrap();
    let err = Database::open_with(&tmp.0, options_with(Arc::new(NoFault)))
        .expect_err("an old-format segment must be refused");
    assert!(err.is_corruption(), "unexpected error class: {}", err);
    assert!(err.to_string().contains("tag 5"), "{}", err);
    assert_eq!(std::fs::read(&path).unwrap(), frame);
}

#[test]
fn corrupt_checkpoint_is_a_clean_error_not_a_panic() {
    let tmp = TempDir::new("ckpt-corrupt");
    {
        let db = Database::open_with(&tmp.0, options_with(Arc::new(NoFault))).unwrap();
        db.create_relation(RelationDef::from_relation(&employee_relation()))
            .unwrap();
        for t in generate_employees(&EmployeeConfig::clean(10)) {
            db.insert("employee", t).unwrap();
        }
        db.checkpoint_now().unwrap();
    }
    let path = tmp.0.join("checkpoint.ckpt");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();
    let err = Database::open_with(&tmp.0, options_with(Arc::new(NoFault)))
        .expect_err("a corrupt checkpoint must be rejected");
    assert!(err.is_corruption(), "unexpected error class: {}", err);
}

/// Statistics are derived state: a checkpoint writes only the image, and a
/// reopened database rebuilds from the recovered partitions the statistics
/// the closed one had, so a statement priced from them plans the same.
#[test]
fn checkpoint_writes_only_the_image_and_reopen_plans_the_same() {
    let tmp = TempDir::new("stats-derived");
    let explain =
        "EXPLAIN SELECT empno, salary FROM employee WHERE jobtype = 'secretary' AND salary > 4000";
    let summary = |db: &Database| {
        let stats = db.table_stats("employee").unwrap();
        let cols = ["empno", "name", "salary", "jobtype", "typing-speed"];
        let distinct: Vec<_> = cols.iter().map(|c| stats.distinct(c)).collect();
        let plan = match run_statement(db, explain, &ExecOptions::serial()).unwrap() {
            StatementOutcome::Explain(text) => text,
            other => panic!("{:?} gave {:?}", explain, other),
        };
        (stats.rows(), distinct, plan)
    };
    let before = {
        let db = Database::open_with(&tmp.0, options_with(Arc::new(NoFault))).unwrap();
        db.create_relation(RelationDef::from_relation(&employee_relation()))
            .unwrap();
        for t in generate_employees(&EmployeeConfig::clean(300)) {
            db.insert("employee", t).unwrap();
        }
        let before = summary(&db);
        db.checkpoint_now().unwrap();
        before
    };
    for entry in std::fs::read_dir(&tmp.0).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            name == "checkpoint.ckpt" || parse_segment_name(&name).is_some(),
            "a checkpoint left {:?} beside the image and the WAL",
            name
        );
    }
    let db = Database::open_with(&tmp.0, options_with(Arc::new(NoFault))).unwrap();
    assert_eq!(summary(&db), before);
}

#[test]
fn group_commit_batches_syncs_across_concurrent_writers() {
    let tmp = TempDir::new("group-e2e");
    let counting = Arc::new(CountingFault::new());
    const THREADS: usize = 4;
    const PER_THREAD: usize = 25;
    {
        let db = Database::open_with(&tmp.0, options_with(Arc::clone(&counting) as _)).unwrap();
        db.create_relation(RelationDef::from_relation(&employee_relation()))
            .unwrap();
        let ckpt_syncs = counting.wal_syncs();
        std::thread::scope(|s| {
            for w in 0..THREADS {
                let db = db.clone();
                s.spawn(move || {
                    let rows = generate_employees(&EmployeeConfig::clean(PER_THREAD));
                    for (i, mut t) in rows.into_iter().enumerate() {
                        t.insert("empno", (w * PER_THREAD + i) as i64 + 10_000);
                        t.insert("name", format!("w{}-{}", w, i));
                        db.insert("employee", t).unwrap();
                    }
                });
            }
        });
        let commits = THREADS * PER_THREAD;
        let syncs = counting.wal_syncs() - ckpt_syncs;
        assert!(
            syncs <= commits,
            "group commit must never fsync more than once per commit ({} > {})",
            syncs,
            commits
        );
    }
    // And every acked commit survives the restart.
    let db = Database::open_with(&tmp.0, options_with(Arc::new(NoFault))).unwrap();
    assert_eq!(db.count("employee").unwrap(), THREADS * PER_THREAD);
    db.verify_invariants().unwrap();
}

/// A scripted crash behind a slow disk: every WAL write and sync boundary
/// takes `pause`, so concurrent leader rounds overlap — one writing while
/// another syncs — as they do on a real disk.  The boundary that crashes
/// hangs for `stall` first, long enough for a later round to write, sync
/// and publish if the writer let it overtake an earlier one.
#[derive(Debug)]
struct SlowDisk {
    crash: NthEventFault,
    pause: Duration,
    stall: Duration,
}

impl IoFault for SlowDisk {
    fn intercept(&self, ev: IoEvent) -> FaultAction {
        let action = self.crash.intercept(ev);
        if matches!(ev, IoEvent::WalWrite { .. } | IoEvent::WalSync) {
            let hang = action != FaultAction::Proceed;
            std::thread::sleep(if hang { self.stall } else { self.pause });
        }
        action
    }
}

/// Concurrent writers, a crash at each WAL boundary in turn: after the
/// reopen, acked ⊆ recovered ⊆ acked ∪ in flight, and every invariant
/// holds.  An in-flight commit is one whose insert failed with the crash —
/// its bytes may or may not have reached the disk.
#[test]
fn concurrent_writers_crash_recovers_between_acked_and_in_flight() {
    const WRITERS: usize = 3;
    const PER_WRITER: usize = 6;
    let mut fired = 0;
    // Boundaries 0-2 are the relation's DDL checkpoint; from 3 on, every
    // boundary is a WAL write or sync of the writers' commits.
    for n in 3..3 + 2 * WRITERS * PER_WRITER {
        let tmp = TempDir::new(&format!("concurrent-crash-{}", n));
        let fault = Arc::new(SlowDisk {
            crash: NthEventFault::new(n, FaultAction::Crash),
            pause: Duration::from_micros(200),
            stall: Duration::from_millis(3),
        });
        let db = Database::open_with(&tmp.0, options_with(Arc::clone(&fault) as _)).unwrap();
        db.create_relation(RelationDef::from_relation(&employee_relation()))
            .unwrap();
        let acked = Mutex::new(Vec::new());
        let in_flight = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (db, acked, in_flight) = (&db, &acked, &in_flight);
                s.spawn(move || {
                    let rows = generate_employees(&EmployeeConfig::clean(PER_WRITER));
                    for (i, mut t) in rows.into_iter().enumerate() {
                        t.insert("empno", (w * PER_WRITER + i) as i64 + 20_000);
                        t.insert("name", format!("c{}-{}", w, i));
                        match db.insert("employee", t.clone()) {
                            Ok(_) => acked.lock().unwrap().push(t),
                            Err(_) => {
                                // The log is poisoned: later inserts fail
                                // before logging anything.
                                in_flight.lock().unwrap().push(t);
                                return;
                            }
                        }
                    }
                });
            }
        });
        fired += usize::from(fault.crash.fired());
        drop(db);
        let ctx = format!("crash at boundary {}", n);
        let db = Database::open_with(&tmp.0, options_with(Arc::new(NoFault)))
            .unwrap_or_else(|e| panic!("{}: recovery must not fail: {}", ctx, e));
        let recovered = tuple_multiset(db.scan("employee").unwrap().into_iter().map(|(_, t)| t));
        let acked = acked.into_inner().unwrap();
        let in_flight = in_flight.into_inner().unwrap();
        for t in &acked {
            assert!(recovered.contains(t), "{}: acked {} was lost", ctx, t);
        }
        for t in &recovered {
            assert!(
                acked.contains(t) || in_flight.contains(t),
                "{}: recovered {}, which was never attempted",
                ctx,
                t
            );
        }
        db.verify_invariants()
            .unwrap_or_else(|e| panic!("{}: recovered invariants violated: {}", ctx, e));
    }
    assert!(fired > 0, "no crash point was reached");
}

/// Blocks the checkpoint image write once armed, until released, and
/// counts every boundary crossed after the last handle's drop returned.
#[derive(Debug, Default)]
struct CheckpointGate {
    state: Mutex<GateState>,
    cond: Condvar,
    dropped: AtomicBool,
    late_events: AtomicUsize,
}

#[derive(Debug, Default)]
struct GateState {
    armed: bool,
    blocked: bool,
    released: bool,
}

impl IoFault for CheckpointGate {
    fn intercept(&self, ev: IoEvent) -> FaultAction {
        if self.dropped.load(Ordering::SeqCst) {
            self.late_events.fetch_add(1, Ordering::SeqCst);
        }
        if matches!(ev, IoEvent::CheckpointWrite { .. }) {
            let mut st = self.state.lock().unwrap();
            if st.armed {
                st.blocked = true;
                self.cond.notify_all();
                while !st.released {
                    st = self.cond.wait(st).unwrap();
                }
            }
        }
        FaultAction::Proceed
    }
}

/// Dropping the last handle while the background checkpointer is inside a
/// checkpoint waits for that checkpoint: otherwise a reopen of the
/// directory races the checkpoint's rename and segment deletion.
#[test]
fn dropping_the_last_handle_joins_a_running_checkpoint() {
    let tmp = TempDir::new("drop-joins");
    let gate = Arc::new(CheckpointGate::default());
    let db = Database::open_with(
        &tmp.0,
        DurabilityOptions {
            background_checkpoint: true,
            checkpoint_bytes: 1,
            fault: Arc::clone(&gate) as _,
            ..DurabilityOptions::default()
        },
    )
    .unwrap();
    // The DDL checkpoint runs on this thread, before the gate is armed.
    db.create_relation(RelationDef::from_relation(&employee_relation()))
        .unwrap();
    gate.state.lock().unwrap().armed = true;
    let row = generate_employees(&EmployeeConfig::clean(1)).pop().unwrap();
    db.insert("employee", row.clone()).unwrap();
    // The insert crosses `checkpoint_bytes`: the background checkpointer
    // takes a checkpoint and blocks in its image write.
    {
        let mut st = gate.state.lock().unwrap();
        while !st.blocked {
            st = gate.cond.wait(st).unwrap();
        }
    }
    let (done, returned) = std::sync::mpsc::channel();
    let dropper = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            drop(db);
            gate.dropped.store(true, Ordering::SeqCst);
            done.send(()).unwrap();
        })
    };
    assert!(
        returned.recv_timeout(Duration::from_millis(300)).is_err(),
        "drop returned while a checkpoint was still running"
    );
    gate.state.lock().unwrap().released = true;
    gate.cond.notify_all();
    returned
        .recv_timeout(Duration::from_secs(30))
        .expect("drop returns once the checkpoint finished");
    dropper.join().unwrap();
    assert_eq!(
        gate.late_events.load(Ordering::SeqCst),
        0,
        "an I/O boundary was crossed after drop returned"
    );
    let db = Database::open_with(&tmp.0, options_with(Arc::new(NoFault))).unwrap();
    assert_eq!(db.scan("employee").unwrap().len(), 1);
    db.verify_invariants().unwrap();
}

// ---------------------------------------------------------------------------
// WAL record codec properties.
// ---------------------------------------------------------------------------

/// Deterministically builds a tuple from the rng: up to `max_attrs`
/// attributes drawn from a 90-name pool (so shapes regularly exceed the
/// 64-attribute inline `AttrSet` words and exercise the spilled
/// representation), with int, float, string and tag values (strings and
/// tags take the dictionary-encoded column path on the storage side).
fn arb_tuple(rng: &mut TestRng, max_attrs: usize) -> Tuple {
    let n = 1 + (rng.next_u64() as usize) % max_attrs;
    let mut t = Tuple::new();
    for _ in 0..n {
        let a = format!("a{:02}", rng.next_u64() % 90);
        let v = match rng.next_u64() % 4 {
            0 => Value::from(rng.next_u64() as i64 % 10_000),
            1 => Value::from((rng.next_u64() % 1000) as f64 / 8.0),
            2 => Value::from(format!("s{}", rng.next_u64() % 50)),
            _ => Value::tag(format!("t{}", rng.next_u64() % 20)),
        };
        t.insert(a, v);
    }
    t
}

fn arb_op(rng: &mut TestRng) -> WalOp {
    let relation = format!("r{}", rng.next_u64() % 3);
    match rng.next_u64() % 3 {
        0 => WalOp::Insert {
            relation,
            tuple: arb_tuple(rng, 80),
        },
        1 => WalOp::Delete {
            relation,
            tuple: arb_tuple(rng, 80),
        },
        _ => WalOp::Update {
            relation,
            old: arb_tuple(rng, 80),
            new: arb_tuple(rng, 80),
        },
    }
}

/// A commit of zero to four ops, or (one time in six) a rotation marker.
fn arb_record(rng: &mut TestRng) -> WalRecord {
    if rng.next_u64().is_multiple_of(6) {
        return WalRecord::Checkpoint(rng.next_u64() % 100_000);
    }
    let n = rng.next_u64() % 5;
    WalRecord::Commit((0..n).map(|_| arb_op(rng)).collect())
}

/// Decodes a framed stream back into records.  Returns the records up to
/// the first corrupt frame (and whether corruption was hit).
fn decode_stream(bytes: &[u8]) -> Result<(Vec<WalRecord>, bool), String> {
    let mut dec = RecordDecoder::new();
    let mut records = Vec::new();
    let mut off = 0;
    loop {
        match read_frame(bytes, off) {
            FrameRead::Frame { payload, next } => {
                let rec = dec
                    .decode(payload)
                    .map_err(|e| format!("decoder error: {}", e))?;
                records.push(rec);
                off = next;
            }
            FrameRead::Eof => return Ok((records, false)),
            FrameRead::Corrupt => return Ok((records, true)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary records — including tuples over >64-attribute shapes and
    /// dictionary-encoded strings — survive encode → frame → decode
    /// bit-identically.
    #[test]
    fn wal_records_round_trip(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let n = 1 + (rng.next_u64() as usize) % 20;
        let records: Vec<WalRecord> = (0..n).map(|_| arb_record(&mut rng)).collect();
        // At least one tuple must exceed the 64-attr inline AttrSet limit
        // across the suite; force it for this case.
        let mut big = Tuple::new();
        for i in 0..70 {
            big.insert(format!("a{:02}", i), i as i64);
        }
        prop_assert!(big.attrs().len() > 64);
        let mut records = records;
        records.push(WalRecord::Commit(vec![WalOp::Insert {
            relation: "wide".into(),
            tuple: big,
        }]));

        let mut enc = RecordEncoder::new();
        let mut bytes = Vec::new();
        for rec in &records {
            enc.encode(rec, &mut bytes).unwrap();
        }
        let (decoded, corrupt) = decode_stream(&bytes).map_err(TestCaseError::fail)?;
        prop_assert!(!corrupt, "clean stream decoded as corrupt");
        prop_assert_eq!(&decoded, &records);
    }

    /// Any single-byte corruption of the encoded stream is detected: the
    /// decode either reports a corrupt/short frame or yields a different
    /// record sequence — it never silently returns the original records.
    #[test]
    fn wal_single_byte_corruption_is_detected(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let n = 1 + (rng.next_u64() as usize) % 8;
        let records: Vec<WalRecord> = (0..n).map(|_| arb_record(&mut rng)).collect();
        let mut enc = RecordEncoder::new();
        let mut bytes = Vec::new();
        for rec in &records {
            enc.encode(rec, &mut bytes).unwrap();
        }
        prop_assert!(!bytes.is_empty());
        let victim = (rng.next_u64() as usize) % bytes.len();
        let mut flip = (rng.next_u64() % 256) as u8;
        if flip == 0 {
            flip = 1; // guarantee the byte actually changes
        }
        bytes[victim] ^= flip;

        let detected = match decode_stream(&bytes) {
            Err(_) => true,                     // decoder-level corruption
            Ok((_, true)) => true,              // CRC / framing corruption
            Ok((decoded, false)) => decoded != records, // truncated tail
        };
        prop_assert!(
            detected,
            "byte {} corrupted with {:#04x} went unnoticed",
            victim,
            flip
        );
    }
}

// ---------------------------------------------------------------------------
// One operation log: rollback, the WAL and recovery read the same ops.
// ---------------------------------------------------------------------------

/// The relations the op-log property writes, with their variant counts:
/// each tuple is `{id, kind, v<kind>}`, so its kind decides its shape (and
/// partition), and the FD `id → kind` makes conflicting writes fail.
const OP_LOG_RELATIONS: [(&str, usize); 2] = [("slim", 2), ("wide", 3)];

/// A tuple of variant `kind`; `kind` past the relation's variants is
/// outside its scheme and `kind` domain, so writing it fails.
fn op_log_tuple(id: u64, kind: u64, v: u64) -> Tuple {
    let kind = kind as usize;
    Tuple::new()
        .with("id", id as i64)
        .with("kind", Value::tag(wide_kind_tag(kind)))
        .with(wide_variant_attr(kind), v as i64)
}

/// Runs a random program of `len` ops inside `tx`: inserts, deletes,
/// same-shape and shape-changing updates, and deletes that empty a whole
/// partition.  Ops that fail their checks (FD conflicts on the small `id`
/// range, kinds outside the scheme) are swallowed and the program goes on,
/// as a statement failing inside a transaction would.
fn run_op_program(tx: &mut TxnScope<'_>, rng: &mut TestRng, len: u64) -> Result<(), CoreError> {
    for _ in 0..len {
        let (rel, variants) = OP_LOG_RELATIONS[(rng.next_u64() % 2) as usize];
        let rows = tx.scan(rel)?;
        let picked = rows
            .get(rng.next_u64() as usize % rows.len().max(1))
            .cloned();
        let (id, kind, v) = (
            rng.next_u64() % 8,
            rng.next_u64() % (variants as u64 + 1),
            rng.next_u64() % 4,
        );
        let _ = match (rng.next_u64() % 6, picked) {
            (0 | 1, _) | (_, None) => tx.insert(rel, op_log_tuple(id, kind, v)).map(drop),
            (2, Some((rid, _))) => tx.delete(rel, rid).map(drop),
            (3, Some((rid, t))) => {
                // Same shape: only the variant attribute's value changes.
                let mut new = t.clone();
                for (a, _) in t.iter().filter(|(a, _)| a.name().starts_with('v')) {
                    new.insert(a.clone(), v as i64);
                }
                tx.update(rel, rid, new).map(drop)
            }
            (4, Some((rid, t))) => {
                // Same id, a random kind: usually a new shape.
                let Some(Value::Int(id)) = t.get_name("id").cloned() else {
                    unreachable!("every stored tuple has an integer id")
                };
                tx.update(rel, rid, op_log_tuple(id as u64, kind, v))
                    .map(drop)
            }
            (_, Some((_, t))) => rows
                .iter()
                .filter(|(_, u)| u.shape() == t.shape())
                .try_for_each(|(rid, _)| tx.delete(rel, *rid).map(drop)),
        };
    }
    Ok(())
}

/// One canonical index: key, auto flag, key → sorted tuples, sorted
/// partial tuples.
type CanonicalIndex = (AttrSet, bool, BTreeMap<Tuple, Vec<Tuple>>, Vec<Tuple>);

/// What the op-log property compares, per relation: the tuple multiset,
/// the partition catalog, and every index's canonical contents.  Index
/// entries are resolved to tuples: rollback restores the multiset, not the
/// slot every tuple sat in.
fn op_log_state(db: &Database) -> Vec<(Vec<Tuple>, Vec<PartitionInfo>, Vec<CanonicalIndex>)> {
    OP_LOG_RELATIONS
        .iter()
        .map(|(rel, _)| {
            let rows: BTreeMap<Rid, Tuple> = db.scan(rel).unwrap().into_iter().collect();
            let sorted = |rids: &[Rid]| tuple_multiset(rids.iter().map(|r| rows[r].clone()));
            let indexes = db.indexes(rel).unwrap().into_iter().map(|info| {
                let idx = db.index(rel, &info.key).unwrap().unwrap();
                let entries = idx.entries().map(|(k, rids)| (k.clone(), sorted(rids)));
                let partial = sorted(idx.partial_tuples());
                (info.key, info.auto, entries.collect(), partial)
            });
            let tuples = tuple_multiset(rows.values().cloned());
            (tuples, db.partitions(rel).unwrap(), indexes.collect())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One log serves rollback, the WAL and recovery.  Random op programs
    /// over two relations run through `transact`: (a) an aborted program
    /// leaves every tuple multiset, partition catalog and canonical index
    /// exactly as before; (b) a committed program, reopened from its WAL,
    /// equals the in-memory state after the commit; (c) every program
    /// leaves `verify_invariants` holding.
    #[test]
    fn op_log_rollback_and_recovery_agree(seed in any::<u64>()) {
        let fail = |e: &dyn std::fmt::Display| TestCaseError::fail(e.to_string());
        let tmp = TempDir::new(&format!("op-log-{}", seed));
        let open = || Database::open_with(&tmp.0, options_with(Arc::new(NoFault)));
        let names: Vec<&str> = OP_LOG_RELATIONS.iter().map(|(rel, _)| *rel).collect();
        let db = open().map_err(|e| fail(&e))?;
        for (rel, variants) in OP_LOG_RELATIONS {
            let mut def = RelationDef::from_relation(&wide_relation(variants));
            def.name = rel.to_string();
            db.create_relation(def).map_err(|e| fail(&e))?;
        }
        // A secondary index most tuples are partial on.
        db.create_index("wide", AttrSet::from_names(["v0"])).map_err(|e| fail(&e))?;
        let mut rng = TestRng::new(seed);
        db.transact(&names, |tx| run_op_program(tx, &mut rng, 16)).map_err(|e| fail(&e))?;
        db.verify_invariants().map_err(|e| fail(&e))?;
        let before = op_log_state(&db);

        let len = 1 + rng.next_u64() % 24;
        let aborted = db.transact(&names, |tx| {
            run_op_program(tx, &mut rng, len)?;
            Err::<(), _>(CoreError::Invalid("abort".into()))
        });
        prop_assert!(matches!(aborted, Err(CoreError::Invalid(_))), "{:?}", aborted);
        prop_assert_eq!(op_log_state(&db), before, "(a) the abort left a trace");
        db.verify_invariants().map_err(|e| fail(&e))?;

        let len = 1 + rng.next_u64() % 24;
        db.transact(&names, |tx| run_op_program(tx, &mut rng, len)).map_err(|e| fail(&e))?;
        db.verify_invariants().map_err(|e| fail(&e))?;
        let committed = op_log_state(&db);
        drop(db);
        let db = open().map_err(|e| fail(&e))?;
        prop_assert_eq!(op_log_state(&db), committed, "(b) recovery disagrees with the commit");
        db.verify_invariants().map_err(|e| fail(&e))?;
    }
}
