//! Building the state a workload runs against.

use std::path::Path;
use std::sync::Arc;

use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_server::{kinds_relation, seed_wide};
use flexrel_storage::{Database, DurabilityOptions, IoFault, RelationDef};
use flexrel_workload::{generate_wide, wide_kind_tag, wide_relation, WideConfig};

use crate::gen::{SKEW, VARIANTS};

/// Tuples per `transact` batch when seeding a durable database.
const SEED_BATCH: usize = 1_000;

/// Client threads (= connections, = durable writer threads): the load
/// comes from this one process, so never more than the box has cores.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get().min(2))
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling client thread to CPU `client` (there are never more
/// clients than CPUs).  Left to the scheduler, a client and the session
/// thread that serves it land on one CPU or on two from run to run, and a
/// statement that crosses CPUs pays an inter-processor wake-up: ten
/// 10-second `point_wire` runs ranged over 9 600–17 900 statements/s
/// unpinned and stayed within 5 % of 17 000 or of 12 000 — the host's two
/// speeds — pinned.  The product's own threads are left alone.  Best
/// effort: where the process may not use that CPU the thread stays unpinned.
pub fn pin_client(client: usize) {
    let mask: u64 = 1 << (client % 64);
    // SAFETY: `pid` 0 names the calling thread, and the call reads
    // `cpusetsize` = 8 bytes from `mask`, which is a live `u64`.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// The in-memory database every `*_wire` workload serves: `wide` with `n`
/// tuples over 8 Zipf(0.5) variants plus the `kinds` dimension.
pub fn mem_db(n: usize) -> Database {
    let db = Database::new();
    seed_wide(&db, n, VARIANTS, SKEW).expect("seeding the in-memory database");
    db
}

/// The durability policy of `write_durable`, stated once: group commit,
/// a checkpoint per MiB of WAL (at the ~55 bytes a commit logs, some
/// 19 000 commits, so several cycles fit a run), background checkpointer
/// on.
fn durability(fault: Arc<dyn IoFault>) -> DurabilityOptions {
    DurabilityOptions {
        group_commit: true,
        checkpoint_bytes: 1 << 20,
        background_checkpoint: true,
        fault,
    }
}

/// Opens (or reopens, replaying the WAL tail) the durable database in `dir`.
pub fn open_durable(dir: &Path, fault: Arc<dyn IoFault>) -> Database {
    Database::open_with(dir, durability(fault)).expect("opening the durable database")
}

/// Creates the same content as [`mem_db`] in a fresh durable database:
/// seeded in 1 000-tuple transactions, then checkpointed so the WAL tail a
/// run leaves behind holds only the run's own commits.
pub fn durable_db(dir: &Path, n: usize, fault: Arc<dyn IoFault>) -> Database {
    let db = open_durable(dir, fault);
    db.create_relation(RelationDef::from_relation(&wide_relation(VARIANTS)))
        .expect("creating wide");
    db.create_relation(RelationDef::from_relation(&kinds_relation(VARIANTS)))
        .expect("creating kinds");
    let tuples = generate_wide(&WideConfig::new(n, VARIANTS).with_skew(SKEW));
    for batch in tuples.chunks(SEED_BATCH) {
        db.transact(&["wide"], |tx| {
            for t in batch {
                tx.insert("wide", t.clone())?;
            }
            Ok(())
        })
        .expect("seeding wide");
    }
    db.transact(&["kinds"], |tx| {
        for v in 0..VARIANTS {
            let row = Tuple::new()
                .with("kind", Value::tag(wide_kind_tag(v)))
                .with("label", format!("variant {}", v));
            tx.insert("kinds", row)?;
        }
        Ok(())
    })
    .expect("seeding kinds");
    db.checkpoint_now().expect("checkpoint after seeding");
    db
}
