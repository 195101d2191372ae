//! The traced pass: times the calls into each layer's public functions
//! from outside, one client, and prints the per-layer metrics.
//!
//! Every workload runs the same probes, because the benchmark's contract
//! wants every per-layer metric from every workload: query, codec and wire
//! probes against an in-memory database behind a server, storage probes
//! against that and a durable one.  What a workload's mix changes is the
//! state the probes see: the workloads that write (`mixed_wire`,
//! `write_durable`) commit a write before every probed statement, as their
//! mix would, so write-invalidated statistics show.

use std::collections::VecDeque;
use std::io::BufWriter;
use std::path::Path as FsPath;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexrel_client::Connection;
use flexrel_query::{
    execute_collect, optimize_with_db, parse, plan_query, run_statement, ExecOptions,
    StatementOutcome,
};
use flexrel_server::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    StatsSnapshot,
};
use flexrel_storage::{Database, FaultAction, IoEvent, IoFault};

use crate::gen::{self, Kind, Op, Seeded};
use crate::load::{closed_loop, NoopSession, Samples, Schedule, Series, WriterSession};
use crate::ops;
use crate::run::{run_clients, WireState};
use crate::trace::{self, Tracer, NO_PARENT};
use crate::{load, setup, stats, Config, Metric, Outcome, Workload};

/// Most iterations of one probe; bounds the trace file.
const MAX_ITERS: usize = 500;
/// Fewest iterations of one probe, however slow the statement.
const MIN_ITERS: usize = 5;
/// The run's seconds are split into this many probe slices.
const SLICES: f64 = 30.0;
/// Ids the probes insert start here: above every ring's id space.
const PROBE_ID_BASE: i64 = 2_000_000_000;

const WRITE_MIX: gen::Mix<'static> = &[(Kind::Insert, 50), (Kind::Delete, 50)];

/// The three ways a statement is driven in the traced pass.
#[derive(Clone, Copy)]
enum Drive {
    /// Stage by stage, each call its own span.
    Staged,
    /// One un-staged `run_statement` call: the embedded end-to-end latency.
    Embedded,
    /// Over loopback through the server, one session.
    Wire,
}

/// Root span names, `stmt.<drive>.<kind>`; static so that recording a span
/// allocates nothing.
fn root_name(drive: Drive, kind: Kind) -> &'static str {
    const NAMES: [[&str; 7]; 3] = [
        [
            "stmt.staged.lookup",
            "stmt.staged.join",
            "stmt.staged.agg",
            "stmt.staged.scan",
            "stmt.staged.group",
            "stmt.staged.insert",
            "stmt.staged.delete",
        ],
        [
            "stmt.embedded.lookup",
            "stmt.embedded.join",
            "stmt.embedded.agg",
            "stmt.embedded.scan",
            "stmt.embedded.group",
            "stmt.embedded.insert",
            "stmt.embedded.delete",
        ],
        [
            "stmt.wire.lookup",
            "stmt.wire.join",
            "stmt.wire.agg",
            "stmt.wire.scan",
            "stmt.wire.group",
            "stmt.wire.insert",
            "stmt.wire.delete",
        ],
    ];
    NAMES[drive as usize][kind.index()]
}

/// The benchmark's own `IoFault` hook: lets every boundary proceed and
/// counts what crosses it.
#[derive(Debug, Default)]
struct IoCounter {
    wal_writes: AtomicU64,
    wal_bytes: AtomicU64,
    wal_syncs: AtomicU64,
    checkpoint_bytes: AtomicU64,
    checkpoints: AtomicU64,
}

#[derive(Clone, Copy)]
struct IoCounts {
    wal_writes: u64,
    wal_bytes: u64,
    wal_syncs: u64,
    checkpoint_bytes: u64,
    checkpoints: u64,
}

impl IoCounter {
    fn read(&self) -> IoCounts {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        IoCounts {
            wal_writes: ld(&self.wal_writes),
            wal_bytes: ld(&self.wal_bytes),
            wal_syncs: ld(&self.wal_syncs),
            checkpoint_bytes: ld(&self.checkpoint_bytes),
            checkpoints: ld(&self.checkpoints),
        }
    }
}

impl IoFault for IoCounter {
    fn intercept(&self, ev: IoEvent) -> FaultAction {
        let add = |a: &AtomicU64, n: usize| a.fetch_add(n as u64, Ordering::Relaxed);
        match ev {
            IoEvent::WalWrite { len } => {
                add(&self.wal_writes, 1);
                add(&self.wal_bytes, len);
            }
            IoEvent::WalSync => {
                add(&self.wal_syncs, 1);
            }
            IoEvent::CheckpointWrite { len } => {
                add(&self.checkpoint_bytes, len);
            }
            IoEvent::CheckpointSync => {}
            // The rename is what makes a checkpoint the live one.
            IoEvent::CheckpointRename => {
                add(&self.checkpoints, 1);
            }
        }
        FaultAction::Proceed
    }
}

/// Median of nanosecond samples, in microseconds.
fn median_us(mut ns: Vec<u64>) -> f64 {
    stats::percentile_us(&mut ns, stats::P50)
}

/// Median of exact per-statement counts.
fn median_count(mut counts: Vec<u64>) -> f64 {
    counts.sort_unstable();
    stats::percentile(&counts, stats::P50) as f64
}

/// Calls `f(i)` for `i = 0, 1, …` until `slice` has passed, at least
/// [`MIN_ITERS`] and at most [`MAX_ITERS`] times.
fn repeat(slice: Duration, mut f: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_ITERS || (i < MAX_ITERS && start.elapsed() < slice) {
        f(i);
        i += 1;
    }
}

/// A one-window schedule of `slice`, no warm-up: how the traced pass reuses
/// the closed loop for its storage probes.
fn one_window(slice: Duration) -> Schedule {
    Schedule {
        start: Instant::now(),
        warmup: Duration::ZERO,
        window: slice,
        windows: 1,
    }
}

struct Probe<'a> {
    wl: &'a Workload,
    cfg: &'a Config,
    seeded: &'a Seeded,
    /// The in-memory database behind the server.
    primary: Database,
    slice: Duration,
    tracer: Tracer,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Statements sent over the wire (what the server must have counted).
    wire_statements: u64,
    next_request: u64,
    next_probe_id: i64,
    /// Picks the variants the probes write into.
    rng: gen::Rng,
}

impl Probe<'_> {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn request_id(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// An insert nothing else issues.
    fn fresh_insert(&mut self, variant: usize) -> Op {
        self.next_probe_id += 1;
        Op {
            kind: Kind::Insert,
            id: self.next_probe_id,
            variant,
        }
    }

    /// In the workloads that write, commits one insert into `variant` and
    /// its delete on the probed database, so the next statement plans
    /// against statistics a write has just invalidated — as it would inside
    /// the mix.  What that costs the statement grows with the partition
    /// written, so statements that are compared get the same `variant`.
    fn write_pressure(&mut self, variant: usize) {
        if !self.wl.writes() {
            return;
        }
        let tuple = ops::insert_tuple(&self.fresh_insert(variant));
        let rid = self
            .primary
            .transact(&["wide"], |tx| tx.insert("wide", tuple));
        self.check(rid.is_ok());
        if let Ok(rid) = rid {
            let gone = self
                .primary
                .transact(&["wide"], |tx| tx.delete("wide", rid));
            self.check(gone.is_ok());
        }
    }

    /// A ring of one query kind.  `agg` and `scan` all select the largest
    /// variant, `k0`, so that every probe of a kind does the same work and
    /// the exact counts repeat.
    fn single_kind_ring(&self, kind: Kind, session: usize) -> Vec<Op> {
        let mut ring = gen::ring(
            &[(kind, 100)],
            MAX_ITERS,
            self.cfg.seed,
            session,
            self.seeded,
        );
        for op in &mut ring {
            op.variant = 0;
        }
        ring
    }

    /// One statement, stage by stage: every layer call is a span under the
    /// root.  Returns the summed duration of the four query stages and the
    /// exact work counts `(chunks, tuples materialized, rows, reply bytes)`.
    fn staged(&mut self, op: &Op) -> Option<(u64, [u64; 4])> {
        let db = self.primary.clone();
        let request = ops::request(op);
        let id = self.request_id();
        let tr = &mut self.tracer;
        let root = tr.begin(id, NO_PARENT, root_name(Drive::Staged, op.kind));
        let bytes = tr.span(id, root, "client.encode_request", || {
            encode_request(&request)
        });
        let decoded = tr.span(id, root, "server.decode_request", || decode_request(&bytes));
        let Ok(Request::Query { frql }) = decoded else {
            return None;
        };
        let mut stages = 0;
        let span = tr.begin(id, root, "query.parse");
        let query = parse(&frql);
        stages += tr.end(span);
        let span = tr.begin(id, root, "query.plan");
        let plan = query.and_then(|q| plan_query(&q, &db.catalog()));
        stages += tr.end(span);
        let span = tr.begin(id, root, "query.optimize");
        let plan = plan.map(|p| optimize_with_db(p, &db).0);
        stages += tr.end(span);
        let span = tr.begin(id, root, "query.execute");
        let result = plan.and_then(|p| execute_collect(&p, &db, &ExecOptions::serial()));
        stages += tr.end(span);
        let (rows, exec) = result.ok()?;
        let n_rows = rows.len() as u64;
        let reply = Response::Rows(rows);
        let out = tr.span(id, root, "server.encode_response", || {
            encode_response(&reply)
        });
        let back = tr.span(id, root, "client.decode_response", || decode_response(&out));
        tr.end(root);
        let ok = back.is_ok_and(|rsp| ops::response_ok(op, &rsp, self.seeded, self.wl.counts()));
        ok.then_some((
            stages,
            [exec.chunks(), exec.materialized(), n_rows, out.len() as u64],
        ))
    }

    /// The same statement through the un-staged entry point; returns its
    /// duration.
    fn embedded(&mut self, op: &Op) -> Option<u64> {
        let frql = ops::frql(op);
        let id = self.request_id();
        let root = self
            .tracer
            .begin(id, NO_PARENT, root_name(Drive::Embedded, op.kind));
        let out = run_statement(&self.primary, &frql, &ExecOptions::serial());
        let ns = self.tracer.end(root);
        let ok = matches!(out, Ok(StatementOutcome::Rows(rows))
            if ops::rows_ok(op, &rows, self.seeded, self.wl.counts()));
        ok.then_some(ns)
    }

    /// The query layers, kind by kind.  Each statement runs both staged
    /// and un-staged, in alternating order, so both see the same state and
    /// the ratio of the two is taken statement by statement.
    fn query_layers(&mut self) {
        for kind in Kind::QUERIES {
            let ring = self.single_kind_ring(kind, 100 + kind.index());
            let mut ratios = Vec::new();
            let mut work: [Vec<u64>; 4] = Default::default();
            repeat(self.slice * 2, |i| {
                let op = &ring[i % ring.len()];
                let written = self.seeded.pick_variant(&mut self.rng);
                let mut staged = None;
                let mut embedded = None;
                for staged_turn in [i % 2 == 0, i % 2 != 0] {
                    self.write_pressure(written);
                    if staged_turn {
                        staged = self.staged(op);
                    } else {
                        embedded = self.embedded(op);
                    }
                }
                self.check(staged.is_some());
                self.check(embedded.is_some());
                if let (Some((stages, counts)), Some(whole)) = (staged, embedded) {
                    ratios.push(stages as f64 / whole as f64);
                    for (all, one) in work.iter_mut().zip(counts) {
                        all.push(one);
                    }
                }
            });
            if ratios.is_empty() {
                // Every statement failed; the run is reported incorrect.
                ratios.push(0.0);
                work.iter_mut().for_each(|w| w.push(0));
            }
            let k = kind.name();
            let staged = root_name(Drive::Staged, kind);
            for (metric, span) in [
                ("query.parse_us", "query.parse"),
                ("query.plan_us", "query.plan"),
                ("query.optimize_us", "query.optimize"),
                ("query.execute_us", "query.execute"),
                ("server.encode_response_us", "server.encode_response"),
                ("client.decode_response_us", "client.decode_response"),
            ] {
                let us = median_us(self.tracer.durations(staged, span));
                self.push(format!("{}.{}", metric, k), us, "us");
            }
            let [chunks, materialized, rows, bytes] = work;
            self.push(format!("query.chunks.{}", k), median_count(chunks), "count");
            self.push(
                format!("query.tuples_materialized.{}", k),
                median_count(materialized),
                "count",
            );
            self.push(
                format!("query.rows_returned.{}", k),
                median_count(rows),
                "count",
            );
            self.push(
                format!("server.response_bytes.{}", k),
                median_count(bytes),
                "bytes",
            );
            let embedded = root_name(Drive::Embedded, kind);
            let run_us = median_us(self.tracer.durations(embedded, embedded));
            self.push(format!("query.run_statement_us.{}", k), run_us, "us");
            let ratio = stats::median(&ratios);
            if !(0.9..=1.1).contains(&ratio) {
                eprintln!("warning: trace.stage_sum_ratio.{} = {:.3}: the stages do not add up to run_statement", k, ratio);
            }
            self.push(format!("trace.stage_sum_ratio.{}", k), ratio, "ratio");
        }
        // Requests are a few dozen bytes whatever the kind: one pooled row.
        let pooled = |tr: &Tracer, span| {
            median_us(
                Kind::QUERIES
                    .iter()
                    .flat_map(|k| tr.durations(root_name(Drive::Staged, *k), span))
                    .collect(),
            )
        };
        let encode = pooled(&self.tracer, "client.encode_request");
        let decode = pooled(&self.tracer, "server.decode_request");
        self.push("client.encode_request_us", encode, "us");
        self.push("server.decode_request_us", decode, "us");
    }

    /// One wire statement: `send` and `recv` are the two spans.
    fn wire_statement(&mut self, conn: &mut Connection, op: &Op, request: &Request) -> bool {
        let id = self.request_id();
        let tr = &mut self.tracer;
        let root = tr.begin(id, NO_PARENT, root_name(Drive::Wire, op.kind));
        let sent = tr.span(id, root, "client.send", || conn.send(request));
        let reply = tr.span(id, root, "client.recv_wait", || conn.recv());
        tr.end(root);
        self.wire_statements += 1;
        sent.is_ok()
            && reply.is_ok_and(|rsp| ops::response_ok(op, &rsp, self.seeded, self.wl.counts()))
    }

    /// The wire path, one session: ping floor, every kind's round trip
    /// split into send and wait, and what no layer accounts for.
    fn wire_layers(&mut self, conn: &mut Connection) {
        let mut pings = Vec::with_capacity(4 * MAX_ITERS);
        let start = Instant::now();
        while pings.len() < 4 * MAX_ITERS
            && (pings.len() < MIN_ITERS || start.elapsed() < self.slice)
        {
            let sent = Instant::now();
            let ok = conn.ping(pings.len() as u64).is_ok();
            pings.push(sent.elapsed().as_nanos() as u64);
            self.check(ok);
        }
        let ping_us = median_us(pings);
        self.push("server.ping_rtt_us", ping_us, "us");

        for kind in Kind::QUERIES {
            let ring = self.single_kind_ring(kind, 200 + kind.index());
            let requests: Vec<Request> = ring.iter().map(ops::request).collect();
            repeat(self.slice, |i| {
                let i = i % ring.len();
                let written = self.seeded.pick_variant(&mut self.rng);
                self.write_pressure(written);
                let ok = self.wire_statement(conn, &ring[i], &requests[i]);
                self.check(ok);
            });
        }
        // Writes follow a ring so that every delete finds its insert;
        // whatever is live when the slice ends is deleted after it.
        let ring = gen::ring(WRITE_MIX, 2 * MAX_ITERS, self.cfg.seed, 207, self.seeded);
        let mut live = VecDeque::new();
        let start = Instant::now();
        for (i, op) in ring.iter().enumerate() {
            if i >= 2 * MIN_ITERS && start.elapsed() >= self.slice * 2 {
                break;
            }
            let ok = self.wire_statement(conn, op, &ops::request(op));
            self.check(ok);
            match op.kind {
                Kind::Insert if ok => live.push_back(op.id),
                Kind::Delete => {
                    live.pop_front();
                }
                _ => {}
            }
        }
        for id in live {
            let op = Op {
                kind: Kind::Delete,
                id,
                variant: 0,
            };
            let ok = self.wire_statement(conn, &op, &ops::request(&op));
            self.check(ok);
        }

        let send = median_us(
            Kind::ALL
                .iter()
                .flat_map(|k| {
                    self.tracer
                        .durations(root_name(Drive::Wire, *k), "client.send")
                })
                .collect(),
        );
        self.push("client.send_us", send, "us");
        for kind in Kind::ALL {
            let root = root_name(Drive::Wire, kind);
            let k = kind.name();
            let wait = median_us(self.tracer.durations(root, "client.recv_wait"));
            let p50 = median_us(self.tracer.durations(root, root));
            self.push(format!("client.recv_wait_us.{}", k), wait, "us");
            self.push(format!("wire.p50_us.{}", k), p50, "us");
            if kind == Kind::Delete {
                self.push("storage.delete_eq_us", p50 - ping_us, "us");
            }
        }
        for kind in Kind::QUERIES {
            let metric = |m: &Probe<'_>, name: &str| {
                let full = format!("{}.{}", name, kind.name());
                let pooled = m.metrics.iter().find(|x| x.name == full || x.name == name);
                pooled.expect("pushed by an earlier probe").value
            };
            let attributed = metric(self, "query.run_statement_us")
                + metric(self, "client.encode_request_us")
                + metric(self, "server.decode_request_us")
                + metric(self, "server.encode_response_us")
                + metric(self, "client.decode_response_us")
                + ping_us;
            let rest = metric(self, "wire.p50_us") - attributed;
            self.push(format!("wire.unattributed_us.{}", kind.name()), rest, "us");
        }
    }

    /// The closed loop over a transport that answers instantly.
    fn loop_overhead(&mut self) {
        let ring = self.single_kind_ring(Kind::Lookup, 300);
        let canned = ring
            .iter()
            .map(|op| Response::Rows(vec![ops::insert_tuple(op)]))
            .collect();
        let mut session = NoopSession {
            ops: &ring,
            seeded: self.seeded,
            canned,
        };
        let mut samples = Samples::new();
        let start = Instant::now();
        closed_loop(
            &mut session,
            &ring,
            &one_window(self.slice / 2),
            &mut samples,
        );
        let us = start.elapsed().as_secs_f64() * 1e6 / samples.attempted as f64;
        // Canned replies are not operations of the system: a wrong one
        // fails the run, but they are not counted as attempted.
        self.failed += samples.failed;
        self.push("driver.loop_overhead_us", us, "us");
    }

    /// One embedded writer on `db` for a slice; returns the `(insert,
    /// delete)` commit medians in µs.
    fn writer_p50(&mut self, db: &Database, session: usize) -> (f64, f64) {
        let ring = gen::ring(
            WRITE_MIX,
            gen::RING_LEN,
            self.cfg.seed,
            session,
            self.seeded,
        );
        let mut writer = WriterSession::new(db.clone(), &ring);
        let mut samples = Samples::new();
        let sched = one_window(self.slice);
        closed_loop(&mut writer, &ring, &sched, &mut samples);
        let (cleaned, failed) = writer.cleanup();
        self.attempted += samples.attempted + cleaned;
        self.failed += samples.failed + failed;
        let sum = load::summarize(&[samples], &sched);
        let p50 = |kind: Kind| sum.p50_us[kind.index()].as_ref().map_or(0.0, Series::value);
        (p50(Kind::Insert), p50(Kind::Delete))
    }

    /// The storage layer: type check, commit cost in memory and on disk,
    /// snapshot and statistics, what the WAL and the checkpointer write.
    fn storage_layers(&mut self, durable: &Database, io: &IoCounter) {
        let mut check = Vec::new();
        repeat(self.slice / 2, |_| {
            let variant = self.seeded.pick_variant(&mut self.rng);
            let tuple = ops::insert_tuple(&self.fresh_insert(variant));
            let start = Instant::now();
            let ok = self.primary.check_insert("wide", &tuple).is_ok();
            check.push(start.elapsed().as_nanos() as u64);
            self.check(ok);
        });
        self.push("core.check_insert_us", median_us(check), "us");

        let (mem_insert, mem_delete) = self.writer_p50(&self.primary.clone(), 400);
        self.push("storage.transact_mem_us.insert", mem_insert, "us");
        self.push("storage.transact_mem_us.delete", mem_delete, "us");

        let mut snapshot = Vec::new();
        let mut warm = Vec::new();
        let mut after_write = Vec::new();
        let primary = self.primary.clone();
        let timed = |into: &mut Vec<u64>, f: &dyn Fn() -> bool| {
            let start = Instant::now();
            let ok = f();
            into.push(start.elapsed().as_nanos() as u64);
            ok
        };
        repeat(self.slice / 4, |_| {
            let ok = timed(&mut snapshot, &|| {
                primary.partition_snapshot("wide").is_ok()
            });
            self.check(ok);
        });
        self.check(primary.table_stats("wide").is_ok());
        repeat(self.slice / 4, |_| {
            let ok = timed(&mut warm, &|| primary.table_stats("wide").is_ok());
            self.check(ok);
        });
        repeat(self.slice / 2, |_| {
            let variant = self.seeded.pick_variant(&mut self.rng);
            let tuple = ops::insert_tuple(&self.fresh_insert(variant));
            let rid = primary.transact(&["wide"], |tx| tx.insert("wide", tuple));
            let ok = timed(&mut after_write, &|| primary.table_stats("wide").is_ok());
            let gone = rid.and_then(|rid| primary.transact(&["wide"], |tx| tx.delete("wide", rid)));
            self.check(ok && gone.is_ok());
        });
        self.push("storage.snapshot_us", median_us(snapshot), "us");
        self.push("storage.table_stats_us.warm", median_us(warm), "us");
        self.push(
            "storage.table_stats_us.after_write",
            median_us(after_write),
            "us",
        );

        // What the WAL writes per commit with every writer thread busy
        // (group commit batches them), and how often it checkpoints.
        let rings: Vec<Vec<Op>> = (0..setup::clients())
            .map(|c| {
                gen::ring(
                    WRITE_MIX,
                    gen::RING_LEN,
                    self.cfg.seed,
                    500 + c,
                    self.seeded,
                )
            })
            .collect();
        let mut writers: Vec<WriterSession<'_>> = rings
            .iter()
            .map(|ring| WriterSession::new(durable.clone(), ring))
            .collect();
        let before = io.read();
        let (samples, _) = run_clients(&mut writers, &rings, self.slice.as_secs_f64() * 3.0);
        let mut commits: u64 = samples.iter().map(|s| s.attempted).sum();
        self.failed += samples.iter().map(|s| s.failed).sum::<u64>();
        for writer in &mut writers {
            let (cleaned, failed) = writer.cleanup();
            commits += cleaned;
            self.failed += failed;
        }
        self.attempted += commits;
        let after = io.read();
        let per_commit = |a: u64, b: u64| (a - b) as f64 / commits as f64;
        self.push(
            "storage.fsyncs_per_commit",
            per_commit(after.wal_syncs, before.wal_syncs),
            "ratio",
        );
        self.push(
            "storage.wal_writes_per_commit",
            per_commit(after.wal_writes, before.wal_writes),
            "ratio",
        );
        self.push(
            "storage.wal_bytes_per_commit",
            per_commit(after.wal_bytes, before.wal_bytes),
            "bytes",
        );
        self.push(
            "storage.checkpoints",
            (after.checkpoints - before.checkpoints) as f64,
            "count",
        );

        let before = io.read();
        let start = Instant::now();
        let cut = durable.checkpoint_now();
        let checkpoint_s = start.elapsed().as_secs_f64();
        self.check(cut.is_ok());
        self.push("storage.checkpoint_s", checkpoint_s, "s");
        self.push(
            "storage.checkpoint_bytes",
            (io.read().checkpoint_bytes - before.checkpoint_bytes) as f64,
            "bytes",
        );

        // Last on the durable database, so the WAL tail the reopen replays
        // is these commits.
        let (insert, delete) = self.writer_p50(durable, 401);
        self.push("storage.transact_durable_us.insert", insert, "us");
        self.push("storage.transact_durable_us.delete", delete, "us");
        self.push("storage.wal_fsync_us", insert - mem_insert, "us");
    }

    /// What the server counted must be what the probe sent.
    fn server_counters(&mut self, server: StatsSnapshot) {
        self.push("server.statements_ok", server.statements_ok as f64, "count");
        self.push("server.busy", server.busy_rejections as f64, "count");
        self.push("server.timeouts", server.timeouts as f64, "count");
        self.push(
            "server.protocol_errors",
            server.protocol_errors as f64,
            "count",
        );
        let clean = server.busy_rejections == 0
            && server.timeouts == 0
            && server.protocol_errors == 0
            && (self.failed > 0 || server.statements_ok == self.wire_statements);
        if !clean {
            eprintln!(
                "server counters are off: {:?}, {} wire statements sent",
                server, self.wire_statements
            );
        }
        self.check(clean);
    }

    /// Reopens the durable database from its files: recovery time, and the
    /// seeded content must be back.
    fn recovery(&mut self, dir: &FsPath, io: Arc<IoCounter>) {
        let start = Instant::now();
        let db = setup::open_durable(dir, io);
        let recovery_s = start.elapsed().as_secs_f64();
        let replayed = db.recovery_info().map_or(0, |r| r.replayed_commits);
        self.push("storage.recovery_s", recovery_s, "s");
        self.push(
            "storage.recovery_replayed_commits",
            replayed as f64,
            "count",
        );
        self.push(
            "storage.recovery_us_per_commit",
            recovery_s * 1e6 / replayed.max(1) as f64,
            "us",
        );
        let restored = db.count("wide").is_ok_and(|c| c == self.cfg.n);
        let invariants = db.verify_invariants().is_ok();
        if !(restored && invariants) {
            eprintln!(
                "reopen check failed: count={:?} invariants={}",
                db.count("wide"),
                invariants
            );
        }
        self.check(restored && invariants);
    }
}

/// Resident set size of this process in MiB, from `/proc/self/status`.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn traced(wl: &Workload, cfg: &Config, out_dir: &FsPath) -> Outcome {
    let io = Arc::new(IoCounter::default());
    let seeded = Seeded::new(cfg.n);
    let state = WireState::build(setup::mem_db(cfg.n));
    let mut conn = state.connect();
    let dir = cfg.scratch.join("durable");
    let durable = setup::durable_db(&dir, cfg.n, io.clone());
    let mut probe = Probe {
        wl,
        cfg,
        seeded: &seeded,
        primary: state.db.clone(),
        slice: Duration::from_secs_f64(cfg.seconds / SLICES),
        tracer: Tracer::with_capacity(MAX_ITERS * 128),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        wire_statements: 0,
        next_request: 0,
        next_probe_id: PROBE_ID_BASE,
        rng: gen::Rng::new(cfg.seed),
    };

    probe.query_layers();
    probe.wire_layers(&mut conn);
    probe.loop_overhead();
    probe.storage_layers(&durable, &io);

    let closed = conn.close().is_ok();
    probe.check(closed);
    let server = state.server.shutdown();
    probe.server_counters(server);
    let mem_restored =
        state.db.count("wide").is_ok_and(|c| c == cfg.n) && state.db.verify_invariants().is_ok();
    probe.check(mem_restored);
    // The reopen must read the files alone: drop the handle first.
    drop(durable);
    probe.recovery(&dir, io);
    probe.push("process.rss_mb", rss_mb(), "MiB");

    let trace_path = out_dir.join(format!("trace-{}.jsonl", wl.name));
    let written = std::fs::File::create(&trace_path)
        .and_then(|f| probe.tracer.write_jsonl(BufWriter::new(f)));
    match written {
        Ok(()) => {
            // Root self time is what the stages do not cover: the cost of
            // recording the spans themselves.
            let spans = probe.tracer.spans();
            let overhead: Vec<u64> = trace::self_times(spans)
                .into_iter()
                .zip(spans)
                .filter(|(_, s)| s.name.starts_with("stmt.staged."))
                .map(|(ns, _)| ns)
                .collect();
            println!(
                "  {} spans written to {}; staged root self time (tracing overhead) p50 {:.2} us",
                spans.len(),
                trace_path.display(),
                median_us(overhead)
            );
        }
        Err(e) => eprintln!("could not write {}: {}", trace_path.display(), e),
    }
    Outcome {
        correct: probe.failed == 0,
        attempted: probe.attempted,
        failed: probe.failed,
        metrics: probe.metrics,
    }
}
