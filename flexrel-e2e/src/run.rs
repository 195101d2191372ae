//! The measured (untraced) run: set-up, closed-loop windows, post-run
//! checks, end-to-end metrics.

use std::sync::Arc;
use std::time::Instant;

use flexrel_client::Connection;
use flexrel_server::{Server, ServerConfig};
use flexrel_storage::{Database, NoFault};

use crate::gen::{self, Op, Seeded, RING_LEN};
use crate::load::{
    closed_loop, Samples, Schedule, Series, Session, Summary, WireSession, WriterSession,
};
use crate::{load, setup, stats, Config, Metric, Outcome, Path, Workload};

/// How many times a run builds its state; `setup_s` is the median.
const SETUP_BUILDS: usize = 9;

/// The in-memory database behind an in-process server on loopback.
pub struct WireState {
    pub db: Database,
    pub server: Server,
}

impl WireState {
    pub fn build(db: Database) -> Self {
        let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default())
            .expect("starting the server on loopback");
        WireState { db, server }
    }

    pub fn connect(&self) -> Connection {
        Connection::connect(self.server.local_addr()).expect("connecting to the in-process server")
    }
}

/// Builds the state [`SETUP_BUILDS`] times, keeps the last build and
/// returns the median build time.  Earlier builds are torn down after
/// their clock has stopped.
fn timed_setup<S>(mut build: impl FnMut(usize) -> S, mut teardown: impl FnMut(S)) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_BUILDS);
    let mut kept = None;
    for i in 0..SETUP_BUILDS {
        let start = Instant::now();
        let state = build(i);
        times.push(start.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(state) {
            teardown(old);
        }
    }
    (kept.expect("at least one build"), stats::median(&times))
}

/// Runs every client's closed loop on its own thread and CPU, all on one
/// schedule.
pub fn run_clients<S: Session + Send>(
    sessions: &mut [S],
    rings: &[Vec<Op>],
    seconds: f64,
) -> (Vec<Samples>, Schedule) {
    let mut samples: Vec<Samples> = sessions.iter().map(|_| Samples::new()).collect();
    let sched = Schedule::new(seconds);
    std::thread::scope(|scope| {
        for (c, ((session, ring), out)) in sessions
            .iter_mut()
            .zip(rings)
            .zip(samples.iter_mut())
            .enumerate()
        {
            let sched = &sched;
            scope.spawn(move || {
                setup::pin_client(c);
                closed_loop(session, ring, sched, out)
            });
        }
    });
    (samples, sched)
}

fn rings(wl: &Workload, cfg: &Config, seeded: &Seeded) -> Vec<Vec<Op>> {
    (0..setup::clients())
        .map(|c| gen::ring(wl.mix, RING_LEN, cfg.seed, c, seeded))
        .collect()
}

/// The end-to-end metrics of a run, as measured.
fn end_to_end(wl: &Workload, setup_s: f64, sum: &Summary) -> Vec<Metric> {
    let p50 = |kind: gen::Kind, name: &str| {
        let series = sum.p50_us[kind.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("{} issued no {} in some window", wl.name, kind.name()));
        Metric::new(name, series.value(), "us").note(format!(
            "{}_p50_us, {} samples",
            kind.name(),
            series.samples
        ))
    };
    vec![
        Metric::new("setup_s", setup_s, "s").note(format!("median of {} builds", SETUP_BUILDS)),
        Metric::new("throughput_stmts_s", sum.throughput.value(), "1/s")
            .note(format!("{} verified-ok statements", sum.throughput.samples)),
        p50(wl.light, "light_p50_us"),
        p50(wl.heavy, "heavy_p50_us"),
    ]
}

/// Prints what the JSON does not carry: every series window by window
/// with its plain median, for every kind the workload issues.
fn print_detail(sum: &Summary) {
    let row = |name: String, series: &Series| {
        let windows: Vec<String> = series
            .per_window
            .iter()
            .map(|v| format!("{:.0}", v))
            .collect();
        println!(
            "  {:<20} median window {:>10.1}, by window: {}",
            name,
            series.median(),
            windows.join(" ")
        );
    };
    row("throughput_stmts_s".to_string(), &sum.throughput);
    for kind in gen::Kind::ALL {
        if let Some(series) = &sum.p50_us[kind.index()] {
            row(format!("{}_p50_us", kind.name()), series);
        }
    }
    // Not gated: over ten runs it spread by 21–31 % of its median on
    // `point_wire` and `write_durable`, whatever the statistic over windows.
    row(
        format!("stmt_p{}_us", sum.tail_per_mille as f64 / 10.0),
        &sum.tail_us,
    );
}

fn measured_wire(wl: &Workload, cfg: &Config) -> Outcome {
    let (state, setup_s) = timed_setup(
        |_| WireState::build(setup::mem_db(cfg.n)),
        |old: WireState| {
            old.server.shutdown();
        },
    );
    let seeded = Seeded::new(cfg.n);
    let rings = rings(wl, cfg, &seeded);
    let mut sessions: Vec<WireSession<'_>> = rings
        .iter()
        .map(|ring| WireSession::new(state.connect(), ring, &seeded, wl.counts()))
        .collect();

    let (samples, sched) = run_clients(&mut sessions, &rings, cfg.seconds);

    let mut attempted: u64 = samples.iter().map(|s| s.attempted).sum();
    let mut failed: u64 = samples.iter().map(|s| s.failed).sum();
    for session in &mut sessions {
        let (a, f) = session.cleanup();
        attempted += a;
        failed += f;
    }
    for session in sessions {
        failed += u64::from(session.conn.close().is_err());
    }
    let server = state.server.shutdown();
    let restored = state.db.count("wide").is_ok_and(|c| c == cfg.n);
    let invariants = state.db.verify_invariants().is_ok();
    // Two sessions never legitimately hit `max_inflight` = 64, so `Busy`
    // and `Timeout` are failures here, and the server must have answered
    // exactly what the clients counted.
    let server_clean = server.protocol_errors == 0
        && server.busy_rejections == 0
        && server.timeouts == 0
        && (failed > 0 || server.statements_ok == attempted);
    if !(restored && invariants && server_clean) {
        eprintln!(
            "post-run check failed: restored={} invariants={} server={:?} attempted={}",
            restored, invariants, server, attempted
        );
    }
    let sum = load::summarize(&samples, &sched);
    print_detail(&sum);
    Outcome {
        correct: failed == 0 && restored && invariants && server_clean,
        attempted,
        failed,
        metrics: end_to_end(wl, setup_s, &sum),
    }
}

fn measured_durable(wl: &Workload, cfg: &Config) -> Outcome {
    let dir = |i: usize| cfg.scratch.join(format!("durable-{}", i));
    let (db, setup_s) = timed_setup(
        |i| (i, setup::durable_db(&dir(i), cfg.n, Arc::new(NoFault))),
        |(i, old)| {
            drop(old);
            let _ = std::fs::remove_dir_all(dir(i));
        },
    );
    let (last, db) = db;
    let seeded = Seeded::new(cfg.n);
    let rings = rings(wl, cfg, &seeded);
    let mut sessions: Vec<WriterSession<'_>> = rings
        .iter()
        .map(|ring| WriterSession::new(db.clone(), ring))
        .collect();

    let (samples, sched) = run_clients(&mut sessions, &rings, cfg.seconds);

    let attempted: u64 = samples.iter().map(|s| s.attempted).sum();
    let failed: u64 = samples.iter().map(|s| s.failed).sum();
    let live: usize = sessions.iter().map(WriterSession::live).sum();
    // Drop every handle (the checkpointer is joined), then reopen from the
    // files alone: every acked write must be there.
    drop(sessions);
    drop(db);
    let start = Instant::now();
    let db = setup::open_durable(&dir(last), Arc::new(NoFault));
    let recovery_s = start.elapsed().as_secs_f64();
    let survived = db.count("wide").is_ok_and(|c| c == cfg.n + live);
    let invariants = db.verify_invariants().is_ok();
    if !(survived && invariants) {
        eprintln!(
            "reopen check failed: count={:?} expected={} invariants={}",
            db.count("wide"),
            cfg.n + live,
            invariants
        );
    }
    println!(
        "  reopen {:.4} s, {} commits replayed, {} acked inserts live",
        recovery_s,
        db.recovery_info().map_or(0, |r| r.replayed_commits),
        live
    );
    let sum = load::summarize(&samples, &sched);
    print_detail(&sum);
    Outcome {
        correct: failed == 0 && survived && invariants,
        attempted,
        failed,
        metrics: end_to_end(wl, setup_s, &sum),
    }
}

pub fn measured(wl: &Workload, cfg: &Config) -> Outcome {
    match wl.path {
        Path::Wire => measured_wire(wl, cfg),
        Path::Durable => measured_durable(wl, cfg),
    }
}
