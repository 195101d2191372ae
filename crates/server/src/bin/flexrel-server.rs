//! The `flexrel-server` binary: binds a TCP address, optionally seeds the
//! wide benchmark schema, and serves until SIGTERM/SIGINT, then drains
//! gracefully.
//!
//! ```text
//! flexrel-server [--addr HOST:PORT] [--seed-wide N[,VARIANTS[,SKEW]]]
//!                [--max-sessions N] [--max-inflight N]
//!                [--timeout-ms N] [--port-file PATH]
//! ```
//!
//! `--port-file` writes the bound address (useful with `--addr 127.0.0.1:0`
//! under test harnesses) after the listener is up, so a supervisor can
//! `wait`-free poll for readiness.  The signal handlers are installed
//! before the listener starts, so a supervisor may send SIGTERM as soon as
//! the file appears and still get a drain.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use flexrel_server::{seed_wide, Server, ServerConfig};
use flexrel_storage::Database;

/// Set from the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        // Only async-signal-safe work here: one atomic store.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    // Minimal FFI shim for `signal(2)`; the build environment has no libc
    // crate, and this is the only libc symbol the binary needs.
    extern "C" {
        fn signal(sig: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        // SAFETY: the declaration matches `signal(2)` (`sighandler_t` is a
        // pointer-sized function pointer), and `on_signal` is an
        // `extern "C" fn(i32)` that only stores to an atomic, which is
        // async-signal-safe.  The previous handlers it returns are ignored.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
}

struct Args {
    addr: String,
    seed: Option<(usize, usize, f64)>,
    max_sessions: usize,
    max_inflight: usize,
    timeout_ms: u64,
    port_file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        seed: None,
        max_sessions: 4096,
        max_inflight: 64,
        timeout_ms: 5000,
        port_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{} requires a value", name))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--seed-wide" => {
                let spec = value("--seed-wide")?;
                let mut parts = spec.split(',');
                let n = parts
                    .next()
                    .unwrap_or("")
                    .parse::<usize>()
                    .map_err(|_| format!("bad --seed-wide count in {:?}", spec))?;
                let variants = match parts.next() {
                    Some(v) => v
                        .parse::<usize>()
                        .map_err(|_| format!("bad --seed-wide variants in {:?}", spec))?,
                    None => 8,
                };
                let skew = match parts.next() {
                    Some(s) => s
                        .parse::<f64>()
                        .map_err(|_| format!("bad --seed-wide skew in {:?}", spec))?,
                    None => 0.5,
                };
                args.seed = Some((n, variants, skew));
            }
            "--max-sessions" => {
                args.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|_| "bad --max-sessions".to_string())?
            }
            "--max-inflight" => {
                args.max_inflight = value("--max-inflight")?
                    .parse()
                    .map_err(|_| "bad --max-inflight".to_string())?
            }
            "--timeout-ms" => {
                args.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| "bad --timeout-ms".to_string())?
            }
            "--port-file" => args.port_file = Some(value("--port-file")?),
            "--help" | "-h" => {
                return Err(
                    "usage: flexrel-server [--addr HOST:PORT] [--seed-wide N[,VARIANTS[,SKEW]]] \
                     [--max-sessions N] [--max-inflight N] [--timeout-ms N] [--port-file PATH]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {:?}", other)),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{}", msg);
            return ExitCode::FAILURE;
        }
    };

    // Before the port file announces readiness: a SIGTERM sent the moment
    // it appears must drain, not kill the process by default disposition.
    sig::install();

    let db = Database::new();
    if let Some((n, variants, skew)) = args.seed {
        if let Err(e) = seed_wide(&db, n, variants, skew) {
            eprintln!("seeding failed: {}", e);
            return ExitCode::FAILURE;
        }
        eprintln!(
            "seeded wide: {} tuples, {} variants, skew {}",
            n, variants, skew
        );
    }

    let cfg = ServerConfig {
        max_sessions: args.max_sessions,
        max_inflight: args.max_inflight,
        statement_timeout: (args.timeout_ms > 0).then(|| Duration::from_millis(args.timeout_ms)),
    };
    let server = match Server::start(db, args.addr.as_str(), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {} failed: {}", args.addr, e);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    if let Some(path) = &args.port_file {
        // Write to a temp name then rename, so a poller never reads a
        // half-written address.
        let tmp = format!("{}.tmp", path);
        if std::fs::write(&tmp, addr.to_string())
            .and_then(|_| std::fs::rename(&tmp, path))
            .is_err()
        {
            eprintln!("could not write port file {}", path);
            server.shutdown();
            return ExitCode::FAILURE;
        }
    }
    eprintln!("flexrel-server listening on {}", addr);

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("draining...");
    let stats = server.shutdown();
    eprintln!(
        "drained: {} sessions, {} ok, {} err, {} busy, {} timeout, {} protocol",
        stats.sessions_accepted,
        stats.statements_ok,
        stats.statements_err,
        stats.busy_rejections,
        stats.timeouts,
        stats.protocol_errors
    );
    ExitCode::SUCCESS
}
