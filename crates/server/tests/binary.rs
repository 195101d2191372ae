//! The `flexrel-server` binary end to end: boot it seeded on an
//! OS-assigned loopback port, serve pipelined sessions and one write
//! session, then SIGTERM it and require a clean drain report.

#![cfg(unix)]

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use flexrel_client::Connection;
use flexrel_core::attrs;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_server::{Request, Response, WriteOp};

const SEEDED: i64 = 500;
const SESSIONS: usize = 3;
const KEYS: i64 = 10;

// Minimal FFI shim for `kill(2)`, like the binary's own `signal` shim: the
// build environment has no libc crate.
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// Kills the server if the test fails before it is signalled, so a failed
/// assertion leaves no process behind.
struct Reap(Option<Child>);

impl Drop for Reap {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// Reads the single `Rows` reply to a pipelined query.
fn rows(conn: &mut Connection) -> Vec<Tuple> {
    match conn.recv().unwrap() {
        Response::Rows(rows) => rows,
        other => panic!("expected rows, got {:?}", other),
    }
}

/// The one-row `COUNT(*)` reply as an integer.
fn count(rows: &[Tuple]) -> i64 {
    assert_eq!(rows.len(), 1, "{:?}", rows);
    match rows[0].get_name("count") {
        Some(Value::Int(n)) => *n,
        other => panic!("count is {:?}", other),
    }
}

#[test]
fn the_binary_serves_sessions_and_drains_on_sigterm() {
    let port_file =
        std::env::temp_dir().join(format!("flexrel-server-binary-{}.port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let mut server = Reap(Some(
        Command::new(env!("CARGO_BIN_EXE_flexrel-server"))
            .args(["--addr", "127.0.0.1:0", "--seed-wide", "500,8,0.8"])
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn flexrel-server"),
    ));

    // The port file holds the full bound address; it is renamed into
    // place, so any content read is complete.
    let started = Instant::now();
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            break addr;
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the server never wrote its port file"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    std::fs::remove_file(&port_file).unwrap();

    // Pipelined read sessions: every statement is sent before any reply is
    // read, and replies come back in request order.
    let mut conns: Vec<Connection> = (0..SESSIONS)
        .map(|_| Connection::connect(addr.as_str()).unwrap())
        .collect();
    for (s, conn) in conns.iter_mut().enumerate() {
        for k in 0..KEYS {
            let id = (s as i64 * 97 + k * 31) % SEEDED;
            for frql in [
                format!("SELECT * FROM wide WHERE id = {}", id),
                format!("SELECT kind, label FROM wide JOIN kinds WHERE id = {}", id),
                "SELECT COUNT(*) FROM wide".to_string(),
            ] {
                conn.send(&Request::Query { frql }).unwrap();
            }
        }
    }
    for (s, conn) in conns.iter_mut().enumerate() {
        for k in 0..KEYS {
            let id = (s as i64 * 97 + k * 31) % SEEDED;
            // The lookup echoes its key.
            let lookup = rows(conn);
            assert_eq!(lookup.len(), 1, "lookup of {}: {:?}", id, lookup);
            assert_eq!(lookup[0].get_name("id"), Some(&Value::Int(id)));
            // The join pairs kind `k{v}` with the seeded label `variant {v}`.
            let join = rows(conn);
            assert_eq!(join.len(), 1, "join of {}: {:?}", id, join);
            match (join[0].get_name("kind"), join[0].get_name("label")) {
                (Some(Value::Tag(k)), Some(Value::Str(l))) => {
                    assert_eq!(format!("variant {}", &k[1..]), l.to_string())
                }
                other => panic!("join row of {} is {:?}", id, other),
            }
            assert_eq!(count(&rows(conn)), SEEDED);
        }
    }
    for conn in conns {
        conn.close().unwrap();
    }

    // One write session: an insert, then its delete, each seen by a count.
    let mut conn = Connection::connect(addr.as_str()).unwrap();
    let row = Tuple::new()
        .with("id", SEEDED)
        .with("kind", Value::tag("k0"))
        .with("v0", 7i64);
    assert_eq!(
        conn.transact("wide", vec![WriteOp::Insert(row)]).unwrap(),
        (1, 0)
    );
    assert_eq!(
        count(&conn.query("SELECT COUNT(*) FROM wide").unwrap()),
        SEEDED + 1
    );
    let delete = WriteOp::DeleteEq {
        key: attrs!["id"],
        key_value: Tuple::new().with("id", SEEDED),
    };
    assert_eq!(conn.transact("wide", vec![delete]).unwrap(), (0, 1));
    assert_eq!(
        count(&conn.query("SELECT COUNT(*) FROM wide").unwrap()),
        SEEDED
    );
    conn.close().unwrap();

    let child = server.0.take().unwrap();
    // SAFETY: `kill(2)` takes two plain integers and touches no memory of
    // this process; the pid is our own child's, not yet reaped.
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0);
    let out = child.wait_with_output().unwrap();
    let log = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "server log:\n{}", log);
    let statements = SESSIONS as i64 * KEYS * 3 + 4;
    let drained = format!(
        "drained: {} sessions, {} ok, 0 err, 0 busy, 0 timeout, 0 protocol",
        SESSIONS + 1,
        statements
    );
    assert!(log.contains(&drained), "no {:?} in:\n{}", drained, log);
}
