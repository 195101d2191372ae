//! The threaded TCP server: session multiplexing over the shared
//! [`Database`] handle, admission control, per-statement deadlines, and
//! graceful drain.
//!
//! The shape is deliberately boring: a non-blocking accept loop polling a
//! shutdown flag, one thread per connection (cheap — sessions spend their
//! life blocked in `read`), and a *global* in-flight statement counter as
//! the backpressure valve.  Because each session executes its requests
//! serially and answers in order, client-side pipelining needs no sequence
//! numbers: response `i` always belongs to request `i`.  When admission
//! control rejects a statement the rejection itself is the in-order
//! response ([`ErrorCode::Busy`]), so a pipelined client never loses track.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use flexrel_query::{run_statement_chunks, ExecOptions, StatementOutcome};
use flexrel_storage::Database;

use crate::proto::{
    decode_request, put_response, put_rows_from_chunks, write_response, ErrorCode, FrameReader,
    FrameWriter, Recv, Request, Response, WireError, WriteOp, PROTOCOL_VERSION,
};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Hard cap on concurrent sessions; connections beyond it are answered
    /// with [`ErrorCode::Busy`] and closed without a session thread.
    pub max_sessions: usize,
    /// Global cap on concurrently executing statements across all
    /// sessions — the backpressure valve.  A statement arriving while the
    /// cap is saturated is answered [`ErrorCode::Busy`] instead of queuing
    /// unbounded work behind the socket buffers.
    pub max_inflight: usize,
    /// Per-statement execution deadline; `None` disables cancellation.
    /// It also bounds how long one reply may take to write: a session whose
    /// peer stops reading is closed once a write stalls this long, instead
    /// of pinning its thread for good.
    pub statement_timeout: Option<Duration>,
}

/// How often idle loops (accept, session reads) wake to poll the shutdown
/// flag.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 4096,
            max_inflight: 64,
            statement_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Monotonic operation counters, shared between the server threads and
/// whoever holds the [`Server`] handle.  All relaxed: these are statistics,
/// not synchronization.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Sessions accepted into a handshake.
    pub sessions_accepted: AtomicU64,
    /// Connections rejected at the session cap (or during drain).
    pub sessions_rejected: AtomicU64,
    /// Statements (queries + transactions) answered successfully.
    pub statements_ok: AtomicU64,
    /// Statements answered with a non-busy, non-timeout error.
    pub statements_err: AtomicU64,
    /// Statements rejected by admission control ([`ErrorCode::Busy`]).
    pub busy_rejections: AtomicU64,
    /// Statements cancelled at the deadline ([`ErrorCode::Timeout`]).
    pub timeouts: AtomicU64,
    /// Corrupt or out-of-order frames received.
    pub protocol_errors: AtomicU64,
}

/// A plain-integer copy of [`ServerStats`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`ServerStats::sessions_accepted`].
    pub sessions_accepted: u64,
    /// See [`ServerStats::sessions_rejected`].
    pub sessions_rejected: u64,
    /// See [`ServerStats::statements_ok`].
    pub statements_ok: u64,
    /// See [`ServerStats::statements_err`].
    pub statements_err: u64,
    /// See [`ServerStats::busy_rejections`].
    pub busy_rejections: u64,
    /// See [`ServerStats::timeouts`].
    pub timeouts: u64,
    /// See [`ServerStats::protocol_errors`].
    pub protocol_errors: u64,
}

impl ServerStats {
    /// Reads every counter once.
    pub fn snapshot(&self) -> StatsSnapshot {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            sessions_accepted: ld(&self.sessions_accepted),
            sessions_rejected: ld(&self.sessions_rejected),
            statements_ok: ld(&self.statements_ok),
            statements_err: ld(&self.statements_err),
            busy_rejections: ld(&self.busy_rejections),
            timeouts: ld(&self.timeouts),
            protocol_errors: ld(&self.protocol_errors),
        }
    }
}

/// An in-flight statement permit: holding one is the right to execute.
/// Dropping it releases the slot.
struct Permit<'a>(&'a AtomicUsize);

impl<'a> Permit<'a> {
    fn try_acquire(counter: &'a AtomicUsize, max: usize) -> Option<Permit<'a>> {
        let prev = counter.fetch_add(1, Ordering::AcqRel);
        if prev >= max {
            counter.fetch_sub(1, Ordering::AcqRel);
            None
        } else {
            Some(Permit(counter))
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

struct Shared {
    db: Database,
    cfg: ServerConfig,
    stats: ServerStats,
    shutdown: AtomicBool,
    inflight: AtomicUsize,
    active_sessions: AtomicUsize,
    next_session: AtomicU64,
}

/// A running server.  Dropping the handle without calling
/// [`Server::shutdown`] aborts rather than drains: always shut down
/// explicitly.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts the accept loop.
    pub fn start<A: ToSocketAddrs>(
        db: Database,
        addr: A,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            cfg,
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            active_sessions: AtomicUsize::new(0),
            next_session: AtomicU64::new(1),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("flexrel-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            addr: local,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the OS-assigned port when `:0` was asked).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live operation counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Requests a graceful drain without blocking: new connections are
    /// refused, sessions finish their in-flight statements, answer what is
    /// already buffered, send [`Response::Bye`] and close.  Call
    /// [`Server::shutdown`] (or [`Server::join`]) to wait.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the accept loop and every session to finish.  Only
    /// returns after [`Server::request_shutdown`] (directly or via
    /// [`Server::shutdown`]) — otherwise it would wait forever.
    pub fn join(&mut self) -> StatsSnapshot {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.stats.snapshot()
    }

    /// Graceful drain: refuse new work, finish in-flight statements, send
    /// [`Response::Bye`] on every session, join all threads, and return
    /// the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.request_shutdown();
        self.join()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut sessions: Vec<thread::JoinHandle<()>> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                sessions.retain(|h| !h.is_finished());
                let active = shared.active_sessions.load(Ordering::Acquire);
                if active >= shared.cfg.max_sessions {
                    shared
                        .stats
                        .sessions_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    refuse(stream, ErrorCode::Busy, "session limit reached");
                    continue;
                }
                shared.active_sessions.fetch_add(1, Ordering::AcqRel);
                let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
                let sess_shared = Arc::clone(&shared);
                // Sessions idle in `read` almost all the time; a small
                // stack keeps thousands of them cheap.
                let spawned = thread::Builder::new()
                    .name(format!("flexrel-session-{}", id))
                    .stack_size(512 * 1024)
                    .spawn(move || {
                        session_loop(stream, id, &sess_shared);
                        sess_shared.active_sessions.fetch_sub(1, Ordering::AcqRel);
                    });
                match spawned {
                    Ok(h) => sessions.push(h),
                    Err(_) => {
                        shared.active_sessions.fetch_sub(1, Ordering::AcqRel);
                        shared
                            .stats
                            .sessions_rejected
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(POLL_INTERVAL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
    // Drain: refuse connections that raced the flag (the listener is
    // non-blocking, so this stops at the first would-block), then wait for
    // the sessions to observe the flag and finish.
    while let Ok((stream, _)) = listener.accept() {
        refuse(stream, ErrorCode::ShuttingDown, "server is shutting down");
    }
    for h in sessions {
        let _ = h.join();
    }
}

/// Best-effort single error response on a connection the server will not
/// serve.
fn refuse(mut stream: TcpStream, code: ErrorCode, message: &str) {
    let _ = stream.set_nodelay(true);
    let _ = write_response(
        &mut stream,
        &Response::Error {
            code,
            message: message.into(),
        },
    );
    let _ = stream.flush();
}

fn session_loop(mut stream: TcpStream, session_id: u64, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    // A socket write timeout cannot be zero; the smallest one still tears
    // down a peer that never reads.
    let write_timeout = shared
        .cfg
        .statement_timeout
        .map(|t| t.max(Duration::from_millis(1)));
    if stream
        .set_read_timeout(Some(POLL_INTERVAL))
        .and_then(|()| stream.set_write_timeout(write_timeout))
        .is_err()
    {
        return;
    }
    shared
        .stats
        .sessions_accepted
        .fetch_add(1, Ordering::Relaxed);
    let mut reader = FrameReader::new();
    let mut frame = FrameWriter::new();
    let mut hello_done = false;
    loop {
        let req = match reader.recv(&mut stream) {
            Ok(Recv::Message(payload)) => match decode_request(payload) {
                Ok(r) => r,
                Err(_) => {
                    shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = write_response(
                        &mut stream,
                        &Response::Error {
                            code: ErrorCode::Protocol,
                            message: "malformed request".into(),
                        },
                    );
                    return;
                }
            },
            Ok(Recv::Idle) => {
                // No complete request pending.  During drain, an idle
                // session with nothing buffered has answered everything in
                // flight: say Bye and close.
                if shared.shutdown.load(Ordering::SeqCst) && !reader.has_partial() {
                    let _ = write_response(&mut stream, &Response::Bye);
                    return;
                }
                continue;
            }
            Ok(Recv::Closed) => return,
            Err(WireError::Io(_)) => return,
            Err(_) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_response(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: "corrupt frame".into(),
                    },
                );
                return;
            }
        };
        let close = handle_request(req, session_id, &mut hello_done, shared, &mut frame);
        // A failed or timed-out write (the peer stopped reading) ends the
        // session: the reply stream is torn, and the thread must not hang.
        if frame.send(&mut stream).is_err() || close {
            return;
        }
    }
}

/// Executes one request, encoding its in-order response into `frame`, and
/// returns whether the session ends after it.
fn handle_request(
    req: Request,
    session_id: u64,
    hello_done: &mut bool,
    shared: &Shared,
    frame: &mut FrameWriter,
) -> bool {
    let stats = &shared.stats;
    if !*hello_done {
        return match req {
            Request::Hello {
                version: PROTOCOL_VERSION,
            } => {
                *hello_done = true;
                reply(
                    frame,
                    Response::HelloOk {
                        version: PROTOCOL_VERSION,
                        session: session_id,
                    },
                    false,
                )
            }
            Request::Hello { version } => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                reply(
                    frame,
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: format!(
                            "unsupported protocol version {} (server speaks {})",
                            version, PROTOCOL_VERSION
                        ),
                    },
                    true,
                )
            }
            _ => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                reply(
                    frame,
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: "first message must be Hello".into(),
                    },
                    true,
                )
            }
        };
    }
    match req {
        Request::Hello { .. } => {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            reply(
                frame,
                Response::Error {
                    code: ErrorCode::Protocol,
                    message: "duplicate Hello".into(),
                },
                true,
            )
        }
        Request::Ping { token } => reply(frame, Response::Pong { token }, false),
        Request::Goodbye => reply(frame, Response::Bye, true),
        Request::Query { frql } => {
            let Some(_permit) = Permit::try_acquire(&shared.inflight, shared.cfg.max_inflight)
            else {
                stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                return reply(frame, busy_response(), false);
            };
            let mut opts = ExecOptions::serial();
            if let Some(t) = shared.cfg.statement_timeout {
                opts = opts.with_deadline(Instant::now() + t);
            }
            // The reply is encoded from the result chunks under the permit
            // and the deadline; on any error the partial payload is
            // replaced by the error response.
            let encoded = run_statement_chunks(&shared.db, &frql, &opts).and_then(|outcome| {
                let out = frame.begin();
                match outcome {
                    StatementOutcome::Rows((chunks, exec)) => {
                        put_rows_from_chunks(out, &chunks, &exec)
                    }
                    StatementOutcome::Explain(text) => {
                        put_response(out, &Response::Explain(text));
                        Ok(())
                    }
                }
            });
            match encoded {
                Ok(()) => {
                    stats.statements_ok.fetch_add(1, Ordering::Relaxed);
                    false
                }
                Err(e) => {
                    let code = ErrorCode::classify(&e);
                    match code {
                        ErrorCode::Timeout => stats.timeouts.fetch_add(1, Ordering::Relaxed),
                        _ => stats.statements_err.fetch_add(1, Ordering::Relaxed),
                    };
                    reply(
                        frame,
                        Response::Error {
                            code,
                            message: e.to_string(),
                        },
                        false,
                    )
                }
            }
        }
        Request::Transact { relation, ops } => {
            let Some(_permit) = Permit::try_acquire(&shared.inflight, shared.cfg.max_inflight)
            else {
                stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                return reply(frame, busy_response(), false);
            };
            match apply_transact(&shared.db, &relation, &ops) {
                Ok((inserted, deleted)) => {
                    stats.statements_ok.fetch_add(1, Ordering::Relaxed);
                    reply(frame, Response::TxnOk { inserted, deleted }, false)
                }
                Err(e) => {
                    stats.statements_err.fetch_add(1, Ordering::Relaxed);
                    reply(
                        frame,
                        Response::Error {
                            code: ErrorCode::classify(&e),
                            message: e.to_string(),
                        },
                        false,
                    )
                }
            }
        }
    }
}

/// Encodes `rsp` as the request's reply; returns `close` for the caller.
fn reply(frame: &mut FrameWriter, rsp: Response, close: bool) -> bool {
    put_response(frame.begin(), &rsp);
    close
}

fn busy_response() -> Response {
    Response::Error {
        code: ErrorCode::Busy,
        message: "server at in-flight statement capacity; retry".into(),
    }
}

/// Applies a write batch as one atomic transaction.  `DeleteEq` resolves
/// its victims *inside* the transaction scope through
/// [`TxnScope::lookup_eq`](flexrel_storage::TxnScope::lookup_eq) — the
/// stored index on the key when there is one, a shape-pruned scan
/// otherwise, under the held write locks, so it sees the batch's own
/// earlier inserts and an acked delete can never race a concurrent writer.
fn apply_transact(
    db: &Database,
    relation: &str,
    ops: &[WriteOp],
) -> flexrel_core::error::Result<(u64, u64)> {
    db.transact(&[relation], |tx| {
        let mut inserted = 0u64;
        let mut deleted = 0u64;
        for op in ops {
            match op {
                WriteOp::Insert(t) => {
                    tx.insert(relation, t.clone())?;
                    inserted += 1;
                }
                WriteOp::DeleteEq { key, key_value } => {
                    for (rid, _) in tx.lookup_eq(relation, key, key_value)? {
                        tx.delete(relation, rid)?;
                        deleted += 1;
                    }
                }
            }
        }
        Ok((inserted, deleted))
    })
}
