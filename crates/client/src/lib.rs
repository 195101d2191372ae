//! # flexrel-client
//!
//! A small blocking TCP client for the flexrel wire protocol
//! ([`flexrel_server::proto`]).  Two usage styles:
//!
//! * **Call/response** — [`Connection::query`], [`Connection::transact`],
//!   [`Connection::ping`]: send one request, wait for its response.
//! * **Pipelined** — [`Connection::send`] any number of requests without
//!   waiting, then [`Connection::recv`] their responses in order.  The
//!   server answers strictly in request order, so position is identity;
//!   this is what the closed-loop load driver builds on.

#![deny(missing_docs)]

use std::net::{TcpStream, ToSocketAddrs};

use flexrel_core::tuple::Tuple;
use flexrel_server::proto::{
    decode_response, put_request, ErrorCode, FrameReader, FrameWriter, Recv, Request, Response,
    WireError, WriteOp, PROTOCOL_VERSION,
};

/// Client-side errors: transport/wire failures, or a typed error response
/// from the server.
#[derive(Debug)]
pub enum ClientError {
    /// The wire failed (I/O, corruption, protocol breakage).
    Wire(WireError),
    /// The server answered with a typed error.
    Server {
        /// The server's error class.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The server answered with a structurally valid but unexpected
    /// response (e.g. `Pong` to a query).
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{}", e),
            ClientError::Server { code, message } => {
                write!(f, "server error [{}]: {}", code, message)
            }
            ClientError::Unexpected(msg) => write!(f, "unexpected response: {}", msg),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

impl ClientError {
    /// Whether this is a server `Busy` rejection (admission control) — the
    /// retryable backpressure signal.
    pub fn is_busy(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Busy,
                ..
            }
        )
    }

    /// Whether this is a server `Timeout` (statement cancelled at the
    /// deadline).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Timeout,
                ..
            }
        )
    }
}

/// One connection to a flexrel server (one server-side session).
pub struct Connection {
    stream: TcpStream,
    reader: FrameReader,
    frame: FrameWriter,
    session: u64,
    /// Requests sent but not yet answered (pipelining depth).
    pending: usize,
}

impl Connection {
    /// Connects and performs the `Hello` handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Connection, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Connection {
            stream,
            reader: FrameReader::new(),
            frame: FrameWriter::new(),
            session: 0,
            pending: 0,
        };
        conn.send(&Request::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match conn.recv()? {
            Response::HelloOk { session, .. } => {
                conn.session = session;
                Ok(conn)
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{:?}", other))),
        }
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Number of requests sent whose responses have not been received.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Sends one request without waiting for its response (pipelining).
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        put_request(self.frame.begin(), req);
        self.frame.send(&mut self.stream)?;
        self.pending += 1;
        Ok(())
    }

    /// Receives the next response, in request order.  Blocks.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        loop {
            match self.reader.recv(&mut self.stream)? {
                Recv::Message(payload) => {
                    self.pending = self.pending.saturating_sub(1);
                    return Ok(decode_response(payload)?);
                }
                Recv::Idle => continue,
                Recv::Closed => {
                    return Err(ClientError::Wire(WireError::Protocol(
                        "server closed the connection with responses pending".into(),
                    )))
                }
            }
        }
    }

    /// Receives the next response and converts server errors into
    /// [`ClientError::Server`].
    pub fn recv_ok(&mut self) -> Result<Response, ClientError> {
        match self.recv()? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Ok(other),
        }
    }

    /// Executes one query statement, waiting for its rows.
    pub fn query(&mut self, frql: &str) -> Result<Vec<Tuple>, ClientError> {
        self.send(&Request::Query { frql: frql.into() })?;
        match self.recv_ok()? {
            Response::Rows(rows) => Ok(rows),
            other => Err(ClientError::Unexpected(format!("{:?}", other))),
        }
    }

    /// Executes one `EXPLAIN` statement, waiting for the rendered plan.
    pub fn explain(&mut self, frql: &str) -> Result<String, ClientError> {
        self.send(&Request::Query { frql: frql.into() })?;
        match self.recv_ok()? {
            Response::Explain(text) => Ok(text),
            other => Err(ClientError::Unexpected(format!("{:?}", other))),
        }
    }

    /// Applies a write batch atomically, waiting for the commit ack.
    /// Returns `(inserted, deleted)` counts.
    pub fn transact(
        &mut self,
        relation: &str,
        ops: Vec<WriteOp>,
    ) -> Result<(u64, u64), ClientError> {
        self.send(&Request::Transact {
            relation: relation.into(),
            ops,
        })?;
        match self.recv_ok()? {
            Response::TxnOk { inserted, deleted } => Ok((inserted, deleted)),
            other => Err(ClientError::Unexpected(format!("{:?}", other))),
        }
    }

    /// Round-trips a liveness probe.
    pub fn ping(&mut self, token: u64) -> Result<(), ClientError> {
        self.send(&Request::Ping { token })?;
        match self.recv_ok()? {
            Response::Pong { token: echoed } if echoed == token => Ok(()),
            other => Err(ClientError::Unexpected(format!("{:?}", other))),
        }
    }

    /// Says `Goodbye` and waits for the server's `Bye`.
    pub fn close(mut self) -> Result<(), ClientError> {
        self.send(&Request::Goodbye)?;
        loop {
            match self.recv()? {
                Response::Bye => return Ok(()),
                // Drain responses to any still-pipelined statements.
                _ if self.pending > 0 => continue,
                other => return Err(ClientError::Unexpected(format!("{:?}", other))),
            }
        }
    }
}
