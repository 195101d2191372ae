//! # flexrel-server
//!
//! The network front end: a length-prefixed, CRC-framed binary wire
//! protocol ([`proto`]) reusing the storage codec's framing and value
//! encoding, and a threaded TCP server ([`server`]) multiplexing client
//! sessions over one shared, cheaply-clonable
//! [`Database`](flexrel_storage::Database) handle.
//!
//! Design points:
//!
//! * **One response per request, in order** — sessions execute serially,
//!   so clients may pipeline any number of statements and match responses
//!   by position.
//! * **Backpressure, not queues** — a global in-flight statement cap
//!   answers excess work with a typed `Busy` error instead of buffering
//!   unbounded requests; memory stays bounded no matter how many sessions
//!   push.
//! * **Deadlines, not partial results** — a statement past its per-server
//!   timeout is cancelled inside the executor and answered with a typed
//!   `Timeout` error; truncated row sets are never sent.
//! * **Graceful drain** — shutdown stops admissions, finishes in-flight
//!   statements, answers everything already buffered, then says `Bye`.
//!
//! ```
//! use flexrel_server::{seed_wide, Server, ServerConfig};
//! use flexrel_storage::Database;
//!
//! let db = Database::new();
//! seed_wide(&db, 100, 4, 0.5).unwrap();
//! let server = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//!
//! let mut conn = flexrel_client::Connection::connect(addr).unwrap();
//! let rows = conn.query("SELECT COUNT(*) FROM wide").unwrap();
//! assert_eq!(rows.len(), 1);
//! conn.close().unwrap();
//! server.shutdown();
//! ```
#![deny(missing_docs)]

pub mod proto;
pub mod seed;
pub mod server;

pub use proto::{
    decode_request, decode_response, encode_request, encode_response, get_rows, put_request,
    put_response, put_rows, put_rows_from_chunks, write_request, write_response, ErrorCode,
    FrameReader, FrameWriter, Recv, Request, Response, WireError, WriteOp, PROTOCOL_VERSION,
};
pub use seed::{kinds_relation, seed_wide};
pub use server::{Server, ServerConfig, ServerStats, StatsSnapshot};
