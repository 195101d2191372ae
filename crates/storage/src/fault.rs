//! Deterministic I/O fault injection for the durability layer.
//!
//! Every write/fsync boundary of the WAL and checkpoint writers asks the
//! database's [`IoFault`] hook what to do *before* touching the file.  The
//! production hook ([`NoFault`]) always proceeds; tests install scripted
//! hooks to kill the process model at an exact boundary (the "crash-point
//! sweep"), persist only a prefix of a write (a torn write), or flip a bit
//! (silent media corruption).
//!
//! The crash model is deliberately pessimistic and therefore deterministic:
//!
//! * a [`FaultAction::Crash`] at a **write** boundary persists nothing of
//!   that write;
//! * a `Crash` at a **sync** boundary discards *every* byte written since
//!   the last successful sync (the file is truncated back to the durable
//!   prefix) — the worst case the contract `write ≠ durable until fsync`
//!   allows;
//! * consequently an operation is durable **iff** its sync boundary
//!   proceeded, which is exactly the moment the database acknowledged it —
//!   so the sweep's oracle ("everything acknowledged survives, nothing
//!   unacknowledged does, except a torn tail which is truncated") is
//!   deterministic.
//!
//! After any injected crash the WAL is *poisoned*: every later durable
//! operation fails with [`StorageError::Io`](crate::errors::StorageError)
//! instead of pretending the dead file is still writable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One interceptable I/O boundary, with enough context to aim a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoEvent {
    /// The WAL group-commit leader is about to `write` a batch of `len`
    /// bytes to the current segment file.
    WalWrite {
        /// Number of bytes about to be written.
        len: usize,
    },
    /// The WAL group-commit leader is about to `fdatasync` the segment.
    WalSync,
    /// The checkpointer is about to write the `len`-byte checkpoint image
    /// to its temporary file.
    CheckpointWrite {
        /// Number of bytes about to be written.
        len: usize,
    },
    /// The checkpointer is about to fsync the temporary checkpoint file.
    CheckpointSync,
    /// The checkpointer is about to atomically rename the temporary file
    /// over the live checkpoint.
    CheckpointRename,
}

/// What the intercepted boundary should do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Perform the I/O normally.
    Proceed,
    /// Simulate a crash *at* this boundary: perform none of the I/O,
    /// poison the writer, and fail the in-flight operation.
    Crash,
    /// (Write boundaries only.)  Persist exactly the first `keep` bytes of
    /// the write, then crash — a torn write.
    Torn {
        /// Number of leading bytes that reach the file before the crash.
        keep: usize,
    },
    /// (Write boundaries only.)  Flip one bit — bit `offset % 8` of byte
    /// `offset / 8` within the write — and then proceed normally: silent
    /// corruption that only the CRC can catch later.
    FlipBit {
        /// Bit offset within the written bytes.
        offset: usize,
    },
}

/// A hook intercepting every durable-I/O boundary.  Implementations must
/// be cheap and deterministic; a WAL write boundary runs under the WAL's
/// `io` lock, a WAL sync boundary outside it (another leader round may be
/// writing meanwhile).
pub trait IoFault: Send + Sync + std::fmt::Debug {
    /// Decides what the boundary `ev` should do.
    fn intercept(&self, ev: IoEvent) -> FaultAction;
}

/// The production hook: every boundary proceeds.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFault;

impl IoFault for NoFault {
    fn intercept(&self, _ev: IoEvent) -> FaultAction {
        FaultAction::Proceed
    }
}

/// Counts boundaries without interfering — the bench harness uses it to
/// report fsyncs-per-commit, and the crash-point sweep uses a first pass
/// with this hook to learn how many boundaries a workload crosses.
#[derive(Debug, Default)]
pub struct CountingFault {
    writes: AtomicUsize,
    syncs: AtomicUsize,
    checkpoint_events: AtomicUsize,
}

impl CountingFault {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of WAL write boundaries crossed.
    pub fn wal_writes(&self) -> usize {
        self.writes.load(Ordering::Relaxed)
    }

    /// Number of WAL sync (fsync) boundaries crossed.
    pub fn wal_syncs(&self) -> usize {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Number of checkpoint write/sync/rename boundaries crossed.
    pub fn checkpoint_events(&self) -> usize {
        self.checkpoint_events.load(Ordering::Relaxed)
    }

    /// Total boundaries crossed.
    pub fn total(&self) -> usize {
        self.wal_writes() + self.wal_syncs() + self.checkpoint_events()
    }
}

impl IoFault for CountingFault {
    fn intercept(&self, ev: IoEvent) -> FaultAction {
        match ev {
            IoEvent::WalWrite { .. } => self.writes.fetch_add(1, Ordering::Relaxed),
            IoEvent::WalSync => self.syncs.fetch_add(1, Ordering::Relaxed),
            IoEvent::CheckpointWrite { .. }
            | IoEvent::CheckpointSync
            | IoEvent::CheckpointRename => self.checkpoint_events.fetch_add(1, Ordering::Relaxed),
        };
        FaultAction::Proceed
    }
}

/// Proceeds for the first `n` boundaries, then injects `action` once and
/// proceeds forever after — the building block of the crash-point sweep
/// (`n` ranges over every boundary of the workload) and of the torn-write
/// and bit-flip recovery tests.
#[derive(Debug)]
pub struct NthEventFault {
    n: usize,
    action: FaultAction,
    seen: AtomicUsize,
    fired: Mutex<bool>,
}

impl NthEventFault {
    /// Injects `action` at the `n`-th (0-based) intercepted boundary.
    pub fn new(n: usize, action: FaultAction) -> Self {
        NthEventFault {
            n,
            action,
            seen: AtomicUsize::new(0),
            fired: Mutex::new(false),
        }
    }

    /// Whether the fault has fired yet.
    pub fn fired(&self) -> bool {
        *self.fired.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of boundaries intercepted so far.
    pub fn seen(&self) -> usize {
        self.seen.load(Ordering::Relaxed)
    }
}

impl IoFault for NthEventFault {
    fn intercept(&self, _ev: IoEvent) -> FaultAction {
        let i = self.seen.fetch_add(1, Ordering::Relaxed);
        if i == self.n {
            *self.fired.lock().unwrap_or_else(|e| e.into_inner()) = true;
            self.action
        } else {
            FaultAction::Proceed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_event_fires_exactly_once() {
        let f = NthEventFault::new(2, FaultAction::Crash);
        assert_eq!(f.intercept(IoEvent::WalSync), FaultAction::Proceed);
        assert!(!f.fired());
        assert_eq!(
            f.intercept(IoEvent::WalWrite { len: 1 }),
            FaultAction::Proceed
        );
        assert_eq!(f.intercept(IoEvent::WalSync), FaultAction::Crash);
        assert!(f.fired());
        assert_eq!(f.intercept(IoEvent::WalSync), FaultAction::Proceed);
        assert_eq!(f.seen(), 4);
    }

    #[test]
    fn counting_counts_by_class() {
        let c = CountingFault::new();
        c.intercept(IoEvent::WalWrite { len: 10 });
        c.intercept(IoEvent::WalSync);
        c.intercept(IoEvent::WalSync);
        c.intercept(IoEvent::CheckpointRename);
        assert_eq!(c.wal_writes(), 1);
        assert_eq!(c.wal_syncs(), 2);
        assert_eq!(c.checkpoint_events(), 1);
        assert_eq!(c.total(), 4);
    }
}
