//! Typed storage-layer errors.
//!
//! The durability subsystem must distinguish failure classes that a plain
//! panic (or a stringly `CoreError`) conflates:
//!
//! * [`StorageError::Io`] — the operating system refused or lost a write.
//!   Retryable in principle; after a *simulated* crash (fault injection)
//!   the WAL is poisoned and every later durable write reports this.
//! * [`StorageError::Corruption`] — bytes read back from disk fail
//!   validation (CRC mismatch, truncated frame, impossible lengths).
//!   Recovery handles the *expected* corruption shapes (a torn final WAL
//!   record) by truncation; anything else is surfaced, never panicked on.
//! * [`StorageError::Bug`] — an internal invariant was violated (e.g. a
//!   rollback whose logged target tuple is gone, or a failed
//!   [`Database::verify_invariants`](crate::db::Database::verify_invariants)
//!   check).  Recovery code must be able to tell these from a torn log, so
//!   they are errors, not `expect` calls.
//! * [`StorageError::FrameTooLarge`] — a commit or checkpoint image longer
//!   than a frame's `u32` length prefix can describe.  Nothing was written:
//!   the commit rolls back, the checkpoint fails like any other.
//!
//! Constraint violations keep their precise [`CoreError`] payload under
//! [`StorageError::Constraint`] so durable and in-memory code paths report
//! identical scheme/domain/dependency diagnostics.

use std::fmt;

use flexrel_core::error::CoreError;

/// A storage/durability failure, split by what the caller can do about it.
#[derive(Clone, Debug, PartialEq)]
pub enum StorageError {
    /// An operating-system I/O failure (or a fault-injected crash) on the
    /// WAL or checkpoint path.
    Io(String),
    /// On-disk bytes failed validation: CRC mismatch, torn frame, or a
    /// structurally impossible value.  Recovery truncates the *expected*
    /// torn-tail case; any other corruption is reported via this variant.
    Corruption(String),
    /// An internal invariant was violated — a logic error in this crate,
    /// never a disk problem.
    Bug(String),
    /// A frame payload of this many bytes does not fit the `u32` length
    /// prefix; it was not written.
    FrameTooLarge(usize),
    /// A scheme/domain/dependency violation, unchanged from the in-memory
    /// paths.
    Constraint(CoreError),
}

impl StorageError {
    /// Maps the error onto the legacy [`CoreError`]-typed public API of
    /// [`Database`](crate::db::Database): constraint violations pass
    /// through exactly; durability failures become [`CoreError::Invalid`]
    /// with a class-tagged message.
    pub fn into_core(self) -> CoreError {
        match self {
            StorageError::Constraint(e) => e,
            StorageError::Io(m) => CoreError::Invalid(format!("durability i/o failure: {}", m)),
            StorageError::Corruption(m) => CoreError::Invalid(format!("storage corruption: {}", m)),
            StorageError::Bug(m) => CoreError::Invalid(format!("storage bug: {}", m)),
            e @ StorageError::FrameTooLarge(_) => CoreError::Invalid(e.to_string()),
        }
    }

    /// Whether this is the [`StorageError::Corruption`] class.
    pub fn is_corruption(&self) -> bool {
        matches!(self, StorageError::Corruption(_))
    }

    /// Whether this is the [`StorageError::Io`] class.
    pub fn is_io(&self) -> bool {
        matches!(self, StorageError::Io(_))
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(m) => write!(f, "i/o failure: {}", m),
            StorageError::Corruption(m) => write!(f, "corruption: {}", m),
            StorageError::Bug(m) => write!(f, "internal storage bug: {}", m),
            StorageError::FrameTooLarge(n) => write!(
                f,
                "a frame of {} bytes does not fit its 32-bit length prefix",
                n
            ),
            StorageError::Constraint(e) => write!(f, "{}", e),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

impl From<CoreError> for StorageError {
    fn from(e: CoreError) -> Self {
        StorageError::Constraint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_map_onto_core_errors() {
        assert!(matches!(
            StorageError::Io("disk".into()).into_core(),
            CoreError::Invalid(m) if m.contains("i/o")
        ));
        assert!(matches!(
            StorageError::Corruption("crc".into()).into_core(),
            CoreError::Invalid(m) if m.contains("corruption")
        ));
        assert!(matches!(
            StorageError::Bug("rollback".into()).into_core(),
            CoreError::Invalid(m) if m.contains("bug")
        ));
        let e = CoreError::NotFound("r".into());
        assert_eq!(
            StorageError::from(e.clone()).into_core().to_string(),
            e.to_string()
        );
        assert!(StorageError::Corruption("x".into()).is_corruption());
        assert!(StorageError::from(std::io::Error::other("boom")).is_io());
    }
}
