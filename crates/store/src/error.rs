//! Error type for object-store operations, with a transient/permanent
//! taxonomy so retry layers can classify failures uniformly.

use std::fmt;
use std::time::Duration;

/// Errors from object-store operations.
#[derive(Debug)]
pub enum StoreError {
    /// The object does not exist.
    NotFound(String),
    /// CAS precondition failed (object changed underneath the caller).
    PreconditionFailed(String),
    /// A byte-range request was out of bounds.
    InvalidRange {
        start: usize,
        end: usize,
        len: usize,
    },
    /// An object path failed validation.
    InvalidPath(String),
    /// Underlying I/O failure (local-FS backend).
    Io(std::io::Error),
    /// A transient fault (dropped connection, 5xx): safe to retry as-is.
    Transient(String),
    /// The service rate-limited the request; retry no sooner than
    /// `retry_after` (S3's 503 SlowDown with a Retry-After hint).
    Throttled { op: String, retry_after: Duration },
    /// A retry layer gave up: `attempts` tries (including the first) all
    /// failed; `last` is the final underlying error.
    RetriesExhausted {
        op: String,
        attempts: u32,
        last: Box<StoreError>,
    },
    /// The owning query's cancel token tripped (deadline, budget, or
    /// explicit cancel). Never retryable: the query is dead, not the store.
    /// The Display prefix (`KILLED_PREFIX`) is stable — upper layers that
    /// stringify errors re-type it by matching that prefix.
    QueryKilled { reason: lakehouse_obs::KillReason },
}

/// Stable Display prefix of [`StoreError::QueryKilled`], relied on by
/// layers that carry errors as strings (the SQL executors).
pub const KILLED_PREFIX: &str = "query killed";

/// The canonical message for a killed query, used by every layer so the
/// stringly paths stay detectable: `query killed (reason)`.
pub fn killed_message(reason: lakehouse_obs::KillReason) -> String {
    format!("{KILLED_PREFIX} ({reason})")
}

impl StoreError {
    /// Whether a retry of the same operation could plausibly succeed.
    ///
    /// `NotFound`/`PreconditionFailed`/`InvalidRange`/`InvalidPath` are
    /// semantic outcomes — retrying returns the same answer (CAS races are
    /// retried *above* the store, by the catalog, after re-reading state).
    /// `Io` is kept permanent: the local-FS backend surfaces real,
    /// typically persistent, OS errors through it. `RetriesExhausted`
    /// means a retry layer already gave up; never retry it again.
    pub fn is_retryable(&self) -> bool {
        matches!(self, Self::Transient(_) | Self::Throttled { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotFound(p) => write!(f, "object not found: {p}"),
            Self::PreconditionFailed(p) => write!(f, "precondition failed for: {p}"),
            Self::InvalidRange { start, end, len } => {
                write!(
                    f,
                    "invalid range [{start}, {end}) for object of {len} bytes"
                )
            }
            Self::InvalidPath(p) => write!(f, "invalid object path: {p}"),
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Transient(msg) => write!(f, "transient store fault: {msg}"),
            Self::Throttled { op, retry_after } => write!(
                f,
                "throttled on {op} (retry after {:.0} ms)",
                retry_after.as_secs_f64() * 1e3
            ),
            Self::RetriesExhausted { op, attempts, last } => {
                write!(
                    f,
                    "retries exhausted on {op} after {attempts} attempts: {last}"
                )
            }
            Self::QueryKilled { reason } => write!(f, "{KILLED_PREFIX} ({reason})"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::RetriesExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StoreError>;
