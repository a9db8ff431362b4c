//! Error type for the runtime.

use std::fmt;

/// Errors from the serverless runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Requested memory exceeds what the worker can ever grant.
    MemoryExceedsCapacity { requested: u64, capacity: u64 },
    /// No memory currently available (live grants hold it).
    OutOfMemory { requested: u64, available: u64 },
    /// A package name was not found in the universe.
    UnknownPackage(String),
    /// Invalid configuration.
    InvalidConfig(String),
    /// An async run's worker thread disappeared.
    WorkerLost(String),
    /// A user function failed.
    FunctionFailed { function: String, message: String },
    /// The invoking query's cancel token tripped (deadline, budget, or
    /// explicit cancel): the query is dead, not the runtime. Display keeps
    /// the stable `query killed (...)` prefix.
    QueryKilled { reason: lakehouse_obs::KillReason },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MemoryExceedsCapacity {
                requested,
                capacity,
            } => write!(
                f,
                "requested {requested} bytes exceeds worker capacity {capacity}"
            ),
            Self::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "out of memory: requested {requested}, available {available}"
            ),
            Self::UnknownPackage(p) => write!(f, "unknown package: {p}"),
            Self::InvalidConfig(m) => write!(f, "invalid runtime config: {m}"),
            Self::WorkerLost(m) => write!(f, "worker lost: {m}"),
            Self::FunctionFailed { function, message } => {
                write!(f, "function '{function}' failed: {message}")
            }
            Self::QueryKilled { reason } => write!(f, "query killed ({reason})"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;
