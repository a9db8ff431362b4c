//! Error type for catalog operations.

use lakehouse_store::StoreError;
use std::fmt;

/// Errors from catalog operations.
#[derive(Debug)]
pub enum CatalogError {
    /// The named reference (branch/tag) does not exist.
    RefNotFound(String),
    /// A reference with this name already exists.
    RefAlreadyExists(String),
    /// The named commit does not exist.
    CommitNotFound(String),
    /// A ref move's bounded CAS loop lost the race every time: `attempts`
    /// tries (each with backoff) all found the ref document moved
    /// underneath them. `branch` names the ref being moved.
    CommitContended { branch: String, attempts: u32 },
    /// A merge found keys changed on both sides with different contents.
    MergeConflict { keys: Vec<String> },
    /// Tags are immutable; committing to one is an error.
    TagIsImmutable(String),
    /// A table key lookup failed.
    KeyNotFound(String),
    /// Catalog metadata failed to parse.
    Corrupt(String),
    /// Underlying object-store failure.
    Store(StoreError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RefNotFound(r) => write!(f, "reference not found: {r}"),
            Self::RefAlreadyExists(r) => write!(f, "reference already exists: {r}"),
            Self::CommitNotFound(c) => write!(f, "commit not found: {c}"),
            Self::CommitContended { branch, attempts } => write!(
                f,
                "commit to {branch} contended: lost the CAS race {attempts} times; \
                 retry under lighter write load"
            ),
            Self::MergeConflict { keys } => {
                write!(f, "merge conflict on keys: {}", keys.join(", "))
            }
            Self::TagIsImmutable(t) => write!(f, "cannot commit to tag {t}"),
            Self::KeyNotFound(k) => write!(f, "table key not found: {k}"),
            Self::Corrupt(msg) => write!(f, "corrupt catalog metadata: {msg}"),
            Self::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for CatalogError {
    fn from(e: StoreError) -> Self {
        CatalogError::Store(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CatalogError>;
