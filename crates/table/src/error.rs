//! Error type for table-format operations.

use lakehouse_columnar::ColumnarError;
use lakehouse_format::FormatError;
use lakehouse_store::{ObjectPath, ObjectStore, StoreError};
use std::fmt;

/// Errors from table operations.
#[derive(Debug)]
pub enum TableError {
    /// A snapshot id was not found in the metadata.
    SnapshotNotFound(u64),
    /// Metadata JSON failed to parse or was internally inconsistent.
    Corrupt(String),
    /// A write's batch schema is incompatible with the table schema.
    SchemaMismatch(String),
    /// Invalid schema-evolution request (e.g. dropping a partition column).
    InvalidEvolution(String),
    /// Invalid argument from the caller.
    InvalidArgument(String),
    /// Underlying store failure.
    Store(StoreError),
    /// Underlying file-format failure.
    Format(FormatError),
    /// Underlying columnar failure.
    Columnar(ColumnarError),
}

impl TableError {
    /// Whether this error means the *bytes* read were bad — a torn read or
    /// bit rot caught by a format-layer checksum ([`FormatError`]'s
    /// corruption taxonomy) or an unparseable metadata object. The store
    /// answered `Ok`, so no layer below the reader can know; see
    /// [`reread_on_corruption`].
    pub fn is_corruption(&self) -> bool {
        match self {
            Self::Format(e) => e.is_corruption(),
            Self::Corrupt(_) => true,
            _ => false,
        }
    }
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SnapshotNotFound(id) => write!(f, "snapshot not found: {id}"),
            Self::Corrupt(m) => write!(f, "corrupt table metadata: {m}"),
            Self::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            Self::InvalidEvolution(m) => write!(f, "invalid schema evolution: {m}"),
            Self::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            Self::Store(e) => write!(f, "store error: {e}"),
            Self::Format(e) => write!(f, "format error: {e}"),
            Self::Columnar(e) => write!(f, "columnar error: {e}"),
        }
    }
}

impl std::error::Error for TableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Store(e) => Some(e),
            Self::Format(e) => Some(e),
            Self::Columnar(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for TableError {
    fn from(e: StoreError) -> Self {
        TableError::Store(e)
    }
}
impl From<FormatError> for TableError {
    fn from(e: FormatError) -> Self {
        TableError::Format(e)
    }
}
impl From<ColumnarError> for TableError {
    fn from(e: ColumnarError) -> Self {
        TableError::Columnar(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, TableError>;

/// Run `read`, and while it fails with [`TableError::is_corruption`] run it
/// again, up to `max_rereads` more times; returns the last outcome and the
/// re-reads used. Before each re-read the store is told the bytes of `path`
/// were bad (`ObjectStore::invalidate_corrupt`); no store layer keeps bytes,
/// so the re-read reaches the backend copy — immutable and presumed good —
/// and a torn or garbled read is simply read afresh.
///
/// This is the only retry above the store: a fault the store can see (a
/// transient error, a throttle, a timeout) belongs to its `RetryStore`,
/// which ends it as `RetriesExhausted`, and is never retried here.
pub fn reread_on_corruption<T>(
    store: &dyn ObjectStore,
    path: &str,
    max_rereads: u32,
    mut read: impl FnMut() -> Result<T>,
) -> (Result<T>, u32) {
    let mut rereads = 0;
    loop {
        match read() {
            Err(e) if rereads < max_rereads && e.is_corruption() => {
                if let Ok(path) = ObjectPath::new(path.to_string()) {
                    store.invalidate_corrupt(&path);
                }
                rereads += 1;
            }
            outcome => return (outcome, rereads),
        }
    }
}
