//! Error type for the columnar crate.

use std::fmt;
use std::sync::Arc;

/// Errors produced by columnar operations.
#[derive(Debug, Clone)]
pub enum ColumnarError {
    /// Two columns (or a column and a bitmap) had mismatched lengths.
    LengthMismatch { expected: usize, actual: usize },
    /// An operation received a column of an unexpected type.
    TypeMismatch { expected: String, actual: String },
    /// A schema lookup failed.
    FieldNotFound(String),
    /// The schema and columns of a batch disagree.
    SchemaMismatch(String),
    /// An index was out of bounds.
    IndexOutOfBounds { index: usize, len: usize },
    /// A cast between types is not supported.
    InvalidCast { from: String, to: String },
    /// Generic invalid-argument error.
    InvalidArgument(String),
    /// Arithmetic overflow during a kernel.
    Overflow(String),
    /// Division by zero during a kernel.
    DivideByZero,
    /// An error raised by a [`crate::stream::BatchStream`] producer outside
    /// this crate (table scans, SQL operators) and carried through the
    /// pull-based pipeline as it is: its text is this error's, and it is
    /// this error's [`std::error::Error::source`], so a caller can still
    /// find a store fault under a query by type.
    External(Arc<dyn std::error::Error + Send + Sync>),
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            Self::TypeMismatch { expected, actual } => {
                write!(f, "type mismatch: expected {expected}, got {actual}")
            }
            Self::FieldNotFound(name) => write!(f, "field not found: {name}"),
            Self::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            Self::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            Self::InvalidCast { from, to } => write!(f, "cannot cast {from} to {to}"),
            Self::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Self::Overflow(op) => write!(f, "arithmetic overflow in {op}"),
            Self::DivideByZero => write!(f, "division by zero"),
            Self::External(e) => write!(f, "{e}"),
        }
    }
}

impl PartialEq for ColumnarError {
    /// Same variant, same message: an external error has no equality of its
    /// own, so errors compare by what they say.
    fn eq(&self, other: &Self) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
            && self.to_string() == other.to_string()
    }
}

impl Eq for ColumnarError {}

impl std::error::Error for ColumnarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::External(e) => Some(&**e),
            _ => None,
        }
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, ColumnarError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn an_external_error_keeps_its_text_and_its_source() {
        let inner = std::io::Error::other("disk on fire");
        let e = ColumnarError::External(Arc::new(inner));
        assert_eq!(e.to_string(), "disk on fire");
        let source = e.source().and_then(|s| s.downcast_ref::<std::io::Error>());
        assert_eq!(source.map(|s| s.kind()), Some(std::io::ErrorKind::Other));
        // Compared by message, within a variant.
        let same = ColumnarError::External(Arc::new(std::io::Error::other("disk on fire")));
        assert_eq!(e, same.clone());
        assert_ne!(e, ColumnarError::InvalidArgument("disk on fire".into()));
    }
}
