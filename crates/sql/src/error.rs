//! Error type for the SQL engine.

use lakehouse_columnar::ColumnarError;
use std::fmt;
use std::sync::Arc;

/// Errors from parsing, planning, or executing SQL.
#[derive(Debug)]
pub enum SqlError {
    /// Lexical error with position.
    Tokenize { message: String, position: usize },
    /// Syntax error.
    Parse(String),
    /// Semantic error during planning (unknown table/column, bad types...).
    Plan(String),
    /// Runtime error during execution.
    Execution(String),
    /// A runtime error raised below the engine — a table scan's, with the
    /// store fault under it — kept as it is: it reads as an
    /// [`Self::Execution`] of its text, and is this error's
    /// [`std::error::Error::source`].
    External(Arc<dyn std::error::Error + Send + Sync>),
    /// Underlying columnar kernel error.
    Columnar(ColumnarError),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Tokenize { message, position } => {
                write!(f, "tokenize error at byte {position}: {message}")
            }
            Self::Parse(m) => write!(f, "parse error: {m}"),
            Self::Plan(m) => write!(f, "planning error: {m}"),
            Self::Execution(m) => write!(f, "execution error: {m}"),
            Self::External(e) => write!(f, "execution error: {e}"),
            Self::Columnar(e) => write!(f, "columnar error: {e}"),
        }
    }
}

impl std::error::Error for SqlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::External(e) => Some(&**e),
            Self::Columnar(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ColumnarError> for SqlError {
    fn from(e: ColumnarError) -> Self {
        SqlError::Columnar(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, SqlError>;
