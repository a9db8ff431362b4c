//! Platform-level error type, unifying every substrate's errors.

use std::fmt;

/// Errors surfaced by the Bauplan platform.
#[derive(Debug)]
pub enum BauplanError {
    /// An expectation (data audit) returned false; the run was rolled back.
    ExpectationFailed {
        node: String,
    },
    /// A replay selector or run id was invalid.
    Replay(String),
    /// A table name could not be resolved on the given ref.
    TableNotFound {
        table: String,
        reference: String,
    },
    /// Configuration problem.
    Config(String),
    /// The principal lacks permission for the attempted action.
    AccessDenied {
        principal: String,
        action: String,
        reference: String,
    },
    /// The query's cancel token tripped: deadline, budget, or explicit
    /// cancel. Terminal — retrying the same query may succeed, but this
    /// submission is dead.
    QueryKilled {
        reason: lakehouse_obs::KillReason,
    },
    /// The admission gate shed the query (queue full or queue deadline
    /// exceeded); the caller should back off at least `retry_after`.
    Overloaded {
        retry_after: std::time::Duration,
    },
    Store(lakehouse_store::StoreError),
    Catalog(lakehouse_catalog::CatalogError),
    Table(lakehouse_table::TableError),
    Sql(lakehouse_sql::SqlError),
    Planner(lakehouse_planner::PlannerError),
    Columnar(lakehouse_columnar::ColumnarError),
}

impl fmt::Display for BauplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ExpectationFailed { node } => {
                write!(f, "expectation '{node}' failed; run rolled back")
            }
            Self::Replay(m) => write!(f, "replay error: {m}"),
            Self::TableNotFound { table, reference } => {
                write!(f, "table '{table}' not found on ref '{reference}'")
            }
            Self::Config(m) => write!(f, "config error: {m}"),
            Self::AccessDenied {
                principal,
                action,
                reference,
            } => write!(
                f,
                "access denied: {principal} may not {action} on '{reference}'"
            ),
            Self::QueryKilled { reason } => {
                write!(f, "{}", lakehouse_store::killed_message(*reason))
            }
            Self::Overloaded { retry_after } => write!(
                f,
                "overloaded: retry after {:.0} ms",
                retry_after.as_secs_f64() * 1e3
            ),
            Self::Store(e) => write!(f, "store: {e}"),
            Self::Catalog(e) => write!(f, "catalog: {e}"),
            Self::Table(e) => write!(f, "table: {e}"),
            Self::Sql(e) => write!(f, "sql: {e}"),
            Self::Planner(e) => write!(f, "planner: {e}"),
            Self::Columnar(e) => write!(f, "columnar: {e}"),
        }
    }
}

impl std::error::Error for BauplanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Store(e) => Some(e),
            Self::Catalog(e) => Some(e),
            Self::Table(e) => Some(e),
            Self::Sql(e) => Some(e),
            Self::Planner(e) => Some(e),
            Self::Columnar(e) => Some(e),
            _ => None,
        }
    }
}

impl BauplanError {
    /// The first error of type `E` on this error's source chain, this error
    /// included: a store fault under a SQL statement is found by type
    /// (`err.find::<StoreError>()` is a scan's `RetriesExhausted` or
    /// `QueryKilled`), however many layers carried it.
    pub fn find<E: std::error::Error + 'static>(&self) -> Option<&E> {
        let mut next: Option<&(dyn std::error::Error + 'static)> = Some(self);
        while let Some(e) = next {
            if let Some(found) = e.downcast_ref::<E>() {
                return Some(found);
            }
            next = e.source();
        }
        None
    }
}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for BauplanError {
            fn from(e: $ty) -> Self {
                BauplanError::$variant(e)
            }
        }
    };
}

from_err!(Store, lakehouse_store::StoreError);
from_err!(Catalog, lakehouse_catalog::CatalogError);
from_err!(Table, lakehouse_table::TableError);
from_err!(Sql, lakehouse_sql::SqlError);
from_err!(Planner, lakehouse_planner::PlannerError);
from_err!(Columnar, lakehouse_columnar::ColumnarError);

/// Convenience alias.
pub type Result<T> = std::result::Result<T, BauplanError>;
