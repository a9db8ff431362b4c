//! # lakehouse-sql
//!
//! The DuckDB stand-in (paper §4.5): an embeddable, vectorized analytical
//! SQL engine operating directly on `lakehouse-columnar` batches.
//!
//! Pipeline: SQL text → [`tokenizer`] → [`parser`] (AST) → the binder,
//! [`logical::plan_select`] (every column bound to a position once, every
//! plan node built with its schema) → [`optimizer`] (constant folding,
//! predicate pushdown, projection pruning, limit pushdown) → the executor,
//! [`streaming`]: one tree of pull-based
//! vectorized operators (scan, filter, project, hash aggregate, hash join,
//! sort, limit, distinct) that every statement runs through, a table
//! arriving as its provider's own batches. Expressions are evaluated by
//! [`physical::eval`].
//!
//! Supported SQL (the dialect the paper's dbt-style pipelines need):
//!
//! * `SELECT [DISTINCT] expr [AS alias], ...`
//! * `FROM table [alias]` with `JOIN` / `LEFT JOIN ... ON a.x = b.y [AND ...]`
//! * `WHERE` with comparisons, `AND/OR/NOT`, `BETWEEN`, `IN (...)`,
//!   `IS [NOT] NULL`, `LIKE`, arithmetic, `CAST(x AS T)`, `CASE WHEN`
//! * `GROUP BY` + aggregates (`COUNT(*)`, `COUNT`, `SUM`, `MIN`, `MAX`,
//!   `AVG`) and `HAVING`
//! * `ORDER BY expr [ASC|DESC], ...`, `LIMIT n [OFFSET m]`
//! * scalar functions: `UPPER`, `LOWER`, `LENGTH`, `ABS`, `ROUND`,
//!   `COALESCE`, `SUBSTR`
//!
//! The engine resolves table names through the [`TableProvider`] trait, which
//! is what lets the platform layer connect it to Iceberg-style scans with
//! pushed-down predicates.

pub mod analyze;
pub mod ast;
pub mod engine;
pub mod error;
pub mod functions;
pub mod logical;
pub mod optimizer;
pub mod parser;
pub mod physical;
pub mod streaming;
pub mod tokenizer;

pub use analyze::render_analyzed;
pub use ast::{Expr, SelectStmt};
pub use engine::{scan_memory_table, MemoryProvider, SqlEngine, TableProvider};
pub use error::{Result, SqlError};
pub use logical::LogicalPlan;
pub use parser::{parse_select, referenced_tables};
pub use streaming::{execute, execute_batches, execute_with_report, ExecReport};
