//! # lakehouse-catalog
//!
//! A Nessie-like data catalog: **git semantics for data** (paper §4.3).
//!
//! The catalog versions the *entire* lakehouse namespace at once — every
//! commit captures a consistent view of all tables — which is exactly why the
//! paper picked Nessie: transformation runs touch multiple artifacts and need
//! an atomic, transactional merge.
//!
//! Concepts:
//!
//! * [`ContentRef`] — what a table name points to (metadata location +
//!   snapshot id);
//! * [`Commit`] — an immutable, content-addressed change set with parent
//!   commits (a DAG, exactly like git);
//! * [`Reference`] — a named branch (mutable head) or tag (frozen);
//! * [`Catalog`] — the store-backed catalog with optimistic-concurrency
//!   commits (CAS on the reference document) and three-way merges with
//!   key-level conflict detection.
//!
//! The *transform-audit-write* pattern of the paper maps to: pin the target's
//! head → run the DAG committing artifacts on that head in memory, an
//! ephemeral branch no ref names yet ([`Catalog::commit_on`]) → only if every
//! step and expectation passed, write those commits and publish them into
//! the target with one CAS ([`Catalog::publish`]; paper Fig. 4).

pub mod catalog;
pub mod commit;
pub mod error;
pub mod refs;
pub mod state;

pub use catalog::Catalog;
pub use commit::{Commit, CommitId, ContentRef, Operation};
pub use error::{CatalogError, Result};
pub use refs::{RefKind, Reference};
pub use state::CatalogState;
