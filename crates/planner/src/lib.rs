//! # lakehouse-planner
//!
//! The **code intelligence** module (paper §4.4): takes the queries and
//! functions defining a pipeline and produces first a *logical plan* of
//! operations and finally a *physical plan* to run the desired
//! transformations — the middle and bottom layers of the paper's Fig. 3.
//!
//! * [`project`] — pipeline projects: declarative SQL nodes (one query, one
//!   artifact, dbt-style) and native function nodes (the Rust stand-in for
//!   the paper's Python expectations), with `@requirements`-style
//!   environment pins;
//! * [`dag`] — implicit DAG extraction: SQL nodes depend on the tables their
//!   `FROM` clauses reference; `<table>_expectation` functions depend on
//!   their named inputs. No imperative DAG construction anywhere. Each SQL
//!   node is parsed here once, and the DAG keeps its statement: a run binds
//!   those statements (`bauplan-core`'s `run.rs`) at its pinned commit
//!   before it starts anything;
//! * [`fingerprint`] — content-addressed project snapshots and the run
//!   registry ("code is data": same code + same data version → identical
//!   results, replayable by run id);
//! * [`logical`] — the ordered logical pipeline plan;
//! * [`physical`] — the physical plan with **operator fusion**: the
//!   optimization of §4.4.2 that runs filter-pushdown + SQL + expectation in
//!   one place instead of three isolated serverless functions, avoiding
//!   object-storage spillover.

pub mod dag;
pub mod error;
pub mod fingerprint;
pub mod logical;
pub mod physical;
pub mod project;

pub use dag::PipelineDag;
pub use error::{PlannerError, Result};
pub use fingerprint::{fingerprint_bytes, ProjectSnapshot, RunRecord, RunRegistry};
pub use logical::{LogicalPipeline, LogicalStep, StepAction};
pub use physical::{EdgeLocality, ExecutionMode, PhysicalPipeline, Stage};
pub use project::{NodeDef, NodeKind, PipelineProject};
