//! # bauplan-core
//!
//! The serverless Data Lakehouse platform assembled from the "spare parts"
//! substrates — the Rust reproduction of the paper's Bauplan system.
//!
//! The [`Lakehouse`] façade wires together:
//!
//! * `lakehouse-store` — simulated S3 (the data lake);
//! * `lakehouse-table` — Iceberg-style tables with time travel;
//! * `lakehouse-catalog` — Nessie-style git semantics for data;
//! * `lakehouse-sql` — the embedded DuckDB-style query engine;
//! * `lakehouse-planner` — code intelligence (implicit DAGs, fusion);
//! * `lakehouse-runtime` — the serverless layer's cost model: container
//!   start-up and freeze charged per stage on a simulated clock.
//!
//! and exposes the paper's two CLI verbs as a library API:
//!
//! * [`Lakehouse::query`] — synchronous, point-wise SQL over any branch,
//!   tag, or commit (`bauplan query -q ... -b feat_1`);
//! * [`Lakehouse::run`] / [`Lakehouse::run_async`] — DAG execution with the
//!   **transform-audit-write** pattern: every run executes in an ephemeral
//!   catalog branch, expectations audit the artifacts, and only a fully
//!   green run merges into the target branch (paper Fig. 4);
//! * [`Lakehouse::replay`] — re-execute recorded runs (`--run-id N -m
//!   node+`) against the same code snapshot and data version.
//!
//! ```
//! use bauplan_core::{Lakehouse, LakehouseConfig};
//! use lakehouse_columnar::{Column, RecordBatch, Schema, Field, DataType};
//!
//! let lh = Lakehouse::in_memory(LakehouseConfig::default()).unwrap();
//! let batch = RecordBatch::try_new(
//!     Schema::new(vec![Field::new("x", DataType::Int64, false)]),
//!     vec![Column::from_i64(vec![1, 2, 3])],
//! ).unwrap();
//! lh.create_table("numbers", &batch, "main").unwrap();
//! let out = lh.query("SELECT COUNT(*) AS n FROM numbers", "main").unwrap();
//! assert_eq!(out.num_rows(), 1);
//! ```

pub mod admission;
pub mod config;
pub mod error;
pub mod estimator;
pub mod functions;
pub mod governance;
pub mod lakehouse;
pub mod provider;
pub mod run;
pub mod system;

pub use admission::{AdmissionController, AdmissionPermit, ShedInfo};
pub use config::{AdmissionConfig, LakehouseConfig};
pub use error::{BauplanError, Result};
pub use estimator::MemoryEstimator;
pub use functions::{builtins, Batches, FnContext, FnOutput, FunctionRegistry, NativeFunction};
pub use governance::{standard_policy, AccessController, Action, Grant, Principal};
pub use lakehouse::Lakehouse;
pub use run::{RunOptions, RunReport};

// Re-export the pieces users need to build pipelines without importing every
// substrate crate.
pub use lakehouse_planner::project::Requirements;
pub use lakehouse_planner::{ExecutionMode, LogicalPipeline, PhysicalPipeline};
pub use lakehouse_planner::{NodeDef, PipelineProject};
pub use lakehouse_store::ChaosConfig;
