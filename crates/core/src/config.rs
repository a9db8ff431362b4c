//! Platform configuration.

use lakehouse_planner::ExecutionMode;
use lakehouse_store::{ChaosConfig, LatencyModel};
use std::time::Duration;

/// Configuration for a [`crate::Lakehouse`].
#[derive(Debug, Clone)]
pub struct LakehouseConfig {
    /// Object-store prefix for table data/metadata.
    pub warehouse_prefix: String,
    /// Object-store prefix for the catalog.
    pub catalog_prefix: String,
    /// Latency model for the simulated object store.
    pub latency: LatencyModel,
    /// How pipeline runs map steps to containers.
    pub execution_mode: ExecutionMode,
    /// Memory of one worker, in bytes: the physical planner packs steps into
    /// a stage until their estimated working sets exceed it (vertical
    /// elasticity, paper §4.5).
    pub worker_memory_bytes: u64,
    /// Author recorded on catalog commits.
    pub author: String,
    /// Tenant label stamped on this instance's query contexts — carried into
    /// per-query resource ledgers, flight-recorder events, and
    /// `system.queries` rows (`--tenant` on the CLI).
    pub tenant: String,
    /// Rows per row group of every data file a table write, an append, a
    /// run's artifact or a compaction encodes. It bounds a group rather than
    /// fixing it where a run's artifact copies its sources' chunks: those
    /// keep their files' groups, short tails included (DESIGN.md §34).
    pub row_group_rows: usize,
    /// Retries per failed store request: above 0 a `RetryStore` goes into
    /// the store stack and owns every transient fault — it retries with
    /// backoff and ends as `RetriesExhausted`, which nothing above it
    /// retries again. The same count bounds the re-reads of an object whose
    /// bytes failed their checksum (the one fault only a reader can see).
    pub retry_max: u32,
    /// Total backoff budget for store-level retries, in milliseconds
    /// (bounds worst-case added latency per `Lakehouse` instance).
    pub retry_budget_ms: u64,
    /// Seeded fault injection between the retry layer and the simulated
    /// store.
    pub chaos: Option<ChaosConfig>,
    /// Hedge tail-slow data-file reads at the live p95 of the store's
    /// latency distribution (`--hedge-p95`), with a win-rate circuit
    /// breaker. Off by default: it pays only against a store whose tail
    /// stalls (EXPERIMENTS.md, "hedging under a stalling store").
    pub hedge_p95: bool,
    /// Per-query deadline in milliseconds (`--query-timeout-ms`). Measured
    /// against wall time plus attributed simulated retry stall; past it the
    /// query's cancel token trips with `KillReason::Deadline`. 0 arms none.
    pub query_timeout_ms: u64,
    /// Per-query peak-working-set budget in bytes (`--memory-budget-mb` on
    /// the CLI). Enforced on every statement against the live bytes the
    /// executor's operators hold; trips as `KillReason::MemoryBudget`.
    /// 0 arms none.
    pub memory_budget_bytes: u64,
    /// Per-query attributed IO byte budget, read + written
    /// (`--io-budget-mb`). Trips as `KillReason::IoBudget`. 0 arms none.
    pub io_budget_bytes: u64,
    /// The admission gate in front of this instance's top-level queries and
    /// run stages. A process with one front and one thread never contends
    /// for it, so the CLI has no flag for it; a multi-front embedder builds
    /// one `AdmissionController` and hands every front a clone
    /// (`Lakehouse::set_admission`, `tests/scheduler.rs`).
    pub admission: Option<AdmissionConfig>,
}

/// The admission gate's limits (`crate::AdmissionController`). Waiters are
/// admitted in arrival order (DESIGN.md §16).
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Platform-wide concurrent work-item slots (at least 1).
    pub max_slots: usize,
    /// Waiters beyond this many are shed immediately with
    /// `Overloaded { retry_after }`.
    pub queue_cap: usize,
    /// Longest a waiter may queue before it is shed the same way.
    pub queue_deadline: Duration,
}

impl Default for AdmissionConfig {
    /// One slot, sixteen waiters, 100 ms.
    fn default() -> Self {
        AdmissionConfig {
            max_slots: 1,
            queue_cap: 16,
            queue_deadline: Duration::from_millis(100),
        }
    }
}

impl Default for LakehouseConfig {
    fn default() -> Self {
        LakehouseConfig {
            warehouse_prefix: "warehouse".into(),
            catalog_prefix: "_catalog".into(),
            latency: LatencyModel::s3_like(),
            execution_mode: ExecutionMode::Fused,
            worker_memory_bytes: 32 * 1024 * 1024 * 1024,
            author: "bauplan".into(),
            tenant: "default".into(),
            row_group_rows: 8192,
            retry_max: 0,
            retry_budget_ms: 30_000,
            chaos: None,
            hedge_p95: false,
            query_timeout_ms: 0,
            memory_budget_bytes: 0,
            io_budget_bytes: 0,
            admission: None,
        }
    }
}

impl LakehouseConfig {
    /// The naive one-function-per-node configuration (the paper's first
    /// version, used as the baseline in benches).
    pub fn naive() -> Self {
        LakehouseConfig {
            execution_mode: ExecutionMode::Naive,
            ..Default::default()
        }
    }

    /// Zero-latency store (unit tests that don't care about timing).
    pub fn zero_latency() -> Self {
        LakehouseConfig {
            latency: LatencyModel::zero(),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fused() {
        assert_eq!(
            LakehouseConfig::default().execution_mode,
            ExecutionMode::Fused
        );
        assert_eq!(
            LakehouseConfig::naive().execution_mode,
            ExecutionMode::Naive
        );
    }
}
