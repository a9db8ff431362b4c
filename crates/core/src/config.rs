//! Platform configuration.

use lakehouse_planner::ExecutionMode;
use lakehouse_runtime::RuntimeConfig;
use lakehouse_scheduler::PolicyKind;
use lakehouse_store::{BufferPool, ChaosConfig, LatencyModel};
use std::sync::Arc;

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
    /// Serverless runtime tuning.
    pub runtime: RuntimeConfig,
    /// Default memory estimate per pipeline step (drives fusion packing and
    /// the per-invocation memory grant).
    pub default_step_memory: u64,
    /// Author recorded on catalog commits.
    pub author: String,
    /// Tenant label stamped on this instance's query contexts — carried into
    /// per-query resource ledgers, flight-recorder events, and
    /// `system.queries` rows (`--tenant` on the CLI).
    pub tenant: String,
    /// Row-group size for table writes.
    pub row_group_rows: usize,
    /// A process-wide verified buffer pool to put between this instance and
    /// its store (`--shared-pool-mb` on the CLI). Several `Lakehouse`
    /// instances handed the same `Arc` share one admission-controlled,
    /// checksummed page cache of object bytes — the second engine's data
    /// reads hit pages the first one already pulled. `None` (the default)
    /// adds no byte cache; parsed table metadata is always cached, per
    /// instance, whatever this is.
    pub shared_pool: Option<Arc<BufferPool>>,
    /// Retries per failed operation across the resilience layer: store
    /// requests (via `RetryStore`), per-file scan re-reads, and idempotent
    /// run steps. 0 (the default) disables the retry wrappers entirely, so
    /// the store stack — and every op-count-asserting test — is
    /// byte-identical to a build without the resilience layer.
    pub retry_max: u32,
    /// Total backoff budget for store-level retries, in milliseconds
    /// (bounds worst-case added latency per `Lakehouse` instance).
    pub retry_budget_ms: u64,
    /// Seeded fault injection between the retry layer and the simulated
    /// store. `None` (the default) injects nothing and adds no wrapper.
    pub chaos: Option<ChaosConfig>,
    /// Scan partial-failure policy: `false` (default) fails a query on the
    /// first data file that exhausts its retries; `true` drops the file,
    /// counts it in `ScanReport::files_failed`, and returns the rest.
    pub scan_partial_failures: bool,
    /// Hedge tail-slow data-file reads at the live p95 of the store's
    /// latency distribution (`--hedge-p95`), with a win-rate circuit
    /// breaker. Off by default: it pays only against a store whose tail
    /// stalls (EXPERIMENTS.md, "hedging under a stalling store").
    pub hedge_p95: bool,
    /// Per-query deadline in milliseconds (`--query-timeout-ms`). Measured
    /// against wall time plus attributed simulated retry stall; past it the
    /// query's cancel token trips with `KillReason::Deadline`. 0 (the
    /// default) arms no deadline.
    pub query_timeout_ms: u64,
    /// Per-query peak-working-set budget in bytes (`--memory-budget-mb` on
    /// the CLI). Enforced on every statement against the live bytes the
    /// executor's operators hold; trips as `KillReason::MemoryBudget`.
    /// 0 = off.
    pub memory_budget_bytes: u64,
    /// Per-query attributed IO byte budget, read + written
    /// (`--io-budget-mb`). Trips as `KillReason::IoBudget`. 0 = off.
    pub io_budget_bytes: u64,
    /// Per-query retry-stall budget in milliseconds: total backoff a query
    /// may be charged before it is killed (as `KillReason::Deadline` — a
    /// query out of stall budget is past its effective deadline). 0 = off.
    pub retry_stall_budget_ms: u64,
    /// Admission gate: maximum concurrently executing top-level queries
    /// (`--max-concurrent-queries`). 0 (the default) builds no gate at all
    /// — no queueing, no shedding, seed-identical behavior.
    pub max_concurrent_queries: usize,
    /// Per-tenant cap on admission slots (`--tenant-slots`). 0 = no
    /// per-tenant cap (a tenant may use every slot). Only meaningful when
    /// `max_concurrent_queries > 0`.
    pub tenant_slots: usize,
    /// Bounded admission wait queue: submissions beyond this many waiters
    /// are shed immediately with `Overloaded { retry_after }`.
    pub queue_cap: usize,
    /// Maximum milliseconds a submission may wait in the admission queue
    /// before being shed with `Overloaded { retry_after }`.
    pub queue_deadline_ms: u64,
    /// Which scheduling policy orders the admission queue
    /// (`--sched-policy fifo|fair|cost`). The default, `Fifo`, is
    /// byte-identical to the pre-policy-layer gate. Only meaningful when
    /// `max_concurrent_queries > 0`.
    pub sched_policy: PolicyKind,
    /// Fair-share weights, `(tenant, weight)` (`--tenant-weight name=W`,
    /// repeatable). Unlisted tenants weigh 1.0. Used by the `FairShare`
    /// policy; ignored by the others.
    pub tenant_weights: Vec<(String, f64)>,
    /// Per-tenant byte quota on the shared buffer pool's *protected*
    /// segment (`--pool-tenant-quota-mb`). 0 (the default) disables tenant
    /// accounting entirely — pool behavior stays byte-identical to an
    /// unquota'd build. When set, a tenant at quota keeps its pages in
    /// probation (no promotion), and a miss never evicts another tenant's
    /// protected pages.
    pub pool_tenant_quota_bytes: usize,
}

impl Default for LakehouseConfig {
    fn default() -> Self {
        LakehouseConfig {
            warehouse_prefix: "warehouse".into(),
            catalog_prefix: "_catalog".into(),
            latency: LatencyModel::s3_like(),
            execution_mode: ExecutionMode::Fused,
            runtime: RuntimeConfig::default(),
            default_step_memory: 512 * 1024 * 1024,
            author: "bauplan".into(),
            tenant: "default".into(),
            row_group_rows: 8192,
            shared_pool: None,
            retry_max: 0,
            retry_budget_ms: 30_000,
            chaos: None,
            scan_partial_failures: false,
            hedge_p95: false,
            query_timeout_ms: 0,
            memory_budget_bytes: 0,
            io_budget_bytes: 0,
            retry_stall_budget_ms: 0,
            max_concurrent_queries: 0,
            tenant_slots: 0,
            queue_cap: 16,
            queue_deadline_ms: 100,
            sched_policy: PolicyKind::Fifo,
            tenant_weights: Vec::new(),
            pool_tenant_quota_bytes: 0,
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
