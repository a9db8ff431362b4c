//! Unified observability for the lakehouse: structured span traces with
//! **dual clocks** (wall time + simulated store/runtime time), a process-wide
//! [`MetricsRegistry`], and exporters (Chrome trace format, ASCII trees).
//!
//! Design constraints (DESIGN.md §10):
//!
//! * **Zero-cost when disabled.** [`span`] is a single relaxed atomic load
//!   when no trace is active anywhere in the process, and a thread-local
//!   lookup otherwise. No locks are ever taken on span hot paths; spans are
//!   buffered in a plain thread-local `Vec`.
//! * **Deterministic under simulated latency.** Every span records both the
//!   wall clock and the simulated clock (the store's charged latency plus the
//!   runtime's virtual startup clock), so traces of simulated runs are
//!   reproducible while wall time still shows real compute cost.
//! * **Per-trace collection.** Spans are collected per root trace on the
//!   thread that opened it, not into a global buffer, so concurrent queries
//!   (and parallel tests) never contaminate each other's trees.

mod chrome;
pub mod ctx;
mod recorder;
mod registry;
mod span;

pub use chrome::to_chrome_trace;
pub use ctx::{
    cancel_all_requested, check_current, clear_cancel_all, request_cancel_all, KillReason,
    LedgerSnapshot, QueryCtx, ResourceLedger,
};
pub use recorder::{query_log, recorder, Event, EventKind, FlightRecorder, QueryLog, QueryRecord};
pub use registry::{global, Counter, Gauge, Histogram, MetricSnapshot, MetricsRegistry};
pub use span::{
    fmt_duration, reparent_under, set_thread_sim_source, span, thread_sim_nanos, AttrValue,
    ParentGuard, SimSource, SimSourceGuard, SpanData, SpanGuard, SpanTree, Trace,
};
