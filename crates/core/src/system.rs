//! SQL system tables: virtual relations over the process's telemetry.
//!
//! `system.queries`, `system.events` and `system.metrics` are materialized
//! on demand from the global [`lakehouse_obs`] state — the finished-query
//! log, the flight recorder, and the metrics registry. They are ordinary
//! batches once built, so both executors (materialized and streaming) run
//! the same operators over them and return byte-identical results.
//!
//! Schemas (all times in their named unit; counters as `Int64`):
//!
//! | table            | columns |
//! |------------------|---------|
//! | `system.queries` | query_id, tenant, label, status, reason, wall_ms, sim_ms, queue_wait_ms, io_bytes, io_bytes_written, io_ops, retry_stall_ms, kernel_wall_ms |
//! | `system.events`  | seq, wall_micros, kind, query_id, tenant, detail, value |
//! | `system.metrics` | name, kind, value, count, p50, p95, p99 |

use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Result, Schema};
use lakehouse_obs::MetricSnapshot;

/// Prefix that routes a table name to this module instead of the catalog.
pub const SYSTEM_PREFIX: &str = "system.";

/// Names of every system table (the `system.` prefix included).
pub const SYSTEM_TABLES: &[&str] = &["system.queries", "system.events", "system.metrics"];

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1_000_000.0
}

fn queries_schema() -> Schema {
    Schema::new(vec![
        Field::new("query_id", DataType::Int64, false),
        Field::new("tenant", DataType::Utf8, false),
        Field::new("label", DataType::Utf8, false),
        Field::new("status", DataType::Utf8, false),
        Field::new("reason", DataType::Utf8, false),
        Field::new("wall_ms", DataType::Float64, false),
        Field::new("sim_ms", DataType::Float64, false),
        Field::new("queue_wait_ms", DataType::Float64, false),
        Field::new("io_bytes", DataType::Int64, false),
        Field::new("io_bytes_written", DataType::Int64, false),
        Field::new("io_ops", DataType::Int64, false),
        Field::new("retry_stall_ms", DataType::Float64, false),
        Field::new("kernel_wall_ms", DataType::Float64, false),
    ])
}

/// `system.queries`: one row per finished query/run step, oldest first,
/// plus a live `running` row for the in-flight query scanning the table
/// (so a one-shot CLI `SELECT ... FROM system.queries` observes itself).
pub fn queries_batch() -> Result<RecordBatch> {
    let mut records = lakehouse_obs::query_log().snapshot();
    if let Some(ctx) = lakehouse_obs::QueryCtx::current() {
        if !records.iter().any(|r| r.query_id == ctx.query_id()) {
            records.push(lakehouse_obs::QueryRecord {
                query_id: ctx.query_id(),
                tenant: ctx.tenant().to_string(),
                label: ctx.label().to_string(),
                status: "running".to_string(),
                // A live row can already carry a kill reason: the token
                // tripped but the query has not unwound to a yield yet.
                reason: ctx
                    .killed()
                    .map(|r| r.as_str().to_string())
                    .unwrap_or_default(),
                wall_nanos: ctx.elapsed_nanos(),
                sim_nanos: 0,
                // A live row is mid-execution: its queue wait is only
                // pushed with the finished record.
                queue_wait_nanos: 0,
                ledger: ctx.ledger().snapshot(),
            });
        }
    }
    RecordBatch::try_new(
        queries_schema(),
        vec![
            Column::from_i64(records.iter().map(|r| r.query_id as i64).collect()),
            Column::from_strs(records.iter().map(|r| r.tenant.as_str()).collect()),
            Column::from_strs(records.iter().map(|r| r.label.as_str()).collect()),
            Column::from_strs(records.iter().map(|r| r.status.as_str()).collect()),
            Column::from_strs(records.iter().map(|r| r.reason.as_str()).collect()),
            Column::from_f64(records.iter().map(|r| ms(r.wall_nanos)).collect()),
            Column::from_f64(records.iter().map(|r| ms(r.sim_nanos)).collect()),
            Column::from_f64(records.iter().map(|r| ms(r.queue_wait_nanos)).collect()),
            Column::from_i64(records.iter().map(|r| r.ledger.io_bytes as i64).collect()),
            Column::from_i64(
                records
                    .iter()
                    .map(|r| r.ledger.io_bytes_written as i64)
                    .collect(),
            ),
            Column::from_i64(records.iter().map(|r| r.ledger.io_ops as i64).collect()),
            Column::from_f64(
                records
                    .iter()
                    .map(|r| ms(r.ledger.retry_stall_nanos))
                    .collect(),
            ),
            Column::from_f64(
                records
                    .iter()
                    .map(|r| ms(r.ledger.kernel_wall_nanos))
                    .collect(),
            ),
        ],
    )
}

fn events_schema() -> Schema {
    Schema::new(vec![
        Field::new("seq", DataType::Int64, false),
        Field::new("wall_micros", DataType::Int64, false),
        Field::new("kind", DataType::Utf8, false),
        Field::new("query_id", DataType::Int64, false),
        Field::new("tenant", DataType::Utf8, false),
        Field::new("detail", DataType::Utf8, false),
        Field::new("value", DataType::Int64, false),
    ])
}

/// `system.events`: the flight recorder's retained events, in seq order.
pub fn events_batch() -> Result<RecordBatch> {
    let events = lakehouse_obs::recorder().snapshot();
    RecordBatch::try_new(
        events_schema(),
        vec![
            Column::from_i64(events.iter().map(|e| e.seq as i64).collect()),
            Column::from_i64(events.iter().map(|e| e.wall_micros as i64).collect()),
            Column::from_strs(events.iter().map(|e| e.kind.as_str()).collect()),
            Column::from_i64(events.iter().map(|e| e.query_id as i64).collect()),
            Column::from_strs(events.iter().map(|e| e.tenant.as_str()).collect()),
            Column::from_strs(events.iter().map(|e| e.detail.as_str()).collect()),
            Column::from_i64(events.iter().map(|e| e.value as i64).collect()),
        ],
    )
}

fn metrics_schema() -> Schema {
    Schema::new(vec![
        Field::new("name", DataType::Utf8, false),
        Field::new("kind", DataType::Utf8, false),
        Field::new("value", DataType::Int64, false),
        Field::new("count", DataType::Int64, true),
        Field::new("p50", DataType::Int64, true),
        Field::new("p95", DataType::Int64, true),
        Field::new("p99", DataType::Int64, true),
    ])
}

/// `system.metrics`: the global registry, sorted by name. `value` is the
/// counter/gauge value or a histogram's sum; the quantile columns are null
/// for non-histograms.
pub fn metrics_batch() -> Result<RecordBatch> {
    let snaps = lakehouse_obs::global().snapshot();
    let mut names = Vec::with_capacity(snaps.len());
    let mut kinds = Vec::with_capacity(snaps.len());
    let mut values = Vec::with_capacity(snaps.len());
    let mut counts: Vec<Option<i64>> = Vec::with_capacity(snaps.len());
    let mut p50s: Vec<Option<i64>> = Vec::with_capacity(snaps.len());
    let mut p95s: Vec<Option<i64>> = Vec::with_capacity(snaps.len());
    let mut p99s: Vec<Option<i64>> = Vec::with_capacity(snaps.len());
    for (name, snap) in snaps {
        names.push(name);
        match snap {
            MetricSnapshot::Counter(v) => {
                kinds.push("counter");
                values.push(v as i64);
                counts.push(None);
                p50s.push(None);
                p95s.push(None);
                p99s.push(None);
            }
            MetricSnapshot::Gauge(v) => {
                kinds.push("gauge");
                values.push(v as i64);
                counts.push(None);
                p50s.push(None);
                p95s.push(None);
                p99s.push(None);
            }
            MetricSnapshot::Histogram {
                count,
                sum,
                p50,
                p95,
                p99,
                ..
            } => {
                kinds.push("histogram");
                values.push(sum as i64);
                counts.push(Some(count as i64));
                p50s.push(Some(p50 as i64));
                p95s.push(Some(p95 as i64));
                p99s.push(Some(p99 as i64));
            }
        }
    }
    RecordBatch::try_new(
        metrics_schema(),
        vec![
            Column::from_str_vec(names),
            Column::from_strs(kinds),
            Column::from_i64(values),
            Column::from_opt_i64(counts),
            Column::from_opt_i64(p50s),
            Column::from_opt_i64(p95s),
            Column::from_opt_i64(p99s),
        ],
    )
}

/// Schema of `name`, or `None` if it is not a system table.
pub fn system_schema(name: &str) -> Option<Schema> {
    match name {
        "system.queries" => Some(queries_schema()),
        "system.events" => Some(events_schema()),
        "system.metrics" => Some(metrics_schema()),
        _ => None,
    }
}

/// Build the batch for system table `name`, or `None` if it is not one.
pub fn system_batch(name: &str) -> Option<Result<RecordBatch>> {
    match name {
        "system.queries" => Some(queries_batch()),
        "system.events" => Some(events_batch()),
        "system.metrics" => Some(metrics_batch()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_resolve_only_for_system_tables() {
        for name in SYSTEM_TABLES {
            assert!(system_schema(name).is_some(), "{name}");
        }
        assert!(system_schema("system.ghost").is_none());
        assert!(system_schema("queries").is_none());
    }

    #[test]
    fn batches_match_their_schemas() {
        for name in SYSTEM_TABLES {
            let batch = system_batch(name).unwrap().unwrap();
            assert_eq!(batch.schema(), &system_schema(name).unwrap(), "{name}");
        }
    }
}
