//! Tracing overhead on the hot path: disabled tracing must cost < 2% of the
//! 24-file scan-filter-aggregate query (the PR 2 parallel-scan baseline).
//!
//! With no trace active, every instrumentation point is one relaxed atomic
//! load returning a noop guard. This bench measures that cost directly — a
//! microbenchmark of the noop span — then scales it by the number of
//! instrumentation events a real traced run of the query records (span tree
//! size, with a 4x margin for the per-batch `is_recording` checks) and
//! divides by the median wall time of the query itself. The resulting
//! disabled-overhead fraction is asserted `< 2%`. The enabled (forced-trace)
//! overhead is reported for information.
//!
//! The always-on flight recorder gets the same treatment: its per-event cost
//! (one try-lock + ring-slot write) is microbenchmarked, scaled by the number
//! of events one query actually records (delta of `events.recorded`), and
//! asserted `< 2%` of the query. A `telemetry_query` step times the
//! `system.queries` virtual scan itself.
//!
//! Regenerate: `cargo run -p lakehouse-bench --bin obs_overhead --release`
//! (writes `BENCH_obs.json` in the working directory). `--files` and
//! `--rows` override the table shape (defaults 24 × 4000).

// Examples and benches print their results.
#![allow(clippy::print_stdout)]

use bauplan_core::{Lakehouse, LakehouseConfig};
use lakehouse_bench::print_rows;
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema};
use lakehouse_store::LatencyModel;
use lakehouse_table::PartitionSpec;
use std::time::Instant;

const AGG_SQL: &str = "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM events \
                       WHERE val < 1.0e9 GROUP BY grp ORDER BY grp";

/// The PR 2 scan-pipeline fixture: an `events` table spanning `files`
/// identity-partition data files of `rows_per` rows each. Store latency is
/// simulated-clock only, so wall-time medians measure compute, not sleeps.
fn build(files: usize, rows_per: usize) -> Lakehouse {
    let config = LakehouseConfig {
        latency: LatencyModel {
            sigma: 0.0,
            ..LatencyModel::s3_like()
        },
        ..Default::default()
    };
    let lh = Lakehouse::in_memory(config).expect("lakehouse");
    let total = files * rows_per;
    let batch = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("part", DataType::Int64, false),
            Field::new("grp", DataType::Int64, false),
            Field::new("val", DataType::Float64, false),
        ]),
        vec![
            Column::from_i64((0..total).map(|i| (i / rows_per) as i64).collect()),
            Column::from_i64((0..total).map(|i| (i % 7) as i64).collect()),
            Column::from_f64((0..total).map(|i| i as f64 * 0.5).collect()),
        ],
    )
    .expect("fixture batch");
    lh.create_table_partitioned("events", &batch, "main", PartitionSpec::identity("part"))
        .expect("create table");
    lh
}

fn parse_args() -> (usize, usize) {
    let mut files = 24usize;
    let mut rows = 4_000usize;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let parse = |v: Option<&String>, flag: &str| -> usize {
            v.and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("{flag} expects a number"))
        };
        match argv[i].as_str() {
            "--files" => {
                files = parse(argv.get(i + 1), "--files").max(2);
                i += 1;
            }
            "--rows" => {
                rows = parse(argv.get(i + 1), "--rows").max(1);
                i += 1;
            }
            other => panic!("unknown argument: {other}"),
        }
        i += 1;
    }
    (files, rows)
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let (files, rows_per) = parse_args();
    println!("=== tracing overhead on {files} files x {rows_per} rows ===");
    let lh = build(files, rows_per);

    // Noop-span microbenchmark: the entire disabled-tracing code path.
    const SPAN_ITERS: u64 = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..SPAN_ITERS {
        std::hint::black_box(lakehouse_obs::span("noop"));
    }
    let noop_span_ns = t0.elapsed().as_nanos() as f64 / SPAN_ITERS as f64;

    // How many spans does one traced run of the query record?
    let (_, tree) = lh.profile(AGG_SQL, "main").expect("traced query");
    let spans_per_query = tree.spans.len();
    // Margin for per-batch `is_recording` checks and attr guards.
    let events_per_query = spans_per_query * 4;

    // Median wall time of the query with tracing disabled (the normal path)
    // and with a forced trace (the `profile` path), after a warmup each.
    const QUERY_ITERS: usize = 30;
    let mut disabled = Vec::with_capacity(QUERY_ITERS);
    let mut enabled = Vec::with_capacity(QUERY_ITERS);
    for _ in 0..QUERY_ITERS {
        let t = Instant::now();
        std::hint::black_box(lh.query(AGG_SQL, "main").expect("query"));
        disabled.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        std::hint::black_box(lh.profile(AGG_SQL, "main").expect("profile"));
        enabled.push(t.elapsed().as_nanos() as u64);
    }
    let disabled_ns = median(disabled);
    let enabled_ns = median(enabled);

    let overhead = noop_span_ns * events_per_query as f64 / disabled_ns as f64;
    let enabled_overhead = (enabled_ns as f64 - disabled_ns as f64) / disabled_ns as f64;

    // Flight-recorder cost: one attributed event on the hot path.
    const REC_ITERS: u64 = 500_000;
    let ctx = lakehouse_obs::QueryCtx::new("bench", "obs_overhead");
    let _attributed = ctx.enter();
    let t0 = Instant::now();
    for i in 0..REC_ITERS {
        lakehouse_obs::recorder().record(lakehouse_obs::EventKind::StoreOp, "get", i);
    }
    let record_ns = t0.elapsed().as_nanos() as f64 / REC_ITERS as f64;
    drop(_attributed);

    // How many events does one query actually record?
    let recorded0 = lakehouse_obs::global().counter("events.recorded").get();
    lh.query(AGG_SQL, "main").expect("query");
    let events_recorded = lakehouse_obs::global().counter("events.recorded").get() - recorded0;
    let recorder_overhead = record_ns * events_recorded as f64 / disabled_ns as f64;

    // The telemetry path itself: querying the flight recorder back out as SQL.
    const TELEMETRY_SQL: &str = "SELECT query_id, io_bytes, io_ops FROM system.queries \
                                 ORDER BY io_bytes DESC LIMIT 5";
    let mut telemetry = Vec::with_capacity(QUERY_ITERS);
    for _ in 0..QUERY_ITERS {
        let t = Instant::now();
        std::hint::black_box(lh.query(TELEMETRY_SQL, "main").expect("telemetry query"));
        telemetry.push(t.elapsed().as_nanos() as u64);
    }
    let telemetry_ns = median(telemetry);

    print_rows(
        "disabled-tracing overhead on the 24-file scan query",
        &["metric", "value"],
        &[
            vec!["noop span (ns)".into(), format!("{noop_span_ns:.2}")],
            vec![
                "spans per traced query".into(),
                format!("{spans_per_query}"),
            ],
            vec![
                "events budgeted (4x margin)".into(),
                format!("{events_per_query}"),
            ],
            vec![
                "median query, tracing off".into(),
                format!("{:.3} ms", disabled_ns as f64 / 1e6),
            ],
            vec![
                "median query, forced trace".into(),
                format!("{:.3} ms", enabled_ns as f64 / 1e6),
            ],
            vec![
                "disabled overhead".into(),
                format!("{:.5}%", overhead * 100.0),
            ],
            vec![
                "enabled overhead (info)".into(),
                format!("{:.2}%", enabled_overhead * 100.0),
            ],
            vec!["recorder event (ns)".into(), format!("{record_ns:.2}")],
            vec![
                "events recorded per query".into(),
                format!("{events_recorded}"),
            ],
            vec![
                "recorder-on overhead".into(),
                format!("{:.5}%", recorder_overhead * 100.0),
            ],
            vec![
                "median system.queries scan".into(),
                format!("{:.3} ms", telemetry_ns as f64 / 1e6),
            ],
        ],
    );

    assert!(
        overhead < 0.02,
        "disabled-tracing overhead {:.4}% exceeds the 2% budget \
         (noop span {noop_span_ns:.2} ns x {events_per_query} events vs \
         {disabled_ns} ns query)",
        overhead * 100.0
    );
    assert!(
        recorder_overhead < 0.02,
        "flight-recorder overhead {:.4}% exceeds the 2% budget \
         ({record_ns:.2} ns x {events_recorded} events vs {disabled_ns} ns query)",
        recorder_overhead * 100.0
    );

    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"files\": {files},\n  \"rows_per_file\": {rows_per},\n  \"query\": \"scan-filter-aggregate\",\n  \"summary\": {{\n    \"noop_span_ns\": {noop_span_ns:.3},\n    \"spans_per_query\": {spans_per_query},\n    \"events_budgeted\": {events_per_query},\n    \"median_query_ns_tracing_off\": {disabled_ns},\n    \"median_query_ns_forced_trace\": {enabled_ns},\n    \"disabled_overhead_fraction\": {overhead:.8},\n    \"enabled_overhead_fraction\": {enabled_overhead:.6},\n    \"recorder_event_ns\": {record_ns:.3},\n    \"recorder_events_per_query\": {events_recorded},\n    \"recorder_overhead_fraction\": {recorder_overhead:.8},\n    \"median_telemetry_query_ns\": {telemetry_ns},\n    \"budget_fraction\": 0.02,\n    \"within_budget\": true\n  }}\n}}\n"
    );
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("\nwrote BENCH_obs.json");
    println!(
        "disabled tracing costs {:.5}% of the query ({} spans x {:.2} ns, 4x margin)",
        overhead * 100.0,
        spans_per_query,
        noop_span_ns
    );
}
