//! Queryable system telemetry, end to end: per-query resource ledgers that
//! reconcile exactly with the global registry, the flight recorder surfaced
//! through `system.events`, and the `system.*` virtual tables behaving
//! identically in both executors.

use bauplan_core::{Lakehouse, LakehouseConfig};
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Global registry counters and the flight recorder are process-wide, so
/// every test here that asserts on deltas (or retained events) serializes on
/// this lock. Other test binaries are separate processes.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn counter(name: &str) -> u64 {
    lakehouse_obs::global().counter(name).get()
}

/// Latest finished-query record whose label is exactly `sql`.
fn record_for(sql: &str) -> lakehouse_obs::QueryRecord {
    lakehouse_obs::query_log()
        .snapshot()
        .into_iter()
        .rev()
        .find(|r| r.label == sql)
        .unwrap_or_else(|| panic!("no query record for {sql}"))
}

/// A lakehouse whose `events` table spans `files` data files of 64 rows.
fn lakehouse(config: LakehouseConfig, files: usize) -> Lakehouse {
    let lh = Lakehouse::in_memory(config).unwrap();
    for file in 0..files {
        let base = (file * 64) as i64;
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("val", DataType::Float64, false),
            ]),
            vec![
                Column::from_i64((0..64).map(|i| base + i).collect()),
                Column::from_f64((0..64).map(|i| (base + i) as f64 * 0.5).collect()),
            ],
        )
        .unwrap();
        if file == 0 {
            lh.create_table("events", &batch, "main").unwrap();
        } else {
            lh.append_table("events", &batch, "main").unwrap();
        }
    }
    lh
}

/// The acceptance workload: two queries get disjoint ledgers whose totals
/// reconcile exactly with the global registry deltas, and `system.queries`
/// serves those ledgers back over SQL.
#[test]
fn two_query_ledgers_reconcile_with_registry_and_system_queries() {
    let _serial = serial();
    let config = LakehouseConfig {
        tenant: "team-a".into(),
        ..LakehouseConfig::zero_latency()
    };
    let lh = lakehouse(config, 6);

    // Baseline the counters after the setup noise.
    let bytes0 = counter("store.bytes_read");
    let gets0 = counter("store.gets");

    const Q_A: &str = "SELECT COUNT(*) AS n FROM events";
    const Q_B: &str = "SELECT SUM(val) AS s FROM events WHERE id >= 32";
    lh.query(Q_A, "main").unwrap();
    lh.query(Q_B, "main").unwrap();

    let bytes_delta = counter("store.bytes_read") - bytes0;
    let gets_delta = counter("store.gets") - gets0;

    let a = record_for(Q_A);
    let b = record_for(Q_B);
    assert_ne!(a.query_id, b.query_id, "each query gets its own id");
    assert_eq!(a.tenant, "team-a");
    assert_eq!(a.status, "ok");
    assert!(a.ledger.io_bytes > 0, "query A read from the backend");
    assert!(b.ledger.io_bytes > 0, "query B read from the backend");
    // Exact reconciliation: nothing double-counted, nothing lost. Neither
    // query writes, so every attributed op is a GET.
    assert_eq!(a.ledger.io_bytes + b.ledger.io_bytes, bytes_delta);
    assert_eq!(a.ledger.io_ops + b.ledger.io_ops, gets_delta);

    // The same numbers come back over SQL.
    let out = lh
        .query(
            "SELECT query_id, io_bytes, io_ops, retry_stall_ms FROM system.queries",
            "main",
        )
        .unwrap();
    let row = |id: u64| -> Vec<Value> {
        (0..out.num_rows())
            .map(|i| out.row(i).unwrap())
            .find(|r| r[0] == Value::Int64(id as i64))
            .unwrap_or_else(|| panic!("system.queries row for query {id}"))
    };
    for rec in [&a, &b] {
        let r = row(rec.query_id);
        assert_eq!(r[1], Value::Int64(rec.ledger.io_bytes as i64));
        assert_eq!(r[2], Value::Int64(rec.ledger.io_ops as i64));
        assert_eq!(r[3].as_f64(), Some(0.0), "no retries configured");
    }
}

/// `system.queries` is served by the executor like any table, including
/// ORDER BY/LIMIT over the ledger columns.
#[test]
fn system_queries_through_both_executors() {
    let _serial = serial();
    let lh = lakehouse(LakehouseConfig::zero_latency(), 4);
    const WARM: &str = "SELECT MAX(id) AS m0 FROM events";
    lh.query(WARM, "main").unwrap();
    let out = lh
        .query(
            "SELECT query_id, io_bytes FROM system.queries ORDER BY io_bytes DESC LIMIT 5",
            "main",
        )
        .unwrap();
    assert!((1..=5).contains(&out.num_rows()), "LIMIT respected");
    let io_bytes: Vec<i64> = (0..out.num_rows())
        .map(|i| out.row(i).unwrap()[1].as_i64().unwrap())
        .collect();
    assert!(
        io_bytes.windows(2).all(|w| w[0] >= w[1]),
        "sorted descending: {io_bytes:?}"
    );
    // The warm-up query's record is findable and nonzero.
    assert!(record_for(WARM).ledger.io_bytes > 0);
}

/// A finished query's flight-recorder events come back byte-identical
/// whichever lakehouse instance of the process serves `system.events`
/// (filtered to a fixed query id so later recording can't perturb the
/// result).
#[test]
fn system_events_identical_between_executors() {
    let _serial = serial();
    let lh_m = lakehouse(LakehouseConfig::zero_latency(), 4);
    let lh_s = lakehouse(LakehouseConfig::zero_latency(), 4);
    const Q: &str = "SELECT COUNT(*) AS n FROM events WHERE id < 96";
    lh_m.query(Q, "main").unwrap();
    let target = record_for(Q).query_id;

    let sql = format!(
        "SELECT seq, kind, query_id, tenant, detail, value FROM system.events \
         WHERE query_id = {target} ORDER BY seq"
    );
    let materialized = lh_m.query(&sql, "main").unwrap();
    let streaming = lh_s.query(&sql, "main").unwrap();
    assert_eq!(
        materialized, streaming,
        "instances must agree byte-for-byte"
    );

    // The bracket events and the query's store ops are all attributed.
    let kinds: Vec<String> = (0..materialized.num_rows())
        .map(|i| materialized.row(i).unwrap()[1].to_string())
        .collect();
    assert!(kinds.iter().any(|k| k.contains("query_start")));
    assert!(kinds.iter().any(|k| k.contains("query_finish")));
    assert!(kinds.iter().any(|k| k.contains("store_op")));
}

/// Every byte fetched by the scan's I/O workers is attributed to the
/// submitting query: for a single-query window the ledger equals the global
/// registry delta exactly.
#[test]
fn overlapped_fetch_workers_never_lose_attribution() {
    let _serial = serial();
    let lh = lakehouse(LakehouseConfig::zero_latency(), 8);
    let bytes0 = counter("store.bytes_read");
    const Q: &str = "SELECT SUM(id) AS s, MIN(val) AS v FROM events";
    lh.query(Q, "main").unwrap();
    let delta = counter("store.bytes_read") - bytes0;
    let rec = record_for(Q);
    assert!(rec.ledger.io_bytes > 0);
    assert_eq!(
        rec.ledger.io_bytes, delta,
        "I/O workers charged the query for every backend byte"
    );
    assert!(rec.ledger.io_ops > 0);
    assert!(
        lh.io_dispatcher().stats().submitted >= 7,
        "the eight-file scan went through the workers"
    );
}

/// Requests a satisfied LIMIT leaves in flight are cancelled: the scan's
/// window ramps 1 → 2 → …, so a LIMIT that needs a second file has at most
/// one request beyond it to abandon, its window moves strictly fewer bytes
/// than a full scan, and the abandoned request shows in
/// `io.readahead_wasted`.
#[test]
fn cancelled_prefetch_stays_off_the_querys_ledger() {
    let _serial = serial();
    let mk = LakehouseConfig::zero_latency;

    // Baseline: identical instance, full scan.
    let lh_full = lakehouse(mk(), 12);
    let full0 = counter("store.bytes_read");
    lh_full
        .query("SELECT MAX(id) AS m FROM events", "main")
        .unwrap();
    settle_dispatcher();
    let full_bytes = counter("store.bytes_read") - full0;

    // 65 rows: satisfied one row into the second 64-row file, with the
    // third file's request still in the window.
    let lh = lakehouse(mk(), 12);
    let wasted0 = counter("io.readahead_wasted");
    let bytes0 = counter("store.bytes_read");
    const Q: &str = "SELECT id FROM events LIMIT 65";
    lh.query(Q, "main").unwrap();
    settle_dispatcher();
    let bytes_delta = counter("store.bytes_read") - bytes0;

    assert!(
        counter("io.readahead_wasted") > wasted0,
        "the LIMIT abandoned the request beyond it"
    );
    assert!(
        bytes_delta < full_bytes,
        "the ramp overshot: limited window {bytes_delta} vs full scan {full_bytes}"
    );
    // Whatever did reach the backend inside the query is on its ledger;
    // an in-flight request that completes after the query finishes is the
    // only slack, and it can only make the ledger smaller.
    assert!(record_for(Q).ledger.io_bytes <= bytes_delta);
}

/// Wait until the global dispatcher(s) have no in-flight or queued work, so
/// registry deltas are stable. (`io.submitted` = `io.completed` +
/// `io.cancelled` once everything settles.)
fn settle_dispatcher() {
    for _ in 0..500 {
        let settled = counter("io.submitted") == counter("io.completed") + counter("io.cancelled");
        if settled {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    panic!("I/O dispatcher did not settle");
}

/// `system.metrics` is a queryable relation; there is no `system.pool`.
#[test]
fn system_metrics_is_a_queryable_relation() {
    let _serial = serial();
    let lh = lakehouse(LakehouseConfig::zero_latency(), 2);
    lh.query("SELECT COUNT(*) AS n FROM events", "main")
        .unwrap();
    let out = lh
        .query(
            "SELECT name, kind, value FROM system.metrics WHERE name = 'store.bytes_read'",
            "main",
        )
        .unwrap();
    assert_eq!(out.num_rows(), 1);
    assert_eq!(out.row(0).unwrap()[1], Value::from("counter"));
    assert!(out.row(0).unwrap()[2].as_i64().unwrap() > 0);

    let err = lh
        .query("SELECT metric, value FROM system.pool", "main")
        .expect_err("no such system table");
    assert!(err.to_string().contains("system.pool"), "{err}");
}

/// Pipeline SQL steps are attributed like ad-hoc queries: each step gets a
/// `system.queries` row under this instance's tenant.
#[test]
fn run_steps_land_in_the_query_log() {
    let _serial = serial();
    let config = LakehouseConfig {
        tenant: "pipelines".into(),
        ..LakehouseConfig::zero_latency()
    };
    let lh = lakehouse(config, 2);
    const STEP_SQL: &str = "SELECT id, val FROM events WHERE id < 32";
    let project = bauplan_core::PipelineProject::new("telemetry")
        .with(bauplan_core::NodeDef::sql("small", STEP_SQL));
    let report = lh
        .run(&project, &bauplan_core::RunOptions::default())
        .unwrap();
    assert!(report.success);
    let rec = record_for(STEP_SQL);
    assert_eq!(rec.tenant, "pipelines");
    assert_eq!(rec.status, "ok");
    assert!(rec.ledger.io_bytes > 0, "the step scanned the lake table");
}
