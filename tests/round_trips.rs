//! Round trips are the bill (DESIGN.md §20): what one SQL statement asks of
//! the object store, counted request by request, and what it sees when a
//! commit lands while it runs.
//!
//! * A statement resolves the ref once and loads each table's metadata
//!   once; a data file under the reader's merge distance is one request.
//!   The ledger is exact, so a regression to per-chunk fetching — or to
//!   resolving the table once to plan and again to scan — fails loudly.
//! * Planning and scanning see the same catalog commit: a schema-evolving
//!   append committed between the two does not leak into the result.

use bauplan_core::{Lakehouse, LakehouseConfig};
use bytes::Bytes;
use lakehouse_catalog::{ContentRef, Operation};
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use lakehouse_store::{InMemoryStore, ObjectPath, ObjectStore, StoreMetrics};
use lakehouse_table::{PartitionField, PartitionSpec, SnapshotOperation, Table, Transform};
use lakehouse_workload::TaxiGenerator;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

type Hook = Box<dyn FnOnce() + Send>;

/// An in-memory store that counts read requests by what they read, and can
/// run a one-shot hook right after serving a table-metadata document — the
/// moment between a statement's planning and its scan.
#[derive(Default)]
struct LedgerStore {
    inner: InMemoryStore,
    reads: Mutex<BTreeMap<String, usize>>,
    counting: AtomicBool,
    after_metadata: Mutex<Option<Hook>>,
}

impl LedgerStore {
    /// `ref`, `metadata:<table>`, `manifest:<table>`, `data:<table>`, or the
    /// path itself for anything else (a commit object, say).
    fn class(path: &str) -> String {
        let table = || path.split('/').nth(1).unwrap_or("?").to_string();
        if path.ends_with("/refs.json") {
            "ref".into()
        } else if path.contains("/metadata/manifest-") {
            format!("manifest:{}", table())
        } else if path.contains("/metadata/v") {
            format!("metadata:{}", table())
        } else if path.contains("/data/") {
            format!("data:{}", table())
        } else {
            path.to_string()
        }
    }

    fn record(&self, path: &ObjectPath) {
        if self.counting.load(Ordering::SeqCst) {
            *self
                .reads
                .lock()
                .unwrap()
                .entry(Self::class(path.as_str()))
                .or_default() += 1;
        }
    }

    /// Requests made while `f` ran, by class.
    fn ledger<T>(&self, f: impl FnOnce() -> T) -> (T, BTreeMap<String, usize>) {
        self.reads.lock().unwrap().clear();
        self.counting.store(true, Ordering::SeqCst);
        let out = f();
        self.counting.store(false, Ordering::SeqCst);
        (out, std::mem::take(&mut *self.reads.lock().unwrap()))
    }
}

impl ObjectStore for LedgerStore {
    fn put(&self, path: &ObjectPath, data: Bytes) -> lakehouse_store::Result<()> {
        self.inner.put(path, data)
    }

    fn get(&self, path: &ObjectPath) -> lakehouse_store::Result<Bytes> {
        self.record(path);
        let out = self.inner.get(path);
        if path.as_str().contains("/metadata/v") {
            let hook = self.after_metadata.lock().unwrap().take();
            if let Some(hook) = hook {
                hook();
            }
        }
        out
    }

    fn get_range(
        &self,
        path: &ObjectPath,
        start: usize,
        end: usize,
    ) -> lakehouse_store::Result<Bytes> {
        self.record(path);
        self.inner.get_range(path, start, end)
    }

    fn head(&self, path: &ObjectPath) -> lakehouse_store::Result<usize> {
        self.inner.head(path)
    }

    fn list(&self, prefix: &str) -> lakehouse_store::Result<Vec<ObjectPath>> {
        self.inner.list(prefix)
    }

    fn delete(&self, path: &ObjectPath) -> lakehouse_store::Result<()> {
        self.inner.delete(path)
    }

    fn put_if_matches(
        &self,
        path: &ObjectPath,
        expected: Option<&[u8]>,
        data: Bytes,
    ) -> lakehouse_store::Result<()> {
        self.inner.put_if_matches(path, expected, data)
    }

    fn store_metrics(&self) -> Option<Arc<StoreMetrics>> {
        self.inner.store_metrics()
    }
}

fn ledger_of(entries: &[(&str, usize)]) -> BTreeMap<String, usize> {
    entries.iter().map(|(k, n)| (k.to_string(), *n)).collect()
}

/// The benchmark's lake in small: `taxi_table`, one file per pickup day over
/// 61 days, and the 263-row `zones` dimension in one ~3 KB file.
fn taxi_lake(store: &Arc<LedgerStore>) -> Lakehouse {
    let lh = Lakehouse::with_store(
        Arc::clone(store) as Arc<dyn ObjectStore>,
        LakehouseConfig::zero_latency(),
    )
    .unwrap();
    let by_day = PartitionSpec::new(vec![PartitionField {
        source_column: "pickup_at".into(),
        transform: Transform::Day,
    }]);
    let taxi = TaxiGenerator {
        seed: 14,
        ..Default::default()
    }
    .generate(20_000);
    lh.create_table_partitioned("taxi_table", &taxi, "main", by_day)
        .unwrap();
    let ids: Vec<i64> = (1..=263).collect();
    let zones = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("zone_id", DataType::Int64, false),
            Field::new("borough", DataType::Utf8, false),
        ]),
        vec![
            Column::from_i64(ids.clone()),
            Column::from_str_vec(ids.iter().map(|id| format!("b{}", id % 6)).collect()),
        ],
    )
    .unwrap();
    lh.create_table("zones", &zones, "main").unwrap();
    lh
}

#[test]
fn a_statement_costs_one_request_per_object_it_needs() {
    let store = Arc::new(LedgerStore::default());
    let lh = taxi_lake(&store);
    let run = |sql: &str| {
        let (out, ledger) = store.ledger(|| lh.query(sql, "main").unwrap());
        assert!(out.num_rows() > 0, "{sql}");
        ledger
    };
    let one_table = |data: usize| {
        ledger_of(&[
            ("ref", 1),
            ("metadata:taxi_table", 1),
            ("manifest:taxi_table", 1),
            ("data:taxi_table", data),
        ])
    };

    // One day: 1 ref + 1 metadata + 1 manifest + 1 data request.
    let got = run("SELECT COUNT(*) AS n FROM taxi_table WHERE pickup_at = DATE '2019-03-10'");
    assert_eq!(got, one_table(1));
    // A d-day window, three columns of nineteen: 3 + d.
    for days in [2, 7] {
        let sql = format!(
            "SELECT pickup_location_id, COUNT(*) AS n, SUM(fare) AS total FROM taxi_table \
             WHERE pickup_at >= DATE '2019-03-10' AND pickup_at < DATE '2019-03-{}' \
             GROUP BY pickup_location_id",
            10 + days
        );
        assert_eq!(run(&sql), one_table(days), "{days}-day window");
    }
    // `SELECT *` is as many requests as `COUNT(*)`; LIMIT stops after one file.
    assert_eq!(run("SELECT * FROM taxi_table LIMIT 10"), one_table(1));
    // A join reads the ref once for both tables, and the small dimension —
    // shorter than the reader's tail probe — in one request.
    let got = run("SELECT z.borough, COUNT(*) AS n FROM taxi_table t \
         JOIN zones z ON t.pickup_location_id = z.zone_id \
         WHERE t.pickup_at >= DATE '2019-03-10' AND t.pickup_at < DATE '2019-03-13' \
         GROUP BY z.borough");
    let mut want = one_table(3);
    want.extend(ledger_of(&[
        ("metadata:zones", 1),
        ("manifest:zones", 1),
        ("data:zones", 1),
    ]));
    assert_eq!(got, want);
    for projection in ["*", "zone_id", "borough, zone_id"] {
        let got = run(&format!("SELECT {projection} FROM zones"));
        assert_eq!(got.get("data:zones"), Some(&1), "SELECT {projection}");
        assert_eq!(got.values().sum::<usize>(), 4, "SELECT {projection}");
    }

    // `explain` plans through the same pin: one ref, one metadata, no data.
    let (_, got) = store.ledger(|| lh.explain("SELECT * FROM taxi_table", "main").unwrap());
    assert_eq!(got, ledger_of(&[("ref", 1), ("metadata:taxi_table", 1)]));
}

fn small_batch(ids: std::ops::Range<i64>) -> RecordBatch {
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("fare", DataType::Float64, false),
        ]),
        vec![
            Column::from_i64(ids.clone().collect()),
            Column::from_f64(ids.map(|i| i as f64 * 0.5).collect()),
        ],
    )
    .unwrap()
}

/// Through a second front over the same objects: add a `tip` column to
/// `trips`, append three rows that have it, and commit to `main`.
fn evolve_and_append(store: &Arc<LedgerStore>) {
    let dyn_store = Arc::clone(store) as Arc<dyn ObjectStore>;
    let lh =
        Lakehouse::with_store(Arc::clone(&dyn_store), LakehouseConfig::zero_latency()).unwrap();
    let content = lh.catalog().get_content("main", "trips").unwrap();
    let evolved = Table::load(dyn_store, &content.metadata_location)
        .unwrap()
        .add_columns(&[Field::new("tip", DataType::Float64, true)])
        .unwrap();
    let mut columns = small_batch(100..103).columns().to_vec();
    columns.push(Column::from_f64(vec![1.0, 2.0, 3.0]));
    let mut tx = evolved.new_transaction(SnapshotOperation::Append);
    tx.write(&RecordBatch::try_new(evolved.schema().unwrap(), columns).unwrap())
        .unwrap();
    let (location, metadata) = tx.commit().unwrap();
    let content = ContentRef::new(location, metadata.current_snapshot_id.unwrap());
    let put = Operation::Put {
        key: "trips".into(),
        content,
    };
    lh.catalog()
        .commit("main", "test", "evolve trips", vec![put])
        .unwrap();
}

#[test]
fn a_commit_between_plan_and_scan_does_not_leak_into_the_statement() {
    let configs = [
        ("materialized", LakehouseConfig::zero_latency()),
        (
            "stream",
            LakehouseConfig {
                stream_execution: true,
                ..LakehouseConfig::zero_latency()
            },
        ),
        (
            "sql_parallelism 4",
            LakehouseConfig {
                sql_parallelism: 4,
                ..LakehouseConfig::zero_latency()
            },
        ),
    ];
    for (name, config) in configs {
        let store = Arc::new(LedgerStore::default());
        let lh = Lakehouse::with_store(Arc::clone(&store) as Arc<dyn ObjectStore>, config).unwrap();
        lh.create_table("trips", &small_batch(0..10), "main")
            .unwrap();

        // Planning loads the table's metadata; the commit lands right after.
        let writer = Arc::clone(&store);
        *store.after_metadata.lock().unwrap() = Some(Box::new(move || evolve_and_append(&writer)));
        let during = lh.query("SELECT * FROM trips ORDER BY id", "main").unwrap();
        assert!(store.after_metadata.lock().unwrap().is_none(), "hook ran");
        // The statement is the pre-commit snapshot in full: schema and rows.
        assert_eq!(during.schema().names(), vec!["id", "fare"], "{name}");
        assert_eq!(during.columns(), small_batch(0..10).columns(), "{name}");

        // The next statement sees the commit, in full as well.
        let after = lh.query("SELECT * FROM trips ORDER BY id", "main").unwrap();
        assert_eq!(after.schema().names(), vec!["id", "fare", "tip"], "{name}");
        assert_eq!(after.num_rows(), 13, "{name}");
        assert_eq!(after.row(9).unwrap()[2], Value::Null, "{name}");
        assert_eq!(after.row(12).unwrap()[2], Value::Float64(3.0), "{name}");
    }
}
