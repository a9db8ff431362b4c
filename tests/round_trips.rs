//! Round trips are the bill (DESIGN.md §20, §21): what one SQL statement
//! asks of the object store, counted request by request, and what it sees
//! when a commit lands while it runs.
//!
//! * A statement against a table version this process has not seen is one
//!   ref + one metadata document + one root manifest + each earlier manifest
//!   the root names whose partition range the statement cannot rule out +
//!   the data files it needs — none whose manifest entry proves every
//!   column the statement reads from it;
//!   against one it has seen — read before, or written through by its own
//!   commit — it is the ref and the data files it has not read before,
//!   nothing else. A data file under the reader's merge distance is one
//!   request. The ledger is exact, so a regression to per-chunk fetching, to
//!   re-reading immutable objects, or to prefetching past a satisfied LIMIT
//!   fails loudly.
//! * The ref is read per statement, so a commit by another front is seen by
//!   the next statement, which fetches only the documents that are new.
//! * Planning and scanning see the same catalog commit: a schema-evolving
//!   append committed between the two does not leak into the result.
//! * A pipeline run reads the ref and the data files its scans need: fused,
//!   nothing else, and on a warm front not even those; naive, each stage's
//!   table documents and files too, since a stateless stage keeps no cache.
//! * The object cache is bounded and never holds a document that failed to
//!   parse or a data file whose read was garbled, needed a re-read, belonged
//!   to a bulk scan or fed a compaction; a file it holds takes no request
//!   and no fetch worker. The fetch workers die with their `Lakehouse`.

use bauplan_core::{
    builtins, ExecutionMode, Lakehouse, LakehouseConfig, NodeDef, PipelineProject, RunOptions,
};
use bytes::Bytes;
use lakehouse_catalog::{ContentRef, Operation};
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use lakehouse_store::{InMemoryStore, ObjectPath, ObjectStore, StoreMetrics};
use lakehouse_table::{
    ObjectCache, PartitionField, PartitionSpec, ScanPredicate, SnapshotOperation, Table, TableIo,
    Transform,
};
use lakehouse_workload::TaxiGenerator;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The thread-count test needs every other test's lakehouse gone.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

type Hook = Box<dyn FnOnce() + Send>;

/// An in-memory store that counts read requests by what they read, can run
/// a one-shot hook right after serving a table-metadata document — the
/// moment between a statement's planning and its scan — and can serve one
/// read of a chosen kind of object as garbage.
#[derive(Default)]
struct LedgerStore {
    inner: InMemoryStore,
    reads: Mutex<BTreeMap<String, usize>>,
    counting: AtomicBool,
    after_metadata: Mutex<Option<Hook>>,
    /// The next read of a path containing this is answered with garbage: a
    /// whole object with bytes that do not parse, a range with its fifth
    /// byte flipped (in a data file read from its start, the first byte of
    /// the first column's first chunk).
    garble_next: Mutex<Option<&'static str>>,
}

impl LedgerStore {
    /// `ref`, `commit`, `metadata:<table>`, `manifest:<table>`,
    /// `data:<table>`, or the path itself for anything else.
    fn class(path: &str) -> String {
        let table = || path.split('/').nth(1).unwrap_or("?").to_string();
        if path.ends_with("/refs.json") {
            "ref".into()
        } else if path.contains("/commits/") {
            "commit".into()
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

    /// Whether this read of `path` is the one to garble.
    fn garbles(&self, path: &ObjectPath) -> bool {
        let mut garble = self.garble_next.lock().unwrap();
        let hit = garble.is_some_and(|kind| path.as_str().contains(kind));
        if hit {
            *garble = None;
        }
        hit
    }
}

impl ObjectStore for LedgerStore {
    fn put(&self, path: &ObjectPath, data: Bytes) -> lakehouse_store::Result<()> {
        self.inner.put(path, data)
    }

    fn get(&self, path: &ObjectPath) -> lakehouse_store::Result<Bytes> {
        self.record(path);
        if self.garbles(path) {
            return Ok(Bytes::from_static(b"{ not a document"));
        }
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
        let bytes = self.inner.get_range(path, start, end)?;
        if self.garbles(path) && bytes.len() > 4 {
            let mut flipped = bytes.to_vec();
            flipped[4] ^= 0xff;
            return Ok(Bytes::from(flipped));
        }
        Ok(bytes)
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

fn front(store: &Arc<LedgerStore>, config: LakehouseConfig) -> Lakehouse {
    Lakehouse::with_store(Arc::clone(store) as Arc<dyn ObjectStore>, config).unwrap()
}

/// A front that has opened the catalog and walked `main`'s commits, but has
/// seen no table: what a long-lived process is before its first statement
/// on a table.
fn cold_front(store: &Arc<LedgerStore>, config: LakehouseConfig) -> Lakehouse {
    let lh = front(store, config);
    lh.list_tables("main").unwrap();
    lh
}

/// The benchmark's lake in small: `taxi_table`, one file per pickup day over
/// 61 days, and the 263-row `zones` dimension in one ~3 KB file.
fn taxi_lake(store: &Arc<LedgerStore>) -> Lakehouse {
    let lh = front(store, LakehouseConfig::zero_latency());
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

const ONE_DAY: &str = "SELECT COUNT(*) AS n FROM taxi_table WHERE pickup_at = DATE '2019-03-10'";

/// A join of three days of trips with the zone dimension.
const JOIN_3_DAYS: &str = "SELECT z.borough, COUNT(*) AS n FROM taxi_table t \
     JOIN zones z ON t.pickup_location_id = z.zone_id \
     WHERE t.pickup_at >= DATE '2019-03-10' AND t.pickup_at < DATE '2019-03-13' \
     GROUP BY z.borough";

fn window(days: usize) -> String {
    format!(
        "SELECT pickup_location_id, COUNT(*) AS n, SUM(fare) AS total FROM taxi_table \
         WHERE pickup_at >= DATE '2019-03-10' AND pickup_at < DATE '2019-03-{}' \
         GROUP BY pickup_location_id",
        10 + days
    )
}

#[test]
fn a_statement_costs_one_request_per_object_it_needs() {
    let _serial = serial();
    let store = Arc::new(LedgerStore::default());
    let writer = taxi_lake(&store);
    let reader = cold_front(&store, LakehouseConfig::zero_latency());
    let run = |lh: &Lakehouse, sql: &str| {
        let (out, ledger) = store.ledger(|| lh.query(sql, "main").unwrap());
        assert!(out.num_rows() > 0, "{sql}");
        ledger
    };
    let warm = |data: usize| ledger_of(&[("ref", 1), ("data:taxi_table", data)]);
    // A one-day `COUNT(*)` needs only `pickup_at`, and the day's manifest
    // entry proves it constant: no data request at all.
    let answered = ledger_of(&[("ref", 1)]);

    // Cold, one day: 1 ref + 1 metadata + 1 manifest.
    let cold = ledger_of(&[
        ("ref", 1),
        ("metadata:taxi_table", 1),
        ("manifest:taxi_table", 1),
    ]);
    assert_eq!(run(&reader, ONE_DAY), cold);
    // Warm from then on: the ref and the data files no earlier statement
    // read, whatever the statement. A d-day window, three columns of
    // nineteen, on a front that has read none of its files: 1 + d.
    assert_eq!(run(&reader, ONE_DAY), answered);
    for days in [2, 7] {
        let fresh = cold_front(&store, LakehouseConfig::zero_latency());
        assert_eq!(run(&fresh, ONE_DAY), cold);
        assert_eq!(run(&fresh, &window(days)), warm(days), "{days}-day window");
    }
    // `SELECT *` is as many requests as `COUNT(*)`; under a LIMIT the
    // request window opens one file wide, and the first file satisfies it.
    assert_eq!(run(&reader, "SELECT * FROM taxi_table LIMIT 10"), warm(1));
    // A join reads the ref once for both tables, and the small dimension —
    // shorter than the reader's tail probe — in one request: cold for
    // `zones` the first time, 1 + d + 1; the ref alone after.
    let join = JOIN_3_DAYS;
    let mut want = warm(3);
    want.insert("data:zones".into(), 1);
    let mut first = want.clone();
    first.extend(ledger_of(&[("metadata:zones", 1), ("manifest:zones", 1)]));
    assert_eq!(run(&reader, join), first);
    assert_eq!(run(&reader, join), answered);
    // Any projection of the dimension is its one file, in one request.
    for projection in ["*", "zone_id", "borough, zone_id"] {
        let fresh = cold_front(&store, LakehouseConfig::zero_latency());
        let got = run(&fresh, &format!("SELECT {projection} FROM zones"));
        let mut cold_zones = ledger_of(&[("metadata:zones", 1), ("manifest:zones", 1)]);
        cold_zones.extend(ledger_of(&[("ref", 1), ("data:zones", 1)]));
        assert_eq!(got, cold_zones, "{projection}");
    }
    // `explain` plans through the same pin and cache: one ref, nothing else.
    let explain = || reader.explain("SELECT * FROM taxi_table", "main").unwrap();
    assert_eq!(store.ledger(explain).1, ledger_of(&[("ref", 1)]));

    // The front that wrote the tables never reads their documents at all:
    // its commits wrote them through. Its own data files it reads once.
    assert_eq!(run(&writer, ONE_DAY), answered);
    assert_eq!(run(&writer, join), want);
    assert_eq!(run(&writer, join), answered);
    // Nothing was fetched twice anywhere: every miss is one of the reader's
    // four documents or five data files, and the writer's four files.
    assert_eq!(reader.object_cache().misses(), 4 + 5);
    assert_eq!(writer.object_cache().misses(), 4);
}

#[test]
fn a_warm_repeat_of_a_pruned_statement_is_one_request() {
    let _serial = serial();
    let store = Arc::new(LedgerStore::default());
    taxi_lake(&store);
    let reader = cold_front(&store, LakehouseConfig::zero_latency());
    for sql in [window(3), JOIN_3_DAYS.to_string()] {
        let (first, ledger) = store.ledger(|| reader.query(&sql, "main").unwrap());
        assert!(ledger.keys().any(|k| k.starts_with("data:")), "{sql}");
        let (again, ledger) = store.ledger(|| reader.query(&sql, "main").unwrap());
        assert_eq!(again, first, "{sql}");
        assert_eq!(ledger, ledger_of(&[("ref", 1)]), "{sql}");
    }
}

#[test]
fn a_garbled_data_read_is_never_admitted() {
    let _serial = serial();
    let store = Arc::new(LedgerStore::default());
    let writer = taxi_lake(&store);
    // One day-file each; the garbled byte lies in its first column,
    // `pickup_location_id`.
    const FARES: &str = "SELECT SUM(fare) AS s FROM taxi_table WHERE pickup_at = DATE '2019-03-10'";
    const IDS: &str = "SELECT SUM(pickup_location_id) AS s FROM taxi_table \
         WHERE pickup_at = DATE '2019-03-11'";
    let want = |sql: &str| Some(writer.query(sql, "main").unwrap());
    // The statement's answer, and how many data requests it made.
    let sum = |lh: &Lakehouse, sql: &str| {
        let (out, ledger) = store.ledger(|| lh.query(sql, "main"));
        (
            out.ok(),
            ledger.get("data:taxi_table").copied().unwrap_or(0),
        )
    };
    let garble = || *store.garble_next.lock().unwrap() = Some("/data/");

    // In a column the statement does not decode: it is right, but the
    // file's opening range fails a checksum, so the file is not kept and
    // the next statement fetches it again — and keeps it.
    let lh = cold_front(&store, LakehouseConfig::zero_latency());
    garble();
    assert_eq!(sum(&lh, FARES), (want(FARES), 1));
    assert_eq!(sum(&lh, FARES), (want(FARES), 1));
    assert_eq!(sum(&lh, FARES), (want(FARES), 0));
    // In a column it decodes: without retries the statement fails, and the
    // next one fetches the file afresh.
    garble();
    assert_eq!(sum(&lh, IDS), (None, 1));
    assert_eq!(sum(&lh, IDS), (want(IDS), 1));
    assert_eq!(sum(&lh, IDS), (want(IDS), 0));
    // With retries, the re-read answers the statement, but a file that
    // needed one is not kept either.
    let retrying = LakehouseConfig {
        retry_max: 2,
        ..LakehouseConfig::zero_latency()
    };
    let lh = cold_front(&store, retrying);
    garble();
    assert_eq!(sum(&lh, IDS), (want(IDS), 2));
    assert_eq!(sum(&lh, IDS), (want(IDS), 1));
    assert_eq!(sum(&lh, IDS), (want(IDS), 0));
}

#[test]
fn a_bulk_scan_and_a_compaction_admit_no_data_file() {
    let _serial = serial();
    let store = Arc::new(LedgerStore::default());
    let dyn_store = Arc::clone(&store) as Arc<dyn ObjectStore>;
    // 20 000 trips by day: 61 files of ≈ 6 KB, more than a quarter of a
    // 1 MiB cache in all, one day far less.
    let cache = Arc::new(ObjectCache::with_capacity(1 << 20));
    let io = TableIo {
        cache: Some(Arc::clone(&cache)),
        ..TableIo::default()
    };
    let by_day = PartitionSpec::new(vec![PartitionField {
        source_column: "pickup_at".into(),
        transform: Transform::Day,
    }]);
    let taxi = |start_day: i32, days: i32, rows: usize| {
        TaxiGenerator {
            seed: 14,
            start_day,
            days,
            ..Default::default()
        }
        .generate(rows)
    };
    let append = |table: &Table, batch: &RecordBatch| {
        let mut tx = table.new_transaction(SnapshotOperation::Append);
        tx.write(batch).unwrap();
        let (location, _) = tx.commit().unwrap();
        Table::load_with(Arc::clone(&dyn_store), &location, io.clone()).unwrap()
    };
    let all = taxi(17_956, 61, 20_000);
    let table = Table::create_with(
        Arc::clone(&dyn_store),
        "wh/taxi",
        all.schema(),
        by_day,
        io.clone(),
    )
    .unwrap();
    let table = append(&table, &all);
    // Data files a scan of `fare` fetched — on one day, or on all.
    let fares = |table: &Table, day: Option<i32>| {
        let mut scan = table.scan().select(&["fare"]);
        if let Some(day) = day {
            let on_day = ScanPredicate::new("pickup_at", CmpOp::Eq, Value::Date(day));
            scan = scan.with_predicate(on_day);
        }
        let ledger = store.ledger(|| scan.execute().unwrap()).1;
        ledger.get("data:taxi").copied().unwrap_or(0)
    };

    // A day's file is kept; a scan of every file is a bulk read, which
    // keeps nothing — and takes the one file it finds.
    let before = cache.cached_bytes();
    assert_eq!(fares(&table, Some(17_965)), 1);
    let held = cache.cached_bytes();
    assert!(held > before);
    for _ in 0..2 {
        assert_eq!(fares(&table, None), 60);
        assert_eq!(cache.cached_bytes(), held);
    }

    // Two other days get a second file; compacting them reads all four and
    // keeps only the two documents it writes through.
    let table = append(&table, &taxi(17_970, 2, 200));
    let before = cache.cached_bytes();
    let ((compacted, report), ledger) = store.ledger(|| table.compact().unwrap());
    assert_eq!(report.files_compacted, 4);
    assert_eq!(ledger.get("data:taxi"), Some(&4));
    let size = |path: &str| store.inner.head(&ObjectPath::new(path).unwrap()).unwrap();
    let manifest = &compacted
        .metadata()
        .current_snapshot()
        .unwrap()
        .manifest_path;
    let written = size(compacted.metadata_location()) + size(manifest);
    assert_eq!(cache.cached_bytes(), before + written);
}

#[test]
fn a_cached_file_takes_no_fetch_worker() {
    let _serial = serial();
    let store = Arc::new(LedgerStore::default());
    // The writer has read none of its data files.
    let lh = taxi_lake(&store);
    let submitted = || lh.io_dispatcher().stats().submitted;
    lh.query(&window(7), "main").unwrap();
    // Days 10 to 18: seven are in the cache, two are fetched by the workers.
    let s0 = submitted();
    let ledger = store.ledger(|| lh.query(&window(9), "main").unwrap()).1;
    assert_eq!(ledger, ledger_of(&[("ref", 1), ("data:taxi_table", 2)]));
    assert_eq!(submitted() - s0, 2, "one ticket per miss");
    let s0 = submitted();
    let ledger = store.ledger(|| lh.query(&window(9), "main").unwrap()).1;
    assert_eq!(ledger, ledger_of(&[("ref", 1)]));
    assert_eq!(submitted() - s0, 0, "no ticket for a hit");
}

#[test]
fn a_cold_point_query_reads_the_root_and_only_the_manifest_of_its_day() {
    let _serial = serial();
    let store = Arc::new(LedgerStore::default());
    let writer = front(&store, LakehouseConfig::zero_latency());
    // Eight commits of one day each: a root naming seven earlier manifests.
    let day = |d: i32| {
        TaxiGenerator {
            seed: 3,
            start_day: 17_956 + d,
            days: 1,
            ..Default::default()
        }
        .generate(300)
    };
    let by_day = PartitionSpec::new(vec![PartitionField {
        source_column: "pickup_at".into(),
        transform: Transform::Day,
    }]);
    writer
        .create_table_partitioned("taxi_table", &day(0), "main", by_day)
        .unwrap();
    for d in 1..8 {
        writer.append_table("taxi_table", &day(d), "main").unwrap();
    }
    let count = |lh: &Lakehouse, date: &str| {
        let sql = format!("SELECT COUNT(*) AS n FROM taxi_table WHERE pickup_at = DATE '{date}'");
        let (out, ledger) = store.ledger(|| lh.query(&sql, "main").unwrap());
        assert_eq!(out.row(0).unwrap()[0], Value::Int64(300), "{date}");
        ledger
    };
    // No data request: the day's entry proves `pickup_at`.
    let cold = |manifests: usize| {
        ledger_of(&[
            ("ref", 1),
            ("metadata:taxi_table", 1),
            ("manifest:taxi_table", manifests),
        ])
    };
    // 2019-03-04 is the fourth commit's day: the root, then its manifest;
    // the other six refs are ruled out by their day ranges, unread.
    let reader = cold_front(&store, LakehouseConfig::zero_latency());
    assert_eq!(count(&reader, "2019-03-04"), cold(2));
    // The newest day is in the root itself.
    let reader = cold_front(&store, LakehouseConfig::zero_latency());
    assert_eq!(count(&reader, "2019-03-08"), cold(1));
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

#[test]
fn a_commit_is_warm_where_it_was_made_and_seen_everywhere_by_the_next_statement() {
    let _serial = serial();
    let store = Arc::new(LedgerStore::default());
    let writer = front(&store, LakehouseConfig::zero_latency());
    writer
        .create_table("trips", &small_batch(0..10), "main")
        .unwrap();
    let reader = cold_front(&store, LakehouseConfig::zero_latency());
    const SUM: &str = "SELECT SUM(id) AS s FROM trips";
    let sum = |lh: &Lakehouse| {
        let (out, ledger) = store.ledger(|| lh.query(SUM, "main").unwrap());
        (out.row(0).unwrap()[0].clone(), ledger)
    };
    let trips = |metadata: usize, manifest: usize, data: usize| {
        let mut ledger = ledger_of(&[("ref", 1)]);
        for (class, n) in [
            ("metadata", metadata),
            ("manifest", manifest),
            ("data", data),
        ] {
            if n > 0 {
                ledger.insert(format!("{class}:trips"), n);
            }
        }
        ledger
    };
    assert_eq!(sum(&reader), (Value::Int64(45), trips(1, 1, 1)));
    assert_eq!(sum(&reader), (Value::Int64(45), trips(0, 0, 0)));

    // A façade commit: the writer's next statement is warm (both new
    // documents were written through) and sees the new rows. It has read
    // neither data file yet.
    writer
        .append_table("trips", &small_batch(10..15), "main")
        .unwrap();
    assert_eq!(sum(&writer), (Value::Int64(105), trips(0, 0, 2)));
    // The other front reads the ref, so it sees the commit too — and
    // fetches what is new: the commit object, the new metadata document,
    // manifest and data file.
    let (s, mut ledger) = sum(&reader);
    assert_eq!(s, Value::Int64(105));
    assert_eq!(ledger.remove("commit"), Some(1));
    assert_eq!(ledger, trips(1, 1, 1));
    assert_eq!(sum(&reader), (Value::Int64(105), trips(0, 0, 0)));
}

/// A count with no predicate reads no column, so every file's manifest
/// entry answers it: a front that has read none of the table's files makes
/// no data request and caches no data file, and a warm repeat is the ref.
/// So is a constant projected once per row.
#[test]
fn an_unfiltered_count_reads_no_data_file() {
    let _serial = serial();
    let store = Arc::new(LedgerStore::default());
    let writer = front(&store, LakehouseConfig::zero_latency());
    writer
        .create_table("trips", &small_batch(0..10), "main")
        .unwrap();
    for ids in [10..20, 20..30] {
        writer
            .append_table("trips", &small_batch(ids), "main")
            .unwrap();
    }
    let reader = cold_front(&store, LakehouseConfig::zero_latency());
    let query = |sql: &str| store.ledger(|| reader.query(sql, "main").unwrap());
    const COUNT: &str = "SELECT COUNT(*) AS n FROM trips";

    let (out, ledger) = query(COUNT);
    assert_eq!(out.row(0).unwrap()[0], Value::Int64(30));
    assert!(!ledger.keys().any(|k| k.starts_with("data:")), "{ledger:?}");
    // The cache holds the documents the count read, and nothing else.
    let documents: usize = (ledger.iter())
        .filter(|(class, _)| class.starts_with("metadata:") || class.starts_with("manifest:"))
        .map(|(_, n)| n)
        .sum();
    assert_eq!(reader.object_cache().len(), documents);

    let (again, ledger) = query(COUNT);
    assert_eq!(again, out);
    assert_eq!(ledger, ledger_of(&[("ref", 1)]));

    let (ones, ledger) = query("SELECT 1 AS c FROM trips");
    assert_eq!(ones.num_rows(), 30);
    assert!((0..30).all(|r| ones.row(r).unwrap() == vec![Value::Int64(1)]));
    assert_eq!(ledger, ledger_of(&[("ref", 1)]));
}

/// Through a second front over the same objects: add a `tip` column to
/// `table`, append `rows` — three rows of its old columns — with tips, and
/// commit to `main`.
fn evolve_and_append(store: &Arc<LedgerStore>, table: &str, rows: RecordBatch) {
    let dyn_store = Arc::clone(store) as Arc<dyn ObjectStore>;
    let lh = front(store, LakehouseConfig::zero_latency());
    let content = lh.catalog().get_content("main", table).unwrap();
    let evolved = Table::load(dyn_store, &content.metadata_location)
        .unwrap()
        .add_columns(&[Field::new("tip", DataType::Float64, true)])
        .unwrap();
    let mut columns = rows.columns().to_vec();
    columns.push(Column::from_f64(vec![1.0, 2.0, 3.0]));
    let mut tx = evolved.new_transaction(SnapshotOperation::Append);
    tx.write(&RecordBatch::try_new(evolved.schema().unwrap(), columns).unwrap())
        .unwrap();
    let (location, metadata) = tx.commit().unwrap();
    let content = ContentRef::new(location, metadata.current_snapshot_id.unwrap());
    let put = Operation::Put {
        key: table.into(),
        content,
    };
    lh.catalog()
        .commit("main", "test", &format!("evolve {table}"), vec![put])
        .unwrap();
}

#[test]
fn a_commit_between_plan_and_scan_does_not_leak_into_the_statement() {
    let _serial = serial();
    let store = Arc::new(LedgerStore::default());
    // Written by another front, so that this one has to fetch the table's
    // metadata to plan.
    front(&store, LakehouseConfig::zero_latency())
        .create_table("trips", &small_batch(0..10), "main")
        .unwrap();
    let lh = front(&store, LakehouseConfig::zero_latency());

    // Planning loads the table's metadata; the commit lands right after.
    let writer = Arc::clone(&store);
    *store.after_metadata.lock().unwrap() = Some(Box::new(move || {
        evolve_and_append(&writer, "trips", small_batch(100..103))
    }));
    let during = lh.query("SELECT * FROM trips ORDER BY id", "main").unwrap();
    assert!(store.after_metadata.lock().unwrap().is_none(), "hook ran");
    // The statement is the pre-commit snapshot in full: schema and rows.
    assert_eq!(during.schema().names(), vec!["id", "fare"]);
    assert_eq!(during.columns(), small_batch(0..10).columns());

    // The next statement sees the commit, in full as well.
    let after = lh.query("SELECT * FROM trips ORDER BY id", "main").unwrap();
    assert_eq!(after.schema().names(), vec!["id", "fare", "tip"]);
    assert_eq!(after.num_rows(), 13);
    assert_eq!(after.row(9).unwrap()[2], Value::Null);
    assert_eq!(after.row(12).unwrap()[2], Value::Float64(3.0));
}

/// The paper's pipeline over [`taxi_lake`], with an expectation the
/// generated passenger counts pass.
fn taxi_pipeline(lh: &Lakehouse) -> PipelineProject {
    lh.register_function(
        "trips_expectation_impl",
        builtins::mean_greater_than("trips", "count", 1.0),
    );
    PipelineProject::taxi_example()
}

#[test]
fn a_warm_run_reads_the_ref_and_the_files_it_needs() {
    let _serial = serial();
    let store = Arc::new(LedgerStore::default());
    let lh = taxi_lake(&store);
    let project = taxi_pipeline(&lh);
    let warm_run = |mode: ExecutionMode| {
        let options = RunOptions::default().with_mode(mode);
        lh.run(&project, &options).unwrap();
        store.ledger(|| lh.run(&project, &options).unwrap()).1
    };
    // Fused, on a front that has read no table: `trips` reads the 30
    // day-files from 2019-04-01 on, and its consumers read it in memory.
    let cold = cold_front(&store, LakehouseConfig::zero_latency());
    let options = RunOptions::default().with_mode(ExecutionMode::Fused);
    let cold_run = store.ledger(|| cold.run(&taxi_pipeline(&cold), &options).unwrap());
    assert_eq!(
        cold_run.1,
        ledger_of(&[
            ("ref", 9),
            ("data:taxi_table", 30),
            ("manifest:taxi_table", 1),
            ("metadata:taxi_table", 1),
        ])
    );
    // Warm: every table document and data file is in memory.
    assert_eq!(warm_run(ExecutionMode::Fused), ledger_of(&[("ref", 9)]));
    // Naive: one stateless stage per node, each with a metadata cache of its
    // own, reading whole tables; both consumers re-read `trips` from the
    // store.
    assert_eq!(
        warm_run(ExecutionMode::Naive),
        ledger_of(&[
            ("ref", 12),
            ("data:taxi_table", 61),
            ("data:trips", 2),
            ("manifest:taxi_table", 1),
            ("manifest:trips", 2),
            ("metadata:taxi_table", 1),
            ("metadata:trips", 2),
        ])
    );
}

#[test]
fn a_commit_that_lands_while_a_run_binds_does_not_reach_the_run() {
    let _serial = serial();
    let store = Arc::new(LedgerStore::default());
    // Written by another front, so that this one has to fetch the table's
    // metadata to bind.
    let taxi = TaxiGenerator {
        seed: 14,
        ..Default::default()
    };
    let writer = front(&store, LakehouseConfig::zero_latency());
    writer
        .create_table("taxi_table", &taxi.generate(2_000), "main")
        .unwrap();
    const TRIPS: &str = "SELECT * FROM taxi_table WHERE pickup_at >= DATE '2019-04-01'";
    let expected = writer.query(TRIPS, "main").unwrap();
    assert!(expected.num_rows() > 0);
    let lh = front(&store, LakehouseConfig::zero_latency());

    // Binding loads `taxi_table`'s metadata; three more April trips, with a
    // new column, land on `main` right after.
    let hook_store = Arc::clone(&store);
    let april = TaxiGenerator {
        start_day: 17_987,
        days: 1,
        ..taxi
    };
    *store.after_metadata.lock().unwrap() = Some(Box::new(move || {
        evolve_and_append(&hook_store, "taxi_table", april.generate(3))
    }));
    let project = PipelineProject::new("evolving").with(NodeDef::sql("trips", TRIPS));
    let report = lh.run(&project, &RunOptions::default()).unwrap();
    assert!(store.after_metadata.lock().unwrap().is_none(), "hook ran");
    // The run read the pinned commit in full: schema and rows.
    assert_eq!(lh.read_table("trips", "main").unwrap(), expected);
    // It merged next to the commit, which is on `main`.
    let evolved = lh.read_table("taxi_table", "main").unwrap();
    assert_eq!(evolved.schema().names().last(), Some(&"tip"));
    // The data version it recorded is the one it read: a replay writes the
    // same `trips`.
    let replay = lh.replay(report.run_id, None).unwrap();
    assert_eq!(
        lh.read_table("trips", &replay.ephemeral_branch).unwrap(),
        expected
    );
}

#[test]
fn an_unparseable_document_is_never_cached() {
    let _serial = serial();
    let store = Arc::new(LedgerStore::default());
    front(&store, LakehouseConfig::zero_latency())
        .create_table("trips", &small_batch(0..10), "main")
        .unwrap();
    const SUM: &str = "SELECT SUM(id) AS s FROM trips";
    let retrying = LakehouseConfig {
        retry_max: 2,
        ..LakehouseConfig::zero_latency()
    };
    // With retries, the invalidate-and-retry loop reaches the backend for
    // the same path again — it was not answered from the cache.
    for (kind, class) in [
        ("/metadata/v", "metadata:trips"),
        ("/metadata/manifest-", "manifest:trips"),
    ] {
        let lh = cold_front(&store, retrying.clone());
        *store.garble_next.lock().unwrap() = Some(kind);
        let (out, ledger) = store.ledger(|| lh.query(SUM, "main").unwrap());
        assert_eq!(out.row(0).unwrap()[0], Value::Int64(45), "{kind}");
        assert_eq!(ledger.get(class), Some(&2), "{kind}: garbled read + retry");
        assert_eq!(
            lh.object_cache().len(),
            3,
            "{kind}: both good documents and the file"
        );
    }
    // Without, the statement fails — and the next one fetches the document
    // afresh instead of finding the garbage.
    let lh = cold_front(&store, LakehouseConfig::zero_latency());
    *store.garble_next.lock().unwrap() = Some("/metadata/v");
    assert!(lh.query(SUM, "main").is_err());
    assert!(lh.object_cache().is_empty());
    let (out, ledger) = store.ledger(|| lh.query(SUM, "main").unwrap());
    assert_eq!(out.row(0).unwrap()[0], Value::Int64(45));
    assert_eq!(ledger.get("metadata:trips"), Some(&1));
}

#[test]
fn the_cache_stays_within_its_bound_across_more_tables_than_fit() {
    let _serial = serial();
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    const BOUND: usize = 8 * 1024;
    let cache = Arc::new(ObjectCache::with_capacity(BOUND));
    let io = TableIo {
        cache: Some(Arc::clone(&cache)),
        ..TableIo::default()
    };
    let batch = small_batch(0..10);
    let mut locations = Vec::new();
    for t in 0..24 {
        let table = Table::create_with(
            Arc::clone(&store),
            &format!("wh/t{t}"),
            batch.schema(),
            PartitionSpec::unpartitioned(),
            io.clone(),
        )
        .unwrap();
        let mut tx = table.new_transaction(SnapshotOperation::Append);
        tx.write(&batch).unwrap();
        locations.push(tx.commit().unwrap().0);
        assert!(cache.cached_bytes() <= BOUND, "after table {t}");
    }
    // Three documents per table were offered; far fewer are held.
    assert!(cache.len() < 24, "{} documents held", cache.len());
    // Evicted or not, every table still reads correctly, and reading them
    // all keeps the cache inside its bound.
    for location in &locations {
        let table = Table::load_with(Arc::clone(&store), location, io.clone()).unwrap();
        assert_eq!(table.scan().execute().unwrap(), batch);
        assert!(cache.cached_bytes() <= BOUND);
    }
    assert!(cache.misses() > 0, "the early tables had been evicted");
}

#[cfg(target_os = "linux")]
#[test]
fn dropping_a_lakehouse_joins_its_workers() {
    let _serial = serial();
    // The process's fetch workers, by thread name. (`Threads:` of
    // `/proc/self/status` also counts the test harness's own threads, which
    // come and go between the two readings.)
    let threads = || -> usize {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with("io-worker"))
            .count()
    };
    let before = threads();
    let store = Arc::new(LedgerStore::default());
    let lh = taxi_lake(&store);
    assert!(threads() > before, "a lakehouse owns fetch workers");
    // A multi-file scan, so the workers have run.
    lh.query(&window(7), "main").unwrap();
    assert!(lh.io_dispatcher().stats().submitted >= 7);
    drop(lh);
    assert_eq!(threads(), before, "no worker outlives its lakehouse");
}
