//! Predicates, projections and LIMIT reach the table scan through joins and
//! BETWEEN — and change nothing but what is read.
//!
//! * a differential corpus on a day-partitioned taxi table plus a zones
//!   dimension (with a column name the two share) must equal, byte for
//!   byte, the same query on a `with_pushdown(false)` provider and the
//!   unoptimized plan;
//! * a counting object store shows the store-level outcome: the join and
//!   BETWEEN queries fetch only the window's files, `LIMIT 10` reads one
//!   file, `COUNT(*)` decodes one narrow column, and a right-side predicate
//!   under a LEFT JOIN is not pushed.

use bauplan_core::provider::LakehouseProvider;
use bauplan_core::{Lakehouse, LakehouseConfig};
use bytes::Bytes;
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema};
use lakehouse_sql::logical::{plan_select, LogicalPlan};
use lakehouse_sql::{parse_select, SqlEngine};
use lakehouse_store::{InMemoryStore, ObjectPath, ObjectStore, StoreMetrics};
use lakehouse_table::{PartitionField, PartitionSpec, Transform};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

const START_DAY: i32 = 17_956; // 2019-03-01
const DAYS: i32 = 8;
const ROWS_PER_DAY: usize = 1_000;
const BOROUGHS: [&str; 4] = ["Manhattan", "Brooklyn", "Queens", "Bronx"];

/// An in-memory store that records which data files were read (whole or by
/// range).
#[derive(Default)]
struct CountingStore {
    inner: InMemoryStore,
    data_files: Mutex<BTreeSet<String>>,
}

impl CountingStore {
    fn record(&self, path: &ObjectPath) {
        if path.as_str().contains("/data/") {
            self.data_files
                .lock()
                .unwrap()
                .insert(path.as_str().to_string());
        }
    }

    fn reset(&self) {
        self.data_files.lock().unwrap().clear();
    }

    /// Distinct data files of `table` read since the last reset.
    fn files_read(&self, table: &str) -> usize {
        let marker = format!("/{table}/");
        self.data_files
            .lock()
            .unwrap()
            .iter()
            .filter(|p| p.contains(&marker))
            .count()
    }
}

impl ObjectStore for CountingStore {
    fn put(&self, path: &ObjectPath, data: Bytes) -> lakehouse_store::Result<()> {
        self.inner.put(path, data)
    }

    fn get(&self, path: &ObjectPath) -> lakehouse_store::Result<Bytes> {
        self.record(path);
        self.inner.get(path)
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

fn taxi_batch() -> RecordBatch {
    let n = DAYS as usize * ROWS_PER_DAY;
    let row = |i: usize| (i * 2_654_435_761) % 1_000;
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("pickup_location_id", DataType::Int64, false),
            Field::new("passenger_count", DataType::Int64, true),
            Field::new("pickup_at", DataType::Date, false),
            Field::new("fare", DataType::Float64, true),
            Field::new("payment_type", DataType::Utf8, false),
            // Wide and unique: most of a file's bytes.
            Field::new("note", DataType::Utf8, false),
        ]),
        vec![
            // Zones 1..=12; 11 and 12 have no row in the dimension.
            Column::from_i64((0..n).map(|i| (row(i) % 12) as i64 + 1).collect()),
            Column::from_opt_i64(
                (0..n)
                    .map(|i| (row(i) % 7 != 0).then_some((row(i) % 6) as i64))
                    .collect(),
            ),
            Column::from_date(
                (0..n)
                    .map(|i| START_DAY + (i / ROWS_PER_DAY) as i32)
                    .collect(),
            ),
            Column::from_opt_f64(
                (0..n)
                    .map(|i| (row(i) % 11 != 0).then_some(row(i) as f64 / 10.0))
                    .collect(),
            ),
            Column::from_strs(
                (0..n)
                    .map(|i| ["card", "cash", "app"][row(i) % 3])
                    .collect(),
            ),
            Column::from_str_vec(
                (0..n)
                    .map(|i| format!("trip {i:06} to nowhere in particular"))
                    .collect(),
            ),
        ],
    )
    .unwrap()
}

/// `zones(zone_id, borough, fare)`: `fare` (a surcharge) collides with the
/// taxi table's column of that name.
fn zones_batch() -> RecordBatch {
    let ids: Vec<i64> = (1..=10).collect();
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("zone_id", DataType::Int64, false),
            Field::new("borough", DataType::Utf8, false),
            Field::new("fare", DataType::Float64, false),
        ]),
        vec![
            Column::from_i64(ids.clone()),
            Column::from_strs(ids.iter().map(|id| BOROUGHS[*id as usize % 4]).collect()),
            Column::from_f64(ids.iter().map(|id| *id as f64 * 0.5).collect()),
        ],
    )
    .unwrap()
}

struct Lake {
    store: Arc<CountingStore>,
    /// The default provider: pushdown on.
    pushed: LakehouseProvider,
    /// The §4.4.2 baseline: whole tables, no early stop.
    naive: LakehouseProvider,
}

/// `taxi_table` partitioned by pickup day (one file per day) and `zones`
/// partitioned by borough (one file per borough), on `main`.
fn lake() -> Lake {
    let store = Arc::new(CountingStore::default());
    let dyn_store: Arc<dyn ObjectStore> = store.clone();
    let lh =
        Lakehouse::with_store(Arc::clone(&dyn_store), LakehouseConfig::zero_latency()).unwrap();
    let by_day = PartitionSpec::new(vec![PartitionField {
        source_column: "pickup_at".into(),
        transform: Transform::Day,
    }]);
    lh.create_table_partitioned("taxi_table", &taxi_batch(), "main", by_day)
        .unwrap();
    lh.create_table_partitioned(
        "zones",
        &zones_batch(),
        "main",
        PartitionSpec::identity("borough"),
    )
    .unwrap();
    let provider =
        || LakehouseProvider::new(Arc::clone(&dyn_store), Arc::clone(lh.catalog()), "main");
    Lake {
        pushed: provider(),
        naive: provider().with_pushdown(false),
        store,
    }
}

const JOIN: &str = "FROM taxi_table t JOIN zones z ON t.pickup_location_id = z.zone_id";
const LEFT_JOIN: &str = "FROM taxi_table t LEFT JOIN zones z ON t.pickup_location_id = z.zone_id";
const WINDOW: &str = "t.pickup_at >= DATE '2019-03-03' AND t.pickup_at <= DATE '2019-03-04'";

fn corpus() -> Vec<String> {
    let mut out = Vec::new();
    for join in [JOIN, LEFT_JOIN] {
        // WHERE conjuncts on the left side, the right side, both sides, and
        // one that spans both.
        out.push(format!(
            "SELECT z.borough, COUNT(*) AS n, SUM(t.fare) AS total {join} \
             WHERE {WINDOW} GROUP BY z.borough ORDER BY z.borough"
        ));
        out.push(format!(
            "SELECT t.pickup_location_id, z.borough {join} WHERE z.borough = 'Queens'"
        ));
        out.push(format!(
            "SELECT t.pickup_at, z.borough, passenger_count {join} \
             WHERE {WINDOW} AND z.borough <> 'Bronx' AND passenger_count > 2"
        ));
        out.push(format!(
            "SELECT t.pickup_location_id, z.zone_id {join} \
             WHERE {WINDOW} AND t.passenger_count > z.zone_id"
        ));
        out.push(format!(
            "SELECT COUNT(*) AS n {join} WHERE z.borough IS NULL OR t.passenger_count = 1"
        ));
        // Colliding column names: `fare` exists on both sides.
        out.push(format!(
            "SELECT t.fare, z.fare, z.borough {join} WHERE {WINDOW} AND z.fare > 2.0"
        ));
        out.push(format!(
            "SELECT t.pickup_location_id, z.fare {join} WHERE t.fare > 90.0 AND z.fare < 4.0"
        ));
        out.push(format!(
            "SELECT z.borough, SUM(t.fare) AS taxi, SUM(z.fare) AS surcharge {join} \
             WHERE fare BETWEEN 10.0 AND 20.0 GROUP BY z.borough ORDER BY z.borough"
        ));
        out.push(format!("SELECT COUNT(*) AS n {join}"));
        out.push(format!("SELECT z.borough {join} LIMIT 7 OFFSET 2"));
    }
    out.extend(
        [
            // BETWEEN and NOT BETWEEN, on the partition column and off it,
            // with NULL values and a NULL bound.
            "SELECT pickup_location_id, COUNT(*) AS n, SUM(fare) AS total FROM taxi_table \
             WHERE pickup_at BETWEEN DATE '2019-03-03' AND DATE '2019-03-04' \
             GROUP BY pickup_location_id ORDER BY n DESC, pickup_location_id LIMIT 5",
            "SELECT COUNT(*) AS n FROM taxi_table \
             WHERE pickup_at NOT BETWEEN DATE '2019-03-02' AND DATE '2019-03-07'",
            "SELECT pickup_at, fare FROM taxi_table WHERE fare BETWEEN 99.0 AND 99.5",
            "SELECT COUNT(*) AS n, COUNT(fare) AS f FROM taxi_table \
             WHERE fare NOT BETWEEN 1.0 AND 99.0",
            "SELECT COUNT(*) AS n FROM taxi_table WHERE fare BETWEEN NULL AND 50.0",
            "SELECT COUNT(*) AS n FROM taxi_table WHERE fare NOT BETWEEN NULL AND 50.0",
            "SELECT COUNT(*) AS n FROM taxi_table \
             WHERE passenger_count BETWEEN 1 AND 3 AND pickup_at BETWEEN DATE '2019-03-08' \
             AND DATE '2019-03-31'",
            // LIMIT with and without ORDER BY, a residual filter, DISTINCT.
            "SELECT * FROM taxi_table LIMIT 10",
            "SELECT pickup_at, fare * 2.0 AS double_fare FROM taxi_table t LIMIT 3",
            "SELECT * FROM taxi_table LIMIT 0",
            "SELECT pickup_at, fare FROM taxi_table ORDER BY fare DESC, pickup_at LIMIT 10",
            "SELECT fare FROM (SELECT fare, passenger_count + 1 AS p FROM taxi_table) s \
             WHERE p > 3 LIMIT 10",
            "SELECT DISTINCT payment_type FROM taxi_table LIMIT 2",
            // A grouped aggregate no row reaches: no groups, typed columns.
            "SELECT payment_type, pickup_location_id, COUNT(*) AS n, AVG(fare) AS mean \
             FROM taxi_table WHERE fare > 100000.0 GROUP BY payment_type, pickup_location_id",
            // Unfiltered COUNT(*), directly and over a subquery.
            "SELECT COUNT(*) AS n FROM taxi_table",
            "SELECT COUNT(*) AS n FROM zones",
            "SELECT COUNT(*) AS n FROM (SELECT payment_type, fare FROM taxi_table) s",
        ]
        .map(String::from),
    );
    // OFFSETs that cross a file boundary, run past the end, and sit under a
    // second LIMIT; a budget that counts rows after the scan's filters.
    let (day, total) = (ROWS_PER_DAY, DAYS as usize * ROWS_PER_DAY);
    out.push(format!(
        "SELECT * FROM taxi_table LIMIT 10 OFFSET {}",
        day - 5
    ));
    out.push(format!("SELECT * FROM taxi_table OFFSET {}", total - 5));
    out.push(format!(
        "SELECT pickup_at FROM (SELECT * FROM taxi_table LIMIT {}) s LIMIT 5 OFFSET {}",
        day + 10,
        day + 7
    ));
    out.push(format!(
        "SELECT pickup_at, fare FROM taxi_table WHERE payment_type = 'cash' LIMIT {}",
        day / 2
    ));
    out
}

#[test]
fn corpus_is_byte_identical_to_naive_and_unoptimized() {
    let lake = lake();
    for sql in corpus() {
        // Reference: the plan as written, over whole tables.
        let unoptimized = plan_select(&parse_select(&sql).unwrap(), &lake.naive.pin()).unwrap();
        let want = lakehouse_sql::execute(&unoptimized, &lake.naive.pin())
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(
            lakehouse_sql::execute(&unoptimized, &lake.pushed.pin()).unwrap(),
            want,
            "unoptimized plan, pushdown provider: {sql}"
        );
        let engine = SqlEngine::new();
        let pushed = engine
            .query(&sql, &lake.pushed.pin())
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(pushed, want, "pushdown on: {sql}");
        let naive = engine.query(&sql, &lake.naive.pin()).unwrap();
        assert_eq!(naive, want, "pushdown off: {sql}");
    }
}

/// Run `sql` on `provider`, then check what the store saw.
fn run_and_check(
    lake: &Lake,
    provider: &LakehouseProvider,
    sql: &str,
    check: impl Fn(&CountingStore),
) {
    lake.store.reset();
    SqlEngine::new().query(sql, &provider.pin()).unwrap();
    check(&lake.store);
}

#[test]
fn join_and_between_fetch_only_the_windows_files() {
    let lake = lake();
    let join = format!(
        "SELECT z.borough, COUNT(*) AS n, SUM(t.fare) AS total {JOIN} \
         WHERE {WINDOW} GROUP BY z.borough ORDER BY z.borough"
    );
    let between = "SELECT pickup_location_id, COUNT(*) AS n FROM taxi_table \
         WHERE pickup_at BETWEEN DATE '2019-03-03' AND DATE '2019-03-04' \
         GROUP BY pickup_location_id";
    for sql in [join.as_str(), between] {
        run_and_check(&lake, &lake.pushed, sql, |store| {
            assert_eq!(store.files_read("taxi_table"), 2, "{sql}");
        });
        run_and_check(&lake, &lake.naive, sql, |store| {
            assert_eq!(
                store.files_read("taxi_table"),
                DAYS as usize,
                "naive: {sql}"
            );
        });
    }
    // The projection gets below the join too. These files are far smaller
    // than the reader's merge distance, so each travels whole whatever the
    // projection; what projection saves is bytes *needed* — each scan's own
    // report, summed over the plan's scans, with no file pruned.
    let narrow = planned_scan_bytes(&lake, &format!("SELECT z.borough {JOIN}"));
    let wide = planned_scan_bytes(&lake, &format!("SELECT * {JOIN}"));
    assert!(
        (narrow as f64) < wide as f64 * 0.6,
        "join projection should cut bytes: {narrow} vs {wide}"
    );
}

/// `ScanReport::bytes_scanned` summed over the table scans `sql` plans to
/// (their projections; no predicates).
fn planned_scan_bytes(lake: &Lake, sql: &str) -> u64 {
    let plan = SqlEngine::new().plan(sql, &lake.pushed.pin()).unwrap();
    let mut total = 0;
    let mut nodes = vec![&plan];
    while let Some(node) = nodes.pop() {
        nodes.extend(node.children());
        if let LogicalPlan::Scan {
            table, projection, ..
        } = node
        {
            let mut scan = lake.pushed.load_table(table).unwrap().scan();
            if let Some(columns) = projection {
                let names: Vec<&str> = columns.iter().map(String::as_str).collect();
                scan = scan.select(&names);
            }
            total += scan.execute_with_report().unwrap().1.bytes_scanned;
        }
    }
    total
}

#[test]
fn limit_reads_one_file_unless_naive() {
    let lake = lake();
    for sql in [
        "SELECT * FROM taxi_table LIMIT 10",
        "SELECT pickup_at, fare * 2.0 AS f FROM taxi_table t LIMIT 10 OFFSET 5",
    ] {
        run_and_check(&lake, &lake.pushed, sql, |store| {
            assert_eq!(store.files_read("taxi_table"), 1, "{sql}");
        });
    }
    // The budget counts rows that passed the scan's filters: a third of a
    // day's rows are cash, so half a day's worth needs two days, not eight.
    let filtered = format!(
        "SELECT fare FROM taxi_table WHERE payment_type = 'cash' LIMIT {}",
        ROWS_PER_DAY / 2
    );
    run_and_check(&lake, &lake.pushed, &filtered, |store| {
        let files = store.files_read("taxi_table");
        assert!((2..DAYS as usize).contains(&files), "{files} files");
    });
    // No budget across a sort, and none at all on the naive provider.
    let sorted = "SELECT fare FROM taxi_table ORDER BY fare LIMIT 10";
    run_and_check(&lake, &lake.pushed, sorted, |store| {
        assert_eq!(store.files_read("taxi_table"), DAYS as usize);
    });
    let peek = "SELECT * FROM taxi_table LIMIT 10";
    run_and_check(&lake, &lake.naive, peek, |store| {
        assert_eq!(store.files_read("taxi_table"), DAYS as usize, "naive");
    });
}

#[test]
fn right_side_predicate_is_pushed_under_inner_join_only() {
    let lake = lake();
    let sql = |join: &str| format!("SELECT t.fare, z.borough {join} WHERE z.borough = 'Queens'");
    // INNER: the conjunct reaches the zones scan and prunes its partitions.
    run_and_check(&lake, &lake.pushed, &sql(JOIN), |store| {
        assert_eq!(store.files_read("zones"), 1);
    });
    // LEFT: filtering zones first would turn trips of other boroughs into
    // NULL-extended rows; every zones file is read and the filter stays
    // above the join.
    run_and_check(&lake, &lake.pushed, &sql(LEFT_JOIN), |store| {
        assert_eq!(store.files_read("zones"), BOROUGHS.len());
    });
    let text = SqlEngine::new()
        .explain(&sql(LEFT_JOIN), &lake.pushed.pin())
        .unwrap();
    let filter = text.find("Filter: ").expect("residual filter");
    assert!(filter < text.find("Join(Left)").unwrap(), "{text}");
    assert!(
        text.contains("Scan: zones projection=[zone_id, borough]\n"),
        "{text}"
    );
}

#[test]
fn unfiltered_count_star_decodes_one_narrow_column() {
    let lake = lake();
    let query = |sql: &str| SqlEngine::new().query(sql, &lake.pushed.pin()).unwrap();
    let count = query("SELECT COUNT(*) AS n FROM taxi_table");
    let all = query("SELECT * FROM taxi_table");
    assert_eq!(
        count.row(0).unwrap()[0],
        lakehouse_columnar::Value::Int64(all.num_rows() as i64)
    );

    // Through the table layer's own report: the planned projection needs
    // fewer bytes than the whole table.
    let plan = SqlEngine::new()
        .plan("SELECT COUNT(*) AS n FROM taxi_table", &lake.pushed.pin())
        .unwrap();
    let mut node = &plan;
    while let Some(child) = node.children().first() {
        node = child;
    }
    let LogicalPlan::Scan { projection, .. } = node else {
        panic!("leaf is a scan")
    };
    assert_eq!(
        projection.as_deref(),
        Some(&["pickup_location_id".to_string()][..])
    );
    let table = lake.pushed.load_table("taxi_table").unwrap();
    let (_, narrow) = table
        .scan()
        .select(&["pickup_location_id"])
        .execute_with_report()
        .unwrap();
    let (_, whole) = table.scan().execute_with_report().unwrap();
    assert_eq!(narrow.rows_emitted, whole.rows_emitted);
    assert!(
        narrow.bytes_scanned * 2 < whole.bytes_scanned,
        "{} vs {}",
        narrow.bytes_scanned,
        whole.bytes_scanned
    );
}

/// Three files in one scan, none of which pruning can drop for
/// `fare = 3.0`: every row of `whole` passes (the scan and the SQL layer
/// each hand it on as it is — `table/scan.rs` and `sql/physical.rs` hold
/// the buffer-identity checks), no row of `none` does though 3.0 lies between its
/// fares, and `part` passes in part. Rows must be the reference filter's —
/// the unoptimized plan over the table as one in-memory batch — with every
/// row a row group of its own and with one group per file.
#[test]
fn whole_none_and_part_passing_files_give_the_reference_filters_rows() {
    // (In file order, so the one-batch reference has the lake's row order.)
    let kinds = [
        "whole", "whole", "whole", "none", "none", "part", "part", "part",
    ];
    let fares = [3.0, 3.0, 3.0, 1.0, 5.0, 3.0, 4.0, 3.0];
    let ids: Vec<i64> = (0..kinds.len() as i64).collect();
    let batch = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("kind", DataType::Utf8, false),
            Field::new("fare", DataType::Float64, true),
        ]),
        vec![
            Column::from_i64(ids),
            Column::from_strs(kinds.to_vec()),
            Column::from_opt_f64(fares.iter().map(|f| Some(*f)).collect()),
        ],
    )
    .unwrap();
    let mut reference = lakehouse_sql::MemoryProvider::new();
    reference.register("passes", batch.clone());
    let corpus = [
        "SELECT * FROM passes WHERE fare = 3.0",
        "SELECT id FROM passes WHERE fare >= 3.0 AND fare <= 3.0",
        "SELECT kind, COUNT(*) AS n FROM passes WHERE fare = 3.0 GROUP BY kind",
        "SELECT id, fare FROM passes WHERE fare = 3.0 AND id > 0 LIMIT 3",
        "SELECT id FROM passes WHERE fare = 9.0",
        "SELECT kind, COUNT(*) AS n, SUM(fare) AS total FROM passes WHERE fare = 9.0 GROUP BY kind",
    ];
    for row_group_rows in [1, 8_192] {
        let store = Arc::new(CountingStore::default());
        let dyn_store: Arc<dyn ObjectStore> = store.clone();
        let config = LakehouseConfig {
            row_group_rows,
            ..LakehouseConfig::zero_latency()
        };
        let lh = Lakehouse::with_store(Arc::clone(&dyn_store), config).unwrap();
        lh.create_table_partitioned("passes", &batch, "main", PartitionSpec::identity("kind"))
            .unwrap();
        let pushed = LakehouseProvider::new(dyn_store, Arc::clone(lh.catalog()), "main");
        for sql in corpus {
            let unoptimized = plan_select(&parse_select(sql).unwrap(), &reference).unwrap();
            let want = lakehouse_sql::execute(&unoptimized, &reference).unwrap();
            store.reset();
            let got = SqlEngine::new().query(sql, &pushed.pin()).unwrap();
            assert_eq!(got, want, "{sql} at {row_group_rows} rows a group");
            if sql.ends_with("fare = 3.0") {
                assert_eq!(want.num_rows(), 5);
                // (At one row a group, zone maps drop `none`'s groups.)
                let files = if row_group_rows == 1 { 2 } else { 3 };
                assert!(store.files_read("passes") >= files, "{sql}: nothing pruned");
            }
        }
    }
}
