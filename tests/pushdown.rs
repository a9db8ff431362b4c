//! Predicates, projections and LIMIT reach the table scan through joins and
//! BETWEEN — and change nothing but what is read.
//!
//! * a differential corpus on a day-partitioned taxi table plus a zones
//!   dimension (with a column name the two share) must equal, byte for
//!   byte, the same query on a `with_pushdown(false)` provider and the
//!   unoptimized plan;
//! * so must a few hundred queries a seeded generator writes over the same
//!   lake, their results folded into one pinned digest;
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

/// `rows_per_day` taxi trips for each of `DAYS` days.
fn taxi_batch(rows_per_day: usize) -> RecordBatch {
    let n = DAYS as usize * rows_per_day;
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
                    .map(|i| START_DAY + (i / rows_per_day) as i32)
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
    lake_of(ROWS_PER_DAY)
}

/// [`lake`] with `rows_per_day` trips a day.
fn lake_of(rows_per_day: usize) -> Lake {
    let store = Arc::new(CountingStore::default());
    let dyn_store: Arc<dyn ObjectStore> = store.clone();
    let lh =
        Lakehouse::with_store(Arc::clone(&dyn_store), LakehouseConfig::zero_latency()).unwrap();
    let by_day = PartitionSpec::new(vec![PartitionField {
        source_column: "pickup_at".into(),
        transform: Transform::Day,
    }]);
    lh.create_table_partitioned("taxi_table", &taxi_batch(rows_per_day), "main", by_day)
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

/// A small deterministic generator (xorshift64*): a seed names the same
/// queries on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// What values a generated column holds, for writing literals that select
/// some of its rows and not others.
#[derive(Clone, Copy, PartialEq)]
enum Domain {
    Location,
    Passengers,
    Day,
    Fare,
    Payment,
    Note,
    ZoneId,
    Borough,
    Surcharge,
    /// A `COUNT` or `SUM` of a subquery's groups.
    Count,
    Total,
}

impl Domain {
    fn numeric(self) -> bool {
        !matches!(
            self,
            Domain::Day | Domain::Payment | Domain::Note | Domain::Borough
        )
    }

    fn text(self) -> bool {
        matches!(self, Domain::Payment | Domain::Note | Domain::Borough)
    }

    fn float(self) -> bool {
        matches!(self, Domain::Fare | Domain::Surcharge | Domain::Total)
    }

    fn literal(self, rng: &mut Rng) -> String {
        match self {
            Domain::Location => (rng.below(13) as i64).to_string(),
            Domain::Passengers => (rng.below(7) as i64).to_string(),
            Domain::ZoneId => (rng.below(11) as i64 + 1).to_string(),
            Domain::Count => (rng.below(700) as i64).to_string(),
            Domain::Day => format!("DATE '2019-03-{:02}'", rng.below(10) + 1),
            Domain::Fare => format!("{:.1}", rng.below(1_000) as f64 / 10.0),
            Domain::Surcharge => format!("{:.1}", rng.below(12) as f64 * 0.5),
            Domain::Total => format!("{:.1}", rng.below(30_000) as f64),
            Domain::Payment => format!("'{}'", rng.pick(&["card", "cash", "app", "none"])),
            Domain::Borough => format!("'{}'", rng.pick(&BOROUGHS)),
            Domain::Note => format!("'trip {:06} to nowhere in particular'", rng.below(1_100)),
        }
    }

    fn pattern(self, rng: &mut Rng) -> &'static str {
        match self {
            Domain::Payment => rng.pick(&["c%", "%a%", "_ash", "app", "%d"]),
            Domain::Borough => rng.pick(&["%an%", "B%", "Q_eens", "%x"]),
            _ => rng.pick(&["trip 0001%", "%9 to %", "trip _____7%"]),
        }
    }
}

/// A column a generated query can name: its SQL text in the query's scope,
/// what it holds, and whether it can be NULL there.
#[derive(Clone)]
struct GenColumn {
    sql: String,
    domain: Domain,
    nullable: bool,
}

fn taxi_columns(qualifier: &str) -> Vec<GenColumn> {
    let columns = [
        ("pickup_location_id", Domain::Location, false),
        ("passenger_count", Domain::Passengers, true),
        ("pickup_at", Domain::Day, false),
        ("fare", Domain::Fare, true),
        ("payment_type", Domain::Payment, false),
        ("note", Domain::Note, false),
    ];
    qualified(qualifier, &columns, false)
}

fn zones_columns(qualifier: &str, outer: bool) -> Vec<GenColumn> {
    let columns = [
        ("zone_id", Domain::ZoneId, false),
        ("borough", Domain::Borough, false),
        ("fare", Domain::Surcharge, false),
    ];
    qualified(qualifier, &columns, outer)
}

fn qualified(qualifier: &str, columns: &[(&str, Domain, bool)], outer: bool) -> Vec<GenColumn> {
    let prefix = if qualifier.is_empty() {
        String::new()
    } else {
        format!("{qualifier}.")
    };
    (columns.iter())
        .map(|&(name, domain, nullable)| GenColumn {
            sql: format!("{prefix}{name}"),
            domain,
            nullable: nullable || outer,
        })
        .collect()
}

/// One comparison-shaped predicate over `columns`.
fn gen_atom(rng: &mut Rng, columns: &[GenColumn]) -> String {
    let c = &columns[rng.below(columns.len())];
    let not = |rng: &mut Rng| if rng.chance(30) { "NOT " } else { "" };
    match rng.below(7) {
        0 if c.nullable => format!("{} IS {}NULL", c.sql, not(rng)),
        1 if c.domain.text() => format!("{} {}LIKE '{}'", c.sql, not(rng), c.domain.pattern(rng)),
        2 if !c.domain.text() => {
            let (a, b) = (c.domain.literal(rng), c.domain.literal(rng));
            format!("{} {}BETWEEN {a} AND {b}", c.sql, not(rng))
        }
        3 if c.domain != Domain::Day => {
            let items: Vec<String> = (0..1 + rng.below(3))
                .map(|_| c.domain.literal(rng))
                .collect();
            format!("{} {}IN ({})", c.sql, not(rng), items.join(", "))
        }
        4 if c.domain.numeric() => {
            let (op, k) = rng.pick(&[("*", "2"), ("+", "1"), ("-", "3")]);
            let k = if c.domain.float() {
                format!("{k}.0")
            } else {
                k.to_string()
            };
            let cmp = rng.pick(&[">", "<=", "<>"]);
            format!("{} {op} {k} {cmp} {}", c.sql, c.domain.literal(rng))
        }
        5 => {
            // Two columns of one domain kind, compared.
            let same: Vec<&GenColumn> = (columns.iter())
                .filter(|o| o.sql != c.sql && o.domain.numeric() && c.domain.numeric())
                .filter(|o| o.domain.float() == c.domain.float())
                .collect();
            match same.is_empty() {
                true => format!("{} = {}", c.sql, c.domain.literal(rng)),
                false => {
                    let o = same[rng.below(same.len())];
                    format!("{} {} {}", c.sql, rng.pick(&["<", ">=", "="]), o.sql)
                }
            }
        }
        _ => {
            let op = rng.pick(&["=", "<>", "<", "<=", ">", ">="]);
            format!("{} {op} {}", c.sql, c.domain.literal(rng))
        }
    }
}

/// An AND/OR tree of up to `depth` levels over atoms.
fn gen_predicate(rng: &mut Rng, columns: &[GenColumn], depth: usize) -> String {
    if depth == 0 || rng.chance(40) {
        return gen_atom(rng, columns);
    }
    let op = if rng.chance(60) { "AND" } else { "OR" };
    let (a, b) = (
        gen_predicate(rng, columns, depth - 1),
        gen_predicate(rng, columns, depth - 1),
    );
    format!("({a} {op} {b})")
}

/// A scalar select-list expression over `columns`, and what it holds.
fn gen_scalar(rng: &mut Rng, columns: &[GenColumn]) -> (String, Domain) {
    let c = &columns[rng.below(columns.len())];
    match rng.below(6) {
        0 if c.domain.numeric() => {
            let k = if c.domain.float() { "2.0" } else { "2" };
            (format!("{} * {k}", c.sql), c.domain)
        }
        1 => {
            let cond = gen_atom(rng, columns);
            (
                format!("CASE WHEN {cond} THEN 'yes' ELSE 'no' END"),
                Domain::Payment,
            )
        }
        2 if c.nullable && c.domain.numeric() && !c.domain.float() => {
            (format!("COALESCE({}, -1)", c.sql), c.domain)
        }
        _ => (c.sql.clone(), c.domain),
    }
}

/// A FROM clause and the columns it puts in scope.
fn gen_from(rng: &mut Rng) -> (String, Vec<GenColumn>) {
    match rng.below(7) {
        0 => ("FROM taxi_table".into(), taxi_columns("")),
        1 => ("FROM taxi_table t".into(), taxi_columns("t")),
        2 | 3 => {
            let (kind, outer) = if rng.chance(50) {
                ("JOIN", false)
            } else {
                ("LEFT JOIN", true)
            };
            let mut columns = taxi_columns("t");
            columns.extend(zones_columns("z", outer));
            let from =
                format!("FROM taxi_table t {kind} zones z ON t.pickup_location_id = z.zone_id");
            (from, columns)
        }
        4 => {
            // A filtered, renamed projection of the taxi table.
            let inner = taxi_columns("");
            let mut items = Vec::new();
            let mut columns = Vec::new();
            for (i, c) in inner.iter().enumerate() {
                if !rng.chance(60) {
                    continue;
                }
                items.push(format!("{} AS s{i}", c.sql));
                let sql = if rng.chance(50) {
                    format!("q.s{i}")
                } else {
                    format!("s{i}")
                };
                columns.push(GenColumn { sql, ..c.clone() });
            }
            if items.is_empty() {
                items.push("fare AS s3".into());
                columns.push(GenColumn {
                    sql: "q.s3".into(),
                    domain: Domain::Fare,
                    nullable: true,
                });
            }
            let filter = match rng.chance(50) {
                true => format!(" WHERE {}", gen_predicate(rng, &inner, 1)),
                false => String::new(),
            };
            let from = format!(
                "FROM (SELECT {} FROM taxi_table{filter}) q",
                items.join(", ")
            );
            (from, columns)
        }
        5 => {
            // Groups of a subquery.
            let inner = taxi_columns("");
            let key = rng.pick(&["payment_type", "pickup_location_id", "pickup_at"]);
            let domain = inner.iter().find(|c| c.sql == key).map(|c| c.domain);
            let filter = gen_predicate(rng, &inner, 1);
            let from = format!(
                "FROM (SELECT {key} AS k, COUNT(*) AS n, SUM(fare) AS total FROM taxi_table \
                 WHERE {filter} GROUP BY {key}) g"
            );
            let columns = vec![
                GenColumn {
                    sql: "g.k".into(),
                    domain: domain.unwrap_or(Domain::Payment),
                    nullable: false,
                },
                GenColumn {
                    sql: "n".into(),
                    domain: Domain::Count,
                    nullable: false,
                },
                GenColumn {
                    sql: "g.total".into(),
                    domain: Domain::Total,
                    nullable: true,
                },
            ];
            (from, columns)
        }
        _ => {
            // A subquery joined to the dimension.
            let from = "FROM (SELECT pickup_location_id AS loc, fare AS tf, pickup_at AS day \
                        FROM taxi_table) s JOIN zones z ON s.loc = z.zone_id"
                .to_string();
            let mut columns = vec![
                GenColumn {
                    sql: "s.loc".into(),
                    domain: Domain::Location,
                    nullable: false,
                },
                GenColumn {
                    sql: "s.tf".into(),
                    domain: Domain::Fare,
                    nullable: true,
                },
                GenColumn {
                    sql: "s.day".into(),
                    domain: Domain::Day,
                    nullable: false,
                },
            ];
            columns.extend(zones_columns("z", false));
            (from, columns)
        }
    }
}

/// One well-formed query: every select item aliased uniquely, ordered by
/// every output column, no self-join and no untyped NULL.
fn gen_query(rng: &mut Rng) -> String {
    let (from, columns) = gen_from(rng);
    // The wide note column is for predicates only.
    let selectable: Vec<GenColumn> = (columns.iter())
        .filter(|c| c.domain != Domain::Note)
        .cloned()
        .collect();
    let mut sql = String::from("SELECT ");
    let mut outputs = Vec::new();
    let mut tail = String::new();
    if rng.chance(40) {
        // Groups: keys, then aggregates, then maybe HAVING.
        let mut items = Vec::new();
        let mut keys = Vec::new();
        for _ in 0..1 + rng.below(2) {
            let c = &selectable[rng.below(selectable.len())];
            if !c.domain.float() && !keys.contains(&c.sql) {
                keys.push(c.sql.clone());
            }
        }
        for key in &keys {
            items.push(format!("{key} AS o{}", outputs.len()));
            outputs.push(format!("o{}", outputs.len()));
        }
        let numeric: Vec<&GenColumn> = selectable.iter().filter(|c| c.domain.numeric()).collect();
        for _ in 0..1 + rng.below(3) {
            let c = numeric[rng.below(numeric.len())];
            let agg = match rng.below(6) {
                0 => "COUNT(*)".to_string(),
                1 => format!("COUNT({})", c.sql),
                2 => format!("SUM({})", c.sql),
                3 => format!("MIN({})", c.sql),
                4 => format!("MAX({})", c.sql),
                _ => format!("AVG({})", c.sql),
            };
            items.push(format!("{agg} AS o{}", outputs.len()));
            outputs.push(format!("o{}", outputs.len()));
        }
        sql.push_str(&items.join(", "));
        sql.push(' ');
        sql.push_str(&from);
        if rng.chance(60) {
            sql.push_str(&format!(" WHERE {}", gen_predicate(rng, &columns, 2)));
        }
        if !keys.is_empty() {
            tail.push_str(&format!(" GROUP BY {}", keys.join(", ")));
            if rng.chance(40) {
                let having = match rng.chance(50) {
                    true => format!("COUNT(*) > {}", rng.below(50)),
                    false => format!("MIN({}) IS NOT NULL", numeric[0].sql),
                };
                tail.push_str(&format!(" HAVING {having}"));
            }
        }
    } else {
        if rng.chance(10) {
            sql.push_str("DISTINCT ");
        }
        let items: Vec<String> = (0..1 + rng.below(4))
            .map(|i| {
                outputs.push(format!("o{i}"));
                format!("{} AS o{i}", gen_scalar(rng, &selectable).0)
            })
            .collect();
        sql.push_str(&items.join(", "));
        sql.push(' ');
        sql.push_str(&from);
        if rng.chance(80) {
            sql.push_str(&format!(" WHERE {}", gen_predicate(rng, &columns, 2)));
        }
    }
    sql.push_str(&tail);
    // Every output column, each way round, in a shuffled order.
    let mut order = outputs;
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let keys: Vec<String> = (order.iter())
        .map(|o| format!("{o}{}", if rng.chance(50) { " DESC" } else { "" }))
        .collect();
    sql.push_str(&format!(" ORDER BY {}", keys.join(", ")));
    if rng.chance(40) {
        sql.push_str(&format!(" LIMIT {}", rng.below(40)));
        if rng.chance(50) {
            sql.push_str(&format!(" OFFSET {}", rng.below(20)));
        }
    }
    sql
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    (bytes.iter()).fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest of every generated query's result, from seeds 1, 2 and 3. A
/// change to the engine that moves it changed some query's answer.
const GENERATED_DIGEST: u64 = 0xedaa_eee0_3735_0057;

/// Trips a day in the generated queries' lake: small enough that 330
/// queries, four runs each, take a few seconds in a debug build.
const GENERATED_ROWS_PER_DAY: usize = 125;

#[test]
fn generated_queries_are_byte_identical_across_plans_and_providers() {
    let lake = lake_of(GENERATED_ROWS_PER_DAY);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut queries = 0;
    for seed in [1u64, 2, 3] {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ seed);
        for _ in 0..110 {
            let sql = gen_query(&mut rng);
            let stmt = parse_select(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let (pushed, naive) = (lake.pushed.pin(), lake.naive.pin());
            let unoptimized = plan_select(&stmt, &naive).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let want = lakehouse_sql::execute(&unoptimized, &naive)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            let engine = SqlEngine::new();
            let runs = [
                (
                    "unoptimized, pushdown",
                    lakehouse_sql::execute(&unoptimized, &pushed),
                ),
                ("optimized, pushdown", engine.query(&sql, &pushed)),
                ("optimized, naive", engine.query(&sql, &naive)),
            ];
            for (how, got) in runs {
                let got = got.unwrap_or_else(|e| panic!("{how}: {sql}: {e}"));
                assert_eq!(got, want, "{how}: {sql}");
            }
            digest = fnv1a(digest, sql.as_bytes());
            digest = fnv1a(digest, format!("{:?}", want.schema().names()).as_bytes());
            for row in 0..want.num_rows() {
                digest = fnv1a(digest, format!("{:?}", want.row(row).unwrap()).as_bytes());
            }
            queries += 1;
        }
    }
    assert_eq!(queries, 330);
    assert_eq!(digest, GENERATED_DIGEST, "digest {digest:#018x}");
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
