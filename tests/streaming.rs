//! The executor's results do not depend on how its input is cut into
//! batches, and its rewritten operators keep the semantics of the boxed
//! ones they replace:
//!
//! * *batch-boundary invariance*: the SQL operator corpus (filter, project,
//!   aggregate, join, sort, limit/offset, distinct, scalar functions) and a
//!   seeded-RNG sweep over random tables and queries give byte-for-byte the
//!   same batch whether a table arrives as one batch ("materialized") or
//!   through a chunking provider at 1, 3 or 1024 rows per batch — sizes small
//!   enough to force every operator across batch boundaries;
//! * the hash join and DISTINCT on `kernels::Grouper` against a
//!   row-at-a-time oracle on `RowKey` (the pre-PR 17 implementation), over
//!   NULL keys, duplicate build keys, an empty build side, multi-column and
//!   dictionary-encoded keys, mismatched key types and ±0.0/NaN floats, with
//!   either side arriving in several batches; ORDER BY ties keep file order;
//! * on a multi-file lakehouse table, an aggregate's peak working set is a
//!   fraction of the table, a satisfied LIMIT stops fetching data files
//!   (observable in both batch counts and store GETs), and LIMIT/OFFSET
//!   windows cross file boundaries correctly.

use bauplan_core::{Lakehouse, LakehouseConfig};
use lakehouse_columnar::kernels::hash::RowKey;
use lakehouse_columnar::{
    BatchStream, BatchesStream, Bitmap, Column, DataType, DictColumn, Field, RecordBatch, Schema,
    Value,
};
use lakehouse_sql::ast::Expr;
use lakehouse_sql::logical::SchemaProvider;
use lakehouse_sql::{MemoryProvider, SqlEngine, TableProvider};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

// ---- batch-boundary invariance over in-memory tables ------------------------

/// The tables of `inner`, served `rows` rows per batch.
struct Chunked<'a> {
    inner: &'a MemoryProvider,
    rows: usize,
}

impl SchemaProvider for Chunked<'_> {
    fn table_schema(&self, table: &str) -> Result<Option<Schema>, String> {
        self.inner.table_schema(table)
    }
}

impl TableProvider for Chunked<'_> {
    fn scan(
        &self,
        table: &str,
        projection: Option<&[String]>,
        filters: &[Expr],
        fetch: Option<usize>,
    ) -> lakehouse_sql::Result<Box<dyn BatchStream>> {
        let mut whole = self.inner.scan(table, projection, filters, fetch)?;
        let whole = lakehouse_columnar::stream::collect(&mut *whole)?;
        let chunks = whole.chunks(self.rows)?;
        Ok(Box::new(BatchesStream::new(whole.schema().clone(), chunks)))
    }
}

fn taxi_provider() -> MemoryProvider {
    let mut p = MemoryProvider::new();
    p.register(
        "trips",
        RecordBatch::try_new(
            Schema::new(vec![
                Field::new("pickup", DataType::Int64, false),
                Field::new("dropoff", DataType::Int64, false),
                Field::new("passengers", DataType::Int64, true),
                Field::new("fare", DataType::Float64, true),
                Field::new("tag", DataType::Utf8, false),
            ]),
            vec![
                Column::from_i64(vec![1, 1, 2, 2, 3, 3, 1, 2, 4, 1]),
                Column::from_i64(vec![10, 20, 10, 20, 10, 30, 10, 10, 40, 20]),
                Column::from_opt_i64(vec![
                    Some(1),
                    Some(2),
                    None,
                    Some(4),
                    Some(5),
                    Some(1),
                    Some(3),
                    None,
                    Some(2),
                    Some(6),
                ]),
                Column::from_opt_f64(vec![
                    Some(10.0),
                    Some(20.5),
                    Some(5.0),
                    None,
                    Some(50.0),
                    Some(7.5),
                    Some(12.5),
                    Some(30.0),
                    None,
                    Some(8.25),
                ]),
                Column::from_strs(vec![
                    "am", "pm", "am", "pm", "am", "pm", "am", "pm", "am", "pm",
                ]),
            ],
        )
        .unwrap(),
    );
    p.register(
        "zones",
        RecordBatch::try_new(
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("name", DataType::Utf8, false),
            ]),
            vec![
                Column::from_i64(vec![1, 2, 3]),
                Column::from_strs(vec!["midtown", "soho", "harlem"]),
            ],
        )
        .unwrap(),
    );
    p
}

const CORPUS: &[&str] = &[
    "SELECT * FROM trips",
    "SELECT pickup, fare FROM trips WHERE fare > 9.0",
    "SELECT pickup, passengers + 1 AS p1, fare * 2.0 AS f2 FROM trips WHERE pickup <> 3",
    "SELECT pickup, CASE WHEN fare > 15.0 THEN 'high' ELSE 'low' END AS band FROM trips",
    "SELECT COUNT(*) AS n, SUM(fare) AS total, AVG(passengers) AS avg_p FROM trips",
    "SELECT pickup, COUNT(*) AS n, SUM(fare) AS total FROM trips GROUP BY pickup \
     HAVING COUNT(*) > 1 ORDER BY pickup",
    "SELECT MIN(fare) AS lo, MAX(fare) AS hi FROM trips WHERE passengers IS NOT NULL",
    "SELECT t.pickup, z.name, t.fare FROM trips t JOIN zones z ON t.pickup = z.id \
     ORDER BY t.fare DESC, z.name",
    "SELECT t.pickup, z.name FROM trips t LEFT JOIN zones z ON t.pickup = z.id \
     ORDER BY t.pickup, z.name",
    "SELECT t.pickup, z.name, t.fare FROM trips t LEFT JOIN zones z ON t.pickup = z.id",
    "SELECT pickup, fare FROM trips ORDER BY fare DESC",
    "SELECT passengers, fare FROM trips ORDER BY passengers, fare",
    "SELECT pickup, fare FROM trips ORDER BY fare LIMIT 3",
    "SELECT pickup FROM trips LIMIT 4 OFFSET 3",
    "SELECT pickup FROM trips LIMIT 0",
    "SELECT DISTINCT pickup, dropoff FROM trips ORDER BY pickup, dropoff",
    "SELECT DISTINCT tag FROM trips",
    "SELECT UPPER(tag) AS t, COALESCE(passengers, 0) AS p FROM trips WHERE tag LIKE 'a%'",
    "SELECT 1 + 2 AS x, 'lit' AS s",
    "SELECT pickup, SUM(fare) AS s FROM trips WHERE passengers BETWEEN 1 AND 5 \
     GROUP BY pickup ORDER BY s DESC LIMIT 2",
    // A LIMIT inside a tie group that spans batches: ties keep file order,
    // NULLs tie with each other.
    "SELECT pickup, dropoff, fare FROM trips ORDER BY pickup LIMIT 2",
    "SELECT tag, pickup FROM trips ORDER BY tag DESC LIMIT 3 OFFSET 1",
    "SELECT passengers, tag, fare FROM trips ORDER BY passengers LIMIT 1",
    "SELECT passengers, fare FROM trips ORDER BY passengers DESC, tag LIMIT 9",
    // No row reaches the aggregate, the DISTINCT or the join's build side.
    "SELECT pickup, tag, COUNT(*) AS n, MAX(fare) AS hi FROM trips WHERE fare > 1000.0 \
     GROUP BY pickup, tag",
    "SELECT DISTINCT tag FROM trips WHERE fare > 1000.0",
    "SELECT t.pickup, z.name FROM trips t LEFT JOIN zones z ON t.pickup = z.id \
     WHERE z.id > 1000",
];

#[test]
fn corpus_streaming_matches_materialized() {
    let provider = taxi_provider();
    let engine = SqlEngine::new();
    // 1 and 3 rows per batch force every operator to see multiple batches.
    for &rows in &[1usize, 3, 1024] {
        let chunked = Chunked {
            inner: &provider,
            rows,
        };
        for sql in CORPUS {
            let expected = engine.query(sql, &provider).unwrap();
            let got = engine.query(sql, &chunked).unwrap();
            assert_eq!(got, expected, "{rows} rows per batch diverged on: {sql}");
        }
    }
}

#[test]
fn report_counts_operator_rows_and_batches() {
    let provider = taxi_provider();
    let chunked = Chunked {
        inner: &provider,
        rows: 4,
    };
    let (_, report) = SqlEngine::new()
        .query_with_report(
            "SELECT pickup, COUNT(*) AS n FROM trips GROUP BY pickup",
            &chunked,
        )
        .unwrap();
    // 10 rows at 4 rows/batch = 3 scan batches.
    assert_eq!(report.batches_streamed, 3);
    assert!(report.peak_bytes > 0);
    let names: Vec<&str> = report
        .operator_rows
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(names, vec!["Scan", "Aggregate", "Project"]);
    assert_eq!(report.operator_rows[0].1, 10, "scan emits every row");
    assert_eq!(report.operator_rows[1].1, 4, "one row per pickup group");
    assert_eq!(report.operator_rows[2].1, 4, "projection preserves groups");
}

// ---- property sweep --------------------------------------------------------

fn arb_table(rng: &mut StdRng) -> RecordBatch {
    let n = rng.gen_range(1..=120usize);
    let ints: Vec<Option<i64>> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.2) {
                None
            } else {
                Some(rng.gen_range(-50..50))
            }
        })
        .collect();
    let floats: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
    let words = ["ash", "oak", "elm", "fir", ""];
    let strings: Vec<&str> = (0..n)
        .map(|_| words[rng.gen_range(0..words.len())])
        .collect();
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Float64, false),
            Field::new("c", DataType::Utf8, false),
        ]),
        vec![
            Column::from_opt_i64(ints),
            Column::from_f64(floats),
            Column::from_strs(strings),
        ],
    )
    .unwrap()
}

#[test]
fn property_streaming_matches_materialized_on_random_tables() {
    let templates = [
        "SELECT * FROM t WHERE a > {k}",
        "SELECT a, b FROM t WHERE b < {k}.5 ORDER BY a, b LIMIT 7",
        "SELECT c, COUNT(*) AS n, SUM(b) AS s FROM t GROUP BY c ORDER BY c",
        "SELECT a, COUNT(*) AS n FROM t WHERE a IS NOT NULL GROUP BY a ORDER BY n DESC, a",
        "SELECT DISTINCT c FROM t ORDER BY c",
        "SELECT DISTINCT a, c FROM t",
        "SELECT a, b FROM t ORDER BY a DESC, b LIMIT {k} OFFSET 2",
        "SELECT a + 1 AS a1, b * 2.0 AS b2 FROM t WHERE a BETWEEN -{k} AND {k}",
        "SELECT t.a, t.c, u.b FROM t JOIN t u ON t.a = u.a AND t.c = u.c WHERE u.b > {k}.0",
        "SELECT t.a, u.c FROM t LEFT JOIN t u ON t.a = u.a WHERE t.b < -{k}.0",
    ];
    let engine = SqlEngine::new();
    let mut rng = StdRng::seed_from_u64(0x5EED_57AE);
    for round in 0..60 {
        let mut provider = MemoryProvider::new();
        provider.register("t", arb_table(&mut rng));
        let k = rng.gen_range(1..20i64);
        let template = templates[rng.gen_range(0..templates.len())];
        let sql = template.replace("{k}", &k.to_string());
        let chunked = Chunked {
            inner: &provider,
            rows: rng.gen_range(1..=32usize),
        };
        let expected = engine.query(&sql, &provider).unwrap();
        let got = engine.query(&sql, &chunked).unwrap();
        assert_eq!(
            got, expected,
            "round {round}: {} rows per batch diverged on: {sql}",
            chunked.rows
        );
    }
}

/// A sort under a LIMIT keeps exactly the first rows of the full sort, at
/// any batch size: keys with few distinct values and NULLs, and LIMITs that
/// end inside a tie group.
#[test]
fn order_by_limit_is_the_full_sorts_prefix() {
    let sorts = [
        "SELECT a, c FROM t ORDER BY c",
        "SELECT a, b FROM t ORDER BY a DESC",
        "SELECT c, a, b FROM t ORDER BY a, c DESC",
        "SELECT c FROM t WHERE a IS NULL ORDER BY c",
    ];
    let engine = SqlEngine::new();
    let mut rng = StdRng::seed_from_u64(0x70_9C);
    for round in 0..60 {
        let mut provider = MemoryProvider::new();
        provider.register("t", arb_table(&mut rng));
        let sort = sorts[round % sorts.len()];
        let full = engine.query(sort, &provider).unwrap();
        let k = rng.gen_range(0..=full.num_rows() + 2);
        let want = full.slice(0, k.min(full.num_rows())).unwrap();
        for rows in [1, 3, 1024] {
            let chunked = Chunked {
                inner: &provider,
                rows,
            };
            let got = engine
                .query(&format!("{sort} LIMIT {k}"), &chunked)
                .unwrap();
            assert_eq!(
                got, want,
                "round {round}, {rows} rows per batch: {sort} LIMIT {k}"
            );
        }
    }
}

// ---- join and DISTINCT on the interner against the boxed oracle ------------------

fn rows_of(batch: &RecordBatch) -> Vec<String> {
    (0..batch.num_rows())
        .map(|i| format!("{:?}", batch.row(i).unwrap()))
        .collect()
}

fn key_of(batch: &RecordBatch, columns: &[&str], row: usize) -> RowKey {
    let values: Vec<Value> = columns
        .iter()
        .map(|c| batch.column_by_name(c).unwrap().get(row).unwrap())
        .collect();
    RowKey::from_values(&values)
}

/// The join the executor had before PR 17, one boxed `RowKey` per row: a
/// hash table of build rows per key in arrival order, NULL keys left out on
/// both sides, output in probe order then build arrival order.
fn oracle_join(
    left: &RecordBatch,
    right: &RecordBatch,
    on: &[(&str, &str)],
    left_join: bool,
) -> Vec<String> {
    let (lkeys, rkeys): (Vec<&str>, Vec<&str>) = on.iter().copied().unzip();
    let mut table: HashMap<RowKey, Vec<usize>> = HashMap::new();
    for row in 0..right.num_rows() {
        let key = key_of(right, &rkeys, row);
        if !key.has_null() {
            table.entry(key).or_default().push(row);
        }
    }
    let mut out = Vec::new();
    for row in 0..left.num_rows() {
        let key = key_of(left, &lkeys, row);
        let matches = table.get(&key).filter(|_| !key.has_null());
        let lrow = left.row(row).unwrap();
        match matches {
            Some(rows) => {
                for &r in rows {
                    out.push([lrow.clone(), right.row(r).unwrap()].concat());
                }
            }
            None if left_join => {
                let nulls = vec![Value::Null; right.num_columns()];
                out.push([lrow.clone(), nulls].concat());
            }
            None => {}
        }
    }
    out.iter().map(|row| format!("{row:?}")).collect()
}

/// `SELECT * FROM l [LEFT] JOIN r ON ...` through the executor equals the
/// oracle, with either side arriving whole or in small batches.
fn assert_join_matches_oracle(left: RecordBatch, right: RecordBatch, on: &[(&str, &str)]) {
    let mut provider = MemoryProvider::new();
    provider.register("l", left.clone());
    provider.register("r", right.clone());
    let cond: Vec<String> = on.iter().map(|(l, r)| format!("l.{l} = r.{r}")).collect();
    for left_join in [false, true] {
        let kind = if left_join { "LEFT JOIN" } else { "JOIN" };
        let sql = format!("SELECT * FROM l {kind} r ON {}", cond.join(" AND "));
        let want = oracle_join(&left, &right, on, left_join);
        for rows in [1024usize, 1, 2, 3] {
            let chunked = Chunked {
                inner: &provider,
                rows,
            };
            let got = SqlEngine::new().query(&sql, &chunked).unwrap();
            assert_eq!(rows_of(&got), want, "{rows} rows per batch: {sql}");
        }
    }
}

fn table(fields: Vec<(&str, Column)>) -> RecordBatch {
    let schema = (fields.iter())
        .map(|(name, col)| Field::new(*name, col.data_type(), true))
        .collect();
    let columns = fields.into_iter().map(|(_, col)| col).collect();
    RecordBatch::try_new(Schema::new(schema), columns).unwrap()
}

fn dict(values: Vec<Option<&str>>) -> Column {
    let strings: Vec<String> = (values.iter())
        .map(|v| v.unwrap_or("filler").to_string())
        .collect();
    let valid: Vec<bool> = values.iter().map(Option::is_some).collect();
    Column::Dict(DictColumn::encode(&strings, Some(Bitmap::from_bools(&valid))).unwrap())
}

#[test]
fn join_null_keys_never_match_and_duplicates_keep_arrival_order() {
    // Keys 1 and 2 repeat on the build side (rows tagged in arrival order),
    // NULL appears on both sides, 9 only on the probe side, 7 only on the
    // build side.
    let left = table(vec![
        (
            "k",
            Column::from_opt_i64(vec![Some(2), None, Some(1), Some(9), Some(2), None]),
        ),
        ("l_tag", Column::from_i64((0..6).collect())),
    ]);
    let right = table(vec![
        (
            "rk",
            Column::from_opt_i64(vec![
                Some(1),
                Some(2),
                None,
                Some(1),
                Some(7),
                Some(2),
                None,
                Some(1),
            ]),
        ),
        ("r_tag", Column::from_i64((100..108).collect())),
    ]);
    assert_join_matches_oracle(left.clone(), right.clone(), &[("k", "rk")]);

    // Spelled out once, so the oracle is itself pinned: probe order, then
    // build arrival order; NULL never matches NULL.
    let want = [
        "[Int64(2), Int64(0), Int64(2), Int64(101)]",
        "[Int64(2), Int64(0), Int64(2), Int64(105)]",
        "[Int64(1), Int64(2), Int64(1), Int64(100)]",
        "[Int64(1), Int64(2), Int64(1), Int64(103)]",
        "[Int64(1), Int64(2), Int64(1), Int64(107)]",
        "[Int64(2), Int64(4), Int64(2), Int64(101)]",
        "[Int64(2), Int64(4), Int64(2), Int64(105)]",
    ];
    assert_eq!(oracle_join(&left, &right, &[("k", "rk")], false), want);
}

#[test]
fn left_join_with_an_empty_build_side_pads_every_row() {
    let left = table(vec![
        ("k", Column::from_opt_i64(vec![Some(1), None, Some(3)])),
        ("s", Column::from_strs(vec!["a", "b", "c"])),
    ]);
    let right = table(vec![
        ("rk", Column::from_i64(vec![])),
        ("name", Column::from_strs(vec![])),
        ("score", Column::from_f64(vec![])),
    ]);
    assert_join_matches_oracle(left.clone(), right.clone(), &[("k", "rk")]);

    let mut provider = MemoryProvider::new();
    provider.register("l", left);
    provider.register("r", right);
    let sql = "SELECT * FROM l LEFT JOIN r ON l.k = r.rk";
    let got = SqlEngine::new().query(sql, &provider).unwrap();
    assert_eq!(got.num_rows(), 3);
    for name in ["rk", "name", "score"] {
        assert_eq!(got.column_by_name(name).unwrap().null_count(), 3, "{name}");
    }
    // The same when the build side is filtered down to nothing.
    let mut provider = MemoryProvider::new();
    provider.register("l", got.project(&["k", "s"]).unwrap());
    provider.register(
        "r",
        table(vec![
            ("rk", Column::from_i64(vec![1, 3])),
            ("score", Column::from_f64(vec![0.5, 1.5])),
        ]),
    );
    let sql = "SELECT l.s, z.score FROM l LEFT JOIN (SELECT * FROM r WHERE score > 9.0) z \
               ON l.k = z.rk";
    let got = SqlEngine::new().query(sql, &provider).unwrap();
    assert_eq!(
        rows_of(&got),
        [
            "[Utf8(\"a\"), Null]",
            "[Utf8(\"b\"), Null]",
            "[Utf8(\"c\"), Null]"
        ]
    );
}

#[test]
fn join_on_multi_column_and_dictionary_keys() {
    let words = |v: Vec<Option<&str>>| Column::from_opt_str(v);
    let l_zone = vec![
        Some("soho"),
        Some("noho"),
        None,
        Some("soho"),
        Some("dumbo"),
    ];
    let r_zone = vec![
        Some("noho"),
        Some("soho"),
        Some("soho"),
        None,
        Some("tribeca"),
    ];
    let l_day = Column::from_opt_i64(vec![Some(1), Some(1), Some(2), Some(2), None]);
    let r_day = Column::from_opt_i64(vec![Some(1), Some(2), Some(1), Some(2), Some(1)]);
    // Plain strings on both sides, dictionary codes on both, and one of each.
    for (l_col, r_col) in [
        (words(l_zone.clone()), words(r_zone.clone())),
        (dict(l_zone.clone()), dict(r_zone.clone())),
        (dict(l_zone.clone()), words(r_zone.clone())),
        (words(l_zone.clone()), dict(r_zone.clone())),
    ] {
        let left = table(vec![
            ("zone", l_col),
            ("day", l_day.clone()),
            ("l_tag", Column::from_i64((0..5).collect())),
        ]);
        let right = table(vec![
            ("r_zone", r_col),
            ("r_day", r_day.clone()),
            ("r_tag", Column::from_i64((10..15).collect())),
        ]);
        // One string key, then (string, int) — NULL in either part of the
        // key keeps the row out.
        assert_join_matches_oracle(left.clone(), right.clone(), &[("zone", "r_zone")]);
        assert_join_matches_oracle(left, right, &[("zone", "r_zone"), ("day", "r_day")]);
    }
}

#[test]
fn join_keys_compare_by_type_and_floats_by_sql_equality() {
    // ±0.0 are one key and so are all NaNs, as `RowKey` has it.
    let nan_with_payload = f64::from_bits(f64::NAN.to_bits() | 1);
    let left = table(vec![
        (
            "f",
            Column::from_opt_f64(vec![Some(0.0), Some(-0.0), Some(f64::NAN), None, Some(1.5)]),
        ),
        ("i", Column::from_i64(vec![1, 2, 3, 4, 5])),
    ]);
    let right = table(vec![
        (
            "rf",
            Column::from_opt_f64(vec![Some(-0.0), Some(nan_with_payload), Some(1.5), None]),
        ),
        ("ri", Column::from_i64(vec![1, 3, 5, 4])),
        ("rd", Column::from_date(vec![1, 3, 5, 4])),
        ("rt", Column::from_timestamp(vec![1, 3, 5, 4])),
    ]);
    assert_join_matches_oracle(left.clone(), right.clone(), &[("f", "rf")]);
    assert_join_matches_oracle(left.clone(), right.clone(), &[("f", "rf"), ("i", "ri")]);
    // An INT key matches no DOUBLE, DATE or TIMESTAMP key, whatever the
    // bits: every INNER join below is empty, every LEFT join all padding.
    let mut provider = MemoryProvider::new();
    provider.register("l", left.clone());
    provider.register("r", right.clone());
    for rkey in ["rf", "rd", "rt"] {
        assert_join_matches_oracle(left.clone(), right.clone(), &[("i", rkey)]);
        let sql = format!("SELECT COUNT(*) AS n, COUNT(r.ri) AS m FROM l JOIN r ON l.i = r.{rkey}");
        let got = SqlEngine::new().query(&sql, &provider).unwrap();
        assert_eq!(
            got.row(0).unwrap(),
            [Value::Int64(0), Value::Int64(0)],
            "{rkey}"
        );
        let sql = sql.replace("JOIN", "LEFT JOIN");
        let got = SqlEngine::new().query(&sql, &provider).unwrap();
        assert_eq!(
            got.row(0).unwrap(),
            [Value::Int64(5), Value::Int64(0)],
            "{rkey}"
        );
    }
}

#[test]
fn distinct_across_batch_boundaries_with_nulls_and_float_edge_cases() {
    let nan_with_payload = f64::from_bits(f64::NAN.to_bits() | 1);
    let floats = vec![
        Some(0.0),
        None,
        Some(-0.0),
        Some(f64::NAN),
        Some(2.5),
        None,
        Some(nan_with_payload),
        Some(0.0),
        Some(2.5),
        None,
    ];
    let ints = vec![
        Some(1),
        None,
        Some(1),
        Some(2),
        None,
        None,
        Some(2),
        Some(3),
        None,
        Some(1),
    ];
    let whole = table(vec![
        ("f", Column::from_opt_f64(floats)),
        ("i", Column::from_opt_i64(ints)),
    ]);
    // Oracle: the first row of each distinct `RowKey`, in input order.
    let mut seen = HashSet::new();
    let want: Vec<String> = (0..whole.num_rows())
        .filter(|&row| seen.insert(key_of(&whole, &["f", "i"], row)))
        .map(|row| format!("{:?}", whole.row(row).unwrap()))
        .collect();
    assert_eq!(want.len(), 6, "{want:?}");
    let mut provider = MemoryProvider::new();
    provider.register("t", whole);
    for rows in [1024usize, 1, 2, 3, 4] {
        let chunked = Chunked {
            inner: &provider,
            rows,
        };
        let got = SqlEngine::new()
            .query("SELECT DISTINCT f, i FROM t", &chunked)
            .unwrap();
        assert_eq!(rows_of(&got), want, "{rows} rows per batch");
    }
}

// ---- multi-file tables: memory, early termination, order ---------------------

/// A lakehouse whose `events` table spans `files` data files of `rows_per`
/// rows each.
fn multi_file_lakehouse(files: usize, rows_per: usize) -> Lakehouse {
    let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
    for file in 0..files {
        let base = (file * rows_per) as i64;
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("grp", DataType::Int64, false),
                Field::new("val", DataType::Float64, false),
            ]),
            vec![
                Column::from_i64((0..rows_per as i64).map(|i| base + i).collect()),
                Column::from_i64((0..rows_per as i64).map(|i| (base + i) % 7).collect()),
                Column::from_f64(
                    (0..rows_per as i64)
                        .map(|i| (base + i) as f64 * 0.5)
                        .collect(),
                ),
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

const AGG_SQL: &str =
    "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM events WHERE id >= 64 GROUP BY grp ORDER BY grp";

#[test]
fn streaming_peak_memory_below_materialized() {
    let files = 16;
    let rows = 256;
    let lh = multi_file_lakehouse(files, rows);
    let whole = lh.read_table("events", "main").unwrap();

    // The same statement over the table as one in-memory batch.
    let mut provider = MemoryProvider::new();
    provider.register("events", whole.clone());
    let (expected, one_batch) = SqlEngine::new()
        .query_with_report(AGG_SQL, &provider)
        .unwrap();
    let (got, report) = lh.query_with_report(AGG_SQL, "main").unwrap();

    assert_eq!(got, expected, "file by file must match the table whole");
    assert_eq!(report.batches_streamed, files, "one batch per data file");
    assert_eq!(one_batch.batches_streamed, 1, "one batch per table");
    // The aggregate keeps group state, not input: its working set is a
    // couple of files' worth, far below the table's (and below what the
    // one-batch run had to hold).
    assert!(
        report.peak_bytes * 4 < whole.approx_bytes(),
        "peak {} vs table {}",
        report.peak_bytes,
        whole.approx_bytes()
    );
    assert!(
        report.peak_bytes * 4 < one_batch.peak_bytes,
        "peak {} must be far below the one-batch peak {}",
        report.peak_bytes,
        one_batch.peak_bytes
    );
}

#[test]
fn limit_stops_reading_files_early() {
    let files = 16;
    let rows = 64;
    let lh = multi_file_lakehouse(files, rows);

    // This front wrote the table, so its documents are warm and it has
    // read none of its data files: a statement's GETs are the ref plus the
    // data files it reads that no earlier statement read.
    let gets = || lh.store_metrics().gets() as usize;
    let before = gets();
    let (batch, report) = lh
        .query_with_report("SELECT id FROM events LIMIT 1", "main")
        .unwrap();
    assert_eq!(batch.num_rows(), 1);
    assert_eq!(report.batches_streamed, 1, "LIMIT 1 pulls one batch");
    assert_eq!(
        gets() - before,
        2,
        "LIMIT 1 reads the ref and one data file"
    );
    let before = gets();
    let (batch, report) = lh
        .query_with_report("SELECT id FROM events", "main")
        .unwrap();
    assert_eq!(batch.num_rows(), files * rows);
    assert_eq!(report.batches_streamed, files);
    assert_eq!(gets() - before, 1 + files - 1, "all but the LIMIT's file");

    // LIMIT/OFFSET windows inside a file, across a file boundary, across
    // several, and past the end: `id` is the row's position in the table.
    let total = files * rows;
    for (limit, offset) in [
        (5, 3),
        (5, rows - 2),
        (2 * rows + 1, rows - 1),
        (10, total - 4),
        (10, total + 7),
    ] {
        let sql = format!("SELECT id FROM events LIMIT {limit} OFFSET {offset}");
        let got = lh.query(&sql, "main").unwrap();
        let want: Vec<i64> = (offset..(offset + limit).min(total.max(offset)))
            .map(|i| i as i64)
            .collect();
        assert_eq!(got.column(0), &Column::from_i64(want), "{sql}");
    }
}

#[test]
fn order_by_ties_keep_file_order() {
    // `grp` repeats in every file: a stable sort over the files in manifest
    // order leaves each group's ids ascending.
    let lh = multi_file_lakehouse(6, 50);
    let got = lh
        .query("SELECT grp, id FROM events ORDER BY grp", "main")
        .unwrap();
    assert_eq!(got.num_rows(), 300);
    let rows: Vec<(i64, i64)> = (0..got.num_rows())
        .map(|i| {
            let row = got.row(i).unwrap();
            (row[0].as_i64().unwrap(), row[1].as_i64().unwrap())
        })
        .collect();
    let mut want = rows.clone();
    want.sort();
    assert_eq!(rows, want, "ties must keep manifest order");
    // Descending keys, same rule: ties still ascend by arrival.
    let got = lh
        .query("SELECT grp, id FROM events ORDER BY grp DESC", "main")
        .unwrap();
    let rows: Vec<(i64, i64)> = (0..got.num_rows())
        .map(|i| {
            let row = got.row(i).unwrap();
            (-row[0].as_i64().unwrap(), row[1].as_i64().unwrap())
        })
        .collect();
    let mut want = rows.clone();
    want.sort();
    assert_eq!(rows, want, "ties must keep manifest order under DESC");
}
