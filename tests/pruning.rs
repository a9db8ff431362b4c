//! Cross-crate pruning behaviour: partition pruning, file-stats pruning,
//! row-group zone maps, and projection pushdown, observed through store
//! metrics — the data-movement half of the paper's §4.4.2 argument.

use bauplan_core::{Lakehouse, LakehouseConfig};
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use lakehouse_store::{InMemoryStore, ObjectStore};
use lakehouse_table::{PartitionField, PartitionSpec, Table, Transform};
use std::sync::Arc;

fn monthly_table(lh: &Lakehouse, rows_per_month: usize) {
    // Two months of data: March (day 17956+) and April (17987+) 2019.
    let n = rows_per_month * 2;
    let days: Vec<i32> = (0..n)
        .map(|i| {
            if i < rows_per_month {
                17_956 + (i % 30) as i32
            } else {
                17_987 + (i % 30) as i32
            }
        })
        .collect();
    let batch = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("pickup_at", DataType::Date, false),
            Field::new("fare", DataType::Float64, false),
            Field::new("note", DataType::Utf8, true),
        ]),
        vec![
            Column::from_date(days),
            Column::from_f64((0..n).map(|i| (i % 100) as f64).collect()),
            Column::from_str_vec((0..n).map(|i| format!("trip-{i}")).collect()),
        ],
    )
    .unwrap();
    let spec = PartitionSpec::new(vec![PartitionField {
        source_column: "pickup_at".into(),
        transform: Transform::Month,
    }]);
    lh.create_table_partitioned("trips_raw", &batch, "main", spec)
        .unwrap();
}

#[test]
fn partition_pruning_reduces_bytes_read() {
    let lh = Lakehouse::in_memory(LakehouseConfig::default()).unwrap();
    monthly_table(&lh, 20_000);
    let metrics = lh.store_metrics();

    // Full scan baseline.
    metrics.reset();
    lh.query("SELECT COUNT(*) AS n FROM trips_raw", "main")
        .unwrap();
    let full_bytes = metrics.bytes_read();

    // April-only query: the March partition file must not be fetched.
    metrics.reset();
    let out = lh
        .query(
            "SELECT COUNT(*) AS n FROM trips_raw WHERE pickup_at >= DATE '2019-04-01'",
            "main",
        )
        .unwrap();
    let pruned_bytes = metrics.bytes_read();
    assert_eq!(out.row(0).unwrap()[0], Value::Int64(20_000));
    assert!(
        (pruned_bytes as f64) < full_bytes as f64 * 0.75,
        "partition pruning should cut bytes read: {pruned_bytes} vs {full_bytes}"
    );
}

#[test]
fn projection_pushdown_skips_wide_columns() {
    // These files (~350 KB) are shorter than the reader's merge distance, so
    // each travels in one request whatever is projected; what projection
    // saves on them is bytes *needed* (decoded, checksummed) — the scan's
    // own report.
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let lh = Lakehouse::with_store(Arc::clone(&store), LakehouseConfig::default()).unwrap();
    monthly_table(&lh, 10_000);
    let content = lh.catalog().get_content("main", "trips_raw").unwrap();
    let table = Table::load(store, &content.metadata_location).unwrap();
    let (_, all_columns) = table.scan().execute_with_report().unwrap();
    let (_, one_column) = table
        .scan()
        .select(&["fare"])
        .execute_with_report()
        .unwrap();
    // `note` strings dominate the file; reading only `fare` must be much
    // cheaper.
    assert!(
        one_column.bytes_scanned * 2 < all_columns.bytes_scanned,
        "projection pushdown should cut bytes: {} vs {}",
        one_column.bytes_scanned,
        all_columns.bytes_scanned
    );
    assert!(all_columns.bytes_scanned <= all_columns.bytes_total);
}

#[test]
fn projection_cuts_bytes_moved_when_chunks_outgrow_the_merge_distance() {
    // Three row groups whose `note` chunks are ~1.7 MB each: wider than the
    // 1 MiB under which the reader fetches through a gap. A one-column scan
    // then skips them at store level: one request per row group, and under
    // half the bytes of `SELECT *`.
    let lh = Lakehouse::in_memory(LakehouseConfig::default()).unwrap();
    let n = 3 * lh.config().row_group_rows;
    let batch = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("note", DataType::Utf8, false),
        ]),
        vec![
            Column::from_i64((0..n as i64).collect()),
            Column::from_str_vec((0..n).map(|i| format!("{i:0>200}")).collect()),
        ],
    )
    .unwrap();
    lh.create_table("wide", &batch, "main").unwrap();
    let metrics = lh.store_metrics();
    let run = |sql: &str| {
        metrics.reset();
        let out = lh.query(sql, "main").unwrap();
        assert_eq!(out.num_rows(), n);
        (metrics.gets(), metrics.bytes_read())
    };
    let (all_gets, all_bytes) = run("SELECT * FROM wide");
    let (id_gets, id_bytes) = run("SELECT id FROM wide");
    // The ref (this front wrote the table, so its metadata and manifest are
    // warm), then the data file: the first statement probes its tail, which
    // holds the footer, and the cache keeps the file opened from there.
    assert_eq!(all_gets, 1 + 2, "tail probe + one merged request");
    assert_eq!(id_gets, 1 + 3, "one request per row group");
    assert!(
        id_bytes * 2 < all_bytes,
        "projection should cut bytes moved: {id_bytes} vs {all_bytes}"
    );
}

#[test]
fn impossible_predicate_reads_no_data_chunks() {
    let lh = Lakehouse::in_memory(LakehouseConfig::default()).unwrap();
    monthly_table(&lh, 5_000);
    let metrics = lh.store_metrics();
    metrics.reset();
    let out = lh
        .query("SELECT * FROM trips_raw WHERE fare > 1000000.0", "main")
        .unwrap();
    assert_eq!(out.num_rows(), 0);
    // Metadata/manifest reads happen, but stats pruning avoids the data
    // files themselves — bytes read stay small.
    let bytes = metrics.bytes_read();
    assert!(
        bytes < 100_000,
        "file-stats pruning should skip data files; read {bytes} bytes"
    );
}

#[test]
fn exact_results_despite_aggressive_pruning() {
    // Pruning must be conservative-only: compare a pruned query against the
    // same predicate evaluated in memory.
    let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
    monthly_table(&lh, 3_000);
    let pruned = lh
        .query(
            "SELECT COUNT(*) AS n FROM trips_raw \
             WHERE pickup_at >= DATE '2019-04-01' AND fare < 50.0",
            "main",
        )
        .unwrap();
    let full = lh
        .query("SELECT pickup_at, fare FROM trips_raw", "main")
        .unwrap();
    let mut expected = 0i64;
    for row in 0..full.num_rows() {
        let r = full.row(row).unwrap();
        let (Value::Date(d), Value::Float64(f)) = (r[0].clone(), r[1].clone()) else {
            panic!()
        };
        if d >= 17_987 && f < 50.0 {
            expected += 1;
        }
    }
    assert_eq!(pruned.row(0).unwrap()[0], Value::Int64(expected));
}

#[test]
fn query_through_time_travel_also_prunes() {
    let lh = Lakehouse::in_memory(LakehouseConfig::default()).unwrap();
    monthly_table(&lh, 5_000);
    lh.create_tag("snapshot", "main").unwrap();
    let metrics = lh.store_metrics();
    metrics.reset();
    let out = lh
        .query(
            "SELECT COUNT(*) AS n FROM trips_raw WHERE pickup_at < DATE '2019-04-01'",
            "snapshot",
        )
        .unwrap();
    assert_eq!(out.row(0).unwrap()[0], Value::Int64(5_000));
}

const MICROS_PER_DAY: i64 = 86_400_000_000;

/// Rows `rows` of an integer, a string, a date, a timestamp and a float
/// column: repeats, negatives, NULLs, a year boundary and both zeros, so
/// each transform spreads them over several partitions.
fn mixed_rows(rows: std::ops::Range<usize>) -> RecordBatch {
    let words = ["ant", "apple", "bee", "berry", "cat", "cow", "dog"];
    let null_every = |i: usize, m: usize| !i.is_multiple_of(m);
    let ids = (rows.clone())
        .map(|i| null_every(i, 11).then_some((i * 7 % 45) as i64 - 5))
        .collect();
    let strs = rows.clone().map(|i| Some(words[i * 3 % 7])).collect();
    // 2018-12-25 (day 17 890) and every ninth day after it, into 2019.
    let days = rows
        .clone()
        .map(|i| 17_890 + (i * 13 % 40) as i32 * 9)
        .collect();
    let stamps = (rows.clone())
        .map(|i| {
            let day = 17_890 + (i * 11 % 30) as i64 * 13;
            null_every(i, 13).then_some(day * MICROS_PER_DAY + (i % 3) as i64 * 3_600_000_000)
        })
        .collect();
    let floats = rows.map(|i| [-0.0, 0.0, 1.5, 2.5][i % 4]).collect();
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("id", DataType::Int64, true),
            Field::new("s", DataType::Utf8, false),
            Field::new("d", DataType::Date, false),
            Field::new("ts", DataType::Timestamp, true),
            Field::new("f", DataType::Float64, false),
        ]),
        vec![
            Column::from_opt_i64(ids),
            Column::from_opt_str(strs),
            Column::from_date(days),
            Column::from_opt_timestamp(stamps),
            Column::from_f64(floats),
        ],
    )
    .unwrap()
}

/// The literals `column` is compared with: below its least value, at it,
/// inside its range (present and absent), at its greatest and above — of
/// the column's own type and of a type the kernel compares it with.
fn literals(batch: &RecordBatch, column: &str) -> Vec<Value> {
    let col = batch.column_by_name(column).unwrap();
    match col.data_type() {
        DataType::Utf8 => {
            let words = ["a", "ant", "b", "bee", "bf", "dog", "e"];
            return words.map(|s| Value::Utf8(s.into())).to_vec();
        }
        DataType::Float64 => {
            let floats = [-0.0, 0.0, 1.5, 2.0, 2.5, 3.0].map(Value::Float64);
            return floats.into_iter().chain([0, 2].map(Value::Int64)).collect();
        }
        _ => {}
    }
    let mut values: Vec<i64> = (col.iter_values())
        .filter_map(|v| match v {
            Value::Int64(x) | Value::Timestamp(x) => Some(x),
            Value::Date(x) => Some(x as i64),
            _ => None,
        })
        .collect();
    values.sort_unstable();
    values.dedup();
    let (least, greatest) = (values[0], values[values.len() - 1]);
    let middle = values[values.len() / 2];
    let points = [least - 1, least, middle, middle + 1, greatest, greatest + 1];
    match col.data_type() {
        DataType::Int64 => (points.iter().map(|&x| Value::Int64(x)))
            .chain([-5.5, 5.0, 27.5, 39.0, 100.0].map(Value::Float64))
            .collect(),
        DataType::Date => (points.iter().map(|&x| Value::Date(x as i32)))
            .chain([Value::Date(18_001)])
            .collect(),
        _ => (points.iter().map(|&x| Value::Timestamp(x)))
            .chain(points.iter().map(|&x| Value::Int64(x)))
            .collect(),
    }
}

/// `literal` as SQL, when SQL can write it.
fn sql_literal(literal: &Value) -> Option<String> {
    Some(match literal {
        Value::Int64(x) => x.to_string(),
        Value::Float64(x) => format!("{x:?}"),
        Value::Utf8(s) => format!("'{s}'"),
        Value::Date(d) => {
            let (y, m, day) = lakehouse_columnar::datatype::civil_from_days(*d as i64);
            format!("DATE '{y:04}-{m:02}-{day:02}'")
        }
        _ => return None,
    })
}

#[test]
fn partitioned_tables_answer_as_their_unpartitioned_twins() {
    use lakehouse_columnar::kernels::CmpOp;
    use lakehouse_table::ScanPredicate;
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let lh = Lakehouse::with_store(Arc::clone(&store), LakehouseConfig::default()).unwrap();
    let (first, second) = (mixed_rows(0..60), mixed_rows(60..120));
    // Two commits each, so the second root names the first manifest by its
    // partition ranges.
    let create = |name: &str, spec: PartitionSpec| {
        lh.create_table_partitioned(name, &first, "main", spec)
            .unwrap();
        lh.append_table(name, &second, "main").unwrap();
        let content = lh.catalog().get_content("main", name).unwrap();
        Table::load(Arc::clone(&store), &content.metadata_location).unwrap()
    };
    let twin = create("twin", PartitionSpec::unpartitioned());
    let all = RecordBatch::concat(&[first.clone(), second.clone()]).unwrap();
    let ops = [
        CmpOp::Eq,
        CmpOp::NotEq,
        CmpOp::Lt,
        CmpOp::LtEq,
        CmpOp::Gt,
        CmpOp::GtEq,
    ];
    let temporal = [Transform::Year, Transform::Month, Transform::Day];
    let cases = [
        ("id", vec![Transform::Bucket(4), Transform::Truncate(10)]),
        ("s", vec![Transform::Bucket(4), Transform::Truncate(2)]),
        (
            "d",
            [Transform::Bucket(4)].into_iter().chain(temporal).collect(),
        ),
        (
            "ts",
            [Transform::Bucket(4)].into_iter().chain(temporal).collect(),
        ),
        ("f", vec![Transform::Bucket(4)]),
    ];
    for (k, (column, transforms)) in cases.into_iter().enumerate() {
        for (t, transform) in [Transform::Identity]
            .into_iter()
            .chain(transforms)
            .enumerate()
        {
            let name = format!("p{k}_{t}");
            let spec = PartitionSpec::new(vec![PartitionField {
                source_column: column.into(),
                transform,
            }]);
            let table = create(&name, spec);
            for literal in literals(&all, column) {
                for op in ops {
                    let case = format!("{transform:?}({column}) {} {literal:?}", op.symbol());
                    let predicate = ScanPredicate::new(column, op, literal.clone());
                    let scan = |t: &Table| {
                        let scan = t.scan().with_predicate(predicate.clone());
                        scan.select(&[column]).execute_with_report().unwrap()
                    };
                    let ((want, _), (got, report)) = (scan(&twin), scan(&table));
                    assert_eq!(got.num_rows(), want.num_rows(), "{case}");
                    if let Some(sql) = sql_literal(&literal) {
                        let count = |table: &str| {
                            let sql = format!(
                                "SELECT COUNT(*) AS n FROM {table} WHERE {column} {} {sql}",
                                op.symbol()
                            );
                            lh.query(&sql, "main").unwrap().row(0).unwrap()[0].clone()
                        };
                        assert_eq!(count(&name), count("twin"), "{case} in SQL");
                    }
                    let own_type = literal.data_type() == Some(got.column(0).data_type());
                    if op == CmpOp::Eq && own_type && want.num_rows() > 0 {
                        assert!(
                            report.files_scanned < report.files_total,
                            "{case}: no pruning"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn a_spec_its_source_type_cannot_take_is_rejected_at_create() {
    let lh = Lakehouse::in_memory(LakehouseConfig::default()).unwrap();
    let empty = mixed_rows(0..0);
    let field = |source: &str, transform| {
        PartitionSpec::new(vec![PartitionField {
            source_column: source.into(),
            transform,
        }])
    };
    for (i, spec) in [
        field("id", Transform::Year),
        field("s", Transform::Month),
        field("d", Transform::Truncate(3)),
        field("ts", Transform::Truncate(3)),
        field("id", Transform::Bucket(0)),
        field("s", Transform::Truncate(0)),
    ]
    .into_iter()
    .enumerate()
    {
        let err = (lh.create_table_partitioned(&format!("bad{i}"), &empty, "main", spec.clone()))
            .unwrap_err();
        let typed = err.find::<lakehouse_table::TableError>();
        assert!(
            matches!(typed, Some(lakehouse_table::TableError::InvalidArgument(_))),
            "{spec:?}: {err}"
        );
    }
    // What each transform does take.
    for (i, spec) in [
        field("ts", Transform::Year),
        field("d", Transform::Day),
        field("id", Transform::Truncate(3)),
        field("s", Transform::Truncate(3)),
        field("d", Transform::Bucket(2)),
    ]
    .into_iter()
    .enumerate()
    {
        (lh.create_table_partitioned(&format!("good{i}"), &empty, "main", spec)).unwrap();
    }
}
