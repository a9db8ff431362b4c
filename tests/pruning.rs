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
    // then skips them at store level: the tail probe plus one request per
    // row group, and under half the bytes of `SELECT *`.
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
    // warm), then the data file.
    assert_eq!(all_gets, 1 + 2, "tail probe + one merged request");
    assert_eq!(id_gets, 1 + 1 + 3, "tail probe + one request per row group");
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
