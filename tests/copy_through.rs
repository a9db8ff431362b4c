//! Copy-through artifacts (DESIGN.md §34): a pipeline step whose output is
//! exactly the decode of chunks its scan read — a bare projection, renames
//! included, of files whose residual is empty, with no row budget — writes
//! its artifact as those chunks instead of encoding the values again.
//!
//! Every artifact must read back as its re-encoded twin would: the same
//! rows, the same manifest `column_stats` and row counts. A step whose
//! values are anything else — rows a filter dropped, a LIMIT, a cast or
//! computed column, a column NULL-filled for an evolved schema or answered
//! from the manifest — encodes them. A file scanned with some row groups
//! pruned carries only the groups it decoded.

use bauplan_core::{builtins, Lakehouse, LakehouseConfig, NodeDef, PipelineProject, RunOptions};
use lakehouse_catalog::{ContentRef, Operation};
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use lakehouse_format::WriterOptions;
use lakehouse_store::{InMemoryStore, ObjectPath, ObjectStore};
use lakehouse_table::{
    Manifest, ManifestEntry, PartitionField, PartitionSpec, ScanPredicate, SnapshotOperation,
    Table, TableIo, Transform,
};
use lakehouse_workload::TaxiGenerator;
use std::sync::Arc;

/// A front over an in-memory store, and the store.
fn front() -> (Lakehouse, Arc<dyn ObjectStore>) {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let lh = Lakehouse::with_store(Arc::clone(&store), LakehouseConfig::zero_latency()).unwrap();
    (lh, store)
}

/// `taxi_table`, one file per pickup day over March and April 2019.
fn taxi_front() -> (Lakehouse, Arc<dyn ObjectStore>) {
    let (lh, store) = front();
    let taxi = TaxiGenerator {
        seed: 13,
        start_day: 17_956,
        days: 61,
        ..Default::default()
    }
    .generate(60_000);
    let day = PartitionField {
        source_column: "pickup_at".into(),
        transform: Transform::Day,
    };
    lh.create_table_partitioned("taxi_table", &taxi, "main", PartitionSpec::new(vec![day]))
        .unwrap();
    (lh, store)
}

/// Table `name` at `main` as its current version.
fn table(lh: &Lakehouse, store: &Arc<dyn ObjectStore>, name: &str) -> Table {
    let content = lh.catalog().get_content("main", name).unwrap();
    Table::load(Arc::clone(store), &content.metadata_location).unwrap()
}

/// The data files `table`'s current snapshot lists (its root manifest: a
/// table written by one commit has no refs).
fn entries(table: &Table) -> Vec<ManifestEntry> {
    let path = &table.metadata().current_snapshot().unwrap().manifest_path;
    let bytes = table.store().get(&ObjectPath::new(path.clone()).unwrap());
    let manifest = Manifest::from_bytes(&bytes.unwrap()).unwrap();
    assert!(manifest.refs.is_empty());
    manifest.entries
}

/// Run `sql` as the one node `name` of a pipeline, and return the row
/// groups its artifact copied and encoded.
fn run_node(lh: &Lakehouse, name: &str, sql: &str) -> (u64, u64) {
    let project = PipelineProject::new("copy").with(NodeDef::sql(name, sql));
    let report = lh.run(&project, &RunOptions::default()).unwrap();
    assert!(report.success);
    groups(&report.trace, name)
}

/// `groups_copied` and `groups_encoded` of artifact `name`'s span.
fn groups(tree: &lakehouse_obs::SpanTree, name: &str) -> (u64, u64) {
    let spans = tree.find_all("artifact");
    let span = (spans.iter())
        .find(|s| s.attr_str("name") == Some(name))
        .unwrap_or_else(|| panic!("no artifact span for {name}: {}", tree.render()));
    let attr = |key: &str| span.attr_u64(key).expect("artifact attribute");
    (attr("groups_copied"), attr("groups_encoded"))
}

/// Artifact `name` reads back as `want`, and as its twin: the same rows
/// written by the encoder into a table of their own, with the same
/// manifest row counts and `column_stats`.
fn reads_back_as_its_twin(
    lh: &Lakehouse,
    store: &Arc<dyn ObjectStore>,
    name: &str,
    want: &RecordBatch,
) {
    let artifact = table(lh, store, name);
    let rows = artifact.scan().execute().unwrap();
    assert_eq!(&rows, want, "{name}");
    let twin = Table::create(
        Arc::clone(store),
        &format!("twins/{name}"),
        rows.schema(),
        PartitionSpec::unpartitioned(),
    )
    .unwrap();
    let mut tx = twin.new_transaction(SnapshotOperation::Append);
    tx.write(&rows).unwrap();
    let twin = tx.commit_table().unwrap();
    assert_eq!(twin.scan().execute().unwrap(), rows, "{name}");
    let (got, twin) = (entries(&artifact), entries(&twin));
    assert_eq!(got.len(), twin.len(), "{name}");
    for (got, twin) in got.iter().zip(&twin) {
        assert_eq!(got.row_count, twin.row_count, "{name}");
        assert_eq!(got.column_stats, twin.column_stats, "{name}");
    }
}

const TRIPS: &str = "SELECT pickup_location_id, passenger_count as count, dropoff_location_id \
     FROM taxi_table WHERE pickup_at >= DATE '2019-04-01'";

#[test]
fn every_artifact_of_a_warm_run_reads_back_as_its_re_encoded_twin() {
    let (lh, store) = taxi_front();
    lh.register_function(
        "trips_expectation_impl",
        builtins::mean_greater_than("trips", "count", 1.0),
    );
    let project = PipelineProject::taxi_example();
    lh.run(&project, &RunOptions::default()).unwrap();
    let warm = lh.run(&project, &RunOptions::default()).unwrap();
    assert!(warm.success);
    let (copied, encoded) = groups(&warm.trace, "trips");
    assert!(
        copied >= 30 && encoded == 0,
        "{copied} copied, {encoded} encoded"
    );
    assert_eq!(groups(&warm.trace, "pickups").0, 0);

    let trips = lh.query(TRIPS, "main").unwrap();
    reads_back_as_its_twin(&lh, &store, "trips", &trips);
    // The copied file keeps its sources' groups: one or more per April
    // day-file, where the encoder cuts 8 192-row groups.
    let file = &entries(&table(&lh, &store, "trips"))[0];
    let bytes = store.get(&ObjectPath::new(file.file_path.clone()).unwrap());
    let reader = lakehouse_format::RangedReader::parse(bytes.unwrap()).unwrap();
    assert_eq!(reader.num_row_groups() as u64, copied);
    assert!(copied > (trips.num_rows() as u64).div_ceil(8_192));

    let pickups = lh
        .query(
            "SELECT pickup_location_id, dropoff_location_id, COUNT(*) AS counts FROM trips \
             GROUP BY pickup_location_id, dropoff_location_id ORDER BY counts DESC",
            "main",
        )
        .unwrap();
    reads_back_as_its_twin(&lh, &store, "pickups", &pickups);
}

/// Each step computes something of its rows, or reads them under a row
/// budget: none of its values is a chunk's whole decode, so its artifact is
/// encoded — and reads back as the statement's answer.
#[test]
fn a_step_that_filters_limits_casts_or_computes_encodes_its_artifact() {
    let (lh, store) = taxi_front();
    let cases = [
        // A pushed predicate no file's stats prove: each file's residual.
        (
            "pushed_filter",
            "SELECT pickup_location_id, passenger_count AS count FROM taxi_table WHERE fare > 30",
        ),
        // A filter the scan cannot apply: the executor drops rows.
        (
            "executor_filter",
            "SELECT pickup_location_id, passenger_count AS count FROM taxi_table \
             WHERE passenger_count > 1 OR pickup_location_id < 20",
        ),
        // A LIMIT that cuts a file, and one larger than the table.
        (
            "limit",
            "SELECT pickup_location_id, dropoff_location_id FROM taxi_table LIMIT 100",
        ),
        (
            "loose_limit",
            "SELECT pickup_location_id, dropoff_location_id FROM taxi_table LIMIT 1000000",
        ),
        (
            "computed",
            "SELECT pickup_location_id + 0 AS pickup, dropoff_location_id FROM taxi_table",
        ),
        (
            "cast",
            "SELECT CAST(pickup_location_id AS DOUBLE) AS pickup, dropoff_location_id \
             FROM taxi_table",
        ),
    ];
    for (name, sql) in cases {
        let (copied, encoded) = run_node(&lh, name, sql);
        assert_eq!((copied, encoded > 0), (0, true), "{name}");
        reads_back_as_its_twin(&lh, &store, name, &lh.query(sql, "main").unwrap());
    }
    // The same files read bare are copied.
    let sql = "SELECT pickup_location_id, dropoff_location_id AS dropoff FROM taxi_table";
    let (copied, encoded) = run_node(&lh, "bare", sql);
    assert_eq!((copied >= 61, encoded), (true, 0));
    reads_back_as_its_twin(&lh, &store, "bare", &lh.query(sql, "main").unwrap());
}

/// `t(k, x)`: 20 000 rows in one file of three groups, `k` = 7 on every
/// row, `x` = 0, 1, 2, …
fn constant_k() -> RecordBatch {
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("x", DataType::Int64, false),
        ]),
        vec![
            Column::from_i64(vec![7; 20_000]),
            Column::from_i64((0..20_000).collect()),
        ],
    )
    .unwrap()
}

#[test]
fn a_column_answered_from_the_manifest_is_encoded() {
    let (lh, store) = front();
    lh.create_table("t", &constant_k(), "main").unwrap();
    // `k` is built from the file's stats, `x` decoded.
    let sql = "SELECT k, x FROM t";
    assert_eq!(run_node(&lh, "with_k", sql).0, 0);
    let want = lh.query(sql, "main").unwrap();
    assert_eq!(want.columns(), constant_k().columns());
    reads_back_as_its_twin(&lh, &store, "with_k", &want);
    // Without `k`, the file's chunks are the artifact.
    let sql = "SELECT x FROM t";
    assert_eq!(run_node(&lh, "only_x", sql), (3, 0));
    reads_back_as_its_twin(&lh, &store, "only_x", &lh.query(sql, "main").unwrap());
}

#[test]
fn a_column_null_filled_for_an_evolved_schema_is_encoded() {
    let (lh, store) = front();
    lh.create_table("t", &constant_k(), "main").unwrap();
    let content = lh.catalog().get_content("main", "t").unwrap();
    let evolved = Table::load(Arc::clone(&store), &content.metadata_location)
        .unwrap()
        .add_columns(&[Field::new("extra", DataType::Int64, true)])
        .unwrap();
    let put = Operation::Put {
        key: "t".into(),
        content: ContentRef::new(
            evolved.metadata_location(),
            evolved.metadata().current_snapshot_id.unwrap_or(0),
        ),
    };
    lh.catalog()
        .commit("main", "test", "add extra", vec![put])
        .unwrap();
    let sql = "SELECT x, extra FROM t";
    assert_eq!(run_node(&lh, "evolved", sql).0, 0);
    let want = lh.query(sql, "main").unwrap();
    let null = Column::new_null(DataType::Int64, 20_000);
    assert_eq!(want.columns(), [constant_k().column(1).clone(), null]);
    reads_back_as_its_twin(&lh, &store, "evolved", &want);
}

/// A scan of `a` whose predicate on `b` — a column it does not return —
/// prunes the middle of a file's three row groups: the batch is the decode
/// of the other two, and a writer copies just those.
#[test]
fn a_file_with_pruned_row_groups_copies_only_the_groups_it_decoded() {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64, false),
        Field::new("b", DataType::Int64, false),
    ]);
    let io = TableIo {
        writer_options: WriterOptions {
            row_group_rows: 100,
        },
        ..TableIo::default()
    };
    let create = |location: &str| {
        let spec = PartitionSpec::unpartitioned();
        Table::create_with(Arc::clone(&store), location, &schema, spec, io.clone()).unwrap()
    };
    // `b` is 0 in groups 0 and 2 and 1 in group 1.
    let b: Vec<i64> = (0..300)
        .map(|i| i64::from((100..200).contains(&i)))
        .collect();
    let rows = RecordBatch::try_new(
        schema.clone(),
        vec![Column::from_i64((0..300).collect()), Column::from_i64(b)],
    )
    .unwrap();
    let mut tx = create("src").new_transaction(SnapshotOperation::Append);
    tx.write(&rows).unwrap();
    let source = tx.commit_table().unwrap();

    let scan = (source.scan().keeping_chunks().select(&["a"])).with_predicate(ScanPredicate::new(
        "b",
        CmpOp::Eq,
        Value::Int64(0),
    ));
    let (a_schema, batches, report) = scan.execute_batches().unwrap();
    assert_eq!(report.row_groups_scanned, 2);
    let a = |range: std::ops::Range<i64>| Column::from_i64(range.collect());
    let want = RecordBatch::try_new(
        a_schema.clone(),
        vec![Column::concat(&[a(0..100), a(200..300)]).unwrap()],
    )
    .unwrap();
    assert_eq!(batches, vec![want.clone()]);

    let out = Table::create_with(
        Arc::clone(&store),
        "out",
        &a_schema,
        PartitionSpec::unpartitioned(),
        io.clone(),
    )
    .unwrap();
    let mut tx = out.new_transaction(SnapshotOperation::Append);
    let written = tx.write_batches(&batches).unwrap();
    assert_eq!((written.groups_copied, written.groups_encoded), (2, 0));
    let out = tx.commit_table().unwrap();
    assert_eq!(out.scan().execute().unwrap(), want);
    // The copied chunks are the source's: the same stats, the same rows.
    let (got, src) = (&entries(&out)[0], &entries(&source)[0]);
    assert_eq!(got.row_count, 200);
    assert_eq!(
        got.column_stats["a"].null_count,
        src.column_stats["a"].null_count
    );
}
