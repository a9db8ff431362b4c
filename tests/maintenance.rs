//! Platform-level table maintenance: compaction and snapshot expiration
//! through the catalog, with time travel preserved where it should be.
//! Compaction rewrites only the partitions that hold more than one file, and
//! expiry keeps every manifest a retained snapshot still names.

use bauplan_core::{Lakehouse, LakehouseConfig, NodeDef, PipelineProject, RunOptions};
use bytes::Bytes;
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use lakehouse_format::{RangedReader, WriterOptions};
use lakehouse_obs::Trace;
use lakehouse_store::{InMemoryStore, ObjectPath, ObjectStore, StoreMetrics};
use lakehouse_table::schema_def::ValueDef;
use lakehouse_table::{
    Manifest, PartitionField, PartitionSpec, ScanPredicate, SnapshotOperation, Table, TableIo,
    Transform,
};
use lakehouse_workload::TaxiGenerator;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn batch(vals: Vec<i64>) -> RecordBatch {
    RecordBatch::try_new(
        Schema::new(vec![Field::new("x", DataType::Int64, false)]),
        vec![Column::from_i64(vals)],
    )
    .unwrap()
}

fn lakehouse_with_fragmented_table() -> Lakehouse {
    let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
    lh.create_table("events", &batch(vec![1, 2]), "main")
        .unwrap();
    for i in 0..5 {
        lh.append_table("events", &batch(vec![10 + i, 20 + i]), "main")
            .unwrap();
    }
    lh
}

#[test]
fn compaction_preserves_data_and_queries() {
    let lh = lakehouse_with_fragmented_table();
    let before = lh
        .query("SELECT COUNT(*) AS n, SUM(x) AS s FROM events", "main")
        .unwrap();
    let report = lh.compact_table("events", "main").unwrap();
    assert_eq!(report.files_compacted, 6);
    assert_eq!(report.files_written, 1);
    let after = lh
        .query("SELECT COUNT(*) AS n, SUM(x) AS s FROM events", "main")
        .unwrap();
    assert_eq!(before, after);
    // The compaction is a commit in the audit log.
    let log = lh.log("main", 5).unwrap();
    assert!(log[0].1.message.contains("compact"));
}

#[test]
fn compaction_reduces_scan_ops() {
    let lh = lakehouse_with_fragmented_table();
    let metrics = lh.store_metrics();
    metrics.reset();
    lh.query("SELECT SUM(x) AS s FROM events", "main").unwrap();
    let gets_before = metrics.gets();
    lh.compact_table("events", "main").unwrap();
    metrics.reset();
    lh.query("SELECT SUM(x) AS s FROM events", "main").unwrap();
    let gets_after = metrics.gets();
    assert!(
        gets_after < gets_before,
        "compaction should reduce per-query GETs: {gets_after} vs {gets_before}"
    );
}

#[test]
fn compaction_is_branch_scoped() {
    let lh = lakehouse_with_fragmented_table();
    lh.create_branch("feat", Some("main")).unwrap();
    lh.compact_table("events", "feat").unwrap();
    // Branch sees compacted table; main still fragmented but identical data.
    let feat = lh.query("SELECT SUM(x) AS s FROM events", "feat").unwrap();
    let main = lh.query("SELECT SUM(x) AS s FROM events", "main").unwrap();
    assert_eq!(feat.row(0).unwrap(), main.row(0).unwrap());
}

#[test]
fn expiration_after_compaction_frees_files_but_keeps_current() {
    let lh = lakehouse_with_fragmented_table();
    lh.compact_table("events", "main").unwrap();
    let report = lh.expire_table_snapshots("events", "main", 1).unwrap();
    assert!(report.snapshots_expired >= 5);
    assert!(report.data_files_deleted >= 5);
    let out = lh
        .query("SELECT COUNT(*) AS n FROM events", "main")
        .unwrap();
    assert_eq!(out.row(0).unwrap()[0], Value::Int64(12));
}

#[test]
fn compact_noop_on_single_file_table() {
    let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
    lh.create_table("tiny", &batch(vec![1]), "main").unwrap();
    let report = lh.compact_table("tiny", "main").unwrap();
    assert_eq!(report.files_compacted, 0);
    // No commit written for a no-op.
    let log = lh.log("main", 5).unwrap();
    assert!(!log[0].1.message.contains("compact"));
}

/// An in-memory store that counts reads of data files.
#[derive(Default)]
struct DataReads {
    inner: InMemoryStore,
    data_gets: AtomicUsize,
}

impl DataReads {
    fn count(&self, path: &ObjectPath) {
        if path.as_str().contains("/data/") {
            self.data_gets.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl ObjectStore for DataReads {
    fn put(&self, path: &ObjectPath, data: Bytes) -> lakehouse_store::Result<()> {
        self.inner.put(path, data)
    }
    fn get(&self, path: &ObjectPath) -> lakehouse_store::Result<Bytes> {
        self.count(path);
        self.inner.get(path)
    }
    fn get_range(&self, path: &ObjectPath, s: usize, e: usize) -> lakehouse_store::Result<Bytes> {
        self.count(path);
        self.inner.get_range(path, s, e)
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

fn by_day(column: &str) -> PartitionSpec {
    PartitionSpec::new(vec![PartitionField {
        source_column: column.into(),
        transform: Transform::Day,
    }])
}

/// `rows` rows on each of `days`, `x` numbering them from `first`.
fn days_batch(days: &[i32], rows: usize, first: i64) -> RecordBatch {
    let n = days.len() * rows;
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("day", DataType::Date, false),
            Field::new("x", DataType::Int64, false),
        ]),
        vec![
            Column::from_date(
                days.iter()
                    .flat_map(|&d| std::iter::repeat_n(d, rows))
                    .collect(),
            ),
            Column::from_i64((first..first + n as i64).collect()),
        ],
    )
    .unwrap()
}

/// The current root manifest of `events` at `main`.
fn root_manifest(lh: &Lakehouse, store: &Arc<dyn ObjectStore>) -> Manifest {
    let content = lh.catalog().get_content("main", "events").unwrap();
    let table = Table::load(Arc::clone(store), &content.metadata_location).unwrap();
    let path = &table.metadata().current_snapshot().unwrap().manifest_path;
    let bytes = store.get(&ObjectPath::new(path.clone()).unwrap()).unwrap();
    Manifest::from_bytes(&bytes).unwrap()
}

#[test]
fn compaction_rewrites_only_fragmented_partitions() {
    let store = Arc::new(DataReads::default());
    let backend = Arc::clone(&store) as Arc<dyn ObjectStore>;
    let lh = Lakehouse::with_store(Arc::clone(&backend), LakehouseConfig::zero_latency()).unwrap();
    let days: Vec<i32> = (17_956..17_963).collect();
    lh.create_table_partitioned("events", &days_batch(&days, 3, 0), "main", by_day("day"))
        .unwrap();
    lh.append_table("events", &days_batch(&days, 2, 100), "main")
        .unwrap();
    let first = lh.compact_table("events", "main").unwrap();
    assert_eq!((first.files_compacted, first.files_written), (14, 7));
    let compacted = root_manifest(&lh, &backend);
    assert!(compacted.refs.is_empty());

    // Two of the seven days get a second file.
    let (d2, d5) = (days[2], days[5]);
    lh.append_table("events", &days_batch(&[d2, d5], 4, 1_000), "main")
        .unwrap();
    // A stable sort by day keeps ties in file order: this compares the
    // order of rows within each partition too. Read through another front,
    // so that no file the compaction reads is in `lh`'s cache.
    const ALL: &str = "SELECT * FROM events ORDER BY day";
    let reader =
        Lakehouse::with_store(Arc::clone(&backend), LakehouseConfig::zero_latency()).unwrap();
    let before = reader.query(ALL, "main").unwrap();
    let reads0 = store.data_gets.load(Ordering::SeqCst);
    let report = lh.compact_table("events", "main").unwrap();
    let reads = store.data_gets.load(Ordering::SeqCst) - reads0;
    assert_eq!(report.files_compacted, 4, "two partitions of two files");
    assert_eq!(report.files_written, 2);
    assert_eq!(report.rows_rewritten, 2 * (5 + 4));
    assert_eq!(reads, 4, "only the rewritten partitions' files are read");
    assert_eq!(lh.query(ALL, "main").unwrap(), before);

    // The other five entries are carried as they were, in place; each
    // rewritten partition's file is where its first file was.
    let after = root_manifest(&lh, &backend);
    assert!(after.refs.is_empty());
    assert_eq!(after.entries.len(), 7);
    for (old, new) in compacted.entries.iter().zip(&after.entries) {
        assert_eq!(old.partition, new.partition);
        if [d2, d5]
            .iter()
            .any(|&d| old.partition == [ValueDef::Int(d as i64)])
        {
            assert_ne!(old.file_path, new.file_path);
            assert_eq!(new.row_count, old.row_count + 4);
        } else {
            assert_eq!(old, new);
        }
    }
}

#[test]
fn expiry_keeps_every_manifest_a_retained_snapshot_names() {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let days: Vec<i32> = (17_956..17_960).collect();
    let mut table = Table::create(
        Arc::clone(&store),
        "wh/events",
        days_batch(&days, 1, 0).schema(),
        by_day("day"),
    )
    .unwrap();
    let append = |table: &Table, batch: &RecordBatch| {
        let mut tx = table.new_transaction(SnapshotOperation::Append);
        tx.write(batch).unwrap();
        let (location, _) = tx.commit().unwrap();
        Table::load(Arc::clone(&store), &location).unwrap()
    };
    for k in 0..4 {
        table = append(&table, &days_batch(&days, 2, 10 * k));
    }
    let (compacted, report) = table.compact().unwrap();
    assert_eq!((report.files_compacted, report.files_written), (16, 4));
    table = compacted;
    for (k, day) in days.iter().enumerate() {
        table = append(&table, &days_batch(&[*day], 3, 100 + 10 * k as i64));
    }
    // Retained: the last three appends, each naming the compaction's root
    // (whose snapshot expires) and the appends before it as refs.
    let (table, report) = table.expire_snapshots(3).unwrap();
    assert_eq!(report.snapshots_expired, 6);
    assert_eq!(report.manifests_deleted, 4, "the first four appends' roots");
    assert_eq!(report.data_files_deleted, 16);
    let retained = &table.metadata().snapshots;
    assert_eq!(retained.len(), 3);
    for (k, snapshot) in retained.iter().enumerate() {
        let id = snapshot.snapshot_id;
        let scan = table.scan().at_snapshot(id).execute();
        let rows = scan
            .unwrap_or_else(|e| panic!("snapshot {id}: {e}"))
            .num_rows();
        assert_eq!(rows as u64, snapshot.total_rows);
        assert_eq!(rows, 4 * 4 * 2 + 3 * (k + 2));
    }
}

/// Three days of generated trips, about `per_day` rows on each.
fn trips(seed: u64, per_day: usize) -> RecordBatch {
    TaxiGenerator {
        seed,
        days: 3,
        ..Default::default()
    }
    .generate(3 * per_day)
}

/// The data files, by name, sorted, that a create of about 6 000 rows a day
/// → append → compact → append → compact writes. After the first
/// compaction each day's file is one full row group and a tail, so the
/// second compaction has a group to copy. A name ends in a token of the
/// file's bytes.
fn twice_compacted(store: &Arc<dyn ObjectStore>) -> Vec<String> {
    let lh = Lakehouse::with_store(Arc::clone(store), LakehouseConfig::zero_latency()).unwrap();
    lh.create_table_partitioned("taxi", &trips(1, 6_000), "main", by_day("pickup_at"))
        .unwrap();
    lh.append_table("taxi", &trips(2, 3_000), "main").unwrap();
    let first = lh.compact_table("taxi", "main").unwrap();
    assert_eq!((first.files_compacted, first.files_written), (6, 3));
    assert_eq!(first.rows_rewritten, 27_000);
    lh.append_table("taxi", &trips(3, 1_000), "main").unwrap();
    let second = lh.compact_table("taxi", "main").unwrap();
    assert_eq!((second.files_compacted, second.files_written), (6, 3));
    assert_eq!(second.rows_rewritten, 30_000);
    let mut files: Vec<String> = (store.list("").unwrap().iter())
        .filter_map(|p| {
            p.as_str()
                .split_once("/data/")
                .map(|(_, name)| name.to_string())
        })
        .collect();
    files.sort();
    files
}

/// Computed by a compaction that decoded every file it rewrote: snapshot
/// 1 is the create, 2 the first append, 3 the first compaction, 4 the
/// second append and 5 the second compaction. The data has no string
/// column: a copied chunk keeps its own dictionary, which a rewrite can
/// order differently (DESIGN.md §25).
const TWICE_COMPACTED: [&str; 15] = [
    "snap1-00000-4d4626099fec31c2.lkh",
    "snap1-00001-2260942d2748f481.lkh",
    "snap1-00002-fe80e08dcd66cb17.lkh",
    "snap2-00000-d7dd5726d3414e54.lkh",
    "snap2-00001-c75980d3af791ea4.lkh",
    "snap2-00002-5bde61e5c840156c.lkh",
    "snap3-00000-b39ac4335b0cf23d.lkh",
    "snap3-00001-f568ad7658a91fcb.lkh",
    "snap3-00002-23433d15fd96278f.lkh",
    "snap4-00000-0ff118cb1a9fc484.lkh",
    "snap4-00001-121121176a235e2f.lkh",
    "snap4-00002-8abf4b9f7d32bca2.lkh",
    "snap5-00000-1f445cf9580486ff.lkh",
    "snap5-00001-7abd33b6fed01415.lkh",
    "snap5-00002-6a5610a26060b9dc.lkh",
];

#[test]
fn a_compaction_that_copies_row_groups_writes_the_files_a_rewrite_writes() {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let trace = Trace::start_forced("test");
    let files = twice_compacted(&store);
    let tree = trace.finish();
    assert_eq!(files, TWICE_COMPACTED);
    // The first compaction had nothing to copy: every day's first file was
    // one partial group. The second copied each day's full group.
    let compactions = tree.find_all("compact");
    let copied =
        |attr: &str| -> Vec<Option<u64>> { compactions.iter().map(|s| s.attr_u64(attr)).collect() };
    assert_eq!(copied("groups_copied"), [Some(0), Some(3)]);
    assert_eq!(copied("rows_copied"), [Some(0), Some(3 * 8_192)]);
    assert_eq!(copied("rows_rewritten"), [Some(27_000), Some(30_000)]);
    // Each day's file of the second compaction: the copied group, then
    // the tail the writer cut.
    let paths = store.list("").unwrap();
    for path in paths.iter().filter(|p| p.as_str().contains("/data/snap5-")) {
        let reader = RangedReader::parse(store.get(path).unwrap()).unwrap();
        assert_eq!(reader.num_row_groups(), 2, "{path:?}");
        assert_eq!(reader.row_group_meta(0).row_count, 8_192, "{path:?}");
    }
}

#[test]
fn an_evolved_partition_compacts_through_decode_and_scans_the_same() {
    // Four-row groups: the first two files of each day hold full groups,
    // but under a schema that is no longer the table's.
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let table_io = || TableIo {
        writer_options: WriterOptions { row_group_rows: 4 },
        ..TableIo::default()
    };
    let days = [17_956, 17_957];
    let schema = days_batch(&days, 1, 0).schema().clone();
    let table = Table::create_with(
        Arc::clone(&store),
        "wh/events",
        &schema,
        by_day("day"),
        table_io(),
    )
    .unwrap();
    let append = |table: &Table, batch: &RecordBatch| {
        let mut tx = table.new_transaction(SnapshotOperation::Append);
        tx.write(batch).unwrap();
        let (location, _) = tx.commit().unwrap();
        Table::load_with(Arc::clone(&store), &location, table_io()).unwrap()
    };
    let table = append(&table, &days_batch(&days, 8, 0));
    let table = append(&table, &days_batch(&days, 5, 100));
    let table = table
        .add_columns(&[Field::new("note", DataType::Utf8, true)])
        .unwrap()
        .rename_column("x", "y")
        .unwrap();
    let evolved = RecordBatch::try_new(
        table.schema().unwrap(),
        vec![
            Column::from_date(vec![days[0]; 3]),
            Column::from_i64(vec![200, 201, 202]),
            Column::from_opt_str(vec![Some("a"), None, Some("b")]),
        ],
    )
    .unwrap();
    let table = append(&table, &evolved);
    // Each day's rows in file order: what one day's file must hold after.
    let day = |t: &Table, d: i32| {
        let on_day = ScanPredicate::new("day", CmpOp::Eq, Value::Date(d));
        t.scan().with_predicate(on_day).execute().unwrap()
    };
    let before = days.map(|d| day(&table, d));
    let trace = Trace::start_forced("test");
    let (compacted, report) = table.compact().unwrap();
    let tree = trace.finish();
    assert_eq!((report.files_compacted, report.files_written), (5, 2));
    assert_eq!(report.rows_rewritten, 2 * (8 + 5) + 3);
    let span = tree.find("compact").expect("compact span");
    assert_eq!(span.attr_u64("groups_copied"), Some(0));
    assert_eq!(days.map(|d| day(&compacted, d)), before);
    assert_eq!(before[0].num_rows(), 8 + 5 + 3);
    assert_eq!(before[0].column(2).null_count(), 8 + 5 + 1);
}

#[test]
fn every_table_write_cuts_the_configured_row_groups() {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let config = LakehouseConfig {
        row_group_rows: 1_000,
        ..LakehouseConfig::zero_latency()
    };
    let lh = Lakehouse::with_store(Arc::clone(&store), config).unwrap();
    lh.create_table("events", &batch((0..2_500).collect()), "main")
        .unwrap();
    lh.append_table("events", &batch((0..2_500).collect()), "main")
        .unwrap();
    lh.compact_table("events", "main").unwrap();
    let project =
        PipelineProject::new("copy").with(NodeDef::sql("artifact", "SELECT x FROM events"));
    assert!(lh.run(&project, &RunOptions::default()).unwrap().success);
    // The create, the append, the compaction and the run's artifact: each
    // file is 1 000-row groups and one group of the rest.
    let files: Vec<ObjectPath> = (store.list("").unwrap().into_iter())
        .filter(|p| p.as_str().ends_with(".lkh"))
        .collect();
    let mut largest = Vec::new();
    for path in &files {
        let reader = RangedReader::parse(store.get(path).unwrap()).unwrap();
        let rows: Vec<u64> = (0..reader.num_row_groups())
            .map(|g| reader.row_group_meta(g).row_count)
            .collect();
        let (last, full) = rows.split_last().unwrap();
        assert!(
            full.iter().all(|&r| r == 1_000) && *last <= 1_000,
            "{path:?}: {rows:?}"
        );
        largest.push(reader.num_rows());
    }
    largest.sort_unstable();
    assert_eq!(largest, [2_500, 2_500, 5_000, 5_000]);
}
