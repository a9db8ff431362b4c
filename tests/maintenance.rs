//! Platform-level table maintenance: compaction and snapshot expiration
//! through the catalog, with time travel preserved where it should be.
//! Compaction rewrites only the partitions that hold more than one file, and
//! expiry keeps every manifest a retained snapshot still names.

use bauplan_core::{Lakehouse, LakehouseConfig};
use bytes::Bytes;
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use lakehouse_store::{InMemoryStore, ObjectPath, ObjectStore, StoreMetrics};
use lakehouse_table::schema_def::ValueDef;
use lakehouse_table::{
    Manifest, PartitionField, PartitionSpec, SnapshotOperation, Table, Transform,
};
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
    lh.query("SELECT COUNT(*) AS n FROM events", "main")
        .unwrap();
    let gets_before = metrics.gets();
    lh.compact_table("events", "main").unwrap();
    metrics.reset();
    lh.query("SELECT COUNT(*) AS n FROM events", "main")
        .unwrap();
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

fn by_day() -> PartitionSpec {
    PartitionSpec::new(vec![PartitionField {
        source_column: "day".into(),
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
    lh.create_table_partitioned("events", &days_batch(&days, 3, 0), "main", by_day())
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
    // order of rows within each partition too.
    const ALL: &str = "SELECT * FROM events ORDER BY day";
    let before = lh.query(ALL, "main").unwrap();
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
        by_day(),
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
