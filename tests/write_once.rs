//! Write-once table objects (DESIGN.md §21): every metadata document,
//! manifest and data file is written under a name that carries a token of
//! its content, so committers that share a parent cannot clobber each other,
//! a ref can never come to name a different table than the one it was given,
//! and nothing under a table's `metadata/` or `data/` prefix is ever written
//! twice. The first two tests fail on the naming scheme this replaced
//! (`v{n}.json`, `manifest-{id}.json`, `snap{id}-{n}.lkh`).

use bauplan_core::{BauplanError, Lakehouse, LakehouseConfig};
use bytes::Bytes;
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use lakehouse_store::{InMemoryStore, ObjectPath, ObjectStore};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

fn batch(vals: Vec<i64>) -> RecordBatch {
    RecordBatch::try_new(
        Schema::new(vec![Field::new("x", DataType::Int64, false)]),
        vec![Column::from_i64(vals)],
    )
    .unwrap()
}

/// `(SUM(x), COUNT(*))` of `t` at `reference`.
fn sum_count(lh: &Lakehouse, reference: &str) -> (Value, Value) {
    let out = lh
        .query("SELECT SUM(x) AS s, COUNT(*) AS n FROM t", reference)
        .unwrap();
    let row = out.row(0).unwrap();
    (row[0].clone(), row[1].clone())
}

fn ints(sum: i64, count: i64) -> (Value, Value) {
    (Value::Int64(sum), Value::Int64(count))
}

#[test]
fn two_branches_appending_to_one_table_keep_their_own_rows() {
    let backend: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let lh = Lakehouse::with_store(Arc::clone(&backend), LakehouseConfig::zero_latency()).unwrap();
    lh.create_table("t", &batch(vec![1, 1]), "main").unwrap();
    lh.create_branch("a", Some("main")).unwrap();
    lh.create_branch("b", Some("main")).unwrap();
    // Both appends derive snapshot 2 from the same parent.
    lh.append_table("t", &batch(vec![200]), "a").unwrap();
    lh.append_table("t", &batch(vec![5, 6, 7]), "b").unwrap();
    // Through the front that wrote them and through a cold one: no cache can
    // be what keeps them apart.
    let cold = Lakehouse::with_store(backend, LakehouseConfig::zero_latency()).unwrap();
    for front in [&lh, &cold] {
        assert_eq!(sum_count(front, "a"), ints(202, 3));
        assert_eq!(sum_count(front, "b"), ints(20, 5));
        assert_eq!(sum_count(front, "main"), ints(2, 2));
    }
}

#[test]
fn a_tag_reads_its_own_rows_or_nothing_after_expiry_and_further_appends() {
    let backend: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let lh = Lakehouse::with_store(Arc::clone(&backend), LakehouseConfig::zero_latency()).unwrap();
    lh.create_table("t", &batch(vec![1]), "main").unwrap();
    lh.append_table("t", &batch(vec![2]), "main").unwrap();
    lh.create_tag("v2", "main").unwrap();
    // Expiry drops the tagged snapshot; the append after it produces a
    // document with as many snapshots as the tagged one had.
    lh.append_table("t", &batch(vec![1000]), "main").unwrap();
    lh.expire_table_snapshots("t", "main", 1).unwrap();
    lh.append_table("t", &batch(vec![3]), "main").unwrap();
    assert_eq!(sum_count(&lh, "main"), ints(1006, 4));

    let cold = Lakehouse::with_store(backend, LakehouseConfig::zero_latency()).unwrap();
    for front in [&lh, &cold] {
        match front.read_table("t", "v2") {
            // The tagged rows, if the tagged version is still readable …
            Ok(rows) => assert_eq!(rows, batch(vec![1, 2])),
            // … or a typed "gone" — its documents went with the expiry.
            Err(BauplanError::TableNotFound { .. }) => {}
            Err(e) => panic!("unexpected error reading the tag: {e}"),
        }
    }
}

/// Counts what is done to each path.
#[derive(Default)]
struct CountingStore {
    inner: InMemoryStore,
    writes: Mutex<BTreeMap<String, usize>>,
    deletes: Mutex<Vec<String>>,
    heads: Mutex<usize>,
}

impl CountingStore {
    fn wrote(&self, path: &ObjectPath) {
        *self
            .writes
            .lock()
            .unwrap()
            .entry(path.as_str().to_string())
            .or_default() += 1;
    }
}

impl ObjectStore for CountingStore {
    fn put(&self, path: &ObjectPath, data: Bytes) -> lakehouse_store::Result<()> {
        self.wrote(path);
        self.inner.put(path, data)
    }
    fn get(&self, path: &ObjectPath) -> lakehouse_store::Result<Bytes> {
        self.inner.get(path)
    }
    fn get_range(&self, path: &ObjectPath, s: usize, e: usize) -> lakehouse_store::Result<Bytes> {
        self.inner.get_range(path, s, e)
    }
    fn head(&self, path: &ObjectPath) -> lakehouse_store::Result<usize> {
        *self.heads.lock().unwrap() += 1;
        self.inner.head(path)
    }
    fn list(&self, prefix: &str) -> lakehouse_store::Result<Vec<ObjectPath>> {
        self.inner.list(prefix)
    }
    fn delete(&self, path: &ObjectPath) -> lakehouse_store::Result<()> {
        self.deletes.lock().unwrap().push(path.as_str().to_string());
        self.inner.delete(path)
    }
    fn put_if_matches(
        &self,
        path: &ObjectPath,
        expected: Option<&[u8]>,
        data: Bytes,
    ) -> lakehouse_store::Result<()> {
        self.wrote(path);
        self.inner.put_if_matches(path, expected, data)
    }
}

#[test]
fn an_ingest_cycle_writes_no_table_object_twice_and_expires_without_probing() {
    let store = Arc::new(CountingStore::default());
    let backend = Arc::clone(&store) as Arc<dyn ObjectStore>;
    let lh = Lakehouse::with_store(backend, LakehouseConfig::zero_latency()).unwrap();
    lh.create_table("t", &batch(vec![0]), "main").unwrap();
    let mut expected = (0i64, 1i64);
    let mut append = |branch: &str, k: i64| {
        lh.append_table("t", &batch(vec![k, k + 1]), branch)
            .unwrap();
        expected = (expected.0 + 2 * k + 1, expected.1 + 2);
    };

    lh.create_branch("ingest", Some("main")).unwrap();
    for k in 0..8 {
        append("ingest", 10 * k);
    }
    lh.merge("ingest", "main").unwrap();
    lh.delete_branch("ingest").unwrap();
    lh.compact_table("t", "main").unwrap();

    let (heads0, deletes0) = (
        *store.heads.lock().unwrap(),
        store.deletes.lock().unwrap().len(),
    );
    let report = lh.expire_table_snapshots("t", "main", 1).unwrap();
    assert_eq!(report.snapshots_expired, 9);
    assert_eq!(
        *store.heads.lock().unwrap(),
        heads0,
        "expiry probes nothing"
    );
    let deleted = store.deletes.lock().unwrap()[deletes0..].to_vec();
    let mut distinct = deleted.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(deleted.len(), distinct.len(), "each path deleted once");
    // Nine data files and nine manifests of the expired snapshots, and the
    // nine metadata documents whose current snapshot expired: one per
    // snapshot, the create's holding its first.
    let count = |part: &str| deleted.iter().filter(|p| p.contains(part)).count();
    assert_eq!(count("/data/"), 9);
    assert_eq!(count("/metadata/manifest-"), 9);
    assert_eq!(count("/metadata/v"), 9);

    for k in 100..108 {
        append("main", 10 * k);
    }
    assert_eq!(sum_count(&lh, "main"), ints(expected.0, expected.1));

    let writes = store.writes.lock().unwrap();
    let table_objects = |p: &&String| p.contains("/metadata/") || p.contains("/data/");
    assert!(writes.keys().filter(table_objects).count() > 50);
    for path in writes.keys().filter(table_objects) {
        assert_eq!(writes[path], 1, "{path} was written more than once");
    }
}
