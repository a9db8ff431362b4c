//! Concurrency correctness of the overlapped scan and the caches:
//!
//! * a scan that overlaps its files' requests is byte-identical (values AND
//!   order) to an inline scan, with predicates and projection, on a
//!   partitioned multi-file table, at any worker count;
//! * one `LakehouseProvider` survives 8 concurrent queries;
//! * two fronts over one directory see each other's commits, and a warm
//!   statement still pays one catalog GET;
//! * a commit that lands while a statement's ref read is in flight is in
//!   that statement's result, and the statement is one query record;
//! * no acknowledged table write is lost: racing appends through one front
//!   take turns and all land, and an append or a commit that lands while a
//!   compaction's, an expire's or a merge's CAS of the ref is held is kept
//!   by the write that then starts over (DESIGN.md §33);
//! * an expire that loses every CAS deletes nothing (DESIGN.md §36).

use bauplan_core::{BauplanError, Lakehouse, LakehouseConfig};
use lakehouse_catalog::CatalogError;
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use lakehouse_store::{
    InMemoryStore, IoDispatcher, LatencyModel, ObjectPath, ObjectStore, SimulatedStore, StoreError,
};
use lakehouse_table::{PartitionSpec, ScanPredicate, SnapshotOperation, Table, TableIo};
use lakehouse_workload::TaxiGenerator;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn multi_file_table(store: &Arc<dyn ObjectStore>, files: usize, rows_per_file: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("bucket", DataType::Utf8, false),
        Field::new("v", DataType::Int64, false),
    ]);
    let buckets: Vec<String> = (0..files)
        .flat_map(|f| std::iter::repeat_n(format!("b{f:02}"), rows_per_file))
        .collect();
    let values: Vec<i64> = (0..(files * rows_per_file) as i64).collect();
    let batch = RecordBatch::try_new(
        schema.clone(),
        vec![
            Column::from_strs(buckets.iter().map(String::as_str).collect()),
            Column::from_i64(values),
        ],
    )
    .unwrap();
    let t = Table::create(
        Arc::clone(store),
        "wh/conc",
        &schema,
        PartitionSpec::identity("bucket"),
    )
    .unwrap();
    let mut tx = t.new_transaction(SnapshotOperation::Append);
    tx.write(&batch).unwrap();
    let (loc, _) = tx.commit().unwrap();
    Table::load(Arc::clone(store), &loc).unwrap()
}

/// `t` reopened with `depth` fetch workers.
fn with_workers(t: &Table, depth: usize) -> Table {
    let dispatcher = IoDispatcher::new(Arc::clone(t.store()), depth, None).unwrap();
    let io = TableIo {
        dispatcher: Some(Arc::new(dispatcher)),
        ..TableIo::default()
    };
    Table::load_with(Arc::clone(t.store()), t.metadata_location(), io).unwrap()
}

#[test]
fn overlapped_scan_is_byte_identical_to_inline() {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let t = multi_file_table(&store, 16, 500);
    let run = |t: &Table| {
        t.scan()
            .with_predicate(ScanPredicate::new("v", CmpOp::Lt, Value::Int64(7_000)))
            .select(&["v", "bucket"])
            .execute()
            .unwrap()
    };
    let inline = run(&t);
    assert!(inline.num_rows() > 0);
    for depth in [1, 2, 3, 8, 16, 64] {
        let overlapped = run(&with_workers(&t, depth));
        assert_eq!(inline.schema(), overlapped.schema());
        assert_eq!(inline, overlapped, "{depth} workers changed rows or order");
    }
}

#[test]
fn overlapped_scan_identical_under_latency() {
    // Overlapped reads over simulated S3 latency, repeated queries.
    let store: Arc<dyn ObjectStore> = Arc::new(SimulatedStore::new(
        InMemoryStore::new(),
        LatencyModel::s3_like(),
    ));
    let t = multi_file_table(&store, 12, 200);
    let inline = t.scan().execute().unwrap();
    let t = with_workers(&t, 8);
    for _ in 0..3 {
        assert_eq!(inline, t.scan().execute().unwrap());
    }
}

#[test]
fn eight_concurrent_queries_through_one_provider() {
    let lh = Arc::new(Lakehouse::in_memory(LakehouseConfig::default()).unwrap());
    lh.create_table("taxi", &TaxiGenerator::default().generate(10_000), "main")
        .unwrap();
    let expected = lh
        .query(
            "SELECT COUNT(*) AS n, AVG(fare) AS f FROM taxi WHERE fare > 5.0",
            "main",
        )
        .unwrap();

    let results: Vec<RecordBatch> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lh = Arc::clone(&lh);
                scope.spawn(move || {
                    lh.query(
                        "SELECT COUNT(*) AS n, AVG(fare) AS f FROM taxi WHERE fare > 5.0",
                        "main",
                    )
                    .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in results {
        assert_eq!(r, expected);
    }
}

#[test]
fn repeated_query_hits_metadata_cache() {
    let lh = Lakehouse::in_memory(LakehouseConfig::default()).unwrap();
    lh.create_table("taxi", &TaxiGenerator::default().generate(2_000), "main")
        .unwrap();
    let cache = lh.object_cache();
    lh.query("SELECT SUM(fare) AS s FROM taxi", "main").unwrap();
    let (h0, m0, gets0) = (cache.hits(), cache.misses(), lh.store_metrics().gets());
    lh.query("SELECT SUM(fare) AS s FROM taxi", "main").unwrap();
    // The table's metadata document, its manifest and its one data file,
    // all from memory: the store sees the ref alone.
    assert_eq!((cache.hits() - h0, cache.misses() - m0), (3, 0));
    assert_eq!(lh.store_metrics().gets() - gets0, 1);
}

/// One column `x` holding `from..from + n`.
fn xs(from: i64, n: i64) -> RecordBatch {
    RecordBatch::try_new(
        Schema::new(vec![Field::new("x", DataType::Int64, false)]),
        vec![Column::from_i64((from..from + n).collect())],
    )
    .unwrap()
}

/// Two default fronts over one directory: each front's statements read the
/// ref first, so what one commits the other sees on its next statement, and
/// the other's own commit then lands on the new head. A warm statement
/// still costs one catalog GET (the ref) plus the objects it has not read
/// before.
#[test]
fn two_fronts_on_one_directory_see_each_others_commits() {
    const COUNT: &str = "SELECT COUNT(*) AS n FROM t";
    const SUM: &str = "SELECT SUM(x) AS s FROM t";
    let dir = std::env::temp_dir().join(format!("bauplan_two_fronts_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let a = Lakehouse::on_disk(&dir, LakehouseConfig::zero_latency()).unwrap();
    a.create_table("t", &xs(0, 10), "main").unwrap();
    let b = Lakehouse::on_disk(&dir, LakehouseConfig::zero_latency()).unwrap();
    let scalar =
        |lh: &Lakehouse, sql: &str| lh.query(sql, "main").unwrap().row(0).unwrap()[0].clone();

    assert_eq!(scalar(&a, COUNT), Value::Int64(10));
    b.append_table("t", &xs(10, 10), "main").unwrap();
    assert_eq!(scalar(&a, COUNT), Value::Int64(20), "A sees B's rows");
    assert_eq!(scalar(&a, SUM), Value::Int64((0..20).sum()));

    a.append_table("t", &xs(20, 10), "main")
        .expect("A's commit lands on B's head");
    assert_eq!(scalar(&b, COUNT), Value::Int64(30), "B sees A's rows");
    assert_eq!(scalar(&a, SUM), Value::Int64((0..30).sum()));

    // Warm on A: the manifests' row counts answer the count, so its one
    // GET is the ref; so is the sum, whose three data files A's earlier
    // statements read.
    let gets = || a.store_metrics().gets();
    let g0 = gets();
    assert_eq!(scalar(&a, COUNT), Value::Int64(30));
    assert_eq!(gets() - g0, 1, "a warm statement pays one catalog GET");
    let g0 = gets();
    assert_eq!(scalar(&a, SUM), Value::Int64((0..30).sum()));
    assert_eq!(gets() - g0, 1, "the ref: every data file is cached");

    // B appends: A's next sum fetches what is new — the ref, B's commit,
    // the table's new metadata document and root manifest, and B's one new
    // data file — and none of the three files it has; a repeat is the ref.
    b.append_table("t", &xs(30, 10), "main").unwrap();
    let g0 = gets();
    assert_eq!(scalar(&a, SUM), Value::Int64((0..40).sum()));
    assert_eq!(gets() - g0, 1 + 1 + 2 + 1, "the ref plus B's new objects");
    let g0 = gets();
    assert_eq!(scalar(&a, SUM), Value::Int64((0..40).sum()));
    assert_eq!(gets() - g0, 1, "a repeat pays the ref alone");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hold on one kind of store request: when armed, the next such request
/// announces that it has arrived, then waits to be released before it runs.
#[derive(Default)]
struct Gate(Mutex<Option<(Sender<()>, Receiver<()>)>>);

impl Gate {
    /// Hold the next request: (its arrival, its release).
    fn arm(&self) -> (Receiver<()>, Sender<()>) {
        let (arrived, arrival) = mpsc::channel();
        let (release, released) = mpsc::channel();
        *self.0.lock().unwrap() = Some((arrived, released));
        (arrival, release)
    }

    fn pass(&self) {
        let held = self.0.lock().unwrap().take();
        if let Some((arrived, released)) = held {
            arrived.send(()).unwrap();
            released.recv().unwrap();
        }
    }
}

/// An in-memory store whose every `refs.json` read takes a millisecond —
/// a ref read as slow as an object store's — which can hold the next read
/// of the ref, or the next CAS of it, open, or make every CAS of the ref
/// lose, and which counts deletes.
struct HeldRefs {
    inner: Arc<InMemoryStore>,
    read: Gate,
    cas: Gate,
    losing: AtomicBool,
    deletes: AtomicUsize,
}

impl HeldRefs {
    fn over(inner: &Arc<InMemoryStore>) -> Arc<HeldRefs> {
        Arc::new(HeldRefs {
            inner: Arc::clone(inner),
            read: Gate::default(),
            cas: Gate::default(),
            losing: AtomicBool::new(false),
            deletes: AtomicUsize::new(0),
        })
    }
}

impl ObjectStore for HeldRefs {
    fn put(&self, path: &ObjectPath, data: bytes::Bytes) -> lakehouse_store::Result<()> {
        self.inner.put(path, data)
    }
    fn get(&self, path: &ObjectPath) -> lakehouse_store::Result<bytes::Bytes> {
        if path.as_str().ends_with("/refs.json") {
            std::thread::sleep(Duration::from_millis(1));
            self.read.pass();
        }
        self.inner.get(path)
    }
    fn head(&self, path: &ObjectPath) -> lakehouse_store::Result<usize> {
        self.inner.head(path)
    }
    fn list(&self, prefix: &str) -> lakehouse_store::Result<Vec<ObjectPath>> {
        self.inner.list(prefix)
    }
    fn delete(&self, path: &ObjectPath) -> lakehouse_store::Result<()> {
        self.deletes.fetch_add(1, Ordering::SeqCst);
        self.inner.delete(path)
    }
    fn put_if_matches(
        &self,
        path: &ObjectPath,
        expected: Option<&[u8]>,
        data: bytes::Bytes,
    ) -> lakehouse_store::Result<()> {
        if path.as_str().ends_with("/refs.json") {
            self.cas.pass();
            if self.losing.load(Ordering::SeqCst) {
                return Err(StoreError::PreconditionFailed(path.as_str().to_string()));
            }
        }
        self.inner.put_if_matches(path, expected, data)
    }
}

/// Front B writes `t` straight to the objects; front A reads them through
/// [`HeldRefs`], and has run a few statements on `t` already, so it has a
/// head it last saw and knows its ref reads are slow.
fn held_fronts() -> (Lakehouse, Arc<HeldRefs>, Lakehouse) {
    let objects = Arc::new(InMemoryStore::new());
    let config = LakehouseConfig::zero_latency;
    let b = Lakehouse::with_store(Arc::clone(&objects) as Arc<dyn ObjectStore>, config()).unwrap();
    b.create_table("t", &xs(0, 10), "main").unwrap();
    let held = HeldRefs::over(&objects);
    let a = Lakehouse::with_store(Arc::clone(&held) as Arc<dyn ObjectStore>, config()).unwrap();
    for _ in 0..3 {
        let n = a.query("SELECT COUNT(*) AS n FROM t", "main").unwrap();
        assert_eq!(n.row(0).unwrap()[0], Value::Int64(10));
    }
    (a, held, b)
}

/// Run `work` on another thread while the request `gate` guards is held,
/// make `commit` land in the meantime, then let the request go on.
fn while_held<T: Send>(gate: &Gate, work: impl FnOnce() -> T + Send, commit: impl FnOnce()) -> T {
    let (arrival, release) = gate.arm();
    std::thread::scope(|scope| {
        let worker = scope.spawn(work);
        arrival
            .recv_timeout(Duration::from_secs(10))
            .expect("the work reaches the held request");
        commit();
        release.send(()).unwrap();
        worker.join().unwrap()
    })
}

/// A statement's snapshot is the ref as read by a GET issued after the
/// statement began: B's append, committed before A's ref read returns, is
/// in A's answer, and A's statement is one record in `system.queries`
/// however it got there.
#[test]
fn a_commit_that_lands_while_the_ref_read_is_held_is_in_the_statement() {
    const SQL: &str = "SELECT COUNT(*) AS rows_while_held FROM t";
    let (a, held, b) = held_fronts();
    let out = while_held(
        &held.read,
        || a.query(SQL, "main").unwrap(),
        || b.append_table("t", &xs(10, 10), "main").unwrap(),
    );
    assert_eq!(out.row(0).unwrap()[0], Value::Int64(20), "A sees B's rows");
    let records = lakehouse_obs::query_log().snapshot();
    let mine = records.iter().filter(|r| r.label == SQL).count();
    assert_eq!(mine, 1, "one statement, one query record");
}

/// A table another front creates before the ref read returns is the
/// statement's to read: its rows, not `TableNotFound`, through SQL and
/// through `read_table` alike.
#[test]
fn a_table_created_while_the_ref_read_is_held_is_found() {
    let (a, held, b) = held_fronts();
    let out = while_held(
        &held.read,
        || a.query("SELECT SUM(x) AS s FROM u", "main").unwrap(),
        || b.create_table("u", &xs(0, 5), "main").unwrap(),
    );
    assert_eq!(out.row(0).unwrap()[0], Value::Int64(10));
    let out = while_held(
        &held.read,
        || a.read_table("v", "main").unwrap(),
        || b.create_table("v", &xs(0, 7), "main").unwrap(),
    );
    assert_eq!(out, xs(0, 7));
}

/// The count and sum of `t` on `main`.
fn count_and_sum(lh: &Lakehouse) -> (Value, Value) {
    let out = lh
        .query("SELECT COUNT(*) AS n, SUM(x) AS s FROM t", "main")
        .unwrap();
    let row = out.row(0).unwrap();
    (row[0].clone(), row[1].clone())
}

/// Four threads append to one table at once through one front: its commits
/// take turns, so none loses a CAS to another, every append is
/// acknowledged and the table holds every row, in ten runs out of ten.
#[test]
fn racing_appends_keep_every_acknowledged_one() {
    const THREADS: i64 = 4;
    const APPENDS: i64 = 50;
    for run in 0..10 {
        let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
        lh.create_table("t", &xs(0, 1), "main").unwrap();
        std::thread::scope(|scope| {
            for w in 0..THREADS {
                let lh = &lh;
                scope.spawn(move || {
                    for i in 0..APPENDS {
                        let appended = lh.append_table("t", &xs(1 + w * APPENDS + i, 1), "main");
                        if let Err(e) = appended {
                            panic!("run {run}: append {w}/{i} failed: {e}");
                        }
                    }
                });
            }
        });
        let rows = 1 + THREADS * APPENDS;
        let sum = (0..rows).sum();
        assert_eq!(
            count_and_sum(&lh),
            (Value::Int64(rows), Value::Int64(sum)),
            "run {run}"
        );
    }
}

/// An append that lands while a compaction's CAS is held makes the
/// compaction start over from it: the compacted table holds its rows.
#[test]
fn an_append_that_lands_during_a_compaction_is_kept() {
    let (a, held, b) = held_fronts();
    b.append_table("t", &xs(10, 10), "main").unwrap();
    let report = while_held(
        &held.cas,
        || a.compact_table("t", "main").unwrap(),
        || b.append_table("t", &xs(20, 10), "main").unwrap(),
    );
    let all = (Value::Int64(30), Value::Int64((0..30).sum()));
    assert_eq!(count_and_sum(&a), all);
    assert_eq!(report.files_compacted, 3, "the append's file too");
}

/// An append that lands while an expire's CAS is held is kept: the expire
/// starts over from it, and its snapshot is the one retained.
#[test]
fn an_append_that_lands_during_an_expire_is_kept() {
    let (a, held, b) = held_fronts();
    b.append_table("t", &xs(10, 10), "main").unwrap();
    let report = while_held(
        &held.cas,
        || a.expire_table_snapshots("t", "main", 1).unwrap(),
        || b.append_table("t", &xs(20, 10), "main").unwrap(),
    );
    let all = (Value::Int64(30), Value::Int64((0..30).sum()));
    assert_eq!(count_and_sum(&a), all);
    assert_eq!(report.snapshots_expired, 2);
}

/// An expire that loses every CAS attempt, the first while another front's
/// append lands, ends `CommitContended` and deletes nothing: every snapshot
/// the head lists, the ones the expire would have dropped too, still scans.
#[test]
fn an_expire_that_loses_every_cas_deletes_nothing() {
    let (a, held, b) = held_fronts();
    b.append_table("t", &xs(10, 10), "main").unwrap();
    b.compact_table("t", "main").unwrap();
    held.losing.store(true, Ordering::SeqCst);
    let expired = while_held(
        &held.cas,
        || a.expire_table_snapshots("t", "main", 1),
        || b.append_table("t", &xs(20, 10), "main").unwrap(),
    );
    let contended = matches!(
        expired,
        Err(BauplanError::Catalog(CatalogError::CommitContended { .. }))
    );
    assert!(contended, "{:?}", expired.err());
    assert_eq!(held.deletes.load(Ordering::SeqCst), 0);
    let objects = Arc::clone(&held.inner) as Arc<dyn ObjectStore>;
    let head = b.catalog().get_content("main", "t").unwrap();
    let table = Table::load(objects, &head.metadata_location).unwrap();
    let snapshots = &table.metadata().snapshots;
    assert_eq!(snapshots.len(), 4, "create, append, compaction, append");
    for snapshot in snapshots {
        let id = snapshot.snapshot_id;
        let scan = table.scan().at_snapshot(id).execute();
        let rows = scan.unwrap_or_else(|e| panic!("snapshot {id}: {e}"));
        assert_eq!(rows.num_rows() as u64, snapshot.total_rows);
    }
    assert_eq!(count_and_sum(&b).0, Value::Int64(30));
}

/// A commit to another table that lands on the target while a merge's CAS
/// is held makes the merge start over from the new head, not fail: the
/// target ends with both changes.
#[test]
fn a_merge_builds_on_a_commit_that_lands_during_it() {
    let (a, held, b) = held_fronts();
    a.create_branch("feat", Some("main")).unwrap();
    a.create_table("u", &xs(0, 5), "feat").unwrap();
    let merged = while_held(
        &held.cas,
        || a.merge("feat", "main"),
        || b.create_table("v", &xs(0, 7), "main").unwrap(),
    );
    let head = merged.unwrap().expect("main moved");
    let (newest, commit) = a.log("main", 1).unwrap().remove(0);
    assert_eq!((newest, commit.parents.len()), (head, 2), "a merge commit");
    assert_eq!(a.list_tables("main").unwrap(), ["t", "u", "v"]);
    assert_eq!(a.read_table("v", "main").unwrap(), xs(0, 7));
}
