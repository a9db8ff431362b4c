//! Concurrency correctness of the overlapped scan and the caches:
//!
//! * a scan that overlaps its files' requests is byte-identical (values AND
//!   order) to an inline scan, with predicates and projection, on a
//!   partitioned multi-file table, at any worker count;
//! * one `LakehouseProvider` survives 8 concurrent queries;
//! * two fronts over one directory see each other's commits, and a warm
//!   statement still pays one catalog GET.

use bauplan_core::{Lakehouse, LakehouseConfig};
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use lakehouse_store::{InMemoryStore, IoDispatcher, LatencyModel, ObjectStore, SimulatedStore};
use lakehouse_table::{PartitionSpec, ScanPredicate, SnapshotOperation, Table, TableIo};
use lakehouse_workload::TaxiGenerator;
use std::sync::Arc;

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
