//! Concurrency correctness of the overlapped scan and the caches:
//!
//! * a scan that overlaps its files' requests is byte-identical (values AND
//!   order) to an inline scan, with predicates and projection, on a
//!   partitioned multi-file table, at any worker count;
//! * the pool's `CachedStore` adapter serves identical bytes across
//!   evictions and invalidations;
//! * one `LakehouseProvider` survives 8 concurrent queries.

use bauplan_core::{BufferPool, Lakehouse, LakehouseConfig};
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use lakehouse_store::{
    CachedStore, InMemoryStore, IoDispatcher, LatencyModel, ObjectStore, SimulatedStore,
};
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
fn overlapped_scan_identical_under_byte_cache_and_latency() {
    // Full stack: byte cache over simulated latency, repeated queries.
    let sim = SimulatedStore::new(InMemoryStore::new(), LatencyModel::s3_like());
    let pool = Arc::new(BufferPool::new(1 << 20));
    let store: Arc<dyn ObjectStore> = Arc::new(CachedStore::with_pool(sim, pool));
    let t = multi_file_table(&store, 12, 200);
    let inline = t.scan().execute().unwrap();
    let t = with_workers(&t, 8);
    for _ in 0..3 {
        assert_eq!(inline, t.scan().execute().unwrap());
    }
}

#[test]
fn cached_store_identical_bytes_after_eviction() {
    // A cache far smaller than the table forces continuous eviction; every
    // read must still return exactly what the backing store holds.
    let pool = Arc::new(BufferPool::private(2_048));
    pool.set_max_entry_bytes(1_024);
    let cached = CachedStore::with_pool(InMemoryStore::new(), Arc::clone(&pool));
    let paths: Vec<_> = (0..32)
        .map(|i| lakehouse_store::ObjectPath::new(format!("obj/{i}")).unwrap())
        .collect();
    for (i, p) in paths.iter().enumerate() {
        cached
            .put(p, bytes::Bytes::from(vec![i as u8; 100 + i]))
            .unwrap();
    }
    // Two passes in opposite directions: whole gets and ranged gets.
    for (i, p) in paths.iter().enumerate() {
        assert_eq!(
            cached.get(p).unwrap(),
            bytes::Bytes::from(vec![i as u8; 100 + i])
        );
    }
    for (i, p) in paths.iter().enumerate().rev() {
        assert_eq!(
            cached.get_range(p, 10, 50).unwrap(),
            bytes::Bytes::from(vec![i as u8; 40])
        );
    }
    assert!(pool.metrics().misses() > 0, "tiny cache must evict");
}

#[test]
fn eight_concurrent_queries_through_one_provider() {
    let config = LakehouseConfig {
        shared_pool: Some(Arc::new(BufferPool::new(8 << 20))),
        ..LakehouseConfig::default()
    };
    let lh = Arc::new(Lakehouse::in_memory(config).unwrap());
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
fn lakehouse_query_with_byte_cache_matches_default() {
    let mk = |config: LakehouseConfig| {
        let lh = Lakehouse::in_memory(config).unwrap();
        lh.create_table("taxi", &TaxiGenerator::default().generate(5_000), "main")
            .unwrap();
        lh.query(
            "SELECT pickup_location_id, COUNT(*) AS n FROM taxi \
             WHERE fare > 10.0 GROUP BY pickup_location_id ORDER BY pickup_location_id",
            "main",
        )
        .unwrap()
    };
    let baseline = mk(LakehouseConfig::default());
    let tuned = mk(LakehouseConfig {
        shared_pool: Some(Arc::new(BufferPool::new(16 << 20))),
        ..LakehouseConfig::default()
    });
    assert_eq!(baseline, tuned);
}

#[test]
fn repeated_query_hits_metadata_cache() {
    let lh = Lakehouse::in_memory(LakehouseConfig::default()).unwrap();
    lh.create_table("taxi", &TaxiGenerator::default().generate(2_000), "main")
        .unwrap();
    let cache = lh.metadata_cache();
    lh.query("SELECT COUNT(*) AS n FROM taxi", "main").unwrap();
    let (h0, m0, gets0) = (cache.hits(), cache.misses(), lh.store_metrics().gets());
    lh.query("SELECT COUNT(*) AS n FROM taxi", "main").unwrap();
    // The table's metadata document and its manifest, both from memory; the
    // store sees the ref and the one data file.
    assert_eq!((cache.hits() - h0, cache.misses() - m0), (2, 0));
    assert_eq!(lh.store_metrics().gets() - gets0, 2);
}
