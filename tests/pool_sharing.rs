//! Process-wide buffer pool integration: several `Lakehouse` instances over
//! one `Arc<BufferPool>` share pages (the second engine's metadata reads are
//! free), concurrent misses coalesce through the pool's single-flight gates,
//! eviction is deterministic, and a chaos-torn read is caught by the format
//! checksums, invalidated, and retried to the correct bytes.

use bauplan_core::{BufferPool, ChaosConfig, Lakehouse, LakehouseConfig};
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use std::sync::{Arc, Barrier};

/// Fresh scratch directory for a disk-backed lakehouse shared by several
/// engine instances (the same backing the CLI uses across invocations).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bauplan_pool_sharing_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn events_batch(files: usize) -> Vec<RecordBatch> {
    (0..files)
        .map(|file| {
            let base = (file * 64) as i64;
            RecordBatch::try_new(
                Schema::new(vec![
                    Field::new("id", DataType::Int64, false),
                    Field::new("grp", DataType::Int64, false),
                    Field::new("val", DataType::Float64, false),
                ]),
                vec![
                    Column::from_i64((0..64).map(|i| base + i).collect()),
                    Column::from_i64((0..64).map(|i| (base + i) % 5).collect()),
                    Column::from_f64((0..64).map(|i| (base + i) as f64 * 0.25).collect()),
                ],
            )
            .unwrap()
        })
        .collect()
}

fn populate(lh: &Lakehouse, files: usize) {
    for (i, batch) in events_batch(files).iter().enumerate() {
        if i == 0 {
            lh.create_table("events", batch, "main").unwrap();
        } else {
            lh.append_table("events", batch, "main").unwrap();
        }
    }
}

fn pooled_config(pool: &Arc<BufferPool>) -> LakehouseConfig {
    LakehouseConfig {
        shared_pool: Some(Arc::clone(pool)),
        ..LakehouseConfig::zero_latency()
    }
}

const SQL: &str = "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM events GROUP BY grp ORDER BY grp";

#[test]
fn second_engine_reads_everything_from_the_shared_pool() {
    let dir = scratch_dir("second_engine");
    let pool = Arc::new(BufferPool::new(32 * 1024 * 1024));
    let a = Lakehouse::on_disk(&dir, pooled_config(&pool)).unwrap();
    populate(&a, 4);
    let expected = a.query(SQL, "main").unwrap();

    // Engine A's writes went through the pool write-through, and its query
    // pulled whatever was missing — by now every object the query touches is
    // resident. A second engine over the same directory and the same pool
    // must answer the query without a single backend read.
    let b = Lakehouse::on_disk(&dir, pooled_config(&pool)).unwrap();
    let before = b.store_metrics().gets();
    let got = b.query(SQL, "main").unwrap();
    assert_eq!(got, expected, "shared-pool engine changed the result");
    assert_eq!(
        b.store_metrics().gets() - before,
        0,
        "second engine should be served entirely from the shared pool"
    );
    assert!(pool.metrics().hits() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_warm_queries_account_hits_exactly() {
    let dir = scratch_dir("exact_hits");
    let pool = Arc::new(BufferPool::new(32 * 1024 * 1024));
    let a = Lakehouse::on_disk(&dir, pooled_config(&pool)).unwrap();
    populate(&a, 4);
    let b = Lakehouse::on_disk(&dir, pooled_config(&pool)).unwrap();
    let expected = a.query(SQL, "main").unwrap();
    // Warm both engines once so their in-memory catalog memos settle and
    // every page the query needs is resident.
    assert_eq!(b.query(SQL, "main").unwrap(), expected);

    // A warm query performs a fixed number of pool lookups, all hits.
    let metrics = pool.metrics();
    let before = metrics.hits();
    a.query(SQL, "main").unwrap();
    let per_query = metrics.hits() - before;
    assert!(per_query > 0, "warm query must touch the pool");
    let before_b = metrics.hits();
    b.query(SQL, "main").unwrap();
    assert_eq!(
        metrics.hits() - before_b,
        per_query,
        "both engines must drive identical warm lookups"
    );

    // N racing threads across both engines: every lookup still hits, none
    // misses, and the hit counter advances by exactly N * per_query.
    let threads = 8usize;
    let hits_before = metrics.hits();
    let misses_before = metrics.misses();
    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|s| {
        for t in 0..threads {
            let engine = if t % 2 == 0 { &a } else { &b };
            let barrier = Arc::clone(&barrier);
            let expected = &expected;
            s.spawn(move || {
                barrier.wait();
                assert_eq!(engine.query(SQL, "main").unwrap(), *expected);
            });
        }
    });
    assert_eq!(
        metrics.misses() - misses_before,
        0,
        "warm racing queries must not re-fetch anything"
    );
    assert_eq!(
        metrics.hits() - hits_before,
        threads as u64 * per_query,
        "hit accounting must be exact under concurrency"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_cold_engines_fetch_each_object_once() {
    // Baseline: how many backend reads does one cold engine's query cost?
    let dir = scratch_dir("cold_baseline");
    {
        let setup = Lakehouse::on_disk(&dir, LakehouseConfig::zero_latency()).unwrap();
        populate(&setup, 4);
    }
    let solo_pool = Arc::new(BufferPool::new(32 * 1024 * 1024));
    let solo = Lakehouse::on_disk(&dir, pooled_config(&solo_pool)).unwrap();
    let solo_before = solo.store_metrics().gets();
    let expected = solo.query(SQL, "main").unwrap();
    let solo_gets = solo.store_metrics().gets() - solo_before;
    assert!(solo_gets > 0, "cold query must read the backend");

    // Two cold engines over one fresh pool, raced by 8 threads: the pool's
    // per-key single-flight gates coalesce the duplicate misses, so the
    // combined backend traffic equals the solo cold run — each object and
    // range is fetched exactly once, whichever engine got there first.
    // (Waiters re-fetch only if the winning load *failed*; it cannot here.)
    let pool = Arc::new(BufferPool::new(32 * 1024 * 1024));
    let c = Lakehouse::on_disk(&dir, pooled_config(&pool)).unwrap();
    let d = Lakehouse::on_disk(&dir, pooled_config(&pool)).unwrap();
    let before = c.store_metrics().gets() + d.store_metrics().gets();
    let threads = 8usize;
    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|s| {
        for t in 0..threads {
            let engine = if t % 2 == 0 { &c } else { &d };
            let barrier = Arc::clone(&barrier);
            let expected = &expected;
            s.spawn(move || {
                barrier.wait();
                assert_eq!(engine.query(SQL, "main").unwrap(), *expected);
            });
        }
    });
    let raced_gets = c.store_metrics().gets() + d.store_metrics().gets() - before;
    assert_eq!(
        raced_gets, solo_gets,
        "racing engines must not double-fetch any object"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_is_deterministic_across_identical_pools() {
    use lakehouse_store::PoolKey;
    // Two private pools driven through the identical key/touch sequence end
    // up with the identical resident set and identical eviction totals.
    let drive = |pool: &BufferPool| {
        let load = |n: usize| move || Ok(bytes::Bytes::from(vec![0u8; n]));
        for i in 0..8 {
            pool.get_or_load(&PoolKey::Whole(format!("obj-{i}")), load(100))
                .unwrap();
        }
        // Touch a fixed subset to promote it, then overflow the budget.
        for i in [1usize, 3, 5] {
            pool.get_or_load(&PoolKey::Whole(format!("obj-{i}")), load(100))
                .unwrap();
        }
        for i in 8..12 {
            pool.get_or_load(&PoolKey::Whole(format!("obj-{i}")), load(100))
                .unwrap();
        }
    };
    let p1 = BufferPool::private(800);
    let p2 = BufferPool::private(800);
    drive(&p1);
    drive(&p2);
    assert_eq!(p1.cached_entries(), p2.cached_entries());
    assert_eq!(p1.cached_bytes(), p2.cached_bytes());
    assert_eq!(p1.metrics().evicted_bytes(), p2.metrics().evicted_bytes());
    assert_eq!(p1.metrics().admitted(), p2.metrics().admitted());
    assert_eq!(p1.metrics().rejected(), p2.metrics().rejected());
    for i in 0..12 {
        let key = PoolKey::Whole(format!("obj-{i}"));
        assert_eq!(
            p1.contains(&key),
            p2.contains(&key),
            "pools diverged on obj-{i}"
        );
    }
}

#[test]
fn chaos_torn_read_is_caught_invalidated_and_retried() {
    let dir = scratch_dir("torn_read");
    {
        let setup = Lakehouse::on_disk(&dir, LakehouseConfig::zero_latency()).unwrap();
        populate(&setup, 4);
    }
    let baseline = {
        let clean = Lakehouse::on_disk(&dir, LakehouseConfig::zero_latency()).unwrap();
        clean.query(SQL, "main").unwrap()
    };

    // Torn reads deliver truncated bodies as *successful* responses — only
    // the format layer's checksums can catch them. The poisoned bytes also
    // land in the shared pool, so detection must invalidate before the
    // retry, or every retry would re-serve the same garbage. The seed is
    // fixed: this schedule tears at least one read under the query while
    // leaving the catalog bootstrap intact.
    let pool = Arc::new(BufferPool::new(32 * 1024 * 1024));
    let config = LakehouseConfig {
        shared_pool: Some(Arc::clone(&pool)),
        chaos: Some(ChaosConfig::new(3).with_torn_read_p(0.35)),
        retry_max: 10,
        ..LakehouseConfig::zero_latency()
    };
    let lh = Lakehouse::on_disk(&dir, config).unwrap();
    let got = lh.query(SQL, "main").unwrap();
    assert_eq!(got, baseline, "retried query must be byte-identical");
    assert!(
        pool.metrics().verify_failures() > 0,
        "seeded schedule must tear at least one read (got {:?})",
        pool.metrics()
    );
    // The poisoned pages are gone: a second query over the same pool (chaos
    // may tear fresh fetches, but cached pages are the verified ones) still
    // answers correctly.
    assert_eq!(lh.query(SQL, "main").unwrap(), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shared_pool_engine_matches_engine_without_byte_cache() {
    let dir = scratch_dir("parity");
    {
        let setup = Lakehouse::on_disk(&dir, LakehouseConfig::zero_latency()).unwrap();
        populate(&setup, 4);
    }
    let plain = Lakehouse::on_disk(&dir, LakehouseConfig::zero_latency()).unwrap();
    let pool = Arc::new(BufferPool::new(32 * 1024 * 1024));
    let shared = Lakehouse::on_disk(&dir, pooled_config(&pool)).unwrap();
    for sql in [
        SQL,
        "SELECT COUNT(*) AS n FROM events WHERE id >= 128",
        "SELECT grp, SUM(val) AS s FROM events WHERE grp < 3 GROUP BY grp ORDER BY grp",
    ] {
        assert_eq!(
            plain.query(sql, "main").unwrap(),
            shared.query(sql, "main").unwrap(),
            "byte cache changed the result of {sql}"
        );
    }
    // Both engines keep parsed table metadata; only the pooled one also
    // keeps object bytes, counted on the pool.
    assert!(plain.metadata_cache().hits() > 0);
    assert!(shared.metadata_cache().hits() > 0);
    assert!(pool.metrics().hits() > 0);
    let row = plain
        .query("SELECT COUNT(*) AS n FROM events", "main")
        .unwrap();
    assert_eq!(row.row(0).unwrap()[0], Value::Int64(256));
    let _ = std::fs::remove_dir_all(&dir);
}
