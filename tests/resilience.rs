//! Failure injection across the stack: storage faults must surface as
//! errors (never panics or corruption), failed runs must roll back, and
//! optimistic catalog commits must survive CAS contention from concurrent
//! writers.

use bauplan_core::{
    BauplanError, Lakehouse, LakehouseConfig, NodeDef, PipelineProject, RunOptions,
};
use bytes::Bytes;
use lakehouse_catalog::{Catalog, ContentRef, Operation};
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema};
use lakehouse_store::{
    ChaosConfig, ChaosStore, FaultKind, InMemoryStore, LatencyModel, ObjectPath, ObjectStore,
    StoreError,
};
use lakehouse_table::{PartitionSpec, SnapshotOperation, Table, TableError};
use std::sync::Arc;

fn batch(n: i64) -> RecordBatch {
    RecordBatch::try_new(
        Schema::new(vec![Field::new("x", DataType::Int64, false)]),
        vec![Column::from_i64((0..n).collect())],
    )
    .unwrap()
}

#[test]
fn table_write_faults_surface_cleanly() {
    // Every 5th put fails: some transactions complete between faults, some
    // hit one; errors must propagate as TableError::Store, never corrupt.
    // (A create+write+commit needs 4 puts, so period 5 interleaves both
    // outcomes across attempts.)
    let store: Arc<dyn ObjectStore> = Arc::new(ChaosStore::new(
        InMemoryStore::new(),
        ChaosConfig::every(FaultKind::Puts, 5),
    ));
    let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
    let mut failures = 0;
    let mut successes = 0;
    for i in 0..6 {
        let result = Table::create(
            Arc::clone(&store),
            &format!("wh/t{i}"),
            &schema,
            PartitionSpec::unpartitioned(),
        )
        .and_then(|t| {
            let mut tx = t.new_transaction(SnapshotOperation::Append);
            tx.write(&batch(10))?;
            tx.commit().map(|_| ())
        });
        match result {
            Ok(()) => successes += 1,
            Err(e) => {
                failures += 1;
                assert!(e.to_string().contains("injected fault"), "{e}");
            }
        }
    }
    assert!(failures > 0, "faults should have fired");
    assert!(successes > 0, "some writes should succeed");
}

#[test]
fn read_faults_do_not_poison_subsequent_reads() {
    let flaky = ChaosStore::new(InMemoryStore::new(), ChaosConfig::every(FaultKind::Gets, 2));
    let p = ObjectPath::new("k").unwrap();
    flaky.put(&p, Bytes::from_static(b"v")).unwrap();
    let mut saw_error = false;
    let mut saw_ok = false;
    for _ in 0..6 {
        match flaky.get(&p) {
            Ok(b) => {
                assert_eq!(b.as_ref(), b"v");
                saw_ok = true;
            }
            Err(_) => saw_error = true,
        }
    }
    assert!(saw_error && saw_ok);
}

#[test]
fn concurrent_catalog_commits_all_land() {
    // 8 threads commit concurrently to the same branch; CAS retries must
    // serialize them without losing any commit.
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let catalog = Arc::new(Catalog::init(Arc::clone(&store), "_cat").unwrap());
    let threads = 8;
    let per_thread = 5;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let catalog = Arc::clone(&catalog);
            scope.spawn(move || {
                for i in 0..per_thread {
                    // Retry on ConcurrentUpdate (the caller contract).
                    loop {
                        let r = catalog.commit(
                            "main",
                            &format!("writer-{t}"),
                            &format!("commit {t}/{i}"),
                            vec![Operation::Put {
                                key: format!("table_{t}_{i}"),
                                content: ContentRef::new("meta", 1),
                            }],
                        );
                        match r {
                            Ok(_) => break,
                            Err(lakehouse_catalog::CatalogError::ConcurrentUpdate(_))
                            | Err(lakehouse_catalog::CatalogError::CommitContended { .. }) => {
                                continue
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
            });
        }
    });
    let state = catalog.state_at("main").unwrap();
    assert_eq!(state.len(), threads * per_thread);
    // History depth equals total commits.
    assert_eq!(
        catalog.log("main", 1000).unwrap().len(),
        threads * per_thread
    );
}

#[test]
fn concurrent_branch_creation_is_safe() {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let catalog = Arc::new(Catalog::init(Arc::clone(&store), "_cat").unwrap());
    catalog
        .commit(
            "main",
            "seed",
            "base",
            vec![Operation::Put {
                key: "t".into(),
                content: ContentRef::new("m", 1),
            }],
        )
        .unwrap();
    std::thread::scope(|scope| {
        for t in 0..8 {
            let catalog = Arc::clone(&catalog);
            scope.spawn(move || {
                catalog
                    .create_branch(&format!("feat_{t}"), Some("main"))
                    .unwrap();
            });
        }
    });
    let refs = catalog.list_refs().unwrap();
    assert_eq!(refs.len(), 9); // main + 8 feature branches
}

#[test]
fn catalog_survives_intermittent_store_faults_with_retries() {
    // Every 7th op fails; a retry loop at the application level must make
    // progress and end in a consistent state.
    let store: Arc<dyn ObjectStore> = Arc::new(ChaosStore::new(
        InMemoryStore::new(),
        ChaosConfig::every(FaultKind::All, 7),
    ));
    // Catalog::init itself may hit a fault; retry.
    let catalog = loop {
        match Catalog::init(Arc::clone(&store), "_cat") {
            Ok(c) => break c,
            Err(lakehouse_catalog::CatalogError::Store(_)) => continue,
            Err(lakehouse_catalog::CatalogError::RefAlreadyExists(_)) => {
                break Catalog::open(Arc::clone(&store), "_cat").unwrap()
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    };
    let mut committed = 0;
    for i in 0..10 {
        loop {
            match catalog.commit(
                "main",
                "w",
                &format!("c{i}"),
                vec![Operation::Put {
                    key: format!("t{i}"),
                    content: ContentRef::new("m", 1),
                }],
            ) {
                Ok(_) => {
                    committed += 1;
                    break;
                }
                Err(lakehouse_catalog::CatalogError::Store(_))
                | Err(lakehouse_catalog::CatalogError::ConcurrentUpdate(_))
                | Err(lakehouse_catalog::CatalogError::CommitContended { .. }) => continue,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
    assert_eq!(committed, 10);
    // Final state consistent despite injected faults along the way. (State
    // reads may themselves hit faults; retry.)
    let state = loop {
        match catalog.state_at("main") {
            Ok(s) => break s,
            Err(lakehouse_catalog::CatalogError::Store(_)) => continue,
            Err(e) => panic!("unexpected: {e}"),
        }
    };
    assert_eq!(state.len(), 10);
}

// ---- seeded chaos soak through the full platform stack ---------------------
//
// These tests build two lakehouses over identical data — one fault-free, one
// with the seeded chaos layer between the retry layer and the simulated
// store — and assert that, with retries on, every result is byte-identical
// to the fault-free baseline. Determinism holds because the default config
// is fully serial (scan/sql parallelism 1), so the chaos RNG sees the same
// op sequence on every run of a given seed.

/// The PR 1 parallel-scan fixture shape: an `events` table spanning `files`
/// identity-partition data files of `rows_per` rows each.
fn events_batch(files: usize, rows_per: usize) -> RecordBatch {
    let total = files * rows_per;
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("part", DataType::Int64, false),
            Field::new("grp", DataType::Int64, false),
            Field::new("val", DataType::Float64, false),
        ]),
        vec![
            Column::from_i64((0..total).map(|i| (i / rows_per) as i64).collect()),
            Column::from_i64((0..total).map(|i| (i % 7) as i64).collect()),
            Column::from_f64((0..total).map(|i| i as f64 * 0.5).collect()),
        ],
    )
    .unwrap()
}

const AGG_SQL: &str = "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM events \
                       WHERE val < 1.0e9 GROUP BY grp ORDER BY grp";

fn soak_lakehouse(
    chaos: Option<ChaosConfig>,
    retry_max: u32,
    files: usize,
    rows_per: usize,
) -> Lakehouse {
    let config = LakehouseConfig {
        latency: LatencyModel::zero(),
        chaos,
        retry_max,
        ..Default::default()
    };
    let lh = Lakehouse::in_memory(config).expect("lakehouse under chaos");
    lh.create_table_partitioned(
        "events",
        &events_batch(files, rows_per),
        "main",
        PartitionSpec::identity("part"),
    )
    .expect("fixture ingest under chaos");
    lh
}

#[test]
fn chaos_soak_query_byte_identical_with_retries() {
    // 24-file scan-filter-aggregate at fault p = 0.1 (plus throttles and
    // stalls), absorbed by 8 retries: same bytes as the fault-free run.
    let chaos = ChaosConfig::new(42)
        .with_fault_p(0.1)
        .with_throttle_p(0.02)
        .with_stall_p(0.02);
    let baseline = soak_lakehouse(None, 0, 24, 200);
    let chaotic = soak_lakehouse(Some(chaos), 8, 24, 200);
    let want = baseline.query(AGG_SQL, "main").expect("baseline query");
    let got = chaotic.query(AGG_SQL, "main").expect("chaotic query");
    assert_eq!(got, want, "results must be byte-identical");
    // The resilience layer must be *visible*: backoff charged to the
    // simulated clock and retry counters in the lakehouse-obs registry
    // (monotonic, so >= is safe under parallel tests).
    assert!(
        chaotic.store_metrics().stall_time() > std::time::Duration::ZERO,
        "chaos + retries must charge simulated stall time"
    );
    assert!(lakehouse_obs::global().counter("retry.attempts").get() >= 1);
    assert_eq!(
        baseline.store_metrics().stall_time(),
        std::time::Duration::ZERO,
        "fault-free baseline must not stall"
    );
}

#[test]
fn chaos_soak_full_run_matches_fault_free_baseline() {
    let project = PipelineProject::new("soak")
        .with(NodeDef::sql(
            "filtered",
            "SELECT grp, val FROM events WHERE val < 1.0e9",
        ))
        .with(NodeDef::sql(
            "by_grp",
            "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM filtered \
             GROUP BY grp ORDER BY grp",
        ));
    let baseline = soak_lakehouse(None, 0, 24, 100);
    let chaotic = soak_lakehouse(Some(ChaosConfig::new(7).with_fault_p(0.1)), 8, 24, 100);
    let want = baseline
        .run(&project, &RunOptions::default())
        .expect("baseline run");
    let got = chaotic
        .run(&project, &RunOptions::default())
        .expect("chaotic run");
    assert!(want.success && got.success);
    assert_eq!(got.artifact_rows, want.artifact_rows);
    for artifact in ["filtered", "by_grp"] {
        assert_eq!(
            chaotic
                .read_table(artifact, "main")
                .expect("chaotic artifact"),
            baseline
                .read_table(artifact, "main")
                .expect("baseline artifact"),
            "artifact '{artifact}' must be byte-identical under chaos"
        );
    }
}

#[test]
fn chaos_soak_branch_merge_stays_consistent() {
    let build = |chaos, retry_max| {
        let lh = soak_lakehouse(chaos, retry_max, 6, 50);
        lh.create_branch("feat", Some("main")).expect("branch");
        lh.append_table("events", &events_batch(2, 50), "feat")
            .expect("append on branch");
        lh.merge("feat", "main").expect("merge");
        lh.query("SELECT COUNT(*) AS n, SUM(val) AS s FROM events", "main")
            .expect("post-merge query")
    };
    let want = build(None, 0);
    let got = build(Some(ChaosConfig::new(13).with_fault_p(0.1)), 8);
    assert_eq!(got, want, "branch/append/merge must survive chaos intact");
}

#[test]
fn chaos_soak_is_deterministic_across_seeds() {
    // Property over seeds: any seed either yields the baseline bytes or a
    // typed error — never corruption, never a panic. At p = 0.1 with 8
    // retries every seed should in fact succeed.
    let baseline = soak_lakehouse(None, 0, 12, 50);
    let want = baseline.query(AGG_SQL, "main").unwrap();
    for seed in 1..=5u64 {
        let chaotic = soak_lakehouse(Some(ChaosConfig::new(seed).with_fault_p(0.1)), 8, 12, 50);
        let got = chaotic
            .query(AGG_SQL, "main")
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(got, want, "seed {seed} diverged from the baseline");
    }
}

#[test]
fn chaos_soak_one_instance_absorbs_faults_across_many_queries() {
    // The retry budget belongs to the store instance and is never refilled:
    // at fault p = 0.05 with 8 retries it must last 20 queries on one
    // lakehouse, each byte-identical to the fault-free run.
    let want = soak_lakehouse(None, 0, 12, 200)
        .query(AGG_SQL, "main")
        .unwrap();
    let chaotic = soak_lakehouse(
        Some(ChaosConfig::new(0xC4A05).with_fault_p(0.05)),
        8,
        12,
        200,
    );
    let stalled_before = chaotic.store_metrics().stall_time();
    for trial in 0..20 {
        let got = chaotic
            .query(AGG_SQL, "main")
            .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        assert_eq!(got, want, "trial {trial} diverged from the baseline");
    }
    // Retry backoff is charged to this instance's simulated clock.
    assert!(
        chaotic.store_metrics().stall_time() > stalled_before,
        "faults at p = 0.05 must make the queries retry"
    );
}

/// Passes everything through, except that the first read of each data file
/// comes back with one bit flipped in its middle: same length, so only a
/// chunk checksum can tell. Counts the data-file reads that reach it.
#[derive(Default)]
struct FlipFirstRead {
    inner: InMemoryStore,
    data_reads: std::sync::Mutex<std::collections::BTreeMap<String, usize>>,
}

impl FlipFirstRead {
    fn serve(&self, path: &ObjectPath, data: Bytes) -> Bytes {
        if !path.as_str().contains("/data/") {
            return data;
        }
        let mut reads = self.data_reads.lock().unwrap();
        let n = reads.entry(path.as_str().to_string()).or_default();
        *n += 1;
        if *n > 1 {
            return data;
        }
        let mut flipped = data.to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x04;
        Bytes::from(flipped)
    }
}

impl ObjectStore for FlipFirstRead {
    fn put(&self, path: &ObjectPath, data: Bytes) -> lakehouse_store::Result<()> {
        self.inner.put(path, data)
    }
    fn get(&self, path: &ObjectPath) -> lakehouse_store::Result<Bytes> {
        Ok(self.serve(path, self.inner.get(path)?))
    }
    fn get_range(&self, path: &ObjectPath, s: usize, e: usize) -> lakehouse_store::Result<Bytes> {
        Ok(self.serve(path, self.inner.get_range(path, s, e)?))
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
}

#[test]
fn corrupt_merged_reads_are_caught_invalidated_and_retried_whole_file() {
    // Each data file here travels as one merged request, so a torn or
    // bit-flipped response poisons the whole file's bytes at once. The query
    // must still return
    // the fault-free bytes whether the scan puts its whole window of
    // requests in flight at once (no row budget: the aggregate) or ramps it
    // (a `LIMIT` that happens to cover every row) — either way a worker
    // hands the poisoned bytes straight to the decoder.
    const RAMPED_SQL: &str = "SELECT part, grp, val FROM events LIMIT 600";
    let fault_free = soak_lakehouse(None, 0, 12, 50);
    let queries = [AGG_SQL, RAMPED_SQL].map(|sql| (sql, fault_free.query(sql, "main").unwrap()));
    assert_eq!(queries[1].1.num_rows(), 600);

    let seed_events = |backend: &Arc<dyn ObjectStore>| {
        Lakehouse::with_store(Arc::clone(backend), LakehouseConfig::zero_latency())
            .unwrap()
            .create_table_partitioned(
                "events",
                &events_batch(12, 50),
                "main",
                PartitionSpec::identity("part"),
            )
            .unwrap();
    };

    // Bit flips: detected by the chunk CRC alone. One whole-file retry per
    // file, and it reaches the backend.
    let base = || LakehouseConfig {
        latency: LatencyModel::zero(),
        retry_max: 2,
        ..Default::default()
    };
    // Each query over a backend of its own.
    for (sql, want) in &queries {
        let store = Arc::new(FlipFirstRead::default());
        let backend = Arc::clone(&store) as Arc<dyn ObjectStore>;
        seed_events(&backend);
        let lh = Lakehouse::with_store(backend, base()).unwrap();
        assert_eq!(&lh.query(sql, "main").unwrap(), want, "{sql}");
        let reads = store.data_reads.lock().unwrap().clone();
        assert_eq!(reads.len(), 12);
        assert!(reads.values().all(|&n| n == 2), "{sql}: {reads:?}");
        // Clean bytes now: each file is read once more, with no retry.
        assert_eq!(&lh.query(sql, "main").unwrap(), want, "{sql}");
        let again = store.data_reads.lock().unwrap().clone();
        assert!(again.values().all(|&n| n == 3), "{sql}: {again:?}");
    }

    // Torn reads, seeded: truncated-but-Ok bodies.
    for seed in 1..=4u64 {
        let base = || LakehouseConfig {
            latency: LatencyModel::zero(),
            chaos: Some(ChaosConfig::new(seed).with_torn_read_p(0.3)),
            retry_max: 10,
            ..Default::default()
        };
        for (sql, want) in &queries {
            let backend: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
            seed_events(&backend);
            let lh = Lakehouse::with_store(backend, base()).unwrap();
            let got = lh
                .query(sql, "main")
                .unwrap_or_else(|e| panic!("seed {seed}: {sql}: {e}"));
            assert_eq!(&got, want, "seed {seed}: a torn read became a wrong value");
        }
    }
}

#[test]
fn retry_budget_exhaustion_is_typed_not_a_panic() {
    // A 1 ms budget cannot pay even one 25 ms base backoff, so the first
    // transient fault surfaces as `RetriesExhausted` — typed, with the
    // attempt count, and never classified retryable itself.
    let config = LakehouseConfig {
        latency: LatencyModel::zero(),
        chaos: Some(ChaosConfig::new(11).with_fault_p(0.5)),
        retry_max: 4,
        retry_budget_ms: 1,
        ..Default::default()
    };
    let result = Lakehouse::in_memory(config).and_then(|lh| {
        lh.create_table("t", &batch(16), "main")?;
        lh.query("SELECT SUM(x) AS s FROM t", "main")
    });
    let err = result.expect_err("fault p = 0.5 with a 1 ms budget must fail");
    assert!(
        err.to_string().contains("retries exhausted"),
        "expected a typed RetriesExhausted, got: {err}"
    );
}

/// Passes everything through until armed; from then on every read of a
/// data file fails with a transient fault, and is counted.
#[derive(Default)]
struct FailDataReads {
    inner: InMemoryStore,
    armed: std::sync::atomic::AtomicBool,
    failed_reads: std::sync::atomic::AtomicU32,
}

impl FailDataReads {
    fn check(&self, path: &ObjectPath) -> lakehouse_store::Result<()> {
        use std::sync::atomic::Ordering::SeqCst;
        if self.armed.load(SeqCst) && path.as_str().contains("/data/") {
            self.failed_reads.fetch_add(1, SeqCst);
            return Err(StoreError::Transient(format!("{path} is unreachable")));
        }
        Ok(())
    }
}

impl ObjectStore for FailDataReads {
    fn put(&self, path: &ObjectPath, data: Bytes) -> lakehouse_store::Result<()> {
        self.inner.put(path, data)
    }
    fn get(&self, path: &ObjectPath) -> lakehouse_store::Result<Bytes> {
        self.check(path)?;
        self.inner.get(path)
    }
    fn get_range(&self, path: &ObjectPath, s: usize, e: usize) -> lakehouse_store::Result<Bytes> {
        self.check(path)?;
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
}

/// A transient fault has one owner. The `RetryStore` retries the failing
/// request `retry_max` times and gives up, typed; nothing above it may take
/// the give-up's text (`RetriesExhausted` prints its last cause) for a
/// transient fault and run the step again. Before PR 20 the run's step loop
/// did: `(retry_max + 1)²` reads and `retry_max + 1` give-ups per failing
/// read.
#[test]
fn an_exhausted_store_retry_is_not_retried_by_the_run() {
    use std::sync::atomic::Ordering::SeqCst;
    const RETRY_MAX: u32 = 2;
    let store = Arc::new(FailDataReads::default());
    let config = LakehouseConfig {
        latency: LatencyModel::zero(),
        retry_max: RETRY_MAX,
        ..Default::default()
    };
    let lh = Lakehouse::with_store(Arc::clone(&store) as Arc<dyn ObjectStore>, config).unwrap();
    lh.create_table("t", &batch(16), "main").unwrap();
    let project = PipelineProject::new("copy").with(NodeDef::sql("copy", "SELECT x FROM t"));
    let giveups = lakehouse_obs::global().counter("retry.giveups");

    store.armed.store(true, SeqCst);
    let giveups_before = giveups.get();
    let err = lh
        .run(&project, &RunOptions::default())
        .expect_err("the only data file cannot be read");
    assert_eq!(
        store.failed_reads.load(SeqCst),
        RETRY_MAX + 1,
        "one request, retried {RETRY_MAX} times, given up once: {err}"
    );
    // The counter is process-wide (other tests of this binary give up too),
    // so only its lower bound is this test's.
    assert!(giveups.get() > giveups_before);
    assert_eq!(lh.list_tables("main").unwrap(), vec!["t"], "rolled back");

    // The typed read path shows what the store ended the fault as.
    store.failed_reads.store(0, SeqCst);
    match lh.read_table("t", "main") {
        Err(BauplanError::Table(TableError::Store(StoreError::RetriesExhausted {
            attempts,
            last,
            ..
        }))) => {
            assert_eq!(attempts, RETRY_MAX + 1);
            assert!(matches!(*last, StoreError::Transient(_)));
        }
        other => panic!("expected RetriesExhausted by type, got {other:?}"),
    }
    assert_eq!(store.failed_reads.load(SeqCst), RETRY_MAX + 1);

    // So does a SQL statement's: the executor carries a scan's error as it
    // is, under text that reads as it always did.
    store.failed_reads.store(0, SeqCst);
    let err = lh
        .query("SELECT x FROM t", "main")
        .expect_err("the only data file cannot be read");
    match err.find::<StoreError>() {
        Some(StoreError::RetriesExhausted { attempts, last, .. }) => {
            assert_eq!(*attempts, RETRY_MAX + 1);
            assert!(matches!(**last, StoreError::Transient(_)));
        }
        other => panic!("expected RetriesExhausted by type, got {other:?}: {err}"),
    }
    let text = err.to_string();
    assert!(
        text.starts_with("sql: execution error: store error: retries exhausted on "),
        "{text}"
    );
    assert_eq!(store.failed_reads.load(SeqCst), RETRY_MAX + 1);
}

#[test]
fn default_config_adds_no_resilience_overhead() {
    // Defaults (retries off, chaos off) must leave the store stack — and
    // thus every op-count- and latency-asserting test — untouched: no
    // stall time is ever charged, and results match a retry-enabled stack.
    let plain = soak_lakehouse(None, 0, 6, 50);
    let retrying = soak_lakehouse(None, 4, 6, 50);
    assert_eq!(
        plain.query(AGG_SQL, "main").unwrap(),
        retrying.query(AGG_SQL, "main").unwrap()
    );
    assert_eq!(
        plain.store_metrics().stall_time(),
        std::time::Duration::ZERO
    );
    assert_eq!(
        retrying.store_metrics().stall_time(),
        std::time::Duration::ZERO,
        "a fault-free store must never pay backoff"
    );
}

// ---- cooperative cancellation under faults (ISSUE 9) -----------------------

/// A query whose deadline trips *during* retry backoff must die promptly:
/// the server's 10 s retry-after hint is capped at the remaining deadline,
/// so the query pays at most one capped attempt past the deadline instead
/// of honoring the full hint — and the failure is typed, attributed, and
/// counted.
#[test]
fn deadline_kills_mid_retry_backoff_promptly_and_typed() {
    const Q: &str = "SELECT SUM(val) AS deadline_probe FROM events";
    let mut chaos = ChaosConfig::new(11).with_throttle_p(0.9);
    chaos.throttle_retry_after = std::time::Duration::from_secs(10);
    let config = LakehouseConfig {
        latency: LatencyModel::zero(),
        chaos: Some(chaos),
        retry_max: 1000,
        // Simulated stall is free wall-clock-wise; give ingest all the
        // budget it wants so only the query's own deadline is the limit.
        retry_budget_ms: 1_000_000_000,
        query_timeout_ms: 50,
        ..Default::default()
    };
    let lh = Lakehouse::in_memory(config).expect("lakehouse under throttle chaos");
    lh.create_table("events", &events_batch(6, 50), "main")
        .expect("ingest has no query deadline and retries through throttles");

    let killed_before = lakehouse_obs::global()
        .counter("query.killed.deadline")
        .get();
    let wall = std::time::Instant::now();
    let err = lh
        .query(Q, "main")
        .expect_err("90% throttles cannot finish in 50 ms");
    assert!(
        matches!(
            err,
            bauplan_core::BauplanError::QueryKilled {
                reason: lakehouse_obs::KillReason::Deadline
            }
        ),
        "expected a typed deadline kill, got: {err}"
    );
    assert!(
        wall.elapsed() < std::time::Duration::from_secs(2),
        "kill must be prompt (backoff is simulated, checks are per attempt)"
    );
    assert!(
        lakehouse_obs::global()
            .counter("query.killed.deadline")
            .get()
            > killed_before
    );

    // The attributed record: status "killed", reason "deadline", and the
    // charged stall bounded by the deadline plus one capped attempt — not
    // by the 10 s server hint.
    let record = lakehouse_obs::query_log()
        .snapshot()
        .into_iter()
        .rev()
        .find(|r| r.label == Q)
        .expect("killed queries still land in the query log");
    assert_eq!(record.status, "killed");
    assert_eq!(record.reason, "deadline");
    assert!(
        record.ledger.retry_stall_nanos <= std::time::Duration::from_millis(200).as_nanos() as u64,
        "stall {} ns must be capped near the 50 ms deadline, not the 10 s hint",
        record.ledger.retry_stall_nanos
    );
}

/// The per-query memory budget is enforced on every statement (before PR 17
/// only the opt-in streaming executor looked at it): with the default
/// configuration plus a budget far below one data file, a full-table
/// aggregate dies with the typed kill, and a budget it fits in changes
/// nothing.
#[test]
fn memory_budget_kills_a_default_config_aggregate_typed() {
    const Q: &str = "SELECT grp, COUNT(*) AS memory_probe, SUM(val) AS s FROM events \
                     GROUP BY grp ORDER BY grp";
    let make = events_under_memory_budget;
    let want = make(0).query(Q, "main").expect("unbudgeted");

    let killed_before = lakehouse_obs::global().counter("query.killed.memory").get();
    let err = make(2048)
        .query(Q, "main")
        .expect_err("one 12 KB file is already over a 2 KB budget");
    assert!(
        matches!(
            err,
            bauplan_core::BauplanError::QueryKilled {
                reason: lakehouse_obs::KillReason::MemoryBudget
            }
        ),
        "expected a typed memory-budget kill, got: {err}"
    );
    assert!(lakehouse_obs::global().counter("query.killed.memory").get() > killed_before);
    let record = lakehouse_obs::query_log()
        .snapshot()
        .into_iter()
        .rev()
        .find(|r| r.label == Q && r.status == "killed")
        .expect("killed queries still land in the query log");
    assert_eq!(record.reason, "memory_budget");

    // The aggregate holds a file and its group state, not the table: a
    // budget of half the table is plenty, and changes no byte.
    assert_eq!(make(48 * 1024).query(Q, "main").expect("fits"), want);
}

/// `events` as 8 files of 500 rows x 24 bytes (12 KB each, 96 KB in all) on
/// a lakehouse whose statements run under a memory budget (0: none).
fn events_under_memory_budget(memory_budget_bytes: u64) -> Lakehouse {
    let config = LakehouseConfig {
        latency: LatencyModel::zero(),
        memory_budget_bytes,
        ..Default::default()
    };
    let lh = Lakehouse::in_memory(config).expect("lakehouse");
    lh.create_table_partitioned(
        "events",
        &events_batch(8, 500),
        "main",
        PartitionSpec::identity("part"),
    )
    .expect("fixture ingest");
    lh
}

/// A sort under a LIMIT holds its candidate rows and one input batch, not
/// its input: `ORDER BY ... LIMIT 10` over the 96 KB table finishes under
/// the 48 KB budget a full sort (the table plus its concatenation) cannot.
#[test]
fn an_order_by_limit_fits_a_budget_its_input_does_not() {
    const Q: &str = "SELECT * FROM events ORDER BY val DESC, grp LIMIT 10";
    let want = events_under_memory_budget(0)
        .query(Q, "main")
        .expect("unbudgeted");
    assert_eq!(want.num_rows(), 10);
    let got = events_under_memory_budget(48 * 1024)
        .query(Q, "main")
        .expect("a top-10 sort holds a file and ten rows, not the table");
    assert_eq!(got, want);
}

/// A query killed mid-scan (I/O byte budget) with overlapped requests in
/// flight must not leak dispatcher tickets: everything it submitted is
/// claimed or cancelled, and `io.inflight` returns to zero.
#[test]
fn killed_query_leaks_no_io_tickets() {
    const Q: &str = "SELECT SUM(val) AS io_probe FROM events";
    let make = |io_budget_bytes: u64| {
        let config = LakehouseConfig {
            latency: LatencyModel::zero(),
            io_budget_bytes,
            ..Default::default()
        };
        let lh = Lakehouse::in_memory(config).expect("lakehouse with dispatcher");
        // Identity-partitioned so the scan spans 24 data files — the budget
        // must trip *between* files, with tickets outstanding.
        lh.create_table_partitioned(
            "events",
            &events_batch(24, 100),
            "main",
            PartitionSpec::identity("part"),
        )
        .expect("fixture ingest");
        lh
    };
    // Measure the query's attributed bytes unbudgeted, then rebuild with a
    // budget of half that: the kill is then guaranteed to land mid-scan,
    // with tickets outstanding.
    let unbudgeted = make(0);
    unbudgeted.query(Q, "main").expect("unbudgeted query runs");
    let full_bytes = lakehouse_obs::query_log()
        .snapshot()
        .into_iter()
        .rev()
        .find(|r| r.label == Q && r.status == "ok")
        .expect("unbudgeted record")
        .ledger
        .io_bytes;
    assert!(full_bytes > 0);

    let budgeted = make(full_bytes / 2);
    let err = budgeted
        .query(Q, "main")
        .expect_err("half the bytes cannot finish");
    assert!(
        matches!(
            err,
            bauplan_core::BauplanError::QueryKilled {
                reason: lakehouse_obs::KillReason::IoBudget
            }
        ),
        "expected a typed I/O-budget kill, got: {err}"
    );
    let io = budgeted.io_dispatcher().as_ref();
    assert!(io.stats().submitted > 0, "the scan reached the dispatcher");
    // Drain: a worker may still be finishing an abandoned ticket.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while io.stats().inflight > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(io.stats().inflight, 0, "killed query must not leak tickets");
    assert_eq!(
        io.stats().submitted,
        io.stats().completed + io.stats().cancelled
    );
}

/// Killed queries on one front must leave a shared backend consistent: a
/// well-behaved front over the same backend still gets byte-identical
/// results afterwards.
#[test]
fn killed_queries_leave_a_shared_backend_consistent() {
    const Q: &str = "SELECT grp, SUM(val) AS kill_probe FROM events GROUP BY grp ORDER BY grp";
    let backend: Arc<dyn lakehouse_store::ObjectStore> = Arc::new(InMemoryStore::new());
    let front = |io_budget_bytes: u64| LakehouseConfig {
        latency: LatencyModel::zero(),
        io_budget_bytes,
        ..Default::default()
    };

    let healthy = Lakehouse::with_store(Arc::clone(&backend), front(0)).unwrap();
    healthy
        .create_table_partitioned(
            "events",
            &events_batch(12, 100),
            "main",
            PartitionSpec::identity("part"),
        )
        .expect("fixture ingest");
    let want = healthy.query(Q, "main").expect("healthy baseline");
    let full_bytes = lakehouse_obs::query_log()
        .snapshot()
        .into_iter()
        .rev()
        .find(|r| r.label == Q && r.status == "ok")
        .expect("baseline record")
        .ledger
        .io_bytes;

    // A budget-capped front over the *same* backend: every query it runs is
    // killed partway through the scan.
    let victim = Lakehouse::with_store(Arc::clone(&backend), front((full_bytes / 2).max(1)))
        .expect("second instance opens the existing catalog");
    for _ in 0..3 {
        let err = victim
            .query(Q, "main")
            .expect_err("budgeted instance is killed");
        assert!(
            matches!(err, bauplan_core::BauplanError::QueryKilled { .. }),
            "expected a typed kill, got: {err}"
        );
    }

    // The lake survived the carnage: same bytes.
    assert_eq!(healthy.query(Q, "main").expect("healthy again"), want);
}
