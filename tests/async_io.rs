//! Async I/O dispatcher integration: overlapped data-file requests and
//! hedged reads stay byte-transparent end to end (across sleep modes, under
//! chaos stalls and torn reads), and a streaming LIMIT that terminates early
//! cancels the requests still queued before they ever reach the backend.

use bauplan_core::{ChaosConfig, Lakehouse, LakehouseConfig};
use bytes::Bytes;
use lakehouse_columnar::{BatchStream, Column, DataType, Field, RecordBatch, Schema};
use lakehouse_sql::{MemoryProvider, SqlEngine};
use lakehouse_store::{
    ChaosStore, HedgePolicy, InMemoryStore, IoDispatcher, LatencyModel, ObjectPath, ObjectStore,
    RetryPolicy, RetryStore, SimulatedStore, SleepMode, StoreMetrics,
};
use lakehouse_table::{PartitionSpec, SnapshotOperation, Table, TableIo};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

// ---- fixtures --------------------------------------------------------------

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
                       GROUP BY grp ORDER BY grp";

fn io_lakehouse(files: usize) -> Lakehouse {
    let config = LakehouseConfig {
        latency: LatencyModel::zero(),
        hedge_p95: true,
        ..Default::default()
    };
    let lh = Lakehouse::in_memory(config).unwrap();
    lh.create_table_partitioned(
        "events",
        &events_batch(files, 50),
        "main",
        PartitionSpec::identity("part"),
    )
    .unwrap();
    lh
}

/// Build a `files`-file partitioned table on a plain in-memory backend and
/// return `(backend, metadata location)` so tests can re-load it through an
/// arbitrary wrapper stack over the *same* objects.
fn seeded_backend(files: usize) -> (Arc<InMemoryStore>, String) {
    let base = Arc::new(InMemoryStore::new());
    let plain: Arc<dyn ObjectStore> = base.clone();
    let schema = Schema::new(vec![
        Field::new("part", DataType::Int64, false),
        Field::new("grp", DataType::Int64, false),
        Field::new("val", DataType::Float64, false),
    ]);
    let t = Table::create(
        Arc::clone(&plain),
        "wh/events",
        &schema,
        PartitionSpec::identity("part"),
    )
    .unwrap();
    let mut tx = t.new_transaction(SnapshotOperation::Append);
    tx.write(&events_batch(files, 20)).unwrap();
    let (loc, _) = tx.commit().unwrap();
    (base, loc)
}

/// `t`'s version reopened over `store` with `io` as its fetch workers.
fn with_workers(store: &Arc<dyn ObjectStore>, loc: &str, io: &Arc<IoDispatcher>) -> Table {
    let io = TableIo {
        dispatcher: Some(Arc::clone(io)),
        ..TableIo::default()
    };
    Table::load_with(Arc::clone(store), loc, io).expect("table load")
}

// ---- byte identity across sleep modes, chaos stalls ------------------------

#[test]
fn overlap_and_hedging_byte_identical_across_sleep_modes() {
    let (base, loc) = seeded_backend(8);
    let plain: Arc<dyn ObjectStore> = base.clone();
    let baseline = Table::load(Arc::clone(&plain), &loc)
        .unwrap()
        .scan()
        .execute()
        .unwrap();

    // SleepMode::None keeps everything on the simulated clock (hedging
    // self-disables: tail latency does not exist in wall time); a small
    // Scaled factor makes the store really sleep, so the dispatcher's
    // overlap and hedge timers run against wall time too.
    for (tag, mode) in [
        ("none", SleepMode::None),
        ("scaled", SleepMode::Scaled(0.002)),
    ] {
        let sim = SimulatedStore::with_seed(
            Arc::clone(&plain),
            LatencyModel {
                sigma: 0.0,
                ..LatencyModel::s3_like()
            },
            42,
        )
        .with_sleep_mode(mode);
        // Seeded chaos over the simulated store — transient faults and
        // latency stalls — and the layer that owns the faults on top of it.
        let chaos: Arc<dyn ObjectStore> = Arc::new(RetryStore::new(
            ChaosStore::new(
                sim,
                ChaosConfig::new(9).with_fault_p(0.05).with_stall_p(0.05),
            ),
            RetryPolicy::default().with_max_retries(8),
        ));
        let t = Table::load(Arc::clone(&chaos), &loc).expect("table load under chaos");

        let (demand, demand_report) = t.scan().execute_with_report().unwrap();
        assert_eq!(demand, baseline, "{tag}: inline path diverged");

        let hedge = Some(HedgePolicy::default());
        let io = Arc::new(IoDispatcher::new(Arc::clone(&chaos), 4, hedge).unwrap());
        let (ra, ra_report) = with_workers(&chaos, &loc, &io)
            .scan()
            .execute_with_report()
            .unwrap();
        assert_eq!(ra, baseline, "{tag}: overlap + hedging diverged");
        assert_eq!(demand_report.rows_emitted, ra_report.rows_emitted);
        assert_eq!(demand_report.files_read, ra_report.files_read);
        let stats = io.stats();
        assert!(stats.submitted >= 8, "{tag}: the workers never engaged");
        assert_eq!(stats.inflight, 0, "{tag}: submissions left dangling");
    }
}

// ---- torn reads: hedged/prefetched bytes verified before decoding ----------

#[test]
fn torn_reads_under_overlap_are_caught_and_retried() {
    // Torn reads deliver truncated bodies as *successful* responses, and the
    // overlapped path hands prefetched bytes straight to the decoder — the
    // truncation guard + format checksums must catch them and re-read.
    let dir = std::env::temp_dir().join(format!("bauplan_async_io_torn_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let setup = Lakehouse::on_disk(&dir, LakehouseConfig::zero_latency()).unwrap();
        for file in 0..4 {
            let b = events_batch(1, 64); // one data file per commit
            if file == 0 {
                setup.create_table("events", &b, "main").unwrap();
            } else {
                setup.append_table("events", &b, "main").unwrap();
            }
        }
    }
    let baseline = Lakehouse::on_disk(&dir, LakehouseConfig::zero_latency())
        .unwrap()
        .query(AGG_SQL, "main")
        .unwrap();

    let config = LakehouseConfig {
        chaos: Some(ChaosConfig::new(3).with_torn_read_p(0.35)),
        retry_max: 10,
        hedge_p95: true,
        ..LakehouseConfig::zero_latency()
    };
    let lh = Lakehouse::on_disk(&dir, config).unwrap();
    let got = lh.query(AGG_SQL, "main").unwrap();
    assert_eq!(got, baseline, "torn reads must never change the answer");
    let stats = lh.io_dispatcher().stats();
    assert!(stats.submitted > 0, "the workers must have been exercised");
    assert_eq!(stats.inflight, 0);
    // A second query, with its own torn reads, still answers correctly.
    assert_eq!(lh.query(AGG_SQL, "main").unwrap(), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- end-to-end equivalence through the platform ---------------------------

#[test]
fn end_to_end_query_matches_the_in_memory_oracle() {
    let mut oracle = MemoryProvider::new();
    oracle.register("events", events_batch(12, 50));
    let want = SqlEngine::new().query(AGG_SQL, &oracle).unwrap();
    let lh = io_lakehouse(12);
    let got = lh.query(AGG_SQL, "main").unwrap();
    assert_eq!(got, want, "overlap changed the bytes");
    let stats = lh.io_dispatcher().stats();
    assert!(
        stats.submitted >= 11,
        "scans must route through the dispatcher, stats {stats:?}"
    );
    assert_eq!(stats.inflight, 0);
}

// ---- streaming LIMIT cancels what it leaves in flight ------------------------------------

/// An in-memory store that holds every data-file read until the test
/// releases it, and counts them: queued-then-cancelled dispatcher
/// submissions must never show up in `data_gets`.
struct GatedStore {
    inner: InMemoryStore,
    data_gets: AtomicU64,
    /// Where each held read sends the handle that releases it, in arrival
    /// order.
    arrivals: Mutex<mpsc::Sender<mpsc::Sender<()>>>,
}

impl GatedStore {
    fn new(arrivals: mpsc::Sender<mpsc::Sender<()>>) -> GatedStore {
        GatedStore {
            inner: InMemoryStore::new(),
            data_gets: AtomicU64::new(0),
            arrivals: Mutex::new(arrivals),
        }
    }

    fn data_gets(&self) -> u64 {
        self.data_gets.load(Ordering::SeqCst)
    }
}

impl ObjectStore for GatedStore {
    fn put(&self, path: &ObjectPath, data: Bytes) -> lakehouse_store::Result<()> {
        self.inner.put(path, data)
    }

    fn get(&self, path: &ObjectPath) -> lakehouse_store::Result<Bytes> {
        if path.as_str().contains("/data/") {
            self.data_gets.fetch_add(1, Ordering::SeqCst);
            let (release, released) = mpsc::channel();
            let _ = self.arrivals.lock().unwrap().send(release);
            // A dropped handle releases the read too.
            let _ = released.recv();
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

#[test]
fn limit_early_termination_cancels_queued_requests() {
    // 8 one-file partitions behind a store that holds every data read until
    // it is released, and a consumer that stops after three batches (what a
    // streaming LIMIT does): by then the window has ramped 1 → 2 and stayed
    // at the two workers' width, so one request is submitted but
    // unconsumed. Dropping the stream must cancel it, and the four files
    // never submitted must never be fetched.
    let (arrivals, arrived) = mpsc::channel();
    let gated = Arc::new(GatedStore::new(arrivals));
    let store: Arc<dyn ObjectStore> = gated.clone();
    let schema = Schema::new(vec![
        Field::new("part", DataType::Int64, false),
        Field::new("grp", DataType::Int64, false),
        Field::new("val", DataType::Float64, false),
    ]);
    let t = Table::create(
        Arc::clone(&store),
        "wh/limit",
        &schema,
        PartitionSpec::identity("part"),
    )
    .unwrap();
    let mut tx = t.new_transaction(SnapshotOperation::Append);
    tx.write(&events_batch(8, 16)).unwrap();
    let (loc, _) = tx.commit().unwrap();
    let io = Arc::new(IoDispatcher::new(Arc::clone(&store), 2, None).unwrap());
    let mut stream = with_workers(&store, &loc, &io).scan().stream().unwrap();
    // The store's side: the first three data reads — the inline one and the
    // two the consumer waits for — are released as they arrive. (The
    // timeout only turns a hang into a failure.)
    let next_read = move |arrived: &mpsc::Receiver<mpsc::Sender<()>>| {
        let read = arrived.recv_timeout(Duration::from_secs(30));
        read.expect("a data read arrives")
    };
    let releaser = std::thread::spawn(move || {
        for _ in 0..3 {
            let _ = next_read(&arrived).send(());
        }
        arrived
    });
    // The first pull reads one file on this thread: a LIMIT it satisfies
    // has touched nothing else.
    assert!(stream.next_batch().unwrap().unwrap().num_rows() > 0);
    assert_eq!((gated.data_gets(), io.stats().submitted), (1, 0));
    for _ in 0..2 {
        assert!(stream.next_batch().unwrap().unwrap().num_rows() > 0);
    }
    assert_eq!(stream.report().files_read, 3);
    // The third pull submitted the fourth file, and a worker is free: its
    // read reaches the store while the stream still holds the ticket.
    let arrived = releaser.join().unwrap();
    let fourth = next_read(&arrived);
    drop(stream); // LIMIT satisfied: early termination.

    let stats = io.stats();
    assert_eq!(
        (stats.submitted, stats.cancelled),
        (3, 1),
        "what was submitted but not consumed must be cancelled, stats {stats:?}"
    );
    assert_eq!(stats.inflight, 0, "stats {stats:?}");
    // Release the abandoned read and join the workers: every read that
    // will ever be made has been. The inline file, the two consumed
    // requests and the one in flight at the drop is all that was fetched.
    drop(fourth);
    drop(io);
    let fetched = gated.data_gets();
    assert!(
        fetched <= 4,
        "cancelled submissions reached the backend: {fetched} of 8 data files fetched"
    );
    assert_eq!(fetched, 4, "the request in flight at the drop was made");
}

#[test]
fn streaming_limit_through_platform_leaves_no_dangling_submissions() {
    // 51 rows of 50-row files: the second pull puts two requests in flight
    // and consumes one.
    let lh = io_lakehouse(8);
    let got = lh
        .query("SELECT part, val FROM events LIMIT 51", "main")
        .unwrap();
    assert_eq!(got.num_rows(), 51);
    let stats = lh.io_dispatcher().stats();
    assert_eq!(
        stats.submitted,
        stats.completed + stats.cancelled,
        "every submission must be consumed or cancelled, stats {stats:?}"
    );
    assert_eq!(stats.inflight, 0, "stats {stats:?}");
    assert!(
        stats.cancelled > 0,
        "the LIMIT must cancel the request it did not consume, stats {stats:?}"
    );
}
