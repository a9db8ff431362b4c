//! The admission gate, end to end, as a multi-front embedder sets it up —
//! several `Lakehouse` fronts over one store and one `AdmissionController`:
//! DAG stages from concurrent runs interleaving under the shared gate,
//! waiters draining in arrival order, overload shed typed (queue overflow
//! and queue deadline), and the `queue_wait_ms` telemetry column.

use bauplan_core::{
    AdmissionConfig, AdmissionController, BauplanError, Lakehouse, LakehouseConfig, NodeDef,
    PipelineProject, RunOptions,
};
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// The flight recorder and query log are process-wide; tests that assert on
/// retained events serialize on this lock (other test binaries are separate
/// processes).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn base_batch(n: i64) -> RecordBatch {
    RecordBatch::try_new(
        Schema::new(vec![Field::new("x", DataType::Int64, false)]),
        vec![Column::from_i64((0..n).collect())],
    )
    .unwrap()
}

/// A three-step function chain (base → t1 → t2 → t3): three stages in naive
/// mode, each holding its admission slot for real wall time.
fn chain_project() -> PipelineProject {
    PipelineProject::new("chain")
        .with(NodeDef::function(
            "t1",
            vec!["base".into()],
            Default::default(),
            "slow1",
        ))
        .with(NodeDef::function(
            "t2",
            vec!["t1".into()],
            Default::default(),
            "slow2",
        ))
        .with(NodeDef::function(
            "t3",
            vec!["t2".into()],
            Default::default(),
            "slow3",
        ))
}

fn chain_lakehouse(tenant: &str, gate: AdmissionController) -> Lakehouse {
    let config = LakehouseConfig {
        tenant: tenant.into(),
        execution_mode: bauplan_core::ExecutionMode::Naive,
        ..LakehouseConfig::zero_latency()
    };
    let mut lh = Lakehouse::in_memory(config).unwrap();
    lh.set_admission(Some(gate));
    for (fid, input) in [("slow1", "base"), ("slow2", "t1"), ("slow3", "t2")] {
        let input = input.to_string();
        lh.register_function(fid, move |ctx: &bauplan_core::FnContext| {
            // The sleep makes the stage's permit hold long enough that the
            // other run's next stage queues behind it.
            std::thread::sleep(Duration::from_millis(15));
            Ok(bauplan_core::FnOutput::Batch(ctx.input(&input)?.clone()))
        });
    }
    lh.create_table("base", &base_batch(64), "main").unwrap();
    lh
}

/// Acceptance: stages of two concurrent runs from different tenants pass
/// through one shared single-slot gate as independent schedulable units —
/// the recorder shows their `stage_start` events interleaving rather than
/// one run monopolizing the gate for its whole DAG.
#[test]
fn dag_stages_from_two_runs_interleave_under_one_gate() {
    let _serial = serial();
    let gate = AdmissionController::new(AdmissionConfig {
        max_slots: 1,
        queue_cap: 64,
        queue_deadline: Duration::from_secs(30),
    });
    let alpha = Arc::new(chain_lakehouse("alpha", gate.clone()));
    let beta = Arc::new(chain_lakehouse("beta", gate));
    let seq0 = lakehouse_obs::recorder()
        .snapshot()
        .iter()
        .map(|e| e.seq)
        .max()
        .unwrap_or(0);

    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = [alpha, beta]
        .into_iter()
        .map(|lh| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                lh.run(&chain_project(), &RunOptions::default()).unwrap()
            })
        })
        .collect();
    for h in handles {
        let report = h.join().unwrap();
        assert!(report.success);
        assert_eq!(report.stages_executed, 3);
    }

    // Filter this test's stage_start events (run ids restart per instance,
    // so attribute by tenant) and order them by allocation sequence.
    let mut starts: Vec<_> = lakehouse_obs::recorder()
        .snapshot()
        .into_iter()
        .filter(|e| {
            e.seq > seq0
                && e.kind == lakehouse_obs::EventKind::StageStart
                && (e.tenant == "alpha" || e.tenant == "beta")
        })
        .collect();
    starts.sort_by_key(|e| e.seq);
    assert_eq!(starts.len(), 6, "three stages per run");
    let tenants: Vec<&str> = starts.iter().map(|e| e.tenant.as_str()).collect();
    let transitions = tenants.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        transitions >= 2,
        "stages must interleave across runs, got order {tenants:?}"
    );
}

/// Queued work drains in arrival order, whatever the tenant, and the drain
/// order is identical on every replay of the same arrival set.
#[test]
fn fifo_gate_drains_in_arrival_order() {
    let run_once = || -> Vec<&'static str> {
        let gate = AdmissionController::new(AdmissionConfig {
            max_slots: 1,
            queue_cap: 64,
            queue_deadline: Duration::from_secs(30),
        });
        let order = Arc::new(Mutex::new(Vec::new()));
        let blocker = gate.acquire("warmup").unwrap();
        let mut handles = Vec::new();
        for name in ["big", "mid", "small"] {
            let worker_gate = gate.clone();
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let permit = worker_gate.acquire(name).unwrap();
                order.lock().unwrap().push(name);
                drop(permit);
            }));
            // Deterministic arrival order: wait until this waiter is queued
            // before submitting the next.
            while gate.queue_depth() < handles.len() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(blocker);
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().unwrap().clone();
        order
    };
    let first = run_once();
    assert_eq!(first, vec!["big", "mid", "small"]);
    assert_eq!(first, run_once(), "same arrivals, same drain order");
}

/// `system.queries` carries the gate's telemetry: an admitted query's row
/// reports its queue wait in milliseconds.
#[test]
fn system_queries_reports_queue_wait() {
    let _serial = serial();
    let config = LakehouseConfig {
        admission: Some(AdmissionConfig {
            max_slots: 2,
            ..AdmissionConfig::default()
        }),
        ..LakehouseConfig::zero_latency()
    };
    let lh = Lakehouse::in_memory(config).unwrap();
    lh.create_table("t", &base_batch(16), "main").unwrap();
    lh.query("SELECT COUNT(*) AS n FROM t", "main").unwrap();
    let out = lh
        .query(
            "SELECT queue_wait_ms FROM system.queries \
             WHERE label = 'SELECT COUNT(*) AS n FROM t'",
            "main",
        )
        .unwrap();
    assert_eq!(out.num_rows(), 1);
    assert!(out.row(0).unwrap()[0].as_f64().unwrap() >= 0.0);
}

/// A front over `backend` labelled `tenant`, behind `gate`.
fn gated_front(
    backend: &Arc<dyn lakehouse_store::ObjectStore>,
    tenant: &str,
    gate: &AdmissionController,
) -> Lakehouse {
    let config = LakehouseConfig {
        tenant: tenant.into(),
        ..LakehouseConfig::zero_latency()
    };
    let mut lh = Lakehouse::with_store(Arc::clone(backend), config).unwrap();
    lh.set_admission(Some(gate.clone()));
    lh
}

/// The one `status = 'shed'` row of `label` in `system.queries`:
/// `(reason, queue_wait_ms)`.
fn shed_row(lh: &Lakehouse, label: &str) -> (String, f64) {
    let out = lh
        .query(
            &format!(
                "SELECT reason, queue_wait_ms FROM system.queries \
                 WHERE status = 'shed' AND label = '{label}'"
            ),
            "main",
        )
        .unwrap();
    assert_eq!(out.num_rows(), 1, "one shed row for {label}");
    let row = out.row(0).unwrap();
    (
        row[0].as_str().unwrap().to_string(),
        row[1].as_f64().unwrap(),
    )
}

/// Two fronts over one 1-slot gate whose queue holds nobody: while the first
/// front's slot is taken, the second front's query is refused at once, typed
/// `Overloaded` with a back-off hint, and `system.queries` keeps its row.
#[test]
fn a_full_queue_sheds_the_second_front_typed_and_logged() {
    const Q: &str = "SELECT COUNT(*) AS overflow_probe FROM t";
    let _serial = serial();
    let gate = AdmissionController::new(AdmissionConfig {
        queue_cap: 0,
        queue_deadline: Duration::from_millis(40),
        ..AdmissionConfig::default()
    });
    let backend: Arc<dyn lakehouse_store::ObjectStore> =
        Arc::new(lakehouse_store::InMemoryStore::new());
    let first = gated_front(&backend, "first", &gate);
    let second = gated_front(&backend, "second", &gate);
    first.create_table("t", &base_batch(16), "main").unwrap();

    // The first front is mid-query for as long as this permit lives.
    let busy = gate.acquire("first").expect("the free slot");
    let started = std::time::Instant::now();
    let err = second.query(Q, "main").expect_err("no slot and no queue");
    assert!(
        started.elapsed() < Duration::from_millis(25),
        "an overflow shed must not wait, took {:?}",
        started.elapsed()
    );
    match err {
        BauplanError::Overloaded { retry_after } => {
            assert_eq!(retry_after, Duration::from_millis(40), "one queue window");
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    drop(busy);

    // With the slot back the same front is served, and sees its shed row.
    let (reason, waited_ms) = shed_row(&second, Q);
    assert_eq!(reason, "overloaded");
    assert_eq!(waited_ms, 0.0, "an overflow shed never queued");
}

/// One front behind a gate with a 30 ms queue deadline: a query that cannot
/// get the slot is shed after about that long, and its wait is on its row.
#[test]
fn a_queue_deadline_sheds_after_about_the_deadline() {
    const Q: &str = "SELECT COUNT(*) AS deadline_probe FROM t";
    let _serial = serial();
    let gate = AdmissionController::new(AdmissionConfig {
        queue_deadline: Duration::from_millis(30),
        ..AdmissionConfig::default()
    });
    let backend: Arc<dyn lakehouse_store::ObjectStore> =
        Arc::new(lakehouse_store::InMemoryStore::new());
    let lh = gated_front(&backend, "solo", &gate);
    lh.create_table("t", &base_batch(16), "main").unwrap();

    let busy = gate.acquire("solo").expect("the free slot");
    let started = std::time::Instant::now();
    let err = lh.query(Q, "main").expect_err("the slot never frees");
    let waited = started.elapsed();
    assert!(
        matches!(err, BauplanError::Overloaded { retry_after } if retry_after == Duration::from_millis(30)),
        "expected Overloaded, got {err}"
    );
    assert!(
        waited >= Duration::from_millis(25) && waited < Duration::from_millis(500),
        "shed at about the 30 ms queue deadline, waited {waited:?}"
    );
    drop(busy);

    let (reason, waited_ms) = shed_row(&lh, Q);
    assert_eq!(reason, "overloaded");
    assert!(
        (25.0..=waited.as_secs_f64() * 1e3).contains(&waited_ms),
        "the row carries the wait until the shed, got {waited_ms} ms of {waited:?}"
    );
}
