//! `ingest_cycle`: writes beside reads on the local-filesystem backend (the
//! CLI's store; it does not fsync today, and neither does this workload).
//!
//! `wall_ms_p50` and `wall_ms_tail` are the `append_table` time *outside the
//! store*: on the sandbox's filesystem a small-file write flips between
//! ≈ 0.1 ms and ≈ 0.5 ms for tens of seconds at a time, which moved the
//! whole-call median by 60 % from run to run. File-system time stays in
//! `ops_per_s` (whole cycles, steady) and in the traced pass's `store.*`.
//!
//! One cycle: branch from `main` → eight `append_table` of 5 000-row batches
//! each spanning seven days → `merge` → `delete_branch` → verify query on the
//! fragmented table → `compact_table` → the same verify query (must match)
//! → `expire_table_snapshots(main, 1)` → `gc_catalog`. Snapshots are expired
//! on `main` only after the branch is gone: expiring on a branch deletes
//! manifests `main` still references. The table grows by 40 000 rows per
//! cycle by design, so a cycle gets slower as the run goes on.

use crate::data::{generator, taxi_batch, DAYS, START_DAY};
use crate::lake::{Backend, Lake};
use crate::mix::{self, ScanSpec};
use crate::replay;
use crate::stats::min_samples;
use crate::trace::Tracer;
use crate::workload::{
    self, csv_bytes_per_row, ms, repeat_setup, Block, Checker, Ctx, E2e, Throughput, Traced,
    TracedOp,
};
use crate::Res;
use lakehouse_columnar::{RecordBatch, Value};
use lakehouse_workload::TaxiGenerator;
use serde::Json;
use std::sync::Arc;
use std::time::{Duration, Instant};

const APPENDS_PER_CYCLE: u64 = 8;
/// `wall_ms_tail` is p90 of the appends: 100 appends, 13 cycles, at least.
const TAIL_Q: f64 = 0.9;
const APPEND_ROWS: usize = 5_000;
const APPEND_DAYS: i32 = 7;
/// The traced pass's cycles: recording off, on, on, off, so that neither
/// side of the overhead comparison is always the later, bigger table.
const TRACED_PASS: [bool; 4] = [false, true, true, false];
const VERIFY_SQL: &str = "SELECT COUNT(*) AS n, SUM(passenger_count) AS passengers FROM taxi_table";

fn base_rows(ctx: &Ctx) -> usize {
    ctx.rows * 3 / 10
}

fn passengers(batch: &RecordBatch) -> Res<i64> {
    let column = batch.column_by_name("passenger_count")?;
    let (values, _) = column.as_i64()?;
    Ok((0..values.len())
        .filter(|i| column.is_valid(*i))
        .map(|i| values[i])
        .sum())
}

/// The `k`-th append batch of a run: seven consecutive days, sliding over
/// the table's two months.
fn append_batch(seed: u64, k: u64) -> RecordBatch {
    let gen = TaxiGenerator {
        seed: seed.wrapping_mul(1_000_003).wrapping_add(k),
        start_day: START_DAY + (k * 3 % (DAYS - APPEND_DAYS + 1) as u64) as i32,
        days: APPEND_DAYS,
        ..Default::default()
    };
    taxi_batch(&gen, APPEND_ROWS)
}

/// What the table must hold, kept beside the lake as rows go in.
struct Expected {
    rows: i64,
    passengers: i64,
}

/// Times façade calls as spans of the lake's tracer (which keeps only their
/// duration while recording is off).
struct Timer<'a> {
    tracer: &'a Arc<Tracer>,
    /// Ids of the spans recorded, for the traced pass's store counts.
    facade_ids: Vec<u32>,
}

impl Timer<'_> {
    /// Wall ms of `f`, and of that the ms spent inside store calls.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let busy0 = self.tracer.store_busy_ns();
        let span = self.tracer.span("core", name);
        if span.id() != 0 {
            self.facade_ids.push(span.id());
        }
        let out = f();
        let wall = span.end();
        (
            out,
            wall,
            (self.tracer.store_busy_ns() - busy0) as f64 / 1e6,
        )
    }
}

#[derive(Default)]
struct CycleTimes {
    /// Wall of each `append_table`, and the part of it outside store calls.
    append_ms: Vec<f64>,
    append_outside_store_ms: Vec<f64>,
    append_sim_ms: Vec<f64>,
    cycle_wall_ms: f64,
    compact_rows: u64,
    compact_ms: f64,
}

/// One cycle in flight: where its façade calls are timed, counted and
/// checked.
struct Cycle<'a, 'b> {
    lake: &'a Lake,
    number: u64,
    checker: &'a mut Checker,
    timer: &'a mut Timer<'b>,
    times: CycleTimes,
}

impl Cycle<'_, '_> {
    /// Time one façade call (wall ms, store ms); an error counts as a failed
    /// operation.
    fn call(
        &mut self,
        name: &str,
        f: impl FnOnce() -> Result<(), bauplan_core::BauplanError>,
    ) -> (f64, f64) {
        self.checker.attempt();
        let (result, wall, store) = self.timer.time(name, f);
        if let Err(e) = result {
            self.checker
                .fail(format!("cycle {} {name}: {e}", self.number));
        }
        self.times.cycle_wall_ms += wall;
        (wall, store)
    }

    fn verify(&mut self, expected: &Expected, when: &str) -> Option<Vec<Value>> {
        let lh = &self.lake.lh;
        let mut row = None;
        self.call("query", || {
            row = lh.query(VERIFY_SQL, "main")?.row(0).ok();
            Ok(())
        });
        let want = vec![
            Value::Int64(expected.rows),
            Value::Int64(expected.passengers),
        ];
        let number = self.number;
        self.checker.check(row.as_ref() == Some(&want), || {
            format!("cycle {number} verify {when}: {row:?}, expected {want:?}")
        });
        row
    }
}

/// Run cycle number `cycle`, checking every result against `expected`.
fn run_cycle(
    lake: &Lake,
    seed: u64,
    cycle: u64,
    expected: &mut Expected,
    checker: &mut Checker,
    timer: &mut Timer,
) -> Res<CycleTimes> {
    let lh = &lake.lh;
    let branch = format!("ingest_{cycle}");
    let mut c = Cycle {
        lake,
        number: cycle,
        checker,
        timer,
        times: CycleTimes::default(),
    };
    c.call("create_branch", || {
        lh.create_branch(&branch, Some("main")).map(|_| ())
    });
    for a in 0..APPENDS_PER_CYCLE {
        let batch = append_batch(seed, cycle * APPENDS_PER_CYCLE + a);
        expected.rows += batch.num_rows() as i64;
        expected.passengers += passengers(&batch)?;
        let sim0 = lake.sim_time();
        let (wall, store) = c.call("append_table", || {
            lh.append_table("taxi_table", &batch, &branch)
        });
        c.times.append_ms.push(wall);
        c.times.append_outside_store_ms.push(wall - store);
        c.times.append_sim_ms.push(ms(lake.sim_time() - sim0));
    }
    c.call("merge", || lh.merge(&branch, "main").map(|_| ()));
    c.call("delete_branch", || lh.delete_branch(&branch));

    let fragmented = c.verify(expected, "before compaction");
    let mut report = None;
    c.times.compact_ms = c
        .call("compact_table", || {
            report = Some(lh.compact_table("taxi_table", "main")?);
            Ok(())
        })
        .0;
    c.times.compact_rows = report.map_or(0, |r| r.rows_rewritten);
    let compacted = c.verify(expected, "after compaction");
    c.checker.check(fragmented == compacted, || {
        format!("cycle {cycle}: compaction changed the verify result")
    });
    c.call("expire_table_snapshots", || {
        lh.expire_table_snapshots("taxi_table", "main", 1)
            .map(|_| ())
    });
    c.call("gc_catalog", || lh.gc_catalog().map(|_| ()));
    Ok(c.times)
}

struct Setup {
    lake: Lake,
    expected: Expected,
    csv_bytes_per_row: f64,
}

fn setup(ctx: &Ctx, tracer: &Arc<Tracer>, checker: &mut Checker) -> Res<Setup> {
    let base = taxi_batch(&generator(ctx.seed), base_rows(ctx));
    let lake = Lake::build(Backend::Disk, Some(tracer), &base, &ctx.out_dir)?;
    let expected = Expected {
        rows: base.num_rows() as i64,
        passengers: passengers(&base)?,
    };
    // Warm-up: the verify query once, on the base table.
    checker.attempt();
    let row = lake.lh.query(VERIFY_SQL, "main")?.row(0)?;
    checker.check(
        row == vec![
            Value::Int64(expected.rows),
            Value::Int64(expected.passengers),
        ],
        || format!("base table verify: {row:?}"),
    );
    Ok(Setup {
        csv_bytes_per_row: csv_bytes_per_row(&base)?,
        lake,
        expected,
    })
}

pub fn e2e(ctx: &Ctx) -> Res<E2e> {
    let mut checker = Checker::default();
    // The tracer only meters store time here; it records no spans.
    let tracer = Tracer::new();
    tracer.set_recording(false);
    let (mut state, setup_s) = repeat_setup(|| setup(ctx, &tracer, &mut checker))?;
    let mut timer = Timer {
        tracer: &tracer,
        facade_ids: Vec::new(),
    };
    let mut append_ms = Vec::new();
    let (mut blocks, mut sim_ms) = (Vec::<Block>::new(), Vec::new());
    let (mut compact_rows, mut compact_ms) = (0u64, 0.0);
    let mut peak_rss_mb = 0.0;
    let min_cycles = min_samples(TAIL_Q).div_ceil(APPENDS_PER_CYCLE as usize);
    workload::reset_peak_rss();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < deadline || blocks.len() < min_cycles {
        let times = run_cycle(
            &state.lake,
            ctx.seed,
            blocks.len() as u64,
            &mut state.expected,
            &mut checker,
            &mut timer,
        )?;
        // The model is deterministic: a fixed number of appends makes its
        // mean repeat exactly for a seed.
        sim_ms.extend(times.append_sim_ms);
        sim_ms.truncate(min_samples(TAIL_Q));
        compact_rows += times.compact_rows;
        compact_ms += times.compact_ms;
        append_ms.extend(times.append_ms);
        blocks.push(Block {
            wall_ms: times.append_outside_store_ms,
            units: 1,
            unit_wall_ms: times.cycle_wall_ms,
        });
        // Compaction holds the whole table, which grows with every cycle, so
        // memory is read after a fixed number of cycles.
        if blocks.len() == min_cycles {
            peak_rss_mb = workload::peak_rss_mb()?;
        }
    }
    let user_bytes = state.csv_bytes_per_row * state.expected.rows as f64;
    Ok(E2e {
        setup_s,
        sim_ms,
        tail_q: TAIL_Q,
        throughput: Throughput::WholeRun,
        stored_bytes_per_user_byte: state.lake.stored_bytes() as f64 / user_bytes,
        peak_rss_mb,
        checker,
        notes: vec![
            ("cycles".into(), Json::U64(blocks.len() as u64)),
            ("live_rows".into(), Json::I64(state.expected.rows)),
            (
                "append_wall_ms_p50_with_store".into(),
                Json::F64(crate::stats::median(&append_ms)),
            ),
            (
                "compact_rows_per_s".into(),
                Json::F64(compact_rows as f64 / (compact_ms / 1e3)),
            ),
        ],
        blocks,
    })
}

pub fn traced(ctx: &Ctx, tracer: &Arc<Tracer>) -> Res<(Traced, Lake)> {
    let mut out = Traced::default();
    tracer.set_recording(false);
    let mut state = setup(ctx, tracer, &mut out.checker)?;
    tracer.set_recording(true);
    let store = Arc::clone(&state.lake.store);
    for (cycle, traced) in TRACED_PASS.into_iter().enumerate() {
        tracer.set_recording(traced);
        let op = tracer.span("bench", "op.cycle");
        let sim0 = state.lake.sim_time();
        let mut timer = Timer {
            tracer,
            facade_ids: Vec::new(),
        };
        let times = run_cycle(
            &state.lake,
            ctx.seed,
            cycle as u64,
            &mut state.expected,
            &mut out.checker,
            &mut timer,
        )?;
        drop(op);
        if !traced {
            out.plain_wall_ms.extend(times.append_ms);
            continue;
        }
        out.sim_ms += ms(state.lake.sim_time() - sim0);
        out.traced_wall_ms.extend(times.append_ms);
        out.ops
            .extend(timer.facade_ids.into_iter().map(|facade| TracedOp {
                facade,
                in_pass: true,
                ..Default::default()
            }));
    }
    tracer.set_recording(true);
    out.units = TRACED_PASS.iter().filter(|traced| **traced).count();

    // Replays, on a scratch branch: four appends (façade call, then the same
    // batch again through the layers) and the verify query.
    let lh = &state.lake.lh;
    lh.create_branch("replay_ingest", Some("main"))?;
    for k in 0..4 {
        let batch = append_batch(ctx.seed, 1_000_000 + k);
        let _op = tracer.span("bench", "op.append");
        let facade = tracer.span("core", "append_table");
        let facade_id = facade.id();
        lh.append_table("taxi_table", &batch, "replay_ingest")?;
        drop(facade);
        let steps =
            replay::replay_append(tracer, lh, &store, "taxi_table", &batch, "replay_ingest")?;
        out.ops.push(TracedOp {
            facade: facade_id,
            steps,
            ..Default::default()
        });
    }
    lh.delete_branch("replay_ingest")?;
    {
        // The verify query as the replay sees it: a full scan of one column.
        let scan = ScanSpec {
            table: "taxi_table",
            predicates: vec![],
            projection: Some(vec!["passenger_count"]),
        };
        let _op = tracer.span("bench", "op.verify");
        let facade = tracer.span("core", "query");
        let facade_id = facade.id();
        let result = lh.query(VERIFY_SQL, "main")?;
        drop(facade);
        let replayed = replay::replay_read(tracer, lh, &store, VERIFY_SQL, &[scan], "main")?;
        out.checker.check(
            mix::digest(&result, true)
                == mix::digest(replayed.result.as_ref().expect("result"), true),
            || "verify query: the unrolled replay disagrees with the façade".into(),
        );
        out.record_read(facade_id, false, replayed);
    }
    Ok((out, state.lake))
}
