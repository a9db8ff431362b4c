//! `taxi_run`: the paper's Fig. 3/4 three-node pipeline through
//! `Lakehouse::run`, warm (containers frozen: the steady-state feedback loop
//! of §4.4.2), on the in-memory backend without sleeping.

use crate::data::{generator, taxi_batch, TRIPS_FROM_DAY};
use crate::lake::{Backend, Lake};
use crate::replay;
use crate::stats::min_samples;
use crate::trace::Tracer;
use crate::workload::{
    self, csv_bytes_per_row, ms, repeat_setup, Block, Checker, Ctx, E2e, Throughput, Traced,
};
use crate::Res;
use bauplan_core::{PipelineProject, RunOptions, RunReport};
use lakehouse_columnar::RecordBatch;
use serde::Json;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WARMUP_RUNS: usize = 3;
/// Runs per block: two seconds of work, short beside the machine's slow
/// phases, long enough for a median.
const BLOCK_RUNS: usize = 8;
/// `wall_ms_tail` is p75: a time box of 10 s or more holds the 40 runs that
/// needs, and run times are tight enough for p75 to be informative.
const TAIL_Q: f64 = 0.75;
/// Rounds of the traced pass: one run with recording off, one with it on.
const TRACED_RUNS: usize = 4;

fn expected_trips(taxi: &RecordBatch) -> Res<u64> {
    let (days, _) = taxi.column_by_name("pickup_at")?.as_date()?;
    Ok(days.iter().filter(|d| **d >= TRIPS_FROM_DAY).count() as u64)
}

fn check_run(
    checker: &mut Checker,
    run: Result<RunReport, bauplan_core::BauplanError>,
    trips: u64,
) -> Option<RunReport> {
    checker.attempt();
    match run {
        Err(e) => {
            checker.fail(format!("run failed: {e}"));
            None
        }
        Ok(r) => {
            checker.check(r.success, || "run reported no success".into());
            checker.check(
                !r.audit_results.is_empty() && r.audit_results.values().all(|v| *v),
                || format!("audit verdicts {:?}", r.audit_results),
            );
            checker.check(r.artifact_rows.get("trips") == Some(&trips), || {
                format!(
                    "trips rows {:?}, expected {trips}",
                    r.artifact_rows.get("trips")
                )
            });
            Some(r)
        }
    }
}

pub fn e2e(ctx: &Ctx) -> Res<E2e> {
    let project = PipelineProject::taxi_example();
    let mut checker = Checker::default();
    let ((lake, trips, ratio), setup_s) = repeat_setup(|| {
        let taxi = taxi_batch(&generator(ctx.seed), ctx.rows);
        let lake = Lake::build(Backend::Memory, None, &taxi, &ctx.out_dir)?;
        let ratio = lake.stored_bytes() as f64 / (csv_bytes_per_row(&taxi)? * ctx.rows as f64);
        let trips = expected_trips(&taxi)?;
        for _ in 0..WARMUP_RUNS {
            check_run(
                &mut checker,
                lake.lh.run(&project, &RunOptions::default()),
                trips,
            );
        }
        Ok((lake, trips, ratio))
    })?;

    let (mut blocks, mut sim_ms) = (Vec::<Block>::new(), Vec::new());
    let mut peak_rss_mb = 0.0;
    workload::reset_peak_rss();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < deadline || blocks.len() * BLOCK_RUNS < min_samples(TAIL_Q) {
        let mut wall_ms = Vec::with_capacity(BLOCK_RUNS);
        for _ in 0..BLOCK_RUNS {
            let t = Instant::now();
            let run = lake.lh.run(&project, &RunOptions::default());
            wall_ms.push(ms(t.elapsed()));
            if let Some(r) = check_run(&mut checker, run, trips) {
                sim_ms.push(ms(r.simulated_total));
            }
        }
        // The model is deterministic: a fixed number of runs makes its mean
        // repeat exactly for a seed.
        sim_ms.truncate(min_samples(TAIL_Q));
        blocks.push(Block {
            units: BLOCK_RUNS as u64,
            unit_wall_ms: wall_ms.iter().sum(),
            wall_ms,
        });
        // Every run adds its artifacts to the in-memory store, so memory is
        // read after a fixed number of runs.
        if blocks.len() * BLOCK_RUNS == min_samples(TAIL_Q) {
            peak_rss_mb = workload::peak_rss_mb()?;
        }
    }
    Ok(E2e {
        setup_s,
        blocks,
        sim_ms,
        tail_q: TAIL_Q,
        throughput: Throughput::QuietBlocks,
        stored_bytes_per_user_byte: ratio,
        peak_rss_mb,
        checker,
        notes: vec![
            ("warmup_runs".into(), Json::U64(WARMUP_RUNS as u64)),
            ("runs_per_block".into(), Json::U64(BLOCK_RUNS as u64)),
            ("expected_trips_rows".into(), Json::U64(trips)),
        ],
    })
}

pub fn traced(ctx: &Ctx, tracer: &Arc<Tracer>) -> Res<(Traced, Lake)> {
    let project = PipelineProject::taxi_example();
    let taxi = taxi_batch(&generator(ctx.seed), ctx.rows);
    let trips = expected_trips(&taxi)?;
    let lake = Lake::build(Backend::Memory, Some(tracer), &taxi, &ctx.out_dir)?;
    drop(taxi);
    let store = Arc::clone(&lake.store);
    let mut out = Traced::default();
    tracer.set_recording(false);
    for _ in 0..WARMUP_RUNS {
        let run = lake.lh.run(&project, &RunOptions::default());
        check_run(&mut out.checker, run, trips);
    }
    tracer.set_recording(true);
    for i in 0..TRACED_RUNS {
        // Each round runs once with recording off and once with it on, in
        // alternating order.
        let plain = |out: &mut Traced| {
            tracer.set_recording(false);
            let t = Instant::now();
            let run = lake.lh.run(&project, &RunOptions::default());
            out.plain_wall_ms.push(ms(t.elapsed()));
            tracer.set_recording(true);
            check_run(&mut out.checker, run, trips);
        };
        if i % 2 == 0 {
            plain(&mut out);
        }
        let op = tracer.span("bench", "op.run");
        let facade = tracer.span("core", "run");
        let facade_id = facade.id();
        let run = lake.lh.run(&project, &RunOptions::default());
        out.traced_wall_ms.push(facade.end());
        if let Some(r) = check_run(&mut out.checker, run, trips) {
            out.sim_ms += ms(r.simulated_total);
        }
        let replayed = replay::replay_run(tracer, &lake.lh, &store, &format!("op{i}"))?;
        out.checker.check(replayed.trips_rows as u64 == trips, || {
            format!(
                "replayed trips rows {}, expected {trips}",
                replayed.trips_rows
            )
        });
        // The run's steps include those of its one read, the `trips` node.
        let mut read = replayed.read;
        read.steps = replayed.steps;
        read.replay_only = replayed.replay_only;
        out.record_read(facade_id, true, read);
        drop(op);
        if i % 2 == 1 {
            plain(&mut out);
        }
    }
    out.units = TRACED_RUNS;
    Ok((out, lake))
}
