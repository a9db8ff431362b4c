//! `query_mix` and `query_mix_s3`: one generated query sequence on the same
//! lake, once on a store that never waits (wall time is CPU) and once on a
//! store that blocks for every modelled S3 round trip (wall time is store
//! wait). A change to kernels or decode should move the first and leave the
//! second alone; a change to pruning, caching or overlap the reverse.

use crate::data::{generator, taxi_batch, zones_batch};
use crate::lake::{Backend, Lake};
use crate::mix::{self, Query, BLOCK_LEN};
use crate::replay;
use crate::stats::min_samples;
use crate::trace::Tracer;
use crate::workload::{
    self, csv_bytes_per_row, ms, repeat_setup, Block, Checker, Ctx, E2e, Throughput, Traced,
};
use crate::Res;
use lakehouse_columnar::RecordBatch;
use lakehouse_sql::{MemoryProvider, SqlEngine};
use serde::Json;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every `ORACLE_STRIDE`-th query of the sequence is checked against the
/// same SQL over the raw generated batches.
const ORACLE_STRIDE: usize = 10;
/// `wall_ms_tail` sits inside the unpruned `between_agg` class (quantiles
/// 0.85 to 0.925 of every block): p90 on the store that never waits, 100
/// queries at least; p87.5 on the store that blocks, where a block takes
/// seconds and 80 queries are what the time box holds.
/// Memory is read after this many blocks: every run of either mix gets
/// that far.
const RSS_AFTER_BLOCKS: usize = 2;

fn tail_q(backend: Backend) -> f64 {
    match backend {
        Backend::S3Sleeping => 0.875,
        _ => 0.9,
    }
}

struct Oracle {
    /// Expected result of query `i * ORACLE_STRIDE`.
    expected: Vec<RecordBatch>,
}

impl Oracle {
    fn compute(taxi: &RecordBatch, queries: &[Query]) -> Res<Oracle> {
        let mut raw = MemoryProvider::new();
        raw.register("taxi_table", taxi.clone());
        raw.register("zones", zones_batch());
        let engine = SqlEngine::new();
        let expected = queries
            .iter()
            .step_by(ORACLE_STRIDE)
            .map(|q| engine.query(&q.sql, &raw))
            .collect::<Result<_, _>>()?;
        Ok(Oracle { expected })
    }
}

/// Results seen so far: the first digest of each query of the sequence, so
/// that a repeat must reproduce it and two workloads can be compared.
struct Results {
    first: Vec<Option<u64>>,
}

impl Results {
    fn check(
        &mut self,
        checker: &mut Checker,
        oracle: &Oracle,
        i: usize,
        query: &Query,
        result: Result<RecordBatch, bauplan_core::BauplanError>,
    ) {
        checker.attempt();
        let batch = match result {
            Ok(b) => b,
            Err(e) => return checker.fail(format!("query {i} failed: {e}")),
        };
        let digest = mix::digest(&batch, query.ordered);
        match self.first[i] {
            None => self.first[i] = Some(digest),
            Some(first) => checker.check(first == digest, || {
                format!("query {i} changed its result between repeats")
            }),
        }
        if i.is_multiple_of(ORACLE_STRIDE) {
            let want = &oracle.expected[i / ORACLE_STRIDE];
            if let Err(diff) = mix::compare(&batch, want, query.ordered) {
                checker.fail(format!(
                    "query {i} ({}) differs from the oracle: {diff}",
                    query.class.name()
                ));
            }
        }
    }

    /// Digests of the leading queries that were all executed.
    fn seen(&self) -> Vec<u64> {
        self.first.iter().map_while(|d| *d).collect()
    }
}

fn warm_up(lake: &Lake, checker: &mut Checker) {
    for q in mix::warmup_queries() {
        checker.attempt();
        if let Err(e) = lake.lh.query(&q.sql, "main") {
            checker.fail(format!("warm-up {} failed: {e}", q.class.name()));
        }
    }
}

pub fn e2e(ctx: &Ctx, backend: Backend) -> Res<E2e> {
    let queries = mix::generate(ctx.seed);
    let mut checker = Checker::default();
    let ((lake, taxi, ratio), setup_s) = repeat_setup(|| {
        let taxi = taxi_batch(&generator(ctx.seed), ctx.rows);
        let lake = Lake::build(backend, None, &taxi, &ctx.out_dir)?;
        let ratio = lake.stored_bytes() as f64 / (csv_bytes_per_row(&taxi)? * ctx.rows as f64);
        warm_up(&lake, &mut checker);
        Ok((lake, taxi, ratio))
    })?;
    // The oracle is the suite's own checking, not set-up of the system: it
    // is computed once and stays out of `setup_s`.
    let oracle = Oracle::compute(&taxi, &queries)?;
    drop(taxi);

    let mut results = Results {
        first: vec![None; queries.len()],
    };
    let (mut blocks, mut sim_ms) = (Vec::<Block>::new(), Vec::new());
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); mix::BLOCK.len()];
    let mut peak_rss_mb = 0.0;
    workload::reset_peak_rss();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    // Whole blocks only, so every run measures the same mix.
    let min_blocks = min_samples(tail_q(backend)).div_ceil(BLOCK_LEN);
    while Instant::now() < deadline || blocks.len() < min_blocks {
        let start = blocks.len() * BLOCK_LEN % queries.len();
        let mut wall_ms = Vec::with_capacity(BLOCK_LEN);
        for (i, query) in queries.iter().enumerate().skip(start).take(BLOCK_LEN) {
            let sim0 = lake.sim_time();
            let t = Instant::now();
            let result = lake.lh.query(&query.sql, "main");
            wall_ms.push(ms(t.elapsed()));
            sim_ms.push(ms(lake.sim_time() - sim0));
            by_class[query.class as usize].push(wall_ms[wall_ms.len() - 1]);
            results.check(&mut checker, &oracle, i, query, result);
        }
        // The model is deterministic: a fixed number of blocks makes its
        // mean repeat exactly for a seed.
        sim_ms.truncate(min_blocks * BLOCK_LEN);
        blocks.push(Block {
            units: BLOCK_LEN as u64,
            unit_wall_ms: wall_ms.iter().sum(),
            wall_ms,
        });
        if blocks.len() == RSS_AFTER_BLOCKS {
            peak_rss_mb = workload::peak_rss_mb()?;
        }
    }
    let seen = results.seen();
    let by_class = mix::BLOCK
        .iter()
        .map(|(class, _)| {
            let walls = &by_class[*class as usize];
            (
                class.name().to_string(),
                Json::F64(crate::stats::median(walls)),
            )
        })
        .collect();
    Ok(E2e {
        setup_s,
        blocks,
        sim_ms,
        tail_q: tail_q(backend),
        throughput: Throughput::QuietBlocks,
        stored_bytes_per_user_byte: ratio,
        peak_rss_mb,
        checker,
        notes: vec![
            ("digest_queries".into(), Json::U64(seen.len() as u64)),
            (
                "digest".into(),
                Json::Str(format!("{:016x}", mix::combine_digests(&seen))),
            ),
            ("wall_ms_p50_by_class".into(), Json::Obj(by_class)),
            (
                "query_digests".into(),
                Json::Arr(
                    seen.iter()
                        .map(|d| Json::Str(format!("{d:016x}")))
                        .collect(),
                ),
            ),
        ],
    })
}

pub fn traced(ctx: &Ctx, backend: Backend, tracer: &Arc<Tracer>) -> Res<(Traced, Lake)> {
    let queries = mix::generate(ctx.seed);
    let block = &queries[..BLOCK_LEN];
    let taxi = taxi_batch(&generator(ctx.seed), ctx.rows);
    let oracle = Oracle::compute(&taxi, block)?;
    let lake = Lake::build(backend, Some(tracer), &taxi, &ctx.out_dir)?;
    drop(taxi);
    let store = Arc::clone(&lake.store);
    let mut out = Traced::default();
    let mut results = Results {
        first: vec![None; block.len()],
    };
    tracer.set_recording(false);
    warm_up(&lake, &mut out.checker);
    tracer.set_recording(true);
    for (i, query) in block.iter().enumerate() {
        // Each query runs once with recording off and once with it on, in
        // alternating order, so neither side is always the warmer one.
        let plain = |out: &mut Traced, results: &mut Results| {
            tracer.set_recording(false);
            let t = Instant::now();
            let result = lake.lh.query(&query.sql, "main");
            out.plain_wall_ms.push(ms(t.elapsed()));
            tracer.set_recording(true);
            results.check(&mut out.checker, &oracle, i, query, result);
        };
        if i % 2 == 0 {
            plain(&mut out, &mut results);
        }
        let op = tracer.span("bench", format!("op.{}", query.class.name()));
        let sim0 = lake.sim_time();
        let facade = tracer.span("core", "query");
        let facade_id = facade.id();
        let result = lake.lh.query(&query.sql, "main");
        out.traced_wall_ms.push(facade.end());
        out.sim_ms += ms(lake.sim_time() - sim0);
        results.check(&mut out.checker, &oracle, i, query, result);

        let replayed =
            replay::replay_read(tracer, &lake.lh, &store, &query.sql, &query.scans, "main")?;
        let digest = mix::digest(
            replayed.result.as_ref().expect("replay result"),
            query.ordered,
        );
        out.checker.check(results.first[i] == Some(digest), || {
            format!("query {i}: the unrolled replay disagrees with the façade")
        });
        out.record_read(facade_id, true, replayed);
        drop(op);
        if i % 2 == 1 {
            plain(&mut out, &mut results);
        }
    }
    out.units = block.len();
    Ok((out, lake))
}
