//! The executor: a logical plan compiled to a tree of pull-based
//! [`BatchStream`] operators, one per plan node, that every statement runs
//! through.
//!
//! A table arrives as its provider's own batches — one per data file of a
//! lake table, one for an in-memory table — so "materialized" execution is
//! simply a one-batch stream and there is no batch-size setting. Pipeline
//! operators (scan, filter, project, limit, distinct) transform each batch as
//! it flows through and hold only their current output. Pipeline breakers
//! consume their whole input first: the hash aggregate keeps per-group state
//! only, the hash join keeps its build side and then streams the probe side,
//! the sort collects its input (under a `LIMIT`, only its candidate rows)
//! and sorts it once. A satisfied `LIMIT` drops its input stream, which
//! drops the scan, which leaves the remaining data files unread.
//!
//! Aggregate, join and DISTINCT all resolve their keys through one
//! [`kernels::Grouper`], kept alive across batches: typed hashing, no boxed
//! row keys.
//!
//! Every operator books its live bytes on one gauge shared by the execution;
//! the high-water mark is the pipeline's true peak working set, reported as
//! [`ExecReport::peak_bytes`] — the number a serverless runtime's vertical
//! memory allocator would have to grant (the resource the paper's §3.1
//! "reasonable scale" argument is about bounding) — and what the owning
//! query's memory budget is enforced against.
//!
//! Results do not depend on how the input is cut into batches: operators
//! preserve row order per batch, group and build rows keep insertion order,
//! the sort is stable over the concatenated input, and the columnar crate
//! normalizes validity bitmaps so representation cannot diverge.

use crate::ast::{Expr, JoinType};
use crate::engine::TableProvider;
use crate::error::{Result, SqlError};
use crate::logical::{AggExpr, LogicalPlan};
use crate::physical::{eval, execute_project, filter_exact};
use lakehouse_columnar::kernels::{
    self, filter_batch, take_batch, take_column, take_column_opt, to_selection, Accumulator,
    Grouper, SortField,
};
use lakehouse_columnar::{
    BatchStream, BatchesStream, Column, ColumnarError, DataType, RecordBatch, Schema,
};
use lakehouse_obs::{KillReason, QueryCtx, SpanGuard};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// What one execution did: peak working set, batches pulled out of table
/// scans, and rows emitted per operator (leaf to root).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// High-water mark of live bytes across all operators.
    pub peak_bytes: usize,
    /// Batches yielded by table scans (one per data file read of a lake
    /// table, one per in-memory table).
    pub batches_streamed: usize,
    /// (operator name, rows emitted), in construction order (leaves first).
    pub operator_rows: Vec<(String, usize)>,
    /// Wall-clock time of the execution, in **nanoseconds** (every report
    /// struct carries times in nanos; render with
    /// [`lakehouse_obs::fmt_duration`]).
    pub wall_nanos: u64,
    /// Simulated-clock time charged to the executing thread, in
    /// **nanoseconds** (0 when no sim source is installed).
    pub sim_nanos: u64,
}

/// Shared per-execution state: the live-byte gauge plus counters.
struct ExecStats {
    live: Cell<usize>,
    peak: Cell<usize>,
    /// The owning query, when it runs under a memory budget, and the budget.
    budget: Option<(QueryCtx, u64)>,
    batches_streamed: Cell<usize>,
    operator_rows: RefCell<Vec<(String, usize)>>,
}

impl ExecStats {
    fn new(ctx: Option<&QueryCtx>) -> ExecStats {
        ExecStats {
            live: Cell::new(0),
            peak: Cell::new(0),
            budget: ctx.and_then(|c| Some((c.clone(), c.memory_budget_bytes()?))),
            batches_streamed: Cell::new(0),
            operator_rows: RefCell::new(Vec::new()),
        }
    }

    /// Swap `old` live bytes for `new`. A new high-water mark over the
    /// budget trips the query's token; the next cancellation point (every
    /// file a scan requests, every batch the root pulls) ends the query.
    fn swap(&self, old: usize, new: usize) {
        let live = self.live.get().saturating_sub(old) + new;
        self.live.set(live);
        if live > self.peak.get() {
            self.peak.set(live);
            if let Some((ctx, _)) = self.budget.as_ref().filter(|(_, b)| live as u64 > *b) {
                ctx.kill(KillReason::MemoryBudget);
            }
        }
    }
}

/// One operator's books: its span, its row counter and its stake in the
/// shared gauge. Each operator keeps its meter as its **last** field: the
/// span closes when the operator drops, after the operator's input (declared
/// earlier) has closed its own spans, so an operator's span covers its whole
/// lifetime in the pipeline and nests its children correctly even under
/// LIMIT early termination — and the drop releases whatever bytes are still
/// held, so the gauge never leaks across early termination either.
struct Meter {
    stats: Rc<ExecStats>,
    slot: usize,
    held: usize,
    span: SpanGuard,
}

impl Meter {
    /// Register the operator of `plan` (after its inputs: leaves first).
    fn new(plan: &LogicalPlan, span: SpanGuard, stats: &Rc<ExecStats>) -> Meter {
        let mut rows = stats.operator_rows.borrow_mut();
        rows.push((plan.name().to_string(), 0));
        Meter {
            stats: Rc::clone(stats),
            slot: rows.len() - 1,
            held: 0,
            span,
        }
    }

    /// The operator's live set is now `bytes`.
    fn hold(&mut self, bytes: usize) {
        self.stats.swap(self.held, bytes);
        self.held = bytes;
    }

    /// Book an emitted batch: the operator now holds it plus `state` bytes
    /// of its own.
    fn emit(&mut self, batch: &RecordBatch, state: usize) {
        let bytes = batch.approx_bytes();
        self.stats.operator_rows.borrow_mut()[self.slot].1 += batch.num_rows();
        if self.span.is_recording() {
            self.span.add_u64("rows", batch.num_rows() as u64);
            self.span.add_u64("batches", 1);
            self.span.add_u64("bytes", bytes as u64);
        }
        self.hold(state + bytes);
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        self.hold(0);
    }
}

type CResult<T> = lakehouse_columnar::Result<T>;

/// Carry a SQL-layer error through the columnar [`BatchStream`] interface.
fn ext(e: SqlError) -> ColumnarError {
    ColumnarError::External(std::sync::Arc::new(e))
}

/// Recover at the pipeline root: an external error (a SQL operator's, or a
/// table scan's) fails the statement as it is, source and all.
fn unext(e: ColumnarError) -> SqlError {
    match e {
        ColumnarError::External(source) => SqlError::External(source),
        other => SqlError::Columnar(other),
    }
}

fn eval_all<'a>(
    exprs: impl IntoIterator<Item = &'a Expr>,
    batch: &RecordBatch,
) -> CResult<Vec<Column>> {
    let cols = exprs.into_iter().map(|e| eval(e, batch));
    cols.collect::<Result<_>>().map_err(ext)
}

/// Each aggregate's argument over `batch` (`None` for `COUNT(*)`).
fn agg_args(aggs: &[(AggExpr, String)], batch: &RecordBatch) -> CResult<Vec<Option<Column>>> {
    let args = aggs.iter().map(|(a, _)| a.arg.as_ref());
    let cols = args.map(|arg| arg.map(|e| eval(e, batch)).transpose());
    cols.collect::<Result<_>>().map_err(ext)
}

/// Execute a logical plan against a table provider.
pub fn execute(plan: &LogicalPlan, provider: &dyn TableProvider) -> Result<RecordBatch> {
    Ok(execute_with_report(plan, provider)?.0)
}

/// [`execute`], also reporting the peak working set and per-operator rows.
pub fn execute_with_report(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
) -> Result<(RecordBatch, ExecReport)> {
    // Late materialization: dictionary-encoded columns survive the whole
    // pipeline as codes; decode to plain strings only here, at the root. A
    // result keeps no stored bytes alive.
    drain(plan, provider, |schema, batches| {
        let batch = RecordBatch::concat_all(schema, batches)?;
        Ok(batch.decode_dicts().without_origin())
    })
}

/// [`execute_with_report`] without the concatenation: the root's schema
/// and the batches it emitted, in order, each sharing the columns it was
/// built from, and each keeping its origin for the artifact writer. A
/// pipeline step's output.
pub fn execute_batches(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
) -> Result<(Schema, Vec<RecordBatch>, ExecReport)> {
    let ((schema, batches), report) = drain(plan, provider, |schema, batches| {
        let batches = batches.into_iter().map(RecordBatch::decode_dicts);
        Ok((schema.clone(), batches.collect()))
    })?;
    Ok((schema, batches, report))
}

/// Run `plan`, pulling every batch its root emits, and hand them to
/// `collect` with the root's schema.
fn drain<T>(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    collect: impl FnOnce(&Schema, Vec<RecordBatch>) -> Result<T>,
) -> Result<(T, ExecReport)> {
    // Declared before the operator tree: the operators' spans (fields of the
    // stream, dropped at the end of the block below) close before this one.
    let span = lakehouse_obs::span("execute");
    let wall_start = std::time::Instant::now();
    let sim_start = lakehouse_obs::thread_sim_nanos();
    let ctx = QueryCtx::current();
    let stats = Rc::new(ExecStats::new(ctx.as_ref()));
    let (result, rows) = {
        let mut root = build_stream(plan, provider, &stats, "0")?;
        let (mut batches, mut rows) = (Vec::new(), 0);
        loop {
            let next = root.next_batch().map_err(unext)?;
            // Per-batch cooperative cancellation point: the root drain is
            // the one yield every plan flows through, so a killed query —
            // a deadline, a cancel, a working set over its budget — stops
            // within one batch. The message keeps the stable store-layer
            // prefix (`query killed (...)`) so upper layers that only see
            // strings can still classify the failure.
            if let Some(reason) = ctx.as_ref().and_then(|c| c.check().err()) {
                return Err(SqlError::Execution(format!("query killed ({reason})")));
            }
            let Some(batch) = next else { break };
            if batch.num_rows() > 0 {
                // Collected output is live until the query returns.
                stats.swap(0, batch.approx_bytes());
                rows += batch.num_rows();
                batches.push(batch);
            }
        }
        (collect(root.schema(), batches)?, rows)
        // Dropping `root` here releases every operator's meter.
    };
    let wall_nanos = wall_start.elapsed().as_nanos() as u64;
    let sim_nanos = lakehouse_obs::thread_sim_nanos().saturating_sub(sim_start);
    lakehouse_obs::ctx::charge(|l| l.add_kernel_nanos(wall_nanos, sim_nanos));
    let report = ExecReport {
        peak_bytes: stats.peak.get(),
        batches_streamed: stats.batches_streamed.get(),
        operator_rows: stats.operator_rows.borrow().clone(),
        wall_nanos,
        sim_nanos,
    };
    if span.is_recording() {
        span.attr("rows", rows as u64);
        span.attr("peak_bytes", report.peak_bytes as u64);
        span.attr("batches_streamed", report.batches_streamed as u64);
    }
    let registry = lakehouse_obs::global();
    registry
        .gauge("sql.peak_bytes")
        .record_max(report.peak_bytes as u64);
    registry
        .counter("sql.batches_streamed")
        .add(report.batches_streamed as u64);
    Ok((result, report))
}

/// Compile a logical plan node to its operator. `path` identifies the
/// node's position in the plan (root `"0"`, child `i` of `p` at `"p.i"`);
/// spans record it so `EXPLAIN ANALYZE` can match stats back to plan nodes.
fn build_stream(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    stats: &Rc<ExecStats>,
    path: &str,
) -> Result<Box<dyn BatchStream>> {
    // Opened before the inputs are built, so their spans nest under it.
    let span = lakehouse_obs::span(plan.name());
    span.attr("path", path);
    let child = |input: &LogicalPlan, i: usize| {
        build_stream(input, provider, stats, &format!("{path}.{i}"))
    };
    Ok(match plan {
        LogicalPlan::Scan {
            table,
            projection,
            filters,
            fetch,
            ..
        } => {
            span.attr("table", table.as_str());
            let inner = provider.scan(table, projection.as_deref(), filters, *fetch)?;
            let exact = match filters.is_empty() {
                true => Vec::new(),
                false => provider.exact_filters(table, projection.as_deref(), filters),
            };
            let filters: Vec<Expr> = (filters.iter().enumerate())
                .filter(|(i, _)| exact.get(*i) != Some(&true))
                .map(|(_, f)| f.clone())
                .collect();
            span.attr("filters_rechecked", filters.len());
            Box::new(ScanNode {
                inner,
                filters,
                budget: *fetch,
                meter: Meter::new(plan, span, stats),
            })
        }
        LogicalPlan::Values { batch } => Box::new(ScanNode {
            inner: Box::new(BatchesStream::one(batch.clone())),
            filters: Vec::new(),
            budget: None,
            meter: Meter::new(plan, span, stats),
        }),
        LogicalPlan::Filter { input, predicate } => Box::new(FilterNode {
            input: child(input, 0)?,
            predicate: predicate.clone(),
            meter: Meter::new(plan, span, stats),
        }),
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => Box::new(ProjectNode {
            input: child(input, 0)?,
            exprs: exprs.clone(),
            schema: schema.clone(),
            meter: Meter::new(plan, span, stats),
        }),
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            agg_exprs,
            schema,
        } => Box::new(AggNode {
            input_schema: input.schema().clone(),
            arg_types: (agg_exprs.iter())
                .map(|(a, _)| a.arg_type(input.schema()))
                .collect::<Result<_>>()?,
            input: Some(child(input, 0)?),
            group_exprs: group_exprs.clone(),
            agg_exprs: agg_exprs.clone(),
            out_schema: schema.clone(),
            meter: Meter::new(plan, span, stats),
        }),
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            schema,
        } => {
            let left = child(left, 0)?;
            // The left subtree's guards are still open inside its nodes;
            // without re-parenting, the right subtree's spans would nest
            // under the left scan instead of under the join.
            let right = {
                let _under_join = lakehouse_obs::reparent_under(&span);
                child(right, 1)?
            };
            Box::new(JoinNode {
                left: Some(left),
                right: Some(right),
                join_type: *join_type,
                left_keys: on.iter().map(|(l, _)| l.clone()).collect(),
                right_keys: on.iter().map(|(_, r)| r.clone()).collect(),
                schema: schema.clone(),
                build: None,
                ids: Vec::new(),
                meter: Meter::new(plan, span, stats),
            })
        }
        LogicalPlan::Sort { input, keys, fetch } => {
            let input = child(input, 0)?;
            Box::new(SortNode {
                schema: input.schema().clone(),
                input: Some(input),
                keys: keys.clone(),
                fetch: *fetch,
                meter: Meter::new(plan, span, stats),
            })
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let input = child(input, 0)?;
            Box::new(LimitNode {
                schema: input.schema().clone(),
                input: Some(input),
                to_skip: *offset,
                remaining: *limit,
                meter: Meter::new(plan, span, stats),
            })
        }
        LogicalPlan::Distinct { input } => Box::new(DistinctNode {
            input: child(input, 0)?,
            seen: Grouper::new(),
            ids: Vec::new(),
            state_bytes: 0,
            meter: Meter::new(plan, span, stats),
        }),
    })
}

// ---- pipeline operators ---------------------------------------------------

/// Source node: pulls batches from the provider's stream, applies the
/// pushed-down filters the provider did not state it applied exactly
/// ([`TableProvider::exact_filters`]; the others it has, so each filter is
/// evaluated once per row), and stops at the plan's row budget, counted in
/// rows that passed every filter.
struct ScanNode {
    inner: Box<dyn BatchStream>,
    /// The pushed filters the provider's stream has not applied exactly.
    filters: Vec<Expr>,
    /// Rows still wanted of `LogicalPlan::Scan::fetch`.
    budget: Option<usize>,
    meter: Meter,
}

impl BatchStream for ScanNode {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        loop {
            let next = match self.budget {
                Some(0) => None,
                _ => self.inner.next_batch()?,
            };
            let Some(batch) = next else {
                self.meter.hold(0);
                return Ok(None);
            };
            let stats = &self.meter.stats;
            stats.batches_streamed.set(stats.batches_streamed.get() + 1);
            let mut batch = filter_exact(batch, &self.filters).map_err(ext)?;
            if let Some(budget) = &mut self.budget {
                if batch.num_rows() > *budget {
                    batch = batch.copy_rows(0, *budget)?;
                }
                *budget -= batch.num_rows();
            }
            if batch.num_rows() == 0 {
                continue;
            }
            self.meter.emit(&batch, 0);
            return Ok(Some(batch));
        }
    }
}

struct FilterNode {
    input: Box<dyn BatchStream>,
    predicate: Expr,
    meter: Meter,
}

impl BatchStream for FilterNode {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        loop {
            let Some(batch) = self.input.next_batch()? else {
                self.meter.hold(0);
                return Ok(None);
            };
            let mask = eval(&self.predicate, &batch).map_err(ext)?;
            let out = filter_batch(&batch, &to_selection(&mask)?)?;
            if out.num_rows() == 0 {
                continue;
            }
            self.meter.emit(&out, 0);
            return Ok(Some(out));
        }
    }
}

struct ProjectNode {
    input: Box<dyn BatchStream>,
    exprs: Vec<(Expr, String)>,
    schema: Schema,
    meter: Meter,
}

impl BatchStream for ProjectNode {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        let Some(batch) = self.input.next_batch()? else {
            self.meter.hold(0);
            return Ok(None);
        };
        let out = execute_project(&batch, &self.exprs, self.schema.clone()).map_err(ext)?;
        self.meter.emit(&out, 0);
        Ok(Some(out))
    }
}

/// LIMIT/OFFSET with early termination: once satisfied, the input stream is
/// dropped, which unwinds straight down to the scan — remaining data files
/// are never fetched.
struct LimitNode {
    input: Option<Box<dyn BatchStream>>,
    schema: Schema,
    to_skip: usize,
    remaining: Option<usize>,
    meter: Meter,
}

impl BatchStream for LimitNode {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        loop {
            if self.remaining == Some(0) {
                self.input = None;
            }
            let next = match self.input.as_mut() {
                Some(input) => input.next_batch()?,
                None => None,
            };
            let Some(batch) = next else {
                self.input = None;
                self.meter.hold(0);
                return Ok(None);
            };
            let skip = self.to_skip.min(batch.num_rows());
            self.to_skip -= skip;
            let rows = self.remaining.unwrap_or(usize::MAX);
            let rows = rows.min(batch.num_rows() - skip);
            self.remaining = self.remaining.map(|rem| rem - rows);
            if rows == 0 {
                continue;
            }
            // A cut batch's rows are copied out: kept to the statement's
            // end, a slice would hold all of its parent's values alive.
            let batch = match rows < batch.num_rows() {
                true => batch.copy_rows(skip, rows)?,
                false => batch,
            };
            self.meter.emit(&batch, 0);
            return Ok(Some(batch));
        }
    }
}

/// DISTINCT as a streaming dedup: the set of rows seen grows, but each batch
/// is emitted (minus already-seen rows) as soon as it arrives.
struct DistinctNode {
    input: Box<dyn BatchStream>,
    /// Every distinct row so far, interned whole.
    seen: Grouper,
    ids: Vec<u32>,
    state_bytes: usize,
    meter: Meter,
}

impl BatchStream for DistinctNode {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        loop {
            let Some(batch) = self.input.next_batch()? else {
                self.meter.hold(0);
                return Ok(None);
            };
            let known = self.seen.num_groups();
            self.seen.group_ids(batch.columns(), &mut self.ids)?;
            self.state_bytes = self.seen.key_bytes();
            // Ids are dense in first-appearance order: the first row of
            // each new group is the one carrying the next unseen id.
            let mut unseen = known as u32;
            let first_of_new = |(row, &id): (usize, &u32)| {
                (id == unseen).then(|| {
                    unseen += 1;
                    row
                })
            };
            let keep: Vec<usize> = self
                .ids
                .iter()
                .enumerate()
                .filter_map(first_of_new)
                .collect();
            if keep.is_empty() {
                self.meter.hold(self.state_bytes);
                continue;
            }
            let out = take_batch(&batch, &keep)?;
            self.meter.emit(&out, self.state_bytes);
            return Ok(Some(out));
        }
    }
}

// ---- pipeline breakers ----------------------------------------------------

/// Hash aggregate consuming its input batch-at-a-time: one
/// [`Accumulator`] per aggregate folds each batch into typed per-group
/// vectors, in first-appearance order, and only that state — not the input —
/// is retained. A global aggregate is the same accumulators over one group.
struct AggNode {
    /// `None` once consumed.
    input: Option<Box<dyn BatchStream>>,
    input_schema: Schema,
    /// Each aggregate's argument type, as the plan typed it.
    arg_types: Vec<DataType>,
    group_exprs: Vec<(Expr, String)>,
    agg_exprs: Vec<(AggExpr, String)>,
    out_schema: Schema,
    meter: Meter,
}

impl BatchStream for AggNode {
    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        let Some(mut input) = self.input.take() else {
            return Ok(None);
        };
        // One `Grouper` lives across all input batches: group ids stay
        // stable (insertion order) and index every accumulator's vectors.
        let mut grouper = Grouper::new();
        let global = self.group_exprs.is_empty();
        let mut accs: Vec<Accumulator> = (self.agg_exprs.iter().zip(&self.arg_types))
            .map(|((a, _), &t)| Accumulator::new(a.agg, t, global as usize))
            .collect();
        let (mut ids, mut seen) = (Vec::new(), false);
        while let Some(batch) = input.next_batch()? {
            seen = true;
            let arg_cols = agg_args(&self.agg_exprs, &batch)?;
            let args = accs.iter_mut().zip(&arg_cols);
            if global {
                for (acc, arg) in args {
                    acc.update_all(batch.num_rows(), arg.as_ref())?;
                }
            } else {
                let group_cols = eval_all(self.group_exprs.iter().map(|(e, _)| e), &batch)?;
                grouper.group_ids(&group_cols, &mut ids)?;
                for (acc, arg) in args {
                    acc.update(&ids, grouper.num_groups(), arg.as_ref())?;
                }
            }
            // The grouper's keys and lookup tables, and every accumulator.
            let state_bytes: usize = accs.iter().map(Accumulator::bytes).sum();
            self.meter.hold(grouper.key_bytes() + state_bytes);
        }
        drop(input);

        // With no input the grouper learns its key types from an empty
        // batch, so zero groups still come out as one empty column per key.
        if !seen && !global {
            let empty = RecordBatch::new_empty(self.input_schema.clone());
            let group_cols = eval_all(self.group_exprs.iter().map(|(e, _)| e), &empty)?;
            grouper.group_ids(&group_cols, &mut ids)?;
        }
        if !global {
            self.meter.span.attr("groups", grouper.num_groups() as u64);
            self.meter.span.attr("lookup", grouper.lookup());
        }
        // The group keys are the grouper's key columns as they are; each
        // aggregate finishes into a column beside them.
        let mut columns = grouper.key_columns();
        for acc in accs {
            columns.push(acc.finish()?);
        }
        for (col, field) in columns.iter_mut().zip(self.out_schema.fields()) {
            if col.data_type() != field.data_type() {
                *col = kernels::cast(col, field.data_type())?;
            }
        }
        let out = RecordBatch::try_new(self.out_schema.clone(), columns)?;
        self.meter.emit(&out, 0);
        Ok(Some(out))
    }
}

/// End of a build-row chain.
const NO_ROW: usize = usize::MAX;

/// The join's build side: the right input whole, its keys interned, and the
/// rows of each key chained in arrival order.
struct BuildSide {
    rows: RecordBatch,
    /// `rows.approx_bytes()`: what the join holds while it probes.
    bytes: usize,
    keys: Grouper,
    /// First build row per key group ([`NO_ROW`]: all its rows had a NULL
    /// in the key, and NULL keys never join).
    head: Vec<usize>,
    /// The next build row with the same key, per build row.
    next: Vec<usize>,
}

/// The columns of a key that can hold a NULL.
fn nullable(cols: &[Column]) -> Vec<&Column> {
    cols.iter().filter(|c| c.validity().is_some()).collect()
}

/// Hash join: interns the right side's keys as its batches stream in, then
/// probes one left batch at a time — probe rows resolve to key groups by
/// typed hashing, walk the group's chain, and both sides are gathered with
/// `take`. Output order is probe order, then build arrival order.
struct JoinNode {
    /// `None` once exhausted.
    left: Option<Box<dyn BatchStream>>,
    /// `None` once built.
    right: Option<Box<dyn BatchStream>>,
    join_type: JoinType,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    schema: Schema,
    build: Option<BuildSide>,
    ids: Vec<u32>,
    meter: Meter,
}

impl JoinNode {
    fn build_side(&mut self, mut right: Box<dyn BatchStream>) -> CResult<BuildSide> {
        let mut keys = Grouper::new();
        let (mut head, mut tail, mut next) = (Vec::new(), Vec::new(), Vec::new());
        let (mut batches, mut bytes) = (Vec::new(), 0usize);
        while let Some(batch) = right.next_batch()? {
            let cols = eval_all(&self.right_keys, &batch)?;
            keys.group_ids(&cols, &mut self.ids)?;
            head.resize(keys.num_groups(), NO_ROW);
            tail.resize(keys.num_groups(), NO_ROW);
            let nullable = nullable(&cols);
            for (i, &group) in self.ids.iter().enumerate() {
                let (row, group) = (next.len(), group as usize);
                next.push(NO_ROW);
                if nullable.iter().any(|c| !c.is_valid(i)) {
                    continue; // SQL: null keys never join
                }
                match tail[group] {
                    NO_ROW => head[group] = row,
                    last => next[last] = row,
                }
                tail[group] = row;
            }
            bytes += batch.approx_bytes();
            self.meter.hold(bytes);
            batches.push(batch);
        }
        Ok(BuildSide {
            rows: RecordBatch::concat_all(right.schema(), batches)?,
            bytes,
            keys,
            head,
            next,
        })
    }
}

impl BatchStream for JoinNode {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        if let Some(right) = self.right.take() {
            self.build = Some(self.build_side(right)?);
        }
        loop {
            let (Some(build), Some(left)) = (&self.build, &mut self.left) else {
                return Ok(None);
            };
            let Some(lbatch) = left.next_batch()? else {
                self.left = None;
                return Ok(None);
            };
            let cols = eval_all(&self.left_keys, &lbatch)?;
            // (Keys of different types never compare equal, whatever their
            // bits: an INT key joins no DOUBLE, TIMESTAMP or DATE key.)
            build.keys.lookup_ids(&cols, &mut self.ids)?;
            let nullable = nullable(&cols);
            let mut left_idx: Vec<usize> = Vec::with_capacity(self.ids.len());
            let mut right_idx: Vec<Option<usize>> = Vec::with_capacity(self.ids.len());
            for (row, &group) in self.ids.iter().enumerate() {
                let unmatched =
                    group == Grouper::NO_GROUP || nullable.iter().any(|c| !c.is_valid(row));
                let mut at = if unmatched {
                    NO_ROW
                } else {
                    build.head[group as usize]
                };
                if at == NO_ROW && self.join_type == JoinType::Left {
                    left_idx.push(row);
                    right_idx.push(None);
                }
                while at != NO_ROW {
                    left_idx.push(row);
                    right_idx.push(Some(at));
                    at = build.next[at];
                }
            }
            if left_idx.is_empty() {
                continue;
            }
            let left_cols = lbatch.columns().iter().map(|c| take_column(c, &left_idx));
            let right_cols = (build.rows.columns().iter()).map(|c| take_column_opt(c, &right_idx));
            let columns = left_cols.chain(right_cols).collect::<CResult<_>>()?;
            let out = RecordBatch::try_new(self.schema.clone(), columns)?;
            self.meter.emit(&out, build.bytes);
            return Ok(Some(out));
        }
    }
}

/// Sort: a sort cannot emit its first row before it has seen its last. With
/// no `fetch` it collects its input, sorts it once and gathers it once. With
/// `fetch = k` it keeps candidates instead: an input batch contributes at
/// most its own first k rows, and once more than 2k are held they shrink to
/// their first k, so it holds at most 2k rows plus one input batch. Ties
/// keep arrival order (file order on a lake table) either way: candidates
/// precede later rows, and [`kernels::sort_indices_top`] breaks ties by row.
struct SortNode {
    /// `None` once consumed.
    input: Option<Box<dyn BatchStream>>,
    keys: Vec<(Expr, bool)>,
    fetch: Option<usize>,
    schema: Schema,
    meter: Meter,
}

impl SortNode {
    /// The first `k` rows of `batches` in key order. `bytes` is what the
    /// node holds meanwhile: `batches` themselves when it owns several.
    fn top(&mut self, batches: Vec<RecordBatch>, bytes: usize, k: usize) -> CResult<RecordBatch> {
        if batches.len() > 1 {
            self.meter.hold(2 * bytes); // the concatenation beside its parts
        }
        let all = RecordBatch::concat_all(&self.schema, batches)?;
        self.meter.hold(bytes);
        let sort_field = |(e, desc): &(Expr, bool)| {
            let field = if *desc {
                SortField::desc
            } else {
                SortField::asc
            };
            eval(e, &all).map(field).map_err(ext)
        };
        let fields = self
            .keys
            .iter()
            .map(sort_field)
            .collect::<CResult<Vec<_>>>()?;
        let out = take_batch(&all, &kernels::sort_indices_top(&fields, k)?)?;
        self.meter.hold(bytes + out.approx_bytes());
        Ok(out)
    }
}

impl BatchStream for SortNode {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        let Some(mut input) = self.input.take() else {
            return Ok(None);
        };
        let k = self.fetch.unwrap_or(usize::MAX);
        let (mut held, mut bytes, mut rows, mut most) = (Vec::new(), 0usize, 0usize, 0usize);
        while let Some(mut batch) = input.next_batch()? {
            most = most.max(rows + batch.num_rows());
            if batch.num_rows() > k {
                batch = self.top(vec![batch], bytes, k)?;
            }
            rows += batch.num_rows();
            bytes += batch.approx_bytes();
            held.push(batch);
            self.meter.hold(bytes);
            if rows > k.saturating_mul(2) {
                let top = self.top(std::mem::take(&mut held), bytes, k)?;
                (rows, bytes) = (top.num_rows(), top.approx_bytes());
                held.push(top);
                self.meter.hold(bytes);
            }
        }
        drop(input);
        let out = self.top(held, bytes, k)?;
        if let Some(fetch) = self.fetch.filter(|_| self.meter.span.is_recording()) {
            self.meter.span.attr("fetch", fetch);
            self.meter.span.attr("held_rows", most);
        }
        self.meter.emit(&out, 0);
        Ok(Some(out))
    }
}
