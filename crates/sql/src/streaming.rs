//! Pull-based streaming execution: the logical plan compiled to a tree of
//! [`BatchStream`] operators that pipeline batch-at-a-time.
//!
//! Pipeline operators (scan, filter, project, limit) transform each batch as
//! it flows through and hold only their current output; pipeline breakers
//! (hash aggregate, hash join build, sort, distinct) consume their input
//! incrementally — accumulating group states, a hash table over stored build
//! batches, or per-batch sorted runs — so no operator ever needs the whole
//! input concatenated. A satisfied `LIMIT` drops its input stream, which
//! drops the scan, which leaves the remaining data files unread.
//!
//! Every operator charges its live bytes to a shared
//! [`MemoryTracker`]; the tracker's high-water mark is the
//! pipeline's true peak working set, reported as
//! [`ExecReport::peak_bytes`] — the number a serverless runtime's vertical
//! memory allocator would have to grant (the resource the paper's §3.1
//! "reasonable scale" argument is about bounding).
//!
//! Output is byte-for-byte identical to the materialized executor
//! ([`crate::physical`]): operators preserve row order per batch, breakers
//! use the same insertion-order grouping / stable merge, and the columnar
//! crate normalizes validity bitmaps so representation cannot diverge.

use crate::ast::{Expr, JoinType};
use crate::engine::TableProvider;
use crate::error::{Result, SqlError};
use crate::logical::{AggExpr, LogicalPlan};
use crate::physical::{eval, execute_project, filter_exact, split_join_keys, ExecOptions};
use lakehouse_columnar::kernels::hash::RowKey;
use lakehouse_columnar::kernels::{
    self, filter_batch, take_batch, to_selection, AggState, SortField,
};
use lakehouse_columnar::{
    BatchStream, BatchesStream, Column, ColumnBuilder, ColumnarError, DataType, Field,
    MemoryTracker, RecordBatch, Schema, Value,
};
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

/// What one streaming execution did: peak working set, batches pulled out of
/// table scans, and rows emitted per operator (leaf to root).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// High-water mark of live bytes across all operators.
    pub peak_bytes: usize,
    /// Batches yielded by table scans (per-file under streaming; one per
    /// table when the source is materialized).
    pub batches_streamed: usize,
    /// (operator name, rows emitted), in construction order (leaves first).
    pub operator_rows: Vec<(String, usize)>,
    /// Whether scans streamed per-file (vs. a materialized one-shot source).
    pub streaming: bool,
    /// Wall-clock time of the execution, in **nanoseconds** (every report
    /// struct carries times in nanos; render with
    /// [`lakehouse_obs::fmt_duration`]).
    pub wall_nanos: u64,
    /// Simulated-clock time charged to the executing thread, in
    /// **nanoseconds** (0 when no sim source is installed).
    pub sim_nanos: u64,
}

/// Shared per-execution state: the memory gauge plus counters.
#[derive(Default)]
struct ExecStats {
    tracker: MemoryTracker,
    batches_streamed: Cell<usize>,
    operator_rows: RefCell<Vec<(String, usize)>>,
}

impl ExecStats {
    fn register(&self, name: &str) -> usize {
        let mut rows = self.operator_rows.borrow_mut();
        rows.push((name.to_string(), 0));
        rows.len() - 1
    }

    fn add_rows(&self, slot: usize, n: usize) {
        self.operator_rows.borrow_mut()[slot].1 += n;
    }
}

/// One operator's stake in the shared tracker: `hold(n)` swaps the
/// operator's previously-charged bytes for `n` (its new live set), and drop
/// releases whatever is still held, so the gauge never leaks across early
/// termination.
struct Gauge {
    stats: Rc<ExecStats>,
    held: usize,
}

impl Gauge {
    fn new(stats: &Rc<ExecStats>) -> Gauge {
        Gauge {
            stats: Rc::clone(stats),
            held: 0,
        }
    }

    fn hold(&mut self, bytes: usize) {
        self.stats.tracker.release(self.held);
        self.stats.tracker.charge(bytes);
        self.held = bytes;
    }
}

impl Drop for Gauge {
    fn drop(&mut self) {
        self.stats.tracker.release(self.held);
    }
}

type CResult<T> = lakehouse_columnar::Result<T>;

/// Carry a SQL-layer error through the columnar [`BatchStream`] interface.
fn ext(e: SqlError) -> ColumnarError {
    ColumnarError::External(e.to_string())
}

/// Recover at the pipeline root: external messages were SQL errors.
pub(crate) fn unext(e: ColumnarError) -> SqlError {
    match e {
        ColumnarError::External(msg) => SqlError::Execution(msg),
        other => SqlError::Columnar(other),
    }
}

fn value_bytes(v: &Value) -> usize {
    std::mem::size_of::<Value>()
        + match v {
            Value::Utf8(s) => s.len(),
            _ => 0,
        }
}

/// Execute a plan through the streaming operator tree. `stream_scans`
/// selects the source: pull batches per data file via
/// [`TableProvider::scan_stream`], or materialize each table up front
/// (identical machinery, honest baseline for the memory comparison).
pub fn execute_streaming(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    options: &ExecOptions,
    stream_scans: bool,
) -> Result<(RecordBatch, ExecReport)> {
    // Declared before the operator tree: the operators' spans (fields of the
    // stream, dropped at the end of the block below) close before this one.
    let span = lakehouse_obs::span("execute");
    let wall_start = std::time::Instant::now();
    let sim_start = lakehouse_obs::thread_sim_nanos();
    let stats = Rc::new(ExecStats::default());
    let result = {
        let ctx = lakehouse_obs::QueryCtx::current();
        let memory_budget = ctx.as_ref().and_then(|c| c.memory_budget_bytes());
        let mut root = build_stream(plan, provider, options, &stats, stream_scans, "0")?;
        let mut batches: Vec<RecordBatch> = Vec::new();
        while let Some(batch) = root.next_batch().map_err(unext)? {
            // Per-batch cooperative cancellation + memory-budget point: the
            // root drain is the one yield every streaming plan flows
            // through, so a killed query stops within one batch and an
            // over-budget working set trips the token here, where the
            // shared tracker sees every operator's live bytes.
            if let Some(ctx) = &ctx {
                if memory_budget.is_some_and(|b| stats.tracker.current() as u64 > b) {
                    ctx.kill(lakehouse_obs::KillReason::MemoryBudget);
                }
                if let Err(reason) = ctx.check() {
                    return Err(SqlError::Execution(format!("query killed ({reason})")));
                }
            }
            if batch.num_rows() > 0 {
                // Collected output is live until the query returns.
                stats.tracker.charge(batch.approx_bytes());
                batches.push(batch);
            }
        }
        // Late materialization: dictionary-encoded columns survive the whole
        // pipeline as codes; decode to plain strings only here, at the root.
        match batches.len() {
            0 => RecordBatch::new_empty(root.schema().clone()),
            1 => batches.pop().expect("one surviving batch"),
            _ => RecordBatch::concat(&batches)?,
        }
        .decode_dicts()
        // Dropping `root` here releases every operator's gauge.
    };
    let wall_nanos = wall_start.elapsed().as_nanos() as u64;
    let sim_nanos = lakehouse_obs::thread_sim_nanos().saturating_sub(sim_start);
    lakehouse_obs::ctx::charge(|l| l.add_kernel_nanos(wall_nanos, sim_nanos));
    let report = ExecReport {
        peak_bytes: stats.tracker.peak(),
        batches_streamed: stats.batches_streamed.get(),
        operator_rows: stats.operator_rows.borrow().clone(),
        streaming: stream_scans,
        wall_nanos,
        sim_nanos,
    };
    if span.is_recording() {
        span.attr("rows", result.num_rows() as u64);
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

/// Open a node's span at build time, tagged with its plan path. The guard
/// lives as the operator's **last** field: it closes when the operator drops,
/// after the operator's input (declared earlier) has closed its own spans, so
/// an operator's span covers its whole lifetime in the pipeline and nests its
/// children correctly even under LIMIT early termination.
fn node_span(plan: &LogicalPlan, path: &str) -> lakehouse_obs::SpanGuard {
    let span = lakehouse_obs::span(plan.name());
    span.attr("path", path);
    span
}

/// Accumulate one emitted batch into a node's span (no-op when not tracing).
fn record_emit(span: &lakehouse_obs::SpanGuard, batch: &RecordBatch) {
    if span.is_recording() {
        span.add_u64("rows", batch.num_rows() as u64);
        span.add_u64("batches", 1);
        span.add_u64("bytes", batch.approx_bytes() as u64);
    }
}

/// Compile a logical plan node to a streaming operator.
fn build_stream(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    options: &ExecOptions,
    stats: &Rc<ExecStats>,
    stream_scans: bool,
    path: &str,
) -> Result<Box<dyn BatchStream>> {
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            filters,
            ..
        } => {
            let span = node_span(plan, path);
            span.attr("table", table.as_str());
            let inner: Box<dyn BatchStream> = if table == "__dual" {
                // SELECT-without-FROM: one dummy row.
                Box::new(BatchesStream::one(RecordBatch::try_new(
                    Schema::new(vec![Field::new("__dummy", DataType::Int64, true)]),
                    vec![Column::from_i64(vec![0])],
                )?))
            } else if stream_scans {
                provider.scan_stream(table, projection.as_deref(), filters, options.batch_rows)?
            } else {
                let batch = provider.scan(table, projection.as_deref(), filters)?;
                Box::new(BatchesStream::one(batch))
            };
            Ok(Box::new(ScanNode {
                inner,
                filters: filters.clone(),
                slot: stats.register(plan.name()),
                stats: Rc::clone(stats),
                gauge: Gauge::new(stats),
                span,
            }))
        }
        LogicalPlan::Filter { input, predicate } => {
            let span = node_span(plan, path);
            let input = build_stream(
                input,
                provider,
                options,
                stats,
                stream_scans,
                &child(path, 0),
            )?;
            Ok(Box::new(FilterNode {
                input,
                predicate: predicate.clone(),
                options: *options,
                slot: stats.register(plan.name()),
                stats: Rc::clone(stats),
                gauge: Gauge::new(stats),
                span,
            }))
        }
        LogicalPlan::Project { input, exprs } => {
            let span = node_span(plan, path);
            let schema = plan.schema()?;
            let input = build_stream(
                input,
                provider,
                options,
                stats,
                stream_scans,
                &child(path, 0),
            )?;
            Ok(Box::new(ProjectNode {
                input,
                exprs: exprs.clone(),
                schema,
                slot: stats.register(plan.name()),
                stats: Rc::clone(stats),
                gauge: Gauge::new(stats),
                span,
            }))
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            agg_exprs,
        } => {
            let span = node_span(plan, path);
            let input_schema = input.schema()?;
            let out_schema = plan.schema()?;
            let input = build_stream(
                input,
                provider,
                options,
                stats,
                stream_scans,
                &child(path, 0),
            )?;
            Ok(Box::new(AggNode {
                input: Some(input),
                input_schema,
                group_exprs: group_exprs.clone(),
                agg_exprs: agg_exprs.clone(),
                out_schema,
                done: false,
                slot: stats.register(plan.name()),
                stats: Rc::clone(stats),
                gauge: Gauge::new(stats),
                span,
            }))
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
        } => {
            let span = node_span(plan, path);
            let left = build_stream(
                left,
                provider,
                options,
                stats,
                stream_scans,
                &child(path, 0),
            )?;
            // The left subtree's guards are still open inside its nodes;
            // without re-parenting, the right subtree's spans would nest
            // under the left scan instead of under the join.
            let right = {
                let _under_join = lakehouse_obs::reparent_under(&span);
                build_stream(
                    right,
                    provider,
                    options,
                    stats,
                    stream_scans,
                    &child(path, 1),
                )?
            };
            // Output schema mirrors the materialized join: left fields as-is,
            // right fields nullable (LEFT JOIN may null them).
            let mut fields: Vec<Field> = left.schema().fields().to_vec();
            for f in right.schema().fields() {
                fields.push(Field::new(f.name(), f.data_type(), true));
            }
            Ok(Box::new(JoinNode {
                left: Some(left),
                right: Some(right),
                join_type: *join_type,
                on: on.clone(),
                schema: Schema::new(fields),
                build: None,
                slot: stats.register(plan.name()),
                stats: Rc::clone(stats),
                gauge: Gauge::new(stats),
                span,
            }))
        }
        LogicalPlan::Sort { input, keys } => {
            let span = node_span(plan, path);
            let input = build_stream(
                input,
                provider,
                options,
                stats,
                stream_scans,
                &child(path, 0),
            )?;
            let schema = input.schema().clone();
            Ok(Box::new(SortNode {
                input: Some(input),
                keys: keys.clone(),
                schema,
                done: false,
                slot: stats.register(plan.name()),
                stats: Rc::clone(stats),
                gauge: Gauge::new(stats),
                span,
            }))
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let span = node_span(plan, path);
            let input = build_stream(
                input,
                provider,
                options,
                stats,
                stream_scans,
                &child(path, 0),
            )?;
            let schema = input.schema().clone();
            Ok(Box::new(LimitNode {
                input: Some(input),
                schema,
                to_skip: *offset,
                remaining: *limit,
                slot: stats.register(plan.name()),
                stats: Rc::clone(stats),
                gauge: Gauge::new(stats),
                span,
            }))
        }
        LogicalPlan::Distinct { input } => {
            let span = node_span(plan, path);
            let input = build_stream(
                input,
                provider,
                options,
                stats,
                stream_scans,
                &child(path, 0),
            )?;
            Ok(Box::new(DistinctNode {
                input,
                seen: std::collections::HashSet::new(),
                state_bytes: 0,
                slot: stats.register(plan.name()),
                stats: Rc::clone(stats),
                gauge: Gauge::new(stats),
                span,
            }))
        }
        // Transparent: no operator runs, the input keeps the alias's path
        // (the materialized executor does the same).
        LogicalPlan::SubqueryAlias { input, .. } => {
            build_stream(input, provider, options, stats, stream_scans, path)
        }
    }
}

/// Path of child `i` of the node at `path`.
fn child(path: &str, i: usize) -> String {
    format!("{path}.{i}")
}

// ---- pipeline operators ---------------------------------------------------

/// Source node: pulls batches from the provider's stream and re-applies the
/// pushed-down filters exactly (providers may filter only approximately).
struct ScanNode {
    inner: Box<dyn BatchStream>,
    filters: Vec<Expr>,
    slot: usize,
    stats: Rc<ExecStats>,
    gauge: Gauge,
    span: lakehouse_obs::SpanGuard,
}

impl BatchStream for ScanNode {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        loop {
            let Some(batch) = self.inner.next_batch()? else {
                self.gauge.hold(0);
                return Ok(None);
            };
            self.stats
                .batches_streamed
                .set(self.stats.batches_streamed.get() + 1);
            let batch = filter_exact(batch, &self.filters).map_err(ext)?;
            if batch.num_rows() == 0 {
                continue;
            }
            self.stats.add_rows(self.slot, batch.num_rows());
            record_emit(&self.span, &batch);
            self.gauge.hold(batch.approx_bytes());
            return Ok(Some(batch));
        }
    }
}

struct FilterNode {
    input: Box<dyn BatchStream>,
    predicate: Expr,
    options: ExecOptions,
    slot: usize,
    stats: Rc<ExecStats>,
    gauge: Gauge,
    span: lakehouse_obs::SpanGuard,
}

impl BatchStream for FilterNode {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        loop {
            let Some(batch) = self.input.next_batch()? else {
                self.gauge.hold(0);
                return Ok(None);
            };
            let out = if self.options.parallelism > 1
                && batch.num_rows() >= self.options.parallel_threshold_rows
            {
                crate::parallel::parallel_filter(&batch, &self.predicate, self.options.parallelism)
                    .map_err(ext)?
            } else {
                let mask = eval(&self.predicate, &batch).map_err(ext)?;
                filter_batch(&batch, &to_selection(&mask)?)?
            };
            if out.num_rows() == 0 {
                continue;
            }
            self.stats.add_rows(self.slot, out.num_rows());
            record_emit(&self.span, &out);
            self.gauge.hold(out.approx_bytes());
            return Ok(Some(out));
        }
    }
}

struct ProjectNode {
    input: Box<dyn BatchStream>,
    exprs: Vec<(Expr, String)>,
    schema: Schema,
    slot: usize,
    stats: Rc<ExecStats>,
    gauge: Gauge,
    span: lakehouse_obs::SpanGuard,
}

impl BatchStream for ProjectNode {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        let Some(batch) = self.input.next_batch()? else {
            self.gauge.hold(0);
            return Ok(None);
        };
        let out = execute_project(&batch, &self.exprs, self.schema.clone()).map_err(ext)?;
        self.stats.add_rows(self.slot, out.num_rows());
        record_emit(&self.span, &out);
        self.gauge.hold(out.approx_bytes());
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
    slot: usize,
    stats: Rc<ExecStats>,
    gauge: Gauge,
    span: lakehouse_obs::SpanGuard,
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
            let Some(input) = self.input.as_mut() else {
                self.gauge.hold(0);
                return Ok(None);
            };
            let Some(batch) = input.next_batch()? else {
                self.input = None;
                self.gauge.hold(0);
                return Ok(None);
            };
            let mut batch = batch;
            if self.to_skip > 0 {
                let skip = self.to_skip.min(batch.num_rows());
                self.to_skip -= skip;
                if skip == batch.num_rows() {
                    continue;
                }
                batch = batch.slice(skip, batch.num_rows() - skip)?;
            }
            if let Some(rem) = self.remaining {
                if batch.num_rows() > rem {
                    batch = batch.slice(0, rem)?;
                }
                self.remaining = Some(rem - batch.num_rows());
            }
            if batch.num_rows() == 0 {
                continue;
            }
            self.stats.add_rows(self.slot, batch.num_rows());
            record_emit(&self.span, &batch);
            self.gauge.hold(batch.approx_bytes());
            return Ok(Some(batch));
        }
    }
}

/// DISTINCT as a streaming dedup: the seen-set grows, but each batch is
/// emitted (minus already-seen rows) as soon as it arrives.
struct DistinctNode {
    input: Box<dyn BatchStream>,
    seen: std::collections::HashSet<RowKey>,
    state_bytes: usize,
    slot: usize,
    stats: Rc<ExecStats>,
    gauge: Gauge,
    span: lakehouse_obs::SpanGuard,
}

impl BatchStream for DistinctNode {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        loop {
            let Some(batch) = self.input.next_batch()? else {
                self.gauge.hold(0);
                return Ok(None);
            };
            let all_cols: Vec<usize> = (0..batch.num_columns()).collect();
            let mut keep = Vec::new();
            for row in 0..batch.num_rows() {
                let key = RowKey::from_batch(&batch, &all_cols, row)?;
                if !self.seen.contains(&key) {
                    self.state_bytes += key.to_values().iter().map(value_bytes).sum::<usize>();
                    self.seen.insert(key);
                    keep.push(row);
                }
            }
            if keep.is_empty() {
                self.gauge.hold(self.state_bytes);
                continue;
            }
            let out = take_batch(&batch, &keep)?;
            self.stats.add_rows(self.slot, out.num_rows());
            record_emit(&self.span, &out);
            self.gauge.hold(self.state_bytes + out.approx_bytes());
            return Ok(Some(out));
        }
    }
}

// ---- pipeline breakers ----------------------------------------------------

/// Hash aggregate consuming its input batch-at-a-time: group states
/// accumulate incrementally (insertion order, matching the materialized
/// operator), and only the per-group state — not the input — is retained.
struct AggNode {
    input: Option<Box<dyn BatchStream>>,
    input_schema: Schema,
    group_exprs: Vec<(Expr, String)>,
    agg_exprs: Vec<(AggExpr, String)>,
    out_schema: Schema,
    done: bool,
    slot: usize,
    stats: Rc<ExecStats>,
    gauge: Gauge,
    span: lakehouse_obs::SpanGuard,
}

impl AggNode {
    fn new_states(&self) -> Vec<AggState> {
        self.agg_exprs
            .iter()
            .map(|(a, _)| AggState::new(a.agg))
            .collect()
    }
}

impl BatchStream for AggNode {
    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        // One `Grouper` lives across all input batches: group ids stay
        // stable (insertion order) while each batch is accumulated by the
        // typed grouped kernels instead of per-row boxed updates.
        let mut grouper = kernels::Grouper::new();
        let global = self.group_exprs.is_empty();
        let mut states_per_agg: Vec<Vec<AggState>> = if global {
            // Global aggregation: one group even over zero rows.
            self.new_states().into_iter().map(|s| vec![s]).collect()
        } else {
            self.agg_exprs.iter().map(|_| Vec::new()).collect()
        };
        let mut ids: Vec<u32> = Vec::new();
        let mut state_bytes = 0usize;
        let mut arg_types: Option<Vec<DataType>> = None;
        let mut input = self.input.take().expect("aggregate input not yet consumed");
        while let Some(batch) = input.next_batch()? {
            let group_cols = self
                .group_exprs
                .iter()
                .map(|(e, _)| eval(e, &batch))
                .collect::<Result<Vec<_>>>()
                .map_err(ext)?;
            let arg_cols = self
                .agg_exprs
                .iter()
                .map(|(a, _)| a.arg.as_ref().map(|e| eval(e, &batch)).transpose())
                .collect::<Result<Vec<_>>>()
                .map_err(ext)?;
            if arg_types.is_none() {
                arg_types = Some(
                    arg_cols
                        .iter()
                        .map(|c| c.as_ref().map_or(DataType::Int64, Column::data_type))
                        .collect(),
                );
            }
            if global {
                ids.clear();
                ids.resize(batch.num_rows(), 0);
            } else {
                let known = grouper.num_groups();
                grouper.group_ids(&group_cols, &mut ids)?;
                // Charge newly interned groups: key bytes + one state per
                // aggregate.
                for key in &grouper.keys()[known..] {
                    state_bytes += key.iter().map(value_bytes).sum::<usize>()
                        + self.agg_exprs.len() * std::mem::size_of::<AggState>();
                }
                for ((a, _), slots) in self.agg_exprs.iter().zip(&mut states_per_agg) {
                    slots.resize(grouper.num_groups(), AggState::new(a.agg));
                }
            }
            for (slots, arg_col) in states_per_agg.iter_mut().zip(&arg_cols) {
                kernels::update_grouped(slots, &ids, arg_col.as_ref())?;
            }
            self.gauge.hold(state_bytes);
        }
        drop(input);

        // Finish types: from the first batch's evaluated argument columns,
        // or (empty input) from the args evaluated over an empty batch of
        // the input schema — same result, since eval types are
        // schema-determined.
        let arg_types = match arg_types {
            Some(t) => t,
            None => {
                let empty = RecordBatch::new_empty(self.input_schema.clone());
                self.agg_exprs
                    .iter()
                    .map(|(a, _)| match &a.arg {
                        Some(e) => eval(e, &empty).map(|c| c.data_type()),
                        None => Ok(DataType::Int64),
                    })
                    .collect::<Result<Vec<_>>>()
                    .map_err(ext)?
            }
        };
        let num_groups = if global { 1 } else { grouper.num_groups() };
        let mut builders: Vec<ColumnBuilder> = self
            .out_schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::with_capacity(f.data_type(), num_groups))
            .collect();
        let keys = grouper.keys();
        for g in 0..num_groups {
            if let Some(key_values) = keys.get(g) {
                for (i, v) in key_values.iter().enumerate() {
                    builders[i].push_value(v)?;
                }
            }
            for (j, slots) in states_per_agg.iter().enumerate() {
                let v = slots[g].finish(arg_types[j])?;
                builders[self.group_exprs.len() + j].push_value(&v)?;
            }
        }
        let columns: Vec<Column> = builders.into_iter().map(ColumnBuilder::finish).collect();
        let out = RecordBatch::try_new(self.out_schema.clone(), columns)?;
        self.stats.add_rows(self.slot, out.num_rows());
        record_emit(&self.span, &out);
        self.gauge.hold(out.approx_bytes());
        Ok(Some(out))
    }
}

/// The join's build side: stored right-side batches plus a hash index of
/// key → (batch, row) locations.
struct BuildSide {
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    batches: Vec<RecordBatch>,
    table: HashMap<RowKey, Vec<(usize, usize)>>,
}

/// Hash join: builds the right side incrementally (batches stored as they
/// stream in, never concatenated), then probes one left batch at a time.
struct JoinNode {
    left: Option<Box<dyn BatchStream>>,
    right: Option<Box<dyn BatchStream>>,
    join_type: JoinType,
    on: Vec<(Expr, Expr)>,
    schema: Schema,
    build: Option<BuildSide>,
    slot: usize,
    stats: Rc<ExecStats>,
    gauge: Gauge,
    span: lakehouse_obs::SpanGuard,
}

impl JoinNode {
    fn build_right(&mut self) -> CResult<()> {
        if self.build.is_some() {
            return Ok(());
        }
        let mut right = self.right.take().expect("join build side not yet consumed");
        let left_schema = self
            .left
            .as_ref()
            .expect("join probe side present during build")
            .schema()
            .clone();
        let (left_keys, right_keys) =
            split_join_keys(&self.on, &left_schema, right.schema()).map_err(ext)?;
        let mut build = BuildSide {
            left_keys,
            right_keys,
            batches: Vec::new(),
            table: HashMap::new(),
        };
        let mut bytes = 0usize;
        while let Some(batch) = right.next_batch()? {
            let rcols = build
                .right_keys
                .iter()
                .map(|e| eval(e, &batch))
                .collect::<Result<Vec<_>>>()
                .map_err(ext)?;
            let batch_idx = build.batches.len();
            for row in 0..batch.num_rows() {
                let key_values: Vec<Value> =
                    rcols.iter().map(|c| c.get(row)).collect::<CResult<_>>()?;
                let key = RowKey::from_values(&key_values);
                if key.has_null() {
                    continue; // SQL: null keys never join
                }
                build.table.entry(key).or_default().push((batch_idx, row));
            }
            bytes += batch.approx_bytes();
            self.gauge.hold(bytes);
            build.batches.push(batch);
        }
        self.build = Some(build);
        Ok(())
    }
}

impl BatchStream for JoinNode {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        self.build_right()?;
        let build = self.build.as_ref().expect("build side ready");
        loop {
            let Some(left) = self.left.as_mut() else {
                return Ok(None);
            };
            let Some(lbatch) = left.next_batch()? else {
                self.left = None;
                return Ok(None);
            };
            let lcols = build
                .left_keys
                .iter()
                .map(|e| eval(e, &lbatch))
                .collect::<Result<Vec<_>>>()
                .map_err(ext)?;
            let mut left_idx: Vec<usize> = Vec::new();
            let mut right_ref: Vec<Option<(usize, usize)>> = Vec::new();
            for row in 0..lbatch.num_rows() {
                let key_values: Vec<Value> =
                    lcols.iter().map(|c| c.get(row)).collect::<CResult<_>>()?;
                let key = RowKey::from_values(&key_values);
                let matches = if key.has_null() {
                    None
                } else {
                    build.table.get(&key)
                };
                match matches {
                    Some(locs) => {
                        for &loc in locs {
                            left_idx.push(row);
                            right_ref.push(Some(loc));
                        }
                    }
                    None => {
                        if self.join_type == JoinType::Left {
                            left_idx.push(row);
                            right_ref.push(None);
                        }
                    }
                }
            }
            if left_idx.is_empty() {
                continue;
            }
            let mut columns: Vec<Column> = lbatch
                .columns()
                .iter()
                .map(|c| kernels::take_column(c, &left_idx))
                .collect::<CResult<_>>()?;
            let n_left = lbatch.num_columns();
            for ci in 0..build
                .batches
                .first()
                .map_or(self.schema.len() - n_left, |b| b.num_columns())
            {
                let field = self.schema.field(n_left + ci);
                let mut b = ColumnBuilder::with_capacity(field.data_type(), right_ref.len());
                for r in &right_ref {
                    match r {
                        Some((bi, ri)) => b.push_value(&build.batches[*bi].column(ci).get(*ri)?)?,
                        None => b.push_null(),
                    }
                }
                columns.push(b.finish());
            }
            let out = RecordBatch::try_new(self.schema.clone(), columns)?;
            self.stats.add_rows(self.slot, out.num_rows());
            record_emit(&self.span, &out);
            return Ok(Some(out));
        }
    }
}

/// One sorted run: a batch sorted by the keys, plus the (sorted) key values
/// materialized for the merge comparator.
struct SortedRun {
    batch: RecordBatch,
    key_values: Vec<Vec<Value>>,
}

/// Sort as accumulated sorted runs + a stable k-way merge: each input batch
/// is sorted on arrival and stored, so peak memory is the input plus one
/// output — never input-concat plus output.
struct SortNode {
    input: Option<Box<dyn BatchStream>>,
    keys: Vec<(Expr, bool)>,
    schema: Schema,
    done: bool,
    slot: usize,
    stats: Rc<ExecStats>,
    gauge: Gauge,
    span: lakehouse_obs::SpanGuard,
}

impl BatchStream for SortNode {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> CResult<Option<RecordBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut input = self.input.take().expect("sort input not yet consumed");
        let mut runs: Vec<SortedRun> = Vec::new();
        let mut acc_bytes = 0usize;
        while let Some(batch) = input.next_batch()? {
            if batch.num_rows() == 0 {
                continue;
            }
            let sort_fields = self
                .keys
                .iter()
                .map(|(e, desc)| {
                    let col = eval(e, &batch)?;
                    Ok(if *desc {
                        SortField::desc(col)
                    } else {
                        SortField::asc(col)
                    })
                })
                .collect::<Result<Vec<_>>>()
                .map_err(ext)?;
            let indices = kernels::sort_indices(&sort_fields)?;
            let sorted = take_batch(&batch, &indices)?;
            let key_values: Vec<Vec<Value>> = sort_fields
                .iter()
                .map(|sf| {
                    kernels::take_column(&sf.column, &indices).map(|c| c.iter_values().collect())
                })
                .collect::<CResult<_>>()?;
            acc_bytes += sorted.approx_bytes();
            self.gauge.hold(acc_bytes);
            runs.push(SortedRun {
                batch: sorted,
                key_values,
            });
        }
        drop(input);

        // Stable k-way merge: on key ties the earlier run (earlier input
        // batch) wins, and within a run input order is already preserved —
        // exactly the materialized stable sort's order.
        let descs: Vec<bool> = self.keys.iter().map(|(_, d)| *d).collect();
        let total: usize = runs.iter().map(|r| r.batch.num_rows()).sum();
        let mut heads = vec![0usize; runs.len()];
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(total);
        loop {
            let mut best: Option<usize> = None;
            for r in 0..runs.len() {
                if heads[r] >= runs[r].batch.num_rows() {
                    continue;
                }
                best = match best {
                    None => Some(r),
                    Some(b) => {
                        if cmp_key_rows(
                            &runs[r].key_values,
                            heads[r],
                            &runs[b].key_values,
                            heads[b],
                            &descs,
                        ) == Ordering::Less
                        {
                            Some(r)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
            let Some(r) = best else { break };
            order.push((r, heads[r]));
            heads[r] += 1;
        }
        // Apply the permutation with `take_batch` over the concatenated runs
        // (not a value-at-a-time rebuild) so the output is representationally
        // identical to the materialized sort, then release the runs.
        if runs.is_empty() {
            let out = RecordBatch::new_empty(self.schema.clone());
            self.gauge.hold(0);
            return Ok(Some(out));
        }
        let mut offsets = Vec::with_capacity(runs.len());
        let mut next = 0usize;
        for run in &runs {
            offsets.push(next);
            next += run.batch.num_rows();
        }
        let indices: Vec<usize> = order.iter().map(|&(r, i)| offsets[r] + i).collect();
        let combined = if runs.len() == 1 {
            runs.pop().expect("one run").batch
        } else {
            let batches: Vec<RecordBatch> = runs.into_iter().map(|r| r.batch).collect();
            RecordBatch::concat(&batches)?
        };
        self.gauge.hold(combined.approx_bytes());
        let out = take_batch(&combined, &indices)?;
        self.stats.add_rows(self.slot, out.num_rows());
        record_emit(&self.span, &out);
        self.gauge.hold(out.approx_bytes());
        Ok(Some(out))
    }
}

/// The sort comparator over materialized key values, replicating
/// [`kernels::sort_indices`]: ascending keys put nulls first, descending
/// keys put nulls last.
fn cmp_key_rows(
    a: &[Vec<Value>],
    arow: usize,
    b: &[Vec<Value>],
    brow: usize,
    descs: &[bool],
) -> Ordering {
    for (k, desc) in descs.iter().enumerate() {
        let (va, vb) = (&a[k][arow], &b[k][brow]);
        let nulls_first = !desc;
        let ord = match (va.is_null(), vb.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => {
                let o = va.total_cmp(vb);
                if *desc {
                    o.reverse()
                } else {
                    o
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}
