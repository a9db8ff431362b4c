//! Physical execution: evaluate a logical plan to a [`RecordBatch`].
//!
//! Materialized, vectorized execution — each operator consumes and produces
//! whole batches, with the columnar kernels doing the per-row work. At the
//! paper's Reasonable Scale (§3.1) this is the right trade: operator
//! pipelining buys little when the data fits in memory and the bottleneck is
//! object storage.

use crate::ast::{ArithOp, Expr, JoinType, LogicalOp};
use crate::engine::TableProvider;
use crate::error::{Result, SqlError};
use crate::functions::{eval_scalar_function, like_match};
use crate::logical::{expr_resolves, infer_type, resolve_column, LogicalPlan};
use lakehouse_columnar::kernels::{
    self, cmp_column_scalar, cmp_columns, filter_batch, take_batch, to_selection, AggState, CmpOp,
    Grouper, SortField,
};
use lakehouse_columnar::{Column, ColumnBuilder, DataType, Field, RecordBatch, Schema, Value};
use std::collections::HashMap;

/// Execution tuning.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Worker threads for parallel operators (1 = serial).
    pub parallelism: usize,
    /// Minimum rows before parallel operators engage (below this the
    /// thread-spawn overhead outweighs the win).
    pub parallel_threshold_rows: usize,
    /// Maximum rows per batch yielded by streaming sources (oversized
    /// batches are split; see [`crate::streaming`]).
    pub batch_rows: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallelism: 1,
            parallel_threshold_rows: 32 * 1024,
            batch_rows: 8192,
        }
    }
}

/// Execute a logical plan against a table provider (serial defaults).
pub fn execute(plan: &LogicalPlan, provider: &dyn TableProvider) -> Result<RecordBatch> {
    execute_with_options(plan, provider, &ExecOptions::default())
}

/// Execute with explicit tuning (the paper's §5 "parallelizing SQL
/// execution": filters and aggregations fan out over worker threads when
/// inputs are large enough).
pub fn execute_with_options(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    options: &ExecOptions,
) -> Result<RecordBatch> {
    let wall_start = std::time::Instant::now();
    let sim_start = lakehouse_obs::thread_sim_nanos();
    // Late materialization: dictionary-encoded columns flow through the
    // operators as codes; only the rows that survive to the final result
    // are decoded to plain strings.
    let result = execute_node(plan, provider, options, "0").map(RecordBatch::decode_dicts);
    lakehouse_obs::ctx::charge(|l| {
        l.add_kernel_nanos(
            wall_start.elapsed().as_nanos() as u64,
            lakehouse_obs::thread_sim_nanos().saturating_sub(sim_start),
        );
    });
    result
}

/// Recursive execution step. `path` identifies the node's position in the
/// plan (root `"0"`, child `i` of `p` at `"p.i"`); spans record it so
/// `EXPLAIN ANALYZE` can match stats back to plan nodes.
fn execute_node(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    options: &ExecOptions,
    path: &str,
) -> Result<RecordBatch> {
    // Cooperative cancellation point: every operator boundary re-checks
    // the owning query's token. The message keeps the stable store-layer
    // prefix (`query killed (...)`) so upper layers that only see strings
    // can still classify the failure.
    if let Err(reason) = lakehouse_obs::check_current() {
        return Err(SqlError::Execution(format!("query killed ({reason})")));
    }
    // SubqueryAlias is transparent: no operator runs, so no span, and its
    // input keeps the alias's path (the streaming builder does the same).
    if let LogicalPlan::SubqueryAlias { input, .. } = plan {
        return execute_node(input, provider, options, path);
    }
    let span = lakehouse_obs::span(plan.name());
    let batch = execute_operator(plan, provider, options, path)?;
    if span.is_recording() {
        span.attr("path", path);
        span.attr("rows", batch.num_rows() as u64);
        span.attr("batches", 1u64);
        span.attr("bytes", batch.approx_bytes() as u64);
    }
    Ok(batch)
}

fn execute_operator(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    options: &ExecOptions,
    path: &str,
) -> Result<RecordBatch> {
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            filters,
            fetch,
            ..
        } => {
            if table == "__dual" {
                // SELECT-without-FROM: one dummy row.
                return Ok(RecordBatch::try_new(
                    Schema::new(vec![Field::new("__dummy", DataType::Int64, true)]),
                    vec![Column::from_i64(vec![0])],
                )?);
            }
            let Some(budget) = *fetch else {
                let batch = provider.scan(table, projection.as_deref(), filters)?;
                return filter_exact(batch, filters);
            };
            // A row budget from a LIMIT above: pull the table in the
            // provider's own units (a lakehouse table streams file by file)
            // and stop once enough rows have passed the filters; the files
            // behind are never read.
            let mut stream =
                provider.scan_stream(table, projection.as_deref(), filters, usize::MAX)?;
            let (mut batches, mut rows) = (Vec::new(), 0);
            while rows < budget {
                let Some(batch) = stream.next_batch().map_err(crate::streaming::unext)? else {
                    break;
                };
                let batch = filter_exact(batch, filters)?;
                rows += batch.num_rows();
                batches.push(batch);
            }
            Ok(match batches.len() {
                0 => RecordBatch::new_empty(stream.schema().clone()),
                1 => batches.pop().expect("one batch present"),
                _ => RecordBatch::concat(&batches)?,
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            let batch = execute_node(input, provider, options, &format!("{path}.0"))?;
            if options.parallelism > 1 && batch.num_rows() >= options.parallel_threshold_rows {
                return crate::parallel::parallel_filter(&batch, predicate, options.parallelism);
            }
            let mask = eval(predicate, &batch)?;
            Ok(filter_batch(&batch, &to_selection(&mask)?)?)
        }
        LogicalPlan::Project { input, exprs } => {
            let batch = execute_node(input, provider, options, &format!("{path}.0"))?;
            execute_project(&batch, exprs, plan.schema()?)
        }
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            agg_exprs,
        } => {
            let batch = execute_node(input, provider, options, &format!("{path}.0"))?;
            if options.parallelism > 1 && batch.num_rows() >= options.parallel_threshold_rows {
                return crate::parallel::parallel_aggregate(
                    &batch,
                    group_exprs,
                    agg_exprs,
                    &plan.schema()?,
                    options.parallelism,
                );
            }
            execute_aggregate(plan, &batch, group_exprs, agg_exprs)
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
        } => {
            let lbatch = execute_node(left, provider, options, &format!("{path}.0"))?;
            let rbatch = execute_node(right, provider, options, &format!("{path}.1"))?;
            execute_join(&lbatch, &rbatch, *join_type, on)
        }
        LogicalPlan::Sort { input, keys } => {
            let batch = execute_node(input, provider, options, &format!("{path}.0"))?;
            let sort_fields = keys
                .iter()
                .map(|(e, desc)| {
                    let col = eval(e, &batch)?;
                    Ok(if *desc {
                        SortField::desc(col)
                    } else {
                        SortField::asc(col)
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            let indices = kernels::sort_indices(&sort_fields)?;
            Ok(take_batch(&batch, &indices)?)
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            // Slide the slice below a projection: projection expressions are
            // pure and row-wise, so evaluating them over rows the LIMIT is
            // about to drop is pure waste. (Done here rather than in the
            // optimizer so EXPLAIN output is unchanged.)
            if let LogicalPlan::Project {
                input: proj_input,
                exprs,
            } = input.as_ref()
            {
                // The slice runs before the projection, but the span tree
                // still shows Project at its plan position under Limit.
                let proj_span = lakehouse_obs::span("Project");
                let proj_path = format!("{path}.0");
                let batch = execute_node(proj_input, provider, options, &format!("{proj_path}.0"))?;
                let sliced = slice_limit(&batch, *limit, *offset)?;
                let out = execute_project(&sliced, exprs, input.schema()?)?;
                if proj_span.is_recording() {
                    proj_span.attr("path", proj_path);
                    proj_span.attr("rows", out.num_rows() as u64);
                    proj_span.attr("batches", 1u64);
                    proj_span.attr("bytes", out.approx_bytes() as u64);
                }
                return Ok(out);
            }
            let batch = execute_node(input, provider, options, &format!("{path}.0"))?;
            slice_limit(&batch, *limit, *offset)
        }
        LogicalPlan::Distinct { input } => {
            let batch = execute_node(input, provider, options, &format!("{path}.0"))?;
            let all_cols: Vec<usize> = (0..batch.num_columns()).collect();
            let mut seen = std::collections::HashSet::new();
            let mut keep = Vec::new();
            for row in 0..batch.num_rows() {
                let key = kernels::hash::RowKey::from_batch(&batch, &all_cols, row)?;
                if seen.insert(key) {
                    keep.push(row);
                }
            }
            Ok(take_batch(&batch, &keep)?)
        }
        // Handled by `execute_node` before dispatch; recurse for completeness.
        LogicalPlan::SubqueryAlias { input, .. } => execute_node(input, provider, options, path),
    }
}

/// Providers may filter only approximately (file pruning): apply the pushed
/// predicates exactly.
pub(crate) fn filter_exact(mut batch: RecordBatch, filters: &[Expr]) -> Result<RecordBatch> {
    for f in filters {
        if batch.num_rows() == 0 {
            break;
        }
        let mask = eval(f, &batch)?;
        batch = filter_batch(&batch, &to_selection(&mask)?)?;
    }
    Ok(batch)
}

/// Apply LIMIT/OFFSET to a materialized batch.
fn slice_limit(batch: &RecordBatch, limit: Option<usize>, offset: usize) -> Result<RecordBatch> {
    let start = offset.min(batch.num_rows());
    let len = limit.unwrap_or(usize::MAX).min(batch.num_rows() - start);
    Ok(batch.slice(start, len)?)
}

/// Evaluate projection expressions over a batch, casting each column to the
/// inferred output field type (e.g. an int literal projected into a float
/// column). Shared by the Project operator, the limit-below-projection fast
/// path, and the streaming executor.
pub(crate) fn execute_project(
    batch: &RecordBatch,
    exprs: &[(Expr, String)],
    schema: Schema,
) -> Result<RecordBatch> {
    let columns = exprs
        .iter()
        .zip(schema.fields())
        .map(|((e, _), field)| {
            let col = eval(e, batch)?;
            if col.data_type() != field.data_type() {
                Ok(kernels::cast(&col, field.data_type())?)
            } else {
                Ok(col)
            }
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(RecordBatch::try_new(schema, columns)?)
}

fn execute_aggregate(
    plan: &LogicalPlan,
    batch: &RecordBatch,
    group_exprs: &[(Expr, String)],
    agg_exprs: &[(crate::logical::AggExpr, String)],
) -> Result<RecordBatch> {
    let out_schema = plan.schema()?;
    // Evaluate group keys and aggregate arguments once, vectorized.
    let group_cols = group_exprs
        .iter()
        .map(|(e, _)| eval(e, batch))
        .collect::<Result<Vec<_>>>()?;
    let arg_cols = agg_exprs
        .iter()
        .map(|(a, _)| a.arg.as_ref().map(|e| eval(e, batch)).transpose())
        .collect::<Result<Vec<_>>>()?;

    // Resolve rows to dense group ids once (dictionary keys group in code
    // space), then run each aggregate as one typed pass over the batch.
    let n = batch.num_rows();
    let mut grouper = Grouper::new();
    let mut ids = Vec::new();
    if group_exprs.is_empty() {
        // Global aggregation: one group even over zero rows.
        ids.resize(n, 0u32);
    } else {
        grouper.group_ids(&group_cols, &mut ids)?;
    }
    let num_groups = if group_exprs.is_empty() {
        1
    } else {
        grouper.num_groups()
    };
    let mut states: Vec<Vec<AggState>> = agg_exprs
        .iter()
        .map(|(a, _)| vec![AggState::new(a.agg); num_groups])
        .collect();
    for (slots, arg_col) in states.iter_mut().zip(&arg_cols) {
        kernels::update_grouped(slots, &ids, arg_col.as_ref())?;
    }

    // Assemble output.
    let mut builders: Vec<ColumnBuilder> = out_schema
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
        for (j, slots) in states.iter().enumerate() {
            let input_type = match &arg_cols[j] {
                Some(col) => col.data_type(),
                None => DataType::Int64,
            };
            let v = slots[g].finish(input_type)?;
            builders[group_exprs.len() + j].push_value(&v)?;
        }
    }
    let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
    Ok(RecordBatch::try_new(out_schema, columns)?)
}

fn execute_join(
    left: &RecordBatch,
    right: &RecordBatch,
    join_type: JoinType,
    on: &[(Expr, Expr)],
) -> Result<RecordBatch> {
    let (left_keys, right_keys) = split_join_keys(on, left.schema(), right.schema())?;
    let lcols = left_keys
        .iter()
        .map(|e| eval(e, left))
        .collect::<Result<Vec<_>>>()?;
    let rcols = right_keys
        .iter()
        .map(|e| eval(e, right))
        .collect::<Result<Vec<_>>>()?;

    // Build hash table on the right side.
    let mut table: HashMap<kernels::hash::RowKey, Vec<usize>> = HashMap::new();
    for row in 0..right.num_rows() {
        let key_values: Vec<Value> = rcols
            .iter()
            .map(|c| c.get(row))
            .collect::<lakehouse_columnar::Result<_>>()?;
        let key = kernels::hash::RowKey::from_values(&key_values);
        if key.has_null() {
            continue; // SQL: null keys never join
        }
        table.entry(key).or_default().push(row);
    }
    // Probe with the left side.
    let mut left_idx = Vec::new();
    let mut right_idx: Vec<Option<usize>> = Vec::new();
    for row in 0..left.num_rows() {
        let key_values: Vec<Value> = lcols
            .iter()
            .map(|c| c.get(row))
            .collect::<lakehouse_columnar::Result<_>>()?;
        let key = kernels::hash::RowKey::from_values(&key_values);
        let matches = if key.has_null() {
            None
        } else {
            table.get(&key)
        };
        match matches {
            Some(rows) => {
                for &r in rows {
                    left_idx.push(row);
                    right_idx.push(Some(r));
                }
            }
            None => {
                if join_type == JoinType::Left {
                    left_idx.push(row);
                    right_idx.push(None);
                }
            }
        }
    }

    // Materialize output: left columns gathered, right columns gathered with
    // nulls for non-matches.
    let mut fields: Vec<Field> = left.schema().fields().to_vec();
    let mut columns: Vec<Column> = left
        .columns()
        .iter()
        .map(|c| kernels::take_column(c, &left_idx))
        .collect::<lakehouse_columnar::Result<_>>()?;
    for (f, col) in right.schema().fields().iter().zip(right.columns()) {
        // LEFT JOIN makes right columns nullable.
        fields.push(Field::new(f.name(), f.data_type(), true));
        let mut b = ColumnBuilder::with_capacity(f.data_type(), right_idx.len());
        for r in &right_idx {
            match r {
                Some(r) => b.push_value(&col.get(*r)?)?,
                None => b.push_null(),
            }
        }
        columns.push(b.finish());
    }
    Ok(RecordBatch::try_new(Schema::new(fields), columns)?)
}

/// Decide which side of each ON equality belongs to which join input by
/// trying to resolve it against the left schema, then the right.
pub(crate) fn split_join_keys(
    on: &[(Expr, Expr)],
    left: &Schema,
    right: &Schema,
) -> Result<(Vec<Expr>, Vec<Expr>)> {
    if on.is_empty() {
        return Err(SqlError::Execution("join requires an ON clause".into()));
    }
    let (mut left_keys, mut right_keys) = (Vec::new(), Vec::new());
    for (a, b) in on {
        if expr_resolves(a, left) && expr_resolves(b, right) {
            left_keys.push(a.clone());
            right_keys.push(b.clone());
        } else if expr_resolves(b, left) && expr_resolves(a, right) {
            left_keys.push(b.clone());
            right_keys.push(a.clone());
        } else {
            return Err(SqlError::Plan(format!(
                "cannot resolve join condition {a} = {b} against the two inputs"
            )));
        }
    }
    Ok((left_keys, right_keys))
}

/// Evaluate an expression against a batch, producing a column of
/// `batch.num_rows()` values.
pub fn eval(expr: &Expr, batch: &RecordBatch) -> Result<Column> {
    let n = batch.num_rows();
    match expr {
        Expr::Column { qualifier, name } => {
            let i = resolve_column(batch.schema(), qualifier.as_deref(), name)?;
            Ok(batch.column(i).clone())
        }
        Expr::Literal(v) => Ok(Column::from_value(v, n)?),
        Expr::Compare { op, left, right } => {
            // Column-vs-literal fast path.
            if let Expr::Literal(v) = right.as_ref() {
                let l = eval(left, batch)?;
                return Ok(cmp_column_scalar(*op, &l, v)?);
            }
            if let Expr::Literal(v) = left.as_ref() {
                let r = eval(right, batch)?;
                return Ok(cmp_column_scalar(op.flip(), &r, v)?);
            }
            let l = eval(left, batch)?;
            let r = eval(right, batch)?;
            Ok(cmp_columns(*op, &l, &r)?)
        }
        Expr::Arith { op, left, right } => {
            let l = eval(left, batch)?;
            let r = eval(right, batch)?;
            Ok(match op {
                ArithOp::Add => kernels::add(&l, &r)?,
                ArithOp::Sub => kernels::sub(&l, &r)?,
                ArithOp::Mul => kernels::mul(&l, &r)?,
                ArithOp::Div => kernels::div(&l, &r)?,
                ArithOp::Mod => kernels::modulo(&l, &r)?,
            })
        }
        Expr::Logical { op, left, right } => {
            let l = eval(left, batch)?;
            let r = eval(right, batch)?;
            Ok(match op {
                LogicalOp::And => kernels::and_kleene(&l, &r)?,
                LogicalOp::Or => kernels::or_kleene(&l, &r)?,
            })
        }
        Expr::Not(e) => Ok(kernels::not(&eval(e, batch)?)?),
        Expr::Negate(e) => Ok(kernels::neg(&eval(e, batch)?)?),
        Expr::IsNull { expr, negated } => {
            let col = eval(expr, batch)?;
            let values: Vec<bool> = (0..col.len())
                .map(|i| col.is_valid(i) == *negated)
                .collect();
            Ok(Column::from_bool(values))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            // Desugar: expr >= low AND expr <= high.
            let ge = Expr::Compare {
                op: CmpOp::GtEq,
                left: expr.clone(),
                right: low.clone(),
            };
            let le = Expr::Compare {
                op: CmpOp::LtEq,
                left: expr.clone(),
                right: high.clone(),
            };
            let both = Expr::Logical {
                op: LogicalOp::And,
                left: Box::new(ge),
                right: Box::new(le),
            };
            let result = eval(&both, batch)?;
            if *negated {
                Ok(kernels::not(&result)?)
            } else {
                Ok(result)
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let col = eval(expr, batch)?;
            let mut acc: Option<Column> = None;
            for item in list {
                let eq = match item {
                    Expr::Literal(v) => cmp_column_scalar(CmpOp::Eq, &col, v)?,
                    other => cmp_columns(CmpOp::Eq, &col, &eval(other, batch)?)?,
                };
                acc = Some(match acc {
                    Some(prev) => kernels::or_kleene(&prev, &eq)?,
                    None => eq,
                });
            }
            let result = acc.ok_or_else(|| SqlError::Execution("empty IN list".into()))?;
            if *negated {
                Ok(kernels::not(&result)?)
            } else {
                Ok(result)
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let col = eval(expr, batch)?;
            // Dictionary column: run the pattern over each distinct value
            // once, then the per-row work is a u32 table lookup.
            if let Some(d) = col.as_dict() {
                let table: Vec<bool> = d
                    .dict()
                    .iter()
                    .map(|s| like_match(s, pattern) != *negated)
                    .collect();
                let out: Vec<bool> = d.codes().iter().map(|&c| table[c as usize]).collect();
                return Ok(Column::Bool(out, d.validity().cloned()));
            }
            let (values, validity) = col.as_utf8()?;
            let out: Vec<bool> = values
                .iter()
                .map(|s| like_match(s, pattern) != *negated)
                .collect();
            Ok(Column::Bool(out, validity.cloned()))
        }
        Expr::Function { name, args } => {
            // Aggregates must have been rewritten away by the planner.
            if lakehouse_columnar::kernels::Aggregator::parse(name).is_some() {
                return Err(SqlError::Execution(format!(
                    "aggregate {name} in a row-level context"
                )));
            }
            let arg_cols = args
                .iter()
                .map(|a| eval(a, batch))
                .collect::<Result<Vec<_>>>()?;
            let out_type = crate::functions::scalar_return_type(name, args, batch.schema())?;
            let mut b = ColumnBuilder::with_capacity(out_type, n);
            for row in 0..n {
                let row_args: Vec<Value> = arg_cols
                    .iter()
                    .map(|c| c.get(row))
                    .collect::<lakehouse_columnar::Result<_>>()?;
                let v = eval_scalar_function(name, &row_args)?;
                let v = lakehouse_columnar::kernels::cast::cast_value(&v, out_type)?;
                b.push_value(&v)?;
            }
            Ok(b.finish())
        }
        Expr::CountStar => Err(SqlError::Execution(
            "COUNT(*) in a row-level context".into(),
        )),
        Expr::Cast { expr, to } => Ok(kernels::cast(&eval(expr, batch)?, *to)?),
        Expr::Case {
            branches,
            else_expr,
        } => {
            let out_type = infer_type(expr, batch.schema())?;
            let cond_cols = branches
                .iter()
                .map(|(c, _)| eval(c, batch))
                .collect::<Result<Vec<_>>>()?;
            let val_cols = branches
                .iter()
                .map(|(_, v)| eval(v, batch))
                .collect::<Result<Vec<_>>>()?;
            let else_col = else_expr.as_ref().map(|e| eval(e, batch)).transpose()?;
            let mut b = ColumnBuilder::with_capacity(out_type, n);
            for row in 0..n {
                let mut pushed = false;
                for (cond, val) in cond_cols.iter().zip(&val_cols) {
                    if cond.get(row)? == Value::Bool(true) {
                        let v = lakehouse_columnar::kernels::cast::cast_value(
                            &val.get(row)?,
                            out_type,
                        )?;
                        b.push_value(&v)?;
                        pushed = true;
                        break;
                    }
                }
                if !pushed {
                    match &else_col {
                        Some(c) => {
                            let v = lakehouse_columnar::kernels::cast::cast_value(
                                &c.get(row)?,
                                out_type,
                            )?;
                            b.push_value(&v)?;
                        }
                        None => b.push_null(),
                    }
                }
            }
            Ok(b.finish())
        }
    }
}
