//! Vectorized expression evaluation — [`eval`] turns a bound expression and
//! a batch into a column, with the columnar kernels doing the per-row work
//! — and the batch-at-a-time pieces the operators of [`crate::streaming`]
//! are made of: exact re-filtering and projection.

use crate::ast::{ArithOp, Expr, LogicalOp};
use crate::error::{Result, SqlError};
use crate::functions::{eval_scalar_function, like_match, scalar_return_type, unify};
use lakehouse_columnar::kernels::cast::cast_value;
use lakehouse_columnar::kernels::{
    self, cmp_column_scalar, cmp_columns, filter_batch, to_selection, CmpOp,
};
use lakehouse_columnar::{Column, ColumnBuilder, DataType, RecordBatch, Schema, Value};

/// Apply `filters` exactly: the pushed predicates a provider did not apply
/// exactly itself. A batch whose every row passes one is handed on as it
/// is, not copied.
pub(crate) fn filter_exact(mut batch: RecordBatch, filters: &[Expr]) -> Result<RecordBatch> {
    for f in filters {
        if batch.num_rows() == 0 {
            break;
        }
        let selection = to_selection(&eval(f, &batch)?)?;
        if !selection.all_set() {
            batch = filter_batch(&batch, &selection)?;
        }
    }
    Ok(batch)
}

/// Evaluate projection expressions over a batch, casting each column to the
/// inferred output field type (e.g. an int literal projected into a float
/// column).
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
    Ok(RecordBatch::try_new_with_rows(
        schema,
        columns,
        batch.num_rows(),
    )?)
}

/// The column of `batch` a bound reference names.
pub(crate) fn column<'b>(c: &crate::ast::ColumnRef, batch: &'b RecordBatch) -> Result<&'b Column> {
    let column = c.index.and_then(|i| batch.columns().get(i));
    column.ok_or_else(|| SqlError::Execution(format!("column {c} is not bound to its input")))
}

/// Evaluate a bound expression against a batch, producing a column of
/// `batch.num_rows()` values. Each level of a deep expression is one call
/// of this function, so the arms that need more than their operands' columns
/// keep their state in functions of their own: the frame that recurses stays
/// small.
pub fn eval(expr: &Expr, batch: &RecordBatch) -> Result<Column> {
    let n = batch.num_rows();
    Ok(match expr {
        Expr::Column(c) => column(c, batch)?.clone(),
        Expr::Literal(v) => Column::from_value(v, n)?,
        Expr::Compare { op, left, right } => compare(*op, left, right, batch)?,
        Expr::Arith { op, left, right } => {
            let (l, r) = (eval(left, batch)?, eval(right, batch)?);
            match op {
                ArithOp::Add => kernels::add(&l, &r)?,
                ArithOp::Sub => kernels::sub(&l, &r)?,
                ArithOp::Mul => kernels::mul(&l, &r)?,
                ArithOp::Div => kernels::div(&l, &r)?,
                ArithOp::Mod => kernels::modulo(&l, &r)?,
            }
        }
        Expr::Logical { op, left, right } => {
            let (l, r) = (eval(left, batch)?, eval(right, batch)?);
            match op {
                LogicalOp::And => kernels::and_kleene(&l, &r)?,
                LogicalOp::Or => kernels::or_kleene(&l, &r)?,
            }
        }
        Expr::Not(e) => kernels::not(&eval(e, batch)?)?,
        Expr::Negate(e) => kernels::neg(&eval(e, batch)?)?,
        Expr::IsNull { expr, negated } => {
            let col = eval(expr, batch)?;
            Column::from_bool((0..n).map(|i| col.is_valid(i) == *negated).collect())
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            // expr >= low AND expr <= high.
            let ge = compare(CmpOp::GtEq, expr, low, batch)?;
            let both = kernels::and_kleene(&ge, &compare(CmpOp::LtEq, expr, high, batch)?)?;
            negate_if(both, *negated)?
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => negate_if(in_list(&eval(expr, batch)?, list, batch)?, *negated)?,
        Expr::Like {
            expr,
            pattern,
            negated,
        } => like(&eval(expr, batch)?, pattern, *negated)?,
        Expr::Function { name, args } => function(name, args, batch)?,
        Expr::CountStar => {
            let err = "COUNT(*) in a row-level context";
            return Err(SqlError::Execution(err.into()));
        }
        // A NULL the binder typed from its context.
        Expr::Cast { expr, to } if matches!(**expr, Expr::Literal(Value::Null)) => {
            Column::new_null(*to, n)
        }
        Expr::Cast { expr, to } => kernels::cast(&eval(expr, batch)?, *to)?,
        Expr::Case {
            branches,
            else_expr,
        } => case(branches, else_expr.as_deref(), batch)?,
    })
}

fn negate_if(col: Column, negated: bool) -> Result<Column> {
    Ok(if negated { kernels::not(&col)? } else { col })
}

/// `left OP right`, with a literal on either side compared as a scalar.
fn compare(op: CmpOp, left: &Expr, right: &Expr, batch: &RecordBatch) -> Result<Column> {
    Ok(match (left, right) {
        (l, Expr::Literal(v)) => cmp_column_scalar(op, &eval(l, batch)?, v)?,
        (Expr::Literal(v), r) => cmp_column_scalar(op.flip(), &eval(r, batch)?, v)?,
        (l, r) => cmp_columns(op, &eval(l, batch)?, &eval(r, batch)?)?,
    })
}

fn in_list(col: &Column, list: &[Expr], batch: &RecordBatch) -> Result<Column> {
    let mut acc: Option<Column> = None;
    for item in list {
        let eq = match item {
            Expr::Literal(v) => cmp_column_scalar(CmpOp::Eq, col, v)?,
            other => cmp_columns(CmpOp::Eq, col, &eval(other, batch)?)?,
        };
        acc = Some(match acc {
            Some(prev) => kernels::or_kleene(&prev, &eq)?,
            None => eq,
        });
    }
    acc.ok_or_else(|| SqlError::Execution("empty IN list".into()))
}

fn like(col: &Column, pattern: &str, negated: bool) -> Result<Column> {
    // Dictionary column: run the pattern over each distinct value once,
    // then the per-row work is a u32 table lookup.
    if let Some(d) = col.as_dict() {
        let table: Vec<bool> = d
            .dict()
            .iter()
            .map(|s| like_match(s, pattern) != negated)
            .collect();
        let out: Vec<bool> = d.codes().iter().map(|&c| table[c as usize]).collect();
        return Ok(Column::Bool(out, d.validity().cloned()));
    }
    let (values, validity) = col.as_utf8()?;
    let out: Vec<bool> = values
        .iter()
        .map(|s| like_match(s, pattern) != negated)
        .collect();
    Ok(Column::Bool(out, validity.cloned()))
}

/// A scalar function, row by row over its evaluated arguments, typed from
/// their columns' types.
fn function(name: &str, args: &[Expr], batch: &RecordBatch) -> Result<Column> {
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
    let types: Vec<_> = arg_cols.iter().map(|c| Some(c.data_type())).collect();
    let out_type = scalar_return_type(name, &types)?.unwrap_or(DataType::Int64);
    let n = batch.num_rows();
    let mut b = ColumnBuilder::with_capacity(out_type, n);
    for row in 0..n {
        let row_args: Vec<Value> = arg_cols
            .iter()
            .map(|c| c.get(row))
            .collect::<lakehouse_columnar::Result<_>>()?;
        let v = eval_scalar_function(name, &row_args)?;
        b.push_value(&cast_value(&v, out_type)?)?;
    }
    Ok(b.finish())
}

/// `CASE WHEN`, row by row, typed as its result columns unify.
fn case(
    branches: &[(Expr, Expr)],
    else_expr: Option<&Expr>,
    batch: &RecordBatch,
) -> Result<Column> {
    let cond_cols = branches
        .iter()
        .map(|(c, _)| eval(c, batch))
        .collect::<Result<Vec<_>>>()?;
    let val_cols = branches
        .iter()
        .map(|(_, v)| eval(v, batch))
        .collect::<Result<Vec<_>>>()?;
    let else_col = else_expr.map(|e| eval(e, batch)).transpose()?;
    let types = val_cols
        .iter()
        .chain(&else_col)
        .map(|c| Some(c.data_type()));
    let out_type = types.fold(None, unify).unwrap_or(DataType::Int64);
    let n = batch.num_rows();
    let mut b = ColumnBuilder::with_capacity(out_type, n);
    for row in 0..n {
        let mut taken = else_col.as_ref();
        for (cond, val) in cond_cols.iter().zip(&val_cols) {
            if cond.get(row)? == Value::Bool(true) {
                taken = Some(val);
                break;
            }
        }
        match taken {
            Some(c) => b.push_value(&cast_value(&c.get(row)?, out_type)?)?,
            None => b.push_null(),
        }
    }
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_columnar::Field;

    #[test]
    fn filter_exact_hands_on_a_batch_whose_every_row_passes() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
        let batch = RecordBatch::try_new(schema, vec![Column::from_i64(vec![1, 2, 3])]).unwrap();
        let x_at_least = |v| Expr::Compare {
            op: CmpOp::GtEq,
            left: Box::new(Expr::bound("x", 0)),
            right: Box::new(Expr::Literal(Value::Int64(v))),
        };
        let values = |b: &RecordBatch| b.column(0).as_i64().unwrap().0.as_ptr();
        let before = values(&batch);
        // Every filter is evaluated; a batch they all pass is the same
        // buffers, not a copy.
        let out = filter_exact(batch, &[x_at_least(1), x_at_least(0)]).unwrap();
        assert_eq!((out.num_rows(), values(&out)), (3, before));
        let out = filter_exact(out, &[x_at_least(0), x_at_least(2)]).unwrap();
        assert_eq!(out.column(0), &Column::from_i64(vec![2, 3]));
        assert_eq!(filter_exact(out, &[x_at_least(9)]).unwrap().num_rows(), 0);
    }
}
