//! Vectorized expression evaluation — [`eval`] turns an expression and a
//! batch into a column, with the columnar kernels doing the per-row work —
//! and the batch-at-a-time pieces the operators of [`crate::streaming`] are
//! made of: exact re-filtering, projection, join-key resolution.

use crate::ast::{ArithOp, Expr, LogicalOp};
use crate::error::{Result, SqlError};
use crate::functions::{eval_scalar_function, like_match};
use crate::logical::{expr_resolves, infer_type, resolve_column};
use lakehouse_columnar::kernels::{
    self, cmp_column_scalar, cmp_columns, filter_batch, to_selection, CmpOp,
};
use lakehouse_columnar::{Column, ColumnBuilder, RecordBatch, Schema, Value};

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
    Ok(RecordBatch::try_new(schema, columns)?)
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

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_columnar::{DataType, Field};

    #[test]
    fn filter_exact_hands_on_a_batch_whose_every_row_passes() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
        let batch = RecordBatch::try_new(schema, vec![Column::from_i64(vec![1, 2, 3])]).unwrap();
        let x_at_least = |v| Expr::Compare {
            op: CmpOp::GtEq,
            left: Box::new(Expr::col("x".to_string())),
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
