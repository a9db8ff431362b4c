//! Retained scalar reference implementations of the hot kernels.
//!
//! These are the original row-at-a-time kernels, kept verbatim when the
//! vectorized versions replaced them. They are the oracle of the seeded
//! property tests (`tests/kernel_equivalence.rs`), which assert the
//! vectorized kernels are byte-identical to these on random data.
//!
//! Keep these boring and obviously correct; do not optimize them.

use super::cmp::CmpOp;
use super::hash::{hash_value, RowKey};
use crate::batch::RecordBatch;
use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::datatype::{DataType, Value};
use crate::error::{ColumnarError, Result};
use std::cmp::Ordering;
use std::collections::HashMap;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Scalar reference for [`super::cmp_columns`].
pub fn cmp_columns_ref(op: CmpOp, left: &Column, right: &Column) -> Result<Column> {
    if left.len() != right.len() {
        return Err(ColumnarError::LengthMismatch {
            expected: left.len(),
            actual: right.len(),
        });
    }
    match (left, right) {
        (Column::Int64(a, _), Column::Int64(b, _)) => {
            typed_cmp_ref(op, a, b, left, right, |x, y| x.cmp(y))
        }
        (Column::Float64(a, _), Column::Float64(b, _)) => {
            typed_cmp_ref(op, a, b, left, right, |x, y| x.total_cmp(y))
        }
        (Column::Utf8(a, _), Column::Utf8(b, _)) => {
            typed_cmp_ref(op, a, b, left, right, |x, y| x.cmp(y))
        }
        (Column::Timestamp(a, _), Column::Timestamp(b, _)) => {
            typed_cmp_ref(op, a, b, left, right, |x, y| x.cmp(y))
        }
        (Column::Date(a, _), Column::Date(b, _)) => {
            typed_cmp_ref(op, a, b, left, right, |x, y| x.cmp(y))
        }
        _ => generic_cmp_ref(op, left, right),
    }
}

fn typed_cmp_ref<T>(
    op: CmpOp,
    a: &[T],
    b: &[T],
    left: &Column,
    right: &Column,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Result<Column> {
    let n = a.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(op.matches(cmp(&a[i], &b[i])));
    }
    let validity = combine_validity_ref(left, right)?;
    Ok(Column::Bool(out.into(), validity))
}

fn generic_cmp_ref(op: CmpOp, left: &Column, right: &Column) -> Result<Column> {
    let n = left.len();
    let mut out = Vec::with_capacity(n);
    let mut validity = Bitmap::new_clear(n);
    let mut has_null = false;
    for i in 0..n {
        let (lv, rv) = (left.get(i)?, right.get(i)?);
        if lv.is_null() || rv.is_null() {
            out.push(false);
            has_null = true;
        } else {
            out.push(op.matches(lv.total_cmp(&rv)));
            validity.set(i);
        }
    }
    Ok(Column::Bool(out.into(), has_null.then_some(validity)))
}

fn combine_validity_ref(left: &Column, right: &Column) -> Result<Option<Bitmap>> {
    Ok(match (left.validity(), right.validity()) {
        (None, None) => None,
        (Some(a), None) => Some(a.clone()),
        (None, Some(b)) => Some(b.clone()),
        (Some(a), Some(b)) => Some(a.and(b)?),
    })
}

/// Scalar reference for [`super::cmp_column_scalar`].
pub fn cmp_column_scalar_ref(op: CmpOp, col: &Column, scalar: &Value) -> Result<Column> {
    let n = col.len();
    if scalar.is_null() {
        return Ok(Column::new_null(crate::DataType::Bool, n));
    }
    match (col, scalar) {
        (Column::Int64(v, _), Value::Int64(s)) => {
            let out: Vec<bool> = v.iter().map(|x| op.matches(x.cmp(s))).collect();
            return Ok(Column::Bool(out.into(), col.validity().cloned()));
        }
        (Column::Float64(v, _), Value::Float64(s)) => {
            let out: Vec<bool> = v.iter().map(|x| op.matches(x.total_cmp(s))).collect();
            return Ok(Column::Bool(out.into(), col.validity().cloned()));
        }
        (Column::Utf8(v, _), Value::Utf8(s)) => {
            let out: Vec<bool> = v
                .iter()
                .map(|x| op.matches(x.as_str().cmp(s.as_str())))
                .collect();
            return Ok(Column::Bool(out.into(), col.validity().cloned()));
        }
        (Column::Timestamp(v, _), Value::Timestamp(s) | Value::Int64(s)) => {
            let out: Vec<bool> = v.iter().map(|x| op.matches(x.cmp(s))).collect();
            return Ok(Column::Bool(out.into(), col.validity().cloned()));
        }
        (Column::Date(v, _), Value::Date(s)) => {
            let out: Vec<bool> = v.iter().map(|x| op.matches(x.cmp(s))).collect();
            return Ok(Column::Bool(out.into(), col.validity().cloned()));
        }
        _ => {}
    }
    let mut out = Vec::with_capacity(n);
    let mut validity = Bitmap::new_clear(n);
    let mut has_null = false;
    for i in 0..n {
        let v = col.get(i)?;
        if v.is_null() {
            out.push(false);
            has_null = true;
        } else {
            out.push(op.matches(v.total_cmp(scalar)));
            validity.set(i);
        }
    }
    Ok(Column::Bool(out.into(), has_null.then_some(validity)))
}

/// Scalar reference for [`super::to_selection`]: one bit lookup per row.
pub fn to_selection_ref(mask: &Column) -> Result<Bitmap> {
    let (values, validity) = mask.as_bool()?;
    let mut bm = Bitmap::new_clear(values.len());
    for (i, &v) in values.iter().enumerate() {
        if v && validity.is_none_or(|b| b.get(i)) {
            bm.set(i);
        }
    }
    Ok(bm)
}

fn kleene_ref(
    left: &Column,
    right: &Column,
    op: impl Fn(Option<bool>, Option<bool>) -> Option<bool>,
) -> Result<Column> {
    let (lv, lb) = left.as_bool()?;
    let (rv, rb) = right.as_bool()?;
    if lv.len() != rv.len() {
        return Err(ColumnarError::LengthMismatch {
            expected: lv.len(),
            actual: rv.len(),
        });
    }
    let n = lv.len();
    let mut out = Vec::with_capacity(n);
    let mut validity = Bitmap::new_clear(n);
    let mut has_null = false;
    for i in 0..n {
        let l = lb.is_none_or(|b| b.get(i)).then(|| lv[i]);
        let r = rb.is_none_or(|b| b.get(i)).then(|| rv[i]);
        match op(l, r) {
            Some(v) => {
                out.push(v);
                validity.set(i);
            }
            None => {
                out.push(false);
                has_null = true;
            }
        }
    }
    Ok(Column::Bool(out.into(), has_null.then_some(validity)))
}

/// Scalar reference for [`super::and_kleene`].
pub fn and_kleene_ref(left: &Column, right: &Column) -> Result<Column> {
    kleene_ref(left, right, |l, r| match (l, r) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    })
}

/// Scalar reference for [`super::or_kleene`].
pub fn or_kleene_ref(left: &Column, right: &Column) -> Result<Column> {
    kleene_ref(left, right, |l, r| match (l, r) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    })
}

/// Scalar reference for [`super::take_column`]: per-element bounds check,
/// bit-by-bit validity copy, clone-per-element gather.
pub fn take_column_ref(col: &Column, indices: &[usize]) -> Result<Column> {
    let len = col.len();
    for &i in indices {
        if i >= len {
            return Err(ColumnarError::IndexOutOfBounds { index: i, len });
        }
    }
    let validity = crate::column::normalize_validity(col.validity().map(|b| {
        let mut nb = Bitmap::new_clear(indices.len());
        for (out, &i) in indices.iter().enumerate() {
            if b.get(i) {
                nb.set(out);
            }
        }
        nb
    }));
    fn gather<T: Clone>(values: &[T], indices: &[usize]) -> Vec<T> {
        indices.iter().map(|&i| values[i].clone()).collect()
    }
    Ok(match col {
        Column::Bool(v, _) => Column::Bool(gather(v, indices).into(), validity),
        Column::Int64(v, _) => Column::Int64(gather(v, indices).into(), validity),
        Column::Float64(v, _) => Column::Float64(gather(v, indices).into(), validity),
        Column::Utf8(v, _) => Column::Utf8(gather(v, indices).into(), validity),
        Column::Timestamp(v, _) => Column::Timestamp(gather(v, indices).into(), validity),
        Column::Date(v, _) => Column::Date(gather(v, indices).into(), validity),
        Column::Dict(_) => {
            // The reference predates dictionary columns: materialize first.
            take_column_ref(&col.materialize(), indices)?
        }
    })
}

/// Scalar reference for [`super::take_batch`]: checks the indices against
/// the row count (all a batch with no columns has), then again per column
/// (the allocation/validation pattern the fast kernel avoids).
pub fn take_batch_ref(batch: &RecordBatch, indices: &[usize]) -> Result<RecordBatch> {
    if let Some(&index) = indices.iter().find(|&&i| i >= batch.num_rows()) {
        let len = batch.num_rows();
        return Err(ColumnarError::IndexOutOfBounds { index, len });
    }
    let columns = batch
        .columns()
        .iter()
        .map(|c| take_column_ref(c, indices))
        .collect::<Result<Vec<_>>>()?;
    RecordBatch::try_new_with_rows(batch.schema().clone(), columns, indices.len())
}

/// Scalar reference for [`super::filter_batch`].
pub fn filter_batch_ref(batch: &RecordBatch, mask: &Bitmap) -> Result<RecordBatch> {
    take_batch_ref(batch, &mask.set_indices())
}

/// Scalar reference for [`super::hash_column`]: boxes every row as a
/// [`Value`] and allocates a fresh output vector.
pub fn hash_column_ref(col: &Column) -> Result<Vec<u64>> {
    let mut out = Vec::with_capacity(col.len());
    for i in 0..col.len() {
        out.push(hash_value(FNV_OFFSET, &col.get(i)?));
    }
    Ok(out)
}

/// Scalar reference for [`super::hash_batch_rows`].
pub fn hash_batch_rows_ref(batch: &RecordBatch, key_columns: &[usize]) -> Result<Vec<u64>> {
    let n = batch.num_rows();
    let mut hashes = vec![FNV_OFFSET; n];
    for &c in key_columns {
        let col = batch.column(c);
        for (i, h) in hashes.iter_mut().enumerate() {
            *h = hash_value(*h, &col.get(i)?);
        }
    }
    Ok(hashes)
}

/// Scalar reference for [`super::aggregate_column`] and
/// [`super::Accumulator`]: folds one boxed [`Value`] at a time into one
/// boxed state, no typed vectors.
pub fn aggregate_column_ref(agg: super::Aggregator, col: &Column) -> Result<Value> {
    use super::agg::canonical_nan;
    use super::Aggregator as A;
    let (mut count, mut sum_i, mut sum_f, mut overflowed) = (0i64, 0i64, 0.0f64, false);
    let mut best = Value::Null;
    let mut distinct = std::collections::HashSet::new();
    for i in 0..col.len() {
        let v = col.get(i)?;
        if v.is_null() {
            count += (agg == A::CountStar) as i64;
            continue;
        }
        count += 1;
        match (agg, &v) {
            (A::Count | A::CountStar, _) => {}
            (A::CountDistinct, v) => {
                distinct.insert(RowKey::from_values(std::slice::from_ref(v)));
            }
            (A::Sum | A::Avg, Value::Int64(x)) => {
                match sum_i.checked_add(*x) {
                    Some(s) => sum_i = s,
                    None => overflowed = true,
                }
                sum_f += *x as f64;
            }
            (A::Sum | A::Avg, Value::Float64(x)) => sum_f += x,
            (A::Sum | A::Avg, other) => {
                return Err(ColumnarError::TypeMismatch {
                    expected: "numeric".into(),
                    actual: format!("{other:?}"),
                })
            }
            (A::Min, v) if best.is_null() || v.total_cmp(&best).is_lt() => best = v.clone(),
            (A::Max, v) if best.is_null() || v.total_cmp(&best).is_gt() => best = v.clone(),
            (A::Min | A::Max, _) => {}
        }
    }
    Ok(match agg {
        A::Count | A::CountStar => Value::Int64(count),
        A::CountDistinct => Value::Int64(distinct.len() as i64),
        _ if count == 0 && agg != A::Min && agg != A::Max => Value::Null,
        A::Sum if col.data_type() == DataType::Float64 => Value::Float64(canonical_nan(sum_f)),
        A::Sum if overflowed => return Err(ColumnarError::Overflow("SUM".into())),
        A::Sum => Value::Int64(sum_i),
        A::Avg => Value::Float64(canonical_nan(sum_f / count as f64)),
        A::Min | A::Max => best,
    })
}

/// Scalar reference for [`super::sort_indices`]: boxes every key cell as a
/// [`Value`] and runs a stable sort over [`Value::total_cmp`].
pub fn sort_indices_ref(keys: &[super::SortField]) -> Result<Vec<usize>> {
    let Some(first) = keys.first() else {
        return Ok(vec![]);
    };
    let n = first.column.len();
    let mut indices: Vec<usize> = (0..n).collect();
    let key_values: Vec<Vec<Value>> = keys
        .iter()
        .map(|k| k.column.iter_values().collect())
        .collect();
    indices.sort_by(|&a, &b| {
        for (k, vals) in keys.iter().zip(&key_values) {
            let (va, vb) = (&vals[a], &vals[b]);
            let ord = match (va.is_null(), vb.is_null()) {
                (true, true) => Ordering::Equal,
                (true, false) => {
                    if k.nulls_first {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    }
                }
                (false, true) => {
                    if k.nulls_first {
                        Ordering::Greater
                    } else {
                        Ordering::Less
                    }
                }
                (false, false) => {
                    let o = va.total_cmp(vb);
                    if k.descending {
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
    });
    Ok(indices)
}

/// Scalar reference for [`super::Grouper`]: boxes every row's key into a
/// [`RowKey`] and looks it up in a `HashMap`.
#[derive(Debug, Default)]
pub struct GrouperRef {
    index: HashMap<RowKey, u32>,
    /// Group keys in first-appearance order.
    pub keys: Vec<Vec<Value>>,
}

impl GrouperRef {
    pub fn group_ids(&mut self, cols: &[Column], ids: &mut Vec<u32>) -> Result<()> {
        ids.clear();
        for i in 0..cols.first().map_or(0, Column::len) {
            let row = cols.iter().map(|c| c.get(i)).collect::<Result<Vec<_>>>()?;
            let next = self.keys.len() as u32;
            let id = *self.index.entry(RowKey::from_values(&row)).or_insert(next);
            if id == next {
                self.keys.push(row);
            }
            ids.push(id);
        }
        Ok(())
    }
}
