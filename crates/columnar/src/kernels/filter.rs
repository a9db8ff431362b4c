//! Selection kernels: `filter` (by boolean mask) and `take` (by index list).
//!
//! Filtering is fused: the survivor count is popcounted once per mask and
//! each column's gather is driven straight off the packed mask words
//! (`Bitmap::for_each_set`), so no per-batch index vector is materialized —
//! at 50% selectivity over a million rows that skips an 8 MB write+read
//! round trip per column. `take` (arbitrary indices, duplicates, reorder)
//! validates its index list once per batch and reuses it across columns.

use crate::batch::RecordBatch;
use crate::bitmap::Bitmap;
use crate::buffer::Buffer;
use crate::column::{Column, DictColumn};
use crate::error::{ColumnarError, Result};
use std::sync::Arc;

/// Keep rows where `mask` is set. Mask length must equal column length.
pub fn filter_column(col: &Column, mask: &Bitmap) -> Result<Column> {
    if mask.len() != col.len() {
        return Err(ColumnarError::LengthMismatch {
            expected: col.len(),
            actual: mask.len(),
        });
    }
    Ok(filter_column_unchecked(col, mask, mask.count_set()))
}

/// Fused mask-driven gather: push survivors directly while scanning the
/// mask, with the output pre-sized to the popcount.
fn filter_column_unchecked(col: &Column, mask: &Bitmap, survivors: usize) -> Column {
    let validity = col
        .validity()
        .and_then(|b| filter_validity(b, mask, survivors));
    match col {
        Column::Bool(v, _) => Column::Bool(filter_dense(v, mask, survivors), validity),
        Column::Int64(v, _) => Column::Int64(filter_dense(v, mask, survivors), validity),
        Column::Float64(v, _) => Column::Float64(filter_dense(v, mask, survivors), validity),
        Column::Utf8(v, _) => Column::Utf8(filter_dense(v, mask, survivors), validity),
        Column::Timestamp(v, _) => Column::Timestamp(filter_dense(v, mask, survivors), validity),
        Column::Date(v, _) => Column::Date(filter_dense(v, mask, survivors), validity),
        // Dictionary columns filter only the u32 codes; the dictionary is
        // shared untouched (late materialization).
        Column::Dict(d) => Column::Dict(DictColumn::new_unchecked(
            Arc::clone(d.dict()),
            filter_dense(d.codes(), mask, survivors),
            validity,
        )),
    }
}

fn filter_dense<T: Clone>(values: &[T], mask: &Bitmap, survivors: usize) -> Buffer<T> {
    let mut out = Vec::with_capacity(survivors);
    mask.for_each_set(|i| out.push(values[i].clone()));
    out.into()
}

/// Validity of the surviving rows, `None` when they are all valid. WHERE
/// masks come out of `to_selection` already ANDed with validity, so the
/// all-valid case is the common one — a word-wise popcount detects it and
/// skips the per-bit gather (and the validity buffer) entirely.
fn filter_validity(b: &Bitmap, mask: &Bitmap, survivors: usize) -> Option<Bitmap> {
    let valid_survivors = b
        .count_set_both(mask)
        .expect("validity and mask lengths checked by caller");
    if valid_survivors == survivors {
        return None;
    }
    let mut kept = Vec::with_capacity(survivors);
    mask.for_each_set(|i| kept.push(b.get(i)));
    Some(Bitmap::from_bools(&kept))
}

/// Gather rows at `indices` (any order, duplicates allowed).
pub fn take_column(col: &Column, indices: &[usize]) -> Result<Column> {
    validate_indices(indices, col.len())?;
    Ok(take_column_unchecked(col, indices))
}

/// One pass over the selection vector; every column of the batch then
/// gathers without re-checking.
fn validate_indices(indices: &[usize], len: usize) -> Result<()> {
    // max() is a single branch-free reduction; the old per-element early
    // return made the loop un-vectorizable.
    if let Some(&max) = indices.iter().max() {
        if max >= len {
            return Err(ColumnarError::IndexOutOfBounds { index: max, len });
        }
    }
    Ok(())
}

fn take_column_unchecked(col: &Column, indices: &[usize]) -> Column {
    let validity = crate::column::normalize_validity(col.validity().map(|b| {
        // Dense selections: expand validity to bools once (byte-wise),
        // gather, repack — three vectorizable passes instead of a bit
        // lookup + set per element. Sparse selections (few indices) keep
        // the per-index bit lookup to stay O(indices).
        let gathered: Vec<bool> = if indices.len() * 4 >= b.len() {
            let bools = b.to_bools();
            indices.iter().map(|&i| bools[i]).collect()
        } else {
            indices.iter().map(|&i| b.get(i)).collect()
        };
        Bitmap::from_bools(&gathered)
    }));
    match col {
        Column::Bool(v, _) => Column::Bool(gather(v, indices), validity),
        Column::Int64(v, _) => Column::Int64(gather(v, indices), validity),
        Column::Float64(v, _) => Column::Float64(gather(v, indices), validity),
        Column::Utf8(v, _) => Column::Utf8(gather(v, indices), validity),
        Column::Timestamp(v, _) => Column::Timestamp(gather(v, indices), validity),
        Column::Date(v, _) => Column::Date(gather(v, indices), validity),
        // Dictionary columns gather only the u32 codes; the dictionary is
        // shared untouched (late materialization).
        Column::Dict(d) => Column::Dict(DictColumn::new_unchecked(
            Arc::clone(d.dict()),
            gather(d.codes(), indices),
            validity,
        )),
    }
}

fn gather<T: Clone>(values: &[T], indices: &[usize]) -> Buffer<T> {
    indices.iter().map(|&i| values[i].clone()).collect()
}

/// [`take_column`] with holes: `None` yields a NULL row (an outer join's
/// padding). NULL rows — padded or gathered — hold the type's default value,
/// as a [`crate::ColumnBuilder`] would write them (a dictionary column's:
/// its first entry's code).
pub fn take_column_opt(col: &Column, indices: &[Option<usize>]) -> Result<Column> {
    if let Some(max) = indices
        .iter()
        .flatten()
        .max()
        .filter(|&&max| max >= col.len())
    {
        let (index, len) = (*max, col.len());
        return Err(ColumnarError::IndexOutOfBounds { index, len });
    }
    // The rows to gather: a NULL source row is as good as a hole.
    let valid: Vec<Option<usize>> = (indices.iter())
        .map(|i| i.filter(|&i| col.is_valid(i)))
        .collect();
    fn gather_opt<T: Clone + Default>(values: &[T], indices: &[Option<usize>]) -> Buffer<T> {
        let at = |i: &Option<usize>| i.map_or_else(T::default, |i| values[i].clone());
        indices.iter().map(at).collect()
    }
    let present: Vec<bool> = valid.iter().map(Option::is_some).collect();
    let validity = crate::column::normalize_validity(Some(Bitmap::from_bools(&present)));
    Ok(match col {
        Column::Bool(v, _) => Column::Bool(gather_opt(v, &valid), validity),
        Column::Int64(v, _) => Column::Int64(gather_opt(v, &valid), validity),
        Column::Float64(v, _) => Column::Float64(gather_opt(v, &valid), validity),
        Column::Utf8(v, _) => Column::Utf8(gather_opt(v, &valid), validity),
        Column::Timestamp(v, _) => Column::Timestamp(gather_opt(v, &valid), validity),
        Column::Date(v, _) => Column::Date(gather_opt(v, &valid), validity),
        // No entry for a NULL row's code to point at: every row is NULL.
        Column::Dict(d) if d.dict().is_empty() => Column::new_null(col.data_type(), valid.len()),
        Column::Dict(d) => Column::Dict(DictColumn::new_unchecked(
            Arc::clone(d.dict()),
            gather_opt(d.codes(), &valid),
            validity,
        )),
    })
}

/// Filter every column of a batch by the same mask. The selection (the mask
/// plus its popcount) is computed once and shared across columns; each
/// column then runs the fused mask-driven gather.
pub fn filter_batch(batch: &RecordBatch, mask: &Bitmap) -> Result<RecordBatch> {
    if mask.len() != batch.num_rows() {
        return Err(ColumnarError::LengthMismatch {
            expected: batch.num_rows(),
            actual: mask.len(),
        });
    }
    let survivors = mask.count_set();
    let columns = batch
        .columns()
        .iter()
        .map(|c| filter_column_unchecked(c, mask, survivors))
        .collect::<Vec<_>>();
    RecordBatch::try_new_with_rows(batch.schema().clone(), columns, survivors)
}

/// Gather the same row indices from every column of a batch. Indices are
/// validated once, not per column.
pub fn take_batch(batch: &RecordBatch, indices: &[usize]) -> Result<RecordBatch> {
    validate_indices(indices, batch.num_rows())?;
    take_batch_validated(batch, indices)
}

fn take_batch_validated(batch: &RecordBatch, indices: &[usize]) -> Result<RecordBatch> {
    let columns = batch
        .columns()
        .iter()
        .map(|c| take_column_unchecked(c, indices))
        .collect::<Vec<_>>();
    RecordBatch::try_new_with_rows(batch.schema().clone(), columns, indices.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::{DataType, Value};
    use crate::schema::{Field, Schema};

    #[test]
    fn filter_keeps_masked_rows() {
        let c = Column::from_i64(vec![10, 20, 30, 40]);
        let mask = Bitmap::from_bools(&[true, false, true, false]);
        let f = filter_column(&c, &mask).unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!(f.get(0).unwrap(), Value::Int64(10));
        assert_eq!(f.get(1).unwrap(), Value::Int64(30));
    }

    #[test]
    fn filter_length_mismatch() {
        let c = Column::from_i64(vec![1]);
        let mask = Bitmap::new_set(2);
        assert!(filter_column(&c, &mask).is_err());
    }

    #[test]
    fn take_with_duplicates_and_reorder() {
        let c = Column::from_strs(vec!["a", "b", "c"]);
        let t = take_column(&c, &[2, 0, 2]).unwrap();
        assert_eq!(
            t.iter_values().collect::<Vec<_>>(),
            vec![
                Value::Utf8("c".into()),
                Value::Utf8("a".into()),
                Value::Utf8("c".into())
            ]
        );
    }

    #[test]
    fn take_out_of_bounds() {
        let c = Column::from_i64(vec![1, 2]);
        assert!(take_column(&c, &[5]).is_err());
    }

    #[test]
    fn take_preserves_nulls() {
        let c = Column::from_opt_i64(vec![Some(1), None, Some(3)]);
        let t = take_column(&c, &[1, 2, 1]).unwrap();
        assert_eq!(t.null_count(), 2);
        assert_eq!(t.get(1).unwrap(), Value::Int64(3));
    }

    #[test]
    fn filter_batch_all_columns() {
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("a", DataType::Int64, false),
                Field::new("b", DataType::Utf8, false),
            ]),
            vec![
                Column::from_i64(vec![1, 2, 3]),
                Column::from_strs(vec!["x", "y", "z"]),
            ],
        )
        .unwrap();
        let mask = Bitmap::from_bools(&[false, true, true]);
        let f = filter_batch(&batch, &mask).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(0).unwrap()[1], Value::Utf8("y".into()));
    }

    #[test]
    fn take_opt_pads_nulls_and_normalizes_null_slots() {
        // The source hides a 7 under its NULL.
        let c = Column::Int64(
            vec![5, 7, 9].into(),
            Some(Bitmap::from_bools(&[true, false, true])),
        );
        let t = take_column_opt(&c, &[Some(2), None, Some(1), Some(0)]).unwrap();
        let want = Column::from_opt_i64(vec![Some(9), None, None, Some(5)]);
        assert_eq!(
            t, want,
            "NULL rows hold the default, as a builder writes them"
        );
        // All present and valid: no validity buffer, same as `take`.
        let t = take_column_opt(&c, &[Some(0), Some(2)]).unwrap();
        assert_eq!(t, take_column(&c, &[0, 2]).unwrap());
        assert!(t.validity().is_none());
        assert!(take_column_opt(&c, &[Some(3)]).is_err());
        // An empty source (a LEFT JOIN's empty build side) pads every row.
        for empty in [Column::new_empty(DataType::Utf8), {
            Column::Dict(DictColumn::encode(&[], None).unwrap())
        }] {
            let t = take_column_opt(&empty, &[None, None]).unwrap();
            assert_eq!(t.materialize(), Column::from_opt_str(vec![None, None]));
        }
        // Dictionary codes are gathered, the dictionary shared.
        let values: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let d = Column::Dict(DictColumn::encode(&values, None).unwrap());
        let t = take_column_opt(&d, &[Some(2), None, Some(0)]).unwrap();
        assert!(matches!(t, Column::Dict(_)));
        let got: Vec<Value> = t.iter_values().collect();
        assert_eq!(
            got,
            [
                Value::Utf8("c".into()),
                Value::Null,
                Value::Utf8("a".into())
            ]
        );
    }

    #[test]
    fn take_empty_indices() {
        let c = Column::from_f64(vec![1.0, 2.0]);
        let t = take_column(&c, &[]).unwrap();
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn take_dict_gathers_codes_only() {
        let values: Vec<String> = ["a", "b", "a", "c"].iter().map(|s| s.to_string()).collect();
        let d = DictColumn::encode(&values, None).unwrap();
        let dict_arc = Arc::clone(d.dict());
        let col = Column::Dict(d);
        let t = take_column(&col, &[3, 0, 3]).unwrap();
        match &t {
            Column::Dict(td) => {
                assert!(Arc::ptr_eq(td.dict(), &dict_arc), "dictionary not shared");
                assert_eq!(td.len(), 3);
            }
            other => panic!("expected dict, got {other:?}"),
        }
        assert_eq!(t.get(0).unwrap(), Value::Utf8("c".into()));
        assert_eq!(t.get(1).unwrap(), Value::Utf8("a".into()));
    }

    #[test]
    fn filter_dict_matches_plain() {
        let values: Vec<String> = ["a", "b", "a", "c", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let validity = Bitmap::from_bools(&[true, false, true, true, true]);
        let dict = Column::Dict(DictColumn::encode(&values, Some(validity.clone())).unwrap());
        let plain = Column::Utf8(values.into(), Some(validity));
        let mask = Bitmap::from_bools(&[true, true, false, true, false]);
        let fd = filter_column(&dict, &mask).unwrap();
        let fp = filter_column(&plain, &mask).unwrap();
        assert_eq!(fd.materialize(), fp);
    }
}
