//! Sorting kernel: lexicographic multi-column sort producing an index
//! permutation, applied with `take`.
//!
//! Each key is encoded once per sort, so the comparator reads plain data and
//! never a boxed [`Value`](crate::Value): a fixed-width or dictionary key
//! becomes one order-preserving `u128` word per row (null rank above the
//! value's bits, direction folded in), a plain string key compares as
//! `&str`. The row index breaks the last tie, so the order is total and an
//! unstable sort or selection gives exactly the stable order.

use crate::batch::RecordBatch;
use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::error::{ColumnarError, Result};
use std::cmp::Ordering;

/// One sort key: a column plus direction and null placement.
#[derive(Debug, Clone)]
pub struct SortField {
    pub column: Column,
    pub descending: bool,
    /// When true, nulls sort first regardless of direction (SQL NULLS FIRST).
    pub nulls_first: bool,
}

impl SortField {
    pub fn asc(column: Column) -> Self {
        SortField {
            column,
            descending: false,
            nulls_first: true,
        }
    }

    pub fn desc(column: Column) -> Self {
        SortField {
            column,
            descending: true,
            nulls_first: false,
        }
    }

    /// 1 for a value; 0 (nulls first) or 2 (nulls last) for a NULL.
    fn rank(&self, validity: Option<&Bitmap>, i: usize) -> u8 {
        match validity.is_none_or(|v| v.get(i)) {
            true => 1,
            false if self.nulls_first => 0,
            false => 2,
        }
    }
}

/// A key as the comparator reads it.
enum Encoded<'a> {
    /// `rank << 64 | bits` per row, where `bits` orders as
    /// `Value::total_cmp` (bitwise NOT when descending) and is 0 under a
    /// NULL, so NULLs tie.
    Words(Vec<u128>),
    Strs(&'a [String], Option<&'a Bitmap>, &'a SortField),
}

const SIGN: u64 = 1 << 63;
const ROW_BITS: u32 = 62;
const ROW_MASK: u128 = (1 << ROW_BITS) - 1;

fn encode(key: &SortField) -> Encoded<'_> {
    match &key.column {
        Column::Int64(v, _) | Column::Timestamp(v, _) => words(key, |i| v[i] as u64 ^ SIGN),
        Column::Date(v, _) => words(key, |i| i64::from(v[i]) as u64 ^ SIGN),
        // `f64::total_cmp`'s order as an unsigned word: negatives (sign bit
        // set) inverted, non-negatives above them.
        Column::Float64(v, _) => words(key, |i| match v[i].to_bits() {
            b if b & SIGN != 0 => !b,
            b => b | SIGN,
        }),
        Column::Bool(v, _) => words(key, |i| u64::from(v[i])),
        Column::Dict(d) => {
            let ranks = dict_ranks(d.dict());
            words(key, |i| ranks[d.codes()[i] as usize])
        }
        Column::Utf8(v, validity) => Encoded::Strs(v, validity.as_ref(), key),
    }
}

/// [`Encoded::Words`] of a key whose row `i` orders as `bits(i)`.
fn words(key: &SortField, bits: impl Fn(usize) -> u64) -> Encoded<'static> {
    let validity = key.column.validity();
    let flip = if key.descending { u64::MAX } else { 0 };
    let word = |i| match key.rank(validity, i) {
        1 => 1 << 64 | u128::from(bits(i) ^ flip),
        null => u128::from(null) << 64,
    };
    Encoded::Words((0..key.column.len()).map(word).collect())
}

/// Each dictionary entry's rank among the entries in string order; equal
/// strings get equal ranks.
fn dict_ranks(dict: &[String]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..dict.len()).collect();
    order.sort_unstable_by(|&a, &b| dict[a].cmp(&dict[b]));
    let mut ranks = vec![0; dict.len()];
    for pair in order.windows(2) {
        ranks[pair[1]] = ranks[pair[0]] + u64::from(dict[pair[0]] != dict[pair[1]]);
    }
    ranks
}

impl Encoded<'_> {
    fn cmp(&self, a: usize, b: usize) -> Ordering {
        match self {
            Encoded::Words(w) => w[a].cmp(&w[b]),
            Encoded::Strs(values, validity, key) => {
                let rank = key.rank(*validity, a);
                rank.cmp(&key.rank(*validity, b)).then_with(|| match rank {
                    1 if key.descending => values[b].cmp(&values[a]),
                    1 => values[a].cmp(&values[b]),
                    _ => Ordering::Equal,
                })
            }
        }
    }
}

/// The first `k` of `items` under `cmp`, in order: a selection, then a sort
/// of the `k` selected.
fn top<T>(mut items: Vec<T>, k: usize, cmp: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
    if k < items.len() {
        items.select_nth_unstable_by(k, &cmp);
        items.truncate(k);
    }
    items.sort_unstable_by(cmp);
    items
}

/// Compute the row permutation that sorts by the given keys. Stable, so ties
/// preserve input order.
pub fn sort_indices(keys: &[SortField]) -> Result<Vec<usize>> {
    sort_indices_top(keys, usize::MAX)
}

/// The first `k` rows of [`sort_indices`]' permutation, without ordering
/// the rest.
pub fn sort_indices_top(keys: &[SortField], k: usize) -> Result<Vec<usize>> {
    let n = keys.first().map_or(0, |key| key.column.len());
    if let Some(key) = keys.iter().find(|key| key.column.len() != n) {
        return Err(ColumnarError::LengthMismatch {
            expected: n,
            actual: key.column.len(),
        });
    }
    let mut encoded: Vec<Encoded> = keys.iter().map(encode).collect();
    if let [Encoded::Words(words)] = &mut encoded[..] {
        // One fixed-width key: the (word, row) pair as one integer, the
        // word's 66 bits above the row's 62 (a `Vec` of 16-byte words has
        // fewer than 2^59).
        let mut pairs = std::mem::take(words);
        for (row, pair) in pairs.iter_mut().enumerate() {
            *pair = *pair << ROW_BITS | row as u128;
        }
        let rows = top(pairs, k, Ord::cmp).into_iter();
        return Ok(rows.map(|pair| (pair & ROW_MASK) as usize).collect());
    }
    let cmp = |&a: &usize, &b: &usize| {
        let by_key = encoded.iter().map(|key| key.cmp(a, b)).find(|o| o.is_ne());
        by_key.unwrap_or(a.cmp(&b))
    };
    Ok(top((0..n).collect(), k, cmp))
}

/// Sort a batch by the named key columns.
pub fn sort_batch(batch: &RecordBatch, keys: &[SortField]) -> Result<RecordBatch> {
    let indices = sort_indices(keys)?;
    super::filter::take_batch(batch, &indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Value;

    #[test]
    fn single_key_asc() {
        let c = Column::from_i64(vec![3, 1, 2]);
        let idx = sort_indices(&[SortField::asc(c)]).unwrap();
        assert_eq!(idx, vec![1, 2, 0]);
    }

    #[test]
    fn single_key_desc() {
        let c = Column::from_i64(vec![3, 1, 2]);
        let idx = sort_indices(&[SortField::desc(c)]).unwrap();
        assert_eq!(idx, vec![0, 2, 1]);
    }

    #[test]
    fn multi_key_tie_break() {
        let a = Column::from_strs(vec!["b", "a", "b", "a"]);
        let b = Column::from_i64(vec![1, 2, 0, 1]);
        let idx = sort_indices(&[SortField::asc(a), SortField::desc(b)]).unwrap();
        // group "a": rows 1 (2), 3 (1); group "b": rows 0 (1), 2 (0)
        assert_eq!(idx, vec![1, 3, 0, 2]);
    }

    #[test]
    fn nulls_first_asc() {
        let c = Column::from_opt_i64(vec![Some(2), None, Some(1)]);
        let idx = sort_indices(&[SortField::asc(c)]).unwrap();
        assert_eq!(idx, vec![1, 2, 0]);
    }

    #[test]
    fn nulls_last_desc() {
        let c = Column::from_opt_i64(vec![Some(2), None, Some(1)]);
        let idx = sort_indices(&[SortField::desc(c)]).unwrap();
        assert_eq!(idx, vec![0, 2, 1]);
    }

    #[test]
    fn stability() {
        // Equal keys preserve input order.
        let c = Column::from_i64(vec![1, 1, 1]);
        let idx = sort_indices(&[SortField::asc(c)]).unwrap();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn empty_keys() {
        assert!(sort_indices(&[]).unwrap().is_empty());
    }

    #[test]
    fn keys_of_different_lengths_are_an_error() {
        let keys = [
            SortField::asc(Column::from_i64(vec![1, 2])),
            SortField::asc(Column::from_i64(vec![1])),
        ];
        assert!(matches!(
            sort_indices(&keys),
            Err(ColumnarError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn sort_batch_applies_permutation() {
        use crate::schema::{Field, Schema};
        use crate::DataType;
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("v", DataType::Utf8, false),
            ]),
            vec![
                Column::from_i64(vec![2, 1]),
                Column::from_strs(vec!["two", "one"]),
            ],
        )
        .unwrap();
        let key = SortField::asc(batch.column(0).clone());
        let sorted = sort_batch(&batch, &[key]).unwrap();
        assert_eq!(sorted.row(0).unwrap()[1], Value::Utf8("one".into()));
    }
}
