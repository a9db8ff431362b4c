//! Comparison kernels producing Bool columns with SQL null semantics:
//! any comparison against null yields null.

use crate::bitmap::Bitmap;
use crate::buffer::Buffer;
use crate::column::{Column, DictColumn};
use crate::datatype::Value;
use crate::error::{ColumnarError, Result};
use std::cmp::Ordering;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    /// Evaluate the operator against an `Ordering`.
    #[inline]
    pub fn matches(&self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::NotEq => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::LtEq => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::GtEq => ord != Ordering::Less,
        }
    }

    /// The operator with flipped operand order (a OP b == b OP.flip() a).
    pub fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::NotEq => CmpOp::NotEq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
        }
    }

    /// SQL token for display.
    pub fn symbol(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::NotEq => "<>",
            CmpOp::Lt => "<",
            CmpOp::LtEq => "<=",
            CmpOp::Gt => ">",
            CmpOp::GtEq => ">=",
        }
    }
}

/// Compare two columns element-wise. Result is a Bool column where a row is
/// null if either input row is null.
pub fn cmp_columns(op: CmpOp, left: &Column, right: &Column) -> Result<Column> {
    if left.len() != right.len() {
        return Err(ColumnarError::LengthMismatch {
            expected: left.len(),
            actual: right.len(),
        });
    }
    // Fast typed paths for the hot combinations; fall back to Value-based
    // comparison otherwise (covers cross-type numeric comparisons).
    match (left, right) {
        (Column::Int64(a, _), Column::Int64(b, _)) => {
            typed_cmp(op, a, b, left, right, |x, y| x.cmp(y))
        }
        (Column::Float64(a, _), Column::Float64(b, _)) => {
            typed_cmp(op, a, b, left, right, |x, y| x.total_cmp(y))
        }
        (Column::Utf8(a, _), Column::Utf8(b, _)) => {
            typed_cmp(op, a, b, left, right, |x, y| x.cmp(y))
        }
        (Column::Timestamp(a, _), Column::Timestamp(b, _)) => {
            typed_cmp(op, a, b, left, right, |x, y| x.cmp(y))
        }
        (Column::Date(a, _), Column::Date(b, _)) => {
            typed_cmp(op, a, b, left, right, |x, y| x.cmp(y))
        }
        (Column::Dict(a), Column::Dict(b)) => {
            let out = cmp_vec(op, a.len(), |i| a.value(i).cmp(b.value(i)));
            Ok(Column::Bool(out, combine_validity(left, right, a.len())?))
        }
        (Column::Dict(a), Column::Utf8(b, _)) => {
            let out = cmp_vec(op, a.len(), |i| a.value(i).cmp(b[i].as_str()));
            Ok(Column::Bool(out, combine_validity(left, right, a.len())?))
        }
        (Column::Utf8(a, _), Column::Dict(b)) => {
            let out = cmp_vec(op, a.len(), |i| a[i].as_str().cmp(b.value(i)));
            Ok(Column::Bool(out, combine_validity(left, right, a.len())?))
        }
        _ => generic_cmp(op, left, right),
    }
}

/// Run a comparison loop with the operator dispatched once, outside the
/// loop: each arm is a tight branch-free loop the compiler can
/// autovectorize, instead of re-matching the operator per element.
#[inline]
fn cmp_vec(op: CmpOp, n: usize, ord: impl Fn(usize) -> Ordering) -> Buffer<bool> {
    match op {
        CmpOp::Eq => (0..n).map(|i| ord(i) == Ordering::Equal).collect(),
        CmpOp::NotEq => (0..n).map(|i| ord(i) != Ordering::Equal).collect(),
        CmpOp::Lt => (0..n).map(|i| ord(i) == Ordering::Less).collect(),
        CmpOp::LtEq => (0..n).map(|i| ord(i) != Ordering::Greater).collect(),
        CmpOp::Gt => (0..n).map(|i| ord(i) == Ordering::Greater).collect(),
        CmpOp::GtEq => (0..n).map(|i| ord(i) != Ordering::Less).collect(),
    }
}

fn typed_cmp<T>(
    op: CmpOp,
    a: &[T],
    b: &[T],
    left: &Column,
    right: &Column,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Result<Column> {
    let n = a.len();
    let out = cmp_vec(op, n, |i| cmp(&a[i], &b[i]));
    let validity = combine_validity(left, right, n)?;
    Ok(Column::Bool(out, validity))
}

fn generic_cmp(op: CmpOp, left: &Column, right: &Column) -> Result<Column> {
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

fn combine_validity(left: &Column, right: &Column, n: usize) -> Result<Option<Bitmap>> {
    Ok(match (left.validity(), right.validity()) {
        (None, None) => None,
        (Some(a), None) => Some(a.clone()),
        (None, Some(b)) => Some(b.clone()),
        (Some(a), Some(b)) => Some(a.and(b)?),
    })
    .inspect(|v| {
        debug_assert!(v.as_ref().map_or(n, Bitmap::len) == n);
    })
}

/// Compare a column against a scalar. A null scalar yields an all-null
/// result; null column rows yield null.
pub fn cmp_column_scalar(op: CmpOp, col: &Column, scalar: &Value) -> Result<Column> {
    let n = col.len();
    if scalar.is_null() {
        return Ok(Column::new_null(crate::DataType::Bool, n));
    }
    // Fast typed paths.
    match (col, scalar) {
        (Column::Int64(v, _), Value::Int64(s)) => {
            return scalar_cmp(op, v, s, col, |x, y| x.cmp(y));
        }
        (Column::Float64(v, _), Value::Float64(s)) => {
            return scalar_cmp(op, v, s, col, |x, y| x.total_cmp(y));
        }
        (Column::Utf8(v, _), Value::Utf8(s)) => {
            return scalar_cmp_by(op, v, col, |x| x.as_str().cmp(s.as_str()));
        }
        (Column::Dict(d), Value::Utf8(s)) => {
            return Ok(cmp_dict_scalar(op, d, s));
        }
        (Column::Timestamp(v, _), Value::Timestamp(s) | Value::Int64(s)) => {
            return scalar_cmp(op, v, s, col, |x, y| x.cmp(y));
        }
        (Column::Date(v, _), Value::Date(s)) => {
            return scalar_cmp(op, v, s, col, |x, y| x.cmp(y));
        }
        _ => {}
    }
    // Generic path (e.g. Int64 column vs Float64 literal).
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

fn scalar_cmp<T>(
    op: CmpOp,
    values: &[T],
    scalar: &T,
    col: &Column,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Result<Column> {
    let out = cmp_vec(op, values.len(), |i| cmp(&values[i], scalar));
    Ok(Column::Bool(out, col.validity().cloned()))
}

fn scalar_cmp_by<T>(
    op: CmpOp,
    values: &[T],
    col: &Column,
    cmp: impl Fn(&T) -> Ordering,
) -> Result<Column> {
    let out = cmp_vec(op, values.len(), |i| cmp(&values[i]));
    Ok(Column::Bool(out, col.validity().cloned()))
}

/// Dictionary-aware scalar comparison: evaluate the predicate once per
/// dictionary entry into a match table, then scan only the `u32` codes.
/// Equality/IN filters on low-cardinality string columns never touch the
/// string data per row.
fn cmp_dict_scalar(op: CmpOp, d: &DictColumn, s: &str) -> Column {
    let table: Vec<bool> = match op {
        CmpOp::Eq => d.dict().iter().map(|e| e.as_str() == s).collect(),
        CmpOp::NotEq => d.dict().iter().map(|e| e.as_str() != s).collect(),
        CmpOp::Lt => d.dict().iter().map(|e| e.as_str() < s).collect(),
        CmpOp::LtEq => d.dict().iter().map(|e| e.as_str() <= s).collect(),
        CmpOp::Gt => d.dict().iter().map(|e| e.as_str() > s).collect(),
        CmpOp::GtEq => d.dict().iter().map(|e| e.as_str() >= s).collect(),
    };
    let out: Vec<bool> = d.codes().iter().map(|&c| table[c as usize]).collect();
    Column::Bool(out.into(), d.validity().cloned())
}

/// Convert a Bool column into a selection bitmap: set where value is true
/// AND valid (SQL WHERE semantics: null predicate rows are dropped).
/// Packs the bool slice byte-at-a-time and ANDs validity byte-wise.
pub fn to_selection(mask: &Column) -> Result<Bitmap> {
    let (values, validity) = mask.as_bool()?;
    let bm = Bitmap::from_bools(values);
    Ok(match validity {
        Some(v) => bm.and(v)?,
        None => bm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;

    #[test]
    fn int_scalar_cmp() {
        let c = Column::from_i64(vec![1, 5, 10]);
        let r = cmp_column_scalar(CmpOp::Gt, &c, &Value::Int64(4)).unwrap();
        let (vals, _) = r.as_bool().unwrap();
        assert_eq!(vals, &[false, true, true]);
    }

    #[test]
    fn cross_type_scalar_cmp() {
        let c = Column::from_i64(vec![1, 5]);
        let r = cmp_column_scalar(CmpOp::LtEq, &c, &Value::Float64(4.5)).unwrap();
        let (vals, _) = r.as_bool().unwrap();
        assert_eq!(vals, &[true, false]);
    }

    #[test]
    fn string_scalar_cmp() {
        let c = Column::from_strs(vec!["apple", "pear"]);
        let r = cmp_column_scalar(CmpOp::Eq, &c, &Value::Utf8("pear".into())).unwrap();
        let (vals, _) = r.as_bool().unwrap();
        assert_eq!(vals, &[false, true]);
    }

    #[test]
    fn null_scalar_gives_all_null() {
        let c = Column::from_i64(vec![1, 2]);
        let r = cmp_column_scalar(CmpOp::Eq, &c, &Value::Null).unwrap();
        assert_eq!(r.null_count(), 2);
    }

    #[test]
    fn null_rows_propagate() {
        let c = Column::from_opt_i64(vec![Some(1), None]);
        let r = cmp_column_scalar(CmpOp::Eq, &c, &Value::Int64(1)).unwrap();
        assert_eq!(r.get(0).unwrap(), Value::Bool(true));
        assert_eq!(r.get(1).unwrap(), Value::Null);
    }

    #[test]
    fn column_column_cmp() {
        let a = Column::from_i64(vec![1, 2, 3]);
        let b = Column::from_i64(vec![3, 2, 1]);
        let r = cmp_columns(CmpOp::Lt, &a, &b).unwrap();
        let (vals, _) = r.as_bool().unwrap();
        assert_eq!(vals, &[true, false, false]);
    }

    #[test]
    fn column_column_null_combines() {
        let a = Column::from_opt_i64(vec![Some(1), None, Some(3)]);
        let b = Column::from_opt_i64(vec![Some(1), Some(2), None]);
        let r = cmp_columns(CmpOp::Eq, &a, &b).unwrap();
        assert_eq!(r.null_count(), 2);
        assert_eq!(r.get(0).unwrap(), Value::Bool(true));
    }

    #[test]
    fn cross_type_columns() {
        let a = Column::from_i64(vec![1, 3]);
        let b = Column::from_f64(vec![1.5, 2.5]);
        let r = cmp_columns(CmpOp::Gt, &a, &b).unwrap();
        let (vals, _) = r.as_bool().unwrap();
        assert_eq!(vals, &[false, true]);
    }

    #[test]
    fn length_mismatch_errors() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_i64(vec![1, 2]);
        assert!(cmp_columns(CmpOp::Eq, &a, &b).is_err());
    }

    #[test]
    fn selection_drops_null_and_false() {
        let mask = Column::from_opt_bool(vec![Some(true), Some(false), None, Some(true)]);
        let sel = to_selection(&mask).unwrap();
        assert_eq!(sel.set_indices(), vec![0, 3]);
    }

    #[test]
    fn flip_symmetry() {
        for op in [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ] {
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn all_ops_match_expected_orderings() {
        assert!(CmpOp::Eq.matches(Ordering::Equal));
        assert!(CmpOp::NotEq.matches(Ordering::Less));
        assert!(CmpOp::Lt.matches(Ordering::Less));
        assert!(CmpOp::LtEq.matches(Ordering::Equal));
        assert!(CmpOp::Gt.matches(Ordering::Greater));
        assert!(CmpOp::GtEq.matches(Ordering::Greater));
        assert!(!CmpOp::Gt.matches(Ordering::Equal));
    }

    #[test]
    fn dict_scalar_cmp_matches_plain() {
        let values: Vec<String> = ["a", "b", "c", "b", "a", "c"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let validity = Bitmap::from_bools(&[true, true, false, true, true, true]);
        let dict = Column::Dict(
            crate::column::DictColumn::encode(&values, Some(validity.clone())).unwrap(),
        );
        let plain = Column::Utf8(values.into(), Some(validity));
        for op in [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ] {
            let scalar = Value::Utf8("b".into());
            let d = cmp_column_scalar(op, &dict, &scalar).unwrap();
            let p = cmp_column_scalar(op, &plain, &scalar).unwrap();
            assert_eq!(d, p, "op {op:?}");
        }
    }

    #[test]
    fn dict_column_cmp_combinations() {
        let values: Vec<String> = ["x", "y", "x"].iter().map(|s| s.to_string()).collect();
        let dict = Column::Dict(crate::column::DictColumn::encode(&values, None).unwrap());
        let plain = Column::from_strs(vec!["x", "x", "x"]);
        let dd = cmp_columns(CmpOp::Eq, &dict, &dict).unwrap();
        assert_eq!(dd.as_bool().unwrap().0, &[true, true, true]);
        let dp = cmp_columns(CmpOp::Eq, &dict, &plain).unwrap();
        assert_eq!(dp.as_bool().unwrap().0, &[true, false, true]);
        let pd = cmp_columns(CmpOp::NotEq, &plain, &dict).unwrap();
        assert_eq!(pd.as_bool().unwrap().0, &[false, true, false]);
    }

    #[test]
    fn timestamp_scalar_cmp() {
        let c = Column::from_timestamp(vec![100, 200, 300]);
        let r = cmp_column_scalar(CmpOp::GtEq, &c, &Value::Timestamp(200)).unwrap();
        let (vals, _) = r.as_bool().unwrap();
        assert_eq!(vals, &[false, true, true]);
    }

    #[test]
    fn date_cmp() {
        let c = Column::from_date(vec![10, 20]);
        let r = cmp_column_scalar(CmpOp::Lt, &c, &Value::Date(15)).unwrap();
        let (vals, _) = r.as_bool().unwrap();
        assert_eq!(vals, &[true, false]);
        assert_eq!(r.data_type(), DataType::Bool);
    }
}
