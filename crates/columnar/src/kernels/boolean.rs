//! Boolean kernels with Kleene (SQL three-valued) logic.
//!
//! * `false AND null = false`, `true AND null = null`
//! * `true OR null = true`, `false OR null = null`
//! * `NOT null = null`

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::error::{ColumnarError, Result};

/// Three-valued AND, computed branch-free: per row, with `lt`/`lf` the
/// "valid and true"/"valid and false" flags, the result is known-false when
/// either side is a valid false, known-true when both are valid trues, and
/// null otherwise — all expressible as boolean algebra over flat slices.
pub fn and_kleene(left: &Column, right: &Column) -> Result<Column> {
    let (lv, rv, lval, rval) = bool_inputs(left, right)?;
    let n = lv.len();
    let mut out = vec![false; n];
    let mut valid = vec![false; n];
    for i in 0..n {
        let lt = lval[i] & lv[i];
        let lf = lval[i] & !lv[i];
        let rt = rval[i] & rv[i];
        let rf = rval[i] & !rv[i];
        out[i] = lt & rt;
        valid[i] = lf | rf | (lt & rt);
    }
    Ok(finish_bool(out, &valid))
}

/// Three-valued OR (dual of [`and_kleene`]).
pub fn or_kleene(left: &Column, right: &Column) -> Result<Column> {
    let (lv, rv, lval, rval) = bool_inputs(left, right)?;
    let n = lv.len();
    let mut out = vec![false; n];
    let mut valid = vec![false; n];
    for i in 0..n {
        let lt = lval[i] & lv[i];
        let lf = lval[i] & !lv[i];
        let rt = rval[i] & rv[i];
        let rf = rval[i] & !rv[i];
        out[i] = lt | rt;
        valid[i] = lt | rt | (lf & rf);
    }
    Ok(finish_bool(out, &valid))
}

/// Three-valued NOT.
pub fn not(col: &Column) -> Result<Column> {
    let (values, validity) = col.as_bool()?;
    Ok(Column::Bool(
        values.iter().map(|v| !v).collect(),
        validity.cloned(),
    ))
}

/// Both bool value slices plus their validity expanded to flat bool vectors.
type BoolInputs<'a> = (&'a [bool], &'a [bool], Vec<bool>, Vec<bool>);

/// Extract both bool slices plus their validity expanded to flat bool
/// vectors (all-true when no nulls), so the combine loops stay branch-free.
fn bool_inputs<'a>(left: &'a Column, right: &'a Column) -> Result<BoolInputs<'a>> {
    let (lv, lb) = left.as_bool()?;
    let (rv, rb) = right.as_bool()?;
    if lv.len() != rv.len() {
        return Err(ColumnarError::LengthMismatch {
            expected: lv.len(),
            actual: rv.len(),
        });
    }
    let n = lv.len();
    let expand = |b: Option<&Bitmap>| match b {
        Some(b) => b.to_bools(),
        None => vec![true; n],
    };
    Ok((lv, rv, expand(lb), expand(rb)))
}

fn finish_bool(out: Vec<bool>, valid: &[bool]) -> Column {
    let has_null = valid.iter().any(|&v| !v);
    Column::Bool(out.into(), has_null.then(|| Bitmap::from_bools(valid)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Value;

    fn tri() -> (Column, Column) {
        // left:  T T T F F F N N N
        // right: T F N T F N T F N
        let left = Column::from_opt_bool(vec![
            Some(true),
            Some(true),
            Some(true),
            Some(false),
            Some(false),
            Some(false),
            None,
            None,
            None,
        ]);
        let right = Column::from_opt_bool(vec![
            Some(true),
            Some(false),
            None,
            Some(true),
            Some(false),
            None,
            Some(true),
            Some(false),
            None,
        ]);
        (left, right)
    }

    fn collect(c: &Column) -> Vec<Option<bool>> {
        c.iter_values()
            .map(|v| match v {
                Value::Bool(b) => Some(b),
                Value::Null => None,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn kleene_and_truth_table() {
        let (l, r) = tri();
        let out = and_kleene(&l, &r).unwrap();
        assert_eq!(
            collect(&out),
            vec![
                Some(true),
                Some(false),
                None,
                Some(false),
                Some(false),
                Some(false),
                None,
                Some(false),
                None
            ]
        );
    }

    #[test]
    fn kleene_or_truth_table() {
        let (l, r) = tri();
        let out = or_kleene(&l, &r).unwrap();
        assert_eq!(
            collect(&out),
            vec![
                Some(true),
                Some(true),
                Some(true),
                Some(true),
                Some(false),
                None,
                Some(true),
                None,
                None
            ]
        );
    }

    #[test]
    fn not_truth_table() {
        let c = Column::from_opt_bool(vec![Some(true), Some(false), None]);
        assert_eq!(
            collect(&not(&c).unwrap()),
            vec![Some(false), Some(true), None]
        );
    }

    #[test]
    fn non_bool_errors() {
        let c = Column::from_i64(vec![1]);
        assert!(not(&c).is_err());
        assert!(and_kleene(&c, &c).is_err());
    }

    #[test]
    fn length_mismatch() {
        let a = Column::from_bool(vec![true]);
        let b = Column::from_bool(vec![true, false]);
        assert!(or_kleene(&a, &b).is_err());
    }
}
