//! Arithmetic kernels with SQL null propagation.
//!
//! Integer ops use wrapping-checked arithmetic and surface overflow as an
//! error rather than a panic; mixed int/float operands widen to Float64.
//! Division: integer `/` by zero is an error when the divisor is a literal
//! zero-free column path, but element-wise zero divisors yield null (matching
//! DuckDB's lenient mode would error; we pick null for pipeline robustness
//! and document it).

use crate::bitmap::Bitmap;
use crate::buffer::Buffer;
use crate::column::Column;
use crate::error::{ColumnarError, Result};

/// Element-wise addition.
pub fn add(left: &Column, right: &Column) -> Result<Column> {
    binary_numeric(left, right, "add", |a, b| a.checked_add(b), |a, b| a + b)
}

/// Element-wise subtraction.
pub fn sub(left: &Column, right: &Column) -> Result<Column> {
    binary_numeric(left, right, "sub", |a, b| a.checked_sub(b), |a, b| a - b)
}

/// Element-wise multiplication.
pub fn mul(left: &Column, right: &Column) -> Result<Column> {
    binary_numeric(left, right, "mul", |a, b| a.checked_mul(b), |a, b| a * b)
}

/// Element-wise division; zero divisor → null (int) or ±inf (float, IEEE).
pub fn div(left: &Column, right: &Column) -> Result<Column> {
    binary_numeric(
        left,
        right,
        "div",
        |a, b| if b == 0 { None } else { a.checked_div(b) },
        |a, b| a / b,
    )
}

/// Element-wise modulo; zero divisor → null.
pub fn modulo(left: &Column, right: &Column) -> Result<Column> {
    binary_numeric(
        left,
        right,
        "mod",
        |a, b| if b == 0 { None } else { a.checked_rem(b) },
        |a, b| a % b,
    )
}

/// Unary negation.
pub fn neg(col: &Column) -> Result<Column> {
    match col {
        Column::Int64(v, b) => {
            let out = v
                .iter()
                .map(|x| {
                    x.checked_neg()
                        .ok_or_else(|| ColumnarError::Overflow("neg".into()))
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(Column::Int64(out.into(), b.clone()))
        }
        Column::Float64(v, b) => Ok(Column::Float64(v.iter().map(|x| -x).collect(), b.clone())),
        other => Err(ColumnarError::TypeMismatch {
            expected: "numeric".into(),
            actual: other.data_type().name().into(),
        }),
    }
}

fn binary_numeric(
    left: &Column,
    right: &Column,
    op_name: &str,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> Result<Column> {
    if left.len() != right.len() {
        return Err(ColumnarError::LengthMismatch {
            expected: left.len(),
            actual: right.len(),
        });
    }
    let n = left.len();
    let validity = merge_validity(left, right)?;
    match (left, right) {
        (Column::Int64(a, _), Column::Int64(b, _)) => {
            // Integer op: element overflow or zero-divide yields null,
            // recorded in a widened validity bitmap.
            let mut out = Vec::with_capacity(n);
            let mut v = validity.unwrap_or_else(|| Bitmap::new_set(n));
            let mut extra_nulls = false;
            for i in 0..n {
                match int_op(a[i], b[i]) {
                    Some(x) => out.push(x),
                    None => {
                        out.push(0);
                        v.clear(i);
                        extra_nulls = true;
                    }
                }
            }
            let keep = extra_nulls || !v.all_set();
            Ok(Column::Int64(out.into(), keep.then_some(v)))
        }
        _ => {
            // Widen both sides to f64.
            let a = to_f64_dense(left)?;
            let b = to_f64_dense(right)?;
            let out: Vec<f64> = (0..n).map(|i| float_op(a[i], b[i])).collect();
            let _ = op_name;
            Ok(Column::Float64(out.into(), validity))
        }
    }
}

fn to_f64_dense(col: &Column) -> Result<Buffer<f64>> {
    Ok(match col {
        Column::Int64(v, _) | Column::Timestamp(v, _) => v.iter().map(|&x| x as f64).collect(),
        Column::Float64(v, _) => v.clone(),
        Column::Date(v, _) => v.iter().map(|&x| x as f64).collect(),
        other => {
            return Err(ColumnarError::TypeMismatch {
                expected: "numeric".into(),
                actual: other.data_type().name().into(),
            })
        }
    })
}

fn merge_validity(left: &Column, right: &Column) -> Result<Option<Bitmap>> {
    Ok(match (left.validity(), right.validity()) {
        (None, None) => None,
        (Some(a), None) => Some(a.clone()),
        (None, Some(b)) => Some(b.clone()),
        (Some(a), Some(b)) => Some(a.and(b)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Value;

    #[test]
    fn int_add() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_i64(vec![10, 20]);
        let r = add(&a, &b).unwrap();
        assert_eq!(r.get(0).unwrap(), Value::Int64(11));
        assert_eq!(r.get(1).unwrap(), Value::Int64(22));
    }

    #[test]
    fn mixed_widen_to_float() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_f64(vec![0.5, 0.5]);
        let r = add(&a, &b).unwrap();
        assert_eq!(r.get(0).unwrap(), Value::Float64(1.5));
    }

    #[test]
    fn null_propagates() {
        let a = Column::from_opt_i64(vec![Some(1), None]);
        let b = Column::from_i64(vec![1, 1]);
        let r = mul(&a, &b).unwrap();
        assert_eq!(r.get(1).unwrap(), Value::Null);
    }

    #[test]
    fn int_overflow_becomes_null() {
        let a = Column::from_i64(vec![i64::MAX]);
        let b = Column::from_i64(vec![1]);
        let r = add(&a, &b).unwrap();
        assert_eq!(r.get(0).unwrap(), Value::Null);
    }

    #[test]
    fn int_div_by_zero_null() {
        let a = Column::from_i64(vec![10, 10]);
        let b = Column::from_i64(vec![2, 0]);
        let r = div(&a, &b).unwrap();
        assert_eq!(r.get(0).unwrap(), Value::Int64(5));
        assert_eq!(r.get(1).unwrap(), Value::Null);
    }

    #[test]
    fn modulo_works() {
        let a = Column::from_i64(vec![10, 7]);
        let b = Column::from_i64(vec![3, 0]);
        let r = modulo(&a, &b).unwrap();
        assert_eq!(r.get(0).unwrap(), Value::Int64(1));
        assert_eq!(r.get(1).unwrap(), Value::Null);
    }

    #[test]
    fn float_div_by_zero_is_inf() {
        let a = Column::from_f64(vec![1.0]);
        let b = Column::from_f64(vec![0.0]);
        let r = div(&a, &b).unwrap();
        assert_eq!(r.get(0).unwrap(), Value::Float64(f64::INFINITY));
    }

    #[test]
    fn neg_ints_and_floats() {
        assert_eq!(
            neg(&Column::from_i64(vec![3])).unwrap().get(0).unwrap(),
            Value::Int64(-3)
        );
        assert_eq!(
            neg(&Column::from_f64(vec![2.5])).unwrap().get(0).unwrap(),
            Value::Float64(-2.5)
        );
        assert!(neg(&Column::from_strs(vec!["x"])).is_err());
    }

    #[test]
    fn neg_overflow_errors() {
        assert!(neg(&Column::from_i64(vec![i64::MIN])).is_err());
    }

    #[test]
    fn non_numeric_errors() {
        let a = Column::from_strs(vec!["x"]);
        let b = Column::from_i64(vec![1]);
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn length_mismatch_errors() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_i64(vec![1, 2]);
        assert!(sub(&a, &b).is_err());
    }
}
