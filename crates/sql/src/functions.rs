//! Scalar function registry: names, return types, and implementations.

use crate::error::{Result, SqlError};
use lakehouse_columnar::{DataType, Value};

/// The type two branches of one value meet at (CASE results, COALESCE
/// arguments): an untyped NULL takes the other's type, INT and DOUBLE meet
/// at DOUBLE, and otherwise the first wins.
pub(crate) fn unify(a: Option<DataType>, b: Option<DataType>) -> Option<DataType> {
    match (a, b) {
        (Some(DataType::Int64), Some(DataType::Float64))
        | (Some(DataType::Float64), Some(DataType::Int64)) => Some(DataType::Float64),
        (Some(a), _) => Some(a),
        (None, b) => b,
    }
}

/// Return type of a scalar function over arguments of `args` types (`None`:
/// an untyped NULL), or `None` when only such NULLs decide it.
pub fn scalar_return_type(name: &str, args: &[Option<DataType>]) -> Result<Option<DataType>> {
    let upper = name.to_ascii_uppercase();
    Ok(match upper.as_str() {
        "UPPER" | "LOWER" | "SUBSTR" | "SUBSTRING" => Some(DataType::Utf8),
        "LENGTH" => Some(DataType::Int64),
        "ROUND" => Some(DataType::Float64),
        "ABS" => args.first().map_or(Some(DataType::Float64), |t| *t),
        "COALESCE" => args.iter().copied().fold(None, unify),
        other => return Err(SqlError::Plan(format!("unknown function: {other}"))),
    })
}

/// Evaluate a scalar function row-wise on already-evaluated argument values.
pub fn eval_scalar_function(name: &str, args: &[Value]) -> Result<Value> {
    let upper = name.to_ascii_uppercase();
    let arity_err =
        |n: usize| SqlError::Execution(format!("{upper} expects at least {n} argument(s)"));
    Ok(match upper.as_str() {
        "UPPER" => match args.first().ok_or_else(|| arity_err(1))? {
            Value::Null => Value::Null,
            Value::Utf8(s) => Value::Utf8(s.to_uppercase()),
            other => Value::Utf8(other.to_string().to_uppercase()),
        },
        "LOWER" => match args.first().ok_or_else(|| arity_err(1))? {
            Value::Null => Value::Null,
            Value::Utf8(s) => Value::Utf8(s.to_lowercase()),
            other => Value::Utf8(other.to_string().to_lowercase()),
        },
        "LENGTH" => match args.first().ok_or_else(|| arity_err(1))? {
            Value::Null => Value::Null,
            Value::Utf8(s) => Value::Int64(s.chars().count() as i64),
            other => Value::Int64(other.to_string().chars().count() as i64),
        },
        "ABS" => match args.first().ok_or_else(|| arity_err(1))? {
            Value::Null => Value::Null,
            Value::Int64(i) => Value::Int64(
                i.checked_abs()
                    .ok_or_else(|| SqlError::Execution("ABS overflow".into()))?,
            ),
            Value::Float64(f) => Value::Float64(f.abs()),
            other => return Err(SqlError::Execution(format!("ABS on non-numeric {other:?}"))),
        },
        "ROUND" => {
            let v = args.first().ok_or_else(|| arity_err(1))?;
            let digits = args.get(1).and_then(Value::as_i64).unwrap_or(0);
            match v {
                Value::Null => Value::Null,
                v => {
                    let f = v
                        .as_f64()
                        .ok_or_else(|| SqlError::Execution("ROUND on non-numeric".into()))?;
                    let factor = 10f64.powi(digits as i32);
                    Value::Float64((f * factor).round() / factor)
                }
            }
        }
        "COALESCE" => args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null),
        "SUBSTR" | "SUBSTRING" => {
            let s = match args.first().ok_or_else(|| arity_err(2))? {
                Value::Null => return Ok(Value::Null),
                Value::Utf8(s) => s.clone(),
                other => other.to_string(),
            };
            // SQL 1-based start.
            let start = args
                .get(1)
                .and_then(Value::as_i64)
                .ok_or_else(|| arity_err(2))?
                .max(1) as usize
                - 1;
            let len = args.get(2).and_then(Value::as_i64);
            let chars: Vec<char> = s.chars().collect();
            let end = match len {
                Some(l) => (start + l.max(0) as usize).min(chars.len()),
                None => chars.len(),
            };
            if start >= chars.len() {
                Value::Utf8(String::new())
            } else {
                Value::Utf8(chars[start..end].iter().collect())
            }
        }
        other => return Err(SqlError::Execution(format!("unknown function: {other}"))),
    })
}

/// SQL LIKE pattern matching with `%` (any run) and `_` (single char).
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn go(t: &[char], p: &[char]) -> bool {
        match (t.first(), p.first()) {
            (_, None) => t.is_empty(),
            (_, Some('%')) => {
                // Match zero or more characters.
                if go(t, &p[1..]) {
                    return true;
                }
                !t.is_empty() && go(&t[1..], p)
            }
            (None, Some(_)) => false,
            (Some(_), Some('_')) => go(&t[1..], &p[1..]),
            (Some(tc), Some(pc)) => tc == pc && go(&t[1..], &p[1..]),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    go(&t, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_functions() {
        assert_eq!(
            eval_scalar_function("UPPER", &[Value::Utf8("abc".into())]).unwrap(),
            Value::Utf8("ABC".into())
        );
        assert_eq!(
            eval_scalar_function("lower", &[Value::Utf8("ABC".into())]).unwrap(),
            Value::Utf8("abc".into())
        );
        assert_eq!(
            eval_scalar_function("LENGTH", &[Value::Utf8("héllo".into())]).unwrap(),
            Value::Int64(5)
        );
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(
            eval_scalar_function("ABS", &[Value::Int64(-5)]).unwrap(),
            Value::Int64(5)
        );
        assert_eq!(
            eval_scalar_function("ROUND", &[Value::Float64(2.567), Value::Int64(1)]).unwrap(),
            Value::Float64(2.6)
        );
        assert_eq!(
            eval_scalar_function("ROUND", &[Value::Float64(2.5)]).unwrap(),
            Value::Float64(3.0)
        );
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        assert_eq!(
            eval_scalar_function(
                "COALESCE",
                &[Value::Null, Value::Null, Value::Int64(7), Value::Int64(9)]
            )
            .unwrap(),
            Value::Int64(7)
        );
        assert_eq!(
            eval_scalar_function("COALESCE", &[Value::Null]).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn substr_one_based() {
        assert_eq!(
            eval_scalar_function(
                "SUBSTR",
                &[
                    Value::Utf8("hello".into()),
                    Value::Int64(2),
                    Value::Int64(3)
                ]
            )
            .unwrap(),
            Value::Utf8("ell".into())
        );
        assert_eq!(
            eval_scalar_function("SUBSTR", &[Value::Utf8("hello".into()), Value::Int64(99)])
                .unwrap(),
            Value::Utf8("".into())
        );
    }

    #[test]
    fn nulls_propagate() {
        assert_eq!(
            eval_scalar_function("UPPER", &[Value::Null]).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_scalar_function("ABS", &[Value::Null]).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn abs_overflow_errors() {
        assert!(eval_scalar_function("ABS", &[Value::Int64(i64::MIN)]).is_err());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "h_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
        assert!(!like_match("hello", "HELLO"));
    }
}
