//! Per-column-chunk statistics: min, max, null count, row count.
//!
//! These power zone-map pruning in the reader and partition/file pruning in
//! the table layer (Iceberg keeps the same stats in manifest entries).

use crate::error::{FormatError, Result};
use crate::io::{ByteReader, ByteWriter};
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{Column, Value};
use std::cmp::Ordering;

/// Statistics for one column chunk (or one data file, when aggregated).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub min: Value,
    pub max: Value,
    pub null_count: u64,
    pub row_count: u64,
}

impl ColumnStats {
    /// Compute stats for a column.
    pub fn from_column(col: &Column) -> ColumnStats {
        let (min, max) = col.min_max();
        ColumnStats {
            min,
            max,
            null_count: col.null_count() as u64,
            row_count: col.len() as u64,
        }
    }

    /// Non-NULL values somewhere in `[min, max]`: a partition value is the
    /// span of itself, a manifest ref's partition bounds are a span. A NULL
    /// bound knows nothing, so the span never prunes.
    pub fn span(min: Value, max: Value) -> ColumnStats {
        ColumnStats {
            min,
            max,
            null_count: 0,
            row_count: 1,
        }
    }

    /// Merge stats from another chunk of the same column.
    pub fn merge(&mut self, other: &ColumnStats) {
        if self.min.is_null() || (!other.min.is_null() && other.min.total_cmp(&self.min).is_lt()) {
            self.min = other.min.clone();
        }
        if self.max.is_null() || (!other.max.is_null() && other.max.total_cmp(&self.max).is_gt()) {
            self.max = other.max.clone();
        }
        self.null_count += other.null_count;
        self.row_count += other.row_count;
    }

    /// Can any row in this chunk satisfy `column OP literal`?
    ///
    /// Returns `true` when the chunk **might** contain matches (must be
    /// scanned) and `false` only when the stats *prove* no row matches —
    /// the standard zone-map contract: false positives allowed, false
    /// negatives never. Values order as the comparison kernels order them
    /// (`kernel_order`).
    pub fn may_match(&self, op: CmpOp, literal: &Value) -> bool {
        if literal.is_null() {
            // `x OP NULL` is never true in SQL.
            return false;
        }
        if self.min.is_null() || self.max.is_null() {
            // All-null chunk: no non-null value can match, except when there
            // are also rows we know nothing about (row_count > null_count).
            return self.row_count > self.null_count;
        }
        let (lo, hi) = (
            kernel_order(&self.min, literal),
            kernel_order(&self.max, literal),
        );
        match op {
            CmpOp::Eq => lo.is_le() && hi.is_ge(),
            // Only prunable if every row equals the literal exactly.
            CmpOp::NotEq => !(lo.is_eq() && hi.is_eq() && self.null_count == 0),
            CmpOp::Lt => lo.is_lt(),
            CmpOp::LtEq => lo.is_le(),
            CmpOp::Gt => hi.is_gt(),
            CmpOp::GtEq => hi.is_ge(),
        }
    }

    /// Does every row in this chunk satisfy `column OP literal`? The dual
    /// of [`Self::may_match`]: `true` only when the stats *prove* it. A NULL
    /// row satisfies no comparison, so the chunk must have none; every value
    /// lies between `min` and `max` in the order the kernels compare by, so
    /// both bounds deciding the comparison the same way decides it for every
    /// row. The caller checks that `row_count` counts the rows it means.
    pub fn must_match(&self, op: CmpOp, literal: &Value) -> bool {
        if literal.is_null() || self.null_count != 0 || self.min.is_null() || self.max.is_null() {
            return false;
        }
        let (lo, hi) = (
            kernel_order(&self.min, literal),
            kernel_order(&self.max, literal),
        );
        match op {
            CmpOp::Eq => lo.is_eq() && hi.is_eq(),
            CmpOp::NotEq => lo.is_gt() || hi.is_lt(),
            CmpOp::Lt => hi.is_lt(),
            CmpOp::LtEq => hi.is_le(),
            CmpOp::Gt => lo.is_gt(),
            CmpOp::GtEq => lo.is_ge(),
        }
    }

    /// Serialize into the footer.
    pub fn encode(&self, w: &mut ByteWriter) {
        encode_value(w, &self.min);
        encode_value(w, &self.max);
        w.write_u64(self.null_count);
        w.write_u64(self.row_count);
    }

    /// Deserialize from the footer.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<ColumnStats> {
        Ok(ColumnStats {
            min: decode_value(r)?,
            max: decode_value(r)?,
            null_count: r.read_u64()?,
            row_count: r.read_u64()?,
        })
    }
}

/// How `cmp_column_scalar` orders a column value against `literal`: by
/// [`Value::total_cmp`], except that a `Timestamp` column compares an
/// integer literal as an integer (the kernel's typed path), where
/// `total_cmp` would order the two by type.
fn kernel_order(value: &Value, literal: &Value) -> Ordering {
    match (value, literal) {
        (Value::Timestamp(v), Value::Int64(l)) => v.cmp(l),
        _ => value.total_cmp(literal),
    }
}

/// Binary-encode a scalar value with a type tag.
pub fn encode_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Null => w.write_u8(0),
        Value::Bool(b) => {
            w.write_u8(1);
            w.write_u8(*b as u8);
        }
        Value::Int64(i) => {
            w.write_u8(2);
            w.write_i64(*i);
        }
        Value::Float64(f) => {
            w.write_u8(3);
            w.write_f64(*f);
        }
        Value::Utf8(s) => {
            w.write_u8(4);
            w.write_str(s);
        }
        Value::Timestamp(t) => {
            w.write_u8(5);
            w.write_i64(*t);
        }
        Value::Date(d) => {
            w.write_u8(6);
            w.write_i32(*d);
        }
    }
}

/// Decode a tagged scalar value.
pub fn decode_value(r: &mut ByteReader<'_>) -> Result<Value> {
    Ok(match r.read_u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.read_u8()? != 0),
        2 => Value::Int64(r.read_i64()?),
        3 => Value::Float64(r.read_f64()?),
        4 => Value::Utf8(r.read_str()?),
        5 => Value::Timestamp(r.read_i64()?),
        6 => Value::Date(r.read_i32()?),
        tag => return Err(FormatError::Corrupt(format!("unknown value tag {tag}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_column() {
        let c = Column::from_opt_i64(vec![Some(5), None, Some(1), Some(9)]);
        let s = ColumnStats::from_column(&c);
        assert_eq!(s.min, Value::Int64(1));
        assert_eq!(s.max, Value::Int64(9));
        assert_eq!(s.null_count, 1);
        assert_eq!(s.row_count, 4);
    }

    #[test]
    fn merge_widen() {
        let mut a = ColumnStats::from_column(&Column::from_i64(vec![5, 6]));
        let b = ColumnStats::from_column(&Column::from_i64(vec![1, 10]));
        a.merge(&b);
        assert_eq!(a.min, Value::Int64(1));
        assert_eq!(a.max, Value::Int64(10));
        assert_eq!(a.row_count, 4);
    }

    #[test]
    fn pruning_eq() {
        let s = ColumnStats::from_column(&Column::from_i64(vec![10, 20]));
        assert!(s.may_match(CmpOp::Eq, &Value::Int64(15)));
        assert!(s.may_match(CmpOp::Eq, &Value::Int64(10)));
        assert!(!s.may_match(CmpOp::Eq, &Value::Int64(25)));
        assert!(!s.may_match(CmpOp::Eq, &Value::Int64(5)));
    }

    #[test]
    fn pruning_range_ops() {
        let s = ColumnStats::from_column(&Column::from_i64(vec![10, 20]));
        assert!(!s.may_match(CmpOp::Lt, &Value::Int64(10)));
        assert!(s.may_match(CmpOp::LtEq, &Value::Int64(10)));
        assert!(!s.may_match(CmpOp::Gt, &Value::Int64(20)));
        assert!(s.may_match(CmpOp::GtEq, &Value::Int64(20)));
        assert!(s.may_match(CmpOp::Gt, &Value::Int64(15)));
    }

    #[test]
    fn pruning_not_eq_only_when_constant() {
        let constant = ColumnStats::from_column(&Column::from_i64(vec![7, 7, 7]));
        assert!(!constant.may_match(CmpOp::NotEq, &Value::Int64(7)));
        assert!(constant.may_match(CmpOp::NotEq, &Value::Int64(8)));
        let varied = ColumnStats::from_column(&Column::from_i64(vec![7, 8]));
        assert!(varied.may_match(CmpOp::NotEq, &Value::Int64(7)));
    }

    #[test]
    fn pruning_null_literal_never_matches() {
        let s = ColumnStats::from_column(&Column::from_i64(vec![1]));
        assert!(!s.may_match(CmpOp::Eq, &Value::Null));
    }

    #[test]
    fn all_null_chunk_prunes() {
        let s = ColumnStats::from_column(&Column::from_opt_i64(vec![None, None]));
        assert!(!s.may_match(CmpOp::Eq, &Value::Int64(1)));
    }

    #[test]
    fn cross_type_numeric_pruning() {
        let s = ColumnStats::from_column(&Column::from_i64(vec![10, 20]));
        assert!(s.may_match(CmpOp::Gt, &Value::Float64(15.5)));
        assert!(!s.may_match(CmpOp::Gt, &Value::Float64(20.5)));
    }

    #[test]
    fn proving_needs_both_bounds_and_no_null() {
        let s = ColumnStats::from_column(&Column::from_i64(vec![10, 20]));
        assert!(s.must_match(CmpOp::GtEq, &Value::Int64(10)));
        assert!(!s.must_match(CmpOp::Gt, &Value::Int64(10)));
        assert!(s.must_match(CmpOp::Lt, &Value::Int64(21)));
        assert!(s.must_match(CmpOp::NotEq, &Value::Int64(9)));
        assert!(!s.must_match(CmpOp::NotEq, &Value::Int64(15)));
        assert!(!s.must_match(CmpOp::Eq, &Value::Int64(10)));
        let constant = ColumnStats::from_column(&Column::from_i64(vec![7, 7]));
        assert!(constant.must_match(CmpOp::Eq, &Value::Int64(7)));
        assert!(!constant.must_match(CmpOp::Eq, &Value::Null));
        let nulls = ColumnStats::from_column(&Column::from_opt_i64(vec![Some(7), None]));
        assert!(!nulls.must_match(CmpOp::Eq, &Value::Int64(7)));
    }

    #[test]
    fn stats_order_values_as_the_kernel_compares_them() {
        // A timestamp against an integer literal compares the integers.
        let ts = ColumnStats::from_column(&Column::from_timestamp(vec![5, 5]));
        assert!(ts.may_match(CmpOp::Eq, &Value::Int64(5)));
        assert!(ts.must_match(CmpOp::Eq, &Value::Int64(5)));
        // `0.0` is not `-0.0` to the kernel, so `<> -0.0` holds on it.
        let zero = ColumnStats::from_column(&Column::from_f64(vec![0.0]));
        assert!(zero.may_match(CmpOp::NotEq, &Value::Float64(-0.0)));
        assert!(zero.must_match(CmpOp::NotEq, &Value::Float64(-0.0)));
    }

    #[test]
    fn stats_encode_round_trip() {
        let s = ColumnStats {
            min: Value::Utf8("aa".into()),
            max: Value::Utf8("zz".into()),
            null_count: 3,
            row_count: 100,
        };
        let mut w = ByteWriter::new();
        s.encode(&mut w);
        let buf = w.into_bytes();
        let decoded = ColumnStats::decode(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(s, decoded);
    }

    #[test]
    fn value_round_trip_all_variants() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int64(-42),
            Value::Float64(1.25),
            Value::Utf8("text".into()),
            Value::Timestamp(1_000_000),
            Value::Date(19_000),
        ] {
            let mut w = ByteWriter::new();
            encode_value(&mut w, &v);
            let buf = w.into_bytes();
            assert_eq!(decode_value(&mut ByteReader::new(&buf)).unwrap(), v);
        }
    }
}
