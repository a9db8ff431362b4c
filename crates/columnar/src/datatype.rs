//! Logical type system: [`DataType`] for columns and [`Value`] for scalars.

use std::cmp::Ordering;
use std::fmt;

/// The logical type of a column.
///
/// Deliberately small — the paper's workloads (taxi-style analytics) need
/// integers, floats, strings, booleans, timestamps and dates. Timestamps are
/// microseconds since the Unix epoch; dates are days since the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int64,
    Float64,
    Utf8,
    /// Microseconds since the Unix epoch.
    Timestamp,
    /// Days since the Unix epoch.
    Date,
}

impl DataType {
    /// Human-readable name, also used in SQL type syntax.
    pub fn name(&self) -> &'static str {
        match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int64 => "BIGINT",
            DataType::Float64 => "DOUBLE",
            DataType::Utf8 => "VARCHAR",
            DataType::Timestamp => "TIMESTAMP",
            DataType::Date => "DATE",
        }
    }

    /// Parse a SQL type name (case-insensitive) into a `DataType`.
    pub fn parse(s: &str) -> Option<DataType> {
        match s.to_ascii_uppercase().as_str() {
            "BOOLEAN" | "BOOL" => Some(DataType::Bool),
            "BIGINT" | "INT" | "INTEGER" | "INT64" | "LONG" => Some(DataType::Int64),
            "DOUBLE" | "FLOAT" | "FLOAT64" | "REAL" => Some(DataType::Float64),
            "VARCHAR" | "STRING" | "TEXT" | "UTF8" => Some(DataType::Utf8),
            "TIMESTAMP" => Some(DataType::Timestamp),
            "DATE" => Some(DataType::Date),
            _ => None,
        }
    }

    /// Whether the type is numeric (participates in arithmetic).
    pub fn is_numeric(&self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64)
    }

    /// Whether the type is temporal.
    pub fn is_temporal(&self) -> bool {
        matches!(self, DataType::Timestamp | DataType::Date)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single scalar value: one cell of a table, possibly null.
///
/// `Value` is the boundary type between row-oriented surfaces (SQL literals,
/// partition keys, min/max statistics) and the columnar kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int64(i64),
    Float64(f64),
    Utf8(String),
    Timestamp(i64),
    Date(i32),
}

impl Value {
    /// The data type of this value, or `None` for `Null` (which is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Utf8(_) => Some(DataType::Utf8),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract as i64 if the value is integral (Int64, Timestamp, Date).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(v) | Value::Timestamp(v) => Some(*v),
            Value::Date(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// Extract as f64, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float64(v) => Some(*v),
            Value::Int64(v) | Value::Timestamp(v) => Some(*v as f64),
            Value::Date(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Utf8(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Total ordering used for sorting and min/max statistics.
    ///
    /// Nulls sort first; cross-numeric comparisons widen to f64; values of
    /// incomparable types order by type tag (stable, arbitrary but total).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int64(a), Int64(b)) => a.cmp(b),
            (Float64(a), Float64(b)) => a.total_cmp(b),
            (Int64(a), Float64(b)) => (*a as f64).total_cmp(b),
            (Float64(a), Int64(b)) => a.total_cmp(&(*b as f64)),
            (Utf8(a), Utf8(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int64(_) => 2,
        Value::Float64(_) => 3,
        Value::Utf8(_) => 4,
        Value::Timestamp(_) => 5,
        Value::Date(_) => 6,
    }
}

/// `(year, month, day)` of a day count since 1970-01-01 (proleptic
/// Gregorian; Howard Hinnant's `civil_from_days`).
pub fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe as i64 + era * 400 + (m <= 2) as i64;
    (y, m as u32, (doy - (153 * mp + 2) / 5 + 1) as u32)
}

/// Days since 1970-01-01 of a civil date: the inverse of
/// [`civil_from_days`] (months 1–12; a day past its month's end runs into
/// the next).
pub fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y.rem_euclid(400) as u64;
    let mp = ((m + 9) % 12) as u64;
    let doy = (153 * mp + 2) / 5 + d as u64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe as i64 - 719_468
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Utf8(s) => write!(f, "{s}"),
            Value::Timestamp(v) => write!(f, "ts:{v}"),
            Value::Date(v) => write!(f, "date:{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Utf8(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Utf8(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_round_trip() {
        for dt in [
            DataType::Bool,
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Timestamp,
            DataType::Date,
        ] {
            assert_eq!(DataType::parse(dt.name()), Some(dt));
        }
    }

    #[test]
    fn civil_dates_round_trip() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(17_987), (2019, 4, 1));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
        for days in [-800_000, -1, 0, 59, 60, 11_016, 17_987, 2_932_896] {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days);
        }
    }

    #[test]
    fn parse_aliases() {
        assert_eq!(DataType::parse("int"), Some(DataType::Int64));
        assert_eq!(DataType::parse("TEXT"), Some(DataType::Utf8));
        assert_eq!(DataType::parse("real"), Some(DataType::Float64));
        assert_eq!(DataType::parse("nope"), None);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int64(7).as_i64(), Some(7));
        assert_eq!(Value::Int64(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float64(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Utf8("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.as_i64(), None);
    }

    #[test]
    fn total_cmp_nulls_first() {
        assert_eq!(Value::Null.total_cmp(&Value::Int64(0)), Ordering::Less);
        assert_eq!(Value::Int64(0).total_cmp(&Value::Null), Ordering::Greater);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn total_cmp_cross_numeric() {
        assert_eq!(
            Value::Int64(2).total_cmp(&Value::Float64(2.5)),
            Ordering::Less
        );
        assert_eq!(
            Value::Float64(3.0).total_cmp(&Value::Int64(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn numeric_and_temporal_predicates() {
        assert!(DataType::Int64.is_numeric());
        assert!(DataType::Float64.is_numeric());
        assert!(!DataType::Utf8.is_numeric());
        assert!(DataType::Date.is_temporal());
        assert!(!DataType::Bool.is_temporal());
    }
}
