//! Typed, immutable columns with optional validity bitmaps, plus a builder.

use crate::bitmap::Bitmap;
use crate::buffer::Buffer;
use crate::datatype::{DataType, Value};
use crate::error::{ColumnarError, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// Canonicalize a validity bitmap: a column's validity is `Some` **iff** it
/// actually contains a null. Every constructor and kernel funnels through
/// this, so two columns with equal values always compare equal regardless of
/// how they were produced (e.g. filter-then-concat vs. concat-then-filter in
/// the streaming executor).
pub fn normalize_validity(validity: Option<Bitmap>) -> Option<Bitmap> {
    validity.filter(|b| b.count_clear() > 0)
}

/// A typed column of values.
///
/// Each variant holds its values in a shared [`Buffer`] plus an optional
/// validity bitmap; `None` validity means "no nulls" (see
/// [`normalize_validity`]). Cloning or slicing a column shares its values
/// (the bitmap, 1/64 of an `Int64` column, is copied). Null slots still
/// occupy a default value in the buffer (Arrow convention), so kernels can
/// read values unconditionally and mask afterwards. A plain string column
/// keeps one `String` per row.
#[derive(Debug, Clone)]
pub enum Column {
    Bool(Buffer<bool>, Option<Bitmap>),
    Int64(Buffer<i64>, Option<Bitmap>),
    Float64(Buffer<f64>, Option<Bitmap>),
    Utf8(Buffer<String>, Option<Bitmap>),
    Timestamp(Buffer<i64>, Option<Bitmap>),
    Date(Buffer<i32>, Option<Bitmap>),
    /// A dictionary-encoded string column (see [`DictColumn`]). Reports
    /// `DataType::Utf8`; kernels that understand the encoding operate on
    /// the `u32` codes directly, everything else goes through `get`.
    Dict(DictColumn),
}

/// A dictionary-encoded string column: one `u32` code per row into a shared
/// dictionary of strings. The file reader hands this up without eager
/// decode so equality/IN filters can compare against the dictionary once
/// and scan only the codes; materialization to a plain `Utf8` column
/// happens late, at the executor roots, for projected survivors only.
///
/// Invariants: every code (including codes under null slots) indexes into
/// `dict`, and `validity` is normalized (`Some` iff a null exists).
#[derive(Debug, Clone)]
pub struct DictColumn {
    dict: Arc<Vec<String>>,
    codes: Buffer<u32>,
    validity: Option<Bitmap>,
}

impl DictColumn {
    /// Build a dictionary column, validating that every code is in range
    /// and the validity length matches.
    pub fn try_new(
        dict: Arc<Vec<String>>,
        codes: impl Into<Buffer<u32>>,
        validity: Option<Bitmap>,
    ) -> Result<DictColumn> {
        let codes = codes.into();
        if let Some(max) = codes.iter().max() {
            if *max as usize >= dict.len() {
                return Err(ColumnarError::IndexOutOfBounds {
                    index: *max as usize,
                    len: dict.len(),
                });
            }
        }
        if let Some(v) = &validity {
            if v.len() != codes.len() {
                return Err(ColumnarError::LengthMismatch {
                    expected: codes.len(),
                    actual: v.len(),
                });
            }
        }
        Ok(DictColumn {
            dict,
            codes,
            validity: normalize_validity(validity),
        })
    }

    /// Internal constructor for kernels that already uphold the invariants
    /// (e.g. gathering codes from an existing dict column).
    pub(crate) fn new_unchecked(
        dict: Arc<Vec<String>>,
        codes: impl Into<Buffer<u32>>,
        validity: Option<Bitmap>,
    ) -> DictColumn {
        DictColumn {
            dict,
            codes: codes.into(),
            validity: normalize_validity(validity),
        }
    }

    /// Dictionary-encode a plain string slice, assigning codes in first-
    /// appearance order.
    pub fn encode(values: &[String], validity: Option<Bitmap>) -> Result<DictColumn> {
        let mut index: HashMap<&str, u32> = HashMap::new();
        let mut dict: Vec<String> = Vec::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            let code = *index.entry(v.as_str()).or_insert_with(|| {
                dict.push(v.clone());
                (dict.len() - 1) as u32
            });
            codes.push(code);
        }
        drop(index);
        DictColumn::try_new(Arc::new(dict), codes, validity)
    }

    /// The shared dictionary of distinct strings.
    pub fn dict(&self) -> &Arc<Vec<String>> {
        &self.dict
    }

    /// Per-row codes into the dictionary.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Validity bitmap (`None` = no nulls).
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The string at row `i`, ignoring validity (null slots resolve to
    /// whatever dictionary entry their code points at, matching the dense
    /// default-value convention of plain columns).
    #[inline]
    pub fn value(&self, i: usize) -> &str {
        &self.dict[self.codes[i] as usize]
    }

    /// Decode into a plain `Utf8` column (the late-materialization point).
    pub fn materialize(&self) -> Column {
        let values = self.codes.iter().map(|&c| self.dict[c as usize].clone());
        Column::Utf8(values.collect(), self.validity.clone())
    }
}

impl PartialEq for Column {
    /// Plain variants compare representationally (dense values including
    /// null slots, plus validity), exactly as the previous derived impl.
    /// Comparisons involving a dictionary column are logical — per-row
    /// resolved strings with null rows equal regardless of code — so a
    /// dict-encoded column round-tripped through the file format compares
    /// equal to the plain column it encodes.
    fn eq(&self, other: &Self) -> bool {
        fn dict_vs_plain(d: &DictColumn, v: &[String], val: Option<&Bitmap>) -> bool {
            if d.len() != v.len() {
                return false;
            }
            for (i, pval) in v.iter().enumerate() {
                let dv = d.validity.as_ref().is_none_or(|b| b.get(i));
                let pv = val.is_none_or(|b| b.get(i));
                if dv != pv {
                    return false;
                }
                if dv && d.value(i) != pval {
                    return false;
                }
            }
            true
        }
        match (self, other) {
            (Column::Bool(a, av), Column::Bool(b, bv)) => a == b && av == bv,
            (Column::Int64(a, av), Column::Int64(b, bv)) => a == b && av == bv,
            (Column::Float64(a, av), Column::Float64(b, bv)) => a == b && av == bv,
            (Column::Utf8(a, av), Column::Utf8(b, bv)) => a == b && av == bv,
            (Column::Timestamp(a, av), Column::Timestamp(b, bv)) => a == b && av == bv,
            (Column::Date(a, av), Column::Date(b, bv)) => a == b && av == bv,
            (Column::Dict(a), Column::Dict(b)) => {
                if a.len() != b.len() {
                    return false;
                }
                if Arc::ptr_eq(&a.dict, &b.dict) && a.codes == b.codes && a.validity == b.validity {
                    return true;
                }
                for i in 0..a.len() {
                    let av = a.validity.as_ref().is_none_or(|m| m.get(i));
                    let bv = b.validity.as_ref().is_none_or(|m| m.get(i));
                    if av != bv {
                        return false;
                    }
                    if av && a.value(i) != b.value(i) {
                        return false;
                    }
                }
                true
            }
            (Column::Dict(d), Column::Utf8(v, val)) | (Column::Utf8(v, val), Column::Dict(d)) => {
                dict_vs_plain(d, v, val.as_ref())
            }
            _ => false,
        }
    }
}

impl Column {
    // ---- constructors -----------------------------------------------------

    pub fn from_bool(values: Vec<bool>) -> Self {
        Column::Bool(values.into(), None)
    }
    pub fn from_i64(values: Vec<i64>) -> Self {
        Column::Int64(values.into(), None)
    }
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column::Float64(values.into(), None)
    }
    pub fn from_str_vec(values: Vec<String>) -> Self {
        Column::Utf8(values.into(), None)
    }
    pub fn from_strs(values: Vec<&str>) -> Self {
        Column::Utf8(values.into_iter().map(String::from).collect(), None)
    }
    pub fn from_timestamp(values: Vec<i64>) -> Self {
        Column::Timestamp(values.into(), None)
    }
    pub fn from_date(values: Vec<i32>) -> Self {
        Column::Date(values.into(), None)
    }

    pub fn from_opt_bool(values: Vec<Option<bool>>) -> Self {
        from_options(values, Column::Bool)
    }
    pub fn from_opt_i64(values: Vec<Option<i64>>) -> Self {
        from_options(values, Column::Int64)
    }
    pub fn from_opt_f64(values: Vec<Option<f64>>) -> Self {
        from_options(values, Column::Float64)
    }
    pub fn from_opt_str(values: Vec<Option<&str>>) -> Self {
        let values = values.into_iter().map(|v| v.map(String::from)).collect();
        from_options(values, Column::Utf8)
    }
    pub fn from_opt_timestamp(values: Vec<Option<i64>>) -> Self {
        from_options(values, Column::Timestamp)
    }
    pub fn from_opt_date(values: Vec<Option<i32>>) -> Self {
        from_options(values, Column::Date)
    }

    /// An empty column of the given type.
    pub fn new_empty(dt: DataType) -> Self {
        Column::new_null(dt, 0)
    }

    /// A column of `len` nulls of the given type.
    pub fn new_null(dt: DataType, len: usize) -> Self {
        let validity = normalize_validity(Some(Bitmap::new_clear(len)));
        match dt {
            DataType::Bool => Column::Bool(vec![false; len].into(), validity),
            DataType::Int64 => Column::Int64(vec![0; len].into(), validity),
            DataType::Float64 => Column::Float64(vec![0.0; len].into(), validity),
            DataType::Utf8 => Column::Utf8(vec![String::new(); len].into(), validity),
            DataType::Timestamp => Column::Timestamp(vec![0; len].into(), validity),
            DataType::Date => Column::Date(vec![0; len].into(), validity),
        }
    }

    /// A column repeating one scalar `len` times.
    pub fn from_value(value: &Value, len: usize) -> Result<Self> {
        Ok(match value {
            Value::Null => {
                // Typeless null broadcast defaults to Int64 nulls; callers
                // with type context should use `new_null` directly.
                Column::new_null(DataType::Int64, len)
            }
            Value::Bool(b) => Column::Bool(vec![*b; len].into(), None),
            Value::Int64(v) => Column::Int64(vec![*v; len].into(), None),
            Value::Float64(v) => Column::Float64(vec![*v; len].into(), None),
            Value::Utf8(s) => Column::Utf8(vec![s.clone(); len].into(), None),
            Value::Timestamp(v) => Column::Timestamp(vec![*v; len].into(), None),
            Value::Date(v) => Column::Date(vec![*v; len].into(), None),
        })
    }

    /// Build a column of type `dt` from scalar values; `Null`s become nulls.
    pub fn from_values(dt: DataType, values: &[Value]) -> Result<Self> {
        let mut b = ColumnBuilder::new(dt);
        for v in values {
            b.push_value(v)?;
        }
        Ok(b.finish())
    }

    // ---- metadata ---------------------------------------------------------

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v, _) => v.len(),
            Column::Int64(v, _) => v.len(),
            Column::Float64(v, _) => v.len(),
            Column::Utf8(v, _) => v.len(),
            Column::Timestamp(v, _) => v.len(),
            Column::Date(v, _) => v.len(),
            Column::Dict(d) => d.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type. Dictionary columns are an encoding of
    /// `Utf8`, not a distinct logical type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Bool(..) => DataType::Bool,
            Column::Int64(..) => DataType::Int64,
            Column::Float64(..) => DataType::Float64,
            Column::Utf8(..) | Column::Dict(_) => DataType::Utf8,
            Column::Timestamp(..) => DataType::Timestamp,
            Column::Date(..) => DataType::Date,
        }
    }

    /// The validity bitmap, if any (None = no nulls).
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Bool(_, v)
            | Column::Int64(_, v)
            | Column::Float64(_, v)
            | Column::Utf8(_, v)
            | Column::Timestamp(_, v)
            | Column::Date(_, v) => v.as_ref(),
            Column::Dict(d) => d.validity(),
        }
    }

    /// Number of nulls.
    pub fn null_count(&self) -> usize {
        self.validity().map_or(0, |b| b.count_clear())
    }

    /// Whether the value at `i` is valid (non-null).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity().is_none_or(|b| b.get(i))
    }

    /// Get row `i` as a scalar [`Value`].
    pub fn get(&self, i: usize) -> Result<Value> {
        if i >= self.len() {
            return Err(ColumnarError::IndexOutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        Ok(self.value_at(i))
    }

    /// Row `i`, which the caller has checked is in bounds.
    fn value_at(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match self {
            Column::Bool(v, _) => Value::Bool(v[i]),
            Column::Int64(v, _) => Value::Int64(v[i]),
            Column::Float64(v, _) => Value::Float64(v[i]),
            Column::Utf8(v, _) => Value::Utf8(v[i].clone()),
            Column::Timestamp(v, _) => Value::Timestamp(v[i]),
            Column::Date(v, _) => Value::Date(v[i]),
            Column::Dict(d) => Value::Utf8(d.value(i).to_string()),
        }
    }

    /// Iterate rows as scalar values (nulls included).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(|i| self.value_at(i))
    }

    // ---- typed accessors ---------------------------------------------------

    pub fn as_bool(&self) -> Result<(&[bool], Option<&Bitmap>)> {
        match self {
            Column::Bool(v, b) => Ok((v, b.as_ref())),
            other => Err(type_err("Bool", other)),
        }
    }
    pub fn as_i64(&self) -> Result<(&[i64], Option<&Bitmap>)> {
        match self {
            Column::Int64(v, b) | Column::Timestamp(v, b) => Ok((v, b.as_ref())),
            other => Err(type_err("Int64", other)),
        }
    }
    pub fn as_f64(&self) -> Result<(&[f64], Option<&Bitmap>)> {
        match self {
            Column::Float64(v, b) => Ok((v, b.as_ref())),
            other => Err(type_err("Float64", other)),
        }
    }
    pub fn as_utf8(&self) -> Result<(&[String], Option<&Bitmap>)> {
        match self {
            Column::Utf8(v, b) => Ok((v, b.as_ref())),
            Column::Dict(_) => Err(ColumnarError::TypeMismatch {
                expected: "Utf8 (plain)".into(),
                actual: "Utf8 (dictionary-encoded)".into(),
            }),
            other => Err(type_err("Utf8", other)),
        }
    }

    /// The dictionary representation, if this column is dict-encoded.
    pub fn as_dict(&self) -> Option<&DictColumn> {
        match self {
            Column::Dict(d) => Some(d),
            _ => None,
        }
    }

    /// Decode a dictionary column into a plain `Utf8` column; all other
    /// variants pass through unchanged. This is the late-materialization
    /// point: executors call it at the plan root so only projected
    /// survivors are ever expanded to full strings.
    pub fn materialize(&self) -> Column {
        match self {
            Column::Dict(d) => d.materialize(),
            other => other.clone(),
        }
    }
    pub fn as_date(&self) -> Result<(&[i32], Option<&Bitmap>)> {
        match self {
            Column::Date(v, b) => Ok((v, b.as_ref())),
            other => Err(type_err("Date", other)),
        }
    }

    // ---- structural ops ----------------------------------------------------

    /// Rows `[offset, offset + len)`, sharing this column's values; only
    /// a validity bitmap is copied.
    pub fn slice(&self, offset: usize, len: usize) -> Result<Column> {
        let end = offset
            .checked_add(len)
            .ok_or_else(|| ColumnarError::InvalidArgument("slice overflow".into()))?;
        if end > self.len() {
            return Err(ColumnarError::IndexOutOfBounds {
                index: end,
                len: self.len(),
            });
        }
        let validity = normalize_validity(self.validity().map(|b| b.slice_range(offset, len)));
        let rows = offset..end;
        Ok(match self {
            Column::Bool(v, _) => Column::Bool(v.slice(rows), validity),
            Column::Int64(v, _) => Column::Int64(v.slice(rows), validity),
            Column::Float64(v, _) => Column::Float64(v.slice(rows), validity),
            Column::Utf8(v, _) => Column::Utf8(v.slice(rows), validity),
            Column::Timestamp(v, _) => Column::Timestamp(v.slice(rows), validity),
            Column::Date(v, _) => Column::Date(v.slice(rows), validity),
            Column::Dict(d) => Column::Dict(DictColumn::new_unchecked(
                Arc::clone(&d.dict),
                d.codes.slice(rows),
                validity,
            )),
        })
    }

    /// Concatenate columns of the same type: one column shares its
    /// values, several are copied into one buffer.
    pub fn concat(columns: &[Column]) -> Result<Column> {
        let Some(first) = columns.first() else {
            return Err(ColumnarError::InvalidArgument(
                "concat of zero columns".into(),
            ));
        };
        let dt = first.data_type();
        for col in columns {
            if col.data_type() != dt {
                return Err(ColumnarError::TypeMismatch {
                    expected: dt.name().into(),
                    actual: col.data_type().name().into(),
                });
            }
        }
        if let [one] = columns {
            return Ok(one.clone());
        }
        let total: usize = columns.iter().map(|c| c.len()).sum();
        // Validity stays `None` unless an input actually contains a null —
        // the same normalization ColumnBuilder::finish applies. Built by
        // appending whole bitmaps (byte shifts), not bit by bit.
        let validity = if columns.iter().any(|c| c.null_count() > 0) {
            let mut bits = Bitmap::new_clear(0);
            for col in columns {
                match col.validity() {
                    Some(v) => bits.append(v),
                    None => bits.append(&Bitmap::new_set(col.len())),
                }
            }
            Some(bits)
        } else {
            None
        };
        macro_rules! concat_typed {
            ($variant:ident, $ty:ty) => {{
                let mut out: Vec<$ty> = Vec::with_capacity(total);
                for col in columns {
                    match col {
                        Column::$variant(v, _) => out.extend_from_slice(v),
                        _ => unreachable!("types checked above"),
                    }
                }
                Column::$variant(out.into(), validity)
            }};
        }
        Ok(match dt {
            DataType::Bool => concat_typed!(Bool, bool),
            DataType::Int64 => concat_typed!(Int64, i64),
            DataType::Float64 => concat_typed!(Float64, f64),
            DataType::Utf8 => concat_utf8(columns, total, validity),
            DataType::Timestamp => concat_typed!(Timestamp, i64),
            DataType::Date => concat_typed!(Date, i32),
        })
    }

    /// Min and max non-null values, or `(Null, Null)` if all rows are null.
    ///
    /// Typed loops over the column's slice: one `Value` pair per column, not
    /// one per cell. Ordering is [`Value::total_cmp`]'s (floats by
    /// `f64::total_cmp`, folded as the integer keys it compares). A NULL
    /// slot folds as the first valid value, which moves neither extreme, so
    /// a nullable column folds without a branch a row, its validity read a
    /// word at a time.
    pub fn min_max(&self) -> (Value, Value) {
        fn extremes<'a, S, T: Ord + Copy>(
            values: &'a [S],
            validity: Option<&Bitmap>,
            get: impl Fn(&'a S) -> T,
        ) -> Option<(T, T)> {
            let Some(validity) = validity else {
                let first = get(values.first()?);
                let (mut lo, mut hi) = (first, first);
                for x in values {
                    (lo, hi) = (lo.min(get(x)), hi.max(get(x)));
                }
                return Some((lo, hi));
            };
            let (at, word) = validity.words().enumerate().find(|(_, w)| *w != 0)?;
            let fill = get(&values[at * 64 + word.trailing_zeros() as usize]);
            let (mut lo, mut hi) = (fill, fill);
            for (chunk, word) in values.chunks(64).zip(validity.words()) {
                for (j, x) in chunk.iter().enumerate() {
                    let x = if word >> j & 1 == 1 { get(x) } else { fill };
                    (lo, hi) = (lo.min(x), hi.max(x));
                }
            }
            Some((lo, hi))
        }
        fn wrap<T>(best: Option<(T, T)>, f: impl Fn(T) -> Value) -> (Value, Value) {
            best.map_or((Value::Null, Value::Null), |(lo, hi)| (f(lo), f(hi)))
        }
        fn ordered<T: Copy + Ord>(
            values: &[T],
            validity: Option<&Bitmap>,
            f: impl Fn(T) -> Value,
        ) -> (Value, Value) {
            wrap(extremes(values, validity, |x| *x), f)
        }
        // `f64::total_cmp`'s key: an involution, ordered as that compares.
        let key = |bits: i64| bits ^ (((bits >> 63) as u64) >> 1) as i64;
        let float = |k: i64| Value::Float64(f64::from_bits(key(k) as u64));
        let utf8 = |s: &str| Value::Utf8(s.to_string());
        let validity = self.validity();
        match self {
            Column::Bool(v, _) => ordered(v, validity, Value::Bool),
            Column::Int64(v, _) => ordered(v, validity, Value::Int64),
            Column::Timestamp(v, _) => ordered(v, validity, Value::Timestamp),
            Column::Date(v, _) => ordered(v, validity, Value::Date),
            Column::Float64(v, _) => {
                wrap(extremes(v, validity, |x| key(x.to_bits() as i64)), float)
            }
            Column::Utf8(v, _) => wrap(extremes(v, validity, String::as_str), utf8),
            // Dictionary: mark which entries appear among valid rows, then
            // compare the (much smaller) dictionary's used entries.
            Column::Dict(d) => {
                let mut used = vec![false; d.dict().len()];
                for (i, &c) in d.codes().iter().enumerate() {
                    if validity.is_none_or(|b| b.get(i)) {
                        used[c as usize] = true;
                    }
                }
                let entries: Vec<&str> = (d.dict().iter().zip(&used))
                    .filter_map(|(s, u)| u.then_some(s.as_str()))
                    .collect();
                wrap(extremes(&entries, None, |s| *s), utf8)
            }
        }
    }
}

/// Concatenate string columns, keeping the result dictionary-encoded when
/// at least as many rows arrive dictionary-encoded as plain: shared-`Arc`
/// inputs concatenate codes directly, distinct dictionaries are merged and
/// codes remapped, and plain pieces (the writer leaves a trailing row group
/// of a few rows plain) are folded into the merged dictionary instead of
/// de-dictionarying everything else. A mostly-plain input stays plain.
fn concat_utf8(columns: &[Column], total: usize, validity: Option<Bitmap>) -> Column {
    let dict_rows: usize = columns
        .iter()
        .map(|c| c.as_dict().map_or(0, DictColumn::len))
        .sum();
    let first_dict = columns.iter().find_map(|c| c.as_dict());
    if let Some(first_dict) = first_dict.filter(|_| dict_rows >= total - dict_rows) {
        let first_dict = first_dict.dict();
        let mut codes: Vec<u32> = Vec::with_capacity(total);
        if columns.iter().all(|c| {
            c.as_dict()
                .is_some_and(|d| Arc::ptr_eq(d.dict(), first_dict))
        }) {
            for col in columns {
                if let Column::Dict(d) = col {
                    codes.extend_from_slice(d.codes());
                }
            }
            return Column::Dict(DictColumn::new_unchecked(
                Arc::clone(first_dict),
                codes,
                validity,
            ));
        }
        // Merge dictionaries in input order, deduplicating entries.
        let mut merged: Vec<String> = Vec::new();
        let mut index: HashMap<String, u32> = HashMap::new();
        let mut intern = |s: &String| {
            *index.entry(s.clone()).or_insert_with(|| {
                merged.push(s.clone());
                (merged.len() - 1) as u32
            })
        };
        for col in columns {
            match col {
                Column::Dict(d) => {
                    let remap: Vec<u32> = d.dict().iter().map(&mut intern).collect();
                    codes.extend(d.codes().iter().map(|&c| remap[c as usize]));
                }
                Column::Utf8(v, _) => codes.extend(v.iter().map(&mut intern)),
                _ => unreachable!("types checked above"),
            }
        }
        return Column::Dict(DictColumn::new_unchecked(Arc::new(merged), codes, validity));
    }
    let mut out: Vec<String> = Vec::with_capacity(total);
    for col in columns {
        match col {
            Column::Utf8(v, _) => out.extend_from_slice(v),
            Column::Dict(d) => out.extend(d.codes().iter().map(|&c| d.dict()[c as usize].clone())),
            _ => unreachable!("types checked above"),
        }
    }
    Column::Utf8(out.into(), validity)
}

/// A column of `values`, a `None` a NULL over the type's default.
fn from_options<T: Default>(
    values: Vec<Option<T>>,
    variant: fn(Buffer<T>, Option<Bitmap>) -> Column,
) -> Column {
    let validity = normalize_validity(Some(Bitmap::from_options(&values)));
    variant(
        values.into_iter().map(Option::unwrap_or_default).collect(),
        validity,
    )
}

fn type_err(expected: &str, actual: &Column) -> ColumnarError {
    ColumnarError::TypeMismatch {
        expected: expected.to_string(),
        actual: actual.data_type().name().to_string(),
    }
}

/// Incremental builder for a [`Column`] of a fixed [`DataType`].
#[derive(Debug)]
pub struct ColumnBuilder {
    dt: DataType,
    bools: Vec<bool>,
    ints: Vec<i64>,
    floats: Vec<f64>,
    strings: Vec<String>,
    dates: Vec<i32>,
    validity: Bitmap,
    has_nulls: bool,
}

impl ColumnBuilder {
    pub fn new(dt: DataType) -> Self {
        Self::with_capacity(dt, 0)
    }

    pub fn with_capacity(dt: DataType, cap: usize) -> Self {
        let mut b = ColumnBuilder {
            dt,
            bools: vec![],
            ints: vec![],
            floats: vec![],
            strings: vec![],
            dates: vec![],
            validity: Bitmap::new_clear(0),
            has_nulls: false,
        };
        match dt {
            DataType::Bool => b.bools.reserve(cap),
            DataType::Int64 | DataType::Timestamp => b.ints.reserve(cap),
            DataType::Float64 => b.floats.reserve(cap),
            DataType::Utf8 => b.strings.reserve(cap),
            DataType::Date => b.dates.reserve(cap),
        }
        b
    }

    /// Current number of rows.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The type the builder produces.
    pub fn data_type(&self) -> DataType {
        self.dt
    }

    /// Append a null.
    pub fn push_null(&mut self) {
        self.has_nulls = true;
        self.validity.push(false);
        match self.dt {
            DataType::Bool => self.bools.push(false),
            DataType::Int64 | DataType::Timestamp => self.ints.push(0),
            DataType::Float64 => self.floats.push(0.0),
            DataType::Utf8 => self.strings.push(String::new()),
            DataType::Date => self.dates.push(0),
        }
    }

    /// Append a scalar value; must match the builder's type (with int→float
    /// widening) or be `Null`.
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        match (self.dt, v) {
            (_, Value::Null) => {
                self.push_null();
                Ok(())
            }
            (DataType::Bool, Value::Bool(b)) => {
                self.bools.push(*b);
                self.validity.push(true);
                Ok(())
            }
            (DataType::Int64, Value::Int64(i)) => {
                self.ints.push(*i);
                self.validity.push(true);
                Ok(())
            }
            (DataType::Timestamp, Value::Timestamp(i)) | (DataType::Timestamp, Value::Int64(i)) => {
                self.ints.push(*i);
                self.validity.push(true);
                Ok(())
            }
            (DataType::Float64, Value::Float64(x)) => {
                self.floats.push(*x);
                self.validity.push(true);
                Ok(())
            }
            (DataType::Float64, Value::Int64(i)) => {
                self.floats.push(*i as f64);
                self.validity.push(true);
                Ok(())
            }
            (DataType::Utf8, Value::Utf8(s)) => {
                self.strings.push(s.clone());
                self.validity.push(true);
                Ok(())
            }
            (DataType::Date, Value::Date(d)) => {
                self.dates.push(*d);
                self.validity.push(true);
                Ok(())
            }
            (DataType::Date, Value::Int64(i)) => {
                self.dates.push(*i as i32);
                self.validity.push(true);
                Ok(())
            }
            (dt, v) => Err(ColumnarError::TypeMismatch {
                expected: dt.name().into(),
                actual: format!("{v:?}"),
            }),
        }
    }

    /// Finish and produce the column. The validity bitmap is dropped when no
    /// nulls were pushed, keeping the fast "no-null" path cheap downstream.
    pub fn finish(self) -> Column {
        let validity = if self.has_nulls {
            Some(self.validity)
        } else {
            None
        };
        match self.dt {
            DataType::Bool => Column::Bool(self.bools.into(), validity),
            DataType::Int64 => Column::Int64(self.ints.into(), validity),
            DataType::Timestamp => Column::Timestamp(self.ints.into(), validity),
            DataType::Float64 => Column::Float64(self.floats.into(), validity),
            DataType::Utf8 => Column::Utf8(self.strings.into(), validity),
            DataType::Date => Column::Date(self.dates.into(), validity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_constructors() {
        let c = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.null_count(), 0);
        assert_eq!(c.get(1).unwrap(), Value::Int64(2));
    }

    #[test]
    fn optional_constructor_tracks_nulls() {
        let c = Column::from_opt_f64(vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(c.null_count(), 1);
        assert!(!c.is_valid(1));
        assert_eq!(c.get(1).unwrap(), Value::Null);
        assert_eq!(c.get(2).unwrap(), Value::Float64(3.0));
    }

    #[test]
    fn get_out_of_bounds() {
        let c = Column::from_bool(vec![true]);
        assert!(matches!(
            c.get(5),
            Err(ColumnarError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn slice_preserves_validity() {
        let c = Column::from_opt_i64(vec![Some(0), None, Some(2), None, Some(4)]);
        let s = c.slice(1, 3).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0).unwrap(), Value::Null);
        assert_eq!(s.get(1).unwrap(), Value::Int64(2));
        assert_eq!(s.get(2).unwrap(), Value::Null);
    }

    #[test]
    fn slice_out_of_bounds() {
        let c = Column::from_i64(vec![1, 2]);
        assert!(c.slice(1, 5).is_err());
    }

    #[test]
    fn concat_columns() {
        let a = Column::from_strs(vec!["x", "y"]);
        let b = Column::from_opt_str(vec![None, Some("z")]);
        let c = Column::concat(&[a, b]).unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(3).unwrap(), Value::Utf8("z".into()));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn concat_type_mismatch() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_f64(vec![1.0]);
        assert!(Column::concat(&[a, b]).is_err());
    }

    #[test]
    fn builder_round_trip() {
        let mut b = ColumnBuilder::new(DataType::Utf8);
        b.push_value(&Value::Utf8("a".into())).unwrap();
        b.push_null();
        b.push_value(&Value::Utf8("c".into())).unwrap();
        let c = b.finish();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(2).unwrap(), Value::Utf8("c".into()));
    }

    #[test]
    fn builder_int_to_float_widening() {
        let mut b = ColumnBuilder::new(DataType::Float64);
        b.push_value(&Value::Int64(2)).unwrap();
        assert_eq!(b.finish().get(0).unwrap(), Value::Float64(2.0));
    }

    #[test]
    fn builder_rejects_wrong_type() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        assert!(b.push_value(&Value::Utf8("no".into())).is_err());
    }

    #[test]
    fn builder_no_nulls_drops_validity() {
        let mut b = ColumnBuilder::new(DataType::Int64);
        b.push_value(&Value::Int64(1)).unwrap();
        let c = b.finish();
        assert!(c.validity().is_none());
    }

    #[test]
    fn min_max_skips_nulls() {
        let c = Column::from_opt_i64(vec![None, Some(5), Some(-2), None, Some(9)]);
        let (min, max) = c.min_max();
        assert_eq!(min, Value::Int64(-2));
        assert_eq!(max, Value::Int64(9));
    }

    #[test]
    fn min_max_all_null() {
        let c = Column::new_null(DataType::Float64, 3);
        let (min, max) = c.min_max();
        assert!(min.is_null() && max.is_null());
    }

    #[test]
    fn new_null_column() {
        let c = Column::new_null(DataType::Utf8, 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.null_count(), 4);
    }

    #[test]
    fn from_value_broadcast() {
        let c = Column::from_value(&Value::Int64(7), 3).unwrap();
        assert_eq!(
            c.iter_values().collect::<Vec<_>>(),
            vec![Value::Int64(7), Value::Int64(7), Value::Int64(7)]
        );
    }

    fn sample_dict() -> DictColumn {
        let values: Vec<String> = ["a", "b", "a", "c", "b", "a"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let validity = Bitmap::from_bools(&[true, true, false, true, true, true]);
        DictColumn::encode(&values, Some(validity)).unwrap()
    }

    #[test]
    fn dict_reports_utf8_metadata() {
        let d = Column::Dict(sample_dict());
        assert_eq!(d.data_type(), DataType::Utf8);
        assert_eq!(d.len(), 6);
        assert_eq!(d.null_count(), 1);
        assert_eq!(d.get(0).unwrap(), Value::Utf8("a".into()));
        assert_eq!(d.get(2).unwrap(), Value::Null);
    }

    #[test]
    fn dict_compares_equal_to_plain() {
        let d = Column::Dict(sample_dict());
        let plain = d.materialize();
        assert!(matches!(plain, Column::Utf8(..)));
        assert_eq!(d, plain);
        assert_eq!(plain, d);
        let other = Column::from_strs(vec!["a", "b", "x", "c", "b", "a"]);
        assert_ne!(d, other);
    }

    #[test]
    fn dict_slice_keeps_encoding() {
        let d = Column::Dict(sample_dict());
        let s = d.slice(1, 3).unwrap();
        assert!(matches!(s, Column::Dict(_)));
        assert_eq!(s.get(0).unwrap(), Value::Utf8("b".into()));
        assert_eq!(s.get(1).unwrap(), Value::Null);
        assert_eq!(s.get(2).unwrap(), Value::Utf8("c".into()));
    }

    #[test]
    fn dict_concat_shared_and_merged() {
        let d = sample_dict();
        let a = Column::Dict(d.clone());
        let b = Column::Dict(d.clone());
        // Shared Arc: stays dict with the same dictionary.
        let shared = Column::concat(&[a.clone(), b]).unwrap();
        assert!(matches!(&shared, Column::Dict(sd) if Arc::ptr_eq(sd.dict(), d.dict())));
        assert_eq!(shared.len(), 12);
        // Distinct dictionaries merge and remap.
        let values: Vec<String> = ["c", "d"].iter().map(|s| s.to_string()).collect();
        let other = Column::Dict(DictColumn::encode(&values, None).unwrap());
        let merged = Column::concat(&[a.clone(), other]).unwrap();
        assert_eq!(merged.get(6).unwrap(), Value::Utf8("c".into()));
        assert_eq!(merged.get(7).unwrap(), Value::Utf8("d".into()));
        match &merged {
            Column::Dict(m) => assert_eq!(m.dict().len(), 4), // a b c d
            other => panic!("expected dict, got {other:?}"),
        }
    }

    #[test]
    fn dict_concat_folds_small_plain_pieces() {
        let a = Column::Dict(sample_dict());
        // A short plain piece (the writer's trailing row group) joins the
        // merged dictionary instead of de-dictionarying the dict rows.
        let tail = Column::from_opt_str(vec![Some("z"), None, Some("a")]);
        let pieces = [a.clone(), tail, a.clone()];
        let mixed = Column::concat(&pieces).unwrap();
        match &mixed {
            // a b c, then z and the null slot's "" from the plain piece.
            Column::Dict(m) => assert_eq!(m.dict().len(), 5),
            other => panic!("expected dict, got {other:?}"),
        }
        assert_eq!(mixed.len(), 15);
        assert_eq!(mixed.get(6).unwrap(), Value::Utf8("z".into()));
        assert_eq!(mixed.get(7).unwrap(), Value::Null);
        // Byte-identical to the all-plain concat once decoded.
        let plain: Vec<Column> = pieces.iter().map(Column::materialize).collect();
        let want = Column::concat(&plain).unwrap();
        assert!(matches!(want, Column::Utf8(..)));
        match (mixed.materialize(), want) {
            (Column::Utf8(gv, gval), Column::Utf8(wv, wval)) => {
                assert_eq!(gv, wv);
                assert_eq!(gval, wval);
            }
            other => panic!("expected plain columns, got {other:?}"),
        }
        // More plain rows than dict rows: the result is plain, as before.
        let long = Column::from_strs(vec!["p"; 7]);
        let mostly_plain = Column::concat(&[a, long]).unwrap();
        assert!(matches!(mostly_plain, Column::Utf8(..)));
        assert_eq!(mostly_plain.get(6).unwrap(), Value::Utf8("p".into()));
    }

    #[test]
    fn dict_rejects_out_of_range_codes() {
        let dict = Arc::new(vec!["a".to_string()]);
        assert!(DictColumn::try_new(dict, vec![0, 1], None).is_err());
    }

    #[test]
    fn dict_min_max() {
        let (min, max) = Column::Dict(sample_dict()).min_max();
        assert_eq!(min, Value::Utf8("a".into()));
        assert_eq!(max, Value::Utf8("c".into()));
    }

    #[test]
    fn from_values_mixed_nulls() {
        let c = Column::from_values(
            DataType::Int64,
            &[Value::Int64(1), Value::Null, Value::Int64(3)],
        )
        .unwrap();
        assert_eq!(c.null_count(), 1);
    }
}
