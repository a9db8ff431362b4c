//! Row hashing for hash aggregation and hash joins, plus comparable row keys.
//!
//! Uses FNV-1a — small, deterministic across runs (important for the
//! "same code + same data = same result" reproducibility invariant of the
//! platform), and fast enough at reasonable scale.

use crate::batch::RecordBatch;
use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::datatype::Value;
use crate::error::Result;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over a byte slice, continuing from `state`.
#[inline]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash a single scalar into `state`. Each type gets a distinct tag byte so
/// `Int64(0)` and `Float64(0.0)` (and nulls) never collide structurally.
#[inline]
pub fn hash_value(state: u64, v: &Value) -> u64 {
    match v {
        Value::Null => fnv1a(state, &[0x00]),
        Value::Bool(b) => fnv1a(fnv1a(state, &[0x01]), &[*b as u8]),
        Value::Int64(i) => fnv1a(fnv1a(state, &[0x02]), &i.to_le_bytes()),
        Value::Float64(f) => fnv1a(fnv1a(state, &[0x03]), &f.to_bits().to_le_bytes()),
        Value::Utf8(s) => fnv1a(fnv1a(state, &[0x04]), s.as_bytes()),
        Value::Timestamp(t) => fnv1a(fnv1a(state, &[0x05]), &t.to_le_bytes()),
        Value::Date(d) => fnv1a(fnv1a(state, &[0x06]), &d.to_le_bytes()),
    }
}

/// Hash every row of a column.
///
/// Runs typed per-slice loops (no per-row [`Value`] boxing); reuse a buffer
/// across batches with [`hash_column_into`]. Hash values are identical to
/// the scalar reference (`hash_value` over `get(i)`).
pub fn hash_column(col: &Column) -> Result<Vec<u64>> {
    let mut out = Vec::new();
    hash_column_into(col, &mut out)?;
    Ok(out)
}

/// Hash every row of `col` into `out` (cleared and resized), reusing the
/// caller's buffer.
pub fn hash_column_into(col: &Column, out: &mut Vec<u64>) -> Result<()> {
    out.clear();
    out.resize(col.len(), FNV_OFFSET);
    // Dictionary fast path: hash each distinct entry once from the initial
    // state, then the per-row loop is a table lookup over the u32 codes.
    if let Column::Dict(d) = col {
        let table: Vec<u64> = d
            .dict()
            .iter()
            .map(|s| fnv1a(fnv1a(FNV_OFFSET, &[0x04]), s.as_bytes()))
            .collect();
        let null_hash = fnv1a(FNV_OFFSET, &[0x00]);
        let codes = d.codes();
        match d.validity() {
            None => {
                for (h, &c) in out.iter_mut().zip(codes) {
                    *h = table[c as usize];
                }
            }
            Some(b) => {
                let vb = b.to_bools();
                for (i, h) in out.iter_mut().enumerate() {
                    *h = if vb[i] {
                        table[codes[i] as usize]
                    } else {
                        null_hash
                    };
                }
            }
        }
        return Ok(());
    }
    hash_column_chain(col, out)
}

/// Hash rows across several columns of a batch.
pub fn hash_batch_rows(batch: &RecordBatch, key_columns: &[usize]) -> Result<Vec<u64>> {
    let mut hashes = vec![FNV_OFFSET; batch.num_rows()];
    for &c in key_columns {
        hash_column_chain(batch.column(c), &mut hashes)?;
    }
    Ok(hashes)
}

/// Words per stored key of `width` columns in [`super::Grouper`]'s key
/// store: one per column, then the NULL mask, one bit per column.
pub(crate) fn key_stride(width: usize) -> usize {
    width + width.div_ceil(64)
}

/// Rows `rows` of a group key as [`super::Grouper`] stores, hashes and
/// compares them: row-major, [`key_stride`] words a row — each column's cell
/// as one 64-bit word (the value's bits sign-extended, a float's canonical
/// bits, a string's FNV-1a hash; 0 under a NULL), then the NULL mask. Filled
/// a column at a time, so the type is dispatched once per call, not per
/// cell. `rows` is a block of rows, or the scattered rows that opened
/// groups.
pub(crate) fn key_words<R>(cols: &[&Column], rows: R, out: &mut Vec<u64>)
where
    R: ExactSizeIterator<Item = usize> + Clone,
{
    fn fill(
        out: &mut [u64],
        (c, width): (usize, usize),
        rows: impl Iterator<Item = usize>,
        valid: Option<&Bitmap>,
        word: impl Fn(usize) -> u64,
    ) {
        let stride = key_stride(width);
        for (row, i) in out.chunks_exact_mut(stride).zip(rows) {
            if valid.is_none_or(|b| b.get(i)) {
                row[c] = word(i);
            } else {
                row[width + c / 64] |= 1 << (c % 64);
            }
        }
    }
    out.clear();
    out.resize(rows.len() * key_stride(cols.len()), 0);
    for (c, col) in cols.iter().enumerate() {
        let (c, at) = ((c, cols.len()), rows.clone());
        match col {
            Column::Bool(v, b) => fill(out, c, at, b.as_ref(), |i| v[i] as u64),
            Column::Int64(v, b) | Column::Timestamp(v, b) => {
                fill(out, c, at, b.as_ref(), |i| v[i] as u64)
            }
            Column::Date(v, b) => fill(out, c, at, b.as_ref(), |i| v[i] as u64),
            Column::Float64(v, b) => fill(out, c, at, b.as_ref(), |i| canonical_f64_bits(v[i])),
            Column::Utf8(v, b) => fill(out, c, at, b.as_ref(), |i| string_word(&v[i])),
            Column::Dict(d) => fill(out, c, at, d.validity(), |i| string_word(d.value(i))),
        }
    }
}

fn string_word(s: &str) -> u64 {
    fnv1a(FNV_OFFSET, s.as_bytes())
}

/// Hash one row of [`key_words`]: one multiply per word, folding the
/// well-mixed high half onto the low bits that table masks and tags keep.
#[inline]
pub(crate) fn hash_words(words: &[u64]) -> u64 {
    words.iter().fold(FNV_OFFSET, |h, &word| {
        let h = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 32)
    })
}

/// The bit pattern a float groups and joins by: NaN payloads and `-0.0`
/// normalized so equal-by-SQL floats compare equal as keys.
pub(crate) fn canonical_f64_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0.0f64.to_bits()
    } else {
        f.to_bits()
    }
}

/// Fold one column into per-row hash states with the type dispatched once.
/// Byte-identical to folding `hash_value(state, &col.get(i))` per row.
fn hash_column_chain(col: &Column, states: &mut [u64]) -> Result<()> {
    fn chain(states: &mut [u64], validity: Option<&Bitmap>, f: impl Fn(u64, usize) -> u64) {
        match validity {
            None => {
                for (i, h) in states.iter_mut().enumerate() {
                    *h = f(*h, i);
                }
            }
            Some(b) => {
                let vb = b.to_bools();
                for (i, h) in states.iter_mut().enumerate() {
                    *h = if vb[i] { f(*h, i) } else { fnv1a(*h, &[0x00]) };
                }
            }
        }
    }
    match col {
        Column::Bool(v, b) => chain(states, b.as_ref(), |h, i| {
            fnv1a(fnv1a(h, &[0x01]), &[v[i] as u8])
        }),
        Column::Int64(v, b) => chain(states, b.as_ref(), |h, i| {
            fnv1a(fnv1a(h, &[0x02]), &v[i].to_le_bytes())
        }),
        Column::Float64(v, b) => chain(states, b.as_ref(), |h, i| {
            fnv1a(fnv1a(h, &[0x03]), &v[i].to_bits().to_le_bytes())
        }),
        Column::Utf8(v, b) => chain(states, b.as_ref(), |h, i| {
            fnv1a(fnv1a(h, &[0x04]), v[i].as_bytes())
        }),
        Column::Timestamp(v, b) => chain(states, b.as_ref(), |h, i| {
            fnv1a(fnv1a(h, &[0x05]), &v[i].to_le_bytes())
        }),
        Column::Date(v, b) => chain(states, b.as_ref(), |h, i| {
            fnv1a(fnv1a(h, &[0x06]), &v[i].to_le_bytes())
        }),
        Column::Dict(d) => chain(states, d.validity(), |h, i| {
            fnv1a(fnv1a(h, &[0x04]), d.value(i).as_bytes())
        }),
    }
    Ok(())
}

/// A hashable, equality-comparable key for a row's selected columns.
///
/// `Value` itself is not `Eq`/`Hash` because of floats; `RowKey` canonicalizes
/// floats via their bit pattern (NaNs normalized) so it can live in hash maps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RowKey(Vec<KeyPart>);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyPart {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(String),
    Ts(i64),
    Date(i32),
}

impl RowKey {
    /// Build a key from scalar values directly.
    pub fn from_values(values: &[Value]) -> RowKey {
        RowKey(values.iter().map(KeyPart::from_value).collect())
    }

    /// Recover the scalar values in this key.
    pub fn to_values(&self) -> Vec<Value> {
        self.0
            .iter()
            .map(|p| match p {
                KeyPart::Null => Value::Null,
                KeyPart::Bool(b) => Value::Bool(*b),
                KeyPart::Int(i) => Value::Int64(*i),
                KeyPart::Float(bits) => Value::Float64(f64::from_bits(*bits)),
                KeyPart::Str(s) => Value::Utf8(s.clone()),
                KeyPart::Ts(t) => Value::Timestamp(*t),
                KeyPart::Date(d) => Value::Date(*d),
            })
            .collect()
    }

    /// True if any component is null (used by join semantics: null keys never
    /// match).
    pub fn has_null(&self) -> bool {
        self.0.iter().any(|p| matches!(p, KeyPart::Null))
    }
}

impl KeyPart {
    fn from_value(v: &Value) -> KeyPart {
        match v {
            Value::Null => KeyPart::Null,
            Value::Bool(b) => KeyPart::Bool(*b),
            Value::Int64(i) => KeyPart::Int(*i),
            Value::Float64(f) => KeyPart::Float(canonical_f64_bits(*f)),
            Value::Utf8(s) => KeyPart::Str(s.clone()),
            Value::Timestamp(t) => KeyPart::Ts(*t),
            Value::Date(d) => KeyPart::Date(*d),
        }
    }
}

/// Convenience alias for row keys used as map keys.
pub fn row_key(values: &[Value]) -> RowKey {
    RowKey::from_values(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::DataType;

    #[test]
    fn hash_is_deterministic() {
        let c = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(hash_column(&c).unwrap(), hash_column(&c).unwrap());
    }

    #[test]
    fn distinct_values_distinct_hashes() {
        let c = Column::from_i64(vec![1, 2]);
        let h = hash_column(&c).unwrap();
        assert_ne!(h[0], h[1]);
    }

    #[test]
    fn type_tags_prevent_cross_type_collisions() {
        let a = hash_value(FNV_OFFSET, &Value::Int64(0));
        let b = hash_value(FNV_OFFSET, &Value::Float64(0.0));
        let n = hash_value(FNV_OFFSET, &Value::Null);
        assert_ne!(a, b);
        assert_ne!(a, n);
    }

    #[test]
    fn batch_row_hash_combines_columns() {
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("a", DataType::Int64, false),
                Field::new("b", DataType::Utf8, false),
            ]),
            vec![
                Column::from_i64(vec![1, 1]),
                Column::from_strs(vec!["x", "y"]),
            ],
        )
        .unwrap();
        let h = hash_batch_rows(&batch, &[0, 1]).unwrap();
        assert_ne!(h[0], h[1]);
        let h_single = hash_batch_rows(&batch, &[0]).unwrap();
        assert_eq!(h_single[0], h_single[1]);
    }

    #[test]
    fn typed_hash_matches_reference() {
        use crate::kernels::reference::{hash_batch_rows_ref, hash_column_ref};
        let cols = vec![
            Column::from_opt_i64(vec![Some(1), None, Some(-7), Some(i64::MAX)]),
            Column::from_opt_bool(vec![Some(true), Some(false), None, Some(true)]),
            Column::from_opt_f64(vec![Some(1.5), Some(-0.0), None, Some(f64::NAN)]),
            Column::from_opt_str(vec![Some("a"), None, Some(""), Some("zz")]),
            Column::from_opt_timestamp(vec![Some(9), None, Some(0), Some(-3)]),
            Column::from_opt_date(vec![Some(1), Some(2), None, Some(4)]),
        ];
        for c in &cols {
            assert_eq!(hash_column(c).unwrap(), hash_column_ref(c).unwrap());
        }
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("a", DataType::Int64, true),
                Field::new("b", DataType::Utf8, true),
            ]),
            vec![cols[0].clone(), cols[3].clone()],
        )
        .unwrap();
        assert_eq!(
            hash_batch_rows(&batch, &[0, 1]).unwrap(),
            hash_batch_rows_ref(&batch, &[0, 1]).unwrap()
        );
    }

    #[test]
    fn dict_hash_matches_plain() {
        let values: Vec<String> = ["a", "b", "a", ""].iter().map(|s| s.to_string()).collect();
        let validity = crate::Bitmap::from_bools(&[true, true, false, true]);
        let dict = Column::Dict(
            crate::column::DictColumn::encode(&values, Some(validity.clone())).unwrap(),
        );
        let plain = Column::Utf8(values.into(), Some(validity));
        assert_eq!(hash_column(&dict).unwrap(), hash_column(&plain).unwrap());
    }

    #[test]
    fn row_key_round_trip() {
        let vals = vec![
            Value::Int64(1),
            Value::Utf8("x".into()),
            Value::Null,
            Value::Float64(2.5),
        ];
        let k = RowKey::from_values(&vals);
        assert_eq!(k.to_values(), vals);
        assert!(k.has_null());
    }

    #[test]
    fn row_key_float_normalization() {
        let a = RowKey::from_values(&[Value::Float64(0.0)]);
        let b = RowKey::from_values(&[Value::Float64(-0.0)]);
        assert_eq!(a, b);
        let n1 = RowKey::from_values(&[Value::Float64(f64::NAN)]);
        let n2 = RowKey::from_values(&[Value::Float64(f64::NAN)]);
        assert_eq!(n1, n2);
    }

    #[test]
    fn row_key_usable_in_hashmap() {
        use std::collections::HashMap;
        let mut m: HashMap<RowKey, usize> = HashMap::new();
        m.insert(row_key(&[Value::Int64(1), Value::Utf8("a".into())]), 10);
        assert_eq!(
            m.get(&row_key(&[Value::Int64(1), Value::Utf8("a".into())])),
            Some(&10)
        );
        assert_eq!(m.get(&row_key(&[Value::Int64(2)])), None);
    }
}
