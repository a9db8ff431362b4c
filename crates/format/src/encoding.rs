//! Column-chunk encodings.
//!
//! Each chunk is encoded as:
//!
//! ```text
//! row_count: u32
//! has_validity: u8           (1 = validity bitmap follows)
//! [validity bytes]           (row_count bits, packed)
//! encoding: u8               (0 = plain, 1 = dictionary, 2 = bit-packed,
//!                             3 = frame of reference, 4 = dictionary with
//!                             bit-packed codes)
//! payload
//! ```
//!
//! Strings pick dictionary encoding automatically when it saves space
//! (distinct values ≤ half the rows), mirroring Parquet's default behaviour.
//! Integers (`Int64`, `Timestamp`, `Date`) travel at their bit width: a
//! frame of reference — the chunk's least value as an `i64`, then a `u8`
//! width — and each value's offset from it, bit-packed LSB-first. The base
//! is the least of *every* slot, NULL placeholders included, so a chunk
//! decodes to the very values it was written from. Dictionary codes pack
//! the same way, at the width the dictionary's length needs, after the
//! dictionary and a `u8` width. Either is written only where it is smaller
//! than plain; plain chunks keep decoding.

use crate::error::{FormatError, Result};
use crate::io::{packed_len, ByteReader, ByteWriter};
use crate::stats::ColumnStats;
use lakehouse_columnar::column::normalize_validity;
use lakehouse_columnar::{Bitmap, Column, DataType, DictColumn, Value};
use std::collections::HashMap;
use std::sync::Arc;

const ENC_PLAIN: u8 = 0;
const ENC_DICT: u8 = 1;
const ENC_BITPACK: u8 = 2;
const ENC_FOR: u8 = 3;
const ENC_DICT_PACKED: u8 = 4;

/// Bits that `span` needs, and at least one: a constant chunk costs a bit
/// a row, so a packed count never exceeds 8 × its bytes.
fn bit_width(span: u64) -> u32 {
    (u64::BITS - span.leading_zeros()).max(1)
}

/// `runs` — one chunk's values, in order — as offsets from their least
/// value at the width the largest needs, when that is smaller than `N`
/// bytes a value; else plain. `range` is the values' least and greatest
/// when already known.
fn encode_ints<T: Copy + Into<i64>, const N: usize>(
    runs: &[&[T]],
    range: Option<(i64, i64)>,
    le: impl Fn(T) -> [u8; N],
    w: &mut ByteWriter,
) {
    let n: usize = runs.iter().map(|r| r.len()).sum();
    let (lo, hi) = range.unwrap_or_else(|| {
        let wider = |(lo, hi): (i64, i64), v: &T| ((*v).into().min(lo), (*v).into().max(hi));
        let values = runs.iter().flat_map(|r| r.iter());
        values.fold((i64::MAX, i64::MIN), wider)
    });
    let width = bit_width(hi.wrapping_sub(lo) as u64);
    let packed = packed_len(n, width).map(|len| 8 + 1 + len);
    if packed.is_some_and(|len| len < n * N) {
        w.write_u8(ENC_FOR);
        w.write_i64(lo);
        w.write_u8(width as u8);
        let offsets = runs
            .iter()
            .map(|r| r.iter().map(move |&v| v.into().wrapping_sub(lo) as u64));
        w.write_packed(offsets, n, width);
    } else {
        w.write_u8(ENC_PLAIN);
        runs.iter().for_each(|r| w.write_plain(r, &le));
    }
}

/// A dictionary and the codes into it: the codes bit-packed when that is
/// smaller than four bytes a code.
fn encode_dict<'s>(
    dict: impl ExactSizeIterator<Item = &'s str>,
    codes: &[u32],
    w: &mut ByteWriter,
) {
    let width = bit_width(dict.len().saturating_sub(1) as u64);
    let packed = packed_len(codes.len(), width).map(|len| 1 + len);
    let pack = packed.is_some_and(|len| len < codes.len() * 4);
    w.write_u8(if pack { ENC_DICT_PACKED } else { ENC_DICT });
    w.write_u32(dict.len() as u32);
    for d in dict {
        w.write_str(d);
    }
    if pack {
        w.write_u8(width as u8);
        w.write_packed([codes.iter().map(|&c| u64::from(c))], codes.len(), width);
    } else {
        w.write_plain(codes, u32::to_le_bytes);
    }
}

/// The least and greatest value of an integer chunk, from its stats when
/// they count every slot (no NULL placeholder to step over).
fn known_range(stats: &ColumnStats) -> Option<(i64, i64)> {
    match (&stats.min, &stats.max) {
        _ if stats.null_count != 0 => None,
        (Value::Int64(lo) | Value::Timestamp(lo), Value::Int64(hi) | Value::Timestamp(hi)) => {
            Some((*lo, *hi))
        }
        (Value::Date(lo), Value::Date(hi)) => Some(((*lo).into(), (*hi).into())),
        _ => None,
    }
}

/// Encode `pieces` — consecutive rows of one column, in order — as one
/// chunk: byte for byte what encoding their concatenation gives, with the
/// values packed piece after piece and no concatenation made (plain strings
/// and dictionaries aside: several such pieces are concatenated as columns
/// concatenate). `stats` are the pieces' merged ([`ColumnStats::merge`]):
/// an integer chunk without NULLs takes its frame from them. The pieces are
/// of one type (a writer checks each batch against its schema).
pub(crate) fn encode_chunk(
    pieces: &[&Column],
    stats: &ColumnStats,
    w: &mut ByteWriter,
) -> Result<()> {
    let n: usize = pieces.iter().map(|c| c.len()).sum();
    w.write_u32(n as u32);
    // The chunk's validity: absent when none of its rows is NULL.
    match pieces.iter().any(|c| c.validity().is_some()) {
        true => {
            let mut bits = Bitmap::new_clear(0);
            for c in pieces {
                match c.validity() {
                    Some(b) => bits.append(b),
                    None => bits.append(&Bitmap::new_set(c.len())),
                }
            }
            w.write_u8(1);
            w.write_bytes(bits.as_bytes());
        }
        false => w.write_u8(0),
    }
    /// Every piece's values, as `typed` gives them.
    fn runs<'c, T: ?Sized>(
        pieces: &[&'c Column],
        typed: impl Fn(&'c Column) -> Option<&'c T>,
    ) -> Vec<&'c T> {
        pieces.iter().filter_map(|&c| typed(c)).collect()
    }
    match pieces.first() {
        None => {}
        Some(Column::Bool(..)) => {
            w.write_u8(ENC_BITPACK);
            let mut bits = Bitmap::new_clear(0);
            for values in runs(pieces, |c| c.as_bool().ok().map(|(v, _)| v)) {
                bits.append(&Bitmap::from_bools(values));
            }
            w.write_bytes(bits.as_bytes());
        }
        Some(Column::Int64(..) | Column::Timestamp(..)) => {
            let ints = runs(pieces, |c| c.as_i64().ok().map(|(v, _)| v));
            encode_ints(&ints, known_range(stats), i64::to_le_bytes, w);
        }
        Some(Column::Float64(..)) => {
            w.write_u8(ENC_PLAIN);
            for values in runs(pieces, |c| c.as_f64().ok().map(|(v, _)| v)) {
                w.write_plain(values, f64::to_le_bytes);
            }
        }
        Some(Column::Date(..)) => {
            let days = runs(pieces, |c| c.as_date().ok().map(|(v, _)| v));
            encode_ints(&days, known_range(stats), i32::to_le_bytes, w);
        }
        Some(Column::Utf8(..) | Column::Dict(_)) => {
            let pieces: Vec<Column> = pieces.iter().map(|&c| c.clone()).collect();
            encode_strings(&Column::concat(&pieces)?, w);
        }
    }
    Ok(())
}

/// The payload of a string chunk: a dictionary when its distinct values
/// are at most half its rows, plain otherwise; a column already
/// dictionary-encoded in memory writes its dictionary and codes straight
/// through, with no re-encode pass.
fn encode_strings(col: &Column, w: &mut ByteWriter) {
    match col {
        Column::Dict(d) => encode_dict(d.dict().iter().map(String::as_str), d.codes(), w),
        Column::Utf8(values, _) => {
            let mut dict: Vec<&str> = Vec::new();
            let mut index: HashMap<&str, u32> = HashMap::new();
            let mut codes: Vec<u32> = Vec::with_capacity(values.len());
            for v in values.iter() {
                codes.push(*index.entry(v.as_str()).or_insert_with(|| {
                    dict.push(v.as_str());
                    (dict.len() - 1) as u32
                }));
            }
            if dict.len() * 2 <= values.len().max(1) {
                encode_dict(dict.into_iter(), &codes, w);
            } else {
                w.write_u8(ENC_PLAIN);
                for v in values.iter() {
                    w.write_str(v);
                }
            }
        }
        _ => {}
    }
}

/// Decode one column chunk of the given type.
///
/// Every count the chunk declares (rows, dictionary entries) is checked
/// against the bytes that are left — count × the least a value takes, one
/// bit for a packed value — before anything is sized by it: a hostile count
/// is [`FormatError::Corrupt`] and a decode never allocates more than 64 ×
/// its chunk.
pub fn decode_column(dt: DataType, r: &mut ByteReader<'_>) -> Result<Column> {
    let mut column = ColumnDecoder::new(dt, 0);
    column.push(r)?;
    column.finish()
}

/// One column decoded chunk after chunk — a file's row groups, in order —
/// into one buffer of values and one validity bitmap: no column per chunk
/// and no concatenation. String chunks, plain or dictionary, decode to a
/// column each and are concatenated as columns concatenate.
pub(crate) struct ColumnDecoder {
    dt: DataType,
    values: Values,
    /// `None` while no chunk had a NULL.
    validity: Option<Bitmap>,
    rows: usize,
    strings: Vec<Column>,
}

enum Values {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Day(Vec<i32>),
    Str,
}

impl ColumnDecoder {
    /// A decoder of a column of type `dt` with room for `rows` values.
    pub(crate) fn new(dt: DataType, rows: usize) -> ColumnDecoder {
        let values = match dt {
            DataType::Bool => Values::Bool(Vec::with_capacity(rows)),
            DataType::Int64 | DataType::Timestamp => Values::Int(Vec::with_capacity(rows)),
            DataType::Float64 => Values::Float(Vec::with_capacity(rows)),
            DataType::Date => Values::Day(Vec::with_capacity(rows)),
            DataType::Utf8 => Values::Str,
        };
        ColumnDecoder {
            dt,
            values,
            validity: None,
            rows: 0,
            strings: Vec::new(),
        }
    }

    /// Decode the next chunk onto the column; its row count.
    pub(crate) fn push(&mut self, r: &mut ByteReader<'_>) -> Result<usize> {
        let n = r.read_u32()? as usize;
        // Normalized on the way in: files written before the "validity =
        // Some iff nulls exist" invariant may carry an all-set bitmap.
        let validity = normalize_validity(if r.read_u8()? == 1 {
            let bytes = r.read_bytes()?.to_vec();
            Some(
                Bitmap::from_bytes(bytes, n)
                    .map_err(|e| FormatError::Corrupt(format!("bad validity bitmap: {e}")))?,
            )
        } else {
            None
        });
        let encoding = r.read_u8()?;
        match (&mut self.values, encoding) {
            (Values::Bool(v), ENC_BITPACK) => {
                let bytes = r.read_bytes()?.to_vec();
                let bm = Bitmap::from_bytes(bytes, n)
                    .map_err(|e| FormatError::Corrupt(format!("bad bool chunk: {e}")))?;
                v.extend(bm.iter());
            }
            (Values::Int(v), ENC_PLAIN) => r.read_plain(v, n, i64::from_le_bytes)?,
            (Values::Int(v), ENC_FOR) => {
                let base = r.read_i64()?;
                let width = r.read_u8()?;
                r.read_packed(v, n, (width, 64), |o| base.wrapping_add(o as i64))?;
            }
            (Values::Float(v), ENC_PLAIN) => r.read_plain(v, n, f64::from_le_bytes)?,
            (Values::Day(v), ENC_PLAIN) => r.read_plain(v, n, i32::from_le_bytes)?,
            (Values::Day(v), ENC_FOR) => {
                let base = r.read_i64()?;
                let base = i32::try_from(base)
                    .map_err(|_| FormatError::Corrupt(format!("date base {base} out of range")))?;
                let width = r.read_u8()?;
                r.read_packed(v, n, (width, 32), |o| base.wrapping_add(o as i32))?;
            }
            (Values::Str, ENC_PLAIN) => {
                let strings = read_strs(r, n)?;
                self.strings.push(Column::Utf8(strings.into(), validity));
                self.rows += n;
                return Ok(n);
            }
            (Values::Str, enc @ (ENC_DICT | ENC_DICT_PACKED)) => {
                // Late materialization: hand the dictionary + codes up
                // as-is. Filters compare against the dictionary once and
                // scan only the u32 codes; decode to plain strings happens
                // at the executor root, only for rows that survive.
                let dict_len = r.read_u32()? as usize;
                let dict = read_strs(r, dict_len)?;
                let mut codes = Vec::new();
                if enc == ENC_DICT_PACKED {
                    let width = r.read_u8()?;
                    r.read_packed(&mut codes, n, (width, 32), |c| c as u32)?;
                } else {
                    r.read_plain(&mut codes, n, u32::from_le_bytes)?;
                }
                let d = DictColumn::try_new(Arc::new(dict), codes, validity)
                    .map_err(|e| FormatError::Corrupt(format!("bad dictionary chunk: {e}")))?;
                self.strings.push(Column::Dict(d));
                self.rows += n;
                return Ok(n);
            }
            (_, enc) => {
                return Err(FormatError::Corrupt(format!(
                    "unsupported encoding {enc} for type {}",
                    self.dt
                )))
            }
        }
        match (&mut self.validity, validity) {
            (Some(all), chunk) => all.append(&chunk.unwrap_or_else(|| Bitmap::new_set(n))),
            (all @ None, Some(chunk)) => {
                let mut bits = Bitmap::new_set(self.rows);
                bits.append(&chunk);
                *all = Some(bits);
            }
            (None, None) => {}
        }
        self.rows += n;
        Ok(n)
    }

    /// The column of every chunk pushed.
    pub(crate) fn finish(self) -> Result<Column> {
        let validity = self.validity;
        Ok(match self.values {
            Values::Bool(v) => Column::Bool(v.into(), validity),
            Values::Int(v) if self.dt == DataType::Timestamp => {
                Column::Timestamp(v.into(), validity)
            }
            Values::Int(v) => Column::Int64(v.into(), validity),
            Values::Float(v) => Column::Float64(v.into(), validity),
            Values::Day(v) => Column::Date(v.into(), validity),
            Values::Str if self.strings.is_empty() => Column::new_empty(DataType::Utf8),
            Values::Str => Column::concat(&self.strings)?,
        })
    }
}

/// `n` length-prefixed strings (four bytes each at the least).
fn read_strs(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<String>> {
    r.ensure_room(n, 4)?;
    (0..n).map(|_| r.read_str()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// A whole column as one chunk.
    fn encode(col: &Column) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_chunk(&[col], &ColumnStats::from_column(col), &mut w).unwrap();
        w.into_bytes()
    }

    fn round_trip(col: Column) -> Column {
        let buf = encode(&col);
        decode_column(col.data_type(), &mut ByteReader::new(&buf)).unwrap()
    }

    #[test]
    fn int_round_trip() {
        let c = Column::from_i64(vec![1, -2, i64::MAX]);
        assert_eq!(round_trip(c.clone()), c);
    }

    #[test]
    fn float_round_trip_with_nulls() {
        let c = Column::from_opt_f64(vec![Some(1.5), None, Some(-0.0)]);
        assert_eq!(round_trip(c.clone()), c);
    }

    #[test]
    fn bool_bitpack_round_trip() {
        let c = Column::from_bool(vec![
            true, false, true, true, false, true, false, true, true,
        ]);
        assert_eq!(round_trip(c.clone()), c);
    }

    #[test]
    fn string_low_cardinality_uses_dict() {
        let values: Vec<&str> = (0..100)
            .map(|i| if i % 2 == 0 { "a" } else { "b" })
            .collect();
        let c = Column::from_strs(values);
        let buf = encode(&c);
        // encoding byte is right after row_count(4) + has_validity(1)
        assert_eq!(buf[5], ENC_DICT_PACKED);
        assert_eq!(
            decode_column(DataType::Utf8, &mut ByteReader::new(&buf)).unwrap(),
            c
        );
    }

    #[test]
    fn string_high_cardinality_uses_plain() {
        let values: Vec<String> = (0..10).map(|i| format!("unique-{i}")).collect();
        let c = Column::from_str_vec(values);
        let buf = encode(&c);
        assert_eq!(buf[5], ENC_PLAIN);
        assert_eq!(
            decode_column(DataType::Utf8, &mut ByteReader::new(&buf)).unwrap(),
            c
        );
    }

    #[test]
    fn timestamp_and_date_round_trip() {
        let t = Column::from_timestamp(vec![1_000_000, 2_000_000]);
        assert_eq!(round_trip(t.clone()), t);
        let d = Column::from_opt_date(vec![Some(19_000), None]);
        assert_eq!(round_trip(d.clone()), d);
    }

    #[test]
    fn empty_column_round_trip() {
        let c = Column::new_empty(DataType::Utf8);
        assert_eq!(round_trip(c.clone()), c);
    }

    #[test]
    fn nulls_preserved_through_dict() {
        let c = Column::from_opt_str(vec![Some("x"), None, Some("x"), Some("y")]);
        let rt = round_trip(c.clone());
        assert_eq!(rt, c);
        assert_eq!(rt.get(1).unwrap(), Value::Null);
    }

    #[test]
    fn low_cardinality_decodes_to_dict_variant() {
        let values: Vec<&str> = (0..100)
            .map(|i| if i % 2 == 0 { "a" } else { "b" })
            .collect();
        let c = Column::from_strs(values);
        let rt = round_trip(c.clone());
        assert!(
            matches!(rt, Column::Dict(_)),
            "expected lazy dict column, got {rt:?}"
        );
        assert_eq!(rt, c); // logical equality: dict vs plain
        assert_eq!(rt.materialize(), c); // byte-identical after decode
    }

    #[test]
    fn dict_column_writes_straight_through() {
        let values: Vec<String> = ["hot", "cold", "hot", "hot"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let d = Column::Dict(DictColumn::encode(&values, None).unwrap());
        let buf = encode(&d);
        assert_eq!(buf[5], ENC_DICT_PACKED);
        let rt = decode_column(DataType::Utf8, &mut ByteReader::new(&buf)).unwrap();
        assert_eq!(rt, d);
        assert!(matches!(rt, Column::Dict(_)));
    }

    #[test]
    fn corrupt_dict_index_detected() {
        let mut w = ByteWriter::new();
        w.write_u32(1); // 1 row
        w.write_u8(0); // no validity
        w.write_u8(ENC_DICT);
        w.write_u32(1); // dict of 1
        w.write_str("only");
        w.write_u32(99); // out-of-range index
        let buf = w.into_bytes();
        assert!(decode_column(DataType::Utf8, &mut ByteReader::new(&buf)).is_err());
    }

    #[test]
    fn a_lying_count_is_corrupt_before_anything_is_sized_by_it() {
        // A chunk declaring u32::MAX rows (no validity), then `tail`. Sizing
        // a vector by that count would ask for 4–96 GiB; the count is held
        // against the few bytes that follow instead.
        let hostile = |dt: DataType, tail: &[u8]| {
            let mut w = ByteWriter::new();
            w.write_u32(u32::MAX);
            w.write_u8(0);
            w.write_raw(tail);
            let buf = w.into_bytes();
            decode_column(dt, &mut ByteReader::new(&buf))
        };
        let empty_dict = [ENC_DICT, 0, 0, 0, 0, 7, 0, 0, 0];
        let endless_dict = [ENC_DICT, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, b'x'];
        let cases: [(DataType, &[u8]); 7] = [
            (DataType::Int64, &[ENC_PLAIN, 1, 2, 3]),
            (DataType::Timestamp, &[ENC_PLAIN]),
            (DataType::Float64, &[ENC_PLAIN, 0, 0, 0, 0, 0, 0, 0, 0]),
            (DataType::Date, &[ENC_PLAIN, 9, 9, 9, 9]),
            (DataType::Utf8, &[ENC_PLAIN, 1, 0, 0, 0, b'a']),
            (DataType::Utf8, &empty_dict),
            (DataType::Utf8, &endless_dict),
        ];
        for (dt, tail) in cases {
            match hostile(dt, tail) {
                Err(FormatError::Corrupt(why)) => {
                    assert!(why.contains("4294967295 x "), "{dt}: {why}");
                    assert!(why.contains("remain"), "{dt}: {why}");
                }
                other => panic!("{dt}: expected Corrupt, got {other:?}"),
            }
        }
        // Bit-packed and validity bytes carry their own length, which the
        // count must match.
        assert!(hostile(DataType::Bool, &[ENC_BITPACK, 1, 0, 0, 0, 0xff]).is_err());
        let mut w = ByteWriter::new();
        w.write_u32(u32::MAX);
        w.write_u8(1);
        w.write_bytes(&[0xff; 4]);
        let buf = w.into_bytes();
        assert!(decode_column(DataType::Int64, &mut ByteReader::new(&buf)).is_err());
    }

    #[test]
    fn wrong_encoding_for_type_errors() {
        let mut w = ByteWriter::new();
        w.write_u32(0);
        w.write_u8(0);
        w.write_u8(ENC_DICT); // dict not valid for ints
        let buf = w.into_bytes();
        assert!(decode_column(DataType::Int64, &mut ByteReader::new(&buf)).is_err());
    }

    /// The encoding byte of a chunk and where it sits: after the row count,
    /// the validity flag and any validity bytes.
    fn encoding_of(buf: &[u8]) -> (u8, usize) {
        let mut r = ByteReader::new(buf);
        r.read_u32().unwrap();
        if r.read_u8().unwrap() == 1 {
            r.read_bytes().unwrap();
        }
        (r.read_u8().unwrap(), r.position())
    }

    /// `col` decodes to itself (null slots included), and its chunk is no
    /// larger than the plain one: the header, then a `plain`-byte payload.
    fn check(col: &Column, plain: usize) -> u8 {
        let buf = encode(col);
        let back = decode_column(col.data_type(), &mut ByteReader::new(&buf)).unwrap();
        assert_eq!(&back, col);
        if let (Column::Dict(a), Column::Dict(b)) = (&back, col) {
            assert_eq!(a.codes(), b.codes());
        }
        let (encoding, payload_at) = encoding_of(&buf);
        assert!(
            buf.len() <= payload_at + plain,
            "{} bytes for {} rows of {}",
            buf.len(),
            col.len(),
            col.data_type()
        );
        encoding
    }

    /// `n` values at offsets below 2^`width` from `base`, the least and the
    /// widest offset among them (so the chunk needs all `width` bits), every
    /// fifth row a NULL over a placeholder the encoder must keep, when
    /// `nulls`.
    fn ints(
        rng: &mut StdRng,
        n: usize,
        base: i64,
        width: u32,
        nulls: bool,
    ) -> (Vec<i64>, Option<Bitmap>) {
        let top = u64::MAX >> (64 - width);
        let mut values: Vec<i64> = (0..n)
            .map(|_| base.wrapping_add((rng.next_u64() & top) as i64))
            .collect();
        if let Some(v) = values.get_mut(n / 2) {
            *v = base.wrapping_add(top as i64);
        }
        if let Some(v) = values.first_mut() {
            *v = base;
        }
        let valid: Vec<bool> = (0..n).map(|i| i % 5 != 3).collect();
        let validity = normalize_validity(nulls.then(|| Bitmap::from_bools(&valid)));
        (values, validity)
    }

    #[test]
    fn integer_chunks_round_trip_at_every_width_and_never_outgrow_plain() {
        let mut rng = StdRng::seed_from_u64(37);
        for n in [0, 1, 2, 7, 63, 64, 65, 200, 1_000] {
            for width in 1..=63 {
                for nulls in [false, true] {
                    // Centred on zero, so the widest offset does not wrap.
                    let centre = -(((1u64 << (width - 1)) - 1) as i64);
                    let base = centre + rng.gen_range(-1_000_000_000_000i64..1_000_000_000_000);
                    let (values, validity) = ints(&mut rng, n, base, width, nulls);
                    let int = check(
                        &Column::Int64(values.clone().into(), validity.clone()),
                        8 * n,
                    );
                    let ts = check(&Column::Timestamp(values.into(), validity.clone()), 8 * n);
                    // A chunk of two rows or more packs whenever its width
                    // leaves room for the nine-byte frame.
                    let packs = 9 + packed_len(n, width).unwrap() < 8 * n;
                    assert_eq!(int == ENC_FOR, packs, "n {n} width {width}");
                    assert_eq!(ts, int);
                    if width <= 31 {
                        let base = centre + rng.gen_range(-1_000_000i64..1_000_000);
                        let (values, validity) = ints(&mut rng, n, base, width, nulls);
                        let days = values.iter().map(|&v| v as i32).collect();
                        let date = check(&Column::Date(days, validity), 4 * n);
                        let packs = 9 + packed_len(n, width).unwrap() < 4 * n;
                        assert_eq!(date == ENC_FOR, packs, "n {n} width {width}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_extremes_stay_plain_and_constants_cost_a_bit_a_row() {
        // i64::MIN and i64::MAX in one chunk: the span needs all 64 bits,
        // so packing would only add the frame.
        let extremes = Column::from_i64(vec![i64::MIN, 0, i64::MAX, -1]);
        assert_eq!(check(&extremes, 8 * 4), ENC_PLAIN);
        let days = Column::from_date(vec![i32::MIN, i32::MAX, 0]);
        assert_eq!(check(&days, 4 * 3), ENC_PLAIN);
        // The same with a NULL over each extreme: the frame counts every
        // slot, placeholders too.
        let valid = Bitmap::from_bools(&[false, true, false, true]);
        let hidden = Column::Int64(vec![i64::MIN, 5, i64::MAX, 6].into(), Some(valid));
        assert_eq!(check(&hidden, 8 * 4), ENC_PLAIN);
        for n in [1, 2, 8, 9, 1_000] {
            for v in [i64::MIN, -1, 0, 42, i64::MAX] {
                let constant = Column::from_i64(vec![v; n]);
                let buf = encode(&constant);
                assert_eq!(
                    decode_column(DataType::Int64, &mut ByteReader::new(&buf)).unwrap(),
                    constant
                );
                let (encoding, payload_at) = encoding_of(&buf);
                if n > 1 {
                    assert_eq!(encoding, ENC_FOR, "{n} x {v}");
                    assert_eq!(buf.len(), payload_at + 8 + 1 + n.div_ceil(8));
                } else {
                    assert_eq!(encoding, ENC_PLAIN);
                }
            }
        }
    }

    #[test]
    fn dictionary_codes_round_trip_at_the_width_the_dictionary_needs() {
        let mut rng = StdRng::seed_from_u64(7);
        for dict_len in [1usize, 2, 3, 4, 5, 255, 256, 257, 65_536, 70_000] {
            let dict: Arc<Vec<String>> = Arc::new((0..dict_len).map(|i| format!("{i}")).collect());
            for n in [0, 1, 2, 9, 64, 100, 3_000] {
                for nulls in [false, true] {
                    let codes: Vec<u32> =
                        (0..n).map(|_| rng.gen_range(0..dict_len as u32)).collect();
                    let valid: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
                    let validity = normalize_validity(nulls.then(|| Bitmap::from_bools(&valid)));
                    let col = Column::Dict(
                        DictColumn::try_new(Arc::clone(&dict), codes, validity).unwrap(),
                    );
                    let dict_bytes: usize = dict.iter().map(|s| 4 + s.len()).sum();
                    let encoding = check(&col, 4 + dict_bytes + 4 * n);
                    let width = bit_width(dict_len as u64 - 1);
                    let packs = 1 + packed_len(n, width).unwrap() < 4 * n;
                    let want = if packs { ENC_DICT_PACKED } else { ENC_DICT };
                    assert_eq!(encoding, want, "{n} codes into {dict_len}");
                }
            }
        }
    }

    /// A chunk header: `n` rows, no validity, then `tail`.
    fn chunk(n: u32, tail: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.write_u32(n);
        w.write_u8(0);
        w.write_raw(tail);
        w.into_bytes()
    }

    fn expect_corrupt(dt: DataType, buf: &[u8], says: &str) {
        match decode_column(dt, &mut ByteReader::new(buf)) {
            Err(FormatError::Corrupt(why)) => assert!(why.contains(says), "{dt}: {why}"),
            other => panic!("{dt}: expected Corrupt saying {says:?}, got {other:?}"),
        }
    }

    #[test]
    fn hostile_packed_chunks_are_corrupt() {
        let frame = |base: i64, width: u8, packed: &[u8]| {
            let mut w = ByteWriter::new();
            w.write_u8(ENC_FOR);
            w.write_i64(base);
            w.write_u8(width);
            w.write_raw(packed);
            w.into_bytes()
        };
        let codes = |dict: &[&str], width: u8, packed: &[u8]| {
            let mut w = ByteWriter::new();
            w.write_u8(ENC_DICT_PACKED);
            w.write_u32(dict.len() as u32);
            dict.iter().for_each(|d| w.write_str(d));
            w.write_u8(width);
            w.write_raw(packed);
            w.into_bytes()
        };
        // Width 0 would let any count pass the bytes check.
        for dt in [DataType::Int64, DataType::Timestamp, DataType::Date] {
            expect_corrupt(dt, &chunk(8, &frame(0, 0, &[])), "bit width 0");
        }
        expect_corrupt(
            DataType::Utf8,
            &chunk(8, &codes(&["a"], 0, &[])),
            "bit width 0",
        );
        // Wider than the type.
        expect_corrupt(
            DataType::Int64,
            &chunk(1, &frame(0, 65, &[0; 9])),
            "bit width 65",
        );
        expect_corrupt(
            DataType::Timestamp,
            &chunk(1, &frame(0, 255, &[0; 32])),
            "bit width 255",
        );
        expect_corrupt(
            DataType::Date,
            &chunk(1, &frame(0, 33, &[0; 5])),
            "bit width 33",
        );
        expect_corrupt(
            DataType::Utf8,
            &chunk(1, &codes(&["a"], 33, &[0; 5])),
            "bit width 33",
        );
        // A date frame whose base no date can hold.
        expect_corrupt(
            DataType::Date,
            &chunk(1, &frame(1 << 40, 1, &[0])),
            "out of range",
        );
        // A lying row count: u32::MAX rows at one bit each want 512 MiB.
        expect_corrupt(
            DataType::Int64,
            &chunk(u32::MAX, &frame(0, 1, &[0xff; 3])),
            "4294967295 x 1 bits",
        );
        expect_corrupt(
            DataType::Date,
            &chunk(u32::MAX, &frame(0, 32, &[])),
            "4294967295 x 32 bits",
        );
        expect_corrupt(
            DataType::Utf8,
            &chunk(u32::MAX, &codes(&["a", "b"], 1, &[0; 4])),
            "4294967295 x 1 bits",
        );
        // A truncated payload: 9 rows at 7 bits need 8 bytes.
        expect_corrupt(
            DataType::Int64,
            &chunk(9, &frame(0, 7, &[0; 7])),
            "9 x 7 bits",
        );
        assert!(decode_column(
            DataType::Int64,
            &mut ByteReader::new(&chunk(9, &frame(0, 7, &[0; 8])))
        )
        .is_ok());
        // A code past the dictionary: 3 at two bits into a dictionary of 3.
        expect_corrupt(
            DataType::Utf8,
            &chunk(1, &codes(&["a", "b", "c"], 2, &[0b11])),
            "bad dictionary chunk",
        );
        // n · width past any size never reaches an allocation.
        assert_eq!(packed_len(usize::MAX, 64), None);
        let mut r = ByteReader::new(&[0; 16]);
        match r.read_packed(&mut Vec::new(), usize::MAX, (64, 64), |v| v) {
            Err(FormatError::Corrupt(why)) => assert!(why.contains("x 64 bits"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A real chunk cut anywhere short is Corrupt, never a panic.
        let whole = encode(&Column::from_opt_i64(
            (0..100).map(|i| (i % 9 != 0).then_some(i * 3)).collect(),
        ));
        assert_eq!(encoding_of(&whole).0, ENC_FOR);
        for cut in 0..whole.len() {
            let short = decode_column(DataType::Int64, &mut ByteReader::new(&whole[..cut]));
            assert!(
                matches!(short, Err(FormatError::Corrupt(_))),
                "cut at {cut}: {short:?}"
            );
        }
    }
}
