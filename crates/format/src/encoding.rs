//! Column-chunk encodings.
//!
//! Each chunk is encoded as:
//!
//! ```text
//! row_count: u32
//! has_validity: u8           (1 = validity bitmap follows)
//! [validity bytes]           (row_count bits, packed)
//! encoding: u8               (0 = plain, 1 = dictionary, 2 = bit-packed)
//! payload
//! ```
//!
//! Strings pick dictionary encoding automatically when it saves space
//! (distinct values ≤ half the rows), mirroring Parquet's default behaviour.

use crate::error::{FormatError, Result};
use crate::io::{ByteReader, ByteWriter};
use lakehouse_columnar::column::normalize_validity;
use lakehouse_columnar::{Bitmap, Column, DataType, DictColumn};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

const ENC_PLAIN: u8 = 0;
const ENC_DICT: u8 = 1;
const ENC_BITPACK: u8 = 2;

/// Encode rows `rows` of a column (which must hold them) as one chunk —
/// byte for byte what encoding `col.slice(..)` of those rows gives, without
/// the copy. Plain fixed-width values go out in one bulk conversion.
pub fn encode_column(col: &Column, rows: Range<usize>, w: &mut ByteWriter) {
    let n = rows.len();
    w.write_u32(n as u32);
    // The chunk's validity is its own rows': absent when none is NULL.
    let validity = normalize_validity(col.validity().map(|b| b.slice_range(rows.start, n)));
    match validity {
        Some(bm) => {
            w.write_u8(1);
            w.write_bytes(bm.as_bytes());
        }
        None => w.write_u8(0),
    }
    match col {
        Column::Bool(values, _) => {
            w.write_u8(ENC_BITPACK);
            let bm = Bitmap::from_bools(&values[rows]);
            w.write_bytes(bm.as_bytes());
        }
        Column::Int64(values, _) | Column::Timestamp(values, _) => {
            w.write_u8(ENC_PLAIN);
            w.write_plain(&values[rows], i64::to_le_bytes);
        }
        Column::Float64(values, _) => {
            w.write_u8(ENC_PLAIN);
            w.write_plain(&values[rows], f64::to_le_bytes);
        }
        Column::Date(values, _) => {
            w.write_u8(ENC_PLAIN);
            w.write_plain(&values[rows], i32::to_le_bytes);
        }
        Column::Utf8(values, _) => {
            let values = &values[rows];
            let mut dict: Vec<&str> = Vec::new();
            let mut index: HashMap<&str, u32> = HashMap::new();
            let mut codes: Vec<u32> = Vec::with_capacity(values.len());
            for v in values {
                codes.push(*index.entry(v.as_str()).or_insert_with(|| {
                    dict.push(v.as_str());
                    (dict.len() - 1) as u32
                }));
            }
            if dict.len() * 2 <= values.len().max(1) {
                w.write_u8(ENC_DICT);
                w.write_u32(dict.len() as u32);
                for d in &dict {
                    w.write_str(d);
                }
                w.write_plain(&codes, u32::to_le_bytes);
            } else {
                w.write_u8(ENC_PLAIN);
                for v in values {
                    w.write_str(v);
                }
            }
        }
        // Already dictionary-encoded in memory: write the dictionary and
        // codes straight through, no re-encode pass.
        Column::Dict(d) => {
            w.write_u8(ENC_DICT);
            w.write_u32(d.dict().len() as u32);
            for s in d.dict().iter() {
                w.write_str(s);
            }
            w.write_plain(&d.codes()[rows], u32::to_le_bytes);
        }
    }
}

/// Decode one column chunk of the given type.
///
/// Every count the chunk declares (rows, dictionary entries) is checked
/// against the bytes that are left — count × the least a value takes —
/// before anything is sized by it: a hostile count is [`FormatError::Corrupt`]
/// and a decode never allocates more than a small multiple of its chunk.
pub fn decode_column(dt: DataType, r: &mut ByteReader<'_>) -> Result<Column> {
    let n = r.read_u32()? as usize;
    // Normalized on the way in: files written before the "validity = Some
    // iff nulls exist" invariant may carry an all-set bitmap.
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
    match (dt, encoding) {
        (DataType::Bool, ENC_BITPACK) => {
            let bytes = r.read_bytes()?.to_vec();
            let bm = Bitmap::from_bytes(bytes, n)
                .map_err(|e| FormatError::Corrupt(format!("bad bool chunk: {e}")))?;
            Ok(Column::Bool(bm.iter().collect(), validity))
        }
        (DataType::Int64, ENC_PLAIN) => Ok(Column::Int64(
            r.read_plain(n, i64::from_le_bytes)?,
            validity,
        )),
        (DataType::Timestamp, ENC_PLAIN) => {
            let values = r.read_plain(n, i64::from_le_bytes)?;
            Ok(Column::Timestamp(values, validity))
        }
        (DataType::Float64, ENC_PLAIN) => {
            let values = r.read_plain(n, f64::from_le_bytes)?;
            Ok(Column::Float64(values, validity))
        }
        (DataType::Date, ENC_PLAIN) => {
            Ok(Column::Date(r.read_plain(n, i32::from_le_bytes)?, validity))
        }
        (DataType::Utf8, ENC_PLAIN) => Ok(Column::Utf8(read_strs(r, n)?, validity)),
        (DataType::Utf8, ENC_DICT) => {
            // Late materialization: hand the dictionary + codes up as-is.
            // Filters compare against the dictionary once and scan only the
            // u32 codes; decode to plain strings happens at the executor
            // root, only for rows that survive.
            let dict_len = r.read_u32()? as usize;
            let dict = read_strs(r, dict_len)?;
            let codes = r.read_plain(n, u32::from_le_bytes)?;
            let d = DictColumn::try_new(Arc::new(dict), codes, validity)
                .map_err(|e| FormatError::Corrupt(format!("bad dictionary chunk: {e}")))?;
            Ok(Column::Dict(d))
        }
        (dt, enc) => Err(FormatError::Corrupt(format!(
            "unsupported encoding {enc} for type {dt}"
        ))),
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
    use lakehouse_columnar::Value;

    fn round_trip(col: Column) -> Column {
        let mut w = ByteWriter::new();
        encode_column(&col, 0..col.len(), &mut w);
        let buf = w.into_bytes();
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
        let mut w = ByteWriter::new();
        encode_column(&c, 0..c.len(), &mut w);
        let buf = w.into_bytes();
        // encoding byte is right after row_count(4) + has_validity(1)
        assert_eq!(buf[5], ENC_DICT);
        assert_eq!(
            decode_column(DataType::Utf8, &mut ByteReader::new(&buf)).unwrap(),
            c
        );
    }

    #[test]
    fn string_high_cardinality_uses_plain() {
        let values: Vec<String> = (0..10).map(|i| format!("unique-{i}")).collect();
        let c = Column::from_str_vec(values);
        let mut w = ByteWriter::new();
        encode_column(&c, 0..c.len(), &mut w);
        let buf = w.into_bytes();
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
        let mut w = ByteWriter::new();
        encode_column(&d, 0..d.len(), &mut w);
        let buf = w.into_bytes();
        assert_eq!(buf[5], ENC_DICT);
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
}
