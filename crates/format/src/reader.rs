//! Data-file footer: the trailer, and the schema and per-row-group metadata
//! (chunk places, checksums, zone-map stats) every read starts from. The one
//! reader of chunks is [`crate::RangedReader`].

use crate::error::{FormatError, Result};
use crate::io::ByteReader;
use crate::stats::ColumnStats;
use crate::writer::datatype_from_tag;
use crate::{FORMAT_VERSION, MAGIC};
use lakehouse_columnar::{Field, Schema};

/// Metadata for one row group: row count plus per-column chunk location and
/// statistics.
#[derive(Debug, Clone)]
pub struct RowGroupMeta {
    pub row_count: u64,
    pub chunk_offsets: Vec<(u64, u64)>,
    /// CRC32C of each column chunk's encoded bytes, parallel to
    /// `chunk_offsets`. Verified before decoding.
    pub chunk_crcs: Vec<u32>,
    pub stats: Vec<ColumnStats>,
}

/// Parse the 12-byte trailer of a `file_len`-byte file (`footer_crc`,
/// `footer_len`, magic): where the footer body starts, and its checksum.
pub(crate) fn parse_trailer(trailer: &[u8], file_len: usize) -> Result<(usize, u32)> {
    let mut r = ByteReader::new(trailer);
    let footer_crc = r.read_u32()?;
    let footer_len = r.read_u32()? as usize;
    if r.read_raw(4)? != MAGIC {
        return Err(FormatError::Corrupt("bad trailer magic".into()));
    }
    if footer_len + 16 > file_len {
        return Err(FormatError::Corrupt("footer length out of range".into()));
    }
    Ok((file_len - 12 - footer_len, footer_crc))
}

/// The footer body and trailer of a complete file: the bytes that name
/// every chunk's place, length and checksum, so a digest of them stands for
/// the whole file at the cost of reading only its tail.
pub fn footer_bytes(file: &[u8]) -> Result<&[u8]> {
    let Some(trailer) = file.len().checked_sub(12) else {
        return Err(FormatError::Corrupt("file too small".into()));
    };
    let (footer_start, _) = parse_trailer(&file[trailer..], file.len())?;
    Ok(&file[footer_start..])
}

/// The smallest footer encoding of a schema field: an empty name's `u32`
/// length, the type tag and the nullable flag.
const MIN_FIELD_BYTES: usize = 4 + 1 + 1;
/// The smallest footer encoding of one column chunk's metadata: offset,
/// length, CRC and stats of two null values (tags) and two counts. A row
/// group adds its `u64` row count.
const MIN_CHUNK_META_BYTES: usize = 8 + 8 + 4 + (1 + 1 + 8 + 8);

/// Parse the footer body (between the data section and the trailing
/// `footer_len + magic`): version, schema, and row-group metadata.
pub(crate) fn parse_footer(footer: &[u8]) -> Result<(Schema, Vec<RowGroupMeta>)> {
    let mut r = ByteReader::new(footer);
    let version = r.read_u32()?;
    if version != FORMAT_VERSION {
        return Err(FormatError::UnsupportedVersion(version));
    }
    // Declared counts come from the bytes: each is checked against what is
    // left, at the smallest encoding of one item, before it sizes anything.
    let field_count = r.read_u32()? as usize;
    r.ensure_room(field_count, MIN_FIELD_BYTES)?;
    let mut fields = Vec::with_capacity(field_count);
    for _ in 0..field_count {
        let name = r.read_str()?;
        let dt = datatype_from_tag(r.read_u8()?)?;
        let nullable = r.read_u8()? != 0;
        fields.push(Field::new(name, dt, nullable));
    }
    let schema = Schema::new(fields);
    let group_count = r.read_u32()? as usize;
    r.ensure_room(group_count, 8 + field_count * MIN_CHUNK_META_BYTES)?;
    let mut groups = Vec::with_capacity(group_count);
    for _ in 0..group_count {
        let row_count = r.read_u64()?;
        let mut chunk_offsets = Vec::with_capacity(field_count);
        let mut chunk_crcs = Vec::with_capacity(field_count);
        let mut stats = Vec::with_capacity(field_count);
        for _ in 0..field_count {
            let offset = r.read_u64()?;
            let length = r.read_u64()?;
            chunk_offsets.push((offset, length));
            chunk_crcs.push(r.read_u32()?);
            stats.push(ColumnStats::decode(&mut r)?);
        }
        groups.push(RowGroupMeta {
            row_count,
            chunk_offsets,
            chunk_crcs,
            stats,
        });
    }
    Ok((schema, groups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{FileWriter, WriterOptions};
    use crate::RangedReader;
    use bytes::Bytes;
    use lakehouse_checksum::crc32c;
    use lakehouse_columnar::kernels::CmpOp;
    use lakehouse_columnar::{Column, DataType, RecordBatch, Value};

    /// Every byte of a file read by `RangedReader::parse` is resident.
    fn unreachable_fetch(start: usize, end: usize) -> Result<Bytes> {
        Err(FormatError::InvalidArgument(format!(
            "fetch [{start}, {end})"
        )))
    }

    fn sample_file() -> Bytes {
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("name", DataType::Utf8, true),
                Field::new("score", DataType::Float64, true),
            ]),
            vec![
                Column::from_i64((0..100).collect()),
                Column::from_str_vec((0..100).map(|i| format!("u{}", i % 5)).collect()),
                Column::from_opt_f64((0..100).map(|i| (i % 7 != 0).then_some(i as f64)).collect()),
            ],
        )
        .unwrap();
        FileWriter::write_file(&batch, WriterOptions { row_group_rows: 25 }).unwrap()
    }

    /// The one-column, three-row file of `column`, with its chunk's row
    /// count set to u32::MAX and the checksums — the chunk's in the footer,
    /// the footer's in the trailer — recomputed to match: only the
    /// decoder's own checks stand.
    fn with_a_lying_row_count(column: Column) -> RangedReader {
        let name = "x";
        let batch = RecordBatch::try_new(
            Schema::new(vec![Field::new(name, column.data_type(), false)]),
            vec![column],
        )
        .unwrap();
        let mut file = FileWriter::write_file(&batch, WriterOptions::default())
            .unwrap()
            .to_vec();
        let (footer_start, _) = parse_trailer(&file[file.len() - 12..], file.len()).unwrap();
        let reader = RangedReader::parse(Bytes::from(file.clone())).unwrap();
        let (offset, length) = reader.row_group_meta(0).chunk_offsets[0];
        let chunk = offset as usize..(offset + length) as usize;
        file[chunk.start..chunk.start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // Footer: version, field count, the field, group count, the group's
        // row count, the chunk's offset and length — then its checksum.
        let crc_at = footer_start + 4 + 4 + (4 + name.len() + 2) + 4 + 8 + 8 + 8;
        let chunk_crc = crc32c(&file[chunk]);
        file[crc_at..crc_at + 4].copy_from_slice(&chunk_crc.to_le_bytes());
        let trailer = file.len() - 12;
        let footer_crc = crc32c(&file[footer_start..trailer]);
        file[trailer..trailer + 4].copy_from_slice(&footer_crc.to_le_bytes());
        RangedReader::parse(Bytes::from(file)).unwrap()
    }

    /// A plain chunk (floats stay plain) is held to eight bytes a row.
    #[test]
    fn a_checksummed_chunk_with_a_lying_row_count_is_corrupt() {
        let reader = with_a_lying_row_count(Column::from_f64(vec![1.0, 2.0, 3.0]));
        match reader.read_all(None) {
            Err(FormatError::Corrupt(why)) => assert!(why.contains("4294967295 x 8"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// A packed chunk (1, 2, 3 is offsets 0–2 at two bits) is held to its
    /// width in bits a row.
    #[test]
    fn a_checksummed_packed_chunk_with_a_lying_row_count_is_corrupt() {
        let reader = with_a_lying_row_count(Column::from_i64(vec![1, 2, 3]));
        match reader.read_all(None) {
            Err(FormatError::Corrupt(why)) => {
                assert!(why.contains("4294967295 x 2 bits"), "{why}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// A footer that declares u32::MAX fields or row groups, with its
    /// checksum recomputed so only the count check stands, is `Corrupt` from
    /// a whole file and from one opened by ranges — before the count sizes
    /// any allocation.
    #[test]
    fn a_footer_count_beyond_its_bytes_is_corrupt() {
        let name = "x";
        let batch = RecordBatch::try_new(
            Schema::new(vec![Field::new(name, DataType::Int64, false)]),
            vec![Column::from_i64(vec![1, 2, 3])],
        )
        .unwrap();
        let clean = FileWriter::write_file(&batch, WriterOptions::default()).unwrap();
        let (footer_start, _) = parse_trailer(&clean[clean.len() - 12..], clean.len()).unwrap();
        // Footer: version, field count, the field, group count.
        let field_count_at = footer_start + 4;
        let group_count_at = field_count_at + 4 + (4 + name.len() + 2);
        for at in [field_count_at, group_count_at] {
            let mut file = clean.to_vec();
            file[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let trailer = file.len() - 12;
            let footer_crc = crc32c(&file[footer_start..trailer]);
            file[trailer..trailer + 4].copy_from_slice(&footer_crc.to_le_bytes());
            let file = Bytes::from(file);
            let fetch = |start: usize, end: usize| -> Result<Bytes> { Ok(file.slice(start..end)) };
            let parsed = [
                RangedReader::parse(file.clone()).map(|_| ()),
                RangedReader::open(file.len(), &fetch).map(|_| ()),
            ];
            for result in parsed {
                match result {
                    Err(FormatError::Corrupt(why)) => {
                        assert!(why.contains("4294967295 x"), "{why}")
                    }
                    other => panic!("count at footer byte {at}: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn full_round_trip() {
        let reader = RangedReader::parse(sample_file()).unwrap();
        assert_eq!(reader.num_rows(), 100);
        assert_eq!(reader.num_row_groups(), 4);
        let all = reader.read_all(None).unwrap();
        assert_eq!(all.num_rows(), 100);
        assert_eq!(all.row(0).unwrap()[1], Value::Utf8("u0".into()));
        assert_eq!(all.row(7).unwrap()[2], Value::Null);
    }

    #[test]
    fn projection_reads_subset() {
        let reader = RangedReader::parse(sample_file()).unwrap();
        let b = reader.read_all(Some(&[2, 0])).unwrap();
        assert_eq!(b.schema().names(), vec!["score", "id"]);
        assert_eq!(b.num_rows(), 100);
    }

    #[test]
    fn pruning_selects_matching_groups() {
        let reader = RangedReader::parse(sample_file()).unwrap();
        // id ranges: [0,24],[25,49],[50,74],[75,99]
        let groups = reader.prune("id", CmpOp::Gt, &Value::Int64(60)).unwrap();
        assert_eq!(groups, vec![2, 3]);
        let none = reader.prune("id", CmpOp::Gt, &Value::Int64(99)).unwrap();
        assert!(none.is_empty());
        let eq = reader.prune("id", CmpOp::Eq, &Value::Int64(30)).unwrap();
        assert_eq!(eq, vec![1]);
    }

    #[test]
    fn read_pruned_groups_only() {
        let reader = RangedReader::parse(sample_file()).unwrap();
        let groups = reader.prune("id", CmpOp::GtEq, &Value::Int64(75)).unwrap();
        let b = reader
            .read_groups(&groups, None, &unreachable_fetch)
            .unwrap();
        assert_eq!(b.num_rows(), 25);
        assert_eq!(b.row(0).unwrap()[0], Value::Int64(75));
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut bytes = sample_file().to_vec();
        bytes[0] = b'X';
        assert!(RangedReader::parse(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = sample_file();
        let truncated = bytes.slice(0..bytes.len() / 2);
        assert!(RangedReader::parse(truncated).is_err());
    }

    #[test]
    fn corrupt_footer_len_rejected() {
        let mut bytes = sample_file().to_vec();
        let n = bytes.len();
        bytes[n - 8..n - 4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(RangedReader::parse(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn corrupt_data_chunk_detected_by_checksum() {
        let clean = sample_file();
        let reader = RangedReader::parse(clean.clone()).unwrap();
        // Flip one bit in the first chunk's encoded bytes (inside the data
        // region, so magic/footer stay intact).
        let (offset, _) = reader.row_group_meta(0).chunk_offsets[0];
        let mut bytes = clean.to_vec();
        bytes[offset as usize + 1] ^= 0x01;
        let corrupted = RangedReader::parse(Bytes::from(bytes)).unwrap();
        let read_group = |g: usize| corrupted.read_groups(&[g], None, &unreachable_fetch);
        let err = read_group(0).unwrap_err();
        assert!(
            matches!(err, FormatError::Corrupted(_)),
            "expected Corrupted, got {err:?}"
        );
        assert!(err.is_corruption());
        // Untouched groups still read fine.
        assert!(read_group(1).is_ok());
    }

    #[test]
    fn corrupt_footer_detected_by_checksum() {
        let clean = sample_file();
        let n = clean.len();
        // Flip a byte inside the footer body (between data and trailer) that
        // keeps the structure parseable: the CRC must catch it regardless.
        let mut bytes = clean.to_vec();
        bytes[n - 20] ^= 0x10;
        let err = RangedReader::parse(Bytes::from(bytes)).unwrap_err();
        assert!(err.is_corruption(), "expected corruption, got {err:?}");
    }

    #[test]
    fn bad_projection_index_errors() {
        let reader = RangedReader::parse(sample_file()).unwrap();
        assert!(reader.read_all(Some(&[99])).is_err());
    }

    #[test]
    fn prune_unknown_column_errors() {
        let reader = RangedReader::parse(sample_file()).unwrap();
        assert!(reader.prune("nope", CmpOp::Eq, &Value::Int64(1)).is_err());
    }

    #[test]
    fn read_empty_group_list_gives_empty_batch() {
        let reader = RangedReader::parse(sample_file()).unwrap();
        let b = reader
            .read_groups(&[], Some(&[0]), &unreachable_fetch)
            .unwrap();
        assert_eq!(b.num_rows(), 0);
        assert_eq!(b.schema().names(), vec!["id"]);
    }
}
