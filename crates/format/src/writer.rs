//! Data-file writer: buffers record batches into row groups and emits the
//! final immutable file bytes.

use crate::encoding::encode_chunk;
use crate::error::{FormatError, Result};
use crate::io::ByteWriter;
use crate::ranged::{RawChunk, RawGroup};
use crate::stats::ColumnStats;
use crate::{FORMAT_VERSION, MAGIC};
use bytes::Bytes;
use lakehouse_checksum::crc32c;
use lakehouse_columnar::{Column, DataType, RecordBatch, Schema};

/// Tuning knobs for the writer.
#[derive(Debug, Clone)]
pub struct WriterOptions {
    /// Maximum rows per row group. Smaller groups prune better; larger
    /// groups encode/decode faster. Default 8192.
    pub row_group_rows: usize,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions {
            row_group_rows: 8192,
        }
    }
}

pub(crate) fn datatype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int64 => 1,
        DataType::Float64 => 2,
        DataType::Utf8 => 3,
        DataType::Timestamp => 4,
        DataType::Date => 5,
    }
}

pub(crate) fn datatype_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int64,
        2 => DataType::Float64,
        3 => DataType::Utf8,
        4 => DataType::Timestamp,
        5 => DataType::Date,
        t => return Err(FormatError::Corrupt(format!("unknown datatype tag {t}"))),
    })
}

struct ChunkMeta {
    offset: u64,
    length: u64,
    /// CRC32C of the encoded chunk bytes — verified by readers before decode.
    crc: u32,
    stats: ColumnStats,
}

struct RowGroup {
    row_count: u64,
    chunks: Vec<ChunkMeta>,
}

/// Streaming writer: feed batches with [`FileWriter::write_batch`], then call
/// [`FileWriter::finish`] for the complete file bytes.
///
/// Encoded rows are cut into row groups of exactly `row_group_rows` rows of
/// the input stream, the last one short. Until a group is full its rows wait
/// as slices of the batches they came in, which share those batches' values;
/// a full group is encoded from its pieces in order — statistics merged,
/// values packed piece after piece — so no row is concatenated (plain
/// strings and dictionaries aside).
///
/// A batch that is exactly the decode of chunks of other files (its
/// [`lakehouse_columnar::Origin`], from
/// [`crate::RangedReader::decode_groups_copyable`]) is not encoded: when
/// nothing is pending its groups are appended as those chunks' bytes, each
/// group as long as it was in its file. `row_group_rows` then bounds a group
/// rather than fixing it. A whole row group of another file can also be
/// appended where a cut would fall ([`FileWriter::copy_group`]).
pub struct FileWriter {
    schema: Schema,
    options: WriterOptions,
    body: ByteWriter,
    groups: Vec<RowGroup>,
    pending: Vec<RecordBatch>,
    pending_rows: usize,
    copied: Copied,
}

/// What a writer appended as copied bytes rather than encoded: row groups,
/// their rows and their chunk bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Copied {
    pub groups: usize,
    pub rows: u64,
    pub bytes: u64,
}

impl FileWriter {
    pub fn new(schema: Schema, options: WriterOptions) -> Self {
        let mut body = ByteWriter::new();
        body.write_raw(MAGIC);
        FileWriter {
            schema,
            options,
            body,
            groups: Vec::new(),
            pending: Vec::new(),
            pending_rows: 0,
            copied: Copied::default(),
        }
    }

    /// Rows written so far, buffered ones included.
    pub fn num_rows(&self) -> u64 {
        let grouped: u64 = self.groups.iter().map(|g| g.row_count).sum();
        grouped + self.pending_rows as u64
    }

    /// What has been appended as copied bytes so far.
    pub fn copied(&self) -> Copied {
        self.copied
    }

    /// Row groups encoded so far, the one buffered rows will make at
    /// [`FileWriter::finish`] included.
    pub fn groups_encoded(&self) -> usize {
        self.groups.len() - self.copied.groups + usize::from(self.pending_rows > 0)
    }

    /// The longest row group this writer makes.
    fn cut(&self) -> u64 {
        self.options.row_group_rows.max(1) as u64
    }

    /// Whether [`FileWriter::copy_group`] takes a row group of `rows` rows
    /// of a file of `schema` now: only where `write_batch` would cut exactly
    /// that group from its rows — nothing pending, a full group — and only
    /// from a file of this writer's schema.
    pub fn copies(&self, schema: &Schema, rows: u64) -> bool {
        self.pending_rows == 0 && rows == self.cut() && *schema == self.schema
    }

    /// Append a whole row group of another file as it is (a compaction's
    /// copy) where [`FileWriter::copies`] takes it: any other group is an
    /// `InvalidArgument`.
    pub fn copy_group(&mut self, group: &RawGroup) -> Result<()> {
        let whole = (group.chunks.iter().map(|c| c.column)).eq(0..self.schema.len());
        if !whole || !self.copies(&group.schema, group.row_count) {
            return Err(FormatError::InvalidArgument(format!(
                "a {}-row group of {} chunks of {} cannot be copied here",
                group.row_count,
                group.chunks.len(),
                group.schema
            )));
        }
        self.append(group, &group.chunks.iter().collect::<Vec<_>>())
    }

    /// Append a row group of `group`'s rows as `chunks` of it, taken as they
    /// are at new offsets with their checksums and statistics: one per
    /// column of this writer's schema, in its order and of its types, and
    /// only while nothing is pending and the group is no longer than a cut.
    fn append(&mut self, group: &RawGroup, chunks: &[&RawChunk]) -> Result<()> {
        let rows = group.row_count;
        let fields = self.schema.fields();
        let typed = (chunks.len() == fields.len())
            && (chunks.iter().zip(fields)).all(|(c, f)| {
                (group.schema.fields().get(c.column))
                    .is_some_and(|s| s.data_type() == f.data_type())
            });
        if !typed || self.pending_rows > 0 || rows > self.cut() {
            return Err(FormatError::InvalidArgument(format!(
                "a {rows}-row group of {} chunks of {} cannot be appended to a file of {} \
                 behind {} pending rows at a {}-row cut",
                chunks.len(),
                group.schema,
                self.schema,
                self.pending_rows,
                self.cut()
            )));
        }
        let start = self.body.len();
        let mut metas = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            let offset = self.body.len() as u64;
            self.body.write_raw(&chunk.bytes);
            metas.push(ChunkMeta {
                offset,
                length: chunk.bytes.len() as u64,
                crc: chunk.crc,
                stats: chunk.stats.clone(),
            });
        }
        self.copied.groups += 1;
        self.copied.rows += rows;
        self.copied.bytes += (self.body.len() - start) as u64;
        self.groups.push(RowGroup {
            row_count: rows,
            chunks: metas,
        });
        Ok(())
    }

    /// The groups `batch` is exactly the decode of, with the chunk of each
    /// group each of its columns is, when they are appended as they are:
    /// nothing pending, every column decoded from a chunk, no group longer
    /// than a cut. Chunks that count other rows than the batch holds are an
    /// error: an operator that changes rows keeps no origin.
    fn copyable<'b>(&self, batch: &'b RecordBatch) -> Result<Option<(&'b [RawGroup], Vec<usize>)>> {
        let Some(origin) = batch.origin() else {
            return Ok(None);
        };
        let Some(groups) = origin.source::<Vec<RawGroup>>() else {
            return Ok(None);
        };
        let rows: u64 = groups.iter().map(|g| g.row_count).sum();
        if rows != batch.num_rows() as u64 {
            return Err(FormatError::InvalidArgument(format!(
                "a batch of {} rows carries the chunks of {rows}",
                batch.num_rows()
            )));
        }
        let columns = (0..batch.num_columns()).map(|i| origin.column(i)).collect();
        let Some(columns) = columns else {
            return Ok(None);
        };
        let fits = groups.iter().all(|g| g.row_count <= self.cut());
        Ok((self.pending_rows == 0 && fits).then_some((groups.as_slice(), columns)))
    }

    /// Append a batch; schema must match exactly. A batch whose origin
    /// this writer takes — nothing pending, every column decoded from a
    /// chunk, no group longer than a cut — is appended as its chunks, group
    /// by group; any other is cut into groups and encoded.
    pub fn write_batch(&mut self, batch: &RecordBatch) -> Result<()> {
        if batch.schema() != &self.schema {
            return Err(FormatError::InvalidArgument(format!(
                "batch schema {} does not match file schema {}",
                batch.schema(),
                self.schema
            )));
        }
        if let Some((groups, columns)) = self.copyable(batch)? {
            for group in groups {
                let chunks = columns.iter().map(|&c| group.chunks.get(c));
                let chunks = chunks.collect::<Option<Vec<&RawChunk>>>().ok_or_else(|| {
                    FormatError::InvalidArgument("an origin names a chunk it lacks".into())
                })?;
                self.append(group, &chunks)?;
            }
            return Ok(());
        }
        let group_rows = self.options.row_group_rows.max(1);
        // One allocation for what this batch adds: at most nine bytes a
        // cell (plain strings aside), and one for its share of the footer.
        self.body
            .reserve(batch.num_rows() * batch.num_columns() * 10);
        let mut offset = 0;
        while offset < batch.num_rows() {
            let take = (group_rows - self.pending_rows).min(batch.num_rows() - offset);
            self.pending.push(batch.slice(offset, take)?);
            self.pending_rows += take;
            if self.pending_rows == group_rows {
                self.flush_pending()?;
            }
            offset += take;
        }
        Ok(())
    }

    /// Write the buffered rows as one row group: each column's chunk,
    /// checksum and statistics from its pieces where they lie.
    fn flush_pending(&mut self) -> Result<()> {
        let pieces = std::mem::take(&mut self.pending);
        self.pending_rows = 0;
        let Some(first) = pieces.first() else {
            return Ok(());
        };
        let mut chunks = Vec::with_capacity(first.num_columns());
        for c in 0..first.num_columns() {
            let columns: Vec<&Column> = pieces.iter().map(|b| b.column(c)).collect();
            let mut stats = ColumnStats::from_column(columns[0]);
            columns[1..]
                .iter()
                .for_each(|col| stats.merge(&ColumnStats::from_column(col)));
            let offset = self.body.len() as u64;
            encode_chunk(&columns, &stats, &mut self.body)?;
            let encoded = &self.body.as_slice()[offset as usize..];
            chunks.push(ChunkMeta {
                offset,
                length: encoded.len() as u64,
                crc: crc32c(encoded),
                stats,
            });
        }
        self.groups.push(RowGroup {
            row_count: pieces.iter().map(|b| b.num_rows() as u64).sum(),
            chunks,
        });
        Ok(())
    }

    /// Flush remaining rows, write the footer, and return the file bytes
    /// with the file-level stats of each column (every row group's stats
    /// merged; empty for a file without row groups).
    pub fn finish(mut self) -> Result<(Bytes, Vec<ColumnStats>)> {
        self.flush_pending()?;
        let footer_start = self.body.len();
        // Footer: version, schema, row groups.
        self.body.write_u32(FORMAT_VERSION);
        self.body.write_u32(self.schema.len() as u32);
        for f in self.schema.fields() {
            self.body.write_str(f.name());
            self.body.write_u8(datatype_tag(f.data_type()));
            self.body.write_u8(f.nullable() as u8);
        }
        self.body.write_u32(self.groups.len() as u32);
        let mut file_stats: Vec<ColumnStats> = Vec::new();
        for g in &self.groups {
            self.body.write_u64(g.row_count);
            for (i, c) in g.chunks.iter().enumerate() {
                self.body.write_u64(c.offset);
                self.body.write_u64(c.length);
                self.body.write_u32(c.crc);
                c.stats.encode(&mut self.body);
                match file_stats.get_mut(i) {
                    Some(merged) => merged.merge(&c.stats),
                    None => file_stats.push(c.stats.clone()),
                }
            }
        }
        let footer_len = (self.body.len() - footer_start) as u32;
        // Trailer: footer CRC, footer length, magic — a reader verifies the
        // footer before trusting any offset in it.
        let footer_crc = crc32c(&self.body.as_slice()[footer_start..]);
        self.body.write_u32(footer_crc);
        self.body.write_u32(footer_len);
        self.body.write_raw(MAGIC);
        Ok((Bytes::from(self.body.into_bytes()), file_stats))
    }

    /// Convenience: encode a single batch into a complete file.
    pub fn write_file(batch: &RecordBatch, options: WriterOptions) -> Result<Bytes> {
        let mut w = FileWriter::new(batch.schema().clone(), options);
        w.write_batch(batch)?;
        Ok(w.finish()?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_columnar::{Column, Field};

    fn batch(n: i64) -> RecordBatch {
        RecordBatch::try_new(
            Schema::new(vec![Field::new("x", DataType::Int64, false)]),
            vec![Column::from_i64((0..n).collect())],
        )
        .unwrap()
    }

    #[test]
    fn file_has_magic_and_trailer() {
        let bytes = FileWriter::write_file(&batch(10), WriterOptions::default()).unwrap();
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(&bytes[bytes.len() - 4..], MAGIC);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut w = FileWriter::new(
            Schema::new(vec![Field::new("y", DataType::Utf8, true)]),
            WriterOptions::default(),
        );
        assert!(w.write_batch(&batch(1)).is_err());
    }

    #[test]
    fn row_groups_split_at_threshold() {
        let bytes =
            FileWriter::write_file(&batch(25), WriterOptions { row_group_rows: 10 }).unwrap();
        let reader = crate::RangedReader::parse(bytes).unwrap();
        assert_eq!(reader.num_row_groups(), 3);
        assert_eq!(reader.num_rows(), 25);
        assert_eq!(reader.row_group_meta(0).row_count, 10);
        assert_eq!(reader.row_group_meta(2).row_count, 5);
    }

    #[test]
    fn multiple_small_batches_coalesce() {
        let mut w = FileWriter::new(
            Schema::new(vec![Field::new("x", DataType::Int64, false)]),
            WriterOptions { row_group_rows: 10 },
        );
        for _ in 0..5 {
            w.write_batch(&batch(4)).unwrap();
        }
        let reader = crate::RangedReader::parse(w.finish().unwrap().0).unwrap();
        assert_eq!(reader.num_rows(), 20);
        assert_eq!(reader.num_row_groups(), 2);
    }

    #[test]
    fn empty_file_round_trips() {
        let w = FileWriter::new(
            Schema::new(vec![Field::new("x", DataType::Int64, false)]),
            WriterOptions::default(),
        );
        let reader = crate::RangedReader::parse(w.finish().unwrap().0).unwrap();
        assert_eq!(reader.num_rows(), 0);
        assert_eq!(reader.num_row_groups(), 0);
    }

    /// 500 000 rows over every column type: sequential ids, a nullable
    /// float, a nullable low-cardinality string (dictionary-encoded on
    /// disk), a date and a bool, from a fixed LCG.
    fn golden_input(n: usize) -> RecordBatch {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let zones = ["midtown", "harlem", "soho", "astoria", "jfk"];
        let (mut fare, mut zone, mut day, mut flag) = (vec![], vec![], vec![], vec![]);
        for _ in 0..n {
            let r = next();
            fare.push((r % 11 != 0).then_some((r % 10_000) as f64 / 100.0));
            zone.push((r % 7 != 0).then_some(zones[(r % 5) as usize]));
            day.push(17_000 + (r % 365) as i32);
            flag.push(r % 3 == 0);
        }
        RecordBatch::try_new(
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("fare", DataType::Float64, true),
                Field::new("zone", DataType::Utf8, true),
                Field::new("day", DataType::Date, false),
                Field::new("flag", DataType::Bool, false),
            ]),
            vec![
                Column::from_i64((0..n as i64).collect()),
                Column::from_opt_f64(fare),
                Column::from_opt_str(zone),
                Column::from_date(day),
                Column::from_bool(flag),
            ],
        )
        .unwrap()
    }

    /// Write `input` cut into pieces of the given sizes (cycled).
    fn write_in_pieces(input: &RecordBatch, sizes: &[usize]) -> Bytes {
        let mut w = FileWriter::new(input.schema().clone(), WriterOptions::default());
        let (mut offset, mut i) = (0, 0);
        while offset < input.num_rows() {
            let len = sizes[i % sizes.len()].min(input.num_rows() - offset);
            w.write_batch(&input.slice(offset, len).unwrap()).unwrap();
            offset += len;
            i += 1;
        }
        w.finish().unwrap().0
    }

    #[test]
    fn file_bytes_do_not_depend_on_batching_and_match_the_parent() {
        let n = 500_000;
        let input = golden_input(n);
        let whole = write_in_pieces(&input, &[n]);
        // Length and CRC32C of this input's file with integer chunks and
        // dictionary codes bit-packed (12 209 647 bytes while they were
        // plain): the format moves only on purpose.
        assert_eq!((whole.len(), crc32c(&whole)), GOLDEN);
        // 1 000-row batches, and ragged sizes that straddle, touch and
        // overshoot the 8 192-row group boundary.
        assert!(write_in_pieces(&input, &[1_000]) == whole);
        assert!(write_in_pieces(&input, &[8_191, 1, 8_193, 3, 20_000, 8_192, 0, 77]) == whole);
        let reader = crate::RangedReader::parse(whole).unwrap();
        assert_eq!(reader.num_row_groups(), n.div_ceil(8_192));
        for g in 0..reader.num_row_groups() {
            let want = if g + 1 < reader.num_row_groups() {
                8_192
            } else {
                n % 8_192
            };
            assert_eq!(reader.row_group_meta(g).row_count, want as u64);
        }
    }
    const GOLDEN: (usize, u32) = (5_773_181, 1_379_599_894);

    #[test]
    fn batches_straddling_groups_write_the_bytes_of_their_concatenation() {
        // Three batches of 16 385 rows at 8 192-row groups: every batch ends
        // one row into a group that the next batch fills.
        let input = golden_input(3 * 16_385);
        let options = WriterOptions {
            row_group_rows: 8_192,
        };
        let whole = FileWriter::write_file(&input, options.clone()).unwrap();
        let mut w = FileWriter::new(input.schema().clone(), options);
        for b in 0..3 {
            let batch = input.slice(b * 16_385, 16_385).unwrap();
            w.write_batch(&batch).unwrap();
            // The group left open holds the batch's last b + 1 rows where
            // they lie.
            let held = w.pending.last().unwrap().column(0).as_i64().unwrap().0;
            let last = batch.column(0).as_i64().unwrap().0;
            assert_eq!(held.as_ptr(), last[16_384 - b..].as_ptr());
        }
        assert_eq!(w.pending_rows, 3);
        assert!(w.finish().unwrap().0 == whole);
    }

    #[test]
    fn finish_returns_the_stats_a_reader_reads_back() {
        let input = golden_input(20_000);
        let mut w = FileWriter::new(input.schema().clone(), WriterOptions::default());
        w.write_batch(&input).unwrap();
        let (bytes, stats) = w.finish().unwrap();
        let reader = crate::RangedReader::parse(bytes).unwrap();
        assert_eq!(reader.num_row_groups(), 3);
        assert_eq!(stats.len(), input.num_columns());
        for (i, s) in stats.iter().enumerate() {
            let mut merged = reader.row_group_meta(0).stats[i].clone();
            merged.merge(&reader.row_group_meta(1).stats[i]);
            merged.merge(&reader.row_group_meta(2).stats[i]);
            assert_eq!(*s, merged);
        }
        assert_eq!(stats[0].min, lakehouse_columnar::Value::Int64(0));
        assert_eq!(stats[0].max, lakehouse_columnar::Value::Int64(19_999));
        assert_eq!(stats[0].row_count, 20_000);
        let empty = FileWriter::new(input.schema().clone(), WriterOptions::default());
        assert!(empty.finish().unwrap().1.is_empty());
    }
}
