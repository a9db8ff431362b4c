//! Ranged reader: reads a data file through byte-range fetches — the way
//! engines read Parquet over object storage. The first request gets the
//! footer (and, for a small file, everything else); after pruning, the
//! surviving chunks' byte ranges are planned, merged where a gap is cheaper
//! to read through than to skip, and fetched one request per merged range.
//!
//! This is what makes projection pushdown and zone-map pruning *move fewer
//! bytes* on large files, and what makes a read cost round trips per
//! *object* rather than per column chunk (paper §4.4.2: moving data is the
//! bottleneck, and at Reasonable Scale the round trip is most of the move).

use crate::encoding::decode_column;
use crate::error::{FormatError, Result};
use crate::io::ByteReader;
use crate::reader::{parse_footer, parse_trailer, RowGroupMeta};
use crate::MAGIC;
use bytes::Bytes;
use lakehouse_checksum::crc32c;
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{RecordBatch, Schema, Value};

/// Fetches `[start, end)` of the underlying object.
pub type RangeFetch<'a> = &'a dyn Fn(usize, usize) -> Result<Bytes>;

/// Tail bytes fetched speculatively to cover the footer of a large file in
/// one round trip (Parquet readers use the same trick).
const TAIL_HINT: usize = 16 * 1024;

/// Two needed ranges no further apart than this travel in one request. A
/// request to an S3-like store costs ~15 ms to first byte and then moves
/// ~90 MiB/s, so reading through a gap below ~1.35 MiB is cheaper than a
/// second round trip; 1 MiB sits under that break-even (and is what
/// `object_store` ships). It is a property of object stores, not of a
/// workload — hence a constant, not a setting.
const COALESCE_GAP: usize = 1 << 20;

/// A file opened through range reads: holds the metadata and whatever bytes
/// the opening request brought along; other chunks are fetched on demand.
#[derive(Debug, Clone)]
pub struct RangedReader {
    schema: Schema,
    groups: Vec<RowGroupMeta>,
    file_len: usize,
    /// Footer body plus trailer, in bytes.
    footer_bytes: usize,
    /// Merge distance for [`RangedReader::read_groups`].
    gap: usize,
    /// `[resident_start, file_len)` as fetched by `open`: the whole file when
    /// it is no longer than the gap, the tail probe otherwise. Ranges inside
    /// it are sliced locally, never fetched again.
    resident_start: usize,
    resident: Bytes,
}

/// `fetch(start, end)`, with a short (torn) read surfaced as typed
/// corruption before any byte of it is trusted.
fn fetch_exact(fetch: RangeFetch<'_>, start: usize, end: usize) -> Result<Bytes> {
    let bytes = fetch(start, end)?;
    if bytes.len() != end - start {
        return Err(FormatError::Corrupted(format!(
            "read of [{start}, {end}) returned {} bytes",
            bytes.len()
        )));
    }
    Ok(bytes)
}

/// The requests that cover `wanted`: any two ranges at most `gap` bytes
/// apart become one. The result is sorted and disjoint, no request spans a
/// hole wider than `gap`, and any two are further apart than `gap`.
fn plan_ranges(mut wanted: Vec<(usize, usize)>, gap: usize) -> Vec<(usize, usize)> {
    wanted.sort_unstable();
    let mut planned: Vec<(usize, usize)> = Vec::with_capacity(wanted.len());
    for (start, end) in wanted {
        match planned.last_mut() {
            Some(last) if start.saturating_sub(last.1) <= gap => last.1 = last.1.max(end),
            _ => planned.push((start, end)),
        }
    }
    planned
}

impl RangedReader {
    /// Open a file of `file_len` bytes via the fetch callback. The footer's
    /// checksum is verified before any offset in it is trusted — a torn tail
    /// read (truncated or mangled bytes) surfaces as a typed corruption
    /// error instead of garbage offsets.
    pub fn open(file_len: usize, fetch: RangeFetch<'_>) -> Result<RangedReader> {
        Self::open_with_gap(file_len, fetch, COALESCE_GAP)
    }

    /// Open a complete in-memory file: every byte is resident, so no read
    /// of it fetches. The leading magic, the size and the footer's checksum
    /// are checked as [`RangedReader::open`] checks them.
    pub fn parse(data: Bytes) -> Result<RangedReader> {
        if data.len() < 16 || &data[..4] != MAGIC {
            return Err(FormatError::Corrupt("bad magic".into()));
        }
        let whole = |start: usize, end: usize| Ok(data.slice(start..end));
        Self::open_with_gap(data.len(), &whole, usize::MAX)
    }

    /// The one range [`RangedReader::open`] always requests of a
    /// `file_len`-byte file, and requests first — what a caller that wants
    /// the open to find its bytes already fetched has to fetch.
    pub fn opening_range(file_len: usize) -> (usize, usize) {
        (Self::resident_start(file_len, COALESCE_GAP), file_len)
    }

    /// The footer locates every chunk, so its request always goes first; a
    /// file no longer than the gap rides along with it whole — the merge
    /// rule applied to that dependency.
    fn resident_start(file_len: usize, gap: usize) -> usize {
        if file_len <= gap {
            0
        } else {
            file_len.saturating_sub(TAIL_HINT)
        }
    }

    fn open_with_gap(file_len: usize, fetch: RangeFetch<'_>, gap: usize) -> Result<RangedReader> {
        if file_len < 16 {
            return Err(FormatError::Corrupt("file too small".into()));
        }
        let resident_start = Self::resident_start(file_len, gap);
        let resident = fetch_exact(fetch, resident_start, file_len)?;
        let (footer_start, footer_crc) = parse_trailer(&resident[resident.len() - 12..], file_len)?;
        let footer = if footer_start >= resident_start {
            resident.slice(footer_start - resident_start..resident.len() - 12)
        } else {
            // Footer larger than the tail probe: fetch the remainder.
            fetch_exact(fetch, footer_start, file_len - 12)?
        };
        if crc32c(&footer) != footer_crc {
            return Err(FormatError::Corrupted("footer checksum mismatch".into()));
        }
        let (schema, groups) = parse_footer(&footer)?;
        Ok(RangedReader {
            schema,
            groups,
            file_len,
            footer_bytes: file_len - footer_start,
            gap,
            resident_start,
            resident,
        })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_row_groups(&self) -> usize {
        self.groups.len()
    }

    pub fn num_rows(&self) -> u64 {
        self.groups.iter().map(|g| g.row_count).sum()
    }

    pub fn row_group_meta(&self, idx: usize) -> &RowGroupMeta {
        &self.groups[idx]
    }

    /// Bytes the opening request brought along and the reader holds.
    pub fn resident_len(&self) -> usize {
        self.resident.len()
    }

    /// Whether every chunk that lies in the resident bytes matches its
    /// checksum — also those no read has decoded yet: what a cache must know
    /// before it keeps the reader for reads of other columns.
    pub fn resident_intact(&self) -> bool {
        let fetched = FetchedChunks {
            ranges: vec![(self.resident_start, self.file_len)],
            buffers: vec![self.resident.clone()],
        };
        (self.groups.iter().enumerate()).all(|(g, group)| {
            (0..group.chunk_offsets.len()).all(|c| match self.chunk_range((g, c)) {
                Ok((start, _)) if start < self.resident_start => true,
                Ok(_) => self.verified_chunk(&fetched, (g, c)).is_ok(),
                Err(_) => false,
            })
        })
    }

    /// Zone-map pruning: row groups that may match `column OP literal`.
    pub fn prune(&self, column: &str, op: CmpOp, literal: &Value) -> Result<Vec<usize>> {
        let col_idx = self.schema.index_of(column)?;
        Ok(self
            .groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.stats[col_idx].may_match(op, literal))
            .map(|(i, _)| i)
            .collect())
    }

    /// The projected column indices, each checked against the schema.
    fn projected(&self, projection: Option<&[usize]>) -> Result<Vec<usize>> {
        let columns: Vec<usize> = match projection {
            Some(p) => p.to_vec(),
            None => (0..self.schema.len()).collect(),
        };
        match columns.iter().find(|&&c| c >= self.schema.len()) {
            Some(c) => Err(FormatError::InvalidArgument(format!(
                "projection index {c} out of range"
            ))),
            None => Ok(columns),
        }
    }

    /// The `(group, column)` chunks of `groups` under `projection`,
    /// group-major: what [`RangedReader::fetch_chunks`] takes.
    pub fn chunks(
        &self,
        groups: &[usize],
        projection: Option<&[usize]>,
    ) -> Result<Vec<(usize, usize)>> {
        let columns = self.projected(projection)?;
        let pairs = groups
            .iter()
            .flat_map(|&g| columns.iter().map(move |&c| (g, c)));
        Ok(pairs.collect())
    }

    /// Byte range of chunk `(g, c)`, checked against the file.
    fn chunk_range(&self, (g, c): (usize, usize)) -> Result<(usize, usize)> {
        let group = self
            .groups
            .get(g)
            .ok_or_else(|| FormatError::InvalidArgument(format!("no row group {g}")))?;
        let (offset, length) = *group
            .chunk_offsets
            .get(c)
            .ok_or_else(|| FormatError::InvalidArgument(format!("no column {c}")))?;
        match offset.checked_add(length) {
            Some(end) if end <= self.file_len as u64 => Ok((offset as usize, end as usize)),
            _ => Err(FormatError::Corrupt("chunk offset out of range".into())),
        }
    }

    /// Bytes of the file a read of `chunks` *needs*: the footer plus the
    /// chunks. The requests that carry them may move more (merged gaps, a
    /// small file fetched whole).
    pub fn bytes_needed(&self, chunks: &[(usize, usize)]) -> Result<u64> {
        let mut needed = self.footer_bytes;
        for &chunk in chunks {
            let (start, end) = self.chunk_range(chunk)?;
            needed += end - start;
        }
        Ok(needed as u64)
    }

    /// Fetch `chunks`: ranges not resident from `open` are merged by
    /// `plan_ranges` and fetched one request each. A chunk is checksummed
    /// when it is taken out ([`Self::raw_group`], [`Self::decode_groups`]).
    pub fn fetch_chunks(
        &self,
        chunks: &[(usize, usize)],
        fetch: RangeFetch<'_>,
    ) -> Result<FetchedChunks> {
        let mut wanted = Vec::with_capacity(chunks.len());
        for &chunk in chunks {
            let range = self.chunk_range(chunk)?;
            if range.0 < self.resident_start {
                wanted.push(range);
            }
        }
        let mut ranges = plan_ranges(wanted, self.gap);
        let mut buffers = ranges
            .iter()
            .map(|&(start, end)| fetch_exact(fetch, start, end))
            .collect::<Result<Vec<Bytes>>>()?;
        ranges.push((self.resident_start, self.file_len));
        buffers.push(self.resident.clone());
        Ok(FetchedChunks { ranges, buffers })
    }

    /// Chunk `(g, c)` out of `fetched`, its checksum verified: a torn or
    /// cached-corrupt range must never become wrong values or copied bytes.
    fn verified_chunk(&self, fetched: &FetchedChunks, (g, c): (usize, usize)) -> Result<Bytes> {
        let bytes = fetched.slice(self.chunk_range((g, c))?);
        match bytes.filter(|b| crc32c(b) == self.groups[g].chunk_crcs[c]) {
            Some(bytes) => Ok(bytes),
            None => Err(FormatError::Corrupted(format!(
                "chunk checksum mismatch (group {g}, column {c})"
            ))),
        }
    }

    /// Row group `g` as it lies in the file: every chunk out of `fetched`,
    /// each checksum verified before the group is handed out, and the
    /// footer's metadata for it.
    pub fn raw_group(&self, fetched: &FetchedChunks, g: usize) -> Result<RawGroup<'_>> {
        let meta = (self.groups.get(g))
            .ok_or_else(|| FormatError::InvalidArgument(format!("no row group {g}")))?;
        let chunks = (0..self.schema.len())
            .map(|c| self.verified_chunk(fetched, (g, c)))
            .collect::<Result<Vec<Bytes>>>()?;
        Ok(RawGroup {
            schema: &self.schema,
            meta,
            chunks,
        })
    }

    /// Decode the projected columns of `groups` out of `fetched` into one
    /// batch, each chunk checksummed before it is decoded.
    pub fn decode_groups(
        &self,
        fetched: &FetchedChunks,
        groups: &[usize],
        projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        let columns = self.projected(projection)?;
        let out_schema = Schema::new(
            columns
                .iter()
                .map(|&i| self.schema.field(i).clone())
                .collect(),
        );
        if groups.is_empty() {
            return Ok(RecordBatch::new_empty(out_schema));
        }
        let mut batches = Vec::with_capacity(groups.len());
        for &g in groups {
            let rows = (self.groups.get(g))
                .ok_or_else(|| FormatError::InvalidArgument(format!("no row group {g}")))?
                .row_count as usize;
            let mut decoded = Vec::with_capacity(columns.len());
            for &c in &columns {
                let bytes = self.verified_chunk(fetched, (g, c))?;
                let mut r = ByteReader::new(&bytes);
                decoded.push(decode_column(self.schema.field(c).data_type(), &mut r)?);
            }
            // The footer's count: with no column decoded, still the group's rows.
            let batch = RecordBatch::try_new_with_rows(out_schema.clone(), decoded, rows)?;
            batches.push(batch);
        }
        Ok(RecordBatch::concat(&batches)?)
    }

    /// Decode every row group of a file opened whole
    /// ([`RangedReader::parse`]) into one batch, optionally projected.
    pub fn read_all(&self, projection: Option<&[usize]>) -> Result<RecordBatch> {
        let not_resident = |start: usize, end: usize| -> Result<Bytes> {
            Err(FormatError::InvalidArgument(format!(
                "[{start}, {end}) is not resident: read it with read_groups"
            )))
        };
        let groups: Vec<usize> = (0..self.groups.len()).collect();
        self.read_groups(&groups, projection, &not_resident)
    }

    /// Read selected row groups, fetching only the projected columns'
    /// chunks.
    pub fn read_groups(
        &self,
        group_indices: &[usize],
        projection: Option<&[usize]>,
        fetch: RangeFetch<'_>,
    ) -> Result<RecordBatch> {
        let chunks = self.chunks(group_indices, projection)?;
        let fetched = self.fetch_chunks(&chunks, fetch)?;
        self.decode_groups(&fetched, group_indices, projection)
    }
}

/// Chunks of one file fetched by [`RangedReader::fetch_chunks`]: each
/// request's buffer with the file range it holds, the resident tail last.
pub struct FetchedChunks {
    ranges: Vec<(usize, usize)>,
    buffers: Vec<Bytes>,
}

impl FetchedChunks {
    /// `[start, end)` of the file: it lies in the last buffer that starts at
    /// or before it, or was not fetched.
    fn slice(&self, (start, end): (usize, usize)) -> Option<Bytes> {
        let i = self
            .ranges
            .partition_point(|r| r.0 <= start)
            .checked_sub(1)?;
        let (base, limit) = self.ranges[i];
        (end <= limit).then(|| self.buffers[i].slice(start - base..end - base))
    }
}

/// One row group of a file as its verified chunk bytes, with the footer's
/// row count, checksums and statistics for it: what
/// [`crate::FileWriter::copy_group`] appends. Only
/// [`RangedReader::raw_group`] makes one, so every chunk's checksum has held.
pub struct RawGroup<'a> {
    pub(crate) schema: &'a Schema,
    pub(crate) meta: &'a RowGroupMeta,
    pub(crate) chunks: Vec<Bytes>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{FileWriter, WriterOptions};
    use lakehouse_columnar::{Column, DataType, Field};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;

    fn sample() -> Bytes {
        FileWriter::write_file(
            &sample_batch(),
            WriterOptions {
                row_group_rows: 1_000,
            },
        )
        .unwrap()
    }

    fn sample_batch() -> RecordBatch {
        RecordBatch::try_new(
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("name", DataType::Utf8, false),
            ]),
            vec![
                Column::from_i64((0..10_000).collect()),
                Column::from_str_vec((0..10_000).map(|i| format!("row-{i}")).collect()),
            ],
        )
        .unwrap()
    }

    /// `batch`'s columns at `projection` (every one for `None`).
    fn projected(batch: &RecordBatch, projection: Option<&[usize]>) -> RecordBatch {
        let names = batch.schema().names();
        let keep: Vec<&str> = match projection {
            Some(p) => p.iter().map(|&c| names[c]).collect(),
            None => names,
        };
        batch.project(&keep).unwrap()
    }

    /// A store over `bytes` that logs every request it serves.
    struct Served<'a> {
        bytes: &'a Bytes,
        requests: RefCell<Vec<(usize, usize)>>,
    }

    impl<'a> Served<'a> {
        fn new(bytes: &'a Bytes) -> Self {
            Served {
                bytes,
                requests: RefCell::new(Vec::new()),
            }
        }

        fn fetch(&self, start: usize, end: usize) -> Result<Bytes> {
            self.requests.borrow_mut().push((start, end));
            Ok(self.bytes.slice(start..end))
        }

        fn count(&self) -> usize {
            self.requests.borrow().len()
        }

        fn bytes_moved(&self) -> usize {
            self.requests.borrow().iter().map(|(s, e)| e - s).sum()
        }
    }

    #[test]
    fn ranged_matches_full_reader() {
        let bytes = sample();
        let served = Served::new(&bytes);
        let fetch = |s: usize, e: usize| served.fetch(s, e);
        let reader = RangedReader::open(bytes.len(), &fetch).unwrap();
        assert_eq!(reader.num_rows(), 10_000);
        assert_eq!(reader.num_row_groups(), 10);
        let all: Vec<usize> = (0..10).collect();
        let full = reader.read_groups(&all, None, &fetch).unwrap();
        assert_eq!(full, sample_batch());
        // The file is smaller than the merge distance: one request, whole.
        assert_eq!(*served.requests.borrow(), vec![(0, bytes.len())]);
    }

    #[test]
    fn projection_and_pruning_fetch_fewer_bytes() {
        let bytes = sample();
        // Chunks of this file are ~8–12 KB; a 1 KiB merge distance keeps
        // non-neighbours apart, as 1 MiB does for MiB-sized chunks.
        let run = |projection: Option<Vec<usize>>, predicate: Option<i64>| {
            let served = Served::new(&bytes);
            let fetch = |s: usize, e: usize| served.fetch(s, e);
            let reader = RangedReader::open_with_gap(bytes.len(), &fetch, 1024).unwrap();
            let groups = match predicate {
                Some(v) => reader.prune("id", CmpOp::GtEq, &Value::Int64(v)).unwrap(),
                None => (0..reader.num_row_groups()).collect(),
            };
            let batch = reader
                .read_groups(&groups, projection.as_deref(), &fetch)
                .unwrap();
            let chunks = reader.chunks(&groups, projection.as_deref()).unwrap();
            let needed = reader.bytes_needed(&chunks).unwrap();
            (batch.num_rows(), served.bytes_moved(), needed as usize)
        };
        let (full_rows, full_bytes, full_needed) = run(None, None);
        assert_eq!(full_rows, 10_000);
        assert!(full_needed <= bytes.len() && full_needed > bytes.len() * 9 / 10);
        // Only the int column: far fewer bytes than both columns.
        let (_, id_bytes, id_needed) = run(Some(vec![0]), None);
        assert!(id_bytes < full_bytes / 2, "{id_bytes} vs {full_bytes}");
        assert!(id_needed < full_needed / 2 && id_needed <= id_bytes);
        // Only the last row group via pruning.
        let (rows, pruned_bytes, pruned_needed) = run(None, Some(9_000));
        assert_eq!(rows, 1_000);
        assert!(
            pruned_bytes < full_bytes / 2,
            "{pruned_bytes} vs {full_bytes}"
        );
        assert!(pruned_needed < full_needed / 2);
    }

    #[test]
    fn corrupt_trailer_detected() {
        let mut bytes = sample().to_vec();
        let n = bytes.len();
        bytes[n - 1] = b'X';
        let data = Bytes::from(bytes);
        let fetch = |start: usize, end: usize| -> Result<Bytes> { Ok(data.slice(start..end)) };
        assert!(RangedReader::open(data.len(), &fetch).is_err());
    }

    #[test]
    fn tiny_file_rejected() {
        let fetch = |_: usize, _: usize| -> Result<Bytes> { Ok(Bytes::new()) };
        assert!(RangedReader::open(4, &fetch).is_err());
    }

    #[test]
    fn magic_and_garbage_is_an_error_not_a_panic() {
        for garbage in [
            [0u8; 8],
            [0xFF; 8],
            [0, 0, 0, 0, 4, 0, 0, 0],
            *b"\x07garbage",
        ] {
            let mut file = MAGIC.to_vec();
            file.extend_from_slice(&garbage);
            file.extend_from_slice(MAGIC);
            let data = Bytes::from(file);
            let fetch = |s: usize, e: usize| -> Result<Bytes> { Ok(data.slice(s..e)) };
            let err = RangedReader::open(data.len(), &fetch).unwrap_err();
            assert!(err.is_corruption(), "{garbage:?}: {err:?}");
            assert!(RangedReader::parse(data.clone()).is_err());
        }
    }

    #[test]
    fn torn_tail_read_is_typed_corruption() {
        let bytes = sample();
        // A torn read returns only the first half of the requested range —
        // the ChaosStore failure mode.
        let torn = |start: usize, end: usize| -> Result<Bytes> {
            let full = bytes.slice(start..end);
            Ok(full.slice(0..full.len() / 2))
        };
        for gap in [0, COALESCE_GAP] {
            let err = RangedReader::open_with_gap(bytes.len(), &torn, gap).unwrap_err();
            assert!(err.is_corruption(), "expected corruption, got {err:?}");
        }
    }

    #[test]
    fn torn_or_flipped_merged_range_is_typed_corruption() {
        let bytes = sample();
        let clean = |start: usize, end: usize| -> Result<Bytes> { Ok(bytes.slice(start..end)) };
        // Footer read succeeded; the merged request for groups 0..3 is then
        // torn, or comes back whole with one bit flipped in its middle —
        // only the per-chunk CRC can catch the latter.
        let reader = RangedReader::open_with_gap(bytes.len(), &clean, 64 * 1024).unwrap();
        let calls = RefCell::new(0usize);
        let torn = |start: usize, end: usize| -> Result<Bytes> {
            *calls.borrow_mut() += 1;
            Ok(bytes.slice(start..start + (end - start) / 2))
        };
        let err = reader.read_groups(&[0, 1, 2], None, &torn).unwrap_err();
        assert!(matches!(err, FormatError::Corrupted(_)), "got {err:?}");
        assert_eq!(*calls.borrow(), 1, "three groups, one merged request");
        let flipped = |start: usize, end: usize| -> Result<Bytes> {
            let mut v = bytes.slice(start..end).to_vec();
            let mid = v.len() / 2;
            v[mid] ^= 0x80;
            Ok(Bytes::from(v))
        };
        let err = reader.read_groups(&[0, 1, 2], None, &flipped).unwrap_err();
        assert!(matches!(err, FormatError::Corrupted(_)), "got {err:?}");
        // A file fetched whole by `open`: the flip sits in the resident
        // buffer and surfaces when the chunk is sliced out of it.
        let flipped_whole = |start: usize, end: usize| -> Result<Bytes> {
            let mut v = bytes.slice(start..end).to_vec();
            v[100] ^= 0x01;
            Ok(Bytes::from(v))
        };
        let reader = RangedReader::open(bytes.len(), &flipped_whole).unwrap();
        let err = reader.read_groups(&[0], None, &clean).unwrap_err();
        assert!(matches!(err, FormatError::Corrupted(_)), "got {err:?}");
        assert!(reader.read_groups(&[5], None, &clean).is_ok());
    }

    #[test]
    fn small_file_costs_one_request_at_any_projection() {
        // The 263-row zone dimension: ~3 KB, smaller than the tail probe.
        let n = 263;
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("zone_id", DataType::Int64, false),
                Field::new("borough", DataType::Utf8, false),
                Field::new("zone_name", DataType::Utf8, false),
            ]),
            vec![
                Column::from_i64((0..n).collect()),
                Column::from_str_vec((0..n).map(|i| format!("b{}", i % 5)).collect()),
                Column::from_str_vec((0..n).map(|i| format!("zone {i}")).collect()),
            ],
        )
        .unwrap();
        let bytes = FileWriter::write_file(&batch, WriterOptions::default()).unwrap();
        assert!(bytes.len() <= TAIL_HINT);
        // Whatever the merge distance: the tail probe alone already holds
        // a file this small.
        for gap in [0, COALESCE_GAP] {
            for projection in [None, Some(vec![0]), Some(vec![2, 1]), Some(vec![])] {
                let served = Served::new(&bytes);
                let fetch = |s: usize, e: usize| served.fetch(s, e);
                let reader = RangedReader::open_with_gap(bytes.len(), &fetch, gap).unwrap();
                let out = reader
                    .read_groups(&[0], projection.as_deref(), &fetch)
                    .unwrap();
                assert_eq!(out.num_rows(), 263);
                assert_eq!(served.count(), 1, "gap {gap}, projection {projection:?}");
            }
        }
    }

    #[test]
    fn decoded_columns_own_their_bytes() {
        // A merged buffer is transient: once the reader is gone nothing
        // decoded from it may keep the allocation alive.
        let bytes = sample();
        let handed_out = RefCell::new(Vec::new());
        let fetch = |start: usize, end: usize| -> Result<Bytes> {
            let copy = Bytes::from(bytes.slice(start..end).to_vec());
            handed_out.borrow_mut().push(copy.clone());
            Ok(copy)
        };
        for gap in [4096, COALESCE_GAP] {
            let reader = RangedReader::open_with_gap(bytes.len(), &fetch, gap).unwrap();
            let batch = reader.read_groups(&[1, 2, 7], None, &fetch).unwrap();
            drop(reader);
            assert_eq!(batch.num_rows(), 3_000);
            for buffer in handed_out.borrow_mut().drain(..) {
                assert!(buffer.is_unique(), "a decoded column points into a fetch");
            }
        }
    }

    /// One random column of `rows` rows: every data type, plain, dictionary
    /// and bit-packed encodings, from no nulls to nearly all nulls.
    fn random_column(rng: &mut StdRng, rows: usize) -> (DataType, Column) {
        let null_p = [0.0, 0.1, 0.9][rng.gen_range(0..3usize)];
        let opt = |rng: &mut StdRng| !rng.gen_bool(null_p);
        match rng.gen_range(0..7) {
            0 => (
                DataType::Bool,
                Column::from_opt_bool(
                    (0..rows)
                        .map(|_| opt(rng).then(|| rng.gen_bool(0.5)))
                        .collect(),
                ),
            ),
            1 => (
                DataType::Int64,
                Column::from_opt_i64(
                    (0..rows)
                        .map(|_| opt(rng).then(|| rng.gen_range(-1_000_000..1_000_000i64)))
                        .collect(),
                ),
            ),
            2 => (
                DataType::Float64,
                Column::from_opt_f64(
                    (0..rows)
                        .map(|_| opt(rng).then(|| rng.gen_range(-1e6..1e6)))
                        .collect(),
                ),
            ),
            3 => (
                DataType::Timestamp,
                Column::from_opt_timestamp(
                    (0..rows)
                        .map(|_| opt(rng).then(|| rng.gen_range(0..1i64 << 40)))
                        .collect(),
                ),
            ),
            4 => (
                DataType::Date,
                Column::from_opt_date(
                    (0..rows)
                        .map(|_| opt(rng).then(|| rng.gen_range(0..20_000)))
                        .collect(),
                ),
            ),
            // Low cardinality: the writer dictionary-encodes it.
            5 => {
                let values: Vec<Option<String>> = (0..rows)
                    .map(|_| opt(rng).then(|| format!("v{}", rng.gen_range(0..4))))
                    .collect();
                let refs = values.iter().map(|v| v.as_deref()).collect();
                (DataType::Utf8, Column::from_opt_str(refs))
            }
            // High cardinality, variable width: plain.
            _ => {
                let values: Vec<Option<String>> = (0..rows)
                    .map(|i| opt(rng).then(|| format!("{i}-{}", "x".repeat(rng.gen_range(0..40)))))
                    .collect();
                let refs = values.iter().map(|v| v.as_deref()).collect();
                (DataType::Utf8, Column::from_opt_str(refs))
            }
        }
    }

    /// The planner's contract on one logged read: `open` in 1 request (2 if
    /// the footer outgrew the tail probe), then requests that are sorted,
    /// disjoint, inside the file, cover every needed chunk not already
    /// resident, span no hole wider than `gap`, and lie further than `gap`
    /// apart.
    fn check_requests(
        reader: &RangedReader,
        opens: usize,
        requests: &[(usize, usize)],
        needed: &[(usize, usize)],
        gap: usize,
    ) {
        let file_len = reader.file_len;
        assert!(
            opens == 1 || (opens == 2 && file_len > gap),
            "{opens} opening requests"
        );
        if file_len <= gap {
            assert_eq!(
                requests.len(),
                opens,
                "a file within the gap is one request"
            );
        }
        let planned = &requests[opens..];
        assert!(planned.len() <= needed.len(), "more requests than chunks");
        for w in planned.windows(2) {
            assert!(w[0].1 < w[1].0, "unsorted or overlapping: {w:?}");
            assert!(
                w[1].0 - w[0].1 > gap,
                "{w:?} are within {gap} of each other"
            );
        }
        let mut uncovered: Vec<(usize, usize)> = Vec::new();
        for &(start, end) in needed {
            assert!(start <= end && end <= file_len);
            let resident = start >= reader.resident_start;
            let fetched = planned.iter().any(|r| r.0 <= start && end <= r.1);
            assert!(resident || fetched, "chunk [{start}, {end}) not covered");
            assert!(
                !(resident && fetched) || start == end,
                "resident chunk fetched again"
            );
            if !resident {
                uncovered.push((start, end));
            }
        }
        // Holes: walk each request's chunks in order; the distance from one
        // chunk's end to the next one's start never exceeds the gap, and
        // every request starts and ends on a chunk boundary.
        uncovered.sort_unstable();
        for &(start, end) in planned {
            assert!(end <= file_len);
            let inside: Vec<_> = uncovered
                .iter()
                .filter(|c| start <= c.0 && c.1 <= end)
                .collect();
            assert_eq!(inside.first().map(|c| c.0), Some(start));
            assert_eq!(inside.iter().map(|c| c.1).max(), Some(end));
            let mut reach = start;
            for c in inside {
                assert!(
                    c.0.saturating_sub(reach) <= gap,
                    "hole wider than {gap} in [{start}, {end})"
                );
                reach = reach.max(c.1);
            }
        }
    }

    #[test]
    fn planned_reads_hold_their_contract_on_random_files() {
        let mut rng = StdRng::seed_from_u64(0x14);
        for case in 0..60 {
            let n_groups = rng.gen_range(1..=40usize);
            let n_cols = rng.gen_range(1..=9usize);
            let group_rows = rng.gen_range(1..=64usize);
            let rows = (n_groups - 1) * group_rows + rng.gen_range(1..=group_rows);
            let (fields, columns): (Vec<_>, Vec<_>) = (0..n_cols)
                .map(|i| {
                    let (dt, col) = random_column(&mut rng, rows);
                    (Field::new(format!("c{i}"), dt, true), col)
                })
                .unzip();
            let batch = RecordBatch::try_new(Schema::new(fields), columns).unwrap();
            let bytes = FileWriter::write_file(
                &batch,
                WriterOptions {
                    row_group_rows: group_rows,
                },
            )
            .unwrap();
            let full = RangedReader::parse(bytes.clone()).unwrap();
            assert_eq!(full.num_row_groups(), n_groups);
            let written = batch.chunks(group_rows).unwrap();
            let a_chunk = full.row_group_meta(0).chunk_offsets[0].1 as usize;

            for gap in [0, 1, 4096, a_chunk, usize::MAX] {
                let groups: Vec<usize> = (0..n_groups).filter(|_| rng.gen_bool(0.5)).collect();
                let projection: Option<Vec<usize>> = rng
                    .gen_bool(0.7)
                    .then(|| (0..n_cols).filter(|_| rng.gen_bool(0.5)).collect());
                let served = Served::new(&bytes);
                let fetch = |s: usize, e: usize| served.fetch(s, e);
                let reader = RangedReader::open_with_gap(bytes.len(), &fetch, gap).unwrap();
                let opens = served.count();
                let got = reader
                    .read_groups(&groups, projection.as_deref(), &fetch)
                    .unwrap();
                let picked = (groups.iter())
                    .map(|&g| projected(&written[g], projection.as_deref()))
                    .collect();
                let want_schema = projected(&batch, projection.as_deref()).schema().clone();
                let want = RecordBatch::concat_all(&want_schema, picked).unwrap();
                assert_eq!(got, want, "case {case}, gap {gap}");

                let cols = projection.clone().unwrap_or_else(|| (0..n_cols).collect());
                let needed: Vec<(usize, usize)> = groups
                    .iter()
                    .flat_map(|&g| cols.iter().map(move |&c| (g, c)))
                    .map(|(g, c)| full.row_group_meta(g).chunk_offsets[c])
                    .map(|(offset, len)| (offset as usize, (offset + len) as usize))
                    .collect();
                check_requests(&reader, opens, &served.requests.borrow(), &needed, gap);
                assert!(served.count() <= opens + needed.len());
                let needed_bytes: usize = needed.iter().map(|(s, e)| e - s).sum();
                assert_eq!(
                    reader
                        .bytes_needed(&reader.chunks(&groups, projection.as_deref()).unwrap())
                        .unwrap() as usize,
                    needed_bytes + reader.footer_bytes
                );
            }
        }
    }

    #[test]
    fn multi_mib_file_probes_the_tail_and_keeps_distant_chunks_apart() {
        // Three row groups of (id, ~1.6 MB text) chunks: the file outgrows
        // the merge distance, so `open` probes the tail, and the id chunks
        // lie a text chunk (> 1 MiB) apart from each other. Each group's
        // 4 096 ids span 4 095, so they pack at 12 bits.
        let rows = 3 * 4_096;
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("text", DataType::Utf8, false),
            ]),
            vec![
                Column::from_i64((0..rows as i64).collect()),
                Column::from_str_vec((0..rows).map(|i| format!("{i:0>400}")).collect()),
            ],
        )
        .unwrap();
        let bytes = FileWriter::write_file(
            &batch,
            WriterOptions {
                row_group_rows: 4_096,
            },
        )
        .unwrap();
        assert!(bytes.len() > 4 * COALESCE_GAP);
        let read = |projection: Option<&[usize]>| {
            let served = Served::new(&bytes);
            let fetch = |s: usize, e: usize| served.fetch(s, e);
            let reader = RangedReader::open(bytes.len(), &fetch).unwrap();
            assert_eq!(
                *served.requests.borrow(),
                vec![(bytes.len() - TAIL_HINT, bytes.len())]
            );
            let got = reader.read_groups(&[0, 1, 2], projection, &fetch).unwrap();
            assert_eq!(got, projected(&batch, projection));
            let requests = served.requests.borrow().clone();
            (
                requests,
                reader
                    .bytes_needed(&reader.chunks(&[0, 1, 2], projection).unwrap())
                    .unwrap() as usize,
            )
        };
        // One column: the tail probe, then one request per row group — the
        // text chunks between them are never moved.
        let (narrow, narrow_needed) = read(Some(&[0]));
        assert_eq!(narrow.len(), 1 + 3, "{narrow:?}");
        let narrow_moved: usize = narrow.iter().map(|(s, e)| e - s).sum();
        // A chunk: its six-byte header, the frame (base and width), then
        // the packed ids.
        let id_chunk = 6 + (8 + 1) + 4_096 * 12 / 8;
        assert_eq!(narrow_moved, TAIL_HINT + 3 * id_chunk);
        assert!(narrow_needed < narrow_moved);
        // Every column: all chunks are neighbours, one request after the
        // probe.
        let (wide, wide_needed) = read(None);
        assert_eq!(wide.len(), 2, "{wide:?}");
        let wide_moved: usize = wide.iter().map(|(s, e)| e - s).sum();
        assert!(
            narrow_moved * 2 < wide_moved,
            "{narrow_moved} vs {wide_moved}"
        );
        assert!(wide_needed <= bytes.len() && wide_needed > bytes.len() - 64);
    }
}
