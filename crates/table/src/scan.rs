//! Scan planning and execution: three-stage pruning (partition values →
//! file stats → row-group zone maps), schema-evolution-aware decoding, and
//! exact row-level filtering.
//!
//! Execution **overlaps the requests for a scan's data files**: after
//! pruning, the surviving files' opening ranges are submitted, a window at a
//! time, to the persistent workers of the table's
//! [`lakehouse_store::IoDispatcher`], and decoded on the caller's thread in
//! manifest order as they complete, so the output is byte-identical to a
//! serial scan. A scan whose every file will be read ([`TableScan::execute`],
//! [`TableScan::stream_all`]) fills its window at once; one that may be
//! abandoned ([`TableScan::stream`]) widens it 1 → 2 → 4 → … with every
//! pull, so a consumer that stops early (a satisfied `LIMIT`) has read one
//! file, not a window.
//! A scan with a single file to read, or a table without a dispatcher,
//! never leaves the caller's thread.
//!
//! **A file read before costs no request.** Each file is looked up once in
//! the table's [`crate::ObjectCache`] before its opening range would be
//! submitted or read inline, and a hit hands the file's opened reader to the
//! decode. A miss is admitted after its read succeeds on the first try with
//! every resident chunk's checksum intact, so torn or corrupt bytes never
//! enter, and a failed read drops the path. A bulk scan — one that would
//! admit more than a quarter of the cache — admits nothing, nor does a
//! compaction, so one large read does not flush what small ones re-read.
//!
//! A data file is read only for the columns its manifest entry cannot
//! answer: a field the entry's stats prove NULL or constant on every row is
//! built from the entry, and a file left with nothing to decode is settled
//! in its turn with no request at all (a one-day `COUNT(*)` over a
//! day-partitioned table is manifest-only).
//!
//! A pushed predicate is evaluated only where a file's stats leave it open:
//! each surviving file is filtered by its *residual*, the predicates its
//! stats do not prove for every row (Iceberg's residual evaluator), asked of
//! the entry when its batch is emitted. A file of a day-partitioned table
//! that lies inside a day range is handed on with no row compared.
//!
//! Per-thread simulated-latency lanes (see
//! [`lakehouse_store::StoreMetrics::lane_nanos`]) measure each entry's
//! exact simulated cost; entries are then assigned greedily to as many
//! logical lanes as the window is wide and the max lane (plus the serial
//! manifest prelude) is reported as the scan's *overlapped* wall clock —
//! deterministic, with no thread ever sleeping.

use crate::cache::TableIo;
use crate::error::{reread_on_corruption, Result, TableError};
use crate::manifest::{Manifest, ManifestEntry, StatsDef};
use crate::metadata::TableMetadata;
use lakehouse_columnar::kernels::{cmp_column_scalar, filter_batch, to_selection, CmpOp};
use lakehouse_columnar::{Column, ColumnarError, Field, RecordBatch, Schema, Value};
use lakehouse_format::{ColumnStats, FileWriter, RangedReader};
use lakehouse_store::{IoDispatcher, IoTicket, ObjectPath, ObjectStore, StoreError};
use std::collections::VecDeque;
use std::sync::Arc;

/// A simple conjunctive predicate: `column OP literal`. Multiple predicates
/// on a scan are ANDed (the shape Iceberg's scan API pushes down).
#[derive(Debug, Clone)]
pub struct ScanPredicate {
    pub column: String,
    pub op: CmpOp,
    pub literal: Value,
}

impl ScanPredicate {
    pub fn new(column: impl Into<String>, op: CmpOp, literal: Value) -> Self {
        ScanPredicate {
            column: column.into(),
            op,
            literal,
        }
    }
}

/// Counters describing how much pruning a scan achieved (exported so the
/// benches can report files/bytes skipped, the table-format half of the
/// paper's "avoid moving data" story).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanReport {
    pub files_total: usize,
    pub files_scanned: usize,
    /// Data files actually read — from the store, or opened from the cache —
    /// and decoded. Equal to `files_scanned` less `files_from_metadata` for
    /// a materialized scan; a streaming scan abandoned early (e.g. a
    /// satisfied `LIMIT` upstream) leaves it smaller — those files were
    /// never read at all.
    pub files_read: usize,
    /// Data files answered from their manifest entries alone, never
    /// requested: the entry's stats prove every scan field NULL or constant
    /// on every row. Counted in `files_scanned`, not in `files_read`.
    pub files_from_metadata: usize,
    /// Data files filtered by no predicate: a scan with predicates whose
    /// every one the file's stats prove for every row, so none of its rows
    /// was compared.
    pub files_proven: usize,
    pub bytes_total: u64,
    pub bytes_scanned: u64,
    pub row_groups_scanned: usize,
    pub rows_emitted: usize,
    /// Store requests answered by a cache layer during this scan (manifest,
    /// footers, data ranges). Zero when the store has no cache or metrics.
    pub cache_hits: u64,
    /// Reads beyond each object's first — data files and the manifest
    /// alike (see [`TableScan::with_fetch_retries`]).
    pub fetch_retries: usize,
    /// Deterministic overlapped wall clock of the scan on a simulated store:
    /// serial prelude (manifest fetch) plus the **max** over worker lanes of
    /// per-lane simulated latency. Equals total simulated scan time at
    /// parallelism 1; `Duration::ZERO` when the store exposes no metrics.
    pub wall_clock_simulated: std::time::Duration,
}

/// What reading one manifest entry produced, merged (in manifest order)
/// into the final [`ScanReport`].
struct EntryPartial {
    batch: RecordBatch,
    bytes_scanned: u64,
    row_groups_scanned: usize,
    /// The file as opened: what the cache admits.
    reader: Arc<RangedReader>,
}

/// How a file's read starts once it is taken into the window.
enum Opening {
    /// Opened by an earlier read: the cache's reader, no request.
    Cached(Arc<RangedReader>),
    /// Its opening range, requested of the dispatcher.
    Submitted(IoTicket),
}

/// What a read starts from besides the store.
enum Opened {
    Reader(Arc<RangedReader>),
    /// The opening range, fetched by a worker.
    Fetched(bytes::Bytes),
}

/// What one data file holds of a column of the current schema.
enum FileColumn<'e> {
    /// Nothing: the file predates the column, which is NULL on its every row.
    Absent,
    /// The file's column at this position, with the file's stats for it
    /// when they count every row of the file.
    At(usize, Option<&'e StatsDef>),
}

/// Where one data file's value of a scan field comes from.
#[derive(Debug, PartialEq)]
enum FieldSource {
    /// Decoded from the file's column at this position.
    Decode(usize),
    /// NULL on every row: the file predates the field, or its stats count
    /// every row NULL.
    Null,
    /// This value on every row: the stats count no NULL and `min == max`.
    Constant(Value),
}

/// A configurable scan over one snapshot of a table.
pub struct TableScan {
    store: Arc<dyn ObjectStore>,
    metadata: Arc<TableMetadata>,
    snapshot_id: Option<u64>,
    predicates: Vec<ScanPredicate>,
    projection: Option<Vec<String>>,
    fetch_retries: u32,
    io: TableIo,
    /// Read these files instead of the snapshot's (compaction reads one
    /// partition at a time).
    only: Option<Arc<Manifest>>,
    /// Whether [`Self::stream_all`]'s batches carry their chunks.
    keep_chunks: bool,
}

/// Where a live entry is: (manifest, entry) positions in
/// [`ScanStream::manifests`].
type EntryAt = (usize, usize);

/// A predicate projected onto a partition field: (field, op, literal).
type PartitionTest = (usize, CmpOp, Value);

impl TableScan {
    pub(crate) fn new(
        store: Arc<dyn ObjectStore>,
        metadata: Arc<TableMetadata>,
        io: TableIo,
    ) -> TableScan {
        TableScan {
            store,
            metadata,
            snapshot_id: None,
            predicates: Vec::new(),
            projection: None,
            fetch_retries: 0,
            io,
            only: None,
            keep_chunks: false,
        }
    }

    /// Scan exactly `entries` — files of this table, in this order — instead
    /// of the snapshot's.
    pub(crate) fn restricted_to(mut self, entries: Vec<ManifestEntry>) -> TableScan {
        self.only = Some(Arc::new(Manifest {
            refs: Vec::new(),
            entries,
        }));
        self
    }

    /// Re-read the manifest or a data file up to `n` extra times when its
    /// bytes fail a checksum ([`reread_on_corruption`]). A fault the store
    /// reports is not retried here: that is its `RetryStore`'s, and a
    /// request whose retries are exhausted fails the scan.
    pub fn with_fetch_retries(mut self, n: u32) -> TableScan {
        self.fetch_retries = n;
        self
    }

    /// Have each batch of [`Self::stream_all`] (and so of
    /// [`Self::execute_batches`]) whose file's residual leaves it as
    /// decoded carry the chunks it is the decode of as its origin
    /// ([`lakehouse_format::RangedReader::decode_groups_copyable`]), for a
    /// consumer that writes it: a run's artifact copies them instead of
    /// encoding the values again. A [`Self::stream`] has a row budget that
    /// may cut a file short, and keeps none.
    pub fn keeping_chunks(mut self) -> TableScan {
        self.keep_chunks = true;
        self
    }

    /// Time travel: scan a historical snapshot instead of the current one.
    pub fn at_snapshot(mut self, snapshot_id: u64) -> TableScan {
        self.snapshot_id = Some(snapshot_id);
        self
    }

    /// Add a pushed-down predicate (ANDed with the others).
    pub fn with_predicate(mut self, predicate: ScanPredicate) -> TableScan {
        self.predicates.push(predicate);
        self
    }

    /// Project to a subset of columns.
    pub fn select(mut self, columns: &[&str]) -> TableScan {
        self.projection = Some(columns.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Execute, returning the result batch.
    pub fn execute(self) -> Result<RecordBatch> {
        Ok(self.execute_with_report()?.0)
    }

    /// Execute and also return pruning statistics. The batch keeps no
    /// chunks.
    ///
    /// Implemented by draining a [`ScanStream`] — one accumulation code
    /// path serves both the materialized and the streaming scan, so reports
    /// (lane-overlap wall clock, cache hits, pruning counters) can never
    /// drift between the two. Every file will be read, so the request
    /// window opens at full width.
    pub fn execute_with_report(self) -> Result<(RecordBatch, ScanReport)> {
        let (schema, batches, report) = self.execute_batches()?;
        let batch = RecordBatch::concat_all(&schema, batches)?;
        Ok((batch.without_origin(), report))
    }

    /// [`Self::execute_with_report`] without the concatenation: the scan's
    /// schema and its batches, one per data file read, in manifest order.
    pub fn execute_batches(self) -> Result<(Schema, Vec<RecordBatch>, ScanReport)> {
        let span = lakehouse_obs::span("scan.materialize");
        let mut stream = self.stream_all()?;
        let mut batches = Vec::new();
        while let Some(batch) = stream.pull()? {
            batches.push(batch);
        }
        let report = stream.report();
        span.attr("files_scanned", report.files_scanned);
        span.attr("files_read", report.files_read);
        span.attr("bytes", report.bytes_scanned);
        span.attr("rows", report.rows_emitted);
        Ok((stream.scan_schema.clone(), batches, report))
    }

    /// Open a pull-based streaming scan: the manifest is loaded and pruned
    /// eagerly, but data files are only read as batches are pulled — one
    /// batch per surviving file. The first pull reads one file; each further
    /// pull doubles how many requests are kept in flight, so a consumer that
    /// stops pulling (a satisfied `LIMIT`) leaves the remaining files unread.
    pub fn stream(self) -> Result<ScanStream> {
        self.open(1, false)
    }

    /// [`Self::stream`] for a consumer that will pull every batch: nothing
    /// is saved by ramping, so the request window opens at full width, as
    /// [`Self::execute`]'s does.
    pub fn stream_all(self) -> Result<ScanStream> {
        let copyable = self.keep_chunks;
        self.open(usize::MAX, copyable)
    }

    /// Plan the scan; `window` is how many files' requests the first pull
    /// may put in flight (clamped to what the dispatcher runs at once), and
    /// `copyable` whether a batch may carry its chunks.
    fn open(self, window: usize, copyable: bool) -> Result<ScanStream> {
        let plan_span = lakehouse_obs::span("scan.plan");
        let scan_schema = self.output_schema()?;
        let mut report = ScanReport::default();
        let metrics = self.store.store_metrics();
        let lane_start = metrics.as_ref().map(|m| m.lane_nanos()).unwrap_or(0);
        let hits_start = self.io.cache.as_ref().map_or(0, |c| c.hits());

        let snapshot = match self.snapshot_id {
            Some(id) => Some(self.metadata.snapshot(id)?),
            None => self.metadata.current_snapshot(),
        };
        let root = match (&self.only, snapshot) {
            (Some(only), _) => Some(Arc::clone(only)),
            (None, Some(snapshot)) => {
                Some(self.load_manifest(&snapshot.manifest_path, &mut report)?)
            }
            (None, None) => None,
        };
        // The live manifests, oldest first: the root's refs less those whose
        // partition ranges rule out a match (counted, not read), then the
        // root.
        let partition = self.partition_tests()?;
        let mut manifests = Vec::new();
        if let Some(root) = root {
            for r in &root.refs {
                report.files_total += r.file_count as usize;
                report.bytes_total += r.byte_count;
                if spans_may_match(&partition, |field| r.partition_span(field)) {
                    manifests.push(self.load_manifest(&r.path, &mut report)?);
                }
            }
            report.files_total += root.entries.len();
            report.bytes_total += root.total_bytes();
            manifests.push(root);
        }
        let mut entries = VecDeque::new();
        let (mut reads, mut proven, mut opening_bytes) = (0, 0, 0);
        for (m, manifest) in manifests.iter().enumerate() {
            for (i, entry) in manifest.entries.iter().enumerate() {
                if self.entry_may_match(entry, &partition)? {
                    if self.reads(entry, &scan_schema)? {
                        reads += 1;
                        let (start, end) = RangedReader::opening_range(entry.file_size as usize);
                        opening_bytes += (end - start) as u64;
                    }
                    if plan_span.is_recording() {
                        proven += usize::from(self.proven(entry)?);
                    }
                    entries.push_back((m, i));
                }
            }
        }
        report.files_scanned = entries.len();
        let prelude_nanos = metrics
            .as_ref()
            .map(|m| m.lane_nanos() - lane_start)
            .unwrap_or(0);
        plan_span.attr("files_total", report.files_total);
        plan_span.attr("files_scanned", report.files_scanned);
        plan_span.attr("files_from_metadata", report.files_scanned - reads);
        plan_span.attr("files_proven", proven);
        drop(plan_span);
        // One file has nothing to overlap with.
        let depth = match &self.io.dispatcher {
            Some(io) if reads > 1 => io.depth(),
            _ => 1,
        };
        let admits = (self.io.cache.as_ref()).is_some_and(|c| !c.is_bulk(opening_bytes));
        let registry = lakehouse_obs::global();
        Ok(ScanStream {
            admits,
            copyable,
            scan: self,
            scan_schema,
            manifests,
            entries,
            pending: VecDeque::new(),
            ready: VecDeque::new(),
            window: window.min(depth),
            report,
            lanes: vec![0u64; depth],
            prelude_nanos,
            hits_start,
            files_read_counter: registry.counter("scan.files_read"),
            files_proven_counter: registry.counter("scan.files_proven"),
            rows_counter: registry.counter("scan.rows_emitted"),
            bytes_counter: registry.counter("scan.bytes_scanned"),
            fetch_retries_counter: registry.counter("scan.fetch_retries"),
            readahead_hits_counter: registry.counter("io.readahead_hits"),
            readahead_wasted_counter: registry.counter("io.readahead_wasted"),
        })
    }

    /// `entry`'s rows in `batch`, exactly filtered by its *residual*: the
    /// predicates its file's stats do not prove for every row (pruning is
    /// only conservative; a proven predicate would pass every row, so it is
    /// not evaluated). A predicate on a column the batch lacks cannot be
    /// applied here and is left to the consumer: a SQL provider reports
    /// exact only the filters on returned columns. A batch whose every row
    /// passes is handed on as it is, not copied.
    fn filter_residual(
        &self,
        entry: &ManifestEntry,
        mut batch: RecordBatch,
    ) -> Result<RecordBatch> {
        for p in &self.predicates {
            if batch.num_rows() == 0 {
                break;
            }
            let Ok(col) = batch.column_by_name(&p.column) else {
                continue;
            };
            if self.proves(entry, p)? {
                continue;
            }
            let mask = cmp_column_scalar(p.op, col, &p.literal)?;
            let selection = to_selection(&mask)?;
            if !selection.all_set() {
                batch = filter_batch(&batch, &selection)?;
            }
        }
        Ok(batch)
    }

    fn output_schema(&self) -> Result<Schema> {
        let full = self.metadata.current_schema()?;
        match &self.projection {
            Some(cols) => {
                let names: Vec<&str> = cols.iter().map(String::as_str).collect();
                Ok(full.project(&names)?)
            }
            None => Ok(full),
        }
    }

    /// The manifest at `path`, re-read while its bytes fail to parse.
    fn load_manifest(&self, path: &str, report: &mut ScanReport) -> Result<Arc<Manifest>> {
        let (loaded, rereads) =
            reread_on_corruption(&*self.store, path, self.fetch_retries, || {
                Manifest::load(&self.store, &self.io, path)
            });
        report.fetch_retries += rereads as usize;
        loaded
    }

    /// Every predicate projected through each partition field over its
    /// column ([`crate::Transform::project`], Iceberg's inclusive projection), once
    /// a scan: what an entry's partition value, or a ref's range of them,
    /// must be able to satisfy to hold a row that passes.
    fn partition_tests(&self) -> Result<Vec<PartitionTest>> {
        let schema = self.metadata.current_schema()?;
        let mut tests = Vec::new();
        for (i, field) in self.metadata.partition_spec.fields.iter().enumerate() {
            let Ok(source) = schema.field_with_name(&field.source_column) else {
                continue;
            };
            for p in (self.predicates.iter()).filter(|p| p.column == field.source_column) {
                let projected = field
                    .transform
                    .project(p.op, &p.literal, source.data_type())?;
                if let Some((op, literal)) = projected {
                    tests.push((i, op, literal));
                }
            }
        }
        Ok(tests)
    }

    /// Partition pruning + file-stats pruning for one manifest entry.
    fn entry_may_match(&self, entry: &ManifestEntry, partition: &[PartitionTest]) -> Result<bool> {
        if !spans_may_match(partition, |field| entry.partition_span(field)) {
            return Ok(false);
        }
        for p in &self.predicates {
            if !self.stats_may_match(entry, p)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Whether `entry`'s stats leave room for a row of its file passing `p`.
    /// Missing stats are conservative: the file must be scanned.
    fn stats_may_match(&self, entry: &ManifestEntry, p: &ScanPredicate) -> Result<bool> {
        Ok(match self.file_column(entry, &p.column)? {
            // A NULL satisfies no comparison.
            Some(FileColumn::Absent) => false,
            Some(FileColumn::At(_, Some(s))) => s.to_stats().may_match(p.op, &p.literal),
            _ => true,
        })
    }

    /// Whether `entry`'s stats prove `p` for every row of its file.
    fn proves(&self, entry: &ManifestEntry, p: &ScanPredicate) -> Result<bool> {
        Ok(match self.file_column(entry, &p.column)? {
            Some(FileColumn::At(_, Some(s))) => s.to_stats().must_match(p.op, &p.literal),
            _ => false,
        })
    }

    /// Whether `entry`'s stats prove every predicate of a scan that has some.
    fn proven(&self, entry: &ManifestEntry) -> Result<bool> {
        for p in &self.predicates {
            if !self.proves(entry, p)? {
                return Ok(false);
            }
        }
        Ok(!self.predicates.is_empty())
    }

    /// What `entry`'s file holds of the column the current schema calls
    /// `name` (`None`: the table has no such column). Column identity is
    /// positional across schema versions (we only append and rename), so
    /// the column is the file's at its position in the current schema, and
    /// its stats are under the name the file wrote it with — never under the
    /// current name, which after a rename may be another column's. The stats
    /// are the writer's own, computed from the values it encoded, of a
    /// write-once file; stats that count other rows than the entry's are not
    /// used. Pruning, residuals and [`Self::field_source`] all ask this.
    /// Reads the stored schemas and allocates nothing: a scan asks again
    /// wherever it needs the answer.
    fn file_column<'e>(
        &self,
        entry: &'e ManifestEntry,
        name: &str,
    ) -> Result<Option<FileColumn<'e>>> {
        let current = self.metadata.schema_def(self.metadata.current_schema_id)?;
        let Some(pos) = current.fields.iter().position(|f| f.name == name) else {
            return Ok(None);
        };
        let file_schema = self.metadata.schema_def(entry.schema_id)?;
        Ok(Some(match file_schema.fields.get(pos) {
            None => FileColumn::Absent,
            Some(file_field) => {
                let stats = (entry.column_stats.get(&file_field.name))
                    .filter(|s| s.row_count == entry.row_count);
                FileColumn::At(pos, stats)
            }
        }))
    }

    /// Where `entry`'s file gets scan field `field` from: NULL where the file
    /// predates it or its stats count every row NULL, the stats' constant
    /// where they prove one, and otherwise decoded. An entry without stats,
    /// or whose stats count other rows, is decoded.
    fn field_source(&self, entry: &ManifestEntry, field: &Field) -> Result<FieldSource> {
        let name = field.name();
        let column = (self.file_column(entry, name)?)
            .ok_or_else(|| ColumnarError::FieldNotFound(name.to_string()))?;
        Ok(match column {
            FileColumn::Absent => FieldSource::Null,
            FileColumn::At(_, Some(s)) if s.null_count == s.row_count => FieldSource::Null,
            FileColumn::At(pos, Some(s)) => {
                constant(field, s).map_or(FieldSource::Decode(pos), FieldSource::Constant)
            }
            FileColumn::At(pos, None) => FieldSource::Decode(pos),
        })
    }

    /// Whether `entry`'s file is requested at all: some scan field is
    /// decoded from it, or a predicate on a column the scan does not return
    /// applies to it through its row-group stats.
    fn reads(&self, entry: &ManifestEntry, scan_schema: &Schema) -> Result<bool> {
        if (self.predicates.iter()).any(|p| !scan_schema.contains(&p.column)) {
            return Ok(true);
        }
        for field in scan_schema.fields() {
            if let FieldSource::Decode(_) = self.field_source(entry, field)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Whether `entry`'s batch of `scan_schema` is handed on as decoded:
    /// the file's stats prove every predicate on a column it returns, so
    /// [`Self::filter_residual`] evaluates none.
    fn residual_empty(&self, entry: &ManifestEntry, scan_schema: &Schema) -> Result<bool> {
        for p in &self.predicates {
            if scan_schema.contains(&p.column) && !self.proves(entry, p)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// `entry`'s file as a scan-schema batch: its decoded fields taken from
    /// `decoded` in order, with their origin if it has one, the others
    /// built from its stats.
    fn assemble(
        &self,
        entry: &ManifestEntry,
        scan_schema: &Schema,
        decoded: &RecordBatch,
    ) -> Result<RecordBatch> {
        let rows = decoded.num_rows();
        let mut next = 0..decoded.num_columns();
        let mut columns = Vec::with_capacity(scan_schema.len());
        let mut picks = Vec::with_capacity(scan_schema.len());
        for field in scan_schema.fields() {
            let null = || Column::new_null(field.data_type(), rows);
            let (column, pick) = match self.field_source(entry, field)? {
                FieldSource::Decode(_) => match next.next() {
                    Some(i) => (decoded.column(i).clone(), Some(i)),
                    None => (null(), None),
                },
                FieldSource::Null => (null(), None),
                FieldSource::Constant(value) => (Column::from_value(&value, rows)?, None),
            };
            columns.push(column);
            picks.push(pick);
        }
        let batch = RecordBatch::try_new_with_rows(scan_schema.clone(), columns, rows)?;
        Ok(match decoded.origin() {
            Some(origin) => batch.with_origin(origin.remap(picks))?,
            None => batch,
        })
    }

    /// Read one data file: footer, row-group pruning, then the surviving
    /// chunks of the fields no stats answer, mapped to the scan schema — in
    /// as few requests as the format reader's range plan allows (one, for a
    /// file under its merge distance). With `opened` the file's opening
    /// range is not requested: a worker fetched it, and it is sliced
    /// locally, or the cache holds the file already opened. That is the only
    /// difference between the inline, the overlapped and the cached path.
    ///
    /// With `copy`, a scan of every column with no predicate copies the
    /// file's leading row groups that writer takes ([`FileWriter::copies`])
    /// into it as verified bytes and decodes only the rest. Every chunk is
    /// checksummed before the first group is copied, so a failed read
    /// leaves the writer as it was and can be done again. Otherwise, when
    /// `copyable` and the residual is empty, the batch carries the chunks
    /// of the groups it decoded as its origin
    /// ([`RangedReader::decode_groups_copyable`]), for a writer to copy.
    fn read_entry(
        &self,
        entry: &ManifestEntry,
        scan_schema: &Schema,
        opened: Option<Opened>,
        copy: Option<&mut FileWriter>,
        copyable: bool,
    ) -> Result<EntryPartial> {
        let path = ObjectPath::new(entry.file_path.clone())?;
        let file_len = entry.file_size as usize;
        let (prefetched_from, _) = RangedReader::opening_range(file_len);
        // The format reader sees fetch failures as stringly `FormatError`s;
        // stash the original store error on the side so a failed read
        // surfaces *typed* (`TableError::Store`) — retry layers classify on
        // the type, not the message.
        let store_fault = std::cell::RefCell::new(None::<StoreError>);
        let prefetched = match &opened {
            Some(Opened::Fetched(bytes)) => Some(bytes),
            _ => None,
        };
        let fetch = |start: usize, end: usize| -> lakehouse_format::Result<bytes::Bytes> {
            match prefetched {
                // A torn prefetch hands back truncated-but-Ok bytes: slice
                // what is there, and the reader's length check types it as
                // corruption exactly as it does a torn range read.
                Some(data) if start >= prefetched_from => {
                    let at = |offset: usize| (offset - prefetched_from).min(data.len());
                    Ok(data.slice(at(start)..at(end)))
                }
                _ => self.store.get_range(&path, start, end).map_err(|e| {
                    let wrapped =
                        lakehouse_format::FormatError::InvalidArgument(format!("range read: {e}"));
                    *store_fault.borrow_mut() = Some(e);
                    wrapped
                }),
            }
        };
        // A failed fetch is the store's error, not the format's.
        let typed = |e: lakehouse_format::FormatError| match store_fault.take() {
            Some(fault) => TableError::Store(fault),
            None => TableError::from(e),
        };
        let reader = match &opened {
            Some(Opened::Reader(reader)) => Arc::clone(reader),
            _ => Arc::new(RangedReader::open(file_len, &fetch).map_err(typed)?),
        };
        let current = self.metadata.current_schema()?;

        // Row-group pruning by any predicate whose column exists in the file
        // (matched positionally through the schema history).
        let mut zone_maps = Vec::new();
        for p in &self.predicates {
            if let Some(FileColumn::At(pos, _)) = self.file_column(entry, &p.column)? {
                zone_maps.push((pos, p));
            }
        }
        let groups: Vec<usize> = (0..reader.num_row_groups())
            .filter(|&g| {
                let stats = &reader.row_group_meta(g).stats;
                let may = |c: usize, p: &ScanPredicate| {
                    stats.get(c).is_none_or(|s| s.may_match(p.op, &p.literal))
                };
                zone_maps.iter().all(|&(c, p)| may(c, p))
            })
            .collect();
        let row_groups_scanned = groups.len();

        // Decode only the file columns no stats answer; the decoded
        // columns, moved, are those fields in scan-schema order.
        let mut projection = Vec::new();
        for field in scan_schema.fields() {
            if let FieldSource::Decode(pos) = self.field_source(entry, field)? {
                projection.push(pos);
            }
        }
        let copied = match &copy {
            Some(w) if self.predicates.is_empty() && *scan_schema == current => (groups.iter())
                .take_while(|&&g| w.copies(reader.schema(), reader.row_group_meta(g).row_count))
                .count(),
            _ => 0,
        };
        let (copied, decoded) = groups.split_at(copied);
        let mut chunks = reader.chunks(copied, None)?;
        chunks.extend(reader.chunks(decoded, Some(&projection))?);
        let fetched = reader.fetch_chunks(&chunks, &fetch).map_err(typed)?;
        let raw = (copied.iter())
            .map(|&g| reader.raw_group(&fetched, g))
            .collect::<lakehouse_format::Result<Vec<_>>>()?;
        let batch = match copy.is_none() && copyable && self.residual_empty(entry, scan_schema)? {
            true => reader.decode_groups_copyable(&fetched, decoded, Some(&projection))?,
            false => reader.decode_groups(&fetched, decoded, Some(&projection))?,
        };
        let partial = EntryPartial {
            batch: self.assemble(entry, scan_schema, &batch)?,
            bytes_scanned: reader.bytes_needed(&chunks)?,
            row_groups_scanned,
            reader: Arc::clone(&reader),
        };
        if let Some(writer) = copy {
            for group in &raw {
                writer.copy_group(group)?;
            }
        }
        Ok(partial)
    }
}

/// A pull-based scan yielding one exact-filtered batch per surviving data
/// file, in manifest order (so draining it fully and concatenating equals
/// the materialized [`TableScan::execute`] byte for byte).
///
/// Files are requested lazily, a widening window ahead of the consumer, so
/// peak memory is bounded by one window of fetched files plus whatever the
/// consumer retains — and a consumer that stops pulling leaves the rest of
/// the table untouched ([`ScanReport::files_read`] records how far it got).
pub struct ScanStream {
    scan: TableScan,
    scan_schema: Schema,
    /// The snapshot's manifests that survived pruning, in scan order.
    manifests: Vec<Arc<Manifest>>,
    /// The entries that survived pruning and are not yet pending.
    entries: VecDeque<EntryAt>,
    /// Entries taken into the window but not yet settled, in manifest
    /// order, each read one with how its read starts.
    pending: VecDeque<(EntryAt, Option<Opening>)>,
    ready: VecDeque<RecordBatch>,
    /// Requests the next pull may have in flight; doubles per pull up to
    /// the number of lanes.
    window: usize,
    report: ScanReport,
    /// Simulated time booked per logical lane: as many as the dispatcher
    /// runs requests at once, one when every read is inline.
    lanes: Vec<u64>,
    prelude_nanos: u64,
    hits_start: u64,
    /// Whether a file read from the store is offered to the cache: the
    /// table has one and this is no bulk scan.
    admits: bool,
    /// Whether a batch may carry the chunks it is the decode of: no row
    /// budget cuts this stream short.
    copyable: bool,
    files_read_counter: Arc<lakehouse_obs::Counter>,
    files_proven_counter: Arc<lakehouse_obs::Counter>,
    rows_counter: Arc<lakehouse_obs::Counter>,
    bytes_counter: Arc<lakehouse_obs::Counter>,
    fetch_retries_counter: Arc<lakehouse_obs::Counter>,
    readahead_hits_counter: Arc<lakehouse_obs::Counter>,
    readahead_wasted_counter: Arc<lakehouse_obs::Counter>,
}

impl ScanStream {
    /// Scan statistics accumulated so far; final once the stream returns
    /// `None` (or is dropped early — counters then cover only what was
    /// actually read).
    pub fn report(&self) -> ScanReport {
        let mut report = self.report.clone();
        let worker_max = self.lanes.iter().max().copied().unwrap_or(0);
        report.wall_clock_simulated =
            std::time::Duration::from_nanos(self.prelude_nanos + worker_max);
        let cache = self.scan.io.cache.as_ref();
        report.cache_hits = cache.map_or(0, |c| c.hits() - self.hits_start);
        report
    }

    /// Pull the next batch, with the scan's own error type (the
    /// [`lakehouse_columnar::BatchStream`] impl wraps this for the SQL
    /// pipeline; [`TableScan::execute_with_report`] drains it directly).
    pub fn pull(&mut self) -> Result<Option<RecordBatch>> {
        self.pull_into(None)
    }

    /// [`Self::pull`] for a consumer that writes each batch it pulls into
    /// `writer` before it pulls again (a compaction): a file's leading row
    /// groups that `writer` takes as they are are copied into it
    /// ([`TableScan::read_entry`]) and only the rest is returned. A file
    /// settles only while nothing is ready, so the writer then holds every
    /// row before the file's.
    pub(crate) fn pull_copying(&mut self, writer: &mut FileWriter) -> Result<Option<RecordBatch>> {
        self.pull_into(Some(writer))
    }

    fn pull_into(&mut self, mut copy: Option<&mut FileWriter>) -> Result<Option<RecordBatch>> {
        while self.ready.is_empty() && !(self.entries.is_empty() && self.pending.is_empty()) {
            // Per-file cooperative cancellation point: a killed query stops
            // fetching before the next file is requested (the Drop impl then
            // cancels any request still in flight).
            if let Err(reason) = lakehouse_obs::check_current() {
                return Err(TableError::Store(StoreError::QueryKilled { reason }));
            }
            self.refill(copy.as_deref_mut())?;
        }
        Ok(self.ready.pop_front())
    }

    /// Settle the next entry in manifest order. One its manifest entry
    /// answers is built here, with no request and no span. One that is read
    /// goes through the dispatcher when a request is already in flight or
    /// the window allows one beside it, and is read on this thread otherwise
    /// (the first pull of a stream, a scan's only file, a table without
    /// workers) — a lone request gains nothing from a hand-off.
    fn refill(&mut self, copy: Option<&mut FileWriter>) -> Result<()> {
        let overlap = !self.pending.is_empty() || (self.window > 1 && self.entries.len() > 1);
        let dispatcher = self.scan.io.dispatcher.clone().filter(|_| overlap);
        if let Some(io) = &dispatcher {
            self.submit_window(io)?;
        }
        let (at, opening) = match self.pending.pop_front() {
            Some(submitted) => submitted,
            None => match self.entries.pop_front() {
                Some(at) => (at, None),
                None => return Ok(()),
            },
        };
        let entry = self.entry(at);
        // A taken-in entry that is read already has its opening.
        if opening.is_none() && !self.scan.reads(entry, &self.scan_schema)? {
            let rows = entry.row_count as usize;
            let none = RecordBatch::try_new_with_rows(Schema::new(Vec::new()), Vec::new(), rows)?;
            let batch = (self.scan).assemble(entry, &self.scan_schema, &none)?;
            self.report.files_from_metadata += 1;
            lakehouse_obs::global()
                .counter("scan.files_from_metadata")
                .inc();
            return self.emit(at, batch);
        }
        let opening = opening.or_else(|| self.cached(at).map(Opening::Cached));
        let span = lakehouse_obs::span("scan.fetch");
        span.attr("files", 1usize);
        let metrics = self.scan.store.store_metrics();
        let lane_start = metrics.as_ref().map(|m| m.lane_nanos()).unwrap_or(0);
        // A file the cache did not have is offered to it, unless it feeds a
        // compaction's writer.
        let admit = self.admits && copy.is_none() && !matches!(opening, Some(Opening::Cached(_)));
        let (opened, mut sim_nanos) = match (opening, &dispatcher) {
            (Some(Opening::Cached(reader)), _) => {
                span.attr("cached", true);
                (Some(Ok(Opened::Reader(reader))), 0)
            }
            (Some(Opening::Submitted(ticket)), Some(io)) => {
                let done = io.wait(ticket);
                self.readahead_hits_counter.inc();
                (Some(done.result.map(Opened::Fetched)), done.sim_nanos)
            }
            _ => (None, 0),
        };
        let (outcome, retries) = self.read_retrying(at, opened, copy);
        sim_nanos += metrics
            .as_ref()
            .map(|m| m.lane_nanos() - lane_start)
            .unwrap_or(0);
        if retries > 0 {
            span.attr("retries", retries as u64);
        }
        self.offer(at, &outcome, retries, admit);
        self.settle(at, outcome?, retries, sim_nanos)?;
        self.window = self.window.saturating_mul(2).min(self.lanes.len());
        Ok(())
    }

    /// Top the pending entries up to the window: each upcoming entry that
    /// is read and not in the cache has its opening range — the whole file
    /// when it is small, its tail otherwise; exactly what the reader would
    /// ask for first — sent to the dispatcher, and so through the full store
    /// stack like any demand fetch. One the cache holds takes its reader and
    /// no ticket; one its manifest entry answers keeps its place unrequested.
    fn submit_window(&mut self, io: &IoDispatcher) -> Result<()> {
        while self.pending.len() < self.window {
            let Some(at) = self.entries.pop_front() else {
                break;
            };
            let entry = self.entry(at);
            let opening = if !self.scan.reads(entry, &self.scan_schema)? {
                None
            } else if let Some(reader) = self.cached(at) {
                Some(Opening::Cached(reader))
            } else {
                let path = ObjectPath::new(entry.file_path.clone())?;
                let (start, end) = RangedReader::opening_range(entry.file_size as usize);
                Some(Opening::Submitted(io.submit_get_range(&path, start, end)))
            };
            self.pending.push_back((at, opening));
        }
        Ok(())
    }

    /// After a read of entry `at`'s file: keep the file opened when `admit`,
    /// the read succeeded on its first try and every chunk it holds matches
    /// its checksum; forget it when the read failed or needed a re-read.
    fn offer(&self, at: EntryAt, outcome: &Result<EntryPartial>, retries: u32, admit: bool) {
        let Some(cache) = &self.scan.io.cache else {
            return;
        };
        let path = &self.entry(at).file_path;
        match outcome {
            Ok(partial) if retries == 0 => {
                if admit && partial.reader.resident_intact() {
                    let bytes = partial.reader.resident_len();
                    cache.insert(path, Arc::clone(&partial.reader), bytes);
                }
            }
            _ => cache.remove(path),
        }
    }

    /// Entry `at`'s file as an earlier read opened it, from the cache.
    fn cached(&self, at: EntryAt) -> Option<Arc<RangedReader>> {
        let cache = self.scan.io.cache.as_ref()?;
        cache.get::<RangedReader>(&self.entry(at).file_path)
    }

    /// Decode one entry — from its cached reader or prefetched opening
    /// range when it has one. A read whose bytes fail a checksum is done
    /// again from scratch on this thread (footer and chunks — partial
    /// progress is useless without the footer anyway), up to
    /// `fetch_retries` times. Returns the outcome and the re-reads used.
    fn read_retrying(
        &self,
        at: EntryAt,
        mut opened: Option<lakehouse_store::Result<Opened>>,
        mut copy: Option<&mut FileWriter>,
    ) -> (Result<EntryPartial>, u32) {
        let entry = self.entry(at);
        let mut read = |opened: Option<Opened>| {
            let copy = copy.as_deref_mut();
            (self.scan).read_entry(entry, &self.scan_schema, opened, copy, self.copyable)
        };
        // Only the first read starts from what was opened before it.
        reread_on_corruption(
            &*self.scan.store,
            &entry.file_path,
            self.scan.fetch_retries,
            || match opened.take() {
                Some(Ok(opened)) => read(Some(opened)),
                Some(Err(e)) => Err(TableError::Store(e)),
                None => read(None),
            },
        )
    }

    fn entry(&self, (manifest, entry): EntryAt) -> &ManifestEntry {
        &self.manifests[manifest].entries[entry]
    }

    /// Book entry `at`, which was read: its simulated time onto the
    /// least-loaded lane, its re-reads, and its batch onto the ready queue.
    fn settle(
        &mut self,
        at: EntryAt,
        partial: EntryPartial,
        retries: u32,
        sim_nanos: u64,
    ) -> Result<()> {
        if let Some(min_lane) = self.lanes.iter_mut().min() {
            *min_lane += sim_nanos;
        }
        if retries > 0 {
            self.report.fetch_retries += retries as usize;
            self.fetch_retries_counter.add(retries as u64);
        }
        self.report.files_read += 1;
        self.report.bytes_scanned += partial.bytes_scanned;
        self.report.row_groups_scanned += partial.row_groups_scanned;
        self.files_read_counter.inc();
        self.bytes_counter.add(partial.bytes_scanned);
        self.emit(at, partial.batch)
    }

    /// Entry `at`'s batch, filtered by its residual, onto the ready queue.
    fn emit(&mut self, at: EntryAt, batch: RecordBatch) -> Result<()> {
        if self.scan.proven(self.entry(at))? {
            self.report.files_proven += 1;
            self.files_proven_counter.inc();
        }
        let batch = self.scan.filter_residual(self.entry(at), batch)?;
        if batch.num_rows() > 0 {
            self.report.rows_emitted += batch.num_rows();
            self.rows_counter.add(batch.num_rows() as u64);
            self.ready.push_back(batch);
        }
        Ok(())
    }
}

impl Drop for ScanStream {
    /// Early termination (a satisfied streaming `LIMIT` drops the stream)
    /// must not leave submitted requests to run: dropping a ticket cancels
    /// it — a queued request never reaches the backend, a running one's
    /// result is discarded.
    fn drop(&mut self) {
        let submitted = (self.pending.iter())
            .filter(|(_, opening)| matches!(opening, Some(Opening::Submitted(_))));
        self.readahead_wasted_counter.add(submitted.count() as u64);
        self.pending.clear();
    }
}

impl lakehouse_columnar::BatchStream for ScanStream {
    fn schema(&self) -> &Schema {
        &self.scan_schema
    }

    fn next_batch(&mut self) -> lakehouse_columnar::error::Result<Option<RecordBatch>> {
        self.pull()
            .map_err(|e| ColumnarError::External(Arc::new(e)))
    }
}

/// The value on every row of `field`, when its file stats `s` prove one:
/// no NULL and `min == max`, for a type whose equal stats fix every bit.
/// Not a float (`-0.0 == 0.0`), and not a string, whose decoded form —
/// dictionary or plain — depends on the chunk it came from.
fn constant(field: &Field, s: &StatsDef) -> Option<Value> {
    use lakehouse_columnar::DataType::{Bool, Date, Int64, Timestamp};
    let dt = field.data_type();
    let exact = matches!(dt, Int64 | Date | Timestamp | Bool);
    if !exact || s.null_count != 0 || s.min != s.max {
        return None;
    }
    let value = s.min.to_value();
    (value.data_type() == Some(dt)).then_some(value)
}

/// Whether the partition values at each field, spanning `span(field)`, may
/// satisfy every projected test: the one range rule, applied to an entry's
/// values and to a ref's ranges alike.
fn spans_may_match(tests: &[PartitionTest], span: impl Fn(usize) -> ColumnStats) -> bool {
    (tests.iter()).all(|(field, op, literal)| span(*field).may_match(*op, literal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionField, PartitionSpec, Transform};
    use crate::schema_def::ValueDef;
    use crate::snapshot::SnapshotOperation;
    use crate::table::Table;
    use lakehouse_columnar::DataType;
    use lakehouse_store::InMemoryStore;
    use std::collections::BTreeMap;

    fn taxi_schema() -> Schema {
        Schema::new(vec![
            Field::new("pickup_at", DataType::Date, false),
            Field::new("zone", DataType::Utf8, false),
            Field::new("fare", DataType::Float64, false),
        ])
    }

    fn taxi_batch(days: Vec<i32>, zones: Vec<&str>, fares: Vec<f64>) -> RecordBatch {
        RecordBatch::try_new(
            taxi_schema(),
            vec![
                Column::from_date(days),
                Column::from_strs(zones),
                Column::from_f64(fares),
            ],
        )
        .unwrap()
    }

    fn make_table(spec: PartitionSpec) -> Table {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let t = Table::create(Arc::clone(&store), "wh/taxi", &taxi_schema(), spec).unwrap();
        let mut tx = t.new_transaction(SnapshotOperation::Append);
        tx.write(&taxi_batch(
            vec![100, 100, 200, 200, 300],
            vec!["a", "b", "a", "b", "a"],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        ))
        .unwrap();
        let (loc, _) = tx.commit().unwrap();
        Table::load(store, &loc).unwrap()
    }

    #[test]
    fn full_scan() {
        let t = make_table(PartitionSpec::unpartitioned());
        let b = t.scan().execute().unwrap();
        assert_eq!(b.num_rows(), 5);
    }

    #[test]
    fn predicate_filters_rows_exactly() {
        let t = make_table(PartitionSpec::unpartitioned());
        let b = t
            .scan()
            .with_predicate(ScanPredicate::new("fare", CmpOp::Gt, Value::Float64(2.5)))
            .execute()
            .unwrap();
        assert_eq!(b.num_rows(), 3);
    }

    #[test]
    fn projection_selects_columns() {
        let t = make_table(PartitionSpec::unpartitioned());
        let b = t.scan().select(&["fare", "zone"]).execute().unwrap();
        assert_eq!(b.schema().names(), vec!["fare", "zone"]);
    }

    #[test]
    fn a_batch_whose_every_row_passes_is_handed_on_uncopied() {
        let t = make_table(PartitionSpec::unpartitioned());
        let scan = t
            .scan()
            .with_predicate(ScanPredicate::new("fare", CmpOp::Eq, Value::Float64(3.0)))
            .with_predicate(ScanPredicate::new("pickup_at", CmpOp::GtEq, Value::Date(1)))
            .with_predicate(ScanPredicate::new("absent", CmpOp::Eq, Value::Int64(0)));
        let fares = |b: &RecordBatch| b.column(2).as_f64().unwrap().0.as_ptr();
        // A file without stats proves nothing: every predicate is evaluated.
        let entry = entry_with(BTreeMap::new());
        let filter = |batch| scan.filter_residual(&entry, batch).unwrap();
        // Every row passes every predicate: the same buffers come back.
        let whole = taxi_batch(vec![1, 2, 3], vec!["a", "b", "c"], vec![3.0, 3.0, 3.0]);
        let before = fares(&whole);
        let out = filter(whole);
        assert_eq!((out.num_rows(), fares(&out)), (3, before));
        // Some pass, none pass: filtered as ever.
        let part = taxi_batch(vec![6, 7, 8], vec!["a", "b", "c"], vec![3.0, 4.0, 3.0]);
        let out = filter(part);
        assert_eq!(out.column(0), &Column::from_date(vec![6, 8]));
        let none = taxi_batch(vec![4, 5], vec!["a", "b"], vec![1.0, 5.0]);
        assert_eq!(filter(none).num_rows(), 0);
    }

    /// A three-row file of `taxi_schema` with these stats.
    fn entry_with(column_stats: BTreeMap<String, StatsDef>) -> ManifestEntry {
        ManifestEntry {
            file_path: "f".into(),
            row_count: 3,
            file_size: 0,
            partition: vec![],
            column_stats,
            schema_id: 0,
        }
    }

    #[test]
    fn a_predicate_the_stats_prove_is_not_evaluated() {
        let t = make_table(PartitionSpec::unpartitioned());
        let stats = |min, max, null_count| StatsDef {
            min: ValueDef::Float(min),
            max: ValueDef::Float(max),
            null_count,
            row_count: 3,
        };
        let fare_at_least = |f| ScanPredicate::new("fare", CmpOp::GtEq, Value::Float64(f));
        let scan = t.scan().with_predicate(fare_at_least(2.0));
        // Rows that break what the stats claim show which were compared.
        let batch = || taxi_batch(vec![1, 2, 3], vec!["a", "b", "c"], vec![1.0, 2.0, 3.0]);
        let rows_and_proven = |scan: &TableScan, entry: &ManifestEntry| {
            let out = scan.filter_residual(entry, batch()).unwrap();
            (out.num_rows(), scan.proven(entry).unwrap())
        };
        let proving = entry_with(BTreeMap::from([("fare".into(), stats(2.0, 3.0, 0))]));
        assert_eq!(rows_and_proven(&scan, &proving), (3, true));
        // A NULL, a bound on the wrong side, or stats of other rows: evaluated.
        let miscounted = StatsDef {
            row_count: 4,
            ..stats(2.0, 3.0, 0)
        };
        for s in [stats(2.0, 3.0, 1), stats(1.0, 3.0, 0), miscounted] {
            let entry = entry_with(BTreeMap::from([("fare".into(), s)]));
            assert_eq!(rows_and_proven(&scan, &entry), (2, false));
        }
        // A scan without predicates filters nothing, and proves nothing.
        assert_eq!(rows_and_proven(&t.scan(), &proving), (3, false));
    }

    #[test]
    fn partition_pruning_skips_files() {
        let t = make_table(PartitionSpec::identity("zone"));
        let (b, report) = t
            .scan()
            .with_predicate(ScanPredicate::new(
                "zone",
                CmpOp::Eq,
                Value::Utf8("a".into()),
            ))
            .execute_with_report()
            .unwrap();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(report.files_total, 2);
        assert_eq!(report.files_scanned, 1);
        assert!(report.bytes_scanned < report.bytes_total);
    }

    #[test]
    fn day_transform_partition_pruning() {
        let spec = PartitionSpec::new(vec![PartitionField {
            source_column: "pickup_at".into(),
            transform: Transform::Day,
        }]);
        let t = make_table(spec);
        let (b, report) = t
            .scan()
            .with_predicate(ScanPredicate::new(
                "pickup_at",
                CmpOp::GtEq,
                Value::Date(200),
            ))
            .execute_with_report()
            .unwrap();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(report.files_scanned, 2); // days 200 and 300 of 3 files
    }

    #[test]
    fn a_ref_outside_the_predicate_is_counted_not_read() {
        let spec = PartitionSpec::new(vec![PartitionField {
            source_column: "pickup_at".into(),
            transform: Transform::Day,
        }]);
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let mut t = Table::create(Arc::clone(&store), "wh/days", &taxi_schema(), spec).unwrap();
        for day in [100, 200, 300] {
            let mut tx = t.new_transaction(SnapshotOperation::Append);
            tx.write(&taxi_batch(vec![day, day], vec!["a", "b"], vec![1.0, 2.0]))
                .unwrap();
            t = tx.commit_table().unwrap();
        }
        // Day 100's manifest is gone: only a scan that has to read it fails.
        let first = t.metadata().snapshots[0].manifest_path.clone();
        store.delete(&ObjectPath::new(first).unwrap()).unwrap();
        let later = ScanPredicate::new("pickup_at", CmpOp::GtEq, Value::Date(150));
        let (b, report) = t
            .scan()
            .with_predicate(later)
            .execute_with_report()
            .unwrap();
        assert_eq!(b.num_rows(), 4);
        assert_eq!((report.files_total, report.files_scanned), (3, 2));
        assert!(report.bytes_scanned < report.bytes_total);
        assert!(t.scan().execute().is_err());
    }

    #[test]
    fn stats_pruning_without_partitioning() {
        let t = make_table(PartitionSpec::unpartitioned());
        let (b, report) = t
            .scan()
            .with_predicate(ScanPredicate::new("fare", CmpOp::Gt, Value::Float64(100.0)))
            .execute_with_report()
            .unwrap();
        assert_eq!(b.num_rows(), 0);
        assert_eq!(report.files_scanned, 0); // pruned by file stats
    }

    #[test]
    fn time_travel_scans_old_snapshot() {
        let t = make_table(PartitionSpec::unpartitioned());
        // Overwrite with new data.
        let mut tx = t.new_transaction(SnapshotOperation::Overwrite);
        tx.write(&taxi_batch(vec![999], vec!["z"], vec![9.9]))
            .unwrap();
        let (loc, meta) = tx.commit().unwrap();
        let t2 = Table::load(Arc::clone(t.store()), &loc).unwrap();
        assert_eq!(t2.scan().execute().unwrap().num_rows(), 1);
        // The first snapshot still returns the original five rows.
        let first_id = meta.snapshots[0].snapshot_id;
        let old = t2.scan().at_snapshot(first_id).execute().unwrap();
        assert_eq!(old.num_rows(), 5);
    }

    #[test]
    fn scan_missing_snapshot_errors() {
        let t = make_table(PartitionSpec::unpartitioned());
        assert!(t.scan().at_snapshot(999).execute().is_err());
    }

    #[test]
    fn empty_table_scan() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let t = Table::create(
            store,
            "wh/empty",
            &taxi_schema(),
            PartitionSpec::unpartitioned(),
        )
        .unwrap();
        let b = t.scan().execute().unwrap();
        assert_eq!(b.num_rows(), 0);
        assert_eq!(b.schema().len(), 3);
    }

    #[test]
    fn conjunctive_predicates() {
        let t = make_table(PartitionSpec::unpartitioned());
        let b = t
            .scan()
            .with_predicate(ScanPredicate::new(
                "zone",
                CmpOp::Eq,
                Value::Utf8("a".into()),
            ))
            .with_predicate(ScanPredicate::new("fare", CmpOp::Lt, Value::Float64(4.0)))
            .execute()
            .unwrap();
        assert_eq!(b.num_rows(), 2); // fares 1.0 and 3.0 in zone a
    }

    #[test]
    fn predicate_on_non_projected_column_is_skipped() {
        // Regression: the exact re-filter used to error on a pushed-down
        // predicate whose column was projected away. It must now return the
        // (conservatively wider) projected batch instead.
        let t = make_table(PartitionSpec::unpartitioned());
        let b = t
            .scan()
            .with_predicate(ScanPredicate::new("fare", CmpOp::Gt, Value::Float64(2.5)))
            .select(&["zone"])
            .execute()
            .unwrap();
        assert_eq!(b.schema().names(), vec!["zone"]);
        // No file/stat pruning applies, and the exact filter is skipped, so
        // all rows of the single file come back (the SQL executor would
        // re-filter exactly).
        assert_eq!(b.num_rows(), 5);
    }

    /// Eight one-row files on a deterministic S3-like store, and the table
    /// reopened with `depth` workers (`None`: every read inline).
    fn eight_files(depth: Option<usize>) -> (Table, Option<Arc<IoDispatcher>>) {
        use lakehouse_store::{LatencyModel, SimulatedStore};
        let sim: Arc<dyn ObjectStore> = Arc::new(SimulatedStore::new(
            InMemoryStore::new(),
            LatencyModel {
                sigma: 0.0,
                ..LatencyModel::s3_like()
            },
        ));
        let t = Table::create(
            Arc::clone(&sim),
            "wh/par",
            &taxi_schema(),
            PartitionSpec::identity("zone"),
        )
        .unwrap();
        let mut tx = t.new_transaction(SnapshotOperation::Append);
        let zones: Vec<String> = (0..8).map(|i| format!("z{i}")).collect();
        tx.write(&taxi_batch(
            (0..8).map(|i| 100 + i).collect(),
            zones.iter().map(String::as_str).collect(),
            (0..8).map(|i| i as f64).collect(),
        ))
        .unwrap();
        let (loc, _) = tx.commit().unwrap();
        let dispatcher =
            depth.map(|d| Arc::new(IoDispatcher::new(Arc::clone(&sim), d, None).unwrap()));
        let io = TableIo {
            dispatcher: dispatcher.clone(),
            ..TableIo::default()
        };
        (Table::load_with(sim, &loc, io).unwrap(), dispatcher)
    }

    #[test]
    fn overlapped_scan_identical_to_inline_and_shorter_on_the_modelled_clock() {
        let scan = |t: &Table| {
            t.scan()
                .with_predicate(ScanPredicate::new("fare", CmpOp::Lt, Value::Float64(6.5)))
                .select(&["zone", "fare"])
                .execute_with_report()
                .unwrap()
        };
        let (inline, ir) = scan(&eight_files(None).0);
        assert!(ir.wall_clock_simulated > std::time::Duration::ZERO);
        for depth in [2, 8] {
            let (table, io) = eight_files(Some(depth));
            let (overlapped, or) = scan(&table);
            assert_eq!(inline, overlapped, "depth {depth} changed output");
            assert_eq!(ir.files_scanned, or.files_scanned);
            assert_eq!(ir.files_read, or.files_read);
            assert_eq!(ir.bytes_scanned, or.bytes_scanned);
            assert_eq!(ir.row_groups_scanned, or.row_groups_scanned);
            assert_eq!(ir.rows_emitted, or.rows_emitted);
            let stats = io.unwrap().stats();
            assert_eq!(stats.submitted, 7, "one request per surviving file");
            assert_eq!(stats.inflight, 0, "all submissions consumed");
            if depth == 8 {
                // 7 files over 8 lanes: the modelled wall clock must at
                // least halve.
                assert!(
                    or.wall_clock_simulated * 2 < ir.wall_clock_simulated,
                    "overlapped {:?} vs inline {:?}",
                    or.wall_clock_simulated,
                    ir.wall_clock_simulated
                );
            }
        }
    }

    #[test]
    fn a_single_file_scan_never_leaves_the_callers_thread() {
        let (table, io) = eight_files(Some(8));
        let (batch, report) = table
            .scan()
            .with_predicate(ScanPredicate::new(
                "zone",
                CmpOp::Eq,
                Value::Utf8("z3".into()),
            ))
            .execute_with_report()
            .unwrap();
        assert_eq!((batch.num_rows(), report.files_read), (1, 1));
        assert_eq!(io.unwrap().stats().submitted, 0);
    }

    #[test]
    fn a_pulled_stream_ramps_its_window_and_cancels_what_it_abandons() {
        use lakehouse_columnar::BatchStream;
        let (table, io) = eight_files(Some(8));
        let io = io.unwrap();
        let mut stream = table.scan().stream().unwrap();
        // First pull: one file, inline — a satisfied LIMIT has read one.
        assert!(stream.next_batch().unwrap().is_some());
        assert_eq!(stream.report().files_read, 1);
        assert_eq!(io.stats().submitted, 0);
        // Second pull: two requests in flight, one consumed.
        assert!(stream.next_batch().unwrap().is_some());
        assert_eq!(io.stats().submitted, 2);
        // Third: the window is four wide — one left over plus three more.
        assert!(stream.next_batch().unwrap().is_some());
        assert_eq!(io.stats().submitted, 5);
        assert_eq!(stream.report().files_read, 3);
        drop(stream);
        let stats = io.stats();
        assert_eq!(stats.cancelled, 3, "dropping the stream cancels the rest");
        assert_eq!(stats.inflight, 0, "no submission may be left dangling");
    }

    #[test]
    fn warm_scan_takes_the_manifest_from_the_cache() {
        use crate::cache::ObjectCache;
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let io = TableIo {
            cache: Some(Arc::new(ObjectCache::new())),
            ..TableIo::default()
        };
        let t = Table::create_with(
            Arc::clone(&store),
            "wh/cached",
            &taxi_schema(),
            PartitionSpec::unpartitioned(),
            io.clone(),
        )
        .unwrap();
        let mut tx = t.new_transaction(SnapshotOperation::Append);
        tx.write(&taxi_batch(vec![1, 2], vec!["a", "b"], vec![1.0, 2.0]))
            .unwrap();
        let (loc, meta) = tx.commit().unwrap();
        // The commit wrote both documents through: loading and scanning the
        // new version reads neither, even with the objects gone.
        let manifest = &meta.current_snapshot().unwrap().manifest_path;
        store
            .delete(&ObjectPath::new(manifest.clone()).unwrap())
            .unwrap();
        store
            .delete(&ObjectPath::new(loc.clone()).unwrap())
            .unwrap();
        let t = Table::load_with(Arc::clone(&store), &loc, io).unwrap();
        let (b, warm) = t.scan().execute_with_report().unwrap();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(warm.cache_hits, 1, "the manifest");
        // A handle without the cache goes to the store.
        assert!(Table::load(store, &loc).is_err());
    }

    #[test]
    fn stream_matches_materialized_scan() {
        use lakehouse_columnar::BatchStream;
        let t = make_table(PartitionSpec::identity("zone"));
        let (materialized, mat_report) = t
            .scan()
            .with_predicate(ScanPredicate::new("fare", CmpOp::Lt, Value::Float64(4.5)))
            .execute_with_report()
            .unwrap();
        let mut stream = t
            .scan()
            .with_predicate(ScanPredicate::new("fare", CmpOp::Lt, Value::Float64(4.5)))
            .stream()
            .unwrap();
        let mut batches = Vec::new();
        while let Some(b) = stream.next_batch().unwrap() {
            batches.push(b);
        }
        // One batch per surviving file; concat equals the materialized scan.
        assert_eq!(batches.len(), 2);
        assert_eq!(RecordBatch::concat(&batches).unwrap(), materialized);
        let report = stream.report();
        assert_eq!(report.files_scanned, mat_report.files_scanned);
        assert_eq!(report.files_read, mat_report.files_read);
        assert_eq!(report.bytes_scanned, mat_report.bytes_scanned);
        assert_eq!(report.rows_emitted, mat_report.rows_emitted);
    }

    #[test]
    fn abandoned_stream_leaves_files_unread() {
        use lakehouse_columnar::BatchStream;
        // One file per zone value; without workers every pull reads exactly
        // one file.
        let t = make_table(PartitionSpec::identity("zone"));
        let mut stream = t.scan().stream().unwrap();
        let first = stream.next_batch().unwrap().unwrap();
        assert!(first.num_rows() > 0);
        let report = stream.report();
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.files_read, 1, "second file must not be fetched");
    }

    #[test]
    fn empty_table_stream() {
        use lakehouse_columnar::BatchStream;
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let t = Table::create(
            store,
            "wh/empty2",
            &taxi_schema(),
            PartitionSpec::unpartitioned(),
        )
        .unwrap();
        let mut stream = t.scan().stream().unwrap();
        assert!(stream.next_batch().unwrap().is_none());
        assert_eq!(stream.schema().len(), 3);
    }

    #[test]
    fn fetch_retries_mask_transient_faults() {
        use lakehouse_store::{ChaosConfig, ChaosStore, RetryPolicy, RetryStore};
        let base = Arc::new(InMemoryStore::new());
        let plain: Arc<dyn ObjectStore> = base.clone();
        let t = Table::create(
            Arc::clone(&plain),
            "wh/retry",
            &taxi_schema(),
            PartitionSpec::identity("zone"),
        )
        .unwrap();
        let mut tx = t.new_transaction(SnapshotOperation::Append);
        tx.write(&taxi_batch(
            vec![100, 100, 200, 200, 300],
            vec!["a", "b", "a", "b", "a"],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        ))
        .unwrap();
        let (loc, _) = tx.commit().unwrap();
        let baseline = Table::load(Arc::clone(&plain), &loc)
            .unwrap()
            .scan()
            .execute()
            .unwrap();

        // Same objects behind a 50%-fault chaos layer (seeded). The scan
        // retries nothing the store reports: the `RetryStore` between them
        // does, for the metadata load as for the data files.
        let chaos = ChaosStore::new(
            Arc::clone(&base) as Arc<dyn ObjectStore>,
            ChaosConfig::new(7).with_fault_p(0.5),
        );
        let retrying = Arc::new(RetryStore::new(
            chaos,
            RetryPolicy::default().with_max_retries(16),
        ));
        let store: Arc<dyn ObjectStore> = retrying.clone();
        let (batch, report) = Table::load(store, &loc)
            .unwrap()
            .scan()
            .execute_with_report()
            .unwrap();
        assert_eq!(batch, baseline, "retried scan must be byte-identical");
        assert_eq!(report.fetch_retries, 0, "no checksum failed");
        assert!(
            retrying.retries() > 0,
            "seed 7 at p=0.5 must fault at least one read"
        );
    }

    #[test]
    fn row_group_pruning_counts() {
        // Many row groups: write with tiny groups.
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let t = Table::create_with(
            Arc::clone(&store),
            "wh/rg",
            &Schema::new(vec![Field::new("x", DataType::Int64, false)]),
            PartitionSpec::unpartitioned(),
            in_groups_of(10),
        )
        .unwrap();
        let mut tx = t.new_transaction(SnapshotOperation::Append);
        tx.write(
            &RecordBatch::try_new(
                Schema::new(vec![Field::new("x", DataType::Int64, false)]),
                vec![Column::from_i64((0..100).collect())],
            )
            .unwrap(),
        )
        .unwrap();
        let (loc, _) = tx.commit().unwrap();
        let t = Table::load(store, &loc).unwrap();
        let (b, report) = t
            .scan()
            .with_predicate(ScanPredicate::new("x", CmpOp::GtEq, Value::Int64(85)))
            .execute_with_report()
            .unwrap();
        assert_eq!(b.num_rows(), 15);
        assert_eq!(report.row_groups_scanned, 2); // groups [80,89] and [90,99]
    }

    fn by_day() -> PartitionSpec {
        PartitionSpec::new(vec![PartitionField {
            source_column: "pickup_at".into(),
            transform: Transform::Day,
        }])
    }

    /// Table I/O that writes row groups of `rows` rows.
    fn in_groups_of(rows: usize) -> TableIo {
        TableIo {
            writer_options: lakehouse_format::WriterOptions {
                row_group_rows: rows,
            },
            ..TableIo::default()
        }
    }

    /// One committed write of `batch` to a fresh unpartitioned table, in row
    /// groups of `group_rows`.
    fn one_file(batch: &RecordBatch, group_rows: usize) -> Table {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let t = Table::create_with(
            store,
            "wh/one",
            batch.schema(),
            PartitionSpec::unpartitioned(),
            in_groups_of(group_rows),
        )
        .unwrap();
        let mut tx = t.new_transaction(SnapshotOperation::Append);
        tx.write(batch).unwrap();
        tx.commit_table().unwrap()
    }

    #[test]
    fn a_file_its_entry_answers_is_never_requested() {
        let t = make_table(by_day());
        let store = Arc::clone(t.store());
        for path in store.list("wh/taxi/data/").unwrap() {
            store.delete(&path).unwrap();
        }
        // Every data file is gone; a one-day scan of `pickup_at` needs none.
        let day = |d: i32| ScanPredicate::new("pickup_at", CmpOp::Eq, Value::Date(d));
        let (b, report) = (t.scan().with_predicate(day(200)))
            .select(&["pickup_at"])
            .execute_with_report()
            .unwrap();
        assert_eq!(b.column(0), &Column::from_date(vec![200, 200]));
        let files = (report.files_scanned, report.files_read);
        assert_eq!((files, report.files_from_metadata), ((1, 0), 1));
        assert_eq!((report.bytes_scanned, report.row_groups_scanned), (0, 0));
        // A float is decoded even when its stats have `min == max`.
        let fare = t
            .scan()
            .with_predicate(day(300))
            .select(&["pickup_at", "fare"]);
        assert!(fare.execute().is_err(), "day 300's one fare is read");
    }

    #[test]
    fn the_stats_prove_a_field_only_where_they_fix_every_row() {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int64, true),
            Field::new("d", DataType::Date, false),
            Field::new("ts", DataType::Timestamp, false),
            Field::new("b", DataType::Bool, false),
            Field::new("f", DataType::Float64, false),
            Field::new("s", DataType::Utf8, false),
            Field::new("n", DataType::Int64, true),
            Field::new("v", DataType::Int64, false),
        ]);
        let batch = RecordBatch::try_new(
            schema.clone(),
            vec![
                Column::from_opt_i64(vec![Some(1), None, Some(1)]),
                Column::from_date(vec![5; 3]),
                Column::from_timestamp(vec![9; 3]),
                Column::from_bool(vec![true; 3]),
                Column::from_f64(vec![-0.0, 0.0, 0.0]),
                Column::from_strs(vec!["x"; 3]),
                Column::from_opt_i64(vec![None; 3]),
                Column::from_i64(vec![1, 2, 3]),
            ],
        )
        .unwrap();
        let t = one_file(&batch, 2);
        let root = &t.metadata().current_snapshot().unwrap().manifest_path;
        let manifest = Manifest::load(t.store(), t.io(), root).unwrap();
        let scan = t.scan();
        let plan: Result<Vec<_>> = (schema.fields().iter())
            .map(|field| scan.field_source(&manifest.entries[0], field))
            .collect();
        use FieldSource::{Constant, Decode, Null};
        let want = vec![
            Decode(0),
            Constant(Value::Date(5)),
            Constant(Value::Timestamp(9)),
            Constant(Value::Bool(true)),
            Decode(4),
            Decode(5),
            Null,
            Decode(7),
        ];
        assert_eq!(plan.unwrap(), want);
        // What the stats build is what decoding gives, to the bit.
        let back = t.scan().execute().unwrap();
        assert_eq!(back, batch);
        let floats = back.column(4).as_f64().unwrap().0;
        let bits: Vec<u64> = floats.iter().map(|f| f.to_bits()).collect();
        assert_eq!(bits, vec![(-0.0f64).to_bits(), 0, 0]);
    }

    #[test]
    fn a_field_added_after_a_file_was_written_is_null_on_each_of_its_rows() {
        let t = make_table(PartitionSpec::unpartitioned());
        let t = (t.add_columns(&[Field::new("tip", DataType::Float64, true)])).unwrap();
        let (b, report) = t.scan().select(&["tip"]).execute_with_report().unwrap();
        assert_eq!(b.column(0), &Column::new_null(DataType::Float64, 5));
        assert_eq!((report.files_read, report.files_from_metadata), (0, 1));
    }

    #[test]
    fn a_files_stats_are_read_by_position_after_renames_swap_two_names() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("b", DataType::Int64, false),
        ]);
        let columns = vec![Column::from_i64(vec![1, 1]), Column::from_i64(vec![100; 2])];
        let t = one_file(&RecordBatch::try_new(schema, columns).unwrap(), 8);
        // The file's stats stay keyed `a` = 1 and `b` = 100.
        let t = t.rename_column("a", "c").unwrap();
        let t = t.rename_column("b", "a").unwrap();
        let a_is = |v| {
            let scan = t.scan().select(&["a", "c"]);
            let scan = scan.with_predicate(ScanPredicate::new("a", CmpOp::Eq, Value::Int64(v)));
            scan.execute_with_report().unwrap()
        };
        let (hit, report) = a_is(100);
        assert_eq!(hit.column(0), &Column::from_i64(vec![100; 2]));
        assert_eq!(hit.column(1), &Column::from_i64(vec![1; 2]));
        assert_eq!((report.files_scanned, report.files_proven), (1, 1));
        let (miss, report) = a_is(1);
        assert_eq!((miss.num_rows(), report.files_scanned), (0, 0));
    }

    #[test]
    fn a_file_that_predates_a_column_is_pruned_by_a_predicate_on_it() {
        let t = make_table(PartitionSpec::unpartitioned());
        let t = (t.add_columns(&[Field::new("tip", DataType::Float64, true)])).unwrap();
        let tip = ScanPredicate::new("tip", CmpOp::NotEq, Value::Float64(1.0));
        let (b, report) = t.scan().with_predicate(tip).execute_with_report().unwrap();
        assert_eq!(
            (b.num_rows(), report.files_total, report.files_scanned),
            (0, 1, 0)
        );
    }

    #[test]
    fn a_predicate_the_scan_does_not_return_still_prunes_row_groups() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64, false),
            Field::new("c", DataType::Int64, false),
        ]);
        let columns = vec![
            Column::from_i64((0..100).collect()),
            Column::from_i64(vec![7; 100]),
        ];
        let t = one_file(&RecordBatch::try_new(schema, columns).unwrap(), 10);
        let (all, report) = t.scan().select(&["c"]).execute_with_report().unwrap();
        assert_eq!((all.num_rows(), report.files_read), (100, 0));
        // `x` is applied only through the footer's zone maps, so the file is
        // read for them: groups [80,89] and [90,99], as when `c` is decoded.
        let late = ScanPredicate::new("x", CmpOp::GtEq, Value::Int64(85));
        let scan = t.scan().with_predicate(late).select(&["c"]);
        let (pruned, report) = scan.execute_with_report().unwrap();
        assert_eq!(pruned.column(0), &Column::from_i64(vec![7; 20]));
        assert_eq!((report.files_read, report.row_groups_scanned), (1, 2));
    }

    #[test]
    fn answered_and_read_files_settle_in_manifest_order_through_the_dispatcher() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let spec = PartitionSpec::identity("zone");
        let t = Table::create(Arc::clone(&store), "wh/mix", &taxi_schema(), spec).unwrap();
        let mut tx = t.new_transaction(SnapshotOperation::Append);
        // Zones a and c hold one day each, b and d two.
        let days = vec![1, 1, 1, 2, 3, 3, 4, 5];
        let zones = vec!["a", "a", "b", "b", "c", "c", "d", "d"];
        tx.write(&taxi_batch(days.clone(), zones, vec![0.0; 8]))
            .unwrap();
        let (loc, _) = tx.commit().unwrap();
        let io = Arc::new(IoDispatcher::new(Arc::clone(&store), 4, None).unwrap());
        let with_io = TableIo {
            dispatcher: Some(Arc::clone(&io)),
            ..TableIo::default()
        };
        for t in [
            Table::load(Arc::clone(&store), &loc).unwrap(),
            Table::load_with(Arc::clone(&store), &loc, with_io).unwrap(),
        ] {
            let (b, report) = t
                .scan()
                .select(&["pickup_at"])
                .execute_with_report()
                .unwrap();
            assert_eq!(b.column(0), &Column::from_date(days.clone()));
            assert_eq!((report.files_read, report.files_from_metadata), (2, 2));
        }
        let stats = io.stats();
        assert_eq!((stats.submitted, stats.inflight), (2, 0), "b and d only");
    }
}
