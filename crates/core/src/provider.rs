//! The bridge between the SQL engine and the lakehouse: resolves table names
//! through the catalog (at a given ref) and scans Iceberg-style tables with
//! pushed-down predicates, with an overlay for in-flight pipeline artifacts.

use crate::error::{BauplanError, Result as CoreResult};
use crate::functions::Batches;
use lakehouse_catalog::{Catalog, CatalogError, CatalogState, CommitId};
use lakehouse_columnar::{BatchStream, BatchesStream, RecordBatch, Schema, Value};
use lakehouse_sql::ast::Expr;
use lakehouse_sql::logical::SchemaProvider;
use lakehouse_sql::{Result as SqlResult, SqlError, TableProvider};
use lakehouse_store::{IoDispatcher, IoTicket, ObjectStore, StoreError};
use lakehouse_table::{ScanPredicate, Table, TableIo};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// Table access over a catalog reference plus an in-memory overlay. SQL runs
/// against a [`PinnedProvider`] taken from it, one per statement.
///
/// Resolution order: overlay (intermediate artifacts of the currently
/// executing pipeline stage) → catalog tables at `reference`. The overlay is
/// what gives the fused executor its data locality: a child step consumes
/// its parent's output without any object-store round trip.
pub struct LakehouseProvider {
    store: Arc<dyn ObjectStore>,
    catalog: Arc<Catalog>,
    reference: String,
    overlay: RwLock<HashMap<String, Arc<Batches>>>,
    /// When false, predicates are NOT pushed into table scans — the paper's
    /// naive baseline read whole tables before filtering (§4.4.2: the fused
    /// plan "pushed down where filters to obtain a smaller in-memory table").
    pushdown: bool,
    /// Whether a table scan's batches carry the chunks they decoded, for
    /// the artifact writer of the run this provider serves.
    keep_chunks: bool,
    /// Re-reads of a table object whose bytes fail a checksum.
    fetch_retries: u32,
    /// The parsed-metadata cache and fetch workers every table opened
    /// through this provider uses (default: neither).
    io: TableIo,
}

impl LakehouseProvider {
    pub fn new(
        store: Arc<dyn ObjectStore>,
        catalog: Arc<Catalog>,
        reference: impl Into<String>,
    ) -> LakehouseProvider {
        LakehouseProvider {
            store,
            catalog,
            reference: reference.into(),
            overlay: RwLock::new(HashMap::new()),
            pushdown: true,
            keep_chunks: false,
            fetch_retries: 0,
            io: TableIo::default(),
        }
    }

    /// Open tables through `io`: a warm statement then fetches and parses
    /// no table metadata, and multi-file scans overlap their requests.
    pub fn with_io(mut self, io: TableIo) -> LakehouseProvider {
        self.io = io;
        self
    }

    /// Disable or enable scan-level predicate pushdown (default on).
    pub fn with_pushdown(mut self, pushdown: bool) -> LakehouseProvider {
        self.pushdown = pushdown;
        self
    }

    /// Have table scans keep the chunks their batches decode
    /// ([`lakehouse_table::TableScan::keeping_chunks`]): a run's stage,
    /// whose artifacts copy what its steps did not change.
    pub(crate) fn keeping_chunks(mut self) -> LakehouseProvider {
        self.keep_chunks = true;
        self
    }

    /// Re-read a metadata document, manifest or data file up to `n` extra
    /// times when its bytes fail a checksum (default 0; see
    /// [`lakehouse_table::reread_on_corruption`]).
    pub fn with_fetch_retries(mut self, n: u32) -> LakehouseProvider {
        self.fetch_retries = n;
        self
    }

    /// Register an in-memory artifact (visible to subsequent queries through
    /// this provider).
    pub fn put_overlay(&self, name: impl Into<String>, batches: Arc<Batches>) {
        self.overlay.write().insert(name.into(), batches);
    }

    /// Fetch an overlay artifact (shared, not copied).
    pub fn get_overlay(&self, name: &str) -> Option<Arc<Batches>> {
        self.overlay.read().get(name).cloned()
    }

    /// Drop all overlay artifacts (stage boundary in naive mode).
    pub fn clear_overlay(&self) {
        self.overlay.write().clear();
    }

    /// The [`TableProvider`] for one SQL statement: whatever the statement
    /// reads from the catalog, it reads once, at one commit. The ref is
    /// read at the first catalog lookup, before anything else.
    pub fn pin(&self) -> PinnedProvider<'_> {
        self.pinned(None, false)
    }

    /// [`Self::pin`], except that on a front whose ref reads are slow the
    /// statement runs at the head this front last saw while the ref is read
    /// in the background; [`PinnedProvider::confirm`] then says whether the
    /// work stands (DESIGN.md §31).
    pub(crate) fn pin_overlapped(&self) -> PinnedProvider<'_> {
        self.pinned(None, true)
    }

    /// [`Self::pin`] at a catalog state already read: the statement reads
    /// no ref.
    pub(crate) fn pin_at(&self, state: Arc<CatalogState>) -> PinnedProvider<'_> {
        self.pinned(Some(state), false)
    }

    fn pinned(&self, state: Option<Arc<CatalogState>>, overlap: bool) -> PinnedProvider<'_> {
        PinnedProvider {
            provider: self,
            overlap,
            state: Mutex::new(state),
            guessed: Mutex::new(None),
            tables: Mutex::new(HashMap::new()),
        }
    }

    /// Load the Iceberg-style table for `name` at this provider's ref.
    pub fn load_table(&self, name: &str) -> CoreResult<Table> {
        let content = self.catalog.get_content(&self.reference, name)?;
        Ok(self.load_metadata(&content.metadata_location)?)
    }

    /// `Table::load_with`, re-read like every table object when the
    /// document fails to parse (it then never reached the parsed cache, so
    /// the re-read still goes to the store).
    pub(crate) fn load_metadata(
        &self,
        location: &str,
    ) -> std::result::Result<Table, lakehouse_table::TableError> {
        let load = || Table::load_with(Arc::clone(&self.store), location, self.io.clone());
        lakehouse_table::reread_on_corruption(&*self.store, location, self.fetch_retries, load).0
    }

    /// Convert SQL filter expressions to scan predicates where possible
    /// (simple `column OP literal` conjuncts; everything else is handled by
    /// the executor's exact re-filter).
    fn to_scan_predicates(filters: &[Expr]) -> Vec<ScanPredicate> {
        filters.iter().filter_map(Self::scan_predicate).collect()
    }

    /// The scan predicate `f` is, when it is a `column OP literal`
    /// comparison (either way round) with a non-NULL literal. A scan's
    /// filter names each column as its table does.
    fn scan_predicate(f: &Expr) -> Option<ScanPredicate> {
        let Expr::Compare { op, left, right } = f else {
            return None;
        };
        let (column, op, literal) = match (left.as_ref(), right.as_ref()) {
            (column, Expr::Literal(v)) => (column, *op, v),
            (Expr::Literal(v), column) => (column, op.flip(), v),
            _ => return None,
        };
        match column {
            Expr::Column(c) if !literal.is_null() => {
                Some(ScanPredicate::new(c.name.clone(), op, literal.clone()))
            }
            _ => None,
        }
    }
}

/// One SQL statement's view through a [`LakehouseProvider`]: the ref is
/// resolved on first use and each table's metadata loaded on first use, then
/// both are kept, so planning and scanning see the same catalog commit and
/// pay for it once. The pin is per statement rather than per provider
/// because each statement must see what landed before it began; a run's
/// steps pin the run's own head instead (`LakehouseProvider::pin_at`).
pub struct PinnedProvider<'a> {
    provider: &'a LakehouseProvider,
    /// Whether the first catalog lookup may run at a guessed head.
    overlap: bool,
    /// The table namespace the statement reads: `None` until its first
    /// catalog lookup.
    state: Mutex<Option<Arc<CatalogState>>>,
    /// Set when `state` is a guess.
    guessed: Mutex<Option<Guess<'a>>>,
    /// Tables loaded so far, by name.
    tables: Mutex<HashMap<String, Arc<Table>>>,
}

/// A statement running at `head`, the head its front last saw, while
/// `read` fetches the ref document on `io`.
struct Guess<'a> {
    head: Option<CommitId>,
    io: &'a IoDispatcher,
    read: IoTicket,
}

/// How a statement read its ref, as [`PinnedProvider::confirm`] found it.
pub(crate) enum RefRead {
    /// It looked up no catalog table, so it read no ref.
    Unread,
    /// Before its first catalog lookup, on the caller's thread.
    Inline,
    /// In the background, and the ref still pointed where it guessed.
    Confirmed,
    /// In the background, and the ref had moved: the statement's work
    /// stands for nothing and it runs again at the state read — or, when
    /// the read could not produce one (`None`), inline.
    Moved(Option<Arc<CatalogState>>),
}

impl PinnedProvider<'_> {
    /// The catalog table `name` at the pinned commit.
    pub(crate) fn table(&self, name: &str) -> CoreResult<Arc<Table>> {
        if let Some(t) = self.tables.lock().get(name) {
            return Ok(Arc::clone(t));
        }
        let location = {
            let state = self.state()?;
            let missing = || CatalogError::KeyNotFound(name.to_string());
            state
                .get(name)
                .ok_or_else(missing)?
                .metadata_location
                .clone()
        };
        let table = Arc::new(self.provider.load_metadata(&location)?);
        let mut tables = self.tables.lock();
        tables.insert(name.to_string(), Arc::clone(&table));
        Ok(table)
    }

    /// The pinned table namespace, read at the first call.
    fn state(&self) -> CoreResult<Arc<CatalogState>> {
        let mut state = self.state.lock();
        if let Some(state) = &*state {
            return Ok(Arc::clone(state));
        }
        let p = self.provider;
        let read = match self.guess() {
            Some(guessed) => guessed,
            None => p.catalog.state_at(&p.reference)?,
        };
        *state = Some(Arc::clone(&read));
        Ok(read)
    }

    /// Submit the ref read to the I/O workers and return the namespace at
    /// the head this front last saw — when overlapping is allowed, this
    /// front's ref reads are slow and it has seen the ref before. That
    /// state costs no request: this front read or wrote the head, so its
    /// commits are cached.
    fn guess(&self) -> Option<Arc<CatalogState>> {
        let p = self.provider;
        if !self.overlap || !p.catalog.ref_reads_are_slow() {
            return None;
        }
        let io = p.io.dispatcher.as_deref()?;
        let head = p.catalog.guessed_head(&p.reference)?;
        let state = p.catalog.state_of_head(head.as_ref()).ok()?;
        let read = io.submit_get(&p.catalog.refs_path().ok()?);
        *self.guessed.lock() = Some(Guess { head, io, read });
        Some(state)
    }

    /// After the statement ran through this pin, with a result or an error:
    /// how it read its ref, and, when it ran at a guess, whether the ref
    /// still points there. Waits for the background read. A ref read that
    /// failed or did not parse falls back to [`Catalog::resolve`]; a killed
    /// statement's wait fails with the kill.
    pub(crate) fn confirm(self) -> CoreResult<RefRead> {
        let Some(Guess { head, io, read }) = self.guessed.into_inner() else {
            return Ok(match self.state.into_inner() {
                Some(_) => RefRead::Inline,
                None => RefRead::Unread,
            });
        };
        let (catalog, reference) = (&self.provider.catalog, &self.provider.reference);
        let done = io.wait(read);
        let fresh = match done.result {
            Ok(bytes) => catalog.resolve_read(reference, bytes, done.elapsed),
            Err(killed @ StoreError::QueryKilled { .. }) => return Err(killed.into()),
            Err(_) => catalog.resolve(reference),
        };
        Ok(match fresh {
            Ok(fresh) if fresh == head => RefRead::Confirmed,
            Ok(fresh) => RefRead::Moved(catalog.state_of_head(fresh.as_ref()).ok()),
            Err(_) => RefRead::Moved(None),
        })
    }

    /// Tables served from memory, projected and cut to the row budget:
    /// `system.*` (materialized from global telemetry on every scan) and
    /// overlay artifacts, whose batches the scan shares. `None` = a catalog
    /// table.
    fn memory_table(
        &self,
        table: &str,
        projection: Option<&[String]>,
        filters: &[Expr],
        fetch: Option<usize>,
    ) -> SqlResult<Option<BatchesStream>> {
        let scan = |schema: &Schema, batches: &[RecordBatch]| {
            lakehouse_sql::scan_memory_table(schema, batches, projection, filters, fetch)
        };
        if table.starts_with(crate::system::SYSTEM_PREFIX) {
            let batch = crate::system::system_batch(table)
                .ok_or_else(|| SqlError::Plan(format!("unknown system table '{table}'")))??;
            return scan(batch.schema(), std::slice::from_ref(&batch)).map(Some);
        }
        let overlay = self.provider.overlay.read();
        let artifact = overlay.get(table);
        artifact.map(|a| scan(&a.schema, &a.batches)).transpose()
    }

    /// Catalog-resolved Iceberg-style scan with projection and (unless this
    /// is the naive baseline) predicate pushdown.
    fn table_scan(
        &self,
        table: &str,
        projection: Option<&[String]>,
        filters: &[Expr],
    ) -> SqlResult<lakehouse_table::TableScan> {
        let t = self
            .table(table)
            .map_err(|e| SqlError::Plan(format!("cannot load table '{table}': {e}")))?;
        let mut scan = t.scan().with_fetch_retries(self.provider.fetch_retries);
        if self.provider.keep_chunks {
            scan = scan.keeping_chunks();
        }
        if self.provider.pushdown {
            for p in LakehouseProvider::to_scan_predicates(filters) {
                scan = scan.with_predicate(p);
            }
        }
        if let Some(cols) = projection {
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            scan = scan.select(&names);
        }
        Ok(scan)
    }
}

impl SchemaProvider for PinnedProvider<'_> {
    // Distinguish "no such table" from a store/catalog fault while
    // resolving it: a retry-budget-exhausted get must surface as the typed
    // store error, not as `unknown table`.
    fn table_schema(&self, table: &str) -> Result<Option<Schema>, String> {
        if table.starts_with(crate::system::SYSTEM_PREFIX) {
            return Ok(crate::system::system_schema(table));
        }
        if let Some(artifact) = self.provider.overlay.read().get(table) {
            return Ok(Some(artifact.schema.clone()));
        }
        match self.table(table) {
            Ok(t) => t
                .schema()
                .map(Some)
                .map_err(|e| format!("reading schema of '{table}': {e}")),
            Err(BauplanError::Catalog(
                CatalogError::KeyNotFound(_) | CatalogError::RefNotFound(_),
            )) => Ok(None),
            Err(e) => Err(format!("loading table '{table}': {e}")),
        }
    }
}

impl TableProvider for PinnedProvider<'_> {
    fn scan(
        &self,
        table: &str,
        projection: Option<&[String]>,
        filters: &[Expr],
        fetch: Option<usize>,
    ) -> SqlResult<Box<dyn BatchStream>> {
        // In-memory tables have nothing to skip.
        if let Some(stream) = self.memory_table(table, projection, filters, fetch)? {
            return Ok(Box::new(stream));
        }
        let scan_failed = |source: lakehouse_table::TableError| {
            let table = table.to_string();
            SqlError::External(Arc::new(ScanFailed { table, source }))
        };
        let scan = self.table_scan(table, projection, filters)?;
        // The naive baseline reads whole tables: no early stop either.
        if !self.provider.pushdown {
            let batch = scan.execute().map_err(scan_failed)?;
            return Ok(Box::new(BatchesStream::one(batch)));
        }
        // Catalog tables stream one batch per data file: peak memory is a
        // few files, and an abandoned stream (a satisfied LIMIT or row
        // budget) leaves the remaining files unfetched. Without a row budget
        // every surviving file will be read, so the request window opens at
        // full width; under one it opens a single file wide and ramps.
        let stream = match fetch {
            None => scan.stream_all(),
            Some(_) => scan.stream(),
        };
        Ok(Box::new(stream.map_err(scan_failed)?))
    }

    /// A catalog table's pushed-down scan applies each filter it converts to
    /// a [`ScanPredicate`] exactly (a file's residual, DESIGN.md §23) — on a
    /// column it returns: it cannot filter by a column its batches lack. A
    /// scan's filters name the table's own columns. Tables served from
    /// memory and the naive baseline filter nothing.
    fn exact_filters(
        &self,
        table: &str,
        projection: Option<&[String]>,
        filters: &[Expr],
    ) -> Vec<bool> {
        let in_memory = table.starts_with(crate::system::SYSTEM_PREFIX)
            || self.provider.overlay.read().contains_key(table);
        let filtered = self.provider.pushdown && !in_memory;
        let returned = |column: &String| projection.is_none_or(|cols| cols.contains(column));
        let exact =
            |f: &Expr| LakehouseProvider::scan_predicate(f).is_some_and(|p| returned(&p.column));
        filters.iter().map(|f| filtered && exact(f)).collect()
    }
}

/// A catalog table's scan that could not open (or, on the naive path, read):
/// the table's name over the scan's own error, which stays its source.
#[derive(Debug)]
struct ScanFailed {
    table: String,
    source: lakehouse_table::TableError,
}

impl std::fmt::Display for ScanFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scan of '{}' failed: {}", self.table, self.source)
    }
}

impl std::error::Error for ScanFailed {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Convert a scalar to a `Value` literal predicate — re-exported helper for
/// callers building predicates programmatically.
pub fn literal_predicate(column: &str, op: lakehouse_columnar::kernels::CmpOp, v: Value) -> Expr {
    Expr::Compare {
        op,
        left: Box::new(Expr::col(column.to_string())),
        right: Box::new(Expr::Literal(v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_catalog::{ContentRef, Operation};
    use lakehouse_columnar::kernels::CmpOp;
    use lakehouse_columnar::{Column, DataType, Field};
    use lakehouse_store::InMemoryStore;
    use lakehouse_table::{PartitionSpec, SnapshotOperation};

    fn setup() -> (Arc<dyn ObjectStore>, Arc<Catalog>) {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let catalog = Arc::new(Catalog::init(Arc::clone(&store), "_catalog").unwrap());
        (store, catalog)
    }

    fn write_table(store: &Arc<dyn ObjectStore>, catalog: &Catalog, name: &str) {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
        let t = Table::create(
            Arc::clone(store),
            &format!("warehouse/{name}"),
            &schema,
            PartitionSpec::unpartitioned(),
        )
        .unwrap();
        let mut tx = t.new_transaction(SnapshotOperation::Append);
        tx.write(&RecordBatch::try_new(schema, vec![Column::from_i64(vec![1, 2, 3])]).unwrap())
            .unwrap();
        let (loc, meta) = tx.commit().unwrap();
        catalog
            .commit(
                "main",
                "test",
                &format!("add {name}"),
                vec![Operation::Put {
                    key: name.to_string(),
                    content: ContentRef::new(loc, meta.current_snapshot_id.unwrap()),
                }],
            )
            .unwrap();
    }

    /// One statement's whole scan of `table`.
    fn scan(
        p: &LakehouseProvider,
        table: &str,
        projection: Option<&[String]>,
        filters: &[Expr],
    ) -> RecordBatch {
        let mut stream = p.pin().scan(table, projection, filters, None).unwrap();
        lakehouse_columnar::stream::collect(&mut *stream).unwrap()
    }

    #[test]
    fn resolves_catalog_tables() {
        let (store, catalog) = setup();
        write_table(&store, &catalog, "t1");
        let p = LakehouseProvider::new(store, catalog, "main");
        assert!(p.pin().table_schema("t1").unwrap().is_some());
        assert!(p.pin().table_schema("ghost").unwrap().is_none());
        let batch = scan(&p, "t1", None, &[]);
        assert_eq!(batch.num_rows(), 3);
    }

    #[test]
    fn overlay_shadows_catalog() {
        let (store, catalog) = setup();
        write_table(&store, &catalog, "t1");
        let p = LakehouseProvider::new(store, catalog, "main");
        let shadow = RecordBatch::try_new(
            Schema::new(vec![Field::new("y", DataType::Utf8, false)]),
            vec![Column::from_strs(vec!["overlay"])],
        )
        .unwrap();
        p.put_overlay("t1", Arc::new(Batches::one(shadow)));
        let batch = scan(&p, "t1", None, &[]);
        assert_eq!(batch.schema().names(), vec!["y"]);
        p.clear_overlay();
        let batch = scan(&p, "t1", None, &[]);
        assert_eq!(batch.schema().names(), vec!["x"]);
    }

    #[test]
    fn predicate_conversion() {
        let filters = vec![
            literal_predicate("x", CmpOp::Gt, Value::Int64(1)),
            // Flipped literal-first form.
            Expr::Compare {
                op: CmpOp::Gt,
                left: Box::new(Expr::Literal(Value::Int64(10))),
                right: Box::new(Expr::col("x")),
            },
            // Unsupported shape: skipped.
            Expr::col("x"),
        ];
        let preds = LakehouseProvider::to_scan_predicates(&filters);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].op, CmpOp::Gt);
        assert_eq!(preds[1].op, CmpOp::Lt); // flipped
    }

    #[test]
    fn a_killed_scan_fails_its_statement_as_query_killed_by_type() {
        use lakehouse_store::StoreError;
        let (store, catalog) = setup();
        write_table(&store, &catalog, "t1");
        let p = LakehouseProvider::new(store, catalog, "main");
        let ctx = lakehouse_obs::QueryCtx::new("default", "killed scan");
        ctx.kill(lakehouse_obs::KillReason::Canceled);
        let err = {
            let _entered = ctx.enter();
            let engine = lakehouse_sql::SqlEngine::new();
            BauplanError::Sql(engine.query("SELECT x FROM t1", &p.pin()).unwrap_err())
        };
        let killed = err.find::<StoreError>();
        assert!(
            matches!(killed, Some(StoreError::QueryKilled { .. })),
            "{err}"
        );
        assert!(err
            .to_string()
            .starts_with("sql: execution error: store error: query killed ("));
    }

    #[test]
    fn scan_with_projection_and_filter() {
        let (store, catalog) = setup();
        write_table(&store, &catalog, "t1");
        let p = LakehouseProvider::new(store, catalog, "main");
        let filters = vec![literal_predicate("x", CmpOp::GtEq, Value::Int64(2))];
        let batch = scan(&p, "t1", Some(&["x".to_string()]), &filters);
        // The scan applies the filter it states exact.
        assert_eq!(batch.num_rows(), 2);
    }

    #[test]
    fn a_catalog_scan_states_exact_the_filters_it_applies_on_returned_columns() {
        let (store, catalog) = setup();
        write_table(&store, &catalog, "t1");
        let p = LakehouseProvider::new(store, catalog, "main");
        let filters = vec![
            literal_predicate("x", CmpOp::GtEq, Value::Int64(2)),
            Expr::Compare {
                op: CmpOp::Lt,
                left: Box::new(Expr::Literal(Value::Int64(1))),
                right: Box::new(Expr::Column(lakehouse_sql::ast::ColumnRef {
                    qualifier: Some("t".into()),
                    name: "x".into(),
                    index: Some(0),
                })),
            },
            Expr::IsNull {
                expr: Box::new(Expr::col("x")),
                negated: true,
            },
            literal_predicate("x", CmpOp::Eq, Value::Null),
        ];
        let x = ["x".to_string()];
        let exact = |p: &LakehouseProvider, projection: Option<&[String]>| {
            p.pin().exact_filters("t1", projection, &filters)
        };
        let converted = vec![true, true, false, false];
        assert_eq!(exact(&p, None), converted);
        assert_eq!(exact(&p, Some(&x)), converted);
        // Not returned: a scan cannot filter by it.
        assert_eq!(exact(&p, Some(&[])), vec![false; 4]);
        // Served from memory: nothing is filtered there.
        let shadow = RecordBatch::try_new(
            Schema::new(vec![Field::new("x", DataType::Int64, false)]),
            vec![Column::from_i64(vec![5])],
        )
        .unwrap();
        p.put_overlay("t1", Arc::new(Batches::one(shadow)));
        assert_eq!(exact(&p, None), vec![false; 4]);
        p.clear_overlay();
        assert_eq!(exact(&p, None), converted);
        // The naive baseline pushes nothing down.
        let naive = p.with_pushdown(false);
        assert_eq!(exact(&naive, None), vec![false; 4]);
    }
}
