//! The [`Lakehouse`] façade: branches, tables, queries, and run bookkeeping.

use crate::admission::{AdmissionPermit, ShedInfo};
use crate::config::LakehouseConfig;
use crate::error::{BauplanError, Result};
use crate::estimator::MemoryEstimator;
use crate::functions::{Batches, FnContext, FnOutput, FunctionRegistry};
use crate::governance::{AccessController, Action, Grant, Principal};
use crate::provider::{LakehouseProvider, PinnedProvider, RefRead};
use lakehouse_catalog::{Catalog, Commit, CommitId, ContentRef, Operation, Reference};
use lakehouse_columnar::{RecordBatch, Schema};
use lakehouse_planner::RunRegistry;
use lakehouse_runtime::{Runtime, SimClock};
use lakehouse_sql::SqlEngine;
use lakehouse_store::{
    ChaosStore, HedgePolicy, InMemoryStore, IoDispatcher, ObjectStore, RetryPolicy, RetryStore,
    SimulatedStore, StoreMetrics,
};
use lakehouse_table::{
    ObjectCache, PartitionSpec, SnapshotOperation, Table, TableIo, TableMetadata, Written,
};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// Set while the current thread executes a DAG stage that already holds
    /// an admission slot (stage-level scheduling in `run.rs`). The SQL steps
    /// inside that stage run under the stage's slot — `attributed` must not
    /// re-acquire, or a stage would deadlock against its own steps.
    static UNDER_STAGE_PERMIT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII marker: the enclosed scope runs under a stage-level admission slot.
pub(crate) struct StagePermitScope {
    prev: bool,
}

impl StagePermitScope {
    pub(crate) fn enter() -> StagePermitScope {
        StagePermitScope {
            prev: UNDER_STAGE_PERMIT.with(|c| c.replace(true)),
        }
    }
}

impl Drop for StagePermitScope {
    fn drop(&mut self) {
        let prev = self.prev;
        UNDER_STAGE_PERMIT.with(|c| c.set(prev));
    }
}

pub(crate) fn under_stage_permit() -> bool {
    UNDER_STAGE_PERMIT.with(|c| c.get())
}

/// The catalog operation that points table `name` at a metadata file: the
/// one shape every table write commits.
fn table_put(
    name: &str,
    metadata_location: impl Into<String>,
    metadata: &TableMetadata,
) -> Operation {
    Operation::Put {
        key: name.to_string(),
        content: ContentRef::new(metadata_location, metadata.current_snapshot_id.unwrap_or(0)),
    }
}

/// Data-file requests a scan keeps in flight at once, and the worker
/// threads that run them. Four S3-like first bytes overlapped take the
/// benchmark's store-bound mix within 2 % of what eight do (most windows are
/// two or three files), while every worker costs ≈ 2 MB of allocator arena
/// on a store that allocates per read (EXPERIMENTS.md, "bench_suite
/// before/after PR 16"). A property of object stores and of a small box,
/// like the reader's merge distance — a constant, not a setting.
const SCAN_IO_DEPTH: usize = 4;

/// The serverless lakehouse platform. See the crate docs for the overview.
pub struct Lakehouse {
    pub(crate) config: LakehouseConfig,
    /// Concrete store handle (metrics access).
    store: Arc<SimulatedStore<Arc<dyn ObjectStore>>>,
    /// The same store as a trait object for the substrates.
    pub(crate) store_dyn: Arc<dyn ObjectStore>,
    /// Parsed table-metadata documents and manifests of every table this
    /// instance has read or written, and the data files its scans re-read.
    object_cache: Arc<ObjectCache>,
    /// The I/O workers (over the full store stack) that overlap a scan's
    /// data-file requests; joined when the last handle to them — normally
    /// this one — drops.
    io: Arc<IoDispatcher>,
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) runtime: Runtime,
    pub(crate) engine: SqlEngine,
    pub(crate) functions: RwLock<FunctionRegistry>,
    pub(crate) runs: Mutex<RunRegistry>,
    pub(crate) access: AccessController,
    pub(crate) estimator: MemoryEstimator,
    /// Admission gate wrapped around top-level query/run/profile entry
    /// points. `None` — the default — means no gate: no queueing, no
    /// shedding.
    pub(crate) admission: Option<crate::AdmissionController>,
    table_counter: AtomicU64,
}

impl Lakehouse {
    /// Create a lakehouse over a fresh in-memory simulated object store.
    pub fn in_memory(config: LakehouseConfig) -> Result<Lakehouse> {
        Self::with_backend(Arc::new(InMemoryStore::new()), config, true)
    }

    /// Create (or open) a lakehouse persisted under a local directory —
    /// what the `bauplan` CLI uses so state survives across invocations.
    pub fn on_disk(
        path: impl AsRef<std::path::Path>,
        config: LakehouseConfig,
    ) -> Result<Lakehouse> {
        let backend = lakehouse_store::LocalFsStore::new(path)?;
        // Initialize the catalog only on first use.
        let refs_path =
            lakehouse_store::ObjectPath::new(format!("{}/refs.json", config.catalog_prefix))?;
        let fresh = !backend.exists(&refs_path);
        Self::with_backend(Arc::new(backend), config, fresh)
    }

    /// Create a lakehouse over a caller-supplied (typically shared) backend.
    /// Several instances over one `Arc` see the same lake — one platform,
    /// many fronts. The catalog is initialized only if the backend does not
    /// already hold one, so the second instance opens what the first built.
    /// Fronts with their own `tenant` label and budgets can share one
    /// [`crate::AdmissionController`] via [`Lakehouse::set_admission`].
    pub fn with_store(backend: Arc<dyn ObjectStore>, config: LakehouseConfig) -> Result<Lakehouse> {
        let refs_path =
            lakehouse_store::ObjectPath::new(format!("{}/refs.json", config.catalog_prefix))?;
        let fresh = !backend.exists(&refs_path);
        Self::with_backend(backend, config, fresh)
    }

    fn with_backend(
        backend: Arc<dyn ObjectStore>,
        config: LakehouseConfig,
        init_catalog: bool,
    ) -> Result<Lakehouse> {
        let store = Arc::new(SimulatedStore::new(backend, config.latency.clone()));
        // The store stack, innermost first: `Retry(Chaos(Simulated(backend)))`.
        // Chaos — the one fault injector — sits directly on the simulated
        // store so injected faults look like S3 failures; retry, their one
        // owner, sits above it. Both are optional and skipped at defaults.
        let mut store_dyn: Arc<dyn ObjectStore> = Arc::clone(&store) as Arc<dyn ObjectStore>;
        if let Some(chaos) = &config.chaos {
            store_dyn = Arc::new(ChaosStore::new(store_dyn, chaos.clone()));
        }
        if config.retry_max > 0 {
            let policy = RetryPolicy::default()
                .with_max_retries(config.retry_max)
                .with_budget(std::time::Duration::from_millis(config.retry_budget_ms));
            store_dyn = Arc::new(RetryStore::new(store_dyn, policy));
        }
        // The dispatcher sits over the *complete* stack: an overlapped read
        // passes through the retry and chaos layers exactly like an inline
        // one — so overlap and hedging can never dodge fault injection.
        let hedge = config.hedge_p95.then(HedgePolicy::default);
        let io = Arc::new(IoDispatcher::new(
            Arc::clone(&store_dyn),
            SCAN_IO_DEPTH,
            hedge,
        )?);
        let catalog = Arc::new(if init_catalog {
            Catalog::init(Arc::clone(&store_dyn), config.catalog_prefix.clone())?
        } else {
            Catalog::open(Arc::clone(&store_dyn), config.catalog_prefix.clone())?
        });
        let runtime = Runtime::new();
        let engine = SqlEngine::new();
        let admission = config
            .admission
            .clone()
            .map(crate::AdmissionController::new);
        Ok(Lakehouse {
            config,
            store,
            store_dyn,
            object_cache: Arc::new(ObjectCache::new()),
            io,
            catalog,
            runtime,
            engine,
            functions: RwLock::new(FunctionRegistry::new()),
            runs: Mutex::new(RunRegistry::new()),
            access: AccessController::new(),
            estimator: MemoryEstimator::new(),
            admission,
            table_counter: AtomicU64::new(0),
        })
    }

    // ---- observability ------------------------------------------------------

    /// The platform's simulated clock as a span time source: store charged
    /// latency plus the runtime's container start-up clock. Spans
    /// record this alongside wall time, so traces of simulated runs are
    /// deterministic (DESIGN.md §10).
    fn sim_source(&self) -> lakehouse_obs::SimSource {
        let metrics = self.store_metrics();
        let clock = self.runtime.clock().clone();
        Arc::new(move || (metrics.simulated_time() + clock.now()).as_nanos() as u64)
    }

    /// Install this lakehouse's simulated clock for spans opened on the
    /// current thread (restored on guard drop).
    pub(crate) fn install_sim(&self) -> lakehouse_obs::SimSourceGuard {
        lakehouse_obs::set_thread_sim_source(Some(self.sim_source()))
    }

    /// A slot at the admission gate, if there is one, for a top-level
    /// submission. Nested ones (a run's steps) run under the slot already
    /// held: re-acquiring would deadlock a run against its own steps.
    pub(crate) fn admit(&self) -> std::result::Result<Option<AdmissionPermit>, ShedInfo> {
        match &self.admission {
            Some(gate) if lakehouse_obs::QueryCtx::current().is_none() && !under_stage_permit() => {
                gate.acquire(&self.config.tenant).map(Some)
            }
            _ => Ok(None),
        }
    }

    /// Run `f` under a fresh per-query resource context: the ctx is entered
    /// on this thread (workers it fans out to re-enter it explicitly), a
    /// `query_start`/`query_finish` event pair brackets the execution in the
    /// flight recorder, and the finished record — status, both clocks, and
    /// the final ledger snapshot — lands in the global query log that backs
    /// `system.queries`. Callers must have installed the sim source first so
    /// the simulated clock is attributable.
    pub(crate) fn attributed<T>(&self, label: &str, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let _permit = match self.admit() {
            Ok(permit) => permit,
            Err(shed) => {
                // Shed before a context existed: the record carries query
                // id 0 (never admitted, nothing attributed) — but the wait
                // until the gate gave up is real latency the victim's caller
                // saw, so it is charged as wall time instead of vanishing.
                let waited = shed.waited.as_nanos() as u64;
                lakehouse_obs::query_log().push(lakehouse_obs::QueryRecord {
                    query_id: 0,
                    tenant: self.config.tenant.clone(),
                    label: label.to_string(),
                    status: "shed".to_string(),
                    reason: "overloaded".to_string(),
                    wall_nanos: waited,
                    sim_nanos: 0,
                    queue_wait_nanos: waited,
                    ledger: lakehouse_obs::LedgerSnapshot::default(),
                });
                return Err(BauplanError::Overloaded {
                    retry_after: shed.retry_after,
                });
            }
        };
        let queue_wait_nanos = _permit
            .as_ref()
            .map(|p| p.waited().as_nanos() as u64)
            .unwrap_or(0);
        let ctx = lakehouse_obs::QueryCtx::new(self.config.tenant.clone(), label);
        // Budgets arm only after admission, so queue wait never counts
        // against the deadline. All default to 0 = unarmed: the token then
        // never trips and enforcement-off runs are byte-identical.
        if self.config.query_timeout_ms > 0 {
            ctx.arm_deadline(std::time::Duration::from_millis(
                self.config.query_timeout_ms,
            ));
        }
        if self.config.memory_budget_bytes > 0 {
            ctx.arm_memory_budget(self.config.memory_budget_bytes);
        }
        if self.config.io_budget_bytes > 0 {
            ctx.arm_io_budget(self.config.io_budget_bytes);
        }
        // Events carry a short tag, the query log keeps the full text.
        let tag: String = label.chars().take(64).collect();
        lakehouse_obs::recorder().record_for(
            lakehouse_obs::EventKind::QueryStart,
            ctx.query_id(),
            ctx.tenant(),
            &tag,
            0,
        );
        let wall_start = std::time::Instant::now();
        let sim_start = lakehouse_obs::thread_sim_nanos();
        let result = {
            let _attributed = ctx.enter();
            f()
        };
        let wall_nanos = wall_start.elapsed().as_nanos() as u64;
        let sim_nanos = lakehouse_obs::thread_sim_nanos().saturating_sub(sim_start);
        // A tripped token plus a failed result means the failure *is* the
        // kill, however many layers stringified it on the way up: re-type
        // it here so callers always see `BauplanError::QueryKilled`.
        let killed = ctx.killed().filter(|_| result.is_err());
        let result = match killed {
            Some(reason) => Err(BauplanError::QueryKilled { reason }),
            None => result,
        };
        let status = match (&result, killed) {
            (Ok(_), _) => "ok",
            (Err(_), Some(_)) => "killed",
            (Err(_), None) => "error",
        };
        if let Some(reason) = killed {
            lakehouse_obs::global()
                .counter(&format!("query.killed.{}", reason.counter_suffix()))
                .inc();
            lakehouse_obs::recorder().record_for(
                lakehouse_obs::EventKind::QueryKilled,
                ctx.query_id(),
                ctx.tenant(),
                reason.as_str(),
                wall_nanos,
            );
        }
        lakehouse_obs::recorder().record_for(
            lakehouse_obs::EventKind::QueryFinish,
            ctx.query_id(),
            ctx.tenant(),
            status,
            wall_nanos,
        );
        lakehouse_obs::query_log().push(lakehouse_obs::QueryRecord {
            query_id: ctx.query_id(),
            tenant: ctx.tenant().to_string(),
            label: label.to_string(),
            status: status.to_string(),
            reason: killed.map(|r| r.as_str().to_string()).unwrap_or_default(),
            wall_nanos,
            sim_nanos,
            queue_wait_nanos,
            ledger: ctx.ledger().snapshot(),
        });
        result
    }

    // ---- introspection -----------------------------------------------------

    /// Simulated-latency metrics of the object store.
    pub fn store_metrics(&self) -> Arc<StoreMetrics> {
        self.store.metrics()
    }

    /// The workers that overlap this instance's data-file requests.
    pub fn io_dispatcher(&self) -> &Arc<IoDispatcher> {
        &self.io
    }

    /// This instance's cache of write-once table objects: parsed metadata
    /// documents and manifests, and opened data files.
    pub fn object_cache(&self) -> &Arc<ObjectCache> {
        &self.object_cache
    }

    /// What every table this instance opens reads and writes through.
    pub(crate) fn table_io(&self) -> TableIo {
        TableIo {
            cache: Some(Arc::clone(&self.object_cache)),
            dispatcher: Some(Arc::clone(&self.io)),
            writer_options: lakehouse_format::WriterOptions {
                row_group_rows: self.config.row_group_rows,
            },
        }
    }

    /// The admission gate, when there is one.
    pub fn admission(&self) -> Option<&crate::AdmissionController> {
        self.admission.as_ref()
    }

    /// Replace the admission gate. A multi-tenant deployment hands several
    /// `Lakehouse` instances (one per tenant label) clones of **one**
    /// controller so they contend for the same platform-wide slots.
    pub fn set_admission(&mut self, gate: Option<crate::AdmissionController>) {
        self.admission = gate;
    }

    /// The runtime's simulated clock: container start-ups and freezes.
    pub fn clock(&self) -> &SimClock {
        self.runtime.clock()
    }

    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn config(&self) -> &LakehouseConfig {
        &self.config
    }

    // ---- git-for-data surface (paper §4.3) ----------------------------------

    /// Create a branch from another ref (or empty).
    pub fn create_branch(&self, name: &str, from: Option<&str>) -> Result<Reference> {
        Ok(self.catalog.create_branch(name, from)?)
    }

    /// Create an immutable tag.
    pub fn create_tag(&self, name: &str, from: &str) -> Result<Reference> {
        Ok(self.catalog.create_tag(name, from)?)
    }

    /// Merge `from` into `to` (three-way with conflict detection).
    pub fn merge(&self, from: &str, to: &str) -> Result<Option<CommitId>> {
        Ok(self.catalog.merge(from, to, &self.config.author)?)
    }

    /// Delete a branch or tag.
    pub fn delete_branch(&self, name: &str) -> Result<()> {
        Ok(self.catalog.delete_ref(name)?)
    }

    /// Commit log of a ref, newest first.
    pub fn log(&self, reference: &str, limit: usize) -> Result<Vec<(CommitId, Commit)>> {
        Ok(self.catalog.log(reference, limit)?)
    }

    /// All refs.
    pub fn list_refs(&self) -> Result<Vec<Reference>> {
        Ok(self.catalog.list_refs()?)
    }

    /// Garbage-collect catalog commits unreachable from any ref (run after
    /// deleting branches).
    pub fn gc_catalog(&self) -> Result<usize> {
        Ok(self.catalog.gc()?)
    }

    /// Table names visible at a ref.
    pub fn list_tables(&self, reference: &str) -> Result<Vec<String>> {
        Ok(self
            .catalog
            .state_at(reference)?
            .keys()
            .map(String::from)
            .collect())
    }

    // ---- tables -------------------------------------------------------------

    /// Create a table from a batch and commit it to `branch`.
    pub fn create_table(&self, name: &str, batch: &RecordBatch, branch: &str) -> Result<()> {
        self.create_table_partitioned(name, batch, branch, PartitionSpec::unpartitioned())
    }

    /// Create a partitioned table from a batch and commit it to `branch`.
    pub fn create_table_partitioned(
        &self,
        name: &str,
        batch: &RecordBatch,
        branch: &str,
        spec: PartitionSpec,
    ) -> Result<()> {
        let n = self.table_counter.fetch_add(1, Ordering::Relaxed);
        // Uniquify across process restarts (disk-backed stores): count the
        // objects already under this table's prefix.
        let existing = self
            .store_dyn
            .list(&format!("{}/{name}", self.config.warehouse_prefix))
            .map(|l| l.len())
            .unwrap_or(0);
        let location = format!("{}/{name}/u{n}-{existing}", self.config.warehouse_prefix);
        let batches = Batches::one(batch.clone());
        let (put, _) = self.write_new_table(name, &location, spec, self.table_io(), &batches)?;
        let message = format!("create table {name}");
        self.catalog
            .commit(branch, &self.config.author, &message, vec![put])?;
        Ok(())
    }

    /// Write a new table at `location` holding `batches` — its first
    /// snapshot in its first metadata document — and return the catalog
    /// operation that names it `name`, with what its data files took.
    pub(crate) fn write_new_table(
        &self,
        name: &str,
        location: &str,
        spec: PartitionSpec,
        io: TableIo,
        batches: &Batches,
    ) -> Result<(Operation, Written)> {
        let store = Arc::clone(&self.store_dyn);
        let mut tx = Table::create_transaction(store, location, &batches.schema, spec, io)?;
        let written = tx.write_batches(&batches.batches)?;
        let (metadata_location, metadata) = tx.commit()?;
        Ok((table_put(name, metadata_location, &metadata), written))
    }

    /// Append a batch to an existing table on `branch`.
    pub fn append_table(&self, name: &str, batch: &RecordBatch, branch: &str) -> Result<()> {
        self.update_table(branch, name, &format!("append to {name}"), |table| {
            // A source that cannot declare NOT NULL (a CSV) appends as the
            // table's own schema when names and types agree; a NULL in a NOT
            // NULL column is then the batch's error, not a schema mismatch.
            let schema = table.schema()?;
            let typed = |s: &Schema| s.fields().iter().map(|f| f.data_type()).collect::<Vec<_>>();
            let same_columns =
                batch.schema().names() == schema.names() && typed(batch.schema()) == typed(&schema);
            let conformed;
            let mut batch = batch;
            if batch.schema() != &schema && same_columns {
                conformed = RecordBatch::try_new(schema, batch.columns().to_vec())?;
                batch = &conformed;
            }
            let mut tx = table.new_transaction(SnapshotOperation::Append);
            tx.write(batch)?;
            Ok((Some(tx.commit_table()?), ()))
        })
    }

    /// Compact a table's data files on a branch (small-file compaction) and
    /// point the catalog at the compacted version. Returns the maintenance
    /// report.
    pub fn compact_table(
        &self,
        name: &str,
        branch: &str,
    ) -> Result<lakehouse_table::CompactionReport> {
        self.update_table(branch, name, &format!("compact table {name}"), |table| {
            let (compacted, report) = table.compact()?;
            Ok(((report.files_compacted > 0).then_some(compacted), report))
        })
    }

    /// Expire old snapshots of a table on a branch, retaining the most
    /// recent `retain_last`, and update the catalog pointer.
    pub fn expire_table_snapshots(
        &self,
        name: &str,
        branch: &str,
        retain_last: usize,
    ) -> Result<lakehouse_table::ExpirationReport> {
        let message = format!("expire snapshots of {name}");
        self.update_table(branch, name, &message, |table| {
            let (expired, report) = table.expire_snapshots(retain_last)?;
            Ok(((report.snapshots_expired > 0).then_some(expired), report))
        })
    }

    /// Point `name` on `branch` at the version `op` makes of the table
    /// there (`None`: commit nothing), and return what else `op` made. The
    /// table is loaded from the head each CAS attempt read, so when another
    /// commit lands first `op` runs again on what it left (DESIGN.md §33).
    fn update_table<T>(
        &self,
        branch: &str,
        name: &str,
        message: &str,
        mut op: impl FnMut(Table) -> Result<(Option<Table>, T)>,
    ) -> Result<T> {
        let provider = self.provider(branch);
        let author = &self.config.author;
        self.catalog.commit_with(branch, author, message, |state| {
            let content = state
                .get(name)
                .ok_or_else(|| lakehouse_catalog::CatalogError::KeyNotFound(name.to_string()))?;
            let (changed, out) = op(provider.load_metadata(&content.metadata_location)?)?;
            let put = changed.map(|t| table_put(name, t.metadata_location(), t.metadata()));
            Ok((put.into_iter().collect(), out))
        })
    }

    /// Read a whole table at a ref.
    pub fn read_table(&self, name: &str, reference: &str) -> Result<RecordBatch> {
        self.statement(reference, unmarked, |lake| {
            let table = lake.table(name).map_err(|_| BauplanError::TableNotFound {
                table: name.to_string(),
                reference: reference.to_string(),
            })?;
            Ok(table.scan().execute()?)
        })
    }

    // ---- query (paper §4.6: `bauplan query -q ... -b ...`) -------------------

    /// Run one statement at `reference`: the one path every statement entry
    /// point takes. `run` reads the catalog through the pin it is given.
    /// On a front whose ref reads are slow, the first catalog lookup pins
    /// the head this front last saw and the ref is read on an I/O worker
    /// meanwhile; when the statement ends, with a result or an error, the
    /// read is waited for, and if the ref has moved the statement runs once
    /// more at the state read. Either way its snapshot is the ref as read
    /// by a GET issued after it began (DESIGN.md §31). `mark` gets the
    /// `ref_read` (`inline`, `overlapped`) and `guess` (`none`, `hit`,
    /// `miss`) of a statement that read the ref.
    fn statement<T>(
        &self,
        reference: &str,
        mark: impl Fn(&str, &'static str),
        run: impl Fn(&PinnedProvider<'_>) -> Result<T>,
    ) -> Result<T> {
        let provider = self.provider(reference);
        let pinned = provider.pin_overlapped();
        let result = run(&pinned);
        let (placement, guess, moved) = match pinned.confirm()? {
            RefRead::Unread => return result,
            RefRead::Inline => ("inline", "none", None),
            RefRead::Confirmed => ("overlapped", "hit", None),
            RefRead::Moved(state) => ("overlapped", "miss", Some(state)),
        };
        mark("ref_read", placement);
        mark("guess", guess);
        let Some(state) = moved else {
            return result;
        };
        drop(result);
        lakehouse_obs::global()
            .counter("catalog.ref_guess_misses")
            .inc();
        match state {
            Some(state) => run(&provider.pin_at(state)),
            None => run(&provider.pin()),
        }
    }

    /// Synchronous SQL over any branch, tag, or commit id (time travel).
    pub fn query(&self, sql: &str, reference: &str) -> Result<RecordBatch> {
        let _sim = self.install_sim();
        let span = lakehouse_obs::span("query");
        span.attr("reference", reference);
        let mark = |key: &str, value: &'static str| span.attr(key, value);
        self.attributed(sql, || {
            self.statement(reference, mark, |lake| Ok(self.engine.query(sql, lake)?))
        })
    }

    /// [`Self::query`], also reporting the executor's peak working set and
    /// per-operator row counts.
    pub fn query_with_report(
        &self,
        sql: &str,
        reference: &str,
    ) -> Result<(RecordBatch, lakehouse_sql::ExecReport)> {
        let _sim = self.install_sim();
        let span = lakehouse_obs::span("query");
        span.attr("reference", reference);
        let mark = |key: &str, value: &'static str| span.attr(key, value);
        self.attributed(sql, || {
            self.statement(reference, mark, |lake| {
                Ok(self.engine.query_with_report(sql, lake)?)
            })
        })
    }

    /// EXPLAIN the optimized plan for a query at a ref.
    pub fn explain(&self, sql: &str, reference: &str) -> Result<String> {
        self.statement(reference, unmarked, |lake| {
            Ok(self.engine.explain(sql, lake)?)
        })
    }

    /// EXPLAIN ANALYZE at a ref: execute the query and render the optimized
    /// plan annotated per operator with rows, batches, bytes, and
    /// wall/simulated span time, with the recorded span tree for exporters
    /// (`--trace-out`, `bauplan profile`).
    pub fn explain_analyze_traced(
        &self,
        sql: &str,
        reference: &str,
    ) -> Result<(RecordBatch, String, lakehouse_obs::SpanTree)> {
        let _sim = self.install_sim();
        self.attributed(sql, || {
            self.statement(reference, unmarked, |lake| {
                Ok(self.engine.explain_analyze_traced(sql, lake)?)
            })
        })
    }

    /// Execute a query under a forced trace and return the result together
    /// with the full span tree (scan planning, fetches, operators) — the
    /// backing of `bauplan profile`.
    pub fn profile(
        &self,
        sql: &str,
        reference: &str,
    ) -> Result<(RecordBatch, lakehouse_obs::SpanTree)> {
        let _sim = self.install_sim();
        let trace = lakehouse_obs::Trace::start_forced("query");
        trace.attr("reference", reference);
        trace.attr("sql", sql);
        let mark = |key: &str, value: &'static str| trace.attr(key, value);
        let result = self.attributed(sql, || {
            self.statement(reference, mark, |lake| Ok(self.engine.query(sql, lake)?))
        });
        let tree = trace.finish();
        Ok((result?, tree))
    }

    pub(crate) fn provider(&self, reference: &str) -> LakehouseProvider {
        LakehouseProvider::new(
            Arc::clone(&self.store_dyn),
            Arc::clone(&self.catalog),
            reference,
        )
        .with_fetch_retries(self.config.retry_max)
        .with_io(self.table_io())
    }

    // ---- functions ------------------------------------------------------------

    /// Register a native function (pipeline step implementation).
    pub fn register_function(
        &self,
        id: impl Into<String>,
        f: impl Fn(&FnContext) -> Result<FnOutput> + Send + Sync + 'static,
    ) {
        self.functions.write().register(id, f);
    }

    /// Register the paper's Appendix A expectation
    /// (`mean(trips.count) > 10`) under `trips_expectation_impl`, as used by
    /// [`lakehouse_planner::PipelineProject::taxi_example`].
    pub fn register_taxi_functions(&self) {
        self.register_function(
            "trips_expectation_impl",
            crate::functions::builtins::mean_greater_than("trips", "count", 10.0),
        );
    }

    // ---- runs ---------------------------------------------------------------

    /// Number of recorded runs.
    pub fn run_count(&self) -> usize {
        self.runs.lock().len()
    }

    // ---- governance (paper §5 future work + §2 auditability) ----------------

    /// Install an access policy and start enforcing it.
    pub fn set_access_policy(&self, grants: Vec<Grant>) {
        self.access.set_policy(grants);
    }

    /// The access controller (audit log, enforcement toggles).
    pub fn access(&self) -> &AccessController {
        &self.access
    }

    /// `query` with an authenticated principal: checked against the policy
    /// and audited.
    pub fn query_as(
        &self,
        principal: &Principal,
        sql: &str,
        reference: &str,
    ) -> Result<RecordBatch> {
        if !self.access.check(principal, Action::Read, reference, sql) {
            return Err(BauplanError::AccessDenied {
                principal: principal.name.clone(),
                action: "read".into(),
                reference: reference.to_string(),
            });
        }
        self.query(sql, reference)
    }

    /// `run` with an authenticated principal (Write on the target branch).
    pub fn run_as(
        &self,
        principal: &Principal,
        project: &lakehouse_planner::PipelineProject,
        options: &crate::run::RunOptions,
    ) -> Result<crate::run::RunReport> {
        if !self
            .access
            .check(principal, Action::Write, &options.branch, &project.name)
        {
            return Err(BauplanError::AccessDenied {
                principal: principal.name.clone(),
                action: "write".into(),
                reference: options.branch.clone(),
            });
        }
        self.run(project, options)
    }

    /// `merge` with an authenticated principal.
    pub fn merge_as(
        &self,
        principal: &Principal,
        from: &str,
        to: &str,
    ) -> Result<Option<CommitId>> {
        if !self
            .access
            .check(principal, Action::Merge, to, &format!("merge {from}"))
        {
            return Err(BauplanError::AccessDenied {
                principal: principal.name.clone(),
                action: "merge".into(),
                reference: to.to_string(),
            });
        }
        self.merge(from, to)
    }

    /// The log-driven memory estimator (paper §5 "using logs ... to further
    /// optimize").
    pub fn memory_estimator(&self) -> &MemoryEstimator {
        &self.estimator
    }
}

/// The `mark` of a statement with no span of its own.
fn unmarked(_: &str, _: &'static str) {}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_columnar::{Column, DataType, Field, Schema, Value};

    fn lh() -> Lakehouse {
        Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap()
    }

    fn batch(vals: Vec<i64>) -> RecordBatch {
        RecordBatch::try_new(
            Schema::new(vec![Field::new("x", DataType::Int64, false)]),
            vec![Column::from_i64(vals)],
        )
        .unwrap()
    }

    #[test]
    fn create_and_query_table() {
        let lh = lh();
        lh.create_table("nums", &batch(vec![1, 2, 3]), "main")
            .unwrap();
        let out = lh.query("SELECT SUM(x) AS s FROM nums", "main").unwrap();
        assert_eq!(out.row(0).unwrap()[0], Value::Int64(6));
    }

    #[test]
    fn append_accumulates() {
        let lh = lh();
        lh.create_table("nums", &batch(vec![1]), "main").unwrap();
        lh.append_table("nums", &batch(vec![2, 3]), "main").unwrap();
        let out = lh.read_table("nums", "main").unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn branch_isolation_and_merge() {
        let lh = lh();
        lh.create_table("nums", &batch(vec![1]), "main").unwrap();
        lh.create_branch("feat", Some("main")).unwrap();
        lh.create_table("extra", &batch(vec![9]), "feat").unwrap();
        assert_eq!(lh.list_tables("feat").unwrap().len(), 2);
        assert_eq!(lh.list_tables("main").unwrap().len(), 1);
        lh.merge("feat", "main").unwrap();
        assert_eq!(lh.list_tables("main").unwrap().len(), 2);
    }

    #[test]
    fn time_travel_by_commit_and_tag() {
        let lh = lh();
        lh.create_table("nums", &batch(vec![1]), "main").unwrap();
        let (v1_commit, _) = lh.log("main", 1).unwrap().pop().unwrap();
        lh.create_tag("v1", "main").unwrap();
        lh.append_table("nums", &batch(vec![2]), "main").unwrap();
        assert_eq!(lh.read_table("nums", "main").unwrap().num_rows(), 2);
        assert_eq!(lh.read_table("nums", "v1").unwrap().num_rows(), 1);
        assert_eq!(lh.read_table("nums", &v1_commit).unwrap().num_rows(), 1);
        // Queries time travel too.
        let out = lh.query("SELECT COUNT(*) AS n FROM nums", "v1").unwrap();
        assert_eq!(out.row(0).unwrap()[0], Value::Int64(1));
    }

    #[test]
    fn missing_table_error() {
        let lh = lh();
        assert!(matches!(
            lh.read_table("ghost", "main"),
            Err(BauplanError::TableNotFound { .. })
        ));
        assert!(lh.query("SELECT * FROM ghost", "main").is_err());
    }

    #[test]
    fn explain_works_through_catalog() {
        let lh = lh();
        lh.create_table("nums", &batch(vec![1, 2]), "main").unwrap();
        let text = lh
            .explain("SELECT x FROM nums WHERE x > 1", "main")
            .unwrap();
        assert!(text.contains("Scan: nums"));
        assert!(text.contains("filters="));
    }

    #[test]
    fn store_metrics_observe_traffic() {
        let lh = Lakehouse::in_memory(LakehouseConfig::default()).unwrap();
        lh.create_table("nums", &batch(vec![1, 2, 3]), "main")
            .unwrap();
        let before = lh.store_metrics().gets();
        lh.query("SELECT * FROM nums", "main").unwrap();
        assert!(lh.store_metrics().gets() > before);
        assert!(lh.store_metrics().simulated_time() > std::time::Duration::ZERO);
    }
}
