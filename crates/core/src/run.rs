//! Pipeline runs: the transform-audit-write executor (paper §4.3, §4.4.2,
//! Fig. 4).
//!
//! Every run:
//!
//! 1. snapshots and fingerprints the project (code is data);
//! 2. plans it: extracts the DAG (parsing each SQL node once) and compiles
//!    the logical pipeline to a physical plan — `Fused` packs steps into
//!    container stages with in-memory data passing, `Naive` maps one step
//!    to one container with object-store spillover;
//! 3. pins its data version — the target branch's head, or a recorded
//!    version for replays — with its one read of the ref, and binds every
//!    SQL node against it, so a mistake in one fails the run before it has
//!    a commit, a container or a data file (a node over a function's output
//!    binds at its own step, once the function has returned);
//! 4. keeps its **ephemeral branch** `run_<id>` (Fig. 4) in memory: a head,
//!    at first the pinned commit, that no other front can list;
//! 5. executes stages on the serverless runtime (charging simulated startup
//!    latency per container), each SQL step running its bound plan at the
//!    run's head, and materializes each stage's artifacts in one commit on
//!    that head — kept in memory: no commit object is written and no ref is
//!    read or moved;
//! 6. audits expectations — a failure writes no ref and no commit: the
//!    target branch is untouched and nothing names the run's data files;
//! 7. on success, publishes its head: writes its commits, then one CAS of
//!    the ref document against the bytes the pin read — the target
//!    fast-forwards when it still points at the pinned commit and merges
//!    three-way when it moved (a sandboxed replay creates `run_<id>` at its
//!    head instead).

use crate::error::{BauplanError, Result};
use crate::functions::{Batches, FnContext, FnOutput};
use crate::lakehouse::Lakehouse;
use crate::provider::PinnedProvider;
use lakehouse_catalog::CommitId;
use lakehouse_columnar::{RecordBatch, Schema};
use lakehouse_planner::project::NodeKind;
use lakehouse_planner::{
    ExecutionMode, LogicalPipeline, PhysicalPipeline, PipelineDag, PipelineProject, PlannerError,
    ProjectSnapshot, RunRecord, StepAction,
};
use lakehouse_runtime::{EnvSpec, Reuse};
use lakehouse_sql::logical::{plan_select, SchemaProvider};
use lakehouse_sql::optimizer::optimize;
use lakehouse_sql::LogicalPlan;
use lakehouse_table::{ObjectCache, PartitionSpec};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Memory estimate for a pipeline step that has never run (drives fusion
/// packing and the stage span's memory figure); a step that has run is
/// estimated from its own history instead.
const DEFAULT_STEP_MEMORY: u64 = 512 * 1024 * 1024;

/// Options for a pipeline run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Target branch (artifacts merge here on success).
    pub branch: String,
    /// Override the configured execution mode.
    pub mode: Option<ExecutionMode>,
    /// Merge into the target branch on success. Replays set this false to
    /// stay sandboxed; the ephemeral branch is then published as a ref for
    /// inspection.
    pub merge: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            branch: "main".into(),
            mode: None,
            merge: true,
        }
    }
}

impl RunOptions {
    pub fn on_branch(branch: impl Into<String>) -> RunOptions {
        RunOptions {
            branch: branch.into(),
            ..Default::default()
        }
    }

    pub fn with_mode(mut self, mode: ExecutionMode) -> RunOptions {
        self.mode = Some(mode);
        self
    }
}

/// The outcome of a run, including the simulation's latency accounting.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub run_id: u64,
    pub success: bool,
    pub branch: String,
    /// The run's ephemeral branch: a head kept in memory while it runs,
    /// never a ref, except that a sandboxed replay publishes it as one.
    pub ephemeral_branch: String,
    pub mode: ExecutionMode,
    /// Artifact name → rows materialized.
    pub artifact_rows: BTreeMap<String, u64>,
    /// Expectation name → verdict.
    pub audit_results: BTreeMap<String, bool>,
    /// Total simulated latency: container startups + data passing + the
    /// stages' object-store traffic.
    pub simulated_total: Duration,
    /// Simulated time spent in container startups only.
    pub simulated_startup: Duration,
    /// Simulated time of the stages' object-store requests: from just
    /// before the first stage to just before the publish. The pin, the
    /// binding and the publish — the commits' objects and the ref's CAS —
    /// are not counted.
    pub simulated_store: Duration,
    /// (cold, warm, resume) container starts during the run.
    pub container_starts: (u64, u64, u64),
    /// Object-store (gets, puts) of the stages, counted as
    /// [`Self::simulated_store`] is.
    pub store_ops: (u64, u64),
    /// Number of container invocations (stages executed).
    pub stages_executed: usize,
    /// Peak working set across this run's SQL steps (bytes): the largest
    /// [`lakehouse_sql::ExecReport::peak_bytes`] among them.
    pub peak_query_bytes: usize,
    /// The run's span tree: plan, stages, steps, container starts, scans.
    /// Every run is traced (forced), so this is always populated.
    pub trace: lakehouse_obs::SpanTree,
}

/// The per-instance metric sources a run reports, sampled at one moment or
/// differenced over the run. The global [`lakehouse_obs::MetricsRegistry`]
/// counters are process-wide (shared across lakehouses and parallel tests),
/// so run accounting samples the instance-local sources and diffs them
/// instead.
struct RunMetrics {
    /// Simulated container start-up time (the runtime's clock).
    startup: Duration,
    /// Simulated object-store time.
    store: Duration,
    gets: u64,
    puts: u64,
    /// (cold, warm, resume) container starts.
    starts: (u64, u64, u64),
}

impl RunMetrics {
    fn sample(lh: &Lakehouse) -> RunMetrics {
        let metrics = lh.store_metrics();
        RunMetrics {
            startup: lh.clock().now(),
            store: metrics.simulated_time(),
            gets: metrics.gets(),
            puts: metrics.puts(),
            starts: lh.runtime().containers().start_counts(),
        }
    }

    /// What changed between this sample and now.
    fn since(&self, lh: &Lakehouse) -> RunMetrics {
        let now = RunMetrics::sample(lh);
        let (cold, warm, resume) = self.starts;
        RunMetrics {
            startup: now.startup - self.startup,
            store: now.store - self.store,
            gets: now.gets - self.gets,
            puts: now.puts - self.puts,
            starts: (
                now.starts.0 - cold,
                now.starts.1 - warm,
                now.starts.2 - resume,
            ),
        }
    }
}

impl Lakehouse {
    /// Execute a pipeline with the transform-audit-write pattern.
    pub fn run(&self, project: &PipelineProject, options: &RunOptions) -> Result<RunReport> {
        self.execute_run(project.clone(), options.clone(), None)
    }

    /// Re-execute a recorded run in a sandbox: same code snapshot, same data
    /// version. `from_node` limits execution to `node` and its descendants
    /// (the CLI's `--run-id N -m node+`). Never merges.
    pub fn replay(&self, run_id: u64, from_node: Option<&str>) -> Result<RunReport> {
        let (project, data_version, branch) = {
            let runs = self.runs.lock();
            let rec = runs.get(run_id).map_err(BauplanError::Planner)?;
            (
                rec.project.clone(),
                rec.data_version.clone(),
                rec.branch.clone(),
            )
        };
        let options = RunOptions {
            branch,
            mode: None,
            merge: false,
        };
        let replay = (data_version, from_node.map(str::to_string));
        self.execute_run(project, options, Some(replay))
    }

    /// Run asynchronously on a worker thread (the Table 1 `Asynch` modality).
    pub fn run_async(self: &Arc<Self>, project: PipelineProject, options: RunOptions) -> RunHandle {
        let lh = Arc::clone(self);
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let join = std::thread::spawn(move || {
            let result = lh.execute_run(project, options, None);
            let _ = tx.send(result);
        });
        RunHandle {
            rx,
            join: Some(join),
        }
    }

    /// Run `project`; a replay passes the data version it re-reads and its
    /// `-m node+` selector.
    fn execute_run(
        &self,
        project: PipelineProject,
        options: RunOptions,
        replay: Option<(String, Option<String>)>,
    ) -> Result<RunReport> {
        let mode = options.mode.unwrap_or(self.config.execution_mode);
        let snapshot = ProjectSnapshot::of(&project);
        let run_id = self.runs.lock().reserve();

        // Every run is traced (forced): the resulting span tree ships with
        // the report. Simulated timestamps come from the lakehouse clocks.
        let _sim = self.install_sim();
        let trace = lakehouse_obs::Trace::start_forced("run");
        trace.attr("run_id", run_id);
        trace.attr("branch", options.branch.as_str());
        trace.attr("mode", format!("{mode:?}"));

        // Plan.
        let plan_span = lakehouse_obs::span("plan");
        let dag = PipelineDag::extract(&project)?;
        let from_node = replay.as_ref().and_then(|(_, node)| node.as_deref());
        let selection = (from_node.map(|node| dag.descendants_inclusive(node))).transpose()?;
        let logical = LogicalPipeline::plan_with_dag(&project, &dag, selection.as_deref())?;
        // Stage packing uses the log-driven memory estimator (paper §5):
        // nodes that ran before get history-based working-set predictions.
        let physical = PhysicalPipeline::compile(
            &logical,
            &dag,
            mode,
            self.config.worker_memory_bytes,
            |node| self.estimator.estimate(node, DEFAULT_STEP_MEMORY),
        )?;
        plan_span.attr("stages", physical.stages.len() as u64);

        // Pin the data version this run reads (for the registry + replays)
        // once, and bind every node it can against it.
        let base_ref = replay
            .as_ref()
            .map_or(&options.branch, |(version, _)| version);
        let (base, read) = self.catalog.pin(base_ref)?;
        let state = self.catalog.state_of_head(base.as_ref())?;
        let data_version = base.clone().unwrap_or_else(|| "<empty>".to_string());
        let lake = self.provider(&data_version);
        let mut binder = Binder {
            dag: &dag,
            lake: lake.pin_at(state),
            schemas: logical
                .steps
                .iter()
                .map(|s| (s.name.clone(), None))
                .collect(),
            plans: HashMap::new(),
        };
        binder.bind_known(&logical)?;
        plan_span.attr("bound", binder.plans.len() as u64);
        drop(plan_span);

        // Ephemeral branch (Fig. 4): run_<id>, a head in memory, at first
        // the pinned commit.
        let ephemeral = format!("run_{run_id}");
        let mut head = base.clone();

        // Metric baselines for the report.
        let baseline = RunMetrics::sample(self);

        let mut peak_query_bytes = 0usize;
        let outcome = self.execute_stages(
            &project,
            &logical,
            &physical,
            &mut binder,
            &mut head,
            run_id,
            &mut peak_query_bytes,
        );

        // Collect deltas regardless of success.
        let used = baseline.since(self);
        let (artifact_rows, audit_results, failure) = match outcome {
            Ok((rows, audits)) => {
                let failed_audit = audits.iter().find(|(_, &v)| !v);
                let failure = failed_audit
                    .map(|(node, _)| BauplanError::ExpectationFailed { node: node.clone() });
                (rows, audits, failure)
            }
            Err(e) => (BTreeMap::new(), BTreeMap::new(), Some(e)),
        };
        let success = failure.is_none();

        // Transactional finish: publish only a fully-green run; a failed
        // one writes no ref. The recorded data version is the run branch's
        // final commit: what the run read, plus its own artifacts, so
        // partial replays like `-m pickups+` can read their parents'
        // outputs. Failed runs record the pinned version.
        let mut recorded_version = data_version;
        if let Some(head) = head.filter(|_| success) {
            let (catalog, author, base) = (&self.catalog, &self.config.author, base.as_ref());
            if options.merge {
                catalog.publish(read, base, &head, &ephemeral, &options.branch, author)?;
            } else {
                // A sandboxed success (replay) keeps its branch for inspection.
                catalog.create_branch_at(base, &ephemeral, &head)?;
            }
            recorded_version = head;
        }

        // Record the run.
        self.runs
            .lock()
            .record(RunRecord {
                run_id,
                project,
                snapshot,
                data_version: recorded_version,
                branch: options.branch.clone(),
                success,
                output_rows: artifact_rows.clone(),
            })
            .map_err(BauplanError::Planner)?;

        trace.attr("success", if success { "true" } else { "false" });
        let run_trace = trace.finish();

        if let Some(e) = failure {
            return Err(e);
        }

        Ok(RunReport {
            run_id,
            success,
            branch: options.branch,
            ephemeral_branch: ephemeral,
            mode,
            artifact_rows,
            audit_results,
            simulated_total: used.startup + used.store,
            simulated_startup: used.startup,
            simulated_store: used.store,
            container_starts: used.starts,
            store_ops: (used.gets, used.puts),
            stages_executed: physical.stages.len(),
            peak_query_bytes,
            trace: run_trace,
        })
    }

    /// Execute all stages, returning (artifact rows, audit verdicts).
    /// `peak_query_bytes` accumulates the max executor working set across
    /// SQL steps.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn execute_stages(
        &self,
        project: &PipelineProject,
        logical: &LogicalPipeline,
        physical: &PhysicalPipeline,
        binder: &mut Binder,
        head: &mut Option<CommitId>,
        run_id: u64,
        peak_query_bytes: &mut usize,
    ) -> Result<(BTreeMap<String, u64>, BTreeMap<String, bool>)> {
        let mut artifact_rows = BTreeMap::new();
        let mut audit_results = BTreeMap::new();
        // Stages are emitted in topological step order, so running them in
        // index order runs every producer before its consumers.
        for (stage_idx, stage) in physical.stages.iter().enumerate() {
            let estimated_bytes: u64 = stage
                .steps
                .iter()
                .map(|s| self.estimator.estimate(s, DEFAULT_STEP_MEMORY))
                .sum();
            // Each stage contends for an admission slot like an ad-hoc
            // query, so stages from concurrent runs interleave under one
            // gate. The SQL steps inside run under this permit and skip it.
            let _permit = self.admit().map_err(|shed| BauplanError::Overloaded {
                retry_after: shed.retry_after,
            })?;
            let _stage_scope = crate::lakehouse::StagePermitScope::enter();
            lakehouse_obs::recorder().record_for(
                lakehouse_obs::EventKind::StageStart,
                0,
                self.config.tenant.clone(),
                &format!("run_{run_id}/stage_{stage_idx}"),
                stage.steps.len() as u64,
            );
            // Every run is traced, so its spans always record.
            let stage_span = lakehouse_obs::span("stage");
            stage_span.attr("index", stage_idx as u64);
            stage_span.attr("steps", stage.steps.join(","));
            let memory_bytes = estimated_bytes.min(self.config.worker_memory_bytes);
            stage_span.attr("memory_bytes", memory_bytes);
            // One container per stage, for the stage's merged environment.
            self.charge_container(&self.stage_env(project, &stage.steps), physical.mode)?;

            // The naive baseline (the paper's first version) reads whole
            // tables — no scan-level predicate pushdown — and runs each node
            // in a stateless container: nothing in memory outlives a stage,
            // parsed table metadata and opened data files included, so each
            // gets a cache of its own. The overlay is per stage in both
            // modes: downstream stages re-read through the object store,
            // matching the physical plan's edge localities.
            let fused = physical.mode == ExecutionMode::Fused;
            let mut io = self.table_io();
            if !fused {
                io.cache = Some(Arc::new(ObjectCache::new()));
            }
            // Every read of the lake in this stage is at the run's head: the
            // pinned commit plus the earlier stages' artifacts. No ref names
            // that head and its commits are not written yet, so a stage reads
            // through `pin_at(state)` only, never through this provider's
            // reference.
            let provider = &self
                .provider(&format!("run_{run_id}"))
                .with_pushdown(fused)
                .with_io(io.clone())
                .keeping_chunks();
            let state = self.catalog.state_of_head(head.as_ref())?;

            // Execute the stage's steps in order; intermediates stay in the
            // provider overlay (in-memory locality within the stage), as the
            // batches they were produced in.
            let mut stage_outputs: Vec<(String, Arc<Batches>)> = Vec::new();
            for step_name in &stage.steps {
                let step_span = lakehouse_obs::span("step");
                step_span.attr("name", step_name.as_str());
                let unknown =
                    || BauplanError::Planner(PlannerError::UnknownNode(step_name.clone()));
                let step = logical
                    .steps
                    .iter()
                    .find(|s| &s.name == step_name)
                    .ok_or_else(unknown)?;
                let node = project.get(step_name).ok_or_else(unknown)?;
                match node.kind {
                    NodeKind::SqlTransform => {
                        let plan = binder.take_plan(step_name)?;
                        // The step is its own attributed unit, labelled with
                        // its SQL text: a query id, a resource ledger and a
                        // `system.queries` row, like an ad-hoc query. A read
                        // that fails is not run again: the `RetryStore`
                        // underneath has already retried a transient store
                        // fault to exhaustion (DESIGN.md §11).
                        let sql = node.sql.as_deref().unwrap_or_default();
                        let output = self.attributed(sql, || {
                            let pinned = provider.pin_at(Arc::clone(&state));
                            let (schema, batches, report) =
                                lakehouse_sql::execute_batches(&plan, &pinned)?;
                            *peak_query_bytes = (*peak_query_bytes).max(report.peak_bytes);
                            Ok(Batches { schema, batches })
                        })?;
                        // The step's output is the batches its root emitted:
                        // the overlay, the function inputs and the
                        // materializer share them, never concatenated.
                        let output = Arc::new(output);
                        provider.put_overlay(step_name.clone(), Arc::clone(&output));
                        stage_outputs.push((step_name.clone(), output));
                    }
                    NodeKind::FunctionTransform | NodeKind::Expectation => {
                        let f = {
                            let registry = self.functions.read();
                            registry.get(node.function_id.as_deref().unwrap_or(""))?
                        };
                        let mut inputs = HashMap::new();
                        for input in step.inputs.iter().chain(&step.external_inputs) {
                            let batches = match provider.get_overlay(input) {
                                Some(b) => b,
                                // Cross-stage edge or lake table: read
                                // at the run's head (object store).
                                None => {
                                    let pinned = provider.pin_at(Arc::clone(&state));
                                    let scan = pinned.table(input)?.scan();
                                    let (schema, batches, _) = scan.execute_batches()?;
                                    Arc::new(Batches { schema, batches })
                                }
                            };
                            inputs.insert(input.clone(), batches);
                        }
                        match f(&FnContext { inputs })? {
                            FnOutput::Batch(batch) => {
                                let schema = Some(batch.schema().clone());
                                binder.schemas.insert(step_name.clone(), schema);
                                let output = Arc::new(Batches::one(batch));
                                provider.put_overlay(step_name.clone(), Arc::clone(&output));
                                if step.action == StepAction::Materialize {
                                    stage_outputs.push((step_name.clone(), output));
                                }
                            }
                            FnOutput::Expectation(passed) => {
                                audit_results.insert(step_name.clone(), passed);
                                if !passed {
                                    // Record and stop: transform-audit-write
                                    // aborts before any merge.
                                    return Ok((artifact_rows, audit_results));
                                }
                            }
                        }
                    }
                }
            }

            // Materialize the stage's artifacts in one commit on the run's
            // head (atomic per stage). Each Iceberg-style INSERT runs
            // through a "Spark command" container (paper §4.2): fused mode
            // resumes a frozen one (materialization "looks no slower than
            // running any other Python function"), the naive baseline pays
            // the stateless startup path every time.
            let mat_span = lakehouse_obs::span("materialize");
            mat_span.attr("artifacts", stage_outputs.len() as u64);
            if !stage_outputs.is_empty() {
                self.charge_container(&EnvSpec::bare("spark-insert"), physical.mode)?;
            }
            let mut ops = Vec::new();
            for (name, output) in &stage_outputs {
                // Each artifact's write is its own span: a step that only
                // reads and renames columns copies its sources' chunks
                // (`groups_copied`), any other encodes its values.
                let span = lakehouse_obs::span("artifact");
                span.attr("name", name.as_str());
                span.attr("rows", output.num_rows() as u64);
                let location = format!("{}/{name}/r{run_id}", self.config.warehouse_prefix);
                let spec = PartitionSpec::unpartitioned();
                let (put, written) =
                    self.write_new_table(name, &location, spec, io.clone(), output)?;
                span.attr("bytes", written.bytes);
                span.attr("groups_copied", written.groups_copied as u64);
                span.attr("groups_encoded", written.groups_encoded as u64);
                artifact_rows.insert(name.clone(), output.num_rows() as u64);
                // Feed the memory estimator (vertical elasticity, §4.5/§5).
                let bytes: usize = output.batches.iter().map(RecordBatch::approx_bytes).sum();
                self.estimator.observe(name, bytes as u64);
                ops.push(put);
            }
            if !ops.is_empty() {
                let message = format!("run {run_id}: materialize stage");
                let author = &self.config.author;
                *head = Some(
                    self.catalog
                        .commit_on(head.as_ref(), author, &message, ops)?,
                );
            }
            lakehouse_obs::recorder().record_for(
                lakehouse_obs::EventKind::StageFinish,
                0,
                self.config.tenant.clone(),
                &format!("run_{run_id}/stage_{stage_idx}"),
                stage_outputs.len() as u64,
            );
        }
        Ok((artifact_rows, audit_results))
    }

    /// Charge one container start-up for `env` on the runtime's clock. Fused
    /// stages reuse frozen containers; the naive mapping starts a stateless
    /// one every time (paper §4.4.2). This is a run's cancellation point
    /// between stages: a killed query starts no further container.
    fn charge_container(&self, env: &EnvSpec, mode: ExecutionMode) -> Result<()> {
        lakehouse_obs::check_current().map_err(|reason| BauplanError::QueryKilled { reason })?;
        let reuse = match mode {
            ExecutionMode::Fused => Reuse::Pooled,
            ExecutionMode::Naive => Reuse::Stateless,
        };
        self.runtime.charge(env, reuse);
        Ok(())
    }

    /// Merged environment for a stage: function nodes contribute interpreter
    /// + packages; SQL-only stages run in the embedded engine's environment.
    fn stage_env(&self, project: &PipelineProject, steps: &[String]) -> EnvSpec {
        let universe_size = self.runtime.containers().universe().len().max(1) as u64;
        let mut interpreter = "duckdb-embedded".to_string();
        let mut packages = Vec::new();
        for name in steps {
            if let Some(node) = project.get(name) {
                if node.function_id.is_some() {
                    if let Some(i) = &node.requirements.interpreter {
                        interpreter = i.clone();
                    }
                    for pkg in node.requirements.package_names() {
                        // Map arbitrary package names onto the synthetic
                        // universe deterministically so fetch/import costs
                        // and the cache are exercised.
                        let idx = lakehouse_planner::fingerprint_bytes(pkg.as_bytes())
                            .bytes()
                            .fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64))
                            % universe_size;
                        packages.push(format!("pkg-{idx:05}"));
                    }
                }
            }
        }
        EnvSpec::new(interpreter, packages)
    }
}

/// Binds a run's SQL nodes, each once, through one schema lookup: a planned
/// node is answered with its output schema — its bound plan's, or its
/// function's once that step has returned — and any other table from the
/// lake at the run's pinned commit (lake tables and, in a `-m node+`
/// replay, the unselected parents' artifacts).
struct Binder<'a> {
    dag: &'a PipelineDag,
    lake: PinnedProvider<'a>,
    /// Every planned node's output schema, `None` until known.
    schemas: HashMap<String, Option<Schema>>,
    /// Bound, optimized plans of the SQL steps not yet run.
    plans: HashMap<String, LogicalPlan>,
}

impl Binder<'_> {
    /// Bind, in topological order, every SQL step whose planned inputs have
    /// known schemas: all of them, unless one reads a function's output —
    /// that one binds at its own step, once the function has returned.
    fn bind_known(&mut self, logical: &LogicalPipeline) -> Result<()> {
        for step in &logical.steps {
            let known = |input: &String| self.schemas.get(input).is_none_or(Option::is_some);
            if step.kind == NodeKind::SqlTransform && step.inputs.iter().all(known) {
                let plan = self.bind(&step.name)?;
                self.plans.insert(step.name.clone(), plan);
            }
        }
        Ok(())
    }

    /// Bind and optimize one SQL node, recording its output schema.
    fn bind(&mut self, node: &str) -> Result<LogicalPlan> {
        let stmt = self.dag.statement(node).ok_or_else(|| {
            PlannerError::InvalidProject(format!("SQL node '{node}' has no SQL text"))
        })?;
        let plan = plan_select(stmt, &*self).and_then(optimize);
        let plan = plan.map_err(|source| PlannerError::Sql {
            node: node.to_string(),
            source,
        })?;
        self.schemas
            .insert(node.to_string(), Some(plan.schema().clone()));
        Ok(plan)
    }

    /// A SQL step's plan: bound before the run started, or now.
    fn take_plan(&mut self, node: &str) -> Result<LogicalPlan> {
        self.plans.remove(node).map_or_else(|| self.bind(node), Ok)
    }
}

impl SchemaProvider for Binder<'_> {
    fn table_schema(&self, table: &str) -> std::result::Result<Option<Schema>, String> {
        match self.schemas.get(table) {
            Some(known) => Ok(known.clone()),
            None => self.lake.table_schema(table),
        }
    }
}

/// Handle to an asynchronous run.
pub struct RunHandle {
    rx: std::sync::mpsc::Receiver<Result<RunReport>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl RunHandle {
    /// Non-blocking check; `None` while still running.
    pub fn poll(&self) -> Option<bool> {
        match self.rx.try_recv() {
            Ok(r) => Some(r.is_ok()),
            Err(_) => None,
        }
    }

    /// Block until completion.
    pub fn wait(mut self) -> Result<RunReport> {
        let result = self
            .rx
            .recv()
            .map_err(|_| BauplanError::Config("async run worker disappeared".into()))?;
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LakehouseConfig;
    use lakehouse_columnar::{Column, DataType, Field, Schema, Value};

    /// Taxi fixture: lakehouse with the paper's taxi_table + expectation.
    fn taxi_lakehouse(config: LakehouseConfig) -> Lakehouse {
        let lh = Lakehouse::in_memory(config).unwrap();
        lh.register_taxi_functions();
        let n = 400i64;
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("pickup_location_id", DataType::Int64, false),
                Field::new("dropoff_location_id", DataType::Int64, false),
                Field::new("passenger_count", DataType::Int64, true),
                Field::new("pickup_at", DataType::Date, false),
            ]),
            vec![
                Column::from_i64((0..n).map(|i| i % 7).collect()),
                Column::from_i64((0..n).map(|i| i % 11).collect()),
                // Mean passenger count ≈ 30 → expectation (mean > 10) passes.
                Column::from_i64((0..n).map(|i| 20 + (i % 21)).collect()),
                // Half before 2019-04-01 (17987), half after.
                Column::from_date((0..n).map(|i| 17_900 + (i % 200) as i32).collect()),
            ],
        )
        .unwrap();
        lh.create_table("taxi_table", &batch, "main").unwrap();
        lh
    }

    #[test]
    fn taxi_run_end_to_end_fused() {
        let lh = taxi_lakehouse(LakehouseConfig::default());
        let report = lh
            .run(&PipelineProject::taxi_example(), &RunOptions::default())
            .unwrap();
        assert!(report.success);
        assert_eq!(report.mode, ExecutionMode::Fused);
        assert_eq!(report.stages_executed, 1);
        assert!(report.artifact_rows.contains_key("trips"));
        assert!(report.artifact_rows.contains_key("pickups"));
        assert!(report.audit_results["trips_expectation"]);
        // Both SQL nodes were bound while planning.
        let plan = report.trace.find("plan").unwrap();
        assert_eq!(plan.attr_u64("bound"), Some(2));
        // Artifacts are now queryable on main.
        let out = lh
            .query("SELECT COUNT(*) AS n FROM pickups", "main")
            .unwrap();
        assert!(out.row(0).unwrap()[0].as_i64().unwrap() > 0);
        // Ephemeral branch cleaned up.
        assert!(!lh
            .list_refs()
            .unwrap()
            .iter()
            .any(|r| r.name.starts_with("run_")));
    }

    #[test]
    fn naive_mode_spills_more() {
        let lh_naive = taxi_lakehouse(LakehouseConfig::naive());
        let naive = lh_naive
            .run(&PipelineProject::taxi_example(), &RunOptions::default())
            .unwrap();
        let lh_fused = taxi_lakehouse(LakehouseConfig::default());
        let fused = lh_fused
            .run(&PipelineProject::taxi_example(), &RunOptions::default())
            .unwrap();
        assert_eq!(naive.stages_executed, 3);
        assert_eq!(fused.stages_executed, 1);
        assert!(naive.store_ops.0 > fused.store_ops.0, "naive reads more");
        assert!(
            naive.simulated_total > fused.simulated_total,
            "naive {:?} should exceed fused {:?}",
            naive.simulated_total,
            fused.simulated_total
        );
    }

    #[test]
    fn failing_expectation_rolls_back() {
        let lh = taxi_lakehouse(LakehouseConfig::zero_latency());
        // Re-register the expectation with an impossible threshold.
        lh.register_function(
            "trips_expectation_impl",
            crate::functions::builtins::mean_greater_than("trips", "count", 1e9),
        );
        let err = lh
            .run(&PipelineProject::taxi_example(), &RunOptions::default())
            .unwrap_err();
        assert!(matches!(err, BauplanError::ExpectationFailed { .. }));
        // No artifacts leaked into main; ephemeral branch deleted.
        assert_eq!(lh.list_tables("main").unwrap(), vec!["taxi_table"]);
        assert!(!lh
            .list_refs()
            .unwrap()
            .iter()
            .any(|r| r.name.starts_with("run_")));
        // The failed run is still recorded for auditability.
        assert_eq!(lh.run_count(), 1);
    }

    #[test]
    fn sql_node_without_text_is_an_error_not_a_panic() {
        let lh = taxi_lakehouse(LakehouseConfig::zero_latency());
        let mut node = lakehouse_planner::NodeDef::sql("broken", "SELECT 1");
        node.sql = None;
        let err = lh
            .run(
                &PipelineProject::new("no_sql").with(node),
                &RunOptions::default(),
            )
            .unwrap_err();
        assert!(
            matches!(&err, BauplanError::Planner(PlannerError::InvalidProject(m)) if m.contains("broken")),
            "{err}"
        );
        // Rolled back like any failed run.
        assert_eq!(lh.list_tables("main").unwrap(), vec!["taxi_table"]);
    }

    #[test]
    fn a_broken_leaf_fails_the_run_before_anything_starts() {
        let lh = taxi_lakehouse(LakehouseConfig::default());
        let mut project = PipelineProject::taxi_example();
        let pickups = project.nodes.iter_mut().find(|n| n.name == "pickups");
        pickups.unwrap().sql = Some("SELECT pickup_location_id, no_such_col FROM trips".into());
        let refs = lh.list_refs().unwrap();
        let starts = lh.runtime().containers().start_counts();
        let (gets, puts) = (lh.store_metrics().gets(), lh.store_metrics().puts());
        let err = lh.run(&project, &RunOptions::default()).unwrap_err();
        assert!(
            matches!(&err, BauplanError::Planner(PlannerError::Sql { node, .. }) if node == "pickups"),
            "{err}"
        );
        assert!(err.to_string().contains("no_such_col"), "{err}");
        // No container, no branch, and one read: the ref the run pinned.
        // Every document binding needed was warm; no data file was read.
        assert_eq!(lh.runtime().containers().start_counts(), starts);
        assert_eq!(lh.store_metrics().gets() - gets, 1);
        assert_eq!(lh.store_metrics().puts() - puts, 0);
        assert_eq!(lh.list_refs().unwrap(), refs);
    }

    #[test]
    fn run_on_feature_branch_keeps_main_clean() {
        let lh = taxi_lakehouse(LakehouseConfig::zero_latency());
        lh.create_branch("feat_1", Some("main")).unwrap();
        let report = lh
            .run(
                &PipelineProject::taxi_example(),
                &RunOptions::on_branch("feat_1"),
            )
            .unwrap();
        assert!(report.success);
        assert_eq!(lh.list_tables("feat_1").unwrap().len(), 3);
        assert_eq!(lh.list_tables("main").unwrap().len(), 1);
        // Promote to production: merge feat_1 → main (Fig. 4 step 4).
        lh.merge("feat_1", "main").unwrap();
        assert_eq!(lh.list_tables("main").unwrap().len(), 3);
    }

    #[test]
    fn replay_is_sandboxed_and_uses_old_data() {
        let lh = taxi_lakehouse(LakehouseConfig::zero_latency());
        let r1 = lh
            .run(&PipelineProject::taxi_example(), &RunOptions::default())
            .unwrap();
        let rows_run1 = r1.artifact_rows["trips"];
        // Mutate the source data (append rows after 2019-04-01).
        let more = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("pickup_location_id", DataType::Int64, false),
                Field::new("dropoff_location_id", DataType::Int64, false),
                Field::new("passenger_count", DataType::Int64, true),
                Field::new("pickup_at", DataType::Date, false),
            ]),
            vec![
                Column::from_i64(vec![1, 2]),
                Column::from_i64(vec![1, 2]),
                Column::from_i64(vec![50, 50]),
                Column::from_date(vec![18_100, 18_100]),
            ],
        )
        .unwrap();
        lh.append_table("taxi_table", &more, "main").unwrap();
        // Replay run 1: same data version → same row counts.
        let replayed = lh.replay(r1.run_id, None).unwrap();
        assert_eq!(replayed.artifact_rows["trips"], rows_run1);
        // Sandboxed: main unchanged by the replay (still one trips version
        // from run 1), ephemeral branch kept for inspection.
        assert!(lh
            .list_refs()
            .unwrap()
            .iter()
            .any(|r| r.name == replayed.ephemeral_branch));
        // Fresh run sees the new data.
        let r3 = lh
            .run(&PipelineProject::taxi_example(), &RunOptions::default())
            .unwrap();
        assert_eq!(r3.artifact_rows["trips"], rows_run1 + 2);
    }

    #[test]
    fn replay_selector_runs_subset() {
        let lh = taxi_lakehouse(LakehouseConfig::zero_latency());
        let r1 = lh
            .run(&PipelineProject::taxi_example(), &RunOptions::default())
            .unwrap();
        // `-m pickups+`: only pickups (no descendants).
        let replayed = lh.replay(r1.run_id, Some("pickups")).unwrap();
        assert_eq!(replayed.artifact_rows.len(), 1);
        assert!(replayed.artifact_rows.contains_key("pickups"));
        assert!(lh.replay(r1.run_id, Some("ghost")).is_err());
        assert!(lh.replay(999, None).is_err());
    }

    #[test]
    fn async_run_completes() {
        let lh = Arc::new(taxi_lakehouse(LakehouseConfig::zero_latency()));
        let handle = lh.run_async(PipelineProject::taxi_example(), RunOptions::default());
        let report = handle.wait().unwrap();
        assert!(report.success);
        assert_eq!(lh.list_tables("main").unwrap().len(), 3);
    }

    #[test]
    fn run_report_latency_accounting() {
        let lh = taxi_lakehouse(LakehouseConfig::default());
        let report = lh
            .run(&PipelineProject::taxi_example(), &RunOptions::default())
            .unwrap();
        assert!(report.simulated_total > Duration::ZERO);
        assert_eq!(
            report.simulated_total,
            report.simulated_startup + report.simulated_store
        );
        let (cold, _, _) = report.container_starts;
        assert!(cold >= 1, "first run cold-starts at least one container");
        assert!(report.store_ops.1 > 0, "materialization writes objects");
    }

    #[test]
    fn second_run_benefits_from_warm_containers() {
        let lh = taxi_lakehouse(LakehouseConfig::default());
        let project = PipelineProject::taxi_example();
        let r1 = lh.run(&project, &RunOptions::default()).unwrap();
        let r2 = lh.run(&project, &RunOptions::default()).unwrap();
        let (cold2, _, resume2) = r2.container_starts;
        assert_eq!(cold2, 0, "second run should not cold start");
        assert!(resume2 >= 1, "second run resumes frozen containers");
        assert!(r2.simulated_startup < r1.simulated_startup);
    }

    #[test]
    fn a_killed_run_fails_as_query_killed_before_any_container_starts() {
        let lh = taxi_lakehouse(LakehouseConfig::zero_latency());
        let starts = lh.runtime().containers().start_counts();
        let ctx = lakehouse_obs::QueryCtx::new("default", "killed run");
        ctx.kill(lakehouse_obs::KillReason::Canceled);
        let err = {
            let _entered = ctx.enter();
            lh.run(&PipelineProject::taxi_example(), &RunOptions::default())
                .unwrap_err()
        };
        assert!(
            matches!(
                err,
                BauplanError::QueryKilled {
                    reason: lakehouse_obs::KillReason::Canceled
                }
            ),
            "{err}"
        );
        assert_eq!(lh.runtime().containers().start_counts(), starts);
        assert_eq!(lh.list_tables("main").unwrap(), vec!["taxi_table"]);
    }

    #[test]
    fn function_transform_nodes_materialize() {
        let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
        let base = RecordBatch::try_new(
            Schema::new(vec![Field::new("x", DataType::Int64, false)]),
            vec![Column::from_i64(vec![1, 2, 3])],
        )
        .unwrap();
        lh.create_table("raw", &base, "main").unwrap();
        lh.register_function("double_impl", |ctx: &FnContext| {
            let input = ctx.input("raw")?;
            let col = input.column_by_name("x")?;
            let doubled = lakehouse_columnar::kernels::add(col, col)?;
            Ok(FnOutput::Batch(RecordBatch::try_new(
                Schema::new(vec![Field::new("x", DataType::Int64, false)]),
                vec![doubled],
            )?))
        });
        let project =
            PipelineProject::new("fn_pipeline").with(lakehouse_planner::NodeDef::function(
                "doubled",
                vec!["raw".into()],
                Default::default(),
                "double_impl",
            ));
        let report = lh.run(&project, &RunOptions::default()).unwrap();
        assert!(report.success);
        let out = lh.query("SELECT SUM(x) AS s FROM doubled", "main").unwrap();
        assert_eq!(out.row(0).unwrap()[0], Value::Int64(12));

        // A SQL node over the function's output binds at its own step, once
        // the function has returned: nothing binds while planning.
        let total = |sql: &str| {
            let node = lakehouse_planner::NodeDef::sql("total", sql);
            lh.run(&project.clone().with(node), &RunOptions::default())
        };
        let report = total("SELECT SUM(x) AS s FROM doubled").unwrap();
        let plan = report.trace.find("plan").unwrap();
        assert_eq!(plan.attr_u64("bound"), Some(0));
        let out = lh.query("SELECT s FROM total", "main").unwrap();
        assert_eq!(out.row(0).unwrap()[0], Value::Int64(12));
        // Its mistakes are named like any other node's.
        let err = total("SELECT no_such_col FROM doubled").unwrap_err();
        assert!(
            matches!(&err, BauplanError::Planner(PlannerError::Sql { node, .. }) if node == "total"),
            "{err}"
        );
    }

    /// A fused stage passes columns, not copies: over a lake table of two
    /// data files, the step `trips` is the two batches its scan decoded,
    /// and the step over it that renames a column (a scan of the overlay
    /// and a bare-column projection) and the function reading both hold
    /// the very buffers of those batches.
    #[test]
    fn a_fused_stage_passes_columns_not_copies() {
        let lh = taxi_lakehouse(LakehouseConfig::default());
        let more = lh.query("SELECT * FROM taxi_table", "main").unwrap();
        lh.append_table("taxi_table", &more, "main").unwrap();
        let at = |c: &Column| c.as_i64().map(|(v, _)| v.as_ptr()).unwrap();
        lh.register_function("shared_expectation", move |ctx: &FnContext| {
            let (trips, renamed) = (ctx.batches("trips")?, ctx.batches("renamed")?);
            let shared = (trips.column("count")?.into_iter())
                .zip(renamed.column("c")?)
                .all(|(t, r)| at(t) == at(r));
            Ok(FnOutput::Expectation(
                trips.batches.len() == 2 && renamed.batches.len() == 2 && shared,
            ))
        });
        let project = PipelineProject::taxi_example()
            .with(lakehouse_planner::NodeDef::sql(
                "renamed",
                "SELECT count AS c, pickup_location_id FROM trips",
            ))
            .with(lakehouse_planner::NodeDef::function(
                "shared_expectation",
                vec!["trips".into(), "renamed".into()],
                Default::default(),
                "shared_expectation",
            ));
        let report = lh.run(&project, &RunOptions::default()).unwrap();
        assert_eq!(report.stages_executed, 1);
        assert_eq!(report.audit_results.get("shared_expectation"), Some(&true));
        assert_eq!(report.artifact_rows.get("renamed"), Some(&452));
    }
}
