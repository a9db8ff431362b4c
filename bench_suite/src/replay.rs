//! The unrolled replay: the work of one façade call done again through the
//! layers' public functions, one span per step, under the same root span as
//! the façade call it explains.
//!
//! A read is catalog resolve/get_content → `Table::load` → scan with the
//! query's known predicates and projection → `FileReader` decode of the same
//! files → SQL over a `MemoryProvider`. A write is `Table::load` →
//! `Transaction::write` → `Transaction::commit` → `Catalog::commit`. The sum
//! of the steps, set against the façade's wall time, is what the suite calls
//! attributed; the rest is `core.unattributed_*`.

use crate::mix::ScanSpec;
use crate::trace::Tracer;
use crate::Res;
use bauplan_core::Lakehouse;
use lakehouse_catalog::{ContentRef, Operation};
use lakehouse_columnar::RecordBatch;
use lakehouse_format::FileReader;
use lakehouse_sql::{MemoryProvider, SqlEngine};
use lakehouse_store::{ObjectPath, ObjectStore};
use lakehouse_table::{ScanPredicate, SnapshotOperation, Table};
use std::sync::Arc;

/// The façade plans a query (schema lookup) and then scans it, resolving
/// and loading each table both times.
const LOADS_PER_TABLE: usize = 2;

/// Span ids of one replayed read, for the per-layer sums.
#[derive(Debug, Default, Clone)]
pub struct ReadReplay {
    /// Steps whose durations add up to the attributed time.
    pub steps: Vec<u32>,
    /// Work inside a step that only the replay does, to be taken off again.
    pub replay_only: Vec<u32>,
    pub scans: Vec<u32>,
    pub decodes: Vec<u32>,
    pub files_scanned: usize,
    pub files_total: usize,
    pub bytes_scanned: u64,
    pub bytes_total: u64,
    pub result: Option<RecordBatch>,
}

/// Scan `table` the way the façade does for `spec`.
pub fn scan_table(
    table: &Table,
    spec: &ScanSpec,
) -> Res<(RecordBatch, lakehouse_table::ScanReport)> {
    let mut scan = table.scan();
    for (column, op, literal) in &spec.predicates {
        scan = scan.with_predicate(ScanPredicate::new(*column, *op, literal.clone()));
    }
    if let Some(columns) = &spec.projection {
        scan = scan.select(columns);
    }
    Ok(scan.execute_with_report()?)
}

/// Replay the query `sql`, whose tables the façade scans as `scans`, at
/// `reference` through the layers. Must run under an open root span; every
/// step becomes a child of it.
pub fn replay_read(
    tracer: &Arc<Tracer>,
    lh: &Lakehouse,
    store: &Arc<dyn ObjectStore>,
    sql: &str,
    scans: &[ScanSpec],
    reference: &str,
) -> Res<ReadReplay> {
    let mut out = ReadReplay::default();
    let catalog = lh.catalog();
    let mut provider = MemoryProvider::new();
    for spec in scans {
        let mut table = None;
        for _ in 0..LOADS_PER_TABLE {
            let span = tracer.span("catalog", "get_content");
            let content = catalog.get_content(reference, spec.table)?;
            out.steps.push(span.id());
            drop(span);

            let span = tracer.span("table", "load");
            table = Some(Table::load(Arc::clone(store), &content.metadata_location)?);
            out.steps.push(span.id());
        }
        let table = table.expect("loaded at least once");

        let span = tracer.span("table", "scan");
        let (batch, report) = scan_table(&table, spec)?;
        let scan_id = span.id();
        drop(span);
        out.steps.push(scan_id);
        out.scans.push(scan_id);
        out.files_scanned += report.files_scanned;
        out.files_total += report.files_total;
        out.bytes_scanned += report.bytes_scanned;
        out.bytes_total += report.bytes_total;

        // Decode the files that scan fetched, with the same projection: the
        // format layer's share of the scan's self time.
        let files = tracer.read(|spans| spans.data_files_fetched(scan_id));
        let span = tracer.span("format", "decode");
        for path in files {
            let bytes = store.get(&ObjectPath::new(path)?)?;
            let reader = FileReader::parse(bytes)?;
            let projection: Option<Vec<usize>> = match &spec.projection {
                Some(columns) => Some(
                    columns
                        .iter()
                        .map(|c| reader.schema().index_of(c))
                        .collect::<Result<_, _>>()?,
                ),
                None => None,
            };
            std::hint::black_box(reader.read_all(projection.as_deref())?);
        }
        out.decodes.push(span.id());
        drop(span);

        provider.register(spec.table, batch);
    }
    let span = tracer.span("sql", "parse+plan+execute");
    let result = SqlEngine::new().query(sql, &provider)?;
    out.steps.push(span.id());
    drop(span);
    // A `MemoryProvider` scan copies the registered batch; the façade's
    // provider hands the scan output over by move. Time that copy, so it
    // can be taken off the SQL step.
    let span = tracer.span("bench", "provider copy");
    for spec in scans {
        std::hint::black_box(provider.get(spec.table).cloned());
    }
    out.replay_only.push(span.id());
    drop(span);
    out.result = Some(result);
    Ok(out)
}

/// Replay one `append_table(table, batch, branch)`: load → write (encode +
/// put per partition) → table commit → catalog commit. Returns the step
/// span ids.
pub fn replay_append(
    tracer: &Arc<Tracer>,
    lh: &Lakehouse,
    store: &Arc<dyn ObjectStore>,
    table: &str,
    batch: &RecordBatch,
    branch: &str,
) -> Res<Vec<u32>> {
    let catalog = lh.catalog();
    let mut steps = Vec::new();

    let span = tracer.span("catalog", "get_content");
    let content = catalog.get_content(branch, table)?;
    steps.push(span.id());
    drop(span);

    let span = tracer.span("table", "load");
    let handle = Table::load(Arc::clone(store), &content.metadata_location)?;
    steps.push(span.id());
    drop(span);

    let span = tracer.span("table", "write");
    let mut tx = handle.new_transaction(SnapshotOperation::Append);
    tx.write(batch)?;
    steps.push(span.id());
    drop(span);

    let span = tracer.span("table", "commit");
    let (location, metadata) = tx.commit()?;
    steps.push(span.id());
    drop(span);

    let span = tracer.span("catalog", "commit");
    catalog.commit(
        branch,
        "bench_suite",
        &format!("replay append to {table}"),
        vec![Operation::Put {
            key: table.to_string(),
            content: ContentRef::new(location, metadata.current_snapshot_id.unwrap_or(0)),
        }],
    )?;
    steps.push(span.id());
    Ok(steps)
}

/// The SQL of `PipelineProject::taxi_example`'s two SQL nodes, restated here
/// so the replay reads no struct field of the planner. If the example ever
/// changes, `core.unattributed_pct` on `taxi_run` shows the drift.
const TRIPS_SQL: &str = "SELECT pickup_location_id, passenger_count as count, dropoff_location_id \
     FROM taxi_table WHERE pickup_at >= DATE '2019-04-01'";
const PICKUPS_SQL: &str = "SELECT pickup_location_id, dropoff_location_id, COUNT(*) AS counts \
     FROM trips GROUP BY pickup_location_id, dropoff_location_id ORDER BY counts DESC";

/// Step spans of one replayed pipeline run, grouped the way
/// `core.run_*_ms` reports them.
#[derive(Debug, Default, Clone)]
pub struct RunReplay {
    pub steps: Vec<u32>,
    pub replay_only: Vec<u32>,
    pub sql: Vec<u32>,
    pub materialize: Vec<u32>,
    pub read: ReadReplay,
    pub trips_rows: usize,
}

/// Replay the taxi pipeline: plan → ephemeral branch → `trips` (scan + SQL)
/// → `pickups` (SQL over the in-memory parent) → materialise both artifacts
/// (encode + table commit + catalog commit) → merge → delete the branch.
/// Everything lands on the scratch branches `replay_<tag>` and
/// `replay_<tag>_target`, which are deleted again, so `main` is untouched.
pub fn replay_run(
    tracer: &Arc<Tracer>,
    lh: &Lakehouse,
    store: &Arc<dyn ObjectStore>,
    tag: &str,
) -> Res<RunReplay> {
    use lakehouse_planner::{
        ExecutionMode, LogicalPipeline, PhysicalPipeline, PipelineDag, PipelineProject,
    };
    let mut out = RunReplay::default();
    let project = PipelineProject::taxi_example();

    let span = tracer.span("planner", "extract+plan+compile");
    let dag = PipelineDag::extract(&project)?;
    let logical = LogicalPipeline::plan_with_dag(&project, &dag, None)?;
    let physical =
        PhysicalPipeline::compile(&logical, &dag, ExecutionMode::Fused, u64::MAX, |_| 0)?;
    std::hint::black_box(&physical);
    out.steps.push(span.id());
    drop(span);

    let (branch, target) = (format!("replay_{tag}"), format!("replay_{tag}_target"));
    let span = tracer.span("catalog", "resolve+create_branch");
    lh.catalog().resolve("main")?;
    lh.create_branch(&branch, Some("main"))?;
    out.steps.push(span.id());
    drop(span);
    // Not a step of a real run: the stand-in for `main` that the replay
    // merges into.
    lh.create_branch(&target, Some("main"))?;

    // Node 1, `trips`: the only step that touches the lake.
    let trips_scan = ScanSpec {
        table: "taxi_table",
        predicates: vec![(
            "pickup_at",
            lakehouse_columnar::kernels::CmpOp::GtEq,
            lakehouse_columnar::Value::Date(crate::data::TRIPS_FROM_DAY),
        )],
        projection: Some(vec![
            "pickup_location_id",
            "dropoff_location_id",
            "passenger_count",
            "pickup_at",
        ]),
    };
    let read = replay_read(tracer, lh, store, TRIPS_SQL, &[trips_scan], &branch)?;
    out.steps.extend(&read.steps);
    out.replay_only.extend(&read.replay_only);
    out.sql.extend(&read.steps);
    let trips = read.result.clone().expect("replay_read returns a result");
    out.trips_rows = trips.num_rows();
    out.read = read;

    // Node 3, `pickups`: reads its parent from memory (fused stage).
    let mut provider = MemoryProvider::new();
    provider.register("trips", trips.clone());
    let span = tracer.span("sql", "pickups over memory");
    let pickups = SqlEngine::new().query(PICKUPS_SQL, &provider)?;
    out.steps.push(span.id());
    out.sql.push(span.id());
    drop(span);
    let span = tracer.span("bench", "provider copy");
    std::hint::black_box(provider.get("trips").cloned());
    out.replay_only.push(span.id());
    drop(span);

    for (name, batch) in [("trips", &trips), ("pickups", &pickups)] {
        let span = tracer.span("core", format!("materialize {name}"));
        lh.create_table(&format!("replay_{tag}_{name}"), batch, &branch)?;
        out.steps.push(span.id());
        out.materialize.push(span.id());
    }

    let span = tracer.span("catalog", "merge+delete_branch");
    lh.merge(&branch, &target)?;
    lh.delete_branch(&branch)?;
    out.steps.push(span.id());
    drop(span);
    lh.delete_branch(&target)?;
    Ok(out)
}
