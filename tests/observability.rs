//! Observability integration: span trees from real queries and runs, EXPLAIN
//! ANALYZE agreeing with the executor's own report, tracing staying
//! byte-transparent to query results, and Chrome-trace export round-tripping
//! through the JSON parser.

use bauplan_core::{Lakehouse, LakehouseConfig, NodeDef, PipelineProject, RunOptions};
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use lakehouse_format::RangedReader;
use lakehouse_obs::{to_chrome_trace, Trace};
use lakehouse_store::{
    InMemoryStore, LatencyModel, ObjectPath, ObjectStore, SimulatedStore, SleepMode,
};
use lakehouse_table::{PartitionField, PartitionSpec, ScanPredicate, Table, Transform};
use serde::Json;
use std::sync::Arc;

/// A lakehouse whose `events` table spans 4 data files of 64 rows each.
fn lakehouse() -> Lakehouse {
    let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
    for file in 0..4usize {
        let base = (file * 64) as i64;
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("grp", DataType::Int64, false),
                Field::new("val", DataType::Float64, false),
            ]),
            vec![
                Column::from_i64((0..64).map(|i| base + i).collect()),
                Column::from_i64((0..64).map(|i| (base + i) % 5).collect()),
                Column::from_f64((0..64).map(|i| (base + i) as f64 * 0.25).collect()),
            ],
        )
        .unwrap();
        if file == 0 {
            lh.create_table("events", &batch, "main").unwrap();
        } else {
            lh.append_table("events", &batch, "main").unwrap();
        }
    }
    lh
}

/// Scan → aggregate → filter → sort, no LIMIT (so per-operator row totals
/// do not depend on where a LIMIT stops the pipeline). The WHERE clause is pushed into the scan; the
/// HAVING clause keeps an explicit Filter node above the Aggregate.
const SQL: &str = "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM events \
                   WHERE id >= 16 GROUP BY grp HAVING COUNT(*) > 10 ORDER BY grp";

#[test]
fn profile_span_tree_nests_operators() {
    let lh = lakehouse();
    let (batch, tree) = lh.profile(SQL, "main").unwrap();
    assert_eq!(batch.num_rows(), 5);

    let root = tree.root().expect("profile trace has a root span");
    assert_eq!(root.name, "query");
    let agg = tree.find("Aggregate").expect("Aggregate span");
    let filter = tree.find("Filter").expect("Filter span");
    let scan = tree.find("Scan").expect("Scan span");
    // Parent chain mirrors the plan: the HAVING Filter above the
    // Aggregate above the Scan, all under the query root.
    assert!(
        tree.is_ancestor(filter.id, agg.id),
        "Aggregate must nest under the HAVING Filter"
    );
    assert!(
        tree.is_ancestor(agg.id, scan.id),
        "Scan must nest under Aggregate"
    );
    assert!(tree.is_ancestor(root.id, scan.id));
    // The scan actually touched the store: its fetches were traced too.
    assert!(
        !tree.find_all("scan.fetch").is_empty(),
        "data-file fetches must appear in the tree"
    );
    // Span clocks are coherent.
    for span in &tree.spans {
        assert!(span.wall_end_ns >= span.wall_start_ns);
        assert!(span.sim_end_ns >= span.sim_start_ns);
    }
}

/// A grouped Aggregate names the grouper lookup that served it — the dense
/// front for small integer keys, the hash index for a string key — with
/// its group count, in its span and on its EXPLAIN ANALYZE line.
#[test]
fn aggregate_names_the_grouper_lookup_that_served_it() {
    let lh = lakehouse();
    let names = RecordBatch::try_new(
        Schema::new(vec![Field::new("name", DataType::Utf8, false)]),
        vec![Column::from_strs(vec!["b", "a", "b", "c"])],
    )
    .unwrap();
    lh.create_table("names", &names, "main").unwrap();
    for (sql, groups, lookup) in [
        (
            "SELECT grp, id, COUNT(*) AS n FROM events GROUP BY grp, id",
            256,
            "dense",
        ),
        (
            "SELECT name, COUNT(*) AS n FROM names GROUP BY name",
            3,
            "hash",
        ),
    ] {
        let (_, text, tree) = lh.explain_analyze_traced(sql, "main").unwrap();
        let agg = tree.find("Aggregate").expect("Aggregate span");
        assert_eq!(agg.attr_u64("groups"), Some(groups), "{sql}");
        assert_eq!(agg.attr_str("lookup"), Some(lookup), "{sql}");
        let line = (text.lines())
            .find(|l| l.trim_start().starts_with("Aggregate"))
            .expect(&text);
        let want = format!(" groups={groups} lookup={lookup}]");
        assert!(line.ends_with(&want), "{line}");
    }
}

/// A profiled statement's `query` span says where it read its ref and
/// whether the head it guessed held: inline on a front whose ref reads are
/// fast, overlapped once they are slow — a hit on a still lake, a miss
/// (counted in `catalog.ref_guess_misses`, and the statement run again at
/// the new head) after another front's commit.
#[test]
fn the_query_span_says_where_the_ref_was_read_and_whether_the_guess_held() {
    let marks = |lh: &Lakehouse| {
        let (batch, tree) = lh
            .profile("SELECT COUNT(*) AS n FROM events", "main")
            .unwrap();
        let root = tree.root().expect("profile trace has a root span");
        let mark = |key| root.attr_str(key).map(String::from);
        (
            batch.row(0).unwrap()[0].clone(),
            mark("ref_read"),
            mark("guess"),
        )
    };
    let want = |n: i64, ref_read: &str, guess: &str| {
        (Value::Int64(n), Some(ref_read.into()), Some(guess.into()))
    };
    assert_eq!(marks(&lakehouse()), want(256, "inline", "none"));

    // A front over the same objects behind a store that sleeps for a
    // twentieth of each modelled S3 round trip, as `query_mix_s3` does.
    let objects: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let writer =
        Lakehouse::with_store(Arc::clone(&objects), LakehouseConfig::zero_latency()).unwrap();
    let rows = |n: i64| {
        RecordBatch::try_new(
            Schema::new(vec![Field::new("id", DataType::Int64, false)]),
            vec![Column::from_i64((0..n).collect())],
        )
        .unwrap()
    };
    writer.create_table("events", &rows(10), "main").unwrap();
    let sleeping = SimulatedStore::new(objects, LatencyModel::s3_like())
        .with_sleep_mode(SleepMode::Scaled(0.05));
    let reader =
        Lakehouse::with_store(Arc::new(sleeping), LakehouseConfig::zero_latency()).unwrap();
    let (_, tree) = reader.profile("SELECT 1 AS one", "main").unwrap();
    let root = tree.root().expect("profile trace has a root span");
    assert_eq!(
        root.attr_str("ref_read"),
        None,
        "no catalog table, no ref read"
    );
    reader
        .query("SELECT COUNT(*) AS n FROM events", "main")
        .unwrap();
    assert_eq!(marks(&reader), want(10, "overlapped", "hit"));

    let misses = || {
        lakehouse_obs::global()
            .counter("catalog.ref_guess_misses")
            .get()
    };
    let before = misses();
    writer.append_table("events", &rows(5), "main").unwrap();
    assert_eq!(marks(&reader), want(15, "overlapped", "miss"));
    assert!(misses() > before, "a miss is counted");
    assert_eq!(marks(&reader), want(15, "overlapped", "hit"));
}

#[test]
fn explain_analyze_matches_exec_report() {
    let lh = lakehouse();
    let (batch, text, tree) = lh.explain_analyze_traced(SQL, "main").unwrap();
    let (expected, report) = lh.query_with_report(SQL, "main").unwrap();
    assert_eq!(batch, expected);

    // Every plan line carries live annotations, including the operator's
    // self time (span minus direct children) on both clocks.
    for line in text.lines() {
        assert!(
            line.contains("[rows="),
            "unannotated EXPLAIN ANALYZE line: {line}"
        );
        assert!(
            line.contains("self_wall=") && line.contains("self_sim="),
            "line missing self-time annotations: {line}"
        );
    }

    // A leaf operator has no children to subtract, so its self time
    // equals its span time on both clocks.
    let scan_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("Scan"))
        .expect("EXPLAIN ANALYZE output has a Scan line");
    let field = |key: &str| {
        scan_line
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key).map(|v| v.trim_end_matches(']')))
            .unwrap_or_else(|| panic!("Scan line missing {key}: {scan_line}"))
    };
    assert_eq!(
        field("self_sim="),
        field("sim="),
        "leaf self_sim must equal sim"
    );
    assert_eq!(
        field("self_wall="),
        field("wall="),
        "leaf self_wall must equal wall"
    );

    // Per-operator row totals in the span tree agree with the executor's
    // own accounting.
    let mut reported: std::collections::BTreeMap<&str, u64> = Default::default();
    for (name, rows) in &report.operator_rows {
        *reported.entry(name.as_str()).or_default() += *rows as u64;
    }
    for (name, rows) in reported {
        let traced: u64 = tree
            .find_all(name)
            .iter()
            .filter_map(|s| s.attr_u64("rows"))
            .sum();
        assert_eq!(traced, rows, "operator {name} row count");
    }

    // The executor's peak working set lands in the trace too.
    let exec = tree.find("execute").expect("execute span");
    assert_eq!(
        exec.attr_u64("peak_bytes"),
        Some(report.peak_bytes as u64),
        "peak_bytes annotation must equal the report's measurement"
    );
}

#[test]
fn join_scans_are_direct_children_of_join_span() {
    let lh = lakehouse();
    let b = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("grp", DataType::Int64, false),
            Field::new("label", DataType::Int64, false),
        ]),
        vec![
            Column::from_i64((0..5).collect()),
            Column::from_i64((10..15).collect()),
        ],
    )
    .unwrap();
    lh.create_table("labels", &b, "main").unwrap();
    let (_, tree) = lh
        .profile(
            "SELECT events.val, labels.label FROM events JOIN labels ON events.grp = labels.grp",
            "main",
        )
        .unwrap();
    let join = tree.find("Join").expect("join span");
    let scans = tree.find_all("Scan");
    assert_eq!(scans.len(), 2, "one scan per join side");
    // The sides are siblings: neither side's scan nests under the other.
    // (Regression check: the build side used to open under the probe side's
    // still-open Scan span instead of under the Join.)
    assert!(
        !tree.is_ancestor(scans[0].id, scans[1].id) && !tree.is_ancestor(scans[1].id, scans[0].id),
        "join sides must not nest inside each other"
    );
    for scan in scans {
        assert!(
            tree.is_ancestor(join.id, scan.id),
            "scan at path {:?} should nest under the Join span",
            scan.attr_str("path")
        );
        // Only a column-trimming Project may sit between a side's Scan and
        // the Join itself.
        let mut cur = scan.parent;
        while let Some(id) = cur {
            if id == join.id {
                break;
            }
            let span = tree.get(id).expect("parent span exists");
            assert_eq!(
                span.name,
                "Project",
                "unexpected {} span between Scan {:?} and the Join",
                span.name,
                scan.attr_str("path")
            );
            cur = span.parent;
        }
    }
}

#[test]
fn a_one_day_count_is_answered_from_the_manifest_and_says_so() {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let lh = Lakehouse::with_store(Arc::clone(&store), LakehouseConfig::zero_latency()).unwrap();
    let trips = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("pickup_at", DataType::Date, false),
            Field::new("fare", DataType::Float64, false),
        ]),
        vec![
            Column::from_date(vec![100, 100, 101]),
            Column::from_f64(vec![1.0, 2.0, 3.0]),
        ],
    )
    .unwrap();
    let by_day = PartitionSpec::new(vec![PartitionField {
        source_column: "pickup_at".into(),
        transform: Transform::Day,
    }]);
    lh.create_table_partitioned("trips", &trips, "main", by_day)
        .unwrap();
    // Day 100 is 1970-04-11.
    const ONE_DAY: &str = "SELECT COUNT(*) AS n FROM trips WHERE pickup_at = DATE '1970-04-11'";
    let counter = lakehouse_obs::global().counter("scan.files_from_metadata");
    let before = counter.get();
    let (out, tree) = lh.profile(ONE_DAY, "main").unwrap();
    assert_eq!(out.row(0).unwrap()[0], Value::Int64(2));
    let plan = tree.find("scan.plan").expect("scan.plan span");
    assert_eq!(plan.attr_u64("files_scanned"), Some(1));
    assert_eq!(plan.attr_u64("files_from_metadata"), Some(1));
    assert!(tree.find_all("scan.fetch").is_empty(), "nothing fetched");
    // Process-wide: other tests of this binary may add to it.
    assert!(counter.get() > before);

    // The scan that statement pushes down, reported.
    let content = lh.catalog().get_content("main", "trips").unwrap();
    let table = Table::load(store, &content.metadata_location).unwrap();
    let (_, report) = (table.scan())
        .with_predicate(ScanPredicate::new("pickup_at", CmpOp::Eq, Value::Date(100)))
        .select(&["pickup_at"])
        .execute_with_report()
        .unwrap();
    let files = (report.files_scanned, report.files_read);
    assert_eq!((files, report.files_from_metadata), ((1, 0), 1));
}

#[test]
fn a_predicate_the_stats_prove_is_evaluated_nowhere_and_says_so() {
    let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
    // Days 100..=104 (1970-04-11..15), two fares each, one on each side of 1.5.
    let days: Vec<i32> = (100..105).flat_map(|d| [d, d]).collect();
    let fares: Vec<f64> = (0..10).map(|i| 1.0 + (i % 2) as f64).collect();
    let trips = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("pickup_at", DataType::Date, false),
            Field::new("fare", DataType::Float64, false),
        ]),
        vec![Column::from_date(days), Column::from_f64(fares)],
    )
    .unwrap();
    let by_day = PartitionSpec::new(vec![PartitionField {
        source_column: "pickup_at".into(),
        transform: Transform::Day,
    }]);
    lh.create_table_partitioned("trips", &trips, "main", by_day)
        .unwrap();
    let counter = lakehouse_obs::global().counter("scan.files_proven");
    let before = counter.get();
    let profiled = |sql: &str| {
        let (out, tree) = lh.profile(sql, "main").unwrap();
        let plan = tree.find("scan.plan").expect("scan.plan span");
        let scan = tree.find("Scan").expect("Scan span");
        let seen = (
            plan.attr_u64("files_proven"),
            scan.attr_u64("filters_rechecked"),
        );
        (out.row(0).unwrap(), seen)
    };

    // Three day-files wholly inside the range: no row of theirs compared.
    let (row, seen) = profiled(
        "SELECT COUNT(*) AS n, SUM(fare) AS s FROM trips \
         WHERE pickup_at >= DATE '1970-04-12' AND pickup_at <= DATE '1970-04-14'",
    );
    assert_eq!(row, vec![Value::Int64(6), Value::Float64(9.0)]);
    assert_eq!(seen, (Some(3), Some(0)));
    // Process-wide: other tests of this binary may add to it.
    assert!(counter.get() >= before + 3);
    // Every file holds a fare on each side: each is filtered, once, by the scan.
    let (row, seen) = profiled("SELECT COUNT(*) AS n FROM trips WHERE fare > 1.5");
    assert_eq!(row, vec![Value::Int64(5)]);
    assert_eq!(seen, (Some(0), Some(0)));

    // An artifact served from memory applies no filter: the executor
    // re-checks both.
    let project = PipelineProject::new("residuals")
        .with(NodeDef::sql(
            "dear",
            "SELECT pickup_at, fare FROM trips WHERE fare > 1.5",
        ))
        .with(NodeDef::sql(
            "late_dear",
            "SELECT COUNT(*) AS n FROM dear \
             WHERE pickup_at >= DATE '1970-04-13' AND fare < 2.5",
        ));
    let report = lh.run(&project, &RunOptions::default()).unwrap();
    assert!(report.success);
    let rechecked = |table: &str| {
        let scans = report.trace.find_all("Scan");
        let scan = scans.iter().find(|s| s.attr_str("table") == Some(table));
        scan.unwrap_or_else(|| panic!("no Scan of {table}"))
            .attr_u64("filters_rechecked")
    };
    assert_eq!((rechecked("trips"), rechecked("dear")), (Some(0), Some(2)));
    let out = lh.query("SELECT n FROM late_dear", "main").unwrap();
    assert_eq!(out.row(0).unwrap()[0], Value::Int64(3));
}

#[test]
fn a_sort_under_a_limit_reports_its_fetch_and_the_rows_it_held() {
    let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
    // Five day-files of 20 rows each.
    let days: Vec<i32> = (100..105).flat_map(|d| [d; 20]).collect();
    let fares: Vec<f64> = (0..100).map(|i| (i * 37 % 101) as f64).collect();
    let trips = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("pickup_at", DataType::Date, false),
            Field::new("fare", DataType::Float64, false),
        ]),
        vec![Column::from_date(days), Column::from_f64(fares)],
    )
    .unwrap();
    let by_day = PartitionSpec::new(vec![PartitionField {
        source_column: "pickup_at".into(),
        transform: Transform::Day,
    }]);
    lh.create_table_partitioned("trips", &trips, "main", by_day)
        .unwrap();

    let (out, tree) = lh
        .profile("SELECT fare FROM trips ORDER BY fare DESC LIMIT 3", "main")
        .unwrap();
    let fares: Vec<Value> = (0..3).map(|i| out.row(i).unwrap()[0].clone()).collect();
    let want = [100.0, 99.0, 98.0].map(Value::Float64);
    assert_eq!(fares, want);
    let sort = tree.find("Sort").expect("Sort span");
    assert_eq!(sort.attr_u64("fetch"), Some(3));
    // At most 2 x 3 candidates plus the file arriving, never the table.
    let held = sort.attr_u64("held_rows").expect("held_rows");
    assert!((20..=6 + 20).contains(&held), "held {held} rows");

    // A sort with no LIMIT keeps every row, and says nothing of a fetch.
    let (_, tree) = lh
        .profile("SELECT fare FROM trips ORDER BY fare DESC", "main")
        .unwrap();
    let sort = tree.find("Sort").expect("Sort span");
    assert_eq!(sort.attr_u64("fetch"), None);
    assert_eq!(sort.attr_u64("rows"), Some(100));
}

#[test]
fn tracing_is_byte_transparent() {
    let lh = lakehouse();
    let plain = lh.query(SQL, "main").unwrap();
    let (profiled, tree) = lh.profile(SQL, "main").unwrap();
    assert_eq!(plain, profiled, "tracing changed query output");
    assert!(!tree.is_empty());
    // And back off again: a traced query leaves no residue.
    assert_eq!(plain, lh.query(SQL, "main").unwrap());
}

#[test]
fn chrome_trace_round_trips_through_json() {
    let lh = lakehouse();
    let (_, tree) = lh.profile(SQL, "main").unwrap();
    let text = to_chrome_trace(&tree);
    let parsed = serde_json::parse(&text).expect("chrome trace is valid JSON");
    let Json::Obj(fields) = parsed else {
        panic!("chrome trace must be a JSON object");
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents present");
    let Json::Arr(events) = events else {
        panic!("traceEvents must be an array");
    };
    assert_eq!(
        events.len(),
        tree.spans.len(),
        "one complete event per span"
    );
    for event in events {
        let Json::Obj(ev) = event else {
            panic!("each trace event must be an object")
        };
        for key in ["name", "ph", "ts", "dur"] {
            assert!(
                ev.iter().any(|(k, _)| k == key),
                "trace event missing {key}"
            );
        }
    }
}

#[test]
fn run_report_carries_span_tree() {
    let lh = lakehouse();
    let project = PipelineProject::new("obs")
        .with(NodeDef::sql(
            "top_groups",
            "SELECT grp, COUNT(*) AS n FROM events GROUP BY grp",
        ))
        .with(NodeDef::sql(
            "top_group",
            "SELECT grp FROM top_groups ORDER BY n DESC LIMIT 1",
        ));
    let report = lh.run(&project, &RunOptions::default()).unwrap();
    assert!(report.success);

    let trace = &report.trace;
    let root = trace.root().expect("run trace has a root");
    assert_eq!(root.name, "run");
    assert_eq!(root.attr_u64("run_id"), Some(report.run_id));
    let plan = trace.find("plan").expect("planning is traced");
    // Both nodes were bound while planning, before any stage.
    assert_eq!(plan.attr_u64("bound"), Some(2));
    let stage = trace.find("stage").expect("stage span");
    assert!(trace.is_ancestor(root.id, stage.id));
    let step = trace.find("step").expect("step span");
    assert_eq!(step.attr_str("name"), Some("top_groups"));
    assert!(trace.is_ancestor(stage.id, step.id));
    assert!(
        trace.find("container.start").is_some(),
        "container lifecycle appears under the run"
    );
    assert!(trace.find("materialize").is_some());
}

#[test]
fn container_spans_carry_the_runs_start_up_time() {
    let lh = lakehouse();
    let project = PipelineProject::new("obs").with(NodeDef::sql(
        "top_groups",
        "SELECT grp, COUNT(*) AS n FROM events GROUP BY grp",
    ));
    lh.run(&project, &RunOptions::default()).unwrap(); // cold-starts both containers
    let warm = lh.run(&project, &RunOptions::default()).unwrap();

    let trace = &warm.trace;
    let starts = trace.find_all("container.start");
    let freezes = trace.find_all("container.freeze");
    assert_eq!((starts.len(), freezes.len()), (2, 2), "stage + materialize");
    let spans: u64 = starts.iter().chain(&freezes).map(|s| s.sim_nanos()).sum();
    assert_eq!(
        std::time::Duration::from_nanos(spans),
        warm.simulated_startup,
        "the start and freeze spans hold all of the run's start-up time"
    );
    for start in starts {
        assert_eq!(start.attr_str("kind"), Some("Resume"));
        let components: u64 = [
            "image_fetch_nanos",
            "sandbox_create_nanos",
            "runtime_boot_nanos",
            "package_fetch_nanos",
            "package_import_nanos",
            "handler_init_nanos",
        ]
        .iter()
        .map(|k| start.attr_u64(k).expect("start-up component attribute"))
        .sum();
        assert_eq!(components, start.sim_nanos());
    }
    let stage = trace.find("stage").expect("stage span");
    assert!(stage.attr_u64("memory_bytes").is_some_and(|m| m > 0));
}

#[test]
fn a_compaction_reports_the_row_groups_it_copied() {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let lh = Lakehouse::with_store(Arc::clone(&store), LakehouseConfig::zero_latency()).unwrap();
    let ids = |from: i64, to: i64| {
        RecordBatch::try_new(
            Schema::new(vec![Field::new("id", DataType::Int64, false)]),
            vec![Column::from_i64((from..to).collect())],
        )
        .unwrap()
    };
    // One full 8 192-row group and a tail, then a second file.
    lh.create_table("events", &ids(0, 9_000), "main").unwrap();
    lh.append_table("events", &ids(9_000, 9_100), "main")
        .unwrap();
    let created: Vec<ObjectPath> = (store.list("").unwrap().into_iter())
        .filter(|p| p.as_str().contains("/data/snap1-"))
        .collect();
    let created = RangedReader::parse(store.get(&created[0]).unwrap()).unwrap();
    let group_bytes: u64 = (created.row_group_meta(0).chunk_offsets.iter())
        .map(|(_, len)| len)
        .sum();

    let trace = Trace::start_forced("compact_table");
    let report = lh.compact_table("events", "main").unwrap();
    let tree = trace.finish();
    let span = tree.find("compact").expect("compact span");
    assert_eq!(span.attr_u64("groups_copied"), Some(1));
    assert_eq!(span.attr_u64("rows_copied"), Some(8_192));
    assert_eq!(span.attr_u64("bytes_copied"), Some(group_bytes));
    assert_eq!(report.rows_rewritten, 9_100);
    assert_eq!(span.attr_u64("rows_rewritten"), Some(9_100));
    let out = lh.query("SELECT COUNT(*) AS n, SUM(id) AS s FROM events", "main");
    let want = vec![Value::Int64(9_100), Value::Int64(9_099 * 9_100 / 2)];
    assert_eq!(out.unwrap().row(0).unwrap(), want);
}

/// A warm taxi run: `trips` reads and renames columns of day-files whose
/// partitions prove its `WHERE`, so its artifact is those files' chunks,
/// copied; `pickups` aggregates, so every group of its artifact is encoded.
#[test]
fn each_artifact_says_which_of_its_row_groups_were_copied() {
    use bauplan_core::builtins;
    use lakehouse_workload::TaxiGenerator;
    let taxi = TaxiGenerator {
        seed: 13,
        start_day: 17_956,
        days: 61,
        ..Default::default()
    }
    .generate(60_000);
    let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
    let day = PartitionField {
        source_column: "pickup_at".into(),
        transform: Transform::Day,
    };
    lh.create_table_partitioned("taxi_table", &taxi, "main", PartitionSpec::new(vec![day]))
        .unwrap();
    lh.register_function(
        "trips_expectation_impl",
        builtins::mean_greater_than("trips", "count", 1.0),
    );
    let project = PipelineProject::taxi_example();
    lh.run(&project, &RunOptions::default()).unwrap();
    let warm = lh.run(&project, &RunOptions::default()).unwrap();
    let tree = &warm.trace;
    let materialize = tree.find_all("materialize");
    let artifacts = tree.find_all("artifact");
    assert_eq!(artifacts.len(), 2, "{}", tree.render());
    let artifact = |name: &str| {
        let span = *(artifacts.iter())
            .find(|s| s.attr_str("name") == Some(name))
            .expect("an artifact span per artifact");
        assert!(materialize.iter().any(|m| tree.is_ancestor(m.id, span.id)));
        let attr = |key: &str| span.attr_u64(key).expect("artifact attribute");
        let rows = attr("rows");
        assert_eq!(rows, warm.artifact_rows[name]);
        assert!(attr("bytes") > 0);
        (attr("groups_copied"), attr("groups_encoded"))
    };
    let (copied, encoded) = artifact("trips");
    assert_eq!(encoded, 0, "{}", tree.render());
    // One or more groups per day-file the step read: 30 April days.
    assert!(copied >= 30, "{copied} groups copied");
    let (copied, encoded) = artifact("pickups");
    assert_eq!((copied, encoded > 0), (0, true));
}
