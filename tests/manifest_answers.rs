//! The manifest-served scan path against an oracle that never touches it.
//!
//! A scan builds a column from a data file's manifest entry when the entry's
//! stats prove it NULL or constant on every row, and never requests a file
//! left with nothing to decode (DESIGN.md §21). Seeded tables go through
//! `Lakehouse::query` — appends, an added column, renames, compaction and an
//! overwrite, under identity, `Day` and no partitioning — and every answer
//! is compared with the same SQL over a `MemoryProvider` holding the same
//! rows, which never reaches a `TableScan`.
//!
//! A scan also filters each file by its residual only — the predicates the
//! file's stats do not prove — and the executor does not re-check what the
//! scan applied (DESIGN.md §23). The oracle states no filter exact, so it
//! evaluates every predicate on every row: `=`, `<>`, `<`, `>=` and
//! two-sided ranges over every column type, NULL-bearing columns, a column
//! added after files were written and two columns that swap names. A
//! pipeline's artifacts are the same from the naive baseline, which pushes
//! no filter down, as from a fused run.
//!
//! Compaction reads its input through the same scan, so `pickup_at` now
//! comes from the manifest there too: the data-file names (content tokens)
//! a fixed branch → append → merge → compact sequence writes are pinned to
//! what they were when every column was decoded.

use bauplan_core::{
    ExecutionMode, Lakehouse, LakehouseConfig, NodeDef, PipelineProject, RunOptions,
};
use lakehouse_catalog::{ContentRef, Operation};
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema};
use lakehouse_sql::{MemoryProvider, SqlEngine};
use lakehouse_store::{InMemoryStore, ObjectStore};
use lakehouse_table::{PartitionField, PartitionSpec, SnapshotOperation, Table, Transform};
use lakehouse_workload::TaxiGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// 2019-03-01, days since the epoch.
const DAY0: i32 = 17_956;
const DAYS: i32 = 4;

/// The current names of the columns the queries use, and the evolved-in
/// `extra`'s once it exists.
struct Names {
    day: String,
    ts: String,
    k: String,
    extra: Option<String>,
}

fn base_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64, false),
        Field::new("day", DataType::Date, false),
        Field::new("k", DataType::Int64, true),
        Field::new("ts", DataType::Timestamp, false),
        Field::new("flag", DataType::Bool, false),
        Field::new("f", DataType::Float64, false),
        Field::new("s", DataType::Utf8, true),
    ])
}

/// Seeded rows with ids that never repeat.
struct Rows {
    rng: StdRng,
    next_id: i64,
}

impl Rows {
    /// One commit's rows in `schema` (the table's current one).
    fn next(&mut self, schema: &Schema) -> RecordBatch {
        let batch = rows(&mut self.rng, self.next_id, schema);
        self.next_id += batch.num_rows() as i64;
        batch
    }
}

/// Rows from id `first` on in `schema`: mostly one day, and per column one
/// of the shapes a file's stats can or cannot prove — constant, constant
/// among NULLs, all NULL, varying, and floats holding both zeros.
fn rows(rng: &mut StdRng, first: i64, schema: &Schema) -> RecordBatch {
    let n = rng.gen_range(1..12usize);
    let ids: Vec<i64> = (first..first + n as i64).collect();
    let day = DAY0 + rng.gen_range(0..DAYS);
    let days: Vec<i32> = match rng.gen_bool(0.75) {
        true => vec![day; n],
        false => (0..n).map(|_| DAY0 + rng.gen_range(0..DAYS)).collect(),
    };
    let ints = |rng: &mut StdRng| -> Vec<Option<i64>> {
        match rng.gen_range(0..4) {
            0 => vec![Some(7); n],
            1 => (0..n).map(|i| (i % 3 != 0).then_some(7)).collect(),
            2 => vec![None; n],
            _ => (0..n).map(|_| Some(rng.gen_range(0..4))).collect(),
        }
    };
    let k = ints(rng);
    let extra = ints(rng);
    let ts: Vec<i64> = match rng.gen_bool(0.6) {
        true => vec![1_000_000; n],
        false => (0..n).map(|_| rng.gen_range(0..3i64) * 1_000_000).collect(),
    };
    let flag = rng.gen_bool(0.5);
    let flags: Vec<bool> = match rng.gen_bool(0.6) {
        true => vec![flag; n],
        false => (0..n).map(|_| rng.gen_bool(0.5)).collect(),
    };
    let floats: Vec<f64> = match rng.gen_range(0..3) {
        0 => (0..n)
            .map(|i| if i % 2 == 0 { -0.0 } else { 0.0 })
            .collect(),
        1 => vec![1.5; n],
        _ => (0..n).map(|_| rng.gen_range(-2..3) as f64).collect(),
    };
    let strs: Vec<Option<&str>> = match rng.gen_range(0..3) {
        0 => vec![Some("b"); n],
        1 => (0..n).map(|i| (i % 3 != 1).then_some("c")).collect(),
        _ => (0..n)
            .map(|_| Some(["a", "b", "c"][rng.gen_range(0..3usize)]))
            .collect(),
    };
    let mut columns = vec![
        Column::from_i64(ids),
        Column::from_date(days),
        Column::from_opt_i64(k),
        Column::from_timestamp(ts),
        Column::from_bool(flags),
        Column::from_f64(floats),
        Column::from_opt_str(strs),
    ];
    if schema.len() > columns.len() {
        columns.push(Column::from_opt_i64(extra));
    }
    RecordBatch::try_new(schema.clone(), columns).unwrap()
}

fn date(d: i32) -> String {
    format!("DATE '2019-03-{:02}'", d - DAY0 + 1)
}

fn queries(names: &Names) -> Vec<String> {
    let Names { day, ts, k, extra } = names;
    let mut sql: Vec<String> = [
        "SELECT * FROM t ORDER BY id",
        "SELECT COUNT(*) AS n FROM t",
        "SELECT id, f FROM t WHERE flag = TRUE ORDER BY id",
        "SELECT COUNT(*) AS n FROM t WHERE flag = FALSE",
        "SELECT id, f FROM t WHERE f <= 0.0 ORDER BY id",
        "SELECT COUNT(*) AS n FROM t WHERE f = 0.0",
        "SELECT s, COUNT(*) AS n FROM t GROUP BY s ORDER BY s",
    ]
    .map(String::from)
    .to_vec();
    sql.push(format!(
        "SELECT {k}, COUNT(*) AS n FROM t GROUP BY {k} ORDER BY {k}"
    ));
    sql.push(format!(
        "SELECT COUNT(*) AS n, COUNT({k}) AS nk, SUM({k}) AS sk FROM t WHERE {k} = 7"
    ));
    sql.push(format!("SELECT id FROM t WHERE {k} IS NULL ORDER BY id"));
    sql.push(format!(
        "SELECT {day}, COUNT(*) AS n, MIN({ts}) AS lo, MAX({ts}) AS hi FROM t \
         GROUP BY {day} ORDER BY {day}"
    ));
    sql.push(format!(
        "SELECT {ts}, COUNT(*) AS n FROM t GROUP BY {ts} ORDER BY {ts}"
    ));
    for d in DAY0..DAY0 + DAYS {
        let on = date(d);
        sql.push(format!("SELECT COUNT(*) AS n FROM t WHERE {day} = {on}"));
        sql.push(format!(
            "SELECT id, {day}, {k}, {ts}, flag, f, s FROM t WHERE {day} = {on} ORDER BY id"
        ));
        sql.push(format!(
            "SELECT COUNT(*) AS n, SUM({k}) AS sk FROM t WHERE {day} >= {on} AND {k} = 7"
        ));
    }
    // `=`, `<>`, `<`, `>=` and two-sided ranges on every column type: each
    // file's stats prove such a predicate, rule it out, or leave it open.
    let (first, mid, last) = (date(DAY0), date(DAY0 + 1), date(DAY0 + DAYS - 1));
    let mut predicates = vec![
        format!("{day} <> {mid}"),
        format!("{day} < {mid}"),
        format!("{day} >= {mid} AND {day} <= {last}"),
        format!("{day} > {first} AND {day} < {last}"),
        format!("{k} <> 7"),
        format!("{k} < 2"),
        format!("{k} >= 1 AND {k} <= 3"),
        format!("{ts} = 1000000"),
        format!("{ts} >= 1000000 AND {ts} < 2000000"),
        "flag <> TRUE".into(),
        "f = -0.0".into(),
        "f <> 0.0".into(),
        "f < 1.5".into(),
        "f >= -0.0 AND f < 2.0".into(),
        "s = 'b'".into(),
        "s <> 'c'".into(),
        "s < 'b'".into(),
        "s >= 'b' AND s <= 'c'".into(),
    ];
    if let Some(extra) = extra {
        sql.push(format!("SELECT COUNT(*) AS n, COUNT({extra}) AS ne FROM t"));
        sql.push(format!(
            "SELECT {extra}, COUNT(*) AS n FROM t GROUP BY {extra} ORDER BY {extra}"
        ));
        sql.push(format!(
            "SELECT id, {extra} FROM t WHERE {extra} = 7 ORDER BY id"
        ));
        predicates.push(format!("{extra} <> 7"));
        predicates.push(format!("{extra} >= 0 AND {extra} < 7"));
    }
    for p in predicates {
        sql.push(format!("SELECT id FROM t WHERE {p} ORDER BY id"));
        sql.push(format!(
            "SELECT COUNT(*) AS n, SUM(f) AS sf, MIN({day}) AS lo FROM t WHERE {p}"
        ));
    }
    sql
}

/// Every row of `batch`, printed: `Debug` tells `-0.0` from `0.0`.
fn printed(batch: &RecordBatch) -> String {
    let rows: Vec<_> = (0..batch.num_rows())
        .map(|r| batch.row(r).unwrap())
        .collect();
    format!("{rows:?}")
}

/// Every query, through the lakehouse and through the oracle over `expected`.
fn check(lh: &Lakehouse, expected: &RecordBatch, names: &Names, step: &str) {
    let mut oracle = MemoryProvider::new();
    oracle.register("t", expected.clone());
    let engine = SqlEngine::new();
    for sql in queries(names) {
        let got = (lh.query(&sql, "main")).unwrap_or_else(|e| panic!("{step}: {sql}: {e}"));
        let want = engine.query(&sql, &oracle).unwrap();
        assert_eq!(printed(&got), printed(&want), "{step}: {sql}");
    }
}

/// Commit the version `change` makes of table `t` on `main`.
fn evolve(lh: &Lakehouse, store: &Arc<dyn ObjectStore>, change: impl FnOnce(Table) -> Table) {
    let content = lh.catalog().get_content("main", "t").unwrap();
    let table = Table::load(Arc::clone(store), &content.metadata_location).unwrap();
    let next = change(table);
    let content = ContentRef::new(
        next.metadata_location(),
        next.metadata().current_snapshot_id.unwrap_or(0),
    );
    let put = Operation::Put {
        key: "t".into(),
        content,
    };
    lh.catalog()
        .commit("main", "test", "evolve t", vec![put])
        .unwrap();
}

/// `batch` with the field `old` called `new`.
fn renamed(batch: RecordBatch, old: &str, new: &str) -> RecordBatch {
    let fields = (batch.schema().fields().iter())
        .map(|f| {
            if f.name() == old {
                f.with_name(new)
            } else {
                f.clone()
            }
        })
        .collect();
    RecordBatch::try_new(Schema::new(fields), batch.columns().to_vec()).unwrap()
}

/// Append the next rows to `t`, and check the table with them.
fn append(
    lh: &Lakehouse,
    gen: &mut Rows,
    expected: RecordBatch,
    names: &Names,
    step: &str,
) -> RecordBatch {
    let batch = gen.next(expected.schema());
    lh.append_table("t", &batch, "main").unwrap();
    let expected = RecordBatch::concat(&[expected, batch]).unwrap();
    check(lh, &expected, names, step);
    expected
}

fn differential(spec: PartitionSpec, seed: u64) {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let lh = Lakehouse::with_store(Arc::clone(&store), LakehouseConfig::zero_latency()).unwrap();
    let mut gen = Rows {
        rng: StdRng::seed_from_u64(seed),
        next_id: 0,
    };
    let mut names = Names {
        day: "day".into(),
        ts: "ts".into(),
        k: "k".into(),
        extra: None,
    };
    let mut expected = gen.next(&base_schema());
    lh.create_table_partitioned("t", &expected, "main", spec.clone())
        .unwrap();
    check(&lh, &expected, &names, "create");
    for i in 0..4 {
        expected = append(&lh, &mut gen, expected, &names, &format!("append {i}"));
    }

    // A column added after those files were written: NULL on their rows.
    evolve(&lh, &store, |t| {
        let extra = Field::new("extra", DataType::Int64, true);
        t.add_columns(&[extra]).unwrap()
    });
    let mut fields = expected.schema().fields().to_vec();
    fields.push(Field::new("extra", DataType::Int64, true));
    let mut columns = expected.columns().to_vec();
    columns.push(Column::new_null(DataType::Int64, expected.num_rows()));
    expected = RecordBatch::try_new(Schema::new(fields), columns).unwrap();
    names.extra = Some("extra".into());
    check(&lh, &expected, &names, "add column");
    for i in 0..2 {
        let step = format!("append {i} with extra");
        expected = append(&lh, &mut gen, expected, &names, &step);
    }

    // Renames: the files keep the names (and stats) they were written with.
    // A partition source cannot be renamed, so `day` is renamed only where
    // nothing is partitioned by it. `k` and `extra` swap names, so a file's
    // stats under `k` are now those of the column called `kept`.
    let mut renames = vec![("ts", "at"), ("k", "kept"), ("extra", "k")];
    if spec.fields.is_empty() {
        renames.push(("day", "pickup_day"));
    }
    for (old, new) in renames {
        evolve(&lh, &store, |t| t.rename_column(old, new).unwrap());
        expected = renamed(expected, old, new);
    }
    names.ts = "at".into();
    names.k = "kept".into();
    names.extra = Some("k".into());
    if spec.fields.is_empty() {
        names.day = "pickup_day".into();
    }
    check(&lh, &expected, &names, "rename");
    expected = append(&lh, &mut gen, expected, &names, "append after rename");

    lh.compact_table("t", "main").unwrap();
    check(&lh, &expected, &names, "compact");

    let batch = gen.next(expected.schema());
    evolve(&lh, &store, |t| {
        let mut tx = t.new_transaction(SnapshotOperation::Overwrite);
        tx.write(&batch).unwrap();
        let (location, _) = tx.commit().unwrap();
        Table::load(Arc::clone(&store), &location).unwrap()
    });
    expected = batch;
    check(&lh, &expected, &names, "overwrite");
    expected = append(&lh, &mut gen, expected, &names, "append after overwrite");
    lh.compact_table("t", "main").unwrap();
    check(&lh, &expected, &names, "compact after overwrite");
}

fn by_day(column: &str) -> PartitionSpec {
    PartitionSpec::new(vec![PartitionField {
        source_column: column.into(),
        transform: Transform::Day,
    }])
}

#[test]
fn day_partitioned_answers_match_the_oracle() {
    for seed in [1, 2, 3] {
        differential(by_day("day"), seed);
    }
}

#[test]
fn identity_partitioned_answers_match_the_oracle() {
    for seed in [4, 5, 6] {
        differential(PartitionSpec::identity("day"), seed);
    }
}

#[test]
fn unpartitioned_answers_match_the_oracle() {
    for seed in [7, 8, 9] {
        differential(PartitionSpec::unpartitioned(), seed);
    }
}

/// The artifacts a pipeline of predicate-bearing nodes writes in `mode`,
/// printed: the naive baseline pushes no filter down and evaluates every
/// row, the fused run filters each file by its residual and reads the
/// in-memory artifact it passes between nodes.
fn artifacts(mode: ExecutionMode) -> Vec<String> {
    let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
    let mut gen = Rows {
        rng: StdRng::seed_from_u64(10),
        next_id: 0,
    };
    let first = gen.next(&base_schema());
    lh.create_table_partitioned("t", &first, "main", by_day("day"))
        .unwrap();
    for _ in 0..6 {
        lh.append_table("t", &gen.next(&base_schema()), "main")
            .unwrap();
    }
    let (from, to) = (date(DAY0 + 1), date(DAY0 + DAYS - 1));
    let project = PipelineProject::new("residuals")
        .with(NodeDef::sql(
            "window",
            format!("SELECT id, day, k, f, s FROM t WHERE day >= {from} AND day <= {to}"),
        ))
        .with(NodeDef::sql(
            "small_k",
            "SELECT day, COUNT(*) AS n, SUM(f) AS sf FROM window \
             WHERE k < 7 AND s <> 'a' GROUP BY day",
        ));
    let report = lh.run(&project, &RunOptions::default().with_mode(mode));
    assert!(report.unwrap().success, "{mode:?} run failed");
    [
        "SELECT * FROM window ORDER BY id",
        "SELECT * FROM small_k ORDER BY day",
    ]
    .map(|sql| printed(&lh.query(sql, "main").unwrap()))
    .to_vec()
}

#[test]
fn a_naive_run_writes_the_artifacts_a_fused_run_does() {
    let fused = artifacts(ExecutionMode::Fused);
    assert!(fused.iter().all(|rows| rows != "[]"), "{fused:?}");
    assert_eq!(artifacts(ExecutionMode::Naive), fused);
}

/// The data files a branch → append → merge → compact sequence writes, by
/// name, sorted. A name ends in a token of the file's bytes.
fn compacted_files() -> Vec<String> {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let lh = Lakehouse::with_store(Arc::clone(&store), LakehouseConfig::zero_latency()).unwrap();
    let days = |seed: u64| {
        TaxiGenerator {
            seed,
            days: 3,
            ..Default::default()
        }
        .generate(600)
    };
    lh.create_table_partitioned("taxi", &days(1), "main", by_day("pickup_at"))
        .unwrap();
    lh.create_branch("feat", Some("main")).unwrap();
    lh.append_table("taxi", &days(2), "feat").unwrap();
    lh.merge("feat", "main").unwrap();
    let report = lh.compact_table("taxi", "main").unwrap();
    assert_eq!((report.files_compacted, report.files_written), (6, 3));
    let mut files: Vec<String> = (store.list("").unwrap().iter())
        .filter_map(|p| {
            p.as_str()
                .split_once("/data/")
                .map(|(_, name)| name.to_string())
        })
        .collect();
    files.sort();
    files
}

/// Computed with every scan column decoded: snapshot 1 is the create,
/// 2 the branch's append, 3 the compaction's rewrite of each day.
const COMPACTED_FILES: [&str; 9] = [
    "snap1-00000-8352068827f942e8.lkh",
    "snap1-00001-35a0b5de48f834c8.lkh",
    "snap1-00002-52f94b4ccd1c90cc.lkh",
    "snap2-00000-fc13d59d73ae30fb.lkh",
    "snap2-00001-8965f6a7c8ef4915.lkh",
    "snap2-00002-e43e4cff8a6da467.lkh",
    "snap3-00000-5bb527783b5ddfdb.lkh",
    "snap3-00001-af8033ad6b6414d5.lkh",
    "snap3-00002-77f5aa20144c5ede.lkh",
];

#[test]
fn compaction_writes_the_bytes_it_wrote_when_every_column_was_decoded() {
    assert_eq!(compacted_files(), COMPACTED_FILES);
}
