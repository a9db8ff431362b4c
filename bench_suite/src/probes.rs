//! Layer probes: the same small scenario run against every workload's lake
//! in the traced pass, timing each layer's public functions on the lake's
//! real files and decoded columns. Times are the median of a few
//! repetitions; where a step touches the store, the store calls are spans of
//! their own and the step reports its self time, so a probe reads the same
//! on a store that sleeps as on one that does not.

use crate::data::{self, DAYS, START_DAY};
use crate::mix::{self, Class, BLOCK};
use crate::replay;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Res;
use bauplan_core::{ExecutionMode, Lakehouse, PipelineProject, RunOptions};
use bytes::Bytes;
use lakehouse_catalog::{ContentRef, Operation};
use lakehouse_checksum::crc32c;
use lakehouse_columnar::csv::{read_csv, write_csv};
use lakehouse_columnar::kernels::{
    cmp_column_scalar, filter_batch, hash_batch_rows, sort_indices, take_batch, to_selection,
    update_grouped, AggState, Aggregator, CmpOp, Grouper, SortField,
};
use lakehouse_columnar::{RecordBatch, Value};
use lakehouse_format::{FileReader, FileWriter, WriterOptions};
use lakehouse_planner::{LogicalPipeline, PhysicalPipeline, PipelineDag};
use lakehouse_sql::{logical::plan_select, optimizer::optimize, parse_select};
use lakehouse_sql::{MemoryProvider, SqlEngine};
use lakehouse_store::{ObjectPath, ObjectStore};
use lakehouse_table::{ScanPredicate, SnapshotOperation, Table};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub type Metrics = BTreeMap<String, f64>;

/// Median seconds of `reps` calls of `f`.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

pub struct Probe<'a> {
    pub tracer: &'a Arc<Tracer>,
    pub lh: &'a Lakehouse,
    pub store: &'a Arc<dyn ObjectStore>,
    pub seed: u64,
}

impl Probe<'_> {
    /// Self time in ms of `f` run as one span of `layer`: its wall time
    /// minus the store calls it made.
    fn self_ms<T>(
        &self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> Res<T>,
    ) -> Res<(T, f64)> {
        let span = self.tracer.span(layer, name);
        let id = span.id();
        let out = f();
        drop(span);
        let ms = self.tracer.read(|spans| spans.self_ns(id)) as f64 / 1e6;
        Ok((out?, ms))
    }

    fn median_self_ms(
        &self,
        reps: usize,
        layer: &'static str,
        name: &str,
        mut f: impl FnMut() -> Res<()>,
    ) -> Res<f64> {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            samples.push(self.self_ms(layer, name, &mut f)?.1);
        }
        Ok(median(&samples))
    }

    /// Every probe. Leaves `main` as it found it, apart from the pipeline's
    /// two artifacts and orphaned objects of scratch tables and branches.
    pub fn all(&self, m: &mut Metrics) -> Res<()> {
        self.runtime(m)?;
        self.layers(m)
    }

    /// The first runs on this lakehouse handle: cold start, steady state,
    /// and the naive baseline for the fusion ratio. Must come before any
    /// other run, or nothing is cold any more.
    fn runtime(&self, m: &mut Metrics) -> Res<()> {
        let project = PipelineProject::taxi_example();
        let _root = self.tracer.span("bench", "probe.runtime");
        let cold = self.lh.run(&project, &RunOptions::default())?;
        self.lh.run(&project, &RunOptions::default())?;
        let warm = self.lh.run(&project, &RunOptions::default())?;
        let naive = self.lh.run(
            &project,
            &RunOptions::default().with_mode(ExecutionMode::Naive),
        )?;
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        m.insert("runtime.cold_run_sim_ms".into(), ms(cold.simulated_total));
        m.insert("runtime.cold_starts".into(), cold.container_starts.0 as f64);
        m.insert(
            "runtime.startup_sim_ms_per_run".into(),
            ms(warm.simulated_startup),
        );
        m.insert("runtime.warm_starts".into(), warm.container_starts.1 as f64);
        m.insert(
            "runtime.resume_starts".into(),
            warm.container_starts.2 as f64,
        );
        m.insert(
            "planner.fusion_speedup_sim".into(),
            ms(naive.simulated_total) / ms(warm.simulated_total),
        );
        Ok(())
    }

    fn layers(&self, m: &mut Metrics) -> Res<()> {
        let _root = self.tracer.span("bench", "probe.layers");
        let (week, files) = self.recent_week()?;
        self.checksum_and_format(&files, m)?;
        self.columnar(&week, m)?;
        self.sql(m)?;
        self.catalog(m)?;
        self.table(m)?;
        self.planner(m)?;
        self.run_shape(m)
    }

    fn taxi_table(&self) -> Res<Table> {
        let content = self.lh.catalog().get_content("main", "taxi_table")?;
        Ok(Table::load(
            Arc::clone(self.store),
            &content.metadata_location,
        )?)
    }

    /// The last seven days of `taxi_table` as the scan returns them, and
    /// the bytes of the data files that scan fetched.
    fn recent_week(&self) -> Res<(RecordBatch, Vec<Bytes>)> {
        let last = START_DAY + DAYS - 1;
        let span = self.tracer.span("table", "probe.scan_week");
        let id = span.id();
        let week = self
            .taxi_table()?
            .scan()
            .with_predicate(ScanPredicate::new(
                "pickup_at",
                CmpOp::GtEq,
                Value::Date(last - 6),
            ))
            .with_predicate(ScanPredicate::new(
                "pickup_at",
                CmpOp::LtEq,
                Value::Date(last),
            ))
            .execute_with_report()?
            .0;
        drop(span);
        let mut files = Vec::new();
        for path in self.tracer.read(|spans| spans.data_files_fetched(id)) {
            files.push(self.store.get(&ObjectPath::new(path)?)?);
        }
        Ok((week, files))
    }

    fn checksum_and_format(&self, files: &[Bytes], m: &mut Metrics) -> Res<()> {
        let total_bytes: usize = files.iter().map(Bytes::len).sum();
        let mb = total_bytes as f64 / 1e6;
        let secs = time(5, || {
            files.iter().map(|f| crc32c(f)).fold(0, u32::wrapping_add)
        });
        m.insert("checksum.crc32c_mb_s".into(), mb / secs);

        let mut parse_us = Vec::new();
        let mut readers = Vec::new();
        for f in files {
            parse_us.push(time(5, || FileReader::parse(f.clone()).map(|_| ())) * 1e6);
            readers.push(FileReader::parse(f.clone())?);
        }
        m.insert("format.footer_parse_us".into(), median(&parse_us));

        let mut decoded = Vec::new();
        for r in &readers {
            decoded.push(r.read_all(None)?);
        }
        let rows: usize = decoded.iter().map(RecordBatch::num_rows).sum();
        let secs = time(5, || {
            readers
                .iter()
                .map(|r| r.read_all(None).map(|b| b.num_rows()))
                .collect::<Result<Vec<_>, _>>()
        });
        m.insert("format.decode_mb_s".into(), mb / secs);
        m.insert("format.decode_ns_per_row".into(), secs * 1e9 / rows as f64);

        let secs = time(3, || {
            decoded
                .iter()
                .map(|b| FileWriter::write_file(b, WriterOptions::default()).map(|f| f.len()))
                .collect::<Result<Vec<_>, _>>()
        });
        m.insert("format.encode_mb_s".into(), mb / secs);
        m.insert("format.encode_ns_per_row".into(), secs * 1e9 / rows as f64);
        m.insert(
            "format.bytes_per_row".into(),
            total_bytes as f64 / rows as f64,
        );
        Ok(())
    }

    fn columnar(&self, week: &RecordBatch, m: &mut Metrics) -> Res<()> {
        let n = week.num_rows() as f64;
        let per_row = |secs: f64| secs * 1e9 / n;
        let fare = week.column_by_name("fare")?;
        let payment = week.column_by_name("payment_type")?;
        let zone = week.column_by_name("pickup_location_id")?;

        let filter = |col, op, scalar: &Value| -> Res<RecordBatch> {
            let mask = cmp_column_scalar(op, col, scalar)?;
            Ok(filter_batch(week, &to_selection(&mask)?)?)
        };
        let secs = time(5, || {
            filter(fare, CmpOp::Gt, &Value::Float64(15.0)).map(|b| b.num_rows())
        });
        m.insert("columnar.filter_ns_per_row".into(), per_row(secs));
        let cash = Value::Utf8("cash".into());
        let secs = time(5, || {
            filter(payment, CmpOp::Eq, &cash).map(|b| b.num_rows())
        });
        m.insert("columnar.dict_filter_ns_per_row".into(), per_row(secs));

        let secs = time(5, || -> Res<usize> {
            let mut grouper = Grouper::new();
            let mut ids = Vec::new();
            grouper.group_ids(std::slice::from_ref(zone), &mut ids)?;
            let mut states = vec![AggState::new(Aggregator::Sum); grouper.num_groups()];
            update_grouped(&mut states, &ids, Some(fare))?;
            Ok(states.len())
        });
        m.insert("columnar.group_agg_ns_per_row".into(), per_row(secs));

        let secs = time(5, || hash_batch_rows(week, &[0, 1]).map(|h| h.len()));
        m.insert("columnar.hash_ns_per_row".into(), per_row(secs));

        let keys = [SortField::desc(fare.clone())];
        let secs = time(3, || sort_indices(&keys).map(|i| i.len()));
        m.insert("columnar.sort_ns_per_row".into(), per_row(secs));
        let order = sort_indices(&keys)?;
        let secs = time(5, || take_batch(week, &order).map(|b| b.num_rows()));
        m.insert("columnar.take_ns_per_row".into(), per_row(secs));

        let text = write_csv(&week.slice(0, week.num_rows().min(20_000))?);
        let secs = time(3, || read_csv(&text).map(|b| b.num_rows()));
        m.insert(
            "columnar.csv_parse_mb_s".into(),
            text.len() as f64 / 1e6 / secs,
        );
        Ok(())
    }

    /// Parse, plan, and in-memory execution of one canonical query per class
    /// (the last seven days), over the output of that class's scan.
    fn sql(&self, m: &mut Metrics) -> Res<()> {
        let last = START_DAY + DAYS - 1;
        let (mut parse_us, mut plan_us, mut weighted) = (Vec::new(), Vec::new(), 0.0);
        for (class, _) in BLOCK {
            let lo = if class == Class::PointCount {
                last
            } else {
                last - 6
            };
            let query = mix::build(class, lo, last, 40.0);
            let mut provider = MemoryProvider::new();
            for spec in &query.scans {
                let content = self.lh.catalog().get_content("main", spec.table)?;
                let table = Table::load(Arc::clone(self.store), &content.metadata_location)?;
                provider.register(spec.table, replay::scan_table(&table, spec)?.0);
            }
            parse_us.push(time(9, || parse_select(&query.sql).map(|_| ())) * 1e6);
            let stmt = parse_select(&query.sql)?;
            plan_us.push(
                time(9, || {
                    plan_select(&stmt, &provider).and_then(optimize).map(|_| ())
                }) * 1e6,
            );
            let engine = SqlEngine::new();
            engine.query(&query.sql, &provider)?;
            let ms = time(3, || {
                engine.query(&query.sql, &provider).map(|b| b.num_rows())
            }) * 1e3;
            m.insert(format!("sql.exec_mem_ms.{}", class.name()), ms);
            weighted += ms * class.weight();
        }
        m.insert("sql.parse_us".into(), median(&parse_us));
        m.insert("sql.plan_us".into(), median(&plan_us));
        m.insert("sql.exec_mem_ms_per_op".into(), weighted);
        Ok(())
    }

    fn catalog(&self, m: &mut Metrics) -> Res<()> {
        let catalog = self.lh.catalog();
        let content = catalog.get_content("main", "taxi_table")?;
        let put = || {
            vec![Operation::Put {
                key: "probe_key".into(),
                content: ContentRef::new(content.metadata_location.clone(), content.snapshot_id),
            }]
        };
        let ms = self.median_self_ms(25, "catalog", "probe.resolve", || {
            catalog.resolve("main")?;
            Ok(())
        })?;
        m.insert("catalog.resolve_us".into(), ms * 1e3);
        let ms = self.median_self_ms(25, "catalog", "probe.get_content", || {
            catalog.get_content("main", "taxi_table")?;
            Ok(())
        })?;
        m.insert("catalog.get_content_us".into(), ms * 1e3);

        let (mut commit, mut merge, mut gc) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..5 {
            let (a, b) = (format!("probe_a{round}"), format!("probe_b{round}"));
            catalog.create_branch(&a, Some("main"))?;
            merge.push(
                self.self_ms("catalog", "probe.branch+commit+merge", || {
                    catalog.create_branch(&b, Some("main"))?;
                    catalog.commit(&b, "bench_suite", &format!("probe {round}"), put())?;
                    catalog.merge(&b, &a, "bench_suite")?;
                    Ok(())
                })?
                .1,
            );
            commit.push(
                self.self_ms("catalog", "probe.commit", || {
                    catalog.commit(&a, "bench_suite", &format!("probe again {round}"), put())?;
                    Ok(())
                })?
                .1,
            );
            catalog.delete_ref(&a)?;
            catalog.delete_ref(&b)?;
            gc.push(
                self.self_ms("catalog", "probe.gc", || {
                    catalog.gc()?;
                    Ok(())
                })?
                .1,
            );
        }
        m.insert("catalog.commit_ms".into(), median(&commit));
        m.insert("catalog.branch_merge_ms".into(), median(&merge));
        m.insert("catalog.gc_ms".into(), median(&gc));
        Ok(())
    }

    /// Load, append, compact and expire on a scratch table of one week plus
    /// eight 5 000-row appends, on a scratch branch that is then deleted.
    fn table(&self, m: &mut Metrics) -> Res<()> {
        let ms = self.median_self_ms(15, "table", "probe.load", || {
            self.taxi_table()?;
            Ok(())
        })?;
        m.insert("table.load_ms".into(), ms);

        let last = START_DAY + DAYS - 1;
        let week = |seed: u64, rows: usize| {
            let gen = lakehouse_workload::TaxiGenerator {
                seed,
                start_day: last - 6,
                days: 7,
                ..Default::default()
            };
            data::taxi_batch(&gen, rows)
        };
        let branch = "probe_table";
        self.lh.create_branch(branch, Some("main"))?;
        self.lh.create_table_partitioned(
            "probe_scratch",
            &week(self.seed ^ 0x7461_626c, 60_000),
            branch,
            data::day_partitioned(),
        )?;
        let content = self.lh.catalog().get_content(branch, "probe_scratch")?;
        let mut table = Table::load(Arc::clone(self.store), &content.metadata_location)?;
        let mut appends = Vec::new();
        for i in 0..8 {
            let batch = week(self.seed.wrapping_add(i), 5_000);
            let (location, ms) = self.self_ms("table", "probe.append", || {
                let mut tx = table.new_transaction(SnapshotOperation::Append);
                tx.write(&batch)?;
                Ok(tx.commit()?.0)
            })?;
            appends.push(ms);
            table = Table::load(Arc::clone(self.store), &location)?;
        }
        m.insert("table.append_commit_ms".into(), median(&appends));

        let ((compacted, report), ms) =
            self.self_ms("table", "probe.compact", || Ok(table.compact()?))?;
        m.insert(
            "table.compact_ms_per_mrow".into(),
            ms * 1e6 / report.rows_rewritten.max(1) as f64,
        );
        let (_, ms) = self.self_ms("table", "probe.expire", || {
            Ok(compacted.expire_snapshots(1)?)
        })?;
        m.insert("table.expire_ms".into(), ms);
        self.lh.delete_branch(branch)?;
        Ok(())
    }

    fn planner(&self, m: &mut Metrics) -> Res<()> {
        let project = PipelineProject::taxi_example();
        let compile = |mode| -> Res<usize> {
            let dag = PipelineDag::extract(&project)?;
            let logical = LogicalPipeline::plan_with_dag(&project, &dag, None)?;
            let physical = PhysicalPipeline::compile(&logical, &dag, mode, u64::MAX, |_| 0)?;
            Ok(physical.stages.len())
        };
        let secs = time(25, || compile(ExecutionMode::Fused));
        m.insert("planner.plan_us".into(), secs * 1e6);
        m.insert(
            "planner.stages_fused".into(),
            compile(ExecutionMode::Fused)? as f64,
        );
        m.insert(
            "planner.stages_naive".into(),
            compile(ExecutionMode::Naive)? as f64,
        );
        Ok(())
    }

    /// Where a run's wall time goes: SQL against materialisation, from two
    /// unrolled replays of the taxi pipeline (the second is reported).
    fn run_shape(&self, m: &mut Metrics) -> Res<()> {
        let mut last = None;
        for i in 0..2 {
            let _op = self.tracer.span("bench", "probe.run_replay");
            last = Some(replay::replay_run(
                self.tracer,
                self.lh,
                self.store,
                &format!("probe{i}"),
            )?);
        }
        let run = last.expect("two replays ran");
        let (sql, materialize) = self.tracer.read(|spans| {
            let sum = |ids: &[u32]| ids.iter().map(|id| spans.get(*id).dur_ms()).sum::<f64>();
            (sum(&run.sql), sum(&run.materialize))
        });
        m.insert("core.run_sql_ms".into(), sql);
        m.insert("core.run_materialize_ms".into(), materialize);
        Ok(())
    }
}
