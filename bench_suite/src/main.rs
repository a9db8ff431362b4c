//! `bench_suite`: the repository's one benchmark. See `README.md` here and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! bench_suite --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--rows <n>]
//! bench_suite --all [--seed <n>] [--seconds <s>] [--rows <n>]
//! bench_suite --emit-benchmark-json
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod data;
mod ingest_cycle;
mod lake;
mod metrics;
mod mix;
mod probes;
mod query_mix;
mod replay;
mod stats;
mod taxi_run;
mod trace;
mod workload;

use lake::Backend;
use metrics::{Def, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use probes::Metrics;
use serde::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::{Checker, Ctx};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const DEFAULT_ROWS: usize = 1_000_000;

struct Args {
    workload: Option<String>,
    all: bool,
    emit: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    rows: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        emit: false,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        rows: DEFAULT_ROWS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--rows" => args.rows = value()?.parse().map_err(|e| format!("--rows: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--all" => args.all = true,
            "--emit-benchmark-json" => args.emit = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if args.rows < 10_000 {
        return Err("--rows must be at least 10000".into());
    }
    Ok(args)
}

/// `bench_suite/out/`, beside the manifest: trace files, records, and the
/// disk workload's temporary directories all stay inside the checkout.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest).join("out")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What every output record carries besides its metrics.
fn provenance(args: &Args, workload: &str) -> Vec<(String, Json)> {
    let s = |v: String| Json::Str(v);
    vec![
        ("workload".into(), s(workload.into())),
        ("seed".into(), Json::U64(args.seed)),
        ("rows".into(), Json::U64(args.rows as u64)),
        ("seconds".into(), Json::F64(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "git_commit".into(),
            s(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), s(command_line("rustc", &["-V"]))),
        ("nproc".into(), Json::U64(nproc() as u64)),
        (
            "s3_sleep_scale".into(),
            Json::F64(if workload == "query_mix_s3" {
                lake::S3_SLEEP_SCALE
            } else {
                0.0
            }),
        ),
    ]
}

fn metrics_json(defs: &[Def], values: &Metrics) -> Res<Json> {
    let mut out = Vec::new();
    for d in defs {
        let value = *values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", d.name).into());
        }
        println!("{:<36} {:>16.4} {}", d.name, value, d.unit);
        out.push((
            d.name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::F64(value)),
                ("unit".into(), Json::Str(d.unit.into())),
            ]),
        ));
    }
    Ok(Json::Obj(out))
}

/// Removes the run's temporary directories on every way out, a panic
/// included.
struct Cleanup;

impl Drop for Cleanup {
    fn drop(&mut self) {
        lake::remove_temp_dirs();
    }
}

fn run_workload(args: &Args, name: &str) -> Res<bool> {
    let _cleanup = Cleanup;
    let out = out_dir();
    std::fs::create_dir_all(&out)?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        rows: args.rows,
        out_dir: out.clone(),
    };
    let backend = match name {
        "query_mix_s3" => Backend::S3Sleeping,
        _ => Backend::Memory,
    };
    println!(
        "# {name} seed={} rows={} seconds={} trace={}",
        args.seed, args.rows, args.seconds, args.trace as u8
    );
    let (values, checker, mut notes): (Metrics, Checker, Vec<(String, Json)>) = if args.trace {
        let tracer = trace::Tracer::new();
        let mut values = Metrics::new();
        let (traced, lake) = match name {
            "taxi_run" => taxi_run::traced(&ctx, &tracer)?,
            "ingest_cycle" => ingest_cycle::traced(&ctx, &tracer)?,
            _ => query_mix::traced(&ctx, backend, &tracer)?,
        };
        let (probe_lh, probe_store) = lake.probe_front(&tracer)?;
        probes::Probe {
            tracer: &tracer,
            lh: &probe_lh,
            store: &probe_store,
            seed: args.seed,
        }
        .all(&mut values)?;
        drop(lake);
        let spans = tracer.snapshot();
        traced.metrics(&spans, &mut values);
        let trace_file = out.join(format!("trace-{name}-seed{}.json", args.seed));
        std::fs::write(
            &trace_file,
            serde_json::to_string(&trace::spans_to_json(&spans))?,
        )?;
        let by_layer = trace::SpanIndex::new(&spans).self_ms_by_layer();
        let notes = vec![
            ("spans".into(), Json::U64(spans.len() as u64)),
            (
                "trace_file".into(),
                Json::Str(trace_file.display().to_string()),
            ),
            (
                "self_ms_by_layer".into(),
                Json::Obj(
                    by_layer
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::F64(v)))
                        .collect(),
                ),
            ),
        ];
        (values, traced.checker, notes)
    } else {
        let e2e = match name {
            "taxi_run" => taxi_run::e2e(&ctx)?,
            "ingest_cycle" => ingest_cycle::e2e(&ctx)?,
            _ => query_mix::e2e(&ctx, backend)?,
        };
        let (values, notes) = e2e.metrics()?;
        (values, e2e.checker, notes)
    };

    // One client thread, and never more threads than cores.
    let threads = workload::proc_status("Threads:").unwrap_or(1);
    let mut failed = checker.failed;
    let mut reasons = checker.reasons.clone();
    if threads as usize > nproc() {
        failed += 1;
        reasons.push(format!("{threads} threads on {} cores", nproc()));
    }
    for reason in &reasons {
        eprintln!("FAILED: {reason}");
    }
    notes.push(("threads".into(), Json::U64(threads)));
    notes.push((
        "failed_ops_frac".into(),
        Json::F64(failed as f64 / checker.attempted.max(1) as f64),
    ));
    for (k, v) in &notes {
        if k != "query_digests" && k != "self_ms_by_layer" {
            println!("# {k} = {}", serde_json::to_string(v)?);
        }
    }

    let defs: &[Def] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = failed == 0;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::U64(checker.attempted.max(1))),
        ("failed".into(), Json::U64(failed)),
        ("metrics".into(), metrics_json(defs, &values)?),
    ]);
    let mut record = provenance(args, name);
    record.extend(notes);
    record.push(("result".into(), result.clone()));
    std::fs::write(
        out.join(format!(
            "record-{name}-seed{}-trace{}.json",
            args.seed, args.trace as u8
        )),
        serde_json::to_string_pretty(&Json::Obj(record))?,
    )?;
    println!("{}", serde_json::to_string(&result)?);
    Ok(correct)
}

/// Every workload, untraced then traced, each in a process of its own so
/// that peak memory is the workload's and not its predecessors'.
fn run_all(args: &Args) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--rows", &args.rows.to_string()])
                .status()?;
            all_correct &= status.success();
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("bench_suite measures optimized builds only: run it with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: bench_suite --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--rows <n>] | --all | --emit-benchmark-json");
            return ExitCode::from(2);
        }
    };
    if args.emit {
        println!(
            "{}",
            serde_json::to_string_pretty(&metrics::benchmark_json()).expect("serializable")
        );
        return ExitCode::SUCCESS;
    }
    let outcome = match &args.workload {
        _ if args.all => run_all(&args),
        Some(name) if WORKLOADS.iter().any(|(w, _)| w == name) => run_workload(&args, name),
        Some(name) => Err(format!("unknown workload {name}").into()),
        None => Err("--workload, --all or --emit-benchmark-json is required".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_suite: {e}");
            ExitCode::from(3)
        }
    }
}
