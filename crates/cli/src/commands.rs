//! Command implementations.

use crate::args::{Cli, Command, USAGE};
use crate::pipeline_loader;
use bauplan_core::{Lakehouse, PipelineProject, RunOptions, RunReport};
use lakehouse_columnar::pretty::format_batch;
use lakehouse_obs::{to_chrome_trace, SpanTree};
use std::path::Path;

type DynError = Box<dyn std::error::Error>;

/// Write the span tree as Chrome-trace JSON (chrome://tracing / Perfetto).
fn write_trace(path: &str, tree: &SpanTree) -> Result<(), DynError> {
    std::fs::write(path, to_chrome_trace(tree))?;
    eprintln!("wrote {} spans to {path}", tree.spans.len());
    Ok(())
}

/// `EXPLAIN ANALYZE <SQL>` → `Some("<SQL>")`.
fn strip_explain_analyze(sql: &str) -> Option<&str> {
    let trimmed = sql.trim_start();
    let mut rest = trimmed;
    for word in ["EXPLAIN", "ANALYZE"] {
        let head = rest.get(..word.len())?;
        if !head.eq_ignore_ascii_case(word) {
            return None;
        }
        rest = rest[word.len()..].trim_start();
    }
    Some(rest)
}

/// Execute a parsed command.
pub fn dispatch(cli: Cli) -> Result<(), DynError> {
    if cli.command == Command::Help {
        println!("{USAGE}");
        return Ok(());
    }
    let Cli {
        data_dir,
        trace_out,
        metrics_out,
        config,
        command,
    } = cli;
    let lh = Lakehouse::on_disk(&data_dir, config)?;
    match command {
        Command::Query {
            sql,
            reference,
            explain,
        } => {
            if let Some(inner) = strip_explain_analyze(&sql) {
                let (batch, text, tree) = lh.explain_analyze_traced(inner, &reference)?;
                println!("{text}");
                println!("({} rows)", batch.num_rows());
                if let Some(path) = &trace_out {
                    write_trace(path, &tree)?;
                }
            } else if explain {
                println!("{}", lh.explain(&sql, &reference)?);
            } else if trace_out.is_some() {
                let (batch, tree) = lh.profile(&sql, &reference)?;
                println!("{}", format_batch(&batch, 40));
                println!("({} rows)", batch.num_rows());
                if let Some(path) = &trace_out {
                    write_trace(path, &tree)?;
                }
            } else {
                let batch = lh.query(&sql, &reference)?;
                println!("{}", format_batch(&batch, 40));
                println!("({} rows)", batch.num_rows());
            }
        }
        Command::Profile { sql, reference } => {
            let (batch, tree) = lh.profile(&sql, &reference)?;
            println!("{}", format_batch(&batch, 40));
            println!("({} rows)", batch.num_rows());
            println!();
            print!("{}", tree.render());
            println!();
            print!("{}", lakehouse_obs::global().render_grouped());
            if let Some(path) = &trace_out {
                write_trace(path, &tree)?;
            }
        }
        Command::Metrics => {
            print!("{}", lakehouse_obs::global().render_prometheus());
        }
        Command::Run {
            project_dir,
            branch,
            mode,
            detach,
        } => {
            let (project, specs) = pipeline_loader::load_project(Path::new(&project_dir))?;
            pipeline_loader::register_expectations(&lh, &specs);
            let mut options = RunOptions::on_branch(branch);
            if let Some(m) = mode {
                options = options.with_mode(match m.as_str() {
                    "naive" => bauplan_core::ExecutionMode::Naive,
                    _ => bauplan_core::ExecutionMode::Fused,
                });
            }
            if detach {
                run_detached(lh, project, options)?;
            } else {
                let report = lh.run(&project, &options)?;
                print_report(&report);
                if let Some(path) = &trace_out {
                    write_trace(path, &report.trace)?;
                }
            }
        }
        Command::Branch { name, from } => {
            lh.create_branch(&name, from.as_deref())?;
            println!("created branch {name}");
        }
        Command::Tag { name, from } => {
            lh.create_tag(&name, &from)?;
            println!("created tag {name} at {from}");
        }
        Command::Merge { from, to } => match lh.merge(&from, &to)? {
            Some(commit) => println!("merged {from} into {to} at {commit}"),
            None => println!("{to} already up to date"),
        },
        Command::Log { reference, limit } => {
            for (id, commit) in lh.log(&reference, limit)? {
                println!(
                    "{}  seq={:<4} {:<20} {}",
                    &id[..12.min(id.len())],
                    commit.seq,
                    commit.author,
                    commit.message
                );
            }
        }
        Command::Refs => {
            for r in lh.list_refs()? {
                let head = r.head.as_deref().unwrap_or("<empty>");
                println!(
                    "{:<8} {:<24} {}",
                    format!("{:?}", r.kind).to_lowercase(),
                    r.name,
                    &head[..12.min(head.len())]
                );
            }
        }
        Command::Tables { reference } => {
            for t in lh.list_tables(&reference)? {
                println!("{t}");
            }
        }
        Command::Import {
            table,
            file,
            branch,
            append,
        } => {
            let text = std::fs::read_to_string(&file)?;
            let batch = lakehouse_columnar::csv::read_csv(&text)?;
            if append {
                lh.append_table(&table, &batch, &branch)?;
            } else {
                lh.create_table(&table, &batch, &branch)?;
            }
            println!(
                "imported {} rows into {table} on {branch} ({})",
                batch.num_rows(),
                if append { "appended" } else { "created" }
            );
        }
        Command::Export {
            sql,
            output,
            reference,
        } => {
            let batch = lh.query(&sql, &reference)?;
            std::fs::write(&output, lakehouse_columnar::csv::write_csv(&batch))?;
            println!("exported {} rows to {output}", batch.num_rows());
        }
        Command::Compact { table, branch } => {
            let report = lh.compact_table(&table, &branch)?;
            println!(
                "compacted {table} on {branch}: {} files -> {} ({} rows rewritten)",
                report.files_compacted, report.files_written, report.rows_rewritten
            );
        }
        Command::Gc => {
            let removed = lh.gc_catalog()?;
            println!("garbage-collected {removed} unreachable commits");
        }
        Command::Demo { rows } => demo(&lh, rows)?,
        Command::Help => unreachable!("handled above"),
    }
    if let Some(path) = &metrics_out {
        std::fs::write(path, lakehouse_obs::global().render_prometheus())?;
        eprintln!("wrote metrics exposition to {path}");
    }
    Ok(())
}

/// Asynchronous run (the Table 1 `Asynch` modality): detach, then poll.
fn run_detached(
    lh: Lakehouse,
    project: PipelineProject,
    options: RunOptions,
) -> Result<(), DynError> {
    let lh = std::sync::Arc::new(lh);
    let handle = lh.run_async(project, options);
    println!("run detached; polling for completion ...");
    loop {
        match handle.poll() {
            Some(_) => break,
            None => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    // poll() consumed the completion signal; report success via catalog state.
    println!("run finished; inspect with `bauplan log` / `bauplan tables`");
    Ok(())
}

fn print_report(report: &RunReport) {
    println!("run {} on branch '{}':", report.run_id, report.branch);
    println!(
        "  mode: {:?} ({} stage(s))",
        report.mode, report.stages_executed
    );
    for (name, rows) in &report.artifact_rows {
        println!("  materialized {name}: {rows} rows");
    }
    for (name, passed) in &report.audit_results {
        println!(
            "  audit {name}: {}",
            if *passed { "PASSED" } else { "FAILED" }
        );
    }
    let (cold, warm, resume) = report.container_starts;
    println!(
        "  containers: {cold} cold / {warm} warm / {resume} resumed; \
         store ops: {} gets / {} puts",
        report.store_ops.0, report.store_ops.1
    );
    // One formatter for every duration the CLI prints (obs::fmt_duration),
    // so report and EXPLAIN ANALYZE output read the same.
    println!(
        "  simulated latency: {} (startup {} + store {})",
        lakehouse_obs::fmt_duration(report.simulated_total.as_nanos() as u64),
        lakehouse_obs::fmt_duration(report.simulated_startup.as_nanos() as u64),
        lakehouse_obs::fmt_duration(report.simulated_store.as_nanos() as u64),
    );
    println!(
        "  status: {}",
        if report.success {
            "MERGED"
        } else {
            "ROLLED BACK"
        }
    );
}

/// Seed the taxi dataset and run the paper's Appendix A pipeline end-to-end.
fn demo(lh: &Lakehouse, rows: usize) -> Result<(), DynError> {
    use lakehouse_workload_shim::TaxiGenerator;
    println!("seeding taxi_table with {rows} synthetic trips ...");
    let batch = TaxiGenerator::default().generate(rows);
    lh.create_table("taxi_table", &batch, "main")?;
    lh.register_taxi_functions();
    // The paper's illustrative threshold (mean passenger count > 10) would
    // fail on realistic taxi data (~3.5 passengers); demo with a sane one.
    lh.register_function(
        "trips_expectation_impl",
        bauplan_core::builtins::mean_greater_than("trips", "count", 1.0),
    );
    println!("running the Appendix A pipeline (trips -> expectation, trips -> pickups) ...");
    let report = lh.run(&PipelineProject::taxi_example(), &RunOptions::default())?;
    print_report(&report);
    let top = lh.query(
        "SELECT pickup_location_id, dropoff_location_id, counts \
         FROM pickups ORDER BY counts DESC LIMIT 5",
        "main",
    )?;
    println!("top pickup routes:\n{}", format_batch(&top, 5));
    Ok(())
}

/// Tiny shim so the demo can generate taxi data without the CLI depending on
/// the whole workload crate API surface elsewhere.
mod lakehouse_workload_shim {
    pub use lakehouse_workload::TaxiGenerator;
}
