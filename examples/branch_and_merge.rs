//! Git semantics for code *and* data (paper §4.3, Fig. 4): develop a
//! pipeline on a feature branch with its own Nessie-style data branch,
//! sandboxed from production, then promote with a merge. Includes what
//! happens on a merge conflict and on a failed expectation.
//!
//! ```sh
//! cargo run --example branch_and_merge
//! ```

// Examples and benches print their results.
#![allow(clippy::print_stdout)]

use bauplan_core::{
    builtins, BauplanError, Lakehouse, LakehouseConfig, PipelineProject, RunOptions,
};
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema};
use lakehouse_workload::TaxiGenerator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lh = Lakehouse::in_memory(LakehouseConfig::default())?;
    lh.create_table(
        "taxi_table",
        &TaxiGenerator::default().generate(50_000),
        "main",
    )?;
    lh.register_function(
        "trips_expectation_impl",
        builtins::mean_greater_than("trips", "count", 1.0),
    );

    // 1. Branch off production (the user ran `git checkout -b feat_1`; the
    //    platform mirrors it as a data branch).
    lh.create_branch("feat_1", Some("main"))?;
    println!(
        "created feat_1 from main; main tables: {:?}",
        lh.list_tables("main")?
    );

    // 2. Run the pipeline on the feature branch. Internally this goes
    //    through an ephemeral run_<id> branch (Fig. 4's transform-audit-
    //    write), kept in the run, and merges into feat_1 only when
    //    everything is green.
    let report = lh.run(
        &PipelineProject::taxi_example(),
        &RunOptions::on_branch("feat_1"),
    )?;
    println!(
        "run {} merged into feat_1 (ephemeral branch {} never published)",
        report.run_id, report.ephemeral_branch
    );
    println!("feat_1 tables: {:?}", lh.list_tables("feat_1")?);
    println!("main tables (untouched): {:?}", lh.list_tables("main")?);

    // 3. A failing expectation rolls everything back — no partial artifacts.
    lh.register_function(
        "trips_expectation_impl",
        builtins::mean_greater_than("trips", "count", 1e9), // impossible
    );
    match lh.run(
        &PipelineProject::taxi_example(),
        &RunOptions::on_branch("feat_1"),
    ) {
        Err(BauplanError::ExpectationFailed { node }) => {
            println!("\nexpectation '{node}' failed: run rolled back, feat_1 unchanged");
        }
        other => panic!("expected failure, got {other:?}"),
    }
    lh.register_function(
        "trips_expectation_impl",
        builtins::mean_greater_than("trips", "count", 1.0),
    );

    // 4. Promote to production: merge feat_1 -> main.
    lh.merge("feat_1", "main")?;
    println!("\nafter merge, main tables: {:?}", lh.list_tables("main")?);

    // 5. Conflicts are detected at the table level: two branches changing
    //    the same table diverge, and the merge aborts instead of clobbering.
    lh.create_branch("feat_2", Some("main"))?;
    let small = RecordBatch::try_new(
        Schema::new(vec![Field::new("x", DataType::Int64, false)]),
        vec![Column::from_i64(vec![1])],
    )?;
    lh.create_table("shared", &small, "feat_2")?;
    lh.create_table("shared", &small, "main")?; // same key, different content
    match lh.merge("feat_2", "main") {
        Err(e) => println!("\nmerge conflict detected as designed: {e}"),
        Ok(_) => println!("\n(no conflict: identical content merged cleanly)"),
    }

    // 6. The audit log survives it all.
    println!("\nmain history:");
    for (id, commit) in lh.log("main", 10)? {
        println!("  {} {}", &id[..12], commit.message);
    }
    Ok(())
}
