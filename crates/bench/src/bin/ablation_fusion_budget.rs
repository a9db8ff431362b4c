//! Ablation: fusion memory budget vs. stage count and simulated latency.
//!
//! Fusion packs DAG steps into container stages until the estimated working
//! set exceeds the worker's memory budget (DESIGN.md §4). This sweep shows
//! the spectrum between the naive executor (budget ≈ one step) and full
//! fusion (budget ≥ whole DAG), using a 6-node pipeline.
//!
//! Regenerate: `cargo run -p lakehouse-bench --bin ablation_fusion_budget`

// Examples and benches print their results.
#![allow(clippy::print_stdout)]

use bauplan_core::{builtins, Lakehouse, LakehouseConfig, NodeDef, PipelineProject, RunOptions};
use lakehouse_bench::print_rows;
use lakehouse_planner::{ExecutionMode, LogicalPipeline, PhysicalPipeline, PipelineDag};
use lakehouse_workload::TaxiGenerator;

/// A 6-node chain+fan pipeline over the taxi table.
fn wide_project() -> PipelineProject {
    PipelineProject::new("wide")
        .with(NodeDef::sql(
            "trips",
            "SELECT pickup_location_id, dropoff_location_id, fare FROM taxi_table \
             WHERE fare > 3.0",
        ))
        .with(NodeDef::sql(
            "by_pickup",
            "SELECT pickup_location_id, COUNT(*) AS n FROM trips GROUP BY pickup_location_id",
        ))
        .with(NodeDef::sql(
            "by_dropoff",
            "SELECT dropoff_location_id, COUNT(*) AS n FROM trips GROUP BY dropoff_location_id",
        ))
        .with(NodeDef::sql(
            "busy_pickups",
            "SELECT pickup_location_id, n FROM by_pickup WHERE n > 10",
        ))
        .with(NodeDef::sql(
            "busy_dropoffs",
            "SELECT dropoff_location_id, n FROM by_dropoff WHERE n > 10",
        ))
        .with(NodeDef::function(
            "busy_pickups_expectation",
            vec!["busy_pickups".into()],
            Default::default(),
            "check_busy",
        ))
}

fn main() {
    println!("=== ablation: fusion memory budget (6-node pipeline) ===");
    // Static plan-shape sweep.
    let project = wide_project();
    let dag = PipelineDag::extract(&project).unwrap();
    let logical = LogicalPipeline::plan(&project).unwrap();
    const STEP: u64 = 1 << 20; // pretend each step needs 1 MB
    let mut rows = Vec::new();
    for &(label, budget) in &[
        ("1 step (≈ naive)", STEP),
        ("2 steps", 2 * STEP),
        ("3 steps", 3 * STEP),
        ("whole DAG", 100 * STEP),
    ] {
        let plan =
            PhysicalPipeline::compile(&logical, &dag, ExecutionMode::Fused, budget, |_| STEP)
                .unwrap();
        rows.push(vec![
            label.into(),
            format!("{}", plan.stages.len()),
            format!("{}", plan.spilled_edges()),
        ]);
    }
    print_rows(
        "plan shape vs budget",
        &["budget", "stages", "spilled edges"],
        &rows,
    );

    // End-to-end latency at the extremes (measured on the platform).
    let mut rows = Vec::new();
    for (label, worker_memory_bytes) in [
        ("tiny worker (2 MB, stages split)", 2u64 << 20),
        ("32 GB worker (full fusion)", 32u64 << 30),
    ] {
        let config = LakehouseConfig {
            worker_memory_bytes,
            ..Default::default()
        };
        let lh = Lakehouse::in_memory(config).unwrap();
        lh.create_table(
            "taxi_table",
            &TaxiGenerator::default().generate(50_000),
            "main",
        )
        .unwrap();
        lh.register_function("check_busy", builtins::min_row_count("busy_pickups", 1));
        let options = RunOptions::default();
        lh.run(&wide_project(), &options).unwrap(); // warm
        let report = lh.run(&wide_project(), &options).unwrap();
        rows.push(vec![
            label.into(),
            format!("{}", report.stages_executed),
            format!("{}/{}", report.store_ops.0, report.store_ops.1),
            format!("{:.0}", report.simulated_total.as_secs_f64() * 1e3),
        ]);
    }
    print_rows(
        "end-to-end (steady state, simulated ms)",
        &["worker", "stages", "gets/puts", "simulated ms"],
        &rows,
    );
    println!(
        "\nReading: every stage boundary costs a container start plus an \
         object-store round trip for each crossing edge — vertical memory \
         (paper §4.5) is what buys fusion."
    );
}
