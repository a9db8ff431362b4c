//! Day-2 operations: governance, maintenance, and log-driven optimization —
//! the platform pieces the paper's §5 sketches as future work, implemented.
//!
//! ```sh
//! cargo run --example operations
//! ```

// Examples and benches print their results.
#![allow(clippy::print_stdout)]

use bauplan_core::{
    builtins, standard_policy, Lakehouse, LakehouseConfig, PipelineProject, Principal, RunOptions,
};
use lakehouse_workload::TaxiGenerator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lh = Lakehouse::in_memory(LakehouseConfig::default())?;
    lh.create_table(
        "taxi_table",
        &TaxiGenerator::default().generate(30_000),
        "main",
    )?;
    lh.register_function(
        "trips_expectation_impl",
        builtins::mean_greater_than("trips", "count", 1.0),
    );

    // --- Governance (paper §5: "seamless, yet secure authentication") -------
    lh.set_access_policy(standard_policy("main"));
    let engineer = Principal::new("dev-1", vec!["engineer"]);
    let deployer = Principal::new("orchestrator", vec!["deployer"]);

    lh.create_branch("feat_ops", Some("main"))?;
    // Engineer iterates on the feature branch...
    let report = lh.run_as(
        &engineer,
        &PipelineProject::taxi_example(),
        &RunOptions::on_branch("feat_ops"),
    )?;
    println!(
        "engineer run {} on feat_ops: success={}",
        report.run_id, report.success
    );
    // ...but production is protected:
    match lh.run_as(
        &engineer,
        &PipelineProject::taxi_example(),
        &RunOptions::default(),
    ) {
        Err(e) => println!("engineer on main blocked: {e}"),
        Ok(_) => unreachable!("policy must block this"),
    }
    // The deployer promotes.
    lh.merge_as(&deployer, "feat_ops", "main")?;
    println!(
        "audit log has {} events ({} denials)",
        lh.access().audit_log().len(),
        lh.access().denials().len()
    );

    // --- Log-driven memory estimation (paper §5) ------------------------------
    let (hits, misses) = lh.memory_estimator().hit_miss();
    println!("\nestimator after first run: {hits} history hits / {misses} default fallbacks");
    lh.access().disable_enforcement();
    lh.run(&PipelineProject::taxi_example(), &RunOptions::default())?;
    let (hits2, _) = lh.memory_estimator().hit_miss();
    println!(
        "estimator after second run: {hits2} history hits (learned {:?})",
        lh.memory_estimator().known_nodes()
    );

    // --- Table maintenance ------------------------------------------------------
    // Fragment the table with appends, then compact and expire.
    for seed in 0..4 {
        lh.append_table(
            "taxi_table",
            &TaxiGenerator {
                seed,
                ..TaxiGenerator::default()
            }
            .generate(5_000),
            "main",
        )?;
    }
    let metrics = lh.store_metrics();
    metrics.reset();
    lh.query("SELECT COUNT(*) AS n FROM taxi_table", "main")?;
    let gets_fragmented = metrics.gets();
    let creport = lh.compact_table("taxi_table", "main")?;
    println!(
        "\ncompaction: {} files -> {} ({} rows rewritten)",
        creport.files_compacted, creport.files_written, creport.rows_rewritten
    );
    metrics.reset();
    lh.query("SELECT COUNT(*) AS n FROM taxi_table", "main")?;
    println!(
        "per-query GETs: {} fragmented -> {} compacted",
        gets_fragmented,
        metrics.gets()
    );
    // Expiry only rewrites the table's metadata; the sweep after its commit
    // deletes what no branch or tag still reaches.
    let ereport = lh.expire_table_snapshots("taxi_table", "main", 1)?;
    println!(
        "expiration: {} snapshots; swept {} data files, {} manifests, {} metadata documents",
        ereport.snapshots_expired,
        ereport.data_files_deleted,
        ereport.manifests_deleted,
        ereport.documents_deleted
    );

    // --- Catalog GC ----------------------------------------------------------------
    lh.create_branch("scratch", Some("main"))?;
    lh.create_table("tmp", &TaxiGenerator::default().generate(10), "scratch")?;
    lh.delete_branch("scratch")?;
    println!("\ncatalog gc removed {} orphaned commits", lh.gc_catalog()?);
    Ok(())
}
