//! Cross-crate end-to-end scenarios: multi-node DAGs, mixed SQL + native
//! functions, schema evolution under live pipelines, replay determinism,
//! and both execution modes producing identical results.

use bauplan_core::{
    builtins, ExecutionMode, FnContext, FnOutput, Lakehouse, LakehouseConfig, NodeDef,
    PipelineProject, Requirements, RunOptions,
};
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};
use lakehouse_workload::TaxiGenerator;
use std::collections::BTreeMap;

fn lakehouse() -> Lakehouse {
    let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
    lh.create_table(
        "taxi_table",
        &TaxiGenerator::default().generate(20_000),
        "main",
    )
    .unwrap();
    lh
}

/// A five-node diamond-shaped pipeline mixing SQL and native functions.
fn diamond_project() -> PipelineProject {
    PipelineProject::new("diamond")
        .with(NodeDef::sql(
            "trips",
            "SELECT pickup_location_id, dropoff_location_id, fare, trip_distance \
             FROM taxi_table WHERE fare > 5.0",
        ))
        .with(NodeDef::sql(
            "by_pickup",
            "SELECT pickup_location_id, COUNT(*) AS n, AVG(fare) AS avg_fare \
             FROM trips GROUP BY pickup_location_id",
        ))
        .with(NodeDef::sql(
            "by_dropoff",
            "SELECT dropoff_location_id, COUNT(*) AS n FROM trips \
             GROUP BY dropoff_location_id",
        ))
        .with(NodeDef::sql(
            "hotspots",
            "SELECT p.pickup_location_id AS zone, p.n AS pickups, d.n AS dropoffs \
             FROM by_pickup p JOIN by_dropoff d \
             ON p.pickup_location_id = d.dropoff_location_id \
             ORDER BY pickups DESC LIMIT 20",
        ))
        .with(NodeDef::function(
            "hotspots_expectation",
            vec!["hotspots".into()],
            Requirements::default().with_package("pandas", "2.0.0"),
            "hotspots_check",
        ))
}

#[test]
fn five_node_diamond_pipeline() {
    let lh = lakehouse();
    lh.register_function("hotspots_check", builtins::min_row_count("hotspots", 1));
    let report = lh.run(&diamond_project(), &RunOptions::default()).unwrap();
    assert!(report.success);
    assert_eq!(report.artifact_rows.len(), 4); // all but the expectation
    let out = lh
        .query(
            "SELECT zone, pickups, dropoffs FROM hotspots LIMIT 3",
            "main",
        )
        .unwrap();
    assert!(out.num_rows() >= 1);
}

/// Every artifact a run of `project` materialized on `main`, under `mode`,
/// in a lakehouse of its own.
fn artifacts_under(
    mode: ExecutionMode,
    project: &PipelineProject,
    register: fn(&Lakehouse),
) -> BTreeMap<String, RecordBatch> {
    let lh = lakehouse();
    register(&lh);
    let report = lh
        .run(project, &RunOptions::default().with_mode(mode))
        .unwrap();
    assert!(report.success, "{mode:?} run failed");
    (report.artifact_rows.keys())
        .map(|name| (name.clone(), lh.read_table(name, "main").unwrap()))
        .collect()
}

/// Both execution modes write every artifact with the same schema and the
/// same rows, in the same order.
fn assert_modes_agree(project: &PipelineProject, register: fn(&Lakehouse), artifacts: usize) {
    let naive = artifacts_under(ExecutionMode::Naive, project, register);
    let fused = artifacts_under(ExecutionMode::Fused, project, register);
    assert_eq!(naive.len(), artifacts);
    assert_eq!(
        naive.keys().collect::<Vec<_>>(),
        fused.keys().collect::<Vec<_>>()
    );
    for (name, batch) in &naive {
        assert!(batch.num_rows() > 0, "{name} is empty");
        assert_eq!(batch.schema(), fused[name].schema(), "{name}'s schema");
        assert_eq!(batch, &fused[name], "{name}'s rows");
    }
}

#[test]
fn naive_and_fused_produce_identical_artifacts() {
    assert_modes_agree(
        &diamond_project(),
        |lh| lh.register_function("hotspots_check", builtins::min_row_count("hotspots", 1)),
        4,
    );
    assert_modes_agree(&mixed_project(), register_tip_model, 2);
}

/// A native node computes a derived table; a SQL node aggregates it.
fn mixed_project() -> PipelineProject {
    PipelineProject::new("mixed")
        .with(NodeDef::function(
            "tips",
            vec!["taxi_table".into()],
            Requirements::default(),
            "tip_model",
        ))
        .with(NodeDef::sql(
            "tip_summary",
            "SELECT COUNT(*) AS n, AVG(predicted_tip) AS avg_tip FROM tips",
        ))
}

fn register_tip_model(lh: &Lakehouse) {
    lh.register_function("tip_model", |ctx: &FnContext| {
        let trips = ctx.input("taxi_table")?;
        let fare = trips.column_by_name("fare")?;
        let tip = lakehouse_columnar::kernels::mul(
            fare,
            &Column::from_value(&Value::Float64(0.2), fare.len())?,
        )?;
        Ok(FnOutput::Batch(RecordBatch::try_new(
            Schema::new(vec![
                Field::new("fare", DataType::Float64, false),
                Field::new("predicted_tip", DataType::Float64, true),
            ]),
            vec![fare.clone(), tip],
        )?))
    });
}

#[test]
fn function_transform_feeds_sql_downstream() {
    let lh = lakehouse();
    register_tip_model(&lh);
    let report = lh.run(&mixed_project(), &RunOptions::default()).unwrap();
    assert!(report.success);
    let out = lh.query("SELECT avg_tip FROM tip_summary", "main").unwrap();
    let Value::Float64(avg_tip) = out.row(0).unwrap()[0] else {
        panic!()
    };
    assert!(avg_tip > 0.0);
}

#[test]
fn schema_evolution_between_runs() {
    let lh = lakehouse();
    let project = PipelineProject::new("evolving").with(NodeDef::sql(
        "fares",
        "SELECT pickup_location_id, fare FROM taxi_table WHERE fare > 50.0",
    ));
    lh.run(&project, &RunOptions::default()).unwrap();
    // Evolve source data: append new rows after the first run.
    lh.append_table(
        "taxi_table",
        &TaxiGenerator {
            seed: 9,
            ..TaxiGenerator::default()
        }
        .generate(20_000),
        "main",
    )
    .unwrap();
    let r2 = lh.run(&project, &RunOptions::default()).unwrap();
    assert!(r2.success);
    let out = lh.query("SELECT COUNT(*) AS n FROM fares", "main").unwrap();
    assert!(out.row(0).unwrap()[0].as_i64().unwrap() > 0);
}

#[test]
fn replay_reproduces_bit_identical_artifacts() {
    let lh = lakehouse();
    lh.register_function("hotspots_check", builtins::min_row_count("hotspots", 1));
    let r1 = lh.run(&diamond_project(), &RunOptions::default()).unwrap();
    let original = lh
        .query("SELECT * FROM hotspots ORDER BY pickups DESC, zone", "main")
        .unwrap();
    // Disturb the lake, then replay.
    lh.append_table(
        "taxi_table",
        &TaxiGenerator {
            seed: 5,
            ..TaxiGenerator::default()
        }
        .generate(10_000),
        "main",
    )
    .unwrap();
    let replay = lh.replay(r1.run_id, None).unwrap();
    let replayed = lh
        .query(
            "SELECT * FROM hotspots ORDER BY pickups DESC, zone",
            &replay.ephemeral_branch,
        )
        .unwrap();
    assert_eq!(original, replayed);
}

#[test]
fn expectation_on_intermediate_blocks_downstream_materialization() {
    let lh = lakehouse();
    // Expectation on trips fails; hotspots must never materialize.
    let project = PipelineProject::new("blocked")
        .with(NodeDef::sql(
            "trips",
            "SELECT fare FROM taxi_table WHERE fare > 5.0",
        ))
        .with(NodeDef::function(
            "trips_expectation",
            vec!["trips".into()],
            Requirements::default(),
            "always_fail",
        ))
        .with(NodeDef::sql("summary", "SELECT COUNT(*) AS n FROM trips"));
    lh.register_function("always_fail", |_: &FnContext| {
        Ok(FnOutput::Expectation(false))
    });
    let err = lh.run(&project, &RunOptions::default()).unwrap_err();
    assert!(err.to_string().contains("expectation"));
    assert!(lh.query("SELECT * FROM summary", "main").is_err());
    assert!(lh.query("SELECT * FROM trips", "main").is_err());
}

#[test]
fn run_registry_tracks_every_run() {
    let lh = lakehouse();
    let project =
        PipelineProject::new("p").with(NodeDef::sql("t", "SELECT fare FROM taxi_table LIMIT 10"));
    assert_eq!(lh.run_count(), 0);
    lh.run(&project, &RunOptions::default()).unwrap();
    lh.run(&project, &RunOptions::default()).unwrap();
    assert_eq!(lh.run_count(), 2);
    let r3 = lh.replay(1, None).unwrap();
    assert_eq!(r3.run_id, 3);
    assert_eq!(lh.run_count(), 3);
}

/// FNV-1a of a table's CSV rendering: a digest that does not depend on any
/// code under test.
fn table_digest(lh: &Lakehouse, table: &str) -> u64 {
    let batch = lh.read_table(table, "main").unwrap();
    let csv = lakehouse_columnar::csv::write_csv(&batch);
    csv.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The paper's taxi pipeline over a day-partitioned lake writes the same
/// `trips` and `pickups` rows, in the same order, as it did before the typed
/// group-key interner and the linear row-group writer (digests recorded at
/// PR 12), when three SQL executors had to agree on them. `pickups` is
/// `ORDER BY counts DESC` with many ties, so its order pins
/// first-appearance group ids and the sort's stability across data files.
#[test]
fn taxi_example_output_matches_recorded_digests() {
    use lakehouse_table::{PartitionField, PartitionSpec, Transform};
    let taxi = TaxiGenerator {
        seed: 13,
        start_day: 17_956,
        days: 61,
        ..Default::default()
    }
    .generate(60_000);
    let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
    lh.create_table_partitioned(
        "taxi_table",
        &taxi,
        "main",
        PartitionSpec::new(vec![PartitionField {
            source_column: "pickup_at".into(),
            transform: Transform::Day,
        }]),
    )
    .unwrap();
    lh.register_function(
        "trips_expectation_impl",
        builtins::mean_greater_than("trips", "count", 1.0),
    );
    let report = lh
        .run(&PipelineProject::taxi_example(), &RunOptions::default())
        .unwrap();
    assert!(report.success);
    assert_eq!(report.artifact_rows["trips"], TRIPS_ROWS);
    assert_eq!(
        (table_digest(&lh, "trips"), table_digest(&lh, "pickups")),
        (TRIPS_DIGEST, PICKUPS_DIGEST)
    );
    // Every run reports its SQL steps' peak working set.
    assert!(report.peak_query_bytes > 0);
}
const TRIPS_ROWS: u64 = 29_477;
const TRIPS_DIGEST: u64 = 6_906_705_535_501_895_446;
const PICKUPS_DIGEST: u64 = 3_518_283_456_637_930_337;
