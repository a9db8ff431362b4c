//! Integration test for the paper's Fig. 4: git semantics for code *and*
//! data — feature branches, ephemeral run branches, transactional merges,
//! conflicts, tags, and rollback on failed audits — and merges that read
//! only the commits made since the fork, however long the history.

use bauplan_core::{
    builtins, BauplanError, Lakehouse, LakehouseConfig, PipelineProject, RunOptions,
};
use lakehouse_catalog::{Catalog, ContentRef, Operation};
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema};
use lakehouse_store::{InMemoryStore, LatencyModel, ObjectStore, SimulatedStore};
use lakehouse_workload::TaxiGenerator;
use std::sync::Arc;

fn lakehouse() -> Lakehouse {
    let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
    lh.create_table(
        "taxi_table",
        &TaxiGenerator::default().generate(5_000),
        "main",
    )
    .unwrap();
    lh.register_function(
        "trips_expectation_impl",
        builtins::mean_greater_than("trips", "count", 1.0),
    );
    lh
}

fn small_batch(v: i64) -> RecordBatch {
    RecordBatch::try_new(
        Schema::new(vec![Field::new("x", DataType::Int64, false)]),
        vec![Column::from_i64(vec![v])],
    )
    .unwrap()
}

#[test]
fn figure4_full_flow() {
    let lh = lakehouse();
    // 1. checkout feat_1
    lh.create_branch("feat_1", Some("main")).unwrap();
    // 2-4. run executes in an ephemeral branch, merges on success, deletes it
    let report = lh
        .run(
            &PipelineProject::taxi_example(),
            &RunOptions::on_branch("feat_1"),
        )
        .unwrap();
    assert!(report.success);
    let refs: Vec<String> = lh
        .list_refs()
        .unwrap()
        .into_iter()
        .map(|r| r.name)
        .collect();
    assert!(
        !refs.iter().any(|r| r.starts_with("run_")),
        "ephemeral branch should be deleted: {refs:?}"
    );
    // artifacts visible to "any user with branch access"
    assert!(lh
        .list_tables("feat_1")
        .unwrap()
        .contains(&"trips".to_string()));
    // final promote
    lh.merge("feat_1", "main").unwrap();
    assert!(lh
        .list_tables("main")
        .unwrap()
        .contains(&"pickups".to_string()));
}

#[test]
fn failed_audit_never_leaks_artifacts() {
    let lh = lakehouse();
    lh.register_function(
        "trips_expectation_impl",
        builtins::mean_greater_than("trips", "count", f64::MAX),
    );
    let before_tables = lh.list_tables("main").unwrap();
    let before_head = lh.log("main", 1).unwrap()[0].0.clone();
    let err = lh
        .run(&PipelineProject::taxi_example(), &RunOptions::default())
        .unwrap_err();
    assert!(matches!(err, BauplanError::ExpectationFailed { .. }));
    assert_eq!(lh.list_tables("main").unwrap(), before_tables);
    assert_eq!(lh.log("main", 1).unwrap()[0].0, before_head);
}

#[test]
fn branches_are_isolated_until_merge() {
    let lh = lakehouse();
    lh.create_branch("feat_a", Some("main")).unwrap();
    lh.create_table("a_only", &small_batch(1), "feat_a")
        .unwrap();
    lh.create_branch("feat_b", Some("main")).unwrap();
    lh.create_table("b_only", &small_batch(2), "feat_b")
        .unwrap();
    assert!(lh.query("SELECT * FROM a_only", "feat_b").is_err());
    assert!(lh.query("SELECT * FROM b_only", "feat_a").is_err());
    assert!(lh.query("SELECT * FROM a_only", "main").is_err());
    lh.merge("feat_a", "main").unwrap();
    lh.merge("feat_b", "main").unwrap();
    assert!(lh.query("SELECT * FROM a_only", "main").is_ok());
    assert!(lh.query("SELECT * FROM b_only", "main").is_ok());
}

#[test]
fn conflicting_table_change_aborts_merge() {
    let lh = lakehouse();
    lh.create_branch("feat", Some("main")).unwrap();
    lh.create_table("contested", &small_batch(1), "feat")
        .unwrap();
    lh.create_table("contested", &small_batch(2), "main")
        .unwrap();
    let err = lh.merge("feat", "main").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("conflict"), "unexpected error: {msg}");
    // Loser branch is intact; both versions still readable on their branches.
    let main_v = lh.query("SELECT x FROM contested", "main").unwrap();
    let feat_v = lh.query("SELECT x FROM contested", "feat").unwrap();
    assert_ne!(main_v.row(0).unwrap(), feat_v.row(0).unwrap());
}

#[test]
fn tags_are_immutable_snapshots() {
    let lh = lakehouse();
    lh.create_tag("launch", "main").unwrap();
    // Tag rejects writes.
    assert!(lh.create_table("t", &small_batch(1), "launch").is_err());
    // Tag keeps its view as main evolves.
    lh.create_table("newer", &small_batch(1), "main").unwrap();
    assert!(lh.query("SELECT * FROM newer", "main").is_ok());
    assert!(lh.query("SELECT * FROM newer", "launch").is_err());
}

#[test]
fn run_commits_are_atomic_per_stage() {
    let lh = lakehouse();
    lh.run(&PipelineProject::taxi_example(), &RunOptions::default())
        .unwrap();
    // The fused run produces one materialization commit + the merge moved
    // main; history must show the run commit with both artifacts.
    let log = lh.log("main", 10).unwrap();
    let run_commit = log
        .iter()
        .find(|(_, c)| c.message.contains("materialize"))
        .expect("materialization commit in history");
    let keys: Vec<&str> = run_commit.1.operations.iter().map(|o| o.key()).collect();
    assert!(keys.contains(&"trips"));
    assert!(keys.contains(&"pickups"));
}

#[test]
fn deterministic_rerun_same_data_same_artifacts() {
    // "the same code on the same data version will produce identical
    // results" — run twice from the same base, compare artifact contents.
    let lh = lakehouse();
    lh.create_branch("a", Some("main")).unwrap();
    lh.create_branch("b", Some("main")).unwrap();
    lh.run(
        &PipelineProject::taxi_example(),
        &RunOptions::on_branch("a"),
    )
    .unwrap();
    lh.run(
        &PipelineProject::taxi_example(),
        &RunOptions::on_branch("b"),
    )
    .unwrap();
    let qa = lh
        .query(
            "SELECT * FROM pickups ORDER BY counts DESC, pickup_location_id, dropoff_location_id",
            "a",
        )
        .unwrap();
    let qb = lh
        .query(
            "SELECT * FROM pickups ORDER BY counts DESC, pickup_location_id, dropoff_location_id",
            "b",
        )
        .unwrap();
    assert_eq!(qa, qb);
}

fn put(key: &str, snapshot: u64) -> Vec<Operation> {
    let content = ContentRef::new(format!("meta/{key}/{snapshot}.json"), snapshot);
    let key = key.to_string();
    vec![Operation::Put { key, content }]
}

/// A catalog whose `main` has `n` commits, each putting `t1`, on a store
/// that counts requests.
fn long_main(n: u64) -> (Arc<SimulatedStore<InMemoryStore>>, Catalog) {
    let store = Arc::new(SimulatedStore::new(
        InMemoryStore::new(),
        LatencyModel::zero(),
    ));
    let c = Catalog::init(Arc::clone(&store) as Arc<dyn ObjectStore>, "_catalog").unwrap();
    for snapshot in 1..=n {
        c.commit("main", "me", "work", put("t1", snapshot)).unwrap();
    }
    (store, c)
}

/// `seq` bounds every ancestry walk of a merge: on a front that has read
/// no commit, a fast-forward of a one-commit branch over a 200-commit
/// `main` reads the ref and the two heads, and an already-merged one the
/// ref and `main`'s one new head, not the history.
#[test]
fn a_fast_forward_over_a_long_history_reads_only_the_heads() {
    let (store, c) = long_main(200);
    c.create_branch("feat", Some("main")).unwrap();
    let feat = c.commit("feat", "me", "x", put("t2", 1)).unwrap();
    let cold = Catalog::open(Arc::clone(&store) as Arc<dyn ObjectStore>, "_catalog").unwrap();
    let gets = store.metrics().gets();
    assert_eq!(cold.merge("feat", "main", "me").unwrap(), Some(feat));
    assert_eq!(store.metrics().gets() - gets, 3, "the ref and both heads");
    c.commit("main", "me", "y", put("t3", 1)).unwrap();
    let gets = store.metrics().gets();
    assert_eq!(cold.merge("feat", "main", "me").unwrap(), None);
    assert_eq!(store.metrics().gets() - gets, 2, "the ref and main's head");
}

/// A three-way merge over a long history merges from the fork: an older
/// common ancestor as the base would show `t1` changed on both sides and
/// abort with a conflict. A later merge of the same branches merges from
/// the `feat` commit the first one took in, not from the fork again.
#[test]
fn a_three_way_merge_over_a_long_history_merges_from_the_fork() {
    let (_, c) = long_main(150);
    c.create_branch("feat", Some("main")).unwrap();
    for snapshot in 1..=20 {
        c.commit("feat", "me", "feat", put("t2", snapshot)).unwrap();
    }
    c.commit("main", "me", "main", put("t3", 1)).unwrap();
    let main = c.commit("main", "me", "main", put("t1", 999)).unwrap();
    let feat = c.resolve("feat").unwrap().unwrap();
    let merged = c.merge("feat", "main", "me").unwrap().unwrap();
    assert_eq!(c.get_commit(&merged).unwrap().parents, vec![main, feat]);
    let snapshot = |key: &str| c.get_content("main", key).unwrap().snapshot_id;
    assert_eq!(
        (snapshot("t1"), snapshot("t2"), snapshot("t3")),
        (999, 20, 1)
    );
    // Both sides move again: from the fork, `t2` would read as changed on
    // both sides (20 on `main`, 21 on `feat`).
    c.commit("feat", "me", "feat", put("t2", 21)).unwrap();
    c.commit("main", "me", "main", put("t1", 1000)).unwrap();
    assert!(c.merge("feat", "main", "me").unwrap().is_some());
    assert_eq!((snapshot("t1"), snapshot("t2")), (1000, 21));
}
