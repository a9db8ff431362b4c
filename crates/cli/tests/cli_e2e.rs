//! End-to-end tests driving the actual `bauplan` binary: every command the
//! usage text advertises, against a persistent on-disk lakehouse.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::SystemTime;

struct Cli {
    data_dir: PathBuf,
}

impl Cli {
    fn new(tag: &str) -> Cli {
        let data_dir =
            std::env::temp_dir().join(format!("bauplan_e2e_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        Cli { data_dir }
    }

    fn run(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_bauplan"))
            .arg("--data-dir")
            .arg(&self.data_dir)
            .args(args)
            .output()
            .expect("binary runs")
    }

    fn ok(&self, args: &[&str]) -> String {
        let out = self.run(args);
        assert!(
            out.status.success(),
            "command {args:?} failed:\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    }

    fn fails(&self, args: &[&str]) -> String {
        let out = self.run(args);
        assert!(!out.status.success(), "command {args:?} should fail");
        String::from_utf8_lossy(&out.stderr).to_string()
    }
}

impl Drop for Cli {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

#[test]
fn help_prints_usage() {
    let cli = Cli::new("help");
    let out = cli.ok(&["help"]);
    assert!(out.contains("bauplan query"));
    assert!(out.contains("bauplan run"));
}

#[test]
fn unknown_command_exits_nonzero_with_usage() {
    let cli = Cli::new("unknown");
    let err = cli.fails(&["frobnicate"]);
    assert!(err.contains("unknown command"));
}

#[test]
fn demo_then_query_persists_across_invocations() {
    let cli = Cli::new("demo");
    let out = cli.ok(&["demo", "--rows", "5000"]);
    assert!(out.contains("MERGED"), "demo output: {out}");
    // A separate process sees the same lake.
    let out = cli.ok(&["query", "-q", "SELECT COUNT(*) AS n FROM pickups"]);
    assert!(out.contains("(1 rows)"));
    let tables = cli.ok(&["tables"]);
    for t in ["taxi_table", "trips", "pickups"] {
        assert!(tables.contains(t), "missing {t} in: {tables}");
    }
}

#[test]
fn branch_merge_log_refs_flow() {
    let cli = Cli::new("branches");
    cli.ok(&["demo", "--rows", "2000"]);
    cli.ok(&["branch", "feat_x", "--from", "main"]);
    let refs = cli.ok(&["refs"]);
    assert!(refs.contains("feat_x"));
    // Import new data onto the branch only.
    let csv = cli.data_dir.join("zones.csv");
    std::fs::create_dir_all(&cli.data_dir).unwrap();
    std::fs::write(&csv, "zone_id,zone_name\n1,midtown\n2,soho\n").unwrap();
    cli.ok(&["import", "zones", csv.to_str().unwrap(), "-b", "feat_x"]);
    assert!(!cli.ok(&["tables", "main"]).contains("zones"));
    cli.ok(&["merge", "feat_x", "main"]);
    assert!(cli.ok(&["tables", "main"]).contains("zones"));
    let log = cli.ok(&["log", "--limit", "3"]);
    assert!(log.contains("create table zones"));
}

#[test]
fn query_explain_and_time_travel() {
    let cli = Cli::new("explain");
    cli.ok(&["demo", "--rows", "2000"]);
    let plan = cli.ok(&[
        "query",
        "-q",
        "SELECT fare FROM taxi_table WHERE fare > 10.0",
        "--explain",
    ]);
    assert!(plan.contains("Scan: taxi_table"));
    assert!(plan.contains("filters="));
    cli.ok(&["tag", "v1", "--from", "main"]);
    let out = cli.ok(&[
        "query",
        "-q",
        "SELECT COUNT(*) AS n FROM taxi_table",
        "-b",
        "v1",
    ]);
    assert!(out.contains("2000"));
}

#[test]
fn run_project_from_sql_files_with_expectations() {
    let cli = Cli::new("project");
    cli.ok(&["demo", "--rows", "3000"]);
    let project = cli.data_dir.join("models");
    std::fs::create_dir_all(&project).unwrap();
    std::fs::write(
        project.join("short_trips.sql"),
        "SELECT pickup_location_id, trip_distance FROM taxi_table WHERE trip_distance < 2.0",
    )
    .unwrap();
    std::fs::write(
        project.join("short_by_zone.sql"),
        "SELECT pickup_location_id, COUNT(*) AS n FROM short_trips \
         GROUP BY pickup_location_id ORDER BY n DESC",
    )
    .unwrap();
    std::fs::write(
        project.join("expectations.json"),
        r#"[{"name": "short_trips_expectation", "input": "short_trips",
             "check": "values_in_range", "column": "trip_distance",
             "lo": 0.0, "hi": 2.0}]"#,
    )
    .unwrap();
    let out = cli.ok(&["run", "--project", project.to_str().unwrap()]);
    assert!(
        out.contains("audit short_trips_expectation: PASSED"),
        "{out}"
    );
    assert!(out.contains("MERGED"));
    let q = cli.ok(&["query", "-q", "SELECT COUNT(*) AS n FROM short_by_zone"]);
    assert!(q.contains("(1 rows)"));
}

#[test]
fn failing_expectation_rolls_back_via_cli() {
    let cli = Cli::new("rollback");
    cli.ok(&["demo", "--rows", "2000"]);
    let project = cli.data_dir.join("bad_models");
    std::fs::create_dir_all(&project).unwrap();
    std::fs::write(project.join("t.sql"), "SELECT fare FROM taxi_table").unwrap();
    std::fs::write(
        project.join("expectations.json"),
        r#"[{"name": "t_expectation", "input": "t",
             "check": "min_row_count", "min_rows": 999999999}]"#,
    )
    .unwrap();
    let err = cli.fails(&["run", "--project", project.to_str().unwrap()]);
    assert!(err.contains("expectation"), "{err}");
    // Artifact never landed.
    assert!(!cli.ok(&["tables"]).contains("\nt\n"));
}

/// Every file under `dir` with its bytes and modification time: any write
/// shows as a changed entry.
fn files_under(dir: &Path) -> BTreeMap<PathBuf, (SystemTime, Vec<u8>)> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
            out.insert(path.clone(), (modified, std::fs::read(&path).unwrap()));
        }
    }
    out
}

#[test]
fn a_broken_leaf_fails_the_run_before_it_touches_the_lake() {
    let cli = Cli::new("broken_leaf");
    cli.ok(&["demo", "--rows", "2000"]);
    let project = cli.data_dir.join("models");
    std::fs::create_dir_all(&project).unwrap();
    std::fs::write(
        project.join("trips.sql"),
        "SELECT pickup_location_id, fare FROM taxi_table WHERE fare > 5.0",
    )
    .unwrap();
    std::fs::write(
        project.join("pickups.sql"),
        "SELECT pickup_location_id, no_such_col FROM trips",
    )
    .unwrap();
    // Hide every data file: a run that reads one fails on it instead.
    let files = files_under(&cli.data_dir);
    let data: Vec<&PathBuf> = (files.keys())
        .filter(|p| p.components().any(|c| c.as_os_str() == "data"))
        .collect();
    assert!(!data.is_empty());
    for path in &data {
        std::fs::rename(path, path.with_extension("hidden")).unwrap();
    }
    let refs = cli.ok(&["refs"]);
    let before = files_under(&cli.data_dir);

    let err = cli.fails(&["run", "--project", project.to_str().unwrap()]);
    assert!(err.contains("node 'pickups'"), "{err}");
    assert!(err.contains("no_such_col"), "{err}");
    // Nothing was written, no branch was made, no data file was missed.
    assert!(
        files_under(&cli.data_dir) == before,
        "the run wrote to the lake"
    );
    assert_eq!(cli.ok(&["refs"]), refs);

    for path in &data {
        std::fs::rename(path.with_extension("hidden"), path).unwrap();
    }
    let q = cli.ok(&["query", "-q", "SELECT COUNT(*) AS n FROM taxi_table"]);
    assert!(q.contains("2000"), "{q}");
}

#[test]
fn export_round_trip() {
    let cli = Cli::new("export");
    cli.ok(&["demo", "--rows", "1000"]);
    let out_csv = cli.data_dir.join("out.csv");
    cli.ok(&[
        "export",
        "-q",
        "SELECT pickup_location_id, counts FROM pickups ORDER BY counts DESC LIMIT 3",
        "-o",
        out_csv.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&out_csv).unwrap();
    assert!(text.starts_with("pickup_location_id,counts\n"));
    assert_eq!(text.lines().count(), 4);
}

#[test]
fn exported_table_appends_back_into_itself() {
    let cli = Cli::new("reimport");
    cli.ok(&["demo", "--rows", "1000"]);
    let out_csv = cli.data_dir.join("taxi.csv");
    let out = out_csv.to_str().unwrap();
    cli.ok(&["export", "-q", "SELECT * FROM taxi_table", "-o", out]);
    // Dates leave as ISO days and come back as DATE, not VARCHAR.
    let text = std::fs::read_to_string(&out_csv).unwrap();
    assert!(text.lines().nth(1).unwrap().contains(",2019-0"), "{text}");
    cli.ok(&["import", "taxi_table", out, "--append"]);
    let count = cli.ok(&["query", "-q", "SELECT COUNT(*) AS n FROM taxi_table"]);
    assert!(count.contains("| 2000 |"), "{count}");
    let days = "SELECT COUNT(*) AS n FROM taxi_table WHERE pickup_at >= DATE '2019-01-01'";
    assert!(cli.ok(&["query", "-q", days]).contains("| 2000 |"));
}

#[test]
fn compact_and_gc() {
    let cli = Cli::new("maint");
    cli.ok(&["demo", "--rows", "1000"]);
    // Fragment with appends via import --append.
    let csv = cli.data_dir.join("more.csv");
    std::fs::create_dir_all(&cli.data_dir).unwrap();
    // Import into a new simple table, then append twice.
    std::fs::write(&csv, "a,b\n1,x\n2,y\n").unwrap();
    cli.ok(&["import", "small", csv.to_str().unwrap()]);
    cli.ok(&["import", "small", csv.to_str().unwrap(), "--append"]);
    cli.ok(&["import", "small", csv.to_str().unwrap(), "--append"]);
    let out = cli.ok(&["compact", "small"]);
    assert!(out.contains("3 files -> 1"), "{out}");
    // GC after deleting nothing is a no-op but must succeed.
    let out = cli.ok(&["gc"]);
    assert!(out.contains("garbage-collected"));
}

#[test]
fn query_error_surfaces_cleanly() {
    let cli = Cli::new("qerr");
    cli.ok(&["demo", "--rows", "500"]);
    let err = cli.fails(&["query", "-q", "SELECT * FROM nope"]);
    assert!(err.contains("nope"), "{err}");
}
