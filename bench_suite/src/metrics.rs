//! The metric ledger: every name the suite prints, with its unit, direction
//! and — for end-to-end metrics — the regression bound. `BENCHMARK.json` is
//! generated from these tables (`--emit-benchmark-json`), and a unit test
//! keeps the committed file in step with them.

use serde::Json;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

pub const RUN_SECONDS: u64 = 12;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench_suite/Cargo.toml",
    "--",
];

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "taxi_run",
        "the paper's three-node pipeline as warm fused runs: planner, runtime start-up model, artifact writes and SQL all on the blocking path",
    ),
    (
        "query_mix",
        "power-law mix of eight query classes on an in-memory store that never waits: wall time is plan, metadata, decode, kernels and operators",
    ),
    (
        "query_mix_s3",
        "the same queries on a store that really blocks for each modelled S3 round trip: wall time is store wait, the bypass side of query_mix",
    ),
    (
        "ingest_cycle",
        "branch, append, merge, compact, expire and gc on the local-filesystem store: the write side of every layer the read workloads use",
    ),
];

pub const END_TO_END: [Def; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("wall_ms_p50", "ms", "lower", 0.25),
    e2e("wall_ms_tail", "ms", "lower", 0.25),
    e2e("sim_ms_per_op", "ms", "lower", 0.08),
    e2e("stored_bytes_per_user_byte", "ratio", "lower", 0.02),
    e2e("peak_rss_mb", "MB", "lower", 0.20),
];

pub const PER_LAYER: [Def; 64] = [
    layer("store.gets_per_op", "count", "lower"),
    layer("store.puts_per_op", "count", "lower"),
    layer("store.lists_per_op", "count", "lower"),
    layer("store.deletes_per_op", "count", "lower"),
    layer("store.bytes_read_per_op", "bytes", "lower"),
    layer("store.bytes_written_per_op", "bytes", "lower"),
    layer("store.data_gets_per_op", "count", "lower"),
    layer("store.meta_gets_per_op", "count", "lower"),
    layer("store.catalog_gets_per_op", "count", "lower"),
    layer("store.busy_ms_per_op", "ms", "lower"),
    layer("store.busy_share_pct", "%", "lower"),
    layer("store.sim_ms_per_op", "ms", "lower"),
    layer("table.load_ms", "ms", "lower"),
    layer("table.scan_ms_per_op", "ms", "lower"),
    layer("table.scan_overhead_ms_per_op", "ms", "lower"),
    layer("table.files_scanned_frac", "ratio", "lower"),
    layer("table.bytes_scanned_frac", "ratio", "lower"),
    layer("table.append_commit_ms", "ms", "lower"),
    layer("table.compact_ms_per_mrow", "ms", "lower"),
    layer("table.expire_ms", "ms", "lower"),
    layer("format.decode_mb_s", "MB/s", "higher"),
    layer("format.decode_ns_per_row", "ns", "lower"),
    layer("format.encode_mb_s", "MB/s", "higher"),
    layer("format.encode_ns_per_row", "ns", "lower"),
    layer("format.footer_parse_us", "us", "lower"),
    layer("format.bytes_per_row", "bytes", "lower"),
    layer("checksum.crc32c_mb_s", "MB/s", "higher"),
    layer("columnar.filter_ns_per_row", "ns", "lower"),
    layer("columnar.dict_filter_ns_per_row", "ns", "lower"),
    layer("columnar.group_agg_ns_per_row", "ns", "lower"),
    layer("columnar.hash_ns_per_row", "ns", "lower"),
    layer("columnar.sort_ns_per_row", "ns", "lower"),
    layer("columnar.take_ns_per_row", "ns", "lower"),
    layer("columnar.csv_parse_mb_s", "MB/s", "higher"),
    layer("sql.parse_us", "us", "lower"),
    layer("sql.plan_us", "us", "lower"),
    layer("sql.exec_mem_ms_per_op", "ms", "lower"),
    layer("sql.exec_mem_ms.point_count", "ms", "lower"),
    layer("sql.exec_mem_ms.range_agg", "ms", "lower"),
    layer("sql.exec_mem_ms.between_agg", "ms", "lower"),
    layer("sql.exec_mem_ms.dict_group", "ms", "lower"),
    layer("sql.exec_mem_ms.dict_filter_topk", "ms", "lower"),
    layer("sql.exec_mem_ms.join_dim", "ms", "lower"),
    layer("sql.exec_mem_ms.topk_sort", "ms", "lower"),
    layer("sql.exec_mem_ms.peek_limit", "ms", "lower"),
    layer("catalog.resolve_us", "us", "lower"),
    layer("catalog.get_content_us", "us", "lower"),
    layer("catalog.commit_ms", "ms", "lower"),
    layer("catalog.branch_merge_ms", "ms", "lower"),
    layer("catalog.gc_ms", "ms", "lower"),
    layer("planner.plan_us", "us", "lower"),
    layer("planner.stages_fused", "count", "lower"),
    layer("planner.stages_naive", "count", "lower"),
    layer("planner.fusion_speedup_sim", "ratio", "higher"),
    layer("runtime.startup_sim_ms_per_run", "ms", "lower"),
    layer("runtime.cold_run_sim_ms", "ms", "lower"),
    layer("runtime.cold_starts", "count", "lower"),
    layer("runtime.warm_starts", "count", "higher"),
    layer("runtime.resume_starts", "count", "higher"),
    layer("core.run_sql_ms", "ms", "lower"),
    layer("core.run_materialize_ms", "ms", "lower"),
    layer("core.unattributed_ms_per_op", "ms", "lower"),
    layer("core.unattributed_pct", "%", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
];

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

/// The contract file, exactly as committed at the repository root.
pub fn benchmark_json() -> Json {
    obj(vec![
        ("command", Json::Arr(COMMAND.iter().map(|c| s(c)).collect())),
        ("paths", Json::Arr(vec![s("bench_suite")])),
        ("run_seconds", Json::U64(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| obj(vec![("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("name", s(d.name)),
                            ("unit", s(d.unit)),
                            ("better", s(d.better)),
                            ("bound", Json::F64(d.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("name", s(d.name)),
                            ("unit", s(d.unit)),
                            ("better", s(d.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_ledger() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = serde_json::parse(&committed).expect("valid JSON");
        // Compared as text: the parser reads small integers back as signed.
        let text = |j: &Json| serde_json::to_string_pretty(j).expect("serializable");
        assert!(
            text(&committed) == text(&benchmark_json()),
            "BENCHMARK.json is out of step with src/metrics.rs: regenerate it with --emit-benchmark-json"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(d.unit.len() <= 16 && matches!(d.better, "lower" | "higher"));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
