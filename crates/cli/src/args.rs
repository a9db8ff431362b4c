//! Hand-rolled argument parsing (no external CLI dependency).

use bauplan_core::{ChaosConfig, LakehouseConfig};

/// Usage text shown on parse errors and `bauplan help`.
pub const USAGE: &str = "\
bauplan — a serverless data lakehouse from spare parts

USAGE:
  bauplan query -q <SQL> [-b <ref>] [--explain]
  bauplan profile -q <SQL> [-b <ref>]
  bauplan metrics
  bauplan run --project <dir> [-b <branch>] [--mode naive|fused] [--detach]
  bauplan branch <name> [--from <ref>]
  bauplan tag <name> --from <ref>
  bauplan merge <from> <to>
  bauplan log [<ref>] [--limit <n>]
  bauplan refs
  bauplan tables [<ref>]
  bauplan import <table> <file.csv> [-b <branch>] [--append]
  bauplan export -q <SQL> -o <file.csv> [-b <ref>]
  bauplan compact <table> [-b <branch>]
  bauplan gc
  bauplan demo [--rows <n>]
  bauplan help

GLOBAL OPTIONS:
  --data-dir <dir>          state directory (default: .bauplan)
  --trace-out <file>        write a Chrome-trace JSON (chrome://tracing /
                            Perfetto) of the command's span tree
  --retry-max <n>           retries per failed store request, with backoff
                            (default: 0 = no retry layer)
  --retry-budget-ms <n>     total backoff budget for store retries in
                            simulated milliseconds (default: 30000)
  --chaos-seed <n>          seed for deterministic fault injection (enables
                            the chaos layer, even at fault probability 0)
  --chaos-fault-p <p>       probability in [0,1) of injecting a transient
                            fault per store operation (also enables the
                            chaos layer, with a fixed seed)
  --hedge-p95               hedge tail-slow data-file reads at the live
                            p95 store latency (first completion wins;
                            win-rate circuit breaker backs hedging off
                            when the store is globally slow)
  --tenant <name>           tenant label stamped on query contexts: shows
                            up in per-query ledgers, flight-recorder
                            events, and system.queries (default: default)
  --metrics-out <file>      after the command, write the metrics registry
                            in Prometheus text exposition format here
                            (`bauplan metrics` prints it to stdout)
  --query-timeout-ms <n>    per-query deadline: wall time plus attributed
                            retry stall, after which the query's cancel
                            token trips and it aborts with a typed
                            \"query killed (deadline)\" error (default: 0 =
                            no deadline; Ctrl-C always cancels)
  --memory-budget-mb <n>    per-query cap on the executor's peak working
                            set, in MiB (default: 0 = off)
  --io-budget-mb <n>        per-query attributed object-store byte budget,
                            read + written, in MiB (default: 0 = off)

`query -q \"EXPLAIN ANALYZE <SQL>\"` executes the query and prints the plan
annotated with per-operator rows, batches, bytes, and both clocks. `profile`
prints the full span tree plus the metrics registry grouped by subsystem.

Telemetry is queryable in SQL: `system.queries` (per-query resource
ledgers), `system.events` (the flight recorder) and `system.metrics` (the
registry), e.g.
  bauplan query -q \"SELECT query_id, io_bytes FROM system.queries \
ORDER BY io_bytes DESC LIMIT 5\"

The `run` project directory holds one .sql file per artifact (dbt-style) and
an optional expectations.json declaring data audits:
  [{\"name\": \"trips_expectation\", \"input\": \"trips\",
    \"check\": \"mean_greater_than\", \"column\": \"count\", \"threshold\": 10.0}]";

/// Parsed command line: what the global options filled in, and the command.
#[derive(Debug)]
pub struct Cli {
    pub data_dir: String,
    /// Write a Chrome-trace JSON of the command's span tree here.
    pub trace_out: Option<String>,
    /// Write the registry in Prometheus exposition format here afterwards.
    pub metrics_out: Option<String>,
    /// The lakehouse to open: the defaults, as the global options changed
    /// them.
    pub config: LakehouseConfig,
    pub command: Command,
}

/// Sub-commands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Query {
        sql: String,
        reference: String,
        explain: bool,
    },
    Profile {
        sql: String,
        reference: String,
    },
    /// Print the metrics registry in Prometheus text exposition format.
    Metrics,
    Run {
        project_dir: String,
        branch: String,
        mode: Option<String>,
        detach: bool,
    },
    Branch {
        name: String,
        from: Option<String>,
    },
    Tag {
        name: String,
        from: String,
    },
    Merge {
        from: String,
        to: String,
    },
    Log {
        reference: String,
        limit: usize,
    },
    Refs,
    Tables {
        reference: String,
    },
    Import {
        table: String,
        file: String,
        branch: String,
        append: bool,
    },
    Export {
        sql: String,
        output: String,
        reference: String,
    },
    Compact {
        table: String,
        branch: String,
    },
    Gc,
    Demo {
        rows: usize,
    },
    Help,
}

/// What a global option does with the command line being built.
enum Global {
    /// A bare switch.
    Switch(fn(&mut Cli)),
    /// An option with one value; `Err` says what it expected instead.
    Value(fn(&mut Cli, &str) -> Result<(), &'static str>),
}
use Global::{Switch, Value};

/// Store a parsed value, or pass on what the parser expected instead.
fn set<T>(slot: &mut T, parsed: Result<T, &'static str>) -> Result<(), &'static str> {
    *slot = parsed?;
    Ok(())
}

fn text(v: &str) -> Result<String, &'static str> {
    Ok(v.to_string())
}

fn number<T: std::str::FromStr>(v: &str) -> Result<T, &'static str> {
    v.parse().map_err(|_| "a number")
}

/// A size given in MiB, in bytes.
fn mib(v: &str) -> Result<u64, &'static str> {
    Ok(number::<u64>(v)?.saturating_mul(1024 * 1024))
}

fn probability(v: &str) -> Result<f64, &'static str> {
    let expected = "a probability in [0, 1)";
    let p: f64 = v.parse().map_err(|_| expected)?;
    (0.0..1.0).contains(&p).then_some(p).ok_or(expected)
}

/// The chaos layer, which either chaos flag arms (with this seed by default).
fn chaos(cli: &mut Cli) -> &mut ChaosConfig {
    cli.config
        .chaos
        .get_or_insert_with(|| ChaosConfig::new(0xC4A05))
}

/// Every global option — flag, value parser, where the value goes. They
/// parse anywhere on the line, straight into the [`Cli`] (most of them into
/// its `config`).
#[rustfmt::skip]
const GLOBALS: &[(&str, Global)] = &[
    ("--data-dir", Value(|cli, v| set(&mut cli.data_dir, text(v)))),
    ("--trace-out", Value(|cli, v| set(&mut cli.trace_out, text(v).map(Some)))),
    ("--retry-max", Value(|cli, v| set(&mut cli.config.retry_max, number(v)))),
    ("--retry-budget-ms", Value(|cli, v| set(&mut cli.config.retry_budget_ms, number(v)))),
    ("--chaos-seed", Value(|cli, v| set(&mut chaos(cli).seed, number(v)))),
    ("--chaos-fault-p", Value(|cli, v| set(&mut chaos(cli).fault_p, probability(v)))),
    ("--hedge-p95", Switch(|cli| cli.config.hedge_p95 = true)),
    ("--tenant", Value(|cli, v| set(&mut cli.config.tenant, text(v)))),
    ("--metrics-out", Value(|cli, v| set(&mut cli.metrics_out, text(v).map(Some)))),
    ("--query-timeout-ms", Value(|cli, v| set(&mut cli.config.query_timeout_ms, number(v)))),
    ("--memory-budget-mb", Value(|cli, v| set(&mut cli.config.memory_budget_bytes, mib(v)))),
    ("--io-budget-mb", Value(|cli, v| set(&mut cli.config.io_budget_bytes, mib(v)))),
];

impl Cli {
    /// Parse argv (without the program name).
    pub fn parse(argv: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            data_dir: ".bauplan".to_string(),
            trace_out: None,
            metrics_out: None,
            config: LakehouseConfig::default(),
            command: Command::Help,
        };
        let mut rest: Vec<String> = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            match GLOBALS.iter().find(|(flag, _)| *flag == argv[i]) {
                Some((_, Switch(apply))) => apply(&mut cli),
                Some((flag, Value(apply))) => {
                    let v = take_value(argv, &mut i, flag)?;
                    apply(&mut cli, &v)
                        .map_err(|what| format!("{flag} expects {what}, got {v}"))?;
                }
                None => rest.push(argv[i].clone()),
            }
            i += 1;
        }
        let Some(verb) = rest.first().cloned() else {
            return Err("missing command".into());
        };
        let args = &rest[1..];
        cli.command = match verb.as_str() {
            "query" => parse_query(args)?,
            "profile" => parse_profile(args)?,
            "metrics" => Command::Metrics,
            "run" => parse_run(args)?,
            "branch" => parse_branch(args)?,
            "tag" => parse_tag(args)?,
            "merge" => parse_merge(args)?,
            "log" => parse_log(args)?,
            "refs" => Command::Refs,
            "tables" => Command::Tables {
                reference: args.first().cloned().unwrap_or_else(|| "main".into()),
            },
            "compact" => {
                let table = args.first().cloned().ok_or("compact requires <table>")?;
                let mut branch = "main".to_string();
                let mut i = 1;
                while i < args.len() {
                    match args[i].as_str() {
                        "-b" | "--branch" => branch = take_value(args, &mut i, "-b")?,
                        other => return Err(format!("unexpected argument: {other}")),
                    }
                    i += 1;
                }
                Command::Compact { table, branch }
            }
            "gc" => Command::Gc,
            "import" => parse_import(args)?,
            "export" => parse_export(args)?,
            "demo" => parse_demo(args)?,
            "help" | "--help" | "-h" => Command::Help,
            other => return Err(format!("unknown command: {other}")),
        };
        Ok(cli)
    }
}

fn take_value(argv: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    argv.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn parse_query(args: &[String]) -> Result<Command, String> {
    let mut sql = None;
    let mut reference = "main".to_string();
    let mut explain = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-q" | "--query" => sql = Some(take_value(args, &mut i, "-q")?),
            "-b" | "--branch" => reference = take_value(args, &mut i, "-b")?,
            "--explain" => explain = true,
            other => return Err(format!("unexpected argument: {other}")),
        }
        i += 1;
    }
    Ok(Command::Query {
        sql: sql.ok_or("query requires -q <SQL>")?,
        reference,
        explain,
    })
}

fn parse_profile(args: &[String]) -> Result<Command, String> {
    let mut sql = None;
    let mut reference = "main".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-q" | "--query" => sql = Some(take_value(args, &mut i, "-q")?),
            "-b" | "--branch" => reference = take_value(args, &mut i, "-b")?,
            other => return Err(format!("unexpected argument: {other}")),
        }
        i += 1;
    }
    Ok(Command::Profile {
        sql: sql.ok_or("profile requires -q <SQL>")?,
        reference,
    })
}

fn parse_run(args: &[String]) -> Result<Command, String> {
    let mut project_dir = None;
    let mut branch = "main".to_string();
    let mut mode = None;
    let mut detach = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--project" | "-p" => project_dir = Some(take_value(args, &mut i, "--project")?),
            "-b" | "--branch" => branch = take_value(args, &mut i, "-b")?,
            "--mode" => {
                let m = take_value(args, &mut i, "--mode")?;
                if m != "naive" && m != "fused" {
                    return Err(format!("--mode must be naive or fused, got {m}"));
                }
                mode = Some(m);
            }
            "--detach" => detach = true,
            other => return Err(format!("unexpected argument: {other}")),
        }
        i += 1;
    }
    Ok(Command::Run {
        project_dir: project_dir.ok_or("run requires --project <dir>")?,
        branch,
        mode,
        detach,
    })
}

fn parse_branch(args: &[String]) -> Result<Command, String> {
    let name = args.first().cloned().ok_or("branch requires a name")?;
    let mut from = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--from" => from = Some(take_value(args, &mut i, "--from")?),
            other => return Err(format!("unexpected argument: {other}")),
        }
        i += 1;
    }
    Ok(Command::Branch { name, from })
}

fn parse_tag(args: &[String]) -> Result<Command, String> {
    let name = args.first().cloned().ok_or("tag requires a name")?;
    let mut from = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--from" => from = Some(take_value(args, &mut i, "--from")?),
            other => return Err(format!("unexpected argument: {other}")),
        }
        i += 1;
    }
    Ok(Command::Tag {
        name,
        from: from.ok_or("tag requires --from <ref>")?,
    })
}

fn parse_merge(args: &[String]) -> Result<Command, String> {
    match args {
        [from, to] => Ok(Command::Merge {
            from: from.clone(),
            to: to.clone(),
        }),
        _ => Err("merge requires <from> <to>".into()),
    }
}

fn parse_log(args: &[String]) -> Result<Command, String> {
    let mut reference = "main".to_string();
    let mut limit = 20;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--limit" => {
                limit = take_value(args, &mut i, "--limit")?
                    .parse()
                    .map_err(|_| "--limit must be an integer".to_string())?;
            }
            other if !other.starts_with('-') => reference = other.to_string(),
            other => return Err(format!("unexpected argument: {other}")),
        }
        i += 1;
    }
    Ok(Command::Log { reference, limit })
}

fn parse_import(args: &[String]) -> Result<Command, String> {
    let table = args.first().cloned().ok_or("import requires <table>")?;
    let file = args.get(1).cloned().ok_or("import requires <file.csv>")?;
    let mut branch = "main".to_string();
    let mut append = false;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "-b" | "--branch" => branch = take_value(args, &mut i, "-b")?,
            "--append" => append = true,
            other => return Err(format!("unexpected argument: {other}")),
        }
        i += 1;
    }
    Ok(Command::Import {
        table,
        file,
        branch,
        append,
    })
}

fn parse_export(args: &[String]) -> Result<Command, String> {
    let mut sql = None;
    let mut output = None;
    let mut reference = "main".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-q" | "--query" => sql = Some(take_value(args, &mut i, "-q")?),
            "-o" | "--output" => output = Some(take_value(args, &mut i, "-o")?),
            "-b" | "--branch" => reference = take_value(args, &mut i, "-b")?,
            other => return Err(format!("unexpected argument: {other}")),
        }
        i += 1;
    }
    Ok(Command::Export {
        sql: sql.ok_or("export requires -q <SQL>")?,
        output: output.ok_or("export requires -o <file.csv>")?,
        reference,
    })
}

fn parse_demo(args: &[String]) -> Result<Command, String> {
    let mut rows = 50_000;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rows" => {
                rows = take_value(args, &mut i, "--rows")?
                    .parse()
                    .map_err(|_| "--rows must be an integer".to_string())?;
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
        i += 1;
    }
    Ok(Command::Demo { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_query_full() {
        let cli = Cli::parse(&s(&[
            "query",
            "-q",
            "SELECT 1",
            "-b",
            "feat_1",
            "--explain",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Query {
                sql: "SELECT 1".into(),
                reference: "feat_1".into(),
                explain: true
            }
        );
        assert_eq!(cli.data_dir, ".bauplan");
    }

    #[test]
    fn parse_global_data_dir_anywhere() {
        let cli = Cli::parse(&s(&["--data-dir", "/tmp/x", "refs"])).unwrap();
        assert_eq!(cli.data_dir, "/tmp/x");
        let cli = Cli::parse(&s(&["refs", "--data-dir", "/tmp/y"])).unwrap();
        assert_eq!(cli.data_dir, "/tmp/y");
    }

    #[test]
    fn retired_io_knobs_are_rejected() {
        // Metadata caching and overlapped fetch are always on; their flags
        // are gone rather than ignored.
        for flag in [
            "--scan-parallelism",
            "--cache-mb",
            "--io-depth",
            "--read-ahead",
        ] {
            let argv = s(&["query", "-q", "SELECT 1", flag, "8"]);
            assert!(Cli::parse(&argv).is_err(), "{flag}");
        }
    }

    /// `flag <value>` is not an option of the CLI any more.
    fn rejected(flag: &str, value: &str) -> bool {
        Cli::parse(&s(&["query", "-q", "SELECT 1", flag, value])).is_err()
    }

    #[test]
    fn parse_admission_flags() {
        // A one-shot process with one thread never contends for a gate: the
        // flags that sized one are gone rather than ignored, and the CLI
        // opens its lakehouse without a gate.
        for flag in [
            "--max-concurrent-queries",
            "--tenant-slots",
            "--queue-cap",
            "--queue-deadline-ms",
        ] {
            assert!(rejected(flag, "4"), "{flag}");
        }
        assert!(Cli::parse(&s(&["refs"]))
            .unwrap()
            .config
            .admission
            .is_none());
    }

    #[test]
    fn parse_scheduler_flags() {
        // The gate admits in arrival order: no order, weight or tenant
        // quota is a setting.
        assert!(rejected("--sched-policy", "fair"));
        assert!(rejected("--tenant-weight", "team-a=3.0"));
        assert!(rejected("--pool-tenant-quota-mb", "64"));
    }

    #[test]
    fn parse_shared_pool() {
        // The byte pool is gone: its flag is rejected rather than ignored.
        assert!(rejected("--shared-pool-mb", "64"));
        assert!(rejected("--shared-pool-mb", "0"));
    }

    #[test]
    fn parse_stream_flags() {
        // One executor runs every statement in the provider's own batches:
        // the flags that chose it and sized its batches are gone rather
        // than ignored.
        for flags in [&["--stream"][..], &["--batch-rows", "512"]] {
            let argv = [&s(&["query", "-q", "SELECT 1"])[..], &s(flags)].concat();
            assert!(Cli::parse(&argv).is_err(), "{flags:?}");
        }
    }

    #[test]
    fn parse_run_modes() {
        let cli = Cli::parse(&s(&["run", "--project", "p", "--mode", "naive"])).unwrap();
        assert!(matches!(cli.command, Command::Run { mode: Some(ref m), .. } if m == "naive"));
        assert!(Cli::parse(&s(&["run", "--project", "p", "--mode", "warp"])).is_err());
        assert!(Cli::parse(&s(&["run"])).is_err());
    }

    #[test]
    fn parse_branch_and_merge() {
        let cli = Cli::parse(&s(&["branch", "feat_1", "--from", "main"])).unwrap();
        assert_eq!(
            cli.command,
            Command::Branch {
                name: "feat_1".into(),
                from: Some("main".into())
            }
        );
        let cli = Cli::parse(&s(&["merge", "feat_1", "main"])).unwrap();
        assert_eq!(
            cli.command,
            Command::Merge {
                from: "feat_1".into(),
                to: "main".into()
            }
        );
        assert!(Cli::parse(&s(&["merge", "only-one"])).is_err());
    }

    #[test]
    fn parse_log_and_tables() {
        let cli = Cli::parse(&s(&["log", "feat_1", "--limit", "5"])).unwrap();
        assert_eq!(
            cli.command,
            Command::Log {
                reference: "feat_1".into(),
                limit: 5
            }
        );
        let cli = Cli::parse(&s(&["tables"])).unwrap();
        assert_eq!(
            cli.command,
            Command::Tables {
                reference: "main".into()
            }
        );
    }

    #[test]
    fn parse_profile_and_trace_out() {
        let cli = Cli::parse(&s(&["profile", "-q", "SELECT 1", "-b", "dev"])).unwrap();
        assert_eq!(
            cli.command,
            Command::Profile {
                sql: "SELECT 1".into(),
                reference: "dev".into()
            }
        );
        assert_eq!(cli.trace_out, None);
        assert!(Cli::parse(&s(&["profile"])).is_err());

        // --trace-out is global: works on query too, anywhere on the line.
        let cli = Cli::parse(&s(&[
            "query",
            "-q",
            "SELECT 1",
            "--trace-out",
            "trace.json",
        ]))
        .unwrap();
        assert_eq!(cli.trace_out.as_deref(), Some("trace.json"));
        assert!(Cli::parse(&s(&["profile", "-q", "SELECT 1", "--trace-out"])).is_err());
    }

    #[test]
    fn parse_resilience_flags() {
        let cli = Cli::parse(&s(&[
            "query",
            "-q",
            "SELECT 1",
            "--retry-max",
            "4",
            "--retry-budget-ms",
            "5000",
            "--chaos-seed",
            "42",
            "--chaos-fault-p",
            "0.1",
        ]))
        .unwrap();
        assert_eq!(cli.config.retry_max, 4);
        assert_eq!(cli.config.retry_budget_ms, 5000);
        let chaos = cli.config.chaos.expect("chaos armed");
        assert_eq!((chaos.seed, chaos.fault_p), (42, 0.1));
        // Either chaos flag arms the layer, in either order.
        let cli = Cli::parse(&s(&["refs", "--chaos-fault-p", "0.2"])).unwrap();
        assert_eq!(cli.config.chaos.expect("armed by fault-p").fault_p, 0.2);
        let cli = Cli::parse(&s(&["refs", "--chaos-fault-p", "0.2", "--chaos-seed", "7"]));
        let chaos = cli.unwrap().config.chaos.expect("armed");
        assert_eq!((chaos.seed, chaos.fault_p), (7, 0.2));
        let cli = Cli::parse(&s(&["refs", "--chaos-seed", "7"])).unwrap();
        assert_eq!(cli.config.chaos.expect("armed by seed").fault_p, 0.0);
        // Defaults: resilience layer entirely off.
        let cli = Cli::parse(&s(&["refs"])).unwrap();
        assert_eq!(cli.config.retry_max, 0);
        assert_eq!(cli.config.retry_budget_ms, 30_000);
        assert!(cli.config.chaos.is_none());
        // Out-of-range probability and garbage rejected, naming the flag.
        let err = Cli::parse(&s(&["refs", "--chaos-fault-p", "1.5"])).unwrap_err();
        assert_eq!(
            err,
            "--chaos-fault-p expects a probability in [0, 1), got 1.5"
        );
        let err = Cli::parse(&s(&["refs", "--retry-max", "some"])).unwrap_err();
        assert_eq!(err, "--retry-max expects a number, got some");
    }

    #[test]
    fn parse_hedge_flag() {
        let cli = Cli::parse(&s(&["query", "-q", "SELECT 1", "--hedge-p95"])).unwrap();
        assert!(cli.config.hedge_p95);
        assert!(!Cli::parse(&s(&["refs"])).unwrap().config.hedge_p95);
    }

    #[test]
    fn parse_telemetry_flags() {
        let cli = Cli::parse(&s(&[
            "query",
            "-q",
            "SELECT 1",
            "--tenant",
            "team-a",
            "--metrics-out",
            "metrics.prom",
        ]))
        .unwrap();
        assert_eq!(cli.config.tenant, "team-a");
        assert_eq!(cli.metrics_out.as_deref(), Some("metrics.prom"));
        // Defaults.
        let cli = Cli::parse(&s(&["refs"])).unwrap();
        assert_eq!(cli.config.tenant, "default");
        assert_eq!(cli.metrics_out, None);
        // The metrics verb takes no arguments.
        let cli = Cli::parse(&s(&["metrics"])).unwrap();
        assert_eq!(cli.command, Command::Metrics);
        assert!(Cli::parse(&s(&["refs", "--tenant"])).is_err());
    }

    #[test]
    fn parse_budget_flags() {
        let cli = Cli::parse(&s(&[
            "query",
            "-q",
            "SELECT 1",
            "--query-timeout-ms",
            "250",
            "--memory-budget-mb",
            "64",
            "--io-budget-mb",
            "128",
        ]))
        .unwrap();
        assert_eq!(cli.config.query_timeout_ms, 250);
        assert_eq!(cli.config.memory_budget_bytes, 64 * 1024 * 1024);
        assert_eq!(cli.config.io_budget_bytes, 128 * 1024 * 1024);
        // Defaults: every budget off — enforcement-free, seed-identical.
        let cli = Cli::parse(&s(&["refs"])).unwrap();
        assert_eq!(cli.config.query_timeout_ms, 0);
        assert_eq!(cli.config.memory_budget_bytes, 0);
        assert_eq!(cli.config.io_budget_bytes, 0);
        // The deadline already counts retry stall: its own budget is gone.
        assert!(rejected("--retry-stall-budget-ms", "900"));
        // Garbage rejected.
        assert!(Cli::parse(&s(&["refs", "--query-timeout-ms", "soon"])).is_err());
        assert!(Cli::parse(&s(&["refs", "--io-budget-mb", "lots"])).is_err());
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(Cli::parse(&s(&["frobnicate"])).is_err());
        assert!(Cli::parse(&[]).is_err());
    }

    #[test]
    fn parse_import_export() {
        let cli = Cli::parse(&s(&[
            "import",
            "trips",
            "trips.csv",
            "-b",
            "feat",
            "--append",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Import {
                table: "trips".into(),
                file: "trips.csv".into(),
                branch: "feat".into(),
                append: true
            }
        );
        let cli = Cli::parse(&s(&["export", "-q", "SELECT 1", "-o", "out.csv"])).unwrap();
        assert_eq!(
            cli.command,
            Command::Export {
                sql: "SELECT 1".into(),
                output: "out.csv".into(),
                reference: "main".into()
            }
        );
        assert!(Cli::parse(&s(&["import", "only-table"])).is_err());
        assert!(Cli::parse(&s(&["export", "-q", "SELECT 1"])).is_err());
    }

    #[test]
    fn help_parses() {
        assert_eq!(Cli::parse(&s(&["help"])).unwrap().command, Command::Help);
    }
}
