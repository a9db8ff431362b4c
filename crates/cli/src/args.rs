//! Hand-rolled argument parsing (no external CLI dependency).

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
  --shared-pool-mb <n>      cache object bytes in a process-wide verified
                            buffer pool of this capacity in MiB
                            (admission-controlled, checksummed; default:
                            0 = off; parsed table metadata is always cached)
  --trace-out <file>        write a Chrome-trace JSON (chrome://tracing /
                            Perfetto) of the command's span tree
  --retry-max <n>           retries per failed store/scan/step operation
                            (default: 0 = resilience layer off)
  --retry-budget-ms <n>     total backoff budget for store retries in
                            simulated milliseconds (default: 30000)
  --chaos-seed <n>          seed for deterministic fault injection (enables
                            the chaos layer even at --chaos-fault-p 0)
  --chaos-fault-p <p>       probability in [0,1) of injecting a transient
                            fault per store operation (default: 0)
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
  --retry-stall-budget-ms <n>
                            per-query cap on total retry backoff charged
                            before the query is killed (default: 0 = off)
  --max-concurrent-queries <n>
                            admission gate: at most this many top-level
                            queries execute at once; excess submissions
                            queue and are shed with a typed \"overloaded\"
                            error when the queue is full or they wait past
                            --queue-deadline-ms (default: 0 = no gate)
  --tenant-slots <n>        per-tenant cap on admission slots, so one
                            tenant cannot occupy the whole gate
                            (default: 0 = uncapped; needs the gate)
  --queue-cap <n>           bounded admission wait queue length; beyond it
                            submissions are shed immediately (default: 16)
  --queue-deadline-ms <n>   longest a submission may wait for admission
                            before being shed (default: 100)
  --sched-policy <p>        scheduling policy ordering the admission queue:
                            fifo (arrival order, the default), fair
                            (weighted fair share across tenants), or cost
                            (shortest-expected-cost-first with aging)
  --tenant-weight <t=w>     fair-share weight for one tenant, e.g.
                            team-a=3.0 (repeatable; unlisted tenants
                            weigh 1.0; used by --sched-policy fair)
  --pool-tenant-quota-mb <n>
                            per-tenant byte cap on the shared pool's
                            protected segment, in MiB; a tenant's misses
                            never evict another tenant's protected pages
                            (default: 0 = off; needs --shared-pool-mb)

`query -q \"EXPLAIN ANALYZE <SQL>\"` executes the query and prints the plan
annotated with per-operator rows, batches, bytes, and both clocks. `profile`
prints the full span tree plus the metrics registry grouped by subsystem.

Telemetry is queryable in SQL: `system.queries` (per-query resource
ledgers), `system.events` (the flight recorder), `system.metrics` (the
registry), and `system.pool` (the shared buffer pool), e.g.
  bauplan query -q \"SELECT query_id, io_bytes FROM system.queries \
ORDER BY io_bytes DESC LIMIT 5\"

The `run` project directory holds one .sql file per artifact (dbt-style) and
an optional expectations.json declaring data audits:
  [{\"name\": \"trips_expectation\", \"input\": \"trips\",
    \"check\": \"mean_greater_than\", \"column\": \"count\", \"threshold\": 10.0}]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    pub data_dir: String,
    /// Shared verified-buffer-pool capacity in bytes (0 = no shared pool).
    pub shared_pool_bytes: usize,
    /// Write a Chrome-trace JSON of the command's span tree here.
    pub trace_out: Option<String>,
    /// Retries per failed store/scan/step operation (0 = off).
    pub retry_max: u32,
    /// Total backoff budget for store retries, in simulated milliseconds.
    pub retry_budget_ms: u64,
    /// Seed for deterministic fault injection (None = chaos off unless
    /// `chaos_fault_p > 0`, which then uses the default seed).
    pub chaos_seed: Option<u64>,
    /// Per-operation transient-fault probability for the chaos layer.
    pub chaos_fault_p: f64,
    /// Hedge tail-slow data-file reads at the live p95 store latency.
    pub hedge_p95: bool,
    /// Tenant label stamped on this invocation's query contexts.
    pub tenant: String,
    /// Write the registry in Prometheus exposition format here afterwards.
    pub metrics_out: Option<String>,
    /// Per-query deadline in milliseconds (0 = none).
    pub query_timeout_ms: u64,
    /// Per-query peak-working-set budget in bytes (0 = off).
    pub memory_budget_bytes: u64,
    /// Per-query attributed IO byte budget, read + written (0 = off).
    pub io_budget_bytes: u64,
    /// Per-query retry-stall budget in milliseconds (0 = off).
    pub retry_stall_budget_ms: u64,
    /// Admission gate width (0 = no gate).
    pub max_concurrent_queries: usize,
    /// Per-tenant admission slot cap (0 = uncapped).
    pub tenant_slots: usize,
    /// Bounded admission wait-queue length.
    pub queue_cap: usize,
    /// Admission queue deadline in milliseconds.
    pub queue_deadline_ms: u64,
    /// Scheduling policy ordering the admission queue.
    pub sched_policy: bauplan_core::PolicyKind,
    /// Fair-share weights, `(tenant, weight)` (repeatable flag).
    pub tenant_weights: Vec<(String, f64)>,
    /// Per-tenant protected-segment quota on the shared pool, in bytes.
    pub pool_tenant_quota_bytes: usize,
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

impl Cli {
    /// Parse argv (without the program name).
    pub fn parse(argv: &[String]) -> Result<Cli, String> {
        let mut data_dir = ".bauplan".to_string();
        let mut shared_pool_bytes = 0usize;
        let mut trace_out = None;
        let mut retry_max = 0u32;
        let mut retry_budget_ms = 30_000u64;
        let mut chaos_seed = None;
        let mut chaos_fault_p = 0.0f64;
        let mut hedge_p95 = false;
        let mut tenant = "default".to_string();
        let mut metrics_out = None;
        let mut query_timeout_ms = 0u64;
        let mut memory_budget_bytes = 0u64;
        let mut io_budget_bytes = 0u64;
        let mut retry_stall_budget_ms = 0u64;
        let mut max_concurrent_queries = 0usize;
        let mut tenant_slots = 0usize;
        let mut queue_cap = 16usize;
        let mut queue_deadline_ms = 100u64;
        let mut sched_policy = bauplan_core::PolicyKind::Fifo;
        let mut tenant_weights: Vec<(String, f64)> = Vec::new();
        let mut pool_tenant_quota_bytes = 0usize;
        let mut rest: Vec<String> = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if argv[i] == "--data-dir" {
                data_dir = take_value(argv, &mut i, "--data-dir")?;
            } else if argv[i] == "--shared-pool-mb" {
                let v = take_value(argv, &mut i, "--shared-pool-mb")?;
                let mb: usize = v
                    .parse()
                    .map_err(|_| format!("--shared-pool-mb expects a number, got {v}"))?;
                shared_pool_bytes = mb.saturating_mul(1024 * 1024);
            } else if argv[i] == "--trace-out" {
                trace_out = Some(take_value(argv, &mut i, "--trace-out")?);
            } else if argv[i] == "--retry-max" {
                let v = take_value(argv, &mut i, "--retry-max")?;
                retry_max = v
                    .parse::<u32>()
                    .map_err(|_| format!("--retry-max expects a number, got {v}"))?;
            } else if argv[i] == "--retry-budget-ms" {
                let v = take_value(argv, &mut i, "--retry-budget-ms")?;
                retry_budget_ms = v
                    .parse::<u64>()
                    .map_err(|_| format!("--retry-budget-ms expects a number, got {v}"))?;
            } else if argv[i] == "--chaos-seed" {
                let v = take_value(argv, &mut i, "--chaos-seed")?;
                chaos_seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--chaos-seed expects a number, got {v}"))?,
                );
            } else if argv[i] == "--chaos-fault-p" {
                let v = take_value(argv, &mut i, "--chaos-fault-p")?;
                chaos_fault_p = v
                    .parse::<f64>()
                    .map_err(|_| format!("--chaos-fault-p expects a probability, got {v}"))?;
                if !(0.0..1.0).contains(&chaos_fault_p) {
                    return Err(format!("--chaos-fault-p must be in [0, 1), got {v}"));
                }
            } else if argv[i] == "--hedge-p95" {
                hedge_p95 = true;
            } else if argv[i] == "--tenant" {
                tenant = take_value(argv, &mut i, "--tenant")?;
            } else if argv[i] == "--metrics-out" {
                metrics_out = Some(take_value(argv, &mut i, "--metrics-out")?);
            } else if argv[i] == "--query-timeout-ms" {
                let v = take_value(argv, &mut i, "--query-timeout-ms")?;
                query_timeout_ms = v
                    .parse::<u64>()
                    .map_err(|_| format!("--query-timeout-ms expects a number, got {v}"))?;
            } else if argv[i] == "--memory-budget-mb" {
                let v = take_value(argv, &mut i, "--memory-budget-mb")?;
                let mb: u64 = v
                    .parse()
                    .map_err(|_| format!("--memory-budget-mb expects a number, got {v}"))?;
                memory_budget_bytes = mb.saturating_mul(1024 * 1024);
            } else if argv[i] == "--io-budget-mb" {
                let v = take_value(argv, &mut i, "--io-budget-mb")?;
                let mb: u64 = v
                    .parse()
                    .map_err(|_| format!("--io-budget-mb expects a number, got {v}"))?;
                io_budget_bytes = mb.saturating_mul(1024 * 1024);
            } else if argv[i] == "--retry-stall-budget-ms" {
                let v = take_value(argv, &mut i, "--retry-stall-budget-ms")?;
                retry_stall_budget_ms = v
                    .parse::<u64>()
                    .map_err(|_| format!("--retry-stall-budget-ms expects a number, got {v}"))?;
            } else if argv[i] == "--max-concurrent-queries" {
                let v = take_value(argv, &mut i, "--max-concurrent-queries")?;
                max_concurrent_queries = v
                    .parse::<usize>()
                    .map_err(|_| format!("--max-concurrent-queries expects a number, got {v}"))?;
            } else if argv[i] == "--tenant-slots" {
                let v = take_value(argv, &mut i, "--tenant-slots")?;
                tenant_slots = v
                    .parse::<usize>()
                    .map_err(|_| format!("--tenant-slots expects a number, got {v}"))?;
            } else if argv[i] == "--queue-cap" {
                let v = take_value(argv, &mut i, "--queue-cap")?;
                queue_cap = v
                    .parse::<usize>()
                    .map_err(|_| format!("--queue-cap expects a number, got {v}"))?;
            } else if argv[i] == "--queue-deadline-ms" {
                let v = take_value(argv, &mut i, "--queue-deadline-ms")?;
                queue_deadline_ms = v
                    .parse::<u64>()
                    .map_err(|_| format!("--queue-deadline-ms expects a number, got {v}"))?;
            } else if argv[i] == "--sched-policy" {
                let v = take_value(argv, &mut i, "--sched-policy")?;
                sched_policy = v
                    .parse()
                    .map_err(|_| format!("--sched-policy expects fifo, fair, or cost, got {v}"))?;
            } else if argv[i] == "--tenant-weight" {
                let v = take_value(argv, &mut i, "--tenant-weight")?;
                let (name, weight) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--tenant-weight expects name=WEIGHT, got {v}"))?;
                let weight: f64 = weight
                    .parse()
                    .map_err(|_| format!("--tenant-weight expects a numeric weight, got {v}"))?;
                if weight <= 0.0 || !weight.is_finite() {
                    return Err(format!("--tenant-weight weight must be > 0, got {v}"));
                }
                tenant_weights.push((name.to_string(), weight));
            } else if argv[i] == "--pool-tenant-quota-mb" {
                let v = take_value(argv, &mut i, "--pool-tenant-quota-mb")?;
                let mb: usize = v
                    .parse()
                    .map_err(|_| format!("--pool-tenant-quota-mb expects a number, got {v}"))?;
                pool_tenant_quota_bytes = mb.saturating_mul(1024 * 1024);
            } else {
                rest.push(argv[i].clone());
            }
            i += 1;
        }
        let Some(verb) = rest.first().cloned() else {
            return Err("missing command".into());
        };
        let args = &rest[1..];
        let command = match verb.as_str() {
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
        Ok(Cli {
            data_dir,
            shared_pool_bytes,
            trace_out,
            retry_max,
            retry_budget_ms,
            chaos_seed,
            chaos_fault_p,
            hedge_p95,
            tenant,
            metrics_out,
            query_timeout_ms,
            memory_budget_bytes,
            io_budget_bytes,
            retry_stall_budget_ms,
            max_concurrent_queries,
            tenant_slots,
            queue_cap,
            queue_deadline_ms,
            sched_policy,
            tenant_weights,
            pool_tenant_quota_bytes,
            command,
        })
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
    fn parse_scheduler_flags() {
        let cli = Cli::parse(&s(&[
            "query",
            "-q",
            "SELECT 1",
            "--sched-policy",
            "fair",
            "--tenant-weight",
            "team-a=3.0",
            "--tenant-weight",
            "team-b=1",
            "--pool-tenant-quota-mb",
            "64",
        ]))
        .unwrap();
        assert_eq!(cli.sched_policy, bauplan_core::PolicyKind::FairShare);
        assert_eq!(
            cli.tenant_weights,
            vec![("team-a".to_string(), 3.0), ("team-b".to_string(), 1.0)]
        );
        assert_eq!(cli.pool_tenant_quota_bytes, 64 * 1024 * 1024);
        let cli = Cli::parse(&s(&["refs", "--sched-policy", "cost"])).unwrap();
        assert_eq!(cli.sched_policy, bauplan_core::PolicyKind::CostAware);
        let cli = Cli::parse(&s(&["refs"])).unwrap();
        assert_eq!(cli.sched_policy, bauplan_core::PolicyKind::Fifo);
        assert!(cli.tenant_weights.is_empty());
        assert_eq!(cli.pool_tenant_quota_bytes, 0);
    }

    #[test]
    fn parse_scheduler_flags_reject_bad_values() {
        assert!(Cli::parse(&s(&["refs", "--sched-policy", "lottery"])).is_err());
        assert!(Cli::parse(&s(&["refs", "--tenant-weight", "team-a"])).is_err());
        assert!(Cli::parse(&s(&["refs", "--tenant-weight", "team-a=zero"])).is_err());
        assert!(Cli::parse(&s(&["refs", "--tenant-weight", "team-a=-2"])).is_err());
        assert!(Cli::parse(&s(&["refs", "--pool-tenant-quota-mb", "lots"])).is_err());
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

    #[test]
    fn parse_shared_pool() {
        let cli = Cli::parse(&s(&["query", "-q", "SELECT 1", "--shared-pool-mb", "64"])).unwrap();
        assert_eq!(cli.shared_pool_bytes, 64 * 1024 * 1024);
        // Default: no shared pool; garbage rejected.
        let cli = Cli::parse(&s(&["refs"])).unwrap();
        assert_eq!(cli.shared_pool_bytes, 0);
        assert!(Cli::parse(&s(&["refs", "--shared-pool-mb", "much"])).is_err());
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
        assert_eq!(cli.retry_max, 4);
        assert_eq!(cli.retry_budget_ms, 5000);
        assert_eq!(cli.chaos_seed, Some(42));
        assert_eq!(cli.chaos_fault_p, 0.1);
        // Defaults: resilience layer entirely off.
        let cli = Cli::parse(&s(&["refs"])).unwrap();
        assert_eq!(cli.retry_max, 0);
        assert_eq!(cli.retry_budget_ms, 30_000);
        assert_eq!(cli.chaos_seed, None);
        assert_eq!(cli.chaos_fault_p, 0.0);
        // Out-of-range probability and garbage rejected.
        assert!(Cli::parse(&s(&["refs", "--chaos-fault-p", "1.5"])).is_err());
        assert!(Cli::parse(&s(&["refs", "--retry-max", "some"])).is_err());
    }

    #[test]
    fn parse_hedge_flag() {
        let cli = Cli::parse(&s(&["query", "-q", "SELECT 1", "--hedge-p95"])).unwrap();
        assert!(cli.hedge_p95);
        assert!(!Cli::parse(&s(&["refs"])).unwrap().hedge_p95);
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
        assert_eq!(cli.tenant, "team-a");
        assert_eq!(cli.metrics_out.as_deref(), Some("metrics.prom"));
        // Defaults.
        let cli = Cli::parse(&s(&["refs"])).unwrap();
        assert_eq!(cli.tenant, "default");
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
            "--retry-stall-budget-ms",
            "900",
        ]))
        .unwrap();
        assert_eq!(cli.query_timeout_ms, 250);
        assert_eq!(cli.memory_budget_bytes, 64 * 1024 * 1024);
        assert_eq!(cli.io_budget_bytes, 128 * 1024 * 1024);
        assert_eq!(cli.retry_stall_budget_ms, 900);
        // Defaults: every budget off — enforcement-free, seed-identical.
        let cli = Cli::parse(&s(&["refs"])).unwrap();
        assert_eq!(cli.query_timeout_ms, 0);
        assert_eq!(cli.memory_budget_bytes, 0);
        assert_eq!(cli.io_budget_bytes, 0);
        assert_eq!(cli.retry_stall_budget_ms, 0);
        // Garbage rejected.
        assert!(Cli::parse(&s(&["refs", "--query-timeout-ms", "soon"])).is_err());
        assert!(Cli::parse(&s(&["refs", "--io-budget-mb", "lots"])).is_err());
    }

    #[test]
    fn parse_admission_flags() {
        let cli = Cli::parse(&s(&[
            "query",
            "-q",
            "SELECT 1",
            "--max-concurrent-queries",
            "4",
            "--tenant-slots",
            "2",
            "--queue-cap",
            "8",
            "--queue-deadline-ms",
            "50",
        ]))
        .unwrap();
        assert_eq!(cli.max_concurrent_queries, 4);
        assert_eq!(cli.tenant_slots, 2);
        assert_eq!(cli.queue_cap, 8);
        assert_eq!(cli.queue_deadline_ms, 50);
        // Defaults: no gate; queue knobs at their documented values.
        let cli = Cli::parse(&s(&["refs"])).unwrap();
        assert_eq!(cli.max_concurrent_queries, 0);
        assert_eq!(cli.tenant_slots, 0);
        assert_eq!(cli.queue_cap, 16);
        assert_eq!(cli.queue_deadline_ms, 100);
        // Garbage rejected.
        assert!(Cli::parse(&s(&["refs", "--max-concurrent-queries", "all"])).is_err());
        assert!(Cli::parse(&s(&["refs", "--tenant-slots"])).is_err());
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
