//! What every workload hands back, and the helpers they share.

use crate::probes::Metrics;
use crate::replay::ReadReplay;
use crate::stats::{median, percentile, tail_quantile};
use crate::trace::{Span, SpanIndex};
use crate::Res;
use lakehouse_columnar::csv::write_csv;
use lakehouse_columnar::RecordBatch;
use serde::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Rows of `taxi_table` (`ingest_cycle` starts from 0.3 × this).
    pub rows: usize,
    pub out_dir: PathBuf,
}

/// Full set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Run `setup` [`SETUPS`] times, dropping each state before building the
/// next, and keep the last.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((state.expect("SETUPS > 0"), times))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CSV bytes per row of `batch`, measured on its first 20 000 rows: the
/// "user bytes" that `stored_bytes_per_user_byte` divides by.
pub fn csv_bytes_per_row(batch: &RecordBatch) -> Res<f64> {
    let sample = batch.slice(0, batch.num_rows().min(20_000))?;
    Ok(write_csv(&sample).len() as f64 / sample.num_rows() as f64)
}

/// Counts failed or wrong operations and remembers the first few reasons.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checker {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason.into());
        }
    }

    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(reason());
        }
    }
}

/// One repetition of a fixed piece of work: 8 runs, a block of 40 queries, an
/// ingest cycle. Blocks of a workload are alike in composition, so their
/// statistics can be compared and the disturbed ones set aside.
pub struct Block {
    /// Wall per user-facing call: run, query, `append_table`.
    pub wall_ms: Vec<f64>,
    /// Whole units of work in the block (runs, queries, 1 cycle) and the
    /// wall time inside their façade calls.
    pub units: u64,
    pub unit_wall_ms: f64,
}

/// How `ops_per_s` is formed from the blocks.
pub enum Throughput {
    /// Blocks do the same work: the rate of the quietest block.
    QuietBlocks,
    /// Blocks grow (each ingest cycle compacts a bigger table): all units
    /// over all façade time.
    WholeRun,
}

/// The untraced pass: samples and counts behind the end-to-end metrics.
///
/// The box this runs on slows down by up to half for seconds at a time, and a
/// slow phase lifts every call in it; measured noise is one-sided. So latency
/// is summarised per block (median and tail percentile of the block's
/// calls), and the reported value is that of the quietest block: best of N,
/// the same rule on both sides of a comparison.
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub blocks: Vec<Block>,
    /// Modelled latency of the workload's first user-facing calls, as many
    /// as the tail percentile's minimum sample count (no noise to reject:
    /// their mean is reported, and repeats exactly for a seed).
    pub sim_ms: Vec<f64>,
    /// The percentile `wall_ms_tail` reports for this workload.
    pub tail_q: f64,
    pub throughput: Throughput,
    pub stored_bytes_per_user_byte: f64,
    /// `VmHWM`, reset after set-up and read at a fixed operation count, so
    /// that a faster build, which gets more done in the time box, is not
    /// charged for it.
    pub peak_rss_mb: f64,
    pub checker: Checker,
    pub notes: Vec<(String, Json)>,
}

/// The quietest block's value of a lower-is-better statistic.
fn quietest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

impl E2e {
    pub fn metrics(&self) -> Res<(Metrics, Vec<(String, Json)>)> {
        let samples: usize = self.blocks.iter().map(|b| b.wall_ms.len()).sum();
        if self.tail_q > tail_quantile(samples) + 1e-12 {
            return Err(format!(
                "{samples} samples leave fewer than 10 beyond p{}",
                self.tail_q * 100.0
            )
            .into());
        }
        let per_block = |q: f64| {
            self.blocks.iter().map(move |b| {
                let mut sorted = b.wall_ms.clone();
                sorted.sort_by(f64::total_cmp);
                percentile(&sorted, q)
            })
        };
        let ops_per_s = match self.throughput {
            Throughput::QuietBlocks => {
                1e3 / quietest(self.blocks.iter().map(|b| b.unit_wall_ms / b.units as f64))
            }
            Throughput::WholeRun => {
                self.blocks.iter().map(|b| b.units).sum::<u64>() as f64
                    / (self.blocks.iter().map(|b| b.unit_wall_ms).sum::<f64>() / 1e3)
            }
        };
        let mut m = Metrics::new();
        m.insert("setup_s".into(), median(&self.setup_s));
        m.insert("ops_per_s".into(), ops_per_s);
        m.insert("wall_ms_p50".into(), quietest(per_block(0.5)));
        m.insert("wall_ms_tail".into(), quietest(per_block(self.tail_q)));
        m.insert(
            "sim_ms_per_op".into(),
            self.sim_ms.iter().sum::<f64>() / self.sim_ms.len() as f64,
        );
        m.insert(
            "stored_bytes_per_user_byte".into(),
            self.stored_bytes_per_user_byte,
        );
        m.insert("peak_rss_mb".into(), self.peak_rss_mb);
        let mut notes = vec![
            ("blocks".to_string(), Json::U64(self.blocks.len() as u64)),
            ("wall_samples".to_string(), Json::U64(samples as u64)),
            (
                "wall_tail_percentile".to_string(),
                Json::F64(self.tail_q * 100.0),
            ),
            (
                "percentile_rule".to_string(),
                Json::Str(
                    "percentile fixed per workload, taken per block, quietest block \
                     reported; the run continues until 10 samples in all lie beyond it"
                        .into(),
                ),
            ),
            (
                "units".to_string(),
                Json::U64(self.blocks.iter().map(|b| b.units).sum()),
            ),
            ("setups".to_string(), Json::U64(self.setup_s.len() as u64)),
        ];
        notes.extend(self.notes.iter().cloned());
        Ok((m, notes))
    }
}

/// Reset the kernel's record of this process's peak resident set, so that
/// what is read later is the peak of the timed window (plus whatever set-up
/// left resident), not of set-up's transients. Best effort.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A numeric field of `/proc/self/status`, e.g. `"Threads:"`.
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> Res<f64> {
    let kb = proc_status("VmHWM:").ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// One sampled façade call of the traced pass.
#[derive(Default)]
pub struct TracedOp {
    /// The façade span: its store children are the call's store traffic.
    pub facade: u32,
    /// Part of the sampled pass whose store traffic is counted per unit; a
    /// call made only to be replayed is not.
    pub in_pass: bool,
    /// Replay steps that add up to the attributed time (empty: not replayed).
    pub steps: Vec<u32>,
    /// Spans inside the steps that only the replay pays for.
    pub replay_only: Vec<u32>,
    pub scans: Vec<u32>,
    pub decodes: Vec<u32>,
}

/// The traced pass: façade calls with recording off and on, their replays,
/// and the pruning counters the replays' scans reported.
#[derive(Default)]
pub struct Traced {
    pub ops: Vec<TracedOp>,
    /// Wall of the user-facing calls with recording off, then on.
    pub plain_wall_ms: Vec<f64>,
    pub traced_wall_ms: Vec<f64>,
    /// Units the store counts are divided by (runs, queries, cycles).
    pub units: usize,
    pub sim_ms: f64,
    pub files_scanned: usize,
    pub files_total: usize,
    pub bytes_scanned: u64,
    pub bytes_total: u64,
    pub checker: Checker,
}

impl Traced {
    /// Book a façade call that was replayed as a read: its step spans and
    /// the pruning counters its scans reported.
    pub fn record_read(&mut self, facade: u32, in_pass: bool, read: ReadReplay) {
        self.files_scanned += read.files_scanned;
        self.files_total += read.files_total;
        self.bytes_scanned += read.bytes_scanned;
        self.bytes_total += read.bytes_total;
        self.ops.push(TracedOp {
            facade,
            in_pass,
            steps: read.steps,
            replay_only: read.replay_only,
            scans: read.scans,
            decodes: read.decodes,
        });
    }

    /// The per-layer metrics that come from the workload's own operations.
    pub fn metrics(&self, spans: &[Span], m: &mut Metrics) {
        let idx = SpanIndex::new(spans);
        let units = self.units.max(1) as f64;
        let pass = || self.ops.iter().filter(|op| op.in_pass);
        let calls: Vec<&Span> = pass()
            .flat_map(|op| idx.children(op.facade))
            .filter(|s| s.layer == "store")
            .collect();
        let count = |pred: &dyn Fn(&Span) -> bool| -> f64 {
            calls.iter().filter(|s| pred(s)).count() as f64 / units
        };
        let op_is = |s: &Span, op: &str| s.name.split('.').next() == Some(op);
        let bytes = |op: &str| -> f64 {
            calls
                .iter()
                .filter(|s| op_is(s, op))
                .fold(0.0, |sum, s| sum + s.bytes as f64)
                / units
        };
        m.insert("store.gets_per_op".into(), count(&|s| op_is(s, "get")));
        m.insert("store.puts_per_op".into(), count(&|s| op_is(s, "put")));
        m.insert(
            "store.lists_per_op".into(),
            count(&|s| op_is(s, "list") || op_is(s, "head")),
        );
        m.insert(
            "store.deletes_per_op".into(),
            count(&|s| op_is(s, "delete")),
        );
        m.insert(
            "store.data_gets_per_op".into(),
            count(&|s| s.name == "get.data"),
        );
        m.insert(
            "store.meta_gets_per_op".into(),
            count(&|s| s.name == "get.meta"),
        );
        m.insert(
            "store.catalog_gets_per_op".into(),
            count(&|s| s.name == "get.catalog"),
        );
        m.insert("store.bytes_read_per_op".into(), bytes("get"));
        m.insert("store.bytes_written_per_op".into(), bytes("put"));
        let facade_ms: f64 = pass().map(|o| idx.get(o.facade).dur_ms()).sum();
        let busy_ms: f64 = pass()
            .map(|o| idx.store_busy_ns(o.facade) as f64 / 1e6)
            .sum();
        m.insert("store.busy_ms_per_op".into(), busy_ms / units);
        m.insert("store.busy_share_pct".into(), 100.0 * busy_ms / facade_ms);
        m.insert("store.sim_ms_per_op".into(), self.sim_ms / units);

        let replayed: Vec<&TracedOp> = self.ops.iter().filter(|o| !o.steps.is_empty()).collect();
        let n = replayed.len().max(1) as f64;
        let dur = |ids: &[u32]| ids.iter().map(|id| idx.get(*id).dur_ms()).sum::<f64>();
        let own = |ids: &[u32]| {
            ids.iter()
                .map(|id| idx.self_ns(*id) as f64 / 1e6)
                .sum::<f64>()
        };
        let scan_self: f64 = replayed.iter().map(|o| own(&o.scans)).sum();
        let decode_self: f64 = replayed.iter().map(|o| own(&o.decodes)).sum();
        let scanning = replayed
            .iter()
            .filter(|o| !o.scans.is_empty())
            .count()
            .max(1) as f64;
        m.insert("table.scan_ms_per_op".into(), scan_self / scanning);
        m.insert(
            "table.scan_overhead_ms_per_op".into(),
            (scan_self - decode_self) / scanning,
        );
        m.insert(
            "table.files_scanned_frac".into(),
            self.files_scanned as f64 / self.files_total.max(1) as f64,
        );
        m.insert(
            "table.bytes_scanned_frac".into(),
            self.bytes_scanned as f64 / self.bytes_total.max(1) as f64,
        );
        let facade: f64 = replayed.iter().map(|o| idx.get(o.facade).dur_ms()).sum();
        let attributed: f64 = replayed
            .iter()
            .map(|o| dur(&o.steps) - dur(&o.replay_only))
            .sum();
        m.insert(
            "core.unattributed_ms_per_op".into(),
            (facade - attributed) / n,
        );
        m.insert(
            "core.unattributed_pct".into(),
            100.0 * (facade - attributed) / facade,
        );
        m.insert(
            "trace.overhead_pct".into(),
            100.0 * (median(&self.traced_wall_ms) / median(&self.plain_wall_ms) - 1.0),
        );
    }
}
