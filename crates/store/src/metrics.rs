//! Counters for object-store activity, including accumulated *simulated*
//! latency — the deterministic alternative to wall-clock sleeping.
//!
//! Besides the totals, simulated latency is also accumulated **per thread**
//! (a "lane"). Total simulated time models a serial execution; when K
//! worker threads issue requests concurrently, the overlapped wall clock of
//! the fan-out is the *maximum* of the worker lane deltas, which parallel
//! scans report alongside the serial total (see `lakehouse-table`).

use lakehouse_obs::{Counter, Histogram};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

/// Cap on retained latency samples. Percentiles are exact until the cap is
/// reached, then computed over a uniform reservoir — long runs no longer grow
/// the sample buffer without bound.
const RESERVOIR_CAP: usize = 4096;

/// Bounded uniform sample of operation latencies (Vitter's algorithm R with
/// a deterministic xorshift stream, so simulated runs stay reproducible).
#[derive(Debug)]
struct Reservoir {
    samples: Vec<Duration>,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    fn new() -> Reservoir {
        Reservoir {
            samples: Vec::new(),
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn push(&mut self, v: Duration) {
        self.seen += 1;
        if self.samples.len() < RESERVOIR_CAP {
            self.samples.push(v);
        } else {
            let j = self.next_u64() % self.seen;
            if (j as usize) < RESERVOIR_CAP {
                self.samples[j as usize] = v;
            }
        }
    }

    fn clear(&mut self) {
        self.samples.clear();
        self.seen = 0;
    }
}

/// Process-wide registry handles this instance also publishes into (atomic
/// adds only — the registry lock is taken once, at construction).
#[derive(Debug)]
struct GlobalHandles {
    gets: Arc<Counter>,
    puts: Arc<Counter>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    op_nanos: Arc<Histogram>,
}

impl GlobalHandles {
    fn register() -> GlobalHandles {
        let reg = lakehouse_obs::global();
        GlobalHandles {
            gets: reg.counter("store.gets"),
            puts: reg.counter("store.puts"),
            bytes_read: reg.counter("store.bytes_read"),
            bytes_written: reg.counter("store.bytes_written"),
            op_nanos: reg.histogram("store.op_nanos"),
        }
    }
}

/// Thread-safe counters for one store instance.
#[derive(Debug)]
pub struct StoreMetrics {
    gets: AtomicU64,
    puts: AtomicU64,
    lists: AtomicU64,
    deletes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    simulated_nanos: AtomicU64,
    stall_nanos: AtomicU64,
    /// Wall seconds slept per simulated second (f64 bits): 0.0 under
    /// `SleepMode::None`, the factor under `Scaled`, 1.0 under `Real`. Set
    /// by the simulated store that owns these metrics; read by anything that
    /// must convert simulated durations into real waits (stall sleeping
    /// below, hedge timers in `crate::io`).
    wall_scale_bits: AtomicU64,
    /// Simulated nanos charged per calling thread (lane accounting).
    lanes: Mutex<HashMap<ThreadId, u64>>,
    /// Bounded reservoir of per-operation simulated latencies (percentiles).
    samples: Mutex<Reservoir>,
    global: GlobalHandles,
}

impl Default for StoreMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreMetrics {
    pub fn new() -> Self {
        StoreMetrics {
            gets: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            lists: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            simulated_nanos: AtomicU64::new(0),
            stall_nanos: AtomicU64::new(0),
            wall_scale_bits: AtomicU64::new(0.0f64.to_bits()),
            lanes: Mutex::new(HashMap::new()),
            samples: Mutex::new(Reservoir::new()),
            global: GlobalHandles::register(),
        }
    }

    pub(crate) fn record_get(&self, bytes: usize, latency: Duration) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
        self.global.gets.inc();
        self.global.bytes_read.add(bytes as u64);
        lakehouse_obs::ctx::charge(|l| l.add_io_read(bytes as u64));
        lakehouse_obs::recorder().record(lakehouse_obs::EventKind::StoreOp, "get", bytes as u64);
        self.record_latency(latency);
    }

    pub(crate) fn record_put(&self, bytes: usize, latency: Duration) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.global.puts.inc();
        self.global.bytes_written.add(bytes as u64);
        lakehouse_obs::ctx::charge(|l| l.add_io_write(bytes as u64));
        lakehouse_obs::recorder().record(lakehouse_obs::EventKind::StoreOp, "put", bytes as u64);
        self.record_latency(latency);
    }

    pub(crate) fn record_list(&self, latency: Duration) {
        self.lists.fetch_add(1, Ordering::Relaxed);
        self.record_latency(latency);
    }

    pub(crate) fn record_delete(&self, latency: Duration) {
        self.deletes.fetch_add(1, Ordering::Relaxed);
        self.record_latency(latency);
    }

    fn record_latency(&self, latency: Duration) {
        let nanos = latency.as_nanos() as u64;
        self.simulated_nanos.fetch_add(nanos, Ordering::Relaxed);
        *self
            .lanes
            .lock()
            .entry(std::thread::current().id())
            .or_insert(0) += nanos;
        self.samples.lock().push(latency);
        self.global.op_nanos.record(nanos);
    }

    /// Charge simulated time that is *not* an operation: retry backoff and
    /// injected throttle stalls. Adds to the simulated total and the calling
    /// thread's lane (so overlapped wall-clock accounting stays honest) but
    /// records no op count and no latency sample — per-op percentiles keep
    /// measuring store service time, not client-side waiting.
    pub fn record_stall(&self, stall: Duration) {
        let nanos = stall.as_nanos() as u64;
        self.stall_nanos.fetch_add(nanos, Ordering::Relaxed);
        lakehouse_obs::ctx::charge(|l| l.add_retry_stall_nanos(nanos));
        self.simulated_nanos.fetch_add(nanos, Ordering::Relaxed);
        *self
            .lanes
            .lock()
            .entry(std::thread::current().id())
            .or_insert(0) += nanos;
        // When the owning store really sleeps its latency, stalls sleep too
        // — otherwise injected throttles/stalls would be invisible to wall
        // clocks while ordinary ops block, skewing any real-time measurement
        // (and hiding exactly the tail hedged reads exist to cut).
        let scale = self.wall_scale();
        if scale > 0.0 {
            std::thread::sleep(stall.mul_f64(scale));
        }
    }

    /// Set the wall-seconds-per-simulated-second factor (see
    /// [`wall_scale`](Self::wall_scale)). Called by the simulated store when
    /// its sleep mode is configured.
    pub fn set_wall_scale(&self, scale: f64) {
        self.wall_scale_bits
            .store(scale.max(0.0).to_bits(), Ordering::Relaxed);
    }

    /// How many wall seconds the owning store sleeps per simulated second:
    /// 0.0 means charged time never blocks (pure bookkeeping), 1.0 means
    /// real-time sleeping. Lets latency-sensitive layers (hedge timers)
    /// convert simulated percentiles into real waits.
    pub fn wall_scale(&self) -> f64 {
        f64::from_bits(self.wall_scale_bits.load(Ordering::Relaxed))
    }

    pub fn gets(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }
    pub fn lists(&self) -> u64 {
        self.lists.load(Ordering::Relaxed)
    }
    pub fn deletes(&self) -> u64 {
        self.deletes.load(Ordering::Relaxed)
    }
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Total simulated latency accumulated across all operations.
    pub fn simulated_time(&self) -> Duration {
        Duration::from_nanos(self.simulated_nanos.load(Ordering::Relaxed))
    }

    /// Simulated time spent stalled (retry backoff, throttle waits); a
    /// subset of [`simulated_time`](Self::simulated_time).
    pub fn stall_time(&self) -> Duration {
        Duration::from_nanos(self.stall_nanos.load(Ordering::Relaxed))
    }

    /// Simulated latency charged by the *calling thread* so far. Sampling
    /// this before and after a section gives the section's serial latency on
    /// this lane; the max of the deltas across K concurrent worker threads
    /// is the section's overlapped wall clock.
    pub fn lane_nanos(&self) -> u64 {
        self.lanes
            .lock()
            .get(&std::thread::current().id())
            .copied()
            .unwrap_or(0)
    }

    /// Latency percentile (0.0..=1.0) over recorded operations, if any.
    /// Exact until `RESERVOIR_CAP` (4 096) operations, then over a uniform
    /// sample.
    pub fn latency_percentile(&self, q: f64) -> Option<Duration> {
        let mut samples = self.samples.lock().samples.clone();
        if samples.is_empty() {
            return None;
        }
        samples.sort();
        let idx = ((samples.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        Some(samples[idx])
    }

    /// Reset all counters.
    pub fn reset(&self) {
        self.gets.store(0, Ordering::Relaxed);
        self.puts.store(0, Ordering::Relaxed);
        self.lists.store(0, Ordering::Relaxed);
        self.deletes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.simulated_nanos.store(0, Ordering::Relaxed);
        self.stall_nanos.store(0, Ordering::Relaxed);
        self.lanes.lock().clear();
        self.samples.lock().clear();
    }
}

#[cfg(test)]
mod reservoir_tests {
    use super::*;

    #[test]
    fn reservoir_stays_bounded_and_representative() {
        let m = StoreMetrics::new();
        for i in 0..(RESERVOIR_CAP as u64 * 4) {
            m.record_get(1, Duration::from_nanos(i + 1));
        }
        let held = m.samples.lock().samples.len();
        assert_eq!(held, RESERVOIR_CAP, "reservoir must cap retained samples");
        // Percentiles still track the underlying distribution (uniform
        // 1..=4*CAP nanos): the median of a uniform reservoir stays near the
        // true median.
        let p50 = m.latency_percentile(0.5).unwrap().as_nanos() as f64;
        let true_median = (RESERVOIR_CAP * 4) as f64 / 2.0;
        assert!(
            (p50 - true_median).abs() / true_median < 0.25,
            "reservoir median {p50} drifted from true median {true_median}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = StoreMetrics::new();
        m.record_get(100, Duration::from_millis(10));
        m.record_put(50, Duration::from_millis(20));
        m.record_list(Duration::from_millis(5));
        m.record_delete(Duration::from_millis(1));
        assert_eq!(m.gets(), 1);
        assert_eq!(m.puts(), 1);
        assert_eq!(m.lists(), 1);
        assert_eq!(m.deletes(), 1);
        assert_eq!(m.bytes_read(), 100);
        assert_eq!(m.bytes_written(), 50);
        assert_eq!(m.simulated_time(), Duration::from_millis(36));
    }

    #[test]
    fn percentiles() {
        let m = StoreMetrics::new();
        for ms in [1u64, 2, 3, 4, 100] {
            m.record_get(0, Duration::from_millis(ms));
        }
        assert_eq!(m.latency_percentile(0.5), Some(Duration::from_millis(3)));
        assert_eq!(m.latency_percentile(1.0), Some(Duration::from_millis(100)));
    }

    #[test]
    fn empty_percentile_none() {
        assert_eq!(StoreMetrics::new().latency_percentile(0.5), None);
    }

    #[test]
    fn reset_zeros() {
        let m = StoreMetrics::new();
        m.record_get(10, Duration::from_millis(1));
        m.reset();
        assert_eq!(m.gets(), 0);
        assert_eq!(m.simulated_time(), Duration::ZERO);
        assert_eq!(m.latency_percentile(0.5), None);
        assert_eq!(m.lane_nanos(), 0);
    }

    #[test]
    fn wall_scale_defaults_to_zero_and_survives_reset() {
        let m = StoreMetrics::new();
        assert_eq!(m.wall_scale(), 0.0);
        m.set_wall_scale(0.25);
        m.reset();
        // Configuration, not a counter: reset leaves it alone.
        assert_eq!(m.wall_scale(), 0.25);
    }

    #[test]
    fn stall_sleeps_only_when_scaled() {
        let m = StoreMetrics::new();
        let t = std::time::Instant::now();
        m.record_stall(Duration::from_millis(200));
        assert!(
            t.elapsed() < Duration::from_millis(50),
            "scale 0 must not sleep"
        );
        m.set_wall_scale(0.05);
        let t = std::time::Instant::now();
        m.record_stall(Duration::from_millis(200));
        assert!(
            t.elapsed() >= Duration::from_millis(10),
            "scaled stall must sleep"
        );
        assert_eq!(m.stall_time(), Duration::from_millis(400));
    }

    #[test]
    fn lanes_track_per_thread_latency() {
        let m = StoreMetrics::new();
        m.record_get(1, Duration::from_millis(10));
        assert_eq!(m.lane_nanos(), 10_000_000);

        // Two worker threads each charge their own lane; the total is the
        // serial sum while each lane sees only its own share.
        let lanes: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let m = &m;
                    scope.spawn(move || {
                        m.record_get(1, Duration::from_millis(5 * (i + 1)));
                        m.lane_nanos()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(lanes.contains(&5_000_000) && lanes.contains(&10_000_000));
        // Main lane unchanged by workers.
        assert_eq!(m.lane_nanos(), 10_000_000);
        assert_eq!(m.simulated_time(), Duration::from_millis(25));
    }
}
