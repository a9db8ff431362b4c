//! Fault injection: [`ChaosStore`] fails, throttles, stalls, or corrupts
//! operations on a reproducible schedule.
//!
//! One injector, two schedules, one gate in front of every operation:
//!
//! * the seeded probabilistic schedule models how object stores actually
//!   misbehave: independent transient faults, throttle *bursts* (one 503
//!   SlowDown is usually followed by more), extra latency stalls, and
//!   (opt-in) torn reads that return truncated bodies. Same seed + same
//!   operation sequence → same fault schedule, so every chaos test is
//!   replayable;
//! * [`ChaosConfig::every`] is the deterministic one: every n-th operation
//!   of a [`FaultKind`] fails. Good for pinpoint tests: "the 3rd put fails".
//!
//! Injected faults use the typed taxonomy in [`StoreError`]
//! (`Transient` / `Throttled` / torn bodies), so retry layers classify
//! them exactly like real transient failures.

use crate::error::{Result, StoreError};
use crate::path::ObjectPath;
use crate::{ObjectStore, StoreMetrics};
use bytes::Bytes;
use lakehouse_obs::Counter;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The operation classes the gate distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    /// Body reads: `get`, `get_range`. The only class torn reads apply to.
    Read,
    /// Metadata reads: `head`, `list` (and the default `exists` via `head`).
    MetaRead,
    /// Writes: `put`, `put_if_matches`, `delete`.
    Mutation,
}

/// Which operations a [`ChaosConfig::every`] schedule fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// All reads: `get`, `get_range`, `head`, `list`.
    Gets,
    /// All writes: `put`, `put_if_matches`, `delete`.
    Puts,
    All,
}

impl FaultKind {
    fn covers(self, class: OpClass) -> bool {
        match self {
            FaultKind::Gets => class != OpClass::Mutation,
            FaultKind::Puts => class == OpClass::Mutation,
            FaultKind::All => true,
        }
    }
}

/// Knobs for [`ChaosStore`]. All probabilities are per-operation and
/// default to 0 — a default config injects nothing.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// RNG seed; same seed + same op sequence → same fault schedule.
    pub seed: u64,
    /// Probability an op fails with `StoreError::Transient`.
    pub fault_p: f64,
    /// Probability an op starts a throttle burst (it and the next
    /// `throttle_burst - 1` ops fail with `Throttled`).
    pub throttle_p: f64,
    /// Ops per throttle burst (0 counts as 1).
    pub throttle_burst: u32,
    /// The `retry_after` hint attached to `Throttled` errors.
    pub throttle_retry_after: Duration,
    /// Probability an op is stalled by `stall` of extra simulated latency
    /// (charged to the inner store's metrics; the op then proceeds).
    pub stall_p: f64,
    /// Extra latency per stall.
    pub stall: Duration,
    /// Probability a body read returns a truncated payload instead of the
    /// full object (off by default; most tests want typed errors, not
    /// corruption).
    pub torn_read_p: f64,
    /// The deterministic schedule, checked before the draw: every n-th
    /// operation of a kind fails with a transient fault.
    every: Option<(FaultKind, u64)>,
}

impl ChaosConfig {
    /// No faults; durations set to realistic S3-ish values so enabling a
    /// probability knob alone behaves sensibly.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            fault_p: 0.0,
            throttle_p: 0.0,
            throttle_burst: 3,
            throttle_retry_after: Duration::from_millis(50),
            stall_p: 0.0,
            stall: Duration::from_millis(200),
            torn_read_p: 0.0,
            every: None,
        }
    }

    /// Every `period`-th operation of `kind` fails with a transient fault
    /// (period 3 → ops 3, 6, 9, …; 0 counts as 1), and nothing else is
    /// injected.
    pub fn every(kind: FaultKind, period: u64) -> ChaosConfig {
        ChaosConfig {
            every: Some((kind, period.max(1))),
            ..ChaosConfig::new(0)
        }
    }

    pub fn with_fault_p(mut self, p: f64) -> ChaosConfig {
        self.fault_p = p;
        self
    }

    pub fn with_throttle_p(mut self, p: f64) -> ChaosConfig {
        self.throttle_p = p;
        self
    }

    pub fn with_stall_p(mut self, p: f64) -> ChaosConfig {
        self.stall_p = p;
        self
    }

    pub fn with_torn_read_p(mut self, p: f64) -> ChaosConfig {
        self.torn_read_p = p;
        self
    }
}

/// What the gate does to one operation.
enum Verdict {
    Proceed,
    Fail(String),
    Throttle,
    Stall,
    Torn,
}

struct ChaosState {
    rng: StdRng,
    burst_left: u32,
    /// Operations the `every` schedule's kind has seen.
    matched: u64,
}

/// Process-wide injection counters (`chaos.*`).
struct InjectionCounters {
    faults: Arc<Counter>,
    throttles: Arc<Counter>,
    stalls: Arc<Counter>,
    torn_reads: Arc<Counter>,
}

/// The fault injector: asks its schedule about every operation (all eight
/// `ObjectStore` ops — nothing passes un-faulted) and applies the verdict
/// before delegating to the inner store.
///
/// Each decision consumes exactly one RNG draw, so the probabilistic
/// schedule is a pure function of (seed, op sequence) regardless of which
/// knobs are enabled. Determinism therefore requires a deterministic op
/// *order*: a scan that overlaps its files' requests draws in whatever order
/// its workers run, so tests that need one exact schedule scan through a
/// table without workers.
pub struct ChaosStore<S> {
    inner: S,
    cfg: ChaosConfig,
    state: Mutex<ChaosState>,
    injected: AtomicU64,
    stalls: AtomicU64,
    obs: InjectionCounters,
}

impl<S: ObjectStore> ChaosStore<S> {
    pub fn new(inner: S, mut cfg: ChaosConfig) -> ChaosStore<S> {
        cfg.throttle_burst = cfg.throttle_burst.max(1);
        let reg = lakehouse_obs::global();
        ChaosStore {
            inner,
            state: Mutex::new(ChaosState {
                rng: StdRng::seed_from_u64(cfg.seed),
                burst_left: 0,
                matched: 0,
            }),
            cfg,
            injected: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            obs: InjectionCounters {
                faults: reg.counter("chaos.faults"),
                throttles: reg.counter("chaos.throttles"),
                stalls: reg.counter("chaos.stalls"),
                torn_reads: reg.counter("chaos.torn_reads"),
            },
        }
    }

    /// Number of operations failed or corrupted so far (faults + throttles
    /// + torn reads; stalls are counted separately — the op still succeeds).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Number of operations stalled with extra latency so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn decide(&self, class: OpClass, op: &'static str) -> Verdict {
        let mut state = self.state.lock();
        if let Some((kind, period)) = self.cfg.every {
            if kind.covers(class) {
                state.matched += 1;
                if state.matched.is_multiple_of(period) {
                    let n = state.matched;
                    return Verdict::Fail(format!("injected fault on {op} (op {n})"));
                }
            }
        }
        if state.burst_left > 0 {
            state.burst_left -= 1;
            return Verdict::Throttle;
        }
        // One draw per op, cut into cumulative bands, keeps the schedule
        // stable as individual knobs are turned on and off.
        let u = state.rng.gen_range(0.0..1.0);
        let cfg = &self.cfg;
        let mut edge = cfg.fault_p;
        if u < edge {
            return Verdict::Fail(format!("injected chaos fault on {op}"));
        }
        edge += cfg.throttle_p;
        if u < edge {
            state.burst_left = cfg.throttle_burst - 1;
            return Verdict::Throttle;
        }
        edge += cfg.stall_p;
        if u < edge {
            return Verdict::Stall;
        }
        edge += cfg.torn_read_p;
        if u < edge && class == OpClass::Read {
            return Verdict::Torn;
        }
        Verdict::Proceed
    }

    /// Run the schedule for one op. `Ok(true)` means "proceed but tear the
    /// body" (only ever returned for [`OpClass::Read`]).
    fn gate(&self, class: OpClass, op: &'static str) -> Result<bool> {
        match self.decide(class, op) {
            Verdict::Proceed => Ok(false),
            Verdict::Fail(msg) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.obs.faults.inc();
                Err(StoreError::Transient(msg))
            }
            Verdict::Throttle => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.obs.throttles.inc();
                Err(StoreError::Throttled {
                    op: op.to_string(),
                    retry_after: self.cfg.throttle_retry_after,
                })
            }
            Verdict::Stall => {
                self.stalls.fetch_add(1, Ordering::Relaxed);
                self.obs.stalls.inc();
                // Simulated-clock latency only, like `SimulatedStore` in its
                // default `SleepMode::None`: the stall shows up in metrics
                // and lane accounting, not as a wall-clock sleep.
                if let Some(m) = self.inner.store_metrics() {
                    m.record_stall(self.cfg.stall);
                }
                Ok(false)
            }
            Verdict::Torn => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.obs.torn_reads.inc();
                Ok(true)
            }
        }
    }

    fn read(&self, op: &'static str, read: impl FnOnce() -> Result<Bytes>) -> Result<Bytes> {
        let torn = self.gate(OpClass::Read, op)?;
        let data = read()?;
        Ok(if torn {
            data.slice(0..data.len() / 2)
        } else {
            data
        })
    }
}

impl<S: ObjectStore> ObjectStore for ChaosStore<S> {
    fn put(&self, path: &ObjectPath, data: Bytes) -> Result<()> {
        self.gate(OpClass::Mutation, "put")?;
        self.inner.put(path, data)
    }

    fn get(&self, path: &ObjectPath) -> Result<Bytes> {
        self.read("get", || self.inner.get(path))
    }

    fn get_range(&self, path: &ObjectPath, start: usize, end: usize) -> Result<Bytes> {
        self.read("get_range", || self.inner.get_range(path, start, end))
    }

    fn head(&self, path: &ObjectPath) -> Result<usize> {
        self.gate(OpClass::MetaRead, "head")?;
        self.inner.head(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectPath>> {
        self.gate(OpClass::MetaRead, "list")?;
        self.inner.list(prefix)
    }

    fn delete(&self, path: &ObjectPath) -> Result<()> {
        self.gate(OpClass::Mutation, "delete")?;
        self.inner.delete(path)
    }

    fn put_if_matches(
        &self,
        path: &ObjectPath,
        expected: Option<&[u8]>,
        data: Bytes,
    ) -> Result<()> {
        self.gate(OpClass::Mutation, "put_if_matches")?;
        self.inner.put_if_matches(path, expected, data)
    }

    fn store_metrics(&self) -> Option<Arc<StoreMetrics>> {
        self.inner.store_metrics()
    }

    fn invalidate_corrupt(&self, path: &ObjectPath) {
        // Never faulted: corruption reporting must always reach the layers below.
        self.inner.invalidate_corrupt(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStore;

    fn p(s: &str) -> ObjectPath {
        ObjectPath::new(s).unwrap()
    }

    fn every(kind: FaultKind, period: u64) -> ChaosStore<InMemoryStore> {
        ChaosStore::new(InMemoryStore::new(), ChaosConfig::every(kind, period))
    }

    #[test]
    fn every_nth_put_fails() {
        let s = every(FaultKind::Puts, 3);
        let mut failures = 0;
        for i in 0..9 {
            if s.put(&p(&format!("k{i}")), Bytes::new()).is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 3);
        assert_eq!(s.injected(), 3);
        // Gets unaffected.
        s.put(&p("ok"), Bytes::from_static(b"v")).unwrap();
        assert!(s.get(&p("ok")).is_ok());
    }

    #[test]
    fn gets_only_mode() {
        let s = every(FaultKind::Gets, 2);
        s.put(&p("a"), Bytes::from_static(b"v")).unwrap();
        let failures = (0..4).filter(|_| s.get(&p("a")).is_err()).count();
        assert_eq!(failures, 2);
    }

    #[test]
    fn period_one_fails_everything() {
        let s = every(FaultKind::All, 1);
        assert!(s.put(&p("a"), Bytes::new()).is_err());
        assert!(s.get(&p("a")).is_err());
        // A period of 0 is clamped, not a panic.
        assert!(every(FaultKind::All, 0).get(&p("a")).is_err());
    }

    #[test]
    fn head_and_list_are_faulted_too() {
        let s = every(FaultKind::Gets, 1);
        s.put(&p("a"), Bytes::from_static(b"v")).unwrap();
        assert!(s.head(&p("a")).is_err());
        assert!(s.list("").is_err());
        // Faulted head makes the default `exists` answer false.
        assert!(!s.exists(&p("a")));
        assert_eq!(s.injected(), 3);
    }

    #[test]
    fn injected_faults_are_typed_transient() {
        let err = every(FaultKind::All, 1).get(&p("a")).unwrap_err();
        assert!(err.is_retryable(), "injected faults must be retryable");
        assert!(err.to_string().contains("injected fault"));
    }

    #[test]
    fn chaos_same_seed_same_schedule() {
        let run = |seed: u64| -> Vec<bool> {
            let cfg = ChaosConfig::new(seed).with_fault_p(0.3);
            let s = ChaosStore::new(InMemoryStore::new(), cfg);
            s.inner().put(&p("a"), Bytes::from_static(b"v")).unwrap();
            (0..64).map(|_| s.get(&p("a")).is_err()).collect()
        };
        assert_eq!(run(7), run(7), "same seed must replay the same faults");
        assert_ne!(run(7), run(8), "different seeds should diverge");
        let faults = run(7).iter().filter(|f| **f).count();
        assert!(
            (8..=32).contains(&faults),
            "p=0.3 over 64 ops should fault roughly a third, got {faults}"
        );
    }

    #[test]
    fn chaos_throttle_bursts_and_retry_after() {
        let mut cfg = ChaosConfig::new(11).with_throttle_p(0.2);
        cfg.throttle_burst = 3;
        let s = ChaosStore::new(InMemoryStore::new(), cfg);
        s.inner().put(&p("a"), Bytes::from_static(b"v")).unwrap();
        let mut throttles = 0;
        let mut run_len = 0;
        let mut max_run = 0;
        for _ in 0..200 {
            match s.get(&p("a")) {
                Err(StoreError::Throttled { retry_after, .. }) => {
                    assert_eq!(retry_after, Duration::from_millis(50));
                    throttles += 1;
                    run_len += 1;
                    max_run = max_run.max(run_len);
                }
                Ok(_) => run_len = 0,
                Err(e) => panic!("unexpected error kind: {e}"),
            }
        }
        assert!(throttles > 0, "throttle_p=0.2 over 200 ops must throttle");
        assert!(
            max_run >= 3,
            "throttles should arrive in bursts of >= 3, max run {max_run}"
        );
        // A burst of 0 is clamped to single throttles, not a panic.
        let mut cfg = ChaosConfig::new(11).with_throttle_p(1.0);
        cfg.throttle_burst = 0;
        let s = ChaosStore::new(InMemoryStore::new(), cfg);
        assert!(matches!(s.get(&p("a")), Err(StoreError::Throttled { .. })));
    }

    #[test]
    fn chaos_stall_charges_latency_but_succeeds() {
        use crate::latency::{LatencyModel, SimulatedStore};
        let cfg = ChaosConfig::new(3).with_stall_p(1.0);
        let sim = SimulatedStore::new(InMemoryStore::new(), LatencyModel::zero());
        let s = ChaosStore::new(sim, cfg);
        s.inner()
            .put(&p("a"), Bytes::from_static(b"v"))
            .expect("un-gated put");
        let before = s.store_metrics().unwrap().stall_time();
        assert!(s.get(&p("a")).is_ok(), "stalled ops still succeed");
        let after = s.store_metrics().unwrap().stall_time();
        assert_eq!(after - before, Duration::from_millis(200));
        assert_eq!(s.stalls(), 1);
        assert_eq!(s.injected(), 0, "stalls are not failures");
    }

    #[test]
    fn chaos_torn_read_truncates_body() {
        let cfg = ChaosConfig::new(5).with_torn_read_p(1.0);
        let s = ChaosStore::new(InMemoryStore::new(), cfg);
        s.inner()
            .put(&p("a"), Bytes::from_static(b"0123456789"))
            .unwrap();
        let body = s.get(&p("a")).expect("torn read still returns Ok");
        assert_eq!(body.len(), 5, "torn read returns half the body");
        // Torn reads never apply to metadata ops.
        assert_eq!(s.head(&p("a")).unwrap(), 10);
    }

    #[test]
    fn chaos_zero_config_is_transparent() {
        let s = ChaosStore::new(InMemoryStore::new(), ChaosConfig::new(42));
        for i in 0..100 {
            let path = p(&format!("k{i}"));
            s.put(&path, Bytes::from_static(b"v")).unwrap();
            assert_eq!(s.get(&path).unwrap(), Bytes::from_static(b"v"));
        }
        assert_eq!(s.injected(), 0);
        assert_eq!(s.stalls(), 0);
    }
}
