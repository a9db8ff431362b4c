//! Fault injection: store wrappers that fail, throttle, stall, or corrupt
//! operations on a reproducible schedule.
//!
//! Two injectors share one gate ([`FaultingStore`] + [`FaultDecider`]):
//!
//! * [`FlakyStore`] — the deterministic periodic injector (every N-th
//!   matching op fails). Good for pinpoint tests: "the 3rd put fails".
//! * [`ChaosStore`] — a seeded probabilistic injector modeling how object
//!   stores actually misbehave: independent transient faults, throttle
//!   *bursts* (one 503 SlowDown is usually followed by more), extra
//!   latency stalls, and (opt-in) torn reads that return truncated bodies.
//!   Same seed + same operation sequence → same fault schedule, so every
//!   chaos test is replayable.
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

/// The operation classes a fault decider distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Body reads: `get`, `get_range`. The only class torn reads apply to.
    Read,
    /// Metadata reads: `head`, `list` (and the default `exists` via `head`).
    MetaRead,
    /// Writes: `put`, `put_if_matches`, `delete`.
    Mutation,
}

/// What to do to one operation, decided before it reaches the inner store.
#[derive(Debug)]
pub enum FaultVerdict {
    /// Pass through untouched.
    Proceed,
    /// Fail with this error; the inner store is not called.
    Fail(StoreError),
    /// Fail with `StoreError::Throttled { retry_after }`.
    Throttle(Duration),
    /// Proceed, but charge this much extra simulated latency first.
    Stall(Duration),
    /// Proceed, but truncate the returned body (body reads only).
    Torn,
}

/// A pluggable fault schedule. Implementations must be deterministic for a
/// given construction + operation sequence.
pub trait FaultDecider: Send + Sync {
    fn decide(&self, class: OpClass, op: &'static str) -> FaultVerdict;
}

/// Which operations a [`FlakyStore`] injects failures into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// All reads: `get`, `get_range`, `head`, `list`.
    Gets,
    /// All writes: `put`, `put_if_matches`, `delete`.
    Puts,
    All,
}

/// Deterministic periodic schedule: every `period`-th matching operation
/// fails with a transient error (period = 3 → ops 3, 6, 9... fail).
#[derive(Debug)]
pub struct PeriodicFaults {
    kind: FaultKind,
    period: u64,
    counter: AtomicU64,
}

impl PeriodicFaults {
    pub fn new(kind: FaultKind, period: u64) -> PeriodicFaults {
        assert!(period > 0, "period must be >= 1");
        PeriodicFaults {
            kind,
            period,
            counter: AtomicU64::new(0),
        }
    }
}

impl FaultDecider for PeriodicFaults {
    fn decide(&self, class: OpClass, op: &'static str) -> FaultVerdict {
        let applies = match self.kind {
            FaultKind::Gets => matches!(class, OpClass::Read | OpClass::MetaRead),
            FaultKind::Puts => class == OpClass::Mutation,
            FaultKind::All => true,
        };
        if !applies {
            return FaultVerdict::Proceed;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.period) {
            FaultVerdict::Fail(StoreError::Transient(format!(
                "injected fault on {op} (op {n})"
            )))
        } else {
            FaultVerdict::Proceed
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
    /// Ops per throttle burst (>= 1).
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

#[derive(Debug)]
struct ChaosState {
    rng: StdRng,
    burst_left: u32,
}

/// Seeded probabilistic schedule; see [`ChaosConfig`] for the knobs.
///
/// Each decision consumes exactly one RNG draw, so the schedule is a pure
/// function of (seed, op sequence) regardless of which knobs are enabled.
/// Determinism therefore requires a deterministic op *order*: a scan that
/// overlaps its files' requests draws in whatever order its workers run, so
/// tests that need one exact schedule scan through a table without workers.
#[derive(Debug)]
pub struct ChaosDecider {
    cfg: ChaosConfig,
    state: Mutex<ChaosState>,
}

impl ChaosDecider {
    pub fn new(cfg: ChaosConfig) -> ChaosDecider {
        assert!(cfg.throttle_burst >= 1, "throttle_burst must be >= 1");
        let rng = StdRng::seed_from_u64(cfg.seed);
        ChaosDecider {
            cfg,
            state: Mutex::new(ChaosState { rng, burst_left: 0 }),
        }
    }
}

impl FaultDecider for ChaosDecider {
    fn decide(&self, class: OpClass, op: &'static str) -> FaultVerdict {
        let mut state = self.state.lock();
        if state.burst_left > 0 {
            state.burst_left -= 1;
            return FaultVerdict::Throttle(self.cfg.throttle_retry_after);
        }
        // One draw per op, cut into cumulative bands, keeps the schedule
        // stable as individual knobs are turned on and off.
        let u = state.rng.gen_range(0.0..1.0);
        let mut edge = self.cfg.fault_p;
        if u < edge {
            return FaultVerdict::Fail(StoreError::Transient(format!(
                "injected chaos fault on {op}"
            )));
        }
        edge += self.cfg.throttle_p;
        if u < edge {
            state.burst_left = self.cfg.throttle_burst - 1;
            return FaultVerdict::Throttle(self.cfg.throttle_retry_after);
        }
        edge += self.cfg.stall_p;
        if u < edge {
            return FaultVerdict::Stall(self.cfg.stall);
        }
        edge += self.cfg.torn_read_p;
        if u < edge && class == OpClass::Read {
            return FaultVerdict::Torn;
        }
        FaultVerdict::Proceed
    }
}

/// Process-wide counters shared by every injector instance.
#[derive(Debug)]
struct InjectionCounters {
    faults: Arc<Counter>,
    throttles: Arc<Counter>,
    stalls: Arc<Counter>,
    torn_reads: Arc<Counter>,
}

impl InjectionCounters {
    fn register() -> InjectionCounters {
        let reg = lakehouse_obs::global();
        InjectionCounters {
            faults: reg.counter("chaos.faults"),
            throttles: reg.counter("chaos.throttles"),
            stalls: reg.counter("chaos.stalls"),
            torn_reads: reg.counter("chaos.torn_reads"),
        }
    }
}

/// The shared injection gate: asks its [`FaultDecider`] about every
/// operation (all eight `ObjectStore` ops — nothing passes un-faulted) and
/// applies the verdict before delegating to the inner store.
pub struct FaultingStore<S, D> {
    inner: S,
    decider: D,
    injected: AtomicU64,
    stalls: AtomicU64,
    obs: InjectionCounters,
}

/// Deterministic periodic fault injector (see [`PeriodicFaults`]).
pub type FlakyStore<S> = FaultingStore<S, PeriodicFaults>;

/// Seeded probabilistic fault injector (see [`ChaosDecider`]).
pub type ChaosStore<S> = FaultingStore<S, ChaosDecider>;

impl<S: ObjectStore> FlakyStore<S> {
    pub fn new(inner: S, kind: FaultKind, period: u64) -> FlakyStore<S> {
        FaultingStore::with_decider(inner, PeriodicFaults::new(kind, period))
    }
}

impl<S: ObjectStore> ChaosStore<S> {
    pub fn new(inner: S, cfg: ChaosConfig) -> ChaosStore<S> {
        FaultingStore::with_decider(inner, ChaosDecider::new(cfg))
    }
}

impl<S: ObjectStore, D: FaultDecider> FaultingStore<S, D> {
    pub fn with_decider(inner: S, decider: D) -> FaultingStore<S, D> {
        FaultingStore {
            inner,
            decider,
            injected: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            obs: InjectionCounters::register(),
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

    /// Run the decider for one op. `Ok(true)` means "proceed but tear the
    /// body" (only ever returned for [`OpClass::Read`]).
    fn gate(&self, class: OpClass, op: &'static str) -> Result<bool> {
        match self.decider.decide(class, op) {
            FaultVerdict::Proceed => Ok(false),
            FaultVerdict::Fail(e) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.obs.faults.inc();
                Err(e)
            }
            FaultVerdict::Throttle(retry_after) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.obs.throttles.inc();
                Err(StoreError::Throttled {
                    op: op.to_string(),
                    retry_after,
                })
            }
            FaultVerdict::Stall(extra) => {
                self.stalls.fetch_add(1, Ordering::Relaxed);
                self.obs.stalls.inc();
                // Simulated-clock latency only, like `SimulatedStore` in its
                // default `SleepMode::None`: the stall shows up in metrics
                // and lane accounting, not as a wall-clock sleep.
                if let Some(m) = self.inner.store_metrics() {
                    m.record_stall(extra);
                }
                Ok(false)
            }
            FaultVerdict::Torn => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.obs.torn_reads.inc();
                Ok(true)
            }
        }
    }
}

impl<S: ObjectStore, D: FaultDecider> ObjectStore for FaultingStore<S, D> {
    fn put(&self, path: &ObjectPath, data: Bytes) -> Result<()> {
        self.gate(OpClass::Mutation, "put")?;
        self.inner.put(path, data)
    }

    fn get(&self, path: &ObjectPath) -> Result<Bytes> {
        let torn = self.gate(OpClass::Read, "get")?;
        let data = self.inner.get(path)?;
        if torn {
            let keep = data.len() / 2;
            return Ok(data.slice(0..keep));
        }
        Ok(data)
    }

    fn get_range(&self, path: &ObjectPath, start: usize, end: usize) -> Result<Bytes> {
        let torn = self.gate(OpClass::Read, "get_range")?;
        let data = self.inner.get_range(path, start, end)?;
        if torn {
            let keep = data.len() / 2;
            return Ok(data.slice(0..keep));
        }
        Ok(data)
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
        // Never faulted: corruption reporting must always reach the cache.
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

    #[test]
    fn every_nth_put_fails() {
        let s = FlakyStore::new(InMemoryStore::new(), FaultKind::Puts, 3);
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
        let s = FlakyStore::new(InMemoryStore::new(), FaultKind::Gets, 2);
        s.put(&p("a"), Bytes::from_static(b"v")).unwrap();
        let mut failures = 0;
        for _ in 0..4 {
            if s.get(&p("a")).is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 2);
    }

    #[test]
    fn period_one_fails_everything() {
        let s = FlakyStore::new(InMemoryStore::new(), FaultKind::All, 1);
        assert!(s.put(&p("a"), Bytes::new()).is_err());
        assert!(s.get(&p("a")).is_err());
    }

    #[test]
    fn head_and_list_are_faulted_too() {
        let s = FlakyStore::new(InMemoryStore::new(), FaultKind::Gets, 1);
        s.put(&p("a"), Bytes::from_static(b"v")).unwrap();
        assert!(s.head(&p("a")).is_err());
        assert!(s.list("").is_err());
        // Faulted head makes the default `exists` answer false.
        assert!(!s.exists(&p("a")));
        assert_eq!(s.injected(), 3);
    }

    #[test]
    fn injected_faults_are_typed_transient() {
        let s = FlakyStore::new(InMemoryStore::new(), FaultKind::All, 1);
        let err = s.get(&p("a")).unwrap_err();
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
