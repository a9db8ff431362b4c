//! Retry layer: exponential backoff with decorrelated jitter and a bounded
//! retry budget over any [`ObjectStore`].
//!
//! [`RetryStore`] retries operations whose error is
//! [`StoreError::is_retryable`] (transient faults and throttles).
//! Backoff waits are *simulated*: each delay is charged to the inner
//! store's [`StoreMetrics`] via `record_stall`, so retried runs report
//! honest latency totals deterministically instead of wall-clock sleeping
//! — the same trick `SimulatedStore` uses for S3 latency itself.
//!
//! The jitter strategy is "decorrelated jitter" (each delay is drawn
//! uniformly from `[base, prev * 3]`, capped), which spreads concurrent
//! retriers apart instead of letting them stampede in synchronized waves.
//! The RNG is seeded, so a serial op sequence replays identically.

use crate::error::{Result, StoreError};
use crate::path::ObjectPath;
use crate::{ObjectStore, StoreMetrics};
use bytes::Bytes;
use lakehouse_obs::{Counter, Histogram};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning for [`RetryStore`] (and, via [`Backoff`], the catalog's CAS
/// loop). The defaults model a patient S3 client: 4 retries, 25 ms base
/// backoff capped at 2 s, 30 s of total backoff budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries per operation after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Lower bound of every backoff delay.
    pub base_backoff: Duration,
    /// Upper bound of every backoff delay.
    pub max_backoff: Duration,
    /// Total backoff the store may accumulate across *all* operations
    /// before it stops retrying — bounds worst-case added latency for a
    /// whole query the way a per-request retry cap cannot.
    pub budget: Duration,
    /// Seed for the jitter RNG.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            budget: Duration::from_secs(30),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    pub fn with_max_retries(mut self, n: u32) -> RetryPolicy {
        self.max_retries = n;
        self
    }

    pub fn with_budget(mut self, budget: Duration) -> RetryPolicy {
        self.budget = budget;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }
}

/// Decorrelated-jitter delay sequence: `delay[n] = min(cap,
/// uniform(base, delay[n-1] * 3))`, starting from `base`. Reusable by any
/// retry loop (the catalog's CAS commit uses it directly).
#[derive(Debug)]
pub struct Backoff {
    rng: StdRng,
    base: Duration,
    cap: Duration,
    prev: Duration,
}

impl Backoff {
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        let base = base.max(Duration::from_nanos(1));
        Backoff {
            rng: StdRng::seed_from_u64(seed),
            base,
            cap: cap.max(base),
            prev: base,
        }
    }

    /// The next delay in the sequence.
    pub fn next_delay(&mut self) -> Duration {
        self.prev = jitter(&mut self.rng, self.base, self.cap, self.prev);
        self.prev
    }
}

/// One decorrelated-jitter step: `min(cap, uniform(base, max(prev·3,
/// base + 1)))` — the one formula [`Backoff`] and [`RetryStore`] share.
fn jitter(rng: &mut StdRng, base: Duration, cap: Duration, prev: Duration) -> Duration {
    let base = base.as_nanos() as u64;
    let hi = (prev.as_nanos() as u64).saturating_mul(3).max(base + 1);
    let drawn = rng.gen_range(base..hi);
    Duration::from_nanos(drawn.min(cap.as_nanos() as u64))
}

/// Process-wide retry counters (`lakehouse-obs`).
#[derive(Debug)]
struct RetryCounters {
    attempts: Arc<Counter>,
    giveups: Arc<Counter>,
    backoff_nanos: Arc<Histogram>,
}

impl RetryCounters {
    fn register() -> RetryCounters {
        let reg = lakehouse_obs::global();
        RetryCounters {
            attempts: reg.counter("retry.attempts"),
            giveups: reg.counter("retry.giveups"),
            backoff_nanos: reg.histogram("retry.backoff_nanos"),
        }
    }
}

/// An [`ObjectStore`] wrapper that retries retryable failures with seeded
/// decorrelated-jitter backoff and a per-store retry budget. See the module
/// docs for the accounting model.
pub struct RetryStore<S> {
    inner: S,
    policy: RetryPolicy,
    rng: Mutex<StdRng>,
    budget_left: AtomicU64,
    retries: AtomicU64,
    giveups: AtomicU64,
    obs: RetryCounters,
}

impl<S: ObjectStore> RetryStore<S> {
    pub fn new(inner: S, policy: RetryPolicy) -> RetryStore<S> {
        let budget_nanos = policy.budget.as_nanos().min(u64::MAX as u128) as u64;
        RetryStore {
            inner,
            rng: Mutex::new(StdRng::seed_from_u64(policy.seed)),
            budget_left: AtomicU64::new(budget_nanos),
            policy,
            retries: AtomicU64::new(0),
            giveups: AtomicU64::new(0),
            obs: RetryCounters::register(),
        }
    }

    /// Retries performed so far (attempts beyond each op's first).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Operations abandoned with [`StoreError::RetriesExhausted`].
    pub fn giveups(&self) -> u64 {
        self.giveups.load(Ordering::Relaxed)
    }

    /// Backoff budget not yet consumed.
    pub fn budget_remaining(&self) -> Duration {
        Duration::from_nanos(self.budget_left.load(Ordering::Relaxed))
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Draw the next decorrelated-jitter delay given the previous one.
    fn next_delay(&self, prev: Duration) -> Duration {
        let policy = &self.policy;
        jitter(
            &mut self.rng.lock(),
            policy.base_backoff,
            policy.max_backoff,
            prev,
        )
    }

    /// Atomically take `delay` out of the budget; false if it doesn't fit.
    fn consume_budget(&self, delay: Duration) -> bool {
        let need = delay.as_nanos().min(u64::MAX as u128) as u64;
        let mut cur = self.budget_left.load(Ordering::Relaxed);
        loop {
            if cur < need {
                return false;
            }
            match self.budget_left.compare_exchange_weak(
                cur,
                cur - need,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    fn give_up(&self, op: &'static str, attempts: u32, last: StoreError) -> StoreError {
        self.giveups.fetch_add(1, Ordering::Relaxed);
        self.obs.giveups.inc();
        StoreError::RetriesExhausted {
            op: op.to_string(),
            attempts,
            last: Box::new(last),
        }
    }

    /// Run `f` with retry/backoff semantics.
    fn with_retry<T>(&self, op: &'static str, f: impl Fn(&S) -> Result<T>) -> Result<T> {
        let metrics = self.inner.store_metrics();
        let ctx = lakehouse_obs::QueryCtx::current();
        let mut attempts: u32 = 0;
        let mut prev_delay = self.policy.base_backoff;
        loop {
            // Cooperative cancellation point: every attempt (including the
            // first, and each one after a backoff charged the stall ledger)
            // re-checks the owning query's token, so a killed query stops
            // after at most one in-flight attempt instead of burning its
            // remaining retries.
            if let Some(ctx) = &ctx {
                if let Err(reason) = ctx.check() {
                    return Err(StoreError::QueryKilled { reason });
                }
            }
            attempts += 1;
            match f(&self.inner) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() => {
                    if attempts > self.policy.max_retries {
                        return Err(self.give_up(op, attempts, e));
                    }
                    let mut delay = self.next_delay(prev_delay);
                    // Honor the server's throttle hint as a floor.
                    if let StoreError::Throttled { retry_after, .. } = &e {
                        delay = delay.max(*retry_after);
                    }
                    // ... but never let any wait — jitter or server hint —
                    // overshoot the owning query's remaining deadline: cap
                    // the delay so the very next token check fires at most
                    // one backoff past the deadline, not `retry_after` past.
                    if let Some(remaining) = ctx.as_ref().and_then(|c| c.deadline_remaining()) {
                        delay = delay.min(remaining);
                    }
                    prev_delay = delay;
                    if !self.consume_budget(delay) {
                        return Err(self.give_up(op, attempts, e));
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.obs.attempts.inc();
                    self.obs.backoff_nanos.record(delay.as_nanos() as u64);
                    lakehouse_obs::recorder().record(
                        lakehouse_obs::EventKind::RetryAttempt,
                        op,
                        delay.as_nanos() as u64,
                    );
                    if let Some(m) = metrics.as_ref() {
                        m.record_stall(delay);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl<S: ObjectStore> ObjectStore for RetryStore<S> {
    fn put(&self, path: &ObjectPath, data: Bytes) -> Result<()> {
        self.with_retry("put", |s| s.put(path, data.clone()))
    }

    fn get(&self, path: &ObjectPath) -> Result<Bytes> {
        self.with_retry("get", |s| s.get(path))
    }

    fn get_range(&self, path: &ObjectPath, start: usize, end: usize) -> Result<Bytes> {
        self.with_retry("get_range", |s| s.get_range(path, start, end))
    }

    fn head(&self, path: &ObjectPath) -> Result<usize> {
        self.with_retry("head", |s| s.head(path))
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectPath>> {
        self.with_retry("list", |s| s.list(prefix))
    }

    fn delete(&self, path: &ObjectPath) -> Result<()> {
        self.with_retry("delete", |s| s.delete(path))
    }

    // `put_if_matches` is retried only on transient faults; a CAS conflict
    // (`PreconditionFailed`) is a semantic outcome surfaced to the catalog,
    // which re-reads and retries at its own layer. Fault injection sits
    // above the backend, so a failed attempt never half-applied.
    fn put_if_matches(
        &self,
        path: &ObjectPath,
        expected: Option<&[u8]>,
        data: Bytes,
    ) -> Result<()> {
        self.with_retry("put_if_matches", |s| {
            s.put_if_matches(path, expected, data.clone())
        })
    }

    fn store_metrics(&self) -> Option<Arc<StoreMetrics>> {
        self.inner.store_metrics()
    }

    fn invalidate_corrupt(&self, path: &ObjectPath) {
        // Pass through without retry: invalidation is local bookkeeping.
        self.inner.invalidate_corrupt(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosStore, FaultKind};
    use crate::latency::{LatencyModel, SimulatedStore};
    use crate::memory::InMemoryStore;

    fn p(s: &str) -> ObjectPath {
        ObjectPath::new(s).unwrap()
    }

    #[test]
    fn backoff_is_bounded_and_seeded() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(100);
        let seq = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(base, cap, seed);
            (0..16).map(|_| b.next_delay()).collect()
        };
        let a = seq(1);
        assert_eq!(a, seq(1), "same seed must give the same delays");
        assert_ne!(a, seq(2));
        for d in &a {
            assert!(*d >= base && *d <= cap, "delay {d:?} outside [base, cap]");
        }
        // The sequence should actually escalate toward the cap.
        assert!(a.iter().any(|d| *d > base * 2), "no escalation in {a:?}");
        // The store's retry loop draws the very same sequence for a seed.
        let policy = RetryPolicy {
            base_backoff: base,
            max_backoff: cap,
            ..RetryPolicy::default().with_seed(1)
        };
        let store = RetryStore::new(InMemoryStore::new(), policy);
        let mut prev = base;
        let drawn: Vec<Duration> = (0..16)
            .map(|_| {
                prev = store.next_delay(prev);
                prev
            })
            .collect();
        assert_eq!(drawn, a, "RetryStore and Backoff must jitter alike");
    }

    #[test]
    fn transient_faults_are_absorbed() {
        // Every other op fails; one retry per op is enough to mask it.
        let flaky = ChaosStore::new(InMemoryStore::new(), ChaosConfig::every(FaultKind::All, 2));
        let s = RetryStore::new(flaky, RetryPolicy::default());
        for i in 0..10 {
            let path = p(&format!("k{i}"));
            s.put(&path, Bytes::from_static(b"v")).expect("retried put");
            assert_eq!(s.get(&path).expect("retried get"), Bytes::from_static(b"v"));
        }
        assert!(s.retries() > 0);
        assert_eq!(s.giveups(), 0);
    }

    #[test]
    fn exhaustion_is_typed_with_attempt_count() {
        let flaky = ChaosStore::new(InMemoryStore::new(), ChaosConfig::every(FaultKind::All, 1));
        let s = RetryStore::new(flaky, RetryPolicy::default().with_max_retries(3));
        match s.get(&p("a")) {
            Err(StoreError::RetriesExhausted { op, attempts, last }) => {
                assert_eq!(op, "get");
                assert_eq!(attempts, 4, "3 retries = 4 attempts");
                assert!(last.is_retryable(), "last error is the transient one");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(s.giveups(), 1);
        // Exhaustion itself must not be classified retryable.
        assert!(!s.get(&p("a")).unwrap_err().is_retryable());
    }

    #[test]
    fn permanent_errors_pass_through_unretried() {
        let s = RetryStore::new(InMemoryStore::new(), RetryPolicy::default());
        assert!(matches!(s.get(&p("missing")), Err(StoreError::NotFound(_))));
        assert_eq!(s.retries(), 0);
    }

    #[test]
    fn budget_stops_retrying_before_max_retries() {
        let flaky = ChaosStore::new(InMemoryStore::new(), ChaosConfig::every(FaultKind::All, 1));
        let policy = RetryPolicy::default()
            .with_max_retries(1000)
            .with_budget(Duration::from_millis(60));
        let s = RetryStore::new(flaky, policy);
        let err = s.get(&p("a")).unwrap_err();
        match err {
            StoreError::RetriesExhausted { attempts, .. } => {
                assert!(
                    attempts < 10,
                    "60 ms budget at 25 ms base backoff must stop early, not after {attempts}"
                );
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert!(s.budget_remaining() < Duration::from_millis(60));
    }

    #[test]
    fn backoff_is_charged_as_simulated_stall() {
        let sim = SimulatedStore::new(InMemoryStore::new(), LatencyModel::zero());
        let flaky = ChaosStore::new(sim, ChaosConfig::every(FaultKind::All, 2));
        let s = RetryStore::new(flaky, RetryPolicy::default());
        s.put(&p("a"), Bytes::from_static(b"v")).unwrap();
        s.get(&p("a")).unwrap();
        let m = s
            .store_metrics()
            .expect("sim metrics visible through stack");
        assert!(
            m.stall_time() >= Duration::from_millis(25),
            "backoff must be charged to simulated time, got {:?}",
            m.stall_time()
        );
    }

    #[test]
    fn throttle_retry_after_is_a_floor() {
        let mut cfg = ChaosConfig::new(9).with_throttle_p(1.0);
        cfg.throttle_burst = 1;
        cfg.throttle_retry_after = Duration::from_millis(500);
        let sim = SimulatedStore::new(InMemoryStore::new(), LatencyModel::zero());
        let chaos = ChaosStore::new(sim, cfg);
        chaos
            .inner()
            .put(&p("a"), Bytes::from_static(b"v"))
            .unwrap();
        let s = RetryStore::new(chaos, RetryPolicy::default().with_max_retries(1));
        // First attempt throttled, one retry allowed; whether the retry
        // lands or throttles again, the wait must be >= retry_after.
        let _ = s.get(&p("a"));
        let m = s.store_metrics().unwrap();
        assert!(
            m.stall_time() >= Duration::from_millis(500),
            "throttle hint must floor the backoff, got {:?}",
            m.stall_time()
        );
    }

    #[test]
    fn query_deadline_caps_throttle_retry_after() {
        // The server suggests a 10 s wait but the query has ~50 ms of
        // deadline left: the backoff must be capped at the remaining
        // deadline and the next token check must kill the query — it can
        // never sit out the full server hint.
        let mut cfg = ChaosConfig::new(7).with_throttle_p(1.0);
        cfg.throttle_retry_after = Duration::from_secs(10);
        let sim = SimulatedStore::new(InMemoryStore::new(), LatencyModel::zero());
        let chaos = ChaosStore::new(sim, cfg);
        chaos
            .inner()
            .put(&p("a"), Bytes::from_static(b"v"))
            .unwrap();
        let s = RetryStore::new(chaos, RetryPolicy::default().with_max_retries(1000));
        let ctx = lakehouse_obs::QueryCtx::new("t", "q");
        ctx.arm_deadline(Duration::from_millis(50));
        let err = {
            let _g = ctx.enter();
            s.get(&p("a")).unwrap_err()
        };
        match err {
            StoreError::QueryKilled { reason } => {
                assert_eq!(reason, lakehouse_obs::KillReason::Deadline);
            }
            other => panic!("expected QueryKilled, got {other:?}"),
        }
        // The only stall charged is the capped one: bounded by the
        // deadline, nowhere near the 10 s hint.
        let m = s.store_metrics().unwrap();
        assert!(
            m.stall_time() <= Duration::from_millis(50),
            "capped backoff must not overshoot the deadline, got {:?}",
            m.stall_time()
        );
    }

    #[test]
    fn killed_ctx_short_circuits_without_an_attempt() {
        let s = RetryStore::new(InMemoryStore::new(), RetryPolicy::default());
        let ctx = lakehouse_obs::QueryCtx::new("t", "q");
        ctx.kill(lakehouse_obs::KillReason::Canceled);
        let _g = ctx.enter();
        // The object doesn't exist, so a dispatched attempt would surface
        // NotFound; QueryKilled proves the token pre-empted the attempt.
        match s.get(&p("missing")) {
            Err(StoreError::QueryKilled { reason }) => {
                assert_eq!(reason, lakehouse_obs::KillReason::Canceled);
            }
            other => panic!("expected QueryKilled, got {other:?}"),
        }
        assert_eq!(s.retries(), 0);
        assert!(
            !StoreError::QueryKilled {
                reason: lakehouse_obs::KillReason::Canceled
            }
            .is_retryable(),
            "a killed query is dead, never retryable"
        );
    }
}
