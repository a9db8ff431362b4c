//! Admission control: a bounded concurrency gate with per-tenant slot
//! quotas and a bounded wait queue, wrapped around every top-level
//! query/run/profile entry point (DESIGN.md §16).
//!
//! The paper's multi-tenant premise (§3.1) is that a serverless lakehouse
//! is shared: one greedy tenant must not be able to monopolize the
//! platform. The gate enforces that *before* any work starts:
//!
//! - at most `max_slots` work items execute concurrently, platform-wide;
//! - a tenant holding `tenant_slots` of them waits even when free slots
//!   remain for others (quota), so a flood from one tenant cannot starve
//!   the rest;
//! - waiters park in a bounded queue. *Which* eligible waiter runs next is
//!   the one order of `lakehouse-scheduler`'s [`AdmissionOrder`]: least
//!   tenant virtual time, then least expected cost less age, then arrival;
//! - a submission that would overflow the queue, or waits longer than the
//!   queue deadline, is **shed** with a typed `Overloaded { retry_after }`
//!   — load the platform cannot take is refused crisply, never queued
//!   unboundedly (the "embarrassingly scalable" failure mode the paper
//!   warns about is the retry storm a silent queue produces).
//!
//! The gate publishes `admission.{admitted,queued,shed}` and
//! `scheduler.{picks,preempt_skips,aging_promotions}` counters, records
//! `admission_admit` / `admission_shed` / `sched_pick` flight-recorder
//! events, and tracks per-tenant running peaks so a test can prove a quota
//! held.
//!
//! This controller owns the mutex, the condvar, the slot bookkeeping, the
//! shedding and the RAII permits; the order owns only the decision. Every
//! blocked waiter re-evaluates `pick` when it wakes and only the picked
//! waiter consumes the decision.

use crate::config::AdmissionConfig;
use lakehouse_obs::{Counter, EventKind};
use lakehouse_scheduler::{AdmissionOrder, RunningSet, WaitingJob};
use std::collections::{HashMap, VecDeque};
// std::sync because the vendored `parking_lot` has no condvar; poisoned
// locks are recovered (`into_inner`), never unwrapped.
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How often a queued waiter re-evaluates its position (bounds how long a
/// wake-up can be missed; admission normally proceeds via `notify_all`).
const QUEUE_POLL: Duration = Duration::from_millis(5);

/// Why and how a submission was refused by the gate.
#[derive(Debug, Clone, Copy)]
pub struct ShedInfo {
    /// Back off at least this long before resubmitting.
    pub retry_after: Duration,
    /// How long the submission waited in the queue before being shed
    /// (zero for queue-overflow sheds, which never queue at all).
    pub waited: Duration,
}

struct State {
    /// Currently executing work items per tenant.
    running: HashMap<String, usize>,
    total_running: usize,
    /// Queued waiters, in arrival order; the order picks among them.
    queue: VecDeque<WaitingJob>,
    next_id: u64,
    /// High-water marks: a test's proof that a quota held.
    peak_running: HashMap<String, usize>,
    peak_total: usize,
    order: AdmissionOrder,
}

struct Obs {
    admitted: Arc<Counter>,
    queued: Arc<Counter>,
    shed: Arc<Counter>,
    picks: Arc<Counter>,
    preempt_skips: Arc<Counter>,
    aging_promotions: Arc<Counter>,
}

struct Inner {
    cfg: AdmissionConfig,
    state: Mutex<State>,
    cv: Condvar,
    obs: Obs,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// What is running, against this gate's limits.
    fn view<'a>(&self, st: &'a State) -> RunningSet<'a> {
        RunningSet::new(
            st.total_running,
            self.cfg.max_slots,
            self.cfg.tenant_slots,
            &st.running,
        )
    }
}

/// The bounded, quota-aware admission gate. Cheap to clone (`Arc` inside);
/// several `Lakehouse` instances handed the same controller share one
/// platform-wide gate — that is how `tests/scheduler.rs` models tenants.
#[derive(Clone)]
pub struct AdmissionController {
    inner: Arc<Inner>,
}

/// RAII admission slot: dropping it releases the slot and wakes waiters.
pub struct AdmissionPermit {
    inner: Arc<Inner>,
    tenant: String,
    waited: Duration,
}

impl AdmissionPermit {
    /// How long the work item queued before this permit was granted.
    pub fn waited(&self) -> Duration {
        self.waited
    }
}

impl std::fmt::Debug for AdmissionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit")
            .field("tenant", &self.tenant)
            .field("waited", &self.waited)
            .finish_non_exhaustive()
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut st = self.inner.lock();
        st.total_running = st.total_running.saturating_sub(1);
        if let Some(n) = st.running.get_mut(&self.tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                st.running.remove(&self.tenant);
            }
        }
        drop(st);
        self.inner.cv.notify_all();
    }
}

impl AdmissionController {
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        let reg = lakehouse_obs::global();
        let order = AdmissionOrder::new(&cfg.weights);
        AdmissionController {
            inner: Arc::new(Inner {
                cfg: AdmissionConfig {
                    max_slots: cfg.max_slots.max(1),
                    ..cfg
                },
                state: Mutex::new(State {
                    running: HashMap::new(),
                    total_running: 0,
                    queue: VecDeque::new(),
                    next_id: 1,
                    peak_running: HashMap::new(),
                    peak_total: 0,
                    order,
                }),
                cv: Condvar::new(),
                obs: Obs {
                    admitted: reg.counter("admission.admitted"),
                    queued: reg.counter("admission.queued"),
                    shed: reg.counter("admission.shed"),
                    picks: reg.counter("scheduler.picks"),
                    preempt_skips: reg.counter("scheduler.preempt_skips"),
                    aging_promotions: reg.counter("scheduler.aging_promotions"),
                },
            }),
        }
    }

    /// Waiters currently queued (diagnostic; racy by nature).
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Acquire a slot for a whole query from `tenant` (no cost estimate).
    pub fn acquire(&self, tenant: &str) -> Result<AdmissionPermit, ShedInfo> {
        self.acquire_item(tenant, 0.0)
    }

    /// Acquire a slot for one schedulable work item — a query or a DAG
    /// stage — queueing (bounded, ordered) when the gate is full.
    /// `cost_hint` is the expected execution cost in seconds (0.0 =
    /// unknown). `Err(ShedInfo)` means the submission was shed — queue
    /// overflow or queue-deadline — and the caller should back off at least
    /// `retry_after` before resubmitting.
    pub fn acquire_item(&self, tenant: &str, cost_hint: f64) -> Result<AdmissionPermit, ShedInfo> {
        let inner = &self.inner;
        let mut st = inner.lock();
        // Fast path: nobody queued ahead and quota allows.
        if st.queue.is_empty() && inner.view(&st).eligible(tenant) {
            let job = WaitingJob {
                id: 0,
                tenant: tenant.to_string(),
                enqueued_tick: st.next_id,
                cost_hint,
            };
            st.order.admit(&job);
            return Ok(self.admit(&mut st, tenant, Duration::ZERO));
        }
        if st.queue.len() >= inner.cfg.queue_cap {
            drop(st);
            return Err(self.shed(tenant, Duration::ZERO));
        }
        let id = st.next_id;
        st.next_id += 1;
        let job = WaitingJob {
            id,
            tenant: tenant.to_string(),
            enqueued_tick: id,
            cost_hint,
        };
        st.order.enqueue(&job);
        st.queue.push_back(job);
        inner.obs.queued.inc();
        let enqueued = Instant::now();
        let deadline = enqueued + inner.cfg.queue_deadline;
        loop {
            // Which eligible waiter runs next? Every waiter evaluates this on
            // wake; only the one that was picked consumes the decision.
            st.queue.make_contiguous();
            let jobs = st.queue.as_slices().0;
            let view = inner.view(&st);
            if let Some(pos) = st.order.pick(jobs, &view).filter(|&i| jobs[i].id == id) {
                if st.order.aged_past_cheaper(jobs, &view, pos) {
                    inner.obs.aging_promotions.inc();
                }
                let job = st.queue.remove(pos).expect("picked from the queue");
                st.order.admit(&job);
                inner.obs.picks.inc();
                inner.obs.preempt_skips.add(pos as u64);
                lakehouse_obs::recorder().record_for(
                    EventKind::SchedPick,
                    0,
                    tenant,
                    "",
                    pos as u64,
                );
                return Ok(self.admit(&mut st, tenant, enqueued.elapsed()));
            }
            let now = Instant::now();
            if now >= deadline {
                let pos = st
                    .queue
                    .iter()
                    .position(|j| j.id == id)
                    .expect("waiter present until admitted or shed");
                st.queue.remove(pos);
                drop(st);
                return Err(self.shed(tenant, enqueued.elapsed()));
            }
            let timeout = (deadline - now).min(QUEUE_POLL);
            st = inner
                .cv
                .wait_timeout(st, timeout)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    fn admit(&self, st: &mut State, tenant: &str, waited: Duration) -> AdmissionPermit {
        st.total_running += 1;
        let n = st.running.entry(tenant.to_string()).or_insert(0);
        *n += 1;
        let n = *n;
        let peak = st.peak_running.entry(tenant.to_string()).or_insert(0);
        *peak = (*peak).max(n);
        st.peak_total = st.peak_total.max(st.total_running);
        self.inner.obs.admitted.inc();
        lakehouse_obs::recorder().record_for(
            EventKind::AdmissionAdmit,
            0,
            tenant,
            "",
            waited.as_nanos() as u64,
        );
        AdmissionPermit {
            inner: Arc::clone(&self.inner),
            tenant: tenant.to_string(),
            waited,
        }
    }

    fn shed(&self, tenant: &str, waited: Duration) -> ShedInfo {
        // Suggest waiting one full queue window: by then the queue the
        // caller could not join has either drained or the platform is still
        // overloaded and the resubmission will be shed again just as fast.
        let retry_after = self.inner.cfg.queue_deadline.max(Duration::from_millis(1));
        self.inner.obs.shed.inc();
        lakehouse_obs::recorder().record_for(
            EventKind::AdmissionShed,
            0,
            tenant,
            "",
            retry_after.as_nanos() as u64,
        );
        ShedInfo {
            retry_after,
            waited,
        }
    }

    /// Work items currently holding slots.
    pub fn running(&self) -> usize {
        self.inner.lock().total_running
    }

    /// High-water mark of concurrently running work items for `tenant`:
    /// proof that a quota held.
    pub fn peak_running(&self, tenant: &str) -> usize {
        self.inner
            .lock()
            .peak_running
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// High-water mark of concurrently running work items platform-wide.
    pub fn peak_total(&self) -> usize {
        self.inner.lock().peak_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cfg(max: usize, per_tenant: usize, queue_cap: usize, deadline_ms: u64) -> AdmissionConfig {
        AdmissionConfig {
            max_slots: max,
            tenant_slots: per_tenant,
            queue_cap,
            queue_deadline: Duration::from_millis(deadline_ms),
            weights: Vec::new(),
        }
    }

    #[test]
    fn slots_bound_concurrency_and_release_admits_waiters() {
        let gate = AdmissionController::new(cfg(2, 0, 8, 5_000));
        let p1 = gate.acquire("a").expect("slot 1");
        let p2 = gate.acquire("a").expect("slot 2");
        assert_eq!(gate.running(), 2);
        let g2 = gate.clone();
        let h = std::thread::spawn(move || g2.acquire("b").map(drop).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(gate.running(), 2, "third query must queue, not run");
        drop(p1);
        assert!(h.join().unwrap(), "released slot admits the waiter");
        drop(p2);
        assert_eq!(gate.running(), 0);
        assert_eq!(gate.peak_total(), 2);
    }

    #[test]
    fn full_queue_sheds_immediately_with_retry_after() {
        let gate = AdmissionController::new(cfg(1, 0, 0, 50));
        let _p = gate.acquire("a").expect("slot");
        let start = Instant::now();
        let shed = gate.acquire("b").expect_err("queue cap 0 must shed");
        assert!(shed.retry_after >= Duration::from_millis(1));
        assert_eq!(shed.waited, Duration::ZERO, "overflow sheds never queue");
        assert!(
            start.elapsed() < Duration::from_millis(25),
            "overflow shed must be immediate, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn queue_deadline_sheds_stuck_waiters_and_reports_wait() {
        let gate = AdmissionController::new(cfg(1, 0, 8, 30));
        let _p = gate.acquire("a").expect("slot");
        let start = Instant::now();
        let shed = gate.acquire("b").expect_err("deadline must shed");
        let waited = start.elapsed();
        assert!(shed.retry_after >= Duration::from_millis(1));
        assert!(
            waited >= Duration::from_millis(25) && waited < Duration::from_millis(500),
            "shed at ~the 30 ms queue deadline, waited {waited:?}"
        );
        // Satellite: the shed reports how long the victim queued, so its
        // wait lands in the ledger instead of vanishing.
        assert!(
            shed.waited >= Duration::from_millis(25) && shed.waited <= waited,
            "shed must carry the queue wait, got {:?}",
            shed.waited
        );
    }

    #[test]
    fn tenant_quota_skips_greedy_waiters_without_blocking_others() {
        // 2 slots, 1 per tenant. Tenant a holds its quota; a's second query
        // queues. Tenant b must be admitted past it (no head-of-line block).
        let gate = AdmissionController::new(cfg(2, 1, 8, 5_000));
        let pa = gate.acquire("a").expect("a's slot");
        let ga = gate.clone();
        let a_waiting = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&a_waiting);
        let h = std::thread::spawn(move || {
            flag.store(1, Ordering::SeqCst);
            let p = ga.acquire("a");
            p.map(drop).is_ok()
        });
        while a_waiting.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(10));
        // b jumps past a's queued-over-quota waiter.
        let pb = gate.acquire("b").expect("b must not starve behind a");
        assert_eq!(gate.peak_running("a"), 1, "a's quota held");
        drop(pa); // frees a's quota: the queued a waiter admits
        assert!(h.join().unwrap());
        drop(pb);
        assert!(gate.peak_running("a") <= 1);
        assert_eq!(gate.peak_running("b"), 1);
    }

    #[test]
    fn admitted_permit_reports_queue_wait() {
        let gate = AdmissionController::new(cfg(1, 0, 8, 5_000));
        let p0 = gate.acquire("a").expect("uncontended");
        assert_eq!(p0.waited(), Duration::ZERO, "fast path never queues");
        let g2 = gate.clone();
        let h = std::thread::spawn(move || {
            let p = g2.acquire("b").expect("admitted after release");
            p.waited()
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(p0);
        let waited = h.join().unwrap();
        assert!(
            waited >= Duration::from_millis(10),
            "queued waiter must report its wait, got {waited:?}"
        );
    }

    #[test]
    fn fair_share_gate_splits_work_by_weight() {
        // End-to-end through the executor: one slot, tenants alpha/beta at
        // weights 3:1, both saturating. Completed work converges to ~3:1.
        let gate = AdmissionController::new(AdmissionConfig {
            max_slots: 1,
            tenant_slots: 0,
            queue_cap: 64,
            queue_deadline: Duration::from_secs(30),
            weights: vec![("alpha".into(), 3.0), ("beta".into(), 1.0)],
        });
        let stop = Arc::new(AtomicUsize::new(0));
        let counts: Vec<Arc<AtomicUsize>> = (0..2).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let mut handles = Vec::new();
        for (ti, tenant) in ["alpha", "beta"].into_iter().enumerate() {
            // Two submitter threads per tenant so both tenants always have
            // a queued waiter (single-threaded tenants degenerate to
            // alternation regardless of weights).
            for _ in 0..2 {
                let g = gate.clone();
                let stop = Arc::clone(&stop);
                let count = Arc::clone(&counts[ti]);
                handles.push(std::thread::spawn(move || {
                    while stop.load(Ordering::SeqCst) == 0 {
                        if let Ok(permit) = g.acquire(tenant) {
                            std::thread::sleep(Duration::from_millis(1));
                            drop(permit);
                            count.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }));
            }
        }
        std::thread::sleep(Duration::from_millis(400));
        stop.store(1, Ordering::SeqCst);
        for h in handles {
            h.join().unwrap();
        }
        let (a, b) = (
            counts[0].load(Ordering::SeqCst) as f64,
            counts[1].load(Ordering::SeqCst) as f64,
        );
        assert!(b > 0.0, "beta must not starve");
        let ratio = a / b;
        assert!(
            (2.0..=4.5).contains(&ratio),
            "weighted 3:1 gate: completed ratio {ratio} (alpha={a}, beta={b})"
        );
    }
}
