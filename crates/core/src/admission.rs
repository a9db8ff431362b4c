//! Admission control: a bounded concurrency gate with a bounded FIFO wait
//! queue, wrapped around every top-level query/run/profile entry point and
//! every run stage (DESIGN.md §16).
//!
//! The gate decides *whether* work starts, before any of it does:
//!
//! - at most `max_slots` work items execute concurrently, platform-wide;
//! - waiters park in a bounded queue and are admitted in arrival order;
//! - a submission that would overflow the queue, or waits longer than the
//!   queue deadline, is **shed** with a typed `Overloaded { retry_after }`
//!   — load the platform cannot take is refused crisply, never queued
//!   unboundedly (the "embarrassingly scalable" failure mode the paper
//!   warns about is the retry storm a silent queue produces).
//!
//! The gate publishes `admission.{admitted,queued,shed}` counters and
//! records `admission_admit` / `admission_shed` flight-recorder events
//! labelled with the submitting tenant.

use crate::config::AdmissionConfig;
use lakehouse_obs::{Counter, EventKind};
use std::collections::VecDeque;
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
    running: usize,
    /// Ids of the queued waiters, in arrival order: the front one is next.
    queue: VecDeque<u64>,
    next_id: u64,
    /// High-water mark of `running`: a test's proof that the bound held.
    peak: usize,
}

struct Inner {
    cfg: AdmissionConfig,
    state: Mutex<State>,
    cv: Condvar,
    admitted: Arc<Counter>,
    queued: Arc<Counter>,
    shed: Arc<Counter>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The bounded FIFO admission gate. Cheap to clone (`Arc` inside); several
/// `Lakehouse` instances handed the same controller share one platform-wide
/// gate (`tests/scheduler.rs`).
#[derive(Clone)]
pub struct AdmissionController {
    inner: Arc<Inner>,
}

/// RAII admission slot: dropping it releases the slot and wakes waiters.
pub struct AdmissionPermit {
    inner: Arc<Inner>,
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
            .field("waited", &self.waited)
            .finish_non_exhaustive()
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut st = self.inner.lock();
        st.running = st.running.saturating_sub(1);
        drop(st);
        self.inner.cv.notify_all();
    }
}

impl AdmissionController {
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        let reg = lakehouse_obs::global();
        AdmissionController {
            inner: Arc::new(Inner {
                cfg: AdmissionConfig {
                    max_slots: cfg.max_slots.max(1),
                    ..cfg
                },
                state: Mutex::new(State {
                    running: 0,
                    queue: VecDeque::new(),
                    next_id: 0,
                    peak: 0,
                }),
                cv: Condvar::new(),
                admitted: reg.counter("admission.admitted"),
                queued: reg.counter("admission.queued"),
                shed: reg.counter("admission.shed"),
            }),
        }
    }

    /// Waiters currently queued (diagnostic; racy by nature).
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Acquire a slot for one work item from `tenant` — a query or a DAG
    /// stage — queueing behind earlier waiters when the gate is full.
    /// `Err(ShedInfo)` means the submission was shed — queue overflow or
    /// queue deadline — and the caller should back off at least
    /// `retry_after` before resubmitting.
    pub fn acquire(&self, tenant: &str) -> Result<AdmissionPermit, ShedInfo> {
        let inner = &self.inner;
        let mut st = inner.lock();
        if st.queue.is_empty() && st.running < inner.cfg.max_slots {
            return Ok(self.admit(&mut st, tenant, Duration::ZERO));
        }
        if st.queue.len() >= inner.cfg.queue_cap {
            drop(st);
            return Err(self.shed(tenant, Duration::ZERO));
        }
        let id = st.next_id;
        st.next_id += 1;
        st.queue.push_back(id);
        inner.queued.inc();
        let enqueued = Instant::now();
        let deadline = enqueued + inner.cfg.queue_deadline;
        loop {
            if st.queue.front() == Some(&id) && st.running < inner.cfg.max_slots {
                st.queue.pop_front();
                let permit = self.admit(&mut st, tenant, enqueued.elapsed());
                drop(st);
                // The next waiter may fit in a slot that is still free.
                inner.cv.notify_all();
                return Ok(permit);
            }
            let now = Instant::now();
            if now >= deadline {
                st.queue.retain(|&w| w != id);
                drop(st);
                inner.cv.notify_all();
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
        st.running += 1;
        st.peak = st.peak.max(st.running);
        self.inner.admitted.inc();
        lakehouse_obs::recorder().record_for(
            EventKind::AdmissionAdmit,
            0,
            tenant,
            "",
            waited.as_nanos() as u64,
        );
        AdmissionPermit {
            inner: Arc::clone(&self.inner),
            waited,
        }
    }

    fn shed(&self, tenant: &str, waited: Duration) -> ShedInfo {
        // Suggest waiting one full queue window: by then the queue the
        // caller could not join has either drained or the platform is still
        // overloaded and the resubmission will be shed again just as fast.
        let retry_after = self.inner.cfg.queue_deadline.max(Duration::from_millis(1));
        self.inner.shed.inc();
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
        self.inner.lock().running
    }

    /// High-water mark of concurrently running work items.
    pub fn peak_total(&self) -> usize {
        self.inner.lock().peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max: usize, queue_cap: usize, deadline_ms: u64) -> AdmissionConfig {
        AdmissionConfig {
            max_slots: max,
            queue_cap,
            queue_deadline: Duration::from_millis(deadline_ms),
        }
    }

    /// Until `depth` waiters are queued at `gate`.
    fn wait_for_queue(gate: &AdmissionController, depth: usize) {
        while gate.queue_depth() != depth {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn slots_bound_concurrency_and_release_admits_waiters() {
        let gate = AdmissionController::new(cfg(2, 8, 5_000));
        let p1 = gate.acquire("a").expect("slot 1");
        let p2 = gate.acquire("a").expect("slot 2");
        assert_eq!(gate.running(), 2);
        let g2 = gate.clone();
        let h = std::thread::spawn(move || g2.acquire("b").map(drop).is_ok());
        wait_for_queue(&gate, 1);
        assert_eq!(gate.running(), 2, "third query must queue, not run");
        drop(p1);
        assert!(h.join().unwrap(), "released slot admits the waiter");
        drop(p2);
        assert_eq!(gate.running(), 0);
        assert_eq!(gate.peak_total(), 2);
    }

    #[test]
    fn full_queue_sheds_immediately_with_retry_after() {
        let gate = AdmissionController::new(cfg(1, 0, 50));
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
        let gate = AdmissionController::new(cfg(1, 8, 30));
        let _p = gate.acquire("a").expect("slot");
        let start = Instant::now();
        let shed = gate.acquire("b").expect_err("deadline must shed");
        let waited = start.elapsed();
        assert!(shed.retry_after >= Duration::from_millis(1));
        assert!(
            waited >= Duration::from_millis(25) && waited < Duration::from_millis(500),
            "shed at ~the 30 ms queue deadline, waited {waited:?}"
        );
        // The shed reports how long the victim queued, so its wait lands in
        // the ledger instead of vanishing.
        assert!(
            shed.waited >= Duration::from_millis(25) && shed.waited <= waited,
            "shed must carry the queue wait, got {:?}",
            shed.waited
        );
    }

    #[test]
    fn admitted_permit_reports_queue_wait() {
        let gate = AdmissionController::new(cfg(1, 8, 5_000));
        let p0 = gate.acquire("a").expect("uncontended");
        assert_eq!(p0.waited(), Duration::ZERO, "fast path never queues");
        let g2 = gate.clone();
        let h = std::thread::spawn(move || {
            let p = g2.acquire("b").expect("admitted after release");
            p.waited()
        });
        // Held 20 ms past the moment the waiter is known to be queued.
        wait_for_queue(&gate, 1);
        std::thread::sleep(Duration::from_millis(20));
        drop(p0);
        let waited = h.join().unwrap();
        assert!(
            waited >= Duration::from_millis(10),
            "queued waiter must report its wait, got {waited:?}"
        );
    }
}
