//! Completion-based async I/O dispatcher over any [`ObjectStore`].
//!
//! The scan pool overlaps *simulated* latency by bookkeeping; this module
//! makes the overlap real. An [`IoDispatcher`] is an io_uring-shaped
//! front-end to a synchronous store: callers `submit_get` /
//! `submit_get_range` and receive an [`IoTicket`]; a bounded submission
//! queue feeds a pool of worker threads that execute the blocking store
//! calls, so N in-flight gets genuinely overlap even when the store really
//! sleeps (`SleepMode::Scaled`/`Real`). Completions are claimed with
//! [`IoDispatcher::poll`] (non-blocking) or [`IoDispatcher::wait`]
//! (blocking), and each carries the simulated lane-nanos the request was
//! charged so scan reports can fold overlapped work into per-lane totals.
//!
//! **Hedged reads** live in `wait`: when a request's wall time exceeds the
//! live p95 of the store's latency reservoir (converted to wall time via
//! [`StoreMetrics::wall_scale`]), a duplicate request is submitted and the
//! first completion wins; the loser is cancelled (dequeued before it
//! reaches the backend when possible, its result discarded otherwise). A
//! [`CircuitBreaker`] on the hedge *win rate* suppresses hedging when the
//! store is globally slow — hedges that fire but never win are pure load.
//!
//! **Cancellation**: [`IoDispatcher::cancel`] removes a queued request
//! before any backend call is issued — this is what lets a streaming
//! `LIMIT` abandon speculative read-ahead without paying for it.

use crate::error::{Result, StoreError};
use crate::metrics::StoreMetrics;
use crate::path::ObjectPath;
use crate::retry::CircuitBreaker;
use crate::ObjectStore;
use bytes::Bytes;
use lakehouse_obs::{Counter, Gauge};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for an [`IoDispatcher`].
#[derive(Debug, Clone)]
pub struct IoConfig {
    /// Worker threads = maximum genuinely concurrent backend calls.
    pub depth: usize,
    /// Submission-queue capacity; `submit_*` blocks when full (backpressure
    /// so read-ahead cannot run unboundedly far in front of the consumer).
    pub queue_cap: usize,
    /// Hedged-read policy; `None` disables hedging.
    pub hedge: Option<HedgePolicy>,
}

impl IoConfig {
    /// `depth` workers, a `2 * depth` queue, no hedging.
    pub fn new(depth: usize) -> IoConfig {
        let depth = depth.max(1);
        IoConfig {
            depth,
            queue_cap: depth * 2,
            hedge: None,
        }
    }

    pub fn with_queue_cap(mut self, cap: usize) -> IoConfig {
        self.queue_cap = cap.max(1);
        self
    }

    pub fn with_hedge(mut self, hedge: HedgePolicy) -> IoConfig {
        self.hedge = Some(hedge);
        self
    }
}

/// When and how `wait` hedges a slow request.
#[derive(Debug, Clone)]
pub struct HedgePolicy {
    /// Latency quantile of the live [`StoreMetrics`] reservoir after which a
    /// request is considered tail-slow (default p95).
    pub quantile: f64,
    /// Floor on the hedge trigger delay, so a cold or near-zero reservoir
    /// cannot make every request hedge instantly.
    pub min_delay: Duration,
    /// Fixed trigger delay override; bypasses the live quantile entirely.
    /// Used by deterministic tests and available for operators who know
    /// their tail.
    pub hedge_after: Option<Duration>,
    /// Hedge-win outcomes remembered by the breaker.
    pub breaker_window: usize,
    /// Minimum hedge win rate over the window; below it the breaker opens.
    pub breaker_min_win_rate: f64,
    /// Admission checks swallowed while open before probing again.
    pub breaker_cooldown: u64,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            quantile: 0.95,
            min_delay: Duration::from_millis(1),
            hedge_after: None,
            breaker_window: 16,
            breaker_min_win_rate: 0.25,
            breaker_cooldown: 64,
        }
    }
}

impl HedgePolicy {
    pub fn with_hedge_after(mut self, delay: Duration) -> HedgePolicy {
        self.hedge_after = Some(delay);
        self
    }
}

/// Completion token for a submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoTicket(u64);

/// A finished request: the payload plus the latency it was charged.
#[derive(Debug)]
pub struct IoCompletion {
    pub result: Result<Bytes>,
    /// Simulated lane-nanos the executing worker was charged for this
    /// request (0 when the store has no metrics). Callers fold this into
    /// their own lane accounting to keep overlapped sim wall-clock honest.
    pub sim_nanos: u64,
    /// Real elapsed time from submission to completion.
    pub wall: Duration,
    /// Whether this payload came from a hedge request rather than the
    /// original submission.
    pub hedged: bool,
}

#[derive(Debug, Clone)]
enum IoOp {
    Get(ObjectPath),
    GetRange(ObjectPath, usize, usize),
}

/// What a worker leaves in a finished slot. A buffer the store allocated
/// *for this request* lives in the worker's allocator arena, and memory freed
/// into a worker's arena is never reused by the consumer's thread — eight
/// workers each strand the high-water mark of a window of files. So a worker
/// moves such a buffer's bytes into the one the submitter allocated and
/// frees its own at once; a buffer that is shared (a slice of an in-memory
/// object, a pool page) cost the worker nothing and passes through as is.
enum Payload {
    Shared(Bytes),
    Moved(Vec<u8>),
}

/// A completion as the worker records it; [`Finished::claim`] turns it into
/// the caller's [`IoCompletion`] on the claiming thread.
struct Finished {
    result: Result<Payload>,
    sim_nanos: u64,
    wall: Duration,
    hedged: bool,
}

impl Finished {
    fn claim(self) -> IoCompletion {
        IoCompletion {
            result: self.result.map(|payload| match payload {
                Payload::Shared(bytes) => bytes,
                Payload::Moved(buffer) => Bytes::from(buffer),
            }),
            sim_nanos: self.sim_nanos,
            wall: self.wall,
            hedged: self.hedged,
        }
    }
}

enum SlotState {
    Queued,
    Running,
    Done(Finished),
    /// Cancelled while running; the worker discards the result and removes
    /// the slot when the backend call returns.
    Abandoned,
}

struct Slot {
    op: IoOp,
    deadline: Option<Duration>,
    submitted_at: Instant,
    hedge: bool,
    /// Query context captured at submit time: the worker enters it around
    /// the backend call, so bytes/ops (including speculative read-ahead and
    /// hedges) are charged to the query that submitted the request, not to
    /// whichever worker thread happens to run it.
    ctx: Option<lakehouse_obs::QueryCtx>,
    /// Allocated by the submitter, sized for a range request's payload; see
    /// [`Payload`].
    buffer: Vec<u8>,
    state: SlotState,
}

/// Per-dispatcher counters (tests read these; process-global `io.*`
/// registry counters mirror them for `bauplan profile`).
#[derive(Debug, Default)]
struct StatsInner {
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    hedges_fired: AtomicU64,
    hedges_won: AtomicU64,
    inflight: AtomicU64,
}

/// Snapshot of a dispatcher's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Requests accepted (including hedges).
    pub submitted: u64,
    /// Completions claimed by `poll`/`wait`.
    pub completed: u64,
    /// Requests cancelled before their result was claimed (dequeued,
    /// abandoned mid-flight, or discarded as a hedge loser).
    pub cancelled: u64,
    /// Hedge requests issued.
    pub hedges_fired: u64,
    /// Races the hedge won.
    pub hedges_won: u64,
    /// Requests currently submitted but neither claimed nor cancelled.
    pub inflight: u64,
}

struct ObsCounters {
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    cancelled: Arc<Counter>,
    hedge_fired: Arc<Counter>,
    hedge_won: Arc<Counter>,
    hedge_cancelled: Arc<Counter>,
    inflight: Arc<Gauge>,
}

impl ObsCounters {
    fn register() -> ObsCounters {
        let reg = lakehouse_obs::global();
        ObsCounters {
            submitted: reg.counter("io.submitted"),
            completed: reg.counter("io.completed"),
            cancelled: reg.counter("io.cancelled"),
            hedge_fired: reg.counter("io.hedge_fired"),
            hedge_won: reg.counter("io.hedge_won"),
            hedge_cancelled: reg.counter("io.hedge_cancelled"),
            inflight: reg.gauge("io.inflight"),
        }
    }
}

struct Shared {
    store: Arc<dyn ObjectStore>,
    metrics: Option<Arc<StoreMetrics>>,
    queue_cap: usize,
    /// Submission queue of request ids; `slots` holds the payloads.
    queue: Mutex<VecDeque<u64>>,
    /// Wakes workers when work arrives (or shutdown).
    work_ready: Condvar,
    /// Wakes blocked submitters when queue space frees.
    space_ready: Condvar,
    slots: Mutex<HashMap<u64, Slot>>,
    /// Wakes `wait` when any slot transitions to Done.
    completion_ready: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    stats: StatsInner,
    obs: ObsCounters,
}

impl Shared {
    fn dec_inflight(&self) {
        let prev = self.stats.inflight.fetch_sub(1, Ordering::Relaxed);
        self.obs.inflight.set(prev.saturating_sub(1));
    }

    fn note_cancelled(&self) {
        self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
        self.obs.cancelled.inc();
        self.dec_inflight();
    }
}

/// Bounded-queue worker-pool dispatcher. See the module docs.
pub struct IoDispatcher {
    shared: Arc<Shared>,
    breaker: Option<CircuitBreaker>,
    hedge: Option<HedgePolicy>,
    depth: usize,
    workers: Vec<JoinHandle<()>>,
}

impl IoDispatcher {
    pub fn new(store: Arc<dyn ObjectStore>, config: IoConfig) -> IoDispatcher {
        let metrics = store.store_metrics();
        let shared = Arc::new(Shared {
            store,
            metrics,
            queue_cap: config.queue_cap.max(1),
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            slots: Mutex::new(HashMap::new()),
            completion_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            stats: StatsInner::default(),
            obs: ObsCounters::register(),
        });
        let workers = (0..config.depth.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("io-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn io worker")
            })
            .collect();
        let breaker = config.hedge.as_ref().map(|h| {
            CircuitBreaker::new(h.breaker_window, h.breaker_min_win_rate, h.breaker_cooldown)
        });
        IoDispatcher {
            shared,
            breaker,
            hedge: config.hedge,
            depth: config.depth.max(1),
            workers,
        }
    }

    /// Worker-pool size = maximum genuinely concurrent backend calls.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Submit a whole-object get. Blocks while the submission queue is full.
    pub fn submit_get(&self, path: &ObjectPath, deadline: Option<Duration>) -> IoTicket {
        self.submit(IoOp::Get(path.clone()), deadline, false, false)
    }

    /// Submit a byte-range get. Blocks while the submission queue is full.
    pub fn submit_get_range(
        &self,
        path: &ObjectPath,
        start: usize,
        end: usize,
        deadline: Option<Duration>,
    ) -> IoTicket {
        self.submit(
            IoOp::GetRange(path.clone(), start, end),
            deadline,
            false,
            false,
        )
    }

    fn submit(&self, op: IoOp, deadline: Option<Duration>, hedge: bool, front: bool) -> IoTicket {
        let sh = &self.shared;
        let id = sh.next_id.fetch_add(1, Ordering::Relaxed);
        let buffer = match &op {
            IoOp::GetRange(_, start, end) => Vec::with_capacity(end.saturating_sub(*start)),
            IoOp::Get(_) => Vec::new(),
        };
        {
            let mut queue = sh.queue.lock().expect("io queue poisoned");
            // Hedges bypass backpressure: they are latency-critical, at most
            // one per in-flight wait, and jump the line past read-ahead.
            if !hedge {
                while queue.len() >= sh.queue_cap {
                    queue = sh.space_ready.wait(queue).expect("io queue poisoned");
                }
            }
            sh.slots.lock().expect("io slots poisoned").insert(
                id,
                Slot {
                    op,
                    deadline,
                    submitted_at: Instant::now(),
                    hedge,
                    ctx: lakehouse_obs::QueryCtx::current(),
                    buffer,
                    state: SlotState::Queued,
                },
            );
            if front {
                queue.push_front(id);
            } else {
                queue.push_back(id);
            }
            sh.work_ready.notify_one();
        }
        sh.stats.submitted.fetch_add(1, Ordering::Relaxed);
        sh.obs.submitted.inc();
        let cur = sh.stats.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        sh.obs.inflight.set(cur);
        IoTicket(id)
    }

    /// Non-blocking: claim the completion if the request has finished.
    pub fn poll(&self, ticket: IoTicket) -> Option<IoCompletion> {
        let sh = &self.shared;
        let mut slots = sh.slots.lock().expect("io slots poisoned");
        match slots.get(&ticket.0) {
            Some(Slot {
                state: SlotState::Done(_),
                ..
            }) => {
                let slot = slots.remove(&ticket.0).expect("slot just seen");
                drop(slots);
                sh.stats.completed.fetch_add(1, Ordering::Relaxed);
                sh.obs.completed.inc();
                sh.dec_inflight();
                match slot.state {
                    SlotState::Done(done) => Some(done.claim()),
                    _ => unreachable!("matched Done above"),
                }
            }
            _ => None,
        }
    }

    /// Block until the request completes, hedging it if it runs tail-slow
    /// (see module docs). Returns an error completion for unknown tickets.
    pub fn wait(&self, ticket: IoTicket) -> IoCompletion {
        match self.hedge_delay() {
            Some(delay) => self.wait_hedged(ticket, delay),
            None => self.wait_plain(ticket),
        }
    }

    /// Cancel a request. Queued requests are dequeued before any backend
    /// call; running ones have their result discarded on completion;
    /// finished-but-unclaimed ones are dropped. Returns false if the ticket
    /// was already claimed or cancelled.
    pub fn cancel(&self, ticket: IoTicket) -> bool {
        let sh = &self.shared;
        let mut slots = sh.slots.lock().expect("io slots poisoned");
        match slots.get_mut(&ticket.0) {
            Some(slot) => match slot.state {
                SlotState::Queued => {
                    // Leave the ghost id in the queue; the worker skips ids
                    // with no slot, so no backend call is ever issued.
                    slots.remove(&ticket.0);
                    drop(slots);
                    sh.note_cancelled();
                    true
                }
                SlotState::Running => {
                    slot.state = SlotState::Abandoned;
                    drop(slots);
                    sh.note_cancelled();
                    true
                }
                SlotState::Done(_) => {
                    slots.remove(&ticket.0);
                    drop(slots);
                    sh.note_cancelled();
                    true
                }
                SlotState::Abandoned => false,
            },
            None => false,
        }
    }

    /// Lifetime counters for this dispatcher instance.
    pub fn stats(&self) -> IoStats {
        let s = &self.shared.stats;
        IoStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            cancelled: s.cancelled.load(Ordering::Relaxed),
            hedges_fired: s.hedges_fired.load(Ordering::Relaxed),
            hedges_won: s.hedges_won.load(Ordering::Relaxed),
            inflight: s.inflight.load(Ordering::Relaxed),
        }
    }

    /// Whether the hedge circuit breaker is currently open.
    pub fn hedge_breaker_open(&self) -> bool {
        self.breaker.as_ref().is_some_and(CircuitBreaker::is_open)
    }

    /// The wall-clock delay after which `wait` hedges, if hedging can work
    /// right now. `None` when hedging is disabled, the store records no
    /// latency, or simulated latency never sleeps (`wall_scale` 0 — tail
    /// latency does not exist in wall time, so a timeout can never fire).
    fn hedge_delay(&self) -> Option<Duration> {
        let policy = self.hedge.as_ref()?;
        if let Some(fixed) = policy.hedge_after {
            return Some(fixed.max(policy.min_delay));
        }
        let metrics = self.shared.metrics.as_ref()?;
        let scale = metrics.wall_scale();
        if scale <= 0.0 {
            return None;
        }
        let sim_p = metrics.latency_percentile(policy.quantile)?;
        Some(sim_p.mul_f64(scale).max(policy.min_delay))
    }

    fn wait_plain(&self, ticket: IoTicket) -> IoCompletion {
        let sh = &self.shared;
        let ctx = lakehouse_obs::QueryCtx::current();
        let mut slots = sh.slots.lock().expect("io slots poisoned");
        loop {
            match take_if_done(&mut slots, ticket.0) {
                TakeResult::Done(c) => {
                    drop(slots);
                    sh.stats.completed.fetch_add(1, Ordering::Relaxed);
                    sh.obs.completed.inc();
                    sh.dec_inflight();
                    return c;
                }
                TakeResult::Gone => {
                    drop(slots);
                    return unknown_ticket();
                }
                TakeResult::Pending => {
                    // Cooperative cancellation: a killed query abandons the
                    // ticket (cancelling it so in-flight accounting drains)
                    // instead of blocking until the backend call lands.
                    if let Some(reason) = check_token(&ctx) {
                        drop(slots);
                        self.cancel(ticket);
                        return killed_completion(reason);
                    }
                    let (guard, _timeout) = sh
                        .completion_ready
                        .wait_timeout(slots, TOKEN_POLL)
                        .expect("io slots poisoned");
                    slots = guard;
                }
            }
        }
    }

    fn wait_hedged(&self, ticket: IoTicket, delay: Duration) -> IoCompletion {
        let sh = &self.shared;
        let ctx = lakehouse_obs::QueryCtx::current();
        let started = Instant::now();
        // Phase 1: give the primary its hedge window.
        {
            let mut slots = sh.slots.lock().expect("io slots poisoned");
            loop {
                match take_if_done(&mut slots, ticket.0) {
                    TakeResult::Done(c) => {
                        drop(slots);
                        sh.stats.completed.fetch_add(1, Ordering::Relaxed);
                        sh.obs.completed.inc();
                        sh.dec_inflight();
                        return c;
                    }
                    TakeResult::Gone => {
                        drop(slots);
                        return unknown_ticket();
                    }
                    TakeResult::Pending => {}
                }
                if let Some(reason) = check_token(&ctx) {
                    drop(slots);
                    self.cancel(ticket);
                    return killed_completion(reason);
                }
                let elapsed = started.elapsed();
                if elapsed >= delay {
                    break;
                }
                let (guard, _timeout) = sh
                    .completion_ready
                    .wait_timeout(slots, (delay - elapsed).min(TOKEN_POLL))
                    .expect("io slots poisoned");
                slots = guard;
            }
        }
        // Tail-slow. Ask the breaker whether a hedge is worth issuing.
        let allowed = self.breaker.as_ref().map(CircuitBreaker::allow);
        if allowed == Some(false) {
            return self.wait_plain(ticket);
        }
        let Some((op, deadline)) = ({
            let slots = sh.slots.lock().expect("io slots poisoned");
            slots.get(&ticket.0).map(|s| (s.op.clone(), s.deadline))
        }) else {
            return unknown_ticket();
        };
        let hedge_path = match &op {
            IoOp::Get(path) | IoOp::GetRange(path, _, _) => path.to_string(),
        };
        let hedge_ticket = self.submit(op, deadline, true, true);
        sh.stats.hedges_fired.fetch_add(1, Ordering::Relaxed);
        sh.obs.hedge_fired.inc();
        lakehouse_obs::recorder().record(lakehouse_obs::EventKind::HedgeFired, &hedge_path, 0);
        // Phase 2: first completion wins; cancel the loser.
        let mut slots = sh.slots.lock().expect("io slots poisoned");
        loop {
            let (winner, loser, hedged) = match take_if_done(&mut slots, ticket.0) {
                TakeResult::Done(c) => (c, hedge_ticket, false),
                TakeResult::Gone => {
                    drop(slots);
                    return unknown_ticket();
                }
                TakeResult::Pending => match take_if_done(&mut slots, hedge_ticket.0) {
                    TakeResult::Done(c) => (c, ticket, true),
                    _ => {
                        // A kill abandons both racers so neither leaks.
                        if let Some(reason) = check_token(&ctx) {
                            drop(slots);
                            self.cancel(ticket);
                            self.cancel(hedge_ticket);
                            return killed_completion(reason);
                        }
                        let (guard, _timeout) = sh
                            .completion_ready
                            .wait_timeout(slots, TOKEN_POLL)
                            .expect("io slots poisoned");
                        slots = guard;
                        continue;
                    }
                },
            };
            drop(slots);
            sh.stats.completed.fetch_add(1, Ordering::Relaxed);
            sh.obs.completed.inc();
            sh.dec_inflight();
            if hedged {
                sh.stats.hedges_won.fetch_add(1, Ordering::Relaxed);
                sh.obs.hedge_won.inc();
                lakehouse_obs::recorder().record(
                    lakehouse_obs::EventKind::HedgeWon,
                    &hedge_path,
                    winner.sim_nanos,
                );
            }
            if let Some(b) = &self.breaker {
                b.record(hedged);
            }
            if self.cancel(loser) {
                sh.obs.hedge_cancelled.inc();
            }
            return IoCompletion { hedged, ..winner };
        }
    }
}

impl Drop for IoDispatcher {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Grab the queue lock so workers blocked in wait() observe the
        // flag on wake-up; notify everyone out of their condvars.
        {
            let _queue = self.shared.queue.lock().expect("io queue poisoned");
            self.shared.work_ready.notify_all();
            self.shared.space_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// How often a blocked `wait` re-checks its query's cancel token. Bounds
/// how long a killed query can stay parked on the completion condvar.
const TOKEN_POLL: Duration = Duration::from_millis(5);

/// The waiter's token verdict, if it has a context and the token tripped.
fn check_token(ctx: &Option<lakehouse_obs::QueryCtx>) -> Option<lakehouse_obs::KillReason> {
    ctx.as_ref().and_then(|c| c.check().err())
}

fn killed_completion(reason: lakehouse_obs::KillReason) -> IoCompletion {
    IoCompletion {
        result: Err(StoreError::QueryKilled { reason }),
        sim_nanos: 0,
        wall: Duration::ZERO,
        hedged: false,
    }
}

enum TakeResult {
    Done(IoCompletion),
    Pending,
    Gone,
}

fn take_if_done(slots: &mut HashMap<u64, Slot>, id: u64) -> TakeResult {
    match slots.get(&id) {
        Some(Slot {
            state: SlotState::Done(_),
            ..
        }) => match slots.remove(&id).map(|s| s.state) {
            Some(SlotState::Done(done)) => TakeResult::Done(done.claim()),
            _ => unreachable!("matched Done above"),
        },
        Some(_) => TakeResult::Pending,
        None => TakeResult::Gone,
    }
}

fn unknown_ticket() -> IoCompletion {
    IoCompletion {
        result: Err(StoreError::NotFound("io ticket".to_string())),
        sim_nanos: 0,
        wall: Duration::ZERO,
        hedged: false,
    }
}

fn worker_loop(sh: &Shared) {
    loop {
        let id = {
            let mut queue = sh.queue.lock().expect("io queue poisoned");
            loop {
                if sh.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    sh.space_ready.notify_one();
                    break id;
                }
                queue = sh.work_ready.wait(queue).expect("io queue poisoned");
            }
        };
        // Claim the slot; a ghost id (cancelled while queued) is skipped
        // without touching the backend.
        let (op, deadline, submitted_at, ctx, mut buffer) = {
            let mut slots = sh.slots.lock().expect("io slots poisoned");
            match slots.get_mut(&id) {
                Some(slot) => {
                    slot.state = SlotState::Running;
                    (
                        slot.op.clone(),
                        slot.deadline,
                        slot.submitted_at,
                        slot.ctx.clone(),
                        std::mem::take(&mut slot.buffer),
                    )
                }
                None => continue,
            }
        };
        // A killed submitter's backend call is skipped entirely: complete
        // the slot with the typed error so any waiter wakes and the
        // in-flight count still drains through the normal claim path.
        if let Some(reason) = ctx.as_ref().and_then(|c| c.check().err()) {
            let mut slots = sh.slots.lock().expect("io slots poisoned");
            if let Some(slot) = slots.get_mut(&id) {
                if matches!(slot.state, SlotState::Abandoned) {
                    slots.remove(&id);
                } else {
                    let hedged = slot.hedge;
                    slot.state = SlotState::Done(Finished {
                        result: Err(StoreError::QueryKilled { reason }),
                        sim_nanos: 0,
                        wall: submitted_at.elapsed(),
                        hedged,
                    });
                    sh.completion_ready.notify_all();
                }
            }
            continue;
        }
        let lane_before = sh.metrics.as_ref().map(|m| m.lane_nanos());
        let mut result = {
            // Attribute the backend call (and everything it charges) to the
            // submitting query.
            let _attributed = ctx.as_ref().map(lakehouse_obs::QueryCtx::enter);
            match &op {
                IoOp::Get(path) => sh.store.get(path),
                IoOp::GetRange(path, start, end) => sh.store.get_range(path, *start, *end),
            }
        };
        let sim_nanos = match (&sh.metrics, lane_before) {
            (Some(m), Some(before)) => m.lane_nanos().saturating_sub(before),
            _ => 0,
        };
        let wall = submitted_at.elapsed();
        // Deadline is checked post-hoc against the charge the request
        // actually incurred (simulated lane time when the store simulates,
        // wall time otherwise) — the same client-side-timeout semantics as
        // `RetryStore`.
        if result.is_ok() {
            if let Some(deadline) = deadline {
                let elapsed = if sh.metrics.is_some() {
                    Duration::from_nanos(sim_nanos)
                } else {
                    wall
                };
                if elapsed > deadline {
                    result = Err(StoreError::Timeout {
                        op: "io_submit".to_string(),
                        deadline,
                    });
                }
            }
        }
        let result = result.map(|bytes| {
            if bytes.is_unique() && bytes.len() <= buffer.capacity() {
                buffer.extend_from_slice(&bytes);
                Payload::Moved(buffer)
            } else {
                Payload::Shared(bytes)
            }
        });
        let mut slots = sh.slots.lock().expect("io slots poisoned");
        if let Some(slot) = slots.get_mut(&id) {
            if matches!(slot.state, SlotState::Abandoned) {
                // Cancelled mid-flight: accounting already done.
                slots.remove(&id);
            } else {
                let hedged = slot.hedge;
                slot.state = SlotState::Done(Finished {
                    result,
                    sim_nanos,
                    wall,
                    hedged,
                });
                sh.completion_ready.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{LatencyModel, SimulatedStore};
    use crate::memory::InMemoryStore;

    fn p(s: &str) -> ObjectPath {
        ObjectPath::new(s).unwrap()
    }

    /// A store whose every op really sleeps, with a deterministic bimodal
    /// option (every `slow_every`-th op is slow) and an op counter.
    struct SleepyStore {
        inner: InMemoryStore,
        fast: Duration,
        slow: Duration,
        /// op index n is slow when `slow_every > 0 && n % slow_every == 0`.
        slow_every: u64,
        ops: AtomicU64,
    }

    impl SleepyStore {
        fn uniform(delay: Duration) -> SleepyStore {
            SleepyStore {
                inner: InMemoryStore::new(),
                fast: delay,
                slow: delay,
                slow_every: 0,
                ops: AtomicU64::new(0),
            }
        }

        fn bimodal(fast: Duration, slow: Duration, slow_every: u64) -> SleepyStore {
            SleepyStore {
                inner: InMemoryStore::new(),
                fast,
                slow,
                slow_every,
                ops: AtomicU64::new(0),
            }
        }

        fn gets(&self) -> u64 {
            self.ops.load(Ordering::Relaxed)
        }

        fn nap(&self) {
            let n = self.ops.fetch_add(1, Ordering::Relaxed);
            let d = if self.slow_every > 0 && n.is_multiple_of(self.slow_every) {
                self.slow
            } else {
                self.fast
            };
            std::thread::sleep(d);
        }
    }

    impl ObjectStore for SleepyStore {
        fn put(&self, path: &ObjectPath, data: Bytes) -> Result<()> {
            self.inner.put(path, data)
        }
        fn get(&self, path: &ObjectPath) -> Result<Bytes> {
            self.nap();
            self.inner.get(path)
        }
        fn get_range(&self, path: &ObjectPath, start: usize, end: usize) -> Result<Bytes> {
            self.nap();
            self.inner.get_range(path, start, end)
        }
        fn head(&self, path: &ObjectPath) -> Result<usize> {
            self.inner.head(path)
        }
        fn list(&self, prefix: &str) -> Result<Vec<ObjectPath>> {
            self.inner.list(prefix)
        }
        fn delete(&self, path: &ObjectPath) -> Result<()> {
            self.inner.delete(path)
        }
        fn put_if_matches(
            &self,
            path: &ObjectPath,
            expected: Option<&[u8]>,
            data: Bytes,
        ) -> Result<()> {
            self.inner.put_if_matches(path, expected, data)
        }
    }

    fn seeded(store: &dyn ObjectStore, n: usize) -> Vec<ObjectPath> {
        (0..n)
            .map(|i| {
                let path = p(&format!("obj/{i}"));
                store
                    .put(&path, Bytes::from(format!("payload-{i}")))
                    .unwrap();
                path
            })
            .collect()
    }

    #[test]
    fn in_flight_gets_genuinely_overlap_real_sleeps() {
        let store = Arc::new(SleepyStore::uniform(Duration::from_millis(30)));
        let paths = seeded(store.as_ref(), 8);
        let dispatcher = IoDispatcher::new(store, IoConfig::new(8));
        let start = Instant::now();
        let tickets: Vec<_> = paths
            .iter()
            .map(|path| dispatcher.submit_get(path, None))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let c = dispatcher.wait(t);
            assert_eq!(
                c.result.unwrap(),
                Bytes::from(format!("payload-{i}")),
                "byte-identical payload"
            );
        }
        let elapsed = start.elapsed();
        // Serial would be 8 * 30 ms = 240 ms; overlapped at depth 8 is one
        // round trip. Allow generous scheduling slack.
        assert!(
            elapsed < Duration::from_millis(120),
            "8 overlapped 30 ms gets took {elapsed:?}"
        );
    }

    #[test]
    fn sim_lane_nanos_are_reported_per_completion() {
        let model = LatencyModel {
            sigma: 0.0,
            ..LatencyModel::s3_like()
        };
        let sim = SimulatedStore::new(InMemoryStore::new(), model);
        let paths = seeded(&sim, 2);
        let dispatcher = IoDispatcher::new(Arc::new(sim), IoConfig::new(2));
        for path in &paths {
            let t = dispatcher.submit_get(path, None);
            let c = dispatcher.wait(t);
            assert!(c.result.is_ok());
            assert!(
                c.sim_nanos >= Duration::from_millis(10).as_nanos() as u64,
                "completion must carry the simulated charge, got {}",
                c.sim_nanos
            );
        }
    }

    #[test]
    fn deadline_times_out_slow_requests() {
        let model = LatencyModel {
            sigma: 0.0,
            ..LatencyModel::s3_like()
        };
        let sim = SimulatedStore::new(InMemoryStore::new(), model);
        let paths = seeded(&sim, 1);
        let dispatcher = IoDispatcher::new(Arc::new(sim), IoConfig::new(1));
        let t = dispatcher.submit_get(&paths[0], Some(Duration::from_millis(1)));
        let c = dispatcher.wait(t);
        assert!(
            matches!(c.result, Err(StoreError::Timeout { .. })),
            "15 ms simulated get vs 1 ms deadline must time out, got {:?}",
            c.result
        );
    }

    #[test]
    fn cancelled_queued_requests_never_reach_the_backend() {
        let store = Arc::new(SleepyStore::uniform(Duration::from_millis(20)));
        let paths = seeded(store.as_ref(), 3);
        let dispatcher =
            IoDispatcher::new(Arc::clone(&store) as Arc<dyn ObjectStore>, IoConfig::new(1));
        let t0 = dispatcher.submit_get(&paths[0], None);
        let t1 = dispatcher.submit_get(&paths[1], None);
        let t2 = dispatcher.submit_get(&paths[2], None);
        // t0 is running (or about to); t2 is queued behind t1 — cancel it.
        assert!(dispatcher.cancel(t2));
        assert!(dispatcher.wait(t0).result.is_ok());
        assert!(dispatcher.wait(t1).result.is_ok());
        drop(dispatcher);
        assert_eq!(
            store.gets(),
            2,
            "cancelled request must not hit the backend"
        );
    }

    #[test]
    fn poll_is_nonblocking_and_eventually_done() {
        let store = Arc::new(SleepyStore::uniform(Duration::from_millis(10)));
        let paths = seeded(store.as_ref(), 1);
        let dispatcher = IoDispatcher::new(store, IoConfig::new(1));
        let t = dispatcher.submit_get(&paths[0], None);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(c) = dispatcher.poll(t) {
                assert!(c.result.is_ok());
                break;
            }
            assert!(Instant::now() < deadline, "poll never completed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(dispatcher.stats().inflight, 0);
    }

    #[test]
    fn submission_queue_applies_backpressure() {
        let store = Arc::new(SleepyStore::uniform(Duration::from_millis(30)));
        let paths = seeded(store.as_ref(), 4);
        let dispatcher = Arc::new(IoDispatcher::new(
            Arc::clone(&store) as Arc<dyn ObjectStore>,
            IoConfig::new(1).with_queue_cap(1),
        ));
        // Worker takes one; queue holds one; the third submission must wait
        // for the worker to drain the queue.
        let t0 = dispatcher.submit_get(&paths[0], None);
        let t1 = dispatcher.submit_get(&paths[1], None);
        let d2 = Arc::clone(&dispatcher);
        let p2 = paths[2].clone();
        let start = Instant::now();
        let h = std::thread::spawn(move || {
            let t2 = d2.submit_get(&p2, None);
            (t2, start.elapsed())
        });
        assert!(dispatcher.wait(t0).result.is_ok());
        let (t2, submit_wait) = h.join().unwrap();
        assert!(
            submit_wait >= Duration::from_millis(10),
            "third submit should have blocked on the full queue, waited {submit_wait:?}"
        );
        assert!(dispatcher.wait(t1).result.is_ok());
        assert!(dispatcher.wait(t2).result.is_ok());
    }

    #[test]
    fn hedge_fires_and_wins_on_deterministic_bimodal_tail() {
        // Op 0 (the primary) sleeps 60 ms; op 1 (the hedge) sleeps 2 ms.
        let store = Arc::new(SleepyStore::bimodal(
            Duration::from_millis(2),
            Duration::from_millis(60),
            1_000_000,
        ));
        let paths = seeded(store.as_ref(), 1);
        let config = IoConfig::new(2)
            .with_hedge(HedgePolicy::default().with_hedge_after(Duration::from_millis(10)));
        let dispatcher = IoDispatcher::new(Arc::clone(&store) as Arc<dyn ObjectStore>, config);
        let start = Instant::now();
        let t = dispatcher.submit_get(&paths[0], None);
        let c = dispatcher.wait(t);
        let elapsed = start.elapsed();
        assert_eq!(c.result.unwrap(), Bytes::from("payload-0"));
        assert!(c.hedged, "the fast hedge must win the race");
        let stats = dispatcher.stats();
        assert_eq!(stats.hedges_fired, 1);
        assert_eq!(stats.hedges_won, 1);
        assert!(
            elapsed < Duration::from_millis(45),
            "hedge should beat the 60 ms primary, took {elapsed:?}"
        );
        // The slow primary is the cancelled loser.
        assert_eq!(stats.cancelled, 1);
    }

    #[test]
    fn breaker_suppresses_hedging_when_store_is_globally_slow() {
        // Every op takes 15 ms: hedges (fired after 2 ms) always lose the
        // race to the earlier-started primary.
        let store = Arc::new(SleepyStore::uniform(Duration::from_millis(15)));
        let paths = seeded(store.as_ref(), 10);
        let mut hedge = HedgePolicy::default().with_hedge_after(Duration::from_millis(2));
        hedge.breaker_window = 4;
        hedge.breaker_min_win_rate = 0.5;
        hedge.breaker_cooldown = 100;
        let config = IoConfig::new(2).with_hedge(hedge);
        let dispatcher = IoDispatcher::new(Arc::clone(&store) as Arc<dyn ObjectStore>, config);
        for path in &paths {
            let t = dispatcher.submit_get(path, None);
            assert!(dispatcher.wait(t).result.is_ok());
        }
        let stats = dispatcher.stats();
        assert_eq!(
            stats.hedges_fired, 4,
            "breaker must open after the 4-op window of lost hedges"
        );
        assert_eq!(stats.hedges_won, 0);
        assert!(dispatcher.hedge_breaker_open());
    }

    #[test]
    fn hedged_completion_is_byte_identical() {
        let store = Arc::new(SleepyStore::bimodal(
            Duration::from_millis(1),
            Duration::from_millis(40),
            1_000_000,
        ));
        let paths = seeded(store.as_ref(), 1);
        let unhedged = {
            let d = IoDispatcher::new(Arc::clone(&store) as Arc<dyn ObjectStore>, IoConfig::new(2));
            // Burn op 0 (slow) so both runs read the same object bytes.
            let t = d.submit_get(&paths[0], None);
            d.wait(t).result.unwrap()
        };
        let hedged = {
            let config = IoConfig::new(2)
                .with_hedge(HedgePolicy::default().with_hedge_after(Duration::from_millis(5)));
            let d = IoDispatcher::new(Arc::clone(&store) as Arc<dyn ObjectStore>, config);
            let t = d.submit_get(&paths[0], None);
            d.wait(t).result.unwrap()
        };
        assert_eq!(unhedged, hedged);
    }

    #[test]
    fn hedging_disabled_under_sleep_mode_none() {
        // No wall sleeping => no wall tail => live-quantile hedging reports
        // no trigger delay.
        let sim = SimulatedStore::new(InMemoryStore::new(), LatencyModel::s3_like());
        let paths = seeded(&sim, 4);
        let config = IoConfig::new(2).with_hedge(HedgePolicy::default());
        let dispatcher = IoDispatcher::new(Arc::new(sim), config);
        for path in &paths {
            let t = dispatcher.submit_get(path, None);
            assert!(dispatcher.wait(t).result.is_ok());
        }
        assert_eq!(dispatcher.stats().hedges_fired, 0);
    }

    #[test]
    fn drop_joins_workers_with_pending_queue() {
        let store = Arc::new(SleepyStore::uniform(Duration::from_millis(5)));
        let paths = seeded(store.as_ref(), 6);
        let dispatcher =
            IoDispatcher::new(Arc::clone(&store) as Arc<dyn ObjectStore>, IoConfig::new(2));
        for path in &paths {
            dispatcher.submit_get(path, None);
        }
        drop(dispatcher); // must not hang or panic
    }

    #[test]
    fn killed_query_wait_returns_promptly_and_drains_inflight() {
        let store = Arc::new(SleepyStore::uniform(Duration::from_millis(50)));
        let paths = seeded(store.as_ref(), 2);
        let dispatcher =
            IoDispatcher::new(Arc::clone(&store) as Arc<dyn ObjectStore>, IoConfig::new(1));
        let ctx = lakehouse_obs::QueryCtx::new("t", "q");
        let _g = ctx.enter();
        let t0 = dispatcher.submit_get(&paths[0], None); // claimed by the worker
        let t1 = dispatcher.submit_get(&paths[1], None); // queued behind it
        ctx.kill(lakehouse_obs::KillReason::Canceled);
        let start = Instant::now();
        let c1 = dispatcher.wait(t1);
        assert!(
            matches!(c1.result, Err(StoreError::QueryKilled { .. })),
            "got {:?}",
            c1.result
        );
        assert!(
            start.elapsed() < Duration::from_millis(40),
            "killed wait must not block behind the 50 ms primary, took {:?}",
            start.elapsed()
        );
        // t0 races the kill: it may have completed, been skipped by the
        // worker's token check, or been abandoned by this wait — all fine,
        // as long as the ticket resolves and accounting drains.
        let _c0 = dispatcher.wait(t0);
        assert_eq!(
            dispatcher.stats().inflight,
            0,
            "abandoned tickets must drain the in-flight count"
        );
        drop(dispatcher);
        assert!(
            store.gets() <= 1,
            "the queued request of a killed query must never reach the backend"
        );
    }

    #[test]
    fn get_range_submissions_slice_correctly() {
        let sim = SimulatedStore::new(InMemoryStore::new(), LatencyModel::zero());
        let path = p("obj/r");
        sim.put(&path, Bytes::from_static(b"hello world")).unwrap();
        let dispatcher = IoDispatcher::new(Arc::new(sim), IoConfig::new(2));
        let t = dispatcher.submit_get_range(&path, 6, 11, None);
        assert_eq!(
            dispatcher.wait(t).result.unwrap(),
            Bytes::from_static(b"world")
        );
    }
}
