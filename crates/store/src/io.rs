//! Completion-based I/O dispatcher over any [`ObjectStore`]: what lets a scan
//! overlap its data-file requests for real, even when the store sleeps.
//!
//! [`IoDispatcher::submit_get_range`] (or [`IoDispatcher::submit_get`], for
//! a whole object) puts a job on a queue shared by the
//! worker threads and returns an [`IoTicket`] owning the job's one-shot
//! completion channel; [`IoDispatcher::wait`] receives from it. Dropping a
//! ticket cancels it: a queued job never reaches the backend. The queue has
//! no bound — every stream bounds its own window. A tail-slow wait *hedges*:
//! a second job for the same range sends into the same channel, and the
//! first completion wins.

use crate::error::{Result, StoreError};
use crate::metrics::StoreMetrics;
use crate::path::ObjectPath;
use crate::ObjectStore;
use bytes::Bytes;
use lakehouse_obs::{Counter, Gauge, QueryCtx};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a blocked `wait` re-checks its query's kill token.
const TOKEN_POLL: Duration = Duration::from_millis(5);
/// A read slower than this quantile of the live latencies is tail-slow.
const HEDGE_QUANTILE: f64 = 0.95;
/// Floor on the hedge delay: a cold reservoir must not hedge every read.
const HEDGE_MIN_DELAY: Duration = Duration::from_millis(1);
/// Races the breaker counts at a time, the hedge win rate below which it
/// opens, and the tail-slow waits it then lets pass unhedged.
const BREAKER_WINDOW: usize = 16;
const BREAKER_MIN_WIN_RATE: f64 = 0.25;
const BREAKER_COOLDOWN: u64 = 64;

/// Hedge tail-slow reads, as the module docs and constants describe.
#[derive(Debug, Clone, Default)]
pub struct HedgePolicy {
    /// A fixed delay in place of the live quantile (tests).
    hedge_after: Option<Duration>,
}

/// A finished request: the payload plus the latency it was charged.
#[derive(Debug)]
pub struct IoCompletion {
    pub result: Result<Bytes>,
    /// Simulated lane-nanos the worker was charged for the request (0 when
    /// the store has no metrics), for the caller's lane accounting.
    pub sim_nanos: u64,
    /// Whether the payload came from a hedge rather than the first job.
    pub hedged: bool,
    /// Wall time of the backend call that produced the payload, on the
    /// worker that made it: no queueing, no waiting on the ticket.
    pub elapsed: Duration,
}

/// A payload as a worker sends it. Memory freed into a worker's arena is
/// never reused by the consumer's thread, so a worker moves what the store
/// allocated for it into the submitter's buffer and frees its own at once;
/// a shared buffer (an in-memory object's slice) passes as is.
enum Payload {
    Shared(Bytes),
    Moved(Vec<u8>),
}

struct Finished {
    result: Result<Payload>,
    sim_nanos: u64,
    hedged: bool,
    elapsed: Duration,
}

/// What a ticket asked for, shared with its jobs (a hedge reads it again).
struct Request {
    path: ObjectPath,
    /// `[start, end)`, or `None` for the whole object.
    range: Option<(usize, usize)>,
    /// Set once the ticket is gone: a job that has not started never does.
    abandoned: AtomicBool,
    done: SyncSender<Finished>,
}

/// One read as a worker runs it.
struct Job {
    request: Arc<Request>,
    hedged: bool,
    /// The submitting query, entered around the backend call so its bytes
    /// and ops (hedges included) are charged to it, not to the worker.
    ctx: Option<QueryCtx>,
    /// Allocated by the submitter, sized for the payload; see [`Payload`].
    buffer: Vec<u8>,
}

/// A submitted range read. Hand it to [`IoDispatcher::wait`]; dropping it
/// unclaimed cancels it.
pub struct IoTicket {
    done: Receiver<Finished>,
    request: Arc<Request>,
    /// Jobs submitted for this ticket and neither completed nor cancelled.
    outstanding: u64,
    counters: Arc<Counters>,
}

impl Drop for IoTicket {
    fn drop(&mut self) {
        self.request.abandoned.store(true, Ordering::Relaxed);
        let counters = &self.counters;
        counters.settle(&counters.cancelled, self.outstanding);
    }
}

/// Snapshot of a dispatcher's lifetime counters: every job `submitted`
/// (hedges included) ends `completed` (claimed by `wait`) or `cancelled`
/// (a dropped ticket, a killed wait, a hedge race's loser); `inflight` ones
/// have done neither yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    pub submitted: u64,
    pub completed: u64,
    pub cancelled: u64,
    pub hedges_fired: u64,
    pub hedges_won: u64,
    pub inflight: u64,
}

/// A dispatcher's count, mirrored by a process-wide `io.*` counter.
struct Tally(AtomicU64, Arc<Counter>);

impl Tally {
    fn new(name: &str) -> Tally {
        Tally(AtomicU64::new(0), lakehouse_obs::global().counter(name))
    }

    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
        self.1.add(n);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct Counters {
    submitted: Tally,
    completed: Tally,
    cancelled: Tally,
    hedges_fired: Tally,
    hedges_won: Tally,
    hedge_cancelled: Tally,
    inflight: Arc<Gauge>,
}

impl Counters {
    fn inflight(&self) -> u64 {
        let settled = self.completed.get() + self.cancelled.get();
        self.submitted.get().saturating_sub(settled)
    }

    /// `n` jobs start, or end as `outcome` (completed or cancelled).
    fn settle(&self, outcome: &Tally, n: u64) {
        outcome.add(n);
        self.inflight.set(self.inflight());
    }
}

/// Worker-pool dispatcher. See the module docs.
pub struct IoDispatcher {
    queue: Arc<Queue>,
    metrics: Option<Arc<StoreMetrics>>,
    counters: Arc<Counters>,
    hedge: Option<HedgePolicy>,
    breaker: Mutex<Breaker>,
    workers: Vec<JoinHandle<()>>,
}

impl IoDispatcher {
    /// `depth` (≥ 1) workers over `store`; fails only if one cannot spawn.
    pub fn new(
        store: Arc<dyn ObjectStore>,
        depth: usize,
        hedge: Option<HedgePolicy>,
    ) -> Result<IoDispatcher> {
        let queue = Arc::new(Queue::default());
        let counters = Counters {
            submitted: Tally::new("io.submitted"),
            completed: Tally::new("io.completed"),
            cancelled: Tally::new("io.cancelled"),
            hedges_fired: Tally::new("io.hedge_fired"),
            hedges_won: Tally::new("io.hedge_won"),
            hedge_cancelled: Tally::new("io.hedge_cancelled"),
            inflight: lakehouse_obs::global().gauge("io.inflight"),
        };
        let mut dispatcher = IoDispatcher {
            queue: Arc::clone(&queue),
            metrics: store.store_metrics(),
            counters: Arc::new(counters),
            hedge,
            breaker: Mutex::new(Breaker::default()),
            workers: Vec::new(),
        };
        for i in 0..depth.max(1) {
            let (store, queue) = (Arc::clone(&store), Arc::clone(&queue));
            let metrics = dispatcher.metrics.clone();
            // A failed spawn drops `dispatcher`, which joins the workers
            // already running.
            let worker = std::thread::Builder::new()
                .name(format!("io-worker-{i}"))
                .spawn(move || {
                    while let Some(job) = queue.pop() {
                        run(&*store, metrics.as_deref(), job);
                    }
                })?;
            dispatcher.workers.push(worker);
        }
        Ok(dispatcher)
    }

    /// Worker-pool size = maximum genuinely concurrent backend calls.
    pub fn depth(&self) -> usize {
        self.workers.len()
    }

    /// Queue a read of `[start, end)` of `path`.
    pub fn submit_get_range(&self, path: &ObjectPath, start: usize, end: usize) -> IoTicket {
        self.submit(path, Some((start, end)))
    }

    /// Queue a read of the whole of `path`.
    pub fn submit_get(&self, path: &ObjectPath) -> IoTicket {
        self.submit(path, None)
    }

    fn submit(&self, path: &ObjectPath, range: Option<(usize, usize)>) -> IoTicket {
        // Room for both racers' answers: a worker never blocks on a send.
        let (tx, done) = mpsc::sync_channel(2);
        let request = Request {
            path: path.clone(),
            range,
            abandoned: AtomicBool::new(false),
            done: tx,
        };
        let mut ticket = IoTicket {
            done,
            request: Arc::new(request),
            outstanding: 0,
            counters: Arc::clone(&self.counters),
        };
        self.push(&mut ticket, false);
        ticket
    }

    fn push(&self, ticket: &mut IoTicket, hedged: bool) {
        // A whole object's size is unknown: its payload passes as is.
        let size = ticket
            .request
            .range
            .map_or(0, |(start, end)| end.saturating_sub(start));
        let job = Job {
            request: Arc::clone(&ticket.request),
            hedged,
            ctx: QueryCtx::current(),
            buffer: Vec::with_capacity(size),
        };
        ticket.outstanding += 1;
        self.counters.settle(&self.counters.submitted, 1);
        self.queue.push(job);
    }

    /// Block until the request completes, hedging it if it runs tail-slow
    /// (see the module docs).
    pub fn wait(&self, mut ticket: IoTicket) -> IoCompletion {
        let ctx = QueryCtx::current();
        let mut hedge_at = self.hedge_delay().map(|delay| Instant::now() + delay);
        loop {
            let poll = hedge_at.map_or(TOKEN_POLL, |at| {
                at.saturating_duration_since(Instant::now()).min(TOKEN_POLL)
            });
            if let Ok(finished) = ticket.done.recv_timeout(poll) {
                return self.claim(ticket, finished);
            }
            // A killed query returns at once; dropping the ticket cancels
            // whatever it still has in flight.
            if let Some(reason) = ctx.as_ref().and_then(|c| c.check().err()) {
                return IoCompletion {
                    result: Err(StoreError::QueryKilled { reason }),
                    sim_nanos: 0,
                    hedged: false,
                    elapsed: Duration::ZERO,
                };
            }
            // Tail-slow: race a second job, unless hedges stopped winning.
            if hedge_at.is_some_and(|at| Instant::now() >= at) {
                hedge_at = None;
                if self.breaker.lock().allow() {
                    self.push(&mut ticket, true);
                    self.counters.hedges_fired.add(1);
                    let path = ticket.request.path.as_str();
                    lakehouse_obs::recorder().record(lakehouse_obs::EventKind::HedgeFired, path, 0);
                }
            }
        }
    }

    fn claim(&self, mut ticket: IoTicket, finished: Finished) -> IoCompletion {
        if ticket.outstanding > 1 {
            // A hedge race; the loser is cancelled as the ticket drops.
            self.breaker.lock().record(finished.hedged);
            self.counters.hedge_cancelled.add(1);
            if finished.hedged {
                self.counters.hedges_won.add(1);
                let (path, sim) = (ticket.request.path.as_str(), finished.sim_nanos);
                lakehouse_obs::recorder().record(lakehouse_obs::EventKind::HedgeWon, path, sim);
            }
        }
        ticket.outstanding -= 1;
        self.counters.settle(&self.counters.completed, 1);
        IoCompletion {
            result: finished.result.map(|payload| match payload {
                Payload::Shared(bytes) => bytes,
                Payload::Moved(buffer) => Bytes::from(buffer),
            }),
            sim_nanos: finished.sim_nanos,
            hedged: finished.hedged,
            elapsed: finished.elapsed,
        }
    }

    /// Lifetime counters for this dispatcher instance.
    pub fn stats(&self) -> IoStats {
        let c = &self.counters;
        IoStats {
            submitted: c.submitted.get(),
            completed: c.completed.get(),
            cancelled: c.cancelled.get(),
            hedges_fired: c.hedges_fired.get(),
            hedges_won: c.hedges_won.get(),
            inflight: c.inflight(),
        }
    }

    /// The wall-clock delay after which `wait` hedges: the live p95 of the
    /// store's latency scaled by [`StoreMetrics::wall_scale`]. `None` when
    /// hedging is off or cannot work (no latency recorded, or none slept).
    fn hedge_delay(&self) -> Option<Duration> {
        let policy = self.hedge.as_ref()?;
        if let Some(fixed) = policy.hedge_after {
            return Some(fixed.max(HEDGE_MIN_DELAY));
        }
        let metrics = self.metrics.as_ref()?;
        let scale = Some(metrics.wall_scale()).filter(|&scale| scale > 0.0)?;
        let sim_p = metrics.latency_percentile(HEDGE_QUANTILE)?;
        Some(sim_p.mul_f64(scale).max(HEDGE_MIN_DELAY))
    }
}

impl Drop for IoDispatcher {
    fn drop(&mut self) {
        self.queue.close(self.workers.len());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Jobs waiting for a worker; a `None` stops the worker that takes it. No
/// panic leaves the deque half-updated, so a poisoned lock is taken as is.
#[derive(Default)]
struct Queue {
    jobs: std::sync::Mutex<VecDeque<Option<Job>>>,
    ready: Condvar,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, VecDeque<Option<Job>>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, job: Job) {
        self.lock().push_back(Some(job));
        self.ready.notify_one();
    }

    /// Drop what is queued and stop `workers` workers.
    fn close(&self, workers: usize) {
        let mut jobs = self.lock();
        jobs.clear();
        jobs.extend((0..workers).map(|_| None));
        self.ready.notify_all();
    }

    /// The next job, waiting for one; `None` once closed.
    fn pop(&self) -> Option<Job> {
        let ready = self.ready.wait_while(self.lock(), |jobs| jobs.is_empty());
        ready.unwrap_or_else(PoisonError::into_inner).pop_front()?
    }
}

/// Run one job on a worker thread, unless its ticket is already gone.
fn run(store: &dyn ObjectStore, metrics: Option<&StoreMetrics>, job: Job) {
    let request = &job.request;
    if request.abandoned.load(Ordering::Relaxed) {
        return;
    }
    let lane = || metrics.map_or(0, StoreMetrics::lane_nanos);
    // A killed submitter's job is answered with the typed error and never
    // reaches the backend.
    let started = Instant::now();
    let (result, sim_nanos) = match job.ctx.as_ref().map(QueryCtx::check) {
        Some(Err(reason)) => (Err(StoreError::QueryKilled { reason }), 0),
        _ => {
            let before = lane();
            let _attributed = job.ctx.as_ref().map(QueryCtx::enter);
            let result = match request.range {
                Some((start, end)) => store.get_range(&request.path, start, end),
                None => store.get(&request.path),
            };
            (result, lane().saturating_sub(before))
        }
    };
    let elapsed = started.elapsed();
    let mut buffer = job.buffer;
    let result = result.map(|bytes| {
        if bytes.is_unique() && bytes.len() <= buffer.capacity() {
            buffer.extend_from_slice(&bytes);
            Payload::Moved(buffer)
        } else {
            Payload::Shared(bytes)
        }
    });
    // Nobody listening (the ticket is gone, or the race is already won):
    // the result is discarded.
    let _ = request.done.send(Finished {
        result,
        sim_nanos,
        hedged: job.hedged,
        elapsed,
    });
}

/// A circuit breaker over hedge races, counted in windows of
/// [`BREAKER_WINDOW`]: when the store is globally slow (every request, not
/// just the tail) hedges fire but rarely win, and a window whose win rate is
/// below [`BREAKER_MIN_WIN_RATE`] opens the breaker for [`BREAKER_COOLDOWN`]
/// tail-slow waits before hedging is tried again.
#[derive(Default)]
struct Breaker {
    races: usize,
    wins: usize,
    /// Remaining `allow()` calls to swallow while open; 0 = closed.
    cooldown_left: u64,
}

impl Breaker {
    /// Should a hedge run? While open, swallows one cooldown tick per call.
    fn allow(&mut self) -> bool {
        self.cooldown_left = self.cooldown_left.saturating_sub(1);
        self.cooldown_left == 0
    }

    /// Record whether a hedge won its race; a full window may trip the
    /// breaker and starts the next one.
    fn record(&mut self, won: bool) {
        self.races += 1;
        self.wins += usize::from(won);
        if self.races == BREAKER_WINDOW {
            if (self.wins as f64) < BREAKER_MIN_WIN_RATE * BREAKER_WINDOW as f64 {
                self.cooldown_left = BREAKER_COOLDOWN;
            }
            (self.races, self.wins) = (0, 0);
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

    fn is_open(breaker: &Mutex<Breaker>) -> bool {
        breaker.lock().cooldown_left > 0
    }

    /// A store whose every read really sleeps, with a deterministic bimodal
    /// option (every `slow_every`-th read is slow) and a read counter.
    struct SleepyStore {
        inner: InMemoryStore,
        fast: Duration,
        slow: Duration,
        /// Read n is slow when `slow_every > 0 && n % slow_every == 0`.
        slow_every: u64,
        reads: AtomicU64,
    }

    impl SleepyStore {
        fn uniform(delay: Duration) -> SleepyStore {
            SleepyStore::bimodal(delay, delay, 0)
        }

        fn bimodal(fast: Duration, slow: Duration, slow_every: u64) -> SleepyStore {
            SleepyStore {
                inner: InMemoryStore::new(),
                fast,
                slow,
                slow_every,
                reads: AtomicU64::new(0),
            }
        }

        fn reads(&self) -> u64 {
            self.reads.load(Ordering::Relaxed)
        }
    }

    impl ObjectStore for SleepyStore {
        fn put(&self, path: &ObjectPath, data: Bytes) -> Result<()> {
            self.inner.put(path, data)
        }
        fn get(&self, path: &ObjectPath) -> Result<Bytes> {
            let n = self.reads.fetch_add(1, Ordering::Relaxed);
            let slow = self.slow_every > 0 && n.is_multiple_of(self.slow_every);
            std::thread::sleep(if slow { self.slow } else { self.fast });
            self.inner.get(path)
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

    fn dispatcher(
        store: &Arc<SleepyStore>,
        depth: usize,
        hedge: Option<HedgePolicy>,
    ) -> IoDispatcher {
        IoDispatcher::new(Arc::clone(store) as Arc<dyn ObjectStore>, depth, hedge).unwrap()
    }

    /// `n` objects `obj/{i}` holding `payload-{i}`.
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

    /// A ticket for the whole of `obj/{i}` as [`seeded`] wrote it.
    fn submit(d: &IoDispatcher, path: &ObjectPath) -> IoTicket {
        let i = path.as_str().trim_start_matches("obj/");
        d.submit_get_range(path, 0, "payload-".len() + i.len())
    }

    #[test]
    fn in_flight_gets_genuinely_overlap_real_sleeps() {
        let store = Arc::new(SleepyStore::uniform(Duration::from_millis(30)));
        let paths = seeded(store.as_ref(), 8);
        let dispatcher = dispatcher(&store, 8, None);
        let start = Instant::now();
        let tickets: Vec<_> = paths.iter().map(|path| submit(&dispatcher, path)).collect();
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
        let dispatcher = IoDispatcher::new(Arc::new(sim), 2, None).unwrap();
        for path in &paths {
            let c = dispatcher.wait(submit(&dispatcher, path));
            assert!(c.result.is_ok());
            assert!(
                c.sim_nanos >= Duration::from_millis(10).as_nanos() as u64,
                "completion must carry the simulated charge, got {}",
                c.sim_nanos
            );
        }
    }

    #[test]
    fn cancelled_queued_requests_never_reach_the_backend() {
        let store = Arc::new(SleepyStore::uniform(Duration::from_millis(20)));
        let paths = seeded(store.as_ref(), 3);
        let dispatcher = dispatcher(&store, 1, None);
        let t0 = submit(&dispatcher, &paths[0]);
        let t1 = submit(&dispatcher, &paths[1]);
        let t2 = submit(&dispatcher, &paths[2]);
        // t0 is running (or about to); t2 is queued behind t1 — drop it.
        drop(t2);
        assert!(dispatcher.wait(t0).result.is_ok());
        assert!(dispatcher.wait(t1).result.is_ok());
        let stats = dispatcher.stats();
        assert_eq!(
            (stats.submitted, stats.completed, stats.cancelled),
            (3, 2, 1)
        );
        drop(dispatcher);
        assert_eq!(
            store.reads(),
            2,
            "cancelled request must not hit the backend"
        );
    }

    #[test]
    fn hedge_fires_and_wins_on_deterministic_bimodal_tail() {
        // Read 0 (the primary) sleeps 60 ms; read 1 (the hedge) sleeps 2 ms.
        let store = Arc::new(SleepyStore::bimodal(
            Duration::from_millis(2),
            Duration::from_millis(60),
            1_000_000,
        ));
        let paths = seeded(store.as_ref(), 1);
        let hedge = Some(HedgePolicy {
            hedge_after: Some(Duration::from_millis(10)),
        });
        let dispatcher = dispatcher(&store, 2, hedge);
        let start = Instant::now();
        let c = dispatcher.wait(submit(&dispatcher, &paths[0]));
        let elapsed = start.elapsed();
        assert_eq!(c.result.unwrap(), Bytes::from("payload-0"));
        assert!(c.hedged, "the fast hedge must win the race");
        let stats = dispatcher.stats();
        assert_eq!((stats.hedges_fired, stats.hedges_won), (1, 1));
        assert!(
            elapsed < Duration::from_millis(45),
            "hedge should beat the 60 ms primary, took {elapsed:?}"
        );
        // The slow primary is the cancelled loser.
        assert_eq!(
            (stats.submitted, stats.completed, stats.cancelled),
            (2, 1, 1)
        );
        assert_eq!(stats.inflight, 0);
    }

    /// A store whose every read blocks until the test lets it finish: a read
    /// sends a release handle on `arrivals`, then waits on it.
    struct GatedStore {
        inner: InMemoryStore,
        arrivals: Mutex<mpsc::Sender<mpsc::Sender<()>>>,
    }

    impl ObjectStore for GatedStore {
        fn put(&self, path: &ObjectPath, data: Bytes) -> Result<()> {
            self.inner.put(path, data)
        }
        fn get(&self, path: &ObjectPath) -> Result<Bytes> {
            let (release, released) = mpsc::channel();
            let _ = self.arrivals.lock().send(release);
            // A dropped handle releases the read too.
            let _ = released.recv();
            self.inner.get(path)
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

    #[test]
    fn breaker_suppresses_hedging_when_store_is_globally_slow() {
        // Every read is held until the test releases it, and a primary is
        // always released, and claimed, before its hedge (fired after 5 ms):
        // the hedges lose every race by construction.
        let (arrivals, arrived) = mpsc::channel();
        let store = Arc::new(GatedStore {
            inner: InMemoryStore::new(),
            arrivals: Mutex::new(arrivals),
        });
        let paths = seeded(store.as_ref(), BREAKER_WINDOW + 2);
        let hedge = Some(HedgePolicy {
            hedge_after: Some(Duration::from_millis(5)),
        });
        let dispatcher = IoDispatcher::new(store as Arc<dyn ObjectStore>, 2, hedge).unwrap();
        let next_read = || {
            arrived
                .recv_timeout(Duration::from_secs(10))
                .expect("a read reaches the store")
        };
        for (i, path) in paths.iter().enumerate() {
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| dispatcher.wait(submit(&dispatcher, path)));
                let primary = next_read();
                let hedge = if i < BREAKER_WINDOW {
                    Some(next_read())
                } else {
                    // The breaker is open: release the primary only once this
                    // wait has reached its hedge point and been refused.
                    let refused = BREAKER_COOLDOWN - (i + 1 - BREAKER_WINDOW) as u64;
                    let give_up = Instant::now() + Duration::from_secs(10);
                    while dispatcher.breaker.lock().cooldown_left > refused {
                        assert!(
                            Instant::now() < give_up,
                            "read {i} never reached its hedge point"
                        );
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    None
                };
                primary.send(()).unwrap();
                assert!(waiter.join().unwrap().result.is_ok());
                if let Some(hedge) = hedge {
                    hedge.send(()).unwrap();
                }
            });
        }
        let stats = dispatcher.stats();
        assert_eq!(
            stats.hedges_fired, BREAKER_WINDOW as u64,
            "breaker must open after a full window of lost hedges"
        );
        assert_eq!(stats.hedges_won, 0);
        assert!(is_open(&dispatcher.breaker));
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
            let d = dispatcher(&store, 2, None);
            // Burn read 0 (slow) so both runs read the same object bytes.
            d.wait(submit(&d, &paths[0])).result.unwrap()
        };
        let hedged = {
            let hedge = Some(HedgePolicy {
                hedge_after: Some(Duration::from_millis(5)),
            });
            let d = dispatcher(&store, 2, hedge);
            d.wait(submit(&d, &paths[0])).result.unwrap()
        };
        assert_eq!(unhedged, hedged);
    }

    #[test]
    fn hedging_disabled_under_sleep_mode_none() {
        // No wall sleeping => no wall tail => live-quantile hedging reports
        // no trigger delay.
        let sim = SimulatedStore::new(InMemoryStore::new(), LatencyModel::s3_like());
        let paths = seeded(&sim, 4);
        let hedge = Some(HedgePolicy::default());
        let dispatcher = IoDispatcher::new(Arc::new(sim), 2, hedge).unwrap();
        for path in &paths {
            assert!(dispatcher.wait(submit(&dispatcher, path)).result.is_ok());
        }
        assert_eq!(dispatcher.stats().hedges_fired, 0);
    }

    #[test]
    fn drop_joins_workers_with_pending_queue() {
        let store = Arc::new(SleepyStore::uniform(Duration::from_millis(5)));
        let paths = seeded(store.as_ref(), 6);
        let dispatcher = dispatcher(&store, 2, None);
        let _tickets: Vec<_> = paths.iter().map(|path| submit(&dispatcher, path)).collect();
        drop(dispatcher); // must not hang or panic
    }

    #[test]
    fn killed_query_wait_returns_promptly_and_drains_inflight() {
        let store = Arc::new(SleepyStore::uniform(Duration::from_millis(50)));
        let paths = seeded(store.as_ref(), 2);
        let dispatcher = dispatcher(&store, 1, None);
        let ctx = QueryCtx::new("t", "q");
        let _g = ctx.enter();
        let t0 = submit(&dispatcher, &paths[0]); // claimed by the worker
        let t1 = submit(&dispatcher, &paths[1]); // queued behind it
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
        // t0 races the kill: it may have completed, or been abandoned by
        // this wait — either way the ticket resolves and accounting drains.
        let _c0 = dispatcher.wait(t0);
        let stats = dispatcher.stats();
        assert_eq!(stats.inflight, 0, "abandoned tickets must drain");
        assert_eq!(stats.submitted, stats.completed + stats.cancelled);
        drop(dispatcher);
        assert!(
            store.reads() <= 1,
            "the queued request of a killed query must never reach the backend"
        );
    }

    #[test]
    fn get_range_submissions_slice_correctly() {
        let sim = SimulatedStore::new(InMemoryStore::new(), LatencyModel::zero());
        let path = p("obj/r");
        sim.put(&path, Bytes::from_static(b"hello world")).unwrap();
        let dispatcher = IoDispatcher::new(Arc::new(sim), 2, None).unwrap();
        let t = dispatcher.submit_get_range(&path, 6, 11);
        assert_eq!(
            dispatcher.wait(t).result.unwrap(),
            Bytes::from_static(b"world")
        );
    }

    #[test]
    fn a_whole_object_get_reports_the_backend_calls_own_time() {
        let store = Arc::new(SleepyStore::uniform(Duration::from_millis(30)));
        let paths = seeded(store.as_ref(), 2);
        let dispatcher = dispatcher(&store, 1, None);
        let first = dispatcher.submit_get(&paths[0]);
        let second = dispatcher.submit_get(&paths[1]);
        // The second read queues behind the first, then is waited on long
        // after it finished: neither counts toward its time (its queueing
        // alone would put it at 60 ms or more).
        std::thread::sleep(Duration::from_millis(120));
        for (ticket, want) in [(first, "payload-0"), (second, "payload-1")] {
            let done = dispatcher.wait(ticket);
            assert_eq!(done.result.unwrap(), Bytes::from(want));
            let ms = done.elapsed.as_millis();
            assert!((30..60).contains(&ms), "{want}: {ms} ms");
        }
    }

    #[test]
    fn breaker_trips_on_low_win_rate_and_recovers() {
        let b = Mutex::new(Breaker::default());
        // A window of lost races trips it.
        for _ in 0..BREAKER_WINDOW {
            assert!(b.lock().allow());
            b.lock().record(false);
        }
        assert!(is_open(&b));
        // The cooldown swallows every check but its last, which re-closes.
        for _ in 1..BREAKER_COOLDOWN {
            assert!(!b.lock().allow());
        }
        assert!(b.lock().allow(), "cooldown spent: probe allowed");
        assert!(!is_open(&b));
        // A good window keeps it closed.
        for _ in 0..2 * BREAKER_WINDOW {
            assert!(b.lock().allow());
            b.lock().record(true);
        }
        assert!(!is_open(&b));
    }

    #[test]
    fn breaker_stays_closed_above_threshold() {
        let b = Mutex::new(Breaker::default());
        // A 40% win rate, window after window: stays closed.
        for i in 0..5 * BREAKER_WINDOW {
            assert!(b.lock().allow());
            b.lock().record(i % 5 < 2);
        }
        assert!(!is_open(&b));
    }
}
