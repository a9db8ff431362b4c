//! Per-query resource attribution: a [`QueryCtx`] (query id + tenant label)
//! carried in a thread-local scope and handed explicitly across thread
//! pools, plus the [`ResourceLedger`] it owns.
//!
//! The global [`crate::MetricsRegistry`] keeps the process-wide view of
//! `io.*` / `store.*` / `retry.*`; ledgers are the *attributed* view of the
//! same quantities. Instrumentation points call [`charge`], which is a
//! thread-local borrow plus a handful of relaxed atomic adds when a context
//! is active and a single thread-local read otherwise — cheap enough to stay
//! always-on.
//!
//! Propagation rules (DESIGN.md §15):
//!
//! * The query entry point creates a [`QueryCtx`] and [`QueryCtx::enter`]s
//!   it; the guard restores the previous context on drop, so nested queries
//!   (system-table probes inside a run, say) attribute correctly.
//! * Thread pools do **not** inherit contexts implicitly. Any code that
//!   ships work to another thread captures [`QueryCtx::current`] at submit
//!   time and enters it inside the worker closure. The scan worker pool and
//!   the `IoDispatcher` both do this, which is what charges speculative
//!   read-ahead (and hedge retries) to the query that submitted them.
//! * A worker thread with no entered context charges nothing: the global
//!   registry still sees the op, the ledger does not. Ledgers therefore
//!   never over-report; unattributed work is visible as the difference
//!   between the registry delta and the sum of ledgers.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why a query's [`CancelToken`] tripped. Carried in the typed
/// `QueryKilled { reason }` errors every layer surfaces, the
/// `query.killed.*` counters, and the `reason` column of `system.queries`.
///
/// The deadline counts attributed retry stall as well as wall time:
/// simulated backoff charges the ledger, not the wall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillReason {
    /// Explicit cancellation (Ctrl-C, a caller's `kill`).
    Canceled,
    /// The per-query deadline was exceeded.
    Deadline,
    /// The streaming executor's resident memory exceeded the budget.
    MemoryBudget,
    /// Attributed IO bytes (read + written) exceeded the budget.
    IoBudget,
}

impl KillReason {
    pub fn as_str(self) -> &'static str {
        match self {
            KillReason::Canceled => "canceled",
            KillReason::Deadline => "deadline",
            KillReason::MemoryBudget => "memory_budget",
            KillReason::IoBudget => "io_budget",
        }
    }

    /// Suffix of the `query.killed.*` registry counter this reason bumps.
    pub fn counter_suffix(self) -> &'static str {
        match self {
            KillReason::Canceled => "canceled",
            KillReason::Deadline => "deadline",
            KillReason::MemoryBudget => "memory",
            KillReason::IoBudget => "io",
        }
    }

    fn code(self) -> u64 {
        match self {
            KillReason::Canceled => 1,
            KillReason::Deadline => 2,
            KillReason::MemoryBudget => 3,
            KillReason::IoBudget => 4,
        }
    }

    fn from_code(code: u64) -> Option<KillReason> {
        match code {
            1 => Some(KillReason::Canceled),
            2 => Some(KillReason::Deadline),
            3 => Some(KillReason::MemoryBudget),
            4 => Some(KillReason::IoBudget),
            _ => None,
        }
    }
}

impl std::fmt::Display for KillReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Attributed resource totals for one query, updated lock-free from any
/// thread holding the owning [`QueryCtx`].
#[derive(Debug, Default)]
pub struct ResourceLedger {
    io_bytes: AtomicU64,
    io_bytes_written: AtomicU64,
    io_ops: AtomicU64,
    retry_stall_nanos: AtomicU64,
    kernel_wall_nanos: AtomicU64,
    kernel_sim_nanos: AtomicU64,
}

impl ResourceLedger {
    pub fn add_io_read(&self, bytes: u64) {
        self.io_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.io_ops.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_io_write(&self, bytes: u64) {
        self.io_bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.io_ops.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_retry_stall_nanos(&self, nanos: u64) {
        self.retry_stall_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    pub fn add_kernel_nanos(&self, wall: u64, sim: u64) {
        self.kernel_wall_nanos.fetch_add(wall, Ordering::Relaxed);
        self.kernel_sim_nanos.fetch_add(sim, Ordering::Relaxed);
    }

    /// Attributed IO bytes so far, read plus written (budget checks).
    pub fn io_total_bytes(&self) -> u64 {
        self.io_bytes.load(Ordering::Relaxed) + self.io_bytes_written.load(Ordering::Relaxed)
    }

    /// Attributed retry/throttle stall so far (budget and deadline checks).
    pub fn retry_stall(&self) -> u64 {
        self.retry_stall_nanos.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy (each field individually
    /// relaxed-loaded; exact once the query has finished).
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            io_bytes: self.io_bytes.load(Ordering::Relaxed),
            io_bytes_written: self.io_bytes_written.load(Ordering::Relaxed),
            io_ops: self.io_ops.load(Ordering::Relaxed),
            retry_stall_nanos: self.retry_stall_nanos.load(Ordering::Relaxed),
            kernel_wall_nanos: self.kernel_wall_nanos.load(Ordering::Relaxed),
            kernel_sim_nanos: self.kernel_sim_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of a [`ResourceLedger`], as stored in finished-query
/// records and `system.queries` rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerSnapshot {
    pub io_bytes: u64,
    pub io_bytes_written: u64,
    pub io_ops: u64,
    pub retry_stall_nanos: u64,
    pub kernel_wall_nanos: u64,
    pub kernel_sim_nanos: u64,
}

#[derive(Debug)]
struct CtxInner {
    query_id: u64,
    tenant: String,
    label: String,
    ledger: ResourceLedger,
    started: std::time::Instant,
    /// Cancel token: 0 = alive, else the [`KillReason`] code that tripped
    /// first (sticky — the first kill wins, later ones are no-ops).
    killed: AtomicU64,
    /// Effective-elapsed nanoseconds after which the query is dead
    /// (0 = no deadline armed).
    deadline_nanos: AtomicU64,
    /// Resident-memory cap in bytes for the SQL executor (0 = no budget
    /// armed). Enforced externally against the executor's live-byte gauge;
    /// stored here so the token carries all budgets.
    memory_budget_bytes: AtomicU64,
    /// Attributed IO byte cap, read + written (0 = no budget armed).
    io_budget_bytes: AtomicU64,
}

/// Process-wide cancel request (Ctrl-C in the CLI): every context's next
/// [`QueryCtx::check`] trips with [`KillReason::Canceled`]. One-shot CLI
/// processes never clear it; library embedders that set it must
/// [`clear_cancel_all`] before issuing further queries.
static CANCEL_ALL: AtomicBool = AtomicBool::new(false);

/// Request cancellation of every active query in the process
/// (async-signal-safe: a single atomic store).
pub fn request_cancel_all() {
    CANCEL_ALL.store(true, Ordering::Relaxed);
}

/// Whether a process-wide cancel has been requested.
pub fn cancel_all_requested() -> bool {
    CANCEL_ALL.load(Ordering::Relaxed)
}

/// Reset the process-wide cancel request.
pub fn clear_cancel_all() {
    CANCEL_ALL.store(false, Ordering::Relaxed);
}

/// A cheap-to-clone handle identifying the query (or run step) that work is
/// being done for. Clone it across thread boundaries and [`enter`] it on the
/// worker; all clones share one [`ResourceLedger`].
///
/// [`enter`]: QueryCtx::enter
#[derive(Debug, Clone)]
pub struct QueryCtx(Arc<CtxInner>);

static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: RefCell<Option<QueryCtx>> = const { RefCell::new(None) };
}

impl QueryCtx {
    /// Allocate a new context with a fresh process-unique query id.
    pub fn new(tenant: impl Into<String>, label: impl Into<String>) -> QueryCtx {
        QueryCtx(Arc::new(CtxInner {
            query_id: NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed),
            tenant: tenant.into(),
            label: label.into(),
            ledger: ResourceLedger::default(),
            started: std::time::Instant::now(),
            killed: AtomicU64::new(0),
            deadline_nanos: AtomicU64::new(0),
            memory_budget_bytes: AtomicU64::new(0),
            io_budget_bytes: AtomicU64::new(0),
        }))
    }

    // ---- cancel token ----------------------------------------------------

    /// Arm a deadline: the query is killed with [`KillReason::Deadline`]
    /// once its effective elapsed time (wall time plus attributed simulated
    /// retry stall) exceeds `timeout`.
    pub fn arm_deadline(&self, timeout: Duration) {
        let nanos = (timeout.as_nanos().min(u64::MAX as u128) as u64).max(1);
        self.0.deadline_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Arm a resident-memory budget for the SQL executor.
    pub fn arm_memory_budget(&self, bytes: u64) {
        self.0
            .memory_budget_bytes
            .store(bytes.max(1), Ordering::Relaxed);
    }

    /// Arm an attributed IO byte budget (read + written).
    pub fn arm_io_budget(&self, bytes: u64) {
        self.0
            .io_budget_bytes
            .store(bytes.max(1), Ordering::Relaxed);
    }

    /// The armed memory budget, if any (the SQL executor compares it
    /// against its live-byte gauge and calls [`QueryCtx::kill`]).
    pub fn memory_budget_bytes(&self) -> Option<u64> {
        match self.0.memory_budget_bytes.load(Ordering::Relaxed) {
            0 => None,
            b => Some(b),
        }
    }

    /// Trip the cancel token. Sticky: only the first reason wins. Returns
    /// whether this call was the one that tripped it.
    pub fn kill(&self, reason: KillReason) -> bool {
        self.0
            .killed
            .compare_exchange(0, reason.code(), Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// The reason the token tripped, if it has.
    pub fn killed(&self) -> Option<KillReason> {
        KillReason::from_code(self.0.killed.load(Ordering::Relaxed))
    }

    /// Elapsed time the deadline is measured against: wall time since the
    /// context was created plus attributed *simulated* retry stall.
    /// Simulated backoff never blocks the wall clock, so without this term
    /// a query could stall forever inside its deadline; when stalls do
    /// sleep for real (`wall_scale > 0`) the double count only makes kills
    /// earlier, never later.
    fn effective_elapsed_nanos(&self) -> u64 {
        self.elapsed_nanos()
            .saturating_add(self.0.ledger.retry_stall())
    }

    /// Time left until the armed deadline, or `None` when no deadline is
    /// armed. `Some(ZERO)` once the deadline has passed — retry layers use
    /// this to cap backoff (including server `retry_after` floors) so a
    /// wait can never overshoot the deadline.
    pub fn deadline_remaining(&self) -> Option<Duration> {
        match self.0.deadline_nanos.load(Ordering::Relaxed) {
            0 => None,
            d => Some(Duration::from_nanos(
                d.saturating_sub(self.effective_elapsed_nanos()),
            )),
        }
    }

    /// Cooperative cancellation point: cheap enough for every yield point
    /// (a handful of relaxed loads). Evaluates, in order: an already-tripped
    /// token, a process-wide cancel request, the deadline (which counts
    /// attributed retry stall), and the IO byte budget — tripping the token
    /// with the matching reason on the first violation. With nothing armed
    /// (the default) this always returns `Ok`, so enforcement-off runs behave
    /// identically.
    pub fn check(&self) -> std::result::Result<(), KillReason> {
        if let Some(reason) = self.killed() {
            return Err(reason);
        }
        if cancel_all_requested() {
            self.kill(KillReason::Canceled);
            return Err(self.killed().unwrap_or(KillReason::Canceled));
        }
        let deadline = self.0.deadline_nanos.load(Ordering::Relaxed);
        if deadline > 0 && self.effective_elapsed_nanos() > deadline {
            self.kill(KillReason::Deadline);
            return Err(self.killed().unwrap_or(KillReason::Deadline));
        }
        let io_budget = self.0.io_budget_bytes.load(Ordering::Relaxed);
        if io_budget > 0 && self.0.ledger.io_total_bytes() > io_budget {
            self.kill(KillReason::IoBudget);
            return Err(self.killed().unwrap_or(KillReason::IoBudget));
        }
        Ok(())
    }

    /// Wall nanoseconds since this context was created — the age of the
    /// query it identifies.
    pub fn elapsed_nanos(&self) -> u64 {
        self.0.started.elapsed().as_nanos() as u64
    }

    pub fn query_id(&self) -> u64 {
        self.0.query_id
    }

    pub fn tenant(&self) -> &str {
        &self.0.tenant
    }

    pub fn label(&self) -> &str {
        &self.0.label
    }

    pub fn ledger(&self) -> &ResourceLedger {
        &self.0.ledger
    }

    /// The context entered on this thread, if any.
    pub fn current() -> Option<QueryCtx> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Make this context current on the calling thread until the returned
    /// guard drops (the previous context, if any, is restored).
    pub fn enter(&self) -> CtxGuard {
        let prev = CURRENT.with(|c| c.replace(Some(self.clone())));
        CtxGuard {
            prev,
            _not_send: PhantomData,
        }
    }
}

/// Restores the previously-entered context on drop. `!Send`: the guard must
/// drop on the thread that entered.
pub struct CtxGuard {
    prev: Option<QueryCtx>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Charge the current thread's ledger, if a context is entered. The
/// preferred instrumentation call: no `Arc` clone, a no-op (one thread-local
/// borrow) when unattributed.
pub fn charge<F: FnOnce(&ResourceLedger)>(f: F) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            f(ctx.ledger());
        }
    });
}

/// The current query id, or 0 when no context is entered (flight-recorder
/// events use 0 for unattributed work).
pub fn current_query_id() -> u64 {
    CURRENT.with(|c| c.borrow().as_ref().map_or(0, |ctx| ctx.query_id()))
}

/// [`QueryCtx::check`] on the thread's current context; `Ok` when no
/// context is entered. The one-liner yield points call this.
pub fn check_current() -> std::result::Result<(), KillReason> {
    CURRENT.with(|c| match c.borrow().as_ref() {
        Some(ctx) => ctx.check(),
        None => Ok(()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_restores_previous_context() {
        assert!(QueryCtx::current().is_none());
        let a = QueryCtx::new("t", "a");
        let b = QueryCtx::new("t", "b");
        {
            let _ga = a.enter();
            assert_eq!(QueryCtx::current().unwrap().query_id(), a.query_id());
            {
                let _gb = b.enter();
                assert_eq!(QueryCtx::current().unwrap().query_id(), b.query_id());
            }
            assert_eq!(QueryCtx::current().unwrap().query_id(), a.query_id());
        }
        assert!(QueryCtx::current().is_none());
        assert_ne!(a.query_id(), b.query_id());
    }

    #[test]
    fn charge_is_noop_without_context() {
        let mut called = false;
        charge(|_| called = true);
        assert!(!called);
        assert_eq!(current_query_id(), 0);
    }

    #[test]
    fn charges_fold_into_the_entered_ledger() {
        let ctx = QueryCtx::new("tenant-a", "SELECT 1");
        {
            let _g = ctx.enter();
            charge(|l| l.add_io_read(100));
            charge(|l| l.add_retry_stall_nanos(7));
        }
        charge(|l| l.add_io_read(999)); // no context: charges nobody
        let snap = ctx.ledger().snapshot();
        assert_eq!(snap.io_bytes, 100);
        assert_eq!(snap.io_ops, 1);
        assert_eq!(snap.retry_stall_nanos, 7);
    }

    #[test]
    fn kill_is_sticky_first_reason_wins() {
        let ctx = QueryCtx::new("t", "q");
        assert!(ctx.check().is_ok());
        assert!(ctx.kill(KillReason::Deadline));
        assert!(!ctx.kill(KillReason::IoBudget), "second kill is a no-op");
        assert_eq!(ctx.killed(), Some(KillReason::Deadline));
        assert_eq!(ctx.check(), Err(KillReason::Deadline));
    }

    #[test]
    fn unarmed_token_never_trips() {
        let ctx = QueryCtx::new("t", "q");
        ctx.ledger().add_io_read(u64::MAX / 2);
        ctx.ledger().add_retry_stall_nanos(u64::MAX / 2);
        assert!(ctx.check().is_ok(), "no budgets armed: nothing to violate");
        assert!(ctx.deadline_remaining().is_none());
    }

    #[test]
    fn deadline_counts_simulated_stall() {
        let ctx = QueryCtx::new("t", "q");
        ctx.arm_deadline(Duration::from_secs(3600));
        assert!(ctx.check().is_ok());
        // Wall time is negligible; simulated stall alone must trip it.
        ctx.ledger()
            .add_retry_stall_nanos(Duration::from_secs(3601).as_nanos() as u64);
        assert_eq!(ctx.check(), Err(KillReason::Deadline));
        assert_eq!(ctx.deadline_remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn io_budget_trips_on_read_plus_write() {
        let ctx = QueryCtx::new("t", "q");
        ctx.arm_io_budget(100);
        ctx.ledger().add_io_read(60);
        assert!(ctx.check().is_ok());
        ctx.ledger().add_io_write(60);
        assert_eq!(ctx.check(), Err(KillReason::IoBudget));
    }

    #[test]
    fn check_current_without_context_is_ok() {
        assert!(check_current().is_ok());
        let ctx = QueryCtx::new("t", "q");
        ctx.kill(KillReason::Canceled);
        {
            let _g = ctx.enter();
            assert_eq!(check_current(), Err(KillReason::Canceled));
        }
        assert!(check_current().is_ok());
    }

    #[test]
    fn clones_share_one_ledger_across_threads() {
        let ctx = QueryCtx::new("t", "q");
        let worker = {
            let ctx = ctx.clone();
            std::thread::spawn(move || {
                let _g = ctx.enter();
                charge(|l| l.add_io_read(64));
            })
        };
        {
            let _g = ctx.enter();
            charge(|l| l.add_io_read(36));
        }
        worker.join().unwrap();
        assert_eq!(ctx.ledger().snapshot().io_bytes, 100);
        assert_eq!(ctx.ledger().snapshot().io_ops, 2);
    }
}
