//! Always-on flight recorder: a fixed-size sharded ring buffer of structured
//! telemetry events, plus the bounded log of finished queries that backs
//! `system.queries`.
//!
//! Recording never blocks: a writer takes its shard's lock with `try_lock`
//! and increments `events.dropped` instead of waiting when the shard is
//! contended, and a full ring overwrites its oldest record (also counted as
//! dropped). Memory is bounded at construction: `shards × per_shard` event
//! slots, ~`RECORDER_SHARDS × RECORDER_PER_SHARD` for the global instance.

use crate::ctx::{LedgerSnapshot, QueryCtx};
use crate::registry::Counter;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Shards of the global recorder (reduces writer contention).
pub const RECORDER_SHARDS: usize = 8;
/// Event slots per shard of the global recorder (4096 events total).
pub const RECORDER_PER_SHARD: usize = 512;
/// Finished-query records retained by the global [`QueryLog`].
pub const QUERY_LOG_CAP: usize = 1024;

/// What happened. Kept coarse on purpose: events answer "what did the system
/// do and for whom", the registry answers "how much in total".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    QueryStart,
    QueryFinish,
    StoreOp,
    RetryAttempt,
    HedgeFired,
    HedgeWon,
    CasRetry,
    /// A query passed the admission gate (value: queue wait in nanos).
    AdmissionAdmit,
    /// A query was shed by the admission gate (value: suggested
    /// `retry_after` in nanos).
    AdmissionShed,
    /// A query's cancel token tripped; detail is the [`crate::KillReason`].
    QueryKilled,
    /// A DAG stage entered execution under the gate (detail:
    /// `run_<id>/stage_<idx>`; value: steps in the stage).
    StageStart,
    /// A DAG stage finished (detail: `run_<id>/stage_<idx>`; value:
    /// artifacts the stage materialized).
    StageFinish,
}

impl EventKind {
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::QueryStart => "query_start",
            EventKind::QueryFinish => "query_finish",
            EventKind::StoreOp => "store_op",
            EventKind::RetryAttempt => "retry_attempt",
            EventKind::HedgeFired => "hedge_fired",
            EventKind::HedgeWon => "hedge_won",
            EventKind::CasRetry => "cas_retry",
            EventKind::AdmissionAdmit => "admission_admit",
            EventKind::AdmissionShed => "admission_shed",
            EventKind::QueryKilled => "query_killed",
            EventKind::StageStart => "stage_start",
            EventKind::StageFinish => "stage_finish",
        }
    }
}

/// One recorded event. `value` is kind-specific (bytes for store ops,
/// nanoseconds for stalls, attempt number for retries); `detail` is a short
/// free-form tag (object path, op name, SQL prefix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Process-wide allocation order (gaps where events were dropped).
    pub seq: u64,
    /// Microseconds since the recorder was created (wall clock).
    pub wall_micros: u64,
    pub kind: EventKind,
    /// 0 when no query context was entered on the recording thread.
    pub query_id: u64,
    pub tenant: String,
    pub detail: String,
    pub value: u64,
}

struct Shard {
    buf: Vec<Event>,
    /// Next slot to write once `buf` has reached capacity.
    next: usize,
}

/// The sharded ring buffer.
pub struct FlightRecorder {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    seq: AtomicU64,
    epoch: Instant,
    recorded: Arc<Counter>,
    dropped: Arc<Counter>,
}

impl FlightRecorder {
    /// A recorder with `shards × per_shard` event slots, publishing
    /// `events.recorded` / `events.dropped` to the global registry.
    pub fn new(shards: usize, per_shard: usize) -> FlightRecorder {
        let shards = shards.max(1);
        let per_shard = per_shard.max(1);
        FlightRecorder {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        buf: Vec::with_capacity(per_shard),
                        next: 0,
                    })
                })
                .collect(),
            per_shard,
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
            recorded: crate::global().counter("events.recorded"),
            dropped: crate::global().counter("events.dropped"),
        }
    }

    /// Total event slots across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.per_shard
    }

    /// Events dropped so far (contended shard or ring overwrite).
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Record an event attributed to the calling thread's current
    /// [`QueryCtx`] (query id 0 / empty tenant when none is entered).
    pub fn record(&self, kind: EventKind, detail: &str, value: u64) {
        let (query_id, tenant) = match QueryCtx::current() {
            Some(ctx) => (ctx.query_id(), ctx.tenant().to_string()),
            None => (0, String::new()),
        };
        self.record_for(kind, query_id, tenant, detail, value);
    }

    /// Record an event with explicit attribution (used by the query entry
    /// points, which hold the ctx directly).
    pub fn record_for(
        &self,
        kind: EventKind,
        query_id: u64,
        tenant: impl Into<String>,
        detail: &str,
        value: u64,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = Event {
            seq,
            wall_micros: self.epoch.elapsed().as_micros() as u64,
            kind,
            query_id,
            tenant: tenant.into(),
            detail: detail.to_string(),
            value,
        };
        let shard = &self.shards[(seq as usize) % self.shards.len()];
        let Some(mut guard) = shard.try_lock() else {
            // Contended: drop rather than stall the data path.
            self.dropped.inc();
            return;
        };
        if guard.buf.len() < self.per_shard {
            guard.buf.push(event);
        } else {
            // Ring wraparound: the overwritten record is gone, count it.
            let slot = guard.next;
            guard.buf[slot] = event;
            guard.next = (slot + 1) % self.per_shard;
            self.dropped.inc();
        }
        self.recorded.inc();
    }

    /// All currently-retained events, in allocation (seq) order.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out: Vec<Event> = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().buf.iter().cloned());
        }
        out.sort_by_key(|e| e.seq);
        out
    }
}

/// The process-wide recorder (always on).
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::new(RECORDER_SHARDS, RECORDER_PER_SHARD))
}

/// A finished query (or run step): identity, outcome, both clocks, and the
/// final ledger snapshot. Backs `system.queries`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRecord {
    pub query_id: u64,
    pub tenant: String,
    /// The SQL text (or run-step label).
    pub label: String,
    /// `"ok"`, `"error"`, `"killed"`, or `"shed"`.
    pub status: String,
    /// Why a non-ok query ended: a [`crate::KillReason`] string for killed
    /// queries, `"overloaded"` for shed ones, empty otherwise.
    pub reason: String,
    pub wall_nanos: u64,
    pub sim_nanos: u64,
    /// Time spent queued at the admission gate before running — or, for a
    /// shed query, the full wait until the gate gave up on it.
    pub queue_wait_nanos: u64,
    pub ledger: LedgerSnapshot,
}

/// Bounded FIFO of finished queries (oldest evicted first).
pub struct QueryLog {
    entries: Mutex<VecDeque<QueryRecord>>,
    cap: usize,
}

impl QueryLog {
    pub fn new(cap: usize) -> QueryLog {
        QueryLog {
            entries: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
        }
    }

    pub fn push(&self, record: QueryRecord) {
        let mut entries = self.entries.lock();
        if entries.len() == self.cap {
            entries.pop_front();
        }
        entries.push_back(record);
    }

    /// Retained records, oldest first.
    pub fn snapshot(&self) -> Vec<QueryRecord> {
        self.entries.lock().iter().cloned().collect()
    }

    pub fn find(&self, query_id: u64) -> Option<QueryRecord> {
        self.entries
            .lock()
            .iter()
            .find(|r| r.query_id == query_id)
            .cloned()
    }
}

/// The process-wide finished-query log.
pub fn query_log() -> &'static QueryLog {
    static GLOBAL: OnceLock<QueryLog> = OnceLock::new();
    GLOBAL.get_or_init(|| QueryLog::new(QUERY_LOG_CAP))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_attributed_events_in_seq_order() {
        let rec = FlightRecorder::new(2, 8);
        let ctx = QueryCtx::new("tenant-a", "q");
        {
            let _g = ctx.enter();
            rec.record(EventKind::StoreOp, "data/a.col", 100);
            rec.record(EventKind::RetryAttempt, "data/a.col", 1);
        }
        rec.record(EventKind::StoreOp, "unattributed", 1);
        let events = rec.snapshot();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(events[0].query_id, ctx.query_id());
        assert_eq!(events[0].tenant, "tenant-a");
        assert_eq!(events[2].query_id, 0);
        assert_eq!(events[2].tenant, "");
    }

    #[test]
    fn wraparound_drops_oldest_and_counts() {
        let rec = FlightRecorder::new(1, 4);
        let before = rec.dropped();
        for i in 0..10u64 {
            rec.record_for(EventKind::StoreOp, 1, "t", "k", i);
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 4, "ring keeps exactly its capacity");
        assert_eq!(rec.dropped() - before, 6, "overwrites counted as drops");
        // The survivors are the 4 most recent, uncorrupted.
        let values: Vec<u64> = events.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![6, 7, 8, 9]);
    }

    #[test]
    fn query_log_is_bounded_fifo() {
        let log = QueryLog::new(2);
        for id in 1..=3 {
            log.push(QueryRecord {
                query_id: id,
                tenant: "t".into(),
                label: "q".into(),
                status: "ok".into(),
                reason: String::new(),
                wall_nanos: 0,
                sim_nanos: 0,
                queue_wait_nanos: 0,
                ledger: LedgerSnapshot::default(),
            });
        }
        let records = log.snapshot();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].query_id, 2);
        assert_eq!(records[1].query_id, 3);
        assert!(log.find(1).is_none());
        assert!(log.find(3).is_some());
    }
}
