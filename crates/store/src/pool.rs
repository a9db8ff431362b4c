//! Process-wide verified buffer pool: one byte-budgeted page cache that any
//! number of stores (and therefore any number of `Lakehouse` / `SqlEngine`
//! instances) can share, and [`CachedStore`], the adapter that routes one
//! store's traffic through it.
//!
//! The paper's economics are blunt: at Reasonable Scale the dominant cost of
//! a query is object-store round trips, and the cheapest round trip is the
//! one never made. A per-engine LRU leaves the biggest win on the table —
//! concurrent functions re-fetch the *same* manifests and footers because
//! each holds its own cache. This module is the shared substrate: a
//! sharded, admission-controlled, checksummed pool. Cache effectiveness is
//! a property of the pool, not of any one store: read [`PoolMetrics`] (or
//! `pool.*` in the metrics registry); a store's own [`StoreMetrics`] report
//! only real store traffic — a hit charges no simulated latency and moves no
//! `bytes_read`, exactly like a memory hit in front of S3.
//!
//! Three mechanisms beyond a plain LRU:
//!
//! - **Segmented LRU**: entries land in a probation segment and are promoted
//!   to a protected segment (80% of the budget) on re-reference. Eviction
//!   prefers probation, so one-touch pages leave first.
//! - **TinyLFU admission**: a 4-row count-min sketch of 4-bit counters
//!   estimates access frequency. When inserting a page would evict a victim
//!   that is *more* frequent than the candidate, the candidate is rejected
//!   instead — a large cold scan cannot flush the hot metadata working set.
//!   Write-through inserts (the caller just produced the bytes) bypass the
//!   contest; read-miss inserts compete.
//! - **CRC32C frames**: every entry records a checksum on insert and is
//!   verified on every hit. A mismatch removes the entry, bumps
//!   `pool.verify_failures`, and reports a miss — cached corruption is
//!   detected, never served. The same counter also records format-layer
//!   verification failures attributed to a cached path via
//!   [`BufferPool::invalidate_corrupt`], which is how a torn read caught by
//!   a file-footer checksum poisons the cache entry that held it.
//!
//! Concurrency: keys are sharded by *path* (all entries of one object live
//! in one shard), so invalidation is single-shard and a range lookup can
//! fall back to its whole-object entry under one lock. Misses are
//! single-flighted per key: one loader fetches while other threads wait on
//! a gate; waiters whose entry vanished (loader failed, or admission
//! rejected it) fall back to at most one direct fetch each.
//!
//! Coherence model: all writers go through an attached [`CachedStore`] (a
//! `put`, `put_if_matches` or `delete` replaces or drops every entry for its
//! path). Lakehouse data and metadata objects are immutable once written —
//! only the catalog pointer mutates, through the same handle — so
//! write-through invalidation is sufficient. A shared pool assumes every
//! attached store views the same object universe (same paths → same bytes);
//! an invalidation is then visible to all of them at once.

use crate::error::Result;
use crate::metrics::StoreMetrics;
use crate::path::ObjectPath;
use crate::ObjectStore;
use bytes::Bytes;
use lakehouse_checksum::crc32c;
use lakehouse_obs::{Counter, Gauge};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Pool key: a whole object or one exact byte range of an object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PoolKey {
    Whole(String),
    Range(String, usize, usize),
}

impl PoolKey {
    pub fn path(&self) -> &str {
        match self {
            PoolKey::Whole(p) => p,
            PoolKey::Range(p, _, _) => p,
        }
    }

    /// Deterministic 64-bit identity used by the frequency sketch (FNV-1a
    /// over the discriminant, path, and bounds — stable across runs).
    fn sketch_hash(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        match self {
            PoolKey::Whole(p) => {
                feed(&[0u8]);
                feed(p.as_bytes());
            }
            PoolKey::Range(p, s, e) => {
                feed(&[1u8]);
                feed(p.as_bytes());
                feed(&(*s as u64).to_le_bytes());
                feed(&(*e as u64).to_le_bytes());
            }
        }
        h
    }
}

/// Splitmix64 finalizer — decorrelates the sketch rows.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SKETCH_ROWS: usize = 4;
const SKETCH_ROW_SEEDS: [u64; SKETCH_ROWS] = [
    0xA076_1D64_78BD_642F,
    0xE703_7ED1_A0B4_28DB,
    0x8EBC_6AF0_9C88_C6E3,
    0x5899_65CC_7537_4CC3,
];

/// Count-min sketch with 4-bit saturating counters and periodic halving —
/// the TinyLFU frequency estimator. One per shard (paths are shard-stable,
/// so a key's frequency accumulates in a single sketch).
struct FrequencySketch {
    rows: Vec<Vec<u8>>,
    mask: u64,
    ops: u64,
    window: u64,
}

impl FrequencySketch {
    fn new(shard_capacity: usize) -> FrequencySketch {
        let width = (shard_capacity / 512).next_power_of_two().clamp(64, 32_768);
        FrequencySketch {
            rows: vec![vec![0u8; width]; SKETCH_ROWS],
            mask: width as u64 - 1,
            ops: 0,
            window: width as u64 * 16,
        }
    }

    fn index(&self, hash: u64, row: usize) -> usize {
        (mix(hash ^ SKETCH_ROW_SEEDS[row]) & self.mask) as usize
    }

    fn bump(&mut self, hash: u64) {
        for row in 0..SKETCH_ROWS {
            let idx = self.index(hash, row);
            let c = &mut self.rows[row][idx];
            if *c < 15 {
                *c += 1;
            }
        }
        self.ops += 1;
        if self.ops >= self.window {
            // Halve every counter: old traffic decays so the sketch tracks
            // the recent access distribution, not all of history.
            for row in &mut self.rows {
                for c in row.iter_mut() {
                    *c >>= 1;
                }
            }
            self.ops = 0;
        }
    }

    fn freq(&self, hash: u64) -> u8 {
        (0..SKETCH_ROWS)
            .map(|row| self.rows[row][self.index(hash, row)])
            .min()
            .unwrap_or(0)
    }
}

/// Counters and gauges for one pool, published under `pool.*` in the
/// process-wide metrics registry (so `bauplan profile` shows them).
///
/// These are the pool's *own* metrics: when a pool is shared across stores,
/// effectiveness is a property of the pool, not of any one store's
/// `StoreMetrics`.
pub struct PoolMetrics {
    hits: AtomicU64,
    misses: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    evicted_bytes: AtomicU64,
    verify_failures: AtomicU64,
    quota_denied: AtomicU64,
    resident_bytes: AtomicU64,
    resident_entries: AtomicU64,
    g_hits: Arc<Counter>,
    g_misses: Arc<Counter>,
    g_admitted: Arc<Counter>,
    g_rejected: Arc<Counter>,
    g_evicted_bytes: Arc<Counter>,
    g_verify_failures: Arc<Counter>,
    g_quota_denied: Arc<Counter>,
    g_resident_bytes: Arc<Gauge>,
    g_resident_entries: Arc<Gauge>,
}

impl PoolMetrics {
    fn new() -> PoolMetrics {
        let reg = lakehouse_obs::global();
        PoolMetrics {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
            quota_denied: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
            resident_entries: AtomicU64::new(0),
            g_hits: reg.counter("pool.hits"),
            g_misses: reg.counter("pool.misses"),
            g_admitted: reg.counter("pool.admitted"),
            g_rejected: reg.counter("pool.rejected"),
            g_evicted_bytes: reg.counter("pool.evicted_bytes"),
            g_verify_failures: reg.counter("pool.verify_failures"),
            g_quota_denied: reg.counter("pool.quota_denied"),
            g_resident_bytes: reg.gauge("pool.resident_bytes"),
            g_resident_entries: reg.gauge("pool.resident_entries"),
        }
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.g_hits.inc();
        lakehouse_obs::ctx::charge(|l| l.add_pool_hit());
    }
    fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.g_misses.inc();
        lakehouse_obs::ctx::charge(|l| l.add_pool_miss());
    }
    fn record_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.g_admitted.inc();
    }
    fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.g_rejected.inc();
    }
    fn record_evicted(&self, bytes: usize) {
        self.evicted_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.g_evicted_bytes.add(bytes as u64);
    }
    fn record_verify_failure(&self) {
        self.verify_failures.fetch_add(1, Ordering::Relaxed);
        self.g_verify_failures.inc();
    }
    fn record_quota_denied(&self) {
        self.quota_denied.fetch_add(1, Ordering::Relaxed);
        self.g_quota_denied.inc();
    }
    fn update_resident(&self, bytes_delta: i64, entries_delta: i64) {
        let b = if bytes_delta >= 0 {
            self.resident_bytes
                .fetch_add(bytes_delta as u64, Ordering::Relaxed)
                .wrapping_add(bytes_delta as u64)
        } else {
            self.resident_bytes
                .fetch_sub((-bytes_delta) as u64, Ordering::Relaxed)
                .wrapping_sub((-bytes_delta) as u64)
        };
        let e = if entries_delta >= 0 {
            self.resident_entries
                .fetch_add(entries_delta as u64, Ordering::Relaxed)
                .wrapping_add(entries_delta as u64)
        } else {
            self.resident_entries
                .fetch_sub((-entries_delta) as u64, Ordering::Relaxed)
                .wrapping_sub((-entries_delta) as u64)
        };
        self.g_resident_bytes.set(b);
        self.g_resident_entries.set(e);
    }

    /// Lookups answered from resident, checksum-verified bytes.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
    /// Lookups that fell through to the backing store.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
    /// Entries accepted into the pool.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }
    /// Insert attempts turned away (lost the TinyLFU frequency contest, or
    /// exceeded the per-entry size cap).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
    /// Bytes removed to make room for admitted entries.
    pub fn evicted_bytes(&self) -> u64 {
        self.evicted_bytes.load(Ordering::Relaxed)
    }
    /// Checksum verification failures: in-pool CRC mismatches plus
    /// format-layer corruption reports against cached paths
    /// ([`BufferPool::invalidate_corrupt`]).
    pub fn verify_failures(&self) -> u64 {
        self.verify_failures.load(Ordering::Relaxed)
    }
    /// Promotions to the protected segment denied because the owning
    /// tenant's protected-byte quota was full (tenant isolation).
    pub fn quota_denied(&self) -> u64 {
        self.quota_denied.load(Ordering::Relaxed)
    }
    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }
    /// Entries currently resident.
    pub fn resident_entries(&self) -> u64 {
        self.resident_entries.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for PoolMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolMetrics")
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("admitted", &self.admitted())
            .field("rejected", &self.rejected())
            .field("evicted_bytes", &self.evicted_bytes())
            .field("verify_failures", &self.verify_failures())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
}

struct PoolEntry {
    data: Bytes,
    crc: u32,
    last_used: u64,
    segment: Segment,
    /// Tenant whose query inserted the entry (empty when no [`QueryCtx`]
    /// was entered). Only consulted when a tenant quota is armed.
    tenant: String,
}

/// A single-flight gate: the first misser loads while later missers wait.
/// Built on `std::sync` because the vendored `parking_lot` has no condvar;
/// poisoned locks are recovered (`into_inner`), never unwrapped.
struct Gate {
    done: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            done: std::sync::Mutex::new(false),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Wait for the gate to open, bailing out early when the calling
    /// query's cancel token trips. Returns the kill reason on bail-out;
    /// `None` means the loader finished and the caller should re-check.
    fn wait(&self) -> Option<lakehouse_obs::KillReason> {
        let ctx = lakehouse_obs::QueryCtx::current();
        let mut done = self
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*done {
            if let Some(reason) = ctx.as_ref().and_then(|c| c.check().err()) {
                return Some(reason);
            }
            let (guard, _timeout) = self
                .cv
                .wait_timeout(done, std::time::Duration::from_millis(5))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            done = guard;
        }
        None
    }

    fn open(&self) {
        *self
            .done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        self.cv.notify_all();
    }
}

/// Per-tenant byte accounting inside one shard.
#[derive(Debug, Default, Clone, Copy)]
struct TenantBytes {
    resident: usize,
    protected: usize,
}

struct Shard {
    map: HashMap<PoolKey, PoolEntry>,
    bytes: usize,
    protected_bytes: usize,
    /// Monotone recency stamp (larger = more recently used).
    tick: u64,
    sketch: FrequencySketch,
    inflight: HashMap<PoolKey, Arc<Gate>>,
    /// Resident/protected bytes per owning tenant (entries removed at 0).
    tenant_bytes: HashMap<String, TenantBytes>,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            map: HashMap::new(),
            bytes: 0,
            protected_bytes: 0,
            tick: 0,
            sketch: FrequencySketch::new(capacity),
            inflight: HashMap::new(),
            tenant_bytes: HashMap::new(),
        }
    }

    fn tenant_add(&mut self, tenant: &str, resident: isize, protected: isize) {
        let e = self.tenant_bytes.entry(tenant.to_string()).or_default();
        e.resident = (e.resident as isize + resident).max(0) as usize;
        e.protected = (e.protected as isize + protected).max(0) as usize;
        if e.resident == 0 && e.protected == 0 {
            self.tenant_bytes.remove(tenant);
        }
    }

    fn tenant_protected(&self, tenant: &str) -> usize {
        self.tenant_bytes
            .get(tenant)
            .map(|t| t.protected)
            .unwrap_or(0)
    }
}

/// Removes the single-flight gate and wakes waiters even if the loader
/// panicked — waiters then fall back to direct fetches instead of blocking
/// forever.
struct GateCleanup<'a> {
    shard: &'a Mutex<Shard>,
    key: &'a PoolKey,
    gate: &'a Arc<Gate>,
}

impl Drop for GateCleanup<'_> {
    fn drop(&mut self) {
        self.shard.lock().inflight.remove(self.key);
        self.gate.open();
    }
}

/// The shared, admission-controlled, checksum-verified page cache. See the
/// module docs for the design; [`CachedStore`] is the per-store adapter that
/// routes `ObjectStore` traffic through one of these.
pub struct BufferPool {
    shards: Vec<Mutex<Shard>>,
    /// Byte budget per shard (total budget / shard count).
    shard_capacity: usize,
    /// Largest single entry the pool will hold (bigger reads pass through;
    /// prevents one bulk object from evicting all the metadata).
    max_entry: AtomicUsize,
    /// Per-tenant byte quota on the protected segment (0 = tenant isolation
    /// off; eviction and promotion then behave exactly as without quotas).
    tenant_quota: AtomicUsize,
    metrics: Arc<PoolMetrics>,
}

/// Shards for a pool built with [`BufferPool::new`] (shared use). A power
/// of two so the shard index is a mask.
const DEFAULT_SHARDS: usize = 8;

/// Protected segment budget as a fraction of each shard (SLRU): 4/5.
const PROTECTED_NUM: usize = 4;
const PROTECTED_DEN: usize = 5;

impl BufferPool {
    /// A pool meant for sharing across stores: sharded locks, `capacity_bytes`
    /// total budget split evenly across shards. Entries larger than a quarter
    /// of the total budget are never cached (override via
    /// [`set_max_entry_bytes`](Self::set_max_entry_bytes)).
    pub fn new(capacity_bytes: usize) -> BufferPool {
        Self::with_shards(capacity_bytes, DEFAULT_SHARDS)
    }

    /// A single-shard pool: one lock, one global LRU order, so eviction is
    /// exact rather than per shard (small pools, eviction-order tests).
    pub fn private(capacity_bytes: usize) -> BufferPool {
        Self::with_shards(capacity_bytes, 1)
    }

    /// A pool with an explicit shard count (clamped to at least 1; small
    /// budgets get fewer shards so each shard keeps a usable byte budget).
    pub fn with_shards(capacity_bytes: usize, shards: usize) -> BufferPool {
        let shards = shards.max(1).min(capacity_bytes.max(1)).next_power_of_two();
        let shard_capacity = capacity_bytes / shards;
        BufferPool {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(shard_capacity)))
                .collect(),
            shard_capacity,
            max_entry: AtomicUsize::new((capacity_bytes / 4).max(1)),
            tenant_quota: AtomicUsize::new(0),
            metrics: Arc::new(PoolMetrics::new()),
        }
    }

    /// Override the largest cacheable entry size.
    pub fn set_max_entry_bytes(&self, max_entry: usize) {
        self.max_entry.store(max_entry.max(1), Ordering::Relaxed);
    }

    /// Arm (or, with 0, disarm) the per-tenant protected-byte quota. While
    /// armed:
    ///
    /// - a tenant whose protected bytes are at quota keeps new re-referenced
    ///   pages in probation instead of promoting them (`pool.quota_denied`);
    /// - a miss-driven insert never evicts another tenant's *protected*
    ///   pages — a greedy scan evicts its own probation pages first, then
    ///   its own protected ones, then other tenants' probation.
    ///
    /// With the quota at 0 (the default) behavior is byte-identical to a
    /// pool without tenant accounting.
    pub fn set_tenant_quota_bytes(&self, quota: usize) {
        self.tenant_quota.store(quota, Ordering::Relaxed);
    }

    /// The armed per-tenant protected-byte quota (0 = off).
    pub fn tenant_quota_bytes(&self) -> usize {
        self.tenant_quota.load(Ordering::Relaxed)
    }

    /// Per-tenant residency aggregated across shards, sorted by tenant:
    /// `(tenant, resident_bytes, protected_bytes)`. Tenant attribution is
    /// recorded on every insert, so stats are meaningful with or without an
    /// armed quota.
    pub fn tenant_stats(&self) -> Vec<(String, u64, u64)> {
        let mut agg: std::collections::BTreeMap<String, (u64, u64)> =
            std::collections::BTreeMap::new();
        for shard in &self.shards {
            let s = shard.lock();
            for (tenant, tb) in &s.tenant_bytes {
                let e = agg.entry(tenant.clone()).or_default();
                e.0 += tb.resident as u64;
                e.1 += tb.protected as u64;
            }
        }
        agg.into_iter().map(|(t, (r, p))| (t, r, p)).collect()
    }

    /// This pool's metrics (shared handle; live counters).
    pub fn metrics(&self) -> Arc<PoolMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Total byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    fn shard_for(&self, path: &str) -> &Mutex<Shard> {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in path.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        &self.shards[(mix(h) as usize) & (self.shards.len() - 1)]
    }

    /// Bytes currently resident across all shards.
    pub fn cached_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Number of resident entries across all shards.
    pub fn cached_entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether an exact key is resident (no recency touch, no metrics).
    pub fn contains(&self, key: &PoolKey) -> bool {
        self.shard_for(key.path()).lock().map.contains_key(key)
    }

    /// Drop every entry (counters are untouched).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            let (bytes, entries) = (s.bytes, s.map.len());
            s.map.clear();
            s.bytes = 0;
            s.protected_bytes = 0;
            s.tenant_bytes.clear();
            if bytes > 0 || entries > 0 {
                self.metrics
                    .update_resident(-(bytes as i64), -(entries as i64));
            }
        }
    }

    /// Serve `key` from the pool or load it via `load`, single-flighting
    /// concurrent misses on the same key. Returns the bytes and whether they
    /// came from the pool (`true` = hit). A `Range` key is also served by
    /// slicing a resident whole-object entry.
    ///
    /// Waiters that find no entry after the loader finishes (load failed, or
    /// admission rejected the entry) fall back to one direct `load` each —
    /// at most one extra fetch per waiting thread, never an unbounded storm.
    pub fn get_or_load<F>(&self, key: &PoolKey, load: F) -> Result<(Bytes, bool)>
    where
        F: FnOnce() -> Result<Bytes>,
    {
        let shard = self.shard_for(key.path());
        let gate: Arc<Gate> = {
            let mut s = shard.lock();
            let hash = key.sketch_hash();
            s.sketch.bump(hash);
            if let Some(data) = self.lookup_locked(&mut s, key) {
                self.metrics.record_hit();
                return Ok((data, true));
            }
            if let Some(gate) = s.inflight.get(key) {
                Arc::clone(gate)
            } else {
                // First misser: install a gate and load outside the lock.
                let gate = Arc::new(Gate::new());
                s.inflight.insert(key.clone(), Arc::clone(&gate));
                self.metrics.record_miss();
                drop(s);
                let cleanup = GateCleanup {
                    shard,
                    key,
                    gate: &gate,
                };
                let result = load();
                if let Ok(data) = &result {
                    let mut s = shard.lock();
                    self.insert_locked(&mut s, key.clone(), data.clone(), true);
                }
                drop(cleanup); // removes the gate, wakes waiters
                return result.map(|d| (d, false));
            }
        };
        // Another thread is loading this key: wait, then re-check. A killed
        // waiter abandons the gate without disturbing the loader or the
        // pool's bookkeeping — the shared pool stays consistent.
        if let Some(reason) = gate.wait() {
            return Err(crate::error::StoreError::QueryKilled { reason });
        }
        let mut s = shard.lock();
        if let Some(data) = self.lookup_locked(&mut s, key) {
            self.metrics.record_hit();
            return Ok((data, true));
        }
        // The loader failed or its entry is already gone: fetch directly.
        self.metrics.record_miss();
        drop(s);
        let data = load()?;
        let mut s = shard.lock();
        self.insert_locked(&mut s, key.clone(), data.clone(), true);
        Ok((data, false))
    }

    /// Serve a resident whole-object entry (recency touch + CRC verify),
    /// recording a pool hit on success. Used for `head`-style lookups where
    /// a fall-through is not a pool miss (the caller never inserts).
    pub fn try_get_whole(&self, path: &str) -> Option<Bytes> {
        let key = PoolKey::Whole(path.to_string());
        let mut s = self.shard_for(path).lock();
        s.sketch.bump(key.sketch_hash());
        let data = self.touch_verified(&mut s, &key)?;
        self.metrics.record_hit();
        Some(data)
    }

    /// Whether the whole object is resident (no touch — mirrors the seed
    /// `exists` check, which must not perturb recency).
    pub fn contains_whole(&self, path: &str) -> bool {
        self.shard_for(path)
            .lock()
            .map
            .contains_key(&PoolKey::Whole(path.to_string()))
    }

    /// Write-through replace: drop every entry for `path` (its ranges are
    /// stale) and insert the new whole object unconditionally — the caller
    /// just produced these bytes, so they skip the admission contest.
    pub fn replace_whole(&self, path: &str, data: Bytes) {
        let mut s = self.shard_for(path).lock();
        self.invalidate_locked(&mut s, path);
        self.insert_locked(&mut s, PoolKey::Whole(path.to_string()), data, false);
    }

    /// Drop every entry for `path` (write/delete invalidation).
    pub fn invalidate_path(&self, path: &str) {
        let mut s = self.shard_for(path).lock();
        self.invalidate_locked(&mut s, path);
    }

    /// Drop every entry for `path` because a *downstream* integrity check
    /// (file-footer or column-chunk checksum) rejected bytes read through
    /// this pool. Counts a verify failure: the poisoned entry is what kept
    /// serving the corruption, and the retry that follows must re-fetch.
    pub fn invalidate_corrupt(&self, path: &str) {
        self.metrics.record_verify_failure();
        self.invalidate_path(path);
    }

    fn invalidate_locked(&self, s: &mut Shard, path: &str) {
        let keys: Vec<PoolKey> = s.map.keys().filter(|k| k.path() == path).cloned().collect();
        for k in keys {
            self.remove_locked(s, &k);
        }
    }

    fn remove_locked(&self, s: &mut Shard, key: &PoolKey) -> Option<PoolEntry> {
        let e = s.map.remove(key)?;
        let len = e.data.len();
        s.bytes -= len;
        let protected = e.segment == Segment::Protected;
        if protected {
            s.protected_bytes -= len;
        }
        s.tenant_add(
            &e.tenant,
            -(len as isize),
            if protected { -(len as isize) } else { 0 },
        );
        self.metrics.update_resident(-(len as i64), -1);
        Some(e)
    }

    /// Exact-key touch with CRC verification and SLRU promotion. A checksum
    /// mismatch removes the entry, counts a verify failure, and misses.
    fn touch_verified(&self, s: &mut Shard, key: &PoolKey) -> Option<Bytes> {
        s.tick += 1;
        let tick = s.tick;
        let (verified, data) = match s.map.get(key) {
            None => return None,
            Some(e) => (crc32c(&e.data) == e.crc, e.data.clone()),
        };
        if !verified {
            self.metrics.record_verify_failure();
            self.remove_locked(s, key);
            return None;
        }
        // Admission to protected is where the tenant quota bites: a tenant
        // whose protected bytes are full keeps the page in probation (still
        // served, still touched) instead of growing its protected share.
        let quota = self.tenant_quota.load(Ordering::Relaxed);
        let denied = quota > 0
            && match s.map.get(key) {
                Some(e) if e.segment == Segment::Probation => {
                    s.tenant_protected(&e.tenant) + data.len() > quota
                }
                _ => false,
            };
        if denied {
            self.metrics.record_quota_denied();
        }
        let mut promoted: Option<String> = None;
        if let Some(entry) = s.map.get_mut(key) {
            entry.last_used = tick;
            if entry.segment == Segment::Probation && !denied {
                entry.segment = Segment::Protected;
                promoted = Some(entry.tenant.clone());
            }
        }
        if let Some(tenant) = promoted {
            s.protected_bytes += data.len();
            s.tenant_add(&tenant, 0, data.len() as isize);
            self.rebalance_protected(s);
        }
        Some(data)
    }

    /// Demote protected-LRU entries back to probation until the protected
    /// segment fits its budget. Moves no bytes out of the pool.
    fn rebalance_protected(&self, s: &mut Shard) {
        let budget = self.shard_capacity * PROTECTED_NUM / PROTECTED_DEN;
        while s.protected_bytes > budget {
            let Some(victim) = s
                .map
                .iter()
                .filter(|(_, e)| e.segment == Segment::Protected)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let Some(e) = s.map.get_mut(&victim) else {
                break;
            };
            let len = e.data.len();
            e.segment = Segment::Probation;
            let tenant = e.tenant.clone();
            s.protected_bytes -= len;
            s.tenant_add(&tenant, 0, -(len as isize));
        }
    }

    fn lookup_locked(&self, s: &mut Shard, key: &PoolKey) -> Option<Bytes> {
        if let Some(data) = self.touch_verified(s, key) {
            return Some(data);
        }
        // A resident whole object can serve any of its ranges.
        if let PoolKey::Range(path, start, end) = key {
            let whole = PoolKey::Whole(path.clone());
            if let Some(data) = self.touch_verified(s, &whole) {
                if *end <= data.len() {
                    return Some(data.slice(*start..*end));
                }
            }
        }
        None
    }

    /// Insert into probation. `admission: true` (read-miss path) runs the
    /// TinyLFU contest against each would-be victim; `false` (write-through)
    /// evicts plain LRU like the seed cache.
    fn insert_locked(&self, s: &mut Shard, key: PoolKey, data: Bytes, admission: bool) {
        let len = data.len();
        if len > self.max_entry.load(Ordering::Relaxed) || len > self.shard_capacity {
            self.metrics.record_rejected();
            return;
        }
        // Attribute the page to the inserting query's tenant (empty when no
        // query context is active, e.g. warm-up traffic).
        let tenant = lakehouse_obs::QueryCtx::current()
            .map(|c| c.tenant().to_string())
            .unwrap_or_default();
        let quota = self.tenant_quota.load(Ordering::Relaxed);
        s.tick += 1;
        let tick = s.tick;
        let hash = key.sketch_hash();
        s.sketch.bump(hash);
        self.remove_locked(s, &key); // replacing: drop the old entry's bytes
                                     // Make room, preferring probation victims (SLRU), stopping if the
                                     // candidate loses the frequency contest against a victim.
        while s.bytes + len > self.shard_capacity {
            // With tenant quotas armed, a miss may never evict *another*
            // tenant's protected pages; victims are taken from the inserting
            // tenant's own pages first (probation, then protected), then
            // foreign probation. Quota off = the seed's SLRU order, exactly.
            let victim = if quota == 0 {
                s.map
                    .iter()
                    .min_by_key(|(_, e)| (e.segment == Segment::Protected, e.last_used))
                    .map(|(k, _)| k.clone())
            } else {
                s.map
                    .iter()
                    .filter(|(_, e)| e.tenant == tenant || e.segment != Segment::Protected)
                    .min_by_key(|(_, e)| {
                        (
                            e.tenant != tenant,
                            e.segment == Segment::Protected,
                            e.last_used,
                        )
                    })
                    .map(|(k, _)| k.clone())
            };
            let Some(victim) = victim else {
                if quota > 0 && s.bytes + len > self.shard_capacity {
                    // Every resident byte belongs to other tenants' protected
                    // segments: politeness wins, the insert is rejected.
                    self.metrics.record_rejected();
                    return;
                }
                break;
            };
            if admission && s.sketch.freq(hash) < s.sketch.freq(victim.sketch_hash()) {
                self.metrics.record_rejected();
                return;
            }
            if let Some(e) = self.remove_locked(s, &victim) {
                self.metrics.record_evicted(e.data.len());
                // The inserting query caused this eviction: charge its
                // ledger and leave a flight-recorder event naming the victim.
                lakehouse_obs::ctx::charge(|l| l.add_evictions_caused(1));
                lakehouse_obs::recorder().record(
                    lakehouse_obs::EventKind::PoolEvict,
                    victim.path(),
                    e.data.len() as u64,
                );
            }
        }
        let crc = crc32c(&data);
        s.bytes += len;
        s.tenant_add(&tenant, len as isize, 0);
        lakehouse_obs::recorder().record(
            lakehouse_obs::EventKind::PoolAdmit,
            key.path(),
            len as u64,
        );
        s.map.insert(
            key,
            PoolEntry {
                data,
                crc,
                last_used: tick,
                segment: Segment::Probation,
                tenant,
            },
        );
        self.metrics.record_admitted();
        self.metrics.update_resident(len as i64, 1);
    }

    /// Test hook: overwrite a resident entry's bytes *without* refreshing
    /// its stored CRC, simulating in-cache corruption.
    #[cfg(test)]
    fn poison_entry(&self, key: &PoolKey, bad: Bytes) -> bool {
        let mut s = self.shard_for(key.path()).lock();
        match s.map.get_mut(key) {
            Some(e) => {
                e.data = bad;
                true
            }
            None => false,
        }
    }
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity_bytes", &self.capacity_bytes())
            .field("shards", &self.shards.len())
            .field("max_entry", &self.max_entry.load(Ordering::Relaxed))
            .finish()
    }
}

/// An [`ObjectStore`] that answers whole objects and exact byte ranges from
/// a (typically shared) [`BufferPool`] and writes through to it. See the
/// module docs for the coherence model.
pub struct CachedStore<S> {
    inner: S,
    pool: Arc<BufferPool>,
}

impl<S: ObjectStore> CachedStore<S> {
    pub fn with_pool(inner: S, pool: Arc<BufferPool>) -> Self {
        CachedStore { inner, pool }
    }
}

impl<S: ObjectStore> ObjectStore for CachedStore<S> {
    fn put(&self, path: &ObjectPath, data: Bytes) -> Result<()> {
        self.inner.put(path, data.clone())?;
        // Ranges of the old object are stale; the new whole object is known.
        self.pool.replace_whole(path.as_str(), data);
        Ok(())
    }

    fn get(&self, path: &ObjectPath) -> Result<Bytes> {
        let key = PoolKey::Whole(path.as_str().to_string());
        Ok(self.pool.get_or_load(&key, || self.inner.get(path))?.0)
    }

    fn get_range(&self, path: &ObjectPath, start: usize, end: usize) -> Result<Bytes> {
        let key = PoolKey::Range(path.as_str().to_string(), start, end);
        let load = || self.inner.get_range(path, start, end);
        Ok(self.pool.get_or_load(&key, load)?.0)
    }

    fn head(&self, path: &ObjectPath) -> Result<usize> {
        // Size of a cached whole object is known without a round trip.
        match self.pool.try_get_whole(path.as_str()) {
            Some(data) => Ok(data.len()),
            None => self.inner.head(path),
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectPath>> {
        // Listings must observe every write at once and are off the
        // per-query hot path: never cached.
        self.inner.list(prefix)
    }

    fn delete(&self, path: &ObjectPath) -> Result<()> {
        self.inner.delete(path)?;
        self.pool.invalidate_path(path.as_str());
        Ok(())
    }

    fn exists(&self, path: &ObjectPath) -> bool {
        self.pool.contains_whole(path.as_str()) || self.inner.exists(path)
    }

    fn put_if_matches(
        &self,
        path: &ObjectPath,
        expected: Option<&[u8]>,
        data: Bytes,
    ) -> Result<()> {
        self.inner.put_if_matches(path, expected, data.clone())?;
        self.pool.replace_whole(path.as_str(), data);
        Ok(())
    }

    fn store_metrics(&self) -> Option<Arc<StoreMetrics>> {
        self.inner.store_metrics()
    }

    fn invalidate_corrupt(&self, path: &ObjectPath) {
        // A downstream checksum rejected bytes read through this store: the
        // pool entry that held them is poisoned — drop it and count the
        // verification failure so the retry re-fetches from the backend.
        self.pool.invalidate_corrupt(path.as_str());
        self.inner.invalidate_corrupt(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;
    use crate::latency::{LatencyModel, SimulatedStore};
    use crate::memory::InMemoryStore;
    use std::sync::atomic::AtomicUsize;

    fn whole(p: &str) -> PoolKey {
        PoolKey::Whole(p.to_string())
    }

    fn p(s: &str) -> ObjectPath {
        ObjectPath::new(s).unwrap()
    }

    /// An in-memory store behind a private pool of `capacity` bytes.
    fn cached(capacity: usize) -> (CachedStore<InMemoryStore>, Arc<BufferPool>) {
        let pool = Arc::new(BufferPool::private(capacity));
        (
            CachedStore::with_pool(InMemoryStore::new(), Arc::clone(&pool)),
            pool,
        )
    }

    #[test]
    fn hit_after_load_and_exact_accounting() {
        let pool = BufferPool::private(1 << 20);
        let (d, hit) = pool
            .get_or_load(&whole("a"), || Ok(Bytes::from_static(b"abc")))
            .unwrap();
        assert_eq!(d, Bytes::from_static(b"abc"));
        assert!(!hit);
        let (d, hit) = pool
            .get_or_load(&whole("a"), || panic!("must not reload"))
            .unwrap();
        assert_eq!(d, Bytes::from_static(b"abc"));
        assert!(hit);
        let m = pool.metrics();
        assert_eq!(m.hits(), 1);
        assert_eq!(m.misses(), 1);
        assert_eq!(m.admitted(), 1);
        assert_eq!(m.resident_bytes(), 3);
    }

    #[test]
    fn range_served_from_whole_entry() {
        let pool = BufferPool::private(1 << 20);
        pool.replace_whole("f", Bytes::from_static(b"0123456789"));
        let key = PoolKey::Range("f".to_string(), 2, 5);
        let (d, hit) = pool
            .get_or_load(&key, || panic!("whole entry must serve the range"))
            .unwrap();
        assert_eq!(d, Bytes::from_static(b"234"));
        assert!(hit);
    }

    #[test]
    fn crc_verification_catches_poisoned_entry() {
        let pool = BufferPool::private(1 << 20);
        pool.replace_whole("x", Bytes::from_static(b"good bytes"));
        assert!(pool.poison_entry(&whole("x"), Bytes::from_static(b"bad  bytes")));
        // The hit path verifies, drops the entry, and reloads.
        let (d, hit) = pool
            .get_or_load(&whole("x"), || Ok(Bytes::from_static(b"good bytes")))
            .unwrap();
        assert_eq!(d, Bytes::from_static(b"good bytes"));
        assert!(!hit, "poisoned entry must not be served");
        assert_eq!(pool.metrics().verify_failures(), 1);
        // The reload re-resident a verified copy.
        let (_, hit) = pool
            .get_or_load(&whole("x"), || panic!("should be resident again"))
            .unwrap();
        assert!(hit);
    }

    #[test]
    fn admission_protects_frequent_entries_from_cold_scan() {
        let pool = BufferPool::private(100);
        pool.set_max_entry_bytes(60);
        // Make "hot" frequent: several touches build sketch frequency.
        for _ in 0..4 {
            let _ = pool.get_or_load(&whole("hot"), || Ok(Bytes::from(vec![1u8; 60])));
        }
        // A cold one-touch insert that would need to evict `hot` loses the
        // frequency contest and is rejected.
        let (d, hit) = pool
            .get_or_load(&whole("cold"), || Ok(Bytes::from(vec![2u8; 60])))
            .unwrap();
        assert_eq!(d.len(), 60);
        assert!(!hit);
        assert!(pool.metrics().rejected() >= 1);
        assert!(pool.contains(&whole("hot")), "hot entry must survive");
        assert!(
            !pool.contains(&whole("cold")),
            "cold entry must be rejected"
        );
    }

    #[test]
    fn write_through_bypasses_admission() {
        let pool = BufferPool::private(100);
        pool.set_max_entry_bytes(60);
        for _ in 0..4 {
            let _ = pool.get_or_load(&whole("hot"), || Ok(Bytes::from(vec![1u8; 60])));
        }
        // A write-through insert always lands (the writer just produced it).
        pool.replace_whole("fresh", Bytes::from(vec![3u8; 60]));
        assert!(pool.contains(&whole("fresh")));
        assert!(!pool.contains(&whole("hot")), "LRU victim evicted");
    }

    #[test]
    fn single_flight_coalesces_concurrent_misses() {
        let pool = Arc::new(BufferPool::new(1 << 20));
        let loads = Arc::new(AtomicUsize::new(0));
        let results: Vec<(usize, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    let loads = Arc::clone(&loads);
                    scope.spawn(move || {
                        let (d, hit) = pool
                            .get_or_load(&PoolKey::Whole("k".to_string()), || {
                                loads.fetch_add(1, Ordering::SeqCst);
                                // Widen the race window so waiters pile up.
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                Ok(Bytes::from_static(b"payload"))
                            })
                            .unwrap();
                        (d.len(), hit)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|(len, _)| *len == 7));
        assert_eq!(
            loads.load(Ordering::SeqCst),
            1,
            "one loader, everyone else waits on the gate"
        );
        assert_eq!(results.iter().filter(|(_, hit)| !hit).count(), 1);
    }

    #[test]
    fn failed_load_wakes_waiters_without_poisoning() {
        let pool = Arc::new(BufferPool::new(1 << 20));
        let first = pool.get_or_load(&whole("gone"), || {
            Err(StoreError::Transient("flaky".into()))
        });
        assert!(first.is_err());
        // The gate is gone; the next call loads cleanly.
        let (d, hit) = pool
            .get_or_load(&whole("gone"), || Ok(Bytes::from_static(b"ok")))
            .unwrap();
        assert_eq!(d, Bytes::from_static(b"ok"));
        assert!(!hit);
    }

    #[test]
    fn invalidate_corrupt_counts_and_clears() {
        let pool = BufferPool::private(1 << 20);
        pool.replace_whole("torn", Bytes::from_static(b"half"));
        assert_eq!(pool.cached_entries(), 1);
        pool.invalidate_corrupt("torn");
        assert_eq!(pool.cached_entries(), 0);
        assert_eq!(pool.metrics().verify_failures(), 1);
    }

    #[test]
    fn slru_protects_rereferenced_entries() {
        // Capacity 50: three 10-byte entries; re-reference a and b so they
        // sit in protected, then stream cold pages through probation.
        let pool = BufferPool::private(50);
        pool.set_max_entry_bytes(10);
        for name in ["a", "b", "c"] {
            pool.replace_whole(name, Bytes::from(vec![0u8; 10]));
        }
        for name in ["a", "b"] {
            let _ = pool.get_or_load(&whole(name), || unreachable!("resident"));
        }
        // Cold write-through stream: victims must come from probation (c,
        // then the cold pages themselves), never the protected a/b.
        for i in 0..8 {
            pool.replace_whole(&format!("cold/{i}"), Bytes::from(vec![1u8; 10]));
        }
        assert!(pool.contains(&whole("a")));
        assert!(pool.contains(&whole("b")));
        assert!(!pool.contains(&whole("c")));
    }

    #[test]
    fn eviction_is_deterministic_under_fixed_touch_order() {
        let run = || {
            let pool = BufferPool::private(300);
            pool.set_max_entry_bytes(100);
            for i in 0..10 {
                let _ = pool.get_or_load(&whole(&format!("k/{i}")), || {
                    Ok(Bytes::from(vec![i as u8; 60]))
                });
            }
            let mut resident: Vec<String> = (0..10)
                .map(|i| format!("k/{i}"))
                .filter(|k| pool.contains(&whole(k)))
                .collect();
            resident.sort();
            resident
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same touch order must leave the same residents");
        assert!(!a.is_empty());
    }

    #[test]
    fn tenant_quota_caps_protected_promotions() {
        let pool = BufferPool::private(1 << 20);
        pool.set_tenant_quota_bytes(400);
        let ctx = lakehouse_obs::QueryCtx::new("alpha", "q");
        let _g = ctx.enter();
        for i in 0..5 {
            pool.replace_whole(&format!("p/{i}"), Bytes::from(vec![i as u8; 100]));
        }
        // Touch every page: the first four promote (4 x 100 = quota), the
        // fifth is denied promotion but still served.
        for i in 0..5 {
            let (d, hit) = pool
                .get_or_load(&whole(&format!("p/{i}")), || unreachable!("resident"))
                .unwrap();
            assert_eq!(d.len(), 100);
            assert!(hit);
        }
        assert_eq!(pool.metrics().quota_denied(), 1);
        let stats = pool.tenant_stats();
        assert_eq!(stats, vec![("alpha".to_string(), 500, 400)]);
    }

    #[test]
    fn tenant_isolation_never_evicts_foreign_protected_pages() {
        let pool = BufferPool::private(1000);
        pool.set_max_entry_bytes(1000);
        pool.set_tenant_quota_bytes(400);
        // Polite tenant promotes two pages into protected.
        {
            let ctx = lakehouse_obs::QueryCtx::new("polite", "q");
            let _g = ctx.enter();
            for name in ["polite/a", "polite/b"] {
                pool.replace_whole(name, Bytes::from(vec![7u8; 100]));
                let _ = pool.get_or_load(&whole(name), || unreachable!("resident"));
            }
        }
        // Greedy tenant streams far more than the pool holds: its misses
        // must recycle its own pages, never the polite protected ones.
        {
            let ctx = lakehouse_obs::QueryCtx::new("greedy", "q");
            let _g = ctx.enter();
            for i in 0..30 {
                pool.replace_whole(&format!("greedy/{i}"), Bytes::from(vec![9u8; 100]));
            }
        }
        assert!(pool.contains(&whole("polite/a")));
        assert!(pool.contains(&whole("polite/b")));
        let stats = pool.tenant_stats();
        let polite = stats.iter().find(|(t, _, _)| t == "polite").unwrap();
        assert_eq!(
            (polite.1, polite.2),
            (200, 200),
            "polite protected bytes must survive the greedy stream"
        );
        let greedy = stats.iter().find(|(t, _, _)| t == "greedy").unwrap();
        assert!(greedy.1 <= 800, "greedy stays within capacity minus polite");
    }

    #[test]
    fn insert_rejected_when_only_foreign_protected_bytes_remain() {
        let pool = BufferPool::private(500);
        pool.set_max_entry_bytes(500);
        pool.set_tenant_quota_bytes(400);
        {
            let ctx = lakehouse_obs::QueryCtx::new("polite", "q");
            let _g = ctx.enter();
            for i in 0..4 {
                let name = format!("p/{i}");
                pool.replace_whole(&name, Bytes::from(vec![1u8; 100]));
                let _ = pool.get_or_load(&whole(&name), || unreachable!("resident"));
            }
        }
        // All 400 resident bytes are polite-protected; a 200-byte foreign
        // insert cannot make room without violating isolation.
        let rejected_before = pool.metrics().rejected();
        {
            let ctx = lakehouse_obs::QueryCtx::new("greedy", "q");
            let _g = ctx.enter();
            pool.replace_whole("g/big", Bytes::from(vec![2u8; 200]));
        }
        assert!(!pool.contains(&whole("g/big")));
        assert!(pool.metrics().rejected() > rejected_before);
        for i in 0..4 {
            assert!(pool.contains(&whole(&format!("p/{i}"))));
        }
    }

    // ---- the store adapter ----------------------------------------------

    #[test]
    fn repeated_get_hits_cache() {
        let (s, pool) = cached(1 << 20);
        s.put(&p("m/manifest.json"), Bytes::from_static(b"abc"))
            .unwrap();
        for _ in 0..2 {
            let got = s.get(&p("m/manifest.json")).unwrap();
            assert_eq!(got, Bytes::from_static(b"abc"));
        }
        // put write-through seeds the cache: both gets hit.
        assert_eq!((pool.metrics().hits(), pool.metrics().misses()), (2, 0));
    }

    #[test]
    fn range_hits_exact_and_whole() {
        let backend = InMemoryStore::new();
        backend
            .put(&p("f"), Bytes::from_static(b"0123456789"))
            .unwrap();
        let pool = Arc::new(BufferPool::private(1 << 20));
        let s = CachedStore::with_pool(backend, Arc::clone(&pool));
        let m = pool.metrics();
        assert_eq!(
            s.get_range(&p("f"), 2, 5).unwrap(),
            Bytes::from_static(b"234")
        );
        assert_eq!(m.misses(), 1);
        assert_eq!(
            s.get_range(&p("f"), 2, 5).unwrap(),
            Bytes::from_static(b"234")
        );
        assert_eq!(m.hits(), 1);
        // Whole object cached -> any range is a hit.
        s.get(&p("f")).unwrap();
        assert_eq!(
            s.get_range(&p("f"), 0, 9).unwrap(),
            Bytes::from_static(b"012345678")
        );
        assert_eq!(m.hits(), 2);
    }

    #[test]
    fn writes_invalidate() {
        let (s, _pool) = cached(1 << 20);
        s.put(&p("x"), Bytes::from_static(b"old")).unwrap();
        s.get_range(&p("x"), 0, 3).unwrap();
        s.put(&p("x"), Bytes::from_static(b"newer")).unwrap();
        assert_eq!(s.get(&p("x")).unwrap(), Bytes::from_static(b"newer"));
        assert_eq!(
            s.get_range(&p("x"), 0, 5).unwrap(),
            Bytes::from_static(b"newer")
        );
        s.delete(&p("x")).unwrap();
        assert!(s.get(&p("x")).is_err());
        assert!(!s.exists(&p("x")));
    }

    #[test]
    fn eviction_bounds_memory_and_preserves_bytes() {
        let (s, pool) = cached(64);
        pool.set_max_entry_bytes(32);
        for i in 0..8 {
            s.put(&p(&format!("o/{i}")), Bytes::from(vec![i as u8; 20]))
                .unwrap();
        }
        assert!(pool.cached_bytes() <= 64);
        // Every object still reads back identical bytes after eviction.
        for i in 0..8 {
            assert_eq!(
                s.get(&p(&format!("o/{i}"))).unwrap(),
                Bytes::from(vec![i as u8; 20])
            );
        }
    }

    #[test]
    fn oversized_entries_pass_through_uncached() {
        let (s, pool) = cached(1 << 20);
        pool.set_max_entry_bytes(4);
        s.put(&p("big"), Bytes::from(vec![7u8; 100])).unwrap();
        assert_eq!(pool.cached_entries(), 0);
        s.get(&p("big")).unwrap();
        s.get(&p("big")).unwrap();
        assert_eq!((pool.metrics().hits(), pool.metrics().misses()), (0, 2));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (s, pool) = cached(30);
        pool.set_max_entry_bytes(10);
        s.put(&p("a"), Bytes::from(vec![1u8; 10])).unwrap();
        s.put(&p("b"), Bytes::from(vec![2u8; 10])).unwrap();
        s.put(&p("c"), Bytes::from(vec![3u8; 10])).unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        s.get(&p("a")).unwrap();
        s.put(&p("d"), Bytes::from(vec![4u8; 10])).unwrap();
        let m = pool.metrics();
        let before = m.misses();
        s.get(&p("a")).unwrap();
        assert_eq!(m.misses(), before, "a should still be cached");
        s.get(&p("b")).unwrap();
        assert_eq!(m.misses(), before + 1, "b should have been evicted");
    }

    #[test]
    fn hits_cost_the_store_below_nothing() {
        let sim = SimulatedStore::new(InMemoryStore::new(), LatencyModel::s3_like());
        let sim_metrics = sim.metrics();
        let pool = Arc::new(BufferPool::private(1 << 20));
        let s = CachedStore::with_pool(sim, Arc::clone(&pool));
        s.put(&p("a"), Bytes::from_static(b"hello")).unwrap();
        let serial_after_put = sim_metrics.simulated_time();
        s.get(&p("a")).unwrap();
        // Hit: no extra simulated latency, no store bytes moved.
        assert_eq!(sim_metrics.simulated_time(), serial_after_put);
        assert_eq!((sim_metrics.bytes_read(), sim_metrics.gets()), (0, 0));
        assert_eq!(pool.metrics().hits(), 1);
    }

    #[test]
    fn head_served_from_cache() {
        let (s, pool) = cached(1 << 20);
        s.put(&p("a"), Bytes::from_static(b"12345")).unwrap();
        assert_eq!(s.head(&p("a")).unwrap(), 5);
        assert_eq!(pool.metrics().hits(), 1);
    }

    #[test]
    fn shared_pool_serves_across_stores() {
        let pool = Arc::new(BufferPool::new(1 << 20));
        let backend = Arc::new(InMemoryStore::new());
        let a = CachedStore::with_pool(Arc::clone(&backend), Arc::clone(&pool));
        let b = CachedStore::with_pool(Arc::clone(&backend), Arc::clone(&pool));
        a.put(&p("shared/obj"), Bytes::from_static(b"payload"))
            .unwrap();
        // Store B never fetched this object, yet reads it from the pool.
        assert_eq!(
            b.get(&p("shared/obj")).unwrap(),
            Bytes::from_static(b"payload")
        );
        assert_eq!(pool.metrics().hits(), 1);
    }

    #[test]
    fn shared_pool_invalidation_visible_to_all_stores() {
        let pool = Arc::new(BufferPool::new(1 << 20));
        let backend = Arc::new(InMemoryStore::new());
        let a = CachedStore::with_pool(Arc::clone(&backend), Arc::clone(&pool));
        let b = CachedStore::with_pool(Arc::clone(&backend), Arc::clone(&pool));
        a.put(&p("k"), Bytes::from_static(b"v1")).unwrap();
        assert_eq!(b.get(&p("k")).unwrap(), Bytes::from_static(b"v1"));
        b.put(&p("k"), Bytes::from_static(b"v2")).unwrap();
        // A's next read observes B's write immediately: one pool, one truth.
        assert_eq!(a.get(&p("k")).unwrap(), Bytes::from_static(b"v2"));
    }

    #[test]
    fn invalidate_corrupt_drops_entry_and_counts() {
        let (s, pool) = cached(1 << 20);
        s.put(&p("t"), Bytes::from_static(b"half-written")).unwrap();
        assert_eq!(pool.cached_entries(), 1);
        s.invalidate_corrupt(&p("t"));
        assert_eq!(pool.cached_entries(), 0);
        assert_eq!(pool.metrics().verify_failures(), 1);
        // The next read re-fetches clean bytes from the backend.
        assert_eq!(s.get(&p("t")).unwrap(), Bytes::from_static(b"half-written"));
    }
}
