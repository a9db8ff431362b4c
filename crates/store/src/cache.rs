//! Per-store adapter over the shared [`BufferPool`].
//!
//! The paper's core observation is that object-store round trips dominate at
//! Reasonable Scale; the cheapest round trip is the one never made. Every
//! query re-reads the same *metadata*: the table's manifest, and each data
//! file's footer (a small tail range). [`CachedStore`] sits above any
//! [`ObjectStore`] and answers repeated whole-object GETs and exact range
//! GETs from memory — the "differential caching" lever of FaaS lakehouse
//! engines, applied to the metadata path.
//!
//! The cache itself lives in [`crate::pool::BufferPool`] — a sharded,
//! admission-controlled page cache with CRC32C entry frames, meant to be
//! shared by every engine of a process — and `CachedStore` is the thin
//! adapter that routes one store's traffic through a pool handle
//! ([`CachedStore::with_pool`]). Cache effectiveness is a property of the
//! pool, not of any one store: read `pool.{hits,misses,...}` from
//! [`PoolMetrics`] or the process metrics registry; the store's own
//! [`StoreMetrics`] keep reporting only real store traffic.
//!
//! Coherence model: all writers go *through* this wrapper (a `put`,
//! `put_if_matches`, or `delete` invalidates every cached entry for that
//! path). Lakehouse data and metadata objects are immutable once written —
//! only the catalog pointer mutates, and it mutates through the same handle —
//! so write-through invalidation is sufficient. A shared pool additionally
//! assumes every attached store views the same object universe (one lake,
//! many engines); invalidations are then visible to all of them at once.
//!
//! Cache hits charge no simulated latency and move no `bytes_read` — exactly
//! like a memory hit in front of S3.

use crate::error::Result;
use crate::metrics::StoreMetrics;
use crate::path::ObjectPath;
use crate::pool::{BufferPool, PoolKey, PoolMetrics};
use crate::ObjectStore;
use bytes::Bytes;
use std::sync::Arc;

/// An [`ObjectStore`] wrapper that serves whole objects and byte ranges from
/// a (typically shared) [`BufferPool`]. See the module docs for the
/// coherence model.
pub struct CachedStore<S> {
    inner: S,
    pool: Arc<BufferPool>,
}

impl<S: ObjectStore> CachedStore<S> {
    /// Wrap `inner` over an existing (typically shared) pool.
    pub fn with_pool(inner: S, pool: Arc<BufferPool>) -> Self {
        CachedStore { inner, pool }
    }

    /// Override the largest cacheable entry size.
    ///
    /// Adjusts the underlying pool: this changes the cap for every store
    /// attached to it.
    pub fn with_max_entry_bytes(self, max_entry: usize) -> Self {
        self.pool.set_max_entry_bytes(max_entry);
        self
    }

    /// Bytes currently resident in the pool.
    pub fn cached_bytes(&self) -> usize {
        self.pool.cached_bytes()
    }

    /// Number of resident pool entries.
    pub fn cached_entries(&self) -> usize {
        self.pool.cached_entries()
    }

    /// Drop every cached entry (counters are untouched).
    pub fn clear(&self) {
        self.pool.clear()
    }

    /// Access the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The pool this store caches through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The pool's own metrics (hits/misses/admission/verification).
    pub fn pool_metrics(&self) -> Arc<PoolMetrics> {
        self.pool.metrics()
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
        let (data, _hit) = self.pool.get_or_load(&key, || self.inner.get(path))?;
        Ok(data)
    }

    fn get_range(&self, path: &ObjectPath, start: usize, end: usize) -> Result<Bytes> {
        let key = PoolKey::Range(path.as_str().to_string(), start, end);
        let load = || self.inner.get_range(path, start, end);
        let (data, _hit) = self.pool.get_or_load(&key, load)?;
        Ok(data)
    }

    fn head(&self, path: &ObjectPath) -> Result<usize> {
        // Size of a cached whole object is known without a round trip.
        if let Some(data) = self.pool.try_get_whole(path.as_str()) {
            return Ok(data.len());
        }
        self.inner.head(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectPath>> {
        // Listings are not cached: they must observe every write immediately
        // and are off the per-query hot path.
        self.inner.list(prefix)
    }

    fn delete(&self, path: &ObjectPath) -> Result<()> {
        self.inner.delete(path)?;
        self.pool.invalidate_path(path.as_str());
        Ok(())
    }

    fn exists(&self, path: &ObjectPath) -> bool {
        if self.pool.contains_whole(path.as_str()) {
            return true;
        }
        self.inner.exists(path)
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
    use crate::latency::{LatencyModel, SimulatedStore};
    use crate::memory::InMemoryStore;

    fn p(s: &str) -> ObjectPath {
        ObjectPath::new(s).unwrap()
    }

    fn store(capacity: usize) -> CachedStore<InMemoryStore> {
        let pool = Arc::new(BufferPool::private(capacity));
        CachedStore::with_pool(InMemoryStore::new(), pool)
    }

    #[test]
    fn repeated_get_hits_cache() {
        let s = store(1 << 20);
        s.put(&p("m/manifest.json"), Bytes::from_static(b"abc"))
            .unwrap();
        let m = s.pool_metrics();
        assert_eq!(
            s.get(&p("m/manifest.json")).unwrap(),
            Bytes::from_static(b"abc")
        );
        assert_eq!(
            s.get(&p("m/manifest.json")).unwrap(),
            Bytes::from_static(b"abc")
        );
        // put write-through seeds the cache: both gets hit.
        assert_eq!(m.hits(), 2);
        assert_eq!(m.misses(), 0);
    }

    #[test]
    fn range_hits_exact_and_whole() {
        let s = store(1 << 20);
        s.clear(); // no write-through help
        s.inner()
            .put(&p("f"), Bytes::from_static(b"0123456789"))
            .unwrap();
        let m = s.pool_metrics();
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
        let s = store(1 << 20);
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
        let s = store(64).with_max_entry_bytes(32);
        for i in 0..8 {
            s.put(&p(&format!("o/{i}")), Bytes::from(vec![i as u8; 20]))
                .unwrap();
        }
        assert!(s.cached_bytes() <= 64);
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
        let s = store(1 << 20).with_max_entry_bytes(4);
        s.put(&p("big"), Bytes::from(vec![7u8; 100])).unwrap();
        assert_eq!(s.cached_entries(), 0);
        let m = s.pool_metrics();
        s.get(&p("big")).unwrap();
        s.get(&p("big")).unwrap();
        assert_eq!(m.hits(), 0);
        assert_eq!(m.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let s = store(30).with_max_entry_bytes(10);
        s.put(&p("a"), Bytes::from(vec![1u8; 10])).unwrap();
        s.put(&p("b"), Bytes::from(vec![2u8; 10])).unwrap();
        s.put(&p("c"), Bytes::from(vec![3u8; 10])).unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        s.get(&p("a")).unwrap();
        s.put(&p("d"), Bytes::from(vec![4u8; 10])).unwrap();
        let m = s.pool_metrics();
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
        let s = CachedStore::with_pool(sim, Arc::new(BufferPool::private(1 << 20)));
        s.put(&p("a"), Bytes::from_static(b"hello")).unwrap();
        let serial_after_put = sim_metrics.simulated_time();
        s.get(&p("a")).unwrap();
        // Hit: no extra simulated latency, no store bytes moved.
        assert_eq!(sim_metrics.simulated_time(), serial_after_put);
        assert_eq!(sim_metrics.bytes_read(), 0);
        assert_eq!(sim_metrics.gets(), 0);
        assert_eq!(s.pool_metrics().hits(), 1);
    }

    #[test]
    fn head_served_from_cache() {
        let s = store(1 << 20);
        s.put(&p("a"), Bytes::from_static(b"12345")).unwrap();
        assert_eq!(s.head(&p("a")).unwrap(), 5);
        let m = s.pool_metrics();
        assert_eq!(m.hits(), 1);
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
        let s = store(1 << 20);
        s.put(&p("t"), Bytes::from_static(b"half-written")).unwrap();
        assert_eq!(s.cached_entries(), 1);
        s.invalidate_corrupt(&p("t"));
        assert_eq!(s.cached_entries(), 0);
        assert_eq!(s.pool_metrics().verify_failures(), 1);
        // The next read re-fetches clean bytes from the backend.
        assert_eq!(s.get(&p("t")).unwrap(), Bytes::from_static(b"half-written"));
    }
}
