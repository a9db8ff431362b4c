//! # lakehouse-store
//!
//! The object-storage substrate of the lakehouse (the paper's S3 layer).
//!
//! A data lake "is ultimately made of files" (paper §4.2): this crate
//! provides the [`ObjectStore`] trait with two backends — an in-memory store
//! for tests and a local-filesystem store — plus a **latency-simulating
//! wrapper** ([`SimulatedStore`]) that models S3-like first-byte latency and
//! bandwidth-limited transfers. The simulation is what lets the benchmark
//! harness reproduce the paper's claim that *moving data is the bottleneck at
//! reasonable scale* (§4.4.2) without a real cloud account.
//!
//! All wall-clock effects are also recorded in [`StoreMetrics`], so benches
//! can read accumulated *simulated* time deterministically instead of
//! sleeping.
//!
//! What the lakehouse stacks on a backend, innermost first:
//! [`SimulatedStore`] (latency model and metrics), then, each optional,
//! [`ChaosStore`] (the one fault injector) and [`RetryStore`] (the one owner
//! of a store fault's retries). An [`IoDispatcher`] over the whole stack
//! overlaps a scan's range reads on a few worker threads.

pub mod chaos;
pub mod error;
pub mod io;
pub mod latency;
pub mod local;
pub mod memory;
pub mod metrics;
pub mod path;
pub mod retry;

pub use chaos::{ChaosConfig, ChaosStore, FaultKind};
pub use error::{killed_message, Result, StoreError, KILLED_PREFIX};
pub use io::{HedgePolicy, IoCompletion, IoDispatcher, IoStats, IoTicket};
pub use latency::{LatencyModel, SimulatedStore, SleepMode};
pub use local::LocalFsStore;
pub use memory::InMemoryStore;
pub use metrics::StoreMetrics;
pub use path::ObjectPath;
pub use retry::{Backoff, RetryPolicy, RetryStore};

use bytes::Bytes;
use std::sync::Arc;

/// A minimal object store: the API surface the rest of the lakehouse needs
/// (a subset of S3 semantics — whole-object put/get, prefix list, delete).
pub trait ObjectStore: Send + Sync {
    /// Store an object, overwriting any existing object at `path`.
    fn put(&self, path: &ObjectPath, data: Bytes) -> Result<()>;

    /// Fetch a whole object.
    fn get(&self, path: &ObjectPath) -> Result<Bytes>;

    /// Fetch a byte range `[start, end)` of an object (used for file footers).
    fn get_range(&self, path: &ObjectPath, start: usize, end: usize) -> Result<Bytes> {
        let data = self.get(path)?;
        if start > end || end > data.len() {
            return Err(StoreError::InvalidRange {
                start,
                end,
                len: data.len(),
            });
        }
        Ok(data.slice(start..end))
    }

    /// Object size in bytes without fetching the body.
    fn head(&self, path: &ObjectPath) -> Result<usize>;

    /// All object paths under a prefix, lexicographically sorted.
    fn list(&self, prefix: &str) -> Result<Vec<ObjectPath>>;

    /// Delete an object. Deleting a missing object is an error (callers that
    /// want idempotent delete check `exists` first).
    fn delete(&self, path: &ObjectPath) -> Result<()>;

    /// Whether an object exists.
    fn exists(&self, path: &ObjectPath) -> bool {
        self.head(path).is_ok()
    }

    /// Atomic compare-and-swap put: succeed only if the object's current
    /// content matches `expected` (`None` = must not exist). This is the
    /// primitive the catalog's optimistic commits build on.
    fn put_if_matches(&self, path: &ObjectPath, expected: Option<&[u8]>, data: Bytes)
        -> Result<()>;

    /// The metrics sink this store records into, if it has one. Lets code
    /// holding only a `dyn ObjectStore` (e.g. a table scan) read simulated
    /// latency and cache counters without knowing the wrapper stack.
    fn store_metrics(&self) -> Option<Arc<StoreMetrics>> {
        None
    }

    /// Report that bytes read for `path` failed a *downstream* integrity
    /// check (file-footer or column-chunk checksum). A layer that keeps
    /// bytes must drop every entry for the path, so a retry re-fetches from
    /// the backend instead of re-serving the poisoned bytes; wrappers
    /// forward the call, and stores that keep nothing do nothing.
    fn invalidate_corrupt(&self, path: &ObjectPath) {
        let _ = path;
    }
}

impl<T: ObjectStore + ?Sized> ObjectStore for Arc<T> {
    fn put(&self, path: &ObjectPath, data: Bytes) -> Result<()> {
        (**self).put(path, data)
    }
    fn get(&self, path: &ObjectPath) -> Result<Bytes> {
        (**self).get(path)
    }
    fn get_range(&self, path: &ObjectPath, start: usize, end: usize) -> Result<Bytes> {
        (**self).get_range(path, start, end)
    }
    fn head(&self, path: &ObjectPath) -> Result<usize> {
        (**self).head(path)
    }
    fn list(&self, prefix: &str) -> Result<Vec<ObjectPath>> {
        (**self).list(prefix)
    }
    fn delete(&self, path: &ObjectPath) -> Result<()> {
        (**self).delete(path)
    }
    fn exists(&self, path: &ObjectPath) -> bool {
        (**self).exists(path)
    }
    fn put_if_matches(
        &self,
        path: &ObjectPath,
        expected: Option<&[u8]>,
        data: Bytes,
    ) -> Result<()> {
        (**self).put_if_matches(path, expected, data)
    }
    fn store_metrics(&self) -> Option<Arc<StoreMetrics>> {
        (**self).store_metrics()
    }
    fn invalidate_corrupt(&self, path: &ObjectPath) {
        (**self).invalidate_corrupt(path)
    }
}
