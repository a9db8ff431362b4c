//! Write-once names for table-format objects, and the object cache that is
//! only sound because of them.
//!
//! Every metadata document, manifest and data file carries a 64-bit token
//! derived from its content in its name, so no path under a table's
//! `metadata/` or `data/` prefix is ever written twice with different
//! bytes: two branches committing to one table write different objects, and
//! a path read once names the same bytes for as long as it exists. That is
//! what lets [`ObjectCache`] key parsed documents and opened data files by
//! path alone with no validation round trip. The one mutable object of a
//! lake, the catalog's `refs.json`, never passes through a [`TableIo`], so
//! it is never cached here — it is read per statement and decides *which*
//! immutable objects a statement sees.

use crate::error::Result;
use lakehouse_format::WriterOptions;
use lakehouse_store::{IoDispatcher, ObjectPath, ObjectStore};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A 64-bit digest of `bytes` for object names: eight bytes a step
/// (multiply–rotate, the length folded in, a final avalanche), since a
/// manifest is ~100 KB and every commit names one. Not cryptographic — it
/// tells apart the documents honest committers write under one table
/// location and sequence number, which is all a name has to do.
pub(crate) fn content_token(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let (words, rest) = bytes.as_chunks::<8>();
    let mut h = (words.iter()).fold(bytes.len() as u64, |h, w| step(h, u64::from_le_bytes(*w)));
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    h = step(h, u64::from_le_bytes(tail));
    // fmix64 (MurmurHash3's finalizer).
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// `<location>/metadata/v<seq>-<token>.json` for a metadata document that
/// serializes to `bytes`; `seq` is its current snapshot's sequence number,
/// for the reader's eye.
pub(crate) fn metadata_path(location: &str, seq: u64, bytes: &[u8]) -> String {
    let token = content_token(bytes);
    format!("{location}/metadata/v{seq:05}-{token:016x}.json")
}

/// `<location>/metadata/manifest-<snapshot>-<token>.json`.
pub(crate) fn manifest_path(location: &str, snapshot_id: u64, bytes: &[u8]) -> String {
    let token = content_token(bytes);
    format!("{location}/metadata/manifest-{snapshot_id}-{token:016x}.json")
}

/// `<location>/data/snap<snapshot>-<n>-<token>.lkh`. The token is taken from
/// the file's footer, whose chunk checksums already cover the data: the
/// cost is the footer's length, not the file's.
pub(crate) fn data_path(location: &str, snapshot_id: u64, n: u64, file: &[u8]) -> Result<String> {
    let token = content_token(lakehouse_format::footer_bytes(file)?);
    Ok(format!(
        "{location}/data/snap{snapshot_id}-{n:05}-{token:016x}.lkh"
    ))
}

/// Stored bytes of the objects an [`ObjectCache`] holds by default. A
/// parsed document is two to three times its serialized size; 16 MiB is a
/// few hundred manifests of the benchmark's 61-file table, or some fifty of
/// its ≈ 300 KB day-files, each opened whole.
const DEFAULT_CAPACITY: usize = 16 << 20;

struct Entry {
    doc: Arc<dyn Any + Send + Sync>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, Entry>,
    bytes: usize,
    tick: u64,
}

/// Write-once table objects by path, least recently used out first, bounded
/// by their stored size: parsed metadata documents and manifests, and data
/// files opened for reading — each file's opening range
/// ([`lakehouse_format::RangedReader::opening_range`], the whole file when
/// it is small) with its footer parsed.
///
/// A document is filled on a miss and written through by commits; one that
/// fails to parse is never inserted. A data file is admitted by a scan
/// ([`crate::ScanStream`]) only after its read succeeded on the first try
/// and every chunk of its opening range matched its checksum, and only by a
/// scan small enough not to flush the cache (PostgreSQL's bulk-read rule:
/// one that would admit more than a quarter of it admits nothing; a
/// compaction admits nothing either). Not cached: `refs.json`, the one
/// mutable object.
pub struct ObjectCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ObjectCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ObjectCache {
    pub fn new() -> ObjectCache {
        Self::default()
    }

    /// A cache holding at most `capacity` stored bytes; a single object
    /// larger than that is not kept.
    pub fn with_capacity(capacity: usize) -> ObjectCache {
        ObjectCache {
            capacity,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Stored bytes of the objects held.
    pub fn cached_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Objects held.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that went to the store.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Whether a scan that would admit `bytes` is a bulk read, which admits
    /// nothing: more than a quarter of the capacity.
    pub(crate) fn is_bulk(&self, bytes: u64) -> bool {
        bytes > self.capacity as u64 / 4
    }

    pub(crate) fn get<T: Send + Sync + 'static>(&self, path: &str) -> Option<Arc<T>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.entries.get_mut(path).and_then(|e| {
            e.last_used = tick;
            Arc::clone(&e.doc).downcast::<T>().ok()
        });
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    pub(crate) fn insert<T: Send + Sync + 'static>(&self, path: &str, doc: Arc<T>, bytes: usize) {
        if bytes > self.capacity {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let entry = Entry {
            doc,
            bytes,
            last_used: inner.tick,
        };
        if let Some(old) = inner.entries.insert(path.to_string(), entry) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        while inner.bytes > self.capacity {
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(evicted) = oldest.and_then(|k| inner.entries.remove(&k)) else {
                break;
            };
            inner.bytes -= evicted.bytes;
        }
    }

    pub(crate) fn remove(&self, path: &str) {
        let mut inner = self.inner.lock();
        if let Some(old) = inner.entries.remove(path) {
            inner.bytes -= old.bytes;
        }
    }
}

/// What a [`crate::Table`] handle reads and writes through besides its
/// store: the object cache, the workers that overlap a scan's
/// data-file requests, and how its data files are cut into row groups. A
/// `Lakehouse` owns one of each and lends them to every table it opens;
/// the default — no cache, no workers, 8 192-row groups — fetches and
/// parses on every use, on the caller's thread.
#[derive(Clone, Default)]
pub struct TableIo {
    pub cache: Option<Arc<ObjectCache>>,
    pub dispatcher: Option<Arc<IoDispatcher>>,
    /// Every data file a transaction or a compaction of the table writes.
    pub writer_options: WriterOptions,
}

impl TableIo {
    /// The document at `path`: from the cache, else fetched, parsed and —
    /// only once it has parsed — cached.
    pub(crate) fn load<T: Send + Sync + 'static>(
        &self,
        store: &dyn ObjectStore,
        path: &str,
        parse: impl FnOnce(&[u8]) -> Result<T>,
    ) -> Result<Arc<T>> {
        if let Some(hit) = self.cache.as_ref().and_then(|c| c.get::<T>(path)) {
            return Ok(hit);
        }
        let bytes = store.get(&ObjectPath::new(path)?)?;
        let doc = Arc::new(parse(&bytes)?);
        if let Some(cache) = &self.cache {
            cache.insert(path, Arc::clone(&doc), bytes.len());
        }
        Ok(doc)
    }

    /// Write a new document and keep its parsed form: the next reader of
    /// `path` in this process fetches and parses nothing.
    pub(crate) fn persist<T: Send + Sync + 'static>(
        &self,
        store: &dyn ObjectStore,
        path: &str,
        bytes: Vec<u8>,
        doc: T,
    ) -> Result<Arc<T>> {
        let len = bytes.len();
        store.put(&ObjectPath::new(path)?, bytes::Bytes::from(bytes))?;
        let doc = Arc::new(doc);
        if let Some(cache) = &self.cache {
            cache.insert(path, Arc::clone(&doc), len);
        }
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_within_its_bound_and_evicts_least_recently_used() {
        let cache = ObjectCache::with_capacity(100);
        for i in 0..4 {
            cache.insert(&format!("p{i}"), Arc::new(i), 30);
        }
        // 4 × 30 > 100: the oldest went.
        assert_eq!(cache.len(), 3);
        assert!(cache.cached_bytes() <= 100);
        assert!(cache.get::<i32>("p0").is_none());
        // Touch p1, insert another: p2 is now the oldest.
        assert_eq!(cache.get::<i32>("p1").as_deref(), Some(&1));
        cache.insert("p4", Arc::new(4), 30);
        assert!(cache.get::<i32>("p2").is_none());
        assert!(cache.get::<i32>("p1").is_some());
        // An entry that cannot fit is not kept, and evicts nothing.
        cache.insert("huge", Arc::new(9), 101);
        assert_eq!(cache.len(), 3);
        cache.remove("p1");
        assert_eq!(cache.cached_bytes(), 60);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn a_path_holds_one_kind_of_document() {
        let cache = ObjectCache::new();
        cache.insert("p", Arc::new(7u64), 8);
        assert!(cache.get::<String>("p").is_none());
        assert_eq!(cache.get::<u64>("p").as_deref(), Some(&7));
    }

    #[test]
    fn token_sees_every_byte_and_the_length() {
        let base: Vec<u8> = (0..37u8).collect();
        let token = content_token(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(content_token(&flipped), token, "byte {i}");
        }
        // Trailing zeros are not padding.
        let mut longer = base.clone();
        longer.push(0);
        assert_ne!(content_token(&longer), token);
        assert_ne!(content_token(&[]), content_token(&[0]));
    }

    #[test]
    fn tokens_differ_with_content() {
        let a = metadata_path("wh/t", 3, b"{\"a\":1}");
        let b = metadata_path("wh/t", 3, b"{\"a\":2}");
        assert_ne!(a, b);
        assert!(a.starts_with("wh/t/metadata/v00003-") && a.ends_with(".json"));
        assert_eq!(a.len(), "wh/t/metadata/v00003-".len() + 16 + ".json".len());
        assert!(manifest_path("wh/t", 9, b"x").starts_with("wh/t/metadata/manifest-9-"));
    }
}
