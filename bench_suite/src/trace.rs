//! Bench-owned tracing: an in-memory span log, the self-time rule, and
//! [`TracingStore`], the `ObjectStore` wrapper placed under the façade.
//!
//! Every span names the span that caused it; a root span starts a new trace
//! id, so a façade call and its unrolled replay (both children of one `op`
//! root) share an identifier. Spans stay in memory until the run ends.

use bytes::Bytes;
use lakehouse_store::{ObjectPath, ObjectStore, StoreMetrics};
use serde::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based; 0 means "no span".
    pub id: u32,
    pub parent: u32,
    pub trace: u32,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Payload bytes moved (store spans only).
    pub bytes: u64,
    /// Object path or list prefix (store spans only).
    pub path: String,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }
}

struct Inner {
    /// While false nothing is recorded: the same stack, minus the recording,
    /// is the baseline the tracing overhead is measured against.
    recording: bool,
    spans: Vec<Span>,
    /// The innermost open span. Process-wide rather than thread-local, so a
    /// store call made on a scan worker thread is still charged to the
    /// façade span that caused it.
    current: u32,
    traces: u32,
}

pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
    /// Time spent inside store calls, counted whether or not spans are
    /// being recorded.
    store_busy_ns: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                recording: true,
                spans: Vec::new(),
                current: 0,
                traces: 0,
            }),
            store_busy_ns: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("tracer mutex poisoned")
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Total time inside store calls so far, across all threads (a sum, so
    /// overlapping calls count twice).
    pub fn store_busy_ns(&self) -> u64 {
        self.store_busy_ns.load(Ordering::Relaxed)
    }

    pub fn set_recording(&self, on: bool) {
        self.lock().recording = on;
    }

    /// Open a span under the current one and make it current. While
    /// recording is off the guard only measures its own duration.
    pub fn span(self: &Arc<Self>, layer: &'static str, name: impl Into<String>) -> SpanGuard {
        let name = name.into();
        let mut inner = self.lock();
        if !inner.recording {
            return SpanGuard {
                tracer: Arc::clone(self),
                id: 0,
                parent: 0,
                started: Instant::now(),
            };
        }
        let parent = inner.current;
        let trace = if parent == 0 {
            inner.traces += 1;
            inner.traces
        } else {
            inner.spans[parent as usize - 1].trace
        };
        let id = inner.spans.len() as u32 + 1;
        inner.current = id;
        // The clock is read last so the span excludes its own bookkeeping.
        let start = self.ns(Instant::now());
        inner.spans.push(Span {
            id,
            parent,
            trace,
            layer,
            name,
            start_ns: start,
            end_ns: start,
            bytes: 0,
            path: String::new(),
        });
        SpanGuard {
            tracer: Arc::clone(self),
            id,
            parent,
            started: self.epoch + std::time::Duration::from_nanos(start),
        }
    }

    /// Record one finished store call under the current span.
    fn store_call(&self, op: &str, path: &str, start: Instant, end: Instant, bytes: u64) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        // A statistic that publishes no other data: relaxed is enough.
        self.store_busy_ns
            .fetch_add(end_ns - start_ns, Ordering::Relaxed);
        let mut inner = self.lock();
        if !inner.recording {
            return;
        }
        let parent = inner.current;
        let trace = match parent {
            0 => 0,
            p => inner.spans[p as usize - 1].trace,
        };
        let id = inner.spans.len() as u32 + 1;
        inner.spans.push(Span {
            id,
            parent,
            trace,
            layer: "store",
            name: format!("{op}.{}", path_class(path)),
            start_ns,
            end_ns,
            bytes,
            path: path.to_string(),
        });
    }

    fn close(&self, id: u32, parent: u32) {
        let end = self.ns(Instant::now());
        let mut inner = self.lock();
        inner.spans[id as usize - 1].end_ns = end;
        inner.current = parent;
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Look at the spans recorded so far without copying them. `f` must not
    /// open spans or touch the store: the log is locked while it runs.
    pub fn read<T>(&self, f: impl FnOnce(&SpanIndex) -> T) -> T {
        f(&SpanIndex::new(&self.lock().spans))
    }
}

pub struct SpanGuard {
    tracer: Arc<Tracer>,
    /// 0 when opened while recording was off.
    id: u32,
    parent: u32,
    started: Instant,
}

impl SpanGuard {
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Close the span and return its duration in milliseconds.
    pub fn end(self) -> f64 {
        let ms = self.started.elapsed().as_secs_f64() * 1e3;
        drop(self);
        ms
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id != 0 {
            self.tracer.close(self.id, self.parent);
        }
    }
}

/// Total length of the union of `[start, end)` intervals clipped to
/// `[lo, hi)`. Overlapping intervals (parallel children) count once.
pub fn union_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// An index over a span log for the queries the suite needs.
pub struct SpanIndex<'a> {
    pub spans: &'a [Span],
    children: Vec<Vec<u32>>,
}

impl<'a> SpanIndex<'a> {
    pub fn new(spans: &'a [Span]) -> SpanIndex<'a> {
        let mut children = vec![Vec::new(); spans.len() + 1];
        for s in spans {
            children[s.parent as usize].push(s.id);
        }
        SpanIndex { spans, children }
    }

    pub fn get(&self, id: u32) -> &'a Span {
        &self.spans[id as usize - 1]
    }

    pub fn children(&self, id: u32) -> impl Iterator<Item = &'a Span> + '_ {
        self.children[id as usize].iter().map(|&c| self.get(c))
    }

    /// Time of `id` covered by those direct children that satisfy `keep`.
    pub fn covered_ns(&self, id: u32, keep: impl Fn(&Span) -> bool) -> u64 {
        let s = self.get(id);
        let intervals = self
            .children(id)
            .filter(|c| keep(c))
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        union_ns(intervals, s.start_ns, s.end_ns)
    }

    /// A span's self time: its duration minus the union of its children.
    pub fn self_ns(&self, id: u32) -> u64 {
        self.get(id).dur_ns() - self.covered_ns(id, |_| true)
    }

    /// Paths of the data files fetched directly under span `id`, each once.
    pub fn data_files_fetched(&self, id: u32) -> Vec<String> {
        let paths: std::collections::BTreeSet<&str> = self
            .children(id)
            .filter(|s| s.name == "get.data")
            .map(|s| s.path.as_str())
            .collect();
        paths.into_iter().map(String::from).collect()
    }

    /// Time of `id` spent inside store calls.
    pub fn store_busy_ns(&self, id: u32) -> u64 {
        self.covered_ns(id, |c| c.layer == "store")
    }

    /// Self time summed per layer over the whole log, in milliseconds.
    pub fn self_ms_by_layer(&self) -> std::collections::BTreeMap<&'static str, f64> {
        let mut out = std::collections::BTreeMap::new();
        for s in self.spans {
            *out.entry(s.layer).or_insert(0.0) += self.self_ns(s.id) as f64 / 1e6;
        }
        out
    }
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::U64(s.id.into())),
                    ("parent".into(), Json::U64(s.parent.into())),
                    ("trace".into(), Json::U64(s.trace.into())),
                    ("layer".into(), Json::Str(s.layer.into())),
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_ns".into(), Json::U64(s.start_ns)),
                    ("end_ns".into(), Json::U64(s.end_ns)),
                    ("bytes".into(), Json::U64(s.bytes)),
                    ("path".into(), Json::Str(s.path.clone())),
                ])
            })
            .collect(),
    )
}

/// Which part of the lake an object path belongs to.
pub fn path_class(path: &str) -> &'static str {
    if path.starts_with("_catalog/") {
        "catalog"
    } else if path.contains("/data/") {
        "data"
    } else if path.contains("/metadata/") {
        "meta"
    } else {
        "other"
    }
}

/// An `ObjectStore` that records one span per call — operation, path class,
/// payload bytes, start, end, and the span that caused it — and otherwise
/// passes everything through: same bytes, same errors.
pub struct TracingStore<S> {
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S: ObjectStore> TracingStore<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> TracingStore<S> {
        TracingStore { inner, tracer }
    }

    fn record<T>(
        &self,
        op: &str,
        path: &str,
        call: impl FnOnce() -> T,
        bytes: impl FnOnce(&T) -> u64,
    ) -> T {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.tracer.store_call(op, path, start, end, bytes(&out));
        out
    }
}

type StoreResult<T> = lakehouse_store::Result<T>;

fn read_len(r: &StoreResult<Bytes>) -> u64 {
    r.as_ref().map_or(0, |b| b.len() as u64)
}

impl<S: ObjectStore> ObjectStore for TracingStore<S> {
    fn put(&self, path: &ObjectPath, data: Bytes) -> StoreResult<()> {
        let n = data.len() as u64;
        self.record("put", path.as_str(), || self.inner.put(path, data), |_| n)
    }

    fn get(&self, path: &ObjectPath) -> StoreResult<Bytes> {
        self.record("get", path.as_str(), || self.inner.get(path), read_len)
    }

    fn get_range(&self, path: &ObjectPath, start: usize, end: usize) -> StoreResult<Bytes> {
        self.record(
            "get",
            path.as_str(),
            || self.inner.get_range(path, start, end),
            read_len,
        )
    }

    fn head(&self, path: &ObjectPath) -> StoreResult<usize> {
        self.record("head", path.as_str(), || self.inner.head(path), |_| 0)
    }

    fn list(&self, prefix: &str) -> StoreResult<Vec<ObjectPath>> {
        self.record("list", prefix, || self.inner.list(prefix), |_| 0)
    }

    fn delete(&self, path: &ObjectPath) -> StoreResult<()> {
        self.record("delete", path.as_str(), || self.inner.delete(path), |_| 0)
    }

    fn exists(&self, path: &ObjectPath) -> bool {
        self.record("head", path.as_str(), || self.inner.exists(path), |_| 0)
    }

    fn put_if_matches(
        &self,
        path: &ObjectPath,
        expected: Option<&[u8]>,
        data: Bytes,
    ) -> StoreResult<()> {
        let n = data.len() as u64;
        self.record(
            "put",
            path.as_str(),
            || self.inner.put_if_matches(path, expected, data),
            |_| n,
        )
    }

    fn store_metrics(&self) -> Option<Arc<StoreMetrics>> {
        self.inner.store_metrics()
    }

    fn invalidate_corrupt(&self, path: &ObjectPath) {
        self.inner.invalidate_corrupt(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_store::InMemoryStore;

    fn span(id: u32, parent: u32, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            layer,
            name: String::new(),
            start_ns: start,
            end_ns: end,
            bytes: 0,
            path: String::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        // Two children overlap on [30, 40): as when scans go parallel.
        let spans = vec![
            span(1, 0, "core", 0, 100),
            span(2, 1, "store", 10, 40),
            span(3, 1, "store", 30, 60),
            span(4, 1, "table", 70, 80),
            span(5, 4, "store", 72, 75),
        ];
        let idx = SpanIndex::new(&spans);
        assert_eq!(idx.self_ns(1), 100 - 50 - 10);
        assert_eq!(idx.store_busy_ns(1), 50);
        assert_eq!(idx.self_ns(4), 7);
        assert_eq!(idx.self_ns(2), 30);
        let by_layer = idx.self_ms_by_layer();
        assert!((by_layer["store"] - 63e-6).abs() < 1e-12);
    }

    #[test]
    fn union_clips_to_the_parent_interval() {
        assert_eq!(union_ns(vec![(0, 10), (5, 30), (50, 70)], 8, 60), 22 + 10);
        assert_eq!(union_ns(vec![], 0, 10), 0);
    }

    #[test]
    fn guards_nest_and_share_a_trace_id() {
        let t = Tracer::new();
        let root = t.span("bench", "op");
        let facade = t.span("core", "query");
        let facade_id = facade.id();
        facade.end();
        let replay = t.span("table", "scan");
        drop(replay);
        drop(root);
        let other = t.span("bench", "op");
        drop(other);
        let spans = t.snapshot();
        assert_eq!(spans[1].parent, 1);
        assert_eq!(spans[2].parent, 1, "replay is a sibling of the façade span");
        assert_eq!(spans[facade_id as usize - 1].trace, spans[2].trace);
        assert_ne!(spans[0].trace, spans[3].trace);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn tracing_store_is_transparent() {
        let plain = InMemoryStore::new();
        let tracer = Tracer::new();
        let traced = TracingStore::new(InMemoryStore::new(), Arc::clone(&tracer));
        let p = |s: &str| ObjectPath::new(s).unwrap();
        let root = tracer.span("bench", "op");
        for store in [&plain as &dyn ObjectStore, &traced] {
            store
                .put(&p("wh/t/data/a.lkh"), Bytes::from_static(b"0123456789"))
                .unwrap();
            store
                .put_if_matches(&p("_catalog/refs.json"), None, Bytes::from_static(b"{}"))
                .unwrap();
        }
        let same = |f: &dyn Fn(&dyn ObjectStore) -> String| assert_eq!(f(&plain), f(&traced));
        same(&|s| format!("{:?}", s.get(&p("wh/t/data/a.lkh"))));
        same(&|s| format!("{:?}", s.get_range(&p("wh/t/data/a.lkh"), 2, 5)));
        same(&|s| format!("{:?}", s.get_range(&p("wh/t/data/a.lkh"), 5, 50)));
        same(&|s| format!("{:?}", s.get(&p("wh/t/data/missing"))));
        same(&|s| format!("{:?}", s.head(&p("wh/t/data/a.lkh"))));
        same(&|s| format!("{:?}", s.head(&p("nope"))));
        same(&|s| format!("{:?}", s.exists(&p("nope"))));
        same(&|s| format!("{:?}", s.list("wh/")));
        same(&|s| {
            format!(
                "{:?}",
                s.put_if_matches(&p("_catalog/refs.json"), None, Bytes::from_static(b"x"))
            )
        });
        same(&|s| format!("{:?}", s.delete(&p("wh/t/data/a.lkh"))));
        same(&|s| format!("{:?}", s.delete(&p("wh/t/data/a.lkh"))));
        drop(root);

        let spans = tracer.snapshot();
        let idx = SpanIndex::new(&spans);
        let store: Vec<&Span> = idx.children(1).collect();
        assert_eq!(store.len(), 13);
        assert!(store.iter().all(|s| s.layer == "store" && s.trace == 1));
        assert_eq!(store[0].name, "put.data");
        assert_eq!(store[0].bytes, 10);
        assert_eq!(store[1].name, "put.catalog");
        assert_eq!(store[3].name, "get.data");
        assert_eq!(store[3].bytes, 3, "a ranged get moves only the range");
        assert_eq!(store[4].bytes, 0, "a failed get moves nothing");
    }
}
