//! Span traces: parent/child structure, attributes, and dual clocks.
//!
//! A [`Trace`] installs a thread-local collector; [`span`] opens a child of
//! whatever span is currently on top of that thread's stack. When no trace is
//! installed anywhere in the process, [`span`] is one relaxed atomic load and
//! returns a no-op guard — tracing must never tax the hot path when off.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A source for the simulated clock: total simulated nanoseconds charged so
/// far (store latency lanes + runtime virtual clock).
pub type SimSource = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Global switch consulted by [`Trace::start`] and [`scope`]. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Number of installed traces across all threads. The [`span`] fast path
/// checks this before touching thread-local state.
static ACTIVE_TRACES: AtomicUsize = AtomicUsize::new(0);

/// Enable or disable trace collection process-wide. Forced traces
/// ([`Trace::start_forced`], used by `EXPLAIN ANALYZE` and profiling) collect
/// regardless of this switch.
pub fn set_tracing(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether [`set_tracing`] turned trace collection on.
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether a trace is installed on the **current thread** (spans opened now
/// would be recorded).
pub fn trace_active() -> bool {
    if ACTIVE_TRACES.load(Ordering::Relaxed) == 0 {
        return false;
    }
    CURRENT.with(|c| c.borrow().is_some())
}

// ---------------------------------------------------------------------------
// Attributes
// ---------------------------------------------------------------------------

/// A span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Str(String),
    Int(i64),
    UInt(u64),
    Float(f64),
    Bool(bool),
}

impl AttrValue {
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            AttrValue::UInt(v) => Some(v),
            AttrValue::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::UInt(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::UInt(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::UInt(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

// ---------------------------------------------------------------------------
// Span data and trees
// ---------------------------------------------------------------------------

/// One finished span: name, parent link, attributes, and both clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanData {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub attrs: Vec<(String, AttrValue)>,
    pub wall_start_ns: u64,
    pub wall_end_ns: u64,
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
}

impl SpanData {
    pub fn wall_nanos(&self) -> u64 {
        self.wall_end_ns.saturating_sub(self.wall_start_ns)
    }

    pub fn sim_nanos(&self) -> u64 {
        self.sim_end_ns.saturating_sub(self.sim_start_ns)
    }

    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attr(key).and_then(AttrValue::as_u64)
    }

    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attr(key).and_then(AttrValue::as_str)
    }
}

/// A completed trace: flat span list with parent links.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    pub spans: Vec<SpanData>,
}

impl SpanTree {
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The root span: one whose parent is absent from this tree (subtree
    /// clones keep their original parent ids).
    pub fn root(&self) -> Option<&SpanData> {
        self.spans.iter().find(|s| match s.parent {
            None => true,
            Some(p) => !self.spans.iter().any(|o| o.id == p),
        })
    }

    pub fn get(&self, id: u64) -> Option<&SpanData> {
        self.spans.iter().find(|s| s.id == id)
    }

    pub fn children(&self, id: u64) -> Vec<&SpanData> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    pub fn find(&self, name: &str) -> Option<&SpanData> {
        self.spans.iter().find(|s| s.name == name)
    }

    pub fn find_all(&self, name: &str) -> Vec<&SpanData> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Whether `ancestor` lies on `id`'s parent chain.
    pub fn is_ancestor(&self, ancestor: u64, id: u64) -> bool {
        let mut cur = self.get(id).and_then(|s| s.parent);
        while let Some(p) = cur {
            if p == ancestor {
                return true;
            }
            cur = self.get(p).and_then(|s| s.parent);
        }
        false
    }

    /// Render the tree as ASCII art with dual-clock durations and attributes
    /// inline — the `bauplan profile` output.
    pub fn render(&self) -> String {
        fn fmt_attrs(span: &SpanData) -> String {
            if span.attrs.is_empty() {
                return String::new();
            }
            let parts: Vec<String> = span
                .attrs
                .iter()
                .map(|(k, v)| match v {
                    AttrValue::Str(s) if s.len() > 48 => format!("{k}=\"{}…\"", &s[..47]),
                    AttrValue::Str(s) => format!("{k}=\"{s}\""),
                    other => format!("{k}={other}"),
                })
                .collect();
            format!("  {}", parts.join(" "))
        }
        fn go(tree: &SpanTree, span: &SpanData, prefix: &str, last: bool, out: &mut String) {
            let branch = if prefix.is_empty() {
                ""
            } else if last {
                "└─ "
            } else {
                "├─ "
            };
            out.push_str(&format!(
                "{prefix}{branch}{}  wall={} sim={}{}\n",
                span.name,
                fmt_duration(span.wall_nanos()),
                fmt_duration(span.sim_nanos()),
                fmt_attrs(span),
            ));
            let children = tree.children(span.id);
            let child_prefix = if prefix.is_empty() {
                String::new()
            } else if last {
                format!("{prefix}   ")
            } else {
                format!("{prefix}│  ")
            };
            for (i, child) in children.iter().enumerate() {
                let p = if prefix.is_empty() {
                    " "
                } else {
                    &child_prefix
                };
                go(tree, child, p, i + 1 == children.len(), out);
            }
        }
        let mut out = String::new();
        if let Some(root) = self.root() {
            go(self, root, "", true, &mut out);
        }
        out
    }
}

/// Human duration formatting for nanosecond counts.
pub fn fmt_duration(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// ---------------------------------------------------------------------------
// Thread-local collector
// ---------------------------------------------------------------------------

struct TraceState {
    spans: Vec<SpanData>,
    /// Indices into `spans` of currently-open spans, innermost last.
    stack: Vec<usize>,
    epoch: Instant,
    sim: Option<SimSource>,
}

impl TraceState {
    fn now(&self) -> (u64, u64) {
        let wall = self.epoch.elapsed().as_nanos() as u64;
        let sim = self.sim.as_ref().map_or(0, |f| f());
        (wall, sim)
    }

    fn open(&mut self, name: &str) -> usize {
        let (wall, sim) = self.now();
        let idx = self.spans.len();
        self.spans.push(SpanData {
            id: idx as u64,
            parent: self.stack.last().map(|&i| i as u64),
            name: name.to_string(),
            attrs: Vec::new(),
            wall_start_ns: wall,
            wall_end_ns: wall,
            sim_start_ns: sim,
            sim_end_ns: sim,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: usize) {
        let (wall, sim) = self.now();
        if let Some(span) = self.spans.get_mut(idx) {
            span.wall_end_ns = wall;
            span.sim_end_ns = sim;
        }
        if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
            self.stack.remove(pos);
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceState>> = const { RefCell::new(None) };
    static SIM_SOURCE: RefCell<Option<SimSource>> = const { RefCell::new(None) };
}

/// Install a simulated-clock source for traces started on this thread, and
/// return a guard restoring the previous source. A `Lakehouse` installs its
/// store-lane + runtime-clock reader around query/run entry points.
pub fn set_thread_sim_source(source: Option<SimSource>) -> SimSourceGuard {
    let prev = SIM_SOURCE.with(|s| s.replace(source));
    SimSourceGuard { prev: Some(prev) }
}

/// Read this thread's simulated clock directly (0 when no source is
/// installed). Lets executors charge simulated-time deltas to per-query
/// ledgers without opening a span.
pub fn thread_sim_nanos() -> u64 {
    SIM_SOURCE.with(|s| s.borrow().as_ref().map_or(0, |f| f()))
}

/// Restores the previously-installed thread sim source on drop.
pub struct SimSourceGuard {
    prev: Option<Option<SimSource>>,
}

impl Drop for SimSourceGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            SIM_SOURCE.with(|s| *s.borrow_mut() = prev);
        }
    }
}

// ---------------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------------

/// RAII guard for one span. No-op (and allocation-free) when tracing is off.
pub struct SpanGuard {
    idx: Option<usize>,
}

impl SpanGuard {
    pub fn noop() -> SpanGuard {
        SpanGuard { idx: None }
    }

    pub fn is_recording(&self) -> bool {
        self.idx.is_some()
    }

    /// Append an attribute.
    pub fn attr(&self, key: &str, value: impl Into<AttrValue>) {
        let Some(idx) = self.idx else { return };
        let value = value.into();
        CURRENT.with(|c| {
            if let Some(state) = c.borrow_mut().as_mut() {
                if let Some(span) = state.spans.get_mut(idx) {
                    span.attrs.push((key.to_string(), value));
                }
            }
        });
    }

    /// Add `delta` to an unsigned counter attribute, creating it at zero.
    /// Streaming operators use this to accumulate rows/batches per pull.
    pub fn add_u64(&self, key: &str, delta: u64) {
        let Some(idx) = self.idx else { return };
        CURRENT.with(|c| {
            if let Some(state) = c.borrow_mut().as_mut() {
                if let Some(span) = state.spans.get_mut(idx) {
                    match span.attrs.iter_mut().find(|(k, _)| k == key) {
                        Some((_, AttrValue::UInt(v))) => *v += delta,
                        Some(slot) => slot.1 = AttrValue::UInt(delta),
                        None => span.attrs.push((key.to_string(), AttrValue::UInt(delta))),
                    }
                }
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(idx) = self.idx.take() {
            CURRENT.with(|c| {
                if let Some(state) = c.borrow_mut().as_mut() {
                    state.close(idx);
                }
            });
        }
    }
}

/// Makes `span` the innermost open span for the duration of its lifetime,
/// restoring the displaced entries (just above `span`, in their original
/// order) on drop. See [`reparent_under`].
pub struct ParentGuard {
    parent: Option<usize>,
    displaced: Vec<usize>,
}

/// Temporarily re-parent new spans under `span`.
///
/// Span parentage normally follows the open-span stack, which works for
/// operator *chains*: each node opens its span, then builds its single input.
/// An operator with several children (a join) breaks that discipline — the
/// first child subtree's guards stay alive inside the built nodes, so the
/// second subtree would open under the first's innermost span. Holding a
/// `ParentGuard` while building the later siblings parents them under the
/// operator's own span instead. The displaced entries go back *directly
/// above* `span` on drop, beneath any spans opened meanwhile, so execution
/// order (later siblings drain and close first) keeps attributing runtime
/// child spans to the side actually doing the work.
pub fn reparent_under(span: &SpanGuard) -> ParentGuard {
    let Some(idx) = span.idx else {
        return ParentGuard {
            parent: None,
            displaced: Vec::new(),
        };
    };
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let displaced = cur
            .as_mut()
            .and_then(|state| {
                let pos = state.stack.iter().rposition(|&i| i == idx)?;
                Some(state.stack.split_off(pos + 1))
            })
            .unwrap_or_default();
        ParentGuard {
            parent: Some(idx),
            displaced,
        }
    })
}

impl Drop for ParentGuard {
    fn drop(&mut self) {
        if self.displaced.is_empty() {
            return;
        }
        let Some(parent) = self.parent else { return };
        CURRENT.with(|c| {
            if let Some(state) = c.borrow_mut().as_mut() {
                let at = state
                    .stack
                    .iter()
                    .rposition(|&i| i == parent)
                    .map_or(state.stack.len(), |p| p + 1);
                state.stack.splice(at..at, self.displaced.drain(..));
            }
        });
    }
}

/// Open a child span of the current thread's trace. One relaxed atomic load
/// when no trace is installed anywhere.
pub fn span(name: &str) -> SpanGuard {
    if ACTIVE_TRACES.load(Ordering::Relaxed) == 0 {
        return SpanGuard::noop();
    }
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        match cur.as_mut() {
            Some(state) => SpanGuard {
                idx: Some(state.open(name)),
            },
            None => SpanGuard::noop(),
        }
    })
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

/// A trace collector rooted at one span.
///
/// The first `Trace` started on a thread installs the collector ("owning");
/// a `Trace` started while another is active simply opens a child span, and
/// [`Trace::finish`] clones that subtree out of the enclosing trace — so a
/// profiled query inside a traced DAG run yields its own tree *and* stays in
/// the run's tree.
pub struct Trace {
    root_idx: usize,
    owns: bool,
    done: bool,
}

impl Trace {
    /// Start a trace if [`set_tracing`] is on; `None` otherwise.
    pub fn start(name: &str) -> Option<Trace> {
        if tracing_enabled() {
            Some(Trace::start_forced(name))
        } else {
            None
        }
    }

    /// Start a trace regardless of the global switch — `EXPLAIN ANALYZE` and
    /// `bauplan profile` always collect.
    pub fn start_forced(name: &str) -> Trace {
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            let owns = cur.is_none();
            if owns {
                let sim = SIM_SOURCE.with(|s| s.borrow().clone());
                *cur = Some(TraceState {
                    spans: Vec::new(),
                    stack: Vec::new(),
                    epoch: Instant::now(),
                    sim,
                });
                ACTIVE_TRACES.fetch_add(1, Ordering::Relaxed);
            }
            let state = cur.as_mut().expect("trace state just installed");
            let root_idx = state.open(name);
            Trace {
                root_idx,
                owns,
                done: false,
            }
        })
    }

    pub fn attr(&self, key: &str, value: impl Into<AttrValue>) {
        let value = value.into();
        CURRENT.with(|c| {
            if let Some(state) = c.borrow_mut().as_mut() {
                if let Some(span) = state.spans.get_mut(self.root_idx) {
                    span.attrs.push((key.to_string(), value));
                }
            }
        });
    }

    /// Close the root span and return the collected tree.
    pub fn finish(mut self) -> SpanTree {
        self.done = true;
        let root_idx = self.root_idx;
        let owns = self.owns;
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            let Some(state) = cur.as_mut() else {
                return SpanTree::default();
            };
            state.close(root_idx);
            if owns {
                let state = cur.take().expect("owning trace state present");
                ACTIVE_TRACES.fetch_sub(1, Ordering::Relaxed);
                SpanTree { spans: state.spans }
            } else {
                // Clone the subtree rooted at root_idx out of the live trace.
                let root_id = root_idx as u64;
                let mut keep: Vec<SpanData> = Vec::new();
                for span in &state.spans {
                    let in_subtree =
                        span.id == root_id || keep.iter().any(|k| Some(k.id) == span.parent);
                    if in_subtree {
                        keep.push(span.clone());
                    }
                }
                SpanTree { spans: keep }
            }
        })
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            if let Some(state) = cur.as_mut() {
                state.close(self.root_idx);
            }
            if self.owns && cur.take().is_some() {
                ACTIVE_TRACES.fetch_sub(1, Ordering::Relaxed);
            }
        });
    }
}

/// Either a root trace (when this thread had none and tracing is enabled) or
/// a child span of an enclosing trace. The convenience wrapper entry points
/// like `Lakehouse::query` use, so a query shows up as a root trace when
/// traced standalone and as a subtree when invoked inside a DAG run.
pub struct Scope {
    inner: ScopeInner,
}

enum ScopeInner {
    Root(Trace),
    Span(SpanGuard),
}

/// Open a [`Scope`]: a child span if a trace is active on this thread, a new
/// root trace if tracing is enabled, a no-op otherwise.
pub fn scope(name: &str) -> Scope {
    if trace_active() {
        Scope {
            inner: ScopeInner::Span(span(name)),
        }
    } else if tracing_enabled() {
        Scope {
            inner: ScopeInner::Root(Trace::start_forced(name)),
        }
    } else {
        Scope {
            inner: ScopeInner::Span(SpanGuard::noop()),
        }
    }
}

impl Scope {
    pub fn attr(&self, key: &str, value: impl Into<AttrValue>) {
        match &self.inner {
            ScopeInner::Root(t) => t.attr(key, value),
            ScopeInner::Span(s) => s.attr(key, value),
        }
    }

    /// Finish the scope, returning the tree when this scope owned the trace.
    pub fn finish(self) -> Option<SpanTree> {
        match self.inner {
            ScopeInner::Root(t) => Some(t.finish()),
            ScopeInner::Span(_) => None,
        }
    }
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_noop() {
        assert!(!tracing_enabled());
        let g = span("nothing");
        assert!(!g.is_recording());
        g.attr("k", 1u64); // must not panic
    }

    #[test]
    fn trace_collects_parent_child_structure() {
        let trace = Trace::start_forced("root");
        {
            let a = span("a");
            a.attr("rows", 10u64);
            {
                let _b = span("b");
            }
        }
        {
            let _c = span("c");
        }
        let tree = trace.finish();
        assert_eq!(tree.spans.len(), 4);
        let root = tree.root().unwrap();
        assert_eq!(root.name, "root");
        let a = tree.find("a").unwrap();
        let b = tree.find("b").unwrap();
        let c = tree.find("c").unwrap();
        assert_eq!(a.parent, Some(root.id));
        assert_eq!(b.parent, Some(a.id));
        assert_eq!(c.parent, Some(root.id));
        assert!(tree.is_ancestor(root.id, b.id));
        assert!(!tree.is_ancestor(c.id, b.id));
        assert_eq!(a.attr_u64("rows"), Some(10));
        let rendered = tree.render();
        assert!(rendered.contains("root"));
        assert!(rendered.contains("rows=10"));
    }

    #[test]
    fn nested_trace_clones_subtree() {
        let outer = Trace::start_forced("outer");
        let inner = Trace::start_forced("inner");
        {
            let _s = span("work");
        }
        let inner_tree = inner.finish();
        assert_eq!(inner_tree.spans.len(), 2);
        assert_eq!(inner_tree.root().unwrap().name, "inner");
        let outer_tree = outer.finish();
        assert_eq!(outer_tree.spans.len(), 3);
        assert_eq!(outer_tree.root().unwrap().name, "outer");
        assert!(!trace_active());
    }

    #[test]
    fn sim_clock_recorded_from_thread_source() {
        use std::sync::atomic::AtomicU64;
        let sim = Arc::new(AtomicU64::new(100));
        let src = sim.clone();
        let _guard = set_thread_sim_source(Some(Arc::new(move || src.load(Ordering::Relaxed))));
        let trace = Trace::start_forced("root");
        sim.store(350, Ordering::Relaxed);
        let tree = trace.finish();
        let root = tree.root().unwrap();
        assert_eq!(root.sim_start_ns, 100);
        assert_eq!(root.sim_end_ns, 350);
        assert_eq!(root.sim_nanos(), 250);
    }

    #[test]
    fn add_u64_accumulates() {
        let trace = Trace::start_forced("root");
        {
            let s = span("op");
            s.add_u64("rows", 3);
            s.add_u64("rows", 4);
        }
        let tree = trace.finish();
        assert_eq!(tree.find("op").unwrap().attr_u64("rows"), Some(7));
    }

    #[test]
    fn scope_roots_or_nests() {
        // No trace, tracing off: no-op.
        assert!(scope("q").finish().is_none());
        // Inside a forced trace: nests.
        let outer = Trace::start_forced("outer");
        let s = scope("q");
        assert!(s.finish().is_none());
        let tree = outer.finish();
        assert!(tree.find("q").is_some());
    }
}
