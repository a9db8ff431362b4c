//! The store-backed catalog: optimistic commits, branches, tags, merges.

use crate::commit::{Commit, CommitId, ContentRef, Operation};
use crate::error::{CatalogError, Result};
use crate::refs::{RefDocument, RefKind, Reference};
use crate::state::CatalogState;
use bytes::Bytes;
use lakehouse_store::{Backoff, ObjectPath, ObjectStore, StoreError};
use parking_lot::Mutex;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The default branch name, created on `init`.
pub const MAIN_BRANCH: &str = "main";

const MAX_CAS_RETRIES: u32 = 16;

/// Backoff bounds for lost CAS races. A lost race means another writer
/// *succeeded*, so contention is productive — delays start small (the
/// re-read itself already costs a store round-trip) but still decorrelate
/// herds of committers under heavy write load.
const CAS_BACKOFF_BASE: Duration = Duration::from_millis(5);
const CAS_BACKOFF_CAP: Duration = Duration::from_millis(250);

/// Seeded decorrelated-jitter backoff between CAS attempts, charged to the
/// store's simulated clock (no wall-clock sleep; deterministic in tests).
struct CasBackoff<'a> {
    backoff: Backoff,
    store: &'a dyn ObjectStore,
    retries: Arc<lakehouse_obs::Counter>,
}

impl<'a> CasBackoff<'a> {
    fn new(store: &'a dyn ObjectStore, seed: u64) -> CasBackoff<'a> {
        CasBackoff {
            backoff: Backoff::new(CAS_BACKOFF_BASE, CAS_BACKOFF_CAP, seed),
            store,
            retries: lakehouse_obs::global().counter("catalog.cas_retries"),
        }
    }

    fn wait(&mut self) {
        self.retries.inc();
        let delay = self.backoff.next_delay();
        lakehouse_obs::recorder().record(
            lakehouse_obs::EventKind::CasRetry,
            "refs.json",
            delay.as_nanos() as u64,
        );
        if let Some(metrics) = self.store.store_metrics() {
            metrics.record_stall(delay);
        }
    }
}

/// Seed the per-commit backoff RNG from thread identity so concurrent
/// committers draw *different* jitter (the whole point of decorrelation)
/// while single-threaded tests stay deterministic.
fn backoff_seed() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut hasher);
    hasher.finish()
}

/// Ref reads whose backend times decide where a statement reads its ref.
const REF_READ_WINDOW: usize = 8;

/// A front whose last [`REF_READ_WINDOW`] ref reads all took longer than
/// this overlaps the next statement's ref read with the statement itself
/// (DESIGN.md §31). Handing the read to an I/O worker and back costs a
/// thread hand-off, ≈ 10 µs on a small box: the bet pays only against a
/// read that costs ten times as much. An in-memory or local-disk read
/// (a few µs) never qualifies; an object store's (≥ 1 ms) always does.
const SLOW_REF_READ: Duration = Duration::from_micros(100);

/// The backend times of a front's last [`REF_READ_WINDOW`] ref reads.
#[derive(Default)]
struct RefReadTimes {
    last: [Duration; REF_READ_WINDOW],
    reads: usize,
}

impl RefReadTimes {
    fn record(&mut self, elapsed: Duration) {
        self.last[self.reads % REF_READ_WINDOW] = elapsed;
        self.reads += 1;
    }

    /// Whether even the fastest of the last reads was slow.
    fn slow(&self) -> bool {
        let seen = &self.last[..self.reads.min(REF_READ_WINDOW)];
        seen.iter()
            .min()
            .is_some_and(|&fastest| fastest > SLOW_REF_READ)
    }
}

/// The branch `name` in `doc`, to move: a tag never moves.
fn branch_mut<'d>(doc: &'d mut RefDocument, name: &str) -> Result<&'d mut Reference> {
    let reference = doc
        .refs
        .get_mut(name)
        .ok_or_else(|| CatalogError::RefNotFound(name.to_string()))?;
    if reference.kind == RefKind::Tag {
        return Err(CatalogError::TagIsImmutable(name.to_string()));
    }
    Ok(reference)
}

/// A git-like catalog persisted in an object store.
///
/// * Commits are immutable JSON objects at `<root>/commits/<id>.json`.
/// * All references live in one JSON document at `<root>/refs.json`, updated
///   with compare-and-swap — the only mutable object, which makes every ref
///   move atomic.
pub struct Catalog {
    store: Arc<dyn ObjectStore>,
    root: String,
    /// Replay cache: commit id → materialized state.
    state_cache: Mutex<HashMap<CommitId, Arc<CatalogState>>>,
    /// Commits are immutable and content-addressed, so they are perfectly
    /// cacheable — this mirrors Nessie serving its version store from
    /// memory rather than hitting object storage per lookup.
    commit_cache: Mutex<HashMap<CommitId, Commit>>,
    /// The last ref document this catalog read or wrote: a guess at the
    /// heads, never an answer (see [`Catalog::guessed_head`]).
    last_refs: Mutex<Option<Bytes>>,
    ref_reads: Mutex<RefReadTimes>,
    /// Held by [`Catalog::update_refs`] from its read of the ref document
    /// to its CAS, so two threads of one catalog never lose a CAS to each
    /// other: one lock, not one per ref, because every ref lives in the one
    /// document.
    ref_writes: Mutex<()>,
}

impl Catalog {
    /// Initialize a new catalog (creates an empty `main` branch). Errors if
    /// a catalog already exists at this root.
    pub fn init(store: Arc<dyn ObjectStore>, root: impl Into<String>) -> Result<Catalog> {
        let catalog = Catalog::new(store, root.into());
        let mut doc = RefDocument::default();
        doc.refs.insert(
            MAIN_BRANCH.to_string(),
            Reference {
                name: MAIN_BRANCH.to_string(),
                kind: RefKind::Branch,
                head: None,
            },
        );
        let written = Bytes::from(doc.to_bytes());
        catalog
            .store
            .put_if_matches(&catalog.refs_path()?, None, written.clone())
            .map_err(|e| match e {
                StoreError::PreconditionFailed(_) => {
                    CatalogError::RefAlreadyExists("catalog already initialized".into())
                }
                other => other.into(),
            })?;
        catalog.saw_refs(&written);
        Ok(catalog)
    }

    /// Open an existing catalog.
    pub fn open(store: Arc<dyn ObjectStore>, root: impl Into<String>) -> Result<Catalog> {
        let catalog = Catalog::new(store, root.into());
        catalog.read_refs()?; // validate existence
        Ok(catalog)
    }

    fn new(store: Arc<dyn ObjectStore>, root: String) -> Catalog {
        Catalog {
            store,
            root,
            state_cache: Mutex::new(HashMap::new()),
            commit_cache: Mutex::new(HashMap::new()),
            last_refs: Mutex::new(None),
            ref_reads: Mutex::new(RefReadTimes::default()),
            ref_writes: Mutex::new(()),
        }
    }

    /// Where the ref document lives: the one object every statement reads.
    pub fn refs_path(&self) -> Result<ObjectPath> {
        Ok(ObjectPath::new(format!("{}/refs.json", self.root))?)
    }

    fn commit_path(&self, id: &str) -> Result<ObjectPath> {
        Ok(ObjectPath::new(format!("{}/commits/{id}.json", self.root))?)
    }

    /// Extra attempts after a catalog object fails to parse. Parse failure
    /// on an immutable (or CAS-updated) JSON object means the *bytes* are
    /// bad — a torn read — so each retry tells the store
    /// (`ObjectStore::invalidate_corrupt`) and reads the object again; no
    /// store layer keeps bytes, so the re-read reaches the backend. Without
    /// chaos the re-reads see the same object and the same error surfaces.
    const CORRUPT_REREADS: u32 = 2;

    /// Read and parse one catalog object. A parse failure means the bytes
    /// are bad, so the object is read again, up to `CORRUPT_REREADS` times.
    /// `missing` is the error for an absent object,
    /// `corrupt` the one for bytes that never parse, `timed` whether each
    /// GET's backend time counts as a ref read's.
    fn read_object<T>(
        &self,
        path: &ObjectPath,
        parse: impl Fn(&[u8]) -> Option<T>,
        missing: impl Fn() -> CatalogError,
        corrupt: impl FnOnce() -> CatalogError,
        timed: bool,
    ) -> Result<(T, Bytes)> {
        let mut attempts = 0;
        loop {
            let started = Instant::now();
            let bytes = self.store.get(path).map_err(|e| match e {
                StoreError::NotFound(_) => missing(),
                other => other.into(),
            })?;
            if timed {
                self.ref_reads.lock().record(started.elapsed());
            }
            match parse(&bytes) {
                Some(parsed) => return Ok((parsed, bytes)),
                None if attempts < Self::CORRUPT_REREADS => {
                    self.store.invalidate_corrupt(path);
                    attempts += 1;
                }
                None => return Err(corrupt()),
            }
        }
    }

    fn read_refs(&self) -> Result<(RefDocument, Bytes)> {
        let (doc, bytes) = self.read_object(
            &self.refs_path()?,
            RefDocument::from_bytes,
            || CatalogError::Corrupt("catalog not initialized".into()),
            || CatalogError::Corrupt("unparseable refs.json".into()),
            true,
        )?;
        self.saw_refs(&bytes);
        Ok((doc, bytes))
    }

    /// Keep `bytes`, a ref document that parsed, as the latest guess.
    fn saw_refs(&self, bytes: &Bytes) {
        *self.last_refs.lock() = Some(bytes.clone());
    }

    /// The head `name` had in the last ref document this catalog read or
    /// wrote; `None` when it has seen none, or none naming `name` as a ref.
    /// A guess, for work that a fresh read of the ref confirms before
    /// anyone sees it ([`Catalog::resolve_read`]): another front may have
    /// moved the ref since.
    pub fn guessed_head(&self, name: &str) -> Option<Option<CommitId>> {
        let bytes = self.last_refs.lock().clone()?;
        let doc = RefDocument::from_bytes(&bytes)?;
        doc.refs.get(name).map(|r| r.head.clone())
    }

    /// Whether this catalog's ref reads are slow enough that a statement
    /// should overlap its ref read with its own work: the fastest of the
    /// last few took longer than a thread hand-off is worth (DESIGN.md §31).
    pub fn ref_reads_are_slow(&self) -> bool {
        self.ref_reads.lock().slow()
    }

    /// [`Catalog::resolve`] from the bytes of a ref read made elsewhere (an
    /// I/O worker), whose backend call took `elapsed`. Bytes that do not
    /// parse are a torn read: the store is told, and `resolve` reads the
    /// ref again with its own re-read loop.
    pub fn resolve_read(
        &self,
        name_or_id: &str,
        bytes: Bytes,
        elapsed: Duration,
    ) -> Result<Option<CommitId>> {
        self.ref_reads.lock().record(elapsed);
        match RefDocument::from_bytes(&bytes) {
            Some(doc) => {
                self.saw_refs(&bytes);
                self.resolve_in(&doc, name_or_id)
            }
            None => {
                self.store.invalidate_corrupt(&self.refs_path()?);
                self.resolve(name_or_id)
            }
        }
    }

    /// All references, sorted by name.
    pub fn list_refs(&self) -> Result<Vec<Reference>> {
        let (doc, _) = self.read_refs()?;
        Ok(doc.refs.into_values().collect())
    }

    /// Look up one reference.
    pub fn get_ref(&self, name: &str) -> Result<Reference> {
        let (doc, _) = self.read_refs()?;
        doc.refs
            .get(name)
            .cloned()
            .ok_or_else(|| CatalogError::RefNotFound(name.to_string()))
    }

    /// Fetch a commit by id (memoized: commits are immutable).
    pub fn get_commit(&self, id: &str) -> Result<Commit> {
        if let Some(c) = self.commit_cache.lock().get(id) {
            return Ok(c.clone());
        }
        let (commit, _) = self.read_object(
            &self.commit_path(id)?,
            Commit::from_bytes,
            || CatalogError::CommitNotFound(id.to_string()),
            || CatalogError::Corrupt(format!("unparseable commit {id}")),
            false,
        )?;
        self.commit_cache
            .lock()
            .insert(id.to_string(), commit.clone());
        Ok(commit)
    }

    /// Create a branch pointing at `from`'s head (another ref name or a
    /// commit id); `None` starts an empty branch.
    pub fn create_branch(&self, name: &str, from: Option<&str>) -> Result<Reference> {
        let head = match from {
            Some(src) => self.resolve(src)?,
            None => None,
        };
        self.create_ref(name, head, RefKind::Branch)
    }

    /// Create an immutable tag.
    pub fn create_tag(&self, name: &str, from: &str) -> Result<Reference> {
        self.create_ref(name, self.resolve(from)?, RefKind::Tag)
    }

    fn create_ref(&self, name: &str, head: Option<CommitId>, kind: RefKind) -> Result<Reference> {
        self.update_refs(name, |doc| {
            if doc.refs.contains_key(name) {
                return Err(CatalogError::RefAlreadyExists(name.to_string()));
            }
            let r = Reference {
                name: name.to_string(),
                kind,
                head: head.clone(),
            };
            doc.refs.insert(name.to_string(), r.clone());
            Ok(r)
        })
    }

    /// Delete a branch or tag. The commits remain (they may be reachable
    /// from other refs) until [`Catalog::gc`].
    pub fn delete_ref(&self, name: &str) -> Result<()> {
        self.update_refs(name, |doc| {
            doc.refs
                .remove(name)
                .map(|_| ())
                .ok_or_else(|| CatalogError::RefNotFound(name.to_string()))
        })
    }

    /// Resolve a ref name *or* commit id to a commit id.
    pub fn resolve(&self, name_or_id: &str) -> Result<Option<CommitId>> {
        Ok(self.pin(name_or_id)?.0)
    }

    /// [`Catalog::resolve`], also returning the ref document it read: a
    /// later [`Catalog::publish`] tries its CAS against those bytes first.
    pub fn pin(&self, name_or_id: &str) -> Result<(Option<CommitId>, Bytes)> {
        let (doc, bytes) = self.read_refs()?;
        Ok((self.resolve_in(&doc, name_or_id)?, bytes))
    }

    /// [`Catalog::resolve`] against a ref document already read.
    fn resolve_in(&self, doc: &RefDocument, name_or_id: &str) -> Result<Option<CommitId>> {
        if let Some(r) = doc.refs.get(name_or_id) {
            return Ok(r.head.clone());
        }
        // Fall back to treating the string as a commit id.
        if self.store.exists(&self.commit_path(name_or_id)?) {
            return Ok(Some(name_or_id.to_string()));
        }
        Err(CatalogError::RefNotFound(name_or_id.to_string()))
    }

    /// Commit `operations` onto a branch's head (optimistic CAS with
    /// bounded retry). A lost race re-reads the head and parents the same
    /// operations onto it: for operations that do not depend on what the
    /// head holds — a new table, say. A change derived from the head goes
    /// through [`Catalog::commit_with`]. After `MAX_CAS_RETRIES` losses the
    /// result is `CommitContended`.
    pub fn commit(
        &self,
        branch: &str,
        author: &str,
        message: &str,
        operations: Vec<Operation>,
    ) -> Result<CommitId> {
        self.update_refs(branch, |doc| {
            let reference = branch_mut(doc, branch)?;
            let head = reference.head.as_ref();
            let id = self.commit_on(head, author, message, operations.clone())?;
            self.write_commits(&id, head)?;
            reference.head = Some(id.clone());
            Ok(id)
        })
    }

    /// Commit the operations `derive` makes of the branch's table namespace
    /// and return what else it made, with the head of every ref and tag in
    /// the ref document the commit's CAS wrote (the one it read, when no
    /// operation committed). Each CAS attempt runs `derive` on the state of
    /// the head it read, so a commit that lands first is built upon, never
    /// overwritten, and `derive` may run more than once (DESIGN.md §33). No
    /// operation commits and writes nothing.
    pub fn commit_with<T, E: From<CatalogError>>(
        &self,
        branch: &str,
        author: &str,
        message: &str,
        mut derive: impl FnMut(&CatalogState) -> std::result::Result<(Vec<Operation>, T), E>,
    ) -> std::result::Result<(T, BTreeSet<CommitId>), E> {
        self.update_refs(branch, |doc| {
            let reference = branch_mut(doc, branch)?;
            let head = reference.head.as_ref();
            let (operations, out) = derive(&*self.state_of_head(head)?)?;
            if !operations.is_empty() {
                let id = self.commit_on(head, author, message, operations)?;
                self.write_commits(&id, head)?;
                reference.head = Some(id);
            }
            let heads = doc.refs.values().filter_map(|r| r.head.clone());
            Ok((out, heads.collect()))
        })
    }

    /// Make a commit of `operations` whose parent is `parent` (`None`: a
    /// root commit) and return its id, keeping it in memory: no object is
    /// written and no ref moves. A chain of commits made this way is written
    /// by the [`Catalog::publish`] or [`Catalog::create_branch_at`] that
    /// names its head, just before that one CAS: until then no `gc` can
    /// sweep it, and a chain that is never published is never written.
    pub fn commit_on(
        &self,
        parent: Option<&CommitId>,
        author: &str,
        message: &str,
        operations: Vec<Operation>,
    ) -> Result<CommitId> {
        let seq = match parent {
            Some(p) => self.get_commit(p)?.seq + 1,
            None => 0,
        };
        Ok(self.remember(Commit {
            parents: parent.into_iter().cloned().collect(),
            seq,
            author: author.to_string(),
            message: message.to_string(),
            operations,
        }))
    }

    /// Memoize `commit` and return its id.
    fn remember(&self, commit: Commit) -> CommitId {
        let id = commit.id();
        self.commit_cache.lock().insert(id.clone(), commit);
        id
    }

    /// Write the objects of `head` and of its first parents down to `base`
    /// (excluded), each made and memoized by this catalog. Commits are
    /// content-addressed: writing one twice is idempotent, so a plain put
    /// is safe.
    fn write_commits(&self, head: &CommitId, base: Option<&CommitId>) -> Result<()> {
        let mut cursor = Some(head.clone());
        while let Some(id) = cursor.filter(|id| Some(id) != base) {
            let commit = self.get_commit(&id)?;
            let path = self.commit_path(&id)?;
            self.store.put(&path, Bytes::from(commit.to_bytes()))?;
            cursor = commit.parents.into_iter().next();
        }
        Ok(())
    }

    /// First-parent commit log of a ref, newest first, up to `limit`.
    pub fn log(&self, name: &str, limit: usize) -> Result<Vec<(CommitId, Commit)>> {
        let mut out = Vec::new();
        let mut cursor = self.resolve(name)?;
        while let Some(id) = cursor {
            if out.len() >= limit {
                break;
            }
            let commit = self.get_commit(&id)?;
            cursor = commit.parents.first().cloned();
            out.push((id, commit));
        }
        Ok(out)
    }

    /// Materialize the table namespace visible at a ref or commit id.
    ///
    /// State replays the **first-parent chain**: merge commits carry the
    /// effective operations of the merged-in branch, so the chain alone
    /// reconstructs the full state (same flattening trick Nessie's global
    /// state log uses).
    pub fn state_at(&self, name_or_id: &str) -> Result<Arc<CatalogState>> {
        self.state_of_head(self.resolve(name_or_id)?.as_ref())
    }

    /// The table namespace at a head already resolved (`None`: an empty
    /// branch): no ref is read.
    pub fn state_of_head(&self, head: Option<&CommitId>) -> Result<Arc<CatalogState>> {
        match head {
            None => Ok(Arc::default()),
            Some(id) => self.state_of_commit(id),
        }
    }

    /// The table namespace at a commit already resolved: no ref is read.
    /// States are shared, not copied: a commit's state never changes.
    pub fn state_of_commit(&self, id: &CommitId) -> Result<Arc<CatalogState>> {
        if let Some(s) = self.state_cache.lock().get(id) {
            return Ok(Arc::clone(s));
        }
        // Collect the uncached prefix of the first-parent chain.
        let mut chain = Vec::new();
        let mut cursor = Some(id.clone());
        let mut base_state = Arc::default();
        while let Some(cid) = cursor {
            if let Some(s) = self.state_cache.lock().get(&cid) {
                base_state = Arc::clone(s);
                break;
            }
            let commit = self.get_commit(&cid)?;
            cursor = commit.parents.first().cloned();
            chain.push((cid, commit));
        }
        for (cid, commit) in chain.into_iter().rev() {
            let mut state = CatalogState::clone(&base_state);
            state.apply(&commit);
            base_state = Arc::new(state);
            self.state_cache.lock().insert(cid, Arc::clone(&base_state));
        }
        Ok(base_state)
    }

    /// Content a table key points to at a ref.
    pub fn get_content(&self, name_or_id: &str, key: &str) -> Result<ContentRef> {
        self.state_at(name_or_id)?
            .get(key)
            .cloned()
            .ok_or_else(|| CatalogError::KeyNotFound(key.to_string()))
    }

    /// The commits reachable from `id` (inclusive), following *all*
    /// parents, except below a commit whose `seq` is at most `floor`: it is
    /// listed, its parents are not walked. `seq` strictly increases along
    /// every edge, so with a sought commit's `seq` as the floor the walk
    /// reads only the commits made since it, not the history below.
    fn ancestors(&self, id: &CommitId, floor: u64) -> Result<HashSet<CommitId>> {
        let mut seen = HashSet::new();
        let mut stack = vec![id.clone()];
        while let Some(cid) = stack.pop() {
            if seen.insert(cid.clone()) {
                let commit = self.get_commit(&cid)?;
                if commit.seq > floor {
                    stack.extend(commit.parents);
                }
            }
        }
        Ok(seen)
    }

    /// Whether `ancestor` is `id` or one of its ancestors.
    fn is_ancestor(&self, ancestor: &CommitId, id: &CommitId) -> Result<bool> {
        let floor = self.get_commit(ancestor)?.seq;
        Ok(self.ancestors(id, floor)?.contains(ancestor))
    }

    /// Nearest common ancestor by maximum `seq` (well-defined for our DAGs:
    /// seq strictly increases along every edge). The frontier of both heads
    /// is walked highest `seq` first, so every path from a head to a commit
    /// is walked before the commit is, and the first commit both heads
    /// reach is the answer: only commits made since the fork are read.
    fn merge_base(&self, a: &CommitId, b: &CommitId) -> Result<Option<CommitId>> {
        let mut reached = HashMap::from([(a.clone(), 0b01)]);
        *reached.entry(b.clone()).or_default() |= 0b10;
        let seq_of = |id: &CommitId| Ok((self.get_commit(id)?.seq, id.clone()));
        let mut frontier = reached
            .keys()
            .map(seq_of)
            .collect::<Result<BinaryHeap<_>>>()?;
        while let Some((_, id)) = frontier.pop() {
            let sides = reached[&id];
            if sides == 0b11 {
                return Ok(Some(id));
            }
            for parent in self.get_commit(&id)?.parents {
                let reach = reached.entry(parent.clone()).or_insert(0);
                if *reach == 0 {
                    frontier.push(seq_of(&parent)?);
                }
                *reach |= sides;
            }
        }
        Ok(None)
    }

    /// Merge branch `from` into branch `to`, reading both heads from the
    /// ref document the merge swaps: a commit that lands on `to` meanwhile
    /// makes the merge start over from it instead of failing.
    ///
    /// Fast-forwards when possible; otherwise performs a three-way merge
    /// with key-level conflict detection: a key changed on both sides to
    /// different contents aborts with [`CatalogError::MergeConflict`] and
    /// leaves `to` untouched (the transactional guarantee the paper's
    /// transform-audit-write pattern relies on).
    pub fn merge(&self, from: &str, to: &str, author: &str) -> Result<Option<CommitId>> {
        self.update_refs(to, |doc| {
            let from_head = self
                .resolve_in(doc, from)?
                .ok_or_else(|| CatalogError::RefNotFound(format!("{from} has no commits")))?;
            self.merge_head(from, from_head, branch_mut(doc, to)?, author)
        })
    }

    /// Merge the commit `from_head` (the head of `from`) into `target`:
    /// [`Catalog::merge`]'s body, on a document already read.
    fn merge_head(
        &self,
        from: &str,
        from_head: CommitId,
        target: &mut Reference,
        author: &str,
    ) -> Result<Option<CommitId>> {
        let Some(to_head) = target.head.clone() else {
            // Empty target: fast-forward.
            target.head = Some(from_head.clone());
            return Ok(Some(from_head));
        };
        if to_head == from_head {
            return Ok(None); // already up to date
        }
        if self.is_ancestor(&to_head, &from_head)? {
            // Target is behind source: fast-forward.
            target.head = Some(from_head.clone());
            return Ok(Some(from_head));
        }
        if self.is_ancestor(&from_head, &to_head)? {
            return Ok(None); // source already contained in target
        }
        // Three-way merge.
        let base = self
            .merge_base(&from_head, &to_head)?
            .ok_or_else(|| CatalogError::Corrupt("no common ancestor".into()))?;
        let base_state = self.state_of_commit(&base)?;
        let from_changes = base_state.diff(&*self.state_of_commit(&from_head)?);
        let to_changes = base_state.diff(&*self.state_of_commit(&to_head)?);
        let conflicts: Vec<String> = from_changes
            .iter()
            .filter(|(k, v)| to_changes.get(*k).is_some_and(|tv| tv != *v))
            .map(|(k, _)| k.clone())
            .collect();
        if !conflicts.is_empty() {
            return Err(CatalogError::MergeConflict { keys: conflicts });
        }
        let operations: Vec<Operation> = from_changes
            .into_iter()
            .map(|(key, content)| match content {
                Some(content) => Operation::Put { key, content },
                None => Operation::Delete { key },
            })
            .collect();
        let seq = self
            .get_commit(&to_head)?
            .seq
            .max(self.get_commit(&from_head)?.seq)
            + 1;
        let id = self.remember(Commit {
            parents: vec![to_head.clone(), from_head],
            seq,
            author: author.to_string(),
            message: format!("merge {from} into {}", target.name),
            operations,
        });
        self.write_commits(&id, Some(&to_head))?;
        target.head = Some(id.clone());
        Ok(Some(id))
    }

    /// Publish `head`, the last of a chain of commits made on `base` with
    /// [`Catalog::commit_on`]: write the chain's objects, then merge it into
    /// the branch `into` as [`Catalog::merge`] would merge a branch `from`
    /// at `head`, in one CAS whose first attempt expects `read`, the ref
    /// document `base` was pinned from ([`Catalog::pin`]). When no ref moved
    /// since the pin, nothing is read again; a target still at `base`
    /// fast-forwards after a walk of the chain alone, which is in memory.
    pub fn publish(
        &self,
        read: Bytes,
        base: Option<&CommitId>,
        head: &CommitId,
        from: &str,
        into: &str,
        author: &str,
    ) -> Result<()> {
        self.write_commits(head, base)?;
        self.update_refs_from(into, Some(read), |doc| {
            let target = branch_mut(doc, into)?;
            self.merge_head(from, head.clone(), target, author)
                .map(drop)
        })
    }

    /// Create the branch `name` at `head`, the last of a chain of commits
    /// made on `base` with [`Catalog::commit_on`]: write the chain's
    /// objects, then the ref.
    pub fn create_branch_at(
        &self,
        base: Option<&CommitId>,
        name: &str,
        head: &CommitId,
    ) -> Result<Reference> {
        self.write_commits(head, base)?;
        self.create_ref(name, Some(head.clone()), RefKind::Branch)
    }

    /// Garbage-collect commit objects unreachable from any reference
    /// (the cleanup Nessie leaves to its `gc` tool). Returns the number of
    /// commit objects deleted. Content-addressed and immutable commits make
    /// this safe: a deleted commit can never be referenced again except by
    /// re-creating the identical commit, which re-writes the object.
    pub fn gc(&self) -> Result<usize> {
        let (doc, _) = self.read_refs()?;
        let mut reachable = HashSet::new();
        for r in doc.refs.values() {
            if let Some(head) = &r.head {
                reachable.extend(self.ancestors(head, 0)?);
            }
        }
        let prefix = format!("{}/commits", self.root);
        let mut deleted = 0;
        for path in self.store.list(&prefix)? {
            let file = path.file_name();
            let Some(id) = file.strip_suffix(".json") else {
                continue;
            };
            if !reachable.contains(id) {
                self.store.delete(&path)?;
                self.commit_cache.lock().remove(id);
                self.state_cache.lock().remove(id);
                deleted += 1;
            }
        }
        Ok(deleted)
    }

    /// Read-modify-CAS loop over the ref document: the one path by which
    /// any ref moves. Each attempt runs `mutate` on the document it read, so
    /// whatever `mutate` derives from it is derived afresh after a lost
    /// race. A document `mutate` left as it was is not written. Once every
    /// attempt lost, the result is `CommitContended` on `name`. The document
    /// a CAS wrote is this catalog's latest guess at the heads.
    ///
    /// Updates through one catalog take turns, each holding `ref_writes`
    /// across read → mutate → CAS, so a CAS lost on a fresh read always
    /// means another catalog (another front) won. `mutate` must not update
    /// refs itself: the lock is not re-entrant.
    fn update_refs<T, E: From<CatalogError>>(
        &self,
        name: &str,
        mutate: impl FnMut(&mut RefDocument) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        self.update_refs_from(name, None, mutate)
    }

    /// [`Catalog::update_refs`] whose first attempt runs on `read`, a ref
    /// document read earlier, and CASes against its bytes. Those bytes lose
    /// when any ref moved since, this catalog's own moves too: a loss on them
    /// says they were stale, not that another writer won, so the document
    /// is read afresh at once, with no backoff and no retry counted.
    fn update_refs_from<T, E: From<CatalogError>>(
        &self,
        name: &str,
        read: Option<Bytes>,
        mut mutate: impl FnMut(&mut RefDocument) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        let _turn = self.ref_writes.lock();
        // One mutate → CAS on a document and its bytes; `None`: the CAS lost.
        let mut attempt = |(mut doc, expected): (RefDocument, Bytes)| -> std::result::Result<_, E> {
            let out = mutate(&mut doc)?;
            let written = Bytes::from(doc.to_bytes());
            if written == expected {
                return Ok(Some(out));
            }
            let path = self.refs_path()?;
            match self
                .store
                .put_if_matches(&path, Some(&expected), written.clone())
            {
                Ok(()) => {
                    self.saw_refs(&written);
                    Ok(Some(out))
                }
                Err(StoreError::PreconditionFailed(_)) => Ok(None),
                Err(e) => Err(CatalogError::from(e).into()),
            }
        };
        let kept = read.and_then(|bytes| Some((RefDocument::from_bytes(&bytes)?, bytes)));
        if let Some(out) = kept.map_or(Ok(None), &mut attempt)? {
            return Ok(out);
        }
        let mut backoff = CasBackoff::new(self.store.as_ref(), backoff_seed());
        for n in 0..MAX_CAS_RETRIES {
            if n > 0 {
                backoff.wait();
            }
            if let Some(out) = attempt(self.read_refs()?)? {
                return Ok(out);
            }
        }
        Err(CatalogError::CommitContended {
            branch: name.to_string(),
            attempts: MAX_CAS_RETRIES,
        }
        .into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_store::{InMemoryStore, LatencyModel, SimulatedStore};

    fn new_catalog() -> Catalog {
        Catalog::init(Arc::new(InMemoryStore::new()), "_catalog").unwrap()
    }

    fn put_op(key: &str, snap: u64) -> Operation {
        Operation::Put {
            key: key.into(),
            content: ContentRef::new(format!("meta/{key}/{snap}.json"), snap),
        }
    }

    #[test]
    fn init_creates_main() {
        let c = new_catalog();
        let r = c.get_ref(MAIN_BRANCH).unwrap();
        assert_eq!(r.kind, RefKind::Branch);
        assert!(r.head.is_none());
    }

    #[test]
    fn double_init_fails() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        Catalog::init(Arc::clone(&store), "_catalog").unwrap();
        assert!(Catalog::init(store, "_catalog").is_err());
    }

    #[test]
    fn open_requires_existing() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        assert!(Catalog::open(Arc::clone(&store), "_catalog").is_err());
        Catalog::init(Arc::clone(&store), "_catalog").unwrap();
        assert!(Catalog::open(store, "_catalog").is_ok());
    }

    #[test]
    fn commit_advances_head_and_state() {
        let c = new_catalog();
        let id1 = c
            .commit("main", "me", "add t1", vec![put_op("t1", 1)])
            .unwrap();
        assert_eq!(c.get_ref("main").unwrap().head, Some(id1.clone()));
        let id2 = c
            .commit("main", "me", "add t2", vec![put_op("t2", 1)])
            .unwrap();
        assert_ne!(id1, id2);
        let state = c.state_at("main").unwrap();
        assert_eq!(state.len(), 2);
        assert_eq!(c.get_content("main", "t1").unwrap().snapshot_id, 1);
    }

    #[test]
    fn commit_to_tag_rejected() {
        let c = new_catalog();
        c.commit("main", "me", "x", vec![put_op("t1", 1)]).unwrap();
        c.create_tag("v1", "main").unwrap();
        assert!(matches!(
            c.commit("v1", "me", "y", vec![put_op("t1", 2)]),
            Err(CatalogError::TagIsImmutable(_))
        ));
    }

    #[test]
    fn branch_isolation() {
        let c = new_catalog();
        c.commit("main", "me", "base", vec![put_op("t1", 1)])
            .unwrap();
        c.create_branch("feat", Some("main")).unwrap();
        c.commit("feat", "me", "feature work", vec![put_op("t1", 2)])
            .unwrap();
        // main still sees snapshot 1, feat sees 2.
        assert_eq!(c.get_content("main", "t1").unwrap().snapshot_id, 1);
        assert_eq!(c.get_content("feat", "t1").unwrap().snapshot_id, 2);
    }

    #[test]
    fn fast_forward_merge() {
        let c = new_catalog();
        c.commit("main", "me", "base", vec![put_op("t1", 1)])
            .unwrap();
        c.create_branch("feat", Some("main")).unwrap();
        let feat_head = c
            .commit("feat", "me", "work", vec![put_op("t2", 1)])
            .unwrap();
        let merged = c.merge("feat", "main", "me").unwrap();
        assert_eq!(merged, Some(feat_head.clone()));
        assert_eq!(c.get_ref("main").unwrap().head, Some(feat_head));
        assert_eq!(c.state_at("main").unwrap().len(), 2);
    }

    #[test]
    fn three_way_merge_without_conflict() {
        let c = new_catalog();
        c.commit("main", "me", "base", vec![put_op("t1", 1)])
            .unwrap();
        c.create_branch("feat", Some("main")).unwrap();
        c.commit("feat", "me", "feat change", vec![put_op("t2", 1)])
            .unwrap();
        c.commit("main", "me", "main change", vec![put_op("t3", 1)])
            .unwrap();
        let merged = c.merge("feat", "main", "me").unwrap();
        assert!(merged.is_some());
        let state = c.state_at("main").unwrap();
        assert_eq!(state.len(), 3);
        // Merge commit has two parents.
        let mc = c.get_commit(&merged.unwrap()).unwrap();
        assert_eq!(mc.parents.len(), 2);
    }

    #[test]
    fn conflicting_merge_aborts() {
        let c = new_catalog();
        c.commit("main", "me", "base", vec![put_op("t1", 1)])
            .unwrap();
        c.create_branch("feat", Some("main")).unwrap();
        c.commit("feat", "me", "feat t1", vec![put_op("t1", 2)])
            .unwrap();
        c.commit("main", "me", "main t1", vec![put_op("t1", 3)])
            .unwrap();
        let err = c.merge("feat", "main", "me").unwrap_err();
        match err {
            CatalogError::MergeConflict { keys } => assert_eq!(keys, vec!["t1".to_string()]),
            other => panic!("expected conflict, got {other}"),
        }
        // Target untouched.
        assert_eq!(c.get_content("main", "t1").unwrap().snapshot_id, 3);
    }

    #[test]
    fn identical_change_both_sides_is_not_conflict() {
        let c = new_catalog();
        c.commit("main", "me", "base", vec![put_op("t1", 1)])
            .unwrap();
        c.create_branch("feat", Some("main")).unwrap();
        c.commit("feat", "me", "same", vec![put_op("t1", 2)])
            .unwrap();
        c.commit("main", "me", "same", vec![put_op("t1", 2)])
            .unwrap();
        assert!(c.merge("feat", "main", "me").is_ok());
        assert_eq!(c.get_content("main", "t1").unwrap().snapshot_id, 2);
    }

    #[test]
    fn merge_into_empty_branch_fast_forwards() {
        let c = new_catalog();
        c.create_branch("feat", None).unwrap();
        c.commit("feat", "me", "x", vec![put_op("t1", 1)]).unwrap();
        c.merge("feat", "main", "me").unwrap();
        assert_eq!(c.state_at("main").unwrap().len(), 1);
    }

    #[test]
    fn merge_already_up_to_date() {
        let c = new_catalog();
        c.commit("main", "me", "x", vec![put_op("t1", 1)]).unwrap();
        c.create_branch("feat", Some("main")).unwrap();
        assert_eq!(c.merge("feat", "main", "me").unwrap(), None);
    }

    #[test]
    fn log_first_parent_order() {
        let c = new_catalog();
        c.commit("main", "me", "one", vec![put_op("t1", 1)])
            .unwrap();
        c.commit("main", "me", "two", vec![put_op("t1", 2)])
            .unwrap();
        c.commit("main", "me", "three", vec![put_op("t1", 3)])
            .unwrap();
        let log = c.log("main", 10).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].1.message, "three");
        assert_eq!(log[2].1.message, "one");
        assert_eq!(c.log("main", 2).unwrap().len(), 2);
    }

    #[test]
    fn delete_branch() {
        let c = new_catalog();
        c.create_branch("temp", None).unwrap();
        c.delete_ref("temp").unwrap();
        assert!(matches!(
            c.get_ref("temp"),
            Err(CatalogError::RefNotFound(_))
        ));
        assert!(c.delete_ref("temp").is_err());
    }

    #[test]
    fn resolve_commit_id_directly() {
        let c = new_catalog();
        let id = c.commit("main", "me", "x", vec![put_op("t1", 1)]).unwrap();
        c.commit("main", "me", "y", vec![put_op("t1", 2)]).unwrap();
        // Time travel to the first commit by id.
        assert_eq!(c.get_content(&id, "t1").unwrap().snapshot_id, 1);
        assert!(c.resolve("bogus").is_err());
    }

    #[test]
    fn tag_preserves_state_forever() {
        let c = new_catalog();
        c.commit("main", "me", "x", vec![put_op("t1", 1)]).unwrap();
        c.create_tag("v1", "main").unwrap();
        c.commit("main", "me", "y", vec![put_op("t1", 2)]).unwrap();
        assert_eq!(c.get_content("v1", "t1").unwrap().snapshot_id, 1);
        assert_eq!(c.get_content("main", "t1").unwrap().snapshot_id, 2);
    }

    #[test]
    fn duplicate_branch_rejected() {
        let c = new_catalog();
        assert!(matches!(
            c.create_branch("main", None),
            Err(CatalogError::RefAlreadyExists(_))
        ));
    }

    #[test]
    fn ephemeral_branch_workflow() {
        // The paper's Fig. 4 flow: a run pins feat_1, commits its artifacts
        // on that head in memory, and publishes them in one CAS against the
        // pinned bytes: a fast-forward that reads nothing more, a three-way
        // merge once feat_1 moved, a branch for a sandbox.
        let store = Arc::new(SimulatedStore::new(
            InMemoryStore::new(),
            LatencyModel::zero(),
        ));
        let c = Catalog::init(Arc::clone(&store) as Arc<dyn ObjectStore>, "_catalog").unwrap();
        c.commit("main", "me", "prod data", vec![put_op("taxi_table", 1)])
            .unwrap();
        c.create_branch("feat_1", Some("main")).unwrap();
        let puts = store.metrics().puts();
        let stage = |key: &str| {
            let (base, read) = c.pin("feat_1").unwrap();
            let head = c.commit_on(base.as_ref(), "runner", key, vec![put_op(key, 1)]);
            (base, read, head.unwrap())
        };
        let (base, read, head) = stage("trips");
        assert_eq!(
            store.metrics().puts(),
            puts,
            "a stage commit is not written"
        );
        assert_eq!(c.gc().unwrap(), 0, "so no gc can sweep it");
        let gets = store.metrics().gets();
        c.publish(read, base.as_ref(), &head, "run_12", "feat_1", "runner")
            .unwrap();
        assert_eq!(store.metrics().gets(), gets, "a fast-forward reads nothing");
        assert_eq!(store.metrics().puts(), puts + 2, "the commit and the ref");
        assert_eq!(c.resolve("feat_1").unwrap(), Some(head));
        // feat_1 moves while the next run goes: its publish merges three-way.
        let (base, read, head) = stage("pickups");
        let fix = c.commit("feat_1", "me", "fix", vec![put_op("zones", 1)]);
        c.publish(read, base.as_ref(), &head, "run_12", "feat_1", "runner")
            .unwrap();
        let (_, merge) = c.log("feat_1", 1).unwrap().remove(0);
        assert_eq!(merge.parents[0], fix.unwrap());
        assert_eq!(merge.message, "merge run_12 into feat_1");
        assert_eq!(c.state_at("feat_1").unwrap().len(), 4);
        // A sandbox publishes its head as a branch of its own.
        let (base, _, head) = stage("sandboxed");
        c.create_branch_at(base.as_ref(), "run_13", &head).unwrap();
        assert_eq!(c.resolve("run_13").unwrap(), Some(head));
        assert_eq!(c.state_at("feat_1").unwrap().len(), 4);
        // Production untouched until the final merge.
        assert_eq!(c.state_at("main").unwrap().len(), 1);
        c.merge("feat_1", "main", "me").unwrap();
        assert_eq!(c.state_at("main").unwrap().len(), 4);
        // Every commit of a published chain was written: a cold front reads
        // the whole history.
        let cold = Catalog::open(Arc::clone(&store) as Arc<dyn ObjectStore>, "_catalog");
        assert_eq!(cold.unwrap().log("run_13", 10).unwrap().len(), 5);
    }

    #[test]
    fn gc_removes_only_unreachable_commits() {
        let c = new_catalog();
        c.commit("main", "me", "keep1", vec![put_op("t1", 1)])
            .unwrap();
        c.create_branch("doomed", Some("main")).unwrap();
        c.commit("doomed", "me", "orphan1", vec![put_op("t2", 1)])
            .unwrap();
        c.commit("doomed", "me", "orphan2", vec![put_op("t3", 1)])
            .unwrap();
        c.commit("main", "me", "keep2", vec![put_op("t1", 2)])
            .unwrap();
        // Nothing unreachable yet.
        assert_eq!(c.gc().unwrap(), 0);
        c.delete_ref("doomed").unwrap();
        // The two orphaned commits go; main's history survives.
        assert_eq!(c.gc().unwrap(), 2);
        assert_eq!(c.log("main", 10).unwrap().len(), 2);
        assert_eq!(c.state_at("main").unwrap().len(), 1);
        // Idempotent.
        assert_eq!(c.gc().unwrap(), 0);
    }

    #[test]
    fn gc_keeps_commits_reachable_via_tags_and_merges() {
        let c = new_catalog();
        c.commit("main", "me", "base", vec![put_op("t1", 1)])
            .unwrap();
        c.create_tag("v1", "main").unwrap();
        c.create_branch("feat", Some("main")).unwrap();
        c.commit("feat", "me", "feat work", vec![put_op("t2", 1)])
            .unwrap();
        c.commit("main", "me", "main work", vec![put_op("t3", 1)])
            .unwrap();
        c.merge("feat", "main", "me").unwrap();
        c.delete_ref("feat").unwrap();
        // The feat commit is still reachable through the merge's second
        // parent; the tag pins the base.
        assert_eq!(c.gc().unwrap(), 0);
        assert_eq!(c.state_at("main").unwrap().len(), 3);
    }

    #[test]
    fn the_guess_follows_every_ref_this_catalog_reads_or_moves() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let c = Catalog::init(Arc::clone(&store), "_catalog").unwrap();
        assert_eq!(c.guessed_head("main"), Some(None));
        let id = c.commit("main", "me", "x", vec![put_op("t1", 1)]).unwrap();
        assert_eq!(c.guessed_head("main"), Some(Some(id.clone())));
        c.create_branch("feat", Some("main")).unwrap();
        let feat = c.commit("feat", "me", "y", vec![put_op("t2", 1)]).unwrap();
        c.merge("feat", "main", "me").unwrap();
        assert_eq!(c.guessed_head("main"), Some(Some(feat.clone())));
        c.delete_ref("feat").unwrap();
        assert_eq!(c.guessed_head("feat"), None);
        // Another catalog's commit is not seen until this one reads the
        // ref; a commit id is never a ref.
        let other = Catalog::open(store, "_catalog").unwrap();
        let later = other
            .commit("main", "me", "z", vec![put_op("t3", 1)])
            .unwrap();
        assert_eq!(c.guessed_head("main"), Some(Some(feat)));
        assert_eq!(c.resolve("main").unwrap(), Some(later.clone()));
        assert_eq!(c.guessed_head("main"), Some(Some(later)));
        assert_eq!(c.guessed_head(&id), None);
    }

    #[test]
    fn ref_reads_are_slow_when_the_fastest_of_the_last_eight_was() {
        let slow = SLOW_REF_READ * 2;
        let mut times = RefReadTimes::default();
        assert!(!times.slow(), "no read yet");
        times.record(slow);
        assert!(times.slow());
        times.record(Duration::from_micros(5));
        for _ in 1..REF_READ_WINDOW {
            times.record(slow);
            assert!(!times.slow(), "a fast read in the window");
        }
        times.record(slow);
        assert!(times.slow(), "the fast read left the window");
    }

    #[test]
    fn a_ref_read_made_elsewhere_resolves_like_one_made_here() {
        let c = new_catalog();
        let id = c.commit("main", "me", "x", vec![put_op("t1", 1)]).unwrap();
        let (_, bytes) = c.read_refs().unwrap();
        let elapsed = Duration::from_micros(1);
        assert_eq!(
            c.resolve_read("main", bytes.clone(), elapsed).unwrap(),
            Some(id.clone())
        );
        assert_eq!(
            c.resolve_read(&id, bytes.clone(), elapsed).unwrap(),
            Some(id.clone())
        );
        assert!(matches!(
            c.resolve_read("ghost", bytes, elapsed),
            Err(CatalogError::RefNotFound(_))
        ));
        // Torn bytes: the ref is read again here.
        let torn = Bytes::from_static(b"{ not a document");
        assert_eq!(c.resolve_read("main", torn, elapsed).unwrap(), Some(id));
    }

    #[test]
    fn deleted_key_merges() {
        let c = new_catalog();
        c.commit("main", "me", "base", vec![put_op("t1", 1), put_op("t2", 1)])
            .unwrap();
        c.create_branch("feat", Some("main")).unwrap();
        c.commit(
            "feat",
            "me",
            "drop t2",
            vec![Operation::Delete { key: "t2".into() }],
        )
        .unwrap();
        c.commit("main", "me", "main work", vec![put_op("t3", 1)])
            .unwrap();
        c.merge("feat", "main", "me").unwrap();
        let s = c.state_at("main").unwrap();
        assert!(s.get("t2").is_none());
        assert!(s.get("t3").is_some());
    }
}
