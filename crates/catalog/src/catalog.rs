//! The store-backed catalog: optimistic commits, branches, tags, merges.

use crate::commit::{Commit, CommitId, ContentRef, Operation};
use crate::error::{CatalogError, Result};
use crate::refs::{RefDocument, RefKind, Reference};
use crate::state::CatalogState;
use bytes::Bytes;
use lakehouse_store::{Backoff, ObjectPath, ObjectStore, StoreError};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

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

/// What a ref move returns when it lost every CAS race.
fn refs_contended() -> CatalogError {
    CatalogError::ConcurrentUpdate("refs.json".into())
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
    state_cache: Mutex<HashMap<CommitId, CatalogState>>,
    /// Commits are immutable and content-addressed, so they are perfectly
    /// cacheable — this mirrors Nessie serving its version store from
    /// memory rather than hitting object storage per lookup.
    commit_cache: Mutex<HashMap<CommitId, Commit>>,
}

impl Catalog {
    /// Initialize a new catalog (creates an empty `main` branch). Errors if
    /// a catalog already exists at this root.
    pub fn init(store: Arc<dyn ObjectStore>, root: impl Into<String>) -> Result<Catalog> {
        let root = root.into();
        let catalog = Catalog {
            store,
            root,
            state_cache: Mutex::new(HashMap::new()),
            commit_cache: Mutex::new(HashMap::new()),
        };
        let mut doc = RefDocument::default();
        doc.refs.insert(
            MAIN_BRANCH.to_string(),
            Reference {
                name: MAIN_BRANCH.to_string(),
                kind: RefKind::Branch,
                head: None,
            },
        );
        catalog
            .store
            .put_if_matches(&catalog.refs_path()?, None, Bytes::from(doc.to_bytes()))
            .map_err(|e| match e {
                StoreError::PreconditionFailed(_) => {
                    CatalogError::RefAlreadyExists("catalog already initialized".into())
                }
                other => other.into(),
            })?;
        Ok(catalog)
    }

    /// Open an existing catalog.
    pub fn open(store: Arc<dyn ObjectStore>, root: impl Into<String>) -> Result<Catalog> {
        let catalog = Catalog {
            store,
            root: root.into(),
            state_cache: Mutex::new(HashMap::new()),
            commit_cache: Mutex::new(HashMap::new()),
        };
        catalog.read_refs()?; // validate existence
        Ok(catalog)
    }

    fn refs_path(&self) -> Result<ObjectPath> {
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
    /// `corrupt` the one for bytes that never parse.
    fn read_object<T>(
        &self,
        path: &ObjectPath,
        parse: impl Fn(&[u8]) -> Option<T>,
        missing: impl Fn() -> CatalogError,
        corrupt: impl FnOnce() -> CatalogError,
    ) -> Result<(T, Bytes)> {
        let mut attempts = 0;
        loop {
            let bytes = self.store.get(path).map_err(|e| match e {
                StoreError::NotFound(_) => missing(),
                other => other.into(),
            })?;
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
        self.read_object(
            &self.refs_path()?,
            RefDocument::from_bytes,
            || CatalogError::Corrupt("catalog not initialized".into()),
            || CatalogError::Corrupt("unparseable refs.json".into()),
        )
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
        self.create_branch_at(name, head)
    }

    /// Create a branch whose head is the commit `head`, already resolved
    /// (`None`: an empty branch).
    pub fn create_branch_at(&self, name: &str, head: Option<CommitId>) -> Result<Reference> {
        self.create_ref(name, head, RefKind::Branch)
    }

    /// Create an immutable tag.
    pub fn create_tag(&self, name: &str, from: &str) -> Result<Reference> {
        self.create_ref(name, self.resolve(from)?, RefKind::Tag)
    }

    fn create_ref(&self, name: &str, head: Option<CommitId>, kind: RefKind) -> Result<Reference> {
        self.update_refs(refs_contended, |doc| {
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
    /// from other refs); garbage collection is out of scope, as in Nessie.
    pub fn delete_ref(&self, name: &str) -> Result<()> {
        self.update_refs(refs_contended, |doc| {
            doc.refs
                .remove(name)
                .map(|_| ())
                .ok_or_else(|| CatalogError::RefNotFound(name.to_string()))
        })
    }

    /// Resolve a ref name *or* commit id to a commit id.
    pub fn resolve(&self, name_or_id: &str) -> Result<Option<CommitId>> {
        let (doc, _) = self.read_refs()?;
        if let Some(r) = doc.refs.get(name_or_id) {
            return Ok(r.head.clone());
        }
        // Fall back to treating the string as a commit id.
        if self.store.exists(&self.commit_path(name_or_id)?) {
            return Ok(Some(name_or_id.to_string()));
        }
        Err(CatalogError::RefNotFound(name_or_id.to_string()))
    }

    /// Commit operations onto a branch's head (optimistic CAS with bounded
    /// retry). A lost race re-reads the head and parents the same
    /// operations onto it; after `MAX_CAS_RETRIES` losses the result is
    /// `CommitContended`.
    pub fn commit(
        &self,
        branch: &str,
        author: &str,
        message: &str,
        operations: Vec<Operation>,
    ) -> Result<CommitId> {
        let contended = || CatalogError::CommitContended {
            branch: branch.to_string(),
            attempts: MAX_CAS_RETRIES,
        };
        self.update_refs(contended, |doc| {
            let reference = doc
                .refs
                .get_mut(branch)
                .ok_or_else(|| CatalogError::RefNotFound(branch.to_string()))?;
            if reference.kind == RefKind::Tag {
                return Err(CatalogError::TagIsImmutable(branch.to_string()));
            }
            let parent = reference.head.clone();
            let seq = match &parent {
                Some(p) => self.get_commit(p)?.seq + 1,
                None => 0,
            };
            let id = self.write_commit(Commit {
                parents: parent.into_iter().collect(),
                seq,
                author: author.to_string(),
                message: message.to_string(),
                operations: operations.clone(),
            })?;
            reference.head = Some(id.clone());
            Ok(id)
        })
    }

    /// Write a commit object and memoize it. Commits are content-addressed:
    /// writing the same commit twice is idempotent, so a plain put is safe.
    fn write_commit(&self, commit: Commit) -> Result<CommitId> {
        let id = commit.id();
        self.store
            .put(&self.commit_path(&id)?, Bytes::from(commit.to_bytes()))?;
        self.commit_cache.lock().insert(id.clone(), commit);
        Ok(id)
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
    pub fn state_at(&self, name_or_id: &str) -> Result<CatalogState> {
        let head = self.resolve(name_or_id)?;
        match head {
            None => Ok(CatalogState::new()),
            Some(id) => self.state_of_commit(&id),
        }
    }

    /// The table namespace at a commit already resolved: no ref is read.
    pub fn state_of_commit(&self, id: &CommitId) -> Result<CatalogState> {
        if let Some(s) = self.state_cache.lock().get(id) {
            return Ok(s.clone());
        }
        // Collect the uncached prefix of the first-parent chain.
        let mut chain = Vec::new();
        let mut cursor = Some(id.clone());
        let mut base_state = CatalogState::new();
        while let Some(cid) = cursor {
            if let Some(s) = self.state_cache.lock().get(&cid) {
                base_state = s.clone();
                break;
            }
            let commit = self.get_commit(&cid)?;
            cursor = commit.parents.first().cloned();
            chain.push((cid, commit));
        }
        for (cid, commit) in chain.into_iter().rev() {
            base_state.apply(&commit);
            self.state_cache.lock().insert(cid, base_state.clone());
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

    /// All ancestor commit ids of `id` (inclusive), following *all* parents.
    fn ancestors(&self, id: &CommitId) -> Result<HashSet<CommitId>> {
        let mut seen = HashSet::new();
        let mut stack = vec![id.clone()];
        while let Some(cid) = stack.pop() {
            if !seen.insert(cid.clone()) {
                continue;
            }
            let commit = self.get_commit(&cid)?;
            stack.extend(commit.parents.iter().cloned());
        }
        Ok(seen)
    }

    /// Nearest common ancestor by maximum `seq` (well-defined for our DAGs:
    /// seq strictly increases along every edge).
    fn merge_base(&self, a: &CommitId, b: &CommitId) -> Result<Option<CommitId>> {
        let ancestors_a = self.ancestors(a)?;
        let ancestors_b = self.ancestors(b)?;
        let mut best: Option<(u64, CommitId)> = None;
        for id in ancestors_a.intersection(&ancestors_b) {
            let seq = self.get_commit(id)?.seq;
            if best.as_ref().is_none_or(|(s, _)| seq > *s) {
                best = Some((seq, id.clone()));
            }
        }
        Ok(best.map(|(_, id)| id))
    }

    /// Merge branch `from` into branch `to`.
    ///
    /// Fast-forwards when possible; otherwise performs a three-way merge
    /// with key-level conflict detection: a key changed on both sides to
    /// different contents aborts with [`CatalogError::MergeConflict`] and
    /// leaves `to` untouched (the transactional guarantee the paper's
    /// transform-audit-write pattern relies on).
    pub fn merge(&self, from: &str, to: &str, author: &str) -> Result<Option<CommitId>> {
        let from_head = self
            .resolve(from)?
            .ok_or_else(|| CatalogError::RefNotFound(format!("{from} has no commits")))?;
        let to_ref = self.get_ref(to)?;
        if to_ref.kind == RefKind::Tag {
            return Err(CatalogError::TagIsImmutable(to.to_string()));
        }
        let Some(to_head) = to_ref.head.clone() else {
            // Empty target: fast-forward to the source head.
            self.move_branch(to, None, Some(from_head.clone()))?;
            return Ok(Some(from_head));
        };
        if to_head == from_head {
            return Ok(None); // already up to date
        }
        let from_ancestors = self.ancestors(&from_head)?;
        if from_ancestors.contains(&to_head) {
            // Target is behind source: fast-forward.
            self.move_branch(to, Some(to_head), Some(from_head.clone()))?;
            return Ok(Some(from_head));
        }
        let to_ancestors = self.ancestors(&to_head)?;
        if to_ancestors.contains(&from_head) {
            return Ok(None); // source already contained in target
        }
        // Three-way merge.
        let base = self
            .merge_base(&from_head, &to_head)?
            .ok_or_else(|| CatalogError::Corrupt("no common ancestor".into()))?;
        let base_state = self.state_of_commit(&base)?;
        let from_state = self.state_of_commit(&from_head)?;
        let to_state = self.state_of_commit(&to_head)?;
        let from_changes = base_state.diff(&from_state);
        let to_changes = base_state.diff(&to_state);
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
        let id = self.write_commit(Commit {
            parents: vec![to_head.clone(), from_head.clone()],
            seq,
            author: author.to_string(),
            message: format!("merge {from} into {to}"),
            operations,
        })?;
        self.move_branch(to, Some(to_head), Some(id.clone()))?;
        Ok(Some(id))
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
                reachable.extend(self.ancestors(head)?);
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

    /// CAS-move a branch head from `expected` to `new`.
    fn move_branch(
        &self,
        name: &str,
        expected: Option<CommitId>,
        new: Option<CommitId>,
    ) -> Result<()> {
        self.update_refs(refs_contended, |doc| {
            let r = doc
                .refs
                .get_mut(name)
                .ok_or_else(|| CatalogError::RefNotFound(name.to_string()))?;
            if r.head != expected {
                return Err(CatalogError::ConcurrentUpdate(name.to_string()));
            }
            r.head = new.clone();
            Ok(())
        })
    }

    /// Read-modify-CAS loop over the ref document: the one path by which
    /// any ref moves. `contended` is the error once every attempt lost.
    fn update_refs<T>(
        &self,
        contended: impl FnOnce() -> CatalogError,
        mut mutate: impl FnMut(&mut RefDocument) -> Result<T>,
    ) -> Result<T> {
        let mut backoff = CasBackoff::new(self.store.as_ref(), backoff_seed());
        for attempt in 0..MAX_CAS_RETRIES {
            if attempt > 0 {
                backoff.wait();
            }
            let (mut doc, expected_bytes) = self.read_refs()?;
            let out = mutate(&mut doc)?;
            match self.store.put_if_matches(
                &self.refs_path()?,
                Some(&expected_bytes),
                Bytes::from(doc.to_bytes()),
            ) {
                Ok(()) => return Ok(out),
                Err(StoreError::PreconditionFailed(_)) => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Err(contended())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_store::InMemoryStore;

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
        // The paper's Fig. 4 flow: feat branch → ephemeral run branch →
        // merge up → delete ephemeral.
        let c = new_catalog();
        c.commit("main", "me", "prod data", vec![put_op("taxi_table", 1)])
            .unwrap();
        c.create_branch("feat_1", Some("main")).unwrap();
        c.create_branch("run_12", Some("feat_1")).unwrap();
        c.commit(
            "run_12",
            "runner",
            "materialize trips",
            vec![put_op("trips", 1)],
        )
        .unwrap();
        c.commit(
            "run_12",
            "runner",
            "materialize pickups",
            vec![put_op("pickups", 1)],
        )
        .unwrap();
        c.merge("run_12", "feat_1", "runner").unwrap();
        c.delete_ref("run_12").unwrap();
        let feat = c.state_at("feat_1").unwrap();
        assert_eq!(feat.len(), 3);
        // Production untouched until the final merge.
        assert_eq!(c.state_at("main").unwrap().len(), 1);
        c.merge("feat_1", "main", "me").unwrap();
        assert_eq!(c.state_at("main").unwrap().len(), 3);
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
