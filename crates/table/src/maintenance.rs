//! Table maintenance: small-file compaction and snapshot expiration — the
//! background jobs every Iceberg deployment runs (and a natural extension of
//! the paper's platform once runs accumulate).

use crate::error::{Result, TableError};
use crate::manifest::Manifest;
use crate::snapshot::SnapshotOperation;
use crate::table::Table;
use lakehouse_store::{ObjectPath, StoreError};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// Outcome of a compaction pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Files whose contents were rewritten.
    pub files_compacted: usize,
    /// Files written by the compaction.
    pub files_written: usize,
    /// Rows rewritten.
    pub rows_rewritten: u64,
}

/// Outcome of snapshot expiration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpirationReport {
    pub snapshots_expired: usize,
    /// Data files deleted because no retained snapshot references them.
    pub data_files_deleted: usize,
    pub manifests_deleted: usize,
}

impl Table {
    fn manifest(&self, path: &str) -> Result<Arc<Manifest>> {
        Manifest::load(self.store(), self.io(), path)
    }

    /// Rewrite the current snapshot's data files into as few files as
    /// possible (one per partition), committing an `Overwrite` snapshot.
    /// No-op (returns zero counts) when the table already has ≤1 file per
    /// partition.
    ///
    /// Readers are unaffected: old snapshots keep referencing the old files
    /// until [`Table::expire_snapshots`] removes them.
    pub fn compact(&self) -> Result<(Table, CompactionReport)> {
        let Some(current) = self.metadata().current_snapshot() else {
            return Ok((self.clone(), CompactionReport::default()));
        };
        let manifest = self.manifest(&current.manifest_path)?;
        // Group files by partition tuple.
        let mut partitions: HashSet<String> = HashSet::new();
        for e in &manifest.entries {
            partitions.insert(serde_json::to_string(&e.partition).unwrap_or_default());
        }
        if manifest.entries.len() <= partitions.len() {
            return Ok((self.clone(), CompactionReport::default()));
        }
        // Read everything through a normal scan (handles schema evolution)
        // and rewrite in one transaction; the partition spec re-splits rows.
        let batch = self.scan().execute()?;
        let mut tx = self.new_transaction(SnapshotOperation::Overwrite);
        if batch.num_rows() > 0 {
            tx.write(&batch)?;
        }
        let compacted = tx.commit_table()?;
        let new_manifest_path = compacted
            .metadata()
            .current_snapshot()
            .map(|s| s.manifest_path.clone())
            .ok_or_else(|| TableError::Corrupt("compaction produced no snapshot".into()))?;
        let files_written = compacted.manifest(&new_manifest_path)?.entries.len();
        Ok((
            compacted,
            CompactionReport {
                files_compacted: manifest.entries.len(),
                files_written,
                rows_rewritten: batch.num_rows() as u64,
            },
        ))
    }

    /// Drop all snapshots except the most recent `retain_last`, deleting
    /// what only they reach: their manifests, the data files no retained
    /// snapshot references, and the earlier metadata documents whose current
    /// snapshot is among them. Returns the updated table handle (new
    /// metadata document).
    ///
    /// The doomed set is computed once and every path deleted once; an
    /// object already gone (an earlier, interrupted expiry) is not an error.
    pub fn expire_snapshots(&self, retain_last: usize) -> Result<(Table, ExpirationReport)> {
        let retain_last = retain_last.max(1);
        let mut metadata = self.successor_metadata();
        if metadata.snapshots.len() <= retain_last {
            return Ok((self.clone(), ExpirationReport::default()));
        }
        let split = metadata.snapshots.len() - retain_last;
        let expired: Vec<_> = metadata.snapshots.drain(..split).collect();
        // Files referenced by retained snapshots must survive.
        let mut retained_files = HashSet::new();
        for snap in &metadata.snapshots {
            let manifest = self.manifest(&snap.manifest_path)?;
            retained_files.extend(manifest.entries.iter().map(|e| e.file_path.clone()));
        }
        let mut doomed_files = BTreeSet::new();
        let mut doomed_manifests = BTreeSet::new();
        for snap in &expired {
            let manifest = match self.manifest(&snap.manifest_path) {
                Ok(m) => m,
                Err(TableError::Store(StoreError::NotFound(_))) => continue,
                Err(e) => return Err(e),
            };
            let unreferenced = manifest.entries.iter().map(|e| &e.file_path);
            doomed_files.extend(
                unreferenced
                    .filter(|f| !retained_files.contains(*f))
                    .cloned(),
            );
            doomed_manifests.insert(snap.manifest_path.clone());
        }
        let retained_ids: HashSet<u64> = metadata.snapshots.iter().map(|s| s.snapshot_id).collect();
        let current_in_retained =
            |id: &Option<u64>| id.is_some_and(|id| retained_ids.contains(&id));
        let (kept, doomed_documents): (Vec<_>, Vec<_>) = std::mem::take(&mut metadata.metadata_log)
            .into_iter()
            .partition(|entry| current_in_retained(&entry.snapshot_id));
        metadata.metadata_log = kept;

        let data_files_deleted = self.delete_each(doomed_files)?;
        let manifests_deleted = self.delete_each(doomed_manifests)?;
        self.delete_each(doomed_documents.into_iter().map(|entry| entry.location))?;
        // Reparent: the oldest retained snapshot loses its expired parent.
        if let Some(first) = metadata.snapshots.first_mut() {
            if expired
                .iter()
                .any(|e| Some(e.snapshot_id) == first.parent_id)
            {
                first.parent_id = None;
            }
        }
        let table = Table::persist(Arc::clone(self.store()), metadata, self.io().clone())?;
        Ok((
            table,
            ExpirationReport {
                snapshots_expired: expired.len(),
                data_files_deleted,
                manifests_deleted,
            },
        ))
    }

    /// Delete every path, and forget its cached document; returns how many
    /// were still there to delete.
    fn delete_each(&self, paths: impl IntoIterator<Item = String>) -> Result<usize> {
        let mut deleted = 0;
        for path in paths {
            if let Some(cache) = &self.io().cache {
                cache.remove(&path);
            }
            match self.store().delete(&ObjectPath::new(path)?) {
                Ok(()) => deleted += 1,
                Err(StoreError::NotFound(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(deleted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionSpec;
    use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema};
    use lakehouse_store::{InMemoryStore, ObjectStore};
    use std::sync::Arc;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Utf8, false),
            Field::new("v", DataType::Int64, false),
        ])
    }

    fn batch(k: &str, vals: Vec<i64>) -> RecordBatch {
        RecordBatch::try_new(
            schema(),
            vec![
                Column::from_str_vec(vec![k.to_string(); vals.len()]),
                Column::from_i64(vals),
            ],
        )
        .unwrap()
    }

    fn table_with_appends(n: usize, spec: PartitionSpec) -> Table {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let mut t = Table::create(Arc::clone(&store), "wh/t", &schema(), spec).unwrap();
        for i in 0..n {
            let mut tx = t.new_transaction(SnapshotOperation::Append);
            tx.write(&batch(if i % 2 == 0 { "a" } else { "b" }, vec![i as i64]))
                .unwrap();
            let (loc, _) = tx.commit().unwrap();
            t = Table::load(Arc::clone(&store), &loc).unwrap();
        }
        t
    }

    #[test]
    fn compaction_merges_small_files() {
        let t = table_with_appends(6, PartitionSpec::unpartitioned());
        let before = t.scan().execute().unwrap();
        let (t2, report) = t.compact().unwrap();
        assert_eq!(report.files_compacted, 6);
        assert_eq!(report.files_written, 1);
        assert_eq!(report.rows_rewritten, 6);
        let after = t2.scan().execute().unwrap();
        assert_eq!(after.num_rows(), before.num_rows());
    }

    #[test]
    fn partitioned_compaction_keeps_partition_files() {
        let t = table_with_appends(6, PartitionSpec::identity("k"));
        let (t2, report) = t.compact().unwrap();
        assert_eq!(report.files_compacted, 6);
        assert_eq!(report.files_written, 2); // one per partition a/b
        assert_eq!(t2.scan().execute().unwrap().num_rows(), 6);
    }

    #[test]
    fn compaction_noop_when_already_compact() {
        let t = table_with_appends(1, PartitionSpec::unpartitioned());
        let (_, report) = t.compact().unwrap();
        assert_eq!(report.files_compacted, 0);
    }

    #[test]
    fn compaction_preserves_time_travel_until_expiry() {
        let t = table_with_appends(4, PartitionSpec::unpartitioned());
        let old_snapshot = t.metadata().current_snapshot().unwrap().snapshot_id;
        let (t2, _) = t.compact().unwrap();
        // Old snapshot still scannable post-compaction.
        let old = t2.scan().at_snapshot(old_snapshot).execute().unwrap();
        assert_eq!(old.num_rows(), 4);
    }

    #[test]
    fn expiration_deletes_unreferenced_files() {
        let t = table_with_appends(5, PartitionSpec::unpartitioned());
        let (t2, creport) = t.compact().unwrap();
        assert_eq!(creport.files_written, 1);
        let (t3, report) = t2.expire_snapshots(1).unwrap();
        assert_eq!(report.snapshots_expired, 5); // 5 appends (compaction kept)
        assert!(report.data_files_deleted >= 4);
        assert!(report.manifests_deleted >= 4);
        // Current data unaffected.
        assert_eq!(t3.scan().execute().unwrap().num_rows(), 5);
        // Expired snapshot no longer resolvable.
        assert!(t3.scan().at_snapshot(1).execute().is_err());
    }

    #[test]
    fn expiration_deletes_superseded_documents_and_tolerates_missing_objects() {
        let t = table_with_appends(3, PartitionSpec::unpartitioned());
        // create → 3 appends: the log names the three documents before this
        // one, each with the snapshot that was current in it.
        let log = &t.metadata().metadata_log;
        let logged: Vec<_> = log.iter().map(|e| e.snapshot_id).collect();
        assert_eq!(logged, vec![None, Some(1), Some(2)]);
        // An earlier, interrupted expiry already took one manifest.
        let gone = t.metadata().snapshots[0].manifest_path.clone();
        t.store().delete(&ObjectPath::new(gone).unwrap()).unwrap();
        let (t2, report) = t.expire_snapshots(1).unwrap();
        assert_eq!(report.snapshots_expired, 2);
        assert_eq!(report.manifests_deleted, 1, "the other was already gone");
        for entry in log {
            let path = ObjectPath::new(entry.location.clone()).unwrap();
            assert!(!t.store().exists(&path), "{} survived", entry.location);
        }
        // What the new document descends from and is still there: `t`.
        let kept: Vec<_> = t2.metadata().metadata_log.iter().collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].location, t.metadata_location());
        assert_eq!(t2.scan().execute().unwrap().num_rows(), 3);
    }

    #[test]
    fn expiration_noop_when_within_retention() {
        let t = table_with_appends(2, PartitionSpec::unpartitioned());
        let (_, report) = t.expire_snapshots(5).unwrap();
        assert_eq!(report.snapshots_expired, 0);
    }

    #[test]
    fn expiration_keeps_files_still_referenced() {
        // Append-only history: latest snapshot references ALL files, so
        // expiring old snapshots must delete manifests but no data files.
        let t = table_with_appends(4, PartitionSpec::unpartitioned());
        let (t2, report) = t.expire_snapshots(1).unwrap();
        assert_eq!(report.snapshots_expired, 3);
        assert_eq!(report.data_files_deleted, 0);
        assert_eq!(t2.scan().execute().unwrap().num_rows(), 4);
    }
}
