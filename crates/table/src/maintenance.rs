//! Table maintenance: small-file compaction and snapshot expiration — the
//! background jobs every Iceberg deployment runs (and a natural extension of
//! the paper's platform once runs accumulate).

use crate::error::{Result, TableError};
use crate::manifest::{Manifest, ManifestEntry};
use crate::schema_def::ValueDef;
use crate::snapshot::{Snapshot, SnapshotOperation};
use crate::table::Table;
use lakehouse_store::{ObjectPath, StoreError};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Outcome of a compaction pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Files whose contents were rewritten: those of the partitions that
    /// held more than one. A partition's lone file is carried over as it is
    /// and not counted.
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

/// One value of a partition tuple as a map key: a float by its bits, so
/// every tuple equals itself.
#[derive(PartialEq, Eq, Hash)]
enum KeyPart<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(&'a str),
    Ts(i64),
    Date(i32),
}

fn partition_key<'a>(values: &'a [ValueDef]) -> Vec<KeyPart<'a>> {
    let part = |v: &'a ValueDef| match v {
        ValueDef::Null => KeyPart::Null,
        ValueDef::Bool(b) => KeyPart::Bool(*b),
        ValueDef::Int(i) => KeyPart::Int(*i),
        ValueDef::Float(f) => KeyPart::Float(f.to_bits()),
        ValueDef::Str(s) => KeyPart::Str(s),
        ValueDef::Ts(t) => KeyPart::Ts(*t),
        ValueDef::Date(d) => KeyPart::Date(*d),
    };
    values.iter().map(part).collect()
}

impl Table {
    fn manifest(&self, path: &str) -> Result<Arc<Manifest>> {
        Manifest::load(self.store(), self.io(), path)
    }

    /// Rewrite each partition that holds more than one data file into one
    /// file, committing an `Overwrite` snapshot. A partition with a single
    /// file keeps it (same entry, same path, not read); a fragmented one is
    /// streamed, file by file in manifest order, through a scan of its own
    /// files into one writer, so memory is one output file and about one
    /// input file. A file's leading row groups that the writer would cut
    /// from its rows unchanged are copied as verified bytes; the rest is
    /// decoded (schema evolution, constants and NULLs from stats as in any
    /// scan) and written. The new snapshot lists the files in the old
    /// order, a rewritten partition's file where its first old file was,
    /// under that partition's tuple. No-op (returns zero counts) when the
    /// table already has ≤1 file per partition.
    ///
    /// Readers are unaffected: old snapshots keep referencing the old files
    /// until [`Table::expire_snapshots`] removes them.
    pub fn compact(&self) -> Result<(Table, CompactionReport)> {
        let Some(current) = self.metadata().current_snapshot() else {
            return Ok((self.clone(), CompactionReport::default()));
        };
        let live = Manifest::load_live(self.store(), self.io(), &current.manifest_path)?;
        // Files by partition tuple, partitions in order of first appearance.
        let mut group_of = HashMap::new();
        let mut partitions: Vec<Vec<&ManifestEntry>> = Vec::new();
        for entry in live.iter().flat_map(|m| &m.entries) {
            let next = partitions.len();
            let group = *group_of
                .entry(partition_key(&entry.partition))
                .or_insert(next);
            if group == next {
                partitions.push(Vec::new());
            }
            partitions[group].push(entry);
        }
        if partitions.iter().all(|files| files.len() == 1) {
            return Ok((self.clone(), CompactionReport::default()));
        }
        let span = lakehouse_obs::span("compact");
        // In first-appearance order, each partition's file lands where its
        // first old file was.
        let mut tx = self.new_transaction(SnapshotOperation::Overwrite);
        let mut report = CompactionReport::default();
        for files in partitions {
            if let [only] = files[..] {
                tx.carry(only.clone());
                continue;
            }
            let owned = files.iter().map(|&e| e.clone()).collect();
            let mut stream = self.scan().restricted_to(owned).stream_all()?;
            let mut writer = tx.file_writer()?;
            while let Some(batch) = stream.pull_copying(&mut writer)? {
                writer.write_batch(&batch)?;
            }
            report.files_compacted += files.len();
            report.rows_rewritten += writer.num_rows();
            let copied = writer.copied();
            span.add_u64("groups_copied", copied.groups as u64);
            span.add_u64("rows_copied", copied.rows);
            span.add_u64("bytes_copied", copied.bytes);
            if writer.num_rows() > 0 {
                tx.stage(files[0].partition.clone(), writer)?;
                report.files_written += 1;
            }
        }
        span.attr("rows_rewritten", report.rows_rewritten);
        Ok((tx.commit_table()?, report))
    }

    /// The manifests `snapshot` names: the root's refs and the root. A root
    /// already gone (an earlier, interrupted expiry) names itself alone.
    fn named_by(&self, snapshot: &Snapshot) -> Result<Vec<String>> {
        let root = match self.manifest(&snapshot.manifest_path) {
            Ok(root) => root,
            Err(TableError::Store(StoreError::NotFound(_))) => {
                return Ok(vec![snapshot.manifest_path.clone()])
            }
            Err(e) => return Err(e),
        };
        let mut named: Vec<String> = root.refs.iter().map(|r| r.path.clone()).collect();
        named.push(snapshot.manifest_path.clone());
        Ok(named)
    }

    /// Drop all snapshots except the most recent `retain_last`, deleting
    /// what only they reach: the manifests no retained snapshot names as
    /// its root or a ref, the data files no retained manifest lists, and the
    /// earlier metadata documents whose current snapshot is among them.
    /// Returns the updated table handle (new metadata document).
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
        // Manifests a retained snapshot names, and their files, survive.
        let mut live_manifests = HashSet::new();
        for snap in &metadata.snapshots {
            live_manifests.extend(self.named_by(snap)?);
        }
        let mut retained_files = HashSet::new();
        for path in &live_manifests {
            let manifest = self.manifest(path)?;
            retained_files.extend(manifest.entries.iter().map(|e| e.file_path.clone()));
        }
        let mut doomed_manifests = BTreeSet::new();
        for snap in &expired {
            let named = self.named_by(snap)?.into_iter();
            doomed_manifests.extend(named.filter(|m| !live_manifests.contains(m)));
        }
        let mut doomed_files = BTreeSet::new();
        for path in &doomed_manifests {
            let manifest = match self.manifest(path) {
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
        // create → 3 appends → compaction: the log names the four documents
        // before this one, each with the snapshot that was current in it.
        let (t, _) = table_with_appends(3, PartitionSpec::unpartitioned())
            .compact()
            .unwrap();
        let log = &t.metadata().metadata_log;
        let logged: Vec<_> = log.iter().map(|e| e.snapshot_id).collect();
        assert_eq!(logged, vec![None, Some(1), Some(2), Some(3)]);
        // An earlier, interrupted expiry already took one manifest.
        let gone = t.metadata().snapshots[0].manifest_path.clone();
        t.store().delete(&ObjectPath::new(gone).unwrap()).unwrap();
        let (t2, report) = t.expire_snapshots(1).unwrap();
        assert_eq!(report.snapshots_expired, 3);
        assert_eq!(report.manifests_deleted, 2, "the other was already gone");
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
    fn sequence_numbers_keep_rising_after_expiry() {
        let t = table_with_appends(5, PartitionSpec::unpartitioned());
        let (t, _) = t.expire_snapshots(1).unwrap();
        let mut tx = t.new_transaction(SnapshotOperation::Append);
        tx.write(&batch("a", vec![9])).unwrap();
        let t = tx.commit_table().unwrap();
        let snapshots = &t.metadata().snapshots;
        let (newest, earlier) = snapshots.split_last().unwrap();
        assert_eq!(newest.sequence_number, 6, "one past the five appends");
        assert!(earlier
            .iter()
            .all(|s| s.sequence_number < newest.sequence_number));
        // The document is named by it too.
        assert!(t.metadata_location().starts_with("wh/t/metadata/v00006-"));
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
