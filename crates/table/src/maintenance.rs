//! Table maintenance: small-file compaction and snapshot expiration — the
//! background jobs every Iceberg deployment runs (and a natural extension of
//! the paper's platform once runs accumulate).

use crate::error::{Result, TableError};
use crate::manifest::{Manifest, ManifestEntry};
use crate::schema_def::ValueDef;
use crate::snapshot::SnapshotOperation;
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

/// Outcome of snapshot expiration: the snapshots the expire dropped from
/// the table's metadata, and the objects the [`sweep`] after its commit
/// deleted, by kind (one already gone is not counted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpirationReport {
    pub snapshots_expired: usize,
    pub data_files_deleted: usize,
    pub manifests_deleted: usize,
    pub documents_deleted: usize,
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
    /// until [`Table::expire_snapshots`] drops them and a [`sweep`] deletes
    /// what no named version still reaches.
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

    /// Drop all snapshots except the most recent `retain_last`, and the
    /// metadata-log entries of the documents whose current snapshot went
    /// with them; reparent the oldest kept snapshot and persist. Returns the
    /// new handle and how many snapshots went. Deletes nothing: once the new
    /// version is committed, [`sweep`] deletes what no named version still
    /// reaches.
    pub fn expire_snapshots(&self, retain_last: usize) -> Result<(Table, usize)> {
        let split = self
            .metadata()
            .snapshots
            .len()
            .saturating_sub(retain_last.max(1));
        if split == 0 {
            return Ok((self.clone(), 0));
        }
        let mut metadata = self.successor_metadata();
        metadata.snapshots.drain(..split);
        let kept: HashSet<u64> = metadata.snapshots.iter().map(|s| s.snapshot_id).collect();
        let is_kept = |id: &u64| kept.contains(id);
        (metadata.metadata_log).retain(|entry| entry.snapshot_id.as_ref().is_some_and(is_kept));
        // Reparent: the oldest kept snapshot loses its expired parent.
        let oldest = &mut metadata.snapshots[0];
        oldest.parent_id = oldest.parent_id.filter(is_kept);
        let table = Table::persist(Arc::clone(self.store()), metadata, self.io().clone())?;
        Ok((table, split))
    }
}

/// The objects some table versions reach, by kind.
#[derive(Default)]
struct Reach {
    data_files: BTreeSet<String>,
    manifests: BTreeSet<String>,
    documents: BTreeSet<String>,
}

impl Reach {
    /// Add what `table` reaches: its metadata document and the documents
    /// its metadata log names (leaves: never read), each snapshot's root
    /// manifest and the manifests the root names as refs, and the data
    /// files those manifests list. A manifest already gone (another sweep
    /// got there first) is a leaf.
    fn add(&mut self, table: &Table) -> Result<()> {
        let load = |path: &str| match Manifest::load(table.store(), table.io(), path) {
            Err(TableError::Store(StoreError::NotFound(_))) => Ok(None),
            loaded => loaded.map(Some),
        };
        let metadata = table.metadata();
        self.documents.insert(table.metadata_location().to_string());
        let log = metadata.metadata_log.iter().map(|e| e.location.clone());
        self.documents.extend(log);
        for snapshot in &metadata.snapshots {
            let root = load(&snapshot.manifest_path)?;
            let refs = root.iter().flat_map(|root| &root.refs);
            let named = refs.map(|r| r.path.clone());
            for path in named.chain([snapshot.manifest_path.clone()]) {
                if !self.manifests.insert(path.clone()) {
                    continue;
                }
                if let Some(manifest) = load(&path)? {
                    let files = manifest.entries.iter().map(|e| e.file_path.clone());
                    self.data_files.extend(files);
                }
            }
        }
        Ok(())
    }
}

/// Delete what `dead` reaches and no named version of its table does
/// (DESIGN.md §36): data files first, then manifests, then metadata
/// documents. `named` must hold the metadata location of every table
/// version a ref or a tag names, read from a ref document no older than the
/// commit that stopped naming `dead`; those at `dead`'s location are kept
/// whole. Each path is deleted once and evicted from the object cache, and
/// one already gone is not an error. The report's `snapshots_expired` is
/// the expire's to fill.
pub fn sweep<'a>(
    dead: &Table,
    named: impl IntoIterator<Item = &'a str>,
) -> Result<ExpirationReport> {
    let (mut doomed, mut kept) = (Reach::default(), Reach::default());
    doomed.add(dead)?;
    let documents = format!("{}/metadata/", dead.metadata().location);
    for location in named.into_iter().filter(|l| l.starts_with(&documents)) {
        match Table::load_with(Arc::clone(dead.store()), location, dead.io().clone()) {
            Ok(live) => kept.add(&live)?,
            // A ref made from catalog history after an earlier sweep: its
            // version reads nothing, so it keeps nothing.
            Err(TableError::Store(StoreError::NotFound(_))) => {}
            Err(e) => return Err(e),
        }
    }
    let delete = |doomed: &BTreeSet<String>, kept: &BTreeSet<String>| -> Result<usize> {
        let mut deleted = 0;
        for path in doomed.difference(kept) {
            if let Some(cache) = &dead.io().cache {
                cache.remove(path);
            }
            match dead.store().delete(&ObjectPath::new(path.clone())?) {
                Ok(()) => deleted += 1,
                Err(StoreError::NotFound(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(deleted)
    };
    Ok(ExpirationReport {
        snapshots_expired: 0,
        data_files_deleted: delete(&doomed.data_files, &kept.data_files)?,
        manifests_deleted: delete(&doomed.manifests, &kept.manifests)?,
        documents_deleted: delete(&doomed.documents, &kept.documents)?,
    })
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
        let (t3, expired) = t2.expire_snapshots(1).unwrap();
        // 5 appends (compaction kept).
        assert_eq!(expired, 5);
        // Still named (say by a tag), the pruned version loses nothing.
        let kept = sweep(&t2, [t3.metadata_location(), t2.metadata_location()]).unwrap();
        assert_eq!(kept, ExpirationReport::default());
        let report = sweep(&t2, [t3.metadata_location()]).unwrap();
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
        let (t2, expired) = t.expire_snapshots(1).unwrap();
        assert_eq!(expired, 3);
        let report = sweep(&t, [t2.metadata_location()]).unwrap();
        assert_eq!(report.manifests_deleted, 2, "the other was already gone");
        assert_eq!(report.documents_deleted, 4);
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
        let (_, expired) = t.expire_snapshots(5).unwrap();
        assert_eq!(expired, 0);
    }

    #[test]
    fn expiration_keeps_files_still_referenced() {
        // Append-only history: latest snapshot references ALL files, so
        // expiring old snapshots must delete manifests but no data files.
        let t = table_with_appends(4, PartitionSpec::unpartitioned());
        let (t2, expired) = t.expire_snapshots(1).unwrap();
        assert_eq!(expired, 3);
        let report = sweep(&t, [t2.metadata_location()]).unwrap();
        assert_eq!(report.data_files_deleted, 0);
        assert_eq!(t2.scan().execute().unwrap().num_rows(), 4);
    }
}
