//! Write transactions: stage data files, then commit a new immutable
//! metadata document (snapshot isolation for writers).

use crate::cache::{data_path, manifest_path, TableIo};
use crate::error::{Result, TableError};
use crate::manifest::{Manifest, ManifestEntry, ManifestRef, StatsDef};
use crate::metadata::TableMetadata;
use crate::schema_def::ValueDef;
use crate::snapshot::{Snapshot, SnapshotOperation};
use crate::table::Table;
use lakehouse_columnar::kernels::take_batch;
use lakehouse_columnar::RecordBatch;
use lakehouse_format::FileWriter;
use lakehouse_store::{ObjectPath, ObjectStore};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What [`Transaction::write_batches`] staged: its data files' bytes and
/// their row groups, by whether each was copied as the chunks its rows were
/// decoded from ([`FileWriter::write_batch`]) or encoded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Written {
    pub bytes: u64,
    pub groups_copied: usize,
    pub groups_encoded: usize,
}

impl Written {
    fn add(&mut self, other: Written) {
        self.bytes += other.bytes;
        self.groups_copied += other.groups_copied;
        self.groups_encoded += other.groups_encoded;
    }
}

/// An in-flight write: accumulate batches, then [`Transaction::commit`].
///
/// The transaction writes data files eagerly (they are invisible until the
/// metadata commit) and builds manifest entries with file-level column stats.
pub struct Transaction {
    store: Arc<dyn ObjectStore>,
    metadata: TableMetadata,
    operation: SnapshotOperation,
    staged: Vec<ManifestEntry>,
    rows_added: u64,
    file_counter: u64,
    io: TableIo,
}

impl Transaction {
    pub(crate) fn new(
        store: Arc<dyn ObjectStore>,
        metadata: TableMetadata,
        operation: SnapshotOperation,
        io: TableIo,
    ) -> Transaction {
        Transaction {
            store,
            metadata,
            operation,
            staged: Vec::new(),
            rows_added: 0,
            file_counter: 0,
            io,
        }
    }

    /// A writer of one data file of the table's current schema, cut into
    /// row groups as the table's [`TableIo::writer_options`] say.
    pub(crate) fn file_writer(&self) -> Result<FileWriter> {
        let schema = self.metadata.current_schema()?;
        Ok(FileWriter::new(schema, self.io.writer_options.clone()))
    }

    /// Stage a batch: split by partition spec and write one data file per
    /// partition group.
    pub fn write(&mut self, batch: &RecordBatch) -> Result<()> {
        self.write_batches(std::slice::from_ref(batch)).map(|_| ())
    }

    /// Stage `batches` as their concatenation would be staged: one data
    /// file per partition group, each holding its rows in order, staged in
    /// the order the groups first appear. An unpartitioned table's one file
    /// is written from the batches as they are, none made. A partitioned
    /// table's groups are written one at a time, each file staged before
    /// the next group is gathered (a group that is the whole batch is not
    /// gathered), so one file's rows are held at a time. A batch that is
    /// exactly the decode of source chunks is written as those chunks where
    /// its file's writer takes them.
    pub fn write_batches(&mut self, batches: &[RecordBatch]) -> Result<Written> {
        let schema = self.metadata.current_schema()?;
        if let Some(other) = batches.iter().find(|b| b.schema() != &schema) {
            return Err(TableError::SchemaMismatch(format!(
                "batch schema {} != table schema {}",
                other.schema(),
                schema
            )));
        }
        if self.metadata.partition_spec.is_unpartitioned() {
            let mut writer = self.file_writer()?;
            for batch in batches {
                writer.write_batch(batch)?;
            }
            return self.stage(Vec::new(), writer);
        }
        let batch = RecordBatch::concat_all(&schema, batches.to_vec())?;
        let mut written = Written::default();
        for (partition, rows) in self.metadata.partition_spec.split(&batch)? {
            let mut writer = self.file_writer()?;
            match rows {
                None => writer.write_batch(&batch)?,
                Some(rows) => writer.write_batch(&take_batch(&batch, &rows)?)?,
            }
            written.add(self.stage(partition, writer)?);
        }
        Ok(written)
    }

    /// Stage the file `writer` holds, all of whose rows are in `partition`:
    /// finish it, name it by its footer, put it, and list it with its
    /// file-level column stats.
    pub(crate) fn stage(
        &mut self,
        partition: Vec<ValueDef>,
        writer: FileWriter,
    ) -> Result<Written> {
        let row_count = writer.num_rows();
        let (groups_copied, groups_encoded) = (writer.copied().groups, writer.groups_encoded());
        let (file_bytes, file_stats) = writer.finish()?;
        let schema = self.metadata.schema_def(self.metadata.current_schema_id)?;
        let column_stats: BTreeMap<String, StatsDef> = (schema.fields.iter())
            .zip(&file_stats)
            .map(|(field, stats)| (field.name.clone(), StatsDef::from_stats(stats)))
            .collect();
        let snapshot_id = self.metadata.next_snapshot_id();
        let file_path = data_path(
            &self.metadata.location,
            snapshot_id,
            self.file_counter,
            &file_bytes,
        )?;
        self.file_counter += 1;
        let file_size = file_bytes.len() as u64;
        self.store
            .put(&ObjectPath::new(file_path.clone())?, file_bytes)?;
        self.rows_added += row_count;
        self.staged.push(ManifestEntry {
            file_path,
            row_count,
            file_size,
            partition,
            column_stats,
            schema_id: self.metadata.current_schema_id,
        });
        Ok(Written {
            bytes: file_size,
            groups_copied,
            groups_encoded,
        })
    }

    /// Stage a file of the parent snapshot as it is: listed in the new
    /// manifest, not read or written (compaction's untouched partitions).
    pub(crate) fn carry(&mut self, entry: ManifestEntry) {
        self.staged.push(entry);
    }

    /// Commit: write the manifest and a new metadata document; returns the
    /// new metadata location and the updated metadata.
    pub fn commit(self) -> Result<(String, TableMetadata)> {
        let (location, metadata) = self.commit_table()?.into_parts();
        Ok((location, Arc::unwrap_or_clone(metadata)))
    }

    /// [`Transaction::commit`], returning the handle to the new version.
    ///
    /// The new root lists only the staged files. An append names the
    /// parent's live manifests in its refs — the parent root's refs, then
    /// the parent root itself if it has files of its own — so it loads the
    /// parent root alone and writes O(what it staged); an overwrite has no
    /// refs.
    pub fn commit_table(mut self) -> Result<Table> {
        let parent = self.metadata.current_snapshot().cloned();
        let snapshot_id = self.metadata.next_snapshot_id();
        let mut manifest = Manifest {
            refs: Vec::new(),
            entries: std::mem::take(&mut self.staged),
        };
        let mut total_rows = manifest.total_rows();
        if let (SnapshotOperation::Append, Some(parent)) = (self.operation, &parent) {
            let root = Manifest::load(&self.store, &self.io, &parent.manifest_path)?;
            manifest.refs = root.refs.clone();
            if !root.entries.is_empty() {
                let fields = self.metadata.partition_spec.fields.len();
                let own = ManifestRef::summarize(&parent.manifest_path, &root, fields);
                manifest.refs.push(own);
            }
            total_rows += parent.total_rows;
        }
        let bytes = manifest.to_bytes()?;
        let manifest_path = manifest_path(&self.metadata.location, snapshot_id, &bytes);
        self.io
            .persist(&*self.store, &manifest_path, bytes, manifest)?;
        let snapshot = Snapshot {
            snapshot_id,
            parent_id: parent.as_ref().map(|p| p.snapshot_id),
            sequence_number: self.metadata.next_sequence_number(),
            operation: self.operation,
            manifest_path,
            added_rows: self.rows_added,
            total_rows,
        };
        self.metadata.snapshots.push(snapshot);
        self.metadata.current_snapshot_id = Some(snapshot_id);
        Table::persist(self.store, self.metadata, self.io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionSpec;
    use crate::table::Table;
    use lakehouse_columnar::{Column, DataType, Field, Schema};
    use lakehouse_store::InMemoryStore;

    fn store() -> Arc<dyn ObjectStore> {
        Arc::new(InMemoryStore::new())
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("zone", DataType::Utf8, false),
        ])
    }

    fn batch(ids: Vec<i64>, zones: Vec<&str>) -> RecordBatch {
        RecordBatch::try_new(
            schema(),
            vec![Column::from_i64(ids), Column::from_strs(zones)],
        )
        .unwrap()
    }

    /// Writing batches stages the data files writing their concatenation
    /// stages — the same names, so the same bytes — unpartitioned and
    /// partitioned.
    #[test]
    fn batches_are_staged_as_their_concatenation() {
        let ids: Vec<i64> = (0..1_000).collect();
        let zones: Vec<&str> = ids
            .iter()
            .map(|i| ["a", "b", "c"][*i as usize % 3])
            .collect();
        let whole = batch(ids, zones);
        let pieces: Vec<RecordBatch> = [0, 1, 333, 640, 999]
            .windows(2)
            .map(|w| whole.slice(w[0], w[1] - w[0]).unwrap())
            .chain([whole.slice(999, 1).unwrap()])
            .collect();
        for spec in [
            PartitionSpec::unpartitioned(),
            PartitionSpec::identity("zone"),
        ] {
            let staged = |batches: &[RecordBatch]| {
                let table = Table::create(store(), "wh/t", &schema(), spec.clone()).unwrap();
                let mut tx = table.new_transaction(SnapshotOperation::Append);
                tx.write_batches(batches).unwrap();
                let files = tx.staged.iter().map(|e| (e.file_path.clone(), e.row_count));
                files.collect::<Vec<_>>()
            };
            let want = staged(std::slice::from_ref(&whole));
            assert_eq!(want.len(), if spec.is_unpartitioned() { 1 } else { 3 });
            assert_eq!(staged(&pieces), want, "{spec:?}");
        }
    }

    #[test]
    fn append_accumulates_files() {
        let store = store();
        let table = Table::create(
            Arc::clone(&store),
            "wh/t",
            &schema(),
            PartitionSpec::unpartitioned(),
        )
        .unwrap();
        let mut tx = table.new_transaction(SnapshotOperation::Append);
        tx.write(&batch(vec![1, 2], vec!["a", "b"])).unwrap();
        let (loc1, meta1) = tx.commit().unwrap();
        assert_eq!(meta1.current_snapshot().unwrap().total_rows, 2);

        let table = Table::load(Arc::clone(&store), &loc1).unwrap();
        let mut tx = table.new_transaction(SnapshotOperation::Append);
        tx.write(&batch(vec![3], vec!["c"])).unwrap();
        let (_, meta2) = tx.commit().unwrap();
        let snap = meta2.current_snapshot().unwrap();
        assert_eq!(snap.total_rows, 3);
        assert_eq!(snap.added_rows, 1);
        assert_eq!(snap.parent_id, Some(1));
    }

    #[test]
    fn overwrite_replaces_files() {
        let store = store();
        let table = Table::create(
            Arc::clone(&store),
            "wh/t",
            &schema(),
            PartitionSpec::unpartitioned(),
        )
        .unwrap();
        let mut tx = table.new_transaction(SnapshotOperation::Append);
        tx.write(&batch(vec![1, 2, 3], vec!["a", "b", "c"]))
            .unwrap();
        let (loc, _) = tx.commit().unwrap();

        let table = Table::load(Arc::clone(&store), &loc).unwrap();
        let mut tx = table.new_transaction(SnapshotOperation::Overwrite);
        tx.write(&batch(vec![9], vec!["z"])).unwrap();
        let (_, meta) = tx.commit().unwrap();
        assert_eq!(meta.current_snapshot().unwrap().total_rows, 1);
    }

    #[test]
    fn partitioned_write_splits_files() {
        let store = store();
        let table = Table::create(
            Arc::clone(&store),
            "wh/t",
            &schema(),
            PartitionSpec::identity("zone"),
        )
        .unwrap();
        let mut tx = table.new_transaction(SnapshotOperation::Append);
        tx.write(&batch(vec![1, 2, 3, 4], vec!["a", "b", "a", "b"]))
            .unwrap();
        let (loc, meta) = tx.commit().unwrap();
        let manifest_bytes = store
            .get(&ObjectPath::new(meta.current_snapshot().unwrap().manifest_path.clone()).unwrap())
            .unwrap();
        let manifest = Manifest::from_bytes(&manifest_bytes).unwrap();
        assert_eq!(manifest.entries.len(), 2);
        assert!(manifest.entries.iter().all(|e| e.row_count == 2));
        let _ = loc;
    }

    fn root_of(table: &Table) -> Manifest {
        let path = &table.metadata().current_snapshot().unwrap().manifest_path;
        let bytes = table.store().get(&ObjectPath::new(path.clone()).unwrap());
        Manifest::from_bytes(&bytes.unwrap()).unwrap()
    }

    #[test]
    fn an_append_writes_only_its_own_entries() {
        let store = store();
        let mut table = Table::create(
            Arc::clone(&store),
            "wh/t",
            &schema(),
            PartitionSpec::identity("zone"),
        )
        .unwrap();
        let zones = ["a", "b", "c"];
        for k in 0..20i64 {
            let mut tx = table.new_transaction(SnapshotOperation::Append);
            tx.write(&batch(vec![k], vec![zones[k as usize % 3]]))
                .unwrap();
            table = tx.commit_table().unwrap();
            // The k-th root lists its one file, whatever the table holds,
            // and names every earlier root in order.
            let root = root_of(&table);
            assert_eq!(root.entries.len(), 1, "append {k}");
            assert!(root.entries[0]
                .file_path
                .contains(&format!("/data/snap{}-", k + 1)));
            let named: Vec<_> = root.refs.iter().map(|r| r.path.as_str()).collect();
            let earlier: Vec<_> = table.metadata().snapshots[..k as usize]
                .iter()
                .map(|s| s.manifest_path.as_str())
                .collect();
            assert_eq!(named, earlier);
            assert!(root
                .refs
                .iter()
                .all(|r| r.file_count == 1 && r.row_count == 1));
            assert_eq!(
                table.metadata().current_snapshot().unwrap().total_rows,
                k as u64 + 1
            );
        }
        // Every row, in append order.
        let ids = table.scan().select(&["id"]).execute().unwrap();
        assert_eq!(ids.column(0), &Column::from_i64((0..20).collect()));
    }

    #[test]
    fn a_manifest_without_refs_loads_scans_and_takes_an_append() {
        let store = store();
        let table = Table::create(
            Arc::clone(&store),
            "wh/t",
            &schema(),
            PartitionSpec::identity("zone"),
        )
        .unwrap();
        let mut tx = table.new_transaction(SnapshotOperation::Append);
        tx.write(&batch(vec![1, 2, 3, 4], vec!["a", "b", "a", "c"]))
            .unwrap();
        let (location, _) = tx.commit().unwrap();
        // Three files in one flat manifest with no `refs` key: the document
        // manifests were before they had refs, byte for byte.
        let old = Table::load(Arc::clone(&store), &location).unwrap();
        let path = old
            .metadata()
            .current_snapshot()
            .unwrap()
            .manifest_path
            .clone();
        let bytes = store.get(&ObjectPath::new(path.clone()).unwrap()).unwrap();
        assert!(!String::from_utf8_lossy(&bytes).contains("refs"));
        assert_eq!(root_of(&old).entries.len(), 3);
        let ids = |t: &Table| t.scan().select(&["id"]).execute().unwrap();
        assert_eq!(ids(&old).column(0), &Column::from_i64(vec![1, 3, 2, 4]));
        // An append names it, whole, and reads after it.
        let mut tx = old.new_transaction(SnapshotOperation::Append);
        tx.write(&batch(vec![5], vec!["a"])).unwrap();
        let (location, _) = tx.commit().unwrap();
        let appended = Table::load(Arc::clone(&store), &location).unwrap();
        let root = root_of(&appended);
        assert_eq!(root.refs.len(), 1);
        assert_eq!(
            (root.refs[0].path.clone(), root.refs[0].file_count),
            (path, 3)
        );
        assert_eq!(
            ids(&appended).column(0),
            &Column::from_i64(vec![1, 3, 2, 4, 5])
        );
        let snapshot = appended.metadata().current_snapshot().unwrap();
        assert_eq!(snapshot.total_rows, 5);
    }

    #[test]
    fn wrong_schema_rejected() {
        let store = store();
        let table = Table::create(
            Arc::clone(&store),
            "wh/t",
            &schema(),
            PartitionSpec::unpartitioned(),
        )
        .unwrap();
        let mut tx = table.new_transaction(SnapshotOperation::Append);
        let wrong = RecordBatch::try_new(
            Schema::new(vec![Field::new("x", DataType::Float64, true)]),
            vec![Column::from_f64(vec![1.0])],
        )
        .unwrap();
        assert!(tx.write(&wrong).is_err());
    }

    #[test]
    fn uncommitted_transaction_invisible() {
        let store = store();
        let table = Table::create(
            Arc::clone(&store),
            "wh/t",
            &schema(),
            PartitionSpec::unpartitioned(),
        )
        .unwrap();
        let mut tx = table.new_transaction(SnapshotOperation::Append);
        tx.write(&batch(vec![1], vec!["a"])).unwrap();
        drop(tx); // never committed
                  // Table still empty at its metadata location.
        let reloaded = Table::load(store, table.metadata_location()).unwrap();
        assert!(reloaded.metadata().current_snapshot().is_none());
    }

    #[test]
    fn empty_commit_creates_empty_snapshot() {
        let store = store();
        let table = Table::create(
            Arc::clone(&store),
            "wh/t",
            &schema(),
            PartitionSpec::unpartitioned(),
        )
        .unwrap();
        let tx = table.new_transaction(SnapshotOperation::Append);
        let (_, meta) = tx.commit().unwrap();
        let snap = meta.current_snapshot().unwrap();
        assert_eq!(snap.total_rows, 0);
        assert_eq!(snap.added_rows, 0);
    }
}
