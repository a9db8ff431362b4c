//! Write transactions: stage data files, then commit a new immutable
//! metadata document (snapshot isolation for writers).

use crate::cache::{data_path, manifest_path, TableIo};
use crate::error::{Result, TableError};
use crate::manifest::{Manifest, ManifestEntry, StatsDef};
use crate::metadata::TableMetadata;
use crate::snapshot::{Snapshot, SnapshotOperation};
use crate::table::Table;
use lakehouse_columnar::kernels::take_batch;
use lakehouse_columnar::RecordBatch;
use lakehouse_format::{FileWriter, WriterOptions};
use lakehouse_store::{ObjectPath, ObjectStore};
use std::collections::BTreeMap;
use std::sync::Arc;

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
    writer_options: WriterOptions,
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
            writer_options: WriterOptions::default(),
            io,
        }
    }

    /// Override the writer's row-group size.
    pub fn with_writer_options(mut self, options: WriterOptions) -> Transaction {
        self.writer_options = options;
        self
    }

    /// Stage a batch: split by partition spec and write one data file per
    /// partition group.
    pub fn write(&mut self, batch: &RecordBatch) -> Result<()> {
        let schema = self.metadata.current_schema()?;
        if batch.schema() != &schema {
            return Err(TableError::SchemaMismatch(format!(
                "batch schema {} != table schema {}",
                batch.schema(),
                schema
            )));
        }
        let snapshot_id = self.metadata.next_snapshot_id();
        for (partition, rows) in self.metadata.partition_spec.split(batch)? {
            // A group that is the whole batch (every unpartitioned table, a
            // single-partition append) is written by reference, not gathered.
            let gathered;
            let part_batch = if rows.len() == batch.num_rows() {
                batch
            } else {
                gathered = take_batch(batch, &rows)?;
                &gathered
            };
            let mut writer = FileWriter::new(schema.clone(), self.writer_options.clone());
            writer.write_batch(part_batch)?;
            let (file_bytes, file_stats) = writer.finish()?;
            let column_stats: BTreeMap<String, StatsDef> = schema
                .fields()
                .iter()
                .zip(&file_stats)
                .map(|(field, stats)| (field.name().to_string(), StatsDef::from_stats(stats)))
                .collect();
            let file_path = data_path(
                &self.metadata.location,
                snapshot_id,
                self.file_counter,
                &file_bytes,
            )?;
            self.file_counter += 1;
            self.store
                .put(&ObjectPath::new(file_path.clone())?, file_bytes.clone())?;
            self.rows_added += part_batch.num_rows() as u64;
            self.staged.push(ManifestEntry {
                file_path,
                row_count: part_batch.num_rows() as u64,
                file_size: file_bytes.len() as u64,
                partition,
                column_stats,
                schema_id: self.metadata.current_schema_id,
            });
        }
        Ok(())
    }

    /// Commit: write the manifest and a new metadata document; returns the
    /// new metadata location and the updated metadata.
    pub fn commit(self) -> Result<(String, TableMetadata)> {
        let (location, metadata) = self.commit_table()?.into_parts();
        Ok((location, Arc::unwrap_or_clone(metadata)))
    }

    /// [`Transaction::commit`], returning the handle to the new version.
    pub(crate) fn commit_table(mut self) -> Result<Table> {
        let parent = self.metadata.current_snapshot().cloned();
        let snapshot_id = self.metadata.next_snapshot_id();
        // Assemble the manifest: append keeps parent files, overwrite
        // starts fresh.
        let mut entries = Vec::new();
        if self.operation == SnapshotOperation::Append {
            if let Some(parent) = &parent {
                let parent_manifest = Manifest::load(&self.store, &self.io, &parent.manifest_path)?;
                // Moved when this commit holds the only handle (no cache),
                // copied out of the shared one otherwise.
                entries = Arc::unwrap_or_clone(parent_manifest).entries;
            }
        }
        entries.append(&mut self.staged);
        let manifest = Manifest { entries };
        let total_rows = manifest.total_rows();
        let bytes = manifest.to_bytes();
        let manifest_path = manifest_path(&self.metadata.location, snapshot_id, &bytes);
        self.io
            .persist(&*self.store, &manifest_path, bytes, manifest)?;
        let snapshot = Snapshot {
            snapshot_id,
            parent_id: parent.as_ref().map(|p| p.snapshot_id),
            sequence_number: self.metadata.snapshots.len() as u64 + 1,
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
