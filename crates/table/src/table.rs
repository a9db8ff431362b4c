//! The table handle: create, load, evolve, write, scan.

use crate::cache::{metadata_path, TableIo};
use crate::error::Result;
use crate::metadata::{MetadataLogEntry, TableMetadata};
use crate::partition::PartitionSpec;
use crate::scan::TableScan;
use crate::snapshot::SnapshotOperation;
use crate::transaction::Transaction;
use lakehouse_columnar::{Field, Schema};
use lakehouse_store::ObjectStore;
use std::sync::Arc;

/// A handle to one version of a table (the version at `metadata_location`).
///
/// Handles are cheap snapshots-of-metadata: loading a table never blocks
/// writers, and a handle keeps reading the same version even while new
/// commits land (snapshot isolation for readers).
#[derive(Clone)]
pub struct Table {
    store: Arc<dyn ObjectStore>,
    metadata: Arc<TableMetadata>,
    metadata_location: String,
    io: TableIo,
}

impl Table {
    /// Create a new empty table rooted at `location` and persist its first
    /// metadata document.
    pub fn create(
        store: Arc<dyn ObjectStore>,
        location: &str,
        schema: &Schema,
        partition_spec: PartitionSpec,
    ) -> Result<Table> {
        Self::create_with(store, location, schema, partition_spec, TableIo::default())
    }

    /// [`Table::create`], reading and writing through `io` from then on.
    pub fn create_with(
        store: Arc<dyn ObjectStore>,
        location: &str,
        schema: &Schema,
        partition_spec: PartitionSpec,
        io: TableIo,
    ) -> Result<Table> {
        let metadata = Self::new_metadata(location, schema, partition_spec)?;
        Self::persist(store, metadata, io)
    }

    /// The append that creates a table at `location`: its commit writes the
    /// table's first metadata document, holding the snapshot it staged —
    /// one document, where [`Table::create_with`] and an append write an
    /// empty one and then its successor.
    pub fn create_transaction(
        store: Arc<dyn ObjectStore>,
        location: &str,
        schema: &Schema,
        partition_spec: PartitionSpec,
        io: TableIo,
    ) -> Result<Transaction> {
        let metadata = Self::new_metadata(location, schema, partition_spec)?;
        Ok(Transaction::new(
            store,
            metadata,
            SnapshotOperation::Append,
            io,
        ))
    }

    /// The metadata of a new, empty table at `location`.
    fn new_metadata(
        location: &str,
        schema: &Schema,
        partition_spec: PartitionSpec,
    ) -> Result<TableMetadata> {
        // Deterministic uuid: tables are identified by location + a hash of
        // their initial schema (no wall-clock or RNG, per the platform's
        // reproducibility invariant).
        let uuid = {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in location.bytes().chain(format!("{schema}").bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            format!("{h:016x}")
        };
        TableMetadata::new(uuid, location, schema, partition_spec)
    }

    /// Load a table from a metadata document location.
    pub fn load(store: Arc<dyn ObjectStore>, metadata_location: &str) -> Result<Table> {
        Self::load_with(store, metadata_location, TableIo::default())
    }

    /// [`Table::load`] through `io`: the document comes from its cache when
    /// this process has read or written it before, and scans and commits of
    /// the handle use the same cache and workers.
    pub fn load_with(
        store: Arc<dyn ObjectStore>,
        metadata_location: &str,
        io: TableIo,
    ) -> Result<Table> {
        let metadata = io.load(&*store, metadata_location, TableMetadata::from_bytes)?;
        Ok(Table {
            store,
            metadata,
            metadata_location: metadata_location.to_string(),
            io,
        })
    }

    /// Write `metadata` as a new, uniquely named document and return the
    /// handle to it.
    pub(crate) fn persist(
        store: Arc<dyn ObjectStore>,
        metadata: TableMetadata,
        io: TableIo,
    ) -> Result<Table> {
        let bytes = metadata.to_bytes()?;
        let seq = metadata.current_snapshot().map_or(0, |s| s.sequence_number);
        let metadata_location = metadata_path(&metadata.location, seq, &bytes);
        let metadata = io.persist(&*store, &metadata_location, bytes, metadata)?;
        Ok(Table {
            store,
            metadata,
            metadata_location,
            io,
        })
    }

    /// A copy of this version's metadata to derive the next document from:
    /// this document joins its log.
    pub(crate) fn successor_metadata(&self) -> TableMetadata {
        let mut metadata = (*self.metadata).clone();
        metadata.metadata_log.push(MetadataLogEntry {
            location: self.metadata_location.clone(),
            snapshot_id: self.metadata.current_snapshot_id,
        });
        metadata
    }

    pub(crate) fn into_parts(self) -> (String, Arc<TableMetadata>) {
        (self.metadata_location, self.metadata)
    }

    pub fn metadata(&self) -> &TableMetadata {
        &self.metadata
    }

    pub fn metadata_location(&self) -> &str {
        &self.metadata_location
    }

    /// The current columnar schema.
    pub fn schema(&self) -> Result<Schema> {
        self.metadata.current_schema()
    }

    pub fn store(&self) -> &Arc<dyn ObjectStore> {
        &self.store
    }

    pub(crate) fn io(&self) -> &TableIo {
        &self.io
    }

    /// Begin a write transaction.
    pub fn new_transaction(&self, operation: SnapshotOperation) -> Transaction {
        Transaction::new(
            Arc::clone(&self.store),
            self.successor_metadata(),
            operation,
            self.io.clone(),
        )
    }

    /// Begin a scan of the current snapshot.
    pub fn scan(&self) -> TableScan {
        TableScan::new(
            Arc::clone(&self.store),
            Arc::clone(&self.metadata),
            self.io.clone(),
        )
    }

    /// Add nullable columns; persists a new metadata document and returns the
    /// updated handle.
    pub fn add_columns(&self, fields: &[Field]) -> Result<Table> {
        let mut metadata = self.successor_metadata();
        metadata.add_columns(fields)?;
        Self::persist(Arc::clone(&self.store), metadata, self.io.clone())
    }

    /// Rename a column; persists a new metadata document.
    pub fn rename_column(&self, old: &str, new: &str) -> Result<Table> {
        let mut metadata = self.successor_metadata();
        metadata.rename_column(old, new)?;
        Self::persist(Arc::clone(&self.store), metadata, self.io.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_columnar::{Column, DataType, RecordBatch, Value};
    use lakehouse_store::InMemoryStore;

    fn schema() -> Schema {
        Schema::new(vec![Field::new("id", DataType::Int64, false)])
    }

    #[test]
    fn create_then_load() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let t = Table::create(
            Arc::clone(&store),
            "wh/t1",
            &schema(),
            PartitionSpec::unpartitioned(),
        )
        .unwrap();
        let loaded = Table::load(store, t.metadata_location()).unwrap();
        assert_eq!(loaded.metadata().table_uuid, t.metadata().table_uuid);
        assert_eq!(loaded.schema().unwrap(), schema());
    }

    #[test]
    fn deterministic_uuid() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let a = Table::create(
            Arc::clone(&store),
            "wh/a",
            &schema(),
            PartitionSpec::unpartitioned(),
        )
        .unwrap();
        let store2: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let b = Table::create(store2, "wh/a", &schema(), PartitionSpec::unpartitioned()).unwrap();
        assert_eq!(a.metadata().table_uuid, b.metadata().table_uuid);
    }

    #[test]
    fn schema_evolution_add_then_scan_old_files() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let t = Table::create(
            Arc::clone(&store),
            "wh/t",
            &schema(),
            PartitionSpec::unpartitioned(),
        )
        .unwrap();
        // Write a file with the v0 schema.
        let mut tx = t.new_transaction(SnapshotOperation::Append);
        tx.write(&RecordBatch::try_new(schema(), vec![Column::from_i64(vec![1, 2])]).unwrap())
            .unwrap();
        let (loc, _) = tx.commit().unwrap();
        // Evolve: add a nullable column.
        let t = Table::load(Arc::clone(&store), &loc).unwrap();
        let t = t
            .add_columns(&[Field::new("note", DataType::Utf8, true)])
            .unwrap();
        // Old file scans with nulls in the new column.
        let batch = t.scan().execute().unwrap();
        assert_eq!(batch.num_rows(), 2);
        assert_eq!(batch.schema().names(), vec!["id", "note"]);
        assert_eq!(batch.row(0).unwrap()[1], Value::Null);
    }

    #[test]
    fn rename_then_scan_maps_by_position() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let t = Table::create(
            Arc::clone(&store),
            "wh/t",
            &schema(),
            PartitionSpec::unpartitioned(),
        )
        .unwrap();
        let mut tx = t.new_transaction(SnapshotOperation::Append);
        tx.write(&RecordBatch::try_new(schema(), vec![Column::from_i64(vec![7])]).unwrap())
            .unwrap();
        let (loc, _) = tx.commit().unwrap();
        let t = Table::load(Arc::clone(&store), &loc)
            .unwrap()
            .rename_column("id", "trip_id")
            .unwrap();
        let batch = t.scan().execute().unwrap();
        assert_eq!(batch.schema().names(), vec!["trip_id"]);
        assert_eq!(batch.row(0).unwrap()[0], Value::Int64(7));
    }
}
