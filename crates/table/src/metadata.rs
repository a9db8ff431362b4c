//! The table-metadata document: the root of the metadata tree. A new
//! immutable document is written on every commit; the catalog points table
//! keys at metadata locations.

use crate::error::{Result, TableError};
use crate::partition::PartitionSpec;
use crate::schema_def::SchemaDef;
use crate::snapshot::Snapshot;
use lakehouse_columnar::{Field, Schema};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An earlier metadata document of the table, and the snapshot that was
/// current in it (Iceberg's metadata log). With write-once document names
/// nothing overwrites a superseded document, so the log is how the sweep
/// after a snapshot expiry finds the ones to delete.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetadataLogEntry {
    pub location: String,
    pub snapshot_id: Option<u64>,
}

/// Everything needed to read (any version of) a table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableMetadata {
    /// Stable table identity across renames and commits.
    pub table_uuid: String,
    /// Root location of the table's data/metadata in the object store.
    pub location: String,
    /// All schemas ever used, newest last (schema evolution history).
    pub schemas: Vec<SchemaDef>,
    /// Id of the current schema within `schemas`.
    pub current_schema_id: u32,
    pub partition_spec: PartitionSpec,
    /// All snapshots, oldest first.
    pub snapshots: Vec<Snapshot>,
    /// Current snapshot id (None for a freshly created empty table).
    pub current_snapshot_id: Option<u64>,
    /// Free-form properties.
    pub properties: BTreeMap<String, String>,
    /// The documents this one descends from, oldest first, less those
    /// whose current snapshot an expiry dropped.
    #[serde(default)]
    pub metadata_log: Vec<MetadataLogEntry>,
}

impl TableMetadata {
    /// Metadata for a brand-new empty table.
    pub fn new(
        table_uuid: impl Into<String>,
        location: impl Into<String>,
        schema: &Schema,
        partition_spec: PartitionSpec,
    ) -> Result<TableMetadata> {
        let location = location.into();
        partition_spec.validate(schema)?;
        Ok(TableMetadata {
            table_uuid: table_uuid.into(),
            location,
            schemas: vec![SchemaDef::from_schema(0, schema)],
            current_schema_id: 0,
            partition_spec,
            snapshots: vec![],
            current_snapshot_id: None,
            properties: BTreeMap::new(),
            metadata_log: Vec::new(),
        })
    }

    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        serde_json::to_vec_pretty(self)
            .map_err(|e| TableError::Corrupt(format!("metadata serialization: {e}")))
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<TableMetadata> {
        serde_json::from_slice(bytes)
            .map_err(|e| TableError::Corrupt(format!("metadata parse: {e}")))
    }

    /// The current columnar schema.
    pub fn current_schema(&self) -> Result<Schema> {
        self.schema_by_id(self.current_schema_id)
    }

    /// A historical schema by id.
    pub fn schema_by_id(&self, id: u32) -> Result<Schema> {
        self.schema_def(id)?
            .to_schema()
            .ok_or_else(|| TableError::Corrupt(format!("schema id {id} has unknown types")))
    }

    /// A historical schema by id, as stored: no columnar schema is built.
    pub fn schema_def(&self, id: u32) -> Result<&SchemaDef> {
        self.schemas
            .iter()
            .find(|s| s.schema_id == id)
            .ok_or_else(|| TableError::Corrupt(format!("schema id {id} missing")))
    }

    /// The current snapshot, if the table has data.
    pub fn current_snapshot(&self) -> Option<&Snapshot> {
        self.current_snapshot_id
            .and_then(|id| self.snapshots.iter().find(|s| s.snapshot_id == id))
    }

    /// A snapshot by id.
    pub fn snapshot(&self, id: u64) -> Result<&Snapshot> {
        self.snapshots
            .iter()
            .find(|s| s.snapshot_id == id)
            .ok_or(TableError::SnapshotNotFound(id))
    }

    /// Next snapshot id (strictly increasing).
    pub fn next_snapshot_id(&self) -> u64 {
        self.snapshots
            .iter()
            .map(|s| s.snapshot_id)
            .max()
            .map_or(1, |m| m + 1)
    }

    /// Next sequence number: one past the highest ever issued, which the
    /// newest snapshot holds, so it keeps rising after an expiry.
    pub fn next_sequence_number(&self) -> u64 {
        self.snapshots
            .iter()
            .map(|s| s.sequence_number)
            .max()
            .map_or(1, |m| m + 1)
    }

    /// Evolve the schema by appending new nullable columns. Existing files
    /// keep their old schema id; scans fill the new columns with nulls.
    pub fn add_columns(&mut self, new_fields: &[Field]) -> Result<u32> {
        let current = self.current_schema()?;
        let mut fields: Vec<Field> = current.fields().to_vec();
        for f in new_fields {
            if current.contains(f.name()) {
                return Err(TableError::InvalidEvolution(format!(
                    "column '{}' already exists",
                    f.name()
                )));
            }
            if !f.nullable() {
                return Err(TableError::InvalidEvolution(format!(
                    "new column '{}' must be nullable (existing rows have no value)",
                    f.name()
                )));
            }
            fields.push(f.clone());
        }
        let new_id = self.schemas.iter().map(|s| s.schema_id).max().unwrap_or(0) + 1;
        self.schemas
            .push(SchemaDef::from_schema(new_id, &Schema::new(fields)));
        self.current_schema_id = new_id;
        Ok(new_id)
    }

    /// Rename a column in the current schema (files are matched by the name
    /// they were written with via their schema id, so this is metadata-only).
    pub fn rename_column(&mut self, old: &str, new: &str) -> Result<u32> {
        let current = self.current_schema()?;
        if !current.contains(old) {
            return Err(TableError::InvalidEvolution(format!(
                "column '{old}' does not exist"
            )));
        }
        if current.contains(new) {
            return Err(TableError::InvalidEvolution(format!(
                "column '{new}' already exists"
            )));
        }
        if self
            .partition_spec
            .fields
            .iter()
            .any(|f| f.source_column == old)
        {
            return Err(TableError::InvalidEvolution(format!(
                "column '{old}' is a partition source"
            )));
        }
        let fields = current
            .fields()
            .iter()
            .map(|f| {
                if f.name() == old {
                    f.with_name(new)
                } else {
                    f.clone()
                }
            })
            .collect();
        let new_id = self.schemas.iter().map(|s| s.schema_id).max().unwrap_or(0) + 1;
        self.schemas
            .push(SchemaDef::from_schema(new_id, &Schema::new(fields)));
        self.current_schema_id = new_id;
        Ok(new_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_columnar::DataType;

    fn meta() -> TableMetadata {
        TableMetadata::new(
            "uuid-1",
            "wh/taxi",
            &Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("zone", DataType::Utf8, true),
            ]),
            PartitionSpec::unpartitioned(),
        )
        .unwrap()
    }

    #[test]
    fn new_table_has_no_snapshot() {
        let m = meta();
        assert!(m.current_snapshot().is_none());
        assert_eq!(m.next_snapshot_id(), 1);
        assert_eq!(m.current_schema().unwrap().len(), 2);
    }

    #[test]
    fn json_round_trip() {
        let m = meta();
        let rt = TableMetadata::from_bytes(&m.to_bytes().unwrap()).unwrap();
        assert_eq!(m, rt);
    }

    #[test]
    fn bad_bytes_corrupt() {
        assert!(TableMetadata::from_bytes(b"junk").is_err());
    }

    #[test]
    fn add_columns_evolves() {
        let mut m = meta();
        let id = m
            .add_columns(&[Field::new("fare", DataType::Float64, true)])
            .unwrap();
        assert_eq!(id, 1);
        assert_eq!(m.current_schema().unwrap().len(), 3);
        // Old schema still reachable.
        assert_eq!(m.schema_by_id(0).unwrap().len(), 2);
    }

    #[test]
    fn add_duplicate_column_rejected() {
        let mut m = meta();
        assert!(m
            .add_columns(&[Field::new("id", DataType::Int64, true)])
            .is_err());
    }

    #[test]
    fn add_non_nullable_column_rejected() {
        let mut m = meta();
        assert!(m
            .add_columns(&[Field::new("x", DataType::Int64, false)])
            .is_err());
    }

    #[test]
    fn rename_column() {
        let mut m = meta();
        m.rename_column("zone", "pickup_zone").unwrap();
        let s = m.current_schema().unwrap();
        assert!(s.contains("pickup_zone"));
        assert!(!s.contains("zone"));
        assert!(m.rename_column("ghost", "x").is_err());
        assert!(m.rename_column("id", "pickup_zone").is_err());
    }

    #[test]
    fn rename_partition_source_rejected() {
        let mut m = TableMetadata::new(
            "u",
            "wh/t",
            &Schema::new(vec![Field::new("d", DataType::Date, false)]),
            PartitionSpec::identity("d"),
        )
        .unwrap();
        assert!(m.rename_column("d", "d2").is_err());
    }

    #[test]
    fn invalid_partition_spec_rejected_at_create() {
        let r = TableMetadata::new(
            "u",
            "wh/t",
            &Schema::new(vec![Field::new("a", DataType::Int64, false)]),
            PartitionSpec::identity("nope"),
        );
        assert!(r.is_err());
    }

    #[test]
    fn snapshot_lookup() {
        let mut m = meta();
        m.snapshots.push(Snapshot {
            snapshot_id: 1,
            parent_id: None,
            sequence_number: 1,
            operation: crate::snapshot::SnapshotOperation::Append,
            manifest_path: "p".into(),
            added_rows: 5,
            total_rows: 5,
        });
        m.current_snapshot_id = Some(1);
        assert_eq!(m.current_snapshot().unwrap().snapshot_id, 1);
        assert!(m.snapshot(2).is_err());
        assert_eq!(m.next_snapshot_id(), 2);
    }
}
