//! Manifests: the per-snapshot inventory of data files with partition values
//! and column statistics for pruning.

use crate::cache::TableIo;
use crate::error::{Result, TableError};
use crate::schema_def::ValueDef;
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::Value;
use lakehouse_format::ColumnStats;
use lakehouse_store::ObjectStore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Serializable column statistics (file-level, aggregated over row groups).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsDef {
    pub min: ValueDef,
    pub max: ValueDef,
    pub null_count: u64,
    pub row_count: u64,
}

impl StatsDef {
    pub fn from_stats(s: &ColumnStats) -> StatsDef {
        StatsDef {
            min: ValueDef::from_value(&s.min),
            max: ValueDef::from_value(&s.max),
            null_count: s.null_count,
            row_count: s.row_count,
        }
    }

    pub fn to_stats(&self) -> ColumnStats {
        ColumnStats {
            min: self.min.to_value(),
            max: self.max.to_value(),
            null_count: self.null_count,
            row_count: self.row_count,
        }
    }
}

/// One data file tracked by a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Object-store path of the data file.
    pub file_path: String,
    /// Rows in the file.
    pub row_count: u64,
    /// File size in bytes (drives the store's transfer-time simulation and
    /// the runtime's memory sizing).
    pub file_size: u64,
    /// Partition tuple (parallel to the spec's fields; empty if
    /// unpartitioned).
    pub partition: Vec<ValueDef>,
    /// File-level stats per column name.
    pub column_stats: BTreeMap<String, StatsDef>,
    /// Schema id the file was written with (schema evolution).
    pub schema_id: u32,
}

impl ManifestEntry {
    /// Can this file contain rows matching `column OP literal`?
    /// Missing stats (e.g. a column added after this file was written) are
    /// conservative: the file must be scanned.
    pub fn may_match(&self, column: &str, op: CmpOp, literal: &Value) -> bool {
        match self.column_stats.get(column) {
            Some(stats) => stats.to_stats().may_match(op, literal),
            None => true,
        }
    }
}

/// The manifest: all data files of one snapshot. Persisted as one JSON
/// object per snapshot (a simplification of Iceberg's manifest-list →
/// manifest indirection that preserves the pruning behaviour).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("manifest serialization cannot fail")
    }

    pub fn from_bytes(bytes: &[u8]) -> Option<Manifest> {
        serde_json::from_slice(bytes).ok()
    }

    /// The manifest at `path`, through `io`'s cache when it has one.
    pub(crate) fn load(
        store: &Arc<dyn ObjectStore>,
        io: &TableIo,
        path: &str,
    ) -> Result<Arc<Manifest>> {
        io.load(&**store, path, |bytes| {
            Manifest::from_bytes(bytes)
                .ok_or_else(|| TableError::Corrupt("unparseable manifest".into()))
        })
    }

    pub fn total_rows(&self) -> u64 {
        self.entries.iter().map(|e| e.row_count).sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.file_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(path: &str, min: i64, max: i64) -> ManifestEntry {
        let mut column_stats = BTreeMap::new();
        column_stats.insert(
            "id".to_string(),
            StatsDef {
                min: ValueDef::Int(min),
                max: ValueDef::Int(max),
                null_count: 0,
                row_count: 10,
            },
        );
        ManifestEntry {
            file_path: path.into(),
            row_count: 10,
            file_size: 1000,
            partition: vec![],
            column_stats,
            schema_id: 0,
        }
    }

    #[test]
    fn manifest_round_trip() {
        let m = Manifest {
            entries: vec![entry("f1", 0, 9), entry("f2", 10, 19)],
        };
        let rt = Manifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(m, rt);
        assert_eq!(rt.total_rows(), 20);
        assert_eq!(rt.total_bytes(), 2000);
    }

    #[test]
    fn pruning_by_file_stats() {
        let e = entry("f1", 10, 20);
        assert!(e.may_match("id", CmpOp::Eq, &Value::Int64(15)));
        assert!(!e.may_match("id", CmpOp::Eq, &Value::Int64(50)));
        assert!(!e.may_match("id", CmpOp::Lt, &Value::Int64(10)));
    }

    #[test]
    fn missing_stats_conservative() {
        let e = entry("f1", 10, 20);
        assert!(e.may_match("other_col", CmpOp::Eq, &Value::Int64(1)));
    }

    #[test]
    fn bad_json_is_none() {
        assert!(Manifest::from_bytes(b"nope").is_none());
    }
}
