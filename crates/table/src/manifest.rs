//! Manifests: the per-snapshot inventory of data files with partition values
//! and column statistics for pruning, and the refs by which a snapshot's root
//! names the earlier manifests still live.

use crate::cache::TableIo;
use crate::error::{Result, TableError};
use crate::schema_def::ValueDef;
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

/// An earlier manifest a root still names: Iceberg's manifest-list entry,
/// folded into the manifest. It carries what a scan needs to account for
/// the manifest, or to skip it unread: its size, and per partition field
/// the least and greatest value over its entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestRef {
    pub path: String,
    pub file_count: u64,
    pub row_count: u64,
    pub byte_count: u64,
    /// Per partition field, the least value over the entries; `Null` when
    /// some entry has no value there, and then the field never prunes.
    pub partition_lower: Vec<ValueDef>,
    /// Per partition field, the greatest value, `Null` likewise.
    pub partition_upper: Vec<ValueDef>,
}

impl ManifestRef {
    /// The summary of `manifest`'s own entries (not its refs), stored at
    /// `path`, for a table with `fields` partition fields.
    pub(crate) fn summarize(path: &str, manifest: &Manifest, fields: usize) -> ManifestRef {
        let mut lower = Vec::with_capacity(fields);
        let mut upper = Vec::with_capacity(fields);
        for field in 0..fields {
            // One entry without a value there leaves the bounds NULL: the
            // field never prunes the ref.
            let spans = manifest.entries.iter().map(|e| e.partition_span(field));
            let mut range = ColumnStats::span(Value::Null, Value::Null);
            if spans.clone().all(|s| !s.min.is_null()) {
                spans.for_each(|s| range.merge(&s));
            }
            lower.push(ValueDef::from_value(&range.min));
            upper.push(ValueDef::from_value(&range.max));
        }
        ManifestRef {
            path: path.to_string(),
            file_count: manifest.entries.len() as u64,
            row_count: manifest.total_rows(),
            byte_count: manifest.total_bytes(),
            partition_lower: lower,
            partition_upper: upper,
        }
    }

    /// The partition values at `field` over the referenced entries, as a
    /// range: a ref is skipped only when every entry in it would be.
    pub(crate) fn partition_span(&self, field: usize) -> ColumnStats {
        let bound = |bounds: &[ValueDef]| bounds.get(field).map_or(Value::Null, ValueDef::to_value);
        ColumnStats::span(bound(&self.partition_lower), bound(&self.partition_upper))
    }
}

impl ManifestEntry {
    /// The entry's partition value at `field`, as a one-value range.
    pub(crate) fn partition_span(&self, field: usize) -> ColumnStats {
        let value = self
            .partition
            .get(field)
            .map_or(Value::Null, ValueDef::to_value);
        ColumnStats::span(value.clone(), value)
    }
}

/// A snapshot's manifest, its *root*: the data files the snapshot added
/// (all of them, for an overwrite) and, in `refs`, the earlier manifests
/// whose entries are still live. The snapshot's files are each ref's
/// entries in ref order, oldest first, then the root's own: an append
/// writes only what it staged, never the files before it. A referenced
/// manifest's own refs are not followed; the root lists them flat. A
/// manifest without refs serializes without the key, as manifests did
/// before there were any.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub refs: Vec<ManifestRef>,
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        serde_json::to_vec(self)
            .map_err(|e| TableError::Corrupt(format!("manifest serialization: {e}")))
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

    /// Every live manifest of the snapshot whose root is at `path`: each
    /// ref's, in ref order, then the root.
    pub(crate) fn load_live(
        store: &Arc<dyn ObjectStore>,
        io: &TableIo,
        path: &str,
    ) -> Result<Vec<Arc<Manifest>>> {
        let root = Manifest::load(store, io, path)?;
        let mut live = (root.refs.iter())
            .map(|r| Manifest::load(store, io, &r.path))
            .collect::<Result<Vec<_>>>()?;
        live.push(root);
        Ok(live)
    }

    /// Rows in this manifest's own entries.
    pub fn total_rows(&self) -> u64 {
        self.entries.iter().map(|e| e.row_count).sum()
    }

    /// Bytes in this manifest's own entries.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.file_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_columnar::kernels::CmpOp;

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
            refs: vec![],
            entries: vec![entry("f1", 0, 9), entry("f2", 10, 19)],
        };
        let rt = Manifest::from_bytes(&m.to_bytes().unwrap()).unwrap();
        assert_eq!(m, rt);
        assert_eq!(rt.total_rows(), 20);
        assert_eq!(rt.total_bytes(), 2000);
    }

    #[test]
    fn a_ref_prunes_only_when_no_entry_could_match() {
        let at = |day: i32| ManifestEntry {
            partition: vec![ValueDef::Date(day)],
            ..entry("f", 0, 9)
        };
        let m = Manifest {
            refs: vec![],
            entries: vec![at(12), at(10), at(14)],
        };
        let r = ManifestRef::summarize("m", &m, 1);
        assert_eq!((r.file_count, r.row_count, r.byte_count), (3, 30, 3000));
        assert_eq!(
            (&r.partition_lower[..], &r.partition_upper[..]),
            (&[ValueDef::Date(10)][..], &[ValueDef::Date(14)][..])
        );
        let may = |op, day| r.partition_span(0).may_match(op, &Value::Date(day));
        assert!(may(CmpOp::Eq, 11) && !may(CmpOp::Eq, 9) && !may(CmpOp::Eq, 15));
        assert!(may(CmpOp::Lt, 11) && !may(CmpOp::Lt, 10) && may(CmpOp::LtEq, 10));
        assert!(may(CmpOp::Gt, 13) && !may(CmpOp::Gt, 14) && may(CmpOp::GtEq, 14));
        assert!(may(CmpOp::NotEq, 10));
        let one_day = ManifestRef::summarize(
            "m",
            &Manifest {
                refs: vec![],
                entries: vec![at(3)],
            },
            1,
        );
        assert!(!one_day
            .partition_span(0)
            .may_match(CmpOp::NotEq, &Value::Date(3)));
        // An entry without a value there, or a field past the bounds: no
        // pruning on it.
        let nulls = Manifest {
            refs: vec![],
            entries: vec![
                at(12),
                ManifestEntry {
                    partition: vec![ValueDef::Null],
                    ..at(0)
                },
            ],
        };
        let r = ManifestRef::summarize("m", &nulls, 1);
        assert_eq!(r.partition_lower, vec![ValueDef::Null]);
        assert!(r.partition_span(0).may_match(CmpOp::Eq, &Value::Date(99)));
        assert!(r.partition_span(1).may_match(CmpOp::Eq, &Value::Date(99)));
    }

    #[test]
    fn bad_json_is_none() {
        assert!(Manifest::from_bytes(b"nope").is_none());
    }
}
