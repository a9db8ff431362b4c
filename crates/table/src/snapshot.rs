//! Snapshots: immutable table versions, each pointing at its root manifest.

use serde::{Deserialize, Serialize};

/// What kind of change produced a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SnapshotOperation {
    /// New files added; existing files kept.
    Append,
    /// All previous files replaced.
    Overwrite,
}

/// One immutable version of a table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Unique within the table, strictly increasing.
    pub snapshot_id: u64,
    /// Parent snapshot (None for the first).
    pub parent_id: Option<u64>,
    /// One past the highest sequence number the table had issued before it:
    /// strictly increasing, expiry included.
    pub sequence_number: u64,
    pub operation: SnapshotOperation,
    /// Object-store path of this snapshot's root manifest.
    pub manifest_path: String,
    /// Rows added by this snapshot (summary, for `DESCRIBE`-style output).
    pub added_rows: u64,
    /// Total rows visible at this snapshot.
    pub total_rows: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_round_trip() {
        let s = Snapshot {
            snapshot_id: 7,
            parent_id: Some(6),
            sequence_number: 2,
            operation: SnapshotOperation::Append,
            manifest_path: "wh/t/manifest-7.json".into(),
            added_rows: 100,
            total_rows: 700,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
