//! Content-addressed project snapshots and the run registry.
//!
//! "The full project is snapshotted in an object storage and fingerprinted
//! … by assigning an id and immutable artifacts to each run, we guarantee
//! reproducibility for auditing and debugging purposes following the *code
//! is data* principle" (paper §4.4.1).

use crate::error::{PlannerError, Result};
use crate::project::PipelineProject;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// FNV-1a over bytes, hex-encoded (deterministic across runs/platforms).
pub fn fingerprint_bytes(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let mut h2: u64 = h ^ 0x9e3779b97f4a7c15;
    for &b in bytes {
        h2 ^= b as u64;
        h2 = h2.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}{h2:016x}")
}

/// An immutable snapshot of a project's code.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProjectSnapshot {
    /// Fingerprint of the whole project (order-sensitive over nodes).
    pub project_fingerprint: String,
    /// Per-node fingerprints, keyed by node name.
    pub node_fingerprints: BTreeMap<String, String>,
}

impl ProjectSnapshot {
    pub fn of(project: &PipelineProject) -> ProjectSnapshot {
        let mut node_fingerprints = BTreeMap::new();
        let mut all = String::new();
        for node in &project.nodes {
            let text = node.source_text();
            all.push_str(&text);
            all.push('\n');
            node_fingerprints.insert(node.name.clone(), fingerprint_bytes(text.as_bytes()));
        }
        ProjectSnapshot {
            project_fingerprint: fingerprint_bytes(all.as_bytes()),
            node_fingerprints,
        }
    }
}

/// One recorded run: code version + data version + outcome. This is what
/// `bauplan run --run-id N -m node+` replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    pub run_id: u64,
    /// The project as snapshotted for this run (full code, so replay never
    /// depends on the working tree).
    pub project: PipelineProject,
    pub snapshot: ProjectSnapshot,
    /// Catalog commit the run read from (the data version).
    pub data_version: String,
    /// Branch the run targeted.
    pub branch: String,
    /// Whether the run (including all expectations) succeeded.
    pub success: bool,
    /// Node name → rows produced (for materialized nodes).
    pub output_rows: BTreeMap<String, u64>,
}

/// An in-memory, append-only run registry (the paper uses Postgres; the
/// registry contract — assign ids, persist immutable records — is the same).
#[derive(Debug, Default)]
pub struct RunRegistry {
    runs: Vec<RunRecord>,
    reserved: u64,
}

impl RunRegistry {
    pub fn new() -> RunRegistry {
        RunRegistry::default()
    }

    /// Reserve the next run id (1-based, dense). Concurrent runs each get a
    /// distinct id even before their records land.
    pub fn reserve(&mut self) -> u64 {
        self.reserved += 1;
        self.reserved
    }

    /// Record a completed run under a previously reserved id.
    pub fn record(&mut self, record: RunRecord) -> Result<()> {
        if record.run_id == 0 || record.run_id > self.reserved {
            return Err(PlannerError::InvalidProject(format!(
                "run id {} was never reserved (reserved up to {})",
                record.run_id, self.reserved
            )));
        }
        if self.runs.iter().any(|r| r.run_id == record.run_id) {
            return Err(PlannerError::InvalidProject(format!(
                "run id {} already recorded",
                record.run_id
            )));
        }
        self.runs.push(record);
        Ok(())
    }

    pub fn get(&self, run_id: u64) -> Result<&RunRecord> {
        self.runs
            .iter()
            .find(|r| r.run_id == run_id)
            .ok_or(PlannerError::UnknownRun(run_id))
    }

    pub fn len(&self) -> usize {
        self.runs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// All runs, oldest first.
    pub fn all(&self) -> &[RunRecord] {
        &self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_deterministic_and_distinct() {
        assert_eq!(fingerprint_bytes(b"abc"), fingerprint_bytes(b"abc"));
        assert_ne!(fingerprint_bytes(b"abc"), fingerprint_bytes(b"abd"));
        assert_eq!(fingerprint_bytes(b"abc").len(), 32);
    }

    #[test]
    fn snapshot_changes_with_code() {
        let p1 = PipelineProject::taxi_example();
        let s1 = ProjectSnapshot::of(&p1);
        let s1b = ProjectSnapshot::of(&p1);
        assert_eq!(s1, s1b);
        let mut p2 = p1.clone();
        p2.nodes[0].sql = Some("SELECT 1".into());
        let s2 = ProjectSnapshot::of(&p2);
        assert_ne!(s1.project_fingerprint, s2.project_fingerprint);
        assert_ne!(s1.node_fingerprints["trips"], s2.node_fingerprints["trips"]);
        // Unchanged nodes keep their fingerprints.
        assert_eq!(
            s1.node_fingerprints["pickups"],
            s2.node_fingerprints["pickups"]
        );
    }

    #[test]
    fn registry_sequencing() {
        let mut reg = RunRegistry::new();
        assert_eq!(reg.reserve(), 1);
        assert_eq!(reg.reserve(), 2);
        let p = PipelineProject::taxi_example();
        let rec = RunRecord {
            run_id: 1,
            project: p.clone(),
            snapshot: ProjectSnapshot::of(&p),
            data_version: "commit-abc".into(),
            branch: "main".into(),
            success: true,
            output_rows: BTreeMap::new(),
        };
        reg.record(rec.clone()).unwrap();
        assert_eq!(reg.get(1).unwrap().data_version, "commit-abc");
        assert!(matches!(reg.get(2), Err(PlannerError::UnknownRun(2))));
        // Unreserved id rejected.
        let mut bad = rec.clone();
        bad.run_id = 5;
        assert!(reg.record(bad).is_err());
        // Duplicate id rejected.
        assert!(reg.record(rec).is_err());
    }
}
