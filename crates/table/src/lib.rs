//! # lakehouse-table
//!
//! An Iceberg-like open table format (paper §4.2): the layer that turns a
//! pile of immutable data files in object storage into *tables* with
//! snapshots, partitioning, schema evolution, and time travel.
//!
//! Structure mirrors Iceberg's three-level metadata tree:
//!
//! ```text
//! table metadata (JSON)          one document per table version
//!   └── snapshot                 points to its root manifest
//!         └── root manifest      one JSON doc per snapshot: the list
//!               ├── refs         earlier manifests still live, with
//!               │                their counts and partition ranges
//!               └── manifest entries   data file + partition + stats
//!                     └── data files   lakehouse-format files
//! ```
//!
//! An append writes a root with only its own entries and names the parent's
//! live manifests as refs; a scan reads the refs' manifests, oldest first,
//! then the root's entries, skipping a ref whose ranges rule it out.
//!
//! Every write goes through a [`Transaction`] that stages new data files and
//! commits a **new immutable metadata document** — readers never see partial
//! writes, and any historical snapshot stays queryable (time travel). Every
//! object is written once, under a name that carries a token of its content
//! ([`cache`]), which is what makes the parsed-document cache sound.
//!
//! Scans ([`TableScan`]) prune in three stages before touching data bytes:
//! partition values → file-level column stats → row-group zone maps.

pub mod cache;
pub mod error;
pub mod maintenance;
pub mod manifest;
pub mod metadata;
pub mod partition;
pub mod scan;
pub mod schema_def;
pub mod snapshot;
pub mod table;
pub mod transaction;

pub use cache::{ObjectCache, TableIo};
pub use error::{reread_on_corruption, Result, TableError};
pub use maintenance::{CompactionReport, ExpirationReport};
pub use manifest::{Manifest, ManifestEntry};
pub use metadata::{MetadataLogEntry, TableMetadata};
pub use partition::{PartitionField, PartitionSpec, Transform};
pub use scan::{ScanPredicate, ScanReport, ScanStream, TableScan};
pub use schema_def::SchemaDef;
pub use snapshot::{Snapshot, SnapshotOperation};
pub use table::Table;
pub use transaction::{Transaction, Written};
