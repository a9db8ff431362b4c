//! # lakehouse-format
//!
//! A Parquet-like columnar file format (the paper's "open file formats"
//! layer, §1/§4.2): immutable data files made of **row groups**, each holding
//! one **column chunk** per column, with per-chunk min/max/null statistics in
//! the footer so scans can prune row groups without touching data pages.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "LKH1"                                  magic
//! row group 0: chunk 0 | chunk 1 | ...    encoded column chunks
//! row group 1: ...
//! footer                                  schema, chunk offsets, stats
//! footer_len: u32
//! "LKH1"                                  magic (trailer)
//! ```
//!
//! Readers fetch the trailer + footer first (one small range read), then only
//! the chunk byte ranges a query needs — mirroring how Parquet over object
//! storage behaves, which is what makes the store's latency simulation
//! meaningful.
//!
//! Encodings: bit-packed booleans, integers bit-packed as offsets from the
//! chunk's least value (plain when that is no smaller), plain floats, and
//! dictionary-encoded strings with bit-packed codes (falling back to plain
//! when cardinality is high), each paired with a validity bitmap.

pub mod encoding;
pub mod error;
pub mod io;
pub mod ranged;
pub mod reader;
pub mod stats;
pub mod writer;

pub use error::{FormatError, Result};
pub use ranged::{FetchedChunks, RangedReader, RawGroup};
pub use reader::{footer_bytes, RowGroupMeta};
pub use stats::ColumnStats;
pub use writer::{Copied, FileWriter, WriterOptions};

/// The whole-file reader under its earlier name: `bench_suite`'s
/// `probes.rs` and `replay.rs` still call `FileReader::parse`, `.schema()`
/// and `.read_all(..)`.
pub type FileReader = RangedReader;

/// File magic bytes.
pub const MAGIC: &[u8; 4] = b"LKH1";

/// Format version written into footers. Version 2 adds end-to-end CRC32C
/// verification: a per-column-chunk checksum in the row-group metadata and a
/// footer checksum in the trailer, so torn or bit-rotted reads are detected
/// (`FormatError::Corrupted`) instead of decoded into wrong values.
pub const FORMAT_VERSION: u32 = 2;
