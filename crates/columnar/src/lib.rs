//! # lakehouse-columnar
//!
//! An Arrow-like columnar in-memory format: the "common dialect over tuples"
//! that every engine component of the lakehouse speaks (paper §4.4.1).
//!
//! The crate provides:
//!
//! * [`DataType`] / [`Value`] — the logical type system and scalar values;
//! * [`Bitmap`] — a packed validity (null) bitmap;
//! * [`Buffer`] — shared, immutable values: cloning or slicing one copies a
//!   pointer;
//! * [`Column`] — a typed, immutable column of values with optional nulls;
//! * [`Schema`] / [`Field`] — named, typed column metadata;
//! * [`RecordBatch`] — a horizontal slice of a table: equal-length columns
//!   plus a schema;
//! * [`kernels`] — vectorized compute kernels (filter, take, comparisons,
//!   arithmetic, aggregation, sorting, hashing) used by the SQL engine.
//!
//! Design follows the same invariants as Arrow: columns are immutable after
//! construction, all compute produces new columns, and every kernel operates
//! on whole batches to amortize dispatch (vectorized execution).
//!
//! ```
//! use lakehouse_columnar::{Column, RecordBatch, Schema, Field, DataType};
//!
//! let schema = Schema::new(vec![
//!     Field::new("id", DataType::Int64, false),
//!     Field::new("name", DataType::Utf8, true),
//! ]);
//! let batch = RecordBatch::try_new(
//!     schema,
//!     vec![
//!         Column::from_i64(vec![1, 2, 3]),
//!         Column::from_opt_str(vec![Some("a"), None, Some("c")]),
//!     ],
//! ).unwrap();
//! assert_eq!(batch.num_rows(), 3);
//! ```

pub mod batch;
pub mod bitmap;
pub mod buffer;
pub mod column;
pub mod csv;
pub mod datatype;
pub mod error;
pub mod kernels;
pub mod pretty;
pub mod schema;
pub mod stream;

pub use batch::{Origin, RecordBatch};
pub use bitmap::Bitmap;
pub use buffer::Buffer;
pub use column::{Column, ColumnBuilder, DictColumn};
pub use datatype::{DataType, Value};
pub use error::{ColumnarError, Result};
pub use schema::{Field, Schema};
pub use stream::{BatchStream, BatchesStream};
