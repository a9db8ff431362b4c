//! Vectorized compute kernels over [`Column`](crate::Column)s.
//!
//! Kernels follow SQL semantics: comparisons/arithmetic over a null operand
//! yield null; boolean AND/OR use Kleene (three-valued) logic; aggregates
//! skip nulls. All kernels are batch-at-a-time — the only per-row work is a
//! tight loop over dense typed vectors.

pub mod agg;
pub mod arith;
pub mod boolean;
pub mod cast;
pub mod cmp;
pub mod filter;
pub mod hash;
pub mod reference;
pub mod sort;

pub use agg::{aggregate_column, update_grouped, Accumulator, AggState, Aggregator, Grouper};
pub use arith::{add, div, modulo, mul, neg, sub};
pub use boolean::{and_kleene, not, or_kleene};
pub use cast::cast;
pub use cmp::{cmp_column_scalar, cmp_columns, to_selection, CmpOp};
pub use filter::{filter_batch, filter_column, take_batch, take_column, take_column_opt};
pub use hash::{hash_batch_rows, hash_column, hash_column_into, row_key};
pub use sort::{sort_indices, sort_indices_top, SortField};
