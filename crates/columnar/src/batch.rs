//! [`RecordBatch`]: a horizontal slice of a table — equal-length columns plus
//! a schema and their row count. The unit of data flow between all engine
//! operators.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::datatype::Value;
use crate::error::{ColumnarError, Result};
use crate::schema::Schema;
use std::any::Any;
use std::sync::Arc;

/// Equal-length columns with a schema. Immutable after construction. The
/// row count is the batch's own, as in Arrow: a batch with no columns still
/// has rows (what `COUNT(*)` or `SELECT 1 FROM t` reads of a table).
///
/// A batch may carry an [`Origin`]: the stored bytes its values are exactly
/// the decode of. Clone, [`RecordBatch::project`] and
/// [`RecordBatch::decode_dicts`] keep it; every other constructor, and so
/// every kernel, starts without one. Equality is the values' alone.
#[derive(Debug, Clone)]
pub struct RecordBatch {
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
    origin: Option<Origin>,
}

impl PartialEq for RecordBatch {
    fn eq(&self, other: &RecordBatch) -> bool {
        self.num_rows == other.num_rows
            && self.schema == other.schema
            && self.columns == other.columns
    }
}

/// The stored form a batch's values were decoded from, for a writer that
/// would rather copy it than encode the values again. The source is opaque
/// here: its maker reads it back by type ([`Origin::source`]). Each column
/// of the batch maps to the source column it is the exact decode of, or to
/// none (a value built otherwise).
#[derive(Clone)]
pub struct Origin {
    source: Arc<dyn Any + Send + Sync>,
    columns: Arc<[Option<usize>]>,
}

impl Origin {
    pub fn new(source: Arc<dyn Any + Send + Sync>, columns: Vec<Option<usize>>) -> Origin {
        Origin {
            source,
            columns: columns.into(),
        }
    }

    /// The source, if it is a `T`.
    pub fn source<T: Any>(&self) -> Option<&T> {
        self.source.downcast_ref()
    }

    /// The source column batch column `i` decodes, if any.
    pub fn column(&self, i: usize) -> Option<usize> {
        self.columns.get(i).copied().flatten()
    }

    /// This origin seen from a batch whose column `k` is the `picks[k]`th
    /// column of this origin's batch (`None`: a column built otherwise).
    pub fn remap(&self, picks: impl IntoIterator<Item = Option<usize>>) -> Origin {
        let columns = picks.into_iter().map(|p| p.and_then(|i| self.column(i)));
        Origin {
            source: Arc::clone(&self.source),
            columns: columns.collect(),
        }
    }
}

impl std::fmt::Debug for Origin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Origin")
            .field("columns", &self.columns)
            .finish_non_exhaustive()
    }
}

impl RecordBatch {
    /// Build a batch, validating that column count/types/lengths match the
    /// schema. Its row count is the first column's length (0 with none).
    pub fn try_new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        let num_rows = columns.first().map_or(0, Column::len);
        RecordBatch::try_new_with_rows(schema, columns, num_rows)
    }

    /// [`Self::try_new`] with the row count given: every column must have
    /// `num_rows` values, and with no columns the batch still has that many
    /// rows.
    pub fn try_new_with_rows(
        schema: Schema,
        columns: Vec<Column>,
        num_rows: usize,
    ) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(ColumnarError::SchemaMismatch(format!(
                "schema has {} fields but {} columns given",
                schema.len(),
                columns.len()
            )));
        }
        for (field, col) in schema.fields().iter().zip(&columns) {
            if col.len() != num_rows {
                return Err(ColumnarError::LengthMismatch {
                    expected: num_rows,
                    actual: col.len(),
                });
            }
            if col.data_type() != field.data_type() {
                return Err(ColumnarError::SchemaMismatch(format!(
                    "field '{}' declared {} but column is {}",
                    field.name(),
                    field.data_type(),
                    col.data_type()
                )));
            }
            if !field.nullable() && col.null_count() > 0 {
                return Err(ColumnarError::SchemaMismatch(format!(
                    "field '{}' is NOT NULL but column has {} nulls",
                    field.name(),
                    col.null_count()
                )));
            }
        }
        Ok(RecordBatch {
            schema,
            columns,
            num_rows,
            origin: None,
        })
    }

    /// This batch carrying `origin`, whose column map must cover its
    /// columns. The caller vouches that each mapped column is exactly the
    /// decode of its source column.
    pub fn with_origin(mut self, origin: Origin) -> Result<RecordBatch> {
        if origin.columns.len() != self.columns.len() {
            return Err(ColumnarError::InvalidArgument(format!(
                "an origin of {} columns for a batch of {}",
                origin.columns.len(),
                self.columns.len()
            )));
        }
        self.origin = Some(origin);
        Ok(self)
    }

    /// The stored form these values were decoded from, if they still are
    /// its exact decode.
    pub fn origin(&self) -> Option<&Origin> {
        self.origin.as_ref()
    }

    /// This batch without its origin: values kept past the write they
    /// could feed should not keep stored bytes alive.
    pub fn without_origin(mut self) -> RecordBatch {
        self.origin = None;
        self
    }

    /// An empty batch with the given schema.
    pub fn new_empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new_empty(f.data_type()))
            .collect();
        RecordBatch {
            schema,
            columns,
            num_rows: 0,
            origin: None,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column at index `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column with the given name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Row `row` as a vector of scalar values.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.num_rows {
            return Err(ColumnarError::IndexOutOfBounds {
                index: row,
                len: self.num_rows,
            });
        }
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Project to the named columns (order given), returning a new batch
    /// that keeps this one's origin for the columns it keeps.
    pub fn project(&self, names: &[&str]) -> Result<RecordBatch> {
        let schema = self.schema.project(names)?;
        let at = (names.iter())
            .map(|n| self.schema.index_of(n))
            .collect::<Result<Vec<_>>>()?;
        let columns = at.iter().map(|&i| self.columns[i].clone()).collect();
        let batch = RecordBatch::try_new_with_rows(schema, columns, self.num_rows)?;
        match &self.origin {
            Some(origin) => batch.with_origin(origin.remap(at.into_iter().map(Some))),
            None => Ok(batch),
        }
    }

    /// Rows `[offset, offset + len)`, sharing this batch's values.
    pub fn slice(&self, offset: usize, len: usize) -> Result<RecordBatch> {
        let end = offset.saturating_add(len);
        if end > self.num_rows {
            let len = self.num_rows;
            return Err(ColumnarError::IndexOutOfBounds { index: end, len });
        }
        let columns = self
            .columns
            .iter()
            .map(|c| c.slice(offset, len))
            .collect::<Result<Vec<_>>>()?;
        RecordBatch::try_new_with_rows(self.schema.clone(), columns, len)
    }

    /// Rows `[offset, offset + len)` in values of their own: what a cut
    /// that is kept long holds, so that it does not keep the rest of this
    /// batch's values alive.
    pub fn copy_rows(&self, offset: usize, len: usize) -> Result<RecordBatch> {
        crate::kernels::filter_batch(&self.slice(offset, len)?, &Bitmap::new_set(len))
    }

    /// Concatenate batches with identical schemas.
    pub fn concat(batches: &[RecordBatch]) -> Result<RecordBatch> {
        let Some(first) = batches.first() else {
            return Err(ColumnarError::InvalidArgument(
                "concat of zero batches".into(),
            ));
        };
        let schema = first.schema.clone();
        for b in batches {
            if b.schema != schema {
                return Err(ColumnarError::SchemaMismatch(
                    "concat requires identical schemas".into(),
                ));
            }
        }
        let ncols = schema.len();
        let mut columns = Vec::with_capacity(ncols);
        for c in 0..ncols {
            let cols: Vec<Column> = batches.iter().map(|b| b.columns[c].clone()).collect();
            columns.push(Column::concat(&cols)?);
        }
        let num_rows = batches.iter().map(|b| b.num_rows).sum();
        RecordBatch::try_new_with_rows(schema, columns, num_rows)
    }

    /// What a drained stream of `schema` adds up to: the empty batch for no
    /// batches, the batch itself for one, their concatenation otherwise.
    pub fn concat_all(schema: &Schema, mut batches: Vec<RecordBatch>) -> Result<RecordBatch> {
        if batches.len() > 1 {
            return RecordBatch::concat(&batches);
        }
        let empty = || RecordBatch::new_empty(schema.clone());
        Ok(batches.pop().unwrap_or_else(empty))
    }

    /// Split into chunks of at most `chunk_rows` rows, each sharing this
    /// batch's values.
    pub fn chunks(&self, chunk_rows: usize) -> Result<Vec<RecordBatch>> {
        if chunk_rows == 0 {
            return Err(ColumnarError::InvalidArgument(
                "chunk_rows must be > 0".into(),
            ));
        }
        let mut out = Vec::new();
        let mut offset = 0;
        while offset < self.num_rows {
            let len = chunk_rows.min(self.num_rows - offset);
            out.push(self.slice(offset, len)?);
            offset += len;
        }
        if out.is_empty() {
            out.push(self.clone());
        }
        Ok(out)
    }

    /// Approximate in-memory size in bytes (used by the runtime's memory
    /// allocator and spill decisions).
    pub fn approx_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| match c {
                Column::Bool(v, _) => v.len(),
                Column::Int64(v, _) | Column::Timestamp(v, _) => v.len() * 8,
                Column::Float64(v, _) => v.len() * 8,
                Column::Date(v, _) => v.len() * 4,
                Column::Utf8(v, _) => v.iter().map(|s| s.len() + 24).sum(),
                Column::Dict(d) => {
                    d.codes().len() * 4 + d.dict().iter().map(|s| s.len() + 24).sum::<usize>()
                }
            })
            .sum()
    }

    /// Decode any dictionary-encoded columns to plain columns (late
    /// materialization at the plan root). Returns `self` unchanged when no
    /// column is dict-encoded. The values stay the same, and so does the
    /// origin.
    pub fn decode_dicts(self) -> RecordBatch {
        if !self.columns.iter().any(|c| matches!(c, Column::Dict(_))) {
            return self;
        }
        let columns = self.columns.iter().map(Column::materialize).collect();
        RecordBatch {
            schema: self.schema,
            columns,
            num_rows: self.num_rows,
            origin: self.origin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::Field;

    fn batch() -> RecordBatch {
        RecordBatch::try_new(
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("name", DataType::Utf8, true),
            ]),
            vec![
                Column::from_i64(vec![1, 2, 3]),
                Column::from_opt_str(vec![Some("a"), None, Some("c")]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths() {
        let r = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("a", DataType::Int64, false),
                Field::new("b", DataType::Int64, false),
            ]),
            vec![Column::from_i64(vec![1]), Column::from_i64(vec![1, 2])],
        );
        assert!(r.is_err());
    }

    #[test]
    fn construction_validates_types() {
        let r = RecordBatch::try_new(
            Schema::new(vec![Field::new("a", DataType::Utf8, false)]),
            vec![Column::from_i64(vec![1])],
        );
        assert!(r.is_err());
    }

    #[test]
    fn construction_validates_nullability() {
        let r = RecordBatch::try_new(
            Schema::new(vec![Field::new("a", DataType::Int64, false)]),
            vec![Column::from_opt_i64(vec![Some(1), None])],
        );
        assert!(r.is_err());
    }

    #[test]
    fn row_access() {
        let b = batch();
        assert_eq!(
            b.row(0).unwrap(),
            vec![Value::Int64(1), Value::Utf8("a".into())]
        );
        assert_eq!(b.row(1).unwrap(), vec![Value::Int64(2), Value::Null]);
        assert!(b.row(9).is_err());
    }

    #[test]
    fn project_and_slice() {
        let b = batch();
        let p = b.project(&["name"]).unwrap();
        assert_eq!(p.num_columns(), 1);
        let s = b.slice(1, 2).unwrap();
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.row(0).unwrap()[0], Value::Int64(2));
    }

    #[test]
    fn clone_slice_and_project_share_values_and_copy_rows_does_not() {
        let b = batch();
        let ids = |b: &RecordBatch| b.column(0).as_i64().unwrap().0.as_ptr();
        assert_eq!(ids(&b.clone()), ids(&b));
        assert_eq!(ids(&b.project(&["id"]).unwrap()), ids(&b));
        let tail = b.slice(1, 2).unwrap();
        assert_eq!(ids(&tail), b.column(0).as_i64().unwrap().0[1..].as_ptr());
        let own = b.copy_rows(1, 2).unwrap();
        assert_eq!(own, tail);
        assert_ne!(ids(&own), ids(&tail));
    }

    #[test]
    fn concat_batches() {
        let b = batch();
        let c = RecordBatch::concat(&[b.clone(), b]).unwrap();
        assert_eq!(c.num_rows(), 6);
    }

    #[test]
    fn chunks_cover_all_rows() {
        let b = batch();
        let chunks = b.chunks(2).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].num_rows(), 2);
        assert_eq!(chunks[1].num_rows(), 1);
        assert!(b.chunks(0).is_err());
    }

    #[test]
    fn empty_batch() {
        let b = RecordBatch::new_empty(Schema::new(vec![Field::new("x", DataType::Float64, true)]));
        assert_eq!(b.num_rows(), 0);
        assert_eq!(b.chunks(10).unwrap().len(), 1);
    }

    #[test]
    fn approx_bytes_nonzero() {
        assert!(batch().approx_bytes() > 0);
    }
}
