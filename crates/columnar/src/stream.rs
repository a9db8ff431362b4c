//! Pull-based batch streams: the interface of the streaming vectorized
//! executor.
//!
//! A [`BatchStream`] yields [`RecordBatch`]es one at a time until exhausted
//! (`Ok(None)`). Producers that can generate batches lazily (a table scan
//! reading one data file at a time) bound peak memory to a few batches
//! instead of the whole input, and consumers that finish early (a satisfied
//! `LIMIT`) simply stop pulling — the producer never materializes the rest.
//!
//! Errors from producers outside this crate travel as
//! [`crate::ColumnarError::External`]; the SQL layer converts them back at
//! the pipeline boundary.

use crate::batch::RecordBatch;
use crate::error::Result;
use crate::schema::Schema;

/// A pull-based source of record batches, all sharing one schema.
pub trait BatchStream {
    /// Schema of every batch this stream yields.
    fn schema(&self) -> &Schema;

    /// The next batch, or `None` once exhausted. Implementations may return
    /// empty batches; consumers should skip them rather than treat them as
    /// end-of-stream.
    fn next_batch(&mut self) -> Result<Option<RecordBatch>>;
}

impl<S: BatchStream + ?Sized> BatchStream for Box<S> {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        (**self).next_batch()
    }
}

/// A stream over a pre-materialized sequence of batches (in-memory tables,
/// test fixtures, and the materialized fallback of providers that cannot
/// scan lazily).
pub struct BatchesStream {
    schema: Schema,
    batches: std::vec::IntoIter<RecordBatch>,
}

impl BatchesStream {
    pub fn new(schema: Schema, batches: Vec<RecordBatch>) -> Self {
        BatchesStream {
            schema,
            batches: batches.into_iter(),
        }
    }

    /// A single-batch stream (the fully materialized case).
    pub fn one(batch: RecordBatch) -> Self {
        BatchesStream::new(batch.schema().clone(), vec![batch])
    }
}

impl BatchStream for BatchesStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        Ok(self.batches.next())
    }
}

/// Drain a stream into one batch (schema-preserving even when no rows come
/// back). Mostly useful in tests; the SQL executor has its own collector
/// with memory accounting.
pub fn collect(stream: &mut dyn BatchStream) -> Result<RecordBatch> {
    let mut batches = Vec::new();
    while let Some(b) = stream.next_batch()? {
        if b.num_rows() > 0 {
            batches.push(b);
        }
    }
    RecordBatch::concat_all(stream.schema(), batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::datatype::DataType;
    use crate::schema::Field;

    fn batch(vals: Vec<i64>) -> RecordBatch {
        RecordBatch::try_new(
            Schema::new(vec![Field::new("x", DataType::Int64, false)]),
            vec![Column::from_i64(vals)],
        )
        .unwrap()
    }

    #[test]
    fn batches_stream_yields_in_order() {
        let mut s = BatchesStream::new(
            batch(vec![]).schema().clone(),
            vec![batch(vec![1, 2]), batch(vec![3])],
        );
        assert_eq!(s.next_batch().unwrap().unwrap().num_rows(), 2);
        assert_eq!(s.next_batch().unwrap().unwrap().num_rows(), 1);
        assert!(s.next_batch().unwrap().is_none());
    }

    #[test]
    fn collect_concats_and_preserves_schema_when_empty() {
        let schema = batch(vec![]).schema().clone();
        let mut s = BatchesStream::new(schema.clone(), vec![batch(vec![1]), batch(vec![2, 3])]);
        let out = collect(&mut s).unwrap();
        assert_eq!(out, batch(vec![1, 2, 3]));
        let mut empty = BatchesStream::new(schema.clone(), vec![]);
        let out = collect(&mut empty).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.schema(), &schema);
    }
}
