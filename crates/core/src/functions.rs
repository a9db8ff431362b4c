//! Native function registry: the Rust stand-in for the paper's Python steps.
//!
//! "As long as two languages can speak a common dialect over those tuples,
//! they can operate together" (§4.4.1) — here the common dialect is the
//! columnar [`RecordBatch`]; functions receive each named input as the
//! record batches it is held in (Arrow's table) and return either a new
//! artifact or an expectation verdict.

use crate::error::{BauplanError, Result};
use lakehouse_columnar::{Column, RecordBatch, Schema};
use std::collections::HashMap;
use std::sync::Arc;

/// A table in memory as Arrow holds one: a schema and its record batches,
/// in order — a SQL step's output as its root emitted them, or a lake table
/// as its scan read it, a batch per data file. The overlay, the functions
/// that read it and the materializer share one, never copying it.
#[derive(Debug, Clone)]
pub struct Batches {
    pub schema: Schema,
    pub batches: Vec<RecordBatch>,
}

impl Batches {
    /// One batch as a table.
    pub fn one(batch: RecordBatch) -> Batches {
        Batches {
            schema: batch.schema().clone(),
            batches: vec![batch],
        }
    }

    pub fn num_rows(&self) -> usize {
        self.batches.iter().map(RecordBatch::num_rows).sum()
    }

    /// Column `name` of every batch, in order.
    pub fn column(&self, name: &str) -> Result<Vec<&Column>> {
        let at = self.schema.index_of(name)?;
        Ok(self.batches.iter().map(|b| b.column(at)).collect())
    }
}

/// Inputs handed to a native function: each declared input's batches,
/// shared with the run's overlay rather than copied.
#[derive(Debug, Clone)]
pub struct FnContext {
    pub inputs: HashMap<String, Arc<Batches>>,
}

impl FnContext {
    /// A named input, as the batches it is held in.
    pub fn batches(&self, name: &str) -> Result<&Batches> {
        self.inputs.get(name).map(Arc::as_ref).ok_or_else(|| {
            BauplanError::Config(format!("function input '{name}' was not provided"))
        })
    }

    /// A named input as one batch: its batches concatenated (shared, not
    /// copied, when there is only one).
    pub fn input(&self, name: &str) -> Result<RecordBatch> {
        let input = self.batches(name)?;
        Ok(RecordBatch::concat_all(
            &input.schema,
            input.batches.clone(),
        )?)
    }
}

/// What a native function produces.
#[derive(Debug, Clone)]
pub enum FnOutput {
    /// A new artifact to materialize.
    Batch(RecordBatch),
    /// An expectation verdict: `true` = data is healthy.
    Expectation(bool),
}

/// A registered native function.
pub type NativeFunction = Arc<dyn Fn(&FnContext) -> Result<FnOutput> + Send + Sync>;

/// Name → implementation registry, shared by the platform and the CLI.
#[derive(Clone, Default)]
pub struct FunctionRegistry {
    functions: HashMap<String, NativeFunction>,
}

impl FunctionRegistry {
    pub fn new() -> FunctionRegistry {
        FunctionRegistry::default()
    }

    /// Register a function under an id (referenced by `NodeDef::function`).
    pub fn register(
        &mut self,
        id: impl Into<String>,
        f: impl Fn(&FnContext) -> Result<FnOutput> + Send + Sync + 'static,
    ) {
        self.functions.insert(id.into(), Arc::new(f));
    }

    pub fn get(&self, id: &str) -> Result<NativeFunction> {
        self.functions.get(id).cloned().ok_or_else(|| {
            BauplanError::Config(format!("native function '{id}' is not registered"))
        })
    }

    pub fn contains(&self, id: &str) -> bool {
        self.functions.contains_key(id)
    }
}

impl std::fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionRegistry")
            .field("functions", &self.functions.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Ready-made expectation builders mirroring common data tests. Each folds
/// over its input's batches.
pub mod builtins {
    use super::*;
    use lakehouse_columnar::kernels::{Accumulator, Aggregator};

    /// The paper's Appendix A expectation: `mean(input[column]) > threshold`.
    pub fn mean_greater_than(
        input: &str,
        column: &str,
        threshold: f64,
    ) -> impl Fn(&FnContext) -> Result<FnOutput> + Send + Sync {
        let input = input.to_string();
        let column = column.to_string();
        move |ctx| {
            let input = ctx.batches(&input)?;
            let at = input.schema.index_of(&column)?;
            let dt = input.schema.field(at).data_type();
            let mut mean = Accumulator::new(Aggregator::Avg, dt, 1);
            for col in input.column(&column)? {
                mean.update_all(col.len(), Some(col))?;
            }
            let mean = mean.finish()?.get(0)?;
            Ok(FnOutput::Expectation(
                mean.as_f64().is_some_and(|m| m > threshold),
            ))
        }
    }

    /// Expectation: the input has at least `min_rows` rows.
    pub fn min_row_count(
        input: &str,
        min_rows: usize,
    ) -> impl Fn(&FnContext) -> Result<FnOutput> + Send + Sync {
        let input = input.to_string();
        move |ctx| {
            Ok(FnOutput::Expectation(
                ctx.batches(&input)?.num_rows() >= min_rows,
            ))
        }
    }

    /// Expectation: a column has no nulls.
    pub fn no_nulls(
        input: &str,
        column: &str,
    ) -> impl Fn(&FnContext) -> Result<FnOutput> + Send + Sync {
        let input = input.to_string();
        let column = column.to_string();
        move |ctx| {
            let cols = ctx.batches(&input)?.column(&column)?;
            Ok(FnOutput::Expectation(
                cols.iter().all(|c| c.null_count() == 0),
            ))
        }
    }

    /// Expectation: every non-null value of a column lies in `[lo, hi]`.
    pub fn values_in_range(
        input: &str,
        column: &str,
        lo: f64,
        hi: f64,
    ) -> impl Fn(&FnContext) -> Result<FnOutput> + Send + Sync {
        let input = input.to_string();
        let column = column.to_string();
        move |ctx| {
            let cols = ctx.batches(&input)?.column(&column)?;
            let ok = cols
                .iter()
                .flat_map(|c| c.iter_values())
                .all(|v| match v.as_f64() {
                    Some(x) => x >= lo && x <= hi,
                    None => v.is_null(),
                });
            Ok(FnOutput::Expectation(ok))
        }
    }

    /// Expectation: a column's non-null values are unique (a key).
    pub fn unique_key(
        input: &str,
        column: &str,
    ) -> impl Fn(&FnContext) -> Result<FnOutput> + Send + Sync {
        let input = input.to_string();
        let column = column.to_string();
        move |ctx| {
            let cols = ctx.batches(&input)?.column(&column)?;
            let mut seen = std::collections::HashSet::new();
            for v in cols.iter().flat_map(|c| c.iter_values()) {
                if v.is_null() {
                    continue;
                }
                let key = lakehouse_columnar::kernels::hash::RowKey::from_values(
                    std::slice::from_ref(&v),
                );
                if !seen.insert(key) {
                    return Ok(FnOutput::Expectation(false));
                }
            }
            Ok(FnOutput::Expectation(true))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_columnar::{DataType, Field};

    /// `rows` as the `count` column of input `trips`, a batch per two rows.
    fn ctx(rows: Vec<i64>) -> FnContext {
        let schema = Schema::new(vec![Field::new("count", DataType::Int64, false)]);
        let batches = (rows.chunks(2))
            .map(|r| RecordBatch::try_new(schema.clone(), vec![Column::from_i64(r.to_vec())]))
            .collect::<lakehouse_columnar::Result<_>>()
            .unwrap();
        let trips = Arc::new(Batches { schema, batches });
        FnContext {
            inputs: HashMap::from([("trips".to_string(), trips)]),
        }
    }

    #[test]
    fn register_and_call() {
        let mut reg = FunctionRegistry::new();
        reg.register("double_check", |_ctx| Ok(FnOutput::Expectation(true)));
        assert!(reg.contains("double_check"));
        let f = reg.get("double_check").unwrap();
        match f(&ctx(vec![1])).unwrap() {
            FnOutput::Expectation(b) => assert!(b),
            _ => panic!(),
        }
    }

    #[test]
    fn unknown_function_errors() {
        assert!(FunctionRegistry::new().get("ghost").is_err());
    }

    #[test]
    fn mean_expectation_matches_paper() {
        // Paper: `m = trips['count'].mean(); return m > 10`.
        let f = builtins::mean_greater_than("trips", "count", 10.0);
        match f(&ctx(vec![20, 30])).unwrap() {
            FnOutput::Expectation(b) => assert!(b),
            _ => panic!(),
        }
        match f(&ctx(vec![1, 2])).unwrap() {
            FnOutput::Expectation(b) => assert!(!b),
            _ => panic!(),
        }
    }

    #[test]
    fn min_row_count_and_no_nulls() {
        let f = builtins::min_row_count("trips", 2);
        match f(&ctx(vec![1, 2, 3])).unwrap() {
            FnOutput::Expectation(b) => assert!(b),
            _ => panic!(),
        }
        let g = builtins::no_nulls("trips", "count");
        match g(&ctx(vec![1])).unwrap() {
            FnOutput::Expectation(b) => assert!(b),
            _ => panic!(),
        }
    }

    #[test]
    fn values_in_range_check() {
        let f = builtins::values_in_range("trips", "count", 0.0, 100.0);
        match f(&ctx(vec![1, 50, 100])).unwrap() {
            FnOutput::Expectation(b) => assert!(b),
            _ => panic!(),
        }
        match f(&ctx(vec![1, 101])).unwrap() {
            FnOutput::Expectation(b) => assert!(!b),
            _ => panic!(),
        }
    }

    #[test]
    fn unique_key_check() {
        let f = builtins::unique_key("trips", "count");
        match f(&ctx(vec![1, 2, 3])).unwrap() {
            FnOutput::Expectation(b) => assert!(b),
            _ => panic!(),
        }
        match f(&ctx(vec![1, 2, 1])).unwrap() {
            FnOutput::Expectation(b) => assert!(!b),
            _ => panic!(),
        }
    }

    #[test]
    fn missing_input_is_config_error() {
        let f = builtins::min_row_count("ghost", 1);
        assert!(f(&ctx(vec![1])).is_err());
    }
}
