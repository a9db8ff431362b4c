//! The top-level engine: SQL text in, record batch out.

use crate::ast::Expr;
use crate::error::Result;
use crate::logical::{plan_select, LogicalPlan, SchemaProvider};
use crate::optimizer::optimize;
use crate::parser::parse_select;
use lakehouse_columnar::{BatchStream, BatchesStream, RecordBatch, Schema};
use std::collections::HashMap;

/// Data access for execution: schema resolution plus scanning, with optional
/// projection and filter pushdown. A provider applies each pushed filter
/// either *exactly* — every row it yields passes it, as
/// [`Self::exact_filters`] states — or not at all, or only approximately
/// (pruning); the executor applies exactly the filters not stated exact,
/// and evaluates each filter at most once per row.
pub trait TableProvider: SchemaProvider {
    /// Scan a table as a pull-based stream of batches, in whatever units the
    /// provider holds it: a multi-file table yields one batch per data file,
    /// lazily, so files the consumer never pulls are never fetched; an
    /// in-memory table is a stream of one batch. `projection` lists the
    /// column names to return (in table order is acceptable); `filters` are
    /// conjunctive predicates: the stream must apply exactly the ones
    /// [`Self::exact_filters`] names for the same arguments, and may use any
    /// of the others to skip data; `fetch` is the plan's row budget
    /// ([`LogicalPlan::Scan::fetch`]) — the consumer stops pulling once that
    /// many rows have passed `filters`, so a provider that reads ahead
    /// should do so only as far as the budget is likely to reach, and `None`
    /// means every batch will be pulled.
    fn scan(
        &self,
        table: &str,
        projection: Option<&[String]>,
        filters: &[Expr],
        fetch: Option<usize>,
    ) -> Result<Box<dyn BatchStream>>;

    /// Which of `filters`, by position, the stream [`Self::scan`] returns for
    /// the same arguments has applied exactly: no row it yields fails one,
    /// so the executor does not evaluate it again. The default is none.
    fn exact_filters(
        &self,
        _table: &str,
        _projection: Option<&[String]>,
        filters: &[Expr],
    ) -> Vec<bool> {
        vec![false; filters.len()]
    }
}

/// What scanning an in-memory table — `batches`, of `schema` — yields: each
/// batch projected, sharing its columns. Under a row budget and no filter
/// to pass, only the budget's rows, in values of their own (`LIMIT 10` of a
/// million-row artifact keeps ten rows, not the artifact, alive).
pub fn scan_memory_table(
    schema: &Schema,
    batches: &[RecordBatch],
    projection: Option<&[String]>,
    filters: &[Expr],
    fetch: Option<usize>,
) -> Result<BatchesStream> {
    let names: Vec<&str> = match projection {
        Some(cols) => cols.iter().map(String::as_str).collect(),
        None => schema.fields().iter().map(|f| f.name()).collect(),
    };
    let mut budget = fetch.filter(|_| filters.is_empty()).unwrap_or(usize::MAX);
    let mut out = Vec::with_capacity(batches.len());
    for batch in batches.iter().map(|b| b.project(&names)) {
        let batch = batch?;
        let rows = budget.min(batch.num_rows());
        out.push(match rows < batch.num_rows() {
            true => batch.copy_rows(0, rows)?,
            false => batch,
        });
        budget -= rows;
    }
    Ok(BatchesStream::new(schema.project(&names)?, out))
}

/// A provider over in-memory named batches (used by tests, the fused
/// executor, and `bauplan query` over intermediate artifacts).
#[derive(Debug, Default, Clone)]
pub struct MemoryProvider {
    tables: HashMap<String, RecordBatch>,
}

impl MemoryProvider {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a table.
    pub fn register(&mut self, name: impl Into<String>, batch: RecordBatch) {
        self.tables.insert(name.into(), batch);
    }

    pub fn get(&self, name: &str) -> Option<&RecordBatch> {
        self.tables.get(name)
    }
}

impl SchemaProvider for MemoryProvider {
    fn table_schema(&self, table: &str) -> std::result::Result<Option<Schema>, String> {
        Ok(self.tables.get(table).map(|b| b.schema().clone()))
    }
}

impl TableProvider for MemoryProvider {
    fn scan(
        &self,
        table: &str,
        projection: Option<&[String]>,
        filters: &[Expr],
        fetch: Option<usize>,
    ) -> Result<Box<dyn BatchStream>> {
        let batch = self
            .tables
            .get(table)
            .ok_or_else(|| crate::error::SqlError::Plan(format!("unknown table: {table}")))?;
        let batches = std::slice::from_ref(batch);
        let stream = scan_memory_table(batch.schema(), batches, projection, filters, fetch)?;
        Ok(Box::new(stream))
    }
}

/// The SQL engine façade: text in, record batch out, every statement
/// through the one executor ([`crate::streaming`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct SqlEngine;

impl SqlEngine {
    pub fn new() -> Self {
        SqlEngine
    }

    /// Parse, plan, optimize, and execute a query.
    pub fn query(&self, sql: &str, provider: &dyn TableProvider) -> Result<RecordBatch> {
        Ok(self.query_with_report(sql, provider)?.0)
    }

    /// [`Self::query`], also reporting peak memory and per-operator row
    /// counts.
    pub fn query_with_report(
        &self,
        sql: &str,
        provider: &dyn TableProvider,
    ) -> Result<(RecordBatch, crate::streaming::ExecReport)> {
        let plan = self.plan(sql, provider)?;
        crate::streaming::execute_with_report(&plan, provider)
    }

    /// Produce the optimized logical plan without executing.
    pub fn plan(&self, sql: &str, provider: &dyn TableProvider) -> Result<LogicalPlan> {
        let stmt = parse_select(sql)?;
        // &dyn TableProvider upcasts to &dyn SchemaProvider (supertrait).
        let plan = plan_select(&stmt, provider as &dyn SchemaProvider)?;
        optimize(plan)
    }

    /// EXPLAIN: the optimized plan as text.
    pub fn explain(&self, sql: &str, provider: &dyn TableProvider) -> Result<String> {
        Ok(self.plan(sql, provider)?.display_indent())
    }

    /// EXPLAIN ANALYZE: execute the query under a forced trace and render
    /// the optimized plan annotated per operator with rows, batches, output
    /// bytes, and wall/simulated span time, with the recorded span tree (for
    /// exporters: Chrome trace, `bauplan profile`).
    pub fn explain_analyze_traced(
        &self,
        sql: &str,
        provider: &dyn TableProvider,
    ) -> Result<(RecordBatch, String, lakehouse_obs::SpanTree)> {
        let plan = self.plan(sql, provider)?;
        let trace = lakehouse_obs::Trace::start_forced("explain_analyze");
        let result = crate::streaming::execute(&plan, provider);
        let tree = trace.finish();
        let batch = result?;
        let text = crate::analyze::render_analyzed(&plan, &tree);
        Ok((batch, text, tree))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_columnar::{Column, DataType, Field, Value};

    fn provider() -> MemoryProvider {
        let mut p = MemoryProvider::new();
        // The paper's taxi_table (Appendix A shape).
        p.register(
            "taxi_table",
            RecordBatch::try_new(
                Schema::new(vec![
                    Field::new("pickup_location_id", DataType::Int64, false),
                    Field::new("dropoff_location_id", DataType::Int64, false),
                    Field::new("passenger_count", DataType::Int64, true),
                    Field::new("pickup_at", DataType::Date, false),
                    Field::new("fare", DataType::Float64, true),
                ]),
                vec![
                    Column::from_i64(vec![1, 1, 2, 2, 3, 3, 1, 2]),
                    Column::from_i64(vec![10, 20, 10, 20, 10, 30, 10, 10]),
                    Column::from_opt_i64(vec![
                        Some(1),
                        Some(2),
                        None,
                        Some(4),
                        Some(5),
                        Some(1),
                        Some(3),
                        Some(2),
                    ]),
                    Column::from_date(vec![
                        17_980, 17_985, 17_990, 17_995, 18_000, 18_005, 18_010, 18_015,
                    ]),
                    Column::from_opt_f64(vec![
                        Some(10.0),
                        Some(20.0),
                        Some(5.0),
                        None,
                        Some(50.0),
                        Some(7.5),
                        Some(12.5),
                        Some(30.0),
                    ]),
                ],
            )
            .unwrap(),
        );
        p.register(
            "zones",
            RecordBatch::try_new(
                Schema::new(vec![
                    Field::new("id", DataType::Int64, false),
                    Field::new("name", DataType::Utf8, false),
                ]),
                vec![
                    Column::from_i64(vec![1, 2, 3]),
                    Column::from_strs(vec!["midtown", "soho", "harlem"]),
                ],
            )
            .unwrap(),
        );
        p
    }

    fn q(sql: &str) -> RecordBatch {
        SqlEngine::new().query(sql, &provider()).unwrap()
    }

    #[test]
    fn a_memory_scan_copies_the_row_budget_not_the_table() {
        let p = provider();
        let rows_of = |filters: &[Expr], fetch| {
            let projection = ["fare".to_string()];
            let mut stream = p
                .scan("taxi_table", Some(&projection), filters, fetch)
                .unwrap();
            let batch = stream.next_batch().unwrap().unwrap();
            assert_eq!(batch.schema().names(), vec!["fare"]);
            batch.num_rows()
        };
        assert_eq!(rows_of(&[], Some(3)), 3);
        assert_eq!(rows_of(&[], Some(100)), 8);
        assert_eq!(rows_of(&[], None), 8);
        // The budget counts rows that pass the filters, which the provider
        // does not apply (it states none exact): all rows go up.
        let filter = Expr::IsNull {
            expr: Box::new(Expr::col("fare".to_string())),
            negated: false,
        };
        let filters = [filter];
        assert_eq!(rows_of(&filters, Some(3)), 8);
        assert_eq!(p.exact_filters("taxi_table", None, &filters), vec![false]);
        let limited = SqlEngine::new().query("SELECT fare FROM taxi_table LIMIT 3", &p);
        assert_eq!(limited.unwrap().num_rows(), 3);
    }

    #[test]
    fn a_bare_column_projection_shares_the_tables_values_and_a_limit_does_not() {
        let p = provider();
        let fares = |c: &Column| c.as_f64().map(|(v, _)| v.as_ptr()).unwrap();
        let table = p.get("taxi_table").unwrap().column_by_name("fare").unwrap();
        let q = |sql: &str| SqlEngine::new().query(sql, &p).unwrap();
        let renamed = q("SELECT fare AS f, pickup_location_id FROM taxi_table");
        assert_eq!(fares(renamed.column(0)), fares(table));
        // A cut of the table keeps its rows in values of their own.
        let limited = q("SELECT fare FROM taxi_table LIMIT 3");
        assert_eq!(limited.num_rows(), 3);
        assert_ne!(fares(limited.column(0)), fares(table));
    }

    #[test]
    fn select_star() {
        let b = q("SELECT * FROM taxi_table");
        assert_eq!(b.num_rows(), 8);
        assert_eq!(b.num_columns(), 5);
    }

    #[test]
    fn paper_step1_trips() {
        // Appendix A, Step 1.
        let b = q("SELECT pickup_location_id, passenger_count as count, \
                   dropoff_location_id FROM taxi_table WHERE pickup_at >= DATE '2019-04-01'");
        // 2019-04-01 = day 17987 → rows with pickup_at >= 17987: 6 rows.
        assert_eq!(b.num_rows(), 6);
        assert_eq!(
            b.schema().names(),
            vec!["pickup_location_id", "count", "dropoff_location_id"]
        );
    }

    #[test]
    fn paper_step3_pickups() {
        // Appendix A, Step 3: aggregate + order.
        let b = q(
            "SELECT pickup_location_id, dropoff_location_id, COUNT(*) AS counts \
                   FROM taxi_table GROUP BY pickup_location_id, dropoff_location_id \
                   ORDER BY counts DESC",
        );
        assert!(b.num_rows() >= 4);
        // Top group is (1,10) or (2,10) with count 2; counts must be
        // non-increasing.
        let counts = b.column_by_name("counts").unwrap();
        let values: Vec<i64> = counts.iter_values().map(|v| v.as_i64().unwrap()).collect();
        for w in values.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(values[0], 2); // (1,10) and (2,10) each appear twice
    }

    #[test]
    fn where_with_nulls_dropped() {
        let b = q("SELECT fare FROM taxi_table WHERE fare > 9.0");
        // fares: 10,20,50,12.5,30 > 9 (null dropped).
        assert_eq!(b.num_rows(), 5);
    }

    #[test]
    fn global_aggregates() {
        let b = q("SELECT COUNT(*) AS n, COUNT(fare) AS nf, SUM(fare) AS s, \
                   MIN(fare) AS mn, MAX(fare) AS mx, AVG(passenger_count) AS ap \
                   FROM taxi_table");
        assert_eq!(b.num_rows(), 1);
        let row = b.row(0).unwrap();
        assert_eq!(row[0], Value::Int64(8));
        assert_eq!(row[1], Value::Int64(7));
        assert_eq!(row[2], Value::Float64(135.0));
        assert_eq!(row[3], Value::Float64(5.0));
        assert_eq!(row[4], Value::Float64(50.0));
        let Value::Float64(avg) = row[5] else {
            panic!()
        };
        assert!((avg - 18.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn global_aggregate_on_empty_filter() {
        let b = q("SELECT COUNT(*) AS n, SUM(fare) AS s FROM taxi_table WHERE fare > 1000.0");
        assert_eq!(b.row(0).unwrap()[0], Value::Int64(0));
        assert_eq!(b.row(0).unwrap()[1], Value::Null);
    }

    #[test]
    fn grouped_aggregate_on_empty_filter_has_no_rows_and_every_column() {
        let b = q(
            "SELECT pickup_location_id, pickup_at, COUNT(*) AS n, SUM(fare) AS s \
             FROM taxi_table WHERE fare > 1000.0 GROUP BY pickup_location_id, pickup_at",
        );
        assert_eq!(b.num_rows(), 0);
        let types: Vec<DataType> = b.columns().iter().map(Column::data_type).collect();
        let (int, float) = (DataType::Int64, DataType::Float64);
        assert_eq!(types, vec![int, DataType::Date, int, float]);
    }

    #[test]
    fn having_filters_groups() {
        let b = q("SELECT pickup_location_id, COUNT(*) AS n FROM taxi_table \
                   GROUP BY pickup_location_id HAVING COUNT(*) > 2");
        assert_eq!(b.num_rows(), 2); // ids 1 (3 rows) and 2 (3 rows)
    }

    #[test]
    fn inner_join() {
        let b = q("SELECT name, fare FROM taxi_table t JOIN zones z \
                   ON t.pickup_location_id = z.id WHERE fare > 15.0");
        assert_eq!(b.num_rows(), 3); // fares 20 (id1), 50 (id3), 30 (id2)
        assert_eq!(b.schema().names(), vec!["name", "fare"]);
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let mut p = provider();
        p.register(
            "extra",
            RecordBatch::try_new(
                Schema::new(vec![
                    Field::new("zid", DataType::Int64, false),
                    Field::new("extra", DataType::Utf8, false),
                ]),
                vec![
                    Column::from_i64(vec![1]),
                    Column::from_strs(vec!["only-one"]),
                ],
            )
            .unwrap(),
        );
        let b = SqlEngine::new()
            .query(
                "SELECT z.name, e.extra FROM zones z LEFT JOIN extra e ON z.id = e.zid \
                 ORDER BY z.id",
                &p,
            )
            .unwrap();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.row(0).unwrap()[1], Value::Utf8("only-one".into()));
        assert_eq!(b.row(1).unwrap()[1], Value::Null);
    }

    #[test]
    fn order_by_multiple_and_limit_offset() {
        let b = q("SELECT pickup_location_id AS p, fare FROM taxi_table \
                   ORDER BY p ASC, fare DESC LIMIT 3 OFFSET 1");
        assert_eq!(b.num_rows(), 3);
        // Full order for p=1: fares 20, 12.5, 10 → offset 1 gives 12.5, 10, then p=2...
        assert_eq!(b.row(0).unwrap()[1], Value::Float64(12.5));
    }

    #[test]
    fn distinct_rows() {
        let b = q("SELECT DISTINCT pickup_location_id FROM taxi_table");
        assert_eq!(b.num_rows(), 3);
    }

    #[test]
    fn expressions_and_functions() {
        let b = q("SELECT UPPER(name) AS un, LENGTH(name) AS ln FROM zones ORDER BY id");
        assert_eq!(b.row(0).unwrap()[0], Value::Utf8("MIDTOWN".into()));
        assert_eq!(b.row(0).unwrap()[1], Value::Int64(7));
    }

    #[test]
    fn case_when() {
        let b = q(
            "SELECT CASE WHEN fare >= 20.0 THEN 'high' WHEN fare >= 10.0 THEN 'mid' \
                   ELSE 'low' END AS band, fare FROM taxi_table WHERE fare IS NOT NULL \
                   ORDER BY fare",
        );
        assert_eq!(b.row(0).unwrap()[0], Value::Utf8("low".into())); // 5.0
        let last = b.num_rows() - 1;
        assert_eq!(b.row(last).unwrap()[0], Value::Utf8("high".into())); // 50.0
    }

    #[test]
    fn between_and_in() {
        let b = q("SELECT fare FROM taxi_table WHERE fare BETWEEN 10.0 AND 30.0");
        assert_eq!(b.num_rows(), 4); // 10, 20, 12.5, 30
        let b = q("SELECT * FROM taxi_table WHERE pickup_location_id IN (1, 3)");
        assert_eq!(b.num_rows(), 5);
    }

    #[test]
    fn is_null_checks() {
        assert_eq!(
            q("SELECT * FROM taxi_table WHERE fare IS NULL").num_rows(),
            1
        );
        assert_eq!(
            q("SELECT * FROM taxi_table WHERE fare IS NOT NULL").num_rows(),
            7
        );
    }

    #[test]
    fn like_on_strings() {
        assert_eq!(q("SELECT * FROM zones WHERE name LIKE '%o%'").num_rows(), 2);
        assert_eq!(
            q("SELECT * FROM zones WHERE name NOT LIKE 'm%'").num_rows(),
            2
        );
    }

    #[test]
    fn arithmetic_in_projection() {
        let b = q("SELECT fare * 2.0 AS double_fare FROM taxi_table WHERE fare = 10.0");
        assert_eq!(b.row(0).unwrap()[0], Value::Float64(20.0));
    }

    #[test]
    fn cast_in_query() {
        let b = q(
            "SELECT CAST(passenger_count AS DOUBLE) AS pc FROM taxi_table \
                   WHERE passenger_count = 5",
        );
        assert_eq!(b.row(0).unwrap()[0], Value::Float64(5.0));
    }

    #[test]
    fn subquery_in_from() {
        let b = q(
            "SELECT count FROM (SELECT passenger_count AS count FROM taxi_table \
                   WHERE passenger_count IS NOT NULL) sub WHERE count >= 3",
        );
        assert_eq!(b.num_rows(), 3); // 4, 5, 3
    }

    #[test]
    fn select_without_from() {
        let b = q("SELECT 1 + 1 AS two, 'x' AS s");
        assert_eq!(b.num_rows(), 1);
        assert_eq!(b.row(0).unwrap()[0], Value::Int64(2));
    }

    #[test]
    fn select_without_from_reads_one_row_of_no_columns() {
        let b = q("SELECT 1 + 1");
        assert_eq!((b.num_rows(), b.num_columns()), (1, 1));
        assert_eq!(b.row(0).unwrap()[0], Value::Int64(2));
        let plan = SqlEngine::new().plan("SELECT 1 + 1", &provider()).unwrap();
        let LogicalPlan::Project { input, .. } = plan else {
            panic!("{plan:?}")
        };
        let LogicalPlan::Values { batch } = *input else {
            panic!("{input:?}")
        };
        assert_eq!((batch.num_rows(), batch.num_columns()), (1, 0));
    }

    #[test]
    fn explain_shows_pushdown() {
        let text = SqlEngine::new()
            .explain(
                "SELECT fare FROM taxi_table WHERE pickup_location_id = 1",
                &provider(),
            )
            .unwrap();
        assert!(text.contains("Scan: taxi_table"));
        assert!(text.contains("filters=["));
        assert!(text.contains("projection=["));
    }

    #[test]
    fn explain_analyze_annotates_every_operator() {
        let (batch, text, _) = SqlEngine::new()
            .explain_analyze_traced(
                "SELECT pickup_location_id, COUNT(*) AS n FROM taxi_table \
                 WHERE fare > 9.0 GROUP BY pickup_location_id",
                &provider(),
            )
            .unwrap();
        assert_eq!(batch.num_rows(), 3);
        for line in text.lines() {
            assert!(
                line.contains("[rows="),
                "unannotated operator line: {line:?}"
            );
        }
        // The aggregate emits exactly the three output groups.
        let agg = text
            .lines()
            .find(|l| l.trim_start().starts_with("Aggregate"))
            .unwrap();
        assert!(agg.contains("[rows=3 "), "{agg}");
    }

    #[test]
    fn explain_analyze_annotates_joins_and_subqueries() {
        let engine = SqlEngine::new();
        let (batch, text, _) = engine
            .explain_analyze_traced(
                "SELECT name, total FROM (SELECT pickup_location_id AS p, SUM(fare) AS total \
                 FROM taxi_table GROUP BY pickup_location_id) t JOIN zones z ON t.p = z.id \
                 ORDER BY total DESC LIMIT 2",
                &provider(),
            )
            .unwrap();
        assert_eq!(batch.num_rows(), 2);
        for line in text.lines() {
            assert!(
                line.contains("[rows="),
                "unannotated operator line: {line:?}"
            );
        }
    }

    #[test]
    fn unknown_table_is_plan_error() {
        assert!(SqlEngine::new()
            .query("SELECT * FROM ghost", &provider())
            .is_err());
    }

    #[test]
    fn aggregate_with_expression_over_group() {
        let b = q(
            "SELECT pickup_location_id, COUNT(*) + 1 AS n1 FROM taxi_table \
                   GROUP BY pickup_location_id ORDER BY pickup_location_id",
        );
        assert_eq!(b.row(0).unwrap()[1], Value::Int64(4)); // 3 rows + 1
    }

    #[test]
    fn count_distinct_native() {
        let b = q("SELECT COUNT(DISTINCT pickup_location_id) AS z,                    COUNT(DISTINCT dropoff_location_id) AS d FROM taxi_table");
        assert_eq!(b.row(0).unwrap()[0], Value::Int64(3));
        assert_eq!(b.row(0).unwrap()[1], Value::Int64(3));
    }

    #[test]
    fn count_distinct_grouped() {
        let b = q("SELECT pickup_location_id, COUNT(DISTINCT dropoff_location_id) AS d                    FROM taxi_table GROUP BY pickup_location_id ORDER BY pickup_location_id");
        // pickups 1 -> dropoffs {10,20}; 2 -> {10,20}; 3 -> {10,30}
        assert_eq!(b.row(0).unwrap()[1], Value::Int64(2));
        assert_eq!(b.row(1).unwrap()[1], Value::Int64(2));
        assert_eq!(b.row(2).unwrap()[1], Value::Int64(2));
    }

    /// `v(a, d)`, `t(a, b, c)` and `u(a, c, d)`: small tables whose column
    /// names collide.
    fn colliding() -> MemoryProvider {
        let mut p = MemoryProvider::new();
        let int = |n: &str| Field::new(n, DataType::Int64, true);
        let text = |n: &str| Field::new(n, DataType::Utf8, true);
        let batch = |fields, columns| RecordBatch::try_new(Schema::new(fields), columns).unwrap();
        p.register(
            "v",
            batch(
                vec![int("a"), int("d")],
                vec![
                    Column::from_i64(vec![1, 2, 3]),
                    Column::from_i64(vec![2, 3, 1]),
                ],
            ),
        );
        p.register(
            "t",
            batch(
                vec![
                    int("a"),
                    Field::new("b", DataType::Float64, true),
                    text("c"),
                ],
                vec![
                    Column::from_opt_i64(vec![Some(1), Some(2), None, Some(4), Some(2)]),
                    Column::from_opt_f64(vec![Some(1.5), None, Some(3.0), Some(-1.0), Some(2.0)]),
                    Column::from_strs(vec!["x", "y", "x", "z", "y"]),
                ],
            ),
        );
        p.register(
            "u",
            batch(
                vec![int("a"), text("c"), int("d")],
                vec![
                    Column::from_i64(vec![1, 2, 3]),
                    Column::from_strs(vec!["y", "x", "w"]),
                    Column::from_opt_i64(vec![Some(10), Some(20), None]),
                ],
            ),
        );
        p
    }

    /// `sql` over [`colliding`], as rows; the unoptimized plan must agree.
    fn rows(sql: &str) -> Vec<Vec<Value>> {
        let p = colliding();
        let got = SqlEngine::new().query(sql, &p).unwrap();
        let plan = plan_select(&parse_select(sql).unwrap(), &p).unwrap();
        assert_eq!(crate::execute(&plan, &p).unwrap(), got, "{sql}");
        (0..got.num_rows()).map(|r| got.row(r).unwrap()).collect()
    }

    fn int_rows(sql: &str) -> Vec<Vec<i64>> {
        let ints = |row: Vec<Value>| row.iter().map(|v| v.as_i64().unwrap()).collect();
        rows(sql).into_iter().map(ints).collect()
    }

    /// Each row's one value.
    fn column(sql: &str) -> Vec<Value> {
        rows(sql).into_iter().flatten().collect()
    }

    #[test]
    fn a_self_join_binds_each_on_key_to_its_side() {
        let sql = "SELECT * FROM v x JOIN v y ON y.a = x.d ORDER BY x.a";
        let want = vec![vec![1, 2, 2, 3], vec![2, 3, 3, 1], vec![3, 1, 1, 2]];
        assert_eq!(int_rows(sql), want);
        let names = SqlEngine::new().query(sql, &colliding()).unwrap();
        assert_eq!(names.schema().names(), vec!["a", "d", "y.a", "y.d"]);
    }

    #[test]
    fn grouping_by_two_columns_of_one_name_keeps_them_apart() {
        let got = rows(
            "SELECT t.c, u.c, COUNT(*) AS n FROM t JOIN u ON t.a = u.a \
             GROUP BY t.c, u.c ORDER BY n",
        );
        let row = |a: &str, b: &str, n| vec![Value::from(a), Value::from(b), Value::Int64(n)];
        assert_eq!(got, vec![row("x", "y", 1), row("y", "x", 2)]);
    }

    #[test]
    fn select_star_over_outputs_of_one_name_reads_each() {
        let got = rows("SELECT * FROM (SELECT a, b AS a FROM t) s");
        let second: Vec<Value> = got.iter().map(|r| r[1].clone()).collect();
        let b = [Some(1.5), None, Some(3.0), Some(-1.0), Some(2.0)];
        assert_eq!(
            second,
            b.map(|v| v.map_or(Value::Null, Value::Float64)).to_vec()
        );
    }

    #[test]
    fn a_qualifier_binds_only_to_its_own_relation() {
        let p = colliding();
        for sql in [
            "SELECT q.a FROM t",
            "SELECT u.b FROM t JOIN u ON t.a = u.a",
            "SELECT t.c FROM (SELECT c FROM t) s",
        ] {
            let err = SqlEngine::new().query(sql, &p).unwrap_err();
            assert!(matches!(err, crate::SqlError::Plan(_)), "{sql}: {err}");
        }
        // A bare name is the left-most column of that name.
        assert_eq!(
            column("SELECT c FROM t JOIN u ON t.a = u.a ORDER BY t.a, u.c"),
            ["x", "y", "y"].map(Value::from).to_vec()
        );
    }

    #[test]
    fn a_null_literal_takes_its_type_from_its_context() {
        let floats = [Some(1.5), None, Some(3.0), Some(-1.0), Some(2.0)];
        assert_eq!(
            column("SELECT COALESCE(NULL, b) AS x FROM t"),
            floats
                .map(|v| v.map_or(Value::Null, Value::Float64))
                .to_vec()
        );
        assert_eq!(
            column("SELECT COALESCE(NULL, c) AS x FROM t"),
            ["x", "y", "x", "z", "y"].map(Value::from).to_vec()
        );
        let texts = [Some("x"), None, Some("x"), None, None];
        assert_eq!(
            column("SELECT CASE WHEN a > 1 THEN NULL ELSE c END AS x FROM t"),
            texts.map(|v| v.map_or(Value::Null, Value::from)).to_vec()
        );
        assert_eq!(int_rows("SELECT COUNT(*) AS n FROM t WHERE NULL"), [[0]]);
        assert_eq!(
            int_rows("SELECT COUNT(*) AS n FROM t WHERE a > 1 OR NULL"),
            [[3]]
        );
    }

    /// `run` on a thread with the 2 MiB stack Rust gives the threads it
    /// spawns.
    fn on_small_stack<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
        let thread = std::thread::Builder::new().stack_size(2 << 20);
        thread.spawn(run).unwrap().join().unwrap()
    }

    #[test]
    fn an_expression_at_the_depth_limit_runs_and_a_deeper_one_is_a_parse_error() {
        use crate::parser::MAX_EXPR_DEPTH;
        // An OR chain is one tree level per OR, a comparison two more and
        // the WHERE clause one; a parenthesis is one level.
        let chain = |terms: usize| {
            let terms: Vec<String> = (0..terms).map(|i| format!("a = {i}")).collect();
            format!("SELECT COUNT(*) AS n FROM t WHERE {}", terms.join(" OR "))
        };
        let nested = |parens: usize| {
            let (open, close) = ("(".repeat(parens), ")".repeat(parens));
            format!("SELECT COUNT(*) AS n FROM t WHERE {open}a = 2{close}")
        };
        let (at, over) = (MAX_EXPR_DEPTH - 2, MAX_EXPR_DEPTH - 1);
        for (sql, n) in [(chain(at), 4), (nested(MAX_EXPR_DEPTH - 1), 2)] {
            let out = on_small_stack(move || {
                let p = colliding();
                let engine = SqlEngine::new();
                engine.explain(&sql, &p).unwrap();
                engine.query(&sql, &p).map(|b| b.row(0).unwrap())
            });
            assert_eq!(out.unwrap(), vec![Value::Int64(n)]);
        }
        for sql in [chain(over), nested(MAX_EXPR_DEPTH)] {
            let err = on_small_stack(move || SqlEngine::new().query(&sql, &colliding()));
            assert!(matches!(err, Err(crate::SqlError::Parse(_))), "{err:?}");
        }
    }

    #[test]
    fn count_distinct_like_via_subquery() {
        let b = q("SELECT COUNT(*) AS n FROM \
                   (SELECT DISTINCT pickup_location_id FROM taxi_table) d");
        assert_eq!(b.row(0).unwrap()[0], Value::Int64(3));
    }
}
