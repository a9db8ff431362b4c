//! Golden-result SQL coverage: every supported construct checked against
//! hand-computed answers on a small fixed dataset, through the full platform
//! (catalog + Iceberg-style tables + engine), not just the in-memory engine.

use bauplan_core::{Lakehouse, LakehouseConfig};
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema, Value};

/// employees: 8 rows, deliberate nulls and duplicates.
///
/// | id | name    | dept  | salary | bonus | hired (date) |
/// |----|---------|-------|--------|-------|--------------|
/// | 1  | amy     | eng   | 100.0  | 10    | 100          |
/// | 2  | bob     | eng   | 80.0   | NULL  | 200          |
/// | 3  | cat     | sales | 60.0   | 5     | 300          |
/// | 4  | dan     | sales | 60.0   | 5     | 400          |
/// | 5  | eve     | ops   | 50.0   | NULL  | 500          |
/// | 6  | fay     | NULL  | 40.0   | 2     | 600          |
/// | 7  | gus     | eng   | 120.0  | 20    | 700          |
/// | 8  | amy     | sales | 70.0   | 7     | 800          |
fn lakehouse() -> Lakehouse {
    let lh = Lakehouse::in_memory(LakehouseConfig::zero_latency()).unwrap();
    let employees = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("name", DataType::Utf8, false),
            Field::new("dept", DataType::Utf8, true),
            Field::new("salary", DataType::Float64, false),
            Field::new("bonus", DataType::Int64, true),
            Field::new("hired", DataType::Date, false),
        ]),
        vec![
            Column::from_i64(vec![1, 2, 3, 4, 5, 6, 7, 8]),
            Column::from_strs(vec!["amy", "bob", "cat", "dan", "eve", "fay", "gus", "amy"]),
            Column::from_opt_str(vec![
                Some("eng"),
                Some("eng"),
                Some("sales"),
                Some("sales"),
                Some("ops"),
                None,
                Some("eng"),
                Some("sales"),
            ]),
            Column::from_f64(vec![100.0, 80.0, 60.0, 60.0, 50.0, 40.0, 120.0, 70.0]),
            Column::from_opt_i64(vec![
                Some(10),
                None,
                Some(5),
                Some(5),
                None,
                Some(2),
                Some(20),
                Some(7),
            ]),
            Column::from_date(vec![100, 200, 300, 400, 500, 600, 700, 800]),
        ],
    )
    .unwrap();
    lh.create_table("employees", &employees, "main").unwrap();
    let depts = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("dept", DataType::Utf8, false),
            Field::new("floor", DataType::Int64, false),
        ]),
        vec![
            Column::from_strs(vec!["eng", "sales", "hr"]),
            Column::from_i64(vec![3, 2, 1]),
        ],
    )
    .unwrap();
    lh.create_table("depts", &depts, "main").unwrap();
    lh
}

fn q(lh: &Lakehouse, sql: &str) -> RecordBatch {
    lh.query(sql, "main")
        .unwrap_or_else(|e| panic!("query failed: {sql}\n{e}"))
}

fn i(v: &Value) -> i64 {
    v.as_i64().unwrap_or_else(|| panic!("not an int: {v:?}"))
}

fn f(v: &Value) -> f64 {
    v.as_f64().unwrap_or_else(|| panic!("not a float: {v:?}"))
}

#[test]
fn scalar_expressions() {
    let lh = lakehouse();
    let b = q(
        &lh,
        "SELECT 1 + 2 * 3 AS a, (1 + 2) * 3 AS b, 10 % 3 AS c, -7 / 2 AS d",
    );
    let row = b.row(0).unwrap();
    assert_eq!(i(&row[0]), 7);
    assert_eq!(i(&row[1]), 9);
    assert_eq!(i(&row[2]), 1);
    assert_eq!(i(&row[3]), -3);
}

#[test]
fn where_composites() {
    let lh = lakehouse();
    assert_eq!(
        q(
            &lh,
            "SELECT * FROM employees WHERE salary >= 60.0 AND salary <= 100.0"
        )
        .num_rows(),
        5
    );
    assert_eq!(
        q(
            &lh,
            "SELECT * FROM employees WHERE dept = 'eng' OR dept = 'ops'"
        )
        .num_rows(),
        4
    );
    assert_eq!(
        q(&lh, "SELECT * FROM employees WHERE NOT (salary > 60.0)").num_rows(),
        4
    );
    assert_eq!(
        q(
            &lh,
            "SELECT * FROM employees WHERE salary BETWEEN 60.0 AND 80.0"
        )
        .num_rows(),
        4
    );
    assert_eq!(
        q(&lh, "SELECT * FROM employees WHERE name IN ('amy', 'gus')").num_rows(),
        3
    );
    assert_eq!(
        q(
            &lh,
            "SELECT * FROM employees WHERE name NOT IN ('amy', 'gus')"
        )
        .num_rows(),
        5
    );
}

#[test]
fn null_semantics() {
    let lh = lakehouse();
    // Comparisons with NULL never match.
    assert_eq!(
        q(&lh, "SELECT * FROM employees WHERE bonus > 0").num_rows(),
        6
    );
    assert_eq!(
        q(&lh, "SELECT * FROM employees WHERE bonus IS NULL").num_rows(),
        2
    );
    assert_eq!(
        q(&lh, "SELECT * FROM employees WHERE dept IS NOT NULL").num_rows(),
        7
    );
    // COALESCE fills.
    let b = q(
        &lh,
        "SELECT SUM(COALESCE(bonus, 0)) AS total FROM employees",
    );
    assert_eq!(i(&b.row(0).unwrap()[0]), 49);
    // NULL dept is its own group.
    let b = q(
        &lh,
        "SELECT dept, COUNT(*) AS n FROM employees GROUP BY dept",
    );
    assert_eq!(b.num_rows(), 4);
}

#[test]
fn aggregate_battery() {
    let lh = lakehouse();
    let b = q(
        &lh,
        "SELECT COUNT(*) AS c, COUNT(bonus) AS cb, COUNT(DISTINCT dept) AS cd, \
         SUM(salary) AS s, AVG(salary) AS a, MIN(salary) AS mn, MAX(salary) AS mx \
         FROM employees",
    );
    let row = b.row(0).unwrap();
    assert_eq!(i(&row[0]), 8);
    assert_eq!(i(&row[1]), 6);
    assert_eq!(i(&row[2]), 3); // eng, sales, ops (NULL not counted)
    assert!((f(&row[3]) - 580.0).abs() < 1e-9);
    assert!((f(&row[4]) - 72.5).abs() < 1e-9);
    assert!((f(&row[5]) - 40.0).abs() < 1e-9);
    assert!((f(&row[6]) - 120.0).abs() < 1e-9);
}

#[test]
fn group_by_having_order() {
    let lh = lakehouse();
    let b = q(
        &lh,
        "SELECT dept, COUNT(*) AS n, AVG(salary) AS avg_sal FROM employees \
         WHERE dept IS NOT NULL GROUP BY dept HAVING COUNT(*) >= 2 \
         ORDER BY avg_sal DESC",
    );
    assert_eq!(b.num_rows(), 2);
    assert_eq!(b.row(0).unwrap()[0], Value::Utf8("eng".into()));
    assert!((f(&b.row(0).unwrap()[2]) - 100.0).abs() < 1e-9);
    assert_eq!(b.row(1).unwrap()[0], Value::Utf8("sales".into()));
}

#[test]
fn join_shapes() {
    let lh = lakehouse();
    // Inner join drops the NULL-dept and ops rows (no matching dept row).
    let b = q(
        &lh,
        "SELECT e.name, d.floor FROM employees e JOIN depts d ON e.dept = d.dept",
    );
    assert_eq!(b.num_rows(), 6);
    // Left join keeps everyone; unmatched floors are NULL.
    let b = q(
        &lh,
        "SELECT e.name, d.floor FROM employees e LEFT JOIN depts d ON e.dept = d.dept \
         ORDER BY e.id",
    );
    assert_eq!(b.num_rows(), 8);
    assert_eq!(b.row(4).unwrap()[1], Value::Null); // eve/ops
    assert_eq!(b.row(5).unwrap()[1], Value::Null); // fay/NULL
                                                   // Join + aggregate.
    let b = q(
        &lh,
        "SELECT d.floor, COUNT(*) AS n FROM employees e JOIN depts d ON e.dept = d.dept \
         GROUP BY d.floor ORDER BY d.floor",
    );
    assert_eq!(b.num_rows(), 2);
    assert_eq!(i(&b.row(0).unwrap()[1]), 3); // floor 2: sales×3
    assert_eq!(i(&b.row(1).unwrap()[1]), 3); // floor 3: eng×3
}

#[test]
fn distinct_and_limits() {
    let lh = lakehouse();
    assert_eq!(q(&lh, "SELECT DISTINCT name FROM employees").num_rows(), 7);
    assert_eq!(q(&lh, "SELECT DISTINCT dept FROM employees").num_rows(), 4);
    assert_eq!(
        q(&lh, "SELECT * FROM employees ORDER BY id LIMIT 3 OFFSET 6").num_rows(),
        2
    );
    let b = q(
        &lh,
        "SELECT id FROM employees ORDER BY salary DESC, id ASC LIMIT 2",
    );
    assert_eq!(i(&b.row(0).unwrap()[0]), 7); // 120
    assert_eq!(i(&b.row(1).unwrap()[0]), 1); // 100
}

#[test]
fn case_and_cast() {
    let lh = lakehouse();
    let b = q(
        &lh,
        "SELECT name, CASE WHEN salary >= 100.0 THEN 'senior' \
         WHEN salary >= 60.0 THEN 'mid' ELSE 'junior' END AS level, \
         CAST(salary AS BIGINT) AS sal_int \
         FROM employees ORDER BY id",
    );
    assert_eq!(b.row(0).unwrap()[1], Value::Utf8("senior".into()));
    assert_eq!(b.row(2).unwrap()[1], Value::Utf8("mid".into()));
    assert_eq!(b.row(5).unwrap()[1], Value::Utf8("junior".into()));
    assert_eq!(b.row(0).unwrap()[2], Value::Int64(100));
}

#[test]
fn string_functions_and_like() {
    let lh = lakehouse();
    let b = q(
        &lh,
        "SELECT UPPER(name) AS u, LENGTH(name) AS l, SUBSTR(name, 1, 2) AS pre \
         FROM employees WHERE name LIKE 'a%' ORDER BY id",
    );
    assert_eq!(b.num_rows(), 2);
    assert_eq!(b.row(0).unwrap()[0], Value::Utf8("AMY".into()));
    assert_eq!(b.row(0).unwrap()[1], Value::Int64(3));
    assert_eq!(b.row(0).unwrap()[2], Value::Utf8("am".into()));
    assert_eq!(
        q(&lh, "SELECT * FROM employees WHERE name LIKE '_a_'").num_rows(),
        3 // cat, dan, fay
    );
}

#[test]
fn date_filters() {
    let lh = lakehouse();
    // 1971-05-15 is day 499 since the epoch → hired on days 500..800 match.
    assert_eq!(
        q(
            &lh,
            "SELECT * FROM employees WHERE hired >= DATE '1971-05-15'"
        )
        .num_rows(),
        4
    );
    assert_eq!(
        q(
            &lh,
            "SELECT * FROM employees WHERE hired <= DATE '1970-04-11'"
        )
        .num_rows(),
        1 // only day 100 (1970-04-11 is day 100 since epoch, 0-based)
    );
}

#[test]
fn subqueries_nested_two_deep() {
    let lh = lakehouse();
    let b = q(
        &lh,
        "SELECT AVG(n) AS avg_group_size FROM \
         (SELECT dept, COUNT(*) AS n FROM \
           (SELECT dept FROM employees WHERE dept IS NOT NULL) x \
          GROUP BY dept) g",
    );
    // Groups: eng=3, sales=3, ops=1 → avg 7/3.
    assert!((f(&b.row(0).unwrap()[0]) - 7.0 / 3.0).abs() < 1e-9);
}

#[test]
fn arithmetic_between_columns() {
    let lh = lakehouse();
    let b = q(
        &lh,
        "SELECT id, salary + bonus AS total, salary * 0.1 AS tax FROM employees \
         WHERE bonus IS NOT NULL ORDER BY id",
    );
    assert!((f(&b.row(0).unwrap()[1]) - 110.0).abs() < 1e-9);
    assert!((f(&b.row(0).unwrap()[2]) - 10.0).abs() < 1e-9);
}

#[test]
fn order_by_null_placement() {
    let lh = lakehouse();
    // ASC: nulls first (engine convention, documented).
    let b = q(&lh, "SELECT dept FROM employees ORDER BY dept LIMIT 1");
    assert_eq!(b.row(0).unwrap()[0], Value::Null);
    // DESC: nulls last.
    let b = q(&lh, "SELECT dept FROM employees ORDER BY dept DESC LIMIT 1");
    assert_eq!(b.row(0).unwrap()[0], Value::Utf8("sales".into()));
}

#[test]
fn error_cases_are_errors_not_panics() {
    let lh = lakehouse();
    for bad in [
        "SELECT",
        "SELECT * FROM ghost_table",
        "SELECT ghost_col FROM employees",
        "SELECT name, COUNT(*) FROM employees", // non-grouped column
        "SELECT * FROM employees WHERE",
        "SELECT * FROM employees ORDER",
        "FROM employees SELECT *",
        "SELECT * FROM employees LIMIT abc",
        "SELECT CAST(salary AS NOPE) FROM employees",
        "SELECT UNKNOWN_FN(salary) FROM employees",
    ] {
        assert!(lh.query(bad, "main").is_err(), "should fail: {bad}");
    }
}

#[test]
fn quoted_identifiers() {
    let lh = lakehouse();
    let b = q(
        &lh,
        "SELECT \"name\" FROM employees WHERE \"salary\" > 100.0",
    );
    assert_eq!(b.num_rows(), 1);
}

#[test]
fn count_distinct_per_group() {
    let lh = lakehouse();
    let b = q(
        &lh,
        "SELECT dept, COUNT(DISTINCT name) AS names FROM employees \
         WHERE dept IS NOT NULL GROUP BY dept ORDER BY dept",
    );
    // eng: amy,bob,gus=3; ops: eve=1; sales: cat,dan,amy=3.
    assert_eq!(i(&b.row(0).unwrap()[1]), 3);
    assert_eq!(i(&b.row(1).unwrap()[1]), 1);
    assert_eq!(i(&b.row(2).unwrap()[1]), 3);
}

#[test]
fn a_select_without_from_reads_no_table_and_every_table_name_is_a_table() {
    let lh = lakehouse();
    let b = q(&lh, "SELECT 1 + 1 AS two");
    assert_eq!((b.num_rows(), i(&b.row(0).unwrap()[0])), (1, 2));
    // No name is kept for the one-row relation a FROM-less SELECT reads.
    let table = RecordBatch::try_new(
        Schema::new(vec![Field::new("k", DataType::Int64, false)]),
        vec![Column::from_i64(vec![7, 8])],
    )
    .unwrap();
    lh.create_table("__dual", &table, "main").unwrap();
    let b = q(&lh, "SELECT * FROM __dual");
    let rows: Vec<i64> = (0..b.num_rows())
        .map(|r| i(&b.row(r).unwrap()[0]))
        .collect();
    assert_eq!(rows, vec![7, 8]);
}
