//! CSV reading/writing with schema inference — the ingestion path that makes
//! the CLI and examples usable on real files (NYC TLC publishes CSVs).
//!
//! Dialect: comma-separated, `"` quoting with `""` escapes, first row is the
//! header. A column is Int64, Float64 (numbers, some fractional), Bool or
//! Date (`YYYY-MM-DD`, as [`write_csv`] writes dates) when every non-empty
//! cell is; any other mix is Utf8. Empty cells are nulls.

use crate::batch::RecordBatch;
use crate::column::ColumnBuilder;
use crate::datatype::{civil_from_days, days_from_civil, DataType, Value};
use crate::error::{ColumnarError, Result};
use crate::schema::{Field, Schema};

/// Parse CSV text (with a header row) into a batch, inferring column types.
pub fn read_csv(text: &str) -> Result<RecordBatch> {
    let mut rows = parse_rows(text)?;
    if rows.is_empty() {
        return Err(ColumnarError::InvalidArgument("empty CSV".into()));
    }
    let header = rows.remove(0);
    if header.is_empty() {
        return Err(ColumnarError::InvalidArgument("empty CSV header".into()));
    }
    for (i, row) in rows.iter().enumerate() {
        if row.len() != header.len() {
            return Err(ColumnarError::InvalidArgument(format!(
                "row {} has {} fields, header has {}",
                i + 2,
                row.len(),
                header.len()
            )));
        }
    }
    // Infer each column's type from the data.
    let types: Vec<DataType> = (0..header.len())
        .map(|c| infer_type(rows.iter().map(|r| r[c].as_str())))
        .collect();
    let mut builders: Vec<ColumnBuilder> = types
        .iter()
        .map(|&dt| ColumnBuilder::with_capacity(dt, rows.len()))
        .collect();
    for row in &rows {
        for (c, cell) in row.iter().enumerate() {
            let v = parse_cell(cell, types[c]);
            builders[c].push_value(&v)?;
        }
    }
    let fields: Vec<Field> = header
        .iter()
        .zip(&types)
        .map(|(name, &dt)| Field::new(name.trim(), dt, true))
        .collect();
    let columns = builders.into_iter().map(ColumnBuilder::finish).collect();
    RecordBatch::try_new(Schema::new(fields), columns)
}

/// Serialize a batch to CSV text (header row + data rows).
pub fn write_csv(batch: &RecordBatch) -> String {
    let mut out = String::new();
    let header: Vec<String> = batch
        .schema()
        .fields()
        .iter()
        .map(|f| quote(f.name()))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for r in 0..batch.num_rows() {
        let cells: Vec<String> = batch
            .columns()
            .iter()
            .map(|c| match c.get(r) {
                Ok(Value::Null) | Err(_) => String::new(),
                Ok(Value::Utf8(s)) => quote(&s),
                Ok(Value::Date(days)) => {
                    let (y, m, d) = civil_from_days(days as i64);
                    format!("{y:04}-{m:02}-{d:02}")
                }
                Ok(v) => v.to_string(),
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Split CSV text into rows of unquoted cells.
fn parse_rows(text: &str) -> Result<Vec<Vec<String>>> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut cell = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;
    while let Some(ch) = chars.next() {
        any = true;
        if in_quotes {
            match ch {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    cell.push('"');
                }
                '"' => in_quotes = false,
                other => cell.push(other),
            }
        } else {
            match ch {
                '"' => in_quotes = true,
                ',' => {
                    row.push(std::mem::take(&mut cell));
                }
                '\r' => {}
                '\n' => {
                    row.push(std::mem::take(&mut cell));
                    rows.push(std::mem::take(&mut row));
                }
                other => cell.push(other),
            }
        }
    }
    if in_quotes {
        return Err(ColumnarError::InvalidArgument(
            "unterminated quote in CSV".into(),
        ));
    }
    if any && (!cell.is_empty() || !row.is_empty()) {
        row.push(cell);
        rows.push(row);
    }
    Ok(rows)
}

fn infer_type<'a>(values: impl Iterator<Item = &'a str>) -> DataType {
    let mut column = None;
    for v in values.map(str::trim).filter(|v| !v.is_empty()) {
        let cell = if v.parse::<i64>().is_ok() {
            DataType::Int64
        } else if v.parse::<f64>().is_ok() {
            DataType::Float64
        } else if is_bool(v) {
            DataType::Bool
        } else if parse_date(v).is_some() {
            DataType::Date
        } else {
            return DataType::Utf8;
        };
        // Only integers widen (to floats): `1` beside `true` is text.
        column = Some(match (column, cell) {
            (None, cell) => cell,
            (Some(column), cell) if column == cell => column,
            (Some(DataType::Int64 | DataType::Float64), DataType::Int64 | DataType::Float64) => {
                DataType::Float64
            }
            _ => return DataType::Utf8,
        });
    }
    column.unwrap_or(DataType::Utf8)
}

fn is_bool(v: &str) -> bool {
    matches!(v.to_ascii_lowercase().as_str(), "true" | "false")
}

/// `YYYY-MM-DD`, a real calendar day, as days since the epoch.
fn parse_date(v: &str) -> Option<i32> {
    let &[y0, y1, y2, y3, b'-', m0, m1, b'-', d0, d1] = v.as_bytes() else {
        return None;
    };
    let number = |digits: &[u8]| {
        let digit = |n: u32, b: &u8| b.is_ascii_digit().then(|| n * 10 + (b - b'0') as u32);
        digits.iter().try_fold(0, digit)
    };
    let (y, m, d) = (
        number(&[y0, y1, y2, y3])?,
        number(&[m0, m1])?,
        number(&[d0, d1])?,
    );
    if !(1..=12).contains(&m) || d == 0 {
        return None;
    }
    let days = days_from_civil(y as i64, m, d);
    (civil_from_days(days) == (y as i64, m, d)).then_some(days as i32)
}

fn parse_cell(cell: &str, dt: DataType) -> Value {
    let trimmed = cell.trim();
    if trimmed.is_empty() {
        return Value::Null;
    }
    match dt {
        DataType::Int64 => trimmed
            .parse::<i64>()
            .map(Value::Int64)
            .unwrap_or(Value::Null),
        DataType::Float64 => trimmed
            .parse::<f64>()
            .map(Value::Float64)
            .unwrap_or(Value::Null),
        DataType::Bool => match trimmed.to_ascii_lowercase().as_str() {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => Value::Null,
        },
        DataType::Date => parse_date(trimmed).map_or(Value::Null, Value::Date),
        _ => Value::Utf8(cell.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn round_trip() {
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("id", DataType::Int64, true),
                Field::new("name", DataType::Utf8, true),
                Field::new("score", DataType::Float64, true),
            ]),
            vec![
                Column::from_opt_i64(vec![Some(1), Some(2), None]),
                Column::from_opt_str(vec![Some("alpha"), Some("with,comma"), Some("q\"uote")]),
                Column::from_opt_f64(vec![Some(1.5), None, Some(-2.0)]),
            ],
        )
        .unwrap();
        let text = write_csv(&batch);
        let back = read_csv(&text).unwrap();
        assert_eq!(back.num_rows(), 3);
        assert_eq!(back.schema().names(), vec!["id", "name", "score"]);
        for r in 0..3 {
            assert_eq!(back.row(r).unwrap(), batch.row(r).unwrap());
        }
    }

    #[test]
    fn type_inference() {
        let b = read_csv("a,b,c,d\n1,1.5,true,x\n2,2,false,y\n").unwrap();
        let types: Vec<DataType> = b.schema().fields().iter().map(|f| f.data_type()).collect();
        assert_eq!(
            types,
            vec![
                DataType::Int64,
                DataType::Float64,
                DataType::Bool,
                DataType::Utf8
            ]
        );
    }

    #[test]
    fn dates_round_trip_and_only_real_days_are_dates() {
        let days = Column::from_opt_date(vec![Some(17_987), None, Some(-1), Some(0)]);
        let schema = Schema::new(vec![Field::new("day", DataType::Date, true)]);
        let batch = RecordBatch::try_new(schema, vec![days]).unwrap();
        let text = write_csv(&batch);
        assert_eq!(text, "day\n2019-04-01\n\n1969-12-31\n1970-01-01\n");
        assert_eq!(read_csv(&text).unwrap(), batch);
        for not_a_day in [
            "2019-02-30",
            "2019-13-01",
            "2019-4-1",
            "19-04-01",
            "2019/04/01",
        ] {
            let b = read_csv(&format!("d\n2019-04-01\n{not_a_day}\n")).unwrap();
            assert_eq!(b.schema().field(0).data_type(), DataType::Utf8);
        }
    }

    #[test]
    fn a_column_of_numbers_and_booleans_is_text() {
        for text in ["x\n1\ntrue\n", "x\ntrue\n1\n", "x\n1.5\nfalse\n"] {
            let b = read_csv(text).unwrap();
            assert_eq!(b.schema().field(0).data_type(), DataType::Utf8, "{text:?}");
            assert_eq!(b.column(0).null_count(), 0, "no cell may turn NULL");
        }
        let b = read_csv("x\n1\n2.5\n").unwrap();
        assert_eq!(b.schema().field(0).data_type(), DataType::Float64);
    }

    #[test]
    fn empty_cells_are_nulls() {
        let b = read_csv("x,y\n1,\n,2\n").unwrap();
        assert_eq!(b.row(0).unwrap()[1], Value::Null);
        assert_eq!(b.row(1).unwrap()[0], Value::Null);
        assert_eq!(b.row(1).unwrap()[1], Value::Int64(2));
    }

    #[test]
    fn mixed_int_then_string_degrades_to_utf8() {
        let b = read_csv("x\n1\nhello\n").unwrap();
        assert_eq!(b.schema().field(0).data_type(), DataType::Utf8);
        assert_eq!(b.row(0).unwrap()[0], Value::Utf8("1".into()));
    }

    #[test]
    fn quoted_fields_with_newlines() {
        let b = read_csv("a,b\n\"line1\nline2\",2\n").unwrap();
        assert_eq!(b.num_rows(), 1);
        assert_eq!(b.row(0).unwrap()[0], Value::Utf8("line1\nline2".into()));
    }

    #[test]
    fn crlf_handled() {
        let b = read_csv("a,b\r\n1,2\r\n3,4\r\n").unwrap();
        assert_eq!(b.num_rows(), 2);
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(read_csv("a,b\n1\n").is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(read_csv("a\n\"oops\n").is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(read_csv("").is_err());
    }

    #[test]
    fn missing_trailing_newline_ok() {
        let b = read_csv("a,b\n1,2").unwrap();
        assert_eq!(b.num_rows(), 1);
    }

    #[test]
    fn all_empty_column_is_utf8_nulls() {
        let b = read_csv("a,b\n,1\n,2\n").unwrap();
        assert_eq!(b.schema().field(0).data_type(), DataType::Utf8);
        assert_eq!(b.column(0).null_count(), 2);
    }
}
