//! Partition specs: how rows map to partitions (Iceberg hidden partitioning).
//!
//! Unlike Hive-style partitioning, the *spec* owns the transform — queries
//! filter on the source column and the scan planner applies the transform to
//! predicate bounds, so users never reference partition directories.

use crate::error::{Result, TableError};
use crate::schema_def::ValueDef;
use lakehouse_columnar::datatype::civil_from_days;
use lakehouse_columnar::kernels::{CmpOp, Grouper};
use lakehouse_columnar::{Column, ColumnBuilder, DataType, RecordBatch, Schema, Value};
use serde::{Deserialize, Serialize};

/// A partition transform applied to a source column value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "transform", content = "param")]
pub enum Transform {
    /// The raw value.
    Identity,
    /// `hash(value) % n` buckets.
    Bucket(u32),
    /// Truncate strings to a prefix length / integers to a multiple width.
    Truncate(u32),
    /// Year number from a Date/Timestamp (approximate civil year).
    Year,
    /// `year * 12 + month` from a Date/Timestamp.
    Month,
    /// Day number (days since epoch) from a Date/Timestamp.
    Day,
}

const MICROS_PER_DAY: i64 = 86_400_000_000;

impl Transform {
    /// Apply the transform to a scalar. Nulls map to null; a value the
    /// transform cannot take is an `InvalidArgument`.
    pub fn apply(&self, v: &Value) -> Result<Value> {
        let days = match v {
            Value::Date(d) => Some(*d as i64),
            Value::Timestamp(t) => Some(t.div_euclid(MICROS_PER_DAY)),
            _ => None,
        };
        Ok(match (self, v, days) {
            (_, Value::Null, _) => Value::Null,
            (Transform::Identity, _, _) => v.clone(),
            (Transform::Bucket(n @ 1..), _, _) => {
                let h = lakehouse_columnar::kernels::hash::hash_value(0xcbf29ce484222325, v);
                Value::Int64((h % *n as u64) as i64)
            }
            (Transform::Truncate(w @ 1..), Value::Utf8(s), _) => {
                Value::Utf8(s.chars().take(*w as usize).collect())
            }
            (Transform::Truncate(w @ 1..), Value::Int64(i), _) => {
                Value::Int64(i.div_euclid(*w as i64).saturating_mul(*w as i64))
            }
            (Transform::Year, _, Some(days)) => Value::Int64(civil_from_days(days).0),
            (Transform::Month, _, Some(days)) => {
                let (y, m, _) = civil_from_days(days);
                Value::Int64(y * 12 + m as i64 - 1)
            }
            (Transform::Day, _, Some(days)) => Value::Int64(days),
            _ => {
                return Err(TableError::InvalidArgument(format!(
                    "partition transform {self:?} cannot take {v:?}"
                )))
            }
        })
    }

    /// Whether distinct values of a `source` column stay distinct under the
    /// transform, and keep their order: rows can then be grouped by the
    /// source column and only each group's key transformed, and a
    /// comparison projects with its own operator (the identity, and `Day`
    /// over dates — the common specs).
    fn injective_on(&self, source: DataType) -> bool {
        matches!(
            (self, source),
            (Transform::Identity, _) | (Transform::Day, DataType::Date)
        )
    }

    /// Whether a `source` column can be partitioned by the transform.
    fn accepts(&self, source: DataType) -> bool {
        use DataType::{Date, Int64, Timestamp, Utf8};
        match self {
            Transform::Identity => true,
            Transform::Bucket(n) => *n > 0,
            Transform::Truncate(w) => *w > 0 && matches!(source, Int64 | Utf8),
            Transform::Year | Transform::Month | Transform::Day => {
                matches!(source, Date | Timestamp)
            }
        }
    }

    /// Iceberg's inclusive projection of `source_column OP literal` onto
    /// the partition values: `(op', t(literal))` such that every row
    /// matching the predicate has a partition value `v` with `v op' t(literal)`.
    /// `None` when the field cannot prune on it.
    ///
    /// The identity compares the partition value as the kernel compares
    /// the row. Any other transform needs the literal as the kernel compares
    /// it with the source column (an integer is a timestamp's microseconds);
    /// a literal of another type is not projected. `Bucket` projects `=`
    /// only; a transform injective on the source keeps the operator; the
    /// others are monotone, so `<`/`<=` become `<=` and `>`/`>=` become
    /// `>=`, and `<>` does not prune.
    pub fn project(
        &self,
        op: CmpOp,
        literal: &Value,
        source: DataType,
    ) -> Result<Option<(CmpOp, Value)>> {
        // A float partition holds the first row's value for every row the
        // grouper takes as equal to it (`-0.0` and `0.0`, NaN payloads),
        // which the kernel does not.
        match (self, source) {
            (Transform::Identity, DataType::Float64) => return Ok(None),
            (Transform::Identity, _) => return Ok(Some((op, literal.clone()))),
            _ => {}
        }
        let literal = match (literal, source) {
            (Value::Int64(micros), DataType::Timestamp) => Value::Timestamp(*micros),
            (l, _) if l.data_type() == Some(source) => l.clone(),
            _ => return Ok(None),
        };
        let op = match (self, op) {
            _ if self.injective_on(source) => op,
            (Transform::Bucket(_), CmpOp::Eq) => CmpOp::Eq,
            (Transform::Bucket(_), _) | (_, CmpOp::NotEq) => return Ok(None),
            (_, CmpOp::Eq) => CmpOp::Eq,
            (_, CmpOp::Lt | CmpOp::LtEq) => CmpOp::LtEq,
            (_, CmpOp::Gt | CmpOp::GtEq) => CmpOp::GtEq,
        };
        Ok(Some((op, self.apply(&literal)?)))
    }

    /// Apply the transform to every cell of a column.
    fn apply_column(&self, col: &Column) -> Result<Column> {
        let dt = match self {
            Transform::Truncate(_) => col.data_type(),
            _ => DataType::Int64,
        };
        let mut out = ColumnBuilder::with_capacity(dt, col.len());
        for v in col.iter_values() {
            out.push_value(&self.apply(&v)?)?;
        }
        Ok(out.finish())
    }
}

/// One partition dimension: a source column plus a transform.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionField {
    pub source_column: String,
    pub transform: Transform,
}

/// A partition spec: zero or more partition fields. The empty spec means the
/// table is unpartitioned.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionSpec {
    pub fields: Vec<PartitionField>,
}

/// One partition's rows of a batch ([`PartitionSpec::split`]): its
/// partition values and its row indices, `None` for every row of the batch
/// (an unpartitioned spec's one group, or a batch all of whose rows fall in
/// one partition).
pub type PartitionRows = (Vec<ValueDef>, Option<Vec<usize>>);

impl PartitionSpec {
    pub fn unpartitioned() -> Self {
        Self::default()
    }

    pub fn new(fields: Vec<PartitionField>) -> Self {
        PartitionSpec { fields }
    }

    /// Identity-partition on a single column (the common case).
    pub fn identity(column: &str) -> Self {
        PartitionSpec {
            fields: vec![PartitionField {
                source_column: column.into(),
                transform: Transform::Identity,
            }],
        }
    }

    pub fn is_unpartitioned(&self) -> bool {
        self.fields.is_empty()
    }

    /// Validate against a table schema: every source column exists, and
    /// its type is one its transform takes.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        for f in &self.fields {
            let Ok(i) = schema.index_of(&f.source_column) else {
                return Err(TableError::InvalidArgument(format!(
                    "partition source column '{}' not in schema",
                    f.source_column
                )));
            };
            let source = schema.field(i).data_type();
            if !f.transform.accepts(source) {
                return Err(TableError::InvalidArgument(format!(
                    "partition transform {:?} cannot take column '{}' of type {}",
                    f.transform,
                    f.source_column,
                    source.name()
                )));
            }
        }
        Ok(())
    }

    /// Split a batch into per-partition sub-batches, in first-seen order.
    pub fn split(&self, batch: &RecordBatch) -> Result<Vec<PartitionRows>> {
        if self.is_unpartitioned() {
            return Ok(vec![(vec![], None)]);
        }
        // Group rows by the typed key interner (first-seen order, NULL its
        // own partition value) over each field's source column — transformed
        // first, once, unless transforming the groups' keys does as well.
        let (mut key_columns, mut deferred) = (Vec::new(), Vec::new());
        for f in &self.fields {
            let col = batch.column_by_name(&f.source_column)?;
            let injective = f.transform.injective_on(col.data_type());
            key_columns.push(match injective {
                true => col.clone(),
                false => f.transform.apply_column(col)?,
            });
            deferred.push(injective.then_some(f.transform));
        }
        let mut grouper = Grouper::new();
        let mut ids = Vec::new();
        grouper.group_ids(&key_columns, &mut ids)?;
        let mut sizes = vec![0usize; grouper.num_groups()];
        ids.iter().for_each(|&g| sizes[g as usize] += 1);
        let keys = grouper.key_columns();
        let whole = sizes.len() == 1;
        let mut groups = Vec::with_capacity(sizes.len());
        for (group, size) in sizes.into_iter().enumerate() {
            let mut values = Vec::with_capacity(keys.len());
            for (key, deferred) in keys.iter().zip(&deferred) {
                let v = key.get(group)?;
                values.push(ValueDef::from_value(&match deferred {
                    Some(transform) => transform.apply(&v)?,
                    None => v,
                }));
            }
            groups.push((values, (!whole).then(|| Vec::with_capacity(size))));
        }
        if !whole {
            for (row, &group) in ids.iter().enumerate() {
                if let Some(rows) = &mut groups[group as usize].1 {
                    rows.push(row);
                }
            }
        }
        Ok(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_columnar::{Column, DataType, Field};

    #[test]
    fn identity_passthrough() {
        assert_eq!(
            Transform::Identity.apply(&Value::Int64(5)).unwrap(),
            Value::Int64(5)
        );
    }

    #[test]
    fn bucket_stable_and_in_range() {
        let t = Transform::Bucket(8);
        let a = t.apply(&Value::Utf8("hello".into())).unwrap();
        let b = t.apply(&Value::Utf8("hello".into())).unwrap();
        assert_eq!(a, b);
        let Value::Int64(bucket) = a else { panic!() };
        assert!((0..8).contains(&bucket));
        assert!(Transform::Bucket(0).apply(&Value::Int64(1)).is_err());
    }

    #[test]
    fn truncate_strings_and_ints() {
        assert_eq!(
            Transform::Truncate(3)
                .apply(&Value::Utf8("abcdef".into()))
                .unwrap(),
            Value::Utf8("abc".into())
        );
        assert_eq!(
            Transform::Truncate(10).apply(&Value::Int64(27)).unwrap(),
            Value::Int64(20)
        );
        assert_eq!(
            Transform::Truncate(10).apply(&Value::Int64(-3)).unwrap(),
            Value::Int64(-10)
        );
        // The multiple below `i64::MIN` is not an `i64`: it saturates, and
        // the transform stays monotone.
        let least = Value::Int64(i64::MIN);
        assert_eq!(Transform::Truncate(10).apply(&least).unwrap(), least);
    }

    #[test]
    fn temporal_transforms() {
        // 2019-04-01 is day 17987 since epoch.
        let d = Value::Date(17_987);
        assert_eq!(Transform::Year.apply(&d).unwrap(), Value::Int64(2019));
        assert_eq!(
            Transform::Month.apply(&d).unwrap(),
            Value::Int64(2019 * 12 + 3)
        );
        assert_eq!(Transform::Day.apply(&d).unwrap(), Value::Int64(17_987));
        // Timestamp within the same day maps to the same day partition.
        let ts = Value::Timestamp(17_987 * 86_400_000_000 + 123);
        assert_eq!(Transform::Day.apply(&ts).unwrap(), Value::Int64(17_987));
    }

    #[test]
    fn civil_from_days_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(17_987), (2019, 4, 1));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn null_maps_to_null() {
        assert_eq!(Transform::Year.apply(&Value::Null).unwrap(), Value::Null);
    }

    #[test]
    fn year_on_non_temporal_errors() {
        assert!(Transform::Year.apply(&Value::Int64(5)).is_err());
    }

    fn batch() -> RecordBatch {
        RecordBatch::try_new(
            Schema::new(vec![
                Field::new("city", DataType::Utf8, false),
                Field::new("n", DataType::Int64, false),
            ]),
            vec![
                Column::from_strs(vec!["nyc", "sf", "nyc", "sf", "nyc"]),
                Column::from_i64(vec![1, 2, 3, 4, 5]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn split_groups_rows() {
        let spec = PartitionSpec::identity("city");
        let groups = spec.split(&batch()).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, vec![ValueDef::Str("nyc".into())]);
        assert_eq!(groups[0].1, Some(vec![0, 2, 4]));
        assert_eq!(groups[1].1, Some(vec![1, 3]));
    }

    /// The pre-interner `split`: a partition tuple per row, grouped by
    /// linear search in first-seen order.
    fn split_per_row(
        spec: &PartitionSpec,
        batch: &RecordBatch,
    ) -> Vec<(Vec<ValueDef>, Vec<usize>)> {
        let mut groups: Vec<(Vec<ValueDef>, Vec<usize>)> = Vec::new();
        for row in 0..batch.num_rows() {
            let value = |f: &PartitionField| {
                let v = batch.column_by_name(&f.source_column).unwrap().get(row);
                ValueDef::from_value(&f.transform.apply(&v.unwrap()).unwrap())
            };
            let values: Vec<ValueDef> = spec.fields.iter().map(value).collect();
            match groups.iter_mut().find(|(v, _)| *v == values) {
                Some((_, rows)) => rows.push(row),
                None => groups.push((values, vec![row])),
            }
        }
        groups
    }

    #[test]
    fn multi_field_split_matches_per_row_result() {
        let n = 500usize;
        let opt = |i: usize, m: usize| !i.is_multiple_of(m);
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("at", DataType::Date, true),
                Field::new("ts", DataType::Timestamp, true),
                Field::new("id", DataType::Int64, true),
                Field::new("city", DataType::Utf8, true),
            ]),
            vec![
                Column::from_opt_date(
                    (0..n)
                        .map(|i| opt(i, 7).then_some(17_000 + (i * 31 % 5) as i32))
                        .collect(),
                ),
                Column::from_opt_timestamp(
                    (0..n)
                        .map(|i| opt(i, 11).then_some((i as i64 * 37 % 3 - 1) * MICROS_PER_DAY + 5))
                        .collect(),
                ),
                Column::from_opt_i64(
                    (0..n)
                        .map(|i| opt(i, 5).then_some(i as i64 * 13 % 17))
                        .collect(),
                ),
                Column::from_opt_str(
                    (0..n)
                        .map(|i| opt(i, 3).then_some(["nyc", "sf", ""][i * 7 % 3]))
                        .collect(),
                ),
            ],
        )
        .unwrap();
        let field = |source: &str, transform| PartitionField {
            source_column: source.into(),
            transform,
        };
        for fields in [
            vec![
                field("at", Transform::Day),
                field("id", Transform::Bucket(4)),
                field("city", Transform::Identity),
            ],
            vec![field("ts", Transform::Day), field("at", Transform::Month)],
            vec![
                field("city", Transform::Truncate(1)),
                field("id", Transform::Truncate(5)),
            ],
        ] {
            let spec = PartitionSpec::new(fields);
            let groups = spec.split(&batch).unwrap();
            assert!(groups.len() > 3, "the input spreads over partitions");
            let rows = groups.into_iter().map(|(v, rows)| (v, rows.unwrap()));
            assert_eq!(
                rows.collect::<Vec<_>>(),
                split_per_row(&spec, &batch),
                "{spec:?}"
            );
        }
        // An unsupported transform still fails as it did cell by cell.
        assert!(PartitionSpec::new(vec![field("id", Transform::Year)])
            .split(&batch)
            .is_err());
    }

    #[test]
    fn unpartitioned_split_is_single_group() {
        let spec = PartitionSpec::unpartitioned();
        let groups = spec.split(&batch()).unwrap();
        assert_eq!(groups, vec![(vec![], None)]);
        // One partition value: every row, with no index vector either.
        let one_city = batch().slice(0, 1).unwrap();
        let groups = PartitionSpec::identity("city").split(&one_city).unwrap();
        assert_eq!(groups, vec![(vec![ValueDef::Str("nyc".into())], None)]);
    }

    #[test]
    fn validate_unknown_column() {
        let spec = PartitionSpec::identity("missing");
        assert!(spec.validate(batch().schema()).is_err());
        assert!(PartitionSpec::identity("city")
            .validate(batch().schema())
            .is_ok());
    }

    #[test]
    fn projection_per_transform() {
        use CmpOp::{Eq, Gt, GtEq, Lt, LtEq, NotEq};
        use DataType::{Date, Float64, Int64, Timestamp};
        use Transform::{Bucket, Day, Identity, Month, Truncate};
        let (int, float) = (Value::Int64, Value::Float64);
        let bucket_of_7 = Bucket(4).apply(&Value::Timestamp(7)).unwrap();
        for (t, op, literal, source, want) in [
            // The identity compares as the kernel does; a float partition
            // never prunes.
            (Identity, Gt, int(5), Timestamp, Some((Gt, int(5)))),
            (Identity, Eq, float(0.0), Float64, None),
            // Monotone: a row after April 15th may lie in April.
            (
                Month,
                Gt,
                Value::Date(18_001),
                Date,
                Some((GtEq, int(2019 * 12 + 3))),
            ),
            (Truncate(10), Lt, int(27), Int64, Some((LtEq, int(20)))),
            (Truncate(10), NotEq, int(27), Int64, None),
            // Injective: the operator stays.
            (Day, NotEq, Value::Date(5), Date, Some((NotEq, int(5)))),
            // The literal as the kernel compares it with the column.
            (
                Day,
                Lt,
                int(MICROS_PER_DAY + 1),
                Timestamp,
                Some((LtEq, int(1))),
            ),
            (Bucket(4), Eq, int(7), Timestamp, Some((Eq, bucket_of_7))),
            (Bucket(4), Lt, int(7), Int64, None),
            (Truncate(10), Eq, float(5.0), Int64, None),
        ] {
            let got = t.project(op, &literal, source).unwrap();
            assert_eq!(got, want, "{t:?} {} {literal:?}", op.symbol());
        }
    }

    #[test]
    fn spec_json_round_trip() {
        let spec = PartitionSpec::new(vec![
            PartitionField {
                source_column: "d".into(),
                transform: Transform::Month,
            },
            PartitionField {
                source_column: "id".into(),
                transform: Transform::Bucket(16),
            },
        ]);
        let json = serde_json::to_string(&spec).unwrap();
        let back: PartitionSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
