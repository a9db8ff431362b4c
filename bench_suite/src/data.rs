//! The lake every workload reads: generated taxi trips plus a zone dimension.

use bauplan_core::{builtins, Lakehouse};
use lakehouse_columnar::{Column, DataType, Field, RecordBatch, Schema};
use lakehouse_table::{PartitionField, PartitionSpec, Transform};
use lakehouse_workload::TaxiGenerator;

/// 2019-03-01, the generator's first pickup day (days since epoch).
pub const START_DAY: i32 = 17_956;
/// March + April 2019: one data file per day once partitioned.
pub const DAYS: i32 = 61;
pub const ZONES: i64 = 263;
/// 2019-04-01: the taxi pipeline's `trips` node keeps pickups from this day
/// on.
pub const TRIPS_FROM_DAY: i32 = 17_987;

/// Five payment types with a skewed share, so the format writer
/// dictionary-encodes the column and the dictionary kernels run.
const PAYMENTS: [(&str, u64); 5] = [
    ("card", 45),
    ("cash", 80),
    ("app", 92),
    ("voucher", 98),
    ("dispute", 100),
];

const BOROUGHS: [&str; 6] = [
    "Manhattan",
    "Brooklyn",
    "Queens",
    "Bronx",
    "Staten Island",
    "EWR",
];

pub fn generator(seed: u64) -> TaxiGenerator {
    TaxiGenerator {
        seed,
        start_day: START_DAY,
        days: DAYS,
        ..Default::default()
    }
}

/// `rows` generated trips plus a `payment_type` column derived from the
/// fare's cents, so it is a pure function of the generated row.
pub fn taxi_batch(gen: &TaxiGenerator, rows: usize) -> RecordBatch {
    let base = gen.generate(rows);
    let (fares, _) = base
        .column_by_name("fare")
        .and_then(|c| c.as_f64())
        .expect("generator emits a fare column");
    let payment: Vec<String> = fares
        .iter()
        .map(|f| {
            let bucket = (f * 1000.0) as u64 % 100;
            let (name, _) = PAYMENTS
                .iter()
                .find(|(_, upto)| bucket < *upto)
                .expect("buckets cover 0..100");
            name.to_string()
        })
        .collect();
    let mut fields = base.schema().fields().to_vec();
    fields.push(Field::new("payment_type", DataType::Utf8, false));
    let mut columns = base.columns().to_vec();
    columns.push(Column::from_str_vec(payment));
    RecordBatch::try_new(Schema::new(fields), columns).expect("derived batch is well formed")
}

/// The 263-row `zones(zone_id, borough)` dimension.
pub fn zones_batch() -> RecordBatch {
    let ids: Vec<i64> = (1..=ZONES).collect();
    let boroughs: Vec<&str> = ids
        .iter()
        .map(|id| BOROUGHS[(id * 7 % 23 % 6) as usize])
        .collect();
    RecordBatch::try_new(
        Schema::new(vec![
            Field::new("zone_id", DataType::Int64, false),
            Field::new("borough", DataType::Utf8, false),
        ]),
        vec![Column::from_i64(ids), Column::from_strs(boroughs)],
    )
    .expect("zones batch is well formed")
}

pub fn day_partitioned() -> PartitionSpec {
    PartitionSpec::new(vec![PartitionField {
        source_column: "pickup_at".into(),
        transform: Transform::Day,
    }])
}

/// Seed `taxi_table` (partitioned by pickup day) and `zones` on `main`.
pub fn seed_lake(lh: &Lakehouse, taxi: &RecordBatch) -> bauplan_core::Result<()> {
    lh.create_table_partitioned("taxi_table", taxi, "main", day_partitioned())?;
    lh.create_table("zones", &zones_batch(), "main")?;
    register_expectation(lh);
    Ok(())
}

/// The taxi pipeline's audit, `mean(trips.count) > 1`: generated passenger
/// counts average 3.5, so it passes.
pub fn register_expectation(lh: &Lakehouse) {
    lh.register_function(
        "trips_expectation_impl",
        builtins::mean_greater_than("trips", "count", 1.0),
    );
}

/// `YYYY-MM-DD` for a day count since 1970-01-01 (civil-from-days).
pub fn date_string(days: i32) -> String {
    let z = i64::from(days) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dates_render() {
        assert_eq!(date_string(0), "1970-01-01");
        assert_eq!(date_string(START_DAY), "2019-03-01");
        assert_eq!(date_string(TRIPS_FROM_DAY), "2019-04-01");
        assert_eq!(date_string(START_DAY + DAYS - 1), "2019-04-30");
    }

    #[test]
    fn payment_type_is_low_cardinality_and_deterministic() {
        let a = taxi_batch(&generator(3), 5_000);
        let b = taxi_batch(&generator(3), 5_000);
        assert_eq!(a, b);
        let (values, _) = a.column_by_name("payment_type").unwrap().as_utf8().unwrap();
        let distinct: std::collections::BTreeSet<&String> = values.iter().collect();
        assert_eq!(distinct.len(), 5);
    }
}
