//! The power-law query mix: eight classes in fixed proportion, window length
//! from a power law (paper Fig. 1: most queries touch little data), window
//! end skewed toward the latest days.
//!
//! The sequence is built from identical *blocks* of [`BLOCK_LEN`] queries:
//! every block holds the same number of queries of each class and the same
//! multiset of window lengths per class (mid-stratum quantiles of a
//! `sample_power_law` pool), in one fixed order with seeded window positions.
//! A timed pass runs whole blocks, so however many blocks fit into the time
//! box, the medians and tail percentiles describe the same mix.

use crate::data::{date_string, DAYS, START_DAY};
use lakehouse_columnar::kernels::CmpOp;
use lakehouse_columnar::{RecordBatch, Value};
use lakehouse_workload::sample_power_law;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    PointCount,
    RangeAgg,
    BetweenAgg,
    DictGroup,
    DictFilterTopk,
    JoinDim,
    TopkSort,
    PeekLimit,
}

/// Queries of each class per block. Three classes read the whole table
/// today — `BETWEEN` is not pruned, a predicate above a join is not pushed
/// below it, `LIMIT` is not pushed into the scan — and are by far the
/// slowest. Ordered by cost they fill the top of every block's latency
/// distribution: `join_dim` the top 5 %, `peek_limit` the next 2.5 %,
/// `between_agg` the 7.5 % below, so p90 (the mixes' `wall_ms_tail`) falls
/// in the middle of `between_agg`, not on a cliff between classes. At the
/// other end, single-day `point_count` lookups are more than half of every
/// block (most queries touch little data), so the median is a `point_count`.
pub const BLOCK: [(Class, usize); 8] = [
    (Class::PointCount, 22),
    (Class::RangeAgg, 5),
    (Class::BetweenAgg, 3),
    (Class::DictGroup, 3),
    (Class::DictFilterTopk, 2),
    (Class::JoinDim, 2),
    (Class::TopkSort, 2),
    (Class::PeekLimit, 1),
];
pub const BLOCK_LEN: usize = 40;
/// Blocks in one generated sequence (200 queries).
pub const BLOCKS: usize = 5;

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::PointCount => "point_count",
            Class::RangeAgg => "range_agg",
            Class::BetweenAgg => "between_agg",
            Class::DictGroup => "dict_group",
            Class::DictFilterTopk => "dict_filter_topk",
            Class::JoinDim => "join_dim",
            Class::TopkSort => "topk_sort",
            Class::PeekLimit => "peek_limit",
        }
    }

    fn windowed(self) -> bool {
        !matches!(self, Class::PointCount | Class::PeekLimit)
    }

    /// Share of the mix, for weighted per-class means.
    pub fn weight(self) -> f64 {
        let n = BLOCK.iter().find(|(c, _)| *c == self).expect("listed").1;
        n as f64 / BLOCK_LEN as f64
    }
}

/// What the unrolled replay hands to `TableScan` for one table of a query:
/// the predicates the façade pushes down and the columns it projects.
#[derive(Debug, Clone)]
pub struct ScanSpec {
    pub table: &'static str,
    pub predicates: Vec<(&'static str, CmpOp, Value)>,
    pub projection: Option<Vec<&'static str>>,
}

#[derive(Debug, Clone)]
pub struct Query {
    pub class: Class,
    pub sql: String,
    pub scans: Vec<ScanSpec>,
    /// Row order of the result is fixed by the query (total `ORDER BY`), so
    /// rows can be compared with an oracle. False only for `peek_limit`,
    /// whose ten rows depend on file order.
    pub ordered: bool,
}

const ALL_COLUMNS: [&str; 7] = [
    "pickup_location_id",
    "dropoff_location_id",
    "passenger_count",
    "pickup_at",
    "trip_distance",
    "fare",
    "payment_type",
];

fn day_range(lo: i32, hi: i32) -> Vec<(&'static str, CmpOp, Value)> {
    vec![
        ("pickup_at", CmpOp::GtEq, Value::Date(lo)),
        ("pickup_at", CmpOp::LtEq, Value::Date(hi)),
    ]
}

fn taxi_scan(predicates: Vec<(&'static str, CmpOp, Value)>, columns: &[&'static str]) -> ScanSpec {
    // Scans return projected columns in table order.
    let projection = ALL_COLUMNS
        .iter()
        .copied()
        .filter(|c| columns.contains(c))
        .collect();
    ScanSpec {
        table: "taxi_table",
        predicates,
        projection: Some(projection),
    }
}

/// Build one query of `class` over the days `lo..=hi`.
pub fn build(class: Class, lo: i32, hi: i32, fare_floor: f64) -> Query {
    let (a, b) = (date_string(lo), date_string(hi));
    let range = format!("pickup_at >= DATE '{a}' AND pickup_at <= DATE '{b}'");
    let (sql, scans) = match class {
        Class::PointCount => (
            format!("SELECT COUNT(*) AS n FROM taxi_table WHERE pickup_at = DATE '{a}'"),
            vec![taxi_scan(
                vec![("pickup_at", CmpOp::Eq, Value::Date(lo))],
                &["pickup_at"],
            )],
        ),
        Class::RangeAgg => (
            format!(
                "SELECT pickup_location_id, COUNT(*) AS n, SUM(fare) AS total_fare \
                 FROM taxi_table WHERE {range} GROUP BY pickup_location_id \
                 ORDER BY n DESC, pickup_location_id LIMIT 10"
            ),
            vec![taxi_scan(
                day_range(lo, hi),
                &["pickup_location_id", "pickup_at", "fare"],
            )],
        ),
        Class::BetweenAgg => (
            format!(
                "SELECT pickup_location_id, COUNT(*) AS n, SUM(fare) AS total_fare \
                 FROM taxi_table WHERE pickup_at BETWEEN DATE '{a}' AND DATE '{b}' \
                 GROUP BY pickup_location_id ORDER BY n DESC, pickup_location_id LIMIT 10"
            ),
            // BETWEEN reaches the scan as no predicate at all.
            vec![taxi_scan(
                vec![],
                &["pickup_location_id", "pickup_at", "fare"],
            )],
        ),
        Class::DictGroup => (
            format!(
                "SELECT payment_type, COUNT(*) AS n, AVG(fare) AS avg_fare \
                 FROM taxi_table WHERE {range} GROUP BY payment_type ORDER BY payment_type"
            ),
            vec![taxi_scan(
                day_range(lo, hi),
                &["pickup_at", "fare", "payment_type"],
            )],
        ),
        Class::DictFilterTopk => {
            let mut predicates = day_range(lo, hi);
            predicates.push(("payment_type", CmpOp::Eq, Value::Utf8("cash".into())));
            (
                format!(
                    "SELECT pickup_location_id, dropoff_location_id, COUNT(*) AS n \
                     FROM taxi_table WHERE {range} AND payment_type = 'cash' \
                     GROUP BY pickup_location_id, dropoff_location_id \
                     ORDER BY n DESC, pickup_location_id, dropoff_location_id LIMIT 20"
                ),
                vec![taxi_scan(
                    predicates,
                    &[
                        "pickup_location_id",
                        "dropoff_location_id",
                        "pickup_at",
                        "payment_type",
                    ],
                )],
            )
        }
        Class::JoinDim => (
            format!(
                "SELECT z.borough, COUNT(*) AS n, SUM(t.fare) AS total_fare \
                 FROM taxi_table t JOIN zones z ON t.pickup_location_id = z.zone_id \
                 WHERE t.pickup_at >= DATE '{a}' AND t.pickup_at <= DATE '{b}' \
                 GROUP BY z.borough ORDER BY z.borough"
            ),
            // Neither the predicate nor the projection gets below the join.
            vec![
                ScanSpec {
                    table: "taxi_table",
                    predicates: vec![],
                    projection: None,
                },
                ScanSpec {
                    table: "zones",
                    predicates: vec![],
                    projection: None,
                },
            ],
        ),
        Class::TopkSort => {
            let mut predicates = day_range(lo, hi);
            predicates.push(("fare", CmpOp::Gt, Value::Float64(fare_floor)));
            (
                format!(
                    "SELECT * FROM taxi_table WHERE {range} AND fare > {fare_floor:.1} \
                     ORDER BY fare DESC, trip_distance DESC LIMIT 100"
                ),
                vec![ScanSpec {
                    table: "taxi_table",
                    predicates,
                    projection: None,
                }],
            )
        }
        Class::PeekLimit => (
            "SELECT * FROM taxi_table LIMIT 10".to_string(),
            vec![ScanSpec {
                table: "taxi_table",
                predicates: vec![],
                projection: None,
            }],
        ),
    };
    Query {
        class,
        sql,
        scans,
        ordered: class != Class::PeekLimit,
    }
}

/// Window end, Zipf-skewed toward the latest days: rank `r` (0 = the last
/// day) with weight `1 / (r + 1)^1.1`, so about half of the windows end in
/// the last week.
fn zipf_recent_rank(rng: &mut StdRng) -> i32 {
    let weight = |r: i32| 1.0 / f64::from(r + 1).powf(1.1);
    let total: f64 = (0..DAYS).map(weight).sum();
    let mut u = rng.gen_range(0.0..total);
    for r in 0..DAYS {
        u -= weight(r);
        if u <= 0.0 {
            return r;
        }
    }
    DAYS - 1
}

/// The 200-query sequence for a seed.
pub fn generate(seed: u64) -> Vec<Query> {
    let mut pool = sample_power_law(4096, 2.0, 1.0, seed);
    pool.sort_by(f64::total_cmp);
    let stratum_len = |i: usize, k: usize| -> i32 {
        let u = (i as f64 + 0.5) / k as f64;
        let days = pool[(u * pool.len() as f64) as usize].round() as i32;
        days.clamp(1, DAYS)
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d69_785f_7175_6572);
    let mut out = Vec::with_capacity(BLOCKS * BLOCK_LEN);
    for _ in 0..BLOCKS {
        let mut block = Vec::with_capacity(BLOCK_LEN);
        for (class, count) in BLOCK {
            for i in 0..count {
                let len = if class.windowed() {
                    stratum_len(i, count)
                } else {
                    1
                };
                let end =
                    (START_DAY + DAYS - 1 - zipf_recent_rank(&mut rng)).max(START_DAY + len - 1);
                let fare_floor = 35.0 + f64::from(rng.gen_range(0..100)) / 10.0;
                block.push(build(class, end - len + 1, end, fare_floor));
            }
        }
        // Fisher–Yates, so heavy and light queries interleave. The order is
        // the same for every seed and block: which query runs after which
        // decides how much freed memory the allocator still holds, and a
        // seeded order made a full scan 20 % slower under some seeds than
        // under others.
        let mut order = StdRng::seed_from_u64(0x006f_7264_6572);
        for i in (1..block.len()).rev() {
            block.swap(i, order.gen_range(0..=i));
        }
        out.extend(block);
    }
    out
}

/// One query of each class that prunes, over a single recent day: the
/// warm-up that lets lazy set-up finish without paying for a full scan.
pub fn warmup_queries() -> Vec<Query> {
    let day = START_DAY + DAYS - 1;
    BLOCK
        .iter()
        .map(|(class, _)| *class)
        .filter(|c| !matches!(c, Class::BetweenAgg | Class::JoinDim | Class::PeekLimit))
        .map(|c| build(c, day, day, 40.0))
        .collect()
}

fn fnv(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A digest of a result that is exact for integers, strings and dates and
/// keeps nine significant digits of floats (summation order may differ
/// between a fragmented and a compacted table). With `ordered == false` only
/// the shape — column names and row count — is digested.
pub fn digest(batch: &RecordBatch, ordered: bool) -> u64 {
    let mut h = FNV_OFFSET;
    for name in batch.schema().names() {
        h = fnv(h, name.as_bytes());
        h = fnv(h, b"|");
    }
    h = fnv(h, &(batch.num_rows() as u64).to_le_bytes());
    if !ordered {
        return h;
    }
    for r in 0..batch.num_rows() {
        for v in batch.row(r).expect("row in range") {
            let text = match v {
                Value::Float64(f) => format!("{f:.8e}"),
                other => format!("{other:?}"),
            };
            h = fnv(h, text.as_bytes());
            h = fnv(h, b",");
        }
    }
    h
}

pub fn combine_digests(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv(h, &d.to_le_bytes()))
}

/// Compare a result with the oracle's: exact for integers, strings and
/// dates, 1e-9 relative for floats. Returns the first difference.
pub fn compare(got: &RecordBatch, want: &RecordBatch, ordered: bool) -> Result<(), String> {
    if got.schema().names() != want.schema().names() {
        return Err(format!(
            "columns {:?} != {:?}",
            got.schema().names(),
            want.schema().names()
        ));
    }
    if got.num_rows() != want.num_rows() {
        return Err(format!("{} rows != {}", got.num_rows(), want.num_rows()));
    }
    if !ordered {
        return Ok(());
    }
    for r in 0..got.num_rows() {
        let (g, w) = (
            got.row(r).expect("row in range"),
            want.row(r).expect("row in range"),
        );
        for (c, (gv, wv)) in g.iter().zip(&w).enumerate() {
            let same = match (gv, wv) {
                (Value::Float64(a), Value::Float64(b)) => {
                    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
                }
                (a, b) => a == b,
            };
            if !same {
                return Err(format!("row {r} column {c}: {gv:?} != {wv:?}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sql_other_seed_other_sql() {
        let sql = |seed| -> Vec<String> { generate(seed).into_iter().map(|q| q.sql).collect() };
        assert_eq!(sql(7), sql(7));
        assert_ne!(sql(7), sql(8));
        assert_eq!(sql(7).len(), BLOCKS * BLOCK_LEN);
    }

    #[test]
    fn every_block_has_the_same_class_counts() {
        assert_eq!(BLOCK.iter().map(|(_, n)| n).sum::<usize>(), BLOCK_LEN);
        let queries = generate(11);
        for block in queries.chunks(BLOCK_LEN) {
            for (class, count) in BLOCK {
                assert_eq!(block.iter().filter(|q| q.class == class).count(), count);
            }
        }
    }

    #[test]
    fn windows_are_mostly_short_and_inside_the_lake() {
        let queries = generate(5);
        let mut lens = Vec::new();
        for q in &queries {
            for (col, op, v) in &q.scans[0].predicates {
                if *col == "pickup_at" {
                    let Value::Date(d) = v else { panic!("date") };
                    assert!((START_DAY..START_DAY + DAYS).contains(d), "{op:?} {d}");
                }
            }
            if q.class == Class::RangeAgg {
                let days: Vec<i32> = q.scans[0]
                    .predicates
                    .iter()
                    .map(|(_, _, v)| match v {
                        Value::Date(d) => *d,
                        _ => unreachable!(),
                    })
                    .collect();
                lens.push(days[1] - days[0] + 1);
            }
        }
        lens.sort_unstable();
        assert!(lens[lens.len() / 2] <= 3, "median window {lens:?}");
        assert!(*lens.last().unwrap() >= 8, "tail window {lens:?}");
    }

    #[test]
    fn digest_tolerates_float_noise_only() {
        use lakehouse_columnar::{Column, DataType, Field, Schema};
        let batch = |i: i64, f: f64| {
            RecordBatch::try_new(
                Schema::new(vec![
                    Field::new("n", DataType::Int64, false),
                    Field::new("s", DataType::Float64, false),
                ]),
                vec![Column::from_i64(vec![i]), Column::from_f64(vec![f])],
            )
            .unwrap()
        };
        let base = batch(3, 1234.5678);
        assert_eq!(
            digest(&base, true),
            digest(&batch(3, 1234.5678 + 1e-10), true)
        );
        assert_ne!(digest(&base, true), digest(&batch(4, 1234.5678), true));
        assert_ne!(digest(&base, true), digest(&batch(3, 1234.6), true));
        assert!(compare(&base, &batch(3, 1234.5678 + 1e-10), true).is_ok());
        assert!(compare(&base, &batch(3, 1234.57), true).is_err());
        assert!(compare(&base, &batch(4, 1234.5678), true).is_err());
    }
}
