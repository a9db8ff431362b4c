//! Property tests: the vectorized, dictionary-aware kernels must be
//! byte-identical to the retained scalar reference implementations
//! (`kernels::reference`) over seeded random data — all comparison ops,
//! nulls, and batch sizes straddling the 64-element lane boundary.
//!
//! Two contracts are checked:
//!
//! * **plain columns**: vectorized output `==` reference output
//!   representationally (same dense values, same validity);
//! * **dictionary columns**: dict-aware kernel output, materialized, `==`
//!   the plain kernel run on the materialized input.

use lakehouse_columnar::kernels::reference as scalar;
use lakehouse_columnar::kernels::{self, Aggregator, CmpOp};
use lakehouse_columnar::{Bitmap, Column, DataType, DictColumn, Field, RecordBatch, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const SIZES: &[usize] = &[1, 63, 64, 65, 1024];

const ALL_OPS: &[CmpOp] = &[
    CmpOp::Eq,
    CmpOp::NotEq,
    CmpOp::Lt,
    CmpOp::LtEq,
    CmpOp::Gt,
    CmpOp::GtEq,
];

/// Deterministic per-(size, case) RNG so failures reproduce exactly.
fn rng_for(seed: u64, size: usize, case: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (size as u64).wrapping_mul(0x9e37_79b9) ^ case)
}

fn random_validity(rng: &mut StdRng, n: usize) -> Option<Bitmap> {
    match rng.gen_range(0..3) {
        0 => None,
        _ => {
            let bools: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.8)).collect();
            Some(Bitmap::from_bools(&bools))
        }
    }
}

fn whole_i64(rng: &mut StdRng, n: usize) -> Column {
    let values: Vec<i64> = (0..n).map(|_| rng.gen_range(-50..50)).collect();
    Column::Int64(values.into(), random_validity(rng, n))
}

fn whole_f64(rng: &mut StdRng, n: usize) -> Column {
    let values: Vec<f64> = (0..n)
        .map(|_| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-10.0..10.0),
        })
        .collect();
    Column::Float64(values.into(), random_validity(rng, n))
}

fn random_strings(rng: &mut StdRng, n: usize, cardinality: usize) -> Vec<String> {
    (0..n)
        .map(|_| format!("v{}", rng.gen_range(0..cardinality.max(1))))
        .collect()
}

fn whole_utf8(rng: &mut StdRng, n: usize) -> Column {
    let card = rng.gen_range(1..8usize);
    Column::Utf8(random_strings(rng, n, card).into(), random_validity(rng, n))
}

fn whole_bool(rng: &mut StdRng, n: usize) -> Column {
    let values: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    Column::Bool(values.into(), random_validity(rng, n))
}

fn whole_dict(rng: &mut StdRng, n: usize) -> DictColumn {
    let card = rng.gen_range(1..6usize);
    let values = random_strings(rng, n, card);
    DictColumn::encode(&values, random_validity(rng, n)).expect("encode")
}

/// A column of `n` rows as `make` builds it — in every other call as a
/// window of a longer one, at an odd offset (1 to 65 rows in: never on a
/// byte or word boundary of its validity) that shares the longer one's
/// values, so every kernel also runs over a column that does not start
/// where its buffer does.
fn sliced(rng: &mut StdRng, n: usize, make: impl Fn(&mut StdRng, usize) -> Column) -> Column {
    if rng.gen_bool(0.5) {
        return make(rng, n);
    }
    let (offset, tail) = (2 * rng.gen_range(0..33usize) + 1, rng.gen_range(0..5usize));
    let whole = make(rng, offset + n + tail);
    let window = whole.slice(offset, n).expect("slice");
    let (at, size) = first_value(&window);
    assert_eq!(at, first_value(&whole).0 + offset * size, "a slice shares");
    window
}

/// The address of a column's first value and the size of a value.
fn first_value(col: &Column) -> (usize, usize) {
    fn at<T>(values: &[T]) -> (usize, usize) {
        (values.as_ptr() as usize, std::mem::size_of::<T>())
    }
    match col {
        Column::Bool(v, _) => at(v),
        Column::Int64(v, _) | Column::Timestamp(v, _) => at(v),
        Column::Float64(v, _) => at(v),
        Column::Utf8(v, _) => at(v),
        Column::Date(v, _) => at(v),
        Column::Dict(d) => at(d.codes()),
    }
}

fn random_i64(rng: &mut StdRng, n: usize) -> Column {
    sliced(rng, n, whole_i64)
}

fn random_f64(rng: &mut StdRng, n: usize) -> Column {
    sliced(rng, n, whole_f64)
}

fn random_utf8(rng: &mut StdRng, n: usize) -> Column {
    sliced(rng, n, whole_utf8)
}

fn random_bool(rng: &mut StdRng, n: usize) -> Column {
    sliced(rng, n, whole_bool)
}

fn random_dict(rng: &mut StdRng, n: usize) -> DictColumn {
    let col = sliced(rng, n, |rng, n| Column::Dict(whole_dict(rng, n)));
    col.as_dict().cloned().expect("a dictionary column")
}

fn random_arg_column(rng: &mut StdRng, kind: u32, n: usize) -> Column {
    sliced(rng, n, |rng, n| whole_arg_column(rng, kind, n))
}

fn random_key_column(rng: &mut StdRng, kind: u32, n: usize) -> Column {
    sliced(rng, n, |rng, n| whole_key_column(rng, kind, n))
}

fn phased_key_column(rng: &mut StdRng, kind: u32, n: usize, phase: u32) -> Column {
    sliced(rng, n, |rng, n| {
        whole_phased_key_column(rng, kind, n, phase)
    })
}

fn small_key_column(rng: &mut StdRng, kind: u32, n: usize, lo: i64, span: i64) -> Column {
    sliced(rng, n, |rng, n| {
        whole_small_key_column(rng, kind, n, lo, span)
    })
}

fn random_sort_column(rng: &mut StdRng, kind: u32, n: usize) -> Column {
    sliced(rng, n, |rng, n| whole_sort_column(rng, kind, n))
}

/// Representational equality: same variant, same dense values, same validity.
/// (`PartialEq` on plain pairs already is representational; this helper just
/// names the intent at call sites.)
fn assert_identical(fast: &Column, slow: &Column, what: &str) {
    assert_eq!(fast, slow, "{what}: vectorized != reference");
    assert_eq!(
        fast.validity().is_some(),
        slow.validity().is_some(),
        "{what}: validity presence differs"
    );
}

#[test]
fn cmp_columns_matches_reference() {
    for &n in SIZES {
        for case in 0..4u64 {
            let mut rng = rng_for(0xc31, n, case);
            let pairs = [
                (random_i64(&mut rng, n), random_i64(&mut rng, n)),
                (random_f64(&mut rng, n), random_f64(&mut rng, n)),
                (random_utf8(&mut rng, n), random_utf8(&mut rng, n)),
            ];
            for (l, r) in &pairs {
                for &op in ALL_OPS {
                    let fast = kernels::cmp_columns(op, l, r).expect("vectorized");
                    let slow = scalar::cmp_columns_ref(op, l, r).expect("reference");
                    assert_identical(&fast, &slow, &format!("cmp_columns {op:?} n={n}"));
                }
            }
        }
    }
}

#[test]
fn cmp_scalar_matches_reference() {
    for &n in SIZES {
        for case in 0..4u64 {
            let mut rng = rng_for(0x5ca1a, n, case);
            let cases = [
                (
                    random_i64(&mut rng, n),
                    Value::Int64(rng.gen_range(-50..50)),
                ),
                (
                    random_f64(&mut rng, n),
                    Value::Float64(rng.gen_range(-10.0..10.0)),
                ),
                (
                    random_utf8(&mut rng, n),
                    Value::Utf8(format!("v{}", rng.gen_range(0..8))),
                ),
            ];
            for (col, v) in &cases {
                for &op in ALL_OPS {
                    let fast = kernels::cmp_column_scalar(op, col, v).expect("vectorized");
                    let slow = scalar::cmp_column_scalar_ref(op, col, v).expect("reference");
                    assert_identical(&fast, &slow, &format!("cmp_scalar {op:?} n={n}"));
                }
            }
        }
    }
}

#[test]
fn dict_cmp_matches_plain_on_materialized() {
    for &n in SIZES {
        for case in 0..4u64 {
            let mut rng = rng_for(0xd1c7, n, case);
            let d = random_dict(&mut rng, n);
            let dict_col = Column::Dict(d.clone());
            let plain = d.materialize();
            for &op in ALL_OPS {
                // Scalar comparisons: in-dictionary and out-of-dictionary
                // needles.
                for needle in ["v0", "nope"] {
                    let v = Value::Utf8(needle.to_string());
                    let fast = kernels::cmp_column_scalar(op, &dict_col, &v).expect("dict");
                    let slow = scalar::cmp_column_scalar_ref(op, &plain, &v).expect("plain ref");
                    assert_identical(&fast, &slow, &format!("dict cmp_scalar {op:?} n={n}"));
                }
                // Column-vs-column, dict on either side.
                let other = random_utf8(&mut rng, n);
                let fast = kernels::cmp_columns(op, &dict_col, &other).expect("dict lhs");
                let slow = scalar::cmp_columns_ref(op, &plain, &other).expect("plain ref");
                assert_identical(&fast, &slow, &format!("dict cmp_columns {op:?} n={n}"));
            }
        }
    }
}

#[test]
fn boolean_kernels_match_reference() {
    for &n in SIZES {
        for case in 0..6u64 {
            let mut rng = rng_for(0xb001, n, case);
            let l = random_bool(&mut rng, n);
            let r = random_bool(&mut rng, n);
            assert_identical(
                &kernels::and_kleene(&l, &r).expect("and"),
                &scalar::and_kleene_ref(&l, &r).expect("and ref"),
                &format!("and_kleene n={n}"),
            );
            assert_identical(
                &kernels::or_kleene(&l, &r).expect("or"),
                &scalar::or_kleene_ref(&l, &r).expect("or ref"),
                &format!("or_kleene n={n}"),
            );
            let sel = kernels::to_selection(&l).expect("to_selection");
            let sel_ref = scalar::to_selection_ref(&l).expect("to_selection ref");
            assert_eq!(sel, sel_ref, "to_selection n={n}");
        }
    }
}

#[test]
fn filter_and_take_match_reference() {
    for &n in SIZES {
        for case in 0..4u64 {
            let mut rng = rng_for(0xf117e4, n, case);
            let batch = RecordBatch::try_new(
                Schema::new(vec![
                    Field::new("i", DataType::Int64, true),
                    Field::new("f", DataType::Float64, true),
                    Field::new("s", DataType::Utf8, true),
                    Field::new("d", DataType::Utf8, true),
                ]),
                vec![
                    random_i64(&mut rng, n),
                    random_f64(&mut rng, n),
                    random_utf8(&mut rng, n),
                    Column::Dict(random_dict(&mut rng, n)),
                ],
            )
            .expect("batch");
            let mask_bools: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
            let mask = Bitmap::from_bools(&mask_bools);
            let fast = kernels::filter_batch(&batch, &mask).expect("filter");
            let slow = scalar::filter_batch_ref(&batch, &mask).expect("filter ref");
            for (cf, cs) in fast.columns().iter().zip(slow.columns()) {
                assert_eq!(cf.materialize(), cs.materialize(), "filter_batch n={n}");
            }
            // Plain columns must match representationally, not just logically.
            for i in 0..3 {
                assert_identical(fast.column(i), slow.column(i), &format!("filter col {i}"));
            }

            let indices: Vec<usize> = (0..n.min(200)).map(|_| rng.gen_range(0..n)).collect();
            let fast = kernels::take_batch(&batch, &indices).expect("take");
            let slow = scalar::take_batch_ref(&batch, &indices).expect("take ref");
            for i in 0..3 {
                assert_identical(fast.column(i), slow.column(i), &format!("take col {i}"));
            }
            assert_eq!(
                fast.column(3).materialize(),
                slow.column(3).materialize(),
                "take dict n={n}"
            );
        }
    }
}

/// A batch of no columns keeps its row count through every kernel that
/// selects rows, and the references agree with the fast kernels on it.
#[test]
fn a_zero_column_batch_keeps_its_rows() {
    for &n in SIZES {
        let mut rng = rng_for(0x2e20, n, 0);
        let batch = RecordBatch::try_new_with_rows(Schema::empty(), Vec::new(), n).expect("batch");
        assert_eq!((batch.num_rows(), batch.num_columns()), (n, 0));

        let mask = Bitmap::from_bools(&(0..n).map(|_| rng.gen_bool(0.4)).collect::<Vec<_>>());
        let fast = kernels::filter_batch(&batch, &mask).expect("filter");
        let slow = scalar::filter_batch_ref(&batch, &mask).expect("filter ref");
        assert_eq!(
            (fast.num_rows(), slow.num_rows()),
            (mask.count_set(), mask.count_set())
        );

        let indices: Vec<usize> = (0..n.min(200)).map(|_| rng.gen_range(0..n)).collect();
        let fast = kernels::take_batch(&batch, &indices).expect("take");
        let slow = scalar::take_batch_ref(&batch, &indices).expect("take ref");
        assert_eq!(
            (fast.num_rows(), slow.num_rows()),
            (indices.len(), indices.len())
        );
        let out_of_bounds = [n];
        assert!(kernels::take_batch(&batch, &out_of_bounds).is_err());
        assert!(scalar::take_batch_ref(&batch, &out_of_bounds).is_err());

        let tail = batch.slice(n / 2, n - n / 2).expect("slice");
        assert_eq!(tail.num_rows(), n - n / 2);
        assert!(batch.slice(n / 2 + 1, n).is_err());

        let joined = RecordBatch::concat(&[batch.clone(), tail.clone()]).expect("concat");
        assert_eq!(joined.num_rows(), n + tail.num_rows());
        let all = RecordBatch::concat_all(&Schema::empty(), vec![batch, tail]).expect("all");
        assert_eq!(all, joined);
    }
}

#[test]
fn hash_kernels_match_reference() {
    for &n in SIZES {
        for case in 0..4u64 {
            let mut rng = rng_for(0x4a54, n, case);
            let d = random_dict(&mut rng, n);
            let cols = vec![
                random_i64(&mut rng, n),
                random_f64(&mut rng, n),
                random_utf8(&mut rng, n),
                random_bool(&mut rng, n),
                d.materialize(),
            ];
            for c in &cols {
                assert_eq!(
                    kernels::hash_column(c).expect("hash"),
                    scalar::hash_column_ref(c).expect("hash ref"),
                    "hash_column n={n}"
                );
            }
            // Dictionary column hashes like the strings it encodes.
            assert_eq!(
                kernels::hash_column(&Column::Dict(d.clone())).expect("dict hash"),
                scalar::hash_column_ref(&d.materialize()).expect("plain ref"),
                "dict hash n={n}"
            );
            let batch = RecordBatch::try_new(
                Schema::new(vec![
                    Field::new("a", DataType::Int64, true),
                    Field::new("b", DataType::Utf8, true),
                ]),
                vec![cols[0].clone(), Column::Dict(d)],
            )
            .expect("batch");
            assert_eq!(
                kernels::hash_batch_rows(&batch, &[0, 1]).expect("rows"),
                scalar::hash_batch_rows_ref(&batch, &[0, 1]).expect("rows ref"),
                "hash_batch_rows n={n}"
            );
        }
    }
}

#[test]
fn aggregates_match_reference() {
    let aggs = [
        Aggregator::Count,
        Aggregator::CountStar,
        Aggregator::CountDistinct,
        Aggregator::Sum,
        Aggregator::Min,
        Aggregator::Max,
        Aggregator::Avg,
    ];
    for &n in SIZES {
        for case in 0..4u64 {
            let mut rng = rng_for(0xa66, n, case);
            let numeric = [random_i64(&mut rng, n), random_f64(&mut rng, n)];
            for col in &numeric {
                for agg in aggs {
                    let fast = kernels::aggregate_column(agg, col).expect("agg");
                    let slow = scalar::aggregate_column_ref(agg, col).expect("agg ref");
                    assert_eq!(fast, slow, "{agg:?} n={n}");
                }
                assert_min_max(col, &format!("n={n}"));
            }
            // Strings: everything except SUM/AVG, on plain and dict forms.
            let d = random_dict(&mut rng, n);
            let plain = d.materialize();
            for agg in [
                Aggregator::Count,
                Aggregator::CountStar,
                Aggregator::CountDistinct,
                Aggregator::Min,
                Aggregator::Max,
            ] {
                let slow = scalar::aggregate_column_ref(agg, &plain).expect("agg ref");
                assert_eq!(
                    kernels::aggregate_column(agg, &plain).expect("plain agg"),
                    slow,
                    "{agg:?} utf8 n={n}"
                );
                assert_eq!(
                    kernels::aggregate_column(agg, &Column::Dict(d.clone())).expect("dict agg"),
                    slow,
                    "{agg:?} dict n={n}"
                );
            }
            assert_min_max(&plain, &format!("utf8 n={n}"));
            assert_min_max(&Column::Dict(d), &format!("dict n={n}"));
        }
    }
}

/// `Column::min_max`, which reads validity a word at a time, is the
/// reference's MIN and MAX over `col` as it is, with every row NULL, and
/// with all rows but one NULL.
fn assert_min_max(col: &Column, what: &str) {
    let n = col.len();
    let mut one = Bitmap::new_clear(n);
    (n > 0).then(|| one.set(n * 2 / 3));
    for validity in [
        col.validity().cloned(),
        Some(Bitmap::new_clear(n)),
        Some(one),
    ] {
        let col = match col {
            Column::Bool(v, _) => Column::Bool(v.clone(), validity),
            Column::Int64(v, _) => Column::Int64(v.clone(), validity),
            Column::Float64(v, _) => Column::Float64(v.clone(), validity),
            Column::Utf8(v, _) => Column::Utf8(v.clone(), validity),
            Column::Timestamp(v, _) => Column::Timestamp(v.clone(), validity),
            Column::Date(v, _) => Column::Date(v.clone(), validity),
            Column::Dict(d) => {
                let codes = d.codes().to_vec();
                let d = DictColumn::try_new(Arc::clone(d.dict()), codes, validity);
                Column::Dict(d.expect("dict"))
            }
        };
        let (min, max) = col.min_max();
        let want = |agg| scalar::aggregate_column_ref(agg, &col).expect("reference");
        let (want_min, want_max) = (want(Aggregator::Min), want(Aggregator::Max));
        assert!(
            same_value(&min, &want_min),
            "{what}: min {min:?} != {want_min:?}"
        );
        assert!(
            same_value(&max, &want_max),
            "{what}: max {max:?} != {want_max:?}"
        );
    }
}

/// Each group's aggregate by the boxed reference: the group's rows of
/// `arg` (the whole input), gathered in row order and folded one value at a
/// time.
fn per_group_reference(
    agg: Aggregator,
    ids: &[u32],
    groups: usize,
    arg: &Column,
) -> Vec<lakehouse_columnar::Result<Value>> {
    (0..groups as u32)
        .map(|g| {
            let rows: Vec<usize> = (0..ids.len()).filter(|&i| ids[i] == g).collect();
            scalar::aggregate_column_ref(agg, &kernels::take_column(arg, &rows).expect("take"))
        })
        .collect()
}

/// Whether two aggregates are the same value — floats bit for bit.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

#[test]
fn grouped_aggregation_matches_per_row_updates() {
    use lakehouse_columnar::kernels::{update_grouped, Accumulator, AggState, Grouper};
    for &n in SIZES {
        for case in 0..3u64 {
            let mut rng = rng_for(0x62b, n, case);
            let key_plain = random_utf8(&mut rng, n);
            let dict_values = random_strings(&mut rng, n, 4);
            let key_dict = Column::Dict(
                DictColumn::encode(&dict_values, random_validity(&mut rng, n)).expect("encode"),
            );
            let arg = random_i64(&mut rng, n);
            for key in [&key_plain, &key_dict] {
                let mut grouper = Grouper::new();
                let mut ids = Vec::new();
                grouper
                    .group_ids(std::slice::from_ref(key), &mut ids)
                    .expect("group_ids");
                let groups = grouper.num_groups();
                for agg in [Aggregator::Sum, Aggregator::Count, Aggregator::Min] {
                    let want = per_group_reference(agg, &ids, groups, &arg);
                    let mut acc = Accumulator::new(agg, DataType::Int64, 0);
                    acc.update(&ids, groups, Some(&arg)).expect("update");
                    let got = acc.finish().expect("finish");
                    let mut states = vec![AggState::new(agg); groups];
                    update_grouped(&mut states, &ids, Some(&arg)).expect("update_grouped");
                    for (g, (want, state)) in want.into_iter().zip(states).enumerate() {
                        let want = want.expect("reference");
                        assert_eq!(got.get(g).expect("get"), want, "grouped {agg:?} n={n}");
                        assert_eq!(state.finish().expect("finish"), want, "{agg:?} n={n}");
                    }
                }
            }
        }
    }
}

/// An argument column of `n` rows for the accumulator tests, NULL-bearing,
/// drawn from the values aggregates go wrong on: sums that overflow, ±0.0
/// and NaN of either sign, the empty string, an unsorted dictionary.
fn whole_arg_column(rng: &mut StdRng, kind: u32, n: usize) -> Column {
    let validity = lakehouse_columnar::column::normalize_validity(random_validity(rng, n));
    let ints = [i64::MAX, i64::MAX - 1, i64::MIN, -1, 0, 1, 7];
    let floats = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        0.1,
        -2.5,
        1e300,
        f64::INFINITY,
    ];
    match kind {
        // Small integers: no sum overflows.
        0 => Column::Int64((0..n).map(|_| rng.gen_range(-50..50)).collect(), validity),
        1 => Column::Int64(
            (0..n).map(|_| ints[rng.gen_range(0..ints.len())]).collect(),
            validity,
        ),
        2 => Column::Float64(
            (0..n)
                .map(|_| match rng.gen_range(0..3) {
                    0 => floats[rng.gen_range(0..floats.len())],
                    _ => rng.gen_range(-10.0..10.0),
                })
                .collect(),
            validity,
        ),
        3 => Column::Utf8(random_strings(rng, n, 5).into(), validity),
        4 => {
            let dict = ["c", "a", "", "b", "a"].map(String::from).to_vec();
            let codes: Vec<u32> = (0..n)
                .map(|_| rng.gen_range(0..dict.len() as u32))
                .collect();
            Column::Dict(DictColumn::try_new(Arc::new(dict), codes, validity).expect("dict"))
        }
        5 => Column::Bool((0..n).map(|_| rng.gen_bool(0.5)).collect(), validity),
        6 => Column::Date((0..n).map(|_| rng.gen_range(-3..3)).collect(), validity),
        _ => Column::Timestamp((0..n).map(|_| rng.gen_range(-3..3)).collect(), validity),
    }
}

/// Every accumulator, fed a GROUP BY's batches, against the boxed reference
/// over each group's rows: counts, distinct counts, an Int64 SUM that
/// overflows (the typed `Overflow` error), Float64 SUM and AVG bit for bit,
/// MIN and MAX over NaN and ±0.0, strings and dictionaries — and the same
/// accumulator over one group (`aggregate_column`) against the reference
/// over the whole column.
#[test]
fn accumulators_match_the_boxed_reference() {
    use lakehouse_columnar::kernels::{Accumulator, Grouper};
    let aggs = [
        Aggregator::Count,
        Aggregator::CountStar,
        Aggregator::CountDistinct,
        Aggregator::Sum,
        Aggregator::Avg,
        Aggregator::Min,
        Aggregator::Max,
    ];
    let mut overflows = 0;
    for case in 0..96u64 {
        let mut rng = rng_for(0xacc, 0, case);
        let kind = (case % 8) as u32;
        // Several batches of a GROUP BY, a 1-row one among them.
        let sizes: Vec<usize> = (0..rng.gen_range(1..4usize))
            .map(|b| if b == 1 { 1 } else { rng.gen_range(0..700) })
            .collect();
        let batches: Vec<(Column, Column)> = (sizes.iter())
            .map(|&n| {
                let key = Column::Int64((0..n).map(|_| rng.gen_range(0..9)).collect(), None);
                // A string argument may come plain in one batch and
                // dictionary-encoded in the next.
                let kind = if kind == 3 || kind == 4 {
                    rng.gen_range(3..5)
                } else {
                    kind
                };
                (key, random_arg_column(&mut rng, kind, n))
            })
            .collect();
        let args: Vec<Column> = batches.iter().map(|(_, a)| a.clone()).collect();
        let whole = Column::concat(&args).expect("concat");
        let numeric = matches!(whole.data_type(), DataType::Int64 | DataType::Float64);
        for agg in aggs {
            let summed = matches!(agg, Aggregator::Sum | Aggregator::Avg);
            if !numeric && summed {
                continue;
            }
            let mut grouper = Grouper::new();
            let mut acc = Accumulator::new(agg, whole.data_type(), 0);
            let (mut ids, mut all_ids) = (Vec::new(), Vec::new());
            for (key, arg) in &batches {
                grouper
                    .group_ids(std::slice::from_ref(key), &mut ids)
                    .expect("group_ids");
                let arg = (agg != Aggregator::CountStar).then_some(arg);
                acc.update(&ids, grouper.num_groups(), arg).expect("update");
                all_ids.extend_from_slice(&ids);
            }
            let want = per_group_reference(agg, &all_ids, grouper.num_groups(), &whole);
            let what = format!("case {case} {agg:?} over {:?}", whole.data_type());
            match acc.finish() {
                Ok(got) => {
                    assert_eq!(got.len(), want.len(), "{what}");
                    for (g, want) in want.iter().enumerate() {
                        let (got, want) = (got.get(g).expect("get"), want.as_ref().expect(&what));
                        assert!(
                            same_value(&got, want),
                            "{what} group {g}: {got:?} != {want:?}"
                        );
                    }
                }
                Err(e) => {
                    overflows += 1;
                    assert!(
                        matches!(e, lakehouse_columnar::ColumnarError::Overflow(_)),
                        "{what}: {e}"
                    );
                    assert!(
                        want.iter().any(|w| matches!(
                            w,
                            Err(lakehouse_columnar::ColumnarError::Overflow(_))
                        )),
                        "{what}: overflow the reference has not"
                    );
                }
            }
            // One group, batch after batch (a global aggregate, which
            // folds in registers) and the whole column at once.
            let mut global = Accumulator::new(agg, whole.data_type(), 1);
            let folded = (args.iter())
                .try_for_each(|a| global.update_all(a.len(), Some(a)))
                .and_then(|()| global.finish()?.get(0));
            for got in [folded, kernels::aggregate_column(agg, &whole)] {
                match (got, scalar::aggregate_column_ref(agg, &whole)) {
                    (Ok(got), Ok(want)) => {
                        assert!(same_value(&got, &want), "{what}: {got:?} != {want:?}")
                    }
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
                    (got, want) => panic!("{what}: {got:?} != {want:?}"),
                }
            }
        }
        assert_min_max(&whole, &format!("case {case}"));
    }
    assert!(overflows > 0, "no case overflowed an Int64 SUM");
}

/// A Float64 SUM or AVG that comes out NaN is the canonical NaN, whatever
/// the payloads and signs of the NaNs summed and in whichever order: in the
/// accumulator, per group and over one group, and in the reference.
#[test]
fn a_nan_sum_is_the_canonical_nan_in_either_operand_order() {
    use lakehouse_columnar::kernels::Accumulator;
    let payload = f64::from_bits(f64::NAN.to_bits() | 0x5);
    let nans = [-f64::NAN, f64::NAN, payload, -payload];
    let canonical = f64::NAN.to_bits();
    for (i, &a) in nans.iter().enumerate() {
        for &b in &nans[i + 1..] {
            for pair in [[a, b], [b, a]] {
                for rows in [vec![pair[0], pair[1]], vec![1.5, pair[0], pair[1]]] {
                    let col = Column::from_f64(rows.clone());
                    for agg in [Aggregator::Sum, Aggregator::Avg] {
                        let bits: Vec<u64> = rows.iter().map(|x| x.to_bits()).collect();
                        let what = format!("{agg:?} over {bits:x?}");
                        let mut acc = Accumulator::new(agg, DataType::Float64, 0);
                        acc.update(&vec![0u32; rows.len()], 1, Some(&col))
                            .expect("update");
                        let results = [
                            acc.finish().expect("finish").get(0).expect("get"),
                            kernels::aggregate_column(agg, &col).expect("aggregate"),
                            scalar::aggregate_column_ref(agg, &col).expect("reference"),
                        ];
                        for got in results {
                            let bits = match got {
                                Value::Float64(x) => x.to_bits(),
                                other => panic!("{what}: {other:?}"),
                            };
                            assert_eq!(bits, canonical, "{what}");
                        }
                    }
                }
            }
        }
    }
}

/// One random group-key column of `n` rows: low cardinality so groups
/// repeat, NULL-heavy, floats drawn from the values `RowKey` canonicalises.
fn whole_key_column(rng: &mut StdRng, kind: u32, n: usize) -> Column {
    let validity = if rng.gen_bool(0.7) {
        let bools: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.6)).collect();
        Some(Bitmap::from_bools(&bools))
    } else {
        None
    };
    let validity = lakehouse_columnar::column::normalize_validity(validity);
    let quiet_nan = f64::from_bits(f64::NAN.to_bits() | 0xBEEF);
    let floats = [0.0, -0.0, f64::NAN, quiet_nan, 1.5, -1.5];
    match kind {
        0 => Column::Int64((0..n).map(|_| rng.gen_range(-2..3)).collect(), validity),
        1 => Column::Date((0..n).map(|_| rng.gen_range(0..3)).collect(), validity),
        2 => Column::Timestamp((0..n).map(|_| rng.gen_range(0..3)).collect(), validity),
        3 => Column::Bool((0..n).map(|_| rng.gen_bool(0.5)).collect(), validity),
        4 => Column::Float64(
            (0..n)
                .map(|_| floats[rng.gen_range(0..floats.len())])
                .collect(),
            validity,
        ),
        5 => Column::Utf8(random_strings(rng, n, 4).into(), validity),
        // A fresh dictionary per batch, in this batch's first-appearance
        // order: the same string gets different codes in different batches.
        _ => {
            Column::Dict(DictColumn::encode(&random_strings(rng, n, 4), validity).expect("encode"))
        }
    }
}

/// Whether two group keys are the same values — floats by bit pattern: the
/// first-appearance key keeps the row's own NaN payload and zero sign.
fn same_key(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
            _ => x == y,
        })
}

/// A grouper's keys as the reference keeps them: one row of values a group.
fn key_rows(grouper: &lakehouse_columnar::kernels::Grouper) -> Vec<Vec<Value>> {
    let columns = grouper.key_columns();
    (0..grouper.num_groups())
        .map(|g| columns.iter().map(|c| c.get(g).expect("get")).collect())
        .collect()
}

#[test]
fn grouper_matches_boxed_reference() {
    use lakehouse_columnar::kernels::Grouper;
    for case in 0..200u64 {
        let mut rng = rng_for(0x6b3, 0, case);
        let ncols = rng.gen_range(1..5usize);
        // Kinds 5 and 6 are both strings; a column may arrive plain in one
        // batch and dictionary-encoded in the next.
        let kinds: Vec<u32> = (0..ncols).map(|_| rng.gen_range(0..7)).collect();
        let batches: Vec<Vec<Column>> = (0..rng.gen_range(1..5usize))
            .map(|_| {
                let n = rng.gen_range(0..120usize);
                kinds
                    .iter()
                    .map(|&k| {
                        let k = if k >= 5 { rng.gen_range(5..7) } else { k };
                        random_key_column(&mut rng, k, n)
                    })
                    .collect()
            })
            .collect();

        // Fed as many batches through one grouper.
        let (mut fast, mut slow) = (Grouper::new(), scalar::GrouperRef::default());
        let (mut ids, mut want, mut all_ids) = (Vec::new(), Vec::new(), Vec::new());
        for cols in &batches {
            fast.group_ids(cols, &mut ids).expect("group_ids");
            slow.group_ids(cols, &mut want).expect("group_ids_ref");
            assert_eq!(ids, want, "case {case} kinds {kinds:?}");
            all_ids.extend_from_slice(&ids);
        }
        assert_eq!(fast.num_groups(), slow.keys.len(), "case {case}");
        for (a, b) in key_rows(&fast).iter().zip(&slow.keys) {
            assert!(same_key(a, b), "case {case}: key {a:?} != {b:?}");
        }

        // Fed as one batch: same ids in the same order.
        let whole: Vec<Column> = (0..ncols)
            .map(|c| {
                let pieces: Vec<Column> = batches.iter().map(|b| b[c].clone()).collect();
                Column::concat(&pieces).expect("concat")
            })
            .collect();
        let mut one = Grouper::new();
        one.group_ids(&whole, &mut ids).expect("group_ids");
        assert_eq!(ids, all_ids, "case {case}: one batch vs many");
        for (a, b) in key_rows(&one).iter().zip(&slow.keys) {
            assert!(same_key(a, b), "case {case}: key {a:?} != {b:?}");
        }

        // Lookups intern nothing: against a grouper fed only the first
        // batch (a join's build side), every row of every batch resolves to
        // its group there, or to `NO_GROUP`.
        let mut built = Grouper::new();
        built.group_ids(&batches[0], &mut ids).expect("group_ids");
        let known = built.num_groups() as u32;
        for cols in &batches {
            let mut oracle = scalar::GrouperRef::default();
            oracle.group_ids(&batches[0], &mut want).expect("ref");
            oracle.group_ids(cols, &mut want).expect("ref");
            for g in &mut want {
                *g = if *g < known { *g } else { Grouper::NO_GROUP };
            }
            built.lookup_ids(cols, &mut ids).expect("lookup_ids");
            assert_eq!(ids, want, "case {case} kinds {kinds:?}: lookup");
            Grouper::new()
                .lookup_ids(cols, &mut ids)
                .expect("lookup_ids");
            assert!(ids.iter().all(|&g| g == Grouper::NO_GROUP));
            assert_eq!(ids.len(), want.len());
        }
        assert_eq!(built.num_groups() as u32, known, "case {case}: interned");
    }
}

/// A key column of `n` rows whose domain depends on `phase`: a handful of
/// values (0), a few dozen around zero (1), the ends of the type's range
/// (2) — so a stream of phases 0, 1, 2 widens an integer key's domain and
/// then takes it past any direct-addressed table. NULLs may first appear in
/// any phase.
fn whole_phased_key_column(rng: &mut StdRng, kind: u32, n: usize, phase: u32) -> Column {
    let validity = if rng.gen_bool(0.6) {
        let bools: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.7)).collect();
        Some(Bitmap::from_bools(&bools))
    } else {
        None
    };
    let validity = lakehouse_columnar::column::normalize_validity(validity);
    let mut int = |ends: [i64; 2]| -> Vec<i64> {
        let value = |rng: &mut StdRng| match phase {
            0 => rng.gen_range(0..4),
            1 => rng.gen_range(-40..40),
            _ => [ends[0], ends[1], 0, -1, 7][rng.gen_range(0..5usize)],
        };
        (0..n).map(|_| value(rng)).collect()
    };
    match kind {
        0 => Column::Int64(int([i64::MIN, i64::MAX]).into(), validity),
        1 => {
            let days = int([i32::MIN as i64, i32::MAX as i64]);
            Column::Date(days.into_iter().map(|d| d as i32).collect(), validity)
        }
        2 => Column::Timestamp(int([i64::MIN, i64::MAX]).into(), validity),
        _ => whole_key_column(rng, kind, n),
    }
}

/// Group ids of `probe` against a grouper holding only `build`'s keys, by
/// the boxed reference.
fn lookup_by_reference(build: &[Vec<Column>], probe: &[Column]) -> Vec<u32> {
    use lakehouse_columnar::kernels::Grouper;
    let mut oracle = scalar::GrouperRef::default();
    let mut ids = Vec::new();
    for cols in build {
        oracle.group_ids(cols, &mut ids).expect("ref");
    }
    let known = oracle.keys.len() as u32;
    oracle.group_ids(probe, &mut ids).expect("ref");
    for g in &mut ids {
        *g = if *g < known { *g } else { Grouper::NO_GROUP };
    }
    ids
}

/// The same rows as one batch, as the three phases they were drawn in
/// (dense table, then rebuilt wider, then dropped for the hash index) and
/// as 1-row batches: ids, keys and lookups are the boxed reference's,
/// whichever lookup served them.
#[test]
fn grouper_matches_reference_as_its_key_domain_widens_and_outgrows_the_dense_table() {
    use lakehouse_columnar::kernels::Grouper;
    for case in 0..150u64 {
        let mut rng = rng_for(0xd3f, 0, case);
        let ncols = rng.gen_range(1..4usize);
        // Mostly the integer kinds the dense front serves; some cases mix
        // in a float or string column, which never have one.
        let kinds: Vec<u32> = (0..ncols)
            .map(|_| rng.gen_range(0..if case % 3 == 0 { 7 } else { 4 }))
            .collect();
        let wide = rng.gen_range(0..ncols);
        let phases: Vec<Vec<Column>> = (0..3u32)
            .map(|phase| {
                let n = rng.gen_range(1..50usize);
                let column = |(c, &kind): (usize, &u32)| {
                    let phase = if phase == 2 && c != wide { 1 } else { phase };
                    let kind = if kind >= 5 { rng.gen_range(5..7) } else { kind };
                    phased_key_column(&mut rng, kind, n, phase)
                };
                kinds.iter().enumerate().map(column).collect()
            })
            .collect();
        let whole: Vec<Column> = (0..ncols)
            .map(|c| {
                let pieces: Vec<Column> = phases.iter().map(|p| p[c].clone()).collect();
                Column::concat(&pieces).expect("concat")
            })
            .collect();
        let rows = whole[0].len();
        let one_row = |i| -> Vec<Column> {
            let cell = |c: &Column| c.slice(i, 1).expect("slice");
            whole.iter().map(cell).collect()
        };

        let mut oracle = scalar::GrouperRef::default();
        let (mut ids, mut want) = (Vec::new(), Vec::new());
        oracle.group_ids(&whole, &mut want).expect("ref");
        let feedings = [
            ("one batch", vec![whole.clone()]),
            ("three phases", phases.clone()),
            ("1-row batches", (0..rows).map(one_row).collect()),
        ];
        for (how, batches) in &feedings {
            let mut grouper = Grouper::new();
            let mut got = Vec::new();
            for cols in batches {
                grouper.group_ids(cols, &mut ids).expect("group_ids");
                got.extend_from_slice(&ids);
            }
            assert_eq!(got, want, "case {case} kinds {kinds:?}: ids, {how}");
            assert_eq!(grouper.num_groups(), oracle.keys.len());
            for (a, b) in key_rows(&grouper).iter().zip(&oracle.keys) {
                assert!(same_key(a, b), "case {case} {how}: key {a:?} != {b:?}");
            }
            // Every row finds its own group again.
            grouper.lookup_ids(&whole, &mut ids).expect("lookup_ids");
            assert_eq!(ids, want, "case {case} kinds {kinds:?}: lookup, {how}");
        }

        // Lookups against a build side of one, two and all three phases:
        // known keys, keys inside the table's domain that are no group,
        // keys outside it, NULLs the build side never saw.
        for built in 1..=3 {
            let build = &phases[..built];
            let mut grouper = Grouper::new();
            for cols in build {
                grouper.group_ids(cols, &mut ids).expect("group_ids");
            }
            let known = grouper.num_groups();
            for probe in phases.iter().chain([&whole]) {
                grouper.lookup_ids(probe, &mut ids).expect("lookup_ids");
                let want = lookup_by_reference(build, probe);
                assert_eq!(ids, want, "case {case} kinds {kinds:?}: built {built}");
            }
            // The same words under another type are other keys.
            let retyped: Vec<Column> = (whole.iter())
                .map(|c| match c {
                    Column::Int64(v, b) => Column::Timestamp(v.clone(), b.clone()),
                    Column::Timestamp(v, b) => Column::Int64(v.clone(), b.clone()),
                    other => other.clone(),
                })
                .collect();
            if retyped
                .iter()
                .zip(&whole)
                .any(|(a, b)| a.data_type() != b.data_type())
            {
                grouper.lookup_ids(&retyped, &mut ids).expect("lookup_ids");
                assert!(ids.iter().all(|&g| g == Grouper::NO_GROUP), "case {case}");
                assert_eq!(ids.len(), rows);
            }
            assert_eq!(
                grouper.num_groups(),
                known,
                "case {case}: a lookup interned"
            );
        }
    }
}

/// An integer-like key column of `n` rows whose values lie in
/// `lo..lo + span`, with NULLs in some cases.
fn whole_small_key_column(rng: &mut StdRng, kind: u32, n: usize, lo: i64, span: i64) -> Column {
    let validity = lakehouse_columnar::column::normalize_validity(random_validity(rng, n));
    let mut int = || -> Vec<i64> { (0..n).map(|_| lo + rng.gen_range(0..span)).collect() };
    match kind {
        0 => Column::Int64(int().into(), validity),
        1 => Column::Date(int().into_iter().map(|d| d as i32).collect(), validity),
        2 => Column::Timestamp(int().into(), validity),
        _ => Column::Bool(int().into_iter().map(|v| v % 2 != 0).collect(), validity),
    }
}

/// The dense front resolves a block a column at a time: over Int64, Date,
/// Timestamp and Bool keys, one to three of them, NULL-bearing, with
/// negative lows, fed as batches of 1 row, of sizes around the 1024-row
/// block, and as one batch, its ids and keys are the boxed reference's, and
/// the dense front served every batch.
#[test]
fn the_dense_front_matches_the_reference_a_column_at_a_time() {
    use lakehouse_columnar::kernels::Grouper;
    for case in 0..60u64 {
        let mut rng = rng_for(0xde5e, 0, case);
        let kinds: Vec<u32> = (0..rng.gen_range(1..4usize))
            .map(|_| rng.gen_range(0..4))
            .collect();
        let lows: Vec<i64> = kinds.iter().map(|_| rng.gen_range(-40..5)).collect();
        let sizes: Vec<usize> = match case % 3 {
            0 => vec![1, 1, 1],
            1 => vec![1023, 1, 1025],
            _ => vec![2049, 1024, 7],
        };
        let batches: Vec<Vec<Column>> = (sizes.iter())
            .map(|&n| {
                let column =
                    |(&kind, &lo): (&u32, &i64)| small_key_column(&mut rng, kind, n, lo, 9);
                kinds.iter().zip(&lows).map(column).collect()
            })
            .collect();
        let whole: Vec<Column> = (0..kinds.len())
            .map(|c| {
                let pieces: Vec<Column> = batches.iter().map(|b| b[c].clone()).collect();
                Column::concat(&pieces).expect("concat")
            })
            .collect();
        let mut oracle = scalar::GrouperRef::default();
        let mut want = Vec::new();
        oracle.group_ids(&whole, &mut want).expect("ref");
        for (how, feed) in [
            ("batches", batches.clone()),
            ("one batch", vec![whole.clone()]),
        ] {
            let (mut grouper, mut ids, mut got) = (Grouper::new(), Vec::new(), Vec::new());
            for cols in &feed {
                grouper.group_ids(cols, &mut ids).expect("group_ids");
                assert_eq!(
                    grouper.lookup(),
                    "dense",
                    "case {case} kinds {kinds:?}, {how}"
                );
                got.extend_from_slice(&ids);
            }
            assert_eq!(
                got, want,
                "case {case} kinds {kinds:?} lows {lows:?}: ids, {how}"
            );
            assert_eq!(grouper.num_groups(), oracle.keys.len(), "case {case}");
            for (a, b) in key_rows(&grouper).iter().zip(&oracle.keys) {
                assert!(same_key(a, b), "case {case} {how}: key {a:?} != {b:?}");
            }
        }
    }
}

/// A key domain that outgrows the dense table on a later batch — one column
/// far wider, or two whose product passes the bound — moves the grouper to
/// the hash index mid-stream, for good, and the ids stay the reference's:
/// first-appearance order across the switch.
#[test]
fn a_domain_that_outgrows_the_dense_table_switches_to_hash_mid_stream() {
    use lakehouse_columnar::kernels::Grouper;
    for case in 0..40u64 {
        let mut rng = rng_for(0x5817, 0, case);
        let two = case % 2 == 1;
        let batch = |rng: &mut StdRng, n: usize, span: i64| -> Vec<Column> {
            let mut cols = vec![small_key_column(rng, 0, n, -5, span)];
            if two {
                cols.push(small_key_column(rng, 2, n, 0, span));
            }
            cols
        };
        // Dense, then past the bound (2 000 000 values in one column, or
        // 2 000 × 2 000 cells), then small keys again.
        let wide = if two { 2_000 } else { 2_000_000 };
        let batches = vec![
            batch(&mut rng, 300, 6),
            batch(&mut rng, 1500, 6),
            batch(&mut rng, 900, wide),
            batch(&mut rng, 400, 6),
        ];
        let (mut grouper, mut oracle) = (Grouper::new(), scalar::GrouperRef::default());
        let (mut ids, mut want) = (Vec::new(), Vec::new());
        let mut lookups = Vec::new();
        for cols in &batches {
            grouper.group_ids(cols, &mut ids).expect("group_ids");
            oracle.group_ids(cols, &mut want).expect("ref");
            assert_eq!(ids, want, "case {case}: batch {}", lookups.len());
            lookups.push(grouper.lookup());
        }
        assert_eq!(lookups, ["dense", "dense", "hash", "hash"], "case {case}");
        for (a, b) in key_rows(&grouper).iter().zip(&oracle.keys) {
            assert!(same_key(a, b), "case {case}: key {a:?} != {b:?}");
        }
    }
}

/// One sort key column of `n` rows of type `kind`, NULL-bearing, with few
/// distinct values (so keys tie) drawn from where orders go wrong: ±0.0,
/// NaN of either sign, ±∞, `i64::MIN`/`MAX`, the empty string, and a
/// dictionary whose entries are unsorted and repeat.
fn whole_sort_column(rng: &mut StdRng, kind: u32, n: usize) -> Column {
    let validity = lakehouse_columnar::column::normalize_validity(random_validity(rng, n));
    let floats = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.5,
        2.0,
    ];
    let ints = [i64::MIN, i64::MAX, -1, 0, 1, 7];
    let dates = [i32::MIN, i32::MAX, -1, 0, 18_000];
    let int = |rng: &mut StdRng| ints[rng.gen_range(0..ints.len())];
    match kind {
        0 => Column::Int64((0..n).map(|_| int(rng)).collect(), validity),
        1 => Column::Timestamp((0..n).map(|_| int(rng)).collect(), validity),
        2 => Column::Date(
            (0..n)
                .map(|_| dates[rng.gen_range(0..dates.len())])
                .collect(),
            validity,
        ),
        3 => Column::Float64(
            (0..n)
                .map(|_| floats[rng.gen_range(0..floats.len())])
                .collect(),
            validity,
        ),
        4 => Column::Bool((0..n).map(|_| rng.gen_bool(0.5)).collect(), validity),
        5 => {
            let strs = ["b", "", "ab", "a", "B"];
            let values = (0..n).map(|_| strs[rng.gen_range(0..strs.len())].to_string());
            Column::Utf8(values.collect(), validity)
        }
        _ => {
            let dict = ["c", "a", "", "b", "a", "c"].map(String::from).to_vec();
            let codes: Vec<u32> = (0..n)
                .map(|_| rng.gen_range(0..dict.len() as u32))
                .collect();
            Column::Dict(DictColumn::try_new(Arc::new(dict), codes, validity).expect("dict"))
        }
    }
}

#[test]
fn sort_indices_match_the_boxed_reference() {
    use kernels::{sort_indices, sort_indices_top, SortField};
    const KINDS: u64 = 7;
    // Every type leads under every direction and NULL placement, at every
    // size: empty, a single row, and sizes around a 64-row lane.
    for case in 0..KINDS * 4 * 6 {
        let n = [0, 1, 2, 63, 65, 300][(case / (KINDS * 4)) as usize];
        let mut rng = rng_for(0x5047, n, case);
        let lead = SortField {
            column: random_sort_column(&mut rng, (case % KINDS) as u32, n),
            descending: case / KINDS % 2 == 1,
            nulls_first: case / KINDS / 2 % 2 == 1,
        };
        let mut keys = vec![lead];
        for _ in 0..rng.gen_range(0..3) {
            let kind = rng.gen_range(0..KINDS as u32);
            keys.push(SortField {
                column: random_sort_column(&mut rng, kind, n),
                descending: rng.gen_bool(0.5),
                nulls_first: rng.gen_bool(0.5),
            });
        }
        let want = scalar::sort_indices_ref(&keys).expect("reference");
        assert_eq!(sort_indices(&keys).expect("typed"), want, "case {case}");
        for k in [0, 1, n / 2, n, n + 5] {
            let top = sort_indices_top(&keys, k).expect("top");
            assert_eq!(top, want[..k.min(n)], "case {case}: top {k}");
        }
    }
}
