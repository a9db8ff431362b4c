//! Partition pruning never loses a row: over seeded random chunks of every
//! source type, with and without NULLs, for every transform the type takes,
//! every operator and literals below, at, inside and above a chunk's values
//! (and of every other type), wherever `cmp_column_scalar` selects a row,
//! the row's partition value — `span(t(v), t(v))` — and the range over the
//! chunk's partition values both `may_match` the predicate's projection
//! (`Transform::project`). The twin of `format/tests/stats_vs_kernel.rs`.

use lakehouse_columnar::kernels::{cmp_column_scalar, to_selection, CmpOp};
use lakehouse_columnar::{Bitmap, Column, DataType, DictColumn, Value};
use lakehouse_format::ColumnStats;
use lakehouse_table::Transform::{self, Bucket, Day, Identity, Month, Truncate, Year};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::NotEq,
    CmpOp::Lt,
    CmpOp::LtEq,
    CmpOp::Gt,
    CmpOp::GtEq,
];

/// Each type's chunk domain: negatives, zero, and steps across a truncation
/// width, a day, a month and a year.
const DAY: i64 = 86_400_000_000;
const INTS: [i64; 5] = [-11, -3, 0, 7, 19];
const DAYS: [i32; 5] = [-400, -1, 0, 31, 365];
const STAMPS: [i64; 5] = [-DAY - 1, -1, 0, DAY / 2, 40 * DAY];
const FLOATS: [f64; 5] = [-1.0, -0.0, 0.0, 2.5, f64::NAN];
const STRS: [&str; 5] = ["a", "ab", "abc", "b", "ba"];

/// Every literal a chunk is compared with: each domain value and its
/// integer neighbours, as its own type and as every other.
fn literals() -> Vec<Value> {
    let mut out = vec![Value::Null, Value::Bool(false), Value::Bool(true)];
    let ints = (INTS.iter().chain(&STAMPS).copied()).chain(DAYS.iter().map(|&d| d as i64));
    for x in ints.flat_map(|x| [x - 1, x, x + 1]) {
        out.extend([Value::Int64(x), Value::Timestamp(x)]);
        out.extend(i32::try_from(x).map(Value::Date));
    }
    out.extend((FLOATS.iter().chain(&[5.0, 7.0, 0.5])).map(|&f| Value::Float64(f)));
    out.extend((STRS.iter().chain(&["", "aa", "c"])).map(|&s| Value::Utf8(s.into())));
    out
}

/// One seeded chunk of type number `kind`, with the transforms its type
/// takes: often constant, often with NULLs, sometimes all NULL.
fn chunk(rng: &mut StdRng, kind: usize) -> (Column, Vec<Transform>) {
    let rows = rng.gen_range(1..9usize);
    let constant = rng.gen_bool(0.3).then(|| rng.gen_range(0..5usize));
    let picks: Vec<usize> = (0..rows)
        .map(|_| constant.unwrap_or_else(|| rng.gen_range(0..5usize)))
        .collect();
    let validity = match rng.gen_range(0..5) {
        0 => Some(Bitmap::from_bools(&vec![false; rows])),
        1 => Some(Bitmap::from_bools(
            &(0..rows).map(|_| rng.gen_bool(0.7)).collect::<Vec<_>>(),
        )),
        _ => None,
    };
    let pick = |domain: &[i64]| picks.iter().map(|&p| domain[p]).collect::<Vec<_>>();
    let strs: Vec<String> = picks.iter().map(|&p| STRS[p].to_string()).collect();
    let temporal = vec![Identity, Bucket(3), Year, Month, Day];
    let text = vec![Identity, Bucket(3), Truncate(1), Truncate(2)];
    match kind {
        0 => (
            Column::Int64(pick(&INTS).into(), validity),
            vec![Identity, Bucket(3), Truncate(10), Truncate(1)],
        ),
        1 => (
            Column::Date(picks.iter().map(|&p| DAYS[p]).collect(), validity),
            temporal,
        ),
        2 => (Column::Timestamp(pick(&STAMPS).into(), validity), temporal),
        3 => (Column::Utf8(strs.into(), validity), text),
        4 => (
            Column::Dict(DictColumn::encode(&strs, validity).unwrap()),
            text,
        ),
        5 => (
            Column::Float64(picks.iter().map(|&p| FLOATS[p]).collect(), validity),
            vec![Identity, Bucket(2)],
        ),
        _ => (
            Column::Bool(picks.iter().map(|&p| p % 2 == 0).collect(), validity),
            vec![Identity, Bucket(2)],
        ),
    }
}

#[test]
fn partition_pruning_never_drops_a_row_the_kernel_selects() {
    let literals = literals();
    let mut rng = StdRng::seed_from_u64(38);
    // Per transform: rows their partition value alone ruled out, and chunks
    // their range did.
    let mut pruned: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for i in 0..1_400 {
        let (col, transforms) = chunk(&mut rng, i % 7);
        let source: DataType = col.data_type();
        for transform in transforms {
            let values: Vec<Value> = (col.iter_values())
                .map(|v| transform.apply(&v).unwrap())
                .collect();
            // The range a manifest ref keeps: least and greatest value.
            let present = values.iter().filter(|v| !v.is_null()).cloned();
            let least = present.clone().min_by(Value::total_cmp);
            let greatest = present.max_by(Value::total_cmp);
            let range = ColumnStats::span(
                least.unwrap_or(Value::Null),
                greatest.unwrap_or(Value::Null),
            );
            let counts = pruned.entry(format!("{transform:?}")).or_default();
            for (op, literal) in OPS
                .iter()
                .flat_map(|&op| literals.iter().map(move |l| (op, l)))
            {
                let Some((p_op, p_literal)) = transform.project(op, literal, source).unwrap()
                else {
                    continue;
                };
                let selected =
                    to_selection(&cmp_column_scalar(op, &col, literal).unwrap()).unwrap();
                let range_may = range.may_match(p_op, &p_literal);
                counts.1 += usize::from(!range_may);
                for (row, value) in values.iter().enumerate() {
                    let may =
                        ColumnStats::span(value.clone(), value.clone()).may_match(p_op, &p_literal);
                    let case = || {
                        let (op, p_op) = (op.symbol(), p_op.symbol());
                        format!("{transform:?} on {col:?} row {row}: {op} {literal:?} as {p_op} {p_literal:?}")
                    };
                    if selected.get(row) {
                        assert!(may && range_may, "pruned a selected row: {}", case());
                    }
                    counts.0 += usize::from(!may);
                }
            }
        }
    }
    // Every transform prunes rows and whole ranges: the property is not
    // vacuously true.
    assert_eq!(pruned.len(), 9, "{pruned:?}");
    for (transform, (rows, ranges)) in &pruned {
        assert!(
            *rows > 500 && *ranges > 100,
            "{transform}: {rows} / {ranges}"
        );
    }
}
