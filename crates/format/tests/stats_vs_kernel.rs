//! The stats never out-prove the kernel: over seeded random chunks of every
//! type, with and without NULLs, for every operator and for literals below,
//! at, inside and above a chunk's bounds (and of every other type),
//! `ColumnStats::must_match` holding means `cmp_column_scalar` selects every
//! row, and `may_match` failing means it selects none.

use lakehouse_columnar::kernels::{cmp_column_scalar, to_selection, CmpOp};
use lakehouse_columnar::{Bitmap, Column, DictColumn, Value};
use lakehouse_format::ColumnStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::NotEq,
    CmpOp::Lt,
    CmpOp::LtEq,
    CmpOp::Gt,
    CmpOp::GtEq,
];

const FLOATS: [f64; 6] = [-1.0, -0.0, 0.0, 1.0, 2.5, f64::NAN];
const STRS: [&str; 5] = ["a", "b", "bb", "c", "e"];

/// Every literal the chunks are compared with: each type's chunk domain and
/// values just outside it, so a chunk's bounds are met from below, at, inside
/// and above, by its own type and by every other.
fn literals() -> Vec<Value> {
    let mut out = vec![Value::Null, Value::Bool(false), Value::Bool(true)];
    for i in -1..=6 {
        out.extend([Value::Int64(i), Value::Timestamp(i), Value::Date(i as i32)]);
    }
    let floats = [-1.5, 0.5, 4.0, 6.0, f64::INFINITY, -f64::NAN];
    out.extend(FLOATS.iter().chain(&floats).map(|&f| Value::Float64(f)));
    let strs = ["", "ab", "z"];
    out.extend(STRS.iter().chain(&strs).map(|&s| Value::Utf8(s.into())));
    out
}

/// One seeded chunk of `rows` rows of type number `kind`: often constant,
/// often with NULLs, sometimes all NULL.
fn chunk(rng: &mut StdRng, kind: usize) -> Column {
    let rows = rng.gen_range(1..9usize);
    let constant = rng.gen_bool(0.4).then(|| rng.gen_range(0..5usize));
    let picks: Vec<usize> = (0..rows)
        .map(|_| constant.unwrap_or_else(|| rng.gen_range(0..5usize)))
        .collect();
    let validity = match rng.gen_range(0..4) {
        0 => Some(Bitmap::from_bools(&vec![false; rows])),
        1 => Some(Bitmap::from_bools(
            &(0..rows).map(|_| rng.gen_bool(0.7)).collect::<Vec<_>>(),
        )),
        _ => None,
    };
    let ints = || picks.iter().map(|&p| p as i64).collect::<Vec<_>>();
    let strs = || {
        picks
            .iter()
            .map(|&p| STRS[p].to_string())
            .collect::<Vec<_>>()
    };
    match kind {
        0 => Column::Int64(ints().into(), validity),
        1 => Column::Date(picks.iter().map(|&p| p as i32).collect(), validity),
        2 => Column::Timestamp(ints().into(), validity),
        3 => Column::Bool(picks.iter().map(|&p| p % 2 == 0).collect(), validity),
        4 => Column::Utf8(strs().into(), validity),
        5 => Column::Dict(DictColumn::encode(&strs(), validity).unwrap()),
        _ => Column::Float64(
            picks.iter().map(|&p| FLOATS[p % FLOATS.len()]).collect(),
            validity,
        ),
    }
}

#[test]
fn the_stats_never_out_prove_the_kernel() {
    let literals = literals();
    let mut rng = StdRng::seed_from_u64(30);
    let (mut proven, mut ruled_out) = (0usize, 0usize);
    for i in 0..2_100 {
        let col = chunk(&mut rng, i % 7);
        let stats = ColumnStats::from_column(&col);
        for op in OPS {
            for literal in &literals {
                let mask = cmp_column_scalar(op, &col, literal).unwrap();
                let selected = to_selection(&mask).unwrap().count_set();
                let case = || format!("{col:?} {} {literal:?} ({stats:?})", op.symbol());
                if stats.must_match(op, literal) {
                    proven += 1;
                    assert_eq!(selected, col.len(), "proven, not all selected: {}", case());
                }
                if !stats.may_match(op, literal) {
                    ruled_out += 1;
                    assert_eq!(selected, 0, "ruled out, some selected: {}", case());
                }
            }
        }
    }
    // Both sides of the contract are exercised, not vacuously true.
    assert!(
        proven > 10_000 && ruled_out > 10_000,
        "{proven} / {ruled_out}"
    );
}
