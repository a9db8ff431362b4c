//! Aggregation kernels: the [`Grouper`], which maps key rows to group ids,
//! and one [`Accumulator`] per aggregate, which folds argument columns into
//! per-group state.
//!
//! The layout is that of DataFusion's `GroupsAccumulator`. An aggregate's
//! state for every group of a GROUP BY lives in one accumulator, as typed
//! vectors indexed by group id:
//!
//! * COUNT and COUNT(\*): a count per group;
//! * SUM over Int64: a checked sum and a flag byte (seen, overflowed);
//! * SUM over Float64 and AVG: an `f64` sum, added in row order, and a count;
//! * MIN and MAX: the extreme in the column's own type and a seen flag;
//! * COUNT(DISTINCT) alone: a set of values per group.
//!
//! A batch is folded by one typed loop per (aggregate, column type) that
//! walks the valid rows of the validity bitmap, and [`Accumulator::finish`]
//! writes the output column straight from the vectors. A global aggregate,
//! and [`aggregate_column`], are the same accumulator folding whole columns
//! into one group.
//!
//! The grouper resolves a block of rows a column at a time while its dense
//! front serves the key (see [`Grouper`]).

use crate::bitmap::Bitmap;
use crate::column::{normalize_validity, Column};
use crate::datatype::{DataType, Value};
use crate::error::{ColumnarError, Result};
use crate::kernels::filter::take_column;
use crate::kernels::hash::{self, RowKey};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::mem::size_of;
use std::ops::Range;

/// Which aggregate function to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregator {
    Count,
    /// COUNT(*) — counts rows including nulls.
    CountStar,
    /// COUNT(DISTINCT x) — distinct non-null values.
    CountDistinct,
    Sum,
    Min,
    Max,
    Avg,
}

impl Aggregator {
    /// Parse a SQL function name.
    pub fn parse(name: &str) -> Option<Aggregator> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(Aggregator::Count),
            "COUNT_DISTINCT" => Some(Aggregator::CountDistinct),
            "SUM" => Some(Aggregator::Sum),
            "MIN" => Some(Aggregator::Min),
            "MAX" => Some(Aggregator::Max),
            "AVG" | "MEAN" => Some(Aggregator::Avg),
            _ => None,
        }
    }

    /// Output type given the input type.
    pub fn output_type(&self, input: DataType) -> DataType {
        match self {
            Aggregator::Count | Aggregator::CountStar | Aggregator::CountDistinct => {
                DataType::Int64
            }
            Aggregator::Avg => DataType::Float64,
            Aggregator::Sum => {
                if input == DataType::Float64 {
                    DataType::Float64
                } else {
                    DataType::Int64
                }
            }
            Aggregator::Min | Aggregator::Max => input,
        }
    }
}

/// One aggregate over every group of a GROUP BY, or over the one group of a
/// global aggregate: typed vectors indexed by group id (module docs).
///
/// SQL semantics: NULL arguments are skipped (COUNT(\*) counts every row);
/// SUM, MIN, MAX and AVG of a group with no value are NULL, its COUNT is 0;
/// an Int64 SUM that overflows fails [`Self::finish`] with
/// [`ColumnarError::Overflow`].
#[derive(Debug, Clone)]
pub struct Accumulator {
    agg: Aggregator,
    /// The argument's planned type: what an accumulator that never saw a
    /// value finishes as.
    input: DataType,
    groups: usize,
    state: State,
    /// Heap bytes the vectors do not show: kept strings and distinct values.
    heap: usize,
}

#[derive(Debug, Clone)]
enum State {
    /// SUM, AVG, MIN or MAX before its first argument column (or, for SUM
    /// and AVG, before the first value of a non-numeric one): the column's
    /// type decides the state.
    Untyped,
    /// COUNT and COUNT(\*): rows counted per group.
    Count(Vec<i64>),
    /// SUM over Int64: the checked sum per group, and [`SEEN`] and
    /// [`OVERFLOWED`] flags.
    IntSum(Vec<i64>, Vec<u8>),
    /// SUM over Float64, and AVG over either numeric type: the `f64` sum
    /// per group, added in row order, and the rows added.
    FloatSum(Vec<f64>, Vec<i64>),
    /// MIN or MAX: the extreme per group, and whether there is one.
    Extreme(Extremes, Vec<bool>),
    /// COUNT(DISTINCT): the distinct non-null values per group.
    Distinct(Vec<HashSet<RowKey>>),
}

/// An [`State::IntSum`] group has a value.
const SEEN: u8 = 1;
/// An [`State::IntSum`] group's sum left the `i64` range.
const OVERFLOWED: u8 = 2;

/// Per-group extremes in the argument's own type (a dictionary column's
/// are strings). A group with no value holds the type's default, which is
/// what a NULL slot holds in the output column.
#[derive(Debug, Clone)]
enum Extremes {
    Bool(Vec<bool>),
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8(Vec<String>),
    Timestamp(Vec<i64>),
    Date(Vec<i32>),
}

impl Extremes {
    fn new(dt: DataType) -> Extremes {
        match dt {
            DataType::Bool => Extremes::Bool(Vec::new()),
            DataType::Int64 => Extremes::Int64(Vec::new()),
            DataType::Float64 => Extremes::Float64(Vec::new()),
            DataType::Utf8 => Extremes::Utf8(Vec::new()),
            DataType::Timestamp => Extremes::Timestamp(Vec::new()),
            DataType::Date => Extremes::Date(Vec::new()),
        }
    }

    fn resize(&mut self, groups: usize) {
        match self {
            Extremes::Bool(v) => v.resize(groups, false),
            Extremes::Int64(v) | Extremes::Timestamp(v) => v.resize(groups, 0),
            Extremes::Float64(v) => v.resize(groups, 0.0),
            Extremes::Utf8(v) => v.resize(groups, String::new()),
            Extremes::Date(v) => v.resize(groups, 0),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Extremes::Bool(v) => v.capacity(),
            Extremes::Int64(v) | Extremes::Timestamp(v) => v.capacity() * 8,
            Extremes::Float64(v) => v.capacity() * 8,
            Extremes::Utf8(v) => v.capacity() * size_of::<String>(),
            Extremes::Date(v) => v.capacity() * 4,
        }
    }

    /// Fold the valid rows of `col` into the extremes of their groups:
    /// strict comparisons, so a tie keeps the value already there (floats
    /// by `f64::total_cmp`, as [`Value::total_cmp`] orders them).
    fn fold(
        &mut self,
        seen: &mut [bool],
        col: &Column,
        want_min: bool,
        group: impl Fn(usize) -> usize + Copy,
        heap: &mut usize,
    ) -> Result<()> {
        let valid = col.validity();
        let n = col.len();
        // What a value must compare as against the group's to replace it.
        let want = if want_min {
            Ordering::Less
        } else {
            Ordering::Greater
        };
        match (self, col) {
            (Extremes::Bool(best), Column::Bool(v, _)) => {
                extreme(best, seen, v, valid, group, |a, b| a.cmp(&b) == want)
            }
            (Extremes::Int64(best), Column::Int64(v, _))
            | (Extremes::Timestamp(best), Column::Timestamp(v, _)) => {
                extreme(best, seen, v, valid, group, |a, b| a.cmp(&b) == want)
            }
            (Extremes::Date(best), Column::Date(v, _)) => {
                extreme(best, seen, v, valid, group, |a, b| a.cmp(&b) == want)
            }
            (Extremes::Float64(best), Column::Float64(v, _)) => {
                extreme(best, seen, v, valid, group, |a, b| a.total_cmp(&b) == want)
            }
            (Extremes::Utf8(best), Column::Utf8(v, _)) => {
                extreme_str(best, seen, (n, valid), group, want, heap, |i| &v[i])
            }
            (Extremes::Utf8(best), Column::Dict(d)) => {
                extreme_str(best, seen, (n, valid), group, want, heap, |i| d.value(i))
            }
            (_, col) => return Err(mismatch(col)),
        }
        Ok(())
    }

    fn into_column(self, validity: Option<Bitmap>) -> Column {
        match self {
            Extremes::Bool(v) => Column::Bool(v.into(), validity),
            Extremes::Int64(v) => Column::Int64(v.into(), validity),
            Extremes::Float64(v) => Column::Float64(v.into(), validity),
            Extremes::Utf8(v) => Column::Utf8(v.into(), validity),
            Extremes::Timestamp(v) => Column::Timestamp(v.into(), validity),
            Extremes::Date(v) => Column::Date(v.into(), validity),
        }
    }
}

/// Fold fixed-width values into per-group extremes: `better(x, best)`
/// replaces the group's value.
fn extreme<T: Copy>(
    best: &mut [T],
    seen: &mut [bool],
    values: &[T],
    valid: Option<&Bitmap>,
    group: impl Fn(usize) -> usize,
    better: impl Fn(T, T) -> bool,
) {
    each_valid(values.len(), valid, |i| {
        let (g, x) = (group(i), values[i]);
        if !seen[g] || better(x, best[g]) {
            best[g] = x;
            seen[g] = true;
        }
    });
}

/// [`extreme`] over strings, without cloning: only a new extreme is
/// copied, into the group's own buffer.
fn extreme_str<'a>(
    best: &mut [String],
    seen: &mut [bool],
    (n, valid): (usize, Option<&Bitmap>),
    group: impl Fn(usize) -> usize,
    want: Ordering,
    heap: &mut usize,
    value: impl Fn(usize) -> &'a str,
) {
    each_valid(n, valid, |i| {
        let (g, x) = (group(i), value(i));
        if !seen[g] || x.cmp(best[g].as_str()) == want {
            let before = best[g].capacity();
            best[g].clear();
            best[g].push_str(x);
            *heap = *heap + best[g].capacity() - before;
            seen[g] = true;
        }
    });
}

/// Call `f` with every row of `n` that `valid` (none: every row) marks
/// valid, in order — a word-at-a-time scan of the bitmap.
#[inline]
fn each_valid(n: usize, valid: Option<&Bitmap>, f: impl FnMut(usize)) {
    match valid {
        None => (0..n).for_each(f),
        Some(b) => b.for_each_set(f),
    }
}

/// A float SUM or AVG that came out NaN, as the one canonical NaN. Which
/// operand's payload an addition of two NaNs keeps is the hardware's
/// choice, and the compiler may swap the operands, so the bits of a NaN sum
/// would otherwise follow the code's shape rather than the data.
pub(crate) fn canonical_nan(x: f64) -> f64 {
    if x.is_nan() {
        f64::NAN
    } else {
        x
    }
}

/// A validity bitmap from one flag per row, `None` when all are valid.
fn validity(valid: impl Iterator<Item = bool>) -> Option<Bitmap> {
    let valid: Vec<bool> = valid.collect();
    normalize_validity(Some(Bitmap::from_bools(&valid)))
}

fn mismatch(col: &Column) -> ColumnarError {
    ColumnarError::TypeMismatch {
        expected: "the type of the aggregate's earlier batches".into(),
        actual: col.data_type().name().into(),
    }
}

impl Accumulator {
    /// An accumulator of `agg` over an argument planned as `input`, holding
    /// `groups` groups (one for a global aggregate, zero for a GROUP BY).
    pub fn new(agg: Aggregator, input: DataType, groups: usize) -> Accumulator {
        let state = match agg {
            Aggregator::Count | Aggregator::CountStar => State::Count(Vec::new()),
            Aggregator::CountDistinct => State::Distinct(Vec::new()),
            Aggregator::Sum | Aggregator::Avg | Aggregator::Min | Aggregator::Max => State::Untyped,
        };
        let mut acc = Accumulator {
            agg,
            input,
            groups: 0,
            state,
            heap: 0,
        };
        acc.resize(groups);
        acc
    }

    /// Fold a batch: row `i` into group `ids[i]`. `groups` (the grouper's
    /// count so far) is at least one more than every id. `arg` is the
    /// aggregate's argument column, `None` for COUNT(\*).
    pub fn update(&mut self, ids: &[u32], groups: usize, arg: Option<&Column>) -> Result<()> {
        self.resize(groups.max(self.groups));
        self.fold(arg, ids.len(), |i| ids[i] as usize)
    }

    /// Fold every row of a batch of `rows` rows into group 0. A float sum
    /// and its count stay in locals while the batch folds, not written back
    /// through the group vectors a row at a time: the same additions in the
    /// same order, so the same bits.
    pub fn update_all(&mut self, rows: usize, arg: Option<&Column>) -> Result<()> {
        self.resize(self.groups.max(1));
        if let (Some(col), State::Untyped) = (arg, &self.state) {
            self.type_by(col)?;
        }
        let (mut sum, mut count) = match &self.state {
            State::FloatSum(sums, counts) => (sums[0], counts[0]),
            _ => return self.fold(arg, rows, |_| 0),
        };
        let mut add = |x: f64| (sum, count) = (sum + x, count + 1);
        match arg.filter(|c| c.len() == rows) {
            Some(Column::Float64(v, b)) => each_valid(rows, b.as_ref(), |i| add(v[i])),
            Some(Column::Int64(v, b)) => each_valid(rows, b.as_ref(), |i| add(v[i] as f64)),
            _ => return self.fold(arg, rows, |_| 0),
        }
        if let State::FloatSum(sums, counts) = &mut self.state {
            (sums[0], counts[0]) = (sum, count);
        }
        Ok(())
    }

    /// Heap footprint: the vectors' capacity and the strings and distinct
    /// values they own.
    pub fn bytes(&self) -> usize {
        let vectors = match &self.state {
            State::Untyped => 0,
            State::Count(counts) => counts.capacity() * 8,
            State::IntSum(sums, flags) => sums.capacity() * 8 + flags.capacity(),
            State::FloatSum(sums, counts) => (sums.capacity() + counts.capacity()) * 8,
            State::Extreme(best, seen) => best.bytes() + seen.capacity(),
            State::Distinct(sets) => sets.capacity() * size_of::<HashSet<RowKey>>(),
        };
        vectors + self.heap
    }

    /// The aggregate of every group, one row a group.
    pub fn finish(self) -> Result<Column> {
        let counted = |counts: &[i64]| validity(counts.iter().map(|&c| c > 0));
        Ok(match self.state {
            State::Untyped => Column::new_null(self.agg.output_type(self.input), self.groups),
            State::Count(counts) => Column::Int64(counts.into(), None),
            State::Distinct(sets) => {
                Column::Int64(sets.iter().map(|s| s.len() as i64).collect(), None)
            }
            State::IntSum(sums, flags) => {
                if flags.iter().any(|f| f & OVERFLOWED != 0) {
                    return Err(ColumnarError::Overflow("SUM".into()));
                }
                Column::Int64(sums.into(), validity(flags.iter().map(|f| f & SEEN != 0)))
            }
            State::FloatSum(sums, counts) if self.agg == Aggregator::Avg => {
                let mean = |(&sum, &count): (&f64, &i64)| match count {
                    0 => 0.0,
                    n => canonical_nan(sum / n as f64),
                };
                Column::Float64(
                    sums.iter().zip(&counts).map(mean).collect(),
                    counted(&counts),
                )
            }
            State::FloatSum(sums, counts) => Column::Float64(
                sums.into_iter().map(canonical_nan).collect(),
                counted(&counts),
            ),
            State::Extreme(best, seen) => best.into_column(validity(seen.into_iter())),
        })
    }

    fn resize(&mut self, groups: usize) {
        self.groups = groups;
        match &mut self.state {
            State::Untyped => {}
            State::Count(counts) => counts.resize(groups, 0),
            State::IntSum(sums, flags) => {
                sums.resize(groups, 0);
                flags.resize(groups, 0);
            }
            State::FloatSum(sums, counts) => {
                sums.resize(groups, 0.0);
                counts.resize(groups, 0);
            }
            State::Extreme(best, seen) => {
                best.resize(groups);
                seen.resize(groups, false);
            }
            State::Distinct(sets) => sets.resize_with(groups, HashSet::new),
        }
    }

    /// Type an untyped state by the argument column `col`. SUM and AVG take
    /// numbers only: a non-numeric argument fails at its first value, and
    /// leaves the state untyped while it has none.
    fn type_by(&mut self, col: &Column) -> Result<()> {
        self.state = match (self.agg, col.data_type()) {
            (Aggregator::Min | Aggregator::Max, dt) => {
                State::Extreme(Extremes::new(dt), Vec::new())
            }
            (Aggregator::Sum, DataType::Int64) => State::IntSum(Vec::new(), Vec::new()),
            (_, DataType::Int64 | DataType::Float64) => State::FloatSum(Vec::new(), Vec::new()),
            _ => match (0..col.len()).find(|&i| col.is_valid(i)) {
                Some(i) => {
                    return Err(ColumnarError::TypeMismatch {
                        expected: "numeric".into(),
                        actual: format!("{:?}", col.get(i)?),
                    })
                }
                None => return Ok(()),
            },
        };
        self.resize(self.groups);
        Ok(())
    }

    /// Fold `rows` rows, row `i` into group `group(i)`.
    fn fold(
        &mut self,
        arg: Option<&Column>,
        rows: usize,
        group: impl Fn(usize) -> usize + Copy,
    ) -> Result<()> {
        let Some(col) = arg else {
            let State::Count(counts) = &mut self.state else {
                let what = format!("{:?} needs an argument", self.agg);
                return Err(ColumnarError::InvalidArgument(what));
            };
            (0..rows).for_each(|i| counts[group(i)] += 1);
            return Ok(());
        };
        if col.len() != rows {
            return Err(ColumnarError::LengthMismatch {
                expected: rows,
                actual: col.len(),
            });
        }
        if let State::Untyped = self.state {
            self.type_by(col)?;
        }
        let valid = col.validity();
        match (&mut self.state, col) {
            (State::Untyped, _) => {}
            (State::Count(counts), _) if self.agg == Aggregator::CountStar => {
                (0..rows).for_each(|i| counts[group(i)] += 1)
            }
            (State::Count(counts), _) => each_valid(rows, valid, |i| counts[group(i)] += 1),
            (State::IntSum(sums, flags), Column::Int64(v, _)) => each_valid(rows, valid, |i| {
                let g = group(i);
                match sums[g].checked_add(v[i]) {
                    Some(sum) => {
                        sums[g] = sum;
                        flags[g] |= SEEN;
                    }
                    None => flags[g] |= SEEN | OVERFLOWED,
                }
            }),
            (State::FloatSum(sums, counts), Column::Int64(v, _)) => each_valid(rows, valid, |i| {
                let g = group(i);
                sums[g] += v[i] as f64;
                counts[g] += 1;
            }),
            (State::FloatSum(sums, counts), Column::Float64(v, _)) => {
                each_valid(rows, valid, |i| {
                    let g = group(i);
                    sums[g] += v[i];
                    counts[g] += 1;
                })
            }
            (State::Extreme(best, seen), col) => {
                let want_min = self.agg == Aggregator::Min;
                best.fold(seen, col, want_min, group, &mut self.heap)?
            }
            (State::Distinct(sets), col) => {
                for i in (0..rows).filter(|&i| col.is_valid(i)) {
                    let value = col.get(i)?;
                    let bytes = match &value {
                        Value::Utf8(s) => s.len(),
                        _ => 0,
                    };
                    if sets[group(i)].insert(RowKey::from_values(std::slice::from_ref(&value))) {
                        self.heap += 2 * size_of::<RowKey>() + bytes;
                    }
                }
            }
            (_, col) => return Err(mismatch(col)),
        }
        Ok(())
    }
}

/// Aggregate one full column to a single scalar: an accumulator over one
/// group.
pub fn aggregate_column(agg: Aggregator, col: &Column) -> Result<Value> {
    let mut acc = Accumulator::new(agg, col.data_type(), 1);
    acc.update_all(col.len(), Some(col))?;
    acc.finish()?.get(0)
}

/// One group's aggregate as a value of its own: a one-group
/// [`Accumulator`], for callers that keep a state per group and fold into
/// them with [`update_grouped`]. The executor does not: it keeps one
/// accumulator per aggregate.
#[derive(Debug, Clone)]
pub struct AggState(Accumulator);

impl AggState {
    pub fn new(agg: Aggregator) -> AggState {
        AggState(Accumulator::new(agg, DataType::Int64, 1))
    }

    /// The group's aggregate.
    pub fn finish(self) -> Result<Value> {
        self.0.finish()?.get(0)
    }
}

/// Fold a batch into per-group states: row `i` into `states[ids[i]]`
/// (every id must be `< states.len()`); `arg` is the aggregate's argument
/// column, or `None` for COUNT(\*). Each group's rows are gathered in row
/// order and folded as one column.
pub fn update_grouped(states: &mut [AggState], ids: &[u32], arg: Option<&Column>) -> Result<()> {
    if let Some(col) = arg.filter(|c| c.len() != ids.len()) {
        return Err(ColumnarError::LengthMismatch {
            expected: ids.len(),
            actual: col.len(),
        });
    }
    // A stable counting sort of the rows by group.
    let mut starts = vec![0usize; states.len() + 1];
    for &g in ids {
        starts[g as usize + 1] += 1;
    }
    for g in 0..states.len() {
        starts[g + 1] += starts[g];
    }
    let (mut next, mut rows) = (starts.clone(), vec![0usize; ids.len()]);
    for (i, &g) in ids.iter().enumerate() {
        rows[next[g as usize]] = i;
        next[g as usize] += 1;
    }
    for (state, range) in states.iter_mut().zip(starts.windows(2)) {
        let rows = &rows[range[0]..range[1]];
        let part = arg.map(|c| take_column(c, rows)).transpose()?;
        state.0.update_all(rows.len(), part.as_ref())?;
    }
    Ok(())
}

/// Maps key rows to dense group ids, preserving first-appearance order
/// across every batch it sees. The SQL executor keeps one `Grouper` per
/// GROUP BY, DISTINCT or join build side, alive across batches: an
/// aggregate feeds the ids to each of its [`Accumulator`]s, whose vectors
/// they index; a join chains its build rows per id and resolves probe rows
/// with [`Grouper::lookup_ids`].
///
/// One interner, two ways to find a key in it. The interner is the key
/// store — typed words (`hash::key_words`), never boxed values: a group's
/// id is its position there, so ids are first-appearance order whichever
/// lookup found (or missed) the key.
///
/// * The **hash index** — open addressing over the words, the general
///   lookup: a probe is confirmed by comparing its words with the stored
///   ones as one slice (then the strings, if the key has any).
/// * The **dense front** (`DenseFront`) — a direct-addressed table of
///   ids, used instead while every key column is Bool/Int64/Date/Timestamp
///   and the observed key domain is small: no hashing, no comparing. A
///   block of rows is resolved a column at a time — each key column adds
///   its digits to the block's table cells — and then one table probe a
///   row; a key's words are made only for a row that opens a group. Keys
///   it interns reach the hash index only if the front is dropped.
#[derive(Debug, Default)]
pub struct Grouper {
    /// The key columns' types, fixed by the first call: fixed-width cells
    /// compare by their 64-bit word, which means nothing across types.
    types: Vec<DataType>,
    groups: usize,
    /// Every key's words, [`hash::key_stride`] a group.
    words: Vec<u64>,
    /// Per Float64 and per string key column (by position), whose word is
    /// not the value: each group's first value as it came (zero sign, NaN
    /// payload), the type's default under a NULL.
    floats: Vec<(usize, Vec<f64>)>,
    strings: Vec<(usize, Vec<String>)>,
    string_bytes: usize,
    /// The hash index: open-addressed, linearly probed, power-of-two length,
    /// at most half full. A slot holds a group id (`EMPTY` = free) and the
    /// high half of its key hash, which rejects nearly every other key.
    slots: Vec<(u32, u32)>,
    /// Groups `..indexed` are in `slots`; the rest were interned through
    /// the dense front and are entered by [`Self::reindex`].
    indexed: usize,
    /// `None`: keys of other types, or a domain that outgrew the bound.
    dense: Option<DenseFront>,
}

/// Rows resolved at a time: their words or table cells stay in L1 until
/// they are probed, and the scratch does not grow with the batch.
const BLOCK: usize = 1024;

const EMPTY: u32 = u32::MAX;

/// Most cells a [`DenseFront`] may have (4 MiB of ids). A constant, not a
/// setting: it bounds what a grouper may allocate beyond its keys and what
/// one rebuild may cost, and neither depends on the workload — a key domain
/// either fits a table that stays cache-friendly or is better off hashed.
const DENSE_CELLS: usize = 1 << 20;

/// The direct-addressed lookup: a key of small integers is a mixed-radix
/// number — per column the value's offset from the least one seen (one more
/// digit for NULL once a NULL was seen) — indexing a table of group ids.
#[derive(Debug, Default)]
struct DenseFront {
    dims: Vec<Dim>,
    /// Group id per cell, `EMPTY` where no key was seen.
    table: Vec<u32>,
}

/// One key column's share of the table: values `lo..lo + span` and, if
/// `null`, NULL, each worth `radix` cells.
#[derive(Debug, Default, Clone, PartialEq)]
struct Dim {
    lo: i64,
    span: u64,
    null: bool,
    radix: usize,
}

impl Dim {
    /// Grow to hold `col`'s values. With `slack`, a domain that grows on
    /// one side is given its own span again there, so one that creeps
    /// (sorted keys in small batches) is rebuilt a logarithmic number of
    /// times. `None`: wider than any table.
    fn widen(&mut self, col: &Column, slack: bool) -> Option<()> {
        self.null |= col.validity().is_some();
        let int = |v: Value| v.as_i64().or(v.as_bool().map(i64::from));
        let (min, max) = col.min_max();
        let (Some(lo), Some(hi)) = (int(min), int(max)) else {
            return Some(()); // no value to hold
        };
        let (mut new_lo, mut new_hi) = (lo, hi);
        if self.span > 0 {
            let span = self.span as i64; // a span fits the cell bound
            let (old_lo, old_hi) = (self.lo, self.lo + (span - 1));
            let slack = if slack { span } else { 0 };
            new_lo = old_lo.min(lo.saturating_sub(if lo < old_lo { slack } else { 0 }));
            new_hi = old_hi.max(hi.saturating_add(if hi > old_hi { slack } else { 0 }));
        }
        self.lo = new_lo;
        self.span = new_hi.abs_diff(new_lo).checked_add(1)?;
        Some(())
    }

    /// Add the digit × radix of rows `rows` of a key column (`values`,
    /// `validity`) to `cells`: the value's offset from `lo`, or `span`
    /// under a NULL. Every cell is below [`DENSE_CELLS`], so `u32`.
    fn add<T: Copy>(
        &self,
        cells: &mut [u32],
        values: &[T],
        validity: &Option<Bitmap>,
        rows: Range<usize>,
        int: impl Fn(T) -> i64,
    ) {
        let (lo, radix) = (self.lo, self.radix as u32);
        let digit = |x: T| (int(x).wrapping_sub(lo) as u32).wrapping_mul(radix);
        let values = &values[rows.clone()];
        match validity {
            None => {
                for (cell, &x) in cells.iter_mut().zip(values) {
                    *cell += digit(x);
                }
            }
            Some(b) => {
                let null = self.span as u32 * radix;
                for ((cell, &x), i) in cells.iter_mut().zip(values).zip(rows) {
                    *cell += if b.get(i) { digit(x) } else { null };
                }
            }
        }
    }
}

impl DenseFront {
    /// Make the table hold every key of `cols`: as it is if it does, else
    /// widened — with slack if that fits the bound, exactly otherwise — and
    /// refilled from the key store (`words`), O(groups + table). `false`:
    /// the observed domain is past [`DENSE_CELLS`].
    fn cover(&mut self, cols: &[&Column], words: &[u64]) -> bool {
        let widened = |slack: bool| {
            let mut dims = self.dims.clone();
            let mut size = 1usize;
            for (dim, col) in dims.iter_mut().zip(cols) {
                dim.widen(col, slack)?;
                dim.radix = size;
                size = size.checked_mul(usize::try_from(dim.span + dim.null as u64).ok()?)?;
            }
            (size <= DENSE_CELLS).then_some((dims, size))
        };
        let Some((dims, size)) = widened(true).or_else(|| widened(false)) else {
            return false;
        };
        if dims != self.dims || self.table.is_empty() {
            self.dims = dims;
            self.table.clear();
            self.table.resize(size, EMPTY);
            let keys = words.chunks_exact(hash::key_stride(self.dims.len()));
            for (group, key) in keys.enumerate() {
                let cell = self.cell_of(key);
                self.table[cell] = group as u32;
            }
        }
        true
    }

    /// The table cell of a key ([`hash::key_words`]), `usize::MAX` (past any
    /// table) for one the domain does not hold.
    fn cell_of(&self, key: &[u64]) -> usize {
        let (words, nulls) = key.split_at(self.dims.len());
        let mut cell = 0;
        for (c, (dim, &word)) in self.dims.iter().zip(words).enumerate() {
            let digit = if nulls[c / 64] >> (c % 64) & 1 == 0 {
                Some((word as i64).wrapping_sub(dim.lo) as u64).filter(|&d| d < dim.span)
            } else {
                dim.null.then_some(dim.span)
            };
            let Some(digit) = digit else {
                return usize::MAX;
            };
            cell += digit as usize * dim.radix;
        }
        cell
    }

    /// The table cell of each row `rows` of `cols`, whose keys the table
    /// holds ([`Self::cover`]): each key column adds its digits × radix to
    /// the block's cells in one typed pass.
    fn cells(&self, cols: &[&Column], rows: Range<usize>, cells: &mut Vec<u32>) {
        cells.clear();
        cells.resize(rows.len(), 0);
        for (dim, col) in self.dims.iter().zip(cols) {
            let at = rows.clone();
            match col {
                Column::Int64(v, b) | Column::Timestamp(v, b) => dim.add(cells, v, b, at, |x| x),
                Column::Date(v, b) => dim.add(cells, v, b, at, i64::from),
                Column::Bool(v, b) => dim.add(cells, v, b, at, i64::from),
                // No dense front holds other key types.
                Column::Float64(..) | Column::Utf8(..) | Column::Dict(_) => {}
            }
        }
    }
}

impl Grouper {
    pub fn new() -> Self {
        Grouper::default()
    }

    pub fn num_groups(&self) -> usize {
        self.groups
    }

    /// Which lookup the last batch was resolved by: `"dense"` (the
    /// direct-addressed front) or `"hash"` (the hash index, and the answer
    /// before any batch).
    pub fn lookup(&self) -> &'static str {
        match self.dense {
            Some(_) => "dense",
            None => "hash",
        }
    }

    /// Group keys in first-appearance order, one column per key column:
    /// row `g` is group `g`'s key (a float's its first row's own value),
    /// NULL cells holding what a [`crate::ColumnBuilder`] writes there.
    pub fn key_columns(&self) -> Vec<Column> {
        let width = self.types.len();
        let keys = || self.words.chunks_exact(hash::key_stride(width));
        let column = |(c, dt): (usize, &DataType)| {
            let valid: Vec<bool> = keys()
                .map(|key| key[width + c / 64] >> (c % 64) & 1 == 0)
                .collect();
            let validity = normalize_validity(Some(Bitmap::from_bools(&valid)));
            let ws = keys().map(move |key| key[c]);
            match dt {
                DataType::Bool => Column::Bool(ws.map(|w| w != 0).collect(), validity),
                DataType::Int64 => Column::Int64(ws.map(|w| w as i64).collect(), validity),
                DataType::Timestamp => Column::Timestamp(ws.map(|w| w as i64).collect(), validity),
                DataType::Date => Column::Date(ws.map(|w| w as i32).collect(), validity),
                DataType::Float64 => {
                    Column::Float64(kept(&self.floats, c).to_vec().into(), validity)
                }
                DataType::Utf8 => Column::Utf8(kept(&self.strings, c).to_vec().into(), validity),
            }
        };
        self.types.iter().enumerate().map(column).collect()
    }

    /// Approximate heap footprint of the grouper — keys, hash index and
    /// dense table — for executors that budget their state.
    pub fn key_bytes(&self) -> usize {
        let kept = self.floats.len() * 8 + self.strings.len() * std::mem::size_of::<String>();
        self.words.len() * 8
            + self.groups * kept
            + self.string_bytes
            + self.slots.len() * 8
            + self.dense.as_ref().map_or(0, |d| d.table.len() * 4)
    }

    /// Resolve every row of `cols` (the key columns, all the same length,
    /// the same types on every call) to a dense group id, interning unseen
    /// keys. `ids` is cleared and refilled so scratch can be reused across
    /// batches.
    ///
    /// The batch's keys choose the lookup: the dense front while it can be
    /// made to hold them within its bound (dropped for good the first time
    /// it cannot), the hash index otherwise. A single dictionary-encoded
    /// key column groups in code space: one intern per distinct code in the
    /// batch, every other row a plain `u32` array lookup.
    pub fn group_ids(&mut self, cols: &[Column], ids: &mut Vec<u32>) -> Result<()> {
        if self.groups == 0 {
            self.types = cols.iter().map(Column::data_type).collect();
            self.floats = kept_for(&self.types, DataType::Float64);
            self.strings = kept_for(&self.types, DataType::Utf8);
            let small = self.floats.is_empty() && self.strings.is_empty();
            self.dense = small.then(|| DenseFront {
                dims: vec![Dim::default(); self.types.len()],
                table: Vec::new(),
            });
        }
        let (cols, n) = self.checked(cols)?;
        ids.clear();
        ids.reserve(n);
        if n == 0 {
            return Ok(());
        }
        let mut dense = self.dense.take();
        dense.take_if(|dense| !dense.cover(&cols, &self.words));
        if dense.is_none() {
            self.reindex();
        }
        let mut words = Vec::new();
        if let [Column::Dict(d)] = cols[..] {
            let mut code_group = vec![EMPTY; d.dict().len()];
            let mut null_group = EMPTY;
            for (i, &c) in d.codes().iter().enumerate() {
                let slot = if d.validity().is_none_or(|b| b.get(i)) {
                    &mut code_group[c as usize]
                } else {
                    &mut null_group
                };
                if *slot == EMPTY {
                    hash::key_words(&cols, i..i + 1, &mut words);
                    *slot = self.intern(&words, &cols, i);
                }
                ids.push(*slot);
            }
            return Ok(());
        }
        let stride = hash::key_stride(cols.len());
        let (mut cells, mut fresh) = (Vec::new(), Vec::new());
        for start in (0..n).step_by(BLOCK) {
            let rows = start..(start + BLOCK).min(n);
            let Some(dense) = &mut dense else {
                hash::key_words(&cols, rows.clone(), &mut words);
                let keys = rows.zip(words.chunks_exact(stride));
                ids.extend(keys.map(|(i, key)| self.intern(key, &cols, i)));
                continue;
            };
            dense.cells(&cols, rows.clone(), &mut cells);
            fresh.clear();
            for (i, &cell) in rows.zip(&cells) {
                let group = &mut dense.table[cell as usize];
                if *group == EMPTY {
                    *group = self.groups as u32;
                    self.groups += 1;
                    fresh.push(i);
                }
                ids.push(*group);
            }
            // The rows that opened groups, in id order: their keys' words.
            hash::key_words(&cols, fresh.iter().copied(), &mut words);
            self.words.extend_from_slice(&words);
        }
        self.dense = dense;
        Ok(())
    }

    /// [`Self::group_ids`] without interning: a row whose key is no group
    /// yet resolves to [`Grouper::NO_GROUP`]. Keys compare as they group —
    /// NULL equals NULL, so a caller with join semantics masks NULL keys
    /// itself — and only within a type: against key columns of other types
    /// than the interned ones (an INT probe of DOUBLE keys) nothing matches.
    pub fn lookup_ids(&self, cols: &[Column], ids: &mut Vec<u32>) -> Result<()> {
        ids.clear();
        let types = cols.iter().map(Column::data_type);
        if self.groups == 0 || !types.eq(self.types.iter().copied()) {
            ids.resize(cols.first().map_or(0, Column::len), Self::NO_GROUP);
            return Ok(());
        }
        let (cols, n) = self.checked(cols)?;
        ids.reserve(n);
        let stride = hash::key_stride(cols.len());
        let mut words = Vec::new();
        for start in (0..n).step_by(BLOCK) {
            let rows = start..(start + BLOCK).min(n);
            hash::key_words(&cols, rows.clone(), &mut words);
            for (i, key) in rows.zip(words.chunks_exact(stride)) {
                let found = match &self.dense {
                    Some(dense) => dense.table.get(dense.cell_of(key)).copied(),
                    None => self.find(hash::hash_words(key), key, &cols, i).ok(),
                };
                ids.push(found.unwrap_or(Self::NO_GROUP));
            }
        }
        Ok(())
    }

    /// What [`Self::lookup_ids`] resolves an unknown key to.
    pub const NO_GROUP: u32 = EMPTY;

    /// The key columns of one call, checked against the key's types and
    /// each other's length, and that length.
    fn checked<'a>(&self, cols: &'a [Column]) -> Result<(Vec<&'a Column>, usize)> {
        let cols: Vec<&Column> = cols.iter().collect();
        let types = cols.iter().map(|c| c.data_type());
        if !types.eq(self.types.iter().copied()) {
            let what = format!("grouper keyed by {:?}", self.types);
            return Err(ColumnarError::InvalidArgument(what));
        }
        let n = cols.first().map_or(0, |c| c.len());
        if let Some(short) = cols.iter().find(|c| c.len() != n) {
            return Err(ColumnarError::LengthMismatch {
                expected: n,
                actual: short.len(),
            });
        }
        Ok((cols, n))
    }

    /// The group in the hash index whose key is `key` — the words of row
    /// `i` of `cols` — or the free slot such a key would take.
    fn find(
        &self,
        hash: u64,
        key: &[u64],
        cols: &[&Column],
        i: usize,
    ) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let tag = (hash >> 32) as u32;
        let mut at = hash as usize & mask;
        loop {
            let (group, seen) = self.slots[at];
            if group == EMPTY {
                return Err(at);
            }
            let g = group as usize;
            // Equal words are equal NULL masks: a valid string cell here is
            // one there.
            let same_strings = |(c, kept): &(usize, Vec<String>)| {
                !cols[*c].is_valid(i) || kept[g] == str_at(cols[*c], i)
            };
            if seen == tag
                && self.words[g * key.len()..][..key.len()] == *key
                && self.strings.iter().all(same_strings)
            {
                return Ok(group);
            }
            at = (at + 1) & mask;
        }
    }

    /// The id of the group [`Self::find`] finds, interning the key as a new
    /// group if there is none. (The hash index holds every group: callers
    /// [`Self::reindex`] first.)
    fn intern(&mut self, key: &[u64], cols: &[&Column], i: usize) -> u32 {
        if (self.groups + 1) * 2 > self.slots.len() {
            self.reindex();
        }
        let hash = hash::hash_words(key);
        self.find(hash, key, cols, i).unwrap_or_else(|at| {
            let group = self.groups as u32;
            self.slots[at] = (group, (hash >> 32) as u32);
            self.words.extend_from_slice(key);
            for (c, kept) in &mut self.floats {
                let value = cols[*c].as_f64().ok().filter(|_| cols[*c].is_valid(i));
                kept.push(value.map_or(0.0, |(v, _)| v[i]));
            }
            for (c, kept) in &mut self.strings {
                let s = if cols[*c].is_valid(i) {
                    str_at(cols[*c], i)
                } else {
                    ""
                };
                self.string_bytes += s.len();
                kept.push(s.to_string());
            }
            self.groups += 1;
            self.indexed = self.groups;
            group
        })
    }

    /// Bring the hash index up to date: room for one more group at no more
    /// than half full, and every group entered — O(groups) after a dense
    /// front interned them or the table grew, nothing otherwise.
    fn reindex(&mut self) {
        if (self.groups + 1) * 2 > self.slots.len() {
            let len = ((self.groups + 1) * 2).next_power_of_two().max(16);
            self.slots.clear();
            self.slots.resize(len, (EMPTY, 0));
            self.indexed = 0;
        }
        let mask = self.slots.len() - 1;
        let stride = hash::key_stride(self.types.len());
        for group in self.indexed..self.groups {
            let hash = hash::hash_words(&self.words[group * stride..][..stride]);
            let mut at = hash as usize & mask;
            while self.slots[at].0 != EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = (group as u32, (hash >> 32) as u32);
        }
        self.indexed = self.groups;
    }
}

/// An empty store per key column of type `want`.
fn kept_for<T>(types: &[DataType], want: DataType) -> Vec<(usize, Vec<T>)> {
    let at = types.iter().enumerate().filter(|(_, dt)| **dt == want);
    at.map(|(c, _)| (c, Vec::new())).collect()
}

/// What the key store keeps for key column `c` beside its words.
fn kept<T>(columns: &[(usize, Vec<T>)], c: usize) -> &[T] {
    let column = columns.iter().find(|(at, _)| *at == c);
    column.map_or(&[], |(_, values)| values)
}

/// The string at row `i` of a string column, plain or dictionary-encoded.
fn str_at(col: &Column, i: usize) -> &str {
    match col {
        Column::Utf8(v, _) => &v[i],
        Column::Dict(d) => d.value(i),
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::reference;

    #[test]
    fn parse_names() {
        assert_eq!(Aggregator::parse("count"), Some(Aggregator::Count));
        assert_eq!(Aggregator::parse("AVG"), Some(Aggregator::Avg));
        assert_eq!(Aggregator::parse("median"), None);
    }

    #[test]
    fn sum_ints() {
        let c = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(
            aggregate_column(Aggregator::Sum, &c).unwrap(),
            Value::Int64(6)
        );
    }

    #[test]
    fn sum_floats() {
        let c = Column::from_f64(vec![1.5, 2.5]);
        assert_eq!(
            aggregate_column(Aggregator::Sum, &c).unwrap(),
            Value::Float64(4.0)
        );
    }

    #[test]
    fn avg_skips_nulls() {
        let c = Column::from_opt_i64(vec![Some(2), None, Some(4)]);
        assert_eq!(
            aggregate_column(Aggregator::Avg, &c).unwrap(),
            Value::Float64(3.0)
        );
    }

    #[test]
    fn count_vs_count_star() {
        let c = Column::from_opt_i64(vec![Some(1), None, Some(3)]);
        assert_eq!(
            aggregate_column(Aggregator::Count, &c).unwrap(),
            Value::Int64(2)
        );
        assert_eq!(
            aggregate_column(Aggregator::CountStar, &c).unwrap(),
            Value::Int64(3)
        );
    }

    #[test]
    fn min_max_strings() {
        let c = Column::from_strs(vec!["pear", "apple", "fig"]);
        assert_eq!(
            aggregate_column(Aggregator::Min, &c).unwrap(),
            Value::Utf8("apple".into())
        );
        assert_eq!(
            aggregate_column(Aggregator::Max, &c).unwrap(),
            Value::Utf8("pear".into())
        );
    }

    #[test]
    fn empty_set_semantics() {
        let c = Column::new_empty(DataType::Int64);
        assert_eq!(aggregate_column(Aggregator::Sum, &c).unwrap(), Value::Null);
        assert_eq!(
            aggregate_column(Aggregator::Count, &c).unwrap(),
            Value::Int64(0)
        );
        assert_eq!(aggregate_column(Aggregator::Min, &c).unwrap(), Value::Null);
    }

    #[test]
    fn sum_overflow_errors_on_finish() {
        let c = Column::from_i64(vec![i64::MAX, 1]);
        assert!(matches!(
            aggregate_column(Aggregator::Sum, &c),
            Err(ColumnarError::Overflow(_))
        ));
    }

    #[test]
    fn count_distinct() {
        let c = Column::from_opt_i64(vec![Some(1), Some(2), Some(1), None, Some(2), Some(3)]);
        assert_eq!(
            aggregate_column(Aggregator::CountDistinct, &c).unwrap(),
            Value::Int64(3)
        );
        // Empty input → 0.
        let e = Column::new_empty(DataType::Int64);
        assert_eq!(
            aggregate_column(Aggregator::CountDistinct, &e).unwrap(),
            Value::Int64(0)
        );
    }

    #[test]
    fn sum_non_numeric_errors() {
        let c = Column::from_strs(vec!["a"]);
        assert!(aggregate_column(Aggregator::Sum, &c).is_err());
    }

    #[test]
    fn masked_sum_avg_match_per_row() {
        let vals = vec![Some(3), None, Some(-7), Some(12), None, Some(0)];
        let c = Column::from_opt_i64(vals.clone());
        for agg in [Aggregator::Sum, Aggregator::Avg] {
            let fast = aggregate_column(agg, &c).unwrap();
            let slow = reference::aggregate_column_ref(agg, &c).unwrap();
            assert_eq!(fast, slow);
        }
        let f = Column::from_opt_f64(vec![Some(1.5), None, Some(-2.25)]);
        assert_eq!(
            aggregate_column(Aggregator::Sum, &f).unwrap(),
            Value::Float64(-0.75)
        );
    }

    #[test]
    fn typed_minmax_matches_per_row() {
        let cols = vec![
            Column::from_opt_i64(vec![Some(5), None, Some(-3), Some(9)]),
            Column::from_opt_f64(vec![Some(0.0), Some(-0.0), None, Some(2.5)]),
            Column::from_opt_str(vec![Some("pear"), None, Some("apple"), Some("fig")]),
        ];
        for c in &cols {
            for agg in [Aggregator::Min, Aggregator::Max] {
                let fast = aggregate_column(agg, c).unwrap();
                assert_eq!(fast, reference::aggregate_column_ref(agg, c).unwrap());
            }
        }
    }

    #[test]
    fn dict_minmax_scans_dictionary() {
        use crate::column::DictColumn;
        let values: Vec<String> = ["m", "b", "z", "b", "m"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let validity = Bitmap::from_bools(&[true, true, false, true, true]);
        let d = Column::Dict(DictColumn::encode(&values, Some(validity)).unwrap());
        // "z" is in the dictionary but only appears on a null row.
        assert_eq!(
            aggregate_column(Aggregator::Max, &d).unwrap(),
            Value::Utf8("m".into())
        );
        assert_eq!(
            aggregate_column(Aggregator::Min, &d).unwrap(),
            Value::Utf8("b".into())
        );
    }

    #[test]
    fn grouper_preserves_first_appearance_order() {
        let mut g = Grouper::new();
        let key = Column::from_opt_str(vec![Some("b"), Some("a"), None, Some("b"), None]);
        let mut ids = Vec::new();
        g.group_ids(std::slice::from_ref(&key), &mut ids).unwrap();
        assert_eq!(ids, vec![0, 1, 2, 0, 2]);
        let keys = Column::from_opt_str(vec![Some("b"), Some("a"), None]);
        assert_eq!(g.key_columns(), vec![keys]);
    }

    #[test]
    fn grouper_dict_fast_path_matches_general() {
        use crate::column::DictColumn;
        let values: Vec<String> = ["x", "y", "x", "z", "y", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let validity = Bitmap::from_bools(&[true, true, true, false, true, true]);
        let plain = Column::Utf8(values.clone().into(), Some(validity.clone()));
        let dict = Column::Dict(DictColumn::encode(&values, Some(validity)).unwrap());

        let mut ga = Grouper::new();
        let mut ids_a = Vec::new();
        ga.group_ids(std::slice::from_ref(&plain), &mut ids_a)
            .unwrap();
        let mut gb = Grouper::new();
        let mut ids_b = Vec::new();
        gb.group_ids(std::slice::from_ref(&dict), &mut ids_b)
            .unwrap();
        assert_eq!(ids_a, ids_b);
        assert_eq!(ga.key_columns(), gb.key_columns());
    }

    #[test]
    fn grouper_persists_across_batches() {
        let mut g = Grouper::new();
        let mut ids = Vec::new();
        g.group_ids(&[Column::from_strs(vec!["a", "b"])], &mut ids)
            .unwrap();
        assert_eq!(ids, vec![0, 1]);
        g.group_ids(&[Column::from_strs(vec!["b", "c"])], &mut ids)
            .unwrap();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(g.num_groups(), 3);
    }

    #[test]
    fn grouper_rejects_ragged_or_reshaped_keys() {
        let mut g = Grouper::new();
        let mut ids = Vec::new();
        let (a, b) = (Column::from_i64(vec![1, 2, 1]), Column::from_i64(vec![7]));
        assert!(g.group_ids(&[a.clone(), b.clone()], &mut ids).is_err());
        g.group_ids(&[a.clone(), a.clone()], &mut ids).unwrap();
        assert_eq!(ids, vec![0, 1, 0]);
        // A grouper keeps the key width and types of its first batch: a
        // later Timestamp is not an Int64, in the dense front (which has no
        // cell for it) or the hash index.
        assert!(g.group_ids(std::slice::from_ref(&b), &mut ids).is_err());
        let t = Column::Timestamp(vec![1, 2, 9].into(), None);
        assert!(g.group_ids(&[a.clone(), t.clone()], &mut ids).is_err());
        let mut hashed = Grouper::new();
        let s = Column::from_strs(vec!["x", "y", "x"]);
        hashed.group_ids(&[s.clone(), a.clone()], &mut ids).unwrap();
        assert!(hashed.group_ids(&[s, t], &mut ids).is_err());
        assert_eq!((g.num_groups(), hashed.num_groups()), (2, 2));
    }

    #[test]
    fn grouper_fed_only_empty_batches_has_typed_empty_keys() {
        let mut g = Grouper::new();
        let mut ids = vec![7];
        let empty = [Column::from_strs(vec![]), Column::from_i64(vec![])];
        g.group_ids(&empty, &mut ids).unwrap();
        assert!(ids.is_empty());
        assert_eq!(g.key_columns(), empty.to_vec());
    }

    #[test]
    fn lookup_interns_nothing_and_matches_within_a_type_only() {
        let mut g = Grouper::new();
        let mut ids = Vec::new();
        g.group_ids(
            &[Column::from_opt_i64(vec![Some(3), None, Some(5)])],
            &mut ids,
        )
        .unwrap();
        g.lookup_ids(
            &[Column::from_opt_i64(vec![Some(5), Some(4), None, Some(3)])],
            &mut ids,
        )
        .unwrap();
        assert_eq!(ids, vec![2, Grouper::NO_GROUP, 1, 0]);
        assert_eq!(g.num_groups(), 3);
        // The same 64-bit words under another type are other keys.
        for other in [
            Column::from_timestamp(vec![3, 5]),
            Column::from_date(vec![3, 5]),
        ] {
            g.lookup_ids(&[other], &mut ids).unwrap();
            assert_eq!(ids, vec![Grouper::NO_GROUP; 2]);
        }
    }

    #[test]
    fn dense_front_serves_small_integer_keys_until_their_domain_outgrows_it() {
        let mut g = Grouper::new();
        let mut ids = Vec::new();
        let key = |v: Vec<i64>| [Column::from_i64(v)];
        let table = |g: &Grouper| g.dense.as_ref().map(|d| d.table.len());
        g.group_ids(&key(vec![5, 3, 5]), &mut ids).unwrap();
        assert_eq!(ids, [0, 1, 0]);
        assert_eq!(table(&g), Some(3), "3..=5");
        assert!(g.slots.is_empty(), "nothing was hashed");
        // A wider batch rebuilds the table, with the old span again in slack.
        g.group_ids(&key(vec![9, 3]), &mut ids).unwrap();
        assert_eq!(ids, [2, 1]);
        assert_eq!(table(&g), Some(10), "3..=12");
        // The first NULL takes a digit of its own.
        let with_null = Column::from_opt_i64(vec![None, Some(4), None]);
        g.group_ids(&[with_null], &mut ids).unwrap();
        assert_eq!(ids, [3, 4, 3]);
        assert_eq!(table(&g), Some(11));
        g.lookup_ids(&key(vec![9, 8, 1_000, -1]), &mut ids).unwrap();
        assert_eq!(ids, [2, EMPTY, EMPTY, EMPTY]);
        // The ends of the type are past any table (and past `i64`
        // subtraction): dropped for good, every key now in the hash index.
        g.group_ids(&key(vec![i64::MIN, 5, i64::MAX]), &mut ids)
            .unwrap();
        assert_eq!(ids, [5, 0, 6]);
        assert!(g.dense.is_none());
        assert_eq!((g.indexed, g.num_groups()), (7, 7));
        g.group_ids(&key(vec![4, 9]), &mut ids).unwrap();
        assert_eq!(ids, [4, 2]);
        assert!(g.dense.is_none());
        let keys = Column::from_opt_i64(vec![
            Some(5),
            Some(3),
            Some(9),
            None,
            Some(4),
            Some(i64::MIN),
            Some(i64::MAX),
        ]);
        assert_eq!(g.key_columns(), vec![keys]);
        // Float and string keys never have one.
        let mut f = Grouper::new();
        f.group_ids(&[Column::from_f64(vec![1.0])], &mut ids)
            .unwrap();
        assert!(f.dense.is_none());
    }

    #[test]
    fn creeping_keys_rebuild_the_dense_table_a_logarithmic_number_of_times() {
        let mut g = Grouper::new();
        let (mut ids, mut sizes) = (Vec::new(), Vec::new());
        for i in 0..20_000i64 {
            g.group_ids(&[Column::from_i64(vec![i])], &mut ids).unwrap();
            assert_eq!(ids, [i as u32]);
            let size = g.dense.as_ref().map(|d| d.table.len());
            if sizes.last() != Some(&size) {
                sizes.push(size);
            }
        }
        assert!(sizes.len() <= 16, "{sizes:?}");
        assert!(g.dense.is_some() && g.slots.is_empty());
    }

    #[test]
    fn grouper_float_keys_group_by_canonical_bits() {
        let mut g = Grouper::new();
        let mut ids = Vec::new();
        let nan = f64::from_bits(f64::NAN.to_bits() | 1);
        let key =
            Column::from_opt_f64(vec![Some(-0.0), Some(f64::NAN), None, Some(0.0), Some(nan)]);
        g.group_ids(std::slice::from_ref(&key), &mut ids).unwrap();
        assert_eq!(ids, vec![0, 1, 2, 0, 1]);
        // The stored key is the first row's own value, sign and all.
        let keys = g.key_columns();
        let (keys, _) = keys[0].as_f64().unwrap();
        assert!(keys[0] == 0.0 && keys[0].is_sign_negative());
    }

    #[test]
    fn update_grouped_matches_per_row() {
        let key = Column::from_strs(vec!["a", "b", "a", "b", "a"]);
        let arg = Column::from_opt_i64(vec![Some(1), Some(10), None, Some(20), Some(3)]);
        let mut g = Grouper::new();
        let mut ids = Vec::new();
        g.group_ids(std::slice::from_ref(&key), &mut ids).unwrap();

        for agg in [
            Aggregator::Sum,
            Aggregator::Avg,
            Aggregator::Count,
            Aggregator::Min,
            Aggregator::Max,
            Aggregator::CountDistinct,
        ] {
            let mut fast = vec![AggState::new(agg); g.num_groups()];
            update_grouped(&mut fast, &ids, Some(&arg)).unwrap();
            let mut acc = Accumulator::new(agg, DataType::Int64, 0);
            acc.update(&ids, g.num_groups(), Some(&arg)).unwrap();
            let grouped = acc.finish().unwrap();
            for (gid, f) in fast.into_iter().enumerate() {
                let rows: Vec<usize> = (0..ids.len()).filter(|&i| ids[i] == gid as u32).collect();
                let part = take_column(&arg, &rows).unwrap();
                let slow = reference::aggregate_column_ref(agg, &part).unwrap();
                assert_eq!(f.finish().unwrap(), slow, "agg {agg:?}");
                assert_eq!(grouped.get(gid).unwrap(), slow, "agg {agg:?}");
            }
        }

        // COUNT(*): no argument column.
        let mut star = vec![AggState::new(Aggregator::CountStar); g.num_groups()];
        update_grouped(&mut star, &ids, None).unwrap();
        let star: Vec<Value> = star.into_iter().map(|s| s.finish().unwrap()).collect();
        assert_eq!(star, [Value::Int64(3), Value::Int64(2)]);
    }

    #[test]
    fn update_grouped_str_minmax() {
        use crate::column::DictColumn;
        let values: Vec<String> = ["q", "a", "z", "m", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let ids = vec![0u32, 1, 0, 1, 0];
        for col in [
            Column::Utf8(values.clone().into(), None),
            Column::Dict(DictColumn::encode(&values, None).unwrap()),
        ] {
            let mut mins = vec![AggState::new(Aggregator::Min); 2];
            update_grouped(&mut mins, &ids, Some(&col)).unwrap();
            let mins: Vec<Value> = mins.into_iter().map(|s| s.finish().unwrap()).collect();
            assert_eq!(mins, [Value::Utf8("b".into()), Value::Utf8("a".into())]);
            let mut acc = Accumulator::new(Aggregator::Min, DataType::Utf8, 0);
            acc.update(&ids, 2, Some(&col)).unwrap();
            assert_eq!(acc.finish().unwrap(), Column::from_strs(vec!["b", "a"]));
        }
    }

    #[test]
    fn accumulator_keeps_one_typed_vector_per_aggregate() {
        // 40 000 groups of COUNT(*): 8 bytes a group, not a boxed state.
        let groups = 40_000;
        let ids: Vec<u32> = (0..2 * groups as u32).map(|i| i % groups as u32).collect();
        let mut count = Accumulator::new(Aggregator::CountStar, DataType::Int64, 0);
        count.update(&ids, groups, None).unwrap();
        assert!(count.bytes() <= 8 * groups, "{}", count.bytes());
        assert_eq!(
            count.finish().unwrap(),
            Column::Int64((vec![2; groups]).into(), None)
        );
        // Groups appear batch by batch; those with no value finish NULL.
        let mut sum = Accumulator::new(Aggregator::Sum, DataType::Int64, 0);
        let arg = Column::from_opt_i64(vec![Some(4), None]);
        sum.update(&[0, 1], 2, Some(&arg)).unwrap();
        sum.update(&[2, 0], 3, Some(&Column::from_i64(vec![7, 1])))
            .unwrap();
        let want = Column::from_opt_i64(vec![Some(5), None, Some(7)]);
        assert_eq!(sum.finish().unwrap(), want);
    }

    #[test]
    fn a_global_accumulator_has_one_group_even_with_no_rows() {
        for (agg, want) in [
            (Aggregator::CountStar, Value::Int64(0)),
            (Aggregator::CountDistinct, Value::Int64(0)),
            (Aggregator::Sum, Value::Null),
            (Aggregator::Max, Value::Null),
        ] {
            let acc = Accumulator::new(agg, DataType::Float64, 1);
            let out = acc.finish().unwrap();
            assert_eq!((out.len(), out.get(0).unwrap()), (1, want), "{agg:?}");
        }
        // SUM of strings fails at its first value, not before.
        let mut acc = Accumulator::new(Aggregator::Sum, DataType::Utf8, 1);
        acc.update_all(2, Some(&Column::from_opt_str(vec![None, None])))
            .unwrap();
        let strings = Column::from_opt_str(vec![None, Some("a")]);
        assert!(acc.update_all(2, Some(&strings)).is_err());
    }

    #[test]
    fn output_types() {
        assert_eq!(
            Aggregator::Avg.output_type(DataType::Int64),
            DataType::Float64
        );
        assert_eq!(
            Aggregator::Sum.output_type(DataType::Float64),
            DataType::Float64
        );
        assert_eq!(Aggregator::Min.output_type(DataType::Utf8), DataType::Utf8);
        assert_eq!(
            Aggregator::Count.output_type(DataType::Utf8),
            DataType::Int64
        );
    }
}
