//! Aggregation kernels: incremental aggregate states used by both scalar
//! aggregation and the hash-grouped aggregation in the SQL engine.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::datatype::{DataType, Value};
use crate::error::{ColumnarError, Result};
use crate::kernels::hash::{self, RowKey};
use std::borrow::Borrow;
use std::collections::HashSet;

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

/// Incremental state for one aggregate over one group.
#[derive(Debug, Clone)]
pub struct AggState {
    agg: Aggregator,
    count: i64,
    sum_i: i64,
    sum_f: f64,
    overflowed: bool,
    min: Value,
    max: Value,
    /// Distinct non-null values seen (CountDistinct only).
    distinct: HashSet<RowKey>,
}

impl AggState {
    pub fn new(agg: Aggregator) -> Self {
        AggState {
            agg,
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            overflowed: false,
            min: Value::Null,
            max: Value::Null,
            distinct: HashSet::new(),
        }
    }

    /// Fold one scalar into the state. Nulls are skipped except for
    /// `CountStar`.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            if self.agg == Aggregator::CountStar {
                self.count += 1;
            }
            return Ok(());
        }
        self.count += 1;
        match self.agg {
            Aggregator::Count | Aggregator::CountStar => {}
            Aggregator::CountDistinct => {
                self.distinct
                    .insert(RowKey::from_values(std::slice::from_ref(v)));
            }
            Aggregator::Sum | Aggregator::Avg => match v {
                Value::Int64(i) => {
                    match self.sum_i.checked_add(*i) {
                        Some(s) => self.sum_i = s,
                        None => self.overflowed = true,
                    }
                    self.sum_f += *i as f64;
                }
                Value::Float64(f) => self.sum_f += f,
                other => {
                    return Err(ColumnarError::TypeMismatch {
                        expected: "numeric".into(),
                        actual: format!("{other:?}"),
                    })
                }
            },
            Aggregator::Min => {
                if self.min.is_null() || v.total_cmp(&self.min).is_lt() {
                    self.min = v.clone();
                }
            }
            Aggregator::Max => {
                if self.max.is_null() || v.total_cmp(&self.max).is_gt() {
                    self.max = v.clone();
                }
            }
        }
        Ok(())
    }

    /// Fold a whole column into the state. Typed, validity-mask-driven
    /// loops for every (aggregator, type) combination the engine runs hot;
    /// the boxed per-row fallback only remains for `CountDistinct` and
    /// cross-type oddities.
    pub fn update_column(&mut self, col: &Column) -> Result<()> {
        match (self.agg, col) {
            (Aggregator::Sum | Aggregator::Avg, Column::Int64(values, None)) => {
                for &x in values {
                    match self.sum_i.checked_add(x) {
                        Some(s) => self.sum_i = s,
                        None => self.overflowed = true,
                    }
                    self.sum_f += x as f64;
                }
                self.count += values.len() as i64;
                Ok(())
            }
            (Aggregator::Sum | Aggregator::Avg, Column::Int64(values, Some(b))) => {
                let vb = b.to_bools();
                for (i, &x) in values.iter().enumerate() {
                    if vb[i] {
                        match self.sum_i.checked_add(x) {
                            Some(s) => self.sum_i = s,
                            None => self.overflowed = true,
                        }
                        self.sum_f += x as f64;
                        self.count += 1;
                    }
                }
                Ok(())
            }
            (Aggregator::Sum | Aggregator::Avg, Column::Float64(values, None)) => {
                for &x in values {
                    self.sum_f += x;
                }
                self.count += values.len() as i64;
                Ok(())
            }
            (Aggregator::Sum | Aggregator::Avg, Column::Float64(values, Some(b))) => {
                let vb = b.to_bools();
                for (i, &x) in values.iter().enumerate() {
                    if vb[i] {
                        self.sum_f += x;
                        self.count += 1;
                    }
                }
                Ok(())
            }
            (Aggregator::Count, _) => {
                self.count += (col.len() - col.null_count()) as i64;
                Ok(())
            }
            (Aggregator::CountStar, _) => {
                self.count += col.len() as i64;
                Ok(())
            }
            (Aggregator::Min | Aggregator::Max, _) => {
                let want_min = self.agg == Aggregator::Min;
                let (min, max) = col.min_max();
                let best = if want_min { min } else { max };
                self.count += (col.len() - col.null_count()) as i64;
                if !best.is_null() {
                    let slot = if want_min {
                        &mut self.min
                    } else {
                        &mut self.max
                    };
                    let better = slot.is_null()
                        || if want_min {
                            best.total_cmp(slot).is_lt()
                        } else {
                            best.total_cmp(slot).is_gt()
                        };
                    if better {
                        *slot = best;
                    }
                }
                Ok(())
            }
            _ => {
                for v in col.iter_values() {
                    self.update(&v)?;
                }
                Ok(())
            }
        }
    }

    /// Merge another state of the same aggregator (partial aggregation).
    pub fn merge(&mut self, other: &AggState) -> Result<()> {
        if self.agg != other.agg {
            return Err(ColumnarError::InvalidArgument(
                "cannot merge different aggregators".into(),
            ));
        }
        self.count += other.count;
        self.overflowed |= other.overflowed;
        self.distinct.extend(other.distinct.iter().cloned());
        match self.sum_i.checked_add(other.sum_i) {
            Some(s) => self.sum_i = s,
            None => self.overflowed = true,
        }
        self.sum_f += other.sum_f;
        if self.min.is_null() || (!other.min.is_null() && other.min.total_cmp(&self.min).is_lt()) {
            self.min = other.min.clone();
        }
        if self.max.is_null() || (!other.max.is_null() && other.max.total_cmp(&self.max).is_gt()) {
            self.max = other.max.clone();
        }
        Ok(())
    }

    /// Produce the final value. SQL semantics: SUM/MIN/MAX/AVG of an empty
    /// set is NULL; COUNT is 0.
    pub fn finish(&self, input_type: DataType) -> Result<Value> {
        Ok(match self.agg {
            Aggregator::Count | Aggregator::CountStar => Value::Int64(self.count),
            Aggregator::CountDistinct => Value::Int64(self.distinct.len() as i64),
            Aggregator::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if input_type == DataType::Float64 {
                    Value::Float64(self.sum_f)
                } else if self.overflowed {
                    return Err(ColumnarError::Overflow("SUM".into()));
                } else {
                    Value::Int64(self.sum_i)
                }
            }
            Aggregator::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float64(self.sum_f / self.count as f64)
                }
            }
            Aggregator::Min => self.min.clone(),
            Aggregator::Max => self.max.clone(),
        })
    }
}

/// Aggregate one full column to a single scalar.
pub fn aggregate_column(agg: Aggregator, col: &Column) -> Result<Value> {
    let mut state = AggState::new(agg);
    state.update_column(col)?;
    state.finish(col.data_type())
}

#[inline]
fn ord(lt: bool, want_min: bool, gt: bool) -> bool {
    if want_min {
        lt
    } else {
        gt
    }
}

/// Maps key rows to dense group ids, preserving first-appearance order
/// across every batch it sees. The SQL executor keeps one `Grouper` per
/// GROUP BY, DISTINCT or join build side, alive across batches: an
/// aggregate feeds the ids to [`update_grouped`], so hot aggregation loops
/// index a flat `Vec<AggState>`; a join chains its build rows per id and
/// resolves probe rows with [`Grouper::lookup_ids`].
///
/// Keys are interned without boxing a row: each batch's key columns are
/// hashed by typed loops ([`hash::hash_key_rows`]), the hash probes an
/// open-addressed table of group ids, and a candidate group is confirmed by
/// comparing the row's cells in place against the group's stored key
/// ([`cell_eq`]). A `Vec<Value>` key is built once per *new group*.
#[derive(Debug, Default)]
pub struct Grouper {
    /// Open-addressed, linearly probed; power-of-two length, at most half
    /// full. Each slot holds a group id (`EMPTY` = free) and the high half
    /// of its key hash, which rejects nearly every non-matching probe
    /// without a second memory access.
    slots: Vec<(u32, u32)>,
    /// Key hash per group, to re-place groups when `slots` grows.
    hashes: Vec<u64>,
    keys: Vec<Vec<Value>>,
    /// What rows are compared against: every key's cells as [`KeyCell`]s,
    /// one per key column per group, flat — a fixed-width key is confirmed
    /// from one cache line without following `keys[g]` to its heap values.
    cells: Vec<KeyCell>,
    /// The key columns' types, fixed by the first call: fixed-width cells
    /// compare by their 64-bit word, which means nothing across types.
    types: Vec<DataType>,
}

/// Rows hashed at a time: the hashes stay in L1 until they are probed, and
/// the scratch does not grow with the batch.
const HASH_BLOCK: usize = 1024;

const EMPTY: u32 = u32::MAX;

/// One component of a stored key, as rows compare against it: fixed-width
/// types (and floats, by their canonical bits) as an integer, a string by
/// the slice in `keys`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyCell {
    Null,
    Word(u64),
    Str,
}

impl KeyCell {
    fn of(v: &Value) -> KeyCell {
        match v {
            Value::Null => KeyCell::Null,
            Value::Utf8(_) => KeyCell::Str,
            fixed => KeyCell::Word(hash::key_word(fixed)),
        }
    }
}

impl Grouper {
    pub fn new() -> Self {
        Grouper::default()
    }

    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    /// Group keys in first-appearance order (one `Vec<Value>` per group).
    pub fn keys(&self) -> &[Vec<Value>] {
        &self.keys
    }

    /// Approximate heap footprint of the keys of groups `first..`, for
    /// executors that budget their state batch by batch.
    pub fn key_bytes(&self, first: usize) -> usize {
        let keys = self.keys[first..].iter().flatten();
        keys.map(approx_value_bytes).sum()
    }

    /// Resolve every row of `cols` (the key columns, all the same length,
    /// the same number on every call) to a dense group id, interning unseen
    /// keys. `ids` is cleared and refilled so scratch can be reused across
    /// batches.
    ///
    /// A single dictionary-encoded key column groups in code space: one
    /// intern per distinct code in the batch, and every other row is a
    /// plain `u32` array lookup — no hashing, no comparing.
    pub fn group_ids<C: Borrow<Column>>(&mut self, cols: &[C], ids: &mut Vec<u32>) -> Result<()> {
        if self.keys.is_empty() {
            self.types = cols.iter().map(|c| c.borrow().data_type()).collect();
        }
        let (cols, n) = self.key_columns(cols)?;
        ids.clear();
        ids.reserve(n);
        if let [Column::Dict(d)] = cols[..] {
            let mut code_group = vec![u32::MAX; d.dict().len()];
            let mut null_group = u32::MAX;
            let vb = d.validity().map(Bitmap::to_bools);
            for (i, &c) in d.codes().iter().enumerate() {
                let slot = if vb.as_ref().is_none_or(|v| v[i]) {
                    &mut code_group[c as usize]
                } else {
                    &mut null_group
                };
                if *slot == u32::MAX {
                    let key = cols[0].get(i)?;
                    *slot = self.intern(
                        hash::hash_key_value(&key),
                        |_, stored| stored[0] == key,
                        || Ok(vec![key.clone()]),
                    )?;
                }
                ids.push(*slot);
            }
            return Ok(());
        }
        let mut hashes = Vec::with_capacity(HASH_BLOCK.min(n));
        for start in (0..n).step_by(HASH_BLOCK) {
            let rows = start..(start + HASH_BLOCK).min(n);
            hash::hash_key_rows(&cols, rows.clone(), &mut hashes);
            for (i, &hash) in rows.zip(&hashes) {
                ids.push(self.intern(hash, row_eq(&cols, i), || {
                    cols.iter().map(|c| c.get(i)).collect()
                })?);
            }
        }
        Ok(())
    }

    /// [`Self::group_ids`] without interning: a row whose key is no group
    /// yet resolves to [`Grouper::NO_GROUP`]. Keys compare as they group —
    /// NULL equals NULL, so a caller with join semantics masks NULL keys
    /// itself — and only within a type: against key columns of other types
    /// than the interned ones (an INT probe of DOUBLE keys) nothing matches.
    pub fn lookup_ids<C: Borrow<Column>>(&self, cols: &[C], ids: &mut Vec<u32>) -> Result<()> {
        ids.clear();
        let types = cols.iter().map(|c| c.borrow().data_type());
        if self.keys.is_empty() || !types.eq(self.types.iter().copied()) {
            ids.resize(cols.first().map_or(0, |c| c.borrow().len()), Self::NO_GROUP);
            return Ok(());
        }
        let (cols, n) = self.key_columns(cols)?;
        ids.reserve(n);
        let mut hashes = Vec::with_capacity(HASH_BLOCK.min(n));
        for start in (0..n).step_by(HASH_BLOCK) {
            let rows = start..(start + HASH_BLOCK).min(n);
            hash::hash_key_rows(&cols, rows.clone(), &mut hashes);
            for (i, &hash) in rows.zip(&hashes) {
                ids.push(self.find(hash, row_eq(&cols, i)).unwrap_or(Self::NO_GROUP));
            }
        }
        Ok(())
    }

    /// What [`Self::lookup_ids`] resolves an unknown key to.
    pub const NO_GROUP: u32 = EMPTY;

    /// The key columns of one call, checked against the key's width and
    /// each other's length, and that length.
    fn key_columns<'a, C: Borrow<Column>>(
        &self,
        cols: &'a [C],
    ) -> Result<(Vec<&'a Column>, usize)> {
        let cols: Vec<&Column> = cols.iter().map(Borrow::borrow).collect();
        if self.types.len() != cols.len() {
            let what = format!("grouper keyed by {} columns", self.types.len());
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

    /// The group whose key hashes to `hash` and satisfies `eq` (given the
    /// key's cells and values), or the free slot such a key would take.
    fn find(
        &self,
        hash: u64,
        eq: impl Fn(&[KeyCell], &[Value]) -> bool,
    ) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let tag = (hash >> 32) as u32;
        let width = self.types.len();
        let mut at = hash as usize & mask;
        loop {
            let (group, seen) = self.slots[at];
            if group == EMPTY {
                return Err(at);
            }
            let g = group as usize;
            if seen == tag && eq(&self.cells[g * width..][..width], &self.keys[g]) {
                return Ok(group);
            }
            at = (at + 1) & mask;
        }
    }

    /// The id of the group [`Self::find`] finds, interning `key()` as a new
    /// group if there is none.
    fn intern(
        &mut self,
        hash: u64,
        eq: impl Fn(&[KeyCell], &[Value]) -> bool,
        key: impl FnOnce() -> Result<Vec<Value>>,
    ) -> Result<u32> {
        if (self.keys.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        self.find(hash, eq).or_else(|at| {
            let key = key()?;
            let group = self.keys.len() as u32;
            self.slots[at] = (group, (hash >> 32) as u32);
            self.hashes.push(hash);
            self.cells.extend(key.iter().map(KeyCell::of));
            self.keys.push(key);
            Ok(group)
        })
    }

    fn grow(&mut self) {
        let mask = (self.slots.len() * 2).max(16) - 1;
        self.slots.clear();
        self.slots.resize(mask + 1, (EMPTY, 0));
        for (group, &hash) in self.hashes.iter().enumerate() {
            let mut at = hash as usize & mask;
            while self.slots[at].0 != EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = (group as u32, (hash >> 32) as u32);
        }
    }
}

/// Whether row `i` of the key columns equals a stored key.
fn row_eq<'a>(cols: &'a [&Column], i: usize) -> impl Fn(&[KeyCell], &[Value]) -> bool + 'a {
    move |cells, key| {
        (cols.iter().zip(cells).zip(key)).all(|((col, cell), k)| cell_eq(col, i, *cell, k))
    }
}

/// Whether cell `i` of `col` equals a stored key component, by the rules of
/// [`hash::RowKey`]: NULL equals only NULL, floats compare by their
/// canonical bits, a dictionary cell by the string it resolves to. Typed in
/// place — fixed-width types as integers, strings by slice.
#[inline]
fn cell_eq(col: &Column, i: usize, cell: KeyCell, key: &Value) -> bool {
    if !col.is_valid(i) {
        return cell == KeyCell::Null;
    }
    match col {
        Column::Bool(v, _) => cell == KeyCell::Word(v[i] as u64),
        Column::Int64(v, _) | Column::Timestamp(v, _) => cell == KeyCell::Word(v[i] as u64),
        Column::Date(v, _) => cell == KeyCell::Word(v[i] as u64),
        Column::Float64(v, _) => cell == KeyCell::Word(hash::canonical_f64_bits(v[i])),
        Column::Utf8(v, _) => matches!(key, Value::Utf8(k) if *k == v[i]),
        Column::Dict(d) => matches!(key, Value::Utf8(k) if k == d.value(i)),
    }
}

fn approx_value_bytes(v: &Value) -> usize {
    std::mem::size_of::<Value>()
        + match v {
            Value::Utf8(s) => s.len(),
            _ => 0,
        }
}

/// Accumulate one batch into per-group aggregate states. `ids[i]` selects
/// the state updated by row `i` (all ids must be `< states.len()`); `arg`
/// is the aggregate's argument column, or `None` for `COUNT(*)`.
///
/// Hot combinations — SUM/AVG over numerics, COUNT, and MIN/MAX over
/// strings (plain or dictionary) — run as typed validity-masked loops; the
/// rest falls back to the per-row boxed update, which for fixed-width types
/// never heap-allocates.
pub fn update_grouped(states: &mut [AggState], ids: &[u32], arg: Option<&Column>) -> Result<()> {
    let Some(col) = arg else {
        for &g in ids {
            states[g as usize].count += 1;
        }
        return Ok(());
    };
    if col.len() != ids.len() {
        return Err(ColumnarError::LengthMismatch {
            expected: ids.len(),
            actual: col.len(),
        });
    }
    let Some(agg) = states.first().map(|s| s.agg) else {
        return Ok(());
    };
    match (agg, col) {
        (Aggregator::Sum | Aggregator::Avg, Column::Int64(values, validity)) => {
            let vb = validity.as_ref().map(Bitmap::to_bools);
            for (i, &x) in values.iter().enumerate() {
                if vb.as_ref().is_none_or(|v| v[i]) {
                    let s = &mut states[ids[i] as usize];
                    match s.sum_i.checked_add(x) {
                        Some(v) => s.sum_i = v,
                        None => s.overflowed = true,
                    }
                    s.sum_f += x as f64;
                    s.count += 1;
                }
            }
            Ok(())
        }
        (Aggregator::Sum | Aggregator::Avg, Column::Float64(values, validity)) => {
            let vb = validity.as_ref().map(Bitmap::to_bools);
            for (i, &x) in values.iter().enumerate() {
                if vb.as_ref().is_none_or(|v| v[i]) {
                    let s = &mut states[ids[i] as usize];
                    s.sum_f += x;
                    s.count += 1;
                }
            }
            Ok(())
        }
        (Aggregator::Count, _) => {
            match col.validity() {
                None => {
                    for &g in ids {
                        states[g as usize].count += 1;
                    }
                }
                Some(b) => {
                    let vb = b.to_bools();
                    for (i, &g) in ids.iter().enumerate() {
                        if vb[i] {
                            states[g as usize].count += 1;
                        }
                    }
                }
            }
            Ok(())
        }
        (Aggregator::CountStar, _) => {
            for &g in ids {
                states[g as usize].count += 1;
            }
            Ok(())
        }
        (Aggregator::Min | Aggregator::Max, Column::Utf8(values, validity)) => {
            let vb = validity.as_ref().map(Bitmap::to_bools);
            minmax_grouped_str(states, ids, vb.as_deref(), agg == Aggregator::Min, |i| {
                values[i].as_str()
            });
            Ok(())
        }
        (Aggregator::Min | Aggregator::Max, Column::Dict(d)) => {
            let vb = d.validity().map(Bitmap::to_bools);
            minmax_grouped_str(states, ids, vb.as_deref(), agg == Aggregator::Min, |i| {
                d.value(i)
            });
            Ok(())
        }
        _ => {
            for (i, &g) in ids.iter().enumerate() {
                states[g as usize].update(&col.get(i)?)?;
            }
            Ok(())
        }
    }
}

/// Grouped MIN/MAX over strings without cloning: only an actual new
/// extremum allocates.
fn minmax_grouped_str<'a>(
    states: &mut [AggState],
    ids: &[u32],
    vb: Option<&[bool]>,
    want_min: bool,
    value: impl Fn(usize) -> &'a str,
) {
    for (i, &g) in ids.iter().enumerate() {
        if vb.is_none_or(|v| v[i]) {
            let s = &mut states[g as usize];
            s.count += 1;
            let x = value(i);
            let slot = if want_min { &mut s.min } else { &mut s.max };
            let better = match slot {
                Value::Null => true,
                Value::Utf8(cur) => ord(x < cur.as_str(), want_min, x > cur.as_str()),
                _ => false,
            };
            if better {
                *slot = Value::Utf8(x.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn count_distinct_merge_unions() {
        let mut a = AggState::new(Aggregator::CountDistinct);
        a.update(&Value::Int64(1)).unwrap();
        a.update(&Value::Int64(2)).unwrap();
        let mut b = AggState::new(Aggregator::CountDistinct);
        b.update(&Value::Int64(2)).unwrap();
        b.update(&Value::Int64(3)).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finish(DataType::Int64).unwrap(), Value::Int64(3));
    }

    #[test]
    fn merge_states() {
        let mut a = AggState::new(Aggregator::Sum);
        a.update(&Value::Int64(1)).unwrap();
        let mut b = AggState::new(Aggregator::Sum);
        b.update(&Value::Int64(2)).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finish(DataType::Int64).unwrap(), Value::Int64(3));
    }

    #[test]
    fn merge_min_max() {
        let mut a = AggState::new(Aggregator::Min);
        a.update(&Value::Int64(5)).unwrap();
        let mut b = AggState::new(Aggregator::Min);
        b.update(&Value::Int64(2)).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finish(DataType::Int64).unwrap(), Value::Int64(2));
    }

    #[test]
    fn merge_mismatched_aggs_errors() {
        let mut a = AggState::new(Aggregator::Min);
        let b = AggState::new(Aggregator::Max);
        assert!(a.merge(&b).is_err());
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
            let mut slow = AggState::new(agg);
            for v in c.iter_values() {
                slow.update(&v).unwrap();
            }
            assert_eq!(fast, slow.finish(DataType::Int64).unwrap());
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
                let mut slow = AggState::new(agg);
                for v in c.iter_values() {
                    slow.update(&v).unwrap();
                }
                assert_eq!(fast, slow.finish(c.data_type()).unwrap());
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
        assert_eq!(
            g.keys(),
            &[
                vec![Value::Utf8("b".into())],
                vec![Value::Utf8("a".into())],
                vec![Value::Null]
            ]
        );
    }

    #[test]
    fn grouper_dict_fast_path_matches_general() {
        use crate::column::DictColumn;
        let values: Vec<String> = ["x", "y", "x", "z", "y", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let validity = Bitmap::from_bools(&[true, true, true, false, true, true]);
        let plain = Column::Utf8(values.clone(), Some(validity.clone()));
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
        assert_eq!(ga.keys(), gb.keys());
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
        // A grouper keeps the key width of its first batch.
        assert!(g.group_ids(std::slice::from_ref(&b), &mut ids).is_err());
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
    fn grouper_float_keys_group_by_canonical_bits() {
        let mut g = Grouper::new();
        let mut ids = Vec::new();
        let nan = f64::from_bits(f64::NAN.to_bits() | 1);
        let key =
            Column::from_opt_f64(vec![Some(-0.0), Some(f64::NAN), None, Some(0.0), Some(nan)]);
        g.group_ids(std::slice::from_ref(&key), &mut ids).unwrap();
        assert_eq!(ids, vec![0, 1, 2, 0, 1]);
        // The stored key is the first row's own value, sign and all.
        assert!(matches!(g.keys()[0][0], Value::Float64(z) if z == 0.0 && z.is_sign_negative()));
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
            let mut slow = vec![AggState::new(agg); g.num_groups()];
            for (i, &gid) in ids.iter().enumerate() {
                slow[gid as usize].update(&arg.get(i).unwrap()).unwrap();
            }
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(
                    f.finish(DataType::Int64).unwrap(),
                    s.finish(DataType::Int64).unwrap(),
                    "agg {agg:?}"
                );
            }
        }

        // COUNT(*): no argument column.
        let mut star = vec![AggState::new(Aggregator::CountStar); g.num_groups()];
        update_grouped(&mut star, &ids, None).unwrap();
        assert_eq!(star[0].finish(DataType::Int64).unwrap(), Value::Int64(3));
        assert_eq!(star[1].finish(DataType::Int64).unwrap(), Value::Int64(2));
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
            Column::Utf8(values.clone(), None),
            Column::Dict(DictColumn::encode(&values, None).unwrap()),
        ] {
            let mut mins = vec![AggState::new(Aggregator::Min); 2];
            update_grouped(&mut mins, &ids, Some(&col)).unwrap();
            assert_eq!(
                mins[0].finish(DataType::Utf8).unwrap(),
                Value::Utf8("b".into())
            );
            assert_eq!(
                mins[1].finish(DataType::Utf8).unwrap(),
                Value::Utf8("a".into())
            );
        }
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
