//! Aggregation kernels: incremental aggregate states used by both scalar
//! aggregation and the hash-grouped aggregation in the SQL engine.

use crate::bitmap::Bitmap;
use crate::column::{normalize_validity, Column};
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
/// One interner, two ways to find a key in it. The interner is the key
/// store — typed words ([`hash::key_words`]), never boxed values: a group's
/// id is its position there, so ids are first-appearance order whichever
/// lookup found (or missed) the key.
///
/// * The **hash index** — open addressing over the words, the general
///   lookup: a probe is confirmed by comparing its words with the stored
///   ones as one slice (then the strings, if the key has any).
/// * The **dense front** ([`DenseFront`]) — a direct-addressed table of
///   ids, used instead while every key column is Bool/Int64/Date/Timestamp
///   and the observed key domain is small: no hashing, no comparing. Keys
///   it interns reach the hash index only if the front is dropped.
#[derive(Debug, Default)]
pub struct Grouper {
    /// The key columns' types, fixed by the first call: fixed-width cells
    /// compare by their 64-bit word, which means nothing across types.
    types: Vec<DataType>,
    groups: usize,
    /// Every key's words, [`hash::key_stride`] a group.
    cells: Vec<u64>,
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

/// Rows resolved at a time: their words stay in L1 until they are probed,
/// and the scratch does not grow with the batch.
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
}

impl DenseFront {
    /// Make the table hold every key of `cols`: as it is if it does, else
    /// widened — with slack if that fits the bound, exactly otherwise — and
    /// refilled from the key store (`cells`), O(groups + table). `false`:
    /// the observed domain is past [`DENSE_CELLS`].
    fn cover(&mut self, cols: &[&Column], cells: &[u64]) -> bool {
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
            let keys = cells.chunks_exact(hash::key_stride(self.dims.len()));
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
}

impl Grouper {
    pub fn new() -> Self {
        Grouper::default()
    }

    pub fn num_groups(&self) -> usize {
        self.groups
    }

    /// Group keys in first-appearance order, one column per key column:
    /// row `g` is group `g`'s key (a float's its first row's own value),
    /// NULL cells holding what a [`crate::ColumnBuilder`] writes there.
    pub fn key_columns(&self) -> Vec<Column> {
        let width = self.types.len();
        let keys = || self.cells.chunks_exact(hash::key_stride(width));
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
                DataType::Float64 => Column::Float64(kept(&self.floats, c).to_vec(), validity),
                DataType::Utf8 => Column::Utf8(kept(&self.strings, c).to_vec(), validity),
            }
        };
        self.types.iter().enumerate().map(column).collect()
    }

    /// Approximate heap footprint of the grouper — keys, hash index and
    /// dense table — for executors that budget their state.
    pub fn key_bytes(&self) -> usize {
        let kept = self.floats.len() * 8 + self.strings.len() * std::mem::size_of::<String>();
        self.cells.len() * 8
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
    pub fn group_ids<C: Borrow<Column>>(&mut self, cols: &[C], ids: &mut Vec<u32>) -> Result<()> {
        if self.groups == 0 {
            self.types = cols.iter().map(|c| c.borrow().data_type()).collect();
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
        dense.take_if(|dense| !dense.cover(&cols, &self.cells));
        if dense.is_none() {
            self.reindex();
        }
        let mut words = Vec::new();
        if let [Column::Dict(d)] = cols[..] {
            let mut code_group = vec![EMPTY; d.dict().len()];
            let mut null_group = EMPTY;
            let vb = d.validity().map(Bitmap::to_bools);
            for (i, &c) in d.codes().iter().enumerate() {
                let slot = if vb.as_ref().is_none_or(|v| v[i]) {
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
        for start in (0..n).step_by(BLOCK) {
            let rows = start..(start + BLOCK).min(n);
            hash::key_words(&cols, rows.clone(), &mut words);
            let keys = rows.zip(words.chunks_exact(stride));
            let Some(dense) = &mut dense else {
                ids.extend(keys.map(|(i, key)| self.intern(key, &cols, i)));
                continue;
            };
            for (_, key) in keys {
                let cell = dense.cell_of(key);
                let group = &mut dense.table[cell];
                if *group == EMPTY {
                    *group = self.groups as u32;
                    self.cells.extend_from_slice(key);
                    self.groups += 1;
                }
                ids.push(*group);
            }
        }
        self.dense = dense;
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
        if self.groups == 0 || !types.eq(self.types.iter().copied()) {
            ids.resize(cols.first().map_or(0, |c| c.borrow().len()), Self::NO_GROUP);
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
    fn checked<'a, C: Borrow<Column>>(&self, cols: &'a [C]) -> Result<(Vec<&'a Column>, usize)> {
        let cols: Vec<&Column> = cols.iter().map(Borrow::borrow).collect();
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
                && self.cells[g * key.len()..][..key.len()] == *key
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
            self.cells.extend_from_slice(key);
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
            let hash = hash::hash_words(&self.cells[group * stride..][..stride]);
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
        let t = Column::Timestamp(vec![1, 2, 9], None);
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
