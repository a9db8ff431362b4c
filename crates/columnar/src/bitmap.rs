//! A packed validity bitmap: one bit per row, 1 = valid (non-null).

use crate::error::{ColumnarError, Result};

/// A packed bitmap, least-significant-bit first within each byte, mirroring
/// the Arrow validity-buffer layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    bits: Vec<u8>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all set (all rows valid).
    pub fn new_set(len: usize) -> Self {
        let mut bits = vec![0xFFu8; len.div_ceil(8)];
        // Zero the trailing padding bits so equality and count stay exact.
        if !len.is_multiple_of(8) {
            if let Some(last) = bits.last_mut() {
                *last &= (1u8 << (len % 8)) - 1;
            }
        }
        Bitmap { bits, len }
    }

    /// A bitmap of `len` bits, all clear (all rows null).
    pub fn new_clear(len: usize) -> Self {
        Bitmap {
            bits: vec![0u8; len.div_ceil(8)],
            len,
        }
    }

    /// Build from a slice of booleans. Packs eight bools per byte in one
    /// pass so the loop autovectorizes instead of read-modify-writing one
    /// bit at a time.
    pub fn from_bools(values: &[bool]) -> Self {
        let mut bits = vec![0u8; values.len().div_ceil(8)];
        for (byte, chunk) in bits.iter_mut().zip(values.chunks(8)) {
            let mut b = 0u8;
            for (bit, &v) in chunk.iter().enumerate() {
                b |= (v as u8) << bit;
            }
            *byte = b;
        }
        Bitmap {
            bits,
            len: values.len(),
        }
    }

    /// Expand to one bool per bit. The inverse of [`Bitmap::from_bools`];
    /// kernels expand validity once and then run branch-free loops over the
    /// bool slice instead of doing a bit lookup per element.
    pub fn to_bools(&self) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.len);
        for (byte_idx, &byte) in self.bits.iter().enumerate() {
            let take = (self.len - byte_idx * 8).min(8);
            for bit in 0..take {
                out.push((byte >> bit) & 1 == 1);
            }
        }
        out
    }

    /// Build from an iterator of `Option<T>`, setting bits where `Some`.
    pub fn from_options<T>(values: &[Option<T>]) -> Self {
        let mut bm = Bitmap::new_clear(values.len());
        for (i, v) in values.iter().enumerate() {
            if v.is_some() {
                bm.set(i);
            }
        }
        bm
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Get bit `i`. Panics in debug if out of bounds; returns false otherwise.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        if i >= self.len {
            return false;
        }
        (self.bits[i / 8] >> (i % 8)) & 1 == 1
    }

    /// Set bit `i` to 1.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        self.bits[i / 8] |= 1 << (i % 8);
    }

    /// Clear bit `i` to 0.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        self.bits[i / 8] &= !(1 << (i % 8));
    }

    /// Append one bit, growing the bitmap.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(8) {
            self.bits.push(0);
        }
        self.len += 1;
        if value {
            self.set(self.len - 1);
        }
    }

    /// Number of set bits (valid rows). Uses per-byte popcount.
    pub fn count_set(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Number of clear bits (null rows).
    pub fn count_clear(&self) -> usize {
        self.len - self.count_set()
    }

    /// Popcount of the intersection (`self AND other`) without
    /// materializing it. Lengths must match.
    pub fn count_set_both(&self, other: &Bitmap) -> Result<usize> {
        if self.len != other.len {
            return Err(ColumnarError::LengthMismatch {
                expected: self.len,
                actual: other.len,
            });
        }
        Ok(self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum())
    }

    /// True if every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_set() == self.len
    }

    /// Bitwise AND of two bitmaps of equal length.
    pub fn and(&self, other: &Bitmap) -> Result<Bitmap> {
        if self.len != other.len {
            return Err(ColumnarError::LengthMismatch {
                expected: self.len,
                actual: other.len,
            });
        }
        let bits = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| a & b)
            .collect();
        Ok(Bitmap {
            bits,
            len: self.len,
        })
    }

    /// Bitwise OR of two bitmaps of equal length.
    pub fn or(&self, other: &Bitmap) -> Result<Bitmap> {
        if self.len != other.len {
            return Err(ColumnarError::LengthMismatch {
                expected: self.len,
                actual: other.len,
            });
        }
        let bits = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| a | b)
            .collect();
        Ok(Bitmap {
            bits,
            len: self.len,
        })
    }

    /// Bitwise NOT (within `len`; padding bits stay clear).
    pub fn not(&self) -> Bitmap {
        let mut bits: Vec<u8> = self.bits.iter().map(|b| !b).collect();
        if !self.len.is_multiple_of(8) {
            if let Some(last) = bits.last_mut() {
                *last &= (1u8 << (self.len % 8)) - 1;
            }
        }
        Bitmap {
            bits,
            len: self.len,
        }
    }

    /// Iterate over bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Indices of set bits, used to build selection vectors.
    pub fn set_indices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.set_indices_into(&mut out);
        out
    }

    /// Like [`Bitmap::set_indices`] but writes into a caller-provided buffer
    /// (cleared first), so hot paths can reuse a pooled scratch vector
    /// instead of allocating per batch.
    pub fn set_indices_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.reserve(self.count_set());
        self.for_each_set(|i| out.push(i));
    }

    /// The bits 64 at a time, bit `i` of the bitmap at bit `i % 64` of word
    /// `i / 64`; bits past `len` are clear.
    pub fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.bits.chunks(8).map(|bytes| {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            u64::from_le_bytes(word)
        })
    }

    /// Call `f` with the index of every set bit, ascending. Word-at-a-time
    /// (u64) bit scan, so filter kernels can fuse the mask scan with their
    /// gather instead of materializing an index vector in between.
    #[inline]
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        let (words, tail) = self.bits.as_chunks::<8>();
        let mut base = 0usize;
        for &chunk in words {
            let mut w = u64::from_le_bytes(chunk);
            while w != 0 {
                f(base + w.trailing_zeros() as usize);
                w &= w - 1;
            }
            base += 64;
        }
        for &byte in tail {
            let mut b = if base + 8 <= self.len {
                byte
            } else {
                // Last byte: ignore padding bits past `len`.
                byte & ((1u8 << (self.len - base)) - 1)
            };
            while b != 0 {
                f(base + b.trailing_zeros() as usize);
                b &= b - 1;
            }
            base += 8;
        }
    }

    /// Copy a contiguous bit range `[offset, offset + len)` into a new
    /// bitmap, shifting bytes instead of copying bit by bit.
    pub fn slice_range(&self, offset: usize, len: usize) -> Bitmap {
        assert!(
            offset + len <= self.len,
            "slice [{offset}, {}) out of bounds ({})",
            offset + len,
            self.len
        );
        let n_bytes = len.div_ceil(8);
        let start_byte = offset / 8;
        let shift = offset % 8;
        let mut bits = vec![0u8; n_bytes];
        if shift == 0 {
            bits.copy_from_slice(&self.bits[start_byte..start_byte + n_bytes]);
        } else {
            for (i, b) in bits.iter_mut().enumerate() {
                let lo = self.bits[start_byte + i] >> shift;
                let hi = self
                    .bits
                    .get(start_byte + i + 1)
                    .map_or(0, |&x| x << (8 - shift));
                *b = lo | hi;
            }
        }
        if !len.is_multiple_of(8) {
            if let Some(last) = bits.last_mut() {
                *last &= (1u8 << (len % 8)) - 1;
            }
        }
        Bitmap { bits, len }
    }

    /// Append all bits of `other`, growing this bitmap. Byte-shifts whole
    /// bytes rather than pushing bit by bit.
    pub fn append(&mut self, other: &Bitmap) {
        if other.len == 0 {
            return;
        }
        let shift = self.len % 8;
        if shift == 0 {
            self.bits.extend_from_slice(&other.bits);
        } else {
            for &b in &other.bits {
                if let Some(last) = self.bits.last_mut() {
                    *last |= b << shift;
                }
                self.bits.push(b >> (8 - shift));
            }
        }
        self.len += other.len;
        self.bits.truncate(self.len.div_ceil(8));
        if !self.len.is_multiple_of(8) {
            if let Some(last) = self.bits.last_mut() {
                *last &= (1u8 << (self.len % 8)) - 1;
            }
        }
    }

    /// Raw underlying bytes (for serialization).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Reconstruct from raw bytes and a length.
    pub fn from_bytes(bytes: Vec<u8>, len: usize) -> Result<Bitmap> {
        if bytes.len() != len.div_ceil(8) {
            return Err(ColumnarError::LengthMismatch {
                expected: len.div_ceil(8),
                actual: bytes.len(),
            });
        }
        let mut bm = Bitmap { bits: bytes, len };
        // Normalize padding so equality comparisons are well-defined.
        if !len.is_multiple_of(8) {
            if let Some(last) = bm.bits.last_mut() {
                *last &= (1u8 << (len % 8)) - 1;
            }
        }
        Ok(bm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_set_and_clear() {
        let s = Bitmap::new_set(10);
        assert_eq!(s.len(), 10);
        assert_eq!(s.count_set(), 10);
        assert!(s.all_set());
        let c = Bitmap::new_clear(10);
        assert_eq!(c.count_set(), 0);
        assert_eq!(c.count_clear(), 10);
    }

    #[test]
    fn set_clear_get() {
        let mut bm = Bitmap::new_clear(20);
        bm.set(0);
        bm.set(7);
        bm.set(8);
        bm.set(19);
        assert!(bm.get(0) && bm.get(7) && bm.get(8) && bm.get(19));
        assert!(!bm.get(1) && !bm.get(9));
        bm.clear(7);
        assert!(!bm.get(7));
        assert_eq!(bm.count_set(), 3);
    }

    #[test]
    fn push_grows() {
        let mut bm = Bitmap::new_clear(0);
        for i in 0..17 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 17);
        assert_eq!(bm.count_set(), 6); // 0,3,6,9,12,15
    }

    #[test]
    fn and_or_not() {
        let a = Bitmap::from_bools(&[true, true, false, false, true]);
        let b = Bitmap::from_bools(&[true, false, true, false, true]);
        assert_eq!(
            a.and(&b).unwrap().iter().collect::<Vec<_>>(),
            vec![true, false, false, false, true]
        );
        assert_eq!(
            a.or(&b).unwrap().iter().collect::<Vec<_>>(),
            vec![true, true, true, false, true]
        );
        assert_eq!(
            a.not().iter().collect::<Vec<_>>(),
            vec![false, false, true, true, false]
        );
    }

    #[test]
    fn and_length_mismatch_errors() {
        let a = Bitmap::new_set(3);
        let b = Bitmap::new_set(4);
        assert!(a.and(&b).is_err());
    }

    #[test]
    fn not_keeps_padding_clear() {
        let a = Bitmap::new_clear(5);
        let n = a.not();
        assert_eq!(n.count_set(), 5);
        assert_eq!(n.not().count_set(), 0);
    }

    #[test]
    fn set_indices_matches_iter() {
        let bm = Bitmap::from_bools(&[true, false, false, true, true, false, true]);
        assert_eq!(bm.set_indices(), vec![0, 3, 4, 6]);
    }

    #[test]
    fn from_options_sets_some() {
        let bm = Bitmap::from_options(&[Some(1), None, Some(3)]);
        assert_eq!(bm.iter().collect::<Vec<_>>(), vec![true, false, true]);
    }

    #[test]
    fn bytes_round_trip() {
        let bm = Bitmap::from_bools(&[true, false, true, true, false, false, true, false, true]);
        let rt = Bitmap::from_bytes(bm.as_bytes().to_vec(), bm.len()).unwrap();
        assert_eq!(bm, rt);
    }

    #[test]
    fn from_bytes_wrong_len_errors() {
        assert!(Bitmap::from_bytes(vec![0u8; 1], 9).is_err());
    }

    #[test]
    fn to_bools_round_trips() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 130] {
            let bools: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let bm = Bitmap::from_bools(&bools);
            assert_eq!(bm.to_bools(), bools, "n={n}");
            assert_eq!(bm.count_set(), bools.iter().filter(|&&b| b).count());
        }
    }

    #[test]
    fn slice_range_matches_bitwise() {
        let bools: Vec<bool> = (0..100).map(|i| (i * 7) % 5 < 2).collect();
        let bm = Bitmap::from_bools(&bools);
        for &(off, len) in &[
            (0usize, 100usize),
            (3, 17),
            (8, 16),
            (13, 64),
            (99, 1),
            (50, 0),
        ] {
            let s = bm.slice_range(off, len);
            assert_eq!(s.len(), len);
            assert_eq!(s.to_bools(), &bools[off..off + len], "off={off} len={len}");
        }
    }

    #[test]
    fn append_matches_concat_of_bools() {
        let a_bools: Vec<bool> = (0..13).map(|i| i % 2 == 0).collect();
        let b_bools: Vec<bool> = (0..27).map(|i| i % 3 == 0).collect();
        let mut a = Bitmap::from_bools(&a_bools);
        a.append(&Bitmap::from_bools(&b_bools));
        let mut expect = a_bools;
        expect.extend(&b_bools);
        assert_eq!(a.to_bools(), expect);
        // Padding stays normalized so equality with a fresh build holds.
        assert_eq!(a, Bitmap::from_bools(&expect));
    }

    #[test]
    fn set_indices_into_reuses_buffer() {
        let bm = Bitmap::from_bools(&[true, false, true]);
        let mut buf = vec![9usize; 100];
        bm.set_indices_into(&mut buf);
        assert_eq!(buf, vec![0, 2]);
    }
}
