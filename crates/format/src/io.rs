//! Little-endian byte serialization helpers used by the footer and encodings.

use crate::error::{FormatError, Result};

/// Bytes that `n` values bit-packed at `width` bits apiece take: ⌈n·width/8⌉,
/// or `None` when n·width is no size.
pub(crate) fn packed_len(n: usize, width: u32) -> Option<usize> {
    n.checked_mul(width as usize).map(|bits| bits.div_ceil(8))
}

/// Append-only byte sink with typed write helpers.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// The bytes written so far (checksumming a region before finishing).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Make room for `additional` more bytes in one allocation.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Fixed-width values back to back, each as the `N` bytes `le` makes of
    /// it: one resize, then a copy loop the compiler vectorises.
    pub fn write_plain<T: Copy, const N: usize>(
        &mut self,
        values: &[T],
        le: impl Fn(T) -> [u8; N],
    ) {
        let at = self.buf.len();
        self.buf.resize(at + values.len() * N, 0);
        let (cells, _) = self.buf[at..].as_chunks_mut::<N>();
        for (cell, &v) in cells.iter_mut().zip(values) {
            *cell = le(v);
        }
    }

    /// `n` values, each below 2^`width`, bit-packed at `width` (1–64) bits
    /// apiece, LSB-first, as one run however many runs they come in:
    /// ⌈n·width/8⌉ bytes, whole words going out of a 128-bit accumulator as
    /// they fill.
    pub fn write_packed<I: IntoIterator<Item = u64>>(
        &mut self,
        runs: impl IntoIterator<Item = I>,
        n: usize,
        width: u32,
    ) {
        self.buf.reserve(packed_len(n, width).unwrap_or(0));
        let (mut acc, mut filled) = (0u128, 0u32);
        for run in runs {
            for v in run {
                acc |= u128::from(v) << filled;
                filled += width;
                if filled >= 64 {
                    self.buf.extend_from_slice(&(acc as u64).to_le_bytes());
                    acc >>= 64;
                    filled -= 64;
                }
            }
        }
        let tail = (acc as u64).to_le_bytes();
        self.buf
            .extend(tail.iter().take(filled.div_ceil(8) as usize));
    }

    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn write_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn write_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn write_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed (u32) byte blob.
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.write_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn write_str(&mut self, v: &str) {
        self.write_bytes(v.as_bytes());
    }

    /// Raw bytes with no length prefix.
    pub fn write_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Cursor over a byte slice with typed read helpers; every read is
/// bounds-checked and truncation surfaces as `Corrupt`.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        self.ensure_room(n, 1)?;
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Whether `n` more values of at least `width` bytes each can follow. A
    /// count read from the bytes is checked with this before anything is
    /// sized by it, so a lying count is `Corrupt`, never an allocation.
    pub fn ensure_room(&self, n: usize, width: usize) -> Result<()> {
        match n.checked_mul(width) {
            Some(len) if len <= self.remaining() => Ok(()),
            _ => Err(FormatError::Corrupt(format!(
                "{n} x {width} bytes wanted at offset {}, only {} remain",
                self.pos,
                self.remaining()
            ))),
        }
    }

    /// The next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let short = || FormatError::Corrupt(format!("short read of {N} bytes"));
        self.take(N)?.first_chunk().copied().ok_or_else(short)
    }

    /// `n` fixed-width values onto `out`, `from` making each of its `N`
    /// bytes: the count checked against what is left, then one pass over
    /// one slice.
    pub fn read_plain<T, const N: usize>(
        &mut self,
        out: &mut Vec<T>,
        n: usize,
        from: impl Fn([u8; N]) -> T,
    ) -> Result<()> {
        self.ensure_room(n, N)?;
        let (cells, _) = self.take(n * N)?.as_chunks::<N>();
        out.extend(cells.iter().map(|&cell| from(cell)));
        Ok(())
    }

    /// `n` values bit-packed at `width` bits apiece (as
    /// [`ByteWriter::write_packed`] packs them) onto `out`, `from` making
    /// each. The width must lie in `1..=max_width`; so `n` is at most 8 ×
    /// the bytes left before it sizes anything. Decoded 64 values at a time
    /// from the `width` words that hold them, with no per-value branch.
    pub fn read_packed<T>(
        &mut self,
        out: &mut Vec<T>,
        n: usize,
        (width, max_width): (u8, u8),
        from: impl Fn(u64) -> T,
    ) -> Result<()> {
        if width == 0 || width > max_width.min(64) {
            return Err(FormatError::Corrupt(format!(
                "bit width {width} outside 1..={max_width}"
            )));
        }
        let width = u32::from(width);
        let len = packed_len(n, width)
            .filter(|&len| len <= self.remaining())
            .ok_or_else(|| {
                FormatError::Corrupt(format!(
                    "{n} x {width} bits wanted at offset {}, only {} bytes remain",
                    self.pos,
                    self.remaining()
                ))
            })?;
        let mask = u64::MAX >> (64 - width);
        let end = out.len() + n;
        out.reserve(n);
        // A block of 64 values is `width` whole words; one spare word lets
        // every value read the pair of words it may straddle. Words past
        // the bytes only ever fill bits that are masked off or rows past `n`.
        let mut words = [0u64; 65];
        for block in self.take(len)?.chunks(8 * width as usize) {
            let (cells, rest) = block.as_chunks::<8>();
            for (word, cell) in words.iter_mut().zip(cells) {
                *word = u64::from_le_bytes(*cell);
            }
            if let Some(word) = words.get_mut(cells.len()) {
                let mut last = [0u8; 8];
                last.iter_mut().zip(rest).for_each(|(to, from)| *to = *from);
                *word = u64::from_le_bytes(last);
            }
            let value = |j: u32| {
                let (bit, at) = (j * width % 64, (j * width / 64) as usize & 63);
                // The next word's low bits, above this word's high ones (in
                // two shifts, as one of 64 would overflow).
                let high = words[at + 1] << 1 << (63 - bit);
                from((words[at] >> bit | high) & mask)
            };
            // The last block stops at `n`: `out` grows by no value past it.
            match end - out.len() {
                left @ 0..64 => out.extend((0..left as u32).map(value)),
                _ => out.extend((0..64).map(value)),
            }
        }
        Ok(())
    }

    pub fn read_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn read_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    pub fn read_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    pub fn read_i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take_array()?))
    }

    pub fn read_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    pub fn read_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    /// Length-prefixed byte blob.
    pub fn read_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.read_u32()? as usize;
        self.take(len)
    }

    /// Length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String> {
        let bytes = self.read_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FormatError::Corrupt("invalid utf8 string".into()))
    }

    /// Raw bytes with no length prefix.
    pub fn read_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = ByteWriter::new();
        w.write_u8(7);
        w.write_u32(1234);
        w.write_u64(u64::MAX);
        w.write_i32(-5);
        w.write_i64(i64::MIN);
        w.write_f64(2.5);
        w.write_str("hello");
        w.write_bytes(b"blob");
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u32().unwrap(), 1234);
        assert_eq!(r.read_u64().unwrap(), u64::MAX);
        assert_eq!(r.read_i32().unwrap(), -5);
        assert_eq!(r.read_i64().unwrap(), i64::MIN);
        assert_eq!(r.read_f64().unwrap(), 2.5);
        assert_eq!(r.read_str().unwrap(), "hello");
        assert_eq!(r.read_bytes().unwrap(), b"blob");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_corrupt_not_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.read_u64().is_err());
    }

    #[test]
    fn bad_utf8_is_corrupt() {
        let mut w = ByteWriter::new();
        w.write_bytes(&[0xFF, 0xFE]);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert!(r.read_str().is_err());
    }

    #[test]
    fn lying_length_prefix_is_corrupt() {
        let mut w = ByteWriter::new();
        w.write_u32(1000); // claims 1000 bytes follow
        w.write_raw(b"xy");
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert!(r.read_bytes().is_err());
    }
}
