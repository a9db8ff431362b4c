//! [`Buffer`]: the shared, immutable values behind a column.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable run of values: the window `[offset, offset + len)` of one
/// reference-counted allocation, as an Arrow buffer is. Cloning or slicing
/// it copies a pointer, never a value; it reads as the slice `&[T]` of its
/// window, so kernels take `&[T]` and never see the sharing.
///
/// A slice keeps its whole allocation alive: a site that holds a few rows
/// of a large batch for long copies them out
/// ([`crate::RecordBatch::copy_rows`]).
#[derive(Clone)]
pub struct Buffer<T> {
    data: Arc<Vec<T>>,
    offset: usize,
    len: usize,
}

impl<T> Buffer<T> {
    /// The values `range` of this window (which must hold them), sharing
    /// its allocation.
    pub fn slice(&self, range: Range<usize>) -> Buffer<T> {
        let len = self[range.clone()].len();
        Buffer {
            data: Arc::clone(&self.data),
            offset: self.offset + range.start,
            len,
        }
    }
}

impl<T> Deref for Buffer<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.data[self.offset..self.offset + self.len]
    }
}

impl<T> From<Vec<T>> for Buffer<T> {
    /// Share `values`, moved, not copied.
    fn from(values: Vec<T>) -> Buffer<T> {
        let len = values.len();
        Buffer {
            data: Arc::new(values),
            offset: 0,
            len,
        }
    }
}

impl<T> FromIterator<T> for Buffer<T> {
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> Buffer<T> {
        Buffer::from(values.into_iter().collect::<Vec<T>>())
    }
}

impl<T: PartialEq> PartialEq for Buffer<T> {
    /// Equal values, wherever they are held.
    fn eq(&self, other: &Buffer<T>) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for Buffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_or_slice_shares_its_allocation() {
        let whole: Buffer<i64> = (0..100).collect();
        let part = whole.slice(37..40);
        assert_eq!(*part, [37, 38, 39]);
        assert_eq!(part.as_ptr(), whole[37..].as_ptr());
        assert_eq!(part.slice(1..3).as_ptr(), whole[38..].as_ptr());
        assert_eq!(whole.clone().as_ptr(), whole.as_ptr());
    }

    #[test]
    #[should_panic]
    fn a_slice_past_the_window_panics_as_slice_indexing_does() {
        Buffer::from(vec![1u8, 2, 3]).slice(1..2).slice(0..2);
    }
}
