//! Database arrays (\[DG98\], Sec 4): variable-size components of attribute
//! values, "automatically either represented *inline* in a tuple
//! representation, or outside in a separate list of pages, depending on
//! their size". Outside the tuple, an array is one blob of the
//! [`PageStore`]: one contiguous byte range, read and written in pages.

use crate::page::{BlobId, PageStore};
use crate::record::{read_all, write_all, FixedRecord};
use mob_base::{DecodeError, DecodeResult};
use std::ops::Range;
use std::sync::Arc;

/// Size threshold (bytes): arrays up to this size are stored inline in
/// the tuple; larger ones go to separate pages.
pub const INLINE_THRESHOLD: usize = 256;

/// Where a saved array's bytes live.
#[derive(Clone, Debug, PartialEq)]
pub enum Placement {
    /// Bytes embedded in the tuple representation.
    Inline(Vec<u8>),
    /// Bytes in a blob of the page store, outside the tuple.
    External(BlobId),
}

/// Descriptor of a saved database array (part of the root record's
/// persistent state).
#[derive(Clone, Debug, PartialEq)]
pub struct SavedArray {
    /// Number of records.
    pub count: usize,
    /// Byte placement.
    pub placement: Placement,
}

impl SavedArray {
    /// `true` if stored inline.
    pub fn is_inline(&self) -> bool {
        matches!(self.placement, Placement::Inline(_))
    }

    /// Bytes occupied inline in the tuple (0 for external placement).
    pub fn inline_bytes(&self) -> usize {
        match &self.placement {
            Placement::Inline(b) => b.len(),
            Placement::External(_) => 0,
        }
    }

    /// Total byte length of the stored array.
    pub fn byte_len(&self, store: &PageStore) -> DecodeResult<usize> {
        match &self.placement {
            Placement::Inline(b) => Ok(b.len()),
            Placement::External(id) => store.blob_len(*id),
        }
    }

    /// Check that the stored byte length is exactly `count × T::SIZE` —
    /// the layout precondition for every record-wise access below.
    pub fn check_layout<T: FixedRecord>(&self, store: &PageStore) -> DecodeResult<()> {
        let len = self.byte_len(store)?;
        if !len.is_multiple_of(T::SIZE) {
            return Err(DecodeError::Ragged {
                what: T::WHAT,
                len,
                record_size: T::SIZE,
            });
        }
        let found = len / T::SIZE;
        if found != self.count {
            return Err(DecodeError::CountMismatch {
                what: T::WHAT,
                expected: self.count,
                found,
            });
        }
        Ok(())
    }
}

/// Save a record slice as a database array: inline when small, in an
/// external blob when large. This mirrors \[DG98\]'s automatic placement.
pub fn save_array<T: FixedRecord>(items: &[T], store: &mut PageStore) -> SavedArray {
    save_array_with_threshold(items, store, INLINE_THRESHOLD)
}

/// Save with an explicit inline threshold (experiment E5 sweeps this).
pub fn save_array_with_threshold<T: FixedRecord>(
    items: &[T],
    store: &mut PageStore,
    threshold: usize,
) -> SavedArray {
    place(items.len(), write_all(items), store, threshold)
}

/// Save the encoded bytes of `count` records as a database array,
/// placed as [`save_array`] places them: the one placement rule for
/// callers that assemble an array's bytes themselves.
pub(crate) fn save_array_bytes(count: usize, bytes: Vec<u8>, store: &mut PageStore) -> SavedArray {
    place(count, bytes, store, INLINE_THRESHOLD)
}

fn place(count: usize, bytes: Vec<u8>, store: &mut PageStore, threshold: usize) -> SavedArray {
    let placement = if bytes.len() <= threshold {
        Placement::Inline(bytes)
    } else {
        Placement::External(store.write_blob(bytes))
    };
    SavedArray { count, placement }
}

/// Load a database array back into records, parsed in place from the
/// bytes [`read_array_bytes`] borrows, whether they sit in the tuple or
/// in a blob.
///
/// The stored bytes are untrusted: ragged buffers, counts that disagree
/// with the byte length ([`SavedArray::check_layout`]), and invalid
/// record values all surface as [`DecodeError`]s.
pub fn load_array<T: FixedRecord>(saved: &SavedArray, store: &PageStore) -> DecodeResult<Vec<T>> {
    saved.check_layout::<T>(store)?;
    read_all(read_array_bytes(saved, store, 0, saved.count * T::SIZE)?)
}

/// The `byte_len` bytes of a saved array starting at `byte_off`,
/// borrowed without loading the rest: from the tuple for inline
/// placement, through [`PageStore::read_blob_range`] (which counts the
/// pages the range overlaps) for external placement. This is the one
/// range read of the storage-backed views.
#[inline]
pub fn read_array_bytes<'a>(
    saved: &'a SavedArray,
    store: &'a PageStore,
    byte_off: usize,
    byte_len: usize,
) -> DecodeResult<&'a [u8]> {
    match &saved.placement {
        Placement::Inline(b) => {
            let end = byte_off.saturating_add(byte_len);
            b.get(byte_off..end).ok_or(DecodeError::Truncated {
                what: "inline array range",
                need: end,
                have: b.len(),
            })
        }
        Placement::External(id) => store.read_blob_range(*id, byte_off, byte_len),
    }
}

/// The buffer holding a saved array of `T` records and the array's
/// bytes in it, shared without a copy: a blob's buffer by `Arc` pointer
/// copy ([`PageStore::share_buffer`], which counts the blob's pages as
/// read), inline bytes in a buffer of their own. The layout is checked
/// as [`load_array`] checks it; the records are not decoded.
pub(crate) fn share_array<T: FixedRecord>(
    saved: &SavedArray,
    store: &PageStore,
) -> DecodeResult<(Arc<Vec<u8>>, Range<usize>)> {
    saved.check_layout::<T>(store)?;
    match &saved.placement {
        Placement::Inline(b) => Ok((Arc::new(b.clone()), 0..b.len())),
        Placement::External(id) => store.share_buffer(*id),
    }
}

/// Load only the records of a subrange `[start, end)` of a saved array —
/// the lazy counterpart of [`load_array`] used by the storage-backed
/// views: touches `O(sub.len())` records, not `O(count)`.
pub fn read_subarray<T: FixedRecord>(
    saved: &SavedArray,
    store: &PageStore,
    sub: SubArrayRef,
) -> DecodeResult<Vec<T>> {
    sub.check(saved.count, T::WHAT)?;
    read_all(read_array_bytes(
        saved,
        store,
        sub.start as usize * T::SIZE,
        sub.len() * T::SIZE,
    )?)
}

/// A *subarray* (Sec 4.2): a reference to a subrange `[start, end)` of a
/// shared database array — the mechanism by which all units of a
/// `mapping` share the same arrays (Fig 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubArrayRef {
    /// First record index.
    pub start: u32,
    /// One past the last record index.
    pub end: u32,
}

impl SubArrayRef {
    /// Number of records referenced.
    ///
    /// A decoded ref with `end < start` must be rejected via
    /// [`SubArrayRef::check`] before this is called; `len` saturates so
    /// even un-checked corrupt refs cannot underflow.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start) as usize
    }

    /// `true` for an empty subrange.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Check that the reference is well-formed (`start ≤ end`) and stays
    /// inside a shared array of `bound` records.
    pub fn check(&self, bound: usize, what: &'static str) -> DecodeResult<()> {
        if self.end < self.start {
            return Err(DecodeError::BadStructure {
                what,
                detail: format!("subarray end {} before start {}", self.end, self.start),
            });
        }
        if self.end as usize > bound {
            return Err(DecodeError::OutOfBounds {
                what,
                index: self.end as usize,
                bound,
            });
        }
        Ok(())
    }

    /// Slice the referenced records out of the shared array.
    ///
    /// Callers must have verified the ref with [`SubArrayRef::check`]
    /// against `shared.len()` (views do this at construction).
    pub fn slice<'a, T>(&self, shared: &'a [T]) -> &'a [T] {
        &shared[self.start as usize..self.end as usize]
    }
}

impl FixedRecord for SubArrayRef {
    const SIZE: usize = 8;
    const WHAT: &'static str = "subarray ref";
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        crate::record::put_u32(out, self.start);
        crate::record::put_u32(out, self.end);
    }
    #[inline]
    fn read(buf: &[u8]) -> DecodeResult<Self> {
        Ok(SubArrayRef {
            start: crate::record::get_u32(buf, 0)?,
            end: crate::record::get_u32(buf, 4)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mob_spatial::{pt, Point};

    #[test]
    fn small_arrays_go_inline() {
        let mut store = PageStore::new();
        let pts = vec![pt(0.0, 0.0), pt(1.0, 1.0)];
        let saved = save_array(&pts, &mut store);
        assert!(saved.is_inline());
        assert_eq!(saved.inline_bytes(), 32);
        assert_eq!(store.pages_written(), 0);
        assert_eq!(load_array::<Point>(&saved, &store).unwrap(), pts);
        saved.check_layout::<Point>(&store).unwrap();
    }

    #[test]
    fn large_arrays_go_external() {
        let mut store = PageStore::new();
        let pts: Vec<Point> = (0..100).map(|i| pt(f64::from(i), 0.0)).collect();
        let saved = save_array(&pts, &mut store);
        assert!(!saved.is_inline());
        assert!(store.pages_written() > 0);
        assert_eq!(load_array::<Point>(&saved, &store).unwrap(), pts);
        saved.check_layout::<Point>(&store).unwrap();
    }

    #[test]
    fn threshold_boundary() {
        let mut store = PageStore::new();
        // 16 points = 256 bytes: exactly at the threshold stays inline.
        let pts: Vec<Point> = (0..16).map(|i| pt(f64::from(i), 0.0)).collect();
        let saved = save_array(&pts, &mut store);
        assert!(saved.is_inline());
        // One more record crosses it.
        let pts17: Vec<Point> = (0..17).map(|i| pt(f64::from(i), 0.0)).collect();
        let saved17 = save_array(&pts17, &mut store);
        assert!(!saved17.is_inline());
    }

    #[test]
    fn subarray_refs() {
        let shared = vec![10, 20, 30, 40, 50];
        let r = SubArrayRef { start: 1, end: 4 };
        assert_eq!(r.len(), 3);
        assert_eq!(r.slice(&shared), &[20, 30, 40]);
        assert!(!r.is_empty());
        let e = SubArrayRef { start: 2, end: 2 };
        assert!(e.is_empty());
        // Record roundtrip.
        let mut buf = Vec::new();
        r.write(&mut buf);
        assert_eq!(SubArrayRef::read(&buf).unwrap(), r);
    }

    #[test]
    fn corrupt_subarray_refs_are_rejected_not_ub() {
        // end < start: len saturates, check() rejects.
        let bad = SubArrayRef { start: 4, end: 1 };
        assert_eq!(bad.len(), 0);
        assert!(matches!(
            bad.check(10, "test"),
            Err(DecodeError::BadStructure { .. })
        ));
        // end beyond the shared array.
        let oob = SubArrayRef { start: 0, end: 9 };
        assert!(matches!(
            oob.check(5, "test"),
            Err(DecodeError::OutOfBounds { .. })
        ));
        assert!(oob.check(9, "test").is_ok());
    }

    #[test]
    fn corrupt_counts_and_ragged_bytes_are_errors() {
        let mut store = PageStore::new();
        let pts = vec![pt(0.0, 0.0), pt(1.0, 1.0)];
        let mut saved = save_array(&pts, &mut store);
        saved.count = 3; // lie about the count
        assert!(matches!(
            load_array::<Point>(&saved, &store),
            Err(DecodeError::CountMismatch { .. })
        ));
        assert!(saved.check_layout::<Point>(&store).is_err());
        // Ragged inline bytes.
        let ragged = SavedArray {
            count: 1,
            placement: Placement::Inline(vec![0u8; 15]),
        };
        assert!(matches!(
            load_array::<Point>(&ragged, &store),
            Err(DecodeError::Ragged { .. })
        ));
        // Out-of-range byte read.
        let small = save_array(&pts, &mut store);
        assert!(matches!(
            read_array_bytes(&small, &store, 30, 10),
            Err(DecodeError::Truncated {
                need: 40,
                have: 32,
                ..
            })
        ));
    }

    #[test]
    fn empty_array() {
        let mut store = PageStore::new();
        let saved = save_array::<Point>(&[], &mut store);
        assert!(saved.is_inline());
        assert_eq!(load_array::<Point>(&saved, &store).unwrap().len(), 0);
    }

    #[test]
    fn read_subarray_checks_bounds() {
        let mut store = PageStore::new();
        let pts: Vec<Point> = (0..8).map(|i| pt(f64::from(i), 0.0)).collect();
        let saved = save_array(&pts, &mut store);
        let ok = read_subarray::<Point>(&saved, &store, SubArrayRef { start: 2, end: 5 }).unwrap();
        assert_eq!(ok, pts[2..5]);
        assert!(read_subarray::<Point>(&saved, &store, SubArrayRef { start: 2, end: 9 }).is_err());
    }
}
