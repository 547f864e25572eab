//! Tuple layout accounting (Sec 4 / \[DG98\]).
//!
//! An attribute value is a root record (always inside the tuple) plus
//! database arrays that are inline or external depending on size. This
//! module sums up where the bytes of a tuple land, so experiments can
//! show the inline/external trade-off (experiment E5).

use crate::dbarray::SavedArray;
use crate::page::PageStore;
use mob_base::DecodeResult;

/// Byte/page accounting for one tuple.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TupleLayout {
    /// Bytes of root records (fixed part of the tuple).
    pub root_bytes: usize,
    /// Bytes of inline database arrays (also inside the tuple).
    pub inline_bytes: usize,
    /// Number of database arrays stored externally.
    pub external_arrays: usize,
    /// Pages occupied by external arrays.
    pub external_pages: usize,
}

impl TupleLayout {
    /// Start a layout with a given fixed root-record size.
    pub fn with_root(root_bytes: usize) -> TupleLayout {
        TupleLayout {
            root_bytes,
            ..TupleLayout::default()
        }
    }

    /// Account for one saved database array. A dangling blob id is
    /// [`DecodeError::OutOfBounds`](mob_base::DecodeError::OutOfBounds);
    /// a quarantined blob still counts its pages.
    pub fn add_array(&mut self, saved: &SavedArray, store: &PageStore) -> DecodeResult<()> {
        match &saved.placement {
            crate::dbarray::Placement::Inline(b) => self.inline_bytes += b.len(),
            crate::dbarray::Placement::External(id) => {
                self.external_pages += store.blob_pages(*id)?;
                self.external_arrays += 1;
            }
        }
        Ok(())
    }

    /// Total bytes inside the tuple representation.
    pub fn tuple_bytes(&self) -> usize {
        self.root_bytes + self.inline_bytes
    }

    /// `true` if the whole value lives inside the tuple.
    pub fn fully_inline(&self) -> bool {
        self.external_arrays == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbarray::save_array;
    use mob_spatial::{pt, Point};

    #[test]
    fn layout_accounts_inline_and_external() {
        let mut store = PageStore::new();
        let small: Vec<Point> = vec![pt(0.0, 0.0)];
        let large: Vec<Point> = (0..1000).map(|i| pt(i as f64, 0.0)).collect();
        let s1 = save_array(&small, &mut store);
        let s2 = save_array(&large, &mut store);
        let mut layout = TupleLayout::with_root(64);
        layout.add_array(&s1, &store).unwrap();
        layout.add_array(&s2, &store).unwrap();
        assert_eq!(layout.root_bytes, 64);
        assert_eq!(layout.inline_bytes, 16);
        assert_eq!(layout.external_arrays, 1);
        assert!(layout.external_pages >= 4); // 16000 bytes / 4096
        assert_eq!(layout.tuple_bytes(), 80);
        assert!(!layout.fully_inline());
    }

    #[test]
    fn small_value_is_fully_inline() {
        let mut store = PageStore::new();
        let s = save_array(&[pt(1.0, 2.0)], &mut store);
        let mut layout = TupleLayout::with_root(16);
        layout.add_array(&s, &store).unwrap();
        assert!(layout.fully_inline());
        assert_eq!(layout.external_pages, 0);
    }

    #[test]
    fn a_dangling_blob_id_is_an_error_and_adds_nothing() {
        use crate::dbarray::Placement;
        use crate::page::BlobId;
        let mut store = PageStore::new();
        let bad = save_array(&[pt(0.0, 0.0); 300], &mut store);
        store.mark_quarantined(BlobId::from_index(0)).unwrap();
        let dangling = SavedArray {
            count: 1,
            placement: Placement::External(BlobId::from_index(1)),
        };
        let mut layout = TupleLayout::with_root(8);
        assert!(matches!(
            layout.add_array(&dangling, &store),
            Err(mob_base::DecodeError::OutOfBounds {
                what: "blob id",
                index: 1,
                bound: 1
            })
        ));
        assert_eq!(layout, TupleLayout::with_root(8));
        // A quarantined blob is still placed: its pages count.
        layout.add_array(&bad, &store).unwrap();
        assert_eq!((layout.external_arrays, layout.external_pages), (1, 2));
    }
}
