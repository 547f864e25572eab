//! A simulated page store.
//!
//! Section 4 requires that attribute values "consist of a small number of
//! memory blocks that can be moved efficiently between secondary and main
//! memory". [`PageStore`] simulates that environment: a blob is one
//! contiguous byte range of a shared, reference-counted buffer, and the
//! fixed-size page is the unit in which reads and writes of those bytes
//! are counted, so that experiments can measure I/O behaviour
//! (experiment E5). A write counts `⌈len / page_size⌉` pages and a range
//! read counts the pages the range overlaps; no byte is ever split into
//! or copied out of separate pages.

use crate::checksum::checksum64;
use mob_base::{DecodeError, DecodeResult};
use mob_obs::SharedCounter;
use std::ops::Range;
use std::sync::Arc;

/// Default page size (bytes), matching common DBMS pages.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Largest page size any header may declare (64 MiB). Anything beyond
/// this is treated as corruption: a single "page" larger than this is
/// not a page, it is an attacker-controlled allocation size.
pub const MAX_PAGE_SIZE: usize = 1 << 26;

/// Validate an untrusted page size: must be positive and at most
/// [`MAX_PAGE_SIZE`]. This is the single chokepoint through which every
/// decoded superblock/header page size must pass before a store is
/// built around it — a corrupt header can produce a [`DecodeError`],
/// never a panic or an absurd allocation.
pub fn validate_page_size(page_size: usize) -> DecodeResult<usize> {
    if page_size == 0 || page_size > MAX_PAGE_SIZE {
        return Err(DecodeError::BadStructure {
            what: "page size",
            detail: format!("page size {page_size} outside 1..={MAX_PAGE_SIZE}"),
        });
    }
    Ok(page_size)
}

/// Identifier of a stored blob.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct BlobId(usize);

impl BlobId {
    /// The raw index of the blob inside its [`PageStore`].
    ///
    /// Exposed so a serialized root record can reference its blob by
    /// index; [`PageStore::write_blob`] assigns indices sequentially, so
    /// rewriting blobs in index order reproduces the same ids.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstruct a blob id from a raw index (used by store-file
    /// loading; validity is checked at first access).
    pub fn from_index(index: usize) -> BlobId {
        BlobId(index)
    }
}

#[derive(Clone)]
struct Blob {
    /// The buffer holding the blob's bytes, shared via `Arc`: a
    /// [`PageStore::fork`] is O(#blobs) pointer copies, not a byte copy
    /// — the mechanism behind cheap immutable generations — and every
    /// blob of a decoded store file is a range of its one payload.
    buf: Arc<Vec<u8>>,
    /// The blob's bytes within `buf`.
    range: Range<usize>,
    /// Set when the blob's backing storage failed an integrity check
    /// (page checksum mismatch in a durable file): reads surface
    /// [`DecodeError::Quarantined`] instead of untrusted bytes.
    quarantined: bool,
}

/// A page-counting blob store.
///
/// The counters are [`SharedCounter`]s (relaxed atomics mirrored into the
/// `mob-obs` registry as `store.pages_read` / `store.pages_written`), so a
/// `PageStore` is `Sync`: the parallel relation scans of `mob-rel` share
/// one store across worker threads behind an `Arc`, each worker opening
/// its own [`crate::view`] over the immutable, append-only blob data.
/// Counter totals remain exact under concurrency; only the interleaving
/// is unspecified.
pub struct PageStore {
    page_size: usize,
    blobs: Vec<Blob>,
    pages_written: SharedCounter,
    pages_read: SharedCounter,
}

impl PageStore {
    /// Create a store with the default page size.
    pub fn new() -> PageStore {
        PageStore::with_page_size_trusted(DEFAULT_PAGE_SIZE)
    }

    /// Create a store with a custom page size.
    ///
    /// The size is validated through [`validate_page_size`] — zero or
    /// absurd sizes (e.g. decoded from a corrupt superblock) are a
    /// [`DecodeError`], never a panic. Trusted in-process literals can
    /// use [`PageStore::with_page_size_trusted`].
    pub fn with_page_size(page_size: usize) -> DecodeResult<PageStore> {
        Ok(PageStore::with_page_size_trusted(validate_page_size(
            page_size,
        )?))
    }

    /// Create a store with a compile-time-known page size.
    ///
    /// Panics (debug assert) on an invalid size — strictly for trusted
    /// in-process constants; anything decoded from bytes must go
    /// through [`PageStore::with_page_size`].
    pub fn with_page_size_trusted(page_size: usize) -> PageStore {
        debug_assert!(
            validate_page_size(page_size).is_ok(),
            "trusted page size {page_size} is invalid"
        );
        PageStore {
            page_size: page_size.clamp(1, MAX_PAGE_SIZE),
            blobs: Vec::new(),
            pages_written: SharedCounter::new(mob_obs::metric!("store.pages_written")),
            pages_read: SharedCounter::new(mob_obs::metric!("store.pages_read")),
        }
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Pages that the first `len` bytes of a blob occupy.
    #[inline]
    fn pages_of(&self, len: usize) -> usize {
        len / self.page_size + usize::from(!len.is_multiple_of(self.page_size))
    }

    /// Store a blob, counting one page write per page it occupies. The
    /// bytes are taken by value: an owned buffer of any length becomes
    /// the blob without a copy (a borrowed slice is copied once).
    pub fn write_blob(&mut self, bytes: impl Into<Vec<u8>>) -> BlobId {
        let bytes = bytes.into();
        let len = bytes.len();
        self.pages_written.add(self.pages_of(len) as u64);
        self.push(Arc::new(bytes), 0..len)
    }

    /// Register bytes `range` of `buf` as a new blob, writing and
    /// counting nothing: the store-file decoder's way to make every blob
    /// a range of the decoded payload. `range` must lie inside `buf`.
    pub(crate) fn push(&mut self, buf: Arc<Vec<u8>>, range: Range<usize>) -> BlobId {
        self.blobs.push(Blob {
            buf,
            range,
            quarantined: false,
        });
        BlobId(self.blobs.len() - 1)
    }

    /// Fork the store: a new `PageStore` sharing every existing blob's
    /// buffer by `Arc` pointer copy (no byte copies, no page-write
    /// accounting) with fresh I/O counters.
    ///
    /// This is the generational-MVCC snapshot primitive: a writer forks
    /// the current generation's store, appends re-saved mappings as new
    /// blobs, and publishes the fork as the next immutable generation
    /// while readers keep using the old one. Blob ids carry over
    /// unchanged, so root records referencing old blobs stay valid in
    /// the fork; quarantine flags are preserved.
    pub fn fork(&self) -> PageStore {
        PageStore {
            page_size: self.page_size,
            blobs: self.blobs.clone(),
            pages_written: SharedCounter::new(mob_obs::metric!("store.pages_written")),
            pages_read: SharedCounter::new(mob_obs::metric!("store.pages_read")),
        }
    }

    /// Store blob `id` of `src` as a new blob of this store, sharing its
    /// buffer by `Arc` pointer copy (no byte copy, no page write
    /// counted). A quarantined or dangling `id` is refused with the
    /// error a read of it gives.
    pub fn share_blob(&mut self, src: &PageStore, id: BlobId) -> DecodeResult<BlobId> {
        let blob = src.blob(id)?;
        Ok(self.push(Arc::clone(&blob.buf), blob.range.clone()))
    }

    /// Quarantine a blob: its backing storage failed an integrity check
    /// (page checksum mismatch on a durable file), so every later read
    /// surfaces [`DecodeError::Quarantined`] instead of untrusted
    /// bytes. Counted in the `store.blobs_quarantined` metric.
    pub fn mark_quarantined(&mut self, id: BlobId) -> DecodeResult<()> {
        let dangling = self.dangling(id);
        let b = self.blobs.get_mut(id.0).ok_or(dangling)?;
        if !b.quarantined {
            b.quarantined = true;
            mob_obs::metric!("store.blobs_quarantined").add(1);
        }
        Ok(())
    }

    /// Whether a blob is quarantined (false for dangling ids).
    #[inline]
    pub fn is_quarantined(&self, id: BlobId) -> bool {
        self.blobs.get(id.0).is_some_and(|b| b.quarantined)
    }

    /// Number of quarantined blobs.
    pub fn num_quarantined(&self) -> usize {
        self.blobs.iter().filter(|b| b.quarantined).count()
    }

    /// The error for a blob id past the end of the store.
    fn dangling(&self, id: BlobId) -> DecodeError {
        DecodeError::OutOfBounds {
            what: "blob id",
            index: id.0,
            bound: self.blobs.len(),
        }
    }

    /// The blob behind `id`: quarantined blobs and dangling ids are
    /// [`DecodeError`]s, checked in that order.
    #[inline]
    fn blob(&self, id: BlobId) -> DecodeResult<&Blob> {
        if self.is_quarantined(id) {
            return Err(DecodeError::Quarantined {
                what: "blob",
                detail: format!("blob {} failed its page integrity checks", id.0),
            });
        }
        self.blobs.get(id.0).ok_or_else(|| self.dangling(id))
    }

    /// Number of blobs currently stored.
    pub fn num_blobs(&self) -> usize {
        self.blobs.len()
    }

    /// Exact byte length of a blob, or a [`DecodeError`] for a dangling
    /// blob id.
    pub fn blob_len(&self, id: BlobId) -> DecodeResult<usize> {
        Ok(self.blob(id)?.range.len())
    }

    /// Read a blob back whole, as an owned copy, counting one page read
    /// per page. A dangling id (e.g. decoded from a corrupt root record)
    /// or a quarantined blob is a [`DecodeError`].
    pub fn try_read_blob(&self, id: BlobId) -> DecodeResult<Vec<u8>> {
        self.read_blob_range(id, 0, self.blob_len(id)?)
            .map(<[u8]>::to_vec)
    }

    /// Bytes `offset..offset + len` of a blob, borrowed from its buffer,
    /// counting **only the pages that overlap the range** — the page-I/O
    /// primitive behind the lazy `MappingView` access path: a binary
    /// search over unit records reads `O(log n)` pages, not the whole
    /// blob.
    ///
    /// A quarantined blob, a dangling id and a range past the blob's end
    /// are [`DecodeError`]s, raised before any page is counted; an empty
    /// range reads no page.
    ///
    /// Inline, like the helpers it calls: the view's header search calls
    /// it from generic code instantiated in other crates, and out of
    /// line it made track-probe's `snapshot_at` scans about 20 % slower.
    #[inline]
    pub fn read_blob_range(&self, id: BlobId, offset: usize, len: usize) -> DecodeResult<&[u8]> {
        let blob = self.blob(id)?;
        let bytes = blob.buf.get(blob.range.clone()).unwrap_or_default();
        let end = offset.saturating_add(len);
        let range = bytes.get(offset..end).ok_or(DecodeError::OutOfBounds {
            what: "blob range",
            index: end,
            bound: bytes.len(),
        })?;
        if len > 0 {
            let pages = self.pages_of(end) - offset / self.page_size;
            self.pages_read.add(pages as u64);
        }
        Ok(range)
    }

    /// Number of pages a blob occupies. A quarantined blob still counts
    /// its pages — they describe its placement, not its contents — and
    /// a dangling id is [`DecodeError::OutOfBounds`].
    pub fn blob_pages(&self, id: BlobId) -> DecodeResult<usize> {
        let blob = self.blobs.get(id.0).ok_or_else(|| self.dangling(id))?;
        Ok(self.pages_of(blob.range.len()))
    }

    /// Pages written since the last counter reset.
    pub fn pages_written(&self) -> u64 {
        self.pages_written.get()
    }

    /// Pages read since the last counter reset.
    pub fn pages_read(&self) -> u64 {
        self.pages_read.get()
    }

    /// Reset both I/O counters.
    pub fn reset_counters(&self) {
        self.pages_written.reset_local();
        self.pages_read.reset_local();
    }
}

impl Default for PageStore {
    fn default() -> Self {
        PageStore::new()
    }
}

// ---------------------------------------------------------------------
// Sealed page frames
// ---------------------------------------------------------------------

/// Byte overhead of one sealed frame: checksum (8) + length (4).
pub const FRAME_OVERHEAD: usize = 12;

/// Seal a payload into a checksummed page frame and append it to `out`.
///
/// Layout: `crc u64 | len u32 | payload`, where `crc` is the
/// [`checksum64`] of `len || payload`. Every byte of the frame is
/// covered: a flip in the payload or the length disagrees with the
/// stored crc, and a flip in the stored crc disagrees with the
/// recomputed one — so damage is always caught *before* the structural
/// decoder sees the bytes ([`open_frame`]).
///
/// The frame is built in place: the crc's 8 bytes are reserved in `out`,
/// `len || payload` follows, and the crc of that slice is written back
/// over the reservation — the payload is copied once, into `out`.
pub fn seal_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = crate::checked::count_u32(payload.len());
    out.reserve(FRAME_OVERHEAD.saturating_add(payload.len()));
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    let (crc, covered) = out.split_at_mut(start.saturating_add(8));
    let sum = checksum64(covered).to_le_bytes();
    for (d, s) in crc.iter_mut().skip(start).zip(sum) {
        *d = s;
    }
}

/// The little-endian `u32` at byte `at` of `b`.
pub(crate) fn get_u32_at(b: &[u8], at: usize) -> u32 {
    // Total zip-copy: missing bytes read as zero (callers have already
    // length-checked the header, but nothing here can panic).
    let mut v = [0u8; 4];
    for (d, s) in v.iter_mut().zip(b.iter().skip(at)) {
        *d = *s;
    }
    u32::from_le_bytes(v)
}

/// The little-endian `u64` at byte `at` of `b`, read like [`get_u32_at`].
pub(crate) fn get_u64_at(b: &[u8], at: usize) -> u64 {
    let mut v = [0u8; 8];
    for (d, s) in v.iter_mut().zip(b.iter().skip(at)) {
        *d = *s;
    }
    u64::from_le_bytes(v)
}

/// Open one sealed frame at the front of `bytes`: verify the checksum,
/// return the payload and the remainder of the buffer.
///
/// Damage classification: a frame whose advertised length does not fit
/// the buffer is [`DecodeError::Truncated`]; a checksum disagreement is
/// [`DecodeError::ChecksumMismatch`]. Neither lets a damaged payload
/// escape.
pub fn open_frame(bytes: &[u8]) -> DecodeResult<(&[u8], &[u8])> {
    if bytes.len() < FRAME_OVERHEAD {
        return Err(DecodeError::Truncated {
            what: "page frame header",
            need: FRAME_OVERHEAD,
            have: bytes.len(),
        });
    }
    let stored = get_u64_at(bytes, 0);
    let len = crate::checked::idx_usize(get_u32_at(bytes, 8));
    let end = FRAME_OVERHEAD
        .checked_add(len)
        .ok_or(DecodeError::Truncated {
            what: "page frame payload",
            need: usize::MAX,
            have: bytes.len(),
        })?;
    if end > bytes.len() {
        return Err(DecodeError::Truncated {
            what: "page frame payload",
            need: end,
            have: bytes.len(),
        });
    }
    let found = checksum64(bytes.get(8..end).unwrap_or_default());
    if found != stored {
        return Err(DecodeError::ChecksumMismatch {
            what: "page frame",
            expected: stored,
            found,
        });
    }
    let payload = bytes.get(FRAME_OVERHEAD..end).unwrap_or_default();
    let rest = bytes.get(end..).unwrap_or_default();
    Ok((payload, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping_store::UPointRecord;
    use crate::record::FixedRecord;
    use mob_base::{t, Interval, TimeInterval};
    use mob_core::PointMotion;
    use mob_spatial::pt;

    fn small_store(page_size: usize) -> PageStore {
        match PageStore::with_page_size(page_size) {
            Ok(s) => s,
            Err(e) => unreachable!("test page size {page_size} rejected: {e}"),
        }
    }

    #[test]
    fn roundtrip_and_page_count() {
        let mut store = small_store(8);
        let data: Vec<u8> = (0..20).collect();
        let id = store.write_blob(data.as_slice());
        assert_eq!(store.blob_pages(id).ok(), Some(3)); // 8 + 8 + 4
        assert_eq!(store.pages_written(), 3);
        assert_eq!(store.try_read_blob(id).unwrap(), data);
        assert_eq!(store.pages_read(), 3);
        store.reset_counters();
        assert_eq!(store.pages_written(), 0);
        assert_eq!(store.pages_read(), 0);
    }

    /// The range read with its bytes copied out.
    fn copy_range(
        store: &PageStore,
        id: BlobId,
        offset: usize,
        len: usize,
    ) -> DecodeResult<Vec<u8>> {
        store.read_blob_range(id, offset, len).map(<[u8]>::to_vec)
    }

    #[test]
    fn range_reads_touch_only_overlapping_pages() {
        let mut store = small_store(8);
        let data: Vec<u8> = (0..32).collect();
        let id = store.write_blob(data.as_slice());
        store.reset_counters();
        // Range inside one page.
        assert_eq!(copy_range(&store, id, 9, 4).ok(), Some(vec![9, 10, 11, 12]));
        assert_eq!(store.pages_read(), 1);
        // Range spanning a page boundary.
        store.reset_counters();
        assert_eq!(copy_range(&store, id, 6, 4).ok(), Some(vec![6, 7, 8, 9]));
        assert_eq!(store.pages_read(), 2);
        // Whole blob.
        store.reset_counters();
        assert_eq!(copy_range(&store, id, 0, 32).ok(), Some(data));
        assert_eq!(store.pages_read(), 4);
        // Empty range is free.
        store.reset_counters();
        assert_eq!(copy_range(&store, id, 16, 0).ok(), Some(vec![]));
        assert_eq!(store.pages_read(), 0);
    }

    /// 40 `upoint` records (50 bytes each) on 16-byte pages: every
    /// record straddles at least three pages, most headers two.
    fn straddling_records() -> (PageStore, BlobId, Vec<UPointRecord>) {
        let mut store = small_store(16);
        let recs: Vec<UPointRecord> = (0..40)
            .map(|k| {
                let x = f64::from(k);
                UPointRecord {
                    interval: Interval::closed_open(t(x), t(x + 1.0)),
                    motion: PointMotion::through(t(x), pt(x, -x), t(x + 1.0), pt(x + 0.5, 2.0 * x)),
                }
            })
            .collect();
        let id = store.write_blob(crate::record::write_all(&recs));
        (store, id, recs)
    }

    #[test]
    fn blob_range_records_match_the_copy_path() {
        let (store, id, recs) = straddling_records();
        let size = UPointRecord::SIZE;
        // Reference: the whole blob read at once, then sliced.
        let whole = store.try_read_blob(id).unwrap_or_default();
        for (i, rec) in recs.iter().enumerate() {
            for len in [TimeInterval::SIZE, size] {
                let off = i * size;
                let pages = ((off + len - 1) / 16 - off / 16 + 1) as u64;
                store.reset_counters();
                let header = store
                    .read_blob_range(id, off, len)
                    .and_then(TimeInterval::read);
                assert_eq!(header.ok(), Some(rec.interval), "record {i} header");
                assert_eq!(store.pages_read(), pages, "record {i} len {len}");
                let copied = whole.get(off..off + len).unwrap_or_default();
                store.reset_counters();
                assert_eq!(
                    copy_range(&store, id, off, len).ok().as_deref(),
                    Some(copied)
                );
                assert_eq!(store.pages_read(), pages, "record {i} len {len}");
            }
            let read = store
                .read_blob_range(id, i * size, size)
                .and_then(UPointRecord::read);
            assert_eq!(read.ok(), Some(*rec), "record {i}");
        }
    }

    #[test]
    fn every_blob_range_borrows_from_the_blob_buffer() {
        let mut store = small_store(8);
        // A blob written whole, and one registered as bytes 5..37 of a
        // larger buffer, as a decoded store file registers its blobs.
        let owned = store.write_blob((0..32).collect::<Vec<u8>>());
        let buf = Arc::new((0..48).map(|b: u8| b.wrapping_sub(5)).collect::<Vec<u8>>());
        let ranged = store.push(Arc::clone(&buf), 5..37);
        for (id, at) in [
            (owned, store.blobs[owned.0].buf.as_ptr()),
            (ranged, buf.as_ptr().wrapping_add(5)),
        ] {
            // Inside page 1, across pages 0 and 1, across three pages,
            // and the whole blob.
            for (off, len, pages) in [(9, 4, 1), (6, 4, 2), (3, 20, 3), (0, 32, 4)] {
                store.reset_counters();
                let got = store.read_blob_range(id, off, len).unwrap_or_default();
                let want = at.wrapping_add(off)..at.wrapping_add(off + len);
                assert_eq!(
                    got.as_ptr_range(),
                    want,
                    "{id:?} at {off}+{len} is borrowed"
                );
                assert!(got.iter().copied().eq(off as u8..(off + len) as u8));
                assert_eq!(store.pages_read(), pages, "{id:?} at {off}+{len}");
            }
        }
    }

    #[test]
    fn blob_range_errors_match_the_copy_path() {
        let (mut store, id, _) = straddling_records();
        let blob_len = 40 * UPointRecord::SIZE;
        let bad = store.write_blob([1, 2, 3]);
        store.mark_quarantined(bad).unwrap_or(());
        store.reset_counters();
        assert!(matches!(
            store.read_blob_range(bad, 0, 2),
            Err(DecodeError::Quarantined { what: "blob", .. })
        ));
        assert!(matches!(
            store.read_blob_range(BlobId::from_index(9), 0, 1),
            Err(DecodeError::OutOfBounds {
                what: "blob id",
                index: 9,
                bound: 2
            })
        ));
        assert!(matches!(
            store.read_blob_range(id, usize::MAX, 2),
            Err(DecodeError::OutOfBounds { what: "blob range", index: usize::MAX, bound })
                if bound == blob_len
        ));
        assert!(matches!(
            store.read_blob_range(id, blob_len - 10, 11),
            Err(DecodeError::OutOfBounds { what: "blob range", index, bound })
                if index == blob_len + 1 && bound == blob_len
        ));
        assert!(store.read_blob_range(id, blob_len + 1, 0).is_err());
        assert_eq!(store.pages_read(), 0, "refused reads touch no page");
    }

    #[test]
    fn blob_range_of_zero_length_reads_nothing() {
        let (store, id, _) = straddling_records();
        let blob_len = 40 * UPointRecord::SIZE;
        store.reset_counters();
        for offset in [0, 17, blob_len] {
            let got = store.read_blob_range(id, offset, 0).map(<[u8]>::len);
            assert_eq!(got.ok(), Some(0), "offset {offset}");
        }
        assert_eq!(store.pages_read(), 0);
        let mut empty = small_store(16);
        let e = empty.write_blob(Vec::new());
        assert_eq!(copy_range(&empty, e, 0, 0).ok(), Some(vec![]));
        assert_eq!(empty.pages_read(), 0);
    }

    #[test]
    fn an_owned_blob_of_any_length_is_moved_not_copied() {
        let mut store = small_store(8);
        // One page, a partial last page, several full pages.
        for (len, pages) in [(8u8, 1u64), (20, 3), (64, 8)] {
            let bytes: Vec<u8> = (0..len).collect();
            let at = bytes.as_ptr();
            store.reset_counters();
            let id = store.write_blob(bytes);
            let stored = store.read_blob_range(id, 0, usize::from(len));
            assert_eq!(
                stored.map(<[u8]>::as_ptr).ok(),
                Some(at),
                "{len} bytes moved"
            );
            assert_eq!(store.pages_written(), pages, "{len} bytes");
            assert_eq!(store.blob_pages(id).ok(), Some(pages as usize));
            assert_eq!(store.try_read_blob(id).ok(), Some((0..len).collect()));
        }
    }

    #[test]
    fn empty_blob() {
        let mut store = PageStore::new();
        let id = store.write_blob(Vec::new());
        assert_eq!(store.blob_pages(id).ok(), Some(0));
        assert!(store.try_read_blob(id).unwrap().is_empty());
    }

    #[test]
    fn try_reads_reject_bad_ids_and_ranges() {
        let mut store = small_store(8);
        let id = store.write_blob([1, 2, 3, 4]);
        assert_eq!(store.num_blobs(), 1);
        assert_eq!(store.blob_len(id).unwrap(), 4);
        assert_eq!(store.try_read_blob(id).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(copy_range(&store, id, 1, 2).unwrap(), vec![2, 3]);
        // Dangling id.
        let dangling = BlobId::from_index(7);
        assert!(store.blob_len(dangling).is_err());
        assert!(store.try_read_blob(dangling).is_err());
        assert!(copy_range(&store, dangling, 0, 1).is_err());
        // Out-of-range byte window.
        assert!(copy_range(&store, id, 2, 3).is_err());
        assert!(copy_range(&store, id, usize::MAX, 2).is_err());
    }

    #[test]
    fn multiple_blobs_independent() {
        let mut store = small_store(4);
        let a = store.write_blob([1, 2, 3, 4, 5]);
        let b = store.write_blob([9, 9]);
        assert_eq!(store.try_read_blob(a).unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(store.try_read_blob(b).unwrap(), vec![9, 9]);
    }

    #[test]
    fn page_size_validation() {
        assert!(PageStore::with_page_size(0).is_err());
        assert!(PageStore::with_page_size(MAX_PAGE_SIZE + 1).is_err());
        assert!(PageStore::with_page_size(1).is_ok());
        assert!(PageStore::with_page_size(MAX_PAGE_SIZE).is_ok());
        assert!(validate_page_size(0).is_err());
        assert_eq!(validate_page_size(4096).ok(), Some(4096));
    }

    #[test]
    fn quarantine_blocks_reads_but_not_neighbours() {
        let mut store = small_store(4);
        let bad = store.write_blob([1, 2, 3, 4, 5, 6]);
        let good = store.write_blob([7, 8]);
        assert!(!store.is_quarantined(bad));
        store.mark_quarantined(bad).unwrap_or(());
        // Idempotent; metric counted once (asserted indirectly: no panic).
        store.mark_quarantined(bad).unwrap_or(());
        assert!(store.is_quarantined(bad));
        assert_eq!(store.num_quarantined(), 1);
        let quarantined = |r: DecodeResult<Vec<u8>>| {
            matches!(r, Err(DecodeError::Quarantined { what: "blob", .. }))
        };
        assert!(quarantined(store.try_read_blob(bad)));
        assert!(quarantined(copy_range(&store, bad, 0, 2)));
        assert!(matches!(
            store.blob_len(bad),
            Err(DecodeError::Quarantined { .. })
        ));
        // Healthy neighbour unaffected.
        assert_eq!(store.try_read_blob(good).unwrap_or_default(), vec![7, 8]);
        // Dangling ids are OutOfBounds, not quarantined.
        assert!(matches!(
            store.mark_quarantined(BlobId::from_index(9)),
            Err(DecodeError::OutOfBounds { .. })
        ));
        assert!(!store.is_quarantined(BlobId::from_index(9)));
    }

    #[test]
    fn fork_shares_blobs_and_isolates_appends() {
        let mut base = small_store(4);
        let a = base.write_blob([1, 2, 3, 4, 5]);
        let bad = base.write_blob([9]);
        base.mark_quarantined(bad).unwrap_or(());
        let mut fork = base.fork();
        // Existing blobs carry over: same ids, same bytes, same flags,
        // and no page writes were counted for the fork.
        assert_eq!(fork.num_blobs(), 2);
        assert_eq!(fork.pages_written(), 0);
        assert_eq!(fork.try_read_blob(a).unwrap(), vec![1, 2, 3, 4, 5]);
        assert!(fork.is_quarantined(bad));
        // New blobs in the fork do not appear in the base.
        let c = fork.write_blob([7, 7, 7]);
        assert_eq!(c.index(), 2);
        assert_eq!(fork.num_blobs(), 3);
        assert_eq!(base.num_blobs(), 2);
        // And the base can keep evolving independently.
        let d = base.write_blob([8]);
        assert_eq!(d.index(), 2);
        assert_eq!(base.try_read_blob(d).unwrap(), vec![8]);
        assert_eq!(fork.try_read_blob(c).unwrap(), vec![7, 7, 7]);
    }

    #[test]
    fn share_blob_shares_pages_and_refuses_quarantine() {
        let mut src = small_store(4);
        let a = src.write_blob([1, 2, 3, 4, 5, 6]);
        let bad = src.write_blob([9]);
        src.mark_quarantined(bad).unwrap_or(());
        let mut dst = small_store(4);
        let kept = dst.write_blob([7]);
        let shared = dst.share_blob(&src, a).expect("healthy blob shares");
        assert_eq!((kept.index(), shared.index()), (0, 1), "appended in order");
        assert!(Arc::ptr_eq(&dst.blobs[1].buf, &src.blobs[a.0].buf));
        assert_eq!(dst.pages_written(), 1, "sharing writes no page");
        assert_eq!(dst.try_read_blob(shared).ok(), Some(vec![1, 2, 3, 4, 5, 6]));
        assert!(matches!(
            dst.share_blob(&src, bad),
            Err(DecodeError::Quarantined { what: "blob", .. })
        ));
        assert!(matches!(
            dst.share_blob(&src, BlobId::from_index(5)),
            Err(DecodeError::OutOfBounds {
                what: "blob id",
                ..
            })
        ));
        assert_eq!(dst.num_blobs(), 2, "a refused share adds no blob");
        // A store of another page size shares the same bytes and counts
        // them in its own pages.
        let mut wide = small_store(8);
        let there = wide.share_blob(&src, a).expect("page sizes need not agree");
        assert!(Arc::ptr_eq(&wide.blobs[there.0].buf, &src.blobs[a.0].buf));
        assert_eq!(
            (src.blob_pages(a).ok(), wide.blob_pages(there).ok()),
            (Some(2), Some(1))
        );
    }

    #[test]
    fn blob_pages_counts_quarantined_blobs_and_refuses_dangling_ids() {
        let mut store = small_store(4);
        let bad = store.write_blob([1, 2, 3, 4, 5, 6]);
        store.mark_quarantined(bad).unwrap_or(());
        assert_eq!(store.blob_pages(bad).ok(), Some(2));
        assert!(matches!(
            store.blob_pages(BlobId::from_index(3)),
            Err(DecodeError::OutOfBounds {
                what: "blob id",
                index: 3,
                bound: 1
            })
        ));
    }

    #[test]
    fn frame_roundtrip_including_empty() {
        for payload in [&b""[..], b"x", b"hello sealed frames", &[0u8; 300]] {
            let mut buf = Vec::new();
            seal_frame(&mut buf, payload);
            assert_eq!(buf.len(), FRAME_OVERHEAD + payload.len());
            let (got, rest) = match open_frame(&buf) {
                Ok(v) => v,
                Err(e) => unreachable!("clean frame rejected: {e}"),
            };
            assert_eq!(got, payload);
            assert!(rest.is_empty());
        }
    }

    /// The frame sealer as it was before it sealed in place: a copy of
    /// `len || payload`, checksummed, then appended after the crc.
    fn seal_frame_by_copy(out: &mut Vec<u8>, payload: &[u8]) {
        let len = crate::checked::count_u32(payload.len());
        let mut covered = Vec::with_capacity(4 + payload.len());
        covered.extend_from_slice(&len.to_le_bytes());
        covered.extend_from_slice(payload);
        out.extend_from_slice(&checksum64(&covered).to_le_bytes());
        out.extend_from_slice(&covered);
    }

    #[test]
    fn in_place_frames_are_byte_identical_to_copied_ones() {
        let chunk: Vec<u8> = (0..crate::DEFAULT_CHUNK_SIZE)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        let payloads: [&[u8]; 4] = [b"", b"x", &chunk, &chunk[..chunk.len() - 1]];
        for payload in payloads {
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            seal_frame(&mut fast, payload);
            seal_frame_by_copy(&mut slow, payload);
            assert_eq!(fast, slow, "frame of {} bytes", payload.len());
        }
        // Back to back, after a prefix that is not a frame: each frame
        // seals only its own bytes.
        let (mut fast, mut slow) = (b"head".to_vec(), b"head".to_vec());
        for payload in payloads.iter().chain(payloads.iter().rev()) {
            seal_frame(&mut fast, payload);
            seal_frame_by_copy(&mut slow, payload);
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn frames_concatenate() {
        let mut buf = Vec::new();
        seal_frame(&mut buf, b"first");
        seal_frame(&mut buf, b"second");
        let (a, rest) = open_frame(&buf).unwrap_or((&[], &[]));
        assert_eq!(a, b"first");
        let (b, rest2) = open_frame(rest).unwrap_or((&[], &[]));
        assert_eq!(b, b"second");
        assert!(rest2.is_empty());
    }

    #[test]
    fn every_bit_flip_in_a_frame_is_caught() {
        let mut buf = Vec::new();
        seal_frame(&mut buf, b"payload under test");
        for pos in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[pos] ^= 1 << bit;
                let r = open_frame(&bad);
                assert!(
                    matches!(
                        r,
                        Err(DecodeError::ChecksumMismatch { .. })
                            | Err(DecodeError::Truncated { .. })
                    ),
                    "flip at byte {pos} bit {bit} escaped: {r:?}"
                );
            }
        }
    }

    #[test]
    fn truncated_frames_are_truncation_not_mismatch() {
        let mut buf = Vec::new();
        seal_frame(&mut buf, b"0123456789");
        for cut in 0..buf.len() {
            let r = open_frame(&buf[..cut]);
            assert!(
                matches!(r, Err(DecodeError::Truncated { .. })),
                "cut at {cut}: {r:?}"
            );
        }
    }
}
