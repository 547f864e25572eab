//! **Query-over-storage**: lazy [`UnitSeq`] views over serialized
//! mappings.
//!
//! [`MappingView`] implements `mob-core`'s [`UnitSeq`] directly on top of
//! the Section-4 storage layout (root record + database arrays), so the
//! Section-5 algorithms — `atinstant`, `present`, `deftime`, `atperiods`,
//! and the lifted operations — run **in place** on stored values:
//!
//! * [`UnitSeq::interval`] reads only the 18-byte interval header at the
//!   front of the `i`-th unit record ([`read_array_bytes`]), decoded in
//!   place from its page (copied only if it straddles a page boundary);
//! * [`UnitSeq::unit`] decodes the one record (plus, for variable-size
//!   units, exactly the subarray ranges it references);
//! * consequently `atinstant` performs `O(log n)` header reads plus **one**
//!   unit decode, instead of the `O(n)` full deserialization of
//!   [`MappingView::materialize_validated`].
//!
//! Decode counters ([`MappingView::headers_read`],
//! [`MappingView::units_decoded`]) make that claim testable, and the
//! [`PageStore`] page counters make it measurable in page I/O.
//!
//! # Verify, then trust
//!
//! `UnitSeq` is an infallible interface (it is the hot path of every
//! Section-5 algorithm), but stored bytes are untrusted. The view
//! resolves that tension in two stages:
//!
//! 1. **Construction** (`open_*` with [`Verify::Full`]) returns a
//!    [`DecodeResult`]: it checks
//!    the array layouts (byte length = count × record size), reads every
//!    unit record once — rejecting NaN fields, invalid intervals,
//!    out-of-range subarray references ([`UnitRecord::check_structure`])
//!    and out-of-order/overlapping unit intervals — before handing out a
//!    view. In debug builds it additionally runs the deep
//!    [`MappingView::validate`] pass.
//! 2. **Access** trusts that verification: the two `expect`s in the
//!    `UnitSeq` impl are unreachable for any view whose construction
//!    (and, for value-level damage, [`MappingView::validate`]) passed.
//!    Audit paths never rely on them — [`MappingView::try_unit`] and
//!    friends surface [`DecodeError`]s instead.
//!
//! The full scan of stage 1 can be skipped ([`Verify::Preverified`])
//! only where the same check already ran, which a reader learns from
//! one of three sources: an earlier [`Verify::Full`] open of the same
//! `(stored, store)` pair (blobs are immutable); a caller that holds
//! such a view's result, like `mob-rel`'s per-query views of a
//! reference it verified once; or a generation that wrote the array
//! itself and vouches for it through
//! [`crate::Generation::checked_mpoint`]. Such an array is records a
//! replay kept verbatim from a stored array that passed a
//! [`Verify::Full`] open (or was itself vouched for), followed by
//! records it appended after a seam check each: what stage 1 checks
//! holds for it, and no more.

use crate::dbarray::{read_array_bytes, read_subarray, SavedArray};
use crate::mapping_store::{
    check_root_count, MCycleRecord, MFaceRecord, MSegRecord, StoredMLine, StoredMPoints,
    StoredMRegion, StoredMapping, UBoolRecord, ULineRecord, UPointRecord, UPointsRecord,
    URealRecord, URegionRecord,
};
use crate::page::PageStore;
use crate::record::FixedRecord;
use mob_base::{DecodeError, DecodeResult, InvariantViolation, Real, TimeInterval};
use mob_core::{
    ConstUnit, MCycle, MFace, MSeg, Mapping, PointMotion, ULine, UPoint, UPoints, UReal, URegion,
    Unit, UnitSeq,
};
use mob_obs::LocalCounter;
use std::borrow::Cow;
use std::cell::RefCell;

/// Default capacity of the per-view decoded-unit cache (entries).
///
/// Small on purpose: the batch kernels of `mob-core` probe with
/// monotone cursors, so the working set at any moment is a handful of
/// units around the current boundary — a few slots absorb the repeated
/// decodes of `refinement`-style walks without holding a materialized
/// copy of the mapping alive.
pub const DEFAULT_UNIT_CACHE: usize = 8;

/// How much verification a record-opening entry point performs.
///
/// The unified `open_*` constructors ([`open_mpoint`],
/// [`crate::Generation::open_mpoint`], …) take this instead of splitting
/// into `view_*` / `view_*_preverified` / `load_*` families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verify {
    /// Full structural verification: the `O(1)` layout checks plus a
    /// one-pass `O(n)` structural scan of every unit record (and, in
    /// debug builds, the deep [`MappingView::validate`] pass). Use this
    /// the first time a `(stored, store)` pair is opened.
    Full,
    /// The `O(1)` layout checks only. Sound **only** when the same
    /// `(stored, store)` pair has already passed a [`Verify::Full`] open
    /// once — [`PageStore`] blobs are append-only and immutable, so a
    /// verification performed at load time remains valid for every later
    /// view — or when the generation holding the pair wrote the array
    /// from records this process had checked, which only that
    /// generation can vouch for ([`crate::Generation::checked_mpoint`]). `mob-rel`
    /// relies on this to open a fresh view per query (per worker
    /// thread) without paying a relation-sized scan each time, and to
    /// open the roots a live generation just wrote without checking
    /// them again.
    Preverified,
}

/// A unit record type that can be decoded into a live unit, given access
/// to the mapping's shared database arrays (Fig 7).
///
/// The `TimeInterval` must sit at byte offset 0 of the record — every
/// record type in [`crate::mapping_store`] satisfies this, which is what
/// lets [`MappingView`] read interval headers without decoding units.
pub trait UnitRecord: FixedRecord {
    /// The live unit type this record deserializes into.
    type Unit: Unit;

    /// Access to the shared arrays the record's subarray references point
    /// into (`()` for fixed-size units without subarrays).
    type Shared<'s>;

    /// The record's unit interval (byte offset 0).
    fn interval(&self) -> TimeInterval;

    /// Check the record's references into the shared arrays (subarray
    /// bounds, nested link structure) without decoding the unit. Called
    /// once per record at view construction.
    fn check_structure(&self, shared: &Self::Shared<'_>) -> DecodeResult<()>;

    /// Decode the record into a live unit, reading only the subarray
    /// ranges it references. All value-level invariants are re-checked;
    /// damage surfaces as a [`DecodeError`].
    fn try_decode(&self, shared: &Self::Shared<'_>) -> DecodeResult<Self::Unit>;
}

impl UnitRecord for UBoolRecord {
    type Unit = ConstUnit<bool>;
    type Shared<'s> = ();

    fn interval(&self) -> TimeInterval {
        self.interval
    }

    fn check_structure(&self, _shared: &()) -> DecodeResult<()> {
        Ok(())
    }

    fn try_decode(&self, _shared: &()) -> DecodeResult<ConstUnit<bool>> {
        Ok(ConstUnit::new(self.interval, self.value))
    }
}

impl UnitRecord for URealRecord {
    type Unit = UReal;
    type Shared<'s> = ();

    fn interval(&self) -> TimeInterval {
        self.interval
    }

    fn check_structure(&self, _shared: &()) -> DecodeResult<()> {
        Ok(())
    }

    fn try_decode(&self, _shared: &()) -> DecodeResult<UReal> {
        Ok(UReal::try_new(
            self.interval,
            Real::try_new(self.a)?,
            Real::try_new(self.b)?,
            Real::try_new(self.c)?,
            self.r,
        )?)
    }
}

impl UnitRecord for UPointRecord {
    type Unit = UPoint;
    type Shared<'s> = ();

    fn interval(&self) -> TimeInterval {
        self.interval
    }

    fn check_structure(&self, _shared: &()) -> DecodeResult<()> {
        Ok(())
    }

    fn try_decode(&self, _shared: &()) -> DecodeResult<UPoint> {
        Ok(UPoint::new(self.interval, self.motion))
    }
}

/// Shared arrays of a stored `moving(points)`: the motions array.
pub struct PointsShared<'s> {
    store: &'s PageStore,
    motions: &'s SavedArray,
}

impl UnitRecord for UPointsRecord {
    type Unit = UPoints;
    type Shared<'s> = PointsShared<'s>;

    fn interval(&self) -> TimeInterval {
        self.interval
    }

    fn check_structure(&self, shared: &PointsShared<'_>) -> DecodeResult<()> {
        self.sub.check(shared.motions.count, Self::WHAT)
    }

    fn try_decode(&self, shared: &PointsShared<'_>) -> DecodeResult<UPoints> {
        let motions: Vec<PointMotion> = read_subarray(shared.motions, shared.store, self.sub)?;
        Ok(UPoints::try_new(self.interval, motions)?)
    }
}

/// Shared arrays of a stored `moving(line)`: the msegments array.
pub struct LineShared<'s> {
    store: &'s PageStore,
    msegments: &'s SavedArray,
}

impl UnitRecord for ULineRecord {
    type Unit = ULine;
    type Shared<'s> = LineShared<'s>;

    fn interval(&self) -> TimeInterval {
        self.interval
    }

    fn check_structure(&self, shared: &LineShared<'_>) -> DecodeResult<()> {
        self.sub.check(shared.msegments.count, Self::WHAT)
    }

    fn try_decode(&self, shared: &LineShared<'_>) -> DecodeResult<ULine> {
        let recs = read_subarray::<MSegRecord>(shared.msegments, shared.store, self.sub)?;
        let mut msegs: Vec<MSeg> = Vec::with_capacity(recs.len());
        for rec in &recs {
            msegs.push(MSeg::try_new(rec.s, rec.e)?);
        }
        Ok(ULine::try_new(self.interval, msegs)?)
    }
}

/// Shared arrays of a stored `moving(region)`: the three-level
/// `mfaces` → `mcycles` → `msegments` structure (Sec 4.2).
pub struct RegionShared<'s> {
    store: &'s PageStore,
    msegments: &'s SavedArray,
    mcycles: &'s SavedArray,
    mfaces: &'s SavedArray,
}

impl UnitRecord for URegionRecord {
    type Unit = URegion;
    type Shared<'s> = RegionShared<'s>;

    fn interval(&self) -> TimeInterval {
        self.interval
    }

    fn check_structure(&self, shared: &RegionShared<'_>) -> DecodeResult<()> {
        self.faces.check(shared.mfaces.count, Self::WHAT)?;
        let faces = read_subarray::<MFaceRecord>(shared.mfaces, shared.store, self.faces)?;
        for fr in &faces {
            fr.cycles.check(shared.mcycles.count, MFaceRecord::WHAT)?;
            if fr.cycles.is_empty() {
                return Err(DecodeError::BadStructure {
                    what: MFaceRecord::WHAT,
                    detail: "face references an empty cycle range".to_string(),
                });
            }
            let cycles = read_subarray::<MCycleRecord>(shared.mcycles, shared.store, fr.cycles)?;
            for cr in &cycles {
                cr.msegs.check(shared.msegments.count, MCycleRecord::WHAT)?;
            }
        }
        Ok(())
    }

    fn try_decode(&self, shared: &RegionShared<'_>) -> DecodeResult<URegion> {
        let face_recs = read_subarray::<MFaceRecord>(shared.mfaces, shared.store, self.faces)?;
        let mut faces: Vec<MFace> = Vec::with_capacity(face_recs.len());
        for fr in &face_recs {
            fr.cycles.check(shared.mcycles.count, MFaceRecord::WHAT)?;
            let cycles = read_subarray::<MCycleRecord>(shared.mcycles, shared.store, fr.cycles)?;
            let cycle_from = |rec: &MCycleRecord| -> DecodeResult<MCycle> {
                let verts: Vec<PointMotion> =
                    read_subarray::<MSegRecord>(shared.msegments, shared.store, rec.msegs)?
                        .iter()
                        .map(|ms| ms.s)
                        .collect();
                Ok(MCycle::try_new(verts)?)
            };
            let Some((outer_rec, hole_recs)) = cycles.split_first() else {
                return Err(DecodeError::BadStructure {
                    what: MFaceRecord::WHAT,
                    detail: "face references an empty cycle range".to_string(),
                });
            };
            let outer = cycle_from(outer_rec)?;
            let mut holes = Vec::with_capacity(hole_recs.len());
            for h in hole_recs {
                holes.push(cycle_from(h)?);
            }
            faces.push(MFace::new(outer, holes));
        }
        Ok(URegion::try_new(self.interval, faces)?)
    }
}

/// A lazy [`UnitSeq`] over a serialized mapping: unit records are read
/// and decoded **on demand**, straight out of the page store.
///
/// Construct with [`open_mbool`], [`open_mreal`], [`open_mpoint`],
/// [`open_mpoints`], [`open_mline`] or [`open_mregion`] — all of which
/// verify the stored layout and record structure before returning a
/// view (see the module docs).
pub struct MappingView<'s, R: UnitRecord> {
    store: &'s PageStore,
    units: &'s SavedArray,
    shared: R::Shared<'s>,
    /// `view.headers_read` in the `mob-obs` registry.
    headers_read: LocalCounter,
    /// `view.units_decoded` in the `mob-obs` registry.
    units_decoded: LocalCounter,
    /// Decoded-unit LRU: `(unit index, decoded unit)`, most recent
    /// first, at most [`DEFAULT_UNIT_CACHE`] entries. Touched only by
    /// [`UnitSeq::unit`]; the fallible `try_*` accessors always go to
    /// the store so audits observe the raw bytes.
    cache: RefCell<Vec<(usize, R::Unit)>>,
    /// `view.cache_hits` in the `mob-obs` registry.
    cache_hits: LocalCounter,
}

impl<'s, R: UnitRecord> MappingView<'s, R> {
    /// Construct and verify: layout checks plus a one-pass structural
    /// verification of every unit record (and, in debug builds, the deep
    /// [`MappingView::validate`] pass).
    fn open(
        store: &'s PageStore,
        units: &'s SavedArray,
        shared: R::Shared<'s>,
    ) -> DecodeResult<Self> {
        let view = Self::open_unchecked(store, units, shared)?;
        view.verify_structure()?;
        #[cfg(debug_assertions)]
        view.validate()?;
        view.reset_counters();
        Ok(view)
    }

    /// Construct with the `O(1)` layout checks only, skipping the
    /// `O(n)` per-record structural pass. Callers must have verified
    /// the same `(units, store)` pair before — see the `*_preverified`
    /// view constructors.
    fn open_unchecked(
        store: &'s PageStore,
        units: &'s SavedArray,
        shared: R::Shared<'s>,
    ) -> DecodeResult<Self> {
        units.check_layout::<R>(store)?;
        Ok(MappingView {
            store,
            units,
            shared,
            headers_read: LocalCounter::new(mob_obs::metric!("view.headers_read")),
            units_decoded: LocalCounter::new(mob_obs::metric!("view.units_decoded")),
            cache: RefCell::new(Vec::new()),
            cache_hits: LocalCounter::new(mob_obs::metric!("view.cache_hits")),
        })
    }

    /// One pass over the unit records: every record must read cleanly
    /// (valid interval, no NaN fields), reference only existing shared
    /// records, and the unit intervals must be sorted and pairwise
    /// disjoint (Sec 3.2.4). The array is read once, as one range, and
    /// its records are walked in place.
    fn verify_structure(&self) -> DecodeResult<()> {
        let count = self.units.count;
        if count == 0 {
            return Ok(());
        }
        read_array_bytes(self.units, self.store, 0, count * R::SIZE, |bytes| {
            let mut prev: Option<TimeInterval> = None;
            for (i, record) in bytes.chunks_exact(R::SIZE).enumerate() {
                let rec = R::read(record)?;
                rec.check_structure(&self.shared)?;
                let iv = UnitRecord::interval(&rec);
                if let Some(p) = prev {
                    if p.cmp_start(&iv) != std::cmp::Ordering::Less || !p.r_disjoint(&iv) {
                        return Err(DecodeError::Invariant(InvariantViolation::with_detail(
                            "mapping: unit intervals sorted and pairwise disjoint",
                            format!("units {} and {} violate the order", i - 1, i),
                        )));
                    }
                }
                prev = Some(iv);
            }
            Ok(())
        })
    }

    /// Deep validation of the viewed mapping, without materializing it:
    /// decodes each unit in turn (holding only one previous unit), and
    /// checks every Section 3.2.4 condition — unit validity, interval
    /// order/disjointness, and canonicity (mergeable adjacent units must
    /// have been merged).
    pub fn validate(&self) -> DecodeResult<()> {
        let mut prev: Option<R::Unit> = None;
        for i in 0..self.units.count {
            let rec = self.try_record(i)?;
            rec.check_structure(&self.shared)?;
            let unit = rec.try_decode(&self.shared)?;
            if let Some(p) = &prev {
                let (a, b) = (p.interval(), unit.interval());
                if a.cmp_start(b) != std::cmp::Ordering::Less || !a.r_disjoint(b) {
                    return Err(DecodeError::Invariant(InvariantViolation::with_detail(
                        "mapping: unit intervals sorted and pairwise disjoint",
                        format!("units {} and {} violate the order", i - 1, i),
                    )));
                }
                if a.r_adjacent(b) && p.value_eq(&unit) {
                    return Err(DecodeError::Invariant(InvariantViolation::with_detail(
                        "mapping: adjacent units must carry distinct values (canonicity)",
                        format!("units {} and {} are mergeable", i - 1, i),
                    )));
                }
            }
            prev = Some(unit);
        }
        Ok(())
    }

    /// The `i`-th unit record, fully read but not yet decoded into a
    /// live unit.
    pub fn try_record(&self, i: usize) -> DecodeResult<R> {
        read_array_bytes(self.units, self.store, i * R::SIZE, R::SIZE, R::read)
    }

    /// Fallible interval read: the 18-byte header of the `i`-th record.
    pub fn try_interval(&self, i: usize) -> DecodeResult<TimeInterval> {
        self.headers_read.incr();
        read_array_bytes(
            self.units,
            self.store,
            i * R::SIZE,
            TimeInterval::SIZE,
            TimeInterval::read,
        )
    }

    /// Fallible unit decode of the `i`-th record.
    pub fn try_unit(&self, i: usize) -> DecodeResult<R::Unit> {
        self.units_decoded.incr();
        self.try_record(i)?.try_decode(&self.shared)
    }

    /// Decode every unit and assemble an in-memory [`Mapping`],
    /// re-checking the Section 3.2.4 mapping invariants (order,
    /// disjointness, canonicity) via [`Mapping::try_new`] — the moral
    /// equivalent of the old eager `load_*` functions, expressed over
    /// the unified `open_*` entry points.
    pub fn materialize_validated(&self) -> DecodeResult<Mapping<R::Unit>> {
        let mut units = Vec::with_capacity(self.units.count);
        for i in 0..self.units.count {
            units.push(self.try_unit(i)?);
        }
        Ok(Mapping::try_new(units)?)
    }

    /// Look up unit `i` in the decoded-unit cache, promoting a hit to
    /// the front (most-recently-used) and counting it.
    fn cache_get(&self, i: usize) -> Option<R::Unit> {
        let mut cache = self.cache.borrow_mut();
        let pos = cache.iter().position(|(k, _)| *k == i)?;
        if pos != 0 {
            let entry = cache.remove(pos);
            cache.insert(0, entry);
        }
        self.cache_hits.incr();
        cache.first().map(|(_, u)| u.clone())
    }

    /// Insert a freshly decoded unit at the front of the cache,
    /// evicting the least-recently-used entries beyond capacity.
    fn cache_put(&self, i: usize, unit: R::Unit) {
        let mut cache = self.cache.borrow_mut();
        cache.insert(0, (i, unit));
        cache.truncate(DEFAULT_UNIT_CACHE);
    }

    /// Interval headers read since the last counter reset (each is one
    /// 18-byte read — the probes of the binary search). Mirrored into
    /// the `mob-obs` registry as `view.headers_read`.
    pub fn headers_read(&self) -> u64 {
        self.headers_read.get()
    }

    /// Full unit records decoded since the last counter reset.
    /// Mirrored into the `mob-obs` registry as `view.units_decoded`.
    pub fn units_decoded(&self) -> u64 {
        self.units_decoded.get()
    }

    /// [`UnitSeq::unit`] calls served from the decoded-unit cache since
    /// the last counter reset (these do **not** count as
    /// [`MappingView::units_decoded`]). Mirrored into the `mob-obs`
    /// registry as `view.cache_hits`.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.get()
    }

    /// Reset the per-view decode and cache counters (the cache
    /// *contents* are kept — only the tallies restart). The `mob-obs`
    /// registry mirrors are monotone process totals and are deliberately
    /// not rewound.
    pub fn reset_counters(&self) {
        self.headers_read.reset_local();
        self.units_decoded.reset_local();
        self.cache_hits.reset_local();
    }

    /// The underlying page store (for its page-I/O counters).
    pub fn store(&self) -> &'s PageStore {
        self.store
    }
}

impl<'s, R: UnitRecord> UnitSeq for MappingView<'s, R> {
    type Unit = R::Unit;

    fn len(&self) -> usize {
        self.units.count
    }

    fn interval(&self, i: usize) -> TimeInterval {
        #[allow(clippy::expect_used)] // unreachable: verified at view construction
        self.try_interval(i)
            .expect("mapping view verified at construction")
    }

    fn unit(&self, i: usize) -> Cow<'_, R::Unit> {
        if let Some(unit) = self.cache_get(i) {
            return Cow::Owned(unit);
        }
        #[allow(clippy::expect_used)] // unreachable: verified at view construction
        let unit = self
            .try_unit(i)
            .expect("mapping view verified at construction");
        self.cache_put(i, unit.clone());
        Cow::Owned(unit)
    }
}

impl<'s, R: UnitRecord> MappingView<'s, R> {
    /// Dispatch on [`Verify`] after the shared `O(1)` checks have run.
    fn open_with(
        store: &'s PageStore,
        units: &'s SavedArray,
        shared: R::Shared<'s>,
        verify: Verify,
    ) -> DecodeResult<Self> {
        match verify {
            Verify::Full => MappingView::open(store, units, shared),
            Verify::Preverified => MappingView::open_unchecked(store, units, shared),
        }
    }
}

/// Open a lazy view over a stored `moving(bool)`.
pub fn open_mbool<'s>(
    stored: &'s StoredMapping,
    store: &'s PageStore,
    verify: Verify,
) -> DecodeResult<MappingView<'s, UBoolRecord>> {
    check_root_count(stored.num_units, &stored.units)?;
    MappingView::open_with(store, &stored.units, (), verify)
}

/// Open a lazy view over a stored `moving(real)`.
pub fn open_mreal<'s>(
    stored: &'s StoredMapping,
    store: &'s PageStore,
    verify: Verify,
) -> DecodeResult<MappingView<'s, URealRecord>> {
    check_root_count(stored.num_units, &stored.units)?;
    MappingView::open_with(store, &stored.units, (), verify)
}

/// Open a lazy view over a stored `moving(point)` — the unified,
/// fallible record-opening entry point (see [`Verify`] for the
/// verification levels; [`MappingView::materialize_validated`] recovers
/// the old eager-load behaviour).
pub fn open_mpoint<'s>(
    stored: &'s StoredMapping,
    store: &'s PageStore,
    verify: Verify,
) -> DecodeResult<MappingView<'s, UPointRecord>> {
    check_root_count(stored.num_units, &stored.units)?;
    MappingView::open_with(store, &stored.units, (), verify)
}

/// Open a lazy view over a stored `moving(points)` (one shared
/// subarray).
pub fn open_mpoints<'s>(
    stored: &'s StoredMPoints,
    store: &'s PageStore,
    verify: Verify,
) -> DecodeResult<MappingView<'s, UPointsRecord>> {
    check_root_count(stored.num_units, &stored.units)?;
    stored.motions.check_layout::<PointMotion>(store)?;
    MappingView::open_with(
        store,
        &stored.units,
        PointsShared {
            store,
            motions: &stored.motions,
        },
        verify,
    )
}

/// Open a lazy view over a stored `moving(line)` (one shared subarray).
pub fn open_mline<'s>(
    stored: &'s StoredMLine,
    store: &'s PageStore,
    verify: Verify,
) -> DecodeResult<MappingView<'s, ULineRecord>> {
    check_root_count(stored.num_units, &stored.units)?;
    stored.msegments.check_layout::<MSegRecord>(store)?;
    MappingView::open_with(
        store,
        &stored.units,
        LineShared {
            store,
            msegments: &stored.msegments,
        },
        verify,
    )
}

/// Open a lazy view over a stored `moving(region)` (three shared
/// subarrays).
pub fn open_mregion<'s>(
    stored: &'s StoredMRegion,
    store: &'s PageStore,
    verify: Verify,
) -> DecodeResult<MappingView<'s, URegionRecord>> {
    check_root_count(stored.num_units, &stored.units)?;
    stored.msegments.check_layout::<MSegRecord>(store)?;
    stored.mcycles.check_layout::<MCycleRecord>(store)?;
    stored.mfaces.check_layout::<MFaceRecord>(store)?;
    MappingView::open_with(
        store,
        &stored.units,
        RegionShared {
            store,
            msegments: &stored.msegments,
            mcycles: &stored.mcycles,
            mfaces: &stored.mfaces,
        },
        verify,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping_store::{save_mbool, save_mpoint, save_mregion};
    use mob_base::{t, Interval, Val};
    use mob_core::{Mapping, MovingPoint, MovingRegion};
    use mob_spatial::{pt, rect_ring};

    fn long_mpoint(n: usize) -> MovingPoint {
        let samples: Vec<_> = (0..=n)
            .map(|k| (t(k as f64), pt(k as f64, (k % 7) as f64)))
            .collect();
        MovingPoint::from_samples(&samples)
    }

    #[test]
    fn view_agrees_with_memory_mpoint() {
        let m = long_mpoint(50);
        let mut store = PageStore::new();
        let stored = save_mpoint(&m, &mut store);
        let view = open_mpoint(&stored, &store, Verify::Full).unwrap();
        assert_eq!(view.len(), m.num_units());
        for k in [-1.0, 0.0, 0.5, 17.25, 49.9, 50.0, 51.0] {
            assert_eq!(view.at_instant(t(k)), m.at_instant(t(k)), "t={k}");
            assert_eq!(view.present_at(t(k)), m.present_at(t(k)), "t={k}");
        }
        assert_eq!(view.deftime(), m.deftime());
        assert_eq!(view.materialize(), m);
        view.validate().unwrap();
    }

    #[test]
    fn at_instant_decodes_log_n_records() {
        let n = 4096;
        let m = long_mpoint(n);
        let mut store = PageStore::new();
        let stored = save_mpoint(&m, &mut store);
        let view = open_mpoint(&stored, &store, Verify::Full).unwrap();
        view.reset_counters();
        let v = view.at_instant(t(1234.5));
        assert!(v.is_def());
        // Binary search: ≤ ⌈log2 n⌉ + 1 header probes, exactly 1 decode.
        let bound = (n as f64).log2().ceil() as u64 + 2;
        assert!(
            view.headers_read() <= bound,
            "headers_read {} > O(log n) bound {bound}",
            view.headers_read()
        );
        assert_eq!(view.units_decoded(), 1);
        // A miss decodes nothing.
        view.reset_counters();
        assert_eq!(view.at_instant(t(-5.0)), Val::Undef);
        assert_eq!(view.units_decoded(), 0);
    }

    #[test]
    fn at_instant_touches_few_pages() {
        let n = 4096;
        let m = long_mpoint(n);
        let mut store = PageStore::new();
        let stored = save_mpoint(&m, &mut store);
        assert!(!stored.units.is_inline(), "large mapping goes external");
        let view = open_mpoint(&stored, &store, Verify::Full).unwrap();
        store.reset_counters();
        let _ = view.at_instant(t(2000.25));
        let full_pages = (n * UPointRecord::SIZE).div_ceil(crate::page::DEFAULT_PAGE_SIZE) as u64;
        assert!(
            store.pages_read() < full_pages / 2,
            "lazy atinstant read {} pages, full scan would read {full_pages}",
            store.pages_read()
        );
    }

    #[test]
    fn view_agrees_with_memory_mbool() {
        let m = Mapping::try_new(vec![
            ConstUnit::new(Interval::closed_open(t(0.0), t(1.0)), true),
            ConstUnit::new(Interval::closed_open(t(1.0), t(2.0)), false),
            ConstUnit::new(Interval::closed(t(3.0), t(4.0)), true),
        ])
        .unwrap();
        let mut store = PageStore::new();
        let stored = save_mbool(&m, &mut store);
        let view = open_mbool(&stored, &store, Verify::Full).unwrap();
        for k in [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.5, 4.0, 9.0] {
            assert_eq!(view.at_instant(t(k)), m.at_instant(t(k)), "t={k}");
        }
        assert_eq!(view.materialize(), m);
        view.validate().unwrap();
    }

    #[test]
    fn view_agrees_with_memory_mregion() {
        let u1 = URegion::interpolate(
            Interval::closed_open(t(0.0), t(1.0)),
            &rect_ring(0.0, 0.0, 1.0, 1.0),
            &rect_ring(1.0, 0.0, 2.0, 1.0),
        )
        .unwrap();
        let u2 = URegion::interpolate(
            Interval::closed(t(1.0), t(2.0)),
            &rect_ring(1.0, 0.0, 2.0, 1.0),
            &rect_ring(1.0, 1.0, 2.0, 2.0),
        )
        .unwrap();
        let m: MovingRegion = Mapping::try_new(vec![u1, u2]).unwrap();
        let mut store = PageStore::new();
        let stored = save_mregion(&m, &mut store);
        let view = open_mregion(&stored, &store, Verify::Full).unwrap();
        view.reset_counters();
        for k in [0.0, 0.5, 1.0, 1.5, 2.0] {
            let a = m.at_instant(t(k)).unwrap();
            let b = view.at_instant(t(k)).unwrap();
            assert_eq!(a.area(), b.area(), "t={k}");
            assert_eq!(a.num_faces(), b.num_faces(), "t={k}");
        }
        // Five probes hit only two distinct units: the decoded-unit
        // cache serves the repeats.
        assert_eq!(view.units_decoded(), 2);
        assert_eq!(view.cache_hits(), 3);
        view.validate().unwrap();
    }

    #[test]
    fn at_periods_on_view() {
        let m = long_mpoint(100);
        let mut store = PageStore::new();
        let stored = save_mpoint(&m, &mut store);
        let view = open_mpoint(&stored, &store, Verify::Full).unwrap();
        let p = mob_base::Periods::from_unmerged(vec![
            Interval::closed(t(10.5), t(12.5)),
            Interval::closed(t(80.0), t(81.0)),
        ]);
        view.reset_counters();
        let restricted = view.at_periods(&p);
        assert_eq!(restricted, m.atperiods(&p));
        // Only the overlapped units were decoded.
        assert!(view.units_decoded() <= 6, "{}", view.units_decoded());
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let m = long_mpoint(64);
        let mut store = PageStore::new();
        let stored = save_mpoint(&m, &mut store);
        let view = open_mpoint(&stored, &store, Verify::Full).unwrap();
        let n = view.len();
        assert!(n > DEFAULT_UNIT_CACHE + 1, "need more units than slots");
        view.reset_counters();
        // Touch more distinct units than the default capacity …
        for i in 0..n {
            let _ = view.unit(i);
        }
        assert_eq!(view.units_decoded(), n as u64);
        // … the most recent one is still cached, the oldest is not.
        view.reset_counters();
        let _ = view.unit(n - 1);
        assert_eq!(view.cache_hits(), 1);
        let _ = view.unit(0);
        assert_eq!(view.units_decoded(), 1, "unit 0 was evicted");
    }

    #[test]
    fn preverified_open_skips_the_structural_scan() {
        let n = 2048;
        let m = long_mpoint(n);
        let mut store = PageStore::new();
        let stored = save_mpoint(&m, &mut store);
        // Full open once (the load-time verification).
        let _ = open_mpoint(&stored, &store, Verify::Full).unwrap();
        store.reset_counters();
        let view = open_mpoint(&stored, &store, Verify::Preverified).unwrap();
        assert_eq!(
            store.pages_read(),
            0,
            "preverified open reads no data pages"
        );
        // The view still answers queries identically.
        for k in [0.0, 512.25, 2048.0] {
            assert_eq!(view.at_instant(t(k)), m.at_instant(t(k)), "t={k}");
        }
        // Root-count damage is still caught by the O(1) checks.
        let mut bad = save_mpoint(&m, &mut store);
        bad.num_units += 1;
        assert!(open_mpoint(&bad, &store, Verify::Preverified).is_err());
    }

    #[test]
    fn corrupt_root_count_is_rejected_at_open() {
        let m = long_mpoint(8);
        let mut store = PageStore::new();
        let mut stored = save_mpoint(&m, &mut store);
        stored.num_units += 1;
        assert!(matches!(
            open_mpoint(&stored, &store, Verify::Full),
            Err(DecodeError::CountMismatch { .. })
        ));
    }

    #[test]
    fn unordered_unit_intervals_are_rejected_at_open() {
        use crate::record::write_all;
        // Hand-craft two out-of-order upoint records.
        let u0 = UPointRecord {
            interval: Interval::closed(t(5.0), t(6.0)),
            motion: PointMotion::stationary(pt(0.0, 0.0)),
        };
        let u1 = UPointRecord {
            interval: Interval::closed(t(0.0), t(1.0)),
            motion: PointMotion::stationary(pt(1.0, 1.0)),
        };
        let bytes = write_all(&[u0, u1]);
        let mut store = PageStore::new();
        let stored = StoredMapping {
            num_units: 2,
            units: crate::dbarray::SavedArray {
                count: 2,
                placement: crate::dbarray::Placement::Inline(bytes),
            },
        };
        let _ = &mut store;
        assert!(matches!(
            open_mpoint(&stored, &store, Verify::Full),
            Err(DecodeError::Invariant(_))
        ));
    }

    #[test]
    fn validate_rejects_non_canonical_adjacent_units() {
        use crate::record::write_all;
        // Two adjacent ubool units with the same value: valid structure,
        // but violates canonicity (they should have been merged).
        let u0 = UBoolRecord {
            interval: Interval::closed_open(t(0.0), t(1.0)),
            value: true,
        };
        let u1 = UBoolRecord {
            interval: Interval::closed(t(1.0), t(2.0)),
            value: true,
        };
        let bytes = write_all(&[u0, u1]);
        let store = PageStore::new();
        let stored = StoredMapping {
            num_units: 2,
            units: crate::dbarray::SavedArray {
                count: 2,
                placement: crate::dbarray::Placement::Inline(bytes),
            },
        };
        // In debug builds the deep check already runs at open.
        match open_mbool(&stored, &store, Verify::Full) {
            Err(DecodeError::Invariant(iv)) => {
                assert!(iv.clause().contains("canonicity"), "{iv}");
            }
            Ok(view) => {
                let err = view.validate().unwrap_err();
                assert!(matches!(err, DecodeError::Invariant(_)));
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
