//! Immutable generations: the MVCC read side of the durable store.
//!
//! A [`Generation`] is a frozen, shareable snapshot of one committed
//! store state: a page store behind an `Arc`, the root catalog, and the
//! bookkeeping the query layer needs (which roots changed since the
//! last full snapshot and where their appended units lie, which blobs
//! are quarantined). Readers pin a
//! generation with [`crate::DurableStore::snapshot`] and keep querying
//! it — bit-for-bit unchanged — while a writer commits deltas and
//! compactions that produce *new* generations.
//!
//! The write side never mutates a generation a reader can see. An
//! append batch finds every touched root through the catalog's name
//! index in O(log n), splices the appended units onto its mapping,
//! writes only the new unit arrays, and points the root's catalog slot
//! at them. [`Generation::apply_appends`] does this to a copy (catalog
//! copied, page store forked: blob pages are shared behind `Arc`s — see
//! [`PageStore::fork`]), which is how commits leave pinned readers
//! alone. Delta replay on open, where nothing can pin the generation
//! yet, does it in place (`append_in_place`), so a replayed delta costs
//! O(k log n) catalog work for k appended roots over n entries plus the
//! touched mappings' units, and nothing proportional to the store. A
//! failing batch leaves the generation as it was either way.
//!
//! Everything here sits on the untrusted-decode path (delta replay runs
//! it on whatever survived a crash), so all validation returns
//! [`DecodeError`]s: no indexing, no unwraps, no panicking interval
//! constructors.

use crate::catalog::Catalog;
use crate::dbarray::{load_array, save_array, Placement, SavedArray};
use crate::index_store::StoredIndex;
use crate::line_store::{StoredLine, StoredPoints};
use crate::mapping_store::{
    StoredMLine, StoredMPoints, StoredMRegion, StoredMapping, UPointRecord,
};
use crate::page::PageStore;
use crate::range_store::StoredPeriods;
use crate::region_store::StoredRegion;
use crate::store_file::{RootRecord, StoreFile};
use crate::view::{self, MappingView, Verify};
use mob_base::{DecodeError, DecodeResult, Instant, Real, TimeInterval};
use mob_spatial::{Cube, Point, Rect};
use std::cmp::Ordering;
use std::sync::Arc;

/// One committed, immutable store state (see the module docs).
#[derive(Clone)]
pub struct Generation {
    number: u64,
    store: Arc<PageStore>,
    catalog: Catalog,
    /// Catalog entries the last full snapshot held. Deltas append the
    /// roots they create after them, so an entry at or past this
    /// position did not exist at the snapshot.
    snapshot_roots: usize,
    /// The *tail*: one entry per root whose mapping changed after the
    /// last full snapshot, sorted by name, with the union cube of every
    /// unit record appended to it since (see [`Generation::tail`]).
    tail: Vec<(String, Cube)>,
    /// Blob indices quarantined when the snapshot was decoded degraded.
    quarantined: Vec<usize>,
}

impl Generation {
    /// An empty generation (no roots, no pages).
    #[must_use]
    pub fn empty(number: u64) -> Generation {
        Generation {
            number,
            store: Arc::new(PageStore::new()),
            catalog: Catalog::new(),
            snapshot_roots: 0,
            tail: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    /// Freeze a decoded snapshot file as a generation. A full snapshot
    /// has an empty tail by construction — every index in it was
    /// written against the same catalog.
    #[must_use]
    pub fn from_store_file(number: u64, file: StoreFile, quarantined: Vec<usize>) -> Generation {
        let (store, catalog) = file.into_parts();
        Generation {
            number,
            store: Arc::new(store),
            snapshot_roots: catalog.len(),
            catalog,
            tail: Vec::new(),
            quarantined,
        }
    }

    /// The generation number (monotonic across commits).
    #[must_use]
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The frozen page store.
    #[must_use]
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Owning handle to the frozen page store, for relation scan
    /// workers that outlive a borrow.
    #[must_use]
    pub fn store_arc(&self) -> Arc<PageStore> {
        Arc::clone(&self.store)
    }

    /// The root catalog, in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[(String, RootRecord)] {
        self.catalog.entries()
    }

    /// Look up a root record by name (the first entry of that name).
    /// O(log n) through the catalog's name index.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&RootRecord> {
        self.catalog.get(name)
    }

    /// Catalog entries the last full snapshot held: [`Generation::entries`]
    /// past this position are roots created by deltas since.
    #[must_use]
    pub fn snapshot_roots(&self) -> usize {
        self.snapshot_roots
    }

    /// The tail: every root modified since the last full snapshot,
    /// sorted by name, with the union cube of the unit records appended
    /// to it since. Any stored index predates these appends.
    ///
    /// The cubes a snapshot-time index holds for a root, plus its tail
    /// cube, cover every unit the root holds now: seam resolution only
    /// trims or drops a stored tail unit, and ι-merging fuses a stored
    /// unit with an appended one, whose cubes are both covered. For a
    /// root created since the snapshot the tail cube covers it whole.
    #[must_use]
    pub fn tail(&self) -> &[(String, Cube)] {
        &self.tail
    }

    /// The tail cube of `name`, or `None` when the root has not changed
    /// since the last full snapshot. O(log n) in the tail's length.
    #[must_use]
    pub fn tail_cube(&self, name: &str) -> Option<&Cube> {
        self.tail
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .and_then(|i| self.tail.get(i))
            .map(|(_, cube)| cube)
    }

    /// Blob indices quarantined at decode time (degraded opens).
    #[must_use]
    pub fn quarantined(&self) -> &[usize] {
        &self.quarantined
    }

    /// Open a lazy view over the `moving(point)` root `name` — same
    /// error contract as [`StoreFile::open_mpoint`].
    pub fn open_mpoint(
        &self,
        name: &str,
        verify: Verify,
    ) -> DecodeResult<MappingView<'_, UPointRecord>> {
        match self.get(name) {
            Some(RootRecord::MPoint(stored)) => view::open_mpoint(stored, &self.store, verify),
            Some(other) => Err(DecodeError::BadStructure {
                what: "generation catalog",
                detail: format!("entry {name:?} is a {}, not an mpoint", other.kind_name()),
            }),
            None => Err(DecodeError::BadStructure {
                what: "generation catalog",
                detail: format!("no entry named {name:?}"),
            }),
        }
    }

    /// Re-materialize this generation as a serializable full image
    /// (pages forked, catalog cloned). Cheap: blob pages are shared.
    /// With a non-empty tail the image leaves out every stored index,
    /// which predates the tail's appends (the `image_carries` rule).
    #[must_use]
    pub fn to_store_file(&self) -> StoreFile {
        let entries = self.catalog.entries();
        let catalog = if entries.iter().all(|(_, root)| self.image_carries(root)) {
            self.catalog.clone()
        } else {
            Catalog::from_entries(
                entries
                    .iter()
                    .filter(|(_, root)| self.image_carries(root))
                    .cloned()
                    .collect(),
            )
        };
        StoreFile::from_parts(self.store.fork(), catalog)
    }

    /// Whether a full image of this generation ([`Generation::to_store_file`],
    /// [`Generation::rebuild_store_file`]) carries `root`. A stored index
    /// built before this generation's appends no longer covers every
    /// unit, and a full snapshot starts with an empty tail — carrying
    /// the old index over would let later opens attach it as fully
    /// trusted and silently prune appended data. The image drops it;
    /// the maintenance rebuild step re-derives a fresh one.
    fn image_carries(&self, root: &RootRecord) -> bool {
        self.tail.is_empty() || !matches!(root, RootRecord::Index(_))
    }

    /// Rewrite every live root into a fresh page store — the compaction
    /// rewrite. Blobs superseded by appends are dropped (only blobs the
    /// current catalog references are copied), so a long append history
    /// folds back down to the size of the live data. Quarantined blobs
    /// cannot be copied and fail the rewrite: a degraded store must be
    /// repaired (roots dropped or restored) before compaction.
    pub fn rebuild_store_file(&self) -> DecodeResult<StoreFile> {
        let mut dst = PageStore::with_page_size(self.store.page_size())?;
        let mut entries = Vec::with_capacity(self.catalog.len());
        for (name, root) in self.catalog.entries() {
            if !self.image_carries(root) {
                continue;
            }
            entries.push((name.clone(), rewrite_root(&self.store, &mut dst, root)?));
        }
        Ok(StoreFile::from_parts(dst, Catalog::from_entries(entries)))
    }

    /// Build the successor generation by appending units to `moving(point)`
    /// roots. `appends` holds per-root unit batches in commit order; an
    /// unknown root name creates a new mapping, a known one must be an
    /// mpoint and the batch must continue it (see [`splice_units`] and
    /// the seam rules below). Untouched roots share their pages with
    /// `self` via [`PageStore::fork`]; the successor's catalog is a copy
    /// of this one.
    ///
    /// Seam between the stored tail and the first appended unit (the
    /// ingestion anchor makes consecutive batches share a boundary
    /// instant): a stored point-interval tail is *replaced* by the
    /// continuation that starts there; a stored right-closed tail is
    /// trimmed to right-open when the continuation is left-closed at its
    /// end. A gap (batch starts after the stored end) is honest missing
    /// data and concatenates as-is.
    pub fn apply_appends(
        &self,
        number: u64,
        appends: &[(String, Vec<UPointRecord>)],
    ) -> DecodeResult<Generation> {
        let mut next = self.clone();
        next.append_in_place(number, appends)?;
        Ok(next)
    }

    /// [`Generation::apply_appends`] where the generation lies: `self`
    /// becomes generation `number` without a copy of its catalog, so
    /// the cost is O(k log n) catalog work for k appended roots over n
    /// entries plus the touched mappings' units. The page store is
    /// forked first when another generation shares it. On error `self`
    /// is unchanged.
    pub(crate) fn append_in_place(
        &mut self,
        number: u64,
        appends: &[(String, Vec<UPointRecord>)],
    ) -> DecodeResult<()> {
        if Arc::get_mut(&mut self.store).is_none() {
            self.store = Arc::new(self.store.fork());
        }
        let Some(store) = Arc::get_mut(&mut self.store) else {
            // Unreachable: the store was just unshared.
            return Err(DecodeError::BadStructure {
                what: "delta apply",
                detail: "page store is shared".into(),
            });
        };
        let mark = store.num_blobs();
        // Sized once: a log grown by doubling while the batch's unit
        // arrays are written leaves its old buffers as heap holes
        // between long-lived pages.
        let mut replaced = Vec::with_capacity(appends.len());
        let created = match stage(&mut self.catalog, store, appends, &mut replaced) {
            Ok(created) => created,
            Err(e) => {
                // Newest first, so a root replaced twice ends at its
                // original; then drop the arrays the batch wrote.
                for (slot, old) in replaced.into_iter().rev() {
                    self.catalog.replace_root(slot, RootRecord::MPoint(old));
                }
                store.truncate_blobs(mark);
                return Err(e);
            }
        };
        // Grow the tail from the records the batch appended: every
        // root `stage` touched has a non-empty batch.
        let mut fresh: Vec<(String, Cube)> = Vec::new();
        for (name, records) in appends {
            let Some(cube) = records_cube(records) else {
                continue;
            };
            match self.tail.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => {
                    if let Some((_, grown)) = self.tail.get_mut(i) {
                        *grown = grown.union(&cube);
                    }
                }
                Err(_) => fresh.push((name.clone(), cube)),
            }
        }
        if !fresh.is_empty() {
            fresh.sort_by(|a, b| a.0.cmp(&b.0));
            fresh.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 = kept.1.union(&next.1);
                }
                same
            });
            // Two sorted runs: the stable sort merges them in one pass.
            self.tail.append(&mut fresh);
            self.tail.sort_by(|a, b| a.0.cmp(&b.0));
        }
        // New roots join the catalog in one O(n + k) index merge instead
        // of k shifts of the name index.
        self.catalog.append(created);
        self.number = number;
        Ok(())
    }
}

/// Apply every batch of `appends` in order (see
/// [`Generation::apply_appends`] for the rules): write each touched
/// root's spliced units to `store` and point its catalog slot at them,
/// logging the mapping each slot held in `replaced`. Returns the roots
/// the batch creates, in first-touch order; a root named twice
/// continues from its first batch's array.
fn stage(
    catalog: &mut Catalog,
    store: &mut PageStore,
    appends: &[(String, Vec<UPointRecord>)],
    replaced: &mut Vec<(usize, StoredMapping)>,
) -> DecodeResult<Catalog> {
    let mut created = Catalog::new();
    for (name, records) in appends {
        if records.is_empty() {
            continue;
        }
        // A root this batch created lives in `created` until install.
        let known = catalog.slot(name);
        let (target, slot) = match known {
            Some(slot) => (&mut *catalog, Some(slot)),
            None => {
                let slot = created.slot(name);
                (&mut created, slot)
            }
        };
        let mut combined: Vec<UPointRecord> = match slot.and_then(|s| target.root_at(s)) {
            Some(RootRecord::MPoint(sm)) => load_array(&sm.units, store)?,
            Some(other) => {
                return Err(DecodeError::BadStructure {
                    what: "delta apply",
                    detail: format!(
                        "append target {name:?} is a {}, not an mpoint",
                        other.kind_name()
                    ),
                })
            }
            None => Vec::new(),
        };
        resolve_seam(&mut combined, records, name)?;
        combined.extend_from_slice(records);
        let spliced = splice_units(combined)?;
        let num_units = u32::try_from(spliced.len()).map_err(|_| DecodeError::BadStructure {
            what: "delta apply",
            detail: format!("mapping {name:?} exceeds u32 units"),
        })?;
        let root = RootRecord::MPoint(StoredMapping {
            num_units,
            units: save_array(&spliced, store),
        });
        match slot {
            None => target.push(name.clone(), root),
            Some(slot) => {
                let old = target.replace_root(slot, root);
                if let (Some(_), Some(RootRecord::MPoint(old))) = (known, old) {
                    replaced.push((slot, old));
                }
            }
        }
    }
    Ok(created)
}

/// Union of the bounding cubes of `records`; `None` for an empty batch.
fn records_cube(records: &[UPointRecord]) -> Option<Cube> {
    records.iter().fold(None, |acc: Option<Cube>, r| {
        let cube = record_cube(r);
        Some(acc.map_or(cube, |acc| acc.union(&cube)))
    })
}

/// The bounding cube of one unit record, as
/// [`mob_core::UPoint::bounding_cube`] computes it. Replay input is
/// untrusted: an endpoint the motion cannot evaluate (an infinite
/// coefficient times zero is NaN) widens the cube to the whole plane
/// instead of panicking.
fn record_cube(r: &UPointRecord) -> Cube {
    let m = &r.motion;
    let at = |t: &Instant| {
        let t = t.as_f64();
        let x = Real::try_new(m.x0.get() + m.x1.get() * t).ok()?;
        let y = Real::try_new(m.y0.get() + m.y1.get() * t).ok()?;
        Some(Point::new(x, y))
    };
    let rect = match (at(r.interval.start()), at(r.interval.end())) {
        (Some(p), Some(q)) => Rect::of_points([p, q]),
        _ => {
            let (lo, hi) = (Real::new(f64::NEG_INFINITY), Real::new(f64::INFINITY));
            Rect::new(lo, lo, hi, hi)
        }
    };
    Cube::new(rect, &r.interval)
}

/// Seam resolution between a stored mapping tail and the first appended
/// unit (see [`Generation::apply_appends`]). Mutates `existing` in
/// place; overlaps beyond the shared boundary instant are left for the
/// splice pass to reject.
fn resolve_seam(
    existing: &mut Vec<UPointRecord>,
    appended: &[UPointRecord],
    name: &str,
) -> DecodeResult<()> {
    let Some(fu) = appended.first() else {
        return Ok(());
    };
    let Some(lu) = existing.last() else {
        return Ok(());
    };
    let boundary = *fu.interval.start() == *lu.interval.end() && fu.interval.left_closed();
    if !boundary {
        return Ok(());
    }
    if lu.interval.is_point() {
        // The stored tail is the anchor sample frozen as a point unit;
        // the continuation that starts there replaces it.
        existing.pop();
        return Ok(());
    }
    if lu.interval.right_closed() {
        // Trim the stored tail to right-open so the continuation owns
        // the boundary instant (the paper's half-open slicing).
        let trimmed = TimeInterval::try_new(
            *lu.interval.start(),
            *lu.interval.end(),
            lu.interval.left_closed(),
            false,
        )
        .map_err(|e| DecodeError::BadStructure {
            what: "delta apply",
            detail: format!("cannot trim tail of {name:?}: {e}"),
        })?;
        if let Some(last) = existing.last_mut() {
            last.interval = trimmed;
        }
    }
    Ok(())
}

/// Validate and canonicalize a unit sequence: intervals must be sorted
/// by start and pairwise disjoint, and adjacent units with the *same*
/// motion are merged — the paper's ι endpoint cleanup, applied exactly
/// as `Mapping::from_units` would for a pre-sorted input. The result
/// satisfies the `Mapping::try_new` invariants (sorted, disjoint,
/// adjacent ⇒ distinct values).
///
/// Runs on untrusted replay input: every failure is a [`DecodeError`].
pub fn splice_units(units: Vec<UPointRecord>) -> DecodeResult<Vec<UPointRecord>> {
    let mut out: Vec<UPointRecord> = Vec::with_capacity(units.len());
    for u in units {
        let Some(prev) = out.last_mut() else {
            out.push(u);
            continue;
        };
        if prev.interval.cmp_start(&u.interval) != Ordering::Less {
            return Err(DecodeError::BadStructure {
                what: "unit splice",
                detail: "units not sorted by interval start".into(),
            });
        }
        if !prev.interval.disjoint(&u.interval) {
            return Err(DecodeError::BadStructure {
                what: "unit splice",
                detail: "unit intervals overlap".into(),
            });
        }
        if prev.interval.adjacent(&u.interval) && prev.motion == u.motion {
            let merged = TimeInterval::try_new(
                *prev.interval.start(),
                *u.interval.end(),
                prev.interval.left_closed(),
                u.interval.right_closed(),
            )
            .map_err(|e| DecodeError::BadStructure {
                what: "unit splice",
                detail: format!("merge produced an invalid interval: {e}"),
            })?;
            prev.interval = merged;
            continue;
        }
        out.push(u);
    }
    Ok(out)
}

/// Copy a saved array into `dst`, preserving its placement (inline
/// stays inline, external blobs are re-written into `dst`).
fn rewrite_saved(src: &PageStore, dst: &mut PageStore, a: &SavedArray) -> DecodeResult<SavedArray> {
    let placement = match &a.placement {
        Placement::Inline(b) => Placement::Inline(b.clone()),
        Placement::External(id) => Placement::External(dst.write_blob(&src.try_read_blob(*id)?)),
    };
    Ok(SavedArray {
        count: a.count,
        placement,
    })
}

/// Copy one root record's arrays from `src` into `dst` (compaction).
fn rewrite_root(
    src: &PageStore,
    dst: &mut PageStore,
    root: &RootRecord,
) -> DecodeResult<RootRecord> {
    Ok(match root {
        RootRecord::MBool(m) => RootRecord::MBool(StoredMapping {
            num_units: m.num_units,
            units: rewrite_saved(src, dst, &m.units)?,
        }),
        RootRecord::MReal(m) => RootRecord::MReal(StoredMapping {
            num_units: m.num_units,
            units: rewrite_saved(src, dst, &m.units)?,
        }),
        RootRecord::MPoint(m) => RootRecord::MPoint(StoredMapping {
            num_units: m.num_units,
            units: rewrite_saved(src, dst, &m.units)?,
        }),
        RootRecord::MPoints(m) => RootRecord::MPoints(StoredMPoints {
            num_units: m.num_units,
            units: rewrite_saved(src, dst, &m.units)?,
            motions: rewrite_saved(src, dst, &m.motions)?,
        }),
        RootRecord::MLine(m) => RootRecord::MLine(StoredMLine {
            num_units: m.num_units,
            units: rewrite_saved(src, dst, &m.units)?,
            msegments: rewrite_saved(src, dst, &m.msegments)?,
        }),
        RootRecord::MRegion(m) => RootRecord::MRegion(StoredMRegion {
            num_units: m.num_units,
            units: rewrite_saved(src, dst, &m.units)?,
            msegments: rewrite_saved(src, dst, &m.msegments)?,
            mcycles: rewrite_saved(src, dst, &m.mcycles)?,
            mfaces: rewrite_saved(src, dst, &m.mfaces)?,
        }),
        RootRecord::Line(l) => RootRecord::Line(StoredLine {
            num_segments: l.num_segments,
            length: l.length,
            bbox: l.bbox,
            halfsegs: rewrite_saved(src, dst, &l.halfsegs)?,
        }),
        RootRecord::Points(p) => RootRecord::Points(StoredPoints {
            count: p.count,
            points: rewrite_saved(src, dst, &p.points)?,
        }),
        RootRecord::Region(r) => RootRecord::Region(StoredRegion {
            num_faces: r.num_faces,
            num_cycles: r.num_cycles,
            num_segments: r.num_segments,
            area: r.area,
            perimeter: r.perimeter,
            bbox: r.bbox,
            halfsegments: rewrite_saved(src, dst, &r.halfsegments)?,
            cycles: rewrite_saved(src, dst, &r.cycles)?,
            faces: rewrite_saved(src, dst, &r.faces)?,
        }),
        RootRecord::Periods(p) => RootRecord::Periods(StoredPeriods {
            count: p.count,
            intervals: rewrite_saved(src, dst, &p.intervals)?,
        }),
        RootRecord::Index(i) => RootRecord::Index(StoredIndex {
            num_tuples: i.num_tuples,
            fanout: i.fanout,
            entries: rewrite_saved(src, dst, &i.entries)?,
            nodes: rewrite_saved(src, dst, &i.nodes)?,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping_store::save_mpoint;
    use mob_base::t;
    use mob_core::{Mapping, MovingPoint, TailBuilder, Unit};
    use mob_spatial::pt;

    fn to_records(units: &[mob_core::UPoint]) -> Vec<UPointRecord> {
        units
            .iter()
            .map(|u| UPointRecord {
                interval: *u.interval(),
                motion: *u.motion(),
            })
            .collect()
    }

    fn gen_with_mpoint(name: &str, m: &MovingPoint) -> Generation {
        let mut file = StoreFile::new();
        let sm = save_mpoint(m, file.store_mut());
        file.put(name, RootRecord::MPoint(sm));
        Generation::from_store_file(1, file, Vec::new())
    }

    fn load_units(g: &Generation, name: &str) -> Vec<UPointRecord> {
        match g.get(name) {
            Some(RootRecord::MPoint(sm)) => load_array(&sm.units, g.store()).unwrap(),
            other => panic!("{name}: {other:?}"),
        }
    }

    /// Batched ingestion through apply_appends must equal one
    /// from_samples call over the full sample list.
    #[test]
    fn batched_appends_equal_whole_from_samples() {
        let samples: Vec<_> = (0..10)
            .map(|i| (t(f64::from(i)), pt(f64::from(i % 3), f64::from(i))))
            .collect();
        let mut tail = TailBuilder::new();
        let mut g = Generation::empty(0);
        for chunk in samples.chunks(3) {
            for &(ti, pi) in chunk {
                tail.push(ti, pi).unwrap();
            }
            let batch = to_records(&tail.seal());
            g = g
                .apply_appends(g.number() + 1, &[("car".to_string(), batch)])
                .unwrap();
        }
        let whole = MovingPoint::from_samples(&samples);
        assert_eq!(load_units(&g, "car"), to_records(whole.units()));
        assert!(g.tail_cube("car").is_some());
        assert_eq!(g.number(), 4);
    }

    #[test]
    fn apply_appends_shares_untouched_roots_and_freezes_the_base() {
        let road = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(5.0), pt(5.0, 0.0))]);
        let base = gen_with_mpoint("road", &road);
        let before = load_units(&base, "road");
        let batch = to_records(
            MovingPoint::from_samples(&[(t(0.0), pt(9.0, 9.0)), (t(1.0), pt(8.0, 8.0))]).units(),
        );
        let next = base
            .apply_appends(2, &[("car".to_string(), batch.clone())])
            .unwrap();
        // The base generation is bit-identical after the commit.
        assert_eq!(load_units(&base, "road"), before);
        assert!(base.get("car").is_none());
        // The successor sees both, and only the new root has a tail.
        assert_eq!(load_units(&next, "road"), before);
        assert_eq!(load_units(&next, "car"), batch);
        assert!(next.tail_cube("car").is_some() && next.tail_cube("road").is_none());
    }

    #[test]
    fn seam_replaces_point_tail_and_trims_closed_tail() {
        // Point tail: a single-sample mapping continued by a batch.
        let single = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0))]);
        let g = gen_with_mpoint("car", &single);
        let cont = to_records(
            MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(1.0), pt(1.0, 0.0))]).units(),
        );
        let g2 = g.apply_appends(2, &[("car".to_string(), cont)]).unwrap();
        let whole = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(1.0), pt(1.0, 0.0))]);
        assert_eq!(load_units(&g2, "car"), to_records(whole.units()));

        // Closed tail: from_samples leaves the last window right-closed;
        // a left-closed continuation forces the trim path.
        let two = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(1.0), pt(1.0, 0.0))]);
        let g = gen_with_mpoint("car", &two);
        let cont = to_records(
            MovingPoint::from_samples(&[(t(1.0), pt(1.0, 0.0)), (t(2.0), pt(1.0, 5.0))]).units(),
        );
        let g2 = g.apply_appends(2, &[("car".to_string(), cont)]).unwrap();
        let whole = MovingPoint::from_samples(&[
            (t(0.0), pt(0.0, 0.0)),
            (t(1.0), pt(1.0, 0.0)),
            (t(2.0), pt(1.0, 5.0)),
        ]);
        assert_eq!(load_units(&g2, "car"), to_records(whole.units()));
        // And the collinear continuation merges into one unit.
        let g = gen_with_mpoint("car", &two);
        let cont = to_records(
            MovingPoint::from_samples(&[(t(1.0), pt(1.0, 0.0)), (t(2.0), pt(2.0, 0.0))]).units(),
        );
        let g2 = g.apply_appends(2, &[("car".to_string(), cont)]).unwrap();
        let whole = MovingPoint::from_samples(&[
            (t(0.0), pt(0.0, 0.0)),
            (t(1.0), pt(1.0, 0.0)),
            (t(2.0), pt(2.0, 0.0)),
        ]);
        assert_eq!(load_units(&g2, "car"), to_records(whole.units()));
    }

    #[test]
    fn gaps_concat_and_overlaps_fail() {
        let two = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(1.0), pt(1.0, 0.0))]);
        let g = gen_with_mpoint("car", &two);
        // Gap: batch starts after the stored end — concatenates.
        let later = to_records(
            MovingPoint::from_samples(&[(t(5.0), pt(0.0, 0.0)), (t(6.0), pt(1.0, 0.0))]).units(),
        );
        let g2 = g.apply_appends(2, &[("car".to_string(), later)]).unwrap();
        assert_eq!(load_units(&g2, "car").len(), 2);
        // The result is still a valid mapping.
        let v = g2.open_mpoint("car", Verify::Full).unwrap();
        assert_eq!(v.materialize_validated().unwrap().num_units(), 2);
        // Overlap: batch starts strictly inside the stored tail — error.
        let overlap = to_records(
            MovingPoint::from_samples(&[(t(0.5), pt(0.0, 0.0)), (t(2.0), pt(1.0, 0.0))]).units(),
        );
        assert!(g.apply_appends(2, &[("car".to_string(), overlap)]).is_err());
        // Kind mismatch: appending to a non-mpoint root is an error.
        let mut file = StoreFile::new();
        let p = crate::line_store::save_points(&mob_spatial::Points::empty(), file.store_mut());
        file.put("pts", RootRecord::Points(p));
        let g = Generation::from_store_file(1, file, Vec::new());
        let batch = to_records(MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0))]).units());
        assert!(g.apply_appends(2, &[("pts".to_string(), batch)]).is_err());
    }

    #[test]
    fn a_root_named_twice_in_one_batch_continues_its_first_append() {
        // Long enough for external placement, so the first append's
        // array lives only in the successor's page store.
        let samples: Vec<_> = (0..40)
            .map(|i| (t(f64::from(i)), pt(f64::from(i), f64::from(i % 5))))
            .collect();
        let (head, tail) = samples.split_at(20);
        let g = gen_with_mpoint("car", &MovingPoint::from_samples(head));
        let first = to_records(MovingPoint::from_samples(&samples[19..30]).units());
        let second = to_records(MovingPoint::from_samples(&tail[9..]).units());
        let next = g
            .apply_appends(
                2,
                &[("car".to_string(), first), ("car".to_string(), second)],
            )
            .unwrap();
        let whole = MovingPoint::from_samples(&samples);
        assert_eq!(load_units(&next, "car"), to_records(whole.units()));
        let names: Vec<&str> = next.tail().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["car"]);
    }

    #[test]
    fn a_refused_in_place_batch_leaves_the_generation_unchanged() {
        // A zig-zag, so no units merge and the array is stored external.
        let long: Vec<_> = (0..20)
            .map(|i| (t(f64::from(i)), pt(f64::from(i), f64::from(i % 2))))
            .collect();
        let mut g = gen_with_mpoint("car", &MovingPoint::from_samples(&long));
        let before = (g.entries().to_vec(), g.store().num_blobs());
        assert!(before.1 > 0);
        // The first batch applies (and writes an array) before the
        // second one overlaps it.
        let ok = to_records(
            MovingPoint::from_samples(&[(t(19.0), pt(19.0, 1.0)), (t(25.0), pt(0.0, 5.0))]).units(),
        );
        let overlap = to_records(
            MovingPoint::from_samples(&[(t(21.0), pt(1.0, 1.0)), (t(30.0), pt(2.0, 2.0))]).units(),
        );
        let batch = [
            ("car".to_string(), ok.clone()),
            ("bus".to_string(), ok),
            ("car".to_string(), overlap),
        ];
        assert!(g.append_in_place(2, &batch).is_err());
        assert_eq!((g.entries().to_vec(), g.store().num_blobs()), before);
        assert!(g.tail().is_empty() && g.get("bus").is_none());
        assert_eq!(g.number(), 1);
    }

    fn cube(r: &UPointRecord) -> Cube {
        mob_core::UPoint::new(r.interval, r.motion).bounding_cube()
    }

    #[test]
    fn record_cubes_match_unit_cubes_and_never_panic() {
        for r in to_records(
            MovingPoint::from_samples(&[
                (t(-2.0), pt(0.5, -3.0)),
                (t(1.0), pt(4.0, 2.0)),
                (t(7.0), pt(-1.0, 2.5)),
            ])
            .units(),
        ) {
            assert_eq!(record_cube(&r), cube(&r));
        }
        // x(0) = 0 + inf * 0 is NaN: the cube widens to the whole plane.
        let inf = mob_core::PointMotion::new(
            Real::ZERO,
            Real::new(f64::INFINITY),
            Real::ZERO,
            Real::ZERO,
        );
        let r = UPointRecord {
            interval: TimeInterval::closed(t(0.0), t(1.0)),
            motion: inf,
        };
        let c = record_cube(&r);
        assert!(c.rect.contains_point(pt(1e300, -1e300)));
        assert_eq!((c.t_min, c.t_max), (t(0.0), t(1.0)));
    }

    /// After appending `batches` to a root holding `base`, the root's
    /// tail cube contains every appended record's cube, and every unit
    /// the root holds is covered by the tail cube alone or by a base
    /// unit of the same motion united with it — the cover the planner
    /// relies on (a base tree entry plus the tail tree entry).
    fn assert_tail_covers(base: &[UPointRecord], batches: &[Vec<UPointRecord>]) {
        let mut file = StoreFile::new();
        let units = save_array(base, file.store_mut());
        let num_units = u32::try_from(base.len()).unwrap();
        file.put(
            "car",
            RootRecord::MPoint(StoredMapping { num_units, units }),
        );
        let g = Generation::from_store_file(1, file, Vec::new());
        assert!(g.tail().is_empty(), "a full snapshot has an empty tail");
        let appends: Vec<_> = batches
            .iter()
            .map(|b| ("car".to_string(), b.clone()))
            .collect();
        let next = g.apply_appends(2, &appends).unwrap();
        let tail = *next
            .tail_cube("car")
            .expect("appended root has a tail cube");
        for r in batches.iter().flatten() {
            assert!(tail.contains(&cube(r)), "appended {r:?} outside {tail:?}");
        }
        for u in load_units(&next, "car") {
            let c = cube(&u);
            let covered = tail.contains(&c)
                || base
                    .iter()
                    .any(|b| b.motion == u.motion && cube(b).union(&tail).contains(&c));
            assert!(covered, "unit {u:?} escapes the base cubes and the tail");
        }
    }

    #[test]
    fn tail_cubes_cover_appended_units_across_every_seam() {
        let recs = |s: &[(f64, f64, f64)]| {
            let samples: Vec<_> = s.iter().map(|&(ti, x, y)| (t(ti), pt(x, y))).collect();
            to_records(MovingPoint::from_samples(&samples).units())
        };
        let two = recs(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        // Point-tail replacement.
        assert_tail_covers(
            &recs(&[(0.0, 0.0, 0.0)]),
            &[recs(&[(0.0, 0.0, 0.0), (1.0, 3.0, 2.0)])],
        );
        // Right-closed trim, then a second batch in the same commit.
        assert_tail_covers(
            &two,
            &[
                recs(&[(1.0, 1.0, 0.0), (2.0, 1.0, 5.0)]),
                recs(&[(2.0, 1.0, 5.0), (3.0, -4.0, 5.0)]),
            ],
        );
        // ι-merge: the continuation has the stored tail's motion.
        assert_tail_covers(&two, &[recs(&[(1.0, 1.0, 0.0), (2.0, 2.0, 0.0)])]);
        // Gap.
        assert_tail_covers(&two, &[recs(&[(5.0, 9.0, 9.0), (6.0, 8.0, 7.0)])]);
    }

    #[test]
    fn tails_grow_per_commit_and_compaction_empties_them() {
        let batch = |t0: f64, x: f64| {
            to_records(
                MovingPoint::from_samples(&[(t(t0), pt(x, 0.0)), (t(t0 + 1.0), pt(x, 1.0))])
                    .units(),
            )
        };
        let road = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(5.0), pt(5.0, 0.0))]);
        let base = gen_with_mpoint("road", &road);
        assert_eq!(base.snapshot_roots(), 1);
        let g1 = base
            .apply_appends(2, &[("car".into(), batch(0.0, 3.0))])
            .unwrap();
        let g2 = g1
            .apply_appends(
                3,
                &[
                    ("car".into(), batch(4.0, -2.0)),
                    ("road".into(), batch(7.0, 9.0)),
                ],
            )
            .unwrap();
        // Created roots sit past the snapshot's entries.
        assert_eq!(g2.snapshot_roots(), 1);
        assert_eq!(g2.entries()[1].0, "car");
        let car = |t0: f64, t1: f64, x0: f64, x1: f64| Cube {
            rect: mob_spatial::Rect::of_points([pt(x0, 0.0), pt(x1, 1.0)]),
            t_min: t(t0),
            t_max: t(t1),
        };
        assert_eq!(g1.tail(), [("car".to_string(), car(0.0, 1.0, 3.0, 3.0))]);
        assert_eq!(
            g2.tail(),
            [
                ("car".to_string(), car(0.0, 5.0, -2.0, 3.0)),
                ("road".to_string(), car(7.0, 8.0, 9.0, 9.0)),
            ]
        );
        // The pinned predecessor keeps its own tail.
        assert_eq!(g1.tail().len(), 1);
        // A compaction is a full snapshot: empty tail, every root in it.
        let compacted =
            Generation::from_store_file(4, g2.rebuild_store_file().unwrap(), Vec::new());
        assert!(compacted.tail().is_empty());
        assert_eq!(compacted.snapshot_roots(), compacted.entries().len());
    }

    #[test]
    fn splice_matches_mapping_invariants() {
        // A spliced sequence always passes Mapping::try_new.
        let units = MovingPoint::from_samples(&[
            (t(0.0), pt(0.0, 0.0)),
            (t(1.0), pt(1.0, 0.0)),
            (t(2.0), pt(1.0, 4.0)),
        ]);
        let recs = to_records(units.units());
        let spliced = splice_units(recs.clone()).unwrap();
        assert_eq!(spliced, recs); // canonical input is a fixed point
        let back: Vec<mob_core::UPoint> = spliced
            .iter()
            .map(|r| mob_core::UPoint::new(r.interval, r.motion))
            .collect();
        assert!(Mapping::try_new(back).is_ok());
        // Unsorted input is rejected.
        let mut rev = recs.clone();
        rev.reverse();
        assert!(splice_units(rev).is_err());
    }

    #[test]
    fn rebuild_drops_superseded_blobs() {
        // Force external placement with a long trajectory, then append
        // repeatedly: the forked stores accumulate superseded unit
        // arrays, and the rebuild folds them away.
        let samples: Vec<_> = (0..200)
            .map(|i| (t(f64::from(i)), pt(f64::from(i), f64::from(i % 7))))
            .collect();
        let m = MovingPoint::from_samples(&samples);
        let mut g = gen_with_mpoint("car", &m);
        for k in 0..5 {
            let t0 = 200.0 + 10.0 * f64::from(k);
            let batch = to_records(
                MovingPoint::from_samples(&[(t(t0), pt(0.0, 0.0)), (t(t0 + 1.0), pt(1.0, 0.0))])
                    .units(),
            );
            g = g
                .apply_appends(g.number() + 1, &[("car".to_string(), batch)])
                .unwrap();
        }
        let grown = g.store().num_blobs();
        let rebuilt = g.rebuild_store_file().unwrap();
        assert!(rebuilt.store().num_blobs() < grown);
        // Round-trip through bytes and compare the mapping.
        let bytes = rebuilt.to_bytes().unwrap();
        let reopened = StoreFile::from_bytes(&bytes).unwrap();
        let fresh = Generation::from_store_file(g.number(), reopened, Vec::new());
        assert_eq!(load_units(&fresh, "car"), load_units(&g, "car"));
    }
}
