//! Immutable generations: the MVCC read side of the durable store.
//!
//! A [`Generation`] is a frozen, shareable snapshot of one committed
//! store state: a page store behind an `Arc`, the root catalog, and the
//! bookkeeping the query layer needs (which roots changed since the
//! last full snapshot, which blobs are quarantined). Readers pin a
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
use mob_base::{DecodeError, DecodeResult, TimeInterval};
use std::cmp::Ordering;
use std::sync::Arc;

/// One committed, immutable store state (see the module docs).
#[derive(Clone)]
pub struct Generation {
    number: u64,
    store: Arc<PageStore>,
    catalog: Catalog,
    /// Root names whose mappings changed after the last full snapshot
    /// (sorted, deduplicated). Any stored index predates these changes,
    /// so the planner must route stale roots through the exhaustive
    /// `always` list instead of trusting index pruning.
    stale: Vec<String>,
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
            stale: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    /// Freeze a decoded snapshot file as a generation. A full snapshot
    /// has no stale roots by construction — every index in it was
    /// written against the same catalog.
    #[must_use]
    pub fn from_store_file(number: u64, file: StoreFile, quarantined: Vec<usize>) -> Generation {
        let (store, catalog) = file.into_parts();
        Generation {
            number,
            store: Arc::new(store),
            catalog,
            stale: Vec::new(),
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

    /// Root names modified since the last full snapshot (sorted).
    #[must_use]
    pub fn stale(&self) -> &[String] {
        &self.stale
    }

    /// Whether `name` changed since the last full snapshot (and must
    /// bypass any stored index).
    #[must_use]
    pub fn is_stale(&self, name: &str) -> bool {
        self.stale
            .binary_search_by(|s| s.as_str().cmp(name))
            .is_ok()
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

    /// Re-materialize this generation as a serializable [`StoreFile`]
    /// (pages forked, catalog cloned). Cheap: blob pages are shared.
    #[must_use]
    pub fn to_store_file(&self) -> StoreFile {
        StoreFile::from_parts(self.store.fork(), self.catalog.clone())
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
            // A stored index built before this generation's appends no
            // longer covers every unit, and the compacted snapshot
            // starts with an empty stale list — carrying the old index
            // over would let later opens attach it as fully trusted and
            // silently prune appended data. Drop it; the maintenance
            // rebuild step re-derives a fresh one.
            if matches!(root, RootRecord::Index(_)) && !self.stale.is_empty() {
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
        let mut fresh_stale: Vec<String> = replaced
            .iter()
            .filter_map(|(slot, _)| self.catalog.entries().get(*slot))
            .map(|(name, _)| name)
            .chain(created.entries().iter().map(|(name, _)| name))
            .filter(|name| self.stale.binary_search(name).is_err())
            .cloned()
            .collect();
        if !fresh_stale.is_empty() {
            fresh_stale.sort();
            fresh_stale.dedup();
            // Two sorted runs: the stable sort merges them in one pass.
            self.stale.append(&mut fresh_stale);
            self.stale.sort();
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
        assert!(g.is_stale("car"));
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
        // The successor sees both, and only the new root is stale.
        assert_eq!(load_units(&next, "road"), before);
        assert_eq!(load_units(&next, "car"), batch);
        assert!(next.is_stale("car") && !next.is_stale("road"));
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
        assert_eq!(next.stale(), ["car".to_string()]);
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
        assert!(g.stale().is_empty() && g.get("bus").is_none());
        assert_eq!(g.number(), 1);
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
