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
//! The write side never mutates a generation a reader can see. Appends
//! go through one routine, a `Replay` session over a chain of deltas:
//! recovery opens one on the recovered generation in place (nothing can
//! pin it yet) and feeds it every delta of the chain; a commit
//! ([`Generation::apply_appends`]) opens one on a copy (catalog copied,
//! page store forked: blob buffers are shared behind `Arc`s — see
//! [`PageStore::fork`]) and feeds it a chain of one, which is how
//! commits leave pinned readers alone.
//!
//! A replay finds each batch's root with a finger search of the
//! catalog's name index ([`Catalog::slot_from`]: batches arrive in name
//! order, so each lookup gallops forward from the previous hit). The
//! first touch of a stored root in the chain runs, through
//! [`view::open_mpoint`], the check `mob-rel`'s `Relation::open`
//! applies to the same root: [`Verify::Full`] on an unmarked root
//! (every record read, intervals sorted and pairwise disjoint, plus the
//! deep validate pass in debug builds), [`Verify::Preverified`] (the
//! layout checks only) on a marked one (below). An array
//! `Relation::open` would refuse is refused here too, with the same
//! error. After that every root is held the same way: a count of stored
//! records kept verbatim, never decoded, plus the decoded units after
//! them. Every batch is resolved and checked at the seam only; a seam
//! step decodes a stored record when it reaches it: the last one, and
//! the one below a point tail the seam pops. A stored array is
//! therefore kept byte for byte, and a commit decodes O(records), not
//! O(array).
//!
//! `Replay::finish` writes each touched root once — its kept records
//! copied from its stored array as bytes, then its decoded units
//! encoded, into one buffer the size of the new array — merges the
//! appended cubes into the tail once, and joins new roots to the
//! catalog in first-touch order. The tail is kept by catalog slot (a
//! created root's is the slot the catalog appends it at), so a reader
//! finds a root's tail cube in O(1) from its slot
//! ([`Generation::tail_cube_at`]). A replayed chain of k deltas over a
//! root therefore writes its array once, not k times, and leaves no
//! superseded copies in the page store.
//!
//! A delta applies whole or not at all. While a delta is applied, an
//! undo log keeps, per root an earlier delta touched, the units the
//! delta changed (mutation happens only at the end of the array, so
//! that is a short suffix) and the previous cube; a failing batch
//! restores them and drops the roots the delta touched first. The
//! deltas applied before it stay. The log counts positions from the
//! front of the whole array, kept records included, so decoding one
//! more stored record mid-delta leaves it exact.
//!
//! # What a generation has already checked
//!
//! A generation also records what this process has checked about it,
//! so that reading what it just wrote does not check it again:
//!
//! * **A check mark per catalog slot.** `Replay::finish` marks every
//!   root it writes. Such an array is records kept verbatim from a
//!   stored array that passed [`Verify::Full`] in this process, or was
//!   itself marked, followed by records written after a seam check and
//!   `push_unit` each: every record reads cleanly and the intervals are
//!   sorted and pairwise disjoint. A delta commit clones its
//!   predecessor, so marks pass down a chain of commits. Any
//!   generation built another way has no marks: a snapshot read from
//!   disk, a full commit, a compaction, an index rebuild and the base
//!   recovery replays onto ([`Generation::from_store_file`]). A marked
//!   root opens through [`Generation::checked_mpoint`] with the layout
//!   checks only ([`Verify::Preverified`]), and a replay that touches it
//!   again decodes and checks only what its seam reaches.
//! * **The attached index trees.** [`Generation::index_tree`] attaches
//!   an index root on first use — nodes decoded and validated, leaf
//!   entries searched where they lie in the page store's buffer and
//!   checked leaf by leaf on first read — and keeps the tree behind an
//!   `Arc`. A delta commit cannot change an index root (a replay
//!   refuses any target that is not an mpoint), so the clone hands the
//!   tree on, with the leaf checks it has recorded. A generation built
//!   from a store file starts with none, and a failed attach is never
//!   kept: a damaged index is refused on every call.
//!
//! Everything here sits on the untrusted-decode path (delta replay runs
//! it on whatever survived a crash), so all validation returns
//! [`DecodeError`]s: no indexing, no unwraps, no panicking interval
//! constructors.

use crate::catalog::{Catalog, Finger};
use crate::dbarray::{read_array_bytes, save_array, save_array_bytes, Placement, SavedArray};
use crate::index_store::attach_index;
use crate::mapping_store::{StoredMapping, UPointRecord};
use crate::page::PageStore;
use crate::record::FixedRecord;
use crate::store_file::{RootRecord, StoreFile};
use crate::view::{self, MappingView, Verify};
use mob_base::{DecodeError, DecodeResult, Instant, Real, TimeInterval};
use mob_core::RTree;
use mob_spatial::{Cube, Point, Rect};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

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
    /// The *tail*, by catalog slot: for a root whose mapping changed
    /// after the last full snapshot, the union cube of every unit record
    /// appended to it since (see [`Generation::tail`]). Slots past the
    /// end have no cube, and the vector stays empty until a replay
    /// appends one. A later entry of a name the catalog holds twice
    /// carries its first entry's cube, as a lookup by name finds it.
    tail: Vec<Option<Cube>>,
    /// Blob indices quarantined when the snapshot was decoded degraded.
    quarantined: Vec<usize>,
    /// Per catalog slot, whether this process wrote the slot's root from
    /// checked units (see the module docs). Slots past the end are
    /// unmarked.
    checked: Vec<bool>,
    /// Trees decoded from index roots, by catalog slot.
    trees: Trees,
}

/// The trees a generation decoded from its index roots, by catalog slot.
/// A clone copies the handles, so a delta commit hands them on.
#[derive(Default)]
struct Trees(Mutex<Vec<(usize, Arc<RTree>)>>);

impl Trees {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(usize, Arc<RTree>)>> {
        // A poisoned lock still holds whole entries: a push is the only
        // write.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for Trees {
    fn clone(&self) -> Trees {
        Trees(Mutex::new(self.lock().clone()))
    }
}

/// A generation's word that it wrote the `moving(point)` root in one of
/// its catalog slots from units this process had checked (see the
/// module docs). Only [`Generation::checked_mpoint`] hands one out, so
/// a holder may open the root with [`Verify::Preverified`].
#[derive(Clone, Copy)]
pub struct CheckedMPoint<'g> {
    stored: &'g StoredMapping,
    store: &'g Arc<PageStore>,
}

impl<'g> CheckedMPoint<'g> {
    /// The root record.
    #[must_use]
    pub fn stored(&self) -> &'g StoredMapping {
        self.stored
    }

    /// The page store holding the root's unit array.
    #[must_use]
    pub fn store(&self) -> &'g Arc<PageStore> {
        self.store
    }

    /// A lazy view over the root's units, with the `O(1)` layout checks
    /// only: the generation checked the units when it wrote them.
    pub fn open(&self) -> DecodeResult<MappingView<'g, UPointRecord>> {
        view::open_mpoint(self.stored, self.store, Verify::Preverified)
    }
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
            checked: Vec::new(),
            trees: Trees::default(),
        }
    }

    /// Freeze a decoded snapshot file as a generation. A full snapshot
    /// has an empty tail by construction — every index in it was
    /// written against the same catalog. Nothing in it is marked checked
    /// and no index tree is decoded yet: the file's bytes are untrusted.
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
            checked: Vec::new(),
            trees: Trees::default(),
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

    /// The root catalog with its name index.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Catalog entries the last full snapshot held: [`Generation::entries`]
    /// past this position are roots created by deltas since.
    #[must_use]
    pub fn snapshot_roots(&self) -> usize {
        self.snapshot_roots
    }

    /// The tail: every root modified since the last full snapshot,
    /// sorted by name, with the union cube of the unit records appended
    /// to it since. Any stored index predates these appends. A view
    /// built from the per-slot cubes ([`Generation::tail_cube_at`]).
    ///
    /// The cubes a snapshot-time index holds for a root, plus its tail
    /// cube, cover every unit the root holds now: seam resolution only
    /// trims or drops a stored tail unit, and ι-merging fuses a stored
    /// unit with an appended one, whose cubes are both covered. For a
    /// root created since the snapshot the tail cube covers it whole.
    #[must_use]
    pub fn tail(&self) -> Vec<(String, Cube)> {
        let mut tail: Vec<(String, Cube)> = (self.catalog.entries().iter().zip(&self.tail))
            .filter_map(|((name, _), cube)| Some((name.clone(), (*cube)?)))
            .collect();
        // Equal names sort by slot: keep the first entry's cube.
        tail.sort_by(|a, b| a.0.cmp(&b.0));
        tail.dedup_by(|later, first| later.0 == first.0);
        tail
    }

    /// The tail cube of `name`, or `None` when the root has not changed
    /// since the last full snapshot. O(log n) in the catalog's length.
    #[must_use]
    pub fn tail_cube(&self, name: &str) -> Option<&Cube> {
        self.tail_cube_at(self.catalog.slot(name)?)
    }

    /// The tail cube of the root at catalog `slot`, or `None` when it
    /// has not changed since the last full snapshot. O(1). A later entry
    /// of a name the catalog holds twice answers as
    /// [`Generation::tail_cube`] of the name does.
    #[must_use]
    pub fn tail_cube_at(&self, slot: usize) -> Option<&Cube> {
        self.tail.get(slot)?.as_ref()
    }

    /// Blob indices quarantined at decode time (degraded opens).
    #[must_use]
    pub fn quarantined(&self) -> &[usize] {
        &self.quarantined
    }

    /// Open a lazy view over the `moving(point)` root `name`. A missing
    /// name or a root of another kind is a [`DecodeError::BadStructure`];
    /// `verify` chooses between the full `O(n)` structural scan and the
    /// `O(1)` layout checks.
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

    /// The `moving(point)` root at catalog `slot`, when this generation
    /// wrote it from units this process had checked; `None` for every
    /// other slot, which must be opened with [`Verify::Full`].
    #[must_use]
    pub fn checked_mpoint(&self, slot: usize) -> Option<CheckedMPoint<'_>> {
        if !self.checked.get(slot).copied().unwrap_or(false) {
            return None;
        }
        match self.catalog.root_at(slot)? {
            RootRecord::MPoint(stored) => Some(CheckedMPoint {
                stored,
                store: &self.store,
            }),
            _ => None,
        }
    }

    /// The tree of the index root `name`, attached ([`attach_index`]) the
    /// first time it is asked for and shared after that: its nodes
    /// decoded and validated, its leaf entries left in the page store's
    /// buffer and checked leaf by leaf as searches first read them. An
    /// attach that fails is returned and not kept, so a damaged index
    /// fails every call.
    ///
    /// # Errors
    ///
    /// No root named `name`, a root of another kind, or the load's error.
    pub fn index_tree(&self, name: &str) -> DecodeResult<Arc<RTree>> {
        let missing = |detail: String| DecodeError::BadStructure {
            what: "generation catalog",
            detail,
        };
        let slot = self
            .catalog
            .slot(name)
            .ok_or_else(|| missing(format!("no entry named {name:?}")))?;
        let stored = match self.catalog.root_at(slot) {
            Some(RootRecord::Index(stored)) => stored,
            Some(other) => {
                return Err(missing(format!(
                    "entry {name:?} is a {}, not an index",
                    other.kind_name()
                )))
            }
            None => return Err(missing(format!("no entry named {name:?}"))),
        };
        let kept = |trees: &[(usize, Arc<RTree>)]| {
            trees
                .iter()
                .find(|(s, _)| *s == slot)
                .map(|(_, tree)| Arc::clone(tree))
        };
        if let Some(tree) = kept(&self.trees.lock()) {
            return Ok(tree);
        }
        // Loaded outside the lock; a racing load that finished first
        // wins, so every caller shares one tree.
        let tree = Arc::new(attach_index(stored, &self.store)?);
        let mut trees = self.trees.lock();
        if let Some(first) = kept(&trees) {
            return Ok(first);
        }
        trees.push((slot, Arc::clone(&tree)));
        Ok(tree)
    }

    /// Re-materialize this generation as a serializable full image
    /// (pages forked, catalog cloned). Cheap: blob buffers are shared.
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
    /// current catalog references are carried over), so a long append
    /// history folds back down to the size of the live data. A carried
    /// blob shares its buffer with this generation's store
    /// ([`PageStore::share_blob`]): the two hold one copy of the live
    /// bytes (a blob decoded from an image is a range of its payload,
    /// which stays allocated while any of its blobs is live).
    /// Quarantined blobs cannot be carried and fail the rewrite: a
    /// degraded store must be repaired (roots dropped or restored)
    /// before compaction.
    pub fn rebuild_store_file(&self) -> DecodeResult<StoreFile> {
        let mut dst = PageStore::with_page_size(self.store.page_size())?;
        let mut entries = Vec::with_capacity(self.catalog.len());
        for (name, root) in self.catalog.entries() {
            if !self.image_carries(root) {
                continue;
            }
            let mut root = root.clone();
            for array in root.arrays_mut() {
                if let Placement::External(id) = &mut array.placement {
                    *id = dst.share_blob(&self.store, *id)?;
                }
            }
            entries.push((name.clone(), root));
        }
        Ok(StoreFile::from_parts(dst, Catalog::from_entries(entries)))
    }

    /// Build the successor generation by appending units to `moving(point)`
    /// roots. `appends` holds per-root unit batches in commit order; an
    /// unknown root name creates a new mapping, a known one must be an
    /// mpoint and the batch must continue it (see [`splice_units`] and
    /// the seam rules below). Untouched roots share their buffers with
    /// `self` via [`PageStore::fork`]; the successor's catalog is a copy
    /// of this one. This is a `Replay` of a chain of one delta: a touched
    /// root first gets the check its mark selects ([`Verify::Full`]
    /// unless this generation marked it), then is extended at its seam,
    /// its stored records kept byte for byte.
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
        let mut replay = next.replay();
        replay.apply_delta(number, appends)?;
        replay.finish()?;
        Ok(next)
    }

    /// Start replaying a delta chain onto this generation in place (see
    /// [`Replay`]). Nothing changes until [`Replay::finish`].
    pub(crate) fn replay(&mut self) -> Replay<'_> {
        Replay {
            head: self,
            number: None,
            roots: Vec::new(),
            by_slot: Vec::new(),
            created: BTreeMap::new(),
            deltas: 0,
            dirty: Vec::new(),
        }
    }
}

/// A delta chain being replayed onto one [`Generation`] (see the module
/// docs). Each root the chain touches is taken in once, at its first
/// touch, behind the check its mark selects, and held as the stored
/// records it keeps verbatim, the decoded units after them and the
/// union cube of what the chain appended to it; every batch for it is
/// checked and spliced at the seam only. [`Replay::finish`] writes each
/// touched root once and merges the cubes into the tail once.
///
/// A delta is applied whole or not at all: [`Replay::apply_delta`]
/// undoes a failed delta's changes and keeps the deltas applied before
/// it.
#[must_use = "a replay changes its generation only at `finish`"]
pub(crate) struct Replay<'g> {
    head: &'g mut Generation,
    /// Number of the last delta applied; `None` before the first.
    number: Option<u64>,
    /// Every root the chain touched, in first-touch order.
    roots: Vec<Touched>,
    /// Per catalog slot, one past the position of its root in `roots`;
    /// 0 while untouched. Sized at the first touch of a cataloged root.
    by_slot: Vec<usize>,
    /// Roots the chain creates, by name: their positions in `roots`.
    created: BTreeMap<String, usize>,
    /// Deltas begun so far; names the one being applied.
    deltas: u64,
    /// Positions in `roots` of the roots the delta being applied has
    /// changed that an earlier delta touched: its undo log.
    dirty: Vec<usize>,
}

/// One root a [`Replay`] touched. Its units are the first `base`
/// records of its stored array, kept as bytes, followed by `units`.
struct Touched {
    name: String,
    /// Catalog slot; `None` for a root the chain creates.
    slot: Option<usize>,
    /// Records at the front of the stored array kept verbatim: never
    /// decoded, copied as bytes at `finish`. The whole stored array at
    /// first touch; 0 for a root the chain creates.
    base: usize,
    /// The root's units from position `base` on: with the `base`
    /// records, sorted and pairwise disjoint after every applied batch.
    units: Vec<UPointRecord>,
    /// `base + units.len()`, checked to fit the record's `u32`.
    num_units: u32,
    /// Union cube of the records the chain appended.
    cube: Option<Cube>,
    /// The delta that last touched the root.
    delta: u64,
    /// Undo state for that delta, in positions counted from the front
    /// of the whole array (`base` included): the first `keep` units are
    /// as they were before it, `saved` holds the ones it changed from
    /// `keep` on (last first), `prior` the cube.
    keep: usize,
    saved: Vec<UPointRecord>,
    prior: Option<Cube>,
}

impl Touched {
    /// Number of units, the `base` records included.
    fn len(&self) -> usize {
        self.base + self.units.len()
    }

    /// The stored array the `base` records are kept from.
    fn stored<'c>(&self, catalog: &'c Catalog) -> DecodeResult<&'c SavedArray> {
        match self.slot.and_then(|s| catalog.root_at(s)) {
            Some(RootRecord::MPoint(stored)) => Ok(&stored.units),
            _ => Err(DecodeError::BadStructure {
                what: "delta apply",
                detail: format!("replay lost the stored array of {:?}", self.name),
            }),
        }
    }

    /// Decode the stored record just below `units` when `units` is
    /// empty: a seam step is about to compare, trim, pop or ι-merge the
    /// last unit. The root's units do not change, so the undo state,
    /// kept in whole-array positions, stays exact.
    fn refill(&mut self, head: &Generation) -> DecodeResult<()> {
        if !self.units.is_empty() || self.base == 0 {
            return Ok(());
        }
        let below = self.base - 1;
        let record = UPointRecord::read(read_array_bytes(
            self.stored(&head.catalog)?,
            &head.store,
            below * UPointRecord::SIZE,
            UPointRecord::SIZE,
        )?)?;
        self.units.push(record);
        self.base = below;
        Ok(())
    }

    /// Save the last unit before it changes, unless the delta being
    /// applied already changed or pushed it.
    fn guard(&mut self) {
        let len = self.len();
        if let Some(&last) = self.units.last() {
            if len <= self.keep {
                self.saved.push(last);
                self.keep = len - 1;
            }
        }
    }

    /// Undo the delta that last touched the root.
    fn undo(&mut self) {
        // `keep` never falls below `base`: it is at least the length
        // when the delta began or a position `units` held, and a refill
        // only lowers `base`.
        self.units.truncate(self.keep.saturating_sub(self.base));
        self.units.extend(self.saved.iter().rev());
        self.num_units = u32::try_from(self.len()).unwrap_or(u32::MAX);
        self.cube = self.prior;
    }
}

impl Replay<'_> {
    /// Apply one delta's batches, in order, as generation `number`: the
    /// rules of [`Generation::apply_appends`]. A failing batch undoes
    /// every change this delta made and leaves the replay as it was
    /// after the previous delta.
    pub(crate) fn apply_delta(
        &mut self,
        number: u64,
        appends: &[(String, Vec<UPointRecord>)],
    ) -> DecodeResult<()> {
        self.deltas += 1;
        self.dirty.clear();
        let mark = self.roots.len();
        let mut finger = Finger::default();
        for (name, records) in appends {
            if records.is_empty() {
                continue;
            }
            if let Err(e) = self.extend(name, records, &mut finger) {
                self.roll_back(mark);
                return Err(e);
            }
        }
        self.number = Some(number);
        Ok(())
    }

    /// Splice one non-empty batch onto its root.
    fn extend<'n>(
        &mut self,
        name: &'n str,
        records: &[UPointRecord],
        finger: &mut Finger<'n>,
    ) -> DecodeResult<()> {
        let at = self.touch(name, finger)?;
        let delta = self.deltas;
        let head = &*self.head;
        let Some(root) = self.roots.get_mut(at) else {
            return Err(DecodeError::BadStructure {
                what: "delta apply",
                detail: format!("replay lost root {name:?}"),
            });
        };
        if root.delta != delta {
            root.delta = delta;
            root.keep = root.len();
            root.saved.clear();
            root.prior = root.cube;
            self.dirty.push(at);
        }
        root.refill(head)?;
        root.guard();
        resolve_seam(&mut root.units, records, name)?;
        for &r in records {
            // A popped point tail leaves the unit below it next.
            root.refill(head)?;
            root.guard();
            push_unit(&mut root.units, r)?;
        }
        root.num_units = u32::try_from(root.len()).map_err(|_| DecodeError::BadStructure {
            what: "delta apply",
            detail: format!("mapping {name:?} exceeds u32 units"),
        })?;
        let cube = records_cube(records);
        root.cube = match (root.cube, cube) {
            (Some(a), Some(b)) => Some(a.union(&b)),
            (a, b) => a.or(b),
        };
        Ok(())
    }

    /// The position in `roots` of the root named `name`, taking in its
    /// stored array on the chain's first touch: checked as
    /// `Relation::open` checks it (in full unless the generation marked
    /// it), its records left as bytes.
    fn touch<'n>(&mut self, name: &'n str, finger: &mut Finger<'n>) -> DecodeResult<usize> {
        let catalog = &self.head.catalog;
        let Some(slot) = catalog.slot_from(name, finger) else {
            if let Some(&at) = self.created.get(name) {
                return Ok(at);
            }
            let at = self.roots.len();
            self.created.insert(name.to_string(), at);
            self.roots.push(self.fresh(name, None));
            return Ok(at);
        };
        if self.by_slot.is_empty() {
            self.by_slot = vec![0; catalog.len()];
        }
        if let Some(at) = self.by_slot.get(slot).and_then(|p| p.checked_sub(1)) {
            return Ok(at);
        }
        let mut root = self.fresh(name, Some(slot));
        match catalog.root_at(slot) {
            Some(RootRecord::MPoint(stored)) => {
                // The check `Relation::open` applies to the same root:
                // layout only when this generation vouches for it.
                let verify = match self.head.checked_mpoint(slot) {
                    Some(_) => Verify::Preverified,
                    None => Verify::Full,
                };
                view::open_mpoint(stored, &self.head.store, verify)?;
                root.base = stored.units.count;
            }
            Some(other) => {
                return Err(DecodeError::BadStructure {
                    what: "delta apply",
                    detail: format!(
                        "append target {name:?} is a {}, not an mpoint",
                        other.kind_name()
                    ),
                })
            }
            None => {}
        }
        let at = self.roots.len();
        if let Some(p) = self.by_slot.get_mut(slot) {
            *p = at + 1;
        }
        self.roots.push(root);
        Ok(at)
    }

    /// A root first touched by the delta being applied.
    fn fresh(&self, name: &str, slot: Option<usize>) -> Touched {
        Touched {
            name: name.to_string(),
            slot,
            base: 0,
            num_units: 0,
            units: Vec::new(),
            cube: None,
            delta: self.deltas,
            keep: 0,
            saved: Vec::new(),
            prior: None,
        }
    }

    /// Undo the delta being applied: drop the roots it touched first
    /// and restore the ones an earlier delta touched.
    fn roll_back(&mut self, mark: usize) {
        for root in self.roots.get(mark..).unwrap_or_default() {
            if let Some(p) = root.slot.and_then(|s| self.by_slot.get_mut(s)) {
                *p = 0;
            }
        }
        self.created.retain(|_, at| *at < mark);
        self.roots.truncate(mark);
        for &at in &self.dirty {
            if let Some(root) = self.roots.get_mut(at) {
                root.undo();
            }
        }
        self.dirty.clear();
    }

    /// Install the replayed chain: write each touched root's units once,
    /// repoint its catalog slot (new roots join the catalog in
    /// first-touch order), merge the appended cubes into the tail once
    /// and take the last applied delta's number. A replay that applied
    /// nothing leaves the generation as it was.
    ///
    /// A root that keeps stored records is written with
    /// [`save_spliced`], which copies them from the stored array as
    /// bytes; one that keeps none (a root the chain creates, or one
    /// whose every record a seam step decoded) with [`save_array`].
    ///
    /// # Errors
    ///
    /// A kept record that cannot be read, which the layout check at
    /// first touch rules out. The generation is then part-written and
    /// must be dropped.
    pub(crate) fn finish(self) -> DecodeResult<()> {
        let Replay {
            head,
            number,
            roots,
            ..
        } = self;
        let Some(number) = number else {
            return Ok(());
        };
        let Generation {
            number: head_number,
            store,
            catalog,
            tail,
            checked,
            ..
        } = head;
        *head_number = number;
        if roots.is_empty() {
            return Ok(());
        }
        if Arc::get_mut(store).is_none() {
            *store = Arc::new(store.fork());
        }
        let Some(pages) = Arc::get_mut(store) else {
            // Unreachable: the store was just unshared.
            return Ok(());
        };
        let mut created = Catalog::new();
        // Slot and appended cube of every root written here; a new root's
        // slot is where `append` puts it, after every existing entry.
        let mut cubes: Vec<(usize, Cube)> = Vec::with_capacity(roots.len());
        // Every root written here holds checked units: mark its slot.
        checked.resize(catalog.len(), false);
        for root in roots {
            let units = if root.base == 0 {
                save_array(&root.units, pages)
            } else {
                save_spliced(root.stored(catalog)?, root.base, &root.units, pages)?
            };
            let record = RootRecord::MPoint(StoredMapping {
                num_units: root.num_units,
                units,
            });
            let slot = match root.slot {
                Some(slot) => {
                    catalog.replace_root(slot, record);
                    if let Some(mark) = checked.get_mut(slot) {
                        *mark = true;
                    }
                    slot
                }
                None => {
                    created.push(root.name, record);
                    catalog.len() + created.len() - 1
                }
            };
            if let Some(cube) = root.cube {
                cubes.push((slot, cube));
            }
        }
        // New roots join the catalog in one O(n + k) index merge instead
        // of k shifts of the name index. The chain created each name
        // once, and none the catalog held, so each takes its own slot.
        catalog.append(created);
        if !cubes.is_empty() {
            tail.resize(catalog.len(), None);
            for (slot, cube) in cubes {
                if let Some(grown) = tail.get_mut(slot) {
                    *grown = Some(grown.map_or(cube, |g| g.union(&cube)));
                }
            }
            // A replay touches the first entry of a name; a later entry
            // of the same name takes its cube, as a lookup by name would.
            if catalog.has_duplicates() {
                for (slot, (name, _)) in catalog.entries().iter().enumerate() {
                    let Some(first) = catalog.slot(name).filter(|&first| first != slot) else {
                        continue;
                    };
                    let cube = tail.get(first).copied().flatten();
                    if let Some(later) = tail.get_mut(slot) {
                        *later = cube;
                    }
                }
            }
        }
        checked.resize(catalog.len(), true);
        Ok(())
    }
}

/// Save a touched root's units in one buffer of exact size: the first
/// `base` records of its `stored` array copied as bytes with one range
/// read, nothing decoded, then `suffix` encoded. The bytes and their
/// placement are those of [`save_array`] over the whole sequence.
fn save_spliced(
    stored: &SavedArray,
    base: usize,
    suffix: &[UPointRecord],
    store: &mut PageStore,
) -> DecodeResult<SavedArray> {
    let prefix = read_array_bytes(stored, store, 0, base * UPointRecord::SIZE)?;
    let mut bytes = Vec::with_capacity(prefix.len() + suffix.len() * UPointRecord::SIZE);
    bytes.extend_from_slice(prefix);
    for u in suffix {
        u.write(&mut bytes);
    }
    Ok(save_array_bytes(base + suffix.len(), bytes, store))
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
/// place; overlaps beyond the shared boundary instant are left for
/// [`push_unit`] to reject.
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
/// A replay runs one step of it, `push_unit`, per appended record;
/// the whole-sequence form is the per-delta reference its tests hold
/// the replay to.
///
/// Runs on untrusted replay input: every failure is a [`DecodeError`].
pub fn splice_units(units: Vec<UPointRecord>) -> DecodeResult<Vec<UPointRecord>> {
    let mut out: Vec<UPointRecord> = Vec::with_capacity(units.len());
    for u in units {
        push_unit(&mut out, u)?;
    }
    Ok(out)
}

/// One step of [`splice_units`]: append `u` to the canonical sequence
/// `out`, checking it against the last unit only, and ι-merge the two
/// when they are adjacent with the same motion.
fn push_unit(out: &mut Vec<UPointRecord>, u: UPointRecord) -> DecodeResult<()> {
    let Some(prev) = out.last_mut() else {
        out.push(u);
        return Ok(());
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
        return Ok(());
    }
    out.push(u);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbarray::load_array;
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
        let names: Vec<String> = next.tail().into_iter().map(|(n, _)| n).collect();
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
        let mut replay = g.replay();
        assert!(replay.apply_delta(2, &batch).is_err());
        replay.finish().unwrap();
        assert_eq!((g.entries().to_vec(), g.store().num_blobs()), before);
        assert!(g.tail().is_empty() && g.get("bus").is_none());
        assert_eq!(g.number(), 1);
    }

    #[test]
    fn a_refused_delta_keeps_the_deltas_replayed_before_it() {
        // Delta 2 leaves `car` ending in a point unit after a unit whose
        // motion delta 3's continuation shares: the continuation
        // replaces the point and ι-merges into the unit before it, two
        // units below the end. Delta 3 then fails, and the undo restores
        // both units.
        let stay = mob_core::PointMotion::new(Real::ZERO, Real::ZERO, Real::ZERO, Real::ZERO);
        let jump = mob_core::PointMotion::new(Real::new(4.0), Real::ZERO, Real::ZERO, Real::ZERO);
        let moving = UPointRecord {
            interval: TimeInterval::closed_open(t(0.0), t(1.0)),
            motion: stay,
        };
        let point = UPointRecord {
            interval: TimeInterval::point(t(1.0)),
            motion: jump,
        };
        let mut file = StoreFile::new();
        let units = save_array(&[moving], file.store_mut());
        file.put(
            "car",
            RootRecord::MPoint(StoredMapping {
                num_units: 1,
                units,
            }),
        );
        let mut g = Generation::from_store_file(1, file, Vec::new());
        let merge = vec![UPointRecord {
            interval: TimeInterval::closed_open(t(1.0), t(2.0)),
            motion: stay,
        }];
        let overlap = vec![UPointRecord {
            interval: TimeInterval::closed(t(0.5), t(3.0)),
            motion: jump,
        }];
        let bus = to_records(
            MovingPoint::from_samples(&[(t(0.0), pt(9.0, 9.0)), (t(1.0), pt(8.0, 8.0))]).units(),
        );
        let more = to_records(
            MovingPoint::from_samples(&[(t(1.0), pt(8.0, 8.0)), (t(2.0), pt(7.0, 7.0))]).units(),
        );
        let mut replay = g.replay();
        let delta = [
            ("bus".to_string(), bus.clone()),
            ("car".to_string(), vec![point]),
        ];
        replay.apply_delta(2, &delta).unwrap();
        let refused = [
            ("car".to_string(), merge),
            ("bus".to_string(), more),
            ("van".to_string(), bus.clone()),
            ("car".to_string(), overlap),
        ];
        assert!(replay.apply_delta(3, &refused).is_err());
        replay.finish().unwrap();
        assert_eq!(g.number(), 2);
        assert_eq!(load_units(&g, "car"), [moving, point]);
        assert_eq!(load_units(&g, "bus"), bus);
        assert!(g.get("van").is_none());
        let names: Vec<String> = g.tail().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["bus", "car"]);
        assert_eq!(g.tail_cube("bus"), records_cube(&bus).as_ref());
        assert_eq!(g.tail_cube("car"), Some(&record_cube(&point)));
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

    /// The bytes of a saved array, wherever they are placed.
    fn array_bytes(a: &SavedArray, store: &PageStore) -> (bool, Vec<u8>) {
        match &a.placement {
            Placement::Inline(b) => (true, b.clone()),
            Placement::External(id) => (false, store.try_read_blob(*id).unwrap()),
        }
    }

    fn stored_units<'g>(g: &'g Generation, name: &str) -> &'g SavedArray {
        match g.get(name) {
            Some(RootRecord::MPoint(sm)) => &sm.units,
            other => panic!("{name}: {other:?}"),
        }
    }

    #[test]
    fn a_refill_keeps_the_undo_log_exact() {
        // `car` is a two-page zig-zag, then `b` and a point tail `c`
        // that a continuation with `b`'s motion replaces and ι-merges
        // into `b`: the seam reaches two records below the end.
        let stay = mob_core::PointMotion::new(Real::ZERO, Real::ZERO, Real::ZERO, Real::ZERO);
        let jump = mob_core::PointMotion::new(Real::new(4.0), Real::ZERO, Real::ZERO, Real::ZERO);
        let zig: Vec<_> = (0..100)
            .map(|i| (t(f64::from(i)), pt(f64::from(i), f64::from(i % 2))))
            .collect();
        let mut units = to_records(MovingPoint::from_samples(&zig).units());
        let end = *units.last().unwrap().interval.end();
        units.last_mut().unwrap().interval = TimeInterval::closed_open(t(98.0), end);
        units.push(UPointRecord {
            interval: TimeInterval::closed_open(t(99.0), t(100.0)),
            motion: stay,
        });
        let mut file = StoreFile::new();
        let saved = save_array(&units, file.store_mut());
        assert!(saved.byte_len(file.store_mut()).unwrap() > 4096);
        let num_units = u32::try_from(units.len()).unwrap();
        file.put(
            "car",
            RootRecord::MPoint(StoredMapping {
                num_units,
                units: saved,
            }),
        );
        let c = UPointRecord {
            interval: TimeInterval::point(t(100.0)),
            motion: jump,
        };
        let g = Generation::from_store_file(1, file, Vec::new())
            .apply_appends(2, &[("car".to_string(), vec![c])])
            .unwrap();
        assert!(g.checked_mpoint(0).is_some(), "the commit marks `car`");
        let before = array_bytes(stored_units(&g, "car"), g.store());
        let merge = [UPointRecord {
            interval: TimeInterval::closed_open(t(100.0), t(101.0)),
            motion: stay,
        }];
        let mut merged = units.clone();
        merged.last_mut().unwrap().interval = TimeInterval::closed_open(t(99.0), t(101.0));

        // A replay that touched `car` in an earlier delta without
        // reaching a record, then a delta that pops `c`, refills `b` and
        // merges into it, refused afterwards: the undo restores all of
        // `car`, and `finish` writes its original bytes.
        for refuse in [false, true] {
            let mut head = g.clone();
            let mut replay = head.replay();
            replay.deltas = 1;
            let at = replay.touch("car", &mut Finger::default()).unwrap();
            replay.deltas = 2;
            let mark = replay.roots.len();
            replay
                .extend("car", &merge, &mut Finger::default())
                .unwrap();
            assert_eq!(replay.roots[at].base, units.len() - 1, "one refill below c");
            if refuse {
                replay.roll_back(mark);
            }
            replay.number = Some(3);
            replay.finish().unwrap();
            let after = array_bytes(stored_units(&head, "car"), head.store());
            if refuse {
                assert_eq!(after, before, "undo across a refill");
            } else {
                let mut fresh = PageStore::new();
                let want = save_array(&merged, &mut fresh);
                assert_eq!(after, array_bytes(&want, &fresh), "merged into b");
                assert_eq!(load_units(&head, "car"), merged);
            }
        }
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
        assert_eq!(rebuilt.store().pages_written(), 0, "live pages are shared");
        // Round-trip through bytes and compare the mapping.
        let bytes = rebuilt.to_bytes().unwrap();
        let reopened = StoreFile::from_bytes(&bytes).unwrap();
        let fresh = Generation::from_store_file(g.number(), reopened, Vec::new());
        assert_eq!(load_units(&fresh, "car"), load_units(&g, "car"));
    }
}
