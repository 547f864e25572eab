//! Run-packed index leaves: **one entry per run never changes an
//! answer, and a per-unit tree from an older store still loads.**
//!
//! A relation of long seeded taxi tracks mixed with short flights is
//! committed to a `MemIo` durable store with its index (the maintenance
//! rebuild path), the store is reopened, and the relation opened from
//! it with the stored tree. The taxis must pack into runs (at most a
//! quarter as many entries as units), and `snapshot_at`, `passes` and
//! `filter_inside` under [`IndexPolicy::Force`] must equal
//! [`IndexPolicy::Off`] on every seeded probe. Every assertion names
//! its seed.
//!
//! The compatibility case commits a tree with one entry per unit
//! ([`unit_cubes`]), the layout every store written before run packing
//! holds, and checks that it attaches without a fallback, answers
//! exactly like a run-packed rebuild, and that `rebuild_index_root`
//! over it writes the run-packed tree.
//!
//! The same holds for **real old bytes** of the `f64` leaf layout (root
//! tag 11): `index_tag11.mob` is a store file written by `save_index`
//! before leaf entries became 16-bit codes in the tree's frame — six
//! taxi tracks of eight units (`taxi_fleet(11, 6, 8)`) under
//! `taxi/0..5` plus the tree `rebuild_index_root` built over them. It
//! must attach with no fallback, answer like a freshly built compact
//! tree on seeded probes across its frame, and be rewritten compactly
//! by the next rebuild.

use mob_base::{t, Instant, Interval};
use mob_core::{unit_cubes, RTree, UnitSeq};
use mob_gen::{plane_fleet, taxi_fleet};
use mob_rel::{rebuild_index_root, IndexPolicy, OpenRelOpts, Relation, ScanOpts};
use mob_spatial::{rect_ring, Cube, Region};
use mob_storage::index_store::save_index;
use mob_storage::mapping_store::save_mpoint;
use mob_storage::{DurableStore, Generation, MemIo, RootRecord, StoreFile};
use std::sync::Arc;

const SEEDS: u64 = 4;
const PROBES: usize = 25;
const TAXIS: usize = 12;
const TAXI_UNITS: usize = 1024;
const FLIGHTS: usize = 150;
const INDEX: &str = "fleet/index";
const TAG11: &[u8] = include_bytes!("../../storage/tests/fixtures/index_tag11.mob");

/// splitmix64: a seed alone replays a case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

/// Commit the seed's taxis and flights as `moving(point)` roots of one
/// snapshot in a fresh store; returns the store's directory.
fn committed_fleet(seed: u64) -> MemIo {
    let mut file = StoreFile::new();
    for (k, m) in taxi_fleet(seed, TAXIS, TAXI_UNITS).iter().enumerate() {
        let stored = save_mpoint(m, file.store_mut());
        file.put(format!("taxi/{k:02}"), RootRecord::MPoint(stored));
    }
    for plane in plane_fleet(seed, FLIGHTS, 12) {
        let stored = save_mpoint(&plane.flight, file.store_mut());
        file.put(format!("flight/{}", plane.id), RootRecord::MPoint(stored));
    }
    let dir = MemIo::new();
    let mut store = DurableStore::options()
        .open(dir.clone())
        .expect("fresh dir");
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage fleet");
    txn.commit().expect("commit fleet");
    dir
}

/// Commit `file` as the next full snapshot of the store in `dir`.
fn commit_file(dir: &MemIo, file: &StoreFile) {
    let mut store = DurableStore::options().open(dir.clone()).expect("reopen");
    let mut txn = store.begin();
    txn.put_store_file(file).expect("stage");
    txn.commit().expect("commit");
}

/// The head generation of a freshly reopened (recovered) store.
fn reopen(dir: &MemIo) -> Arc<Generation> {
    let store = DurableStore::options().open(dir.clone()).expect("reopen");
    store.snapshot().expect("head")
}

/// Commit the index `rebuild_index_root` builds: the run-packed tree.
fn commit_rebuilt_index(dir: &MemIo) {
    let indexed = rebuild_index_root(&reopen(dir), &OpenRelOpts::new(), INDEX)
        .expect("rebuild")
        .expect("an mpoint fleet");
    commit_file(dir, &indexed);
}

/// Commit a tree with one entry per unit, built with `unit_cubes` and
/// saved with `save_index` — the index an older store holds.
fn commit_per_unit_index(dir: &MemIo) {
    let gen = reopen(dir);
    let rel = Relation::open(&gen, &OpenRelOpts::new()).expect("open");
    let mut entries = Vec::new();
    for (i, tup) in rel.tuples().iter().enumerate() {
        let seq = tup.at(1).as_mpoint_seq().expect("an mpoint");
        entries.extend(unit_cubes(u32::try_from(i).expect("small"), &seq));
    }
    let tree = RTree::bulk(rel.len(), entries);
    let mut file = gen.to_store_file();
    let stored = save_index(&tree, file.store_mut());
    file.set(INDEX, RootRecord::Index(stored));
    commit_file(dir, &file);
}

fn open_indexed(ctx: &str, dir: &MemIo) -> Relation {
    let rel = Relation::open(&reopen(dir), &OpenRelOpts::new().index(INDEX))
        .unwrap_or_else(|e| panic!("{ctx}: open: {e}"));
    assert!(rel.has_index(), "{ctx}: the committed index attaches");
    assert!(!rel.index_damaged(), "{ctx}: the committed index is usable");
    rel
}

/// Units and tree entries of the tuples whose name starts with
/// `prefix`.
fn units_and_entries(rel: &Relation, prefix: &str) -> (usize, usize) {
    let tree = rel.index_tree().expect("attached");
    let mut units = 0;
    let mut entries = 0;
    for (i, tup) in rel.tuples().iter().enumerate() {
        if !tup.at(0).as_str().expect("a name").starts_with(prefix) {
            continue;
        }
        units += tup.at(1).as_mpoint_seq().expect("an mpoint").len();
        entries += tree
            .coded_entries()
            .filter(|e| e.tuple as usize == i)
            .count();
    }
    (units, entries)
}

/// An answer's rows, comparable across stores: a stored moving point
/// equals only a reference into the same store, so each row is its
/// values' text (names, snapshot points, and unit counts of moving
/// points), which identifies a row of two stores built from one seed.
fn rows(rel: &Relation) -> Vec<String> {
    rel.tuples()
        .iter()
        .map(|tup| format!("{:?}", tup.values()))
        .collect()
}

/// Coverage tallies over a campaign.
#[derive(Default)]
struct Tally {
    probes: usize,
    answered: usize,
    pruned: usize,
}

impl Tally {
    /// Every campaign checks at least 100 probes, and enough of its
    /// scans return rows and skip tuples that the checks mean something.
    fn assert_covered(&self) {
        assert!(self.probes >= 100, "only {} probes checked", self.probes);
        assert!(
            self.answered >= self.probes,
            "only {} non-empty answers",
            self.answered
        );
        assert!(
            self.pruned >= self.probes,
            "only {} pruned scans",
            self.pruned
        );
    }
}

/// `PROBES` seeded probes of each scan kind: the index forced must
/// answer exactly like the index off, with no fallback. With `alt`,
/// the forced answer must also equal `alt`'s.
fn check_probes(
    ctx: &str,
    rel: &Relation,
    alt: Option<&Relation>,
    rng: &mut Rng,
    tally: &mut Tally,
) {
    let off = ScanOpts::new().index(IndexPolicy::Off);
    let force = ScanOpts::new().index(IndexPolicy::Force);
    let horizon = TAXI_UNITS as f64;
    for p in 0..PROBES {
        // Zones inside the taxi city most of the time, across the
        // flights' world otherwise.
        let extent = if p % 4 == 3 { 1000.0 } else { 100.0 };
        let side = rng.range(5.0, 40.0);
        let (x, y) = (
            rng.range(-extent, extent - side),
            rng.range(-extent, extent - side),
        );
        let zone = Region::from_ring(rect_ring(x, y, x + side, y + side));
        let from = rng.range(0.0, horizon);
        let window = Interval::closed(t(from), t(from + rng.range(0.0, 30.0)));
        let at: Instant = t(rng.range(0.0, horizon));
        for op in ["passes", "filter_inside", "snapshot_at"] {
            let run = |r: &Relation, o: &ScanOpts| {
                match op {
                    "passes" => r.passes("trip", &zone, &window, o),
                    "filter_inside" => r.filter_inside("trip", &zone, o),
                    _ => r.snapshot_at(at, o),
                }
                .unwrap_or_else(|e| panic!("{ctx} probe {p}: {op}: {e}"))
            };
            let (want, _) = run(rel, &off);
            let (got, stats) = run(rel, &force);
            assert_eq!(got, want, "{ctx} probe {p}: {op} pruned ≠ full");
            assert_eq!(stats.index_fallbacks, 0, "{ctx} probe {p}: {op} fell back");
            let cands = stats
                .candidates
                .unwrap_or_else(|| panic!("{ctx} probe {p}: {op} ran full"));
            tally.pruned += usize::from(cands < rel.len());
            tally.answered += usize::from(!want.is_empty());
            if let Some(alt) = alt {
                let (other, _) = run(alt, &force);
                assert_eq!(
                    rows(&got),
                    rows(&other),
                    "{ctx} probe {p}: {op} differs across layouts"
                );
            }
        }
        tally.probes += 1;
    }
}

#[test]
fn run_packed_index_forms_runs_and_never_changes_an_answer() {
    let mut tally = Tally::default();
    for seed in 0..SEEDS {
        let ctx = format!("seed {seed}");
        let dir = committed_fleet(seed);
        commit_rebuilt_index(&dir);
        let rel = open_indexed(&ctx, &dir);
        let (units, entries) = units_and_entries(&rel, "taxi/");
        assert!(
            entries * 4 <= units,
            "{ctx}: taxis keep {entries} entries for {units} units"
        );
        let (units, entries) = units_and_entries(&rel, "flight/");
        assert!(entries <= units, "{ctx}: flights gain entries");
        check_probes(&ctx, &rel, None, &mut Rng(seed), &mut tally);
    }
    tally.assert_covered();
}

#[test]
fn per_unit_index_of_an_older_store_still_loads_and_answers() {
    let mut tally = Tally::default();
    for seed in 0..SEEDS {
        let ctx = format!("seed {seed} per-unit");
        let old = committed_fleet(seed);
        commit_per_unit_index(&old);
        let per_unit = open_indexed(&ctx, &old);
        let (units, entries) = units_and_entries(&per_unit, "");
        assert_eq!(
            entries, units,
            "{ctx}: the old layout has one entry per unit"
        );

        let new = committed_fleet(seed);
        commit_rebuilt_index(&new);
        let packed = open_indexed(&format!("seed {seed} packed"), &new);
        check_probes(&ctx, &per_unit, Some(&packed), &mut Rng(seed), &mut tally);

        // The maintenance rebuild over the old store writes the
        // run-packed tree.
        commit_rebuilt_index(&old);
        let rebuilt = open_indexed(&format!("seed {seed} rebuilt"), &old);
        assert_eq!(
            rebuilt.index_tree(),
            packed.index_tree(),
            "{ctx}: the rebuild over a per-unit store packs runs"
        );
        assert!(
            rebuilt.index_tree().expect("attached").num_entries() < entries,
            "{ctx}: the rebuilt tree is smaller"
        );
    }
    tally.assert_covered();
}

/// A fresh durable store holding the tag-11 fixture's bytes.
fn tag11_store() -> MemIo {
    let file = StoreFile::from_bytes(TAG11).expect("the fixture decodes");
    let dir = MemIo::new();
    commit_file(&dir, &file);
    dir
}

/// The leaf layout of the index committed in `dir`.
fn layout(dir: &MemIo) -> &'static str {
    match reopen(dir).get(INDEX) {
        Some(RootRecord::Index(ix)) => ix.layout(),
        other => panic!("no index root: {other:?}"),
    }
}

#[test]
fn tag11_index_of_real_old_bytes_attaches_and_answers_like_a_compact_tree() {
    let old = tag11_store();
    assert_eq!(layout(&old), "f64", "the fixture holds f64 leaves");
    let f64_rel = open_indexed("tag 11", &old);

    let new = tag11_store();
    commit_rebuilt_index(&new);
    assert_eq!(layout(&new), "u16", "a rebuild writes compact leaves");
    let compact = open_indexed("compact", &new);

    let frame: Cube = compact
        .index_tree()
        .and_then(|tree| tree.frame())
        .expect("a non-empty tree");
    let (x0, y0) = (frame.rect.min_x().get(), frame.rect.min_y().get());
    let (x1, y1) = (frame.rect.max_x().get(), frame.rect.max_y().get());
    let (t0, t1) = (frame.t_min.as_f64(), frame.t_max.as_f64());

    let off = ScanOpts::new().index(IndexPolicy::Off);
    let force = ScanOpts::new().index(IndexPolicy::Force);
    let mut rng = Rng(0x7a9_1100);
    let mut tally = Tally::default();
    for p in 0..120 {
        let side = rng.range(0.05, 0.4) * (x1 - x0).max(y1 - y0);
        let (x, y) = (rng.range(x0 - side, x1), rng.range(y0 - side, y1));
        let zone = Region::from_ring(rect_ring(x, y, x + side, y + side));
        let from = rng.range(t0 - 1.0, t1);
        let window = Interval::closed(t(from), t(from + rng.range(0.0, 3.0)));
        let at: Instant = t(rng.range(t0 - 1.0, t1 + 1.0));
        for op in ["passes", "filter_inside", "snapshot_at"] {
            let run = |r: &Relation, o: &ScanOpts| {
                match op {
                    "passes" => r.passes("trip", &zone, &window, o),
                    "filter_inside" => r.filter_inside("trip", &zone, o),
                    _ => r.snapshot_at(at, o),
                }
                .unwrap_or_else(|e| panic!("probe {p}: {op}: {e}"))
            };
            let (want, _) = run(&f64_rel, &off);
            let (got, stats) = run(&f64_rel, &force);
            assert_eq!(
                got, want,
                "probe {p}: {op} pruned ≠ full on the tag-11 store"
            );
            assert_eq!(stats.index_fallbacks, 0, "probe {p}: {op} fell back");
            let cands = stats
                .candidates
                .unwrap_or_else(|| panic!("probe {p}: {op} ran full"));
            tally.pruned += usize::from(cands < f64_rel.len());
            tally.answered += usize::from(!want.is_empty());
            let (other, stats) = run(&compact, &force);
            assert_eq!(
                stats.index_fallbacks, 0,
                "probe {p}: {op} compact fell back"
            );
            assert_eq!(
                rows(&got),
                rows(&other),
                "probe {p}: {op} differs between the f64 and the compact tree"
            );
        }
        tally.probes += 1;
    }
    tally.assert_covered();

    // The maintenance rebuild over the old store writes the compact
    // record, and the very tree a fresh build gives.
    commit_rebuilt_index(&old);
    assert_eq!(layout(&old), "u16");
    let rebuilt = open_indexed("rebuilt", &old);
    assert_eq!(rebuilt.index_tree(), compact.index_tree());
}

/// A store whose index root is still tag 11 is rewritten by one
/// supervised maintenance tick, even below the chain thresholds: the
/// head then holds a compact (tag 12) root, scans through it answer as
/// with the index off, and the next tick has nothing left to do.
#[test]
fn tag11_index_is_rewritten_by_one_supervised_tick() {
    use mob_rel::index_rebuilder;
    use mob_storage::{MaintTick, Supervisor, SupervisorConfig, VirtualClock};
    use std::sync::Mutex;

    let dir = tag11_store();
    let store = DurableStore::options().open(dir.clone()).expect("open");
    let store = Arc::new(Mutex::new(store));
    let clock = Arc::new(VirtualClock::new());
    let plain = Supervisor::new(
        Arc::clone(&store),
        SupervisorConfig::default(),
        clock.clone(),
    );
    assert!(!plain.due(), "without a rebuilder nothing can rewrite it");
    let sup = Supervisor::new(Arc::clone(&store), SupervisorConfig::default(), clock)
        .with_rebuilder(index_rebuilder(OpenRelOpts::new(), INDEX.to_string()));
    assert!(sup.due(), "a tag-11 root calls for a rebuild");
    assert!(
        matches!(
            sup.run_once(),
            MaintTick::Compacted {
                rebuilt: Some(_),
                ..
            }
        ),
        "one tick rebuilds"
    );
    assert_eq!(layout(&dir), "u16", "the tick wrote compact leaves");
    assert!(!sup.due());
    assert_eq!(sup.run_once(), MaintTick::Idle, "nothing left to rewrite");

    let rel = open_indexed("rewritten", &dir);
    let frame: Cube = rel
        .index_tree()
        .and_then(|tree| tree.frame())
        .expect("a non-empty tree");
    let (x0, y0) = (frame.rect.min_x().get(), frame.rect.min_y().get());
    let (x1, y1) = (frame.rect.max_x().get(), frame.rect.max_y().get());
    let (t0, t1) = (frame.t_min.as_f64(), frame.t_max.as_f64());
    let off = ScanOpts::new().index(IndexPolicy::Off);
    let force = ScanOpts::new().index(IndexPolicy::Force);
    let mut rng = Rng(0x7a9_1101);
    let (mut pruned, mut answered) = (0, 0);
    for p in 0..60 {
        let side = rng.range(0.05, 0.4) * (x1 - x0).max(y1 - y0);
        let (x, y) = (rng.range(x0 - side, x1), rng.range(y0 - side, y1));
        let zone = Region::from_ring(rect_ring(x, y, x + side, y + side));
        let from = rng.range(t0 - 1.0, t1);
        let window = Interval::closed(t(from), t(from + rng.range(0.0, 3.0)));
        let at: Instant = t(rng.range(t0 - 1.0, t1 + 1.0));
        for op in ["passes", "filter_inside", "snapshot_at"] {
            let run = |o: &ScanOpts| {
                match op {
                    "passes" => rel.passes("trip", &zone, &window, o),
                    "filter_inside" => rel.filter_inside("trip", &zone, o),
                    _ => rel.snapshot_at(at, o),
                }
                .unwrap_or_else(|e| panic!("probe {p}: {op}: {e}"))
            };
            let (want, _) = run(&off);
            let (got, stats) = run(&force);
            assert_eq!(got, want, "probe {p}: {op} pruned ≠ full after the tick");
            assert_eq!(stats.index_fallbacks, 0, "probe {p}: {op} fell back");
            let cands = stats.candidates.expect("pruned path");
            pruned += usize::from(cands < rel.len());
            answered += usize::from(!want.is_empty());
        }
    }
    assert!(
        pruned > 20 && answered > 20,
        "{pruned} pruned, {answered} answered"
    );
}
