//! End-to-end index lifecycle over the durable store: **build → commit
//! → recover → prune**, and the degradation contract — a damaged index
//! frame costs performance (a recorded planner fallback), never
//! correctness.
//!
//! The campaign commits a fleet plus its R-tree (index root record),
//! then reopens through a [`FaultyIo`] that flips bits deterministically
//! per seed. Whatever the flips hit, pruned and full scans must return
//! identical relations; when the index blob is the casualty, attaching
//! reports failure and the next scan records `index.fallbacks = 1`.

use mob_base::{t, Interval};
use mob_core::{CodedEntry, MovingPoint, RTree, CODE_MAX};
use mob_rel::{AttrType, AttrValue, IndexPolicy, OnError, OpenRelOpts, Relation, ScanOpts, Tuple};
use mob_spatial::{pt, rect_ring, Region};
use mob_storage::index_store::CodedEntryRecord;
use mob_storage::{DurableStore, FaultyIo, MemIo, RootRecord, StoreFile, StoreIo};

const CHUNK: usize = 128;
const FLIGHTS: usize = 6;
const LEGS: usize = 48;
const FLIPS: u32 = 6;

/// The registry is process-wide: tests that read registry deltas hold
/// this lock so no other test's scans land inside their window.
static REGISTRY: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn exclusive_registry() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Fresh in-memory copy of a directory (shared-storage [`MemIo::clone`]
/// would let one seed's recovery prune another's snapshot).
fn deep_copy(dir: &MemIo) -> MemIo {
    let copy = MemIo::new();
    for (name, bytes) in dir.dump() {
        copy.write_file(&name, &bytes).expect("copy file");
    }
    copy
}

/// The in-memory fleet: zigzag flights so every sample is its own unit
/// and all arrays stay external.
fn fleet() -> Relation {
    let schema =
        mob_rel::Schema::new(&[("flight", AttrType::Str), ("trip", AttrType::MPoint)]).unwrap();
    let mut rel = Relation::new(schema);
    for k in 0..FLIGHTS {
        let x0 = k as f64;
        let samples: Vec<_> = (0..LEGS)
            .map(|i| (t(i as f64), pt(x0 + (i % 2) as f64, i as f64 * 0.5)))
            .collect();
        rel.insert(Tuple::new(vec![
            AttrValue::str(&format!("F{k}")),
            AttrValue::MPoint(MovingPoint::from_samples(&samples)),
        ]))
        .unwrap();
    }
    rel
}

/// Commit the fleet *and its index* into a fresh durable directory.
fn committed_dir() -> MemIo {
    commit(&fleet_file(None).0)
}

/// The fleet and its index as a store file, plus the tree as built.
/// `forge`, given the tuple count, changes the second entry of the first
/// leaf node before the entries are stored.
fn fleet_file(forge: Option<Forge>) -> (StoreFile, RTree) {
    let mut rel = fleet();
    let mut file = StoreFile::new();
    for tup in rel.tuples() {
        let name = tup.at(0).as_str().unwrap().to_owned();
        let AttrValue::MPoint(m) = tup.at(1) else {
            panic!("fleet holds mpoints");
        };
        let stored = mob_storage::mapping_store::save_mpoint(m, file.store_mut());
        assert!(!stored.units.is_inline(), "unit arrays must be external");
        file.put(name, RootRecord::MPoint(stored));
    }
    rel.build_index("trip").unwrap();
    let tree = rel.index_tree().expect("just built").clone();
    let mut stored_ix = mob_storage::index_store::save_index(&tree, file.store_mut());
    if let Some(forge) = forge {
        let mut entries: Vec<CodedEntryRecord> =
            tree.coded_entries().map(CodedEntryRecord).collect();
        forge(&mut entries[1].0, stored_ix.num_tuples);
        stored_ix.entries = mob_storage::save_array(&entries, file.store_mut());
    }
    assert!(
        !stored_ix.entries.is_inline(),
        "index entries must be external so frame damage quarantines them"
    );
    file.put("fleet/index", RootRecord::Index(stored_ix));
    (file, tree)
}

/// A forgery of one stored leaf entry, given the tuple count.
type Forge = fn(&mut CodedEntry, u32);

/// Commit `file` into a fresh durable directory.
fn commit(file: &StoreFile) -> MemIo {
    let dir = MemIo::new();
    let mut store = DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir.clone())
        .expect("fresh dir");
    let mut txn = store.begin();
    txn.put_store_file(file).expect("stage fleet + index");
    txn.commit().expect("commit fleet + index");
    dir
}

/// Open options matching the fleet catalog, index attach requested.
fn rel_opts() -> OpenRelOpts {
    OpenRelOpts::new().index("fleet/index")
}

/// The selective probe: a small window around flight 2's corridor,
/// early in the timeline.
fn probe() -> (Region, Interval<mob_base::Instant>) {
    (
        Region::from_ring(rect_ring(1.6, 0.0, 2.4, 30.0)),
        Interval::closed(t(2.0), t(9.0)),
    )
}

#[test]
fn recovered_index_prunes_the_committed_fleet() {
    let _registry = exclusive_registry();
    let dir = committed_dir();
    let store = DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir)
        .expect("clean open");
    let snap = store.snapshot().expect("committed");
    let rel = Relation::open(&snap, &rel_opts()).expect("clean fleet");
    assert!(rel.has_index(), "clean index must attach");

    let (zone, window) = probe();
    let full = ScanOpts::new().index(IndexPolicy::Off);
    let pruned = full.clone().index(IndexPolicy::Force);
    let (a, _) = rel.passes("trip", &zone, &window, &full).unwrap();
    let ((b, stats), report) = mob_obs::explain("pruned passes", || {
        rel.passes("trip", &zone, &window, &pruned).unwrap()
    });
    assert_eq!(a, b, "pruning must not change the answer");
    assert_eq!(
        a.len(),
        2,
        "the zigzags of flights 1 and 2 cross the corridor"
    );
    assert_eq!(stats.index_fallbacks, 0);
    let cand = stats.candidates.expect("pruned path");
    assert!(cand < FLIGHTS, "candidates {cand} must beat {FLIGHTS}");
    if mob_obs::enabled() {
        let nodes = report.metrics().get("index.nodes_visited");
        let touched = report.metrics().get("scan.tuples_probed");
        assert!(touched <= cand as u64);
        assert!(nodes > 0, "the prune stage walked the tree");
    }
}

#[test]
fn flipped_index_frames_degrade_to_recorded_full_scans() {
    let _registry = exclusive_registry();
    let dir = committed_dir();
    let (zone, window) = probe();
    let mut opens_ok = 0u32;
    let mut index_casualties = 0u32;
    for seed in 0..140u64 {
        let faulty = FaultyIo::with_read_flips(deep_copy(&dir), FLIPS, seed);
        let degraded = DurableStore::options()
            .chunk_size(CHUNK)
            .degraded(true)
            .open(faulty);
        let snap = match degraded {
            Ok(s) if s.generation() > 0 => s.snapshot().expect("store-file payload"),
            _ => {
                // Structural damage: refusing the whole file is the
                // correct loud outcome — no index question arises.
                continue;
            }
        };
        opens_ok += 1;
        let rel = Relation::open(&snap, &rel_opts().on_error(OnError::SkipAndRecord))
            .expect("degraded open tolerates quarantined blobs");

        // Reference answer first, on an index-free twin.
        let twin = Relation::open(&snap, &OpenRelOpts::new().on_error(OnError::SkipAndRecord))
            .expect("degraded open tolerates quarantined blobs");
        let opts_full = ScanOpts::new()
            .on_error(OnError::SkipAndRecord)
            .index(IndexPolicy::Off);
        let (expect, _) = twin
            .passes("trip", &zone, &window, &opts_full)
            .expect("full scan survives quarantine");

        let attached = rel.has_index();
        let opts_auto = ScanOpts::new()
            .on_error(OnError::SkipAndRecord)
            .index(IndexPolicy::Auto);
        let (got, stats) = rel
            .passes("trip", &zone, &window, &opts_auto)
            .expect("scan never fails because of the index");
        assert_eq!(got, expect, "seed {seed}: answers are damage-invariant");
        if attached {
            assert_eq!(stats.index_fallbacks, 0, "seed {seed}");
            assert!(stats.candidates.is_some(), "seed {seed}: pruned path");
        } else {
            index_casualties += 1;
            assert!(rel.index_damaged(), "seed {seed}");
            assert_eq!(
                stats.index_fallbacks, 1,
                "seed {seed}: fallback must be recorded"
            );
            assert_eq!(stats.candidates, None, "seed {seed}: full path");
        }
    }
    assert!(opens_ok >= 10, "only {opens_ok} degraded opens succeeded");
    assert!(
        index_casualties >= 3,
        "only {index_casualties} seeds damaged the index — campaign too weak"
    );
}

/// Regression: a delta that creates a root after the index was
/// committed used to leave a tree covering only a prefix of the
/// relation, which the planner refused on every scan (`fallbacks 1`,
/// no candidates) although `has_index()` was true. The new root now
/// lives in the tail tree and the scan stays pruned.
#[test]
fn index_tail_root_created_after_the_index_keeps_the_pruned_path() {
    let _registry = exclusive_registry();
    let mut store = DurableStore::options()
        .chunk_size(CHUNK)
        .open(committed_dir())
        .expect("clean open");
    let mut txn = store.begin();
    let crossing = MovingPoint::from_samples(&[(t(3.0), pt(2.0, 1.0)), (t(8.0), pt(2.0, 4.0))]);
    txn.append_units("F_new", crossing.units());
    txn.commit().expect("delta creates F_new");
    let snap = store.snapshot().expect("committed");
    let rel = Relation::open(&snap, &rel_opts()).expect("clean fleet");
    assert_eq!(rel.len(), FLIGHTS + 1);
    assert!(rel.has_index());

    let (zone, window) = probe();
    let off = ScanOpts::new().index(IndexPolicy::Off);
    let auto = ScanOpts::new().index(IndexPolicy::Auto);
    let (want, _) = rel.passes("trip", &zone, &window, &off).unwrap();
    let (got, stats) = rel.passes("trip", &zone, &window, &auto).unwrap();
    assert_eq!(got, want);
    assert_eq!(
        want.len(),
        3,
        "flights 1 and 2 plus F_new cross the corridor"
    );
    assert_eq!(stats.index_fallbacks, 0);
    let cand = stats.candidates.expect("pruned path");
    assert!(cand < FLIGHTS + 1, "candidates {cand}");
}

/// A snapshot whose stored tree covers fewer roots than the snapshot
/// holds cannot vouch for the rest, even when a delta later appends to
/// them: the index is refused (a recorded fallback), never trusted.
#[test]
fn index_tail_never_stands_in_for_a_snapshot_root_the_tree_missed() {
    let _registry = exclusive_registry();
    let dir = committed_dir();
    let mut store = DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir)
        .expect("clean open");
    // Re-commit the snapshot with one more root the index never saw,
    // alive inside the probe, then append to it after a gap: its tail
    // cube misses the probe, so trusting the tail would lose it.
    let mut file = store.snapshot().expect("committed").to_store_file();
    let early = MovingPoint::from_samples(&[(t(2.0), pt(2.0, 1.0)), (t(9.0), pt(2.0, 2.0))]);
    let stored = mob_storage::mapping_store::save_mpoint(&early, file.store_mut());
    file.put("F_late", RootRecord::MPoint(stored));
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage");
    txn.commit().expect("snapshot with an unindexed root");
    let mut txn = store.begin();
    let later = MovingPoint::from_samples(&[(t(12.0), pt(2.0, 2.0)), (t(40.0), pt(90.0, 90.0))]);
    txn.append_units("F_late", later.units());
    txn.commit().expect("delta appends to F_late");

    let snap = store.snapshot().expect("committed");
    let rel = Relation::open(&snap, &rel_opts()).expect("clean fleet");
    assert!(!rel.has_index() && rel.index_damaged());
    let (zone, window) = probe();
    let off = ScanOpts::new().index(IndexPolicy::Off);
    let auto = ScanOpts::new().index(IndexPolicy::Auto);
    let (want, _) = rel.passes("trip", &zone, &window, &off).unwrap();
    let (got, stats) = rel.passes("trip", &zone, &window, &auto).unwrap();
    assert_eq!(got, want);
    assert_eq!(want.len(), 3, "F_late crosses the corridor before its tail");
    assert_eq!((stats.index_fallbacks, stats.candidates), (1, None));
}

/// A forged leaf entry the attach cannot see (a tuple id out of range,
/// a min code above its max code, an entry escaping its leaf node):
/// every scan whose probe reads that leaf falls back to a full scan with
/// one recorded fallback and the index-off answer; a scan that never
/// reads it stays pruned.
#[test]
fn a_forged_leaf_entry_falls_back_only_where_a_scan_reads_it() {
    let _registry = exclusive_registry();
    let forgeries: [(&str, Forge); 3] = [
        ("tuple id out of range", |e, n| e.tuple = n),
        ("min code above max code", |e, _| {
            (e.codes[0], e.codes[2]) = (1, 0);
        }),
        ("entry escaping its leaf", |e, _| {
            e.codes = [0, 0, CODE_MAX, CODE_MAX, 0, CODE_MAX];
        }),
    ];
    for (what, forge) in forgeries {
        let (file, tree) = fleet_file(Some(forge));
        let store = DurableStore::options()
            .chunk_size(CHUNK)
            .open(commit(&file))
            .expect("the forgery is in the payload, not the frames");
        let snap = store.snapshot().expect("committed");
        let rel = Relation::open(&snap, &rel_opts()).expect("clean fleet");
        assert!(rel.has_index(), "{what}: the nodes attach");
        assert!(!rel.index_damaged(), "{what}");
        let full = ScanOpts::new().index(IndexPolicy::Off);
        let pruned = full.clone().index(IndexPolicy::Force);
        let scan = |cube: mob_spatial::Cube, opts: &ScanOpts| {
            let zone = Region::from_ring(rect_ring(
                cube.rect.min_x().get(),
                cube.rect.min_y().get(),
                cube.rect.max_x().get(),
                cube.rect.max_y().get(),
            ));
            let window = Interval::closed(cube.t_min, cube.t_max);
            rel.passes("trip", &zone, &window, opts).expect("scan")
        };
        // The forged leaf, probed twice: one fallback each time.
        let leaf = tree.nodes()[0].cube;
        for _ in 0..2 {
            let (want, _) = scan(leaf, &full);
            let (got, stats) = scan(leaf, &pruned);
            assert_eq!(got, want, "{what}: the index-off answer");
            assert_eq!(stats.index_fallbacks, 1, "{what}: one fallback");
            assert_eq!(stats.candidates, None, "{what}: full path");
        }
        // A leaf apart from it: pruned, with no fallback.
        let apart = (tree.nodes().iter())
            .find(|nd| nd.level == 0 && !nd.cube.intersects(&leaf))
            .expect("the fleet spreads over several leaves")
            .cube;
        let (want, _) = scan(apart, &full);
        let (got, stats) = scan(apart, &pruned);
        assert_eq!(got, want, "{what}: a clean leaf");
        assert_eq!(stats.index_fallbacks, 0, "{what}: still pruned");
        let cands = stats.candidates.expect("pruned path");
        assert!(cands < FLIGHTS, "{what}: {cands} candidates prune nothing");
    }
}
