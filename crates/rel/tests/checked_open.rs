//! Differential: **what a generation already checked changes no answer
//! and no verdict.**
//!
//! A generation marks the roots a replay wrote from checked units, and
//! [`Relation::open`] opens those with the layout checks only; it keeps
//! the tree decoded from its index root and hands it on to its delta
//! successors. This campaign holds both to the slow path:
//!
//! * Seeded live chains of delta commits, one compaction and one index
//!   rebuild: on every generation, the relation opened live answers
//!   `passes`, `filter_inside` and `snapshot_at`, index forced and off,
//!   exactly as the same generation reopened from a copy of the
//!   directory (whose replay checks every touched root in full and
//!   loads the tree afresh) and as a generation decoded from its full
//!   image, which has no marks and no tree.
//! * A forged unsorted array that arrives through a store file or a full
//!   commit is refused with the full check's error, on open and on the
//!   next delta; a quarantined root stays quarantined.
//! * Delta commits share one decoded tree; a compaction and rebuild
//!   decode a new one; a damaged index root falls back on every open;
//!   the tag-11 fixture attaches through the shared tree.
//!
//! The seeded cases name their seed in every failure; the others use
//! fixed inputs.

use mob_base::{t, Instant, Interval, TimeInterval};
use mob_core::{MovingPoint, PointMotion, UPoint, Unit};
use mob_rel::{
    rebuild_index_root, AttrValue, IndexPolicy, OnError, OpenRelOpts, Relation, ScanOpts,
};
use mob_spatial::{pt, rect_ring, Region};
use mob_storage::mapping_store::{save_mpoint, StoredMapping, UPointRecord};
use mob_storage::{
    open_mpoint, save_array, DurableStore, FixedRecord, Generation, MemIo, RootRecord, StoreFile,
    StoreIo, Verify,
};
use std::sync::Arc;

const SEEDS: u64 = 12;
const CHUNK: usize = 128;
const DELTAS: usize = 4;
const PROBES: usize = 4;
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

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = u64::try_from(hi - lo + 1).expect("lo <= hi");
        lo + i64::try_from(self.next() % span).expect("small bound")
    }
}

fn mpoint(samples: &[(i64, i64, i64)]) -> MovingPoint {
    let s: Vec<_> = samples
        .iter()
        .map(|&(ti, x, y)| (t(ti as f64), pt(x as f64, y as f64)))
        .collect();
    MovingPoint::from_samples(&s)
}

/// A random walk of `legs` one-second legs from `start`.
fn walk(rng: &mut Rng, start: (i64, i64, i64), legs: i64) -> Vec<(i64, i64, i64)> {
    let mut s = vec![start];
    for _ in 0..legs {
        let &(ti, x, y) = s.last().expect("non-empty");
        s.push((ti + 1, x + rng.range(-3, 3), y + rng.range(-3, 3)));
    }
    s
}

fn store_on(dir: &MemIo) -> DurableStore<MemIo> {
    DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir.clone())
        .expect("open dir")
}

/// A fresh in-memory copy of a directory: reopening it replays the
/// chain in a generation of its own.
fn reopen_copy(dir: &MemIo) -> Arc<Generation> {
    let copy = MemIo::new();
    for (name, bytes) in dir.dump() {
        copy.write_file(&name, &bytes).expect("copy file");
    }
    store_on(&copy).snapshot().expect("reopened")
}

/// The generation decoded from `g`'s full image: nothing marked, no
/// tree, and no stale index (the image drops it).
fn from_image(g: &Generation) -> Generation {
    let bytes = g.to_store_file().to_bytes().expect("image encodes");
    let file = StoreFile::from_bytes(&bytes).expect("image decodes");
    Generation::from_store_file(g.number(), file, Vec::new())
}

/// Rebuild the head's index and commit it as a full image.
fn commit_rebuilt_index(store: &mut DurableStore<MemIo>) {
    let head = store.snapshot().expect("head");
    let file = rebuild_index_root(&head, &OpenRelOpts::new(), INDEX)
        .expect("rebuild")
        .expect("an mpoint fleet");
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage index");
    txn.commit().expect("commit index");
}

fn open(g: &Generation, indexed: bool) -> Relation {
    let opts = OpenRelOpts::new().on_error(OnError::SkipAndRecord);
    let opts = if indexed { opts.index(INDEX) } else { opts };
    Relation::open(g, &opts).expect("open")
}

/// An answer as plain values: stored mappings materialized, so answers
/// from different generations compare.
fn rows(rel: &Relation) -> Vec<Vec<String>> {
    rel.tuples()
        .iter()
        .map(|tup| {
            tup.values()
                .iter()
                .map(|v| match v.as_mpoint_ref() {
                    Some(r) => format!("{:?}", r.materialize()),
                    None => format!("{v:?}"),
                })
                .collect()
        })
        .collect()
}

/// One probe of each kind over `rel`, under `policy`.
fn answers(
    ctx: &str,
    rel: &Relation,
    policy: IndexPolicy,
    probes: &[(Region, TimeInterval, Instant)],
) -> Vec<Vec<Vec<String>>> {
    let o = ScanOpts::new()
        .on_error(OnError::SkipAndRecord)
        .index(policy);
    let mut out = Vec::new();
    for (p, (zone, window, at)) in probes.iter().enumerate() {
        for op in ["passes", "filter_inside", "snapshot_at"] {
            let (got, stats) = match op {
                "passes" => rel.passes("trip", zone, window, &o),
                "filter_inside" => rel.filter_inside("trip", zone, &o),
                _ => rel.snapshot_at(*at, &o),
            }
            .unwrap_or_else(|e| panic!("{ctx} probe {p}: {op} {policy:?}: {e}"));
            if policy == IndexPolicy::Force && rel.has_index() {
                assert_eq!(stats.index_fallbacks, 0, "{ctx} probe {p}: {op} fell back");
            }
            out.push(rows(&got));
        }
    }
    out
}

/// The live generation answers like its reopened copy and its image.
fn check_generation(ctx: &str, dir: &MemIo, live: &Generation, rng: &mut Rng) {
    let probes: Vec<_> = (0..PROBES)
        .map(|_| {
            let (x, y) = (rng.range(-45, 35) as f64, rng.range(-45, 35) as f64);
            let side = rng.range(3, 25) as f64;
            let zone = Region::from_ring(rect_ring(x, y, x + side, y + side));
            let from = rng.range(0, 30) as f64;
            let window = Interval::closed(t(from), t(from + rng.range(0, 6) as f64));
            (zone, window, t(rng.range(0, 34) as f64))
        })
        .collect();
    let reopened = reopen_copy(dir);
    assert_eq!(reopened.number(), live.number(), "{ctx}: reopen");
    let image = from_image(live);
    assert!(
        (0..image.entries().len()).all(|slot| image.checked_mpoint(slot).is_none()),
        "{ctx}: a generation from a store file has no marks"
    );
    let live_rel = open(live, true);
    let copy_rel = open(&reopened, true);
    assert!(
        live_rel.has_index() && copy_rel.has_index(),
        "{ctx}: the index attaches"
    );
    let want = answers(ctx, &open(&image, false), IndexPolicy::Off, &probes);
    for policy in [IndexPolicy::Force, IndexPolicy::Off] {
        let ctx = format!("{ctx} {policy:?}");
        assert_eq!(
            answers(&ctx, &live_rel, policy, &probes),
            want,
            "{ctx}: live ≠ image"
        );
        assert_eq!(
            answers(&ctx, &copy_rel, policy, &probes),
            want,
            "{ctx}: reopened ≠ image"
        );
    }
}

/// `(name, end sample)` of each object.
type Ends = Vec<(String, (i64, i64, i64))>;

/// One delta: continue some objects (from their end, or after a gap)
/// and create one now and then.
fn delta(store: &mut DurableStore<MemIo>, rng: &mut Rng, ends: &mut Ends, seed: u64, d: usize) {
    let mut txn = store.begin();
    for k in 0..rng.range(1, 5) {
        if rng.range(0, 3) == 0 {
            let start = (rng.range(0, 20), rng.range(-40, 40), rng.range(-40, 40));
            let legs = rng.range(0, 3);
            let samples = walk(rng, start, legs);
            let name = format!("new/{d}/{k}");
            txn.append_units(&name, mpoint(&samples).units());
            ends.push((name, *samples.last().expect("non-empty")));
            continue;
        }
        let i = usize::try_from(rng.range(0, ends.len() as i64 - 1)).expect("index");
        let (te, x, y) = ends[i].1;
        let start = (te + rng.range(0, 2), x, y);
        let legs = rng.range(1, 3);
        let samples = walk(rng, start, legs);
        txn.append_units(&ends[i].0, mpoint(&samples).units());
        ends[i].1 = *samples.last().expect("non-empty");
    }
    txn.commit()
        .unwrap_or_else(|e| panic!("seed {seed} delta {d}: commit: {e}"));
}

/// The seeded fleet, committed with its index.
fn indexed_fleet(rng: &mut Rng, dir: &MemIo) -> (DurableStore<MemIo>, Ends) {
    let mut store = store_on(dir);
    let mut file = StoreFile::new();
    let mut ends = Vec::new();
    for k in 0..rng.range(6, 14) {
        let start = (0, rng.range(-40, 40), rng.range(-40, 40));
        let legs = rng.range(0, 12);
        let samples = walk(rng, start, legs);
        let name = format!("obj/{k:02}");
        let stored = save_mpoint(&mpoint(&samples), file.store_mut());
        file.put(name.clone(), RootRecord::MPoint(stored));
        ends.push((name, *samples.last().expect("non-empty")));
    }
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage fleet");
    txn.commit().expect("commit fleet");
    commit_rebuilt_index(&mut store);
    (store, ends)
}

fn run_seed(seed: u64) {
    let mut rng = Rng(seed);
    let dir = MemIo::new();
    let (mut store, mut ends) = indexed_fleet(&mut rng, &dir);
    let head = store.snapshot().expect("indexed");
    check_generation(&format!("seed {seed} base"), &dir, &head, &mut rng);
    for (phase, deltas) in [("before", 0..DELTAS), ("after", DELTAS..2 * DELTAS)] {
        for d in deltas {
            delta(&mut store, &mut rng, &mut ends, seed, d);
            let head = store.snapshot().expect("head");
            let ctx = format!("seed {seed} delta {d} {phase} compaction");
            for (slot, (name, _)) in head.entries().iter().enumerate() {
                if head.tail_cube(name).is_some() {
                    assert!(
                        head.checked_mpoint(slot).is_some(),
                        "{ctx}: {name} was written by a delta and is not marked"
                    );
                }
            }
            check_generation(&ctx, &dir, &head, &mut rng);
        }
        if phase == "before" {
            store.compact().expect("compact");
            commit_rebuilt_index(&mut store);
            let head = store.snapshot().expect("rebuilt");
            check_generation(&format!("seed {seed} rebuilt"), &dir, &head, &mut rng);
        }
    }
}

#[test]
fn live_opens_answer_like_reopened_copies_and_unmarked_images() {
    for seed in 0..SEEDS {
        run_seed(seed);
    }
}

/// `n` units of a zig-zag at height `y`, one second each, as records.
fn zigzag(n: i64, y: i64) -> Vec<UPointRecord> {
    let samples: Vec<_> = (0..=n).map(|i| (i, i % 2, y)).collect();
    mpoint(&samples)
        .units()
        .iter()
        .map(|u| UPointRecord {
            interval: *u.interval(),
            motion: *u.motion(),
        })
        .collect()
}

/// The mapping `records` stored as they are, unchecked.
fn forge(records: &[UPointRecord], file: &mut StoreFile) -> StoredMapping {
    StoredMapping {
        num_units: u32::try_from(records.len()).expect("small"),
        units: save_array(records, file.store_mut()),
    }
}

/// The error a full check of `name`'s array gives.
fn full_check_error(g: &Generation, name: &str) -> String {
    let Some(RootRecord::MPoint(m)) = g.get(name) else {
        panic!("{name} is an mpoint");
    };
    match open_mpoint(m, g.store(), Verify::Full) {
        Ok(_) => panic!("{name}: the forged array passes a full check"),
        Err(e) => e.to_string(),
    }
}

fn open_error(g: &Generation) -> String {
    match Relation::open(g, &OpenRelOpts::new()) {
        Ok(_) => panic!("a forged unsorted array opened"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn forged_arrays_from_store_files_and_full_commits_are_still_refused() {
    let mut unsorted = zigzag(40, 0);
    unsorted.swap(3, 30);
    // Through a store file.
    let mut file = StoreFile::new();
    let good = forge(&zigzag(40, 0), &mut file);
    file.put("good", RootRecord::MPoint(good));
    let bad = forge(&unsorted, &mut file);
    file.put("bad", RootRecord::MPoint(bad));
    let copy = StoreFile::from_bytes(&file.to_bytes().expect("encodes")).expect("decodes");
    let g = Generation::from_store_file(1, copy, Vec::new());
    let want = full_check_error(&g, "bad");
    assert!(want.contains("sorted"), "{want}");
    assert_eq!(open_error(&g), want, "store file");

    // Through a full commit on top of a chain whose deltas marked `bad`
    // under its slot: the commit's generation has no marks.
    let dir = MemIo::new();
    let mut store = store_on(&dir);
    let mut clean = StoreFile::new();
    for name in ["good", "bad"] {
        let m = forge(&zigzag(40, 0), &mut clean);
        clean.put(name, RootRecord::MPoint(m));
    }
    let mut txn = store.begin();
    txn.put_store_file(&clean).expect("stage");
    txn.commit().expect("commit clean");
    let next = |ti: i64| mpoint(&[(ti, 0, 0), (ti + 1, 5, 5)]).units().to_vec();
    let mut txn = store.begin();
    txn.append_units("bad", &next(50));
    txn.commit().expect("delta");
    let marked = store.snapshot().expect("marked");
    assert!(marked.checked_mpoint(1).is_some(), "the delta marks `bad`");
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage forged");
    txn.commit().expect("commit forged");
    let head = store.snapshot().expect("forged head");
    assert!(
        head.checked_mpoint(1).is_none(),
        "a full commit has no marks"
    );
    assert_eq!(open_error(&head), want, "full commit");
    // The next delta checks the unmarked array in full and refuses it.
    let mut txn = store.begin();
    txn.append_units("bad", &next(60));
    let refused = txn.commit().expect_err("a delta onto a forged array");
    assert_eq!(refused.to_string(), want, "delta onto a forged array");
    // And so does recovery.
    let mut txn = store.begin();
    txn.append_units("good", &next(60));
    txn.commit().expect("delta onto `good`");
    assert_eq!(open_error(&reopen_copy(&dir)), want, "recovered");
}

/// Flip one byte inside `name`'s unit array in the newest snapshot.
fn damage(dir: &MemIo, g: &Generation, name: &str) -> MemIo {
    let Some(RootRecord::MPoint(m)) = g.get(name) else {
        panic!("{name} is an mpoint");
    };
    let recs: Vec<UPointRecord> = mob_storage::load_array(&m.units, g.store()).expect("units");
    let files = dir.dump();
    let newest = files
        .iter()
        .map(|(f, _)| f)
        .filter(|f| f.starts_with("snap-"))
        .max()
        .cloned();
    let copy = MemIo::new();
    let mut flipped = false;
    for (f, mut bytes) in files {
        if Some(&f) == newest.as_ref() && !flipped {
            for r in &recs[recs.len() / 3..] {
                let mut needle = Vec::new();
                r.write(&mut needle);
                if let Some(at) = bytes.windows(needle.len()).position(|w| w == needle) {
                    bytes[at + needle.len() / 2] ^= 0x5a;
                    flipped = true;
                    break;
                }
            }
        }
        copy.write_file(&f, &bytes).expect("copy file");
    }
    assert!(flipped, "a record of {name} lies inside one chunk");
    copy
}

#[test]
fn a_quarantined_root_stays_quarantined_next_to_marked_ones() {
    let dir = MemIo::new();
    let mut store = store_on(&dir);
    let mut file = StoreFile::new();
    for (y, name) in ["a", "b", "q"].into_iter().enumerate() {
        let m = forge(&zigzag(160, y as i64), &mut file);
        file.put(name, RootRecord::MPoint(m));
    }
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage");
    txn.commit().expect("commit");
    let mut txn = store.begin();
    txn.append_units("a", mpoint(&[(200, 0, 0), (201, 1, 1)]).units());
    txn.commit().expect("delta");
    let live = store.snapshot().expect("live");
    let degraded = DurableStore::options()
        .chunk_size(CHUNK)
        .degraded(true)
        .open(damage(&dir, &live, "q"))
        .expect("degraded reopen")
        .snapshot()
        .expect("degraded");
    assert!(degraded.checked_mpoint(0).is_some(), "the replay marks `a`");
    assert!(degraded.checked_mpoint(2).is_none(), "`q` is not marked");
    let rel = Relation::open(
        &degraded,
        &OpenRelOpts::new().on_error(OnError::SkipAndRecord),
    )
    .expect("skip-and-record open");
    let hurt: Vec<bool> = rel
        .tuples()
        .iter()
        .map(|tup| tup.values().iter().any(AttrValue::is_quarantined))
        .collect();
    assert_eq!(hurt, [false, false, true], "only `q` is quarantined");
    assert!(
        Relation::open(&degraded, &OpenRelOpts::new()).is_err(),
        "OnError::Fail refuses the quarantined root"
    );
}

fn tree(rel: &Relation) -> *const mob_core::RTree {
    rel.index_tree().expect("attached")
}

#[test]
fn delta_commits_share_one_tree_and_a_rebuild_decodes_a_new_one() {
    const SEED: u64 = 7;
    let mut rng = Rng(SEED);
    let dir = MemIo::new();
    let (mut store, mut ends) = indexed_fleet(&mut rng, &dir);
    let base = open(&store.snapshot().expect("indexed"), true);
    let mut held = Vec::new();
    for d in 0..3 {
        delta(&mut store, &mut rng, &mut ends, SEED, d);
        let head = store.snapshot().expect("head");
        let rel = open(&head, true);
        assert!(
            std::ptr::eq(tree(&rel), tree(&base)),
            "seed {SEED} delta {d}: the base tree is the same allocation"
        );
        let shared = head.index_tree(INDEX).expect("loads");
        assert!(
            std::ptr::eq(&*shared, tree(&base)),
            "seed {SEED} delta {d}: cached"
        );
        held.push(rel);
    }
    // A reopen decodes its own tree.
    let reopened = open(&reopen_copy(&dir), true);
    assert!(
        !std::ptr::eq(tree(&reopened), tree(&base)),
        "seed {SEED}: reopen"
    );
    store.compact().expect("compact");
    commit_rebuilt_index(&mut store);
    let rebuilt = open(&store.snapshot().expect("rebuilt"), true);
    assert!(
        !std::ptr::eq(tree(&rebuilt), tree(&base)),
        "seed {SEED}: a compaction and rebuild decode a new tree"
    );
    delta(&mut store, &mut rng, &mut ends, SEED, 9);
    let after = open(&store.snapshot().expect("head"), true);
    assert!(
        std::ptr::eq(tree(&after), tree(&rebuilt)),
        "seed {SEED}: handed on again"
    );
    drop(held);
}

#[test]
fn a_damaged_index_root_falls_back_on_every_open() {
    const SEED: u64 = 11;
    let mut rng = Rng(SEED);
    let dir = MemIo::new();
    let (mut store, mut ends) = indexed_fleet(&mut rng, &dir);
    let head = store.snapshot().expect("indexed");
    // The good tree is decoded and kept before the full commit below
    // replaces the root in the same slot.
    assert!(open(&head, true).has_index(), "the good index attaches");
    let Some(RootRecord::Index(good)) = head.get(INDEX) else {
        panic!("an index root");
    };
    // A frame other than the tree's root cube: the load refuses it.
    let mut forged = good.clone();
    let mut frame = forged.frame.expect("a compact tree");
    frame.t_max = t(frame.t_max.as_f64() + 1.0);
    forged.frame = Some(frame);
    let mut file = head.to_store_file();
    file.set(INDEX, RootRecord::Index(forged));
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage");
    txn.commit().expect("commit forged index");
    let off = ScanOpts::new().index(IndexPolicy::Off);
    let force = ScanOpts::new().index(IndexPolicy::Force);
    let zone = Region::from_ring(rect_ring(-50.0, -50.0, 50.0, 50.0));
    for k in 0..6 {
        if k % 2 == 1 {
            delta(&mut store, &mut rng, &mut ends, SEED, k);
        }
        let head = store.snapshot().expect("head");
        assert!(
            head.index_tree(INDEX).is_err(),
            "seed {SEED} open {k}: the load fails"
        );
        let rel = open(&head, true);
        assert!(
            !rel.has_index() && rel.index_damaged(),
            "seed {SEED} open {k}: falls back"
        );
        let (got, stats) = rel.filter_inside("trip", &zone, &force).expect("scan");
        assert_eq!(
            stats.index_fallbacks, 1,
            "seed {SEED} open {k}: a recorded fallback"
        );
        let (want, _) = rel.filter_inside("trip", &zone, &off).expect("scan");
        assert_eq!(got, want, "seed {SEED} open {k}: the full answer");
    }
}

#[test]
fn the_tag11_fixture_attaches_through_the_shared_tree() {
    let file = StoreFile::from_bytes(TAG11).expect("the fixture decodes");
    let dir = MemIo::new();
    let mut store = store_on(&dir);
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage");
    txn.commit().expect("commit fixture");
    let head = store.snapshot().expect("fixture");
    let Some(RootRecord::Index(ix)) = head.get(INDEX) else {
        panic!("an index root");
    };
    assert_eq!(ix.layout(), "f64", "the fixture holds f64 leaves");
    let base = open(&head, true);
    assert!(base.has_index() && !base.index_damaged(), "attaches");
    let shared = head.index_tree(INDEX).expect("loads");
    assert!(std::ptr::eq(&*shared, base.index_tree().expect("attached")));
    // Continue one taxi after a gap; the successor shares the tree.
    let Some(RootRecord::MPoint(m)) = head.get("taxi/0") else {
        panic!("taxi/0 is an mpoint");
    };
    let recs: Vec<UPointRecord> = mob_storage::load_array(&m.units, head.store()).expect("units");
    let end = recs.last().expect("units").interval.end().as_f64();
    let still = PointMotion::stationary(pt(0.0, 0.0));
    let unit = UPoint::new(Interval::closed(t(end + 5.0), t(end + 6.0)), still);
    let mut txn = store.begin();
    txn.append_units("taxi/0", &[unit]);
    txn.commit().expect("delta");
    let next = store.snapshot().expect("head");
    let rel = open(&next, true);
    assert!(std::ptr::eq(
        rel.index_tree().expect("attached"),
        base.index_tree().expect("attached")
    ));
    let zone = Region::from_ring(rect_ring(-1e4, -1e4, 1e4, 1e4));
    let force = ScanOpts::new().index(IndexPolicy::Force);
    let off = ScanOpts::new().index(IndexPolicy::Off);
    let (got, stats) = rel.filter_inside("trip", &zone, &force).expect("scan");
    assert_eq!(stats.index_fallbacks, 0);
    assert_eq!(got, rel.filter_inside("trip", &zone, &off).expect("scan").0);
}
