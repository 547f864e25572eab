//! Differential: **the tail index never changes an answer.**
//!
//! Each seed commits a random fleet with its index (the maintenance
//! rebuild path) to a `MemIo` durable store, then a random delta chain:
//! appends to existing roots and to newly created ones, a root appended
//! twice in one batch, and every seam case — a point tail replaced, a
//! right-closed tail trimmed, an identical motion ι-merged, and a gap.
//! After every commit, after a reopen that replays the chain, and after
//! a degraded reopen that quarantines one root's blob (scanned under
//! [`OnError::SkipAndRecord`]), `passes`, `filter_inside` and
//! `snapshot_at` under [`IndexPolicy::Force`] must equal
//! [`IndexPolicy::Off`], record no fallback, and have at most as many
//! candidates as the base tree's hits plus the tail cubes' hits plus the
//! quarantined tuples. Every assertion names its seed.

use mob_base::{t, Instant, Interval};
use mob_core::{Candidates, MovingPoint, RTree, UPoint};
use mob_rel::{rebuild_index_root, IndexPolicy, OnError, OpenRelOpts, Probe, Relation, ScanOpts};
use mob_spatial::{pt, rect_ring, Cube, Region};
use mob_storage::mapping_store::{save_mpoint, UPointRecord};
use mob_storage::{DurableStore, FixedRecord, Generation, MemIo, RootRecord, StoreFile, StoreIo};

const SEEDS: u64 = 24;
const CHUNK: usize = 128;
const DELTAS: usize = 6;
const PROBES: usize = 6;
const INDEX: &str = "fleet/index";
/// The root whose blob the degraded reopen quarantines; never appended.
const Q: &str = "quarantine/q";
const Q_LEGS: i64 = 160;

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

    fn below(&mut self, n: u64) -> i64 {
        i64::try_from(self.next() % n).expect("small bound")
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below(u64::try_from(hi - lo + 1).expect("lo <= hi"))
    }
}

/// One object's end state: its last sample and the velocity of its last
/// unit (`None` when that unit is a point). Integer coordinates and
/// one-second legs keep motions exact, so a continuation at the same
/// velocity has the identical motion and ι-merges.
#[derive(Clone)]
struct Track {
    name: String,
    end: (i64, i64, i64),
    vel: Option<(i64, i64)>,
}

fn mpoint(samples: &[(i64, i64, i64)]) -> MovingPoint {
    let s: Vec<_> = samples
        .iter()
        .map(|&(ti, x, y)| (t(ti as f64), pt(x as f64, y as f64)))
        .collect();
    MovingPoint::from_samples(&s)
}

fn units(samples: &[(i64, i64, i64)]) -> Vec<UPoint> {
    mpoint(samples).units().to_vec()
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

fn track_of(name: String, samples: &[(i64, i64, i64)]) -> Track {
    let end = *samples.last().expect("non-empty");
    let vel = match samples {
        [.., (_, x0, y0), (_, x1, y1)] => Some((x1 - x0, y1 - y0)),
        _ => None,
    };
    Track { name, end, vel }
}

/// Continue `tr` with one seam case; returns the samples to append.
fn continuation(rng: &mut Rng, tr: &Track) -> Vec<(i64, i64, i64)> {
    let (te, x, y) = tr.end;
    match rng.below(4) {
        // Point tail replaced, or right-closed tail trimmed.
        0 => {
            let legs = 1 + rng.below(3);
            walk(rng, tr.end, legs)
        }
        // Same motion: the first appended unit ι-merges with the tail.
        1 => {
            let (dx, dy) = tr.vel.unwrap_or((0, 0));
            let mut s = vec![tr.end, (te + 1, x + dx, y + dy)];
            if rng.below(2) == 0 {
                let last = *s.last().expect("non-empty");
                s.extend(walk(rng, last, 1).into_iter().skip(1));
            }
            s
        }
        // A gap, ending in a point unit half the time.
        _ => {
            let start = (
                te + 1 + rng.below(3),
                x + rng.range(-5, 5),
                y + rng.range(-5, 5),
            );
            let legs = rng.below(3);
            walk(rng, start, legs)
        }
    }
}

fn rect(rng: &mut Rng) -> Region {
    let (x, y) = (rng.range(-45, 35) as f64, rng.range(-45, 35) as f64);
    let side = rng.range(3, 20) as f64;
    Region::from_ring(rect_ring(x, y, x + side, y + side))
}

fn tree_hits(tree: &RTree, probe: &Probe) -> Candidates {
    match probe {
        Probe::At(at) => tree.query_instant(*at),
        Probe::Window(r) => tree.query_rect(r),
        Probe::Volume(c) => tree.query(c),
    }
    .expect("a tree searched whole")
}

fn cube_hit(cube: &Cube, probe: &Probe) -> bool {
    match probe {
        Probe::At(at) => cube.t_min <= *at && *at <= cube.t_max,
        Probe::Window(r) => cube.rect.intersects(r),
        Probe::Volume(c) => cube.intersects(c),
    }
}

/// Coverage tallies over the whole campaign.
#[derive(Default)]
struct Tally {
    checks: usize,
    pruned: usize,
    answered: usize,
}

/// Every probe kind, index forced vs off, on one opened generation.
fn check(
    ctx: &str,
    gen: &Generation,
    on_error: OnError,
    quarantined: usize,
    rng: &mut Rng,
    tally: &mut Tally,
) {
    let opts = OpenRelOpts::new().on_error(on_error).index(INDEX);
    let rel = Relation::open(gen, &opts).unwrap_or_else(|e| panic!("{ctx}: open: {e}"));
    assert!(rel.has_index(), "{ctx}: the committed index attaches");
    let base = rel.index_tree().expect("attached");
    let off = ScanOpts::new().on_error(on_error).index(IndexPolicy::Off);
    let force = off.clone().index(IndexPolicy::Force);
    let horizon = gen
        .tail()
        .iter()
        .map(|(_, c)| c.t_max.as_f64())
        .fold(40.0, f64::max);
    for p in 0..PROBES {
        let zone = rect(rng);
        let from = rng.below(horizon as u64) as f64;
        let window = Interval::closed(t(from), t(from + rng.range(0, 6) as f64));
        let at: Instant = t(rng.below(horizon as u64 + 2) as f64);
        let cases = [
            ("passes", Probe::Volume(Cube::new(zone.bbox(), &window))),
            ("filter_inside", Probe::Window(zone.bbox())),
            ("snapshot_at", Probe::At(at)),
        ];
        for (op, probe) in cases {
            let run = |o: &ScanOpts| match op {
                "passes" => rel.passes("trip", &zone, &window, o),
                "filter_inside" => rel.filter_inside("trip", &zone, o),
                _ => rel.snapshot_at(at, o),
            };
            let (want, _) = run(&off).unwrap_or_else(|e| panic!("{ctx} probe {p}: {op} off: {e}"));
            let (got, stats) =
                run(&force).unwrap_or_else(|e| panic!("{ctx} probe {p}: {op} forced: {e}"));
            assert_eq!(got, want, "{ctx} probe {p}: {op} pruned ≠ full");
            assert_eq!(stats.index_fallbacks, 0, "{ctx} probe {p}: {op} fell back");
            let cands = stats
                .candidates
                .unwrap_or_else(|| panic!("{ctx} probe {p}: {op} ran full"));
            let tail = gen
                .tail()
                .iter()
                .filter(|(_, c)| cube_hit(c, &probe))
                .count();
            let bound = tree_hits(base, &probe).tuples.len() + tail + quarantined;
            assert!(
                cands <= bound,
                "{ctx} probe {p}: {op} has {cands} candidates > base + tail + always = {bound}"
            );
            tally.checks += 1;
            tally.pruned += usize::from(cands < rel.len());
            tally.answered += usize::from(op != "snapshot_at" && !want.is_empty());
        }
    }
}

/// Flip one byte in the middle of `Q`'s unit array inside the snapshot
/// image, so a degraded open quarantines that blob and nothing else.
fn damage_q(dir: &MemIo, gen: &Generation) -> MemIo {
    let Some(RootRecord::MPoint(m)) = gen.get(Q) else {
        panic!("{Q} is an mpoint");
    };
    let recs: Vec<UPointRecord> = mob_storage::load_array(&m.units, gen.store()).expect("q units");
    let files = dir.dump();
    let newest = files
        .iter()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("snap-"))
        .max()
        .cloned();
    let copy = MemIo::new();
    let mut flipped = false;
    for (name, mut bytes) in files {
        if Some(&name) == newest.as_ref() {
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
        copy.write_file(&name, &bytes).expect("copy file");
    }
    assert!(flipped, "a record of {Q} lies inside one chunk");
    copy
}

fn run_seed(seed: u64, tally: &mut Tally) {
    let mut rng = Rng(seed);
    let dir = MemIo::new();
    let mut store = DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir.clone())
        .expect("fresh dir");
    let mut file = StoreFile::new();
    let mut tracks = Vec::new();
    for k in 0..rng.range(6, 14) {
        let start = (0, rng.range(-40, 40), rng.range(-40, 40));
        let legs = rng.below(8);
        let samples = walk(&mut rng, start, legs);
        let stored = save_mpoint(&mpoint(&samples), file.store_mut());
        file.put(format!("obj/{k:02}"), RootRecord::MPoint(stored));
        tracks.push(track_of(format!("obj/{k:02}"), &samples));
    }
    let zigzag: Vec<_> = (0..=Q_LEGS).map(|i| (i, 30 + i % 2, -30 - i % 3)).collect();
    let stored = save_mpoint(&mpoint(&zigzag), file.store_mut());
    file.put(Q, RootRecord::MPoint(stored));
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage fleet");
    txn.commit().expect("commit fleet");
    let opts = OpenRelOpts::new();
    let indexed = rebuild_index_root(&store.snapshot().expect("fleet"), &opts, INDEX)
        .expect("rebuild")
        .expect("an mpoint fleet");
    let mut txn = store.begin();
    txn.put_store_file(&indexed).expect("stage index");
    txn.commit().expect("commit index");
    let head = store.snapshot().expect("indexed");
    assert!(head.tail().is_empty(), "seed {seed}: a full snapshot");
    check(
        &format!("seed {seed} base"),
        &head,
        OnError::Fail,
        0,
        &mut rng,
        tally,
    );

    for d in 0..DELTAS {
        let mut txn = store.begin();
        for k in 0..rng.range(1, 6) {
            if rng.below(3) == 0 {
                let start = (rng.range(0, 30), rng.range(-40, 40), rng.range(-40, 40));
                let legs = rng.below(3);
                let samples = walk(&mut rng, start, legs);
                let name = format!("new/{d}/{k}");
                txn.append_units(&name, &units(&samples));
                tracks.push(track_of(name, &samples));
                continue;
            }
            let i = usize::try_from(rng.below(tracks.len() as u64)).expect("small");
            // Half the time the same root twice in one batch.
            for _ in 0..1 + rng.below(2) {
                let samples = continuation(&mut rng, &tracks[i]);
                txn.append_units(&tracks[i].name, &units(&samples));
                let name = tracks[i].name.clone();
                tracks[i] = track_of(name, &samples);
            }
        }
        txn.commit()
            .unwrap_or_else(|e| panic!("seed {seed} delta {d}: commit: {e}"));
        let head = store.snapshot().expect("head");
        check(
            &format!("seed {seed} delta {d}"),
            &head,
            OnError::Fail,
            0,
            &mut rng,
            tally,
        );
    }

    let live = store.snapshot().expect("live");
    drop(store);
    let reopened = DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir.clone())
        .expect("reopen");
    let replayed = reopened.snapshot().expect("replayed");
    assert_eq!(replayed.number(), live.number(), "seed {seed}: replay");
    assert_eq!(replayed.tail(), live.tail(), "seed {seed}: replayed tail");
    check(
        &format!("seed {seed} replay"),
        &replayed,
        OnError::Fail,
        0,
        &mut rng,
        tally,
    );

    let degraded = DurableStore::options()
        .chunk_size(CHUNK)
        .degraded(true)
        .open(damage_q(&dir, &live))
        .expect("degraded reopen");
    let damaged = degraded.snapshot().expect("degraded");
    assert_eq!(
        damaged.number(),
        live.number(),
        "seed {seed}: degraded replay"
    );
    let rel = Relation::open(
        &damaged,
        &OpenRelOpts::new().on_error(OnError::SkipAndRecord),
    )
    .expect("skip-and-record open");
    let hurt = rel
        .tuples()
        .iter()
        .filter(|tup| tup.values().iter().any(mob_rel::AttrValue::is_quarantined))
        .count();
    assert_eq!(hurt, 1, "seed {seed}: only {Q} is quarantined");
    check(
        &format!("seed {seed} degraded"),
        &damaged,
        OnError::SkipAndRecord,
        1,
        &mut rng,
        tally,
    );
}

#[test]
fn tail_index_answers_equal_full_scans_on_random_delta_chains() {
    let mut tally = Tally::default();
    for seed in 0..SEEDS {
        run_seed(seed, &mut tally);
    }
    assert!(
        tally.pruned * 2 > tally.checks && tally.answered > tally.checks / 10,
        "coverage: {} checks, {} pruned, {} non-empty selects",
        tally.checks,
        tally.pruned,
        tally.answered
    );
}

/// Four two-sample roots `F0..F3` over t 0–10, indexed and committed,
/// then one delta that carries `F0` off to (500, 500) over t 10–20 —
/// beyond every cube of the stored tree.
fn indexed_fleet_with_a_far_delta() -> DurableStore<MemIo> {
    let mut store = DurableStore::options()
        .chunk_size(CHUNK)
        .open(MemIo::new())
        .expect("fresh dir");
    let mut file = StoreFile::new();
    for k in 0..4 {
        let stored = save_mpoint(
            &mpoint(&[(0, 10 * k, 0), (10, 10 * k, 10)]),
            file.store_mut(),
        );
        file.put(format!("F{k}"), RootRecord::MPoint(stored));
    }
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage fleet");
    txn.commit().expect("commit fleet");
    commit_rebuilt_index(&mut store);
    let mut txn = store.begin();
    txn.append_units("F0", &units(&[(10, 0, 10), (20, 500, 500)]));
    txn.commit().expect("commit delta");
    store
}

/// Rebuild the index of the head and commit the result as a full image.
fn commit_rebuilt_index(store: &mut DurableStore<MemIo>) {
    let head = store.snapshot().expect("head");
    let indexed = rebuild_index_root(&head, &OpenRelOpts::new(), INDEX)
        .expect("rebuild")
        .expect("an mpoint fleet");
    let mut txn = store.begin();
    txn.put_store_file(&indexed).expect("stage index");
    txn.commit().expect("commit index");
}

/// `passes` through the far corner that only `F0`'s appended unit
/// reaches: the index, whatever the open attached, answers as a full
/// scan does.
fn assert_far_passes_match_full(gen: &Generation, ctx: &str) {
    let rel = Relation::open(gen, &OpenRelOpts::new().index(INDEX)).expect("open");
    let zone = Region::from_ring(rect_ring(400.0, 400.0, 600.0, 600.0));
    let window = Interval::closed(t(12.0), t(20.0));
    let off = ScanOpts::new().index(IndexPolicy::Off);
    let force = ScanOpts::new().index(IndexPolicy::Force);
    let (want, _) = rel.passes("trip", &zone, &window, &off).expect("full");
    let (got, _) = rel.passes("trip", &zone, &window, &force).expect("pruned");
    assert_eq!(want.len(), 1, "{ctx}: F0 passes the far corner");
    assert_eq!(got, want, "{ctx}: pruned ≠ full");
}

#[test]
fn a_full_image_of_a_delta_chain_drops_the_stale_index() {
    let mut store = indexed_fleet_with_a_far_delta();
    let head = store.snapshot().expect("head");
    assert!(!head.tail().is_empty());
    let mut txn = store.begin();
    txn.put_store_file(&head.to_store_file())
        .expect("stage image");
    txn.commit().expect("commit image");
    let snapshot = store.snapshot().expect("image");
    assert!(snapshot.tail().is_empty(), "a full snapshot");
    assert_far_passes_match_full(&snapshot, "full image");
    assert!(
        snapshot.get(INDEX).is_none(),
        "the image carries a stale tree"
    );
}

#[test]
fn rebuilding_an_existing_index_replaces_its_root() {
    let mut store = indexed_fleet_with_a_far_delta();
    // Once over the delta chain, once more over the fresh snapshot that
    // already holds the rebuilt tree.
    for round in 0..2 {
        commit_rebuilt_index(&mut store);
        let head = store.snapshot().expect("rebuilt");
        let named = head.entries().iter().filter(|(n, _)| n == INDEX).count();
        assert_eq!(named, 1, "round {round}: one entry named {INDEX}");
        assert_far_passes_match_full(&head, &format!("round {round}"));
    }
}
