//! Differential: **one maintenance commit writes what compaction plus a
//! rebuild commit wrote.**
//!
//! Twin in-memory stores hold one seeded delta chain over an indexed
//! fleet. One runs the single maintenance commit
//! ([`DurableStore::compact_with`] with the index rebuilder); the other
//! runs the two-commit sequence through the public API: `compact()`,
//! then the rebuilder's file committed with `Txn::put_store_file`. The
//! two heads' full images must be byte-identical, the single commit must
//! leave one snapshot file (recovery finds no fallback), and pruned
//! scans on its head must answer like full ones, reopened too. A
//! generation holding a quarantined blob still refuses the compaction
//! rewrite, and the maintenance commit over it leaves the chain alone.
//!
//! Every failure names its seed.

use mob_base::{t, DecodeError, Interval, TimeInterval};
use mob_core::MovingPoint;
use mob_rel::{index_rebuilder, IndexPolicy, OnError, OpenRelOpts, Relation, ScanOpts};
use mob_spatial::{pt, rect_ring, Region};
use mob_storage::mapping_store::{save_mpoint, UPointRecord};
use mob_storage::{
    load_array, recover, DurableStore, Fate, FixedRecord, Generation, MemIo, RootRecord, StoreFile,
    StoreIo,
};

const SEEDS: u64 = 10;
const CHUNK: usize = 128;
const DELTAS: usize = 6;
const PROBES: usize = 6;
const INDEX: &str = "fleet/index";

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

/// A random walk of `legs` one-second legs from `(t, x, y)`.
fn walk(rng: &mut Rng, start: (i64, i64, i64), legs: i64) -> MovingPoint {
    let mut s = vec![start];
    for _ in 0..legs {
        let &(ti, x, y) = s.last().expect("non-empty");
        s.push((ti + 1, x + rng.range(-3, 3), y + rng.range(-3, 3)));
    }
    let samples: Vec<_> = s
        .iter()
        .map(|&(ti, x, y)| (t(ti as f64), pt(x as f64, y as f64)))
        .collect();
    MovingPoint::from_samples(&samples)
}

fn store_on(dir: &MemIo) -> DurableStore<MemIo> {
    DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir.clone())
        .expect("open dir")
}

fn copy_dir(dir: &MemIo) -> MemIo {
    let copy = MemIo::new();
    for (name, bytes) in dir.dump() {
        copy.write_file(&name, &bytes).expect("copy file");
    }
    copy
}

fn rebuilder() -> mob_storage::Rebuilder {
    index_rebuilder(
        OpenRelOpts::new().on_error(OnError::SkipAndRecord),
        INDEX.to_string(),
    )
}

/// A seeded fleet committed with its index, then `DELTAS` delta commits
/// that extend some objects (some after a gap) and create a few.
fn seeded_chain(seed: u64) -> MemIo {
    let mut rng = Rng(seed);
    let dir = MemIo::new();
    let mut store = store_on(&dir);
    let mut file = StoreFile::new();
    let objects = rng.range(8, 40);
    for k in 0..objects {
        let start = (0, rng.range(-40, 40), rng.range(-40, 40));
        let legs = rng.range(1, 90);
        let stored = save_mpoint(&walk(&mut rng, start, legs), file.store_mut());
        file.put(format!("obj/{k:02}"), RootRecord::MPoint(stored));
    }
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage fleet");
    txn.commit().expect("commit fleet");
    store.compact_with(Some(&rebuilder())).expect("index fleet");
    for d in 0..DELTAS {
        let mut txn = store.begin();
        for k in 0..rng.range(1, 6) {
            let legs = rng.range(1, 3);
            if rng.range(0, 4) == 0 {
                let start = (rng.range(90, 100), rng.range(-40, 40), rng.range(-40, 40));
                txn.append_units(&format!("new/{d}/{k}"), walk(&mut rng, start, legs).units());
            } else {
                let start = (100 + 30 * d as i64 + 4 * k + rng.range(0, 1), 0, 0);
                let name = format!("obj/{:02}", rng.range(0, objects - 1));
                txn.append_units(&name, walk(&mut rng, start, legs).units());
            }
        }
        txn.commit()
            .unwrap_or_else(|e| panic!("seed {seed} delta {d}: {e}"));
    }
    dir
}

/// `(passes, filter_inside)` row counts and names per probe, under
/// `policy`.
fn answers(
    ctx: &str,
    rel: &Relation,
    policy: IndexPolicy,
    probes: &[(Region, TimeInterval)],
) -> Vec<Vec<String>> {
    let o = ScanOpts::new().index(policy);
    let mut out = Vec::new();
    for (p, (zone, window)) in probes.iter().enumerate() {
        for (op, res) in [
            ("passes", rel.passes("trip", zone, window, &o)),
            ("filter_inside", rel.filter_inside("trip", zone, &o)),
        ] {
            let (got, stats) = res.unwrap_or_else(|e| panic!("{ctx} probe {p}: {op}: {e}"));
            if policy == IndexPolicy::Force {
                assert_eq!(stats.index_fallbacks, 0, "{ctx} probe {p}: {op} fell back");
            }
            out.push(
                got.tuples()
                    .iter()
                    .map(|tup| format!("{:?}", tup.values().first()))
                    .collect(),
            );
        }
    }
    out
}

/// Pruned ≡ full on `head` for seeded probes; returns the rows found.
fn assert_pruned_is_full(ctx: &str, head: &Generation, rng: &mut Rng) -> usize {
    let probes: Vec<_> = (0..PROBES)
        .map(|_| {
            let (x, y) = (rng.range(-60, 50) as f64, rng.range(-60, 50) as f64);
            let side = rng.range(3, 30) as f64;
            let from = rng.range(0, 280) as f64;
            (
                Region::from_ring(rect_ring(x, y, x + side, y + side)),
                Interval::closed(t(from), t(from + rng.range(0, 20) as f64)),
            )
        })
        .collect();
    let rel = Relation::open(head, &OpenRelOpts::new().index(INDEX)).expect("open indexed");
    assert!(rel.has_index(), "{ctx}: the committed index attaches");
    let full = answers(ctx, &rel, IndexPolicy::Off, &probes);
    assert_eq!(
        answers(ctx, &rel, IndexPolicy::Force, &probes),
        full,
        "{ctx}: pruned ≠ full"
    );
    full.iter().map(Vec::len).sum()
}

fn fallbacks(dir: &MemIo) -> usize {
    let (_, recovery) = recover(dir, false).expect("recover");
    recovery
        .files
        .iter()
        .filter(|f| f.fate == Fate::Fallback)
        .count()
}

#[test]
fn one_maintenance_commit_equals_compaction_then_a_rebuild_commit() {
    let mut rows = 0;
    for seed in 0..SEEDS {
        let chain = seeded_chain(seed);
        let (one_dir, two_dir) = (copy_dir(&chain), copy_dir(&chain));
        let (mut one, mut two) = (store_on(&one_dir), store_on(&two_dir));
        let base = one.generation();
        assert_eq!(one.pending_deltas(), DELTAS as u64, "seed {seed}");

        let (committed, rebuilt) = one
            .compact_with(Some(&rebuilder()))
            .unwrap_or_else(|e| panic!("seed {seed}: maintenance commit: {e}"));
        assert_eq!((committed, rebuilt), (base + 1, true), "seed {seed}");

        two.compact().expect("compact");
        let file = rebuilder()(&two.snapshot().expect("compacted"))
            .expect("rebuild")
            .expect("an mpoint fleet");
        let mut txn = two.begin();
        txn.put_store_file(&file).expect("stage index");
        assert_eq!(txn.commit().expect("commit index"), base + 2, "seed {seed}");

        let (a, b) = (one.snapshot().expect("one"), two.snapshot().expect("two"));
        assert_eq!(
            a.to_store_file().to_bytes().expect("one encodes"),
            b.to_store_file().to_bytes().expect("two encodes"),
            "seed {seed}: the single commit wrote another image"
        );
        assert_eq!(one.pending_deltas(), 0, "seed {seed}");
        assert_eq!(fallbacks(&one_dir), 0, "seed {seed}: one snapshot kept");
        assert_eq!(fallbacks(&two_dir), 1, "seed {seed}: the compaction stays");

        let mut rng = Rng(seed ^ 0x5eed);
        rows += assert_pruned_is_full(&format!("seed {seed} live"), &a, &mut rng);
        let reopened = store_on(&copy_dir(&one_dir)).snapshot().expect("reopen");
        assert_eq!(reopened.number(), base + 1, "seed {seed}");
        rows += assert_pruned_is_full(&format!("seed {seed} reopened"), &reopened, &mut rng);
    }
    assert!(rows >= SEEDS as usize, "the probes found only {rows} rows");
}

/// A copy of `dir` with one byte flipped inside a record of the first
/// external unit array of its newest snapshot `g`.
fn damage(dir: &MemIo, g: &Generation) -> MemIo {
    let units = g
        .entries()
        .iter()
        .find_map(|(_, root)| match root {
            RootRecord::MPoint(m) if !m.units.is_inline() => Some(&m.units),
            _ => None,
        })
        .expect("an external unit array");
    let recs: Vec<UPointRecord> = load_array(units, g.store()).expect("units");
    let copy = MemIo::new();
    let mut flipped = false;
    for (f, mut bytes) in dir.dump() {
        if f.starts_with("snap-") {
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
    assert!(flipped, "a record lies inside one chunk");
    copy
}

#[test]
fn a_quarantined_blob_refuses_the_rewrite_and_the_maintenance_commit() {
    let dir = copy_dir(&seeded_chain(3));
    let mut store = store_on(&dir);
    store
        .compact_with(Some(&rebuilder()))
        .expect("fold the chain");
    let hurt = damage(&dir, &store.snapshot().expect("head"));
    let mut degraded = DurableStore::options()
        .chunk_size(CHUNK)
        .degraded(true)
        .open(hurt.clone())
        .expect("degraded open");
    let head = degraded.snapshot().expect("degraded head");
    assert!(
        !head.quarantined().is_empty(),
        "the flip quarantines a blob"
    );
    assert!(matches!(
        head.rebuild_store_file(),
        Err(DecodeError::Quarantined { .. })
    ));
    let before = hurt.dump();
    assert!(matches!(
        degraded.compact_with(Some(&rebuilder())),
        Err(DecodeError::Quarantined { .. })
    ));
    assert_eq!(hurt.dump(), before, "a refused commit writes nothing");
    assert_eq!(degraded.generation(), head.number());
}
