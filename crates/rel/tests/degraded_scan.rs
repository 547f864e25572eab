//! End-to-end graceful degradation: **bit rot → quarantine → healthy
//! answers**.
//!
//! A plane fleet is committed durably; reads then go through a
//! [`FaultyIo`] that flips bits deterministically. The acceptance
//! criterion under test: opening degraded and scanning with
//! [`OnError::SkipAndRecord`] returns exactly the healthy tuples —
//! byte-identical to a clean run — with
//! [`QueryStats::tuples_quarantined`](mob_rel::QueryStats) matching the
//! injected damage, while the default [`OnError::Fail`] refuses loudly
//! at both the open and the scan.

use mob_base::t;
use mob_core::MovingPoint;
use mob_rel::{AttrValue, OnError, OpenRelOpts, Relation, ScanOpts, Tuple};
use mob_spatial::pt;
use mob_storage::mapping_store::save_mpoint;
use mob_storage::{
    DurableStore, FaultyIo, Generation, MemIo, PageStore, Placement, RootRecord, StoreFile, StoreIo,
};

/// An independent copy of an in-memory directory. [`MemIo::clone`]
/// shares storage, and recovery *prunes* snapshots it finds damaged —
/// under read-flips a pruning open would eat the (actually healthy)
/// snapshot out from under later seeds.
fn deep_copy(dir: &MemIo) -> MemIo {
    let copy = MemIo::new();
    for (name, bytes) in dir.dump() {
        copy.write_file(&name, &bytes).expect("copy file");
    }
    copy
}

const CHUNK: usize = 128;
const FLIGHTS: usize = 6;
const LEGS: usize = 48;
const FLIPS: u32 = 6;

/// Commit a fleet of `FLIGHTS` moving points into a fresh durable
/// directory. Every unit array must land in an external blob: the
/// degradation contract quarantines *blob* damage and hard-fails
/// structural damage, and the test relies on that split.
fn committed_dir() -> MemIo {
    let mut file = StoreFile::new();
    for k in 0..FLIGHTS {
        let x0 = k as f64;
        // Zigzag so no two legs are colinear: every sample becomes its
        // own unit, keeping the unit array big enough to stay external.
        let samples: Vec<_> = (0..LEGS)
            .map(|i| (t(i as f64), pt(x0 + (i % 2) as f64, i as f64 * 0.5)))
            .collect();
        let stored = save_mpoint(&MovingPoint::from_samples(&samples), file.store_mut());
        assert!(
            !stored.units.is_inline(),
            "test premise: unit arrays live in external blobs"
        );
        file.put(format!("F{k}"), RootRecord::MPoint(stored));
    }
    let dir = MemIo::new();
    let mut store = DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir.clone())
        .expect("fresh dir");
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage fleet");
    txn.commit().expect("commit fleet");
    dir
}

/// Open options matching the fleet catalog.
fn rel_opts() -> OpenRelOpts {
    OpenRelOpts::new()
}

/// The flights whose unit blob was quarantined by the degraded open.
fn damaged_flights(gen: &Generation, store: &PageStore) -> Vec<String> {
    gen.entries()
        .iter()
        .filter_map(|(name, root)| {
            let RootRecord::MPoint(m) = root else {
                panic!("fleet holds only mpoints");
            };
            match &m.units.placement {
                Placement::External(id) if store.is_quarantined(*id) => Some(name.clone()),
                _ => None,
            }
        })
        .collect()
}

#[test]
fn bit_rot_scans_skip_and_record_exactly_the_damage() {
    let dir = committed_dir();
    let probe = t(7.5);

    // Clean baseline: strict open, strict scan.
    let clean = DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir.clone())
        .expect("clean open");
    let baseline = Relation::open(&clean.snapshot().expect("committed"), &rel_opts())
        .expect("clean store opens strictly");
    let (base_snap, _) = baseline
        .snapshot_at(probe, &ScanOpts::default())
        .expect("clean scan");
    assert_eq!(base_snap.len(), FLIGHTS);

    let mut opens_ok = 0u32;
    let mut seeds_with_damage = 0u32;
    for seed in 0..120u64 {
        let faulty = FaultyIo::with_read_flips(deep_copy(&dir), FLIPS, seed);
        let degraded = DurableStore::options()
            .chunk_size(CHUNK)
            .degraded(true)
            .open(faulty);
        let snap = match degraded {
            Ok(s) if s.generation() > 0 => s.snapshot().expect("store-file payload"),
            _ => {
                // The flips hit structural bytes (catalog, blob table):
                // refusing the degraded open is the correct loud outcome.
                // The strict open must not hand out a generation either —
                // it may error, or prune the seemingly-torn snapshot and
                // report an empty directory, but never serve damaged data.
                let strict = FaultyIo::with_read_flips(deep_copy(&dir), FLIPS, seed);
                let served = DurableStore::options()
                    .chunk_size(CHUNK)
                    .open(strict)
                    .is_ok_and(|s| s.generation() > 0);
                assert!(
                    !served,
                    "seed {seed}: degraded open failed but strict served a file"
                );
                continue;
            }
        };
        opens_ok += 1;
        let expected = damaged_flights(&snap, snap.store());

        let strict = Relation::open(&snap, &rel_opts());
        if expected.is_empty() {
            // Flips cancelled out or hit bytes no tuple references.
            assert!(strict.is_ok(), "seed {seed}: no damage, strict must open");
            continue;
        }
        seeds_with_damage += 1;
        assert!(
            strict.is_err(),
            "seed {seed}: quarantined blob must fail the strict open"
        );

        // Degraded open keeps every tuple, damaged values placeholdered.
        let rel = Relation::open(&snap, &rel_opts().on_error(OnError::SkipAndRecord))
            .expect("degraded open tolerates quarantined blobs");
        assert_eq!(rel.len(), FLIGHTS);
        let damaged: Vec<String> = rel
            .tuples()
            .iter()
            .filter(|tup| tup.values().iter().any(AttrValue::is_quarantined))
            .filter_map(|tup| tup.at(0).as_str().map(str::to_owned))
            .collect();
        assert_eq!(damaged, expected, "seed {seed}: quarantine accounting");

        // Fail policy at scan time: loud error naming the damage.
        assert!(
            rel.snapshot_at(probe, &ScanOpts::default()).is_err(),
            "seed {seed}: default policy must refuse a damaged scan"
        );

        // SkipAndRecord: exactly the healthy tuples, exactly counted.
        let opts = ScanOpts::new().on_error(OnError::SkipAndRecord);
        let (snap, stats) = rel.snapshot_at(probe, &opts).expect("degraded scan");
        assert_eq!(
            stats.tuples_quarantined,
            expected.len() as u64,
            "seed {seed}"
        );
        assert_eq!(snap.len(), FLIGHTS - expected.len(), "seed {seed}");
        let healthy: Vec<&Tuple> = base_snap
            .tuples()
            .iter()
            .filter(|tup| {
                !expected
                    .iter()
                    .any(|n| tup.at(0).as_str() == Some(n.as_str()))
            })
            .collect();
        assert_eq!(
            snap.tuples().iter().collect::<Vec<_>>(),
            healthy,
            "seed {seed}: surviving tuples must match the clean baseline"
        );
    }
    assert!(opens_ok >= 10, "only {opens_ok} degraded opens succeeded");
    assert!(
        seeds_with_damage >= 5,
        "only {seeds_with_damage} seeds quarantined a blob — campaign too weak"
    );
}
