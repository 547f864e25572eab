//! The root catalog's name index against a linear-scan reference.
//!
//! 1. **Differential appends**: random catalogs (duplicate names,
//!    non-mpoint roots) take random delta commits (unknown names, names
//!    repeated within a batch, seams, gaps, overlaps). After every
//!    commit the store's generation must match a reference that finds
//!    roots with a front-to-back scan: entries in order, the tail (every
//!    appended root with the union cube of its appended units, by name
//!    and, as a relation's row builder reads it, by catalog slot), `get`
//!    for every name, and the same verdict on every refused batch
//!    (kind mismatch, overlap), which must leave the store unchanged.
//!    Each case ends with a reopen that replays its delta chain in place
//!    to the same generation.
//! 2. **Replay**: a ~2k-root catalog plus a 3-delta chain reopens to a
//!    generation equal to the live one, tail cubes included.
//! 3. **Finger search**: [`Catalog::slot_from`] runs over batches in
//!    sorted, reverse-sorted and shuffled order, with duplicate and
//!    absent names, against the same front-to-back scan.

use mob_base::t;
use mob_core::{MovingPoint, UPoint, Unit};
use mob_spatial::{pt, Cube, Points};
use mob_storage::line_store::save_points;
use mob_storage::mapping_store::{save_mpoint, StoredMapping, UPointRecord};
use mob_storage::{
    load_array, save_array, Catalog, DurableStore, Finger, Generation, MemIo, RootRecord, StoreFile,
};
use proptest::prelude::TestRng;

/// Names `root/00..` below this bound may appear in a base catalog;
/// batches also draw a few names above it, which are always new.
const POOL: u64 = 12;
const UNKNOWN: u64 = 4;

fn name(k: u64) -> String {
    format!("root/{k:02}")
}

/// A catalog entry, decoded: an mpoint's units or any other root as is.
#[derive(Clone, Debug, PartialEq)]
enum Val {
    Units(Vec<UPointRecord>),
    Other(RootRecord),
}

fn records(units: &[UPoint]) -> Vec<UPointRecord> {
    units
        .iter()
        .map(|u| UPointRecord {
            interval: *u.interval(),
            motion: *u.motion(),
        })
        .collect()
}

/// A track of `legs` one-second legs starting at instant `from`.
fn track(rng: &mut TestRng, from: f64, legs: u64) -> Vec<UPoint> {
    let samples: Vec<_> = (0..=legs)
        .map(|i| {
            let (x, y) = (rng.below(40) as f64, rng.below(40) as f64);
            (t(from + i as f64), pt(x, y))
        })
        .collect();
    MovingPoint::from_samples(&samples).units().to_vec()
}

fn val(g: &Generation, root: &RootRecord) -> Val {
    match root {
        RootRecord::MPoint(m) => Val::Units(load_array(&m.units, g.store()).expect("units load")),
        other => Val::Other(other.clone()),
    }
}

fn decoded(g: &Generation) -> Vec<(String, Val)> {
    g.entries()
        .iter()
        .map(|(n, root)| (n.clone(), val(g, root)))
        .collect()
}

/// Why the reference refuses a batch.
#[derive(Debug, PartialEq)]
enum Refusal {
    KindMismatch,
    Splice,
}

/// The linear-scan reference: a decoded entry list and the tail.
#[derive(Clone)]
struct Reference {
    entries: Vec<(String, Val)>,
    tail: Vec<(String, Cube)>,
}

impl Reference {
    /// The first entry named `name`, by scanning front to back.
    fn first(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|(entry, _)| entry == name)
    }

    fn end_of(&self, name: &str) -> f64 {
        match self.first(name).map(|i| &self.entries[i].1) {
            Some(Val::Units(u)) => u.last().map_or(0.0, |l| l.interval.end().as_f64()),
            _ => 0.0,
        }
    }

    fn apply(&self, appends: &[(String, Vec<UPointRecord>)]) -> Result<Reference, Refusal> {
        let mut next = self.clone();
        for (name, recs) in appends {
            if recs.is_empty() {
                continue;
            }
            let at = next.first(name);
            let units = match at.map(|i| &next.entries[i].1) {
                Some(Val::Units(u)) => u.clone(),
                Some(Val::Other(_)) => return Err(Refusal::KindMismatch),
                None => Vec::new(),
            };
            let merged = Val::Units(append_one(&units, recs).ok_or(Refusal::Splice)?);
            match at {
                Some(i) => next.entries[i].1 = merged,
                None => next.entries.push((name.clone(), merged)),
            }
            let cube = recs
                .iter()
                .map(|r| UPoint::new(r.interval, r.motion).bounding_cube())
                .reduce(|a, b| a.union(&b))
                .expect("non-empty batch");
            match next.tail.iter_mut().find(|(n, _)| n == name) {
                Some((_, c)) => *c = c.union(&cube),
                None => next.tail.push((name.clone(), cube)),
            }
        }
        next.tail.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(next)
    }
}

/// Unit-level oracle: append `recs` to one mapping through a catalog
/// holding only that mapping, so no name search is involved.
fn append_one(units: &[UPointRecord], recs: &[UPointRecord]) -> Option<Vec<UPointRecord>> {
    let mut file = StoreFile::new();
    let saved = save_array(units, file.store_mut());
    let num_units = u32::try_from(units.len()).expect("small mapping");
    file.put(
        "one",
        RootRecord::MPoint(StoredMapping {
            num_units,
            units: saved,
        }),
    );
    let g = Generation::from_store_file(0, file, Vec::new());
    let next = g.apply_appends(1, &[("one".into(), recs.to_vec())]).ok()?;
    match next.get("one") {
        Some(RootRecord::MPoint(m)) => load_array(&m.units, next.store()).ok(),
        _ => None,
    }
}

/// A random base catalog: names from a small pool (so duplicates are
/// common), one root in five a non-mpoint.
fn random_catalog(rng: &mut TestRng) -> StoreFile {
    let mut file = StoreFile::new();
    for _ in 0..rng.below(24) {
        let n = name(rng.below(POOL));
        if rng.below(5) == 0 {
            let p = save_points(&Points::empty(), file.store_mut());
            file.put(n, RootRecord::Points(p));
        } else {
            let legs = 1 + rng.below(8);
            let samples: Vec<_> = (0..=legs)
                .map(|i| (t(i as f64), pt(rng.below(40) as f64, 0.0)))
                .collect();
            let stored = save_mpoint(&MovingPoint::from_samples(&samples), file.store_mut());
            file.put(n, RootRecord::MPoint(stored));
        }
    }
    file
}

/// A random batch: known and unknown names, some repeated, most
/// continuing their root at its end, some after a gap, a few
/// overlapping it, and the odd empty batch.
fn random_batch(rng: &mut TestRng, reference: &Reference) -> Vec<(String, Vec<UPoint>)> {
    let mut ends: Vec<(String, f64)> = Vec::new();
    (0..1 + rng.below(6))
        .map(|_| {
            let n = name(rng.below(POOL + UNKNOWN));
            let end = ends
                .iter()
                .find(|(e, _)| *e == n)
                .map_or_else(|| reference.end_of(&n), |&(_, end)| end);
            let start = match rng.below(8) {
                0 => end - 0.5,
                1 => end + 2.0,
                _ => end,
            };
            let legs = 1 + rng.below(4);
            let recs = if rng.below(12) == 0 {
                Vec::new()
            } else {
                track(rng, start, legs)
            };
            ends.retain(|(e, _)| *e != n);
            ends.push((n.clone(), start + legs as f64));
            (n, recs)
        })
        .collect()
}

fn assert_matches(g: &Generation, reference: &Reference) {
    assert_eq!(decoded(g), reference.entries, "entries in order");
    assert_eq!(g.tail(), reference.tail.as_slice(), "tail");
    // Tail by slot: the cube a relation's row builder reads for the
    // tuple of each slot is the by-name reference's cube of the slot's
    // name, duplicate names and roots the deltas created included.
    for (slot, (name, _)) in reference.entries.iter().enumerate() {
        let by_name = reference
            .tail
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c);
        assert_eq!(
            g.tail_cube_at(slot),
            by_name,
            "tail cube of slot {slot} ({name})"
        );
        assert_eq!(g.tail_cube(name), by_name, "tail cube of {name}");
    }
    assert_eq!(
        g.tail_cube_at(reference.entries.len()),
        None,
        "past the end"
    );
    // The serialized file rebuilds the same index on decode.
    let bytes = g.to_store_file().to_bytes().expect("encode");
    let reread = Generation::from_store_file(
        g.number(),
        StoreFile::from_bytes(&bytes).expect("decode"),
        Vec::new(),
    );
    for k in 0..POOL + UNKNOWN + 2 {
        let n = name(k);
        let want = reference.first(&n).map(|i| reference.entries[i].1.clone());
        assert_eq!(g.get(&n).map(|r| val(g, r)), want, "get({n})");
        assert_eq!(
            reread.get(&n).map(|r| val(&reread, r)),
            want,
            "decoded get({n})"
        );
    }
}

#[test]
fn catalog_index_matches_a_linear_scan_reference() {
    let mut rng = TestRng::deterministic();
    let (mut applied, mut kind, mut splice) = (0, 0, 0);
    for case in 0..96 {
        let io = MemIo::new();
        let mut store = DurableStore::options().open(io.clone()).expect("open");
        let mut txn = store.begin();
        txn.put_store_file(&random_catalog(&mut rng))
            .expect("stage");
        txn.commit().expect("base commit");
        let mut reference = Reference {
            entries: decoded(&store.snapshot().expect("base")),
            tail: Vec::new(),
        };
        for step in 0..8 {
            let batch = random_batch(&mut rng, &reference);
            let appends: Vec<_> = batch.iter().map(|(n, u)| (n.clone(), records(u))).collect();
            let mut txn = store.begin();
            for (n, units) in &batch {
                txn.append_units(n, units);
            }
            if txn.staged_units() == 0 {
                continue;
            }
            match (reference.apply(&appends), txn.commit()) {
                (Ok(next_ref), Ok(_)) => {
                    applied += 1;
                    reference = next_ref;
                }
                (Err(why), Err(err)) => {
                    let is_kind = err.to_string().contains("not an mpoint");
                    assert_eq!(
                        is_kind,
                        why == Refusal::KindMismatch,
                        "case {case} step {step}: {err}"
                    );
                    match why {
                        Refusal::KindMismatch => kind += 1,
                        Refusal::Splice => splice += 1,
                    }
                }
                (want, got) => panic!(
                    "case {case} step {step}: reference {:?}, indexed {:?}",
                    want.err(),
                    got.err()
                ),
            }
            // Refused or not, the head now matches the reference.
            assert_matches(&store.snapshot().expect("head"), &reference);
        }
        let live = store.snapshot().expect("live");
        drop(store);
        let replayed = DurableStore::options().open(io).expect("reopen");
        let replayed = replayed.snapshot().expect("replayed");
        assert_eq!(replayed.number(), live.number(), "case {case}");
        assert_matches(&replayed, &reference);
    }
    assert!(
        applied > 100 && kind > 5 && splice > 5,
        "coverage: {applied} applied, {kind} kind, {splice} splice"
    );
}

#[test]
fn catalog_replay_of_a_delta_chain_matches_the_live_generation() {
    const ROOTS: usize = 2_000;
    let io = MemIo::new();
    let mut store = DurableStore::options().open(io.clone()).expect("open");
    let mut file = StoreFile::new();
    for i in 0..ROOTS {
        let x = i as f64;
        let m = MovingPoint::from_samples(&[(t(0.0), pt(x, 0.0)), (t(1.0), pt(x, 1.0))]);
        let stored = save_mpoint(&m, file.store_mut());
        // Shuffled names: insertion order is not name order.
        file.put(
            format!("obj/{:05}", (i * 7919) % ROOTS),
            RootRecord::MPoint(stored),
        );
    }
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage");
    txn.commit().expect("snapshot commit");
    for d in 0..3 {
        let start = 1.0 + f64::from(d);
        // Every third root, plus one new root per delta.
        let mut names: Vec<String> = (0..ROOTS)
            .step_by(3)
            .map(|i| format!("obj/{:05}", (i * 7919) % ROOTS))
            .collect();
        names.push(format!("new/{d}"));
        let mut txn = store.begin();
        for (k, n) in names.iter().enumerate() {
            let x = k as f64;
            let m = MovingPoint::from_samples(&[
                (t(start), pt(x, start)),
                (t(start + 1.0), pt(x + 1.0, start)),
            ]);
            txn.append_units(n, m.units());
        }
        txn.commit().expect("delta commit");
    }
    let live = store.snapshot().expect("live");
    drop(store);
    let reopened = DurableStore::options().open(io).expect("reopen");
    assert_eq!(
        reopened.pending_deltas(),
        3,
        "the chain replays, not a snapshot"
    );
    let replayed = reopened.snapshot().expect("replayed");
    assert_eq!(replayed.number(), live.number());
    assert_eq!(replayed.entries(), live.entries());
    assert_eq!(decoded(&replayed), decoded(&live));
    assert_eq!(replayed.tail(), live.tail(), "names and tail cubes");
    assert_eq!(live.tail().len(), ROOTS.div_ceil(3) + 3);
    assert_eq!(live.entries().len(), ROOTS + 3);
}

/// Every lookup of a `slot_from` run over `batch` agrees with the
/// first occurrence a front-to-back scan finds.
fn assert_finger_run(cat: &Catalog, batch: &[String], ctx: &str) {
    let mut finger = Finger::default();
    for (i, n) in batch.iter().enumerate() {
        let want = cat.entries().iter().position(|(e, _)| e == n);
        assert_eq!(
            cat.slot_from(n, &mut finger),
            want,
            "{ctx}: lookup {i} of {n:?}"
        );
        assert_eq!(cat.slot(n), want, "{ctx}: plain lookup of {n:?}");
    }
}

#[test]
fn finger_search_matches_a_linear_scan_in_any_batch_order() {
    let mut rng = TestRng::deterministic();
    let mut probes = 0;
    for case in 0..200 {
        // Names from a pool twice the catalog's size: duplicates in the
        // catalog, absent names in the batches.
        let pool = 1 + rng.below(300);
        let named = |k: u64| format!("obj/{k:04}");
        let entries: Vec<(String, RootRecord)> = (0..rng.below(pool + 1))
            .map(|_| {
                let units = save_array::<UPointRecord>(&[], StoreFile::new().store_mut());
                let root = RootRecord::MPoint(StoredMapping {
                    num_units: 0,
                    units,
                });
                (named(rng.below(pool)), root)
            })
            .collect();
        // Built from a list, filled by pushes, and merged by `append`.
        let built = Catalog::from_entries(entries.clone());
        let mut pushed = Catalog::new();
        let mut appended = Catalog::from_entries(entries[..entries.len() / 2].to_vec());
        let mut rest = Catalog::new();
        for (i, (n, root)) in entries.iter().enumerate() {
            pushed.push(n.clone(), root.clone());
            if i >= entries.len() / 2 {
                rest.push(n.clone(), root.clone());
            }
        }
        appended.append(rest);
        let mut batch: Vec<String> = (0..rng.below(2 * pool + 1))
            .map(|_| named(rng.below(2 * pool)))
            .collect();
        batch.sort();
        let mut reversed = batch.clone();
        reversed.reverse();
        let mut shuffled = batch.clone();
        for i in (1..shuffled.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            shuffled.swap(i, j);
        }
        for cat in [&built, &pushed, &appended] {
            assert_eq!(cat.entries(), built.entries());
            for (order, names) in [
                ("sorted", &batch),
                ("reverse-sorted", &reversed),
                ("shuffled", &shuffled),
            ] {
                assert_finger_run(cat, names, &format!("case {case}, {order}"));
                probes += names.len();
            }
        }
    }
    assert!(probes > 50_000, "{probes} probes");
}
