//! Delta-chain replay against a per-delta reference model.
//!
//! Recovery replays a whole delta chain in one session: each touched
//! root gets the check `Relation::open` would give it once, every batch
//! is checked and spliced at its seam only, and each root is written
//! once at the end. The reference here is the rule that session must
//! reproduce, applied the slow way: for each delta and each batch,
//! `units = splice_units(seam(units) ++ records)`, a refused batch
//! refusing its whole delta and ending the chain.
//!
//! Every chain is committed through a live [`DurableStore`] (a delta
//! the live store refuses is written into the directory from a sibling
//! directory, so recovery meets it), then recovered. The recovered head
//! must equal the reference and the live head field by field — catalog
//! names in order, kinds, `num_units`, every decoded unit array, the
//! tail, `number()` and `snapshot_roots()` — and every delta file's fate
//! must be the one the reference predicts, a refused one with the error
//! the live commit gave. Arrays are both inline and external, so the
//! physical blob ids of replay and live commits differ and only this
//! logical comparison holds. Failures name their seed.

use mob_base::{t, Real, TimeInterval};
use mob_core::{MovingPoint, PointMotion, UPoint, Unit};
use mob_spatial::{pt, Cube};
use mob_storage::mapping_store::{StoredMapping, UPointRecord};
use mob_storage::{
    delta_name, load_array, open_mpoint, recover, save_array, splice_units, Discard, DurableStore,
    Fate, FixedRecord, Generation, MemIo, RootRecord, StoreFile, StoreIo, Verify, INLINE_THRESHOLD,
};

/// A tiny seeded generator (splitmix64), so a failing case is replayed
/// from the seed its message prints.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

type Batch = (String, Vec<UPointRecord>);

/// A base snapshot (stored arrays as given, forged or not) and the
/// deltas committed on top of it.
struct Chain {
    base: Vec<Batch>,
    deltas: Vec<Vec<Batch>>,
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

/// The units of a trajectory through `samples` `(t, x, y)`.
fn track(samples: &[(f64, f64, f64)]) -> Vec<UPointRecord> {
    let s: Vec<_> = samples
        .iter()
        .map(|&(ti, x, y)| (t(ti), pt(x, y)))
        .collect();
    records(MovingPoint::from_samples(&s).units())
}

fn motion(x0: f64, x1: f64, y0: f64, y1: f64) -> PointMotion {
    PointMotion::new(Real::new(x0), Real::new(x1), Real::new(y0), Real::new(y1))
}

fn unit(interval: TimeInterval, m: PointMotion) -> UPointRecord {
    UPointRecord {
        interval,
        motion: m,
    }
}

fn cube(r: &UPointRecord) -> Cube {
    UPoint::new(r.interval, r.motion).bounding_cube()
}

/// Test-local seam rule: a stored point tail is replaced by a
/// continuation starting at its instant, a stored right-closed tail is
/// trimmed to right-open when the continuation is left-closed there.
fn seam(mut units: Vec<UPointRecord>, batch: &[UPointRecord]) -> Result<Vec<UPointRecord>, String> {
    let (Some(first), Some(last)) = (batch.first(), units.last().copied()) else {
        return Ok(units);
    };
    if first.interval.start() != last.interval.end() || !first.interval.left_closed() {
        return Ok(units);
    }
    if last.interval.is_point() {
        units.pop();
    } else if last.interval.right_closed() {
        let trimmed = TimeInterval::try_new(
            *last.interval.start(),
            *last.interval.end(),
            last.interval.left_closed(),
            false,
        )
        .map_err(|e| e.to_string())?;
        if let Some(l) = units.last_mut() {
            l.interval = trimmed;
        }
    }
    Ok(units)
}

/// The reference: entries with first-occurrence lookup, and the tail.
#[derive(Clone, Debug, PartialEq)]
struct Model {
    entries: Vec<(String, Vec<UPointRecord>)>,
    tail: Vec<(String, Cube)>,
}

impl Model {
    fn apply(&self, delta: &[Batch]) -> Result<Model, String> {
        let mut next = self.clone();
        for (name, recs) in delta {
            if recs.is_empty() {
                continue;
            }
            let at = next.entries.iter().position(|(n, _)| n == name);
            let units = at.map_or_else(Vec::new, |i| next.entries[i].1.clone());
            let mut units = seam(units, recs)?;
            units.extend_from_slice(recs);
            let units = splice_units(units).map_err(|e| e.to_string())?;
            match at {
                Some(i) => next.entries[i].1 = units,
                None => next.entries.push((name.clone(), units)),
            }
            let grown = recs
                .iter()
                .map(cube)
                .reduce(|a, b| a.union(&b))
                .expect("non-empty batch");
            match next.tail.iter_mut().find(|(n, _)| n == name) {
                Some((_, c)) => *c = c.union(&grown),
                None => next.tail.push((name.clone(), grown)),
            }
        }
        next.tail.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(next)
    }
}

/// A generation's content, decoded: name, kind, `num_units`, units.
type Logical = Vec<(String, &'static str, u32, Vec<UPointRecord>)>;

fn logical(g: &Generation) -> Logical {
    g.entries()
        .iter()
        .map(|(name, root)| match root {
            RootRecord::MPoint(m) => (
                name.clone(),
                root.kind_name(),
                m.num_units,
                load_array(&m.units, g.store()).expect("stored units decode"),
            ),
            other => panic!("{name}: unexpected {} root", other.kind_name()),
        })
        .collect()
}

fn expected(model: &Model) -> Logical {
    model
        .entries
        .iter()
        .map(|(name, units)| {
            let n = u32::try_from(units.len()).expect("small mapping");
            (name.clone(), "mpoint", n, units.clone())
        })
        .collect()
}

fn commit_appends<I: StoreIo>(store: &mut DurableStore<I>, delta: &[Batch]) -> Result<u64, String> {
    let mut txn = store.begin();
    for (name, recs) in delta {
        let units: Vec<UPoint> = recs
            .iter()
            .map(|r| UPoint::new(r.interval, r.motion))
            .collect();
        txn.append_units(name, &units);
    }
    txn.commit().map_err(|e| e.to_string())
}

/// The bytes of a delta file for generation `g` carrying `delta`,
/// committed in a fresh sibling directory where every root it names is
/// new (so the live store there accepts it).
fn forged_delta(g: u64, delta: &[Batch]) -> Vec<u8> {
    let io = MemIo::new();
    let mut store = DurableStore::options().open(io.clone()).expect("sibling");
    let mut txn = store.begin();
    txn.put_store_file(&StoreFile::new()).expect("stage");
    txn.commit().expect("sibling base");
    for k in 2..g {
        let pad = track(&[(k as f64, 0.0, 0.0), (k as f64 + 1.0, 1.0, 0.0)]);
        commit_appends(&mut store, &[("zz/pad".to_string(), pad)]).expect("sibling pad");
    }
    assert_eq!(commit_appends(&mut store, delta), Ok(g), "sibling delta");
    io.read_file(&delta_name(g)).expect("sibling delta file")
}

/// What a chain did: deltas replayed, and the reason recovery gave
/// for the refused delta, if one was.
#[derive(Debug, PartialEq)]
struct Outcome {
    replayed: usize,
    refused: Option<String>,
}

/// Commit `chain` live, recover it, and hold the recovered head to the
/// reference and to the live head (see the module docs).
fn check_chain(chain: &Chain, ctx: &str) -> Outcome {
    let io = MemIo::new();
    let mut store = DurableStore::options().open(io.clone()).expect("open");
    let mut file = StoreFile::new();
    for (name, recs) in &chain.base {
        let units = save_array(recs, file.store_mut());
        let num_units = u32::try_from(recs.len()).expect("small mapping");
        file.put(
            name.clone(),
            RootRecord::MPoint(StoredMapping { num_units, units }),
        );
    }
    let mut txn = store.begin();
    txn.put_store_file(&file).expect("stage");
    txn.commit().expect("base commit");
    let mut model = Model {
        entries: chain.base.clone(),
        tail: Vec::new(),
    };
    // Expected fate per delta file: `Some(batches)` replays, `None`
    // is refused.
    let mut fates: Vec<(String, Option<usize>)> = Vec::new();
    let mut refused = false;
    // The live commit's error for the refused delta.
    let mut live_error = String::new();
    for (i, delta) in chain.deltas.iter().enumerate() {
        let g = 2 + i as u64;
        let want = model.apply(delta);
        let got = commit_appends(&mut store, delta);
        match (want, got) {
            (Ok(next), Ok(committed)) => {
                assert_eq!(committed, g, "{ctx}: delta {i} generation");
                model = next;
                fates.push((delta_name(g), Some(delta.len())));
            }
            (Err(_), Err(e)) => {
                live_error = e;
                io.write_file(&delta_name(g), &forged_delta(g, delta))
                    .expect("write forged delta");
                fates.push((delta_name(g), None));
                refused = true;
                break;
            }
            (want, got) => panic!("{ctx}: delta {i}: reference {want:?}, live {got:?}"),
        }
    }
    if refused {
        // A delta above the refused one is never read: a chain gap.
        let g = 2 + fates.len() as u64;
        io.write_file(&delta_name(g), b"never read").expect("write");
    }
    let live = store.snapshot().expect("live head");
    drop(store);

    let (head, recovery) = recover(&io, false).expect("recover");
    let mut reason = None;
    for (name, want) in &fates {
        let fate = recovery
            .files
            .iter()
            .find(|f| &f.name == name)
            .map(|f| &f.fate);
        match (want, fate) {
            (Some(batches), Some(Fate::Replayed { batches: b, bytes })) => {
                assert_eq!(b, batches, "{ctx}: {name} batches");
                let len = io.read_file(name).expect("delta file").len() as u64;
                assert_eq!(*bytes, len, "{ctx}: {name} bytes");
            }
            (None, Some(Fate::Discarded(Discard::Inapplicable(why)))) => {
                assert_eq!(why, &live_error, "{ctx}: {name}: recovery vs live refusal");
                reason = Some(why.clone());
            }
            (want, fate) => panic!("{ctx}: {name}: expected {want:?}, recovered {fate:?}"),
        }
    }
    if refused {
        let gap = delta_name(2 + fates.len() as u64);
        let fate = recovery
            .files
            .iter()
            .find(|f| f.name == gap)
            .map(|f| &f.fate);
        assert_eq!(
            fate,
            Some(&Fate::Discarded(Discard::ChainGap)),
            "{ctx}: {gap}"
        );
    }

    let want = expected(&model);
    assert_eq!(logical(&head), want, "{ctx}: replayed head vs reference");
    assert_eq!(logical(&live), want, "{ctx}: live head vs reference");
    assert_eq!(head.tail(), model.tail.as_slice(), "{ctx}: replayed tail");
    assert_eq!(live.tail(), model.tail.as_slice(), "{ctx}: live tail");
    assert_eq!(head.number(), live.number(), "{ctx}: number");
    assert_eq!(head.number(), 1 + fates.len() as u64 - u64::from(refused));
    assert_eq!(head.snapshot_roots(), live.snapshot_roots(), "{ctx}");
    assert_eq!(head.snapshot_roots(), chain.base.len(), "{ctx}");
    // Name lookups agree with the first occurrence in the reference.
    for (name, _) in &model.entries {
        let found = match head.get(name) {
            Some(RootRecord::MPoint(m)) => load_array(&m.units, head.store()).ok(),
            _ => None,
        };
        let first = model
            .entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, u)| u);
        assert_eq!(found.as_ref(), first, "{ctx}: get({name})");
    }
    Outcome {
        replayed: fates.len() - usize::from(refused),
        refused: reason,
    }
}

fn one(name: &str, recs: Vec<UPointRecord>) -> Batch {
    (name.to_string(), recs)
}

#[test]
fn point_tail_replacement() {
    let chain = Chain {
        base: vec![one("car", track(&[(0.0, 0.0, 0.0)]))],
        deltas: vec![
            vec![one("car", track(&[(0.0, 0.0, 0.0), (1.0, 2.0, 0.0)]))],
            vec![one("car", track(&[(1.0, 2.0, 0.0), (2.0, 2.0, 3.0)]))],
        ],
    };
    assert!(chain.base[0].1[0].interval.is_point());
    let out = check_chain(&chain, "point tail");
    assert_eq!(out.replayed, 2);
}

#[test]
fn right_closed_trim() {
    let base = track(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
    assert!(base[0].interval.right_closed());
    let chain = Chain {
        base: vec![one("car", base)],
        deltas: vec![
            vec![one("car", track(&[(1.0, 1.0, 0.0), (2.0, 1.0, 5.0)]))],
            vec![one("car", track(&[(2.0, 1.0, 5.0), (3.0, -4.0, 5.0)]))],
        ],
    };
    check_chain(&chain, "trim");
}

#[test]
fn iota_merge_across_a_delta_boundary() {
    // x = t throughout: each delta's unit continues the last one with
    // the same motion, so the replayed root stays one unit.
    let m = motion(0.0, 1.0, 0.0, 0.0);
    let chain = Chain {
        base: vec![one(
            "car",
            vec![unit(TimeInterval::closed(t(0.0), t(1.0)), m)],
        )],
        deltas: (1..4)
            .map(|k| {
                let k = f64::from(k);
                vec![one(
                    "car",
                    vec![unit(TimeInterval::closed(t(k), t(k + 1.0)), m)],
                )]
            })
            .collect(),
    };
    check_chain(&chain, "merge");
    let mut model = Model {
        entries: chain.base.clone(),
        tail: Vec::new(),
    };
    for d in &chain.deltas {
        model = model.apply(d).expect("applies");
    }
    assert_eq!(
        model.entries[0].1,
        [unit(TimeInterval::closed(t(0.0), t(4.0)), m)]
    );
}

#[test]
fn gap() {
    let chain = Chain {
        base: vec![one("car", track(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]))],
        deltas: vec![
            vec![one("car", track(&[(5.0, 9.0, 9.0), (6.0, 8.0, 7.0)]))],
            vec![one("car", track(&[(9.0, 0.0, 9.0), (10.0, 8.0, 0.0)]))],
        ],
    };
    check_chain(&chain, "gap");
}

#[test]
fn a_root_named_twice_in_one_batch() {
    let samples: Vec<(f64, f64, f64)> = (0..40)
        .map(|i| (f64::from(i), f64::from(i), f64::from(i % 5)))
        .collect();
    let chain = Chain {
        // Long enough for external placement.
        base: vec![one("car", track(&samples[..20]))],
        deltas: vec![
            vec![
                one("car", track(&samples[19..30])),
                one("bus", track(&samples[..3])),
                one("car", track(&samples[29..35])),
            ],
            vec![one("car", track(&samples[34..]))],
        ],
    };
    check_chain(&chain, "named twice");
}

#[test]
fn roots_created_in_one_delta_and_extended_in_later_ones() {
    let chain = Chain {
        base: vec![one("old", track(&[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]))],
        deltas: vec![
            vec![
                one("new/b", track(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)])),
                one("new/a", track(&[(0.0, 5.0, 0.0), (1.0, 6.0, 0.0)])),
            ],
            vec![one("new/a", track(&[(1.0, 6.0, 0.0), (2.0, 6.0, 4.0)]))],
            vec![
                one("new/c", track(&[(3.0, 0.0, 0.0)])),
                one("new/b", track(&[(1.0, 1.0, 0.0), (2.0, 3.0, 3.0)])),
            ],
            vec![one("new/c", track(&[(3.0, 0.0, 0.0), (4.0, 1.0, 2.0)]))],
        ],
    };
    check_chain(&chain, "created");
}

#[test]
fn an_overlapping_batch_in_the_middle_of_the_chain() {
    let samples: Vec<(f64, f64, f64)> = (0..30)
        .map(|i| (f64::from(i), f64::from(i % 3), f64::from(i)))
        .collect();
    // `taxi` ends in a point unit after delta 1; delta 2 replaces it
    // with a continuation that ι-merges into the unit below it.
    let (stay, jump) = (motion(0.0, 0.0, 0.0, 0.0), motion(4.0, 0.0, 0.0, 0.0));
    let chain = Chain {
        base: vec![
            one("car", track(&samples[..12])),
            one("bus", track(&samples[..2])),
            one(
                "taxi",
                vec![unit(TimeInterval::closed_open(t(0.0), t(1.0)), stay)],
            ),
        ],
        deltas: vec![
            vec![one("car", track(&samples[11..16]))],
            vec![
                one("bus", track(&samples[1..4])),
                one("taxi", vec![unit(TimeInterval::point(t(1.0)), jump)]),
            ],
            // Touches `taxi` and `bus` (restored) and `van` (dropped)
            // before the overlap on `car` refuses the delta.
            vec![
                one(
                    "taxi",
                    vec![unit(TimeInterval::closed_open(t(1.0), t(2.0)), stay)],
                ),
                one("bus", track(&samples[3..6])),
                one("van", track(&samples[..3])),
                one("car", track(&samples[14..20])),
            ],
            vec![one("bus", track(&samples[5..8]))],
        ],
    };
    let out = check_chain(&chain, "overlap");
    assert_eq!(
        out,
        Outcome {
            replayed: 2,
            refused: Some(
                "decode unit splice: bad structure: units not sorted by interval start".into()
            )
        }
    );
}

#[test]
fn a_forged_unsorted_stored_array() {
    let mut forged = track(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 0.0, 3.0)]);
    forged.reverse();
    // The replay refuses the array with the error of the full check
    // `Relation::open` runs on the same root.
    let mut file = StoreFile::new();
    let stored = StoredMapping {
        num_units: 2,
        units: save_array(&forged, file.store_mut()),
    };
    let full_check = match open_mpoint(&stored, file.store(), Verify::Full) {
        Ok(_) => panic!("the forged array passes a full check"),
        Err(e) => e.to_string(),
    };
    let chain = Chain {
        base: vec![
            one("ok", track(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)])),
            one("forged", forged),
        ],
        deltas: vec![
            vec![one("ok", track(&[(1.0, 1.0, 0.0), (2.0, 2.0, 2.0)]))],
            vec![one("forged", track(&[(2.0, 0.0, 3.0), (3.0, 1.0, 1.0)]))],
        ],
    };
    let out = check_chain(&chain, "forged");
    assert_eq!(
        out,
        Outcome {
            replayed: 1,
            refused: Some(full_check)
        }
    );
}

/// A random unit sequence from instant `from`: a random walk of
/// `legs` one-second legs, a single point, or one unit continuing
/// `last` with its own motion (an ι-merge at the seam).
fn random_records(rng: &mut Rng, from: f64, last: Option<&UPointRecord>) -> Vec<UPointRecord> {
    match (rng.below(8), last) {
        (0, _) => track(&[(from, rng.below(40) as f64, rng.below(40) as f64)]),
        (1, Some(l)) if !l.interval.is_point() => {
            let len = 1.0 + rng.below(3) as f64;
            vec![unit(TimeInterval::closed(t(from), t(from + len)), l.motion)]
        }
        _ => {
            let legs = 1 + rng.below(12);
            let samples: Vec<_> = (0..=legs)
                .map(|i| (from + i as f64, rng.below(40) as f64, rng.below(40) as f64))
                .collect();
            track(&samples)
        }
    }
}

fn random_chain(rng: &mut Rng) -> Chain {
    let roots = 1 + rng.below(60);
    let name = |k: u64| format!("obj/{k:03}");
    let mut base: Vec<Batch> = Vec::new();
    for _ in 0..rng.below(roots + 1) {
        // Shuffled insertion order, the odd duplicate name.
        let recs = random_records(rng, 0.0, None);
        base.push((name(rng.below(roots)), recs));
    }
    // The end and last unit of each root as the chain grows, by the
    // reference's first-occurrence rule.
    let mut model = Model {
        entries: base.clone(),
        tail: Vec::new(),
    };
    let mut deltas = Vec::new();
    for _ in 0..1 + rng.below(8) {
        let mut delta: Vec<Batch> = Vec::new();
        let mut names: Vec<u64> = (0..1 + rng.below(roots))
            .map(|_| rng.below(roots + 4))
            .collect();
        // Batches arrive in name order, as the ingestor seals them,
        // except now and then.
        if rng.below(6) != 0 {
            names.sort_unstable();
        }
        // One delta in eight overlaps one root's stored tail.
        let overlap = (rng.below(8) == 0).then(|| rng.below(names.len() as u64) as usize);
        let mut staged = model.clone();
        for (j, k) in names.into_iter().enumerate() {
            let n = name(k);
            let last = staged
                .entries
                .iter()
                .find(|(e, _)| *e == n)
                .and_then(|(_, u)| u.last().copied());
            let end = last.map_or(0.0, |l| l.interval.end().as_f64());
            let named_before = delta.iter().any(|(e, _)| *e == n);
            let from = match rng.below(10) {
                // First touch in this delta only, so a sibling
                // directory can carry the delta.
                _ if overlap == Some(j) && !named_before && last.is_some() => end - 0.5,
                0 => end + 2.0,
                _ => end,
            };
            let recs = if rng.below(16) == 0 {
                Vec::new()
            } else {
                random_records(rng, from, last.as_ref())
            };
            delta.push((n, recs));
            match staged.apply(delta.last().map(std::slice::from_ref).unwrap_or_default()) {
                Ok(next) => staged = next,
                Err(_) => break,
            }
        }
        let refused = model.apply(&delta).is_err();
        deltas.push(delta);
        if refused {
            break;
        }
        model = staged;
    }
    Chain { base, deltas }
}

#[test]
fn seeded_chains_replay_like_the_per_delta_reference() {
    let (mut refused, mut external, mut replayed) = (0, 0, 0);
    for seed in 0..160u64 {
        let mut rng = Rng(seed);
        let chain = random_chain(&mut rng);
        external += chain
            .base
            .iter()
            .filter(|(_, r)| r.len() * UPointRecord::SIZE > INLINE_THRESHOLD)
            .count();
        let out = check_chain(&chain, &format!("seed {seed}"));
        replayed += out.replayed;
        refused += usize::from(out.refused.is_some());
    }
    eprintln!("coverage: {refused} refused chains, {external} external arrays, {replayed} deltas");
    assert!(
        refused > 10 && external > 100 && replayed > 300,
        "coverage: {refused} refused chains, {external} external arrays, {replayed} deltas"
    );
}
