//! Seam commits against a per-delta reference.
//!
//! A delta commit extends every root at the seam, after the check
//! `Relation::open` would give it (the full check on an unmarked root,
//! the layout check on a marked one): it decodes only the stored records
//! a seam step reaches (the last one, and the one below a point tail it
//! pops) and copies the rest of the stored array as bytes. The reference
//! is the slow rule, per batch: `units = splice_units(seam(units) ++
//! records)`.
//!
//! Every chain starts with a full commit, which marks nothing, and a
//! warm-up delta touching every root, which extends them unmarked and
//! marks them all, so every later delta commits on marked roots. After
//! each commit, the warm-up included, every root's stored array must be
//! byte-identical to `save_array` of the reference units (same
//! placement, same bytes), and a refused delta must leave the head as
//! it was. At the end the head reopened from the `MemIo` directory
//! (recovery replays the chain through the full check) must equal the
//! live head byte for byte. Failures name their seed.

use mob_base::{t, Real, TimeInterval};
use mob_core::{MovingPoint, PointMotion, UPoint, Unit};
use mob_spatial::pt;
use mob_storage::mapping_store::{StoredMapping, UPointRecord};
use mob_storage::{
    save_array, splice_units, DurableStore, FixedRecord, Generation, MemIo, PageStore, Placement,
    RootRecord, SavedArray, StoreFile, DEFAULT_PAGE_SIZE, INLINE_THRESHOLD,
};

/// A tiny seeded generator (splitmix64), so a failing case is replayed
/// from the seed its message prints.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }
}

type Batch = (String, Vec<UPointRecord>);

/// The units of a trajectory through `samples` `(t, x, y)`.
fn track(samples: &[(f64, f64, f64)]) -> Vec<UPointRecord> {
    let s: Vec<_> = samples
        .iter()
        .map(|&(ti, x, y)| (t(ti), pt(x, y)))
        .collect();
    MovingPoint::from_samples(&s)
        .units()
        .iter()
        .map(|u| UPointRecord {
            interval: *u.interval(),
            motion: *u.motion(),
        })
        .collect()
}

/// A zig-zag of `n` units from instant `from`: no two adjacent units
/// share a motion, so nothing merges.
fn zigzag(from: f64, n: usize) -> Vec<UPointRecord> {
    let samples: Vec<_> = (0..=n)
        .map(|i| (from + i as f64, i as f64, (i % 2) as f64))
        .collect();
    track(&samples)
}

fn unit(interval: TimeInterval, x0: f64) -> UPointRecord {
    UPointRecord {
        interval,
        motion: PointMotion::new(Real::new(x0), Real::ZERO, Real::ZERO, Real::ZERO),
    }
}

/// A zig-zag of `n` units from 0 whose last unit is right-open,
/// followed by one unit at rest at x = 0 over `[n, n + 1)`.
fn zigzag_then_rest(n: usize) -> Vec<UPointRecord> {
    let mut units = zigzag(0.0, n);
    if let Some(last) = units.last_mut() {
        last.interval = TimeInterval::closed_open(*last.interval.start(), *last.interval.end());
    }
    units.push(unit(
        TimeInterval::closed_open(t(n as f64), t(n as f64 + 1.0)),
        0.0,
    ));
    units
}

fn one(name: &str, recs: Vec<UPointRecord>) -> Batch {
    (name.to_string(), recs)
}

/// Test-local seam rule: a stored point tail is replaced by a
/// continuation starting at its instant, a stored right-closed tail is
/// trimmed to right-open when the continuation is left-closed there.
fn seam(mut units: Vec<UPointRecord>, batch: &[UPointRecord]) -> Vec<UPointRecord> {
    let (Some(first), Some(last)) = (batch.first(), units.last().copied()) else {
        return units;
    };
    if first.interval.start() != last.interval.end() || !first.interval.left_closed() {
        return units;
    }
    if last.interval.is_point() {
        units.pop();
    } else if last.interval.right_closed() {
        let i = last.interval;
        let trimmed = TimeInterval::try_new(*i.start(), *i.end(), i.left_closed(), false);
        if let Some(l) = units.last_mut() {
            l.interval = trimmed.expect("a unit with a right-closed end trims");
        }
    }
    units
}

/// The reference: each root's units by name, in catalog order.
type Model = Vec<(String, Vec<UPointRecord>)>;

fn apply(model: &Model, delta: &[Batch]) -> Result<Model, String> {
    let mut next = model.clone();
    for (name, recs) in delta {
        if recs.is_empty() {
            continue;
        }
        let at = next.iter().position(|(n, _)| n == name);
        let units = at.map_or_else(Vec::new, |i| next[i].1.clone());
        let mut units = seam(units, recs);
        units.extend_from_slice(recs);
        let units = splice_units(units).map_err(|e| e.to_string())?;
        match at {
            Some(i) => next[i].1 = units,
            None => next.push((name.clone(), units)),
        }
    }
    Ok(next)
}

/// A stored array as it lies in its generation: name, `num_units`,
/// whether it is inline, and its bytes.
type Arrays = Vec<(String, u32, bool, Vec<u8>)>;

fn placed(saved: &SavedArray, store: &PageStore) -> (bool, Vec<u8>) {
    match &saved.placement {
        Placement::Inline(b) => (true, b.clone()),
        Placement::External(id) => (false, store.try_read_blob(*id).expect("blob")),
    }
}

fn arrays(g: &Generation) -> Arrays {
    g.entries()
        .iter()
        .map(|(name, root)| match root {
            RootRecord::MPoint(m) => {
                let (inline, bytes) = placed(&m.units, g.store());
                (name.clone(), m.num_units, inline, bytes)
            }
            other => panic!("{name}: unexpected {} root", other.kind_name()),
        })
        .collect()
}

fn expected(model: &Model) -> Arrays {
    let mut store = PageStore::new();
    model
        .iter()
        .map(|(name, units)| {
            let (inline, bytes) = placed(&save_array(units, &mut store), &store);
            let n = u32::try_from(units.len()).expect("small mapping");
            (name.clone(), n, inline, bytes)
        })
        .collect()
}

fn commit(store: &mut DurableStore<MemIo>, delta: &[Batch]) -> Result<u64, String> {
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

/// What a chain exercised.
#[derive(Debug, Default)]
struct Seen {
    /// Batches applied to a marked root.
    marked: usize,
    /// Of those, batches whose seam popped a point tail.
    pops: usize,
    /// Of those, batches whose first record then ι-merged into the unit
    /// below the popped tail.
    merges: usize,
    /// Deltas refused after the warm-up.
    refused: usize,
    /// Commits that left an external array longer than one page.
    straddling: usize,
}

/// Commit `base` in full, then `warm` (which must touch every root),
/// then `deltas`, holding every committed array to the reference (see
/// the module docs).
fn check(base: &[Batch], warm: &[Batch], deltas: &[Vec<Batch>], ctx: &str) -> Seen {
    let io = MemIo::new();
    let mut store = DurableStore::options().open(io.clone()).expect("open");
    let mut file = StoreFile::new();
    for (name, recs) in base {
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
    let mut model: Model = base.to_vec();
    model = apply(&model, warm).unwrap_or_else(|e| panic!("{ctx}: warm-up: {e}"));
    commit(&mut store, warm).unwrap_or_else(|e| panic!("{ctx}: warm-up commit: {e}"));
    let head = store.snapshot().expect("head");
    assert_eq!(arrays(&head), expected(&model), "{ctx}: warm-up");
    assert!(
        (0..head.entries().len()).all(|slot| head.checked_mpoint(slot).is_some()),
        "{ctx}: the warm-up marks every root"
    );
    let mut seen = Seen::default();
    for (i, delta) in deltas.iter().enumerate() {
        let head = store.snapshot().expect("head");
        let mut staged = model.clone();
        for batch in delta {
            let (name, recs) = batch;
            let slot = head.entries().iter().position(|(n, _)| n == name);
            if !recs.is_empty() && slot.is_some_and(|s| head.checked_mpoint(s).is_some()) {
                seen.marked += 1;
                let units = staged.iter().find(|(n, _)| n == name).map(|(_, u)| &u[..]);
                if let Some([.., below, last]) = units {
                    let first = &recs[0];
                    if last.interval.is_point() && first.interval.start() == last.interval.end() {
                        seen.pops += 1;
                        seen.merges += usize::from(
                            below.motion == first.motion
                                && below.interval.adjacent(&first.interval),
                        );
                    }
                }
            }
            if let Ok(next) = apply(&staged, std::slice::from_ref(batch)) {
                staged = next;
            }
        }
        let want = apply(&model, delta);
        let got = commit(&mut store, delta);
        let after = store.snapshot().expect("head");
        match (want, got) {
            (Ok(next), Ok(_)) => {
                model = next;
                assert_eq!(arrays(&after), expected(&model), "{ctx}: delta {i}");
            }
            (Err(_), Err(_)) => {
                seen.refused += 1;
                assert_eq!(after.number(), head.number(), "{ctx}: delta {i} refused");
                assert_eq!(arrays(&after), arrays(&head), "{ctx}: delta {i} refused");
            }
            (want, got) => panic!("{ctx}: delta {i}: reference {want:?}, live {got:?}"),
        }
        seen.straddling += usize::from(
            model
                .iter()
                .any(|(_, u)| u.len() * UPointRecord::SIZE > DEFAULT_PAGE_SIZE),
        );
    }
    let live = store.snapshot().expect("live head");
    drop(store);
    let reopened = DurableStore::options()
        .open(io)
        .expect("reopen")
        .snapshot()
        .expect("reopened head");
    assert_eq!(arrays(&reopened), arrays(&live), "{ctx}: reopened vs live");
    assert_eq!(reopened.tail(), live.tail(), "{ctx}: tail");
    assert_eq!(reopened.number(), live.number(), "{ctx}: number");
    seen
}

#[test]
fn seam_commit_pops_a_point_tail_and_merges_into_the_unit_below() {
    // `car` ends in `b` = [9, 10) at x = 0; the warm-up appends a point
    // tail at x = 4, and the next delta replaces it with a continuation
    // at x = 0, which ι-merges into `b`: the seam refills `b`.
    let car = zigzag_then_rest(9);
    let warm = [one("car", vec![unit(TimeInterval::point(t(10.0)), 4.0)])];
    let merge = vec![one(
        "car",
        vec![unit(TimeInterval::closed_open(t(10.0), t(11.0)), 0.0)],
    )];
    let then = vec![one("car", zigzag(11.0, 3))];
    let seen = check(&[one("car", car)], &warm, &[merge, then], "pop and merge");
    assert_eq!((seen.marked, seen.pops, seen.merges), (2, 1, 1));
}

#[test]
fn seam_commit_pops_a_stored_point_tail_and_merges_on_an_unmarked_root() {
    // The full commit stores `car` ending in `b` = [9, 10) at x = 0 and
    // a point tail at x = 4; the warm-up, on the unmarked root, replaces
    // the point with a continuation at x = 0 that ι-merges into `b`.
    let mut car = zigzag_then_rest(9);
    car.push(unit(TimeInterval::point(t(10.0)), 4.0));
    let warm = [one(
        "car",
        vec![unit(TimeInterval::closed_open(t(10.0), t(11.0)), 0.0)],
    )];
    let base = [one("car", car)];
    let merged = apply(&base.to_vec(), &warm).expect("the warm-up applies");
    assert_eq!(merged[0].1.len(), base[0].1.len() - 1, "pops and merges");
    let then = vec![one("car", zigzag(11.0, 3))];
    let seen = check(&base, &warm, &[then], "unmarked pop and merge");
    assert_eq!((seen.marked, seen.pops), (1, 0));
}

#[test]
fn seam_commit_trims_a_right_closed_tail() {
    let warm = [one("car", zigzag(5.0, 2))];
    assert!(warm[0].1.last().unwrap().interval.right_closed());
    let deltas = vec![
        vec![one("car", zigzag(7.0, 3))],
        vec![one("car", track(&[(10.0, 3.0, 1.0), (11.0, 3.0, 1.0)]))],
    ];
    check(&[one("car", zigzag(0.0, 4))], &warm, &deltas, "trim");
}

#[test]
fn seam_commit_a_root_named_twice_in_one_batch() {
    let base = [one("bus", zigzag(0.0, 3)), one("car", zigzag(0.0, 30))];
    let warm = [one("bus", zigzag(3.0, 1)), one("car", zigzag(30.0, 1))];
    let deltas = vec![vec![
        one("car", zigzag(31.0, 2)),
        one("bus", zigzag(4.0, 2)),
        one("car", vec![unit(TimeInterval::point(t(33.0)), 7.0)]),
        one("car", zigzag(33.0, 4)),
    ]];
    let seen = check(&base, &warm, &deltas, "named twice");
    assert_eq!((seen.marked, seen.pops), (4, 1));
}

#[test]
fn seam_commit_refused_after_a_refill_leaves_the_head() {
    // The refused delta pops `car`'s point tail and merges into the
    // unit below before `bus` overlaps its own tail; the head stays,
    // and the same merge commits once the overlap is gone.
    let base = [one("bus", zigzag(0.0, 8)), one("car", zigzag_then_rest(6))];
    let warm = [
        one("bus", zigzag(8.0, 1)),
        one("car", vec![unit(TimeInterval::point(t(7.0)), 4.0)]),
    ];
    let merge = one(
        "car",
        vec![unit(TimeInterval::closed_open(t(7.0), t(8.0)), 0.0)],
    );
    let deltas = vec![
        vec![merge.clone(), one("bus", zigzag(5.0, 2))],
        vec![merge, one("bus", zigzag(9.0, 2))],
    ];
    let seen = check(&base, &warm, &deltas, "refused after a refill");
    assert_eq!(seen.refused, 1);
}

#[test]
fn seam_commit_an_inline_array_grows_external() {
    let base = [one("car", zigzag(0.0, 3))];
    let deltas: Vec<_> = (0..4)
        .map(|k| vec![one("car", zigzag(4.0 + f64::from(k), 1))])
        .collect();
    let warm = [one("car", zigzag(3.0, 1))];
    // 5 units inline (250 B), then 6 and up external.
    const {
        assert!(5 * UPointRecord::SIZE <= INLINE_THRESHOLD);
        assert!(6 * UPointRecord::SIZE > INLINE_THRESHOLD);
    }
    check(&base, &warm, &deltas, "inline to external");
}

#[test]
fn seam_commit_copies_a_prefix_that_straddles_pages() {
    // 200 units: 10,000 B over three 4,096 B pages.
    let base = [one("car", zigzag(0.0, 200))];
    let warm = [one("car", zigzag(200.0, 1))];
    let deltas: Vec<_> = (0..3)
        .map(|k| vec![one("car", zigzag(201.0 + 2.0 * f64::from(k), 2))])
        .collect();
    let seen = check(&base, &warm, &deltas, "straddling prefix");
    assert_eq!(seen.straddling, 3);
}

/// A random unit sequence from instant `from`: a single point, one unit
/// continuing `last` with its own motion (an ι-merge at the seam), or a
/// random walk of one-second legs.
fn random_records(rng: &mut Rng, from: f64, last: Option<&UPointRecord>) -> Vec<UPointRecord> {
    match (rng.below(8), last) {
        (0 | 1, _) => track(&[(from, rng.below(40) as f64, rng.below(40) as f64)]),
        (2, Some(l)) if !l.interval.is_point() => {
            let len = 1.0 + rng.below(3) as f64;
            vec![UPointRecord {
                interval: TimeInterval::closed(t(from), t(from + len)),
                motion: l.motion,
            }]
        }
        _ => {
            let legs = 1 + rng.below(6);
            let samples: Vec<_> = (0..=legs)
                .map(|i| (from + i as f64, rng.below(40) as f64, rng.below(40) as f64))
                .collect();
            track(&samples)
        }
    }
}

/// A batch for `name` continuing `model` (at the end, after a gap, or,
/// with `overlap`, half a second inside the stored tail).
fn next_batch(rng: &mut Rng, model: &Model, name: &str, overlap: bool) -> Batch {
    let units = model
        .iter()
        .find(|(n, _)| n == name)
        .map_or(&[][..], |(_, u)| &u[..]);
    let last = units.last().copied();
    let end = last.map_or(0.0, |l| l.interval.end().as_f64());
    // Every other batch after a point tail continues the unit below it,
    // which the seam merges into once the point is popped.
    if let [.., below, tail] = units {
        if tail.interval.is_point() && !overlap && rng.below(2) == 0 {
            let interval = TimeInterval::closed(t(end), t(end + 1.0));
            let recs = vec![UPointRecord {
                interval,
                motion: below.motion,
            }];
            return (name.to_string(), recs);
        }
    }
    let from = match rng.below(10) {
        _ if overlap && last.is_some() => end - 0.5,
        0 => end + 2.0,
        _ => end,
    };
    (name.to_string(), random_records(rng, from, last.as_ref()))
}

#[test]
fn seam_commit_seeded_chains() {
    let mut total = Seen::default();
    for seed in 0..120u64 {
        let mut rng = Rng(seed);
        let roots = 1 + rng.below(24);
        let name = |k: u64| format!("obj/{k:03}");
        // Arrays inline, external in one page, and over several pages.
        let base: Vec<Batch> = (0..roots)
            .map(|k| {
                let len = [1, 2, 4, 12, 40, 90, 170][rng.below(7) as usize];
                (name(k), zigzag(0.0, len))
            })
            .collect();
        let mut model: Model = base.clone();
        let warm: Vec<Batch> = (0..roots)
            .map(|k| next_batch(&mut rng, &model, &name(k), false))
            .collect();
        model = apply(&model, &warm).expect("warm-up applies");
        let mut deltas = Vec::new();
        for _ in 0..1 + rng.below(8) {
            let mut names: Vec<u64> = (0..1 + rng.below(roots))
                .map(|_| rng.below(roots + 2))
                .collect();
            if rng.below(6) != 0 {
                names.sort_unstable();
            }
            let overlap = (rng.below(8) == 0).then(|| rng.below(names.len() as u64) as usize);
            let mut staged = model.clone();
            let mut delta = Vec::new();
            for (j, k) in names.into_iter().enumerate() {
                let batch = next_batch(&mut rng, &staged, &name(k), overlap == Some(j));
                if let Ok(next) = apply(&staged, std::slice::from_ref(&batch)) {
                    staged = next;
                }
                delta.push(batch);
            }
            if apply(&model, &delta).is_ok() {
                model = staged;
            }
            deltas.push(delta);
        }
        let seen = check(&base, &warm, &deltas, &format!("seed {seed}"));
        total.marked += seen.marked;
        total.pops += seen.pops;
        total.merges += seen.merges;
        total.refused += seen.refused;
        total.straddling += seen.straddling;
    }
    eprintln!("coverage: {total:?}");
    assert!(
        total.marked > 1000 && total.merges > 50 && total.refused > 10 && total.straddling > 100,
        "coverage: {total:?}"
    );
}
