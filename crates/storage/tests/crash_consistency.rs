//! Crash-consistency campaign for [`DurableStore`].
//!
//! The recovery invariant under test (DESIGN.md §10): after a crash at
//! **any** write unit of a commit workload, under **any** un-synced-data
//! policy, reopening the surviving directory yields exactly the *old* or
//! the *new* committed payload — never a hybrid, never a panic, never an
//! error.
//!
//! The exhaustive sweep runs the workload once without faults to count
//! its total write units, then replays it once per (crash unit × fault
//! mask) pair — every byte of every write and every metadata operation
//! is a crash point. A randomized campaign on top samples seeds, printed
//! on entry so any failure is reproducible with `MOB_FAULT_SEED`.
//!
//! Every survivor is first recovered read-only with [`recover`] and then
//! opened: the two must agree on the generation and the catalog, and the
//! open must remove exactly the files the recovery record discards.

use mob_base::{r, t, DecodeResult, Interval};
use mob_core::{run_cubes, unit_cubes, MovingPoint, RTree};
use mob_spatial::{pt, Cube, Rect};
use mob_storage::mapping_store::{save_mpoint, UPointRecord};
use mob_storage::store_file::RootRecord;
use mob_storage::{
    decode_image_strict, load_array, open_mpoint, recover, save_index, snapshot_name, DurableStore,
    FaultMask, FaultyIo, Generation, MaintTick, MemIo, RetryPolicy, StoreFile, StoreIo, Supervisor,
    SupervisorConfig, Verify, VirtualClock, FAULT_MASKS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CHUNK: usize = 64;

/// A realistic committed payload: a store file holding a moving point
/// with `n` samples, and the serialized bytes its snapshot image holds.
struct Payload {
    file: StoreFile,
    bytes: Vec<u8>,
}

fn payload(n: usize, offset: f64) -> Payload {
    let mut file = StoreFile::with_page_size(64).expect("valid page size");
    let samples: Vec<_> = (0..n)
        .map(|i| {
            let k = i as f64;
            (t(k), pt(k * 0.25 + offset, offset - k))
        })
        .collect();
    let stored = save_mpoint(&MovingPoint::from_samples(&samples), file.store_mut());
    file.put("trip", RootRecord::MPoint(stored));
    let bytes = file.to_bytes().expect("sample serializes");
    Payload { file, bytes }
}

/// Open (or create) the store in `io` with the campaign's chunk size.
fn open<I: StoreIo>(io: I) -> DecodeResult<DurableStore<I>> {
    DurableStore::options().chunk_size(CHUNK).open(io)
}

/// Commit `payload` as the next full image.
fn commit<I: StoreIo>(store: &mut DurableStore<I>, payload: &Payload) -> DecodeResult<u64> {
    let mut txn = store.begin();
    txn.put_store_file(&payload.file)?;
    txn.commit()
}

/// Recover `survivor` read-only, then open it, and hold the two to one
/// decision: the same generation and catalog, and the open removes
/// exactly the files the recovery record discards.
fn recover_then_open(survivor: MemIo, ctx: &str) -> DecodeResult<DurableStore<MemIo>> {
    let (head, recovery) = recover(&survivor, false)?;
    let before = survivor.list()?;
    let store = open(survivor.clone())?;
    assert_eq!(
        store.generation(),
        head.number(),
        "{ctx}: recover and open chose different generations"
    );
    assert_eq!(
        store.snapshot()?.entries(),
        head.entries(),
        "{ctx}: recover and open recovered different catalogs"
    );
    let after = survivor.list()?;
    let removed: Vec<&str> = before
        .iter()
        .filter(|name| !after.contains(name))
        .map(String::as_str)
        .collect();
    assert_eq!(
        removed,
        recovery.discarded().collect::<Vec<_>>(),
        "{ctx}: open removed other files than recover discarded"
    );
    Ok(store)
}

/// Reopen `survivor` and return the committed payload bytes of the
/// recovered generation, read back from its snapshot image (`None` for
/// an empty store).
fn recovered_payload(survivor: MemIo, ctx: &str) -> DecodeResult<Option<Vec<u8>>> {
    let store = recover_then_open(survivor, ctx)?;
    if store.generation() == 0 {
        return Ok(None);
    }
    let image = store.io().read_file(&snapshot_name(store.generation()))?;
    Ok(Some(decode_image_strict(image)?.payload))
}

/// Run the two-commit workload against a fault-injecting I/O layer.
/// Returns the wrapper (for unit counting / survivor extraction) and
/// which commits reported success.
fn run_workload(io: FaultyIo, a: &Payload, b: &Payload) -> (FaultyIo, bool, bool) {
    let mut ok_a = false;
    let mut ok_b = false;
    let io = match open(io) {
        Ok(mut store) => {
            if commit(&mut store, a).is_ok() {
                ok_a = true;
                if commit(&mut store, b).is_ok() {
                    ok_b = true;
                }
            }
            store.into_io()
        }
        Err(_) => unreachable!("opening an empty directory performs no durable writes"),
    };
    (io, ok_a, ok_b)
}

/// The invariant: recover the survivor and check old-or-new-never-hybrid
/// against what the dying process observed.
fn assert_old_or_new(survivor: MemIo, a: &Payload, b: &Payload, ok_a: bool, ok_b: bool, ctx: &str) {
    let recovered =
        recovered_payload(survivor, ctx).unwrap_or_else(|e| panic!("{ctx}: recovery errored: {e}"));
    match recovered.as_deref() {
        None => {
            // Nothing committed: only acceptable before the first commit
            // became durable, i.e. the process never saw commit A land.
            assert!(!ok_a, "{ctx}: commit A reported success but vanished");
        }
        Some(p) if p == a.bytes => {
            assert!(
                !ok_b,
                "{ctx}: commit B reported success but rolled back to A"
            );
        }
        Some(p) if p == b.bytes => {} // newest state: always acceptable
        Some(p) => panic!(
            "{ctx}: recovered a hybrid payload ({} bytes, matches neither A nor B)",
            p.len()
        ),
    }
}

fn run_case(budget: u64, mask: FaultMask, seed: u64, a: &Payload, b: &Payload) {
    let disk = MemIo::new();
    let faulty = FaultyIo::new(disk, budget, mask, seed);
    let (faulty, ok_a, ok_b) = run_workload(faulty, a, b);
    let survivor = faulty.into_survivor();
    let ctx = format!("crash_after={budget} mask={mask:?} seed={seed}");
    assert_old_or_new(survivor, a, b, ok_a, ok_b, &ctx);
}

#[test]
fn exhaustive_crash_sweep_old_or_new_never_hybrid() {
    let a = payload(8, 1.0);
    let b = payload(11, 2.5);

    // Fault-free run counts the workload's total write units and proves
    // the happy path recovers the newest payload.
    let faulty = FaultyIo::new(MemIo::new(), u64::MAX, FaultMask::KeepUnsynced, 0);
    let (faulty, ok_a, ok_b) = run_workload(faulty, &a, &b);
    assert!(ok_a && ok_b, "fault-free workload must fully succeed");
    let total_units = faulty.write_units();
    let survivor = faulty.into_survivor();
    let recovered = recovered_payload(survivor, "fault-free").expect("clean open");
    assert_eq!(recovered.as_deref(), Some(&b.bytes[..]));

    // Every crash point × every fault mask. One case per unit is the
    // whole space: the budget is spent deterministically, so two runs
    // with the same triple are byte-identical.
    let mut cases = 0usize;
    for budget in 0..=total_units {
        for (i, mask) in FAULT_MASKS.into_iter().enumerate() {
            run_case(budget, mask, 0x5EED ^ (budget * 3 + i as u64), &a, &b);
            cases += 1;
        }
    }
    assert!(
        cases >= 500,
        "campaign too small: {cases} cases (grow the payloads)"
    );
}

#[test]
fn randomized_crash_sweep_with_printed_seed() {
    // Reproducible-by-seed randomized layer on top of the exhaustive
    // sweep: random payload sizes, budgets and scramble seeds.
    let campaign_seed = match std::env::var("MOB_FAULT_SEED") {
        Ok(s) => s.parse::<u64>().unwrap_or(0xC0FFEE),
        Err(_) => {
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0xC0FFEE);
            now ^ 0x9E37_79B9_7F4A_7C15
        }
    };
    println!("MOB_FAULT_SEED={campaign_seed} (set this env var to reproduce)");
    let mut rng = StdRng::seed_from_u64(campaign_seed);
    for case in 0..200 {
        let a = payload(
            rng.gen_range(2usize..20),
            f64::from(rng.gen_range(0u32..100)) * 0.5,
        );
        // B's offsets live on the quarter grid, A's on the half grid, so
        // the two payloads can never be byte-identical — an identical
        // pair would make the A-vs-B classification below ambiguous.
        let b = payload(
            rng.gen_range(2usize..20),
            f64::from(rng.gen_range(0u32..100)) * 0.5 + 0.25,
        );
        // Probe the whole unit range (plus some beyond, where nothing
        // crashes) with random budgets.
        let budget = rng.gen_range(0u64..6000);
        let mask = FAULT_MASKS[rng.gen_range(0usize..3)];
        let seed = rng.gen_range(0u64..u64::MAX);
        run_case(budget, mask, seed, &a, &b);
        let _ = case;
    }
}

#[test]
fn crash_mid_third_commit_preserves_second() {
    // Deeper history: crash while committing generation 3 must fall
    // back to generation 2, generation 1 having been pruned.
    let a = payload(4, 0.0);
    let b = payload(5, 1.0);
    let c = payload(6, 2.0);
    // Count units of the three-commit workload.
    let probe = FaultyIo::new(MemIo::new(), u64::MAX, FaultMask::KeepUnsynced, 0);
    let mut store = open(probe).expect("create");
    commit(&mut store, &a).expect("commit a");
    commit(&mut store, &b).expect("commit b");
    let units_before_c = store.io().write_units();
    commit(&mut store, &c).expect("commit c");
    let total = store.io().write_units();
    drop(store);

    for budget in units_before_c..total {
        for mask in FAULT_MASKS {
            let faulty = FaultyIo::new(MemIo::new(), budget, mask, budget ^ 0xABCD);
            let mut store = open(faulty).expect("create");
            commit(&mut store, &a).expect("commit a within budget");
            commit(&mut store, &b).expect("commit b within budget");
            let c_ok = commit(&mut store, &c).is_ok();
            let survivor = store.into_io().into_survivor();
            let ctx = format!("budget {budget} {mask:?}");
            let recovered = recovered_payload(survivor, &ctx).expect("recovery must not error");
            let got = recovered.as_deref();
            if c_ok {
                assert_eq!(got, Some(&c.bytes[..]), "{ctx}");
            } else {
                assert!(
                    got == Some(&b.bytes[..]) || got == Some(&c.bytes[..]),
                    "budget {budget} {mask:?}: third commit crash must leave B or C"
                );
            }
        }
    }
}

#[test]
fn recovery_counts_events_in_metrics() {
    // A torn newest snapshot must surface in `durable.recoveries`.
    let dir = MemIo::new();
    let a = payload(6, 0.0);
    let b = payload(7, 3.0);
    let mut store = open(dir.clone()).expect("create");
    commit(&mut store, &a).expect("commit a");
    // Tear a forged generation-2 commit by truncating its image.
    let faulty = FaultyIo::new(dir.clone(), u64::MAX, FaultMask::KeepUnsynced, 9);
    let mut store2 = open(faulty).expect("reopen");
    commit(&mut store2, &b).expect("commit b");
    let snap2: Vec<String> = dir
        .list()
        .expect("list")
        .into_iter()
        .filter(|n| n.starts_with("snap-") && n.contains("0000000000000002"))
        .collect();
    assert_eq!(snap2.len(), 1, "generation 2 snapshot present");
    let image = dir.read_file(&snap2[0]).expect("read snap2");
    dir.write_file(&snap2[0], &image[..image.len() / 2])
        .expect("tear snap2");

    let before = mob_obs::Registry::global().snapshot();
    let recovered = recovered_payload(dir, "torn snapshot").expect("recover");
    assert_eq!(
        recovered.as_deref(),
        Some(&a.bytes[..]),
        "fell back to gen 1"
    );
    let after = mob_obs::Registry::global().snapshot();
    if mob_obs::enabled() {
        assert!(
            after.get("durable.recoveries") > before.get("durable.recoveries"),
            "recovery event must be counted"
        );
    }
}

// ---------------------------------------------------------------------
// Delta / compaction crash campaign (WAL commit path).
//
// Workload: three delta commits appending units to two objects, then a
// compaction folding the chain into a full snapshot. Crashing at any
// write unit under any fault mask must recover exactly one of the five
// committed states (generation 0..=4) — never a hybrid chain, never a
// panic, never an error — and any state whose commit reported success
// must survive.
// ---------------------------------------------------------------------

/// One batch of appended units per step, per object.
fn batch(step: u64) -> Vec<(String, Vec<mob_core::UPoint>)> {
    let t0 = step as f64 * 3.0;
    let mk = |x0: f64| {
        let samples: Vec<_> = (0..4)
            .map(|i| {
                let k = t0 + i as f64;
                (
                    t(k),
                    pt(
                        x0 + k,
                        if (i + step as usize).is_multiple_of(2) {
                            k
                        } else {
                            -k
                        },
                    ),
                )
            })
            .collect();
        MovingPoint::from_samples(&samples).units().to_vec()
    };
    vec![("car".to_string(), mk(0.0)), ("bus".to_string(), mk(100.0))]
}

/// Drive the delta workload; returns the I/O wrapper and the highest
/// step (1..=4) that reported success (0 when none did). Steps 1..=3
/// are delta commits of `batch(step)`, step 4 is `compact()`.
fn run_delta_workload(io: FaultyIo) -> (FaultyIo, u64) {
    let mut reached = 0u64;
    let mut store = match DurableStore::options().chunk_size(CHUNK).open(io) {
        Ok(s) => s,
        Err(_) => unreachable!("open of a fresh directory performs no durable writes"),
    };
    'steps: {
        for step in 1..=3u64 {
            let mut txn = store.begin();
            for (name, units) in batch(step - 1) {
                txn.append_units(&name, &units);
            }
            if txn.commit().is_err() {
                break 'steps;
            }
            reached = step;
        }
        if store.compact().is_ok() {
            reached = 4;
        }
    }
    (store.into_io(), reached)
}

/// The units every committed state must hold, per object, computed from
/// the same sample stream via `from_samples` (batched ingestion must be
/// indistinguishable from whole-history construction).
fn delta_states() -> Vec<Option<DeltaState>> {
    let mut states: Vec<Option<DeltaState>> = vec![None];
    let store = MemIo::new();
    let mut s = DurableStore::options()
        .chunk_size(CHUNK)
        .open(store)
        .expect("mem open");
    for step in 1..=3u64 {
        let mut txn = s.begin();
        for (name, units) in batch(step - 1) {
            txn.append_units(&name, &units);
        }
        txn.commit().expect("clean delta commit");
        states.push(Some(snapshot_units(&s.snapshot().expect("gen"))));
    }
    s.compact().expect("clean compact");
    states.push(Some(snapshot_units(&s.snapshot().expect("gen"))));
    states
}

/// One committed state: every object's decoded units, in catalog order.
type DeltaState = Vec<(String, Vec<UPointRecord>)>;

fn snapshot_units(gen: &Generation) -> DeltaState {
    gen.entries()
        .iter()
        .map(|(name, root)| {
            let RootRecord::MPoint(m) = root else {
                panic!("workload stores only mpoints");
            };
            (
                name.clone(),
                load_array::<UPointRecord>(&m.units, gen.store()).expect("clean units"),
            )
        })
        .collect()
}

/// Recovery invariant for the delta workload: the survivor reopens to
/// exactly one committed state, at least as new as the last
/// acknowledged step.
fn assert_delta_old_or_new(
    survivor: MemIo,
    states: &[Option<DeltaState>],
    reached: u64,
    ctx: &str,
) {
    let store =
        recover_then_open(survivor, ctx).unwrap_or_else(|e| panic!("{ctx}: recovery errored: {e}"));
    let g = store.generation();
    assert!(
        (g as usize) < states.len(),
        "{ctx}: recovered generation {g} beyond any committed state"
    );
    assert!(
        g >= reached,
        "{ctx}: step {reached} reported success but recovered generation {g}"
    );
    let snap = store
        .snapshot()
        .unwrap_or_else(|e| panic!("{ctx}: snapshot errored: {e}"));
    let got = snapshot_units(&snap);
    match &states[g as usize] {
        None => assert!(got.is_empty(), "{ctx}: generation 0 must be empty"),
        Some(want) => assert_eq!(
            &got, want,
            "{ctx}: generation {g} content is a hybrid of committed states"
        ),
    }
}

#[test]
fn exhaustive_delta_crash_sweep_old_or_new_never_hybrid() {
    let states = delta_states();

    // Fault-free run counts write units and proves the happy path.
    let faulty = FaultyIo::new(MemIo::new(), u64::MAX, FaultMask::KeepUnsynced, 0);
    let (faulty, reached) = run_delta_workload(faulty);
    assert_eq!(reached, 4, "fault-free workload must fully succeed");
    let total_units = faulty.write_units();
    assert_delta_old_or_new(faulty.into_survivor(), &states, 4, "fault-free");

    let mut cases = 0usize;
    for budget in 0..=total_units {
        for (i, mask) in FAULT_MASKS.into_iter().enumerate() {
            let faulty = FaultyIo::new(
                MemIo::new(),
                budget,
                mask,
                0xD417A ^ (budget * 5 + i as u64),
            );
            let (faulty, reached) = run_delta_workload(faulty);
            let ctx = format!("delta crash_after={budget} mask={mask:?}");
            assert_delta_old_or_new(faulty.into_survivor(), &states, reached, &ctx);
            cases += 1;
        }
    }
    assert!(
        cases >= 200,
        "delta campaign too small: {cases} cases (grow the batches)"
    );
}

#[test]
fn randomized_delta_crash_sweep_with_printed_seed() {
    let campaign_seed = match std::env::var("MOB_FAULT_SEED") {
        Ok(s) => s.parse::<u64>().unwrap_or(0xDE17A),
        Err(_) => {
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0xDE17A);
            now ^ 0x9E37_79B9_7F4A_7C15
        }
    };
    println!("MOB_FAULT_SEED={campaign_seed} (set this env var to reproduce)");
    let states = delta_states();
    let mut rng = StdRng::seed_from_u64(campaign_seed);
    for _ in 0..150 {
        let budget = rng.gen_range(0u64..4000);
        let mask = FAULT_MASKS[rng.gen_range(0usize..3)];
        let seed = rng.gen_range(0u64..u64::MAX);
        let faulty = FaultyIo::new(MemIo::new(), budget, mask, seed);
        let (faulty, reached) = run_delta_workload(faulty);
        let ctx = format!("delta crash_after={budget} mask={mask:?} seed={seed}");
        assert_delta_old_or_new(faulty.into_survivor(), &states, reached, &ctx);
    }
}

#[test]
fn open_sweeps_shadowed_files_left_by_a_mid_prune_crash() {
    // A compaction that died between the snapshot rename and the prune
    // leaves fully-shadowed files behind: deltas at or below the new
    // base and snapshots more than one generation old. Recovery must
    // remove them (like tmp- files) while keeping the previous-snapshot
    // recovery fallback.
    let dir = MemIo::new();
    let mut store = DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir.clone())
        .expect("open");
    for step in 1..=3u64 {
        let mut txn = store.begin();
        for (name, units) in batch(step - 1) {
            txn.append_units(&name, &units);
        }
        txn.commit().expect("delta commit");
    }
    store.compact().expect("compact");
    assert_eq!(store.generation(), 4);
    drop(store);

    // Forge the mid-prune crash remnants (the sweep is name-driven, so
    // torn content must not matter).
    dir.write_file("delta-0000000000000002.mob", b"shadowed torn delta")
        .expect("forge");
    dir.write_file("snap-0000000000000001.mob", b"shadowed torn snap")
        .expect("forge");
    dir.write_file("snap-0000000000000003.mob", b"previous snapshot")
        .expect("forge");
    dir.write_file("tmp-0000000000000005.mob", b"partial shadow write")
        .expect("forge");

    let reopened = DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir.clone())
        .expect("reopen sweeps, never fails");
    assert_eq!(reopened.generation(), 4);
    let mut names = dir.list().expect("list");
    names.sort();
    assert_eq!(
        names,
        vec![
            "snap-0000000000000003.mob".to_string(),
            "snap-0000000000000004.mob".to_string(),
        ],
        "shadowed delta/snap/tmp files swept; base + fallback kept"
    );

    // The recovered content is exactly the compacted state, and the
    // store keeps working.
    let states = delta_states();
    let got = snapshot_units(&reopened.snapshot().expect("snapshot"));
    assert_eq!(&got, states[4].as_ref().expect("state 4"));
}

#[test]
fn crashed_writer_leftover_delta_is_replaced_on_recommit() {
    // A writer that died after partially writing delta-2 must not poison
    // a successor that re-commits generation 2: the stale file is
    // replaced, and reopening sees the successor's chain.
    let dir = MemIo::new();
    let mut store = DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir.clone())
        .expect("open");
    let mut txn = store.begin();
    for (name, units) in batch(0) {
        txn.append_units(&name, &units);
    }
    txn.commit().expect("delta 1");
    // Dead writer's torn delta-2.
    dir.write_file("delta-0000000000000002.mob", b"torn garbage")
        .expect("forge");
    // Successor (same handle; recovery would equally remove the file).
    let mut txn = store.begin();
    for (name, units) in batch(1) {
        txn.append_units(&name, &units);
    }
    txn.commit().expect("delta 2 replaces the leftover");
    let reopened = DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir)
        .expect("reopen");
    assert_eq!(reopened.generation(), 2);
    let states = delta_states();
    let got = snapshot_units(&reopened.snapshot().expect("gen"));
    assert_eq!(&got, states[2].as_ref().expect("state 2"));
}

// ---------------------------------------------------------------------
// One supervised maintenance tick: compaction and the index rebuild
// commit one snapshot. A crash at any write unit of the tick recovers
// either the chain from before the tick or the indexed snapshot, and
// both hold the same units and answer every probe alike.
// ---------------------------------------------------------------------

const MAINT_INDEX: &str = "fleet/index";

/// The index rebuild the tick runs: a run-packed tree over every
/// `moving(point)` root, committed under [`MAINT_INDEX`].
fn index_all(g: &Generation) -> DecodeResult<Option<StoreFile>> {
    let mut entries = Vec::new();
    let mut tuples = 0u32;
    for (_, root) in g.entries() {
        if let RootRecord::MPoint(m) = root {
            entries.extend(run_cubes(tuples, &open_mpoint(m, g.store(), Verify::Full)?));
            tuples += 1;
        }
    }
    let mut file = g.to_store_file();
    let stored = save_index(&RTree::bulk(tuples as usize, entries), file.store_mut());
    file.set(MAINT_INDEX, RootRecord::Index(stored));
    Ok(Some(file))
}

/// The delta workload's three commits, on a clean disk.
fn staged_chain() -> MemIo {
    let disk = MemIo::new();
    let mut store = open(disk.clone()).expect("stage open");
    for step in 0..3 {
        let mut txn = store.begin();
        for (name, units) in batch(step) {
            txn.append_units(&name, &units);
        }
        txn.commit().expect("staged delta");
    }
    disk
}

/// Run one maintenance tick over a copy of `staged` through `faulty`'s
/// injector; returns the wrapper and whether the tick reported its
/// commit.
fn run_maintenance_tick(
    staged: &MemIo,
    budget: u64,
    mask: FaultMask,
    seed: u64,
) -> (FaultyIo, bool) {
    let disk = MemIo::new();
    for (name, bytes) in staged.dump() {
        disk.write_file(&name, &bytes).expect("copy staged file");
    }
    let store = Arc::new(Mutex::new(
        open(FaultyIo::new(disk, budget, mask, seed)).expect("reopen reads only"),
    ));
    let config = SupervisorConfig {
        delta_threshold: 3,
        delta_bytes_threshold: u64::MAX,
        policy: RetryPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed,
        },
        poll_interval: Duration::from_millis(1),
    };
    let sup = Supervisor::new(Arc::clone(&store), config, Arc::new(VirtualClock::new()))
        .with_rebuilder(Arc::new(index_all));
    let committed = match sup.run_once() {
        MaintTick::Compacted { rebuilt, .. } => {
            assert_eq!(rebuilt, Some(4), "the one commit carries the index");
            true
        }
        MaintTick::GaveUp { .. } => false,
        MaintTick::Idle => panic!("three deltas cross the threshold"),
    };
    drop(sup);
    let store = Arc::try_unwrap(store).unwrap_or_else(|_| panic!("store still shared"));
    let io = store
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_io();
    (io, committed)
}

/// Every `moving(point)` root's units, in catalog order.
fn mpoint_units(gen: &Generation) -> DeltaState {
    gen.entries()
        .iter()
        .filter_map(|(name, root)| match root {
            RootRecord::MPoint(m) => Some((
                name.clone(),
                load_array::<UPointRecord>(&m.units, gen.store()).expect("clean units"),
            )),
            _ => None,
        })
        .collect()
}

/// Probe cubes over both objects' tracks, some empty.
fn probe_cubes() -> Vec<Cube> {
    let mut cubes = Vec::new();
    for (x, y) in [
        (-2.0, -6.0),
        (4.0, 2.0),
        (9.0, -9.0),
        (101.0, 0.0),
        (107.0, 5.0),
        (50.0, 0.0),
    ] {
        for (t0, t1) in [(0.0, 2.0), (3.0, 7.5), (8.0, 12.0), (0.0, 12.0)] {
            let rect = Rect::new(r(x), r(y), r(x + 4.0), r(y + 4.0));
            cubes.push(Cube::new(rect, &Interval::closed(t(t0), t(t1))));
        }
    }
    cubes
}

/// Per probe, the tuples with a unit whose cube meets it: by a full
/// scan, and, when `gen` holds the index, through the stored tree's
/// candidates, which must agree.
fn probe_answers(gen: &Generation, ctx: &str) -> Vec<Vec<u32>> {
    let cubes: Vec<Vec<Cube>> = gen
        .entries()
        .iter()
        .filter_map(|(_, root)| match root {
            RootRecord::MPoint(m) => {
                let view = open_mpoint(m, gen.store(), Verify::Full).expect("clean view");
                Some(unit_cubes(0, &view).into_iter().map(|e| e.cube).collect())
            }
            _ => None,
        })
        .collect();
    let meets = |tuple: u32, q: &Cube| cubes[tuple as usize].iter().any(|c| c.intersects(q));
    let tree = gen.get(MAINT_INDEX).map(|_| {
        gen.index_tree(MAINT_INDEX)
            .unwrap_or_else(|e| panic!("{ctx}: the committed index loads: {e}"))
    });
    probe_cubes()
        .iter()
        .map(|q| {
            let full: Vec<u32> = (0..cubes.len() as u32).filter(|&i| meets(i, q)).collect();
            if let Some(tree) = &tree {
                let mut pruned = tree.query(q).expect("a tree searched whole").tuples;
                pruned.retain(|&i| meets(i, q));
                assert_eq!(pruned, full, "{ctx}: pruned ≠ full for {q:?}");
            }
            full
        })
        .collect()
}

#[test]
fn exhaustive_maintenance_tick_crash_sweep_old_or_indexed() {
    let staged = staged_chain();
    let before = recover_then_open(staged.clone(), "staged").expect("staged open");
    let old = before.snapshot().expect("staged head");
    assert_eq!((old.number(), before.pending_deltas()), (3, 3));
    let want_units = mpoint_units(&old);
    let want_answers = probe_answers(&old, "staged");
    assert!(
        want_answers.iter().any(|a| !a.is_empty()) && want_answers.iter().any(Vec::is_empty),
        "the probes hit and miss"
    );

    let (faulty, committed) = run_maintenance_tick(&staged, u64::MAX, FaultMask::KeepUnsynced, 0);
    assert!(committed, "the fault-free tick commits");
    let total_units = faulty.write_units();
    let mut cases = 0usize;
    for budget in 0..=total_units {
        for (i, mask) in FAULT_MASKS.into_iter().enumerate() {
            let seed = 0x7_1C4 ^ (budget * 7 + i as u64);
            let (faulty, committed) = run_maintenance_tick(&staged, budget, mask, seed);
            let ctx = format!("maintenance crash_after={budget} mask={mask:?} seed={seed}");
            let store = recover_then_open(faulty.into_survivor(), &ctx)
                .unwrap_or_else(|e| panic!("{ctx}: recovery errored: {e}"));
            let head = store.snapshot().expect("head");
            match store.generation() {
                3 => {
                    assert!(
                        !committed,
                        "{ctx}: the tick reported a commit that vanished"
                    );
                    assert_eq!(store.pending_deltas(), 3, "{ctx}: the whole chain");
                    assert!(head.get(MAINT_INDEX).is_none(), "{ctx}: no index yet");
                }
                4 => {
                    assert_eq!(store.pending_deltas(), 0, "{ctx}: one snapshot");
                    assert!(
                        head.get(MAINT_INDEX).is_some(),
                        "{ctx}: the indexed snapshot"
                    );
                }
                g => panic!("{ctx}: recovered generation {g}, neither before nor after"),
            }
            assert_eq!(mpoint_units(&head), want_units, "{ctx}: units moved");
            assert_eq!(
                probe_answers(&head, &ctx),
                want_answers,
                "{ctx}: answers moved"
            );
            cases += 1;
        }
    }
    assert!(
        cases >= 200,
        "maintenance campaign too small: {cases} cases"
    );
}
