//! Registry determinism: the same Section-5 workload records the same
//! metric totals no matter how many worker threads execute it.
//!
//! The comparison uses [`Snapshot::deterministic`], which drops the
//! scheduling-dependent `par.*` partition counters and `*.ns` timings;
//! everything else — header reads, unit decodes, cache hits, probe and
//! pair counts — must be **identical** across `threads = 1 / 2 / 4`,
//! exactly as DESIGN.md §9 claims.
//!
//! This binary deliberately contains a *single* proptest: the metrics
//! registry is process-global, and delta-based assertions would race
//! with any other `#[test]` running concurrently in the same process.

use mob::core::batch_at_instant;
use mob::obs::Registry;
use mob::prelude::*;
use mob::rel::{planes_relation, save_relation, OpenRelOpts, ScanOpts};
use mob::storage::mapping_store::save_mpoint;
use mob::storage::{open_mpoint, DurableStore, MemIo, PageStore, StoreFile, Verify};
use proptest::prelude::*;

/// `rel` saved as the relation root `planes`, committed to an in-memory
/// durable store, and opened from the reopened store's head.
fn reopened(rel: &Relation) -> Relation {
    let mut file = StoreFile::new();
    save_relation(rel, &mut file, "planes").expect("fleet saves");
    let dir = MemIo::new();
    let mut durable = DurableStore::options()
        .open(dir.clone())
        .expect("fresh dir");
    let mut txn = durable.begin();
    txn.put_store_file(&file).expect("stage fleet");
    txn.commit().expect("commit fleet");
    let head = DurableStore::options()
        .open(dir)
        .expect("reopen")
        .snapshot()
        .expect("committed");
    Relation::open(&head, &OpenRelOpts::new().relation("planes")).expect("fleet reopens")
}

// ---------------------------------------------------------------------
// Strategies (mirroring tests/parallel_scans.rs)
// ---------------------------------------------------------------------

/// Well-conditioned instants on a quarter-integer grid.
fn instant_strategy() -> impl Strategy<Value = f64> {
    (-40i32..80).prop_map(|k| k as f64 / 4.0)
}

/// A random moving point from increasing samples.
fn mpoint_strategy() -> impl Strategy<Value = MovingPoint> {
    proptest::collection::vec((-100i32..100, -100i32..100), 2..8).prop_map(|steps| {
        let samples: Vec<(Instant, Point)> = steps
            .iter()
            .enumerate()
            .map(|(k, (x, y))| (t(k as f64), pt(*x as f64, *y as f64)))
            .collect();
        MovingPoint::from_samples(&samples)
    })
}

/// A sorted (possibly repeating) probe set.
fn probes_strategy() -> impl Strategy<Value = Vec<Instant>> {
    proptest::collection::vec(instant_strategy(), 0..24).prop_map(|mut xs| {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("grid instants are not NaN"));
        xs.into_iter().map(t).collect()
    })
}

/// A random axis-aligned rectangle region on an integer grid.
fn rect_region_strategy() -> impl Strategy<Value = Region> {
    (-20i32..20, -20i32..20, 1i32..24, 1i32..24).prop_map(|(x, y, w, h)| {
        Region::from_ring(rect_ring(
            x as f64,
            y as f64,
            (x + w) as f64,
            (y + h) as f64,
        ))
    })
}

/// A small random fleet relation.
fn fleet_strategy() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(mpoint_strategy(), 1..8).prop_map(|flights| {
        planes_relation(
            flights
                .into_iter()
                .enumerate()
                .map(|(k, m)| (format!("A{}", k % 3), format!("F{k:02}"), m))
                .collect(),
        )
    })
}

/// The `id` column, for comparing relations whose `moving(point)`
/// attributes live behind different backends.
fn ids(rel: &Relation) -> Vec<String> {
    let id = rel.attr("id");
    rel.tuples()
        .iter()
        .filter_map(|tup| tup.at(id).as_str().map(str::to_owned))
        .collect()
}

// ---------------------------------------------------------------------
// The property
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn registry_totals_identical_across_thread_counts(
        rel in fleet_strategy(),
        m in mpoint_strategy(),
        probes in probes_strategy(),
        x in instant_strategy(),
        zone in rect_region_strategy(),
    ) {
        if !mob::obs::enabled() {
            // MOB_OBS=0: nothing is recorded, so there is nothing to
            // compare. The disabled contract has its own binary
            // (tests/obs_disabled.rs).
            return;
        }
        let ti = t(x);

        let mut store = PageStore::new();
        let stored_m = save_mpoint(&m, &mut store);
        let opened = reopened(&rel);

        let reg = Registry::global();
        let mut baseline = None;
        for threads in [1usize, 2, 4] {
            let opts = ScanOpts::new().threads(threads);
            // A fresh view per run: `MappingView` keeps a persistent
            // unit cache, so reusing one view would make later runs
            // cheaper (fewer `view.units_decoded` / more
            // `view.cache_hits`) and the comparison vacuous. Opening
            // happens *outside* the snapshot bracket.
            let view =
                open_mpoint(&stored_m, &store, Verify::Full).expect("saved mapping reopens");

            let before = reg.snapshot();
            let snap_mem = rel.snapshot_at(ti, &opts).unwrap().0;
            let snap_store = opened.snapshot_at(ti, &opts).unwrap().0;
            let hits = opened
                .filter_inside("flight", &zone, &opts)
                .expect("flight is an attribute")
                .0;
            let batch = batch_at_instant(&view, &probes);
            let delta = reg.snapshot().delta(&before).deterministic();

            // Snapshots land in plain `point` attributes, so the two
            // backends must agree exactly.
            prop_assert_eq!(&snap_store, &snap_mem, "threads={}", threads);

            match &baseline {
                None => baseline = Some((delta, snap_mem, ids(&hits), batch)),
                Some((delta1, snap1, hits1, batch1)) => {
                    prop_assert_eq!(&snap_mem, snap1, "snapshot, threads={}", threads);
                    prop_assert_eq!(&ids(&hits), hits1, "filter, threads={}", threads);
                    prop_assert_eq!(&batch, batch1, "batch, threads={}", threads);
                    prop_assert_eq!(
                        &delta, delta1,
                        "metric totals diverged at threads={}: [{}] vs threads=1 [{}]",
                        threads, delta, delta1
                    );
                }
            }
        }
    }
}
