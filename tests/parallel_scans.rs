//! Determinism properties of the parallel batch query layer.
//!
//! The claims under test (see DESIGN.md §8):
//!
//! 1. `Relation::snapshot_at` and `Relation::filter_inside` produce
//!    results **byte-identical** to the sequential (1-thread) run for
//!    every thread count, on both access paths — in-memory mappings and
//!    storage-backed `MPointRef` views.
//! 2. `batch_at_instant` over a sorted probe set agrees exactly with
//!    per-call `at_instant`, again on both access paths.

use mob::core::{batch_at_instant, UnitSeq};
use mob::par::{CancelToken, Cancellable, Pool};
use mob::prelude::*;
use mob::rel::{planes_relation, save_relation, OnError, ScanOpts};
use mob::storage::mapping_store::save_mpoint;
use mob::storage::{open_mpoint, PageStore, Verify};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Strategies
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
    proptest::collection::vec(mpoint_strategy(), 1..10).prop_map(|flights| {
        planes_relation(
            flights
                .into_iter()
                .enumerate()
                .map(|(k, m)| (format!("A{}", k % 3), format!("F{k:02}"), m))
                .collect(),
        )
    })
}

/// The `id` column of a relation, for comparing filtered relations that
/// differ only in their `moving(point)` backend.
fn ids(rel: &Relation) -> Vec<String> {
    let id = rel.attr("id");
    rel.tuples()
        .iter()
        .filter_map(|tup| tup.at(id).as_str().map(str::to_owned))
        .collect()
}

// ---------------------------------------------------------------------
// batch_at_instant ≡ per-call at_instant
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_at_instant_agrees_with_per_call(
        m in mpoint_strategy(),
        probes in probes_strategy(),
    ) {
        // In-memory mapping.
        let batch = batch_at_instant(&m, &probes);
        prop_assert_eq!(batch.len(), probes.len());
        for (k, ti) in probes.iter().enumerate() {
            prop_assert_eq!(batch[k], m.at_instant(*ti));
        }
        // Storage-backed view: same values, and the merge scan never
        // decodes more units than it has probes or units.
        let mut store = PageStore::new();
        let stored = save_mpoint(&m, &mut store);
        let view = open_mpoint(&stored, &store, Verify::Full).expect("saved mapping reopens");
        view.reset_counters();
        let batch_view = batch_at_instant(&view, &probes);
        prop_assert_eq!(batch_view, batch);
        let bound = (probes.len() as u64).min(UnitSeq::len(&m) as u64);
        prop_assert!(view.units_decoded() <= bound,
            "decoded {} units for {} probes over {} units",
            view.units_decoded(), probes.len(), UnitSeq::len(&m));
    }
}

// ---------------------------------------------------------------------
// Parallel relation scans ≡ sequential, on both backends
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn snapshot_is_deterministic_across_threads_and_backends(
        rel in fleet_strategy(),
        x in instant_strategy(),
    ) {
        let ti = t(x);
        let expect = rel.snapshot_at(ti, &ScanOpts::new().threads(1)).unwrap().0;
        // Same relation, any thread count.
        for threads in 2..=4usize {
            let got = rel.snapshot_at(ti, &ScanOpts::new().threads(threads)).unwrap().0;
            prop_assert_eq!(&got, &expect, "{} threads", threads);
        }
        // Storage-backed relation: snapshots land in plain `point`
        // attributes, so the results must be *equal*, not just alike.
        let mut store = PageStore::new();
        let stored = save_relation(&rel, &mut store).expect("fleet saves");
        let opened = Relation::from_stored(&stored, Arc::new(store), OnError::Fail).expect("fleet reopens");
        for threads in 1..=4usize {
            let got = opened.snapshot_at(ti, &ScanOpts::new().threads(threads)).unwrap().0;
            prop_assert_eq!(&got, &expect, "stored, {} threads", threads);
        }
    }

    #[test]
    fn filter_inside_is_deterministic_across_threads_and_backends(
        rel in fleet_strategy(),
        zone in rect_region_strategy(),
    ) {
        let expect = rel.filter_inside("flight", &zone, &ScanOpts::new().threads(1)).expect("flight is an attribute").0;
        for threads in 2..=4usize {
            let got = rel.filter_inside("flight", &zone, &ScanOpts::new().threads(threads)).expect("flight is an attribute").0;
            prop_assert_eq!(&got, &expect, "{} threads", threads);
        }
        // Stored backend keeps `MPointRef` attributes, so compare by
        // the selected tuple identities.
        let mut store = PageStore::new();
        let stored = save_relation(&rel, &mut store).expect("fleet saves");
        let opened = Relation::from_stored(&stored, Arc::new(store), OnError::Fail).expect("fleet reopens");
        for threads in 1..=4usize {
            let got = opened.filter_inside("flight", &zone, &ScanOpts::new().threads(threads)).expect("flight is an attribute").0;
            prop_assert_eq!(ids(&got), ids(&expect), "stored, {} threads", threads);
        }
    }
}

// ---------------------------------------------------------------------
// Pool-level determinism on relation-sized inputs
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chunked_map_is_order_preserving(
        items in proptest::collection::vec(-1000i64..1000, 0..300),
        threads in 1usize..6,
    ) {
        let expect: Vec<i64> = items.iter().map(|x| x * 7 - 3).collect();
        let got = Pool::with_threads(threads).chunked_map(&items, &CancelToken::never(), |x| x * 7 - 3);
        prop_assert_eq!(got, Cancellable::Done(expect));
    }
}
