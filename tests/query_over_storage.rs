//! Query-over-storage: the in-memory `Mapping` and the storage-backed
//! `MappingView` are two implementations of the same `UnitSeq` access
//! layer, so every Section-5 algorithm — and every Section-2 query built
//! on top — must produce **identical** results on both.
//!
//! * Property tests: `at_instant` agrees at random instants (including
//!   ⊥ outside the deftime) for `moving(point)`, `moving(real)` and
//!   `moving(region)`.
//! * End-to-end: the Section-2 queries run over a `planes` relation
//!   saved, committed to a durable store, reopened and opened with
//!   `Relation::open` (flights left as lazy `MPointRef`s), over its
//!   fully materialized copy and over the in-memory relation, with
//!   identical answers.

use mob::core::UnitSeq;
use mob::prelude::*;
use mob::rel::{
    close_encounters, long_flights, planes_relation, save_relation, storm_exposure, OpenRelOpts,
};
use mob::storage::mapping_store::{save_mpoint, save_mreal, save_mregion};
use mob::storage::{
    open_mpoint, open_mreal, open_mregion, DurableStore, MemIo, PageStore, StoreFile, Verify,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Probe instants on a quarter grid, deliberately overshooting the
/// sample span on both sides so ⊥ cases are exercised.
fn probe_strategy() -> impl Strategy<Value = f64> {
    (-20i32..60).prop_map(|k| k as f64 / 4.0)
}

/// A random moving point from increasing integer samples over [0, n].
fn mpoint_strategy() -> impl Strategy<Value = MovingPoint> {
    proptest::collection::vec((-100i32..100, -100i32..100), 2..9).prop_map(|steps| {
        let samples: Vec<(Instant, Point)> = steps
            .iter()
            .enumerate()
            .map(|(k, (x, y))| (t(k as f64), pt(*x as f64, *y as f64)))
            .collect();
        MovingPoint::from_samples(&samples)
    })
}

/// A random moving region: rectangles interpolated over unit intervals.
fn mregion_strategy() -> impl Strategy<Value = MovingRegion> {
    proptest::collection::vec((-20i32..20, -20i32..20, 1i32..10, 1i32..10), 2..6).prop_map(
        |rects| {
            let rings: Vec<Ring> = rects
                .iter()
                .map(|(x, y, w, h)| {
                    rect_ring(*x as f64, *y as f64, (*x + *w) as f64, (*y + *h) as f64)
                })
                .collect();
            let units: Vec<URegion> = rings
                .windows(2)
                .enumerate()
                .map(|(k, w)| {
                    let last = k == rings.len() - 2;
                    let iv = Interval::new(t(k as f64), t(k as f64 + 1.0), true, last);
                    URegion::interpolate(iv, &w[0], &w[1]).expect("rect morphs are valid")
                })
                .collect();
            Mapping::try_new(units).expect("consecutive unit intervals are disjoint")
        },
    )
}

// ---------------------------------------------------------------------
// Property tests: both backends agree
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn mpoint_at_instant_agrees(m in mpoint_strategy(), probes in proptest::collection::vec(probe_strategy(), 1..16)) {
        let mut store = PageStore::new();
        let stored = save_mpoint(&m, &mut store);
        let view = open_mpoint(&stored, &store, Verify::Full).expect("saved mapping opens");
        for p in probes {
            let ti = t(p);
            prop_assert_eq!(m.at_instant(ti), view.at_instant(ti));
            prop_assert_eq!(m.present_at(ti), view.present_at(ti));
        }
        prop_assert_eq!(m.deftime(), view.deftime());
    }

    #[test]
    fn mreal_at_instant_agrees(m in mpoint_strategy(), probes in proptest::collection::vec(probe_strategy(), 1..16)) {
        // Derive a moving real (the speed) so units exercise the UReal record.
        let speed: MovingReal = m.speed();
        let mut store = PageStore::new();
        let stored = save_mreal(&speed, &mut store);
        let view = open_mreal(&stored, &store, Verify::Full).expect("saved mapping opens");
        for p in probes {
            let ti = t(p);
            prop_assert_eq!(speed.at_instant(ti), view.at_instant(ti));
        }
        prop_assert_eq!(speed.deftime(), view.deftime());
    }

    #[test]
    fn mregion_at_instant_agrees(m in mregion_strategy(), probes in proptest::collection::vec(probe_strategy(), 1..8)) {
        let mut store = PageStore::new();
        let stored = save_mregion(&m, &mut store);
        let view = open_mregion(&stored, &store, Verify::Full).expect("saved mapping opens");
        for p in probes {
            let ti = t(p);
            prop_assert_eq!(m.at_instant(ti), view.at_instant(ti));
        }
        prop_assert_eq!(m.deftime(), view.deftime());
    }

    #[test]
    fn mpoint_at_periods_agrees(m in mpoint_strategy()) {
        let mut store = PageStore::new();
        let stored = save_mpoint(&m, &mut store);
        let view = open_mpoint(&stored, &store, Verify::Full).expect("saved mapping opens");
        let periods = Periods::from_unmerged(vec![
            Interval::closed(t(0.5), t(2.25)),
            Interval::closed_open(t(4.0), t(5.5)),
        ]);
        prop_assert_eq!(m.atperiods(&periods), view.at_periods(&periods));
        prop_assert_eq!(UnitSeq::materialize(&view), m);
    }
}

// ---------------------------------------------------------------------
// End-to-end: Section-2 queries on both backends
// ---------------------------------------------------------------------

fn fleet() -> Relation {
    planes_relation(
        mob::gen::plane_fleet(0xA11CE, 12, 24)
            .into_iter()
            .map(|p| (p.airline, p.id, p.flight))
            .collect(),
    )
}

#[test]
fn section2_queries_identical_on_both_backends() {
    let mem = fleet();
    let mut file = StoreFile::new();
    save_relation(&mem, &mut file, "planes").expect("fleet serializes");
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
    let store = head.store();

    // Opening the stored relation for query-in-place runs one
    // structural verification scan per flight (untrusted bytes are never
    // probed blindly), then flights stay as lazy MPointRef handles.
    let lazy = Relation::open(&head, &OpenRelOpts::new().relation("planes")).expect("opens");

    // A point query afterwards reads O(log n) unit headers and decodes
    // at most one unit, each read touching at most two pages — the lazy
    // handles never re-read whole flights.
    let handle = lazy.tuples()[0]
        .at(2)
        .as_mpoint_ref()
        .expect("a lazy handle");
    let view = handle.view();
    store.reset_counters();
    let _ = view.at_instant(t(1.0));
    let n = UnitSeq::len(&view) as u64;
    let log_n = u64::from(n.max(1).next_power_of_two().trailing_zeros());
    assert!(n >= 8, "flights long enough to tell log n from n");
    assert!(
        (1..=log_n + 2).contains(&view.headers_read()) && view.units_decoded() <= 1,
        "probe read {} headers and decoded {} units of {n} — lazy handle re-materialized?",
        view.headers_read(),
        view.units_decoded()
    );
    assert!(store.pages_read() <= 2 * (view.headers_read() + view.units_decoded()));

    // The fully materialized path: every stored flight decoded.
    let eager = planes_relation(
        lazy.tuples()
            .iter()
            .map(|tup| {
                let text = |i: usize| tup.at(i).as_str().expect("a string").to_string();
                let flight = tup.at(2).as_mpoint_ref().expect("a lazy handle");
                (text(0), text(1), flight.materialize())
            })
            .collect(),
    );

    // Query 1: long flights.
    let q1_mem = long_flights(&mem, "Lufthansa", 1500.0);
    let q1_eager = long_flights(&eager, "Lufthansa", 1500.0);
    let q1_lazy = long_flights(&lazy, "Lufthansa", 1500.0);
    assert_eq!(q1_mem, q1_eager);
    assert_eq!(q1_mem, q1_lazy);

    // Query 2: close encounters (the spatio-temporal join).
    let q2_mem = close_encounters(&mem, 40.0);
    let q2_lazy = close_encounters(&lazy, 40.0);
    assert_eq!(q2_mem, q2_lazy);

    // Query 3: storm exposure (lifted inside against a moving region).
    let storm = mob::gen::storm(0x5702, 6, 10);
    let q3_mem = storm_exposure(&mem, &storm);
    let q3_lazy = storm_exposure(&lazy, &storm);
    assert_eq!(q3_mem, q3_lazy);
}

#[test]
fn closest_approach_seq_mixes_backends() {
    // One in-memory flight against one storage-backed flight.
    let a = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(2.0), pt(2.0, 0.0))]);
    let b = MovingPoint::from_samples(&[(t(0.0), pt(2.0, 0.0)), (t(2.0), pt(0.0, 0.0))]);
    let mut store = PageStore::new();
    let stored = save_mpoint(&b, &mut store);
    let view = open_mpoint(&stored, &store, Verify::Full).expect("saved mapping opens");
    let mixed = mob::rel::closest_approach_seq(&a, &view);
    assert_eq!(mixed, mob::rel::closest_approach(&a, &b));
    assert_eq!(mixed, Val::Def(r(0.0)));
}
