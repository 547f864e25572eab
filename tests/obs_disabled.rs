//! The observability kill switch: with `MOB_OBS=0` the layer must be
//! invisible. Two contracts are under test:
//!
//! 1. **Zero footprint** — no counter or histogram is *ever* registered
//!    (the counter-of-counters check), spans record nothing into the
//!    thread shard, and `explain` degrades to an uncaptured report.
//! 2. **Byte-identical results** — every Section-5 result is exactly
//!    what the spec-level ground truth says, on both access paths and
//!    at every thread count, with the instrumentation switched off.
//!
//! This binary deliberately contains a *single* `#[test]`: the kill
//! switch is read once per process (on first registry use), so it must
//! be set before anything touches `mob::obs` — and no other test in the
//! same process may expect a live registry.

use mob::core::{batch_at_instant, UnitSeq};
use mob::obs::{Registry, OBS_ENV};
use mob::prelude::*;
use mob::rel::{
    planes_relation, save_relation, IndexPolicy, OnError, OpenRelOpts, QueryStats, ScanOpts,
};
use mob::storage::mapping_store::save_mpoint;
use mob::storage::{open_mpoint, DurableStore, MemIo, PageStore, StoreFile, Verify};

#[test]
fn disabled_observability_registers_nothing_and_changes_nothing() {
    // Must happen before the first `Registry::global()` call anywhere
    // in this process; the switch is latched on first use.
    std::env::set_var(OBS_ENV, "0");
    assert!(
        !mob::obs::enabled(),
        "MOB_OBS=0 must switch the registry off"
    );

    // ------------------------------------------------------------------
    // Section-5 workload with ground truth.
    // ------------------------------------------------------------------

    // A plane climbing north-east, sampled at three instants — the
    // `at_instant` answers below are spec-level arithmetic, not
    // derived from a reference run.
    let flight = MovingPoint::from_samples(&[
        (t(0.0), pt(0.0, 0.0)),
        (t(1.0), pt(3.0, 4.0)),
        (t(2.0), pt(3.0, 10.0)),
    ]);
    assert_eq!(flight.at_instant(t(0.5)).unwrap(), pt(1.5, 2.0));
    assert_eq!(flight.at_instant(t(1.5)).unwrap(), pt(3.0, 7.0));

    // batch_at_instant ≡ per-call at_instant, memory and stored.
    let probes: Vec<Instant> = (0..9).map(|k| t(f64::from(k) * 0.25)).collect();
    let per_call: Vec<Val<Point>> = probes.iter().map(|ti| flight.at_instant(*ti)).collect();
    assert_eq!(batch_at_instant(&flight, &probes), per_call);

    let mut store = PageStore::new();
    let stored_m = save_mpoint(&flight, &mut store);
    let view = open_mpoint(&stored_m, &store, Verify::Full).expect("saved mapping reopens");
    assert_eq!(batch_at_instant(&view, &probes), per_call);
    assert_eq!(view.at_instant(t(0.5)), Val::Def(pt(1.5, 2.0)));

    // Relation scans: equal across thread counts and backends.
    let east = MovingPoint::from_samples(&[(t(0.0), pt(10.0, 0.0)), (t(2.0), pt(14.0, 0.0))]);
    let rel = planes_relation(vec![
        ("AA".to_string(), "F00".to_string(), flight.clone()),
        ("BA".to_string(), "F01".to_string(), east),
    ]);
    let mut file = StoreFile::new();
    save_relation(&rel, &mut file, "planes").expect("fleet saves");
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
    let opened =
        Relation::open(&head, &OpenRelOpts::new().relation("planes")).expect("fleet reopens");

    let probe = t(1.0);
    let zone = Region::from_ring(rect_ring(-1.0, -1.0, 4.0, 5.0));
    let expect_snap = rel.snapshot_at(probe, &ScanOpts::default()).unwrap().0;
    for threads in [1usize, 2, 4] {
        let opts = ScanOpts::new().threads(threads);
        assert_eq!(rel.snapshot_at(probe, &opts).unwrap().0, expect_snap);
        assert_eq!(opened.snapshot_at(probe, &opts).unwrap().0, expect_snap);
        let hits = rel
            .filter_inside("flight", &zone, &opts)
            .expect("flight is an attribute")
            .0;
        // Only F00 ever enters the zone around the origin.
        assert_eq!(hits.tuples().len(), 1);
        assert_eq!(hits.tuples()[0].at(rel.attr("id")).as_str(), Some("F00"));
    }

    // Every scan's QueryStats is its own exact tally, registry or not.
    let opts = ScanOpts::new().threads(2);
    let (_, stats) = rel.snapshot_at(probe, &opts).unwrap();
    let full = QueryStats {
        tuples: 2,
        ..QueryStats::default()
    };
    assert_eq!(stats, full);
    // Forcing an index that is not there: one recorded fallback.
    let forced = opts.clone().index(IndexPolicy::Force);
    let (_, stats) = rel.filter_inside("flight", &zone, &forced).unwrap();
    assert_eq!(stats.index_fallbacks, 1);
    assert_eq!(stats.candidates, None);
    // An attached index prunes to F00 alone.
    let mut indexed = rel.clone();
    indexed.build_index("flight").expect("flight is an mpoint");
    let (hits, stats) = indexed.filter_inside("flight", &zone, &forced).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(stats.candidates, Some(1));
    assert_eq!(stats.index_fallbacks, 0);
    // A quarantined tuple skipped under SkipAndRecord is counted.
    let mut damaged = Relation::new(rel.schema().clone());
    for (i, tup) in rel.tuples().iter().enumerate() {
        let values = tup.values().iter().map(|v| match v.attr_type() {
            AttrType::MPoint if i == 1 => AttrValue::Quarantined {
                ty: AttrType::MPoint,
                detail: "blob quarantined (test)".into(),
            },
            _ => v.clone(),
        });
        damaged.insert(Tuple::new(values.collect())).unwrap();
    }
    let skip = opts.on_error(OnError::SkipAndRecord);
    let (snap, stats) = damaged.snapshot_at(probe, &skip).unwrap();
    assert_eq!(snap.len(), 1);
    assert_eq!(
        stats,
        QueryStats {
            tuples_quarantined: 1,
            ..full
        }
    );

    // ------------------------------------------------------------------
    // Counter-of-counters: all of the above registered *nothing*.
    // ------------------------------------------------------------------
    let reg = Registry::global();
    assert_eq!(
        reg.num_counters(),
        0,
        "disabled registry must never allocate a counter"
    );
    assert_eq!(
        reg.num_histograms(),
        0,
        "disabled registry must never allocate a histogram"
    );
    assert!(reg.snapshot().is_empty());

    // Spans recorded nothing into the thread-local shard...
    assert!(
        mob::obs::thread_span_stats().is_empty(),
        "disabled spans must not accumulate shard entries"
    );

    // ...and EXPLAIN degrades gracefully: the closure still runs, the
    // report says it captured nothing.
    let (value, report) = mob::obs::explain("probe", || 41 + 1);
    assert_eq!(value, 42);
    assert!(!report.captured, "disabled explain must not capture");
    assert!(report.root.children.is_empty());
}
