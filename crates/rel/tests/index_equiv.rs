//! Property: **index pruning never changes answers.**
//!
//! For randomized fleets and randomized probes, `snapshot_at`,
//! `filter_inside` and `passes` must return byte-identical relations
//! with the index off ([`IndexPolicy::Off`], the reference full scan)
//! and forced on ([`IndexPolicy::Force`]) — on the in-memory backend,
//! on the storage backend, with quarantined tuples under
//! [`OnError::SkipAndRecord`], and across worker-pool widths 1 and 4.

use mob_base::{t, Interval};
use mob_core::MovingPoint;
use mob_rel::queries::planes_relation;
use mob_rel::{
    save_relation, AttrType, AttrValue, IndexPolicy, OnError, OpenRelOpts, Relation, ScanOpts,
    Tuple,
};
use mob_spatial::{pt, rect_ring, Region};
use mob_storage::{DurableStore, MemIo, StoreFile};
use proptest::prelude::*;

/// One tuple spec: origin and leg count; trajectory is derived
/// deterministically so the two backends hold identical fleets.
type Spec = (f64, f64, usize);

fn fleet(specs: &[Spec]) -> Relation {
    planes_relation(
        specs
            .iter()
            .enumerate()
            .map(|(k, &(x0, y0, legs))| {
                let dx = (k % 5) as f64 - 2.0;
                let samples: Vec<_> = (0..=legs)
                    .map(|i| {
                        let i = i as f64;
                        (t(i * 2.0), pt(x0 + i * dx, y0 + i * 1.5))
                    })
                    .collect();
                (
                    format!("A{}", k % 3),
                    format!("F{k}"),
                    MovingPoint::from_samples(&samples),
                )
            })
            .collect(),
    )
}

/// `rel` saved as a relation root, committed to an in-memory durable
/// store, and opened again from the reopened store's head.
fn reopened(rel: &Relation) -> Relation {
    let mut file = StoreFile::new();
    save_relation(rel, &mut file, "planes").unwrap();
    let dir = MemIo::new();
    let mut store = DurableStore::options().open(dir.clone()).unwrap();
    let mut txn = store.begin();
    txn.put_store_file(&file).unwrap();
    txn.commit().unwrap();
    let head = DurableStore::options()
        .open(dir)
        .unwrap()
        .snapshot()
        .unwrap();
    Relation::open(&head, &OpenRelOpts::new().relation("planes")).unwrap()
}

/// Replace tuple `q`'s moving point with a quarantine placeholder (what
/// a degraded open of a damaged store produces).
fn quarantine_tuple(rel: &Relation, q: usize) -> Relation {
    let mut out = Relation::new(rel.schema().clone());
    for (i, tup) in rel.tuples().iter().enumerate() {
        let values = tup
            .values()
            .iter()
            .map(|v| {
                if i == q && v.attr_type() == AttrType::MPoint {
                    AttrValue::Quarantined {
                        ty: AttrType::MPoint,
                        detail: "blob quarantined (test)".into(),
                    }
                } else {
                    v.clone()
                }
            })
            .collect();
        out.insert(Tuple::new(values)).unwrap();
    }
    out
}

/// Assert full-scan ≡ pruned-scan for all three operators over one
/// relation (which must carry an index), at both pool widths.
fn assert_equivalent(
    rel: &Relation,
    probe_t: f64,
    zone: &Region,
    w0: f64,
    w1: f64,
    policy: OnError,
) {
    assert!(rel.has_index(), "test premise: index attached");
    let window = Interval::closed(t(w0), t(w1));
    for threads in [1usize, 4] {
        let full = ScanOpts::new()
            .threads(threads)
            .on_error(policy)
            .index(IndexPolicy::Off);
        let pruned = full.clone().index(IndexPolicy::Force);

        let a = rel.snapshot_at(t(probe_t), &full);
        let b = rel.snapshot_at(t(probe_t), &pruned);
        match (a, b) {
            (Ok((ra, sa)), Ok((rb, sb))) => {
                assert_eq!(ra, rb, "snapshot_at, {threads} threads");
                assert_eq!(sa.tuples_quarantined, sb.tuples_quarantined);
                assert_eq!(sb.index_fallbacks, 0, "usable index must not fall back");
                assert!(sb.candidates.unwrap() <= rel.len());
            }
            (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
            (a, b) => panic!("snapshot_at diverged: {a:?} vs {b:?}"),
        }

        let a = rel.filter_inside("flight", zone, &full);
        let b = rel.filter_inside("flight", zone, &pruned);
        match (a, b) {
            (Ok((ra, _)), Ok((rb, _))) => assert_eq!(ra, rb, "filter_inside, {threads} threads"),
            (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
            (a, b) => panic!("filter_inside diverged: {a:?} vs {b:?}"),
        }

        let a = rel.passes("flight", zone, &window, &full);
        let b = rel.passes("flight", zone, &window, &pruned);
        match (a, b) {
            (Ok((ra, _)), Ok((rb, _))) => assert_eq!(ra, rb, "passes, {threads} threads"),
            (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
            (a, b) => panic!("passes diverged: {a:?} vs {b:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pruning_is_invisible(
        specs in proptest::collection::vec((0.0f64..40.0, 0.0f64..40.0, 2usize..8), 2..14),
        probe_t in 0.0f64..20.0,
        zone_x in 0.0f64..35.0,
        zone_y in 0.0f64..35.0,
        zone_w in 1.0f64..12.0,
        w0 in 0.0f64..10.0,
        dw in 0.5f64..8.0,
        qpick in 0usize..64,
    ) {
        let zone = Region::from_ring(rect_ring(zone_x, zone_y, zone_x + zone_w, zone_y + zone_w));

        // In-memory backend, freshly built index.
        let mut mem = fleet(&specs);
        mem.build_index("flight").unwrap();
        assert_equivalent(&mem, probe_t, &zone, w0, w0 + dw, OnError::Fail);

        // Storage backend: same fleet through save/open, index rebuilt
        // over the stored views.
        let mut opened = reopened(&mem);
        opened.build_index("flight").unwrap();
        assert_equivalent(&opened, probe_t, &zone, w0, w0 + dw, OnError::Fail);

        // Quarantined tuple: equivalence must hold for both policies —
        // identical errors under Fail, identical survivors + tallies
        // under SkipAndRecord.
        let mut damaged = quarantine_tuple(&mem, qpick % specs.len());
        damaged.build_index("flight").unwrap();
        assert_equivalent(&damaged, probe_t, &zone, w0, w0 + dw, OnError::Fail);
        assert_equivalent(&damaged, probe_t, &zone, w0, w0 + dw, OnError::SkipAndRecord);
    }
}
