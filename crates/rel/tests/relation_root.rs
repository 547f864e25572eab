//! A relation root end to end: `planes(airline, id, flight)` saved with
//! [`save_relation`], committed to a `MemIo` durable store with its
//! index, extended by delta appends addressed to its value roots by
//! name, reopened and compacted. At every step [`Relation::open`]
//! answers like the in-memory relation, and the stored index plus the
//! tail prunes without changing an answer. Damage follows the open's
//! rules: quarantined bytes obey [`OnError`], a dangling or mistyped
//! value-root name refuses the open.

use mob_base::{t, DecodeError, Interval, Text, Val};
use mob_core::MovingPoint;
use mob_rel::{
    close_encounters, long_flights, planes_relation, rebuild_index_root, save_relation, AttrType,
    AttrValue, IndexPolicy, OnError, OpenRelOpts, Relation, ScanOpts,
};
use mob_spatial::{pt, rect_ring, Region};
use mob_storage::{
    BlobId, Cell, DurableStore, Generation, MemIo, Placement, RootRecord, StoreFile, StoredRelation,
};

const CHUNK: usize = 128;
const FLIGHTS: usize = 6;
const LEGS: usize = 48;
const INDEX: &str = "planes/index";

/// Flight `k`'s samples from leg `from` to leg `to`: a zigzag, so every
/// sample starts a unit of its own and the arrays stay external.
fn samples(k: usize, from: usize, to: usize) -> Vec<(mob_base::Instant, mob_spatial::Point)> {
    (from..=to)
        .map(|i| {
            (
                t(i as f64),
                pt(k as f64 * 3.0 + (i % 2) as f64, i as f64 * 0.5),
            )
        })
        .collect()
}

/// The fleet in memory, flight `grown` flown to leg `last`.
fn planes(grown: usize, last: usize) -> Relation {
    planes_relation(
        (0..FLIGHTS)
            .map(|k| {
                let to = if k == grown { last } else { LEGS };
                let airline = if k % 2 == 0 { "Lufthansa" } else { "KLM" };
                let flight = MovingPoint::from_samples(&samples(k, 0, to));
                (airline.to_string(), format!("F{k}"), flight)
            })
            .collect(),
    )
}

fn opts() -> OpenRelOpts {
    OpenRelOpts::new().relation("planes").index(INDEX)
}

/// Every answer the in-memory relation gives, given by `rel` too.
fn assert_answers(rel: &Relation, mem: &Relation, when: &str) {
    assert_eq!(rel.len(), mem.len(), "{when}");
    assert_eq!(
        long_flights(rel, "Lufthansa", 20.0),
        long_flights(mem, "Lufthansa", 20.0),
        "{when}"
    );
    assert_eq!(
        close_encounters(rel, 3.5),
        close_encounters(mem, 3.5),
        "{when}"
    );
    let zone = Region::from_ring(rect_ring(5.5, 20.0, 7.5, 40.0));
    let window = Interval::closed(t(40.0), t(80.0));
    let full = ScanOpts::new().index(IndexPolicy::Off);
    let (expect, _) = mem.passes("flight", &zone, &window, &full).unwrap();
    let (got, _) = rel.passes("flight", &zone, &window, &full).unwrap();
    let ids = |r: &Relation| -> Vec<String> {
        r.tuples()
            .iter()
            .map(|tup| tup.at(1).as_str().unwrap().to_owned())
            .collect()
    };
    assert_eq!(ids(&got), ids(&expect), "{when}");
    let pruned = ScanOpts::new().index(IndexPolicy::Force);
    let (same, stats) = rel.passes("flight", &zone, &window, &pruned).unwrap();
    assert_eq!(same, got, "{when}: pruning changed the answer");
    if rel.has_index() {
        assert_eq!(stats.index_fallbacks, 0, "{when}");
    }
}

#[test]
fn deltas_reach_the_relation_through_its_value_root_names() {
    // Commit the relation, then its index through the maintenance
    // rebuild path.
    let mut file = StoreFile::new();
    save_relation(&planes(FLIGHTS, LEGS), &mut file, "planes").unwrap();
    let dir = MemIo::new();
    let mut store = DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir.clone())
        .unwrap();
    let mut txn = store.begin();
    txn.put_store_file(&file).unwrap();
    txn.commit().unwrap();
    let head = store.snapshot().unwrap();
    let indexed = rebuild_index_root(&head, &OpenRelOpts::new().relation("planes"), INDEX)
        .unwrap()
        .expect("a non-empty relation gets an index");
    let mut txn = store.begin();
    txn.put_store_file(&indexed).unwrap();
    txn.commit().unwrap();
    let rel = Relation::open(&store.snapshot().unwrap(), &opts()).unwrap();
    assert!(rel.has_index(), "the rebuilt index covers the relation");
    assert_answers(&rel, &planes(FLIGHTS, LEGS), "committed");

    // Flight 2 flies on into the probe window: a delta on its value root.
    let more = MovingPoint::from_samples(&samples(2, LEGS, 2 * LEGS));
    let mut txn = store.begin();
    txn.append_units("planes/flight/2", more.units());
    txn.commit().unwrap();
    let grown = planes(2, 2 * LEGS);
    let live = Relation::open(&store.snapshot().unwrap(), &opts()).unwrap();
    assert!(live.has_index(), "the tail keeps the stale index usable");
    let AttrValue::MPointRef(flight) = live.tuples()[2].at(2) else {
        panic!("stored flights open as lazy references");
    };
    assert_eq!(
        &flight.materialize(),
        grown.tuples()[2].at(2).as_mpoint().unwrap()
    );
    assert_answers(&live, &grown, "after the delta");

    // Reopen (replaying the delta), then compact and reopen again.
    drop(store);
    let mut store = DurableStore::options()
        .chunk_size(CHUNK)
        .open(dir.clone())
        .unwrap();
    let replayed = Relation::open(&store.snapshot().unwrap(), &opts()).unwrap();
    assert_answers(&replayed, &grown, "replayed");
    store.compact().unwrap();
    drop(store);
    let store = DurableStore::options().chunk_size(CHUNK).open(dir).unwrap();
    let compacted = Relation::open(&store.snapshot().unwrap(), &opts()).unwrap();
    assert!(
        compacted.index_damaged(),
        "compaction drops the stale index, and the open falls back"
    );
    assert_answers(&compacted, &grown, "compacted");
}

#[test]
fn a_generation_without_the_relation_root_opens_the_implicit_view() {
    let mut file = StoreFile::new();
    let lone = MovingPoint::from_samples(&samples(9, 0, 3));
    let stored = mob_storage::mapping_store::save_mpoint(&lone, file.store_mut());
    file.put("z", RootRecord::MPoint(stored.clone()));
    save_relation(&planes(FLIGHTS, LEGS), &mut file, "planes").unwrap();
    file.put("a", RootRecord::MPoint(stored));
    let gen = Generation::from_store_file(1, file, Vec::new());
    let rel = Relation::open(&gen, &OpenRelOpts::new()).unwrap();
    let attrs: Vec<(&str, AttrType)> = rel
        .schema()
        .attrs()
        .iter()
        .map(|(n, ty)| (n.as_str(), *ty))
        .collect();
    assert_eq!(attrs, [("name", AttrType::Str), ("trip", AttrType::MPoint)]);
    let names: Vec<&str> = rel
        .tuples()
        .iter()
        .map(|tup| tup.at(0).as_str().unwrap())
        .collect();
    let mut expect = vec!["z".to_string()];
    expect.extend((0..FLIGHTS).map(|k| format!("planes/flight/{k}")));
    expect.push("a".to_string());
    assert_eq!(names, expect, "every mpoint root, in catalog order");
}

#[test]
fn quarantined_value_roots_follow_the_damage_policy() {
    let mut file = StoreFile::new();
    save_relation(&planes(FLIGHTS, LEGS), &mut file, "planes").unwrap();
    let Some(RootRecord::MPoint(m)) = file.get("planes/flight/1") else {
        panic!("flight 1 is an mpoint root");
    };
    let Placement::External(id) = m.units.placement else {
        panic!("test premise: unit arrays live in external blobs");
    };
    // Blob data starts after magic, page size and blob count, then each
    // blob is a u32 length and its bytes.
    let start = 16
        + (0..id.index())
            .map(|i| 4 + file.store().blob_len(BlobId::from_index(i)).unwrap())
            .sum::<usize>()
        + 4;
    let bytes = file.to_bytes().unwrap();
    let (damaged, quarantined) =
        StoreFile::from_bytes_with_damage(bytes, &[(start, start + 1)]).unwrap();
    assert_eq!(quarantined, [id.index()]);
    let gen = Generation::from_store_file(1, damaged, quarantined);

    let strict = Relation::open(&gen, &OpenRelOpts::new().relation("planes"));
    assert!(matches!(strict, Err(DecodeError::Quarantined { .. })));
    let rel = Relation::open(
        &gen,
        &OpenRelOpts::new()
            .relation("planes")
            .on_error(OnError::SkipAndRecord),
    )
    .unwrap();
    assert_eq!(rel.len(), FLIGHTS);
    for (k, tup) in rel.tuples().iter().enumerate() {
        assert_eq!(tup.at(2).is_quarantined(), k == 1, "tuple {k}");
    }
    let (snap, stats) = rel
        .snapshot_at(t(5.0), &ScanOpts::new().on_error(OnError::SkipAndRecord))
        .unwrap();
    assert_eq!((snap.len(), stats.tuples_quarantined), (FLIGHTS - 1, 1));
}

#[test]
fn dangling_or_mistyped_value_roots_refuse_the_open() {
    let mut file = StoreFile::new();
    save_relation(&planes(FLIGHTS, LEGS), &mut file, "planes").unwrap();
    let columns = vec![
        ("id".to_string(), AttrType::Str),
        ("flight".to_string(), AttrType::MPoint),
    ];
    let id = Cell::Str(Val::Def(Text::try_new("F0").unwrap()));
    // A cell of the wrong type never gets into a relation root.
    let mut bad = StoredRelation::new(columns.clone());
    assert!(bad
        .push_row(vec![Cell::Int(Val::Undef), id.clone()])
        .is_err());
    for target in ["planes/flight/9", "planes"] {
        let mut rel = StoredRelation::new(columns.clone());
        rel.push_row(vec![id.clone(), Cell::Root(target.to_string())])
            .unwrap();
        let mut forged = StoreFile::from_bytes(&file.to_bytes().unwrap()).unwrap();
        forged.put("forged", RootRecord::Relation(rel));
        let gen = Generation::from_store_file(1, forged, Vec::new());
        let opts = OpenRelOpts::new()
            .relation("forged")
            .on_error(OnError::SkipAndRecord);
        assert!(
            matches!(
                Relation::open(&gen, &opts),
                Err(DecodeError::BadStructure { .. })
            ),
            "{target}"
        );
    }
}
