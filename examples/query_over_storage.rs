//! Query-over-storage walkthrough: save a `planes` relation, commit it
//! to a durable store (in memory), reopen the store, open the relation
//! and run Section 2's Query 1 **in place** — the flights stay
//! serialized and the query decodes only the unit records it actually
//! needs.
//!
//! ```sh
//! cargo run --example query_over_storage
//! ```

use mob::core::UnitSeq;
use mob::prelude::*;
use mob::rel::{long_flights, planes_relation, save_relation, OpenRelOpts};
use mob::storage::{DurableStore, MemIo, StoreFile};

fn main() {
    // A seeded fleet: 16 planes, ~512 units per flight.
    let fleet = planes_relation(
        mob::gen::plane_fleet(0xF11E5, 16, 512)
            .into_iter()
            .map(|p| (p.airline, p.id, p.flight))
            .collect(),
    );
    let total_units: usize = fleet
        .tuples()
        .iter()
        .filter_map(|t| t.at(2).as_mpoint().map(|m| m.num_units()))
        .sum();

    // Persist it: every flight becomes a root record + a unit array in
    // page chains (Sec 4's attribute representation), and the relation
    // one more root naming them. Commit it and reopen the store.
    let mut file = StoreFile::new();
    save_relation(&fleet, &mut file, "planes").expect("fleet serializes");
    let pages_total = file.store().pages_written();
    println!(
        "saved {} planes / {} units into {} pages",
        fleet.len(),
        total_units,
        pages_total
    );
    let dir = MemIo::new();
    let mut durable = DurableStore::options().open(dir.clone()).expect("opens");
    let mut txn = durable.begin();
    txn.put_store_file(&file).expect("stages");
    txn.commit().expect("commits");
    let head = DurableStore::options()
        .open(dir)
        .expect("reopens")
        .snapshot()
        .expect("committed");
    let store = head.store();

    // Open it for query-in-place: one structural check per flight, then
    // flights stay as lazy MPointRef handles over the store.
    store.reset_counters();
    let lazy = Relation::open(&head, &OpenRelOpts::new().relation("planes")).expect("opens");
    println!(
        "opened for query-in-place: {} pages read",
        store.pages_read()
    );

    // Query 1 (Sec 2): long Lufthansa flights. trajectory() must scan
    // every unit of the candidate flights, but nothing is materialized
    // up front and non-Lufthansa flights are never decoded.
    store.reset_counters();
    let q1 = long_flights(&lazy, "Lufthansa", 1500.0);
    println!(
        "\nQuery 1 (long Lufthansa flights): {} rows, {} pages read",
        q1.len(),
        store.pages_read()
    );
    for row in q1.tuples() {
        println!(
            "  {} {}",
            row.at(0).as_str().unwrap(),
            row.at(1).as_str().unwrap()
        );
    }

    // A single-instant probe on one stored flight: the UnitSeq binary
    // search reads O(log n) interval headers and decodes ONE unit.
    let flight = lazy.tuples()[0]
        .at(2)
        .as_mpoint_ref()
        .expect("stored flight");
    let view = flight.view();
    let n = view.len();
    store.reset_counters();
    let snapshot = view.at_instant(t(37.0));
    println!("\natinstant on a stored flight of {n} units -> {snapshot:?}",);
    println!(
        "  interval headers read: {} (≈ log2 {} = {})",
        view.headers_read(),
        n,
        (n as f64).log2().ceil() as u64,
    );
    println!("  unit records decoded:  {} of {}", view.units_decoded(), n);
    println!("  pages read:            {}", store.pages_read());
}
