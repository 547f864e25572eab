//! Tour of the Section 4 data structures: root records, database arrays
//! with automatic inline/external placement, subarrays, and the Fig 7
//! `mapping` layout — with page-I/O accounting.
//!
//! Run with: `cargo run -p mob --example storage_tour`

use mob::gen::{plane_fleet, storm};
use mob::storage::line_store::save_line;
use mob::storage::mapping_store::{save_mpoint, save_mregion};
use mob::storage::region_store::save_region;
use mob::storage::{open_mpoint, PageStore, TupleLayout, Verify};

fn main() {
    let mut store = PageStore::new();
    println!("page size: {} bytes\n", store.page_size());

    // A small flight: everything fits inline in the tuple.
    let small = &plane_fleet(1, 1, 4)[0];
    let stored_small = save_mpoint(&small.flight, &mut store);
    let mut layout = TupleLayout::with_root(16);
    layout
        .add_array(&stored_small.units, &store)
        .expect("the array was just saved");
    println!(
        "small flight ({} units): tuple bytes {}, fully inline: {}",
        stored_small.num_units,
        layout.tuple_bytes(),
        layout.fully_inline()
    );

    // A long trajectory: the units array spills to external pages.
    let big = &plane_fleet(2, 1, 400)[0];
    store.reset_counters();
    let stored_big = save_mpoint(&big.flight, &mut store);
    let mut layout = TupleLayout::with_root(16);
    layout
        .add_array(&stored_big.units, &store)
        .expect("the array was just saved");
    println!(
        "long flight ({} units): tuple bytes {}, external pages {}, pages written {}",
        stored_big.num_units,
        layout.tuple_bytes(),
        layout.external_pages,
        store.pages_written()
    );

    // Reading it back costs exactly those pages.
    store.reset_counters();
    let reloaded = open_mpoint(&stored_big, &store, Verify::Full)
        .and_then(|v| v.materialize_validated())
        .expect("store is well-formed");
    println!(
        "reload: {} pages read, value identical: {}",
        store.pages_read(),
        reloaded == big.flight
    );

    // A moving region (three shared subarrays, Sec 4.2).
    let hurricane = storm(7, 12, 20);
    store.reset_counters();
    let stored_mr = save_mregion(&hurricane, &mut store);
    let mut layout = TupleLayout::with_root(24);
    for array in [
        &stored_mr.units,
        &stored_mr.msegments,
        &stored_mr.mcycles,
        &stored_mr.mfaces,
    ] {
        layout
            .add_array(array, &store)
            .expect("the array was just saved");
    }
    println!(
        "\nmoving region ({} units, {} msegs): tuple bytes {}, external arrays {}, external pages {}",
        stored_mr.num_units,
        hurricane.total_msegs(),
        layout.tuple_bytes(),
        layout.external_arrays,
        layout.external_pages,
    );

    // Static spatial values: line and region with halfsegment arrays.
    let snap = hurricane.at_instant(mob::base::t(50.0)).unwrap();
    let stored_region = save_region(&snap, &mut store);
    println!(
        "\nregion snapshot: {} halfsegment records, {} cycles, {} faces, area {:.1}",
        2 * stored_region.num_segments,
        stored_region.num_cycles,
        stored_region.num_faces,
        stored_region.area,
    );

    let traj = big.flight.trajectory();
    let stored_line = save_line(&traj, &mut store);
    println!(
        "trajectory line: {} segments, length {:.1}, inline: {}",
        stored_line.num_segments,
        stored_line.length,
        stored_line.halfsegs.is_inline()
    );
}
