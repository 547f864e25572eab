//! `fleet-mix`: a stored, indexed plane fleet queried with a
//! BerlinMOD-style mix — 60% `passes`, 15% `snapshot_at`, 10%
//! `filter_inside`, 10% Q1 (`long_flights`) and 5% Q2 (a sector join:
//! `passes` over a 40×40 sector, then `close_encounters` on its flights).
//!
//! The planner, index and execute layers do most of the work; durable
//! writes and reopen are idle during the loop.

use super::{OpSample, Round, Workload};
use crate::common::{
    build_indexed_store, full_scan, live_units, mix_scan, open_relation, open_store, scan,
    string_rows, window, zone, Checks, Env, IoMaker, Rng, Scan, StoreDir,
};
use crate::trace::{nanos, Tracer};
use mob_base::t;
use mob_gen::{plane_fleet, Plane, AIRLINES};
use mob_rel::{
    close_encounters, long_flights, planes_relation, planes_schema, AttrValue, Relation, Tuple,
};
use mob_storage::{DurableStore, Generation, RootRecord};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Catalog root of the fleet's stored R-tree.
pub const INDEX_ROOT: &str = "fleet/index";
/// Legs per flight.
const LEGS: usize = 12;
/// Side of the query zones, in the 2000×2000 arena.
const ZONE: f64 = 100.0;
/// Side of Q2's sector. The join is quadratic in the flights crossing
/// it, so a 100-unit sector made a few Q2 calls (dense sectors) cost 20×
/// the median and set the tail alone; 40 keeps every Q2 comparable to a
/// Q1.
const SECTOR: f64 = 40.0;
/// Minimum trajectory length of Q1.
const Q1_MIN_LENGTH: f64 = 1500.0;
/// Distance threshold of Q2's `close_encounters`.
const Q2_THRESHOLD: f64 = 25.0;

/// The query mix as a fixed 20-query cycle (12 `passes`, 3
/// `snapshot_at`, 2 `filter_inside`, 2 Q1, 1 Q2), so every run has the
/// same shares whatever its seed and length. One round of the cycle is
/// one measured operation.
#[derive(Clone, Copy)]
enum Kind {
    Passes,
    Snapshot,
    Filter,
    Q1,
    Q2,
}

const CYCLE: [Kind; 20] = {
    use Kind::*;
    [
        Passes, Snapshot, Passes, Q1, Passes, Filter, Passes, Passes, Snapshot, Passes, //
        Q2, Passes, Passes, Filter, Passes, Q1, Snapshot, Passes, Passes, Passes,
    ]
};

/// Flights in the fleet at each scale.
pub fn flights(scale: crate::Scale) -> usize {
    match scale {
        crate::Scale::Smoke => 200,
        crate::Scale::Full => 10_000,
    }
}

/// Generate `n` flights from `seed`, commit them as `airline/id` roots,
/// then commit the R-tree under [`INDEX_ROOT`]. Returns the store and
/// the in-memory flights.
pub fn build_fleet_store<M: IoMaker>(
    env: &Env<'_, M>,
    dir: &Path,
    seed: u64,
    n: usize,
) -> Result<(DurableStore<M::Io>, Vec<Plane>), String> {
    let fleet = plane_fleet(seed, n, LEGS);
    let roots = fleet
        .iter()
        .map(|p| (format!("{}/{}", p.airline, p.id), &p.flight));
    let store = build_indexed_store(env, dir, roots, INDEX_ROOT)?;
    Ok((store, fleet))
}

/// The `planes(airline, id, flight)` relation over the same stored
/// flights as `fleet(name, trip)` (root names split at `/`), with the
/// stored R-tree attached.
fn planes_from(fleet: &Relation, gen: &Generation) -> Result<Relation, String> {
    let mut planes = Relation::new(planes_schema());
    for tup in fleet.tuples() {
        let name = tup.at(0).as_str().ok_or("fleet tuple without a name")?;
        let (airline, id) = name.split_once('/').ok_or("root name is not airline/id")?;
        planes
            .insert(Tuple::new(vec![
                AttrValue::str(airline),
                AttrValue::str(id),
                tup.at(1).clone(),
            ]))
            .map_err(|e| e.to_string())?;
    }
    match gen.get(INDEX_ROOT) {
        Some(RootRecord::Index(ix)) => {
            let attached = planes
                .attach_stored_index("flight", ix, gen.store())
                .map_err(|e| e.to_string())?;
            if !attached {
                return Err("stored fleet index does not fit the planes relation".into());
            }
        }
        _ => return Err("fleet store has no index".into()),
    }
    Ok(planes)
}

struct FleetMix {
    tr: Arc<Tracer>,
    dir: StoreDir,
    fleet: Relation,
    planes: Relation,
    reference: Relation,
    units: u64,
    checks: Checks,
    scans: u64,
}

/// Build the store, reopen it from disk and open the relations.
pub fn setup<M: IoMaker>(seed: u64, env: &Env<'_, M>) -> Result<Box<dyn Workload>, String> {
    let dir = StoreDir::fresh(env.root, "fleet-mix")?;
    let (store, flights) = build_fleet_store(env, dir.path(), seed, flights(env.scale))?;
    drop(store);
    let store = open_store(env.io, env.tr, dir.path())?;
    let gen = store.snapshot().map_err(|e| e.to_string())?;
    let fleet = open_relation(env.tr, &gen, INDEX_ROOT)?;
    let planes = planes_from(&fleet, &gen)?;
    let units = live_units(&gen);
    let reference = planes_relation(
        flights
            .into_iter()
            .map(|p| (p.airline, p.id, p.flight))
            .collect(),
    );
    Ok(Box::new(FleetMix {
        tr: Arc::clone(env.tr),
        dir,
        fleet,
        planes,
        reference,
        units,
        checks: Checks::default(),
        scans: 0,
    }))
}

impl FleetMix {
    fn scan_op(&mut self, q: &Scan) -> Result<u64, String> {
        mix_scan(&self.tr, &self.fleet, q, &mut self.scans, &mut self.checks)
    }

    fn q1(&mut self, rng: &mut Rng) -> Result<u64, String> {
        let airline = AIRLINES[rng.below(AIRLINES.len())];
        let start = Instant::now();
        let got = long_flights(&self.planes, airline, Q1_MIN_LENGTH);
        let ns = nanos(start);
        let want = long_flights(&self.reference, airline, Q1_MIN_LENGTH);
        if !self.checks.record(string_rows(&got) == string_rows(&want)) {
            return Err("Q1 answer differs from the in-memory fleet".into());
        }
        Ok(ns)
    }

    fn q2(&mut self, rng: &mut Rng) -> Result<u64, String> {
        let q = Scan::Passes(zone(rng, 1000.0, SECTOR), window(rng, 0.0, 100.0, 5.0));
        let (sector, scan_ns) = scan(&self.tr, &self.planes, "flight", &q)?;
        let start = Instant::now();
        let got = close_encounters(&sector, Q2_THRESHOLD);
        let ns = scan_ns + nanos(start);
        let ref_sector = full_scan(&self.reference, "flight", &q)?;
        let want = close_encounters(&ref_sector, Q2_THRESHOLD);
        if !self.checks.record(
            string_rows(&sector) == string_rows(&ref_sector)
                && string_rows(&got) == string_rows(&want),
        ) {
            return Err("Q2 answer differs from the in-memory fleet".into());
        }
        Ok(ns)
    }
}

impl Workload for FleetMix {
    /// One round of [`CYCLE`].
    fn op(&mut self, _k: u64, rng: &mut Rng) -> OpSample {
        let mut round = Round::default();
        for kind in CYCLE {
            let out = match kind {
                Kind::Passes => {
                    let q = Scan::Passes(zone(rng, 1000.0, ZONE), window(rng, 0.0, 100.0, 15.0));
                    self.scan_op(&q).map(|ns| round.passes(ns))
                }
                Kind::Snapshot => self
                    .scan_op(&Scan::SnapshotAt(t(rng.range(0.0, 100.0))))
                    .map(|ns| round.other(ns)),
                Kind::Filter => self
                    .scan_op(&Scan::FilterInside(zone(rng, 1000.0, ZONE)))
                    .map(|ns| round.other(ns)),
                Kind::Q1 => self.q1(rng).map(|ns| round.other(ns)),
                Kind::Q2 => self.q2(rng).map(|ns| round.other(ns)),
            };
            if let Err(e) = out {
                return OpSample::failed("fleet-mix", &e);
            }
        }
        round.sample()
    }

    fn checks(&self) -> Checks {
        self.checks
    }

    fn appended_units(&self) -> u64 {
        self.units
    }

    fn live_units(&self) -> u64 {
        self.units
    }

    fn dir_bytes(&self) -> u64 {
        self.dir.bytes()
    }
}
