//! `track-probe`: few, long taxi tracks in one 200×200 city — 40%
//! `snapshot_at` at random instants, 40% narrow `passes` (10×10 zone,
//! 20-unit window), 20% `batch_at_instant` with 64 sorted probes on one
//! track opened `Verify::Preverified`.
//!
//! Every object is long, so per-object view work dominates: header
//! binary searches, unit decodes, and a unit cache
//! (`DEFAULT_UNIT_CACHE`) far smaller than each track. The taxis
//! overlap, so index pruning saves little.

use super::{OpSample, Round, Workload};
use crate::common::{
    build_indexed_store, live_units, mix_scan, open_relation, open_store, window, zone, Checks,
    Env, IoMaker, Rng, Scan, StoreDir,
};
use crate::trace::{nanos, Tracer};
use mob_base::{t, Instant};
use mob_core::{batch_at_instant, MovingPoint};
use mob_gen::taxi_fleet;
use mob_rel::{AttrValue, Relation};
use std::sync::Arc;

/// Catalog root of the stored R-tree.
const INDEX_ROOT: &str = "taxi/index";
/// Half-width of the city (`taxi_fleet` moves inside `[-100, 100]²`).
const CITY: f64 = 100.0;
/// Probes per `batch_at_instant` call.
const BATCH: usize = 64;

/// `(tracks, units per track)` at each scale.
fn size(scale: crate::Scale) -> (usize, usize) {
    match scale {
        crate::Scale::Smoke => (8, 256),
        crate::Scale::Full => (128, 4096),
    }
}

struct TrackProbe {
    tr: Arc<Tracer>,
    dir: StoreDir,
    rel: Relation,
    taxis: Vec<MovingPoint>,
    span: f64,
    units: u64,
    checks: Checks,
    scans: u64,
}

/// Build the store, reopen it from disk and open the relation.
pub fn setup<M: IoMaker>(seed: u64, env: &Env<'_, M>) -> Result<Box<dyn Workload>, String> {
    let (n, units) = size(env.scale);
    let dir = StoreDir::fresh(env.root, "track-probe")?;
    let taxis = taxi_fleet(seed, n, units);
    let roots = taxis
        .iter()
        .enumerate()
        .map(|(k, m)| (format!("taxi/{k:04}"), m));
    drop(build_indexed_store(env, dir.path(), roots, INDEX_ROOT)?);
    let store = open_store(env.io, env.tr, dir.path())?;
    let gen = store.snapshot().map_err(|e| e.to_string())?;
    let rel = open_relation(env.tr, &gen, INDEX_ROOT)?;
    Ok(Box::new(TrackProbe {
        tr: Arc::clone(env.tr),
        dir,
        rel,
        taxis,
        span: units as f64,
        units: live_units(&gen),
        checks: Checks::default(),
        scans: 0,
    }))
}

impl TrackProbe {
    fn scan_op(&mut self, q: &Scan) -> Result<u64, String> {
        mix_scan(&self.tr, &self.rel, q, &mut self.scans, &mut self.checks)
    }

    /// 64 sorted probes on one stored track, checked against per-probe
    /// `at_instant` on the in-memory track.
    fn batch(&mut self, rng: &mut Rng) -> Result<u64, String> {
        let k = rng.below(self.taxis.len());
        let mut probes: Vec<Instant> = (0..BATCH).map(|_| t(rng.range(0.0, self.span))).collect();
        probes.sort();
        let AttrValue::MPointRef(track) = self.rel.tuples()[k].at(1) else {
            return Err(format!("tuple {k} is not a stored track"));
        };
        let start = std::time::Instant::now();
        let view = track.view();
        let got = batch_at_instant(&view, &probes);
        let ns = nanos(start);
        let want: Vec<_> = probes
            .iter()
            .map(|&ti| self.taxis[k].at_instant(ti))
            .collect();
        if !self.checks.record(got == want) {
            return Err(format!("batch on track {k} differs from at_instant"));
        }
        Ok(ns)
    }
}

impl Workload for TrackProbe {
    /// One round of a fixed 5-query cycle: snapshot, passes, snapshot,
    /// passes, batch — the same shares in every run.
    fn op(&mut self, _k: u64, rng: &mut Rng) -> OpSample {
        let mut round = Round::default();
        for step in 0..5 {
            let out = match step {
                0 | 2 => self
                    .scan_op(&Scan::SnapshotAt(t(rng.range(0.0, self.span))))
                    .map(|ns| round.other(ns)),
                1 | 3 => {
                    let q = Scan::Passes(zone(rng, CITY, 10.0), window(rng, 0.0, self.span, 20.0));
                    self.scan_op(&q).map(|ns| round.passes(ns))
                }
                _ => self.batch(rng).map(|ns| round.other(ns)),
            };
            if let Err(e) = out {
                return OpSample::failed("track-probe", &e);
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
