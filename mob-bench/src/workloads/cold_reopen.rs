//! `cold-reopen`: the `fleet-mix` store plus a chain of six WAL deltas
//! (below the compaction threshold), each appending one sample past
//! t = 100 to a fifth of the flights. Every operation recovers the store
//! from disk (image read, checksum verification, catalog decode, delta
//! replay), pins the generation, opens the relation with its index
//! (per-flight verification) and answers one `passes` query.

use super::fleet_mix::{build_fleet_store, flights, INDEX_ROOT};
use super::{OpSample, Workload};
use crate::common::{
    commit, live_units, open_relation, open_store, scan, string_rows, window, zone, Checks, Env,
    IoMaker, Rng, Scan, StoreDir,
};
use crate::trace::{nanos, Tracer};
use mob_base::t;
use mob_rel::Relation;
use mob_spatial::pt;
use mob_storage::Ingestor;
use std::sync::Arc;

/// Delta commits on top of the base snapshot.
const DELTAS: u64 = 6;
/// One flight in this many gets a sample in every delta.
const APPEND_EVERY: usize = 5;
/// Distinct queries cycled through (answers computed in set-up).
const QUERIES: usize = 16;

struct ColdReopen<M: IoMaker> {
    tr: Arc<Tracer>,
    io: M,
    dir: StoreDir,
    queries: Vec<Scan>,
    /// What set-up saw: generation, catalog size, query answers.
    generation: u64,
    entries: usize,
    answers: Vec<Vec<Vec<String>>>,
    units: u64,
    appended: u64,
    checks: Checks,
}

/// Build the fleet store, append the delta chain, and record what a
/// reopen must see.
pub fn setup<M: IoMaker>(seed: u64, env: &Env<'_, M>) -> Result<Box<dyn Workload>, String> {
    let dir = StoreDir::fresh(env.root, "cold-reopen")?;
    let (mut store, fleet) = build_fleet_store(env, dir.path(), seed, flights(env.scale))?;
    let mut appended: u64 = fleet.iter().map(|p| p.flight.num_units() as u64).sum();
    let mut ingest = Ingestor::new();
    let tails: Vec<_> = fleet
        .iter()
        .step_by(APPEND_EVERY)
        .filter_map(|p| {
            let last = p.flight.final_value().into_option()?;
            Some((format!("{}/{}", p.airline, p.id), last))
        })
        .collect();
    for d in 0..DELTAS {
        for (name, last) in &tails {
            let p = last.val_ref();
            if d == 0 {
                // The stored end point anchors the first appended unit.
                ingest
                    .append(name, last.inst(), *p)
                    .map_err(|e| e.to_string())?;
            }
            let step = (d + 1) as f64;
            ingest
                .append(
                    name,
                    t(100.0 + step),
                    pt(p.x.get() + step, p.y.get() - step),
                )
                .map_err(|e| e.to_string())?;
        }
        let mut txn = store.begin();
        appended += env.tr.time("ingest.seal", || ingest.seal_into(&mut txn)) as u64;
        commit(env.tr, txn)?;
    }
    drop(store);

    let mut rng = Rng::new(seed ^ 0xC01D);
    let queries: Vec<Scan> = (0..QUERIES)
        .map(|_| {
            Scan::Passes(
                zone(&mut rng, 1000.0, 100.0),
                window(&mut rng, 0.0, 107.0, 15.0),
            )
        })
        .collect();
    let store = open_store(env.io, env.tr, dir.path())?;
    let gen = store.snapshot().map_err(|e| e.to_string())?;
    let rel = open_relation(env.tr, &gen, INDEX_ROOT)?;
    let answers = queries
        .iter()
        .map(|q| scan(env.tr, &rel, "trip", q).map(|(r, _)| string_rows(&r)))
        .collect::<Result<_, _>>()?;
    Ok(Box::new(ColdReopen {
        tr: Arc::clone(env.tr),
        io: env.io.clone(),
        dir,
        queries,
        generation: gen.number(),
        entries: gen.entries().len(),
        answers,
        units: live_units(&gen),
        appended,
        checks: Checks::default(),
    }))
}

/// What one reopen saw: generation number, catalog size, the query's
/// answer and the query's latency.
type Reopened = (u64, usize, Relation, u64);

impl<M: IoMaker> ColdReopen<M> {
    fn reopen(&self, k: usize) -> Result<Reopened, String> {
        let store = open_store(&self.io, &self.tr, self.dir.path())?;
        let gen = store.snapshot().map_err(|e| e.to_string())?;
        let rel = open_relation(&self.tr, &gen, INDEX_ROOT)?;
        let (got, ns) = scan(&self.tr, &rel, "trip", &self.queries[k])?;
        Ok((gen.number(), gen.entries().len(), got, ns))
    }
}

impl<M: IoMaker> Workload for ColdReopen<M> {
    fn op(&mut self, k: u64, _rng: &mut Rng) -> OpSample {
        let k = k as usize % QUERIES;
        let start = std::time::Instant::now();
        let out = self.reopen(k);
        let op_ns = nanos(start);
        let (generation, entries, got, query_ns) = match out {
            Ok(seen) => seen,
            Err(e) => return OpSample::failed("cold-reopen", &e),
        };
        let same = generation == self.generation
            && entries == self.entries
            && string_rows(&got) == self.answers[k];
        if !self.checks.record(same) {
            return OpSample::failed(
                "cold-reopen",
                &format!(
                    "reopen saw generation {generation} with {entries} entries; \
                     query {k} answered differently"
                ),
            );
        }
        OpSample {
            op_ns,
            query_ns: vec![query_ns],
            ok: true,
        }
    }

    fn checks(&self) -> Checks {
        self.checks
    }

    fn appended_units(&self) -> u64 {
        self.appended
    }

    fn live_units(&self) -> u64 {
        self.units
    }

    fn dir_bytes(&self) -> u64 {
        self.dir.bytes()
    }
}
