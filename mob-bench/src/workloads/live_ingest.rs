//! `live-ingest`: the write path. Each operation is one writer tick and
//! one fresh read. The tick appends one sample per object (a seeded
//! random walk, so ι cleanup never merges units), seals the tails into a
//! delta transaction, commits it with an fsync, and runs one inline
//! maintenance step (`Supervisor::run_once` with the default thresholds
//! and the index rebuilder). The read then pins the new generation,
//! opens it with the stored — usually stale — index and answers four
//! `passes` probes over the last three ticks.
//!
//! Compaction and index rebuild show up as periodic tick stalls, and the
//! reader's scans go through an index whose `always` list grows between
//! compactions, so deferring maintenance shows in the query latency.
//!
//! The store grows with every tick, so the loop runs in epochs of a fixed
//! number of ticks, each on a store rebuilt to the set-up state: every
//! epoch does the same work, and a longer run measures more epochs, not
//! a larger store.

use super::{OpSample, Workload};
use crate::common::{
    commit, live_units, matches_full_scan, open_relation, open_store, scan, timed_rebuilder, zone,
    Checks, Env, IoMaker, Rng, Scan, StoreDir,
};
use crate::trace::{nanos, Tracer};
use mob_base::{t, Instant, Interval};
use mob_core::MovingPoint;
use mob_rel::Relation;
use mob_spatial::{pt, Point};
use mob_storage::{
    DurableStore, Ingestor, MaintTick, StoreIo, Supervisor, SupervisorConfig, SystemClock, Verify,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Catalog root of the stored R-tree the supervisor maintains.
const INDEX_ROOT: &str = "live/index";
/// Half-width of the square the objects move in.
const WORLD: f64 = 500.0;
/// Largest per-axis step of one tick.
const STEP: f64 = 3.0;
/// `passes` probes per tick, each over the last [`PROBE_TICKS`] ticks.
const PROBES: usize = 4;
const PROBE_TICKS: f64 = 3.0;
/// Objects whose complete sample history is kept for the final check.
const SAMPLED: usize = 64;

/// `(objects, preloaded ticks, measured ticks per epoch)`. An epoch of
/// 32 ticks holds four compactions at the default threshold of eight
/// deltas.
fn size(scale: crate::Scale) -> (usize, u64, u64) {
    match scale {
        crate::Scale::Smoke => (64, 10, 4),
        crate::Scale::Full => (1000, 32, 32),
    }
}

/// The ingesting client: one random walk per object, fed to an
/// [`Ingestor`] one sample per object per tick.
struct Writer {
    ingest: Ingestor,
    names: Vec<String>,
    pos: Vec<(f64, f64)>,
    /// Drives the sample stream (query parameters use the run's own
    /// generator).
    walk: Rng,
    tick: u64,
    /// `(object, every sample sent)` for the sampled objects.
    history: Vec<(usize, Vec<(Instant, Point)>)>,
    /// Units sealed into commits so far.
    appended: u64,
}

impl Writer {
    fn new(seed: u64, n: usize) -> Writer {
        let mut walk = Rng::new(seed);
        let pos = (0..n)
            .map(|_| (walk.range(-WORLD, WORLD), walk.range(-WORLD, WORLD)))
            .collect();
        Writer {
            ingest: Ingestor::new(),
            names: (0..n).map(|k| format!("obj/{k:05}")).collect(),
            pos,
            walk,
            tick: 0,
            history: (0..n)
                .step_by((n / SAMPLED).max(1))
                .map(|k| (k, Vec::new()))
                .collect(),
            appended: 0,
        }
    }

    /// Append one sample per object, seal, commit, run maintenance.
    fn tick<I: StoreIo>(
        &mut self,
        tr: &Tracer,
        store: &Mutex<DurableStore<I>>,
        sup: &Supervisor<I>,
    ) -> Result<(), String> {
        let ti = t(self.tick as f64);
        self.tick += 1;
        tr.time("ingest.append", || -> Result<(), String> {
            let mut sampled = self.history.iter_mut().peekable();
            for (k, (x, y)) in self.pos.iter_mut().enumerate() {
                *x = (*x + self.walk.range(-STEP, STEP)).clamp(-WORLD, WORLD);
                *y = (*y + self.walk.range(-STEP, STEP)).clamp(-WORLD, WORLD);
                let p = pt(*x, *y);
                self.ingest
                    .append(&self.names[k], ti, p)
                    .map_err(|e| e.to_string())?;
                if let Some((_, h)) = sampled.next_if(|(o, _)| *o == k) {
                    h.push((ti, p));
                }
            }
            Ok(())
        })?;
        {
            let mut store = store.lock().expect("store lock poisoned");
            let mut txn = store.begin();
            self.appended += tr.time("ingest.seal", || self.ingest.seal_into(&mut txn)) as u64;
            commit(tr, txn)?;
        }
        let start = std::time::Instant::now();
        match sup.run_once() {
            MaintTick::Idle => Ok(()),
            MaintTick::Compacted { .. } => {
                tr.record("maint.tick", nanos(start));
                Ok(())
            }
            MaintTick::GaveUp { error, .. } => Err(format!("maintenance gave up: {error}")),
        }
    }
}

/// One epoch's store, its supervisor and its writer.
struct Epoch<I: StoreIo> {
    sup: Supervisor<I>,
    store: Arc<Mutex<DurableStore<I>>>,
    writer: Writer,
    dir: StoreDir,
}

fn supervisor<I: StoreIo>(tr: &Arc<Tracer>, store: &Arc<Mutex<DurableStore<I>>>) -> Supervisor<I> {
    Supervisor::new(
        Arc::clone(store),
        SupervisorConfig::default(),
        Arc::new(SystemClock::new()),
    )
    .with_rebuilder(timed_rebuilder(tr, INDEX_ROOT))
}

impl<I: StoreIo> Epoch<I> {
    /// Preload a fresh store, then close and recover it from disk, as a
    /// restarted writer would; the recovered generation is checked.
    fn new<M: IoMaker<Io = I>>(
        seed: u64,
        number: u64,
        env: &Env<'_, M>,
        checks: &mut Checks,
    ) -> Result<Epoch<I>, String> {
        let (n, preload, _) = size(env.scale);
        let dir = StoreDir::fresh(env.root, &format!("live-ingest-{number}"))?;
        let mut writer = Writer::new(seed, n);
        let store = Arc::new(Mutex::new(open_store(env.io, env.tr, dir.path())?));
        let sup = supervisor(env.tr, &store);
        for _ in 0..preload {
            writer.tick(env.tr, &store, &sup)?;
        }
        let committed = store.lock().expect("store lock poisoned").generation();
        drop(sup);
        drop(Arc::try_unwrap(store).map_err(|_| "store still shared after the preload")?);
        let recovered = open_store(env.io, env.tr, dir.path())?;
        if !checks.record(recovered.generation() == committed) {
            return Err(format!(
                "reopen recovered generation {} after committing {committed}",
                recovered.generation()
            ));
        }
        let store = Arc::new(Mutex::new(recovered));
        Ok(Epoch {
            sup: supervisor(env.tr, &store),
            store,
            writer,
            dir,
        })
    }

    /// The stored mappings of the sampled objects must equal
    /// `MovingPoint::from_samples` over everything sent for them.
    fn check_history(&self, checks: &mut Checks) -> Result<(), String> {
        let gen = self
            .store
            .lock()
            .expect("store lock poisoned")
            .snapshot()
            .map_err(|e| e.to_string())?;
        for (k, samples) in &self.writer.history {
            let name = &self.writer.names[*k];
            let stored = gen
                .open_mpoint(name, Verify::Full)
                .and_then(|v| v.materialize_validated())
                .map_err(|e| format!("{name}: {e}"))?;
            let want = MovingPoint::from_samples(samples);
            if !checks.record(stored.units() == want.units()) {
                return Err(format!("{name}: stored units differ from its samples"));
            }
        }
        Ok(())
    }
}

struct LiveIngest<M: IoMaker> {
    tr: Arc<Tracer>,
    io: M,
    root: PathBuf,
    scale: crate::Scale,
    seed: u64,
    /// The current epoch; `None` only while the next one is set up.
    epoch: Option<Epoch<M::Io>>,
    /// Epochs started before the current one.
    epochs: u64,
    /// Units sealed by the epochs before the current one.
    appended_before: u64,
    checks: Checks,
}

/// Set up the first epoch.
pub fn setup<M: IoMaker>(seed: u64, env: &Env<'_, M>) -> Result<Box<dyn Workload>, String> {
    let mut checks = Checks::default();
    let epoch = Epoch::new(seed, 0, env, &mut checks)?;
    Ok(Box::new(LiveIngest {
        tr: Arc::clone(env.tr),
        io: env.io.clone(),
        root: env.root.to_path_buf(),
        scale: env.scale,
        seed,
        epoch: Some(epoch),
        epochs: 0,
        appended_before: 0,
        checks,
    }))
}

/// What one fresh read returned: the relation it opened, its first
/// probe with that probe's answer, and every probe's latency.
type FreshRead = (Relation, Scan, Relation, Vec<u64>);

impl<M: IoMaker> LiveIngest<M> {
    fn cur(&self) -> &Epoch<M::Io> {
        self.epoch.as_ref().expect("an epoch is set up")
    }

    /// Pin the newest generation, open it, and answer the probes.
    fn read(&self, rng: &mut Rng) -> Result<FreshRead, String> {
        let gen = self
            .cur()
            .store
            .lock()
            .expect("store lock poisoned")
            .snapshot()
            .map_err(|e| e.to_string())?;
        let rel = open_relation(&self.tr, &gen, INDEX_ROOT)?;
        let now = (self.cur().writer.tick - 1) as f64;
        let win = Interval::closed(t((now - PROBE_TICKS).max(0.0)), t(now));
        let mut first = None;
        let mut query_ns = Vec::with_capacity(PROBES);
        for _ in 0..PROBES {
            let q = Scan::Passes(zone(rng, WORLD, 100.0), win);
            let (got, ns) = scan(&self.tr, &rel, "trip", &q)?;
            query_ns.push(ns);
            first.get_or_insert((q, got));
        }
        let (q, got) = first.ok_or("no probe ran")?;
        Ok((rel, q, got, query_ns))
    }
}

impl<M: IoMaker> Workload for LiveIngest<M> {
    /// One tick of the writer, then one fresh read of what it committed.
    fn op(&mut self, _k: u64, rng: &mut Rng) -> OpSample {
        let start = std::time::Instant::now();
        let e = self.epoch.as_mut().expect("an epoch is set up");
        let out = e
            .writer
            .tick(&self.tr, &e.store, &e.sup)
            .and_then(|()| self.read(rng));
        let op_ns = nanos(start);
        let (rel, q, got, query_ns) = match out {
            Ok(read) => read,
            Err(e) => return OpSample::failed("live-ingest", &e),
        };
        if !self
            .checks
            .record(matches_full_scan(&rel, "trip", &q, &got))
        {
            return OpSample::failed(
                "live-ingest",
                "probe answer differs from the index-off scan",
            );
        }
        OpSample {
            op_ns,
            query_ns,
            ok: true,
        }
    }

    fn epoch(&self) -> Option<u64> {
        Some(size(self.scale).2)
    }

    /// Check the finished epoch's store, then preload a fresh one. The
    /// finished epoch is dropped first, so the two never share memory.
    fn restart(&mut self) -> Result<(), String> {
        let done = self.epoch.take().expect("an epoch is set up");
        done.check_history(&mut self.checks)?;
        self.appended_before += done.writer.appended;
        drop(done);
        let env = Env {
            root: &self.root,
            io: &self.io,
            tr: &self.tr,
            scale: self.scale,
        };
        self.epochs += 1;
        self.epoch = Some(Epoch::new(self.seed, self.epochs, &env, &mut self.checks)?);
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        let e = self.epoch.as_ref().expect("an epoch is set up");
        e.check_history(&mut self.checks)
    }

    fn checks(&self) -> Checks {
        self.checks
    }

    fn appended_units(&self) -> u64 {
        self.appended_before + self.cur().writer.appended
    }

    fn live_units(&self) -> u64 {
        self.cur()
            .store
            .lock()
            .expect("store lock poisoned")
            .snapshot()
            .map_or(0, |g| live_units(&g))
    }

    fn dir_bytes(&self) -> u64 {
        self.cur().dir.bytes()
    }
}
