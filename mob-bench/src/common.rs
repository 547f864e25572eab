//! Pieces every workload shares: the seeded generator, store
//! directories, timed calls into the storage and relation layers, the
//! scan queries, and answer checks.

use crate::timed_io::{IoStats, TimedIo};
use crate::trace::{nanos, Tracer};
use mob_base::{t, Instant, Interval, TimeInterval};
use mob_core::MovingPoint;
use mob_rel::plan::{plan_scan, AttrNeed};
use mob_rel::{index_rebuilder, IndexPolicy, OpenRelOpts, Probe, Relation, ScanOpts};
use mob_spatial::{rect_ring, Cube, Region};
use mob_storage::mapping_store::save_mpoint;
use mob_storage::{DurableStore, FsIo, Generation, RootRecord, StoreFile, StoreIo, Txn};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Bytes of one stored `upoint` record (the paper's unit record).
pub const UNIT_BYTES: u64 = 50;

/// SplitMix64: the benchmark's own seeded generator for query
/// parameters and sample streams.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Opens the I/O layer of a store directory: plain [`FsIo`] for timed
/// runs, [`TimedIo`] around it for traced runs.
pub trait IoMaker: Clone + 'static {
    /// The I/O type the stores use.
    type Io: StoreIo + Send + 'static;

    /// Open `dir` (created if missing).
    fn open(&self, dir: &Path) -> Result<Self::Io, String>;
}

/// Real files, nothing in between.
#[derive(Clone)]
pub struct PlainIo;

impl IoMaker for PlainIo {
    type Io = FsIo;

    fn open(&self, dir: &Path) -> Result<FsIo, String> {
        FsIo::open(dir).map_err(|e| e.to_string())
    }
}

/// Real files behind a counting, timing wrapper.
#[derive(Clone)]
pub struct TracedIo(pub Arc<IoStats>);

impl IoMaker for TracedIo {
    type Io = TimedIo<FsIo>;

    fn open(&self, dir: &Path) -> Result<TimedIo<FsIo>, String> {
        Ok(TimedIo::new(
            FsIo::open(dir).map_err(|e| e.to_string())?,
            Arc::clone(&self.0),
        ))
    }
}

/// A store directory removed when dropped.
pub struct StoreDir(PathBuf);

impl StoreDir {
    /// An empty directory `root/name` (an older one is removed first).
    pub fn fresh(root: &Path, name: &str) -> Result<StoreDir, String> {
        let path = root.join(name);
        if path.exists() {
            std::fs::remove_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(StoreDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Total size of the files in the directory.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|rd| {
                rd.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a run needs to reach its layers.
pub struct Env<'a, M: IoMaker> {
    /// Where store directories go.
    pub root: &'a Path,
    /// Opens store I/O.
    pub io: &'a M,
    /// Layer timing.
    pub tr: &'a Arc<Tracer>,
    /// Workload size.
    pub scale: crate::Scale,
}

/// Open (recover) the durable store in `dir`.
pub fn open_store<M: IoMaker>(
    io: &M,
    tr: &Tracer,
    dir: &Path,
) -> Result<DurableStore<M::Io>, String> {
    let io = io.open(dir)?;
    tr.time_io("durable.open", "durable.open.self", || {
        DurableStore::options()
            .open(io)
            .map_err(|e| format!("durable open: {e}"))
    })
}

/// Commit a staged transaction (fsync included).
pub fn commit<I: StoreIo>(tr: &Tracer, txn: Txn<'_, I>) -> Result<(), String> {
    tr.time_io("durable.commit", "durable.commit.self", || txn.commit())
        .map(|_| ())
        .map_err(|e| format!("commit: {e}"))
}

/// Commit a full image of `file`.
fn commit_file<I: StoreIo>(
    tr: &Tracer,
    store: &mut DurableStore<I>,
    file: &StoreFile,
) -> Result<(), String> {
    let mut txn = store.begin();
    txn.put_store_file(file).map_err(|e| e.to_string())?;
    commit(tr, txn)
}

/// Build the R-tree over `gen`'s moving points and commit it under
/// `index_root` — the same rebuild the maintenance supervisor runs.
fn commit_index<I: StoreIo>(
    tr: &Arc<Tracer>,
    store: &mut DurableStore<I>,
    index_root: &str,
) -> Result<(), String> {
    let gen = store.snapshot().map_err(|e| e.to_string())?;
    let rebuild = timed_rebuilder(tr, index_root);
    let file = rebuild(&gen)
        .map_err(|e| format!("index rebuild: {e}"))?
        .ok_or("index rebuild: no moving points")?;
    commit_file(tr, store, &file)
}

/// Save `roots` as `moving(point)` roots of one store file, commit it to
/// a fresh store in `dir`, then commit the R-tree under `index_root`.
pub fn build_indexed_store<'m, M: IoMaker>(
    env: &Env<'_, M>,
    dir: &Path,
    roots: impl IntoIterator<Item = (String, &'m MovingPoint)>,
    index_root: &str,
) -> Result<DurableStore<M::Io>, String> {
    let mut file = StoreFile::new();
    for (name, m) in roots {
        let stored = save_mpoint(m, file.store_mut());
        file.put(name, RootRecord::MPoint(stored));
    }
    let mut store = open_store(env.io, env.tr, dir)?;
    commit_file(env.tr, &mut store, &file)?;
    drop(file);
    commit_index(env.tr, &mut store, index_root)?;
    Ok(store)
}

/// [`index_rebuilder`] for the default `(name, trip)` schema, with each
/// call recorded as one `maint.rebuild`.
pub fn timed_rebuilder(tr: &Arc<Tracer>, index_root: &str) -> mob_storage::Rebuilder {
    let inner = index_rebuilder(OpenRelOpts::new(), index_root.to_string());
    let tr = Arc::clone(tr);
    Arc::new(move |gen: &Generation| tr.time("maint.rebuild", || inner(gen)))
}

/// Open a pinned generation as a `(name, trip)` relation with the index
/// stored under `index_root`.
pub fn open_relation(tr: &Tracer, gen: &Generation, index_root: &str) -> Result<Relation, String> {
    tr.time("rel.open", || {
        Relation::open(gen, &OpenRelOpts::new().index(index_root))
    })
    .map_err(|e| format!("relation open: {e}"))
}

/// Units stored under `moving(point)` roots of `gen`.
pub fn live_units(gen: &Generation) -> u64 {
    gen.entries()
        .iter()
        .map(|(_, r)| match r {
            RootRecord::MPoint(m) => u64::from(m.num_units),
            _ => 0,
        })
        .sum()
}

/// A square zone of side `side` placed uniformly inside
/// `[-extent, extent]²`.
pub fn zone(rng: &mut Rng, extent: f64, side: f64) -> Region {
    let x = rng.range(-extent, extent - side);
    let y = rng.range(-extent, extent - side);
    Region::from_ring(rect_ring(x, y, x + side, y + side))
}

/// A window of length `len` starting uniformly in `[lo, hi - len]`.
pub fn window(rng: &mut Rng, lo: f64, hi: f64, len: f64) -> TimeInterval {
    let s = rng.range(lo, hi - len);
    Interval::closed(t(s), t(s + len))
}

/// One relation scan of the query mix.
pub enum Scan {
    /// `passes(attr, zone, window)`.
    Passes(Region, TimeInterval),
    /// `snapshot_at(instant)`.
    SnapshotAt(Instant),
    /// `filter_inside(attr, zone)`.
    FilterInside(Region),
}

impl Scan {
    fn run(&self, rel: &Relation, attr: &str, opts: &ScanOpts) -> Result<Relation, String> {
        let out = match self {
            Scan::Passes(zone, window) => rel.passes(attr, zone, window, opts),
            Scan::SnapshotAt(ti) => rel.snapshot_at(*ti, opts),
            Scan::FilterInside(zone) => rel.filter_inside(attr, zone, opts),
        };
        out.map(|(r, _)| r).map_err(|e| format!("scan: {e}"))
    }

    /// The probe and attribute need the scan hands its planner.
    fn plan_input(&self, rel: &Relation, attr: &str) -> Result<(Probe, AttrNeed), String> {
        let idx = rel.try_attr(attr).map_err(|e| e.to_string())?;
        Ok(match self {
            Scan::Passes(zone, window) => (
                Probe::Volume(Cube::new(zone.bbox(), window)),
                AttrNeed::Exactly(idx),
            ),
            Scan::SnapshotAt(ti) => (Probe::At(*ti), AttrNeed::AllMPoints),
            Scan::FilterInside(zone) => (Probe::Window(zone.bbox()), AttrNeed::Exactly(idx)),
        })
    }
}

/// Run `scan` over `rel` (sequential, index `Auto`) and return the
/// answer with its latency in nanoseconds.
///
/// When tracing, the planner is then timed on its own with the same
/// probe (`plan`) — after the scan, so the scan itself runs exactly as
/// untraced — and the scan's remaining time is recorded as `scan.self`
/// (and `scan.passes.self` for `passes`).
pub fn scan(tr: &Tracer, rel: &Relation, attr: &str, q: &Scan) -> Result<(Relation, u64), String> {
    let start = std::time::Instant::now();
    let out = q.run(rel, attr, &ScanOpts::new())?;
    let ns = nanos(start);
    if tr.tracing() {
        let (probe, need) = q.plan_input(rel, attr)?;
        let plan_ns = tr.uncounted(|| {
            let start = std::time::Instant::now();
            std::hint::black_box(plan_scan(rel, &probe, need, IndexPolicy::Auto));
            nanos(start)
        });
        let own = ns.saturating_sub(plan_ns);
        tr.record("plan", plan_ns);
        tr.record("scan.self", own);
        if matches!(q, Scan::Passes(..)) {
            tr.record("scan.passes.self", own);
        }
        tr.record("scan.rows", out.len() as u64);
    }
    Ok((out, ns))
}

/// The answer of `q` with the index off — the reference full scan.
pub fn full_scan(rel: &Relation, attr: &str, q: &Scan) -> Result<Relation, String> {
    q.run(rel, attr, &ScanOpts::new().index(IndexPolicy::Off))
}

/// Whether `got` equals the answer of the same scan with the index off.
pub fn matches_full_scan(rel: &Relation, attr: &str, q: &Scan, got: &Relation) -> bool {
    full_scan(rel, attr, q).is_ok_and(|full| full == *got)
}

/// Every this many scans of a query mix, one is compared against the
/// index-off scan.
const SCAN_CHECK_EVERY: u64 = 50;

/// [`scan`] for a query mix: `count` numbers the mix's scans, and every
/// [`SCAN_CHECK_EVERY`]th answer is checked against the index-off scan.
pub fn mix_scan(
    tr: &Tracer,
    rel: &Relation,
    q: &Scan,
    count: &mut u64,
    checks: &mut Checks,
) -> Result<u64, String> {
    let (got, ns) = scan(tr, rel, "trip", q)?;
    *count += 1;
    if count.is_multiple_of(SCAN_CHECK_EVERY)
        && !checks.record(matches_full_scan(rel, "trip", q, &got))
    {
        return Err("scan answer differs from the index-off scan".into());
    }
    Ok(ns)
}

/// Every tuple of `rel` rendered as its string columns, sorted — a
/// backend-independent fingerprint of a query answer.
pub fn string_rows(rel: &Relation) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = rel
        .tuples()
        .iter()
        .map(|tup| {
            tup.values()
                .iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

/// Set when a test asks the run to corrupt its first answer check.
static INJECT_WRONG: AtomicBool = AtomicBool::new(false);

/// Make the next answer check fail (test fixture for the failure path).
pub fn inject_wrong_answer() {
    INJECT_WRONG.store(true, Ordering::SeqCst);
}

/// Answer checks run and failed so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    /// Comparisons made.
    pub run: u64,
    /// Comparisons that found a wrong answer.
    pub wrong: u64,
}

impl Checks {
    /// Record one comparison; returns whether the answer was right.
    pub fn record(&mut self, ok: bool) -> bool {
        let ok = ok && !INJECT_WRONG.swap(false, Ordering::SeqCst);
        self.run += 1;
        if !ok {
            self.wrong += 1;
        }
        ok
    }
}
