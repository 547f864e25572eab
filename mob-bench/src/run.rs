//! One run: set a workload up (several times, for `setup_s`), measure
//! its closed loop, check its answers, and report every metric. Time
//! metrics are scaled to the reference host speed ([`crate::pace`]); the
//! record keeps them as measured under `wall`.

use crate::common::{inject_wrong_answer, Env, IoMaker, PlainIo, Rng, TracedIo, UNIT_BYTES};
use crate::json::Json;
use crate::pace::Pace;
use crate::stats::{median, sorted, tail_mean};
use crate::timed_io::{IoSnapshot, IoStat, IoStats};
use crate::trace::Tracer;
use crate::workloads::{self, Workload};
use crate::Scale;
use mob_obs::Registry;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Fewest measured operations: a traced run needs one traced and one
/// untraced.
const MIN_OPS: u64 = 2;

/// Share of `--seconds` spent on unrecorded warm-up operations before the
/// measured loop (caches fill, lazy set-up finishes).
const WARMUP_SHARE: f64 = 0.05;

/// What to run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (see [`workloads::NAMES`]).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Append the full result record to this file.
    pub out: Option<PathBuf>,
    /// Workload size.
    pub scale: Scale,
    /// Corrupt the first answer check (exercises the failure path).
    pub inject_wrong_answer: bool,
}

/// A finished run.
pub struct Outcome {
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations measured.
    pub attempted: u64,
    /// Failed operations plus wrong answers.
    pub failed: u64,
    /// Answer checks made.
    pub checks: u64,
    /// No failure, and at least one check ran.
    pub correct: bool,
    /// The full record (written to `--out`).
    pub record: Json,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::obj(metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }))
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `args` with its stores under `<cwd>/.bench_tmp`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    if !mob_obs::enabled() {
        return Err(format!(
            "observability is disabled ({}=0); the benchmark reads its counters",
            mob_obs::OBS_ENV
        ));
    }
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = cwd
        .join(".bench_tmp")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let _scratch = Scratch(root.clone());
    let outcome = if args.trace {
        let stats = Arc::new(IoStats::default());
        let tr = Arc::new(Tracer::new(Arc::clone(&stats)));
        measure(
            args,
            &root,
            &TracedIo(Arc::clone(&stats)),
            &tr,
            Some(&stats),
        )?
    } else {
        measure(args, &root, &PlainIo, &Arc::new(Tracer::off()), None)?
    };
    if let Some(path) = &args.out {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{}", outcome.record).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(outcome)
}

/// Latencies and counts of the measured loop.
#[derive(Default)]
struct Loop {
    /// `(start time on the run's pace clock, wall-clock ms)` of each
    /// operation run with tracing off.
    ops: Vec<(u64, f64)>,
    /// The same, for operations run with tracing on (traced runs only).
    traced: Vec<(u64, f64)>,
    /// The same, for each query answered inside an untraced operation.
    queries: Vec<(u64, f64)>,
    attempted: u64,
    failed: u64,
    traced_op_ns: u64,
}

/// Whether `k` operations make whole epochs (see
/// [`Workload::epoch`]).
fn whole(w: &dyn Workload, k: u64) -> bool {
    w.epoch().is_none_or(|e| k.is_multiple_of(e))
}

/// Before operation `k`, start the next epoch where one has ended,
/// untraced.
fn next_epoch(w: &mut dyn Workload, tr: &Tracer, k: u64) -> Result<(), String> {
    match w.epoch() {
        Some(e) if k > 0 && k.is_multiple_of(e) => {
            tr.set_active(false);
            w.restart()
        }
        _ => Ok(()),
    }
}

/// Latencies scaled to the reference speed (see [`crate::pace`]).
fn scaled(pace: &Pace, at: &[(u64, f64)]) -> Vec<f64> {
    at.iter().map(|&(t, ms)| ms * pace.factor_at(t)).collect()
}

fn wall(at: &[(u64, f64)]) -> Vec<f64> {
    at.iter().map(|&(_, ms)| ms).collect()
}

/// Operations per second of operation time (one over the mean latency).
fn rate(ms: &[f64]) -> f64 {
    ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3)
}

fn measure<M: IoMaker>(
    args: &Args,
    root: &Path,
    io: &M,
    tr: &Arc<Tracer>,
    io_stats: Option<&Arc<IoStats>>,
) -> Result<Outcome, String> {
    let env = Env {
        root,
        io,
        tr,
        scale: args.scale,
    };
    let bytes_committed = || Registry::global().snapshot().get("durable.bytes_committed");

    // The host-speed probe brackets every set-up and samples through the
    // loop.
    let mut pace = Pace::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut current = None;
    let mut bytes_before = 0;
    for _ in 0..SETUPS {
        drop(current.take());
        bytes_before = bytes_committed();
        pace.sample();
        let at = pace.now();
        let start = Instant::now();
        current = Some(workloads::setup(&args.workload, args.seed, &env)?);
        let secs = start.elapsed().as_secs_f64();
        setups.push((at + (secs * 5e8) as u64, secs));
        pace.sample();
    }
    let mut w = current.expect("at least one set-up ran");

    if args.inject_wrong_answer {
        inject_wrong_answer();
    }
    let mut rng = Rng::new(args.seed ^ 0x5EED_0B5E);
    let mut pick = Rng::new(args.seed ^ 0x7EAC_ED00);
    let mut first_traced = false;
    let mut k = 0;
    let mut l = Loop::default();
    tr.set_active(false);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds * WARMUP_SHARE || !whole(&*w, k) {
        next_epoch(&mut *w, tr, k)?;
        pace.tick();
        w.op(k, &mut rng);
        k += 1;
    }
    let layers_before = tr.layers();
    let scans_before = tr.calls("scan.self");
    let rows_before = tr.total("scan.rows");
    let io_before = io_stats.map(|s| s.snapshot()).unwrap_or_default();
    let start = Instant::now();
    for k in k.. {
        let time_up = l.attempted >= MIN_OPS && start.elapsed().as_secs_f64() >= args.seconds;
        if time_up && whole(&*w, k) {
            break;
        }
        if let Err(e) = next_epoch(&mut *w, tr, k) {
            eprintln!("{}: {e}", args.workload);
            l.failed += 1;
            break;
        }
        // Traced runs trace one operation of every consecutive pair, the
        // first or the second by a seeded coin flip; the untraced half is
        // the baseline of `trace.overhead_pct`. Not simply every other
        // operation, so the halves see the same mix whatever the
        // workload's cycle of operation kinds.
        let first_of_pair = l.attempted % 2 == 0;
        if first_of_pair {
            first_traced = pick.next_u64() & 1 == 0;
        }
        let traced = args.trace && first_traced == first_of_pair;
        pace.tick();
        let at = pace.now();
        tr.set_active(traced);
        let before = tr.begin_op();
        let s = w.op(k, &mut rng);
        tr.end_op(before);
        l.attempted += 1;
        if !s.ok {
            l.failed += 1;
            continue;
        }
        let ms = s.op_ns as f64 / 1e6;
        if traced {
            l.traced_op_ns += s.op_ns;
            l.traced.push((at, ms));
        } else {
            l.ops.push((at, ms));
            l.queries
                .extend(s.query_ns.iter().map(|&ns| (at, ns as f64 / 1e6)));
        }
    }
    pace.sample();
    tr.set_active(true);
    if let Err(e) = w.finish() {
        eprintln!("{}: {e}", args.workload);
        l.failed += 1;
    }
    let checks = w.checks();
    // A wrong answer that did not already fail its operation.
    l.failed = l.failed.max(checks.wrong);
    let correct = l.failed == 0 && checks.run > 0;
    if l.ops.is_empty() && l.traced.is_empty() {
        return Err("no operation succeeded".into());
    }

    let op_ms = scaled(&pace, &l.ops);
    let (tail_ms, tail_samples) = if op_ms.is_empty() {
        (0.0, 0)
    } else {
        tail_mean(&sorted(&op_ms))
    };
    let setup_s = scaled(&pace, &setups);
    let write_amp =
        (bytes_committed() - bytes_before) as f64 / (w.appended_units() * UNIT_BYTES) as f64;
    let space_amp = w.dir_bytes() as f64 / (w.live_units() * UNIT_BYTES) as f64;
    let metrics = if args.trace {
        let io_loop = io_stats
            .map(|s| s.snapshot().delta(&io_before))
            .unwrap_or_default();
        let io_all = io_stats.map(|s| s.snapshot()).unwrap_or_default();
        let scans = tr.calls("scan.self") - scans_before;
        let rows = tr.total("scan.rows") - rows_before;
        let traced_ms = scaled(&pace, &l.traced);
        per_layer(tr, &l, &op_ms, &traced_ms, scans, rows, &io_loop, &io_all)
    } else {
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("op_p50_ms", median(&op_ms), "ms"),
            ("op_tail_ms", tail_ms, "ms"),
            ("ops_per_s", rate(&op_ms), "1/s"),
            ("query_p50_ms", median(&scaled(&pace, &l.queries)), "ms"),
            ("write_amp", write_amp, "ratio"),
            ("space_amp", space_amp, "ratio"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };

    // Layer totals of the measured loop alone, for attribution.
    let loop_layers = Json::obj(tr.layers().into_iter().filter_map(|(name, calls, total)| {
        let (c0, t0) = layers_before
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or((0, 0), |&(_, c, t)| (c, t));
        (calls > c0).then(|| {
            (
                name,
                Json::obj([
                    ("calls", Json::Num((calls - c0) as f64)),
                    ("total", Json::Num((total - t0) as f64)),
                ]),
            )
        })
    }));
    let record = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(args.seconds)),
        ("scale", Json::str(args.scale.name())),
        ("host_cores", Json::Num(host_cores() as f64)),
        ("scan_threads", Json::Num(1.0)),
        ("setups", Json::Num(setups.len() as f64)),
        (
            "op_samples",
            Json::Num((l.ops.len() + l.traced.len()) as f64),
        ),
        ("query_samples", Json::Num(l.queries.len() as f64)),
        ("tail_samples", Json::Num(tail_samples as f64)),
        ("pace_median_ns", Json::Num(pace.median_ns())),
        ("wall", wall_json(&setups, &l)),
        ("checks", Json::Num(checks.run as f64)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(l.attempted as f64)),
        ("failed", Json::Num(l.failed as f64)),
        ("metrics", metrics_json(&metrics)),
        ("loop_layers", loop_layers),
        ("traced_op_ns", Json::Num(l.traced_op_ns as f64)),
    ]);
    Ok(Outcome {
        metrics,
        attempted: l.attempted,
        failed: l.failed,
        checks: checks.run,
        correct,
        record,
    })
}

/// The time metrics as measured, before scaling to the reference speed.
fn wall_json(setups: &[(u64, f64)], l: &Loop) -> Json {
    let ops = wall(&l.ops);
    let queries = wall(&l.queries);
    let stat = |v: &[f64], f: fn(&[f64]) -> f64| Json::Num(if v.is_empty() { 0.0 } else { f(v) });
    Json::obj([
        ("setup_s", stat(&wall(setups), median)),
        ("op_p50_ms", stat(&ops, median)),
        ("op_tail_ms", stat(&ops, |v| tail_mean(&sorted(v)).0)),
        ("ops_per_s", stat(&ops, rate)),
        ("query_p50_ms", stat(&queries, median)),
    ])
}

/// Per-layer metrics of a traced run. Times are mean nanoseconds per
/// call over the whole run, set-up included; counts are per measured
/// operation (per scan where named so).
#[allow(clippy::too_many_arguments)]
fn per_layer(
    tr: &Tracer,
    l: &Loop,
    op_ms: &[f64],
    traced_ms: &[f64],
    scans: u64,
    rows: u64,
    io_loop: &IoSnapshot,
    io_all: &IoSnapshot,
) -> Vec<(&'static str, f64, &'static str)> {
    let c = tr.counts();
    let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    let mean = |layer: &str| tr.mean_ns(layer).unwrap_or(0.0);
    let io_mean = |ns: IoStat, calls: u64| per(io_all.get(ns), calls);
    let (ops, traced) = (l.attempted, l.traced.len() as u64);
    let decoded = c.get("view.units_decoded");
    let hits = c.get("view.cache_hits");
    let overhead = if op_ms.is_empty() || traced_ms.is_empty() {
        0.0
    } else {
        (median(traced_ms) / median(op_ms) - 1.0) * 100.0
    };
    vec![
        ("plan.ns", mean("plan"), "ns"),
        ("scan.self_ns", mean("scan.self"), "ns"),
        ("scan.passes.self_ns", mean("scan.passes.self"), "ns"),
        ("rel.open.ns", mean("rel.open"), "ns"),
        ("durable.open.ns", mean("durable.open"), "ns"),
        ("durable.open.self_ns", mean("durable.open.self"), "ns"),
        ("durable.commit.ns", mean("durable.commit"), "ns"),
        ("durable.commit.self_ns", mean("durable.commit.self"), "ns"),
        ("maint.rebuild.ns", mean("maint.rebuild"), "ns"),
        (
            "io.sync.ns",
            io_mean(IoStat::SyncNs, io_all.get(IoStat::Syncs)),
            "ns",
        ),
        (
            "io.write.ns",
            io_mean(
                IoStat::WriteNs,
                io_all.get(IoStat::Writes) + io_all.get(IoStat::Appends),
            ),
            "ns",
        ),
        (
            "io.read.ns",
            io_mean(IoStat::ReadNs, io_all.get(IoStat::Reads)),
            "ns",
        ),
        (
            "io.list.ns",
            io_mean(IoStat::ListNs, io_all.get(IoStat::Lists)),
            "ns",
        ),
        (
            "index.nodes_visited",
            per(c.get("index.nodes_visited"), scans),
            "count",
        ),
        (
            "index.candidates",
            per(c.get("index.candidates"), scans),
            "count",
        ),
        (
            "plan.useful_ratio",
            per(rows, c.get("scan.tuples_probed")),
            "ratio",
        ),
        (
            "scan.tuples_probed",
            per(c.get("scan.tuples_probed"), scans),
            "count",
        ),
        ("par.items", per(c.get("par.items"), scans), "count"),
        (
            "view.headers_read",
            per(c.get("view.headers_read"), traced),
            "count",
        ),
        ("view.units_decoded", per(decoded, traced), "count"),
        ("view.cache_hits", per(hits, traced), "count"),
        ("view.hit_ratio", per(hits, hits + decoded), "ratio"),
        (
            "store.pages_read",
            per(c.get("store.pages_read"), traced),
            "count",
        ),
        (
            "core.refinement.parts",
            per(c.get("core.refinement.parts"), traced),
            "count",
        ),
        (
            "durable.bytes_committed",
            per(c.get("durable.bytes_committed"), traced),
            "B",
        ),
        (
            "maint.compactions",
            per(c.get("maint.compactions"), traced),
            "count",
        ),
        (
            "maint.rebuilds",
            per(c.get("maint.rebuilds"), traced),
            "count",
        ),
        (
            "io.sync.count",
            per(io_loop.get(IoStat::Syncs), ops),
            "count",
        ),
        (
            "io.write.bytes",
            per(io_loop.get(IoStat::WriteBytes), ops),
            "B",
        ),
        (
            "io.read.bytes",
            per(io_loop.get(IoStat::ReadBytes), ops),
            "B",
        ),
        (
            "io.rename.count",
            per(io_loop.get(IoStat::Renames), ops),
            "count",
        ),
        ("trace.overhead_pct", overhead, "%"),
    ]
}

/// Logical cores the process may use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
