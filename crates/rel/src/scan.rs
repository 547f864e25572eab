//! Relation-wide **parallel batch scans** — the set-at-a-time queries
//! of Sec 2 ("where were all planes at 8:00?") executed tuple-parallel
//! over a `mob-par` worker pool.
//!
//! The operators are backend-agnostic per tuple: an in-memory
//! [`AttrValue::MPoint`] is probed directly, a storage-backed
//! [`AttrValue::MPointRef`](crate::value::MPointRef) through a
//! short-lived lazy view each worker opens for itself (the page store
//! behind the `Arc` is `Sync`; its blobs are immutable).
//!
//! # The pipeline
//!
//! Every scan operator is a thin wrapper over one executor that runs
//! three stages: **plan** (choose full vs pruned access,
//! [`crate::plan::plan_scan`]), **prune** (consult the relation's
//! R-tree for the candidate tuple set) and **execute** (the per-tuple
//! probe, over candidates only). Select scans (`filter_inside`,
//! `passes`) dispatch the candidates and nothing else; the map scan
//! (`snapshot_at`) answers non-candidates with ⊥ without probing their
//! units. The planner never changes answers — see the equivalence
//! contract in [`crate::plan`].
//!
//! Execute dispatches through [`Pool::chunked_map`], the pool's one
//! entry point, with a [`CancelToken`] built from the scan's deadline
//! (or one that never fires): a fired token surfaces as
//! [`ScanError::Deadline`], and a panicking probe resurfaces on the
//! caller's thread naming its chunk, at every width.
//!
//! # Determinism
//!
//! All operators inherit the ordering guarantee of
//! [`Pool::chunked_map`]: output tuples appear in input-tuple order for
//! **every** thread count, so `snapshot_at` / `filter_inside` /
//! `passes` results are byte-identical whether `MOB_THREADS` is 1 or
//! 64 — and whether the index is on, off, or quarantined.

use crate::plan::{plan_scan, AttrNeed, Plan, Probe};
use crate::relation::{Relation, Tuple};
use crate::schema::Schema;
use crate::value::{AttrType, AttrValue};
use mob_base::error::{DecodeError, DecodeResult};
use mob_base::{Instant, TimeInterval, Val};
use mob_core::{ever_inside_seq, UnitSeq};
use mob_par::{CancelToken, Cancellable, Pool};
use mob_spatial::{Cube, Region};
use mob_storage::Clock;
use std::sync::Arc;
use std::time::Duration;

/// A relation scan failed — either the tuples themselves are damaged
/// ([`ScanError::Decode`], the pre-existing error surface) or the
/// scan's deadline expired before every tuple was probed
/// ([`ScanError::Deadline`]).
///
/// `From<DecodeError>` keeps `?` working inside the scan kernels, and
/// `Display` preserves every message callers already match on.
#[derive(Debug)]
pub enum ScanError {
    /// The underlying decode/quarantine error (everything scans could
    /// fail with before deadlines existed).
    Decode(DecodeError),
    /// The [`ScanOpts::deadline`] expired. The scan stopped at a chunk
    /// boundary — no partial relation is returned (answers are never
    /// silently truncated), but the progress made is reported honestly.
    Deadline {
        /// Which scan operator hit the deadline (span name).
        what: &'static str,
        /// Tuples actually probed before the scan stopped.
        items_done: usize,
    },
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Decode(e) => e.fmt(f),
            ScanError::Deadline { what, items_done } => write!(
                f,
                "{what}: deadline exceeded after {items_done} tuples; \
                 results withheld (rerun with a larger budget)"
            ),
        }
    }
}

impl std::error::Error for ScanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScanError::Decode(e) => Some(e),
            ScanError::Deadline { .. } => None,
        }
    }
}

impl From<DecodeError> for ScanError {
    fn from(e: DecodeError) -> ScanError {
        ScanError::Decode(e)
    }
}

impl From<mob_base::error::InvariantViolation> for ScanError {
    fn from(e: mob_base::error::InvariantViolation) -> ScanError {
        ScanError::Decode(e.into())
    }
}

/// Result alias for the relation scans: [`ScanError`] instead of the
/// bare [`DecodeError`].
pub type ScanResult<T> = Result<T, ScanError>;

/// The deadline attached to a scan: a wall-clock expiry measured on an
/// injectable [`Clock`], so tests drive expiry through a
/// `VirtualClock` deterministically.
#[derive(Clone)]
struct ScanDeadline {
    clock: Arc<dyn Clock>,
    expires_at: Duration,
}

impl ScanDeadline {
    fn expired(&self) -> bool {
        self.clock.now() >= self.expires_at
    }

    /// The chunk-boundary token handed to `mob-par`.
    fn token(&self) -> CancelToken {
        let d = self.clone();
        CancelToken::new(move || d.expired())
    }
}

impl std::fmt::Debug for ScanDeadline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanDeadline")
            .field("expires_at", &self.expires_at)
            .field("expired", &self.expired())
            .finish()
    }
}

/// Options for the relation-wide scans — one struct instead of the old
/// `snapshot_at` / `snapshot_at_with(pool, ..)` method matrix.
///
/// The default is **sequential**: one worker thread. Opt into
/// parallelism with [`ScanOpts::parallel`] (honors `MOB_THREADS`) or an
/// explicit [`ScanOpts::threads`]. A [`ScanOpts::deadline`] bounds the
/// scan's wall time cooperatively. Every scan returns its exact
/// [`QueryStats`]; registry deltas and span times come from
/// [`mob_obs::explain`].
#[derive(Clone, Debug)]
pub struct ScanOpts {
    pool: Pool,
    on_error: OnError,
    deadline: Option<ScanDeadline>,
    pub(crate) index: IndexPolicy,
}

/// Whether the planner may, must, or must not use the relation's
/// R-tree index for a scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IndexPolicy {
    /// Use the index when one is attached and covers the scanned
    /// attribute; silently scan fully otherwise. The default.
    #[default]
    Auto,
    /// Demand the index: with no usable index the scan still runs full
    /// (answers are never withheld) but records a planner fallback
    /// (`index.fallbacks`, [`QueryStats::index_fallbacks`]).
    Force,
    /// Never consult the index — the reference full-scan path.
    Off,
}

/// What a relation scan does when it meets a tuple carrying an
/// [`AttrValue::Quarantined`] attribute (produced by a degraded open of
/// a damaged store, [`Relation::open`]).
///
/// [`Relation::open`]: crate::Relation::open
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OnError {
    /// Abort the whole scan with [`DecodeError::Quarantined`] naming the
    /// first damaged tuple. The default: damage is loud unless the
    /// caller explicitly opts into degradation.
    #[default]
    Fail,
    /// Drop the damaged tuple and keep scanning the healthy ones. Every
    /// skip is recorded: the `scan.tuples_quarantined` registry counter
    /// and [`QueryStats::tuples_quarantined`] both advance by the number
    /// of tuples dropped.
    SkipAndRecord,
}

impl Default for ScanOpts {
    fn default() -> Self {
        ScanOpts {
            pool: Pool::with_threads(1),
            on_error: OnError::Fail,
            deadline: None,
            index: IndexPolicy::Auto,
        }
    }
}

impl ScanOpts {
    /// Sequential scan (same as `Default`).
    #[must_use]
    pub fn new() -> ScanOpts {
        ScanOpts::default()
    }

    /// A parallel scan on a pool honoring `MOB_THREADS`
    /// ([`Pool::new`]).
    #[must_use]
    pub fn parallel() -> ScanOpts {
        ScanOpts {
            pool: Pool::new(),
            ..ScanOpts::default()
        }
    }

    /// Run on `n` worker threads ([`Pool::with_threads`]).
    #[must_use]
    pub fn threads(mut self, n: usize) -> ScanOpts {
        self.pool = Pool::with_threads(n);
        self
    }

    /// What to do with tuples carrying quarantined attribute values
    /// (default: [`OnError::Fail`]).
    #[must_use]
    pub fn on_error(mut self, policy: OnError) -> ScanOpts {
        self.on_error = policy;
        self
    }

    /// Index policy for the planner (default: [`IndexPolicy::Auto`]).
    #[must_use]
    pub fn index(mut self, policy: IndexPolicy) -> ScanOpts {
        self.index = policy;
        self
    }

    /// Bound the scan's wall time: `budget` from now, measured on
    /// `clock`. The deadline is **cooperative** — it is checked between
    /// the plan/prune/execute stages and before every worker chunk
    /// claim ([`mob_par::CancelToken`]), so an expired scan stops at
    /// the next boundary, returns [`ScanError::Deadline`] (counting
    /// `scan.deadline_exceeded`), and never hangs or returns a
    /// silently-truncated relation. A budget too large to add to the
    /// clock's reading (e.g. `Duration::MAX`) means no deadline. Pass a
    /// [`mob_storage::VirtualClock`] to drive expiry deterministically
    /// in tests.
    #[must_use]
    pub fn deadline(mut self, clock: Arc<dyn Clock>, budget: Duration) -> ScanOpts {
        self.deadline = clock
            .now()
            .checked_add(budget)
            .map(|expires_at| ScanDeadline { clock, expires_at });
        self
    }

    /// Stage-boundary deadline check (plan → prune → execute).
    fn check_deadline(&self, what: &'static str) -> ScanResult<()> {
        match &self.deadline {
            Some(d) if d.expired() => Err(deadline_exceeded(what, 0)),
            _ => Ok(()),
        }
    }
}

/// What one relation scan did, returned by every scan.
///
/// The tally is the scan's own — not a delta of the process-wide
/// `mob-obs` registry — so it is exact with observability disabled
/// (`MOB_OBS=0`) and with other queries running concurrently. For
/// registry deltas and per-stage times, run the scan under
/// [`mob_obs::explain`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Tuples scanned (the input relation's cardinality).
    pub tuples: usize,
    /// Candidate tuples after index pruning; `None` when the planner
    /// chose (or was forced into) a full scan.
    pub candidates: Option<usize>,
    /// 1 when the scan wanted an index but the planner had to degrade
    /// to a full scan (damaged, mismatched or missing-under-`Force`
    /// index); 0 otherwise.
    pub index_fallbacks: u64,
    /// Tuples dropped because an attribute value was quarantined
    /// (always 0 under [`OnError::Fail`] — the scan errors instead).
    pub tuples_quarantined: u64,
}

/// A deadline tripped: count it (`scan.deadline_exceeded`) and build
/// the typed error.
fn deadline_exceeded(what: &'static str, items_done: usize) -> ScanError {
    mob_obs::metric!("scan.deadline_exceeded").add(1);
    ScanError::Deadline { what, items_done }
}

/// Apply the scan's [`OnError`] policy to per-tuple outcomes where
/// `None` marks a tuple that carries a quarantined attribute: under
/// [`OnError::Fail`] the first damaged tuple (named by its input
/// position, `position(k)` for outcome `k`) aborts the scan, under
/// [`OnError::SkipAndRecord`] the damaged ones are counted (registry
/// counter `scan.tuples_quarantined`) and the survivors returned.
fn apply_on_error<T>(
    outcomes: Vec<Option<T>>,
    policy: OnError,
    position: impl Fn(usize) -> usize,
) -> DecodeResult<(Vec<T>, u64)> {
    let quarantined = outcomes.iter().filter(|o| o.is_none()).count() as u64;
    if quarantined > 0 {
        if policy == OnError::Fail {
            let first = outcomes
                .iter()
                .position(Option::is_none)
                .map_or(0, position);
            return Err(DecodeError::Quarantined {
                what: "relation scan",
                detail: format!(
                    "tuple {first} carries a quarantined attribute \
                     ({quarantined} damaged in total); rerun with \
                     OnError::SkipAndRecord to scan around the damage"
                ),
            });
        }
        mob_obs::metric!("scan.tuples_quarantined").add(quarantined);
    }
    Ok((outcomes.into_iter().flatten().collect(), quarantined))
}

/// The output shape of a scan: which tuples the execute stage hands to
/// the per-tuple closure, and the schema of the output relation.
#[derive(Debug)]
enum Shape {
    /// One output tuple per input tuple, over the given schema
    /// (`snapshot_at`). Candidates run on the pool; non-candidates are
    /// answered inline with `candidate = false`, and the closure must
    /// not probe their units.
    Map(Schema),
    /// Only the plan's candidates are dispatched; the closure keeps or
    /// drops each (`filter_inside`, `passes`); the output keeps the
    /// input schema. Every quarantined tuple is a candidate (the index's
    /// `always` list), so [`OnError`] verdicts are those of a full scan.
    Select,
}

/// A per-tuple outcome: `None` when the tuple carries a quarantined
/// attribute (its fate is the [`OnError`] policy's), otherwise the
/// closure's output tuple, if any.
type Outcome = Option<Option<Tuple>>;

impl Relation {
    /// The one scan executor behind every relation-wide operator:
    /// plan and prune for `probe`, execute `f` over the tuples `shape`
    /// dispatches, apply the [`OnError`] policy, and assemble the
    /// output relation in input-tuple order. The deadline is checked at
    /// both stage boundaries and before every chunk claim.
    fn scan(
        &self,
        what: &'static str,
        opts: &ScanOpts,
        probe: &Probe,
        need: AttrNeed,
        shape: Shape,
        f: impl Fn(&Tuple, bool) -> Option<Tuple> + Sync,
    ) -> ScanResult<(Relation, QueryStats)> {
        let _span = mob_obs::span(what);
        opts.check_deadline(what)?;
        let (plan, mut stats) = plan_scan(self, probe, need, opts.index);
        opts.check_deadline(what)?;
        let outcomes = self.execute(what, opts, &plan, &shape, f)?;
        // Select outcomes follow the candidate list; all others are in
        // input order.
        let position = |k: usize| match (&plan, &shape) {
            (Plan::Pruned(cands), Shape::Select) => cands[k],
            _ => k,
        };
        let (kept, quarantined) = apply_on_error(outcomes, opts.on_error, position)?;
        stats.tuples_quarantined = quarantined;
        let schema = match shape {
            Shape::Map(schema) => schema,
            Shape::Select => self.schema().clone(),
        };
        let tuples = kept.into_iter().flatten().collect();
        Ok((Relation::from_parts(schema, tuples), stats))
    }

    /// Stage 3, **execute**: run `f` over the tuples `plan` and `shape`
    /// select, on the scan's pool. Outcomes come back in input order:
    /// one per tuple for a map or a full plan, one per candidate for a
    /// pruned select.
    fn execute(
        &self,
        what: &'static str,
        opts: &ScanOpts,
        plan: &Plan,
        shape: &Shape,
        f: impl Fn(&Tuple, bool) -> Option<Tuple> + Sync,
    ) -> ScanResult<Vec<Outcome>> {
        let _span = mob_obs::span("scan.execute");
        let tuples = self.tuples();
        let probe = |tup: &Tuple, candidate: bool| -> Outcome {
            let damaged = tup.values().iter().any(AttrValue::is_quarantined);
            (!damaged).then(|| f(tup, candidate))
        };
        let candidates = match plan {
            Plan::Full => tuples.len(),
            Plan::Pruned(cands) => cands.len(),
        };
        mob_obs::metric!("scan.tuples").add(tuples.len() as u64);
        mob_obs::metric!("scan.tuples_probed").add(candidates as u64);
        let token = opts
            .deadline
            .as_ref()
            .map_or_else(CancelToken::never, ScanDeadline::token);
        let dispatched = match plan {
            Plan::Full => opts
                .pool
                .chunked_map(tuples, &token, |tup| probe(tup, true)),
            Plan::Pruned(cands) => opts
                .pool
                .chunked_map(cands, &token, |&i| probe(&tuples[i], true)),
        };
        let hits = match dispatched {
            Cancellable::Done(hits) => hits,
            Cancellable::Cancelled { items_done } => {
                return Err(deadline_exceeded(what, items_done))
            }
        };
        match (plan, shape) {
            // Map over a pruned plan: merge the candidates' outcomes
            // back into input order, answering every other tuple inline.
            (Plan::Pruned(cands), Shape::Map(_)) => {
                let mut hits = hits.into_iter();
                let mut cands = cands.iter().peekable();
                Ok(tuples
                    .iter()
                    .enumerate()
                    .map(|(i, tup)| match cands.next_if_eq(&&i) {
                        Some(_) => hits.next().flatten(),
                        None => probe(tup, false),
                    })
                    .collect())
            }
            _ => Ok(hits),
        }
    }

    /// Snapshot the whole relation at one instant: every
    /// `moving(point)` attribute becomes a `point` attribute holding
    /// its value at `t` (⊥ where the object is undefined at `t`); all
    /// other attributes pass through unchanged.
    ///
    /// Scheduling is controlled by `opts` ([`ScanOpts::default`] =
    /// sequential); the result relation is identical for every pool
    /// width.
    ///
    /// # Errors
    ///
    /// On a relation opened degraded ([`Relation::open`]),
    /// tuples may carry [`AttrValue::Quarantined`] attributes; what
    /// happens then is the [`ScanOpts::on_error`] policy — the default
    /// [`OnError::Fail`] aborts with [`DecodeError::Quarantined`],
    /// [`OnError::SkipAndRecord`] drops and counts the damaged tuples
    /// ([`QueryStats::tuples_quarantined`]).
    pub fn snapshot_at(&self, t: Instant, opts: &ScanOpts) -> ScanResult<(Relation, QueryStats)> {
        let attrs: Vec<(&str, AttrType)> = self
            .schema()
            .attrs()
            .iter()
            .map(|(n, ty)| match ty {
                AttrType::MPoint => (n.as_str(), AttrType::Point),
                _ => (n.as_str(), *ty),
            })
            .collect();
        let schema = Schema::new(&attrs)?;
        let probe = Probe::At(t);
        self.scan(
            "rel.snapshot_at",
            opts,
            &probe,
            AttrNeed::AllMPoints,
            Shape::Map(schema),
            |tup, candidate| {
                let values = tup.values().iter().map(|v| match v.as_mpoint_seq() {
                    // A non-candidate has no unit alive at `t` — ⊥
                    // without touching its units.
                    Some(_) if !candidate => AttrValue::Point(Val::Undef),
                    Some(seq) => AttrValue::Point(seq.at_instant(t)),
                    None => v.clone(),
                });
                Some(Tuple::new(values.collect()))
            },
        )
    }

    /// Keep the tuples whose `moving(point)` attribute `attr` is ever
    /// inside the (static) `region` — the relation-wide existential
    /// `inside` scan: each tuple is decided by
    /// [`mob_core::ever_inside_seq`], which stops at the first unit
    /// found inside and builds no lifted moving bool. Tuples whose
    /// attribute is not a moving point (or never inside) are dropped;
    /// input order is preserved.
    ///
    /// # Errors
    ///
    /// Fails (instead of panicking) when `attr` is not an attribute of
    /// the schema — the name is resolved through
    /// [`Relation::try_attr`]. Tuples carrying quarantined attributes
    /// follow the [`ScanOpts::on_error`] policy, exactly as in
    /// [`Relation::snapshot_at`].
    pub fn filter_inside(
        &self,
        attr: &str,
        region: &Region,
        opts: &ScanOpts,
    ) -> ScanResult<(Relation, QueryStats)> {
        let idx = self.try_attr(attr)?;
        let probe = Probe::Window(region.bbox());
        self.scan(
            "rel.filter_inside",
            opts,
            &probe,
            AttrNeed::Exactly(idx),
            Shape::Select,
            |tup, _| {
                let seq = tup.at(idx).as_mpoint_seq()?;
                ever_inside_seq(&seq, region, None).then(|| tup.clone())
            },
        )
    }

    /// Keep the tuples whose `moving(point)` attribute `attr` is inside
    /// `region` at some instant of `window` — the selective
    /// space × time window query ("which flights pass the storm zone
    /// tonight?"), and the scan the R-tree prunes best: the probe is a
    /// single bounding cube. Each candidate is decided by
    /// [`mob_core::ever_inside_seq`] over the units of `window` only.
    ///
    /// # Errors
    ///
    /// Unknown `attr` fails; quarantined tuples follow
    /// [`ScanOpts::on_error`], exactly as in [`Relation::snapshot_at`].
    pub fn passes(
        &self,
        attr: &str,
        region: &Region,
        window: &TimeInterval,
        opts: &ScanOpts,
    ) -> ScanResult<(Relation, QueryStats)> {
        let idx = self.try_attr(attr)?;
        let probe = Probe::Volume(Cube::new(region.bbox(), window));
        self.scan(
            "rel.passes",
            opts,
            &probe,
            AttrNeed::Exactly(idx),
            Shape::Select,
            |tup, _| {
                let seq = tup.at(idx).as_mpoint_seq()?;
                ever_inside_seq(&seq, region, Some(window)).then(|| tup.clone())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{save_relation, OpenRelOpts};
    use crate::queries::planes_relation;
    use mob_base::{t, Val};
    use mob_core::MovingPoint;
    use mob_spatial::{pt, rect_ring, Region};
    use mob_storage::{DurableStore, MemIo, StoreFile};
    use std::sync::Arc;

    fn fleet(n: usize) -> Relation {
        planes_relation(
            (0..n)
                .map(|k| {
                    let x0 = k as f64;
                    (
                        format!("A{}", k % 3),
                        format!("F{k}"),
                        MovingPoint::from_samples(&[
                            (t(0.0), pt(x0, 0.0)),
                            (t(10.0), pt(x0, 10.0)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn snapshot_replaces_mpoint_with_point() {
        let rel = fleet(7);
        let (snap, stats) = rel.snapshot_at(t(5.0), &ScanOpts::default()).unwrap();
        let full = QueryStats {
            tuples: 7,
            ..QueryStats::default()
        };
        assert_eq!(stats, full, "no index: a plain full scan");
        assert_eq!(snap.len(), rel.len());
        let f = snap.attr("flight");
        assert_eq!(snap.schema().attrs()[f].1, AttrType::Point);
        for (k, tup) in snap.tuples().iter().enumerate() {
            match tup.at(f) {
                AttrValue::Point(Val::Def(p)) => {
                    assert_eq!(p.x.get(), k as f64);
                    assert_eq!(p.y.get(), 5.0);
                }
                other => panic!("expected a defined point, got {other:?}"),
            }
        }
        // Outside every lifetime: all positions undefined, tuples kept.
        let (missed, _) = rel.snapshot_at(t(99.0), &ScanOpts::default()).unwrap();
        assert_eq!(missed.len(), rel.len());
        assert!(missed
            .tuples()
            .iter()
            .all(|tup| matches!(tup.at(f), AttrValue::Point(Val::Undef))));
    }

    #[test]
    fn snapshot_deterministic_across_thread_counts() {
        let rel = fleet(23);
        let (expect, _) = rel.snapshot_at(t(3.25), &ScanOpts::default()).unwrap();
        for threads in [2usize, 3, 4, 8] {
            let (got, _) = rel
                .snapshot_at(t(3.25), &ScanOpts::new().threads(threads))
                .unwrap();
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn snapshot_stats_report_the_scan() {
        let rel = fleet(23);
        let ((_, stats), report) = mob_obs::explain("snapshot", || {
            rel.snapshot_at(t(3.25), &ScanOpts::new().threads(4))
                .unwrap()
        });
        assert_eq!(stats.tuples, 23);
        assert_eq!(stats.candidates, None);
        assert_eq!(stats.tuples_quarantined, 0);
        if mob_obs::enabled() {
            // The pool dispatched our 23 tuples (concurrent tests may
            // add more — the registry is process-wide).
            assert!(report.metrics().get("par.items") >= 23);
            assert!(report.find("rel.snapshot_at").is_some());
            assert!(report.find("scan.execute").is_some());
        } else {
            assert!(!report.captured);
        }
    }

    /// Run the executor directly with a closure that counts its calls.
    fn counted_scan(rel: &Relation, probe: &Probe, shape: Shape) -> (usize, QueryStats) {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let opts = ScanOpts::new().threads(3).index(IndexPolicy::Force);
        let (_, stats) = rel
            .scan(
                "rel.test",
                &opts,
                probe,
                AttrNeed::AllMPoints,
                shape,
                |tup, _| {
                    calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    Some(tup.clone())
                },
            )
            .unwrap();
        (calls.into_inner(), stats)
    }

    #[test]
    fn select_scans_dispatch_only_candidates_and_map_scans_every_tuple() {
        let mut rel = fleet(40);
        rel.build_index("flight").unwrap();
        // A selective x-window: flights 10..=13 and a few neighbours.
        let zone = Region::from_ring(rect_ring(9.5, 2.0, 13.5, 8.0));
        let window = Probe::Window(zone.bbox());
        let (calls, stats) = counted_scan(&rel, &window, Shape::Select);
        let cand = stats.candidates.expect("pruned path");
        assert!(cand < rel.len(), "the window prunes");
        assert_eq!(calls, cand, "select probes candidates only");

        let (calls, stats) = counted_scan(&rel, &window, Shape::Map(rel.schema().clone()));
        assert_eq!(stats.candidates, Some(cand));
        assert_eq!(calls, rel.len(), "map answers every tuple");
    }

    #[test]
    fn filter_inside_keeps_crossing_flights_in_order() {
        let rel = fleet(9);
        // Flights k = 2, 3, 4 pass through x ∈ [1.5, 4.5].
        let zone = Region::from_ring(rect_ring(1.5, 2.0, 4.5, 8.0));
        let (hit, _) = rel
            .filter_inside("flight", &zone, &ScanOpts::default())
            .unwrap();
        let ids: Vec<&str> = hit
            .tuples()
            .iter()
            .filter_map(|tup| tup.at(1).as_str())
            .collect();
        assert_eq!(ids, ["F2", "F3", "F4"]);
        assert_eq!(hit.schema(), rel.schema());
        for threads in [1usize, 2, 4] {
            let (got, _) = rel
                .filter_inside("flight", &zone, &ScanOpts::new().threads(threads))
                .unwrap();
            assert_eq!(got, hit, "{threads} threads");
        }
        // Empty region keeps nothing.
        let (none, _) = rel
            .filter_inside("flight", &Region::empty(), &ScanOpts::default())
            .unwrap();
        assert!(none.is_empty());
        // Unknown attribute: an error, not a panic.
        assert!(rel
            .filter_inside("nope", &zone, &ScanOpts::default())
            .is_err());
    }

    /// A fleet with tuple 2's mpoint replaced by a quarantine
    /// placeholder (what a degraded open produces for a damaged blob).
    fn damaged_fleet(n: usize) -> Relation {
        let rel = fleet(n);
        let mut out = Relation::new(rel.schema().clone());
        for (i, tup) in rel.tuples().iter().enumerate() {
            let values = tup
                .values()
                .iter()
                .map(|v| {
                    if i == 2 && v.attr_type() == AttrType::MPoint {
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

    #[test]
    fn quarantined_tuples_follow_the_on_error_policy() {
        let rel = damaged_fleet(6);
        // Default policy: loud failure naming the damaged tuple.
        let err = rel.snapshot_at(t(5.0), &ScanOpts::default()).unwrap_err();
        assert!(err.to_string().contains("tuple 2"), "{err}");
        let zone = Region::from_ring(rect_ring(-1.0, -1.0, 99.0, 99.0));
        assert!(rel
            .filter_inside("flight", &zone, &ScanOpts::default())
            .is_err());

        // SkipAndRecord: healthy tuples survive, the skip is counted.
        for threads in [1usize, 4] {
            let opts = ScanOpts::new()
                .threads(threads)
                .on_error(OnError::SkipAndRecord);
            let ((snap, stats), report) =
                mob_obs::explain("skip", || rel.snapshot_at(t(5.0), &opts).unwrap());
            assert_eq!(snap.len(), 5, "{threads} threads");
            assert_eq!(stats.tuples_quarantined, 1);
            assert_eq!(stats.tuples, 6, "input cardinality unchanged");
            let ids: Vec<&str> = snap
                .tuples()
                .iter()
                .filter_map(|tup| tup.at(1).as_str())
                .collect();
            assert_eq!(ids, ["F0", "F1", "F3", "F4", "F5"]);
            if mob_obs::enabled() {
                assert!(report.metrics().get("scan.tuples_quarantined") >= 1);
            }

            // The zone covers every flight; the damaged one still drops.
            let (hit, fstats) = rel.filter_inside("flight", &zone, &opts).unwrap();
            assert_eq!(hit.len(), 5);
            assert_eq!(fstats.tuples_quarantined, 1);
        }
    }

    #[test]
    fn indexed_scans_match_full_scans_and_prune() {
        let mut rel = fleet(40);
        rel.build_index("flight").unwrap();
        assert!(rel.has_index());
        let opts_full = ScanOpts::new().index(IndexPolicy::Off);
        let opts_ix = ScanOpts::new().index(IndexPolicy::Force);

        // snapshot_at: all flights alive at t=5, none at t=99.
        for ti in [t(5.0), t(99.0)] {
            let (a, _) = rel.snapshot_at(ti, &opts_full).unwrap();
            let (b, sb) = rel.snapshot_at(ti, &opts_ix).unwrap();
            assert_eq!(a, b, "t={ti:?}");
            assert_eq!(sb.index_fallbacks, 0);
        }
        let (_, s99) = rel.snapshot_at(t(99.0), &opts_ix).unwrap();
        assert_eq!(s99.candidates, Some(0), "no flight is alive at t=99");

        // filter_inside: a selective x-window catches flights 10..=13.
        let zone = Region::from_ring(rect_ring(9.5, 2.0, 13.5, 8.0));
        let (a, sa) = rel.filter_inside("flight", &zone, &opts_full).unwrap();
        let (b, sb) = rel.filter_inside("flight", &zone, &opts_ix).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert_eq!(sa.candidates, None, "full path reports no pruning");
        let cand = sb.candidates.expect("pruned path");
        assert!(
            (4..rel.len()).contains(&cand),
            "pruning kept {cand} of {} tuples",
            rel.len()
        );

        // passes: space × time window.
        let window = mob_base::Interval::closed(t(2.0), t(8.0));
        let (a, _) = rel.passes("flight", &zone, &window, &opts_full).unwrap();
        let (b, sb) = rel.passes("flight", &zone, &window, &opts_ix).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert!(sb.candidates.unwrap() < rel.len());

        // A disjoint window prunes everything.
        let early = mob_base::Interval::closed(t(90.0), t(95.0));
        let (none, s) = rel.passes("flight", &zone, &early, &opts_ix).unwrap();
        assert!(none.is_empty());
        assert_eq!(s.candidates, Some(0));
    }

    #[test]
    fn force_without_index_records_a_fallback() {
        let rel = fleet(5);
        let opts = ScanOpts::new().index(IndexPolicy::Force);
        let (snap, stats) = rel.snapshot_at(t(5.0), &opts).unwrap();
        assert_eq!(stats.index_fallbacks, 1, "forced index, none attached");
        assert_eq!(stats.candidates, None);
        // Auto without an index is a plain full scan, not a fallback.
        let (_, auto_stats) = rel.snapshot_at(t(5.0), &ScanOpts::new()).unwrap();
        assert_eq!(auto_stats.index_fallbacks, 0);
        // And the answers are the full-scan answers either way.
        let (full, _) = rel
            .snapshot_at(t(5.0), &ScanOpts::new().index(IndexPolicy::Off))
            .unwrap();
        assert_eq!(snap, full);
    }

    #[test]
    fn index_on_wrong_attr_or_stale_cardinality_falls_back() {
        let mut rel = fleet(6);
        rel.build_index("flight").unwrap();
        // Insert invalidates: the index is dropped, scans run full.
        let extra = rel.tuples()[0].clone();
        rel.insert(extra).unwrap();
        assert!(!rel.has_index());
        let (_, stats) = rel.snapshot_at(t(5.0), &ScanOpts::new()).unwrap();
        assert_eq!(stats.index_fallbacks, 0, "Auto, index dropped");

        // Unknown / non-mpoint attributes are rejected at build time.
        assert!(rel.build_index("nope").is_err());
        assert!(rel.build_index("airline").is_err());
    }

    #[test]
    fn quarantined_tuples_survive_pruning_accounting() {
        let mut rel = damaged_fleet(8);
        rel.build_index("flight").unwrap();
        // Fail policy: the pruned scan names the damaged tuple exactly
        // like the full scan does, even when pruning would skip it.
        let tiny = Region::from_ring(rect_ring(90.0, 90.0, 91.0, 91.0));
        let err = rel
            .filter_inside("flight", &tiny, &ScanOpts::new().index(IndexPolicy::Force))
            .unwrap_err();
        assert!(err.to_string().contains("tuple 2"), "{err}");

        // SkipAndRecord: same survivors, same tally, index on or off.
        for policy in [IndexPolicy::Off, IndexPolicy::Force] {
            let opts = ScanOpts::new()
                .on_error(OnError::SkipAndRecord)
                .index(policy);
            let (hit, stats) = rel.filter_inside("flight", &tiny, &opts).unwrap();
            assert!(hit.is_empty());
            assert_eq!(stats.tuples_quarantined, 1, "{policy:?}");
        }
    }

    #[test]
    fn expired_deadline_fails_typed_before_any_work() {
        let rel = fleet(20);
        let clock = Arc::new(mob_storage::VirtualClock::new());
        // Budget zero: already expired at the first stage boundary.
        let opts = ScanOpts::new().deadline(clock.clone(), Duration::ZERO);
        let (res, report) = mob_obs::explain("deadline", || rel.snapshot_at(t(5.0), &opts));
        let err = res.unwrap_err();
        match &err {
            ScanError::Deadline { what, items_done } => {
                assert_eq!(*what, "rel.snapshot_at");
                assert_eq!(*items_done, 0, "no tuple was probed");
                if mob_obs::enabled() {
                    assert!(report.metrics().get("scan.deadline_exceeded") >= 1);
                }
            }
            other => panic!("expected a deadline error, got {other:?}"),
        }
        assert!(err.to_string().contains("deadline exceeded"), "{err}");

        // The other operators trip the same way.
        let zone = Region::from_ring(rect_ring(0.0, 0.0, 9.0, 9.0));
        let opts2 = ScanOpts::new().deadline(clock.clone(), Duration::ZERO);
        assert!(matches!(
            rel.filter_inside("flight", &zone, &opts2),
            Err(ScanError::Deadline {
                what: "rel.filter_inside",
                ..
            })
        ));
        let window = mob_base::Interval::closed(t(0.0), t(9.0));
        let opts3 = ScanOpts::new().deadline(clock, Duration::ZERO);
        assert!(matches!(
            rel.passes("flight", &zone, &window, &opts3),
            Err(ScanError::Deadline {
                what: "rel.passes",
                ..
            })
        ));
    }

    /// A clock whose time is the number of `now()` calls made so far —
    /// each deadline check observably advances it, so the expiry lands
    /// at a *deterministic* chunk boundary with no real sleeping.
    struct StepClock {
        calls: std::sync::Mutex<u32>,
        step: Duration,
    }

    impl StepClock {
        fn new(step: Duration) -> StepClock {
            StepClock {
                calls: std::sync::Mutex::new(0),
                step,
            }
        }
    }

    impl mob_storage::Clock for StepClock {
        fn now(&self) -> Duration {
            let mut calls = match self.calls.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            let n = *calls;
            *calls += 1;
            self.step * n
        }

        fn sleep(&self, _d: Duration) {}
    }

    #[test]
    fn deadline_expiring_mid_scan_reports_honest_progress() {
        let rel = fleet(100);
        // One worker over 100 tuples: chunk size 25, four chunks, and
        // `now()` is consulted once building the deadline (t=0), twice
        // at the stage boundaries (t=1,2 steps) and once before each
        // chunk claim (t=3,4,5,...). A budget of 4.5 steps lets chunks
        // 0 and 1 run (claims at 3 and 4 steps) and trips the claim at
        // 5 steps — exactly 50 tuples probed, deterministically.
        let step = Duration::from_millis(10);
        let clock = Arc::new(StepClock::new(step));
        let opts = ScanOpts::new().deadline(clock, step * 9 / 2);
        let zone = Region::from_ring(rect_ring(-1.0, -1.0, 200.0, 200.0));
        match rel.filter_inside("flight", &zone, &opts) {
            Err(ScanError::Deadline { what, items_done }) => {
                assert_eq!(what, "rel.filter_inside");
                assert_eq!(items_done, 50, "two of four chunks completed");
            }
            other => panic!("expected a mid-scan deadline, got {other:?}"),
        }

        // The same scan with a clock that never reaches the budget
        // completes normally on the same options shape.
        let roomy = ScanOpts::new().deadline(
            Arc::new(mob_storage::VirtualClock::new()),
            Duration::from_secs(3600),
        );
        let (hit, _) = rel.filter_inside("flight", &zone, &roomy).unwrap();
        assert_eq!(hit.len(), 100);
    }

    #[test]
    fn deadline_answers_match_undeadlined_scans_when_not_expired() {
        let rel = fleet(23);
        let (expect, _) = rel.snapshot_at(t(3.25), &ScanOpts::default()).unwrap();
        let clock = Arc::new(mob_storage::SystemClock::new());
        for threads in [1usize, 4] {
            let opts = ScanOpts::new()
                .threads(threads)
                .deadline(clock.clone(), Duration::from_secs(3600));
            let (got, _) = rel.snapshot_at(t(3.25), &opts).unwrap();
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn deadline_budget_past_the_clock_range_means_no_deadline() {
        let rel = fleet(23);
        let (expect, _) = rel.snapshot_at(t(3.25), &ScanOpts::default()).unwrap();
        let clock = Arc::new(mob_storage::VirtualClock::new());
        clock.sleep(Duration::from_secs(1));
        // `now() + Duration::MAX` overflows: the scan runs unbounded.
        let opts = ScanOpts::new().deadline(clock, Duration::MAX);
        let (got, _) = rel.snapshot_at(t(3.25), &opts).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn scans_agree_across_backends() {
        // The same fleet, in memory and opened from storage, must give
        // identical scan results.
        let rel = fleet(11);
        let mut file = StoreFile::new();
        save_relation(&rel, &mut file, "planes").unwrap();
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
        let opened = Relation::open(&head, &OpenRelOpts::new().relation("planes")).unwrap();
        let ti = t(6.5);
        let opts = ScanOpts::parallel();
        assert_eq!(
            rel.snapshot_at(ti, &opts).unwrap().0,
            opened.snapshot_at(ti, &opts).unwrap().0
        );
        let zone = Region::from_ring(rect_ring(2.5, 0.0, 6.5, 10.0));
        let (a, _) = rel.filter_inside("flight", &zone, &opts).unwrap();
        let (b, _) = opened.filter_inside("flight", &zone, &opts).unwrap();
        assert_eq!(a.len(), b.len());
        let ids = |r: &Relation| -> Vec<String> {
            r.tuples()
                .iter()
                .filter_map(|tup| tup.at(1).as_str().map(str::to_owned))
                .collect()
        };
        assert_eq!(ids(&a), ids(&b));
    }
}
