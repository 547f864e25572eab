//! The **plan** and **prune** stages of the relation-scan pipeline.
//!
//! Every relation scan now runs in three explicit stages:
//!
//! 1. **plan** ([`plan_scan`]) — inspect the [`ScanOpts`] index policy
//!    and whatever index the relation carries, and choose an access
//!    path: a full scan, or a pruned scan over index candidates.
//! 2. **prune** ([`Plan::Pruned`]) — consult the base R-tree and the
//!    tail tree of units appended since it was built for the candidate
//!    tuple set of the query's probe volume, and merge in the tuples
//!    neither tree can speak for.
//! 3. **execute** (in [`crate::scan`]) — run the per-tuple probe over
//!    candidates only, in input-tuple order.
//!
//! The planner is *policy*: it may only ever trade work for work. A
//! damaged, missing or mismatched index degrades to a full scan — a
//! recorded event (`index.fallbacks`), never a wrong answer.

use crate::relation::Relation;
use crate::scan::{IndexPolicy, QueryStats};
use mob_base::{DecodeResult, Instant};
use mob_core::{Candidates, RTree};
use mob_spatial::{Cube, Rect};

/// The probe volume of one scan: what part of (x, y, t) space the query
/// actually touches. Built by the scan operators, consumed by the prune
/// stage.
#[derive(Clone, Copy, Debug)]
pub enum Probe {
    /// A time slice (`snapshot_at`): everything alive at the instant.
    At(Instant),
    /// A spatial window over all time (`filter_inside`).
    Window(Rect),
    /// A space × time window (`passes`).
    Volume(Cube),
}

/// Which attribute the scan needs the index to cover.
#[derive(Clone, Copy, Debug)]
pub enum AttrNeed {
    /// The scan probes one specific attribute (by schema position).
    Exactly(usize),
    /// The scan probes *every* `mpoint` attribute (`snapshot_at`) — an
    /// index is only usable when the indexed attribute is the sole one.
    AllMPoints,
}

/// The access path chosen by the planner.
#[derive(Debug)]
pub enum Plan {
    /// Touch every tuple.
    Full,
    /// Touch the index candidates only: their tuple positions,
    /// ascending and distinct.
    Pruned(Vec<usize>),
}

/// Stage 1 + 2: choose the access path for a scan of `rel` probing
/// `probe` through `need`, then prune. The returned [`QueryStats`]
/// carries the planner's part of the tally (`tuples`, `candidates`,
/// `index_fallbacks`).
///
/// Fallback rules (each recorded in the `index.fallbacks` metric and
/// [`QueryStats::index_fallbacks`]):
///
/// * the relation is marked index-damaged (a stored index failed to
///   load) and the policy still wants an index;
/// * a leaf node of the stored tree that the probe reads fails the
///   check of its entries (see `RTree::from_stored`);
/// * an index is attached but unusable — wrong attribute, or a
///   cardinality other than the one recorded at attach;
/// * [`IndexPolicy::Force`] with no index at all.
///
/// [`IndexPolicy::Auto`] with no index (and no damage) is a plain full
/// scan, not a fallback — there was nothing to fall back *from*.
pub fn plan_scan(
    rel: &Relation,
    probe: &Probe,
    need: AttrNeed,
    policy: IndexPolicy,
) -> (Plan, QueryStats) {
    let _span = mob_obs::span("scan.plan");
    let full = QueryStats {
        tuples: rel.len(),
        ..QueryStats::default()
    };
    if policy == IndexPolicy::Off {
        return (Plan::Full, full);
    }
    let fallback = || {
        mob_obs::metric!("index.fallbacks").add(1);
        let stats = QueryStats {
            index_fallbacks: 1,
            ..full
        };
        (Plan::Full, stats)
    };
    let Some(ix) = rel.index() else {
        if rel.index_damaged() || policy == IndexPolicy::Force {
            return fallback();
        }
        return (Plan::Full, full);
    };
    // The tail tree is built over the cardinality at attach, when every
    // tuple went to the base tree, the tail tree or `always`.
    let usable = ix.tail.num_tuples() == rel.len()
        && match need {
            AttrNeed::Exactly(attr) => ix.attr == attr,
            AttrNeed::AllMPoints => {
                use crate::value::AttrType;
                rel.schema()
                    .attrs()
                    .iter()
                    .enumerate()
                    .all(|(i, (_, ty))| *ty != AttrType::MPoint || i == ix.attr)
            }
        };
    if !usable {
        return fallback();
    }

    // Stage 2: prune.
    let _span = mob_obs::span("scan.prune");
    let search = |tree: &RTree| -> DecodeResult<Candidates> {
        match probe {
            Probe::At(t) => tree.query_instant(*t),
            Probe::Window(rect) => tree.query_rect(rect),
            Probe::Volume(cube) => tree.query(cube),
        }
    };
    let (Ok(base), Ok(tail)) = (search(&ix.tree), search(&ix.tail)) else {
        // A leaf of the stored tree failed its first-visit check: the
        // tree cannot answer for it.
        return fallback();
    };
    // All three lists are sorted: the stable sort merges the runs.
    let mut cands: Vec<usize> = base
        .tuples
        .iter()
        .chain(&tail.tuples)
        .chain(&ix.always)
        .map(|&t| t as usize)
        .collect();
    cands.sort();
    cands.dedup();
    mob_obs::metric!("index.nodes_visited").add(base.nodes_visited + tail.nodes_visited);
    mob_obs::metric!("index.candidates").add(cands.len() as u64);
    let stats = QueryStats {
        candidates: Some(cands.len()),
        ..full
    };
    (Plan::Pruned(cands), stats)
}
