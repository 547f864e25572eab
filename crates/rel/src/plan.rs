//! The **plan** and **prune** stages of the relation-scan pipeline.
//!
//! Every relation scan now runs in three explicit stages:
//!
//! 1. **plan** ([`plan_scan`]) — inspect the [`ScanOpts`] index policy
//!    and whatever index the relation carries, and choose an access
//!    path: a full scan, or a pruned scan over index candidates.
//! 2. **prune** ([`Plan::Pruned`]) — consult the R-tree for the
//!    candidate tuple set of the query's probe volume and merge in the
//!    tuples the index cannot speak for.
//! 3. **execute** (in [`crate::scan`]) — run the per-tuple probe over
//!    candidates only, in input-tuple order.
//!
//! The planner is *policy*: it may only ever trade work for work. A
//! damaged, missing or mismatched index degrades to a full scan — a
//! recorded event (`index.fallbacks`), never a wrong answer.

use crate::relation::Relation;
use crate::scan::{IndexPolicy, QueryStats};
use mob_base::Instant;
use mob_core::Candidates;
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
/// * an index is attached but unusable — wrong attribute, or stale
///   cardinality;
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
    let usable = ix.tree.num_tuples() == rel.len()
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
    let found: Candidates = match probe {
        Probe::At(t) => ix.tree.query_instant(*t),
        Probe::Window(rect) => ix.tree.query_rect(rect),
        Probe::Volume(cube) => ix.tree.query(cube),
    };
    // Both lists are sorted: the stable sort merges the two runs.
    let mut cands: Vec<usize> = found
        .tuples
        .iter()
        .chain(&ix.always)
        .map(|&t| t as usize)
        .collect();
    cands.sort();
    cands.dedup();
    mob_obs::metric!("index.nodes_visited").add(found.nodes_visited);
    mob_obs::metric!("index.candidates").add(cands.len() as u64);
    let stats = QueryStats {
        candidates: Some(cands.len()),
        ..full
    };
    (Plan::Pruned(cands), stats)
}
