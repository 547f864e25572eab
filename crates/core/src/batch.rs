//! **Batch query kernels** — set-at-a-time versions of the Section-5
//! algorithms.
//!
//! The paper's motivating queries are set-oriented ("where were all
//! taxis at 8:00?", Sec 2), yet the plain Section-5 algorithms answer
//! one probe at a time: `q` snapshots of one mapping are `q`
//! independent `O(log n)` binary searches, and every search decodes its
//! hit unit from scratch on a storage-backed sequence. The kernels in
//! this module make the *batch* the unit of execution:
//!
//! * [`UnitCursor`] — a monotone hint cursor over any [`UnitSeq`]:
//!   repeated lookups at non-decreasing instants gallop forward from
//!   the previous hit instead of re-searching from scratch, and a
//!   one-slot decode cache hands the same unit out repeatedly without
//!   re-decoding it;
//! * [`batch_at_instant`] — `atinstant` for a whole sorted probe set in
//!   one merge scan: `O(n + q)` interval-header reads (in practice
//!   `O(q·log(n/q))` thanks to galloping) instead of `O(q log n)`, and
//!   at most one decode per distinct hit unit;
//! * [`batch_lift2`] / [`batch_inside`] — one probe argument against a
//!   *slice* of mappings, decoding the probe's units exactly once for
//!   the whole batch instead of once per pairing.
//!
//! The kernels are strictly sequential — `mob-core` stays free of
//! threading concerns. `mob-rel` composes them with the `mob-par`
//! worker pool to turn relation scans parallel.

use crate::lift::lift2;
use crate::mapping::Mapping;
use crate::moving::MovingBool;
use crate::seq::{partition_units, UnitSeq};
use crate::unit::Unit;
use crate::upoint::UPoint;
use crate::uregion::URegion;
use mob_base::{Instant, TimeInterval, Val};
use std::borrow::Cow;

/// `true` if the interval lies entirely before `t` — the advance
/// predicate of the monotone cursor.
fn ends_before(iv: &TimeInterval, t: Instant) -> bool {
    *iv.end() < t || (*iv.end() == t && !iv.right_closed())
}

/// A monotone *hint cursor* over a [`UnitSeq`].
///
/// For query streams whose probe instants never decrease (sorted batch
/// probes, the refinement walk of `lift2`, merge joins), the cursor
/// remembers where the previous probe landed and **gallops** forward
/// from there — doubling steps followed by a binary search over the
/// overshot range — instead of binary-searching the whole sequence
/// again. A one-slot decode cache makes repeated accesses to the same
/// unit free, which is what storage-backed sequences (where
/// [`UnitSeq::unit`] decodes a record) care about.
///
/// Total cost over a whole query stream: `O(q · log(n/q) + q)` interval
/// header reads and at most one decode per *distinct* unit touched —
/// versus `O(q log n)` reads and one decode per *probe* for independent
/// [`UnitSeq::find_unit`] calls.
pub struct UnitCursor<'a, S: UnitSeq> {
    seq: &'a S,
    /// Lower bound: every unit before `lo` ends before the last sought
    /// instant, so no future (non-decreasing) probe can land there.
    lo: usize,
    /// One-slot decode cache (unit index → decoded unit).
    cached: Option<(usize, Cow<'a, S::Unit>)>,
    #[cfg(debug_assertions)]
    last_sought: Option<Instant>,
}

impl<'a, S: UnitSeq> UnitCursor<'a, S> {
    /// A cursor positioned before the first unit.
    pub fn new(seq: &'a S) -> UnitCursor<'a, S> {
        UnitCursor {
            seq,
            lo: 0,
            cached: None,
            #[cfg(debug_assertions)]
            last_sought: None,
        }
    }

    /// The underlying sequence.
    pub fn seq(&self) -> &'a S {
        self.seq
    }

    /// Index of the unit whose interval contains `t`, advancing the
    /// cursor. Instants passed to successive `seek` calls must be
    /// non-decreasing (checked in debug builds).
    ///
    /// Galloping search: doubling steps from the hint position, then the
    /// shared header binary search inside the overshot window —
    /// `O(log gap)` interval header reads where `gap` is the distance
    /// advanced.
    pub fn seek(&mut self, t: Instant) -> Option<usize> {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.last_sought.is_none_or(|prev| prev <= t),
                "UnitCursor::seek instants must be non-decreasing"
            );
            self.last_sought = Some(t);
        }
        let n = self.seq.len();
        if self.lo >= n {
            return None;
        }
        let before = |iv: &TimeInterval| ends_before(iv, t);
        if before(&self.seq.interval(self.lo)) {
            // Gallop: find a window (base, base + step] whose far end no
            // longer lies before t, then binary search inside it for the
            // first such index.
            let mut base = self.lo;
            let mut step = 1usize;
            while base + step < n && before(&self.seq.interval(base + step)) {
                base += step;
                step = step.saturating_mul(2);
            }
            // Invariant: units ..= base end before t; either base+step
            // overshoots n or unit base+step does not end before t.
            self.lo = partition_units(self.seq, base + 1..(base + step).min(n), before);
            if self.lo >= n {
                return None;
            }
        }
        // Unit `lo` does not end before `t`; it is the only candidate.
        if self.seq.interval(self.lo).contains(&t) {
            Some(self.lo)
        } else {
            None
        }
    }

    /// Unit `i` through the one-slot decode cache: hits clone the
    /// cached [`Cow`] (free for borrowed units), misses decode once and
    /// refill the slot.
    pub fn unit(&mut self, i: usize) -> Cow<'a, S::Unit> {
        match &self.cached {
            Some((k, u)) if *k == i => u.clone(),
            _ => {
                let u = self.seq.unit(i);
                self.cached = Some((i, u.clone()));
                u
            }
        }
    }

    /// `atinstant` through the cursor: seek + cached evaluate.
    pub fn value_at(&mut self, t: Instant) -> Val<<S::Unit as Unit>::Value> {
        match self.seek(t) {
            Some(i) => Val::Def(self.unit(i).at(t)),
            None => Val::Undef,
        }
    }
}

/// The `atinstant` operation for a whole **sorted** probe set, as a
/// single merge scan over the unit list.
///
/// Instead of `q` independent binary searches (`O(q log n)` interval
/// header reads, one unit decode per probe), the scan advances a
/// [`UnitCursor`] monotonically through the sequence: `O(n + q)` header
/// reads worst case, `O(q · log(n/q))` with galloping when probes are
/// sparse, and at most one decode per *distinct* unit hit.
///
/// `sorted_instants` must be non-decreasing (the caller pre-sorts;
/// checked in debug builds). Element `k` of the result is exactly
/// `seq.at_instant(sorted_instants[k])`.
pub fn batch_at_instant<S: UnitSeq>(
    seq: &S,
    sorted_instants: &[Instant],
) -> Vec<Val<<S::Unit as Unit>::Value>> {
    debug_assert!(
        sorted_instants.windows(2).all(|w| w[0] <= w[1]),
        "batch_at_instant probes must be sorted (non-decreasing)"
    );
    let _span = mob_obs::span("core.batch_at_instant");
    mob_obs::metric!("core.batch_at_instant.probes").add(sorted_instants.len() as u64);
    let mut cursor = UnitCursor::new(seq);
    sorted_instants
        .iter()
        .map(|&t| cursor.value_at(t))
        .collect()
}

/// Binary lift of one probe argument against a **slice** of second
/// arguments: `kernel` runs on every refinement part of `(a, bs[k])`
/// for each `k`, and the probe's units are materialized (decoded)
/// exactly **once** for the whole batch.
///
/// For an in-memory probe the materialization is a plain clone; for a
/// storage-backed probe it replaces `bs.len()` full decode passes by
/// one. Element `k` of the result equals `lift2(a, &bs[k], kernel)`.
pub fn batch_lift2<SA, SB, UC, F>(a: &SA, bs: &[SB], kernel: F) -> Vec<Mapping<UC>>
where
    SA: UnitSeq,
    SB: UnitSeq,
    UC: Unit,
    F: Fn(&TimeInterval, &SA::Unit, &SB::Unit) -> Vec<UC>,
{
    let _span = mob_obs::span("core.batch_lift2");
    mob_obs::metric!("core.batch_lift2.pairs").add(bs.len() as u64);
    let probe: Mapping<SA::Unit> = a.materialize();
    bs.iter().map(|b| lift2(&probe, b, &kernel)).collect()
}

/// Algorithm `inside` (Sec 5.2) for one moving region against a slice
/// of moving points: the region's units are decoded once for the whole
/// batch. Element `k` equals `inside(&points[k], region)`.
///
/// This is the set-at-a-time shape of the Section-2 query "which
/// flights passed over New Jersey?" — one region, a relation's worth of
/// flights.
pub fn batch_inside<SP, SR>(points: &[SP], region: &SR) -> Vec<MovingBool>
where
    SP: UnitSeq<Unit = UPoint>,
    SR: UnitSeq<Unit = URegion>,
{
    let _span = mob_obs::span("core.batch_inside");
    mob_obs::metric!("core.batch_inside.pairs").add(points.len() as u64);
    let probe: Mapping<URegion> = region.materialize();
    points
        .iter()
        .map(|p| crate::moving::mregion::inside(p, &probe))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uconst::ConstUnit;
    use mob_base::{t, Interval};

    fn cu(s: f64, e: f64, lc: bool, rc: bool, v: i64) -> ConstUnit<i64> {
        ConstUnit::new(Interval::new(t(s), t(e), lc, rc), v)
    }

    fn gapped() -> Mapping<ConstUnit<i64>> {
        Mapping::try_new(vec![
            cu(0.0, 1.0, true, true, 1),
            cu(1.0, 2.0, false, false, 2),
            cu(5.0, 6.0, true, true, 3),
            cu(8.0, 9.0, true, false, 4),
        ])
        .unwrap()
    }

    #[test]
    fn batch_agrees_with_per_call_at_instant() {
        let m = gapped();
        let probes: Vec<Instant> = [
            -3.0, 0.0, 0.25, 0.25, 1.0, 1.5, 2.0, 3.3, 5.0, 5.5, 6.0, 7.0, 8.0, 8.5, 9.0, 12.0,
        ]
        .iter()
        .map(|&k| t(k))
        .collect();
        let batch = batch_at_instant(&m, &probes);
        for (k, &ti) in probes.iter().enumerate() {
            assert_eq!(batch[k], m.at_instant(ti), "probe {k} at {ti:?}");
        }
    }

    #[test]
    fn batch_on_empty_and_singleton() {
        let empty: Mapping<ConstUnit<i64>> = Mapping::empty();
        let probes = vec![t(0.0), t(1.0)];
        assert_eq!(batch_at_instant(&empty, &probes), vec![Val::Undef; 2]);
        assert!(batch_at_instant(&gapped(), &[]).is_empty());
    }

    #[test]
    fn cursor_gallops_past_long_runs() {
        // Many units, a few probes near the end: the cursor must still
        // find the right units after long jumps.
        let units: Vec<ConstUnit<i64>> = (0..1000)
            .map(|k| cu(k as f64, k as f64 + 1.0, true, false, k))
            .collect();
        let m = Mapping::try_new(units).unwrap();
        let probes = vec![t(0.5), t(997.25), t(999.5)];
        assert_eq!(
            batch_at_instant(&m, &probes),
            vec![Val::Def(0), Val::Def(997), Val::Def(999)]
        );
    }

    #[test]
    fn cursor_seek_reuses_hit_unit() {
        let m = gapped();
        let mut c = UnitCursor::new(&m);
        assert_eq!(c.seek(t(0.2)), Some(0));
        assert_eq!(c.seek(t(0.9)), Some(0)); // same unit, no advance
        assert_eq!(c.seek(t(4.0)), None); // gap
        assert_eq!(c.seek(t(5.5)), Some(2)); // later unit still reachable
        assert_eq!(c.value_at(t(8.2)), Val::Def(4));
    }

    #[test]
    fn batch_lift2_matches_lift2() {
        let a = Mapping::try_new(vec![cu(0.0, 4.0, true, true, 10)]).unwrap();
        let bs = vec![
            Mapping::try_new(vec![cu(1.0, 3.0, true, true, 1)]).unwrap(),
            Mapping::try_new(vec![cu(2.0, 6.0, true, true, 2)]).unwrap(),
            Mapping::empty(),
        ];
        let kernel = |iv: &TimeInterval, ua: &ConstUnit<i64>, ub: &ConstUnit<i64>| {
            vec![ConstUnit::new(*iv, ua.value() + ub.value())]
        };
        let batch = batch_lift2(&a, &bs, kernel);
        for (k, b) in bs.iter().enumerate() {
            let single = lift2(&a, b, |iv, ua, ub| {
                vec![ConstUnit::new(*iv, ua.value() + ub.value())]
            });
            assert_eq!(batch[k], single, "pairing {k}");
        }
    }
}
