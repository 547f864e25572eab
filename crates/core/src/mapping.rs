//! The `mapping` type constructor — the *sliced representation*
//! (Sec 3.2.4, Fig 1):
//!
//! `Mapping(S) = {U ⊆ Unit(S) | (i) equal intervals ⇒ equal values,
//! (ii) distinct intervals are disjoint, and adjacent ⇒ distinct values}`
//!
//! Conditions (i)+(ii) make the representation unique and minimal.
//! Units are stored ordered by their time intervals, so `atinstant` can
//! binary-search in `O(log n)` (Sec 5.1).

use crate::seq::UnitSeq;
use crate::unit::Unit;
use mob_base::error::{InvariantViolation, Result};
use mob_base::{Instant, Interval, Intime, Periods, TimeInterval, Val};
use std::cmp::Ordering;
use std::fmt;

/// A moving value in sliced representation: an ordered set of units with
/// pairwise disjoint intervals, adjacent units carrying distinct values.
///
/// ```
/// use mob_core::{ConstUnit, Mapping};
/// use mob_base::{t, Interval, Val};
///
/// // A discretely changing value: 1 on [0,2), 5 on [2,4].
/// let m = Mapping::try_new(vec![
///     ConstUnit::new(Interval::closed_open(t(0.0), t(2.0)), 1i64),
///     ConstUnit::new(Interval::closed(t(2.0), t(4.0)), 5i64),
/// ]).unwrap();
/// assert_eq!(m.at_instant(t(1.0)), Val::Def(1));
/// assert_eq!(m.at_instant(t(3.0)), Val::Def(5));
/// assert_eq!(m.at_instant(t(9.0)), Val::Undef);
/// assert_eq!(m.deftime().num_intervals(), 1); // [0,2) ∪ [2,4] merges
/// ```
#[derive(Clone, PartialEq)]
pub struct Mapping<U> {
    units: Vec<U>,
}

impl<U: Unit> Mapping<U> {
    /// The everywhere-undefined moving value.
    pub fn empty() -> Mapping<U> {
        Mapping { units: Vec::new() }
    }

    /// A moving value with a single unit.
    pub fn single(unit: U) -> Mapping<U> {
        Mapping { units: vec![unit] }
    }

    /// Validating constructor: units must be sorted by interval, pairwise
    /// disjoint, and adjacent units must carry distinct unit functions.
    pub fn try_new(units: Vec<U>) -> Result<Mapping<U>> {
        for w in units.windows(2) {
            let [u1, u2] = w else { continue };
            let (i1, i2) = (u1.interval(), u2.interval());
            if i1.cmp_start(i2) != Ordering::Less {
                return Err(InvariantViolation::new(
                    "mapping: units must be sorted by time interval",
                ));
            }
            if !i1.disjoint(i2) {
                return Err(InvariantViolation::new(
                    "mapping: unit intervals must be pairwise disjoint",
                ));
            }
            if i1.adjacent(i2) && u1.value_eq(u2) {
                return Err(InvariantViolation::new(
                    "mapping: adjacent units must carry distinct values",
                ));
            }
        }
        Ok(Mapping { units })
    }

    /// Normalizing constructor: sorts units and merges adjacent units
    /// with equal functions. Units must still be pairwise disjoint.
    pub fn from_units(units: Vec<U>) -> Result<Mapping<U>> {
        Mapping::try_new(Self::sort_and_merge(units))
    }

    /// Infallible counterpart of [`Mapping::from_units`] for unit vectors
    /// *derived from already-valid mappings* (restrictions, lifted maps):
    /// sorts, merges, and debug-validates instead of returning `Err` —
    /// the derivation guarantees disjointness, so the only work left is
    /// re-establishing canonicity.
    pub(crate) fn from_units_trusted(units: Vec<U>) -> Mapping<U> {
        Mapping::from_raw(Self::sort_and_merge(units))
    }

    /// Sort by interval start and merge adjacent equal-function units
    /// (the `concat` step of Sec 5.2).
    fn sort_and_merge(mut units: Vec<U>) -> Vec<U> {
        units.sort_by(|a, b| a.interval().cmp_start(b.interval()));
        let mut out: Vec<U> = Vec::with_capacity(units.len());
        for u in units {
            if let Some(last) = out.last_mut() {
                if let Some(m) = last.try_merge(&u) {
                    *last = m;
                    continue;
                }
            }
            out.push(u);
        }
        out
    }

    /// Construct from units already known to satisfy the invariants
    /// (restriction of a valid mapping, materialization of a valid
    /// [`UnitSeq`], …). Validated in debug builds only.
    pub(crate) fn from_raw(units: Vec<U>) -> Mapping<U> {
        debug_assert!(
            Mapping::try_new(units.clone()).is_ok(),
            "from_raw units violate the mapping invariants"
        );
        Mapping { units }
    }

    /// The units in time order.
    pub fn units(&self) -> &[U] {
        &self.units
    }

    /// Number of units (slices).
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// `true` if defined nowhere.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Index of the unit whose interval contains `t`, by binary search
    /// (`O(log n)` — the first step of Algorithm `atinstant`, Sec 5.1).
    ///
    /// Delegates to [`UnitSeq::find_unit`] — the single binary-search
    /// implementation shared by every access path (in-memory mappings and
    /// the storage-backed `MappingView`).
    pub fn unit_index_at(&self, t: Instant) -> Option<usize> {
        UnitSeq::find_unit(self, t)
    }

    /// The unit valid at `t`, if any.
    pub fn unit_at(&self, t: Instant) -> Option<&U> {
        self.unit_index_at(t).map(|i| &self.units[i])
    }

    /// The `atinstant` operation: the value at `t`, or ⊥ if undefined.
    pub fn at_instant(&self, t: Instant) -> Val<U::Value> {
        self.unit_at(t).map(|u| u.at(t)).into()
    }

    /// The `present` predicate for an instant.
    pub fn present_at(&self, t: Instant) -> bool {
        self.unit_at(t).is_some()
    }

    /// The `deftime` operation: the time domain as a `range(instant)`.
    /// (Generic implementation: [`UnitSeq::deftime`].)
    pub fn deftime(&self) -> Periods {
        UnitSeq::deftime(self)
    }

    /// The `initial` operation: the value at the earliest defined instant
    /// (the limit value if the first interval is left-open), with that
    /// instant, as an `intime` pair. ⊥ when empty.
    pub fn initial(&self) -> Val<Intime<U::Value>> {
        self.units
            .first()
            .map(|u| {
                let t0 = *u.interval().start();
                Intime::new(t0, u.at(t0))
            })
            .into()
    }

    /// The `final` operation (named `final_value` — `final` is reserved).
    pub fn final_value(&self) -> Val<Intime<U::Value>> {
        self.units
            .last()
            .map(|u| {
                let t1 = *u.interval().end();
                Intime::new(t1, u.at(t1))
            })
            .into()
    }

    /// Restrict to a single time interval: `atperiods` with one period.
    pub fn at_interval(&self, iv: &TimeInterval) -> Mapping<U> {
        UnitSeq::at_periods(self, &Periods::single(*iv))
    }

    /// The `atperiods` operation: restrict to a set of time intervals.
    /// (Generic binary-search implementation: [`UnitSeq::at_periods`].)
    pub fn atperiods(&self, periods: &Periods) -> Mapping<U> {
        UnitSeq::at_periods(self, periods)
    }

    /// Apply a per-unit transformation producing a unit of another type
    /// on the same interval (the shape of unary lifted operations).
    pub fn map_units<V: Unit>(&self, f: impl Fn(&U) -> V) -> Mapping<V> {
        Mapping {
            units: self.units.iter().map(f).collect(),
        }
    }

    /// Apply a per-unit transformation that may produce several result
    /// units per input unit (in time order); merges across boundaries.
    pub fn flat_map_units<V: Unit>(&self, f: impl Fn(&U) -> Vec<V>) -> Mapping<V> {
        let mut builder = MappingBuilder::new();
        for u in &self.units {
            for v in f(u) {
                builder.push(v);
            }
        }
        builder.finish()
    }

    /// Split a unit whose value degenerates at a closed interval end into
    /// an open-ended unit plus an instant unit (the storage trick
    /// suggested at the end of Sec 5.1). `pred` decides which closed unit
    /// ends to split off.
    pub fn split_degenerate_ends(&self, pred: impl Fn(&U, Instant) -> bool) -> Mapping<U> {
        let mut out = Vec::new();
        for u in &self.units {
            let iv = *u.interval();
            let mut start_split = false;
            let mut end_split = false;
            if !iv.is_point() {
                if iv.left_closed() && pred(u, *iv.start()) {
                    start_split = true;
                }
                if iv.right_closed() && pred(u, *iv.end()) {
                    end_split = true;
                }
            }
            if start_split {
                out.push(u.with_interval(TimeInterval::point(*iv.start())));
            }
            if start_split || end_split {
                let inner = Interval::new(
                    *iv.start(),
                    *iv.end(),
                    iv.left_closed() && !start_split,
                    iv.right_closed() && !end_split,
                );
                out.push(u.with_interval(inner));
            } else {
                out.push(u.clone());
            }
            if end_split {
                out.push(u.with_interval(TimeInterval::point(*iv.end())));
            }
        }
        Mapping { units: out }
    }
}

/// Incremental constructor that appends units in time order and performs
/// the `concat` merge of Sec 5.2 in O(1) per unit ("comparing the last
/// unit of mb with the first unit of ub").
pub struct MappingBuilder<U> {
    units: Vec<U>,
}

impl<U: Unit> MappingBuilder<U> {
    /// New empty builder.
    pub fn new() -> MappingBuilder<U> {
        MappingBuilder { units: Vec::new() }
    }

    /// Append a unit whose interval starts at/after the last one.
    ///
    /// Panics (debug) if ordering or disjointness is violated — builder
    /// users produce units in refinement order, which guarantees both.
    pub fn push(&mut self, unit: U) {
        if let Some(last) = self.units.last_mut() {
            debug_assert!(
                last.interval().disjoint(unit.interval()),
                "builder units must be disjoint"
            );
            debug_assert!(
                last.interval().cmp_start(unit.interval()) == Ordering::Less,
                "builder units must arrive in time order"
            );
            if let Some(merged) = last.try_merge(&unit) {
                *last = merged;
                return;
            }
        }
        self.units.push(unit);
    }

    /// Number of units so far.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// `true` if nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Finish into a mapping.
    pub fn finish(self) -> Mapping<U> {
        debug_assert!(Mapping::try_new(self.units.clone()).is_ok());
        Mapping { units: self.units }
    }
}

impl<U: Unit> Default for MappingBuilder<U> {
    fn default() -> Self {
        MappingBuilder::new()
    }
}

impl<U: Unit> Default for Mapping<U> {
    fn default() -> Self {
        Mapping::empty()
    }
}

impl<U: fmt::Debug> fmt::Debug for Mapping<U> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.units.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uconst::ConstUnit;
    use mob_base::t;

    fn cu(s: f64, e: f64, lc: bool, rc: bool, v: i64) -> ConstUnit<i64> {
        ConstUnit::new(Interval::new(t(s), t(e), lc, rc), v)
    }

    fn simple() -> Mapping<ConstUnit<i64>> {
        Mapping::try_new(vec![
            cu(0.0, 1.0, true, true, 1),
            cu(1.0, 2.0, false, false, 2),
            cu(5.0, 6.0, true, true, 3),
        ])
        .unwrap()
    }

    #[test]
    fn invariants_enforced() {
        // Overlapping.
        assert!(Mapping::try_new(vec![
            cu(0.0, 2.0, true, true, 1),
            cu(1.0, 3.0, true, true, 2)
        ])
        .is_err());
        // Unsorted.
        assert!(Mapping::try_new(vec![
            cu(5.0, 6.0, true, true, 1),
            cu(0.0, 1.0, true, true, 2)
        ])
        .is_err());
        // Adjacent with equal value: must be a single unit.
        assert!(Mapping::try_new(vec![
            cu(0.0, 1.0, true, true, 1),
            cu(1.0, 2.0, false, true, 1)
        ])
        .is_err());
        // Adjacent with distinct values: fine.
        assert!(Mapping::try_new(vec![
            cu(0.0, 1.0, true, true, 1),
            cu(1.0, 2.0, false, true, 2)
        ])
        .is_ok());
    }

    #[test]
    fn from_units_normalizes() {
        let m = Mapping::from_units(vec![
            cu(1.0, 2.0, false, true, 1),
            cu(0.0, 1.0, true, true, 1),
        ])
        .unwrap();
        assert_eq!(m.num_units(), 1);
        assert_eq!(*m.units()[0].interval(), Interval::closed(t(0.0), t(2.0)));
    }

    #[test]
    fn at_instant_binary_search() {
        let m = simple();
        assert_eq!(m.at_instant(t(0.5)), Val::Def(1));
        assert_eq!(m.at_instant(t(1.0)), Val::Def(1)); // [0,1] is closed
        assert_eq!(m.at_instant(t(1.5)), Val::Def(2));
        assert_eq!(m.at_instant(t(2.0)), Val::Undef); // (1,2) open
        assert_eq!(m.at_instant(t(3.0)), Val::Undef); // gap
        assert_eq!(m.at_instant(t(5.5)), Val::Def(3));
        assert_eq!(m.at_instant(t(-1.0)), Val::Undef);
        assert_eq!(m.at_instant(t(9.0)), Val::Undef);
    }

    #[test]
    fn deftime_and_present() {
        let m = simple();
        let dt = m.deftime();
        // [0,1] and (1,2) merge into [0,2); [5,6] stays.
        assert_eq!(dt.num_intervals(), 2);
        assert!(m.present_at(t(0.0)));
        assert!(!m.present_at(t(2.0)));
        assert!(m.present_at(t(5.0)));
    }

    #[test]
    fn initial_and_final() {
        let m = simple();
        let i = m.initial().unwrap();
        assert_eq!(i.instant, t(0.0));
        assert_eq!(i.value, 1);
        let f = m.final_value().unwrap();
        assert_eq!(f.instant, t(6.0));
        assert_eq!(f.value, 3);
        assert!(Mapping::<ConstUnit<i64>>::empty().initial().is_undef());
    }

    #[test]
    fn atperiods_restricts() {
        let m = simple();
        let p = Periods::from_unmerged(vec![
            Interval::closed(t(0.5), t(1.5)),
            Interval::closed(t(5.5), t(9.0)),
        ]);
        let r = m.atperiods(&p);
        assert_eq!(r.num_units(), 3);
        assert_eq!(r.at_instant(t(0.75)), Val::Def(1));
        assert_eq!(r.at_instant(t(1.25)), Val::Def(2));
        assert_eq!(r.at_instant(t(0.25)), Val::Undef);
        assert_eq!(r.at_instant(t(5.75)), Val::Def(3));
        assert_eq!(r.at_instant(t(5.25)), Val::Undef);
    }

    #[test]
    fn builder_concat_merges() {
        let mut b = MappingBuilder::new();
        b.push(cu(0.0, 1.0, true, true, 7));
        b.push(cu(1.0, 2.0, false, true, 7)); // adjacent same value: merge
        b.push(cu(2.0, 3.0, false, true, 8)); // adjacent distinct: keep
        let m = b.finish();
        assert_eq!(m.num_units(), 2);
        assert_eq!(*m.units()[0].interval(), Interval::closed(t(0.0), t(2.0)));
    }

    #[test]
    fn split_degenerate_ends() {
        let m = Mapping::single(cu(0.0, 2.0, true, true, 1));
        // Split the end instant off.
        let s = m.split_degenerate_ends(|_, at| at == t(2.0));
        assert_eq!(s.num_units(), 2);
        assert_eq!(
            *s.units()[0].interval(),
            Interval::new(t(0.0), t(2.0), true, false)
        );
        assert!(s.units()[1].interval().is_point());
        // Values still observable everywhere.
        assert_eq!(s.at_instant(t(2.0)), Val::Def(1));
        assert_eq!(s.at_instant(t(1.0)), Val::Def(1));
    }

    #[test]
    fn flat_map_units_splits_and_merges() {
        let m = Mapping::single(cu(0.0, 4.0, true, true, 9));
        // Split each unit at its midpoint into two halves carrying the
        // same value: the builder's concat merges them right back.
        let same = m.flat_map_units(|u| {
            let iv = u.interval();
            let mid = iv.start().midpoint(*iv.end());
            vec![
                ConstUnit::new(Interval::new(*iv.start(), mid, true, false), *u.value()),
                ConstUnit::new(Interval::new(mid, *iv.end(), true, true), *u.value()),
            ]
        });
        assert_eq!(same.num_units(), 1);
        // Distinct values stay split.
        let split = m.flat_map_units(|u| {
            let iv = u.interval();
            let mid = iv.start().midpoint(*iv.end());
            vec![
                ConstUnit::new(Interval::new(*iv.start(), mid, true, false), 1i64),
                ConstUnit::new(Interval::new(mid, *iv.end(), true, true), 2i64),
            ]
        });
        assert_eq!(split.num_units(), 2);
        assert_eq!(split.at_instant(t(1.0)), Val::Def(1));
        assert_eq!(split.at_instant(t(3.0)), Val::Def(2));
    }

    #[test]
    fn at_interval() {
        let m = simple();
        let c = m.at_interval(&Interval::closed(t(0.5), t(5.5)));
        assert_eq!(c.num_units(), 3);
        assert_eq!(c.deftime().minimum().unwrap(), t(0.5));
    }
}
