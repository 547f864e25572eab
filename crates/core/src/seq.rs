//! The **query-over-storage access layer**: [`UnitSeq`], an abstraction
//! of "an ordered sequence of temporal units" that both the in-memory
//! [`Mapping`] and the storage-backed `MappingView` (in `mob-storage`)
//! implement.
//!
//! Section 5's algorithms only ever need four primitives from a sliced
//! value: how many units there are, the time interval of the `i`-th unit,
//! the `i`-th unit itself, and binary search for the unit covering an
//! instant. Everything else — `atinstant`, `present`, `deftime`,
//! `atperiods`, `initial`/`final`, and the lifted-operation skeletons in
//! [`crate::lift`] — is derivable, and is implemented here **once** as
//! default methods, generic over the access path:
//!
//! ```text
//!                 ┌───────────────────────────────┐
//!                 │   UnitSeq (this module)       │
//!                 │  len / interval(i) / unit(i)  │
//!                 │  ── derived: find_unit,       │
//!                 │     at_instant, deftime,      │
//!                 │     at_periods, initial, …    │
//!                 └──────┬───────────────┬────────┘
//!                        │               │
//!            ┌───────────┴────┐   ┌──────┴──────────────────┐
//!            │ Mapping<U>     │   │ MappingView (mob-storage)│
//!            │ Vec<U> in RAM  │   │ lazy decode of unit     │
//!            │                │   │ records from pages      │
//!            └────────────────┘   └─────────────────────────┘
//! ```
//!
//! The payoff: `atinstant` over a *serialized* mapping touches
//! `O(log n)` unit records (one interval header per probe of the binary
//! search plus one full unit decode) instead of deserializing all `n`
//! units first, and `atperiods` over `p` periods reads `O(p·log n + k)`
//! headers and decodes only the `k` units that intersect a period.
//!
//! Units are returned as [`Cow`]: borrowed (free) from an in-memory
//! mapping, owned (decoded on demand) from a storage view.

use crate::mapping::Mapping;
use crate::unit::Unit;
use mob_base::{Instant, Intime, Periods, TimeInterval, Val};
use std::borrow::Cow;
use std::ops::Range;

/// An ordered sequence of temporal units — the access-path abstraction
/// beneath the Section-5 algorithms.
///
/// Implementors provide the three *required* primitives; the temporal
/// operations come for free as default methods. The contract mirrors the
/// `mapping` invariants (Sec 3.2.4): intervals are sorted, pairwise
/// disjoint, and adjacent units carry distinct values.
pub trait UnitSeq {
    /// The unit type of the sequence.
    type Unit: Unit;

    /// Number of units.
    fn len(&self) -> usize;

    /// The time interval of unit `i` (`i < len()`).
    ///
    /// This must be *cheap* relative to [`UnitSeq::unit`]: storage-backed
    /// implementations read only the fixed-size interval header of the
    /// unit record, which is what makes the derived binary search touch
    /// `O(log n)` record headers rather than decode `O(log n)` full units.
    fn interval(&self, i: usize) -> TimeInterval;

    /// Unit `i` (`i < len()`): borrowed from memory or decoded from
    /// storage on demand.
    fn unit(&self, i: usize) -> Cow<'_, Self::Unit>;

    /// `true` if defined nowhere.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of the unit whose interval contains `t`, by binary search
    /// over the interval headers (`O(log n)` — the first step of
    /// Algorithm `atinstant`, Sec 5.1).
    ///
    /// This is **the** unit-lookup of the workspace: `Mapping` and
    /// `MappingView` both resolve instants through it.
    fn find_unit(&self, t: Instant) -> Option<usize> {
        // "Unit i starts at or before t" holds on a prefix because
        // intervals are sorted and disjoint.
        let after = partition_units(self, 0..self.len(), |iv| {
            *iv.start() < t || (*iv.start() == t && iv.left_closed())
        });
        let cand = after.checked_sub(1)?;
        if self.interval(cand).contains(&t) {
            Some(cand)
        } else {
            None
        }
    }

    /// The `atinstant` operation: the value at `t`, or ⊥ if undefined.
    /// Decodes at most **one** unit.
    fn at_instant(&self, t: Instant) -> Val<<Self::Unit as Unit>::Value> {
        self.find_unit(t).map(|i| self.unit(i).at(t)).into()
    }

    /// The `present` predicate for an instant: decodes **no** units, only
    /// interval headers.
    fn present_at(&self, t: Instant) -> bool {
        self.find_unit(t).is_some()
    }

    /// The `deftime` operation: the time domain as a `range(instant)`.
    /// Reads every interval header but decodes no units.
    fn deftime(&self) -> Periods {
        Periods::from_unmerged((0..self.len()).map(|i| self.interval(i)).collect())
    }

    /// The `atperiods` operation: restrict to a set of time intervals.
    ///
    /// For each period, a binary search over the interval headers skips
    /// the units lying entirely before it, then a forward walk clips the
    /// units that overlap it. Only the last unit of a period's walk can
    /// reach into the next period, so it is carried over with its header
    /// and its decoded value. For `p` periods and `k` intersecting
    /// units that is at most `p·(⌈log2 n⌉ + 2) + k` header reads and
    /// exactly `k` unit decodes.
    fn at_periods(&self, periods: &Periods) -> Mapping<Self::Unit> {
        let n = self.len();
        let mut out = Vec::new();
        let mut lo = 0usize;
        let mut carried: Option<(TimeInterval, Cow<'_, Self::Unit>)> = None;
        for period in periods.iter() {
            if let Some((iv, u)) = &carried {
                if !iv.r_disjoint(period) {
                    out.extend(u.restrict(period));
                }
            }
            lo = partition_units(self, lo..n, |iv| iv.r_disjoint(period));
            while lo < n {
                let iv = self.interval(lo);
                if period.r_disjoint(&iv) {
                    break;
                }
                let u = self.unit(lo);
                out.extend(u.restrict(period));
                carried = Some((iv, u));
                lo += 1;
            }
        }
        Mapping::from_raw(out)
    }

    /// The `initial` operation: value and instant at the earliest defined
    /// time; ⊥ when empty.
    fn initial(&self) -> Val<Intime<<Self::Unit as Unit>::Value>> {
        if self.is_empty() {
            return Val::Undef;
        }
        let u = self.unit(0);
        let t0 = *u.interval().start();
        Val::Def(Intime::new(t0, u.at(t0)))
    }

    /// The `final` operation (named `final_value` — `final` is reserved).
    fn final_value(&self) -> Val<Intime<<Self::Unit as Unit>::Value>> {
        if self.is_empty() {
            return Val::Undef;
        }
        let u = self.unit(self.len() - 1);
        let t1 = *u.interval().end();
        Val::Def(Intime::new(t1, u.at(t1)))
    }

    /// Materialize the whole sequence as an in-memory [`Mapping`] —
    /// decodes all `n` units (the "load everything first" baseline the
    /// lazy access path avoids).
    fn materialize(&self) -> Mapping<Self::Unit> {
        Mapping::from_raw((0..self.len()).map(|i| self.unit(i).into_owned()).collect())
    }
}

/// First index of `range` whose interval header fails `before`, by
/// binary search. `before` must hold on a prefix of `range` and fail on
/// the rest, which every "lies before instant / interval X" test does
/// over sorted, disjoint unit intervals. At most
/// `⌈log2(range.len() + 1)⌉` header reads.
///
/// This is the one header search of the crate: [`UnitSeq::find_unit`],
/// [`UnitSeq::at_periods`] and the galloping
/// [`crate::UnitCursor::seek`] all run through it.
pub(crate) fn partition_units<S: UnitSeq + ?Sized>(
    seq: &S,
    range: Range<usize>,
    before: impl Fn(&TimeInterval) -> bool,
) -> usize {
    let Range {
        start: mut lo,
        end: mut hi,
    } = range;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(&seq.interval(mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The in-memory sliced representation is the canonical [`UnitSeq`]:
/// units are borrowed straight out of the `Vec`.
impl<U: Unit> UnitSeq for Mapping<U> {
    type Unit = U;

    fn len(&self) -> usize {
        self.num_units()
    }

    fn interval(&self, i: usize) -> TimeInterval {
        *self.units()[i].interval()
    }

    fn unit(&self, i: usize) -> Cow<'_, U> {
        Cow::Borrowed(&self.units()[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uconst::ConstUnit;
    use mob_base::{t, Interval};
    use std::cell::Cell;

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
    fn trait_and_inherent_agree() {
        let m = simple();
        for k in [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 5.5, 6.0, 9.0] {
            let ti = t(k);
            assert_eq!(UnitSeq::at_instant(&m, ti), m.at_instant(ti), "t={k}");
            assert_eq!(UnitSeq::present_at(&m, ti), m.present_at(ti), "t={k}");
            assert_eq!(UnitSeq::find_unit(&m, ti), m.unit_index_at(ti), "t={k}");
        }
        assert_eq!(UnitSeq::deftime(&m), m.deftime());
        assert_eq!(UnitSeq::initial(&m), m.initial());
        assert_eq!(UnitSeq::final_value(&m), m.final_value());
    }

    #[test]
    fn at_periods_matches_atperiods() {
        let m = simple();
        let p = Periods::from_unmerged(vec![
            Interval::closed(t(0.5), t(1.5)),
            Interval::closed(t(5.5), t(9.0)),
        ]);
        assert_eq!(UnitSeq::at_periods(&m, &p), m.atperiods(&p));
    }

    /// The linear reference: every unit restricted to every period.
    fn restrict_all<U: Unit>(m: &Mapping<U>, p: &Periods) -> Vec<U> {
        m.units()
            .iter()
            .flat_map(|u| p.iter().filter_map(|iv| u.restrict(iv)))
            .collect()
    }

    /// A [`UnitSeq`] over a mapping that counts header reads and decodes.
    struct Counted<'a, U: Unit> {
        m: &'a Mapping<U>,
        headers: Cell<u64>,
        decodes: Cell<u64>,
    }

    impl<'a, U: Unit> Counted<'a, U> {
        fn new(m: &'a Mapping<U>) -> Self {
            Counted {
                m,
                headers: Cell::new(0),
                decodes: Cell::new(0),
            }
        }
    }

    impl<U: Unit> UnitSeq for Counted<'_, U> {
        type Unit = U;
        fn len(&self) -> usize {
            self.m.num_units()
        }
        fn interval(&self, i: usize) -> TimeInterval {
            self.headers.set(self.headers.get() + 1);
            UnitSeq::interval(self.m, i)
        }
        fn unit(&self, i: usize) -> Cow<'_, U> {
            self.decodes.set(self.decodes.get() + 1);
            UnitSeq::unit(self.m, i)
        }
    }

    /// `⌈log2 n⌉` for `n ≥ 1`.
    fn ceil_log2(n: usize) -> u64 {
        u64::from(usize::BITS - n.saturating_sub(1).leading_zeros())
    }

    #[test]
    fn at_periods_matches_a_linear_reference_at_boundaries() {
        // Closed, open and point units touching at shared end points,
        // with gaps before 5 and 9.
        let m = Mapping::try_new(vec![
            cu(0.0, 1.0, true, true, 1),
            cu(1.0, 2.0, false, false, 2),
            cu(2.0, 2.0, true, true, 3),
            cu(2.0, 3.0, false, true, 4),
            cu(5.0, 6.0, true, false, 5),
            cu(6.0, 7.0, true, true, 6),
            cu(9.0, 9.0, true, true, 7),
        ])
        .unwrap();
        let grid = [
            -1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0,
        ];
        let mut ivs = Vec::new();
        for (a, &s) in grid.iter().enumerate() {
            for &e in &grid[a..] {
                for (lc, rc) in [(true, true), (true, false), (false, true), (false, false)] {
                    ivs.extend(Interval::try_new(t(s), t(e), lc, rc).ok());
                }
            }
        }
        let n = ivs.len();
        for (k, iv) in ivs.iter().enumerate() {
            let sets = [
                vec![*iv],
                vec![*iv, ivs[(k * 37 + 11) % n]],
                vec![*iv, ivs[(k * 37 + 11) % n], ivs[(k * 101 + 3) % n]],
            ];
            for set in sets {
                let p = Periods::from_unmerged(set);
                let counted = Counted::new(&m);
                let got = counted.at_periods(&p);
                assert_eq!(got.units(), restrict_all(&m, &p).as_slice(), "{p:?}");
                let hit = m.units().iter();
                let hit = hit.filter(|u| p.iter().any(|iv| u.interval().intersects(iv)));
                assert_eq!(counted.decodes.get(), hit.count() as u64, "{p:?}");
            }
        }
    }

    #[test]
    fn at_periods_reads_logarithmic_headers() {
        let n = 4096usize;
        let m = Mapping::try_new(
            (0..n)
                .map(|k| cu(k as f64, k as f64 + 1.0, true, false, k as i64))
                .collect(),
        )
        .unwrap();
        let window = Periods::single(Interval::closed_open(t(2000.0), t(2020.0)));
        let four = Periods::from_unmerged(vec![
            Interval::closed(t(-5.0), t(0.5)),
            Interval::open(t(700.5), t(703.25)),
            Interval::closed(t(703.5), t(703.75)),
            Interval::closed(t(4000.0), t(5000.0)),
        ]);
        for (p, k) in [(&window, 20u64), (&four, 1 + 4 + 96)] {
            let counted = Counted::new(&m);
            assert_eq!(
                counted.at_periods(p).units(),
                restrict_all(&m, p).as_slice()
            );
            // Unit 703 reaches into two periods: decoded once.
            assert_eq!(counted.decodes.get(), k);
            let bound = p.num_intervals() as u64 * (ceil_log2(n) + 2) + k;
            assert!(
                counted.headers.get() <= bound,
                "{} > {bound}",
                counted.headers.get()
            );
        }
    }

    #[test]
    fn materialize_is_identity_for_mappings() {
        let m = simple();
        assert_eq!(m.materialize(), m);
        assert!(Mapping::<ConstUnit<i64>>::empty().materialize().is_empty());
    }
}
