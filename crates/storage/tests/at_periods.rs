//! `atperiods` against an independent reference: every unit restricted
//! to every period by a linear `filter_map(restrict)`, with no header
//! search involved. Seeded random `upoint` mappings (gaps, point units,
//! open and closed ends meeting at shared instants) and random period
//! sets (0–4 intervals on a half-unit grid, so their ends often touch
//! unit boundaries exactly) are checked on the in-memory `Mapping` and on
//! a stored `MappingView`, whose header reads and unit decodes are
//! counted.

use mob_base::{t, Interval, Periods, TimeInterval};
use mob_core::{Mapping, PointMotion, UPoint, Unit, UnitSeq};
use mob_storage::mapping_store::save_mpoint;
use mob_storage::{open_mpoint, PageStore, Verify};
use proptest::prelude::*;

/// The linear reference: every unit restricted to every period.
fn restrict_all(m: &Mapping<UPoint>, p: &Periods) -> Vec<UPoint> {
    m.units()
        .iter()
        .flat_map(|u| p.iter().filter_map(|iv| u.restrict(iv)))
        .collect()
}

/// Units that intersect at least one period.
fn intersecting(m: &Mapping<UPoint>, p: &Periods) -> u64 {
    let hit = m.units().iter();
    hit.filter(|u| p.iter().any(|iv| u.interval().intersects(iv)))
        .count() as u64
}

/// `⌈log2 n⌉` for `n ≥ 1`.
fn ceil_log2(n: usize) -> u64 {
    u64::from(usize::BITS - n.saturating_sub(1).leading_zeros())
}

/// An interval on the integer grid from `s` to `s + len`; `len == 0` is
/// a point interval (closed on both ends).
fn grid_interval(s: i32, len: i32, lc: bool, rc: bool) -> TimeInterval {
    let (s, e) = (f64::from(s), f64::from(s + len));
    if len == 0 {
        Interval::point(t(s))
    } else {
        Interval::new(t(s), t(e), lc, rc)
    }
}

/// A random `moving(point)`: up to 24 units laid left to right with
/// gaps of 0–2, lengths 0–5 (0 = point unit) and random closedness.
/// Units that would share an instant are made to meet with one end
/// open; each unit's motion starts at a distinct `x`, so no two
/// adjacent units are mergeable.
fn mpoint_strategy() -> impl Strategy<Value = Mapping<UPoint>> {
    let unit = (
        0i32..3,
        0i32..6,
        any::<bool>(),
        any::<bool>(),
        -50i32..50,
        -50i32..50,
    );
    proptest::collection::vec(unit, 0..25).prop_map(|raw| {
        let mut units = Vec::with_capacity(raw.len());
        let mut cursor = 0i32;
        let mut prev_rc = false;
        for (k, (gap, len, lc, rc, x, y)) in raw.into_iter().enumerate() {
            let touching = gap == 0 && prev_rc;
            let s = if touching && len == 0 {
                cursor + 1
            } else {
                cursor + gap
            };
            let lc = lc && !(touching && s == cursor);
            let iv = grid_interval(s, len, lc, rc);
            let (x, y) = (1000.0 * k as f64 + f64::from(x), f64::from(y));
            let motion = PointMotion::new(x.into(), (y / 7.0).into(), y.into(), (x / 3.0).into());
            prev_rc = iv.right_closed();
            cursor = s + len;
            units.push(UPoint::new(iv, motion));
        }
        Mapping::try_new(units).unwrap_or_else(|e| panic!("generated mapping rejected: {e}"))
    })
}

/// A random period set: 0–4 intervals of up to 2.5 on the half-unit
/// grid, from before the first unit to past the last one (most mappings
/// end before 60), including point intervals.
fn periods_strategy() -> impl Strategy<Value = Periods> {
    let iv = (-8i32..110, 0i32..6, any::<bool>(), any::<bool>());
    proptest::collection::vec(iv, 0..5).prop_map(|raw| {
        let half = |k: i32| t(f64::from(k) / 2.0);
        Periods::from_unmerged(
            raw.into_iter()
                .map(|(s, len, lc, rc)| match len {
                    0 => Interval::point(half(s)),
                    _ => Interval::new(half(s), half(s + len), lc, rc),
                })
                .collect(),
        )
    })
}

/// How many cases exercised each situation the reference must cover.
#[derive(Default, Debug)]
struct Seen {
    /// A unit intersects two or more periods.
    spanning: u32,
    /// A period lies entirely before the first unit.
    before: u32,
    /// A period lies entirely after the last unit.
    after: u32,
    /// A period lies between two units and intersects none.
    between: u32,
    /// A period end coincides with a unit end.
    touching: u32,
    /// A period or unit is a single instant.
    point: u32,
}

impl Seen {
    fn record(&mut self, m: &Mapping<UPoint>, p: &Periods) {
        let (units, periods) = (m.units(), p.as_slice());
        let hits = |u: &UPoint| {
            periods
                .iter()
                .filter(|iv| u.interval().intersects(iv))
                .count()
        };
        let ends = |iv: &TimeInterval| [*iv.start(), *iv.end()];
        let misses = |iv: &TimeInterval| units.iter().all(|u| !u.interval().intersects(iv));
        let (Some(first), Some(last)) = (units.first(), units.last()) else {
            return;
        };
        self.spanning += u32::from(units.iter().any(|u| hits(u) > 1));
        self.before += u32::from(periods.iter().any(|iv| iv.r_disjoint(first.interval())));
        self.after += u32::from(periods.iter().any(|iv| last.interval().r_disjoint(iv)));
        self.between += u32::from(periods.iter().any(|iv| {
            misses(iv) && !iv.r_disjoint(first.interval()) && !last.interval().r_disjoint(iv)
        }));
        self.touching += u32::from(periods.iter().any(|iv| {
            units
                .iter()
                .any(|u| ends(iv).iter().any(|e| ends(u.interval()).contains(e)))
        }));
        let is_point = |iv: &TimeInterval| iv.start() == iv.end();
        self.point +=
            u32::from(periods.iter().any(is_point) || units.iter().any(|u| is_point(u.interval())));
    }
}

#[test]
fn at_periods_agrees_with_a_linear_reference() {
    let (maps, sets) = (mpoint_strategy(), periods_strategy());
    let mut rng = TestRng::deterministic();
    let mut seen = Seen::default();
    for case in 0..1024 {
        let (m, p) = (maps.generate(&mut rng), sets.generate(&mut rng));
        seen.record(&m, &p);
        let want = restrict_all(&m, &p);
        assert_eq!(
            m.atperiods(&p).units(),
            want.as_slice(),
            "memory, case {case}, {p:?}"
        );

        let mut store = PageStore::new();
        let stored = save_mpoint(&m, &mut store);
        let view = open_mpoint(&stored, &store, Verify::Full).expect("saved mapping opens");
        let got = view.at_periods(&p);
        assert_eq!(got.units(), want.as_slice(), "view, case {case}, {p:?}");
        let k = intersecting(&m, &p);
        assert_eq!(view.units_decoded(), k, "decodes, case {case}, {p:?}");
        if !m.is_empty() {
            let bound = p.num_intervals() as u64 * (ceil_log2(m.num_units()) + 2) + k;
            let headers = view.headers_read();
            assert!(
                headers <= bound,
                "case {case}: {headers} headers > bound {bound}"
            );
        }
    }
    let Seen {
        spanning,
        before,
        after,
        between,
        touching,
        point,
    } = seen;
    assert!(
        [spanning, before, after, between, touching, point]
            .iter()
            .all(|&c| c >= 20),
        "too few cases of some kind: {seen:?}"
    );
}

#[test]
fn at_periods_on_a_4096_unit_view_reads_logarithmic_headers() {
    let n = 4096usize;
    let samples: Vec<_> = (0..=n)
        .map(|k| (t(k as f64), mob_spatial::pt(k as f64, (k % 2) as f64)))
        .collect();
    let m = mob_core::MovingPoint::from_samples(&samples);
    assert_eq!(m.num_units(), n);
    let mut store = PageStore::new();
    let stored = save_mpoint(&m, &mut store);
    let view = open_mpoint(&stored, &store, Verify::Full).expect("saved mapping opens");
    let sets = [
        // A 20-unit window in the middle of the track.
        Periods::single(Interval::closed_open(t(2000.0), t(2020.0))),
        // Four periods: before the first unit, across a boundary into a
        // unit the next period also reaches, a point, and past the end.
        Periods::from_unmerged(vec![
            Interval::closed(t(-9.0), t(0.25)),
            Interval::open(t(1000.0), t(1003.5)),
            Interval::point(t(1003.75)),
            Interval::closed(t(4090.5), t(4200.0)),
        ]),
    ];
    for p in &sets {
        view.reset_counters();
        store.reset_counters();
        assert_eq!(view.at_periods(p).units(), restrict_all(&m, p).as_slice());
        let k = intersecting(&m, p);
        assert_eq!(view.units_decoded(), k, "{p:?}");
        let bound = p.num_intervals() as u64 * (ceil_log2(n) + 2) + k;
        assert!(
            view.headers_read() <= bound,
            "headers {} > bound {bound} for {p:?}",
            view.headers_read()
        );
        // A walk over every unit would read all n headers.
        assert!(view.headers_read() < n as u64 / 32);
        assert!(store.pages_read() <= view.headers_read() * 2 + k * 2);
    }
}
