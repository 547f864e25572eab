//! Operations on `moving(point)` — trajectories, speed, lifted distance
//! (Sec 2's operation table) and `inside` against static regions.

use crate::lift::{lift1, lift2};
use crate::mapping::{Mapping, MappingBuilder};
use crate::moving::{MovingBool, MovingPoint, MovingReal};
use crate::seq::{partition_units, UnitSeq};
use crate::uconst::ConstUnit;
use crate::unit::Unit;
use crate::upoint::{Coincidence, UPoint};
use crate::ureal::UReal;
use crate::uregion::URegion;
use mob_base::{Instant, Real, TimeInterval};
use mob_spatial::{Cube, Line, Point, Region, Seg};

/// The `trajectory` operation, generic over the access path: projection
/// of any `upoint` sequence (in-memory or storage-backed) into the
/// plane, keeping the line parts.
pub fn trajectory_seq<S: UnitSeq<Unit = UPoint>>(s: &S) -> Line {
    let segs: Vec<Seg> = (0..s.len())
        .filter_map(|i| s.unit(i).projection().ok())
        .collect();
    Line::normalize(segs)
}

/// Total distance travelled (∫ speed dt), generic over the access path.
pub fn distance_travelled_seq<S: UnitSeq<Unit = UPoint>>(s: &S) -> Real {
    (0..s.len()).fold(Real::ZERO, |acc, i| {
        acc + match s.unit(i).projection() {
            Ok(seg) => seg.length(),
            Err(_) => Real::ZERO,
        }
    })
}

/// The lifted `distance` between two moving points, generic over the
/// access path of **both** arguments — Sec 2's spatio-temporal join
/// operation running directly on stored records when given views.
pub fn distance_seq<SA, SB>(a: &SA, b: &SB) -> MovingReal
where
    SA: UnitSeq<Unit = UPoint>,
    SB: UnitSeq<Unit = UPoint>,
{
    lift2(a, b, |iv, ua, ub| vec![ua.distance_ureal(ub, *iv)])
}

/// Lifted `inside` against a *static* region, generic over the access
/// path — [`Mapping::inside_region`] for any `upoint` sequence
/// (in-memory or storage-backed). It builds the whole moving bool; a
/// caller that only asks whether the point is *ever* inside should use
/// [`ever_inside_seq`], for which this is the reference.
pub fn inside_region_seq<S: UnitSeq<Unit = UPoint>>(s: &S, region: &Region) -> MovingBool {
    let all_false = |s: &S| -> MovingBool {
        let mut builder = MappingBuilder::new();
        for i in 0..s.len() {
            builder.push(ConstUnit::new(s.interval(i), false));
        }
        builder.finish()
    };
    if region.is_empty() || s.len() == 0 {
        return all_false(s);
    }
    let span = TimeInterval::closed(*s.interval(0).start(), *s.interval(s.len() - 1).end());
    match URegion::stationary(span, region) {
        Ok(ur) => crate::moving::mregion::inside(s, &Mapping::single(ur)),
        // Unreachable for a valid non-empty region; degrade to "never
        // inside" rather than panic on the infallible access path.
        Err(_) => all_false(s),
    }
}

/// Existential `inside` against a *static* region: is the moving point
/// inside `region` at some instant of `window` (`None`: of its whole
/// deftime)? The answer equals
/// `!inside_region_seq(&s.at_periods(&Periods::single(w)), region).when_true().is_empty()`,
/// but "∃t inside" is an OR over the units, so no lifted result is
/// built:
///
/// - one header search skips the units before the window (the search
///   of [`UnitSeq::at_periods`]), then a forward walk visits the units
///   up to the window's end;
/// - each unit is clipped to the window and skipped when its bounding
///   rect misses `region.bbox()` — the cube fast path of
///   [`URegion::inside_units`], decided before any region is built;
/// - the first surviving unit builds the stationary [`URegion`] once,
///   and every survivor runs the per-unit step
///   [`URegion::inside_units`]; the walk stops at the first true piece.
///
/// For `k` units intersecting the window that is at most
/// `⌈log2 n⌉ + 2 + k` header reads and `k` unit decodes — exactly one
/// decode when the first windowed unit is inside.
pub fn ever_inside_seq<S: UnitSeq<Unit = UPoint>>(
    s: &S,
    region: &Region,
    window: Option<&TimeInterval>,
) -> bool {
    let n = s.len();
    if region.is_empty() || n == 0 {
        return false;
    }
    let bbox = region.bbox();
    let mut i = window.map_or(0, |w| partition_units(s, 0..n, |iv| iv.r_disjoint(w)));
    let mut stationary: Option<URegion> = None;
    while i < n {
        if let Some(w) = window {
            if w.r_disjoint(&s.interval(i)) {
                break;
            }
        }
        let unit = s.unit(i);
        i += 1;
        let clipped = match window {
            Some(w) => unit.restrict(w),
            None => Some(unit.into_owned()),
        };
        let Some(up) = clipped else { continue };
        if !up.bounding_cube().rect.intersects(&bbox) {
            continue;
        }
        let ur = match &mut stationary {
            Some(ur) => &*ur,
            slot @ None => {
                // Every unit the walk can still reach ends by the
                // window's end (or the last unit's).
                let end = window.map_or_else(|| *s.interval(n - 1).end(), |w| *w.end());
                let span = TimeInterval::closed(*up.interval().start(), end);
                match URegion::stationary(span, region) {
                    Ok(ur) => &*slot.insert(ur),
                    // As in `inside_region_seq`: never inside.
                    Err(_) => return false,
                }
            }
        };
        if ur
            .inside_units(&up, up.interval())
            .iter()
            .any(|b| *b.value())
        {
            return true;
        }
    }
    false
}

impl Mapping<UPoint> {
    /// Build a moving point from a sequence of `(instant, position)`
    /// samples, linearly interpolated between consecutive samples
    /// (the standard way trajectory data enters the model).
    ///
    /// Consecutive units share their boundary instants; each unit owns
    /// `[t_i, t_{i+1})`, the last one is closed.
    pub fn from_samples(samples: &[(Instant, Point)]) -> MovingPoint {
        if samples.is_empty() {
            return MovingPoint::empty();
        }
        if samples.len() == 1 {
            return MovingPoint::single(UPoint::between(
                TimeInterval::point(samples[0].0),
                samples[0].1,
                samples[0].1,
            ));
        }
        let mut builder = MappingBuilder::new();
        for (k, w) in samples.windows(2).enumerate() {
            let (t0, p0) = w[0];
            let (t1, p1) = w[1];
            assert!(t0 < t1, "sample instants must strictly increase");
            let last = k == samples.len() - 2;
            let iv = TimeInterval::new(t0, t1, true, last);
            builder.push(UPoint::between(TimeInterval::closed(t0, t1), p0, p1).with_interval(iv));
        }
        builder.finish()
    }

    /// The `trajectory` operation (Sec 2): the projection of the moving
    /// point into the plane — "the line parts of such a projection"
    /// (isolated points from stationary units are dropped). Because
    /// `line` is an unstructured segment set this "can be done very
    /// efficiently" — no graph structure is computed.
    pub fn trajectory(&self) -> Line {
        trajectory_seq(self)
    }

    /// The isolated points of the projection into the plane: positions
    /// where the point stands still for a whole unit (the complement of
    /// `trajectory`, which keeps only the line parts — together they are
    /// the paper's full projection of a moving point).
    pub fn locations(&self) -> mob_spatial::Points {
        mob_spatial::Points::from_points(
            self.units()
                .iter()
                .filter_map(|u| u.projection().err())
                .collect(),
        )
    }

    /// Total distance actually travelled (∫ speed dt) — differs from
    /// `length(trajectory(...))` when the point retraces its path.
    pub fn distance_travelled(&self) -> Real {
        distance_travelled_seq(self)
    }

    /// Lifted `speed`: a moving real, constant per unit.
    pub fn speed(&self) -> MovingReal {
        lift1(self, |u| vec![u.speed_ureal()])
    }

    /// Lifted `direction` (heading in radians): undefined while the point
    /// is stationary.
    pub fn direction(&self) -> MovingReal {
        let mut builder = MappingBuilder::new();
        for u in self.units() {
            if let Some(d) = u.motion().direction() {
                builder.push(UReal::constant(*u.interval(), d));
            }
        }
        builder.finish()
    }

    /// The lifted `distance` between two moving points (Sec 2's
    /// spatio-temporal join operation): a moving real whose units are
    /// square roots of quadratics.
    pub fn distance(&self, other: &MovingPoint) -> MovingReal {
        distance_seq(self, other)
    }

    /// The lifted distance to a fixed point.
    pub fn distance_to_point(&self, p: Point) -> MovingReal {
        lift1(self, |u| {
            vec![u.distance_to_point_ureal(p).with_interval(*u.interval())]
        })
    }

    /// The `passes` predicate: does the point ever run through `p`?
    pub fn passes(&self, p: Point) -> bool {
        self.units()
            .iter()
            .any(|u| u.passes_at(p) != Coincidence::Never)
    }

    /// The `at` operation for a point value: restrict to the times the
    /// moving point is exactly at `p`.
    pub fn at_point(&self, p: Point) -> MovingPoint {
        let mut units = Vec::new();
        for u in self.units() {
            match u.passes_at(p) {
                Coincidence::Never => {}
                Coincidence::Always => units.push(*u),
                Coincidence::At(t) => units.push(u.with_interval(TimeInterval::point(t))),
            }
        }
        Mapping::from_units_trusted(units)
    }

    /// Lifted `inside` against a *static* region: a moving bool. (The
    /// fully dynamic version against a moving region is
    /// `MovingRegion::inside`.)
    pub fn inside_region(&self, region: &Region) -> MovingBool {
        inside_region_seq(self, region)
    }

    /// The `at` operation for a region value: restrict the moving point
    /// to the times it is inside the (static) region — composition of
    /// the lifted `inside` with `atperiods`.
    pub fn at_region(&self, region: &Region) -> MovingPoint {
        let periods = self.inside_region(region).when_true();
        self.atperiods(&periods)
    }

    /// The same movement shifted in time by `dt` (a time-domain
    /// transformation from the abstract model's projection/translation
    /// group).
    pub fn time_shifted(&self, dt: Real) -> MovingPoint {
        let units = self
            .units()
            .iter()
            .map(|u| {
                let iv = u.interval();
                let shifted = TimeInterval::new(
                    *iv.start() + dt,
                    *iv.end() + dt,
                    iv.left_closed(),
                    iv.right_closed(),
                );
                // Recompute the motion so positions are preserved:
                // p'(t) = p(t - dt).
                let m = u.motion();
                let motion =
                    crate::upoint::PointMotion::new(m.x0 - m.x1 * dt, m.x1, m.y0 - m.y1 * dt, m.y1);
                UPoint::new(shifted, motion)
            })
            .collect();
        // Shifting every interval by the same offset preserves order,
        // disjointness and canonicity.
        Mapping::from_raw(units)
    }

    /// Bounding cube of the whole movement.
    pub fn bounding_cube(&self) -> Option<Cube> {
        let mut it = self.units().iter().map(|u| u.bounding_cube());
        let first = it.next()?;
        Some(it.fold(first, |acc, c| acc.union(&c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mob_base::{r, t, Val};
    use mob_spatial::{pt, rect_ring};

    fn zigzag() -> MovingPoint {
        MovingPoint::from_samples(&[
            (t(0.0), pt(0.0, 0.0)),
            (t(1.0), pt(1.0, 0.0)),
            (t(2.0), pt(1.0, 1.0)),
            (t(3.0), pt(0.0, 1.0)),
        ])
    }

    #[test]
    fn from_samples_covers_whole_span() {
        let m = zigzag();
        assert_eq!(m.num_units(), 3);
        assert_eq!(m.at_instant(t(0.0)), Val::Def(pt(0.0, 0.0)));
        assert_eq!(m.at_instant(t(0.5)), Val::Def(pt(0.5, 0.0)));
        assert_eq!(m.at_instant(t(3.0)), Val::Def(pt(0.0, 1.0)));
        assert_eq!(m.at_instant(t(3.5)), Val::Undef);
        assert_eq!(m.deftime().num_intervals(), 1);
    }

    #[test]
    fn trajectory_and_lengths() {
        let m = zigzag();
        let traj = m.trajectory();
        assert_eq!(traj.num_segments(), 3);
        assert_eq!(traj.length(), r(3.0));
        assert_eq!(m.distance_travelled(), r(3.0));
        // Retracing: out and back over the same segment.
        let back = MovingPoint::from_samples(&[
            (t(0.0), pt(0.0, 0.0)),
            (t(1.0), pt(2.0, 0.0)),
            (t(2.0), pt(0.0, 0.0)),
        ]);
        assert_eq!(back.trajectory().length(), r(2.0)); // projection merges
        assert_eq!(back.distance_travelled(), r(4.0)); // actual travel
    }

    #[test]
    fn locations_of_stationary_phases() {
        let m = MovingPoint::from_samples(&[
            (t(0.0), pt(0.0, 0.0)),
            (t(1.0), pt(1.0, 0.0)),
            (t(2.0), pt(1.0, 0.0)), // parked at (1,0)
            (t(3.0), pt(2.0, 0.0)),
        ]);
        let locs = m.locations();
        assert_eq!(locs.as_slice(), &[pt(1.0, 0.0)]);
        // Pure motion has no isolated points.
        assert!(zigzag().locations().is_empty());
    }

    #[test]
    fn speed_and_direction() {
        let m = zigzag();
        let s = m.speed();
        assert_eq!(s.at_instant(t(0.5)), Val::Def(r(1.0)));
        let d = m.direction();
        assert_eq!(d.at_instant(t(0.5)), Val::Def(r(0.0))); // east
        assert!(d
            .at_instant(t(1.5))
            .unwrap()
            .approx_eq(r(std::f64::consts::FRAC_PI_2), 1e-12)); // north
                                                                // Stationary point has undefined direction.
        let still = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(1.0), pt(0.0, 0.0))]);
        assert!(still.direction().is_empty());
        assert_eq!(still.speed().at_instant(t(0.5)), Val::Def(r(0.0)));
    }

    #[test]
    fn lifted_distance_closest_approach() {
        // Two points crossing: closest approach 0 at t=1.
        let a = MovingPoint::from_samples(&[(t(0.0), pt(0.0, 0.0)), (t(2.0), pt(2.0, 0.0))]);
        let b = MovingPoint::from_samples(&[(t(0.0), pt(2.0, 0.0)), (t(2.0), pt(0.0, 0.0))]);
        let d = a.distance(&b);
        assert_eq!(d.at_instant(t(0.0)), Val::Def(r(2.0)));
        assert_eq!(d.at_instant(t(1.0)), Val::Def(r(0.0)));
        // The paper's min-distance idiom.
        let closest = d.atmin().initial().unwrap();
        assert_eq!(closest.instant, t(1.0));
        assert_eq!(closest.value, r(0.0));
    }

    #[test]
    fn distance_to_fixed_point() {
        let a = MovingPoint::from_samples(&[(t(0.0), pt(-2.0, 1.0)), (t(4.0), pt(2.0, 1.0))]);
        let d = a.distance_to_point(pt(0.0, 0.0));
        let m = d.atmin().initial().unwrap();
        assert_eq!(m.instant, t(2.0));
        assert_eq!(m.value, r(1.0));
    }

    #[test]
    fn passes_and_at_point() {
        let m = zigzag();
        assert!(m.passes(pt(1.0, 0.5)));
        assert!(!m.passes(pt(5.0, 5.0)));
        let at = m.at_point(pt(1.0, 0.5));
        assert_eq!(at.num_units(), 1);
        assert_eq!(*at.units()[0].interval().start(), t(1.5));
    }

    #[test]
    fn inside_static_region() {
        let m = MovingPoint::from_samples(&[(t(0.0), pt(-1.0, 0.5)), (t(4.0), pt(3.0, 0.5))]);
        let region = Region::from_ring(rect_ring(0.0, 0.0, 1.0, 1.0));
        let inside = m.inside_region(&region);
        assert_eq!(inside.at_instant(t(1.5)), Val::Def(true));
        assert_eq!(inside.at_instant(t(0.5)), Val::Def(false));
        assert_eq!(inside.at_instant(t(3.0)), Val::Def(false));
        let p = inside.when_true();
        assert_eq!(p.num_intervals(), 1);
        assert_eq!(*p.as_slice()[0].start(), t(1.0));
        assert_eq!(*p.as_slice()[0].end(), t(2.0));
    }

    #[test]
    fn at_region_restricts() {
        let m = MovingPoint::from_samples(&[(t(0.0), pt(-1.0, 0.5)), (t(4.0), pt(3.0, 0.5))]);
        let region = Region::from_ring(rect_ring(0.0, 0.0, 1.0, 1.0));
        let at = m.at_region(&region);
        assert!(at.at_instant(t(0.5)).is_undef());
        assert_eq!(at.at_instant(t(1.5)), Val::Def(pt(0.5, 0.5)));
        assert!(at.at_instant(t(3.0)).is_undef());
        assert_eq!(at.deftime().total_duration(), r(1.0));
    }

    #[test]
    fn time_shift_preserves_positions() {
        let m = zigzag();
        let shifted = m.time_shifted(r(10.0));
        for k in [0.0, 0.5, 1.5, 3.0] {
            assert_eq!(m.at_instant(t(k)), shifted.at_instant(t(k + 10.0)));
        }
        assert!(shifted.at_instant(t(0.5)).is_undef());
        // Shifting back is the identity on observations.
        let back = shifted.time_shifted(r(-10.0));
        for k in [0.0, 1.0, 2.9] {
            let (a, b) = (m.at_instant(t(k)).unwrap(), back.at_instant(t(k)).unwrap());
            assert!(a.approx_eq(b, 1e-9));
        }
    }

    #[test]
    fn bounding_cube() {
        let m = zigzag();
        let c = m.bounding_cube().unwrap();
        assert_eq!(c.t_min, t(0.0));
        assert_eq!(c.t_max, t(3.0));
        assert!(c.rect.contains_point(pt(1.0, 1.0)));
        assert!(MovingPoint::empty().bounding_cube().is_none());
    }
}
