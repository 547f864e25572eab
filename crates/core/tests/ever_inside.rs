//! `ever_inside_seq` against the lifted reference: the existential
//! answer must equal "the lifted `inside` has a true piece", with the
//! window applied by `atperiods` first. Seeded random `upoint` mappings
//! and regions on an integer grid (so units often touch region edges
//! and vertices exactly), plus named edge cases. A failing random case
//! prints its seed; `run_case(seed, ..)` replays that case alone.

use mob_base::{t, Interval, Periods, TimeInterval};
use mob_core::{ever_inside_seq, inside_region_seq, Mapping, MovingPoint, UPoint, Unit};
use mob_spatial::arrangement::on_any_segment;
use mob_spatial::{pt, rect_ring, Face, Point, Region, Ring};

/// The lifted reference: `window` restricted by `atperiods`, then the
/// full moving bool of Sec 5.2 tested for a true piece.
fn lifted(m: &MovingPoint, region: &Region, window: Option<&TimeInterval>) -> bool {
    let when = match window {
        Some(w) => inside_region_seq(&m.atperiods(&Periods::single(*w)), region).when_true(),
        None => inside_region_seq(m, region).when_true(),
    };
    !when.is_empty()
}

/// Both forms agree with the reference and with `want`.
fn check(name: &str, m: &MovingPoint, region: &Region, window: Option<&TimeInterval>, want: bool) {
    assert_eq!(lifted(m, region, window), want, "{name}: reference");
    assert_eq!(
        ever_inside_seq(m, region, window),
        want,
        "{name}: existential"
    );
}

/// SplitMix64: a self-contained seeded stream, so one case can be
/// replayed from its seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn int(&mut self, lo: i32, hi: i32) -> i32 {
        let span = u64::try_from(hi - lo + 1).unwrap_or(1);
        lo + i32::try_from(self.next() % span).unwrap_or(0)
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn grid_point(&mut self, r: i32) -> Point {
        pt(f64::from(self.int(-r, r)), f64::from(self.int(-r, r)))
    }
}

/// A random `moving(point)`: 0–9 units left to right with gaps of 0–2,
/// lengths 0–4 (0 = point unit) and random closedness; end points on the
/// grid `[-6, 6]²`. Units that would share an instant meet with one end
/// open. `None` when two adjacent units happen to be mergeable.
fn random_mpoint(rng: &mut Rng) -> Option<MovingPoint> {
    let mut units = Vec::new();
    let (mut cursor, mut prev_rc) = (0i32, false);
    for _ in 0..rng.int(0, 9) {
        let (gap, len, lc, rc) = (rng.int(0, 2), rng.int(0, 4), rng.coin(), rng.coin());
        let touching = gap == 0 && prev_rc;
        let s = if touching && len == 0 {
            cursor + 1
        } else {
            cursor + gap
        };
        let lc = lc && !(touching && s == cursor);
        let (ts, te) = (t(f64::from(s)), t(f64::from(s + len)));
        let iv = if len == 0 {
            Interval::point(ts)
        } else {
            Interval::new(ts, te, lc, rc)
        };
        let p = rng.grid_point(6);
        let q = if len == 0 { p } else { rng.grid_point(6) };
        units.push(UPoint::between(Interval::closed(ts, te), p, q).with_interval(iv));
        prev_rc = iv.right_closed();
        cursor = s + len;
    }
    Mapping::try_new(units).ok()
}

/// A rectangle on the grid; `None` when degenerate.
fn rect(x0: i32, y0: i32, x1: i32, y1: i32) -> Option<Ring> {
    let f = f64::from;
    (x0 < x1 && y0 < y1).then(|| rect_ring(f(x0), f(y0), f(x1), f(y1)))
}

/// A random region on the grid `[-4, 4]²`: a rectangle, a triangle, a
/// rectangle with a hole, a concave notch (a reflex vertex a line can
/// touch tangentially), two faces, or (rarely) the empty region.
fn random_region(rng: &mut Rng) -> Option<Region> {
    let (x, y) = (rng.int(-4, 2), rng.int(-4, 2));
    let (w, h) = (rng.int(1, 6), rng.int(1, 6));
    match rng.int(0, 15) {
        0 => Some(Region::empty()),
        1..=4 => rect(x, y, x + w, y + h).map(Region::from_ring),
        5..=7 => {
            let pts = vec![rng.grid_point(4), rng.grid_point(4), rng.grid_point(4)];
            Ring::try_new(pts).ok().map(Region::from_ring)
        }
        8..=10 => {
            let outer = rect(x, y, x + w + 2, y + h + 2)?;
            let hole = rect(x + 1, y + 1, x + w + 1, y + h + 1)?;
            let face = Face::try_new(outer, vec![hole]).ok()?;
            Region::try_new(vec![face]).ok()
        }
        11..=13 => {
            let (fx, fy) = (f64::from(x), f64::from(y));
            let notch = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (2.0, 2.0), (0.0, 4.0)];
            let pts = notch.iter().map(|&(a, b)| pt(fx + a, fy + b)).collect();
            Ring::try_new(pts).ok().map(Region::from_ring)
        }
        _ => {
            let left = Face::try_new(rect(x, y, x + 1, y + h)?, Vec::new()).ok()?;
            let right = Face::try_new(rect(x + 2, y, x + 2 + w, y + 1)?, Vec::new()).ok()?;
            Region::try_new(vec![left, right]).ok()
        }
    }
}

/// A random window on the half-unit grid over `[-2, 40]`, including
/// point windows.
fn random_window(rng: &mut Rng) -> TimeInterval {
    let half = |k: i32| t(f64::from(k) / 2.0);
    let (s, len) = (rng.int(-4, 80), rng.int(0, 8));
    if len == 0 {
        Interval::point(half(s))
    } else {
        Interval::new(half(s), half(s + len), rng.coin(), rng.coin())
    }
}

/// How many cases exercised each situation the comparison must cover.
#[derive(Default, Debug)]
struct Seen {
    /// The windowed answer was true / false.
    hits: u32,
    misses: u32,
    /// A point unit intersects the window.
    point_units: u32,
    /// A window end coincides with a unit end.
    touching: u32,
    /// The point is on the region's boundary at a unit end inside the
    /// window (an edge or vertex graze).
    grazing: u32,
    /// Empty mapping or empty region.
    empty: u32,
}

impl Seen {
    fn record(&mut self, m: &MovingPoint, region: &Region, w: &TimeInterval, hit: bool) {
        *if hit {
            &mut self.hits
        } else {
            &mut self.misses
        } += 1;
        self.empty += u32::from(m.is_empty() || region.is_empty());
        let inside = m.units().iter().filter(|u| u.interval().intersects(w));
        let ends = |iv: &TimeInterval| [*iv.start(), *iv.end()];
        let mut point = false;
        let mut touching = false;
        let mut grazing = false;
        let edges = region.segments();
        for u in inside {
            point |= u.interval().is_point();
            touching |= ends(w).iter().any(|e| ends(u.interval()).contains(e));
            grazing |= [u.start_point(), u.end_point()]
                .iter()
                .any(|&p| on_any_segment(&edges, p));
        }
        self.point_units += u32::from(point);
        self.touching += u32::from(touching);
        self.grazing += u32::from(grazing);
    }
}

/// One random case: both forms against the reference.
fn run_case(seed: u64, seen: &mut Seen) {
    let mut rng = Rng(seed);
    let (Some(m), Some(region)) = (random_mpoint(&mut rng), random_region(&mut rng)) else {
        return;
    };
    let w = random_window(&mut rng);
    let want = lifted(&m, &region, Some(&w));
    assert_eq!(
        ever_inside_seq(&m, &region, Some(&w)),
        want,
        "seed {seed:#x}: windowed form disagrees on {w:?}"
    );
    assert_eq!(
        ever_inside_seq(&m, &region, None),
        lifted(&m, &region, None),
        "seed {seed:#x}: unwindowed form disagrees"
    );
    seen.record(&m, &region, &w, want);
}

const BASE_SEED: u64 = 0xE7E2_1A5D_0000_0000;

#[test]
fn ever_inside_agrees_with_the_lifted_reference_on_random_cases() {
    let mut seen = Seen::default();
    for case in 0..12_000u64 {
        run_case(BASE_SEED + case, &mut seen);
    }
    let Seen {
        hits,
        misses,
        point_units,
        touching,
        grazing,
        empty,
    } = seen;
    assert!(
        [hits, misses, point_units, touching, grazing, empty]
            .iter()
            .all(|&c| c >= 50),
        "too few cases of some kind: {seen:?}"
    );
}

fn square() -> Region {
    Region::from_ring(rect_ring(0.0, 0.0, 2.0, 2.0))
}

fn samples(points: &[(f64, (f64, f64))]) -> MovingPoint {
    let s: Vec<_> = points.iter().map(|&(k, (x, y))| (t(k), pt(x, y))).collect();
    MovingPoint::from_samples(&s)
}

#[test]
fn ever_inside_edge_case_point_units() {
    let at = |x: f64, y: f64| {
        Mapping::try_new(vec![UPoint::between(
            Interval::point(t(3.0)),
            pt(x, y),
            pt(x, y),
        )])
        .unwrap_or_else(|e| panic!("point unit rejected: {e}"))
    };
    let r = square();
    let w = Interval::closed(t(0.0), t(5.0));
    check("point unit inside", &at(1.0, 1.0), &r, Some(&w), true);
    check("point unit on the edge", &at(2.0, 1.0), &r, Some(&w), true);
    check("point unit outside", &at(3.0, 1.0), &r, Some(&w), false);
    check("point unit, no window", &at(1.0, 1.0), &r, None, true);
    let missed = Interval::closed_open(t(0.0), t(3.0));
    check(
        "point unit at an open window end",
        &at(1.0, 1.0),
        &r,
        Some(&missed),
        false,
    );
}

#[test]
fn ever_inside_edge_case_window_ends_touching_a_unit_boundary() {
    // [0,1) far outside, then [1,2] inside the square.
    let m = Mapping::try_new(vec![
        UPoint::between(
            Interval::closed_open(t(0.0), t(1.0)),
            pt(-9.0, 1.0),
            pt(-8.0, 1.0),
        ),
        UPoint::between(Interval::closed(t(1.0), t(2.0)), pt(1.0, 1.0), pt(1.5, 1.0)),
    ])
    .unwrap_or_else(|e| panic!("mapping rejected: {e}"));
    let r = square();
    let closed = Interval::closed(t(-1.0), t(1.0));
    let open = Interval::closed_open(t(-1.0), t(1.0));
    check(
        "closed window end on the inside unit's start",
        &m,
        &r,
        Some(&closed),
        true,
    );
    check(
        "open window end on the inside unit's start",
        &m,
        &r,
        Some(&open),
        false,
    );
    // The outside unit is right-open at 1: a window opening at 1 sees
    // only the inside unit, a window closing at 1 from the left only
    // the outside unit's open end.
    let from = Interval::new(t(1.0), t(4.0), false, true);
    check(
        "open window start on a unit boundary",
        &m,
        &r,
        Some(&from),
        true,
    );
    let reversed = Mapping::try_new(vec![
        UPoint::between(
            Interval::closed_open(t(0.0), t(1.0)),
            pt(1.0, 1.0),
            pt(1.5, 1.0),
        ),
        UPoint::between(
            Interval::closed(t(1.0), t(2.0)),
            pt(-9.0, 1.0),
            pt(-8.0, 1.0),
        ),
    ])
    .unwrap_or_else(|e| panic!("mapping rejected: {e}"));
    let after = Interval::closed(t(1.0), t(3.0));
    check(
        "window starting at an open unit end",
        &reversed,
        &r,
        Some(&after),
        false,
    );
    let before = Interval::closed(t(0.5), t(1.0));
    check(
        "window ending past an open unit end",
        &reversed,
        &r,
        Some(&before),
        true,
    );
}

#[test]
fn ever_inside_edge_case_window_ends_exactly_on_a_unit_boundary() {
    // Units [0,1), [1,2), [2,3]: the point reaches the square's edge
    // x = 0 exactly at t = 2, the boundary between the last two units.
    let m = samples(&[
        (0.0, (-6.0, 1.0)),
        (1.0, (-4.0, 1.0)),
        (2.0, (0.0, 1.0)),
        (3.0, (1.0, 1.0)),
    ]);
    let r = square();
    let upto = Interval::closed_open(t(0.0), t(2.0));
    let through = Interval::closed(t(0.0), t(2.0));
    check(
        "window [0,2) stops before the entry",
        &m,
        &r,
        Some(&upto),
        false,
    );
    check(
        "window [0,2] includes the entry instant",
        &m,
        &r,
        Some(&through),
        true,
    );
    check("whole deftime", &m, &r, None, true);
}

#[test]
fn ever_inside_edge_case_grazing_an_edge_or_a_vertex() {
    let r = square();
    // Along the bottom edge y = 0: on the boundary, which counts as
    // inside (closure semantics).
    let along = samples(&[(0.0, (-1.0, 0.0)), (4.0, (3.0, 0.0))]);
    check("running along an edge", &along, &r, None, true);
    // Past the vertex (0,0) from outside to outside, turning there: the
    // closed start of the second unit is on the boundary.
    let corner = samples(&[(0.0, (-1.0, 1.0)), (1.0, (0.0, 0.0)), (2.0, (1.0, -2.0))]);
    check(
        "grazing a vertex at a unit boundary",
        &corner,
        &r,
        None,
        true,
    );
    let w = Interval::closed_open(t(0.0), t(1.0));
    check(
        "vertex graze outside a right-open window",
        &corner,
        &r,
        Some(&w),
        false,
    );
    // Ending on the edge x = 2 with a closed end.
    let ending = samples(&[(0.0, (5.0, 1.0)), (1.0, (2.0, 1.0))]);
    check("unit ending on an edge", &ending, &r, None, true);
}

#[test]
fn ever_inside_edge_case_tangential_touch_is_classified_by_midpoint() {
    // E2's per-unit step classifies the pieces between crossings by
    // their midpoints: a straight pass that touches only the vertex
    // (0,0) inside one unit has no piece whose midpoint is inside, so
    // the lifted `inside` has no true piece (it is false on both sides
    // and leaves the touching instant itself undefined) — and the
    // existential answer is false too. (`from_samples` merges the two
    // collinear halves into one unit.)
    let r = square();
    let touch = samples(&[(0.0, (-1.0, 1.0)), (2.0, (1.0, -1.0))]);
    check(
        "tangential vertex touch inside one unit",
        &touch,
        &r,
        None,
        false,
    );
    let w = Interval::closed(t(0.5), t(1.5));
    check("the same touch in a window", &touch, &r, Some(&w), false);
    // The reflex vertex (2,2) of a notch, touched from inside the notch.
    let notch = Region::from_ring(
        Ring::try_new(vec![
            pt(0.0, 0.0),
            pt(4.0, 0.0),
            pt(4.0, 4.0),
            pt(2.0, 2.0),
            pt(0.0, 4.0),
        ])
        .unwrap_or_else(|e| panic!("notch rejected: {e}")),
    );
    let reflex = samples(&[(0.0, (1.0, 3.0)), (2.0, (3.0, 3.0))]);
    assert_eq!(
        ever_inside_seq(&reflex, &notch, None),
        lifted(&reflex, &notch, None),
        "touch at a reflex vertex"
    );
}

#[test]
fn ever_inside_edge_case_empty_region_and_empty_mapping() {
    let m = samples(&[(0.0, (1.0, 1.0)), (1.0, (1.5, 1.0))]);
    let w = Interval::closed(t(0.0), t(1.0));
    check("empty region", &m, &Region::empty(), Some(&w), false);
    check("empty region, no window", &m, &Region::empty(), None, false);
    let none = MovingPoint::empty();
    check("empty mapping", &none, &square(), Some(&w), false);
    check("empty mapping, no window", &none, &square(), None, false);
    // A window that misses every unit.
    let later = Interval::closed(t(5.0), t(6.0));
    check(
        "window past the last unit",
        &m,
        &square(),
        Some(&later),
        false,
    );
}
