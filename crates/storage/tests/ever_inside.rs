//! `ever_inside_seq` on a stored `MappingView`: the same answer as on
//! the in-memory mapping (and as the lifted reference), at most
//! `⌈log2 n⌉ + 2 + k` header reads and `k` unit decodes for the `k`
//! units that intersect the window, and exactly one decode when the
//! first windowed unit is already inside. Counts come from the view's
//! `view.headers_read` / `view.units_decoded` counters.

use mob_base::{t, Interval, Periods, TimeInterval};
use mob_core::{ever_inside_seq, inside_region_seq, Mapping, MovingPoint, UPoint, Unit};
use mob_spatial::{pt, rect_ring, Point, Region};
use mob_storage::mapping_store::save_mpoint;
use mob_storage::{open_mpoint, PageStore, Verify};

/// `⌈log2 n⌉` for `n ≥ 1`.
fn ceil_log2(n: usize) -> u64 {
    u64::from(usize::BITS - n.saturating_sub(1).leading_zeros())
}

/// The lifted reference on the window.
fn lifted(m: &MovingPoint, region: &Region, w: &TimeInterval) -> bool {
    !inside_region_seq(&m.atperiods(&Periods::single(*w)), region)
        .when_true()
        .is_empty()
}

/// `k`, the units intersecting `w`, and whether the first of them,
/// clipped to `w`, is already inside `region` (the early-exit case).
fn windowed(m: &MovingPoint, region: &Region, w: &TimeInterval) -> (u64, bool) {
    let hit: Vec<&UPoint> = m
        .units()
        .iter()
        .filter(|u| u.interval().intersects(w))
        .collect();
    let first_inside = hit.first().and_then(|u| u.restrict(w)).is_some_and(|u| {
        !inside_region_seq(&Mapping::single(u), region)
            .when_true()
            .is_empty()
    });
    (hit.len() as u64, first_inside)
}

/// SplitMix64, so a failing case replays from its printed seed.
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

    fn grid_point(&mut self) -> Point {
        pt(f64::from(self.int(-6, 6)), f64::from(self.int(-6, 6)))
    }
}

/// A random `moving(point)` of 0–40 units with gaps, point units and
/// random closedness on the grid `[-6, 6]²`; `None` when two adjacent
/// units happen to be mergeable.
fn random_mpoint(rng: &mut Rng) -> Option<MovingPoint> {
    let mut units = Vec::new();
    let (mut cursor, mut prev_rc) = (0i32, false);
    for _ in 0..rng.int(0, 40) {
        let (gap, len, lc, rc) = (rng.int(0, 2), rng.int(0, 3), rng.coin(), rng.coin());
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
        let p = rng.grid_point();
        let q = if len == 0 { p } else { rng.grid_point() };
        units.push(UPoint::between(Interval::closed(ts, te), p, q).with_interval(iv));
        prev_rc = iv.right_closed();
        cursor = s + len;
    }
    Mapping::try_new(units).ok()
}

#[test]
fn ever_inside_on_a_stored_view_matches_memory_within_the_header_bound() {
    const BASE_SEED: u64 = 0xE7E2_57A6_0000_0000;
    let (mut early, mut hits, mut misses) = (0u32, 0u32, 0u32);
    for case in 0..1500u64 {
        let seed = BASE_SEED + case;
        let mut rng = Rng(seed);
        let Some(m) = random_mpoint(&mut rng) else {
            continue;
        };
        let (x, y) = (rng.int(-6, 4), rng.int(-6, 4));
        let (wd, ht) = (rng.int(1, 5), rng.int(1, 5));
        let region = Region::from_ring(rect_ring(
            f64::from(x),
            f64::from(y),
            f64::from(x + wd),
            f64::from(y + ht),
        ));
        let half = |k: i32| t(f64::from(k) / 2.0);
        let (s, len) = (rng.int(-4, 140), rng.int(0, 30));
        let w = match len {
            0 => Interval::point(half(s)),
            _ => Interval::new(half(s), half(s + len), rng.coin(), rng.coin()),
        };

        let mut store = PageStore::new();
        let stored = save_mpoint(&m, &mut store);
        let view = open_mpoint(&stored, &store, Verify::Full).expect("saved mapping opens");
        view.reset_counters();
        let got = ever_inside_seq(&view, &region, Some(&w));
        let (headers, decoded) = (view.headers_read(), view.units_decoded());
        let want = ever_inside_seq(&m, &region, Some(&w));
        assert_eq!(
            got, want,
            "seed {seed:#x}: view and memory disagree on {w:?}"
        );
        assert_eq!(want, lifted(&m, &region, &w), "seed {seed:#x}: reference");
        assert_eq!(
            ever_inside_seq(&view, &region, None),
            ever_inside_seq(&m, &region, None),
            "seed {seed:#x}: unwindowed"
        );

        let (k, first_inside) = windowed(&m, &region, &w);
        if !m.is_empty() {
            let bound = ceil_log2(m.num_units()) + 2 + k;
            assert!(
                headers <= bound,
                "seed {seed:#x}: {headers} headers > bound {bound}"
            );
        }
        assert!(decoded <= k, "seed {seed:#x}: {decoded} decodes > k = {k}");
        if first_inside {
            assert_eq!(decoded, 1, "seed {seed:#x}: no early exit");
            early += 1;
        }
        *if got { &mut hits } else { &mut misses } += 1;
    }
    assert!(
        early >= 50 && hits >= 100 && misses >= 100,
        "too few cases of some kind: early {early}, hits {hits}, misses {misses}"
    );
}

#[test]
fn ever_inside_on_a_4096_unit_view_reads_logarithmic_headers() {
    // A track along y = 0.5 from x = 0 to x = 4096, one unit per step.
    let n = 4096usize;
    let samples: Vec<_> = (0..=n)
        .map(|k| (t(k as f64), pt(k as f64, (k % 2) as f64 * 0.5)))
        .collect();
    let m = MovingPoint::from_samples(&samples);
    assert_eq!(m.num_units(), n);
    let mut store = PageStore::new();
    let stored = save_mpoint(&m, &mut store);
    let w = Interval::closed_open(t(2000.0), t(2040.0));
    let zone = |x0: f64, x1: f64| Region::from_ring(rect_ring(x0, -1.0, x1, 2.0));
    // (name, region, answer, decodes)
    let cases = [
        ("early hit", zone(1990.0, 2010.0), true, 1),
        // Units 2000..2035 are decoded; the 36th is inside.
        ("late hit", zone(2035.5, 2100.0), true, 36),
        ("miss", zone(5000.0, 5100.0), false, 40),
    ];
    for (name, region, want, decodes) in cases {
        // A fresh view: no unit is in its decode cache.
        let view = open_mpoint(&stored, &store, Verify::Full).expect("saved mapping opens");
        view.reset_counters();
        assert_eq!(ever_inside_seq(&view, &region, Some(&w)), want, "{name}");
        assert_eq!(lifted(&m, &region, &w), want, "{name}: reference");
        let (k, _) = windowed(&m, &region, &w);
        let (headers, decoded) = (view.headers_read(), view.units_decoded());
        let bound = ceil_log2(n) + 2 + k;
        assert!(headers <= bound, "{name}: headers {headers} > {bound}");
        assert!(decoded <= k, "{name}: decodes {decoded} > k = {k}");
        assert_eq!(decoded, decodes, "{name}");
        // A walk over every unit would read all n headers.
        assert!(headers < n as u64 / 32, "{name}: {headers} headers");
    }
}
