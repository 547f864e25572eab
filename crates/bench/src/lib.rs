//! # `mob-bench` — workload builders for the experiment driver
//!
//! Each experiment of DESIGN.md §2 has a row generator in the
//! `experiments` binary (absolute scaling tables for EXPERIMENTS.md),
//! built from the seeded workloads in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mob_base::{t, Instant};
use mob_core::{MovingPoint, MovingRegion};
use mob_gen::{flight_mpoint, storm};
use mob_spatial::{Point, Seg};

/// Time span of all benchmark workloads.
pub const SPAN: f64 = 100.0;

/// A moving region with exactly `units` units and `verts` moving
/// segments per unit (so `S = units · verts`).
pub fn bench_storm(units: usize, verts: usize) -> MovingRegion {
    storm(0xC0FFEE, units, verts)
}

/// A moving point with ~`units` units crossing the storm's corridor.
pub fn crossing_point(units: usize) -> MovingPoint {
    flight_mpoint(
        0xBEEF,
        Point::from_f64(-50.0, -20.0),
        Point::from_f64(180.0, 80.0),
        0.0,
        SPAN,
        units,
        1.0,
    )
}

/// A moving point far away from the storm (disjoint bounding cubes).
pub fn far_point(units: usize) -> MovingPoint {
    flight_mpoint(
        0xFEED,
        Point::from_f64(5000.0, 5000.0),
        Point::from_f64(6000.0, 6000.0),
        0.0,
        SPAN,
        units,
        1.0,
    )
}

/// Probe instants spread over the workload span (for `atinstant`).
pub fn probe_instants(n: usize) -> Vec<Instant> {
    (0..n)
        .map(|k| t(SPAN * (k as f64 + 0.5) / n as f64))
        .collect()
}

/// A seeded `n`-plane fleet relation with ~`units` units per flight —
/// the workload behind the relation-wide parallel scans (E8).
pub fn bench_fleet(n: usize, units: usize) -> mob_rel::Relation {
    mob_rel::planes_relation(
        mob_gen::plane_fleet(0xF1EE7, n, units)
            .into_iter()
            .map(|p| (p.airline, p.id, p.flight))
            .collect(),
    )
}

/// The boundary soup of `k` disjoint unit squares — `4k` segments that
/// `close()` must assemble into `k` faces.
pub fn square_grid_soup(k: usize) -> Vec<Seg> {
    let mut out = Vec::with_capacity(4 * k);
    let cols = (k as f64).sqrt().ceil() as usize;
    for i in 0..k {
        let x = (i % cols) as f64 * 2.0;
        let y = (i / cols) as f64 * 2.0;
        out.push(mob_spatial::seg(x, y, x + 1.0, y));
        out.push(mob_spatial::seg(x + 1.0, y, x + 1.0, y + 1.0));
        out.push(mob_spatial::seg(x, y + 1.0, x + 1.0, y + 1.0));
        out.push(mob_spatial::seg(x, y, x, y + 1.0));
    }
    out
}

/// Median wall-clock nanoseconds of `f` over `iters` runs (the
/// `experiments` binary's measurement primitive).
pub fn median_nanos(iters: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..iters)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_requested_sizes() {
        let s = bench_storm(8, 12);
        assert_eq!(s.num_units(), 8);
        assert_eq!(s.total_msegs(), 96);
        let p = crossing_point(32);
        assert!(p.num_units() >= 28);
        assert_eq!(square_grid_soup(9).len(), 36);
    }

    #[test]
    fn crossing_point_intersects_storm_corridor() {
        let s = bench_storm(8, 12);
        let p = crossing_point(16);
        let inside = s.contains_moving_point(&p);
        // The probe trajectory is built to pass through the storm.
        assert!(inside.when_true().num_intervals() >= 1);
        // And the far point never touches it.
        let far = s.contains_moving_point(&far_point(16));
        assert!(far.when_true().is_empty());
    }

    #[test]
    fn median_measures_something() {
        let ns = median_nanos(5, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(ns > 0);
    }
}
