//! Host-speed normalisation.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent over minutes while the code and its inputs stay the same, so
//! raw wall-clock latencies of two runs minutes apart differ by more than
//! the regressions the benchmark must catch. A run therefore times a fixed
//! probe — benchmark-owned work, independent of the code under test —
//! every [`SAMPLE_EVERY`] during its loop, and scales each latency by
//! [`REF_NS`] over the probe time measured around it. Latencies reported
//! this way are in milliseconds at the reference speed; the raw
//! wall-clock values stay in the run's record.
//!
//! The probe is a dependent walk over a 32 KiB table with a
//! data-dependent branch at every step: a warm pass first loads the
//! table, so its timed pass hits the first-level cache whatever the
//! measured operation left behind, and the probe measures the core's own
//! speed (branch, load and issue resources shared with other tenants),
//! not the operation's cache footprint.

use crate::common::Rng;
use crate::stats::median;
use crate::trace::nanos;
use std::time::{Duration, Instant};

/// Probe time at the reference speed: the probe's time on an idle
/// 2-vCPU Xeon (Sapphire Rapids) host, so scaled latencies read close to
/// wall-clock ones there.
pub const REF_NS: f64 = 20_000.0;
/// Interval between probes during a loop.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// Probes on each side of an operation whose median scales it.
const WINDOW: usize = 3;
/// Table entries (32 KiB of `u32`): fits the first-level data cache.
const TABLE: usize = 8192;
/// Bit of an entry that picks the branch taken at that step.
const BRANCH_BIT: u32 = 1 << 16;

/// Probe samples of one run.
pub struct Pace {
    /// A single cycle through every entry; each entry also carries a
    /// random [`BRANCH_BIT`].
    table: Vec<u32>,
    start: Instant,
    /// `(time since start, probe time)`, both in nanoseconds, in time
    /// order.
    samples: Vec<(u64, u64)>,
    next_due: u64,
}

impl Default for Pace {
    fn default() -> Pace {
        Pace::new()
    }
}

impl Pace {
    /// A probe with no samples yet.
    pub fn new() -> Pace {
        let mut rng = Rng::new(0x9ACE);
        let mut order: Vec<u32> = (0..TABLE as u32).collect();
        for i in (1..TABLE).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut table = vec![0; TABLE];
        for k in 0..TABLE {
            let branch = if rng.next_u64() & 1 == 0 {
                0
            } else {
                BRANCH_BIT
            };
            table[order[k] as usize] = order[(k + 1) % TABLE] | branch;
        }
        Pace {
            table,
            start: Instant::now(),
            samples: Vec::new(),
            next_due: 0,
        }
    }

    /// Nanoseconds since the probe was created.
    pub fn now(&self) -> u64 {
        nanos(self.start)
    }

    /// Time the probe once and keep the sample.
    pub fn sample(&mut self) {
        let warm = self.table.iter().fold(0u32, |a, &v| a.wrapping_add(v));
        std::hint::black_box(warm);
        let start = Instant::now();
        let (mut i, mut acc) = (0usize, 0u32);
        for _ in 0..TABLE {
            let v = self.table[i];
            acc = if v & BRANCH_BIT == 0 {
                acc.wrapping_add(v)
            } else {
                acc ^ v.rotate_left(5)
            };
            i = (v & (TABLE as u32 - 1)) as usize;
        }
        std::hint::black_box(acc);
        let ns = nanos(start);
        let t = self.now();
        self.samples.push((t, ns));
        self.next_due = t + SAMPLE_EVERY.as_nanos() as u64;
    }

    /// Sample if [`SAMPLE_EVERY`] has passed since the last sample.
    pub fn tick(&mut self) {
        if self.now() >= self.next_due {
            self.sample();
        }
    }

    /// Factor that scales a latency measured at time `t` (see
    /// [`Pace::now`]) to the reference speed: [`REF_NS`] over the median
    /// of the [`WINDOW`] samples on each side of `t`. 1 without samples.
    pub fn factor_at(&self, t: u64) -> f64 {
        let i = self.samples.partition_point(|&(at, _)| at < t);
        let lo = i.saturating_sub(WINDOW);
        let hi = (i + WINDOW).min(self.samples.len());
        let near: Vec<f64> = self.samples[lo..hi]
            .iter()
            .map(|&(_, ns)| ns as f64)
            .collect();
        if near.is_empty() {
            return 1.0;
        }
        REF_NS / median(&near).max(1.0)
    }

    /// Median probe time over the whole run, in nanoseconds.
    pub fn median_ns(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, ns)| ns as f64).collect();
        if all.is_empty() {
            0.0
        } else {
            median(&all)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_cycle_through_every_entry() {
        let p = Pace::new();
        let mut seen = vec![false; TABLE];
        let mut i = 0usize;
        for _ in 0..TABLE {
            assert!(!seen[i], "entry {i} visited twice");
            seen[i] = true;
            i = (p.table[i] & (TABLE as u32 - 1)) as usize;
        }
        assert_eq!(i, 0, "the walk returns to its start");
    }

    #[test]
    fn factor_uses_the_samples_around_the_time() {
        let mut p = Pace::new();
        assert_eq!(p.factor_at(0), 1.0);
        // Slow samples early, fast ones late.
        p.samples = (0..20)
            .map(|k| (k * 1_000, if k < 10 { 40_000 } else { 10_000 }))
            .collect();
        assert_eq!(p.factor_at(2_000), REF_NS / 40_000.0);
        assert_eq!(p.factor_at(17_000), REF_NS / 10_000.0);
        p.sample();
        assert_eq!(p.samples.len(), 21);
        assert!(p.samples[20].1 > 0);
    }
}
