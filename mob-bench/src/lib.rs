//! # `mob-bench` — seeded end-to-end workloads for the mob stack
//!
//! One process runs one workload: it builds the workload's store from a
//! seed, measures a closed loop for a fixed time (in whole epochs where
//! the data grows), checks the answers, and prints every metric by name and
//! unit. A traced run times each call the benchmark makes into a layer's
//! public functions and reads counts from `mob_obs::Registry` deltas.
//! See `README.md` for the workloads and metrics.

pub mod common;
pub mod diff;
pub mod json;
pub mod pace;
pub mod run;
pub mod stats;
pub mod timed_io;
pub mod trace;
pub mod workloads;

/// Workload size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny inputs for the smoke test.
    Smoke,
    /// The measured size.
    Full,
}

impl Scale {
    /// Parse `smoke` or `full`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The name [`Scale::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Full => "full",
        }
    }
}
