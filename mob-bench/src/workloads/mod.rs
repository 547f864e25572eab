//! The four workloads. Each is a closed loop driven by one client
//! thread: every operation waits for its answer (and the writer for its
//! commit) before the next one starts.

use crate::common::{Checks, Env, IoMaker, Rng};

pub mod cold_reopen;
pub mod fleet_mix;
pub mod live_ingest;
pub mod track_probe;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["fleet-mix", "track-probe", "live-ingest", "cold-reopen"];

/// What one measured operation took.
pub struct OpSample {
    /// Latency of the operation, in nanoseconds.
    pub op_ns: u64,
    /// Latency of each `passes` query answered during the operation —
    /// the one query every workload runs.
    pub query_ns: Vec<u64>,
    /// `false` when the operation failed or an answer check failed.
    pub ok: bool,
}

/// One round of a fixed query cycle, as one operation: its latency is
/// the sum of its queries' latencies. A whole round, not a single query,
/// is the operation because the cycle mixes query kinds whose latencies
/// differ tenfold: the median of single queries then falls in a sparse
/// stretch between kinds and jumps from run to run.
#[derive(Default)]
pub struct Round {
    op_ns: u64,
    passes_ns: Vec<u64>,
}

impl Round {
    /// Add a `passes` query of `ns` nanoseconds.
    pub fn passes(&mut self, ns: u64) {
        self.op_ns += ns;
        self.passes_ns.push(ns);
    }

    /// Add any other query.
    pub fn other(&mut self, ns: u64) {
        self.op_ns += ns;
    }

    /// The finished round.
    pub fn sample(self) -> OpSample {
        OpSample {
            op_ns: self.op_ns,
            query_ns: self.passes_ns,
            ok: true,
        }
    }
}

impl OpSample {
    /// A failed operation (reported on standard error by `workload`).
    pub fn failed(workload: &str, err: &str) -> OpSample {
        eprintln!("{workload}: {err}");
        OpSample {
            op_ns: 0,
            query_ns: Vec::new(),
            ok: false,
        }
    }
}

/// A set-up workload, ready to measure.
pub trait Workload {
    /// Run operation number `k`.
    fn op(&mut self, k: u64, rng: &mut Rng) -> OpSample;

    /// Operations per epoch, for a workload whose data grows with every
    /// operation: the loop then ends only after whole epochs, and
    /// [`Workload::restart`] returns the data to its set-up state between
    /// two epochs, so every epoch does the same work whatever the run's
    /// length. `None`: any number of operations is whole.
    fn epoch(&self) -> Option<u64> {
        None
    }

    /// Start the next epoch (untimed; see [`Workload::epoch`]).
    fn restart(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Checks that run once after the loop.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Answer checks made so far.
    fn checks(&self) -> Checks;

    /// Units written over the workload's life, set-up included.
    fn appended_units(&self) -> u64;

    /// Units stored in the current generation.
    fn live_units(&self) -> u64;

    /// Bytes of the store directory.
    fn dir_bytes(&self) -> u64;
}

/// Build workload `name` from `seed`.
pub fn setup<M: IoMaker>(
    name: &str,
    seed: u64,
    env: &Env<'_, M>,
) -> Result<Box<dyn Workload>, String> {
    match name {
        "fleet-mix" => fleet_mix::setup(seed, env),
        "track-probe" => track_probe::setup(seed, env),
        "live-ingest" => live_ingest::setup(seed, env),
        "cold-reopen" => cold_reopen::setup(seed, env),
        other => Err(format!("unknown workload {other:?}; known: {NAMES:?}")),
    }
}
