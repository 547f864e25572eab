//! Per-layer timing from outside the program: the benchmark wraps each
//! call it makes into a layer's public functions and accumulates calls
//! and nanoseconds per layer name. Counts come from `mob_obs::Registry`
//! snapshot deltas taken around each traced operation.

use crate::timed_io::IoStats;
use mob_obs::{Registry, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `(calls, total nanoseconds)` per layer.
type Layers = BTreeMap<&'static str, (u64, u64)>;

/// Accumulates layer times and counts for one run. A tracer built with
/// [`Tracer::off`] records nothing and costs one branch per call.
pub struct Tracer {
    on: bool,
    /// `false` while a traced run executes an untraced control
    /// operation (the trace-overhead baseline).
    active: AtomicBool,
    layers: Mutex<Layers>,
    io: Option<Arc<IoStats>>,
    /// Registry deltas summed over traced operations.
    counts: Mutex<Snapshot>,
    /// Registry deltas of the benchmark's own extra calls during the
    /// current traced operation, taken back out of its delta.
    excluded: Mutex<Snapshot>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            active: AtomicBool::new(false),
            layers: Mutex::new(Layers::new()),
            io: None,
            counts: Mutex::new(Snapshot::default()),
            excluded: Mutex::new(Snapshot::default()),
        }
    }

    /// A recording tracer; `io` are the counters of the run's
    /// [`crate::timed_io::TimedIo`] wrappers.
    pub fn new(io: Arc<IoStats>) -> Tracer {
        Tracer {
            on: true,
            active: AtomicBool::new(true),
            io: Some(io),
            ..Tracer::off()
        }
    }

    /// Whether calls are being recorded right now.
    pub fn tracing(&self) -> bool {
        self.on && self.active.load(Ordering::Relaxed)
    }

    /// Switch recording on or off for the next operation (traced runs
    /// only; a tracer built with [`Tracer::off`] stays off).
    pub fn set_active(&self, on: bool) {
        self.active.store(on, Ordering::Relaxed);
    }

    /// Add one call to `layer`, carrying `value` (nanoseconds for timed
    /// layers, a count otherwise).
    pub fn record(&self, layer: &'static str, value: u64) {
        if !self.tracing() {
            return;
        }
        let mut layers = self.layers.lock().expect("tracer lock poisoned");
        let e = layers.entry(layer).or_insert((0, 0));
        e.0 += 1;
        e.1 += value;
    }

    /// Run `f` as one call of `layer`.
    pub fn time<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.tracing() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(layer, nanos(start));
        out
    }

    /// Run `f` as one call of `layer`, and record the call's time minus
    /// the I/O time spent inside it under `self_layer`.
    pub fn time_io<R>(
        &self,
        layer: &'static str,
        self_layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some(io) = self.io.as_ref().filter(|_| self.tracing()) else {
            return f();
        };
        let io_before = io.snapshot().total_ns();
        let start = Instant::now();
        let out = f();
        let ns = nanos(start);
        let io_ns = io.snapshot().total_ns().saturating_sub(io_before);
        self.record(layer, ns);
        self.record(self_layer, ns.saturating_sub(io_ns));
        out
    }

    /// Mean nanoseconds per call of `layer` (`None` if never called).
    pub fn mean_ns(&self, layer: &str) -> Option<f64> {
        let layers = self.layers.lock().expect("tracer lock poisoned");
        layers
            .get(layer)
            .filter(|(calls, _)| *calls > 0)
            .map(|(calls, ns)| *ns as f64 / *calls as f64)
    }

    /// Calls recorded for `layer`.
    pub fn calls(&self, layer: &str) -> u64 {
        let layers = self.layers.lock().expect("tracer lock poisoned");
        layers.get(layer).map_or(0, |(calls, _)| *calls)
    }

    /// Sum of the values recorded for `layer`.
    pub fn total(&self, layer: &str) -> u64 {
        let layers = self.layers.lock().expect("tracer lock poisoned");
        layers.get(layer).map_or(0, |(_, total)| *total)
    }

    /// Every layer with `(calls, total)`, by name.
    pub fn layers(&self) -> Vec<(&'static str, u64, u64)> {
        let layers = self.layers.lock().expect("tracer lock poisoned");
        layers.iter().map(|(k, (c, t))| (*k, *c, *t)).collect()
    }

    /// Registry snapshot to bracket one traced operation (`None` when
    /// not tracing).
    pub fn begin_op(&self) -> Option<Snapshot> {
        *self.excluded.lock().expect("tracer lock poisoned") = Snapshot::default();
        self.tracing().then(|| Registry::global().snapshot())
    }

    /// Close the bracket opened by [`Tracer::begin_op`].
    pub fn end_op(&self, before: Option<Snapshot>) {
        if let Some(before) = before {
            let delta = Registry::global().snapshot().delta(&before);
            let excluded = self.excluded.lock().expect("tracer lock poisoned");
            self.counts
                .lock()
                .expect("tracer lock poisoned")
                .add(&delta.delta(&excluded));
        }
    }

    /// Run `f`, a call the benchmark adds only to measure a layer, and
    /// keep the counters it moves out of the current operation's delta.
    pub fn uncounted<R>(&self, f: impl FnOnce() -> R) -> R {
        let before = Registry::global().snapshot();
        let out = f();
        let delta = Registry::global().snapshot().delta(&before);
        self.excluded
            .lock()
            .expect("tracer lock poisoned")
            .add(&delta);
        out
    }

    /// Registry deltas summed over every traced operation, without
    /// those of [`Tracer::uncounted`] calls.
    pub fn counts(&self) -> Snapshot {
        self.counts.lock().expect("tracer lock poisoned").clone()
    }
}

/// Nanoseconds since `start`.
pub fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_accumulates() {
        let off = Tracer::off();
        off.time("x", || ());
        assert_eq!(off.calls("x"), 0);
        assert!(off.begin_op().is_none());

        let on = Tracer::new(Arc::new(IoStats::default()));
        on.record("x", 10);
        on.record("x", 30);
        assert_eq!(on.mean_ns("x"), Some(20.0));
        on.set_active(false);
        on.record("x", 1000);
        assert_eq!(on.calls("x"), 2, "inactive calls are not recorded");
        on.set_active(true);
        on.time_io("y", "y.self", || ());
        assert_eq!((on.calls("y"), on.calls("y.self")), (1, 1));
    }
}
