//! Fault-tolerant background maintenance: supervised compaction with an
//! index rebuild, committed as one snapshot, with retry/backoff.
//!
//! PR 9 left the store's two maintenance duties — folding the WAL delta
//! chain ([`DurableStore::compact`]) and refreshing the stale stored
//! index — as blocking manual calls that abort on the first I/O error.
//! This module turns them into a supervised loop:
//!
//! * a [`Supervisor`] watches the committed chain through
//!   [`DurableStore::pending_deltas`] / `pending_delta_bytes` and fires
//!   maintenance when either crosses its [`SupervisorConfig`] threshold,
//!   or, once, when it has a rebuilder and the head still holds an index
//!   root in the `f64` leaf layout (tag 11), so that later opens attach
//!   the compact tree in place instead of converting the old one;
//! * every maintenance step runs through a [`RetryPolicy`]: failures
//!   are classified ([`classify`]) as *transient* (retry after a
//!   bounded, seeded-jitter exponential backoff) or *permanent*
//!   (give up immediately — e.g. [`STORAGE_FULL_MARKER`] errors);
//! * time flows through a [`Clock`], so tests drive whole schedules
//!   with virtual time — no real sleeps;
//! * exhausted retries degrade to **manual mode** (`maint.gave_up`):
//!   the supervisor stops attempting until [`Supervisor::resume`],
//!   never panicking and never poisoning the store. Every attempt is
//!   commit-or-nothing — a failure leaves the committed chain exactly
//!   as it was (the shadow-write discipline of [`crate::durable`]),
//!   and pinned [`Generation`](crate::Generation) snapshots are immutable throughout.
//!
//! The index rebuild step is pluggable ([`Rebuilder`]): `mob-storage`
//! cannot see the relation layer, so `mob-rel` supplies a closure that
//! re-derives the stored R-tree from the compacted generation before it
//! is committed. Compaction and rebuild are one attempt and one
//! snapshot commit ([`DurableStore::compact_with`]), taken under the
//! store lock: no writer can advance the chain in between.

use crate::clock::Clock;
use crate::durable::{DurableStore, Rebuilder};
use crate::io::{StoreIo, STORAGE_FULL_MARKER};
use crate::store_file::RootRecord;
use mob_base::{DecodeError, DecodeResult};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

// ---------------------------------------------------------------------
// Error classification
// ---------------------------------------------------------------------

/// How the retry loop should treat a failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Worth retrying after a backoff: an I/O hiccup that a later
    /// attempt may not see.
    Transient,
    /// Retrying cannot help: storage full, or a structural/validation
    /// error — the same inputs will fail the same way.
    Permanent,
}

/// Classify a maintenance failure. I/O errors are presumed transient —
/// retrying them is the whole point — unless they carry the
/// [`STORAGE_FULL_MARKER`]; everything else (bad structure, checksum
/// mismatches, invariant violations) is deterministic on its inputs and
/// therefore permanent.
#[must_use]
pub fn classify(err: &DecodeError) -> FaultClass {
    match err {
        DecodeError::Io(msg) if msg.contains(STORAGE_FULL_MARKER) => FaultClass::Permanent,
        DecodeError::Io(_) => FaultClass::Transient,
        _ => FaultClass::Permanent,
    }
}

// ---------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------

/// Bounded exponential backoff with seeded, deterministic jitter.
///
/// The raw schedule doubles from [`RetryPolicy::base_delay`] and is
/// clamped to [`RetryPolicy::cap`]; jitter then shaves a seed-chosen
/// fraction (at most ~25%) off each delay so concurrent retriers
/// de-synchronize, while the same `(seed, attempt)` pair always yields
/// the same duration — campaigns replay byte-identically.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempt budget (first try included), at least 1.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Ceiling for any single delay (pre-jitter).
    pub cap: Duration,
    /// Seed driving the jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The un-jittered schedule: `min(cap, base_delay * 2^(attempt-1))`
    /// for `attempt >= 1` (monotone non-decreasing, bounded by the
    /// cap). `attempt` counts the failure being backed off from.
    #[must_use]
    pub fn raw_backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(31);
        self.base_delay
            .checked_mul(1u32 << exp)
            .map_or(self.cap, |d| d.min(self.cap))
    }

    /// The jittered delay actually slept after failed `attempt`:
    /// [`RetryPolicy::raw_backoff`] minus a deterministic seed-chosen
    /// shave of at most 255/1024 (~25%). Never exceeds the cap.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let raw = self.raw_backoff(attempt);
        let r = crate::checksum::checksum64_seeded(&u64::from(attempt).to_le_bytes(), self.seed);
        let frac = u128::from(r & 0xff);
        let shave = raw.as_nanos().saturating_mul(frac) / 1024;
        raw.saturating_sub(Duration::from_nanos(u64::try_from(shave).unwrap_or(0)))
    }

    /// Drive `op` to success or exhaustion: transient failures back off
    /// through `clock` (recording `maint.retries`), permanent failures
    /// give up immediately, and no more than
    /// [`RetryPolicy::max_attempts`] attempts are ever made.
    pub fn run<T>(
        &self,
        clock: &dyn Clock,
        mut op: impl FnMut() -> DecodeResult<T>,
    ) -> RetryOutcome<T> {
        let budget = self.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match op() {
                Ok(value) => {
                    return RetryOutcome::Ok {
                        value,
                        retries: attempt - 1,
                    }
                }
                Err(error) => {
                    let class = classify(&error);
                    if class == FaultClass::Permanent || attempt >= budget {
                        return RetryOutcome::GaveUp {
                            error,
                            class,
                            attempts: attempt,
                        };
                    }
                    mob_obs::metric!("maint.retries").add(1);
                    clock.sleep(self.backoff(attempt));
                }
            }
        }
    }
}

/// What a retried operation came to.
#[derive(Debug)]
pub enum RetryOutcome<T> {
    /// `op` succeeded, after this many *retried* (failed-then-slept)
    /// attempts.
    Ok {
        /// The operation's result.
        value: T,
        /// Failed attempts that preceded the success.
        retries: u32,
    },
    /// The budget is spent or the failure was permanent.
    GaveUp {
        /// The last error observed.
        error: DecodeError,
        /// How that error was classified.
        class: FaultClass,
        /// Attempts actually made (≤ `max_attempts`).
        attempts: u32,
    },
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

/// When the supervisor acts.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Compact once this many delta commits sit on the chain.
    pub delta_threshold: u64,
    /// … or once the pending chain reaches this many encoded bytes.
    pub delta_bytes_threshold: u64,
    /// Retry discipline for every maintenance step.
    pub policy: RetryPolicy,
    /// Background-thread cadence between idle checks.
    pub poll_interval: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            delta_threshold: 8,
            delta_bytes_threshold: 1 << 20,
            policy: RetryPolicy::default(),
            poll_interval: Duration::from_millis(20),
        }
    }
}

/// One snapshot of the supervisor's counters and mode, cheap to clone
/// out for assertions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MaintStatus {
    /// `true` after a give-up: no further automatic maintenance until
    /// [`Supervisor::resume`].
    pub manual: bool,
    /// Successful supervised compactions.
    pub compactions: u64,
    /// Successful supervised compactions that committed the rebuilder's
    /// file.
    pub rebuilds: u64,
    /// Failed-then-retried attempts across all steps.
    pub retries: u64,
    /// Give-up events (transitions to manual mode).
    pub gave_up: u64,
    /// The error that caused the most recent give-up, rendered.
    pub last_error: Option<String>,
}

/// What one [`Supervisor::run_once`] tick did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaintTick {
    /// Below thresholds, or in manual mode: nothing attempted.
    Idle,
    /// Compaction (and possibly an index rebuild) committed as one
    /// snapshot.
    Compacted {
        /// Generation the maintenance commit wrote.
        generation: u64,
        /// `Some(generation)` when that snapshot holds the rebuilder's
        /// file, `None` when it holds the compacted data alone.
        rebuilt: Option<u64>,
        /// Failed-then-retried attempts before the commit landed.
        retries: u32,
    },
    /// Retries exhausted (or a permanent fault): now in manual mode.
    /// The chain is left as it was, unfolded: compaction and the index
    /// rebuild are one attempt, so a rebuilder that keeps failing also
    /// blocks compaction until an operator runs
    /// [`DurableStore::compact`] or [`Supervisor::resume`].
    GaveUp {
        /// Rendered error that ended the campaign.
        error: String,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

/// Supervised background maintenance over a shared [`DurableStore`].
///
/// The store lives behind `Arc<Mutex<…>>` so a writer thread keeps
/// committing while the supervisor waits out a backoff: the lock is
/// held only for the duration of one maintenance attempt, never across
/// a sleep.
pub struct Supervisor<I: StoreIo> {
    store: Arc<Mutex<DurableStore<I>>>,
    config: SupervisorConfig,
    clock: Arc<dyn Clock>,
    rebuilder: Option<Rebuilder>,
    status: Arc<Mutex<MaintStatus>>,
    /// Set once the head's index roots no longer call for a rewrite of
    /// the `f64` leaf layout: none was found, or a tick already ran for
    /// one. Only old files hold that layout, so it is looked for until
    /// the first tick.
    layout_settled: AtomicBool,
}

impl<I: StoreIo> Supervisor<I> {
    /// Supervise `store` under `config`, telling time through `clock`.
    #[must_use]
    pub fn new(
        store: Arc<Mutex<DurableStore<I>>>,
        config: SupervisorConfig,
        clock: Arc<dyn Clock>,
    ) -> Supervisor<I> {
        Supervisor {
            store,
            config,
            clock,
            rebuilder: None,
            status: Arc::new(Mutex::new(MaintStatus::default())),
            layout_settled: AtomicBool::new(false),
        }
    }

    /// Attach an index rebuild step to every compaction (see
    /// [`Rebuilder`]).
    #[must_use]
    pub fn with_rebuilder(mut self, rebuilder: Rebuilder) -> Supervisor<I> {
        self.rebuilder = Some(rebuilder);
        self
    }

    /// The shared store handle (for writers and readers).
    #[must_use]
    pub fn store(&self) -> Arc<Mutex<DurableStore<I>>> {
        Arc::clone(&self.store)
    }

    /// Current counters and mode.
    #[must_use]
    pub fn status(&self) -> MaintStatus {
        self.with_status(|s| s.clone())
    }

    /// Leave manual mode: the next tick checks thresholds again.
    pub fn resume(&self) {
        self.with_status(|s| s.manual = false);
    }

    fn with_status<R>(&self, f: impl FnOnce(&mut MaintStatus) -> R) -> R {
        match self.status.lock() {
            Ok(mut g) => f(&mut g),
            Err(p) => f(&mut p.into_inner()),
        }
    }

    fn lock_store(&self) -> MutexGuard<'_, DurableStore<I>> {
        match self.store.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Whether either chain threshold is crossed, or a rebuild would
    /// rewrite an index root of the `f64` leaf layout (tag 11) that no
    /// tick has tried to rewrite yet.
    #[must_use]
    pub fn due(&self) -> bool {
        let store = self.lock_store();
        store.pending_deltas() >= self.config.delta_threshold
            || store.pending_delta_bytes() >= self.config.delta_bytes_threshold
            || self.layout_due(&store)
    }

    /// Whether the head holds a tag-11 index root and a rebuilder could
    /// rewrite it, looked for until it is found or a tick has run. The
    /// flag pairs only with itself (`Release` store, `Acquire` load).
    fn layout_due(&self, store: &DurableStore<I>) -> bool {
        if self.rebuilder.is_none() || self.layout_settled.load(Ordering::Acquire) {
            return false;
        }
        let found = store.snapshot().is_ok_and(|head| {
            (head.entries().iter())
                .any(|(_, root)| matches!(root, RootRecord::Index(ix) if ix.frame.is_none()))
        });
        if !found {
            self.layout_settled.store(true, Ordering::Release);
        }
        found
    }

    /// One synchronous maintenance tick: check thresholds, then run one
    /// maintenance commit ([`DurableStore::compact_with`]: compaction
    /// and, when configured, the index rebuild, committed as one
    /// snapshot) through the retry policy. Each attempt holds the store
    /// lock from the rewrite to the commit, so no writer slips in between
    /// and a busy writer cannot starve it; a failed attempt, the
    /// rebuilder's included, leaves the chain as it was. Deterministic
    /// under a [`crate::clock::VirtualClock`] — this is the engine the
    /// background thread loops over, exposed so tests can single-step it.
    pub fn run_once(&self) -> MaintTick {
        if self.with_status(|s| s.manual) || !self.due() {
            return MaintTick::Idle;
        }
        // This tick runs the rebuild: a tag-11 root it leaves in place
        // is not the rebuilder's to rewrite.
        self.layout_settled.store(true, Ordering::Release);
        let outcome = self.config.policy.run(self.clock.as_ref(), || {
            self.lock_store().compact_with(self.rebuilder.as_ref())
        });
        let ((generation, indexed), retries) = match outcome {
            RetryOutcome::Ok { value, retries } => (value, retries),
            RetryOutcome::GaveUp {
                error, attempts, ..
            } => return self.give_up(&error, attempts),
        };
        self.with_status(|s| {
            s.compactions += 1;
            s.rebuilds += u64::from(indexed);
            s.retries += u64::from(retries);
        });
        mob_obs::metric!("maint.compactions").add(1);
        if indexed {
            mob_obs::metric!("maint.rebuilds").add(1);
        }
        MaintTick::Compacted {
            generation,
            rebuilt: indexed.then_some(generation),
            retries,
        }
    }

    /// Enter manual mode. Nothing was committed: a failing rebuilder
    /// leaves the delta chain unfolded as well (see [`MaintTick::GaveUp`]).
    fn give_up(&self, error: &DecodeError, attempts: u32) -> MaintTick {
        let rendered = error.to_string();
        self.with_status(|s| {
            s.manual = true;
            s.gave_up += 1;
            s.last_error = Some(rendered.clone());
        });
        mob_obs::metric!("maint.gave_up").add(1);
        MaintTick::GaveUp {
            error: rendered,
            attempts,
        }
    }

    /// Move the supervisor onto a dedicated maintenance thread looping
    /// [`Supervisor::run_once`] at the configured poll cadence. The
    /// returned handle stops (and joins) the thread on
    /// [`SupervisorHandle::stop`] or drop; counters remain readable
    /// through [`SupervisorHandle::status`] while it runs.
    #[must_use]
    pub fn spawn(self) -> SupervisorHandle
    where
        I: Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let status = Arc::clone(&self.status);
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Acquire) {
                if matches!(self.run_once(), MaintTick::Idle) {
                    self.clock.sleep(self.config.poll_interval);
                }
            }
        });
        SupervisorHandle {
            stop,
            status,
            thread: Some(thread),
        }
    }
}

/// Owner handle for a spawned maintenance thread.
pub struct SupervisorHandle {
    stop: Arc<AtomicBool>,
    status: Arc<Mutex<MaintStatus>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SupervisorHandle {
    /// Counters and mode of the running supervisor.
    #[must_use]
    pub fn status(&self) -> MaintStatus {
        match self.status.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }

    /// Signal the maintenance thread to stop and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            // A maintenance thread that panicked already recorded its
            // own failure; joining is best-effort cleanup.
            let _ = t.join();
        }
    }
}

impl Drop for SupervisorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::durable::snapshot_name;
    use crate::generation::Generation;
    use crate::index_store::save_index;
    use crate::io::{FaultyIo, MemIo};
    use crate::store_file::{RootRecord, StoreFile};
    use crate::view::{open_mpoint, Verify};
    use mob_base::t;
    use mob_core::{run_cubes, MovingPoint, RTree};
    use mob_spatial::pt;

    fn policy(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            cap: Duration::from_millis(60),
            seed,
        }
    }

    #[test]
    fn classification_splits_io_from_structure() {
        assert_eq!(
            classify(&DecodeError::Io("read x: connection reset".into())),
            FaultClass::Transient
        );
        assert_eq!(
            classify(&DecodeError::Io(format!("write y: {STORAGE_FULL_MARKER}"))),
            FaultClass::Permanent
        );
        assert_eq!(
            classify(&DecodeError::BadStructure {
                what: "x",
                detail: "y".into()
            }),
            FaultClass::Permanent
        );
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_capped() {
        let p = policy(99);
        for attempt in 1..10 {
            assert_eq!(p.backoff(attempt), p.backoff(attempt), "deterministic");
            assert!(p.backoff(attempt) <= p.cap);
            assert!(p.raw_backoff(attempt) <= p.raw_backoff(attempt + 1));
            // Jitter shaves at most ~25%.
            let raw = p.raw_backoff(attempt);
            assert!(p.backoff(attempt) >= raw - raw / 4, "attempt {attempt}");
        }
    }

    #[test]
    fn retry_run_recovers_after_transient_failures() {
        let clock = VirtualClock::new();
        let mut left = 2;
        let out = policy(1).run(&clock, || {
            if left > 0 {
                left -= 1;
                Err(DecodeError::Io("flaky".into()))
            } else {
                Ok(42)
            }
        });
        match out {
            RetryOutcome::Ok { value, retries } => {
                assert_eq!(value, 42);
                assert_eq!(retries, 2);
            }
            RetryOutcome::GaveUp { error, .. } => panic!("gave up: {error}"),
        }
        // Two backoffs were slept, in schedule order, in virtual time.
        assert_eq!(
            clock.slept(),
            vec![policy(1).backoff(1), policy(1).backoff(2)]
        );
    }

    #[test]
    fn permanent_failures_give_up_without_sleeping() {
        let clock = VirtualClock::new();
        let out: RetryOutcome<()> = policy(1).run(&clock, || {
            Err(DecodeError::Io(format!("write f: {STORAGE_FULL_MARKER}")))
        });
        match out {
            RetryOutcome::GaveUp {
                class, attempts, ..
            } => {
                assert_eq!(class, FaultClass::Permanent);
                assert_eq!(attempts, 1);
            }
            RetryOutcome::Ok { .. } => panic!("cannot succeed"),
        }
        assert!(clock.slept().is_empty());
    }

    fn shared_store_with_deltas<I: StoreIo>(io: I, ticks: u64) -> Arc<Mutex<DurableStore<I>>> {
        let mut store = DurableStore::options().open(io).expect("open");
        for k in 0..ticks {
            let t0 = k as f64 * 2.0;
            let samples = vec![(t(t0), pt(t0, 0.0)), (t(t0 + 1.0), pt(t0 + 1.0, 1.0))];
            let units = MovingPoint::from_samples(&samples).units().to_vec();
            let mut txn = store.begin();
            txn.append_units(&format!("obj{k}"), &units);
            txn.commit().expect("delta commit");
        }
        Arc::new(Mutex::new(store))
    }

    #[test]
    fn run_once_is_idle_below_threshold_and_compacts_above() {
        let clock = Arc::new(VirtualClock::new());
        let store = shared_store_with_deltas(
            FaultyIo::new(
                MemIo::new(),
                u64::MAX,
                crate::io::FaultMask::KeepUnsynced,
                0,
            ),
            2,
        );
        let config = SupervisorConfig {
            delta_threshold: 3,
            delta_bytes_threshold: u64::MAX,
            policy: policy(5),
            poll_interval: Duration::from_millis(1),
        };
        let sup = Supervisor::new(Arc::clone(&store), config, clock.clone());
        assert_eq!(sup.run_once(), MaintTick::Idle);

        // Cross the threshold with one more delta.
        {
            let mut s = match store.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            let units =
                MovingPoint::from_samples(&[(t(100.0), pt(0.0, 0.0)), (t(101.0), pt(1.0, 1.0))])
                    .units()
                    .to_vec();
            let mut txn = s.begin();
            txn.append_units("late", &units);
            txn.commit().expect("delta");
        }
        match sup.run_once() {
            MaintTick::Compacted {
                generation,
                rebuilt,
                retries,
            } => {
                assert_eq!(generation, 4);
                assert_eq!(rebuilt, None);
                assert_eq!(retries, 0);
            }
            other => panic!("expected compaction, got {other:?}"),
        }
        assert_eq!(sup.run_once(), MaintTick::Idle, "counters reset");
        let st = sup.status();
        assert_eq!((st.compactions, st.gave_up, st.manual), (1, 0, false));
    }

    #[test]
    fn transient_faults_retry_then_succeed() {
        let clock = Arc::new(VirtualClock::new());
        // Stage three deltas on a clean disk, then reopen it through a
        // transient injector: every (file, op) fails once first — well
        // within the 4-attempt budget, compaction must come through.
        let disk = MemIo::new();
        {
            let probe = FaultyIo::new(
                disk.clone(),
                u64::MAX,
                crate::io::FaultMask::KeepUnsynced,
                0,
            );
            let _ = shared_store_with_deltas(probe, 3);
        }
        let io = FaultyIo::transient(disk, 1, 7);
        let store = Arc::new(Mutex::new(
            DurableStore::options().open(io).expect("reopen"),
        ));
        let config = SupervisorConfig {
            delta_threshold: 1,
            delta_bytes_threshold: u64::MAX,
            policy: policy(7),
            poll_interval: Duration::from_millis(1),
        };
        let sup = Supervisor::new(store, config, clock.clone());
        match sup.run_once() {
            MaintTick::Compacted { retries, .. } => assert!(retries >= 1),
            other => panic!("expected retried compaction, got {other:?}"),
        }
        assert!(!clock.slept().is_empty(), "backoff ran in virtual time");
        assert!(sup.status().retries >= 1);
    }

    #[test]
    fn storage_full_gives_up_to_manual_mode_and_resume_rearms() {
        let clock = Arc::new(VirtualClock::new());
        let probe = FaultyIo::new(
            MemIo::new(),
            u64::MAX,
            crate::io::FaultMask::KeepUnsynced,
            0,
        );
        let store = shared_store_with_deltas(probe, 3);
        let spent = {
            let s = match store.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            s.io().write_units()
        };
        drop(store);
        // Re-run the same workload on a disk that fills up right after
        // the deltas land: compaction cannot fit its snapshot.
        let io = FaultyIo::storage_full(MemIo::new(), spent + 8, 3);
        let store = shared_store_with_deltas(io, 3);
        let config = SupervisorConfig {
            delta_threshold: 1,
            delta_bytes_threshold: u64::MAX,
            policy: policy(3),
            poll_interval: Duration::from_millis(1),
        };
        let sup = Supervisor::new(Arc::clone(&store), config, clock.clone());
        match sup.run_once() {
            MaintTick::GaveUp { error, attempts } => {
                assert!(error.contains(STORAGE_FULL_MARKER), "{error}");
                assert_eq!(attempts, 1, "permanent: no retries");
            }
            other => panic!("expected give-up, got {other:?}"),
        }
        let st = sup.status();
        assert!(st.manual && st.gave_up == 1);
        // Manual mode holds until resume…
        assert_eq!(sup.run_once(), MaintTick::Idle);
        sup.resume();
        assert!(!sup.status().manual);
        // …and the chain is still intact for readers.
        let s = match store.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        assert!(s.snapshot().is_ok());
        assert_eq!(s.generation(), 3, "failed maintenance left the chain");
    }

    const INDEX: &str = "objs/index";

    fn lock<I: StoreIo>(store: &Mutex<DurableStore<I>>) -> MutexGuard<'_, DurableStore<I>> {
        store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A rebuilder over every `moving(point)` root: the compacted data
    /// plus a run-packed tree under [`INDEX`], as `mob-rel` builds it.
    fn index_all(g: &Generation) -> DecodeResult<Option<StoreFile>> {
        let mut entries = Vec::new();
        let mut tuples = 0u32;
        for (_, root) in g.entries() {
            if let RootRecord::MPoint(m) = root {
                entries.extend(run_cubes(tuples, &open_mpoint(m, g.store(), Verify::Full)?));
                tuples += 1;
            }
        }
        if tuples == 0 {
            return Ok(None);
        }
        let mut file = g.to_store_file();
        let stored = save_index(&RTree::bulk(tuples as usize, entries), file.store_mut());
        file.set(INDEX, RootRecord::Index(stored));
        Ok(Some(file))
    }

    fn config(policy: RetryPolicy) -> SupervisorConfig {
        SupervisorConfig {
            delta_threshold: 3,
            delta_bytes_threshold: u64::MAX,
            policy,
            poll_interval: Duration::from_millis(1),
        }
    }

    fn snapshots(dir: &MemIo) -> Vec<String> {
        let mut names = dir.list().unwrap_or_default();
        names.retain(|n| n.starts_with("snap-") || n.starts_with("tmp-"));
        names
    }

    #[test]
    fn one_cycle_commits_one_indexed_snapshot() {
        let dir = MemIo::new();
        let store = shared_store_with_deltas(dir.clone(), 3);
        assert!(snapshots(&dir).is_empty(), "a chain of deltas only");
        let sup = Supervisor::new(
            Arc::clone(&store),
            config(policy(11)),
            Arc::new(VirtualClock::new()),
        )
        .with_rebuilder(Arc::new(index_all));
        assert_eq!(
            sup.run_once(),
            MaintTick::Compacted {
                generation: 4,
                rebuilt: Some(4),
                retries: 0
            }
        );
        assert_eq!(snapshots(&dir), [snapshot_name(4)], "one snapshot file");
        assert!(dir.list().unwrap_or_default().len() == 1, "deltas pruned");
        let s = lock(&store);
        assert_eq!((s.generation(), s.pending_deltas()), (4, 0));
        let head = s.snapshot().unwrap_or_else(|e| panic!("{e}"));
        assert!(matches!(head.get(INDEX), Some(RootRecord::Index(_))));
        let st = sup.status();
        assert_eq!((st.compactions, st.rebuilds, st.gave_up), (1, 1, 0));
    }

    #[test]
    fn a_rebuilder_returning_none_commits_the_compacted_image() {
        let dir = MemIo::new();
        let store = shared_store_with_deltas(dir.clone(), 3);
        let compacted = {
            let s = lock(&store);
            let head = s.snapshot().unwrap_or_else(|e| panic!("{e}"));
            head.rebuild_store_file().and_then(|f| f.to_bytes())
        };
        let sup = Supervisor::new(
            Arc::clone(&store),
            config(policy(12)),
            Arc::new(VirtualClock::new()),
        )
        .with_rebuilder(Arc::new(|_: &Generation| Ok(None)));
        assert_eq!(
            sup.run_once(),
            MaintTick::Compacted {
                generation: 4,
                rebuilt: None,
                retries: 0
            }
        );
        assert_eq!(snapshots(&dir), [snapshot_name(4)]);
        let head = lock(&store).snapshot().unwrap_or_else(|e| panic!("{e}"));
        assert!(
            head.get(INDEX).is_none(),
            "no index without the rebuilder's file"
        );
        assert_eq!(head.to_store_file().to_bytes().ok(), compacted.ok());
        let st = sup.status();
        assert_eq!((st.compactions, st.rebuilds), (1, 0));
    }

    #[test]
    fn a_rebuilder_that_always_fails_gives_up_and_leaves_the_chain() {
        let dir = MemIo::new();
        let store = shared_store_with_deltas(dir.clone(), 3);
        let before = dir.dump();
        let clock = Arc::new(VirtualClock::new());
        let sup = Supervisor::new(Arc::clone(&store), config(policy(13)), clock.clone())
            .with_rebuilder(Arc::new(|_: &Generation| {
                Err(DecodeError::Io("rebuild: index scratch unavailable".into()))
            }));
        match sup.run_once() {
            MaintTick::GaveUp { error, attempts } => {
                assert!(error.contains("index scratch"), "{error}");
                assert_eq!(attempts, 4, "retried like an I/O fault");
            }
            other => panic!("expected give-up, got {other:?}"),
        }
        assert_eq!(clock.slept().len(), 3, "a backoff between attempts");
        let st = sup.status();
        assert!(st.manual && st.gave_up == 1 && st.compactions == 0);
        // The failing rebuilder blocks compaction too: no fold landed,
        // so the chain stays unfolded until someone runs `compact()`.
        assert_eq!(dir.dump(), before, "the committed chain is untouched");
        let s = lock(&store);
        assert_eq!((s.generation(), s.pending_deltas()), (3, 3));
    }
}
