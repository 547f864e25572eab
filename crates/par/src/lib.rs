//! # `mob-par` — a scoped worker pool (std + `mob-obs` only)
//!
//! The paper's motivating queries are *set-at-a-time* ("where were all
//! taxis at 8:00?", Sec 2): the natural unit of execution is the
//! relation scan, not the single tuple. This crate supplies the one
//! piece of machinery that makes those scans parallel without adding
//! any external dependency or any `unsafe`:
//!
//! * [`Pool`] — a scoped worker pool over [`std::thread::scope`],
//!   honoring the `MOB_THREADS` environment variable;
//! * [`Pool::chunked_map`] — the one dispatch: split a slice into
//!   contiguous chunks, claim chunks off an atomic cursor, stop claiming
//!   once a [`CancelToken`] fires, and reassemble the results **in
//!   input order** ([`Cancellable::Done`]) or report how many items were
//!   mapped before the stop ([`Cancellable::Cancelled`]).
//!
//! Every width runs the same claim loop: at one worker it runs on the
//! caller's thread and nothing is spawned; above one, each scoped
//! worker runs it.
//!
//! # Determinism guarantee
//!
//! When it completes, `chunked_map(items, token, f)` returns exactly
//! `items.iter().map(f).collect()` — element `i` of the output is
//! `f(&items[i])`, for every thread count. Chunks are contiguous and
//! results are stitched back together by chunk index, so scheduling
//! order never leaks into the output. The parallel relation operators
//! in `mob-rel` (and the determinism proptests behind them) rely on
//! this.
//!
//! # Observability
//!
//! The pool reports into `mob-obs`: `par.items` counts the items
//! dispatched, `par.chunks` the chunks claimed and `par.panics` the
//! contained worker panics. A dispatch above one worker is timed under
//! a `par.chunked_map` span, and every worker drains its thread-local
//! span shard when its claim loop ends. The coordinator merges the
//! shards **in worker-index order** ([`mob_obs::merge_shards`]) and
//! replays them on its own thread ([`mob_obs::record_stats`]), so span
//! *counts* aggregated from the workers are as deterministic as the
//! results — only wall times (and the `par.*` scheduling metrics
//! themselves) vary run to run. At one worker no span is opened and
//! nothing is drained: spans stay on the caller's shard, exactly as if
//! the kernel had been called directly.
//!
//! # Panic containment
//!
//! A panicking per-item closure does **not** bring the process (or the
//! sibling workers) down: every chunk runs under
//! [`std::panic::catch_unwind`] and the remaining chunks still run.
//! The call then panics once, on the *caller's* thread, with
//! `worker closure panicked in chunk {k}: {message}` naming the lowest
//! panicking chunk — deterministic for every thread count, and never a
//! cross-thread join abort. Panics take precedence over cancellation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A cooperative cancellation signal checked at **chunk boundaries**:
/// workers consult the token before claiming each chunk, never
/// mid-chunk, so a cancelled dispatch still finishes the chunks already
/// in flight and stops claiming new ones. Clones share the underlying
/// predicate.
///
/// The token is just a predicate — the pool has no notion of time.
/// Deadline-bounded scans in `mob-rel` build one over the storage
/// clock (`CancelToken::new(move || clock.now() >= deadline)`), so a
/// virtual clock cancels deterministically in tests.
#[derive(Clone)]
pub struct CancelToken {
    check: std::sync::Arc<dyn Fn() -> bool + Send + Sync>,
}

impl CancelToken {
    /// A token driven by an arbitrary predicate: `check` returns `true`
    /// once the dispatch should stop claiming chunks.
    pub fn new(check: impl Fn() -> bool + Send + Sync + 'static) -> CancelToken {
        CancelToken {
            check: std::sync::Arc::new(check),
        }
    }

    /// A token that never cancels (the infallible fast path).
    #[must_use]
    pub fn never() -> CancelToken {
        CancelToken::new(|| false)
    }

    /// Has the token fired? Workers call this before each chunk claim.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        (self.check)()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// The outcome of a cancellable dispatch: either every item was mapped,
/// or the token fired first and the pool stopped at a chunk boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cancellable<V> {
    /// The token never fired; the full result is here.
    Done(V),
    /// The token fired before every chunk was claimed. Partial results
    /// are discarded; `items_done` reports how many items were actually
    /// mapped before the pool stopped, for honest progress accounting.
    Cancelled {
        /// Number of input items whose chunks completed before the
        /// cancellation took effect.
        items_done: usize,
    },
}

/// Stringify a caught panic payload (`&str` and `String` payloads keep
/// their text; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Environment variable overriding the worker count (`0` or unset ⇒
/// auto-detect from [`std::thread::available_parallelism`]).
pub const THREADS_ENV: &str = "MOB_THREADS";

/// The worker count [`Pool::new`] uses: `MOB_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism
/// (at least 1).
pub fn default_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => detected_threads(),
        },
        Err(_) => detected_threads(),
    }
}

fn detected_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A scoped worker pool: `threads` workers created per call via
/// [`std::thread::scope`] (no long-lived threads, no channels, no
/// `unsafe`), with dynamic chunk scheduling and deterministic result
/// ordering.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool honoring `MOB_THREADS` (see [`default_threads`]).
    pub fn new() -> Pool {
        Pool::with_threads(default_threads())
    }

    /// A pool with an explicit worker count (clamped to ≥ 1). One
    /// thread means strictly sequential execution on the caller's
    /// thread — no worker is ever spawned.
    pub fn with_threads(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items`, preserving input order in the result (see
    /// the crate-level determinism guarantee) — the pool's one dispatch.
    ///
    /// The slice is split into contiguous chunks, about four per
    /// worker, claimed off an atomic cursor; `cancel` is consulted
    /// before every claim. Once it fires no new chunk starts, chunks
    /// already running finish, and the call returns
    /// [`Cancellable::Cancelled`]`{ items_done }` with the number of
    /// items mapped. A token that never fires always yields
    /// [`Cancellable::Done`].
    ///
    /// # Panics
    ///
    /// When `f` panics: every chunk is still attempted, then the call
    /// panics on the caller's thread naming the lowest panicking chunk
    /// (see the crate-level panic containment).
    pub fn chunked_map<T, R, F>(
        &self,
        items: &[T],
        cancel: &CancelToken,
        f: F,
    ) -> Cancellable<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        mob_obs::metric!("par.items").add(items.len() as u64);
        let workers = self.threads.min(items.len()).max(1);
        let size = chunk_size_for(items.len(), workers);
        let n_chunks = items.len().div_ceil(size);
        let cursor = AtomicUsize::new(0);
        let claim = || claim_loop(items, size, &cursor, cancel, &f);
        let runs: Vec<Claimed<R>> = if workers == 1 {
            // Spans land on the caller's own shard: do not drain it,
            // the caller (or an outer EXPLAIN capture) owns it.
            vec![claim()]
        } else {
            let _span = mob_obs::span("par.chunked_map");
            let obs = mob_obs::enabled();
            let (runs, shards): (Vec<_>, Vec<_>) = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let run = claim();
                            let shard = if obs {
                                mob_obs::take_thread_shard()
                            } else {
                                Vec::new()
                            };
                            (run, shard)
                        })
                    })
                    .collect();
                // Joined in spawn order: the shards merge in
                // worker-index order. The claim loop contains closure
                // panics, so a failed join is the pool's own bug.
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                    .unzip()
            });
            if obs {
                mob_obs::record_stats(&mob_obs::merge_shards(shards));
            }
            runs
        };
        let mut parts = Vec::with_capacity(n_chunks);
        let mut panics = Vec::new();
        for run in runs {
            parts.extend(run.mapped);
            panics.extend(run.panicked);
        }
        mob_obs::metric!("par.chunks").add((parts.len() + panics.len()) as u64);
        if let Some((k, message)) = panics.iter().min_by_key(|(k, _)| *k) {
            mob_obs::metric!("par.panics").add(panics.len() as u64);
            panic!("worker closure panicked in chunk {k}: {message}");
        }
        // No chunk panicked, so a shortfall can only mean the token
        // stopped the claim loops early.
        if parts.len() < n_chunks {
            let items_done = parts.iter().map(|(_, part)| part.len()).sum();
            return Cancellable::Cancelled { items_done };
        }
        parts.sort_unstable_by_key(|(k, _)| *k);
        let mut out = Vec::with_capacity(items.len());
        for (_, mut part) in parts {
            out.append(&mut part);
        }
        Cancellable::Done(out)
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

/// What one claim loop did: the chunks it mapped and the chunks whose
/// closure panicked (with the stringified payload), each tagged with
/// its chunk index.
struct Claimed<R> {
    mapped: Vec<(usize, Vec<R>)>,
    panicked: Vec<(usize, String)>,
}

/// The claim loop every worker runs — the caller's thread at one
/// worker: consult the token, claim the next chunk off `cursor`, map it
/// under `catch_unwind`, repeat until the chunks run out or the token
/// fires. A chunk already claimed always finishes.
fn claim_loop<T, R>(
    items: &[T],
    size: usize,
    cursor: &AtomicUsize,
    cancel: &CancelToken,
    f: &impl Fn(&T) -> R,
) -> Claimed<R> {
    let mut run = Claimed {
        mapped: Vec::new(),
        panicked: Vec::new(),
    };
    while !cancel.is_cancelled() {
        // AcqRel: the Release half publishes this worker's claim before
        // it touches chunk k; the Acquire half pairs with the other
        // workers' claims so no two workers ever observe the same k.
        let k = cursor.fetch_add(1, Ordering::AcqRel);
        let Some(chunk) = items.chunks(size).nth(k) else {
            break;
        };
        match catch_unwind(AssertUnwindSafe(|| chunk.iter().map(f).collect::<Vec<R>>())) {
            Ok(part) => run.mapped.push((k, part)),
            Err(payload) => run.panicked.push((k, panic_message(payload.as_ref()))),
        }
    }
    run
}

/// Contiguous chunk size: aim for ~4 chunks per worker, at least 1
/// element each.
fn chunk_size_for(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.saturating_mul(4).max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Arc;

    /// Dispatch with a token that never fires.
    fn map<T: Sync, R: Send>(pool: Pool, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        match pool.chunked_map(items, &CancelToken::never(), f) {
            Cancellable::Done(out) => out,
            Cancellable::Cancelled { items_done } => {
                panic!("a never token cancelled after {items_done} items")
            }
        }
    }

    /// Run `dispatch`, which must panic, and return the panic message.
    fn panic_of(dispatch: impl FnOnce()) -> String {
        match catch_unwind(AssertUnwindSafe(dispatch)) {
            Ok(()) => panic!("the dispatch did not panic"),
            Err(payload) => panic_message(payload.as_ref()),
        }
    }

    fn chunk_prefix(items: usize, threads: usize, item: usize) -> String {
        let cs = chunk_size_for(items, threads.min(items));
        format!("worker closure panicked in chunk {}: ", item / cs)
    }

    #[test]
    fn map_preserves_order_for_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1usize, 2, 3, 4, 7, 16, 1000, 2000] {
            let pool = Pool::with_threads(threads);
            assert_eq!(map(pool, &items, |x| x * 3 + 1), expect, "{threads}");
        }
    }

    #[test]
    fn map_handles_edge_sizes() {
        for threads in [1usize, 4] {
            let pool = Pool::with_threads(threads);
            assert!(map(pool, &[] as &[u32], |x| *x).is_empty());
            assert_eq!(map(pool, &[7u32], |x| x + 1), vec![8]);
            assert_eq!(map(pool, &[1u32, 2], |x| x * 10), vec![10, 20]);
        }
    }

    #[test]
    fn for_each_visits_every_item_once() {
        let items: Vec<u64> = (1..=500).collect();
        for threads in [1usize, 3, 8] {
            let sum = AtomicU64::new(0);
            map(Pool::with_threads(threads), &items, |x| {
                sum.fetch_add(*x, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 500 * 501 / 2, "{threads}");
        }
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
        assert_eq!(Pool::with_threads(5).threads(), 5);
        assert!(Pool::new().threads() >= 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn chunk_sizing_covers_the_slice() {
        for len in [1usize, 2, 7, 64, 1001] {
            for workers in [1usize, 2, 8] {
                let cs = chunk_size_for(len, workers);
                assert!(cs >= 1);
                assert!(cs * len.div_ceil(cs) >= len);
            }
        }
    }

    #[test]
    fn panicking_closure_is_contained_at_one_and_four_threads() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1usize, 4] {
            let pool = Pool::with_threads(threads);
            let msg = panic_of(|| {
                map(pool, &items, |&x| {
                    assert!(x != 37, "boom at {x}");
                    x * 2
                });
            });
            assert!(msg.starts_with(&chunk_prefix(100, threads, 37)), "{msg}");
            assert!(msg.contains("boom at 37"), "{threads}: {msg}");
            // The pool survives: the very next dispatch is clean.
            let ok = map(pool, &items, |&x| x + 1);
            assert_eq!(ok, (1..=100).collect::<Vec<u64>>(), "{threads} threads");
        }
    }

    #[test]
    fn lowest_panicking_chunk_wins_deterministically() {
        // Many panicking items: every chunk is attempted (remaining
        // work drains), so the reported chunk is the lowest failing one
        // for every thread count — and identical across repeats.
        let items: Vec<u64> = (0..200).collect();
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::with_threads(threads);
            for _ in 0..3 {
                let hits = AtomicU64::new(0);
                let msg = panic_of(|| {
                    map(pool, &items, |&x| {
                        hits.fetch_add(1, Ordering::Relaxed);
                        assert!(x % 10 != 3, "p{x}");
                        x
                    });
                });
                assert!(msg.starts_with(&chunk_prefix(200, threads, 3)), "{msg}");
                assert!(msg.contains("p3"), "{threads}: {msg}");
                // Work drained: every chunk ran, each up to and
                // including its first panicking item.
                let cs = chunk_size_for(200, threads);
                let expect: usize = items
                    .chunks(cs)
                    .map(|c| {
                        c.iter()
                            .position(|x| x % 10 == 3)
                            .map_or(c.len(), |p| p + 1)
                    })
                    .sum();
                let expect = expect as u64;
                assert_eq!(hits.load(Ordering::Relaxed), expect, "{threads}");
            }
        }
    }

    #[test]
    fn for_each_contains_panics_too() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1usize, 4] {
            let hits = AtomicU64::new(0);
            let msg = panic_of(|| {
                map(Pool::with_threads(threads), &items, |&x| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    assert!(x != 0, "first item explodes");
                });
            });
            assert!(msg.starts_with(&chunk_prefix(64, threads, 0)), "{msg}");
            // Work drained: everything before the panic in chunk 0 plus
            // all other chunks still ran.
            let cs = chunk_size_for(items.len(), threads.min(items.len())) as u64;
            assert_eq!(
                hits.load(Ordering::Relaxed),
                64 - cs + 1,
                "{threads} threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "worker closure panicked in chunk")]
    fn infallible_map_repanics_on_the_caller_thread() {
        let items: Vec<u64> = (0..32).collect();
        map(Pool::with_threads(4), &items, |&x| {
            assert!(x != 5, "contained");
            x
        });
    }

    #[test]
    fn never_token_completes_and_matches_plain_map() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1usize, 4] {
            let got =
                Pool::with_threads(threads).chunked_map(&items, &CancelToken::never(), |x| x * 2);
            let expect: Vec<u64> = items.iter().map(|x| x * 2).collect();
            assert_eq!(got, Cancellable::Done(expect), "{threads} threads");
        }
    }

    #[test]
    fn pre_fired_token_maps_nothing() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1usize, 4] {
            let calls = AtomicU64::new(0);
            let got =
                Pool::with_threads(threads).chunked_map(&items, &CancelToken::new(|| true), |x| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    *x
                });
            assert_eq!(got, Cancellable::Cancelled { items_done: 0 }, "{threads}");
            assert_eq!(calls.load(Ordering::Relaxed), 0, "{threads} threads");
        }
        // Nothing to claim: even a fired token completes an empty map.
        let empty =
            Pool::with_threads(1).chunked_map(&[] as &[u64], &CancelToken::new(|| true), |x| *x);
        assert_eq!(empty, Cancellable::Done(Vec::new()));
    }

    #[test]
    fn cancellation_stops_at_the_next_chunk_boundary() {
        // The closure trips the flag mid-chunk; the chunk in flight
        // still finishes, the next boundary check stops the dispatch.
        let items: Vec<u64> = (0..100).collect();
        let flag = Arc::new(AtomicBool::new(false));
        let token = {
            let flag = flag.clone();
            CancelToken::new(move || flag.load(Ordering::Acquire))
        };
        let trip_at = |at: u64| {
            let flag = flag.clone();
            move |&x: &u64| {
                if x == at {
                    flag.store(true, Ordering::Release);
                }
                x
            }
        };
        let got = Pool::with_threads(1).chunked_map(&items, &token, trip_at(37));
        // One worker over 100 items: chunk size 25. Item 37 sits in
        // chunk 1, which completes; chunk 2 is never claimed.
        assert_eq!(got, Cancellable::Cancelled { items_done: 50 });
        assert!(token.is_cancelled());

        // Multi-threaded: items_done is scheduling-dependent but always
        // honest — whole chunks only, never more than all.
        flag.store(false, Ordering::Release);
        match Pool::with_threads(4).chunked_map(&items, &token, trip_at(0)) {
            Cancellable::Done(out) => assert_eq!(out, items),
            Cancellable::Cancelled { items_done } => {
                let cs = chunk_size_for(100, 4);
                assert!(items_done < 100 && items_done % cs == 0, "{items_done}");
            }
        }
    }

    #[test]
    fn panics_take_precedence_over_cancellation() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1usize, 4] {
            // The token fires as the closure panics at item 3.
            let flag = Arc::new(AtomicBool::new(false));
            let token = {
                let flag = flag.clone();
                CancelToken::new(move || flag.load(Ordering::Acquire))
            };
            let msg = panic_of(|| {
                Pool::with_threads(threads).chunked_map(&items, &token, |&x| {
                    if x == 3 {
                        flag.store(true, Ordering::Release);
                        panic!("early boom");
                    }
                    x
                });
            });
            assert!(token.is_cancelled());
            assert!(msg.contains("early boom"), "{threads}: {msg}");
        }
    }

    #[test]
    fn results_are_not_affected_by_uneven_work() {
        // Heavier work at the front must not reorder results.
        let items: Vec<u64> = (0..257).collect();
        let got = map(Pool::with_threads(4), &items, |&x| {
            let spin = if x < 8 { 20_000 } else { 10 };
            let mut acc = x;
            for k in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(got, items);
    }
}
