//! Deterministic data-parallel execution engine for `DarkGates` experiments.
//!
//! The experiment pipeline is embarrassingly parallel at several levels
//! (benchmarks within a figure, TDP×suite×mode grid cells, frequency
//! samples within an impedance sweep, claims within a validation run).
//! This crate provides the primitives the rest of the workspace builds on,
//! all running on one scheduler:
//!
//! * [`par_map_progress`] — map a closure over an indexed slice on a
//!   transient thread pool with a streaming progress seam: a barrier-free
//!   scheduler claims items across the whole range, parks completed chunks
//!   in a preallocated reorder window, and emits the sealed prefix to the
//!   caller's `progress` callback in index order as soon as it closes (no
//!   join between chunks).
//! * [`par_map`] — the same map as a single chunk with no progress
//!   callback, returning results **in input order**.
//! * [`par_map_progress_sequential`] — the plain sequential loop both are
//!   defined against. Single-threaded and nested calls run it, and the
//!   differential proptests compare the scheduler with it.
//!
//! Output is bit-identical to the sequential loop for any thread count,
//! because each result is written back to its input index and any
//! reduction is done by the caller in index order.
//!
//! Worker panics do **not** poison the pool: every unit of work runs under
//! `catch_unwind`, the remaining items of its chunk (for [`par_map`], every
//! item) still complete, and then the payload is re-raised on the calling
//! thread, so callers observe the same behaviour as a sequential loop.
//! When several items of a chunk panic, the payload re-raised is always
//! the **lowest panicking index**'s, independent of thread scheduling —
//! panics are as deterministic as results.
//!
//! Nested calls degrade gracefully: a `par_map` issued from inside a
//! worker thread runs inline on that worker (no thread explosion, no
//! deadlock), so library code can parallelise internally without caring
//! whether the caller already did.
//!
//! Thread count resolution order: the test override set via
//! [`set_thread_override`], then the `DG_NUM_THREADS` environment
//! variable, then [`std::thread::available_parallelism`].

pub mod sync;

use crate::sync::TrackedMutex;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Process-wide thread-count override, used by determinism tests.
/// 0 means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide schedule-perturbation seed (0 = claim work in input
/// order). See [`set_schedule_seed`].
static SCHEDULE_SEED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// True while the current thread is a pool worker; nested parallel
    /// calls detect this and run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Stringifies a `catch_unwind` payload so it can be re-raised as a
/// `String`.
fn describe_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Forces every subsequent parallel call to use exactly `n` threads
/// (`n = 1` makes the engine run fully inline). Returns a guard that
/// restores the previous setting when dropped, so tests can scope the
/// override.
///
/// # Panics
///
/// Panics if `n` is zero (a zero-thread pool cannot make progress).
pub fn set_thread_override(n: usize) -> ThreadOverrideGuard {
    assert!(n > 0, "thread override must be positive");
    let prev = THREAD_OVERRIDE.swap(n, Ordering::SeqCst);
    ThreadOverrideGuard { prev }
}

/// Restores the previous thread-count setting on drop.
#[must_use = "dropping the guard immediately restores the previous thread count"]
pub struct ThreadOverrideGuard {
    prev: usize,
}

impl Drop for ThreadOverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.store(self.prev, Ordering::SeqCst);
    }
}

/// Makes every subsequent parallel call *claim* work items in a seeded
/// permutation of the input order instead of ascending index order.
///
/// Results are unaffected by construction — each outcome is written back
/// to its input index, so the output (and any error index) is bit-identical
/// for every seed. What the seed changes is the execution interleaving:
/// which worker touches which item first, and therefore the order in which
/// shared substrate caches and locks are hit. The `dg-chaos` harness uses
/// this to shake out accidental order dependence deterministically: a
/// failure reproduces from `(seed, thread count)` alone.
///
/// A seed of 0 disables the perturbation (the default). Returns a guard
/// restoring the previous seed on drop, so callers can scope it.
pub fn set_schedule_seed(seed: u64) -> ScheduleSeedGuard {
    let prev = SCHEDULE_SEED.swap(seed, Ordering::SeqCst);
    ScheduleSeedGuard { prev }
}

/// Restores the previous schedule seed on drop.
#[must_use = "dropping the guard immediately restores the previous schedule seed"]
pub struct ScheduleSeedGuard {
    prev: u64,
}

impl Drop for ScheduleSeedGuard {
    fn drop(&mut self) {
        SCHEDULE_SEED.store(self.prev, Ordering::SeqCst);
    }
}

/// Maps the `slot`-th claim to an input index: an affine permutation
/// `slot * step + offset (mod n)` with `step` coprime to `n`, derived from
/// the seed. Identity when the seed is 0 or there is nothing to permute.
fn schedule_index(seed: u64, slot: usize, n: usize) -> usize {
    if seed == 0 || n <= 1 {
        return slot.min(n.saturating_sub(1));
    }
    let n64 = n as u64;
    // Derive a step in [1, n) coprime to n; stepping odd candidates from a
    // seed-mixed start always terminates (1 is coprime to everything).
    let mixed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    let mut step = (mixed % n64.saturating_sub(1)) + 1;
    while gcd(step, n64) != 1 {
        step = if step + 1 >= n64 { 1 } else { step + 1 };
    }
    let offset = (mixed >> 33) % n64;
    let idx = ((slot as u64).wrapping_mul(step).wrapping_add(offset)) % n64;
    usize::try_from(idx).unwrap_or(0)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Runs `f` with this thread marked as a pool worker, so every nested
/// [`par_map`] / [`par_map_progress`] call inside `f` executes inline on
/// the current thread instead of spawning a scope of its own.
///
/// This is how a server thread-pool composes with the engine: each request
/// handler runs under `inline_scope`, costing exactly one thread per
/// request with no thread explosion, while the same library code still
/// parallelises when called from a non-worker context. The marker is
/// restored on unwind, so a panicking `f` does not leak worker status
/// into unrelated work on a reused thread.
pub fn inline_scope<R>(f: impl FnOnce() -> R) -> R {
    /// Restores the previous `IN_WORKER` value even if `f` unwinds.
    struct Restore {
        prev: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(self.prev));
        }
    }
    let _restore = Restore {
        prev: IN_WORKER.with(|w| w.replace(true)),
    };
    f()
}

/// A problem with the thread-count environment variable, surfaced so the
/// binaries can warn at startup instead of silently falling back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadEnvIssue {
    /// The offending variable (`DG_NUM_THREADS`).
    pub var: &'static str,
    /// The value it was set to.
    pub value: String,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for ThreadEnvIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?} ignored ({}); falling back",
            self.var, self.value, self.reason
        )
    }
}

/// The thread-count environment variable.
const THREAD_VAR: &str = "DG_NUM_THREADS";

/// Reads the thread-count variable's value, surrounding whitespace ignored:
/// the positive count it names, or why it is unusable. [`num_threads`]
/// and [`thread_env_issues`] both parse through here, so a value is used
/// exactly when it is not reported.
fn parse_thread_count(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err("a zero-thread pool cannot make progress".to_owned()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{:?} is not a positive integer", value.trim())),
    }
}

/// Reports the thread-count environment variable when it is set but
/// unusable (non-numeric, zero, or otherwise unparsable). [`num_threads`]
/// silently skips such a value; callers with a user interface (the bench
/// binaries, `dg-serve`) print it as a startup warning.
pub fn thread_env_issues() -> Option<ThreadEnvIssue> {
    let value = std::env::var(THREAD_VAR).ok()?;
    let reason = parse_thread_count(&value).err()?;
    Some(ThreadEnvIssue {
        var: THREAD_VAR,
        value,
        reason,
    })
}

/// The number of worker threads parallel calls will use.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(Ok(n)) = std::env::var(THREAD_VAR).map(|v| parse_thread_count(&v)) {
        return n;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One work item's outcome inside the pool.
type Outcome<U> = Result<U, String>;

/// Maps `f` over `items` in parallel, returning outputs in input order.
///
/// `f` receives `(index, &item)`. The result at position `i` is always
/// `f(i, &items[i])`, regardless of thread count or scheduling, so any
/// caller-side reduction done in index order is bit-identical to the
/// sequential loop. This is [`par_map_progress`] with the whole input as
/// one chunk and no progress callback.
///
/// # Panics
///
/// If `f` panics for any item, the remaining items still complete, then
/// the panic payload of the lowest panicking index is re-raised on the
/// calling thread.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_progress(items, items.len(), f, |_, _| {})
}

/// One chunk's cell in the streaming scheduler's reorder window: outcome
/// slots for the chunk's items plus the count still outstanding. The whole
/// window is preallocated (one slot per input item, exactly the footprint
/// of the output vector), so the window is statically bounded — stragglers
/// can never make it grow.
struct StreamCell<U> {
    /// Per-item outcome slots, in index order within the chunk.
    slots: Vec<Option<Outcome<U>>>,
    /// Items not yet deposited; the chunk is *sealed* at zero.
    remaining: usize,
}

/// Maps `f` over `items` in parallel like [`par_map`], reporting progress
/// after each contiguous chunk of `chunk` items (floored to 1) completes.
///
/// This is a **barrier-free ordered-streaming** map: workers claim item
/// slots off one work-stealing atomic cursor across the *entire* input
/// range (no join between chunks), completed items land in a preallocated
/// per-chunk reorder window, and the calling thread emits the sealed
/// prefix — invoking `progress` with the number of items completed so far
/// and the just-sealed chunk's outputs in index order — while workers keep
/// integrating ahead. A slow item therefore delays only the chunks at or
/// after it, not every worker at a wave boundary.
///
/// The returned vector, and the *sequence* of progress calls (both the
/// `done` counts and the emitted slices), are bit-identical to
/// [`par_map_progress_sequential`] for any thread count and any
/// [`set_schedule_seed`] permutation; `progress` always runs on the
/// calling thread. Single-threaded and nested calls (and calls under
/// [`inline_scope`]) run that sequential loop directly. This is the seam
/// `dg-explore` streams `/v1/explore` progress records and `didt` streams
/// `/v1/droop_sweep` waves through.
///
/// Every item costs one cursor claim and one lock of the reorder window,
/// and a chunk's last item wakes the emitter, so callers group cheap work
/// into one item: `didt` maps 32-lane groups and `dg-explore` whole
/// progress batches with `chunk` 1. A multi-threaded call also spawns and
/// joins its workers (about 80–90 µs on a 2-vCPU host); one item runs
/// inline.
///
/// The one divergence from the sequential loop is speculation, which is
/// unobservable through the contract: when an item panics, the sequential
/// loop never invokes `f` past the panicking chunk, whereas the streaming
/// scheduler may already have run items from later chunks. The emitted
/// prefix, the progress sequence, and the re-raised payload are unchanged
/// — chunks after the first panicking chunk are never emitted, and workers
/// stop claiming their items as soon as the panic is observed.
///
/// # Panics
///
/// If `f` panics for any item, every other item of its chunk still runs,
/// then the panic payload is re-raised on the calling thread (for the
/// lowest panicking index in the first chunk that panicked); chunks after
/// it are never emitted.
pub fn par_map_progress<T, U, F, P>(items: &[T], chunk: usize, f: F, mut progress: P) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
    P: FnMut(usize, &[U]),
{
    let chunk = chunk.max(1);
    let n = items.len();
    let threads = num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 || IN_WORKER.with(Cell::get) {
        return par_map_progress_sequential(items, chunk, f, progress);
    }

    let n_chunks = n.div_ceil(chunk);
    let schedule_seed = SCHEDULE_SEED.load(Ordering::SeqCst);
    let cursor = AtomicUsize::new(0);
    // Lowest chunk known to hold a panicking item. Chunks strictly after
    // it can never reach the sealed prefix, so workers skip their items
    // instead of burning doomed work; the panicking chunk itself still
    // completes (the emitter needs it sealed to pick the lowest index).
    let doomed = AtomicUsize::new(usize::MAX);
    let cells: Vec<StreamCell<U>> = (0..n_chunks)
        .map(|c| {
            let len = chunk.min(n - c * chunk);
            StreamCell {
                slots: (0..len).map(|_| None).collect(),
                remaining: len,
            }
        })
        .collect();
    let window = TrackedMutex::new("engine.stream.window", cells);
    let sealed = crate::sync::TrackedCondvar::new();

    let mut out: Vec<U> = Vec::with_capacity(n);
    let mut panic_payload: Option<String> = None;

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cursor = &cursor;
            let doomed = &doomed;
            let f = &f;
            let window = &window;
            let sealed = &sealed;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let slot = cursor.fetch_add(1, Ordering::Relaxed);
                    if slot >= n {
                        break;
                    }
                    let i = schedule_index(schedule_seed, slot, n);
                    let c = i / chunk;
                    if c > doomed.load(Ordering::Relaxed) {
                        continue;
                    }
                    let outcome = run_guarded(|| f(i, &items[i]));
                    if outcome.is_err() {
                        doomed.fetch_min(c, Ordering::Relaxed);
                    }
                    let just_sealed = {
                        let mut cells = window.lock();
                        let cell = &mut cells[c];
                        if let Some(s) = cell.slots.get_mut(i - c * chunk) {
                            *s = Some(outcome);
                        }
                        cell.remaining -= 1;
                        cell.remaining == 0
                    };
                    if just_sealed {
                        sealed.notify_all();
                    }
                }
                IN_WORKER.with(|w| w.set(false));
            });
        }

        // The calling thread is the emitter: it drains the window in
        // chunk order, so the output vector and the progress sequence are
        // exactly the sequential loop's. Waiting on chunk `c` is
        // deadlock-free: the emitter only reaches `c` after chunks `0..c`
        // sealed clean, so `doomed >= c` and no worker ever skips an item
        // of chunk `c`.
        for c in 0..n_chunks {
            let taken: Vec<Option<Outcome<U>>> = {
                let mut cells = window.lock();
                while cells[c].remaining > 0 {
                    cells = sealed.wait(cells);
                }
                std::mem::take(&mut cells[c].slots)
            };
            let base = out.len();
            // A sealed chunk has every slot deposited; an empty one is
            // treated as a panic outcome rather than panicking here.
            let outcomes = taken
                .into_iter()
                .map(|slot| slot.unwrap_or_else(|| Err("work item produced no result".into())));
            if let Err(payload) = append_chunk(outcomes, &mut out) {
                panic_payload = Some(payload);
                doomed.fetch_min(c, Ordering::Relaxed);
                break;
            }
            progress(out.len(), &out[base..]);
        }
    });

    match panic_payload {
        None => out,
        Some(payload) => resume_unwind(Box::new(payload)),
    }
}

/// The sequential loop [`par_map_progress`] is defined against: chunk by
/// chunk, every item of the chunk runs under `catch_unwind`; if any
/// panicked, the lowest panicking index's payload is re-raised before
/// `progress` sees the chunk, otherwise `progress` observes it and the
/// next chunk starts.
///
/// [`par_map_progress`] runs this loop itself for single-threaded and
/// nested calls; the differential proptests compare its streaming
/// scheduler with it. New code should call [`par_map_progress`].
///
/// # Panics
///
/// If `f` panics for any item, every other item of its chunk still runs,
/// then the panic payload of the chunk's lowest panicking index is
/// re-raised on the calling thread; chunks after it do not run at all.
// dg-analyze: allow(unreached-pub, reason = "live (par_map_progress's single-threaded and nested path); crates/engine/tests/stream_map_props.rs names it as the reference the streaming scheduler is compared against")
pub fn par_map_progress_sequential<T, U, F, P>(
    items: &[T],
    chunk: usize,
    f: F,
    mut progress: P,
) -> Vec<U>
where
    F: Fn(usize, &T) -> U,
    P: FnMut(usize, &[U]),
{
    let chunk = chunk.max(1);
    let mut out: Vec<U> = Vec::with_capacity(items.len());
    for slice in items.chunks(chunk) {
        let base = out.len();
        let outcomes = slice
            .iter()
            .enumerate()
            .map(|(k, x)| run_guarded(|| f(base + k, x)));
        if let Err(payload) = append_chunk(outcomes, &mut out) {
            resume_unwind(Box::new(payload));
        }
        progress(out.len(), &out[base..]);
    }
    out
}

/// Runs one unit of work, converting a panic into an `Err(payload)`.
fn run_guarded<U>(work: impl FnOnce() -> U) -> Outcome<U> {
    catch_unwind(AssertUnwindSafe(work)).map_err(|payload| describe_payload(payload.as_ref()))
}

/// Consumes one chunk's outcomes in index order, appending the values to
/// `out`. Every outcome is drawn, so a lazy iterator runs every item; if
/// any panicked, the lowest panicking index's payload is returned and the
/// values from that index on are dropped.
fn append_chunk<U>(
    outcomes: impl IntoIterator<Item = Outcome<U>>,
    out: &mut Vec<U>,
) -> Result<(), String> {
    let mut failure = None;
    for outcome in outcomes {
        match outcome {
            Ok(value) if failure.is_none() => out.push(value),
            Err(payload) if failure.is_none() => failure = Some(payload),
            _ => {}
        }
    }
    failure.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    /// The override is process-global, so tests that touch it must not
    /// interleave. Poisoning is expected (one test panics on purpose).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn par_map_preserves_input_order() {
        let _l = serial();
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_matches_sequential_for_any_thread_count() {
        let _l = serial();
        let items: Vec<f64> = (0..100).map(|i| 1.0 + f64::from(i) * 0.37).collect();
        let work = |_: usize, &x: &f64| (x.sin() * x.ln()).exp();
        let baseline: Vec<u64> = {
            let _g = set_thread_override(1);
            par_map(&items, work).iter().map(|v| v.to_bits()).collect()
        };
        for threads in [2, 3, 8] {
            let _g = set_thread_override(threads);
            let out: Vec<u64> = par_map(&items, work).iter().map(|v| v.to_bits()).collect();
            assert_eq!(out, baseline, "thread count {threads} changed results");
        }
    }

    #[test]
    fn par_map_progress_reports_deterministic_chunks_and_matches_par_map() {
        let _l = serial();
        let items: Vec<u64> = (0..103).collect();
        let work = |i: usize, &x: &u64| x * 7 + i as u64;
        let expected: Vec<u64> = {
            let _g = set_thread_override(1);
            par_map(&items, work)
        };
        for threads in [1, 2, 5] {
            let _g = set_thread_override(threads);
            let mut calls: Vec<(usize, usize)> = Vec::new();
            let out = par_map_progress(&items, 16, work, |done, chunk| {
                calls.push((done, chunk.len()));
            });
            assert_eq!(out, expected, "thread count {threads} changed results");
            // 103 items in chunks of 16: six full chunks, one of 7.
            let expected_calls: Vec<(usize, usize)> = (1..=6)
                .map(|c| (c * 16, 16))
                .chain(std::iter::once((103, 7)))
                .collect();
            assert_eq!(
                calls, expected_calls,
                "thread count {threads} changed cadence"
            );
        }
        // A zero chunk is floored to 1 rather than looping forever.
        let _g = set_thread_override(2);
        let mut n = 0usize;
        let out = par_map_progress(&items[..3], 0, work, |_, chunk| n += chunk.len());
        assert_eq!(out, expected[..3]);
        assert_eq!(n, 3);
    }

    /// The streaming scheduler against the sequential loop, which computes
    /// exactly what the retired chunk-barrier scheduler did.
    #[test]
    fn streaming_progress_matches_barrier_scheduler_bit_for_bit() {
        let _l = serial();
        let items: Vec<f64> = (0..131).map(|i| 0.7 + f64::from(i) * 0.13).collect();
        let work = |i: usize, &x: &f64| (x.sin() * (i as f64 + 1.0).ln()).to_bits();
        for threads in [2, 3, 8] {
            for seed in [0u64, 7, 0xBEEF] {
                for chunk in [1usize, 5, 16, 131, 500] {
                    let _g = set_thread_override(threads);
                    let _s = set_schedule_seed(seed);
                    let mut reference_calls: Vec<(usize, Vec<u64>)> = Vec::new();
                    let reference =
                        par_map_progress_sequential(&items, chunk, work, |done, fresh| {
                            reference_calls.push((done, fresh.to_vec()));
                        });
                    let mut stream_calls: Vec<(usize, Vec<u64>)> = Vec::new();
                    let streamed = par_map_progress(&items, chunk, work, |done, fresh| {
                        stream_calls.push((done, fresh.to_vec()));
                    });
                    assert_eq!(
                        streamed, reference,
                        "threads={threads} seed={seed} chunk={chunk}: outputs diverged"
                    );
                    assert_eq!(
                        stream_calls, reference_calls,
                        "threads={threads} seed={seed} chunk={chunk}: progress diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_progress_panic_matches_barrier_payload_and_prefix() {
        let _l = serial();
        let items: Vec<u32> = (0..97).collect();
        // Panics at 40 and 61: chunk 2 (of 16) is the first panicking
        // chunk, 40 its lowest panicking index.
        let work = |_: usize, &x: &u32| {
            assert!(x != 40 && x != 61, "boom {x}");
            x * 3
        };
        for threads in [2, 5] {
            let _g = set_thread_override(threads);
            let mut stream_calls: Vec<(usize, usize)> = Vec::new();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_map_progress(&items, 16, work, |done, fresh| {
                    stream_calls.push((done, fresh.len()));
                })
            }))
            .expect_err("the panic must propagate");
            let payload = caught
                .downcast_ref::<String>()
                .expect("payload is re-raised as a String");
            assert_eq!(payload, "boom 40", "threads={threads}");
            // Exactly the chunks before the panicking one were emitted.
            assert_eq!(stream_calls, vec![(16, 16), (32, 16)], "threads={threads}");
        }
    }

    #[test]
    fn nested_par_map_runs_inline_without_deadlock() {
        let _l = serial();
        let _g = set_thread_override(2);
        let outer: Vec<usize> = (0..8).collect();
        let out = par_map(&outer, |_, &o| {
            let inner: Vec<usize> = (0..16).collect();
            par_map(&inner, |_, &i| o * 100 + i).iter().sum::<usize>()
        });
        let expected: Vec<usize> = outer.iter().map(|&o| o * 100 * 16 + 120).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn one_chunk_maps_run_their_items_concurrently() {
        let _l = serial();
        let _g = set_thread_override(2);
        // Each item arrives, then waits (at most 5 s, in 1 ms sleeps) for
        // the other one; run one after the other, the first would read 1.
        let rendezvous = |arrived: &AtomicUsize| {
            arrived.fetch_add(1, Ordering::SeqCst);
            for _ in 0..5_000 {
                if arrived.load(Ordering::SeqCst) >= 2 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            arrived.load(Ordering::SeqCst)
        };
        let items = [(), ()];
        let arrived = AtomicUsize::new(0);
        let out = par_map(&items, |_, _| rendezvous(&arrived));
        assert_eq!(out, vec![2, 2], "par_map ran its items one at a time");
        for chunk in [2, 64] {
            let arrived = AtomicUsize::new(0);
            let out = par_map_progress(&items, chunk, |_, _| rendezvous(&arrived), |_, _| {});
            assert_eq!(out, vec![2, 2], "chunk {chunk} ran its items one at a time");
        }
    }

    #[test]
    fn override_guard_restores_previous_value() {
        let _l = serial();
        let before = num_threads();
        {
            let _g = set_thread_override(3);
            assert_eq!(num_threads(), 3);
            {
                let _h = set_thread_override(1);
                assert_eq!(num_threads(), 1);
            }
            assert_eq!(num_threads(), 3);
        }
        assert_eq!(num_threads(), before);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn worker_panics_propagate() {
        let _l = serial();
        let _g = set_thread_override(2);
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(&items, |_, &x| {
            assert!(x != 40, "deliberate");
            x
        });
    }

    /// Runs `call`, which must panic, and returns the re-raised payload.
    fn panic_payload<R>(call: impl FnOnce() -> R) -> String {
        let caught = catch_unwind(AssertUnwindSafe(call))
            .err()
            .expect("the call must panic");
        caught
            .downcast_ref::<String>()
            .cloned()
            .expect("payload is re-raised as a String")
    }

    #[test]
    fn par_map_surfaces_payload_and_index() {
        let _l = serial();
        for threads in [1, 2, 8] {
            let _g = set_thread_override(threads);
            let items: Vec<u32> = (0..64).collect();
            let ran = AtomicUsize::new(0);
            let payload = panic_payload(|| {
                par_map(&items, |_, &x| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert!(x != 40, "task {x} exploded");
                    x * 2
                })
            });
            assert_eq!(payload, "task 40 exploded", "threads={threads}");
            assert_eq!(
                ran.load(Ordering::Relaxed),
                64,
                "every other item still runs (threads={threads})"
            );
        }
    }

    #[test]
    fn par_map_reports_lowest_panicking_index() {
        let _l = serial();
        for threads in [2, 5] {
            let _g = set_thread_override(threads);
            let items: Vec<u32> = (0..64).collect();
            let payload = panic_payload(|| {
                par_map(&items, |_, &x| {
                    assert!(x % 7 != 3, "boom {x}");
                    x
                })
            });
            assert_eq!(payload, "boom 3", "threads={threads}");
        }
    }

    #[test]
    fn pool_survives_a_panicking_call() {
        let _l = serial();
        let _g = set_thread_override(4);
        let items: Vec<u32> = (0..32).collect();
        panic_payload(|| {
            par_map(&items, |_, &x| {
                assert!(x != 0, "first item dies");
                x
            })
        });
        // The next call on the same thread pool machinery must succeed.
        let out = par_map(&items, |_, &x| x + 1);
        assert_eq!(out, (1..33).collect::<Vec<u32>>());
    }

    #[test]
    fn inline_scope_inlines_nested_parallel_calls() {
        let _l = serial();
        let _g = set_thread_override(8);
        let items: Vec<usize> = (0..32).collect();
        let out = inline_scope(|| {
            // Inside the scope, par_map must not spawn: observable because
            // every closure runs on the current (marked) thread.
            let here = std::thread::current().id();
            par_map(&items, move |_, &x| {
                assert_eq!(std::thread::current().id(), here);
                x * 2
            })
        });
        assert_eq!(out, (0..64).step_by(2).collect::<Vec<usize>>());
    }

    #[test]
    fn inline_scope_restores_marker_on_unwind() {
        let _l = serial();
        let result = catch_unwind(|| inline_scope(|| panic!("boom")));
        assert!(result.is_err());
        assert!(
            !IN_WORKER.with(Cell::get),
            "a panicking scope must not leave the thread marked as a worker"
        );
    }

    #[test]
    fn thread_env_issues_flags_bad_values() {
        let _l = serial();
        // Sequential std tests share the environment; scope the mutation
        // and restore whatever was there before.
        let prev = std::env::var("DG_NUM_THREADS").ok();
        std::env::set_var("DG_NUM_THREADS", "abc");
        let issues = thread_env_issues();
        assert!(
            issues
                .iter()
                .any(|i| i.var == "DG_NUM_THREADS" && i.value == "abc"),
            "{issues:?}"
        );
        std::env::set_var("DG_NUM_THREADS", "0");
        let issues = thread_env_issues();
        assert!(
            issues
                .iter()
                .any(|i| i.var == "DG_NUM_THREADS" && i.reason.contains("zero")),
            "{issues:?}"
        );
        assert!(num_threads() >= 1, "bad env values must still fall back");
        std::env::set_var("DG_NUM_THREADS", "4");
        assert!(thread_env_issues().is_none());
        // Padding is ignored the same way by the check and by the resolver,
        // so an unreported value is always the one in use.
        std::env::set_var("DG_NUM_THREADS", " 13");
        assert!(thread_env_issues().is_none());
        assert_eq!(num_threads(), 13);
        let display = ThreadEnvIssue {
            var: "DG_NUM_THREADS",
            value: "abc".to_owned(),
            reason: "r".to_owned(),
        }
        .to_string();
        assert!(display.contains("DG_NUM_THREADS") && display.contains("abc"));
        match prev {
            Some(v) => std::env::set_var("DG_NUM_THREADS", v),
            None => std::env::remove_var("DG_NUM_THREADS"),
        }
    }

    /// The input indices the scheduler's claims map to for `n` items under
    /// `seed`, in claim order.
    fn schedule_order(seed: u64, n: usize) -> Vec<usize> {
        (0..n).map(|slot| schedule_index(seed, slot, n)).collect()
    }

    #[test]
    fn schedule_order_is_a_bijection_and_varies_with_seed() {
        let _l = serial();
        for n in [0usize, 1, 2, 3, 7, 16, 97, 128] {
            for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
                let order = schedule_order(seed, n);
                let mut seen = vec![false; n];
                for &i in &order {
                    assert!(i < n, "seed {seed} n {n} produced out-of-range {i}");
                    assert!(!seen[i], "seed {seed} n {n} claimed {i} twice");
                    seen[i] = true;
                }
                assert_eq!(order.len(), n, "every index claimed exactly once");
            }
        }
        assert_eq!(
            schedule_order(0, 5),
            vec![0, 1, 2, 3, 4],
            "seed 0 is identity"
        );
        assert_ne!(
            schedule_order(3, 97),
            schedule_order(4, 97),
            "different seeds must perturb the claim order"
        );
        assert_ne!(
            schedule_order(3, 97),
            (0..97).collect::<Vec<usize>>(),
            "a non-zero seed must not be the identity for large n"
        );
    }

    #[test]
    fn schedule_seed_never_changes_par_map_results() {
        let _l = serial();
        let items: Vec<f64> = (0..151).map(|i| 0.3 + f64::from(i) * 0.11).collect();
        let work = |i: usize, &x: &f64| (x.sin() + (i as f64)).to_bits();
        let baseline: Vec<u64> = {
            let _g = set_thread_override(1);
            par_map(&items, work)
        };
        for seed in [1u64, 42, 0xC0FFEE] {
            let _g = set_thread_override(4);
            let _s = set_schedule_seed(seed);
            assert_eq!(
                par_map(&items, work),
                baseline,
                "seed {seed} changed par_map output"
            );
        }
    }

    #[test]
    fn schedule_seed_never_changes_par_map_error_index() {
        let _l = serial();
        let _g = set_thread_override(4);
        for seed in [0u64, 9, 77] {
            let _s = set_schedule_seed(seed);
            let items: Vec<u32> = (0..64).collect();
            let payload = panic_payload(|| {
                par_map(&items, |_, &x| {
                    assert!(x % 9 != 4, "boom {x}");
                    x
                })
            });
            assert_eq!(payload, "boom 4", "lowest index must win under seed {seed}");
        }
    }

    #[test]
    fn schedule_seed_guard_restores_previous_seed() {
        let _l = serial();
        {
            let _a = set_schedule_seed(5);
            assert_eq!(SCHEDULE_SEED.load(Ordering::SeqCst), 5);
            {
                let _b = set_schedule_seed(6);
                assert_eq!(SCHEDULE_SEED.load(Ordering::SeqCst), 6);
            }
            assert_eq!(SCHEDULE_SEED.load(Ordering::SeqCst), 5);
        }
        assert_eq!(SCHEDULE_SEED.load(Ordering::SeqCst), 0);
    }
}
