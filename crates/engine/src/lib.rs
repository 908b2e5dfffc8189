//! Deterministic data-parallel execution engine for `DarkGates` experiments.
//!
//! The experiment pipeline is embarrassingly parallel at several levels
//! (benchmarks within a figure, TDP×suite×mode grid cells, frequency
//! samples within an impedance sweep, claims within a validation run).
//! This crate provides the primitives the rest of the workspace builds on:
//!
//! * [`par_map`] — map a closure over an indexed slice
//!   on a transient thread pool, returning results **in input order**.
//!   Output is bit-identical to the sequential loop for any thread count,
//!   because each result is written back to its input index and any
//!   reduction is done by the caller in index order.
//! * [`par_map_progress`] — the same map with a streaming progress seam:
//!   a barrier-free scheduler claims items across the whole range, parks
//!   completed chunks in a preallocated reorder window, and emits the
//!   sealed prefix to the caller's `progress` callback in index order as
//!   soon as it closes (no join between chunks). The retired
//!   chunk-barrier scheduler survives as [`par_map_progress_barrier`],
//!   the executable oracle the streaming one is differentially tested
//!   against.
//! * [`par_tasks`] — run a set of heterogeneous boxed closures
//!   concurrently, again collecting results in input order.
//!
//! Worker panics do **not** poison the pool: every unit of work runs under
//! `catch_unwind`, the remaining items still complete, and then the
//! payload is re-raised on the calling thread, so callers observe the same
//! behaviour as a sequential loop. When several items panic in one call,
//! the payload re-raised is always the **lowest panicking index**'s,
//! independent of thread scheduling — panics are as deterministic as
//! results.
//!
//! Nested calls degrade gracefully: a `par_map` issued from inside a
//! worker thread runs inline on that worker (no thread explosion, no
//! deadlock), so library code can parallelise internally without caring
//! whether the caller already did.
//!
//! Thread count resolution order: the test override set via
//! [`set_thread_override`], then the `DG_NUM_THREADS` environment
//! variable, then `RAYON_NUM_THREADS` (honoured for familiarity), then
//! [`std::thread::available_parallelism`].

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

/// The order in which work items are claimed for `n` items under `seed`:
/// a bijection over `0..n` (ascending when `seed == 0`). Exposed so tests
/// and the chaos harness can log and replay the exact claim order.
pub fn schedule_order(seed: u64, n: usize) -> Vec<usize> {
    (0..n).map(|slot| schedule_index(seed, slot, n)).collect()
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
/// [`par_map`] / [`par_tasks`] call inside `f` executes inline on the
/// current thread instead of spawning a scope of its own.
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

/// A problem with a thread-count environment variable, surfaced so the
/// binaries can warn at startup instead of silently falling back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadEnvIssue {
    /// The offending variable (`DG_NUM_THREADS` or `RAYON_NUM_THREADS`).
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

/// Inspects the thread-count environment variables and reports every one
/// that is set but unusable (non-numeric, zero, or otherwise unparsable).
/// [`num_threads`] silently skips these; callers with a user interface
/// (the bench binaries, `dg-serve`) print them as startup warnings.
pub fn thread_env_issues() -> Vec<ThreadEnvIssue> {
    let mut issues = Vec::new();
    for var in ["DG_NUM_THREADS", "RAYON_NUM_THREADS"] {
        let Ok(value) = std::env::var(var) else {
            continue;
        };
        let reason = match value.trim().parse::<usize>() {
            Ok(0) => "a zero-thread pool cannot make progress".to_owned(),
            Ok(_) => continue,
            Err(_) => format!("{:?} is not a positive integer", value.trim()),
        };
        issues.push(ThreadEnvIssue { var, value, reason });
    }
    issues
}

/// The number of worker threads parallel calls will use.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    for var in ["DG_NUM_THREADS", "RAYON_NUM_THREADS"] {
        if let Some(n) = std::env::var(var).ok().and_then(|v| v.parse().ok()) {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One work item's outcome inside the pool.
type Outcome<U> = Result<U, String>;

/// One worker's local results: `(index, outcome)` pairs, merged into slot
/// order after the scope joins. [`TrackedMutex`] recovers from poison by
/// construction; the protected state is always valid because payloads are
/// only written after a work item completes.
type Bucket<U> = TrackedMutex<Vec<(usize, Outcome<U>)>>;

/// Maps `f` over `items` in parallel, returning outputs in input order.
///
/// `f` receives `(index, &item)`. The result at position `i` is always
/// `f(i, &items[i])`, regardless of thread count or scheduling, so any
/// caller-side reduction done in index order is bit-identical to the
/// sequential loop.
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
    let threads = num_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 || IN_WORKER.with(Cell::get) {
        return collect_outcomes(
            items
                .iter()
                .enumerate()
                .map(|(i, x)| (i, run_guarded(|| f(i, x))))
                .collect(),
            items.len(),
        );
    }

    // Work-stealing via a shared atomic cursor: each worker claims the
    // next unprocessed slot, computes, and stashes (index, outcome) in a
    // local bucket. Buckets are merged into slot order afterwards, so the
    // output permutation is independent of which worker ran which index.
    // Under a schedule seed the claimed slot maps through a seeded
    // permutation, perturbing the interleaving without touching results.
    let schedule_seed = SCHEDULE_SEED.load(Ordering::SeqCst);
    let cursor = AtomicUsize::new(0);
    let buckets: Vec<Bucket<U>> = (0..threads)
        .map(|_| TrackedMutex::new("engine.bucket", Vec::new()))
        .collect();

    std::thread::scope(|scope| {
        for bucket in &buckets {
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                let mut local = Vec::new();
                loop {
                    let slot = cursor.fetch_add(1, Ordering::Relaxed);
                    if slot >= items.len() {
                        break;
                    }
                    let i = schedule_index(schedule_seed, slot, items.len());
                    local.push((i, run_guarded(|| f(i, &items[i]))));
                }
                *bucket.lock() = local;
                IN_WORKER.with(|w| w.set(false));
            });
        }
    });

    let mut outcomes = Vec::with_capacity(items.len());
    for bucket in &buckets {
        outcomes.extend(bucket.lock().drain(..));
    }
    collect_outcomes(outcomes, items.len())
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
/// Since PR 10 this is a **barrier-free ordered-streaming** map: workers
/// claim item slots off one work-stealing atomic cursor across the
/// *entire* input range (no join between chunks), completed items land in
/// a preallocated per-chunk reorder window, and the calling thread emits
/// the sealed prefix — invoking `progress` with the number of items
/// completed so far and the just-sealed chunk's outputs in index order —
/// while workers keep integrating ahead. A slow item therefore delays
/// only the chunks at or after it; it no longer idles every worker at a
/// wave boundary the way the retired
/// [`par_map_progress_barrier`] scheduler did.
///
/// The observable contract is exactly the barrier scheduler's: the
/// returned vector, and the *sequence* of progress calls (both the `done`
/// counts and the emitted slices), are bit-identical to
/// [`par_map_progress_barrier`] for any thread count and any
/// [`set_schedule_seed`] permutation; `progress` always runs on the
/// calling thread. This is the seam `dg-explore` streams `/v1/explore`
/// progress records and `didt` streams `/v1/droop_sweep` waves through.
///
/// The one divergence is speculation, which is unobservable through the
/// contract: when an item panics, the barrier scheduler never invoked `f`
/// past the panicking chunk, whereas the streaming scheduler may already
/// have run items from later chunks. The emitted prefix, the progress
/// sequence, and the re-raised payload are unchanged — chunks after the
/// first panicking chunk are never emitted, and workers stop claiming
/// their items as soon as the panic is observed.
///
/// # Panics
///
/// If `f` panics for any item, the panic payload is re-raised on the
/// calling thread (for the lowest panicking index in the first chunk that
/// panicked); chunks after it are never emitted.
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
    let n_chunks = n.div_ceil(chunk);
    if threads <= 1 || n <= 1 || n_chunks <= 1 || IN_WORKER.with(Cell::get) {
        // Sequential, single-chunk, and nested calls have no wave
        // boundaries to dissolve; the barrier scheduler *is* the
        // reference semantics there.
        return par_map_progress_barrier(items, chunk, f, progress);
    }

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
        // reconstructed exactly as the barrier scheduler produced them.
        // Waiting on chunk `c` is deadlock-free: the emitter only reaches
        // `c` after chunks `0..c` sealed clean, so `doomed >= c` and no
        // worker ever skips an item of chunk `c`.
        for c in 0..n_chunks {
            let taken: Vec<Option<Outcome<U>>> = {
                let mut cells = window.lock();
                while cells[c].remaining > 0 {
                    cells = sealed.wait(cells);
                }
                std::mem::take(&mut cells[c].slots)
            };
            let base = out.len();
            let mut failure: Option<String> = None;
            for slot in taken {
                match slot {
                    Some(Ok(value)) => {
                        if failure.is_none() {
                            out.push(value);
                        }
                    }
                    Some(Err(payload)) => {
                        if failure.is_none() {
                            failure = Some(payload);
                        }
                    }
                    // Unreachable by construction (a sealed chunk has
                    // every slot deposited); treated as a panic outcome
                    // rather than panicking here directly.
                    None => {
                        if failure.is_none() {
                            failure = Some("work item produced no result".to_string());
                        }
                    }
                }
            }
            if let Some(payload) = failure {
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

/// The retired chunk-barrier progress scheduler: items are processed in
/// contiguous chunks, each chunk runs through a full [`par_map`] (spawn,
/// integrate, join), then `progress` observes it before the next wave
/// starts.
///
/// Kept as the executable reference semantics for [`par_map_progress`]:
/// the streaming scheduler's differential proptests oracle against it,
/// and the sequential/nested paths of [`par_map_progress`] delegate to
/// it. New code should call [`par_map_progress`].
///
/// # Panics
///
/// If `f` panics for any item, the panic payload is re-raised on the
/// calling thread (for the lowest panicking index in the first chunk that
/// panicked); chunks after it do not run at all.
pub fn par_map_progress_barrier<T, U, F, P>(
    items: &[T],
    chunk: usize,
    f: F,
    mut progress: P,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
    P: FnMut(usize, &[U]),
{
    let chunk = chunk.max(1);
    let mut out: Vec<U> = Vec::with_capacity(items.len());
    for slice in items.chunks(chunk) {
        let base = out.len();
        let part = par_map(slice, |i, x| f(base + i, x));
        out.extend(part);
        progress(out.len(), &out[base..]);
    }
    out
}

/// A boxed unit of work for [`par_tasks`].
pub type Task<'a, U> = Box<dyn FnOnce() -> U + Send + 'a>;

/// Runs heterogeneous closures concurrently, returning their results in
/// input order. Useful when the units of work differ in shape (e.g. "all
/// figure datasets at once").
///
/// # Panics
///
/// If a task panics, the remaining tasks still run to completion, then
/// the payload of the lowest panicking submission index is re-raised on
/// the calling thread.
#[must_use]
pub fn par_tasks<U: Send>(tasks: Vec<Task<'_, U>>) -> Vec<U> {
    let n = tasks.len();
    let threads = num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 || IN_WORKER.with(Cell::get) {
        return collect_outcomes(
            tasks
                .into_iter()
                .enumerate()
                .map(|(i, task)| (i, run_guarded(task)))
                .collect(),
            n,
        );
    }

    let outcomes: TrackedMutex<Vec<(usize, Outcome<U>)>> =
        TrackedMutex::new("engine.tasks.outcomes", Vec::with_capacity(n));
    // Tasks are popped from the back; reversing yields submission order.
    // A schedule seed instead permutes the pop order deterministically
    // (results are still collected in submission order).
    let schedule_seed = SCHEDULE_SEED.load(Ordering::SeqCst);
    let mut indexed: Vec<(usize, Task<'_, U>)> = tasks.into_iter().enumerate().collect();
    if schedule_seed != 0 {
        let order = schedule_order(schedule_seed, n);
        let mut slots: Vec<Option<(usize, Task<'_, U>)>> = indexed.into_iter().map(Some).collect();
        let mut permuted = Vec::with_capacity(n);
        for idx in order.into_iter().rev() {
            if let Some(slot) = slots.get_mut(idx) {
                if let Some(task) = slot.take() {
                    permuted.push(task);
                }
            }
        }
        indexed = permuted;
    } else {
        indexed.reverse();
    }
    let queue: TrackedMutex<Vec<(usize, Task<'_, U>)>> =
        TrackedMutex::new("engine.tasks.queue", indexed);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let queue = &queue;
            let outcomes = &outcomes;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let Some((i, task)) = queue.lock().pop() else {
                        break;
                    };
                    let outcome = run_guarded(task);
                    outcomes.lock().push((i, outcome));
                }
                IN_WORKER.with(|w| w.set(false));
            });
        }
    });

    let pairs: Vec<(usize, Outcome<U>)> = outcomes.lock().drain(..).collect();
    collect_outcomes(pairs, n)
}

/// Runs one unit of work, converting a panic into an `Err(payload)`.
fn run_guarded<U>(work: impl FnOnce() -> U) -> Outcome<U> {
    catch_unwind(AssertUnwindSafe(work)).map_err(|payload| describe_payload(payload.as_ref()))
}

/// Merges `(index, outcome)` pairs into input order. On any panic the
/// payload of the **lowest** panicking index is re-raised, so the panic
/// the caller sees is independent of scheduling.
fn collect_outcomes<U>(pairs: Vec<(usize, Outcome<U>)>, n: usize) -> Vec<U> {
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let mut first_panic: Option<(usize, String)> = None;
    for (i, outcome) in pairs {
        match outcome {
            Ok(value) => {
                if let Some(slot) = slots.get_mut(i) {
                    *slot = Some(value);
                }
            }
            Err(payload) => {
                if first_panic.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_panic = Some((i, payload));
                }
            }
        }
    }
    if let Some((_, payload)) = first_panic {
        resume_unwind(Box::new(payload));
    }
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot {
            Some(value) => out.push(value),
            // Unreachable by construction (every index is claimed exactly
            // once); re-raised like a work item's panic rather than
            // panicking here directly.
            None => resume_unwind(Box::new("work item produced no result".to_string())),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

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
                    let mut barrier_calls: Vec<(usize, Vec<u64>)> = Vec::new();
                    let barrier = par_map_progress_barrier(&items, chunk, work, |done, fresh| {
                        barrier_calls.push((done, fresh.to_vec()));
                    });
                    let mut stream_calls: Vec<(usize, Vec<u64>)> = Vec::new();
                    let streamed = par_map_progress(&items, chunk, work, |done, fresh| {
                        stream_calls.push((done, fresh.to_vec()));
                    });
                    assert_eq!(
                        streamed, barrier,
                        "threads={threads} seed={seed} chunk={chunk}: outputs diverged"
                    );
                    assert_eq!(
                        stream_calls, barrier_calls,
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
    fn par_tasks_keeps_submission_order() {
        let _l = serial();
        let _g = set_thread_override(4);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..23usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = par_tasks(tasks);
        let expected: Vec<usize> = (0..23).map(|i| i * i).collect();
        assert_eq!(out, expected);
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
    fn par_tasks_surfaces_payload_and_index() {
        let _l = serial();
        let _g = set_thread_override(3);
        let ran = AtomicUsize::new(0);
        let tasks: Vec<Task<'_, usize>> = (0..17usize)
            .map(|i| {
                let ran = &ran;
                Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert!(i != 11, "task {i} failed");
                    i
                }) as Task<'_, usize>
            })
            .collect();
        assert_eq!(panic_payload(|| par_tasks(tasks)), "task 11 failed");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            17,
            "every other task still runs"
        );
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
        assert!(thread_env_issues().is_empty());
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
    fn schedule_seed_never_changes_par_tasks_results_or_error_index() {
        let _l = serial();
        let _g = set_thread_override(4);
        for seed in [0u64, 9, 77] {
            let _s = set_schedule_seed(seed);
            let tasks: Vec<Task<'_, usize>> = (0..31usize)
                .map(|i| Box::new(move || i * i) as Task<'_, usize>)
                .collect();
            assert_eq!(
                par_tasks(tasks),
                (0..31).map(|i| i * i).collect::<Vec<usize>>(),
                "seed {seed}"
            );
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
