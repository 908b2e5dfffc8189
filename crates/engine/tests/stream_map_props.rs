//! Differential property tests pinning the barrier-free streaming
//! [`dg_engine::par_map_progress`] to the retired chunk-barrier scheduler
//! it replaced ([`dg_engine::par_map_progress_barrier`]).
//!
//! The streaming scheduler's contract is that nothing observable changed:
//! for any thread count, chunk size, and seeded schedule permutation,
//!
//! * the returned vector is bit-identical,
//! * the *sequence* of progress calls — every `done` count and every
//!   emitted slice, in order — is bit-identical, and
//! * a panicking item propagates the same payload (the lowest panicking
//!   index of the first panicking chunk) after the same emitted prefix.
//!
//! Both schedulers run under the same process-global thread override and
//! schedule seed, so the file serializes its cases with a local lock
//! (the overrides are process-wide, exactly like the engine's own unit
//! tests).

use dg_engine::{
    par_map_progress, par_map_progress_barrier, set_schedule_seed, set_thread_override,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Runs one case at a time: the thread override and schedule seed are
/// process-global, and a poisoned lock just means a previous case
/// panicked on purpose.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Silences the default panic hook while deliberate worker panics fly,
/// restoring the previous hook on drop so real failures still print.
struct QuietPanics;

impl QuietPanics {
    fn install() -> Self {
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}

/// Everything observable about one scheduler run: the progress-call
/// sequence and either the output bits or the propagated panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    progress: Vec<(usize, Vec<u64>)>,
    result: Result<Vec<u64>, String>,
}

/// Runs one scheduler over `items` with a deterministic workload that
/// panics at every index `i` with `(i + 1) % panic_every == 0` (never,
/// when `panic_every` is 0).
fn observe(streaming: bool, items: &[f64], chunk: usize, panic_every: usize) -> Observed {
    let work = move |i: usize, &x: &f64| {
        assert!(
            panic_every == 0 || !(i + 1).is_multiple_of(panic_every),
            "boom at {i}"
        );
        (x.sin() * ((i as f64) + 1.5).ln()).to_bits()
    };
    let mut progress: Vec<(usize, Vec<u64>)> = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let record = |done: usize, fresh: &[u64]| progress.push((done, fresh.to_vec()));
        if streaming {
            par_map_progress(items, chunk, work, record)
        } else {
            par_map_progress_barrier(items, chunk, work, record)
        }
    }));
    let result = outcome.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string())
    });
    Observed { progress, result }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_map_is_observably_identical_to_the_barrier_scheduler(
        len in 0..140usize,
        chunk in 1..48usize,
        seed in 0..5000u64,
        threads in prop::sample::select(vec![1usize, 2, 3, 4, 8]),
        panic_every in 0..14usize,
    ) {
        let _serial = serial();
        let items: Vec<f64> = (0..len).map(|i| 0.3 + (i as f64) * 0.17).collect();
        let (barrier, streamed) = {
            let _quiet = QuietPanics::install();
            let _t = set_thread_override(threads);
            let _s = set_schedule_seed(seed);
            (
                observe(false, &items, chunk, panic_every),
                observe(true, &items, chunk, panic_every),
            )
        };
        prop_assert_eq!(
            &streamed.result, &barrier.result,
            "len={} chunk={} seed={} threads={} panic_every={}",
            len, chunk, seed, threads, panic_every
        );
        prop_assert_eq!(
            &streamed.progress, &barrier.progress,
            "len={} chunk={} seed={} threads={} panic_every={}",
            len, chunk, seed, threads, panic_every
        );
    }
}
