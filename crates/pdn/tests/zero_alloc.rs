//! Counting-allocator harness pinning the [`dg_pdn::BatchWorkspace`]
//! zero-allocation contract: once a workspace (and the crate's
//! ladder-coefficient cache) are warm, repeated
//! `TransientSim::run_batch_in` calls on the same batch shape perform
//! **zero** heap allocations — no state buffers, no lane bookkeeping, no
//! waveform vectors, nothing. That holds for load steps the process has
//! never seen too: each lane's DC operating point is computed in place,
//! not looked up or stored per operating point.
//!
//! The file is its own test binary so its `#[global_allocator]` cannot
//! leak into other test processes, and it holds exactly one `#[test]` so
//! no concurrent test can allocate inside the measurement window.

use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_pdn::transient::{LoadStep, TransientResult, TransientSim};
use dg_pdn::units::{Amps, Seconds, Volts};
use dg_pdn::BatchWorkspace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations (and growth reallocations) observed while [`COUNTING`] is
/// armed on the measuring thread. Frees are not counted: the contract
/// under test is "no heap traffic", and every allocation a steady-state
/// call could make would show up here first.
static ALLOC_EVENTS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Armed only on the measuring thread and only inside the measurement
    /// window, so process start-up, cache warm-up, and the harness's own
    /// threads (libtest's main thread still allocates while the test
    /// thread starts) are not charged to the kernel. `run_batch_in` never
    /// leaves its calling thread, so every allocation it makes counts.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is inside the measurement window. A const
/// `Cell` has no destructor and no lazy init, so this never allocates.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counter
// update is a lock-free atomic increment and the armed check reads a
// const thread-local, so the allocator never re-enters itself and
// upholds `GlobalAlloc`'s contract by inheritance.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by the matching `System` routines.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was produced by the matching `System` routines.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn warm_workspace_run_batch_performs_zero_allocations() {
    let pdn = SkylakePdn::build(PdnVariant::Bypassed);
    let sim = TransientSim {
        source: Volts::new(1.0),
        dt: Seconds::from_ns(2.0),
        duration: Seconds::from_us(5.0),
        decimate: 64,
    };
    // A multi-lane batch with lanes that settle at different times, so the
    // measured calls exercise settle detection and lane retirement too.
    let steps: Vec<LoadStep> = (0..8)
        .map(|k| LoadStep {
            from: Amps::new(5.0),
            to: Amps::new(8.0 + 4.0 * k as f64),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(10.0),
        })
        .collect();
    let mut ws = BatchWorkspace::new();

    // Warm-up: fills the ladder-coefficient cache and grows every
    // workspace buffer to this batch shape. Capture reference
    // bits so the measured calls can be checked without allocating.
    let expected: Vec<(u64, u64, usize)> = sim
        .run_batch_in(&pdn.ladder, &steps, &mut ws)
        .iter()
        .map(|r| {
            (
                r.v_min.value().to_bits(),
                r.v_final.value().to_bits(),
                r.samples.len(),
            )
        })
        .collect();
    let _ = sim.run_batch_in(&pdn.ladder, &steps, &mut ws);

    // Fresh load steps: 16 batches of 8 operating points no earlier call
    // used (distinct quiescent and post-step currents per lane). Built,
    // with room for every recorded result, before the window opens — and
    // never run before it, so no per-operating-point memo could be warm.
    let fresh: Vec<Vec<LoadStep>> = (0..16)
        .map(|call| {
            (0..8)
                .map(|k| {
                    let from = 6.0 + 0.25 * (8 * call + k) as f64;
                    LoadStep {
                        from: Amps::new(from),
                        to: Amps::new(from + 3.0 + 5.0 * k as f64),
                        at: Seconds::from_us(1.0),
                        slew: Seconds::from_ns(10.0),
                    }
                })
                .collect()
        })
        .collect();
    let mut recorded: Vec<(u64, u64, u64, usize)> = Vec::with_capacity(16 * 8);

    COUNTING.set(true);
    for _ in 0..16 {
        let out = sim.run_batch_in(&pdn.ladder, &steps, &mut ws);
        assert_eq!(out.len(), expected.len());
        for (r, &(v_min, v_final, n_samples)) in out.iter().zip(&expected) {
            assert_eq!(r.v_min.value().to_bits(), v_min);
            assert_eq!(r.v_final.value().to_bits(), v_final);
            assert_eq!(r.samples.len(), n_samples);
        }
    }
    let repeat_events = ALLOC_EVENTS.load(Ordering::SeqCst);
    for batch in &fresh {
        for r in sim.run_batch_in(&pdn.ladder, batch, &mut ws) {
            recorded.push(bits(r));
        }
    }
    COUNTING.set(false);
    let fresh_events = ALLOC_EVENTS.load(Ordering::SeqCst) - repeat_events;

    assert_eq!(
        repeat_events, 0,
        "steady-state run_batch_in with a warm workspace performed {repeat_events} heap allocations"
    );
    assert_eq!(
        fresh_events, 0,
        "run_batch_in on fresh load steps performed {fresh_events} heap allocations"
    );

    // Only now, outside the window, derive the reference results.
    let reference: Vec<(u64, u64, u64, usize)> = fresh
        .iter()
        .flat_map(|batch| sim.run_batch(&pdn.ladder, batch))
        .map(|r| bits(&r))
        .collect();
    assert_eq!(recorded, reference, "fresh-step lanes must match run_batch");
}

/// The bits a measured lane is checked by: initial, minimum and final die
/// voltage, and the waveform length.
fn bits(r: &TransientResult) -> (u64, u64, u64, usize) {
    (
        r.v_initial.value().to_bits(),
        r.v_min.value().to_bits(),
        r.v_final.value().to_bits(),
        r.samples.len(),
    )
}
