//! Counting-allocator harness pinning the [`dg_pdn::BatchWorkspace`]
//! zero-allocation contract: once a workspace (and the crate's
//! coefficient/steady-state caches) are warm, repeated
//! `TransientSim::run_batch_in` calls on the same batch shape perform
//! **zero** heap allocations — no state buffers, no lane bookkeeping, no
//! waveform vectors, nothing.
//!
//! The file is its own test binary so its `#[global_allocator]` cannot
//! leak into other test processes, and it holds exactly one `#[test]` so
//! no concurrent test can allocate inside the measurement window.

use dg_pdn::simd::KernelWidth;
use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_pdn::transient::{LoadStep, TransientSim};
use dg_pdn::units::{Amps, Seconds, Volts};
use dg_pdn::BatchWorkspace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Allocations (and growth reallocations) observed while [`COUNTING`] is
/// armed. Frees are not counted: the contract under test is "no heap
/// traffic", and every allocation a steady-state call could make would
/// show up here first.
static ALLOC_EVENTS: AtomicUsize = AtomicUsize::new(0);

/// Armed only inside the measurement window, so process start-up, cache
/// warm-up, and libtest bookkeeping are not charged to the kernel.
static COUNTING: AtomicBool = AtomicBool::new(false);

struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counter
// update is a lock-free atomic increment, so the allocator never
// re-enters itself and upholds `GlobalAlloc`'s contract by inheritance.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
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
        if COUNTING.load(Ordering::Relaxed) {
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
    #[allow(clippy::cast_precision_loss)]
    let steps: Vec<LoadStep> = (0..8)
        .map(|k| LoadStep {
            from: Amps::new(5.0),
            to: Amps::new(8.0 + 4.0 * k as f64),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(10.0),
        })
        .collect();
    let width = KernelWidth::detect();
    let mut ws = BatchWorkspace::new();

    // Warm-up: fills the ladder-coefficient and DC steady-state caches and
    // grows every workspace buffer to this batch shape. Capture reference
    // bits so the measured calls can be checked without allocating.
    let expected: Vec<(u64, u64, usize)> = sim
        .run_batch_in(&pdn.ladder, &steps, width, &mut ws)
        .iter()
        .map(|r| {
            (
                r.v_min.value().to_bits(),
                r.v_final.value().to_bits(),
                r.samples.len(),
            )
        })
        .collect();
    let _ = sim.run_batch_in(&pdn.ladder, &steps, width, &mut ws);

    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..16 {
        let out = sim.run_batch_in(&pdn.ladder, &steps, width, &mut ws);
        assert_eq!(out.len(), expected.len());
        for (r, &(v_min, v_final, n_samples)) in out.iter().zip(&expected) {
            assert_eq!(r.v_min.value().to_bits(), v_min);
            assert_eq!(r.v_final.value().to_bits(), v_final);
            assert_eq!(r.samples.len(), n_samples);
        }
    }
    COUNTING.store(false, Ordering::SeqCst);

    let events = ALLOC_EVENTS.load(Ordering::SeqCst);
    assert_eq!(
        events, 0,
        "steady-state run_batch_in with a warm workspace performed {events} heap allocations"
    );
}
