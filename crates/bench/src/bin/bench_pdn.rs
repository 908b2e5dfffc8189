//! `bench-pdn`: throughput gate for the explicit-SIMD transient kernel.
//!
//! Verifies that a 32-lane batch is bit-identical to 32 sequential
//! one-lane `run` calls, then measures the batch's wall-clock speedup
//! over that sequential baseline and emits one row.
//!
//! The sequential baseline runs the same kernel one lane at a time, so the
//! ratio measures what 4-lane blocking buys over single-lane blocks — not
//! an old kernel against a new one.
//!
//! ```text
//! # Human-readable report:
//! cargo run --release -p dg-bench --bin bench-pdn
//!
//! # CI gate: exit nonzero on a bit-identity break or a speedup below
//! # the regression floor:
//! cargo run --release -p dg-bench --bin bench-pdn -- --check
//!
//! # The committed BENCH_pdn.json payload:
//! cargo run --release -p dg-bench --bin bench-pdn -- --json
//! ```

use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_pdn::transient::{LoadStep, TransientResult, TransientSim};
use dg_pdn::units::{Amps, Seconds, Volts};
use dg_pdn::uses_avx2;
use std::hint::black_box;

/// Lanes in the headline batch: the `didt::SWEEP_LANES` shape that droop
/// sweeps carve their populations into — eight full 4-lane blocks.
const LANES: usize = 32;

/// Timing repetitions; the best (minimum) of these is reported, which is
/// the standard way to strip scheduler noise from a throughput claim.
const REPS: usize = 5;

/// `--check` fails when the batch's speedup lands below this. The
/// PR-5 auto-vectorized kernel measured 2.416x at 8 lanes; the blocked
/// kernel at 32 lanes clears 2.5x over its own single-lane runs, so a dip
/// below the old baseline is a real regression, not runner noise.
const CHECK_FLOOR: f64 = 2.5;

fn steps() -> Vec<LoadStep> {
    (0..LANES)
        .map(|k| {
            LoadStep::step(
                Amps::new(5.0),
                Amps::new(20.0 + 1.5 * k as f64),
                Seconds::from_us(1.0),
            )
        })
        .collect()
}

/// Compares every field and every waveform sample by bit pattern.
fn bit_identical(batch: &TransientResult, scalar: &TransientResult) -> bool {
    batch.v_min.value().to_bits() == scalar.v_min.value().to_bits()
        && batch.t_min.value().to_bits() == scalar.t_min.value().to_bits()
        && batch.v_initial.value().to_bits() == scalar.v_initial.value().to_bits()
        && batch.v_final.value().to_bits() == scalar.v_final.value().to_bits()
        && batch.samples.len() == scalar.samples.len()
        && batch
            .samples
            .iter()
            .zip(&scalar.samples)
            .all(|((tb, vb), (ts, vs))| {
                tb.value().to_bits() == ts.value().to_bits()
                    && vb.value().to_bits() == vs.value().to_bits()
            })
}

/// Best-of-[`REPS`] wall-clock seconds for one routine, interleaved with
/// the caller's loop so transient machine noise (a scheduler burst, a
/// thermal dip) spreads across all measured routines instead of biasing
/// whichever ran last.
#[expect(
    clippy::disallowed_methods,
    reason = "a throughput benchmark measures elapsed wall time by definition; \
              the bit-identity verdict does not depend on it"
)]
fn timed<F: FnMut()>(best: &mut f64, mut routine: F) {
    let started = std::time::Instant::now();
    routine();
    *best = best.min(started.elapsed().as_secs_f64());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let check = args.iter().any(|a| a == "--check");

    let pdn = SkylakePdn::build(PdnVariant::Bypassed);
    let sim = TransientSim::droop_capture(Volts::new(1.0));
    let steps = steps();

    // Correctness first: the batch must reproduce the one-lane runs
    // bit-for-bit on every lane (this also warms the substrate caches so
    // the timing below measures the kernel, not first-touch DC solves).
    let scalars: Vec<TransientResult> = steps.iter().map(|s| sim.run(&pdn.ladder, *s)).collect();
    let batched = sim.run_batch(&pdn.ladder, &steps);
    let identical = batched.len() == scalars.len()
        && batched
            .iter()
            .zip(&scalars)
            .all(|(b, s)| bit_identical(b, s));
    if !identical {
        eprintln!("FAIL: the batch is not bit-identical to the one-lane runs");
        std::process::exit(1);
    }

    // Interleave the sequential baseline and the batch inside each
    // repetition.
    let mut seq_best = f64::INFINITY;
    let mut batch_best = f64::INFINITY;
    for _ in 0..REPS {
        timed(&mut seq_best, || {
            let results: Vec<TransientResult> =
                steps.iter().map(|s| sim.run(&pdn.ladder, *s)).collect();
            black_box(results);
        });
        timed(&mut batch_best, || {
            black_box(sim.run_batch(&pdn.ladder, &steps));
        });
    }

    let codegen = if uses_avx2() { "avx2" } else { "portable" };
    let speedup = seq_best / batch_best;

    if json {
        println!(
            "{{\"bench\":\"dg-pdn-transient-batch\",\"lanes\":{LANES},\"reps\":{REPS},\
             \"bit_identical\":true,\"codegen\":\"{codegen}\",\"seq_best_ms\":{:.3},\
             \"batch_best_ms\":{:.3},\"speedup\":{speedup:.3},\"check_floor\":{CHECK_FLOOR}}}",
            seq_best * 1e3,
            batch_best * 1e3,
        );
    } else {
        println!("bench-pdn: explicit-SIMD transient kernel, batched vs sequential runs");
        println!("  lanes            : {LANES}");
        println!("  bit-identical    : yes (all fields and samples, to_bits)");
        println!("  codegen          : {codegen}");
        println!("  seq best-of-{REPS}    : {:.3} ms", seq_best * 1e3);
        println!("  batch best-of-{REPS}  : {:.3} ms", batch_best * 1e3);
        println!("  speedup          : {speedup:.2}x");
    }

    if check && speedup < CHECK_FLOOR {
        eprintln!("FAIL: speedup {speedup:.2}x below the {CHECK_FLOOR}x regression floor");
        std::process::exit(1);
    }
}
