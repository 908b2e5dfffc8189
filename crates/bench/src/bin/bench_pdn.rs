//! `bench-pdn`: throughput gate for the explicit-SIMD transient kernel.
//!
//! Verifies that every forced kernel width (scalar, ×4) is bit-identical
//! to sequential scalar `run` calls on a 32-lane batch, then measures each
//! width's wall-clock speedup over the sequential baseline and emits one
//! row per width.
//!
//! The sequential baseline runs the same kernel one lane at a time, so the
//! ratio measures what lane blocking buys over single-lane blocks — not
//! an old kernel against a new one.
//!
//! ```text
//! # Human-readable report:
//! cargo run --release -p dg-bench --bin bench-pdn
//!
//! # CI gate: exit nonzero on a bit-identity break or a best-width
//! # speedup below the regression floor:
//! cargo run --release -p dg-bench --bin bench-pdn -- --check
//!
//! # The committed BENCH_pdn.json payload:
//! cargo run --release -p dg-bench --bin bench-pdn -- --json
//! ```

use dg_pdn::simd::KernelWidth;
use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_pdn::transient::{LoadStep, TransientResult, TransientSim};
use dg_pdn::units::{Amps, Seconds, Volts};
use std::hint::black_box;

/// Lanes in the headline batch: the `didt::SWEEP_LANES` shape that droop
/// sweeps carve their populations into — eight full ×4 blocks.
const LANES: usize = 32;

/// Timing repetitions; the best (minimum) of these is reported, which is
/// the standard way to strip scheduler noise from a throughput claim.
const REPS: usize = 5;

/// `--check` fails when the *best* width's speedup lands below this. The
/// PR-5 auto-vectorized kernel measured 2.416x at 8 lanes; the blocked
/// kernel at 32 lanes clears 2.5x over its own single-lane runs, so a dip
/// below the old baseline is a real regression, not runner noise.
const CHECK_FLOOR: f64 = 2.5;

/// One measured row: a forced kernel width and its best-of-[`REPS`]
/// wall-clock seconds for the 32-lane batch.
struct WidthRow {
    width: KernelWidth,
    batch_best: f64,
}

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
#[allow(clippy::disallowed_methods)]
fn timed<F: FnMut()>(best: &mut f64, mut routine: F) {
    // dg-analyze: allow(determinism-hygiene, reason = "a throughput benchmark measures elapsed wall time by definition; the bit-identity verdict does not depend on it")
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
    let widths = KernelWidth::ALL;

    // Correctness first: every forced width must reproduce the scalar
    // path bit-for-bit on every lane (this also warms the substrate
    // caches so the timing below measures the kernels, not first-touch
    // DC solves).
    let scalars: Vec<TransientResult> = steps.iter().map(|s| sim.run(&pdn.ladder, *s)).collect();
    for width in widths {
        let batched = sim.run_batch_with_width(&pdn.ladder, &steps, width);
        let identical = batched.len() == scalars.len()
            && batched
                .iter()
                .zip(&scalars)
                .all(|(b, s)| bit_identical(b, s));
        if !identical {
            eprintln!(
                "FAIL: {} kernel is not bit-identical to the scalar path",
                width.label()
            );
            std::process::exit(1);
        }
    }

    // Interleave the sequential baseline and every width inside each
    // repetition.
    let mut seq_best = f64::INFINITY;
    let mut rows: Vec<WidthRow> = widths
        .iter()
        .map(|&width| WidthRow {
            width,
            batch_best: f64::INFINITY,
        })
        .collect();
    for _ in 0..REPS {
        timed(&mut seq_best, || {
            let results: Vec<TransientResult> =
                steps.iter().map(|s| sim.run(&pdn.ladder, *s)).collect();
            black_box(results);
        });
        for row in &mut rows {
            let width = row.width;
            timed(&mut row.batch_best, || {
                black_box(sim.run_batch_with_width(&pdn.ladder, &steps, width));
            });
        }
    }

    let dispatched = KernelWidth::detect();
    let best_speedup = rows
        .iter()
        .map(|r| seq_best / r.batch_best)
        .fold(0.0f64, f64::max);

    if json {
        let row_json: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"width\":\"{}\",\"batch_best_ms\":{:.3},\"speedup\":{:.3}}}",
                    r.width.label(),
                    r.batch_best * 1e3,
                    seq_best / r.batch_best,
                )
            })
            .collect();
        println!(
            "{{\"bench\":\"dg-pdn-transient-batch\",\"lanes\":{LANES},\"reps\":{REPS},\
             \"bit_identical\":true,\"dispatched\":\"{}\",\"seq_best_ms\":{:.3},\
             \"rows\":[{}],\"best_speedup\":{:.3},\"check_floor\":{CHECK_FLOOR}}}",
            dispatched.label(),
            seq_best * 1e3,
            row_json.join(","),
            best_speedup,
        );
    } else {
        println!("bench-pdn: explicit-SIMD transient kernel, batched vs sequential runs");
        println!("  lanes            : {LANES}");
        println!("  bit-identical    : yes (every width, all fields and samples, to_bits)");
        println!("  dispatched width : {}", dispatched.label());
        println!("  seq best-of-{REPS}    : {:.3} ms", seq_best * 1e3);
        for row in &rows {
            println!(
                "  {:<6} best-of-{REPS} : {:.3} ms  ({:.2}x)",
                row.width.label(),
                row.batch_best * 1e3,
                seq_best / row.batch_best,
            );
        }
        println!("  best speedup     : {best_speedup:.2}x");
    }

    if check && best_speedup < CHECK_FLOOR {
        eprintln!(
            "FAIL: best speedup {best_speedup:.2}x below the {CHECK_FLOOR}x regression floor"
        );
        std::process::exit(1);
    }
}
