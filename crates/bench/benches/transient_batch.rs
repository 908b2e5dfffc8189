//! Benchmarks of the batched transient kernel against the scalar
//! reference path. The headline comparison is eight droop captures run
//! sequentially versus one eight-lane `run_batch` call — the shape that
//! di/dt sweeps, sensitivity analyses, and `/v1/droop_batch` all hit.

use criterion::{criterion_group, criterion_main, Criterion};
use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_pdn::transient::{LoadStep, TransientSim};
use dg_pdn::units::{Amps, Seconds, Volts};
use std::hint::black_box;

/// Eight load steps with distinct magnitudes so lanes settle at different
/// times — the batch kernel has to carry its lane-retirement cost.
fn eight_steps() -> Vec<LoadStep> {
    (0..8)
        .map(|k| {
            LoadStep::step(
                Amps::new(5.0),
                Amps::new(20.0 + 6.0 * k as f64),
                Seconds::from_us(1.0),
            )
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("transient_batch");
    g.sample_size(10);

    let pdn = SkylakePdn::build(PdnVariant::Bypassed);
    let sim = TransientSim::droop_capture(Volts::new(1.0));
    let steps = eight_steps();

    // Baseline: the scalar path, eight droop captures back to back.
    g.bench_function("seq8_scalar_runs", |b| {
        b.iter(|| {
            let results: Vec<_> = steps.iter().map(|s| sim.run(&pdn.ladder, *s)).collect();
            black_box(results)
        })
    });

    // The batched kernel: one call, eight lanes in two 4-lane blocks.
    g.bench_function("batch8_run_batch", |b| {
        b.iter(|| black_box(sim.run_batch(&pdn.ladder, &steps)))
    });

    // A single-lane batch pins the overhead of the batch plumbing relative
    // to the scalar kernel for the degenerate case.
    let one = &steps[..1];
    g.bench_function("batch1_run_batch", |b| {
        b.iter(|| black_box(sim.run_batch(&pdn.ladder, one)))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
