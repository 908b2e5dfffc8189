//! di/dt noise characterization and voltage-emergency detection.
//!
//! Fast current transients (pipeline restarts, power-gate wake-ups,
//! AVX bursts) excite the PDN's resonances and can drive the die voltage
//! below the functional floor `Vmin` — a *voltage emergency*
//! (paper Sec. 2.4.2 and its references). This module sweeps grids of
//! load-step magnitudes over a ladder and reports the droop of each.

use crate::ladder::Ladder;
use crate::transient::{LoadStep, TransientResult, TransientSim};
use crate::units::{Amps, Seconds, Volts};

/// Lanes per batched transient task: eight full 4-lane blocks of the
/// kernel, so no lane falls into the one-lane remainder, yet small enough
/// that a sweep still spreads across the worker pool.
pub(crate) const SWEEP_LANES: usize = 32;

/// Lane groups per progress wave in [`droop_sweep_with_progress`]: enough
/// to keep every worker busy within a wave, few enough that a streaming
/// consumer sees steady progress.
pub(crate) const PROGRESS_GROUPS: usize = 8;

/// Worst droop for each step magnitude in `deltas` (from `quiescent`, with
/// a common `slew`), in input order: [`droop_sweep_with_progress`] with no
/// progress callback.
///
/// Results are bit-identical to sequential [`TransientSim::run`] calls
/// (ramp start at 1 µs) for any thread count.
pub fn droop_sweep(
    ladder: &Ladder,
    sim: &TransientSim,
    quiescent: Amps,
    deltas: &[Amps],
    slew: Seconds,
) -> Vec<Volts> {
    droop_sweep_with_progress(ladder, sim, quiescent, deltas, slew, |_, _| {})
}

/// [`droop_sweep`] with streaming progress: `progress` is called on the
/// integrating thread after each 8-group (`PROGRESS_GROUPS`) wave completes,
/// with the total number of finished lanes and the just-finished droops in
/// input order.
///
/// The grid is carved into 32-lane (`SWEEP_LANES`) batches and the batches
/// fan out over the [`dg_engine`] worker pool through
/// [`dg_engine::par_map_progress`], so each worker integrates several
/// lanes per task instead of one scenario. The returned vector — and the
/// *sequence* of progress calls — is bit-identical for any thread count.
/// This is the seam `/v1/droop_sweep` streams population-scale sweeps
/// through.
pub fn droop_sweep_with_progress(
    ladder: &Ladder,
    sim: &TransientSim,
    quiescent: Amps,
    deltas: &[Amps],
    slew: Seconds,
    mut progress: impl FnMut(usize, &[Volts]),
) -> Vec<Volts> {
    let steps = sweep_steps(quiescent, deltas, slew);
    let groups: Vec<&[LoadStep]> = steps.chunks(SWEEP_LANES).collect();
    let mut done = 0usize;
    dg_engine::par_map_progress(
        &groups,
        PROGRESS_GROUPS,
        |_, group| droop_group(ladder, sim, group),
        |_, fresh| {
            let flat: Vec<Volts> = fresh.iter().flatten().copied().collect();
            done += flat.len();
            progress(done, &flat);
        },
    )
    .into_iter()
    .flatten()
    .collect()
}

/// Expands a delta grid into load steps (ramp start at 1 µs, shared
/// slew).
fn sweep_steps(quiescent: Amps, deltas: &[Amps], slew: Seconds) -> Vec<LoadStep> {
    deltas
        .iter()
        .map(|&delta| LoadStep {
            from: quiescent,
            to: quiescent + delta,
            at: Seconds::from_us(1.0),
            slew,
        })
        .collect()
}

/// Integrates one lane group as a lockstep batch and reduces to droops —
/// through the calling worker's warm [`crate::batch::BatchWorkspace`], so
/// a steady-state sweep's inner loop performs no heap allocation beyond
/// the droop vector itself.
fn droop_group(ladder: &Ladder, sim: &TransientSim, group: &[LoadStep]) -> Vec<Volts> {
    crate::batch::with_thread_workspace(|ws| {
        sim.run_batch_in(ladder, group, ws)
            .iter()
            .map(TransientResult::droop)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skylake::{PdnVariant, SkylakePdn};

    /// The client event family as `(step A, slew ns)`: 1-, 2- and 4-core
    /// pipeline restarts, a staggered power-gate wake and an AVX burst.
    const CLIENT_EVENTS: [(f64, f64); 5] = [
        (12.0, 2.0),
        (24.0, 2.0),
        (48.0, 2.0),
        (30.0, 15.0),
        (35.0, 5.0),
    ];

    /// Runs each `(step A, slew ns)` event from 5 A on `ladder` with the
    /// rail at `v_nominal` (0.2 ns steps over 30 µs, ramp at 1 µs) as one
    /// batch.
    fn run_events(
        ladder: &Ladder,
        v_nominal: Volts,
        events: &[(f64, f64)],
    ) -> Vec<TransientResult> {
        let sim = TransientSim {
            source: v_nominal,
            dt: Seconds::from_ns(0.2),
            duration: Seconds::from_us(30.0),
            decimate: 256,
        };
        let steps: Vec<LoadStep> = events
            .iter()
            .map(|&(delta, slew)| LoadStep {
                from: Amps::new(5.0),
                to: Amps::new(5.0 + delta),
                at: Seconds::from_us(1.0),
                slew: Seconds::from_ns(slew),
            })
            .collect();
        sim.run_batch(ladder, &steps)
    }

    fn worst_droop(runs: &[TransientResult]) -> Volts {
        runs.iter()
            .map(TransientResult::droop)
            .fold(Volts::ZERO, Volts::max)
    }

    #[test]
    fn droop_grows_with_event_magnitude() {
        let pdn = SkylakePdn::build(PdnVariant::Bypassed);
        let runs = run_events(&pdn.ladder, Volts::new(1.0), &CLIENT_EVENTS);
        assert_eq!(runs.len(), CLIENT_EVENTS.len());
        let (one_core, four_core) = (&runs[0], &runs[2]);
        assert!(four_core.droop() > one_core.droop());
    }

    #[test]
    fn bypassed_droops_less_than_gated() {
        let gated = SkylakePdn::build(PdnVariant::Gated);
        let bypassed = SkylakePdn::build(PdnVariant::Bypassed);
        let wg = worst_droop(&run_events(&gated.ladder, Volts::new(1.0), &CLIENT_EVENTS));
        let wb = worst_droop(&run_events(
            &bypassed.ladder,
            Volts::new(1.0),
            &CLIENT_EVENTS,
        ));
        assert!(wb < wg, "bypassed {wb} vs gated {wg}");
    }

    #[test]
    fn adequate_guardband_prevents_emergencies() {
        let pdn = SkylakePdn::build(PdnVariant::Gated);
        // Run a Vmin-level rail with a generous guardband above it.
        let v_min = Volts::new(0.60);
        let runs = run_events(&pdn.ladder, v_min + Volts::from_mv(320.0), &CLIENT_EVENTS);
        let emergencies = runs.iter().filter(|r| r.v_min < v_min).count();
        assert_eq!(emergencies, 0, "emergencies: {emergencies}");
    }

    #[test]
    fn missing_guardband_causes_emergencies() {
        let pdn = SkylakePdn::build(PdnVariant::Gated);
        let v_min = Volts::new(0.60);
        // Only 40 mV above Vmin: the 4-core restart must punch through.
        let runs = run_events(&pdn.ladder, v_min + Volts::from_mv(40.0), &CLIENT_EVENTS);
        assert!(runs.iter().any(|r| r.v_min < v_min));
    }

    #[test]
    fn droop_sweep_matches_scalar_runs() {
        let pdn = SkylakePdn::build(PdnVariant::Bypassed);
        let sim = TransientSim {
            source: Volts::new(1.0),
            dt: Seconds::from_ns(1.0),
            duration: Seconds::from_us(10.0),
            decimate: 128,
        };
        // More deltas than SWEEP_LANES so the sweep spans several batches,
        // with a remainder group narrower than one batch.
        let deltas: Vec<Amps> = (1..=35).map(|k| Amps::new(1.5 * f64::from(k))).collect();
        assert!(deltas.len() > SWEEP_LANES && !deltas.len().is_multiple_of(SWEEP_LANES));
        let quiescent = Amps::new(5.0);
        let slew = Seconds::from_ns(10.0);
        let swept = droop_sweep(&pdn.ladder, &sim, quiescent, &deltas, slew);
        assert_eq!(swept.len(), deltas.len());
        for (&delta, &droop) in deltas.iter().zip(&swept) {
            let step = LoadStep {
                from: quiescent,
                to: quiescent + delta,
                at: Seconds::from_us(1.0),
                slew,
            };
            let scalar = sim.run(&pdn.ladder, step).droop();
            assert_eq!(droop.value().to_bits(), scalar.value().to_bits());
        }
        // Droop grows monotonically with the step in this regime.
        for w in swept.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn droop_sweep_with_progress_matches_and_streams_in_order() {
        let pdn = SkylakePdn::build(PdnVariant::Bypassed);
        let sim = TransientSim {
            source: Volts::new(1.0),
            dt: Seconds::from_ns(2.0),
            duration: Seconds::from_us(5.0),
            decimate: 256,
        };
        // Enough lanes for several progress waves plus a short tail.
        let n = PROGRESS_GROUPS * SWEEP_LANES * 2 + 7;
        #[allow(clippy::cast_precision_loss)]
        let deltas: Vec<Amps> = (0..n).map(|k| Amps::new(0.25 * k as f64 + 1.0)).collect();
        let quiescent = Amps::new(5.0);
        let slew = Seconds::from_ns(10.0);
        let per_lane: Vec<Volts> = deltas
            .iter()
            .map(|&delta| {
                let step = LoadStep {
                    from: quiescent,
                    to: quiescent + delta,
                    at: Seconds::from_us(1.0),
                    slew,
                };
                sim.run(&pdn.ladder, step).droop()
            })
            .collect();

        let mut seen: Vec<Volts> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let streamed = droop_sweep_with_progress(
            &pdn.ladder,
            &sim,
            quiescent,
            &deltas,
            slew,
            |done, fresh| {
                seen.extend_from_slice(fresh);
                counts.push(done);
            },
        );

        // The returned vector is bit-identical to per-lane `run` droops,
        // and the progress stream concatenates to exactly that vector.
        assert_eq!(streamed.len(), per_lane.len());
        for (a, b) in per_lane.iter().zip(&streamed) {
            assert_eq!(a.value().to_bits(), b.value().to_bits());
        }
        assert_eq!(seen.len(), per_lane.len());
        for (a, b) in per_lane.iter().zip(&seen) {
            assert_eq!(a.value().to_bits(), b.value().to_bits());
        }
        // Done-counts are strictly increasing and end at the lane count.
        assert!(counts.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(counts.last().copied(), Some(n));
        assert!(counts.len() >= 3, "expected several waves, got {counts:?}");
    }

    #[test]
    fn slower_slew_softens_the_droop() {
        let pdn = SkylakePdn::build(PdnVariant::Bypassed);
        let runs = run_events(&pdn.ladder, Volts::new(1.0), &[(30.0, 1.0), (30.0, 500.0)]);
        let (sharp, staggered) = (runs[0].droop(), runs[1].droop());
        assert!(staggered <= sharp, "staggered {staggered} vs sharp {sharp}");
    }
}
