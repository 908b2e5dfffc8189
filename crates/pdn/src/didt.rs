//! di/dt noise characterization and voltage-emergency detection.
//!
//! Fast current transients (pipeline restarts, power-gate wake-ups,
//! AVX bursts) excite the PDN's resonances and can drive the die voltage
//! below the functional floor `Vmin` — a *voltage emergency*
//! (paper Sec. 2.4.2 and its references). This module sweeps a family of
//! load-step events over a ladder, reports the droop of each, and checks
//! whether the applied guardband prevents every emergency.

use crate::ladder::Ladder;
use crate::transient::{LoadStep, TransientResult, TransientSim};
use crate::units::{Amps, Seconds, Volts};

/// Lanes per batched transient task: eight full 4-lane blocks of the x4
/// kernel ([`crate::simd::KernelWidth::X4`]), so no lane falls into the
/// scalar remainder, yet small enough that a sweep still spreads across
/// the worker pool.
pub(crate) const SWEEP_LANES: usize = 32;

/// Lane groups per progress wave in [`droop_sweep_with_progress`]: enough
/// to keep every worker busy within a wave, few enough that a streaming
/// consumer sees steady progress.
pub(crate) const PROGRESS_GROUPS: usize = 8;

/// A named di/dt event class.
#[derive(Debug, Clone, PartialEq)]
pub struct DidtEvent {
    /// Event name (e.g. `"1-core pipeline restart"`).
    pub name: String,
    /// Current step magnitude.
    pub delta: Amps,
    /// Ramp time of the event.
    pub slew: Seconds,
}

/// The standard event family for a 4-core client part: pipeline restarts
/// per active-core count plus a staggered full-domain power-gate wake.
pub fn client_event_family() -> Vec<DidtEvent> {
    vec![
        DidtEvent {
            name: "1-core pipeline restart".to_owned(),
            delta: Amps::new(12.0),
            slew: Seconds::from_ns(2.0),
        },
        DidtEvent {
            name: "2-core pipeline restart".to_owned(),
            delta: Amps::new(24.0),
            slew: Seconds::from_ns(2.0),
        },
        DidtEvent {
            name: "4-core pipeline restart".to_owned(),
            delta: Amps::new(48.0),
            slew: Seconds::from_ns(2.0),
        },
        DidtEvent {
            name: "staggered power-gate wake".to_owned(),
            delta: Amps::new(30.0),
            slew: Seconds::from_ns(15.0),
        },
        DidtEvent {
            name: "AVX burst".to_owned(),
            delta: Amps::new(35.0),
            slew: Seconds::from_ns(5.0),
        },
    ]
}

/// Result of simulating one event.
#[derive(Debug, Clone, PartialEq)]
pub struct DidtResult {
    /// The event.
    pub event: DidtEvent,
    /// Worst droop below the pre-event level.
    pub droop: Volts,
    /// Minimum die voltage reached.
    pub v_min: Volts,
    /// Whether the voltage fell below the functional floor.
    pub emergency: bool,
}

/// Noise analysis of a ladder under the event family.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseAnalysis {
    /// Per-event results.
    pub results: Vec<DidtResult>,
    /// The worst droop across all events.
    pub worst_droop: Volts,
    /// Number of emergencies.
    pub emergencies: usize,
}

impl NoiseAnalysis {
    /// `true` when no event drove the rail below Vmin.
    pub fn is_safe(&self) -> bool {
        self.emergencies == 0
    }
}

/// Simulates every event in `events` on `ladder`.
///
/// `v_nominal` is the rail setpoint (including guardband); `v_min_limit`
/// is the functional floor; `quiescent` the pre-event current.
pub fn analyze(
    ladder: &Ladder,
    events: &[DidtEvent],
    v_nominal: Volts,
    v_min_limit: Volts,
    quiescent: Amps,
) -> NoiseAnalysis {
    let sim = TransientSim {
        source: v_nominal,
        dt: Seconds::from_ns(0.2),
        duration: Seconds::from_us(30.0),
        decimate: 256,
    };
    // The whole event family integrates as one batch: the kernel is
    // bit-identical to per-event scalar runs, so the results (and every
    // downstream guardband) are unchanged.
    let steps: Vec<LoadStep> = events
        .iter()
        .map(|event| LoadStep {
            from: quiescent,
            to: quiescent + event.delta,
            at: Seconds::from_us(1.0),
            slew: event.slew,
        })
        .collect();
    let runs = sim.run_batch(ladder, &steps);
    let mut results = Vec::with_capacity(events.len());
    let mut worst = Volts::ZERO;
    let mut emergencies = 0;
    for (event, r) in events.iter().zip(&runs) {
        let droop = r.droop();
        let emergency = r.v_min < v_min_limit;
        if emergency {
            emergencies += 1;
        }
        worst = worst.max(droop);
        results.push(DidtResult {
            event: event.clone(),
            droop,
            v_min: r.v_min,
            emergency,
        });
    }
    NoiseAnalysis {
        results,
        worst_droop: worst,
        emergencies,
    }
}

/// Worst droop for each step magnitude in `deltas` (from `quiescent`, with
/// a common `slew`), in input order.
///
/// The grid is carved into 32-lane (`SWEEP_LANES`) batches and the batches
/// fan out over the [`dg_engine`] worker pool, so each worker integrates
/// several lanes per task instead of one scenario. Results are
/// bit-identical to sequential [`TransientSim::run`] calls (ramp start at
/// 1 µs, as in [`analyze`]) for any thread count.
pub fn droop_sweep(
    ladder: &Ladder,
    sim: &TransientSim,
    quiescent: Amps,
    deltas: &[Amps],
    slew: Seconds,
) -> Vec<Volts> {
    let steps = sweep_steps(quiescent, deltas, slew);
    let chunks: Vec<&[LoadStep]> = steps.chunks(SWEEP_LANES).collect();
    dg_engine::par_map(&chunks, |_, chunk| droop_group(ladder, sim, chunk))
        .into_iter()
        .flatten()
        .collect()
}

/// [`droop_sweep`] with streaming progress: `progress` is called on the
/// integrating thread after each 8-group (`PROGRESS_GROUPS`) wave completes,
/// with the total number of finished lanes and the just-finished droops in
/// input order.
///
/// Built on [`dg_engine::par_map_progress`], so the returned vector — and
/// the *sequence* of progress calls — is bit-identical to [`droop_sweep`]
/// for any thread count. This is the seam `/v1/droop_sweep` streams
/// population-scale sweeps through.
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

/// Expands a delta grid into the load steps [`analyze`] applies (ramp
/// start at 1 µs, shared slew).
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
        sim.run_batch_in(ladder, group, crate::simd::KernelWidth::detect(), ws)
            .iter()
            .map(TransientResult::droop)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skylake::{PdnVariant, SkylakePdn};

    #[test]
    fn droop_grows_with_event_magnitude() {
        let pdn = SkylakePdn::build(PdnVariant::Bypassed);
        let events = client_event_family();
        let a = analyze(
            &pdn.ladder,
            &events,
            Volts::new(1.0),
            Volts::new(0.60),
            Amps::new(5.0),
        );
        let one_core = &a.results[0];
        let four_core = &a.results[2];
        assert!(four_core.droop > one_core.droop);
        assert_eq!(a.results.len(), events.len());
    }

    #[test]
    fn bypassed_droops_less_than_gated() {
        let gated = SkylakePdn::build(PdnVariant::Gated);
        let bypassed = SkylakePdn::build(PdnVariant::Bypassed);
        let events = client_event_family();
        let ag = analyze(
            &gated.ladder,
            &events,
            Volts::new(1.0),
            Volts::new(0.60),
            Amps::new(5.0),
        );
        let ab = analyze(
            &bypassed.ladder,
            &events,
            Volts::new(1.0),
            Volts::new(0.60),
            Amps::new(5.0),
        );
        assert!(
            ab.worst_droop < ag.worst_droop,
            "bypassed {} vs gated {}",
            ab.worst_droop,
            ag.worst_droop
        );
    }

    #[test]
    fn adequate_guardband_prevents_emergencies() {
        let pdn = SkylakePdn::build(PdnVariant::Gated);
        // Run a Vmin-level rail with a generous guardband above it.
        let v_min = Volts::new(0.60);
        let a = analyze(
            &pdn.ladder,
            &client_event_family(),
            v_min + Volts::from_mv(320.0),
            v_min,
            Amps::new(5.0),
        );
        assert!(a.is_safe(), "emergencies: {}", a.emergencies);
    }

    #[test]
    fn missing_guardband_causes_emergencies() {
        let pdn = SkylakePdn::build(PdnVariant::Gated);
        let v_min = Volts::new(0.60);
        // Only 40 mV above Vmin: the 4-core restart must punch through.
        let a = analyze(
            &pdn.ladder,
            &client_event_family(),
            v_min + Volts::from_mv(40.0),
            v_min,
            Amps::new(5.0),
        );
        assert!(!a.is_safe());
        assert!(a.results.iter().any(|r| r.emergency));
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
        let plain = droop_sweep(&pdn.ladder, &sim, quiescent, &deltas, slew);

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

        // The returned vector is bit-identical to the plain sweep, and the
        // progress stream concatenates to exactly that vector.
        assert_eq!(streamed.len(), plain.len());
        for (a, b) in plain.iter().zip(&streamed) {
            assert_eq!(a.value().to_bits(), b.value().to_bits());
        }
        assert_eq!(seen.len(), plain.len());
        for (a, b) in plain.iter().zip(&seen) {
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
        let sharp = DidtEvent {
            name: "sharp".into(),
            delta: Amps::new(30.0),
            slew: Seconds::from_ns(1.0),
        };
        let staggered = DidtEvent {
            name: "staggered".into(),
            delta: Amps::new(30.0),
            slew: Seconds::from_ns(500.0),
        };
        let a = analyze(
            &pdn.ladder,
            &[sharp, staggered],
            Volts::new(1.0),
            Volts::new(0.6),
            Amps::new(5.0),
        );
        assert!(
            a.results[1].droop <= a.results[0].droop,
            "staggered {} vs sharp {}",
            a.results[1].droop,
            a.results[0].droop
        );
    }
}
