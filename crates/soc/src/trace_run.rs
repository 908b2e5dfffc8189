//! Phase-trace playback: drives the Pcode firmware and the idle governor
//! through a busy/idle [`PhaseTrace`], producing the kind of mixed-activity
//! profile behind the paper's energy-efficiency scenarios.

use crate::products::Product;
use dg_cstates::governor::IdleGovernor;
use dg_cstates::latency::LatencyTable;
use dg_pmu::pcode::{Pcode, PcodeConfig, PcodeEvent};
use dg_power::dynamic::CdynProfile;
use dg_power::units::{Hertz, Seconds, Watts};
use dg_workloads::trace::{PhaseTrace, TracePhaseKind};

/// Result of replaying a trace on one product.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Trace name.
    pub trace: String,
    /// Average package power over the whole trace.
    pub avg_power: Watts,
    /// Total energy in joules.
    pub energy_joules: f64,
    /// Time-averaged busy-phase core frequency.
    pub avg_busy_frequency: Hertz,
    /// Fraction of time the package sat in its deepest supported state.
    pub deepest_state_fraction: f64,
    /// Wake transitions performed.
    pub wakes: u64,
    /// Governor demotions applied.
    pub demotions: u64,
}

/// Builds the Pcode configuration for a product (all-core table — traces
/// schedule arbitrary core counts).
// dg-analyze: allow(unreached-pub, reason = "live (run_trace boots the Pcode with it); tests/firmware.rs names it")
pub fn pcode_config(product: &Product) -> PcodeConfig {
    PcodeConfig {
        mode: product.mode,
        table: product.table_ac.clone(),
        limits: product.limits,
        thermal: product.thermal,
        core_leakage: product.core_leakage,
        core_count: product.core_count,
        uncore_active: product.uncore_active(),
        deepest_pkg: product.deepest_pkg_cstate,
        latency: LatencyTable::skylake(),
    }
}

/// Replays `trace` through the firmware at step `dt`.
///
/// The governor predicts each idle period from history; the firmware picks
/// a package C-state for that prediction; actual durations are fed back,
/// so mispredictions demote later selections.
///
/// # Examples
///
/// ```
/// use dg_soc::products::Product;
/// use dg_soc::trace_run::run_trace;
/// use dg_power::units::{Seconds, Watts};
/// use dg_workloads::trace::rmt_trace;
///
/// let product = Product::skylake_s(Watts::new(91.0));
/// let trace = rmt_trace(7, Seconds::new(30.0));
/// let report = run_trace(&product, &trace, Seconds::from_ms(2.0));
/// // A Ready-Mode platform averages around a watt.
/// assert!(report.avg_power.value() < 2.0);
/// ```
///
/// # Panics
///
/// Panics if `dt` is not strictly positive.
pub fn run_trace(product: &Product, trace: &PhaseTrace, dt: Seconds) -> TraceReport {
    assert!(dt.value() > 0.0, "dt must be positive, got {dt}");
    let mut pcode = Pcode::boot(pcode_config(product));
    let mut governor = IdleGovernor::new(
        product.gating_config(),
        product.deepest_pkg_cstate,
        Seconds::from_ms(2.0),
    );

    let mut busy_freq_time = 0.0f64;
    let mut busy_time = 0.0f64;

    for phase in &trace.phases {
        match phase.kind {
            TracePhaseKind::Busy { active_cores, .. } => {
                pcode.handle(PcodeEvent::WorkloadChange {
                    active_cores: active_cores.min(product.core_count),
                    // Busy phases always carry a valid Cdyn; fall back to
                    // a typical core for malformed hand-built traces.
                    cdyn: phase.cdyn().unwrap_or_else(CdynProfile::core_typical),
                });
            }
            TracePhaseKind::Idle => {
                // The governor's prediction becomes the firmware's hint.
                let predicted = governor.predictor().predict();
                let _selected = governor.select();
                pcode.handle(PcodeEvent::IdleRequest {
                    expected_idle: predicted,
                });
            }
        }
        let mut remaining = phase.duration.value();
        while remaining > 0.0 {
            let step = dt.value().min(remaining);
            pcode.step(Seconds::new(step));
            if matches!(phase.kind, TracePhaseKind::Busy { .. }) {
                if let Some(f) = pcode.frequency() {
                    busy_freq_time += f.value() * step;
                }
                busy_time += step;
            }
            remaining -= step;
        }
        if phase.kind == TracePhaseKind::Idle {
            governor.record_idle(phase.duration);
        }
    }

    let telemetry = pcode.telemetry();
    let deepest = product.deepest_pkg_cstate;
    TraceReport {
        trace: trace.name.clone(),
        avg_power: telemetry.energy.average_power(),
        energy_joules: telemetry.energy.energy_joules(),
        avg_busy_frequency: Hertz::new(busy_freq_time / busy_time.max(f64::MIN_POSITIVE)),
        deepest_state_fraction: telemetry.residency.idle_fraction(deepest),
        wakes: telemetry.wakes,
        demotions: governor.stats().demotions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_cstates::states::PackageCstate;
    use dg_workloads::trace::{bursty, rmt_trace, video_playback};

    fn dt() -> Seconds {
        Seconds::from_ms(1.0)
    }

    #[test]
    fn rmt_trace_mostly_sleeps_in_deepest_state() {
        let product = Product::skylake_s(Watts::new(91.0));
        let trace = rmt_trace(11, Seconds::new(120.0));
        let r = run_trace(&product, &trace, dt());
        assert!(
            r.deepest_state_fraction > 0.8,
            "deepest fraction {}",
            r.deepest_state_fraction
        );
        assert!(r.avg_power.value() < 2.0, "avg power {}", r.avg_power);
        assert!(r.wakes > 0);
    }

    #[test]
    fn darkgates_with_c8_beats_c7_clamp_on_rmt() {
        // The Fig. 10 mechanism replayed through the live firmware.
        let dg = Product::skylake_s(Watts::new(91.0));
        let mut dg_c7 = dg.clone();
        dg_c7.deepest_pkg_cstate = PackageCstate::C7;
        let trace = rmt_trace(23, Seconds::new(120.0));
        let with_c8 = run_trace(&dg, &trace, dt());
        let clamped = run_trace(&dg_c7, &trace, dt());
        let reduction = 1.0 - with_c8.avg_power / clamped.avg_power;
        assert!(
            reduction > 0.3,
            "C8 reduction {reduction} (with {} vs clamped {})",
            with_c8.avg_power,
            clamped.avg_power
        );
    }

    #[test]
    fn bursty_trace_reaches_high_frequency_when_busy() {
        let product = Product::skylake_s(Watts::new(91.0));
        let trace = bursty(
            5,
            Seconds::new(30.0),
            Seconds::new(0.5),
            Seconds::new(0.5),
            1,
        );
        let r = run_trace(&product, &trace, dt());
        assert!(
            r.avg_busy_frequency.as_ghz() > 3.0,
            "busy frequency {}",
            r.avg_busy_frequency
        );
    }

    #[test]
    fn video_playback_is_low_power() {
        let product = Product::skylake_h(Watts::new(35.0));
        let trace = video_playback(Seconds::new(10.0));
        let r = run_trace(&product, &trace, Seconds::from_ms(0.5));
        // Frame gaps are ~29 ms: too short for deep states, so power sits
        // well above idle but far below TDP.
        assert!(
            (1.0..20.0).contains(&r.avg_power.value()),
            "avg power {}",
            r.avg_power
        );
    }

    #[test]
    fn gated_baseline_idles_cheaper_per_phase() {
        let s = Product::skylake_s(Watts::new(65.0));
        let h = Product::skylake_h(Watts::new(65.0));
        // Medium idles: long enough for C7 but not C8's break-even, so the
        // DarkGates part pays its un-gated C7 leakage.
        let trace = bursty(
            9,
            Seconds::new(30.0),
            Seconds::new(0.05),
            Seconds::from_ms(2.0),
            1,
        );
        let rs = run_trace(&s, &trace, Seconds::from_ms(0.25));
        let rh = run_trace(&h, &trace, Seconds::from_ms(0.25));
        assert!(
            rh.avg_power <= rs.avg_power * 1.05,
            "gated {} vs bypassed {}",
            rh.avg_power,
            rs.avg_power
        );
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_panics() {
        let product = Product::skylake_s(Watts::new(91.0));
        let trace = rmt_trace(1, Seconds::new(1.0));
        run_trace(&product, &trace, Seconds::ZERO);
    }
}
