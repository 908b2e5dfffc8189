//! Lifetime-reliability guardband model (paper Sec. 4.2, third adjustment).
//!
//! Bypassing the power-gates keeps otherwise-idle cores powered: it
//! increases each core's *stress time* (voltage applied for a larger
//! fraction of the lifetime) and raises the junction temperature by
//! roughly 5 °C. Both accelerate NBTI/EM-style aging, and the Pcode must
//! add a small voltage guardband to preserve the rated lifetime.
//!
//! Lower-TDP systems lose more: their thermal ceiling forces cores idle (and
//! thus gated, on the baseline) for a much larger fraction of time, so
//! bypassing increases their stress time the most. The paper reports
//! < 5 mV at 91 W and < 20 mV at 35 W. We model the added guardband as
//!
//! ```text
//! ΔV_rel = K · Δstress(TDP) · exp(ΔT/θ_aging)
//! ```
//!
//! where `Δstress(TDP)` is the recovered-idle fraction (how much idle time
//! the gates used to reclaim) interpolated between the calibrated
//! endpoints.

use dg_power::units::{Celsius, Volts, Watts};

/// The extra junction temperature caused by bypassing (paper: ~5 °C).
const EXTRA_TEMPERATURE_C: f64 = 5.0;

/// Aging temperature scale (°C per e-fold of aging rate).
const AGING_THETA_C: f64 = 35.0;

/// TDP endpoints of the calibration.
const TDP_LOW_W: f64 = 35.0;
const TDP_HIGH_W: f64 = 91.0;

/// Idle-stress fraction recovered by power-gating at the low/high TDP
/// endpoints: thermally-squeezed 35 W parts idle (and gate) their cores far
/// more than 91 W parts.
const STRESS_LOW_TDP: f64 = 0.55;
const STRESS_HIGH_TDP: f64 = 0.14;

/// Aging coefficient, calibrated so the endpoints land at ≈20 mV / ≈5 mV.
const AGING_K_MV: f64 = 30.5;

/// The reliability stress/guardband model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReliabilityModel;

impl ReliabilityModel {
    /// Creates the model.
    pub fn new() -> Self {
        ReliabilityModel
    }

    /// The additional stress-time fraction a bypassed part accumulates at
    /// `tdp`, linearly interpolated between the calibrated endpoints and
    /// clamped outside them.
    fn stress_increase(&self, tdp: Watts) -> f64 {
        let t = ((tdp.value() - TDP_LOW_W) / (TDP_HIGH_W - TDP_LOW_W)).clamp(0.0, 1.0);
        STRESS_LOW_TDP + (STRESS_HIGH_TDP - STRESS_LOW_TDP) * t
    }

    /// The extra junction temperature of a bypassed part.
    pub fn extra_temperature(&self) -> Celsius {
        Celsius::new(EXTRA_TEMPERATURE_C)
    }

    /// The reliability voltage guardband a *bypassed* part must add at
    /// `tdp`. Gated parts add nothing (their stress profile is the rated
    /// one).
    pub fn guardband(&self, tdp: Watts) -> Volts {
        let stress = self.stress_increase(tdp);
        let temp_factor = (EXTRA_TEMPERATURE_C / AGING_THETA_C).exp();
        Volts::from_mv(AGING_K_MV * stress * temp_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_endpoints() {
        let m = ReliabilityModel::new();
        let gb_91 = m.guardband(Watts::new(91.0)).as_mv();
        let gb_35 = m.guardband(Watts::new(35.0)).as_mv();
        // Paper: < 5 mV at 91 W, < 20 mV at 35 W (and close to them).
        assert!((4.0..=5.0).contains(&gb_91), "91 W guardband {gb_91} mV");
        assert!((17.0..=20.0).contains(&gb_35), "35 W guardband {gb_35} mV");
    }

    #[test]
    fn guardband_monotone_decreasing_in_tdp() {
        let m = ReliabilityModel::new();
        let mut prev = f64::INFINITY;
        for tdp in [35.0, 45.0, 65.0, 91.0] {
            let gb = m.guardband(Watts::new(tdp)).as_mv();
            assert!(gb < prev, "{tdp} W: {gb} mV (prev {prev})");
            prev = gb;
        }
    }

    #[test]
    fn clamped_outside_calibrated_range() {
        let m = ReliabilityModel::new();
        assert_eq!(m.guardband(Watts::new(20.0)), m.guardband(Watts::new(35.0)));
        assert_eq!(
            m.guardband(Watts::new(120.0)),
            m.guardband(Watts::new(91.0))
        );
    }

    #[test]
    fn extra_temperature_is_paper_value() {
        let m = ReliabilityModel::new();
        assert!((m.extra_temperature().value() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stress_increase_larger_for_low_tdp() {
        let m = ReliabilityModel::new();
        assert!(m.stress_increase(Watts::new(35.0)) > 3.0 * m.stress_increase(Watts::new(91.0)));
    }
}
