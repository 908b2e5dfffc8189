//! Leakage-power model.
//!
//! Leakage power scales super-linearly with supply voltage and
//! exponentially with junction temperature. We use the standard compact
//! form
//!
//! ```text
//! P_lkg(V, T) = P₀ · (V/V₀)^α · exp((T − T₀)/θ)
//! ```
//!
//! calibrated per-component (core, graphics, uncore). Power-gating an idle
//! component removes this entire term — which is exactly the power that the
//! DarkGates bypass gives back in exchange for a better V/F curve.

use crate::error::PowerError;
use dg_pdn::units::{Celsius, Volts, Watts};

/// A calibrated leakage model for one component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageModel {
    /// Leakage at the reference point (`v0`, `t0`).
    pub p0: Watts,
    /// Reference voltage.
    pub v0: Volts,
    /// Reference temperature.
    pub t0: Celsius,
    /// Voltage exponent α (typically 2–3 for modern nodes).
    pub alpha: f64,
    /// Temperature scale θ in °C per e-fold (typically 25–40 °C).
    pub theta: f64,
}

impl LeakageModel {
    /// Creates a leakage model.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if `p0`, `v0`, `alpha`, or
    /// `theta` is non-positive or non-finite.
    pub fn new(
        p0: Watts,
        v0: Volts,
        t0: Celsius,
        alpha: f64,
        theta: f64,
    ) -> Result<Self, PowerError> {
        if !(p0.value() > 0.0 && p0.is_finite()) {
            return Err(PowerError::InvalidParameter {
                what: "reference leakage power",
                value: p0.value(),
            });
        }
        if !(v0.value() > 0.0 && v0.is_finite()) {
            return Err(PowerError::InvalidParameter {
                what: "reference voltage",
                value: v0.value(),
            });
        }
        if !(alpha > 0.0 && alpha.is_finite()) {
            return Err(PowerError::InvalidParameter {
                what: "voltage exponent",
                value: alpha,
            });
        }
        if !(theta > 0.0 && theta.is_finite()) {
            return Err(PowerError::InvalidParameter {
                what: "temperature scale",
                value: theta,
            });
        }
        Ok(LeakageModel {
            p0,
            v0,
            t0,
            alpha,
            theta,
        })
    }

    /// A Skylake-class CPU core: 0.60 W at 1.0 V / 50 °C.
    pub fn skylake_core() -> Self {
        // Constructed literally: all calibration constants are positive and
        // finite (a test re-validates every preset through `new`).
        LeakageModel {
            p0: Watts::new(0.60),
            v0: Volts::new(1.0),
            t0: Celsius::new(50.0),
            alpha: 2.2,
            theta: 30.0,
        }
    }

    /// A Skylake-class GT2 graphics engine: 1.2 W at 1.0 V / 50 °C.
    pub fn skylake_graphics() -> Self {
        LeakageModel {
            p0: Watts::new(1.2),
            v0: Volts::new(1.0),
            t0: Celsius::new(50.0),
            alpha: 2.2,
            theta: 30.0,
        }
    }

    /// Leakage power at voltage `v` and junction temperature `t`.
    ///
    /// A component whose supply is power-gated or whose VR is off leaks
    /// nothing: pass `v = 0` and this returns zero.
    pub fn power(&self, v: Volts, t: Celsius) -> Watts {
        if v.value() <= 0.0 {
            return Watts::ZERO;
        }
        let v_term = (v.value() / self.v0.value()).powf(self.alpha);
        let t_term = ((t.value() - self.t0.value()) / self.theta).exp();
        self.p0 * v_term * t_term
    }

    /// Returns a model scaled to `factor ×` the reference leakage (e.g. for
    /// die-to-die process variation, or for aggregating `n` identical
    /// components).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn scaled(&self, factor: f64) -> LeakageModel {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "invalid scale factor {factor}"
        );
        LeakageModel {
            p0: self.p0 * factor,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_presets_pass_validation() {
        // Backs the literal construction of the calibrated presets.
        for m in [
            LeakageModel::skylake_core(),
            LeakageModel::skylake_graphics(),
        ] {
            assert!(LeakageModel::new(m.p0, m.v0, m.t0, m.alpha, m.theta).is_ok());
        }
    }

    #[test]
    fn reference_point_returns_p0() {
        let m = LeakageModel::skylake_core();
        let p = m.power(m.v0, m.t0);
        assert!((p.value() - m.p0.value()).abs() < 1e-12);
    }

    #[test]
    fn leakage_increases_with_voltage_and_temperature() {
        let m = LeakageModel::skylake_core();
        let base = m.power(Volts::new(0.9), Celsius::new(50.0));
        assert!(m.power(Volts::new(1.1), Celsius::new(50.0)) > base);
        assert!(m.power(Volts::new(0.9), Celsius::new(80.0)) > base);
    }

    #[test]
    fn temperature_e_fold() {
        let m = LeakageModel::skylake_core();
        let p1 = m.power(m.v0, m.t0);
        let p2 = m.power(m.v0, Celsius::new(m.t0.value() + m.theta));
        assert!((p2.value() / p1.value() - std::f64::consts::E).abs() < 1e-9);
    }

    #[test]
    fn gated_component_leaks_nothing() {
        let m = LeakageModel::skylake_core();
        assert_eq!(m.power(Volts::ZERO, Celsius::new(100.0)), Watts::ZERO);
    }

    #[test]
    fn retention_voltage_leaks_much_less_than_active() {
        let m = LeakageModel::skylake_core();
        let active = m.power(Volts::new(1.2), Celsius::new(80.0));
        let retention = m.power(Volts::new(0.65), Celsius::new(45.0));
        assert!(retention.value() < 0.25 * active.value());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let v = Volts::new(1.0);
        let t = Celsius::new(50.0);
        assert!(LeakageModel::new(Watts::ZERO, v, t, 2.0, 30.0).is_err());
        assert!(LeakageModel::new(Watts::new(1.0), Volts::ZERO, t, 2.0, 30.0).is_err());
        assert!(LeakageModel::new(Watts::new(1.0), v, t, 0.0, 30.0).is_err());
        assert!(LeakageModel::new(Watts::new(1.0), v, t, 2.0, 0.0).is_err());
    }

    #[test]
    fn scaled_multiplies_reference() {
        let m = LeakageModel::skylake_core().scaled(4.0);
        assert!((m.p0.value() - 2.4).abs() < 1e-12);
        let p = m.power(m.v0, m.t0);
        assert!((p.value() - 2.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid scale factor")]
    fn zero_scale_panics() {
        LeakageModel::skylake_core().scaled(0.0);
    }

    #[test]
    fn four_core_leakage_in_plausible_band() {
        // Four active cores at 1.2 V / 80 °C should leak single-digit watts.
        let m = LeakageModel::skylake_core().scaled(4.0);
        let p = m.power(Volts::new(1.2), Celsius::new(80.0));
        assert!(
            (2.0..12.0).contains(&p.value()),
            "4-core leakage {p} implausible"
        );
    }
}
