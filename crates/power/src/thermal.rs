//! Lumped RC thermal model.
//!
//! Junction temperature follows a first-order RC response to dissipated
//! power: `C_th · dT/dt = P − (T − T_amb)/R_th`. The steady state is
//! `T = T_amb + R_th · P`; the paper's TDP levels map to cooling solutions
//! with different `R_th` (a 35 W desktop has a much weaker cooler than a
//! 91 W one).

use crate::error::PowerError;
use dg_pdn::units::{Celsius, Seconds, Watts};

/// A first-order thermal model (junction → ambient).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Junction-to-ambient thermal resistance in °C/W.
    pub r_th: f64,
    /// Thermal capacitance in J/°C.
    pub c_th: f64,
    /// Ambient temperature.
    pub t_ambient: Celsius,
}

impl ThermalModel {
    /// Creates a thermal model.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if `r_th` or `c_th` is
    /// non-positive or non-finite.
    pub fn new(r_th: f64, c_th: f64, t_ambient: Celsius) -> Result<Self, PowerError> {
        if !(r_th > 0.0 && r_th.is_finite()) {
            return Err(PowerError::InvalidParameter {
                what: "thermal resistance",
                value: r_th,
            });
        }
        if !(c_th > 0.0 && c_th.is_finite()) {
            return Err(PowerError::InvalidParameter {
                what: "thermal capacitance",
                value: c_th,
            });
        }
        Ok(ThermalModel {
            r_th,
            c_th,
            t_ambient,
        })
    }

    /// A cooling solution sized for a given TDP: the cooler keeps the
    /// junction at ~93 °C (2 °C below a 95 °C Tjmax) when dissipating
    /// exactly `tdp` watts at 25 °C ambient.
    ///
    /// # Panics
    ///
    /// Panics if `tdp` is not strictly positive.
    pub fn for_tdp(tdp: Watts) -> Self {
        assert!(
            tdp.value() > 0.0 && tdp.is_finite(),
            "TDP must be positive, got {tdp}"
        );
        // A positive finite TDP gives a positive finite resistance, so
        // `new`'s validation cannot fire.
        ThermalModel {
            r_th: (93.0 - 25.0) / tdp.value(),
            c_th: 120.0,
            t_ambient: Celsius::new(25.0),
        }
    }

    /// Steady-state junction temperature at constant power `p`.
    pub fn steady_state(&self, p: Watts) -> Celsius {
        Celsius::new(self.t_ambient.value() + self.r_th * p.value())
    }

    /// Maximum sustained power that keeps the junction at or below `tjmax`.
    pub fn max_sustained_power(&self, tjmax: Celsius) -> Watts {
        Watts::new(((tjmax - self.t_ambient).value() / self.r_th).max(0.0))
    }

    /// Advances the junction temperature by `dt` under power `p` using the
    /// exact exponential solution of the first-order ODE.
    pub fn step(&self, t_junction: Celsius, p: Watts, dt: Seconds) -> Celsius {
        let t_target = self.steady_state(p).value();
        let tau = self.r_th * self.c_th;
        let decay = (-dt.value() / tau).exp();
        Celsius::new(t_target + (t_junction.value() - t_target) * decay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_is_linear_in_power() {
        let m = ThermalModel::new(0.75, 120.0, Celsius::new(25.0)).unwrap();
        let t = m.steady_state(Watts::new(80.0));
        assert!((t.value() - 85.0).abs() < 1e-9);
        assert_eq!(m.steady_state(Watts::ZERO), m.t_ambient);
    }

    #[test]
    fn for_tdp_hits_93c_at_tdp() {
        for tdp in [35.0, 45.0, 65.0, 91.0] {
            let m = ThermalModel::for_tdp(Watts::new(tdp));
            let t = m.steady_state(Watts::new(tdp));
            assert!((t.value() - 93.0).abs() < 1e-9, "TDP {tdp}: {t}");
        }
    }

    #[test]
    fn weaker_cooler_for_lower_tdp() {
        let m35 = ThermalModel::for_tdp(Watts::new(35.0));
        let m91 = ThermalModel::for_tdp(Watts::new(91.0));
        assert!(m35.r_th > m91.r_th);
    }

    #[test]
    fn max_sustained_power_inverts_steady_state() {
        let m = ThermalModel::for_tdp(Watts::new(65.0));
        let p = m.max_sustained_power(Celsius::new(93.0));
        assert!((p.value() - 65.0).abs() < 1e-9);
        // Below-ambient Tjmax clamps to zero.
        assert_eq!(m.max_sustained_power(Celsius::new(10.0)), Watts::ZERO);
    }

    #[test]
    fn step_converges_to_steady_state() {
        let m = ThermalModel::for_tdp(Watts::new(65.0));
        let mut t = m.t_ambient;
        let p = Watts::new(65.0);
        // 20 time constants: fully settled.
        for _ in 0..20 {
            t = m.step(t, p, Seconds::new(m.r_th * m.c_th));
        }
        assert!((t.value() - m.steady_state(p).value()).abs() < 0.01);
    }

    #[test]
    fn step_is_exact_exponential() {
        let m = ThermalModel::new(1.0, 100.0, Celsius::new(25.0)).unwrap();
        let p = Watts::new(50.0);
        // One time constant from ambient: 1 − 1/e of the way to target.
        let t = m.step(m.t_ambient, p, Seconds::new(m.r_th * m.c_th));
        let expected = 25.0 + 50.0 * (1.0 - (-1.0f64).exp());
        assert!((t.value() - expected).abs() < 1e-9);
    }

    #[test]
    fn cooling_when_power_removed() {
        let m = ThermalModel::for_tdp(Watts::new(91.0));
        let hot = Celsius::new(90.0);
        let cooler = m.step(hot, Watts::ZERO, Seconds::new(10.0));
        assert!(cooler < hot);
        assert!(cooler > m.t_ambient);
    }

    #[test]
    fn validation() {
        assert!(ThermalModel::new(0.0, 100.0, Celsius::new(25.0)).is_err());
        assert!(ThermalModel::new(1.0, 0.0, Celsius::new(25.0)).is_err());
        assert!(ThermalModel::new(f64::NAN, 100.0, Celsius::new(25.0)).is_err());
    }

    #[test]
    #[should_panic(expected = "TDP must be positive")]
    fn zero_tdp_panics() {
        ThermalModel::for_tdp(Watts::ZERO);
    }
}
