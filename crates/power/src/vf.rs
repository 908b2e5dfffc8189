//! Voltage/frequency (V/F) curves with guardband arithmetic.
//!
//! Every Intel part is factory-calibrated to a per-unit V/F curve: the
//! minimum supply voltage at which the logic meets timing at each frequency
//! (paper footnote 1). The PMU adds *guardbands* (droop, reliability) on top
//! of the bare curve; the sum must stay below the reliability limit `Vmax`,
//! which caps the maximum attainable frequency `Fmax`. DarkGates improves
//! `Fmax` precisely by shrinking the droop guardband.

use crate::error::PowerError;
use dg_pdn::units::{Hertz, Volts};

/// A monotone piecewise-linear V/F curve.
///
/// Invariants: at least two points; frequencies strictly increasing;
/// voltages strictly increasing (a higher frequency always needs a higher
/// voltage).
#[derive(Debug, Clone, PartialEq)]
pub struct VfCurve {
    points: Vec<(Hertz, Volts)>,
    /// Constant guardband added on top of the bare curve.
    guardband: Volts,
}

impl VfCurve {
    /// Creates a curve from calibration points.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidCurve`] if fewer than two points are
    /// given or if frequency/voltage are not strictly increasing.
    pub fn new(points: Vec<(Hertz, Volts)>) -> Result<Self, PowerError> {
        if points.len() < 2 {
            return Err(PowerError::InvalidCurve {
                reason: "a V/F curve needs at least two points",
            });
        }
        for pair in points.windows(2) {
            if let [lo, hi] = pair {
                if hi.0 <= lo.0 {
                    return Err(PowerError::InvalidCurve {
                        reason: "frequencies must be strictly increasing",
                    });
                }
                if hi.1 <= lo.1 {
                    return Err(PowerError::InvalidCurve {
                        reason: "voltages must be strictly increasing",
                    });
                }
            }
        }
        Ok(VfCurve {
            points,
            guardband: Volts::ZERO,
        })
    }

    /// The calibrated Skylake-class core curve used throughout the
    /// reproduction (0.8 GHz @ 0.62 V up to 5.0 GHz @ 1.34 V, steepening
    /// toward the top as real curves do).
    pub fn skylake_core() -> Self {
        // Constructed literally: the calibration points are strictly
        // increasing in both axes (a test re-validates them through `new`).
        VfCurve {
            guardband: Volts::ZERO,
            points: vec![
                (Hertz::from_ghz(0.8), Volts::new(0.620)),
                (Hertz::from_ghz(1.2), Volts::new(0.650)),
                (Hertz::from_ghz(1.6), Volts::new(0.690)),
                (Hertz::from_ghz(2.0), Volts::new(0.740)),
                (Hertz::from_ghz(2.4), Volts::new(0.800)),
                (Hertz::from_ghz(2.8), Volts::new(0.862)),
                (Hertz::from_ghz(3.2), Volts::new(0.930)),
                (Hertz::from_ghz(3.6), Volts::new(1.010)),
                (Hertz::from_ghz(4.0), Volts::new(1.100)),
                (Hertz::from_ghz(4.4), Volts::new(1.190)),
                (Hertz::from_ghz(4.8), Volts::new(1.285)),
                (Hertz::from_ghz(5.0), Volts::new(1.340)),
            ],
        }
    }

    /// The calibrated Skylake-class graphics-engine curve
    /// (300 MHz @ 0.60 V up to 1.25 GHz @ 1.05 V).
    pub fn skylake_graphics() -> Self {
        // Constructed literally; a test re-validates the points via `new`.
        VfCurve {
            guardband: Volts::ZERO,
            points: vec![
                (Hertz::from_mhz(300.0), Volts::new(0.600)),
                (Hertz::from_mhz(600.0), Volts::new(0.700)),
                (Hertz::from_mhz(900.0), Volts::new(0.830)),
                (Hertz::from_mhz(1150.0), Volts::new(0.980)),
                (Hertz::from_mhz(1250.0), Volts::new(1.050)),
            ],
        }
    }

    /// The calibration points (bare, without guardband).
    pub fn points(&self) -> &[(Hertz, Volts)] {
        &self.points
    }

    /// The guardband currently applied on top of the bare curve.
    pub fn guardband(&self) -> Volts {
        self.guardband
    }

    /// Returns a copy of the curve with `guardband` applied on top.
    ///
    /// # Panics
    ///
    /// Panics if the guardband is negative or non-finite.
    pub fn with_guardband(&self, guardband: Volts) -> Self {
        assert!(
            guardband.value() >= 0.0 && guardband.is_finite(),
            "invalid guardband {guardband}"
        );
        VfCurve {
            points: self.points.clone(),
            guardband,
        }
    }

    /// Returns a copy with every calibration point's voltage shifted by
    /// `offset` (positive = a slower die that needs more voltage). The
    /// guardband is preserved. Used by the process-variation model.
    ///
    /// # Panics
    ///
    /// Panics if the shift would push the lowest point to zero volts or
    /// below.
    pub fn with_voltage_offset(&self, offset: Volts) -> Self {
        let points: Vec<(Hertz, Volts)> =
            self.points.iter().map(|&(f, v)| (f, v + offset)).collect();
        let lowest = points.first().map_or(f64::INFINITY, |p| p.1.value());
        assert!(
            lowest > 0.0,
            "offset {offset} drives the curve non-positive"
        );
        VfCurve {
            points,
            guardband: self.guardband,
        }
    }

    /// Lowest calibrated frequency.
    pub fn fmin(&self) -> Hertz {
        // The constructor guarantees at least two points.
        self.points.first().map_or(Hertz::ZERO, |p| p.0)
    }

    /// Highest calibrated frequency (the curve's own ceiling, independent of
    /// any voltage limit).
    pub fn fmax(&self) -> Hertz {
        self.points.last().map_or(Hertz::ZERO, |p| p.0)
    }

    /// Required supply voltage (curve + guardband) at frequency `f`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::OutOfRange`] if `f` lies outside the calibrated
    /// frequency range.
    pub fn voltage_at(&self, f: Hertz) -> Result<Volts, PowerError> {
        if f < self.fmin() || f > self.fmax() {
            return Err(PowerError::OutOfRange {
                what: "frequency",
                value: f.value(),
                min: self.fmin().value(),
                max: self.fmax().value(),
            });
        }
        for w in self.points.windows(2) {
            if let &[(f0, v0), (f1, v1)] = w {
                if f <= f1 {
                    let t = (f - f0) / (f1 - f0);
                    return Ok(v0 + (v1 - v0) * t + self.guardband);
                }
            }
        }
        // Unreachable: the range check above guarantees f ≤ fmax.
        Err(PowerError::OutOfRange {
            what: "frequency",
            value: f.value(),
            min: self.fmin().value(),
            max: self.fmax().value(),
        })
    }

    /// Maximum attainable frequency with supply voltage `v` available
    /// (inverse of [`voltage_at`], including the guardband).
    ///
    /// Returns the curve's [`fmax`] when `v` exceeds the top of the curve.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::OutOfRange`] if `v` is below even the lowest
    /// operating point (the part cannot run at all at this voltage).
    ///
    /// [`voltage_at`]: VfCurve::voltage_at
    /// [`fmax`]: VfCurve::fmax
    // dg-analyze: allow(unreached-pub, reason = "live (max_frequency_at_quantized runs it); crates/power/tests/properties.rs names it")
    pub fn max_frequency_at(&self, v: Volts) -> Result<Hertz, PowerError> {
        let v_bare = v - self.guardband;
        let v_lo = self.points.first().map_or(Volts::ZERO, |p| p.1);
        if v_bare < v_lo {
            return Err(PowerError::OutOfRange {
                what: "voltage",
                value: v.value(),
                min: (v_lo + self.guardband).value(),
                max: f64::INFINITY,
            });
        }
        let v_hi = self.points.last().map_or(Volts::ZERO, |p| p.1);
        if v_bare >= v_hi {
            return Ok(self.fmax());
        }
        for w in self.points.windows(2) {
            if let &[(f0, v0), (f1, v1)] = w {
                if v_bare <= v1 {
                    let t = (v_bare - v0) / (v1 - v0);
                    return Ok(f0 + (f1 - f0) * t);
                }
            }
        }
        // Unreachable: v_bare < v_hi, so some window covers it.
        Ok(self.fmax())
    }

    /// [`max_frequency_at`] quantized *down* to a multiple of `bin`
    /// (Intel parts step frequency in 100 MHz bins; paper Sec. 3).
    ///
    /// # Errors
    ///
    /// Propagates [`PowerError::OutOfRange`] from [`max_frequency_at`];
    /// additionally errors if the quantized frequency falls below `fmin`.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is not strictly positive.
    ///
    /// [`max_frequency_at`]: VfCurve::max_frequency_at
    pub fn max_frequency_at_quantized(&self, v: Volts, bin: Hertz) -> Result<Hertz, PowerError> {
        assert!(bin.value() > 0.0, "bin must be positive");
        let f = self.max_frequency_at(v)?;
        let quantized = Hertz::new((f.value() / bin.value()).floor() * bin.value());
        if quantized < self.fmin() {
            return Err(PowerError::OutOfRange {
                what: "quantized frequency",
                value: quantized.value(),
                min: self.fmin().value(),
                max: self.fmax().value(),
            });
        }
        Ok(quantized)
    }

    /// Local slope dV/df around frequency `f`, in volts per hertz.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::OutOfRange`] if `f` lies outside the curve.
    // dg-analyze: allow(unreached-pub, reason = "only vf::tests calls it; deleting it retires slope_steepens_toward_top (ROADMAP item 4)")
    pub fn slope_at(&self, f: Hertz) -> Result<f64, PowerError> {
        if f < self.fmin() || f > self.fmax() {
            return Err(PowerError::OutOfRange {
                what: "frequency",
                value: f.value(),
                min: self.fmin().value(),
                max: self.fmax().value(),
            });
        }
        for w in self.points.windows(2) {
            if let &[(f0, v0), (f1, v1)] = w {
                if f <= f1 {
                    return Ok((v1 - v0).value() / (f1 - f0).value());
                }
            }
        }
        // Unreachable: the range check above guarantees f ≤ fmax.
        Ok(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(VfCurve::new(vec![(Hertz::from_ghz(1.0), Volts::new(0.7))]).is_err());
        // Non-increasing frequency.
        assert!(VfCurve::new(vec![
            (Hertz::from_ghz(2.0), Volts::new(0.7)),
            (Hertz::from_ghz(1.0), Volts::new(0.8)),
        ])
        .is_err());
        // Non-increasing voltage.
        assert!(VfCurve::new(vec![
            (Hertz::from_ghz(1.0), Volts::new(0.8)),
            (Hertz::from_ghz(2.0), Volts::new(0.8)),
        ])
        .is_err());
    }

    #[test]
    fn literal_curves_pass_validation() {
        // Backs the literal construction of the calibrated constants.
        for c in [VfCurve::skylake_core(), VfCurve::skylake_graphics()] {
            assert!(VfCurve::new(c.points().to_vec()).is_ok());
        }
    }

    #[test]
    fn interpolation_hits_calibration_points() {
        let c = VfCurve::skylake_core();
        for &(f, v) in c.points() {
            let got = c.voltage_at(f).unwrap();
            assert!((got.value() - v.value()).abs() < 1e-12, "{f}: {got} vs {v}");
        }
    }

    #[test]
    fn interpolation_between_points_is_linear() {
        let c = VfCurve::new(vec![
            (Hertz::from_ghz(1.0), Volts::new(0.7)),
            (Hertz::from_ghz(2.0), Volts::new(0.9)),
        ])
        .unwrap();
        let v = c.voltage_at(Hertz::from_ghz(1.5)).unwrap();
        assert!((v.value() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_frequency_rejected() {
        let c = VfCurve::skylake_core();
        assert!(c.voltage_at(Hertz::from_ghz(0.5)).is_err());
        assert!(c.voltage_at(Hertz::from_ghz(5.5)).is_err());
    }

    #[test]
    fn inverse_round_trips() {
        let c = VfCurve::skylake_core();
        for ghz in [1.0, 2.2, 3.7, 4.5] {
            let f = Hertz::from_ghz(ghz);
            let v = c.voltage_at(f).unwrap();
            let f_back = c.max_frequency_at(v).unwrap();
            assert!(
                (f_back.value() - f.value()).abs() < 1e3,
                "{ghz} GHz: got {f_back}"
            );
        }
    }

    #[test]
    fn voltage_above_curve_clamps_to_fmax() {
        let c = VfCurve::skylake_core();
        assert_eq!(c.max_frequency_at(Volts::new(2.0)).unwrap(), c.fmax());
    }

    #[test]
    fn voltage_below_curve_errors() {
        let c = VfCurve::skylake_core();
        assert!(c.max_frequency_at(Volts::new(0.3)).is_err());
    }

    #[test]
    fn guardband_shifts_required_voltage_up() {
        let c = VfCurve::skylake_core();
        let gb = c.with_guardband(Volts::from_mv(100.0));
        let f = Hertz::from_ghz(3.0);
        let dv = gb.voltage_at(f).unwrap() - c.voltage_at(f).unwrap();
        assert!((dv.as_mv() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn smaller_guardband_raises_fmax_at_vmax() {
        let c = VfCurve::skylake_core();
        let vmax = Volts::new(1.35);
        let f_tight = c
            .with_guardband(Volts::from_mv(200.0))
            .max_frequency_at(vmax)
            .unwrap();
        let f_loose = c
            .with_guardband(Volts::from_mv(100.0))
            .max_frequency_at(vmax)
            .unwrap();
        assert!(f_loose > f_tight);
        // ~100 mV at ~22 mV/100MHz top slope ⇒ roughly 300–600 MHz.
        let delta_mhz = f_loose.as_mhz() - f_tight.as_mhz();
        assert!((250.0..700.0).contains(&delta_mhz), "delta {delta_mhz} MHz");
    }

    #[test]
    fn quantization_floors_to_bin() {
        let c = VfCurve::skylake_core();
        let bin = Hertz::from_mhz(100.0);
        let v = Volts::new(1.0);
        let f = c.max_frequency_at(v).unwrap();
        let q = c.max_frequency_at_quantized(v, bin).unwrap();
        assert!(q <= f);
        assert!((f.value() - q.value()) < bin.value());
        let bins = q.value() / bin.value();
        assert!((bins - bins.round()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bin must be positive")]
    fn zero_bin_panics() {
        let c = VfCurve::skylake_core();
        let _ = c.max_frequency_at_quantized(Volts::new(1.0), Hertz::ZERO);
    }

    #[test]
    fn slope_steepens_toward_top() {
        let c = VfCurve::skylake_core();
        let s_low = c.slope_at(Hertz::from_ghz(1.0)).unwrap();
        let s_high = c.slope_at(Hertz::from_ghz(4.6)).unwrap();
        assert!(s_high > s_low);
    }

    #[test]
    fn graphics_curve_spans_advertised_range() {
        let g = VfCurve::skylake_graphics();
        assert!((g.fmin().as_mhz() - 300.0).abs() < 1e-9);
        assert!(g.fmax().as_mhz() >= 1150.0);
    }

    #[test]
    #[should_panic(expected = "invalid guardband")]
    fn negative_guardband_panics() {
        VfCurve::skylake_core().with_guardband(Volts::new(-0.1));
    }
}
