//! Quantized P-state (performance-state) tables.
//!
//! The DVFS firmware does not pick arbitrary frequencies: it steps through a
//! table of `(frequency, voltage)` operating points at 100 MHz granularity
//! generated from the part's V/F curve. The paper's frequency-gain results
//! are quantized to these bins (Secs. 3, 7.1).

use crate::error::PowerError;
use crate::vf::VfCurve;
use dg_pdn::units::{Hertz, Volts};

/// A single operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PState {
    /// Core clock frequency.
    pub frequency: Hertz,
    /// Required supply voltage (including the curve's guardband).
    pub voltage: Volts,
}

/// An ordered table of P-states, lowest frequency first.
#[derive(Debug, Clone, PartialEq)]
pub struct PStateTable {
    states: Vec<PState>,
}

impl PStateTable {
    /// Standard Intel frequency bin: 100 MHz.
    pub fn standard_bin() -> Hertz {
        Hertz::from_mhz(100.0)
    }

    /// Generates the table from a V/F curve at `bin` granularity, covering
    /// every bin multiple in `[fmin, fmax]`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if `bin` is non-positive or
    /// wider than the curve's whole range.
    pub fn from_curve(curve: &VfCurve, bin: Hertz) -> Result<Self, PowerError> {
        if !(bin.value() > 0.0 && bin.is_finite()) {
            return Err(PowerError::InvalidParameter {
                what: "frequency bin",
                value: bin.value(),
            });
        }
        let first_bin = (curve.fmin().value() / bin.value()).ceil() as u64;
        let last_bin = (curve.fmax().value() / bin.value()).floor() as u64;
        if first_bin > last_bin {
            return Err(PowerError::InvalidParameter {
                what: "frequency bin (wider than curve range)",
                value: bin.value(),
            });
        }
        let mut states = Vec::with_capacity((last_bin - first_bin + 1) as usize);
        for b in first_bin..=last_bin {
            let f = Hertz::new(b as f64 * bin.value());
            let voltage = curve.voltage_at(f)?;
            states.push(PState {
                frequency: f,
                voltage,
            });
        }
        Ok(PStateTable { states })
    }

    /// Placeholder returned for the impossible empty table (construction
    /// guarantees at least one state).
    const EMPTY: PState = PState {
        frequency: Hertz::ZERO,
        voltage: Volts::ZERO,
    };

    /// The lowest operating point (Pn, the most energy-efficient state).
    pub fn pn(&self) -> PState {
        self.states.first().copied().unwrap_or(Self::EMPTY)
    }

    /// The highest operating point (P0 / max turbo).
    pub fn p0(&self) -> PState {
        self.states.last().copied().unwrap_or(Self::EMPTY)
    }

    /// The highest state whose voltage does not exceed `vmax`, if any.
    pub fn highest_below_voltage(&self, vmax: Volts) -> Option<PState> {
        self.states
            .iter()
            .rev()
            .find(|s| s.voltage <= vmax)
            .copied()
    }

    /// Iterates from the highest state downward (the order in which the
    /// DVFS solver searches).
    pub fn iter_descending(&self) -> impl Iterator<Item = PState> + '_ {
        self.states.iter().rev().copied()
    }

    /// Returns a copy of the table truncated at `ceiling`: only states at
    /// or below that frequency remain. Used to apply a product's fused
    /// maximum turbo ratio.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if no state survives the
    /// truncation.
    pub fn truncated_at(&self, ceiling: Hertz) -> Result<PStateTable, PowerError> {
        // Tolerate sub-hertz floating-point error in the ceiling (e.g.
        // `from_ghz(4.1)` is 4_099_999_999.9999996 Hz).
        let cutoff = ceiling.value() + 1.0;
        let states: Vec<PState> = self
            .states
            .iter()
            .copied()
            .filter(|s| s.frequency.value() <= cutoff)
            .collect();
        if states.is_empty() {
            return Err(PowerError::InvalidParameter {
                what: "fused frequency ceiling (below the whole table)",
                value: ceiling.value(),
            });
        }
        Ok(PStateTable { states })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PStateTable {
        PStateTable::from_curve(&VfCurve::skylake_core(), PStateTable::standard_bin()).unwrap()
    }

    #[test]
    fn covers_full_range_at_100mhz() {
        let t = table();
        assert!((t.pn().frequency.as_mhz() - 800.0).abs() < 1e-6);
        assert!((t.p0().frequency.as_mhz() - 5000.0).abs() < 1e-6);
        assert_eq!(t.states.len(), 43); // 800..=5000 step 100
    }

    #[test]
    fn frequencies_are_bin_multiples_and_increasing() {
        let t = table();
        for w in t.states.windows(2) {
            assert!(w[1].frequency > w[0].frequency);
            assert!(w[1].voltage > w[0].voltage);
        }
        for s in &t.states {
            let bins = s.frequency.value() / PStateTable::standard_bin().value();
            assert!((bins - bins.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn highest_below_voltage_respects_ceiling() {
        let t = table();
        let vmax = Volts::new(1.10);
        let s = t.highest_below_voltage(vmax).unwrap();
        assert!(s.voltage <= vmax);
        // The next state up (if any) must exceed vmax.
        let next = t.states.iter().find(|x| x.frequency > s.frequency).unwrap();
        assert!(next.voltage > vmax);
    }

    #[test]
    fn highest_below_voltage_none_when_unreachable() {
        let t = table();
        assert!(t.highest_below_voltage(Volts::new(0.1)).is_none());
    }

    #[test]
    fn guardband_shifts_whole_table() {
        let curve = VfCurve::skylake_core();
        let base = PStateTable::from_curve(&curve, PStateTable::standard_bin()).unwrap();
        let gb = PStateTable::from_curve(
            &curve.with_guardband(Volts::from_mv(100.0)),
            PStateTable::standard_bin(),
        )
        .unwrap();
        for (a, b) in base.states.iter().zip(&gb.states) {
            assert!(((b.voltage - a.voltage).as_mv() - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn descending_iteration_starts_at_p0() {
        let t = table();
        let first = t.iter_descending().next().unwrap();
        assert_eq!(first.frequency, t.p0().frequency);
    }

    #[test]
    fn truncation_applies_fused_ceiling() {
        let t = table();
        let capped = t.truncated_at(Hertz::from_ghz(4.2)).unwrap();
        assert!((capped.p0().frequency.as_mhz() - 4200.0).abs() < 1e-6);
        assert_eq!(capped.pn().frequency, t.pn().frequency);
        assert!(capped.states.len() < t.states.len());
        // Ceiling below the table: error.
        assert!(t.truncated_at(Hertz::from_mhz(100.0)).is_err());
    }

    #[test]
    fn invalid_bins_rejected() {
        let c = VfCurve::skylake_core();
        assert!(PStateTable::from_curve(&c, Hertz::ZERO).is_err());
        assert!(PStateTable::from_curve(&c, Hertz::from_ghz(10.0)).is_err());
    }
}
