//! Energy accounting: integrates power over time.
//!
//! Plays the role of the paper's NI-DAQ measurement rig (Sec. 6): the
//! simulator feeds per-step power samples into an [`EnergyCounter`] and the
//! benchmarks read back average power and total energy.

use dg_pdn::units::{Seconds, Watts};

/// Accumulates energy from `(power, duration)` samples.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyCounter {
    joules: f64,
    elapsed: f64,
}

impl EnergyCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `power` sustained for `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or `power` is non-finite.
    pub fn record(&mut self, power: Watts, dt: Seconds) {
        assert!(dt.value() >= 0.0, "negative duration {dt}");
        assert!(power.is_finite(), "non-finite power");
        self.joules += power.value() * dt.value();
        self.elapsed += dt.value();
    }

    /// Total accumulated energy in joules.
    pub fn energy_joules(&self) -> f64 {
        self.joules
    }

    /// Total elapsed time.
    pub fn elapsed(&self) -> Seconds {
        Seconds::new(self.elapsed)
    }

    /// Average power over the recorded interval (zero if nothing recorded).
    pub fn average_power(&self) -> Watts {
        if self.elapsed <= 0.0 {
            return Watts::ZERO;
        }
        Watts::new(self.joules / self.elapsed)
    }

    /// Merges another counter into this one (summing energy and time).
    pub fn merge(&mut self, other: &EnergyCounter) {
        self.joules += other.joules;
        self.elapsed += other.elapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_energy_and_average() {
        let mut c = EnergyCounter::new();
        c.record(Watts::new(10.0), Seconds::new(2.0));
        c.record(Watts::new(30.0), Seconds::new(2.0));
        assert!((c.energy_joules() - 80.0).abs() < 1e-12);
        assert!((c.average_power().value() - 20.0).abs() < 1e-12);
        assert!((c.elapsed().value() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_counter_is_zero() {
        let c = EnergyCounter::new();
        assert_eq!(c.average_power(), Watts::ZERO);
        assert_eq!(c.energy_joules(), 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = EnergyCounter::new();
        a.record(Watts::new(5.0), Seconds::new(1.0));
        let mut b = EnergyCounter::new();
        b.record(Watts::new(15.0), Seconds::new(1.0));
        a.merge(&b);
        assert!((a.energy_joules() - 20.0).abs() < 1e-12);
        assert!((a.average_power().value() - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_panics() {
        let mut c = EnergyCounter::new();
        c.record(Watts::new(1.0), Seconds::new(-1.0));
    }
}
