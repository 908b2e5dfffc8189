//! Die-to-die process variation and frequency binning.
//!
//! Every die comes out of the fab slightly different: its V/F curve sits a
//! few millivolts above or below nominal and its leakage varies
//! log-normally. The factory *bins* parts by the highest frequency each
//! die reaches within the voltage budget (paper footnote 1: parts are
//! individually calibrated). DarkGates interacts with binning directly —
//! the smaller guardband moves the whole population up the bin ladder.

use crate::vf::VfCurve;
use dg_pdn::units::{Hertz, Volts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distribution parameters of a process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessVariation {
    /// Standard deviation of the die's V/F voltage offset.
    pub sigma_voltage: Volts,
    /// Log-normal sigma of the leakage multiplier.
    pub sigma_leakage: f64,
}

impl ProcessVariation {
    /// A mature 14 nm-class process: σ_V ≈ 12 mV, leakage log-σ ≈ 0.20.
    pub fn mature_14nm() -> Self {
        ProcessVariation {
            sigma_voltage: Volts::from_mv(12.0),
            sigma_leakage: 0.20,
        }
    }

    /// Samples one die.
    fn sample(&self, rng: &mut StdRng) -> DieSample {
        let z_v = standard_normal(rng);
        let z_l = standard_normal(rng);
        DieSample {
            voltage_offset: self.sigma_voltage * z_v,
            leakage_factor: (self.sigma_leakage * z_l).exp(),
        }
    }

    /// Samples a population of `n` dies, seeded.
    pub fn population(&self, seed: u64, n: usize) -> Vec<DieSample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }
}

/// One sampled die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieSample {
    /// Voltage offset of this die's V/F curve (positive = slow die).
    pub voltage_offset: Volts,
    /// Multiplier on the reference leakage (log-normal around 1).
    pub leakage_factor: f64,
}

impl DieSample {
    /// This die's V/F curve, derived from the design's nominal curve.
    pub fn curve(&self, nominal: &VfCurve) -> VfCurve {
        nominal.with_voltage_offset(self.voltage_offset)
    }

    /// The highest bin (multiple of `bin`) this die reaches within
    /// `vmax` after paying `guardband`.
    fn fmax_bin(
        &self,
        nominal: &VfCurve,
        guardband: Volts,
        vmax: Volts,
        bin: Hertz,
    ) -> Option<Hertz> {
        self.curve(nominal)
            .with_guardband(guardband)
            .max_frequency_at_quantized(vmax, bin)
            .ok()
    }
}

/// Yield report of a binning run: how many dies landed in each bin.
#[derive(Debug, Clone, PartialEq)]
pub struct BinningReport {
    /// `(bin frequency, count)`, ascending.
    pub bins: Vec<(Hertz, usize)>,
    /// Dies that failed to reach even the lowest bin.
    pub rejects: usize,
}

impl BinningReport {
    /// Total dies binned (excluding rejects).
    fn yielded(&self) -> usize {
        self.bins.iter().map(|(_, n)| n).sum()
    }

    /// The median bin.
    pub fn median_bin(&self) -> Option<Hertz> {
        let total = self.yielded();
        if total == 0 {
            return None;
        }
        let mut acc = 0;
        for (f, n) in &self.bins {
            acc += n;
            if acc * 2 >= total {
                return Some(*f);
            }
        }
        None
    }
}

/// Bins a population against a voltage budget.
pub fn bin_population(
    population: &[DieSample],
    nominal: &VfCurve,
    guardband: Volts,
    vmax: Volts,
    bin: Hertz,
) -> BinningReport {
    let mut counts = std::collections::BTreeMap::<u64, usize>::new();
    let mut rejects = 0;
    for die in population {
        match die.fmax_bin(nominal, guardband, vmax, bin) {
            Some(f) => *counts.entry(f.value() as u64).or_insert(0) += 1,
            None => rejects += 1,
        }
    }
    BinningReport {
        bins: counts
            .into_iter()
            .map(|(f, n)| (Hertz::new(f as f64), n))
            .collect(),
        rejects,
    }
}

/// Standard-normal sample via Box–Muller.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Share of the yielded dies binned at or above `freq`.
    fn share_at_or_above(r: &BinningReport, freq: Hertz) -> f64 {
        let above: usize = r
            .bins
            .iter()
            .filter(|(f, _)| *f >= freq)
            .map(|(_, n)| n)
            .sum();
        above as f64 / r.yielded() as f64
    }

    fn nominal() -> VfCurve {
        VfCurve::skylake_core()
    }

    #[test]
    fn population_is_reproducible() {
        let pv = ProcessVariation::mature_14nm();
        assert_eq!(pv.population(1, 100), pv.population(1, 100));
        assert_ne!(pv.population(1, 100), pv.population(2, 100));
    }

    #[test]
    fn population_statistics_match_parameters() {
        let pv = ProcessVariation::mature_14nm();
        let pop = pv.population(42, 4000);
        let mean_v: f64 =
            pop.iter().map(|d| d.voltage_offset.value()).sum::<f64>() / pop.len() as f64;
        let var_v: f64 = pop
            .iter()
            .map(|d| (d.voltage_offset.value() - mean_v).powi(2))
            .sum::<f64>()
            / pop.len() as f64;
        assert!(mean_v.abs() < 1e-3, "mean offset {mean_v}");
        assert!(
            (var_v.sqrt() - 0.012).abs() < 2e-3,
            "sigma {}",
            var_v.sqrt()
        );
        // Leakage factors are positive with median ≈ 1.
        let mut leaks: Vec<f64> = pop.iter().map(|d| d.leakage_factor).collect();
        leaks.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = leaks[leaks.len() / 2];
        assert!((median - 1.0).abs() < 0.1, "median leak {median}");
        assert!(leaks[0] > 0.0);
    }

    #[test]
    fn fast_dies_bin_higher() {
        let fast = DieSample {
            voltage_offset: Volts::from_mv(-30.0),
            leakage_factor: 1.4, // fast dies leak more
        };
        let slow = DieSample {
            voltage_offset: Volts::from_mv(30.0),
            leakage_factor: 0.7,
        };
        let gb = Volts::from_mv(200.0);
        let vmax = Volts::new(1.35);
        let bin = Hertz::from_mhz(100.0);
        let f_fast = fast.fmax_bin(&nominal(), gb, vmax, bin).unwrap();
        let f_slow = slow.fmax_bin(&nominal(), gb, vmax, bin).unwrap();
        assert!(f_fast > f_slow);
    }

    #[test]
    fn smaller_guardband_lifts_the_population() {
        let pv = ProcessVariation::mature_14nm();
        let pop = pv.population(7, 1000);
        let vmax = Volts::new(1.40);
        let bin = Hertz::from_mhz(100.0);
        let gated = bin_population(&pop, &nominal(), Volts::from_mv(290.0), vmax, bin);
        let bypassed = bin_population(&pop, &nominal(), Volts::from_mv(185.0), vmax, bin);
        let m_gated = gated.median_bin().unwrap();
        let m_byp = bypassed.median_bin().unwrap();
        assert!(
            m_byp.as_mhz() - m_gated.as_mhz() >= 300.0,
            "median uplift {} MHz",
            m_byp.as_mhz() - m_gated.as_mhz()
        );
        // The bypassed population has a strictly better high-bin yield.
        let probe = m_gated + Hertz::from_mhz(200.0);
        assert!(share_at_or_above(&bypassed, probe) > share_at_or_above(&gated, probe));
    }

    #[test]
    fn binning_report_accounting() {
        let nominal_die = DieSample {
            voltage_offset: Volts::ZERO,
            leakage_factor: 1.0,
        };
        let pop = vec![nominal_die; 10];
        let r = bin_population(
            &pop,
            &nominal(),
            Volts::from_mv(200.0),
            Volts::new(1.35),
            Hertz::from_mhz(100.0),
        );
        assert_eq!(r.yielded(), 10);
        assert_eq!(r.rejects, 0);
        assert_eq!(r.bins.len(), 1);
        assert!((share_at_or_above(&r, r.median_bin().unwrap()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hopeless_dies_are_rejected() {
        // A die so slow the guardbanded curve exceeds Vmax even at fmin.
        let brick = DieSample {
            voltage_offset: Volts::from_mv(400.0),
            leakage_factor: 1.0,
        };
        let r = bin_population(
            &[brick],
            &nominal(),
            Volts::from_mv(300.0),
            Volts::new(1.30),
            Hertz::from_mhz(100.0),
        );
        assert_eq!(r.rejects, 1);
        assert_eq!(r.yielded(), 0);
        assert!(r.median_bin().is_none());
    }
}
