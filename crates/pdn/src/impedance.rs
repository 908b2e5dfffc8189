//! Frequency-domain impedance analysis.
//!
//! Produces the impedance–frequency profile of a PDN ladder over a
//! logarithmic sweep — the quantity the DarkGates paper plots in Fig. 4 to
//! show that bypassing the power-gates roughly halves the system impedance.

use crate::error::PdnError;
use crate::ladder::Ladder;
use crate::units::{Hertz, Ohms};

/// Frequencies evaluated per worker task in [`ImpedanceAnalyzer::profile`]:
/// the default 400-point sweep still spreads over every worker, while each
/// task amortizes its scheduling cost across a cache-friendly run of points.
pub(crate) const SWEEP_CHUNK: usize = 64;

/// Configuration for a logarithmic frequency sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpedanceAnalyzer {
    /// Sweep start frequency (inclusive).
    pub start: Hertz,
    /// Sweep stop frequency (inclusive).
    pub stop: Hertz,
    /// Number of sample points, log-spaced.
    pub points: usize,
}

impl Default for ImpedanceAnalyzer {
    /// The default sweep covers 10 kHz – 1 GHz with 400 points, bracketing
    /// the first/second/third droop resonances of a client PDN.
    fn default() -> Self {
        ImpedanceAnalyzer {
            start: Hertz::new(10e3),
            stop: Hertz::from_ghz(1.0),
            points: 400,
        }
    }
}

impl ImpedanceAnalyzer {
    /// Creates an analyzer with a custom sweep.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidSweep`] if the range is empty, inverted,
    /// non-positive, or has fewer than two points.
    pub fn new(start: Hertz, stop: Hertz, points: usize) -> Result<Self, PdnError> {
        if !(start.value() > 0.0 && stop.value() > start.value()) || points < 2 {
            return Err(PdnError::InvalidSweep {
                start_hz: start.value(),
                stop_hz: stop.value(),
            });
        }
        Ok(ImpedanceAnalyzer {
            start,
            stop,
            points,
        })
    }

    /// The log-spaced sample frequencies of this sweep.
    fn frequencies(&self) -> Vec<Hertz> {
        let n = self.points.max(2);
        let log_start = self.start.value().ln();
        let log_stop = self.stop.value().ln();
        (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                Hertz::new((log_start + t * (log_stop - log_start)).exp())
            })
            .collect()
    }

    /// Sweeps the ladder and returns its impedance profile.
    ///
    /// Sample points are independent, so the sweep fans out over the
    /// [`dg_engine`] worker pool in 64-frequency (`SWEEP_CHUNK`) batches —
    /// each task amortizes its claim over a run of samples instead of
    /// paying per-point scheduling. Chunks come back in input order and
    /// are flattened, making the profile bit-identical to a sequential
    /// sweep for any thread count. See [`crate::cache::impedance_profile`]
    /// for the memoized variant the product builders use.
    pub fn profile(&self, ladder: &Ladder) -> ImpedanceProfile {
        let frequencies = self.frequencies();
        let chunks: Vec<&[Hertz]> = frequencies.chunks(SWEEP_CHUNK).collect();
        let points = dg_engine::par_map(&chunks, |_, chunk| {
            chunk
                .iter()
                .map(|&f| (f, ladder.impedance_magnitude(f)))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        ImpedanceProfile {
            name: ladder.name().to_owned(),
            points,
        }
    }
}

/// An impedance-versus-frequency profile (paper Fig. 4 series).
#[derive(Debug, Clone, PartialEq)]
pub struct ImpedanceProfile {
    name: String,
    points: Vec<(Hertz, Ohms)>,
}

impl ImpedanceProfile {
    /// The profile's name (usually the ladder's name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sampled `(frequency, |Z|)` points.
    pub fn points(&self) -> &[(Hertz, Ohms)] {
        &self.points
    }

    /// The global impedance peak `(frequency, |Z|)`.
    pub fn peak(&self) -> (Hertz, Ohms) {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.1.value().total_cmp(&b.1.value()))
            // Construction rejects empty profiles, so this is unreachable.
            .unwrap_or((Hertz::ZERO, Ohms::ZERO))
    }

    /// Impedance at the sample closest (in log-frequency) to `f`.
    ///
    /// Binary-searches the (ascending) frequency axis, then picks the
    /// nearer of the two bracketing samples. `|ln f − ln a| ≤ |ln b − ln f|`
    /// rearranges to `f·f ≤ a·b`, so the nearest-in-log decision needs no
    /// logarithms. Exact midpoints resolve to the lower-frequency sample,
    /// matching the original linear scan (which kept the first minimum).
    pub fn at(&self, f: Hertz) -> Ohms {
        let idx = self.points.partition_point(|p| p.0 < f);
        // Construction rejects empty profiles, so the fallbacks below are
        // unreachable; they keep the lookup total without panicking.
        if idx == 0 {
            return self.points.first().map(|p| p.1).unwrap_or(Ohms::ZERO);
        }
        let Some(&below) = self.points.get(idx - 1) else {
            return Ohms::ZERO;
        };
        match self.points.get(idx) {
            // Past the last sample: clamp to it.
            None => below.1,
            Some(&above) => {
                if f.value() * f.value() <= below.0.value() * above.0.value() {
                    below.1
                } else {
                    above.1
                }
            }
        }
    }

    /// The lowest sampled impedance.
    pub fn floor(&self) -> Ohms {
        self.points
            .iter()
            .map(|p| p.1)
            .fold(Ohms::new(f64::INFINITY), Ohms::min)
    }

    /// Mean impedance ratio of `self` over `other`, evaluated at `other`'s
    /// sample frequencies (geometric mean). Used to quantify the "gated is
    /// ~2× bypassed" headline of Fig. 4.
    pub fn mean_ratio_over(&self, other: &ImpedanceProfile) -> f64 {
        let mut log_sum = 0.0;
        let mut n = 0usize;
        for &(f, z_other) in other.points() {
            let z_self = self.at(f);
            if z_other.value() > 0.0 && z_self.value() > 0.0 {
                log_sum += (z_self.value() / z_other.value()).ln();
                n += 1;
            }
        }
        if n == 0 {
            return f64::NAN;
        }
        (log_sum / n as f64).exp()
    }

    /// `true` if `self` is at least `factor ×` `other` at every sampled
    /// frequency of `other`.
    pub fn dominates(&self, other: &ImpedanceProfile, factor: f64) -> bool {
        other
            .points()
            .iter()
            .all(|&(f, z)| self.at(f).value() >= factor * z.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{CapBank, SeriesBranch};
    use crate::ladder::{Ladder, VrOutputModel};
    use crate::units::{Farads, Henries};

    fn ladder(gate_mohm: f64) -> Ladder {
        let vr = VrOutputModel::new(Ohms::from_mohm(1.6), Hertz::new(300e3)).unwrap();
        let mut b = Ladder::builder("t", vr);
        b.series_with_decap(
            "board",
            SeriesBranch::new(Ohms::from_mohm(0.2), Henries::from_ph(120.0)).unwrap(),
            CapBank::new(
                Farads::from_uf(330.0),
                Ohms::from_mohm(6.0),
                Henries::from_nh(2.0),
                6,
            )
            .unwrap(),
        );
        if gate_mohm > 0.0 {
            b.series(
                "gate",
                SeriesBranch::new(Ohms::from_mohm(gate_mohm), Henries::ZERO).unwrap(),
            );
        }
        b.series_with_decap(
            "die",
            SeriesBranch::new(Ohms::from_mohm(0.15), Henries::from_ph(4.0)).unwrap(),
            CapBank::new(
                Farads::from_nf(120.0),
                Ohms::from_mohm(0.25),
                Henries::from_ph(1.0),
                1,
            )
            .unwrap(),
        );
        b.build().unwrap()
    }

    #[test]
    fn sweep_is_log_spaced_and_inclusive() {
        let a = ImpedanceAnalyzer::new(Hertz::new(1e4), Hertz::new(1e8), 5).unwrap();
        let fs = a.frequencies();
        assert_eq!(fs.len(), 5);
        assert!((fs[0].value() - 1e4).abs() < 1.0);
        assert!((fs[4].value() - 1e8).abs() < 100.0);
        // Log spacing: ratio between consecutive points is constant.
        let r1 = fs[1].value() / fs[0].value();
        let r2 = fs[3].value() / fs[2].value();
        assert!((r1 - r2).abs() / r1 < 1e-9);
    }

    #[test]
    fn invalid_sweeps_rejected() {
        assert!(ImpedanceAnalyzer::new(Hertz::new(1e6), Hertz::new(1e4), 10).is_err());
        assert!(ImpedanceAnalyzer::new(Hertz::ZERO, Hertz::new(1e4), 10).is_err());
        assert!(ImpedanceAnalyzer::new(Hertz::new(1e3), Hertz::new(1e6), 1).is_err());
    }

    #[test]
    fn gated_ladder_has_higher_profile() {
        let analyzer = ImpedanceAnalyzer::default();
        let z_gated = analyzer.profile(&ladder(2.0));
        let z_bypassed = analyzer.profile(&ladder(0.0));
        // The gate raises the profile on (geometric) average and at DC; it
        // may locally *damp* the die anti-resonance, so no pointwise claim.
        assert!(z_gated.mean_ratio_over(&z_bypassed) > 1.0);
        assert!(z_gated.at(Hertz::new(1e4)) > z_bypassed.at(Hertz::new(1e4)));
    }

    #[test]
    fn peak_and_floor_bracket_all_points() {
        let analyzer = ImpedanceAnalyzer::default();
        let p = analyzer.profile(&ladder(1.0));
        let peak = p.peak().1;
        let floor = p.floor();
        for &(_, z) in p.points() {
            assert!(z <= peak);
            assert!(z >= floor);
        }
    }

    #[test]
    fn at_returns_nearest_sample() {
        let points = vec![
            (Hertz::new(1e4), Ohms::from_mohm(2.0)),
            (Hertz::new(1e5), Ohms::from_mohm(3.0)),
            (Hertz::new(1e6), Ohms::from_mohm(4.0)),
        ];
        let p = ImpedanceProfile {
            name: "x".to_owned(),
            points,
        };
        assert!((p.at(Hertz::new(9e4)).as_mohm() - 3.0).abs() < 1e-12);
        assert!((p.at(Hertz::new(1.0)).as_mohm() - 2.0).abs() < 1e-12);
        assert!((p.at(Hertz::new(1e9)).as_mohm() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn at_bin_edges_pin_nearest_sample_semantics() {
        // Powers of two make the log-midpoint comparison exact in f64:
        // samples at 2^10 and 2^14 Hz have their geometric midpoint at
        // 2^12 Hz, and (2^12)^2 == 2^10 * 2^14 with no rounding.
        let points = vec![
            (Hertz::new(1024.0), Ohms::from_mohm(1.0)),
            (Hertz::new(16384.0), Ohms::from_mohm(2.0)),
        ];
        let p = ImpedanceProfile {
            name: "edges".to_owned(),
            points,
        };
        // Exact samples return themselves.
        assert_eq!(p.at(Hertz::new(1024.0)).as_mohm(), 1.0);
        assert_eq!(p.at(Hertz::new(16384.0)).as_mohm(), 2.0);
        // Exact geometric midpoint ties resolve to the lower-frequency
        // sample (the original linear scan kept the first minimum).
        assert_eq!(p.at(Hertz::new(4096.0)).as_mohm(), 1.0);
        // A hair past the midpoint flips to the upper sample.
        assert_eq!(p.at(Hertz::new(4097.0)).as_mohm(), 2.0);
        // And a hair below stays on the lower one.
        assert_eq!(p.at(Hertz::new(4095.0)).as_mohm(), 1.0);
        // Out-of-range queries clamp to the end samples.
        assert_eq!(p.at(Hertz::new(1.0)).as_mohm(), 1.0);
        assert_eq!(p.at(Hertz::new(1e12)).as_mohm(), 2.0);
    }
}
