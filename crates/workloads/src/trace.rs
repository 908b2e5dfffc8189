//! Phase traces: bursty busy/idle activity patterns.
//!
//! Client devices alternate compute bursts with idle gaps (the pattern
//! behind the paper's energy-efficiency workloads and connected-standby
//! style usages). A [`PhaseTrace`] is a timed sequence of busy and idle
//! phases that the SoC simulator can replay through the firmware.

use dg_power::dynamic::CdynProfile;
use dg_power::units::Seconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What happens during one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TracePhaseKind {
    /// `active_cores` run at the given per-core dynamic capacitance.
    Busy {
        /// Number of busy cores.
        active_cores: usize,
        /// Per-core dynamic capacitance in nanofarads.
        cdyn_nf: f64,
    },
    /// All engines idle; the platform may enter a package C-state.
    Idle,
}

/// One timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePhase {
    /// The activity.
    pub kind: TracePhaseKind,
    /// Phase length.
    pub duration: Seconds,
}

impl TracePhase {
    /// The Cdyn profile of a busy phase; `None` for idle phases (which
    /// draw no dynamic power) or for a non-positive/non-finite `cdyn_nf`.
    pub fn cdyn(&self) -> Option<CdynProfile> {
        match self.kind {
            TracePhaseKind::Busy { cdyn_nf, .. } => CdynProfile::from_nf(cdyn_nf).ok(),
            TracePhaseKind::Idle => None,
        }
    }
}

/// A named sequence of phases.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTrace {
    /// Trace name.
    pub name: String,
    /// The phases, in playback order.
    pub phases: Vec<TracePhase>,
}

impl PhaseTrace {
    /// Total trace length.
    pub fn total_duration(&self) -> Seconds {
        Seconds::new(self.phases.iter().map(|p| p.duration.value()).sum())
    }

    /// Fraction of the trace spent busy.
    pub fn busy_fraction(&self) -> f64 {
        let total = self.total_duration().value();
        if total <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .phases
            .iter()
            .filter(|p| matches!(p.kind, TracePhaseKind::Busy { .. }))
            .map(|p| p.duration.value())
            .sum();
        busy / total
    }
}

/// Exponentially-distributed sample with mean `mean` (inverse-CDF method;
/// `rand` without `rand_distr`).
fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() * mean
}

/// Generates a bursty on/off trace: busy bursts and idle gaps with
/// exponentially-distributed lengths.
///
/// # Panics
///
/// Panics if any duration parameter is non-positive or `active_cores` is
/// zero.
pub fn bursty(
    seed: u64,
    total: Seconds,
    mean_busy: Seconds,
    mean_idle: Seconds,
    active_cores: usize,
) -> PhaseTrace {
    assert!(total.value() > 0.0, "total must be positive");
    assert!(
        mean_busy.value() > 0.0 && mean_idle.value() > 0.0,
        "phase means must be positive"
    );
    assert!(active_cores > 0, "need at least one busy core");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut phases = Vec::new();
    let mut t = 0.0;
    let mut busy = true;
    while t < total.value() {
        let mean = if busy {
            mean_busy.value()
        } else {
            mean_idle.value()
        };
        let dur = exponential(&mut rng, mean).min(total.value() - t);
        phases.push(TracePhase {
            kind: if busy {
                TracePhaseKind::Busy {
                    active_cores,
                    cdyn_nf: rng.gen_range(1.0..1.8),
                }
            } else {
                TracePhaseKind::Idle
            },
            duration: Seconds::new(dur),
        });
        t += dur;
        busy = !busy;
    }
    PhaseTrace {
        name: format!("bursty(seed={seed})"),
        phases,
    }
}

/// An RMT-shaped trace: ~1 % short active bursts on one core, ~99 % long
/// idle gaps (paper Sec. 6).
pub fn rmt_trace(seed: u64, total: Seconds) -> PhaseTrace {
    let mut t = bursty(seed, total, Seconds::from_ms(30.0), Seconds::new(3.0), 1);
    t.name = "rmt-trace".to_owned();
    t
}

/// A video-playback-like trace: periodic frame-decode bursts (~4 ms busy
/// every 33 ms, one core plus fixed media Cdyn).
pub fn video_playback(total: Seconds) -> PhaseTrace {
    let frame = 1.0 / 30.0;
    let busy = 0.004;
    let mut phases = Vec::new();
    let mut t = 0.0;
    while t < total.value() {
        phases.push(TracePhase {
            kind: TracePhaseKind::Busy {
                active_cores: 1,
                cdyn_nf: 1.2,
            },
            duration: Seconds::new(busy),
        });
        phases.push(TracePhase {
            kind: TracePhaseKind::Idle,
            duration: Seconds::new(frame - busy),
        });
        t += frame;
    }
    PhaseTrace {
        name: "video-playback".to_owned(),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_power::units::{Hertz, Volts};

    /// `C_dyn` in nF: the dynamic power in W at 1 V and 1 GHz.
    fn nf(c: CdynProfile) -> f64 {
        c.power(Volts::new(1.0), Hertz::from_ghz(1.0)).value()
    }

    #[test]
    fn bursty_is_reproducible() {
        let a = bursty(
            7,
            Seconds::new(10.0),
            Seconds::new(0.1),
            Seconds::new(0.4),
            2,
        );
        let b = bursty(
            7,
            Seconds::new(10.0),
            Seconds::new(0.1),
            Seconds::new(0.4),
            2,
        );
        assert_eq!(a, b);
        let c = bursty(
            8,
            Seconds::new(10.0),
            Seconds::new(0.1),
            Seconds::new(0.4),
            2,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn durations_sum_to_total() {
        let t = bursty(
            1,
            Seconds::new(20.0),
            Seconds::new(0.2),
            Seconds::new(0.5),
            4,
        );
        assert!((t.total_duration().value() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn busy_fraction_tracks_means() {
        // mean busy 0.1 s vs mean idle 0.9 s → ~10 % busy.
        let t = bursty(
            42,
            Seconds::new(500.0),
            Seconds::new(0.1),
            Seconds::new(0.9),
            1,
        );
        let f = t.busy_fraction();
        assert!((0.05..0.20).contains(&f), "busy fraction {f}");
    }

    #[test]
    fn rmt_trace_is_mostly_idle() {
        let t = rmt_trace(3, Seconds::new(600.0));
        let f = t.busy_fraction();
        assert!(f < 0.05, "busy fraction {f}");
        assert!(t.phases.iter().any(|p| p.kind == TracePhaseKind::Idle));
    }

    #[test]
    fn video_playback_alternates_at_30fps() {
        let t = video_playback(Seconds::new(1.0));
        assert!(t.phases.len() >= 58);
        let f = t.busy_fraction();
        assert!((0.10..0.14).contains(&f), "busy fraction {f}");
    }

    #[test]
    fn busy_phase_cdyn_accessor() {
        let t = bursty(
            5,
            Seconds::new(5.0),
            Seconds::new(0.1),
            Seconds::new(0.1),
            2,
        );
        let busy = t
            .phases
            .iter()
            .find(|p| matches!(p.kind, TracePhaseKind::Busy { .. }))
            .unwrap();
        assert!(nf(busy.cdyn().unwrap()) >= 1.0);
    }

    #[test]
    fn idle_phase_has_no_cdyn() {
        let idle = TracePhase {
            kind: TracePhaseKind::Idle,
            duration: Seconds::new(1.0),
        };
        assert!(idle.cdyn().is_none());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_total_panics() {
        bursty(0, Seconds::ZERO, Seconds::new(0.1), Seconds::new(0.1), 1);
    }
}
