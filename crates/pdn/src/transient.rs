//! Time-domain transient simulation of load-step voltage droops.
//!
//! A current step at the die (e.g. cores waking from idle and issuing a burst
//! of wide vector operations) excites the PDN's resonances and produces the
//! first/second/third voltage droops. The worst-case droop sets the droop
//! guardband `V_gb` that the PMU must add above the nominal voltage
//! (paper Sec. 2.4.2).
//!
//! The ladder is converted into a chain of L–R series branches and grounded
//! node capacitors (cap-bank ESR/ESL are a frequency-domain refinement and
//! are ignored here; the dominant droop physics — path L/R against node C —
//! is retained). The resulting ODE system is integrated with classical RK4.

use crate::error::PdnError;
use crate::ladder::Ladder;
use crate::units::{Amps, Seconds, Volts};

/// Minimum branch inductance substituted for ideal (zero-L) branches to keep
/// the ODE system well-posed. 1 pH is far below any physical routing segment.
const MIN_BRANCH_INDUCTANCE: f64 = 1e-12;

/// Parasitic die capacitance added when the final ladder stage has no shunt
/// bank, so the load node always has a state variable.
const PARASITIC_NODE_CAP: f64 = 1e-9;

/// The die voltage must stay inside the settling band for this much
/// consecutive simulated time before the run may stop early. Long enough
/// that a slow zero-crossing of a still-ringing waveform cannot fake
/// convergence unless its amplitude is already negligible.
pub const SETTLE_WINDOW_S: f64 = 500e-9;

/// Settling band half-width relative to the overall voltage excursion.
pub const SETTLE_REL_TOL: f64 = 1e-4;

/// Absolute floor of the settling band (guards the zero-excursion case).
pub const SETTLE_ABS_TOL_V: f64 = 1e-6;

/// Deepest chain model the transient kernel integrates: the kernel holds
/// each lane block's `2 * nodes` state rows in registers, with the node
/// count as a compile-time constant, and is instantiated for
/// `1..=MAX_NODES`. [`crate::ladder::LadderBuilder::build`] rejects deeper
/// ladders; every ladder in the workspace has 1–4 nodes.
pub const MAX_NODES: usize = 8;

/// A current step applied at the die node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStep {
    /// Quiescent current before the step.
    pub from: Amps,
    /// Current after the step.
    pub to: Amps,
    /// Time at which the ramp starts.
    pub at: Seconds,
    /// Ramp duration (0 for an ideal step; a staggered power-gate wake-up is
    /// typically 10–20 ns, paper Sec. 2.1).
    pub slew: Seconds,
}

impl LoadStep {
    /// An ideal step from `from` to `to` at `at`.
    #[must_use]
    pub fn step(from: Amps, to: Amps, at: Seconds) -> Self {
        LoadStep {
            from,
            to,
            at,
            slew: Seconds::ZERO,
        }
    }

    /// The load current at time `t`.
    #[must_use]
    pub fn current_at(&self, t: Seconds) -> Amps {
        if t < self.at {
            return self.from;
        }
        if self.slew.value() <= 0.0 {
            return self.to;
        }
        let progress = ((t - self.at).value() / self.slew.value()).clamp(0.0, 1.0);
        self.from + (self.to - self.from) * progress
    }

    /// `true` once the ramp has finished at `t`. Ramp progress is monotone
    /// in `t`, so from then on [`current_at`](Self::current_at) returns
    /// the same value, bit for bit, at every later time.
    pub(crate) fn ramp_done(&self, t: Seconds) -> bool {
        t >= self.at
            && (self.slew.value() <= 0.0 || (t - self.at).value() / self.slew.value() >= 1.0)
    }
}

/// Result of a transient simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// Decimated `(time, die-voltage)` waveform.
    pub samples: Vec<(Seconds, Volts)>,
    /// Minimum die voltage observed.
    pub v_min: Volts,
    /// Time at which the minimum occurred.
    pub t_min: Seconds,
    /// Steady-state die voltage before the step.
    pub v_initial: Volts,
    /// Die voltage at the end of the simulated window.
    pub v_final: Volts,
}

impl TransientResult {
    /// Worst droop magnitude relative to the pre-step steady state.
    #[must_use]
    pub fn droop(&self) -> Volts {
        (self.v_initial - self.v_min).max(Volts::ZERO)
    }

    /// The resistive (DC) part of the voltage change: initial minus final.
    #[must_use]
    pub fn dc_shift(&self) -> Volts {
        self.v_initial - self.v_final
    }

    /// The dynamic overshoot beyond the final DC level (first-droop depth).
    #[must_use]
    pub fn dynamic_droop(&self) -> Volts {
        (self.v_final - self.v_min).max(Volts::ZERO)
    }

    /// A degenerate flat waveform pinned at `v` — the non-panicking
    /// fallback for code paths that are unreachable by construction.
    pub(crate) fn flatline(v: Volts) -> Self {
        TransientResult {
            samples: vec![(Seconds::ZERO, v)],
            v_min: v,
            t_min: Seconds::ZERO,
            v_initial: v,
            v_final: v,
        }
    }
}

/// Fixed-step RK4 transient simulator over a [`Ladder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSim {
    /// VR setpoint voltage at the head of the ladder.
    pub source: Volts,
    /// Integration time step.
    pub dt: Seconds,
    /// Total simulated duration.
    pub duration: Seconds,
    /// Store every `decimate`-th sample in the output waveform.
    pub decimate: usize,
}

impl TransientSim {
    /// Creates a simulator with validation.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidTimeStep`] if `dt` or `duration` is not
    /// strictly positive, or if `dt > duration`.
    pub fn new(source: Volts, dt: Seconds, duration: Seconds) -> Result<Self, PdnError> {
        if !(dt.value() > 0.0 && duration.value() > 0.0 && dt.value() <= duration.value()) {
            return Err(PdnError::InvalidTimeStep { dt: dt.value() });
        }
        Ok(TransientSim {
            source,
            dt,
            duration,
            decimate: 16,
        })
    }

    /// A simulator tuned for droop capture: 0.1 ns step over 20 µs.
    #[must_use]
    pub fn droop_capture(source: Volts) -> Self {
        TransientSim {
            source,
            dt: Seconds::from_ns(0.1),
            duration: Seconds::from_us(20.0),
            decimate: 64,
        }
    }

    /// Runs the simulation of `step` applied to `ladder`'s die node.
    ///
    /// This is a thin wrapper over a one-lane [`TransientSim::run_batch`]
    /// call — the lane-block kernel in [`crate::batch`] is the *only*
    /// integration loop, and it is bit-identical lane-for-lane at every
    /// kernel width, so a single-lane batch is the scalar path. The
    /// chain-model coefficients are memoized per ladder content in
    /// [`crate::cache::ladder_coeffs`], the system starts in
    /// the exact DC steady state for `step.from`, and once the die voltage
    /// has held the post-step analytic steady state within a tight band
    /// for [`SETTLE_WINDOW_S`] of simulated time the remaining window is
    /// skipped: every later sample would differ from `v_final` by less
    /// than the band, and the global minimum (which the droop guardband is
    /// derived from) necessarily occurred earlier.
    #[must_use]
    pub fn run(&self, ladder: &Ladder, step: LoadStep) -> TransientResult {
        self.run_batch(ladder, core::slice::from_ref(&step))
            .pop()
            // run_batch returns exactly one result per input lane, so the
            // fallback is unreachable; it exists only to honour the
            // crate's no-panic rule.
            .unwrap_or_else(|| TransientResult::flatline(self.source))
    }
}

/// Appends the end-of-run sample at the waveform's true exit time.
///
/// When the exit step coincides with a decimated sample the timestamps are
/// bit-equal and the value is already recorded, so nothing is pushed —
/// the waveform never carries two samples with one timestamp.
pub(crate) fn push_final_sample(samples: &mut Vec<(Seconds, Volts)>, t_exit: f64, v_final: Volts) {
    if samples.last().map(|(t, _)| t.value().to_bits()) != Some(t_exit.to_bits()) {
        samples.push((Seconds::new(t_exit), v_final));
    }
}

/// Precompiled chain-model coefficients of a [`Ladder`]: series branches
/// (R, L) between grounded C nodes, flattened into cache-friendly parallel
/// arrays with the reciprocals of L and C precomputed, so the RK4 inner
/// loop (four derivative evaluations per step, millions of steps per run)
/// multiplies instead of divides and never re-walks the ladder.
///
/// The coefficients are a pure function of the ladder's element values —
/// the VR setpoint enters the integration separately — so one compilation
/// serves every simulator configuration and every load step applied to the
/// same ladder. [`crate::cache::ladder_coeffs`] memoizes them process-wide,
/// keyed by the ladder's content hash.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderCoeffs {
    /// Series resistance of branch `k`, Ω.
    pub(crate) r: Vec<f64>,
    /// Shunt capacitance of node `k`, F.
    pub(crate) c: Vec<f64>,
    /// Reciprocal series inductance of branch `k`, 1/H.
    pub(crate) inv_l: Vec<f64>,
    /// Reciprocal shunt capacitance of node `k`, 1/F.
    pub(crate) inv_c: Vec<f64>,
}

impl LadderCoeffs {
    /// Compiles `ladder` into chain-model coefficient arrays.
    #[must_use]
    pub fn from_ladder(ladder: &Ladder) -> Self {
        let mut r = Vec::new();
        let mut l = Vec::new();
        let mut c = Vec::new();

        // VR branch: load-line resistance + equivalent output inductance.
        let vr = ladder.vr();
        let mut pending_r = vr.loadline.value();
        let mut pending_l = vr.equivalent_inductance();

        for stage in ladder.stages() {
            pending_r += stage.series.resistance.value();
            pending_l += stage.series.inductance.value();
            if let Some(bank) = &stage.shunt {
                r.push(pending_r);
                l.push(pending_l.max(MIN_BRANCH_INDUCTANCE));
                c.push(bank.total_capacitance().value());
                pending_r = 0.0;
                pending_l = 0.0;
            }
        }
        // Trailing series segments without a shunt: give the die node a
        // parasitic capacitance so the load has a state variable.
        if pending_r > 0.0 || pending_l > 0.0 || c.is_empty() {
            r.push(pending_r);
            l.push(pending_l.max(MIN_BRANCH_INDUCTANCE));
            c.push(PARASITIC_NODE_CAP);
        }

        let inv_l = l.iter().map(|&x| 1.0 / x).collect();
        let inv_c = c.iter().map(|&x| 1.0 / x).collect();
        LadderCoeffs { r, c, inv_l, inv_c }
    }

    /// Number of C-node state pairs (the state vector is `2 * nodes()`).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.c.len()
    }

    /// The DC node voltages for a constant `load` current, in chain order:
    /// every branch carries the load, so each node sits one `r · load`
    /// drop below its upstream neighbour. The one DC recurrence — the
    /// kernel fills its initial state and settle target from it without
    /// allocating, and the two reference helpers below wrap it.
    pub(crate) fn dc_voltages(&self, source: f64, load: f64) -> impl Iterator<Item = f64> + '_ {
        self.r.iter().scan(source, move |v, &rk| {
            *v -= rk * load;
            Some(*v)
        })
    }

    /// DC steady state for a constant load current: every branch carries
    /// the load current, and node voltages drop cumulatively along the
    /// chain.
    #[must_use]
    pub fn steady_state(&self, source: Volts, load: Amps) -> Vec<f64> {
        let mut state = vec![load.value(); self.nodes()];
        state.extend(self.dc_voltages(source.value(), load.value()));
        state
    }

    /// The die node's analytic DC voltage under a constant `load` — the
    /// settle target of the early-exit detector.
    #[must_use]
    // dg-analyze: allow(unreached-pub, reason = "independent oracle: crates/pdn/tests/batch_equivalence.rs checks the kernel's settle target against it")
    pub fn die_steady_voltage(&self, source: Volts, load: Amps) -> f64 {
        self.dc_voltages(source.value(), load.value())
            .last()
            .unwrap_or_else(|| source.value())
    }

    /// Computes `d(state)/dt` into `out` for die load current `i_load`,
    /// with the VR setpoint `source` at the head of the chain.
    ///
    /// This is the scalar *reference* recurrence: the kernel in
    /// [`crate::batch`] evaluates the same expressions in the same order
    /// per lane, and `tests/batch_equivalence.rs` pins the two together
    /// bit-for-bit through a test-local RK4 built on this function.
    pub fn derivative(&self, source: f64, state: &[f64], i_load: f64, out: &mut [f64]) {
        let n = self.nodes();
        let (i, v) = state.split_at(n);
        let (di, dv) = out.split_at_mut(n);
        let mut v_prev = source;
        for ((((d, &ik), &vk), &rk), &inv_lk) in
            di.iter_mut().zip(i).zip(v).zip(&self.r).zip(&self.inv_l)
        {
            *d = (v_prev - vk - rk * ik) * inv_lk;
            v_prev = vk;
        }
        // Walk backwards so each node sees its downstream neighbour's
        // current; the last node feeds the die load.
        let mut i_out = i_load;
        for ((d, &ik), &inv_ck) in dv.iter_mut().zip(i).zip(&self.inv_c).rev() {
            *d = (ik - i_out) * inv_ck;
            i_out = ik;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{CapBank, SeriesBranch};
    use crate::ladder::{Ladder, VrOutputModel};
    use crate::units::{Farads, Henries, Ohms};

    fn small_ladder() -> Ladder {
        let vr = VrOutputModel::new(Ohms::from_mohm(1.6), Hz(300e3)).unwrap();
        let mut b = Ladder::builder("t", vr);
        b.series_with_decap(
            "board",
            SeriesBranch::new(Ohms::from_mohm(0.3), Henries::from_ph(150.0)).unwrap(),
            CapBank::new(
                Farads::from_uf(500.0),
                Ohms::from_mohm(5.0),
                Henries::from_nh(2.0),
                1,
            )
            .unwrap(),
        );
        b.series_with_decap(
            "die",
            SeriesBranch::new(Ohms::from_mohm(0.4), Henries::from_ph(20.0)).unwrap(),
            CapBank::new(
                Farads::from_nf(200.0),
                Ohms::from_mohm(0.3),
                Henries::from_ph(1.0),
                1,
            )
            .unwrap(),
        );
        b.build().unwrap()
    }

    #[allow(non_snake_case)]
    fn Hz(v: f64) -> crate::units::Hertz {
        crate::units::Hertz::new(v)
    }

    #[test]
    fn validation_rejects_bad_steps() {
        assert!(TransientSim::new(Volts::new(1.0), Seconds::ZERO, Seconds::from_us(1.0)).is_err());
        assert!(TransientSim::new(
            Volts::new(1.0),
            Seconds::from_us(2.0),
            Seconds::from_us(1.0)
        )
        .is_err());
    }

    #[test]
    fn no_step_means_no_droop() {
        let sim = TransientSim::new(
            Volts::new(1.0),
            Seconds::from_ns(0.5),
            Seconds::from_us(2.0),
        )
        .unwrap();
        let step = LoadStep::step(Amps::new(10.0), Amps::new(10.0), Seconds::from_us(0.5));
        let r = sim.run(&small_ladder(), step);
        assert!(r.droop().as_mv() < 0.5, "droop {}", r.droop());
    }

    #[test]
    fn step_produces_droop_exceeding_dc_shift() {
        let sim = TransientSim::new(
            Volts::new(1.1),
            Seconds::from_ns(0.2),
            Seconds::from_us(50.0),
        )
        .unwrap();
        let step = LoadStep {
            from: Amps::new(5.0),
            to: Amps::new(45.0),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(10.0),
        };
        let r = sim.run(&small_ladder(), step);
        // DC shift = ΔI * R_path = 40 A * 2.3 mΩ = 92 mV.
        let expected_dc = 40.0 * small_ladder().dc_resistance().value();
        assert!(
            (r.dc_shift().value() - expected_dc).abs() < 0.25 * expected_dc,
            "dc shift {} vs {}",
            r.dc_shift(),
            expected_dc
        );
        // The transient minimum is at or below the final DC level.
        assert!(r.v_min <= r.v_final);
        assert!(r.droop() >= r.dc_shift() * 0.95);
    }

    #[test]
    fn steady_state_matches_ohms_law() {
        let ladder = small_ladder();
        let model = LadderCoeffs::from_ladder(&ladder);
        let st = model.steady_state(Volts::new(1.0), Amps::new(20.0));
        let n = model.nodes();
        let v_die = st[2 * n - 1];
        let expected = 1.0 - 20.0 * ladder.dc_resistance().value();
        assert!((v_die - expected).abs() < 1e-9);
        assert_eq!(
            model
                .die_steady_voltage(Volts::new(1.0), Amps::new(20.0))
                .to_bits(),
            v_die.to_bits()
        );
        // Derivative at steady state is ~zero.
        let mut d = vec![0.0; 2 * n];
        model.derivative(1.0, &st, 20.0, &mut d);
        for x in d {
            assert!(x.abs() < 1e-6, "nonzero derivative {x}");
        }
    }

    #[test]
    fn load_step_current_profile() {
        let s = LoadStep {
            from: Amps::new(1.0),
            to: Amps::new(3.0),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(100.0),
        };
        // Exact equality is intended: outside the slew window the step
        // returns its endpoint constants unchanged.
        #[allow(clippy::float_cmp)]
        {
            assert_eq!(s.current_at(Seconds::ZERO).value(), 1.0);
            assert_eq!(s.current_at(Seconds::from_us(2.0)).value(), 3.0);
        }
        let mid = s.current_at(Seconds::new(1.0e-6 + 50e-9)).value();
        assert!((mid - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_step_is_instant() {
        let s = LoadStep::step(Amps::ZERO, Amps::new(10.0), Seconds::from_us(1.0));
        #[allow(clippy::float_cmp)]
        {
            assert_eq!(s.current_at(Seconds::new(0.999e-6)).value(), 0.0);
            assert_eq!(s.current_at(Seconds::from_us(1.0)).value(), 10.0);
        }
    }

    #[test]
    fn droop_for_step_increases_with_delta() {
        let sim = TransientSim {
            source: Volts::new(1.1),
            dt: Seconds::from_ns(0.2),
            duration: Seconds::from_us(20.0),
            decimate: 64,
        };
        let ladder = small_ladder();
        let droop = |delta: f64| {
            let step = LoadStep {
                from: Amps::new(5.0),
                to: Amps::new(5.0 + delta),
                at: Seconds::from_us(1.0),
                slew: Seconds::from_ns(10.0),
            };
            sim.run(&ladder, step).droop()
        };
        assert!(droop(40.0) > droop(10.0));
    }

    #[test]
    fn ladder_without_trailing_cap_gets_parasitic_node() {
        let vr = VrOutputModel::new(Ohms::from_mohm(1.6), Hz(300e3)).unwrap();
        let mut b = Ladder::builder("bare", vr);
        b.series(
            "route",
            SeriesBranch::new(Ohms::from_mohm(1.0), Henries::from_ph(50.0)).unwrap(),
        );
        let ladder = b.build().unwrap();
        let model = LadderCoeffs::from_ladder(&ladder);
        assert_eq!(model.nodes(), 1);
        assert!((model.c[0] - PARASITIC_NODE_CAP).abs() < 1e-18);
    }
}
