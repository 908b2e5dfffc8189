//! Property-based equivalence between the transient kernel and scalar
//! reference paths.
//!
//! The kernel promises *bit-identical* results lane-for-lane: for any
//! ladder, any mix of load steps, and any batch size, `run_batch` must
//! produce exactly what per-lane `run` calls would — including lanes that
//! settle early at different steps and lanes that never settle at all.
//! Because `run` is itself a one-lane batch, the file also carries an
//! independent oracle: a plain scalar RK4 over
//! [`LadderCoeffs::derivative`], which the kernel must match bit-for-bit
//! on ladders of every supported depth.

use dg_pdn::didt;
use dg_pdn::elements::{CapBank, SeriesBranch};
use dg_pdn::ladder::{Ladder, VrOutputModel};
use dg_pdn::transient::{
    LadderCoeffs, LoadStep, TransientResult, TransientSim, MAX_NODES, SETTLE_ABS_TOL_V,
    SETTLE_REL_TOL, SETTLE_WINDOW_S,
};
use dg_pdn::units::{Amps, Farads, Henries, Hertz, Ohms, Seconds, Volts};
use dg_pdn::PdnError;
use proptest::prelude::*;

/// Scalar classical RK4 over [`LadderCoeffs::derivative`], with the
/// kernel's sampling, settle and final-sample rules written out
/// independently of `dg_pdn::batch`.
fn reference_run(sim: &TransientSim, ladder: &Ladder, step: LoadStep) -> TransientResult {
    let coeffs = LadderCoeffs::from_ladder(ladder);
    let die = 2 * coeffs.nodes() - 1;
    let source = sim.source.value();
    let dt = sim.dt.value();
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a step count is a small positive ratio"
    )]
    let n_steps = (sim.duration.value() / dt).ceil() as usize;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a window size is a small positive ratio"
    )]
    let settle_steps = ((SETTLE_WINDOW_S / dt).ceil() as usize).max(1);
    let decimate = sim.decimate.max(1);

    let mut x = coeffs.steady_state(sim.source, step.from);
    let v_initial = x[die];
    let target = coeffs.die_steady_voltage(sim.source, step.to);
    let settle_tol = SETTLE_ABS_TOL_V.max(SETTLE_REL_TOL * (v_initial - target).abs());
    let settle_after = (step.at + step.slew).value();

    let mut samples = vec![(Seconds::ZERO, Volts::new(v_initial))];
    let (mut v_min, mut t_min, mut t_exit) = (v_initial, 0.0, 0.0);
    let mut in_band = 0;
    let len = x.len();
    let (mut k1, mut k2, mut k3, mut k4, mut tmp) = (
        vec![0.0; len],
        vec![0.0; len],
        vec![0.0; len],
        vec![0.0; len],
        vec![0.0; len],
    );
    let stage = |tmp: &mut [f64], x: &[f64], k: &[f64], scale: f64| {
        for ((t, &xi), &ki) in tmp.iter_mut().zip(x).zip(k) {
            *t = xi + ki * scale;
        }
    };
    for s in 0..n_steps {
        #[expect(
            clippy::cast_precision_loss,
            reason = "step indices stay far below 2^52"
        )]
        let t = s as f64 * dt;
        let i_now = step.current_at(Seconds::new(t)).value();
        let i_mid = step.current_at(Seconds::new(t + 0.5 * dt)).value();
        let i_end = step.current_at(Seconds::new(t + dt)).value();
        coeffs.derivative(source, &x, i_now, &mut k1);
        stage(&mut tmp, &x, &k1, 0.5 * dt);
        coeffs.derivative(source, &tmp, i_mid, &mut k2);
        stage(&mut tmp, &x, &k2, 0.5 * dt);
        coeffs.derivative(source, &tmp, i_mid, &mut k3);
        stage(&mut tmp, &x, &k3, dt);
        coeffs.derivative(source, &tmp, i_end, &mut k4);
        for m in 0..len {
            x[m] += dt / 6.0 * (k1[m] + 2.0 * k2[m] + 2.0 * k3[m] + k4[m]);
        }

        let t_now = t + dt;
        t_exit = t_now;
        let v_die = x[die];
        if v_die < v_min {
            v_min = v_die;
            t_min = t_now;
        }
        if s % decimate == 0 {
            samples.push((Seconds::new(t_now), Volts::new(v_die)));
        }
        if t_now >= settle_after {
            if (v_die - target).abs() <= settle_tol {
                in_band += 1;
                if in_band >= settle_steps {
                    break;
                }
            } else {
                in_band = 0;
            }
        }
    }
    let v_final = x[die];
    if samples.last().map(|(t, _)| t.value().to_bits()) != Some(t_exit.to_bits()) {
        samples.push((Seconds::new(t_exit), Volts::new(v_final)));
    }
    TransientResult {
        samples,
        v_min: Volts::new(v_min),
        t_min: Seconds::new(t_min),
        v_initial: Volts::new(v_initial),
        v_final: Volts::new(v_final),
    }
}

/// One chain stage's element values in plain numbers.
#[derive(Debug, Clone, Copy)]
struct StageSpec {
    r_mohm: f64,
    l_ph: f64,
    c_nf: f64,
}

fn stage_spec() -> impl Strategy<Value = StageSpec> {
    (0.05..2.0f64, 20.0..500.0f64, 100.0..5000.0f64).prop_map(|(r_mohm, l_ph, c_nf)| StageSpec {
        r_mohm,
        l_ph,
        c_nf,
    })
}

/// A ladder whose chain model has exactly `stages.len()` nodes: every
/// stage carries a shunt bank.
fn chain_ladder(stages: &[StageSpec]) -> Result<Ladder, PdnError> {
    let vr = VrOutputModel::new(Ohms::from_mohm(1.6), Hertz::new(300e3))?;
    let mut b = Ladder::builder("prop-chain", vr);
    for (k, s) in stages.iter().enumerate() {
        b.series_with_decap(
            format!("stage{k}"),
            SeriesBranch::new(Ohms::from_mohm(s.r_mohm), Henries::from_ph(s.l_ph))?,
            CapBank::new(
                Farads::from_nf(s.c_nf),
                Ohms::from_mohm(1.0),
                Henries::from_ph(1.0),
                1,
            )?,
        );
    }
    b.build()
}

#[test]
fn ladder_deeper_than_max_nodes_is_rejected() {
    let stage = StageSpec {
        r_mohm: 0.5,
        l_ph: 100.0,
        c_nf: 500.0,
    };
    let at_cap = chain_ladder(&[stage; MAX_NODES]).unwrap();
    assert_eq!(LadderCoeffs::from_ladder(&at_cap).nodes(), MAX_NODES);
    assert_eq!(
        chain_ladder(&[stage; MAX_NODES + 1]).unwrap_err(),
        PdnError::TooManyNodes {
            nodes: MAX_NODES + 1,
            max: MAX_NODES,
        }
    );
}

/// One lane's step expressed in plain numbers for proptest generation.
#[derive(Debug, Clone, Copy)]
struct LaneSpec {
    from_a: f64,
    to_a: f64,
    at_us: f64,
    slew_ns: f64,
}

fn lane_spec() -> impl Strategy<Value = LaneSpec> {
    (0.0..60.0f64, 0.0..120.0f64, 0.1..1.0f64, 0.0..50.0f64).prop_map(
        |(from_a, to_a, at_us, slew_ns)| LaneSpec {
            from_a,
            to_a,
            at_us,
            slew_ns,
        },
    )
}

fn build_ladder(r_board: f64, l_board: f64, c_bulk: f64, r_die: f64, c_die: f64) -> Ladder {
    let vr = VrOutputModel::new(Ohms::from_mohm(1.6), Hertz::new(300e3)).unwrap();
    let mut b = Ladder::builder("prop-batch", vr);
    b.series_with_decap(
        "board",
        SeriesBranch::new(Ohms::from_mohm(r_board), Henries::from_ph(l_board)).unwrap(),
        CapBank::new(
            Farads::from_uf(c_bulk),
            Ohms::from_mohm(5.0),
            Henries::from_nh(2.0),
            3,
        )
        .unwrap(),
    );
    b.series_with_decap(
        "die",
        SeriesBranch::new(Ohms::from_mohm(r_die), Henries::from_ph(5.0)).unwrap(),
        CapBank::new(
            Farads::from_nf(c_die),
            Ohms::from_mohm(1.0),
            Henries::from_ph(1.0),
            1,
        )
        .unwrap(),
    );
    b.build().unwrap()
}

fn assert_lane_bit_identical(
    lane: usize,
    batch: &TransientResult,
    scalar: &TransientResult,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        batch.v_min.value().to_bits(),
        scalar.v_min.value().to_bits(),
        "lane {} v_min",
        lane
    );
    prop_assert_eq!(
        batch.t_min.value().to_bits(),
        scalar.t_min.value().to_bits(),
        "lane {} t_min",
        lane
    );
    prop_assert_eq!(
        batch.v_initial.value().to_bits(),
        scalar.v_initial.value().to_bits(),
        "lane {} v_initial",
        lane
    );
    prop_assert_eq!(
        batch.v_final.value().to_bits(),
        scalar.v_final.value().to_bits(),
        "lane {} v_final",
        lane
    );
    prop_assert_eq!(
        batch.samples.len(),
        scalar.samples.len(),
        "lane {} sample count",
        lane
    );
    for (k, ((tb, vb), (ts, vs))) in batch.samples.iter().zip(&scalar.samples).enumerate() {
        prop_assert_eq!(
            tb.value().to_bits(),
            ts.value().to_bits(),
            "lane {} sample {} time",
            lane,
            k
        );
        prop_assert_eq!(
            vb.value().to_bits(),
            vs.value().to_bits(),
            "lane {} sample {} voltage",
            lane,
            k
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random ladders, random step mixes, and random batch sizes, the
    /// batched kernel reproduces the scalar path bit-for-bit on every lane.
    #[test]
    fn batch_is_bit_identical_to_scalar(
        r_board in 0.05..2.0f64,
        l_board in 1.0..500.0f64,
        c_bulk in 10.0..2000.0f64,
        r_die in 0.01..1.0f64,
        c_die in 10.0..2000.0f64,
        lanes in prop::collection::vec(lane_spec(), 1..7),
        dur_us in 1.5..6.0f64,
        decimate in 1..64usize,
    ) {
        let ladder = build_ladder(r_board, l_board, c_bulk, r_die, c_die);
        let mut sim = TransientSim::new(
            Volts::new(1.0),
            Seconds::from_ns(1.0),
            Seconds::from_us(dur_us),
        ).unwrap();
        sim.decimate = decimate;
        let steps: Vec<LoadStep> = lanes
            .iter()
            .map(|l| LoadStep {
                from: Amps::new(l.from_a),
                to: Amps::new(l.to_a),
                at: Seconds::from_us(l.at_us),
                slew: Seconds::from_ns(l.slew_ns),
            })
            .collect();
        let batched = sim.run_batch(&ladder, &steps);
        prop_assert_eq!(batched.len(), steps.len());
        for (lane, (batch, step)) in batched.iter().zip(&steps).enumerate() {
            let scalar = sim.run(&ladder, *step);
            assert_lane_bit_identical(lane, batch, &scalar)?;
        }
    }

    /// Lanes with wildly different step magnitudes settle at different
    /// times; mixing a null step (settles almost immediately) with large
    /// steps exercises lane retirement inside a block, and the results
    /// still have to be bit-identical and in input order.
    #[test]
    fn early_exit_lanes_stay_bit_identical(
        big in 40.0..150.0f64,
        small in 0.5..5.0f64,
        slew_ns in 0.0..20.0f64,
    ) {
        let ladder = build_ladder(0.4, 120.0, 500.0, 0.2, 400.0);
        let sim = TransientSim::new(
            Volts::new(1.0),
            Seconds::from_ns(1.0),
            Seconds::from_us(8.0),
        ).unwrap();
        let quiescent = Amps::new(5.0);
        // Null step (exits first), small step, big step, and a second null
        // so two lanes of one block retire on the same step.
        let deltas = [0.0, small, big, 0.0];
        let steps: Vec<LoadStep> = deltas
            .iter()
            .map(|d| LoadStep {
                from: quiescent,
                to: quiescent + Amps::new(*d),
                at: Seconds::from_us(1.0),
                slew: Seconds::from_ns(slew_ns),
            })
            .collect();
        let batched = sim.run_batch(&ladder, &steps);
        prop_assert_eq!(batched.len(), steps.len());
        for (lane, (batch, step)) in batched.iter().zip(&steps).enumerate() {
            let scalar = sim.run(&ladder, *step);
            assert_lane_bit_identical(lane, batch, &scalar)?;
        }
    }

    /// Remainder lanes: for batch sizes that are *not* multiples of the
    /// block width (1..=11 covers every residue mod 4), every block width
    /// the kernel runs — the 4-lane blocks and the one-lane remainder
    /// blocks — must agree bit-for-bit with a one-lane `run`: both have to
    /// be the same arithmetic in the same order.
    #[test]
    fn every_kernel_width_matches_scalar_for_remainder_counts(
        lanes in prop::collection::vec(lane_spec(), 1..12),
        dur_us in 1.5..4.0f64,
    ) {
        let ladder = build_ladder(0.3, 100.0, 400.0, 0.1, 300.0);
        let sim = TransientSim::new(
            Volts::new(1.0),
            Seconds::from_ns(1.0),
            Seconds::from_us(dur_us),
        ).unwrap();
        let steps: Vec<LoadStep> = lanes
            .iter()
            .map(|l| LoadStep {
                from: Amps::new(l.from_a),
                to: Amps::new(l.to_a),
                at: Seconds::from_us(l.at_us),
                slew: Seconds::from_ns(l.slew_ns),
            })
            .collect();
        let batched = sim.run_batch(&ladder, &steps);
        prop_assert_eq!(batched.len(), steps.len());
        for (lane, (batch, step)) in batched.iter().zip(&steps).enumerate() {
            let scalar = sim.run(&ladder, *step);
            assert_lane_bit_identical(lane, batch, &scalar)?;
        }
    }

    /// `didt::droop_sweep` (the engine behind `/v1/droop_sweep`) is
    /// bit-identical to per-lane scalar `run` calls for population sizes
    /// around the sweep's group size — including counts that leave
    /// remainder lanes in the last group and are not multiples of the
    /// 4-lane block.
    #[test]
    fn droop_sweep_matches_per_lane_scalar_runs(
        n_small in 1usize..12,
        straddle in prop::bool::ANY,
        quiescent in 1.0..20.0f64,
        slew_ns in 0.0..20.0f64,
    ) {
        // Half the cases stay inside one 32-lane group; the other half
        // straddle the group boundary (29..=39 lanes) so the last group
        // is a remainder narrower than SWEEP_LANES.
        let n_deltas = if straddle { n_small + 28 } else { n_small };
        let ladder = build_ladder(0.4, 120.0, 500.0, 0.2, 400.0);
        let sim = TransientSim::new(
            Volts::new(1.0),
            Seconds::from_ns(1.0),
            Seconds::from_us(3.0),
        ).unwrap();
        let deltas: Vec<Amps> = (0..n_deltas)
            .map(|i| Amps::new(1.0 + 2.0 * i as f64))
            .collect();
        let quiescent = Amps::new(quiescent);
        let slew = Seconds::from_ns(slew_ns);
        let sweep = didt::droop_sweep(&ladder, &sim, quiescent, &deltas, slew);
        prop_assert_eq!(sweep.len(), deltas.len());
        for (lane, (droop, delta)) in sweep.iter().zip(&deltas).enumerate() {
            let scalar = sim.run(&ladder, LoadStep {
                from: quiescent,
                to: quiescent + *delta,
                at: Seconds::from_us(1.0),
                slew,
            });
            prop_assert_eq!(
                droop.value().to_bits(),
                scalar.droop().value().to_bits(),
                "lane {}",
                lane
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random ladders of every supported depth, `run_batch` and
    /// one-lane `run`s reproduce the test-local scalar RK4 over
    /// `LadderCoeffs::derivative` bit-for-bit on every lane — the check
    /// that catches an arithmetic change the kernel would otherwise share
    /// with `run`.
    #[test]
    fn batch_matches_reference_rk4_at_every_depth(
        nodes in 1..=MAX_NODES,
        stages in prop::collection::vec(stage_spec(), MAX_NODES),
        lanes in prop::collection::vec(lane_spec(), 1..7),
        dur_us in 1.5..4.0f64,
        decimate in 1..64usize,
    ) {
        let ladder = chain_ladder(&stages[..nodes]).unwrap();
        prop_assert_eq!(LadderCoeffs::from_ladder(&ladder).nodes(), nodes);
        let mut sim = TransientSim::new(
            Volts::new(1.0),
            Seconds::from_ns(1.0),
            Seconds::from_us(dur_us),
        ).unwrap();
        sim.decimate = decimate;
        let steps: Vec<LoadStep> = lanes
            .iter()
            .map(|l| LoadStep {
                from: Amps::new(l.from_a),
                to: Amps::new(l.to_a),
                at: Seconds::from_us(l.at_us),
                slew: Seconds::from_ns(l.slew_ns),
            })
            .collect();
        let batched = sim.run_batch(&ladder, &steps);
        prop_assert_eq!(batched.len(), steps.len());
        for (lane, step) in steps.iter().enumerate() {
            let reference = reference_run(&sim, &ladder, *step);
            assert_lane_bit_identical(lane, &batched[lane], &reference)?;
            assert_lane_bit_identical(lane, &sim.run(&ladder, *step), &reference)?;
        }
    }
}
