//! Property-based tests for the PMU firmware invariants.

use dg_pmu::dvfs::{DvfsRequest, DvfsSolver};
use dg_pmu::pbm::{PowerBudgetManager, PowerEma, TurboController};
use dg_pmu::reliability::ReliabilityModel;
use dg_pmu::svid::{SvidBus, SvidCommand, VidCode};
use dg_power::dynamic::CdynProfile;
use dg_power::leakage::LeakageModel;
use dg_power::pstate::PStateTable;
use dg_power::thermal::ThermalModel;
use dg_power::units::{Celsius, Seconds, Volts, Watts};
use dg_power::vf::VfCurve;
use proptest::prelude::*;

fn table(gb_mv: f64) -> PStateTable {
    PStateTable::from_curve(
        &VfCurve::skylake_core().with_guardband(Volts::from_mv(gb_mv)),
        PStateTable::standard_bin(),
    )
    .unwrap()
}

proptest! {
    /// The DVFS solution never violates any constraint it was given.
    #[test]
    fn dvfs_solution_is_feasible(
        gb_mv in 50.0..300.0f64,
        cores in 1..5usize,
        budget in 15.0..150.0f64,
        cdyn in 0.9..2.2f64,
        vmax in 1.0..1.45f64,
        tdp in 30.0..95.0f64,
    ) {
        let t = table(gb_mv);
        let solver = DvfsSolver::new(
            LeakageModel::skylake_core(),
            ThermalModel::for_tdp(Watts::new(tdp)),
        );
        let req = DvfsRequest {
            table: &t,
            active_cores: cores,
            cdyn_per_core: CdynProfile::from_nf(cdyn).unwrap(),
            budget: Watts::new(budget),
            overhead: Watts::new(3.0),
            vmax: Volts::new(vmax),
            tjmax: Celsius::new(93.0),
        };
        if let Ok(op) = solver.solve(&req) {
            prop_assert!(op.state.voltage <= req.vmax);
            prop_assert!(op.total_power <= req.budget + Watts::new(1e-9));
            prop_assert!(op.tj.value() <= 93.0 + 1e-6);
        }
    }

    /// More budget never means a lower frequency (solver monotonicity).
    #[test]
    fn dvfs_monotone_in_budget(
        cores in 1..5usize,
        b1 in 15.0..120.0f64,
        extra in 0.0..60.0f64,
    ) {
        let t = table(180.0);
        let solver = DvfsSolver::new(
            LeakageModel::skylake_core(),
            ThermalModel::for_tdp(Watts::new(91.0)),
        );
        let req = |budget: f64| DvfsRequest {
            table: &t,
            active_cores: cores,
            cdyn_per_core: CdynProfile::core_typical(),
            budget: Watts::new(budget),
            overhead: Watts::new(3.0),
            vmax: Volts::new(1.45),
            tjmax: Celsius::new(93.0),
        };
        if let (Ok(lean), Ok(rich)) = (solver.solve(&req(b1)), solver.solve(&req(b1 + extra))) {
            prop_assert!(rich.state.frequency >= lean.state.frequency);
        }
    }

    /// A smaller guardband never yields a lower frequency at fixed budget.
    #[test]
    fn dvfs_monotone_in_guardband(
        cores in 1..5usize,
        budget in 20.0..120.0f64,
        gb_small in 50.0..150.0f64,
        delta in 10.0..150.0f64,
    ) {
        let small = table(gb_small);
        let large = table(gb_small + delta);
        let solver = DvfsSolver::new(
            LeakageModel::skylake_core(),
            ThermalModel::for_tdp(Watts::new(91.0)),
        );
        fn req_for(t: &PStateTable, cores: usize, budget: f64) -> DvfsRequest<'_> {
            DvfsRequest {
                table: t,
                active_cores: cores,
                cdyn_per_core: CdynProfile::core_typical(),
                budget: Watts::new(budget),
                overhead: Watts::new(3.0),
                vmax: Volts::new(1.40),
                tjmax: Celsius::new(93.0),
            }
        }
        match (
            solver.solve(&req_for(&small, cores, budget)),
            solver.solve(&req_for(&large, cores, budget)),
        ) {
            (Ok(s), Ok(l)) => prop_assert!(s.state.frequency >= l.state.frequency),
            (Err(_), Ok(_)) => prop_assert!(false, "smaller guardband lost feasibility"),
            _ => {}
        }
    }

    /// PBM budget splits conserve the compute budget.
    #[test]
    fn pbm_conserves_budget(
        tdp in 20.0..120.0f64,
        uncore in 1.0..5.0f64,
        driver in 0.5..8.0f64,
        leak in 0.0..6.0f64,
    ) {
        prop_assume!(uncore < tdp);
        let pbm = PowerBudgetManager::new(Watts::new(tdp), Watts::new(uncore));
        let split = pbm.split_for_graphics(Watts::new(driver), Watts::new(leak));
        let total = split.cores.value() + split.graphics.value() + leak;
        prop_assert!(total <= pbm.compute_budget().value() + leak + 1e-9);
        prop_assert!(split.graphics.value() >= 0.0);
    }

    /// The EMA is always bracketed by the min and max of its inputs.
    #[test]
    fn ema_bracketed(samples in prop::collection::vec(0.0..200.0f64, 1..50)) {
        let mut ema = PowerEma::new(Seconds::new(8.0));
        let mut v = 0.0;
        for &p in &samples {
            v = ema.step(Watts::new(p), Seconds::new(1.0)).value();
        }
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(0.0, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} not in [{lo}, {hi}]");
    }

    /// The turbo controller only ever grants PL1 or PL2.
    #[test]
    fn turbo_grants_are_valid(samples in prop::collection::vec(0.0..150.0f64, 1..60)) {
        let pl1 = Watts::new(91.0);
        let pl2 = Watts::new(113.75);
        let mut turbo = TurboController::new(pl1, pl2);
        for &p in &samples {
            let grant = turbo.step(Watts::new(p), Seconds::new(1.0));
            prop_assert!(grant == pl1 || grant == pl2);
        }
    }

    /// The reliability guardband is monotone non-increasing in TDP and
    /// bounded by the paper's envelope.
    #[test]
    fn reliability_monotone(t1 in 35.0..91.0f64, t2 in 35.0..91.0f64) {
        let m = ReliabilityModel::new();
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let g_lo = m.guardband(Watts::new(lo));
        let g_hi = m.guardband(Watts::new(hi));
        prop_assert!(g_lo >= g_hi);
        prop_assert!(g_lo.as_mv() <= 20.0);
        prop_assert!(g_hi.as_mv() >= 4.0);
    }

    /// VID encode/decode never undershoots and stays within one step.
    #[test]
    fn vid_round_trip(mv in 250.0..1500.0f64) {
        let v = Volts::from_mv(mv);
        let decoded = VidCode::encode(v).decode();
        prop_assert!(decoded >= v);
        prop_assert!((decoded - v).as_mv() <= 5.0 + 1e-9);
    }

    /// The SVID bus always settles within its own settle-time estimate.
    #[test]
    fn svid_settles_within_estimate(from_mv in 300.0..1400.0f64, to_mv in 300.0..1400.0f64) {
        let mut bus = SvidBus::skylake();
        bus.issue(SvidCommand::SetVid(VidCode::encode(Volts::from_mv(from_mv))));
        bus.step(Seconds::from_ms(1.0));
        prop_assert_eq!(bus.output(), bus.target());
        let target = VidCode::encode(Volts::from_mv(to_mv)).decode();
        let estimate = bus.settle_time(target);
        bus.issue(SvidCommand::SetVid(VidCode::encode(Volts::from_mv(to_mv))));
        bus.step(estimate + Seconds::from_us(1.0));
        prop_assert_eq!(bus.output(), bus.target());
    }
}
