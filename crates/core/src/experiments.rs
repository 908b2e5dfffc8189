//! The experiment harness: one entry point per figure/table of the paper's
//! evaluation. Each function returns structured rows so the bench binaries
//! can print them and the integration tests can assert the paper's shape.

use crate::architecture::DarkGates;
use dg_cstates::governor::IdleGovernor;
use dg_cstates::power::{GatingConfig, IdlePowerModel};
use dg_cstates::states::PackageCstate;
use dg_pdn::impedance::ImpedanceProfile;
use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_power::pstate::PStateTable;
use dg_power::units::{Hertz, Seconds, Volts, Watts};
use dg_power::vf::VfCurve;
use dg_power::PowerError;
use dg_soc::products::Product;
use dg_soc::run::{run_graphics, run_spec};
use dg_workloads::energy::{energy_star, ready_mode, EnergyWorkload};
use dg_workloads::graphics::three_dmark_suite;
use dg_workloads::spec::{suite, SpecMode, SpecSuite};

// ---------------------------------------------------------------- Fig. 3

/// One bar of the motivational Fig. 3: the average SPEC gain on Broadwell
/// from a −100 mV guardband reduction, per TDP × suite × mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// TDP level (35/45/65/95 W).
    pub tdp: Watts,
    /// SPECint or SPECfp.
    pub suite: SpecSuite,
    /// base or rate mode.
    pub mode: SpecMode,
    /// Mean performance gain over the unmodified guardband.
    pub gain: f64,
}

/// Runs the Fig. 3 experiment: Broadwell, guardband reduced by 100 mV,
/// four TDP levels, SPECint/fp × base/rate.
///
/// The 16 grid cells are independent, so they fan out over the
/// [`dg_engine`] pool as one flat job list in row order; within a cell the
/// per-benchmark sum stays sequential in suite order, so the result is
/// bit-identical for any thread count.
pub fn fig3() -> Vec<Fig3Row> {
    let mut jobs = Vec::new();
    for tdp in Product::broadwell_tdp_levels() {
        for mode in [SpecMode::Base, SpecMode::Rate] {
            for suite_kind in [SpecSuite::Int, SpecSuite::Fp] {
                jobs.push((tdp, mode, suite_kind));
            }
        }
    }
    dg_engine::par_map(&jobs, |_, &(tdp, mode, suite_kind)| {
        let baseline = Product::broadwell(tdp, Volts::ZERO);
        let reduced = Product::broadwell(tdp, Volts::from_mv(-100.0));
        let benchmarks: Vec<_> = suite()
            .into_iter()
            .filter(|b| b.suite == suite_kind)
            .collect();
        let mut total = 0.0;
        for b in &benchmarks {
            let perf_red = run_spec(&reduced, b, mode).perf;
            let perf_base = run_spec(&baseline, b, mode).perf;
            total += perf_red / perf_base - 1.0;
        }
        Fig3Row {
            tdp,
            suite: suite_kind,
            mode,
            gain: total / benchmarks.len() as f64,
        }
    })
}

/// One point of the Fig. 3 guardband sweep: mean SPEC base gain on
/// Broadwell for a given guardband reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3SweepPoint {
    /// TDP level.
    pub tdp: Watts,
    /// Guardband reduction in millivolts (positive number = reduction).
    pub reduction_mv: f64,
    /// Resulting frequency uplift in MHz (1-core fused ceiling).
    pub uplift_mhz: f64,
    /// Mean SPEC base gain.
    pub gain: f64,
}

/// The Fig. 3 x-axis sweep: performance improvement as the frequency
/// increases, i.e. as the guardband reduction deepens toward the paper's
/// 100 mV operating point.
pub fn fig3_sweep() -> Vec<Fig3SweepPoint> {
    let mut jobs = Vec::new();
    for tdp in Product::broadwell_tdp_levels() {
        for reduction_mv in [25.0, 50.0, 75.0, 100.0] {
            jobs.push((tdp, reduction_mv));
        }
    }
    dg_engine::par_map(&jobs, |_, &(tdp, reduction_mv)| {
        let baseline = Product::broadwell(tdp, Volts::ZERO);
        let reduced = Product::broadwell(tdp, Volts::from_mv(-reduction_mv));
        let all = suite();
        let gain: f64 = all
            .iter()
            .map(|b| {
                run_spec(&reduced, b, SpecMode::Base).perf
                    / run_spec(&baseline, b, SpecMode::Base).perf
                    - 1.0
            })
            .sum::<f64>()
            / all.len() as f64;
        Fig3SweepPoint {
            tdp,
            reduction_mv,
            uplift_mhz: reduced.fmax_1c().as_mhz() - baseline.fmax_1c().as_mhz(),
            gain,
        }
    })
}

// ---------------------------------------------------------------- Fig. 4

/// The impedance–frequency comparison of Fig. 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// Profile with power-gates in the path.
    pub gated: ImpedanceProfile,
    /// Profile with the gates bypassed.
    pub bypassed: ImpedanceProfile,
    /// Geometric-mean impedance ratio gated/bypassed across the sweep.
    pub mean_ratio: f64,
    /// Ratio of the profiles' peaks.
    pub peak_ratio: f64,
}

/// Runs the Fig. 4 experiment: AC impedance sweep of both topologies.
pub fn fig4() -> Fig4Result {
    let gated = SkylakePdn::build(PdnVariant::Gated).impedance_profile();
    let bypassed = SkylakePdn::build(PdnVariant::Bypassed).impedance_profile();
    let mean_ratio = gated.mean_ratio_over(&bypassed);
    let peak_ratio = gated.peak().1 / bypassed.peak().1;
    Fig4Result {
        gated,
        bypassed,
        mean_ratio,
        peak_ratio,
    }
}

// ---------------------------------------------------------------- Fig. 7

/// One bar of Fig. 7: a benchmark's gain at 91 W.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Which suite it belongs to.
    pub suite: SpecSuite,
    /// Its frequency-scalability factor.
    pub scalability: f64,
    /// DarkGates gain over the gated baseline.
    pub gain: f64,
}

/// The Fig. 7 result: per-benchmark gains at 91 W, base mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// Per-benchmark rows, suite order.
    pub rows: Vec<Fig7Row>,
    /// Mean gain across the suite.
    pub average: f64,
    /// Largest gain.
    pub max: f64,
}

/// Runs the Fig. 7 experiment: SPEC base on Skylake-S vs. Skylake-H, 91 W.
///
/// Benchmarks fan out over the [`dg_engine`] pool; rows come back in suite
/// order and the average/max reductions run over that ordered list, so the
/// result is bit-identical for any thread count.
pub fn fig7() -> Fig7Result {
    let tdp = Watts::new(91.0);
    let s = DarkGates::desktop().product(tdp);
    let h = DarkGates::mobile().product(tdp);
    let benchmarks = suite();
    let rows = dg_engine::par_map(&benchmarks, |_, b| {
        let gain =
            run_spec(&s, b, SpecMode::Base).perf / run_spec(&h, b, SpecMode::Base).perf - 1.0;
        Fig7Row {
            benchmark: b.name.to_owned(),
            suite: b.suite,
            scalability: b.scalability,
            gain,
        }
    });
    let average = rows.iter().map(|r| r.gain).sum::<f64>() / rows.len() as f64;
    let max = rows.iter().map(|r| r.gain).fold(0.0, f64::max);
    Fig7Result { rows, average, max }
}

// ---------------------------------------------------------------- Fig. 8

/// One TDP column of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Cell {
    /// TDP level.
    pub tdp: Watts,
    /// Mean SPEC base gain.
    pub base_gain: f64,
    /// Mean SPEC rate gain.
    pub rate_gain: f64,
}

/// Runs the Fig. 8 experiment: average SPEC base/rate gains at
/// 35/45/65/91 W.
///
/// Each (TDP, mode) cell is an independent job on the [`dg_engine`] pool
/// (8 jobs instead of 4 threads, so the grid load-balances better); the
/// per-benchmark sum inside a cell stays sequential in suite order, and
/// cells are reassembled into TDP order, so the result is bit-identical
/// for any thread count.
pub fn fig8() -> Vec<Fig8Cell> {
    let tdps = Product::skylake_tdp_levels();
    let mut jobs = Vec::new();
    for &tdp in &tdps {
        for mode in [SpecMode::Base, SpecMode::Rate] {
            jobs.push((tdp, mode));
        }
    }
    let gains = dg_engine::par_map(&jobs, |_, &(tdp, mode)| {
        let s = DarkGates::desktop().product(tdp);
        let h = DarkGates::mobile().product(tdp);
        let all = suite();
        let total: f64 = all
            .iter()
            .map(|b| run_spec(&s, b, mode).perf / run_spec(&h, b, mode).perf - 1.0)
            .sum();
        total / all.len() as f64
    });
    tdps.iter()
        .zip(gains.chunks_exact(2))
        .map(|(&tdp, pair)| Fig8Cell {
            tdp,
            base_gain: pair[0],
            rate_gain: pair[1],
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 9

/// One TDP bar of Fig. 9.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// TDP level.
    pub tdp: Watts,
    /// Mean 3DMark FPS degradation of DarkGates vs. the baseline
    /// (positive = slower).
    pub degradation: f64,
}

/// Runs the Fig. 9 experiment: 3DMark on Skylake-S vs. Skylake-H across
/// the TDP levels (one [`dg_engine`] job per TDP, scene sums sequential).
pub fn fig9() -> Vec<Fig9Row> {
    let tdps = Product::skylake_tdp_levels();
    dg_engine::par_map(&tdps, |_, &tdp| {
        let s = DarkGates::desktop().product(tdp);
        let h = DarkGates::mobile().product(tdp);
        let scenes = three_dmark_suite();
        let total: f64 = scenes
            .iter()
            .map(|w| 1.0 - run_graphics(&s, w).fps / run_graphics(&h, w).fps)
            .sum();
        Fig9Row {
            tdp,
            degradation: total / scenes.len() as f64,
        }
    })
}

// --------------------------------------------------------------- Fig. 10

/// One workload group of Fig. 10.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Row {
    /// Workload name.
    pub workload: String,
    /// Average power of DarkGates clamped at package C7 (the reference).
    pub dg_c7_power: Watts,
    /// Average power of DarkGates with package C8 (the proposal).
    pub dg_c8_power: Watts,
    /// Average power of the gated baseline at package C7.
    pub non_dg_c7_power: Watts,
    /// Power reduction of DarkGates+C8 vs. DarkGates+C7.
    pub dg_c8_reduction: f64,
    /// Power reduction of Non-DarkGates+C7 vs. DarkGates+C7.
    pub non_dg_reduction: f64,
    /// Whether each configuration meets the program's power limit.
    pub dg_c7_meets_limit: bool,
    /// See [`Fig10Row::dg_c7_meets_limit`].
    pub dg_c8_meets_limit: bool,
    /// See [`Fig10Row::dg_c7_meets_limit`].
    pub non_dg_meets_limit: bool,
}

fn fig10_row(workload: &EnergyWorkload) -> Fig10Row {
    let model = IdlePowerModel::new();
    let bypassed = GatingConfig::skylake(true, 4);
    let gated = GatingConfig::skylake(false, 4);

    let dg_c7 = workload.average_power(&model, &bypassed, PackageCstate::C7);
    let dg_c8 = workload.average_power(&model, &bypassed, PackageCstate::C8);
    let non_dg_c7 = workload.average_power(&model, &gated, PackageCstate::C7);

    Fig10Row {
        workload: workload.name.to_owned(),
        dg_c7_power: dg_c7,
        dg_c8_power: dg_c8,
        non_dg_c7_power: non_dg_c7,
        dg_c8_reduction: 1.0 - dg_c8 / dg_c7,
        non_dg_reduction: 1.0 - non_dg_c7 / dg_c7,
        dg_c7_meets_limit: dg_c7 <= workload.limit,
        dg_c8_meets_limit: dg_c8 <= workload.limit,
        non_dg_meets_limit: non_dg_c7 <= workload.limit,
    }
}

/// Runs the Fig. 10 experiment: ENERGY STAR and RMT average power for
/// DarkGates+C8 and Non-DarkGates+C7, both relative to DarkGates+C7.
pub fn fig10() -> Vec<Fig10Row> {
    vec![fig10_row(&energy_star()), fig10_row(&ready_mode())]
}

// ---------------------------------------------------------------- Tables

/// Regenerates Table 1: every package C-state with its entry conditions.
pub fn table1() -> Vec<(PackageCstate, &'static str)> {
    PackageCstate::ALL
        .iter()
        .map(|s| (*s, s.entry_conditions()))
        .collect()
}

/// The Table 2 system-parameter summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Desktop product name (the DarkGates part).
    pub desktop: String,
    /// Mobile product name (the gated baseline).
    pub mobile: String,
    /// Core frequency range, GHz.
    pub core_freq_ghz: (f64, f64),
    /// Graphics frequency range, MHz.
    pub gfx_freq_mhz: (f64, f64),
    /// TDP range, W.
    pub tdp_w: (f64, f64),
    /// Core count.
    pub cores: usize,
}

/// Regenerates Table 2 from the product catalog.
pub fn table2() -> Table2 {
    let tdp_hi = Watts::new(91.0);
    let s = DarkGates::desktop().product(tdp_hi);
    let h = DarkGates::mobile().product(tdp_hi);
    Table2 {
        desktop: s.name.clone(),
        mobile: h.name.clone(),
        core_freq_ghz: (s.table_1c.pn().frequency.as_ghz(), h.fmax_1c().as_ghz()),
        gfx_freq_mhz: (
            s.table_gfx.pn().frequency.as_mhz(),
            s.table_gfx.p0().frequency.as_mhz(),
        ),
        tdp_w: (35.0, 91.0),
        cores: s.core_count,
    }
}

// ----------------------------------------------------------- Full sweep

/// Every figure dataset of the evaluation, computed in one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Fig. 3 grid rows.
    pub fig3: Vec<Fig3Row>,
    /// Fig. 3 guardband-reduction sweep.
    pub fig3_sweep: Vec<Fig3SweepPoint>,
    /// Fig. 4 impedance comparison.
    pub fig4: Fig4Result,
    /// Fig. 7 per-benchmark gains.
    pub fig7: Fig7Result,
    /// Fig. 8 TDP sweep.
    pub fig8: Vec<Fig8Cell>,
    /// Fig. 9 graphics sweep.
    pub fig9: Vec<Fig9Row>,
    /// Fig. 10 energy workloads.
    pub fig10: Vec<Fig10Row>,
}

/// Runs every figure experiment once and returns the combined datasets.
///
/// This is the single entry point the `validate` and `all` binaries use so
/// a full evaluation computes each dataset exactly once. The figures run
/// in sequence — each one already saturates the [`dg_engine`] pool
/// internally, and the shared substrate caches warmed by the first figure
/// (impedance profiles, guardband managers, finished products) feed all
/// later ones.
pub fn evaluate_all() -> Evaluation {
    Evaluation {
        fig3: fig3(),
        fig3_sweep: fig3_sweep(),
        fig4: fig4(),
        fig7: fig7(),
        fig8: fig8(),
        fig9: fig9(),
        fig10: fig10(),
    }
}

// ------------------------------------------------------------ Ablations

/// One power-virus level of the bypassed PDN (the Fig. 2(c) mechanism).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirusLevelCost {
    /// IR guardband paid at this level.
    pub guardband: Volts,
    /// What this level saves over a single-level design, which always pays
    /// the top level's guardband.
    pub saving: Volts,
}

/// Average package idle power of three C-state policies on one mixed
/// idle trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorCosts {
    /// The adaptive [`IdleGovernor`].
    pub adaptive: Watts,
    /// Entering package C8 on every idle period.
    pub always_c8: Watts,
    /// Entering package C6 on every idle period.
    pub always_c6: Watts,
}

/// The measured values behind the six ablations. Each one removes a
/// DarkGates design choice and shows what breaks, or what it costs;
/// [`crate::claims::grade_ablations`] grades them.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// The Fig. 10 rows. Their DarkGates+C7 columns are the bypass-only
    /// ablation: gates bypassed, no package C8.
    pub fig10: Vec<Fig10Row>,
    /// Gated-package idle power at package C7.
    pub gated_idle_c7: Watts,
    /// Gated-package idle power at package C8 (C8 without bypass).
    pub gated_idle_c8: Watts,
    /// 1-core Fmax of the gated part at 91 W.
    pub fmax_gated: Hertz,
    /// 1-core Fmax of the bypassed part at 91 W.
    pub fmax_bypassed: Hertz,
    /// The reliability guardband adder at 91 W.
    pub reliability_adder: Volts,
    /// The bypassed part's 1-core Fmax at 91 W with and without the
    /// adder, within the gated part's voltage budget.
    pub fmax_with_and_without_adder: Result<(Hertz, Hertz), PowerError>,
    /// The bypassed PDN's power-virus levels, lowest first.
    pub virus_levels: Vec<VirusLevelCost>,
    /// `(copies, gain)`: the mean SPEC rate gain of the 91 W cell's
    /// 4.4 GHz over 4.0 GHz when the copies contend for memory.
    pub rate_gains: Vec<(usize, f64)>,
    /// The idle policies on the bypassed (DarkGates) package.
    pub governor_bypassed: GovernorCosts,
    /// The idle policies on the gated baseline package.
    pub governor_gated: GovernorCosts,
}

/// Measures the six ablations at 91 W.
pub fn ablations() -> Ablations {
    let tdp = Watts::new(91.0);
    let model = IdlePowerModel::new();
    let gated = GatingConfig::skylake(false, 4);
    let virus = SkylakePdn::build(PdnVariant::Bypassed).virus_table;
    Ablations {
        fig10: fig10(),
        gated_idle_c7: model.package_idle_power(PackageCstate::C7, &gated),
        gated_idle_c8: model.package_idle_power(PackageCstate::C8, &gated),
        fmax_gated: DarkGates::mobile().product(tdp).fmax_1c(),
        fmax_bypassed: DarkGates::desktop().product(tdp).fmax_1c(),
        reliability_adder: DarkGates::desktop().reliability_model().guardband(tdp),
        fmax_with_and_without_adder: fmax_with_and_without_adder(tdp),
        virus_levels: (0..virus.levels().len())
            .map(|i| VirusLevelCost {
                guardband: virus.guardband_at(i),
                saving: virus.saving_vs_single_level(i),
            })
            .collect(),
        rate_gains: [1, 2, 4]
            .into_iter()
            .map(|copies| (copies, contended_rate_gain(copies)))
            .collect(),
        governor_bypassed: governor_costs(true),
        governor_gated: governor_costs(false),
    }
}

/// The bypassed part's quantized 1-core Fmax at `tdp` with its full
/// guardband and with the reliability adder taken out. Both fit the
/// voltage the gated part spends at its fused 4.2 GHz ceiling.
fn fmax_with_and_without_adder(tdp: Watts) -> Result<(Hertz, Hertz), PowerError> {
    let curve = VfCurve::skylake_core();
    let desktop = DarkGates::desktop();
    let guardband = desktop.guardband_manager().total_guardband(tdp);
    let adder = desktop.reliability_model().guardband(tdp);
    let budget = curve.voltage_at(Hertz::from_ghz(4.2))?
        + DarkGates::mobile().guardband_manager().total_guardband(tdp);
    let fmax = |gb: Volts| {
        curve
            .with_guardband(gb)
            .max_frequency_at_quantized(budget, PStateTable::standard_bin())
    };
    Ok((fmax(guardband)?, fmax(guardband - adder)?))
}

/// Suite-mean SPEC rate gain of 4.4 GHz over 4.0 GHz with `copies`
/// copies contending for memory bandwidth.
fn contended_rate_gain(copies: usize) -> f64 {
    let all = suite();
    all.iter()
        .map(|b| b.rate_speedup(4.4e9, 4.0e9, copies) - 1.0)
        .sum::<f64>()
        / all.len() as f64
}

/// The adaptive idle governor against always-C8 and always-C6 on an
/// interactive trace: 400 µs gaps, with every tenth gap 0.8 s long.
fn governor_costs(bypassed: bool) -> GovernorCosts {
    let trace: Vec<Seconds> = (0..60)
        .map(|i| {
            if i % 10 == 0 {
                Seconds::new(0.8)
            } else {
                Seconds::from_us(400.0)
            }
        })
        .collect();
    let mut governor = IdleGovernor::new(
        GatingConfig::skylake(bypassed, 4),
        PackageCstate::C8,
        Seconds::from_ms(2.0),
    );
    let idle: f64 = trace.iter().map(|d| d.value()).sum();
    let always = |state| {
        let energy: f64 = trace
            .iter()
            .map(|&d| governor.expected_energy(state, d))
            .sum();
        Watts::new(energy / idle)
    };
    let always_c8 = always(PackageCstate::C8);
    let always_c6 = always(PackageCstate::C6);
    GovernorCosts {
        adaptive: governor.evaluate(&trace),
        always_c8,
        always_c6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full-scale experiment runs live in `tests/experiments.rs`; here we
    // keep the cheap structural checks.

    #[test]
    fn fig4_ratio_approximately_two() {
        let r = fig4();
        assert!((1.5..3.0).contains(&r.mean_ratio), "mean {}", r.mean_ratio);
        assert!((1.3..2.5).contains(&r.peak_ratio), "peak {}", r.peak_ratio);
    }

    #[test]
    fn fig10_reproduces_paper_relations() {
        let rows = fig10();
        assert_eq!(rows.len(), 2);
        let es = &rows[0];
        let rmt = &rows[1];
        assert!((0.25..0.42).contains(&es.dg_c8_reduction), "{es:?}");
        assert!((0.55..0.78).contains(&rmt.dg_c8_reduction), "{rmt:?}");
        for r in &rows {
            assert!(!r.dg_c7_meets_limit, "{}: C7 should miss", r.workload);
            assert!(r.dg_c8_meets_limit, "{}: C8 should meet", r.workload);
            assert!(r.non_dg_meets_limit);
            // Non-DarkGates edges out DarkGates+C8.
            assert!(r.non_dg_reduction >= r.dg_c8_reduction);
        }
    }

    /// Every ablation value, pinned bit for bit, so a change to any
    /// mechanism an ablation exercises shows here.
    #[test]
    fn ablation_values_are_pinned() {
        let a = ablations();
        let (with, without) = a
            .fmax_with_and_without_adder
            .clone()
            .expect("the V/F curve places both Fmax points");
        let [bypassed, gated] = [a.governor_bypassed, a.governor_gated]
            .map(|p| vec![p.adaptive.value(), p.always_c8.value(), p.always_c6.value()]);
        let measured: [Vec<f64>; 9] = [
            a.fig10.iter().map(|r| r.dg_c7_power.value()).collect(),
            vec![a.gated_idle_c7.value(), a.gated_idle_c8.value()],
            vec![a.fmax_gated.as_ghz(), a.fmax_bypassed.as_ghz()],
            vec![a.reliability_adder.as_mv(), with.as_ghz(), without.as_ghz()],
            a.virus_levels.iter().map(|l| l.guardband.as_mv()).collect(),
            a.virus_levels.iter().map(|l| l.saving.as_mv()).collect(),
            a.rate_gains.iter().map(|&(_, gain)| gain).collect(),
            bypassed,
            gated,
        ];
        let pinned: [&[f64]; 9] = [
            // bypass only: ENERGY STAR and RMT at DarkGates+C7 (W)
            &[1.261695139749841, 1.564625425899306],
            // C8 only: gated C7 and C8 idle (W), gated and bypassed Fmax (GHz)
            &[0.47800000000000004, 0.445],
            &[4.2, 4.6],
            // reliability adder (mV), Fmax with and without it (GHz)
            &[4.92572252820211, 4.6, 4.6],
            // virus levels: guardbands, then savings against one level (mV)
            &[54.400000000000006, 99.20000000000002, 188.79999999999998],
            &[134.4, 89.59999999999998, 0.0],
            // contended rate gain at 1, 2 and 4 copies
            &[0.05049997499441977, 0.04942991665050662, 0.0474527076675595],
            // adaptive, always-C8, always-C6 (W): bypassed, then gated
            &[0.4553258884911367, 0.4553258884911367, 1.640440663712909],
            &[0.47627502903600505, 0.4513036336485815, 0.6303519163763059],
        ];
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (got, want) in measured.iter().zip(pinned) {
            assert_eq!(bits(got), bits(want), "measured {got:?}");
        }
        let copies: Vec<usize> = a.rate_gains.iter().map(|&(c, _)| c).collect();
        assert_eq!(copies, [1, 2, 4]);
    }

    #[test]
    fn table1_lists_all_states() {
        let t = table1();
        assert_eq!(t.len(), 8);
        assert_eq!(t[0].0, PackageCstate::C0);
        assert_eq!(t[7].0, PackageCstate::C10);
    }

    #[test]
    fn table2_matches_catalog() {
        let t = table2();
        assert_eq!(t.cores, 4);
        assert!((t.core_freq_ghz.0 - 0.8).abs() < 1e-9);
        assert!((t.core_freq_ghz.1 - 4.2).abs() < 1e-9);
        assert!(t.gfx_freq_mhz.1 >= 1150.0);
        assert!(t.desktop.contains("DarkGates"));
    }
}
