//! Cross-crate integration tests: the substrates must agree with each
//! other when composed into full systems.

use darkgates::units::{Amps, Seconds, Volts, Watts};
use darkgates::DarkGates;
use dg_cstates::latency::{break_even_time, LatencyTable};
use dg_cstates::power::IdlePowerModel;
use dg_cstates::resolve::{resolve, PlatformInputs};
use dg_cstates::states::{CoreCstate, DisplayState, GraphicsCstate, MemoryState, PackageCstate};
use dg_pdn::transient::{LoadStep, TransientSim};
use dg_pmu::guardband::DROOP_STEP_CURRENT_A;
use dg_power::dynamic::CdynProfile;
use dg_soc::products::Product;
use dg_soc::run::{run_graphics, run_spec};
use dg_soc::sim::{SimConfig, Simulator};
use dg_workloads::graphics::three_dmark_suite;
use dg_workloads::spec::{by_name, SpecMode};

/// The droop guardband must actually cover the droop the transient
/// simulator produces for the guardband's design current step.
#[test]
fn guardband_covers_simulated_droop() {
    for dg in [DarkGates::desktop(), DarkGates::mobile()] {
        let pdn = dg.build_pdn();
        let mgr = dg.guardband_manager();
        let sim = TransientSim::droop_capture(Volts::new(1.10));
        // The design step from 10 A after 1 µs, with a 10 ns staggered-wake
        // slew.
        let step = LoadStep {
            from: Amps::new(10.0),
            to: Amps::new(10.0 + DROOP_STEP_CURRENT_A),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(10.0),
        };
        let droop = sim.run(&pdn.ladder, step).droop();
        let gb = mgr.droop_guardband();
        assert!(
            gb.value() >= droop.value() * 0.85,
            "{:?}: guardband {gb} vs simulated droop {droop}",
            dg.mode()
        );
    }
}

/// The PDN's DC resistance must be consistent with the load-line model the
/// VR uses (the load-line is the first ladder element).
#[test]
fn pdn_and_loadline_agree() {
    let pdn = DarkGates::desktop().build_pdn();
    let r_dc = pdn.dc_resistance();
    let r_ll = pdn.loadline.resistance;
    assert!(r_dc > r_ll);
    assert!(r_dc.as_mohm() < r_ll.as_mohm() + 2.0);
}

/// Products must respect their own design limits when simulated with the
/// heaviest workload.
#[test]
fn virus_run_respects_all_limits() {
    for tdp in Product::skylake_tdp_levels() {
        for product in [Product::skylake_s(tdp), Product::skylake_h(tdp)] {
            let sim = Simulator::new(&product);
            let r = sim.run_cpu(
                &product.table_ac,
                4,
                // A power-virus core draws 2.2 nF.
                CdynProfile::from_nf(2.2).unwrap(),
                SimConfig {
                    duration: Seconds::new(120.0),
                    dt: Seconds::new(0.25),
                    trace: false,
                },
            );
            assert!(
                r.max_tj.value() <= product.limits.tjmax.value() + 1.0,
                "{}: Tj {}",
                product.name,
                r.max_tj
            );
            // Sustained power within ~PL1 (brief PL2 bursts average in).
            assert!(
                r.avg_power.value() <= product.limits.power.pl2.value(),
                "{}: avg power {}",
                product.name,
                r.avg_power
            );
        }
    }
}

/// The voltage the sim actually runs at never exceeds the product's Vmax
/// budget.
#[test]
fn simulated_voltage_below_vmax() {
    let product = Product::skylake_s(Watts::new(91.0));
    let top = product.table_1c.p0();
    assert!(
        top.voltage <= product.limits.vmax,
        "top state {} exceeds Vmax {}",
        top.voltage,
        product.limits.vmax
    );
}

/// A DarkGates desktop that wakes from full idle passes through the
/// C-state machinery consistently: the platform reaches exactly the
/// product's deepest state.
#[test]
fn cstate_resolution_matches_product_capability() {
    for dg in [DarkGates::desktop(), DarkGates::mobile()] {
        let product = dg.product(Watts::new(65.0));
        let inputs = PlatformInputs {
            cores: vec![CoreCstate::Cc7; product.core_count],
            graphics: GraphicsCstate::Rc6,
            display: DisplayState::On,
            memory: MemoryState::SelfRefresh,
            llc_flushed: true,
            deepest_allowed: product.deepest_pkg_cstate,
        };
        let reached = resolve(&inputs);
        assert_eq!(reached, product.deepest_pkg_cstate);
    }
}

/// Break-even analysis: entering C8 from C7 pays off within a millisecond
/// on a DarkGates package — far shorter than RMT's idle periods.
#[test]
fn c8_break_even_is_short() {
    let model = IdlePowerModel::new();
    let cfg = DarkGates::desktop().gating_config();
    let table = LatencyTable::skylake();
    let p_c7 = model.package_idle_power(PackageCstate::C7, &cfg);
    let p_c8 = model.package_idle_power(PackageCstate::C8, &cfg);
    let be = break_even_time(&table, p_c7, p_c8, PackageCstate::C8).expect("C8 saves power");
    assert!(
        be.value() < 1e-3,
        "break-even {be} too long for RMT-style idling"
    );
}

/// Graphics runs produce consistent budget accounting: the reported total
/// power stays within TDP and the graphics budget shrinks under bypass.
#[test]
fn graphics_budget_accounting() {
    for tdp in Product::skylake_tdp_levels() {
        let s = Product::skylake_s(tdp);
        let h = Product::skylake_h(tdp);
        for scene in three_dmark_suite() {
            let rs = run_graphics(&s, &scene);
            let rh = run_graphics(&h, &scene);
            assert!(
                rs.total_power.value() <= tdp.value() + 1e-6,
                "{}: {} over TDP",
                s.name,
                rs.total_power
            );
            assert!(rs.gfx_budget <= rh.gfx_budget);
            assert!(rs.gfx_frequency.as_mhz() >= 300.0);
        }
    }
}

/// Base mode runs one core; rate mode runs all cores — and the simulator's
/// power reflects that.
#[test]
fn mode_power_scaling() {
    let product = Product::skylake_h(Watts::new(91.0));
    let namd = by_name("444.namd").unwrap();
    let base = run_spec(&product, &namd, SpecMode::Base);
    let rate = run_spec(&product, &namd, SpecMode::Rate);
    assert!(rate.avg_power.value() > 2.0 * base.avg_power.value());
    assert!(rate.frequency <= base.frequency);
}

/// The same die, two packages: V/F curve objects are identical between the
/// two products; only guardbands, ceilings, and C-state capability differ.
#[test]
fn die_sharing_invariant() {
    let s = Product::skylake_s(Watts::new(45.0));
    let h = Product::skylake_h(Watts::new(45.0));
    assert_eq!(s.core_count, h.core_count);
    assert_eq!(s.core_leakage, h.core_leakage);
    assert_eq!(s.gfx_leakage, h.gfx_leakage);
    assert_eq!(s.thermal, h.thermal);
    assert!(s.guardband < h.guardband);
    assert!(s.fmax_1c() > h.fmax_1c());
    assert!(s.deepest_pkg_cstate > h.deepest_pkg_cstate);
}

/// The multi-node thermal network independently reproduces the
/// reliability model's "+~5 °C" neighbor-heating assumption (Sec. 4.2).
#[test]
fn thermal_network_confirms_reliability_assumption() {
    use dg_power::thermal_network::ThermalNetwork;
    let net = ThermalNetwork::skylake_floorplan_for_tdp(Watts::new(45.0));
    let w = |v: [f64; 6]| v.into_iter().map(Watts::new).collect::<Vec<_>>();
    let gated = net.steady_state(&w([14.0, 0.0, 0.0, 0.0, 0.0, 3.0]));
    let bypassed = net.steady_state(&w([14.0, 1.4, 1.4, 1.4, 0.0, 3.0]));
    let (idx, _) = net.hottest(&gated);
    let delta = bypassed[idx].value() - gated[idx].value();
    let assumed = DarkGates::desktop()
        .reliability_model()
        .extra_temperature()
        .value();
    assert!(
        (delta - assumed).abs() < 3.0,
        "network {delta} °C vs assumed {assumed} °C"
    );
}

/// The package-domain transform and the ladder topology agree: the
/// desktop package has one un-gated core domain, the mobile package has
/// gated per-core domains, and pooling alleviates per-bump current.
#[test]
fn package_transform_matches_topologies() {
    use dg_pdn::package::PackageLayout;
    let mobile = PackageLayout::skylake_mobile();
    let desktop = PackageLayout::skylake_desktop();
    assert_eq!(
        mobile.domains().iter().filter(|d| d.gated).count(),
        4,
        "mobile has four gated core domains"
    );
    assert!(desktop.domains().iter().all(|d| !d.gated));
    // Topology side: the gated ladder has a power-gate stage; the
    // bypassed one does not.
    let has_gate = |dg: DarkGates| {
        dg.build_pdn()
            .ladder
            .stages()
            .iter()
            .any(|s| s.name == "power-gate")
    };
    assert!(has_gate(DarkGates::mobile()));
    assert!(!has_gate(DarkGates::desktop()));
    // EM relief (Sec. 4.2): a single-core burst stresses the pooled
    // domain's bumps far less.
    // Per-bump current is the burst over the domain's bumps, so it falls
    // with the domain's EM capacity.
    let private = mobile.current_capacity("VC0G").unwrap();
    let pooled = desktop.current_capacity("VCC_CORES").unwrap();
    assert!(private.value() < 0.3 * pooled.value());
}

/// Full stack smoke test: desktop DarkGates runs a benchmark, idles into
/// C8, and reports plausible numbers everywhere.
#[test]
fn end_to_end_smoke() {
    let dg = DarkGates::desktop();
    let product = dg.product(Watts::new(91.0));

    // Active: run a benchmark.
    let namd = by_name("444.namd").unwrap();
    let report = run_spec(&product, &namd, SpecMode::Base);
    assert!(report.frequency.as_ghz() > 4.0);
    assert!(report.avg_power.value() > 5.0);

    // Idle: resolve into C8 and check the idle power is sub-watt.
    let model = IdlePowerModel::new();
    let idle = model.package_idle_power(product.deepest_pkg_cstate, &dg.gating_config());
    assert!(idle.value() < 1.0, "idle power {idle}");
}
