//! Firmware-level integration scenarios: the Pcode state machine, SVID
//! sequencing, licenses, the idle governor, and the C-state model working
//! together across crates.

use darkgates::units::{Seconds, Watts};
use darkgates::DarkGates;
use dg_cstates::states::PackageCstate;
use dg_pmu::license::License;
use dg_pmu::pcode::{Pcode, PcodeEvent};
use dg_power::dynamic::CdynProfile;
use dg_soc::trace_run::pcode_config;
use dg_workloads::spec::by_name;

fn boot(dg: &DarkGates, tdp_w: f64) -> Pcode {
    let product = dg.product(Watts::new(tdp_w));
    Pcode::boot(pcode_config(&product))
}

fn run_for(pcode: &mut Pcode, seconds: f64) {
    let dt = Seconds::from_ms(10.0);
    let steps = (seconds / dt.value()).round() as usize;
    for _ in 0..steps {
        pcode.step(dt);
    }
}

/// A full day-in-the-life scenario: boot → burst → AVX phase → idle →
/// wake → deep idle, with coherent telemetry at every stage.
#[test]
fn day_in_the_life() {
    let mut p = boot(&DarkGates::desktop(), 91.0);

    // Burst: all cores on a compute-heavy benchmark.
    let namd = by_name("444.namd").unwrap();
    p.handle(PcodeEvent::WorkloadChange {
        active_cores: 4,
        cdyn: namd.cdyn(),
    });
    run_for(&mut p, 10.0);
    let f_scalar = p.frequency().expect("running");
    assert!(f_scalar.as_ghz() >= 4.0, "scalar burst at {f_scalar}");

    // AVX-512 phase: frequency steps down by the license offset.
    p.handle(PcodeEvent::LicenseRequest(License::L2));
    run_for(&mut p, 5.0);
    let f_avx = p.frequency().expect("running");
    assert!(f_avx < f_scalar);
    assert_eq!(p.license(), License::L2);

    // Back to scalar, then into a long idle.
    p.handle(PcodeEvent::LicenseRequest(License::L0));
    run_for(&mut p, 2.0);
    p.handle(PcodeEvent::IdleRequest {
        expected_idle: Seconds::new(5.0),
    });
    assert_eq!(p.idle_state(), Some(PackageCstate::C8));
    run_for(&mut p, 5.0);

    // Wake into light work.
    p.handle(PcodeEvent::WorkloadChange {
        active_cores: 1,
        cdyn: CdynProfile::core_memory_bound(),
    });
    run_for(&mut p, 2.0);
    assert!(p.frequency().is_some());

    let t = p.telemetry();
    assert!(t.wakes >= 1);
    assert!(t.pstate_changes > 2);
    assert!(t.residency.idle_fraction(PackageCstate::C8) > 0.15);
    assert!(t.residency.active_fraction() > 0.5);
    assert!(t.max_tj.value() <= 94.0);
    // Energy bookkeeping covers the whole scenario.
    assert!((t.energy.elapsed().value() - 24.0).abs() < 0.5);
}

/// The same scenario on both packages: the desktop is faster when busy
/// and no worse than ~20 mW when deeply idle.
#[test]
fn hybrid_packages_compared_via_firmware() {
    let mut results = Vec::new();
    for dg in [DarkGates::desktop(), DarkGates::mobile()] {
        let mut p = boot(&dg, 91.0);
        p.handle(PcodeEvent::WorkloadChange {
            active_cores: 1,
            cdyn: CdynProfile::core_typical(),
        });
        run_for(&mut p, 10.0);
        let busy_f = p.frequency().expect("running");
        p.handle(PcodeEvent::IdleRequest {
            expected_idle: Seconds::new(10.0),
        });
        let idle_state = p.idle_state().expect("idle");
        // Average power over the idle stretch only.
        let before = p.telemetry().energy.energy_joules();
        run_for(&mut p, 10.0);
        let idle_power = (p.telemetry().energy.energy_joules() - before) / 10.0;
        results.push((busy_f, idle_state, idle_power));
    }
    let (f_desktop, s_desktop, p_desktop) = results[0];
    let (f_mobile, s_mobile, p_mobile) = results[1];
    assert!(
        f_desktop.as_mhz() - f_mobile.as_mhz() >= 300.0,
        "busy: {f_desktop} vs {f_mobile}"
    );
    assert_eq!(s_desktop, PackageCstate::C8);
    assert!(s_mobile <= PackageCstate::C7);
    assert!(
        (p_desktop - p_mobile).abs() < 0.05,
        "idle: desktop {p_desktop} W vs mobile {p_mobile} W"
    );
}

/// SVID sequencing: the firmware's voltage transitions always lead the
/// frequency on the way up — observable as a sub-ceiling frequency
/// immediately after a cold workload start.
#[test]
fn voltage_leads_frequency() {
    let mut p = boot(&DarkGates::mobile(), 91.0);
    p.handle(PcodeEvent::WorkloadChange {
        active_cores: 1,
        cdyn: CdynProfile::core_typical(),
    });
    // The rail boots at the floor VID; the first microseconds cannot run
    // the top bin.
    p.step(Seconds::from_us(5.0));
    let early = p.frequency().expect("running");
    run_for(&mut p, 2.0);
    let settled = p.frequency().expect("running");
    assert!(early < settled, "early {early} vs settled {settled}");
    assert!(p.svid_commands() >= 2);
}

/// Thermal integrity under the firmware at the smallest cooler: a
/// sustained all-core virus run never breaches Tjmax.
#[test]
fn firmware_respects_tjmax_at_35w() {
    let mut p = boot(&DarkGates::desktop(), 35.0);
    p.handle(PcodeEvent::WorkloadChange {
        active_cores: 4,
        // A power-virus core draws 2.2 nF.
        cdyn: CdynProfile::from_nf(2.2).unwrap(),
    });
    run_for(&mut p, 180.0);
    assert!(
        p.telemetry().max_tj.value() <= 93.5,
        "Tj {}",
        p.telemetry().max_tj
    );
    // The budget binds long before the cooler does (that is what a
    // TDP-sized cooler means): the virus run is pinned well below the
    // fused ceiling.
    let f = p.frequency().expect("running");
    assert!(f.as_ghz() <= 3.2, "virus sustained {f}");
    // Sustained power lands at (or under) PL1 once the EMA clamps.
    let avg = p.telemetry().energy.average_power();
    assert!(avg.value() <= 35.0 * 1.25 + 1.0, "avg {avg}");
}
