//! Firmware-level integration scenarios: the Pcode state machine, SVID
//! sequencing, licenses, the idle governor, and the C-state model working
//! together across crates.

use darkgates::units::{Hertz, Seconds, Watts};
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

/// The deepest package C-state the residency counters have seen, if any.
fn deepest_resident(pcode: &Pcode) -> Option<PackageCstate> {
    let residency = &pcode.telemetry().residency;
    PackageCstate::ALL
        .into_iter()
        .filter(|&s| residency.idle_fraction(s) > 0.0)
        .max()
}

/// Steps the firmware for `seconds` in 10 ms steps and returns the
/// frequency it ran at after each step.
fn run_for(pcode: &mut Pcode, seconds: f64) -> Vec<Option<Hertz>> {
    let dt = Seconds::from_ms(10.0);
    let steps = (seconds / dt.value()).round() as usize;
    (0..steps)
        .map(|_| {
            pcode.step(dt);
            pcode.frequency()
        })
        .collect()
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
    let mut frequencies = run_for(&mut p, 10.0);
    let f_scalar = p.frequency().expect("running");
    assert!(f_scalar.as_ghz() >= 4.0, "scalar burst at {f_scalar}");

    // AVX-512 phase: frequency steps down by the license offset.
    p.handle(PcodeEvent::LicenseRequest(License::L2));
    frequencies.extend(run_for(&mut p, 5.0));
    let f_avx = p.frequency().expect("running");
    assert!(f_avx < f_scalar);

    // Back to scalar, then into a long idle.
    p.handle(PcodeEvent::LicenseRequest(License::L0));
    frequencies.extend(run_for(&mut p, 2.0));
    p.handle(PcodeEvent::IdleRequest {
        expected_idle: Seconds::new(5.0),
    });
    frequencies.extend(run_for(&mut p, 5.0));
    assert!(p.frequency().is_none());
    assert_eq!(deepest_resident(&p), Some(PackageCstate::C8));

    // Wake into light work.
    p.handle(PcodeEvent::WorkloadChange {
        active_cores: 1,
        cdyn: CdynProfile::core_memory_bound(),
    });
    frequencies.extend(run_for(&mut p, 2.0));
    assert!(p.frequency().is_some());

    // The firmware moved between running P-states more than twice.
    let changes = frequencies
        .windows(2)
        .filter(|w| matches!(w, [Some(a), Some(b)] if a != b))
        .count();
    assert!(changes > 2, "{changes} P-state change(s)");

    let t = p.telemetry();
    assert!(t.wakes >= 1);
    assert!(t.residency.idle_fraction(PackageCstate::C8) > 0.15);
    let idle: f64 = PackageCstate::ALL
        .into_iter()
        .map(|s| t.residency.idle_fraction(s))
        .sum();
    assert!(1.0 - idle > 0.5, "active fraction {}", 1.0 - idle);
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
        // Average power over the idle stretch only.
        let joules = |p: &Pcode| {
            let energy = &p.telemetry().energy;
            energy.average_power().value() * energy.elapsed().value()
        };
        let before = joules(&p);
        run_for(&mut p, 10.0);
        let idle_state = deepest_resident(&p).expect("idle");
        let idle_power = (joules(&p) - before) / 10.0;
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
}

/// Thermal integrity under the firmware at the smallest cooler: a
/// sustained all-core virus run is held by the power budget, far from
/// the cooler's limit. The junction temperature is the firmware's private
/// state; `dg_pmu`'s `virus_run_never_breaches_tjmax_at_35w` bounds it at
/// every step of a 35 W all-core virus run.
#[test]
fn firmware_respects_tjmax_at_35w() {
    let mut p = boot(&DarkGates::desktop(), 35.0);
    p.handle(PcodeEvent::WorkloadChange {
        active_cores: 4,
        // A power-virus core draws 2.2 nF.
        cdyn: CdynProfile::from_nf(2.2).unwrap(),
    });
    run_for(&mut p, 180.0);
    // The budget binds long before the cooler does (that is what a
    // TDP-sized cooler means): the virus run is pinned well below the
    // fused ceiling.
    let f = p.frequency().expect("running");
    assert!(f.as_ghz() <= 3.2, "virus sustained {f}");
    // Sustained power lands at (or under) PL1 once the EMA clamps.
    let avg = p.telemetry().energy.average_power();
    assert!(avg.value() <= 35.0 * 1.25 + 1.0, "avg {avg}");
}
