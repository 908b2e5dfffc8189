//! Prints the gated and bypassed PDNs' peak impedance, droop guardband
//! and total guardband per TDP: `cargo run -p dg-pmu --example gbinfo`.

use dg_pdn::skylake::PdnVariant;
use dg_pdn::units::Watts;
use dg_pmu::guardband::GuardbandManager;
fn main() {
    let g = GuardbandManager::for_variant(PdnVariant::Gated);
    let b = GuardbandManager::for_variant(PdnVariant::Bypassed);
    println!(
        "gated:   Zpk={:.3} mΩ droop={:.1} mV",
        g.peak_impedance().as_mohm(),
        g.droop_guardband().as_mv()
    );
    println!(
        "bypassed Zpk={:.3} mΩ droop={:.1} mV",
        b.peak_impedance().as_mohm(),
        b.droop_guardband().as_mv()
    );
    for tdp in [35.0, 45.0, 65.0, 91.0] {
        let t = Watts::new(tdp);
        println!(
            "tdp {tdp}: total gated={:.1} byp={:.1} saving={:.1} mV",
            g.total_guardband(t).as_mv(),
            b.total_guardband(t).as_mv(),
            (g.total_guardband(t) - b.total_guardband(t)).as_mv()
        );
    }
}
