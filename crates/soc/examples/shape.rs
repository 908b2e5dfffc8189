//! Prints the mean and max SPEC gains of Skylake-S over Skylake-H at
//! each TDP, then the mean gain of a -100 mV Broadwell (Fig. 3):
//! `cargo run -p dg-soc --example shape`.

use dg_power::units::{Volts, Watts};
use dg_soc::products::Product;
use dg_soc::run::run_spec;
use dg_workloads::spec::{suite, SpecMode};

fn main() {
    for tdp in Product::skylake_tdp_levels() {
        let s = Product::skylake_s(tdp);
        let h = Product::skylake_h(tdp);
        for mode in [SpecMode::Base, SpecMode::Rate] {
            let mut gains = vec![];
            for b in suite() {
                let gs = run_spec(&s, &b, mode).perf;
                let gh = run_spec(&h, &b, mode).perf;
                gains.push(gs / gh - 1.0);
            }
            let mean = gains.iter().sum::<f64>() / gains.len() as f64;
            let max = gains.iter().cloned().fold(0.0, f64::max);
            println!(
                "TDP {:>2}W {:?}: mean {:.2}% max {:.2}%",
                tdp.value(),
                mode,
                mean * 100.0,
                max * 100.0
            );
        }
    }
    // Fig 3: Broadwell -100mV
    println!("--- fig3 ---");
    for tdp in Product::broadwell_tdp_levels() {
        let base = Product::broadwell(tdp, Volts::ZERO);
        let red = Product::broadwell(tdp, Volts::from_mv(-100.0));
        for mode in [SpecMode::Base, SpecMode::Rate] {
            let mut gains = vec![];
            for b in suite() {
                let g = run_spec(&red, &b, mode).perf / run_spec(&base, &b, mode).perf - 1.0;
                gains.push(g);
            }
            let mean = gains.iter().sum::<f64>() / gains.len() as f64;
            println!(
                "BDW {:>2}W {:?}: mean {:.2}%",
                tdp.value(),
                mode,
                mean * 100.0
            );
        }
    }
    let _ = Watts::ZERO;
}
