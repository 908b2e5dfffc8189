//! Shared printers for the experiment binaries: each function regenerates
//! one of the paper's figures/tables and prints its rows in the same
//! structure the paper reports.

use darkgates::experiments::{
    self, Fig10Row, Fig3Row, Fig3SweepPoint, Fig4Result, Fig7Result, Fig8Cell, Fig9Row,
};
use dg_workloads::spec::SpecSuite;

/// Prints Fig. 3: Broadwell −100 mV guardband gains per TDP/suite/mode.
pub fn print_fig3() {
    print_fig3_data(&experiments::fig3(), &experiments::fig3_sweep());
}

/// Prints precomputed Fig. 3 datasets (grid and sweep).
pub fn print_fig3_data(rows: &[Fig3Row], sweep: &[Fig3SweepPoint]) {
    println!("Fig. 3 — Broadwell, guardband reduced by 100 mV");
    println!("(average SPEC CPU2006 performance improvement)");
    println!("{:>6} {:>10} {:>6} {:>8}", "TDP", "suite", "mode", "gain");
    for row in rows {
        println!(
            "{:>5}W {:>10} {:>6} {:>7.1}%",
            row.tdp.value(),
            match row.suite {
                SpecSuite::Int => "SPECint",
                SpecSuite::Fp => "SPECfp",
            },
            row.mode.label(),
            row.gain * 100.0
        );
    }
    println!("\nsweep: gain vs frequency increase (base mode, suite mean)");
    println!(
        "{:>6} {:>12} {:>10} {:>8}",
        "TDP", "reduction", "uplift", "gain"
    );
    for p in sweep {
        println!(
            "{:>5}W {:>9.0} mV {:>6.0} MHz {:>7.1}%",
            p.tdp.value(),
            p.reduction_mv,
            p.uplift_mhz,
            p.gain * 100.0
        );
    }
}

/// Prints Fig. 4: the impedance–frequency profiles (decimated) and the
/// headline ratio.
pub fn print_fig4() {
    print_fig4_data(&experiments::fig4());
}

/// Prints a precomputed Fig. 4 dataset.
pub fn print_fig4_data(r: &Fig4Result) {
    println!("Fig. 4 — impedance–frequency profile");
    println!(
        "{:>14} {:>14} {:>14} {:>7}",
        "frequency", "gated |Z|", "bypassed |Z|", "ratio"
    );
    for (i, &(f, zg)) in r.gated.points().iter().enumerate() {
        if i % 25 != 0 {
            continue;
        }
        let zb = r.bypassed.at(f);
        println!(
            "{:>11.0} Hz {:>11.3} mΩ {:>11.3} mΩ {:>6.2}x",
            f.value(),
            zg.as_mohm(),
            zb.as_mohm(),
            zg / zb
        );
    }
    println!(
        "geometric-mean ratio {:.2}x, peak ratio {:.2}x (paper: ~2x)",
        r.mean_ratio, r.peak_ratio
    );
}

/// Prints Fig. 7: per-benchmark SPEC gains at 91 W.
pub fn print_fig7() {
    print_fig7_data(&experiments::fig7());
}

/// Prints a precomputed Fig. 7 dataset.
pub fn print_fig7_data(r: &Fig7Result) {
    println!("Fig. 7 — SPEC CPU2006 base gains at 91 W (DarkGates vs. baseline)");
    println!(
        "{:<18} {:>6} {:>12} {:>8}",
        "benchmark", "suite", "scalability", "gain"
    );
    for row in &r.rows {
        println!(
            "{:<18} {:>6} {:>12.2} {:>7.1}%",
            row.benchmark,
            match row.suite {
                SpecSuite::Int => "int",
                SpecSuite::Fp => "fp",
            },
            row.scalability,
            row.gain * 100.0
        );
    }
    println!(
        "average {:.1}% (paper 4.6%), max {:.1}% (paper 8.1%)",
        r.average * 100.0,
        r.max * 100.0
    );
}

/// Prints Fig. 8: average base/rate gains across the TDP levels.
pub fn print_fig8() {
    print_fig8_data(&experiments::fig8());
}

/// Prints a precomputed Fig. 8 dataset.
pub fn print_fig8_data(cells: &[Fig8Cell]) {
    println!("Fig. 8 — average SPEC gains per TDP (DarkGates vs. baseline)");
    println!("{:>6} {:>10} {:>10}", "TDP", "base", "rate");
    for c in cells {
        println!(
            "{:>5}W {:>9.1}% {:>9.1}%",
            c.tdp.value(),
            c.base_gain * 100.0,
            c.rate_gain * 100.0
        );
    }
    println!("paper: 5.3/4.2, 5.2/4.7, 5.0/4.8, 4.6/5.0 (base/rate %)");
}

/// Prints Fig. 9: 3DMark degradation per TDP.
pub fn print_fig9() {
    print_fig9_data(&experiments::fig9());
}

/// Prints a precomputed Fig. 9 dataset.
pub fn print_fig9_data(rows: &[Fig9Row]) {
    println!("Fig. 9 — 3DMark degradation of DarkGates vs. baseline");
    println!("{:>6} {:>13}", "TDP", "degradation");
    for r in rows {
        println!("{:>5}W {:>12.1}%", r.tdp.value(), r.degradation * 100.0);
    }
    println!("paper: 2% at 35 W, none at 45 W and above");
}

/// Prints Fig. 10: energy-workload average power for the three configs.
pub fn print_fig10() {
    print_fig10_data(&experiments::fig10());
}

/// Prints a precomputed Fig. 10 dataset.
pub fn print_fig10_data(rows: &[Fig10Row]) {
    println!("Fig. 10 — energy-efficiency workloads (vs. DarkGates+C7)");
    for r in rows {
        println!("{}:", r.workload);
        println!(
            "  DarkGates+C7     {:>6.3} W  {}",
            r.dg_c7_power.value(),
            pass(r.dg_c7_meets_limit)
        );
        println!(
            "  DarkGates+C8     {:>6.3} W  {}  (-{:.0}%)",
            r.dg_c8_power.value(),
            pass(r.dg_c8_meets_limit),
            r.dg_c8_reduction * 100.0
        );
        println!(
            "  Non-DarkGates+C7 {:>6.3} W  {}  (-{:.0}%)",
            r.non_dg_c7_power.value(),
            pass(r.non_dg_meets_limit),
            r.non_dg_reduction * 100.0
        );
    }
    println!("paper: ENERGY STAR -33%, RMT -68% for DarkGates+C8");
}

/// Prints Figs. 1/5/6-style structural data: the two packages' voltage
/// domains (bumps, gating) and their ladder stages.
pub fn print_fig1_5_6() {
    use darkgates::DarkGates;
    use dg_pdn::package::PackageLayout;
    println!("Figs. 1/5/6 — package voltage domains and PDN stages");
    for layout in [
        PackageLayout::skylake_mobile(),
        PackageLayout::skylake_desktop(),
    ] {
        println!("{}:", layout.name);
        for d in layout.domains() {
            println!(
                "  {:<10} {:>4} bumps  {:<8}  capacity {:>6.1} A",
                d.name,
                d.bumps,
                if d.gated { "gated" } else { "un-gated" },
                layout
                    .current_capacity(&d.name)
                    .map_or(f64::NAN, |a| a.value()),
            );
        }
    }
    for dg in [DarkGates::mobile(), DarkGates::desktop()] {
        let pdn = dg.build_pdn();
        println!("{} ladder:", pdn.ladder.name());
        for stage in pdn.ladder.stages() {
            let shunt = stage
                .shunt
                .as_ref()
                .map(|b| format!("{:.1} µF", b.total_capacitance().value() * 1e6))
                .unwrap_or_else(|| "-".to_owned());
            println!(
                "  {:<16} R {:>6.3} mΩ  L {:>6.1} pH  C {:>9}",
                stage.name,
                stage.series.resistance.as_mohm(),
                stage.series.inductance.value() * 1e12,
                shunt,
            );
        }
    }
}

/// Prints Fig. 2-style background data: the load-line model and the
/// adaptive multi-level power-virus guardbands of the calibrated PDN.
pub fn print_fig2() {
    use dg_pdn::skylake::{PdnVariant, SkylakePdn};
    use dg_pdn::units::{Amps, Volts};
    let pdn = SkylakePdn::build(PdnVariant::Bypassed);
    let ll = pdn.loadline;
    println!("Fig. 2 — load-line and adaptive power-virus guardbands");
    println!("load-line R_LL = {:.2} mΩ", ll.resistance.as_mohm());
    println!("{:>10} {:>12}", "Icc", "Vcc_load @1.2V");
    for icc in [0.0, 25.0, 50.0, 75.0, 100.0, 125.0] {
        let v = ll.load_voltage(Volts::new(1.2), Amps::new(icc));
        println!("{:>8.0} A {:>10.4} V", icc, v.value());
    }
    println!("virus levels (VID setpoints for Vmin = 0.60 V):");
    for (i, level) in pdn.virus_table.levels().iter().enumerate() {
        println!(
            "  level {} ({:<14}) icc_virus {:>5.0} A  guardband {:>6.1} mV  setpoint {:>6.4} V",
            i + 1,
            level.name,
            level.icc_virus.value(),
            pdn.virus_table.guardband_at(i).as_mv(),
            pdn.virus_table.setpoint(i, Volts::new(0.60)).value(),
        );
    }
}

/// Prints Table 1: package C-states and entry conditions.
pub fn print_table1() {
    println!("Table 1 — package C-states (Intel Skylake semantics)");
    for (state, cond) in experiments::table1() {
        println!("{:>4}: {}", format!("{state}"), cond);
    }
}

/// Prints Table 2: evaluated system parameters.
pub fn print_table2() {
    let t = experiments::table2();
    println!("Table 2 — evaluated systems");
    println!("  desktop: {}", t.desktop);
    println!("  mobile:  {}", t.mobile);
    println!(
        "  CPU core frequencies: {:.1}-{:.1} GHz",
        t.core_freq_ghz.0, t.core_freq_ghz.1
    );
    println!(
        "  graphics frequencies: {:.0}-{:.0} MHz",
        t.gfx_freq_mhz.0, t.gfx_freq_mhz.1
    );
    println!("  TDP: {:.0}-{:.0} W", t.tdp_w.0, t.tdp_w.1);
    println!("  cores: {}", t.cores);
}

fn pass(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Applies thread-count overrides for a binary's lifetime and surfaces
/// configuration mistakes instead of silently ignoring them.
///
/// Two sources, in priority order:
///
/// 1. a `--threads N` (or `--threads=N`) command-line flag, mapped onto
///    [`dg_engine::set_thread_override`] — the returned guard must stay
///    alive for the run;
/// 2. the `DG_NUM_THREADS` environment variable, which `dg-engine`
///    resolves itself — but an *invalid* value (`abc`, `0`, …) is
///    printed as a startup warning on stderr here, because
///    [`dg_engine::num_threads`] deliberately falls back in silence.
///
/// An invalid or missing `--threads` value is also warned about and
/// ignored.
pub fn apply_thread_overrides(args: &[String]) -> Option<dg_engine::ThreadOverrideGuard> {
    if let Some(issue) = dg_engine::thread_env_issues() {
        eprintln!("warning: {issue} to auto-detected thread count");
    }
    match threads_flag(args)? {
        Ok(n) => Some(dg_engine::set_thread_override(n)),
        Err(warning) => {
            eprintln!("{warning}");
            None
        }
    }
}

/// The last `--threads` flag in `args`: `None` without one, the count
/// when it is a positive integer, else the warning to print.
fn threads_flag(args: &[String]) -> Option<Result<usize, String>> {
    let mut requested: Option<Option<&str>> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--threads" {
            requested = Some(iter.next().map(String::as_str));
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            requested = Some(Some(v));
        }
    }
    let raw = requested?;
    Some(match raw.map(str::parse::<usize>) {
        Some(Ok(n)) if n > 0 => Ok(n),
        _ => Err(format!(
            "warning: --threads {} ignored (must be a positive integer); \
             falling back to auto-detected thread count",
            raw.map_or_else(|| "with no value".to_owned(), |r| format!("{r:?}"))
        )),
    })
}

/// A compact pass/fail scoreboard over graded paper claims.
///
/// Shared by the `validate` self-check binary and `dg-chaos`'s
/// differential oracle, so both judge a claims dataset with identical
/// logic: same pass counting, same row order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimsScoreboard {
    /// Claims whose measured value is inside the accepted band.
    pub passed: usize,
    /// All claims graded.
    pub total: usize,
    /// `(name, pass)` per claim, in grading order.
    pub rows: Vec<(String, bool)>,
}

impl ClaimsScoreboard {
    /// Whether every claim holds.
    pub fn all_pass(&self) -> bool {
        self.passed == self.total
    }
}

/// Prints graded rows under `title`, one `[PASS]`/`[FAIL]` line per row
/// between two rules, and returns their scoreboard. `validate` prints the
/// paper claims through it and `ablations` the ablations.
pub fn print_graded(title: &str, graded: &[darkgates::claims::Claim]) -> ClaimsScoreboard {
    println!("{title}");
    println!("{:-<78}", "");
    for c in graded {
        println!(
            "[{}] {:<40} paper: {:<26} measured: {}",
            pass(c.pass),
            c.name,
            c.paper,
            c.measured
        );
    }
    println!("{:-<78}", "");
    claims_scoreboard(graded)
}

/// Reduces graded claims to the scoreboard every consumer reports.
pub fn claims_scoreboard(graded: &[darkgates::claims::Claim]) -> ClaimsScoreboard {
    let rows: Vec<(String, bool)> = graded.iter().map(|c| (c.name.to_owned(), c.pass)).collect();
    let passed = rows.iter().filter(|(_, pass)| *pass).count();
    ClaimsScoreboard {
        passed,
        total: rows.len(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    // The printers are exercised by the binaries; here we only make sure
    // the cheap ones do not panic.
    #[test]
    fn cheap_printers_run() {
        super::print_fig4();
        super::print_fig10();
        super::print_table1();
        super::print_table2();
    }

    #[test]
    fn threads_flag_accepts_positive_counts_and_warns_otherwise() {
        let flag = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
            super::threads_flag(&args)
        };
        assert_eq!(flag(&[]), None);
        assert_eq!(flag(&["--quiet"]), None);
        assert_eq!(flag(&["--threads", "2"]), Some(Ok(2)));
        assert_eq!(flag(&["--threads=2"]), Some(Ok(2)));
        assert_eq!(flag(&["--threads", "1", "--threads=3"]), Some(Ok(3)));
        for (args, shown) in [
            (&["--threads", "0"][..], "\"0\""),
            (&["--threads=0"][..], "\"0\""),
            (&["--threads", "abc"][..], "\"abc\""),
            (&["--threads"][..], "with no value"),
            (&["--threads=2", "--threads"][..], "with no value"),
        ] {
            assert_eq!(
                flag(args),
                Some(Err(format!(
                    "warning: --threads {shown} ignored (must be a positive integer); \
                     falling back to auto-detected thread count"
                ))),
                "{args:?}"
            );
        }
    }

    #[test]
    fn scoreboard_counts_passes_in_order() {
        let graded = vec![
            darkgates::claims::Claim {
                name: "a",
                paper: "1".into(),
                measured: "1".into(),
                pass: true,
            },
            darkgates::claims::Claim {
                name: "b",
                paper: "2".into(),
                measured: "9".into(),
                pass: false,
            },
        ];
        let board = super::claims_scoreboard(&graded);
        assert_eq!((board.passed, board.total), (1, 2));
        assert!(!board.all_pass());
        assert_eq!(board.rows[0], ("a".to_owned(), true));
        assert_eq!(board.rows[1], ("b".to_owned(), false));
    }
}
