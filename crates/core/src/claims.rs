//! The paper-claim graders as a library.
//!
//! Grades each of the paper's headline claims PASS/FAIL against the
//! reproduced experiments. Historically this lived inside the `validate`
//! binary; it is a library module so that both the binary **and**
//! `dg-serve`'s `GET /v1/claims` endpoint grade through the same code
//! path — the daemon never shells out to a binary.
//!
//! The graders run concurrently on the `dg-engine` pool ([`grade`] uses
//! `par_tasks`) and are collected in submission order, so the report is
//! identical for any thread count — and, because the engine inlines
//! nested parallelism, also when invoked from inside a server worker.

use crate::experiments::{self, Ablations, Fig10Row, Fig4Result, Fig7Result, Fig8Cell, Fig9Row};
use crate::DarkGates;
use dg_pdn::units::Watts;
use dg_power::pstate::PStateTable;

/// One graded claim: the paper's number, the reproduction's number, and
/// whether the reproduction is inside the accepted band.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Short claim identifier (figure/section reference).
    pub name: &'static str,
    /// The value the paper reports.
    pub paper: String,
    /// The value this reproduction measured.
    pub measured: String,
    /// Whether the measured value is within the accepted band.
    pub pass: bool,
}

/// The figure datasets the claims grade (Fig. 3 is motivational only and
/// is not graded; see `evaluate_all` for the full sweep).
#[derive(Debug, Clone)]
pub struct ClaimData {
    /// Fig. 4 impedance comparison.
    pub fig4: Fig4Result,
    /// Fig. 7 per-benchmark SPEC gains at 91 W.
    pub fig7: Fig7Result,
    /// Fig. 8 TDP × suite × mode grid.
    pub fig8: Vec<Fig8Cell>,
    /// Fig. 9 graphics degradation per TDP.
    pub fig9: Vec<Fig9Row>,
    /// Fig. 10 idle-power rows.
    pub fig10: Vec<Fig10Row>,
}

impl ClaimData {
    /// Computes every graded dataset (each experiment is internally
    /// parallel on the `dg-engine` pool).
    pub fn compute() -> Self {
        ClaimData {
            fig4: experiments::fig4(),
            fig7: experiments::fig7(),
            fig8: experiments::fig8(),
            fig9: experiments::fig9(),
            fig10: experiments::fig10(),
        }
    }
}

fn claim(name: &'static str, paper: String, measured: String, pass: bool) -> Claim {
    Claim {
        name,
        paper,
        measured,
        pass,
    }
}

/// A claim for a dataset that did not produce the expected rows; never
/// constructed in a healthy build, but the library must not index-panic.
fn incomplete(name: &'static str, paper: String) -> Claim {
    claim(name, paper, "dataset incomplete".into(), false)
}

/// Grades every claim against `eval`, concurrently, in a fixed order.
pub fn grade(eval: &ClaimData) -> Vec<Claim> {
    type Grader<'a> = Box<dyn FnOnce() -> Claim + Send + 'a>;
    let graders: Vec<Grader<'_>> = vec![
        // Fig. 4: impedance halving.
        Box::new(|| {
            let f4 = &eval.fig4;
            claim(
                "Fig.4 gated/bypassed impedance ratio",
                "~2x".into(),
                format!("{:.2}x (geo-mean)", f4.mean_ratio),
                (1.5..3.0).contains(&f4.mean_ratio) && f4.gated.dominates(&f4.bypassed, 1.0),
            )
        }),
        // Fused-ceiling uplift.
        Box::new(|| {
            let s = DarkGates::desktop().product(Watts::new(91.0));
            let h = DarkGates::mobile().product(Watts::new(91.0));
            let uplift = s.fmax_1c().as_mhz() - h.fmax_1c().as_mhz();
            claim(
                "1-core Fmax uplift at 91 W",
                "~400 MHz (4.2 -> ~4.6 GHz)".into(),
                format!("{uplift:.0} MHz"),
                (300.0..=500.0).contains(&uplift),
            )
        }),
        // Fig. 7: headline gains.
        Box::new(|| {
            let f7 = &eval.fig7;
            claim(
                "Fig.7 average SPEC gain @91 W",
                "4.6%".into(),
                format!("{:.1}%", f7.average * 100.0),
                (0.038..0.058).contains(&f7.average),
            )
        }),
        Box::new(|| {
            let f7 = &eval.fig7;
            claim(
                "Fig.7 max SPEC gain @91 W",
                "8.1%".into(),
                format!("{:.1}%", f7.max * 100.0),
                (0.070..0.095).contains(&f7.max),
            )
        }),
        // Fig. 8: trends.
        Box::new(|| {
            let name = "Fig.8 base gains decrease with TDP";
            let paper = "5.3 -> 4.6%".to_owned();
            match (eval.fig8.first(), eval.fig8.get(3)) {
                (Some(lo), Some(hi)) => claim(
                    name,
                    paper,
                    format!(
                        "{:.1} -> {:.1}%",
                        lo.base_gain * 100.0,
                        hi.base_gain * 100.0
                    ),
                    lo.base_gain > hi.base_gain,
                ),
                _ => incomplete(name, paper),
            }
        }),
        Box::new(|| {
            let name = "Fig.8 rate > base at 91 W (Vmax regime)";
            let paper = "5.0 vs 4.6%".to_owned();
            match eval.fig8.get(3) {
                Some(cell) => claim(
                    name,
                    paper,
                    format!(
                        "{:.1} vs {:.1}%",
                        cell.rate_gain * 100.0,
                        cell.base_gain * 100.0
                    ),
                    cell.rate_gain > cell.base_gain,
                ),
                None => incomplete(name, paper),
            }
        }),
        // Fig. 9: graphics.
        Box::new(|| {
            let name = "Fig.9 graphics loss only at 35 W";
            let paper = "-2% @35 W, 0% above".to_owned();
            match (eval.fig9.first(), eval.fig9.get(1)) {
                (Some(w35), Some(w45)) => claim(
                    name,
                    paper,
                    format!(
                        "{:.1}% @35 W, {:.1}% @45 W",
                        w35.degradation * 100.0,
                        w45.degradation * 100.0
                    ),
                    (0.005..0.05).contains(&w35.degradation) && w45.degradation.abs() < 0.01,
                ),
                _ => incomplete(name, paper),
            }
        }),
        // Fig. 10: energy.
        Box::new(|| {
            let name = "Fig.10 ENERGY STAR reduction (DG+C8)";
            let paper = "-33%".to_owned();
            match eval.fig10.first() {
                Some(es) => claim(
                    name,
                    paper,
                    format!("-{:.0}%", es.dg_c8_reduction * 100.0),
                    (0.25..0.42).contains(&es.dg_c8_reduction),
                ),
                None => incomplete(name, paper),
            }
        }),
        Box::new(|| {
            let name = "Fig.10 RMT reduction (DG+C8)";
            let paper = "-68%".to_owned();
            match eval.fig10.get(1) {
                Some(rmt) => claim(
                    name,
                    paper,
                    format!("-{:.0}%", rmt.dg_c8_reduction * 100.0),
                    (0.55..0.78).contains(&rmt.dg_c8_reduction),
                ),
                None => incomplete(name, paper),
            }
        }),
        Box::new(|| {
            let name = "Fig.10 DG+C7 misses, DG+C8 meets limits";
            let paper = "FAIL / PASS".to_owned();
            match (eval.fig10.first(), eval.fig10.get(1)) {
                (Some(es), Some(rmt)) => claim(
                    name,
                    paper,
                    format!(
                        "{} / {}",
                        if es.dg_c7_meets_limit && rmt.dg_c7_meets_limit {
                            "PASS"
                        } else {
                            "FAIL"
                        },
                        if es.dg_c8_meets_limit && rmt.dg_c8_meets_limit {
                            "PASS"
                        } else {
                            "FAIL"
                        }
                    ),
                    !es.dg_c7_meets_limit
                        && !rmt.dg_c7_meets_limit
                        && es.dg_c8_meets_limit
                        && rmt.dg_c8_meets_limit,
                ),
                _ => incomplete(name, paper),
            }
        }),
        // Reliability guardband endpoints.
        Box::new(|| {
            let rel = DarkGates::desktop().reliability_model();
            let gb35 = rel.guardband(Watts::new(35.0)).as_mv();
            let gb91 = rel.guardband(Watts::new(91.0)).as_mv();
            claim(
                "Sec.4.2 reliability adder",
                "<20 mV @35 W, <5 mV @91 W".into(),
                format!("{gb35:.1} mV / {gb91:.1} mV"),
                gb35 <= 20.0 && gb91 <= 5.0,
            )
        }),
        // Firmware overhead.
        Box::new(|| {
            let oh = crate::overhead::report();
            claim(
                "Sec.5 firmware overhead",
                "~0.3 KB, <0.004% of die".into(),
                format!(
                    "{} B, {:.5}% of die",
                    oh.firmware_bytes,
                    oh.firmware_die_fraction * 100.0
                ),
                oh.firmware_bytes == 300 && oh.firmware_die_fraction < 4e-5,
            )
        }),
    ];
    dg_engine::par_tasks(graders)
}

/// Computes the datasets and grades everything: the one call `dg-serve`
/// and `validate` share.
pub fn grade_all() -> Vec<Claim> {
    grade(&ClaimData::compute())
}

/// Grades the six ablations of [`experiments::ablations`], one row each
/// in a fixed order. A row's `paper` column states its pass rule: what
/// the paper says breaks, or what it costs, without that design choice.
/// A row whose data is missing or failed to compute fails.
pub fn grade_ablations(a: &Ablations) -> Vec<Claim> {
    let missing = || "dataset incomplete".to_owned();
    let bypass = match (a.fig10.first(), a.fig10.get(1)) {
        (Some(es), Some(rmt)) => Ok((
            format!(
                "ES {:.3} W, RMT {:.3} W",
                es.dg_c7_power.value(),
                rmt.dg_c7_power.value()
            ),
            !es.dg_c7_meets_limit && !rmt.dg_c7_meets_limit,
        )),
        _ => Err(missing()),
    };
    let c8 = Ok((
        format!(
            "C7 {:.3} -> C8 {:.3} W, Fmax {:.1} < {:.1} GHz",
            a.gated_idle_c7.value(),
            a.gated_idle_c8.value(),
            a.fmax_gated.as_ghz(),
            a.fmax_bypassed.as_ghz()
        ),
        a.gated_idle_c8 < a.gated_idle_c7 && a.fmax_gated < a.fmax_bypassed,
    ));
    let adder = match &a.fmax_with_and_without_adder {
        Ok((with, without)) => Ok((
            format!(
                "{:.1} mV: Fmax {:.1} -> {:.1} GHz",
                a.reliability_adder.as_mv(),
                with.as_ghz(),
                without.as_ghz()
            ),
            ((*without - *with) / PStateTable::standard_bin()).round() <= 1.0,
        )),
        Err(e) => Err(e.to_string()),
    };
    let levels = &a.virus_levels;
    let virus = match levels.last() {
        Some(single) => Ok((
            format!(
                "{} mV, saving {} mV",
                joined(levels.iter().map(|l| l.guardband.as_mv()), 1),
                joined(levels.iter().map(|l| l.saving.as_mv()), 1)
            ),
            levels.iter().all(|l| l.guardband <= single.guardband),
        )),
        None => Err(missing()),
    };
    let gains = &a.rate_gains;
    let rate = if gains.is_empty() {
        Err(missing())
    } else {
        let positive = gains.iter().all(|&(_, gain)| gain > 0.0);
        let never_rises = gains.windows(2).all(|w| w[1].1 <= w[0].1);
        Ok((
            format!(
                "{}% at {} copies",
                joined(gains.iter().map(|&(_, gain)| gain * 100.0), 1),
                joined(gains.iter().map(|&(copies, _)| copies), 0)
            ),
            positive && never_rises,
        ))
    };
    let [b, g] = [a.governor_bypassed, a.governor_gated]
        .map(|p| [p.adaptive, p.always_c8, p.always_c6].map(Watts::value));
    let [adaptive, always_c8, always_c6] = b;
    let governor = Ok((
        format!(
            "adaptive/C8/C6 {} W, gated {} W",
            joined(b, 3),
            joined(g, 3)
        ),
        adaptive.to_bits() == always_c8.to_bits() && adaptive < always_c6,
    ));
    [
        ("bypass without C8", "ES and RMT both fail", bypass),
        ("C8 without bypass", "less idle power, no Fmax", c8),
        ("no reliability adder", "gains at most one bin", adder),
        ("one power-virus level", ">= every level's guardband", virus),
        ("rate-mode contention", "> 0 and non-increasing", rate),
        ("idle governor", "bypassed: = C8, < C6", governor),
    ]
    .into_iter()
    .map(|(name, rule, graded)| {
        let (measured, pass) = graded.unwrap_or_else(|why| (why, false));
        claim(name, rule.into(), measured, pass)
    })
    .collect()
}

/// The values joined with `/`, `digits` decimals each.
fn joined<T: std::fmt::Display>(values: impl IntoIterator<Item = T>, digits: usize) -> String {
    values
        .into_iter()
        .map(|v| format!("{v:.digits$}"))
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_twelve_claims_hold() {
        let claims = grade_all();
        assert_eq!(claims.len(), 12);
        for c in &claims {
            assert!(c.pass, "claim failed: {} (measured {})", c.name, c.measured);
            assert!(!c.paper.is_empty() && !c.measured.is_empty());
        }
    }

    #[test]
    fn grading_is_deterministic_across_thread_counts() {
        let eval = ClaimData::compute();
        let render = |claims: &[Claim]| {
            claims
                .iter()
                .map(|c| format!("{}|{}|{}|{}", c.name, c.paper, c.measured, c.pass))
                .collect::<Vec<_>>()
        };
        let baseline = {
            let _g = dg_engine::set_thread_override(1);
            render(&grade(&eval))
        };
        let wide = {
            let _g = dg_engine::set_thread_override(8);
            render(&grade(&eval))
        };
        assert_eq!(baseline, wide);
    }

    #[test]
    fn incomplete_datasets_fail_closed_instead_of_panicking() {
        let mut eval = ClaimData::compute();
        eval.fig8.clear();
        eval.fig9.clear();
        eval.fig10.clear();
        let claims = grade(&eval);
        assert_eq!(claims.len(), 12);
        let incomplete = claims
            .iter()
            .filter(|c| c.measured == "dataset incomplete")
            .count();
        assert_eq!(incomplete, 6, "the row-indexed graders must fail closed");
        assert!(claims.iter().filter(|c| !c.pass).count() >= 6);
    }

    #[test]
    fn all_six_ablations_hold() {
        let rows = grade_ablations(&experiments::ablations());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(
                r.pass,
                "ablation failed: {} (measured {})",
                r.name, r.measured
            );
        }
    }

    #[test]
    fn incomplete_ablations_fail_closed_instead_of_panicking() {
        let mut data = experiments::ablations();
        data.fig10.clear();
        data.virus_levels.clear();
        data.rate_gains.clear();
        data.fmax_with_and_without_adder = Err(dg_power::PowerError::OutOfRange {
            what: "frequency",
            value: 0.0,
            min: 1.0,
            max: 2.0,
        });
        let rows = grade_ablations(&data);
        assert_eq!(rows.len(), 6);
        let failed: Vec<&str> = rows.iter().filter(|r| !r.pass).map(|r| r.name).collect();
        assert_eq!(
            failed,
            [
                "bypass without C8",
                "no reliability adder",
                "one power-virus level",
                "rate-mode contention",
            ]
        );
        let incomplete = rows
            .iter()
            .filter(|r| r.measured == "dataset incomplete")
            .count();
        assert_eq!(incomplete, 3, "the row-indexed graders must fail closed");
    }
}
