//! Evaluating one design point: Charm's asymmetric-CMP dark-silicon
//! model composed with the DarkGates guardband and PDN machinery.
//!
//! A point is a single big core plus as many little cores as the die
//! area *and* the TDP allow:
//!
//! ```text
//! N = min( ⌊(A − big_area) / small_area⌋ , ⌊(TDP − big_power) / small_power⌋ )
//! dark_ratio = 1 − (big_area + N·small_area) / A
//! speedup    = 1 / ( (1−F)/perf_big + F/(N·perf_small) )
//! ```
//!
//! The DarkGates twist enters twice:
//!
//! * **Guardband** — the fuse mode picks the PDN variant, whose first
//!   droop (peak impedance × the paper's 48 A step) plus the
//!   TDP-dependent reliability adder cost voltage headroom. At the
//!   nominal 1.0 V supply a guardband of `g` volts scales achieved
//!   performance by `(1 − g)`: bypassing the power-gates halves the
//!   delivery impedance and claws that performance back.
//! * **Serial-phase leakage** — with the gates bypassed the little cores
//!   cannot be power-gated, so during the serial fraction of the
//!   schedule they leak `BYPASS_LEAK_FRACTION` of their active power.
//!   That tax is weighted by the serial share of the execution time and
//!   added to package power, which is exactly the perf-vs-power tension
//!   the Pareto frontier trades.
//!
//! With `transient: true` in the spec, the analytic droop bound is
//! replaced by a measured one: each point's power-gate wake-up is run as
//! a [`TransientSim::run_batch`] lane (step from the serial-phase big-core
//! current to the full-chip current, 15 ns slew) on its variant's ladder.

use crate::grid::ConfigPoint;
use crate::scaling::scale_core;
use crate::spec::{ExploreSpec, GuardbandPolicy};
use darkgates::pdn::ladder::Ladder;
use darkgates::pdn::skylake::{PdnVariant, SkylakePdn};
use darkgates::pdn::transient::{LoadStep, TransientSim};
use darkgates::pdn::units::{Amps, Seconds, Volts, Watts};
use darkgates::pmu::GuardbandManager;

/// Nominal core supply the guardband is paid out of, volts.
const V_NOM: f64 = 1.0;

/// Fraction of a little core's active power it leaks while idle with the
/// power-gates bypassed (serial phase of the schedule).
const BYPASS_LEAK_FRACTION: f64 = 0.3;

/// Slew of the staggered power-gate wake-up used for transient lanes
/// (paper Sec. 2.1: 10–20 ns).
const WAKE_SLEW_NS: f64 = 15.0;

/// Most transient lanes per `run_batch` call (mirrors the serve tier's
/// droop-batch lane bound).
const TRANSIENT_LANES: usize = 64;

/// One evaluated design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointEval {
    /// The design point this evaluates.
    pub point: ConfigPoint,
    /// Whether the point is buildable (big core fits area and TDP, at
    /// least one little core, little no faster than big).
    pub feasible: bool,
    /// Little cores on the die (0 when infeasible).
    pub n_small: u64,
    /// Asymmetric-Amdahl speedup after the guardband penalty.
    pub speedup: f64,
    /// Package power, watts, including the bypass serial-leak tax.
    pub power_w: f64,
    /// Fraction of the die left dark, `[0, 1]`.
    pub dark_ratio: f64,
    /// Voltage guardband the point pays, millivolts.
    pub guardband_mv: f64,
}

impl PointEval {
    fn infeasible(point: ConfigPoint) -> Self {
        PointEval {
            point,
            feasible: false,
            n_small: 0,
            speedup: 0.0,
            power_w: 0.0,
            dark_ratio: 1.0,
            guardband_mv: 0.0,
        }
    }

    /// The point's objectives for frontier extraction.
    pub fn objectives(&self) -> crate::pareto::Objectives {
        crate::pareto::Objectives {
            perf: self.speedup,
            power: self.power_w,
            dark: self.dark_ratio,
        }
    }
}

/// Everything evaluation shares across points: guardband managers per
/// variant and (for transient mode) the variant ladders.
pub struct EvalContext {
    chip_area_mm2: f64,
    transient: bool,
    gated: VariantContext,
    bypassed: VariantContext,
}

struct VariantContext {
    manager: GuardbandManager,
    ladder: Option<Ladder>,
}

impl VariantContext {
    fn build(variant: PdnVariant, transient: bool) -> Self {
        VariantContext {
            manager: GuardbandManager::for_variant(variant),
            ladder: transient.then(|| SkylakePdn::build(variant).ladder),
        }
    }
}

impl EvalContext {
    /// Builds the shared context for a spec.
    pub fn new(spec: &ExploreSpec) -> Self {
        EvalContext {
            chip_area_mm2: spec.chip_area_mm2,
            transient: spec.transient,
            gated: VariantContext::build(PdnVariant::Gated, spec.transient),
            bypassed: VariantContext::build(PdnVariant::Bypassed, spec.transient),
        }
    }

    fn variant(&self, v: PdnVariant) -> &VariantContext {
        match v {
            PdnVariant::Gated => &self.gated,
            PdnVariant::Bypassed => &self.bypassed,
        }
    }

    /// Evaluates one point analytically (pure: safe under `par_map`).
    pub fn evaluate(&self, point: ConfigPoint) -> PointEval {
        let (Ok(big), Ok(small)) = (
            scale_core(point.big_perf, point.node),
            scale_core(point.small_perf, point.node),
        ) else {
            // Spec validation keeps reference perf inside the fitted
            // domain, so this arm is unreachable in practice; evaluation
            // stays total rather than panicking.
            return PointEval::infeasible(point);
        };
        if point.small_perf > point.big_perf {
            return PointEval::infeasible(point);
        }
        let area_left = self.chip_area_mm2 - big.area_mm2;
        let power_left = point.tdp_w - big.power_w;
        if area_left < small.area_mm2 || power_left < small.power_w {
            return PointEval::infeasible(point);
        }
        let n_by_area = (area_left / small.area_mm2).floor();
        let n_by_power = (power_left / small.power_w).floor();
        let n = n_by_area.min(n_by_power);
        if !(n >= 1.0 && n.is_finite()) {
            return PointEval::infeasible(point);
        }

        let droop_v = self.variant(point.fuse).manager.droop_guardband().value();
        self.finish(point, big, small, n, droop_v)
    }

    /// Completes an evaluation given the droop guardband component in
    /// volts (analytic bound or measured transient).
    fn finish(
        &self,
        point: ConfigPoint,
        big: crate::scaling::ScaledCore,
        small: crate::scaling::ScaledCore,
        n: f64,
        droop_v: f64,
    ) -> PointEval {
        let big_perf = big.perf;
        let small_perf = small.perf;
        let big_power_w = big.power_w;
        let small_power_w = small.power_w;
        let manager = &self.variant(point.fuse).manager;
        let guardband_v = match point.guardband {
            GuardbandPolicy::None => 0.0,
            GuardbandPolicy::Droop => droop_v,
            GuardbandPolicy::Full => {
                droop_v
                    + manager
                        .reliability_guardband(Watts::new(point.tdp_w))
                        .value()
            }
        };
        let perf_scale = (1.0 - guardband_v / V_NOM).clamp(0.0, 1.0);
        let perf_big = big_perf * perf_scale;
        let perf_small = small_perf * perf_scale;

        let f = point.fraction_parallelism;
        let t_serial = if perf_big > 0.0 {
            (1.0 - f) / perf_big
        } else {
            f64::INFINITY
        };
        let t_parallel = if perf_small > 0.0 && n > 0.0 {
            f / (n * perf_small)
        } else if f > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        let total_t = t_serial + t_parallel;
        let speedup = if total_t.is_finite() && total_t > 0.0 {
            1.0 / total_t
        } else {
            0.0
        };

        let active_w = big_power_w + n * small_power_w;
        let serial_share = if total_t.is_finite() && total_t > 0.0 {
            (t_serial / total_t).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let leak_tax_w = match point.fuse {
            // Gated: little cores power-gate during the serial phase.
            PdnVariant::Gated => 0.0,
            // Bypassed: they leak a fraction of active power instead.
            PdnVariant::Bypassed => BYPASS_LEAK_FRACTION * n * small_power_w * serial_share,
        };
        let power_w = active_w + leak_tax_w;

        let used_area = big.area_mm2 + n * small.area_mm2;
        let dark_ratio = (1.0 - used_area / self.chip_area_mm2).clamp(0.0, 1.0);

        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let n_small = n as u64;
        PointEval {
            point,
            feasible: true,
            n_small,
            speedup,
            power_w,
            dark_ratio,
            guardband_mv: guardband_v * 1e3,
        }
    }

    /// Transient refinement of one chunk of analytic evals, returned in
    /// place of them.
    ///
    /// When the spec asks for it, every feasible point with a non-`none`
    /// guardband policy re-derives its droop component from a measured
    /// PDN transient: the point's power-gate wake-up (serial-phase
    /// big-core current stepping to full-chip current over
    /// `WAKE_SLEW_NS`) is run through `TransientSim::run_batch_in` on
    /// the point's variant ladder — via the calling thread's warm
    /// `BatchWorkspace`, so repeated waves integrate alloc-free — grouped
    /// by variant in chunk order and batched `TRANSIENT_LANES` lanes at
    /// a time. Grouping and lane order are functions of the chunk alone,
    /// so refinement is bit-deterministic.
    pub fn refine_chunk(&self, mut chunk: Vec<PointEval>) -> Vec<PointEval> {
        if !self.transient {
            return chunk;
        }
        for variant in [PdnVariant::Gated, PdnVariant::Bypassed] {
            let Some(ladder) = self.variant(variant).ladder.as_ref() else {
                continue;
            };
            let lanes: Vec<usize> = chunk
                .iter()
                .enumerate()
                .filter(|(_, e)| {
                    e.feasible
                        && e.point.fuse == variant
                        && e.point.guardband != GuardbandPolicy::None
                })
                .map(|(i, _)| i)
                .collect();
            let sim = TransientSim::droop_capture(Volts::new(V_NOM));
            for group in lanes.chunks(TRANSIENT_LANES) {
                let steps: Vec<LoadStep> = group
                    .iter()
                    .filter_map(|&i| chunk.get(i).map(wake_step))
                    .collect();
                // Integrate through the calling thread's warm workspace
                // (bit-identical to `run_batch`): `dg_explore::run` refines
                // each batch on the worker that evaluated it, so that
                // worker's later waves reuse the same buffers alloc-free.
                // Only the droop scalar is read, so the borrowed results
                // never escape the closure.
                let droops: Vec<f64> = darkgates::pdn::with_thread_workspace(|ws| {
                    sim.run_batch_in(ladder, &steps, ws)
                        .iter()
                        .map(|r| r.droop().value())
                        .collect()
                });
                for (&i, droop) in group.iter().zip(droops.iter()) {
                    let Some(e) = chunk.get(i).copied() else {
                        continue;
                    };
                    let (Ok(big), Ok(small)) = (
                        scale_core(e.point.big_perf, e.point.node),
                        scale_core(e.point.small_perf, e.point.node),
                    ) else {
                        continue;
                    };
                    #[allow(clippy::cast_precision_loss)]
                    let n = e.n_small as f64;
                    let refined = self.finish(e.point, big, small, n, droop.max(0.0));
                    if let Some(slot) = chunk.get_mut(i) {
                        *slot = refined;
                    }
                }
            }
        }
        chunk
    }
}

/// The power-gate wake-up step for a point: serial-phase current (big
/// core only) ramping to full-chip current at the nominal supply.
fn wake_step(e: &PointEval) -> LoadStep {
    let big_w = crate::scaling::perf_to_power_45nm(e.point.big_perf) * e.point.node.power;
    let from_a = (big_w / V_NOM).clamp(0.0, 500.0);
    let to_a = (e.power_w / V_NOM).clamp(0.0, 500.0);
    LoadStep {
        from: Amps::new(from_a),
        to: Amps::new(to_a),
        at: Seconds::from_us(1.0),
        slew: Seconds::from_ns(WAKE_SLEW_NS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid;
    use crate::spec::ExploreSpec;

    fn ctx_and_grid(text: &str) -> (EvalContext, Vec<ConfigPoint>) {
        let spec = ExploreSpec::from_text(text).expect("valid spec");
        let ctx = EvalContext::new(&spec);
        (ctx, grid::expand(&spec))
    }

    #[test]
    fn charm_anchor_point_is_feasible_and_sane() {
        // The Charm sanity anchor: 111 mm² die, 125 W, 45 nm.
        let (ctx, grid) = ctx_and_grid(
            r#"{"chip_area_mm2":111.0,"tech_nodes":[45],"tdp_w":[125],
                "big_perf":[30],"small_perf":[5],"fraction_parallelism":[0.99],
                "fuse":["gated"],"guardband":["none"]}"#,
        );
        let e = grid.first().map(|&p| ctx.evaluate(p)).expect("one point");
        assert!(e.feasible);
        assert!(e.n_small >= 1);
        assert!(e.speedup > 1.0, "parallel code must beat one slow core");
        assert!(e.power_w <= 125.0 + 1e-9, "TDP constrains power");
        assert!((0.0..=1.0).contains(&e.dark_ratio));
        assert_eq!(e.guardband_mv, 0.0);
    }

    #[test]
    fn infeasible_points_are_marked_not_skipped() {
        // A big core alone outgrows a tiny die.
        let (ctx, grid) = ctx_and_grid(
            r#"{"chip_area_mm2":10.0,"tech_nodes":[45],"tdp_w":[35],
                "big_perf":[49],"small_perf":[1],"fraction_parallelism":[0.9],
                "fuse":["gated"],"guardband":["none"]}"#,
        );
        let e = grid.first().map(|&p| ctx.evaluate(p)).expect("one point");
        assert!(!e.feasible);
        assert_eq!(e.n_small, 0);
        // Little faster than big is rejected too.
        let (ctx, grid) = ctx_and_grid(
            r#"{"tech_nodes":[45],"tdp_w":[91],"big_perf":[5],"small_perf":[20],
                "fraction_parallelism":[0.9],"fuse":["gated"],"guardband":["none"]}"#,
        );
        let e = grid.first().map(|&p| ctx.evaluate(p)).expect("one point");
        assert!(!e.feasible);
    }

    #[test]
    fn bypassing_trades_guardband_for_serial_leakage() {
        let (ctx, grid) = ctx_and_grid(
            r#"{"tech_nodes":[22],"tdp_w":[65],"big_perf":[20],"small_perf":[4],
                "fraction_parallelism":[0.95],"guardband":["full"]}"#,
        );
        let evals: Vec<PointEval> = grid.iter().map(|&p| ctx.evaluate(p)).collect();
        let gated = evals
            .iter()
            .find(|e| e.point.fuse == PdnVariant::Gated)
            .expect("gated point");
        let bypassed = evals
            .iter()
            .find(|e| e.point.fuse == PdnVariant::Bypassed)
            .expect("bypassed point");
        assert!(gated.feasible && bypassed.feasible);
        assert!(
            bypassed.guardband_mv < gated.guardband_mv,
            "bypassing halves the delivery impedance and the droop guardband"
        );
        assert!(
            bypassed.speedup > gated.speedup,
            "smaller guardband, more performance"
        );
        assert!(
            bypassed.power_w > gated.power_w,
            "un-gated little cores leak through the serial phase"
        );
    }

    #[test]
    fn guardband_policies_order_performance() {
        // Bypassed fuse: its reliability adder is non-zero (it compensates
        // the un-gated cores' aging), so all three policies are distinct.
        let (ctx, grid) = ctx_and_grid(
            r#"{"tech_nodes":[45],"tdp_w":[91],"big_perf":[20],"small_perf":[4],
                "fraction_parallelism":[0.95],"fuse":["bypassed"],
                "guardband":["none","droop","full"]}"#,
        );
        let evals: Vec<PointEval> = grid.iter().map(|&p| ctx.evaluate(p)).collect();
        let by_policy = |p: GuardbandPolicy| {
            evals
                .iter()
                .find(|e| e.point.guardband == p)
                .map(|e| e.speedup)
                .unwrap_or(0.0)
        };
        let none = by_policy(GuardbandPolicy::None);
        let droop = by_policy(GuardbandPolicy::Droop);
        let full = by_policy(GuardbandPolicy::Full);
        assert!(none > droop && droop > full, "{none} > {droop} > {full}");
    }

    #[test]
    fn transient_refinement_is_deterministic_and_changes_droop_points() {
        let (ctx, grid) = ctx_and_grid(
            r#"{"tech_nodes":[22],"tdp_w":[65],"big_perf":[20],"small_perf":[4],
                "fraction_parallelism":[0.95],"guardband":["droop"],"transient":true}"#,
        );
        let analytic: Vec<PointEval> = grid.iter().map(|&p| ctx.evaluate(p)).collect();
        let refined = ctx.refine_chunk(analytic.clone());
        let refined_again = ctx.refine_chunk(analytic.clone());
        assert_eq!(refined, refined_again, "refinement must be deterministic");
        assert_eq!(refined.len(), analytic.len());
        // The measured droop differs from the analytic Z_peak × 48 A
        // bound (it is the point's own wake current, not the worst case).
        let changed = refined
            .iter()
            .zip(analytic.iter())
            .any(|(r, a)| r.guardband_mv != a.guardband_mv);
        assert!(changed, "transient refinement should move the guardband");
    }
}
