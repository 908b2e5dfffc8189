//! # dg-explore — dark-silicon design-space exploration
//!
//! The DarkGates paper evaluates fixed design points (a Skylake-class
//! die at 35–91 W). This crate asks the surrounding question — *how much
//! of the die must stay dark as cores, big/little splits, tech nodes,
//! fuse modes, and guardband policies vary under area + TDP
//! constraints?* — by crossing a declarative JSON spec
//! ([`spec::ExploreSpec`]) into a deterministic config grid
//! ([`grid::expand`]), evaluating every point through the existing
//! models ([`model::EvalContext`]: Charm's asymmetric-Amdahl
//! formulation plus the DarkGates guardband/PDN machinery), and
//! extracting the exact Pareto frontier over (performance, power,
//! dark-silicon ratio) with per-axis marginals ([`pareto`]).
//!
//! Each progress batch (`batch` points of the seeded order) is one work
//! item of [`dg_engine::par_map_progress`]: a worker evaluates the batch
//! and runs its transient refinement through that thread's warm
//! `dg_pdn::BatchWorkspace`. A spec of one batch runs on the calling
//! thread and never spawns one. The calling thread folds each batch into the running frontier in
//! batch order and hands a caller-supplied observer `(completed, total,
//! frontier-size)`, counted in points, after every batch: the seam
//! `POST /v1/explore` streams progress records through. The per-axis
//! marginals are one pass over the evaluations, reading each point's row
//! on every axis from the digits of its id. The spec seed shuffles
//! evaluation *order* only: the progress trace is a function of (spec,
//! seed), the final [`ExploreResult`] of the spec alone, and its JSON
//! rendering is byte-identical for any thread count and across the CLI,
//! the HTTP route, and cache replay.

pub mod error;
pub mod grid;
pub mod model;
pub mod pareto;
pub mod scaling;
pub mod spec;

pub use error::ExploreError;
pub use model::{EvalContext, PointEval};
pub use pareto::{dominates, Objectives, RunningFrontier};
pub use spec::{ExploreSpec, GuardbandPolicy};

use darkgates::json::{obj, Json};
use grid::ConfigPoint;
use spec::fuse_label;

/// Hard cap on grid points a single run will expand (memory bound; the
/// serve tier applies its own much tighter request bound first).
const MAX_POINTS: u64 = 1_000_000;

/// One progress record, emitted after each evaluated batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Points evaluated so far.
    pub completed: usize,
    /// Total points in the grid.
    pub total: usize,
    /// Running exact-frontier size over everything evaluated so far.
    pub frontier: usize,
}

/// A frontier member as reported: the full design point plus its
/// evaluated metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The evaluated point.
    pub eval: PointEval,
}

impl FrontierPoint {
    fn to_json(&self) -> Json {
        let e = &self.eval;
        let p = &e.point;
        obj(vec![
            ("id", Json::Num(u64_to_f64(p.id))),
            ("node_nm", Json::Num(f64::from(p.node.node_nm))),
            ("tdp_w", Json::Num(p.tdp_w)),
            ("big_perf", Json::Num(p.big_perf)),
            ("small_perf", Json::Num(p.small_perf)),
            ("fraction_parallelism", Json::Num(p.fraction_parallelism)),
            ("fuse", Json::Str(fuse_label(p.fuse).to_owned())),
            ("guardband", Json::Str(p.guardband.label().to_owned())),
            ("n_small", Json::Num(u64_to_f64(e.n_small))),
            ("speedup", Json::Num(e.speedup)),
            ("power_w", Json::Num(e.power_w)),
            ("dark_ratio", Json::Num(e.dark_ratio)),
            ("guardband_mv", Json::Num(e.guardband_mv)),
        ])
    }
}

/// Per-axis-value aggregate over the whole grid.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalRow {
    /// The axis value, rendered (`"22"`, `"65"`, `"bypassed"`, …).
    pub value: String,
    /// Grid points carrying this value.
    pub points: u64,
    /// Of those, how many are buildable.
    pub feasible: u64,
    /// Of those, how many sit on the final frontier.
    pub frontier_points: u64,
    /// Best speedup among feasible points (0 when none).
    pub best_speedup: f64,
    /// Lowest package power among feasible points (0 when none).
    pub min_power_w: f64,
    /// Lowest dark-silicon ratio among feasible points (1 when none).
    pub min_dark_ratio: f64,
}

/// All rows of one axis, in spec order.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisMarginal {
    /// Axis name (spec key).
    pub axis: &'static str,
    /// One row per axis value.
    pub rows: Vec<MarginalRow>,
}

impl AxisMarginal {
    fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                obj(vec![
                    ("value", Json::Str(r.value.clone())),
                    ("points", Json::Num(u64_to_f64(r.points))),
                    ("feasible", Json::Num(u64_to_f64(r.feasible))),
                    ("frontier_points", Json::Num(u64_to_f64(r.frontier_points))),
                    ("best_speedup", Json::Num(r.best_speedup)),
                    ("min_power_w", Json::Num(r.min_power_w)),
                    ("min_dark_ratio", Json::Num(r.min_dark_ratio)),
                ])
            })
            .collect();
        obj(vec![
            ("axis", Json::Str(self.axis.to_owned())),
            ("rows", Json::Arr(rows)),
        ])
    }
}

/// The complete result of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreResult {
    /// Spec label.
    pub name: String,
    /// Spec seed (shuffled the evaluation order).
    pub seed: u64,
    /// Grid points evaluated.
    pub total_points: u64,
    /// Buildable points.
    pub feasible_points: u64,
    /// The exact Pareto frontier, ascending by config id.
    pub frontier: Vec<FrontierPoint>,
    /// Per-axis marginals, in axis order.
    pub marginals: Vec<AxisMarginal>,
}

impl ExploreResult {
    /// Deterministic JSON rendering — the byte-identity contract shared
    /// by the CLI, `/v1/explore`, and cache replay.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("seed", Json::Num(u64_to_f64(self.seed))),
            ("total_points", Json::Num(u64_to_f64(self.total_points))),
            (
                "feasible_points",
                Json::Num(u64_to_f64(self.feasible_points)),
            ),
            (
                "frontier_size",
                Json::Num(u64_to_f64(self.frontier.len() as u64)),
            ),
            (
                "frontier",
                Json::Arr(self.frontier.iter().map(FrontierPoint::to_json).collect()),
            ),
            (
                "marginals",
                Json::Arr(self.marginals.iter().map(AxisMarginal::to_json).collect()),
            ),
        ])
    }
}

/// `u64 → f64` for JSON rendering (values stay well inside 2⁵³).
#[expect(
    clippy::cast_precision_loss,
    reason = "rendered values stay below 2^53"
)]
fn u64_to_f64(v: u64) -> f64 {
    v as f64
}

/// Runs a sweep to completion without observing progress.
///
/// # Errors
///
/// [`ExploreError::GridTooLarge`] past `MAX_POINTS`; spec-shaped
/// errors never reach here (the spec was already validated).
pub fn run(spec: &ExploreSpec) -> Result<ExploreResult, ExploreError> {
    run_with_progress(spec, |_| {})
}

/// Runs a sweep, invoking `on_progress` after every evaluated batch.
///
/// The observer runs on the calling thread between batches; the sequence
/// of [`Progress`] records is a deterministic function of (spec, seed)
/// regardless of thread count.
///
/// # Errors
///
/// [`ExploreError::GridTooLarge`] when the axes cross into more than
/// `MAX_POINTS` points.
pub fn run_with_progress(
    spec: &ExploreSpec,
    mut on_progress: impl FnMut(Progress),
) -> Result<ExploreResult, ExploreError> {
    let count = spec.point_count();
    if count > MAX_POINTS {
        return Err(ExploreError::GridTooLarge {
            points: count,
            max: MAX_POINTS,
        });
    }
    let grid = grid::expand(spec);
    let total = grid.len();
    let order = grid::evaluation_order(spec.seed, total);
    let ordered: Vec<ConfigPoint> = order.iter().filter_map(|&i| grid.get(i).copied()).collect();
    let batches: Vec<&[ConfigPoint]> = ordered.chunks(spec.batch).collect();

    let ctx = EvalContext::new(spec);
    // One work item per batch: a point costs well under a microsecond,
    // so per-point items would spend the map on scheduling. The progress
    // closure runs on this thread, so the running frontier needs no lock.
    let mut frontier = RunningFrontier::new();
    let mut completed = 0;
    let batch_evals = dg_engine::par_map_progress(
        &batches,
        1,
        |_, batch| ctx.refine_chunk(batch.iter().map(|&p| ctx.evaluate(p)).collect()),
        |_, fresh| {
            for e in fresh.iter().flatten() {
                if e.feasible {
                    frontier.insert(e.point.id, e.objectives());
                }
            }
            completed += fresh.iter().map(Vec::len).sum::<usize>();
            on_progress(Progress {
                completed,
                total,
                frontier: frontier.len(),
            });
        },
    );

    let evals = batch_evals.into_iter().flatten().collect();
    Ok(assemble(spec, evals, &frontier.ids()))
}

/// Builds the result record from the evaluations and the frontier ids.
fn assemble(spec: &ExploreSpec, mut evals: Vec<PointEval>, frontier_ids: &[u64]) -> ExploreResult {
    evals.sort_unstable_by_key(|e| e.point.id);
    let feasible_points = evals.iter().filter(|e| e.feasible).count() as u64;
    let frontier: Vec<FrontierPoint> = evals
        .iter()
        .filter(|e| frontier_ids.binary_search(&e.point.id).is_ok())
        .map(|&eval| FrontierPoint { eval })
        .collect();
    let marginals = marginals_of(spec, &evals, frontier_ids);
    ExploreResult {
        name: spec.name.clone(),
        seed: spec.seed,
        total_points: evals.len() as u64,
        feasible_points,
        frontier,
        marginals,
    }
}

impl MarginalRow {
    /// An empty row. `min_power_w` starts at infinity so [`Self::add`]
    /// can fold it; [`marginals_of`] resets a row that saw no feasible
    /// point to 0.
    fn empty(value: String) -> Self {
        MarginalRow {
            value,
            points: 0,
            feasible: 0,
            frontier_points: 0,
            best_speedup: 0.0,
            min_power_w: f64::INFINITY,
            min_dark_ratio: 1.0,
        }
    }

    /// Folds one evaluated point into the row.
    fn add(&mut self, e: &PointEval, on_frontier: bool) {
        self.points += 1;
        if !e.feasible {
            return;
        }
        self.feasible += 1;
        self.best_speedup = self.best_speedup.max(e.speedup);
        self.min_power_w = self.min_power_w.min(e.power_w);
        self.min_dark_ratio = self.min_dark_ratio.min(e.dark_ratio);
        if on_frontier {
            self.frontier_points += 1;
        }
    }
}

/// Computes per-axis marginals, one row per axis value in spec order,
/// in one pass over the id-sorted evaluations.
///
/// A point's id is its index in the lexicographic cross product
/// ([`grid::expand`]), so its row on each axis is one digit of the id in
/// the mixed radix of the axis lengths, guardband varying fastest. Each
/// row therefore sees its points in id order, as a scan per row would.
fn marginals_of(
    spec: &ExploreSpec,
    evals: &[PointEval],
    frontier_ids: &[u64],
) -> Vec<AxisMarginal> {
    let labelled = |axis, values: Vec<String>| AxisMarginal {
        axis,
        rows: values.into_iter().map(MarginalRow::empty).collect(),
    };
    let numbers = |values: &[f64]| values.iter().map(f64::to_string).collect();
    let mut axes = [
        labelled(
            "tech_nodes",
            spec.tech_nodes
                .iter()
                .map(|n| n.node_nm.to_string())
                .collect(),
        ),
        labelled("tdp_w", numbers(&spec.tdp_w)),
        labelled("big_perf", numbers(&spec.big_perf)),
        labelled("small_perf", numbers(&spec.small_perf)),
        labelled("fraction_parallelism", numbers(&spec.fraction_parallelism)),
        labelled(
            "fuse",
            spec.fuse
                .iter()
                .map(|&v| fuse_label(v).to_owned())
                .collect(),
        ),
        labelled(
            "guardband",
            spec.guardband
                .iter()
                .map(|g| g.label().to_owned())
                .collect(),
        ),
    ];

    for e in evals {
        let on_frontier = e.feasible && frontier_ids.binary_search(&e.point.id).is_ok();
        let mut rest = e.point.id;
        for axis in axes.iter_mut().rev() {
            let radix = axis.rows.len() as u64;
            if let Some(row) = usize::try_from(rest % radix)
                .ok()
                .and_then(|digit| axis.rows.get_mut(digit))
            {
                row.add(e, on_frontier);
            }
            rest /= radix;
        }
    }

    for row in axes.iter_mut().flat_map(|a| a.rows.iter_mut()) {
        if !row.min_power_w.is_finite() {
            row.min_power_w = 0.0;
        }
    }
    axes.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE_SPEC: &str = r#"{
        "name":"smoke","seed":3,
        "tech_nodes":[45,22,8],"tdp_w":[35,91],
        "big_perf":[20],"small_perf":[2,6],
        "fraction_parallelism":[0.95],"batch":16
    }"#;

    #[test]
    fn smoke_sweep_has_a_nonempty_frontier_and_honest_counts() {
        let spec = ExploreSpec::from_text(SMOKE_SPEC).expect("valid");
        let mut records: Vec<Progress> = Vec::new();
        let result = run_with_progress(&spec, |p| records.push(p)).expect("runs");
        assert_eq!(result.total_points, spec.point_count());
        assert!(result.feasible_points > 0);
        assert!(!result.frontier.is_empty());
        assert!(result.frontier.len() as u64 <= result.feasible_points);
        // Progress is monotone and ends complete.
        assert!(!records.is_empty());
        let mut last = 0;
        for r in &records {
            assert!(r.completed > last && r.completed <= r.total);
            last = r.completed;
        }
        assert_eq!(records.last().map(|r| r.completed), Some(24));
        // Frontier members are mutually non-dominating (exactness).
        for a in &result.frontier {
            for b in &result.frontier {
                assert!(
                    !dominates(a.eval.objectives(), b.eval.objectives()),
                    "frontier must be mutually non-dominating"
                );
            }
        }
        // Marginal counts tie out.
        for m in &result.marginals {
            let total: u64 = m.rows.iter().map(|r| r.points).sum();
            assert_eq!(
                total, result.total_points,
                "axis {} covers the grid",
                m.axis
            );
            let front: u64 = m.rows.iter().map(|r| r.frontier_points).sum();
            assert_eq!(front, result.frontier.len() as u64);
        }
    }

    #[test]
    fn rendering_is_byte_identical_across_reruns_and_seeds() {
        let spec = ExploreSpec::from_text(SMOKE_SPEC).expect("valid");
        let a = run(&spec).expect("runs").to_json().render();
        let b = run(&spec).expect("runs").to_json().render();
        assert_eq!(a, b, "same spec+seed must render byte-identically");
        // A different seed shuffles evaluation order but the frontier is
        // a set: everything except the echoed seed must agree.
        let mut reseeded = spec.clone();
        reseeded.seed = 99;
        let c = run(&reseeded).expect("runs");
        let c_text = c.to_json().render().replace("\"seed\":99", "\"seed\":3");
        assert_eq!(a, c_text, "the frontier is evaluation-order-independent");
    }

    #[test]
    fn oversized_grids_are_rejected_before_expansion() {
        let mut spec = ExploreSpec::from_text("{}").expect("valid");
        // 256⁴-ish product far past MAX_POINTS without allocating.
        spec.tdp_w = (0..256).map(f64::from).map(|v| v + 1.0).collect();
        spec.big_perf = (0..49).map(|i| f64::from(i) + 1.0).collect();
        spec.small_perf = spec.big_perf.clone();
        let err = run(&spec).expect_err("too large");
        assert!(matches!(err, ExploreError::GridTooLarge { .. }));
    }
}
