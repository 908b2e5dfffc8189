//! `run_with_progress` against a plain reference sweep, at 1, 2 and 4
//! engine threads and under a seeded work schedule.
//!
//! The reference evaluates the points in the seeded order, refines each
//! progress batch with one `refine_chunk` call, folds the running
//! frontier batch by batch, and computes the per-axis marginals by
//! matching every point's rendered axis value against each row's label.
//! The progress records and the rendered result must match exactly.
//!
//! Thread and schedule overrides are process-global, so the tests here
//! take one lock before they set them.

use dg_engine::{set_schedule_seed, set_thread_override};
use dg_explore::grid::{self, ConfigPoint};
use dg_explore::spec::fuse_label;
use dg_explore::{
    run_with_progress, AxisMarginal, EvalContext, ExploreResult, ExploreSpec, FrontierPoint,
    MarginalRow, PointEval, Progress, RunningFrontier,
};
use proptest::prelude::*;
use std::sync::Mutex;

static OVERRIDES: Mutex<()> = Mutex::new(());

/// The reference sweep: progress records and rendered result.
fn reference(spec: &ExploreSpec) -> (Vec<Progress>, String) {
    let points = grid::expand(spec);
    let total = points.len();
    let ordered: Vec<ConfigPoint> = grid::evaluation_order(spec.seed, total)
        .into_iter()
        .map(|i| points[i])
        .collect();
    let ctx = EvalContext::new(spec);
    let mut frontier = RunningFrontier::new();
    let mut evals: Vec<PointEval> = Vec::new();
    let mut records = Vec::new();
    for batch in ordered.chunks(spec.batch) {
        let refined = ctx.refine_chunk(batch.iter().map(|&p| ctx.evaluate(p)).collect());
        for e in refined.iter().filter(|e| e.feasible) {
            frontier.insert(e.point.id, e.objectives());
        }
        evals.extend(refined);
        records.push(Progress {
            completed: evals.len(),
            total,
            frontier: frontier.ids().len(),
        });
    }
    evals.sort_by_key(|e| e.point.id);
    let ids = frontier.ids();
    let result = ExploreResult {
        name: spec.name.clone(),
        seed: spec.seed,
        total_points: evals.len() as u64,
        feasible_points: evals.iter().filter(|e| e.feasible).count() as u64,
        frontier: evals
            .iter()
            .filter(|e| ids.binary_search(&e.point.id).is_ok())
            .map(|&eval| FrontierPoint { eval })
            .collect(),
        marginals: label_matched_marginals(spec, &evals, &ids),
    };
    (records, result.to_json().render())
}

/// One axis for label matching: its name, its values rendered in spec
/// order, and the rendering of a point's value on that axis.
type LabelAxis = (&'static str, Vec<String>, fn(&ConfigPoint) -> String);

/// Marginals by label: each row scans every point whose rendered axis
/// value equals the row's label.
fn label_matched_marginals(
    spec: &ExploreSpec,
    evals: &[PointEval],
    frontier_ids: &[u64],
) -> Vec<AxisMarginal> {
    let numbers = |values: &[f64]| values.iter().map(|v| format!("{v}")).collect();
    let axes: [LabelAxis; 7] = [
        (
            "tech_nodes",
            spec.tech_nodes
                .iter()
                .map(|n| n.node_nm.to_string())
                .collect(),
            |p| p.node.node_nm.to_string(),
        ),
        ("tdp_w", numbers(&spec.tdp_w), |p| format!("{}", p.tdp_w)),
        ("big_perf", numbers(&spec.big_perf), |p| {
            format!("{}", p.big_perf)
        }),
        ("small_perf", numbers(&spec.small_perf), |p| {
            format!("{}", p.small_perf)
        }),
        (
            "fraction_parallelism",
            numbers(&spec.fraction_parallelism),
            |p| format!("{}", p.fraction_parallelism),
        ),
        (
            "fuse",
            spec.fuse
                .iter()
                .map(|&v| fuse_label(v).to_owned())
                .collect(),
            |p| fuse_label(p.fuse).to_owned(),
        ),
        (
            "guardband",
            spec.guardband
                .iter()
                .map(|g| g.label().to_owned())
                .collect(),
            |p| p.guardband.label().to_owned(),
        ),
    ];
    axes.into_iter()
        .map(|(axis, values, label_of)| {
            let rows = values
                .into_iter()
                .map(|value| {
                    let mut row = MarginalRow {
                        value,
                        points: 0,
                        feasible: 0,
                        frontier_points: 0,
                        best_speedup: 0.0,
                        min_power_w: 0.0,
                        min_dark_ratio: 1.0,
                    };
                    let mut min_power = f64::INFINITY;
                    for e in evals.iter().filter(|e| label_of(&e.point) == row.value) {
                        row.points += 1;
                        if !e.feasible {
                            continue;
                        }
                        row.feasible += 1;
                        row.best_speedup = row.best_speedup.max(e.speedup);
                        min_power = min_power.min(e.power_w);
                        row.min_dark_ratio = row.min_dark_ratio.min(e.dark_ratio);
                        if frontier_ids.binary_search(&e.point.id).is_ok() {
                            row.frontier_points += 1;
                        }
                    }
                    if min_power.is_finite() {
                        row.min_power_w = min_power;
                    }
                    row
                })
                .collect();
            AxisMarginal { axis, rows }
        })
        .collect()
}

/// Runs `text` at 1, 2 and 4 threads and under one schedule seed, and
/// returns the first run that differs from the reference.
fn first_mismatch(text: &str) -> Option<String> {
    let spec = ExploreSpec::from_text(text).expect("valid spec");
    let (want_records, want) = reference(&spec);
    let _serial = OVERRIDES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for (threads, schedule) in [(1, 0), (2, 0), (4, 0), (4, 0x5eed)] {
        let _threads = set_thread_override(threads);
        let _schedule = set_schedule_seed(schedule);
        let mut records = Vec::new();
        let got = run_with_progress(&spec, |p| records.push(p))
            .expect("runs")
            .to_json()
            .render();
        if records != want_records {
            return Some(format!(
                "{threads} threads, schedule {schedule}: progress {records:?}, reference {want_records:?}"
            ));
        }
        if got != want {
            return Some(format!(
                "{threads} threads, schedule {schedule}: result {got}, reference {want}"
            ));
        }
    }
    None
}

/// A JSON array of 2..=`max` draws from `values`. Repeats exercise the
/// spec's first-seen dedup and leave some axes with one value.
fn axis(values: &[&'static str], max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(values.to_vec()), 2..=max)
        .prop_map(|picked| format!("[{}]", picked.join(",")))
}

/// Spec text over random axis subsets. `0` and `-0` are distinct
/// fraction-of-parallelism values (they survive dedup and render as two
/// rows); small dies make points infeasible; batches run 16..=600,
/// weighted towards small ones, so most grids span several batches.
fn arb_spec() -> impl Strategy<Value = String> {
    let axes = (
        axis(&["45", "32", "22", "16", "11", "8"], 4),
        axis(&["35", "45", "65", "91", "125"], 4),
        axis(&["5", "10", "20", "30", "40", "49"], 4),
        axis(&["1", "2", "4", "8", "20"], 4),
        axis(&["0", "-0", "0.5", "0.95", "1"], 4),
        axis(&["\"gated\"", "\"bypassed\""], 2),
        axis(&["\"none\"", "\"droop\"", "\"full\""], 3),
    );
    let scalars = (0..100u64, 10.0..=1_000.0f64, 0.0..=1.0f64);
    (axes, scalars).prop_map(
        |((nodes, tdp, big, small, fraction, fuse, guardband), (seed, area, u))| {
            let batch = (16.0 * (600.0f64 / 16.0).powf(u * u)).round();
            format!(
                r#"{{"seed":{seed},"chip_area_mm2":{area},"tech_nodes":{nodes},"tdp_w":{tdp},
                "big_perf":{big},"small_perf":{small},"fraction_parallelism":{fraction},
                "fuse":{fuse},"guardband":{guardband},"batch":{batch}}}"#
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn analytic_sweeps_match_the_reference(text in arb_spec()) {
        if let Some(mismatch) = first_mismatch(&text) {
            prop_assert!(false, "{text}\n{mismatch}");
        }
    }
}

#[test]
fn zero_and_negative_zero_are_separate_rows() {
    let text = r#"{"tech_nodes":[22],"tdp_w":[65],"big_perf":[20],"small_perf":[4],
        "fraction_parallelism":[0,-0,0.9],"batch":16}"#;
    assert_eq!(first_mismatch(text), None);
    let spec = ExploreSpec::from_text(text).expect("valid spec");
    let result = dg_explore::run(&spec).expect("runs");
    let rows: Vec<(&str, u64)> = result
        .marginals
        .iter()
        .filter(|m| m.axis == "fraction_parallelism")
        .flat_map(|m| m.rows.iter().map(|r| (r.value.as_str(), r.points)))
        .collect();
    assert_eq!(rows, [("0", 2), ("-0", 2), ("0.9", 2)]);
}

#[test]
fn transient_sweeps_match_the_reference() {
    // 64 points in four batches, all feasible; then 32 points in a full
    // and a partial batch, the 16 with a 40-perf big core too big for
    // the 30 mm² die.
    for text in [
        include_str!("../specs/transient_small.json"),
        r#"{"seed":5,"chip_area_mm2":30,"tech_nodes":[45],"tdp_w":[35,125],
            "big_perf":[10,40],"small_perf":[1,8],"fraction_parallelism":[0.9],
            "guardband":["droop","full"],"transient":true,"batch":20}"#,
    ] {
        assert_eq!(first_mismatch(text), None, "{text}");
    }
}
