//! Correctness oracles, run after the timed window.
//!
//! Every served byte the benchmark checks is recomputed in process from
//! the library: hot-mix bodies through an in-process [`Router`], sweep
//! lanes through [`didt::droop_sweep`], explore results through
//! [`dg_explore::run`].

use crate::drive::result_line;
use crate::workload::Req;
use darkgates::pdn::didt;
use darkgates::pdn::skylake::{PdnVariant, SkylakePdn};
use darkgates::pdn::transient::{LoadStep, TransientSim};
use darkgates::pdn::units::{Amps, Seconds, Volts};
use dg_explore::ExploreSpec;
use dg_serve::http::Request;
use dg_serve::json::{self, obj, Json};
use dg_serve::metrics::Metrics;
use dg_serve::routes::{delta_grid, Router};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// An in-process router with its own caches, as a fresh shard has.
pub fn local_router() -> Router {
    Router::new(
        Arc::new(Metrics::default()),
        Arc::new(AtomicBool::new(false)),
        false,
    )
}

/// The parsed form of a generated request.
pub fn request_of(req: &Req) -> Request {
    Request {
        method: req.method.to_owned(),
        target: req.path.to_owned(),
        headers: Vec::new(),
        body: req.body.as_bytes().to_vec(),
    }
}

/// What a hot-mix body must be: for a menu entry on a streaming route,
/// its result line; otherwise the whole body.
#[derive(Debug)]
pub struct HotOracle {
    expected: Vec<Vec<u8>>,
}

impl HotOracle {
    /// Answers every menu entry through an in-process router.
    pub fn new(menu: &[Req]) -> Self {
        let router = local_router();
        let expected = menu
            .iter()
            .map(|req| router.handle(&request_of(req)).1.body.as_bytes().to_vec())
            .collect();
        HotOracle { expected }
    }

    /// Compares the first body served for each menu entry; returns one
    /// message per mismatch.
    pub fn check(&self, menu: &[Req], served: &BTreeMap<usize, Vec<u8>>) -> Vec<String> {
        let mut errors = Vec::new();
        for (&entry, body) in served {
            let (Some(req), Some(want)) = (menu.get(entry), self.expected.get(entry)) else {
                errors.push(format!("menu entry {entry} does not exist"));
                continue;
            };
            let got = if req.streaming {
                result_line(body)
            } else {
                Some(body.as_slice())
            };
            if got != Some(want.as_slice()) {
                errors.push(format!(
                    "{} {} body differs from Router::handle",
                    req.path, req.body
                ));
            }
        }
        errors
    }
}

fn lines(body: &[u8]) -> Result<Vec<Json>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    text.lines()
        .map(|l| json::parse(l).map_err(|e| format!("bad NDJSON line: {e}")))
        .collect()
}

fn mv_lanes(v: Option<&Json>) -> Result<Vec<f64>, String> {
    v.and_then(|v| v.get("droop_mv"))
        .and_then(Json::as_arr)
        .ok_or("no droop_mv array")?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| "non-numeric droop".to_owned()))
        .collect()
}

fn field(doc: &Json, path: &[&str]) -> Result<f64, String> {
    let mut v = doc;
    for key in path {
        v = v
            .get(key)
            .ok_or_else(|| format!("request has no `{}`", path.join(".")))?;
    }
    v.as_f64()
        .ok_or_else(|| format!("`{}` is not a number", path.join(".")))
}

/// A `/v1/droop_sweep` request in library terms, read back from its body
/// with the serve tier's own JSON parser and grid expansion.
#[derive(Debug, Clone)]
pub struct SweepParams {
    /// PDN variant.
    pub variant: PdnVariant,
    /// Current before the step.
    pub quiescent: Amps,
    /// Shared slew.
    pub slew: Seconds,
    /// Per-lane step sizes, A, in lane order.
    pub deltas: Vec<f64>,
}

impl SweepParams {
    /// Parses a generated sweep request.
    ///
    /// # Errors
    ///
    /// A body that is not a sweep request.
    pub fn of(req: &Req) -> Result<SweepParams, String> {
        let params = json::parse(&req.body).map_err(|e| format!("request body: {e}"))?;
        let points = field(&params, &["delta", "points"])? as usize;
        Ok(SweepParams {
            variant: match params.get("variant").and_then(Json::as_str) {
                Some("bypassed") => PdnVariant::Bypassed,
                _ => PdnVariant::Gated,
            },
            quiescent: Amps::new(field(&params, &["quiescent_a"])?),
            slew: Seconds::from_ns(field(&params, &["slew_ns"])?),
            deltas: delta_grid(
                field(&params, &["delta", "start_a"])?,
                field(&params, &["delta", "stop_a"])?,
                points,
            ),
        })
    }

    /// The load steps the serve tier integrates (ramp at 1 µs).
    pub fn steps(&self) -> Vec<LoadStep> {
        self.deltas
            .iter()
            .map(|&d| LoadStep {
                from: self.quiescent,
                to: self.quiescent + Amps::new(d),
                at: Seconds::from_us(1.0),
                slew: self.slew,
            })
            .collect()
    }

    /// [`didt::droop_sweep`] over the lanes at `picks`, mV.
    pub fn library_mv(&self, picks: &[usize]) -> Vec<f64> {
        let pdn = SkylakePdn::build(self.variant);
        let deltas: Vec<Amps> = picks
            .iter()
            .filter_map(|&i| self.deltas.get(i).map(|&d| Amps::new(d)))
            .collect();
        didt::droop_sweep(
            &pdn.ladder,
            &TransientSim::droop_capture(Volts::new(1.0)),
            self.quiescent,
            &deltas,
            self.slew,
        )
        .iter()
        .map(|v| v.as_mv())
        .collect()
    }
}

/// Lanes of each sweep the library recomputes.
pub const SWEEP_LANES_CHECKED: usize = 4;

/// Checks one `/v1/droop_sweep` stream: the progress waves concatenate
/// to the result lanes, there is one lane per grid point, and the first,
/// last and two interior lanes are `to_bits`-equal to
/// [`didt::droop_sweep`] over the same [`delta_grid`] expansion.
pub fn check_sweep(req: &Req, body: &[u8]) -> Result<(), String> {
    let doc = lines(body)?;
    let (result, progress) = doc.split_last().ok_or("empty stream")?;
    let lanes = mv_lanes(result.get("result"))?;
    let mut waves = Vec::new();
    for wave in progress {
        waves.extend(mv_lanes(Some(wave))?);
    }
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    if !same(&waves, &lanes) {
        return Err("progress waves do not concatenate to the result lanes".into());
    }

    let params = SweepParams::of(req)?;
    let points = params.deltas.len();
    if lanes.len() != points {
        return Err(format!("{} lanes for a {points}-point grid", lanes.len()));
    }
    let picks: Vec<usize> = (0..SWEEP_LANES_CHECKED)
        .map(|k| k * points.saturating_sub(1) / (SWEEP_LANES_CHECKED - 1))
        .collect();
    for (&i, want) in picks.iter().zip(params.library_mv(&picks)) {
        if lanes[i].to_bits() != want.to_bits() {
            return Err(format!(
                "lane {i}: served {} mV, library {want} mV",
                lanes[i]
            ));
        }
    }
    Ok(())
}

/// Checks one `/v1/explore` stream: its result line is byte-equal to the
/// rendering of [`dg_explore::run`] on the same spec.
pub fn check_explore(req: &Req, body: &[u8]) -> Result<(), String> {
    let spec = ExploreSpec::from_text(&req.body).map_err(|e| format!("spec: {e}"))?;
    let result = dg_explore::run(&spec).map_err(|e| format!("run: {e}"))?;
    let want = obj(vec![("ok", Json::Bool(true)), ("result", result.to_json())]).render();
    if result_line(body) == Some(want.as_bytes()) {
        Ok(())
    } else {
        Err(format!(
            "explore result differs from dg_explore::run for {}",
            req.body
        ))
    }
}
