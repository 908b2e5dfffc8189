//! The declarative sweep spec: JSON in, validated axes out.
//!
//! A spec names the design axes to cross — tech node, TDP, big/little
//! reference-performance split, fraction of parallelism, fuse mode,
//! guardband policy — plus the shared constants (die area, seed, batch
//! cadence). Parsing is strict: unknown keys, out-of-range values, and
//! empty axes are rejected with a reason that is safe to echo to an HTTP
//! client, so `/v1/explore` can 400 with the exact field at fault.
//!
//! [`ExploreSpec::normalized_json`] renders the spec back out in
//! canonical key order with every default filled in and every scaling
//! row resolved; the serve tier keys its response cache on that
//! rendering, so formatting, key order, and omitted defaults never
//! split the cache.

use crate::error::ExploreError;
use crate::scaling::{self, NodeScaling, MAX_REF_PERF, MIN_REF_PERF};
use darkgates::json::{obj, Json};
use darkgates::pdn::skylake::PdnVariant;

/// Most values one axis may carry (keeps the count math and the grid
/// expansion honest before the caller's own point bound applies).
const MAX_AXIS_VALUES: usize = 256;

/// Progress-batch cadence bounds (items evaluated between progress
/// records).
const MIN_BATCH: usize = 16;
/// Upper progress-batch bound.
const MAX_BATCH: usize = 8_192;
/// Default progress-batch cadence.
const DEFAULT_BATCH: usize = 512;

/// How much voltage guardband a design point pays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardbandPolicy {
    /// No guardband: the ideal (unbuildable) upper bound.
    None,
    /// First-droop guardband only (peak impedance × the paper's 48 A
    /// step).
    Droop,
    /// Droop plus the TDP-dependent reliability adder — the shipping
    /// configuration.
    Full,
}

impl GuardbandPolicy {
    /// Spec/report label.
    pub fn label(self) -> &'static str {
        match self {
            GuardbandPolicy::None => "none",
            GuardbandPolicy::Droop => "droop",
            GuardbandPolicy::Full => "full",
        }
    }

    fn parse(text: &str) -> Result<Self, ExploreError> {
        match text {
            "none" => Ok(GuardbandPolicy::None),
            "droop" => Ok(GuardbandPolicy::Droop),
            "full" => Ok(GuardbandPolicy::Full),
            other => Err(ExploreError::spec(format!(
                "`guardband` values must be \"none\", \"droop\" or \"full\", got \"{other}\""
            ))),
        }
    }
}

/// A validated sweep spec with every axis resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSpec {
    /// Report label (`"explore"` when omitted).
    pub name: String,
    /// Shuffles the evaluation order (never the result): the progress
    /// trace is a deterministic function of (spec, seed), the final
    /// frontier of the spec alone.
    pub seed: u64,
    /// Total die area budget, mm².
    pub chip_area_mm2: f64,
    /// Tech-node axis, each with its resolved scaling row.
    pub tech_nodes: Vec<NodeScaling>,
    /// TDP axis, watts.
    pub tdp_w: Vec<f64>,
    /// Big-core 45 nm reference-performance axis.
    pub big_perf: Vec<f64>,
    /// Little-core 45 nm reference-performance axis.
    pub small_perf: Vec<f64>,
    /// Amdahl parallel-fraction axis.
    pub fraction_parallelism: Vec<f64>,
    /// Fuse-mode axis (power-gates in the path vs. bypassed).
    pub fuse: Vec<PdnVariant>,
    /// Guardband-policy axis.
    pub guardband: Vec<GuardbandPolicy>,
    /// When set, each point's droop guardband comes from a batched PDN
    /// transient at the point's own step current instead of the analytic
    /// peak-impedance bound.
    pub transient: bool,
    /// Points evaluated between progress records.
    pub batch: usize,
}

impl ExploreSpec {
    /// Parses and validates a spec document.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Spec`] naming the offending field on malformed
    /// JSON, unknown keys, out-of-range values, or empty axes.
    pub fn from_text(text: &str) -> Result<Self, ExploreError> {
        let doc = darkgates::json::parse(text)?;
        Self::from_json(&doc)
    }

    /// Validates an already-parsed spec document.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Spec`] naming the offending field (see
    /// [`ExploreSpec::from_text`]).
    pub fn from_json(doc: &Json) -> Result<Self, ExploreError> {
        let Json::Obj(pairs) = doc else {
            return Err(ExploreError::spec("spec must be a JSON object"));
        };
        const KNOWN: [&str; 13] = [
            "name",
            "seed",
            "chip_area_mm2",
            "tech_nodes",
            "scaling",
            "tdp_w",
            "big_perf",
            "small_perf",
            "fraction_parallelism",
            "fuse",
            "guardband",
            "transient",
            "batch",
        ];
        for (key, _) in pairs {
            if !KNOWN.contains(&key.as_str()) {
                return Err(ExploreError::spec(format!("unknown spec key `{key}`")));
            }
        }

        let name = match doc.get("name") {
            None => "explore".to_owned(),
            Some(v) => {
                let s = v
                    .as_str()
                    .ok_or_else(|| ExploreError::spec("`name` must be a string"))?;
                if s.is_empty() || s.len() > 64 {
                    return Err(ExploreError::spec("`name` must be 1..=64 characters"));
                }
                s.to_owned()
            }
        };
        let seed = match doc.get("seed") {
            None => 0,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| ExploreError::spec("`seed` must be a non-negative integer"))?,
        };
        let chip_area_mm2 = scalar_in(doc, "chip_area_mm2", 111.0, 10.0, 1_000.0)?;

        let overrides = scaling_overrides(doc)?;
        let node_values = u32_axis(doc, "tech_nodes", &[45, 32, 22, 16, 11, 8])?;
        let mut tech_nodes = Vec::with_capacity(node_values.len());
        for node in node_values {
            let row = overrides
                .iter()
                .copied()
                .find(|n| n.node_nm == node)
                .or_else(|| scaling::default_scaling(node))
                .ok_or_else(|| {
                    ExploreError::spec(format!(
                        "tech node {node} nm has no scaling row (not in the default table; \
                         add one under `scaling`)"
                    ))
                })?;
            tech_nodes.push(row);
        }

        let tdp_w = f64_axis(doc, "tdp_w", &[35.0, 45.0, 65.0, 91.0], 1.0, 500.0)?;
        let big_perf = f64_axis(
            doc,
            "big_perf",
            &[10.0, 20.0, 30.0, 40.0],
            MIN_REF_PERF,
            MAX_REF_PERF,
        )?;
        let small_perf = f64_axis(
            doc,
            "small_perf",
            &[1.0, 2.0, 4.0, 8.0],
            MIN_REF_PERF,
            MAX_REF_PERF,
        )?;
        let fraction_parallelism = f64_axis(
            doc,
            "fraction_parallelism",
            &[0.999, 0.99, 0.95, 0.9],
            0.0,
            1.0,
        )?;
        let fuse = fuse_axis(doc)?;
        let guardband = guardband_axis(doc)?;
        let transient = match doc.get("transient") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| ExploreError::spec("`transient` must be a boolean"))?,
        };
        let batch = match doc.get("batch") {
            None => DEFAULT_BATCH,
            Some(v) => {
                let n = v
                    .as_u64()
                    .ok_or_else(|| ExploreError::spec("`batch` must be a positive integer"))?;
                let n = usize::try_from(n)
                    .map_err(|_| ExploreError::spec("`batch` must be a positive integer"))?;
                if !(MIN_BATCH..=MAX_BATCH).contains(&n) {
                    return Err(ExploreError::spec(format!(
                        "`batch` must be in [{MIN_BATCH}, {MAX_BATCH}], got {n}"
                    )));
                }
                n
            }
        };

        Ok(ExploreSpec {
            name,
            seed,
            chip_area_mm2,
            tech_nodes,
            tdp_w,
            big_perf,
            small_perf,
            fraction_parallelism,
            fuse,
            guardband,
            transient,
            batch,
        })
    }

    /// How many grid points the axes cross into (saturating).
    pub fn point_count(&self) -> u64 {
        [
            self.tech_nodes.len(),
            self.tdp_w.len(),
            self.big_perf.len(),
            self.small_perf.len(),
            self.fraction_parallelism.len(),
            self.fuse.len(),
            self.guardband.len(),
        ]
        .iter()
        .fold(1u64, |acc, &n| {
            acc.saturating_mul(u64::try_from(n).unwrap_or(u64::MAX))
        })
    }

    /// Canonical rendering: every default filled in, every scaling row
    /// resolved, keys in a fixed order. Equal specs (up to formatting and
    /// defaults) render byte-identically, which is what the serve tier
    /// keys its caches on.
    pub fn normalized_json(&self) -> Json {
        let scaling_rows: Vec<Json> = self
            .tech_nodes
            .iter()
            .map(|n| {
                obj(vec![
                    ("node_nm", Json::Num(f64::from(n.node_nm))),
                    ("perf", Json::Num(n.perf)),
                    ("power", Json::Num(n.power)),
                ])
            })
            .collect();
        let nodes: Vec<Json> = self
            .tech_nodes
            .iter()
            .map(|n| Json::Num(f64::from(n.node_nm)))
            .collect();
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("seed", Json::Num(u64_to_f64(self.seed))),
            ("chip_area_mm2", Json::Num(self.chip_area_mm2)),
            ("tech_nodes", Json::Arr(nodes)),
            ("scaling", Json::Arr(scaling_rows)),
            (
                "tdp_w",
                Json::Arr(self.tdp_w.iter().map(|&v| Json::Num(v)).collect()),
            ),
            (
                "big_perf",
                Json::Arr(self.big_perf.iter().map(|&v| Json::Num(v)).collect()),
            ),
            (
                "small_perf",
                Json::Arr(self.small_perf.iter().map(|&v| Json::Num(v)).collect()),
            ),
            (
                "fraction_parallelism",
                Json::Arr(
                    self.fraction_parallelism
                        .iter()
                        .map(|&v| Json::Num(v))
                        .collect(),
                ),
            ),
            (
                "fuse",
                Json::Arr(
                    self.fuse
                        .iter()
                        .map(|v| Json::Str(fuse_label(*v).to_owned()))
                        .collect(),
                ),
            ),
            (
                "guardband",
                Json::Arr(
                    self.guardband
                        .iter()
                        .map(|g| Json::Str(g.label().to_owned()))
                        .collect(),
                ),
            ),
            ("transient", Json::Bool(self.transient)),
            ("batch", Json::Num(u64_to_f64(self.batch as u64))),
        ])
    }
}

/// Spec label for a fuse mode (`PdnVariant::label` is prose, the spec
/// wants the request vocabulary `/v1/droop` already uses).
pub fn fuse_label(variant: PdnVariant) -> &'static str {
    match variant {
        PdnVariant::Gated => "gated",
        PdnVariant::Bypassed => "bypassed",
    }
}

/// `u64 → f64` for JSON rendering; seeds and counts stay well inside
/// 2⁵³ (spec parsing re-validates on the way back in).
#[expect(
    clippy::cast_precision_loss,
    reason = "seeds and counts stay below 2^53"
)]
fn u64_to_f64(v: u64) -> f64 {
    v as f64
}

fn scalar_in(doc: &Json, key: &str, default: f64, lo: f64, hi: f64) -> Result<f64, ExploreError> {
    let Some(v) = doc.get(key) else {
        return Ok(default);
    };
    let n = v
        .as_f64()
        .ok_or_else(|| ExploreError::spec(format!("`{key}` must be a finite number")))?;
    if !(lo..=hi).contains(&n) {
        return Err(ExploreError::spec(format!(
            "`{key}` must be in [{lo}, {hi}], got {n}"
        )));
    }
    Ok(n)
}

/// Reads an f64 axis: defaults when absent, else a non-empty in-range
/// array deduplicated in first-seen order.
fn f64_axis(
    doc: &Json,
    key: &str,
    default: &[f64],
    lo: f64,
    hi: f64,
) -> Result<Vec<f64>, ExploreError> {
    let Some(v) = doc.get(key) else {
        return Ok(default.to_vec());
    };
    let items = v
        .as_arr()
        .ok_or_else(|| ExploreError::spec(format!("`{key}` must be an array of numbers")))?;
    if items.is_empty() {
        return Err(ExploreError::spec(format!("`{key}` must not be empty")));
    }
    if items.len() > MAX_AXIS_VALUES {
        return Err(ExploreError::spec(format!(
            "`{key}` carries {} values, limit is {MAX_AXIS_VALUES}",
            items.len()
        )));
    }
    let mut out: Vec<f64> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let n = item
            .as_f64()
            .ok_or_else(|| ExploreError::spec(format!("`{key}[{i}]` must be a finite number")))?;
        if !(lo..=hi).contains(&n) {
            return Err(ExploreError::spec(format!(
                "`{key}[{i}]` must be in [{lo}, {hi}], got {n}"
            )));
        }
        if !out.iter().any(|&seen| seen.to_bits() == n.to_bits()) {
            out.push(n);
        }
    }
    Ok(out)
}

/// Reads a u32 axis the same way (tech nodes).
fn u32_axis(doc: &Json, key: &str, default: &[u32]) -> Result<Vec<u32>, ExploreError> {
    let Some(v) = doc.get(key) else {
        return Ok(default.to_vec());
    };
    let items = v
        .as_arr()
        .ok_or_else(|| ExploreError::spec(format!("`{key}` must be an array of integers")))?;
    if items.is_empty() {
        return Err(ExploreError::spec(format!("`{key}` must not be empty")));
    }
    if items.len() > MAX_AXIS_VALUES {
        return Err(ExploreError::spec(format!(
            "`{key}` carries {} values, limit is {MAX_AXIS_VALUES}",
            items.len()
        )));
    }
    let mut out: Vec<u32> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let n = item
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .filter(|&n| (1..=1_000).contains(&n))
            .ok_or_else(|| {
                ExploreError::spec(format!("`{key}[{i}]` must be an integer in [1, 1000] (nm)"))
            })?;
        if !out.contains(&n) {
            out.push(n);
        }
    }
    Ok(out)
}

fn fuse_axis(doc: &Json) -> Result<Vec<PdnVariant>, ExploreError> {
    let Some(v) = doc.get("fuse") else {
        return Ok(vec![PdnVariant::Gated, PdnVariant::Bypassed]);
    };
    let items = v
        .as_arr()
        .ok_or_else(|| ExploreError::spec("`fuse` must be an array of strings"))?;
    if items.is_empty() {
        return Err(ExploreError::spec("`fuse` must not be empty"));
    }
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let variant = match item.as_str() {
            Some("gated") => PdnVariant::Gated,
            Some("bypassed") => PdnVariant::Bypassed,
            other => {
                return Err(ExploreError::spec(format!(
                    "`fuse` values must be \"gated\" or \"bypassed\", got {other:?}"
                )))
            }
        };
        if !out.contains(&variant) {
            out.push(variant);
        }
    }
    Ok(out)
}

fn guardband_axis(doc: &Json) -> Result<Vec<GuardbandPolicy>, ExploreError> {
    let Some(v) = doc.get("guardband") else {
        return Ok(vec![GuardbandPolicy::Full]);
    };
    let items = v
        .as_arr()
        .ok_or_else(|| ExploreError::spec("`guardband` must be an array of strings"))?;
    if items.is_empty() {
        return Err(ExploreError::spec("`guardband` must not be empty"));
    }
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let policy =
            GuardbandPolicy::parse(item.as_str().ok_or_else(|| {
                ExploreError::spec("`guardband` values must be strings".to_owned())
            })?)?;
        if !out.contains(&policy) {
            out.push(policy);
        }
    }
    Ok(out)
}

/// Reads the optional per-node scaling override rows.
fn scaling_overrides(doc: &Json) -> Result<Vec<NodeScaling>, ExploreError> {
    let Some(v) = doc.get("scaling") else {
        return Ok(Vec::new());
    };
    let items = v
        .as_arr()
        .ok_or_else(|| ExploreError::spec("`scaling` must be an array of objects"))?;
    if items.len() > MAX_AXIS_VALUES {
        return Err(ExploreError::spec(format!(
            "`scaling` carries {} rows, limit is {MAX_AXIS_VALUES}",
            items.len()
        )));
    }
    let mut out: Vec<NodeScaling> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let node_nm = item
            .get("node_nm")
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .filter(|&n| (1..=1_000).contains(&n))
            .ok_or_else(|| {
                ExploreError::spec(format!(
                    "`scaling[{i}].node_nm` must be an integer in [1, 1000]"
                ))
            })?;
        let perf = scaling_factor(item, i, "perf")?;
        let power = scaling_factor(item, i, "power")?;
        if out.iter().any(|n| n.node_nm == node_nm) {
            return Err(ExploreError::spec(format!(
                "`scaling` lists node {node_nm} nm twice"
            )));
        }
        out.push(NodeScaling {
            node_nm,
            perf,
            power,
        });
    }
    Ok(out)
}

fn scaling_factor(item: &Json, i: usize, key: &str) -> Result<f64, ExploreError> {
    item.get(key)
        .and_then(Json::as_f64)
        .filter(|n| (1e-3..=100.0).contains(n))
        .ok_or_else(|| {
            ExploreError::spec(format!(
                "`scaling[{i}].{key}` must be a number in [0.001, 100]"
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_object_yields_the_default_charm_axes() {
        let spec = ExploreSpec::from_text("{}").expect("defaults");
        assert_eq!(spec.name, "explore");
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.chip_area_mm2, 111.0);
        assert_eq!(spec.tech_nodes.len(), 6);
        assert_eq!(spec.tdp_w, vec![35.0, 45.0, 65.0, 91.0]);
        assert_eq!(spec.fuse, vec![PdnVariant::Gated, PdnVariant::Bypassed]);
        assert_eq!(spec.guardband, vec![GuardbandPolicy::Full]);
        assert!(!spec.transient);
        assert_eq!(spec.batch, DEFAULT_BATCH);
        // 6 nodes × 4 TDPs × 4 big × 4 small × 4 F × 2 fuse × 1 gb.
        assert_eq!(spec.point_count(), 6 * 4 * 4 * 4 * 4 * 2);
    }

    #[test]
    fn rejects_unknown_keys_and_bad_shapes() {
        for bad in [
            r#"{"typo_axis":[1]}"#,
            r#"[1,2]"#,
            r#"{"tdp_w":[]}"#,
            r#"{"tdp_w":"35"}"#,
            r#"{"tdp_w":[0.5]}"#,
            r#"{"big_perf":[60]}"#,
            r#"{"fraction_parallelism":[1.5]}"#,
            r#"{"fuse":["welded"]}"#,
            r#"{"guardband":["half"]}"#,
            r#"{"seed":-1}"#,
            r#"{"batch":4}"#,
            r#"{"name":""}"#,
            r#"{"transient":"yes"}"#,
            r#"{"tech_nodes":[7]}"#,
            r#"{"scaling":[{"node_nm":7,"perf":0.0,"power":1.0}],"tech_nodes":[7]}"#,
        ] {
            assert!(
                ExploreSpec::from_text(bad).is_err(),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn scaling_overrides_resolve_custom_nodes() {
        let spec = ExploreSpec::from_text(
            r#"{"tech_nodes":[45,7],"scaling":[{"node_nm":7,"perf":4.0,"power":0.1}]}"#,
        )
        .expect("override resolves node 7");
        let n7 = spec
            .tech_nodes
            .iter()
            .find(|n| n.node_nm == 7)
            .expect("node 7 resolved");
        assert_eq!(n7.perf, 4.0);
        assert_eq!(n7.power, 0.1);
        // Overrides also shadow the default table.
        let spec = ExploreSpec::from_text(
            r#"{"tech_nodes":[45],"scaling":[{"node_nm":45,"perf":2.0,"power":0.5}]}"#,
        )
        .expect("override shadows");
        assert_eq!(spec.tech_nodes.first().map(|n| n.perf), Some(2.0));
    }

    #[test]
    fn axes_deduplicate_in_first_seen_order() {
        let spec = ExploreSpec::from_text(r#"{"tdp_w":[91,35,91],"tech_nodes":[45,45,8]}"#)
            .expect("dedup is fine");
        assert_eq!(spec.tdp_w, vec![91.0, 35.0]);
        let nodes: Vec<u32> = spec.tech_nodes.iter().map(|n| n.node_nm).collect();
        assert_eq!(nodes, vec![45, 8]);
    }

    #[test]
    fn normalized_rendering_is_canonical() {
        // Same spec, different formatting / key order / explicit defaults.
        let a = ExploreSpec::from_text(r#"{"tdp_w":[35, 91.0],"seed":7}"#).expect("a");
        let b =
            ExploreSpec::from_text(r#"{"seed":7,"name":"explore","tdp_w":[35,91]}"#).expect("b");
        assert_eq!(
            a.normalized_json().render(),
            b.normalized_json().render(),
            "equal specs must render identically"
        );
        // Round-trips through from_json.
        let back = ExploreSpec::from_json(&a.normalized_json()).expect("round-trip");
        assert_eq!(back, a);
    }
}
