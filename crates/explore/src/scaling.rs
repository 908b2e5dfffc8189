//! Charm-style technology scaling: per-node piecewise perf/power factors
//! and the 45 nm perf→area / perf→power fitted polynomials.
//!
//! The reference formulation (Charm's asymmetric-CMP dark-silicon model)
//! characterises a core by its 45 nm reference performance `p` and maps
//! it to silicon through two fits:
//!
//! * area(45 nm)  = `0.0152·p² + 0.0265·p + 7.4393` mm²
//! * power(45 nm) = `0.0002·p³ + 0.0009·p² + 0.3859·p − 0.0301` W
//!
//! Scaling to a node then applies a piecewise table — performance and
//! power factors are empirical (they bend at 16→11→8 nm where Dennard
//! scaling dies), area scales geometrically as `(node/45)²`. Specs may
//! override the table per node; the defaults below are the published
//! Charm numbers.

use crate::error::ExploreError;

/// The 45 nm anchor node all fits are expressed against.
const REF_NODE_NM: u32 = 45;

/// Reference-performance domain of the fitted polynomials (Charm sweeps
/// `range(1, 50)`); specs outside it are rejected rather than
/// extrapolated.
pub const MIN_REF_PERF: f64 = 1.0;
/// Upper bound of the fitted reference-performance domain.
pub const MAX_REF_PERF: f64 = 49.0;

/// Per-node scaling factors relative to the 45 nm anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeScaling {
    /// Feature size in nanometres.
    pub node_nm: u32,
    /// Performance multiplier vs. 45 nm at iso-design.
    pub perf: f64,
    /// Power multiplier vs. 45 nm at iso-design.
    pub power: f64,
}

impl NodeScaling {
    /// Geometric area multiplier vs. 45 nm: `(node/45)²`.
    fn area(&self) -> f64 {
        let r = f64::from(self.node_nm) / f64::from(REF_NODE_NM);
        r * r
    }
}

/// The default piecewise table (Charm's published factors, 45→8 nm).
const DEFAULT_NODES: [NodeScaling; 6] = [
    NodeScaling {
        node_nm: 45,
        perf: 1.0,
        power: 1.0,
    },
    NodeScaling {
        node_nm: 32,
        perf: 1.09,
        power: 0.66,
    },
    NodeScaling {
        node_nm: 22,
        perf: 2.38,
        power: 0.54,
    },
    NodeScaling {
        node_nm: 16,
        perf: 3.21,
        power: 0.38,
    },
    NodeScaling {
        node_nm: 11,
        perf: 4.17,
        power: 0.25,
    },
    NodeScaling {
        node_nm: 8,
        perf: 3.85,
        power: 0.12,
    },
];

/// Looks a node up in the default table.
pub fn default_scaling(node_nm: u32) -> Option<NodeScaling> {
    DEFAULT_NODES.iter().copied().find(|n| n.node_nm == node_nm)
}

/// Die area (mm²) of a core with 45 nm reference performance `p`,
/// before node scaling.
fn perf_to_area_45nm(p: f64) -> f64 {
    0.0152 * p * p + 0.0265 * p + 7.4393
}

/// Power (W) of a core with 45 nm reference performance `p`, before node
/// scaling.
pub fn perf_to_power_45nm(p: f64) -> f64 {
    0.0002 * p * p * p + 0.0009 * p * p + 0.3859 * p - 0.0301
}

/// A core design point scaled to a node: achieved performance, die area,
/// and power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledCore {
    /// Achieved performance (45 nm reference units × node perf factor).
    pub perf: f64,
    /// Die area in mm² at the node.
    pub area_mm2: f64,
    /// Power in watts at the node.
    pub power_w: f64,
}

/// Scales a core of 45 nm reference performance `ref_perf` to `node`.
///
/// # Errors
///
/// Rejects reference performance outside the fitted domain
/// [`MIN_REF_PERF`]`..=`[`MAX_REF_PERF`].
pub fn scale_core(ref_perf: f64, node: NodeScaling) -> Result<ScaledCore, ExploreError> {
    if !(ref_perf.is_finite() && (MIN_REF_PERF..=MAX_REF_PERF).contains(&ref_perf)) {
        return Err(ExploreError::spec(format!(
            "reference perf {ref_perf} outside the fitted domain [{MIN_REF_PERF}, {MAX_REF_PERF}]"
        )));
    }
    Ok(ScaledCore {
        perf: ref_perf * node.perf,
        area_mm2: perf_to_area_45nm(ref_perf) * node.area(),
        power_w: perf_to_power_45nm(ref_perf) * node.power,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_table_covers_charm_nodes_in_order() {
        let nodes: Vec<u32> = DEFAULT_NODES.iter().map(|n| n.node_nm).collect();
        assert_eq!(nodes, vec![45, 32, 22, 16, 11, 8]);
        let anchor = default_scaling(45).expect("anchor present");
        assert_eq!(anchor.perf, 1.0);
        assert_eq!(anchor.power, 1.0);
        assert!((anchor.area() - 1.0).abs() < 1e-12);
        assert!(default_scaling(7).is_none());
    }

    #[test]
    fn polynomials_match_published_anchor_values() {
        // p = 1 → the fit constants dominate.
        assert!((perf_to_area_45nm(1.0) - 7.481).abs() < 1e-3);
        assert!((perf_to_power_45nm(1.0) - 0.3569).abs() < 1e-4);
        // Monotone over the fitted domain.
        let mut last_a = 0.0;
        let mut last_p = f64::MIN;
        for i in 1..=49 {
            let p = f64::from(i);
            let a = perf_to_area_45nm(p);
            let w = perf_to_power_45nm(p);
            assert!(a > last_a && w > last_p, "fits must be monotone at p={p}");
            last_a = a;
            last_p = w;
        }
    }

    #[test]
    fn scaling_shrinks_area_and_power_below_45nm() {
        let n22 = default_scaling(22).expect("22 nm in table");
        let c = scale_core(10.0, n22).expect("in domain");
        let ref_c = scale_core(10.0, default_scaling(45).expect("45 nm")).expect("in domain");
        assert!(c.perf > ref_c.perf);
        assert!(c.area_mm2 < ref_c.area_mm2);
        assert!(c.power_w < ref_c.power_w);
    }

    #[test]
    fn out_of_domain_perf_is_rejected() {
        let node = default_scaling(45).expect("anchor");
        assert!(scale_core(0.5, node).is_err());
        assert!(scale_core(50.0, node).is_err());
        assert!(scale_core(f64::NAN, node).is_err());
    }
}
