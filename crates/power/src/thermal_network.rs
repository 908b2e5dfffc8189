//! Multi-node thermal network.
//!
//! The single-RC model of [`crate::thermal`] captures package-level
//! throttling; this module adds spatial structure — per-core, graphics and
//! uncore nodes with lateral coupling — so neighbor-heating effects can be
//! evaluated. The paper's reliability discussion (Sec. 4.2) attributes
//! "additional ~5 °C" to the un-gated idle cores leaking next to the
//! active core; the calibrated Skylake floorplan reproduces that number.
//!
//! The steady state solves the conductance system
//! `A·(T − T_amb) = P` with `A[i][i] = G_amb,i + Σ_j G_ij` and
//! `A[i][j] = −G_ij`; transients use sub-stepped forward Euler.

use crate::error::PowerError;
use dg_pdn::units::{Celsius, Seconds, Watts};

/// A lumped multi-node thermal model.
#[derive(Debug, Clone, PartialEq)]
// dg-analyze: allow(unreached-pub, reason = "independent model: tests/full_system.rs checks pmu::reliability's EXTRA_TEMPERATURE_C against it")
pub struct ThermalNetwork {
    names: Vec<String>,
    /// Symmetric coupling conductances `G[i][j]` in W/°C (`i != j`).
    coupling: Vec<Vec<f64>>,
    /// Node-to-ambient conductances in W/°C.
    to_ambient: Vec<f64>,
    /// Node heat capacities in J/°C.
    capacity: Vec<f64>,
    /// Ambient temperature.
    pub t_ambient: Celsius,
}

impl ThermalNetwork {
    /// Creates a network.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if dimensions disagree, a
    /// conductance is negative, a capacity or ambient conductance is
    /// non-positive, or the coupling matrix is asymmetric.
    pub fn new(
        names: Vec<String>,
        coupling: Vec<Vec<f64>>,
        to_ambient: Vec<f64>,
        capacity: Vec<f64>,
        t_ambient: Celsius,
    ) -> Result<Self, PowerError> {
        let n = names.len();
        if n == 0 || coupling.len() != n || to_ambient.len() != n || capacity.len() != n {
            return Err(PowerError::InvalidParameter {
                what: "thermal network dimensions",
                value: n as f64,
            });
        }
        for (i, row) in coupling.iter().enumerate() {
            if row.len() != n {
                return Err(PowerError::InvalidParameter {
                    what: "coupling matrix shape",
                    value: row.len() as f64,
                });
            }
            for (j, &g) in row.iter().enumerate() {
                if g < 0.0 || !g.is_finite() {
                    return Err(PowerError::InvalidParameter {
                        what: "coupling conductance",
                        value: g,
                    });
                }
                if (g - coupling[j][i]).abs() > 1e-12 {
                    return Err(PowerError::InvalidParameter {
                        what: "coupling symmetry",
                        value: g,
                    });
                }
            }
        }
        for &g in &to_ambient {
            if !(g > 0.0 && g.is_finite()) {
                return Err(PowerError::InvalidParameter {
                    what: "ambient conductance",
                    value: g,
                });
            }
        }
        for &c in &capacity {
            if !(c > 0.0 && c.is_finite()) {
                return Err(PowerError::InvalidParameter {
                    what: "heat capacity",
                    value: c,
                });
            }
        }
        Ok(ThermalNetwork {
            names,
            coupling,
            to_ambient,
            capacity,
            t_ambient,
        })
    }

    /// The calibrated Skylake-class floorplan: four cores in a row, the
    /// graphics engine beside core 3, the uncore spanning the die. The
    /// node-to-ambient conductances are scaled so that dissipating the
    /// full TDP brings the die to ~93 °C — a weaker cooler for a lower
    /// TDP, exactly like [`crate::thermal::ThermalModel::for_tdp`].
    ///
    /// # Panics
    ///
    /// Panics if `tdp` is not strictly positive.
    // dg-analyze: allow(unreached-pub, reason = "independent model: tests/full_system.rs checks pmu::reliability's EXTRA_TEMPERATURE_C against it")
    pub fn skylake_floorplan_for_tdp(tdp: Watts) -> Self {
        assert!(
            tdp.value() > 0.0 && tdp.is_finite(),
            "TDP must be positive, got {tdp}"
        );
        let names: Vec<String> = ["core0", "core1", "core2", "core3", "gfx", "uncore"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let n = names.len();
        let mut coupling = vec![vec![0.0; n]; n];
        let mut couple = |a: usize, b: usize, g: f64| {
            coupling[a][b] = g;
            coupling[b][a] = g;
        };
        // Adjacent cores.
        couple(0, 1, 0.55);
        couple(1, 2, 0.55);
        couple(2, 3, 0.55);
        // Graphics sits next to core 3; uncore touches everything.
        couple(3, 4, 0.45);
        for i in 0..5 {
            couple(i, 5, 0.35);
        }
        // Base distribution sums to 1.61 W/°C; rescale so the total
        // matches the TDP cooler (full TDP -> 93 °C at 25 °C ambient).
        let base = [0.24, 0.24, 0.24, 0.24, 0.35, 0.30];
        let base_sum: f64 = base.iter().sum();
        let scale = (tdp.value() / 68.0) / base_sum;
        let to_ambient: Vec<f64> = base.iter().map(|g| g * scale).collect();
        let capacity = vec![18.0, 18.0, 18.0, 18.0, 30.0, 25.0];
        ThermalNetwork::new(names, coupling, to_ambient, capacity, Celsius::new(25.0))
            // dg-analyze: allow(no-panic-in-lib, reason = "fixed floorplan constants scaled by an asserted-positive finite TDP always validate; a test sweeps TDP levels")
            .expect("constants are valid")
    }

    /// Node names, in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if the network has no nodes (impossible after construction).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Steady-state temperatures for per-node power `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p.len()` differs from the node count.
    pub fn steady_state(&self, p: &[Watts]) -> Vec<Celsius> {
        assert_eq!(p.len(), self.len(), "power vector length mismatch");
        let n = self.len();
        // Assemble A and rhs.
        let mut a = vec![vec![0.0; n]; n];
        let mut rhs: Vec<f64> = p.iter().map(|w| w.value()).collect();
        for (i, row) in a.iter_mut().enumerate() {
            let mut diag = self.to_ambient[i];
            for (j, cell) in row.iter_mut().enumerate() {
                if i != j {
                    diag += self.coupling[i][j];
                    *cell = -self.coupling[i][j];
                }
            }
            row[i] = diag;
        }
        gaussian_solve(&mut a, &mut rhs);
        rhs.into_iter()
            .map(|dt| Celsius::new(self.t_ambient.value() + dt))
            .collect()
    }

    /// Advances node temperatures by `dt` under power `p` (sub-stepped
    /// forward Euler; unconditionally stable for the calibrated constants
    /// at sub-second steps).
    ///
    /// # Panics
    ///
    /// Panics if vector lengths disagree.
    pub fn step(&self, temps: &mut [Celsius], p: &[Watts], dt: Seconds) {
        assert_eq!(temps.len(), self.len(), "temperature vector mismatch");
        assert_eq!(p.len(), self.len(), "power vector mismatch");
        let n = self.len();
        // Stability: substep below 0.25 × min(C/Gmax).
        let mut g_max: f64 = 0.0;
        for i in 0..n {
            let total = self.to_ambient[i] + self.coupling[i].iter().sum::<f64>();
            g_max = g_max.max(total / self.capacity[i]);
        }
        let max_sub = 0.25 / g_max;
        let subs = (dt.value() / max_sub).ceil().max(1.0) as usize;
        let h = dt.value() / subs as f64;
        for _ in 0..subs {
            let snapshot: Vec<f64> = temps.iter().map(|t| t.value()).collect();
            for i in 0..n {
                let mut q = p[i].value();
                q -= self.to_ambient[i] * (snapshot[i] - self.t_ambient.value());
                for j in 0..n {
                    if i != j {
                        q -= self.coupling[i][j] * (snapshot[i] - snapshot[j]);
                    }
                }
                temps[i] = Celsius::new(snapshot[i] + h * q / self.capacity[i]);
            }
        }
    }

    /// The hottest node's temperature and index. Returns node 0 at ambient
    /// for an empty slice (networks always have nodes, so this cannot
    /// happen with a matching temperature vector).
    // dg-analyze: allow(unreached-pub, reason = "independent model: tests/full_system.rs checks pmu::reliability's EXTRA_TEMPERATURE_C against it")
    pub fn hottest(&self, temps: &[Celsius]) -> (usize, Celsius) {
        temps
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.value().total_cmp(&b.1.value()))
            .unwrap_or((0, self.t_ambient))
    }
}

/// In-place Gaussian elimination with partial pivoting; overwrites `rhs`
/// with the solution.
fn gaussian_solve(a: &mut [Vec<f64>], rhs: &mut [f64]) {
    let n = rhs.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        rhs.swap(col, pivot);
        let diag = a[col][col];
        for row in (col + 1)..n {
            let factor = a[row][col] / diag;
            if factor == 0.0 {
                continue;
            }
            let pivot_row = a[col].clone();
            for (k, pv) in pivot_row.iter().enumerate().skip(col) {
                a[row][k] -= factor * pv;
            }
            rhs[row] -= factor * rhs[col];
        }
    }
    for col in (0..n).rev() {
        let mut acc = rhs[col];
        for k in (col + 1)..n {
            acc -= a[col][k] * rhs[k];
        }
        rhs[col] = acc / a[col][col];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> ThermalNetwork {
        ThermalNetwork::skylake_floorplan_for_tdp(Watts::new(91.0))
    }

    fn watts(v: [f64; 6]) -> Vec<Watts> {
        v.into_iter().map(Watts::new).collect()
    }

    #[test]
    fn zero_power_is_ambient() {
        let n = net();
        for t in n.steady_state(&watts([0.0; 6])) {
            assert!((t.value() - 25.0).abs() < 1e-9);
        }
    }

    #[test]
    fn energy_balance_at_steady_state() {
        // Total heat into ambient equals total power.
        let n = net();
        let p = watts([12.0, 0.5, 0.5, 0.5, 8.0, 3.0]);
        let t = n.steady_state(&p);
        let outflow: f64 = (0..n.len())
            .map(|i| n.to_ambient[i] * (t[i].value() - 25.0))
            .sum();
        let inflow: f64 = p.iter().map(|w| w.value()).sum();
        assert!((outflow - inflow).abs() < 1e-9 * inflow);
    }

    #[test]
    fn heat_spreads_to_neighbors() {
        let n = net();
        let t = n.steady_state(&watts([15.0, 0.0, 0.0, 0.0, 0.0, 0.0]));
        // core0 hottest; temperature decays along the row.
        assert!(t[0] > t[1]);
        assert!(t[1] > t[2]);
        assert!(t[2] > t[3]);
        assert!(t[3].value() > 25.0);
    }

    #[test]
    fn paper_neighbor_heating_claim() {
        // Sec. 4.2: un-gated idle cores (~1.4 W each) plus the warmer die
        // raise the active core's junction by roughly 5 °C on a mid-TDP
        // cooling solution.
        let n = ThermalNetwork::skylake_floorplan_for_tdp(Watts::new(45.0));
        let active = 14.0;
        let gated = n.steady_state(&watts([active, 0.0, 0.0, 0.0, 0.0, 3.0]));
        let bypassed = n.steady_state(&watts([active, 1.4, 1.4, 1.4, 0.0, 3.0]));
        let (hot_idx, t_gated) = n.hottest(&gated);
        let t_byp = bypassed[hot_idx];
        let delta = t_byp.value() - t_gated.value();
        assert!(
            (3.0..8.0).contains(&delta),
            "neighbor heating {delta} °C outside the ~5 °C band"
        );
        // The strong 91 W cooler sinks the leak more effectively.
        let big = ThermalNetwork::skylake_floorplan_for_tdp(Watts::new(91.0));
        let g91 = big.steady_state(&watts([active, 0.0, 0.0, 0.0, 0.0, 3.0]));
        let b91 = big.steady_state(&watts([active, 1.4, 1.4, 1.4, 0.0, 3.0]));
        let delta91 = b91[hot_idx].value() - g91[hot_idx].value();
        assert!(
            delta91 < delta,
            "91 W delta {delta91} vs 45 W delta {delta}"
        );
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let n = net();
        let p = watts([10.0, 10.0, 10.0, 10.0, 5.0, 3.0]);
        let target = n.steady_state(&p);
        let mut t = vec![Celsius::new(25.0); 6];
        for _ in 0..5000 {
            n.step(&mut t, &p, Seconds::new(0.5));
        }
        for (a, b) in t.iter().zip(&target) {
            assert!((a.value() - b.value()).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn transient_monotone_warmup() {
        let n = net();
        let p = watts([12.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let mut t = vec![Celsius::new(25.0); 6];
        let mut prev = t[0];
        for _ in 0..50 {
            n.step(&mut t, &p, Seconds::new(1.0));
            assert!(t[0] >= prev);
            prev = t[0];
        }
    }

    #[test]
    fn index_lookup_and_names() {
        let n = net();
        assert_eq!(n.names()[4], "gfx");
        assert_eq!(n.len(), 6);
        assert!(!n.is_empty());
        assert_eq!(n.names()[5], "uncore");
    }

    #[test]
    fn validation_rejects_asymmetry_and_bad_values() {
        let names = vec!["a".to_string(), "b".to_string()];
        let asym = vec![vec![0.0, 1.0], vec![0.5, 0.0]];
        assert!(ThermalNetwork::new(
            names.clone(),
            asym,
            vec![0.1, 0.1],
            vec![1.0, 1.0],
            Celsius::new(25.0)
        )
        .is_err());
        let ok_coupling = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!(ThermalNetwork::new(
            names.clone(),
            ok_coupling.clone(),
            vec![0.0, 0.1],
            vec![1.0, 1.0],
            Celsius::new(25.0)
        )
        .is_err());
        assert!(ThermalNetwork::new(
            names,
            ok_coupling,
            vec![0.1, 0.1],
            vec![1.0, 0.0],
            Celsius::new(25.0)
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "power vector length mismatch")]
    fn wrong_power_length_panics() {
        net().steady_state(&watts([0.0; 6])[..3]);
    }
}
