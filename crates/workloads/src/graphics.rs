//! 3DMark-style graphics workloads.
//!
//! The paper's graphics evaluation (Sec. 7.2): performance is highly
//! scalable with the graphics-engine frequency; the PBM allocates 80–90 %
//! of the compute power budget to the graphics engine while one CPU core
//! runs the driver at the most efficient frequency Pn and the other cores
//! idle (power-gated on the baseline, leaking under DarkGates).

use dg_power::dynamic::CdynProfile;

/// A graphics benchmark scene.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphicsWorkload {
    /// Scene name.
    pub name: &'static str,
    /// FPS scalability with graphics frequency (near 1 for GPU-bound
    /// scenes).
    pub gfx_scalability: f64,
    /// Fraction of the graphics engine's peak dynamic capacitance this
    /// scene exercises.
    pub gfx_intensity: f64,
    /// Number of CPU cores kept busy by the driver/game loop.
    pub driver_cores: usize,
}

impl GraphicsWorkload {
    /// Relative FPS at graphics frequency `f_hz` versus `f_ref_hz`.
    ///
    /// # Panics
    ///
    /// Panics if either frequency is not strictly positive.
    pub fn fps_speedup(&self, f_hz: f64, f_ref_hz: f64) -> f64 {
        assert!(f_hz > 0.0 && f_ref_hz > 0.0, "frequencies must be positive");
        let s = self.gfx_scalability;
        1.0 / (s * (f_ref_hz / f_hz) + (1.0 - s))
    }

    /// Graphics-engine dynamic capacitance exercised by this scene.
    pub fn gfx_cdyn(&self) -> CdynProfile {
        CdynProfile::graphics_full().scaled(self.gfx_intensity)
    }

    /// CPU-side dynamic capacitance of the driver core(s): light, mostly
    /// submission work.
    pub fn driver_cdyn(&self) -> CdynProfile {
        // The constant is valid, so the fallback is unreachable.
        CdynProfile::from_nf(1.1).unwrap_or_else(|_| CdynProfile::core_typical())
    }
}

/// The 3DMark-style scene list used in the evaluation.
pub fn three_dmark_suite() -> Vec<GraphicsWorkload> {
    vec![
        GraphicsWorkload {
            name: "3DMark Ice Storm",
            gfx_scalability: 0.90,
            gfx_intensity: 0.80,
            driver_cores: 1,
        },
        GraphicsWorkload {
            name: "3DMark Cloud Gate",
            gfx_scalability: 0.93,
            gfx_intensity: 0.90,
            driver_cores: 1,
        },
        GraphicsWorkload {
            name: "3DMark Sky Diver",
            gfx_scalability: 0.95,
            gfx_intensity: 0.95,
            driver_cores: 1,
        },
        GraphicsWorkload {
            name: "3DMark Fire Strike",
            gfx_scalability: 0.97,
            gfx_intensity: 1.00,
            driver_cores: 1,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_power::units::{Hertz, Volts};

    /// `C_dyn` in nF: the dynamic power in W at 1 V and 1 GHz.
    fn nf(c: CdynProfile) -> f64 {
        c.power(Volts::new(1.0), Hertz::from_ghz(1.0)).value()
    }

    #[test]
    fn suite_is_nonempty_with_unique_names() {
        let s = three_dmark_suite();
        assert!(s.len() >= 4);
        let mut names: Vec<_> = s.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), s.len());
    }

    #[test]
    fn scenes_are_gpu_bound() {
        for w in three_dmark_suite() {
            assert!(
                w.gfx_scalability >= 0.9,
                "{}: {}",
                w.name,
                w.gfx_scalability
            );
            assert_eq!(w.driver_cores, 1);
        }
    }

    #[test]
    fn fps_speedup_tracks_gfx_frequency() {
        let w = &three_dmark_suite()[3]; // Fire Strike, s = 0.97
        let up = w.fps_speedup(1.15e9, 1.0e9);
        assert!(up > 1.12, "speedup {up}");
        assert!((w.fps_speedup(1.0e9, 1.0e9) - 1.0).abs() < 1e-12);
        // Lower frequency means fewer FPS.
        assert!(w.fps_speedup(0.9e9, 1.0e9) < 1.0);
    }

    #[test]
    fn gfx_cdyn_scales_with_intensity() {
        let s = three_dmark_suite();
        let light = s[0].gfx_cdyn();
        let heavy = s[3].gfx_cdyn();
        assert!(nf(heavy) > nf(light));
        // Fire Strike exercises the full graphics Cdyn.
        assert!((nf(heavy) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn driver_core_is_light() {
        let w = &three_dmark_suite()[0];
        assert!(nf(w.driver_cdyn()) < 1.5);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_frequency_panics() {
        three_dmark_suite()[0].fps_speedup(1.0e9, 0.0);
    }
}
