//! # dg-power — processor power and thermal modeling
//!
//! The analytic power/thermal substrate underneath the DarkGates
//! reproduction: voltage/frequency curves with guardband arithmetic,
//! leakage and dynamic (Cdyn·V²·f) power models, a lumped RC thermal model
//! with Tjmax enforcement, quantized P-state tables, and the design limits
//! of Sec. 2.4 of the paper (TDP, Tjmax, Vmax/Vmin, power limits PL1–PL4).
//!
//! Electrical units are re-used from [`dg_pdn::units`].
//!
//! ## Quick example
//!
//! ```
//! use dg_power::vf::VfCurve;
//! use dg_power::units::{Hertz, Volts};
//!
//! let curve = VfCurve::skylake_core();
//! let v = curve.voltage_at(Hertz::from_ghz(4.0)).unwrap();
//! assert!(v > Volts::new(1.0) && v < Volts::new(1.3));
//! // Reducing the guardband raises the attainable 100 MHz bin at Vmax.
//! let bin = Hertz::from_mhz(100.0);
//! let fmax_tight = curve.with_guardband(Volts::from_mv(90.0))
//!     .max_frequency_at_quantized(Volts::new(1.35), bin).unwrap();
//! let fmax_loose = curve.with_guardband(Volts::from_mv(45.0))
//!     .max_frequency_at_quantized(Volts::new(1.35), bin).unwrap();
//! assert!(fmax_loose > fmax_tight);
//! ```

pub mod dynamic;
pub mod energy;
pub mod error;
pub mod leakage;
pub mod limits;
pub mod pstate;
pub mod thermal;
// dg-analyze: allow(unreached-mod, reason = "independent model: tests/full_system.rs checks pmu::reliability's EXTRA_TEMPERATURE_C against it")
pub mod thermal_network;
pub mod variation;
pub mod vf;

/// Re-export of the electrical unit newtypes used throughout this crate.
pub use dg_pdn::units;

pub use dynamic::CdynProfile;
pub use energy::EnergyCounter;
pub use error::PowerError;
pub use leakage::LeakageModel;
pub use limits::{DesignLimits, PowerLimits};
pub use pstate::{PState, PStateTable};
pub use thermal::ThermalModel;
pub use variation::{bin_population, BinningReport, DieSample, ProcessVariation};
pub use vf::VfCurve;
