//! # dg-pmu — power-management firmware (Pcode) model
//!
//! The algorithms the DarkGates paper extends in the Skylake power
//! management firmware (Sec. 4.2):
//!
//! * [`modes`] — the silicon-fuse-selected operating mode: *bypass* (gates
//!   shorted at the package, better V/F) or *normal* (gates active, lower
//!   idle leakage).
//! * [`guardband`] — the adaptive voltage guardband manager: droop guardband
//!   derived from the PDN impedance profile, plus the lifetime-reliability
//!   adder DarkGates requires.
//! * [`reliability`] — the stress model behind that adder (≈5 mV at 91 W,
//!   ≈20 mV at 35 W, ~5 °C extra junction temperature).
//! * [`dvfs`] — the frequency solver: highest quantized P-state satisfying
//!   the voltage ceiling, the power budget, and the thermal limit.
//! * [`pbm`] — power budget management: splitting the compute budget between
//!   CPU cores and the graphics engine, charging the un-gated idle-core
//!   leakage to the budget in bypass mode, and the PL1/PL2 turbo filter.
//!
//! ## Quick example
//!
//! ```
//! use dg_pmu::modes::OperatingMode;
//! use dg_pmu::guardband::GuardbandManager;
//! use dg_pdn::skylake::{PdnVariant, SkylakePdn};
//! use dg_pdn::units::Watts;
//!
//! let mgr = GuardbandManager::for_variant(PdnVariant::Bypassed);
//! let gb_byp = mgr.total_guardband(Watts::new(91.0));
//! let gb_gated = GuardbandManager::for_variant(PdnVariant::Gated)
//!     .total_guardband(Watts::new(91.0));
//! // Bypassing roughly halves the droop guardband even after paying the
//! // reliability adder.
//! assert!(gb_byp.value() < 0.7 * gb_gated.value());
//! # let _ = (SkylakePdn::build(PdnVariant::Gated), OperatingMode::Bypass);
//! ```

pub mod dvfs;
pub mod error;
pub mod guardband;
pub mod license;
pub mod modes;
pub mod pbm;
pub mod pcode;
pub mod reliability;
pub mod svid;

pub use dvfs::{DvfsRequest, DvfsSolver, OperatingPoint};
pub use error::PmuError;
pub use guardband::GuardbandManager;
pub use license::{License, LicenseManager};
pub use modes::{Fuse, OperatingMode};
pub use pbm::{BudgetSplit, PowerBudgetManager, TurboController};
pub use pcode::{Pcode, PcodeConfig, PcodeEvent, Telemetry};
pub use reliability::ReliabilityModel;
pub use svid::{SvidBus, SvidCommand, VidCode};
