//! # dg-pdn — power delivery network simulation
//!
//! A lumped-element power-delivery-network (PDN) simulator in the spirit of
//! the in-house Intel tool used by the DarkGates paper (HPCA 2022, Sec. 6):
//! the PDN of a client processor is modeled as a cascade of series R/L
//! branches and shunt decoupling-capacitor banks from the motherboard voltage
//! regulator (VR) down to the die, optionally passing through an on-die
//! power-gate stage.
//!
//! The crate provides:
//!
//! * strongly-typed electrical [`units`],
//! * lumped [`elements`] (resistors, inductors, capacitor banks with
//!   ESR/ESL),
//! * a PDN [`ladder`] topology with an optional power-gate stage,
//! * frequency-domain [`impedance`] analysis (the impedance–frequency
//!   profile of the paper's Fig. 4),
//! * time-domain [`transient`] simulation of load-step voltage droops,
//! * the [`loadline`] (adaptive voltage positioning) model with multi-level
//!   power-virus guardbands (paper Fig. 2),
//! * a motherboard [`vr`] model with TDC/EDC current limits, and
//! * calibrated [`skylake`] topologies for the gated (Skylake-H-like) and
//!   bypassed (Skylake-S-like, DarkGates) configurations.
//!
//! ## Quick example
//!
//! ```
//! use dg_pdn::skylake::{SkylakePdn, PdnVariant};
//! use dg_pdn::impedance::ImpedanceAnalyzer;
//!
//! let gated = SkylakePdn::build(PdnVariant::Gated);
//! let bypassed = SkylakePdn::build(PdnVariant::Bypassed);
//! let analyzer = ImpedanceAnalyzer::default();
//! let zg = analyzer.profile(&gated.ladder);
//! let zb = analyzer.profile(&bypassed.ladder);
//! // The gated topology has roughly twice the impedance of the bypassed one.
//! assert!(zg.peak().1.value() > 1.5 * zb.peak().1.value());
//! ```

pub mod batch;
pub mod cache;
pub mod complex;
pub mod didt;
pub mod diskcache;
pub mod elements;
pub mod error;
pub mod impedance;
pub mod ladder;
pub mod loadline;
pub mod package;
pub mod simd;
pub mod skylake;
pub mod transient;
pub mod units;
pub mod vr;

pub use batch::{with_thread_workspace, BatchWorkspace};
pub use didt::{droop_sweep, droop_sweep_with_progress};
pub use error::PdnError;
pub use impedance::{ImpedanceAnalyzer, ImpedanceProfile};
pub use ladder::{Ladder, LadderBuilder, Stage};
pub use loadline::{LoadLine, VirusLevel, VirusLevelTable};
pub use package::{PackageLayout, VoltageDomain};
pub use simd::{KernelWidth, Lanes};
pub use transient::{LadderCoeffs, LoadStep, TransientResult, TransientSim};
pub use units::{Amps, Celsius, Farads, Henries, Hertz, Ohms, Seconds, Volts, Watts};
pub use vr::{VoltageRegulator, VrLimits};
