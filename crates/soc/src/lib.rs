//! # dg-soc — client-SoC simulator
//!
//! Ties the substrates together into runnable systems:
//!
//! * [`products`] — the product catalog of the paper's Table 2
//!   (Skylake-S i7-6700K-like desktop with DarkGates, Skylake-H
//!   i7-6920HQ-like mobile baseline) plus the Broadwell predecessor used for
//!   the motivational Fig. 3 experiment. Each product bundles its V/F
//!   curves, guardbands, fused turbo ceilings, thermal solution, and
//!   C-state capabilities.
//! * [`sim`] — a time-stepped simulation engine: PL1/PL2 turbo filter,
//!   transient junction temperature, reactive throttling, per-step P-state
//!   selection.
//! * [`run`] — workload runners: SPEC CPU (base/rate), 3DMark graphics, and
//!   energy-efficiency residency workloads, each producing a structured
//!   report.
//!
//! ## Quick example
//!
//! ```
//! use dg_soc::products::Product;
//! use dg_soc::run::run_spec;
//! use dg_power::units::Watts;
//! use dg_workloads::spec::{by_name, SpecMode};
//!
//! let dg = Product::skylake_s(Watts::new(91.0));
//! let base = Product::skylake_h(Watts::new(91.0));
//! let namd = by_name("444.namd").unwrap();
//! let perf_dg = run_spec(&dg, &namd, SpecMode::Base).perf;
//! let perf_base = run_spec(&base, &namd, SpecMode::Base).perf;
//! // DarkGates runs the scalable benchmark measurably faster.
//! assert!(perf_dg / perf_base > 1.05);
//! ```

pub mod products;
pub mod run;
pub mod sim;
pub mod trace_run;

pub use products::Product;
pub use run::{run_energy, run_graphics, run_spec, EnergyReport, GraphicsReport, SpecReport};
pub use sim::{SimConfig, Simulator, StepTrace};
pub use trace_run::{run_trace, TraceReport};
