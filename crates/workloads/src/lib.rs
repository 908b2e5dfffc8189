//! # dg-workloads — workload models for client-processor evaluation
//!
//! The three workload classes the DarkGates paper evaluates (Sec. 6):
//!
//! * [`spec`] — a SPEC CPU2006-style suite: all 29 benchmarks by name, each
//!   with a calibrated *frequency-scalability* factor (how much of its
//!   runtime scales with core clock vs. being pinned by memory), in `base`
//!   (single-core) and `rate` (all-cores) modes.
//! * [`graphics`] — 3DMark-style graphics workloads: graphics-engine-bound,
//!   one CPU core running the driver at the efficient frequency Pn.
//! * [`energy`] — energy-efficiency workloads: ENERGY STAR mode-weighted
//!   traces and the Intel Ready Mode Technology (RMT) ~99 %-idle trace.
//!
//! ## Quick example
//!
//! ```
//! use dg_workloads::spec::{suite, SpecMode};
//!
//! let all = suite();
//! assert_eq!(all.len(), 29);
//! let namd = all.iter().find(|b| b.name == "444.namd").unwrap();
//! // Highly scalable: a 10% frequency gain yields nearly 9% speedup.
//! let gain = namd.speedup(4.62e9, 4.2e9) - 1.0;
//! assert!(gain > 0.07);
//! assert_eq!(SpecMode::Base.active_cores(4), 1);
//! ```

pub mod energy;
pub mod graphics;
pub mod spec;
pub mod trace;

pub use energy::{
    energy_star, ready_mode, video_conferencing, web_browsing, EnergyWorkload, Phase, PhaseKind,
};
pub use graphics::{three_dmark_suite, GraphicsWorkload};
pub use spec::{suite, SpecBenchmark, SpecMode, SpecSuite};
pub use trace::{bursty, rmt_trace, video_playback, PhaseTrace, TracePhase, TracePhaseKind};
