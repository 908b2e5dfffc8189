//! # dg-cstates — idle power states (C-states)
//!
//! Implements the ACPI-style idle-power-state machinery of the DarkGates
//! paper (Sec. 2.1, Table 1): component C-states for threads/cores
//! (CC0–CC7) and graphics (RC0/RC6), the *package* C-state resolution logic
//! that maps a platform's component states onto C0–C10, per-state power
//! models (including the DarkGates un-gated-leakage adjustment that makes
//! package C7 >3× more expensive when power-gates are bypassed), entry/exit
//! latencies with break-even analysis, and residency accounting.
//!
//! ## Quick example
//!
//! ```
//! use dg_cstates::states::{CoreCstate, DisplayState, GraphicsCstate, MemoryState, PackageCstate};
//! use dg_cstates::resolve::{PlatformInputs, resolve};
//!
//! // All cores power-gated, graphics in RC6, DRAM in self-refresh, LLC
//! // flushed, desktop platform that supports up to C8 (the DarkGates
//! // extension):
//! let inputs = PlatformInputs {
//!     cores: vec![CoreCstate::Cc6; 4],
//!     graphics: GraphicsCstate::Rc6,
//!     display: DisplayState::On,
//!     memory: MemoryState::SelfRefresh,
//!     llc_flushed: true,
//!     deepest_allowed: PackageCstate::C8,
//! };
//! assert_eq!(resolve(&inputs), PackageCstate::C8);
//! ```

pub mod governor;
pub mod latency;
pub mod power;
pub mod residency;
pub mod resolve;
pub mod states;

pub use governor::{GovernorStats, IdleGovernor, IdlePredictor};
pub use latency::{break_even_time, LatencyTable};
pub use power::{GatingConfig, IdlePowerModel};
pub use residency::ResidencyTracker;
pub use resolve::{resolve, PlatformInputs};
pub use states::{CoreCstate, DisplayState, GraphicsCstate, MemoryState, PackageCstate};
