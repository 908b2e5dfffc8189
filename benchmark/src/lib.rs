//! `dg-benchmark`: one benchmark for the DarkGates serve tier and its
//! layers.
//!
//! The binary spawns the deployed topology (a `dg-router` over two
//! `dg-serve --cache-dir` shards), drives one of four seeded workloads
//! through it from at most two client connections, checks every answer
//! it can against the library, and prints the end-to-end metrics. The
//! traced mode instead times calls into each layer's public functions and
//! prints the per-layer metrics. See `README.md` next to this crate.

mod client;
pub mod clock;
pub mod drive;
pub mod fleet;
pub mod host;
pub mod layers;
pub mod ledger;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workload;
