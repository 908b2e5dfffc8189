//! The benchmark's only wall-clock read.
//!
//! The repository bans `Instant::now` (clippy.toml, dg-analyze
//! `determinism-hygiene`) because wall time must never reach a simulated
//! result. A benchmark measures elapsed time by definition, and nothing it
//! times feeds back into a request body or an oracle, so every timestamp
//! comes from here.

use std::time::Instant;

/// The current monotonic instant: the crate's one sanctioned wall-clock
/// read (see the module documentation).
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// Microseconds elapsed since `start`.
pub fn us_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Microseconds from `from` to `to` (0 when `to` is earlier).
pub fn us_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_micros()).unwrap_or(u64::MAX)
}

/// Nanoseconds from `from` to `to` (0 when `to` is earlier).
pub fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}
