//! Error types for the PDN crate.

use std::error::Error;
use std::fmt;

/// Errors produced when constructing or simulating a PDN.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PdnError {
    /// A component value was non-positive or non-finite.
    InvalidComponent {
        /// Which component was rejected (e.g. `"series resistance"`).
        what: &'static str,
        /// The offending value in base SI units.
        value: f64,
    },
    /// The ladder has no stages, so there is nothing to analyze.
    EmptyLadder,
    /// The ladder's chain model is deeper than the transient kernel
    /// integrates ([`crate::transient::MAX_NODES`]).
    TooManyNodes {
        /// Chain-model nodes the ladder compiles to.
        nodes: usize,
        /// The supported maximum.
        max: usize,
    },
    /// A frequency sweep was requested with an empty or inverted range.
    InvalidSweep {
        /// Start frequency in Hz.
        start_hz: f64,
        /// Stop frequency in Hz.
        stop_hz: f64,
    },
    /// The transient simulation was configured with a non-positive time step
    /// or duration.
    InvalidTimeStep {
        /// The offending time step in seconds.
        dt: f64,
    },
    /// A load-line table was built with unsorted or duplicate virus levels.
    UnsortedVirusLevels,
    /// A package voltage domain was looked up by a name that does not exist.
    UnknownDomain {
        /// The requested domain name.
        name: String,
    },
}

impl fmt::Display for PdnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdnError::InvalidComponent { what, value } => {
                write!(f, "invalid {what}: {value} (must be positive and finite)")
            }
            PdnError::EmptyLadder => write!(f, "PDN ladder has no stages"),
            PdnError::TooManyNodes { nodes, max } => {
                write!(f, "PDN ladder has {nodes} chain nodes (at most {max})")
            }
            PdnError::InvalidSweep { start_hz, stop_hz } => {
                write!(f, "invalid frequency sweep: {start_hz} Hz .. {stop_hz} Hz")
            }
            PdnError::InvalidTimeStep { dt } => {
                write!(f, "invalid transient time step: {dt} s")
            }
            PdnError::UnsortedVirusLevels => {
                write!(f, "virus levels must be strictly increasing in current")
            }
            PdnError::UnknownDomain { name } => {
                write!(f, "no voltage domain named `{name}`")
            }
        }
    }
}

impl Error for PdnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = PdnError::InvalidComponent {
            what: "series resistance",
            value: -1.0,
        };
        assert!(e.to_string().contains("series resistance"));
        assert!(PdnError::EmptyLadder.to_string().contains("no stages"));
        assert!(PdnError::TooManyNodes { nodes: 9, max: 8 }
            .to_string()
            .contains("at most 8"));
        assert!(PdnError::InvalidSweep {
            start_hz: 10.0,
            stop_hz: 1.0
        }
        .to_string()
        .contains("sweep"));
        assert!(PdnError::InvalidTimeStep { dt: 0.0 }
            .to_string()
            .contains("time step"));
        assert!(PdnError::UnsortedVirusLevels
            .to_string()
            .contains("increasing"));
        assert!(PdnError::UnknownDomain {
            name: "VC9G".to_owned()
        }
        .to_string()
        .contains("VC9G"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<PdnError>();
    }
}
