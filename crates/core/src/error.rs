use std::error::Error;
use std::fmt;

use hp_linalg::LinalgError;
use hp_thermal::ThermalError;

/// Errors produced by the HotPotato analytics and scheduler.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HotPotatoError {
    /// An epoch power sequence was malformed.
    InvalidSequence(&'static str),
    /// The rings of an Algorithm-2 probe, or an assignment of threads to
    /// them, were malformed: a core outside the chip or in two rings, a
    /// thread on a ring that does not exist, more threads than a ring
    /// has slots.
    InvalidAssignment(&'static str),
    /// A parameter was non-physical.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Its value.
        value: f64,
    },
    /// An underlying thermal-model operation failed.
    Thermal(ThermalError),
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
}

impl fmt::Display for HotPotatoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HotPotatoError::InvalidSequence(what) => {
                write!(f, "invalid epoch power sequence: {what}")
            }
            HotPotatoError::InvalidAssignment(what) => {
                write!(f, "invalid ring assignment: {what}")
            }
            HotPotatoError::InvalidParameter { name, value } => {
                write!(
                    f,
                    "hotpotato parameter {name} has non-physical value {value}"
                )
            }
            HotPotatoError::Thermal(e) => write!(f, "thermal model failure: {e}"),
            HotPotatoError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for HotPotatoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HotPotatoError::Thermal(e) => Some(e),
            HotPotatoError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ThermalError> for HotPotatoError {
    fn from(e: ThermalError) -> Self {
        HotPotatoError::Thermal(e)
    }
}

impl From<LinalgError> for HotPotatoError {
    fn from(e: LinalgError) -> Self {
        HotPotatoError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = HotPotatoError::InvalidSequence("empty");
        assert!(e.to_string().contains("empty"));
        assert!(e.source().is_none());
        let e = HotPotatoError::Linalg(LinalgError::Singular { pivot: 0 });
        assert!(e.source().is_some());
    }
}
