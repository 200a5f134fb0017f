use std::error::Error;
use std::fmt;

/// Errors produced by the fault-injection layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultError {
    /// A plan parameter was out of range (rates must be probabilities,
    /// magnitudes finite and non-negative, durations non-zero).
    InvalidParameter {
        /// Name of the offending field.
        name: &'static str,
        /// Its value.
        value: f64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidParameter { name, value } => {
                write!(f, "fault-plan parameter {name} has invalid value {value}")
            }
        }
    }
}

impl Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e = FaultError::InvalidParameter {
            name: "sensor_dropout_rate",
            value: 2.0,
        };
        assert!(e.to_string().contains("sensor_dropout_rate"));
    }
}
