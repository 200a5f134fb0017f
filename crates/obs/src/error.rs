use std::fmt;

/// Errors of the observability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsError {
    /// A document is not well-formed JSON.
    Parse {
        /// What went wrong, with enough context to locate the offender.
        message: String,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Parse { message } => write!(f, "malformed JSON: {message}"),
        }
    }
}

impl std::error::Error for ObsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ObsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        let e = ObsError::Parse {
            message: "unexpected `]`".into(),
        };
        assert!(e.to_string().contains("unexpected `]`"));
    }
}
