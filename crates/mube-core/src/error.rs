//! Error types for the `µBE` core.

use crate::ids::SourceId;

/// Errors raised by the `µBE` core library.
#[derive(Debug, Clone, PartialEq)]
pub enum MubeError {
    /// A universe must contain at least one source.
    EmptyUniverse,
    /// Every source must have at least one attribute.
    EmptySchema {
        /// Name of the offending source.
        source: String,
    },
    /// Cooperating sources must use the same PCSA configuration so their
    /// signatures are OR-composable.
    SignatureConfigMismatch {
        /// Name of the offending source.
        source: String,
    },
    /// Definition 1: a GA must be non-empty.
    EmptyGa,
    /// Definition 1: a GA cannot contain two attributes from one source.
    GaSourceConflict {
        /// The source that appears twice.
        source: SourceId,
    },
    /// A constraint referenced a source id outside the universe.
    UnknownSource {
        /// The foreign id.
        source: SourceId,
    },
    /// A source name (a pin, a feedback verb) that is not in the universe.
    UnknownSourceName {
        /// The name that failed to resolve.
        name: String,
    },
    /// A GA constraint referenced an attribute that does not exist.
    UnknownAttribute {
        /// Description of the missing attribute.
        detail: String,
    },
    /// QEF weights must each be in [0, 1] and sum to 1.
    InvalidWeights {
        /// What was wrong.
        detail: String,
    },
    /// The constraint set is unsatisfiable as given (e.g. more required
    /// sources than `max_sources`, or conflicting GA constraints).
    ConstraintConflict {
        /// What conflicts.
        detail: String,
    },
    /// A named QEF was not found in the problem.
    UnknownQef {
        /// The name that failed to resolve.
        name: String,
    },
    /// The matching threshold or other parameter was out of range.
    InvalidParameter {
        /// What was wrong.
        detail: String,
    },
    /// A feedback verb referenced a GA index that the latest solution does
    /// not have — typically a stale handle after a re-solve changed the
    /// schema. Carries how many GAs *are* available so callers (CLI,
    /// server) can report the valid range without re-inspecting state.
    StaleGaIndex {
        /// The index the caller asked for.
        index: usize,
        /// GAs available in the latest solution (0 if no iteration ran).
        available: usize,
    },
}

impl std::fmt::Display for MubeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MubeError::EmptyUniverse => write!(f, "universe contains no sources"),
            MubeError::EmptySchema { source } => {
                write!(f, "source `{source}` has an empty schema")
            }
            MubeError::SignatureConfigMismatch { source } => write!(
                f,
                "source `{source}` has a PCSA signature with a different configuration"
            ),
            MubeError::EmptyGa => write!(f, "a global attribute must be non-empty"),
            MubeError::GaSourceConflict { source } => write!(
                f,
                "a global attribute cannot contain two attributes from source {source}"
            ),
            MubeError::UnknownSource { source } => {
                write!(f, "source {source} is not in the universe")
            }
            MubeError::UnknownSourceName { name } => write!(f, "unknown source `{name}`"),
            MubeError::UnknownAttribute { detail } => {
                write!(f, "unknown attribute: {detail}")
            }
            MubeError::InvalidWeights { detail } => write!(f, "invalid weights: {detail}"),
            MubeError::ConstraintConflict { detail } => {
                write!(f, "conflicting constraints: {detail}")
            }
            MubeError::UnknownQef { name } => write!(f, "no QEF named `{name}`"),
            MubeError::InvalidParameter { detail } => {
                write!(f, "invalid parameter: {detail}")
            }
            MubeError::StaleGaIndex { index, available } => write!(
                f,
                "GA #{index} is stale: the latest solution has {available} GAs"
            ),
        }
    }
}

impl std::error::Error for MubeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MubeError::GaSourceConflict {
            source: SourceId(4),
        };
        assert!(e.to_string().contains("s4"));
        let e = MubeError::InvalidWeights {
            detail: "sum is 0.9".into(),
        };
        assert!(e.to_string().contains("0.9"));
    }
}
