//! Typed errors for the on-disk model format.
//!
//! Every failure mode of reading a model file maps to a variant, so
//! callers can distinguish "the disk is broken" from "the bytes are
//! not ours" from "the numbers inside are impossible". Loading never
//! panics on malformed input.

use std::fmt;

/// Why a model file could not be saved or loaded.
#[derive(Debug)]
pub enum ModelError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The text is not valid JSON (truncation lands here).
    Parse(String),
    /// The JSON parses but does not have the `survdb-model/v1` shape.
    Schema(String),
    /// The shape is right but the values fail semantic validation
    /// (out-of-range probabilities, cyclic tree edges, threshold that
    /// disagrees with `max(q, 1 − q)`, …).
    Invalid(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Io(e) => write!(f, "model file i/o: {e}"),
            ModelError::Parse(m) => write!(f, "model file is not JSON: {m}"),
            ModelError::Schema(m) => write!(f, "model schema violation: {m}"),
            ModelError::Invalid(m) => write!(f, "model failed validation: {m}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// The structural checks shared with artifact validation
/// (`obs::artifact`) report a `String`; in a model file every such
/// failure is a schema violation.
impl From<String> for ModelError {
    fn from(message: String) -> Self {
        ModelError::Schema(message)
    }
}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn displays_and_sources() {
        let io = ModelError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().contains("gone"));
        assert!(io.source().is_some());

        let schema = ModelError::Schema("bad key".to_string());
        assert!(schema.to_string().contains("schema violation"));
        assert!(schema.source().is_none());
    }
}
