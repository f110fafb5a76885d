//! The artifact prelude: the one two-section envelope every artifact
//! family shares, and the structural `expect_*` helpers their
//! validators are built from.
//!
//! Every artifact the workspace emits follows the same envelope,
//! established by `run_trace.json` and repeated since:
//!
//! ```text
//! {
//!   "schema": "<family>/v<N>",
//!   "binary": "<emitting binary>",
//!   "deterministic": { ... },     // byte-identical across runs,
//!                                 // thread counts, shard layouts
//!   "nondeterministic": { ... }   // wall clock, throughput, layout
//! }
//! ```
//!
//! Writers assemble it with [`envelope`]; validators open with
//! [`validate_envelope`] and check their sections with the helpers
//! below, which enforce exact key order, so a writer and its validator
//! can never drift apart on the envelope. `obs` is the bottom crate,
//! so the run trace, the serving, scoring and resilience artifacts,
//! and the bench artifacts all share this one copy.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::jsonv::{self, JsonV};
use std::io;
use std::path::{Path, PathBuf};

/// Assembles the standard four-key artifact envelope.
pub fn envelope(
    schema: &str,
    binary: &str,
    deterministic: JsonV,
    nondeterministic: JsonV,
) -> JsonV {
    JsonV::obj(vec![
        ("schema", JsonV::Str(schema.to_string())),
        ("binary", JsonV::Str(binary.to_string())),
        ("deterministic", deterministic),
        ("nondeterministic", nondeterministic),
    ])
}

/// Writes a rendered artifact under `dir/file`, creating `dir` if
/// needed. Returns the written path.
pub fn write_artifact(dir: &Path, file: &str, text: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Parses an artifact text, checks the envelope (exact top-level key
/// order, the expected schema id, a non-empty binary label), and
/// returns the parsed root for section-specific validation.
pub fn validate_envelope(text: &str, schema: &str) -> Result<JsonV, String> {
    let root = jsonv::parse(text)?;
    let fields = expect_obj(&root, "artifact")?;
    expect_keys(
        fields,
        &["schema", "binary", "deterministic", "nondeterministic"],
        "artifact",
    )?;
    match root.get("schema") {
        Some(JsonV::Str(s)) if s == schema => {}
        other => return Err(format!("schema must be {schema:?}, found {other:?}")),
    }
    match root.get("binary") {
        Some(JsonV::Str(s)) if !s.is_empty() => {}
        other => {
            return Err(format!(
                "binary must be a non-empty string, found {other:?}"
            ))
        }
    }
    Ok(root)
}

/// Extracts the rendered deterministic section of an artifact text —
/// the byte string CI compares across shard layouts and thread counts.
pub fn deterministic_section_of(text: &str) -> Result<String, String> {
    let root = jsonv::parse(text)?;
    let det = root
        .get("deterministic")
        .ok_or("artifact has no deterministic section")?;
    Ok(det.render())
}

/// Looks up `key` in an object value.
pub fn field<'a>(value: &'a JsonV, key: &str) -> Result<&'a JsonV, String> {
    value.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

/// Requires an object value; returns its fields.
pub fn expect_obj<'a>(value: &'a JsonV, what: &str) -> Result<&'a [(String, JsonV)], String> {
    match value {
        JsonV::Obj(fields) => Ok(fields),
        other => Err(format!("{what} must be an object, found {other:?}")),
    }
}

/// Requires exactly `keys`, in order — key *order* is part of every
/// artifact's byte-determinism contract, so validators reject
/// reorderings, not just missing keys.
pub fn expect_keys(fields: &[(String, JsonV)], keys: &[&str], what: &str) -> Result<(), String> {
    let found: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if found != keys {
        return Err(format!("{what} must have keys {keys:?}, found {found:?}"));
    }
    Ok(())
}

/// Requires an unsigned integer value.
pub fn expect_uint(value: &JsonV, what: &str) -> Result<u64, String> {
    match value {
        JsonV::UInt(v) => Ok(*v),
        other => Err(format!(
            "{what} must be an unsigned integer, found {other:?}"
        )),
    }
}

/// Requires a float value.
pub fn expect_float(value: &JsonV, what: &str) -> Result<f64, String> {
    match value {
        JsonV::Float(v) => Ok(*v),
        other => Err(format!("{what} must be a float, found {other:?}")),
    }
}

/// Requires a non-empty string value.
pub fn expect_str<'a>(value: &'a JsonV, what: &str) -> Result<&'a str, String> {
    match value {
        JsonV::Str(s) if !s.is_empty() => Ok(s),
        other => Err(format!(
            "{what} must be a non-empty string, found {other:?}"
        )),
    }
}

/// Sums counts read from an artifact. Counts on disk are untrusted, so
/// a total past `u64::MAX` is a typed error rather than a wrap that
/// could make a broken counting identity look satisfied.
pub fn checked_sum(values: impl IntoIterator<Item = u64>, what: &str) -> Result<u64, String> {
    values
        .into_iter()
        .try_fold(0u64, u64::checked_add)
        .ok_or_else(|| format!("{what} overflows u64"))
}

/// Requires an array value; returns its items.
pub fn expect_arr<'a>(value: &'a JsonV, what: &str) -> Result<&'a [JsonV], String> {
    match value {
        JsonV::Arr(items) => Ok(items),
        other => Err(format!("{what} must be an array, found {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        envelope(
            "survdb-sample/v1",
            "samplebench",
            JsonV::obj(vec![("count", JsonV::UInt(3))]),
            JsonV::obj(vec![("elapsed_ms", JsonV::Float(1.5))]),
        )
        .render()
    }

    #[test]
    fn envelope_roundtrips_through_validation() {
        let text = sample();
        let root = validate_envelope(&text, "survdb-sample/v1").expect("valid");
        let det = root.get("deterministic").unwrap();
        assert_eq!(expect_uint(det.get("count").unwrap(), "count").unwrap(), 3);
        assert_eq!(deterministic_section_of(&text).unwrap(), det.render());
    }

    #[test]
    fn validation_rejects_envelope_drift() {
        let text = sample();
        assert!(validate_envelope(&text, "survdb-other/v1").is_err());
        assert!(
            validate_envelope(&text.replace("\"binary\"", "\"tool\""), "survdb-sample/v1").is_err()
        );
        assert!(validate_envelope("{}", "survdb-sample/v1").is_err());
        // Key order is enforced, not just presence.
        let reordered = envelope(
            "survdb-sample/v1",
            "samplebench",
            JsonV::obj(vec![("count", JsonV::UInt(3))]),
            JsonV::obj(vec![]),
        )
        .render()
        .replacen("\"schema\"", "\"zchema\"", 1);
        assert!(validate_envelope(&reordered, "survdb-sample/v1").is_err());
    }

    #[test]
    fn expect_helpers_report_types() {
        assert!(field(&JsonV::obj(vec![("a", JsonV::Null)]), "b").is_err());
        assert!(field(&JsonV::Null, "a").is_err());
        assert!(expect_uint(&JsonV::Float(1.0), "x").is_err());
        assert!(expect_float(&JsonV::UInt(1), "x").is_err());
        assert!(expect_str(&JsonV::Str(String::new()), "x").is_err());
        assert!(expect_arr(&JsonV::Null, "x").is_err());
        assert!(expect_obj(&JsonV::Arr(vec![]), "x").is_err());
        assert_eq!(checked_sum([1, 2, 3], "x"), Ok(6));
        assert!(checked_sum([u64::MAX, 1], "x").is_err());
        assert!(expect_keys(
            &[
                ("a".to_string(), JsonV::Null),
                ("b".to_string(), JsonV::Null)
            ],
            &["b", "a"],
            "x"
        )
        .is_err());
    }
}
