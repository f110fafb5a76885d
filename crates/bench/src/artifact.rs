//! `artifact-check`'s dispatch: validates artifact files of every
//! family by the `schema` id they carry.
//!
//! Each family keeps its own validator next to its writer; this module
//! only maps schema ids to them and adds the one cross-file rule: all
//! files given together must share a schema and have byte-identical
//! deterministic sections. CI passes runs that differ only in thread
//! count, shard layout or visit order, so that rule holds each
//! family's invariance contract.

use obs::artifact::{deterministic_section_of, expect_str, field};
use obs::jsonv;
use std::path::Path;

/// A family's structural validator over the rendered artifact text.
pub type Validator = fn(&str) -> Result<(), String>;

/// Every artifact family `artifact-check` knows, by schema id.
pub const VALIDATORS: [(&str, Validator); 7] = [
    (obs::trace::RUN_TRACE_SCHEMA, obs::trace::validate_run_trace),
    (serve::SCORING_SCHEMA, serve::validate_scoring),
    (survd::SERVING_SCHEMA, survd::validate_serving),
    (survd::LATENCY_SCHEMA, survd::validate_latency),
    (survd::RESILIENCE_SCHEMA, survd::validate_resilience),
    (crate::fleet::FLEET_SCHEMA, crate::fleet::validate_fleet),
    (
        crate::policyart::POLICY_SCHEMA,
        crate::policyart::validate_policy,
    ),
];

/// Validates one artifact text with the validator its `schema` names;
/// returns that schema id.
pub fn validate_artifact(text: &str) -> Result<&'static str, String> {
    let root = jsonv::parse(text)?;
    let schema = expect_str(field(&root, "schema")?, "schema")?;
    let (id, validate) = VALIDATORS
        .iter()
        .find(|(id, _)| *id == schema)
        .ok_or_else(|| format!("unknown schema {schema:?}"))?;
    validate(text)?;
    Ok(id)
}

/// Validates every file in `paths`, then requires that they all share
/// one schema and that their deterministic sections are byte-identical
/// to the first file's. Returns the shared schema id.
pub fn check_artifacts<P: AsRef<Path>>(paths: &[P]) -> Result<&'static str, String> {
    let mut first: Option<(&Path, &'static str, String)> = None;
    for path in paths {
        let path = path.as_ref();
        let at = |e: String| format!("{}: {e}", path.display());
        let text = std::fs::read_to_string(path).map_err(|e| at(e.to_string()))?;
        let schema = validate_artifact(&text).map_err(at)?;
        let section = deterministic_section_of(&text).map_err(at)?;
        match &first {
            None => first = Some((path, schema, section)),
            Some((first_path, first_schema, _)) if *first_schema != schema => {
                return Err(at(format!(
                    "schema {schema} differs from {first_schema} of {}",
                    first_path.display()
                )))
            }
            Some((first_path, _, first_section)) if *first_section != section => {
                return Err(at(format!(
                    "deterministic section differs from {}",
                    first_path.display()
                )))
            }
            Some(_) => {}
        }
    }
    first
        .map(|(_, schema, _)| schema)
        .ok_or_else(|| "no artifact paths given".to_string())
}
