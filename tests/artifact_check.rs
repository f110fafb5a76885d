//! Tier-1 check of the committed reference artifacts through
//! `artifact-check`'s dispatch (`bench::artifact`), plus the
//! dispatcher's own refusals: an unknown schema, a mixed-schema file
//! list, and deterministic sections that differ.

use bench::artifact::{check_artifacts, validate_artifact};
use std::path::PathBuf;

fn committed(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../artifacts")
        .join(name)
}

/// Writes `text` to a per-process scratch file and returns its path.
fn scratch(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("survdb-artifact-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write scratch artifact");
    path
}

#[test]
fn committed_artifacts_validate_by_their_schema() {
    for (file, schema) in [
        ("serving.json", survd::SERVING_SCHEMA),
        ("resilience.json", survd::RESILIENCE_SCHEMA),
        ("policy.json", bench::policyart::POLICY_SCHEMA),
        ("fleet.json", bench::fleet::FLEET_SCHEMA),
    ] {
        let path = committed(file);
        assert_eq!(check_artifacts(&[&path]), Ok(schema), "{file}");
        // A file always agrees with itself.
        assert_eq!(check_artifacts(&[&path, &path]), Ok(schema), "{file}");
    }
}

#[test]
fn unknown_schema_and_mixed_lists_are_rejected() {
    let serving = std::fs::read_to_string(committed("serving.json")).expect("read serving.json");
    let unknown = serving.replace(survd::SERVING_SCHEMA, "survdb-serving/v9");
    let err = validate_artifact(&unknown).expect_err("unknown schema");
    assert!(err.contains("unknown schema"), "{err}");
    assert!(check_artifacts(&[scratch("unknown.json", &unknown)]).is_err());

    let err = check_artifacts(&[committed("serving.json"), committed("resilience.json")])
        .expect_err("mixed schemas");
    assert!(err.contains("differs"), "{err}");

    let reseeded = serving.replacen("\"seed\": 2018", "\"seed\": 2019", 1);
    assert_ne!(reseeded, serving);
    let reseeded = scratch("reseeded.json", &reseeded);
    assert_eq!(check_artifacts(&[&reseeded]), Ok(survd::SERVING_SCHEMA));
    let err = check_artifacts(&[committed("serving.json"), reseeded.clone()])
        .expect_err("deterministic sections differ");
    assert!(err.contains("deterministic section differs"), "{err}");

    assert!(check_artifacts::<PathBuf>(&[]).is_err());
    std::fs::remove_dir_all(reseeded.parent().expect("scratch dir")).ok();
}
