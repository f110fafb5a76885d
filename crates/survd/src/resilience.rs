//! The resilience artifact: `artifacts/resilience.json`.
//!
//! Written by the `chaossweep` bench binary after sweeping protocol
//! fault class × rate against a live daemon. Layout (schema
//! `survdb-resilience/v1`), following the repo's two-section artifact
//! convention:
//!
//! ```text
//! {
//!   "schema": "survdb-resilience/v1",
//!   "binary": "<emitting binary>",
//!   "deterministic": {           // identical across runs & workers
//!     "config": { "requests_per_cell", "seed" },
//!     "model": { "tree_count", "feature_count",
//!                "confidence_threshold" },
//!     "cells": [ { "class", "rate", "sent", "ok", "shed",
//!                  "faulted", "degraded", "mismatches" }, ... ],
//!     "reload": { "attempted", "admitted", "rejected",
//!                 "generations" }
//!   },
//!   "nondeterministic": { "workers", "queue_capacity", "elapsed_ms" }
//! }
//! ```
//!
//! `workers` and `queue_capacity` are environment, not outcome — the
//! whole point of the sweep is that outcomes do NOT depend on them, so
//! they live outside the deterministic section and the e2e tests pin
//! the deterministic bytes across 1- and 8-worker daemons.
//!
//! Counting semantics per cell: `sent` exchanges were driven; `ok`
//! answered 200 with the expected typed outcome, `shed` 429, `faulted`
//! refused (or deliberately unanswerable) because of the injected
//! fault, `degraded` 503 past a deadline. The validator enforces the
//! accounting identity `ok + shed + faulted + degraded = sent` per
//! cell and `mismatches = 0` everywhere — a 200 body that is not
//! byte-identical to the offline scoring of the same rows counts as a
//! mismatch and fails the schema check, so correctness-under-chaos is
//! machine-checked in CI, not eyeballed.

use obs::artifact::{
    checked_sum, envelope, expect_float, expect_keys, expect_obj, expect_uint, field,
    validate_envelope, write_artifact,
};
use obs::jsonv::JsonV;
use serve::SavedModel;
use std::io;
use std::path::{Path, PathBuf};

/// Schema identifier for `resilience.json`.
pub const RESILIENCE_SCHEMA: &str = "survdb-resilience/v1";

/// File name the artifact is written under.
pub const RESILIENCE_FILE: &str = "resilience.json";

/// The sweep shape — everything that pins the deterministic section
/// besides the model and the per-cell outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Exchanges driven per (class, rate) cell.
    pub requests_per_cell: usize,
    /// Chaos-plan seed every injection decision derives from.
    pub seed: u64,
    /// Daemon worker threads. Recorded in the *nondeterministic*
    /// section: outcomes must not depend on it.
    pub workers: usize,
    /// Admission-queue capacity. Nondeterministic section, same
    /// reason.
    pub queue_capacity: usize,
}

/// Outcome counts of one (class, rate) sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Fault class name (kebab-case), or `"none"` for the clean cell.
    pub class: String,
    /// Injection rate in `[0, 1]`.
    pub rate: f64,
    /// Exchanges driven.
    pub sent: u64,
    /// 200 responses whose bodies verified bitwise.
    pub ok: u64,
    /// 429 responses (admission shed).
    pub shed: u64,
    /// Exchanges the injected fault made fail: typed refusals
    /// (400/408/413) and deliberate no-response closes.
    pub faulted: u64,
    /// 503 responses past the request deadline.
    pub degraded: u64,
    /// 200 bodies that did NOT match the offline scoring bitwise.
    /// Must be zero; recorded so a violation is visible in the
    /// artifact itself.
    pub mismatches: u64,
}

/// Accounting of the hot-swap reload drills run during the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// `POST /reload` attempts (valid + corrupt candidates).
    pub attempted: u64,
    /// Candidates that validated and swapped.
    pub admitted: u64,
    /// Candidates refused with a typed 422.
    pub rejected: u64,
    /// Final live generation id (1 + admitted when nothing else
    /// reloaded).
    pub generations: u64,
}

fn cell_json(cell: &CellOutcome) -> JsonV {
    JsonV::obj(vec![
        ("class", JsonV::Str(cell.class.clone())),
        ("rate", JsonV::Float(cell.rate)),
        ("sent", JsonV::UInt(cell.sent)),
        ("ok", JsonV::UInt(cell.ok)),
        ("shed", JsonV::UInt(cell.shed)),
        ("faulted", JsonV::UInt(cell.faulted)),
        ("degraded", JsonV::UInt(cell.degraded)),
        ("mismatches", JsonV::UInt(cell.mismatches)),
    ])
}

fn deterministic_json(
    config: &ResilienceConfig,
    model: &SavedModel,
    cells: &[CellOutcome],
    reload: &ReloadOutcome,
) -> JsonV {
    JsonV::obj(vec![
        (
            "config",
            JsonV::obj(vec![
                (
                    "requests_per_cell",
                    JsonV::UInt(config.requests_per_cell as u64),
                ),
                ("seed", JsonV::UInt(config.seed)),
            ]),
        ),
        (
            "model",
            JsonV::obj(vec![
                ("tree_count", JsonV::UInt(model.forest.tree_count() as u64)),
                (
                    "feature_count",
                    JsonV::UInt(model.forest.feature_names().len() as u64),
                ),
                ("confidence_threshold", JsonV::Float(model.threshold())),
            ]),
        ),
        ("cells", JsonV::Arr(cells.iter().map(cell_json).collect())),
        (
            "reload",
            JsonV::obj(vec![
                ("attempted", JsonV::UInt(reload.attempted)),
                ("admitted", JsonV::UInt(reload.admitted)),
                ("rejected", JsonV::UInt(reload.rejected)),
                ("generations", JsonV::UInt(reload.generations)),
            ]),
        ),
    ])
}

/// Renders only the deterministic section — the byte string the
/// resilience tests pin across runs and worker counts.
pub fn deterministic_resilience_section(
    config: &ResilienceConfig,
    model: &SavedModel,
    cells: &[CellOutcome],
    reload: &ReloadOutcome,
) -> String {
    deterministic_json(config, model, cells, reload).render()
}

/// Renders the full resilience artifact for `binary`.
pub fn render_resilience(
    binary: &str,
    config: &ResilienceConfig,
    model: &SavedModel,
    cells: &[CellOutcome],
    reload: &ReloadOutcome,
    elapsed_ms: f64,
) -> String {
    envelope(
        RESILIENCE_SCHEMA,
        binary,
        deterministic_json(config, model, cells, reload),
        JsonV::obj(vec![
            ("workers", JsonV::UInt(config.workers as u64)),
            ("queue_capacity", JsonV::UInt(config.queue_capacity as u64)),
            ("elapsed_ms", JsonV::Float(elapsed_ms)),
        ]),
    )
    .render()
}

/// Writes `dir/resilience.json` for `binary`, creating `dir` if
/// needed. Returns the written path.
pub fn write_resilience(
    dir: &Path,
    binary: &str,
    config: &ResilienceConfig,
    model: &SavedModel,
    cells: &[CellOutcome],
    reload: &ReloadOutcome,
    elapsed_ms: f64,
) -> io::Result<PathBuf> {
    write_artifact(
        dir,
        RESILIENCE_FILE,
        &render_resilience(binary, config, model, cells, reload, elapsed_ms),
    )
}

/// Structurally validates a rendered `resilience.json`: schema id,
/// section split, per-cell accounting identity, zero mismatches, and
/// reload accounting. `artifact-check` runs it in CI.
pub fn validate_resilience(text: &str) -> Result<(), String> {
    let root = validate_envelope(text, RESILIENCE_SCHEMA)?;

    let det = field(&root, "deterministic")?;
    let det_fields = expect_obj(det, "deterministic")?;
    expect_keys(
        det_fields,
        &["config", "model", "cells", "reload"],
        "deterministic",
    )?;

    let config = field(det, "config")?;
    let config_fields = expect_obj(config, "config")?;
    expect_keys(config_fields, &["requests_per_cell", "seed"], "config")?;
    if expect_uint(field(config, "requests_per_cell")?, "requests_per_cell")? == 0 {
        return Err("config.requests_per_cell must be nonzero".to_string());
    }
    expect_uint(field(config, "seed")?, "config.seed")?;

    let model = field(det, "model")?;
    let model_fields = expect_obj(model, "model")?;
    expect_keys(
        model_fields,
        &["tree_count", "feature_count", "confidence_threshold"],
        "model",
    )?;
    for key in ["tree_count", "feature_count"] {
        if expect_uint(field(model, key)?, key)? == 0 {
            return Err(format!("model.{key} must be nonzero"));
        }
    }
    let t = expect_float(
        field(model, "confidence_threshold")?,
        "confidence_threshold",
    )?;
    if !(0.5..=1.0).contains(&t) {
        return Err(format!("confidence_threshold {t} outside [0.5, 1]"));
    }

    let cells = match det.get("cells") {
        Some(JsonV::Arr(items)) if !items.is_empty() => items,
        other => return Err(format!("cells must be a non-empty array, found {other:?}")),
    };
    for (i, cell) in cells.iter().enumerate() {
        let what = format!("cells[{i}]");
        let cell_fields = expect_obj(cell, &what)?;
        expect_keys(
            cell_fields,
            &[
                "class",
                "rate",
                "sent",
                "ok",
                "shed",
                "faulted",
                "degraded",
                "mismatches",
            ],
            &what,
        )?;
        match cell.get("class") {
            Some(JsonV::Str(s)) if !s.is_empty() => {}
            other => return Err(format!("{what}.class must be a string, found {other:?}")),
        }
        let rate = expect_float(field(cell, "rate")?, "rate")?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("{what}.rate {rate} outside [0, 1]"));
        }
        let get = |key: &str| expect_uint(field(cell, key)?, key);
        let sent = get("sent")?;
        if sent == 0 {
            return Err(format!("{what}.sent must be nonzero"));
        }
        let answered = checked_sum(
            [get("ok")?, get("shed")?, get("faulted")?, get("degraded")?],
            &what,
        )?;
        if answered != sent {
            return Err(format!(
                "{what}: ok + shed + faulted + degraded must equal sent"
            ));
        }
        if get("mismatches")? != 0 {
            return Err(format!(
                "{what}: mismatches must be zero — a 200 body diverged from offline scoring"
            ));
        }
    }

    let reload = field(det, "reload")?;
    let reload_fields = expect_obj(reload, "reload")?;
    expect_keys(
        reload_fields,
        &["attempted", "admitted", "rejected", "generations"],
        "reload",
    )?;
    let get = |key: &str| expect_uint(field(reload, key)?, key);
    if checked_sum([get("admitted")?, get("rejected")?], "reload")? != get("attempted")? {
        return Err("reload: admitted + rejected must equal attempted".to_string());
    }
    if get("generations")? == 0 {
        return Err("reload.generations must be at least 1".to_string());
    }

    let nondet = field(&root, "nondeterministic")?;
    let nondet_fields = expect_obj(nondet, "nondeterministic")?;
    expect_keys(
        nondet_fields,
        &["workers", "queue_capacity", "elapsed_ms"],
        "nondeterministic",
    )?;
    for key in ["workers", "queue_capacity"] {
        if expect_uint(field(nondet, key)?, key)? == 0 {
            return Err(format!("nondeterministic.{key} must be nonzero"));
        }
    }
    let elapsed = expect_float(field(nondet, "elapsed_ms")?, "elapsed_ms")?;
    if !elapsed.is_finite() || elapsed < 0.0 {
        return Err(format!(
            "elapsed_ms must be finite and non-negative, found {elapsed}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest::{Dataset, RandomForest, RandomForestParams};
    use serve::ModelMeta;

    fn fixture_model() -> SavedModel {
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()], 2);
        for i in 0..60 {
            let x0 = i as f64 / 60.0;
            let x1 = ((i * 13) % 60) as f64 / 60.0;
            d.push(vec![x0, x1], (x0 > 0.5) as usize);
        }
        let params = RandomForestParams {
            n_trees: 4,
            ..RandomForestParams::default()
        };
        let forest = RandomForest::fit(&d, &params, 3);
        let meta = ModelMeta {
            positive_fraction: d.class_fraction(1),
            seed: 3,
            params,
            grid: None,
        };
        SavedModel::new(forest, meta)
    }

    fn sample() -> (ResilienceConfig, Vec<CellOutcome>, ReloadOutcome) {
        (
            ResilienceConfig {
                requests_per_cell: 40,
                seed: 1206,
                workers: 2,
                queue_capacity: 64,
            },
            vec![
                CellOutcome {
                    class: "none".to_string(),
                    rate: 0.0,
                    sent: 40,
                    ok: 40,
                    shed: 0,
                    faulted: 0,
                    degraded: 0,
                    mismatches: 0,
                },
                CellOutcome {
                    class: "garbage-frame".to_string(),
                    rate: 0.5,
                    sent: 40,
                    ok: 21,
                    shed: 0,
                    faulted: 19,
                    degraded: 0,
                    mismatches: 0,
                },
            ],
            ReloadOutcome {
                attempted: 4,
                admitted: 2,
                rejected: 2,
                generations: 3,
            },
        )
    }

    #[test]
    fn rendered_resilience_validates() {
        let model = fixture_model();
        let (config, cells, reload) = sample();
        let text = render_resilience("chaossweep", &config, &model, &cells, &reload, 12.5);
        validate_resilience(&text).expect("schema-valid");
        assert!(text.contains("\"garbage-frame\""));
        assert!(text.contains("\"generations\": 3"));
    }

    #[test]
    fn deterministic_section_excludes_timings() {
        let model = fixture_model();
        let (config, cells, reload) = sample();
        let section = deterministic_resilience_section(&config, &model, &cells, &reload);
        assert!(!section.contains("elapsed_ms"));
        assert!(section.contains("\"cells\""));
    }

    #[test]
    fn validator_rejects_drift() {
        let model = fixture_model();
        let (config, cells, reload) = sample();
        let good = render_resilience("chaossweep", &config, &model, &cells, &reload, 12.5);
        assert!(
            validate_resilience(&good.replace(RESILIENCE_SCHEMA, "survdb-resilience/v2")).is_err()
        );
        // Break the per-cell accounting identity.
        assert!(validate_resilience(&good.replace("\"ok\": 21", "\"ok\": 20")).is_err());
        // A nonzero mismatch count is a correctness violation.
        assert!(
            validate_resilience(&good.replacen("\"mismatches\": 0", "\"mismatches\": 1", 1))
                .is_err()
        );
        // Break reload accounting.
        assert!(validate_resilience(&good.replace("\"admitted\": 2", "\"admitted\": 1")).is_err());
        // Counts whose sum wraps around to the declared total.
        let wrapped = good
            .replace("\"admitted\": 2", &format!("\"admitted\": {}", 1u64 << 63))
            .replace(
                "\"rejected\": 2",
                &format!("\"rejected\": {}", (1u64 << 63) + 4),
            );
        let err = validate_resilience(&wrapped).expect_err("reload counts overflow");
        assert!(err.contains("overflows"), "{err}");
        // Drop a required key.
        assert!(validate_resilience(&good.replace("\"faulted\"", "\"broken\"")).is_err());
        assert!(validate_resilience("{}").is_err());
        assert!(validate_resilience("nonsense").is_err());
    }

    #[test]
    fn write_resilience_creates_the_artifact() {
        let model = fixture_model();
        let (config, cells, reload) = sample();
        let dir = std::env::temp_dir().join(format!("survdb-resilience-{}", std::process::id()));
        let path = write_resilience(&dir, "chaossweep", &config, &model, &cells, &reload, 1.0)
            .expect("writes");
        let text = std::fs::read_to_string(&path).expect("readable");
        validate_resilience(&text).expect("valid on disk");
        std::fs::remove_dir_all(&dir).ok();
    }
}
