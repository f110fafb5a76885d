//! The serving artifact: `artifacts/serving.json`, written by the
//! `servecheck` bench binary after its [`crate::verify::load`] run.
//!
//! Layout (schema `survdb-serving/v2`), mirroring the run-trace and
//! scoring-artifact two-section convention:
//!
//! ```text
//! {
//!   "schema": "survdb-serving/v2",
//!   "binary": "<emitting binary>",
//!   "deterministic": {          // identical across runs & daemon shapes
//!     "config": { "connections", "requests", "rows_per_request" },
//!     "corpus": { "rows", "seed" },
//!     "model":  { "tree_count", "feature_count",
//!                 "positive_fraction", "confidence_threshold" },
//!     "counts": { "requests_sent", "responses_ok", "responses_shed",
//!                 "responses_error", "rows_scored" },
//!     "sketch": { "buckets", "min_exponent", "max_exponent" },
//!     "stages": { "queue_wait" | "batch_wait" | "score"
//!                 | "write" | "total": { "observations" } },
//!     "drift":  { "reference": [10 × u64], "live": [10 × u64],
//!                 "scored", "divergence" }
//!   },
//!   "nondeterministic": {       // daemon shape and wall-clock stage timings
//!     "config": { "workers", "queue_capacity",
//!                 "batch_max_rows", "batch_max_wait_ms" },
//!     "server_stages_ms": { "<stage>": { "buckets": [[i, count], ...],
//!                                        "p50", "p95", "p99" } }
//!   }
//! }
//! ```
//!
//! A load run against a deterministic corpus produces deterministic
//! counts and a deterministic drift histogram (every response
//! probability is a pure function of model × row). The split leans on
//! the sketch determinism contract ([`obs::sketch`]): which bucket an
//! observation lands in is wall-clock, but *how many* observations each
//! stage records is a pure function of the request stream — one
//! `queue_wait`/`batch_wait`/`write`/`total` observation per 200
//! response, one `score` observation per scored row. Bucketed timings
//! and quantile estimates live only under `nondeterministic`, and so
//! do the worker/queue/batch knobs: the deterministic section must be
//! byte-identical between a 1-worker and an 8-worker daemon.
//!
//! The stage and drift sections are rendered and checked by
//! [`crate::latency`]. The validator pins exact key order and the
//! counting identities, so
//! a drifting producer fails the `artifact-check` CI step instead of
//! shipping silently. Schema evolution follows the workspace rule
//! (DESIGN.md §14): any key addition, removal, or reorder bumps the
//! suffix.

use crate::latency::{
    drift_json, server_stages_json, stages_json, validate_drift, validate_server_stages,
    validate_stages, STAGE_COUNT,
};
use crate::server::ServerConfig;
use obs::artifact::{
    checked_sum, envelope, expect_float, expect_keys, expect_obj, expect_uint, field,
    validate_envelope, write_artifact,
};
use obs::jsonv::JsonV;
use obs::sketch::{Sketch, SKETCH_BUCKETS, SKETCH_MAX_EXP, SKETCH_MIN_EXP};
use obs::DriftSnapshot;
use serve::SavedModel;
use std::io;
use std::path::{Path, PathBuf};

/// Schema identifier for `serving.json`.
pub const SERVING_SCHEMA: &str = "survdb-serving/v2";

/// File name the artifact is written under.
pub const SERVING_FILE: &str = "serving.json";

/// The client side of a load run: its shape, which together with the
/// model and corpus determines the deterministic section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingRunConfig {
    /// Client connections.
    pub connections: usize,
    /// Total requests issued.
    pub requests: usize,
    /// Feature rows per request.
    pub rows_per_request: usize,
}

/// Where the request rows came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingCorpus {
    /// Distinct feature rows in the corpus.
    pub rows: usize,
    /// Fleet-generation seed.
    pub seed: u64,
}

/// Deterministic outcome counts of a load run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingCounts {
    /// Requests the generator issued.
    pub requests_sent: u64,
    /// 200 responses.
    pub responses_ok: u64,
    /// 429 responses (shed).
    pub responses_shed: u64,
    /// Anything else (connection failures, 4xx/5xx).
    pub responses_error: u64,
    /// Total rows scored across 200 responses.
    pub rows_scored: u64,
}

/// Everything one load run records in its deterministic section.
#[derive(Debug, Clone)]
pub struct ServingRun<'a> {
    /// Client-side run shape.
    pub config: ServingRunConfig,
    /// Request corpus.
    pub corpus: ServingCorpus,
    /// The served model.
    pub model: &'a SavedModel,
    /// Outcome counts.
    pub counts: ServingCounts,
    /// The daemon's per-stage sketches, in
    /// [`STAGE_NAMES`](crate::latency::STAGE_NAMES) order.
    pub stages: [Sketch; STAGE_COUNT],
    /// The daemon's drift monitor: training reference vs live scores.
    pub drift: DriftSnapshot,
}

fn uint(v: usize) -> JsonV {
    JsonV::UInt(v as u64)
}

fn deterministic_json(run: &ServingRun) -> JsonV {
    let (config, counts, model) = (&run.config, &run.counts, run.model);
    JsonV::obj(vec![
        (
            "config",
            JsonV::obj(vec![
                ("connections", uint(config.connections)),
                ("requests", uint(config.requests)),
                ("rows_per_request", uint(config.rows_per_request)),
            ]),
        ),
        (
            "corpus",
            JsonV::obj(vec![
                ("rows", uint(run.corpus.rows)),
                ("seed", JsonV::UInt(run.corpus.seed)),
            ]),
        ),
        (
            "model",
            JsonV::obj(vec![
                ("tree_count", uint(model.forest.tree_count())),
                ("feature_count", uint(model.forest.feature_names().len())),
                (
                    "positive_fraction",
                    JsonV::Float(model.meta.positive_fraction),
                ),
                ("confidence_threshold", JsonV::Float(model.threshold())),
            ]),
        ),
        (
            "counts",
            JsonV::obj(vec![
                ("requests_sent", JsonV::UInt(counts.requests_sent)),
                ("responses_ok", JsonV::UInt(counts.responses_ok)),
                ("responses_shed", JsonV::UInt(counts.responses_shed)),
                ("responses_error", JsonV::UInt(counts.responses_error)),
                ("rows_scored", JsonV::UInt(counts.rows_scored)),
            ]),
        ),
        (
            "sketch",
            JsonV::obj(vec![
                ("buckets", uint(SKETCH_BUCKETS)),
                ("min_exponent", JsonV::Float(SKETCH_MIN_EXP as f64)),
                ("max_exponent", JsonV::Float(SKETCH_MAX_EXP as f64)),
            ]),
        ),
        ("stages", stages_json(&run.stages)),
        ("drift", drift_json(&run.drift)),
    ])
}

/// Renders the full serving artifact for `binary`; `daemon` is the
/// configuration the daemon ran with.
pub fn render_serving(binary: &str, daemon: &ServerConfig, run: &ServingRun) -> String {
    envelope(
        SERVING_SCHEMA,
        binary,
        deterministic_json(run),
        JsonV::obj(vec![
            (
                "config",
                JsonV::obj(vec![
                    ("workers", uint(daemon.workers)),
                    ("queue_capacity", uint(daemon.queue_capacity)),
                    ("batch_max_rows", uint(daemon.batch.max_rows)),
                    ("batch_max_wait_ms", JsonV::UInt(daemon.batch.max_wait_ms)),
                ]),
            ),
            ("server_stages_ms", server_stages_json(&run.stages)),
        ]),
    )
    .render()
}

/// Writes `dir/serving.json` for `binary`, creating `dir` if needed.
/// Returns the written path.
pub fn write_serving(
    dir: &Path,
    binary: &str,
    daemon: &ServerConfig,
    run: &ServingRun,
) -> io::Result<PathBuf> {
    write_artifact(dir, SERVING_FILE, &render_serving(binary, daemon, run))
}

/// Requires each listed key of `value` to be a nonzero unsigned integer.
fn expect_nonzero(value: &JsonV, keys: &[&str], what: &str) -> Result<(), String> {
    for key in keys {
        if expect_uint(field(value, key)?, key)? == 0 {
            return Err(format!("{what}.{key} must be nonzero"));
        }
    }
    Ok(())
}

/// Structurally validates a rendered `serving.json`: schema id, the
/// deterministic/nondeterministic split, exact key order, field types,
/// and the counting identities (ok + shed + error = sent, rows = ok ×
/// rows_per_request, one queue-wait/batch-wait/write/total observation
/// per 200 and one score observation and one drift record per scored
/// row). `artifact-check` runs it in CI.
pub fn validate_serving(text: &str) -> Result<(), String> {
    let root = validate_envelope(text, SERVING_SCHEMA)?;

    let det = field(&root, "deterministic")?;
    expect_keys(
        expect_obj(det, "deterministic")?,
        &[
            "config", "corpus", "model", "counts", "sketch", "stages", "drift",
        ],
        "deterministic",
    )?;

    let config = field(det, "config")?;
    let config_keys = ["connections", "requests", "rows_per_request"];
    expect_keys(expect_obj(config, "config")?, &config_keys, "config")?;
    expect_nonzero(config, &config_keys, "config")?;
    let rows_per_request = expect_uint(field(config, "rows_per_request")?, "rows_per_request")?;

    let corpus = field(det, "corpus")?;
    expect_keys(expect_obj(corpus, "corpus")?, &["rows", "seed"], "corpus")?;
    expect_nonzero(corpus, &["rows"], "corpus")?;
    expect_uint(field(corpus, "seed")?, "corpus.seed")?;

    let model = field(det, "model")?;
    expect_keys(
        expect_obj(model, "model")?,
        &[
            "tree_count",
            "feature_count",
            "positive_fraction",
            "confidence_threshold",
        ],
        "model",
    )?;
    expect_nonzero(model, &["tree_count", "feature_count"], "model")?;
    let q = expect_float(field(model, "positive_fraction")?, "positive_fraction")?;
    if !(0.0..=1.0).contains(&q) {
        return Err(format!("positive_fraction {q} outside [0, 1]"));
    }
    let t = expect_float(
        field(model, "confidence_threshold")?,
        "confidence_threshold",
    )?;
    if !(0.5..=1.0).contains(&t) {
        return Err(format!("confidence_threshold {t} outside [0.5, 1]"));
    }

    let counts = field(det, "counts")?;
    expect_keys(
        expect_obj(counts, "counts")?,
        &[
            "requests_sent",
            "responses_ok",
            "responses_shed",
            "responses_error",
            "rows_scored",
        ],
        "counts",
    )?;
    expect_nonzero(counts, &["requests_sent"], "counts")?;
    let get_count = |key: &str| expect_uint(field(counts, key)?, key);
    let sent = get_count("requests_sent")?;
    let ok = get_count("responses_ok")?;
    let answered = checked_sum(
        [
            ok,
            get_count("responses_shed")?,
            get_count("responses_error")?,
        ],
        "responses_ok + responses_shed + responses_error",
    )?;
    if answered != sent {
        return Err(
            "responses_ok + responses_shed + responses_error must equal requests_sent".to_string(),
        );
    }
    let rows_scored = get_count("rows_scored")?;
    if ok.checked_mul(rows_per_request) != Some(rows_scored) {
        return Err(format!(
            "rows_scored {rows_scored} != responses_ok {ok} × rows_per_request {rows_per_request}"
        ));
    }

    let sketch = field(det, "sketch")?;
    expect_keys(
        expect_obj(sketch, "sketch")?,
        &["buckets", "min_exponent", "max_exponent"],
        "sketch",
    )?;
    if expect_uint(field(sketch, "buckets")?, "buckets")? != SKETCH_BUCKETS as u64 {
        return Err(format!("sketch.buckets must be {SKETCH_BUCKETS}"));
    }
    for (key, want) in [
        ("min_exponent", SKETCH_MIN_EXP as f64),
        ("max_exponent", SKETCH_MAX_EXP as f64),
    ] {
        if expect_float(field(sketch, key)?, key)? != want {
            return Err(format!("sketch.{key} must be {want}"));
        }
    }

    let observations = validate_stages(field(det, "stages")?, ok, rows_scored)?;
    validate_drift(field(det, "drift")?, rows_scored)?;

    let nondet = field(&root, "nondeterministic")?;
    expect_keys(
        expect_obj(nondet, "nondeterministic")?,
        &["config", "server_stages_ms"],
        "nondeterministic",
    )?;
    let daemon = field(nondet, "config")?;
    expect_keys(
        expect_obj(daemon, "nondeterministic.config")?,
        &[
            "workers",
            "queue_capacity",
            "batch_max_rows",
            "batch_max_wait_ms",
        ],
        "nondeterministic.config",
    )?;
    expect_nonzero(
        daemon,
        &["workers", "queue_capacity", "batch_max_rows"],
        "nondeterministic.config",
    )?;
    expect_uint(field(daemon, "batch_max_wait_ms")?, "batch_max_wait_ms")?;

    validate_server_stages(field(nondet, "server_stages_ms")?, observations)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use forest::{Dataset, RandomForest, RandomForestParams};
    use obs::artifact::deterministic_section_of;
    use serve::ModelMeta;

    pub(crate) fn fixture_model() -> SavedModel {
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

    /// A consistent run: 8 requests × 4 rows, every identity satisfied.
    pub(crate) fn sample(model: &SavedModel) -> ServingRun<'_> {
        let mut stages: [Sketch; STAGE_COUNT] = Default::default();
        for (i, stage) in stages.iter_mut().enumerate() {
            if i != 2 {
                for k in 0..8 {
                    stage.observe(0.5 + k as f64);
                }
            }
        }
        stages[2].observe_n(0.03, 32); // score: one observation per row
        ServingRun {
            config: ServingRunConfig {
                connections: 2,
                requests: 8,
                rows_per_request: 4,
            },
            corpus: ServingCorpus {
                rows: 120,
                seed: 42,
            },
            model,
            counts: ServingCounts {
                requests_sent: 8,
                responses_ok: 8,
                responses_shed: 0,
                responses_error: 0,
                rows_scored: 32,
            },
            stages,
            drift: DriftSnapshot {
                reference: [10, 10, 30, 10, 0, 0, 10, 50, 0, 0],
                live: [0, 0, 12, 0, 0, 0, 0, 20, 0, 0],
            },
        }
    }

    fn render(run: &ServingRun) -> String {
        render_serving("servecheck", &ServerConfig::default(), run)
    }

    #[test]
    fn rendered_serving_validates() {
        let model = fixture_model();
        let text = render(&sample(&model));
        validate_serving(&text).expect("schema-valid");
        assert!(text.contains("\"requests_sent\": 8"));
        assert!(text.contains("\"server_stages_ms\""));
    }

    #[test]
    fn deterministic_section_excludes_timings() {
        let model = fixture_model();
        let full = render(&sample(&model));
        let section = deterministic_section_of(&full).expect("has a section");
        // Byte-identity across daemon shapes requires these to be
        // absent from the deterministic section.
        for key in ["workers", "queue_capacity", "batch_max", "p50", "_ms"] {
            assert!(!section.contains(key), "{key} in {section}");
        }
        assert!(section.contains("\"observations\": 32"));
        // Daemon-shape knobs live only in the nondeterministic section.
        assert!(full.contains("\"workers\""));
        assert!(full.contains("\"batch_max_wait_ms\""));
    }

    #[test]
    fn validator_rejects_drift() {
        let model = fixture_model();
        let good = render(&sample(&model));
        assert!(validate_serving(&good.replace(SERVING_SCHEMA, "survdb-serving/v1")).is_err());
        assert!(validate_serving(&good.replace("\"counts\"", "\"tallies\"")).is_err());
        assert!(validate_serving(&good.replace("\"stages\"", "\"phases\"")).is_err());
        // Break the ok + shed + error = sent identity.
        assert!(
            validate_serving(&good.replace("\"responses_ok\": 8", "\"responses_ok\": 7")).is_err()
        );
        // Break rows_scored = ok × rows_per_request.
        assert!(
            validate_serving(&good.replace("\"rows_scored\": 32", "\"rows_scored\": 33")).is_err()
        );
        // Break drift.live / drift.scored agreement.
        assert!(validate_serving(&good.replace("\"scored\": 32", "\"scored\": 31")).is_err());
        // A zero knob.
        assert!(validate_serving(&good.replace("\"workers\": 4", "\"workers\": 0")).is_err());
        assert!(validate_serving("{}").is_err());
        assert!(validate_serving("nonsense").is_err());
    }

    #[test]
    fn validator_refuses_counts_that_overflow() {
        let model = fixture_model();
        // Wrapping sums would land exactly on the declared totals.
        let huge = 1u64 << 63;
        let mut run = sample(&model);
        run.drift.live[0] = 777_001;
        run.drift.live[1] = 777_002;
        let text = render(&run)
            .replace("777001", &huge.to_string())
            .replace("777002", &huge.to_string());
        let err = validate_serving(&text).expect_err("drift.live overflows");
        assert!(err.contains("overflows"), "{err}");
        let mut run = sample(&model);
        run.counts.responses_shed = huge;
        run.counts.responses_error = huge;
        let err = validate_serving(&render(&run)).expect_err("answered overflows");
        assert!(err.contains("overflows"), "{err}");
        let mut run = sample(&model);
        run.config.rows_per_request = 1 << 62;
        assert!(validate_serving(&render(&run)).is_err());
    }

    #[test]
    fn write_serving_creates_the_artifact() {
        let model = fixture_model();
        let dir = std::env::temp_dir().join(format!("survdb-serving-{}", std::process::id()));
        let path = write_serving(
            &dir,
            "servecheck",
            &ServerConfig::default(),
            &sample(&model),
        )
        .expect("writes");
        let text = std::fs::read_to_string(&path).expect("readable");
        validate_serving(&text).expect("valid on disk");
        std::fs::remove_dir_all(&dir).ok();
    }
}
