//! The serving artifact: `artifacts/serving.json`.
//!
//! Layout (schema `survdb-serving/v1`), mirroring the run-trace and
//! scoring-artifact two-section convention:
//!
//! ```text
//! {
//!   "schema": "survdb-serving/v1",
//!   "binary": "<emitting binary>",
//!   "deterministic": {          // identical across runs & thread counts
//!     "config": { "connections", "requests", "rows_per_request",
//!                 "workers", "queue_capacity",
//!                 "batch_max_rows", "batch_max_wait_ms" },
//!     "corpus": { "rows", "seed" },
//!     "model": { "tree_count", "feature_count",
//!                "positive_fraction", "confidence_threshold" },
//!     "counts": { "requests_sent", "responses_ok", "responses_shed",
//!                 "responses_error", "rows_scored" },
//!     "score_histogram": [10 × u64]
//!   },
//!   "nondeterministic": {       // wall-clock serving performance
//!     "elapsed_ms", "requests_per_second", "rows_per_second",
//!     "latency_ms": { "p50", "p95", "p99", "max", "mean" }
//!   }
//! }
//! ```
//!
//! A closed-loop load run against a deterministic corpus produces
//! deterministic counts and a deterministic score histogram (every
//! response probability is a pure function of model × row); latency
//! and throughput are wall-clock and live only under
//! `nondeterministic`. The validator enforces the split plus the
//! counting identities (ok + shed + error = sent, histogram sums to
//! rows_scored, latency percentiles monotone) so a drifting producer
//! fails CI instead of shipping inconsistent artifacts.

use obs::artifact::{
    envelope, expect_arr, expect_float, expect_keys, expect_obj, expect_uint, field,
    validate_envelope, write_artifact,
};
use obs::jsonv::JsonV;
use serve::SavedModel;
use std::io;
use std::path::{Path, PathBuf};

/// Schema identifier for `serving.json`.
pub const SERVING_SCHEMA: &str = "survdb-serving/v1";

/// File name the artifact is written under.
pub const SERVING_FILE: &str = "serving.json";

/// The load-run shape — everything that determines the deterministic
/// section besides the model and corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingRunConfig {
    /// Closed-loop client connections.
    pub connections: usize,
    /// Total requests issued.
    pub requests: usize,
    /// Feature rows per request.
    pub rows_per_request: usize,
    /// Daemon worker threads.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Batcher row threshold.
    pub batch_max_rows: usize,
    /// Batcher deadline in milliseconds.
    pub batch_max_wait_ms: u64,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Positive-probability histogram over every scored row, bucketed
    /// by [`serve::histogram_bucket`].
    pub score_histogram: [u64; 10],
}

/// Wall-clock measurements of a load run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingTiming {
    /// Total run wall time in milliseconds.
    pub elapsed_ms: f64,
    /// Completed requests per second.
    pub requests_per_second: f64,
    /// Scored rows per second.
    pub rows_per_second: f64,
    /// 429-triggered client retries performed (0 unless the generator
    /// ran with retries enabled). Timing-dependent — how often the
    /// queue is full when a request lands depends on scheduling — so
    /// it lives in the nondeterministic section.
    pub retries_429: u64,
    /// Request latency p50, milliseconds.
    pub latency_p50_ms: f64,
    /// Request latency p95, milliseconds.
    pub latency_p95_ms: f64,
    /// Request latency p99, milliseconds.
    pub latency_p99_ms: f64,
    /// Slowest request, milliseconds.
    pub latency_max_ms: f64,
    /// Mean request latency, milliseconds.
    pub latency_mean_ms: f64,
}

fn deterministic_json(
    config: &ServingRunConfig,
    corpus: &ServingCorpus,
    model: &SavedModel,
    counts: &ServingCounts,
) -> JsonV {
    JsonV::obj(vec![
        (
            "config",
            JsonV::obj(vec![
                ("connections", JsonV::UInt(config.connections as u64)),
                ("requests", JsonV::UInt(config.requests as u64)),
                (
                    "rows_per_request",
                    JsonV::UInt(config.rows_per_request as u64),
                ),
                ("workers", JsonV::UInt(config.workers as u64)),
                ("queue_capacity", JsonV::UInt(config.queue_capacity as u64)),
                ("batch_max_rows", JsonV::UInt(config.batch_max_rows as u64)),
                ("batch_max_wait_ms", JsonV::UInt(config.batch_max_wait_ms)),
            ]),
        ),
        (
            "corpus",
            JsonV::obj(vec![
                ("rows", JsonV::UInt(corpus.rows as u64)),
                ("seed", JsonV::UInt(corpus.seed)),
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
            "score_histogram",
            JsonV::Arr(
                counts
                    .score_histogram
                    .iter()
                    .map(|&v| JsonV::UInt(v))
                    .collect(),
            ),
        ),
    ])
}

/// Renders only the deterministic section — the byte string the
/// loopback tests pin across worker counts and batch policies.
pub fn deterministic_serving_section(
    config: &ServingRunConfig,
    corpus: &ServingCorpus,
    model: &SavedModel,
    counts: &ServingCounts,
) -> String {
    deterministic_json(config, corpus, model, counts).render()
}

/// Renders the full serving artifact for `binary`.
pub fn render_serving(
    binary: &str,
    config: &ServingRunConfig,
    corpus: &ServingCorpus,
    model: &SavedModel,
    counts: &ServingCounts,
    timing: &ServingTiming,
) -> String {
    envelope(
        SERVING_SCHEMA,
        binary,
        deterministic_json(config, corpus, model, counts),
        JsonV::obj(vec![
            ("elapsed_ms", JsonV::Float(timing.elapsed_ms)),
            (
                "requests_per_second",
                JsonV::Float(timing.requests_per_second),
            ),
            ("rows_per_second", JsonV::Float(timing.rows_per_second)),
            ("retries_429", JsonV::UInt(timing.retries_429)),
            (
                "latency_ms",
                JsonV::obj(vec![
                    ("p50", JsonV::Float(timing.latency_p50_ms)),
                    ("p95", JsonV::Float(timing.latency_p95_ms)),
                    ("p99", JsonV::Float(timing.latency_p99_ms)),
                    ("max", JsonV::Float(timing.latency_max_ms)),
                    ("mean", JsonV::Float(timing.latency_mean_ms)),
                ]),
            ),
        ]),
    )
    .render()
}

/// Writes `dir/serving.json` for `binary`, creating `dir` if needed.
/// Returns the written path.
#[allow(clippy::too_many_arguments)]
pub fn write_serving(
    dir: &Path,
    binary: &str,
    config: &ServingRunConfig,
    corpus: &ServingCorpus,
    model: &SavedModel,
    counts: &ServingCounts,
    timing: &ServingTiming,
) -> io::Result<PathBuf> {
    write_artifact(
        dir,
        SERVING_FILE,
        &render_serving(binary, config, corpus, model, counts, timing),
    )
}

/// Structurally validates a rendered `serving.json`: schema id, the
/// deterministic/nondeterministic split, field types, and the counting
/// identities. `artifact-check` runs it in CI.
pub fn validate_serving(text: &str) -> Result<(), String> {
    let root = validate_envelope(text, SERVING_SCHEMA)?;

    let det = field(&root, "deterministic")?;
    let det_fields = expect_obj(det, "deterministic")?;
    expect_keys(
        det_fields,
        &["config", "corpus", "model", "counts", "score_histogram"],
        "deterministic",
    )?;

    let config = field(det, "config")?;
    let config_fields = expect_obj(config, "config")?;
    expect_keys(
        config_fields,
        &[
            "connections",
            "requests",
            "rows_per_request",
            "workers",
            "queue_capacity",
            "batch_max_rows",
            "batch_max_wait_ms",
        ],
        "config",
    )?;
    for key in [
        "connections",
        "requests",
        "rows_per_request",
        "workers",
        "queue_capacity",
        "batch_max_rows",
    ] {
        if expect_uint(field(config, key)?, key)? == 0 {
            return Err(format!("config.{key} must be nonzero"));
        }
    }
    expect_uint(field(config, "batch_max_wait_ms")?, "batch_max_wait_ms")?;

    let corpus = field(det, "corpus")?;
    let corpus_fields = expect_obj(corpus, "corpus")?;
    expect_keys(corpus_fields, &["rows", "seed"], "corpus")?;
    if expect_uint(field(corpus, "rows")?, "corpus.rows")? == 0 {
        return Err("corpus.rows must be nonzero".to_string());
    }
    expect_uint(field(corpus, "seed")?, "corpus.seed")?;

    let model = field(det, "model")?;
    let model_fields = expect_obj(model, "model")?;
    expect_keys(
        model_fields,
        &[
            "tree_count",
            "feature_count",
            "positive_fraction",
            "confidence_threshold",
        ],
        "model",
    )?;
    for key in ["tree_count", "feature_count"] {
        if expect_uint(field(model, key)?, key)? == 0 {
            return Err(format!("model.{key} must be nonzero"));
        }
    }
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
    let count_fields = expect_obj(counts, "counts")?;
    expect_keys(
        count_fields,
        &[
            "requests_sent",
            "responses_ok",
            "responses_shed",
            "responses_error",
            "rows_scored",
        ],
        "counts",
    )?;
    let get_count = |key: &str| expect_uint(field(counts, key)?, key);
    let sent = get_count("requests_sent")?;
    if sent == 0 {
        return Err("counts.requests_sent must be nonzero".to_string());
    }
    let ok = get_count("responses_ok")?;
    if ok + get_count("responses_shed")? + get_count("responses_error")? != sent {
        return Err(
            "responses_ok + responses_shed + responses_error must equal requests_sent".to_string(),
        );
    }
    let rows_scored = get_count("rows_scored")?;
    if ok > 0 && rows_scored == 0 {
        return Err("rows_scored must be nonzero when responses_ok > 0".to_string());
    }

    let histogram = expect_arr(field(det, "score_histogram")?, "score_histogram")?;
    if histogram.len() != 10 {
        return Err(format!(
            "score_histogram must have 10 buckets, found {}",
            histogram.len()
        ));
    }
    let mut total = 0u64;
    for (i, bucket) in histogram.iter().enumerate() {
        total += expect_uint(bucket, &format!("score_histogram[{i}]"))?;
    }
    if total != rows_scored {
        return Err(format!(
            "score_histogram sums to {total}, counts.rows_scored is {rows_scored}"
        ));
    }

    let nondet = field(&root, "nondeterministic")?;
    let nondet_fields = expect_obj(nondet, "nondeterministic")?;
    expect_keys(
        nondet_fields,
        &[
            "elapsed_ms",
            "requests_per_second",
            "rows_per_second",
            "retries_429",
            "latency_ms",
        ],
        "nondeterministic",
    )?;
    expect_uint(field(nondet, "retries_429")?, "retries_429")?;
    for key in ["elapsed_ms", "requests_per_second", "rows_per_second"] {
        let v = expect_float(field(nondet, key)?, key)?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("{key} must be finite and non-negative, found {v}"));
        }
    }
    let latency = field(nondet, "latency_ms")?;
    let latency_fields = expect_obj(latency, "latency_ms")?;
    expect_keys(
        latency_fields,
        &["p50", "p95", "p99", "max", "mean"],
        "latency_ms",
    )?;
    let get_latency = |key: &str| expect_float(field(latency, key)?, key);
    let p50 = get_latency("p50")?;
    let p95 = get_latency("p95")?;
    let p99 = get_latency("p99")?;
    let max = get_latency("max")?;
    let mean = get_latency("mean")?;
    for (key, v) in [
        ("p50", p50),
        ("p95", p95),
        ("p99", p99),
        ("max", max),
        ("mean", mean),
    ] {
        if !v.is_finite() || v < 0.0 {
            return Err(format!(
                "latency_ms.{key} must be finite and non-negative, found {v}"
            ));
        }
    }
    if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
        return Err(format!(
            "latency percentiles must be monotone: p50 {p50}, p95 {p95}, p99 {p99}, max {max}"
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

    fn sample() -> (
        ServingRunConfig,
        ServingCorpus,
        ServingCounts,
        ServingTiming,
    ) {
        (
            ServingRunConfig {
                connections: 4,
                requests: 200,
                rows_per_request: 4,
                workers: 4,
                queue_capacity: 128,
                batch_max_rows: 64,
                batch_max_wait_ms: 2,
            },
            ServingCorpus {
                rows: 120,
                seed: 42,
            },
            ServingCounts {
                requests_sent: 200,
                responses_ok: 200,
                responses_shed: 0,
                responses_error: 0,
                rows_scored: 800,
                score_histogram: [100, 100, 80, 80, 40, 40, 80, 80, 100, 100],
            },
            ServingTiming {
                elapsed_ms: 120.5,
                requests_per_second: 1660.0,
                rows_per_second: 6640.0,
                retries_429: 0,
                latency_p50_ms: 1.2,
                latency_p95_ms: 3.4,
                latency_p99_ms: 5.6,
                latency_max_ms: 9.9,
                latency_mean_ms: 1.5,
            },
        )
    }

    #[test]
    fn rendered_serving_validates() {
        let model = fixture_model();
        let (config, corpus, counts, timing) = sample();
        let text = render_serving("loadgen", &config, &corpus, &model, &counts, &timing);
        validate_serving(&text).expect("schema-valid");
        assert!(text.contains("\"requests_sent\": 200"));
        assert!(text.contains("\"score_histogram\""));
    }

    #[test]
    fn deterministic_section_excludes_timings() {
        let model = fixture_model();
        let (config, corpus, counts, _) = sample();
        let section = deterministic_serving_section(&config, &corpus, &model, &counts);
        assert!(!section.contains("elapsed_ms"));
        assert!(!section.contains("latency"));
        assert!(section.contains("\"rows_scored\": 800"));
    }

    #[test]
    fn validator_rejects_drift() {
        let model = fixture_model();
        let (config, corpus, counts, timing) = sample();
        let good = render_serving("loadgen", &config, &corpus, &model, &counts, &timing);
        assert!(validate_serving(&good.replace(SERVING_SCHEMA, "survdb-serving/v2")).is_err());
        assert!(validate_serving(&good.replace("\"counts\"", "\"tallies\"")).is_err());
        // Break the ok + shed + error = sent identity.
        assert!(
            validate_serving(&good.replace("\"responses_ok\": 200", "\"responses_ok\": 199"))
                .is_err()
        );
        // Break the histogram/rows_scored identity.
        assert!(
            validate_serving(&good.replace("\"rows_scored\": 800", "\"rows_scored\": 801"))
                .is_err()
        );
        // Break latency monotonicity.
        assert!(validate_serving(&good.replace("\"p95\": 3.4", "\"p95\": 99.0")).is_err());
        assert!(validate_serving("{}").is_err());
        assert!(validate_serving("nonsense").is_err());
    }

    #[test]
    fn write_serving_creates_the_artifact() {
        let model = fixture_model();
        let (config, corpus, counts, timing) = sample();
        let dir = std::env::temp_dir().join(format!("survdb-serving-{}", std::process::id()));
        let path = write_serving(&dir, "loadgen", &config, &corpus, &model, &counts, &timing)
            .expect("writes");
        let text = std::fs::read_to_string(&path).expect("readable");
        validate_serving(&text).expect("valid on disk");
        std::fs::remove_dir_all(&dir).ok();
    }
}
