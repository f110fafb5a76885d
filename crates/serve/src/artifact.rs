//! The scoring artifact: `artifacts/scoring.json`.
//!
//! Layout (schema `survdb-scoring/v1`), mirroring the run-trace
//! two-section convention:
//!
//! ```text
//! {
//!   "schema": "survdb-scoring/v1",
//!   "binary": "<emitting binary>",
//!   "deterministic": {           // byte-identical across runs & thread counts
//!     "model": { "tree_count", "feature_count", "class_count",
//!                "seed", "positive_fraction", "confidence_threshold" },
//!     "counts": { "rows", "confident", "uncertain",
//!                 "predicted_positive", "predicted_negative",
//!                 "confident_positive", "confident_negative" },
//!     "mean_positive_probability": f64,
//!     "probability_histogram": [10 × u64]
//!   },
//!   "nondeterministic": {        // wall-clock throughput
//!     "thread_limit": u64,
//!     "elapsed_ms": f64,
//!     "rows_per_second": f64,
//!     "scorebench": {             // recursive vs kernel comparison
//!       "rows": u64,
//!       "recursive_rows_per_second":  f64,
//!       "branchless_rows_per_second": f64,
//!       "blocked_rows_per_second":    f64,
//!       "branchless_speedup": f64,
//!       "blocked_speedup":    f64
//!     }
//!   }
//! }
//! ```
//!
//! Everything under `deterministic` is a pure function of
//! `(model, dataset, q)`; timings and thread counts live only under
//! `nondeterministic`. The schema check enforces the split plus the
//! counting identities (confident + uncertain = rows, histogram sums
//! to rows, …) so a drifting producer fails CI instead of shipping
//! silently inconsistent artifacts.

use crate::format::SavedModel;
use crate::score::ScoreSummary;
use obs::artifact::{
    envelope, expect_arr, expect_float, expect_keys, expect_obj, expect_uint, field,
    validate_envelope, write_artifact,
};
use obs::jsonv::{self, JsonV};
use std::io;
use std::path::{Path, PathBuf};

/// Schema identifier for `scoring.json`.
pub const SCORING_SCHEMA: &str = "survdb-scoring/v1";

/// File name the artifact is written under.
pub const SCORING_FILE: &str = "scoring.json";

/// Wall-clock measurements of a scoring run — the nondeterministic
/// section of the artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoringTiming {
    /// Worker-thread cap in effect (`forest::parallel::thread_limit()`).
    pub thread_limit: usize,
    /// Total scoring wall time in milliseconds.
    pub elapsed_ms: f64,
    /// Scored rows per second (0 for an instantaneous/empty batch).
    pub rows_per_second: f64,
    /// Recursive-vs-kernel throughput comparison on the same corpus.
    pub scorebench: ScoreBench,
}

/// Throughput of each scoring implementation on one corpus — the
/// `scorebench` object inside the nondeterministic section. All three
/// paths score the identical rows; the recursive and branchless paths
/// must agree bitwise with the blocked path before timings are
/// recorded (the `scored` binary exits nonzero on mismatch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreBench {
    /// Rows in the timed corpus.
    pub rows: usize,
    /// Recursive pointer-chasing baseline (`score_batch_recursive`).
    pub recursive_rows_per_second: f64,
    /// Branchless kernel, one row at a time (`predict_proba_into`).
    pub branchless_rows_per_second: f64,
    /// Cache-blocked kernel, the default path (`score_batch_with`).
    pub blocked_rows_per_second: f64,
}

impl ScoreBench {
    /// Branchless-over-recursive throughput ratio (0 when the
    /// baseline measured 0 rows/sec).
    pub fn branchless_speedup(&self) -> f64 {
        speedup(
            self.branchless_rows_per_second,
            self.recursive_rows_per_second,
        )
    }

    /// Blocked-over-recursive throughput ratio.
    pub fn blocked_speedup(&self) -> f64 {
        speedup(self.blocked_rows_per_second, self.recursive_rows_per_second)
    }
}

fn speedup(fast: f64, baseline: f64) -> f64 {
    if baseline > 0.0 {
        fast / baseline
    } else {
        0.0
    }
}

fn deterministic_json(model: &SavedModel, summary: &ScoreSummary) -> JsonV {
    JsonV::obj(vec![
        (
            "model",
            JsonV::obj(vec![
                ("tree_count", JsonV::UInt(model.forest.tree_count() as u64)),
                (
                    "feature_count",
                    JsonV::UInt(model.forest.feature_names().len() as u64),
                ),
                (
                    "class_count",
                    JsonV::UInt(model.forest.class_count() as u64),
                ),
                ("seed", JsonV::UInt(model.meta.seed)),
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
                ("rows", JsonV::UInt(summary.rows as u64)),
                ("confident", JsonV::UInt(summary.confident as u64)),
                ("uncertain", JsonV::UInt(summary.uncertain as u64)),
                (
                    "predicted_positive",
                    JsonV::UInt(summary.predicted_positive as u64),
                ),
                (
                    "predicted_negative",
                    JsonV::UInt(summary.predicted_negative as u64),
                ),
                (
                    "confident_positive",
                    JsonV::UInt(summary.confident_positive as u64),
                ),
                (
                    "confident_negative",
                    JsonV::UInt(summary.confident_negative as u64),
                ),
            ]),
        ),
        (
            "mean_positive_probability",
            JsonV::Float(summary.mean_positive),
        ),
        (
            "probability_histogram",
            JsonV::Arr(summary.histogram.iter().map(|&v| JsonV::UInt(v)).collect()),
        ),
    ])
}

/// Renders only the deterministic section — the byte string tests pin
/// across thread counts.
pub fn deterministic_scoring_section(model: &SavedModel, summary: &ScoreSummary) -> String {
    deterministic_json(model, summary).render()
}

/// Renders the full scoring artifact for `binary`.
pub fn render_scoring(
    binary: &str,
    model: &SavedModel,
    summary: &ScoreSummary,
    timing: &ScoringTiming,
) -> String {
    envelope(
        SCORING_SCHEMA,
        binary,
        deterministic_json(model, summary),
        JsonV::obj(vec![
            ("thread_limit", JsonV::UInt(timing.thread_limit as u64)),
            ("elapsed_ms", JsonV::Float(timing.elapsed_ms)),
            ("rows_per_second", JsonV::Float(timing.rows_per_second)),
            (
                "scorebench",
                JsonV::obj(vec![
                    ("rows", JsonV::UInt(timing.scorebench.rows as u64)),
                    (
                        "recursive_rows_per_second",
                        JsonV::Float(timing.scorebench.recursive_rows_per_second),
                    ),
                    (
                        "branchless_rows_per_second",
                        JsonV::Float(timing.scorebench.branchless_rows_per_second),
                    ),
                    (
                        "blocked_rows_per_second",
                        JsonV::Float(timing.scorebench.blocked_rows_per_second),
                    ),
                    (
                        "branchless_speedup",
                        JsonV::Float(timing.scorebench.branchless_speedup()),
                    ),
                    (
                        "blocked_speedup",
                        JsonV::Float(timing.scorebench.blocked_speedup()),
                    ),
                ]),
            ),
        ]),
    )
    .render()
}

/// Writes `dir/scoring.json` for `binary`, creating `dir` if needed.
/// Returns the written path.
pub fn write_scoring(
    dir: &Path,
    binary: &str,
    model: &SavedModel,
    summary: &ScoreSummary,
    timing: &ScoringTiming,
) -> io::Result<PathBuf> {
    write_artifact(
        dir,
        SCORING_FILE,
        &render_scoring(binary, model, summary, timing),
    )
}

/// Structurally validates a rendered `scoring.json`: schema id, the
/// deterministic/nondeterministic split, field types, and the counting
/// identities. `artifact-check` runs it in CI.
pub fn validate_scoring(text: &str) -> Result<(), String> {
    let root = validate_envelope(text, SCORING_SCHEMA)?;

    let det = field(&root, "deterministic")?;
    let det_fields = expect_obj(det, "deterministic")?;
    expect_keys(
        det_fields,
        &[
            "model",
            "counts",
            "mean_positive_probability",
            "probability_histogram",
        ],
        "deterministic",
    )?;

    let model = field(det, "model")?;
    let model_fields = expect_obj(model, "model")?;
    expect_keys(
        model_fields,
        &[
            "tree_count",
            "feature_count",
            "class_count",
            "seed",
            "positive_fraction",
            "confidence_threshold",
        ],
        "model",
    )?;
    for key in ["tree_count", "feature_count", "class_count"] {
        if expect_uint(field(model, key)?, key)? == 0 {
            return Err(format!("model.{key} must be nonzero"));
        }
    }
    expect_uint(field(model, "seed")?, "seed")?;
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
            "rows",
            "confident",
            "uncertain",
            "predicted_positive",
            "predicted_negative",
            "confident_positive",
            "confident_negative",
        ],
        "counts",
    )?;
    let get_count = |key: &str| expect_uint(field(counts, key)?, key);
    let rows = get_count("rows")?;
    let confident = get_count("confident")?;
    if confident + get_count("uncertain")? != rows {
        return Err("confident + uncertain must equal rows".to_string());
    }
    if get_count("predicted_positive")? + get_count("predicted_negative")? != rows {
        return Err("predicted_positive + predicted_negative must equal rows".to_string());
    }
    if get_count("confident_positive")? + get_count("confident_negative")? != confident {
        return Err("confident_positive + confident_negative must equal confident".to_string());
    }

    let mean = expect_float(
        field(det, "mean_positive_probability")?,
        "mean_positive_probability",
    )?;
    if !(0.0..=1.0).contains(&mean) {
        return Err(format!("mean_positive_probability {mean} outside [0, 1]"));
    }

    let histogram = expect_arr(
        field(det, "probability_histogram")?,
        "probability_histogram",
    )?;
    if histogram.len() != 10 {
        return Err(format!(
            "probability_histogram must have 10 buckets, found {}",
            histogram.len()
        ));
    }
    let mut total = 0u64;
    for (i, bucket) in histogram.iter().enumerate() {
        total += expect_uint(bucket, &format!("probability_histogram[{i}]"))?;
    }
    if total != rows {
        return Err(format!(
            "probability_histogram sums to {total}, counts.rows is {rows}"
        ));
    }

    let nondet = field(&root, "nondeterministic")?;
    let nondet_fields = expect_obj(nondet, "nondeterministic")?;
    expect_keys(
        nondet_fields,
        &[
            "thread_limit",
            "elapsed_ms",
            "rows_per_second",
            "scorebench",
        ],
        "nondeterministic",
    )?;
    expect_uint(field(nondet, "thread_limit")?, "thread_limit")?;
    for key in ["elapsed_ms", "rows_per_second"] {
        if !matches!(field(nondet, key)?, JsonV::Float(_) | JsonV::Null) {
            return Err(format!("{key} must be a float"));
        }
    }

    let bench = field(nondet, "scorebench")?;
    let bench_fields = expect_obj(bench, "scorebench")?;
    expect_keys(
        bench_fields,
        &[
            "rows",
            "recursive_rows_per_second",
            "branchless_rows_per_second",
            "blocked_rows_per_second",
            "branchless_speedup",
            "blocked_speedup",
        ],
        "scorebench",
    )?;
    expect_uint(field(bench, "rows")?, "scorebench.rows")?;
    for key in [
        "recursive_rows_per_second",
        "branchless_rows_per_second",
        "blocked_rows_per_second",
        "branchless_speedup",
        "blocked_speedup",
    ] {
        let v = expect_float(field(bench, key)?, key)?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("scorebench.{key} {v} must be finite and >= 0"));
        }
    }
    Ok(())
}

/// Extracts the training-time score histogram
/// (`deterministic.probability_histogram`) from a rendered
/// `scoring.json`. A serving daemon seeds its drift monitor's
/// reference side with this, so "live vs. training" comparisons use
/// the exact counts the scoring artifact shipped.
pub fn training_score_histogram(text: &str) -> Result<[u64; 10], String> {
    let root = jsonv::parse(text)?;
    let det = field(&root, "deterministic")?;
    let histogram = expect_arr(
        field(det, "probability_histogram")?,
        "probability_histogram",
    )?;
    if histogram.len() != 10 {
        return Err(format!(
            "probability_histogram must have 10 buckets, found {}",
            histogram.len()
        ));
    }
    let mut buckets = [0u64; 10];
    for (out, (i, bucket)) in buckets.iter_mut().zip(histogram.iter().enumerate()) {
        *out = expect_uint(bucket, &format!("probability_histogram[{i}]"))?;
    }
    Ok(buckets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ModelMeta;
    use crate::score::score_batch;
    use forest::{set_thread_limit, Dataset, RandomForest, RandomForestParams};

    fn fixture() -> (Dataset, SavedModel) {
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()], 2);
        for i in 0..200 {
            let x0 = i as f64 / 200.0;
            let x1 = ((i * 29) % 200) as f64 / 200.0;
            d.push(vec![x0, x1], (x0 + 0.1 * x1 > 0.5) as usize);
        }
        let params = RandomForestParams {
            n_trees: 10,
            ..RandomForestParams::default()
        };
        let forest = RandomForest::fit(&d, &params, 11);
        let meta = ModelMeta {
            positive_fraction: d.class_fraction(1),
            seed: 11,
            params,
            grid: None,
        };
        (d, SavedModel::new(forest, meta))
    }

    fn sample_timing() -> ScoringTiming {
        ScoringTiming {
            thread_limit: 4,
            elapsed_ms: 1.25,
            rows_per_second: 160000.0,
            scorebench: ScoreBench {
                rows: 200,
                recursive_rows_per_second: 20000.0,
                branchless_rows_per_second: 80000.0,
                blocked_rows_per_second: 160000.0,
            },
        }
    }

    #[test]
    fn rendered_scoring_validates() {
        let (data, model) = fixture();
        let summary = score_batch(&model.forest, &data, model.meta.positive_fraction).summary();
        let text = render_scoring("scored", &model, &summary, &sample_timing());
        validate_scoring(&text).expect("schema-valid");
        assert!(text.contains("\"rows\": 200"));
        assert!(text.contains("\"probability_histogram\""));
    }

    #[test]
    fn deterministic_section_is_thread_invariant() {
        let (data, model) = fixture();
        set_thread_limit(Some(1));
        let serial = score_batch(&model.forest, &data, model.meta.positive_fraction).summary();
        set_thread_limit(Some(8));
        let parallel = score_batch(&model.forest, &data, model.meta.positive_fraction).summary();
        set_thread_limit(None);
        assert_eq!(
            deterministic_scoring_section(&model, &serial),
            deterministic_scoring_section(&model, &parallel)
        );
        // Timings are excluded from the deterministic section.
        assert!(!deterministic_scoring_section(&model, &serial).contains("elapsed_ms"));
    }

    #[test]
    fn validator_rejects_drift() {
        let (data, model) = fixture();
        let summary = score_batch(&model.forest, &data, model.meta.positive_fraction).summary();
        let good = render_scoring("scored", &model, &summary, &sample_timing());
        assert!(validate_scoring(&good.replace(SCORING_SCHEMA, "survdb-scoring/v2")).is_err());
        assert!(validate_scoring(&good.replace("\"counts\"", "\"tallies\"")).is_err());
        // Break the histogram/rows identity.
        assert!(validate_scoring(&good.replace("\"rows\": 200", "\"rows\": 201")).is_err());
        assert!(validate_scoring("{}").is_err());
        assert!(validate_scoring("nonsense").is_err());
        // scorebench drift: missing key, negative rate.
        assert!(validate_scoring(&good.replace("\"scorebench\"", "\"kernelbench\"")).is_err());
        assert!(validate_scoring(&good.replace(
            "\"recursive_rows_per_second\": 20000",
            "\"recursive_rows_per_second\": -1"
        ))
        .is_err());
    }

    #[test]
    fn training_histogram_round_trips_from_the_artifact() {
        let (data, model) = fixture();
        let summary = score_batch(&model.forest, &data, model.meta.positive_fraction).summary();
        let text = render_scoring("scored", &model, &summary, &sample_timing());
        let histogram = training_score_histogram(&text).expect("parses");
        assert_eq!(histogram, summary.histogram);
        assert_eq!(histogram.iter().sum::<u64>(), summary.rows as u64);
        assert!(training_score_histogram("{}").is_err());
        assert!(training_score_histogram("nonsense").is_err());
        // Truncated histogram is rejected.
        let truncated = text.replacen("0, ", "", 1);
        if truncated != text {
            assert!(training_score_histogram(&truncated).is_err());
        }
    }

    #[test]
    fn write_scoring_creates_the_artifact() {
        let (data, model) = fixture();
        let summary = score_batch(&model.forest, &data, model.meta.positive_fraction).summary();
        let dir = std::env::temp_dir().join(format!("survdb-scoring-{}", std::process::id()));
        let path =
            write_scoring(&dir, "scored", &model, &summary, &sample_timing()).expect("writes");
        let text = std::fs::read_to_string(&path).expect("readable");
        validate_scoring(&text).expect("valid on disk");
        std::fs::remove_dir_all(&dir).ok();
    }
}
