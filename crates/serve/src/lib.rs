//! Model persistence and batch scoring — the train-once/score-many
//! layer on top of `forest`.
//!
//! The paper's end product is a day-2 classifier whose predictions are
//! partitioned into confident and uncertain sets by the threshold
//! `t = max(q, 1 − q)` (§5.3). Training that classifier is expensive
//! (grid search over a forest grid with 5-fold CV); scoring it is
//! cheap. This crate separates the two:
//!
//! - [`format`] — the `survdb-model/v1` on-disk format: a versioned,
//!   byte-deterministic JSON document holding the forest (flat-array
//!   node layout), the feature schema, the training prevalence `q`,
//!   and grid-search provenance. [`SavedModel::save`] /
//!   [`SavedModel::load`] round-trip byte-identically and a loaded
//!   forest reproduces the in-memory model's predictions bitwise.
//! - [`score`] — [`score_batch`]: batched scoring through the
//!   branchless cache-blocked [`forest::flatkernel`] kernel over
//!   `forest::parallel::run_units_scratch`, with
//!   thread-count-invariant output order, emitting per-row class
//!   probabilities plus the paper's confident/uncertain partition.
//!   The pre-kernel recursive walk is kept as
//!   [`score_batch_recursive`] — the frozen bitwise-parity reference.
//! - [`artifact`] — `artifacts/scoring.json` (`survdb-scoring/v1`),
//!   split into a deterministic counts section and a nondeterministic
//!   throughput section, mirroring the run-trace convention.
//!
//! Malformed model files produce a typed [`ModelError`], never a
//! panic — corruption robustness is pinned by fuzz-style tests that
//! bit-flip saved models.

pub mod artifact;
pub mod error;
pub mod format;
pub mod score;

pub use artifact::{
    deterministic_scoring_section, render_scoring, training_score_histogram, validate_scoring,
    write_scoring, ScoreBench, ScoringTiming, SCORING_FILE, SCORING_SCHEMA,
};
pub use error::ModelError;
pub use forest::flatkernel::{ForestKernel, KernelScratch, KernelStats};
pub use format::{GridProvenance, ModelMeta, SavedModel, MODEL_FILE, MODEL_SCHEMA};
pub use score::{
    histogram_bucket, score_batch, score_batch_recursive, score_batch_with, score_rows,
    score_rows_with, ScoreFacts, ScoreSummary, ScoredBatch, ScoredRow,
};
