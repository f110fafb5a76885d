//! Batched parallel scoring with thread-count-invariant output.
//!
//! The default path runs the branchless cache-blocked
//! [`forest::flatkernel`] kernel: [`score_batch`] gathers contiguous
//! row chunks, dispatches them through
//! `forest::parallel::run_units_scratch` (tile/cursor/accumulator
//! buffers are per-worker scratch — the hot loop allocates nothing
//! per row), and each chunk traverses the linearized forest one row
//! tile at a time. Results come back index-slotted, so concatenating
//! them yields rows in dataset order no matter how many worker
//! threads ran. Per row it emits the full class-probability vector,
//! the positive-class probability, the paper's decision rule
//! (`p > 0.5`), and the §5.3 confident/uncertain split under
//! `t = max(q, 1 − q)`.
//!
//! The pre-kernel recursive walk survives as
//! [`score_batch_recursive`] — the reference the kernel is
//! cross-checked against bitwise: same rows, same probabilities, same
//! bits.

use forest::confidence::classify_confidence;
use forest::flatkernel::{ForestKernel, KernelScratch, KernelStats, ROW_TILE};
use forest::{
    confidence_threshold, ConfidenceSplit, Dataset, PartitionedPredictions, RandomForest,
};

/// Rows per parallel work unit — large enough to amortize dispatch,
/// small enough to balance across workers on modest batches. Equals
/// `forest::flatkernel::ROW_TILE`, so one chunk is one kernel tile.
const CHUNK_ROWS: usize = 64;

/// One scored example.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredRow {
    /// Row index in the scored dataset.
    pub index: usize,
    /// Averaged per-class probabilities from the forest.
    pub probabilities: Vec<f64>,
    /// Probability of the positive class (class 1).
    pub positive: f64,
    /// Predicted class under the paper's `p > 0.5` rule.
    pub predicted: usize,
    /// Confident or uncertain under `t = max(q, 1 − q)`.
    pub split: ConfidenceSplit,
}

/// The result of scoring a dataset: rows in dataset order plus the
/// threshold context they were classified under.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredBatch {
    /// Training positive fraction the threshold derives from.
    pub positive_fraction: f64,
    /// The §5.3 threshold `max(q, 1 − q)`.
    pub threshold: f64,
    /// Scored rows, index `i` at position `i`.
    pub rows: Vec<ScoredRow>,
}

/// The slice of a [`ScoredRow`] the provisioning policy layer
/// consumes: the positive-class probability, the paper's `p > 0.5`
/// decision, and the §5.3 confident/uncertain split. Probabilities
/// for other classes, row indices, and threshold context are
/// deliberately absent — a policy decision must be a pure function of
/// these facts (plus the subgroup and the spec), which the policy
/// crate's proptests pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreFacts {
    /// Probability of the positive (long-lived) class.
    pub positive: f64,
    /// Predicted class under `p > 0.5`.
    pub predicted: usize,
    /// Confident or uncertain under `t = max(q, 1 − q)`.
    pub split: ConfidenceSplit,
}

impl From<&ScoredRow> for ScoreFacts {
    fn from(row: &ScoredRow) -> ScoreFacts {
        ScoreFacts {
            positive: row.positive,
            predicted: row.predicted,
            split: row.split,
        }
    }
}

impl ScoredBatch {
    /// Positive-class probabilities in row order.
    pub fn positives(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.positive).collect()
    }

    /// The batch reduced to policy inputs, row order preserved — the
    /// scored-batch → decision-layer adapter.
    pub fn facts(&self) -> Vec<ScoreFacts> {
        self.rows.iter().map(ScoreFacts::from).collect()
    }

    /// The batch as a [`PartitionedPredictions`] — exactly what
    /// `PartitionedPredictions::partition` over [`ScoredBatch::positives`]
    /// produces, so persisted-and-rescored output can be compared
    /// directly against the in-memory pipeline.
    pub fn partition(&self) -> PartitionedPredictions {
        PartitionedPredictions::partition(&self.positives(), self.positive_fraction)
    }

    /// Deterministic count aggregates for reports and artifacts.
    pub fn summary(&self) -> ScoreSummary {
        let mut summary = ScoreSummary {
            rows: self.rows.len(),
            confident: 0,
            uncertain: 0,
            predicted_positive: 0,
            predicted_negative: 0,
            confident_positive: 0,
            confident_negative: 0,
            positive_fraction: self.positive_fraction,
            threshold: self.threshold,
            mean_positive: 0.0,
            histogram: [0; 10],
        };
        let mut sum = 0.0;
        for row in &self.rows {
            sum += row.positive;
            summary.histogram[histogram_bucket(row.positive)] += 1;
            if row.predicted == 1 {
                summary.predicted_positive += 1;
            } else {
                summary.predicted_negative += 1;
            }
            match row.split {
                ConfidenceSplit::Confident => {
                    summary.confident += 1;
                    if row.predicted == 1 {
                        summary.confident_positive += 1;
                    } else {
                        summary.confident_negative += 1;
                    }
                }
                ConfidenceSplit::Uncertain => summary.uncertain += 1,
            }
        }
        if !self.rows.is_empty() {
            summary.mean_positive = sum / self.rows.len() as f64;
        }
        summary
    }
}

/// Count aggregates of a scored batch. Every field is a deterministic
/// function of `(model, dataset, q)` — thread count never shows up.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreSummary {
    /// Rows scored.
    pub rows: usize,
    /// Rows with `p >= t` or `p <= 1 − t`.
    pub confident: usize,
    /// Rows strictly inside `(1 − t, t)`.
    pub uncertain: usize,
    /// Rows predicted positive (`p > 0.5`).
    pub predicted_positive: usize,
    /// Rows predicted negative.
    pub predicted_negative: usize,
    /// Confident rows predicted positive.
    pub confident_positive: usize,
    /// Confident rows predicted negative.
    pub confident_negative: usize,
    /// Training positive fraction `q`.
    pub positive_fraction: f64,
    /// `max(q, 1 − q)`.
    pub threshold: f64,
    /// Mean positive-class probability (0 when the batch is empty).
    pub mean_positive: f64,
    /// Positive-probability histogram: bucket `b` counts rows with
    /// `p` in `[b/10, (b+1)/10)` (the last bucket includes 1.0).
    pub histogram: [u64; 10],
}

/// The [`ScoreSummary::histogram`] bucket for a positive-class
/// probability.
///
/// Buckets follow a half-open convention: bucket `b` covers
/// `[b/10, (b+1)/10)`, except the last bucket, which closes at 1.0.
/// Boundary probabilities therefore land deterministically in the
/// *upper* bucket — 0.1 is bucket 1, 0.5 is bucket 5 — and exactly
/// 1.0 folds into bucket 9 rather than a phantom bucket 10. Every
/// artifact and report that renders the histogram shares this one
/// definition — [`obs::drift::score_bucket`], which the serving
/// drift monitor also uses, so training-time and live histograms are
/// bucket-compatible by construction.
pub fn histogram_bucket(positive: f64) -> usize {
    obs::drift::score_bucket(positive)
}

/// Where a scoring call reads its feature rows from: the columnar
/// dataset path or the serving path's raw request rows. Both gather
/// straight into the kernel's feature-major tile layout, so no
/// transpose sits between the gather and the traversal.
enum RowSource<'a> {
    Data(&'a Dataset),
    Rows(&'a [Vec<f64>]),
}

impl RowSource<'_> {
    fn len(&self) -> usize {
        match self {
            RowSource::Data(data) => data.len(),
            RowSource::Rows(rows) => rows.len(),
        }
    }

    /// Gathers rows `lo..lo + len` into `tile` feature-major with
    /// stride [`ROW_TILE`] (`tile[f * ROW_TILE + r]`) — the layout
    /// [`ForestKernel::score_tile_into`] consumes directly. The
    /// columnar dataset path is one contiguous memcpy per feature;
    /// only the serving path's row-major request rows pay a scatter.
    fn fill_tile(&self, lo: usize, len: usize, feature_count: usize, tile: &mut [f64]) {
        match self {
            RowSource::Data(data) => {
                for f in 0..feature_count {
                    tile[f * ROW_TILE..f * ROW_TILE + len]
                        .copy_from_slice(&data.column(f)[lo..lo + len]);
                }
            }
            RowSource::Rows(rows) => {
                for (r, row) in rows[lo..lo + len].iter().enumerate() {
                    for (f, &v) in row.iter().enumerate() {
                        tile[f * ROW_TILE + r] = v;
                    }
                }
            }
        }
    }
}

/// Per-worker scoring scratch: one gathered feature-major tile, one
/// probability accumulator, and the kernel's traversal cursors.
/// Allocated once per participating thread by `run_units_scratch`,
/// reused across chunks.
struct ScoreScratch {
    tile: Vec<f64>,
    probs: Vec<f64>,
    kernel: KernelScratch,
}

/// The kernel-backed chunked scoring driver shared by every entry
/// point. `chunk_rows` is fixed at [`CHUNK_ROWS`] in production;
/// tests vary it to pin chunking-seam invariance.
fn score_chunks(
    kernel: &ForestKernel,
    source: &RowSource<'_>,
    positive_fraction: f64,
    chunk_rows: usize,
) -> ScoredBatch {
    let _span = obs::span!("score_batch");
    let threshold = confidence_threshold(positive_fraction);
    let n = source.len();
    let nf = kernel.feature_count();
    let cc = kernel.class_count();
    let chunks = n.div_ceil(chunk_rows);
    let scored: Vec<(Vec<ScoredRow>, KernelStats)> = forest::parallel::run_units_scratch(
        chunks,
        || ScoreScratch {
            tile: vec![0.0; nf * ROW_TILE],
            probs: vec![0.0; chunk_rows * cc],
            kernel: KernelScratch::new(),
        },
        |scratch, c| {
            let lo = c * chunk_rows;
            let len = chunk_rows.min(n - lo);
            // One kernel tile at a time: gather feature-major, then
            // traverse in place. Production chunks equal ROW_TILE, so
            // this loop runs once; the oversized-chunk test hook
            // walks multiple tiles.
            let mut stats = KernelStats::default();
            let mut done = 0usize;
            while done < len {
                let tile_len = ROW_TILE.min(len - done);
                source.fill_tile(lo + done, tile_len, nf, &mut scratch.tile);
                stats.merge(kernel.score_tile_into(
                    &scratch.tile,
                    tile_len,
                    &mut scratch.kernel,
                    &mut scratch.probs[done * cc..(done + tile_len) * cc],
                ));
                done += tile_len;
            }
            let mut out = Vec::with_capacity(len);
            for r in 0..len {
                let probabilities = scratch.probs[r * cc..(r + 1) * cc].to_vec();
                let positive = probabilities[1];
                out.push(ScoredRow {
                    index: lo + r,
                    positive,
                    predicted: (positive > 0.5) as usize,
                    split: classify_confidence(positive, threshold),
                    probabilities,
                });
            }
            (out, stats)
        },
    );
    let mut stats = KernelStats::default();
    let mut rows: Vec<ScoredRow> = Vec::with_capacity(n);
    for (chunk, chunk_stats) in scored {
        stats.merge(chunk_stats);
        rows.extend(chunk);
    }
    let confident = rows
        .iter()
        .filter(|r| r.split == ConfidenceSplit::Confident)
        .count();
    if obs::enabled() {
        obs::count_many(&[
            ("serve.rows_scored", rows.len() as u64),
            ("serve.score_chunks", chunks as u64),
            ("serve.rows_confident", confident as u64),
            ("serve.rows_uncertain", (rows.len() - confident) as u64),
            ("serve.kernel.node_steps", stats.node_steps),
            ("serve.kernel.row_tiles", stats.row_tiles),
        ]);
    }
    ScoredBatch {
        positive_fraction,
        threshold,
        rows,
    }
}

/// Scores raw feature rows (no labels) — the serving path's entry
/// point. Builds the kernel layout from `model` first; when the
/// caller already holds a prepared kernel (the daemon builds one per
/// model generation at load/swap time), use [`score_rows_with`].
///
/// # Panics
///
/// Panics if any row has the wrong feature count — callers validate
/// at the protocol boundary.
pub fn score_rows(model: &RandomForest, rows: &[Vec<f64>], positive_fraction: f64) -> ScoredBatch {
    let kernel = ForestKernel::from_forest(model);
    score_rows_with(&kernel, rows, positive_fraction)
}

/// Scores raw feature rows with a prepared kernel. Each row's
/// probabilities are an independent traversal, so scoring a
/// concatenation of requests is bitwise identical to scoring each
/// request alone (the micro-batcher relies on this). `NaN` features
/// are defined input: `NaN` fails the kernel's single compare
/// `!(value <= threshold)` and goes right, exactly like the recursive
/// walk.
///
/// # Panics
///
/// Panics if any row's length differs from the kernel's feature
/// count.
pub fn score_rows_with(
    kernel: &ForestKernel,
    rows: &[Vec<f64>],
    positive_fraction: f64,
) -> ScoredBatch {
    score_rows_chunked(kernel, rows, positive_fraction, CHUNK_ROWS)
}

/// [`score_rows_with`] with an explicit chunk size — the test hook
/// that pins chunking-seam invariance (chunk sizes 1/7/64 must score
/// bitwise identically).
#[doc(hidden)]
pub fn score_rows_chunked(
    kernel: &ForestKernel,
    rows: &[Vec<f64>],
    positive_fraction: f64,
    chunk_rows: usize,
) -> ScoredBatch {
    assert!(chunk_rows > 0, "chunk size must be positive");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            row.len(),
            kernel.feature_count(),
            "row {i} has {} features, the kernel expects {}",
            row.len(),
            kernel.feature_count()
        );
    }
    score_chunks(
        kernel,
        &RowSource::Rows(rows),
        positive_fraction,
        chunk_rows,
    )
}

/// Scores every row of `data` with `model`, partitioning by the
/// threshold derived from `positive_fraction`. Builds the kernel
/// layout once for the call; callers scoring the same model
/// repeatedly should build a [`ForestKernel`] (or use
/// `SavedModel::kernel`) and call [`score_batch_with`].
///
/// Deterministic: output rows are in dataset order and bitwise
/// identical across thread counts *and* bitwise identical to the
/// recursive reference path [`score_batch_recursive`].
///
/// # Panics
///
/// Panics if `positive_fraction` is outside `[0, 1]`.
pub fn score_batch(model: &RandomForest, data: &Dataset, positive_fraction: f64) -> ScoredBatch {
    let kernel = ForestKernel::from_forest(model);
    score_batch_with(&kernel, data, positive_fraction)
}

/// [`score_batch`] over a prepared kernel.
///
/// # Panics
///
/// Panics if `data`'s feature count differs from the kernel's, or if
/// `positive_fraction` is outside `[0, 1]`.
pub fn score_batch_with(
    kernel: &ForestKernel,
    data: &Dataset,
    positive_fraction: f64,
) -> ScoredBatch {
    assert_eq!(
        data.feature_count(),
        kernel.feature_count(),
        "dataset feature count mismatch"
    );
    score_chunks(
        kernel,
        &RowSource::Data(data),
        positive_fraction,
        CHUNK_ROWS,
    )
}

/// The frozen pre-kernel reference: recursive pointer-chasing tree
/// walks through `RandomForest::predict_proba_row`, chunked over
/// `run_units`. Kept verbatim so the kernel's bitwise-parity checks
/// (unit tests, `kernel_props`, the `scored` binary, CI's
/// kernel-parity step) compare against the real historical path, not
/// a reimplementation.
pub fn score_batch_recursive(
    model: &RandomForest,
    data: &Dataset,
    positive_fraction: f64,
) -> ScoredBatch {
    let _span = obs::span!("score_batch_recursive");
    let threshold = confidence_threshold(positive_fraction);
    let n = data.len();
    let chunks = n.div_ceil(CHUNK_ROWS);
    let scored: Vec<Vec<ScoredRow>> = forest::parallel::run_units(chunks, |c| {
        let lo = c * CHUNK_ROWS;
        let hi = (lo + CHUNK_ROWS).min(n);
        let mut out = Vec::with_capacity(hi - lo);
        for index in lo..hi {
            let probabilities = model.predict_proba_row(data, index);
            let positive = probabilities[1];
            out.push(ScoredRow {
                index,
                positive,
                predicted: (positive > 0.5) as usize,
                split: classify_confidence(positive, threshold),
                probabilities,
            });
        }
        out
    });
    let rows: Vec<ScoredRow> = scored.into_iter().flatten().collect();
    ScoredBatch {
        positive_fraction,
        threshold,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest::{set_thread_limit, RandomForestParams};

    fn fixture() -> (Dataset, RandomForest, f64) {
        // Big enough to span several chunks, with some noise so the
        // probability spectrum is not degenerate.
        let mut d = Dataset::new(vec!["x0".into(), "x1".into(), "n0".into()], 2);
        for i in 0..300 {
            let x0 = i as f64 / 300.0;
            let x1 = ((i * 53) % 300) as f64 / 300.0;
            let n0 = ((i * 17) % 300) as f64 / 300.0;
            d.push(vec![x0, x1, n0], (x0 + 0.3 * x1 > 0.6) as usize);
        }
        let params = RandomForestParams {
            n_trees: 12,
            ..RandomForestParams::default()
        };
        let model = RandomForest::fit(&d, &params, 7);
        let q = d.class_fraction(1);
        (d, model, q)
    }

    #[test]
    fn matches_sequential_scoring() {
        let (data, model, q) = fixture();
        let batch = score_batch(&model, &data, q);
        assert_eq!(batch.rows.len(), data.len());
        for (i, row) in batch.rows.iter().enumerate() {
            assert_eq!(row.index, i);
            assert_eq!(row.probabilities, model.predict_proba_row(&data, i));
            assert_eq!(row.positive, row.probabilities[1]);
        }
        // The partition is exactly the in-memory pipeline's partition.
        assert_eq!(
            batch.partition(),
            PartitionedPredictions::partition(&batch.positives(), q)
        );
    }

    #[test]
    fn kernel_path_matches_recursive_reference_bitwise() {
        let (data, model, q) = fixture();
        let kernel = score_batch(&model, &data, q);
        let recursive = score_batch_recursive(&model, &data, q);
        assert_eq!(kernel, recursive);
        assert_eq!(kernel.summary(), recursive.summary());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let (data, model, q) = fixture();
        set_thread_limit(Some(1));
        let serial = score_batch(&model, &data, q);
        set_thread_limit(Some(8));
        let parallel = score_batch(&model, &data, q);
        set_thread_limit(None);
        assert_eq!(serial, parallel);
        assert_eq!(serial.summary(), parallel.summary());
    }

    #[test]
    fn chunk_size_does_not_change_output() {
        let (data, model, q) = fixture();
        let kernel = ForestKernel::from_forest(&model);
        let rows: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i)).collect();
        let reference = score_rows_with(&kernel, &rows, q);
        for chunk_rows in [1usize, 7, 64, 300] {
            let chunked = score_rows_chunked(&kernel, &rows, q, chunk_rows);
            assert_eq!(chunked, reference, "chunk size {chunk_rows}");
        }
    }

    #[test]
    fn summary_invariants() {
        let (data, model, q) = fixture();
        let summary = score_batch(&model, &data, q).summary();
        assert_eq!(summary.rows, data.len());
        assert_eq!(summary.confident + summary.uncertain, summary.rows);
        assert_eq!(
            summary.predicted_positive + summary.predicted_negative,
            summary.rows
        );
        assert_eq!(
            summary.confident_positive + summary.confident_negative,
            summary.confident
        );
        assert_eq!(summary.histogram.iter().sum::<u64>(), summary.rows as u64);
        assert!((0.0..=1.0).contains(&summary.mean_positive));
        assert_eq!(summary.threshold, confidence_threshold(q));
    }

    #[test]
    fn histogram_buckets_are_half_open_and_boundary_stable() {
        // Each decade boundary k/10 lands in bucket k (half-open
        // convention), and 1.0 folds into the last bucket instead of
        // indexing out of range. Pinned so a refactor of the bucket
        // arithmetic cannot silently shift boundary probabilities.
        for k in 0..10usize {
            assert_eq!(histogram_bucket(k as f64 / 10.0), k, "boundary {k}/10");
        }
        assert_eq!(histogram_bucket(0.1), 1);
        assert_eq!(histogram_bucket(0.5), 5);
        assert_eq!(histogram_bucket(1.0), 9);
        // Interior values stay in their decade.
        assert_eq!(histogram_bucket(0.099999999), 0);
        assert_eq!(histogram_bucket(0.49999999999), 4);
        assert_eq!(histogram_bucket(0.999999), 9);
    }

    #[test]
    fn facts_mirror_rows() {
        let (data, model, q) = fixture();
        let batch = score_batch(&model, &data, q);
        let facts = batch.facts();
        assert_eq!(facts.len(), batch.rows.len());
        for (fact, row) in facts.iter().zip(&batch.rows) {
            assert_eq!(fact.positive, row.positive);
            assert_eq!(fact.predicted, row.predicted);
            assert_eq!(fact.split, row.split);
        }
    }

    #[test]
    fn score_rows_matches_score_batch() {
        let (data, model, q) = fixture();
        let rows: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i)).collect();
        let via_rows = score_rows(&model, &rows, q);
        let via_dataset = score_batch(&model, &data, q);
        assert_eq!(via_rows, via_dataset);
    }

    #[test]
    fn empty_dataset_scores_empty() {
        let (_, model, q) = fixture();
        let empty = Dataset::new(vec!["x0".into(), "x1".into(), "n0".into()], 2);
        let batch = score_batch(&model, &empty, q);
        assert!(batch.rows.is_empty());
        let summary = batch.summary();
        assert_eq!(summary.rows, 0);
        assert_eq!(summary.mean_positive, 0.0);
    }
}
