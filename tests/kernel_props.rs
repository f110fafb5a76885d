//! `kernel_props` — property tests pinning the flat-forest kernel's
//! bitwise-parity contract.
//!
//! For random forests × random scoring corpora — including `NaN`
//! (missing values), `±0.0`, and feature values exactly equal to the
//! model's own split thresholds — the cache-blocked serving path
//! (`serve::score::score_rows_chunked`, which drives
//! `ForestKernel::score_tile_into`) must reproduce the recursive
//! reference walk (`RandomForest::predict_proba`) bit for bit on every
//! row, across forest thread limits {1, 8} and chunk sizes {1, 7, 64},
//! and every (threads, chunk) pair must return the same batch.
//!
//! The forest thread limit is process-global, so the sweep nests
//! inside one property body instead of fanning out into `#[test]`s.

use forest::{parallel::splitmix64, ForestKernel};
use proptest::prelude::*;

/// Deterministic f64 in [0, 1) from a splitmix64 stream.
fn unit_float(state: u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Trains a small forest on deterministic pseudo-random data.
fn train(seed: u64, n_trees: usize, n_features: usize) -> (forest::RandomForest, f64) {
    let names: Vec<String> = (0..n_features).map(|f| format!("x{f}")).collect();
    let mut data = forest::Dataset::new(names, 2);
    for i in 0..90u64 {
        let row: Vec<f64> = (0..n_features)
            .map(|f| unit_float(seed ^ (i * 131 + f as u64 + 1)))
            .collect();
        let label = (row[0] + 0.5 * row[1 % n_features] > 0.7) as usize;
        data.push(row, label);
    }
    let params = forest::RandomForestParams {
        n_trees,
        ..forest::RandomForestParams::default()
    };
    let model = forest::RandomForest::fit(&data, &params, seed);
    (model, data.class_fraction(1))
}

/// Builds a scoring corpus salted with the kernel's adversarial
/// inputs: NaN, both signed zeros, and values exactly on the model's
/// own split thresholds (the `value == threshold` boundary the
/// `<=`/`>` duality must get right).
fn corpus(seed: u64, n_features: usize, model: &forest::RandomForest) -> Vec<Vec<f64>> {
    let mut thresholds = Vec::new();
    for tree in model.trees() {
        let flat = tree.to_flat();
        for (i, &kind) in flat.kind.iter().enumerate() {
            if kind == 1 {
                thresholds.push(flat.threshold[i]);
            }
        }
    }
    (0..70u64)
        .map(|r| {
            (0..n_features)
                .map(|f| {
                    let roll = splitmix64(seed ^ (0xBEEF ^ (r * 977 + f as u64)));
                    match roll % 8 {
                        0 => f64::NAN,
                        1 => 0.0,
                        2 => -0.0,
                        3 if !thresholds.is_empty() => {
                            thresholds[(roll >> 8) as usize % thresholds.len()]
                        }
                        _ => unit_float(roll),
                    }
                })
                .collect()
        })
        .collect()
}

/// `a` and `b` are the same bits, slot for slot.
fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn recursive_and_blocked_paths_score_identically(
        seed in 1u64..=u64::MAX / 2,
        n_trees in 2usize..7,
        n_features in 2usize..6,
    ) {
        let (model, q) = train(seed, n_trees, n_features);
        let kernel = ForestKernel::from_forest(&model);
        let rows = corpus(seed, n_features, &model);

        let reference: Vec<Vec<f64>> = rows.iter().map(|r| model.predict_proba(r)).collect();

        // The blocked serving path across thread limits and chunk sizes.
        let mut first: Option<serve::ScoredBatch> = None;
        for threads in [1usize, 8] {
            forest::set_thread_limit(Some(threads));
            for chunk in [1usize, 7, 64] {
                let batch = serve::score::score_rows_chunked(&kernel, &rows, q, chunk);
                for (i, scored) in batch.rows.iter().enumerate() {
                    prop_assert!(
                        bitwise_eq(&scored.probabilities, &reference[i]),
                        "blocked (threads {threads}, chunk {chunk}) diverged at row {i}"
                    );
                }
                match &first {
                    None => first = Some(batch),
                    Some(f) => prop_assert_eq!(
                        f,
                        &batch,
                        "batch differs at threads {}, chunk {}",
                        threads,
                        chunk
                    ),
                }
            }
        }
        forest::set_thread_limit(None);
    }
}
