//! Independent oracle for grid search: `GridSearch::run` trains every
//! (candidate × fold) forest on zero-copy index views over one shared
//! rank-code precompute. Its scores must equal, bitwise, the plain
//! protocol on materialized data: deep-copy each fold's training and
//! validation rows into their own `Dataset`s, fit `RandomForest::fit`
//! with unit `(c, f)`'s seed `derive_seed(seed, c·k + f)`, and average
//! the validation accuracies in fold order.

use forest::tree::TreeParams;
use forest::{
    derive_seed, Dataset, GridSearch, KFold, MaxFeatures, RandomForest, RandomForestParams,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_dataset(seed: u64, n_rows: usize, n_classes: usize) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let names = (0..4).map(|f| format!("x{f}")).collect();
    let mut data = Dataset::new(names, n_classes);
    for _ in 0..n_rows {
        let label = rng.gen_range(0..n_classes);
        // One informative feature, one coarse (tie-heavy) feature,
        // one noise feature and one constant.
        let row = vec![
            label as f64 + rng.gen_range(-0.8..0.8),
            rng.gen_range(0..3) as f64,
            rng.gen::<f64>(),
            1.0,
        ];
        data.push(row, label);
    }
    data
}

/// The materialized-fold protocol the grid search must reproduce.
fn materialized_scores(
    data: &Dataset,
    candidates: &[RandomForestParams],
    k: usize,
    seed: u64,
) -> Vec<f64> {
    let kfold = KFold::new(data, k, seed);
    candidates
        .iter()
        .enumerate()
        .map(|(c, params)| {
            let mut sum = 0.0;
            for f in 0..k {
                let (train_idx, validation_idx) = kfold.split(f);
                let train = data.select(&train_idx);
                let validation = data.select(&validation_idx);
                let model =
                    RandomForest::fit(&train, params, derive_seed(seed, (c * k + f) as u64));
                let correct = (0..validation.len())
                    .filter(|&i| model.predict_row(&validation, i) == validation.label(i))
                    .count();
                sum += correct as f64 / validation.len() as f64;
            }
            sum / k as f64
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grid_scores_equal_materialized_folds_bitwise(
        seed in any::<u64>(),
        n_rows in 30usize..=120,
        n_classes in 2usize..=3,
        k in 2usize..=4,
    ) {
        let data = random_dataset(seed, n_rows, n_classes);
        let candidates = vec![
            RandomForestParams {
                n_trees: 5,
                ..RandomForestParams::default()
            },
            RandomForestParams {
                n_trees: 4,
                max_features: MaxFeatures::All,
                bootstrap: false,
                tree: TreeParams {
                    max_depth: 3,
                    min_samples_leaf: 2,
                    ..TreeParams::default()
                },
            },
        ];
        let result = GridSearch::new(candidates.clone(), k).run(&data, seed);
        let expected = materialized_scores(&data, &candidates, k, seed);
        for (c, ((_, got), want)) in result.all_scores.iter().zip(&expected).enumerate() {
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "candidate {}: grid score {} != materialized {}",
                c,
                got,
                want
            );
        }
    }
}
