//! Train/test splitting, stratified k-fold cross-validation, and grid
//! search — the paper's §5.1 evaluation protocol.
//!
//! Splits and folds are index sets over a shared [`Dataset`]; training
//! happens through borrowed [`crate::DatasetView`]s, so no feature
//! value is copied per fold, candidate, or repetition. Every fold /
//! candidate work unit derives its seed from the base seed and the
//! unit index via [`derive_seed`], which keeps results identical
//! across thread counts and fixes the old `seed ^ fold` scheme (fold 0
//! collided with the k-fold shuffle seed).

use crate::data::Dataset;
use crate::parallel::{derive_seed, run_units};
use crate::random_forest::{RandomForest, RandomForestParams};
use crate::tree::{argmax, SplitPrecompute};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Splits a dataset into `(train, test)` index sets with
/// `test_fraction` of the examples (stratified by class so both sides
/// keep the class balance — important for the imbalanced Premium
/// subgroup).
///
/// Any class with at least two members gets at least one example on
/// each side, regardless of rounding; singleton classes go to the
/// training side.
///
/// # Panics
///
/// Panics unless `0 < test_fraction < 1` or if the dataset is empty.
pub fn train_test_split_indices(
    data: &Dataset,
    test_fraction: f64,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    assert!(
        test_fraction > 0.0 && test_fraction < 1.0,
        "test_fraction must be in (0,1), got {test_fraction}"
    );
    assert!(!data.is_empty(), "cannot split an empty dataset");

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut train_idx = Vec::new();
    let mut test_idx = Vec::new();

    // Shuffle within each class, then cut.
    for class in 0..data.class_count() {
        let mut members: Vec<usize> = (0..data.len())
            .filter(|&i| data.label(i) == class)
            .collect();
        shuffle(&mut members, &mut rng);
        // Rounding alone can starve one side of a small class (e.g. 4
        // members at 10% rounds to 0 test examples); clamp so every
        // class with >= 2 members appears on both sides.
        let n_test = if members.len() >= 2 {
            let rounded = (members.len() as f64 * test_fraction).round() as usize;
            rounded.clamp(1, members.len() - 1)
        } else {
            0
        };
        test_idx.extend_from_slice(&members[..n_test]);
        train_idx.extend_from_slice(&members[n_test..]);
    }
    // Keep downstream iteration order independent of class grouping.
    shuffle(&mut train_idx, &mut rng);
    shuffle(&mut test_idx, &mut rng);
    (train_idx, test_idx)
}

/// Materialized variant of [`train_test_split_indices`] for callers
/// that need owned datasets.
pub fn train_test_split(data: &Dataset, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
    let (train_idx, test_idx) = train_test_split_indices(data, test_fraction, seed);
    (data.select(&train_idx), data.select(&test_idx))
}

fn shuffle<R: Rng + ?Sized>(v: &mut [usize], rng: &mut R) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Stratified k-fold splitter.
#[derive(Debug, Clone)]
pub struct KFold {
    folds: Vec<Vec<usize>>,
}

impl KFold {
    /// Builds `k` stratified folds over the dataset.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k` exceeds the dataset size.
    pub fn new(data: &Dataset, k: usize, seed: u64) -> KFold {
        let rows: Vec<usize> = (0..data.len()).collect();
        KFold::over(data, &rows, k, seed)
    }

    /// Builds `k` stratified folds over the rows of `data` selected by
    /// `rows` — folds contain values drawn from `rows`, so nested
    /// protocols (grid search inside a train split) stay zero-copy.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k` exceeds `rows.len()`.
    pub fn over(data: &Dataset, rows: &[usize], k: usize, seed: u64) -> KFold {
        assert!(k >= 2, "k-fold needs k >= 2, got {k}");
        assert!(
            k <= rows.len(),
            "k = {k} exceeds dataset size {}",
            rows.len()
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
        for class in 0..data.class_count() {
            let mut members: Vec<usize> = rows
                .iter()
                .copied()
                .filter(|&i| data.label(i) == class)
                .collect();
            shuffle(&mut members, &mut rng);
            for (pos, idx) in members.into_iter().enumerate() {
                folds[pos % k].push(idx);
            }
        }
        KFold { folds }
    }

    /// Number of folds.
    pub fn k(&self) -> usize {
        self.folds.len()
    }

    /// The `(train, validation)` index sets for fold `fold`.
    pub fn split(&self, fold: usize) -> (Vec<usize>, Vec<usize>) {
        assert!(fold < self.folds.len(), "fold {fold} out of range");
        let validation = self.folds[fold].clone();
        let train: Vec<usize> = self
            .folds
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != fold)
            .flat_map(|(_, f)| f.iter().copied())
            .collect();
        (train, validation)
    }
}

/// Accuracy of `params` trained on the `train` indices and scored on
/// the `validation` indices, both views over `data`. `pre` is a
/// rank-code precompute over (a superset of) the training rows, shared
/// across folds and candidates. Candidates are ranked purely by
/// validation accuracy, so fold fits skip the out-of-bag tally, and
/// the validation rows go through the batch predictor.
fn fold_accuracy(
    data: &Dataset,
    pre: &SplitPrecompute,
    train: &[usize],
    validation: &[usize],
    params: &RandomForestParams,
    seed: u64,
) -> f64 {
    let _span = obs::span!("fold");
    let model = RandomForest::fit_shared(data, pre, train, params, seed, false);
    let probabilities = model.predict_proba_rows(data, validation);
    let correct = probabilities
        .chunks_exact(model.class_count())
        .zip(validation)
        .filter(|&(p, &i)| argmax(p) == data.label(i))
        .count();
    obs::count("forest.cv_folds_completed", 1);
    correct as f64 / validation.len() as f64
}

/// Mean validation accuracy of a parameter setting under stratified
/// k-fold cross-validation: a [`GridSearch`] over the one setting.
///
/// Folds run as parallel work units; fold `f`'s forest is seeded with
/// `derive_seed(seed, f)` and the mean is accumulated in fold order,
/// so the result is independent of thread count.
pub fn cross_val_accuracy(data: &Dataset, params: &RandomForestParams, k: usize, seed: u64) -> f64 {
    let _span = obs::span!("cross_val");
    GridSearch::new(vec![*params], k).run(data, seed).best_score
}

/// The outcome of a grid search.
#[derive(Debug, Clone)]
pub struct GridSearchResult {
    /// The winning parameter setting.
    pub best_params: RandomForestParams,
    /// Its mean cross-validated accuracy.
    pub best_score: f64,
    /// `(params, score)` for every candidate evaluated.
    pub all_scores: Vec<(RandomForestParams, f64)>,
}

/// Grid search over random-forest parameter candidates using stratified
/// k-fold cross-validation (the paper's tuning protocol).
#[derive(Debug, Clone)]
pub struct GridSearch {
    candidates: Vec<RandomForestParams>,
    folds: usize,
}

impl GridSearch {
    /// Creates a search over explicit candidates with `folds`-fold CV.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or `folds < 2`.
    pub fn new(candidates: Vec<RandomForestParams>, folds: usize) -> GridSearch {
        assert!(!candidates.is_empty(), "grid search needs candidates");
        assert!(folds >= 2, "grid search needs >= 2 folds");
        GridSearch { candidates, folds }
    }

    /// Runs the search over the full dataset.
    pub fn run(&self, data: &Dataset, seed: u64) -> GridSearchResult {
        let rows: Vec<usize> = (0..data.len()).collect();
        self.run_on(data, &rows, seed)
    }

    /// Runs the search over the rows of `data` selected by `rows`,
    /// returning the best setting by mean CV accuracy (first candidate
    /// wins ties, so candidate order is a tiebreak preference).
    ///
    /// All `candidates × folds` fits are independent work units; unit
    /// `(c, f)` is seeded with `derive_seed(seed, c·k + f)`, so the
    /// result is a pure function of `(data, rows, candidates, seed)`
    /// whatever the thread count. Folds are built once and shared by
    /// every candidate.
    pub fn run_on(&self, data: &Dataset, rows: &[usize], seed: u64) -> GridSearchResult {
        self.search(data, &SplitPrecompute::build(data, rows), rows, seed)
    }

    /// Runs the search over `rows` as [`GridSearch::run_on`] does with
    /// `search_seed`, then trains the winning setting on all of `rows`
    /// as `RandomForest::fit_on(data, rows, best, fit_seed)` does. Both
    /// share one rank-code precompute, so the feature columns are
    /// sorted once for the search and the final fit together.
    pub fn fit_best_on(
        &self,
        data: &Dataset,
        rows: &[usize],
        search_seed: u64,
        fit_seed: u64,
    ) -> (GridSearchResult, RandomForest) {
        let pre = SplitPrecompute::build(data, rows);
        let result = self.search(data, &pre, rows, search_seed);
        let model = RandomForest::fit_shared(data, &pre, rows, &result.best_params, fit_seed, true);
        (result, model)
    }

    fn search(
        &self,
        data: &Dataset,
        pre: &SplitPrecompute,
        rows: &[usize],
        seed: u64,
    ) -> GridSearchResult {
        let _span = obs::span!("grid_search");
        let k = self.folds;
        let kfold = KFold::over(data, rows, k, seed);
        let splits: Vec<(Vec<usize>, Vec<usize>)> = (0..k).map(|f| kfold.split(f)).collect();

        let units = self.candidates.len() * k;
        let fold_scores = run_units(units, |u| {
            let candidate = u / k;
            let fold = u % k;
            let (train, validation) = &splits[fold];
            fold_accuracy(
                data,
                pre,
                train,
                validation,
                &self.candidates[candidate],
                derive_seed(seed, u as u64),
            )
        });

        let mut all_scores = Vec::with_capacity(self.candidates.len());
        let mut best: Option<(RandomForestParams, f64)> = None;
        for (c, params) in self.candidates.iter().enumerate() {
            let score = fold_scores[c * k..(c + 1) * k].iter().sum::<f64>() / k as f64;
            all_scores.push((*params, score));
            match best {
                Some((_, best_score)) if best_score >= score => {}
                _ => best = Some((*params, score)),
            }
        }
        let (best_params, best_score) = best.expect("non-empty candidates");
        GridSearchResult {
            best_params,
            best_score,
            all_scores,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_forest::MaxFeatures;
    use crate::tree::TreeParams;

    fn dataset(n: usize, positive_fraction: f64) -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "y".into()], 2);
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..n {
            let positive = rng.gen::<f64>() < positive_fraction;
            let x: f64 = if positive {
                rng.gen::<f64>() + 0.4
            } else {
                rng.gen::<f64>() - 0.4
            };
            d.push(vec![x, rng.gen()], positive as usize);
        }
        d
    }

    #[test]
    fn split_preserves_class_balance() {
        let d = dataset(1000, 0.7);
        let (train, test) = train_test_split(&d, 0.2, 9);
        assert_eq!(train.len() + test.len(), 1000);
        assert!((test.len() as f64 - 200.0).abs() <= 1.0);
        assert!((train.class_fraction(1) - 0.7).abs() < 0.03);
        assert!((test.class_fraction(1) - 0.7).abs() < 0.03);
    }

    #[test]
    fn split_is_disjoint_and_deterministic() {
        let d = dataset(200, 0.5);
        let (tr1, te1) = train_test_split(&d, 0.25, 4);
        let (tr2, te2) = train_test_split(&d, 0.25, 4);
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        let (train_idx, test_idx) = train_test_split_indices(&d, 0.25, 4);
        let mut seen = vec![false; d.len()];
        for &i in train_idx.iter().chain(&test_idx) {
            assert!(!seen[i], "index {i} appears twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn tiny_classes_land_on_both_sides() {
        // 4 members at 10% would round to 0 test examples; the clamp
        // must keep one on each side.
        let mut d = Dataset::new(vec!["x".into()], 2);
        for i in 0..50 {
            d.push(vec![i as f64], 0);
        }
        for i in 0..4 {
            d.push(vec![100.0 + i as f64], 1);
        }
        let (train, test) = train_test_split(&d, 0.1, 7);
        assert!(
            train.class_distribution()[1] >= 1,
            "train lost the small class"
        );
        assert!(
            test.class_distribution()[1] >= 1,
            "test lost the small class"
        );

        // The mirror case: 90% test would round the small class to 4,
        // starving the training side.
        let (train, test) = train_test_split(&d, 0.9, 7);
        assert!(train.class_distribution()[1] >= 1);
        assert!(test.class_distribution()[1] >= 1);

        // A singleton class cannot be on both sides; it trains.
        let mut s = Dataset::new(vec!["x".into()], 2);
        for i in 0..20 {
            s.push(vec![i as f64], 0);
        }
        s.push(vec![99.0], 1);
        let (train, test) = train_test_split(&s, 0.2, 7);
        assert_eq!(train.class_distribution()[1], 1);
        assert_eq!(test.class_distribution()[1], 0);
    }

    #[test]
    fn kfold_partitions_everything_once() {
        let d = dataset(103, 0.6);
        let kf = KFold::new(&d, 5, 3);
        let mut seen = vec![false; d.len()];
        for fold in 0..kf.k() {
            let (train, val) = kf.split(fold);
            assert_eq!(train.len() + val.len(), d.len());
            for &i in &val {
                assert!(!seen[i], "index {i} in two validation folds");
                seen[i] = true;
            }
            // Train and validation are disjoint.
            for &i in &val {
                assert!(!train.contains(&i));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn kfold_over_subset_stays_inside_it() {
        let d = dataset(120, 0.5);
        let rows: Vec<usize> = (0..120).filter(|i| i % 3 != 0).collect();
        let kf = KFold::over(&d, &rows, 4, 5);
        let mut seen = 0usize;
        for fold in 0..kf.k() {
            let (train, val) = kf.split(fold);
            assert_eq!(train.len() + val.len(), rows.len());
            for &i in train.iter().chain(&val) {
                assert!(rows.contains(&i), "index {i} not in the subset");
            }
            seen += val.len();
        }
        assert_eq!(seen, rows.len());
    }

    #[test]
    fn cross_val_scores_learnable_data_high() {
        let d = dataset(400, 0.5);
        let params = RandomForestParams {
            n_trees: 20,
            ..RandomForestParams::default()
        };
        let acc = cross_val_accuracy(&d, &params, 4, 11);
        assert!(acc > 0.85, "cv accuracy {acc}");
    }

    #[test]
    fn fold_seeds_avoid_shuffle_seed() {
        // Regression for the old `seed ^ fold` scheme: fold 0's model
        // seed must differ from the k-fold shuffle seed.
        let seed = 11u64;
        assert_ne!(derive_seed(seed, 0), seed);
    }

    #[test]
    fn grid_search_picks_reasonable_candidate() {
        let d = dataset(300, 0.5);
        // A majority-vote stump (depth 0 leaves ≈ class prior) against
        // a real forest: the forest must win for any rng stream.
        let stump = RandomForestParams {
            n_trees: 2,
            tree: TreeParams {
                max_depth: 0,
                ..TreeParams::default()
            },
            max_features: MaxFeatures::Count(1),
            bootstrap: true,
        };
        let strong = RandomForestParams {
            n_trees: 25,
            tree: TreeParams::default(),
            max_features: MaxFeatures::Sqrt,
            bootstrap: true,
        };
        let result = GridSearch::new(vec![stump, strong], 3).run(&d, 13);
        assert_eq!(result.all_scores.len(), 2);
        assert_eq!(result.best_params.n_trees, 25);
        assert!(result.best_score >= result.all_scores[0].1);
    }

    #[test]
    fn grid_search_candidate_zero_matches_cross_val() {
        // Unit (0, f) uses derive_seed(seed, f) — the same seeds
        // cross_val_accuracy assigns — so the first candidate's grid
        // score equals its standalone CV score.
        let d = dataset(150, 0.5);
        let params = RandomForestParams {
            n_trees: 5,
            ..RandomForestParams::default()
        };
        let standalone = cross_val_accuracy(&d, &params, 3, 21);
        let result = GridSearch::new(vec![params], 3).run(&d, 21);
        assert_eq!(result.all_scores[0].1, standalone);
    }

    #[test]
    fn fit_best_on_matches_search_then_fit() {
        let d = dataset(160, 0.4);
        let rows: Vec<usize> = (0..d.len()).filter(|i| i % 5 != 2).collect();
        let candidates: Vec<RandomForestParams> = [2, 6]
            .iter()
            .map(|&max_depth| RandomForestParams {
                n_trees: 6,
                tree: TreeParams {
                    max_depth,
                    ..TreeParams::default()
                },
                ..RandomForestParams::default()
            })
            .collect();
        let search = GridSearch::new(candidates, 3);
        let (result, model) = search.fit_best_on(&d, &rows, 5, 6);
        let alone = search.run_on(&d, &rows, 5);
        assert_eq!(result.all_scores, alone.all_scores);
        assert_eq!(result.best_params, alone.best_params);
        let refit = RandomForest::fit_on(&d, &rows, &alone.best_params, 6);
        assert_eq!(model.oob_accuracy(), refit.oob_accuracy());
        let flats = |m: &RandomForest| m.trees().iter().map(|t| t.to_flat()).collect::<Vec<_>>();
        assert_eq!(flats(&model), flats(&refit));
    }
}
