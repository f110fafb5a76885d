//! Bootstrap-aggregated random forests.

use crate::data::{Dataset, DatasetView};
use crate::parallel::{derive_seed, run_units};
use crate::tree::{argmax, DecisionTree, SplitPrecompute, TreeParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How many features each split considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxFeatures {
    /// All features (bagging without feature randomness).
    All,
    /// `ceil(sqrt(feature_count))` — the classification default.
    Sqrt,
    /// `max(1, floor(log2(feature_count)))`.
    Log2,
    /// An explicit count (clamped to the feature count).
    Count(usize),
}

impl MaxFeatures {
    /// Resolves to a concrete feature count for a dataset with
    /// `feature_count` features.
    pub fn resolve(self, feature_count: usize) -> usize {
        let raw = match self {
            MaxFeatures::All => feature_count,
            MaxFeatures::Sqrt => (feature_count as f64).sqrt().ceil() as usize,
            MaxFeatures::Log2 => (feature_count as f64).log2().floor() as usize,
            MaxFeatures::Count(n) => n,
        };
        raw.clamp(1, feature_count)
    }
}

/// Random-forest hyper-parameters — the grid-search surface of the
/// paper's §5.1 ("parameter tuning for each model by doing grid search
/// using 5-fold cross-validation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomForestParams {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Per-tree growth limits.
    pub tree: TreeParams,
    /// Features considered per split.
    pub max_features: MaxFeatures,
    /// Whether each tree trains on a bootstrap resample (vs the full
    /// training set).
    pub bootstrap: bool,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        RandomForestParams {
            n_trees: 60,
            tree: TreeParams::default(),
            max_features: MaxFeatures::Sqrt,
            bootstrap: true,
        }
    }
}

/// A fitted random forest.
///
/// Prediction probabilities are the average of per-tree leaf class
/// fractions (paper §5.3: "The class probabilities in a random forest
/// are the result of averaging over the class probabilities of the
/// trees in the forest").
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    feature_names: Vec<String>,
    class_count: usize,
    oob_accuracy: Option<f64>,
}

impl RandomForest {
    /// Trains a forest on the full dataset. Deterministic for a given
    /// `(data, params, seed)` triple regardless of thread count: tree
    /// `t`'s RNG is seeded with `derive_seed(seed, t)` and trees are
    /// dispatched as independent work units.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `params.n_trees` is zero.
    pub fn fit(data: &Dataset, params: &RandomForestParams, seed: u64) -> RandomForest {
        let rows: Vec<usize> = (0..data.len()).collect();
        Self::fit_on(data, &rows, params, seed)
    }

    /// Trains a forest on a borrowed view — the zero-copy path used by
    /// folds, splits, and the degradation sweep.
    pub fn fit_view(
        view: &DatasetView<'_>,
        params: &RandomForestParams,
        seed: u64,
    ) -> RandomForest {
        Self::fit_on(view.dataset(), view.indices(), params, seed)
    }

    /// Trains a forest on the rows of `data` selected by `rows`
    /// (duplicates allowed), without copying any feature data.
    ///
    /// Fitting on `rows` is numerically identical to fitting on
    /// `data.select(rows)`: trees are a function of the per-slot row
    /// contents, which match in both formulations.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or `params.n_trees` is zero.
    pub fn fit_on(
        data: &Dataset,
        rows: &[usize],
        params: &RandomForestParams,
        seed: u64,
    ) -> RandomForest {
        // Rank-code every feature once; all trees share the precompute.
        let pre = SplitPrecompute::build(data, rows);
        Self::fit_shared(data, &pre, rows, params, seed, true)
    }

    /// Trains a forest reusing a [`SplitPrecompute`] built over (a
    /// superset of) `rows` — the path cross-validation and grid search
    /// use to rank-code the feature columns once for every
    /// (candidate × fold) fit.
    ///
    /// `compute_oob` controls whether out-of-bag votes are tallied.
    /// Model selection scores candidates on held-out validation rows
    /// and never reads the OOB estimate, so fold fits pass `false` and
    /// skip the tally entirely; the trees themselves are unaffected
    /// (recording bags consumes no randomness).
    pub(crate) fn fit_shared(
        data: &Dataset,
        pre: &SplitPrecompute,
        rows: &[usize],
        params: &RandomForestParams,
        seed: u64,
        compute_oob: bool,
    ) -> RandomForest {
        assert!(!rows.is_empty(), "cannot train on an empty dataset");
        assert!(params.n_trees > 0, "need at least one tree");

        let _span = obs::span!("forest_fit");
        let n = rows.len();
        let max_features = params.max_features.resolve(data.feature_count());

        // One work unit per tree. The bootstrap makes `n` draws of a view
        // position and keeps each drawn position once, with its
        // multiplicity; the tree grows on those `(row, multiplicity)`
        // entries. Each unit returns the tree plus the multiplicities
        // (by view position) when the OOB tally needs them.
        let results: Vec<(DecisionTree, Option<Vec<u32>>)> = run_units(params.n_trees, |t| {
            let mut rng = SmallRng::seed_from_u64(derive_seed(seed, t as u64));
            let (bag, multiplicity) = if params.bootstrap {
                let mut multiplicity = vec![0u32; n];
                for _ in 0..n {
                    multiplicity[rng.gen_range(0..n)] += 1;
                }
                let bag = multiplicity
                    .iter()
                    .zip(rows)
                    .filter(|&(&m, _)| m > 0)
                    .map(|(&m, &row)| (row as u32, m))
                    .collect();
                (bag, compute_oob.then_some(multiplicity))
            } else {
                (rows.iter().map(|&row| (row as u32, 1)).collect(), None)
            };
            let tree =
                DecisionTree::fit_presorted(data, pre, bag, &params.tree, max_features, &mut rng);
            (tree, multiplicity)
        });

        // Out-of-bag votes, tallied row-major so each row is gathered
        // once and every tree walks the same contiguous buffer (vote
        // counts are order-independent, so this matches a per-tree
        // merge exactly).
        let oob_accuracy = if params.bootstrap && compute_oob {
            let mut row = Vec::with_capacity(data.feature_count());
            let mut votes = vec![0usize; data.class_count()];
            let mut correct = 0usize;
            let mut voted = 0usize;
            for p in 0..n {
                votes.iter_mut().for_each(|v| *v = 0);
                let mut gathered = false;
                for (tree, multiplicity) in &results {
                    let multiplicity = multiplicity.as_ref().expect("bootstrap trees record bags");
                    if multiplicity[p] == 0 {
                        if !gathered {
                            data.gather_row_into(rows[p], &mut row);
                            gathered = true;
                        }
                        votes[tree.predict(&row)] += 1;
                    }
                }
                let total: usize = votes.iter().sum();
                if total == 0 {
                    continue;
                }
                voted += 1;
                let pred = votes
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &v)| v)
                    .map(|(c, _)| c)
                    .expect("non-empty votes");
                if pred == data.label(rows[p]) {
                    correct += 1;
                }
            }
            obs::count("forest.oob_rows_tallied", voted as u64);
            if voted > 0 {
                Some(correct as f64 / voted as f64)
            } else {
                None
            }
        } else {
            None
        };

        RandomForest {
            trees: results.into_iter().map(|(tree, _)| tree).collect(),
            feature_names: data.feature_names().to_vec(),
            class_count: data.class_count(),
            oob_accuracy,
        }
    }

    /// Average class probabilities over all trees.
    pub fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        self.average_probas(|tree| tree.predict_proba(features))
    }

    /// Average class probabilities for row `i` of a columnar dataset.
    /// The row is gathered once into a contiguous buffer shared by all
    /// trees, so each tree walk reads warm cache lines instead of
    /// hopping between columns.
    pub fn predict_proba_row(&self, data: &Dataset, i: usize) -> Vec<f64> {
        let mut row = Vec::with_capacity(data.feature_count());
        data.gather_row_into(i, &mut row);
        self.predict_proba(&row)
    }

    fn average_probas<'a, F>(&'a self, per_tree: F) -> Vec<f64>
    where
        F: Fn(&'a DecisionTree) -> &'a [f64],
    {
        let mut acc = vec![0.0_f64; self.class_count];
        for tree in &self.trees {
            for (a, p) in acc.iter_mut().zip(per_tree(tree)) {
                *a += p;
            }
        }
        let nt = self.trees.len() as f64;
        acc.iter_mut().for_each(|a| *a /= nt);
        acc
    }

    /// Predicted class: argmax of [`RandomForest::predict_proba`]
    /// (ties go to the higher class index).
    pub fn predict(&self, features: &[f64]) -> usize {
        argmax(&self.predict_proba(features))
    }

    /// Predicted class for row `i` of a columnar dataset.
    pub fn predict_row(&self, data: &Dataset, i: usize) -> usize {
        argmax(&self.predict_proba_row(data, i))
    }

    /// Probability of the positive class (class 1) — binary
    /// convenience used throughout the prediction pipeline.
    pub fn predict_positive_proba(&self, features: &[f64]) -> f64 {
        self.predict_proba(features)[1]
    }

    /// Probability of the positive class for row `i` of a columnar
    /// dataset.
    pub fn predict_positive_proba_row(&self, data: &Dataset, i: usize) -> f64 {
        self.predict_proba_row(data, i)[1]
    }

    /// Normalized gini feature importances (sum to 1 when any split
    /// occurred).
    pub fn feature_importances(&self) -> Vec<f64> {
        let nf = self.feature_names.len();
        let mut acc = vec![0.0_f64; nf];
        for tree in &self.trees {
            for (a, v) in acc.iter_mut().zip(tree.importances()) {
                *a += v;
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            acc.iter_mut().for_each(|a| *a /= total);
        }
        acc
    }

    /// `(name, importance)` pairs sorted descending — the §5.4 ranking.
    pub fn ranked_importances(&self) -> Vec<(String, f64)> {
        let mut pairs: Vec<(String, f64)> = self
            .feature_names
            .iter()
            .cloned()
            .zip(self.feature_importances())
            .collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite importances"));
        pairs
    }

    /// Out-of-bag accuracy estimate, when bootstrap was used and every
    /// vote pool was non-empty.
    pub fn oob_accuracy(&self) -> Option<f64> {
        self.oob_accuracy
    }

    /// Number of trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Feature names the model was trained with.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Number of classes in the leaf distributions.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// The fitted trees, in training order.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Reassembles a forest from deserialized parts, validating that
    /// every tree matches the feature schema and class count — the
    /// inverse of reading [`RandomForest::trees`] and
    /// [`RandomForest::feature_names`] out of a fitted model, used by
    /// the `survdb-serve` on-disk format.
    pub fn from_parts(
        trees: Vec<DecisionTree>,
        feature_names: Vec<String>,
        class_count: usize,
        oob_accuracy: Option<f64>,
    ) -> Result<RandomForest, String> {
        if trees.is_empty() {
            return Err("forest needs at least one tree".to_string());
        }
        if feature_names.is_empty() {
            return Err("forest needs at least one feature".to_string());
        }
        if class_count < 2 {
            return Err(format!("class count must be >= 2, got {class_count}"));
        }
        for (t, tree) in trees.iter().enumerate() {
            if tree.feature_count() != feature_names.len() {
                return Err(format!(
                    "tree {t} tests {} features, schema has {}",
                    tree.feature_count(),
                    feature_names.len()
                ));
            }
            if tree.class_count() != class_count {
                return Err(format!(
                    "tree {t} has {} classes, forest has {class_count}",
                    tree.class_count()
                ));
            }
        }
        if let Some(oob) = oob_accuracy {
            if !oob.is_finite() || !(0.0..=1.0).contains(&oob) {
                return Err(format!("oob accuracy {oob} outside [0, 1]"));
            }
        }
        Ok(RandomForest {
            trees,
            feature_names,
            class_count,
            oob_accuracy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_dataset(n: usize) -> Dataset {
        // Class 1 iff x0 + x1 > 1, with two noise features.
        let mut d = Dataset::new(vec!["x0".into(), "x1".into(), "n0".into(), "n1".into()], 2);
        let mut rng = SmallRng::seed_from_u64(1234);
        for _ in 0..n {
            let x0: f64 = rng.gen();
            let x1: f64 = rng.gen();
            let n0: f64 = rng.gen();
            let n1: f64 = rng.gen();
            d.push(vec![x0, x1, n0, n1], ((x0 + x1) > 1.0) as usize);
        }
        d
    }

    #[test]
    fn learns_linear_boundary() {
        let d = noisy_dataset(800);
        let model = RandomForest::fit(&d, &RandomForestParams::default(), 7);
        let mut correct = 0;
        for i in 0..d.len() {
            if model.predict_row(&d, i) == d.label(i) {
                correct += 1;
            }
        }
        let train_acc = correct as f64 / d.len() as f64;
        assert!(train_acc > 0.95, "train accuracy {train_acc}");
        // OOB is a fair estimate; the boundary is learnable, so > 0.85.
        let oob = model.oob_accuracy().expect("bootstrap on");
        assert!(oob > 0.85, "oob {oob}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let d = noisy_dataset(300);
        let model = RandomForest::fit(&d, &RandomForestParams::default(), 3);
        for i in (0..d.len()).step_by(37) {
            let p = model.predict_proba(&d.row(i));
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert_eq!(model.predict_proba_row(&d, i), p);
        }
    }

    #[test]
    fn importances_favor_informative_features() {
        let d = noisy_dataset(1000);
        let model = RandomForest::fit(&d, &RandomForestParams::default(), 11);
        let imp = model.feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // x0 and x1 carry the signal; noise features should rank lower.
        assert!(imp[0] > imp[2] && imp[0] > imp[3], "{imp:?}");
        assert!(imp[1] > imp[2] && imp[1] > imp[3], "{imp:?}");
        let ranked = model.ranked_importances();
        assert!(ranked[0].0 == "x0" || ranked[0].0 == "x1");
    }

    #[test]
    fn deterministic_across_runs() {
        let d = noisy_dataset(200);
        let params = RandomForestParams {
            n_trees: 16,
            ..RandomForestParams::default()
        };
        let m1 = RandomForest::fit(&d, &params, 99);
        let m2 = RandomForest::fit(&d, &params, 99);
        for i in 0..d.len() {
            assert_eq!(m1.predict_proba(&d.row(i)), m2.predict_proba(&d.row(i)));
        }
        assert_eq!(m1.oob_accuracy(), m2.oob_accuracy());
    }

    #[test]
    fn different_seeds_differ() {
        let d = noisy_dataset(200);
        let m1 = RandomForest::fit(&d, &RandomForestParams::default(), 1);
        let m2 = RandomForest::fit(&d, &RandomForestParams::default(), 2);
        let differs =
            (0..d.len()).any(|i| m1.predict_proba(&d.row(i)) != m2.predict_proba(&d.row(i)));
        assert!(differs);
    }

    #[test]
    fn view_fit_matches_materialized_fit() {
        let d = noisy_dataset(240);
        // An arbitrary subset with a duplicate, as folds/bootstraps see.
        let indices: Vec<usize> = (0..200).map(|i| (i * 7) % 240).collect();
        let params = RandomForestParams {
            n_trees: 12,
            ..RandomForestParams::default()
        };
        let from_view = RandomForest::fit_view(&d.view(&indices), &params, 42);
        let materialized = d.select(&indices);
        let from_copy = RandomForest::fit(&materialized, &params, 42);
        assert_eq!(from_view.oob_accuracy(), from_copy.oob_accuracy());
        for i in 0..d.len() {
            assert_eq!(
                from_view.predict_proba(&d.row(i)),
                from_copy.predict_proba(&d.row(i))
            );
        }
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(10), 4);
        assert_eq!(MaxFeatures::Sqrt.resolve(64), 8);
        assert_eq!(MaxFeatures::Log2.resolve(64), 6);
        assert_eq!(MaxFeatures::Count(3).resolve(10), 3);
        assert_eq!(MaxFeatures::Count(99).resolve(10), 10);
        assert_eq!(MaxFeatures::Log2.resolve(1), 1);
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let d = noisy_dataset(200);
        let params = RandomForestParams {
            n_trees: 8,
            ..RandomForestParams::default()
        };
        let model = RandomForest::fit(&d, &params, 13);
        let rebuilt = RandomForest::from_parts(
            model.trees().to_vec(),
            model.feature_names().to_vec(),
            2,
            model.oob_accuracy(),
        )
        .expect("valid parts");
        for i in 0..d.len() {
            assert_eq!(
                rebuilt.predict_proba_row(&d, i),
                model.predict_proba_row(&d, i)
            );
        }
        assert_eq!(rebuilt.oob_accuracy(), model.oob_accuracy());

        // No trees.
        assert!(RandomForest::from_parts(vec![], vec!["x".into()], 2, None).is_err());
        // Schema width mismatch.
        assert!(
            RandomForest::from_parts(model.trees().to_vec(), vec!["x0".into()], 2, None).is_err()
        );
        // Class count mismatch.
        assert!(RandomForest::from_parts(
            model.trees().to_vec(),
            model.feature_names().to_vec(),
            3,
            None
        )
        .is_err());
        // Out-of-range OOB estimate.
        assert!(RandomForest::from_parts(
            model.trees().to_vec(),
            model.feature_names().to_vec(),
            2,
            Some(1.5)
        )
        .is_err());
    }

    #[test]
    fn no_bootstrap_mode() {
        let d = noisy_dataset(150);
        let params = RandomForestParams {
            bootstrap: false,
            n_trees: 8,
            ..RandomForestParams::default()
        };
        let model = RandomForest::fit(&d, &params, 5);
        assert!(model.oob_accuracy().is_none());
        assert_eq!(model.tree_count(), 8);
    }
}
