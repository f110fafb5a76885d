//! The paper's §5 evaluation protocol for one (region × edition)
//! subgroup.

use features::{FeatureConfig, FeatureExtractor, NgramVocabulary};
use forest::parallel::{derive_seed, run_units};
use forest::tree::TreeParams;
use forest::{
    train_test_split_indices, ClassificationScores, ConfusionMatrix, Dataset, GridSearch,
    MaxFeatures, PartitionedPredictions, RandomForest, RandomForestParams,
    WeightedRandomClassifier,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use survival::{logrank_test, KaplanMeier, SurvivalData};
use telemetry::{Census, Edition};

/// Grid-search breadth (the paper tunes via grid search with 5-fold
/// cross-validation; the presets bound harness runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridPreset {
    /// No tuning: use the default forest parameters.
    Off,
    /// A small grid (2 candidates) with 3-fold CV.
    Light,
    /// A broader grid (6 candidates) with 5-fold CV.
    Full,
}

impl GridPreset {
    fn candidates(self) -> Vec<RandomForestParams> {
        let base = RandomForestParams::default();
        match self {
            GridPreset::Off => vec![base],
            GridPreset::Light => vec![
                RandomForestParams {
                    n_trees: 40,
                    ..base
                },
                RandomForestParams {
                    n_trees: 40,
                    tree: TreeParams {
                        min_samples_leaf: 5,
                        ..base.tree
                    },
                    ..base
                },
            ],
            GridPreset::Full => {
                let mut out = Vec::new();
                for &n_trees in &[40, 80] {
                    for &min_samples_leaf in &[1, 5] {
                        out.push(RandomForestParams {
                            n_trees,
                            tree: TreeParams {
                                min_samples_leaf,
                                ..base.tree
                            },
                            ..base
                        });
                    }
                }
                for &max_features in &[MaxFeatures::Log2, MaxFeatures::Count(16)] {
                    out.push(RandomForestParams {
                        n_trees: 80,
                        max_features,
                        ..base
                    });
                }
                out
            }
        }
    }

    fn folds(self) -> usize {
        match self {
            GridPreset::Off => 0,
            GridPreset::Light => 3,
            GridPreset::Full => 5,
        }
    }
}

/// Experiment configuration (paper defaults: x = 2 days, y = 30 days,
/// 20% test, 5 repetitions, grid-search tuning).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Observation prefix in days.
    pub x_days: f64,
    /// Short/long class boundary in days.
    pub y_days: f64,
    /// Held-out test fraction.
    pub test_fraction: f64,
    /// Repetitions averaged over (the paper uses 5).
    pub repetitions: usize,
    /// Tuning breadth.
    pub grid: GridPreset,
    /// Base seed for splits / models.
    pub seed: u64,
    /// Optional n-gram features (for the §5.4 ablation).
    pub ngrams: Option<(usize, usize)>,
    /// Include the utilization feature family (extension; the paper's
    /// feature list omits it).
    pub include_utilization: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            x_days: 2.0,
            y_days: 30.0,
            test_fraction: 0.2,
            repetitions: 5,
            grid: GridPreset::Light,
            seed: 2018,
            ngrams: None,
            include_utilization: false,
        }
    }
}

/// A `(t, S(t))` series for one predicted grouping's KM curve.
#[derive(Debug, Clone)]
pub struct KmSeries {
    /// Group label (e.g. "predicted-long").
    pub label: String,
    /// Number of databases in the group.
    pub n: usize,
    /// Sampled `(day, survival)` points.
    pub points: Vec<(f64, f64)>,
}

/// KM curves plus log-rank significance of a short/long grouping.
#[derive(Debug, Clone)]
pub struct GroupingAnalysis {
    /// Predicted short-lived group curve.
    pub short_curve: KmSeries,
    /// Predicted long-lived group curve.
    pub long_curve: KmSeries,
    /// Log-rank p-value between the two groups (1.0 when either group
    /// is empty).
    pub logrank_p: f64,
    /// Log-rank statistic.
    pub logrank_statistic: f64,
}

/// The outcome of one subgroup experiment.
#[derive(Debug, Clone)]
pub struct SubgroupResult {
    /// Region label.
    pub region: String,
    /// Edition label ("all" for whole-region runs).
    pub edition: String,
    /// Training positive-class fraction (q).
    pub positive_fraction: f64,
    /// Confidence threshold t = max(q, 1 − q).
    pub confidence_threshold: f64,
    /// Examples in the subgroup.
    pub population: usize,
    /// Mean random-forest scores over repetitions (Figure 5's blue
    /// bars).
    pub forest: ClassificationScores,
    /// Mean baseline scores (Figure 5's yellow bars).
    pub baseline: ClassificationScores,
    /// Mean scores over confident predictions (Figure 7's green bars).
    pub confident: ClassificationScores,
    /// Mean scores over uncertain predictions (Figure 7's red bars).
    pub uncertain: ClassificationScores,
    /// Fraction of predictions that were confident (Table 1).
    pub confident_fraction: f64,
    /// Whole-population predicted grouping (Figure 6 panel).
    pub whole_grouping: GroupingAnalysis,
    /// Baseline predicted grouping (§5.2: not significant).
    pub baseline_grouping: GroupingAnalysis,
    /// Confident-only grouping (Figure 8 panel).
    pub confident_grouping: GroupingAnalysis,
    /// Uncertain-only grouping (Figure 9 panel, Table 2 p-value).
    pub uncertain_grouping: GroupingAnalysis,
    /// Mean OOB accuracy of the tuned forests.
    pub oob_accuracy: f64,
    /// Gini feature importances averaged over repetitions, descending.
    pub importances: Vec<(String, f64)>,
    /// The tuned parameter description.
    pub tuned_params: String,
}

/// Runs the paper's §5 protocol on one subgroup.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ExperimentConfig,
}

/// Why an experiment could not run on a subgroup. Degraded-telemetry
/// sweeps hit these routinely (quarantines shrink populations), so
/// they are errors rather than panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// Fewer examples than the evaluation protocol can split and
    /// cross-validate (minimum 40).
    SubgroupTooSmall {
        /// Examples available.
        examples: usize,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::SubgroupTooSmall { examples } => {
                write!(f, "subgroup too small to evaluate ({examples} examples)")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

impl Experiment {
    /// Creates an experiment runner.
    pub fn new(config: ExperimentConfig) -> Experiment {
        assert!(config.repetitions >= 1, "need at least one repetition");
        Experiment { config }
    }

    /// Runs on the given region census, restricted to one creation
    /// edition (`None` = the whole region population). Panics when the
    /// subgroup is too small — use [`Experiment::try_run`] for
    /// populations that may not be evaluable (e.g. degraded streams).
    pub fn run(&self, census: &Census<'_>, edition: Option<Edition>) -> SubgroupResult {
        match self.try_run(census, edition) {
            Ok(result) => result,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs on the given region census, returning an error instead of
    /// panicking when the subgroup cannot be evaluated.
    pub fn try_run(
        &self,
        census: &Census<'_>,
        edition: Option<Edition>,
    ) -> Result<SubgroupResult, ExperimentError> {
        let ngrams = self.config.ngrams.map(|(n, k)| {
            NgramVocabulary::fit(
                census
                    .fleet()
                    .databases
                    .iter()
                    .map(|d| d.database_name.as_str()),
                n,
                k,
            )
        });
        let extractor = FeatureExtractor::new(
            census,
            FeatureConfig {
                x_days: self.config.x_days,
                y_days: self.config.y_days,
                ngrams,
                include_utilization: self.config.include_utilization,
            },
        );
        let (dataset, survival) = extractor.build_dataset(census, edition);
        if dataset.len() < 40 {
            return Err(ExperimentError::SubgroupTooSmall {
                examples: dataset.len(),
            });
        }
        Ok(self.run_on_dataset(dataset, survival, census, edition))
    }

    /// Runs the protocol on an explicit dataset (exposed for ablations).
    ///
    /// Repetitions are independent work units: repetition `r` derives
    /// every seed it needs (split, grid search, model, baseline) from
    /// `derive_seed(cfg.seed, r)`, and results are merged in repetition
    /// order — so the outcome is identical whatever the thread count.
    /// Splits, folds, and training sets are index views over the one
    /// dataset; no feature value is copied per repetition.
    pub fn run_on_dataset(
        &self,
        dataset: Dataset,
        survival: Vec<(f64, bool)>,
        census: &Census<'_>,
        edition: Option<Edition>,
    ) -> SubgroupResult {
        let _span = obs::span!("experiment");
        let cfg = &self.config;
        let q = dataset.class_fraction(1);
        let threshold = forest::confidence_threshold(q);

        let reps = run_units(cfg.repetitions, |rep| {
            let _span = obs::span!("repetition");
            let rep_seed = derive_seed(cfg.seed, rep as u64);
            let (train_rows, test_rows) =
                train_test_split_indices(&dataset, cfg.test_fraction, rep_seed);
            let train = dataset.view(&train_rows);

            // Tune on the training set, then fit the winner on all of
            // it; a tuned fit reuses the search's rank-code precompute.
            let model_seed = derive_seed(rep_seed, 2);
            let (params, model) = match cfg.grid {
                GridPreset::Off => {
                    let params = RandomForestParams::default();
                    (params, RandomForest::fit_view(&train, &params, model_seed))
                }
                preset => {
                    let (result, model) = GridSearch::new(preset.candidates(), preset.folds())
                        .fit_best_on(&dataset, &train_rows, derive_seed(rep_seed, 1), model_seed);
                    (result.best_params, model)
                }
            };
            let tuned = format!(
                "trees={} depth={} leaf={} max_features={:?}",
                params.n_trees,
                params.tree.max_depth,
                params.tree.min_samples_leaf,
                params.max_features
            );

            // Forest predictions on the test set.
            let probs: Vec<f64> = model
                .predict_proba_rows(&dataset, &test_rows)
                .chunks_exact(model.class_count())
                .map(|p| p[1])
                .collect();
            let predicted: Vec<usize> = probs.iter().map(|&p| (p > 0.5) as usize).collect();
            let actual: Vec<usize> = test_rows.iter().map(|&i| dataset.label(i)).collect();
            let forest_scores = ConfusionMatrix::from_predictions(&predicted, &actual).scores();

            // Baseline.
            let baseline = WeightedRandomClassifier::fit_view(&train);
            let mut rng = SmallRng::seed_from_u64(derive_seed(rep_seed, 3));
            let baseline_preds = baseline.predict_many(test_rows.len(), &mut rng);
            let baseline_scores =
                ConfusionMatrix::from_predictions(&baseline_preds, &actual).scores();

            // Confidence partition.
            let partition = PartitionedPredictions::partition(&probs, train.class_fraction(1));
            let score_of = |subset: &[(usize, f64, usize)]| -> ClassificationScores {
                let mut m = ConfusionMatrix::default();
                for &(i, _, pred) in subset {
                    m.record(pred == 1, actual[i] == 1);
                }
                m.scores()
            };
            let confident_scores = score_of(&partition.confident);
            let uncertain_scores = score_of(&partition.uncertain);

            // Survival groupings for this repetition's test set.
            let mut whole = Vec::with_capacity(test_rows.len());
            let mut confident_pool = Vec::new();
            let mut uncertain_pool = Vec::new();
            for (i, (&pred, &p)) in predicted.iter().zip(&probs).enumerate() {
                let pair = survival[test_rows[i]];
                whole.push((pred, pair));
                let confident = p >= threshold || p <= 1.0 - threshold;
                if confident {
                    confident_pool.push((pred, pair));
                } else {
                    uncertain_pool.push((pred, pair));
                }
            }
            let baseline_pool: Vec<(usize, (f64, bool))> = baseline_preds
                .iter()
                .enumerate()
                .map(|(i, &pred)| (pred, survival[test_rows[i]]))
                .collect();

            RepOutcome {
                forest: forest_scores,
                baseline: baseline_scores,
                confident: confident_scores,
                uncertain: uncertain_scores,
                confident_count: partition.confident.len(),
                uncertain_count: partition.uncertain.len(),
                oob: model.oob_accuracy(),
                importances: model.feature_importances(),
                tuned,
                whole,
                baseline_pool,
                confident_pool,
                uncertain_pool,
            }
        });
        obs::count("core.repetitions_completed", reps.len() as u64);

        // Merge in repetition order.
        let mut forest_scores = Vec::with_capacity(reps.len());
        let mut baseline_scores = Vec::with_capacity(reps.len());
        let mut confident_scores = Vec::with_capacity(reps.len());
        let mut uncertain_scores = Vec::with_capacity(reps.len());
        let mut confident_counts = (0usize, 0usize);
        let mut oob_sum = 0.0;
        let mut oob_n = 0usize;
        let mut importance_acc: Vec<f64> = vec![0.0; dataset.feature_count()];
        let mut pool_whole = GroupPool::default();
        let mut pool_baseline = GroupPool::default();
        let mut pool_confident = GroupPool::default();
        let mut pool_uncertain = GroupPool::default();
        let tuned_desc = reps.first().map_or_else(String::new, |r| r.tuned.clone());

        for rep in &reps {
            forest_scores.push(rep.forest);
            baseline_scores.push(rep.baseline);
            confident_scores.push(rep.confident);
            uncertain_scores.push(rep.uncertain);
            confident_counts.0 += rep.confident_count;
            confident_counts.1 += rep.uncertain_count;
            if let Some(oob) = rep.oob {
                oob_sum += oob;
                oob_n += 1;
            }
            for (acc, v) in importance_acc.iter_mut().zip(&rep.importances) {
                *acc += v;
            }
            for &(pred, pair) in &rep.whole {
                pool_whole.push(pred, pair);
            }
            for &(pred, pair) in &rep.baseline_pool {
                pool_baseline.push(pred, pair);
            }
            for &(pred, pair) in &rep.confident_pool {
                pool_confident.push(pred, pair);
            }
            for &(pred, pair) in &rep.uncertain_pool {
                pool_uncertain.push(pred, pair);
            }
        }

        let total = importance_acc.iter().sum::<f64>();
        if total > 0.0 {
            importance_acc.iter_mut().for_each(|v| *v /= total);
        }
        let mut importances: Vec<(String, f64)> = dataset
            .feature_names()
            .iter()
            .cloned()
            .zip(importance_acc)
            .collect();
        // total_cmp: importances can be NaN-free by construction today,
        // but a degenerate dataset must not turn a sort into a panic.
        importances.sort_by(|a, b| b.1.total_cmp(&a.1));

        SubgroupResult {
            region: census.fleet().config.region.id.to_string(),
            edition: edition.map_or_else(|| "all".to_string(), |e| e.to_string()),
            positive_fraction: q,
            confidence_threshold: threshold,
            population: dataset.len(),
            forest: ClassificationScores::mean(&forest_scores),
            baseline: ClassificationScores::mean(&baseline_scores),
            confident: ClassificationScores::mean(&confident_scores),
            uncertain: ClassificationScores::mean(&uncertain_scores),
            confident_fraction: confident_counts.0 as f64
                / (confident_counts.0 + confident_counts.1).max(1) as f64,
            whole_grouping: pool_whole.analyze(),
            baseline_grouping: pool_baseline.analyze(),
            confident_grouping: pool_confident.analyze(),
            uncertain_grouping: pool_uncertain.analyze(),
            oob_accuracy: if oob_n > 0 {
                oob_sum / oob_n as f64
            } else {
                0.0
            },
            importances,
            tuned_params: tuned_desc,
        }
    }
}

/// Everything one repetition contributes to the subgroup result.
#[derive(Debug, Clone)]
struct RepOutcome {
    forest: ClassificationScores,
    baseline: ClassificationScores,
    confident: ClassificationScores,
    uncertain: ClassificationScores,
    confident_count: usize,
    uncertain_count: usize,
    oob: Option<f64>,
    importances: Vec<f64>,
    tuned: String,
    whole: Vec<(usize, (f64, bool))>,
    baseline_pool: Vec<(usize, (f64, bool))>,
    confident_pool: Vec<(usize, (f64, bool))>,
    uncertain_pool: Vec<(usize, (f64, bool))>,
}

/// Survival pairs pooled per predicted class.
#[derive(Debug, Clone, Default)]
struct GroupPool {
    short: Vec<(f64, bool)>,
    long: Vec<(f64, bool)>,
}

impl GroupPool {
    fn push(&mut self, predicted: usize, pair: (f64, bool)) {
        if predicted == 1 {
            self.long.push(pair);
        } else {
            self.short.push(pair);
        }
    }

    fn analyze(&self) -> GroupingAnalysis {
        let curve = |pairs: &[(f64, bool)], label: &str| -> KmSeries {
            let km = KaplanMeier::fit(&SurvivalData::from_pairs(pairs));
            KmSeries {
                label: label.to_string(),
                n: pairs.len(),
                points: km.sample_curve(150.0, 51),
            }
        };
        let (p, stat) = if self.short.is_empty() || self.long.is_empty() {
            (1.0, 0.0)
        } else {
            let r = logrank_test(
                &SurvivalData::from_pairs(&self.short),
                &SurvivalData::from_pairs(&self.long),
            );
            (r.p_value, r.statistic)
        };
        GroupingAnalysis {
            short_curve: curve(&self.short, "predicted-short"),
            long_curve: curve(&self.long, "predicted-long"),
            logrank_p: p,
            logrank_statistic: stat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{Study, StudyConfig};
    use telemetry::RegionId;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            repetitions: 2,
            grid: GridPreset::Off,
            ..ExperimentConfig::default()
        }
    }

    fn study() -> Study {
        Study::load_region(
            StudyConfig {
                scale: 0.12,
                seed: 99,
            },
            RegionId::Region1,
        )
    }

    #[test]
    fn forest_beats_baseline_significantly() {
        let study = study();
        let census = study.census(RegionId::Region1);
        let result = Experiment::new(quick_config()).run(&census, None);
        assert!(
            result.forest.accuracy > result.baseline.accuracy + 0.1,
            "forest {:.3} vs baseline {:.3}",
            result.forest.accuracy,
            result.baseline.accuracy
        );
        assert!(result.forest.accuracy > 0.7);
        // Forest grouping separates; baseline does not.
        assert!(result.whole_grouping.logrank_p < 1e-4);
        assert!(result.baseline_grouping.logrank_p > 0.001);
    }

    #[test]
    fn confident_scores_dominate_whole_population() {
        let study = study();
        let census = study.census(RegionId::Region1);
        let result = Experiment::new(quick_config()).run(&census, None);
        assert!(result.confident.accuracy >= result.forest.accuracy - 0.02);
        assert!(result.confident_fraction > 0.3 && result.confident_fraction <= 1.0);
        // Threshold formula.
        let q = result.positive_fraction;
        assert!((result.confidence_threshold - q.max(1.0 - q)).abs() < 1e-12);
    }

    #[test]
    fn km_series_shapes() {
        let study = study();
        let census = study.census(RegionId::Region1);
        let result = Experiment::new(quick_config()).run(&census, None);
        for g in [&result.whole_grouping, &result.confident_grouping] {
            assert_eq!(g.long_curve.points.len(), 51);
            assert_eq!(g.long_curve.points[0].1, 1.0);
            // Long group survives better at day 30.
            let s_long = g
                .long_curve
                .points
                .iter()
                .find(|(t, _)| *t >= 30.0)
                .unwrap()
                .1;
            let s_short = g
                .short_curve
                .points
                .iter()
                .find(|(t, _)| *t >= 30.0)
                .unwrap()
                .1;
            assert!(s_long > s_short, "{s_long} vs {s_short}");
        }
    }

    #[test]
    fn importances_are_normalized_and_ranked() {
        let study = study();
        let census = study.census(RegionId::Region1);
        let result = Experiment::new(quick_config()).run(&census, None);
        let total: f64 = result.importances.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-6);
        for w in result.importances.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn repetitions_are_thread_count_invariant() {
        let study = study();
        let census = study.census(RegionId::Region1);
        let experiment = Experiment::new(quick_config());
        forest::set_thread_limit(Some(1));
        let sequential = experiment.run(&census, None);
        forest::set_thread_limit(Some(4));
        let threaded = experiment.run(&census, None);
        forest::set_thread_limit(None);
        assert_eq!(sequential.forest, threaded.forest);
        assert_eq!(sequential.baseline, threaded.baseline);
        assert_eq!(sequential.confident_fraction, threaded.confident_fraction);
        assert_eq!(sequential.oob_accuracy, threaded.oob_accuracy);
        assert_eq!(sequential.importances, threaded.importances);
        assert_eq!(
            sequential.whole_grouping.logrank_p,
            threaded.whole_grouping.logrank_p
        );
    }
}
