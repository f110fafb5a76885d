//! Reproducibility guarantees: every stage of the reproduction is a
//! pure function of its seed, including parallel forest training.

use features::{FeatureConfig, FeatureExtractor};
use forest::tree::TreeParams;
use forest::{set_thread_limit, train_test_split, GridSearch, RandomForest, RandomForestParams};
use std::sync::Mutex;
use survdb::experiment::{Experiment, ExperimentConfig, GridPreset};
use survdb::study::{Study, StudyConfig};
use telemetry::{Census, Fleet, FleetConfig, RegionConfig, RegionId};

/// The thread limit is process-wide: tests that compare thread counts
/// hold this lock so they do not change each other's limit mid-run.
static THREAD_LIMIT_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn fleets_are_bit_identical_across_generations() {
    let make = || Fleet::generate(FleetConfig::new(RegionConfig::region_2().scaled(0.05), 77));
    let a = make();
    let b = make();
    assert_eq!(a.databases, b.databases);
    assert_eq!(a.subscriptions, b.subscriptions);
}

#[test]
fn feature_matrices_are_identical() {
    let fleet = Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.05), 8));
    let census = Census::new(&fleet);
    let e1 = FeatureExtractor::new(&census, FeatureConfig::default());
    let e2 = FeatureExtractor::new(&census, FeatureConfig::default());
    let (d1, s1) = e1.build_dataset(&census, None);
    let (d2, s2) = e2.build_dataset(&census, None);
    assert_eq!(d1, d2);
    assert_eq!(s1, s2);
}

#[test]
fn forests_are_identical_despite_threading() {
    // Tree seeds derive from (seed, tree index), so scheduling cannot
    // change results.
    let fleet = Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.05), 9));
    let census = Census::new(&fleet);
    let extractor = FeatureExtractor::new(&census, FeatureConfig::default());
    let (dataset, _) = extractor.build_dataset(&census, None);
    let (train, test) = train_test_split(&dataset, 0.3, 1);
    let m1 = RandomForest::fit(&train, &RandomForestParams::default(), 99);
    let m2 = RandomForest::fit(&train, &RandomForestParams::default(), 99);
    for i in 0..test.len() {
        assert_eq!(
            m1.predict_proba(&test.row(i)),
            m2.predict_proba(&test.row(i))
        );
    }
    assert_eq!(m1.feature_importances(), m2.feature_importances());
    assert_eq!(m1.oob_accuracy(), m2.oob_accuracy());
}

#[test]
fn whole_experiments_reproduce_exactly() {
    let study = Study::load_region(
        StudyConfig {
            scale: 0.06,
            seed: 1234,
        },
        RegionId::Region1,
    );
    let census = study.census(RegionId::Region1);
    let config = ExperimentConfig {
        repetitions: 2,
        grid: GridPreset::Off,
        ..ExperimentConfig::default()
    };
    let r1 = Experiment::new(config.clone()).run(&census, None);
    let r2 = Experiment::new(config).run(&census, None);
    assert_eq!(r1.forest, r2.forest);
    assert_eq!(r1.baseline, r2.baseline);
    assert_eq!(r1.confident_fraction, r2.confident_fraction);
    assert_eq!(r1.whole_grouping.logrank_p, r2.whole_grouping.logrank_p);
    assert_eq!(r1.importances, r2.importances);
}

#[test]
fn results_are_thread_count_invariant() {
    // Every work unit (tree, fold, candidate × fold, repetition) is
    // seeded from its index, so 1, 2, and 8 worker threads must give
    // bitwise-identical forests, grid searches, and experiments.
    let _limit = THREAD_LIMIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fleet = Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.05), 9));
    let census = Census::new(&fleet);
    let extractor = FeatureExtractor::new(&census, FeatureConfig::default());
    let (dataset, _) = extractor.build_dataset(&census, None);
    let (train, test) = train_test_split(&dataset, 0.3, 1);
    let candidates = vec![
        RandomForestParams {
            n_trees: 8,
            tree: TreeParams {
                max_depth: 8,
                ..TreeParams::default()
            },
            ..RandomForestParams::default()
        },
        RandomForestParams {
            n_trees: 16,
            ..RandomForestParams::default()
        },
    ];
    let study = Study::load_region(
        StudyConfig {
            scale: 0.06,
            seed: 1234,
        },
        RegionId::Region1,
    );
    let study_census = study.census(RegionId::Region1);
    let config = ExperimentConfig {
        repetitions: 2,
        grid: GridPreset::Off,
        ..ExperimentConfig::default()
    };

    let run_all = || {
        let model = RandomForest::fit(&train, &RandomForestParams::default(), 99);
        let predictions: Vec<Vec<f64>> = (0..test.len())
            .map(|i| model.predict_proba_row(&test, i))
            .collect();
        let grid = GridSearch::new(candidates.clone(), 3).run(&train, 5);
        let grid_scores: Vec<f64> = grid.all_scores.iter().map(|(_, s)| *s).collect();
        let result = Experiment::new(config.clone()).run(&study_census, None);
        (predictions, grid.best_params, grid_scores, result)
    };

    set_thread_limit(Some(1));
    let single = run_all();
    set_thread_limit(Some(2));
    let dual = run_all();
    set_thread_limit(Some(8));
    let many = run_all();
    set_thread_limit(None);

    for other in [&dual, &many] {
        assert_eq!(single.0, other.0, "forest predictions diverged");
        assert_eq!(single.1, other.1, "grid winner diverged");
        assert_eq!(single.2, other.2, "grid scores diverged");
        assert_eq!(single.3.forest, other.3.forest);
        assert_eq!(single.3.baseline, other.3.baseline);
        assert_eq!(single.3.oob_accuracy, other.3.oob_accuracy);
        assert_eq!(single.3.importances, other.3.importances);
        assert_eq!(
            single.3.whole_grouping.logrank_p,
            other.3.whole_grouping.logrank_p
        );
    }
}

#[test]
fn parallel_loading_extraction_and_grid_units_are_thread_count_invariant() {
    // Study::load runs one unit per region fleet, build_dataset_indexed
    // one per chunk of at least 256 databases of the prediction
    // population, and the grid search one per (candidate × fold ×
    // tree). One worker and four must give identical outputs.
    let _limit = THREAD_LIMIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let candidates = vec![
        RandomForestParams {
            n_trees: 5,
            tree: TreeParams {
                max_depth: 6,
                ..TreeParams::default()
            },
            ..RandomForestParams::default()
        },
        RandomForestParams {
            n_trees: 7,
            tree: TreeParams {
                min_samples_leaf: 5,
                ..TreeParams::default()
            },
            ..RandomForestParams::default()
        },
    ];
    let run_all = || {
        let study = Study::load(StudyConfig {
            scale: 0.1,
            seed: 31,
        });
        let census = study.census(RegionId::Region1);
        let population = census.prediction_population_with_boundary(2.0, 30.0).len();
        assert!(population >= 3 * 256, "{population} rows give one chunk");
        let extractor = FeatureExtractor::new(&census, FeatureConfig::default());
        let (dataset, survival, indices) = extractor.build_dataset_indexed(&census, None);
        let rows: Vec<usize> = (0..dataset.len()).filter(|i| i % 4 != 1).collect();
        let (grid, model) =
            GridSearch::new(candidates.clone(), 3).fit_best_on(&dataset, &rows, 8, 9);
        let flats: Vec<_> = model.trees().iter().map(|t| t.to_flat()).collect();
        let databases: Vec<_> = study.fleets().iter().map(|f| f.databases.clone()).collect();
        (
            databases,
            (dataset, survival, indices),
            (grid.all_scores, grid.best_params, grid.best_score),
            (flats, model.oob_accuracy()),
        )
    };

    set_thread_limit(Some(1));
    let single = run_all();
    set_thread_limit(Some(4));
    let wide = run_all();
    set_thread_limit(None);

    assert_eq!(single.0, wide.0, "fleets diverged");
    assert_eq!(
        single.1, wide.1,
        "dataset, survival pairs or indices diverged"
    );
    assert_eq!(single.2, wide.2, "grid scores or winner diverged");
    assert_eq!(single.3, wide.3, "fitted trees diverged");
}

#[test]
fn different_seeds_give_different_fleets() {
    let a = Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.05), 1));
    let b = Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.05), 2));
    assert!(a.databases != b.databases);
}
