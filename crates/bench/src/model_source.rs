//! Shared model sourcing for the serving and scoring binaries: one
//! fixture-fleet dataset builder, one tuning grid, and one
//! train-or-load path with persistence verification.
//!
//! `scored`, `survd`, `servecheck` and `perfbench` all need "a dataset
//! from the fixture fleet" and "a `SavedModel`, either loaded from
//! disk or trained-saved-reloaded-verified". Before this module each
//! binary carried its own copy; now they share these definitions, so a
//! change to the tuning surface or the verification discipline lands
//! everywhere at once.

use features::{FeatureConfig, FeatureExtractor};
use forest::tree::TreeParams;
use forest::{Dataset, GridSearch, MaxFeatures, RandomForest, RandomForestParams};
use serve::{GridProvenance, ModelMeta, SavedModel, MODEL_FILE};
use std::path::{Path, PathBuf};
use telemetry::{Census, Fleet, FleetConfig, RegionConfig};

/// Builds the fixture dataset every scoring/serving binary trains and
/// scores on: the Region-1 fleet at `scale`, censused and featurized
/// with the default extractor. Deterministic in `(scale, seed)`.
pub fn fixture_dataset(scale: f64, seed: u64) -> Dataset {
    let fleet = Fleet::generate(FleetConfig::new(
        RegionConfig::region_1().scaled(scale),
        seed,
    ));
    let census = Census::new(&fleet);
    let extractor = FeatureExtractor::new(&census, FeatureConfig::default());
    extractor.build_dataset(&census, None).0
}

/// The shared tuning surface: tree count × depth, sqrt feature
/// sampling, bootstrapped.
pub fn tuning_candidates() -> Vec<RandomForestParams> {
    let mut out = Vec::new();
    for &n_trees in &[20usize, 40] {
        for &max_depth in &[8usize, 24] {
            out.push(RandomForestParams {
                n_trees,
                tree: TreeParams {
                    max_depth,
                    ..TreeParams::default()
                },
                max_features: MaxFeatures::Sqrt,
                bootstrap: true,
            });
        }
    }
    out
}

/// How a binary obtains its model.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Load this `survdb-model/v1` file instead of training.
    pub load_from: Option<PathBuf>,
    /// Training seed (ignored when loading).
    pub seed: u64,
    /// Grid-search the hyper-parameters before the final fit
    /// (ignored when loading).
    pub tune: bool,
    /// Directory the trained model is saved under (as
    /// [`serve::MODEL_FILE`]); ignored when loading.
    pub save_dir: PathBuf,
}

/// Verifies that a persisted-and-reloaded model is indistinguishable
/// from the in-memory one: bitwise-equal per-row predictions on
/// `data` and a byte-identical re-render. Returns the rendered model
/// size in bytes.
pub fn verify_persisted(
    saved: &SavedModel,
    loaded: &SavedModel,
    data: &Dataset,
) -> Result<usize, String> {
    for i in 0..data.len() {
        if loaded.forest.predict_proba_row(data, i) != saved.forest.predict_proba_row(data, i) {
            return Err(format!(
                "loaded model diverged from the in-memory forest on row {i}"
            ));
        }
    }
    let rendered = saved.render();
    if loaded.render() != rendered {
        return Err("save-load-save is not byte-identical".to_string());
    }
    Ok(rendered.len())
}

/// The model's feature schema must match what the fleet produces —
/// scoring through a mismatched schema would silently permute
/// features.
pub fn check_schema(model: &SavedModel, data: &Dataset) -> Result<(), String> {
    if model.forest.feature_names() != data.feature_names() {
        return Err(
            "model was trained on a different feature schema than this fleet produces".to_string(),
        );
    }
    Ok(())
}

/// Obtains a model per `spec`: loads `load_from` when given, otherwise
/// trains on `data` (optionally grid-tuned), saves to
/// `save_dir/model.json`, reloads from disk, verifies the reload
/// bitwise, and returns the **loaded** copy — so every consumer serves
/// exactly what a later process would load.
pub fn obtain_model(data: &Dataset, spec: &ModelSpec) -> Result<SavedModel, String> {
    if let Some(path) = &spec.load_from {
        let model =
            SavedModel::load(path).map_err(|e| format!("cannot load {}: {e}", path.display()))?;
        check_schema(&model, data)?;
        return Ok(model);
    }

    let (params, grid, forest) = if spec.tune {
        let candidates = tuning_candidates();
        obs::info!(
            "model_source",
            "tuning over {} candidates, then training the best on {} examples x {} features",
            candidates.len(),
            data.len(),
            data.feature_count()
        );
        let rows: Vec<usize> = (0..data.len()).collect();
        let (result, forest) =
            GridSearch::new(candidates, 5).fit_best_on(data, &rows, spec.seed, spec.seed);
        (
            result.best_params,
            Some(GridProvenance::from_result(&result)),
            forest,
        )
    } else {
        let params = RandomForestParams::default();
        obs::info!(
            "model_source",
            "training {} trees on {} examples x {} features",
            params.n_trees,
            data.len(),
            data.feature_count()
        );
        (params, None, RandomForest::fit(data, &params, spec.seed))
    };
    let saved = SavedModel::new(
        forest,
        ModelMeta {
            positive_fraction: data.class_fraction(1),
            seed: spec.seed,
            params,
            grid,
        },
    );

    let path = model_path(&spec.save_dir);
    saved
        .save(&path)
        .map_err(|e| format!("cannot save model to {}: {e}", path.display()))?;
    let loaded =
        SavedModel::load(&path).map_err(|e| format!("cannot reload {}: {e}", path.display()))?;
    verify_persisted(&saved, &loaded, data)?;
    obs::info!(
        "model_source",
        "wrote {} and verified the reload bitwise on {} rows",
        path.display(),
        data.len()
    );
    Ok(loaded)
}

/// Where [`obtain_model`] persists a freshly trained model.
pub fn model_path(save_dir: &Path) -> PathBuf {
    save_dir.join(MODEL_FILE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_surface_is_tree_count_by_depth() {
        let candidates = tuning_candidates();
        assert_eq!(candidates.len(), 4);
        for c in &candidates {
            assert!(matches!(c.max_features, MaxFeatures::Sqrt));
            assert!(c.bootstrap);
        }
        let shapes: Vec<(usize, usize)> = candidates
            .iter()
            .map(|c| (c.n_trees, c.tree.max_depth))
            .collect();
        assert_eq!(shapes, vec![(20, 8), (20, 24), (40, 8), (40, 24)]);
    }

    #[test]
    fn obtain_model_trains_saves_and_reloads() {
        let data = fixture_dataset(0.02, 99);
        let dir = std::env::temp_dir().join(format!("survdb-model-source-{}", std::process::id()));
        let spec = ModelSpec {
            load_from: None,
            seed: 99,
            tune: false,
            save_dir: dir.clone(),
        };
        let trained = obtain_model(&data, &spec).expect("trains and verifies");
        check_schema(&trained, &data).expect("schema matches");

        // A second spec that loads what the first run persisted.
        let load_spec = ModelSpec {
            load_from: Some(model_path(&dir)),
            seed: 0,
            tune: false,
            save_dir: dir.clone(),
        };
        let loaded = obtain_model(&data, &load_spec).expect("loads");
        assert_eq!(loaded.render(), trained.render());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_mismatch_is_refused() {
        let data = fixture_dataset(0.02, 99);
        let mut other = Dataset::new(vec!["alien".into()], 2);
        other.push(vec![0.0], 0);
        other.push(vec![1.0], 1);
        let params = RandomForestParams {
            n_trees: 2,
            ..RandomForestParams::default()
        };
        let model = SavedModel::new(
            RandomForest::fit(&other, &params, 1),
            ModelMeta {
                positive_fraction: 0.5,
                seed: 1,
                params,
                grid: None,
            },
        );
        assert!(check_schema(&model, &data).is_err());
    }
}
