//! The versioned on-disk model format: `survdb-model/v1`.
//!
//! Layout (rendered with `obs::jsonv` — deterministic two-space
//! pretty printing, keys in fixed order, shortest-roundtrip floats):
//!
//! ```text
//! {
//!   "schema": "survdb-model/v1",
//!   "forest": {
//!     "feature_names": [str],
//!     "class_count":   u64,
//!     "tree_count":    u64,
//!     "oob_accuracy":  f64 | null,
//!     "trees": [            // flat-array node layout, one per tree
//!       {
//!         "kind":               [u64],   // 0 = leaf, 1 = split
//!         "feature":            [u64],
//!         "threshold":          [f64],
//!         "left":               [u64],
//!         "right":              [u64],
//!         "leaf_probabilities": [f64],   // class_count per leaf
//!         "importances":        [f64]    // one per feature
//!       }
//!     ]
//!   },
//!   "metadata": {
//!     "positive_fraction":    f64,   // training prevalence q
//!     "confidence_threshold": f64,   // max(q, 1 − q), §5.3
//!     "seed":                 u64,
//!     "params":               { ... final fit hyper-parameters ... },
//!     "grid": null | {
//!       "best_score": f64,
//!       "candidates": [ {"params": {...}, "score": f64} ]
//!     }
//!   }
//! }
//! ```
//!
//! Determinism: the same [`SavedModel`] always renders the same bytes
//! (floats use the one-rule renderer, which re-parses bitwise), so
//! save→load→save is byte-identical and a loaded forest reproduces
//! the in-memory model's predictions exactly. The parser is strict —
//! exact key sets in fixed order, typed errors, no panics — so format
//! drift fails loudly instead of silently reinterpreting bytes.
//!
//! Format evolution rules live in DESIGN.md §10: breaking changes bump
//! the schema id (`survdb-model/v2`), and a reader only accepts the
//! ids it was built to understand.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::error::ModelError;
use forest::{
    confidence_threshold, DecisionTree, FlatTree, ForestKernel, GridSearchResult, MaxFeatures,
    RandomForest, RandomForestParams, TreeParams,
};
use obs::artifact::{expect_arr, expect_float, expect_keys, expect_obj, field};
use obs::jsonv::{self, JsonV};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Schema identifier accepted by this reader.
pub const MODEL_SCHEMA: &str = "survdb-model/v1";

/// Conventional file name under an artifact directory.
pub const MODEL_FILE: &str = "model.json";

/// Grid-search provenance captured at training time: how the final
/// hyper-parameters were chosen (paper §5.1's tuning protocol).
#[derive(Debug, Clone, PartialEq)]
pub struct GridProvenance {
    /// Mean cross-validated accuracy of the winning candidate.
    pub best_score: f64,
    /// `(params, score)` for every candidate evaluated.
    pub candidates: Vec<(RandomForestParams, f64)>,
}

impl GridProvenance {
    /// Captures provenance from a finished grid search.
    pub fn from_result(result: &GridSearchResult) -> GridProvenance {
        GridProvenance {
            best_score: result.best_score,
            candidates: result.all_scores.clone(),
        }
    }
}

/// Training metadata stored beside the forest: everything the scoring
/// path needs that is not derivable from the trees themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMeta {
    /// Training positive-class fraction `q` — the confidence threshold
    /// is `max(q, 1 − q)`. Must be in `[0, 1]`.
    pub positive_fraction: f64,
    /// Seed the final fit was trained with.
    pub seed: u64,
    /// Hyper-parameters of the final fit.
    pub params: RandomForestParams,
    /// How the parameters were chosen, when grid search ran.
    pub grid: Option<GridProvenance>,
}

/// A forest plus its training metadata — the unit of persistence.
#[derive(Debug, Clone)]
pub struct SavedModel {
    /// The fitted forest.
    pub forest: RandomForest,
    /// Training metadata.
    pub meta: ModelMeta,
    /// The forest's prepared inference kernel, built at most once per
    /// model (eagerly by [`SavedModel::load`], lazily elsewhere) and
    /// shared by every scoring call. Never serialized — the kernel is
    /// derived state, rebuilt from the forest on demand.
    kernel: OnceLock<Arc<ForestKernel>>,
}

impl SavedModel {
    /// Wraps a fitted forest and its metadata. The inference kernel
    /// is not built yet; call [`SavedModel::kernel`] to force it.
    pub fn new(forest: RandomForest, meta: ModelMeta) -> SavedModel {
        SavedModel {
            forest,
            meta,
            kernel: OnceLock::new(),
        }
    }

    /// The model's branchless inference kernel
    /// ([`forest::flatkernel`] layout), built on first call and
    /// cached for the model's lifetime. The daemon forces this at
    /// load/swap time so no request pays the layout-build cost.
    pub fn kernel(&self) -> Arc<ForestKernel> {
        Arc::clone(
            self.kernel
                .get_or_init(|| Arc::new(ForestKernel::from_forest(&self.forest))),
        )
    }
    /// The §5.3 confidence threshold `max(q, 1 − q)` derived from the
    /// stored training prevalence.
    ///
    /// # Panics
    ///
    /// Panics if `meta.positive_fraction` is outside `[0, 1]` — a
    /// loaded model is always in range (the parser validates), so this
    /// only fires on hand-built metadata.
    pub fn threshold(&self) -> f64 {
        confidence_threshold(self.meta.positive_fraction)
    }

    /// Renders the model as `survdb-model/v1` text. Byte-deterministic:
    /// equal models render equal bytes.
    ///
    /// # Panics
    ///
    /// Panics if `meta.positive_fraction` is outside `[0, 1]`.
    pub fn render(&self) -> String {
        JsonV::obj(vec![
            ("schema", JsonV::Str(MODEL_SCHEMA.to_string())),
            ("forest", forest_json(&self.forest)),
            ("metadata", meta_json(&self.meta)),
        ])
        .render()
    }

    /// Parses `survdb-model/v1` text. Strict and total: malformed input
    /// of any kind returns a typed [`ModelError`], never panics.
    pub fn parse(text: &str) -> Result<SavedModel, ModelError> {
        let root = jsonv::parse(text).map_err(ModelError::Parse)?;
        let fields = expect_obj(&root, "model")?;
        expect_keys(fields, &["schema", "forest", "metadata"], "model")?;
        match root.get("schema") {
            Some(JsonV::Str(s)) if s == MODEL_SCHEMA => {}
            other => {
                return Err(ModelError::Schema(format!(
                    "schema must be {MODEL_SCHEMA:?}, found {other:?}"
                )))
            }
        }
        let forest = parse_forest(field(&root, "forest")?)?;
        let meta = parse_meta(field(&root, "metadata")?)?;
        Ok(SavedModel::new(forest, meta))
    }

    /// Writes the rendered model to `path`, creating parent directories
    /// as needed.
    pub fn save(&self, path: &Path) -> Result<(), ModelError> {
        let _span = obs::span!("model_save");
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let text = self.render();
        obs::count("serve.model_bytes_written", text.len() as u64);
        std::fs::write(path, text)?;
        obs::count("serve.models_saved", 1);
        Ok(())
    }

    /// Reads and parses a model from `path`, building the inference
    /// kernel eagerly — a loaded model is ready to score with no
    /// first-batch layout-build latency.
    pub fn load(path: &Path) -> Result<SavedModel, ModelError> {
        let _span = obs::span!("model_load");
        let text = std::fs::read_to_string(path)?;
        let model = SavedModel::parse(&text)?;
        model.kernel();
        obs::count("serve.models_loaded", 1);
        Ok(model)
    }
}

fn forest_json(model: &RandomForest) -> JsonV {
    JsonV::obj(vec![
        (
            "feature_names",
            JsonV::Arr(
                model
                    .feature_names()
                    .iter()
                    .map(|n| JsonV::Str(n.clone()))
                    .collect(),
            ),
        ),
        ("class_count", JsonV::UInt(model.class_count() as u64)),
        ("tree_count", JsonV::UInt(model.tree_count() as u64)),
        (
            "oob_accuracy",
            match model.oob_accuracy() {
                Some(v) => JsonV::Float(v),
                None => JsonV::Null,
            },
        ),
        (
            "trees",
            JsonV::Arr(
                model
                    .trees()
                    .iter()
                    .map(|t| tree_json(&t.to_flat()))
                    .collect(),
            ),
        ),
    ])
}

fn tree_json(flat: &FlatTree) -> JsonV {
    JsonV::obj(vec![
        (
            "kind",
            JsonV::Arr(flat.kind.iter().map(|&v| JsonV::UInt(v as u64)).collect()),
        ),
        (
            "feature",
            JsonV::Arr(
                flat.feature
                    .iter()
                    .map(|&v| JsonV::UInt(v as u64))
                    .collect(),
            ),
        ),
        ("threshold", float_arr(&flat.threshold)),
        (
            "left",
            JsonV::Arr(flat.left.iter().map(|&v| JsonV::UInt(v as u64)).collect()),
        ),
        (
            "right",
            JsonV::Arr(flat.right.iter().map(|&v| JsonV::UInt(v as u64)).collect()),
        ),
        ("leaf_probabilities", float_arr(&flat.leaf_probabilities)),
        ("importances", float_arr(&flat.importances)),
    ])
}

fn float_arr(values: &[f64]) -> JsonV {
    JsonV::Arr(values.iter().map(|&v| JsonV::Float(v)).collect())
}

fn meta_json(meta: &ModelMeta) -> JsonV {
    JsonV::obj(vec![
        ("positive_fraction", JsonV::Float(meta.positive_fraction)),
        (
            "confidence_threshold",
            JsonV::Float(confidence_threshold(meta.positive_fraction)),
        ),
        ("seed", JsonV::UInt(meta.seed)),
        ("params", params_json(&meta.params)),
        (
            "grid",
            match &meta.grid {
                None => JsonV::Null,
                Some(g) => JsonV::obj(vec![
                    ("best_score", JsonV::Float(g.best_score)),
                    (
                        "candidates",
                        JsonV::Arr(
                            g.candidates
                                .iter()
                                .map(|(p, s)| {
                                    JsonV::obj(vec![
                                        ("params", params_json(p)),
                                        ("score", JsonV::Float(*s)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            },
        ),
    ])
}

fn params_json(p: &RandomForestParams) -> JsonV {
    JsonV::obj(vec![
        ("n_trees", JsonV::UInt(p.n_trees as u64)),
        ("max_depth", JsonV::UInt(p.tree.max_depth as u64)),
        (
            "min_samples_split",
            JsonV::UInt(p.tree.min_samples_split as u64),
        ),
        (
            "min_samples_leaf",
            JsonV::UInt(p.tree.min_samples_leaf as u64),
        ),
        (
            "max_features",
            JsonV::Str(match p.max_features {
                MaxFeatures::All => "all".to_string(),
                MaxFeatures::Sqrt => "sqrt".to_string(),
                MaxFeatures::Log2 => "log2".to_string(),
                MaxFeatures::Count(n) => format!("count:{n}"),
            }),
        ),
        ("bootstrap", JsonV::Bool(p.bootstrap)),
    ])
}

// ---- strict parsing helpers (typed errors, never panic) ----

fn as_usize(v: &JsonV, what: &str) -> Result<usize, ModelError> {
    match v {
        JsonV::UInt(n) => usize::try_from(*n)
            .map_err(|_| ModelError::Schema(format!("{what} value {n} does not fit in a usize"))),
        other => Err(ModelError::Schema(format!(
            "{what} must be an unsigned integer, found {other:?}"
        ))),
    }
}

fn as_str<'a>(v: &'a JsonV, what: &str) -> Result<&'a str, ModelError> {
    match v {
        JsonV::Str(s) => Ok(s),
        other => Err(ModelError::Schema(format!(
            "{what} must be a string, found {other:?}"
        ))),
    }
}

fn as_bool(v: &JsonV, what: &str) -> Result<bool, ModelError> {
    match v {
        JsonV::Bool(b) => Ok(*b),
        other => Err(ModelError::Schema(format!(
            "{what} must be a bool, found {other:?}"
        ))),
    }
}

fn float_vec(v: &JsonV, what: &str) -> Result<Vec<f64>, ModelError> {
    expect_arr(v, what)?
        .iter()
        .map(|item| Ok(expect_float(item, what)?))
        .collect()
}

fn u32_vec(v: &JsonV, what: &str) -> Result<Vec<u32>, ModelError> {
    expect_arr(v, what)?
        .iter()
        .map(|item| match item {
            JsonV::UInt(n) => u32::try_from(*n)
                .map_err(|_| ModelError::Schema(format!("{what} value {n} exceeds u32"))),
            other => Err(ModelError::Schema(format!(
                "{what} must hold unsigned integers, found {other:?}"
            ))),
        })
        .collect()
}

fn u8_vec(v: &JsonV, what: &str) -> Result<Vec<u8>, ModelError> {
    expect_arr(v, what)?
        .iter()
        .map(|item| match item {
            JsonV::UInt(n) => u8::try_from(*n)
                .map_err(|_| ModelError::Schema(format!("{what} value {n} exceeds u8"))),
            other => Err(ModelError::Schema(format!(
                "{what} must hold unsigned integers, found {other:?}"
            ))),
        })
        .collect()
}

fn string_vec(v: &JsonV, what: &str) -> Result<Vec<String>, ModelError> {
    expect_arr(v, what)?
        .iter()
        .map(|item| as_str(item, what).map(str::to_string))
        .collect()
}

fn parse_forest(v: &JsonV) -> Result<RandomForest, ModelError> {
    let fields = expect_obj(v, "forest")?;
    expect_keys(
        fields,
        &[
            "feature_names",
            "class_count",
            "tree_count",
            "oob_accuracy",
            "trees",
        ],
        "forest",
    )?;
    let feature_names = string_vec(field(v, "feature_names")?, "feature_names")?;
    let class_count = as_usize(field(v, "class_count")?, "class_count")?;
    let tree_count = as_usize(field(v, "tree_count")?, "tree_count")?;
    let oob_accuracy = match field(v, "oob_accuracy")? {
        JsonV::Null => None,
        JsonV::Float(f) => Some(*f),
        other => {
            return Err(ModelError::Schema(format!(
                "oob_accuracy must be a float or null, found {other:?}"
            )))
        }
    };
    let trees_json = expect_arr(field(v, "trees")?, "trees")?;
    if trees_json.len() != tree_count {
        return Err(ModelError::Schema(format!(
            "tree_count says {tree_count} trees, found {}",
            trees_json.len()
        )));
    }
    let mut trees = Vec::with_capacity(trees_json.len());
    for (i, tv) in trees_json.iter().enumerate() {
        trees.push(parse_tree(tv, feature_names.len(), class_count, i)?);
    }
    RandomForest::from_parts(trees, feature_names, class_count, oob_accuracy)
        .map_err(ModelError::Invalid)
}

fn parse_tree(
    v: &JsonV,
    feature_count: usize,
    class_count: usize,
    index: usize,
) -> Result<DecisionTree, ModelError> {
    let what = format!("trees[{index}]");
    let fields = expect_obj(v, &what)?;
    expect_keys(
        fields,
        &[
            "kind",
            "feature",
            "threshold",
            "left",
            "right",
            "leaf_probabilities",
            "importances",
        ],
        &what,
    )?;
    let flat = FlatTree {
        feature_count,
        class_count,
        kind: u8_vec(field(v, "kind")?, &what)?,
        feature: u32_vec(field(v, "feature")?, &what)?,
        threshold: float_vec(field(v, "threshold")?, &what)?,
        left: u32_vec(field(v, "left")?, &what)?,
        right: u32_vec(field(v, "right")?, &what)?,
        leaf_probabilities: float_vec(field(v, "leaf_probabilities")?, &what)?,
        importances: float_vec(field(v, "importances")?, &what)?,
    };
    DecisionTree::from_flat(&flat).map_err(|e| ModelError::Invalid(format!("{what}: {e}")))
}

fn parse_meta(v: &JsonV) -> Result<ModelMeta, ModelError> {
    let fields = expect_obj(v, "metadata")?;
    expect_keys(
        fields,
        &[
            "positive_fraction",
            "confidence_threshold",
            "seed",
            "params",
            "grid",
        ],
        "metadata",
    )?;
    let positive_fraction = expect_float(field(v, "positive_fraction")?, "positive_fraction")?;
    if !positive_fraction.is_finite() || !(0.0..=1.0).contains(&positive_fraction) {
        return Err(ModelError::Invalid(format!(
            "positive_fraction {positive_fraction} outside [0, 1]"
        )));
    }
    let stored = expect_float(field(v, "confidence_threshold")?, "confidence_threshold")?;
    let derived = confidence_threshold(positive_fraction);
    if stored.to_bits() != derived.to_bits() {
        return Err(ModelError::Invalid(format!(
            "confidence_threshold {stored} disagrees with max(q, 1 - q) = {derived}"
        )));
    }
    let seed = match field(v, "seed")? {
        JsonV::UInt(n) => *n,
        other => {
            return Err(ModelError::Schema(format!(
                "seed must be an unsigned integer, found {other:?}"
            )))
        }
    };
    let params = parse_params(field(v, "params")?, "params")?;
    let grid = match field(v, "grid")? {
        JsonV::Null => None,
        g => {
            let gf = expect_obj(g, "grid")?;
            expect_keys(gf, &["best_score", "candidates"], "grid")?;
            let best_score = expect_float(field(g, "best_score")?, "best_score")?;
            if !best_score.is_finite() {
                return Err(ModelError::Invalid(format!(
                    "best_score {best_score} is not finite"
                )));
            }
            let cands = expect_arr(field(g, "candidates")?, "candidates")?;
            let mut candidates = Vec::with_capacity(cands.len());
            for (i, c) in cands.iter().enumerate() {
                let what = format!("candidates[{i}]");
                let cf = expect_obj(c, &what)?;
                expect_keys(cf, &["params", "score"], &what)?;
                let p = parse_params(field(c, "params")?, &what)?;
                let score = expect_float(field(c, "score")?, &what)?;
                if !score.is_finite() {
                    return Err(ModelError::Invalid(format!(
                        "{what} score {score} is not finite"
                    )));
                }
                candidates.push((p, score));
            }
            Some(GridProvenance {
                best_score,
                candidates,
            })
        }
    };
    Ok(ModelMeta {
        positive_fraction,
        seed,
        params,
        grid,
    })
}

fn parse_params(v: &JsonV, what: &str) -> Result<RandomForestParams, ModelError> {
    let fields = expect_obj(v, what)?;
    expect_keys(
        fields,
        &[
            "n_trees",
            "max_depth",
            "min_samples_split",
            "min_samples_leaf",
            "max_features",
            "bootstrap",
        ],
        what,
    )?;
    let max_features = match as_str(field(v, "max_features")?, "max_features")? {
        "all" => MaxFeatures::All,
        "sqrt" => MaxFeatures::Sqrt,
        "log2" => MaxFeatures::Log2,
        other => other
            .strip_prefix("count:")
            .and_then(|n| n.parse::<usize>().ok())
            .map(MaxFeatures::Count)
            .ok_or_else(|| ModelError::Schema(format!("unknown max_features {other:?}")))?,
    };
    Ok(RandomForestParams {
        n_trees: as_usize(field(v, "n_trees")?, "n_trees")?,
        tree: TreeParams {
            max_depth: as_usize(field(v, "max_depth")?, "max_depth")?,
            min_samples_split: as_usize(field(v, "min_samples_split")?, "min_samples_split")?,
            min_samples_leaf: as_usize(field(v, "min_samples_leaf")?, "min_samples_leaf")?,
        },
        max_features,
        bootstrap: as_bool(field(v, "bootstrap")?, "bootstrap")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest::Dataset;

    fn tiny_dataset() -> Dataset {
        // Deterministic two-feature data: class 1 iff x0 + 0.2·x1 > 0.55.
        let mut d = Dataset::new(vec!["x0".into(), "x1".into()], 2);
        for i in 0..120 {
            let x0 = i as f64 / 120.0;
            let x1 = ((i * 37) % 120) as f64 / 120.0;
            d.push(vec![x0, x1], (x0 + 0.2 * x1 > 0.55) as usize);
        }
        d
    }

    fn tiny_model(grid: Option<GridProvenance>) -> (Dataset, SavedModel) {
        let data = tiny_dataset();
        let params = RandomForestParams {
            n_trees: 8,
            ..RandomForestParams::default()
        };
        let forest = RandomForest::fit(&data, &params, 42);
        let meta = ModelMeta {
            positive_fraction: data.class_fraction(1),
            seed: 42,
            params,
            grid,
        };
        (data, SavedModel::new(forest, meta))
    }

    fn sample_grid() -> GridProvenance {
        // Exercise every MaxFeatures encoding in provenance.
        let base = RandomForestParams::default();
        GridProvenance {
            best_score: 0.875,
            candidates: vec![
                (base, 0.875),
                (
                    RandomForestParams {
                        max_features: MaxFeatures::All,
                        bootstrap: false,
                        ..base
                    },
                    0.8125,
                ),
                (
                    RandomForestParams {
                        max_features: MaxFeatures::Log2,
                        ..base
                    },
                    0.75,
                ),
                (
                    RandomForestParams {
                        max_features: MaxFeatures::Count(3),
                        ..base
                    },
                    0.625,
                ),
            ],
        }
    }

    #[test]
    fn render_parse_render_is_byte_identical() {
        let (data, model) = tiny_model(Some(sample_grid()));
        let first = model.render();
        let reloaded = SavedModel::parse(&first).expect("own render parses");
        assert_eq!(reloaded.render(), first);
        assert_eq!(reloaded.meta, model.meta);
        // The reloaded forest reproduces predictions bitwise.
        for i in 0..data.len() {
            assert_eq!(
                reloaded.forest.predict_proba_row(&data, i),
                model.forest.predict_proba_row(&data, i)
            );
        }
        assert_eq!(reloaded.forest.oob_accuracy(), model.forest.oob_accuracy());
        assert_eq!(
            reloaded.forest.feature_importances(),
            model.forest.feature_importances()
        );
    }

    #[test]
    fn save_load_roundtrip_on_disk() {
        let (_, model) = tiny_model(None);
        let path = std::env::temp_dir().join(format!(
            "survdb-serve-roundtrip-{}.json",
            std::process::id()
        ));
        model.save(&path).expect("saves");
        let reloaded = SavedModel::load(&path).expect("loads");
        assert_eq!(reloaded.render(), model.render());
        assert_eq!(reloaded.threshold(), model.threshold());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = SavedModel::load(Path::new("/nonexistent/survdb/model.json"))
            .expect_err("missing file");
        assert!(matches!(err, ModelError::Io(_)), "{err}");
    }

    #[test]
    fn parse_rejects_with_typed_errors() {
        let (_, model) = tiny_model(Some(sample_grid()));
        let good = model.render();

        // Not JSON at all (and any truncation of our render).
        assert!(matches!(
            SavedModel::parse("not json {"),
            Err(ModelError::Parse(_))
        ));
        assert!(matches!(
            SavedModel::parse(&good[..good.len() / 2]),
            Err(ModelError::Parse(_))
        ));

        // Valid JSON, wrong shape or schema id.
        assert!(matches!(
            SavedModel::parse("{}"),
            Err(ModelError::Schema(_))
        ));
        assert!(matches!(
            SavedModel::parse(&good.replace(MODEL_SCHEMA, "survdb-model/v9")),
            Err(ModelError::Schema(_))
        ));
        assert!(matches!(
            SavedModel::parse(&good.replace("\"tree_count\"", "\"trees_total\"")),
            Err(ModelError::Schema(_))
        ));
        assert!(matches!(
            SavedModel::parse(
                &good.replace("\"max_features\": \"sqrt\"", "\"max_features\": \"cube\"")
            ),
            Err(ModelError::Schema(_))
        ));

        // Shape intact, semantics broken.
        let q = model.meta.positive_fraction;
        let tampered = good.replace(
            &format!("\"positive_fraction\": {q}"),
            "\"positive_fraction\": 0.125",
        );
        assert_ne!(tampered, good, "tamper target must exist");
        assert!(matches!(
            SavedModel::parse(&tampered),
            Err(ModelError::Invalid(_))
        ));
        assert!(matches!(
            SavedModel::parse(&good.replace("\"class_count\": 2", "\"class_count\": 3")),
            Err(ModelError::Invalid(_))
        ));
    }
}
