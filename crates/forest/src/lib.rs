//! Decision trees and random forests for database-lifespan
//! classification.
//!
//! A from-scratch implementation of the paper's model of choice (§2,
//! §4.1): CART decision trees with gini impurity, bagged into random
//! forests with per-node random feature subsets, class-probability
//! predictions (used as confidence levels in §5.3), and gini feature
//! importance (§5.4). Around the model sit the standard evaluation
//! tools the paper uses: stratified splits, k-fold cross-validated grid
//! search, accuracy/precision/recall, and the weighted-random baseline
//! classifier.
//!
//! # Example
//!
//! ```
//! use forest::{Dataset, RandomForest, RandomForestParams};
//!
//! // A tiny two-feature dataset: class is 1 iff x0 > 0.
//! let mut data = Dataset::new(vec!["x0".into(), "x1".into()], 2);
//! for i in 0..100 {
//!     let x0 = (i as f64 - 50.0) / 10.0;
//!     let x1 = (i % 7) as f64;
//!     data.push(vec![x0, x1], (x0 > 0.0) as usize);
//! }
//! let model = RandomForest::fit(&data, &RandomForestParams::default(), 42);
//! assert_eq!(model.predict(&[3.0, 1.0]), 1);
//! assert_eq!(model.predict(&[-3.0, 1.0]), 0);
//! ```

pub mod baseline;
pub mod calibration;
pub mod confidence;
pub mod data;
pub mod flatkernel;
pub mod importance;
pub mod metrics;
pub mod model_selection;
pub mod parallel;
pub mod tree;

mod random_forest;

pub use baseline::WeightedRandomClassifier;
pub use calibration::{ReliabilityBin, ReliabilityDiagram};
pub use confidence::{
    confidence_threshold, threshold_grid, ConfidenceSplit, PartitionedPredictions,
};
pub use data::{Dataset, DatasetView};
pub use flatkernel::{ForestKernel, KernelScratch, KernelStats};
pub use importance::{permutation_importance, ranked_permutation_importance};
pub use metrics::{roc_auc, ClassificationScores, ConfusionMatrix};
pub use model_selection::{
    cross_val_accuracy, train_test_split, train_test_split_indices, GridSearch, GridSearchResult,
    KFold,
};
pub use parallel::{derive_seed, set_thread_limit, splitmix64};
pub use random_forest::{MaxFeatures, RandomForest, RandomForestParams};
pub use tree::{DecisionTree, FlatTree, TreeParams};
