//! Feature engineering for database-lifespan prediction (paper §4.2).
//!
//! Turns the raw telemetry of a [`telemetry::DatabaseRecord`] — using
//! only what is observable in the first `x` days after creation — into
//! the named feature vector the random forest consumes:
//!
//! * [`time`] — creation-time features (day of week/month, week, month,
//!   hour; plus weekend/holiday extensions).
//! * [`name`] — server- and database-name shape features, plus optional
//!   character n-gram features (§5.4 found the latter do not help —
//!   the `factors` experiment reproduces that finding).
//! * [`size`] — absolute size statistics over the observation prefix
//!   and the creation→prediction growth rate.
//! * [`slo`] — edition / performance-level history features (counts,
//!   current values, differences, DTU statistics).
//! * [`subscription`] — offer-type one-hot and the three
//!   subscription-history groups (the paper's most predictive family).
//! * [`utilization`] — DTU-utilization statistics over the prefix
//!   (the telemetry family the paper's §2 describes but keeps private).
//! * [`pipeline`] — the combined extractor and dataset builder.
//!
//! Everything is computed strictly from telemetry available at
//! prediction time `Tp = created_at + x days`; tests assert there is no
//! leakage from beyond `Tp`.
//!
//! # Example
//!
//! ```
//! use features::{FeatureExtractor, FeatureConfig};
//! use telemetry::{Fleet, FleetConfig, RegionConfig, Census};
//!
//! let fleet = Fleet::generate(FleetConfig::new(
//!     RegionConfig::region_1().scaled(0.02),
//!     7,
//! ));
//! let census = Census::new(&fleet);
//! let extractor = FeatureExtractor::new(&census, FeatureConfig::default());
//! let (dataset, survival) = extractor.build_dataset(&census, None);
//! assert_eq!(dataset.len(), survival.len());
//! assert_eq!(dataset.feature_count(), extractor.feature_names().len());
//! ```

pub mod name;
pub mod pipeline;
pub mod size;
pub mod slo;
pub mod subscription;
pub mod time;
pub mod utilization;

pub use name::{name_features, NgramVocabulary, NAME_FEATURE_COUNT};
pub use pipeline::{feature_schema, FeatureConfig, FeatureExtractor};
pub use subscription::SubscriptionHistoryIndex;
