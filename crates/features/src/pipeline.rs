//! The combined feature pipeline and prediction-dataset builder.

use crate::name::{name_feature_names, name_features, NgramVocabulary};
use crate::size::{size_features, SIZE_FEATURE_NAMES};
use crate::slo::{slo_features, SLO_FEATURE_NAMES};
use crate::subscription::{
    subscription_feature_names, subscription_type_features, SubscriptionHistoryIndex,
};
use crate::time::{time_features, TIME_FEATURE_NAMES};
use crate::utilization::{utilization_features, UTILIZATION_FEATURE_NAMES};
use forest::parallel::run_units;
use forest::Dataset;
use simtime::Duration;
use telemetry::{Census, DatabaseRecord, Edition, LifespanClass};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct FeatureConfig {
    /// Observation prefix in days (the paper's `x`; default 2).
    pub x_days: f64,
    /// Short/long class boundary in days (the paper's `y`; default 30).
    pub y_days: f64,
    /// Optional character n-gram features for database names (§5.4's
    /// negative result; off by default).
    pub ngrams: Option<NgramVocabulary>,
    /// Include DTU-utilization features. Off by default: the paper's
    /// §4.2 feature list does not include utilization (that telemetry
    /// family stayed private), so the faithful reproduction excludes
    /// it; the `factors` experiment measures what it would add.
    pub include_utilization: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            x_days: 2.0,
            y_days: 30.0,
            ngrams: None,
            include_utilization: false,
        }
    }
}

/// Extracts feature vectors for databases of one fleet.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    config: FeatureConfig,
    history: SubscriptionHistoryIndex,
    feature_names: Vec<String>,
}

/// The feature schema a [`FeatureConfig`] produces, independent of any
/// fleet. The streaming pipeline uses this to construct a merged
/// dataset's schema before (or without) seeing a single shard; it is
/// exactly the schema [`FeatureExtractor::feature_names`] reports.
pub fn feature_schema(config: &FeatureConfig) -> Vec<String> {
    let mut feature_names: Vec<String> = TIME_FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    feature_names.extend(name_feature_names("server"));
    feature_names.extend(name_feature_names("db"));
    feature_names.extend(SIZE_FEATURE_NAMES.iter().map(|s| s.to_string()));
    if config.include_utilization {
        feature_names.extend(UTILIZATION_FEATURE_NAMES.iter().map(|s| s.to_string()));
    }
    feature_names.extend(SLO_FEATURE_NAMES.iter().map(|s| s.to_string()));
    feature_names.extend(subscription_feature_names());
    if let Some(vocab) = &config.ngrams {
        feature_names.extend(vocab.feature_names("db"));
    }
    feature_names
}

impl FeatureExtractor {
    /// Builds the extractor (indexes the fleet's subscription history).
    pub fn new(census: &Census<'_>, config: FeatureConfig) -> FeatureExtractor {
        assert!(config.x_days > 0.0, "observation prefix must be positive");
        assert!(
            config.y_days > config.x_days,
            "class boundary must exceed the observation prefix"
        );
        let history = SubscriptionHistoryIndex::build(census.fleet());
        let feature_names = feature_schema(&config);

        FeatureExtractor {
            config,
            history,
            feature_names,
        }
    }

    /// The feature schema, aligned with [`FeatureExtractor::extract`].
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The observation prefix.
    pub fn x_days(&self) -> f64 {
        self.config.x_days
    }

    /// Extracts one database's feature vector using only telemetry from
    /// `[created_at, created_at + x_days]`.
    pub fn extract(&self, census: &Census<'_>, db: &DatabaseRecord) -> Vec<f64> {
        let horizon = Duration::days_f64(self.config.x_days);
        let prediction_at = db.created_at + horizon;
        let holidays = &census.fleet().config.region.holidays;

        let mut out = time_features(db.created_at, holidays);
        out.extend(name_features(&db.server_name));
        out.extend(name_features(&db.database_name));
        out.extend(size_features(&db.size_trace, horizon));
        if self.config.include_utilization {
            out.extend(utilization_features(
                &db.utilization_trace,
                db.created_at,
                horizon,
            ));
        }
        out.extend(slo_features(db, prediction_at));
        out.extend(subscription_type_features(db.subscription_type));
        out.extend(self.history.history_features(db, prediction_at));
        if let Some(vocab) = &self.config.ngrams {
            out.extend(vocab.features(&db.database_name));
        }
        debug_assert_eq!(out.len(), self.feature_names.len());
        out
    }

    /// Builds the labeled prediction dataset for one creation edition
    /// (or the whole population with `edition = None`): the paper's
    /// task, positive class = long-lived (> 30 days).
    ///
    /// Returns the dataset plus, aligned row-for-row, the observed
    /// `(duration, event)` survival pairs used to draw KM curves of
    /// predicted groups (Figures 6, 8, 9).
    pub fn build_dataset(
        &self,
        census: &Census<'_>,
        edition: Option<Edition>,
    ) -> (Dataset, Vec<(f64, bool)>) {
        let (dataset, survival, _indices) = self.build_dataset_indexed(census, edition);
        (dataset, survival)
    }

    /// [`FeatureExtractor::build_dataset`] plus, aligned row-for-row,
    /// the fleet database index each row was extracted from — the join
    /// key the policy layer uses to attach region/edition subgroups
    /// and provisioning verdicts back to concrete databases.
    ///
    /// The prediction population is cut into contiguous chunks of at
    /// least `EXTRACT_CHUNK` (256) databases, extracted as parallel work
    /// units and concatenated in population order, so the result does
    /// not depend on the thread count.
    pub fn build_dataset_indexed(
        &self,
        census: &Census<'_>,
        edition: Option<Edition>,
    ) -> (Dataset, Vec<(f64, bool)>, Vec<usize>) {
        let _span = obs::span!("build_dataset");
        let population =
            census.prediction_population_with_boundary(self.config.x_days, self.config.y_days);
        let units = (population.len() / EXTRACT_CHUNK).max(1);
        let parts = run_units(units, |u| {
            let chunk =
                &population[u * population.len() / units..(u + 1) * population.len() / units];
            self.extract_chunk(census, edition, chunk)
        });
        let mut parts = parts.into_iter();
        let mut whole = parts.next().expect("at least one unit");
        for part in parts {
            whole.dataset.append(&part.dataset);
            whole.survival.extend(part.survival);
            whole.indices.extend(part.indices);
            whole.skipped_undecidable += part.skipped_undecidable;
        }
        if obs::enabled() {
            obs::count_many(&[
                ("features.datasets_built", 1),
                ("features.rows_extracted", whole.dataset.len() as u64),
                (
                    "features.rows_skipped_undecidable",
                    whole.skipped_undecidable,
                ),
            ]);
        }
        (whole.dataset, whole.survival, whole.indices)
    }

    /// Extracts the rows of one chunk of the prediction population
    /// (fleet database indices, ascending).
    fn extract_chunk(
        &self,
        census: &Census<'_>,
        edition: Option<Edition>,
        chunk: &[usize],
    ) -> ExtractedChunk {
        let mut part = ExtractedChunk {
            dataset: Dataset::new(self.feature_names.clone(), 2),
            survival: Vec::new(),
            indices: Vec::new(),
            skipped_undecidable: 0,
        };
        let fleet = census.fleet();
        let y = self.config.y_days;
        for &idx in chunk {
            let db = &fleet.databases[idx];
            if let Some(required) = edition {
                if db.creation_edition() != required {
                    continue;
                }
            }
            // The population filter guarantees decidability on
            // generated fleets; recovered fleets from degraded
            // telemetry can violate it (e.g. a lost Dropped event
            // leaves the lifespan open inside the window), so skip
            // such rows instead of panicking.
            let Some(class) = census.classify_with_boundary(db, y) else {
                part.skipped_undecidable += 1;
                continue;
            };
            // Ephemeral databases never reach the prediction instant
            // alive; the population filter guarantees this.
            debug_assert_ne!(class, LifespanClass::Ephemeral);
            let label = (class == LifespanClass::LongLived) as usize;
            part.dataset.push(self.extract(census, db), label);
            let (duration, event) = db.observed_lifespan(census.window_end());
            part.survival.push((duration.as_days_f64(), event));
            part.indices.push(idx);
        }
        part
    }
}

/// Fewest prediction-population databases per extraction work unit.
/// A smaller population, such as one streamed fleet shard, stays on
/// the calling thread.
const EXTRACT_CHUNK: usize = 256;

/// The rows one extraction unit produced.
struct ExtractedChunk {
    dataset: Dataset,
    survival: Vec<(f64, bool)>,
    indices: Vec<usize>,
    skipped_undecidable: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{Fleet, FleetConfig, RegionConfig};

    fn fleet() -> Fleet {
        Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.05), 3))
    }

    #[test]
    fn schema_and_vectors_align() {
        let f = fleet();
        let census = Census::new(&f);
        let ex = FeatureExtractor::new(&census, FeatureConfig::default());
        let db = &f.databases[10];
        let v = ex.extract(&census, db);
        assert_eq!(v.len(), ex.feature_names().len());
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn dataset_has_both_classes_and_matching_survival() {
        let f = fleet();
        let census = Census::new(&f);
        let ex = FeatureExtractor::new(&census, FeatureConfig::default());
        let (data, survival) = ex.build_dataset(&census, None);
        assert_eq!(data.len(), survival.len());
        assert!(data.len() > 100);
        let dist = data.class_distribution();
        assert!(dist[0] > 0 && dist[1] > 0, "{dist:?}");
        // Every survival duration is at least the observation prefix.
        assert!(survival.iter().all(|&(d, _)| d >= 2.0 - 1e-9));
    }

    #[test]
    fn edition_datasets_partition_population() {
        let f = fleet();
        let census = Census::new(&f);
        let ex = FeatureExtractor::new(&census, FeatureConfig::default());
        let (all, _) = ex.build_dataset(&census, None);
        let per_edition: usize = Edition::ALL
            .iter()
            .map(|&e| ex.build_dataset(&census, Some(e)).0.len())
            .sum();
        assert_eq!(all.len(), per_edition);
    }

    #[test]
    fn indexed_dataset_joins_back_to_fleet_records() {
        let f = fleet();
        let census = Census::new(&f);
        let ex = FeatureExtractor::new(&census, FeatureConfig::default());
        let (data, survival, indices) = ex.build_dataset_indexed(&census, None);
        assert_eq!(data.len(), indices.len());
        assert_eq!(survival.len(), indices.len());
        for w in indices.windows(2) {
            assert!(w[0] < w[1], "indices must ascend in row order");
        }
        for (row, &idx) in indices.iter().enumerate().step_by(17) {
            let db = &f.databases[idx];
            // The row's label is the census label of the joined record.
            assert_eq!(data.label(row), census.is_long_lived(db) as usize);
            // And the features re-extract bitwise.
            assert_eq!(data.row(row), ex.extract(&census, db));
        }
        // The unindexed path is the indexed path minus the join key.
        let (plain, plain_survival) = ex.build_dataset(&census, None);
        assert_eq!(plain.len(), data.len());
        assert_eq!(plain_survival, survival);
    }

    #[test]
    fn labels_match_census() {
        let f = fleet();
        let census = Census::new(&f);
        let ex = FeatureExtractor::new(&census, FeatureConfig::default());
        let (data, survival) = ex.build_dataset(&census, None);
        for (i, &(days, event)) in survival.iter().take(200).enumerate() {
            if event {
                assert_eq!(
                    data.label(i),
                    (days > 30.0) as usize,
                    "label/lifespan mismatch at {i}: {days} days"
                );
            } else {
                // Censored rows in the dataset are long-lived by
                // construction (outlived day 30 inside the window).
                assert_eq!(data.label(i), 1);
                assert!(days > 30.0);
            }
        }
    }

    #[test]
    fn ngram_config_extends_schema() {
        let f = fleet();
        let census = Census::new(&f);
        let base = FeatureExtractor::new(&census, FeatureConfig::default());
        let vocab =
            NgramVocabulary::fit(f.databases.iter().map(|d| d.database_name.as_str()), 3, 20);
        let with = FeatureExtractor::new(
            &census,
            FeatureConfig {
                ngrams: Some(vocab),
                ..FeatureConfig::default()
            },
        );
        assert_eq!(with.feature_names().len(), base.feature_names().len() + 20);
        let db = &f.databases[0];
        assert_eq!(with.extract(&census, db).len(), with.feature_names().len());
    }

    #[test]
    fn larger_x_changes_features_not_schema() {
        let f = fleet();
        let census = Census::new(&f);
        let ex2 = FeatureExtractor::new(&census, FeatureConfig::default());
        let ex4 = FeatureExtractor::new(
            &census,
            FeatureConfig {
                x_days: 4.0,
                ..FeatureConfig::default()
            },
        );
        assert_eq!(ex2.feature_names(), ex4.feature_names());
        // A longer window sees at least as much history.
        let (d2, _) = ex2.build_dataset(&census, None);
        let (d4, _) = ex4.build_dataset(&census, None);
        // With x = 4 the population shrinks (must survive 4 days and be
        // labelable by the window end).
        assert!(d4.len() <= d2.len());
    }
}
