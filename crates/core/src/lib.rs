//! # survdb — Survivability of Cloud Databases: Factors and Prediction
//!
//! A full reproduction of the SIGMOD'18 study *Survivability of Cloud
//! Databases — Factors and Prediction* (Picado, Lang, Thayer) on a
//! synthetic, Azure-SQLDB-like fleet (real telemetry is closed; see
//! DESIGN.md for the substitution argument).
//!
//! The crate ties the workspace substrates together:
//!
//! * [`study`] — loads the three-region population and exposes
//!   region censuses (the paper's §3.3 dataset).
//! * [`experiment`] — the §5 evaluation protocol: per (region ×
//!   creation-edition) subgroup, an 80/20 stratified split, grid-search
//!   tuning with 5-fold cross-validation, five repetitions, random
//!   forest vs weighted-random baseline, confidence partitioning, KM
//!   curves of the predicted groups, and log-rank significance.
//! * [`degradation`] — robustness: the §5 protocol re-run on
//!   fault-injected telemetry recovered through lenient ingest, with
//!   score deltas against the clean baseline.
//! * [`observations`] — the §3.3 observations (3.1–3.3) as checkable
//!   statistics.
//! * [`provisioning`] — the §3.1 motivation made concrete: a
//!   longevity-guided tenant-placement simulator comparing a
//!   prediction-guided policy against a longevity-agnostic one.
//! * [`segments`] — §7's actionable conclusion: subscription-level
//!   behaviour segments assigned from history and validated out of
//!   time.
//! * [`report`] — plain-text tables and ASCII survival curves used by
//!   the `repro` harness and the examples.
//! * [`json`] — deterministic JSON rendering (stable key order,
//!   one float rule) so re-running a harness leaves artifacts
//!   byte-identical.
//!
//! # Quickstart
//!
//! ```no_run
//! use survdb::study::{Study, StudyConfig};
//! use survdb::experiment::{Experiment, ExperimentConfig};
//! use telemetry::{Edition, RegionId};
//!
//! let study = Study::load(StudyConfig { scale: 0.2, ..StudyConfig::default() });
//! let census = study.census(RegionId::Region1);
//! let result = Experiment::new(ExperimentConfig::default())
//!     .run(&census, Some(Edition::Standard));
//! println!("accuracy {:.2} (baseline {:.2})",
//!          result.forest.accuracy, result.baseline.accuracy);
//! ```

pub mod degradation;
pub mod experiment;
pub mod json;
pub mod observations;
pub mod provisioning;
pub mod report;
pub mod segments;
pub mod study;

pub use degradation::{run_degradation_sweep, DegradationConfig, RobustnessReport};
pub use experiment::{Experiment, ExperimentConfig, ExperimentError, GridPreset, SubgroupResult};
pub use json::ToJson;
pub use observations::ObservationReport;
pub use provisioning::{PlacementPolicy, ProvisioningConfig, ProvisioningOutcome};
pub use segments::{segment_report, Segment, SegmentConfig, SegmentReport};
pub use study::{Study, StudyConfig};
