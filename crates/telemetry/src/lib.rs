//! A cloud-database fleet simulator emitting Azure-SQLDB-like telemetry.
//!
//! The paper analyzes five months of production telemetry from three
//! Azure SQL Database regions — data that is closed. This crate is the
//! substitution (see DESIGN.md §2): a generative model of a
//! relational-database service population that encodes the
//! *relationships* the paper reports, so every downstream analysis
//! (survival curves, lifespan prediction, confidence partitioning,
//! feature importance) exercises the same code paths it would on real
//! telemetry.
//!
//! The generative story:
//!
//! 1. A region hosts **subscriptions**, each drawn from a behaviour
//!    [`archetype`] (CI/CD cyclers, dev/test users, trial explorers,
//!    startup apps, production services, incentive riders) with a latent
//!    per-subscription longevity trait.
//! 2. Each subscription creates **databases** over a five-month window:
//!    creation times follow the archetype's automation profile (business
//!    hours vs uniform, weekend/holiday suppression), names follow its
//!    naming style, editions and service-level objectives follow its
//!    purchasing profile.
//! 3. Each database draws a **lifespan** from an archetype- and
//!    edition-conditioned mixture modulated by the subscription trait;
//!    databases alive at the window's end are right-censored.
//! 4. Databases emit **telemetry**: size samples, SLO/edition changes,
//!    and create/drop events.
//!
//! [`Census`] then applies the paper's population filters (singleton,
//! external, 2-day survival minimum) and labels lifespans as ephemeral,
//! short-lived, or long-lived.
//!
//! # Example
//!
//! ```
//! use telemetry::{Fleet, FleetConfig, RegionConfig, Census};
//!
//! let fleet = Fleet::generate(FleetConfig::new(
//!     RegionConfig::region_1().scaled(0.02),
//!     42,
//! ));
//! let census = Census::new(&fleet);
//! // Survival pairs with the paper's 2-day minimum, ready for KM.
//! let pairs = census.survival_pairs(2.0);
//! assert!(pairs.iter().all(|&(days, _)| days >= 2.0));
//! ```

pub mod archetype;
pub mod catalog;
pub mod census;
pub mod database;
pub mod events;
pub mod export;
pub mod faults;
pub mod fleet;
pub mod ingest;
pub mod names;
pub mod region;
pub mod scenario;
pub mod sizetrace;
pub mod stream;
pub mod subscription;
pub mod utilization;

pub use archetype::Archetype;
pub use catalog::{Edition, ServiceLevelObjective, SloCatalog};
pub use census::{Census, LifespanClass};
pub use database::{DatabaseRecord, SloChange};
pub use events::{EventStream, TelemetryEvent};
pub use export::{
    read_records_jsonl, write_records_jsonl, write_summary_csv, write_summary_csv_header,
    write_summary_csv_rows, ImportError,
};
pub use faults::{FaultClass, FaultInjector, FaultPlan, FaultSummary};
pub use fleet::{database_id, generate_subscription, Fleet, FleetBuilder, FleetConfig};
pub use ingest::{
    reconstruct_records_lenient, stream_horizon, IngestReport, LenientIngestor, QuarantineCounts,
    RecoveryPolicy, RepairCounts,
};
pub use names::NameStyle;
pub use region::{RegionConfig, RegionId};
pub use scenario::{
    apply_scenario, generate_scenario_fleet, generate_scenario_subscription, ScenarioKind,
};
pub use sizetrace::SizeTrace;
pub use stream::{
    derive_seed, materialized_pipeline, merge_shards, run_region_streamed, run_shard,
    PipelineResult, ShardPlan, ShardResult,
};
pub use subscription::{Subscription, SubscriptionId, SubscriptionType};
pub use utilization::{UtilizationProfile, UtilizationTrace};
