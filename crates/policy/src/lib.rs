//! Survivability-driven provisioning decisions over scored fleets.
//!
//! The paper's closing argument (§1, §5.3, §7) is that lifespan
//! predictions are only useful insofar as a provisioner can *act* on
//! them: defer premium placement for databases predicted short-lived,
//! pre-provision durable resources for those predicted long-lived, and
//! park the uncertain remainder in a designated pool. This crate is
//! that decision layer, kept deliberately small and pure:
//!
//! - [`spec`] — the declarative [`PolicySpec`]: the action space, an
//!   integer [`CostModel`] (provision / migration / premium-carrying
//!   costs and misprediction penalties), probability [`ActionBands`],
//!   and per-(region, edition) [`SubgroupKey`] overrides.
//! - [`decide`](mod@decide) — the decision function: `(score, confidence split,
//!   bands) → Action`, plus shard-mergeable [`DecisionSummary`]
//!   accounting against the clairvoyant oracle and the
//!   always-/never-provision baselines.
//! - [`sweep`] — the cost-vs-threshold frontier: expected policy cost
//!   at every confidence cutoff in [`forest::threshold_grid`],
//!   accumulated in streaming integer form ([`SweepAccum`]).
//! - [`json`] — deterministic [`obs::jsonv::JsonV`] renderings shared
//!   by the `policybench` artifact and the golden snapshot test.
//!
//! Everything cost-valued is a `u64` in abstract cost units: integer
//! sums are associative, so per-shard summaries merged in any grouping
//! reproduce the single-pass totals bit for bit — the property that
//! keeps `artifacts/policy.json`'s deterministic section byte-identical
//! across shard counts.
//!
//! # Example
//!
//! ```
//! use forest::ConfidenceSplit;
//! use policy::{decide, Action, PolicySpec, SubgroupKey};
//! use serve::ScoreFacts;
//!
//! let spec = PolicySpec::default();
//! let subgroup = SubgroupKey::new("Region-1", "Standard");
//! let confident_long = ScoreFacts {
//!     positive: 0.9,
//!     predicted: 1,
//!     split: ConfidenceSplit::Confident,
//! };
//! assert_eq!(
//!     decide(&confident_long, &spec, &subgroup),
//!     Action::PreProvisionLongLived
//! );
//! ```

pub mod decide;
pub mod json;
pub mod spec;
pub mod sweep;

pub use decide::{action_cost, decide, decide_batch, oracle_action, DecisionSummary};
pub use json::{spec_json, summary_json, sweep_json};
pub use spec::{Action, ActionBands, CostModel, PolicySpec, SubgroupKey};
pub use sweep::{SweepAccum, SweepPoint};
