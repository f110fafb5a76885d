//! Sharded, chunked streaming over a region's fleet.
//!
//! The paper's cohorts cover hundreds of thousands of databases per
//! region — far more than the materialized `Fleet::generate` →
//! `EventStream::of_fleet` → `reconstruct_records_lenient` pipeline
//! can hold in memory at once. This module is the out-of-core version
//! of that pipeline, built on two invariants:
//!
//! * **Per-subscription purity.** [`crate::fleet::generate_subscription`]
//!   seeds subscription `i`'s RNG with [`derive_seed`]`(seed, i)`, so
//!   any subset of subscriptions can be generated independently and in
//!   any order.
//! * **Per-subscription fault scope.** Fault injection is applied to
//!   each subscription's event stream separately, so every injection
//!   decision (including reorder displacement, which depends on stream
//!   position) is a function of the subscription alone — identical for
//!   every shard count and visit order.
//!
//! A [`ShardPlan`] partitions the region's subscriptions into
//! contiguous shards; [`run_shard`] drives one shard end to end
//! (generation → faults → chunked lenient ingest), holding raw
//! telemetry for at most one chunk of subscriptions at a time. The
//! core contract, pinned by `tests/stream_equivalence.rs`: shard
//! results concatenated in shard-index order are **byte-identical** to
//! the materialized reference pipeline ([`materialized_pipeline`]) at
//! every shard count, chunk size, and shard visit order.

use crate::events::EventStream;
use crate::faults::{FaultInjector, FaultPlan, FaultSummary};
use crate::fleet::{generate_subscription, Fleet, FleetConfig};
use crate::ingest::{IngestReport, LenientIngestor, RecoveryPolicy};
use crate::subscription::Subscription;
use std::ops::Range;

/// The splitmix64 finalizer (same constants as `forest::parallel` and
/// [`crate::faults`]): a bijective avalanche mix over `u64`.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Derives the seed for work unit `index` under `base` — the same
/// two-round scheme as `forest::parallel::derive_seed`, duplicated
/// here because `telemetry` sits below `forest` in the crate graph.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    splitmix64(splitmix64(base).wrapping_add(index))
}

/// A balanced partition of a region's subscriptions into contiguous
/// shards. Shard `s` owns subscription indices `range(s)`; every
/// subscription belongs to exactly one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    subscription_count: usize,
    shard_count: usize,
}

impl ShardPlan {
    /// Partitions `subscription_count` subscriptions into `shard_count`
    /// contiguous shards (clamped to at least one, at most one shard
    /// per subscription when the population is that small).
    pub fn new(subscription_count: usize, shard_count: usize) -> ShardPlan {
        ShardPlan {
            subscription_count,
            shard_count: shard_count.clamp(1, subscription_count.max(1)),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Total subscriptions across all shards.
    pub fn subscription_count(&self) -> usize {
        self.subscription_count
    }

    /// The contiguous subscription range of shard `shard`. The first
    /// `subscription_count % shard_count` shards get one extra
    /// subscription, so sizes differ by at most one.
    pub fn range(&self, shard: usize) -> Range<usize> {
        assert!(shard < self.shard_count, "shard {shard} out of range");
        let base = self.subscription_count / self.shard_count;
        let extra = self.subscription_count % self.shard_count;
        let start = shard * base + shard.min(extra);
        let len = base + usize::from(shard < extra);
        start..start + len
    }
}

/// One shard's end-to-end result: the reconstructed shard fleet plus
/// the accounting needed for the fleet artifact's counting identities.
#[derive(Debug, Clone)]
pub struct ShardResult {
    /// Shard index within the plan.
    pub shard: usize,
    /// Shard-local fleet: the shard's subscriptions plus the records
    /// the lenient ingest *reconstructed* (not the generated ones —
    /// under faults these differ).
    pub fleet: Fleet,
    /// Databases generated for this shard before fault injection.
    pub generated_databases: usize,
    /// Generated databases that neither survived ingest nor appear in
    /// the quarantine list — their every event was lost in transport.
    /// Computed by id-set difference, so
    /// `generated = recovered + quarantined + vanished` is a real
    /// consistency check, not an identity by definition.
    pub vanished_databases: usize,
    /// Ingest accounting for this shard.
    pub report: IngestReport,
    /// Fault-injection accounting for this shard.
    pub faults: FaultSummary,
}

/// Counts generated ids that appear in neither the recovered records
/// nor the quarantine list (all three inputs ascend).
fn count_vanished(generated_ids: &[u64], recovered: &Fleet, quarantined: &[u64]) -> usize {
    generated_ids
        .iter()
        .filter(|&&id| {
            recovered
                .databases
                .binary_search_by_key(&id, |d| d.id)
                .is_err()
                && quarantined.binary_search(&id).is_err()
        })
        .count()
}

/// Runs one shard of the streaming pipeline: generates the shard's
/// subscriptions chunk by chunk (`chunk_subscriptions` whole
/// subscriptions per chunk), applies `faults` to each subscription's
/// event stream, and folds the chunks through a [`LenientIngestor`].
/// Raw telemetry never outlives its chunk; only the reconstructed
/// records and the shard's subscriptions accumulate.
pub fn run_shard(
    config: &FleetConfig,
    plan: &ShardPlan,
    shard: usize,
    chunk_subscriptions: usize,
    faults: Option<&FaultPlan>,
    _policy: &RecoveryPolicy,
) -> ShardResult {
    let _span = obs::span!("stream_shard");
    let range = plan.range(shard);
    let chunk_subscriptions = chunk_subscriptions.max(1);
    let injector = faults.map(|plan| FaultInjector::new(*plan));

    let mut subscriptions: Vec<Subscription> = Vec::with_capacity(range.len());
    let mut generated_ids: Vec<u64> = Vec::new();
    let mut fault_summary = FaultSummary::default();
    let mut ingestor = LenientIngestor::new();
    let mut chunks = 0u64;

    let mut next = range.start;
    while next < range.end {
        let chunk_end = (next + chunk_subscriptions).min(range.end);
        let mut chunk_events = Vec::new();
        for sub_idx in next..chunk_end {
            let (subscription, databases) = generate_subscription(config, sub_idx);
            generated_ids.extend(databases.iter().map(|d| d.id));
            let stream = EventStream::of_databases(&databases);
            let stream = match &injector {
                Some(injector) => {
                    let (faulted, summary) = injector.inject(&stream);
                    fault_summary.absorb(&summary);
                    faulted
                }
                None => stream,
            };
            chunk_events.extend(stream.into_events());
            subscriptions.push(subscription);
        }
        ingestor.push_chunk(&EventStream::from_events_unsorted(chunk_events));
        chunks += 1;
        next = chunk_end;
    }

    let (records, report) = ingestor.finish();
    let fleet = Fleet {
        config: config.clone(),
        subscriptions,
        databases: records,
    };
    let vanished = count_vanished(&generated_ids, &fleet, &report.quarantined_ids);
    if obs::enabled() {
        obs::count_many(&[
            ("stream.shards_run", 1),
            ("stream.chunks_ingested", chunks),
            (
                "stream.subscriptions_generated",
                fleet.subscriptions.len() as u64,
            ),
            ("stream.databases_generated", generated_ids.len() as u64),
            ("stream.databases_vanished", vanished as u64),
        ]);
    }
    ShardResult {
        shard,
        fleet,
        generated_databases: generated_ids.len(),
        vanished_databases: vanished,
        report,
        faults: fault_summary,
    }
}

/// A whole region's pipeline result, shard results merged in
/// shard-index order (or the materialized reference, which has the
/// same shape with one implicit shard).
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Region fleet of reconstructed records.
    pub fleet: Fleet,
    /// Databases generated before fault injection.
    pub generated_databases: usize,
    /// Generated databases lost without a trace (see [`ShardResult`]).
    pub vanished_databases: usize,
    /// Merged ingest accounting.
    pub report: IngestReport,
    /// Merged fault accounting.
    pub faults: FaultSummary,
}

/// Merges shard results **in shard-index order** into one region
/// result, regardless of the order `results` arrives in. Because shard
/// ranges are contiguous and ids ascend with the subscription index,
/// the merged record list is globally id-ordered — identical to the
/// materialized pipeline's output.
pub fn merge_shards(config: &FleetConfig, mut results: Vec<ShardResult>) -> PipelineResult {
    results.sort_by_key(|r| r.shard);
    let mut fleet = Fleet {
        config: config.clone(),
        subscriptions: Vec::new(),
        databases: Vec::new(),
    };
    let mut report = IngestReport::default();
    let mut faults = FaultSummary::default();
    let mut generated = 0;
    let mut vanished = 0;
    for result in results {
        fleet.subscriptions.extend(result.fleet.subscriptions);
        fleet.databases.extend(result.fleet.databases);
        report.merge(&result.report);
        faults.absorb(&result.faults);
        generated += result.generated_databases;
        vanished += result.vanished_databases;
    }
    PipelineResult {
        fleet,
        generated_databases: generated,
        vanished_databases: vanished,
        report,
        faults,
    }
}

/// Runs every shard of `plan` in `visit_order` (any permutation of
/// `0..shard_count`) and merges the results. Small-scale harness for
/// the equivalence tests; large fleets should drive [`run_shard`]
/// directly and drop each shard's records after consuming them.
pub fn run_region_streamed(
    config: &FleetConfig,
    plan: &ShardPlan,
    visit_order: &[usize],
    chunk_subscriptions: usize,
    faults: Option<&FaultPlan>,
    policy: &RecoveryPolicy,
) -> PipelineResult {
    let results: Vec<ShardResult> = visit_order
        .iter()
        .map(|&shard| run_shard(config, plan, shard, chunk_subscriptions, faults, policy))
        .collect();
    merge_shards(config, results)
}

/// The materialized reference pipeline: generate the whole fleet at
/// once, build each subscription's (faulted) event stream, concatenate
/// everything into a single chunk, and ingest it in one call. The
/// streamed path is defined to match this bitwise.
pub fn materialized_pipeline(
    config: &FleetConfig,
    faults: Option<&FaultPlan>,
    _policy: &RecoveryPolicy,
) -> PipelineResult {
    let generated = Fleet::generate(config.clone());
    let injector = faults.map(|plan| FaultInjector::new(*plan));
    let mut fault_summary = FaultSummary::default();

    let mut events = Vec::new();
    let mut start = 0;
    while start < generated.databases.len() {
        let sub_id = generated.databases[start].subscription_id;
        let end = generated.databases[start..]
            .iter()
            .position(|d| d.subscription_id != sub_id)
            .map_or(generated.databases.len(), |offset| start + offset);
        let stream = EventStream::of_databases(&generated.databases[start..end]);
        let stream = match &injector {
            Some(injector) => {
                let (faulted, summary) = injector.inject(&stream);
                fault_summary.absorb(&summary);
                faulted
            }
            None => stream,
        };
        events.extend(stream.into_events());
        start = end;
    }

    let mut ingestor = LenientIngestor::new();
    ingestor.push_chunk(&EventStream::from_events_unsorted(events));
    let (records, report) = ingestor.finish();

    let generated_ids: Vec<u64> = generated.databases.iter().map(|d| d.id).collect();
    let fleet = Fleet {
        config: config.clone(),
        subscriptions: generated.subscriptions,
        databases: records,
    };
    let vanished = count_vanished(&generated_ids, &fleet, &report.quarantined_ids);
    PipelineResult {
        fleet,
        generated_databases: generated_ids.len(),
        vanished_databases: vanished,
        report,
        faults: fault_summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionConfig;

    fn config() -> FleetConfig {
        FleetConfig::new(RegionConfig::region_1().scaled(0.02), 55)
    }

    #[test]
    fn splitmix_and_derive_match_forest_reference() {
        // Same reference vectors as forest::parallel's tests — the two
        // copies must never drift apart.
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix64(1), 0x910a2dec89025cc1);
        for i in 0..64 {
            assert_ne!(derive_seed(2018, i), 2018);
        }
    }

    #[test]
    fn shard_plan_partitions_exactly() {
        for (subs, shards) in [(10, 3), (11, 4), (1, 8), (64, 64), (100, 1), (0, 4)] {
            let plan = ShardPlan::new(subs, shards);
            let mut covered = 0;
            let mut next_start = 0;
            for s in 0..plan.shard_count() {
                let range = plan.range(s);
                assert_eq!(range.start, next_start, "shards must be contiguous");
                next_start = range.end;
                covered += range.len();
            }
            assert_eq!(covered, subs, "{subs} subs / {shards} shards");
            assert_eq!(next_start, subs);
        }
    }

    #[test]
    fn clean_streamed_pipeline_matches_materialized() {
        let config = config();
        let reference = materialized_pipeline(&config, None, &RecoveryPolicy);
        assert!(reference.report.is_clean());
        assert_eq!(reference.vanished_databases, 0);
        assert_eq!(
            reference.generated_databases,
            reference.fleet.databases.len()
        );

        for shards in [1usize, 4] {
            let plan = ShardPlan::new(config.region.subscription_count, shards);
            let order: Vec<usize> = (0..plan.shard_count()).rev().collect();
            let streamed = run_region_streamed(&config, &plan, &order, 7, None, &RecoveryPolicy);
            assert_eq!(streamed.fleet.databases, reference.fleet.databases);
            assert_eq!(streamed.fleet.subscriptions, reference.fleet.subscriptions);
            assert_eq!(streamed.report, reference.report);
        }
    }

    #[test]
    fn faulted_streamed_pipeline_matches_materialized() {
        let config = config();
        let faults = FaultPlan {
            drop_size: 0.1,
            duplicate: 0.05,
            reorder: 0.1,
            corrupt_slo: 0.03,
            truncate: 0.05,
            orphan: 0.02,
            ..FaultPlan::none(9)
        };
        let policy = RecoveryPolicy;
        let reference = materialized_pipeline(&config, Some(&faults), &policy);
        assert!(reference.report.databases_quarantined > 0);
        assert_eq!(
            reference.generated_databases,
            reference.fleet.databases.len()
                + reference.report.databases_quarantined
                + reference.vanished_databases
        );

        let plan = ShardPlan::new(config.region.subscription_count, 5);
        let forward: Vec<usize> = (0..plan.shard_count()).collect();
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        for (order, chunk) in [(&forward, 3), (&backward, 16)] {
            let streamed =
                run_region_streamed(&config, &plan, order, chunk, Some(&faults), &policy);
            assert_eq!(streamed.fleet.databases, reference.fleet.databases);
            assert_eq!(streamed.report, reference.report);
            assert_eq!(streamed.faults, reference.faults);
            assert_eq!(streamed.vanished_databases, reference.vanished_databases);
        }
    }
}
