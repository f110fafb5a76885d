//! `stream_equivalence` — the streaming pipeline's core contract,
//! held under proptest: for any (seed, shard count, shard visit order,
//! chunk size, fault rate), the sharded/chunked pipeline produces
//!
//! * bitwise-identical reconstructed records,
//! * an identical [`telemetry::IngestReport`] (all counters), and
//! * a bitwise-identical featurized [`forest::Dataset`]
//!
//! compared to the materialized reference pipeline that generates the
//! whole region at once and ingests it as a single chunk. The counting
//! identity `generated = recovered + quarantined + vanished` must hold
//! as well — `vanished` comes from an id-set difference, so this is a
//! real consistency check, not true by definition.

use features::{feature_schema, FeatureConfig, FeatureExtractor};
use forest::Dataset;
use proptest::prelude::*;
use telemetry::{
    materialized_pipeline, run_shard, stream::splitmix64, Census, FaultPlan, FleetConfig,
    RecoveryPolicy, RegionConfig, ShardPlan,
};

/// Deterministic Fisher–Yates permutation of `0..n` from a seed.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn streamed_pipeline_is_bitwise_equivalent_to_materialized(
        seed in 0u64..10_000,
        shards_index in 0usize..3,
        order_seed in 0u64..10_000,
        chunk in 1usize..12,
        fault_index in 0usize..3,
    ) {
        let shards = [1usize, 3, 8][shards_index];
        let fault_rate = [0.0f64, 0.08, 0.2][fault_index];
        let config = FleetConfig::new(RegionConfig::region_1().scaled(0.012), seed);
        let policy = RecoveryPolicy;
        let faults = (fault_rate > 0.0).then(|| FaultPlan {
            drop_size: fault_rate,
            duplicate: fault_rate / 2.0,
            reorder: fault_rate,
            corrupt_slo: fault_rate / 4.0,
            truncate: fault_rate / 2.0,
            orphan: fault_rate / 4.0,
            ..FaultPlan::none(seed ^ 0xFA17)
        });

        // Reference: whole region generated and ingested in one piece.
        let reference = materialized_pipeline(&config, faults.as_ref(), &policy);
        let reference_census = Census::new(&reference.fleet);
        let extractor = FeatureExtractor::new(&reference_census, FeatureConfig::default());
        let (reference_dataset, reference_survival) =
            extractor.build_dataset(&reference_census, None);

        // Streamed: shards visited in a random permutation, then
        // featurized independently and merged by shard index.
        let plan = ShardPlan::new(config.region.subscription_count, shards);
        let visit_order = permutation(plan.shard_count(), order_seed);
        let mut report = telemetry::IngestReport::default();
        let mut generated = 0usize;
        let mut vanished = 0usize;
        let mut shard_fleets = Vec::new();
        for &shard in &visit_order {
            let result = run_shard(&config, &plan, shard, chunk, faults.as_ref(), &policy);
            report.merge(&result.report);
            generated += result.generated_databases;
            vanished += result.vanished_databases;
            shard_fleets.push((shard, result.fleet));
        }

        // Counting identity, per the whole region.
        prop_assert_eq!(
            generated,
            report.databases_recovered + report.databases_quarantined + vanished,
            "generated = recovered + quarantined + vanished must hold"
        );
        prop_assert_eq!(generated, reference.generated_databases);
        prop_assert_eq!(vanished, reference.vanished_databases);

        // Records: concatenating shard fleets in shard-index order
        // reproduces the reference bitwise.
        shard_fleets.sort_by_key(|(shard, _)| *shard);
        let streamed_databases: Vec<_> = shard_fleets
            .iter()
            .flat_map(|(_, fleet)| fleet.databases.iter().cloned())
            .collect();
        prop_assert_eq!(&streamed_databases, &reference.fleet.databases);

        // Ingest accounting: every counter identical. The quarantine
        // id lists must match element-for-element too.
        let mut reference_report = reference.report.clone();
        prop_assert_eq!(
            std::mem::take(&mut report.quarantined_ids),
            std::mem::take(&mut reference_report.quarantined_ids)
        );
        prop_assert_eq!(report, reference_report);

        // Features: the shard datasets, appended in shard order, equal
        // the whole-fleet dataset bitwise, row for row.
        let mut streamed_dataset = Dataset::new(feature_schema(&FeatureConfig::default()), 2);
        let mut streamed_survival = Vec::new();
        for (_, fleet) in &shard_fleets {
            let census = Census::new(fleet);
            let extractor = FeatureExtractor::new(&census, FeatureConfig::default());
            let (dataset, survival) = extractor.build_dataset(&census, None);
            streamed_dataset.append(&dataset);
            streamed_survival.extend(survival);
        }
        prop_assert_eq!(streamed_dataset, reference_dataset);
        prop_assert_eq!(streamed_survival, reference_survival);
    }
}
