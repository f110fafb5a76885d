//! Degraded telemetry end to end: inject transport faults into a small
//! fleet's event stream, recover records through the lenient ingest
//! path, inspect the repair/quarantine report, and measure what the
//! degradation costs the §5 lifespan prediction.
//!
//! ```text
//! cargo run --release -p survdb-core --example degraded_telemetry
//! ```

use survdb::experiment::{Experiment, ExperimentConfig, GridPreset};
use telemetry::{
    reconstruct_records_lenient, Census, EventStream, FaultInjector, FaultPlan, Fleet, FleetConfig,
    RegionConfig,
};

fn main() {
    // 1. A small fleet emits its telemetry stream...
    let fleet = Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.12), 7));
    let stream = EventStream::of_fleet(&fleet);
    println!(
        "fleet: {} databases, {} telemetry events",
        fleet.databases.len(),
        stream.len()
    );

    // 2. ...the transport mangles it: lost samples, duplicate
    // deliveries, local reordering, a few truncated and orphaned
    // streams, the odd corrupt SLO label...
    let plan = FaultPlan {
        drop_size: 0.15,
        drop_utilization: 0.15,
        drop_dropped: 0.10,
        duplicate: 0.10,
        reorder: 0.10,
        truncate: 0.05,
        corrupt_slo: 0.05,
        orphan: 0.03,
        ..FaultPlan::none(2018)
    };
    let (degraded, faults) = FaultInjector::new(plan).inject(&stream);
    println!(
        "faults: {} dropped, {} duplicated, {} reordered, {} corrupt labels, \
         {} truncated streams, {} orphaned lifecycles",
        faults.dropped_events,
        faults.duplicated_events,
        faults.reordered_events,
        faults.corrupted_slos,
        faults.truncated_databases,
        faults.orphaned_databases
    );

    // 3. ...the lenient ingest tier recovers what it can and
    // quarantines what it cannot...
    let (records, report) = reconstruct_records_lenient(&degraded);
    println!(
        "recovered {} / {} databases ({} quarantined: {} orphaned, {} missing samples)",
        report.databases_recovered,
        fleet.databases.len(),
        report.databases_quarantined,
        report.quarantines.orphaned_databases,
        report.quarantines.missing_samples
    );
    println!(
        "repairs: {} total ({} deduplicated, {} re-sorted, {} post-drop discarded, \
         {} creation SLOs repaired)",
        report.repairs.total(),
        report.repairs.duplicate_events
            + report.repairs.duplicate_creates
            + report.repairs.duplicate_drops,
        report.repairs.resorted_events,
        report.repairs.post_drop_events,
        report.repairs.repaired_creation_slos
    );

    // 4. ...and the §5 prediction runs on both populations to price
    // the degradation.
    let experiment = Experiment::new(ExperimentConfig {
        repetitions: 2,
        grid: GridPreset::Off,
        ..ExperimentConfig::default()
    });
    let clean = experiment
        .try_run(&Census::new(&fleet), None)
        .expect("clean population is evaluable");
    let recovered_fleet = Fleet {
        config: fleet.config.clone(),
        subscriptions: fleet.subscriptions.clone(),
        databases: records,
    };
    match experiment.try_run(&Census::new(&recovered_fleet), None) {
        Ok(degraded_result) => {
            println!(
                "prediction on clean telemetry:    accuracy {:.3} precision {:.3} recall {:.3}",
                clean.forest.accuracy, clean.forest.precision, clean.forest.recall
            );
            println!(
                "prediction on degraded telemetry: accuracy {:.3} precision {:.3} recall {:.3}",
                degraded_result.forest.accuracy,
                degraded_result.forest.precision,
                degraded_result.forest.recall
            );
            println!(
                "degradation cost: Δaccuracy {:+.3} Δprecision {:+.3} Δrecall {:+.3}",
                degraded_result.forest.accuracy - clean.forest.accuracy,
                degraded_result.forest.precision - clean.forest.precision,
                degraded_result.forest.recall - clean.forest.recall
            );
        }
        Err(e) => println!("degraded population not evaluable: {e}"),
    }
}
