//! The per-kind repair and quarantine counters `obs` records during
//! lenient ingest must reconcile exactly with the `IngestReport` the
//! caller receives — the trace and the report are two views of the
//! same recovery, never two bookkeeping systems that can drift.

use telemetry::{
    reconstruct_records_lenient, EventStream, FaultInjector, FaultPlan, Fleet, FleetConfig,
    RegionConfig,
};

fn degraded_stream() -> EventStream {
    let fleet = Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.08), 13));
    let stream = EventStream::of_fleet(&fleet);
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
    FaultInjector::new(plan).inject(&stream).0
}

#[test]
fn trace_counters_match_ingest_report() {
    let degraded = degraded_stream();
    let registry = obs::Registry::with_stderr_level(obs::Level::Error);
    let guard = registry.install();
    let (_records, report) = reconstruct_records_lenient(&degraded);
    drop(guard);
    let snapshot = registry.snapshot();

    for (name, expected) in report.metric_entries() {
        assert_eq!(
            snapshot.counters.get(name).copied(),
            Some(expected),
            "counter {name} disagrees with the IngestReport"
        );
    }
    assert_eq!(
        snapshot.spans.get("ingest").map(|s| s.count),
        Some(1),
        "exactly one ingest span per reconstruction"
    );
    // The fault plan actually exercised the recovery machinery, so the
    // reconciliation above was not vacuously zero-vs-zero.
    assert!(report.repairs.total() > 0, "fault plan produced no repairs");
    assert!(
        report.databases_quarantined > 0,
        "fault plan produced no quarantines"
    );
    assert!(!report.is_clean(), "degraded stream reported clean");
    assert_eq!(
        snapshot.event_counts().get("info:ingest").copied(),
        Some(1),
        "unclean ingest must emit its summary event"
    );
}
