//! Fault-tolerance integration: the lenient ingest path recovers what
//! the fault injector breaks.
//!
//! The contract under test, per fault class:
//!
//! * a clean stream ingests to exactly the generator's records, with a
//!   clean report;
//! * repairable faults (duplication, reordering) round-trip to the
//!   exact original records;
//! * destructive faults (drops, truncation, orphaning, corruption)
//!   recover every database the recovery rules allow and quarantine
//!   the rest, with the report accounting for both;
//! * everything — injection and recovery — is deterministic in the
//!   seed.

use proptest::prelude::*;
use std::sync::OnceLock;
use telemetry::{
    reconstruct_records_lenient, EventStream, FaultClass, FaultInjector, FaultPlan, Fleet,
    FleetConfig, RegionConfig, SloCatalog, TelemetryEvent,
};

fn fleet() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| {
        Fleet::generate(FleetConfig::new(
            RegionConfig::region_1().scaled(0.02),
            4242,
        ))
    })
}

fn clean_stream() -> &'static EventStream {
    static STREAM: OnceLock<EventStream> = OnceLock::new();
    STREAM.get_or_init(|| EventStream::of_fleet(fleet()))
}

#[test]
fn lenient_of_clean_stream_equals_strict_exactly() {
    let stream = clean_stream();
    // The generator's own records are the oracle.
    let (lenient, report) = reconstruct_records_lenient(stream);
    assert_eq!(lenient, fleet().databases);
    assert!(report.is_clean(), "clean stream repaired: {report:?}");
    assert_eq!(report.events_total, stream.len());
}

#[test]
fn duplicate_events_round_trip_exactly() {
    let (faulted, summary) =
        FaultInjector::new(FaultPlan::single(FaultClass::DuplicateEvents, 0.3, 11))
            .inject(clean_stream());
    assert!(summary.duplicated_events > 0);
    let (records, report) = reconstruct_records_lenient(&faulted);
    assert_eq!(
        records,
        fleet().databases,
        "dedup must restore the originals"
    );
    assert_eq!(report.databases_quarantined, 0);
    let dup_repairs = report.repairs.duplicate_events
        + report.repairs.duplicate_creates
        + report.repairs.duplicate_drops
        + report.repairs.post_drop_events;
    assert_eq!(dup_repairs, summary.duplicated_events);
}

#[test]
fn reordered_events_round_trip_exactly() {
    let (faulted, summary) =
        FaultInjector::new(FaultPlan::single(FaultClass::ReorderEvents, 0.25, 12))
            .inject(clean_stream());
    assert!(summary.reordered_events > 0);
    let (records, report) = reconstruct_records_lenient(&faulted);
    assert_eq!(
        records,
        fleet().databases,
        "re-sorting must restore the originals"
    );
    assert!(report.repairs.resorted_events > 0);
    assert_eq!(report.databases_quarantined, 0);
}

#[test]
fn dropped_samples_recover_subsets() {
    let (faulted, summary) =
        FaultInjector::new(FaultPlan::single(FaultClass::DropSamples, 0.3, 13))
            .inject(clean_stream());
    assert!(summary.dropped_events > 0);
    let (records, report) = reconstruct_records_lenient(&faulted);
    let originals = &fleet().databases;
    assert_eq!(
        records.len() + report.databases_quarantined,
        originals.len(),
        "every database is recovered or quarantined"
    );
    // Sample loss never invents data: every recovered sample is
    // either one of the original's or the synthetic creation-time
    // backfill `(0, 0.0)` for a trace that lost everything.
    let synthetic = (simtime::Duration::seconds(0), 0.0);
    for rec in &records {
        let orig = originals.iter().find(|d| d.id == rec.id).expect("known id");
        assert_eq!(rec.created_at, orig.created_at);
        for sample in rec.size_trace.samples() {
            assert!(orig.size_trace.samples().contains(sample) || *sample == synthetic);
        }
        for sample in rec.utilization_trace.samples() {
            assert!(orig.utilization_trace.samples().contains(sample) || *sample == synthetic);
        }
    }
}

#[test]
fn truncated_streams_recover_prefixes() {
    let (faulted, summary) =
        FaultInjector::new(FaultPlan::single(FaultClass::TruncateStreams, 0.5, 14))
            .inject(clean_stream());
    assert!(summary.truncated_databases > 0);
    let (records, report) = reconstruct_records_lenient(&faulted);
    let originals = &fleet().databases;
    assert_eq!(
        records.len() + report.databases_quarantined,
        originals.len()
    );
    for rec in &records {
        let orig = originals.iter().find(|d| d.id == rec.id).expect("known id");
        assert!(rec.size_trace.samples().len() <= orig.size_trace.samples().len());
        // A truncated drop event leaves the database looking alive.
        if orig.dropped_at.is_none() {
            assert!(rec.dropped_at.is_none());
        }
    }
}

#[test]
fn corrupt_slo_names_are_repaired_to_catalog_entries() {
    let (faulted, summary) =
        FaultInjector::new(FaultPlan::single(FaultClass::CorruptSloNames, 0.4, 15))
            .inject(clean_stream());
    assert!(summary.corrupted_slos > 0);
    let (records, report) = reconstruct_records_lenient(&faulted);
    assert_eq!(
        records.len(),
        fleet().databases.len(),
        "repair, not quarantine"
    );
    assert_eq!(
        report.repairs.repaired_creation_slos + report.repairs.dropped_unknown_slo_changes,
        summary.corrupted_slos,
        "every corrupt label is either repaired or discarded"
    );
    assert_eq!(report.databases_quarantined, 0);
    assert!(report.repairs.repaired_creation_slos > 0);
    // A repaired creation takes its edition's entry SLO; every other
    // creation keeps the generator's.
    let mut changed = 0;
    for (rec, orig) in records.iter().zip(&fleet().databases) {
        assert_eq!(rec.id, orig.id);
        let slo = rec.slo_history[0].slo_index;
        if slo != orig.slo_history[0].slo_index {
            assert_eq!(slo, SloCatalog::entry_slo(orig.creation_edition()));
            changed += 1;
        }
    }
    assert!(changed <= report.repairs.repaired_creation_slos);
}

#[test]
fn orphaned_lifecycles_are_quarantined_and_the_rest_round_trip() {
    let (faulted, summary) =
        FaultInjector::new(FaultPlan::single(FaultClass::OrphanLifecycles, 0.3, 16))
            .inject(clean_stream());
    assert!(summary.orphaned_databases > 0);
    let (records, report) = reconstruct_records_lenient(&faulted);
    assert_eq!(
        report.quarantines.orphaned_databases,
        summary.orphaned_databases
    );
    assert_eq!(report.databases_quarantined, summary.orphaned_databases);
    let originals = &fleet().databases;
    assert_eq!(
        records.len() + report.databases_quarantined,
        originals.len()
    );
    // Databases that kept their creation round-trip exactly.
    for rec in &records {
        let orig = originals.iter().find(|d| d.id == rec.id).expect("known id");
        assert_eq!(rec, orig);
    }
}

#[test]
fn combined_faults_never_panic_and_account_for_every_database() {
    let plan = FaultPlan {
        drop_size: 0.2,
        drop_utilization: 0.2,
        drop_dropped: 0.3,
        duplicate: 0.15,
        reorder: 0.15,
        truncate: 0.2,
        corrupt_slo: 0.1,
        orphan: 0.1,
        ..FaultPlan::none(99)
    };
    let (faulted, _) = FaultInjector::new(plan).inject(clean_stream());
    let (records, report) = reconstruct_records_lenient(&faulted);
    assert!(!records.is_empty());
    assert_eq!(
        records.len() + report.databases_quarantined,
        fleet().databases.len()
    );
    assert_eq!(report.databases_recovered, records.len());
    assert!(report.repairs.total() > 0);
}

#[test]
fn same_seed_yields_identical_ingest_report() {
    let plan = FaultPlan {
        drop_size: 0.25,
        duplicate: 0.1,
        reorder: 0.1,
        corrupt_slo: 0.1,
        orphan: 0.05,
        ..FaultPlan::none(321)
    };
    let run = || {
        let (faulted, _) = FaultInjector::new(plan).inject(clean_stream());
        reconstruct_records_lenient(&faulted)
    };
    let (records_a, report_a) = run();
    let (records_b, report_b) = run();
    assert_eq!(records_a, records_b);
    assert_eq!(report_a, report_b);
}

#[test]
fn ingest_report_is_printable() {
    let (faulted, _) = FaultInjector::new(FaultPlan::single(FaultClass::DropSamples, 0.3, 5))
        .inject(clean_stream());
    let (_, report) = reconstruct_records_lenient(&faulted);
    let text = format!("{report:?}");
    assert!(text.contains("databases_recovered"), "{text}");
}

proptest! {
    #[test]
    fn injector_is_deterministic(seed in any::<u64>(), rate in 0.0..0.5f64) {
        let plan = FaultPlan {
            drop_size: rate,
            duplicate: rate / 2.0,
            reorder: rate / 2.0,
            ..FaultPlan::none(seed)
        };
        let (a, sa) = FaultInjector::new(plan).inject(clean_stream());
        let (b, sb) = FaultInjector::new(plan).inject(clean_stream());
        prop_assert_eq!(a.events(), b.events());
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn recovery_accounting_is_conservative(seed in any::<u64>(), rate in 0.0..0.4f64) {
        let (faulted, _) = FaultInjector::new(FaultPlan::single(
            FaultClass::DropSamples,
            rate,
            seed,
        ))
        .inject(clean_stream());
        let (records, report) =
            reconstruct_records_lenient(&faulted);
        prop_assert_eq!(report.events_total, faulted.len());
        prop_assert!(report.events_discarded <= report.events_total);
        prop_assert_eq!(report.databases_recovered, records.len());
        let creates = faulted
            .count_where(|e| matches!(e, TelemetryEvent::Created { .. }));
        prop_assert!(records.len() <= creates);
    }
}
