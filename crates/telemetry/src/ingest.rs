//! Telemetry ingestion: rebuilding database records from event streams.
//!
//! The paper's pipeline starts from "telemetry that is emitted from
//! each unique database" (§2); the study tables are views materialized
//! from that stream. This module is that materializer:
//! [`LenientIngestor`] folds [`TelemetryEvent`]s back into
//! [`DatabaseRecord`]s, and [`reconstruct_records_lenient`] is its
//! one-chunk form. Production telemetry is never pristine (events are
//! dropped, duplicated and reordered in transit; see [`crate::faults`]),
//! so the fold repairs what it can under fixed rules, quarantines
//! databases it cannot, and never aborts. An [`IngestReport`] accounts
//! for every repair and quarantine so degradation is measurable rather
//! than silent. On a clean stream nothing is repaired: round-trip tests
//! (`reconstruct_records_lenient(of_fleet(f)) == f.databases` with a
//! clean report) pin that the stream is a complete, faithful
//! representation of the simulated service.

use crate::catalog::SloCatalog;
use crate::database::{DatabaseRecord, SloChange};
use crate::events::{event_rank, EventStream, TelemetryEvent};
use crate::sizetrace::SizeTrace;
use crate::utilization::UtilizationTrace;
use simtime::Timestamp;
use std::collections::{BTreeMap, BTreeSet};

/// True for a finite size value a [`SizeTrace`] accepts.
fn size_value_ok(v: f64) -> bool {
    v.is_finite() && v >= 0.0
}

/// True for a finite utilization value a [`UtilizationTrace`] accepts.
fn utilization_value_ok(v: f64) -> bool {
    v.is_finite() && (0.0..=100.0).contains(&v)
}

#[derive(Debug)]
struct Partial {
    record_seed: DatabaseRecord,
    sizes: Vec<(simtime::Duration, f64)>,
    utilizations: Vec<(simtime::Duration, f64)>,
}

impl Partial {
    #[allow(clippy::too_many_arguments)] // mirrors the Created event's fields
    fn new(
        at: Timestamp,
        db_id: u64,
        subscription: crate::subscription::SubscriptionId,
        subscription_type: crate::subscription::SubscriptionType,
        region: crate::region::RegionId,
        server_name: &str,
        database_name: &str,
        slo_index: usize,
        elastic_pool: Option<u32>,
        is_internal: bool,
    ) -> Partial {
        Partial {
            record_seed: DatabaseRecord {
                id: db_id,
                region,
                server_name: server_name.to_string(),
                database_name: database_name.to_string(),
                subscription_id: subscription,
                subscription_type,
                created_at: at,
                dropped_at: None,
                slo_history: vec![SloChange { at, slo_index }],
                // Placeholder traces; replaced at finish.
                size_trace: SizeTrace::new(vec![(simtime::Duration::seconds(0), 0.0)]),
                utilization_trace: UtilizationTrace::new(vec![(
                    simtime::Duration::seconds(0),
                    0.0,
                )]),
                elastic_pool,
                is_internal,
            },
            sizes: Vec::new(),
            utilizations: Vec::new(),
        }
    }
}

/// Kept only for callers that still thread a policy through the
/// streaming pipeline ([`crate::run_shard`],
/// [`crate::run_region_streamed`], [`crate::materialized_pipeline`]):
/// the benchmark harness passes one, and it changes only together with
/// the benchmark. It has no fields — the recovery rules are fixed (see
/// [`LenientIngestor`]) — and goes when that parameter does.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryPolicy;

/// Per-kind tallies of repairs applied by the lenient path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepairCounts {
    /// Events that arrived out of time order and were re-sorted.
    pub resorted_events: usize,
    /// Exact duplicate samples / SLO changes discarded.
    pub duplicate_events: usize,
    /// Second-or-later `Created` events discarded.
    pub duplicate_creates: usize,
    /// Second-or-later `Dropped` events discarded (earliest wins).
    pub duplicate_drops: usize,
    /// Samples / SLO changes after `Dropped` discarded.
    pub post_drop_events: usize,
    /// Empty traces backfilled with a synthetic creation-time sample.
    pub synthesized_creation_samples: usize,
    /// Finite out-of-range sample values clamped into domain.
    pub clamped_samples: usize,
    /// Non-finite sample values discarded.
    pub invalid_samples_discarded: usize,
    /// Samples discarded because their offset did not advance (and
    /// they were not exact duplicates).
    pub out_of_order_samples: usize,
    /// Creation events with unknown SLOs repaired to the edition's
    /// entry SLO.
    pub repaired_creation_slos: usize,
    /// SLO-change events with unknown names discarded.
    pub dropped_unknown_slo_changes: usize,
}

impl RepairCounts {
    /// Total repairs of any kind.
    pub fn total(&self) -> usize {
        self.resorted_events
            + self.duplicate_events
            + self.duplicate_creates
            + self.duplicate_drops
            + self.post_drop_events
            + self.synthesized_creation_samples
            + self.clamped_samples
            + self.invalid_samples_discarded
            + self.out_of_order_samples
            + self.repaired_creation_slos
            + self.dropped_unknown_slo_changes
    }
}

/// Per-reason tallies of quarantines issued by the lenient path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuarantineCounts {
    /// Events whose database never had a `Created` in the stream.
    pub orphaned_events: usize,
    /// Distinct databases quarantined for having only orphan events.
    pub orphaned_databases: usize,
    /// Databases quarantined because both traces lost every sample.
    pub missing_samples: usize,
}

/// What the lenient path did to a stream: how much was recovered, how
/// much was repaired, and what had to be quarantined.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Events in the input stream.
    pub events_total: usize,
    /// Events discarded during the fold (duplicates, orphans,
    /// post-drop arrivals, events of quarantined databases).
    pub events_discarded: usize,
    /// Databases successfully reconstructed.
    pub databases_recovered: usize,
    /// Databases quarantined as unrecoverable.
    pub databases_quarantined: usize,
    /// Repair tallies.
    pub repairs: RepairCounts,
    /// Quarantine tallies.
    pub quarantines: QuarantineCounts,
    /// Ids of quarantined databases, ascending.
    pub quarantined_ids: Vec<u64>,
}

impl IngestReport {
    /// True when the stream needed no repair and nothing was
    /// quarantined — every event was folded as it arrived.
    pub fn is_clean(&self) -> bool {
        self.events_discarded == 0
            && self.databases_quarantined == 0
            && self.repairs == RepairCounts::default()
            && self.quarantines == QuarantineCounts::default()
    }

    /// This report as `obs` counter entries, one per field. The lenient
    /// path publishes exactly these, so a `run_trace.json` section can
    /// be reconciled 1:1 against the report (the metrics-consistency
    /// test does).
    pub fn metric_entries(&self) -> [(&'static str, u64); 18] {
        let r = &self.repairs;
        let q = &self.quarantines;
        [
            ("ingest.events_total", self.events_total as u64),
            ("ingest.events_discarded", self.events_discarded as u64),
            (
                "ingest.databases_recovered",
                self.databases_recovered as u64,
            ),
            (
                "ingest.databases_quarantined",
                self.databases_quarantined as u64,
            ),
            ("ingest.repair.resorted_events", r.resorted_events as u64),
            ("ingest.repair.duplicate_events", r.duplicate_events as u64),
            (
                "ingest.repair.duplicate_creates",
                r.duplicate_creates as u64,
            ),
            ("ingest.repair.duplicate_drops", r.duplicate_drops as u64),
            ("ingest.repair.post_drop_events", r.post_drop_events as u64),
            (
                "ingest.repair.synthesized_creation_samples",
                r.synthesized_creation_samples as u64,
            ),
            ("ingest.repair.clamped_samples", r.clamped_samples as u64),
            (
                "ingest.repair.invalid_samples_discarded",
                r.invalid_samples_discarded as u64,
            ),
            (
                "ingest.repair.out_of_order_samples",
                r.out_of_order_samples as u64,
            ),
            (
                "ingest.repair.repaired_creation_slos",
                r.repaired_creation_slos as u64,
            ),
            (
                "ingest.repair.dropped_unknown_slo_changes",
                r.dropped_unknown_slo_changes as u64,
            ),
            (
                "ingest.quarantine.orphaned_events",
                q.orphaned_events as u64,
            ),
            (
                "ingest.quarantine.orphaned_databases",
                q.orphaned_databases as u64,
            ),
            (
                "ingest.quarantine.missing_samples",
                q.missing_samples as u64,
            ),
        ]
    }

    /// Accumulates another report's counters into this one and appends
    /// its quarantined ids. Shard reports merged in shard-index order
    /// equal the report of ingesting the concatenated stream: shards
    /// partition the id space into ascending disjoint ranges, so the
    /// appended quarantine list stays globally sorted.
    pub fn merge(&mut self, other: &IngestReport) {
        self.events_total += other.events_total;
        self.events_discarded += other.events_discarded;
        self.databases_recovered += other.databases_recovered;
        self.databases_quarantined += other.databases_quarantined;
        let r = &mut self.repairs;
        let o = &other.repairs;
        r.resorted_events += o.resorted_events;
        r.duplicate_events += o.duplicate_events;
        r.duplicate_creates += o.duplicate_creates;
        r.duplicate_drops += o.duplicate_drops;
        r.post_drop_events += o.post_drop_events;
        r.synthesized_creation_samples += o.synthesized_creation_samples;
        r.clamped_samples += o.clamped_samples;
        r.invalid_samples_discarded += o.invalid_samples_discarded;
        r.out_of_order_samples += o.out_of_order_samples;
        r.repaired_creation_slos += o.repaired_creation_slos;
        r.dropped_unknown_slo_changes += o.dropped_unknown_slo_changes;
        let q = &mut self.quarantines;
        let p = &other.quarantines;
        q.orphaned_events += p.orphaned_events;
        q.orphaned_databases += p.orphaned_databases;
        q.missing_samples += p.missing_samples;
        self.quarantined_ids.extend(&other.quarantined_ids);
        // Keep the id list in canonical ascending order so merging is
        // shard-visit-order insensitive: each input is sorted and the
        // inputs' id ranges may interleave arbitrarily.
        self.quarantined_ids.sort_unstable();
    }
}

/// Incremental lenient ingestion over bounded chunks of a stream.
///
/// The streaming pipeline cannot materialize a region's events, so the
/// lenient fold is exposed as a push-style consumer: feed arrival-order
/// chunks with [`LenientIngestor::push_chunk`], then call
/// [`LenientIngestor::finish`] for the records and the report.
///
/// **Recovery rules.** Fixed, each one counted in the report:
/// arrivals are re-sorted into canonical `(time, rank)` order; exact
/// duplicates (a second `Created`, a repeated sample or SLO change, a
/// later `Dropped`) are discarded, the earliest drop winning; samples
/// and SLO changes after the drop are discarded; non-finite sample
/// values are discarded and finite out-of-range ones clamped into
/// their domain; a creation whose SLO is not in the catalog gets its
/// edition's entry SLO, while an unknown SLO change is discarded; and
/// when one trace lost every sample but the other survived, the empty
/// one is backfilled with the creation-time sample `(0, 0.0)`.
///
/// **Chunk-boundary contract:** feeding one whole stream as a single
/// chunk and feeding it split at *database-stream boundaries* (every
/// event of a database inside one chunk — the streaming pipeline cuts
/// at subscription boundaries, which implies this) produce bitwise
/// identical records and reports. That holds because the fold is
/// per-database local, resorting is a stable per-chunk sort (equal to
/// the global stable sort restricted to any one database), and late
/// arrivals are counted against each database's own arrival clock, not
/// a global one.
#[derive(Debug, Default)]
pub struct LenientIngestor {
    report: IngestReport,
    partials: BTreeMap<u64, Partial>,
    quarantined: BTreeSet<u64>,
    orphan_dbs: BTreeSet<u64>,
    /// Per-database maximum arrival timestamp, for counting late
    /// events (`repairs.resorted_events`) chunk-invariantly.
    arrival_max: BTreeMap<u64, Timestamp>,
}

impl LenientIngestor {
    /// A fresh ingestor.
    pub fn new() -> LenientIngestor {
        LenientIngestor::default()
    }

    /// Folds one arrival-order chunk into the accumulated state.
    pub fn push_chunk(&mut self, stream: &EventStream) {
        let _span = obs::span!("ingest_chunk");
        self.report.events_total += stream.len();

        let mut events: Vec<(Timestamp, TelemetryEvent)> = stream.events().to_vec();
        // Count late arrivals before repairing them: an event is late
        // when something of the *same database* with a strictly greater
        // timestamp already arrived. Clean streams count zero.
        for (at, event) in &events {
            match self.arrival_max.get_mut(&event.db_id()) {
                Some(max_seen) => {
                    if *at < *max_seen {
                        self.report.repairs.resorted_events += 1;
                    } else {
                        *max_seen = *at;
                    }
                }
                None => {
                    self.arrival_max.insert(event.db_id(), *at);
                }
            }
        }
        events.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| event_rank(&a.1).cmp(&event_rank(&b.1)))
        });

        for (at, event) in &events {
            let db_id = event.db_id();
            if self.quarantined.contains(&db_id) {
                self.report.events_discarded += 1;
                continue;
            }
            match event {
                TelemetryEvent::Created {
                    db_id,
                    subscription,
                    subscription_type,
                    region,
                    server_name,
                    database_name,
                    edition,
                    slo,
                    elastic_pool,
                    is_internal,
                } => {
                    if self.partials.contains_key(db_id) {
                        self.report.repairs.duplicate_creates += 1;
                        self.report.events_discarded += 1;
                        continue;
                    }
                    let slo_index = match SloCatalog::index_of(slo) {
                        Some(i) => i,
                        None => {
                            self.report.repairs.repaired_creation_slos += 1;
                            SloCatalog::entry_slo(*edition)
                        }
                    };
                    // An event stamped before its database's creation
                    // sorts ahead of it and looks orphaned; the
                    // creation rescues the database.
                    self.orphan_dbs.remove(db_id);
                    self.partials.insert(
                        *db_id,
                        Partial::new(
                            *at,
                            *db_id,
                            *subscription,
                            *subscription_type,
                            *region,
                            server_name,
                            database_name,
                            slo_index,
                            *elastic_pool,
                            *is_internal,
                        ),
                    );
                }
                TelemetryEvent::SloChanged { db_id, slo, .. } => {
                    let Some(partial) = self.partials.get_mut(db_id) else {
                        self.report.quarantines.orphaned_events += 1;
                        self.report.events_discarded += 1;
                        self.orphan_dbs.insert(*db_id);
                        continue;
                    };
                    if partial.record_seed.dropped_at.is_some() {
                        self.report.repairs.post_drop_events += 1;
                        self.report.events_discarded += 1;
                        continue;
                    }
                    let Some(slo_index) = SloCatalog::index_of(slo) else {
                        self.report.repairs.dropped_unknown_slo_changes += 1;
                        self.report.events_discarded += 1;
                        continue;
                    };
                    let dup = partial
                        .record_seed
                        .slo_history
                        .last()
                        .is_some_and(|c| c.at == *at && c.slo_index == slo_index);
                    if dup {
                        self.report.repairs.duplicate_events += 1;
                        self.report.events_discarded += 1;
                        continue;
                    }
                    partial
                        .record_seed
                        .slo_history
                        .push(SloChange { at: *at, slo_index });
                }
                TelemetryEvent::SizeSample { db_id, size_mb } => {
                    ingest_sample_lenient(
                        &mut self.partials,
                        &mut self.orphan_dbs,
                        &mut self.report,
                        *at,
                        *db_id,
                        *size_mb,
                        SampleKind::Size,
                    );
                }
                TelemetryEvent::UtilizationSample { db_id, dtu_percent } => {
                    ingest_sample_lenient(
                        &mut self.partials,
                        &mut self.orphan_dbs,
                        &mut self.report,
                        *at,
                        *db_id,
                        *dtu_percent,
                        SampleKind::Utilization,
                    );
                }
                TelemetryEvent::Dropped { db_id } => {
                    let Some(partial) = self.partials.get_mut(db_id) else {
                        self.report.quarantines.orphaned_events += 1;
                        self.report.events_discarded += 1;
                        self.orphan_dbs.insert(*db_id);
                        continue;
                    };
                    match partial.record_seed.dropped_at {
                        Some(existing) => {
                            self.report.repairs.duplicate_drops += 1;
                            self.report.events_discarded += 1;
                            // Earliest drop wins.
                            if *at < existing {
                                partial.record_seed.dropped_at = Some(*at);
                            }
                        }
                        None => partial.record_seed.dropped_at = Some(*at),
                    }
                }
            }
        }
    }

    /// Completes ingestion: synthesizes or quarantines databases with
    /// missing traces and returns the recovered records (ascending by
    /// id — generation order) plus the accumulated report.
    pub fn finish(self) -> (Vec<DatabaseRecord>, IngestReport) {
        let _span = obs::span!("ingest");
        let LenientIngestor {
            mut report,
            partials,
            quarantined,
            orphan_dbs,
            arrival_max: _,
        } = self;

        let mut quarantined_ids: Vec<u64> = quarantined.into_iter().collect();
        report.quarantines.orphaned_databases = orphan_dbs.len();
        quarantined_ids.extend(orphan_dbs);

        // BTreeMap iteration yields ascending ids — generation order.
        let mut records = Vec::with_capacity(partials.len());
        for (db_id, partial) in partials {
            let Partial {
                mut record_seed,
                mut sizes,
                mut utilizations,
            } = partial;
            if sizes.is_empty() || utilizations.is_empty() {
                if sizes.is_empty() && utilizations.is_empty() {
                    report.quarantines.missing_samples += 1;
                    quarantined_ids.push(db_id);
                    continue;
                }
                // One trace survived; backfill the other with a neutral
                // creation-time sample so the record stays usable.
                let synth = vec![(simtime::Duration::seconds(0), 0.0)];
                if sizes.is_empty() {
                    sizes = synth;
                } else {
                    utilizations = synth;
                }
                report.repairs.synthesized_creation_samples += 1;
            }
            record_seed.size_trace = SizeTrace::new(sizes);
            record_seed.utilization_trace = UtilizationTrace::new(utilizations);
            records.push(record_seed);
        }
        quarantined_ids.sort_unstable();
        quarantined_ids.dedup();
        report.databases_recovered = records.len();
        report.databases_quarantined = quarantined_ids.len();
        report.quarantined_ids = quarantined_ids;
        if obs::enabled() {
            obs::count_many(&report.metric_entries());
            if !report.is_clean() {
                obs::info!(
                    "ingest",
                    "recovered {} databases ({} quarantined, {} repairs, {} of {} events discarded)",
                    report.databases_recovered,
                    report.databases_quarantined,
                    report.repairs.total(),
                    report.events_discarded,
                    report.events_total
                );
            }
        }
        (records, report)
    }
}

/// Folds a possibly degraded stream into as many records as can be
/// recovered, quarantining the rest. Never fails: the worst stream
/// yields `(vec![], report)`. Records come back ascending by id —
/// generation order, like [`crate::Fleet::generate`]'s output.
///
/// On a clean stream this returns exactly the records the stream was
/// built from, plus a report whose [`IngestReport::is_clean`] holds —
/// leniency costs nothing when nothing is wrong. It is a one-chunk
/// [`LenientIngestor`] run.
pub fn reconstruct_records_lenient(stream: &EventStream) -> (Vec<DatabaseRecord>, IngestReport) {
    let mut ingestor = LenientIngestor::new();
    ingestor.push_chunk(stream);
    ingestor.finish()
}

#[derive(Clone, Copy)]
enum SampleKind {
    Size,
    Utilization,
}

/// Shared lenient-fold logic for the two sample kinds: orphan and
/// post-drop filtering, value clamping, offset dedup / monotonicity.
#[allow(clippy::too_many_arguments)]
fn ingest_sample_lenient(
    partials: &mut BTreeMap<u64, Partial>,
    orphan_dbs: &mut BTreeSet<u64>,
    report: &mut IngestReport,
    at: Timestamp,
    db_id: u64,
    value: f64,
    kind: SampleKind,
) {
    let Some(partial) = partials.get_mut(&db_id) else {
        report.quarantines.orphaned_events += 1;
        report.events_discarded += 1;
        orphan_dbs.insert(db_id);
        return;
    };
    if partial.record_seed.dropped_at.is_some() {
        report.repairs.post_drop_events += 1;
        report.events_discarded += 1;
        return;
    }
    if at < partial.record_seed.created_at {
        // Pre-creation sample. Within one chunk re-sorting puts it
        // ahead of its creation (an orphan), so only a stream that
        // splits a database across chunks gets here.
        report.quarantines.orphaned_events += 1;
        report.events_discarded += 1;
        return;
    }
    if !value.is_finite() {
        report.repairs.invalid_samples_discarded += 1;
        report.events_discarded += 1;
        return;
    }
    let value = {
        let (ok, clamped) = match kind {
            SampleKind::Size => (size_value_ok(value), value.max(0.0)),
            SampleKind::Utilization => (utilization_value_ok(value), value.clamp(0.0, 100.0)),
        };
        if ok {
            value
        } else {
            report.repairs.clamped_samples += 1;
            clamped
        }
    };
    let trace = match kind {
        SampleKind::Size => &mut partial.sizes,
        SampleKind::Utilization => &mut partial.utilizations,
    };
    let offset = at - partial.record_seed.created_at;
    if let Some(&(last, last_value)) = trace.last() {
        if offset <= last {
            if offset == last && value == last_value {
                report.repairs.duplicate_events += 1;
            } else {
                report.repairs.out_of_order_samples += 1;
            }
            report.events_discarded += 1;
            return;
        }
    }
    trace.push((offset, value));
}

/// Timestamp of the last event in the stream, if any — the natural
/// observation horizon of an ingested dataset.
pub fn stream_horizon(stream: &EventStream) -> Option<Timestamp> {
    stream.events().last().map(|(t, _)| *t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{Fleet, FleetConfig};
    use crate::region::RegionConfig;

    fn fleet() -> Fleet {
        Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.02), 21))
    }

    fn dropped_db(f: &Fleet) -> &DatabaseRecord {
        f.databases
            .iter()
            .find(|d| d.dropped_at.is_some())
            .expect("some database drops")
    }

    fn live_db(f: &Fleet) -> &DatabaseRecord {
        f.databases
            .iter()
            .find(|d| d.dropped_at.is_none())
            .expect("some database lives")
    }

    /// Ingests `db`'s stream plus `extra` events. The stream is
    /// re-sorted into canonical order first, so no event counts as a
    /// late arrival and each malformed input shows as its own repair.
    fn ingest_with(
        db: &DatabaseRecord,
        extra: Vec<(Timestamp, TelemetryEvent)>,
    ) -> (Vec<DatabaseRecord>, IngestReport) {
        let mut events = EventStream::of_database(db).events().to_vec();
        events.extend(extra);
        reconstruct_records_lenient(&EventStream::from_events(events))
    }

    /// The report repaired exactly `repairs`, discarded `discarded`
    /// events, and quarantined nothing.
    fn assert_repaired(report: &IngestReport, repairs: RepairCounts, discarded: usize) {
        assert_eq!(report.repairs, repairs);
        assert_eq!(report.events_discarded, discarded);
        assert_eq!(report.quarantines, QuarantineCounts::default());
        assert_eq!(report.databases_quarantined, 0);
    }

    /// The first size sample of `db`'s stream.
    fn first_size_sample(db: &DatabaseRecord) -> (Timestamp, f64) {
        EventStream::of_database(db)
            .events()
            .iter()
            .find_map(|(at, e)| match e {
                TelemetryEvent::SizeSample { size_mb, .. } => Some((*at, *size_mb)),
                _ => None,
            })
            .expect("every stream carries a size sample")
    }

    #[test]
    fn roundtrip_reconstructs_every_record_exactly() {
        let f = fleet();
        let stream = EventStream::of_fleet(&f);
        let (records, report) = reconstruct_records_lenient(&stream);
        assert_eq!(records, f.databases);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.events_total, stream.len());
        assert_eq!(report.databases_recovered, f.databases.len());
    }

    #[test]
    fn single_database_roundtrip() {
        let f = fleet();
        let db = f
            .databases
            .iter()
            .find(|d| d.changed_edition())
            .unwrap_or(&f.databases[0]);
        let (records, report) = reconstruct_records_lenient(&EventStream::of_database(db));
        assert_eq!(records, vec![db.clone()]);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn duplicate_create_rejected() {
        let f = fleet();
        let db = &f.databases[0];
        let create = EventStream::of_database(db).events()[0].clone();
        let (records, report) = ingest_with(db, vec![create]);
        assert_eq!(records, vec![db.clone()]);
        let repairs = RepairCounts {
            duplicate_creates: 1,
            ..RepairCounts::default()
        };
        assert_repaired(&report, repairs, 1);
    }

    #[test]
    fn duplicate_drop_rejected() {
        let f = fleet();
        let db = dropped_db(&f);
        let later = db.dropped_at.unwrap() + simtime::Duration::days(1);
        let (records, report) =
            ingest_with(db, vec![(later, TelemetryEvent::Dropped { db_id: db.id })]);
        // The earliest drop stands.
        assert_eq!(records, vec![db.clone()]);
        let repairs = RepairCounts {
            duplicate_drops: 1,
            ..RepairCounts::default()
        };
        assert_repaired(&report, repairs, 1);
    }

    #[test]
    fn sample_after_drop_rejected() {
        let f = fleet();
        let db = dropped_db(&f);
        let (records, report) = ingest_with(
            db,
            vec![(
                db.dropped_at.unwrap() + simtime::Duration::days(1),
                TelemetryEvent::SizeSample {
                    db_id: db.id,
                    size_mb: 10.0,
                },
            )],
        );
        assert_eq!(records, vec![db.clone()]);
        let repairs = RepairCounts {
            post_drop_events: 1,
            ..RepairCounts::default()
        };
        assert_repaired(&report, repairs, 1);
    }

    #[test]
    fn duplicate_sample_rejected_as_non_monotonic() {
        let f = fleet();
        let db = &f.databases[0];
        let (at, size_mb) = first_size_sample(db);
        // A repeated sample and a sample that does not advance past its
        // predecessor with a different value: both are discarded, the
        // first as a duplicate, the second as out of order. The sample
        // already folded stands.
        for (value, repairs) in [
            (
                size_mb,
                RepairCounts {
                    duplicate_events: 1,
                    ..RepairCounts::default()
                },
            ),
            (
                size_mb + 1.0,
                RepairCounts {
                    out_of_order_samples: 1,
                    ..RepairCounts::default()
                },
            ),
        ] {
            let sample = TelemetryEvent::SizeSample {
                db_id: db.id,
                size_mb: value,
            };
            let (records, report) = ingest_with(db, vec![(at, sample)]);
            assert_eq!(records, vec![db.clone()], "value {value}");
            assert_repaired(&report, repairs, 1);
        }
    }

    #[test]
    fn invalid_sample_rejected() {
        let f = fleet();
        let db = live_db(&f);
        let last = EventStream::of_database(db).events().last().unwrap().0;
        let at = last + simtime::Duration::days(1);
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for sample in [
                TelemetryEvent::UtilizationSample {
                    db_id: db.id,
                    dtu_percent: value,
                },
                TelemetryEvent::SizeSample {
                    db_id: db.id,
                    size_mb: value,
                },
            ] {
                let (records, report) = ingest_with(db, vec![(at, sample)]);
                assert_eq!(records, vec![db.clone()], "value {value}");
                let repairs = RepairCounts {
                    invalid_samples_discarded: 1,
                    ..RepairCounts::default()
                };
                assert_repaired(&report, repairs, 1);
            }
        }
    }

    #[test]
    fn lenient_clamps_out_of_range_samples() {
        let f = fleet();
        let db = live_db(&f);
        let last = EventStream::of_database(db).events().last().unwrap().0;
        let at = last + simtime::Duration::days(1);
        let (records, report) = ingest_with(
            db,
            vec![
                (
                    at,
                    TelemetryEvent::UtilizationSample {
                        db_id: db.id,
                        dtu_percent: 250.0,
                    },
                ),
                (
                    at,
                    TelemetryEvent::SizeSample {
                        db_id: db.id,
                        size_mb: -5.0,
                    },
                ),
            ],
        );
        let offset = at - db.created_at;
        let mut expected = db.clone();
        let mut utilizations = db.utilization_trace.samples().to_vec();
        utilizations.push((offset, 100.0));
        expected.utilization_trace = UtilizationTrace::new(utilizations);
        let mut sizes = db.size_trace.samples().to_vec();
        sizes.push((offset, 0.0));
        expected.size_trace = SizeTrace::new(sizes);
        assert_eq!(records, vec![expected]);
        let repairs = RepairCounts {
            clamped_samples: 2,
            ..RepairCounts::default()
        };
        assert_repaired(&report, repairs, 0);
    }

    #[test]
    fn lenient_repairs_duplicates_and_post_drop() {
        let f = fleet();
        let db = dropped_db(&f);
        let mut events: Vec<_> = EventStream::of_database(db).events().to_vec();
        let create = events[0].clone();
        let sample = events
            .iter()
            .find(|(_, e)| matches!(e, TelemetryEvent::SizeSample { .. }))
            .cloned()
            .unwrap();
        events.push(create);
        events.push(sample);
        events.push((
            db.dropped_at.unwrap() + simtime::Duration::days(2),
            TelemetryEvent::UtilizationSample {
                db_id: db.id,
                dtu_percent: 10.0,
            },
        ));
        let stream = EventStream::from_events_unsorted(events);
        let (records, report) = reconstruct_records_lenient(&stream);
        assert_eq!(records, vec![db.clone()]);
        // The re-sent creation and sample arrive after the drop, so
        // both also count as late arrivals.
        let repairs = RepairCounts {
            resorted_events: 2,
            duplicate_creates: 1,
            duplicate_events: 1,
            post_drop_events: 1,
            ..RepairCounts::default()
        };
        assert_repaired(&report, repairs, 3);
    }

    #[test]
    fn lenient_quarantines_orphans() {
        let f = fleet();
        let db = &f.databases[0];
        let mut events: Vec<_> = EventStream::of_database(db).events().to_vec();
        events.remove(0); // lose the creation
        let orphans = events.len();
        let (records, report) =
            reconstruct_records_lenient(&EventStream::from_events_unsorted(events));
        assert!(records.is_empty());
        assert_eq!(
            report.quarantines,
            QuarantineCounts {
                orphaned_events: orphans,
                orphaned_databases: 1,
                missing_samples: 0,
            }
        );
        assert_eq!(report.events_discarded, orphans);
        assert_eq!(report.repairs, RepairCounts::default());
        assert_eq!(report.quarantined_ids, vec![db.id]);
    }

    #[test]
    fn lenient_resorts_shuffled_stream() {
        let f = fleet();
        let db = &f.databases[0];
        let mut events: Vec<_> = EventStream::of_database(db).events().to_vec();
        events.reverse();
        let (records, report) =
            reconstruct_records_lenient(&EventStream::from_events_unsorted(events));
        assert_eq!(records, vec![db.clone()]);
        assert!(report.repairs.resorted_events > 0);
    }

    #[test]
    fn horizon_is_last_event() {
        let f = fleet();
        let stream = EventStream::of_fleet(&f);
        let horizon = stream_horizon(&stream).unwrap();
        assert_eq!(horizon, stream.events().last().unwrap().0);
        assert!(stream_horizon(&EventStream::from_events(Vec::new())).is_none());
    }
}
