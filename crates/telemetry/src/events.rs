//! Telemetry event streams.
//!
//! The paper's raw input is "telemetry that is emitted from each unique
//! database from its creation through to when it is dropped" (§2). This
//! module flattens a fleet into that stream shape: a time-ordered
//! sequence of create / size / SLO-change / edition-change / drop
//! events. The feature pipeline works from [`DatabaseRecord`]s directly,
//! but the stream is the realistic ingestion surface — the quickstart
//! example consumes it, and tests check it round-trips with the records.

use crate::catalog::Edition;
use crate::database::DatabaseRecord;
use crate::fleet::Fleet;
use crate::subscription::SubscriptionId;
use simtime::Timestamp;

/// The creation metadata only a reconstructed record needs: placement,
/// offer, names and pool membership. [`TelemetryEvent::Created`] boxes
/// it, so a creation is no larger than any other event and a stream
/// moves and sorts compact events. No fault touches it.
#[derive(Debug, Clone, PartialEq)]
pub struct CreationInfo {
    /// Owning subscription.
    pub subscription: SubscriptionId,
    /// Offer type of the owning subscription.
    pub subscription_type: crate::subscription::SubscriptionType,
    /// Hosting region.
    pub region: crate::region::RegionId,
    /// Logical server name.
    pub server_name: String,
    /// Database name.
    pub database_name: String,
    /// Creation edition.
    pub edition: Edition,
    /// Elastic-pool membership at creation.
    pub elastic_pool: Option<u32>,
    /// True for Microsoft-internal subscriptions.
    pub is_internal: bool,
}

/// One telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A database was created. Carries the creation metadata a real
    /// control-plane event would: identity, the initial SLO, and (boxed)
    /// placement, offer and names.
    Created {
        /// Database id.
        db_id: u64,
        /// Initial SLO name — the one label fault injection rewrites.
        slo: &'static str,
        /// Everything else the creation carries.
        info: Box<CreationInfo>,
    },
    /// A periodic size report.
    SizeSample {
        /// Database id.
        db_id: u64,
        /// Reported size in MB.
        size_mb: f64,
    },
    /// A periodic DTU-utilization report.
    UtilizationSample {
        /// Database id.
        db_id: u64,
        /// DTU percentage in [0, 100].
        dtu_percent: f64,
    },
    /// The database moved to a different SLO (same or new edition).
    SloChanged {
        /// Database id.
        db_id: u64,
        /// New SLO name.
        slo: &'static str,
        /// True when the move crossed editions.
        edition_changed: bool,
    },
    /// The database was dropped.
    Dropped {
        /// Database id.
        db_id: u64,
    },
}

impl TelemetryEvent {
    /// The database this event belongs to.
    pub fn db_id(&self) -> u64 {
        match self {
            TelemetryEvent::Created { db_id, .. }
            | TelemetryEvent::SizeSample { db_id, .. }
            | TelemetryEvent::UtilizationSample { db_id, .. }
            | TelemetryEvent::SloChanged { db_id, .. }
            | TelemetryEvent::Dropped { db_id } => *db_id,
        }
    }

    /// The SLO label the event carries, if any.
    pub fn slo_name(&self) -> Option<&'static str> {
        match self {
            TelemetryEvent::Created { slo, .. } | TelemetryEvent::SloChanged { slo, .. } => {
                Some(slo)
            }
            _ => None,
        }
    }

    /// Replaces the SLO label on label-carrying events; a no-op on the
    /// rest. Used by fault injection to corrupt labels.
    pub fn set_slo_name(&mut self, name: &'static str) {
        match self {
            TelemetryEvent::Created { slo, .. } | TelemetryEvent::SloChanged { slo, .. } => {
                *slo = name;
            }
            _ => {}
        }
    }
}

/// The canonical order of one database's events: by time, and at equal
/// times by kind — creations first, then SLO changes, size samples,
/// utilization samples, and drops last. `from_events` and ingestion sort
/// on it; [`EventStream::of_databases`] gets the same rank order from
/// [`emit_database`]'s emission order.
pub(crate) fn canonical_key(at: Timestamp, event: &TelemetryEvent) -> (Timestamp, u8) {
    let rank = match event {
        TelemetryEvent::Created { .. } => 0,
        TelemetryEvent::SloChanged { .. } => 1,
        TelemetryEvent::SizeSample { .. } => 2,
        TelemetryEvent::UtilizationSample { .. } => 3,
        TelemetryEvent::Dropped { .. } => 4,
    };
    (at, rank)
}

/// Appends `db`'s events in emission order: the creation, the SLO
/// changes, every size and utilization sample, then the drop — the
/// kinds in ascending `canonical_key` rank.
fn emit_database(db: &DatabaseRecord, out: &mut Vec<(Timestamp, TelemetryEvent)>) {
    out.push((
        db.created_at,
        TelemetryEvent::Created {
            db_id: db.id,
            slo: db.creation_slo().name,
            info: Box::new(CreationInfo {
                subscription: db.subscription_id,
                subscription_type: db.subscription_type,
                region: db.region,
                server_name: db.server_name.clone(),
                database_name: db.database_name.clone(),
                edition: db.creation_edition(),
                elastic_pool: db.elastic_pool,
                is_internal: db.is_internal,
            }),
        },
    ));
    let mut prev_edition = db.creation_edition();
    for change in &db.slo_history[1..] {
        let edition = change.edition();
        out.push((
            change.at,
            TelemetryEvent::SloChanged {
                db_id: db.id,
                slo: crate::catalog::SloCatalog::get(change.slo_index).name,
                edition_changed: edition != prev_edition,
            },
        ));
        prev_edition = edition;
    }
    // Every trace sample is emitted (including the offset-0 report)
    // so the stream fully determines the record — the ingestion
    // module reconstructs records from streams and round-trips.
    for &(offset, size_mb) in db.size_trace.samples() {
        out.push((
            db.created_at + offset,
            TelemetryEvent::SizeSample {
                db_id: db.id,
                size_mb,
            },
        ));
    }
    for &(offset, dtu_percent) in db.utilization_trace.samples() {
        out.push((
            db.created_at + offset,
            TelemetryEvent::UtilizationSample {
                db_id: db.id,
                dtu_percent,
            },
        ));
    }
    if let Some(at) = db.dropped_at {
        out.push((at, TelemetryEvent::Dropped { db_id: db.id }));
    }
}

/// A time-ordered telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EventStream {
    events: Vec<(Timestamp, TelemetryEvent)>,
}

impl EventStream {
    /// Builds the stream for one database, in canonical order.
    pub fn of_database(db: &DatabaseRecord) -> EventStream {
        EventStream::of_databases(std::slice::from_ref(db))
    }

    /// Builds the merged stream of a set of databases, ordered by time,
    /// then by the database's position in `databases`, then by
    /// `canonical_key`'s kind rank, with remaining ties in emission
    /// order. This is the per-subscription unit of the streaming
    /// pipeline: both the streamed and the materialized paths build
    /// subscription streams with it, so fault injection sees identical
    /// input either way.
    ///
    /// One stable sort by time builds it. The raw events are emitted
    /// database by database in input order, and each database's in
    /// rank order (see `emit_database`), so at equal times emission
    /// order already is position-then-rank order.
    pub fn of_databases(databases: &[DatabaseRecord]) -> EventStream {
        let capacity = databases
            .iter()
            .map(|db| {
                db.slo_history.len()
                    + db.size_trace.samples().len()
                    + db.utilization_trace.samples().len()
                    + usize::from(db.dropped_at.is_some())
            })
            .sum();
        let mut events = Vec::with_capacity(capacity);
        for db in databases {
            emit_database(db, &mut events);
        }
        events.sort_by_key(|&(at, _)| at);
        EventStream { events }
    }

    /// Builds the merged stream of a whole fleet, time-ordered.
    pub fn of_fleet(fleet: &Fleet) -> EventStream {
        EventStream::of_databases(&fleet.databases)
    }

    /// Builds a stream from pre-collected events, stably re-sorted into
    /// `canonical_key` order (used by ingestion tests and external
    /// loaders).
    pub fn from_events(mut events: Vec<(Timestamp, TelemetryEvent)>) -> EventStream {
        events.sort_by_key(|(at, event)| canonical_key(*at, event));
        EventStream { events }
    }

    /// Builds a stream that preserves the given *arrival* order
    /// verbatim — no sorting. Fault injection uses this so reordering
    /// perturbations survive into ingestion instead of being silently
    /// repaired by the constructor.
    pub fn from_events_unsorted(events: Vec<(Timestamp, TelemetryEvent)>) -> EventStream {
        EventStream { events }
    }

    /// The events.
    pub fn events(&self) -> &[(Timestamp, TelemetryEvent)] {
        &self.events
    }

    /// Consumes the stream, yielding its events in arrival order —
    /// used by the chunked pipeline to concatenate subscription
    /// streams without copying.
    pub fn into_events(self) -> Vec<(Timestamp, TelemetryEvent)> {
        self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if there are no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Counts events matching a predicate.
    pub fn count_where(&self, mut pred: impl FnMut(&TelemetryEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use crate::region::RegionConfig;

    fn fleet() -> Fleet {
        Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.02), 11))
    }

    #[test]
    fn stream_is_time_ordered() {
        let f = fleet();
        let s = EventStream::of_fleet(&f);
        for w in s.events().windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn creates_match_databases_and_drops_match_observed() {
        let f = fleet();
        let s = EventStream::of_fleet(&f);
        let creates = s.count_where(|e| matches!(e, TelemetryEvent::Created { .. }));
        let drops = s.count_where(|e| matches!(e, TelemetryEvent::Dropped { .. }));
        assert_eq!(creates, f.databases.len());
        let observed_drops = f
            .databases
            .iter()
            .filter(|d| d.dropped_at.is_some())
            .count();
        assert_eq!(drops, observed_drops);
    }

    #[test]
    fn per_database_stream_brackets_lifetime() {
        let f = fleet();
        let db = f
            .databases
            .iter()
            .find(|d| d.dropped_at.is_some())
            .expect("some database drops");
        let s = EventStream::of_database(db);
        let events = s.events();
        assert!(matches!(events[0].1, TelemetryEvent::Created { .. }));
        assert_eq!(events[0].0, db.created_at);
        assert!(matches!(
            events.last().unwrap().1,
            TelemetryEvent::Dropped { .. }
        ));
        assert_eq!(events.last().unwrap().0, db.dropped_at.unwrap());
    }

    #[test]
    fn edition_change_flags_are_consistent() {
        let f = fleet();
        let s = EventStream::of_fleet(&f);
        let edition_changes = s.count_where(|e| {
            matches!(
                e,
                TelemetryEvent::SloChanged {
                    edition_changed: true,
                    ..
                }
            )
        });
        let changed_dbs = f.databases.iter().filter(|d| d.changed_edition()).count();
        // Every edition-changing database contributes at least one
        // edition-change event (it may change back, adding another).
        assert!(edition_changes >= changed_dbs);
        if changed_dbs == 0 {
            assert_eq!(edition_changes, 0);
        }
    }

    /// Checks `stream` against the ordering predicate of
    /// [`EventStream::of_databases`]: it is a permutation of the events
    /// `databases` emit, and the keys `(time, input position, rank)`
    /// never decrease, with equal keys in emission order.
    fn assert_canonical_merge(databases: &[DatabaseRecord], stream: &EventStream) {
        // Each database's emitted events, with their emission indices.
        let mut emitted: Vec<Vec<(usize, Timestamp, TelemetryEvent)>> = Vec::new();
        let mut next_index = 0;
        for db in databases {
            let mut raw = Vec::new();
            emit_database(db, &mut raw);
            let events = raw.into_iter().map(|(at, event)| {
                next_index += 1;
                (next_index - 1, at, event)
            });
            emitted.push(events.collect());
        }
        let position_of: std::collections::BTreeMap<u64, usize> = databases
            .iter()
            .enumerate()
            .map(|(position, db)| (db.id, position))
            .collect();
        assert_eq!(position_of.len(), databases.len(), "ids must be unique");

        let mut used = vec![false; next_index];
        let mut previous: Option<(Timestamp, usize, u8, usize)> = None;
        for (at, event) in stream.events() {
            let position = position_of[&event.db_id()];
            // The earliest emitted event not matched yet that equals
            // this one: identical events may only appear in emission
            // order, so matching greedily loses nothing.
            let index = emitted[position]
                .iter()
                .find(|(index, a, e)| !used[*index] && a == at && e == event)
                .map(|(index, ..)| *index)
                .unwrap_or_else(|| panic!("{at:?} {event:?} was not emitted (or twice)"));
            used[index] = true;
            let key = (*at, position, canonical_key(*at, event).1, index);
            if let Some(previous) = previous {
                assert!(previous < key, "{previous:?} then {key:?}");
            }
            previous = Some(key);
        }
        assert!(used.iter().all(|&u| u), "every emitted event appears");
    }

    /// A hand-built record living one hour, with two SLO changes at the
    /// same instant (a tie only emission order breaks).
    fn hand_built(id: u64, created: i64) -> DatabaseRecord {
        use crate::database::SloChange;
        use crate::sizetrace::SizeTrace;
        use crate::utilization::UtilizationTrace;
        use simtime::Duration;
        let at = Timestamp::from_epoch_seconds(created);
        let minute = Duration::seconds(60);
        DatabaseRecord {
            id,
            region: crate::region::RegionId::Region1,
            server_name: "srv".to_string(),
            database_name: "db".to_string(),
            subscription_id: SubscriptionId(7),
            subscription_type: crate::subscription::SubscriptionType::PayAsYouGo,
            created_at: at,
            dropped_at: Some(at + Duration::seconds(3_600)),
            slo_history: vec![
                SloChange { at, slo_index: 0 },
                SloChange {
                    at: at + minute,
                    slo_index: 1,
                },
                SloChange {
                    at: at + minute,
                    slo_index: 2,
                },
            ],
            size_trace: SizeTrace::new(vec![(Duration::seconds(0), 1.0), (minute, 2.0)]),
            utilization_trace: UtilizationTrace::new(vec![
                (Duration::seconds(0), 5.0),
                (minute, 6.0),
            ]),
            elastic_pool: None,
            is_internal: false,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]
        #[test]
        fn of_databases_is_the_canonical_merge_of_its_inputs(
            seed in 0u64..1_000,
            picks in proptest::collection::vec(0usize..100_000, 1..7),
            clone_pick in 0usize..8,
            reverse in proptest::strategy::any::<bool>(),
            with_hand_built in proptest::strategy::any::<bool>(),
        ) {
            let fleet =
                Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.005), seed));
            let n = fleet.databases.len();
            let mut databases: Vec<DatabaseRecord> = Vec::new();
            for pick in picks {
                let db = &fleet.databases[pick % n];
                if databases.iter().all(|d| d.id != db.id) {
                    databases.push(db.clone());
                }
            }
            // A clone under a new id ties every event of its original
            // across databases, at every timestamp.
            let mut twin = databases[clone_pick % databases.len()].clone();
            twin.id = u64::MAX - 1;
            databases.push(twin);
            if with_hand_built {
                // Two SLO changes at one instant: a tie within one
                // database that only emission order breaks.
                let created = databases[0].created_at.epoch_seconds();
                databases.push(hand_built(u64::MAX, created));
            }
            if reverse {
                databases.reverse();
            }
            assert_canonical_merge(&databases, &EventStream::of_databases(&databases));
            for db in &databases {
                assert_canonical_merge(
                    std::slice::from_ref(db),
                    &EventStream::of_database(db),
                );
            }
        }
    }

    #[test]
    fn equal_times_order_by_position_then_rank_then_emission() {
        // Two hand-built records with identical timestamps, the higher id
        // first: every instant ties across the databases, and each has
        // two SLO changes at one instant.
        let a = hand_built(1, 1_500_000_000);
        let b = hand_built(2, 1_500_000_000);
        let databases = [b, a];
        let stream = EventStream::of_databases(&databases);
        assert_canonical_merge(&databases, &stream);
        let ids: Vec<u64> = stream.events().iter().map(|(_, e)| e.db_id()).collect();
        assert_eq!(ids, [2, 2, 2, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 2, 1]);
    }
}
