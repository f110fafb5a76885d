//! Deterministic fault injection for telemetry streams.
//!
//! Production telemetry is lossy: events are dropped, duplicated,
//! reordered by the transport, truncated by collector restarts, and
//! occasionally carry corrupt labels. The paper's pipeline (§2) is
//! built on five months of such production data; this module lets the
//! reproduction *manufacture* those defects on demand so the recovery
//! path in [`crate::ingest`] and the §5 predictions can be evaluated
//! under controlled degradation.
//!
//! All decisions are pure functions of `(plan.seed, db_id, event
//! ordinal, fault kind)` via a splitmix64 hash — no RNG state is
//! threaded through the walk, so the same plan applied to the same
//! stream yields byte-identical output on every platform and in every
//! environment.

use crate::events::{EventStream, TelemetryEvent};
use crate::stream::splitmix64;

/// SLO names guaranteed to be absent from [`crate::catalog::SLOS`],
/// substituted by the label-corruption fault.
pub const CORRUPT_SLO_NAMES: [&str; 4] = ["X9", "Q-EXP", "S99", "P99"];

/// One class of telemetry defect, used to label degradation sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// Size/utilization reports silently lost in transport.
    DropSamples,
    /// Events delivered more than once.
    DuplicateEvents,
    /// Arrival order locally scrambled within a bounded window.
    ReorderEvents,
    /// A database's stream cut off mid-life (collector restart).
    TruncateStreams,
    /// SLO labels replaced with names outside the catalog.
    CorruptSloNames,
    /// `Created` events lost entirely, orphaning the lifecycle.
    OrphanLifecycles,
}

impl FaultClass {
    /// Every fault class, in sweep order.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::DropSamples,
        FaultClass::DuplicateEvents,
        FaultClass::ReorderEvents,
        FaultClass::TruncateStreams,
        FaultClass::CorruptSloNames,
        FaultClass::OrphanLifecycles,
    ];
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FaultClass::DropSamples => "drop-samples",
            FaultClass::DuplicateEvents => "duplicate-events",
            FaultClass::ReorderEvents => "reorder-events",
            FaultClass::TruncateStreams => "truncate-streams",
            FaultClass::CorruptSloNames => "corrupt-slo-names",
            FaultClass::OrphanLifecycles => "orphan-lifecycles",
        };
        f.write_str(name)
    }
}

/// Per-kind fault rates driving a [`FaultInjector`]. All rates are
/// probabilities in `[0, 1]`; the default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Drop rate for `Created` events (implicitly orphans the rest of
    /// that database's stream).
    pub drop_created: f64,
    /// Drop rate for `SizeSample` events.
    pub drop_size: f64,
    /// Drop rate for `UtilizationSample` events.
    pub drop_utilization: f64,
    /// Drop rate for `SloChanged` events.
    pub drop_slo_changed: f64,
    /// Drop rate for `Dropped` events (the database then looks alive).
    pub drop_dropped: f64,
    /// Probability an event is delivered twice.
    pub duplicate: f64,
    /// Probability an event is displaced from its arrival slot.
    pub reorder: f64,
    /// Maximum displacement distance (arrival slots) for reordering.
    pub reorder_window: usize,
    /// Probability a database's stream is truncated mid-life.
    pub truncate: f64,
    /// Probability an SLO-carrying event gets a corrupt label.
    pub corrupt_slo: f64,
    /// Probability a database loses its `Created` event (orphaned
    /// lifecycle; an explicit alias for targeting only creations).
    pub orphan: f64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_created: 0.0,
            drop_size: 0.0,
            drop_utilization: 0.0,
            drop_slo_changed: 0.0,
            drop_dropped: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_window: 16,
            truncate: 0.0,
            corrupt_slo: 0.0,
            orphan: 0.0,
        }
    }

    /// A plan exercising exactly one fault class at `rate` — the unit
    /// the degradation sweep ladders over.
    pub fn single(class: FaultClass, rate: f64, seed: u64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "fault rate out of range");
        let mut plan = FaultPlan::none(seed);
        match class {
            FaultClass::DropSamples => {
                plan.drop_size = rate;
                plan.drop_utilization = rate;
            }
            FaultClass::DuplicateEvents => plan.duplicate = rate,
            FaultClass::ReorderEvents => plan.reorder = rate,
            FaultClass::TruncateStreams => plan.truncate = rate,
            FaultClass::CorruptSloNames => plan.corrupt_slo = rate,
            FaultClass::OrphanLifecycles => plan.orphan = rate,
        }
        plan
    }

    fn validate(&self) {
        for (name, rate) in [
            ("drop_created", self.drop_created),
            ("drop_size", self.drop_size),
            ("drop_utilization", self.drop_utilization),
            ("drop_slo_changed", self.drop_slo_changed),
            ("drop_dropped", self.drop_dropped),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("truncate", self.truncate),
            ("corrupt_slo", self.corrupt_slo),
            ("orphan", self.orphan),
        ] {
            assert!(
                (0.0..=1.0).contains(&rate),
                "{name} rate {rate} out of [0, 1]"
            );
        }
    }
}

/// What an injection pass actually did — useful for asserting fault
/// coverage in tests and reporting sweep intensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// Events in the input stream.
    pub events_in: usize,
    /// Events in the perturbed stream.
    pub events_out: usize,
    /// Events removed by per-kind drop rates.
    pub dropped_events: usize,
    /// Events delivered twice.
    pub duplicated_events: usize,
    /// Events displaced from their arrival slot.
    pub reordered_events: usize,
    /// Events whose SLO label was corrupted.
    pub corrupted_slos: usize,
    /// Databases whose stream was truncated mid-life.
    pub truncated_databases: usize,
    /// Events removed by truncation.
    pub truncated_events: usize,
    /// Databases whose `Created` event was removed.
    pub orphaned_databases: usize,
}

impl FaultSummary {
    /// Accumulates another summary's tallies into this one — the
    /// streaming pipeline injects faults per subscription stream and
    /// merges the summaries.
    pub fn absorb(&mut self, other: &FaultSummary) {
        self.events_in += other.events_in;
        self.events_out += other.events_out;
        self.dropped_events += other.dropped_events;
        self.duplicated_events += other.duplicated_events;
        self.reordered_events += other.reordered_events;
        self.corrupted_slos += other.corrupted_slos;
        self.truncated_databases += other.truncated_databases;
        self.truncated_events += other.truncated_events;
        self.orphaned_databases += other.orphaned_databases;
    }
}

/// One database's injection state within a stream.
struct DbFaults {
    db_id: u64,
    /// Events of the database in the input stream.
    total: u64,
    /// Events of the database walked so far: the next event's ordinal.
    seen: u64,
    /// The database loses its `Created` event.
    orphaned: bool,
    /// Ordinal from which the database's events are cut, if truncated.
    truncation_cut: Option<u64>,
}

/// Applies a [`FaultPlan`] to event streams, reproducibly.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

/// Hashes a decision key — the mixing core of every decision.
fn key_hash(seed: u64, db_id: u64, ordinal: u64, salt: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ salt).wrapping_add(db_id)).wrapping_add(ordinal))
}

/// Hashes a decision key into a uniform `[0, 1)` draw.
fn unit(seed: u64, db_id: u64, ordinal: u64, salt: u64) -> f64 {
    (key_hash(seed, db_id, ordinal, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Hashes a decision key into an index in `[0, n)`.
fn pick(seed: u64, db_id: u64, ordinal: u64, salt: u64, n: usize) -> usize {
    (key_hash(seed, db_id, ordinal, salt) % n as u64) as usize
}

/// Deterministically corrupts a byte buffer in place: each of the
/// `count` picks XORs a hash-chosen nonzero mask into a hash-chosen
/// position. Reuses the splitmix64 decision scheme, so the same
/// `(seed, count, buf.len())` always corrupts the same bytes — the
/// robustness tests for the on-disk model format lean on this to
/// enumerate reproducible corruption cases. A no-op on empty buffers.
pub fn flip_bytes(buf: &mut [u8], count: usize, seed: u64) {
    if buf.is_empty() {
        return;
    }
    for k in 0..count as u64 {
        let pos = pick(seed, k, 0, SALT_FLIP_POS, buf.len());
        let mask = (splitmix64(splitmix64(seed ^ SALT_FLIP_MASK).wrapping_add(k)) % 255 + 1) as u8;
        buf[pos] ^= mask;
    }
}

// Decision salts: one namespace per fault kind.
const SALT_FLIP_POS: u64 = 0xF11B;
const SALT_FLIP_MASK: u64 = 0xF11C;
const SALT_DROP: u64 = 0xD809;
const SALT_DUP: u64 = 0xD0B1;
const SALT_REORDER: u64 = 0x5EA7;
const SALT_TRUNCATE: u64 = 0x7A11;
const SALT_TRUNCATE_AT: u64 = 0x7A12;
const SALT_CORRUPT: u64 = 0xC0DE;
const SALT_CORRUPT_PICK: u64 = 0xC0DF;
const SALT_ORPHAN: u64 = 0x0F0A;

impl FaultInjector {
    /// Creates an injector; panics if any plan rate is outside `[0, 1]`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        plan.validate();
        FaultInjector { plan }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Perturbs `stream` according to the plan. The output preserves
    /// the faulted *arrival* order (it is not re-sorted), so reordering
    /// faults survive into ingestion.
    pub fn inject(&self, stream: &EventStream) -> (EventStream, FaultSummary) {
        let _span = obs::span!("inject_faults");
        let plan = &self.plan;
        let mut summary = FaultSummary {
            events_in: stream.len(),
            ..FaultSummary::default()
        };

        // Per-database decisions need per-database event counts first.
        // One dense index per stream: each database's slot is its rank
        // among the stream's distinct ids, and each event's slot is kept
        // for the second pass.
        let events = stream.events();
        let mut ids: Vec<u64> = events.iter().map(|(_, event)| event.db_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut dbs: Vec<DbFaults> = ids
            .iter()
            .map(|&db_id| DbFaults {
                db_id,
                total: 0,
                seen: 0,
                orphaned: false,
                truncation_cut: None,
            })
            .collect();
        let mut slots: Vec<usize> = Vec::with_capacity(events.len());
        for (_, event) in events {
            let slot = ids
                .binary_search(&event.db_id())
                .expect("every id is indexed");
            dbs[slot].total += 1;
            slots.push(slot);
        }

        // Lifecycle-level choices: orphaned and truncated databases.
        for db in &mut dbs {
            let db_id = db.db_id;
            db.orphaned = plan.orphan > 0.0 && unit(plan.seed, db_id, 0, SALT_ORPHAN) < plan.orphan;
            if plan.truncate > 0.0
                && db.total > 1
                && unit(plan.seed, db_id, 0, SALT_TRUNCATE) < plan.truncate
            {
                // Cut somewhere in the middle 25–75% of the stream so
                // the creation survives but the tail (often including
                // the drop event) is lost.
                let f = 0.25 + 0.5 * unit(plan.seed, db_id, 0, SALT_TRUNCATE_AT);
                db.truncation_cut = Some(1 + ((db.total - 1) as f64 * f) as u64);
                summary.truncated_databases += 1;
            }
        }

        // Event-level pass: drops, truncation, corruption, duplication.
        let mut out: Vec<(simtime::Timestamp, TelemetryEvent)> = Vec::with_capacity(stream.len());
        for ((at, event), &slot) in events.iter().zip(&slots) {
            let db = &mut dbs[slot];
            let db_id = db.db_id;
            let ord = db.seen;
            db.seen += 1;

            if db.orphaned && matches!(event, TelemetryEvent::Created { .. }) {
                summary.orphaned_databases += 1;
                continue;
            }
            if db.truncation_cut.is_some_and(|cut| ord >= cut) {
                summary.truncated_events += 1;
                continue;
            }
            let drop_rate = match event {
                TelemetryEvent::Created { .. } => plan.drop_created,
                TelemetryEvent::SizeSample { .. } => plan.drop_size,
                TelemetryEvent::UtilizationSample { .. } => plan.drop_utilization,
                TelemetryEvent::SloChanged { .. } => plan.drop_slo_changed,
                TelemetryEvent::Dropped { .. } => plan.drop_dropped,
            };
            if drop_rate > 0.0 && unit(plan.seed, db_id, ord, SALT_DROP) < drop_rate {
                summary.dropped_events += 1;
                continue;
            }

            let mut event = event.clone();
            if plan.corrupt_slo > 0.0
                && event.slo_name().is_some()
                && unit(plan.seed, db_id, ord, SALT_CORRUPT) < plan.corrupt_slo
            {
                let name = CORRUPT_SLO_NAMES[pick(
                    plan.seed,
                    db_id,
                    ord,
                    SALT_CORRUPT_PICK,
                    CORRUPT_SLO_NAMES.len(),
                )];
                event.set_slo_name(name);
                summary.corrupted_slos += 1;
            }

            if plan.duplicate > 0.0 && unit(plan.seed, db_id, ord, SALT_DUP) < plan.duplicate {
                summary.duplicated_events += 1;
                out.push((*at, event.clone()));
            }
            out.push((*at, event));
        }

        // Arrival-order scrambling: displace selected events forward by
        // a bounded, hash-chosen distance. Timestamps travel with their
        // events, so the stream becomes genuinely out of order.
        if plan.reorder > 0.0 && out.len() > 1 {
            let window = plan.reorder_window.max(1);
            for i in 0..out.len() {
                if unit(plan.seed, i as u64, 0, SALT_REORDER) < plan.reorder {
                    let dist = 1 + pick(plan.seed, i as u64, 0, SALT_REORDER, window);
                    let j = (i + dist).min(out.len() - 1);
                    if i != j {
                        out.swap(i, j);
                        summary.reordered_events += 1;
                    }
                }
            }
        }

        summary.events_out = out.len();
        if obs::enabled() {
            obs::count_many(&[
                ("faults.injections_run", 1),
                ("faults.events_in", summary.events_in as u64),
                ("faults.events_out", summary.events_out as u64),
                ("faults.events_dropped", summary.dropped_events as u64),
                ("faults.events_duplicated", summary.duplicated_events as u64),
                ("faults.events_reordered", summary.reordered_events as u64),
                ("faults.slos_corrupted", summary.corrupted_slos as u64),
                (
                    "faults.databases_truncated",
                    summary.truncated_databases as u64,
                ),
                ("faults.events_truncated", summary.truncated_events as u64),
                (
                    "faults.databases_orphaned",
                    summary.orphaned_databases as u64,
                ),
            ]);
        }
        (EventStream::from_events_unsorted(out), summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{Fleet, FleetConfig};
    use crate::region::RegionConfig;

    fn stream() -> EventStream {
        let f = Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.02), 77));
        EventStream::of_fleet(&f)
    }

    #[test]
    fn null_plan_is_identity() {
        let s = stream();
        let (out, summary) = FaultInjector::new(FaultPlan::none(1)).inject(&s);
        assert_eq!(out.events(), s.events());
        assert_eq!(summary.events_in, summary.events_out);
        assert_eq!(summary.dropped_events, 0);
    }

    #[test]
    fn same_seed_same_output() {
        let s = stream();
        let plan = FaultPlan {
            drop_size: 0.2,
            duplicate: 0.1,
            reorder: 0.1,
            corrupt_slo: 0.05,
            truncate: 0.1,
            orphan: 0.02,
            ..FaultPlan::none(99)
        };
        let (a, sa) = FaultInjector::new(plan).inject(&s);
        let (b, sb) = FaultInjector::new(plan).inject(&s);
        assert_eq!(a.events(), b.events());
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seed_differs() {
        let s = stream();
        let (a, _) =
            FaultInjector::new(FaultPlan::single(FaultClass::DropSamples, 0.3, 1)).inject(&s);
        let (b, _) =
            FaultInjector::new(FaultPlan::single(FaultClass::DropSamples, 0.3, 2)).inject(&s);
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn drop_rate_scales_losses() {
        let s = stream();
        let sizes = s.count_where(|e| matches!(e, TelemetryEvent::SizeSample { .. }));
        let (_, summary) =
            FaultInjector::new(FaultPlan::single(FaultClass::DropSamples, 0.5, 7)).inject(&s);
        // Half the size+utilization samples, within loose tolerance.
        assert!(summary.dropped_events > sizes / 2);
        assert!(summary.events_out < summary.events_in);
    }

    #[test]
    fn corruption_introduces_unknown_slos() {
        let s = stream();
        let (out, summary) =
            FaultInjector::new(FaultPlan::single(FaultClass::CorruptSloNames, 0.5, 7)).inject(&s);
        assert!(summary.corrupted_slos > 0);
        let corrupt = out.count_where(
            |e| matches!(e, TelemetryEvent::Created { slo, .. } if CORRUPT_SLO_NAMES.contains(slo)),
        );
        assert!(corrupt > 0);
    }

    #[test]
    fn reorder_breaks_time_order_but_keeps_multiset() {
        let s = stream();
        let (out, summary) =
            FaultInjector::new(FaultPlan::single(FaultClass::ReorderEvents, 0.3, 7)).inject(&s);
        assert!(summary.reordered_events > 0);
        assert_eq!(out.len(), s.len());
        let unsorted = out.events().windows(2).any(|w| w[0].0 > w[1].0);
        assert!(unsorted, "expected at least one inversion");
    }

    #[test]
    fn orphan_removes_creates_only() {
        let s = stream();
        let (out, summary) =
            FaultInjector::new(FaultPlan::single(FaultClass::OrphanLifecycles, 0.5, 7)).inject(&s);
        assert!(summary.orphaned_databases > 0);
        let creates_in = s.count_where(|e| matches!(e, TelemetryEvent::Created { .. }));
        let creates_out = out.count_where(|e| matches!(e, TelemetryEvent::Created { .. }));
        assert_eq!(creates_in - creates_out, summary.orphaned_databases);
        assert_eq!(s.len() - out.len(), summary.orphaned_databases);
    }

    #[test]
    fn flip_bytes_is_deterministic_and_bounded() {
        let clean: Vec<u8> = (0u8..=255).cycle().take(4096).collect();

        let mut a = clean.clone();
        let mut b = clean.clone();
        flip_bytes(&mut a, 16, 7);
        flip_bytes(&mut b, 16, 7);
        assert_eq!(a, b, "same seed must corrupt the same bytes");
        assert_ne!(a, clean, "a nonzero mask always changes the buffer");

        let mut c = clean.clone();
        flip_bytes(&mut c, 16, 8);
        assert_ne!(a, c, "different seeds should corrupt differently");

        // At most `count` positions change (fewer if picks collide).
        let changed = a.iter().zip(&clean).filter(|(x, y)| x != y).count();
        assert!((1..=16).contains(&changed), "changed {changed} bytes");

        // Degenerate inputs are no-ops, never panics.
        flip_bytes(&mut [], 10, 1);
        let mut untouched = clean.clone();
        flip_bytes(&mut untouched, 0, 1);
        assert_eq!(untouched, clean);
    }

    #[test]
    fn truncation_preserves_creates() {
        let s = stream();
        let (out, summary) =
            FaultInjector::new(FaultPlan::single(FaultClass::TruncateStreams, 0.6, 7)).inject(&s);
        assert!(summary.truncated_databases > 0);
        assert!(summary.truncated_events > 0);
        let creates_in = s.count_where(|e| matches!(e, TelemetryEvent::Created { .. }));
        let creates_out = out.count_where(|e| matches!(e, TelemetryEvent::Created { .. }));
        assert_eq!(creates_in, creates_out);
    }
}
