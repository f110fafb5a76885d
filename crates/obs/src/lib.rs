//! Observability for the survdb pipeline: hierarchical span timers,
//! typed counters/gauges, and a structured event log, all feeding a
//! deterministic run trace (`artifacts/run_trace.json`).
//!
//! # Design
//!
//! The [`Registry`] is *global-free*: callers create one, read it, and
//! drop it — nothing is allocated at process start and no state
//! outlives the owner. Deeply nested library code (tree growing, fold
//! evaluation, ingest repair) still needs somewhere to report without
//! threading a handle through every signature, so a registry can be
//! *installed* into a process-wide slot for a scope
//! ([`Registry::install`]); instrumentation points consult the slot
//! through one relaxed atomic load. With no registry installed every
//! probe is a load-and-branch — near-zero cost, verified by the
//! `bench_model_selection` Criterion comparison.
//!
//! # Determinism
//!
//! Everything the pipeline *does* is deterministic in its inputs
//! (seeded RNG streams, `forest::parallel::run_units` index-slotted
//! work queues), so counts of work done — rows repaired, nodes
//! expanded, folds completed, spans entered — are identical across
//! runs and thread counts. Wall-clock time is not. The run trace
//! therefore splits into a `deterministic` section (counters, gauges,
//! span counts, event counts) that must be byte-identical run to run,
//! and a `nondeterministic` section (span timings, thread attribution,
//! the raw event log) that may vary. Span identity is the `/`-joined
//! lexical path of nested [`span!`] guards; [`SpanPath`] lets a work
//! queue propagate the submitting thread's path onto worker threads so
//! paths, too, are thread-count invariant.
//!
//! The serving layer adds two streaming primitives on top:
//! [`sketch::Sketch`] (a mergeable log-spaced fixed-bucket
//! histogram/quantile sketch, registered by name through [`observe`]
//! and rendered by [`render_metrics`]) and [`drift::DriftMonitor`]
//! (reference-vs-live prediction-score histograms with a
//! deterministic total-variation divergence). Sketch *values* are
//! wall-clock; observation *counts* follow the same determinism
//! contract as counters.

pub mod artifact;
pub mod drift;
pub mod event;
pub mod jsonv;
pub mod registry;
pub mod render;
pub mod sketch;
pub mod span;
pub mod trace;

pub use drift::{score_bucket, DriftMonitor, DriftSnapshot, DRIFT_BUCKETS};
pub use event::{event, event_with, Level};
pub use registry::{
    count, count_many, enabled, gauge, observe, observe_n, EventRecord, InstallGuard, Registry,
    Snapshot, SpanSnapshot,
};
pub use render::render_metrics;
pub use sketch::{Sketch, SKETCH_BUCKETS};
pub use span::{enter_span, SpanGuard, SpanPath};

/// Opens a hierarchical span: `let _span = obs::span!("grid_search");`.
///
/// The span closes when the guard drops; elapsed time and the nesting
/// path accumulate in the installed registry (no-op when none is).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::enter_span($name)
    };
}

/// Records a debug-level structured event.
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)+) => {
        $crate::event_with($crate::Level::Debug, $target, || format!($($arg)+))
    };
}

/// Records an info-level structured event (echoed to stderr when no
/// registry is installed).
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)+) => {
        $crate::event_with($crate::Level::Info, $target, || format!($($arg)+))
    };
}

/// Records a warn-level structured event (echoed to stderr).
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)+) => {
        $crate::event_with($crate::Level::Warn, $target, || format!($($arg)+))
    };
}

/// Records an error-level structured event (echoed to stderr).
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)+) => {
        $crate::event_with($crate::Level::Error, $target, || format!($($arg)+))
    };
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Registry installation is process-global; obs tests that install
    //! serialize on this lock.
    pub(crate) static INSTALL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}
