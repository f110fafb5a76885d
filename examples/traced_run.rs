//! Observability end to end: install an `obs` registry, run a small
//! prediction experiment, and print the span tree, counter table, and
//! structured event log the run produced — the same data the `repro`,
//! `faultsweep`, and `scored` binaries persist to
//! `artifacts/run_trace.json`.
//!
//! ```text
//! cargo run --release -p survdb-core --example traced_run
//! ```

use survdb::experiment::{Experiment, ExperimentConfig, GridPreset};
use telemetry::{Census, Fleet, FleetConfig, RegionConfig};

fn main() {
    // Every span, counter, and event below lands in this registry; the
    // guard uninstalls it when dropped. `Registry::new()` echoes only
    // Warn+ events to stderr, so the example's stdout stays clean.
    let registry = obs::Registry::new();
    let guard = registry.install();

    // A small fleet through the full §5 pipeline: census, feature
    // extraction, repeated train/test splits, forest fits.
    let fleet = Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.1), 7));
    let census = Census::new(&fleet);
    let experiment = Experiment::new(ExperimentConfig {
        repetitions: 3,
        grid: GridPreset::Off,
        ..ExperimentConfig::default()
    });
    let result = experiment.run(&census, None);
    println!(
        "experiment done: {} databases, forest accuracy {:.3}\n",
        result.population, result.forest.accuracy
    );

    drop(guard);
    let snapshot = registry.snapshot();

    // The hierarchical span tree: slash-joined paths, call counts,
    // total/mean wall time, and how many distinct threads entered each
    // span (repetitions fan out over the parallel work queue).
    println!("spans:");
    print!("{}", survdb::report::phase_table(&snapshot));

    // Typed counters flushed by the instrumented layers: tree builds,
    // node expansions, split scans, free-list reuse,
    // out-of-bag tallies, CV folds, feature rows.
    println!("\ncounters:");
    print!("{}", survdb::report::counter_table(&snapshot));

    // The structured event log that replaced ad-hoc stderr prints:
    // every record carries a sequence number, level, and target.
    println!("\nevents:");
    if snapshot.events.is_empty() {
        println!("  (no events recorded)");
    }
    for event in &snapshot.events {
        println!(
            "  #{} [{} {}] {}",
            event.seq, event.level, event.target, event.message
        );
    }
}
