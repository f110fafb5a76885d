//! `faultsweep` — the end-to-end degradation sweep.
//!
//! ```text
//! cargo run -p bench --release --bin faultsweep -- [flags]
//! ```
//!
//! Flags: [`bench::cli::FAULTSWEEP`]. Injects every fault class at a
//! ladder of rates into a region-1 fleet's telemetry, recovers records
//! through the lenient ingest path, re-runs the §5 classification
//! protocol on each recovered population, and writes accuracy /
//! precision / recall deltas against the clean baseline to
//! `artifacts/robustness.json`. The output is byte-deterministic in
//! `(scale, seed, rates)`.

use bench::cli;
use std::fs;
use std::path::Path;
use survdb::degradation::{run_degradation_sweep, DegradationConfig};

fn main() {
    let args = cli::parse_or_exit(&cli::FAULTSWEEP);
    let d = DegradationConfig::default();
    let config = DegradationConfig {
        scale: args.float("--scale").unwrap_or(d.scale),
        seed: args.u64("--seed").unwrap_or(d.seed),
        fault_rates: args.floats("--rates").unwrap_or(d.fault_rates),
        ..d
    };
    let out = args.text("--out").unwrap_or("artifacts/robustness.json");

    // Record spans/counters/events for the whole run; Info events keep
    // echoing to stderr as the un-instrumented binary's prints did.
    let registry = obs::Registry::with_stderr_level(obs::Level::Info);
    let _trace = registry.install();
    obs::info!(
        "faultsweep",
        "scale {} seed {} — {} classes x {} rates",
        config.scale,
        config.seed,
        config.classes.len(),
        config.fault_rates.len()
    );

    let report = run_degradation_sweep(&config).unwrap_or_else(|e| cli::fail("faultsweep", e));

    for cell in &report.cells {
        let delta = cell
            .delta
            .map_or("skipped (population too small)".to_string(), |d| {
                format!(
                    "Δacc {:+.3} Δprec {:+.3} Δrec {:+.3}",
                    d.accuracy, d.precision, d.recall
                )
            });
        obs::info!(
            "faultsweep",
            "  {:>18} @ {:<4} recovered {:>5} quarantined {:>4}  {delta}",
            cell.class.to_string(),
            cell.rate,
            cell.ingest.databases_recovered,
            cell.ingest.databases_quarantined,
        );
    }

    let artifact_dir = Path::new(out)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or_else(|| Path::new("."));
    fs::create_dir_all(artifact_dir).expect("create output directory");
    fs::write(out, report.to_json()).expect("write robustness report");
    obs::info!(
        "faultsweep",
        "baseline acc {:.3} — wrote {out}",
        report.baseline.accuracy
    );
    bench::finish_trace(&registry, "faultsweep", artifact_dir);
}
