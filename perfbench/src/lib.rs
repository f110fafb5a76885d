//! survdb's benchmark: four seeded workloads, each driving the
//! system's layers through their public APIs, with end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one.
//!
//! - `fleet` — streaming generate → faults → ingest → featurize.
//! - `study` — the paper's nine (region × edition) panels.
//! - `score` — offline kernel scoring and provisioning decisions.
//! - `serve` — open-loop `/score` load against an in-process daemon.

mod fleet;
pub mod report;
mod score;
mod serve;
mod study;

use report::Outcome;
use std::path::PathBuf;

/// Each workload's name and the one-sentence reason it exists, as
/// `BENCHMARK.json` records them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "fleet",
        "streams generate, fault injection, lenient ingest and featurize over ~100k databases; telemetry and features do nearly all the work, and faults force ingest's repair paths",
    ),
    (
        "study",
        "the paper's nine region x edition panels: Kaplan-Meier, log-rank, datasets and the grid-searched forest experiment, where forest training dominates",
    ),
    (
        "score",
        "offline flat-kernel scoring, policy decisions and cost sweeps over four what-if cohorts; the only workload where the kernel and policy layer dominate",
    ),
    (
        "serve",
        "open-loop seeded Poisson /score load on an in-process survd; the only workload through http, wire, queue and batcher, timed from each request's due time",
    ),
];

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    /// Seed every input derives from.
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    /// Per-layer run with an `obs` registry installed, instead of the
    /// end-to-end run.
    pub trace: bool,
    /// Worker threads: the forest thread limit, the daemon's workers
    /// and the serving client's sender threads.
    pub threads: usize,
    /// Scratch directory for persisted models.
    pub work_dir: PathBuf,
}

/// Workload sizes: `full` for measurement, `tiny` for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured size.
    Full,
    /// A few seconds in total, for smoke tests.
    Tiny,
}

/// Runs the named workload; `None` for an unknown name.
pub fn run_workload(name: &str, run: &Run, size: Size) -> Option<Outcome> {
    let full = size == Size::Full;
    Some(match name {
        "fleet" => fleet::run(
            run,
            &if full {
                fleet::Config::full()
            } else {
                fleet::Config::tiny()
            },
        ),
        "study" => study::run(
            run,
            &if full {
                study::Config::full()
            } else {
                study::Config::tiny()
            },
        ),
        "score" => score::run(
            run,
            &if full {
                score::Config::full()
            } else {
                score::Config::tiny()
            },
        ),
        "serve" => serve::run(
            run,
            &if full {
                serve::Config::full()
            } else {
                serve::Config::tiny()
            },
        ),
        _ => return None,
    })
}

/// The machine a result was measured on: core count and CPU model.
pub fn machine() -> (usize, String) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (cores, model)
}
