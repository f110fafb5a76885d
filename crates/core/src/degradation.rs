//! End-to-end robustness: how §5 prediction quality degrades as
//! telemetry quality degrades.
//!
//! The paper's models are trained on production telemetry, which is
//! lossy in practice. This module quantifies the cost: it injects each
//! fault class from [`telemetry::faults`] into a fleet's event stream
//! at a ladder of rates, recovers records through the lenient ingest
//! path, re-runs the §5 classification protocol on the recovered
//! population, and reports accuracy / precision / recall deltas
//! against the clean baseline. The `faultsweep` binary in
//! `crates/bench` renders the result as `artifacts/robustness.json`.

use crate::experiment::{Experiment, ExperimentConfig, ExperimentError, GridPreset};
use forest::parallel::run_units;
use forest::ClassificationScores;
use obs::jsonv::push_f64;
use telemetry::{
    reconstruct_records_lenient, Census, EventStream, FaultClass, FaultInjector, FaultPlan,
    FaultSummary, Fleet, FleetConfig, IngestReport, RegionConfig,
};

/// Configuration of a degradation sweep.
#[derive(Debug, Clone)]
pub struct DegradationConfig {
    /// Region-1 population scale (the §5 protocol needs ≥ 40 usable
    /// examples per cell, so keep this well above test scales).
    pub scale: f64,
    /// Seed for fleet generation and every fault plan.
    pub seed: u64,
    /// The fault-rate ladder, applied to every fault class.
    pub fault_rates: Vec<f64>,
    /// Fault classes to sweep.
    pub classes: Vec<FaultClass>,
    /// The §5 protocol configuration shared by every cell.
    pub experiment: ExperimentConfig,
}

impl Default for DegradationConfig {
    fn default() -> DegradationConfig {
        DegradationConfig {
            scale: 0.12,
            seed: 2018,
            fault_rates: vec![0.05, 0.15, 0.30],
            classes: FaultClass::ALL.to_vec(),
            // Two repetitions without tuning keep the full
            // (classes × rates) sweep tractable while preserving the
            // protocol's split/train/score structure.
            experiment: ExperimentConfig {
                repetitions: 2,
                grid: GridPreset::Off,
                ..ExperimentConfig::default()
            },
        }
    }
}

/// The score triple the sweep tracks per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scores {
    /// Correct classification rate.
    pub accuracy: f64,
    /// Positive predictive value.
    pub precision: f64,
    /// True positive rate.
    pub recall: f64,
}

impl Scores {
    fn of(s: &ClassificationScores) -> Scores {
        Scores {
            accuracy: s.accuracy,
            precision: s.precision,
            recall: s.recall,
        }
    }

    fn delta(self, baseline: Scores) -> Scores {
        Scores {
            accuracy: self.accuracy - baseline.accuracy,
            precision: self.precision - baseline.precision,
            recall: self.recall - baseline.recall,
        }
    }
}

/// One (fault class × rate) cell of the sweep.
#[derive(Debug, Clone)]
pub struct DegradationCell {
    /// Fault class injected.
    pub class: FaultClass,
    /// Fault rate injected.
    pub rate: f64,
    /// What the injector did to the stream.
    pub faults: FaultSummary,
    /// What lenient ingest did to recover it.
    pub ingest: IngestReport,
    /// §5 scores on the recovered population; `None` when the cell's
    /// population was too small to evaluate.
    pub scores: Option<Scores>,
    /// `scores - baseline`; `None` when `scores` is.
    pub delta: Option<Scores>,
}

/// A full degradation sweep: clean baseline plus every cell.
#[derive(Debug, Clone)]
pub struct RobustnessReport {
    /// Population scale swept.
    pub scale: f64,
    /// Seed for fleet and fault plans.
    pub seed: u64,
    /// Databases in the clean recovered population.
    pub population: usize,
    /// §5 scores on the clean (fault-free, leniently ingested) fleet.
    pub baseline: Scores,
    /// One cell per (class × rate), classes outermost.
    pub cells: Vec<DegradationCell>,
}

/// Runs the sweep. Errors only when the *clean* population is too
/// small to evaluate — degraded cells that shrink below the floor are
/// reported as cells with `scores: None` instead.
pub fn run_degradation_sweep(
    config: &DegradationConfig,
) -> Result<RobustnessReport, ExperimentError> {
    let _span = obs::span!("degradation_sweep");
    let fleet = Fleet::generate(FleetConfig::new(
        RegionConfig::region_1().scaled(config.scale),
        config.seed,
    ));
    let stream = EventStream::of_fleet(&fleet);
    let experiment = Experiment::new(config.experiment.clone());

    // Clean baseline goes through the same lenient path as the cells
    // so the comparison isolates the faults, not the ingest mode.
    let (clean_records, clean_report) = reconstruct_records_lenient(&stream);
    debug_assert!(clean_report.is_clean(), "clean stream needed repairs");
    let clean_fleet = recovered_fleet(&fleet, clean_records);
    let baseline_result = experiment.try_run(&Census::new(&clean_fleet), None)?;
    let baseline = Scores::of(&baseline_result.forest);

    // Cells are independent given (class, rate): each derives its own
    // fault plan from the shared seed, so they can run on the work
    // queue and still land in deterministic (classes outermost) order.
    let grid: Vec<(FaultClass, f64)> = config
        .classes
        .iter()
        .flat_map(|&class| config.fault_rates.iter().map(move |&rate| (class, rate)))
        .collect();
    let cells = run_units(grid.len(), |unit| {
        let _span = obs::span!("cell");
        let (class, rate) = grid[unit];
        let injector = FaultInjector::new(FaultPlan::single(class, rate, config.seed));
        let (faulted, faults) = injector.inject(&stream);
        let (records, ingest) = reconstruct_records_lenient(&faulted);
        let cell_fleet = recovered_fleet(&fleet, records);
        let scores = experiment
            .try_run(&Census::new(&cell_fleet), None)
            .ok()
            .map(|r| Scores::of(&r.forest));
        DegradationCell {
            class,
            rate,
            faults,
            ingest,
            delta: scores.map(|s| s.delta(baseline)),
            scores,
        }
    });

    obs::count("core.degradation_cells", cells.len() as u64);
    Ok(RobustnessReport {
        scale: config.scale,
        seed: config.seed,
        population: clean_fleet.databases.len(),
        baseline,
        cells,
    })
}

/// A fleet with the generated config and subscriptions but recovered
/// records — what the downstream pipeline sees after degraded ingest.
fn recovered_fleet(original: &Fleet, databases: Vec<telemetry::DatabaseRecord>) -> Fleet {
    Fleet {
        config: original.config.clone(),
        subscriptions: original.subscriptions.clone(),
        databases,
    }
}

// --- deterministic JSON rendering -----------------------------------
//
// The acceptance bar is byte-determinism: same seed ⇒ same
// `robustness.json`. Rust's shortest-roundtrip f64 Display is
// deterministic across platforms, so the report renders itself rather
// than depending on a serializer's map ordering or float formatting.
// Its single-line cells keep their own layout; floats go through the
// workspace's one float rule.

fn push_scores(out: &mut String, s: &Scores) {
    out.push_str("{\"accuracy\": ");
    push_f64(out, s.accuracy);
    out.push_str(", \"precision\": ");
    push_f64(out, s.precision);
    out.push_str(", \"recall\": ");
    push_f64(out, s.recall);
    out.push('}');
}

impl RobustnessReport {
    /// Renders the report as deterministic, pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"scale\": {},\n", {
            let mut s = String::new();
            push_f64(&mut s, self.scale);
            s
        }));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"population\": {},\n", self.population));
        out.push_str("  \"baseline\": ");
        push_scores(&mut out, &self.baseline);
        out.push_str(",\n  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"class\": \"{}\", ", cell.class));
            out.push_str("\"rate\": ");
            push_f64(&mut out, cell.rate);
            out.push_str(&format!(
                ", \"events_in\": {}, \"events_out\": {}, \"injected\": {}",
                cell.faults.events_in,
                cell.faults.events_out,
                cell.faults.dropped_events
                    + cell.faults.duplicated_events
                    + cell.faults.reordered_events
                    + cell.faults.corrupted_slos
                    + cell.faults.truncated_events
                    + cell.faults.orphaned_databases,
            ));
            out.push_str(&format!(
                ", \"recovered\": {}, \"quarantined\": {}, \"repairs\": {}, \"discarded\": {}",
                cell.ingest.databases_recovered,
                cell.ingest.databases_quarantined,
                cell.ingest.repairs.total(),
                cell.ingest.events_discarded,
            ));
            out.push_str(", \"scores\": ");
            match &cell.scores {
                Some(s) => push_scores(&mut out, s),
                None => out.push_str("null"),
            }
            out.push_str(", \"delta\": ");
            match &cell.delta {
                Some(s) => push_scores(&mut out, s),
                None => out.push_str("null"),
            }
            out.push('}');
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> DegradationConfig {
        DegradationConfig {
            scale: 0.12,
            seed: 7,
            fault_rates: vec![0.2],
            classes: vec![FaultClass::DropSamples],
            ..DegradationConfig::default()
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let config = tiny_config();
        let a = run_degradation_sweep(&config).unwrap();
        let b = run_degradation_sweep(&config).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn sweep_reports_baseline_and_cells() {
        let report = run_degradation_sweep(&tiny_config()).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert!(report.population >= 40);
        assert!(report.baseline.accuracy > 0.0);
        let cell = &report.cells[0];
        assert!(cell.faults.dropped_events > 0);
        let json = report.to_json();
        assert!(json.contains("\"class\": \"drop-samples\""));
        assert!(json.contains("\"baseline\""));
    }
}
