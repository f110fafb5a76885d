//! `study`: the paper's nine (region × edition) panels — load the
//! study, fit Kaplan–Meier and run the log-rank test per subgroup,
//! build each panel's dataset and run the §5 experiment on it.
//!
//! Set-up is `Study::load`, which generates and materializes the three
//! regions' fleets. One operation is one panel; one pass is all nine.
//! The end-to-end metrics are panels per second and the per-panel
//! latency.

use crate::report::{self, LayerClock, Outcome};
use crate::Run;
use features::{FeatureConfig, FeatureExtractor};
use std::time::Instant;
use survdb::experiment::{Experiment, ExperimentConfig, GridPreset};
use survdb::study::{Study, StudyConfig};
use survival::{logrank_test, KaplanMeier, SurvivalData};
use telemetry::{Edition, RegionId};

/// Experiment repetitions per panel.
const REPETITIONS: usize = 1;

/// Size of the study.
#[derive(Debug, Clone)]
pub struct Config {
    /// Population scale; 1.0 is about 45k databases.
    pub scale: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Config {
    /// The paper's panels at scale 1 with one repetition each.
    pub fn full() -> Config {
        Config {
            scale: 1.0,
            setups: 5,
        }
    }

    /// Small panels, for smoke tests.
    pub fn tiny() -> Config {
        Config {
            scale: 0.3,
            setups: 1,
        }
    }
}

/// One panel's deterministic outcome.
#[derive(Debug, Clone, PartialEq)]
struct Panel {
    label: String,
    accuracy: f64,
    baseline_accuracy: f64,
    confident_accuracy: f64,
    km_median: Option<f64>,
    logrank_p: f64,
}

struct Pass {
    wall_ms: f64,
    panel_ms: Vec<f64>,
    panels: Vec<Panel>,
    rows: usize,
}

fn run_pass(study: &Study, seed: u64, clock: &mut LayerClock) -> Pass {
    let start = Instant::now();
    let experiment = ExperimentConfig {
        repetitions: REPETITIONS,
        grid: GridPreset::Light,
        seed,
        ..ExperimentConfig::default()
    };
    let features = FeatureConfig {
        x_days: experiment.x_days,
        y_days: experiment.y_days,
        ngrams: None,
        include_utilization: experiment.include_utilization,
    };
    let runner = Experiment::new(experiment);
    let mut panels = Vec::with_capacity(9);
    let mut panel_ms = Vec::with_capacity(9);
    let mut rows = 0;
    for region in RegionId::ALL {
        let census = study.census(region);
        let extractor = clock.time("features.extract_ms", || {
            FeatureExtractor::new(&census, features.clone())
        });
        for edition in Edition::ALL {
            let panel_start = Instant::now();
            let (inside, outside) = clock.time("survival.km_ms", || {
                (
                    SurvivalData::from_pairs(
                        &census.survival_pairs_where(2.0, |db| db.creation_edition() == edition),
                    ),
                    SurvivalData::from_pairs(
                        &census.survival_pairs_where(2.0, |db| db.creation_edition() != edition),
                    ),
                )
            });
            let km = clock.time("survival.km_ms", || KaplanMeier::fit(&inside));
            let logrank = clock.time("survival.logrank_ms", || logrank_test(&inside, &outside));
            let (dataset, survival) = clock.time("features.extract_ms", || {
                extractor.build_dataset(&census, Some(edition))
            });
            rows += dataset.len();
            let result = clock.time("core.experiment_ms", || {
                runner.run_on_dataset(dataset, survival, &census, Some(edition))
            });
            panel_ms.push(report::ms(panel_start.elapsed()));
            panels.push(Panel {
                label: format!("{region}/{edition}"),
                accuracy: result.forest.accuracy,
                baseline_accuracy: result.baseline.accuracy,
                confident_accuracy: result.confident.accuracy,
                km_median: km.median_survival(),
                logrank_p: logrank.p_value,
            });
        }
    }
    Pass {
        wall_ms: report::ms(start.elapsed()),
        panel_ms,
        panels,
        rows,
    }
}

/// Every panel must beat its weighted-random baseline, and every pass
/// must reproduce the first pass's panels exactly.
fn check_pass(outcome: &mut Outcome, pass: &Pass, reference: &[Panel]) {
    for (panel, want) in pass.panels.iter().zip(reference) {
        outcome.check(panel.accuracy > panel.baseline_accuracy, || {
            format!(
                "{}: forest accuracy {} does not beat the baseline's {}",
                panel.label, panel.accuracy, panel.baseline_accuracy
            )
        });
        if panel != want {
            outcome.check(false, || format!("{} differs between passes", panel.label));
        }
    }
    if pass.panels.len() != 9 {
        outcome.check(false, || {
            format!("{} panels, expected 9", pass.panels.len())
        });
    }
}

/// Runs the workload.
pub fn run(run: &Run, cfg: &Config) -> Outcome {
    let mut outcome = Outcome::default();
    let (study, setup_s) = report::repeat_setup(cfg.setups, || {
        Study::load(StudyConfig {
            scale: cfg.scale,
            seed: run.seed,
        })
    });
    outcome.set("setup_s", setup_s);

    let start = Instant::now();
    let mut clock = LayerClock::default();
    let first = run_pass(&study, run.seed, &mut clock);
    let reference = first.panels.clone();
    check_pass(&mut outcome, &first, &reference);
    let mean = |pass: &Pass, f: fn(&Panel) -> f64| {
        pass.panels.iter().map(f).sum::<f64>() / pass.panels.len().max(1) as f64
    };

    if run.trace {
        // One traced pass against a warm untraced one: the first pass
        // also pays for warm-up.
        let warm = run_pass(&study, run.seed, &mut clock);
        check_pass(&mut outcome, &warm, &reference);
        let mut traced_clock = LayerClock::default();
        let (pass, snapshot) =
            report::observed(true, || run_pass(&study, run.seed, &mut traced_clock));
        let snapshot = snapshot.expect("traced");
        check_pass(&mut outcome, &pass, &reference);
        let layers = [
            "survival.km_ms",
            "survival.logrank_ms",
            "features.extract_ms",
            "core.experiment_ms",
        ]
        .map(|name| (name, traced_clock.ms(name)));
        report::report_layers(&mut outcome, &layers, pass.wall_ms);
        // `Study::load` only generates the three fleets; it runs in
        // set-up, outside the pass's wall time.
        outcome.set("telemetry.generate_ms", setup_s * 1e3);
        outcome.set("features.rows", pass.rows as f64);
        outcome.set("core.accuracy", mean(&pass, |p| p.accuracy));
        outcome.set(
            "core.confident_accuracy",
            mean(&pass, |p| p.confident_accuracy),
        );
        for name in [
            "forest.trees_built",
            "forest.nodes_expanded",
            "forest.split_scan.dense",
            "forest.split_scan.sparse",
        ] {
            outcome.set(name, report::counter(&snapshot, name));
        }
        outcome.set(
            "bench.trace_overhead_pct",
            100.0 * (pass.wall_ms / warm.wall_ms - 1.0),
        );
        return outcome;
    }

    let mut passes = vec![first];
    while report::another_pass(start, run.seconds, passes.last().map_or(0.0, |p| p.wall_ms)) {
        let pass = run_pass(&study, run.seed, &mut clock);
        check_pass(&mut outcome, &pass, &reference);
        passes.push(pass);
    }
    for (i, pass) in passes.iter().enumerate() {
        eprintln!("perfbench: study pass {i}: {:.3} ms", pass.wall_ms);
    }
    let per_pass: Vec<&[f64]> = passes.iter().map(|p| p.panel_ms.as_slice()).collect();
    let best = report::best_op_ms(&per_pass);
    outcome.set(
        "throughput_per_s",
        reference.len() as f64 / (best.iter().sum::<f64>() / 1e3),
    );
    outcome.set("p50_ms", report::quantile(&best, 0.5));
    outcome.set("p90_ms", report::quantile(&best, 0.9));
    outcome.set("peak_rss_mb", report::peak_rss_mb());
    outcome
}
