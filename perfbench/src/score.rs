//! `score`: offline scoring and provisioning decisions over the four
//! what-if cohorts.
//!
//! Set-up trains the fixture model (train → save → load → verify) and
//! builds every cohort's per-(region × edition) datasets. One operation
//! is one subgroup batch — score it with the flat kernel, decide every
//! row, fold it into the cost sweep; one pass is every batch of every
//! cohort. The end-to-end metrics are rows per second and the per-batch
//! latency.

use crate::report::{self, LayerClock, Outcome};
use crate::Run;
use bench::model_source::{fixture_dataset, obtain_model, ModelSpec};
use bench::policyart::canonical_spec;
use features::{FeatureConfig, FeatureExtractor};
use forest::Dataset;
use policy::{decide_batch, DecisionSummary, SubgroupKey, SweepAccum};
use serve::{score_batch_recursive, score_batch_with, SavedModel};
use std::time::Instant;
use telemetry::{
    generate_scenario_fleet, Census, Edition, FleetConfig, RegionConfig, RegionId, ScenarioKind,
};

/// Points of the cost-vs-threshold sweep.
const SWEEP_POINTS: usize = 11;

/// Size of the model's training set and of the cohorts.
#[derive(Debug, Clone)]
pub struct Config {
    /// Scale of the Region-1 fixture fleet the model trains on.
    pub fixture_scale: f64,
    /// Scale of every cohort's fleet.
    pub cohort_scale: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Config {
    /// The default benchmark size.
    pub fn full() -> Config {
        Config {
            fixture_scale: 0.25,
            cohort_scale: 0.5,
            setups: 5,
        }
    }

    /// Small model and cohorts, for smoke tests.
    pub fn tiny() -> Config {
        Config {
            fixture_scale: 0.03,
            cohort_scale: 0.03,
            setups: 1,
        }
    }
}

/// One (cohort × region × edition) dataset with its ground truth.
struct Batch {
    kind: ScenarioKind,
    subgroup: SubgroupKey,
    data: Dataset,
    long_lived: Vec<bool>,
}

/// Builds every cohort's subgroup datasets.
fn cohort_batches(scale: f64, seed: u64) -> Vec<Batch> {
    let mut out = Vec::new();
    for kind in ScenarioKind::ALL {
        for (i, region) in RegionId::ALL.into_iter().enumerate() {
            let config = FleetConfig::new(
                RegionConfig::canonical(region).scaled(scale),
                seed.wrapping_add(i as u64 * 0x9E37_79B9),
            );
            let fleet = generate_scenario_fleet(config, kind);
            let census = Census::new(&fleet);
            let extractor = FeatureExtractor::new(&census, FeatureConfig::default());
            for edition in Edition::ALL {
                let (data, _survival, indices) =
                    extractor.build_dataset_indexed(&census, Some(edition));
                if data.is_empty() {
                    continue;
                }
                let long_lived = indices
                    .iter()
                    .map(|&i| census.is_long_lived(&fleet.databases[i]))
                    .collect();
                out.push(Batch {
                    kind,
                    subgroup: SubgroupKey::new(region.to_string(), edition.to_string()),
                    data,
                    long_lived,
                });
            }
        }
    }
    out
}

/// Trains, persists, reloads and verifies the fixture model under `dir`.
pub(crate) fn fixture_model(scale: f64, seed: u64, dir: &std::path::Path) -> SavedModel {
    let data = fixture_dataset(scale, seed);
    let spec = ModelSpec {
        load_from: None,
        seed,
        tune: false,
        save_dir: dir.to_path_buf(),
    };
    obtain_model(&data, &spec).unwrap_or_else(|e| panic!("fixture model: {e}"))
}

/// Per-cohort decision totals and sweep optimum: deterministic, so every
/// pass must reproduce them.
type PassResult = Vec<(DecisionSummary, u64, f64)>;

struct Pass {
    wall_ms: f64,
    batch_ms: Vec<f64>,
    rows: usize,
    result: PassResult,
}

fn run_pass(model: &SavedModel, batches: &[Batch], clock: &mut LayerClock) -> Pass {
    let start = Instant::now();
    let spec = canonical_spec();
    let kernel = model.kernel();
    let q = model.meta.positive_fraction;
    let mut result: Vec<(ScenarioKind, DecisionSummary, SweepAccum)> = ScenarioKind::ALL
        .into_iter()
        .map(|k| (k, DecisionSummary::default(), SweepAccum::new(SWEEP_POINTS)))
        .collect();
    let mut batch_ms = Vec::with_capacity(batches.len());
    let mut rows = 0;
    for batch in batches {
        let batch_start = Instant::now();
        let facts = clock.time("serve.score_ms", || {
            score_batch_with(&kernel, &batch.data, q).facts()
        });
        let (_actions, summary) = clock.time("policy.decide_ms", || {
            decide_batch(&facts, &batch.long_lived, &spec, &batch.subgroup)
        });
        let slot = result
            .iter_mut()
            .find(|(k, _, _)| *k == batch.kind)
            .expect("every cohort has a slot");
        slot.1.merge(&summary);
        let sweep = &mut slot.2;
        clock.time("policy.sweep_ms", || {
            for (f, &long) in facts.iter().zip(&batch.long_lived) {
                sweep.observe(f.positive, long, &spec.costs);
            }
        });
        rows += facts.len();
        batch_ms.push(report::ms(batch_start.elapsed()));
    }
    Pass {
        wall_ms: report::ms(start.elapsed()),
        batch_ms,
        rows,
        result: result
            .into_iter()
            .map(|(_, summary, sweep)| {
                let best = sweep.best();
                (summary, best.total_cost, best.threshold)
            })
            .collect(),
    }
}

/// The flat kernel must match the recursive reference walk bitwise on
/// every row of every cohort. Runs outside the timed region.
fn check_kernel(outcome: &mut Outcome, model: &SavedModel, batches: &[Batch]) {
    let kernel = model.kernel();
    let q = model.meta.positive_fraction;
    for batch in batches {
        let fast = score_batch_with(&kernel, &batch.data, q);
        let reference = score_batch_recursive(&model.forest, &batch.data, q);
        let same = fast.rows.len() == reference.rows.len()
            && fast.rows.iter().zip(&reference.rows).all(|(a, b)| {
                a.positive.to_bits() == b.positive.to_bits()
                    && a.probabilities.len() == b.probabilities.len()
                    && a.probabilities
                        .iter()
                        .zip(&b.probabilities)
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            });
        outcome.check(same, || {
            format!(
                "{} {}/{}: kernel scores differ from the recursive reference",
                batch.kind.label(),
                batch.subgroup.region,
                batch.subgroup.edition
            )
        });
    }
}

fn check_pass(outcome: &mut Outcome, pass: &Pass, reference: &PassResult) {
    outcome.tally(pass.batch_ms.len() as u64, 0);
    if pass.result != *reference {
        outcome.check(false, || {
            "decision totals differ from the run's first pass".to_string()
        });
    }
}

/// Runs the workload.
pub fn run(run: &Run, cfg: &Config) -> Outcome {
    let mut outcome = Outcome::default();
    let ((model, batches), snapshot) = report::observed(run.trace, || {
        let ((model, batches), setup_s) = report::repeat_setup(cfg.setups, || {
            (
                fixture_model(cfg.fixture_scale, run.seed, &run.work_dir),
                cohort_batches(cfg.cohort_scale, run.seed),
            )
        });
        outcome.set("setup_s", setup_s);
        (model, batches)
    });
    if let Some(snapshot) = &snapshot {
        // Set-up trains and loads the model once per repetition.
        let per_setup = |v: f64| v / cfg.setups.max(1) as f64;
        outcome.set(
            "serve.model_load_ms",
            per_setup(report::span_ms(snapshot, "model_load")),
        );
        for name in [
            "forest.trees_built",
            "forest.nodes_expanded",
            "forest.split_scan.dense",
            "forest.split_scan.sparse",
        ] {
            outcome.set(name, per_setup(report::counter(snapshot, name)));
        }
    }

    let mut clock = LayerClock::default();
    let start = Instant::now();
    let first = run_pass(&model, &batches, &mut clock);
    let reference = first.result.clone();
    check_pass(&mut outcome, &first, &reference);

    if run.trace {
        // One traced pass against a warm untraced one: the first pass
        // also pays for warm-up.
        let warm = run_pass(&model, &batches, &mut clock);
        check_pass(&mut outcome, &warm, &reference);
        let mut traced_clock = LayerClock::default();
        let (pass, snapshot) =
            report::observed(true, || run_pass(&model, &batches, &mut traced_clock));
        let snapshot = snapshot.expect("traced");
        check_pass(&mut outcome, &pass, &reference);
        let layers = ["serve.score_ms", "policy.decide_ms", "policy.sweep_ms"]
            .map(|name| (name, traced_clock.ms(name)));
        report::report_layers(&mut outcome, &layers, pass.wall_ms);
        let scored = report::counter(&snapshot, "serve.rows_scored");
        outcome.set(
            "serve.kernel_rows_per_s",
            pass.rows as f64 / (traced_clock.ms("serve.score_ms") / 1e3),
        );
        outcome.set(
            "serve.node_steps_per_row",
            report::counter(&snapshot, "serve.kernel.node_steps") / scored.max(1.0),
        );
        outcome.set("features.rows", pass.rows as f64);
        outcome.set(
            "bench.trace_overhead_pct",
            100.0 * (pass.wall_ms / warm.wall_ms - 1.0),
        );
        check_kernel(&mut outcome, &model, &batches);
        return outcome;
    }

    let mut passes = vec![first];
    while report::another_pass(start, run.seconds, passes.last().map_or(0.0, |p| p.wall_ms)) {
        let pass = run_pass(&model, &batches, &mut clock);
        check_pass(&mut outcome, &pass, &reference);
        passes.push(pass);
    }
    for (i, pass) in passes.iter().enumerate() {
        eprintln!("perfbench: score pass {i}: {:.3} ms", pass.wall_ms);
    }
    let per_pass: Vec<&[f64]> = passes.iter().map(|p| p.batch_ms.as_slice()).collect();
    let best = report::best_op_ms(&per_pass);
    outcome.set(
        "throughput_per_s",
        passes[0].rows as f64 / (best.iter().sum::<f64>() / 1e3),
    );
    outcome.set("p50_ms", report::quantile(&best, 0.5));
    outcome.set("p90_ms", report::quantile(&best, 0.9));
    outcome.set("peak_rss_mb", report::peak_rss_mb());
    check_kernel(&mut outcome, &model, &batches);
    outcome
}
