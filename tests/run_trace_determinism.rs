//! Pins the run trace's determinism contract: the `deterministic`
//! section must be byte-identical across consecutive runs and across
//! thread limits, and the full rendered trace must pass the schema
//! validator `artifact-check` applies in CI.
//!
//! A second test pins that installing a registry never changes a
//! result. The registry slot is process-wide, so both tests hold
//! `INSTALL_LOCK`: concurrent installs from parallel test threads would
//! cross-contaminate the snapshots being compared.

use forest::parallel::{set_thread_limit, thread_limit};
use std::sync::Mutex;
use survdb::experiment::{Experiment, ExperimentConfig, GridPreset};
use telemetry::{
    reconstruct_records_lenient, Census, EventStream, FaultInjector, FaultPlan, Fleet, FleetConfig,
    RecoveryPolicy, RegionConfig,
};

static INSTALL_LOCK: Mutex<()> = Mutex::new(());

/// A small two-feature dataset with a linear class boundary.
fn small_dataset() -> forest::Dataset {
    let mut data = forest::Dataset::new(vec!["x0".into(), "x1".into()], 2);
    for i in 0..150 {
        let x0 = i as f64 / 150.0;
        let x1 = ((i * 31) % 150) as f64 / 150.0;
        data.push(vec![x0, x1], (x0 + 0.2 * x1 > 0.55) as usize);
    }
    data
}

/// One instrumented pass over every layer: fleet generation, fault
/// injection, lenient ingest, feature extraction, the repeated
/// train/evaluate experiment (which fans out over the parallel work
/// queue, so thread scheduling varies run to run), and a kernel
/// scoring pass (so the `serve.kernel.*` counters are covered by the
/// determinism contract).
fn traced_pipeline() -> obs::Snapshot {
    let registry = obs::Registry::with_stderr_level(obs::Level::Error);
    let guard = registry.install();

    let fleet = Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.08), 11));
    let stream = EventStream::of_fleet(&fleet);
    let plan = FaultPlan {
        drop_size: 0.10,
        drop_utilization: 0.10,
        duplicate: 0.05,
        reorder: 0.05,
        orphan: 0.02,
        ..FaultPlan::none(77)
    };
    let (degraded, _faults) = FaultInjector::new(plan).inject(&stream);
    let (_records, _report) = reconstruct_records_lenient(&degraded, &RecoveryPolicy::default());

    let census = Census::new(&fleet);
    let experiment = Experiment::new(ExperimentConfig {
        repetitions: 2,
        grid: GridPreset::Off,
        ..ExperimentConfig::default()
    });
    let _result = experiment.run(&census, None);

    // Kernel scoring pass: node-step and row-tile counts are a pure
    // function of (model, rows, tile constants), so they belong in
    // the deterministic section alongside the other counters.
    let data = small_dataset();
    let params = forest::RandomForestParams {
        n_trees: 6,
        ..forest::RandomForestParams::default()
    };
    let model = forest::RandomForest::fit(&data, &params, 13);
    let _scored = serve::score_batch(&model, &data, data.class_fraction(1));

    drop(guard);
    registry.snapshot()
}

#[test]
fn deterministic_section_is_stable_across_runs_and_thread_counts() {
    let _serial = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = traced_pipeline();
    assert!(
        !baseline.counters.is_empty(),
        "instrumented pipeline recorded no counters"
    );
    assert!(
        baseline.spans.contains_key("experiment"),
        "experiment span missing; got {:?}",
        baseline.spans.keys().collect::<Vec<_>>()
    );
    assert!(
        baseline.spans.contains_key("experiment/repetition"),
        "repetition spans must nest under the experiment span"
    );
    for counter in ["serve.kernel.node_steps", "serve.kernel.row_tiles"] {
        assert!(
            baseline.counters.get(counter).copied().unwrap_or(0) > 0,
            "kernel counter {counter} missing from the traced pipeline; got {:?}",
            baseline.counters.keys().collect::<Vec<_>>()
        );
    }
    let det = obs::trace::deterministic_section(&baseline);

    // Consecutive runs agree byte for byte.
    let again = obs::trace::deterministic_section(&traced_pipeline());
    assert_eq!(det, again, "deterministic section drifted between runs");

    // A serial run and a wide run agree too: counters derive from
    // seeded index-slotted work, span paths propagate across the
    // worker threads, and thread attribution stays out of the
    // deterministic section.
    set_thread_limit(Some(1));
    let serial = obs::trace::deterministic_section(&traced_pipeline());
    set_thread_limit(Some(8));
    let wide = obs::trace::deterministic_section(&traced_pipeline());
    set_thread_limit(None);
    assert_eq!(
        det, serial,
        "1-thread run changed the deterministic section"
    );
    assert_eq!(det, wide, "8-thread run changed the deterministic section");

    // The full rendering (including the nondeterministic side) passes
    // the same structural validation CI applies to emitted artifacts.
    let text = obs::trace::render_run_trace("test", &baseline, thread_limit());
    obs::trace::validate_run_trace(&text).expect("rendered run trace must be schema-valid");
}

#[test]
fn obs_probes_never_change_results() {
    let _serial = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = small_dataset();
    let params = forest::RandomForestParams {
        n_trees: 8,
        ..forest::RandomForestParams::default()
    };
    let run = || {
        let accuracy = forest::cross_val_accuracy(&data, &params, 3, 17);
        let model = forest::RandomForest::fit(&data, &params, 13);
        let probabilities: Vec<Vec<f64>> = (0..data.len())
            .map(|i| model.predict_proba_row(&data, i))
            .collect();
        (accuracy, model.oob_accuracy(), probabilities)
    };

    assert!(!obs::enabled(), "no registry may be installed yet");
    let off = run();
    let registry = obs::Registry::with_stderr_level(obs::Level::Error);
    let guard = registry.install();
    let on = run();
    drop(guard);
    assert!(
        registry
            .snapshot()
            .counters
            .contains_key("forest.trees_built"),
        "the probed run recorded no training counters"
    );

    assert_eq!(
        off.0.to_bits(),
        on.0.to_bits(),
        "obs probes changed cross-validation results"
    );
    assert_eq!(
        off.1.map(f64::to_bits),
        on.1.map(f64::to_bits),
        "obs probes changed the out-of-bag estimate"
    );
    for (i, (a, b)) in off.2.iter().zip(&on.2).enumerate() {
        let a: Vec<u64> = a.iter().map(|p| p.to_bits()).collect();
        let b: Vec<u64> = b.iter().map(|p| p.to_bits()).collect();
        assert_eq!(a, b, "obs probes changed the prediction for row {i}");
    }
}
