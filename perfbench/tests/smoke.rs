//! Every workload at tiny size, untraced and traced, with its output
//! checks on: no failed operation, every end-to-end metric nonzero,
//! and the traced layers adding up to the traced wall time.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run_workload, Run, Size, WORKLOADS};
use std::sync::Mutex;

/// The `obs` registry slot is process-wide: traced runs must not
/// overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: &str, trace: bool) -> perfbench::report::Outcome {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let run = Run {
        seed: 7,
        seconds: 0.5,
        trace,
        threads: 2,
        work_dir: std::env::temp_dir().join(format!(
            "perfbench-smoke-{workload}-{trace}-{}",
            std::process::id()
        )),
    };
    let outcome = run_workload(workload, &run, Size::Tiny).expect("known workload");
    std::fs::remove_dir_all(&run.work_dir).ok();
    outcome
}

fn assert_clean(workload: &str, trace: bool) -> perfbench::report::Outcome {
    let outcome = tiny(workload, trace);
    assert!(outcome.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(outcome.failed, 0, "{workload} (trace {trace}) had failures");
    let line = outcome.render(trace);
    assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in catalogue {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload}: {name} missing"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
    }
    outcome
}

fn assert_layers_add_up(outcome: &perfbench::report::Outcome, layers: &[&str]) {
    let wall = outcome.get("bench.wall_ms").expect("wall reported");
    let unattributed = outcome.get("bench.unattributed_pct").expect("reported");
    let attributed: f64 = layers
        .iter()
        .map(|l| outcome.get(l).unwrap_or_else(|| panic!("{l} reported")))
        .sum();
    assert!((0.0..100.0).contains(&unattributed), "{unattributed}");
    let total = attributed + wall * unattributed / 100.0;
    assert!(
        (total - wall).abs() < 1e-6 * wall.max(1.0),
        "{total} != {wall}"
    );
}

#[test]
fn fleet_is_clean_and_its_layers_add_up() {
    assert_clean("fleet", false);
    let traced = assert_clean("fleet", true);
    assert_layers_add_up(
        &traced,
        &[
            "telemetry.generate_ms",
            "telemetry.fault_ms",
            "telemetry.ingest_ms",
            "features.extract_ms",
        ],
    );
    assert!(traced.get("telemetry.fault_ms").unwrap() > 0.0);
    assert!(traced.get("telemetry.recovered_ratio").unwrap() < 1.0);
}

#[test]
fn study_is_clean_and_its_layers_add_up() {
    assert_clean("study", false);
    let traced = assert_clean("study", true);
    assert_layers_add_up(
        &traced,
        &[
            "survival.km_ms",
            "survival.logrank_ms",
            "features.extract_ms",
            "core.experiment_ms",
        ],
    );
    assert!(traced.get("forest.trees_built").unwrap() > 0.0);
}

#[test]
fn score_is_clean_and_its_layers_add_up() {
    assert_clean("score", false);
    let traced = assert_clean("score", true);
    assert_layers_add_up(
        &traced,
        &["serve.score_ms", "policy.decide_ms", "policy.sweep_ms"],
    );
    assert!(traced.get("serve.model_load_ms").unwrap() > 0.0);
}

#[test]
fn serve_is_clean() {
    let untraced = assert_clean("serve", false);
    assert!(untraced.get("throughput_per_s").unwrap() > 0.0);
    let traced = assert_clean("serve", true);
    assert!(traced.get("survd.rows_per_batch").unwrap() >= 1.0);
    assert!(traced.get("survd.wire_render_us").unwrap() > 0.0);
}

#[test]
fn every_workload_has_a_reason() {
    assert_eq!(WORKLOADS.len(), 4);
    for (name, why) in WORKLOADS {
        assert!(!why.is_empty() && why.len() <= 200, "{name}");
    }
}
