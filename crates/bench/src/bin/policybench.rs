//! `policybench` — fleet-scale what-if runs of the provisioning
//! decision layer.
//!
//! ```text
//! cargo run -p bench --release --bin policybench -- [flags]
//! ```
//!
//! Flags: [`bench::cli::POLICYBENCH`]; `--shards` must not change the
//! deterministic section. For every what-if cohort (baseline,
//! incentive-cliff mass churn, seasonal SLO scaling, regional
//! migration wave) the binary generates
//! the scenario fleet shard by shard, scores each (region, edition)
//! subgroup with the persisted forest, decides every row under the
//! canonical [`bench::policyart::canonical_spec`], and accumulates the
//! decision summary plus the cost-vs-threshold sweep in integer units.
//! On success it writes `artifacts/policy.json` (`survdb-policy/v1`)
//! and self-validates it; any validation failure — including the
//! headline requirement that the best sweep threshold beat both naive
//! baselines on the incentive-cliff cohort — exits nonzero.

use bench::cli;
use bench::model_source::{fixture_dataset, obtain_model, ModelSpec};
use bench::policyart::{
    cohort_table, run_policybench, validate_policy, write_policy, PolicyBenchOptions,
};
use std::sync::Arc;

fn main() {
    let args = cli::parse_or_exit(&cli::POLICYBENCH);
    let d = PolicyBenchOptions::default();
    let options = PolicyBenchOptions {
        scale: args.float("--scale").unwrap_or(d.scale),
        seed: args.u64("--seed").unwrap_or(d.seed),
        shards: args.count("--shards").unwrap_or(d.shards),
        grid_points: args.count("--grid").unwrap_or(d.grid_points),
        model: args.path("--model"),
        artifact_dir: args.path("--out").unwrap_or(d.artifact_dir),
    };

    let registry = Arc::new(obs::Registry::with_stderr_level(obs::Level::Info));
    let _guard = registry.install();

    println!(
        "[policybench] obtaining model (scale {}, seed {})",
        options.scale, options.seed
    );
    let data = fixture_dataset(options.scale, options.seed);
    let spec = ModelSpec {
        load_from: options.model.clone(),
        seed: options.seed,
        tune: false,
        save_dir: options.artifact_dir.clone(),
    };
    let model = obtain_model(&data, &spec).unwrap_or_else(|e| cli::fail("policybench", e));

    println!(
        "[policybench] deciding 4 cohorts x 3 regions ({} shards, {}-point grid)",
        options.shards, options.grid_points
    );
    let report = run_policybench(&options, &model);

    println!();
    print!("{}", cohort_table(&report));

    match write_policy(&options.artifact_dir, &report) {
        Ok(path) => {
            let text = std::fs::read_to_string(&path).expect("just-written artifact is readable");
            if let Err(e) = validate_policy(&text) {
                cli::fail("policybench", format!("self-validation failed: {e}"));
            }
            println!("\n[policybench] wrote {} (validated)", path.display());
        }
        Err(e) => cli::fail("policybench", format!("cannot write policy artifact: {e}")),
    }

    bench::finish_trace(&registry, "policybench", &options.artifact_dir);
}
