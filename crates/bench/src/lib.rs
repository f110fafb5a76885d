//! Shared harness machinery for the `repro` binary and the other
//! bench binaries.
//!
//! The expensive artifact of the reproduction is the grid of nine
//! subgroup experiments (three regions × three creation editions);
//! Figures 5–9 and Tables 1–2 are all views over the same runs, so the
//! harness computes each subgroup once and caches it.

pub mod artifact;
pub mod cli;
pub mod fleet;
pub mod model_source;
pub mod policyart;

use std::collections::HashMap;
use std::path::PathBuf;
use survdb::experiment::{Experiment, ExperimentConfig, GridPreset, SubgroupResult};
use survdb::json::ToJson;
use survdb::study::{Study, StudyConfig};
use telemetry::{Edition, RegionId};

/// Harness options, filled from the `repro` command line
/// ([`cli::REPRO`]).
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Population scale (1.0 = canonical region sizes).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Grid-search preset.
    pub grid: GridPreset,
    /// Repetitions per subgroup.
    pub repetitions: usize,
    /// Output directory for JSON artifacts.
    pub artifact_dir: PathBuf,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: 0.5,
            seed: 0x5DB_2018,
            grid: GridPreset::Light,
            repetitions: 5,
            artifact_dir: PathBuf::from("artifacts"),
        }
    }
}

/// Lazily computed study + subgroup-result cache.
pub struct Harness {
    options: HarnessOptions,
    study: Study,
    subgroups: HashMap<(RegionId, String), SubgroupResult>,
}

impl Harness {
    /// Loads the three-region study.
    pub fn new(options: HarnessOptions) -> Harness {
        let study = Study::load(StudyConfig {
            scale: options.scale,
            seed: options.seed,
        });
        obs::info!(
            "harness",
            "generated {} databases across {} regions (scale {})",
            study.database_count(),
            study.fleets().len(),
            options.scale
        );
        Harness {
            options,
            study,
            subgroups: HashMap::new(),
        }
    }

    /// The loaded study.
    pub fn study(&self) -> &Study {
        &self.study
    }

    /// Harness options.
    pub fn options(&self) -> &HarnessOptions {
        &self.options
    }

    fn experiment_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            repetitions: self.options.repetitions,
            grid: self.options.grid,
            seed: self.options.seed,
            ..ExperimentConfig::default()
        }
    }

    /// The cached experiment result for one subgroup (`None` edition =
    /// whole region).
    pub fn subgroup(&mut self, region: RegionId, edition: Option<Edition>) -> &SubgroupResult {
        let key = (
            region,
            edition.map_or_else(|| "all".to_string(), |e| e.to_string()),
        );
        if !self.subgroups.contains_key(&key) {
            obs::info!("harness", "running experiment {} / {} ...", key.0, key.1);
            let census = self.study.census(region);
            let result = Experiment::new(self.experiment_config()).run(&census, edition);
            self.subgroups.insert(key.clone(), result);
        }
        &self.subgroups[&key]
    }

    /// All nine (region × edition) results, paper panel order.
    pub fn nine_panels(&mut self) -> Vec<SubgroupResult> {
        let mut out = Vec::with_capacity(9);
        for edition in Edition::ALL {
            for region in RegionId::ALL {
                out.push(self.subgroup(region, Some(edition)).clone());
            }
        }
        out
    }

    /// Writes a JSON artifact for an experiment id. Artifacts render
    /// through [`survdb::json::ToJson`] so repeated runs with the same
    /// seed produce byte-identical files.
    pub fn write_artifact<T: ToJson>(&self, id: &str, value: &T) {
        let dir = &self.options.artifact_dir;
        let text = value.to_json_value().render();
        match obs::artifact::write_artifact(dir, &format!("{id}.json"), &text) {
            Ok(path) => obs::info!("harness", "wrote {}", path.display()),
            Err(e) => obs::error!(
                "harness",
                "cannot write {id}.json in {}: {e}",
                dir.display()
            ),
        }
    }
}

/// Shared epilogue of every binary that records a run trace: prints
/// the per-phase timing breakdown and the counter table from
/// `registry`, then writes `artifact_dir/run_trace.json` for `binary`,
/// which also names the event target of a write error.
pub fn finish_trace(
    registry: &obs::Registry,
    binary: &'static str,
    artifact_dir: &std::path::Path,
) {
    let snapshot = registry.snapshot();
    println!("\n================ Run trace ({binary})\n");
    print!("{}", survdb::report::phase_table(&snapshot));
    println!();
    print!("{}", survdb::report::counter_table(&snapshot));
    match obs::trace::write_run_trace(
        artifact_dir,
        binary,
        &snapshot,
        forest::parallel::thread_limit(),
    ) {
        Ok(path) => println!("\n[{binary}] wrote {}", path.display()),
        Err(e) => obs::error!(binary, "cannot write run trace: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        assert_eq!(HarnessOptions::default().repetitions, 5);
        let opts = cli::parse(&cli::REPRO, &args(&["all"])).unwrap();
        assert_eq!(opts.count("--reps"), None);
        let opts = cli::parse(
            &cli::REPRO,
            &args(&[
                "all", "--scale", "0.1", "--seed", "7", "--grid", "full", "--reps", "2",
            ]),
        )
        .unwrap();
        assert_eq!(opts.float("--scale"), Some(0.1));
        assert_eq!(opts.u64("--seed"), Some(7));
        let grids = [GridPreset::Off, GridPreset::Light, GridPreset::Full];
        assert_eq!(opts.pick("--grid", grids), Some(GridPreset::Full));
        assert_eq!(opts.count("--reps"), Some(2));
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(cli::parse(&cli::REPRO, &args(&["all", "--nope"])).is_err());
        assert!(cli::parse(&cli::REPRO, &args(&["all", "--scale"])).is_err());
    }
}
