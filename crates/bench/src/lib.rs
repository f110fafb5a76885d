//! Shared harness machinery for the `repro` binary and the other
//! bench binaries.
//!
//! The expensive artifact of the reproduction is the grid of nine
//! subgroup experiments (three regions × three creation editions);
//! Figures 5–9 and Tables 1–2 are all views over the same runs, so the
//! harness computes each subgroup once and caches it.

pub mod artifact;
pub mod fleet;
pub mod model_source;
pub mod policyart;

use std::collections::HashMap;
use std::path::PathBuf;
use survdb::experiment::{Experiment, ExperimentConfig, GridPreset, SubgroupResult};
use survdb::json::ToJson;
use survdb::study::{Study, StudyConfig};
use telemetry::{Edition, RegionId};

/// Harness options parsed from the `repro` command line.
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

/// Parses `repro` command-line flags (everything after the subcommand).
pub fn parse_options(args: &[String]) -> Result<HarnessOptions, String> {
    let mut options = HarnessOptions::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag {
            "--scale" => {
                options.scale = value()?.parse().map_err(|e| format!("bad --scale: {e}"))?;
                i += 2;
            }
            "--seed" => {
                options.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
                i += 2;
            }
            "--reps" => {
                options.repetitions = value()?.parse().map_err(|e| format!("bad --reps: {e}"))?;
                i += 2;
            }
            "--grid" => {
                options.grid = match value()?.as_str() {
                    "off" => GridPreset::Off,
                    "light" => GridPreset::Light,
                    "full" => GridPreset::Full,
                    other => return Err(format!("unknown grid preset {other}")),
                };
                i += 2;
            }
            "--out" => {
                options.artifact_dir = PathBuf::from(value()?);
                i += 2;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_and_flags() {
        let opts = parse_options(&[]).unwrap();
        assert_eq!(opts.repetitions, 5);
        let args: Vec<String> = [
            "--scale", "0.1", "--seed", "7", "--grid", "full", "--reps", "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_options(&args).unwrap();
        assert_eq!(opts.scale, 0.1);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.grid, GridPreset::Full);
        assert_eq!(opts.repetitions, 2);
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(parse_options(&["--nope".to_string()]).is_err());
        assert!(parse_options(&["--scale".to_string()]).is_err());
    }
}
