//! Golden-file regression test for the reproduction pipeline (PR 4
//! satellite).
//!
//! Runs a small fixed-seed end-to-end experiment — fleet generation →
//! census → feature extraction → forest training → §5 scoring — and
//! byte-compares the deterministic JSON rendering against
//! `tests/golden/repro_small.json`.
//!
//! Any intentional change to the pipeline's numerics or to the JSON
//! rendering rules shows up here as a diff. To re-bless the golden
//! file after such a change, run:
//!
//! ```text
//! SURVDB_BLESS=1 cargo test -p survdb-core --test golden_repro
//! ```
//!
//! and commit the updated file together with the change that moved it.

use obs::jsonv::JsonV;
use std::path::PathBuf;
use survdb::experiment::{Experiment, ExperimentConfig, GridPreset};
use survdb::json::ToJson;
use telemetry::{Census, Edition, Fleet, FleetConfig, RegionConfig};

const GOLDEN_SCALE: f64 = 0.05;
const GOLDEN_SEED: u64 = 2018;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/repro_small.json")
}

/// The pinned pipeline: one small region-1 fleet, two repetitions, no
/// grid search (tuning breadth is covered elsewhere; the golden file
/// pins numerics, not search behavior).
fn golden_render() -> String {
    let fleet = Fleet::generate(FleetConfig::new(
        RegionConfig::region_1().scaled(GOLDEN_SCALE),
        GOLDEN_SEED,
    ));
    let census = Census::new(&fleet);
    let experiment = Experiment::new(ExperimentConfig {
        repetitions: 2,
        grid: GridPreset::Off,
        seed: GOLDEN_SEED,
        ..ExperimentConfig::default()
    });

    // One whole-region subgroup and one edition slice, so the golden
    // file covers both census paths.
    let subgroups = vec![
        experiment.run(&census, None).to_json_value(),
        experiment
            .run(&census, Some(Edition::ALL[0]))
            .to_json_value(),
    ];

    JsonV::obj(vec![
        ("schema", JsonV::Str("survdb-golden/v1".to_string())),
        ("scale", JsonV::Float(GOLDEN_SCALE)),
        ("seed", JsonV::UInt(GOLDEN_SEED)),
        ("subgroups", JsonV::Arr(subgroups)),
    ])
    .render()
}

#[test]
fn small_repro_matches_golden_file() {
    let rendered = golden_render();
    let path = golden_path();

    if std::env::var_os("SURVDB_BLESS").is_some() {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create tests/golden");
        }
        std::fs::write(&path, &rendered).expect("write golden file");
        println!("blessed {} ({} bytes)", path.display(), rendered.len());
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun with SURVDB_BLESS=1 to generate it",
            path.display()
        )
    });
    if rendered != golden {
        // Locate the first diverging line for a readable failure.
        let mismatch = rendered
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((line, (got, want))) => panic!(
                "pipeline output drifted from {} at line {}:\n  got:  {got}\n  want: {want}\n\
                 if the change is intentional, re-bless with SURVDB_BLESS=1",
                path.display(),
                line + 1
            ),
            None => panic!(
                "pipeline output drifted from {} (lengths {} vs {}; common prefix identical)",
                path.display(),
                rendered.len(),
                golden.len()
            ),
        }
    }
}

#[test]
fn golden_render_is_reproducible_in_process() {
    // The golden promise is only meaningful if two in-process runs
    // already agree; this fails fast (and locally) if nondeterminism
    // sneaks into the pipeline, without involving the checked-in file.
    assert_eq!(golden_render(), golden_render());
}
