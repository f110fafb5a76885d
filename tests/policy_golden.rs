//! `policy_golden` — golden-file regression test for the provisioning
//! decision layer.
//!
//! Runs a small fixed-seed `policybench` pipeline — scenario fleet
//! generation → scoring → decisions → sweep — and byte-compares the
//! artifact's *deterministic section* against
//! `tests/golden/policy_small.json`. The same rendering must also be
//! byte-identical across forest thread limits {1, 8} and shard counts
//! {1, 3}: the deterministic section's whole point is that execution
//! layout cannot reach it.
//!
//! Any intentional change to the scenario transforms, the feature or
//! scoring numerics, the spec, or the JSON rendering shows up here as
//! a diff. To re-bless after such a change, run:
//!
//! ```text
//! SURVDB_BLESS=1 cargo test -p bench --test policy_golden
//! ```
//!
//! and commit the updated file together with the change that moved it.

use bench::model_source::{fixture_dataset, obtain_model, ModelSpec};
use bench::policyart::{render_policy, run_policybench, validate_policy, PolicyBenchOptions};
use serve::SavedModel;
use std::path::PathBuf;

const GOLDEN_SCALE: f64 = 0.02;
const GOLDEN_SEED: u64 = 7;
const GOLDEN_GRID: usize = 5;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/policy_small.json")
}

fn golden_model(dir: &std::path::Path) -> SavedModel {
    let data = fixture_dataset(GOLDEN_SCALE, GOLDEN_SEED);
    obtain_model(
        &data,
        &ModelSpec {
            load_from: None,
            seed: GOLDEN_SEED,
            tune: false,
            save_dir: dir.to_path_buf(),
        },
    )
    .expect("golden model trains")
}

fn golden_options(dir: &std::path::Path, shards: usize) -> PolicyBenchOptions {
    PolicyBenchOptions {
        scale: GOLDEN_SCALE,
        seed: GOLDEN_SEED,
        shards,
        grid_points: GOLDEN_GRID,
        model: None,
        artifact_dir: dir.to_path_buf(),
    }
}

/// The pinned deterministic section under one (threads, shards)
/// layout.
fn golden_render(
    model: &SavedModel,
    dir: &std::path::Path,
    threads: usize,
    shards: usize,
) -> String {
    forest::set_thread_limit(Some(threads));
    let report = run_policybench(&golden_options(dir, shards), model);
    forest::set_thread_limit(None);
    let text = render_policy(&report);
    validate_policy(&text).expect("golden artifact validates");
    obs::artifact::deterministic_section_of(&text).expect("artifact has a deterministic section")
}

#[test]
fn small_policy_run_matches_golden_file() {
    let dir = std::env::temp_dir().join("survdb_policy_golden_test");
    let _ = std::fs::remove_dir_all(&dir);
    let model = golden_model(&dir);

    let rendered = golden_render(&model, &dir, 1, 1);
    // Execution layout must not reach the deterministic section.
    for (threads, shards) in [(8, 1), (1, 3), (8, 3)] {
        assert_eq!(
            rendered,
            golden_render(&model, &dir, threads, shards),
            "deterministic section changed under threads={threads}, shards={shards}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

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
        let mismatch = rendered
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((line, (got, want))) => panic!(
                "decision-layer output drifted from {} at line {}:\n  got:  {got}\n  want: {want}\n\
                 if the change is intentional, re-bless with SURVDB_BLESS=1",
                path.display(),
                line + 1
            ),
            None => panic!(
                "decision-layer output drifted from {} (lengths {} vs {}; common prefix identical)",
                path.display(),
                rendered.len(),
                golden.len()
            ),
        }
    }
}
