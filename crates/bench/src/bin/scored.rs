//! `scored` — loads (or trains and saves) a `survdb-model/v1` forest,
//! streams feature rows through the batched scoring engine, and writes
//! `artifacts/scoring.json`.
//!
//! ```text
//! cargo run -p bench --release --bin scored -- [flags]
//! ```
//!
//! Flags: [`bench::cli::SCORED`]. `--tune` also persists the search's
//! provenance; without it, training is a single fit. Without
//! `--model`, the binary trains on the fixture fleet, saves the model
//! to `OUT/model.json`, reloads it from disk, and scores with the
//! **loaded** copy — `bench::model_source` asserts that the loaded
//! forest reproduces the in-memory predictions bitwise and that
//! save→load→save is byte-identical. Every row is then held to
//! bitwise parity between the recursive reference walk and the blocked
//! kernel that serves; any mismatch exits 1. The deterministic section
//! of `scoring.json` is byte-stable across thread counts; the wall time
//! of the one blocked pass lives in the nondeterministic section.
//! `perfbench score` is the kernel throughput measurement of record.

use bench::cli;
use bench::model_source::{fixture_dataset, obtain_model, ModelSpec};
use serve::{score_batch_recursive, score_batch_with, ScoringTiming};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args = cli::parse_or_exit(&cli::SCORED);
    let (scale, seed) = (
        args.float("--scale").unwrap_or(0.25),
        args.u64("--seed").unwrap_or(2018),
    );
    let spec = ModelSpec {
        load_from: args.path("--model"),
        seed,
        tune: args.switch("--tune"),
        save_dir: args
            .path("--out")
            .unwrap_or_else(|| PathBuf::from("artifacts")),
    };

    let registry = obs::Registry::with_stderr_level(obs::Level::Info);
    let _trace = registry.install();

    println!("[scored] building scoring dataset (scale {scale}, seed {seed})");
    let data = fixture_dataset(scale, seed);
    let model = obtain_model(&data, &spec).unwrap_or_else(|e| cli::fail("scored", e));
    println!(
        "[scored] model ready ({} trees, {} features)",
        model.forest.tree_count(),
        model.forest.feature_names().len()
    );

    let kernel = model.kernel();
    let q = model.meta.positive_fraction;

    // Blocked kernel — the default scoring path and the artifact's
    // headline result.
    let started = Instant::now();
    let batch = score_batch_with(&kernel, &data, q);
    let elapsed = started.elapsed().as_secs_f64();
    let summary = batch.summary();

    // Recursive reference — the bitwise parity gate: any divergence
    // is a hard failure.
    let recursive = score_batch_recursive(&model.forest, &data, q);
    if recursive != batch {
        let mismatches = recursive
            .rows
            .iter()
            .zip(&batch.rows)
            .filter(|(a, b)| a != b)
            .count();
        let rows = batch.rows.len();
        cli::fail(
            "scored",
            format!(
                "kernel parity FAILED: {mismatches} of {rows} rows differ from the recursive path"
            ),
        );
    }

    println!(
        "[scored] kernel parity OK: {} rows bitwise-identical across recursive and blocked paths",
        batch.rows.len()
    );

    println!();
    print!("{}", survdb::report::scoring_block(&summary));

    let timing = ScoringTiming {
        thread_limit: forest::parallel::thread_limit(),
        elapsed_ms: elapsed * 1000.0,
        rows_per_second: if elapsed > 0.0 {
            summary.rows as f64 / elapsed
        } else {
            0.0
        },
    };
    match serve::write_scoring(&spec.save_dir, "scored", &model, &summary, &timing) {
        Ok(path) => println!("\n[scored] wrote {}", path.display()),
        Err(e) => cli::fail("scored", format!("cannot write scoring artifact: {e}")),
    }

    bench::finish_trace(&registry, "scored", &spec.save_dir);
}
