//! `trainperf` — measures the columnar training path against the
//! frozen pre-change path and writes `artifacts/bench_training.json`.
//!
//! ```text
//! cargo run -p bench --release --bin trainperf -- [flags]
//!
//! flags: --scale F   population scale for the benchmark fleet (default 0.25)
//!        --seed N    master seed (default 2018)
//!        --out DIR   artifact directory (default artifacts/)
//! ```
//!
//! Both paths consume the same `derive_seed` chain, so before any
//! timing is reported the binary asserts they agree: identical forest
//! predictions on every row and identical grid-search scores. The JSON
//! artifact has a deterministic shape (same keys, same candidate
//! count); the timing values themselves naturally vary run to run.

use bench::legacy::{legacy_grid_search, LegacyDataset, LegacyForest};
use bench::model_source::{fixture_dataset, tuning_candidates, verify_persisted};
use forest::{cross_val_accuracy, GridSearch, RandomForest, RandomForestParams};
use obs::jsonv::JsonV;
use std::path::PathBuf;
use std::time::Instant;
use survdb::json::ToJson;

struct Options {
    scale: f64,
    seed: u64,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        scale: 0.25,
        seed: 2018,
        out: PathBuf::from("artifacts"),
    };
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
            }
            "--seed" => {
                options.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--out" => {
                options.out = PathBuf::from(value()?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(options)
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1000.0
}

/// Repetitions per timed section; the best (minimum) time is reported,
/// for both paths alike, to damp scheduler and cache noise. The two
/// paths' repetitions are interleaved (legacy, columnar, legacy, ...)
/// so slow system phases hit both sides rather than skewing the ratio.
const REPS: usize = 4;

fn best_of_pair<A, B>(
    mut legacy: impl FnMut() -> A,
    mut columnar: impl FnMut() -> B,
) -> ((A, f64), (B, f64)) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let (mut out_a, mut out_b) = (None, None);
    for _ in 0..REPS {
        let t = Instant::now();
        out_a = Some(legacy());
        best_a = best_a.min(ms(t));
        let t = Instant::now();
        out_b = Some(columnar());
        best_b = best_b.min(ms(t));
    }
    (
        (out_a.expect("at least one rep"), best_a),
        (out_b.expect("at least one rep"), best_b),
    )
}

fn timing(label: &str, legacy_ms: f64, new_ms: f64) -> (JsonV, f64) {
    let speedup = if new_ms > 0.0 {
        legacy_ms / new_ms
    } else {
        0.0
    };
    println!("  {label:<22} legacy {legacy_ms:>9.1} ms   columnar {new_ms:>9.1} ms   speedup {speedup:>5.2}x");
    (
        JsonV::obj(vec![
            ("legacy_ms", JsonV::Float(legacy_ms)),
            ("columnar_ms", JsonV::Float(new_ms)),
            ("speedup", JsonV::Float(speedup)),
        ]),
        speedup,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            obs::error!("trainperf", "{e}");
            obs::error!(
                "trainperf",
                "usage: trainperf [--scale F] [--seed N] [--out DIR]"
            );
            std::process::exit(2);
        }
    };

    println!(
        "[trainperf] building benchmark dataset (scale {}, seed {})",
        options.scale, options.seed
    );
    let data = fixture_dataset(options.scale, options.seed);
    let legacy_data = LegacyDataset::from_columnar(&data);
    println!(
        "[trainperf] {} examples x {} features",
        data.len(),
        data.feature_count()
    );

    // --- obs overhead -------------------------------------------------
    // Measured before this run's own trace registry is installed, so
    // the "disabled" side is the true all-probes-off fast path (one
    // relaxed atomic load per probe). Interleaved best-of-REPS on the
    // instrumented cross-validation loop, which exercises every hot
    // probe: span enters, tree-build counter flushes, fold counters.
    let params = RandomForestParams::default();
    let k = 5;
    let overhead_registry = obs::Registry::new();
    let ((acc_off, obs_off_ms), (acc_on, obs_on_ms)) = best_of_pair(
        || cross_val_accuracy(&data, &params, k, options.seed),
        || {
            let _g = overhead_registry.install();
            cross_val_accuracy(&data, &params, k, options.seed)
        },
    );
    assert_eq!(
        acc_off, acc_on,
        "obs probes changed cross-validation results"
    );
    let obs_overhead_pct = if obs_off_ms > 0.0 {
        (obs_on_ms / obs_off_ms - 1.0) * 100.0
    } else {
        0.0
    };
    println!(
        "[trainperf] obs overhead on cross_val: disabled {obs_off_ms:.1} ms, \
         enabled {obs_on_ms:.1} ms ({obs_overhead_pct:+.2}%)"
    );

    // Record spans/counters for the rest of the run (the comparison
    // sections time legacy vs columnar, where both sides carry the same
    // sub-1% enabled cost).
    let registry = obs::Registry::with_stderr_level(obs::Level::Info);
    let _trace = registry.install();

    // --- forest fit ---------------------------------------------------
    let ((legacy_model, legacy_fit_ms), (model, fit_ms)) = best_of_pair(
        || LegacyForest::fit(&legacy_data, &params, options.seed),
        || RandomForest::fit(&data, &params, options.seed),
    );

    let mut mismatches = 0usize;
    for i in 0..data.len() {
        if legacy_model.predict_proba(&data.row(i)) != model.predict_proba_row(&data, i) {
            mismatches += 1;
        }
    }
    assert_eq!(
        mismatches, 0,
        "columnar forest diverged from the legacy path on {mismatches} rows"
    );
    assert_eq!(
        legacy_model.oob_accuracy(),
        model.oob_accuracy(),
        "out-of-bag accuracy diverged"
    );
    assert_eq!(
        legacy_model.feature_importances(),
        model.feature_importances(),
        "gini feature importances diverged"
    );
    println!(
        "[trainperf] forest predictions identical on all {} rows",
        data.len()
    );

    // --- grid search --------------------------------------------------
    let candidates = tuning_candidates();
    let ((legacy_grid, legacy_grid_ms), (grid, grid_ms)) = best_of_pair(
        || legacy_grid_search(&data, &legacy_data, &candidates, k, options.seed),
        || GridSearch::new(candidates.clone(), k).run(&data, options.seed),
    );

    assert_eq!(
        legacy_grid.best_score, grid.best_score,
        "grid-search best score diverged"
    );
    assert_eq!(
        candidates[legacy_grid.best_index], grid.best_params,
        "grid-search winner diverged"
    );
    let new_scores: Vec<f64> = grid.all_scores.iter().map(|(_, s)| *s).collect();
    assert_eq!(
        legacy_grid.all_scores, new_scores,
        "per-candidate CV scores diverged"
    );
    println!(
        "[trainperf] grid-search scores identical across {} candidates x {k} folds",
        candidates.len()
    );

    // --- model persistence --------------------------------------------
    // Save the fitted forest through the survdb-model/v1 format, reload
    // it from disk, and require the loaded copy to be indistinguishable
    // from the in-memory one: bitwise-equal predictions on every row,
    // the same confident/uncertain partition, and a byte-identical
    // re-render.
    let saved = serve::SavedModel::new(
        model.clone(),
        serve::ModelMeta {
            positive_fraction: data.class_fraction(1),
            seed: options.seed,
            params,
            grid: Some(serve::GridProvenance::from_result(&grid)),
        },
    );
    let model_path = options.out.join(serve::MODEL_FILE);
    if let Err(e) = saved.save(&model_path) {
        obs::error!(
            "trainperf",
            "cannot save model to {}: {e}",
            model_path.display()
        );
        std::process::exit(1);
    }
    let loaded = match serve::SavedModel::load(&model_path) {
        Ok(m) => m,
        Err(e) => {
            obs::error!("trainperf", "cannot reload {}: {e}", model_path.display());
            std::process::exit(1);
        }
    };
    let rendered_bytes = match verify_persisted(&saved, &loaded, &data) {
        Ok(bytes) => bytes,
        Err(e) => {
            obs::error!("trainperf", "{e}");
            std::process::exit(1);
        }
    };
    let q = saved.meta.positive_fraction;
    let in_memory_positives: Vec<f64> = (0..data.len())
        .map(|i| model.predict_positive_proba_row(&data, i))
        .collect();
    let loaded_positives: Vec<f64> = (0..data.len())
        .map(|i| loaded.forest.predict_positive_proba_row(&data, i))
        .collect();
    assert_eq!(
        forest::PartitionedPredictions::partition(&loaded_positives, q),
        forest::PartitionedPredictions::partition(&in_memory_positives, q),
        "confident/uncertain partition diverged after reload"
    );
    println!(
        "[trainperf] persisted model round-trips bitwise on all {} rows ({} bytes)",
        data.len(),
        rendered_bytes
    );

    println!("\n[trainperf] timings:");
    let (fit_json, _) = timing("forest fit", legacy_fit_ms, fit_ms);
    let (grid_json, grid_speedup) = timing("grid search", legacy_grid_ms, grid_ms);

    let artifact = JsonV::obj(vec![
        ("scale", JsonV::Float(options.scale)),
        ("seed", JsonV::UInt(options.seed)),
        ("examples", data.len().to_json_value()),
        ("features", data.feature_count().to_json_value()),
        ("grid_candidates", candidates.len().to_json_value()),
        ("cv_folds", k.to_json_value()),
        ("results_match", JsonV::Bool(true)),
        (
            "model_roundtrip",
            JsonV::obj(vec![
                ("bytes", JsonV::UInt(rendered_bytes as u64)),
                ("bitwise_identical", JsonV::Bool(true)),
            ]),
        ),
        ("forest_fit", fit_json),
        ("grid_search", grid_json),
        (
            "obs_overhead",
            JsonV::obj(vec![
                ("disabled_ms", JsonV::Float(obs_off_ms)),
                ("enabled_ms", JsonV::Float(obs_on_ms)),
                ("overhead_pct", JsonV::Float(obs_overhead_pct)),
            ]),
        ),
    ]);

    if let Err(e) = std::fs::create_dir_all(&options.out) {
        obs::error!("trainperf", "cannot create {}: {e}", options.out.display());
        std::process::exit(1);
    }
    let path = options.out.join("bench_training.json");
    if let Err(e) = std::fs::write(&path, artifact.render()) {
        obs::error!("trainperf", "write {} failed: {e}", path.display());
        std::process::exit(1);
    }
    println!("\n[trainperf] wrote {}", path.display());

    if grid_speedup < 3.0 {
        obs::warn!(
            "trainperf",
            "grid-search speedup {grid_speedup:.2}x is below the 3x acceptance bar"
        );
    }

    bench::finish_trace(&registry, "trainperf", &options.out);
}
