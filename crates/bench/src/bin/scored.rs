//! `scored` — loads (or trains and saves) a `survdb-model/v1` forest,
//! streams feature rows through the batched scoring engine, and writes
//! `artifacts/scoring.json`.
//!
//! ```text
//! cargo run -p bench --release --bin scored -- [flags]
//!
//! flags: --scale F      population scale for the scoring fleet (default 0.25)
//!        --seed N       master seed (default 2018)
//!        --out DIR      artifact directory (default artifacts/)
//!        --model PATH   load an existing model instead of training one
//!        --tune         when training, grid-search the hyper-parameters
//!                       and persist the provenance (default: single fit)
//! ```
//!
//! Without `--model`, the binary trains on the fixture fleet, saves the
//! model to `OUT/model.json`, reloads it from disk, and scores with the
//! **loaded** copy — `bench::model_source` asserts that the loaded
//! forest reproduces the in-memory predictions bitwise and that
//! save→load→save is byte-identical. The deterministic section of
//! `scoring.json` is byte-stable across thread counts; throughput
//! lives in the nondeterministic section.

use bench::model_source::{fixture_dataset, obtain_model, ModelSpec};
use serve::{score_batch_recursive, score_batch_with, ScoreBench, ScoringTiming};
use std::path::PathBuf;
use std::time::Instant;

fn rate(rows: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        rows as f64 / secs
    } else {
        0.0
    }
}

struct Options {
    scale: f64,
    seed: u64,
    out: PathBuf,
    model: Option<PathBuf>,
    tune: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        scale: 0.25,
        seed: 2018,
        out: PathBuf::from("artifacts"),
        model: None,
        tune: false,
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
                i += 2;
            }
            "--seed" => {
                options.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
                i += 2;
            }
            "--out" => {
                options.out = PathBuf::from(value()?);
                i += 2;
            }
            "--model" => {
                options.model = Some(PathBuf::from(value()?));
                i += 2;
            }
            "--tune" => {
                options.tune = true;
                i += 1;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            obs::error!("scored", "{e}");
            obs::error!(
                "scored",
                "usage: scored [--scale F] [--seed N] [--out DIR] [--model PATH] [--tune]"
            );
            std::process::exit(2);
        }
    };

    let registry = obs::Registry::with_stderr_level(obs::Level::Info);
    let _trace = registry.install();

    println!(
        "[scored] building scoring dataset (scale {}, seed {})",
        options.scale, options.seed
    );
    let data = fixture_dataset(options.scale, options.seed);

    let spec = ModelSpec {
        load_from: options.model.clone(),
        seed: options.seed,
        tune: options.tune,
        save_dir: options.out.clone(),
    };
    let model = match obtain_model(&data, &spec) {
        Ok(m) => {
            println!(
                "[scored] model ready ({} trees, {} features)",
                m.forest.tree_count(),
                m.forest.feature_names().len()
            );
            m
        }
        Err(e) => {
            obs::error!("scored", "{e}");
            std::process::exit(1);
        }
    };

    let kernel = model.kernel();
    let q = model.meta.positive_fraction;

    // Blocked kernel — the default scoring path and the artifact's
    // headline result.
    let batch = score_batch_with(&kernel, &data, q);
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
        obs::error!(
            "scored",
            "kernel parity FAILED: {mismatches} of {} rows differ from the recursive path",
            batch.rows.len()
        );
        std::process::exit(1);
    }

    // Branchless per-row kernel — also held to bitwise parity.
    let rows: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i)).collect();
    let cc = kernel.class_count();
    let mut branchless_probs = vec![0.0; rows.len() * cc];
    for (i, row) in rows.iter().enumerate() {
        kernel.predict_proba_into(row, &mut branchless_probs[i * cc..(i + 1) * cc]);
    }
    for (i, scored) in batch.rows.iter().enumerate() {
        if branchless_probs[i * cc..(i + 1) * cc] != *scored.probabilities {
            obs::error!(
                "scored",
                "kernel parity FAILED: branchless path diverges at row {i}"
            );
            std::process::exit(1);
        }
    }
    println!(
        "[scored] kernel parity OK: {} rows bitwise-identical across recursive, branchless, and blocked paths",
        batch.rows.len()
    );

    println!();
    print!("{}", survdb::report::scoring_block(&summary));

    // Timing: per-path back-to-back best-of-N (consecutive
    // iterations, minimum kept — the steady-state discipline Criterion
    // uses). Each path is measured against its own warm cache: the
    // blocked kernel's claim *is* cache residency, so interleaving it
    // with the recursive walk's evictions would measure the
    // interleaving, not the paths. The parity-checked calls above
    // double as warmup, and results are deterministic (verified
    // bitwise once above), so the timing loops only keep the clock
    // readings.
    // Round counts scale inversely with per-round cost: the kernel
    // paths are milliseconds per round, so they take enough rounds
    // that one scheduler hiccup cannot poison the minimum.
    const FAST_ROUNDS: usize = 16;
    const RECURSIVE_ROUNDS: usize = 4;
    let mut elapsed = f64::INFINITY;
    let mut recursive_elapsed = f64::INFINITY;
    let mut branchless_elapsed = f64::INFINITY;
    for _ in 0..FAST_ROUNDS {
        let started = Instant::now();
        let timed = score_batch_with(&kernel, &data, q);
        elapsed = elapsed.min(started.elapsed().as_secs_f64());
        assert_eq!(timed.rows.len(), batch.rows.len());
    }
    for _ in 0..FAST_ROUNDS {
        let started = Instant::now();
        for (i, row) in rows.iter().enumerate() {
            kernel.predict_proba_into(row, &mut branchless_probs[i * cc..(i + 1) * cc]);
        }
        branchless_elapsed = branchless_elapsed.min(started.elapsed().as_secs_f64());
    }
    for _ in 0..RECURSIVE_ROUNDS {
        let started = Instant::now();
        let timed = score_batch_recursive(&model.forest, &data, q);
        recursive_elapsed = recursive_elapsed.min(started.elapsed().as_secs_f64());
        assert_eq!(timed.rows.len(), batch.rows.len());
    }

    let scorebench = ScoreBench {
        rows: summary.rows,
        recursive_rows_per_second: rate(summary.rows, recursive_elapsed),
        branchless_rows_per_second: rate(summary.rows, branchless_elapsed),
        blocked_rows_per_second: rate(summary.rows, elapsed),
    };
    println!(
        "\n[scored] scorebench: recursive {:.0} rows/s, branchless {:.0} rows/s ({:.2}x), blocked {:.0} rows/s ({:.2}x)",
        scorebench.recursive_rows_per_second,
        scorebench.branchless_rows_per_second,
        scorebench.branchless_speedup(),
        scorebench.blocked_rows_per_second,
        scorebench.blocked_speedup(),
    );

    let timing = ScoringTiming {
        thread_limit: forest::parallel::thread_limit(),
        elapsed_ms: elapsed * 1000.0,
        rows_per_second: rate(summary.rows, elapsed),
        scorebench,
    };
    match serve::write_scoring(&options.out, "scored", &model, &summary, &timing) {
        Ok(path) => println!("\n[scored] wrote {}", path.display()),
        Err(e) => {
            obs::error!("scored", "cannot write scoring artifact: {e}");
            std::process::exit(1);
        }
    }

    bench::finish_trace(&registry, "scored", &options.out);
}
