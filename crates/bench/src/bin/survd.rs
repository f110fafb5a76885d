//! `survd` — runs the online scoring daemon against the fixture-fleet
//! model.
//!
//! ```text
//! cargo run -p bench --release --bin survd -- [flags]
//!
//! flags: --addr A:P         bind address (default 127.0.0.1:7979)
//!        --scale F          population scale for the training fleet (default 0.25)
//!        --seed N           master seed (default 2018)
//!        --model PATH       load an existing model instead of training one
//!        --tune             when training, grid-search the hyper-parameters
//!        --workers N        connection workers (default 4)
//!        --queue N          admission-queue capacity (default 128)
//!        --batch-rows N     micro-batch row threshold (default 64)
//!        --batch-wait-ms N  micro-batch flush deadline (default 2)
//!        --deadline-ms N    request deadline; admitted work older than
//!                           this sheds with 503 (default 0 = off)
//!        --out DIR          model/artifact directory (default artifacts/)
//! ```
//!
//! The daemon sources its model through `bench::model_source` (the
//! same train-or-load path as `scored`), installs an `obs::Registry`
//! that `GET /metrics` renders, and serves until stdin closes or a
//! line is entered — the container-friendly SIGTERM equivalent — then
//! drains gracefully: every admitted request is scored and answered
//! before the process exits. At drain it prints the outcome counts,
//! per-stage sketches and drift histograms (the same ones `/metrics`
//! serves live) and writes `OUT/run_trace.json`.

use bench::model_source::{fixture_dataset, obtain_model, ModelSpec};
use std::io::BufRead;
use std::path::PathBuf;
use std::sync::Arc;
use survd::{BatchPolicy, ServerConfig};

struct Options {
    addr: String,
    scale: f64,
    seed: u64,
    model: Option<PathBuf>,
    tune: bool,
    workers: usize,
    queue: usize,
    batch_rows: usize,
    batch_wait_ms: u64,
    deadline_ms: u64,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        addr: "127.0.0.1:7979".to_string(),
        scale: 0.25,
        seed: 2018,
        model: None,
        tune: false,
        workers: 4,
        queue: 128,
        batch_rows: 64,
        batch_wait_ms: 2,
        deadline_ms: 0,
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
            "--addr" => {
                options.addr = value()?.clone();
                i += 2;
            }
            "--scale" => {
                options.scale = value()?.parse().map_err(|e| format!("bad --scale: {e}"))?;
                i += 2;
            }
            "--seed" => {
                options.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
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
            "--workers" => {
                options.workers = value()?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
                i += 2;
            }
            "--queue" => {
                options.queue = value()?.parse().map_err(|e| format!("bad --queue: {e}"))?;
                i += 2;
            }
            "--batch-rows" => {
                options.batch_rows = value()?
                    .parse()
                    .map_err(|e| format!("bad --batch-rows: {e}"))?;
                i += 2;
            }
            "--batch-wait-ms" => {
                options.batch_wait_ms = value()?
                    .parse()
                    .map_err(|e| format!("bad --batch-wait-ms: {e}"))?;
                i += 2;
            }
            "--deadline-ms" => {
                options.deadline_ms = value()?
                    .parse()
                    .map_err(|e| format!("bad --deadline-ms: {e}"))?;
                i += 2;
            }
            "--out" => {
                options.out = PathBuf::from(value()?);
                i += 2;
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
            obs::error!("survd", "{e}");
            obs::error!(
                "survd",
                "usage: survd [--addr A:P] [--scale F] [--seed N] [--model PATH] [--tune] \
                 [--workers N] [--queue N] [--batch-rows N] [--batch-wait-ms N] \
                 [--deadline-ms N] [--out DIR]"
            );
            std::process::exit(2);
        }
    };

    let registry = Arc::new(obs::Registry::with_stderr_level(obs::Level::Info));
    let _guard = registry.install();

    println!(
        "[survd] building training dataset (scale {}, seed {})",
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
        Ok(m) => m,
        Err(e) => {
            obs::error!("survd", "{e}");
            std::process::exit(1);
        }
    };
    println!(
        "[survd] model ready: {} trees, {} features, threshold {:.4}",
        model.forest.tree_count(),
        model.forest.feature_names().len(),
        model.threshold()
    );

    // Drift reference: the training-time score histogram from
    // scoring.json when present; otherwise an all-zero reference,
    // which still counts live scores but reports zero divergence.
    let scoring_path = options.out.join(serve::SCORING_FILE);
    let drift_reference = std::fs::read_to_string(&scoring_path)
        .ok()
        .and_then(|text| serve::training_score_histogram(&text).ok())
        .inspect(|_| {
            println!(
                "[survd] drift reference: training histogram from {}",
                scoring_path.display()
            );
        })
        .unwrap_or_else(|| {
            println!("[survd] drift reference: none found, using zero histogram");
            [0; 10]
        });

    let config = ServerConfig {
        addr: options.addr.clone(),
        workers: options.workers,
        queue_capacity: options.queue,
        batch: BatchPolicy {
            max_rows: options.batch_rows,
            max_wait_ms: options.batch_wait_ms,
        },
        request_deadline_ms: options.deadline_ms,
        drift_reference: Some(drift_reference),
        ..ServerConfig::default()
    };
    let handle = match survd::start(model, config, Some(Arc::clone(&registry))) {
        Ok(h) => h,
        Err(e) => {
            obs::error!("survd", "cannot bind {}: {e}", options.addr);
            std::process::exit(1);
        }
    };
    println!(
        "[survd] serving on http://{} ({} workers, queue {}, batch {} rows / {} ms)",
        handle.addr(),
        options.workers,
        options.queue,
        options.batch_rows,
        options.batch_wait_ms
    );
    println!(
        "[survd] POST /score | POST /reload | GET /healthz | GET /metrics — enter (or close stdin) to drain and exit"
    );

    // Block until stdin yields a line or closes; either way, drain.
    let mut line = String::new();
    let _ = std::io::stdin().lock().read_line(&mut line);

    println!("[survd] draining ...");
    let drift_monitor = handle.drift_monitor();
    let stats = handle.shutdown();
    println!(
        "[survd] drained: {} ok, {} shed, {} unavailable, {} rows in {} batches (queue peak {})",
        stats.score_ok,
        stats.score_shed,
        stats.score_unavailable,
        stats.rows_scored,
        stats.batches,
        stats.queue_peak
    );

    let requests_sent =
        stats.score_ok + stats.score_shed + stats.score_degraded + stats.score_unavailable;
    let counts = survd::ServingCounts {
        requests_sent,
        responses_ok: stats.score_ok,
        responses_shed: stats.score_shed,
        responses_error: stats.score_degraded + stats.score_unavailable,
        rows_scored: stats.rows_scored,
    };
    let drift = drift_monitor
        .expect("survd always seeds a drift reference")
        .snapshot();
    println!();
    print!(
        "{}",
        survdb::report::serving_block(
            &counts,
            &survd::stage_sketches(&registry.snapshot()),
            &drift
        )
    );
    bench::finish_trace(&registry, "survd", &options.out);
}
