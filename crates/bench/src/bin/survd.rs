//! `survd` — runs the online scoring daemon against the fixture-fleet
//! model.
//!
//! ```text
//! cargo run -p bench --release --bin survd -- [flags]
//! ```
//!
//! Flags: [`bench::cli::SURVD`]. The daemon sources its model through
//! `bench::model_source` (the same train-or-load path as `scored`),
//! installs an `obs::Registry` that `GET /metrics` renders, and serves
//! until stdin closes or a line is entered — the container-friendly
//! SIGTERM equivalent — then drains gracefully: every admitted request
//! is scored and answered before the process exits. At drain it prints
//! the outcome counts, per-stage sketches and drift histograms (the
//! same ones `/metrics` serves live) and writes `OUT/run_trace.json`.

use bench::cli;
use bench::model_source::{fixture_dataset, obtain_model, ModelSpec};
use std::io::BufRead;
use std::path::PathBuf;
use std::sync::Arc;
use survd::{BatchPolicy, ServerConfig};

fn main() {
    let args = cli::parse_or_exit(&cli::SURVD);
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
    let mut config = ServerConfig {
        addr: args.text("--addr").unwrap_or("127.0.0.1:7979").to_string(),
        workers: args.count("--workers").unwrap_or(4),
        queue_capacity: args.count("--queue").unwrap_or(128),
        batch: BatchPolicy {
            max_rows: args.count("--batch-rows").unwrap_or(64),
            max_wait_ms: args.u64("--batch-wait-ms").unwrap_or(2),
        },
        request_deadline_ms: args.u64("--deadline-ms").unwrap_or(0),
        ..ServerConfig::default()
    };

    let registry = Arc::new(obs::Registry::with_stderr_level(obs::Level::Info));
    let _guard = registry.install();

    println!("[survd] building training dataset (scale {scale}, seed {seed})");
    let data = fixture_dataset(scale, seed);
    let model = obtain_model(&data, &spec).unwrap_or_else(|e| cli::fail("survd", e));
    println!(
        "[survd] model ready: {} trees, {} features, threshold {:.4}",
        model.forest.tree_count(),
        model.forest.feature_names().len(),
        model.threshold()
    );

    // Drift reference: the training-time score histogram from
    // scoring.json when present; otherwise an all-zero reference,
    // which still counts live scores but reports zero divergence.
    let scoring_path = spec.save_dir.join(serve::SCORING_FILE);
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

    config.drift_reference = Some(drift_reference);
    let handle = survd::start(model, config.clone(), Some(Arc::clone(&registry)))
        .unwrap_or_else(|e| cli::fail("survd", format!("cannot bind {}: {e}", config.addr)));
    println!(
        "[survd] serving on http://{} ({} workers, queue {}, batch {} rows / {} ms)",
        handle.addr(),
        config.workers,
        config.queue_capacity,
        config.batch.max_rows,
        config.batch.max_wait_ms
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
    bench::finish_trace(&registry, "survd", &spec.save_dir);
}
