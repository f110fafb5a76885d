//! `servecheck` — the serve verification run: a clean load phase and a
//! chaos sweep against in-process scoring daemons.
//!
//! ```text
//! cargo run -p bench --release --bin servecheck -- [flags]
//! ```
//!
//! Flags: [`bench::cli::SERVECHECK`]. It builds the fixture fleet's
//! dataset, trains (and saves) the model, cuts the request corpus from
//! the feature rows and computes the offline `serve::score_rows`
//! expectation once, then runs both phases of `survd::verify` over
//! them:
//!
//! - **Load.** A daemon on `ServerConfig::default()`'s queue and batch
//!   policy, its drift monitor seeded from the corpus's own offline
//!   score histogram, takes 200 requests × 4 rows over 4 connections.
//!   After it drains, the stage sketches and drift histograms go into
//!   `serving.json` (`survdb-serving/v2`). No stopwatch: `perfbench
//!   serve` is the open-loop latency measurement.
//! - **Sweep.** A daemon with a tight stall budget (12 reads × 25 ms)
//!   and a 64-row / 1 ms batch takes one clean cell plus every chaos
//!   class at rates 0.5 and 1.0, 16 sequential exchanges per cell, with
//!   reload drills after cells 5, 10 and 15. The outcome ledger goes
//!   into `resilience.json` (`survdb-resilience/v1`), whose
//!   deterministic section is byte-stable across runs and worker counts.
//!
//! Both artifacts must pass their own schema check, and the run writes
//! one `run_trace.json`. Any violation exits 1; a usage error exits 2.

use bench::cli;
use bench::model_source::{fixture_dataset, obtain_model, ModelSpec};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use survd::{
    BatchPolicy, ChaosClass, ResilienceConfig, RowScore, ServerConfig, ServingCorpus, ServingRun,
    ServingRunConfig,
};

/// The load phase's client shape.
const LOAD: ServingRunConfig = ServingRunConfig {
    connections: 4,
    requests: 200,
    rows_per_request: 4,
};

/// Exchanges per sweep cell.
const REQUESTS_PER_CELL: usize = 16;

/// The sweep daemon's admission-queue capacity.
const SWEEP_QUEUE: usize = 64;

fn main() {
    let args = cli::parse_or_exit(&cli::SERVECHECK);
    let (scale, seed) = (
        args.float("--scale").unwrap_or(0.1),
        args.u64("--seed").unwrap_or(2018),
    );
    let workers = args.count("--workers").unwrap_or(4);
    let out = args
        .path("--out")
        .unwrap_or_else(|| PathBuf::from("artifacts"));

    let registry = Arc::new(obs::Registry::with_stderr_level(obs::Level::Info));
    let _guard = registry.install();

    println!("[servecheck] building corpus fleet (scale {scale}, seed {seed})");
    let data = fixture_dataset(scale, seed);
    let spec = ModelSpec {
        load_from: None,
        seed,
        tune: false,
        save_dir: out.clone(),
    };
    let model = obtain_model(&data, &spec).unwrap_or_else(|e| cli::fail("servecheck", e));
    // The deterministic corpus: every feature row of the fixture fleet,
    // in dataset order. Offline ground truth, computed once: the daemon
    // must reproduce it bitwise however requests coalesce.
    let corpus: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i)).collect();
    let offline = serve::score_rows(&model.forest, &corpus, model.meta.positive_fraction);
    let expected: Vec<RowScore> = offline.rows.iter().map(RowScore::from_scored).collect();
    println!(
        "[servecheck] corpus: {} rows x {} features",
        corpus.len(),
        data.feature_count()
    );

    // Load phase. Drift reference: the offline score histogram of this
    // very corpus, never a file another run left in `--out`, so the
    // drift section depends on the flags alone. The live histogram
    // covers the 200 × 4 rows the load run samples from the corpus, so
    // its divergence is small but not zero.
    let config = ServerConfig {
        workers,
        drift_reference: Some(offline.summary().histogram),
        ..ServerConfig::default()
    };
    let handle = survd::start(model.clone(), config.clone(), Some(Arc::clone(&registry)))
        .unwrap_or_else(|e| cli::fail("servecheck", format!("cannot start daemon: {e}")));
    println!(
        "[servecheck] load: {} requests x {} rows over {} connections on {} ({} workers, queue {}, batch {} rows / {} ms)",
        LOAD.requests,
        LOAD.rows_per_request,
        LOAD.connections,
        handle.addr(),
        config.workers,
        config.queue_capacity,
        config.batch.max_rows,
        config.batch.max_wait_ms
    );
    let load = survd::verify::load(&handle, &corpus, &expected, model.threshold(), LOAD);
    let drift_monitor = handle
        .drift_monitor()
        .expect("the load daemon has a drift reference");
    let stats = handle.shutdown();
    println!(
        "[servecheck] load daemon drained: {} ok, {} shed, {} rows in {} batches (queue peak {})",
        stats.score_ok, stats.score_shed, stats.rows_scored, stats.batches, stats.queue_peak
    );
    let run = ServingRun {
        config: LOAD,
        corpus: ServingCorpus {
            rows: corpus.len(),
            seed,
        },
        model: &model,
        counts: load.counts,
        stages: survd::stage_sketches(&registry.snapshot()),
        drift: drift_monitor.snapshot(),
    };
    println!();
    print!(
        "{}",
        survdb::report::serving_block(&run.counts, &run.stages, &run.drift)
    );
    let serving = survd::render_serving("servecheck", &config, &run);
    let mut violations = load.violations + self_check(&serving, survd::validate_serving);
    written(survd::write_serving(&out, "servecheck", &config, &run));

    // Sweep phase.
    let http = survd::http::HttpLimits {
        max_stall_reads: 12,
        ..survd::http::HttpLimits::default()
    };
    let config = ServerConfig {
        workers,
        queue_capacity: SWEEP_QUEUE,
        batch: BatchPolicy {
            max_rows: 64,
            max_wait_ms: 1,
        },
        http,
        idle_timeout_ms: 25,
        ..ServerConfig::default()
    };
    let handle = survd::start(model.clone(), config, Some(Arc::clone(&registry)))
        .unwrap_or_else(|e| cli::fail("servecheck", format!("cannot start daemon: {e}")));
    println!(
        "\n[servecheck] sweep: {REQUESTS_PER_CELL} exchanges per cell on {} ({} workers, queue {SWEEP_QUEUE})",
        handle.addr(),
        workers
    );
    let mut grid: Vec<(Option<ChaosClass>, f64)> = vec![(None, 0.0)];
    for class in ChaosClass::ALL {
        grid.extend([(Some(class), 0.5), (Some(class), 1.0)]);
    }
    let started = Instant::now();
    let (cells, reload, sweep_violations) = survd::verify::sweep(
        &handle,
        &model,
        &corpus,
        &expected,
        &grid,
        REQUESTS_PER_CELL,
        seed,
    );
    let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
    let stats = handle.shutdown();
    for (index, cell) in cells.iter().enumerate() {
        println!(
            "[servecheck] cell {index:>2} {:<16} rate {:.2}: {} ok / {} faulted / {} shed / {} degraded / {} mismatches",
            cell.class, cell.rate, cell.ok, cell.faulted, cell.shed, cell.degraded, cell.mismatches
        );
    }
    println!(
        "[servecheck] sweep daemon drained: {} ok, {} bad requests, {} reloads ok, {} rejected",
        stats.score_ok, stats.bad_requests, stats.reloads_ok, stats.reloads_rejected
    );
    let run_config = ResilienceConfig {
        requests_per_cell: REQUESTS_PER_CELL,
        seed,
        workers,
        queue_capacity: SWEEP_QUEUE,
    };
    let resilience = survd::render_resilience(
        "servecheck",
        &run_config,
        &model,
        &cells,
        &reload,
        elapsed_ms,
    );
    violations += sweep_violations + self_check(&resilience, survd::validate_resilience);
    written(survd::write_resilience(
        &out,
        "servecheck",
        &run_config,
        &model,
        &cells,
        &reload,
        elapsed_ms,
    ));

    bench::finish_trace(&registry, "servecheck", &out);

    if violations > 0 {
        cli::fail("servecheck", format!("{violations} violations"));
    }
    println!(
        "[servecheck] every response matched its contract; {} load and {} sweep bodies bitwise-verified across {} generations",
        load.counts.responses_ok,
        cells.iter().map(|c| c.ok).sum::<u64>(),
        reload.generations
    );
}

/// Runs an artifact's own validator; 1 violation if it refuses.
fn self_check(text: &str, validate: fn(&str) -> Result<(), String>) -> u64 {
    match validate(text) {
        Ok(()) => 0,
        Err(e) => {
            obs::error!("servecheck", "artifact failed its own schema: {e}");
            1
        }
    }
}

fn written(result: std::io::Result<PathBuf>) {
    match result {
        Ok(path) => println!("[servecheck] wrote {}", path.display()),
        Err(e) => cli::fail("servecheck", format!("cannot write an artifact: {e}")),
    }
}
