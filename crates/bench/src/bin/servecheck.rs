//! `servecheck` — the serve verification run: a clean load phase and a
//! chaos sweep against in-process scoring daemons.
//!
//! ```text
//! cargo run -p bench --release --bin servecheck -- [flags]
//!
//! flags: --scale F     population scale for the fixture fleet (default 0.1)
//!        --seed N      master seed (default 2018)
//!        --workers N   daemon worker threads (default 4)
//!        --out DIR     artifact directory (default artifacts/)
//! ```
//!
//! It builds the fixture fleet's dataset, trains (and saves) the model,
//! cuts the request corpus from the feature rows and computes the
//! offline `serve::score_rows` expectation once, then runs both phases
//! of `survd::verify` over them:
//!
//! - **Load.** A daemon on `ServerConfig::default()`'s queue and batch
//!   policy, its drift monitor seeded from `<out>/scoring.json`'s
//!   training histogram when present (else the corpus's own offline
//!   histogram), takes 200 requests × 4 rows over 4 connections. After
//!   it drains, the stage sketches and drift histograms go into
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

struct Options {
    scale: f64,
    seed: u64,
    workers: usize,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        scale: 0.1,
        seed: 2018,
        workers: 4,
        out: PathBuf::from("artifacts"),
    };
    for pair in args.chunks(2) {
        let flag = pair[0].as_str();
        let value = || {
            pair.get(1)
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag}: {e}");
        match flag {
            "--scale" => options.scale = value()?.parse().map_err(|e| bad(&e))?,
            "--seed" => options.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--workers" => options.workers = value()?.parse().map_err(|e| bad(&e))?,
            "--out" => options.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if options.workers == 0 {
        return Err("--workers must be nonzero".to_string());
    }
    Ok(options)
}

/// Logs `message` and exits 1: the run cannot go on.
fn die<T>(message: String) -> T {
    obs::error!("servecheck", "{message}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse(&args).unwrap_or_else(|e| {
        obs::error!("servecheck", "{e}");
        obs::error!(
            "servecheck",
            "usage: servecheck [--scale F] [--seed N] [--workers N] [--out DIR]"
        );
        std::process::exit(2);
    });

    let registry = Arc::new(obs::Registry::with_stderr_level(obs::Level::Info));
    let _guard = registry.install();

    println!(
        "[servecheck] building corpus fleet (scale {}, seed {})",
        options.scale, options.seed
    );
    let data = fixture_dataset(options.scale, options.seed);
    let spec = ModelSpec {
        load_from: None,
        seed: options.seed,
        tune: false,
        save_dir: options.out.clone(),
    };
    let model = obtain_model(&data, &spec).unwrap_or_else(die);
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

    // Load phase. Drift reference: the training-time score histogram in
    // scoring.json (what a production daemon is seeded from), else the
    // offline summary of this very corpus, whose divergence is zero.
    let scoring_path = options.out.join(serve::SCORING_FILE);
    let drift_reference = match std::fs::read_to_string(&scoring_path)
        .ok()
        .and_then(|text| serve::training_score_histogram(&text).ok())
    {
        Some(histogram) => {
            println!(
                "[servecheck] drift reference: training histogram from {}",
                scoring_path.display()
            );
            histogram
        }
        None => {
            println!("[servecheck] drift reference: offline corpus histogram");
            offline.summary().histogram
        }
    };
    let config = ServerConfig {
        workers: options.workers,
        drift_reference: Some(drift_reference),
        ..ServerConfig::default()
    };
    let handle = survd::start(model.clone(), config.clone(), Some(Arc::clone(&registry)))
        .unwrap_or_else(|e| die(format!("cannot start daemon: {e}")));
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
            seed: options.seed,
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
    written(survd::write_serving(
        &options.out,
        "servecheck",
        &config,
        &run,
    ));

    // Sweep phase.
    let http = survd::http::HttpLimits {
        max_stall_reads: 12,
        ..survd::http::HttpLimits::default()
    };
    let config = ServerConfig {
        workers: options.workers,
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
        .unwrap_or_else(|e| die(format!("cannot start daemon: {e}")));
    println!(
        "\n[servecheck] sweep: {REQUESTS_PER_CELL} exchanges per cell on {} ({} workers, queue {SWEEP_QUEUE})",
        handle.addr(),
        options.workers
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
        options.seed,
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
        seed: options.seed,
        workers: options.workers,
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
        &options.out,
        "servecheck",
        &run_config,
        &model,
        &cells,
        &reload,
        elapsed_ms,
    ));

    bench::finish_trace(&registry, "servecheck", &options.out);

    if violations > 0 {
        obs::error!("servecheck", "{violations} violations");
        std::process::exit(1);
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
        Err(e) => die(format!("cannot write an artifact: {e}")),
    }
}
