//! `loadgen` — verification run for the scoring daemon.
//!
//! ```text
//! cargo run -p bench --release --bin loadgen -- [flags]
//!
//! flags: --requests N        total requests to issue (default 200)
//!        --connections N     concurrent clients (default 4)
//!        --rows N            feature rows per request (default 4)
//!        --scale F           population scale for the fixture fleet (default 0.25)
//!        --seed N            master seed (default 2018)
//!        --model PATH        load an existing model instead of training one
//!        --tune              when training, grid-search the hyper-parameters
//!        --workers N         daemon worker threads (default 4)
//!        --out DIR           artifact directory (default artifacts/)
//! ```
//!
//! The generator spawns the daemon in-process on a loopback port with
//! `ServerConfig::default()`'s queue and batch policy, builds a
//! deterministic request corpus from the fixture fleet's feature rows
//! (request `i` carries corpus rows `(i*R + j) % len`), and has each
//! connection issue its next request once the previous response lands.
//! Every 200 response is verified **bitwise** against offline
//! `serve::score_rows` output, and the clients' positive-probability
//! histogram must equal the daemon's drift-monitor live histogram —
//! any mismatch, shed, or transport error fails the run with a nonzero
//! exit. It writes `artifacts/serving.json` (`survdb-serving/v2`):
//! counts, per-stage observation counts and drift histograms under
//! `deterministic`; the daemon knobs and stage timings under
//! `nondeterministic`. It keeps no stopwatch: `perfbench serve` is the
//! open-loop latency measurement.

use bench::model_source::{fixture_dataset, obtain_model, ModelSpec};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use survd::{
    Client, RowScore, ServerConfig, ServingCorpus, ServingCounts, ServingRun, ServingRunConfig,
};

struct Options {
    requests: usize,
    connections: usize,
    rows_per_request: usize,
    scale: f64,
    seed: u64,
    model: Option<PathBuf>,
    tune: bool,
    workers: usize,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        requests: 200,
        connections: 4,
        rows_per_request: 4,
        scale: 0.25,
        seed: 2018,
        model: None,
        tune: false,
        workers: 4,
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
            "--requests" => {
                options.requests = value()?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?;
                i += 2;
            }
            "--connections" => {
                options.connections = value()?
                    .parse()
                    .map_err(|e| format!("bad --connections: {e}"))?;
                i += 2;
            }
            "--rows" => {
                options.rows_per_request =
                    value()?.parse().map_err(|e| format!("bad --rows: {e}"))?;
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
            "--out" => {
                options.out = PathBuf::from(value()?);
                i += 2;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if options.requests == 0 || options.connections == 0 || options.rows_per_request == 0 {
        return Err("--requests, --connections, and --rows must be nonzero".to_string());
    }
    Ok(options)
}

/// What one client connection observed.
#[derive(Default)]
struct ConnectionOutcome {
    ok: u64,
    shed: u64,
    error: u64,
    mismatches: u64,
    histogram: [u64; 10],
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            obs::error!("loadgen", "{e}");
            obs::error!(
                "loadgen",
                "usage: loadgen [--requests N] [--connections N] [--rows N] [--scale F] \
                 [--seed N] [--model PATH] [--tune] [--workers N] [--out DIR]"
            );
            std::process::exit(2);
        }
    };

    let registry = Arc::new(obs::Registry::with_stderr_level(obs::Level::Info));
    let _guard = registry.install();

    println!(
        "[loadgen] building corpus fleet (scale {}, seed {})",
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
            obs::error!("loadgen", "{e}");
            std::process::exit(1);
        }
    };

    // The deterministic corpus: every feature row of the fixture fleet,
    // in dataset order. Request i carries rows (i*R + j) % len.
    let corpus: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i)).collect();
    println!(
        "[loadgen] corpus: {} rows x {} features",
        corpus.len(),
        data.feature_count()
    );

    // Offline ground truth, computed once: the daemon must reproduce
    // these probabilities bitwise no matter how requests coalesce.
    let offline = serve::score_rows(&model.forest, &corpus, model.meta.positive_fraction);
    let expected: Vec<RowScore> = offline.rows.iter().map(RowScore::from_scored).collect();
    let expected_threshold = model.threshold();

    // Drift reference: prefer the training-time score histogram in
    // scoring.json (what a production daemon would be seeded from);
    // fall back to the offline summary of this very corpus, which
    // makes the expected divergence exactly zero.
    let scoring_path = options.out.join(serve::SCORING_FILE);
    let drift_reference = std::fs::read_to_string(&scoring_path)
        .ok()
        .and_then(|text| serve::training_score_histogram(&text).ok())
        .inspect(|_| {
            println!(
                "[loadgen] drift reference: training histogram from {}",
                scoring_path.display()
            );
        })
        .unwrap_or_else(|| {
            println!("[loadgen] drift reference: offline corpus histogram");
            offline.summary().histogram
        });

    let serving_model = model.clone();
    let config = ServerConfig {
        workers: options.workers,
        drift_reference: Some(drift_reference),
        ..ServerConfig::default()
    };
    let handle = match survd::start(serving_model, config.clone(), Some(Arc::clone(&registry))) {
        Ok(h) => h,
        Err(e) => {
            obs::error!("loadgen", "cannot start daemon: {e}");
            std::process::exit(1);
        }
    };
    let addr = handle.addr();
    println!(
        "[loadgen] daemon on {addr} ({} workers, queue {}, batch {} rows / {} ms)",
        config.workers, config.queue_capacity, config.batch.max_rows, config.batch.max_wait_ms
    );
    println!(
        "[loadgen] issuing {} requests x {} rows over {} connections ...",
        options.requests, options.rows_per_request, options.connections
    );

    let corpus = Arc::new(corpus);
    let expected = Arc::new(expected);
    let mut threads = Vec::with_capacity(options.connections);
    for c in 0..options.connections {
        let corpus = Arc::clone(&corpus);
        let expected = Arc::clone(&expected);
        let requests = options.requests;
        let connections = options.connections;
        let rows_per_request = options.rows_per_request;
        let thread = std::thread::Builder::new()
            .name(format!("loadgen-{c}"))
            .spawn(move || {
                let mut outcome = ConnectionOutcome::default();
                let mut client = match Client::connect(addr, Some(Duration::from_secs(30))) {
                    Ok(client) => client,
                    Err(e) => {
                        obs::error!("loadgen", "connection {c}: connect failed: {e}");
                        outcome.error = ((requests + connections - 1 - c) / connections) as u64;
                        return outcome;
                    }
                };
                for i in (c..requests).step_by(connections) {
                    let indices: Vec<usize> = (0..rows_per_request)
                        .map(|j| (i * rows_per_request + j) % corpus.len())
                        .collect();
                    let rows: Vec<Vec<f64>> =
                        indices.iter().map(|&idx| corpus[idx].clone()).collect();
                    let body = survd::render_score_request(&rows);
                    let response = match client.score(&body) {
                        Ok(r) => r,
                        Err(e) => {
                            obs::error!("loadgen", "request {i}: {e}");
                            outcome.error += 1;
                            continue;
                        }
                    };
                    match response.status {
                        200 => {
                            let text = match response.text() {
                                Ok(t) => t,
                                Err(_) => {
                                    obs::error!("loadgen", "request {i}: non-UTF-8 body");
                                    outcome.error += 1;
                                    continue;
                                }
                            };
                            match survd::parse_score_response(text) {
                                Ok(parsed) => {
                                    outcome.ok += 1;
                                    let want: Vec<RowScore> =
                                        indices.iter().map(|&idx| expected[idx].clone()).collect();
                                    // Bitwise: f64 == via shortest-roundtrip JSON.
                                    if parsed.threshold != expected_threshold
                                        || parsed.results != want
                                    {
                                        obs::error!(
                                            "loadgen",
                                            "request {i}: response diverged from offline scoring"
                                        );
                                        outcome.mismatches += 1;
                                    }
                                    for r in &parsed.results {
                                        outcome.histogram[serve::histogram_bucket(r.positive)] += 1;
                                    }
                                }
                                Err(e) => {
                                    obs::error!("loadgen", "request {i}: bad response: {e}");
                                    outcome.error += 1;
                                }
                            }
                        }
                        429 => outcome.shed += 1,
                        status => {
                            obs::error!("loadgen", "request {i}: HTTP {status}");
                            outcome.error += 1;
                        }
                    }
                }
                outcome
            })
            .expect("spawn loadgen connection");
        threads.push(thread);
    }

    let mut counts = ServingCounts {
        requests_sent: options.requests as u64,
        responses_ok: 0,
        responses_shed: 0,
        responses_error: 0,
        rows_scored: 0,
    };
    let mut mismatches = 0u64;
    let mut histogram = [0u64; 10];
    for thread in threads {
        let outcome = thread.join().expect("loadgen connection panicked");
        counts.responses_ok += outcome.ok;
        counts.responses_shed += outcome.shed;
        counts.responses_error += outcome.error;
        mismatches += outcome.mismatches;
        for (total, bucket) in histogram.iter_mut().zip(outcome.histogram) {
            *total += bucket;
        }
    }
    counts.rows_scored = histogram.iter().sum();

    let drift_monitor = handle.drift_monitor();
    let stats = handle.shutdown();
    println!(
        "[loadgen] daemon drained: {} ok, {} shed, {} rows in {} batches (queue peak {})",
        stats.score_ok, stats.score_shed, stats.rows_scored, stats.batches, stats.queue_peak
    );

    // Lifecycle observability: the per-stage sketches the daemon fed
    // through the shared registry and the drift monitor's histograms.
    let run = ServingRun {
        config: ServingRunConfig {
            connections: options.connections,
            requests: options.requests,
            rows_per_request: options.rows_per_request,
        },
        corpus: ServingCorpus {
            rows: corpus.len(),
            seed: options.seed,
        },
        model: &model,
        counts,
        stages: survd::stage_sketches(&registry.snapshot()),
        drift: drift_monitor
            .expect("loadgen always seeds a drift reference")
            .snapshot(),
    };
    println!();
    print!(
        "{}",
        survdb::report::serving_block(&run.counts, &run.stages, &run.drift)
    );
    match survd::write_serving(&options.out, "loadgen", &config, &run) {
        Ok(path) => println!("\n[loadgen] wrote {}", path.display()),
        Err(e) => {
            obs::error!("loadgen", "cannot write serving artifact: {e}");
            std::process::exit(1);
        }
    }

    bench::finish_trace(&registry, "loadgen", &options.out);

    let mut failed = false;
    if counts.responses_ok != counts.requests_sent {
        obs::error!(
            "loadgen",
            "{} of {} requests did not get a 200 ({} shed, {} errors)",
            counts.requests_sent - counts.responses_ok,
            counts.requests_sent,
            counts.responses_shed,
            counts.responses_error
        );
        failed = true;
    }
    if mismatches > 0 {
        obs::error!(
            "loadgen",
            "{mismatches} responses diverged bitwise from offline scoring"
        );
        failed = true;
    }
    if stats.score_ok != counts.responses_ok {
        obs::error!(
            "loadgen",
            "daemon counted {} ok responses, clients saw {}",
            stats.score_ok,
            counts.responses_ok
        );
        failed = true;
    }
    if run.drift.live != histogram {
        obs::error!(
            "loadgen",
            "daemon drift histogram {:?} != client histogram {histogram:?}",
            run.drift.live
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "[loadgen] all {} responses bitwise-identical to offline scoring",
        counts.responses_ok
    );
}
