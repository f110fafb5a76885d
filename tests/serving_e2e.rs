//! Loopback end-to-end tests for the `survd` scoring daemon: real TCP
//! connections against a running server, pinning the PR's three
//! acceptance properties plus endpoint behavior.
//!
//! 1. **Coalescing transparency** — daemon responses are bitwise
//!    identical to offline `serve::score_rows`, across worker counts
//!    and batch policies.
//! 2. **Deterministic load-shedding** — with the batcher paused and
//!    queue capacity K, exactly K concurrent requests are admitted and
//!    every further one sheds with 429 + `Retry-After`; the admission
//!    queue's high-water mark never exceeds K (bounded memory).
//! 3. **Graceful drain** — shutdown scores and answers every admitted
//!    request before returning, even from a paused backlog.
//!
//! Tests share the process-global forest thread limit and the obs
//! registry slot, so they serialize on one mutex.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use survd::{BatchPolicy, Client, RowScore, ServerConfig};

/// Serializes the tests: they touch process-global state (the obs
/// registry slot) and each spins up threads; running them one at a
/// time keeps assertions about counters and queues exact.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small deterministic model + scoring corpus, built once.
fn fixture() -> &'static (serve::SavedModel, Vec<Vec<f64>>) {
    static FIXTURE: OnceLock<(serve::SavedModel, Vec<Vec<f64>>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut data = forest::Dataset::new(vec!["x0".into(), "x1".into(), "x2".into()], 2);
        for i in 0..200 {
            let x0 = i as f64 / 200.0;
            let x1 = ((i * 53) % 200) as f64 / 200.0;
            let x2 = ((i * 17) % 23) as f64 / 23.0;
            data.push(vec![x0, x1, x2], (x0 * 0.7 + x1 * 0.3 > 0.5) as usize);
        }
        let params = forest::RandomForestParams {
            n_trees: 10,
            ..forest::RandomForestParams::default()
        };
        let forest = forest::RandomForest::fit(&data, &params, 11);
        let model = serve::SavedModel::new(
            forest,
            serve::ModelMeta {
                positive_fraction: data.class_fraction(1),
                seed: 11,
                params,
                grid: None,
            },
        );
        let corpus = (0..data.len()).map(|i| data.row(i)).collect();
        (model, corpus)
    })
}

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect(addr, Some(Duration::from_secs(30))).expect("connect to daemon")
}

#[test]
fn daemon_matches_offline_scoring_across_configs() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    let q = model.meta.positive_fraction;
    let offline = serve::score_rows(&model.forest, corpus, q);
    let expected: Vec<RowScore> = offline.rows.iter().map(RowScore::from_scored).collect();

    // Worker count and batch policy are the two axes coalescing varies
    // over; none of them may leak into response bytes.
    let configs = [(1usize, 1usize, 0u64), (4, 7, 2), (8, 64, 1)];
    for &(workers, max_rows, max_wait_ms) in &configs {
        let config = ServerConfig {
            workers,
            batch: BatchPolicy {
                max_rows,
                max_wait_ms,
            },
            ..ServerConfig::default()
        };
        let handle = survd::start(model.clone(), config, None).expect("start daemon");
        let addr = handle.addr();

        let connections = 3usize;
        let requests_per_connection = 8usize;
        let mut clients = Vec::new();
        for c in 0..connections {
            let expected = expected.clone();
            let threshold = model.threshold();
            clients.push(std::thread::spawn(move || {
                let (_, corpus) = fixture();
                let mut client = connect(addr);
                for r in 0..requests_per_connection {
                    // Request sizes 1..=5, rows drawn deterministically.
                    let size = (c + r) % 5 + 1;
                    let start = (c * 31 + r * 7) % corpus.len();
                    let indices: Vec<usize> =
                        (0..size).map(|j| (start + j) % corpus.len()).collect();
                    let rows: Vec<Vec<f64>> = indices.iter().map(|&i| corpus[i].clone()).collect();
                    let response = client
                        .score(&survd::render_score_request(&rows))
                        .expect("score request");
                    assert_eq!(response.status, 200, "{:?}", response.text());
                    let parsed = survd::parse_score_response(response.text().expect("utf8"))
                        .expect("valid response");
                    assert_eq!(parsed.threshold, threshold, "threshold drifted");
                    assert_eq!(parsed.generation, 1, "no reload happened in this test");
                    let want: Vec<RowScore> =
                        indices.iter().map(|&i| expected[i].clone()).collect();
                    // Bitwise: f64 == through shortest-roundtrip JSON.
                    assert_eq!(
                        parsed.results, want,
                        "config ({workers}, {max_rows}, {max_wait_ms}) connection {c} request {r}"
                    );
                }
            }));
        }
        for client in clients {
            client.join().expect("client thread");
        }
        let stats = handle.shutdown();
        assert_eq!(
            stats.score_ok,
            (connections * requests_per_connection) as u64
        );
        assert_eq!(stats.score_shed, 0);
        assert_eq!(stats.score_unavailable, 0);
        assert!(stats.batches >= 1);
    }
}

#[test]
fn overload_sheds_exactly_beyond_queue_capacity() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    let capacity = 4usize;
    let in_flight = 12usize;
    let config = ServerConfig {
        workers: 8,
        queue_capacity: capacity,
        ..ServerConfig::default()
    };
    let handle = survd::start(model.clone(), config, None).expect("start daemon");
    let addr = handle.addr();

    // Freeze the batcher first: admitted jobs will sit in the queue,
    // so admission fills to exactly `capacity` and stays there.
    handle.pause_batcher();

    let mut clients = Vec::new();
    for c in 0..in_flight {
        let row = corpus[c % corpus.len()].clone();
        clients.push(std::thread::spawn(move || {
            let mut client = connect(addr);
            let response = client
                .score(&survd::render_score_request(&[row]))
                .expect("request");
            let retry_after = response.header("retry-after").map(str::to_string);
            (response.status, retry_after)
        }));
    }

    // Wait until the excess requests have all shed (the admitted ones
    // are parked in their response slots).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = handle.stats();
        if stats.score_shed == (in_flight - capacity) as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sheds never reached {}: {stats:?}",
            in_flight - capacity
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The backlog is visible and bounded while paused.
    let mut probe = connect(addr);
    let health = probe.request("GET", "/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200);
    let health_json = obs::jsonv::parse(health.text().expect("utf8")).expect("healthz json");
    assert_eq!(
        health_json.get("queue_depth"),
        Some(&obs::jsonv::JsonV::UInt(capacity as u64))
    );

    // Unfreeze: the four queued requests complete normally.
    handle.resume_batcher();
    let mut ok = 0usize;
    let mut shed = 0usize;
    for client in clients {
        let (status, retry_after) = client.join().expect("client thread");
        match status {
            200 => ok += 1,
            429 => {
                shed += 1;
                assert_eq!(retry_after.as_deref(), Some("1"), "429 without Retry-After");
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert_eq!(ok, capacity, "exactly the queue capacity completes");
    assert_eq!(shed, in_flight - capacity, "every excess request sheds");

    let stats = handle.shutdown();
    assert_eq!(stats.score_ok, capacity as u64);
    assert_eq!(stats.score_shed, (in_flight - capacity) as u64);
    // Bounded memory: the queue never grew past its capacity.
    assert!(
        stats.queue_peak <= capacity as u64,
        "queue peak {} exceeded capacity {capacity}",
        stats.queue_peak
    );
}

#[test]
fn shutdown_drains_every_admitted_request() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    let q = model.meta.positive_fraction;
    let backlog = 6usize;
    let config = ServerConfig {
        workers: 8,
        queue_capacity: 16,
        ..ServerConfig::default()
    };
    let handle = survd::start(model.clone(), config, None).expect("start daemon");
    let addr = handle.addr();

    // Build a paused backlog of admitted requests.
    handle.pause_batcher();
    let mut clients = Vec::new();
    for row in corpus.iter().take(backlog) {
        let rows = vec![row.clone()];
        let want = serve::score_rows(&model.forest, &rows, q)
            .rows
            .iter()
            .map(RowScore::from_scored)
            .collect::<Vec<_>>();
        clients.push(std::thread::spawn(move || {
            let mut client = connect(addr);
            let response = client
                .score(&survd::render_score_request(&rows))
                .expect("request");
            (response.status, response.body.clone(), want)
        }));
    }
    // Wait until all of the backlog is admitted (visible via healthz).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut probe = connect(addr);
        let health = probe.request("GET", "/healthz", b"").expect("healthz");
        let json = obs::jsonv::parse(health.text().expect("utf8")).expect("json");
        if json.get("queue_depth") == Some(&obs::jsonv::JsonV::UInt(backlog as u64)) {
            break;
        }
        assert!(Instant::now() < deadline, "backlog never formed");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Shut down WITHOUT resuming: close overrides the pause, and every
    // admitted request must still be scored and answered.
    let stats = handle.shutdown();
    for client in clients {
        let (status, body, want) = client.join().expect("client thread");
        assert_eq!(status, 200, "an admitted request was dropped during drain");
        let text = std::str::from_utf8(&body).expect("utf8");
        let parsed = survd::parse_score_response(text).expect("valid response");
        assert_eq!(
            parsed.results, want,
            "drained response diverged from offline scoring"
        );
    }
    assert_eq!(stats.score_ok, backlog as u64);
    assert_eq!(
        stats.drained_jobs, backlog as u64,
        "all admitted jobs scored after drain began"
    );
}

#[test]
fn healthz_and_metrics_report_server_state() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    let registry = std::sync::Arc::new(obs::Registry::new());
    let obs_guard = registry.install();
    let handle = survd::start(
        model.clone(),
        ServerConfig::default(),
        Some(std::sync::Arc::clone(&registry)),
    )
    .expect("start daemon");
    let mut client = connect(handle.addr());

    let health = client.request("GET", "/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200);
    let json = obs::jsonv::parse(health.text().expect("utf8")).expect("healthz json");
    assert_eq!(
        json.get("status"),
        Some(&obs::jsonv::JsonV::Str("ok".to_string()))
    );
    assert_eq!(json.get("queue_depth"), Some(&obs::jsonv::JsonV::UInt(0)));
    assert_eq!(
        json.get("model_trees"),
        Some(&obs::jsonv::JsonV::UInt(model.forest.tree_count() as u64))
    );

    // One scored request, then the exposition must carry its marks.
    let response = client
        .score(&survd::render_score_request(&[corpus[0].clone()]))
        .expect("score");
    assert_eq!(response.status, 200);
    let metrics = client.request("GET", "/metrics", b"").expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text().expect("utf8");
    assert!(
        text.contains("survdb_counter{name=\"survd.http_200\"}"),
        "{text}"
    );
    assert!(
        text.contains("survdb_counter{name=\"survd.rows_scored\"}"),
        "{text}"
    );
    assert!(text.contains("survd_score"), "{text}");

    handle.shutdown();
    drop(obs_guard);
}

#[test]
fn stage_sketches_and_drift_obey_counting_identities() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    let q = model.meta.positive_fraction;
    let reference = serve::score_rows(&model.forest, corpus, q)
        .summary()
        .histogram;

    let registry = std::sync::Arc::new(obs::Registry::new());
    let obs_guard = registry.install();
    let config = ServerConfig {
        workers: 4,
        drift_reference: Some(reference),
        ..ServerConfig::default()
    };
    let handle = survd::start(
        model.clone(),
        config,
        Some(std::sync::Arc::clone(&registry)),
    )
    .expect("start daemon");
    let drift_monitor = handle.drift_monitor().expect("drift reference was seeded");
    let mut client = connect(handle.addr());

    // 2-row requests: the per-response stages must count responses,
    // the score stage and drift monitor must count rows.
    let requests = 9usize;
    let rows_per_request = 2usize;
    let mut traces = std::collections::HashSet::new();
    for i in 0..requests {
        let rows: Vec<Vec<f64>> = (0..rows_per_request)
            .map(|j| corpus[(i * rows_per_request + j) % corpus.len()].clone())
            .collect();
        let response = client
            .score(&survd::render_score_request(&rows))
            .expect("score request");
        assert_eq!(response.status, 200);
        let trace = response
            .header("x-trace-id")
            .expect("200 carries x-trace-id")
            .to_string();
        assert_eq!(trace.len(), 16, "trace id is 16 hex chars: {trace}");
        assert!(trace.chars().all(|c| c.is_ascii_hexdigit()), "{trace}");
        traces.insert(trace);
    }
    assert_eq!(traces.len(), requests, "trace ids are distinct per request");

    let stats = handle.shutdown();
    let drift = drift_monitor.snapshot();
    drop(obs_guard);

    assert_eq!(stats.score_ok, requests as u64);
    assert_eq!(stats.rows_scored, (requests * rows_per_request) as u64);

    let [queue_wait, batch_wait, score, write, total] = survd::stage_sketches(&registry.snapshot());
    for (name, sketch) in [
        ("queue_wait", &queue_wait),
        ("batch_wait", &batch_wait),
        ("write", &write),
        ("total", &total),
    ] {
        assert_eq!(
            sketch.total(),
            stats.score_ok,
            "stage {name} observes once per 200 response"
        );
    }
    assert_eq!(
        score.total(),
        stats.rows_scored,
        "score stage observes once per scored row"
    );
    assert_eq!(
        drift.total(),
        stats.rows_scored,
        "drift monitor records every scored probability"
    );
    assert_eq!(drift.reference, reference, "reference side is untouched");
    assert!((0.0..=1.0).contains(&drift.divergence()));
}

#[test]
fn stage_sketches_register_sub_millisecond_stages() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    let registry = std::sync::Arc::new(obs::Registry::new());
    let obs_guard = registry.install();
    let handle = survd::start(
        model.clone(),
        ServerConfig::default(),
        Some(std::sync::Arc::clone(&registry)),
    )
    .expect("start daemon");
    let mut client = connect(handle.addr());
    let requests = 16usize;
    for row in corpus.iter().take(requests) {
        let response = client
            .score(&survd::render_score_request(std::slice::from_ref(row)))
            .expect("score request");
        assert_eq!(response.status, 200);
    }
    let stats = handle.shutdown();
    drop(obs_guard);
    assert_eq!(stats.score_ok, requests as u64);

    // An idle daemon flushes a lone request at once, so its waits are
    // microseconds: they must land in sub-millisecond buckets, not
    // round to 0. Bucket 0 holds exact zeros; the bucket bounded by
    // 0.5 ms is the last one strictly below 1 ms.
    let sub_ms = 1..=obs::sketch::bucket_index(0.5);
    let [queue_wait, batch_wait, _, _, total] = survd::stage_sketches(&registry.snapshot());
    for (name, sketch) in [
        ("queue_wait", &queue_wait),
        ("batch_wait", &batch_wait),
        ("total", &total),
    ] {
        assert_eq!(
            sketch.total(),
            stats.score_ok,
            "stage {name} observes once per 200 response"
        );
        let counts = sketch.counts();
        let non_zero_sub_ms: u64 = sub_ms.clone().filter_map(|i| counts.get(i)).sum();
        assert!(
            non_zero_sub_ms > 0,
            "stage {name} recorded no non-zero sub-millisecond observation: {counts:?}"
        );
    }
}

#[test]
fn frozen_clock_daemon_answers_a_lone_request_at_once() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    let expected: Vec<RowScore> =
        serve::score_rows(&model.forest, corpus, model.meta.positive_fraction)
            .rows
            .iter()
            .map(RowScore::from_scored)
            .collect();
    // The clock never advances, so no timer can ever expire: the
    // request is answered only because an idle batcher flushes at once.
    let clock = std::sync::Arc::new(survd::ManualClock::new());
    let handle = survd::start_with_clock(model.clone(), ServerConfig::default(), None, clock)
        .expect("start daemon");
    // A read timeout turns a batcher that waits on the clock into a
    // failed request instead of a hung test.
    let mut client =
        Client::connect(handle.addr(), Some(Duration::from_secs(5))).expect("connect to daemon");
    let rows: Vec<Vec<f64>> = corpus.iter().skip(40).take(3).cloned().collect();
    let response = client
        .score(&survd::render_score_request(&rows))
        .expect("a lone request is answered without the clock moving");
    assert_eq!(response.status, 200);
    let parsed = survd::parse_score_response(response.text().expect("utf8")).expect("valid");
    assert_eq!(parsed.results, expected[40..43].to_vec());
    let stats = handle.shutdown();
    assert_eq!((stats.score_ok, stats.batches), (1, 1));
}

/// One fixed single-connection load run against a `workers`-wide
/// daemon; returns the rendered serving artifact.
fn serving_artifact_for(workers: usize) -> String {
    let (model, corpus) = fixture();
    let q = model.meta.positive_fraction;
    let reference = serve::score_rows(&model.forest, corpus, q)
        .summary()
        .histogram;
    let registry = std::sync::Arc::new(obs::Registry::new());
    let obs_guard = registry.install();
    let config = ServerConfig {
        workers,
        queue_capacity: 64,
        drift_reference: Some(reference),
        ..ServerConfig::default()
    };
    let handle = survd::start(
        model.clone(),
        config.clone(),
        Some(std::sync::Arc::clone(&registry)),
    )
    .expect("start daemon");
    let drift_monitor = handle.drift_monitor().expect("drift reference was seeded");

    let requests = 12usize;
    let rows_per_request = 3usize;
    let mut client = connect(handle.addr());
    for i in 0..requests {
        let rows: Vec<Vec<f64>> = (0..rows_per_request)
            .map(|j| corpus[(i * rows_per_request + j) % corpus.len()].clone())
            .collect();
        let response = client
            .score(&survd::render_score_request(&rows))
            .expect("score request");
        assert_eq!(response.status, 200);
    }
    let stats = handle.shutdown();
    drop(obs_guard);

    let run = survd::ServingRun {
        config: survd::ServingRunConfig {
            connections: 1,
            requests,
            rows_per_request,
        },
        corpus: survd::ServingCorpus {
            rows: corpus.len(),
            seed: 11,
        },
        model,
        counts: survd::ServingCounts {
            requests_sent: requests as u64,
            responses_ok: stats.score_ok,
            responses_shed: stats.score_shed,
            responses_error: 0,
            rows_scored: stats.rows_scored,
        },
        stages: survd::stage_sketches(&registry.snapshot()),
        drift: drift_monitor.snapshot(),
    };
    survd::render_serving("serving_e2e", &config, &run)
}

/// The serving artifact's deterministic section — outcome counts,
/// per-stage latency observation counts and drift — must not depend on
/// the daemon's worker count; the knobs live only in `nondeterministic`.
#[test]
fn latency_deterministic_section_is_byte_identical_across_worker_counts() {
    let _guard = serialized();
    let full_one = serving_artifact_for(1);
    let full_one_again = serving_artifact_for(1);
    let full_eight = serving_artifact_for(8);
    let section = |text: &str| obs::artifact::deterministic_section_of(text).expect("section");
    let one = section(&full_one);
    assert_eq!(one, section(&full_one_again), "consecutive runs");
    assert_eq!(one, section(&full_eight), "1-worker vs 8-worker daemons");
    survd::validate_serving(&full_one).expect("1-worker artifact is schema-valid");
    survd::validate_serving(&full_eight).expect("8-worker artifact is schema-valid");
    assert_ne!(
        full_one, full_eight,
        "the worker knob lives in the nondeterministic section"
    );
}

#[test]
fn protocol_errors_are_refused_cleanly() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    let config = ServerConfig {
        max_rows_per_request: 4,
        ..ServerConfig::default()
    };
    let handle = survd::start(model.clone(), config, None).expect("start daemon");
    let mut client = connect(handle.addr());

    // All on ONE keep-alive connection: errors must not poison it.
    let bad_json = client.score("this is not json").expect("bad json");
    assert_eq!(bad_json.status, 400);

    let wrong_arity = client
        .score(&survd::render_score_request(&[vec![1.0]]))
        .expect("wrong arity");
    assert_eq!(wrong_arity.status, 400);

    let oversized = client
        .score(&survd::render_score_request(&vec![corpus[0].clone(); 5]))
        .expect("oversized");
    assert_eq!(oversized.status, 413);

    let not_found = client.request("GET", "/nope", b"").expect("404");
    assert_eq!(not_found.status, 404);

    let wrong_method = client.request("GET", "/score", b"").expect("405");
    assert_eq!(wrong_method.status, 405);

    // The connection still works for a valid request afterwards.
    let good = client
        .score(&survd::render_score_request(&[corpus[0].clone()]))
        .expect("good request");
    assert_eq!(good.status, 200);

    let stats = handle.shutdown();
    assert_eq!(stats.score_ok, 1);
    assert_eq!(stats.bad_requests, 4, "400 x2, 413, 405");
    assert_eq!(stats.not_found, 1);
}
