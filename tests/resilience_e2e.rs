//! Loopback end-to-end tests for `survd`'s resilience features,
//! pinning this PR's acceptance properties:
//!
//! 1. **Typed refusals under chaos** — every chaos class driven at
//!    rate 1.0 against a live daemon gets exactly its contracted
//!    reaction (400/408/413 typed refusal, 200 for slow-loris, silence
//!    for mid-body resets), and the daemon keeps serving clean
//!    requests afterwards.
//! 2. **Crash-safe hot-swap** — reloads under concurrent scoring load
//!    drop zero admitted requests; every 200 body is bitwise identical
//!    to the offline scores of the generation stamped on it, so no
//!    batch ever mixes generations.
//! 3. **Corrupt candidates are refused** — a corrupted reload body
//!    answers 422 with a typed error while the old generation keeps
//!    serving, byte-for-byte unchanged.
//! 4. **Graceful degradation** — with a request deadline configured
//!    and the batcher stalled, late jobs shed with 503 + `Retry-After`
//!    instead of wasting scoring slots, and the daemon recovers as
//!    soon as the stall clears.
//! 5. **Sweep determinism** — the chaos outcome ledger of a
//!    `survd::verify::sweep` run (the loop `servecheck` ships) for a
//!    fixed seed renders a byte-identical deterministic artifact
//!    section across a 1-worker and an 8-worker daemon, and an
//!    expectation one ULP off fails the sweep.
//! 6. **Hostile bodies** — a body nested far past the parser's depth
//!    limit and one long string, each just under the body cap, get a
//!    4xx promptly and the daemon keeps serving correct 200s.
//! 7. **Model-sized reloads** — `/reload` has its own body cap, so a
//!    valid model larger than the 1 MiB `/score` cap swaps in.
//!
//! Tests share the process-global forest thread limit and obs registry
//! slot, so they serialize on one mutex.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use survd::chaos::{self, ChaosClass, ChaosPlan, Expect, Outcome};
use survd::{BatchPolicy, Client, RowScore, ServerConfig};

fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic synthetic dataset shared by every fixture model.
fn dataset() -> forest::Dataset {
    let mut data = forest::Dataset::new(vec!["x0".into(), "x1".into(), "x2".into()], 2);
    for i in 0..200 {
        let x0 = i as f64 / 200.0;
        let x1 = ((i * 53) % 200) as f64 / 200.0;
        let x2 = ((i * 17) % 23) as f64 / 23.0;
        data.push(vec![x0, x1, x2], (x0 * 0.7 + x1 * 0.3 > 0.5) as usize);
    }
    data
}

/// Trains a model over [`dataset`] with the given seed. Different
/// seeds give different forests over the *same* feature schema — the
/// shape hot-swap accepts.
fn model_with_seed(seed: u64) -> serve::SavedModel {
    let data = dataset();
    let params = forest::RandomForestParams {
        n_trees: 10,
        ..forest::RandomForestParams::default()
    };
    let forest = forest::RandomForest::fit(&data, &params, seed);
    serve::SavedModel::new(
        forest,
        serve::ModelMeta {
            positive_fraction: data.class_fraction(1),
            seed,
            params,
            grid: None,
        },
    )
}

fn fixture() -> &'static (serve::SavedModel, Vec<Vec<f64>>) {
    static FIXTURE: OnceLock<(serve::SavedModel, Vec<Vec<f64>>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = dataset();
        let corpus = (0..data.len()).map(|i| data.row(i)).collect();
        (model_with_seed(11), corpus)
    })
}

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect(addr, Some(Duration::from_secs(30))).expect("connect to daemon")
}

/// Offline per-row scores for `model` over `corpus`, in wire form.
fn offline_scores(model: &serve::SavedModel, corpus: &[Vec<f64>]) -> Vec<RowScore> {
    serve::score_rows(&model.forest, corpus, model.meta.positive_fraction)
        .rows
        .iter()
        .map(RowScore::from_scored)
        .collect()
}

#[test]
fn reload_generations_score_bitwise_identically_under_the_kernel() {
    let _guard = serialized();
    let (initial, corpus) = fixture();
    let replacement = model_with_seed(29);

    // Per-model truth through the prepared kernel (the path the
    // daemon serves from), cross-checked row by row against the
    // recursive walk before the daemon is involved at all.
    let models = [initial.clone(), replacement.clone()];
    let truth: Vec<Vec<RowScore>> = models
        .iter()
        .map(|m| {
            let batch = serve::score_rows_with(&m.kernel(), corpus, m.meta.positive_fraction);
            for (row, scored) in corpus.iter().zip(&batch.rows) {
                assert_eq!(
                    scored.probabilities,
                    m.forest.predict_proba(row),
                    "kernel diverged from the recursive walk offline"
                );
            }
            batch.rows.iter().map(RowScore::from_scored).collect()
        })
        .collect();

    let handle =
        survd::start(initial.clone(), ServerConfig::default(), None).expect("start daemon");
    let mut client = connect(handle.addr());
    let renders = [initial.render(), replacement.render()];

    // Generation g serves models[(g + 1) % 2]; score the whole corpus
    // under each generation and hold the wire scores to the offline
    // kernel truth, bitwise, across repeated hot-swaps.
    for swap in 0..4usize {
        let response = client
            .score(&survd::render_score_request(corpus))
            .expect("score request");
        assert_eq!(response.status, 200);
        let parsed = survd::parse_score_response(response.text().expect("utf8"))
            .expect("valid score response");
        assert_eq!(parsed.generation, swap as u64 + 1);
        let model_idx = (parsed.generation as usize + 1) % 2;
        assert_eq!(parsed.threshold, models[model_idx].threshold());
        assert_eq!(
            parsed.results, truth[model_idx],
            "generation {} diverged from its offline kernel scores",
            parsed.generation
        );

        let candidate = &renders[(swap + 1) % 2];
        let reload = client
            .request("POST", "/reload", candidate.as_bytes())
            .expect("reload request");
        assert_eq!(reload.status, 200, "{:?}", reload.text());
    }

    let stats = handle.shutdown();
    assert_eq!(stats.reloads_ok, 4);
    assert_eq!(stats.reloads_rejected, 0);
}

#[test]
fn every_chaos_class_gets_its_contracted_reaction() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    let config = ServerConfig {
        workers: 2,
        idle_timeout_ms: 20,
        http: survd::http::HttpLimits {
            max_stall_reads: 8,
            ..survd::http::HttpLimits::default()
        },
        ..ServerConfig::default()
    };
    let max_body = config.http.max_body_bytes;
    let handle = survd::start(model.clone(), config, None).expect("start daemon");
    let addr = handle.addr();
    let expected = offline_scores(model, corpus);
    let threshold = model.threshold();

    let exchanges_per_class = 4u64;
    for class in ChaosClass::ALL {
        let plan = ChaosPlan::single(class, 1.0, 0xC0FFEE);
        let expect = chaos::expected(Some(class));
        for ordinal in 0..exchanges_per_class {
            let idx = (ordinal as usize * 3) % corpus.len();
            let body = survd::render_score_request(&[corpus[idx].clone()]);
            let outcome = chaos::drive(addr, &plan, ordinal, &body, max_body + 1, 5_000);
            match (&outcome, &expect) {
                (Outcome::Response { status, body }, Expect::Status(want)) => {
                    assert_eq!(
                        status, want,
                        "{class} ordinal {ordinal} answered the wrong status"
                    );
                    if *status == 200 {
                        let parsed = survd::parse_score_response(body).expect("valid 200 body");
                        assert_eq!(parsed.threshold, threshold);
                        assert_eq!(
                            parsed.results,
                            vec![expected[idx].clone()],
                            "{class} 200 body diverged from offline scoring"
                        );
                    }
                }
                (Outcome::NoResponse, Expect::NoResponse) => {}
                (outcome, expect) => {
                    panic!("{class} ordinal {ordinal}: got {outcome:?}, expected {expect:?}")
                }
            }
        }
        // The daemon survived the class: a clean request still works.
        let mut probe = connect(addr);
        let response = probe
            .score(&survd::render_score_request(&[corpus[0].clone()]))
            .expect("clean request after chaos");
        assert_eq!(response.status, 200, "daemon degraded after {class}");
    }

    let stats = handle.shutdown();
    assert_eq!(stats.score_shed, 0, "sequential chaos must never shed");
    // Truncated, garbage, and malformed-JSON classes each produced
    // typed 400s; stalls produced 408s; oversize produced 413s.
    assert!(stats.bad_requests >= 3 * exchanges_per_class);
}

#[test]
fn hot_swap_under_load_never_mixes_generations() {
    let _guard = serialized();
    let (initial, corpus) = fixture();
    let replacement = model_with_seed(29);
    assert_ne!(
        initial.render(),
        replacement.render(),
        "fixture models must differ for the swap to be observable"
    );

    // Offline truth per generation: odd generations serve the initial
    // model, even generations the replacement (we alternate below).
    let by_generation = [
        offline_scores(initial, corpus),
        offline_scores(&replacement, corpus),
    ];
    let thresholds = [initial.threshold(), replacement.threshold()];

    let config = ServerConfig {
        workers: 4,
        batch: BatchPolicy {
            max_rows: 16,
            max_wait_ms: 1,
        },
        ..ServerConfig::default()
    };
    let handle = survd::start(initial.clone(), config, None).expect("start daemon");
    let addr = handle.addr();

    // Scoring clients hammer the daemon while the main thread reloads.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut clients = Vec::new();
    for c in 0..3usize {
        let stop = std::sync::Arc::clone(&stop);
        let by_generation = by_generation.clone();
        clients.push(std::thread::spawn(move || {
            let (_, corpus) = fixture();
            let mut client = connect(addr);
            let mut scored = 0u64;
            let mut r = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let indices: Vec<usize> = (0..3)
                    .map(|j| (c * 61 + r * 7 + j) % corpus.len())
                    .collect();
                let rows: Vec<Vec<f64>> = indices.iter().map(|&i| corpus[i].clone()).collect();
                let response = client
                    .score(&survd::render_score_request(&rows))
                    .expect("score request during reloads");
                assert_eq!(
                    response.status, 200,
                    "admitted request dropped during reload"
                );
                let parsed = survd::parse_score_response(response.text().expect("utf8"))
                    .expect("valid response");
                // The generation stamp decides which offline truth the
                // body must match — bitwise. A mixed-generation batch
                // would diverge from both.
                let truth = &by_generation[(parsed.generation as usize + 1) % 2];
                assert_eq!(
                    parsed.threshold,
                    thresholds[(parsed.generation as usize + 1) % 2]
                );
                let want: Vec<RowScore> = indices.iter().map(|&i| truth[i].clone()).collect();
                assert_eq!(
                    parsed.results, want,
                    "response diverged from generation {}'s offline scores",
                    parsed.generation
                );
                scored += 1;
                r += 1;
            }
            scored
        }));
    }

    // Alternate the two models through several reloads under load.
    let mut admin = connect(addr);
    let renders = [initial.render(), replacement.render()];
    for swap in 0..6usize {
        std::thread::sleep(Duration::from_millis(15));
        let candidate = &renders[(swap + 1) % 2];
        let response = admin
            .request("POST", "/reload", candidate.as_bytes())
            .expect("reload request");
        assert_eq!(response.status, 200, "{:?}", response.text());
        assert_eq!(handle.generation(), swap as u64 + 2);
    }

    std::thread::sleep(Duration::from_millis(15));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut total = 0u64;
    for client in clients {
        total += client.join().expect("client thread");
    }
    assert!(total > 0, "clients never scored anything");

    let stats = handle.shutdown();
    assert_eq!(stats.reloads_ok, 6);
    assert_eq!(stats.reloads_rejected, 0);
    assert_eq!(stats.score_ok, total, "every admitted request was answered");
}

#[test]
fn corrupt_reload_is_refused_while_old_generation_serves() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    let handle = survd::start(model.clone(), ServerConfig::default(), None).expect("start daemon");
    let addr = handle.addr();
    let expected = offline_scores(model, corpus);

    let before = {
        let mut client = connect(addr);
        let response = client
            .score(&survd::render_score_request(&[corpus[5].clone()]))
            .expect("score before reload");
        assert_eq!(response.status, 200);
        response.body.clone()
    };

    let mut admin = connect(addr);
    let rendered = model.render();
    // Three corruption shapes: wrong schema string, truncated JSON,
    // and a schema-compatible model with a different feature set.
    let wrong_schema = rendered.replace("survdb-model/v1", "survdb-model/v9");
    let truncated = rendered[..rendered.len() / 2].to_string();
    for (label, corrupt) in [("wrong schema", &wrong_schema), ("truncated", &truncated)] {
        let response = admin
            .request("POST", "/reload", corrupt.as_bytes())
            .expect("reload request");
        assert_eq!(
            response.status, 422,
            "{label}: corrupt model must be refused"
        );
        let text = response.text().expect("utf8 error body");
        assert!(
            text.contains("candidate model rejected"),
            "{label}: untyped refusal body: {text}"
        );
    }
    assert_eq!(handle.generation(), 1, "no corrupt candidate may swap in");

    // The old generation serves on, byte-for-byte unchanged.
    let mut client = connect(addr);
    let response = client
        .score(&survd::render_score_request(&[corpus[5].clone()]))
        .expect("score after refused reloads");
    assert_eq!(response.status, 200);
    assert_eq!(
        response.body, before,
        "refused reloads must not perturb serving"
    );
    let parsed = survd::parse_score_response(response.text().expect("utf8")).expect("valid");
    assert_eq!(parsed.generation, 1);
    assert_eq!(parsed.results, vec![expected[5].clone()]);

    let stats = handle.shutdown();
    assert_eq!(stats.reloads_rejected, 2);
    assert_eq!(stats.reloads_ok, 0);
}

#[test]
fn hostile_bodies_are_refused_and_the_daemon_keeps_serving() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    let handle = survd::start(model.clone(), ServerConfig::default(), None).expect("start daemon");
    let addr = handle.addr();

    // Just under the default 1 MiB body cap, so the parser sees all of
    // each body: 100k+ levels of nesting once overflowed a worker's
    // stack, and a long string once took seconds of CPU.
    let size = 1024 * 1024 - 64;
    let deep = format!("{{\"rows\":{}", "[".repeat(size));
    let long = format!("\"{}\"", "x".repeat(size));
    for (label, body) in [("deep nesting", &deep), ("long string", &long)] {
        let started = Instant::now();
        let response = connect(addr)
            .request("POST", "/score", body.as_bytes())
            .expect(label);
        assert_eq!(response.status, 400, "{label}: hostile /score body");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{label}: refusal took {:?}",
            started.elapsed()
        );
    }
    let deep_model = format!(
        "{{\"schema\":\"survdb-model/v1\",\"forest\":{}",
        "[".repeat(size)
    );
    let response = connect(addr)
        .request("POST", "/reload", deep_model.as_bytes())
        .expect("reload request");
    assert_eq!(response.status, 422, "deep-nested candidate model");
    assert_eq!(handle.generation(), 1);

    let response = connect(addr)
        .score(&survd::render_score_request(corpus))
        .expect("score after hostile bodies");
    assert_eq!(response.status, 200);
    let parsed = survd::parse_score_response(response.text().expect("utf8")).expect("valid");
    assert_eq!(parsed.generation, 1);
    assert_eq!(parsed.results, offline_scores(model, corpus));

    let stats = handle.shutdown();
    assert_eq!(stats.reloads_rejected, 1);
    assert_eq!(stats.reloads_ok, 0);
}

#[test]
fn model_over_the_score_body_cap_reloads() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    // Same feature schema, enough trees that the document outgrows the
    // 1 MiB `/score` body cap the way a default-scale model does.
    let data = dataset();
    let params = forest::RandomForestParams {
        n_trees: 640,
        ..forest::RandomForestParams::default()
    };
    let big = serve::SavedModel::new(
        forest::RandomForest::fit(&data, &params, 41),
        serve::ModelMeta {
            positive_fraction: data.class_fraction(1),
            seed: 41,
            params,
            grid: None,
        },
    );
    let document = big.render();
    let config = ServerConfig::default();
    assert!(
        document.len() > config.http.max_body_bytes,
        "fixture model is only {} bytes",
        document.len()
    );
    assert!(document.len() <= survd::server::MAX_RELOAD_BODY_BYTES);
    let handle = survd::start(model.clone(), config, None).expect("start daemon");
    let mut client = connect(handle.addr());

    let response = client
        .request("POST", "/reload", document.as_bytes())
        .expect("reload request");
    assert_eq!(response.status, 200, "{:?}", response.text());
    assert_eq!(handle.generation(), 2);

    // The big model now serves, bitwise equal to its offline scores.
    // (The 1 MiB `/score` cap itself is pinned by the oversized-frame
    // chaos class.)
    let response = client
        .score(&survd::render_score_request(corpus))
        .expect("score after reload");
    assert_eq!(response.status, 200);
    let parsed = survd::parse_score_response(response.text().expect("utf8")).expect("valid");
    assert_eq!(parsed.generation, 2);
    assert_eq!(parsed.results, offline_scores(&big, corpus));

    let stats = handle.shutdown();
    assert_eq!(stats.reloads_ok, 1);
    assert_eq!(stats.reloads_rejected, 0);
}

#[test]
fn deadline_sheds_late_work_with_503_and_recovers() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    // One worker per in-flight client: each worker parks in its
    // response slot while the batcher is paused, so all three jobs
    // must be admitted concurrently.
    let config = ServerConfig {
        workers: 4,
        request_deadline_ms: 30,
        ..ServerConfig::default()
    };
    let handle = survd::start(model.clone(), config, None).expect("start daemon");
    let addr = handle.addr();

    // Stall the batcher so admitted jobs age past their deadline.
    handle.pause_batcher();
    let mut clients = Vec::new();
    for row in corpus.iter().take(3).cloned() {
        clients.push(std::thread::spawn(move || {
            let mut client = connect(addr);
            let response = client
                .score(&survd::render_score_request(&[row]))
                .expect("request");
            let retry_after = response.header("retry-after").map(str::to_string);
            (response.status, retry_after)
        }));
    }
    // Wait until all three jobs are actually queued, then let them age
    // well past the 30 ms deadline before resuming: the flush must
    // shed them as degraded rather than score stale work.
    let admitted_by = Instant::now() + Duration::from_secs(10);
    while handle.stats().queue_peak < 3 {
        assert!(Instant::now() < admitted_by, "jobs never queued");
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(120));
    handle.resume_batcher();

    for client in clients {
        let (status, retry_after) = client.join().expect("client thread");
        assert_eq!(status, 503, "late work must shed with 503");
        assert_eq!(
            retry_after.as_deref(),
            Some("1"),
            "degraded responses must carry Retry-After"
        );
    }

    // Recovery: with the batcher live again, fresh requests score
    // normally and bitwise-match offline truth.
    let expected = offline_scores(model, corpus);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = connect(addr);
        let response = client
            .score(&survd::render_score_request(&[corpus[7].clone()]))
            .expect("request after recovery");
        if response.status == 200 {
            let parsed =
                survd::parse_score_response(response.text().expect("utf8")).expect("valid");
            assert_eq!(parsed.results, vec![expected[7].clone()]);
            break;
        }
        assert!(Instant::now() < deadline, "daemon never recovered");
        std::thread::sleep(Duration::from_millis(10));
    }

    let stats = handle.shutdown();
    assert_eq!(stats.score_degraded, 3, "exactly the stalled jobs degrade");
    assert_eq!(stats.score_unavailable, 0);
}

/// The miniature sweep grid: a clean cell and four classes at rate
/// 0.5, so one reload drill (and its two probes) runs after the fifth.
const MINI_GRID: [(Option<ChaosClass>, f64); 5] = [
    (None, 0.0),
    (Some(ChaosClass::TruncatedFrame), 0.5),
    (Some(ChaosClass::MalformedJson), 0.5),
    (Some(ChaosClass::GarbageFrame), 0.5),
    (Some(ChaosClass::OversizedFrame), 0.5),
];

/// Exchanges per miniature sweep cell.
const MINI_REQUESTS: usize = 8;

/// Runs [`MINI_GRID`] through `survd::verify::sweep` against a
/// `workers`-wide daemon with admission capacity `queue`.
fn run_mini_sweep(
    workers: usize,
    queue: usize,
    seed: u64,
    expected: &[RowScore],
) -> (Vec<survd::CellOutcome>, survd::ReloadOutcome, u64) {
    let (model, corpus) = fixture();
    let config = ServerConfig {
        workers,
        queue_capacity: queue,
        idle_timeout_ms: 20,
        http: survd::http::HttpLimits {
            max_stall_reads: 8,
            ..survd::http::HttpLimits::default()
        },
        ..ServerConfig::default()
    };
    let handle = survd::start(model.clone(), config, None).expect("start daemon");
    let outcome = survd::verify::sweep(
        &handle,
        model,
        corpus,
        expected,
        &MINI_GRID,
        MINI_REQUESTS,
        seed,
    );
    handle.shutdown();
    outcome
}

fn mini_config(workers: usize, queue: usize, seed: u64) -> survd::ResilienceConfig {
    survd::ResilienceConfig {
        requests_per_cell: MINI_REQUESTS,
        seed,
        workers,
        queue_capacity: queue,
    }
}

/// Runs the miniature sweep, which must pass, and returns the rendered
/// deterministic artifact section.
fn mini_sweep(workers: usize, queue: usize, seed: u64) -> String {
    let (model, corpus) = fixture();
    let (cells, reload, violations) =
        run_mini_sweep(workers, queue, seed, &offline_scores(model, corpus));
    assert_eq!(violations, 0, "{cells:?} {reload:?}");
    let config = mini_config(workers, queue, seed);
    survd::deterministic_resilience_section(&config, model, &cells, &reload)
}

/// The sweep's bitwise check cannot pass vacuously: an expectation one
/// ULP off on a single row is counted as a mismatch wherever that row
/// comes back in a 200, the post-verdict probes catch it too, and the
/// artifact refuses to validate.
#[test]
fn sweep_counts_a_one_ulp_divergence_as_a_failure() {
    let _guard = serialized();
    let (model, corpus) = fixture();
    let mut expected = offline_scores(model, corpus);
    expected[0].positive = f64::from_bits(expected[0].positive.to_bits() + 1);
    let (cells, reload, violations) = run_mini_sweep(2, 64, 0x5EED, &expected);
    // Row 0 rides on ordinal 0 of each cell; the clean cell answers it.
    assert_eq!(cells[0].mismatches, 1);
    let mismatches: u64 = cells.iter().map(|c| c.mismatches).sum();
    // The reload verdicts themselves were right.
    assert_eq!(
        reload,
        survd::ReloadOutcome {
            attempted: 2,
            admitted: 1,
            rejected: 1,
            generations: 2,
        }
    );
    // Both probes carry row 0: each is one more violation.
    assert_eq!(violations, mismatches + 2);
    let text = survd::render_resilience(
        "resilience_e2e",
        &mini_config(2, 64, 0x5EED),
        model,
        &cells,
        &reload,
        0.0,
    );
    let err = survd::validate_resilience(&text).expect_err("a mismatch fails the artifact");
    assert!(err.contains("mismatches"), "{err}");
}

#[test]
fn sweep_outcomes_are_byte_identical_across_worker_counts() {
    let _guard = serialized();
    let narrow = mini_sweep(1, 4, 0x5EED);
    let wide = mini_sweep(8, 64, 0x5EED);
    assert_eq!(
        narrow, wide,
        "worker count leaked into deterministic chaos outcomes"
    );
    let replay = mini_sweep(1, 4, 0x5EED);
    assert_eq!(narrow, replay, "same seed must replay byte-identically");
}
