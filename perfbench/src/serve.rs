//! `serve`: open-loop `POST /score` over loopback against an
//! in-process `survd` daemon.
//!
//! Arrivals follow a seeded Poisson schedule and each request carries
//! 1–32 corpus rows. A request's latency runs from its *due* time, not
//! from when a sender got round to it, so a stalled daemon cannot hide
//! its queueing (coordinated omission). The run walks a fixed ladder of
//! offered rates; `low` and `high` are two of its rungs. The
//! end-to-end metrics are the highest offered rate that keeps p90 within
//! 10 ms with no growing backlog, and p50 and p90 at `low`; the traced
//! run adds p50 and p99 at `high` and p99 at `low`.

use crate::report::{self, Outcome};
use crate::score::fixture_model;
use bench::model_source::fixture_dataset;
use forest::parallel::derive_seed;
use serve::SavedModel;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use survd::{
    parse_score_response, render_score_request, BatchPolicy, Client, RowScore, ServerConfig,
    ServerHandle,
};

/// Latency limit of a sustainable rung, milliseconds.
pub const LIMIT_MS: f64 = 10.0;

/// Share of a sustainable rung's requests allowed over [`LIMIT_MS`]:
/// the limit applies to p90. On a two-core host shared with other
/// tenants, interference stalls of 10–25 ms hit a few percent of
/// requests even at the lowest rate, so a p99 limit would measure the
/// neighbours rather than the daemon.
pub const LIMIT_SHARE: f64 = 0.10;

/// Most corpus rows one request carries.
const MAX_ROWS: usize = 32;

/// Shape of the serving run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Scale of the Region-1 fixture fleet: the model's training set
    /// and the request corpus.
    pub fixture_scale: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Offered rates in requests per second, ascending.
    pub ladder: Vec<f64>,
    /// The `low` rung's rate (a ladder entry).
    pub low: f64,
    /// The `high` rung's rate (a ladder entry).
    pub high: f64,
    /// Interleaved rounds the ladder is walked in.
    pub rounds: usize,
}

impl Config {
    /// `low` and `high` sit near ¼ and ⅔ of a two-connection client's
    /// closed-loop ceiling (about 740 requests per second on two
    /// cores). The ladder runs to about twice the measured `max_rps`
    /// (600), so a daemon up to that much faster still finds its limit
    /// on a rung rather than at the top of the ladder.
    pub fn full() -> Config {
        Config {
            fixture_scale: 0.25,
            setups: 5,
            ladder: vec![
                185.0, 300.0, 400.0, 490.0, 600.0, 740.0, 900.0, 1100.0, 1350.0,
            ],
            low: 185.0,
            high: 490.0,
            rounds: 4,
        }
    }

    /// A small model and three short rungs, for smoke tests.
    pub fn tiny() -> Config {
        Config {
            fixture_scale: 0.03,
            setups: 1,
            ladder: vec![50.0, 100.0, 200.0],
            low: 50.0,
            high: 100.0,
            rounds: 2,
        }
    }
}

/// The daemon under test plus the offline ground truth it must match.
struct Fixture {
    handle: ServerHandle,
    corpus: Arc<Vec<Vec<f64>>>,
    expected: Vec<RowScore>,
    threshold: f64,
}

fn setup(cfg: &Config, run: &crate::Run) -> Fixture {
    let model: SavedModel = fixture_model(cfg.fixture_scale, run.seed, &run.work_dir);
    let data = fixture_dataset(cfg.fixture_scale, run.seed);
    let corpus: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i)).collect();
    let offline = serve::score_rows(&model.forest, &corpus, model.meta.positive_fraction);
    let expected = offline.rows.iter().map(RowScore::from_scored).collect();
    let threshold = model.threshold();
    let config = ServerConfig {
        workers: run.threads,
        batch: BatchPolicy::default(),
        drift_reference: Some(offline.summary().histogram),
        ..ServerConfig::default()
    };
    let handle = survd::start(model, config, None).expect("daemon starts on loopback");
    Fixture {
        handle,
        corpus: Arc::new(corpus),
        expected,
        threshold,
    }
}

/// One request of a rung's schedule.
struct Planned {
    due: Duration,
    rows: Vec<usize>,
    body: String,
}

/// What a sender saw for one request.
struct Sent {
    index: usize,
    lateness_ms: f64,
    gen_lag_ms: f64,
    latency_ms: f64,
    reply: Result<(u16, Vec<u8>), String>,
}

/// Everything measured on one rung.
#[derive(Debug, Default)]
struct Rung {
    rate: f64,
    latencies: Vec<f64>,
    gen_lags: Vec<f64>,
    slices: u64,
    backlogged_slices: u64,
    requests: u64,
    failures: u64,
    render_us: Vec<f64>,
    parse_us: Vec<f64>,
    wall_ms: f64,
}

impl Rung {
    fn p(&self, q: f64) -> f64 {
        report::quantile(&self.latencies, q)
    }
}

fn unit(seed: u64, index: u64) -> f64 {
    (derive_seed(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// The seeded Poisson schedule for `rate` over `duration`: each
/// request's due time and corpus rows (bodies are rendered later).
fn plan(seed: u64, rate: f64, duration: Duration, corpus: usize) -> Vec<Planned> {
    let rung_seed = derive_seed(seed, rate.to_bits());
    let mut out = Vec::new();
    let mut t = 0.0;
    for i in 0u64.. {
        t += -(1.0 - unit(rung_seed, 3 * i)).ln() / rate;
        if t >= duration.as_secs_f64() {
            break;
        }
        let count = 1 + (derive_seed(rung_seed, 3 * i + 1) % MAX_ROWS as u64) as usize;
        let first = (derive_seed(rung_seed, 3 * i + 2) % corpus as u64) as usize;
        let rows: Vec<usize> = (0..count).map(|j| (first + j) % corpus).collect();
        out.push(Planned {
            due: Duration::from_secs_f64(t),
            rows,
            body: String::new(),
        });
    }
    out
}

fn sender(addr: SocketAddr, begin: Instant, requests: Vec<(usize, Arc<Planned>)>) -> Vec<Sent> {
    let mut out = Vec::with_capacity(requests.len());
    let mut client = Client::connect(addr, Some(Duration::from_secs(10)));
    let mut free_at = begin;
    for (index, planned) in requests {
        let due = begin + planned.due;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let ready = due.max(free_at);
        let sent = Instant::now();
        let reply = match client.as_mut() {
            Ok(c) => c
                .score(&planned.body)
                .map(|r| (r.status, r.body))
                .map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        let done = Instant::now();
        if reply.is_err() {
            client = Client::connect(addr, Some(Duration::from_secs(10)));
        }
        out.push(Sent {
            index,
            lateness_ms: report::ms(sent.saturating_duration_since(due)),
            gen_lag_ms: report::ms(sent.saturating_duration_since(ready)),
            latency_ms: report::ms(done.saturating_duration_since(due)),
            reply,
        });
        free_at = done;
    }
    out
}

/// Drives one slice of a rung open-loop, verifies every reply bitwise
/// against offline scoring, and folds the results into `rung`.
fn run_slice(fixture: &Fixture, run: &crate::Run, rung: &mut Rung, seconds: f64) {
    let mut planned = plan(
        derive_seed(run.seed, rung.slices),
        rung.rate,
        Duration::from_secs_f64(seconds),
        fixture.corpus.len(),
    );
    for p in &mut planned {
        let rows: Vec<Vec<f64>> = p.rows.iter().map(|&i| fixture.corpus[i].clone()).collect();
        let start = Instant::now();
        p.body = render_score_request(&rows);
        rung.render_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let planned: Vec<Arc<Planned>> = planned.into_iter().map(Arc::new).collect();
    let senders = run.threads.max(1);
    let addr = fixture.handle.addr();
    let begin = Instant::now() + Duration::from_millis(20);
    let threads: Vec<_> = (0..senders)
        .map(|s| {
            let mine: Vec<(usize, Arc<Planned>)> = planned
                .iter()
                .enumerate()
                .skip(s)
                .step_by(senders)
                .map(|(i, p)| (i, Arc::clone(p)))
                .collect();
            std::thread::spawn(move || sender(addr, begin, mine))
        })
        .collect();
    let mut sent: Vec<Sent> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("sender thread"))
        .collect();
    rung.wall_ms += report::ms(begin.elapsed());
    rung.slices += 1;
    sent.sort_by_key(|s| s.index);

    for s in &sent {
        rung.requests += 1;
        let ok = match &s.reply {
            Ok((200, body)) => {
                let start = Instant::now();
                let parsed = std::str::from_utf8(body)
                    .map_err(|e| e.to_string())
                    .and_then(parse_score_response);
                rung.parse_us.push(start.elapsed().as_secs_f64() * 1e6);
                parsed.is_ok_and(|response| {
                    let rows = &planned[s.index].rows;
                    response.threshold.to_bits() == fixture.threshold.to_bits()
                        && response.results.len() == rows.len()
                        && response
                            .results
                            .iter()
                            .zip(rows)
                            .all(|(got, &row)| same_score(got, &fixture.expected[row]))
                })
            }
            _ => false,
        };
        if ok {
            rung.latencies.push(s.latency_ms);
        } else {
            rung.failures += 1;
            eprintln!(
                "perfbench: serve request {} at {} req/s failed: {:?}",
                s.index,
                rung.rate,
                s.reply.as_ref().map(|(status, _)| status)
            );
        }
        rung.gen_lags.push(s.gen_lag_ms);
    }
    // A backlog grows when senders fall further behind schedule as the
    // slice goes on.
    let decile = sent.len() / 10;
    if decile > 0 {
        let mean = |xs: &[Sent]| xs.iter().map(|s| s.lateness_ms).sum::<f64>() / xs.len() as f64;
        let first = mean(&sent[..decile]);
        let last = mean(&sent[sent.len() - decile..]);
        if last > 5.0 && last > 2.0 * first {
            rung.backlogged_slices += 1;
        }
    }
}

/// Walks `rates` in `rounds` interleaved rounds, `seconds` per rate in
/// total. Interleaving spreads each rung over the run, so a stretch of
/// interference from outside lands on every rung rather than one.
fn walk(
    fixture: &Fixture,
    run: &crate::Run,
    cfg: &Config,
    rates: &[f64],
    seconds: f64,
) -> Vec<Rung> {
    let mut rungs: Vec<Rung> = rates
        .iter()
        .map(|&rate| Rung {
            rate,
            ..Rung::default()
        })
        .collect();
    for _ in 0..cfg.rounds {
        for rung in &mut rungs {
            run_slice(fixture, run, rung, seconds / cfg.rounds as f64);
        }
    }
    for rung in &mut rungs {
        rung.latencies = report::sorted(std::mem::take(&mut rung.latencies));
        eprintln!(
            "perfbench: serve {} req/s: {} requests, {} failed, {}/{} slices backlogged, \
             p50 {:.3} p90 {:.3} p99 {:.3} max {:.3} ms",
            rung.rate,
            rung.requests,
            rung.failures,
            rung.backlogged_slices,
            rung.slices,
            rung.p(0.5),
            rung.p(0.9),
            rung.p(0.99),
            rung.p(1.0)
        );
    }
    rungs
}

fn same_score(got: &RowScore, want: &RowScore) -> bool {
    got.positive.to_bits() == want.positive.to_bits()
        && got.predicted == want.predicted
        && got.confident == want.confident
}

/// The highest offered rate that keeps p90 within [`LIMIT_MS`] with no
/// growing backlog: the rate at which the share of requests over the
/// limit (failures included) crosses [`LIMIT_SHARE`].
///
/// The share rises with offered load, so the rungs' shares are first
/// made monotone (pool-adjacent-violators, weighted by requests); the
/// crossing is then interpolated linearly in the log of the share,
/// which grows about exponentially towards saturation. Near the knee a
/// rung's tail percentile moves only slowly with load, so reading the
/// crossing off the percentile itself would let one noisy quantile move
/// the result a long way.
fn max_rps(rungs: &[Rung]) -> f64 {
    // Blocks of (weighted share sum, weight, rungs covered).
    let mut blocks: Vec<(f64, f64, usize)> = Vec::new();
    for r in rungs {
        let n = (r.latencies.len() as u64 + r.failures) as f64;
        let over = r.latencies.iter().filter(|&&l| l > LIMIT_MS).count() as f64;
        let share = if 2 * r.backlogged_slices > r.slices {
            1.0
        } else {
            // Half a request keeps an empty tail's share above zero.
            (over + r.failures as f64 + 0.5) / (n + 1.0)
        };
        blocks.push((share * n, n.max(1.0), 1));
        while blocks.len() > 1 {
            let (b, a) = (blocks[blocks.len() - 1], blocks[blocks.len() - 2]);
            if a.0 / a.1 <= b.0 / b.1 {
                break;
            }
            blocks.pop();
            *blocks.last_mut().expect("two blocks") = (a.0 + b.0, a.1 + b.1, a.2 + b.2);
        }
    }
    let fitted: Vec<f64> = blocks
        .iter()
        .flat_map(|&(sum, w, n)| std::iter::repeat_n(sum / w, n))
        .collect();
    match fitted.iter().position(|&f| f > LIMIT_SHARE) {
        None => {
            // Every rung held: the figure is the ladder's ceiling, not
            // the daemon's.
            let top = rungs.last().map_or(0.0, |r| r.rate);
            eprintln!("perfbench: serve: every rung up to {top} req/s held; extend the ladder");
            top
        }
        // Not even the lowest rung holds: scale it by the overshoot.
        Some(0) => rungs[0].rate * LIMIT_SHARE / fitted[0],
        Some(i) => {
            let (a, b) = (rungs[i - 1].rate, rungs[i].rate);
            let (fa, fb) = (fitted[i - 1].ln(), fitted[i].ln());
            a + (b - a) * (LIMIT_SHARE.ln() - fa) / (fb - fa)
        }
    }
}

fn tally(outcome: &mut Outcome, rungs: &[&Rung]) {
    for r in rungs {
        outcome.tally(r.requests, r.failures);
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Runs the workload.
pub fn run(run: &crate::Run, cfg: &Config) -> Outcome {
    let mut outcome = Outcome::default();
    let (fixture, setup_snapshot) = report::observed(run.trace, || {
        let mut previous: Option<Fixture> = None;
        let (fixture, setup_s) = report::repeat_setup(cfg.setups, || {
            if let Some(old) = previous.take() {
                old.handle.shutdown();
            }
            setup(cfg, run)
        });
        outcome.set("setup_s", setup_s);
        fixture
    });

    if run.trace {
        let snapshot = setup_snapshot.expect("traced");
        outcome.set(
            "serve.model_load_ms",
            report::span_ms(&snapshot, "model_load") / cfg.setups.max(1) as f64,
        );
        for name in [
            "forest.trees_built",
            "forest.nodes_expanded",
            "forest.split_scan.dense",
            "forest.split_scan.sparse",
        ] {
            outcome.set(
                name,
                report::counter(&snapshot, name) / cfg.setups.max(1) as f64,
            );
        }
        // The named rungs untraced, then traced.
        let named = [cfg.low, cfg.high];
        let quarter = run.seconds / 4.0;
        let [low, high]: [Rung; 2] = walk(&fixture, run, cfg, &named, quarter)
            .try_into()
            .expect("two rungs");
        let before = fixture.handle.stats();
        let (traced, snapshot) =
            report::observed(true, || walk(&fixture, run, cfg, &named, quarter));
        let [traced_low, traced_high]: [Rung; 2] = traced.try_into().expect("two rungs");
        let after = fixture.handle.stats();
        let snapshot = snapshot.expect("traced");
        tally(&mut outcome, &[&low, &high, &traced_low, &traced_high]);
        outcome.set("serve.low.p99_ms", low.p(0.99));
        outcome.set("serve.high.p50_ms", high.p(0.5));
        outcome.set("serve.high.p99_ms", high.p(0.99));
        let stages = survd::stage_sketches(&snapshot);
        outcome.set("survd.queue_wait_ms", stages[0].quantile(0.5));
        outcome.set("survd.batch_wait_ms", stages[1].quantile(0.5));
        let batches = (after.batches - before.batches) as f64;
        let rows = (after.rows_scored - before.rows_scored) as f64;
        outcome.set("survd.rows_per_batch", rows / batches.max(1.0));
        let all = [&low, &high, &traced_low, &traced_high];
        let render: Vec<f64> = all.iter().flat_map(|r| r.render_us.clone()).collect();
        let parse: Vec<f64> = all.iter().flat_map(|r| r.parse_us.clone()).collect();
        outcome.set("survd.wire_render_us", mean(&render));
        outcome.set("survd.wire_parse_us", mean(&parse));
        // The kernel's total time over the traced walk, as `score`
        // reports it over its traced pass.
        let score_ms = report::span_ms(&snapshot, "survd_score");
        outcome.set("serve.score_ms", score_ms);
        outcome.set("serve.kernel_rows_per_s", rows / (score_ms / 1e3));
        outcome.set(
            "serve.node_steps_per_row",
            report::counter(&snapshot, "serve.kernel.node_steps")
                / report::counter(&snapshot, "serve.rows_scored").max(1.0),
        );
        let lags = report::sorted(
            [&low, &high]
                .iter()
                .flat_map(|r| r.gen_lags.clone())
                .collect(),
        );
        outcome.set("bench.gen_lag_ms", report::quantile(&lags, 0.99));
        outcome.set(
            "bench.trace_overhead_pct",
            100.0 * (traced_low.p(0.5) / low.p(0.5) - 1.0),
        );
        // Time a request spends outside the daemon's own stages:
        // transport, framing and the client.
        let server_total = stages[4].quantile(0.5);
        outcome.set(
            "bench.unattributed_pct",
            100.0 * (1.0 - server_total / traced_low.p(0.5)),
        );
        outcome.set("bench.wall_ms", traced_low.wall_ms + traced_high.wall_ms);
        fixture.handle.shutdown();
        return outcome;
    }

    let rungs = walk(
        &fixture,
        run,
        cfg,
        &cfg.ladder,
        run.seconds / cfg.ladder.len() as f64,
    );
    tally(&mut outcome, &rungs.iter().collect::<Vec<_>>());
    let at = |rate: f64| {
        rungs
            .iter()
            .find(|r| r.rate == rate)
            .expect("named rung ran")
    };
    outcome.set("throughput_per_s", max_rps(&rungs));
    outcome.set("p50_ms", at(cfg.low).p(0.5));
    outcome.set("p90_ms", at(cfg.low).p(0.9));
    outcome.set("peak_rss_mb", report::peak_rss_mb());
    let stats = fixture.handle.shutdown();
    let ok: u64 = rungs.iter().map(|r| r.latencies.len() as u64).sum();
    outcome.check(stats.score_ok == ok, || {
        format!(
            "daemon counted {} ok responses, senders saw {ok}",
            stats.score_ok
        )
    });
    outcome
}
