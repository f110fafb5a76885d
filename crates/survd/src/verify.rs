//! Serve verification: the clean load run and the chaos
//! sweep that the `servecheck` binary ships and the serving and
//! resilience end-to-end tests run, so CI and tier 1 check the daemon
//! through the same loops.
//!
//! Both drive a live daemon over loopback with request rows cut from
//! a corpus (request `i` carries rows `(i*R + j) % len`) and hold every
//! 200 to the offline expectation with `check_200`: the threshold,
//! each row's probability, class and confidence **bitwise**, and the
//! generation that scored it.
//!
//! - [`load`] runs N keep-alive connections, each issuing its next
//!   request once the previous answer lands. Every request must get a
//!   200, the daemon's `score_ok` must equal the clients' 200 count, and
//!   its drift monitor's live histogram must equal the histogram the
//!   clients rebuilt from the responses.
//! - [`sweep`] drives a class × rate grid of [`crate::chaos`] cells,
//!   one fresh connection per exchange, and holds each exchange to its
//!   contracted reaction. After every fifth cell it drills `/reload`:
//!   a re-render of the live model must be admitted (next generation,
//!   same scores) and a corrupted one refused with 422, and after each
//!   verdict a clean `/score` probe must still answer 200, bitwise
//!   equal, at the expected generation. The final generation and the
//!   daemon's reload counters must match the drills.
//!
//! Every failed check is logged through `obs::error!` and counted as a
//! violation; a caller fails its run on any.

use crate::artifact::{ServingCounts, ServingRunConfig};
use crate::chaos::{self, ChaosClass, ChaosPlan, Expect, Outcome};
use crate::client::{Client, Response};
use crate::http::HttpLimits;
use crate::resilience::{CellOutcome, ReloadOutcome};
use crate::server::ServerHandle;
use crate::wire::{parse_score_response, render_score_request, RowScore, ScoreResponse};
use obs::DRIFT_BUCKETS;
use serve::SavedModel;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// How long a sweep exchange waits for each read: must comfortably
/// cover the daemon's stall budget (`max_stall_reads` × idle timeout).
const READ_TIMEOUT_MS: u64 = 5_000;

/// Feature rows per sweep exchange.
const SWEEP_ROWS: usize = 3;

/// A reload drill runs after every this many sweep cells.
const DRILL_EVERY: usize = 5;

/// What a [`load`] run observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Client-side outcome counts; `rows_scored` counts the rows of
    /// the 200 responses.
    pub counts: ServingCounts,
    /// 200 responses that diverged from the offline expectation.
    pub mismatches: u64,
    /// Positive-probability histogram of every row the clients got.
    pub histogram: [u64; DRIFT_BUCKETS],
    /// Failed checks (see the module docs); zero on a passing run.
    pub violations: u64,
}

impl LoadOutcome {
    fn add(&mut self, other: &LoadOutcome) {
        self.counts.requests_sent += other.counts.requests_sent;
        self.counts.responses_ok += other.counts.responses_ok;
        self.counts.responses_shed += other.counts.responses_shed;
        self.counts.responses_error += other.counts.responses_error;
        self.mismatches += other.mismatches;
        for (total, bucket) in self.histogram.iter_mut().zip(other.histogram) {
            *total += bucket;
        }
    }
}

/// Checks one parsed 200 against the offline expectation: the
/// threshold and every row bitwise (`f64 ==` holds because the wire
/// renders shortest-roundtrip floats), and the scoring generation.
pub(crate) fn check_200(
    response: &ScoreResponse,
    threshold: f64,
    want: &[RowScore],
    generation: u64,
) -> Result<(), String> {
    if response.threshold != threshold {
        return Err(format!(
            "threshold {} diverged from offline {threshold}",
            response.threshold
        ));
    }
    if response.results != want {
        return Err("results diverged bitwise from offline scoring".to_string());
    }
    if response.generation != generation {
        return Err(format!(
            "scored by generation {}, expected {generation}",
            response.generation
        ));
    }
    Ok(())
}

/// The corpus rows request `i` carries, `R = rows_per_request` of them.
fn request_rows(i: usize, rows_per_request: usize, len: usize) -> Vec<usize> {
    (0..rows_per_request)
        .map(|j| (i * rows_per_request + j) % len)
        .collect()
}

fn pick<T: Clone>(items: &[T], indices: &[usize]) -> Vec<T> {
    indices.iter().map(|&i| items[i].clone()).collect()
}

/// Runs `config.requests` requests of `config.rows_per_request` rows
/// over `config.connections` connections against `daemon`, expecting
/// `expected[i]` for corpus row `i` and `threshold`, at the generation
/// the daemon serves when the run starts. The daemon must have been
/// started with a drift reference. See the module docs for the checks.
pub fn load(
    daemon: &ServerHandle,
    corpus: &[Vec<f64>],
    expected: &[RowScore],
    threshold: f64,
    config: ServingRunConfig,
) -> LoadOutcome {
    let addr = daemon.addr();
    let generation = daemon.generation();
    let connection = |c: usize| {
        let mut out = LoadOutcome::default();
        let requests: Vec<usize> = (c..config.requests).step_by(config.connections).collect();
        out.counts.requests_sent = requests.len() as u64;
        let mut client = match Client::connect(addr, Some(Duration::from_secs(30))) {
            Ok(client) => client,
            Err(e) => {
                obs::error!("verify", "connection {c}: connect failed: {e}");
                out.counts.responses_error = out.counts.requests_sent;
                return out;
            }
        };
        for i in requests {
            let indices = request_rows(i, config.rows_per_request, corpus.len());
            let response = match client.score(&render_score_request(&pick(corpus, &indices))) {
                Ok(response) => response,
                Err(e) => {
                    obs::error!("verify", "request {i}: {e}");
                    out.counts.responses_error += 1;
                    continue;
                }
            };
            match response.status {
                200 => match response
                    .text()
                    .map_err(|e| e.to_string())
                    .and_then(parse_score_response)
                {
                    Ok(parsed) => {
                        out.counts.responses_ok += 1;
                        let want = pick(expected, &indices);
                        if let Err(e) = check_200(&parsed, threshold, &want, generation) {
                            obs::error!("verify", "request {i}: {e}");
                            out.mismatches += 1;
                        }
                        for row in &parsed.results {
                            out.histogram[serve::histogram_bucket(row.positive)] += 1;
                        }
                    }
                    Err(e) => {
                        obs::error!("verify", "request {i}: bad response: {e}");
                        out.counts.responses_error += 1;
                    }
                },
                429 => out.counts.responses_shed += 1,
                status => {
                    obs::error!("verify", "request {i}: HTTP {status}");
                    out.counts.responses_error += 1;
                }
            }
        }
        out
    };
    let mut outcome = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..config.connections)
            .map(|c| scope.spawn(move || connection(c)))
            .collect();
        let mut total = LoadOutcome::default();
        for thread in threads {
            total.add(&thread.join().expect("load connection panicked"));
        }
        total
    });
    outcome.counts.rows_scored = outcome.histogram.iter().sum();

    let LoadOutcome {
        counts,
        mismatches,
        histogram,
        ..
    } = outcome;
    let mut fail = |what: String| {
        obs::error!("verify", "{what}");
        outcome.violations += 1;
    };
    if counts.responses_ok != counts.requests_sent {
        fail(format!(
            "{} of {} requests did not get a 200 ({} shed, {} errors)",
            counts.requests_sent - counts.responses_ok,
            counts.requests_sent,
            counts.responses_shed,
            counts.responses_error
        ));
    }
    if mismatches > 0 {
        fail(format!(
            "{mismatches} responses diverged from offline scoring"
        ));
    }
    // Counters and the drift monitor move before a response is
    // written, so they are final once every client has its answer.
    let score_ok = daemon.stats().score_ok;
    if score_ok != counts.responses_ok {
        fail(format!(
            "daemon counted {score_ok} ok responses, clients saw {}",
            counts.responses_ok
        ));
    }
    match daemon.drift_monitor().map(|m| m.snapshot().live) {
        Some(live) if live == histogram => {}
        Some(live) => fail(format!(
            "daemon drift histogram {live:?} != client histogram {histogram:?}"
        )),
        None => fail("daemon runs without a drift monitor".to_string()),
    }
    outcome
}

/// Posts one reload candidate, then one clean `/score` probe on the
/// same connection. Returns the reload's status and the probe answer.
fn drill(addr: SocketAddr, candidate: &str, probe: &str) -> io::Result<(u16, Response)> {
    let mut client = Client::connect(addr, Some(Duration::from_secs(10)))?;
    let verdict = client.request("POST", "/reload", candidate.as_bytes())?;
    Ok((verdict.status, client.score(probe)?))
}

/// Sweeps `grid` (one `(class, rate)` per cell; `None` is a clean
/// cell) against `daemon`, which serves `model` with the default body
/// cap, `requests_per_cell` sequential exchanges per cell under a
/// chaos plan seeded with `seed`. Returns the cell outcomes, the
/// reload-drill tally and the number of violations (see the module
/// docs). Outcomes are a pure function of the grid, corpus, model and
/// seed, whatever the daemon's worker count.
pub fn sweep(
    daemon: &ServerHandle,
    model: &SavedModel,
    corpus: &[Vec<f64>],
    expected: &[RowScore],
    grid: &[(Option<ChaosClass>, f64)],
    requests_per_cell: usize,
    seed: u64,
) -> (Vec<CellOutcome>, ReloadOutcome, u64) {
    let addr = daemon.addr();
    let threshold = model.threshold();
    let oversize = HttpLimits::default().max_body_bytes + 1;
    let mut generation = daemon.generation();
    let mut reload = ReloadOutcome {
        attempted: 0,
        admitted: 0,
        rejected: 0,
        generations: generation,
    };
    let mut violations = 0u64;
    let mut fail = |what: String| {
        obs::error!("verify", "{what}");
        violations += 1;
    };
    let probe_rows = request_rows(0, SWEEP_ROWS, corpus.len());
    let probe = render_score_request(&pick(corpus, &probe_rows));
    let probe_want = pick(expected, &probe_rows);

    let mut cells = Vec::with_capacity(grid.len());
    for (index, &(class, rate)) in grid.iter().enumerate() {
        let plan = match class {
            None => ChaosPlan::none(seed),
            Some(c) => ChaosPlan::single(c, rate, seed),
        };
        plan.validate();
        let mut cell = CellOutcome {
            class: class.map_or("none".to_string(), |c| c.name().to_string()),
            rate,
            sent: requests_per_cell as u64,
            ok: 0,
            shed: 0,
            faulted: 0,
            degraded: 0,
            mismatches: 0,
        };
        for ordinal in 0..requests_per_cell as u64 {
            let indices = request_rows(ordinal as usize, SWEEP_ROWS, corpus.len());
            let body = render_score_request(&pick(corpus, &indices));
            let expect = chaos::expected(plan.action(ordinal));
            let at = format!("{} ordinal {ordinal}", cell.class);
            match chaos::drive(addr, &plan, ordinal, &body, oversize, READ_TIMEOUT_MS) {
                Outcome::Response { status: 200, body } => {
                    cell.ok += 1;
                    if expect != Expect::Status(200) {
                        fail(format!("{at}: got 200, expected {expect:?}"));
                    }
                    let want = pick(expected, &indices);
                    let verdict = parse_score_response(&body)
                        .and_then(|parsed| check_200(&parsed, threshold, &want, generation));
                    if let Err(e) = verdict {
                        cell.mismatches += 1;
                        fail(format!("{at}: {e}"));
                    }
                }
                Outcome::Response { status: 429, .. } => cell.shed += 1,
                Outcome::Response { status: 503, .. } => cell.degraded += 1,
                Outcome::Response { status, .. } => {
                    cell.faulted += 1;
                    if expect != Expect::Status(status) {
                        fail(format!("{at}: got {status}, expected {expect:?}"));
                    }
                }
                Outcome::NoResponse => {
                    cell.faulted += 1;
                    if expect != Expect::NoResponse {
                        fail(format!("{at}: no response, expected {expect:?}"));
                    }
                }
                Outcome::Transport(e) => {
                    cell.faulted += 1;
                    fail(format!("{at}: transport failure: {e}"));
                }
            }
        }
        cells.push(cell);

        if (index + 1) % DRILL_EVERY != 0 {
            continue;
        }
        // A re-render of the live model swaps in as the next generation
        // with the same scores; a corrupted one must be refused while
        // the old generation keeps serving.
        let rendered = model.render();
        let corrupt = rendered.replace("survdb-model/v1", "survdb-model/v9");
        for (candidate, admit) in [(&rendered, true), (&corrupt, false)] {
            reload.attempted += 1;
            let want_status = if admit { 200 } else { 422 };
            let (verdict, answer) = match drill(addr, candidate, &probe) {
                Ok(exchange) => exchange,
                Err(e) => {
                    fail(format!("reload drill after cell {index}: {e}"));
                    continue;
                }
            };
            if verdict != want_status {
                fail(format!(
                    "reload candidate answered {verdict}, expected {want_status}"
                ));
            } else if admit {
                reload.admitted += 1;
                generation += 1;
            } else {
                reload.rejected += 1;
            }
            let probed = match answer.status {
                200 => answer
                    .text()
                    .map_err(|e| e.to_string())
                    .and_then(parse_score_response)
                    .and_then(|parsed| check_200(&parsed, threshold, &probe_want, generation)),
                status => Err(format!("answered {status}")),
            };
            if let Err(e) = probed {
                fail(format!("probe after the reload verdict: {e}"));
            }
        }
    }

    reload.generations = daemon.generation();
    if reload.generations != generation {
        fail(format!(
            "daemon reports generation {}, sweep expected {generation}",
            reload.generations
        ));
    }
    // The reload counters move before the verdict is written.
    let stats = daemon.stats();
    if (stats.reloads_ok, stats.reloads_rejected) != (reload.admitted, reload.rejected) {
        fail(format!(
            "daemon reload counters ({} ok, {} rejected) disagree with the sweep ({}, {})",
            stats.reloads_ok, stats.reloads_rejected, reload.admitted, reload.rejected
        ));
    }
    (cells, reload, violations)
}
