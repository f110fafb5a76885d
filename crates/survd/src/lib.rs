//! `survd` — the online scoring daemon: micro-batching, backpressure,
//! graceful drain, crash-safe model hot-swap, and a deterministic
//! protocol chaos harness.
//!
//! The offline pipeline (train → persist → `scored`) answers "what
//! does the model say about this fleet snapshot"; `survd` answers it
//! *online*: a long-lived process that loads a `serve::SavedModel`
//! and serves `POST /score` over hand-rolled HTTP/1.1 on
//! `std::net` (dependency policy: std only).
//!
//! The pieces, bottom-up:
//!
//! - [`http`] — minimal HTTP/1.1 request reading / response writing
//!   with bounded head and body sizes and *typed* refusals: 431 for
//!   over-budget headers, 413 for oversized bodies, 501 for
//!   unimplemented transfer codings, 408 for transfers stalled past
//!   the read-stall budget.
//! - [`wire`] — the `/score` JSON request/response over `obs::jsonv`,
//!   byte-deterministic rendering (shortest-roundtrip floats, so
//!   loopback tests compare probabilities bitwise). Every response
//!   records the model generation that scored it.
//! - [`queue`] — the bounded MPMC queue: non-blocking admission
//!   (full → HTTP 429 + `Retry-After`), blocking connection hand-off,
//!   close-and-drain semantics, and a peak-depth high-water mark as
//!   the bounded-memory witness.
//! - [`batcher`] — the pure coalescing state machine, work-conserving:
//!   flush as soon as the intake is empty, or earlier on a row cap or
//!   the oldest held request's deadline while the intake keeps
//!   yielding. Driven by a microsecond [`clock::Clock`] so tests never
//!   sleep. Coalescing is transparent:
//!   per-row probabilities are independent tree walks, so batched
//!   scoring is bitwise identical to scoring each request alone.
//! - [`server`] — the daemon itself: acceptor thread, fixed worker
//!   pool, batcher thread over `serve::score_rows`, `/healthz`,
//!   `/metrics`, `POST /reload` (validate-then-swap model hot-swap
//!   behind a generation-counted [`server::ModelSlot`]), per-request
//!   deadline degradation (late work answered 503 before wasting a
//!   batcher slot), and [`server::ServerHandle::shutdown`] which
//!   drains every admitted request before returning.
//! - [`client`] — the matching HTTP/1.1 client, shared by the
//!   `loadgen` verification run and the loopback end-to-end tests.
//! - [`chaos`] — the deterministic protocol fault injector (class ×
//!   rate, splitmix64-keyed like `telemetry::faults`) and its socket
//!   driver: slow-loris, mid-body resets, truncated/oversized/garbage
//!   frames, stalled reads, malformed JSON — each contracted to a
//!   typed server reaction.
//! - [`artifact`] — `artifacts/serving.json` (`survdb-serving/v2`),
//!   produced by the `loadgen` binary and validated by
//!   `artifact-check` in CI. The artifact keeps outcome counts,
//!   per-stage observation counts and the drift histograms in its
//!   deterministic section; daemon knobs and stage timings are
//!   nondeterministic.
//! - [`latency`] — the artifact's stage and drift sections. Each
//!   request is stamped with a splitmix64-derived trace id (echoed
//!   back as `x-trace-id`) and clocked through admit → queue-wait →
//!   batch-wait → score → write; per-stage durations feed
//!   `obs::sketch` streaming histograms exposed on `/metrics`, and
//!   every scored probability feeds an `obs::DriftMonitor` seeded from
//!   the training-time score histogram in `scoring.json`.
//! - [`resilience`] — `artifacts/resilience.json`
//!   (`survdb-resilience/v1`): per fault-class × rate outcome cells
//!   plus hot-swap drill accounting, produced by the `chaossweep`
//!   binary and validated by `artifact-check` in CI.

pub mod artifact;
pub mod batcher;
pub mod chaos;
pub mod client;
pub mod clock;
pub mod http;
pub mod latency;
pub mod queue;
pub mod resilience;
pub mod server;
pub mod wire;

pub use artifact::{
    render_serving, validate_serving, write_serving, ServingCorpus, ServingCounts, ServingRun,
    ServingRunConfig, SERVING_FILE, SERVING_SCHEMA,
};
pub use batcher::{BatchPolicy, BatcherCore};
pub use chaos::{ChaosClass, ChaosPlan, Expect, Outcome};
pub use client::{Client, Response};
pub use clock::{Clock, ManualClock, SystemClock};
pub use latency::{stage_sketches, STAGE_COUNT, STAGE_NAMES, STAGE_SKETCHES};
pub use resilience::{
    deterministic_resilience_section, render_resilience, validate_resilience, write_resilience,
    CellOutcome, ReloadOutcome, ResilienceConfig, RESILIENCE_FILE, RESILIENCE_SCHEMA,
};
pub use server::{start, start_with_clock, ServerConfig, ServerHandle, StatsSnapshot};
pub use wire::{
    parse_score_request, parse_score_response, render_reload_response, render_score_request,
    render_score_response, RowScore, ScoreRequest, ScoreResponse, RESPONSE_SCHEMA,
};
