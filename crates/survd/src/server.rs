//! The scoring daemon: acceptor, worker pool, micro-batcher,
//! bounded admission, graceful drain, crash-safe model hot-swap.
//!
//! ```text
//!                      ┌──────────────┐
//!  TCP accept ───────▶ │ conn queue   │──▶ workers (parse HTTP,
//!  (acceptor thread)   │ (blocking)   │    validate, admit)
//!                      └──────────────┘         │ try_push
//!                                               ▼
//!                      ┌──────────────┐   full → 429 + Retry-After
//!                      │ admission    │   draining → 503
//!                      │ queue (≤ K)  │   late → 503 (degraded)
//!                      └──────┬───────┘
//!                             ▼ block for one job, then drain
//!                      batcher thread: coalesce → score against ONE
//!                      generation (`ModelSlot::current` per batch)
//!                             │ fulfill response slots
//!                             ▼
//!                      workers render JSON, write responses
//! ```
//!
//! Overload degrades gracefully instead of OOMing: the connection
//! hand-off blocks the acceptor (TCP backlog backpressure), the
//! admission queue is a hard bound with non-blocking pushes (excess
//! requests shed with 429), request bodies/rows are size-capped, and —
//! when a per-request deadline is configured — work that aged past its
//! deadline while queued is answered 503 *before* wasting a batcher
//! slot on scoring it.
//!
//! **Natural batching.** The batcher thread blocks for a first job,
//! then pops whatever else is already queued without waiting and
//! flushes as soon as nothing more can be popped. An idle daemon
//! scores a lone request at once; under load, requests that arrive
//! while a batch is scoring coalesce into the next one, capped by
//! [`BatchPolicy`]'s `max_rows` and `max_wait_ms`. Lifecycle stamps
//! read the injected [`Clock`] in microseconds, so the sub-millisecond
//! stages this produces register in the stage sketches.
//!
//! **Hot-swap protocol.** The live model sits behind a [`ModelSlot`]:
//! a mutex-guarded `Arc<Generation>` with a monotonically increasing
//! generation id. `POST /reload` validates a candidate model document
//! (typed parse, feature-schema equality with the live generation,
//! byte-deterministic render round-trip) and only then swaps the slot;
//! a corrupt candidate is refused with a typed 422 while the old
//! generation keeps serving. The batcher pins one `Arc<Generation>`
//! per batch, so a batch is never scored by a mix of generations, and
//! every response records the generation that scored it.
//!
//! Shutdown ([`ServerHandle::shutdown`]) is the SIGTERM-equivalent:
//! it sets the drain flag, wakes the listener with a loopback connect,
//! refuses new scoring work with 503, scores everything already
//! admitted, and joins every thread before returning.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::batcher::{batch_size_bucket, BatchPolicy, BatcherCore};
use crate::clock::{elapsed_ms, Clock, SystemClock};
use crate::http::{self, HttpLimits, ReadError, Request};
use crate::latency::{STAGE_BATCH_WAIT, STAGE_QUEUE_WAIT, STAGE_SCORE, STAGE_TOTAL, STAGE_WRITE};
use crate::queue::{Bounded, PushError};
use crate::wire::{self, RowScore};
use obs::jsonv::JsonV;
use obs::{DriftMonitor, DRIFT_BUCKETS};
use serve::SavedModel;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest `POST /reload` body in bytes. A reload body is a whole
/// `survdb-model/v1` document, which grows with the training fleet (a
/// model trained at fleet scale 0.1 renders to about 1.5 MB), so it
/// gets its own cap instead of `HttpLimits::max_body_bytes`, which is
/// sized for `/score` requests. The effective cap is never below that
/// one.
pub const MAX_RELOAD_BODY_BYTES: usize = 32 * 1024 * 1024;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Admission-queue capacity K: at most K score requests queued
    /// ahead of the batcher; excess requests shed with 429.
    pub queue_capacity: usize,
    /// Micro-batcher flush policy.
    pub batch: BatchPolicy,
    /// Maximum feature rows in one request (413 beyond).
    pub max_rows_per_request: usize,
    /// HTTP framing limits.
    pub http: HttpLimits,
    /// Socket read-timeout granularity; bounds how long an idle
    /// keep-alive connection can delay drain.
    pub idle_timeout_ms: u64,
    /// Per-request scoring deadline in milliseconds; `0` disables.
    /// A request that waited in the admission queue longer than this
    /// is answered 503 at flush time instead of being scored — late
    /// work is shed before it wastes a batcher slot.
    pub request_deadline_ms: u64,
    /// Base seed for request trace ids: request N gets
    /// `forest::parallel::derive_seed(trace_seed, N)`, echoed back as
    /// an `x-trace-id` response header and stamped on the request's
    /// lifecycle events.
    pub trace_seed: u64,
    /// Training-time score histogram seeding the drift monitor's
    /// reference side (`deterministic.probability_histogram` from
    /// `scoring.json`, via `serve::training_score_histogram`). `None`
    /// disables drift monitoring entirely; an all-zero reference
    /// still counts live scores but reports zero divergence.
    pub drift_reference: Option<[u64; DRIFT_BUCKETS]>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 128,
            batch: BatchPolicy::default(),
            max_rows_per_request: 1024,
            http: HttpLimits::default(),
            idle_timeout_ms: 200,
            request_deadline_ms: 0,
            trace_seed: 0x05DB_2018,
            drift_reference: None,
        }
    }
}

/// Monotonic counters, all relaxed — totals are read after joins.
#[derive(Default)]
struct Stats {
    connections: AtomicU64,
    http_requests: AtomicU64,
    score_ok: AtomicU64,
    score_shed: AtomicU64,
    score_unavailable: AtomicU64,
    score_degraded: AtomicU64,
    bad_requests: AtomicU64,
    not_found: AtomicU64,
    rows_scored: AtomicU64,
    batches: AtomicU64,
    drained_jobs: AtomicU64,
    reloads_ok: AtomicU64,
    reloads_rejected: AtomicU64,
}

/// A point-in-time copy of the daemon's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted and handled.
    pub connections: u64,
    /// HTTP requests parsed (all endpoints).
    pub http_requests: u64,
    /// `/score` requests answered 200.
    pub score_ok: u64,
    /// `/score` requests shed with 429 (queue full).
    pub score_shed: u64,
    /// `/score` requests refused with 503 (draining).
    pub score_unavailable: u64,
    /// `/score` requests answered 503 because they aged past the
    /// per-request deadline before the batcher reached them.
    pub score_degraded: u64,
    /// Requests answered 400/405/408/413/431/501.
    pub bad_requests: u64,
    /// Requests answered 404.
    pub not_found: u64,
    /// Rows scored by the batcher.
    pub rows_scored: u64,
    /// Micro-batches flushed.
    pub batches: u64,
    /// Jobs scored after drain began (admitted before shutdown).
    pub drained_jobs: u64,
    /// `/reload` requests that validated and swapped the model.
    pub reloads_ok: u64,
    /// `/reload` requests refused with a typed 422.
    pub reloads_rejected: u64,
    /// Admission-queue high-water mark; never exceeds capacity K.
    pub queue_peak: u64,
}

impl Stats {
    fn snapshot(&self, queue_peak: usize) -> StatsSnapshot {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            connections: get(&self.connections),
            http_requests: get(&self.http_requests),
            score_ok: get(&self.score_ok),
            score_shed: get(&self.score_shed),
            score_unavailable: get(&self.score_unavailable),
            score_degraded: get(&self.score_degraded),
            bad_requests: get(&self.bad_requests),
            not_found: get(&self.not_found),
            rows_scored: get(&self.rows_scored),
            batches: get(&self.batches),
            drained_jobs: get(&self.drained_jobs),
            reloads_ok: get(&self.reloads_ok),
            reloads_rejected: get(&self.reloads_rejected),
            queue_peak: queue_peak as u64,
        }
    }
}

/// One immutable model generation: the unit the hot-swap protocol
/// exchanges. Ids start at 1 and increase by one per admitted reload.
pub struct Generation {
    /// Monotonic generation counter.
    pub id: u64,
    /// The model serving this generation.
    pub model: SavedModel,
}

/// The swappable model slot. Readers clone the `Arc` (one lock hold,
/// no copy of the forest); a swap installs a new `Arc` atomically
/// under the same lock. In-flight batches keep their pinned `Arc`, so
/// old generations die only after their last batch completes.
pub struct ModelSlot {
    current: Mutex<Arc<Generation>>,
}

impl ModelSlot {
    /// Wraps `model` as generation 1. Forces the model's inference
    /// kernel so the first batch never pays the layout-build cost.
    pub fn new(model: SavedModel) -> ModelSlot {
        model.kernel();
        ModelSlot {
            current: Mutex::new(Arc::new(Generation { id: 1, model })),
        }
    }

    /// The live generation.
    pub fn current(&self) -> Arc<Generation> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Installs `model` as the next generation; returns its id. The
    /// kernel is built *before* taking the lock, so a slow layout
    /// build never stalls concurrent batch flushes pinning the
    /// current generation.
    pub fn swap(&self, model: SavedModel) -> u64 {
        model.kernel();
        let mut guard = self.current.lock().unwrap_or_else(|e| e.into_inner());
        let id = guard.id + 1;
        *guard = Arc::new(Generation { id, model });
        id
    }
}

/// Batcher-side lifecycle timings for one scored request, handed back
/// with the reply so the worker can finish the trace (write + total)
/// and emit the per-request lifecycle event.
#[derive(Debug, Clone, Copy)]
struct Lifecycle {
    /// Admission push → batcher pop, milliseconds.
    queue_wait_ms: f64,
    /// Batcher pop → flush start, milliseconds.
    batch_wait_ms: f64,
    /// This request's share of the batch's kernel time (per-row share
    /// × its rows), milliseconds.
    score_ms: f64,
}

/// What the batcher hands back through a response slot.
enum Reply {
    /// Scored by exactly one generation.
    Scored {
        generation: u64,
        threshold: f64,
        scores: Vec<RowScore>,
        lifecycle: Lifecycle,
    },
    /// Aged past the per-request deadline before scoring; the worker
    /// answers 503 without the batcher having spent a slot on it.
    Degraded,
}

/// A response slot one worker waits on and the batcher fulfills.
struct Slot {
    result: Mutex<Option<Reply>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fulfill(&self, reply: Reply) {
        *self.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(reply);
        self.ready.notify_all();
    }

    fn wait(&self) -> Reply {
        let mut guard = self.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(reply) = guard.take() {
                return reply;
            }
            guard = self.ready.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One admitted score request.
struct Job {
    rows: Vec<Vec<f64>>,
    slot: Arc<Slot>,
    /// Clock reading at admission, microseconds.
    admitted_us: u64,
    /// Stamped by the batcher when it pops the job; `admitted_us`
    /// until then.
    popped_us: u64,
}

struct Shared {
    model: ModelSlot,
    config: ServerConfig,
    clock: Arc<dyn Clock>,
    admission: Bounded<Job>,
    draining: AtomicBool,
    stats: Stats,
    registry: Option<Arc<obs::Registry>>,
    /// Monotonic request sequence feeding trace-id derivation.
    trace_seq: AtomicU64,
    drift: Option<Arc<DriftMonitor>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the threads (they keep
/// serving); call `shutdown` for a graceful, fully joined stop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    conns: Arc<Bounded<TcpStream>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

/// Starts the daemon: binds, spawns the acceptor, `config.workers`
/// connection workers, and the batcher thread, then returns.
///
/// `registry` is what `GET /metrics` renders; pass the registry the
/// caller installed (or `None` to serve an empty exposition). The
/// server never installs a registry itself — observation scoping stays
/// with the caller.
pub fn start(
    model: SavedModel,
    config: ServerConfig,
    registry: Option<Arc<obs::Registry>>,
) -> io::Result<ServerHandle> {
    start_with_clock(model, config, registry, Arc::new(SystemClock::new()))
}

/// [`start`] with an injected [`Clock`] — lifecycle timestamps (admit,
/// queue-wait, batch-wait, score, write) all read this clock, so tests
/// can drive a `ManualClock` instead of sleeping.
pub fn start_with_clock(
    model: SavedModel,
    config: ServerConfig,
    registry: Option<Arc<obs::Registry>>,
    clock: Arc<dyn Clock>,
) -> io::Result<ServerHandle> {
    assert!(config.workers > 0, "need at least one worker");
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let conns = Arc::new(Bounded::<TcpStream>::new(config.workers.max(1) * 4));
    let drift = config
        .drift_reference
        .map(|reference| Arc::new(DriftMonitor::new(reference)));
    let shared = Arc::new(Shared {
        admission: Bounded::new(config.queue_capacity),
        model: ModelSlot::new(model),
        config,
        clock,
        draining: AtomicBool::new(false),
        stats: Stats::default(),
        registry,
        trace_seq: AtomicU64::new(0),
        drift,
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("survd-accept".to_string())
            .spawn(move || acceptor_loop(&listener, &shared, &conns))?
    };

    let mut workers = Vec::with_capacity(shared.config.workers);
    for i in 0..shared.config.workers {
        let shared = Arc::clone(&shared);
        let conns = Arc::clone(&conns);
        workers.push(
            std::thread::Builder::new()
                .name(format!("survd-worker-{i}"))
                .spawn(move || worker_loop(&shared, &conns))?,
        );
    }

    let batcher = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("survd-batch".to_string())
            .spawn(move || batcher_loop(&shared))?
    };

    Ok(ServerHandle {
        addr,
        shared,
        conns,
        acceptor: Some(acceptor),
        workers,
        batcher: Some(batcher),
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counter values.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared
            .stats
            .snapshot(self.shared.admission.peak_depth())
    }

    /// The live model generation id (1 until the first reload).
    pub fn generation(&self) -> u64 {
        self.shared.model.current().id
    }

    /// The prediction-drift monitor, when the config seeded one
    /// (`drift_reference`). Clone the `Arc` before
    /// [`ServerHandle::shutdown`] to snapshot the final histograms
    /// after every thread has joined.
    pub fn drift_monitor(&self) -> Option<Arc<DriftMonitor>> {
        self.shared.drift.clone()
    }

    /// Pauses the batcher's intake: admitted jobs stay queued (still
    /// occupying their admission slots) until
    /// [`ServerHandle::resume_batcher`]. The pause is atomic under the
    /// admission-queue lock, so with the batcher paused exactly
    /// `queue_capacity` requests are admitted and every further one
    /// sheds — the deterministic overload hook for tests and drills.
    pub fn pause_batcher(&self) {
        self.shared.admission.pause();
    }

    /// Resumes a paused batcher intake.
    pub fn resume_batcher(&self) {
        self.shared.admission.resume();
    }

    /// Graceful shutdown: stop accepting, refuse new scoring work with
    /// 503, score everything already admitted, join all threads.
    /// Returns the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Listener wakeup: the acceptor is blocked in accept(); one
        // loopback connect makes it re-check the drain flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // No new connections are coming; drain the hand-off queue into
        // the workers and let them finish their keep-alive loops
        // (draining makes every response a `connection: close`).
        self.conns.close();
        // Admitted jobs drain through the batcher; close overrides a
        // paused queue, so a pause cannot hold shutdown hostage.
        self.shared.admission.close();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.stats()
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Shared, conns: &Bounded<TcpStream>) {
    for stream in listener.incoming() {
        if shared.draining() {
            break;
        }
        match stream {
            Ok(stream) => {
                obs::count("survd.connections_accepted", 1);
                if conns.push_wait(stream).is_err() {
                    break; // hand-off queue closed: shutting down
                }
            }
            Err(_) => continue,
        }
    }
}

fn worker_loop(shared: &Shared, conns: &Bounded<TcpStream>) {
    while let Some(stream) = conns.pop_wait() {
        handle_connection(shared, stream);
    }
}

/// The body cap for a request to `path`: [`MAX_RELOAD_BODY_BYTES`] for
/// model uploads, the configured limit for everything else.
fn body_cap(limits: &HttpLimits, path: &str) -> usize {
    if path == "/reload" {
        MAX_RELOAD_BODY_BYTES.max(limits.max_body_bytes)
    } else {
        limits.max_body_bytes
    }
}

/// The obs counter a protocol refusal increments, by status class.
fn refusal_counter(status: u16) -> &'static str {
    match status {
        408 => "survd.http_408",
        413 => "survd.http_413",
        431 => "survd.http_431",
        501 => "survd.http_501",
        _ => "survd.http_400",
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.config.idle_timeout_ms.max(1),
    )));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let limits = &shared.config.http;
    loop {
        match http::read_request_capped(&mut reader, limits, |path| body_cap(limits, path)) {
            Ok(request) => {
                shared.stats.http_requests.fetch_add(1, Ordering::Relaxed);
                // Close after this exchange when the client asked to
                // or the daemon is draining.
                let close = request.wants_close() || shared.draining();
                if dispatch(shared, &request, &mut writer, close).is_err() || close {
                    break;
                }
            }
            Err(ReadError::Closed) => break,
            Err(ReadError::IdleTimeout) => {
                if shared.draining() {
                    break;
                }
            }
            Err(ReadError::Malformed { status, message }) => {
                shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                obs::count(refusal_counter(status), 1);
                let _ = respond_error(&mut writer, status, &message, true);
                break;
            }
            Err(ReadError::Io(_)) => break,
        }
    }
}

fn respond_error(
    writer: &mut impl Write,
    status: u16,
    message: &str,
    close: bool,
) -> io::Result<()> {
    http::write_response(
        writer,
        status,
        "application/json",
        &[],
        wire::render_error(message).as_bytes(),
        close,
    )
}

fn dispatch(
    shared: &Shared,
    request: &Request,
    writer: &mut impl Write,
    close: bool,
) -> io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/score") => handle_score(shared, request, writer, close),
        ("POST", "/reload") => handle_reload(shared, request, writer, close),
        ("GET", "/score") => {
            shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            obs::count("survd.http_405", 1);
            respond_error(
                writer,
                405,
                "POST a {\"rows\": [...]} body to /score",
                close,
            )
        }
        ("GET", "/reload") => {
            shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            obs::count("survd.http_405", 1);
            respond_error(
                writer,
                405,
                "POST a survdb-model/v1 document to /reload",
                close,
            )
        }
        ("GET", "/healthz") => {
            obs::count("survd.http_healthz", 1);
            let body = healthz_body(shared);
            http::write_response(writer, 200, "application/json", &[], body.as_bytes(), close)
        }
        ("GET", "/metrics") => {
            obs::count("survd.http_metrics", 1);
            let body = match &shared.registry {
                Some(registry) => obs::render_metrics(&registry.snapshot()),
                None => "# no registry installed\n".to_string(),
            };
            http::write_response(writer, 200, "text/plain", &[], body.as_bytes(), close)
        }
        _ => {
            shared.stats.not_found.fetch_add(1, Ordering::Relaxed);
            obs::count("survd.http_404", 1);
            respond_error(writer, 404, "unknown endpoint", close)
        }
    }
}

fn healthz_body(shared: &Shared) -> String {
    let generation = shared.model.current();
    JsonV::obj(vec![
        (
            "status",
            JsonV::Str(if shared.draining() { "draining" } else { "ok" }.to_string()),
        ),
        ("generation", JsonV::UInt(generation.id)),
        ("queue_depth", JsonV::UInt(shared.admission.len() as u64)),
        (
            "queue_capacity",
            JsonV::UInt(shared.admission.capacity() as u64),
        ),
        (
            "model_trees",
            JsonV::UInt(generation.model.forest.tree_count() as u64),
        ),
        (
            "model_features",
            JsonV::UInt(generation.model.forest.feature_names().len() as u64),
        ),
        ("threshold", JsonV::Float(generation.model.threshold())),
    ])
    .render()
}

fn handle_score(
    shared: &Shared,
    request: &Request,
    writer: &mut impl Write,
    close: bool,
) -> io::Result<()> {
    obs::count("survd.http_score", 1);
    let parsed = {
        let _span = obs::span!("survd_parse");
        let body = match std::str::from_utf8(&request.body) {
            Ok(body) => body,
            Err(_) => {
                shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                obs::count("survd.http_400", 1);
                return respond_error(writer, 400, "body is not UTF-8", close);
            }
        };
        // The feature schema is a swap invariant (reload enforces
        // equality), so validating against the current generation is
        // race-free even while a swap is in flight.
        wire::parse_score_request(
            body,
            shared.model.current().model.forest.feature_names().len(),
            shared.config.max_rows_per_request,
        )
    };
    let score_request = match parsed {
        Ok(r) => r,
        Err(message) => {
            shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let oversized = message.contains("per-request limit");
            obs::count("survd.http_400", 1);
            return respond_error(writer, if oversized { 413 } else { 400 }, &message, close);
        }
    };

    if shared.draining() {
        shared
            .stats
            .score_unavailable
            .fetch_add(1, Ordering::Relaxed);
        obs::count("survd.http_503", 1);
        return respond_error(writer, 503, "draining: not accepting new work", close);
    }

    // Lifecycle trace: every admitted-or-refused request carries a
    // splitmix64-derived id, echoed back as `x-trace-id` so a client
    // latency outlier can be joined against the daemon's event log.
    let trace_id = forest::parallel::derive_seed(
        shared.config.trace_seed,
        shared.trace_seq.fetch_add(1, Ordering::Relaxed),
    );
    let trace_header = || ("x-trace-id", format!("{trace_id:016x}"));

    let slot = Arc::new(Slot::new());
    let admitted_us = shared.clock.now_us();
    let job = Job {
        rows: score_request.rows,
        slot: Arc::clone(&slot),
        admitted_us,
        popped_us: admitted_us,
    };
    match shared.admission.try_push(job) {
        Ok(depth) => {
            obs::gauge("survd.queue_depth", depth as f64);
            let reply = {
                let _span = obs::span!("survd_wait");
                slot.wait()
            };
            match reply {
                Reply::Scored {
                    generation,
                    threshold,
                    scores,
                    lifecycle,
                } => {
                    shared.stats.score_ok.fetch_add(1, Ordering::Relaxed);
                    obs::count("survd.http_200", 1);
                    let reply_us = shared.clock.now_us();
                    let result = {
                        let _span = obs::span!("survd_respond");
                        let body = wire::render_score_response(generation, threshold, &scores);
                        http::write_response(
                            writer,
                            200,
                            "application/json",
                            &[trace_header()],
                            body.as_bytes(),
                            close,
                        )
                    };
                    if obs::enabled() {
                        let written_us = shared.clock.now_us();
                        let write_ms = elapsed_ms(reply_us, written_us);
                        let total_ms = elapsed_ms(admitted_us, written_us);
                        obs::observe(STAGE_WRITE, write_ms);
                        obs::observe(STAGE_TOTAL, total_ms);
                        obs::debug!(
                            "survd",
                            "trace={trace_id:016x} queue_wait_ms={} batch_wait_ms={} \
                             score_ms={} write_ms={write_ms} total_ms={total_ms}",
                            lifecycle.queue_wait_ms,
                            lifecycle.batch_wait_ms,
                            lifecycle.score_ms,
                        );
                    }
                    result
                }
                Reply::Degraded => {
                    shared.stats.score_degraded.fetch_add(1, Ordering::Relaxed);
                    obs::count("survd.degraded_503", 1);
                    http::write_retry_response(
                        writer,
                        503,
                        &[trace_header()],
                        wire::render_error("deadline exceeded before scoring, retry later")
                            .as_bytes(),
                        close,
                    )
                }
            }
        }
        Err(PushError::Full(_)) => {
            shared.stats.score_shed.fetch_add(1, Ordering::Relaxed);
            obs::count("survd.shed_429", 1);
            http::write_retry_response(
                writer,
                429,
                &[trace_header()],
                wire::render_error("admission queue full, retry later").as_bytes(),
                close,
            )
        }
        Err(PushError::Closed(_)) => {
            shared
                .stats
                .score_unavailable
                .fetch_add(1, Ordering::Relaxed);
            obs::count("survd.http_503", 1);
            respond_error(writer, 503, "draining: not accepting new work", close)
        }
    }
}

/// Validates a reload candidate against the live generation. Returns
/// the parsed model on success, the 422 error body message otherwise.
fn validate_candidate(shared: &Shared, body: &str) -> Result<SavedModel, String> {
    let candidate =
        SavedModel::parse(body).map_err(|e| format!("candidate model rejected: {e}"))?;
    let live = shared.model.current();
    let live_features = live.model.forest.feature_names();
    if candidate.forest.feature_names() != live_features {
        return Err(format!(
            "candidate feature schema {:?} differs from the live generation's {:?}",
            candidate.forest.feature_names(),
            live_features
        ));
    }
    // Byte-deterministic round-trip: the canonical render must parse
    // back and re-render identically, or the candidate would not be
    // crash-safe to persist and reload.
    let first = candidate.render();
    let reparsed = SavedModel::parse(&first)
        .map_err(|e| format!("candidate render does not re-parse: {e}"))?;
    if reparsed.render() != first {
        return Err("candidate model does not round-trip byte-deterministically".to_string());
    }
    Ok(candidate)
}

fn handle_reload(
    shared: &Shared,
    request: &Request,
    writer: &mut impl Write,
    close: bool,
) -> io::Result<()> {
    obs::count("survd.http_reload", 1);
    if shared.draining() {
        shared
            .stats
            .score_unavailable
            .fetch_add(1, Ordering::Relaxed);
        obs::count("survd.http_503", 1);
        return respond_error(writer, 503, "draining: not accepting new work", close);
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => {
            shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            obs::count("survd.http_400", 1);
            return respond_error(writer, 400, "body is not UTF-8", close);
        }
    };
    let candidate = {
        let _span = obs::span!("survd_reload_validate");
        validate_candidate(shared, body)
    };
    match candidate {
        Ok(model) => {
            let tree_count = model.forest.tree_count();
            let feature_count = model.forest.feature_names().len();
            let generation = shared.model.swap(model);
            shared.stats.reloads_ok.fetch_add(1, Ordering::Relaxed);
            obs::count("survd.reload_200", 1);
            let body = wire::render_reload_response(generation, tree_count, feature_count);
            http::write_response(writer, 200, "application/json", &[], body.as_bytes(), close)
        }
        Err(message) => {
            shared
                .stats
                .reloads_rejected
                .fetch_add(1, Ordering::Relaxed);
            obs::count("survd.reload_422", 1);
            respond_error(writer, 422, &message, close)
        }
    }
}

/// The work-conserving batch loop: block for a first job, then pop
/// whatever is already queued without waiting, flushing whenever the
/// core says a batch is due — at the latest when the intake is empty —
/// and block again once everything held has flushed. A paused queue
/// yields nothing, so paused jobs stay queued. Once the queue is closed
/// the pops drain it, every held job flushes, and the final blocking
/// pop ends the loop.
fn batcher_loop(shared: &Shared) {
    let mut core: BatcherCore<Job> = BatcherCore::new(shared.config.batch);
    while let Some(job) = shared.admission.pop_wait() {
        hold(shared, &mut core, job);
        while !core.is_empty() {
            let intake_empty = match shared.admission.try_pop() {
                Some(job) => {
                    hold(shared, &mut core, job);
                    false
                }
                None => true,
            };
            if core.due(shared.clock.now_us(), intake_empty) {
                flush(shared, &mut core);
            }
        }
    }
}

/// Stamps a popped job and hands it to the core.
fn hold(shared: &Shared, core: &mut BatcherCore<Job>, mut job: Job) {
    let popped_us = shared.clock.now_us();
    job.popped_us = popped_us;
    let rows = job.rows.len();
    core.push(job, rows, popped_us);
    obs::gauge("survd.queue_depth", shared.admission.len() as f64);
}

fn flush(shared: &Shared, core: &mut BatcherCore<Job>) {
    let jobs = core.take_batch();
    if jobs.is_empty() {
        return;
    }
    if shared.draining() {
        shared
            .stats
            .drained_jobs
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
    }

    // Degradation: answer work that aged past its deadline with 503
    // *before* spending scoring time on it. Disabled when the deadline
    // is 0. Drain overrides degradation — an admitted request must be
    // scored and answered during shutdown, never dropped.
    let deadline_us = shared.config.request_deadline_ms.saturating_mul(1000);
    let (live, late): (Vec<Job>, Vec<Job>) = if deadline_us == 0 || shared.draining() {
        (jobs, Vec::new())
    } else {
        let now_us = shared.clock.now_us();
        jobs.into_iter()
            .partition(|job| now_us.saturating_sub(job.admitted_us) <= deadline_us)
    };
    for job in late {
        job.slot.fulfill(Reply::Degraded);
    }
    if live.is_empty() {
        return;
    }

    // Pin ONE generation for the whole batch: every row in a batch is
    // scored by the same model, and the response records its id.
    let generation = shared.model.current();
    let total_rows: usize = live.iter().map(|j| j.rows.len()).sum();
    let mut all_rows = Vec::with_capacity(total_rows);
    for job in &live {
        all_rows.extend(job.rows.iter().cloned());
    }
    // Queue-wait (push → pop) and batch-wait (pop → flush) close here,
    // one observation per live job — the counting identity the serving
    // artifact validator pins (observations == 200 responses).
    let flush_us = shared.clock.now_us();
    if obs::enabled() {
        for job in &live {
            obs::observe(STAGE_QUEUE_WAIT, elapsed_ms(job.admitted_us, job.popped_us));
            obs::observe(STAGE_BATCH_WAIT, elapsed_ms(job.popped_us, flush_us));
        }
    }
    let batch = {
        let _span = obs::span!("survd_score");
        serve::score_rows_with(
            &generation.model.kernel(),
            &all_rows,
            generation.model.meta.positive_fraction,
        )
    };
    debug_assert_eq!(batch.rows.len(), total_rows);
    let score_ms = elapsed_ms(flush_us, shared.clock.now_us());
    // One score-stage observation per row (each carrying the per-row
    // share of the kernel time), so the sketch's observation count
    // equals rows scored.
    let score_per_row_ms = score_ms / total_rows.max(1) as f64;
    if obs::enabled() {
        obs::observe_n(STAGE_SCORE, score_per_row_ms, total_rows as u64);
    }

    // Feed every scored probability into the drift monitor and mirror
    // the calibration buckets into registry counters.
    if let Some(monitor) = &shared.drift {
        let mut buckets = [0u64; DRIFT_BUCKETS];
        for row in &batch.rows {
            if let Some(bucket) = buckets.get_mut(monitor.record(row.positive)) {
                *bucket += 1;
            }
        }
        if obs::enabled() {
            const BUCKET_COUNTERS: [&str; DRIFT_BUCKETS] = [
                "survd.drift.bucket_0",
                "survd.drift.bucket_1",
                "survd.drift.bucket_2",
                "survd.drift.bucket_3",
                "survd.drift.bucket_4",
                "survd.drift.bucket_5",
                "survd.drift.bucket_6",
                "survd.drift.bucket_7",
                "survd.drift.bucket_8",
                "survd.drift.bucket_9",
            ];
            let increments: Vec<(&'static str, u64)> = BUCKET_COUNTERS
                .iter()
                .zip(buckets)
                .filter(|&(_, count)| count > 0)
                .map(|(&name, count)| (name, count))
                .collect();
            obs::count_many(&increments);
            obs::gauge("survd.drift.divergence", monitor.snapshot().divergence());
        }
    }

    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .rows_scored
        .fetch_add(total_rows as u64, Ordering::Relaxed);
    if obs::enabled() {
        obs::count_many(&[
            ("survd.batches", 1),
            ("survd.rows_scored", total_rows as u64),
            (batch_size_bucket(total_rows), 1),
        ]);
    }

    let threshold = generation.model.threshold();
    let mut scored = batch.rows.into_iter();
    for job in live {
        let scores: Vec<RowScore> = scored
            .by_ref()
            .take(job.rows.len())
            .map(|row| RowScore::from_scored(&row))
            .collect();
        job.slot.fulfill(Reply::Scored {
            generation: generation.id,
            threshold,
            scores,
            lifecycle: Lifecycle {
                queue_wait_ms: elapsed_ms(job.admitted_us, job.popped_us),
                batch_wait_ms: elapsed_ms(job.popped_us, flush_us),
                score_ms: score_per_row_ms * job.rows.len() as f64,
            },
        });
    }
}
