//! The serving-latency artifact: `artifacts/latency.json`.
//!
//! Layout (schema `survdb-latency/v1`), mirroring the run-trace and
//! serving-artifact two-section convention:
//!
//! ```text
//! {
//!   "schema": "survdb-latency/v1",
//!   "binary": "<emitting binary>",
//!   "deterministic": {          // identical across runs & worker counts
//!     "config": { "connections", "rows_per_request" },
//!     "sketch": { "buckets", "min_exponent", "max_exponent" },
//!     "stages": { "queue_wait" | "batch_wait" | "score"
//!                 | "write" | "total": { "observations" } },
//!     "drift":  { "reference": [10 × u64], "live": [10 × u64],
//!                 "scored", "divergence" },
//!     "counts": { "requests_sent", "responses_ok", "rows_scored" }
//!   },
//!   "nondeterministic": {       // wall-clock stage timings
//!     "config": { "workers", "queue_capacity",
//!                 "batch_max_rows", "batch_max_wait_ms" },
//!     "server_stages_ms": { "<stage>": { "buckets": [[i, count], ...],
//!                                        "p50", "p95", "p99" } },
//!     "client_latency_ms": { "p50", "p95", "p99", "max", "mean" }
//!   }
//! }
//! ```
//!
//! The split leans on the sketch determinism contract
//! ([`obs::sketch`]): which bucket an observation lands in is
//! wall-clock, but *how many* observations each stage records is a
//! pure function of the request stream — one `queue_wait`/
//! `batch_wait`/`write`/`total` observation per 200 response, one
//! `score` observation per scored row. Those counts, the drift
//! histograms (every scored probability is a pure function of
//! model × row), and the TV-divergence over them are deterministic;
//! bucketed timing values and quantile estimates live only under
//! `nondeterministic`. Worker/queue/batch knobs are *excluded* from
//! the deterministic config on purpose: the deterministic section
//! must be byte-identical between a 1-worker and an 8-worker daemon.
//!
//! Schema evolution follows the workspace rule (DESIGN.md §14): any
//! key addition, removal, or reorder bumps the `/v1` suffix; the
//! validator pins exact key order so a drifting producer fails the
//! `artifact-check` CI step instead of shipping silently.

use crate::server::ServerConfig;
use obs::artifact::{
    envelope, expect_arr, expect_float, expect_keys, expect_obj, expect_uint, field,
    validate_envelope, write_artifact,
};
use obs::jsonv::JsonV;
use obs::sketch::{Sketch, SKETCH_BUCKETS, SKETCH_MAX_EXP, SKETCH_MIN_EXP};
use obs::{DriftSnapshot, DRIFT_BUCKETS};
use std::io;
use std::path::{Path, PathBuf};

/// Schema identifier for `latency.json`.
pub const LATENCY_SCHEMA: &str = "survdb-latency/v1";

/// File name the artifact is written under.
pub const LATENCY_FILE: &str = "latency.json";

/// Sketch feeding the queue-wait stage (admission push → batcher pop).
pub const STAGE_QUEUE_WAIT: &str = "survd.stage.queue_wait_ms";
/// Sketch feeding the batch-wait stage (batcher pop → flush start).
pub const STAGE_BATCH_WAIT: &str = "survd.stage.batch_wait_ms";
/// Sketch feeding the score stage (per-row share of kernel time).
pub const STAGE_SCORE: &str = "survd.stage.score_ms";
/// Sketch feeding the write stage (reply received → response written).
pub const STAGE_WRITE: &str = "survd.stage.write_ms";
/// Sketch feeding the total stage (admission → response written).
pub const STAGE_TOTAL: &str = "survd.stage.total_ms";

/// Lifecycle stages instrumented per request.
pub const STAGE_COUNT: usize = 5;

/// Stage keys in artifact order.
pub const STAGE_NAMES: [&str; STAGE_COUNT] =
    ["queue_wait", "batch_wait", "score", "write", "total"];

/// Registry sketch name for each stage, in [`STAGE_NAMES`] order.
pub const STAGE_SKETCHES: [&str; STAGE_COUNT] = [
    STAGE_QUEUE_WAIT,
    STAGE_BATCH_WAIT,
    STAGE_SCORE,
    STAGE_WRITE,
    STAGE_TOTAL,
];

/// The load-run shape and deterministic outcome counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyRun {
    /// Closed-loop client connections (the daemon's accepted-connection
    /// count when self-reporting).
    pub connections: u64,
    /// Feature rows per request; 0 when requests vary (daemon
    /// self-report), which disables the rows identity check.
    pub rows_per_request: u64,
    /// Requests issued (all `/score` outcomes).
    pub requests_sent: u64,
    /// 200 responses.
    pub responses_ok: u64,
    /// Rows scored across 200 responses.
    pub rows_scored: u64,
}

/// Client-observed request latency; all zeros when the emitter is the
/// daemon itself (no client side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientLatency {
    /// Request latency p50, milliseconds.
    pub p50: f64,
    /// Request latency p95, milliseconds.
    pub p95: f64,
    /// Request latency p99, milliseconds.
    pub p99: f64,
    /// Slowest request, milliseconds.
    pub max: f64,
    /// Mean request latency, milliseconds.
    pub mean: f64,
}

impl ClientLatency {
    /// The daemon-self-report value: no client measured anything.
    pub fn zero() -> ClientLatency {
        ClientLatency {
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0.0,
            mean: 0.0,
        }
    }
}

/// The per-stage sketches out of a registry snapshot, in
/// [`STAGE_NAMES`] order; a stage nothing observed yet is empty.
pub fn stage_sketches(snapshot: &obs::Snapshot) -> [Sketch; STAGE_COUNT] {
    STAGE_SKETCHES.map(|name| snapshot.sketches.get(name).cloned().unwrap_or_default())
}

fn deterministic_json(
    run: &LatencyRun,
    stages: &[Sketch; STAGE_COUNT],
    drift: &DriftSnapshot,
) -> JsonV {
    let histogram = |counts: &[u64; DRIFT_BUCKETS]| {
        JsonV::Arr(counts.iter().map(|&v| JsonV::UInt(v)).collect())
    };
    JsonV::obj(vec![
        (
            "config",
            JsonV::obj(vec![
                ("connections", JsonV::UInt(run.connections)),
                ("rows_per_request", JsonV::UInt(run.rows_per_request)),
            ]),
        ),
        (
            "sketch",
            JsonV::obj(vec![
                ("buckets", JsonV::UInt(SKETCH_BUCKETS as u64)),
                ("min_exponent", JsonV::Float(SKETCH_MIN_EXP as f64)),
                ("max_exponent", JsonV::Float(SKETCH_MAX_EXP as f64)),
            ]),
        ),
        (
            "stages",
            JsonV::Obj(
                STAGE_NAMES
                    .iter()
                    .zip(stages.iter())
                    .map(|(&name, sketch)| {
                        (
                            name.to_string(),
                            JsonV::obj(vec![("observations", JsonV::UInt(sketch.total()))]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "drift",
            JsonV::obj(vec![
                ("reference", histogram(&drift.reference)),
                ("live", histogram(&drift.live)),
                ("scored", JsonV::UInt(drift.total())),
                ("divergence", JsonV::Float(drift.divergence())),
            ]),
        ),
        (
            "counts",
            JsonV::obj(vec![
                ("requests_sent", JsonV::UInt(run.requests_sent)),
                ("responses_ok", JsonV::UInt(run.responses_ok)),
                ("rows_scored", JsonV::UInt(run.rows_scored)),
            ]),
        ),
    ])
}

/// Renders only the deterministic section — the byte string the
/// loopback tests pin across worker counts.
pub fn deterministic_latency_section(
    run: &LatencyRun,
    stages: &[Sketch; STAGE_COUNT],
    drift: &DriftSnapshot,
) -> String {
    deterministic_json(run, stages, drift).render()
}

fn stage_json(sketch: &Sketch) -> JsonV {
    let buckets: Vec<JsonV> = sketch
        .counts()
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(i, &count)| JsonV::Arr(vec![JsonV::UInt(i as u64), JsonV::UInt(count)]))
        .collect();
    JsonV::obj(vec![
        ("buckets", JsonV::Arr(buckets)),
        ("p50", JsonV::Float(sketch.quantile(0.50))),
        ("p95", JsonV::Float(sketch.quantile(0.95))),
        ("p99", JsonV::Float(sketch.quantile(0.99))),
    ])
}

/// Renders the full latency artifact for `binary`.
pub fn render_latency(
    binary: &str,
    config: &ServerConfig,
    run: &LatencyRun,
    stages: &[Sketch; STAGE_COUNT],
    drift: &DriftSnapshot,
    client: &ClientLatency,
) -> String {
    envelope(
        LATENCY_SCHEMA,
        binary,
        deterministic_json(run, stages, drift),
        JsonV::obj(vec![
            (
                "config",
                JsonV::obj(vec![
                    ("workers", JsonV::UInt(config.workers as u64)),
                    ("queue_capacity", JsonV::UInt(config.queue_capacity as u64)),
                    ("batch_max_rows", JsonV::UInt(config.batch.max_rows as u64)),
                    ("batch_max_wait_ms", JsonV::UInt(config.batch.max_wait_ms)),
                ]),
            ),
            (
                "server_stages_ms",
                JsonV::Obj(
                    STAGE_NAMES
                        .iter()
                        .zip(stages.iter())
                        .map(|(&name, sketch)| (name.to_string(), stage_json(sketch)))
                        .collect(),
                ),
            ),
            (
                "client_latency_ms",
                JsonV::obj(vec![
                    ("p50", JsonV::Float(client.p50)),
                    ("p95", JsonV::Float(client.p95)),
                    ("p99", JsonV::Float(client.p99)),
                    ("max", JsonV::Float(client.max)),
                    ("mean", JsonV::Float(client.mean)),
                ]),
            ),
        ]),
    )
    .render()
}

/// Writes `dir/latency.json` for `binary`, creating `dir` if needed.
/// Returns the written path.
pub fn write_latency(
    dir: &Path,
    binary: &str,
    config: &ServerConfig,
    run: &LatencyRun,
    stages: &[Sketch; STAGE_COUNT],
    drift: &DriftSnapshot,
    client: &ClientLatency,
) -> io::Result<PathBuf> {
    write_artifact(
        dir,
        LATENCY_FILE,
        &render_latency(binary, config, run, stages, drift, client),
    )
}

fn expect_histogram(value: &JsonV, what: &str) -> Result<u64, String> {
    let items = expect_arr(value, what)?;
    if items.len() != DRIFT_BUCKETS {
        return Err(format!(
            "{what} must have {DRIFT_BUCKETS} buckets, found {}",
            items.len()
        ));
    }
    let mut total = 0u64;
    for (i, bucket) in items.iter().enumerate() {
        total += expect_uint(bucket, &format!("{what}[{i}]"))?;
    }
    Ok(total)
}

/// Structurally validates a rendered `latency.json`: schema id, the
/// deterministic/nondeterministic split, exact key order, and the
/// counting identities the lifecycle instrumentation guarantees (one
/// queue-wait/batch-wait/write/total observation per 200 response,
/// one score observation and one drift record per scored row).
/// `artifact-check` runs it in CI.
pub fn validate_latency(text: &str) -> Result<(), String> {
    let root = validate_envelope(text, LATENCY_SCHEMA)?;

    let det = field(&root, "deterministic")?;
    let det_fields = expect_obj(det, "deterministic")?;
    expect_keys(
        det_fields,
        &["config", "sketch", "stages", "drift", "counts"],
        "deterministic",
    )?;

    let config = field(det, "config")?;
    let config_fields = expect_obj(config, "deterministic.config")?;
    expect_keys(
        config_fields,
        &["connections", "rows_per_request"],
        "deterministic.config",
    )?;
    if expect_uint(field(config, "connections")?, "connections")? == 0 {
        return Err("config.connections must be nonzero".to_string());
    }
    let rows_per_request = expect_uint(field(config, "rows_per_request")?, "rows_per_request")?;

    let sketch = field(det, "sketch")?;
    let sketch_fields = expect_obj(sketch, "sketch")?;
    expect_keys(
        sketch_fields,
        &["buckets", "min_exponent", "max_exponent"],
        "sketch",
    )?;
    if expect_uint(field(sketch, "buckets")?, "buckets")? != SKETCH_BUCKETS as u64 {
        return Err(format!("sketch.buckets must be {SKETCH_BUCKETS}"));
    }
    for (key, want) in [
        ("min_exponent", SKETCH_MIN_EXP as f64),
        ("max_exponent", SKETCH_MAX_EXP as f64),
    ] {
        if expect_float(field(sketch, key)?, key)? != want {
            return Err(format!("sketch.{key} must be {want}"));
        }
    }

    let stages = field(det, "stages")?;
    let stage_fields = expect_obj(stages, "stages")?;
    expect_keys(stage_fields, &STAGE_NAMES, "stages")?;
    let mut observations = [0u64; STAGE_COUNT];
    for (slot, name) in observations.iter_mut().zip(STAGE_NAMES) {
        let stage = field(stages, name)?;
        expect_keys(
            expect_obj(stage, name)?,
            &["observations"],
            &format!("stages.{name}"),
        )?;
        *slot = expect_uint(
            field(stage, "observations")?,
            &format!("stages.{name}.observations"),
        )?;
    }

    let counts = field(det, "counts")?;
    let count_fields = expect_obj(counts, "counts")?;
    expect_keys(
        count_fields,
        &["requests_sent", "responses_ok", "rows_scored"],
        "counts",
    )?;
    let get_count = |key: &str| expect_uint(field(counts, key)?, key);
    let sent = get_count("requests_sent")?;
    if sent == 0 {
        return Err("counts.requests_sent must be nonzero".to_string());
    }
    let ok = get_count("responses_ok")?;
    if ok > sent {
        return Err(format!("responses_ok {ok} exceeds requests_sent {sent}"));
    }
    let rows_scored = get_count("rows_scored")?;
    if rows_per_request > 0 && rows_scored != ok * rows_per_request {
        return Err(format!(
            "rows_scored {rows_scored} != responses_ok {ok} × rows_per_request {rows_per_request}"
        ));
    }

    // The lifecycle counting identities: exactly one queue-wait,
    // batch-wait, write, and total observation per 200 response, and
    // one score observation per scored row.
    let [queue_wait, batch_wait, score, write, total] = observations;
    for (name, got) in [
        ("queue_wait", queue_wait),
        ("batch_wait", batch_wait),
        ("write", write),
        ("total", total),
    ] {
        if got != ok {
            return Err(format!(
                "stages.{name}.observations {got} != responses_ok {ok}"
            ));
        }
    }
    if score != rows_scored {
        return Err(format!(
            "stages.score.observations {score} != rows_scored {rows_scored}"
        ));
    }

    let drift = field(det, "drift")?;
    let drift_fields = expect_obj(drift, "drift")?;
    expect_keys(
        drift_fields,
        &["reference", "live", "scored", "divergence"],
        "drift",
    )?;
    expect_histogram(field(drift, "reference")?, "drift.reference")?;
    let live_total = expect_histogram(field(drift, "live")?, "drift.live")?;
    let scored = expect_uint(field(drift, "scored")?, "drift.scored")?;
    if live_total != scored {
        return Err(format!(
            "drift.live sums to {live_total}, drift.scored is {scored}"
        ));
    }
    if scored != rows_scored {
        return Err(format!(
            "drift.scored {scored} != counts.rows_scored {rows_scored}"
        ));
    }
    let divergence = expect_float(field(drift, "divergence")?, "drift.divergence")?;
    if !(0.0..=1.0).contains(&divergence) {
        return Err(format!("drift.divergence {divergence} outside [0, 1]"));
    }

    let nondet = field(&root, "nondeterministic")?;
    let nondet_fields = expect_obj(nondet, "nondeterministic")?;
    expect_keys(
        nondet_fields,
        &["config", "server_stages_ms", "client_latency_ms"],
        "nondeterministic",
    )?;
    let nconfig = field(nondet, "config")?;
    expect_keys(
        expect_obj(nconfig, "nondeterministic.config")?,
        &[
            "workers",
            "queue_capacity",
            "batch_max_rows",
            "batch_max_wait_ms",
        ],
        "nondeterministic.config",
    )?;
    for key in ["workers", "queue_capacity", "batch_max_rows"] {
        if expect_uint(field(nconfig, key)?, key)? == 0 {
            return Err(format!("nondeterministic.config.{key} must be nonzero"));
        }
    }
    expect_uint(field(nconfig, "batch_max_wait_ms")?, "batch_max_wait_ms")?;

    let server = field(nondet, "server_stages_ms")?;
    expect_keys(
        expect_obj(server, "server_stages_ms")?,
        &STAGE_NAMES,
        "server_stages_ms",
    )?;
    for (name, expected_total) in STAGE_NAMES.iter().zip(observations) {
        let stage = field(server, name)?;
        expect_keys(
            expect_obj(stage, name)?,
            &["buckets", "p50", "p95", "p99"],
            &format!("server_stages_ms.{name}"),
        )?;
        let buckets = expect_arr(field(stage, "buckets")?, &format!("{name}.buckets"))?;
        let mut sum = 0u64;
        let mut last_index: Option<u64> = None;
        for entry in buckets {
            let pair = match entry {
                JsonV::Arr(pair) if pair.len() == 2 => pair,
                other => {
                    return Err(format!(
                        "{name}.buckets entries must be [index, count] pairs, found {other:?}"
                    ))
                }
            };
            let index = expect_uint(&pair[0], &format!("{name} bucket index"))?;
            let count = expect_uint(&pair[1], &format!("{name} bucket count"))?;
            if index >= SKETCH_BUCKETS as u64 {
                return Err(format!("{name} bucket index {index} out of range"));
            }
            if last_index.is_some_and(|prev| index <= prev) {
                return Err(format!("{name} bucket indices must be increasing"));
            }
            if count == 0 {
                return Err(format!("{name} bucket {index} has zero count"));
            }
            last_index = Some(index);
            sum += count;
        }
        if sum != expected_total {
            return Err(format!(
                "{name} buckets sum to {sum}, stages.{name}.observations is {expected_total}"
            ));
        }
        let p50 = expect_float(field(stage, "p50")?, "p50")?;
        let p95 = expect_float(field(stage, "p95")?, "p95")?;
        let p99 = expect_float(field(stage, "p99")?, "p99")?;
        if !(p50 <= p95 && p95 <= p99) {
            return Err(format!(
                "{name} quantiles must be monotone: p50 {p50}, p95 {p95}, p99 {p99}"
            ));
        }
    }

    let client = field(nondet, "client_latency_ms")?;
    expect_keys(
        expect_obj(client, "client_latency_ms")?,
        &["p50", "p95", "p99", "max", "mean"],
        "client_latency_ms",
    )?;
    let get_latency = |key: &str| expect_float(field(client, key)?, key);
    let (p50, p95, p99, max, mean) = (
        get_latency("p50")?,
        get_latency("p95")?,
        get_latency("p99")?,
        get_latency("max")?,
        get_latency("mean")?,
    );
    for (key, v) in [
        ("p50", p50),
        ("p95", p95),
        ("p99", p99),
        ("max", max),
        ("mean", mean),
    ] {
        if !v.is_finite() || v < 0.0 {
            return Err(format!(
                "client_latency_ms.{key} must be finite and non-negative, found {v}"
            ));
        }
    }
    if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
        return Err(format!(
            "client latency percentiles must be monotone: p50 {p50}, p95 {p95}, p99 {p99}, max {max}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A consistent fixture: 8 requests × 4 rows, every identity
    /// satisfied.
    fn sample() -> (
        ServerConfig,
        LatencyRun,
        [Sketch; STAGE_COUNT],
        DriftSnapshot,
        ClientLatency,
    ) {
        let run = LatencyRun {
            connections: 2,
            rows_per_request: 4,
            requests_sent: 8,
            responses_ok: 8,
            rows_scored: 32,
        };
        let mut stages: [Sketch; STAGE_COUNT] = Default::default();
        for (i, stage) in stages.iter_mut().enumerate() {
            let per_response = [8u64, 8, 0, 8, 8][i];
            for k in 0..per_response {
                stage.observe(0.5 + k as f64);
            }
        }
        stages[2].observe_n(0.03, 32); // score: one observation per row
        let mut live = [0u64; DRIFT_BUCKETS];
        live[2] = 12;
        live[7] = 20;
        let drift = DriftSnapshot {
            reference: [10, 10, 30, 10, 0, 0, 10, 50, 0, 0],
            live,
        };
        let client = ClientLatency {
            p50: 1.0,
            p95: 2.0,
            p99: 4.0,
            max: 9.0,
            mean: 1.4,
        };
        (ServerConfig::default(), run, stages, drift, client)
    }

    #[test]
    fn rendered_latency_validates() {
        let (config, run, stages, drift, client) = sample();
        let text = render_latency("loadgen", &config, &run, &stages, &drift, &client);
        validate_latency(&text).expect("schema-valid");
        assert!(text.contains("\"rows_scored\": 32"));
        assert!(text.contains("\"server_stages_ms\""));
    }

    #[test]
    fn deterministic_section_excludes_worker_knobs_and_timings() {
        let (config, run, stages, drift, client) = sample();
        let section = deterministic_latency_section(&run, &stages, &drift);
        // Byte-identity across daemon shapes requires these to be
        // absent from the deterministic section.
        assert!(!section.contains("workers"));
        assert!(!section.contains("queue_capacity"));
        assert!(!section.contains("p50"));
        assert!(section.contains("\"observations\": 32"));
        // Daemon-shape knobs live only in the nondeterministic render.
        let full = render_latency("loadgen", &config, &run, &stages, &drift, &client);
        assert!(full.contains("\"workers\""));
        assert!(full.contains("\"batch_max_wait_ms\""));
    }

    #[test]
    fn validator_rejects_drift() {
        let (config, run, stages, drift, client) = sample();
        let good = render_latency("loadgen", &config, &run, &stages, &drift, &client);
        assert!(validate_latency(&good.replace(LATENCY_SCHEMA, "survdb-latency/v2")).is_err());
        assert!(validate_latency(&good.replace("\"stages\"", "\"phases\"")).is_err());
        // Break the score-observations == rows_scored identity.
        assert!(
            validate_latency(&good.replace("\"rows_scored\": 32", "\"rows_scored\": 33")).is_err()
        );
        // Break the per-response identity.
        assert!(
            validate_latency(&good.replace("\"responses_ok\": 8", "\"responses_ok\": 7")).is_err()
        );
        // Break drift.live / drift.scored agreement.
        assert!(validate_latency(&good.replace("\"scored\": 32", "\"scored\": 31")).is_err());
        assert!(validate_latency("{}").is_err());
        assert!(validate_latency("nonsense").is_err());
    }

    #[test]
    fn validator_checks_client_latency_monotonicity() {
        let (config, run, stages, drift, mut client) = sample();
        client.p95 = 99.0;
        let bad = render_latency("loadgen", &config, &run, &stages, &drift, &client);
        assert!(validate_latency(&bad).is_err());
        let zero = render_latency(
            "survd",
            &config,
            &run,
            &stages,
            &drift,
            &ClientLatency::zero(),
        );
        validate_latency(&zero).expect("all-zero client latency is valid");
    }

    #[test]
    fn write_latency_creates_the_artifact() {
        let (config, run, stages, drift, client) = sample();
        let dir = std::env::temp_dir().join(format!("survdb-latency-{}", std::process::id()));
        let path = write_latency(&dir, "loadgen", &config, &run, &stages, &drift, &client)
            .expect("writes");
        let text = std::fs::read_to_string(&path).expect("readable");
        validate_latency(&text).expect("valid on disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stage_sketches_pull_from_a_snapshot_by_name() {
        let snapshot = obs::Snapshot::default();
        let empty = stage_sketches(&snapshot);
        assert!(empty.iter().all(|s| s.is_empty()));
        let mut snapshot = obs::Snapshot::default();
        let mut s = Sketch::new();
        s.observe_n(1.5, 3);
        snapshot.sketches.insert(STAGE_SCORE.to_string(), s);
        let stages = stage_sketches(&snapshot);
        assert_eq!(stages[2].total(), 3);
        assert!(stages[0].is_empty());
    }
}
