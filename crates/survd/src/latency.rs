//! The per-request latency sections of the serving artifact.
//!
//! Each request is clocked through admit → queue-wait → batch-wait →
//! score → write; per-stage durations feed `obs::sketch` streaming
//! histograms registered under [`STAGE_SKETCHES`], and every scored
//! probability feeds an `obs::DriftMonitor`. This module renders and
//! validates the three `serving.json` sections built from them:
//!
//! ```text
//! deterministic.stages            { "<stage>": { "observations" } }
//! deterministic.drift             { "reference", "live", "scored", "divergence" }
//! nondeterministic.server_stages_ms
//!                                 { "<stage>": { "buckets": [[i, count], ...],
//!                                                "p50", "p95", "p99" } }
//! ```
//!
//! The split leans on the sketch determinism contract
//! ([`obs::sketch`]): which bucket an observation lands in is
//! wall-clock, but *how many* observations each stage records is a
//! pure function of the request stream — one `queue_wait`/
//! `batch_wait`/`write`/`total` observation per 200 response, one
//! `score` observation per scored row. Those counts and the drift
//! histograms (every scored probability is a pure function of
//! model × row) are deterministic; bucketed timings and quantile
//! estimates are not. [`crate::artifact`] places the sections and
//! supplies the response and row counts the identities check against.

use obs::artifact::{
    checked_sum, expect_arr, expect_float, expect_keys, expect_obj, expect_uint, field,
};
use obs::jsonv::JsonV;
use obs::sketch::{Sketch, SKETCH_BUCKETS};
use obs::{DriftSnapshot, DRIFT_BUCKETS};

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

/// The per-stage sketches out of a registry snapshot, in
/// [`STAGE_NAMES`] order; a stage nothing observed yet is empty.
pub fn stage_sketches(snapshot: &obs::Snapshot) -> [Sketch; STAGE_COUNT] {
    STAGE_SKETCHES.map(|name| snapshot.sketches.get(name).cloned().unwrap_or_default())
}

/// `deterministic.stages`: each stage's observation count.
pub(crate) fn stages_json(stages: &[Sketch; STAGE_COUNT]) -> JsonV {
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
    )
}

/// `deterministic.drift`: training reference vs live score histograms.
pub(crate) fn drift_json(drift: &DriftSnapshot) -> JsonV {
    let histogram = |counts: &[u64; DRIFT_BUCKETS]| {
        JsonV::Arr(counts.iter().map(|&v| JsonV::UInt(v)).collect())
    };
    JsonV::obj(vec![
        ("reference", histogram(&drift.reference)),
        ("live", histogram(&drift.live)),
        ("scored", JsonV::UInt(drift.total())),
        ("divergence", JsonV::Float(drift.divergence())),
    ])
}

/// `nondeterministic.server_stages_ms`: each stage's occupied sketch
/// buckets and quantile estimates.
pub(crate) fn server_stages_json(stages: &[Sketch; STAGE_COUNT]) -> JsonV {
    let stage_json = |sketch: &Sketch| {
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
    };
    JsonV::Obj(
        STAGE_NAMES
            .iter()
            .zip(stages.iter())
            .map(|(&name, sketch)| (name.to_string(), stage_json(sketch)))
            .collect(),
    )
}

/// Validates `deterministic.stages` against the lifecycle counting
/// identities: exactly one queue-wait, batch-wait, write, and total
/// observation per 200 response, and one score observation per scored
/// row. Returns the observation counts in [`STAGE_NAMES`] order.
pub(crate) fn validate_stages(
    stages: &JsonV,
    responses_ok: u64,
    rows_scored: u64,
) -> Result<[u64; STAGE_COUNT], String> {
    expect_keys(expect_obj(stages, "stages")?, &STAGE_NAMES, "stages")?;
    let mut observations = [0u64; STAGE_COUNT];
    for (slot, name) in observations.iter_mut().zip(STAGE_NAMES) {
        let stage = field(stages, name)?;
        let what = format!("stages.{name}");
        expect_keys(expect_obj(stage, name)?, &["observations"], &what)?;
        *slot = expect_uint(field(stage, "observations")?, &what)?;
        let (want, per) = if name == "score" {
            (rows_scored, "rows_scored")
        } else {
            (responses_ok, "responses_ok")
        };
        if *slot != want {
            return Err(format!("{what}.observations {slot} != {per} {want}"));
        }
    }
    Ok(observations)
}

/// Requires a [`DRIFT_BUCKETS`]-long count histogram; returns its sum.
fn expect_histogram(value: &JsonV, what: &str) -> Result<u64, String> {
    let items = expect_arr(value, what)?;
    if items.len() != DRIFT_BUCKETS {
        return Err(format!(
            "{what} must have {DRIFT_BUCKETS} buckets, found {}",
            items.len()
        ));
    }
    let counts = items
        .iter()
        .enumerate()
        .map(|(i, bucket)| expect_uint(bucket, &format!("{what}[{i}]")))
        .collect::<Result<Vec<u64>, String>>()?;
    checked_sum(counts, what)
}

/// Validates `deterministic.drift`: `live` sums to `scored`, which
/// equals `rows_scored`, and the divergence is in [0, 1].
pub(crate) fn validate_drift(drift: &JsonV, rows_scored: u64) -> Result<(), String> {
    expect_keys(
        expect_obj(drift, "drift")?,
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
    Ok(())
}

/// Validates `nondeterministic.server_stages_ms`: sparse, strictly
/// increasing `[index, count]` bucket pairs summing to each stage's
/// `observations`, and monotone quantiles.
pub(crate) fn validate_server_stages(
    server: &JsonV,
    observations: [u64; STAGE_COUNT],
) -> Result<(), String> {
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
        let mut counts = Vec::with_capacity(buckets.len());
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
            counts.push(count);
        }
        let sum = checked_sum(counts, &format!("{name}.buckets"))?;
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{tests as serving, write_serving};
    use crate::server::ServerConfig;
    use obs::jsonv;

    /// A consistent fixture: 8 responses × 4 rows, every identity
    /// satisfied.
    fn sample() -> ([Sketch; STAGE_COUNT], DriftSnapshot) {
        let mut stages: [Sketch; STAGE_COUNT] = Default::default();
        for (i, stage) in stages.iter_mut().enumerate() {
            if i != 2 {
                for k in 0..8 {
                    stage.observe(0.5 + k as f64);
                }
            }
        }
        stages[2].observe_n(0.03, 32); // score: one observation per row
        let drift = DriftSnapshot {
            reference: [10, 10, 30, 10, 0, 0, 10, 50, 0, 0],
            live: [0, 0, 12, 0, 0, 0, 0, 20, 0, 0],
        };
        (stages, drift)
    }

    /// Renders the three sections as one JSON object, the way they
    /// reach disk.
    fn render() -> String {
        let (stages, drift) = sample();
        JsonV::obj(vec![
            ("stages", stages_json(&stages)),
            ("drift", drift_json(&drift)),
            ("server_stages_ms", server_stages_json(&stages)),
        ])
        .render()
    }

    /// Runs the three section validators over a rendered object.
    fn validate(text: &str, responses_ok: u64, rows_scored: u64) -> Result<(), String> {
        let root = jsonv::parse(text)?;
        let observations = validate_stages(field(&root, "stages")?, responses_ok, rows_scored)?;
        validate_drift(field(&root, "drift")?, rows_scored)?;
        validate_server_stages(field(&root, "server_stages_ms")?, observations)
    }

    #[test]
    fn rendered_latency_validates() {
        let text = render();
        validate(&text, 8, 32).expect("schema-valid");
        assert!(text.contains("\"scored\": 32"));
        assert!(text.contains("\"p99\""));
    }

    #[test]
    fn deterministic_section_excludes_worker_knobs_and_timings() {
        let (stages, drift) = sample();
        let section = JsonV::obj(vec![
            ("stages", stages_json(&stages)),
            ("drift", drift_json(&drift)),
        ])
        .render();
        // Byte-identity across daemon shapes requires these to be
        // absent from the deterministic sections.
        for key in ["workers", "queue_capacity", "batch_max", "p50", "buckets"] {
            assert!(!section.contains(key), "{key} in {section}");
        }
        assert!(section.contains("\"observations\": 32"));
        // Timings live only in the nondeterministic section.
        let timings = server_stages_json(&stages).render();
        assert!(timings.contains("\"p50\""));
        assert!(timings.contains("\"buckets\""));
    }

    #[test]
    fn validator_rejects_drift() {
        let good = render();
        validate(&good, 8, 32).expect("schema-valid");
        // Counts that disagree with the response and row totals.
        assert!(validate(&good, 7, 32).is_err());
        assert!(validate(&good, 8, 33).is_err());
        assert!(validate(&good.replace("\"queue_wait\"", "\"queue\""), 8, 32).is_err());
        // Break the per-response identity.
        assert!(validate(
            &good.replacen("\"observations\": 8", "\"observations\": 7", 1),
            8,
            32
        )
        .is_err());
        // Break drift.live / drift.scored agreement.
        assert!(validate(&good.replace("\"scored\": 32", "\"scored\": 31"), 8, 32).is_err());
        // Timing buckets that no longer sum to the observation count.
        let (stages, _) = sample();
        let server = server_stages_json(&stages);
        validate_server_stages(&server, [8, 8, 32, 8, 8]).expect("consistent");
        assert!(validate_server_stages(&server, [8, 8, 31, 8, 8]).is_err());
        assert!(validate("{}", 8, 32).is_err());
        assert!(validate("nonsense", 8, 32).is_err());
    }

    #[test]
    fn written_serving_artifact_carries_the_stage_sections() {
        let model = serving::fixture_model();
        let run = serving::sample(&model);
        let dir = std::env::temp_dir().join(format!("survd-stage-sections-{}", std::process::id()));
        let path = write_serving(&dir, "loadgen", &ServerConfig::default(), &run).expect("writes");
        let root = jsonv::parse(&std::fs::read_to_string(&path).expect("readable")).expect("json");
        std::fs::remove_dir_all(&dir).ok();
        let det = field(&root, "deterministic").expect("deterministic");
        let nondet = field(&root, "nondeterministic").expect("nondeterministic");
        // The stage and drift sections reach disk exactly as rendered.
        assert_eq!(field(det, "stages").unwrap(), &stages_json(&run.stages));
        assert_eq!(field(det, "drift").unwrap(), &drift_json(&run.drift));
        let observations = validate_stages(field(det, "stages").unwrap(), 8, 32).expect("valid");
        validate_drift(field(det, "drift").unwrap(), 32).expect("valid");
        validate_server_stages(field(nondet, "server_stages_ms").unwrap(), observations)
            .expect("valid on disk");
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
