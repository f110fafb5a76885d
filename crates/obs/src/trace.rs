//! The deterministic run trace: `artifacts/run_trace.json`.
//!
//! Layout (schema `survdb-run-trace/v1`):
//!
//! ```text
//! {
//!   "schema": "survdb-run-trace/v1",
//!   "binary": "<emitting binary>",
//!   "deterministic": {          // byte-identical across runs & thread counts
//!     "counters":     { name -> u64 },
//!     "gauges":       { name -> f64 },
//!     "span_counts":  { span path -> u64 },
//!     "event_counts": { "level:target" -> u64 }
//!   },
//!   "nondeterministic": {       // timings, scheduling, raw event log
//!     "thread_limit": u64,
//!     "span_timings": { span path -> {"total_ms", "mean_ms", "threads"} },
//!     "events":       [ {"seq", "level", "target", "message"} ]
//!   }
//! }
//! ```
//!
//! Determinism rules: everything under `deterministic` derives from
//! counts of seeded, index-slotted work, with `BTreeMap`-sorted keys;
//! wall-clock values, thread attribution, and event arrival order live
//! only under `nondeterministic`. `span_timings` must cover exactly
//! the `span_counts` keys — [`validate_run_trace`] enforces the split.

use crate::artifact::{
    envelope, expect_arr, expect_keys, expect_obj, field, validate_envelope, write_artifact,
};
use crate::jsonv::JsonV;
use crate::registry::Snapshot;
use std::io;
use std::path::{Path, PathBuf};

/// Schema identifier for `run_trace.json`.
pub const RUN_TRACE_SCHEMA: &str = "survdb-run-trace/v1";

/// File name the trace is written under.
pub const RUN_TRACE_FILE: &str = "run_trace.json";

fn deterministic_json(snapshot: &Snapshot) -> JsonV {
    JsonV::obj(vec![
        (
            "counters",
            JsonV::Obj(
                snapshot
                    .counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), JsonV::UInt(v)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            JsonV::Obj(
                snapshot
                    .gauges
                    .iter()
                    .map(|(k, &v)| (k.clone(), JsonV::Float(v)))
                    .collect(),
            ),
        ),
        (
            "span_counts",
            JsonV::Obj(
                snapshot
                    .spans
                    .iter()
                    .map(|(k, s)| (k.clone(), JsonV::UInt(s.count)))
                    .collect(),
            ),
        ),
        (
            "event_counts",
            JsonV::Obj(
                snapshot
                    .event_counts()
                    .into_iter()
                    .map(|(k, v)| (k, JsonV::UInt(v)))
                    .collect(),
            ),
        ),
    ])
}

fn nondeterministic_json(snapshot: &Snapshot, thread_limit: usize) -> JsonV {
    JsonV::obj(vec![
        ("thread_limit", JsonV::UInt(thread_limit as u64)),
        (
            "span_timings",
            JsonV::Obj(
                snapshot
                    .spans
                    .iter()
                    .map(|(k, s)| {
                        let total_ms = s.total_ns as f64 / 1e6;
                        (
                            k.clone(),
                            JsonV::obj(vec![
                                ("total_ms", JsonV::Float(total_ms)),
                                ("mean_ms", JsonV::Float(total_ms / s.count.max(1) as f64)),
                                ("threads", JsonV::UInt(s.threads)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "events",
            JsonV::Arr(
                snapshot
                    .events
                    .iter()
                    .map(|e| {
                        JsonV::obj(vec![
                            ("seq", JsonV::UInt(e.seq)),
                            ("level", JsonV::Str(e.level.as_str().to_string())),
                            ("target", JsonV::Str(e.target.to_string())),
                            ("message", JsonV::Str(e.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders only the deterministic section — the byte string tests pin
/// across consecutive runs and across thread counts.
pub fn deterministic_section(snapshot: &Snapshot) -> String {
    deterministic_json(snapshot).render()
}

/// Renders the full run trace for `binary`.
pub fn render_run_trace(binary: &str, snapshot: &Snapshot, thread_limit: usize) -> String {
    envelope(
        RUN_TRACE_SCHEMA,
        binary,
        deterministic_json(snapshot),
        nondeterministic_json(snapshot, thread_limit),
    )
    .render()
}

/// Writes `dir/run_trace.json` for `binary`, creating `dir` if needed.
/// Returns the written path.
pub fn write_run_trace(
    dir: &Path,
    binary: &str,
    snapshot: &Snapshot,
    thread_limit: usize,
) -> io::Result<PathBuf> {
    write_artifact(
        dir,
        RUN_TRACE_FILE,
        &render_run_trace(binary, snapshot, thread_limit),
    )
}

fn expect_sorted(fields: &[(String, JsonV)], what: &str) -> Result<(), String> {
    for pair in fields.windows(2) {
        if pair[0].0 >= pair[1].0 {
            return Err(format!(
                "{what} keys must be strictly sorted: {:?} before {:?}",
                pair[0].0, pair[1].0
            ));
        }
    }
    Ok(())
}

fn expect_uint_map(value: &JsonV, what: &str) -> Result<Vec<String>, String> {
    let fields = expect_obj(value, what)?;
    expect_sorted(fields, what)?;
    for (k, v) in fields {
        if !matches!(v, JsonV::UInt(_)) {
            return Err(format!("{what}[{k:?}] must be an unsigned integer"));
        }
    }
    Ok(fields.iter().map(|(k, _)| k.clone()).collect())
}

/// Structurally validates a rendered `run_trace.json`, enforcing the
/// schema id, the section split, sorted deterministic keys, and the
/// span-counts/span-timings correspondence. `artifact-check` runs it
/// so sink drift fails CI.
pub fn validate_run_trace(text: &str) -> Result<(), String> {
    let root = validate_envelope(text, RUN_TRACE_SCHEMA)?;

    let det = field(&root, "deterministic")?;
    let det_fields = expect_obj(det, "deterministic")?;
    expect_keys(
        det_fields,
        &["counters", "gauges", "span_counts", "event_counts"],
        "deterministic",
    )?;
    expect_uint_map(field(det, "counters")?, "counters")?;
    expect_uint_map(field(det, "event_counts")?, "event_counts")?;
    let span_keys = expect_uint_map(field(det, "span_counts")?, "span_counts")?;
    let gauges = expect_obj(field(det, "gauges")?, "gauges")?;
    expect_sorted(gauges, "gauges")?;
    for (k, v) in gauges {
        if !matches!(v, JsonV::Float(_) | JsonV::Null) {
            return Err(format!("gauges[{k:?}] must be a float"));
        }
    }

    let nondet = field(&root, "nondeterministic")?;
    let nondet_fields = expect_obj(nondet, "nondeterministic")?;
    expect_keys(
        nondet_fields,
        &["thread_limit", "span_timings", "events"],
        "nondeterministic",
    )?;
    if !matches!(nondet.get("thread_limit"), Some(JsonV::UInt(_))) {
        return Err("thread_limit must be an unsigned integer".to_string());
    }

    let timings = expect_obj(field(nondet, "span_timings")?, "span_timings")?;
    let timing_keys: Vec<String> = timings.iter().map(|(k, _)| k.clone()).collect();
    if timing_keys != span_keys {
        return Err(format!(
            "span_timings keys {timing_keys:?} must match span_counts keys {span_keys:?}"
        ));
    }
    for (path, entry) in timings {
        let entry_fields = expect_obj(entry, "span timing")?;
        expect_keys(
            entry_fields,
            &["total_ms", "mean_ms", "threads"],
            &format!("span_timings[{path:?}]"),
        )?;
        for (k, v) in entry_fields {
            let ok = match k.as_str() {
                "threads" => matches!(v, JsonV::UInt(_)),
                _ => matches!(v, JsonV::Float(_) | JsonV::Null),
            };
            if !ok {
                return Err(format!("span_timings[{path:?}].{k} has the wrong type"));
            }
        }
    }

    let events = expect_arr(field(nondet, "events")?, "events")?;
    for (i, entry) in events.iter().enumerate() {
        let entry_fields = expect_obj(entry, "event")?;
        expect_keys(
            entry_fields,
            &["seq", "level", "target", "message"],
            &format!("events[{i}]"),
        )?;
        if !matches!(entry.get("seq"), Some(JsonV::UInt(_))) {
            return Err(format!("events[{i}].seq must be an unsigned integer"));
        }
        match entry.get("level") {
            Some(JsonV::Str(s)) if crate::Level::parse_name(s).is_some() => {}
            other => return Err(format!("events[{i}].level invalid: {other:?}")),
        }
        for key in ["target", "message"] {
            if !matches!(entry.get(key), Some(JsonV::Str(_))) {
                return Err(format!("events[{i}].{key} must be a string"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::test_support::INSTALL_LOCK;

    fn sample_snapshot() -> Snapshot {
        let _serial = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let registry = Registry::new();
        let guard = registry.install();
        {
            let _outer = crate::span!("experiment");
            let _inner = crate::span!("grid_search");
            crate::count("forest.trees_built", 3);
            crate::gauge("dataset.rows", 120.0);
            crate::info!("test", "hello {}", 1);
        }
        drop(guard);
        registry.snapshot()
    }

    #[test]
    fn rendered_trace_validates() {
        let snapshot = sample_snapshot();
        let text = render_run_trace("testbin", &snapshot, 4);
        validate_run_trace(&text).expect("schema-valid");
        assert!(text.contains("\"experiment/grid_search\""));
        assert!(text.contains("\"forest.trees_built\": 3"));
        assert!(text.contains("\"info:test\": 1"));
    }

    #[test]
    fn deterministic_section_is_stable() {
        let a = deterministic_section(&sample_snapshot());
        let b = deterministic_section(&sample_snapshot());
        assert_eq!(a, b);
        // Timings are excluded from the deterministic section.
        assert!(!a.contains("total_ms"));
    }

    #[test]
    fn validator_rejects_drift() {
        let snapshot = sample_snapshot();
        let good = render_run_trace("testbin", &snapshot, 4);
        assert!(validate_run_trace(&good.replace("survdb-run-trace/v1", "v2")).is_err());
        assert!(validate_run_trace(&good.replace("span_counts", "spans")).is_err());
        assert!(
            validate_run_trace(&good.replace("\"thread_limit\": 4", "\"thread_limit\": 4.5"))
                .is_err()
        );
        assert!(validate_run_trace("{}").is_err());
    }
}
