//! The `/score` request/response JSON, over `obs::jsonv` so rendering
//! is byte-deterministic.
//!
//! Request body:
//!
//! ```json
//! { "rows": [[0.1, 0.2, ...], ...] }
//! ```
//!
//! Response body (`survdb-score-response/v2`):
//!
//! ```json
//! {
//!   "schema": "survdb-score-response/v2",
//!   "generation": 1,
//!   "threshold": 0.75,
//!   "results": [
//!     { "positive": 0.25, "predicted": 0, "confident": true },
//!     ...
//!   ]
//! }
//! ```
//!
//! `generation` is the hot-swap generation counter of the model that
//! scored this request (see [`crate::server`]): every admitted request
//! is scored by exactly one generation, and the response records which
//! one, so a client racing a `/reload` can attribute each answer. v1
//! of this schema had no `generation` field; per the format-evolution
//! rules the breaking addition bumped the id.
//!
//! `positive` renders in Rust's shortest-roundtrip form, so a client
//! parsing it back recovers the server's `f64` bitwise — the loopback
//! tests compare daemon responses against offline `serve::score_rows`
//! output with `==`, no tolerance.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use forest::ConfidenceSplit;
use obs::jsonv::{self, JsonV};
use serve::ScoredRow;
use std::fmt;

/// Response schema identifier.
pub const RESPONSE_SCHEMA: &str = "survdb-score-response/v2";

/// A parsed `/score` request: one or more feature rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRequest {
    /// Feature rows, each exactly `feature_count` finite values.
    pub rows: Vec<Vec<f64>>,
}

/// One row of a `/score` response.
#[derive(Debug, Clone, PartialEq)]
pub struct RowScore {
    /// Positive-class probability.
    pub positive: f64,
    /// Predicted class under `p > 0.5`.
    pub predicted: usize,
    /// Whether the row is confident under `t = max(q, 1 - q)`.
    pub confident: bool,
}

impl RowScore {
    /// Projects the wire view out of a scored row.
    pub fn from_scored(row: &ScoredRow) -> RowScore {
        RowScore {
            positive: row.positive,
            predicted: row.predicted,
            confident: row.split == ConfidenceSplit::Confident,
        }
    }
}

/// A parsed `/score` response: which model generation scored it, the
/// confidence threshold in force, and the per-row scores.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreResponse {
    /// Hot-swap generation of the scoring model.
    pub generation: u64,
    /// Confidence threshold `max(q, 1 - q)` of that generation.
    pub threshold: f64,
    /// Per-row scores, in request order.
    pub results: Vec<RowScore>,
}

/// `v` as an `f64`; `what` names it in the error and is formatted only
/// there, so a valid row costs no label.
fn number(v: &JsonV, what: fmt::Arguments) -> Result<f64, String> {
    match v {
        JsonV::Float(f) => Ok(*f),
        JsonV::UInt(u) => Ok(*u as f64),
        other => Err(format!("{what} must be a number, found {other:?}")),
    }
}

/// Parses and validates a `/score` request body against the model's
/// feature schema. Rejections here become HTTP 400s — downstream
/// scoring (`Dataset::push`) panics on malformed rows, so nothing
/// invalid may pass.
pub fn parse_score_request(
    body: &str,
    feature_count: usize,
    max_rows: usize,
) -> Result<ScoreRequest, String> {
    let root = jsonv::parse(body)?;
    let JsonV::Obj(fields) = &root else {
        return Err("request must be a JSON object".to_string());
    };
    let rows_value = match fields.as_slice() {
        [(key, value)] if key == "rows" => value,
        _ => return Err("request must have exactly one key, \"rows\"".to_string()),
    };
    let JsonV::Arr(raw_rows) = rows_value else {
        return Err("\"rows\" must be an array".to_string());
    };
    if raw_rows.is_empty() {
        return Err("\"rows\" must not be empty".to_string());
    }
    if raw_rows.len() > max_rows {
        return Err(format!(
            "{} rows exceed the per-request limit of {max_rows}",
            raw_rows.len()
        ));
    }
    let mut rows = Vec::with_capacity(raw_rows.len());
    for (i, raw) in raw_rows.iter().enumerate() {
        let JsonV::Arr(values) = raw else {
            return Err(format!("rows[{i}] must be an array"));
        };
        if values.len() != feature_count {
            return Err(format!(
                "rows[{i}] has {} features, the model expects {feature_count}",
                values.len()
            ));
        }
        let mut row = Vec::with_capacity(values.len());
        for (j, value) in values.iter().enumerate() {
            let v = number(value, format_args!("rows[{i}][{j}]"))?;
            if !v.is_finite() {
                return Err(format!("rows[{i}][{j}] is not finite"));
            }
            row.push(v);
        }
        rows.push(row);
    }
    Ok(ScoreRequest { rows })
}

/// Renders a `/score` request body (the client side).
pub fn render_score_request(rows: &[Vec<f64>]) -> String {
    JsonV::obj(vec![(
        "rows",
        JsonV::Arr(
            rows.iter()
                .map(|row| JsonV::Arr(row.iter().map(|&v| JsonV::Float(v)).collect()))
                .collect(),
        ),
    )])
    .render()
}

/// Renders a `/score` response body for the model generation that
/// scored it.
pub fn render_score_response(generation: u64, threshold: f64, results: &[RowScore]) -> String {
    JsonV::obj(vec![
        ("schema", JsonV::Str(RESPONSE_SCHEMA.to_string())),
        ("generation", JsonV::UInt(generation)),
        ("threshold", JsonV::Float(threshold)),
        (
            "results",
            JsonV::Arr(
                results
                    .iter()
                    .map(|r| {
                        JsonV::obj(vec![
                            ("positive", JsonV::Float(r.positive)),
                            ("predicted", JsonV::UInt(r.predicted as u64)),
                            ("confident", JsonV::Bool(r.confident)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// Parses a `/score` response body — the client side: [`crate::verify`]
/// and the loopback tests.
pub fn parse_score_response(text: &str) -> Result<ScoreResponse, String> {
    let root = jsonv::parse(text)?;
    match root.get("schema") {
        Some(JsonV::Str(s)) if s == RESPONSE_SCHEMA => {}
        other => {
            return Err(format!(
                "schema must be {RESPONSE_SCHEMA:?}, found {other:?}"
            ))
        }
    }
    let generation = match root.get("generation") {
        Some(JsonV::UInt(g)) => *g,
        other => return Err(format!("generation must be a uint, found {other:?}")),
    };
    let threshold = number(
        root.get("threshold").ok_or("missing threshold")?,
        format_args!("threshold"),
    )?;
    let Some(JsonV::Arr(raw)) = root.get("results") else {
        return Err("results must be an array".to_string());
    };
    let mut results = Vec::with_capacity(raw.len());
    for (i, item) in raw.iter().enumerate() {
        let positive = number(
            item.get("positive")
                .ok_or(format!("results[{i}]: missing positive"))?,
            format_args!("positive"),
        )?;
        let predicted = match item.get("predicted") {
            Some(JsonV::UInt(v)) => *v as usize,
            other => {
                return Err(format!(
                    "results[{i}].predicted must be a uint, found {other:?}"
                ))
            }
        };
        let confident = match item.get("confident") {
            Some(JsonV::Bool(b)) => *b,
            other => {
                return Err(format!(
                    "results[{i}].confident must be a bool, found {other:?}"
                ))
            }
        };
        results.push(RowScore {
            positive,
            predicted,
            confident,
        });
    }
    Ok(ScoreResponse {
        generation,
        threshold,
        results,
    })
}

/// Renders an error body: `{"error": "<message>"}`.
pub fn render_error(message: &str) -> String {
    JsonV::obj(vec![("error", JsonV::Str(message.to_string()))]).render()
}

/// Renders the `/reload` success body: which generation is now live.
pub fn render_reload_response(generation: u64, tree_count: usize, feature_count: usize) -> String {
    JsonV::obj(vec![
        ("generation", JsonV::UInt(generation)),
        ("model_trees", JsonV::UInt(tree_count as u64)),
        ("model_features", JsonV::UInt(feature_count as u64)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let rows = vec![vec![0.25, 1.0, -3.5], vec![0.1, 0.2, 0.3]];
        let body = render_score_request(&rows);
        let parsed = parse_score_request(&body, 3, 16).expect("valid");
        assert_eq!(parsed.rows, rows);
    }

    #[test]
    fn request_rejections() {
        assert!(parse_score_request("nonsense", 2, 16).is_err());
        assert!(parse_score_request("[]", 2, 16).is_err());
        assert!(parse_score_request("{\"rows\": []}", 2, 16).is_err());
        assert!(parse_score_request("{\"extra\": 1}", 2, 16).is_err());
        // Feature-count mismatch.
        assert!(parse_score_request("{\"rows\": [[1.0]]}", 2, 16).is_err());
        // Non-finite feature.
        assert!(parse_score_request("{\"rows\": [[1.0, null]]}", 2, 16).is_err());
        // Row cap.
        let body = render_score_request(&vec![vec![0.0, 0.0]; 17]);
        assert!(parse_score_request(&body, 2, 16).is_err());
    }

    #[test]
    fn cell_rejections_name_the_cell() {
        assert_eq!(
            parse_score_request("{\"rows\": [[0, 1, 2], [3, 4, \"x\"]]}", 3, 16),
            Err("rows[1][2] must be a number, found Str(\"x\")".to_string())
        );
        assert_eq!(
            parse_score_request("{\"rows\": [[0, 1, 2, 1e999]]}", 4, 16),
            Err("rows[0][3] is not finite".to_string())
        );
    }

    #[test]
    fn response_roundtrips_bitwise() {
        let results = vec![
            RowScore {
                positive: 1.0 / 3.0,
                predicted: 0,
                confident: false,
            },
            RowScore {
                positive: 0.925,
                predicted: 1,
                confident: true,
            },
        ];
        let body = render_score_response(3, 0.75, &results);
        let back = parse_score_response(&body).expect("valid");
        assert_eq!(back.generation, 3);
        assert_eq!(back.threshold, 0.75);
        assert_eq!(back.results, results); // f64 == — shortest roundtrip is exact
    }

    #[test]
    fn response_rejections() {
        assert!(parse_score_response("{}").is_err());
        let good = render_score_response(1, 0.75, &[]);
        assert!(parse_score_response(&good.replace(RESPONSE_SCHEMA, "v0")).is_err());
        // A v1 body (no generation) is refused, not misread.
        let v1 = good
            .replace(RESPONSE_SCHEMA, "survdb-score-response/v1")
            .replace("  \"generation\": 1,\n", "");
        assert!(parse_score_response(&v1).is_err());
    }

    #[test]
    fn error_body_renders() {
        assert_eq!(
            render_error("queue full"),
            "{\n  \"error\": \"queue full\"\n}\n"
        );
    }

    #[test]
    fn reload_body_renders() {
        let body = render_reload_response(2, 10, 3);
        let json = jsonv::parse(&body).expect("valid json");
        assert_eq!(json.get("generation"), Some(&JsonV::UInt(2)));
        assert_eq!(json.get("model_trees"), Some(&JsonV::UInt(10)));
    }
}
