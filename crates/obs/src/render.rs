//! Text exposition of a [`Snapshot`] — the body a
//! metrics endpoint serves.
//!
//! Prometheus-flavored line format: one `family{label="key"} value`
//! line per metric, families declared with `# TYPE` comments. Keys
//! come out of the snapshot's `BTreeMap`s, so ordering is
//! deterministic; counter and gauge *values* are whatever the registry
//! accumulated (span timings are wall-clock and therefore vary run to
//! run — this is a live exposition, not the run-trace artifact).

use crate::registry::Snapshot;
use crate::sketch::{bucket_label, SKETCH_BUCKETS};
use std::fmt::Write as _;

fn escape_label(raw: &str) -> String {
    raw.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a snapshot as a text metrics exposition.
pub fn render_metrics(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    if !snapshot.counters.is_empty() {
        out.push_str("# TYPE survdb_counter counter\n");
        for (name, value) in &snapshot.counters {
            let _ = writeln!(
                out,
                "survdb_counter{{name=\"{}\"}} {value}",
                escape_label(name)
            );
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("# TYPE survdb_gauge gauge\n");
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(
                out,
                "survdb_gauge{{name=\"{}\"}} {value}",
                escape_label(name)
            );
        }
    }
    if !snapshot.sketches.is_empty() {
        // Prometheus histogram convention: cumulative `le` buckets.
        // Empty buckets are skipped for compactness (cumulative counts
        // at the rendered bounds stay valid); the `+Inf` bucket and
        // the `_count` line are always emitted. Bucket order is fixed
        // and bounds are exact powers of two, so the rendering is
        // byte-stable for a given set of counts.
        out.push_str("# TYPE survdb_sketch histogram\n");
        for (name, sketch) in &snapshot.sketches {
            let mut cumulative = 0u64;
            for (i, &count) in sketch.counts().iter().enumerate() {
                cumulative += count;
                if count == 0 && i != SKETCH_BUCKETS - 1 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "survdb_sketch_bucket{{name=\"{}\",le=\"{}\"}} {cumulative}",
                    escape_label(name),
                    bucket_label(i)
                );
            }
            let _ = writeln!(
                out,
                "survdb_sketch_count{{name=\"{}\"}} {}",
                escape_label(name),
                sketch.total()
            );
        }
    }
    if !snapshot.spans.is_empty() {
        out.push_str("# TYPE survdb_span_count counter\n");
        for (path, span) in &snapshot.spans {
            let _ = writeln!(
                out,
                "survdb_span_count{{path=\"{}\"}} {}",
                escape_label(path),
                span.count
            );
        }
        out.push_str("# TYPE survdb_span_total_seconds counter\n");
        for (path, span) in &snapshot.spans {
            let _ = writeln!(
                out,
                "survdb_span_total_seconds{{path=\"{}\"}} {:.6}",
                escape_label(path),
                span.total_ns as f64 / 1e9
            );
        }
    }
    out.push_str("# TYPE survdb_events_total counter\n");
    let _ = writeln!(out, "survdb_events_total {}", snapshot.events.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Snapshot, SpanSnapshot};

    #[test]
    fn renders_sorted_families() {
        let mut snapshot = Snapshot::default();
        snapshot.counters.insert("b.count".to_string(), 2);
        snapshot.counters.insert("a.count".to_string(), 1);
        snapshot.gauges.insert("depth".to_string(), 3.5);
        snapshot.spans.insert(
            "score".to_string(),
            SpanSnapshot {
                count: 4,
                total_ns: 1_500_000,
                threads: 1,
            },
        );
        let text = render_metrics(&snapshot);
        let a = text.find("survdb_counter{name=\"a.count\"} 1").unwrap();
        let b = text.find("survdb_counter{name=\"b.count\"} 2").unwrap();
        assert!(a < b, "counters sorted: {text}");
        assert!(text.contains("survdb_gauge{name=\"depth\"} 3.5"), "{text}");
        assert!(
            text.contains("survdb_span_count{path=\"score\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("survdb_span_total_seconds{path=\"score\"} 0.001500"),
            "{text}"
        );
        assert!(text.contains("survdb_events_total 0"), "{text}");
    }

    #[test]
    fn full_output_is_byte_stable_and_fully_sorted() {
        // Pins the complete exposition: family order (counters, gauges,
        // sketches, spans, events), `# TYPE` lines for every family,
        // name-sorted entries within each family, and byte-exact value
        // formatting. A change to any of these must update this test
        // deliberately.
        let mut snapshot = Snapshot::default();
        snapshot.counters.insert("b.count".to_string(), 2);
        snapshot.counters.insert("a.count".to_string(), 1);
        snapshot.gauges.insert("depth".to_string(), 3.5);
        let mut stage = crate::sketch::Sketch::new();
        stage.observe(1.0);
        stage.observe(1.0);
        stage.observe(100.0);
        snapshot.sketches.insert("stage_ms".to_string(), stage);
        snapshot.sketches.insert("a_ms".to_string(), {
            let mut s = crate::sketch::Sketch::new();
            s.observe(0.0);
            s
        });
        snapshot.spans.insert(
            "score".to_string(),
            SpanSnapshot {
                count: 4,
                total_ns: 1_500_000,
                threads: 1,
            },
        );
        let expected = "\
# TYPE survdb_counter counter
survdb_counter{name=\"a.count\"} 1
survdb_counter{name=\"b.count\"} 2
# TYPE survdb_gauge gauge
survdb_gauge{name=\"depth\"} 3.5
# TYPE survdb_sketch histogram
survdb_sketch_bucket{name=\"a_ms\",le=\"0.000244140625\"} 1
survdb_sketch_bucket{name=\"a_ms\",le=\"+Inf\"} 1
survdb_sketch_count{name=\"a_ms\"} 1
survdb_sketch_bucket{name=\"stage_ms\",le=\"1\"} 2
survdb_sketch_bucket{name=\"stage_ms\",le=\"128\"} 3
survdb_sketch_bucket{name=\"stage_ms\",le=\"+Inf\"} 3
survdb_sketch_count{name=\"stage_ms\"} 3
# TYPE survdb_span_count counter
survdb_span_count{path=\"score\"} 4
# TYPE survdb_span_total_seconds counter
survdb_span_total_seconds{path=\"score\"} 0.001500
# TYPE survdb_events_total counter
survdb_events_total 0
";
        assert_eq!(render_metrics(&snapshot), expected);
        // Byte-stable: re-rendering the same snapshot is identical.
        assert_eq!(render_metrics(&snapshot), expected);
    }

    #[test]
    fn empty_snapshot_renders_only_event_total() {
        let text = render_metrics(&Snapshot::default());
        assert_eq!(
            text,
            "# TYPE survdb_events_total counter\nsurvdb_events_total 0\n"
        );
    }

    #[test]
    fn quotes_in_names_are_escaped() {
        let mut snapshot = Snapshot::default();
        snapshot.counters.insert("weird\"name".to_string(), 1);
        let text = render_metrics(&snapshot);
        assert!(
            text.contains("survdb_counter{name=\"weird\\\"name\"} 1"),
            "{text}"
        );
    }
}
