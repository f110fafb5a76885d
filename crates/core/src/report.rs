//! Plain-text reporting: paper-style score tables and ASCII survival
//! curves for the `repro` harness and the examples, plus human-readable
//! renderings of an [`obs`] snapshot (per-phase timing breakdown and
//! counter table).

use crate::experiment::{KmSeries, SubgroupResult};
use forest::ClassificationScores;

/// Renders one or more KM curves as an ASCII chart (time on x, survival
/// on y). Each curve gets a distinct glyph; overlaps show the later
/// curve's glyph.
pub fn ascii_km_chart(curves: &[(&str, &[(f64, f64)])], width: usize, height: usize) -> String {
    assert!(width >= 20 && height >= 5, "chart too small");
    assert!(!curves.is_empty(), "need at least one curve");
    const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];

    let max_t = curves
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|(t, _)| *t))
        .fold(0.0_f64, f64::max)
        .max(1.0);

    let mut grid = vec![vec![' '; width]; height];
    for (ci, (_, pts)) in curves.iter().enumerate() {
        let glyph = GLYPHS[ci % GLYPHS.len()];
        // `col` picks both the x position and (via the looked-up
        // survival) a per-column row, so an iterator over `grid` —
        // which is row-major — cannot replace it.
        #[allow(clippy::needless_range_loop)]
        for col in 0..width {
            let t = max_t * col as f64 / (width - 1) as f64;
            // Step-function lookup over the sampled points.
            let mut s = 1.0;
            for &(pt, ps) in pts.iter() {
                if pt <= t {
                    s = ps;
                } else {
                    break;
                }
            }
            let row = ((1.0 - s) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col] = glyph;
        }
    }

    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            "1.0 |"
        } else if r == height - 1 {
            "0.0 |"
        } else if r == height / 2 {
            "0.5 |"
        } else {
            "    |"
        };
        out.push_str(label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("    +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "     0 days {:>w$.0} days\n",
        max_t,
        w = width - 8
    ));
    for (ci, (name, _)) in curves.iter().enumerate() {
        out.push_str(&format!("     {} {}\n", GLYPHS[ci % GLYPHS.len()], name));
    }
    out
}

/// Convenience: chart from [`KmSeries`] values.
pub fn ascii_km_series(series: &[&KmSeries], width: usize, height: usize) -> String {
    let curves: Vec<(&str, &[(f64, f64)])> = series
        .iter()
        .map(|s| (s.label.as_str(), s.points.as_slice()))
        .collect();
    ascii_km_chart(&curves, width, height)
}

/// Formats a Figure-5/7-style score row.
pub fn score_row(label: &str, s: &ClassificationScores) -> String {
    format!(
        "{label:<28} acc {:.3}  prec {:.3}  rec {:.3}  (n = {})",
        s.accuracy, s.precision, s.recall, s.support
    )
}

/// Formats a compact one-line p-value with the paper's significance
/// convention.
pub fn p_value_cell(p: f64) -> String {
    if p < 1e-7 {
        "< 0.0000001".to_string()
    } else {
        format!("{p:.6}")
    }
}

/// Full plain-text block for one subgroup result (one Figure-5 panel
/// triple + its Figure-6/8/9 significance lines).
pub fn subgroup_block(r: &SubgroupResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "--- {} / {} (n = {}, q = {:.3}, t = {:.3}, tuned: {})\n",
        r.region,
        r.edition,
        r.population,
        r.positive_fraction,
        r.confidence_threshold,
        r.tuned_params
    ));
    out.push_str(&score_row("  forest", &r.forest));
    out.push('\n');
    out.push_str(&score_row("  baseline", &r.baseline));
    out.push('\n');
    out.push_str(&score_row("  confident", &r.confident));
    out.push('\n');
    out.push_str(&score_row("  uncertain", &r.uncertain));
    out.push('\n');
    out.push_str(&format!(
        "  confident coverage {:.1}%   oob {:.3}\n",
        r.confident_fraction * 100.0,
        r.oob_accuracy
    ));
    out.push_str(&format!(
        "  log-rank p: whole {}  baseline {}  confident {}  uncertain {}\n",
        p_value_cell(r.whole_grouping.logrank_p),
        p_value_cell(r.baseline_grouping.logrank_p),
        p_value_cell(r.confident_grouping.logrank_p),
        p_value_cell(r.uncertain_grouping.logrank_p),
    ));
    out
}

/// Plain-text block for a batch-scoring run (`scored` binary): counts,
/// confident coverage, and the positive-probability spectrum.
pub fn scoring_block(s: &serve::ScoreSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "--- scored {} rows (q = {:.3}, t = {:.3})\n",
        s.rows, s.positive_fraction, s.threshold
    ));
    let pct = |part: usize| {
        if s.rows == 0 {
            0.0
        } else {
            part as f64 * 100.0 / s.rows as f64
        }
    };
    out.push_str(&format!(
        "  predicted   {} positive / {} negative   mean p+ {:.3}\n",
        s.predicted_positive, s.predicted_negative, s.mean_positive
    ));
    out.push_str(&format!(
        "  confident   {} ({:.1}%)   positive {} / negative {}\n",
        s.confident,
        pct(s.confident),
        s.confident_positive,
        s.confident_negative
    ));
    out.push_str(&format!(
        "  uncertain   {} ({:.1}%)\n",
        s.uncertain,
        pct(s.uncertain)
    ));
    let peak = s.histogram.iter().copied().max().unwrap_or(0).max(1);
    for (b, &count) in s.histogram.iter().enumerate() {
        let close = if b == 9 { ']' } else { ')' };
        let bar = "#".repeat((count * 40 / peak) as usize);
        out.push_str(&format!(
            "  p+ [{:.1}, {:.1}{close} {count:>7}  {bar}\n",
            b as f64 / 10.0,
            (b + 1) as f64 / 10.0,
        ));
    }
    out
}

/// Plain-text block for a serving run (`loadgen`, or `survd` at
/// drain): outcome counts, per-stage observation counts and sketch
/// quantiles, and the drift monitor's reference-vs-live
/// positive-probability histograms with the TV divergence.
pub fn serving_block(
    counts: &survd::ServingCounts,
    stages: &[obs::Sketch; survd::STAGE_COUNT],
    drift: &obs::DriftSnapshot,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "--- served {} requests: {} ok / {} shed / {} error ({} rows scored)\n",
        counts.requests_sent,
        counts.responses_ok,
        counts.responses_shed,
        counts.responses_error,
        counts.rows_scored
    ));
    for (name, sketch) in survd::STAGE_NAMES.iter().zip(stages.iter()) {
        out.push_str(&format!(
            "  {name:<12} {:>8} obs   p50 {:>10} ms   p95 {:>10} ms   p99 {:>10} ms\n",
            sketch.total(),
            sketch.quantile(0.50),
            sketch.quantile(0.95),
            sketch.quantile(0.99),
        ));
    }
    out.push_str(&format!(
        "  drift: {} scored vs {} reference, divergence {:.4}\n",
        drift.total(),
        drift.reference_total(),
        drift.divergence()
    ));
    let peak = drift
        .reference
        .iter()
        .chain(drift.live.iter())
        .copied()
        .max()
        .unwrap_or(0)
        .max(1);
    for b in 0..obs::DRIFT_BUCKETS {
        let close = if b == obs::DRIFT_BUCKETS - 1 {
            ']'
        } else {
            ')'
        };
        let reference_bar = "#".repeat((drift.reference[b] * 20 / peak) as usize);
        let live_bar = "#".repeat((drift.live[b] * 20 / peak) as usize);
        out.push_str(&format!(
            "  p+ [{:.1}, {:.1}{close} ref {:>7} {reference_bar:<20} live {:>7} {live_bar}\n",
            b as f64 / 10.0,
            (b + 1) as f64 / 10.0,
            drift.reference[b],
            drift.live[b],
        ));
    }
    out
}

/// Renders an indented span-tree timing table from an [`obs`]
/// snapshot: one row per span path, indented by nesting depth, with
/// call count, total and mean wall time, and the number of distinct
/// threads that recorded under the path. Span paths are
/// lexicographically sorted, which groups children under their parent
/// (a child path extends its parent's with `/`).
pub fn phase_table(snapshot: &obs::Snapshot) -> String {
    if snapshot.spans.is_empty() {
        return "  (no spans recorded)\n".to_string();
    }
    let mut out = String::new();
    for (path, span) in &snapshot.spans {
        let depth = path.matches('/').count();
        let name = path.rsplit('/').next().unwrap_or(path);
        let total_ms = span.total_ns as f64 / 1e6;
        let mean_ms = total_ms / span.count.max(1) as f64;
        out.push_str(&format!(
            "  {:indent$}{name:<width$} {:>7} calls  {total_ms:>10.2} ms total  \
             {mean_ms:>9.3} ms/call  {} thread{}\n",
            "",
            span.count,
            span.threads,
            if span.threads == 1 { "" } else { "s" },
            indent = depth * 2,
            width = 24usize.saturating_sub(depth * 2),
        ));
    }
    out
}

/// Renders the counter and gauge table from an [`obs`] snapshot, one
/// `name = value` row per entry in name order.
pub fn counter_table(snapshot: &obs::Snapshot) -> String {
    if snapshot.counters.is_empty() && snapshot.gauges.is_empty() {
        return "  (no counters recorded)\n".to_string();
    }
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        out.push_str(&format!("  {name:<44} = {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        out.push_str(&format!("  {name:<44} = {value}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_and_counter_tables_render() {
        let mut snapshot = obs::Snapshot::default();
        snapshot.spans.insert(
            "experiment".to_string(),
            obs::SpanSnapshot {
                count: 1,
                total_ns: 2_500_000,
                threads: 1,
            },
        );
        snapshot.spans.insert(
            "experiment/repetition".to_string(),
            obs::SpanSnapshot {
                count: 5,
                total_ns: 2_000_000,
                threads: 2,
            },
        );
        snapshot
            .counters
            .insert("forest.trees_built".to_string(), 40);
        snapshot.gauges.insert("grid.best_score".to_string(), 0.75);

        let phases = phase_table(&snapshot);
        assert!(phases.contains("experiment"), "{phases}");
        assert!(phases.contains("repetition"), "{phases}");
        assert!(phases.contains("5 calls"), "{phases}");
        assert!(phases.contains("2 threads"), "{phases}");

        let counters = counter_table(&snapshot);
        assert!(counters.contains("forest.trees_built"), "{counters}");
        assert!(counters.contains("= 40"), "{counters}");
        assert!(counters.contains("grid.best_score"), "{counters}");

        assert_eq!(
            phase_table(&obs::Snapshot::default()),
            "  (no spans recorded)\n"
        );
        assert_eq!(
            counter_table(&obs::Snapshot::default()),
            "  (no counters recorded)\n"
        );
    }

    #[test]
    fn chart_renders_monotone_curve() {
        let pts: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64 * 5.0, 1.0 - i as f64 * 0.04))
            .collect();
        let chart = ascii_km_chart(&[("test", &pts)], 40, 10);
        assert!(chart.contains("1.0 |"));
        assert!(chart.contains("0.0 |"));
        assert!(chart.contains("* test"));
        // First column should show the curve at the top row.
        let first_line = chart.lines().next().unwrap();
        assert!(first_line.contains('*'));
    }

    #[test]
    fn chart_multiple_curves_distinct_glyphs() {
        let a: Vec<(f64, f64)> = vec![(0.0, 1.0), (10.0, 0.9)];
        let b: Vec<(f64, f64)> = vec![(0.0, 1.0), (10.0, 0.2)];
        let chart = ascii_km_chart(&[("high", &a), ("low", &b)], 30, 8);
        assert!(chart.contains('*') && chart.contains('o'));
    }

    #[test]
    fn scoring_block_renders_counts_and_histogram() {
        let summary = serve::ScoreSummary {
            rows: 100,
            confident: 80,
            uncertain: 20,
            predicted_positive: 60,
            predicted_negative: 40,
            confident_positive: 50,
            confident_negative: 30,
            positive_fraction: 0.6,
            threshold: 0.6,
            mean_positive: 0.55,
            histogram: [5, 5, 10, 10, 10, 10, 10, 10, 20, 20],
        };
        let block = scoring_block(&summary);
        assert!(block.contains("scored 100 rows"), "{block}");
        assert!(block.contains("confident   80 (80.0%)"), "{block}");
        assert!(block.contains("uncertain   20 (20.0%)"), "{block}");
        assert!(block.contains("p+ [0.0, 0.1)"), "{block}");
        assert!(block.contains("p+ [0.9, 1.0]"), "{block}");
        // The fullest bucket gets the longest bar.
        assert!(block.contains(&"#".repeat(40)), "{block}");
    }

    /// A consistent serving run: 10 requests, 8 ok × 4 rows.
    fn serving_sample() -> (
        survd::ServingCounts,
        [obs::Sketch; survd::STAGE_COUNT],
        obs::DriftSnapshot,
    ) {
        let counts = survd::ServingCounts {
            requests_sent: 10,
            responses_ok: 8,
            responses_shed: 2,
            responses_error: 0,
            rows_scored: 32,
        };
        let mut stages: [obs::Sketch; survd::STAGE_COUNT] = Default::default();
        for stage in stages.iter_mut() {
            stage.observe_n(1.5, 8);
        }
        stages[2].observe_n(0.1, 24);
        let drift = obs::DriftSnapshot {
            reference: [4, 4, 4, 4, 4, 4, 4, 4, 4, 4],
            live: [0, 0, 16, 0, 0, 0, 0, 16, 0, 0],
        };
        (counts, stages, drift)
    }

    #[test]
    fn serving_block_renders_counts_and_latency() {
        let (counts, stages, drift) = serving_sample();
        let block = serving_block(&counts, &stages, &drift);
        assert!(
            block.contains("served 10 requests: 8 ok / 2 shed / 0 error (32 rows scored)"),
            "{block}"
        );
        assert!(block.contains("p50"), "{block}");
        // The fullest bucket gets the longest bar.
        assert!(block.contains(&"#".repeat(20)), "{block}");
    }

    #[test]
    fn latency_block_renders_stages_and_drift() {
        let (counts, stages, drift) = serving_sample();
        let block = serving_block(&counts, &stages, &drift);
        for name in survd::STAGE_NAMES {
            assert!(block.contains(&format!("  {name:<12}")), "{name}: {block}");
        }
        assert!(block.contains("       32 obs"), "{block}");
        assert!(block.contains("32 scored vs 40 reference"), "{block}");
        assert!(block.contains("divergence"), "{block}");
        assert!(block.contains("p+ [0.0, 0.1)"), "{block}");
        assert!(block.contains("p+ [0.9, 1.0]"), "{block}");
    }

    #[test]
    fn p_value_formatting() {
        assert_eq!(p_value_cell(1e-9), "< 0.0000001");
        assert_eq!(p_value_cell(0.925429), "0.925429");
    }

    #[test]
    #[should_panic]
    fn chart_rejects_empty() {
        ascii_km_chart(&[], 40, 10);
    }
}
