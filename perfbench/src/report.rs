//! The metric catalogue, the result line, output checks and the small
//! timing and statistics helpers every workload shares.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics: every untraced run reports all of them, and
/// every one is nonzero. Each workload maps them onto its own unit of
/// work (see `README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

/// Per-layer metrics: every traced run reports all of them. A layer
/// the workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("telemetry.generate_ms", "ms"),
    ("telemetry.fault_ms", "ms"),
    ("telemetry.ingest_ms", "ms"),
    ("telemetry.events", "count"),
    ("telemetry.recovered_ratio", "ratio"),
    ("features.extract_ms", "ms"),
    ("features.rows", "count"),
    ("survival.km_ms", "ms"),
    ("survival.logrank_ms", "ms"),
    ("core.experiment_ms", "ms"),
    ("core.accuracy", "ratio"),
    ("core.confident_accuracy", "ratio"),
    ("forest.trees_built", "count"),
    ("forest.nodes_expanded", "count"),
    ("forest.split_scan.dense", "count"),
    ("forest.split_scan.sparse", "count"),
    ("serve.model_load_ms", "ms"),
    ("serve.score_ms", "ms"),
    ("serve.kernel_rows_per_s", "1/s"),
    ("serve.node_steps_per_row", "count"),
    ("serve.low.p99_ms", "ms"),
    ("serve.high.p50_ms", "ms"),
    ("serve.high.p99_ms", "ms"),
    ("policy.decide_ms", "ms"),
    ("policy.sweep_ms", "ms"),
    ("survd.queue_wait_ms", "ms"),
    ("survd.batch_wait_ms", "ms"),
    ("survd.rows_per_batch", "count"),
    ("survd.wire_render_us", "us"),
    ("survd.wire_parse_us", "us"),
    ("bench.wall_ms", "ms"),
    ("bench.gen_lag_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
];

/// What one workload run produced: operation counts, metric values and
/// the failures its output checks found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the workload attempted (shards, panels, batches,
    /// requests), checks included.
    pub attempted: u64,
    /// Operations that failed or produced a wrong answer.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets a catalogued metric. Panics on a name outside the catalogue,
    /// so a typo cannot silently drop a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a catalogued metric"
        );
        self.values.insert(name, value);
    }

    /// The value set for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one checked operation; a false `ok` is a failure and its
    /// description goes to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Records `failed` failures among `attempted` operations.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of the run's catalogue. An end-to-end
    /// metric that is missing, zero or not finite makes the run
    /// incorrect; a per-layer metric nothing set reads 0.
    pub fn render(&self, trace: bool) -> String {
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.get(name) {
                Some(v) if v.is_finite() && (trace || v > 0.0) => v,
                other => {
                    if !trace || other.is_some() {
                        eprintln!("perfbench: metric {name} is {other:?}");
                        correct = false;
                    }
                    0.0
                }
            };
            // `{:?}` prints every digit of the shortest round-trip form.
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// Nearest-rank quantile of an ascending-sorted sample (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `values` ascending (NaN-free by construction: every value is
/// a measured duration or rate).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `setup` `times` times, returning the last result and the median
/// set-up time in seconds. Repeating set-up makes `setup_s` a median
/// rather than one sample, so work moved into set-up shows reliably.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut samples = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let start = Instant::now();
        last = Some(setup());
        samples.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&samples))
}

/// Whether another pass fits in the measured window: one as long as
/// the last pass must still end within `seconds` of `start`.
pub fn another_pass(start: Instant, seconds: f64, last_ms: f64) -> bool {
    start.elapsed().as_secs_f64() + last_ms / 1e3 <= seconds
}

/// Each operation's best (lowest) time across `passes` (one slice of
/// per-operation milliseconds per pass, operations in the same order
/// every pass), sorted ascending. On a shared host a core can slow by
/// half for seconds at a time while other tenants are busy; the best of
/// a run's passes tracks the code's own cost, where a median tracks how
/// much of the run fell in a slow phase.
pub fn best_op_ms(passes: &[&[f64]]) -> Vec<f64> {
    let ops = passes.iter().map(|p| p.len()).min().unwrap_or(0);
    sorted(
        (0..ops)
            .map(|j| passes.iter().map(|p| p[j]).fold(f64::INFINITY, f64::min))
            .collect(),
    )
}

/// Self time per layer, accumulated by the benchmark's own timers
/// around each call it makes into a crate. The calls never nest, so the
/// layer times plus the unattributed remainder add up to wall time.
#[derive(Debug, Default, Clone)]
pub struct LayerClock {
    totals: BTreeMap<&'static str, Duration>,
}

impl LayerClock {
    /// Times `f` and charges it to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        *self.totals.entry(layer).or_default() += start.elapsed();
        out
    }

    /// Adds the times `other` charged into this clock.
    pub fn merge(&mut self, other: &LayerClock) {
        for (layer, d) in &other.totals {
            *self.totals.entry(layer).or_default() += *d;
        }
    }

    /// Milliseconds charged to `layer` so far.
    pub fn ms(&self, layer: &str) -> f64 {
        self.totals.get(layer).map_or(0.0, |d| ms(*d))
    }
}

/// Reports a traced pass's layer self times in milliseconds, with the
/// pass's wall time they must add up to and the unattributed share.
pub fn report_layers(outcome: &mut Outcome, layers: &[(&'static str, f64)], wall_ms: f64) {
    let attributed: f64 = layers.iter().map(|(_, v)| v).sum();
    for &(name, ms) in layers {
        outcome.set(name, ms);
    }
    let unattributed = wall_ms - attributed;
    outcome.check(unattributed >= 0.0, || {
        format!("layer self times {attributed:.3} ms exceed wall {wall_ms:.3} ms")
    });
    outcome.set("bench.wall_ms", wall_ms);
    outcome.set("bench.unattributed_pct", 100.0 * unattributed / wall_ms);
}

/// Runs `f` with a fresh `obs` registry installed when `trace` is set,
/// returning its snapshot alongside the result.
pub fn observed<R>(trace: bool, f: impl FnOnce() -> R) -> (R, Option<obs::Snapshot>) {
    if !trace {
        return (f(), None);
    }
    let registry = obs::Registry::with_stderr_level(obs::Level::Error);
    let out = {
        let _guard = registry.install();
        f()
    };
    (out, Some(registry.snapshot()))
}

/// Total nanoseconds of every span whose innermost name is `leaf`.
pub fn span_ms(snapshot: &obs::Snapshot, leaf: &str) -> f64 {
    snapshot
        .spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
        .map(|(_, s)| s.total_ns as f64 / 1e6)
        .sum()
}

/// A counter's value (0 when never counted).
pub fn counter(snapshot: &obs::Snapshot, name: &str) -> f64 {
    snapshot.counters.get(name).copied().unwrap_or(0) as f64
}

/// Peak resident set size of this process in MB.
pub fn peak_rss_mb() -> f64 {
    bench::fleet::peak_rss_kb() as f64 / 1024.0
}
