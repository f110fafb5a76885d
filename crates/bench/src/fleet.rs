//! The fleet-scale artifact: `artifacts/fleet.json`.
//!
//! Layout (schema `survdb-fleet/v1`), following the two-section
//! run-trace convention:
//!
//! ```text
//! {
//!   "schema": "survdb-fleet/v1",
//!   "binary": "<emitting binary>",
//!   "deterministic": {           // byte-identical across runs, shard
//!                                // counts, and shard visit orders
//!     "scale": f64,
//!     "seed": u64,
//!     "fault_rate": f64,
//!     "chunk_subscriptions": u64,
//!     "feature_count": u64,
//!     "regions": [ { "region", "subscriptions", "generated",
//!                    "recovered", "quarantined", "vanished",
//!                    "dataset_rows", "positive_rows",
//!                    "dataset_fingerprint" } × 3 ],
//!     "totals":  { "generated", "recovered", "quarantined",
//!                  "vanished", "dataset_rows", "dataset_fingerprint" }
//!   },
//!   "nondeterministic": {        // the run's shard layout + wall clock
//!     "shard_count": u64,
//!     "visit_order": "forward" | "backward",
//!     "thread_limit": u64,
//!     "elapsed_ms": f64,
//!     "databases_per_second": f64,
//!     "rows_per_second": f64,
//!     "peak_rss_kb": u64,
//!     "shards": [ { "region", "shard", "subscriptions", "generated",
//!                   "recovered", "quarantined", "vanished", "rows" } ]
//!   }
//! }
//! ```
//!
//! The deterministic section is a pure function of
//! `(scale, seed, fault_rate, chunk_subscriptions)` — the shard count
//! and visit order are *not* inputs to it, which is the streaming
//! pipeline's core contract. CI runs `fleetbench` twice with different
//! shard layouts and byte-compares the sections. The schema check also
//! enforces the counting identity
//! `generated = recovered + quarantined + vanished` per shard, per
//! region, and in total, plus shard-to-region sum consistency — the
//! vanished count comes from an id-set difference, so the identity can
//! genuinely fail on a buggy producer.

use features::{feature_schema, FeatureConfig, FeatureExtractor};
use forest::Dataset;
use obs::artifact::{
    envelope, expect_arr, expect_float, expect_keys, expect_obj, expect_uint, field,
    validate_envelope, write_artifact,
};
use obs::jsonv::JsonV;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use telemetry::{
    run_shard, Census, FaultPlan, FleetConfig, RecoveryPolicy, RegionConfig, RegionId, ShardPlan,
};

/// Schema identifier for `fleet.json`.
pub const FLEET_SCHEMA: &str = "survdb-fleet/v1";

/// File name the artifact is written under.
pub const FLEET_FILE: &str = "fleet.json";

/// Shard visit order of a fleetbench run. The deterministic section
/// must not depend on the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitOrder {
    /// Shards in ascending index order.
    Forward,
    /// Shards in descending index order.
    Backward,
}

impl VisitOrder {
    /// The label written into the artifact.
    pub fn label(&self) -> &'static str {
        match self {
            VisitOrder::Forward => "forward",
            VisitOrder::Backward => "backward",
        }
    }
}

/// Options of one fleetbench run.
#[derive(Debug, Clone)]
pub struct FleetBenchOptions {
    /// Population scale (1.0 = canonical region sizes, ~18k databases).
    pub scale: f64,
    /// Master seed; per-region seeds derive the same way `Study::load`
    /// derives them.
    pub seed: u64,
    /// Shards per region.
    pub shards: usize,
    /// Whole subscriptions generated per ingest chunk.
    pub chunk_subscriptions: usize,
    /// Shard visit order.
    pub visit_order: VisitOrder,
    /// Per-event fault probability (0 = clean transport). Nonzero
    /// rates exercise the quarantine/vanished legs of the counting
    /// identity at fleet scale.
    pub fault_rate: f64,
    /// Output directory for `fleet.json`.
    pub artifact_dir: PathBuf,
}

impl Default for FleetBenchOptions {
    fn default() -> Self {
        FleetBenchOptions {
            scale: 1.0,
            seed: 0x5DB_2018,
            shards: 8,
            chunk_subscriptions: 32,
            visit_order: VisitOrder::Forward,
            fault_rate: 0.0,
            artifact_dir: PathBuf::from("artifacts"),
        }
    }
}

/// One region's shard-invariant accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionTotals {
    /// Region label.
    pub region: String,
    /// Subscriptions generated.
    pub subscriptions: usize,
    /// Databases generated before fault injection.
    pub generated: usize,
    /// Databases the lenient ingest reconstructed.
    pub recovered: usize,
    /// Databases quarantined during ingest.
    pub quarantined: usize,
    /// Databases lost without a trace (id-set difference).
    pub vanished: usize,
    /// Labeled prediction rows featurized from the recovered fleet.
    pub dataset_rows: usize,
    /// Rows labeled long-lived.
    pub positive_rows: usize,
    /// Order-insensitive content hash of the region's feature rows.
    pub dataset_fingerprint: u64,
}

/// One shard's accounting — the nondeterministic section's per-shard
/// breakdown (the shard layout is a runtime knob, not part of the
/// deterministic contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCounts {
    /// Region label.
    pub region: String,
    /// Shard index within the region's plan.
    pub shard: usize,
    /// Subscriptions in the shard.
    pub subscriptions: usize,
    /// Databases generated.
    pub generated: usize,
    /// Databases recovered.
    pub recovered: usize,
    /// Databases quarantined.
    pub quarantined: usize,
    /// Databases vanished.
    pub vanished: usize,
    /// Feature rows contributed.
    pub rows: usize,
}

/// Everything one fleetbench run measured.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The options the run used.
    pub options: FleetBenchOptions,
    /// Feature-schema width.
    pub feature_count: usize,
    /// Per-region shard-invariant totals, region order.
    pub regions: Vec<RegionTotals>,
    /// Per-shard accounting in visit order.
    pub shards: Vec<ShardCounts>,
    /// Worker-thread cap in effect.
    pub thread_limit: usize,
    /// Wall time of the whole run.
    pub elapsed_ms: f64,
    /// Peak resident set size in kB (`VmHWM`; 0 when unavailable).
    pub peak_rss_kb: u64,
}

impl FleetReport {
    /// Generated databases per wall-clock second.
    pub fn databases_per_second(&self) -> f64 {
        rate(
            self.regions.iter().map(|r| r.generated).sum::<usize>(),
            self.elapsed_ms,
        )
    }

    /// Featurized rows per wall-clock second.
    pub fn rows_per_second(&self) -> f64 {
        rate(
            self.regions.iter().map(|r| r.dataset_rows).sum::<usize>(),
            self.elapsed_ms,
        )
    }
}

fn rate(count: usize, elapsed_ms: f64) -> f64 {
    if elapsed_ms > 0.0 {
        count as f64 / (elapsed_ms / 1000.0)
    } else {
        0.0
    }
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`).
/// Returns 0 where procfs is unavailable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches(" kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// FNV-1a over one feature row plus its label.
fn row_hash(features: &[f64], label: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: [u8; 8]| {
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat((label as u64).to_le_bytes());
    for &v in features {
        eat(v.to_bits().to_le_bytes());
    }
    h
}

/// Order-insensitive content hash of a dataset: the wrapping sum of
/// per-row FNV-1a hashes. Insensitivity to row order is deliberate —
/// it makes the fingerprint shard-count- and visit-order-invariant
/// without the producer having to buffer rows for reordering (row
/// *order* equivalence is proven separately by
/// `tests/stream_equivalence.rs`).
pub fn dataset_fingerprint(dataset: &Dataset) -> u64 {
    let mut sum = 0u64;
    let mut row = Vec::with_capacity(dataset.feature_count());
    for i in 0..dataset.len() {
        dataset.gather_row_into(i, &mut row);
        sum = sum.wrapping_add(row_hash(&row, dataset.label(i)));
    }
    sum
}

/// Runs the full streaming pipeline over all three regions: sharded
/// generation → (optional) fault injection → chunked lenient ingest →
/// per-shard featurization. Raw telemetry never outlives one chunk and
/// reconstructed records never outlive their shard; only counters and
/// fingerprints accumulate, so memory stays bounded by the largest
/// shard regardless of total fleet size.
pub fn run_fleetbench(options: &FleetBenchOptions) -> FleetReport {
    let start = Instant::now();
    let policy = RecoveryPolicy::default();
    let fault_plan = (options.fault_rate > 0.0).then(|| FaultPlan {
        drop_size: options.fault_rate,
        duplicate: options.fault_rate / 2.0,
        reorder: options.fault_rate,
        truncate: options.fault_rate / 2.0,
        orphan: options.fault_rate / 4.0,
        ..FaultPlan::none(options.seed ^ 0xFA17)
    });
    let feature_config = FeatureConfig::default();
    let feature_count = feature_schema(&feature_config).len();

    let mut regions = Vec::new();
    let mut shards = Vec::new();
    for (i, &region_id) in RegionId::ALL.iter().enumerate() {
        let config = FleetConfig::new(
            RegionConfig::canonical(region_id).scaled(options.scale),
            // Distinct per-region streams, same scheme as `Study::load`.
            options.seed.wrapping_add(i as u64 * 0x9E37_79B9),
        );
        let plan = ShardPlan::new(config.region.subscription_count, options.shards);
        let mut totals = RegionTotals {
            region: region_id.to_string(),
            subscriptions: 0,
            generated: 0,
            recovered: 0,
            quarantined: 0,
            vanished: 0,
            dataset_rows: 0,
            positive_rows: 0,
            dataset_fingerprint: 0,
        };
        let order: Vec<usize> = match options.visit_order {
            VisitOrder::Forward => (0..plan.shard_count()).collect(),
            VisitOrder::Backward => (0..plan.shard_count()).rev().collect(),
        };
        for shard in order {
            let result = run_shard(
                &config,
                &plan,
                shard,
                options.chunk_subscriptions,
                fault_plan.as_ref(),
                &policy,
            );
            let census = Census::new(&result.fleet);
            let extractor = FeatureExtractor::new(&census, feature_config.clone());
            let (dataset, _survival) = extractor.build_dataset(&census, None);
            let counts = ShardCounts {
                region: totals.region.clone(),
                shard,
                subscriptions: result.fleet.subscriptions.len(),
                generated: result.generated_databases,
                recovered: result.report.databases_recovered,
                quarantined: result.report.databases_quarantined,
                vanished: result.vanished_databases,
                rows: dataset.len(),
            };
            totals.subscriptions += counts.subscriptions;
            totals.generated += counts.generated;
            totals.recovered += counts.recovered;
            totals.quarantined += counts.quarantined;
            totals.vanished += counts.vanished;
            totals.dataset_rows += counts.rows;
            totals.positive_rows += dataset.class_distribution()[1];
            totals.dataset_fingerprint = totals
                .dataset_fingerprint
                .wrapping_add(dataset_fingerprint(&dataset));
            shards.push(counts);
            // `result` and `dataset` drop here: the next shard starts
            // from the counters alone.
        }
        obs::info!(
            "fleetbench",
            "{}: {} databases generated, {} rows featurized",
            totals.region,
            totals.generated,
            totals.dataset_rows
        );
        regions.push(totals);
    }

    FleetReport {
        options: options.clone(),
        feature_count,
        regions,
        shards,
        thread_limit: forest::parallel::thread_limit(),
        elapsed_ms: start.elapsed().as_secs_f64() * 1000.0,
        peak_rss_kb: peak_rss_kb(),
    }
}

fn region_json(totals: &RegionTotals) -> JsonV {
    JsonV::obj(vec![
        ("region", JsonV::Str(totals.region.clone())),
        ("subscriptions", JsonV::UInt(totals.subscriptions as u64)),
        ("generated", JsonV::UInt(totals.generated as u64)),
        ("recovered", JsonV::UInt(totals.recovered as u64)),
        ("quarantined", JsonV::UInt(totals.quarantined as u64)),
        ("vanished", JsonV::UInt(totals.vanished as u64)),
        ("dataset_rows", JsonV::UInt(totals.dataset_rows as u64)),
        ("positive_rows", JsonV::UInt(totals.positive_rows as u64)),
        (
            "dataset_fingerprint",
            JsonV::UInt(totals.dataset_fingerprint),
        ),
    ])
}

fn deterministic_json(report: &FleetReport) -> JsonV {
    let sum =
        |f: fn(&RegionTotals) -> usize| -> u64 { report.regions.iter().map(|r| f(r) as u64).sum() };
    let fingerprint = report
        .regions
        .iter()
        .fold(0u64, |acc, r| acc.wrapping_add(r.dataset_fingerprint));
    JsonV::obj(vec![
        ("scale", JsonV::Float(report.options.scale)),
        ("seed", JsonV::UInt(report.options.seed)),
        ("fault_rate", JsonV::Float(report.options.fault_rate)),
        (
            "chunk_subscriptions",
            JsonV::UInt(report.options.chunk_subscriptions as u64),
        ),
        ("feature_count", JsonV::UInt(report.feature_count as u64)),
        (
            "regions",
            JsonV::Arr(report.regions.iter().map(region_json).collect()),
        ),
        (
            "totals",
            JsonV::obj(vec![
                ("generated", JsonV::UInt(sum(|r| r.generated))),
                ("recovered", JsonV::UInt(sum(|r| r.recovered))),
                ("quarantined", JsonV::UInt(sum(|r| r.quarantined))),
                ("vanished", JsonV::UInt(sum(|r| r.vanished))),
                ("dataset_rows", JsonV::UInt(sum(|r| r.dataset_rows))),
                ("dataset_fingerprint", JsonV::UInt(fingerprint)),
            ]),
        ),
    ])
}

/// Renders only the deterministic section — the byte string CI compares
/// across shard counts and visit orders.
pub fn deterministic_fleet_section(report: &FleetReport) -> String {
    deterministic_json(report).render()
}

fn shard_json(counts: &ShardCounts) -> JsonV {
    JsonV::obj(vec![
        ("region", JsonV::Str(counts.region.clone())),
        ("shard", JsonV::UInt(counts.shard as u64)),
        ("subscriptions", JsonV::UInt(counts.subscriptions as u64)),
        ("generated", JsonV::UInt(counts.generated as u64)),
        ("recovered", JsonV::UInt(counts.recovered as u64)),
        ("quarantined", JsonV::UInt(counts.quarantined as u64)),
        ("vanished", JsonV::UInt(counts.vanished as u64)),
        ("rows", JsonV::UInt(counts.rows as u64)),
    ])
}

/// Renders the full fleet artifact for `binary`.
pub fn render_fleet(binary: &str, report: &FleetReport) -> String {
    envelope(
        FLEET_SCHEMA,
        binary,
        deterministic_json(report),
        JsonV::obj(vec![
            ("shard_count", JsonV::UInt(report.options.shards as u64)),
            (
                "visit_order",
                JsonV::Str(report.options.visit_order.label().to_string()),
            ),
            ("thread_limit", JsonV::UInt(report.thread_limit as u64)),
            ("elapsed_ms", JsonV::Float(report.elapsed_ms)),
            (
                "databases_per_second",
                JsonV::Float(report.databases_per_second()),
            ),
            ("rows_per_second", JsonV::Float(report.rows_per_second())),
            ("peak_rss_kb", JsonV::UInt(report.peak_rss_kb)),
            (
                "shards",
                JsonV::Arr(report.shards.iter().map(shard_json).collect()),
            ),
        ]),
    )
    .render()
}

/// Writes `dir/fleet.json` for `binary`, creating `dir` if needed.
/// Returns the written path.
pub fn write_fleet(dir: &Path, binary: &str, report: &FleetReport) -> io::Result<PathBuf> {
    write_artifact(dir, FLEET_FILE, &render_fleet(binary, report))
}

const COUNT_KEYS: [&str; 4] = ["generated", "recovered", "quarantined", "vanished"];

fn counting_identity(value: &JsonV, what: &str) -> Result<[u64; 4], String> {
    let mut counts = [0u64; 4];
    for (slot, key) in counts.iter_mut().zip(COUNT_KEYS) {
        *slot = expect_uint(
            value
                .get(key)
                .ok_or_else(|| format!("{what} missing {key}"))?,
            &format!("{what}.{key}"),
        )?;
    }
    if counts[0] != counts[1] + counts[2] + counts[3] {
        return Err(format!(
            "{what}: generated {} != recovered {} + quarantined {} + vanished {}",
            counts[0], counts[1], counts[2], counts[3]
        ));
    }
    Ok(counts)
}

/// Structurally validates a rendered `fleet.json`: schema id, the
/// deterministic/nondeterministic split with exact key order, the
/// counting identity per shard / per region / in total, and
/// shard-to-region sum consistency. `artifact-check` runs it in CI.
pub fn validate_fleet(text: &str) -> Result<(), String> {
    let root = validate_envelope(text, FLEET_SCHEMA)?;

    let det = field(&root, "deterministic")?;
    let det_fields = expect_obj(det, "deterministic")?;
    expect_keys(
        det_fields,
        &[
            "scale",
            "seed",
            "fault_rate",
            "chunk_subscriptions",
            "feature_count",
            "regions",
            "totals",
        ],
        "deterministic",
    )?;
    let scale = expect_float(field(det, "scale")?, "scale")?;
    if scale.is_nan() || scale <= 0.0 {
        return Err(format!("scale {scale} must be positive"));
    }
    expect_uint(field(det, "seed")?, "seed")?;
    let fault_rate = expect_float(field(det, "fault_rate")?, "fault_rate")?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(format!("fault_rate {fault_rate} outside [0, 1]"));
    }
    if expect_uint(field(det, "chunk_subscriptions")?, "chunk_subscriptions")? == 0 {
        return Err("chunk_subscriptions must be nonzero".to_string());
    }
    let feature_count = expect_uint(field(det, "feature_count")?, "feature_count")?;
    if feature_count == 0 {
        return Err("feature_count must be nonzero".to_string());
    }

    let regions = expect_arr(field(det, "regions")?, "regions")?;
    if regions.len() != 3 {
        return Err(format!("expected 3 regions, found {}", regions.len()));
    }
    let mut region_counts = Vec::new();
    let mut rows_sum = 0u64;
    let mut fingerprint_sum = 0u64;
    for (i, region) in regions.iter().enumerate() {
        let what = format!("regions[{i}]");
        let region_fields = expect_obj(region, &what)?;
        expect_keys(
            region_fields,
            &[
                "region",
                "subscriptions",
                "generated",
                "recovered",
                "quarantined",
                "vanished",
                "dataset_rows",
                "positive_rows",
                "dataset_fingerprint",
            ],
            &what,
        )?;
        let label = match region.get("region") {
            Some(JsonV::Str(s)) if !s.is_empty() => s.clone(),
            other => return Err(format!("{what}.region must be a string, found {other:?}")),
        };
        let counts = counting_identity(region, &what)?;
        let subscriptions = expect_uint(field(region, "subscriptions")?, &what)?;
        let rows = expect_uint(field(region, "dataset_rows")?, &what)?;
        let positive = expect_uint(field(region, "positive_rows")?, &what)?;
        if rows > counts[1] {
            return Err(format!(
                "{what}: dataset_rows {rows} exceeds recovered {}",
                counts[1]
            ));
        }
        if positive > rows {
            return Err(format!(
                "{what}: positive_rows {positive} exceeds dataset_rows {rows}"
            ));
        }
        rows_sum += rows;
        fingerprint_sum = fingerprint_sum
            .wrapping_add(expect_uint(field(region, "dataset_fingerprint")?, &what)?);
        region_counts.push((label, subscriptions, counts, rows));
    }

    let totals = field(det, "totals")?;
    let totals_fields = expect_obj(totals, "totals")?;
    expect_keys(
        totals_fields,
        &[
            "generated",
            "recovered",
            "quarantined",
            "vanished",
            "dataset_rows",
            "dataset_fingerprint",
        ],
        "totals",
    )?;
    let total_counts = counting_identity(totals, "totals")?;
    for (k, key) in COUNT_KEYS.iter().enumerate() {
        let regions_sum: u64 = region_counts.iter().map(|(_, _, c, _)| c[k]).sum();
        if regions_sum != total_counts[k] {
            return Err(format!(
                "totals.{key} {} != sum over regions {regions_sum}",
                total_counts[k]
            ));
        }
    }
    if expect_uint(field(totals, "dataset_rows")?, "totals")? != rows_sum {
        return Err("totals.dataset_rows != sum over regions".to_string());
    }
    if expect_uint(field(totals, "dataset_fingerprint")?, "totals")? != fingerprint_sum {
        return Err("totals.dataset_fingerprint != wrapping sum over regions".to_string());
    }

    let nondet = field(&root, "nondeterministic")?;
    let nondet_fields = expect_obj(nondet, "nondeterministic")?;
    expect_keys(
        nondet_fields,
        &[
            "shard_count",
            "visit_order",
            "thread_limit",
            "elapsed_ms",
            "databases_per_second",
            "rows_per_second",
            "peak_rss_kb",
            "shards",
        ],
        "nondeterministic",
    )?;
    let shard_count = expect_uint(field(nondet, "shard_count")?, "shard_count")?;
    if shard_count == 0 {
        return Err("shard_count must be nonzero".to_string());
    }
    match nondet.get("visit_order") {
        Some(JsonV::Str(s)) if s == "forward" || s == "backward" => {}
        other => {
            return Err(format!(
                "visit_order must be \"forward\" or \"backward\", found {other:?}"
            ))
        }
    }
    expect_uint(field(nondet, "thread_limit")?, "thread_limit")?;
    for key in ["elapsed_ms", "databases_per_second", "rows_per_second"] {
        let v = expect_float(field(nondet, key)?, key)?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("{key} {v} must be finite and >= 0"));
        }
    }
    expect_uint(field(nondet, "peak_rss_kb")?, "peak_rss_kb")?;

    let shards = expect_arr(field(nondet, "shards")?, "shards")?;
    // Fold each shard entry into its region, then require the per-shard
    // sums to reproduce the deterministic per-region totals exactly.
    let mut per_region_sums = vec![(0u64, [0u64; 4], 0u64); region_counts.len()];
    for (i, shard) in shards.iter().enumerate() {
        let what = format!("shards[{i}]");
        let shard_fields = expect_obj(shard, &what)?;
        expect_keys(
            shard_fields,
            &[
                "region",
                "shard",
                "subscriptions",
                "generated",
                "recovered",
                "quarantined",
                "vanished",
                "rows",
            ],
            &what,
        )?;
        let label = match shard.get("region") {
            Some(JsonV::Str(s)) => s,
            other => return Err(format!("{what}.region must be a string, found {other:?}")),
        };
        let slot = region_counts
            .iter()
            .position(|(r, _, _, _)| r == label)
            .ok_or_else(|| format!("{what}: unknown region {label:?}"))?;
        let index = expect_uint(field(shard, "shard")?, &what)?;
        if index >= shard_count {
            return Err(format!(
                "{what}: shard index {index} outside plan of {shard_count}"
            ));
        }
        let counts = counting_identity(shard, &what)?;
        per_region_sums[slot].0 += expect_uint(field(shard, "subscriptions")?, &what)?;
        for (sum, v) in per_region_sums[slot].1.iter_mut().zip(counts) {
            *sum += v;
        }
        per_region_sums[slot].2 += expect_uint(field(shard, "rows")?, &what)?;
    }
    for ((label, subscriptions, counts, rows), (sub_sum, count_sums, row_sum)) in
        region_counts.iter().zip(per_region_sums)
    {
        if sub_sum != *subscriptions {
            return Err(format!(
                "{label}: shard subscriptions sum {sub_sum} != region total {subscriptions}"
            ));
        }
        if count_sums != *counts {
            return Err(format!(
                "{label}: shard count sums {count_sums:?} != region totals {counts:?}"
            ));
        }
        if row_sum != *rows {
            return Err(format!(
                "{label}: shard rows sum {row_sum} != region dataset_rows {rows}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::artifact::deterministic_section_of;

    fn tiny_options() -> FleetBenchOptions {
        FleetBenchOptions {
            scale: 0.01,
            seed: 77,
            shards: 3,
            chunk_subscriptions: 4,
            visit_order: VisitOrder::Forward,
            fault_rate: 0.0,
            artifact_dir: PathBuf::from("artifacts"),
        }
    }

    #[test]
    fn rendered_fleet_validates_and_sections_are_layout_invariant() {
        let report = run_fleetbench(&tiny_options());
        let text = render_fleet("fleetbench", &report);
        validate_fleet(&text).expect("schema-valid");
        assert_eq!(
            deterministic_section_of(&text).unwrap(),
            deterministic_fleet_section(&report)
        );

        // Different shard count + visit order: identical deterministic
        // section, byte for byte.
        let other = run_fleetbench(&FleetBenchOptions {
            shards: 1,
            visit_order: VisitOrder::Backward,
            ..tiny_options()
        });
        assert_eq!(
            deterministic_fleet_section(&report),
            deterministic_fleet_section(&other)
        );
        validate_fleet(&render_fleet("fleetbench", &other)).expect("schema-valid");
    }

    #[test]
    fn faulted_fleet_keeps_counting_identity() {
        let report = run_fleetbench(&FleetBenchOptions {
            fault_rate: 0.1,
            ..tiny_options()
        });
        let quarantined: usize = report.regions.iter().map(|r| r.quarantined).sum();
        assert!(quarantined > 0, "fault rate 0.1 must quarantine something");
        validate_fleet(&render_fleet("fleetbench", &report)).expect("identity holds");
    }

    #[test]
    fn validator_rejects_drift() {
        let report = run_fleetbench(&tiny_options());
        let good = render_fleet("fleetbench", &report);
        assert!(validate_fleet(&good.replace(FLEET_SCHEMA, "survdb-fleet/v2")).is_err());
        assert!(validate_fleet(&good.replace("\"totals\"", "\"sums\"")).is_err());
        assert!(validate_fleet("{}").is_err());
        assert!(validate_fleet("nonsense").is_err());
        // Break the counting identity in the first region.
        let generated = format!("\"generated\": {}", report.regions[0].generated);
        let broken = format!("\"generated\": {}", report.regions[0].generated + 1);
        assert!(validate_fleet(&good.replacen(&generated, &broken, 1)).is_err());
    }

    #[test]
    fn fingerprint_is_row_order_insensitive_but_content_sensitive() {
        let mut a = Dataset::new(vec!["x".into()], 2);
        a.push(vec![1.0], 0);
        a.push(vec![2.0], 1);
        let mut b = Dataset::new(vec!["x".into()], 2);
        b.push(vec![2.0], 1);
        b.push(vec![1.0], 0);
        assert_eq!(dataset_fingerprint(&a), dataset_fingerprint(&b));
        let mut c = Dataset::new(vec!["x".into()], 2);
        c.push(vec![1.0], 0);
        c.push(vec![2.0], 0);
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&c));
    }
}
