//! The policy artifact: `artifacts/policy.json` (`survdb-policy/v1`).
//!
//! `policybench` runs the full provisioning decision loop — generate a
//! scenario fleet, score it with the persisted forest, decide every
//! row under the canonical [`PolicySpec`] — for each what-if cohort in
//! [`ScenarioKind::ALL`], across all three regions and all three
//! creation editions. The artifact is the usual two-section envelope
//! (see [`obs::artifact`]):
//!
//! - `deterministic` — config echo, model facts, the spec, one block
//!   per cohort (decision summary + threshold sweep), and the
//!   cohort-vs-baseline deltas. Everything cost-valued is an integer
//!   accumulated per shard and merged, so the section is byte-identical
//!   across runs, thread counts, and shard layouts.
//! - `nondeterministic` — shard layout, thread limit, wall clock,
//!   throughput, peak RSS.
//!
//! [`validate_policy`] re-checks the envelope, the exact key order of
//! every block, the counting identities (per-action counts sum to the
//! row total; the (region, edition) table sums to the per-action
//! counts), the sweep frontier's internal consistency, the recomputed
//! deltas, and the headline result: on the incentive-cliff cohort the
//! best sweep threshold must beat both the always-provision and the
//! never-provision baselines strictly.

use crate::fleet::peak_rss_kb;
use features::{FeatureConfig, FeatureExtractor};
use obs::artifact::{
    checked_sum, envelope, expect_arr, expect_float, expect_keys, expect_obj, expect_str,
    expect_uint, validate_envelope, write_artifact,
};
use obs::jsonv::JsonV;
use policy::{
    decide_batch, spec_json, summary_json, sweep_json, Action, ActionBands, DecisionSummary,
    PolicySpec, SubgroupKey, SweepAccum,
};
use serve::{score_batch_with, SavedModel};
use std::path::{Path, PathBuf};
use telemetry::{
    generate_scenario_subscription, Census, Edition, Fleet, FleetConfig, RegionConfig, RegionId,
    ScenarioKind, ShardPlan,
};

/// Schema identifier of `policy.json`.
pub const POLICY_SCHEMA: &str = "survdb-policy/v1";

/// Artifact file name.
pub const POLICY_FILE: &str = "policy.json";

/// `policybench` command-line options.
#[derive(Debug, Clone)]
pub struct PolicyBenchOptions {
    /// Population scale (1.0 = canonical region sizes).
    pub scale: f64,
    /// Master seed (fleet generation and, absent `--model`, training).
    pub seed: u64,
    /// Subscription shards per region (must not affect the
    /// deterministic section).
    pub shards: usize,
    /// Threshold-grid resolution for the sweep.
    pub grid_points: usize,
    /// Load a persisted model instead of training one.
    pub model: Option<PathBuf>,
    /// Output directory for `policy.json`.
    pub artifact_dir: PathBuf,
}

impl Default for PolicyBenchOptions {
    fn default() -> Self {
        PolicyBenchOptions {
            scale: 0.25,
            seed: 2018,
            shards: 4,
            grid_points: 11,
            model: None,
            artifact_dir: PathBuf::from("artifacts"),
        }
    }
}

/// Parses `policybench` command-line flags.
pub fn parse_policy_options(args: &[String]) -> Result<PolicyBenchOptions, String> {
    let mut options = PolicyBenchOptions::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag {
            "--scale" => {
                options.scale = value()?.parse().map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--seed" => {
                options.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--shards" => {
                options.shards = value()?.parse().map_err(|e| format!("bad --shards: {e}"))?;
            }
            "--grid" => {
                options.grid_points = value()?.parse().map_err(|e| format!("bad --grid: {e}"))?;
            }
            "--model" => {
                options.model = Some(PathBuf::from(value()?));
            }
            "--out" => {
                options.artifact_dir = PathBuf::from(value()?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if options.scale <= 0.0 {
        return Err("--scale must be positive".to_string());
    }
    if options.grid_points < 2 {
        return Err("--grid needs at least 2 points".to_string());
    }
    Ok(options)
}

/// The canonical spec the artifact (and the golden snapshot) pin: the
/// default bands and cost model, plus two subgroup overrides that
/// exercise the override path — Premium databases in Region-1 get a
/// wider pre-provision band (premium placement is what the paper's
/// incentive analysis worries about), Basic databases in Region-3 a
/// more conservative one.
pub fn canonical_spec() -> PolicySpec {
    let mut spec = PolicySpec::default();
    spec.overrides.insert(
        SubgroupKey::new(RegionId::Region1.to_string(), Edition::Premium.to_string()),
        ActionBands {
            defer_below: 0.3,
            preprovision_above: 0.8,
        },
    );
    spec.overrides.insert(
        SubgroupKey::new(RegionId::Region3.to_string(), Edition::Basic.to_string()),
        ActionBands {
            defer_below: 0.45,
            preprovision_above: 0.7,
        },
    );
    spec.validate();
    spec
}

/// One what-if cohort's accumulated results.
#[derive(Debug, Clone)]
pub struct CohortResult {
    /// The scenario.
    pub kind: ScenarioKind,
    /// Merged decision accounting across regions, editions, shards.
    pub summary: DecisionSummary,
    /// Merged cost-vs-threshold frontier.
    pub sweep: SweepAccum,
}

/// Everything `policy.json` needs, deterministic fields first.
#[derive(Debug, Clone)]
pub struct PolicyReport {
    /// Options in force.
    pub options: PolicyBenchOptions,
    /// Feature-schema width of the scoring model.
    pub feature_count: usize,
    /// Training positive fraction `q` (sets the §5.3 threshold).
    pub positive_fraction: f64,
    /// The derived confidence threshold `t = max(q, 1 - q)`.
    pub threshold: f64,
    /// The spec decisions ran under.
    pub spec: PolicySpec,
    /// One result per [`ScenarioKind::ALL`] entry, in that order.
    pub cohorts: Vec<CohortResult>,
    /// Wall-clock of the decision loop.
    pub elapsed_ms: f64,
}

/// Derives the per-region generation config for one cohort run,
/// following `Study::load`'s per-region seed scheme
/// (`seed + i·0x9E3779B9`).
fn region_fleet_config(region: RegionId, options: &PolicyBenchOptions) -> FleetConfig {
    let i = RegionId::ALL
        .iter()
        .position(|r| *r == region)
        .expect("region is canonical") as u64;
    FleetConfig::new(
        RegionConfig::canonical(region).scaled(options.scale),
        options.seed.wrapping_add(i * 0x9E37_79B9),
    )
}

/// Builds one shard of a scenario fleet: the subscriptions in
/// `plan.range(shard)` with their (scenario-transformed) databases.
fn scenario_shard(
    config: &FleetConfig,
    kind: ScenarioKind,
    plan: &ShardPlan,
    shard: usize,
) -> Fleet {
    let mut subscriptions = Vec::new();
    let mut databases = Vec::new();
    for sub_idx in plan.range(shard) {
        let (subscription, dbs) = generate_scenario_subscription(config, kind, sub_idx);
        subscriptions.push(subscription);
        databases.extend(dbs);
    }
    Fleet {
        config: config.clone(),
        subscriptions,
        databases,
    }
}

/// Runs the generate → score → decide loop for every cohort and
/// returns the assembled report. `model` is the persisted forest to
/// score with (its feature schema must match
/// [`FeatureConfig::default`], which is what `model_source` trains).
pub fn run_policybench(options: &PolicyBenchOptions, model: &SavedModel) -> PolicyReport {
    let start = std::time::Instant::now();
    let spec = canonical_spec();
    let kernel = model.kernel();
    let q = model.meta.positive_fraction;
    let mut cohorts = Vec::with_capacity(ScenarioKind::ALL.len());
    for kind in ScenarioKind::ALL {
        let _span = obs::span!("policy_cohort");
        let mut summary = DecisionSummary::default();
        let mut sweep = SweepAccum::new(options.grid_points);
        for region in RegionId::ALL {
            let config = region_fleet_config(region, options);
            let plan = ShardPlan::new(config.region.subscription_count, options.shards);
            for shard in 0..plan.shard_count() {
                let fleet = scenario_shard(&config, kind, &plan, shard);
                let census = Census::new(&fleet);
                let extractor = FeatureExtractor::new(&census, FeatureConfig::default());
                for edition in Edition::ALL {
                    let (dataset, _survival, indices) =
                        extractor.build_dataset_indexed(&census, Some(edition));
                    if dataset.is_empty() {
                        continue;
                    }
                    // The indexed join is the ground truth: row i of the
                    // dataset is fleet database indices[i].
                    let long_lived: Vec<bool> = indices
                        .iter()
                        .map(|&i| census.is_long_lived(&fleet.databases[i]))
                        .collect();
                    let scored = score_batch_with(&kernel, &dataset, q);
                    let facts = scored.facts();
                    let subgroup = SubgroupKey::new(region.to_string(), edition.to_string());
                    let (_actions, shard_summary) =
                        decide_batch(&facts, &long_lived, &spec, &subgroup);
                    summary.merge(&shard_summary);
                    for (f, &long) in facts.iter().zip(&long_lived) {
                        sweep.observe(f.positive, long, &spec.costs);
                    }
                }
            }
        }
        obs::info!(
            "policybench",
            "cohort {}: {} rows, policy cost {}, advantage {}",
            kind.label(),
            summary.rows(),
            summary.policy_cost,
            summary.advantage()
        );
        cohorts.push(CohortResult {
            kind,
            summary,
            sweep,
        });
    }
    PolicyReport {
        options: options.clone(),
        feature_count: model.forest.feature_names().len(),
        positive_fraction: q,
        threshold: model.threshold(),
        spec,
        cohorts,
        elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// The scenario kinds that get a delta row (everything but baseline).
fn delta_kinds() -> Vec<ScenarioKind> {
    ScenarioKind::ALL
        .into_iter()
        .filter(|k| *k != ScenarioKind::Baseline)
        .collect()
}

/// Signed difference of two unsigned totals, as a JSON float (the
/// artifact format has no signed integers).
fn delta(a: u64, b: u64) -> JsonV {
    JsonV::Float(a as f64 - b as f64)
}

fn cohort_json(cohort: &CohortResult) -> JsonV {
    JsonV::obj(vec![
        ("scenario", JsonV::Str(cohort.kind.label().to_string())),
        ("summary", summary_json(&cohort.summary)),
        ("sweep", sweep_json(&cohort.sweep)),
    ])
}

fn deltas_json(cohorts: &[CohortResult]) -> JsonV {
    let baseline = &cohorts[0];
    let reviews = |c: &CohortResult| c.summary.counts[Action::Review.index()];
    let rows = delta_kinds()
        .into_iter()
        .map(|kind| {
            let cohort = cohorts
                .iter()
                .find(|c| c.kind == kind)
                .expect("every kind has a cohort");
            JsonV::obj(vec![
                ("scenario", JsonV::Str(kind.label().to_string())),
                (
                    "rows_delta",
                    delta(cohort.summary.rows(), baseline.summary.rows()),
                ),
                (
                    "policy_cost_delta",
                    delta(cohort.summary.policy_cost, baseline.summary.policy_cost),
                ),
                ("review_delta", delta(reviews(cohort), reviews(baseline))),
                (
                    "best_cost_delta",
                    delta(
                        cohort.sweep.best().total_cost,
                        baseline.sweep.best().total_cost,
                    ),
                ),
                (
                    "best_threshold_shift",
                    JsonV::Float(cohort.sweep.best().threshold - baseline.sweep.best().threshold),
                ),
            ])
        })
        .collect();
    JsonV::Arr(rows)
}

fn deterministic_json(report: &PolicyReport) -> JsonV {
    JsonV::obj(vec![
        (
            "config",
            JsonV::obj(vec![
                ("scale", JsonV::Float(report.options.scale)),
                ("seed", JsonV::UInt(report.options.seed)),
                (
                    "grid_points",
                    JsonV::UInt(report.options.grid_points as u64),
                ),
            ]),
        ),
        (
            "model",
            JsonV::obj(vec![
                ("feature_count", JsonV::UInt(report.feature_count as u64)),
                ("positive_fraction", JsonV::Float(report.positive_fraction)),
                ("confidence_threshold", JsonV::Float(report.threshold)),
            ]),
        ),
        ("spec", spec_json(&report.spec)),
        (
            "cohorts",
            JsonV::Arr(report.cohorts.iter().map(cohort_json).collect()),
        ),
        ("deltas", deltas_json(&report.cohorts)),
    ])
}

/// Renders the full two-section artifact text.
pub fn render_policy(report: &PolicyReport) -> String {
    let total_rows: u64 = report.cohorts.iter().map(|c| c.summary.rows()).sum();
    let rows_per_second = if report.elapsed_ms > 0.0 {
        total_rows as f64 / (report.elapsed_ms / 1e3)
    } else {
        0.0
    };
    envelope(
        POLICY_SCHEMA,
        "policybench",
        deterministic_json(report),
        JsonV::obj(vec![
            ("shard_count", JsonV::UInt(report.options.shards as u64)),
            (
                "thread_limit",
                JsonV::UInt(forest::parallel::thread_limit() as u64),
            ),
            ("elapsed_ms", JsonV::Float(report.elapsed_ms)),
            ("rows_per_second", JsonV::Float(rows_per_second)),
            ("peak_rss_kb", JsonV::UInt(peak_rss_kb())),
        ]),
    )
    .render()
}

/// Writes `policy.json` under `dir`; returns the path.
pub fn write_policy(dir: &Path, report: &PolicyReport) -> std::io::Result<PathBuf> {
    write_artifact(dir, POLICY_FILE, &render_policy(report))
}

/// A human-readable per-cohort table for the binary's stdout.
pub fn cohort_table(report: &PolicyReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>8} {:>7} {:>7} {:>7} {:>7} {:>10} {:>10}\n",
        "cohort", "rows", "defer", "std", "pre", "review", "cost", "advantage"
    ));
    for cohort in &report.cohorts {
        let c = &cohort.summary.counts;
        out.push_str(&format!(
            "{:<16} {:>8} {:>7} {:>7} {:>7} {:>7} {:>10} {:>10}\n",
            cohort.kind.label(),
            cohort.summary.rows(),
            c[Action::DeferPremiumPlacement.index()],
            c[Action::StandardProvision.index()],
            c[Action::PreProvisionLongLived.index()],
            c[Action::Review.index()],
            cohort.summary.policy_cost,
            cohort.summary.advantage()
        ));
    }
    out
}

fn field<'a>(fields: &'a [(String, JsonV)], key: &str, what: &str) -> Result<&'a JsonV, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("{what} is missing key {key:?}"))
}

fn action_labels() -> Vec<&'static str> {
    Action::ALL.iter().map(|a| a.label()).collect()
}

fn validate_summary(value: &JsonV, what: &str) -> Result<SummaryFacts, String> {
    let fields = expect_obj(value, what)?;
    expect_keys(fields, &["rows", "actions", "table", "costs"], what)?;
    let rows = expect_uint(field(fields, "rows", what)?, "rows")?;

    let actions = expect_obj(field(fields, "actions", what)?, "actions")?;
    expect_keys(actions, &action_labels(), "actions")?;
    let mut action_counts = [0u64; 4];
    for (i, (label, v)) in actions.iter().enumerate() {
        action_counts[i] = expect_uint(v, label)?;
    }
    let action_sum = checked_sum(action_counts, what)?;
    if action_sum != rows {
        return Err(format!(
            "{what}: per-action counts sum to {action_sum} but rows is {rows}"
        ));
    }

    let table = expect_arr(field(fields, "table", what)?, "table")?;
    let mut table_keys = vec!["region", "edition"];
    table_keys.extend(action_labels());
    let mut column_sums = [0u64; 4];
    for entry in table {
        let entry_fields = expect_obj(entry, "table entry")?;
        expect_keys(entry_fields, &table_keys, "table entry")?;
        expect_str(field(entry_fields, "region", "table entry")?, "region")?;
        expect_str(field(entry_fields, "edition", "table entry")?, "edition")?;
        for (sum, label) in column_sums.iter_mut().zip(action_labels()) {
            let v = expect_uint(field(entry_fields, label, "table entry")?, label)?;
            *sum = checked_sum([*sum, v], "table")?;
        }
    }
    if column_sums != action_counts {
        return Err(format!(
            "{what}: table columns sum to {column_sums:?} but actions are {action_counts:?}"
        ));
    }

    let costs = expect_obj(field(fields, "costs", what)?, "costs")?;
    expect_keys(
        costs,
        &["policy", "oracle", "always_provision", "never_provision"],
        "costs",
    )?;
    let policy_cost = expect_uint(field(costs, "policy", "costs")?, "policy")?;
    let oracle = expect_uint(field(costs, "oracle", "costs")?, "oracle")?;
    let always = expect_uint(
        field(costs, "always_provision", "costs")?,
        "always_provision",
    )?;
    let never = expect_uint(field(costs, "never_provision", "costs")?, "never_provision")?;
    for (name, total) in [
        ("policy", policy_cost),
        ("always", always),
        ("never", never),
    ] {
        if oracle > total {
            return Err(format!(
                "{what}: oracle cost {oracle} exceeds {name} {total}"
            ));
        }
    }
    Ok(SummaryFacts {
        rows,
        reviews: action_counts[Action::Review.index()],
        policy_cost,
        always_provision_cost: always,
        never_provision_cost: never,
    })
}

struct SummaryFacts {
    rows: u64,
    reviews: u64,
    policy_cost: u64,
    always_provision_cost: u64,
    never_provision_cost: u64,
}

struct SweepFacts {
    best_threshold: f64,
    best_cost: u64,
}

fn validate_sweep(
    value: &JsonV,
    rows: u64,
    grid_points: u64,
    what: &str,
) -> Result<SweepFacts, String> {
    let fields = expect_obj(value, what)?;
    expect_keys(fields, &["rows", "points", "best"], what)?;
    if expect_uint(field(fields, "rows", what)?, "rows")? != rows {
        return Err(format!("{what}: sweep rows disagree with summary rows"));
    }
    let point_keys = ["threshold", "total_cost", "confident_rows"];
    let read_point = |v: &JsonV| -> Result<(f64, u64, u64), String> {
        let f = expect_obj(v, "sweep point")?;
        expect_keys(f, &point_keys, "sweep point")?;
        Ok((
            expect_float(field(f, "threshold", "sweep point")?, "threshold")?,
            expect_uint(field(f, "total_cost", "sweep point")?, "total_cost")?,
            expect_uint(field(f, "confident_rows", "sweep point")?, "confident_rows")?,
        ))
    };
    let points = expect_arr(field(fields, "points", what)?, "points")?;
    if points.len() as u64 != grid_points {
        return Err(format!(
            "{what}: expected {grid_points} sweep points, found {}",
            points.len()
        ));
    }
    let mut parsed = Vec::with_capacity(points.len());
    for point in points {
        parsed.push(read_point(point)?);
    }
    for w in parsed.windows(2) {
        if w[1].0 <= w[0].0 {
            return Err(format!("{what}: sweep thresholds must ascend"));
        }
        if w[1].2 > w[0].2 {
            return Err(format!(
                "{what}: confident rows must shrink as the threshold grows"
            ));
        }
    }
    let (best_threshold, best_cost, _) = read_point(field(fields, "best", what)?)?;
    let min_cost = parsed.iter().map(|p| p.1).min().expect("grid non-empty");
    if best_cost != min_cost {
        return Err(format!(
            "{what}: best cost {best_cost} is not the frontier minimum {min_cost}"
        ));
    }
    let first_min = parsed.iter().find(|p| p.1 == min_cost).expect("min exists");
    if best_threshold != first_min.0 {
        return Err(format!(
            "{what}: best threshold must tie-break to the lowest grid point"
        ));
    }
    Ok(SweepFacts {
        best_threshold,
        best_cost,
    })
}

/// Validates a rendered `policy.json`: envelope, exact key order of
/// every section, counting identities, sweep consistency, recomputed
/// deltas, and the incentive-cliff headline criterion.
pub fn validate_policy(text: &str) -> Result<(), String> {
    let root = validate_envelope(text, POLICY_SCHEMA)?;
    let det = expect_obj(
        obs::artifact::field(&root, "deterministic")?,
        "deterministic",
    )?;
    expect_keys(
        det,
        &["config", "model", "spec", "cohorts", "deltas"],
        "deterministic",
    )?;

    let config = expect_obj(field(det, "config", "deterministic")?, "config")?;
    expect_keys(config, &["scale", "seed", "grid_points"], "config")?;
    if expect_float(field(config, "scale", "config")?, "scale")? <= 0.0 {
        return Err("config scale must be positive".to_string());
    }
    expect_uint(field(config, "seed", "config")?, "seed")?;
    let grid_points = expect_uint(field(config, "grid_points", "config")?, "grid_points")?;
    if grid_points < 2 {
        return Err("config grid_points must be at least 2".to_string());
    }

    let model = expect_obj(field(det, "model", "deterministic")?, "model")?;
    expect_keys(
        model,
        &["feature_count", "positive_fraction", "confidence_threshold"],
        "model",
    )?;
    if expect_uint(field(model, "feature_count", "model")?, "feature_count")? == 0 {
        return Err("model feature_count must be positive".to_string());
    }
    let q = expect_float(
        field(model, "positive_fraction", "model")?,
        "positive_fraction",
    )?;
    if !(0.0..=1.0).contains(&q) {
        return Err(format!("positive_fraction {q} out of [0, 1]"));
    }
    let t = expect_float(
        field(model, "confidence_threshold", "model")?,
        "confidence_threshold",
    )?;
    if !(0.5..=1.0).contains(&t) {
        return Err(format!("confidence_threshold {t} out of [0.5, 1]"));
    }

    let spec = expect_obj(field(det, "spec", "deterministic")?, "spec")?;
    expect_keys(spec, &["bands", "overrides", "costs"], "spec")?;
    let band_keys = ["defer_below", "preprovision_above"];
    let bands = expect_obj(field(spec, "bands", "spec")?, "bands")?;
    expect_keys(bands, &band_keys, "bands")?;
    for entry in expect_arr(field(spec, "overrides", "spec")?, "overrides")? {
        let entry_fields = expect_obj(entry, "override")?;
        expect_keys(
            entry_fields,
            &["region", "edition", "defer_below", "preprovision_above"],
            "override",
        )?;
    }
    let costs = expect_obj(field(spec, "costs", "spec")?, "costs")?;
    expect_keys(
        costs,
        &[
            "defer_cost",
            "provision_cost",
            "premium_carry_cost",
            "migration_cost",
            "late_penalty",
            "waste_penalty",
            "review_cost",
        ],
        "costs",
    )?;
    for (key, value) in costs {
        expect_uint(value, key)?;
    }

    let cohorts = expect_arr(field(det, "cohorts", "deterministic")?, "cohorts")?;
    let expected_labels: Vec<&str> = ScenarioKind::ALL.iter().map(|k| k.label()).collect();
    if cohorts.len() != expected_labels.len() {
        return Err(format!(
            "expected {} cohorts, found {}",
            expected_labels.len(),
            cohorts.len()
        ));
    }
    let mut summaries = Vec::new();
    let mut sweeps = Vec::new();
    for (cohort, label) in cohorts.iter().zip(&expected_labels) {
        let fields = expect_obj(cohort, "cohort")?;
        expect_keys(fields, &["scenario", "summary", "sweep"], "cohort")?;
        let scenario = expect_str(field(fields, "scenario", "cohort")?, "scenario")?;
        if scenario != *label {
            return Err(format!(
                "cohort order: expected {label:?}, found {scenario:?}"
            ));
        }
        let what = format!("cohort {label} summary");
        let summary = validate_summary(field(fields, "summary", "cohort")?, &what)?;
        if summary.rows == 0 {
            return Err(format!("cohort {label} decided no rows"));
        }
        let sweep = validate_sweep(
            field(fields, "sweep", "cohort")?,
            summary.rows,
            grid_points,
            &format!("cohort {label} sweep"),
        )?;
        summaries.push(summary);
        sweeps.push(sweep);
    }

    // The headline check: on the adversarial incentive-cliff
    // cohort the best sweep threshold strictly beats both naive
    // baselines.
    let cliff = expected_labels
        .iter()
        .position(|l| *l == ScenarioKind::IncentiveCliff.label())
        .expect("incentive cliff is always run");
    let cliff_summary = &summaries[cliff];
    let cliff_best = sweeps[cliff].best_cost;
    if cliff_best >= cliff_summary.always_provision_cost
        || cliff_best >= cliff_summary.never_provision_cost
    {
        return Err(format!(
            "incentive-cliff best threshold cost {cliff_best} must strictly beat \
             always-provision {} and never-provision {}",
            cliff_summary.always_provision_cost, cliff_summary.never_provision_cost
        ));
    }

    let deltas = expect_arr(field(det, "deltas", "deterministic")?, "deltas")?;
    let delta_labels: Vec<&str> = delta_kinds().iter().map(|k| k.label()).collect();
    if deltas.len() != delta_labels.len() {
        return Err(format!(
            "expected {} delta rows, found {}",
            delta_labels.len(),
            deltas.len()
        ));
    }
    for (entry, label) in deltas.iter().zip(&delta_labels) {
        let fields = expect_obj(entry, "delta")?;
        expect_keys(
            fields,
            &[
                "scenario",
                "rows_delta",
                "policy_cost_delta",
                "review_delta",
                "best_cost_delta",
                "best_threshold_shift",
            ],
            "delta",
        )?;
        let scenario = expect_str(field(fields, "scenario", "delta")?, "scenario")?;
        if scenario != *label {
            return Err(format!(
                "delta order: expected {label:?}, found {scenario:?}"
            ));
        }
        let idx = expected_labels
            .iter()
            .position(|l| l == &scenario)
            .expect("delta scenarios are cohort scenarios");
        let checks = [
            (
                "rows_delta",
                summaries[idx].rows as f64 - summaries[0].rows as f64,
            ),
            (
                "policy_cost_delta",
                summaries[idx].policy_cost as f64 - summaries[0].policy_cost as f64,
            ),
            (
                "review_delta",
                summaries[idx].reviews as f64 - summaries[0].reviews as f64,
            ),
            (
                "best_cost_delta",
                sweeps[idx].best_cost as f64 - sweeps[0].best_cost as f64,
            ),
            (
                "best_threshold_shift",
                sweeps[idx].best_threshold - sweeps[0].best_threshold,
            ),
        ];
        for (key, expected) in checks {
            let found = expect_float(field(fields, key, "delta")?, key)?;
            if found != expected {
                return Err(format!(
                    "delta {label} {key}: artifact says {found}, cohorts say {expected}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_source::{obtain_model, ModelSpec};
    use obs::artifact::deterministic_section_of;

    fn tiny_options(dir: &Path) -> PolicyBenchOptions {
        PolicyBenchOptions {
            scale: 0.02,
            seed: 7,
            shards: 1,
            grid_points: 5,
            model: None,
            artifact_dir: dir.to_path_buf(),
        }
    }

    fn tiny_model(dir: &Path, options: &PolicyBenchOptions) -> SavedModel {
        let data = crate::model_source::fixture_dataset(options.scale, options.seed);
        obtain_model(
            &data,
            &ModelSpec {
                load_from: None,
                seed: options.seed,
                tune: false,
                save_dir: dir.to_path_buf(),
            },
        )
        .expect("tiny model trains")
    }

    #[test]
    fn parse_policy_flags() {
        let opts = parse_policy_options(&[]).unwrap();
        assert_eq!(opts.shards, 4);
        assert_eq!(opts.grid_points, 11);
        let args: Vec<String> = [
            "--scale", "0.1", "--seed", "9", "--shards", "2", "--grid", "6",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_policy_options(&args).unwrap();
        assert_eq!(opts.scale, 0.1);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.shards, 2);
        assert_eq!(opts.grid_points, 6);
        assert!(parse_policy_options(&["--nope".to_string()]).is_err());
        assert!(parse_policy_options(&["--grid".to_string(), "1".to_string()]).is_err());
    }

    #[test]
    fn canonical_spec_has_overrides() {
        let spec = canonical_spec();
        assert_eq!(spec.overrides.len(), 2);
    }

    #[test]
    fn deterministic_section_is_shard_invariant_and_valid() {
        let dir = std::env::temp_dir().join("survdb_policyart_test");
        let _ = std::fs::remove_dir_all(&dir);
        let options = tiny_options(&dir);
        let model = tiny_model(&dir, &options);

        let report_1 = run_policybench(&options, &model);
        let text_1 = render_policy(&report_1);
        validate_policy(&text_1).expect("one-shard artifact validates");

        let sharded = PolicyBenchOptions {
            shards: 3,
            ..options.clone()
        };
        let report_3 = run_policybench(&sharded, &model);
        let text_3 = render_policy(&report_3);
        validate_policy(&text_3).expect("three-shard artifact validates");

        assert_eq!(
            deterministic_section_of(&text_1).unwrap(),
            deterministic_section_of(&text_3).unwrap(),
            "deterministic section must not depend on the shard layout"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_and_table_roundtrip() {
        let dir = std::env::temp_dir().join("survdb_policyart_write_test");
        let _ = std::fs::remove_dir_all(&dir);
        let options = tiny_options(&dir);
        let model = tiny_model(&dir, &options);
        let report = run_policybench(&options, &model);
        let path = write_policy(&dir, &report).expect("write succeeds");
        let text = std::fs::read_to_string(&path).expect("readable");
        validate_policy(&text).expect("written artifact validates");
        let table = cohort_table(&report);
        for kind in ScenarioKind::ALL {
            assert!(table.contains(kind.label()), "table lists {}", kind.label());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validation_rejects_tampering() {
        let dir = std::env::temp_dir().join("survdb_policyart_tamper_test");
        let _ = std::fs::remove_dir_all(&dir);
        let options = tiny_options(&dir);
        let model = tiny_model(&dir, &options);
        let report = run_policybench(&options, &model);
        let text = render_policy(&report);
        // Break a count: the identity check must notice.
        let broken = text.replacen("\"rows\": ", "\"rows\": 1", 1);
        assert!(validate_policy(&broken).is_err());
        // Wrong schema.
        assert!(validate_policy(&text.replace(POLICY_SCHEMA, "survdb-policy/v0")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_counts_that_overflow_are_refused() {
        // Each sum below wraps around to exactly the declared total.
        let huge = 1u64 << 63;
        let summary = |actions: [u64; 4], table: Vec<[u64; 4]>| {
            let counts = |values: [u64; 4]| {
                action_labels()
                    .into_iter()
                    .zip(values)
                    .map(|(label, v)| (label, JsonV::UInt(v)))
                    .collect::<Vec<_>>()
            };
            let entry = |values: [u64; 4]| {
                let mut fields = vec![
                    ("region", JsonV::Str("r".into())),
                    ("edition", JsonV::Str("e".into())),
                ];
                fields.extend(counts(values));
                JsonV::obj(fields)
            };
            JsonV::obj(vec![
                ("rows", JsonV::UInt(5)),
                ("actions", JsonV::obj(counts(actions))),
                ("table", JsonV::Arr(table.into_iter().map(entry).collect())),
                ("costs", JsonV::obj(vec![])),
            ])
        };
        let Err(err) = validate_summary(&summary([huge, huge, 5, 0], vec![]), "summary") else {
            panic!("action counts overflow");
        };
        assert!(err.contains("overflows"), "{err}");
        let table = vec![[huge, 0, 0, 0], [huge + 5, 0, 0, 0]];
        let Err(err) = validate_summary(&summary([5, 0, 0, 0], table), "summary") else {
            panic!("table columns overflow");
        };
        assert!(err.contains("overflows"), "{err}");
    }
}
