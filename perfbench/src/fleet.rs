//! `fleet`: all three regions streamed shard by shard through
//! generate → fault injection → lenient ingest → featurize.
//!
//! One operation is one shard; one pass is the whole fleet, streamed
//! on `nproc` workers. The end-to-end metrics are databases generated
//! per second of shard time and the per-shard latency, each shard at
//! its best over the run's passes.

use crate::report::{self, LayerClock, Outcome};
use crate::Run;
use bench::fleet::{
    dataset_fingerprint, render_fleet, validate_fleet, FleetBenchOptions, FleetReport,
    RegionTotals, ShardCounts, VisitOrder,
};
use features::{feature_schema, FeatureConfig, FeatureExtractor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use telemetry::stream::{materialized_pipeline, run_region_streamed};
use telemetry::{
    run_shard, Census, FaultPlan, FleetConfig, RecoveryPolicy, RegionConfig, RegionId, ShardPlan,
};

/// Per-event fault probability.
const FAULT_RATE: f64 = 0.05;

/// Size of the streamed fleet.
#[derive(Debug, Clone)]
pub struct Config {
    /// Population scale; 1.0 is about 45k databases.
    pub scale: f64,
    /// Shards per region.
    pub shards: usize,
    /// Subscriptions per ingest chunk.
    pub chunk_subscriptions: usize,
    /// Scale of the slice checked against the materialized pipeline.
    pub check_scale: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Config {
    /// About 100k databases in shards of about 130. Throughput per
    /// database does not depend on fleet size once it streams, so a
    /// smaller fleet buys more passes per run; small shards keep each
    /// worker's working set near its core's cache and the peak RSS
    /// independent of which shards happen to run side by side.
    pub fn full() -> Config {
        Config {
            scale: 2.2,
            shards: 260,
            chunk_subscriptions: 8,
            check_scale: 0.1,
            setups: 9,
        }
    }

    /// A few hundred databases, for smoke tests.
    pub fn tiny() -> Config {
        Config {
            scale: 0.02,
            shards: 2,
            chunk_subscriptions: 4,
            check_scale: 0.01,
            setups: 1,
        }
    }
}

/// What one pass over the fleet produced.
struct Pass {
    wall_ms: f64,
    shard_ms: Vec<f64>,
    report: FleetReport,
    events: u64,
    fingerprint: u64,
}

fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        drop_size: FAULT_RATE,
        duplicate: FAULT_RATE / 2.0,
        reorder: FAULT_RATE,
        truncate: FAULT_RATE / 2.0,
        orphan: FAULT_RATE / 4.0,
        ..FaultPlan::none(seed ^ 0xFA17)
    }
}

/// Everything a pass needs before it streams: per-region generation
/// configs and shard plans, the fault plan and the feature schema.
struct Plan {
    regions: Vec<(RegionId, FleetConfig, ShardPlan)>,
    faults: FaultPlan,
    features: FeatureConfig,
    feature_count: usize,
}

fn plan(cfg: &Config, seed: u64) -> Plan {
    let regions = RegionId::ALL
        .iter()
        .enumerate()
        .map(|(i, &region_id)| {
            // Distinct per-region streams, the same scheme as `Study::load`.
            let config = FleetConfig::new(
                RegionConfig::canonical(region_id).scaled(cfg.scale),
                seed.wrapping_add(i as u64 * 0x9E37_79B9),
            );
            let shards = ShardPlan::new(config.region.subscription_count, cfg.shards);
            (region_id, config, shards)
        })
        .collect();
    let features = FeatureConfig::default();
    Plan {
        regions,
        faults: fault_plan(seed),
        feature_count: feature_schema(&features).len(),
        features,
    }
}

/// On a small slice of every region, the sharded stream must
/// reconstruct exactly what the materialized reference pipeline does.
/// Returns the regions that differ.
fn stream_mismatches(cfg: &Config, seed: u64) -> Vec<RegionId> {
    let small = plan(
        &Config {
            scale: cfg.check_scale,
            ..cfg.clone()
        },
        seed,
    );
    let policy = RecoveryPolicy::default();
    small
        .regions
        .iter()
        .filter(|(_, config, shards)| {
            let order: Vec<usize> = (0..shards.shard_count()).collect();
            let streamed = run_region_streamed(
                config,
                shards,
                &order,
                cfg.chunk_subscriptions,
                Some(&small.faults),
                &policy,
            );
            let reference = materialized_pipeline(config, Some(&small.faults), &policy);
            streamed.fleet.databases != reference.fleet.databases
                || streamed.generated_databases != reference.generated_databases
                || streamed.vanished_databases != reference.vanished_databases
        })
        .map(|(region, _, _)| *region)
        .collect()
}

/// Set-up: the pass's plan, warmed by streaming every region's first
/// shard once.
fn setup(cfg: &Config, seed: u64) -> Plan {
    let plan = plan(cfg, seed);
    let mut clock = LayerClock::default();
    for region in 0..plan.regions.len() {
        shard_out(cfg, &plan, region, 0, &mut clock);
    }
    plan
}

/// What one shard produced, reduced to what a pass adds up.
struct ShardOut {
    ms: f64,
    events: u64,
    counts: ShardCounts,
    positive_rows: usize,
    fingerprint: u64,
}

/// One shard through generate → faults → ingest, then featurized.
fn shard_out(
    cfg: &Config,
    plan: &Plan,
    region: usize,
    shard: usize,
    clock: &mut LayerClock,
) -> ShardOut {
    let (region_id, config, shard_plan) = &plan.regions[region];
    let start = Instant::now();
    let result = clock.time("telemetry", || {
        run_shard(
            config,
            shard_plan,
            shard,
            cfg.chunk_subscriptions,
            Some(&plan.faults),
            &RecoveryPolicy::default(),
        )
    });
    let dataset = clock.time("features.extract_ms", || {
        let census = Census::new(&result.fleet);
        let extractor = FeatureExtractor::new(&census, plan.features.clone());
        extractor.build_dataset(&census, None).0
    });
    ShardOut {
        ms: report::ms(start.elapsed()),
        events: result.report.events_total as u64,
        counts: ShardCounts {
            region: region_id.to_string(),
            shard,
            subscriptions: result.fleet.subscriptions.len(),
            generated: result.generated_databases,
            recovered: result.report.databases_recovered,
            quarantined: result.report.databases_quarantined,
            vanished: result.vanished_databases,
            rows: dataset.len(),
        },
        positive_rows: dataset.class_distribution()[1],
        fingerprint: dataset_fingerprint(&dataset),
    }
}

/// Streams every shard of every region on `workers` threads, each
/// taking the next shard as it frees up, and returns the shards in plan
/// order with their layer times added into `clock`. Handing shards out
/// as workers free up lets each shard run on a different core from pass
/// to pass, so a core slowed by another tenant cannot hold one shard's
/// best time down for a whole run.
fn stream_all(cfg: &Config, plan: &Plan, workers: usize, clock: &mut LayerClock) -> Vec<ShardOut> {
    let ops: Vec<(usize, usize)> = plan
        .regions
        .iter()
        .enumerate()
        .flat_map(|(r, (_, _, shards))| (0..shards.shard_count()).map(move |s| (r, s)))
        .collect();
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, ShardOut)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = LayerClock::default();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(r, s)) = ops.get(i) else { break };
                        mine.push((i, shard_out(cfg, plan, r, s, &mut local)));
                    }
                    (mine, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                let (mine, local) = h.join().expect("shard worker");
                clock.merge(&local);
                mine
            })
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, out)| out).collect()
}

fn run_pass(cfg: &Config, seed: u64, plan: &Plan, workers: usize, clock: &mut LayerClock) -> Pass {
    let start = Instant::now();
    let outs = stream_all(cfg, plan, workers, clock);
    let mut regions: Vec<RegionTotals> = plan
        .regions
        .iter()
        .map(|(region_id, _, _)| RegionTotals {
            region: region_id.to_string(),
            subscriptions: 0,
            generated: 0,
            recovered: 0,
            quarantined: 0,
            vanished: 0,
            dataset_rows: 0,
            positive_rows: 0,
            dataset_fingerprint: 0,
        })
        .collect();
    let mut shards = Vec::with_capacity(outs.len());
    let mut shard_ms = Vec::with_capacity(outs.len());
    let mut events = 0u64;
    for out in outs {
        let totals = regions
            .iter_mut()
            .find(|r| r.region == out.counts.region)
            .expect("every shard's region is planned");
        totals.subscriptions += out.counts.subscriptions;
        totals.generated += out.counts.generated;
        totals.recovered += out.counts.recovered;
        totals.quarantined += out.counts.quarantined;
        totals.vanished += out.counts.vanished;
        totals.dataset_rows += out.counts.rows;
        totals.positive_rows += out.positive_rows;
        totals.dataset_fingerprint = totals.dataset_fingerprint.wrapping_add(out.fingerprint);
        shard_ms.push(out.ms);
        events += out.events;
        shards.push(out.counts);
    }
    let wall_ms = report::ms(start.elapsed());
    let fingerprint = regions
        .iter()
        .fold(0u64, |acc, r| acc.wrapping_add(r.dataset_fingerprint));
    Pass {
        wall_ms,
        shard_ms,
        report: FleetReport {
            options: FleetBenchOptions {
                scale: cfg.scale,
                seed,
                shards: cfg.shards,
                chunk_subscriptions: cfg.chunk_subscriptions,
                visit_order: VisitOrder::Forward,
                fault_rate: FAULT_RATE,
                artifact_dir: Default::default(),
            },
            feature_count: plan.feature_count,
            regions,
            shards,
            thread_limit: forest::parallel::thread_limit(),
            elapsed_ms: wall_ms,
            peak_rss_kb: bench::fleet::peak_rss_kb(),
        },
        events,
        fingerprint,
    }
}

/// Checks one pass: the fleet artifact's counting identities hold and
/// the dataset fingerprint matches the first pass of the run.
fn check_pass(outcome: &mut Outcome, pass: &Pass, reference: u64) {
    let shards = pass.report.shards.len() as u64;
    outcome.tally(shards, 0);
    let text = render_fleet("perfbench", &pass.report);
    if let Err(e) = validate_fleet(&text) {
        outcome.check(false, || format!("fleet counting identity: {e}"));
    }
    if pass.fingerprint != reference {
        outcome.check(false, || {
            format!(
                "dataset fingerprint {:#x} differs from the run's first pass {reference:#x}",
                pass.fingerprint
            )
        });
    }
}

/// Runs the workload.
pub fn run(run: &Run, cfg: &Config) -> Outcome {
    let mut outcome = measure(run, cfg);
    // Checked once, after the measurement: the materialized reference
    // holds whole regions, so run earlier it would set the peak RSS.
    let mismatched = stream_mismatches(cfg, run.seed);
    outcome.check(mismatched.is_empty(), || {
        format!("streamed pipeline differs from the materialized one in {mismatched:?}")
    });
    outcome
}

fn measure(run: &Run, cfg: &Config) -> Outcome {
    let mut outcome = Outcome::default();
    // Streaming leaves little to build ahead: set-up is the plan and a
    // warm first shard per region.
    let (plan, setup_s) = report::repeat_setup(cfg.setups, || setup(cfg, run.seed));
    outcome.set("setup_s", setup_s);

    // The traced run streams on one worker, so its layer self times add
    // up to the pass's wall time.
    let workers = if run.trace { 1 } else { run.threads };
    let start = Instant::now();
    let mut clock = LayerClock::default();
    let first = run_pass(cfg, run.seed, &plan, workers, &mut clock);
    let reference = first.fingerprint;
    check_pass(&mut outcome, &first, reference);

    if run.trace {
        // One traced pass against a warm untraced one: the first pass
        // also pays for warm-up.
        let warm = run_pass(cfg, run.seed, &plan, workers, &mut clock);
        check_pass(&mut outcome, &warm, reference);
        let mut traced_clock = LayerClock::default();
        let (pass, snapshot) = report::observed(true, || {
            run_pass(cfg, run.seed, &plan, workers, &mut traced_clock)
        });
        let snapshot = snapshot.expect("traced");
        check_pass(&mut outcome, &pass, reference);
        let telemetry = traced_clock.ms("telemetry");
        let fault = report::span_ms(&snapshot, "inject_faults");
        let ingest =
            report::span_ms(&snapshot, "ingest_chunk") + report::span_ms(&snapshot, "ingest");
        report::report_layers(
            &mut outcome,
            &[
                ("telemetry.generate_ms", telemetry - fault - ingest),
                ("telemetry.fault_ms", fault),
                ("telemetry.ingest_ms", ingest),
                (
                    "features.extract_ms",
                    traced_clock.ms("features.extract_ms"),
                ),
            ],
            pass.wall_ms,
        );
        let generated: usize = pass.report.regions.iter().map(|r| r.generated).sum();
        let recovered: usize = pass.report.regions.iter().map(|r| r.recovered).sum();
        let rows: usize = pass.report.regions.iter().map(|r| r.dataset_rows).sum();
        outcome.set("telemetry.events", pass.events as f64);
        outcome.set(
            "telemetry.recovered_ratio",
            recovered as f64 / generated.max(1) as f64,
        );
        outcome.set("features.rows", rows as f64);
        outcome.set(
            "bench.trace_overhead_pct",
            100.0 * (pass.wall_ms / warm.wall_ms - 1.0),
        );
        return outcome;
    }

    let mut passes = vec![first];
    while report::another_pass(start, run.seconds, passes.last().map_or(0.0, |p| p.wall_ms)) {
        let pass = run_pass(cfg, run.seed, &plan, workers, &mut clock);
        check_pass(&mut outcome, &pass, reference);
        passes.push(pass);
    }
    for (i, pass) in passes.iter().enumerate() {
        eprintln!("perfbench: fleet pass {i}: {:.3} ms", pass.wall_ms);
    }
    // Every pass streams the same fleet (checked above).
    let generated: usize = passes[0].report.regions.iter().map(|r| r.generated).sum();
    let per_pass: Vec<&[f64]> = passes.iter().map(|p| p.shard_ms.as_slice()).collect();
    let best = report::best_op_ms(&per_pass);
    outcome.set(
        "throughput_per_s",
        generated as f64 / (best.iter().sum::<f64>() / 1e3),
    );
    outcome.set("p50_ms", report::quantile(&best, 0.5));
    outcome.set("p90_ms", report::quantile(&best, 0.9));
    outcome.set("peak_rss_mb", report::peak_rss_mb());
    outcome
}
