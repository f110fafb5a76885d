//! `fleetbench` — million-database streaming fleet simulation.
//!
//! ```text
//! cargo run -p bench --release --bin fleetbench -- [flags]
//! ```
//!
//! Flags: [`bench::cli::FLEETBENCH`]. Drives the sharded streaming
//! pipeline (`telemetry::stream`) over all three regions:
//! per-subscription generation → optional fault injection → chunked
//! lenient ingest → per-shard featurization. Raw
//! telemetry never outlives one chunk and shard fleets are dropped as
//! soon as their rows are counted, so memory stays bounded by the
//! largest shard no matter how many million databases `--scale` asks
//! for (scale ~60 crosses one million).
//!
//! Writes `DIR/fleet.json` (schema `survdb-fleet/v1`): the
//! deterministic section is byte-identical across shard counts and
//! visit orders — CI holds that contract with `artifact-check`.

use bench::cli;
use bench::fleet::{
    run_fleetbench, write_fleet, FleetBenchOptions, FleetReport, VisitOrder, FLEET_FILE,
};

fn print_summary(report: &FleetReport) {
    println!("\n================ Fleet summary (fleetbench)\n");
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>8} {:>8} {:>10}",
        "region", "subs", "generated", "recovered", "quar", "vanish", "rows"
    );
    for r in &report.regions {
        println!(
            "{:<10} {:>8} {:>10} {:>10} {:>8} {:>8} {:>10}",
            r.region,
            r.subscriptions,
            r.generated,
            r.recovered,
            r.quarantined,
            r.vanished,
            r.dataset_rows
        );
    }
    let generated: usize = report.regions.iter().map(|r| r.generated).sum();
    let rows: usize = report.regions.iter().map(|r| r.dataset_rows).sum();
    println!(
        "\ntotal: {generated} databases, {rows} rows in {:.1} s \
         ({:.0} databases/s, {:.0} rows/s), peak RSS {} kB",
        report.elapsed_ms / 1000.0,
        report.databases_per_second(),
        report.rows_per_second(),
        report.peak_rss_kb
    );
}

fn main() {
    let args = cli::parse_or_exit(&cli::FLEETBENCH);
    let d = FleetBenchOptions::default();
    let options = FleetBenchOptions {
        scale: args.float("--scale").unwrap_or(d.scale),
        seed: args.u64("--seed").unwrap_or(d.seed),
        shards: args.count("--shards").unwrap_or(d.shards),
        chunk_subscriptions: args.count("--chunk").unwrap_or(d.chunk_subscriptions),
        visit_order: args
            .pick("--order", [VisitOrder::Forward, VisitOrder::Backward])
            .unwrap_or(d.visit_order),
        fault_rate: args.float("--fault").unwrap_or(d.fault_rate),
        artifact_dir: args.path("--out").unwrap_or(d.artifact_dir),
    };

    let registry = obs::Registry::with_stderr_level(obs::Level::Info);
    let _trace = registry.install();
    obs::info!(
        "fleetbench",
        "scale {} seed {} shards {} chunk {} order {} fault {}",
        options.scale,
        options.seed,
        options.shards,
        options.chunk_subscriptions,
        options.visit_order.label(),
        options.fault_rate
    );

    let report = run_fleetbench(&options);
    print_summary(&report);

    match write_fleet(&options.artifact_dir, "fleetbench", &report) {
        Ok(path) => println!("\n[fleetbench] wrote {}", path.display()),
        Err(e) => {
            let path = options.artifact_dir.join(FLEET_FILE);
            cli::fail(
                "fleetbench",
                format!("cannot write {}: {e}", path.display()),
            )
        }
    }
    bench::finish_trace(&registry, "fleetbench", &options.artifact_dir);
}
