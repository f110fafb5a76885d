//! `fleetbench` — million-database streaming fleet simulation.
//!
//! ```text
//! cargo run -p bench --release --bin fleetbench -- \
//!     [--scale F] [--seed N] [--shards N] [--chunk N] \
//!     [--order forward|backward] [--fault F] [--out DIR]
//! ```
//!
//! Drives the sharded streaming pipeline (`telemetry::stream`) over
//! all three regions: per-subscription generation → optional fault
//! injection → chunked lenient ingest → per-shard featurization. Raw
//! telemetry never outlives one chunk and shard fleets are dropped as
//! soon as their rows are counted, so memory stays bounded by the
//! largest shard no matter how many million databases `--scale` asks
//! for (scale ~60 crosses one million).
//!
//! Writes `DIR/fleet.json` (schema `survdb-fleet/v1`): the
//! deterministic section is byte-identical across shard counts and
//! visit orders — CI holds that contract with `artifact-check`.

use bench::fleet::{
    run_fleetbench, write_fleet, FleetBenchOptions, FleetReport, VisitOrder, FLEET_FILE,
};
use std::path::PathBuf;

fn parse(args: &[String]) -> Result<FleetBenchOptions, String> {
    let mut options = FleetBenchOptions::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag {
            "--scale" => options.scale = value.parse().map_err(|e| format!("bad --scale: {e}"))?,
            "--seed" => options.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--shards" => {
                options.shards = value.parse().map_err(|e| format!("bad --shards: {e}"))?
            }
            "--chunk" => {
                options.chunk_subscriptions =
                    value.parse().map_err(|e| format!("bad --chunk: {e}"))?
            }
            "--order" => {
                options.visit_order = match value.as_str() {
                    "forward" => VisitOrder::Forward,
                    "backward" => VisitOrder::Backward,
                    other => return Err(format!("unknown visit order {other}")),
                }
            }
            "--fault" => {
                options.fault_rate = value.parse().map_err(|e| format!("bad --fault: {e}"))?
            }
            "--out" => options.artifact_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if options.scale.is_nan() || options.scale <= 0.0 {
        return Err(format!("--scale {} must be positive", options.scale));
    }
    if !(0.0..=1.0).contains(&options.fault_rate) {
        return Err(format!("--fault {} outside [0, 1]", options.fault_rate));
    }
    if options.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if options.chunk_subscriptions == 0 {
        return Err("--chunk must be at least 1".into());
    }
    Ok(options)
}

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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            obs::error!("fleetbench", "{e}");
            obs::error!(
                "fleetbench",
                "usage: fleetbench [--scale F] [--seed N] [--shards N] [--chunk N] \
                 [--order forward|backward] [--fault F] [--out DIR]"
            );
            std::process::exit(2);
        }
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
            obs::error!(
                "fleetbench",
                "cannot write {}: {e}",
                options.artifact_dir.join(FLEET_FILE).display()
            );
            std::process::exit(1);
        }
    }
    bench::finish_trace(&registry, "fleetbench", &options.artifact_dir);
}
