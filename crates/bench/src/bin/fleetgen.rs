//! `fleetgen` — generate and export a synthetic fleet dataset.
//!
//! ```text
//! cargo run -p bench --release --bin fleetgen -- [flags]
//! ```
//!
//! Flags: [`bench::cli::FLEETGEN`]. Writes the database records as JSON
//! Lines (lossless; can be read back with
//! `telemetry::read_records_jsonl`), a flat CSV summary for dataframes,
//! and/or the raw telemetry event stream as text.
//!
//! Export is streamed: the region is generated shard by shard (whole
//! subscriptions, `--shards` of them) and each shard's records are
//! written and dropped before the next is generated, so arbitrarily
//! large `--scale` values export in bounded memory. Because the
//! generator is pure per subscription, the concatenated record output
//! (jsonl/csv) is byte-identical to a whole-fleet export at any shard
//! count; the events export is time-ordered within each shard.

use bench::cli;
use std::fs::File;
use std::io::{BufWriter, Write};
use telemetry::{
    write_records_jsonl, write_summary_csv_header, write_summary_csv_rows, EventStream,
    FleetConfig, RegionConfig, RegionId, ShardPlan,
};

fn main() {
    let args = cli::parse_or_exit(&cli::FLEETGEN);
    let region = args
        .pick("--region", RegionId::ALL)
        .unwrap_or(RegionId::Region1);
    let (jsonl, csv, events) = (
        args.text("--jsonl"),
        args.text("--csv"),
        args.text("--events"),
    );
    if jsonl.is_none() && csv.is_none() && events.is_none() {
        cli::usage_error(
            &cli::FLEETGEN,
            "nothing to do: pass --jsonl, --csv, and/or --events",
        );
    }

    let builder = FleetConfig::builder(RegionConfig::canonical(region))
        .scale(args.float("--scale").unwrap_or(0.1))
        .seed(args.u64("--seed").unwrap_or(42))
        .shards(args.count("--shards").unwrap_or(8));
    let config = builder.config();
    let plan: ShardPlan = builder.shard_plan();
    let window_end = simtime::Timestamp::from_date(config.region.window_end());

    let mut jsonl_out =
        jsonl.map(|path| BufWriter::new(File::create(path).expect("create jsonl file")));
    let mut csv_out = csv.map(|path| {
        let mut file = BufWriter::new(File::create(path).expect("create csv file"));
        write_summary_csv_header(&mut file).expect("write csv header");
        file
    });
    let mut events_out =
        events.map(|path| BufWriter::new(File::create(path).expect("create events file")));

    let mut subscriptions = 0usize;
    let mut databases = 0usize;
    let mut event_count = 0usize;
    for shard in 0..plan.shard_count() {
        let fleet = telemetry::Fleet::generate_range(config.clone(), plan.range(shard));
        subscriptions += fleet.subscriptions.len();
        databases += fleet.databases.len();
        if let Some(out) = &mut jsonl_out {
            write_records_jsonl(&fleet.databases, out).expect("write jsonl");
        }
        if let Some(out) = &mut csv_out {
            write_summary_csv_rows(&fleet.databases, window_end, out).expect("write csv");
        }
        if let Some(out) = &mut events_out {
            let stream = EventStream::of_fleet(&fleet);
            for (at, event) in stream.events() {
                writeln!(out, "{at}\t{event:?}").expect("write event");
            }
            event_count += stream.len();
        }
        // The shard fleet drops here; memory stays bounded by one shard.
    }

    obs::info!(
        "fleetgen",
        "generated {}: {} subscriptions, {} databases ({} shards)",
        region,
        subscriptions,
        databases,
        plan.shard_count()
    );
    for path in [jsonl, csv].into_iter().flatten() {
        obs::info!("fleetgen", "wrote {path}");
    }
    if let Some(path) = events {
        obs::info!("fleetgen", "wrote {path} ({event_count} events)");
    }
}
