//! The telemetry data path end to end: generate a fleet, flatten it to
//! the raw event stream, ingest the stream back into records, export /
//! re-import the dataset as JSON Lines, and run a drift check between
//! two observation periods — the operational plumbing around the study.
//!
//! ```text
//! cargo run --release -p survdb-core --example telemetry_pipeline
//! ```

use stats::ks_two_sample;
use telemetry::{
    read_records_jsonl, reconstruct_records_lenient, write_records_jsonl, Census, EventStream,
    Fleet, FleetConfig, RegionConfig, TelemetryEvent,
};

fn main() {
    // 1. The service emits telemetry...
    let fleet = Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.08), 7));
    let stream = EventStream::of_fleet(&fleet);
    let utilization_reports =
        stream.count_where(|e| matches!(e, TelemetryEvent::UtilizationSample { .. }));
    let size_reports = stream.count_where(|e| matches!(e, TelemetryEvent::SizeSample { .. }));
    println!(
        "stream: {} events ({} size reports, {} utilization reports)",
        stream.len(),
        size_reports,
        utilization_reports
    );

    // 2. ...the ingestion tier folds the stream into records...
    let (records, report) = reconstruct_records_lenient(&stream);
    assert_eq!(records, fleet.databases);
    assert!(report.is_clean(), "a clean stream needs no repair");
    println!(
        "ingested {} records (bit-identical to the source fleet)",
        records.len()
    );

    // 3. ...which can be shipped as a dataset and read back...
    let mut jsonl = Vec::new();
    write_records_jsonl(&records, &mut jsonl).expect("write");
    let reloaded = read_records_jsonl(jsonl.as_slice()).expect("validated read");
    println!(
        "exported {:.1} MiB of JSONL, re-imported {} records",
        jsonl.len() as f64 / (1024.0 * 1024.0),
        reloaded.len()
    );

    // 4. ...and monitored for drift: do this month's lifespans look like
    //    last month's? (Kolmogorov–Smirnov on observed lifespans.)
    let census = Census::new(&fleet);
    let start = fleet.window_start();
    let month = |idx: i64| {
        let lo = start + simtime::Duration::days(30 * idx);
        let hi = start + simtime::Duration::days(30 * (idx + 1));
        census
            .survival_pairs_where(0.0, |db| db.created_at >= lo && db.created_at < hi)
            .into_iter()
            .filter(|&(_, event)| event)
            .map(|(days, _)| days)
            .collect::<Vec<f64>>()
    };
    let month_1 = month(0);
    let month_2 = month(1);
    let drift = ks_two_sample(&month_1, &month_2);
    println!(
        "lifespan drift month 1 vs month 2: KS statistic {:.3}, p = {:.3} ({})",
        drift.statistic,
        drift.p_value,
        if drift.significant_at(0.05) {
            "population shifted"
        } else {
            "stable population"
        }
    );

    // Against a deliberately different population the check fires.
    let shifted: Vec<f64> = month_1.iter().map(|d| d * 3.0 + 5.0).collect();
    let alarm = ks_two_sample(&month_1, &shifted);
    println!(
        "synthetic shift check: p = {:.2e} ({})",
        alarm.p_value,
        if alarm.significant_at(0.05) {
            "correctly flagged"
        } else {
            "missed!"
        }
    );
}
