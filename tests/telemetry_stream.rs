//! Stream-path integration: the event stream is a complete data
//! representation — ingesting it reproduces the records, the census,
//! and the prediction dataset exactly; the JSONL export path agrees.

use features::{FeatureConfig, FeatureExtractor};
use telemetry::{
    read_records_jsonl, reconstruct_records_lenient, write_records_jsonl, Census, EventStream,
    Fleet, FleetConfig, RegionConfig, RegionId,
};

fn fleet() -> Fleet {
    Fleet::generate(FleetConfig::new(RegionConfig::region_2().scaled(0.05), 77))
}

#[test]
fn stream_ingestion_reproduces_the_study_dataset() {
    let original = fleet();
    let stream = EventStream::of_fleet(&original);
    let (records, report) = reconstruct_records_lenient(&stream);
    assert_eq!(records, original.databases);
    assert!(report.is_clean(), "{report:?}");

    // Replace the fleet's records with the reconstructed ones and
    // verify the entire downstream analysis is unchanged.
    let mut ingested = original.clone();
    ingested.databases = records;

    let census_a = Census::new(&original);
    let census_b = Census::new(&ingested);
    assert_eq!(
        census_a.study_population_size(),
        census_b.study_population_size()
    );
    assert_eq!(census_a.survival_pairs(2.0), census_b.survival_pairs(2.0));
    assert_eq!(
        census_a.prediction_population(2.0),
        census_b.prediction_population(2.0)
    );

    let ex_a = FeatureExtractor::new(&census_a, FeatureConfig::default());
    let ex_b = FeatureExtractor::new(&census_b, FeatureConfig::default());
    let (data_a, survival_a) = ex_a.build_dataset(&census_a, None);
    let (data_b, survival_b) = ex_b.build_dataset(&census_b, None);
    assert_eq!(data_a, data_b);
    assert_eq!(survival_a, survival_b);
}

#[test]
fn export_and_stream_paths_agree() {
    let original = fleet();

    // Path 1: records -> JSONL -> records.
    let mut jsonl = Vec::new();
    write_records_jsonl(&original.databases, &mut jsonl).unwrap();
    let via_jsonl = read_records_jsonl(jsonl.as_slice()).unwrap();

    // Path 2: records -> event stream -> records.
    let (via_stream, report) = reconstruct_records_lenient(&EventStream::of_fleet(&original));
    assert!(report.is_clean(), "{report:?}");

    assert_eq!(via_jsonl, via_stream);
    assert_eq!(via_jsonl, original.databases);
}

#[test]
fn regional_streams_stay_separate() {
    let region_1 = Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.03), 5));
    let region_3 = Fleet::generate(FleetConfig::new(RegionConfig::region_3().scaled(0.03), 5));
    let (records_1, report_1) = reconstruct_records_lenient(&EventStream::of_fleet(&region_1));
    let (records_3, report_3) = reconstruct_records_lenient(&EventStream::of_fleet(&region_3));
    assert!(report_1.is_clean() && report_3.is_clean());
    assert_eq!(records_1, region_1.databases);
    assert_eq!(records_3, region_3.databases);
    assert!(records_1.iter().all(|r| r.region == RegionId::Region1));
    assert!(records_3.iter().all(|r| r.region == RegionId::Region3));
}
